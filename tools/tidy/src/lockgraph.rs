//! Check 7: static lock-graph verification (`cargo run -p tidy -- lockgraph`).
//!
//! A lightweight scope-tracking scanner over the workspace sources that
//! turns the lock-hierarchy prose into hard failures:
//!
//! 1. **Class resolution.** Every `OrderedMutex::new` / `OrderedRwLock::new`
//!    site must name a `hvac_sync::classes` constant. String-literal
//!    classes are allowed only under the `test.` / `example.` prefixes
//!    (unit tests, doctests); anything else is an ad-hoc class that the
//!    runtime checker would happily order but no human placed in the
//!    hierarchy.
//! 2. **Static acquisition edges.** Guard live ranges are tracked per
//!    brace scope (`.lock()`/`.read()`/`.write()`/`.try_lock()` through
//!    `drop()` or end of scope); acquiring class `B` while a class-`A`
//!    guard is live records static edge `A → B`. Every edge must be legal
//!    under [`hvac_sync::classes::HIERARCHY`] — strictly outer level to
//!    inner level, never touching a [`hvac_sync::classes::LEAVES`] class —
//!    and a violation reports the file:line of *both* acquisitions.
//! 3. **Blocking boundaries.** RPC calls (`.call(`/`.call_with_deadline(`),
//!    channel receives, thread `join`/`spawn`, and `sleep` are flagged
//!    while a `VIEW`, inflight-stripe, or store-shard guard is live —
//!    the doc-only "never held across an RPC" invariants, machine-checked.
//!
//! The scanner is textual and intentionally conservative. Two annotation
//! forms extend the model where text alone cannot (they are model
//! declarations, not suppressions — there is no ignore escape hatch):
//!
//! - `// lockgraph: <name> -> <CONST>` binds receiver `<name>` to a class
//!   for the current file (e.g. a guard-returning helper method).
//! - `// lockgraph: acquires <CONST>` marks a call that acquires the class
//!   internally, so cross-function holds still contribute edges.
//!
//! Approximations, all in the safe direction (static ⊇ observed): a `let`
//! binding whose initializer takes a lock is assumed to keep the guard for
//! the whole scope even if a chained call releases it immediately;
//! closure bodies are scanned inline, so guards live at a `spawn` site
//! pair with the closure's acquisitions; a guard returned from a bare
//! `match` expression is treated as released at end of line (callers
//! rebind it by name, which re-enters tracking).

use crate::scan::{non_test_lines, SourceFile};
use crate::Violation;
use hvac_sync::classes;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Pinned location of the canonical class table. Moving the module
/// requires updating this constant — tidy errors otherwise.
pub const CLASSES_MODULE: &str = "crates/hvac-sync/src/classes.rs";

/// Classes whose guards must never be held across a blocking boundary.
fn no_block_classes() -> [&'static str; 3] {
    [
        classes::VIEW,
        classes::SERVER_INFLIGHT_STRIPE,
        classes::STORE_SHARD,
    ]
}

/// Tokens that can park the calling thread. Matched on comment- and
/// string-blanked code, so prose mentions never trip the lint. `.call(`
/// and `.call_with_deadline(` are the fabric RPC entry points; `.recv()` /
/// `.recv_timeout(` are channel waits; `.join()` / `spawn(` are thread
/// lifecycle; `sleep(` covers backoff loops.
const BLOCKING_TOKENS: &[&str] = &[
    ".call_with_deadline(",
    ".call(",
    ".recv()",
    ".recv_timeout(",
    ".join()",
    "::spawn(",
    ".spawn(",
    "sleep(",
];

/// Empty-argument acquisition tokens, longest first so `.try_lock()` wins
/// over `.lock(`.
const ACQUIRE_TOKENS: &[&str] = &[".try_lock()", ".lock()", ".read()", ".write()"];

/// The two constructor patterns resolved by the class lint.
const CONSTRUCTORS: &[&str] = &["OrderedMutex::new(", "OrderedRwLock::new("];

/// Canonical class table: `pub const` ident → label, parsed from
/// [`CLASSES_MODULE`] and cross-checked against the compiled-in
/// [`classes::HIERARCHY`] / [`classes::LEAVES`] placement data.
#[derive(Debug, Default)]
pub struct ClassTable {
    consts: BTreeMap<String, String>,
}

impl ClassTable {
    /// Parse the class table out of the collected sources.
    pub fn build(files: &[SourceFile]) -> (Self, Vec<Violation>) {
        let mut table = Self::default();
        let mut violations = Vec::new();
        let Some(file) = files
            .iter()
            .find(|f| f.rel_path == Path::new(CLASSES_MODULE))
        else {
            violations.push(Violation {
                path: PathBuf::from(CLASSES_MODULE),
                line: 0,
                message: "canonical class module is missing; if it moved, update \
                          lockgraph::CLASSES_MODULE in tools/tidy"
                    .into(),
            });
            return (table, violations);
        };
        for (idx, line) in file.lines() {
            let t = line.trim_start();
            let Some(rest) = t.strip_prefix("pub const ") else {
                continue;
            };
            let Some((name, rest)) = rest.split_once(':') else {
                continue;
            };
            // Only plain `&str` labels; HIERARCHY/LEAVES have slice types.
            if !rest.trim_start().starts_with("&str") {
                continue;
            }
            let Some((_, value)) = rest.split_once('=') else {
                continue;
            };
            let Some(label) = value
                .trim()
                .strip_prefix('"')
                .and_then(|v| v.find('"').map(|end| &v[..end]))
            else {
                continue;
            };
            let name = name.trim().to_string();
            if classes::level_of(label).is_none() && !classes::LEAVES.contains(&label) {
                violations.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx,
                    message: format!(
                        "class {name} (\"{label}\") is not placed in classes::HIERARCHY \
                         or classes::LEAVES; every class needs exactly one placement"
                    ),
                });
            }
            if table
                .consts
                .insert(name.clone(), label.to_string())
                .is_some()
            {
                violations.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx,
                    message: format!("duplicate class constant {name}"),
                });
            }
        }
        (table, violations)
    }

    /// Label of a class constant by ident, if declared.
    pub fn label_of(&self, const_name: &str) -> Option<&str> {
        self.consts.get(const_name).map(String::as_str)
    }

    /// All `(const ident, label)` pairs, sorted by ident.
    pub fn consts(&self) -> &BTreeMap<String, String> {
        &self.consts
    }
}

/// One resolved acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquisition {
    /// Class label acquired.
    pub class: String,
    /// Workspace-relative file.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
}

/// One static class-acquisition edge: `outer` was live when `inner` was
/// acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// The guard that was already held.
    pub outer: Acquisition,
    /// The acquisition made under it.
    pub inner: Acquisition,
}

/// Full result of a lockgraph run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every edge event with both sites (one entry per acquisition pair).
    pub edges: Vec<Edge>,
    /// Resolved acquisition-site count per class label.
    pub class_sites: BTreeMap<String, usize>,
    /// Lint failures: ad-hoc classes, unresolved receivers, hierarchy
    /// contradictions, guards across blocking boundaries.
    pub violations: Vec<Violation>,
}

impl Analysis {
    /// Deduplicated `(outer, inner)` class pairs.
    pub fn edge_pairs(&self) -> BTreeSet<(String, String)> {
        self.edges
            .iter()
            .map(|e| (e.outer.class.clone(), e.inner.class.clone()))
            .collect()
    }
}

/// Whether a file participates in guard live-range tracking: first-party
/// library sources (`crates/*/src`), except `hvac-sync` itself (it
/// implements the wrappers over raw std locks).
fn guard_scan_scope(rel: &Path) -> bool {
    rel.starts_with("crates")
        && !rel.starts_with("crates/hvac-sync")
        && rel.iter().any(|c| c == "src")
}

/// Whether ad-hoc (non-`classes::`) constructor arguments are tolerated:
/// test/bench/example trees construct throwaway locks from variables.
fn is_testish(rel: &Path) -> bool {
    rel.iter()
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// Run the whole pass over already-collected sources.
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let (table, mut violations) = ClassTable::build(files);
    let mut edges = Vec::new();
    let mut class_sites: BTreeMap<String, usize> = BTreeMap::new();
    for file in files {
        if file.rel_path.starts_with(crate::SELF_EXEMPT) {
            continue;
        }
        let names = resolve_names(file, &table, &mut violations);
        if guard_scan_scope(&file.rel_path) {
            extract_file(
                file,
                &names,
                &table,
                &mut edges,
                &mut class_sites,
                &mut violations,
            );
        }
    }
    for edge in &edges {
        if let Some(v) = check_edge_against_hierarchy(edge) {
            violations.push(v);
        }
    }
    Analysis {
        edges,
        class_sites,
        violations,
    }
}

/// Collect the workspace and run [`analyze`].
pub fn analyze_workspace(root: &Path) -> Analysis {
    analyze(&crate::collect_sources(root))
}

/// Hierarchy legality of one edge, with both sites in the message.
fn check_edge_against_hierarchy(edge: &Edge) -> Option<Violation> {
    let (outer, inner) = (&edge.outer, &edge.inner);
    if classes::edge_allowed(&outer.class, &inner.class) {
        return None;
    }
    let reason = if classes::LEAVES.contains(&outer.class.as_str())
        || classes::LEAVES.contains(&inner.class.as_str())
    {
        "leaf classes never nest"
    } else if classes::level_of(&outer.class) == classes::level_of(&inner.class) {
        "same hierarchy level never nests"
    } else {
        "the hierarchy orders them the other way"
    };
    Some(Violation {
        path: inner.path.clone(),
        line: inner.line,
        message: format!(
            "lock-order violation: acquiring '{}' while holding '{}' (acquired at \
             {}:{}) contradicts classes::HIERARCHY — {reason}",
            inner.class,
            outer.class,
            outer.path.display(),
            outer.line,
        ),
    })
}

/// Per-file receiver-name → class-label resolution, plus the constructor
/// lints (ad-hoc literals, unknown constants, unresolvable bindings).
fn resolve_names(
    file: &SourceFile,
    table: &ClassTable,
    violations: &mut Vec<Violation>,
) -> BTreeMap<String, String> {
    let mut names = BTreeMap::new();
    let lines: Vec<&str> = file.text.lines().collect();
    let mask = non_test_lines(&file.text);
    let testish = is_testish(&file.rel_path);
    for (idx0, raw) in lines.iter().enumerate() {
        // Annotation form 1: `// lockgraph: <name> -> <CONST>`.
        if let Some(directive) = annotation(raw) {
            if let Some((name, const_name)) = directive.split_once("->") {
                let (name, const_name) = (name.trim(), const_name.trim());
                match table.label_of(const_name) {
                    Some(label) => {
                        names.insert(name.to_string(), label.to_string());
                    }
                    None => violations.push(Violation {
                        path: file.rel_path.clone(),
                        line: idx0 + 1,
                        message: format!(
                            "lockgraph annotation names unknown class constant {const_name}"
                        ),
                    }),
                }
            }
        }
        for pat in CONSTRUCTORS {
            let mut search = 0;
            while let Some(rel) = raw[search..].find(pat) {
                let at = search + rel;
                search = at + pat.len();
                let arg = raw[at + pat.len()..].trim_start();
                if let Some(lit) = arg.strip_prefix('"') {
                    let Some(end) = lit.find('"') else { continue };
                    let lit = &lit[..end];
                    if !lit.starts_with("test.") && !lit.starts_with("example.") {
                        violations.push(Violation {
                            path: file.rel_path.clone(),
                            line: idx0 + 1,
                            message: format!(
                                "ad-hoc lock class \"{lit}\"; first-party locks must \
                                 use a hvac_sync::classes constant (tests and doc \
                                 examples may use `test.` / `example.` labels)"
                            ),
                        });
                    }
                } else if let Some(const_name) = classes_const_in(arg) {
                    let Some(label) = table.label_of(&const_name) else {
                        violations.push(Violation {
                            path: file.rel_path.clone(),
                            line: idx0 + 1,
                            message: format!(
                                "unknown class constant classes::{const_name}; declare \
                                 it in {CLASSES_MODULE} and place it in HIERARCHY"
                            ),
                        });
                        continue;
                    };
                    match binder_for(&lines, idx0, at) {
                        Some(binder) => {
                            names.insert(binder, label.to_string());
                        }
                        None if guard_scan_scope(&file.rel_path) => {
                            violations.push(Violation {
                                path: file.rel_path.clone(),
                                line: idx0 + 1,
                                message: format!(
                                    "cannot determine the binding holding this lock; \
                                     add `// lockgraph: <name> -> {const_name}`"
                                ),
                            });
                        }
                        None => {}
                    }
                } else {
                    // Variable / expression class: only test trees may.
                    let in_test_code = testish || !mask.get(idx0).copied().unwrap_or(true);
                    if !in_test_code {
                        violations.push(Violation {
                            path: file.rel_path.clone(),
                            line: idx0 + 1,
                            message: "lock class must be a hvac_sync::classes constant \
                                      (or a `test.`/`example.` literal in test code)"
                                .into(),
                        });
                    }
                }
            }
        }
    }
    names
}

/// The directive text after `// lockgraph:`, if the line carries one.
fn annotation(raw: &str) -> Option<&str> {
    raw.split("// lockgraph:").nth(1).map(str::trim)
}

/// Extract `classes::CONST` (optionally `hvac_sync::classes::CONST`) from
/// the head of a constructor argument list.
fn classes_const_in(arg: &str) -> Option<String> {
    let head = arg.split([',', ')']).next()?;
    let pos = head.find("classes::")?;
    let ident: String = head[pos + "classes::".len()..]
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty()).then_some(ident)
}

/// Binder of a constructor: same-line `let x =` / struct-field `x:`
/// prefix, else up to three preceding lines (builder chains like
/// `let shards = (0..n)` / `.map(|_| OrderedRwLock::new(...))`).
fn binder_for(lines: &[&str], idx0: usize, col: usize) -> Option<String> {
    if let Some(b) = binder_in_prefix(&lines[idx0][..col]) {
        return Some(b);
    }
    for back in 1..=3 {
        let line = lines.get(idx0.checked_sub(back)?)?;
        if let Some(b) = binder_in_line(line) {
            return Some(b);
        }
    }
    None
}

/// Binder from the text left of an expression: `... let [mut] NAME =` or
/// struct-field `NAME:`.
fn binder_in_prefix(prefix: &str) -> Option<String> {
    let t = prefix.trim_end();
    if let Some(t) = t.strip_suffix('=') {
        return last_ident(t);
    }
    if let Some(t) = t.strip_suffix(':') {
        return last_ident(t);
    }
    None
}

/// Binder when a whole line introduces one: `let [mut] NAME ...` or a
/// struct-field line `NAME: ...`.
fn binder_in_line(line: &str) -> Option<String> {
    let t = line.trim();
    if let Some(rest) = t.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        return leading_ident(rest);
    }
    let id = leading_ident(t)?;
    t[id.len()..].trim_start().starts_with(':').then_some(id)
}

fn last_ident(text: &str) -> Option<String> {
    let end = text.rfind(|c: char| c.is_alphanumeric() || c == '_')? + 1;
    let start = text[..end]
        .rfind(|c: char| !c.is_alphanumeric() && c != '_')
        .map_or(0, |p| p + 1);
    let id = &text[start..end];
    (!id.is_empty() && !id.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then(|| id.to_string())
}

fn leading_ident(text: &str) -> Option<String> {
    let id: String = text
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!id.is_empty()).then_some(id)
}

/// Blank string/char-literal contents, line comments, and block comments
/// with spaces, preserving length and newlines, so brace counting and
/// token matching never see prose.
pub fn blank_noncode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = vec![0u8; 0];
    out.reserve(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment: blank to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment: blank through `*/`, keeping newlines.
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        out.extend_from_slice(b"  ");
                        i += 2;
                        break;
                    }
                    out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            b'"' => {
                // String literal: keep the quotes, blank the contents.
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b'"');
                        i += 1;
                        break;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal (`'x'`, `'\n'`) vs lifetime (`'a`): a
                // closing quote within a few bytes means char literal.
                let lit_len =
                    if bytes.get(i + 1) == Some(&b'\\') && bytes.get(i + 3) == Some(&b'\'') {
                        Some(4)
                    } else if bytes.get(i + 1).is_some() && bytes.get(i + 2) == Some(&b'\'') {
                        Some(3)
                    } else {
                        None
                    };
                match lit_len {
                    Some(n) => {
                        out.push(b'\'');
                        out.extend(std::iter::repeat_n(b' ', n - 2));
                        out.push(b'\'');
                        i += n;
                    }
                    None => {
                        out.push(b'\'');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    out.truncate(bytes.len());
    String::from_utf8(out).unwrap_or_else(|_| text.to_string())
}

/// One tracked guard.
#[derive(Debug)]
struct LiveGuard {
    /// `let` binding name, or `None` for a statement temporary.
    binding: Option<String>,
    class: String,
    line: usize,
}

/// Scan one file's guard live ranges, recording edges, resolved-site
/// counts, and blocking-boundary violations.
fn extract_file(
    file: &SourceFile,
    names: &BTreeMap<String, String>,
    table: &ClassTable,
    edges: &mut Vec<Edge>,
    class_sites: &mut BTreeMap<String, usize>,
    violations: &mut Vec<Violation>,
) {
    let blanked = blank_noncode(&file.text);
    let raw_lines: Vec<&str> = file.text.lines().collect();
    let code_lines: Vec<&str> = blanked.lines().collect();
    let mask = non_test_lines(&file.text);
    let mut scopes: Vec<Vec<LiveGuard>> = vec![Vec::new()];
    let no_block = no_block_classes();
    // Byte offset of each line start within `blanked`, for receiver
    // resolution across rustfmt-wrapped method chains.
    let mut line_starts = Vec::with_capacity(code_lines.len());
    let mut offset = 0;
    for line in &code_lines {
        line_starts.push(offset);
        offset += line.len() + 1;
    }

    for (idx0, code) in code_lines.iter().enumerate() {
        if !mask.get(idx0).copied().unwrap_or(true) {
            continue;
        }
        let lineno = idx0 + 1;
        let line_start = line_starts[idx0];
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    scopes.push(Vec::new());
                    i += 1;
                    continue;
                }
                b'}' => {
                    if scopes.len() > 1 {
                        scopes.pop();
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }
            if let Some(tok) = ACQUIRE_TOKENS.iter().find(|t| code[i..].starts_with(**t)) {
                handle_acquisition(
                    file,
                    names,
                    &blanked,
                    line_start + i,
                    lineno,
                    &mut scopes,
                    edges,
                    class_sites,
                    violations,
                );
                i += tok.len();
                continue;
            }
            // Guard-returning helpers with arguments (`inflight.lock(idx,
            // m)`): only when the receiver is already mapped to a class.
            if code[i..].starts_with(".lock(") && !code[i..].starts_with(".lock()") {
                let recv = receiver_before(&blanked, line_start + i);
                if recv
                    .as_deref()
                    .and_then(|r| resolve_receiver(r, names))
                    .is_some()
                {
                    handle_acquisition(
                        file,
                        names,
                        &blanked,
                        line_start + i,
                        lineno,
                        &mut scopes,
                        edges,
                        class_sites,
                        violations,
                    );
                }
                i += ".lock(".len();
                continue;
            }
            if code[i..].starts_with("drop(") && !prev_is_ident(bytes, i) {
                let inner = code[i + "drop(".len()..]
                    .split(')')
                    .next()
                    .unwrap_or("")
                    .trim();
                if let Some((si, gi)) = find_binding(&scopes, inner) {
                    scopes[si].remove(gi);
                }
                i += "drop(".len();
                continue;
            }
            if let Some(tok) = BLOCKING_TOKENS.iter().find(|t| code[i..].starts_with(**t)) {
                for guard in scopes.iter().flatten() {
                    if no_block.contains(&guard.class.as_str()) {
                        violations.push(Violation {
                            path: file.rel_path.clone(),
                            line: lineno,
                            message: format!(
                                "blocking call `{}` while holding '{}' (acquired at \
                                 {}:{}); release the guard before blocking — see \
                                 DESIGN.md §Static lock-graph verification",
                                tok.trim_matches(['.', ':', '(']),
                                guard.class,
                                file.rel_path.display(),
                                guard.line,
                            ),
                        });
                    }
                }
                i += tok.len();
                continue;
            }
            i += 1;
        }
        // Statement temporaries die at end of line.
        for scope in scopes.iter_mut() {
            scope.retain(|g| g.binding.is_some() || g.line != lineno);
        }
        // Annotation form 2: `// lockgraph: acquires <CONST>` — a call on
        // this line acquires the class internally (cross-function hold).
        if let Some(directive) = raw_lines.get(idx0).and_then(|r| annotation(r)) {
            if let Some(const_name) = directive.strip_prefix("acquires ") {
                match table.label_of(const_name.trim()) {
                    Some(label) => {
                        record_acquire(file, label, lineno, &scopes, edges, class_sites);
                    }
                    None => violations.push(Violation {
                        path: file.rel_path.clone(),
                        line: lineno,
                        message: format!(
                            "lockgraph annotation names unknown class constant {const_name}"
                        ),
                    }),
                }
            }
        }
    }
}

/// Record one resolved acquisition: edges from every live guard of a
/// different class, plus the per-class site count.
fn record_acquire(
    file: &SourceFile,
    class: &str,
    lineno: usize,
    scopes: &[Vec<LiveGuard>],
    edges: &mut Vec<Edge>,
    class_sites: &mut BTreeMap<String, usize>,
) {
    *class_sites.entry(class.to_string()).or_default() += 1;
    for guard in scopes.iter().flatten() {
        if guard.class != class {
            edges.push(Edge {
                outer: Acquisition {
                    class: guard.class.clone(),
                    path: file.rel_path.clone(),
                    line: guard.line,
                },
                inner: Acquisition {
                    class: class.to_string(),
                    path: file.rel_path.clone(),
                    line: lineno,
                },
            });
        }
    }
}

/// Resolve and register one textual acquisition at byte `at` of `code`.
#[allow(clippy::too_many_arguments)]
fn handle_acquisition(
    file: &SourceFile,
    names: &BTreeMap<String, String>,
    blanked: &str,
    at: usize,
    lineno: usize,
    scopes: &mut [Vec<LiveGuard>],
    edges: &mut Vec<Edge>,
    class_sites: &mut BTreeMap<String, usize>,
    violations: &mut Vec<Violation>,
) {
    let Some(recv) = receiver_before(blanked, at) else {
        violations.push(Violation {
            path: file.rel_path.clone(),
            line: lineno,
            message: "cannot parse the receiver of this lock acquisition".into(),
        });
        return;
    };
    let Some(class) = resolve_receiver(&recv, names) else {
        violations.push(Violation {
            path: file.rel_path.clone(),
            line: lineno,
            message: format!(
                "cannot resolve lock receiver `{recv}` to a class; construct it \
                 from a hvac_sync::classes constant in this file or add \
                 `// lockgraph: {recv} -> <CONST>`"
            ),
        });
        return;
    };
    record_acquire(file, &class, lineno, scopes, edges, class_sites);
    // Binder, if any, sits left of the receiver on the line where the
    // (possibly wrapped) receiver chain begins.
    let recv_start = receiver_span_start(blanked, at);
    let prefix = &blanked[..recv_start];
    let prefix_line = prefix.rsplit('\n').next().unwrap_or(prefix);
    let binding = binder_in_prefix(prefix_line);
    let guard = LiveGuard {
        binding,
        class,
        line: lineno,
    };
    scopes
        .last_mut()
        .expect("scope stack is never empty")
        .push(guard);
}

/// Start byte of the receiver chain ending at `at` in the blanked buffer.
/// Walks backwards over idents, `.`, and `[..]` index groups, and crosses
/// whitespace (including newlines) only where it joins a rustfmt-wrapped
/// method chain — `self\n    .fds\n    .lock()` resolves like
/// `self.fds.lock()`.
fn receiver_span_start(text: &str, at: usize) -> usize {
    let bytes = text.as_bytes();
    let mut j = at;
    loop {
        // Whitespace run before the current span start?
        let mut k = j;
        while k > 0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k < j {
            // Cross it only when the span so far is chain-shaped (empty —
            // the token itself starts with `.` — or beginning with `.`)
            // and the far side continues a chain.
            let span_ok = j == at || bytes.get(j).copied() == Some(b'.');
            let prev_ok = k > 0
                && (bytes[k - 1].is_ascii_alphanumeric()
                    || bytes[k - 1] == b'_'
                    || bytes[k - 1] == b']');
            if span_ok && prev_ok {
                j = k;
            } else {
                break;
            }
        }
        if j == 0 {
            break;
        }
        let c = bytes[j - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
            j -= 1;
        } else if c == b']' {
            // Skip an index expression to its matching bracket.
            let mut depth = 0usize;
            while j > 0 {
                match bytes[j - 1] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
        } else {
            break;
        }
    }
    j
}

/// The dotted receiver chain textually before byte `at`, index
/// expressions and wrapping whitespace stripped
/// (`self.stripes[idx]` → `self.stripes`).
fn receiver_before(text: &str, at: usize) -> Option<String> {
    let span = &text[receiver_span_start(text, at)..at];
    let mut cleaned = String::with_capacity(span.len());
    let mut depth = 0usize;
    for c in span.chars() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            _ if depth == 0 && !c.is_whitespace() => cleaned.push(c),
            _ => {}
        }
    }
    let cleaned = cleaned.trim_matches('.').to_string();
    (!cleaned.is_empty()).then_some(cleaned)
}

/// Map a receiver chain to a class: try the chain minus `self.`, its last
/// segment, then the last segment pluralized (`shard` → the `shards`
/// collection it was iterated out of).
fn resolve_receiver(recv: &str, names: &BTreeMap<String, String>) -> Option<String> {
    let chain = recv.strip_prefix("self.").unwrap_or(recv);
    if let Some(c) = names.get(chain) {
        return Some(c.clone());
    }
    let last = chain.rsplit('.').next()?;
    if let Some(c) = names.get(last) {
        return Some(c.clone());
    }
    names.get(&format!("{last}s")).cloned()
}

fn prev_is_ident(bytes: &[u8], at: usize) -> bool {
    at > 0
        && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_' || bytes[at - 1] == b'.')
}

/// Locate the most recently registered live guard bound to `name`.
fn find_binding(scopes: &[Vec<LiveGuard>], name: &str) -> Option<(usize, usize)> {
    if name.is_empty() {
        return None;
    }
    for (si, scope) in scopes.iter().enumerate().rev() {
        for (gi, guard) in scope.iter().enumerate().rev() {
            if guard.binding.as_deref() == Some(name) {
                return Some((si, gi));
            }
        }
    }
    None
}

/// Render the analysis as the `tidy lockgraph` dump: hierarchy levels,
/// per-class site counts, and the deduplicated edge set with one witness
/// site pair each.
pub fn render(analysis: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# HVAC static lock graph (tidy lockgraph)");
    let _ = writeln!(out, "# declared hierarchy, outermost first");
    for (level, (name, labels)) in classes::HIERARCHY.iter().enumerate() {
        let _ = writeln!(out, "level {level} ({name}): {}", labels.join(", "));
    }
    let _ = writeln!(out, "leaves (never nest): {}", classes::LEAVES.join(", "));
    let _ = writeln!(out, "# resolved acquisition sites per class");
    for (class, count) in &analysis.class_sites {
        let _ = writeln!(out, "class {class}: {count} site(s)");
    }
    let _ = writeln!(out, "# static edges (outer -> inner)");
    let mut witnesses: BTreeMap<(String, String), (usize, &Edge)> = BTreeMap::new();
    for edge in &analysis.edges {
        let key = (edge.outer.class.clone(), edge.inner.class.clone());
        let entry = witnesses.entry(key).or_insert((0, edge));
        entry.0 += 1;
    }
    for ((outer, inner), (count, witness)) in &witnesses {
        let _ = writeln!(out, "edge {outer} -> {inner} [{count} site pair(s)]");
        let _ = writeln!(
            out,
            "  witness outer {}:{} inner {}:{}",
            witness.outer.path.display(),
            witness.outer.line,
            witness.inner.path.display(),
            witness.inner.line,
        );
    }
    let _ = writeln!(
        out,
        "# {} class(es) with sites, {} distinct edge(s), {} violation(s)",
        analysis.class_sites.len(),
        witnesses.len(),
        analysis.violations.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal stand-in for the canonical class module: real labels (so
    /// the compiled-in HIERARCHY placement accepts them) under the pinned
    /// path.
    fn classes_fixture() -> SourceFile {
        SourceFile::new(
            PathBuf::from(CLASSES_MODULE),
            concat!(
                "//! doc\n",
                "pub const VIEW: &str = \"core.view\";\n",
                "pub const SERVER_INFLIGHT_STRIPE: &str = \"core.server.inflight_stripe\";\n",
                "pub const CACHE_POLICY: &str = \"core.cache.policy\";\n",
                "pub const STORE_SHARD: &str = \"storage.localstore.shard\";\n",
                "pub const CLIENT_FDS: &str = \"core.client.fds\";\n",
            )
            .to_string(),
        )
    }

    fn src(path: &str, body: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(path), body.to_string())
    }

    fn run(files: Vec<SourceFile>) -> Analysis {
        let mut all = vec![classes_fixture()];
        all.extend(files);
        analyze(&all)
    }

    #[test]
    fn class_table_parses_and_places() {
        let (table, violations) = ClassTable::build(&[classes_fixture()]);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(table.label_of("VIEW"), Some("core.view"));
        assert_eq!(table.label_of("NOPE"), None);
    }

    #[test]
    fn unplaced_class_is_flagged() {
        let mut fixture = classes_fixture();
        fixture
            .text
            .push_str("pub const ROGUE: &str = \"core.rogue\";\n");
        let (_, violations) = ClassTable::build(&[fixture]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("not placed"));
        assert_eq!(violations[0].line, 7);
    }

    /// Seeded violation 1: a reversed acquisition (store shard held while
    /// taking the cache policy) fails with both file:line sites.
    #[test]
    fn seeded_reversed_acquisition_fails() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedMutex};\n\
                    struct S {\n\
                    \x20   shard: OrderedMutex<u32>,\n\
                    \x20   policy: OrderedMutex<u32>,\n\
                    }\n\
                    fn build() -> S {\n\
                    \x20   S {\n\
                    \x20       shard: OrderedMutex::new(classes::STORE_SHARD, 0),\n\
                    \x20       policy: OrderedMutex::new(classes::CACHE_POLICY, 0),\n\
                    \x20   }\n\
                    }\n\
                    fn bad(s: &S) {\n\
                    \x20   let g = s.shard.lock();\n\
                    \x20   let p = s.policy.lock();\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/seeded.rs", body)]);
        let v = analysis
            .violations
            .iter()
            .find(|v| v.message.contains("lock-order violation"))
            .expect("reversed acquisition must fail");
        assert_eq!(v.path, PathBuf::from("crates/hvac-core/src/seeded.rs"));
        assert_eq!(v.line, 15, "inner acquisition line");
        assert!(
            v.message.contains("seeded.rs:14"),
            "outer site in message: {}",
            v.message
        );
        assert!(v.message.contains("core.cache.policy"));
        assert!(v.message.contains("storage.localstore.shard"));
    }

    /// Seeded violation 2: an ad-hoc class string outside `test.` /
    /// `example.` fails with file:line.
    #[test]
    fn seeded_ad_hoc_class_fails() {
        let body = "//! doc\n\
                    use hvac_sync::OrderedMutex;\n\
                    fn sneaky() {\n\
                    \x20   let m = OrderedMutex::new(\"core.sneaky\", 0u32);\n\
                    \x20   drop(m);\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/adhoc.rs", body)]);
        let v = analysis
            .violations
            .iter()
            .find(|v| v.message.contains("ad-hoc lock class"))
            .expect("ad-hoc class must fail");
        assert_eq!(v.line, 4);
        assert!(v.message.contains("core.sneaky"));
        // The allow-listed prefixes pass, even in library code (doctests).
        let ok = "//! doc\n\
                  use hvac_sync::OrderedMutex;\n\
                  fn f() {\n\
                  \x20   let m = OrderedMutex::new(\"example.demo\", 0u32);\n\
                  \x20   let t = OrderedMutex::new(\"test.demo\", 0u32);\n\
                  \x20   drop((m, t));\n\
                  }\n";
        let analysis = run(vec![src("crates/hvac-core/src/adhoc_ok.rs", ok)]);
        assert!(
            !analysis
                .violations
                .iter()
                .any(|v| v.message.contains("ad-hoc")),
            "{:?}",
            analysis.violations
        );
    }

    /// Seeded violation 3: a guard held across an RPC fails with the
    /// blocking site and the acquisition site.
    #[test]
    fn seeded_guard_across_rpc_fails() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedRwLock};\n\
                    struct S { view: OrderedRwLock<u32> }\n\
                    fn build() -> S {\n\
                    \x20   S { view: OrderedRwLock::new(classes::VIEW, 0) }\n\
                    }\n\
                    fn bad(s: &S, c: &Client) {\n\
                    \x20   let v = s.view.read();\n\
                    \x20   c.call(*v);\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/rpcbad.rs", body)]);
        let v = analysis
            .violations
            .iter()
            .find(|v| v.message.contains("blocking call"))
            .expect("guard across RPC must fail");
        assert_eq!(v.line, 9);
        assert!(v.message.contains("core.view"));
        assert!(v.message.contains("rpcbad.rs:8"), "{}", v.message);
    }

    /// `drop()` ends the live range: no blocking violation, no edge.
    #[test]
    fn early_drop_releases_guard() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedRwLock};\n\
                    fn build() {\n\
                    \x20   let view = OrderedRwLock::new(classes::VIEW, 0);\n\
                    \x20   let v = view.read();\n\
                    \x20   drop(v);\n\
                    \x20   do_rpc.call(1);\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/dropok.rs", body)]);
        assert!(
            !analysis
                .violations
                .iter()
                .any(|v| v.message.contains("blocking")),
            "{:?}",
            analysis.violations
        );
    }

    /// A statement temporary dies at end of line; the next line holds
    /// nothing.
    #[test]
    fn temporaries_die_at_end_of_statement() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedMutex};\n\
                    fn f() {\n\
                    \x20   let stripe = OrderedMutex::new(classes::SERVER_INFLIGHT_STRIPE, 0);\n\
                    \x20   stripe.lock();\n\
                    \x20   rx.recv();\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/temp.rs", body)]);
        assert!(
            !analysis
                .violations
                .iter()
                .any(|v| v.message.contains("blocking")),
            "{:?}",
            analysis.violations
        );
    }

    /// Scope exit releases guards: a block-scoped stripe guard is gone by
    /// the time the blocking call runs (the data mover's lookup shape).
    #[test]
    fn scope_exit_releases_guard() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedMutex};\n\
                    fn f() {\n\
                    \x20   let stripe = OrderedMutex::new(classes::SERVER_INFLIGHT_STRIPE, 0);\n\
                    \x20   {\n\
                    \x20       let g = stripe.lock();\n\
                    \x20   }\n\
                    \x20   rx.recv();\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/scope.rs", body)]);
        assert!(
            !analysis
                .violations
                .iter()
                .any(|v| v.message.contains("blocking")),
            "{:?}",
            analysis.violations
        );
    }

    /// The `acquires` annotation records a cross-function edge from every
    /// live guard.
    #[test]
    fn acquires_annotation_records_edge() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedMutex};\n\
                    fn f() {\n\
                    \x20   let policy = OrderedMutex::new(classes::CACHE_POLICY, 0);\n\
                    \x20   let g = policy.lock();\n\
                    \x20   store.insert(1); // lockgraph: acquires STORE_SHARD\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/xfn.rs", body)]);
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
        assert!(analysis.edge_pairs().contains(&(
            "core.cache.policy".to_string(),
            "storage.localstore.shard".to_string()
        )));
    }

    /// Leaf classes never nest: holding one while locking anything (or
    /// vice versa) is a violation.
    #[test]
    fn leaf_nesting_is_flagged() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedMutex};\n\
                    fn f() {\n\
                    \x20   let fds = OrderedMutex::new(classes::CLIENT_FDS, 0);\n\
                    \x20   let shard = OrderedMutex::new(classes::STORE_SHARD, 0);\n\
                    \x20   let a = fds.lock();\n\
                    \x20   let b = shard.lock();\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/leaf.rs", body)]);
        let v = analysis
            .violations
            .iter()
            .find(|v| v.message.contains("leaf"))
            .expect("leaf nesting must fail");
        assert_eq!(v.line, 7);
    }

    /// Receivers the scanner cannot resolve are hard errors pointing at
    /// the annotation to add.
    #[test]
    fn unresolved_receiver_is_flagged() {
        let body = "//! doc\n\
                    fn f(mystery: &M) {\n\
                    \x20   let g = mystery.lock();\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/mystery.rs", body)]);
        let v = analysis
            .violations
            .iter()
            .find(|v| v.message.contains("cannot resolve"))
            .expect("unresolved receiver must fail");
        assert!(v.message.contains("lockgraph: mystery ->"));
    }

    /// Wrapped method chains resolve across lines.
    #[test]
    fn wrapped_chain_resolves() {
        let body = "//! doc\n\
                    use hvac_sync::{classes, OrderedMutex};\n\
                    struct S { fds: OrderedMutex<u32> }\n\
                    fn build() -> S {\n\
                    \x20   S { fds: OrderedMutex::new(classes::CLIENT_FDS, 0) }\n\
                    }\n\
                    fn f(s: &S) {\n\
                    \x20   let of = s\n\
                    \x20       .fds\n\
                    \x20       .lock()\n\
                    \x20       .wrapping_add(1);\n\
                    }\n";
        let analysis = run(vec![src("crates/hvac-core/src/chain.rs", body)]);
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
        assert_eq!(analysis.class_sites.get("core.client.fds"), Some(&1));
    }

    /// Blanking strips strings, chars, and comments but keeps structure.
    #[test]
    fn blanking_preserves_structure() {
        let out = blank_noncode("let x = \"a { b\"; // }\nlet c = '{'; /* \"s\" */ f();\n");
        assert_eq!(
            out.len(),
            "let x = \"a { b\"; // }\nlet c = '{'; /* \"s\" */ f();\n".len()
        );
        assert!(!out.contains("a { b"));
        assert!(!out.contains("'{'"));
        assert!(out.contains("f();"));
        assert_eq!(out.matches('{').count(), 0);
    }

    #[test]
    fn vendored_and_test_trees_may_use_variable_classes() {
        let body = "//! doc\n\
                    use hvac_sync::OrderedMutex;\n\
                    fn f(c: &'static str) {\n\
                    \x20   let m = OrderedMutex::new(c, 0u32);\n\
                    \x20   drop(m);\n\
                    }\n";
        // In a tests tree: allowed.
        let analysis = run(vec![src("crates/hvac-core/tests/vars.rs", body)]);
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
        // In library code: rejected.
        let analysis = run(vec![src("crates/hvac-core/src/vars.rs", body)]);
        assert!(analysis
            .violations
            .iter()
            .any(|v| v.message.contains("must be a hvac_sync::classes constant")));
    }
}
