//! Repo-local source lints for the HVAC workspace, in the style of
//! rust-lang's `tidy`: fast, regex-free line scans with no external
//! dependencies, run as `cargo run -p tidy` and from a tier-1 test.
//!
//! Checks enforced:
//!
//! 1. **Unwrap/expect ratchet** — per-crate caps on `.unwrap()` /
//!    `.expect(` in non-test library code, stored in `ratchet.toml`.
//!    Counts may only go down: exceeding a cap is an error, dropping below
//!    it prints a note asking for the cap to be lowered.
//! 2. **Raw sync primitives banned** — `std::sync::Mutex`, its `RwLock`,
//!    and `parking_lot` may not be named outside `crates/hvac-sync`
//!    (which wraps them with lock-order checking) and `vendor/`.
//! 3. **Marker macros banned** — `todo!`, `unimplemented!`, and `dbg!`
//!    may not appear anywhere, tests included.
//! 4. **Module docs required** — every `.rs` file under a `src/` tree
//!    must open with a `//!` doc comment.
//! 5. **Stripe modules are hvac-sync-only** — the lock-striped hot-path
//!    modules (sharded store, striped inflight table, RPC dispatch pool) must
//!    synchronize exclusively through `hvac_sync` ordered primitives or
//!    `std::sync::atomic`; unordered blocking primitives (`Condvar`,
//!    `Barrier`, `OnceLock`, ...) are banned there, and each module must
//!    show evidence of the checked regime. The file list is pinned, so a
//!    rename that silently drops a module from the check is itself an
//!    error.
//! 6. **View/rebalancer modules are hvac-sync-only** — the membership
//!    machinery (epoch-versioned view handle, cache rebalancer) holds
//!    locks across view swaps and background migration, so it is pinned
//!    to the same regime as check 5: `hvac_sync` ordered primitives or
//!    `std::sync::atomic` only, with the unordered blocking primitives
//!    banned and the file list pinned against renames.
//! 7. **Static lock-graph verification** — see [`lockgraph`]: every lock
//!    constructor must name a `hvac_sync::classes` constant, guard live
//!    ranges are tracked to extract the static class-acquisition edge set
//!    (checked against `classes::HIERARCHY`), and guards held across
//!    blocking boundaries (RPC, recv, join, spawn, sleep) are rejected.
//!    `cargo run -p tidy -- lockgraph` dumps the graph.
//!
//! The library form exists so the tier-1 suite can run the exact same
//! checks in-process (`tidy::check_workspace`) without shelling out.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lockgraph;
pub mod ratchet;

pub mod scan;

pub use ratchet::Ratchet;
pub use scan::{non_test_lines, SourceFile};

/// One lint violation, formatted `path:line: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line number; 0 for whole-file/whole-crate findings.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.path.display(), self.message)
        } else {
            write!(f, "{}:{}: {}", self.path.display(), self.line, self.message)
        }
    }
}

/// Result of a tidy run: hard errors plus informational notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that fail the run.
    pub errors: Vec<Violation>,
    /// Non-fatal observations (e.g. ratchet caps that can be lowered).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether the tree passed every check.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Directories under the workspace root that contain first-party sources.
const SOURCE_ROOTS: &[&str] = &["crates", "tools", "examples", "tests"];

/// Crates allowed to name raw std sync primitives: hvac-sync wraps them,
/// and tidy itself spells the banned tokens in its check patterns.
const SYNC_ALLOWLIST: &[&str] = &["crates/hvac-sync", "tools/tidy"];

/// Tidy's own sources spell the banned macros and `.unwrap()` as string
/// patterns, so the content checks skip them (module docs still apply).
const SELF_EXEMPT: &str = "tools/tidy";

/// Run every check against the workspace rooted at `root`, using the
/// ratchet file at `root/tools/tidy/ratchet.toml`.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let ratchet = Ratchet::load(&root.join("tools/tidy/ratchet.toml"))?;
    Ok(check_workspace_with(root, &ratchet))
}

/// Run every check with an explicit ratchet (test hook).
pub fn check_workspace_with(root: &Path, ratchet: &Ratchet) -> Report {
    let mut report = Report::default();
    let files = collect_sources(root);
    check_sync_primitives(&files, &mut report);
    check_stripe_modules(&files, &mut report);
    check_view_modules(&files, &mut report);
    check_marker_macros(&files, &mut report);
    check_module_docs(&files, &mut report);
    check_unwrap_ratchet(&files, ratchet, &mut report);
    report.errors.extend(lockgraph::analyze(&files).violations);
    report
}

/// Gather all first-party `.rs` files, with contents, workspace-relative.
/// Skips `target/` and `vendor/` trees at any depth so generated and
/// vendored code never reaches a check.
pub fn collect_sources(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for dir in SOURCE_ROOTS {
        walk(root, &root.join(dir), &mut files);
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    files
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                let rel_path = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                out.push(SourceFile::new(rel_path, text));
            }
        }
    }
}

fn in_allowlist(rel: &Path, allowlist: &[&str]) -> bool {
    allowlist.iter().any(|a| rel.starts_with(a))
}

/// Check 2: raw sync primitives outside hvac-sync.
fn check_sync_primitives(files: &[SourceFile], report: &mut Report) {
    for file in files {
        if in_allowlist(&file.rel_path, SYNC_ALLOWLIST) {
            continue;
        }
        for (idx, line) in file.lines() {
            let banned = line.contains("std::sync::Mutex")
                || line.contains("std::sync::RwLock")
                || line.contains("parking_lot")
                || is_std_sync_import_of_locks(line);
            if banned {
                report.errors.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx,
                    message: "raw sync primitive; use hvac_sync::{OrderedMutex, OrderedRwLock} \
                              (lock-order checked, poison-recovering)"
                        .into(),
                });
            }
        }
    }
}

/// Detect `use std::sync::{..., Mutex, ...}` style imports of the locks.
fn is_std_sync_import_of_locks(line: &str) -> bool {
    let trimmed = line.trim_start();
    if !trimmed.starts_with("use std::sync") && !trimmed.starts_with("use ::std::sync") {
        return false;
    }
    [
        "Mutex",
        "RwLock",
        "MutexGuard",
        "RwLockReadGuard",
        "RwLockWriteGuard",
    ]
    .iter()
    .any(|tok| {
        line.split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == *tok)
    })
}

/// The lock-striped hot-path modules held to check 5. Renaming or moving
/// one of these files requires updating this list — tidy errors otherwise,
/// so the stricter rules can't be dodged by a rename.
const STRIPE_MODULES: &[&str] = &[
    "crates/hvac-storage/src/localstore.rs",
    "crates/hvac-core/src/server.rs",
    "crates/hvac-net/src/sq.rs",
];

/// Blocking sync primitives with no lock-order story; banned in stripe
/// modules (matched as whole identifiers, outside comments).
const STRIPE_BANNED_TOKENS: &[&str] = &["Condvar", "Barrier", "OnceLock", "LazyLock"];

/// Check 5: stripe modules synchronize via hvac-sync or atomics only.
fn check_stripe_modules(files: &[SourceFile], report: &mut Report) {
    check_pinned_modules(files, STRIPE_MODULES, "stripe", "STRIPE_MODULES", report);
}

/// The membership machinery held to check 6: the epoch-versioned view
/// handle, the online rebalancer, and the anti-entropy repair scrubber.
/// Same pinning rule as `STRIPE_MODULES` — renames must update this list
/// or tidy errors.
const VIEW_MODULES: &[&str] = &[
    "crates/hvac-core/src/view.rs",
    "crates/hvac-core/src/rebalance.rs",
    "crates/hvac-core/src/repair.rs",
];

// Check 6: view/rebalancer modules synchronize via hvac-sync or atomics
// only — they sit above every other lock class, so an unordered blocking
// primitive there can deadlock the whole view-swap path.
fn check_view_modules(files: &[SourceFile], report: &mut Report) {
    check_pinned_modules(files, VIEW_MODULES, "view", "VIEW_MODULES", report);
}

/// Shared engine for checks 5 and 6: each pinned module must exist, must
/// not name an unordered blocking primitive outside comments, and must show
/// evidence of the checked regime (`hvac_sync` or `std::sync::atomic`).
fn check_pinned_modules(
    files: &[SourceFile],
    modules: &[&str],
    label: &str,
    list_name: &str,
    report: &mut Report,
) {
    for module in modules {
        let Some(file) = files.iter().find(|f| f.rel_path == Path::new(module)) else {
            report.errors.push(Violation {
                path: PathBuf::from(module),
                line: 0,
                message: format!(
                    "{label} module is missing; if it was renamed, update \
                     {list_name} in tools/tidy so the hvac-sync-only \
                     rule follows it"
                ),
            });
            continue;
        };
        for (idx, line) in file.lines() {
            let code = line.split("//").next().unwrap_or(line);
            let has_banned = STRIPE_BANNED_TOKENS.iter().any(|tok| {
                code.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|w| w == *tok)
            });
            if has_banned {
                report.errors.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx,
                    message: format!(
                        "unordered blocking primitive in a {label} module; \
                         use hvac_sync ordered locks or std atomics"
                    ),
                });
            }
        }
        let checked_regime =
            file.text.contains("hvac_sync") || file.text.contains("std::sync::atomic");
        if !checked_regime {
            report.errors.push(Violation {
                path: file.rel_path.clone(),
                line: 0,
                message: format!(
                    "{label} module shows no hvac_sync or std::sync::atomic \
                     usage; its state must be guarded by lock-order \
                     checked primitives"
                ),
            });
        }
    }
}

/// Check 3: marker macros anywhere.
fn check_marker_macros(files: &[SourceFile], report: &mut Report) {
    for file in files {
        if file.rel_path.starts_with(SELF_EXEMPT) {
            continue;
        }
        for (idx, line) in file.lines() {
            for mac in ["todo!", "unimplemented!", "dbg!"] {
                if let Some(pos) = line.find(mac) {
                    // Skip when the match is inside a line comment.
                    if line.find("//").is_some_and(|c| c < pos) {
                        continue;
                    }
                    // `dbg!` must be the macro, not e.g. `xdbg!`.
                    let pre = &line[..pos];
                    if pre
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    {
                        continue;
                    }
                    report.errors.push(Violation {
                        path: file.rel_path.clone(),
                        line: idx,
                        message: format!("`{mac}` is banned in committed code"),
                    });
                }
            }
        }
    }
}

/// Check 4: `//!` module docs at the top of every src file.
fn check_module_docs(files: &[SourceFile], report: &mut Report) {
    for file in files {
        if !file.rel_path.iter().any(|c| c == "src") {
            continue;
        }
        let has_doc = file
            .text
            .lines()
            .take(10)
            .any(|l| l.trim_start().starts_with("//!"));
        if !has_doc {
            report.errors.push(Violation {
                path: file.rel_path.clone(),
                line: 0,
                message: "missing `//!` module doc comment in the first 10 lines".into(),
            });
        }
    }
}

/// Check 1: per-crate unwrap/expect ratchet over non-test library code.
fn check_unwrap_ratchet(files: &[SourceFile], ratchet: &Ratchet, report: &mut Report) {
    let mut unwraps: BTreeMap<String, usize> = BTreeMap::new();
    let mut expects: BTreeMap<String, usize> = BTreeMap::new();
    for file in files {
        if file.rel_path.starts_with(SELF_EXEMPT) {
            continue;
        }
        let Some(crate_name) = library_crate_of(&file.rel_path) else {
            continue;
        };
        let mask = non_test_lines(&file.text);
        for ((_, line), counted) in file.lines().zip(mask) {
            if !counted || line.trim_start().starts_with("//") {
                // Comment lines include `//!` doc examples, which compile
                // as doctests — test code, not library code.
                continue;
            }
            *unwraps.entry(crate_name.clone()).or_default() += line.matches(".unwrap()").count();
            *expects.entry(crate_name.clone()).or_default() += line.matches(".expect(").count();
        }
    }
    for (kind, counts, caps) in [
        ("unwrap", &unwraps, &ratchet.unwrap_caps),
        ("expect", &expects, &ratchet.expect_caps),
    ] {
        for (krate, &count) in counts {
            let cap = caps.get(krate).copied().unwrap_or(0);
            if count > cap {
                report.errors.push(Violation {
                    path: PathBuf::from("tools/tidy/ratchet.toml"),
                    line: 0,
                    message: format!(
                        "{krate}: {count} `.{kind}` calls in non-test code exceed the \
                         ratchet cap of {cap}; convert them to error returns or poison \
                         recovery (raising the cap is not allowed)"
                    ),
                });
            } else if count < cap {
                report.notes.push(format!(
                    "{krate}: `.{kind}` count is {count}, below the cap of {cap} — \
                     lower the cap in tools/tidy/ratchet.toml to lock in the progress"
                ));
            }
        }
    }
}

/// Map a workspace-relative path to the crate it belongs to, if the file
/// is non-test library code (under `src/`, not `tests/` or `benches/`).
fn library_crate_of(rel: &Path) -> Option<String> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let src_idx = parts.iter().position(|&p| p == "src")?;
    // examples/src/... => crate "examples"; crates/hvac-core/src => "hvac-core".
    let crate_name = parts.get(src_idx.checked_sub(1)?)?;
    if parts[..src_idx]
        .iter()
        .any(|&p| p == "tests" || p == "benches")
    {
        return None;
    }
    Some((*crate_name).to_string())
}

/// Non-test Rust lines of the program: [`non_test_lines`] summed over the
/// sources under `crates/*/src` and `tools/*/src`. Every change reports its
/// net change in this number (`cargo run -p tidy -- loc`).
pub fn count_loc(files: &[SourceFile]) -> usize {
    files
        .iter()
        .filter(|f| {
            let parts: Vec<_> = f.rel_path.iter().take(3).collect();
            matches!(parts[..], [top, _, src] if (top == "crates" || top == "tools") && src == "src")
        })
        .map(|f| non_test_lines(&f.text).into_iter().filter(|&l| l).count())
        .sum()
}

/// Locate the workspace root from this crate's own manifest dir.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/tidy sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(path), text.to_string())
    }

    #[test]
    fn raw_mutex_flagged_outside_hvac_sync() {
        let files = vec![
            file(
                "crates/hvac-core/src/bad.rs",
                "//! doc\nuse std::sync::Mutex;\n",
            ),
            file(
                "crates/hvac-sync/src/lib.rs",
                "//! doc\nuse std::sync::Mutex;\n",
            ),
        ];
        let mut report = Report::default();
        check_sync_primitives(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(
            report.errors[0].path,
            PathBuf::from("crates/hvac-core/src/bad.rs")
        );
        assert_eq!(report.errors[0].line, 2);
    }

    #[test]
    fn parking_lot_flagged() {
        let files = vec![file(
            "crates/hvac-net/src/x.rs",
            "//! doc\nuse parking_lot::RwLock;\n",
        )];
        let mut report = Report::default();
        check_sync_primitives(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
    }

    #[test]
    fn grouped_std_sync_import_flagged() {
        let files = vec![file(
            "crates/hvac-core/src/x.rs",
            "//! doc\nuse std::sync::{Arc, Mutex};\n",
        )];
        let mut report = Report::default();
        check_sync_primitives(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        // Arc alone is fine.
        let files = vec![file(
            "crates/hvac-core/src/y.rs",
            "//! doc\nuse std::sync::Arc;\n",
        )];
        let mut report = Report::default();
        check_sync_primitives(&files, &mut report);
        assert!(report.is_clean());
    }

    #[test]
    fn stripe_modules_must_exist_and_stay_hvac_sync_only() {
        // All three modules absent: three missing-module errors.
        let mut report = Report::default();
        check_stripe_modules(&[], &mut report);
        assert_eq!(report.errors.len(), 3);
        assert!(report.errors[0].message.contains("missing"));

        // Present, ordered locks, no banned tokens: clean.
        let clean = |path: &str, body: &str| {
            vec![
                file(path, body),
                file(
                    "crates/hvac-core/src/server.rs",
                    "//! doc\nuse hvac_sync::OrderedMutex;\n",
                ),
                file(
                    "crates/hvac-storage/src/localstore.rs",
                    "//! doc\nuse hvac_sync::OrderedRwLock;\n",
                ),
                file(
                    "crates/hvac-net/src/sq.rs",
                    "//! doc\nuse std::sync::atomic::AtomicUsize;\n",
                ),
            ]
        };
        let mut report = Report::default();
        check_stripe_modules(
            &clean("crates/hvac-core/src/other.rs", "//! doc\n"),
            &mut report,
        );
        assert!(report.is_clean(), "{:?}", report.errors);

        // A Condvar in a stripe module is flagged; in comments it is not.
        let files = vec![
            file(
                "crates/hvac-core/src/server.rs",
                "//! doc\nuse hvac_sync::OrderedMutex;\n\
                 use std::sync::Condvar;\n// Condvar in a comment is fine\n",
            ),
            file(
                "crates/hvac-storage/src/localstore.rs",
                "//! doc\nuse hvac_sync::OrderedRwLock;\n",
            ),
            file(
                "crates/hvac-net/src/sq.rs",
                "//! doc\nuse std::sync::atomic::AtomicBool;\n",
            ),
        ];
        let mut report = Report::default();
        check_stripe_modules(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].line, 3);
        assert!(report.errors[0].message.contains("unordered"));

        // A stripe module with no hvac_sync/atomic evidence is flagged.
        let files = vec![
            file("crates/hvac-core/src/server.rs", "//! doc\nfn f() {}\n"),
            file(
                "crates/hvac-storage/src/localstore.rs",
                "//! doc\nuse hvac_sync::OrderedRwLock;\n",
            ),
            file(
                "crates/hvac-net/src/sq.rs",
                "//! doc\nuse std::sync::atomic::AtomicBool;\n",
            ),
        ];
        let mut report = Report::default();
        check_stripe_modules(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].message.contains("no hvac_sync"));
    }

    #[test]
    fn view_modules_must_exist_and_stay_hvac_sync_only() {
        // All modules absent: one missing-module error each, naming
        // VIEW_MODULES.
        let mut report = Report::default();
        check_view_modules(&[], &mut report);
        assert_eq!(report.errors.len(), 3);
        assert!(report.errors[0].message.contains("VIEW_MODULES"));

        // hvac_sync in one and bare std::sync::atomic in the others are both
        // accepted evidence (the rebalancer and repairer use only atomics).
        let files = vec![
            file(
                "crates/hvac-core/src/view.rs",
                "//! doc\nuse hvac_sync::OrderedRwLock;\n",
            ),
            file(
                "crates/hvac-core/src/rebalance.rs",
                "//! doc\nuse std::sync::atomic::Ordering;\n",
            ),
            file(
                "crates/hvac-core/src/repair.rs",
                "//! doc\nuse std::sync::atomic::Ordering;\n",
            ),
        ];
        let mut report = Report::default();
        check_view_modules(&files, &mut report);
        assert!(report.is_clean(), "{:?}", report.errors);

        // A OnceLock in a view module is flagged; in comments it is not.
        let files = vec![
            file(
                "crates/hvac-core/src/view.rs",
                "//! doc\nuse hvac_sync::OrderedRwLock;\n\
                 use std::sync::OnceLock;\n// OnceLock in a comment is fine\n",
            ),
            file(
                "crates/hvac-core/src/rebalance.rs",
                "//! doc\nuse std::sync::atomic::Ordering;\n",
            ),
            file(
                "crates/hvac-core/src/repair.rs",
                "//! doc\nuse std::sync::atomic::Ordering;\n",
            ),
        ];
        let mut report = Report::default();
        check_view_modules(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].line, 3);
        assert!(report.errors[0].message.contains("view module"));

        // No evidence of the checked regime is flagged.
        let files = vec![
            file("crates/hvac-core/src/view.rs", "//! doc\nfn f() {}\n"),
            file(
                "crates/hvac-core/src/rebalance.rs",
                "//! doc\nuse std::sync::atomic::Ordering;\n",
            ),
            file(
                "crates/hvac-core/src/repair.rs",
                "//! doc\nuse std::sync::atomic::Ordering;\n",
            ),
        ];
        let mut report = Report::default();
        check_view_modules(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].message.contains("no hvac_sync"));
    }

    #[test]
    fn marker_macros_flagged_but_not_in_comments() {
        let files = vec![file(
            "crates/hvac-core/src/x.rs",
            "//! doc\nfn f() { todo!() }\n// a comment about todo!\nfn g() { crate::xdbg!(); }\n",
        )];
        let mut report = Report::default();
        check_marker_macros(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].line, 2);
    }

    #[test]
    fn module_doc_required_under_src_only() {
        let files = vec![
            file("crates/hvac-core/src/x.rs", "fn f() {}\n"),
            file("crates/hvac-core/tests/t.rs", "fn f() {}\n"),
        ];
        let mut report = Report::default();
        check_module_docs(&files, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(
            report.errors[0].path,
            PathBuf::from("crates/hvac-core/src/x.rs")
        );
    }

    #[test]
    fn ratchet_blocks_new_unwraps_and_notes_progress() {
        let files = vec![file(
            "crates/hvac-core/src/x.rs",
            "//! doc\nfn f() { x.unwrap(); y.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn t() { z.unwrap(); } }\n",
        )];
        // Cap of 1: the two non-test unwraps exceed it (test one ignored).
        let mut ratchet = Ratchet::default();
        ratchet.unwrap_caps.insert("hvac-core".into(), 1);
        let mut report = Report::default();
        check_unwrap_ratchet(&files, &ratchet, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].message.contains("exceed"));
        // Cap of 5: below cap, so a note but no error.
        let mut ratchet = Ratchet::default();
        ratchet.unwrap_caps.insert("hvac-core".into(), 5);
        let mut report = Report::default();
        check_unwrap_ratchet(&files, &ratchet, &mut report);
        assert!(report.is_clean());
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn bench_and_test_files_exempt_from_ratchet() {
        let files = vec![
            file("crates/hvac-core/tests/t.rs", "fn f() { x.unwrap(); }\n"),
            file("crates/hvac-bench/benches/b.rs", "fn f() { x.unwrap(); }\n"),
        ];
        let ratchet = Ratchet::default();
        let mut report = Report::default();
        check_unwrap_ratchet(&files, &ratchet, &mut report);
        assert!(report.is_clean());
    }

    #[test]
    fn loc_counts_non_test_lines_of_crate_and_tool_sources_only() {
        let files = [
            file(
                "crates/hvac-x/src/lib.rs",
                "//! doc\nfn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
            ),
            file("crates/hvac-x/src/bin/b.rs", "fn main() {}\n\n"),
            file("tools/t/src/main.rs", "fn main() {}\n"),
            file("crates/hvac-x/tests/t.rs", "fn t() {}\n"),
            file("crates/hvac-x/benches/b.rs", "fn b() {}\n"),
            file("examples/quickstart.rs", "fn main() {}\n"),
            file("tests/tests/t.rs", "fn t() {}\n"),
        ];
        assert_eq!(count_loc(&files), 2 + 2 + 1);
    }

    #[test]
    fn collect_sources_skips_target_and_vendor() {
        // Build a throwaway workspace shape on disk: one real source plus
        // decoys under target/ and vendor/ at different depths.
        let root = std::env::temp_dir().join(format!("tidy-skip-test-{}", std::process::id()));
        let mk = |rel: &str, text: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(p, text).expect("write");
        };
        mk("crates/hvac-x/src/lib.rs", "//! doc\n");
        mk("crates/hvac-x/target/debug/gen.rs", "fn generated() {}\n");
        mk("crates/vendor/proptest/src/lib.rs", "fn vendored() {}\n");
        mk("tools/t/src/main.rs", "//! doc\nfn main() {}\n");
        mk("tools/t/vendor/dep.rs", "fn vendored() {}\n");
        mk("target/release/build/out.rs", "fn generated() {}\n");
        let files = collect_sources(&root);
        let paths: Vec<_> = files
            .iter()
            .map(|f| f.rel_path.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            paths,
            vec!["crates/hvac-x/src/lib.rs", "tools/t/src/main.rs"],
            "target/ and vendor/ trees must never reach a check"
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
