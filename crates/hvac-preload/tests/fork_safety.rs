//! A forked child of a preloaded process reads through its own agent.
//!
//! A training process builds the shim's agent (and its data-mover thread)
//! on its first intercepted open, then forks its data-loader workers. A
//! child inherits the agent but not its threads, so a miss queued on the
//! inherited agent would wait forever for a mover that does not exist. The
//! shim must build a fresh agent in the child instead, and that agent must
//! keep the descriptors the parent had open and leave the parent's cached
//! objects alone.
//!
//! As in `shim_semantics.rs`, the assertions run in a re-executed copy of
//! this test binary with `HVAC_DATASET_DIR` (and, for the directory cache,
//! `HVAC_CACHE_DIR`) set before it starts. That copy reads `a.bin` through
//! the shim, opens `c.bin` and reads its first bytes, then forks. The
//! grandchild must read `b.bin` and the rest of `c.bin` byte-exact within
//! 5 s, or it is killed and the test fails. The copy then re-reads `a.bin`,
//! which it had cached before the fork.

use hvac_preload::agent::FD_BASE;
use hvac_preload::shim;
use libc::{c_int, O_RDONLY};
use std::ffi::CString;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "HVAC_FORK_SAFETY_CHILD";
const SIZE: usize = 4096;
/// Bytes of `c.bin` read before the fork.
const HEAD: usize = 100;

fn payload(tag: u8) -> Vec<u8> {
    (0..SIZE).map(|i| (i as u8).wrapping_mul(7) ^ tag).collect()
}

/// Open `path` through the interposed symbols; `None` if the open was not
/// intercepted.
fn open_through_shim(path: &Path) -> Option<c_int> {
    let cpath = CString::new(path.to_str()?).ok()?;
    // SAFETY: `cpath` is a NUL-terminated C string that outlives the call.
    let fd = unsafe { shim::open(cpath.as_ptr(), O_RDONLY, 0) };
    ((fd as u64) >= FD_BASE).then_some(fd)
}

/// Read `fd` through the interposed symbols: `len` bytes, or to EOF when
/// `len` is `None`. `None` if a read failed.
fn read_fd(fd: c_int, len: Option<usize>) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut buf = vec![0u8; 1024];
    while len.is_none_or(|len| out.len() < len) {
        let want = len.map_or(buf.len(), |len| (len - out.len()).min(buf.len()));
        // SAFETY: `buf` has at least `want` writable bytes.
        let n = unsafe { shim::read(fd, buf.as_mut_ptr().cast(), want) };
        match n {
            0 => break,
            n if n > 0 => out.extend_from_slice(&buf[..n as usize]),
            _ => return None,
        }
    }
    Some(out)
}

/// Close `fd` through the interposed symbols.
fn close_fd(fd: c_int) -> bool {
    // SAFETY: closing a descriptor has no memory-safety precondition.
    unsafe { shim::close(fd) == 0 }
}

/// Read all of `path` through the interposed symbols; `None` if the open
/// was not intercepted or a read failed.
fn read_through_shim(path: &Path) -> Option<Vec<u8>> {
    let fd = open_through_shim(path)?;
    let out = read_fd(fd, None)?;
    close_fd(fd).then_some(out)
}

/// What the grandchild checks; its exit status names the first failure.
fn grandchild(dir: &Path, held: c_int) -> c_int {
    // A miss on a file the parent had not read.
    if read_through_shim(&dir.join("b.bin")) != Some(payload(b'b')) {
        return 1;
    }
    // A descriptor opened before the fork reads on from where it was.
    if read_fd(held, None).as_deref() != Some(&payload(b'c')[HEAD..]) {
        return 2;
    }
    if !close_fd(held) {
        return 3;
    }
    0
}

/// Runs only in the re-executed copy, where the dataset directory was in
/// the environment before the process started.
fn child_assertions() {
    let dir = PathBuf::from(std::env::var_os(hvac_core::intercept::DATASET_DIR_ENV).unwrap());
    // The first read builds this process's agent and its mover thread, and
    // caches `a.bin`.
    assert_eq!(read_through_shim(&dir.join("a.bin")), Some(payload(b'a')));
    let held = open_through_shim(&dir.join("c.bin")).expect("c.bin intercepted");
    assert_eq!(
        read_fd(held, Some(HEAD)),
        Some(payload(b'c')[..HEAD].to_vec())
    );

    // SAFETY: the child touches only the shim and then calls `_exit`.
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Only `_exit` from here, so nothing inherited from the parent runs.
        let status = grandchild(&dir, held);
        // SAFETY: `_exit` ends the process without running any handler.
        unsafe { libc::_exit(status) };
    }

    // The parent's own agent keeps serving while the grandchild reads.
    assert_eq!(read_through_shim(&dir.join("b.bin")), Some(payload(b'b')));

    let start = Instant::now();
    let mut status: c_int = 0;
    // SAFETY (both blocks): `pid` is this process's child, and `status` is
    // a live, writable `c_int`.
    while unsafe { libc::waitpid(pid, &mut status, libc::WNOHANG) } == 0 {
        if start.elapsed() > Duration::from_secs(5) {
            unsafe {
                libc::kill(pid, libc::SIGKILL);
                libc::waitpid(pid, &mut status, 0);
            }
            panic!("the forked child's read was still blocked after 5 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Exit code 1: wrong `b.bin`; 2: the inherited descriptor failed; 3: its
    // close failed (`waitpid` reports exit code N as N << 8).
    assert_eq!(status, 0, "the forked child failed (status {status})");

    // The grandchild's copies did not overwrite the parent's cached objects,
    // and its reads did not move the parent's position.
    assert_eq!(read_through_shim(&dir.join("a.bin")), Some(payload(b'a')));
    assert_eq!(read_fd(held, None), Some(payload(b'c')[HEAD..].to_vec()));
    assert!(close_fd(held));
}

/// Re-execute this test binary running only `test`, with the shim's
/// environment set, and fail if its assertions do.
fn run_in_fresh_process(test: &str, cache_dir: bool) {
    let dir = std::env::temp_dir().join(format!("hvac-fork-safety-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let data = dir.join("data");
    fs::create_dir_all(&data).unwrap();
    for tag in [b'a', b'b', b'c'] {
        fs::write(data.join(format!("{}.bin", tag as char)), payload(tag)).unwrap();
    }

    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["--exact", test])
        .env(CHILD_ENV, "1")
        .env(hvac_core::intercept::DATASET_DIR_ENV, &data);
    if cache_dir {
        cmd.env("HVAC_CACHE_DIR", dir.join("cache"));
    }
    let out = cmd.output().expect("spawn child test process");
    let _ = fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "child assertions failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_forked_child_reads_a_miss_through_its_own_agent() {
    if std::env::var_os(CHILD_ENV).is_some() {
        child_assertions();
        return;
    }
    run_in_fresh_process("a_forked_child_reads_a_miss_through_its_own_agent", false);
}

#[test]
fn a_forked_child_with_a_directory_cache_leaves_its_parents_objects_intact() {
    if std::env::var_os(CHILD_ENV).is_some() {
        child_assertions();
        return;
    }
    run_in_fresh_process(
        "a_forked_child_with_a_directory_cache_leaves_its_parents_objects_intact",
        true,
    );
}
