//! Direct-call semantics of the interposed symbols.
//!
//! The smoke test (`preload_smoke.rs`) proves interception works end-to-end
//! under `LD_PRELOAD`; this test pins down the POSIX edge cases of the shim
//! itself by calling the exported `extern "C"` functions in-process: EINVAL
//! on a negative `pread` offset, short reads near EOF, zero at EOF,
//! buffer-bounded delivery, and `lseek`'s whence codes.
//!
//! The assertions run in a re-executed child process: the shim's agent is
//! process-global and configured from the environment at the *first*
//! interposed call, and the test harness itself touches files through the
//! interposed symbols during startup (before any `#[test]` runs). Spawning
//! the test binary again with `HVAC_DATASET_DIR` already in the environment
//! is the only way to win that race — exactly how the real shim is used
//! under `LD_PRELOAD`.

use hvac_preload::agent::FD_BASE;
use hvac_preload::shim;
use libc::{c_void, O_RDONLY};
use std::ffi::CString;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

const CHILD_ENV: &str = "HVAC_SHIM_SEM_CHILD";

fn errno() -> i32 {
    unsafe { *libc::__errno_location() }
}

fn set_errno(v: i32) {
    unsafe { *libc::__errno_location() = v }
}

fn payload() -> Vec<u8> {
    (0..100u32).map(|i| i as u8).collect()
}

/// The actual assertions; runs only in the child, where the dataset
/// directory was in the environment before the process started.
fn child_assertions() {
    let dir = PathBuf::from(std::env::var_os(hvac_core::intercept::DATASET_DIR_ENV).unwrap());
    let file = dir.join("data.bin");
    let payload = payload();

    let cpath = CString::new(file.to_str().unwrap()).unwrap();
    let fd = unsafe { shim::open(cpath.as_ptr(), O_RDONLY, 0) };
    assert!(
        fd as u64 >= FD_BASE,
        "dataset open was not intercepted (fd={fd})"
    );

    // Negative offset: EINVAL before the agent ever sees the call — the
    // unchecked cast used to turn -1 into offset 2^64-1.
    let mut buf = vec![0u8; 32];
    set_errno(0);
    let r = unsafe { shim::pread(fd, buf.as_mut_ptr() as *mut c_void, 32, -1) };
    assert_eq!(r, -1);
    assert_eq!(errno(), libc::EINVAL);

    // Short read near EOF returns the available prefix...
    let r = unsafe { shim::pread(fd, buf.as_mut_ptr().cast(), 32, 90) };
    assert_eq!(r, 10);
    assert_eq!(&buf[..10], &payload[90..]);
    // ...and a read at (or past) EOF returns 0, not an error.
    assert_eq!(
        unsafe { shim::pread(fd, buf.as_mut_ptr().cast(), 32, 100) },
        0
    );
    assert_eq!(
        unsafe { shim::pread64(fd, buf.as_mut_ptr().cast(), 32, 4096) },
        0
    );

    // Sequential read: at most `count` bytes reach the buffer and the file
    // position advances by exactly what was delivered.
    let r = unsafe { shim::read(fd, buf.as_mut_ptr().cast(), 8) };
    assert_eq!(r, 8);
    assert_eq!(&buf[..8], &payload[..8]);
    let r = unsafe { shim::read(fd, buf.as_mut_ptr().cast(), 8) };
    assert_eq!(r, 8);
    assert_eq!(&buf[..8], &payload[8..16]);

    // lseek maps SEEK_SET/CUR/END and rejects any other whence.
    assert_eq!(unsafe { shim::lseek(fd, -5, 2) }, 95);
    assert_eq!(unsafe { shim::lseek64(fd, 2, 1) }, 97);
    let r = unsafe { shim::read(fd, buf.as_mut_ptr().cast(), 8) };
    assert_eq!(r, 3);
    assert_eq!(&buf[..3], &payload[97..]);
    assert_eq!(unsafe { shim::lseek(fd, 0, 0) }, 0);
    assert_eq!(unsafe { shim::lseek(fd, 0, 9) }, -1);
    assert_eq!(unsafe { shim::lseek(fd, -1, 0) }, -1);

    assert_eq!(unsafe { shim::close(fd) }, 0);
    // The descriptor is gone; a second close falls through to libc, which
    // rejects the virtual fd.
    assert_eq!(unsafe { shim::close(fd) }, -1);
}

#[test]
fn pread_einval_eof_and_buffer_bounds() {
    if std::env::var_os(CHILD_ENV).is_some() {
        child_assertions();
        return;
    }

    let dir = std::env::temp_dir().join(format!("hvac-shim-sem-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("data.bin"), payload()).unwrap();

    let exe = std::env::current_exe().unwrap();
    let out = Command::new(&exe)
        .args(["--exact", "pread_einval_eof_and_buffer_bounds"])
        .env(CHILD_ENV, "1")
        .env(hvac_core::intercept::DATASET_DIR_ENV, &dir)
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "child assertions failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}
