//! The interposed C symbols.
//!
//! Everything here is `unsafe extern "C"` glue: resolve the real libc
//! function with `dlsym(RTLD_NEXT, ...)`, decide whether the call targets the
//! dataset directory or one of the agent's descriptors, and either forward
//! to the agent's [`HvacClient`] or fall through. Three guards prevent
//! recursion:
//!
//! 1. a thread-local `IN_HOOK` flag covering agent calls on the intercepted
//!    thread (a loopback call runs the server on that same thread),
//! 2. a thread-name check (`hvac-*`) so the agent's own data-mover,
//!    dispatch and hedge threads always reach the real libc,
//! 3. write-mode opens are never intercepted (HVAC is read-only).
//!
//! The agent belongs to the process that built it. A forked child (a
//! DataLoader worker) inherits its parent's agent but none of its threads,
//! so a copy queued for the parent's data mover would never run; the first
//! call in the child builds the child's own agent instead, which takes over
//! the descriptors the parent had open at the fork.

use crate::agent::{AgentConfig, LocalAgent, FD_BASE};
use hvac_core::client::Whence;
use hvac_core::HvacClient;
use hvac_types::{HvacError, Result};
use libc::{c_char, c_int, c_void, mode_t, off_t, size_t, ssize_t};
use std::cell::Cell;
use std::ffi::CStr;
use std::path::Path;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Once;

/// The agent of process `pid` (`None` when the shim is disabled there).
struct Installed {
    pid: u32,
    agent: Option<LocalAgent>,
}

/// The installed agent. Every pointer stored here comes from
/// `Box::into_raw` and is never freed: one inherited across `fork` has no
/// threads left in the child, so it can be neither used nor dropped.
static AGENT: AtomicPtr<Installed> = AtomicPtr::new(std::ptr::null_mut());

static STATS_HOOK: Once = Once::new();

thread_local! {
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

fn with_guard<T>(f: impl FnOnce() -> T) -> T {
    IN_HOOK.with(|g| {
        g.set(true);
        let out = f();
        g.set(false);
        out
    })
}

fn hooked() -> bool {
    IN_HOOK.with(|g| g.get())
}

fn on_internal_thread() -> bool {
    std::thread::current()
        .name()
        .map(|n| n.starts_with("hvac-"))
        .unwrap_or(false)
}

/// The installed pointer (for a later compare-exchange) and what it points
/// to.
fn load_installed() -> (*mut Installed, Option<&'static Installed>) {
    let ptr = AGENT.load(Ordering::Acquire);
    // SAFETY: every non-null pointer in `AGENT` came from `Box::into_raw`
    // and is never freed.
    (ptr, unsafe { ptr.as_ref() })
}

extern "C" fn dump_stats_at_exit() {
    let pid = std::process::id();
    let mine = load_installed().1.filter(|i| i.pid == pid);
    if let Some(agent) = mine.and_then(|i| i.agent.as_ref()) {
        if let Ok(path) = std::env::var("HVAC_STATS_FILE") {
            let line = agent.stats_line();
            let _ = with_guard(|| std::fs::write(&path, line));
        }
    }
}

fn agent() -> Option<&'static LocalAgent> {
    if hooked() || on_internal_thread() {
        return None;
    }
    let pid = std::process::id();
    loop {
        let (current, installed) = load_installed();
        if let Some(mine) = installed.filter(|i| i.pid == pid) {
            return mine.agent.as_ref();
        }
        let fresh = Box::into_raw(Box::new(Installed {
            pid,
            agent: with_guard(|| {
                let agent = LocalAgent::new(AgentConfig::from_env()?).ok()?;
                // In a forked child, `installed` is the parent's agent.
                if let Some(parent) = installed.and_then(|i| i.agent.as_ref()) {
                    agent.client().inherit_descriptors(parent.client());
                }
                Some(agent)
            }),
        }));
        if AGENT
            .compare_exchange(current, fresh, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: `atexit` stores a plain function pointer; the hook
            // captures nothing. A forked child inherits the registration.
            STATS_HOOK.call_once(|| unsafe {
                libc::atexit(dump_stats_at_exit);
            });
            // SAFETY: `fresh` came from `Box::into_raw` and, now installed,
            // is never freed.
            return unsafe { &*fresh }.agent.as_ref();
        }
        // Another thread of this process installed its agent first: drop
        // ours (joining its threads) and use that one.
        // SAFETY: `fresh` came from `Box::into_raw` above, and the failed
        // exchange never published it.
        with_guard(|| drop(unsafe { Box::from_raw(fresh) }));
    }
}

fn set_errno(code: c_int) {
    unsafe {
        *libc::__errno_location() = code;
    }
}

/// Run `op` on the agent's client for descriptor `fd`. `None` when `fd` is
/// not one of the client's descriptors or this call must reach libc; the
/// caller then makes the real call.
fn on_own_fd<T>(fd: c_int, op: impl FnOnce(&HvacClient, u64) -> Result<T>) -> Option<Result<T>> {
    if (fd as u64) < FD_BASE {
        return None;
    }
    let client = agent()?.client();
    match with_guard(|| op(client, fd as u64)) {
        Err(HvacError::BadFd(_)) => None,
        done => Some(done),
    }
}

/// The C return of a client call: `ok(value)`, or -1 with `errno` set.
fn c_return<T, R: From<i8>>(result: Result<T>, ok: impl FnOnce(T) -> R) -> R {
    result.map(ok).unwrap_or_else(|e| {
        set_errno(e.errno());
        R::from(-1)
    })
}

/// Resolve a real libc symbol once.
macro_rules! real_fn {
    ($name:ident, $sym:literal, fn($($arg:ty),*) -> $ret:ty) => {
        unsafe fn $name() -> unsafe extern "C" fn($($arg),*) -> $ret {
            static PTR: AtomicUsize = AtomicUsize::new(0);
            let mut p = PTR.load(Ordering::Relaxed);
            if p == 0 {
                p = libc::dlsym(libc::RTLD_NEXT, $sym.as_ptr() as *const c_char) as usize;
                assert!(p != 0, concat!("dlsym failed for ", stringify!($name)));
                PTR.store(p, Ordering::Relaxed);
            }
            std::mem::transmute::<usize, unsafe extern "C" fn($($arg),*) -> $ret>(p)
        }
    };
}

real_fn!(
    real_open,
    b"open\0",
    fn(*const c_char, c_int, mode_t) -> c_int
);
real_fn!(
    real_open64,
    b"open64\0",
    fn(*const c_char, c_int, mode_t) -> c_int
);
real_fn!(
    real_openat,
    b"openat\0",
    fn(c_int, *const c_char, c_int, mode_t) -> c_int
);
real_fn!(
    real_read,
    b"read\0",
    fn(c_int, *mut c_void, size_t) -> ssize_t
);
real_fn!(
    real_pread,
    b"pread\0",
    fn(c_int, *mut c_void, size_t, off_t) -> ssize_t
);
real_fn!(real_lseek, b"lseek\0", fn(c_int, off_t, c_int) -> off_t);
real_fn!(real_close, b"close\0", fn(c_int) -> c_int);

unsafe fn path_of(raw: *const c_char) -> Option<&'static Path> {
    if raw.is_null() {
        return None;
    }
    let cstr = CStr::from_ptr(raw);
    std::str::from_utf8(cstr.to_bytes()).ok().map(Path::new)
}

fn is_read_only(flags: c_int) -> bool {
    flags & libc::O_ACCMODE == libc::O_RDONLY
}

unsafe fn open_common(path: *const c_char, flags: c_int) -> Option<c_int> {
    if !is_read_only(flags) {
        return None;
    }
    let p = path_of(path)?;
    if !p.is_absolute() {
        return None;
    }
    let client = agent()?.client();
    if !client.intercepts(p) {
        return None;
    }
    Some(c_return(with_guard(|| client.open(p)), |fd| fd as c_int))
}

/// Interposed `open(2)`.
///
/// # Safety
/// Called by arbitrary C code; `path` must be a valid C string per the libc
/// contract.
#[no_mangle]
pub unsafe extern "C" fn open(path: *const c_char, flags: c_int, mode: mode_t) -> c_int {
    if let Some(fd) = open_common(path, flags) {
        return fd;
    }
    real_open()(path, flags, mode)
}

/// Interposed `open64`.
///
/// # Safety
/// See [`open`].
#[no_mangle]
pub unsafe extern "C" fn open64(path: *const c_char, flags: c_int, mode: mode_t) -> c_int {
    if let Some(fd) = open_common(path, flags) {
        return fd;
    }
    real_open64()(path, flags, mode)
}

/// Interposed `openat(2)` (absolute paths only; relative ones pass through).
///
/// # Safety
/// See [`open`].
#[no_mangle]
pub unsafe extern "C" fn openat(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mode: mode_t,
) -> c_int {
    if let Some(p) = path_of(path) {
        if p.is_absolute() {
            if let Some(fd) = open_common(path, flags) {
                return fd;
            }
        }
    }
    real_openat()(dirfd, path, flags, mode)
}

/// Copy agent data into the caller's buffer, never past `count` bytes — the
/// caller only guaranteed `count` writable bytes, so an oversized reply (a
/// buggy or malicious server) must be clamped, not trusted.
unsafe fn deliver(buf: *mut c_void, count: size_t, data: &[u8]) -> ssize_t {
    let n = data.len().min(count);
    std::ptr::copy_nonoverlapping(data.as_ptr(), buf as *mut u8, n);
    n as ssize_t
}

/// Interposed `read(2)`.
///
/// # Safety
/// `buf` must point to at least `count` writable bytes per the libc contract.
#[no_mangle]
pub unsafe extern "C" fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t {
    match on_own_fd(fd, |client, fd| client.read(fd, count)) {
        Some(result) => c_return(result, |data| deliver(buf, count, &data)),
        None => real_read()(fd, buf, count),
    }
}

unsafe fn pread_common(
    fd: c_int,
    buf: *mut c_void,
    count: size_t,
    offset: off_t,
) -> Option<ssize_t> {
    // POSIX: pread with a negative offset is EINVAL; a plain cast would
    // turn -1 into a huge u64 offset.
    let result = on_own_fd(fd, |client, fd| match u64::try_from(offset) {
        Ok(at) => client.pread(fd, at, count).map(Some),
        Err(_) => client.fd_size(fd).map(|_| None),
    })?;
    Some(c_return(result, |data| match data {
        Some(data) => deliver(buf, count, &data),
        None => {
            set_errno(libc::EINVAL);
            -1
        }
    }))
}

/// Interposed `pread(2)`.
///
/// # Safety
/// See [`read`].
#[no_mangle]
pub unsafe extern "C" fn pread(
    fd: c_int,
    buf: *mut c_void,
    count: size_t,
    offset: off_t,
) -> ssize_t {
    if let Some(r) = pread_common(fd, buf, count, offset) {
        return r;
    }
    real_pread()(fd, buf, count, offset)
}

/// Interposed `pread64`.
///
/// # Safety
/// See [`read`].
#[no_mangle]
pub unsafe extern "C" fn pread64(
    fd: c_int,
    buf: *mut c_void,
    count: size_t,
    offset: off_t,
) -> ssize_t {
    if let Some(r) = pread_common(fd, buf, count, offset) {
        return r;
    }
    real_pread()(fd, buf, count, offset)
}

fn lseek_common(fd: c_int, offset: off_t, whence: c_int) -> Option<off_t> {
    let result = on_own_fd(fd, |client, fd| {
        let whence = match whence {
            0 => Whence::Set,
            1 => Whence::Cur,
            2 => Whence::End,
            w => {
                client.fd_size(fd)?;
                return Err(HvacError::Protocol(format!("unsupported whence {w}")));
            }
        };
        client.lseek(fd, offset, whence)
    })?;
    Some(c_return(result, |pos| pos as off_t))
}

/// Interposed `lseek(2)`.
///
/// # Safety
/// Standard libc contract.
#[no_mangle]
pub unsafe extern "C" fn lseek(fd: c_int, offset: off_t, whence: c_int) -> off_t {
    if let Some(r) = lseek_common(fd, offset, whence) {
        return r;
    }
    real_lseek()(fd, offset, whence)
}

/// Interposed `lseek64`.
///
/// # Safety
/// Standard libc contract.
#[no_mangle]
pub unsafe extern "C" fn lseek64(fd: c_int, offset: off_t, whence: c_int) -> off_t {
    if let Some(r) = lseek_common(fd, offset, whence) {
        return r;
    }
    real_lseek()(fd, offset, whence)
}

unsafe fn fill_stat(buf: *mut libc::stat, size: u64) {
    std::ptr::write_bytes(buf, 0, 1);
    let st = &mut *buf;
    st.st_size = size as off_t;
    st.st_mode = libc::S_IFREG | 0o444;
    st.st_nlink = 1;
    st.st_blksize = 4096;
    st.st_blocks = (size as i64 + 511) / 512;
}

unsafe fn fstat_common(fd: c_int, buf: *mut libc::stat) -> Option<c_int> {
    let result = on_own_fd(fd, |client, fd| client.fd_size(fd))?;
    Some(c_return(result, |size| {
        fill_stat(buf, size);
        0
    }))
}

real_fn!(real_fstat, b"fstat\0", fn(c_int, *mut libc::stat) -> c_int);

/// Interposed `fstat(2)` — `cat` and friends stat their input fd to size
/// buffers, so virtual descriptors must answer.
///
/// # Safety
/// `buf` must point to a writable `struct stat` per the libc contract.
#[no_mangle]
pub unsafe extern "C" fn fstat(fd: c_int, buf: *mut libc::stat) -> c_int {
    if let Some(r) = fstat_common(fd, buf) {
        return r;
    }
    real_fstat()(fd, buf)
}

/// Interposed `fstat64`.
///
/// # Safety
/// See [`fstat`].
#[no_mangle]
pub unsafe extern "C" fn fstat64(fd: c_int, buf: *mut libc::stat) -> c_int {
    if let Some(r) = fstat_common(fd, buf) {
        return r;
    }
    real_fstat()(fd, buf)
}

real_fn!(
    real_fxstat,
    b"__fxstat\0",
    fn(c_int, c_int, *mut libc::stat) -> c_int
);

/// Interposed `__fxstat` (pre-2.33 glibc routes `fstat` through here).
///
/// # Safety
/// See [`fstat`].
#[no_mangle]
pub unsafe extern "C" fn __fxstat(ver: c_int, fd: c_int, buf: *mut libc::stat) -> c_int {
    if let Some(r) = fstat_common(fd, buf) {
        return r;
    }
    real_fxstat()(ver, fd, buf)
}

/// Interposed `__fxstat64`.
///
/// # Safety
/// See [`fstat`].
#[no_mangle]
pub unsafe extern "C" fn __fxstat64(ver: c_int, fd: c_int, buf: *mut libc::stat) -> c_int {
    if let Some(r) = fstat_common(fd, buf) {
        return r;
    }
    real_fxstat()(ver, fd, buf)
}

real_fn!(
    real_posix_fadvise,
    b"posix_fadvise\0",
    fn(c_int, off_t, off_t, c_int) -> c_int
);

/// Interposed `posix_fadvise` — a no-op success on virtual descriptors.
///
/// # Safety
/// Standard libc contract.
#[no_mangle]
pub unsafe extern "C" fn posix_fadvise(
    fd: c_int,
    offset: off_t,
    len: off_t,
    advice: c_int,
) -> c_int {
    match on_own_fd(fd, |client, fd| client.fd_size(fd)) {
        Some(result) => c_return(result, |_| 0),
        None => real_posix_fadvise()(fd, offset, len, advice),
    }
}

/// Interposed `close(2)`.
///
/// # Safety
/// Standard libc contract.
#[no_mangle]
pub unsafe extern "C" fn close(fd: c_int) -> c_int {
    match on_own_fd(fd, |client, fd| client.close(fd)) {
        Some(result) => c_return(result, |()| 0),
        None => real_close()(fd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliver_clamps_oversized_replies_to_count() {
        // A reply larger than the caller's buffer must never overflow it;
        // only `count` bytes land and only `count` is reported.
        let data = [7u8; 16];
        let mut buf = [0u8; 8];
        let n = unsafe { deliver(buf.as_mut_ptr().cast(), buf.len(), &data) };
        assert_eq!(n, 8);
        assert_eq!(buf, [7u8; 8]);
    }

    #[test]
    fn deliver_short_data_copies_everything_and_reports_its_length() {
        let data = [3u8; 4];
        let mut buf = [9u8; 8];
        let n = unsafe { deliver(buf.as_mut_ptr().cast(), buf.len(), &data) };
        assert_eq!(n, 4);
        assert_eq!(&buf[..4], [3u8; 4]);
        assert_eq!(&buf[4..], [9u8; 4], "tail beyond the data is untouched");
    }

    #[test]
    fn deliver_empty_reply_is_zero() {
        let mut buf = [1u8; 4];
        let n = unsafe { deliver(buf.as_mut_ptr().cast(), buf.len(), &[]) };
        assert_eq!(n, 0);
        assert_eq!(buf, [1u8; 4]);
    }
}
