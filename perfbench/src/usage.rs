//! Process CPU time and peak resident set size, from `getrusage(2)`, and
//! the host's steal time, from `/proc/stat`.

use std::os::raw::c_int;

const RUSAGE_SELF: c_int = 0;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage_self() -> Rusage {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

/// User + system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let u = rusage_self();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set size of this process so far, in KiB.
pub fn max_rss_kib() -> u64 {
    rusage_self().ru_maxrss.max(0) as u64
}

/// Host-wide `(steal, total)` CPU jiffies from the first line of
/// `/proc/stat`; `None` where the kernel does not report them.
fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of the host's CPU time the hypervisor gave to other machines
/// since [`StealMeter::start`]. On a shared virtual machine this is how a
/// neighbour's load shows up, and while it lasts every thread of the
/// benchmark runs slower.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        Self(steal_jiffies())
    }

    /// Stolen share in `[0, 1]`; 0 where steal is not reported.
    pub fn fraction(&self) -> f64 {
        match (self.0, steal_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) => {
                crate::stats::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
            }
            _ => 0.0,
        }
    }
}
