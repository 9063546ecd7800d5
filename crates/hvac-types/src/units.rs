//! Byte-count and bandwidth arithmetic.
//!
//! The HVAC models are calibrated in terms of file sizes (163 KB ImageNet-21K
//! samples, 8 MiB MDTest files, 1.6 TB NVMe drives) and bandwidths (2.5 TB/s
//! GPFS aggregate, 22.5 TB/s aggregate NVMe). These newtypes keep the
//! arithmetic honest and the printouts readable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One kibibyte in bytes.
pub const KIB: u64 = 1024;
/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte in bytes.
pub const TIB: u64 = 1024 * GIB;

/// A number of bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from kibibytes.
    #[inline]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * KIB)
    }
    /// Construct from mebibytes.
    #[inline]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }
    /// Construct from gibibytes.
    #[inline]
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }
    /// Construct from tebibytes.
    #[inline]
    pub const fn tib(n: u64) -> Self {
        ByteSize(n * TIB)
    }

    /// Raw byte count.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Value as `f64` bytes (for rate arithmetic).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    #[inline]
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= TIB {
            write!(f, "{:.2} TiB", b / TIB as f64)
        } else if self.0 >= GIB {
            write!(f, "{:.2} GiB", b / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2} MiB", b / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2} KiB", b / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Construct from bytes per second.
    #[inline]
    pub const fn bytes_per_sec(b: f64) -> Self {
        Bandwidth(b)
    }
    /// Construct from mebibytes per second.
    #[inline]
    pub fn mib_per_sec(m: f64) -> Self {
        Bandwidth(m * MIB as f64)
    }
    /// Construct from decimal gigabytes per second (the unit vendors and the
    /// paper use: "2.5 TB/s").
    #[inline]
    pub fn gb_per_sec(g: f64) -> Self {
        Bandwidth(g * 1e9)
    }
    /// Construct from decimal terabytes per second.
    #[inline]
    pub fn tb_per_sec(t: f64) -> Self {
        Bandwidth(t * 1e12)
    }

    /// Raw bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time (in seconds) to move `size` at this rate. Infinite bandwidth (or
    /// any non-positive size) transfers instantly.
    #[inline]
    pub fn transfer_secs(self, size: ByteSize) -> f64 {
        if self.0 <= 0.0 {
            return f64::INFINITY;
        }
        size.as_f64() / self.0
    }

    /// Scale (e.g. aggregate bandwidth of `n` identical devices).
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth(self.0 * factor)
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1e12 {
            write!(f, "{:.2} TB/s", b / 1e12)
        } else if b >= 1e9 {
            write!(f, "{:.2} GB/s", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.2} MB/s", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.2} KB/s", b / 1e3)
        } else {
            write!(f, "{:.0} B/s", b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(ByteSize::kib(32).bytes(), 32 * 1024);
        assert_eq!(ByteSize::mib(8).bytes(), 8 * 1024 * 1024);
        assert_eq!(ByteSize::gib(1).bytes(), GIB);
        assert_eq!(ByteSize::tib(2).bytes(), 2 * TIB);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::mib(4);
        let b = ByteSize::mib(1);
        assert_eq!((a + b).bytes(), 5 * MIB);
        assert_eq!((a - b).bytes(), 3 * MIB);
        assert_eq!((a * 3).bytes(), 12 * MIB);
        assert_eq!((a / 2).bytes(), 2 * MIB);
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize::kib(32).to_string(), "32.00 KiB");
        assert_eq!(ByteSize::mib(8).to_string(), "8.00 MiB");
        assert_eq!(ByteSize::tib(1).to_string(), "1.00 TiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::gb_per_sec(1.0); // 1e9 B/s
        let t = bw.transfer_secs(ByteSize(2_000_000_000));
        assert!((t - 2.0).abs() < 1e-9);
        assert!(Bandwidth(0.0).transfer_secs(ByteSize(1)).is_infinite());
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::tb_per_sec(2.5).to_string(), "2.50 TB/s");
        assert_eq!(Bandwidth::gb_per_sec(5.5).to_string(), "5.50 GB/s");
    }

    #[test]
    fn paper_calibration_sanity() {
        // Paper §II-C: 22.5 TB/s aggregate NVMe read at 4096 nodes.
        let per_node = Bandwidth::tb_per_sec(22.5).scale(1.0 / 4096.0);
        assert!(per_node.as_bytes_per_sec() > 5.0e9);
        assert!(per_node.as_bytes_per_sec() < 6.0e9);
    }
}
