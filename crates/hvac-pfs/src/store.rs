//! The [`FileStore`] abstraction.
//!
//! HVAC's data path only ever needs read access to the PFS (§III: "a
//! transparent read-only caching layer"), so the trait is deliberately
//! read-only; attempting writes through HVAC is a
//! [`HvacError::ReadOnly`](hvac_types::HvacError::ReadOnly) at the cache
//! layer.

use bytes::Bytes;
use hvac_types::Result;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Metadata returned by an open/stat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// File length in bytes.
    pub size: u64,
}

/// Cumulative operation counters for a store. Every implementation embeds
/// one so tests can assert *where* reads were served from — the central
/// observable of the whole paper (cache hits avoid PFS traffic).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// `open`/`stat` calls.
    pub opens: AtomicU64,
    /// `read`/`read_at` calls.
    pub reads: AtomicU64,
    /// Bytes returned by reads.
    pub bytes_read: AtomicU64,
}

impl StoreStats {
    /// Record an open.
    #[inline]
    pub fn record_open(&self) {
        self.opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a read of `n` bytes.
    #[inline]
    pub fn record_read(&self, n: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot `(opens, reads, bytes_read)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.opens.load(Ordering::Relaxed),
            self.reads.load(Ordering::Relaxed),
            self.bytes_read.load(Ordering::Relaxed),
        )
    }
}

/// A read-only file store (the PFS role).
pub trait FileStore: Send + Sync {
    /// Stat a file.
    fn open_meta(&self, path: &Path) -> Result<FileMeta>;

    /// Read the entire file.
    fn read_all(&self, path: &Path) -> Result<Bytes>;

    /// Read `len` bytes at `offset`; short reads at EOF return the available
    /// prefix (possibly empty), mirroring POSIX `pread`.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes>;

    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;

    /// All file paths under `prefix`, sorted (deterministic dataset listing).
    fn list(&self, prefix: &Path) -> Result<Vec<PathBuf>>;

    /// Operation counters.
    fn stats(&self) -> &StoreStats;
}

/// Shared `read_at` semantics on top of a full buffer (used by [`crate::MemStore`],
/// the server's cache reads and tests): POSIX-style short reads at EOF.
/// `offset` and `len` may come straight off the wire, so the end of the
/// range saturates instead of overflowing.
pub fn slice_read_at(data: &Bytes, offset: u64, len: usize) -> Bytes {
    let size = data.len() as u64;
    if offset >= size {
        return Bytes::new();
    }
    let end = offset.saturating_add(len as u64).min(size);
    data.slice(offset as usize..end as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let s = StoreStats::default();
        s.record_open();
        s.record_open();
        s.record_read(100);
        s.record_read(28);
        assert_eq!(s.snapshot(), (2, 2, 128));
    }

    #[test]
    fn slice_read_at_posix_semantics() {
        let data = Bytes::from_static(b"0123456789");
        assert_eq!(&slice_read_at(&data, 0, 4)[..], b"0123");
        assert_eq!(&slice_read_at(&data, 8, 100)[..], b"89"); // short read
        assert_eq!(slice_read_at(&data, 10, 1).len(), 0); // at EOF
        assert_eq!(slice_read_at(&data, 999, 1).len(), 0); // past EOF
        assert_eq!(&slice_read_at(&data, 3, 0)[..], b""); // zero-length
    }

    #[test]
    fn slice_read_at_clamps_a_length_that_overflows_the_offset() {
        let data = Bytes::from_static(b"0123456789");
        assert_eq!(&slice_read_at(&data, 5, usize::MAX)[..], b"56789");
        assert_eq!(&slice_read_at(&data, 0, usize::MAX)[..], b"0123456789");
        assert_eq!(slice_read_at(&data, u64::MAX, usize::MAX).len(), 0);
    }
}
