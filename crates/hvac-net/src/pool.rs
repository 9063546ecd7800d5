//! Reference-counted buffer pool: fixed slab classes, return-on-last-drop.
//!
//! The read hot path used to allocate (and zero) a fresh `Vec` per frame,
//! per chunk, and per reassembled read — at 256 KiB a pop that means an
//! mmap round trip through the allocator and a kernel page-zeroing pass on
//! every single read. [`BufferPool`] removes that churn: buffers come from
//! a small set of fixed **size classes** (power-of-four steps from 4 KiB to
//! 16 MiB), each class keeping a bounded free list of previously-used
//! slabs. An [`acquire`](BufferPool::acquire) pops a slab (or allocates one
//! the first time), the caller fills it and [`freeze`](PooledBuf::freeze)s
//! it into an ordinary [`Bytes`], and when the **last** `Bytes` clone
//! drops, the slab's owner `Drop` pushes it back onto its class's free list
//! — explicit return-to-pool on last drop, with no change to any `Bytes`
//! consumer. Requests larger than the biggest class fall back to a plain
//! unpooled allocation (counted, never returned).
//!
//! Ownership rules (see DESIGN.md §12):
//! - a `PooledBuf` is affine: it is either frozen (ownership moves into the
//!   returned `Bytes`) or dropped (slab returns immediately) — the type
//!   system rules out double-return;
//! - acquired contents are **unspecified** (reused slabs carry old bytes;
//!   in debug builds they are poisoned with `0xDB`): callers must fill the
//!   buffer before exposing it, which every call site does by construction
//!   (`read_exact`, `copy_from_slice`);
//! - free lists are bounded per class, so a burst can't pin unbounded
//!   memory: overflow slabs are simply freed.
//!
//! Locking: each size class has its own free-list mutex under the
//! [`classes::NET_POOL`] class — the innermost level of the lock
//! hierarchy, because acquires happen deep in the read path (client-side
//! reassembly, socket frame decode). Nothing is ever acquired while a
//! free-list guard is held.

use bytes::Bytes;
use hvac_sync::{classes, OrderedMutex};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Slab size classes, smallest first: power-of-four steps, 4 KiB → 16 MiB.
/// Anything larger is served unpooled.
pub const SLAB_CLASSES: &[usize] = &[
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
];

/// Retained free slabs per class; overflow returns are freed instead of
/// pooled so an incast burst can't pin `classes × burst` memory forever.
const MAX_FREE_PER_CLASS: usize = 32;

/// Debug-build poison byte written over a slab when it returns to the pool.
pub const POISON_BYTE: u8 = 0xDB;

hvac_types::counters! {
    /// Cumulative pool counters (all monotonic; `in_flight` is derived).
    pub struct PoolCounters => PoolStats, "pool" {
        /// Pooled acquires (oversize requests are counted separately).
        acquires,
        /// Acquires served by reusing a free-listed slab.
        pool_hits,
        /// Acquires that had to allocate a fresh slab.
        fresh_allocs,
        /// Slabs returned to a free list on last drop.
        returns,
        /// Slabs dropped on return because their free list was full.
        overflow_frees,
        /// Requests larger than the biggest class, served unpooled.
        oversize,
    }
}

impl PoolStats {
    /// Pooled slabs currently held by live buffers: acquires that have
    /// neither returned nor been freed on overflow. Zero means the pool is
    /// quiescent — every slab it ever handed out has come home. Saturating:
    /// the counters are loaded independently, so a snapshot racing an
    /// acquire-then-release can observe more returns than acquires and must
    /// read as quiescent, not underflow.
    pub fn in_flight(&self) -> u64 {
        self.acquires
            .saturating_sub(self.returns.saturating_add(self.overflow_frees))
    }
}

struct PoolInner {
    /// One bounded free list per size class, each under its own
    /// `NET_POOL`-class mutex (stripes of one logical lock).
    free: Vec<OrderedMutex<Vec<Box<[u8]>>>>,
    counters: PoolCounters,
}

impl PoolInner {
    /// Index of the smallest class that fits `len`, or `None` if oversize.
    fn class_of(len: usize) -> Option<usize> {
        SLAB_CLASSES.iter().position(|&c| len <= c)
    }

    fn release(&self, mut slab: Box<[u8]>, class: usize) {
        if cfg!(debug_assertions) {
            slab.fill(POISON_BYTE);
        }
        let mut free = self.free[class].lock();
        if free.len() < MAX_FREE_PER_CLASS {
            free.push(slab);
            drop(free);
            self.counters.returns.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(free);
            self.counters.overflow_frees.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A shared, thread-safe slab pool. Cloning is cheap (`Arc` inside); all
/// clones draw from and return to the same free lists.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// An empty pool (no slabs are preallocated; classes fill on demand).
    pub fn new() -> Self {
        let free = SLAB_CLASSES
            .iter()
            .map(|_| OrderedMutex::new(classes::NET_POOL, Vec::new()))
            .collect();
        Self {
            inner: Arc::new(PoolInner {
                free,
                counters: PoolCounters::default(),
            }),
        }
    }

    /// Check out a writable buffer of exactly `len` logical bytes, backed
    /// by the smallest slab class that fits (or a one-off allocation when
    /// `len` exceeds every class). Contents are unspecified — fill before
    /// freezing.
    pub fn acquire(&self, len: usize) -> PooledBuf {
        let Some(class) = PoolInner::class_of(len) else {
            self.inner.counters.oversize.fetch_add(1, Ordering::Relaxed);
            return PooledBuf {
                slab: vec![0u8; len].into_boxed_slice(),
                len,
                origin: None,
            };
        };
        let reused = self.inner.free[class].lock().pop();
        self.inner.counters.acquires.fetch_add(1, Ordering::Relaxed);
        let slab = match reused {
            Some(slab) => {
                self.inner
                    .counters
                    .pool_hits
                    .fetch_add(1, Ordering::Relaxed);
                slab
            }
            None => {
                self.inner
                    .counters
                    .fresh_allocs
                    .fetch_add(1, Ordering::Relaxed);
                vec![0u8; SLAB_CLASSES[class]].into_boxed_slice()
            }
        };
        PooledBuf {
            slab,
            len,
            origin: Some((self.inner.clone(), class)),
        }
    }

    /// Copy `data` into a pooled buffer and freeze it — the one-call form
    /// of acquire → fill → freeze used by reassembly paths.
    pub fn bytes_from_slice(&self, data: &[u8]) -> Bytes {
        let mut buf = self.acquire(data.len());
        buf.copy_from_slice(data);
        buf.freeze()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.counters.snapshot()
    }

    /// Slabs currently parked on free lists across all classes.
    pub fn free_slabs(&self) -> usize {
        self.inner
            .free
            .iter()
            // lockgraph: l -> NET_POOL
            .map(|l| l.lock().len())
            .sum()
    }
}

/// A checked-out pool buffer: `DerefMut` to exactly the requested length.
/// Freeze it into [`Bytes`] to share it, or drop it to return the slab
/// immediately. Either way the slab goes back to its free list exactly
/// once, when the last owner lets go.
pub struct PooledBuf {
    slab: Box<[u8]>,
    len: usize,
    /// `Some((pool, class))` for pooled slabs; `None` for oversize one-offs
    /// which are simply freed.
    origin: Option<(Arc<PoolInner>, usize)>,
}

impl PooledBuf {
    /// The logical length requested at acquire time.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Freeze into an immutable [`Bytes`] without copying. The returned
    /// `Bytes` (and every clone/slice of it) shares the slab; the last
    /// drop returns it to the pool.
    pub fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.slab[..self.len]
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.slab[..self.len]
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.slab[..self.len]
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some((pool, class)) = self.origin.take() {
            pool.release(std::mem::take(&mut self.slab), class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_selection_is_smallest_fit() {
        assert_eq!(PoolInner::class_of(1), Some(0));
        assert_eq!(PoolInner::class_of(4 << 10), Some(0));
        assert_eq!(PoolInner::class_of((4 << 10) + 1), Some(1));
        assert_eq!(PoolInner::class_of(16 << 20), Some(SLAB_CLASSES.len() - 1));
        assert_eq!(PoolInner::class_of((16 << 20) + 1), None);
    }

    #[test]
    fn slab_returns_on_last_drop_and_is_reused() {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(100);
        buf.copy_from_slice(&[7u8; 100]);
        let b = buf.freeze();
        let clone = b.slice(10..20);
        drop(b);
        assert_eq!(pool.stats().returns, 0, "a live slice pins the slab");
        drop(clone);
        let s = pool.stats();
        assert_eq!((s.acquires, s.returns), (1, 1));
        assert_eq!(pool.free_slabs(), 1);
        // The next same-class acquire reuses the very slab that came back.
        let again = pool.acquire(50);
        assert_eq!(pool.stats().pool_hits, 1);
        drop(again);
    }

    #[test]
    fn returned_slabs_are_poisoned_in_debug_builds() {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(64);
        buf.copy_from_slice(&[0xAAu8; 64]);
        drop(buf);
        // Reused slab surfaces the poison, proving the old contents are
        // gone and use-after-return reads are detectable.
        let reused = pool.acquire(64);
        if cfg!(debug_assertions) {
            assert!(reused.iter().all(|&b| b == POISON_BYTE));
        }
    }

    #[test]
    fn oversize_requests_bypass_the_pool() {
        let pool = BufferPool::new();
        let max = *SLAB_CLASSES.last().expect("classes non-empty");
        let buf = pool.acquire(max + 1);
        assert_eq!(buf.len(), max + 1);
        drop(buf);
        let s = pool.stats();
        assert_eq!((s.acquires, s.oversize, s.returns), (0, 1, 0));
        assert_eq!(pool.free_slabs(), 0);
    }

    #[test]
    fn free_lists_are_bounded() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..MAX_FREE_PER_CLASS + 5)
            .map(|_| pool.acquire(1024))
            .collect();
        drop(bufs);
        assert_eq!(pool.free_slabs(), MAX_FREE_PER_CLASS);
        let s = pool.stats();
        assert_eq!(s.overflow_frees, 5);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn bytes_from_slice_round_trips() {
        let pool = BufferPool::new();
        let data: Vec<u8> = (0..=255).collect();
        let b = pool.bytes_from_slice(&data);
        assert_eq!(&b[..], &data[..]);
        drop(b);
        assert_eq!(pool.stats().in_flight(), 0);
    }

    #[test]
    fn zero_length_acquire_is_fine() {
        let pool = BufferPool::new();
        let buf = pool.acquire(0);
        assert!(buf.is_empty());
        let b = buf.freeze();
        assert!(b.is_empty());
    }

    #[test]
    fn concurrent_acquire_release_quiesces() {
        let pool = BufferPool::new();
        std::thread::scope(|s| {
            for t in 0..16usize {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..200usize {
                        let len = 1 + (t * 131 + i * 17) % (512 << 10);
                        let mut buf = pool.acquire(len);
                        buf[0] = t as u8;
                        buf[len - 1] = i as u8;
                        let b = buf.freeze();
                        assert_eq!(b.len(), len);
                        assert_eq!(b[0], t as u8);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.in_flight(), 0, "{s:?}");
        assert_eq!(s.acquires, 16 * 200);
        assert_eq!(s.pool_hits + s.fresh_allocs, s.acquires);
    }

    #[test]
    fn stats_snapshot_merge_and_entries_carry_every_counter() {
        let c = PoolCounters::default();
        let counters = [
            &c.acquires,
            &c.pool_hits,
            &c.fresh_allocs,
            &c.returns,
            &c.overflow_frees,
            &c.oversize,
        ];
        for (i, counter) in counters.iter().enumerate() {
            counter.store(i as u64 + 1, Ordering::Relaxed);
        }
        let s = c.snapshot();
        assert_eq!(
            s,
            PoolStats {
                acquires: 1,
                pool_hits: 2,
                fresh_allocs: 3,
                returns: 4,
                overflow_frees: 5,
                oversize: 6,
            }
        );
        let mut agg = s;
        agg.merge(&s);
        assert_eq!(
            agg.entries(),
            [
                ("pool.acquires", 2),
                ("pool.pool_hits", 4),
                ("pool.fresh_allocs", 6),
                ("pool.returns", 8),
                ("pool.overflow_frees", 10),
                ("pool.oversize", 12),
            ]
        );
    }
}
