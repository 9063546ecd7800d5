//! Latency/bandwidth throttling decorator.
//!
//! Wraps any [`FileStore`] and injects a fixed per-operation latency plus a
//! bandwidth ceiling on reads, turning a fast local directory into something
//! that *behaves* like a congested PFS. The functional examples use this to
//! demonstrate the paper's effect with real wall-clock time: reads through
//! the HVAC cache skip the throttled store after the first epoch.
//!
//! By default any number of operations sleep at once, so N concurrent
//! operations cost what one does. [`ThrottledStore::with_slots`] caps the
//! store at k operations in service, like a PFS with a pool of k servers
//! (the `mds_count` of `hvac-sim`'s GPFS model): further operations queue
//! for a slot.

use crate::store::{FileMeta, FileStore, StoreStats};
use bytes::Bytes;
use hvac_sync::{classes, OrderedMutex};
use hvac_types::{Bandwidth, Result};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Duration;

/// The busy operation slots of a capped store, as tokens in a channel of
/// capacity k: an operation puts a token in before it starts, blocking
/// while all k are taken, and takes one out when it ends.
struct Slots {
    take: SyncSender<()>,
    give_back: OrderedMutex<Receiver<()>>,
}

/// A [`FileStore`] decorator that sleeps to emulate a slower tier.
pub struct ThrottledStore<S> {
    inner: S,
    op_latency: Duration,
    bandwidth: Option<Bandwidth>,
    /// `None` = unlimited.
    slots: Option<Slots>,
}

impl<S: FileStore> ThrottledStore<S> {
    /// Throttle `inner` with `op_latency` per metadata/data operation and an
    /// optional read bandwidth ceiling, with no limit on operations in
    /// flight.
    pub fn new(inner: S, op_latency: Duration, bandwidth: Option<Bandwidth>) -> Self {
        Self {
            inner,
            op_latency,
            bandwidth,
            slots: None,
        }
    }

    /// Serve at most `k` operations at once (at least 1). Each operation
    /// holds a slot for its whole latency plus transfer time; the rest wait
    /// for one.
    pub fn with_slots(mut self, k: usize) -> Self {
        let (take, give_back) = sync_channel(k.max(1));
        self.slots = Some(Slots {
            take,
            give_back: OrderedMutex::new(classes::PFS_THROTTLE_SLOTS, give_back),
        });
        self
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn pay_op(&self) {
        if !self.op_latency.is_zero() {
            std::thread::sleep(self.op_latency);
        }
    }

    fn pay_bytes(&self, n: usize) {
        if let Some(bw) = self.bandwidth {
            let secs = bw.transfer_secs(hvac_types::ByteSize(n as u64));
            if secs.is_finite() && secs > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(secs));
            }
        }
    }

    /// Run one operation: take a slot if the store is capped, pay the
    /// latency, run `op` on the inner store, pay the transfer of the `n`
    /// bytes it returned, and give the slot back.
    fn serve<T>(&self, op: impl FnOnce(&S) -> Result<T>, n: impl FnOnce(&T) -> usize) -> Result<T> {
        // Both ends live in `self`, so the channel never closes.
        if let Some(slots) = &self.slots {
            let _ = slots.take.send(());
        }
        self.pay_op();
        let out = op(&self.inner);
        if let Ok(data) = &out {
            self.pay_bytes(n(data));
        }
        if let Some(slots) = &self.slots {
            let _ = slots.give_back.lock().try_recv();
        }
        out
    }
}

impl<S: FileStore> FileStore for ThrottledStore<S> {
    fn open_meta(&self, path: &Path) -> Result<FileMeta> {
        self.serve(|s| s.open_meta(path), |_| 0)
    }

    fn read_all(&self, path: &Path) -> Result<Bytes> {
        self.serve(|s| s.read_all(path), Bytes::len)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        self.serve(|s| s.read_at(path, offset, len), Bytes::len)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list(prefix)
    }

    fn stats(&self) -> &StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::MemStore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn throttling_adds_latency() {
        let mem = MemStore::new();
        mem.put("/f", Bytes::from(vec![1u8; 1000]));
        let throttled = ThrottledStore::new(mem, Duration::from_millis(5), None);
        let t0 = Instant::now();
        throttled.read_all(Path::new("/f")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn bandwidth_ceiling_slows_large_reads() {
        let mem = MemStore::new();
        mem.put("/big", Bytes::from(vec![1u8; 1_000_000]));
        // 10 MB/s -> 1 MB takes ~100 ms.
        let throttled = ThrottledStore::new(
            mem,
            Duration::ZERO,
            Some(Bandwidth::bytes_per_sec(10_000_000.0)),
        );
        let t0 = Instant::now();
        throttled.read_all(Path::new("/big")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(80));
    }

    /// An inner store that counts the operations in flight on it; each
    /// operation waits (for up to 30 s) until `target` have been in flight
    /// at once, so a cap that works is reached on every schedule.
    struct Counting {
        mem: MemStore,
        inflight: AtomicUsize,
        peak: AtomicUsize,
        target: usize,
    }

    impl FileStore for Counting {
        fn open_meta(&self, path: &Path) -> Result<FileMeta> {
            self.mem.open_meta(path)
        }
        fn read_all(&self, path: &Path) -> Result<Bytes> {
            let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.peak.load(Ordering::SeqCst) < self.target && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let out = self.mem.read_all(path);
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            out
        }
        fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
            self.mem.read_at(path, offset, len)
        }
        fn exists(&self, path: &Path) -> bool {
            self.mem.exists(path)
        }
        fn list(&self, prefix: &Path) -> Result<Vec<PathBuf>> {
            self.mem.list(prefix)
        }
        fn stats(&self) -> &StoreStats {
            self.mem.stats()
        }
    }

    #[test]
    fn slots_cap_the_operations_in_flight_and_are_all_used() {
        const K: usize = 3;
        let mem = MemStore::new();
        mem.put("/f", Bytes::from_static(b"abc"));
        let counting = Counting {
            mem,
            inflight: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            target: K,
        };
        let store = Arc::new(ThrottledStore::new(counting, Duration::ZERO, None).with_slots(K));
        let readers: Vec<_> = (0..3 * K)
            .map(|_| {
                let store = store.clone();
                std::thread::spawn(move || store.read_all(Path::new("/f")).unwrap())
            })
            .collect();
        for r in readers {
            assert_eq!(&r.join().unwrap()[..], b"abc");
        }
        assert_eq!(store.inner().peak.load(Ordering::SeqCst), K);
        assert_eq!(store.inner().stats().snapshot().1, 3 * K as u64);
    }

    #[test]
    fn zero_throttle_is_transparent() {
        let mem = MemStore::new();
        mem.put("/f", Bytes::from_static(b"abc"));
        let throttled = ThrottledStore::new(mem, Duration::ZERO, None);
        assert_eq!(&throttled.read_all(Path::new("/f")).unwrap()[..], b"abc");
        assert_eq!(&throttled.read_at(Path::new("/f"), 1, 1).unwrap()[..], b"b");
        assert!(throttled.exists(Path::new("/f")));
        assert_eq!(throttled.list(Path::new("/")).unwrap().len(), 1);
        assert_eq!(throttled.open_meta(Path::new("/f")).unwrap().size, 3);
        // Stats pass through to the inner store.
        assert_eq!(throttled.stats().snapshot().0, 1);
    }
}
