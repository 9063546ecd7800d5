//! Concurrency stress: many application threads hammering one allocation.
//! The single-copy invariant (paper §III-D: "mutex lock on shared queue ...
//! to avoid repeated copying") must hold under real races, and no bytes may
//! be corrupted.

use bytes::Bytes;
use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_pfs::{FileMeta, FileStore, MemStore, StoreStats};
use hvac_types::{ByteSize, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

/// Poll `done` every millisecond for up to 30 s; a test whose condition
/// never holds fails its assertions instead of hanging.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A PFS whose whole-file reads wait until the test opens the gate, so the
/// first copies stay in flight while other ranks arrive and park on them.
struct GatedStore {
    inner: Arc<MemStore>,
    open: AtomicBool,
}

impl FileStore for GatedStore {
    fn open_meta(&self, path: &Path) -> Result<FileMeta> {
        self.inner.open_meta(path)
    }

    fn read_all(&self, path: &Path) -> Result<Bytes> {
        wait_until(|| self.open.load(Ordering::Acquire));
        self.inner.read_all(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        self.inner.read_at(path, offset, len)
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

#[test]
fn racing_ranks_fetch_each_file_exactly_once() {
    let n_files = 32u64;
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), n_files, |_| 2048);
    let gated = Arc::new(GatedStore {
        inner: pfs.clone(),
        open: AtomicBool::new(false),
    });
    let cluster = Arc::new(
        Cluster::new(
            gated.clone(),
            ClusterOptions::new(4, 2)
                .dataset_dir("/gpfs/train")
                .clients_per_node(2),
        )
        .unwrap(),
    );

    // 8 ranks all read the SAME files at the same time (worst-case race).
    let mut joins = Vec::new();
    for rank in 0..8usize {
        let cluster = cluster.clone();
        joins.push(std::thread::spawn(move || {
            for round in 0..3u64 {
                for i in 0..n_files {
                    let idx = (i + round * 7) % n_files;
                    let data = cluster.client(rank).read_file(&sample(idx)).unwrap();
                    assert_eq!(data, MemStore::sample_content(idx, 2048));
                }
            }
        }));
    }
    // Every rank starts on file 0. Hold its copy until another rank has
    // parked on it, so the race this test is about happens on every
    // schedule rather than only when the ranks happen to collide.
    wait_until(|| cluster.aggregate_metrics().dedup_waits > 0);
    gated.open.store(true, Ordering::Release);
    for j in joins {
        j.join().unwrap();
    }

    // Exactly one PFS fetch per file despite 8 x 3 racing epochs.
    assert_eq!(pfs.stats().snapshot().1, n_files);
    let agg = cluster.aggregate_metrics();
    assert_eq!(agg.pfs_copies, n_files);
    assert_eq!(agg.reads, 8 * 3 * n_files);
    assert!(
        agg.dedup_waits > 0,
        "concurrent first reads should have piggybacked on in-flight copies"
    );
}

#[test]
fn concurrent_reads_under_eviction_pressure_never_corrupt() {
    let n_files = 64u64;
    let file_size = 1024usize;
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), n_files, |_| file_size);
    let cluster = Arc::new(
        Cluster::new(
            pfs,
            ClusterOptions::new(4, 1)
                .dataset_dir("/gpfs/train")
                // Aggregate cache holds ~40% of the dataset: heavy churn.
                .cache_capacity(ByteSize(n_files * file_size as u64 / 10)),
        )
        .unwrap(),
    );
    let mut joins = Vec::new();
    for t in 0..6usize {
        let cluster = cluster.clone();
        joins.push(std::thread::spawn(move || {
            for round in 0..2u64 {
                for i in 0..n_files {
                    let idx = (i * (t as u64 + 3) + round) % n_files;
                    let data = cluster
                        .client(t % 4)
                        .read_file(&sample(idx))
                        .unwrap_or_else(|e| panic!("thread {t} file {idx}: {e}"));
                    assert_eq!(
                        data,
                        MemStore::sample_content(idx, file_size),
                        "thread {t} got corrupted bytes for file {idx}"
                    );
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let agg = cluster.aggregate_metrics();
    assert!(agg.evictions > 0, "pressure should have forced evictions");
}

#[test]
fn concurrent_open_read_close_cycles_on_shared_fds() {
    // Each thread drives its own descriptors; the client fd table is shared
    // state and must stay consistent.
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), 4, |_| 8192);
    let cluster =
        Arc::new(Cluster::new(pfs, ClusterOptions::new(2, 1).dataset_dir("/gpfs/train")).unwrap());
    let client = cluster.client(0).clone();
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let client = client.clone();
        joins.push(std::thread::spawn(move || {
            for round in 0..40u64 {
                let idx = (t + round) % 4;
                let fd = client.open(&sample(idx)).unwrap();
                let a = client.read(fd, 100).unwrap();
                let b = client.pread(fd, 0, 100).unwrap();
                assert_eq!(a, b);
                assert_eq!(
                    client.lseek(fd, 0, hvac_core::client::Whence::Cur).unwrap(),
                    100
                );
                client.close(fd).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let (opens, _, _, closes, _, _) = client.metrics().snapshot();
    assert_eq!(opens, 8 * 40);
    assert_eq!(closes, 8 * 40);
}
