//! Cache-pressure tests: the dataset outgrows the aggregate node-local
//! capacity (paper §III-G), so the allocation must keep serving correct
//! bytes while evicting — with every policy.

use bytes::Bytes;
use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_pfs::{FileStore, MemStore};
use hvac_storage::LocalStore;
use hvac_types::{ByteSize, EvictionPolicyKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_FILES: u64 = 96;
const FILE_SIZE: usize = 1_000;

fn pressured_cluster(policy: EvictionPolicyKind, fraction_cached: f64) -> (Arc<MemStore>, Cluster) {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let nodes = 4u64;
    let total_bytes = N_FILES * FILE_SIZE as u64;
    let per_node = (total_bytes as f64 * fraction_cached / nodes as f64) as u64;
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(nodes as u32, 1)
            .dataset_dir("/gpfs/train")
            .cache_capacity(ByteSize(per_node))
            .eviction(policy),
    )
    .unwrap();
    (pfs, cluster)
}

fn read_epoch(cluster: &Cluster, epoch: u64) {
    for i in 0..N_FILES {
        let idx = (i * 31 + epoch * 7) % N_FILES; // cheap shuffle
        let path = format!("/gpfs/train/sample_{idx:08}.bin");
        let data = cluster
            .client((idx % 4) as usize)
            .read_file(Path::new(&path))
            .unwrap_or_else(|e| panic!("epoch {epoch} file {idx}: {e}"));
        assert_eq!(
            data,
            MemStore::sample_content(idx, FILE_SIZE),
            "corrupted bytes under eviction pressure (file {idx})"
        );
    }
}

#[test]
fn all_policies_serve_correct_bytes_under_pressure() {
    let mut hit_rates = Vec::new();
    for policy in [
        EvictionPolicyKind::Random,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Lfu,
    ] {
        let (_pfs, cluster) = pressured_cluster(policy, 0.5);
        for epoch in 0..3 {
            read_epoch(&cluster, epoch);
        }
        let agg = cluster.aggregate_metrics();
        assert!(agg.evictions > 0, "{policy:?}: no evictions under pressure");
        assert!(
            agg.hit_rate() < 0.9,
            "{policy:?}: hit rate {} implausibly high at 50% capacity",
            agg.hit_rate()
        );
        // Capacity is never exceeded on any node.
        let cap = cluster.options().cache_capacity.bytes();
        for used in cluster.per_node_bytes() {
            assert!(used <= cap, "{policy:?}: node over capacity");
        }
        hit_rates.push((policy, agg.hit_rate()));
    }
    // The epoch access pattern is a full cyclic scan — FIFO/LRU's worst
    // case (they evict exactly what is needed next and can hit 0 %), while
    // random eviction (the paper's §III-G policy) is scan-resistant. Never
    // replacing does better still (`minio_policy_pins_a_stable_subset`),
    // which is why the default policy is MinIO.
    let rate = |k: EvictionPolicyKind| hit_rates.iter().find(|(p, _)| *p == k).unwrap().1;
    assert!(
        rate(EvictionPolicyKind::Random) > 0.05,
        "random eviction should salvage hits from a scan: {hit_rates:?}"
    );
    assert!(
        rate(EvictionPolicyKind::Random) >= rate(EvictionPolicyKind::Fifo),
        "random must not lose to FIFO on cyclic scans: {hit_rates:?}"
    );
}

#[test]
fn no_pressure_means_no_evictions() {
    let (_pfs, cluster) = pressured_cluster(EvictionPolicyKind::Random, 4.0);
    for epoch in 0..3 {
        read_epoch(&cluster, epoch);
    }
    let agg = cluster.aggregate_metrics();
    assert_eq!(agg.evictions, 0);
    assert_eq!(agg.pfs_copies, N_FILES, "each file fetched exactly once");
}

#[test]
fn tighter_cache_means_lower_hit_rate() {
    let mut rates = Vec::new();
    for fraction in [0.25, 0.5, 1.5] {
        let (_pfs, cluster) = pressured_cluster(EvictionPolicyKind::Random, fraction);
        for epoch in 0..3 {
            read_epoch(&cluster, epoch);
        }
        rates.push(cluster.aggregate_metrics().hit_rate());
    }
    assert!(
        rates[0] < rates[1] && rates[1] < rates[2],
        "hit rates should grow with capacity: {rates:?}"
    );
    assert!(rates[2] > 0.6, "ample cache should mostly hit: {rates:?}");
}

#[test]
fn file_larger_than_node_cache_is_served_via_pfs_bypass() {
    let pfs = Arc::new(MemStore::new());
    pfs.put("/gpfs/train/small.bin", MemStore::sample_content(1, 100));
    pfs.put("/gpfs/train/huge.bin", MemStore::sample_content(2, 10_000));
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(2, 1)
            .dataset_dir("/gpfs/train")
            .cache_capacity(ByteSize(1_000)),
    )
    .unwrap();
    // The oversized file cannot be cached, but it is still served (CoorDL
    // semantics: un-admitted files read straight from the PFS).
    let (opens, reads, _) = pfs.stats().snapshot();
    let huge = cluster
        .client(0)
        .read_file(Path::new("/gpfs/train/huge.bin"))
        .unwrap();
    assert_eq!(huge, MemStore::sample_content(2, 10_000));
    // ...from the bytes the data mover fetched: exactly one PFS operation,
    // no stat and no second read after the refused insert.
    let (opens_after, reads_after, _) = pfs.stats().snapshot();
    assert_eq!((opens_after - opens, reads_after - reads), (0, 1));
    // It never entered any cache...
    assert_eq!(cluster.per_node_file_counts().iter().sum::<u64>(), 0);
    let agg = cluster.aggregate_metrics();
    assert_eq!(agg.pfs_bypass_reads, 1);
    // ...and cacheable files still cache normally.
    let data = cluster
        .client(1)
        .read_file(Path::new("/gpfs/train/small.bin"))
        .unwrap();
    assert_eq!(data, MemStore::sample_content(1, 100));
    assert_eq!(cluster.per_node_file_counts().iter().sum::<u64>(), 1);
}

/// The striped store's CAS-reserved accounting under true parallel writers:
/// 8 threads blast inserts (many more bytes than fit) while the store is
/// striped across its default shard count. `used()` may never exceed
/// `capacity()` at any observation point, the survivors' accounting is
/// exact, and `purge()` returns it to zero.
#[test]
fn concurrent_writers_never_overshoot_capacity_and_purge_zeroes() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 200;
    const ITEM: u64 = 10;
    let store = Arc::new(LocalStore::in_memory(ByteSize(1_000)));
    assert!(store.shard_count() > 1, "default store must be striped");
    let mut joins = Vec::new();
    for t in 0..WRITERS {
        let store = store.clone();
        joins.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            for i in 0..PER_WRITER {
                let p = PathBuf::from(format!("/gpfs/stripe/w{t}/f{i}"));
                if store
                    .insert(&p, Bytes::from(vec![t as u8; ITEM as usize]))
                    .is_ok()
                {
                    ok += 1;
                }
                // Invariant holds at every interleaving point, not just at
                // the end: reservation happens before bytes land.
                assert!(
                    store.used().bytes() <= store.capacity().bytes(),
                    "writer {t} observed used > capacity"
                );
            }
            ok
        }));
    }
    let accepted: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert_eq!(accepted * ITEM, store.used().bytes(), "exact accounting");
    assert_eq!(accepted, 100, "exactly capacity/item inserts admitted");
    assert_eq!(store.len() as u64, accepted);
    store.purge();
    assert_eq!(store.used(), ByteSize::ZERO, "purge returns used to zero");
    assert!(store.is_empty());
}

#[test]
fn minio_policy_pins_a_stable_subset() {
    // CoorDL's MinIO: the cache fills once and never churns; overflow is
    // served from the PFS. Over a cyclic scan this guarantees a *stable*
    // hit fraction ≈ capacity share — better than FIFO/LRU's 0 %.
    let (pfs, cluster) = pressured_cluster(EvictionPolicyKind::MinIo, 0.5);
    for epoch in 0..3 {
        read_epoch(&cluster, epoch);
    }
    let agg = cluster.aggregate_metrics();
    assert_eq!(agg.evictions, 0, "MinIO never evicts");
    assert!(
        agg.pfs_bypass_reads > 0,
        "overflow must be served via bypass"
    );
    // Every miss, refused or cached, costs exactly one PFS operation: no
    // stat, and no second read of a refused file.
    let (opens, reads, _) = pfs.stats().snapshot();
    assert_eq!(opens + reads, agg.cache_misses, "PFS ops == cache misses");
    assert!(
        agg.hit_rate() > 0.25,
        "pinned half of the dataset should hit ~ its capacity share: {}",
        agg.hit_rate()
    );
    // The resident set is exactly the pinned prefix; capacity respected.
    let cap = cluster.options().cache_capacity.bytes();
    for used in cluster.per_node_bytes() {
        assert!(used <= cap);
    }
}
