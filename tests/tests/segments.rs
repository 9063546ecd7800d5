//! Segment-level caching (the §III-E alternative to file granularity):
//! huge files are cut into segments, each homed on its own server, so one
//! multi-gigabyte file no longer lands on a single NVMe.

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_pfs::{FileStore, MemStore};
use hvac_types::{ByteSize, NodeId};
use std::path::Path;
use std::sync::Arc;

const BIG: usize = 1 << 20; // a 1 MiB "huge" file for test purposes
const SEG: u64 = 64 * 1024; // 64 KiB segments -> 16 segments

fn setup(nodes: u32, capacity: ByteSize) -> (Arc<MemStore>, Cluster) {
    let pfs = Arc::new(MemStore::new());
    pfs.put("/gpfs/train/huge.h5", MemStore::sample_content(7, BIG));
    pfs.put(
        "/gpfs/train/odd.h5",
        MemStore::sample_content(8, BIG + 12_345),
    );
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(nodes, 1)
            .dataset_dir("/gpfs/train")
            .cache_capacity(capacity),
    )
    .unwrap();
    (pfs, cluster)
}

#[test]
fn segmented_read_reassembles_correctly() {
    let (_pfs, cluster) = setup(8, ByteSize::mib(16));
    for (path, size) in [
        ("/gpfs/train/huge.h5", BIG),
        ("/gpfs/train/odd.h5", BIG + 12_345),
    ] {
        let via_segments = cluster
            .client(0)
            .read_file_segmented(Path::new(path), SEG)
            .unwrap();
        let whole = cluster.client(1).read_file(Path::new(path)).unwrap();
        assert_eq!(via_segments.len(), size);
        assert_eq!(via_segments, whole, "{path} reassembly mismatch");
    }
}

#[test]
fn segments_spread_one_file_across_many_nodes() {
    let (_pfs, cluster) = setup(8, ByteSize::mib(16));
    cluster
        .client(0)
        .read_file_segmented(Path::new("/gpfs/train/huge.h5"), SEG)
        .unwrap();
    // File-granular caching would put everything on one node; segment
    // caching spreads the 16 segments.
    let populated = cluster.per_node_bytes().iter().filter(|&&b| b > 0).count();
    assert!(
        populated >= 4,
        "segments should spread over many nodes, only {populated} populated"
    );
    // And the distinct homes match the client's own placement prediction.
    let client = cluster.client(0);
    let mut homes: Vec<String> = (0..16)
        .map(|i| client.segment_replica_addrs(Path::new("/gpfs/train/huge.h5"), i)[0].clone())
        .collect();
    homes.sort();
    homes.dedup();
    assert!(homes.len() >= 4, "placement predicts {} homes", homes.len());
}

#[test]
fn repeat_segmented_reads_hit_the_cache() {
    let (pfs, cluster) = setup(4, ByteSize::mib(16));
    let p = Path::new("/gpfs/train/huge.h5");
    cluster.client(0).read_file_segmented(p, SEG).unwrap();
    let (_, pfs_reads_cold, pfs_bytes_cold) = pfs.stats().snapshot();
    // The coalescer may merge adjacent same-home segments into one ranged
    // read, so the cold pass costs *at most* one PFS read per segment —
    // and with 16 segments over 4 nodes, strictly fewer than 16.
    assert!(
        pfs_reads_cold <= 16,
        "at most one ranged PFS read per segment, got {pfs_reads_cold}"
    );
    assert!(pfs_reads_cold >= 4, "one read per node at minimum");
    assert_eq!(
        pfs_bytes_cold, BIG as u64,
        "ranged reads fetch exactly the file, no re-fetch overlap"
    );
    cluster.client(1).read_file_segmented(p, SEG).unwrap();
    assert_eq!(
        pfs.stats().snapshot().1,
        pfs_reads_cold,
        "second pass never touches the PFS"
    );
    let agg = cluster.aggregate_metrics();
    assert_eq!(
        agg.cache_misses, pfs_reads_cold,
        "every cold range was a cache miss"
    );
    assert_eq!(
        agg.cache_hits, agg.cache_misses,
        "the warm pass hit every range the cold pass populated"
    );
}

#[test]
fn file_bigger_than_any_single_node_cache_is_servable_via_segments() {
    // Per-node cache: 256 KiB. The 1 MiB file cannot be cached whole
    // anywhere, but its 64 KiB segments spread over 8 nodes fit comfortably.
    let (_pfs, cluster) = setup(8, ByteSize::kib(256));
    let p = Path::new("/gpfs/train/huge.h5");
    // Whole-file caching cannot admit it — served via PFS bypass instead
    // (no acceleration, nothing cached).
    cluster.client(0).read_file(p).unwrap();
    assert_eq!(cluster.per_node_bytes().iter().sum::<u64>(), 0);
    assert!(cluster.aggregate_metrics().pfs_bypass_reads >= 1);
    // Segment-level caching actually serves it *from the cache*.
    let data = cluster.client(0).read_file_segmented(p, SEG).unwrap();
    assert_eq!(data.len(), BIG);
    let data2 = cluster.client(3).read_file_segmented(p, SEG).unwrap();
    assert_eq!(data, data2);
}

#[test]
fn a_file_named_like_a_segment_key_reads_its_own_bytes() {
    // On one node, `x`'s two 100-byte segments coalesce into one cached
    // 200-byte range of `x`. A file whose name spells that range out in a
    // path-like key form (`#offset+len`) must still read as itself.
    let pfs = Arc::new(MemStore::new());
    let x = MemStore::sample_content(1, 200);
    let twin = MemStore::sample_content(2, 300);
    pfs.put("/gpfs/train/x", x.clone());
    pfs.put("/gpfs/train/x#0+200", twin.clone());
    let cluster = Cluster::new(
        pfs,
        ClusterOptions::new(1, 1)
            .dataset_dir("/gpfs/train")
            .cache_capacity(ByteSize::mib(1)),
    )
    .unwrap();
    let client = cluster.client(0);
    let segmented = client
        .read_file_segmented(Path::new("/gpfs/train/x"), 100)
        .unwrap();
    assert_eq!(segmented, x);
    let whole = client.read_file(Path::new("/gpfs/train/x#0+200")).unwrap();
    assert_eq!(whole, twin, "read another file's cached segment");
}

#[test]
fn zero_segment_size_is_rejected() {
    let (_pfs, cluster) = setup(2, ByteSize::mib(4));
    assert!(cluster
        .client(0)
        .read_file_segmented(Path::new("/gpfs/train/huge.h5"), 0)
        .is_err());
}

#[test]
fn segment_size_larger_than_file_degenerates_to_one_segment() {
    let (pfs, cluster) = setup(2, ByteSize::mib(8));
    let p = Path::new("/gpfs/train/huge.h5");
    let data = cluster.client(0).read_file_segmented(p, 100 << 20).unwrap();
    assert_eq!(data.len(), BIG);
    assert_eq!(pfs.stats().snapshot().1, 1, "a single ranged read");
}

/// A node leaves between two segmented reads. The client reading next has
/// never heard of the change (cluster clients learn views only from
/// `StaleView` redirects): its plan bounces, is planned again under the
/// newer view, and every segment is served by its home in that view, never
/// by the retired node.
#[test]
fn segmented_read_follows_a_membership_change() {
    let (_pfs, mut cluster) = setup(4, ByteSize::mib(16));
    let p = Path::new("/gpfs/train/huge.h5");
    let expected = MemStore::sample_content(7, BIG);
    assert_eq!(
        cluster.client(0).read_file_segmented(p, SEG).unwrap(),
        expected
    );
    let retired = cluster.server(1).clone();
    cluster.remove_node(NodeId(1)).unwrap();
    cluster.wait_rebalance();
    let view = cluster.view();
    let served = |cluster: &Cluster| -> Vec<u64> {
        (0..view.n_servers())
            .map(|i| cluster.server(i).metrics().snapshot().served_bytes)
            .collect()
    };
    let before = served(&cluster);
    let retired_before = retired.metrics().snapshot().served_bytes;

    let client = cluster.client(2);
    assert!(client.view().epoch() < view.epoch(), "the client is stale");
    assert_eq!(client.read_file_segmented(p, SEG).unwrap(), expected);
    assert_eq!(client.view().epoch(), view.epoch());
    let s = client.metrics().full_snapshot();
    assert!(s.view_refreshes >= 1, "{s:?}");
    assert_eq!(s.degraded_reads, 0, "{s:?}");

    let after = served(&cluster);
    for (i, sid) in view.servers().iter().enumerate() {
        let addr = view.addr(*sid);
        let homed: u64 = (0..BIG as u64 / SEG)
            .filter(|&seg| client.segment_replica_addrs(p, seg)[0] == addr)
            .map(|_| SEG)
            .sum();
        assert_eq!(after[i] - before[i], homed, "bytes served by {addr}");
    }
    assert_eq!(
        retired.metrics().snapshot().served_bytes,
        retired_before,
        "the retired node served nothing"
    );
}
