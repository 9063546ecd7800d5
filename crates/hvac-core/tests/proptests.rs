//! Property-based tests for hvac-core: protocol totality, eviction-policy
//! invariants under arbitrary operation sequences, cache capacity safety,
//! and chunked client reads against a loopback cluster.

use bytes::Bytes;
use hvac_core::cache::CacheManager;
use hvac_core::eviction::make_policy;
use hvac_core::intercept::{normalize, DatasetMatcher};
use hvac_core::protocol::{Request, Response};
use hvac_core::{Cluster, ClusterOptions};
use hvac_pfs::{FileStore, MemStore};
use hvac_storage::LocalStore;
use hvac_types::{ByteSize, EvictionPolicyKind, TransportKind};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn arb_path() -> impl Strategy<Value = PathBuf> {
    "[a-zA-Z0-9_./ -]{1,64}".prop_map(|s| PathBuf::from(format!("/{s}")))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_path().prop_map(|path| Request::Stat { path }),
        (arb_path(), any::<u64>(), any::<u64>()).prop_map(|(path, offset, len)| Request::Read {
            path,
            offset,
            len
        }),
        proptest::collection::vec(arb_path(), 0..4).prop_map(|paths| Request::Prefetch { paths }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|size| Response::Stat { size }),
        any::<u64>().prop_map(|total_size| Response::Data { total_size }),
        Just(Response::Ok),
        (any::<i32>(), "[ -~]{0,80}").prop_map(|(code, message)| Response::Err { code, message }),
    ]
}

proptest! {
    #[test]
    fn request_codec_round_trips(req in arb_request()) {
        let encoded = req.encode().unwrap();
        prop_assert_eq!(Request::decode(encoded).unwrap(), req);
    }

    #[test]
    fn response_codec_round_trips(resp in arb_response()) {
        let encoded = resp.encode();
        prop_assert_eq!(Response::decode(encoded).unwrap(), resp);
    }

    #[test]
    fn request_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(Bytes::from(bytes.clone()));
        let _ = Response::decode(Bytes::from(bytes));
    }

    /// Drive every policy with an arbitrary op sequence; the policy must
    /// stay consistent with a reference set of resident paths.
    #[test]
    fn eviction_policies_track_residency(
        ops in proptest::collection::vec((0u8..4, 0u8..32), 1..200),
        kind in prop_oneof![
            Just(EvictionPolicyKind::Random),
            Just(EvictionPolicyKind::Fifo),
            Just(EvictionPolicyKind::Lru),
            Just(EvictionPolicyKind::Lfu),
            Just(EvictionPolicyKind::MinIo),
        ],
    ) {
        let mut policy = make_policy(kind, 42);
        let mut resident: HashSet<PathBuf> = HashSet::new();
        for (op, file) in ops {
            let path = PathBuf::from(format!("/f/{file}"));
            match op {
                0 => {
                    policy.on_insert(&path);
                    resident.insert(path);
                }
                1 => {
                    policy.on_remove(&path);
                    resident.remove(&path);
                }
                2 => policy.on_access(&path),
                _ => {
                    match policy.victim() {
                        Some(v) => prop_assert!(
                            resident.contains(&v),
                            "{} chose non-resident victim {v:?}",
                            policy.name()
                        ),
                        None => prop_assert!(
                            resident.is_empty() || policy.name() == "minio",
                            "{} found no victim among {} resident",
                            policy.name(),
                            resident.len()
                        ),
                    }
                }
            }
            prop_assert_eq!(policy.len(), resident.len(), "{} len drift", policy.name());
        }
    }

    /// The cache never exceeds capacity, for any insert sequence.
    #[test]
    fn cache_capacity_is_inviolable(
        sizes in proptest::collection::vec(1usize..400, 1..60),
        kind in prop_oneof![
            Just(EvictionPolicyKind::Random),
            Just(EvictionPolicyKind::Fifo),
            Just(EvictionPolicyKind::Lru),
            Just(EvictionPolicyKind::Lfu),
        ],
    ) {
        let capacity = 1_000u64;
        let mgr = CacheManager::new(
            LocalStore::in_memory(ByteSize(capacity)),
            make_policy(kind, 3),
        );
        for (i, size) in sizes.iter().enumerate() {
            let path = PathBuf::from(format!("/p/{i}"));
            let result = mgr.insert(&path, Bytes::from(vec![0u8; *size]));
            if *size as u64 <= capacity {
                prop_assert!(result.is_ok(), "insert of {size} into {capacity} failed");
            } else {
                prop_assert!(result.is_err());
            }
            prop_assert!(mgr.store().used().bytes() <= capacity);
        }
    }

    /// `pread` over a 2-node loopback cluster returns exactly the PFS bytes
    /// for any file size, chunk size, offset and length, reads past EOF
    /// included. The read is `max(1, ceil(n / bulk_chunk))` `Read` RPCs for
    /// the `n` bytes left after clamping to the file, so a read of at most
    /// `bulk_chunk` bytes is exactly one RPC at any offset.
    #[test]
    fn chunked_pread_matches_the_pfs_and_small_reads_are_one_rpc(
        size in 0usize..6000,
        bulk_chunk in 16usize..2048,
        offset in 0u64..6500,
        len in 0usize..7000,
    ) {
        let pfs = Arc::new(MemStore::new());
        let path = pfs.synthesize_dataset(Path::new("/gpfs/prop"), 1, |_| size).remove(0);
        let cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(2, 1)
                .dataset_dir("/gpfs/prop")
                .transport(TransportKind::Loopback)
                .bulk_chunk(bulk_chunk)
                .rebalance(false)
                .repair(false),
        )
        .unwrap();
        let client = cluster.client(0);
        let fd = client.open(&path).unwrap();
        let reads_before = cluster.aggregate_metrics().reads;
        let got = client.pread(fd, offset, len).unwrap();
        prop_assert_eq!(got, pfs.read_at(&path, offset, len).unwrap());
        let rpcs = cluster.aggregate_metrics().reads - reads_before;
        let clamped = len.min(size.saturating_sub(offset as usize));
        prop_assert_eq!(rpcs, clamped.div_ceil(bulk_chunk).max(1) as u64);
        if len <= bulk_chunk {
            prop_assert_eq!(rpcs, 1);
        }
        prop_assert_eq!(client.metrics().full_snapshot().batch_fallbacks, 0);
    }

    /// `read_file` over a 2-node loopback cluster is byte-exact for any
    /// file size and chunk size, and costs exactly
    /// `max(1, ceil(size / bulk_chunk))` `Read` RPCs — counted both by the
    /// servers and by the fabric, so no `Stat` (and no other RPC) rides
    /// along — plus, on a cold cache, one PFS read and no `open_meta`.
    #[test]
    fn read_file_is_one_read_rpc_per_chunk_and_one_pfs_op(
        size in 0usize..6000,
        bulk_chunk in 16usize..2048,
    ) {
        let pfs = Arc::new(MemStore::new());
        let path = pfs.synthesize_dataset(Path::new("/gpfs/prop"), 1, |_| size).remove(0);
        let cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(2, 1)
                .dataset_dir("/gpfs/prop")
                .transport(TransportKind::Loopback)
                .bulk_chunk(bulk_chunk)
                .rebalance(false)
                .repair(false),
        )
        .unwrap();
        let client = cluster.client(0);
        let rpcs = || cluster.fabric().stats().rpcs.load(std::sync::atomic::Ordering::Relaxed);
        let contents = pfs.read_all(&path).unwrap();
        let (server_before, rpcs_before, pfs_before) =
            (cluster.aggregate_metrics(), rpcs(), pfs.stats().snapshot());
        prop_assert_eq!(client.read_file(&path).unwrap(), contents);
        let server = cluster.aggregate_metrics();
        let expected = size.div_ceil(bulk_chunk).max(1) as u64;
        prop_assert_eq!(server.reads - server_before.reads, expected);
        prop_assert_eq!(rpcs() - rpcs_before, expected);
        prop_assert_eq!(server.stats_ops - server_before.stats_ops, 0);
        prop_assert_eq!(server.closes, 0);
        let pfs_after = pfs.stats().snapshot();
        prop_assert_eq!(pfs_after.0 - pfs_before.0, 0, "no open_meta");
        prop_assert_eq!(pfs_after.1 - pfs_before.1, 1, "one PFS read");
        prop_assert_eq!(client.metrics().full_snapshot().batch_fallbacks, 0);
    }

    #[test]
    fn normalize_is_idempotent(path in arb_path()) {
        let once = normalize(&path);
        prop_assert_eq!(normalize(&once), once.clone());
    }

    #[test]
    fn matcher_accepts_children_rejects_siblings(
        root in "[a-z]{1,10}/[a-z]{1,10}",
        child in "[a-z0-9]{1,12}",
    ) {
        let m = DatasetMatcher::new(format!("/{root}"));
        let inside = format!("/{root}/{child}");
        let sibling = format!("/{root}sibling/{child}");
        let elsewhere = format!("/other/{child}");
        prop_assert!(m.matches(&inside));
        prop_assert!(!m.matches(&sibling));
        prop_assert!(!m.matches(&elsewhere));
    }
}

#[test]
fn matcher_handles_exact_root() {
    let m = DatasetMatcher::new("/data/set");
    assert!(m.matches(Path::new("/data/set")));
}
