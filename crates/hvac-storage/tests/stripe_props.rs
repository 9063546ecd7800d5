//! Property test: lock striping is an *implementation* detail.
//!
//! For any sequence of store operations over any path set, a store with N
//! shards must be observationally identical to the single-shard (old
//! single-global-lock) store: same per-op results, same residency, same
//! bytes, same accounting. Striping may only change *who contends*, never
//! *what the store contains*.

use bytes::Bytes;
use hvac_pfs::store::slice_read_at;
use hvac_storage::LocalStore;
use hvac_types::{ByteSize, HvacError};
use proptest::prelude::*;
use std::path::PathBuf;

#[derive(Debug, Clone)]
enum Op {
    Insert { path: u8, len: u8 },
    Remove { path: u8 },
    Purge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted 8:3:1 insert/remove/purge via a selector byte (the vendored
    // proptest's `prop_oneof!` is uniform-only).
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(sel, path, len)| match sel % 12 {
        0..=7 => Op::Insert {
            path: path % 24,
            len,
        },
        8..=10 => Op::Remove { path: path % 24 },
        _ => Op::Purge,
    })
}

fn path_of(idx: u8) -> PathBuf {
    PathBuf::from(format!("/gpfs/props/sample_{idx:04}.bin"))
}

/// Deterministic per-(path, len) content so a get() comparison is
/// meaningful, not just a length check.
fn content(path: u8, len: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| i.wrapping_mul(31) ^ path)
            .collect::<Vec<u8>>(),
    )
}

fn observable_state(store: &LocalStore) -> (usize, u64, Vec<(PathBuf, Option<Bytes>)>) {
    let mut paths = store.resident_paths();
    paths.sort();
    let entries = paths
        .into_iter()
        .map(|p| {
            let data = store.get(&p);
            (p, data)
        })
        .collect();
    (store.len(), store.used().bytes(), entries)
}

proptest! {
    #[test]
    fn striped_store_is_observationally_single_shard(
        ops in proptest::collection::vec(op_strategy(), 0..64),
        shards in 1usize..33,
        capacity in 0u64..2048,
    ) {
        let reference = LocalStore::in_memory_striped(ByteSize(capacity), 1);
        let striped = LocalStore::in_memory_striped(ByteSize(capacity), shards);
        prop_assert_eq!(reference.shard_count(), 1);

        for op in &ops {
            match op {
                Op::Insert { path, len } => {
                    let p = path_of(*path);
                    let data = content(*path, *len);
                    let a = reference.insert(&p, data.clone());
                    let b = striped.insert(&p, data);
                    // Same outcome, including the CapacityExhausted cases.
                    match (&a, &b) {
                        (Ok(()), Ok(())) => {}
                        (
                            Err(HvacError::CapacityExhausted { .. }),
                            Err(HvacError::CapacityExhausted { .. }),
                        ) => {}
                        other => prop_assert!(false, "diverged on insert: {other:?}"),
                    }
                }
                Op::Remove { path } => {
                    let p = path_of(*path);
                    prop_assert_eq!(reference.remove(&p), striped.remove(&p));
                }
                Op::Purge => {
                    reference.purge();
                    striped.purge();
                }
            }
            // Accounting tracks in lockstep after every op.
            prop_assert_eq!(reference.used(), striped.used());
            prop_assert_eq!(reference.len(), striped.len());
        }

        // Full observable state (residency, contents, sizes) is identical.
        prop_assert_eq!(observable_state(&reference), observable_state(&striped));
        for idx in 0..24u8 {
            let p = path_of(idx);
            prop_assert_eq!(reference.contains(&p), striped.contains(&p));
            prop_assert_eq!(reference.size_of(&p), striped.size_of(&p));
            let range = |s: &LocalStore| s.get(&p).map(|d| slice_read_at(&d, 3, 5));
            prop_assert_eq!(range(&reference), range(&striped));
        }
        prop_assert!(striped.used().bytes() <= capacity);
    }
}
