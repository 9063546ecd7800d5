//! Property tests for the zero-copy data plane's pure parts: the slab
//! buffer pool (refcount/return invariants, poisoning, quiescence,
//! concurrent acquire/release) and the read planner + batch codec (exact
//! tiling, destination purity, framing round-trips).

use bytes::{Bytes, BytesMut};
use hvac_net::framing;
use hvac_net::plan::{coalesce_plan, decode_batch_items, encode_batch_items, BatchItem};
use hvac_net::pool::{BufferPool, POISON_BYTE, SLAB_CLASSES};
use proptest::prelude::*;

/// Deterministic fill pattern so every buffer's bytes witness its identity.
fn pattern(tag: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag as usize ^ (i * 131)) as u8).collect()
}

proptest! {
    /// Arbitrary acquire/freeze/clone/drop interleavings: every frozen
    /// buffer keeps its exact bytes (shared slabs are never recycled while
    /// referenced), and once everything drops the pool is quiescent — each
    /// slab came home exactly once (no leak, no double return).
    #[test]
    fn pool_refcounts_and_quiesces(
        sizes in proptest::collection::vec(0usize..40_000, 1..24),
        clones in proptest::collection::vec(0usize..4, 1..24),
        drop_order in proptest::collection::vec(any::<u16>(), 1..24),
    ) {
        let pool = BufferPool::new();
        let mut held: Vec<(u64, Vec<Bytes>)> = Vec::new();
        for (tag, &len) in sizes.iter().enumerate() {
            let tag = tag as u64;
            let fill = pattern(tag, len);
            let frozen = pool.bytes_from_slice(&fill);
            prop_assert_eq!(&frozen[..], &fill[..]);
            let n = clones[tag as usize % clones.len()];
            let copies = std::iter::repeat_with(|| frozen.clone()).take(n).collect();
            held.push((tag, copies));
            held.push((tag, vec![frozen]));
        }
        // Drop groups in an arbitrary order, re-verifying survivors after
        // every drop: a premature slab reuse would corrupt one of them.
        let mut order: Vec<usize> = (0..held.len()).collect();
        let n = order.len();
        for (i, &r) in drop_order.iter().enumerate() {
            order.swap(i % n, r as usize % n);
        }
        for &victim in &order {
            held[victim].1.clear();
            for (tag, copies) in &held {
                for b in copies {
                    prop_assert_eq!(&b[..], &pattern(*tag, b.len())[..]);
                }
            }
        }
        drop(held);
        let s = pool.stats();
        prop_assert_eq!(s.in_flight(), 0, "pool not quiescent: {:?}", s);
        prop_assert_eq!(s.acquires, s.returns + s.overflow_frees);
        prop_assert_eq!(s.acquires, s.pool_hits + s.fresh_allocs);
        // Parked slabs are exactly the returns that were never re-issued.
        prop_assert_eq!(pool.free_slabs() as u64, s.returns - s.pool_hits);
    }

    /// A recycled slab arrives poisoned in debug builds: stale bytes from
    /// the previous owner are never observable.
    #[test]
    fn recycled_slabs_are_poisoned(len in 1usize..70_000) {
        let pool = BufferPool::new();
        let mut first = pool.acquire(len);
        first[..].fill(0xAA);
        drop(first);
        let second = pool.acquire(len);
        prop_assert_eq!(pool.stats().pool_hits, 1, "same class must reuse the slab");
        if cfg!(debug_assertions) {
            prop_assert!(
                second[..].iter().all(|&b| b == POISON_BYTE),
                "recycled slab leaked previous contents"
            );
        }
    }

    /// Oversize requests (beyond the largest class) are served unpooled
    /// and never touch the ledger's pooled counters.
    #[test]
    fn oversize_requests_bypass_the_pool(extra in 1usize..4096) {
        let pool = BufferPool::new();
        let len = SLAB_CLASSES[SLAB_CLASSES.len() - 1] + extra;
        let buf = pool.acquire(len);
        prop_assert_eq!(buf.len(), len);
        drop(buf);
        let s = pool.stats();
        prop_assert_eq!(s.oversize, 1);
        prop_assert_eq!(s.acquires, 0);
        prop_assert_eq!(pool.free_slabs(), 0);
    }

    /// For arbitrary requests and placement maps the plan exactly tiles
    /// `[offset, offset+len)`: no gap, no overlap, ascending, every entry
    /// destination-pure, segment bookkeeping consistent, and maximal —
    /// two adjacent entries that could have merged under the cap never
    /// both survive.
    #[test]
    fn coalesce_plan_exactly_tiles(
        offset in 0u64..10_000,
        len in 0u64..50_000,
        segment_size in 1u64..4_096,
        cap in 0u64..20_000,
        dests in proptest::collection::vec(0u8..5, 1..32),
    ) {
        let dest_of = |seg: u64| dests[(seg % dests.len() as u64) as usize];
        let plan = coalesce_plan(offset, len, segment_size, cap, dest_of);
        if len == 0 {
            prop_assert!(plan.is_empty());
            return Ok(());
        }
        let mut at = offset;
        for e in &plan {
            prop_assert_eq!(e.offset, at, "gap or overlap");
            prop_assert!(e.len > 0);
            // Segment bookkeeping matches the byte range.
            prop_assert_eq!(e.first_seg, e.offset / segment_size);
            prop_assert_eq!(e.last_seg, (e.offset + e.len - 1) / segment_size);
            // Destination purity: every merged segment maps to `dest`.
            for seg in e.first_seg..=e.last_seg {
                prop_assert_eq!(dest_of(seg), e.dest, "cross-destination merge");
            }
            // A multi-segment entry respects the cap.
            if e.first_seg != e.last_seg {
                prop_assert!(e.len <= cap, "merged range exceeds the cap");
            }
            at += e.len;
        }
        prop_assert_eq!(at, offset + len, "plan does not cover the request");
        for w in plan.windows(2) {
            let mergeable = w[0].dest == w[1].dest
                && w[0].offset + w[0].len == w[1].offset
                && w[1].first_seg > w[0].last_seg
                && w[0].len + (w[1].offset + w[1].len).min((w[1].first_seg + 1) * segment_size)
                    - w[1].offset
                    <= cap;
            prop_assert!(!mergeable, "missed merge between adjacent same-dest entries");
        }
    }

    /// The batch payload codec round-trips arbitrary item lists — paths
    /// stay with their items (no cross-file mixing) — and survives the
    /// full wire path: batch payload → request frame → decoded payload.
    #[test]
    fn batch_items_round_trip_through_framing(
        items in proptest::collection::vec(
            ("[^\\u{0}]{0,40}", any::<u64>(), any::<u64>())
                .prop_map(|(path, offset, len)| BatchItem { path, offset, len }),
            0..32,
        ),
        req_id in any::<u64>(),
    ) {
        let mut payload = BytesMut::new();
        encode_batch_items(&mut payload, &items).unwrap();
        let wire_bytes = framing::encode_request(req_id, &payload, framing::DEFAULT_MAX_FRAME).unwrap();
        let mut cursor = &wire_bytes[..];
        let body = framing::read_frame(&mut cursor, framing::DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        let decoded = framing::decode_request(body).unwrap();
        prop_assert_eq!(decoded.req_id, req_id);
        let mut buf = decoded.payload;
        prop_assert_eq!(decode_batch_items(&mut buf).unwrap(), items);
        prop_assert_eq!(bytes::Buf::remaining(&buf), 0, "codec left trailing bytes");
    }
}

/// Sixteen threads hammer one pool with acquire/fill/freeze/verify/release
/// cycles across every size class: bytes never cross threads and the pool
/// is quiescent at the end.
#[test]
fn sixteen_threads_share_one_pool_without_corruption() {
    const THREADS: u64 = 16;
    const OPS: u64 = 300;
    let pool = BufferPool::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut live: Vec<(u64, Bytes)> = Vec::new();
                    for op in 0..OPS {
                        let tag = (t << 32) | op;
                        // Sizes sweep the small classes plus odd lengths.
                        let len = ((tag.wrapping_mul(0x9E37_79B9)) % 9000) as usize;
                        let fill = pattern(tag, len);
                        live.push((tag, pool.bytes_from_slice(&fill)));
                        if live.len() > 8 {
                            let (old_tag, old) = live.remove((op % 8) as usize);
                            assert_eq!(&old[..], &pattern(old_tag, old.len())[..]);
                        }
                        for (tag, b) in &live {
                            assert_eq!(&b[..], &pattern(*tag, b.len())[..]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let s = pool.stats();
    assert_eq!(s.in_flight(), 0, "pool not quiescent after join: {s:?}");
    assert_eq!(s.acquires, s.returns + s.overflow_frees);
    assert_eq!(s.acquires, THREADS * OPS);
}
