//! Read planning: adjacent-segment coalescing and per-destination batching.
//!
//! A segmented read asks for fixed-size segments, each placed independently
//! by its segment hash; one small RPC per segment would be the naive plan.
//! FanStore's observation is
//! that small-request overhead, not bandwidth, dominates distributed DL
//! reads — so the client first *plans* the request:
//!
//! 1. [`coalesce_plan`] walks the request's segments in offset order and
//!    merges runs of **adjacent** segments that hash to the **same
//!    destination** into one contiguous range (bounded by
//!    `max_coalesced_bytes`). The resulting entries exactly tile the
//!    request: no gap, no overlap, no reordering, and never a merge across
//!    destinations — so each entry is still a single-server read.
//! 2. The caller groups entries per destination (order preserved) and
//!    ships each group as **one** batch RPC through the
//!    [`sq`](crate::sq) dispatch pool, using the
//!    [`encode_batch_items`]/[`decode_batch_items`] payload codec below
//!    (which rides inside the ordinary request framing of
//!    [`framing`](crate::framing)).
//!
//! Planning is pure computation over offsets — no I/O, no locks — which is
//! what makes it property-testable: for arbitrary segment maps the plan
//! must tile the request exactly and the codec must round-trip.

use bytes::{Bytes, BytesMut};
use hvac_types::{HvacError, Result};

use crate::wire;

/// One coalesced read range: `len` bytes at `offset`, covering segments
/// `first_seg ..= last_seg` of the file, all of which place on `dest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry<D> {
    /// Destination every merged segment hashes to.
    pub dest: D,
    /// Byte offset of the range start (within the file).
    pub offset: u64,
    /// Range length in bytes.
    pub len: u64,
    /// Index of the first segment merged into this range.
    pub first_seg: u64,
    /// Index of the last segment merged into this range (inclusive).
    pub last_seg: u64,
}

/// Plan a segmented read of `len` bytes at `offset` in a file whose
/// segments are `segment_size` bytes: merge adjacent same-destination
/// segments into contiguous ranges of at most `max_coalesced_bytes`.
///
/// `dest_of(seg_index)` is the placement oracle (typically "home server of
/// segment `i` under the current view"). The returned entries are in
/// strictly ascending offset order and exactly tile `[offset,
/// offset+len)`; a `max_coalesced_bytes` of zero (or anything smaller than
/// one segment) disables merging rather than producing empty ranges.
///
/// `len == 0` yields an empty plan. Panics if `segment_size` is zero or the
/// range end overflows `u64` (the caller validates its options, mirroring
/// [`chunk_ranges`](crate::bulk::chunk_ranges)).
pub fn coalesce_plan<D, F>(
    offset: u64,
    len: u64,
    segment_size: u64,
    max_coalesced_bytes: u64,
    dest_of: F,
) -> Vec<PlanEntry<D>>
where
    D: PartialEq,
    F: Fn(u64) -> D,
{
    assert!(segment_size > 0, "segment size must be positive");
    let mut entries: Vec<PlanEntry<D>> = Vec::new();
    if len == 0 {
        return entries;
    }
    assert!(
        offset.checked_add(len).is_some(),
        "read range end overflows u64"
    );
    let end = offset + len;
    let mut at = offset;
    while at < end {
        let seg = at / segment_size;
        // A range never crosses a segment boundary unless it is merged, so
        // each iteration covers the remainder of exactly one segment.
        let seg_end = (seg + 1).saturating_mul(segment_size).min(end);
        let piece = seg_end - at;
        let dest = dest_of(seg);
        match entries.last_mut() {
            Some(prev)
                if prev.dest == dest
                    && prev.offset + prev.len == at
                    && prev.len + piece <= max_coalesced_bytes =>
            {
                prev.len += piece;
                prev.last_seg = seg;
            }
            _ => entries.push(PlanEntry {
                dest,
                offset: at,
                len: piece,
                first_seg: seg,
                last_seg: seg,
            }),
        }
        at = seg_end;
    }
    entries
}

/// One read in a batch RPC: `len` bytes at `offset` of `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// Application-space file path. The server caches the item's range
    /// under a key of this path, the tenant, the offset and the length.
    pub path: String,
    /// Byte offset within the file.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
}

/// Sanity cap on a decoded batch's item count: far above any real batch
/// (clients cap batches at tens of items) but small enough that a hostile
/// count can't size a meaningful allocation.
pub const MAX_BATCH_ITEMS: usize = 65_536;

/// Encode a batch of read items as a length-prefixed payload:
/// `[count u32][item: path, offset u64, len u64]*`. The payload rides
/// inside the ordinary request framing — batching changes how many reads
/// share one frame, not the frame format.
pub fn encode_batch_items(buf: &mut BytesMut, items: &[BatchItem]) -> Result<()> {
    let count = u32::try_from(items.len()).map_err(|_| {
        HvacError::Protocol(format!("batch of {} items exceeds u32 count", items.len()))
    })?;
    if items.len() > MAX_BATCH_ITEMS {
        return Err(HvacError::Protocol(format!(
            "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item cap",
            items.len()
        )));
    }
    use bytes::BufMut;
    buf.put_u32_le(count);
    for item in items {
        wire::put_str(buf, &item.path)?;
        buf.put_u64_le(item.offset);
        buf.put_u64_le(item.len);
    }
    Ok(())
}

/// Decode a batch payload produced by [`encode_batch_items`]. Bounded:
/// the item count is validated against [`MAX_BATCH_ITEMS`] before any
/// allocation is sized from it.
pub fn decode_batch_items(buf: &mut Bytes) -> Result<Vec<BatchItem>> {
    let count = wire::get_u32(buf)? as usize;
    if count > MAX_BATCH_ITEMS {
        return Err(HvacError::Protocol(format!(
            "batch count {count} exceeds the {MAX_BATCH_ITEMS}-item cap"
        )));
    }
    let mut items = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let path = wire::get_str(buf)?;
        let offset = wire::get_u64(buf)?;
        let len = wire::get_u64(buf)?;
        items.push(BatchItem { path, offset, len });
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles<D: PartialEq + std::fmt::Debug>(plan: &[PlanEntry<D>], offset: u64, len: u64) {
        if len == 0 {
            assert!(plan.is_empty());
            return;
        }
        let mut at = offset;
        for e in plan {
            assert_eq!(e.offset, at, "gap or overlap at {at}");
            assert!(e.len > 0, "empty range");
            at += e.len;
        }
        assert_eq!(at, offset + len, "plan does not cover the request");
    }

    #[test]
    fn uniform_destination_merges_up_to_the_cap() {
        // 10 segments of 100 B, all on one server, cap 350 B → ranges of
        // 3+ segments: 300,300,300,100.
        let plan = coalesce_plan(0, 1000, 100, 350, |_| 0u32);
        assert_tiles(&plan, 0, 1000);
        let lens: Vec<u64> = plan.iter().map(|e| e.len).collect();
        assert_eq!(lens, vec![300, 300, 300, 100]);
        assert_eq!((plan[0].first_seg, plan[0].last_seg), (0, 2));
    }

    #[test]
    fn never_merges_across_destinations() {
        // Alternating homes: nothing can merge.
        let plan = coalesce_plan(0, 800, 100, u64::MAX, |seg| seg % 2);
        assert_tiles(&plan, 0, 800);
        assert_eq!(plan.len(), 8);
    }

    #[test]
    fn zero_cap_disables_merging() {
        let plan = coalesce_plan(0, 500, 100, 0, |_| 0u32);
        assert_tiles(&plan, 0, 500);
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn unaligned_offset_and_tail_are_partial_segments() {
        // Read [150, 460) of a 100 B-segment file on one home: pieces are
        // 50 (rest of seg 1), 100, 100, 60 — merged into one range when
        // the cap allows.
        let plan = coalesce_plan(150, 310, 100, u64::MAX, |_| 0u32);
        assert_tiles(&plan, 150, 310);
        assert_eq!(plan.len(), 1);
        assert_eq!((plan[0].first_seg, plan[0].last_seg), (1, 4));
        let unmerged = coalesce_plan(150, 310, 100, 1, |_| 0u32);
        assert_tiles(&unmerged, 150, 310);
        assert_eq!(unmerged.len(), 4);
        assert_eq!(unmerged[0].len, 50);
        assert_eq!(unmerged[3].len, 60);
    }

    #[test]
    fn empty_read_is_an_empty_plan() {
        assert!(coalesce_plan(500, 0, 100, 1000, |_| 0u32).is_empty());
    }

    #[test]
    fn batch_codec_round_trips() {
        let items = vec![
            BatchItem {
                path: "/gpfs/train/a.bin".into(),
                offset: 0,
                len: 4096,
            },
            BatchItem {
                path: "/gpfs/train/b.bin".into(),
                offset: u64::MAX - 7,
                len: 7,
            },
        ];
        let mut buf = BytesMut::new();
        encode_batch_items(&mut buf, &items).unwrap();
        let mut payload = buf.freeze();
        assert_eq!(decode_batch_items(&mut payload).unwrap(), items);
        assert_eq!(payload.len(), 0, "codec consumed exactly its payload");
    }

    #[test]
    fn hostile_batch_count_is_rejected_before_allocating() {
        use bytes::BufMut;
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_batch_items(&mut buf.freeze()),
            Err(HvacError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_batch_is_a_protocol_error() {
        let items = vec![BatchItem {
            path: "/p".into(),
            offset: 9,
            len: 9,
        }];
        let mut buf = BytesMut::new();
        encode_batch_items(&mut buf, &items).unwrap();
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut prefix = full.slice(0..cut);
            if cut < 4 {
                assert!(decode_batch_items(&mut prefix).is_err(), "cut={cut}");
            } else {
                // Count decoded but the item is truncated.
                assert!(decode_batch_items(&mut prefix).is_err(), "cut={cut}");
            }
        }
    }
}
