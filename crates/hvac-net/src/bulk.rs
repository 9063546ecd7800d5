//! Chunked bulk transfer.
//!
//! Mercury separates RPC metadata from bulk data and moves the latter in
//! RDMA-sized pieces. The client tiles a large read into chunk ranges, one
//! RPC each, and reassembles the replies in offset order, so transfer
//! accounting (and the simulator's network model) see the same message
//! sizes a real deployment would.

use crate::pool::BufferPool;
use bytes::Bytes;
use std::ops::Range;

/// Default bulk chunk size (1 MiB, a typical RDMA registration unit).
pub const BULK_CHUNK_SIZE: usize = 1 << 20;

/// Tile `len` bytes into consecutive ranges of at most `chunk_size` bytes,
/// relative to the start of the read (callers add its offset). `len == 0`
/// yields no ranges.
pub fn chunk_ranges(len: usize, chunk_size: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(chunk_size > 0, "chunk size must be positive");
    (0..len)
        .step_by(chunk_size)
        .map(move |start| start..len.min(start.saturating_add(chunk_size)))
}

/// Reassemble chunks into one contiguous payload in a pooled buffer: the
/// destination slab comes from (and returns to) `pool` instead of a
/// per-read heap allocation, so a multi-chunk read costs one slab reuse
/// rather than an allocator round trip. Single-chunk and empty inputs stay
/// zero-copy.
pub fn reassemble_bulk_pooled(chunks: &[Bytes], pool: &BufferPool) -> Bytes {
    match chunks {
        [] => Bytes::new(),
        [one] => one.clone(),
        many => {
            let total: usize = many.iter().map(|c| c.len()).sum();
            let mut out = pool.acquire(total);
            let mut at = 0usize;
            for c in many {
                out[at..at + c.len()].copy_from_slice(c);
                at += c.len();
            }
            out.freeze()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices(payload: &Bytes, chunk_size: usize) -> Vec<Bytes> {
        chunk_ranges(payload.len(), chunk_size)
            .map(|r| payload.slice(r))
            .collect()
    }

    #[test]
    fn chunking_round_trips() {
        let pool = BufferPool::new();
        let payload = Bytes::from(
            (0..10_000u32)
                .flat_map(|x| x.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        for chunk_size in [1usize, 7, 1024, BULK_CHUNK_SIZE, usize::MAX / 2] {
            let chunks = slices(&payload, chunk_size);
            assert!(chunks
                .iter()
                .all(|c| !c.is_empty() && c.len() <= chunk_size));
            assert_eq!(
                reassemble_bulk_pooled(&chunks, &pool),
                payload,
                "chunk={chunk_size}"
            );
        }
    }

    #[test]
    fn chunk_count_and_sizes() {
        let ranges: Vec<_> = chunk_ranges(2_500_000, BULK_CHUNK_SIZE).collect();
        assert_eq!(
            ranges,
            [
                0..BULK_CHUNK_SIZE,
                BULK_CHUNK_SIZE..2 * BULK_CHUNK_SIZE,
                2 * BULK_CHUNK_SIZE..2_500_000,
            ]
        );
    }

    #[test]
    fn empty_payload() {
        let pool = BufferPool::new();
        assert_eq!(chunk_ranges(0, 64).count(), 0);
        assert_eq!(reassemble_bulk_pooled(&[], &pool), Bytes::new());
        assert_eq!(pool.stats().acquires, 0, "nothing to reassemble, no slab");
    }

    #[test]
    fn single_chunk_is_zero_copy() {
        let pool = BufferPool::new();
        let payload = Bytes::from_static(b"hello");
        let chunks = slices(&payload, 64);
        assert_eq!(chunks.len(), 1);
        // Same backing storage: slice of the original.
        assert_eq!(chunks[0].as_ptr(), payload.as_ptr());
        let joined = reassemble_bulk_pooled(&chunks, &pool);
        assert_eq!(joined.as_ptr(), payload.as_ptr());
        assert_eq!(pool.stats().acquires, 0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = chunk_ranges(1, 0);
    }

    #[test]
    fn pooled_reassembly_matches_unpooled_and_quiesces() {
        let pool = BufferPool::new();
        let payload = Bytes::from((0..50_000u32).map(|x| x as u8).collect::<Vec<u8>>());
        for chunk_size in [1usize, 977, 4096, usize::MAX / 2] {
            let chunks = slices(&payload, chunk_size);
            let pooled = reassemble_bulk_pooled(&chunks, &pool);
            // Oracle: a plain, unpooled concatenation.
            let concatenated: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(pooled, concatenated, "chunk={chunk_size}");
            if chunks.len() == 1 {
                assert_eq!(pooled.as_ptr(), payload.as_ptr(), "single chunk zero-copy");
            }
        }
        assert_eq!(pool.stats().in_flight(), 0);
        assert!(pool.stats().pool_hits > 0, "slabs were reused across reads");
    }
}
