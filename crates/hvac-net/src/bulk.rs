//! Chunked bulk transfer and gathered bulk payloads.
//!
//! Mercury separates RPC metadata from bulk data and moves the latter in
//! RDMA-sized pieces. The client tiles a large read into chunk ranges, one
//! RPC each, and reassembles the replies in offset order, so transfer
//! accounting (and the simulator's network model) see the same message
//! sizes a real deployment would. A reply's bulk is a [`Bulk`] gather list,
//! so a server hands out the `Bytes` it holds without joining them.

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

/// A reply's bulk payload as a gather list: its parts, in payload order.
///
/// The server never joins the parts. The socket transport writes them after
/// the frame prefix in vectored writes, and the loopback fabric hands them
/// to the caller as they are, so a served cache entry leaves the server
/// without a user-space copy. A reply decoded off a socket has one part,
/// its slice of the frame.
#[derive(Debug, Clone, Default)]
pub struct Bulk {
    parts: Vec<Bytes>,
}

impl Bulk {
    /// The parts, in payload order.
    pub fn parts(&self) -> &[Bytes] {
        &self.parts
    }

    /// Payload length: the sum of the parts.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Bytes::len).sum()
    }

    /// Whether the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Bytes::is_empty)
    }

    /// The payload copied into one `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for part in &self.parts {
            out.extend_from_slice(part);
        }
        out
    }

    /// Cut the payload into consecutive pieces of `lens` bytes, each a
    /// slice of one part — no copy. `None` unless the lengths add up to
    /// exactly the payload and no piece spans two parts; a batch reply
    /// meets both on either transport, as its parts are its items
    /// (loopback) or the whole payload (socket).
    pub fn split(&self, lens: impl IntoIterator<Item = usize>) -> Option<Vec<Bytes>> {
        let mut parts = self.parts.iter().filter(|p| !p.is_empty()).cloned();
        let mut cur = Bytes::new();
        let mut pieces = Vec::new();
        for len in lens {
            if cur.is_empty() && len > 0 {
                cur = parts.next()?;
            }
            if len > cur.len() {
                return None;
            }
            pieces.push(cur.split_to(len));
        }
        (cur.is_empty() && parts.next().is_none()).then_some(pieces)
    }
}

impl From<Bytes> for Bulk {
    fn from(part: Bytes) -> Self {
        Self { parts: vec![part] }
    }
}

impl From<Vec<Bytes>> for Bulk {
    fn from(parts: Vec<Bytes>) -> Self {
        Self { parts }
    }
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
    fn split_slices_pieces_out_of_the_parts() {
        let payload = Bytes::from((0..100u8).collect::<Vec<u8>>());
        // One part per item (loopback) and one part in all (socket): every
        // piece is a slice of a part, never a copy.
        let per_item = Bulk::from(vec![
            payload.slice(0..40),
            Bytes::new(),
            payload.slice(40..70),
            payload.slice(70..100),
        ]);
        let whole = Bulk::from(payload.clone());
        for bulk in [&per_item, &whole] {
            let pieces = bulk.split([40, 0, 30, 30]).unwrap();
            let want = [0..40, 40..40, 40..70, 70..100].map(|r| payload.slice(r));
            assert_eq!(pieces, want);
            assert_eq!(pieces[2].as_ptr(), payload[40..].as_ptr(), "a slice");
        }
        assert_eq!((per_item.len(), per_item.to_vec()), (100, payload.to_vec()));
        // Lengths that miss the payload, or a piece across two parts, are
        // refused.
        assert!(whole.split([40, 30]).is_none());
        assert!(whole.split([40, 61]).is_none());
        assert!(per_item.split([50, 50]).is_none());
        assert_eq!(Bulk::default().split([]), Some(vec![]));
        assert!(Bulk::default().is_empty());
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
