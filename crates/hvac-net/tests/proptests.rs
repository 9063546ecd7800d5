//! Property-based tests for the RPC substrate: codec totality, bulk
//! chunking round-trips, and fabric behaviour under arbitrary payloads.
//! Chunked reads end to end are property-tested against a loopback
//! cluster in `hvac-core`'s proptests.

use bytes::{Bytes, BytesMut};
use hvac_net::bulk::{chunk_ranges, reassemble_bulk_pooled, Bulk};
use hvac_net::fabric::{Fabric, Reply, RpcHandler};
use hvac_net::framing;
use hvac_net::pool::BufferPool;
use hvac_net::wire;
use hvac_types::HvacError;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #[test]
    fn wire_strings_round_trip(strings in proptest::collection::vec("[^\\u{0}]{0,64}", 0..8)) {
        let mut b = BytesMut::new();
        for s in &strings {
            wire::put_str(&mut b, s).unwrap();
        }
        let mut r = b.freeze();
        for s in &strings {
            prop_assert_eq!(&wire::get_str(&mut r).unwrap(), s);
        }
        prop_assert_eq!(bytes::Buf::remaining(&r), 0);
    }

    #[test]
    fn wire_blobs_round_trip(blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..8)) {
        let mut b = BytesMut::new();
        for blob in &blobs {
            wire::put_blob(&mut b, blob).unwrap();
        }
        let mut r = b.freeze();
        for blob in &blobs {
            prop_assert_eq!(&wire::get_blob(&mut r).unwrap()[..], &blob[..]);
        }
    }

    #[test]
    fn wire_readers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let b = Bytes::from(bytes);
        let _ = wire::get_str(&mut b.clone());
        let _ = wire::get_blob(&mut b.clone());
        let _ = wire::get_u8(&mut b.clone());
        let _ = wire::get_u32(&mut b.clone());
        let _ = wire::get_u64(&mut b.clone());
        let _ = wire::get_i64(&mut b.clone());
    }

    #[test]
    fn bulk_chunking_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..10_000), chunk in 1usize..4096) {
        let payload = Bytes::from(payload);
        let chunks: Vec<Bytes> = chunk_ranges(payload.len(), chunk)
            .map(|r| payload.slice(r))
            .collect();
        // Every chunk respects the size bound...
        for c in &chunks {
            prop_assert!(c.len() <= chunk);
            prop_assert!(!c.is_empty());
        }
        // ...the count is exact...
        prop_assert_eq!(chunks.len(), payload.len().div_ceil(chunk));
        // ...and reassembly is lossless.
        prop_assert_eq!(reassemble_bulk_pooled(&chunks, &BufferPool::new()), payload);
    }

    #[test]
    fn framing_request_round_trips(
        req_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let wire_bytes = framing::encode_request(req_id, &payload, framing::DEFAULT_MAX_FRAME).unwrap();
        let mut cursor = &wire_bytes[..];
        let body = framing::read_frame(&mut cursor, framing::DEFAULT_MAX_FRAME).unwrap().unwrap();
        let decoded = framing::decode_request(body).unwrap();
        prop_assert_eq!(decoded.req_id, req_id);
        prop_assert_eq!(decoded.payload.as_ref(), &payload[..]);
        // Clean EOF after the frame, not an error.
        prop_assert!(framing::read_frame(&mut cursor, framing::DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn framing_reply_round_trips(
        req_id in any::<u64>(),
        header in proptest::collection::vec(any::<u8>(), 0..1024),
        has_bulk in any::<bool>(),
        bulk_body in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        // Split the bulk into parts at random cut points (empty parts
        // included): the server sends whatever gather list it holds.
        let whole = Bytes::from(bulk_body.clone());
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % (whole.len() + 1)).collect();
        cuts.push(whole.len());
        cuts.sort_unstable();
        let mut at = 0;
        let parts: Vec<Bytes> = cuts.iter().map(|&end| {
            let part = whole.slice(at..end);
            at = end;
            part
        }).collect();
        let bulk = if has_bulk { Some(bulk_body) } else { None };
        let reply = Reply {
            header: Bytes::from(header.clone()),
            bulk: has_bulk.then(|| Bulk::from(parts)),
        };
        let wire_bytes = framing::encode_reply(req_id, &reply, framing::DEFAULT_MAX_FRAME).unwrap();
        // The gathered writer puts exactly the reference encoding on the
        // wire.
        let mut gathered = Vec::new();
        framing::write_reply(&mut gathered, req_id, &reply, framing::DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!(&gathered, &wire_bytes);
        let mut cursor = &gathered[..];
        let body = framing::read_frame(&mut cursor, framing::DEFAULT_MAX_FRAME).unwrap().unwrap();
        let decoded = framing::decode_reply(body).unwrap();
        prop_assert_eq!(decoded.req_id, req_id);
        prop_assert_eq!(decoded.reply.header.as_ref(), &header[..]);
        prop_assert_eq!(decoded.reply.bulk.map(|b| b.to_vec()), bulk);
    }

    #[test]
    fn truncated_frames_are_protocol_errors_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cut_fraction in 0.0f64..1.0,
    ) {
        // Every strict prefix of a valid frame must decode to a typed
        // Protocol error (mid-frame EOF), never a panic or a bogus frame.
        let frame = framing::encode_request(9, &payload, framing::DEFAULT_MAX_FRAME).unwrap();
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < frame.len());
        if cut == 0 {
            // Zero bytes is a clean EOF at a frame boundary, not an error.
            let mut cursor = &frame[..0];
            prop_assert!(framing::read_frame(&mut cursor, framing::DEFAULT_MAX_FRAME).unwrap().is_none());
        } else {
            let mut cursor = &frame[..cut];
            let err = framing::read_frame(&mut cursor, framing::DEFAULT_MAX_FRAME).unwrap_err();
            prop_assert!(matches!(err, HvacError::Protocol(_)), "{}", err);
        }
    }

    #[test]
    fn garbage_frames_never_panic_and_never_overallocate(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary bytes through the frame reader: any outcome but a panic
        // or an unbounded allocation is acceptable, and the tiny max_frame
        // bounds what a hostile length prefix can make us allocate.
        let mut cursor = &garbage[..];
        let _ = framing::read_frame(&mut cursor, 1024);
        // Arbitrary bytes as a frame *body* through both decoders.
        let _ = framing::decode_request(Bytes::from(garbage.clone()));
        let _ = framing::decode_reply(Bytes::from(garbage));
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_before_allocation(
        len in any::<u32>(),
        kind_ok in any::<bool>(),
    ) {
        // A header advertising up to 4 GiB of body on a 64 KiB cap must be
        // refused without allocating the advertised length.
        let cap = 64 * 1024;
        prop_assume!(len as usize > cap);
        let magic = if kind_ok { framing::FRAME_MAGIC } else { 0xDEAD_BEEF };
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&magic.to_le_bytes());
        hdr.extend_from_slice(&len.to_le_bytes());
        let mut cursor = &hdr[..];
        let err = framing::read_frame(&mut cursor, cap).unwrap_err();
        prop_assert!(matches!(err, HvacError::Protocol(_)), "{}", err);
    }

    #[test]
    fn fabric_echoes_arbitrary_payloads(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let fabric = Arc::new(Fabric::new());
        let handler: Arc<dyn RpcHandler> = Arc::new(|req: Bytes| Reply {
            bulk: Some(Bulk::from(req.clone())),
            header: req,
        });
        let _ep = fabric.serve("echo", handler).unwrap();
        let msg = Bytes::from(payload);
        let reply = fabric.call("echo", msg.clone()).unwrap();
        prop_assert_eq!(reply.header, msg.clone());
        prop_assert_eq!(reply.bulk.unwrap().to_vec(), msg.to_vec());
    }
}
