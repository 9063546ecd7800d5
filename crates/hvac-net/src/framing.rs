//! Length-prefixed framing for the socket transport.
//!
//! Every message on a stream socket is one *frame*:
//!
//! ```text
//! [magic u32 LE = "HVAC"] [len u32 LE] [body: len bytes]
//! ```
//!
//! The body reuses the existing `hvac-net::wire` conventions (little-endian
//! integers, `u32` length prefixes) and comes in two shapes:
//!
//! * **request** — `[kind u8 = 1][req_id u64][deadline_ms u32][payload…]`.
//!   The reply echoes `req_id`, and the caller checks it against the
//!   request it sent; `deadline_ms` carries the caller's remaining per-call
//!   budget at send time. The tenant rides inside the payload (the protocol
//!   layer's `JOB_FLAG`), not in the frame.
//! * **reply** — `[kind u8 = 2][req_id u64][flags u8][hdr_len u32][header…]
//!   [bulk…]`. Bit 0 of `flags` says whether a bulk payload follows the
//!   header — the same header/bulk split the loopback [`Reply`] models
//!   (Mercury's RPC-argument vs. bulk-transfer separation). The server
//!   sends a reply as its prefix (everything up to the header's end) plus
//!   the bulk's parts in vectored writes ([`write_reply`]), so the bulk is
//!   never copied into a frame buffer; the bytes on the wire are the same
//!   as [`encode_reply`]'s.
//!
//! The decoder is strictly *bounded-allocation*: the frame length is
//! validated against both the magic and the configured `max_frame` cap
//! **before** any buffer is sized from it, so truncated, oversized, or
//! garbage input yields a typed [`HvacError::Protocol`] (or a clean
//! end-of-stream `None`) — never a panic or an attacker-sized allocation.

use crate::bulk::Bulk;
use crate::fabric::Reply;
use crate::pool::BufferPool;
use bytes::{Buf, Bytes};
use hvac_types::{HvacError, Result};
use std::io::{IoSlice, Read, Write};

/// Frame magic: `"HVAC"` in ASCII, read as a little-endian `u32`.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"HVAC");

/// Default cap on one frame's body. Bulk replies are chunked well below
/// this by the client's `bulk_chunk` (1 MiB by default), so the cap only
/// guards against corrupt or hostile length prefixes.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
// Kind 3 was a tenant-stamped request that no sender produced; retired,
// never reuse it.
const FLAG_HAS_BULK: u8 = 1;

/// A decoded request frame body.
#[derive(Debug)]
pub struct RequestFrame {
    /// Id the reply echoes, so a caller can match it to its request.
    pub req_id: u64,
    /// Remaining per-call deadline at send time, in milliseconds
    /// (saturated).
    pub deadline_ms: u32,
    /// The opaque RPC payload (the protocol layer's encoded `Request`).
    pub payload: Bytes,
}

/// A decoded reply frame body.
#[derive(Debug)]
pub struct ReplyFrame {
    /// Id of the request this answers.
    pub req_id: u64,
    /// Header + optional bulk, exactly as the loopback fabric delivers it.
    pub reply: Reply,
}

fn check_body_len(len: usize, max_frame: usize) -> Result<()> {
    if len > max_frame || len > u32::MAX as usize {
        return Err(HvacError::Protocol(format!(
            "frame body of {len} bytes exceeds the {max_frame}-byte cap"
        )));
    }
    Ok(())
}

/// Frame up an opaque body: magic, length, body.
pub fn encode_frame(body: &[u8], max_frame: usize) -> Result<Vec<u8>> {
    check_body_len(body.len(), max_frame)?;
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    Ok(out)
}

/// Encode a request frame (header + body) ready to write to a stream.
pub fn encode_request(
    req_id: u64,
    deadline_ms: u32,
    payload: &[u8],
    max_frame: usize,
) -> Result<Vec<u8>> {
    let mut body = Vec::with_capacity(13 + payload.len());
    body.push(KIND_REQUEST);
    body.extend_from_slice(&req_id.to_le_bytes());
    body.extend_from_slice(&deadline_ms.to_le_bytes());
    body.extend_from_slice(payload);
    encode_frame(&body, max_frame)
}

/// The part of a reply frame before its bulk: magic, body length, kind,
/// request id, flags, header length and header. The whole frame, bulk
/// included, is checked against `max_frame` first.
fn reply_prefix(req_id: u64, reply: &Reply, max_frame: usize) -> Result<Vec<u8>> {
    let hdr_len = u32::try_from(reply.header.len()).map_err(|_| {
        HvacError::Protocol(format!(
            "reply header of {} bytes exceeds u32 wire prefix",
            reply.header.len()
        ))
    })?;
    let bulk_len = reply.bulk.as_ref().map_or(0, Bulk::len);
    let body_len = 14 + reply.header.len() + bulk_len;
    check_body_len(body_len, max_frame)?;
    let mut out = Vec::with_capacity(22 + reply.header.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(KIND_REPLY);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.push(if reply.bulk.is_some() {
        FLAG_HAS_BULK
    } else {
        0
    });
    out.extend_from_slice(&hdr_len.to_le_bytes());
    out.extend_from_slice(&reply.header);
    Ok(out)
}

/// The bulk parts of a reply, in payload order.
fn bulk_parts(reply: &Reply) -> &[Bytes] {
    reply.bulk.as_ref().map_or(&[], Bulk::parts)
}

/// Encode a reply frame into one contiguous buffer. The server does not use
/// it — [`write_reply`] sends the same bytes without joining them — but it
/// is the reference encoding the gathered writer is tested against.
pub fn encode_reply(req_id: u64, reply: &Reply, max_frame: usize) -> Result<Vec<u8>> {
    let mut out = reply_prefix(req_id, reply, max_frame)?;
    for part in bulk_parts(reply) {
        out.extend_from_slice(part);
    }
    Ok(out)
}

/// Write one reply frame to `w`: the frame prefix (magic through header)
/// followed by the bulk parts, gathered into vectored writes, so no bulk
/// byte is copied. A frame over `max_frame` is refused before anything is
/// written.
pub fn write_reply<W: Write>(
    w: &mut W,
    req_id: u64,
    reply: &Reply,
    max_frame: usize,
) -> Result<()> {
    let prefix = reply_prefix(req_id, reply, max_frame)?;
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(1 + bulk_parts(reply).len());
    bufs.push(&prefix);
    bufs.extend(bulk_parts(reply).iter().map(|part| &part[..]));
    write_all_vectored(w, &bufs)?;
    w.flush()?;
    Ok(())
}

/// Write every byte of `bufs`, in order, with `write_vectored`, looping on
/// short writes and `Interrupted`. (`IoSlice::advance_slices` would do the
/// advancing, but it needs Rust 1.81; the workspace builds on 1.75.)
fn write_all_vectored<W: Write>(w: &mut W, mut bufs: &[&[u8]]) -> std::io::Result<()> {
    // Bytes of `bufs[0]` already written.
    let mut skip = 0usize;
    loop {
        while bufs.first().is_some_and(|b| b.len() == skip) {
            bufs = &bufs[1..];
            skip = 0;
        }
        let Some((first, rest)) = bufs.split_first() else {
            return Ok(());
        };
        let slices: Vec<IoSlice<'_>> = std::iter::once(&first[skip..])
            .chain(rest.iter().copied())
            .map(IoSlice::new)
            .collect();
        match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "stream accepted no bytes of a reply frame",
                ))
            }
            Ok(n) => {
                let mut n = skip + n;
                while let Some(b) = bufs.first().filter(|b| n >= b.len()) {
                    n -= b.len();
                    bufs = &bufs[1..];
                }
                skip = n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Decode a request frame body (the bytes after the 8-byte frame header).
pub fn decode_request(mut body: Bytes) -> Result<RequestFrame> {
    let kind = crate::wire::get_u8(&mut body)?;
    if kind != KIND_REQUEST {
        return Err(HvacError::Protocol(format!(
            "expected request frame (kind {KIND_REQUEST}), got kind {kind}"
        )));
    }
    let req_id = crate::wire::get_u64(&mut body)?;
    let deadline_ms = crate::wire::get_u32(&mut body)?;
    Ok(RequestFrame {
        req_id,
        deadline_ms,
        payload: body,
    })
}

/// Decode a reply frame body (the bytes after the 8-byte frame header).
pub fn decode_reply(mut body: Bytes) -> Result<ReplyFrame> {
    let kind = crate::wire::get_u8(&mut body)?;
    if kind != KIND_REPLY {
        return Err(HvacError::Protocol(format!(
            "expected reply frame (kind {KIND_REPLY}), got kind {kind}"
        )));
    }
    let req_id = crate::wire::get_u64(&mut body)?;
    let flags = crate::wire::get_u8(&mut body)?;
    if flags & !FLAG_HAS_BULK != 0 {
        return Err(HvacError::Protocol(format!(
            "unknown reply flags {flags:#04x}"
        )));
    }
    let hdr_len = crate::wire::get_u32(&mut body)? as usize;
    if body.remaining() < hdr_len {
        return Err(HvacError::Protocol(format!(
            "truncated reply header: want {hdr_len}, have {}",
            body.remaining()
        )));
    }
    let header = body.split_to(hdr_len);
    let bulk = if flags & FLAG_HAS_BULK != 0 {
        Some(Bulk::from(body))
    } else if body.is_empty() {
        None
    } else {
        return Err(HvacError::Protocol(format!(
            "{} trailing bytes after bulk-less reply",
            body.len()
        )));
    };
    Ok(ReplyFrame {
        req_id,
        reply: Reply { header, bulk },
    })
}

/// Read one frame body off a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary* (the
/// peer closed between messages); `Err(Protocol)` on a bad magic, an
/// over-cap length, or a stream that ends mid-frame; and `Err(Io)` for
/// transport-level failures. The body buffer is allocated only after the
/// declared length passes both the magic check and the `max_frame` cap.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Option<Bytes>> {
    read_frame_pooled(r, max_frame, None)
}

/// [`read_frame`] with an optional [`BufferPool`]: the body lands in a
/// pooled slab (no per-frame malloc + zero-fill) that returns to the pool
/// when the last `Bytes` referencing the frame — the decoded reply header,
/// its bulk slice, or the request payload — is dropped.
pub fn read_frame_pooled<R: Read>(
    r: &mut R,
    max_frame: usize,
    pool: Option<&BufferPool>,
) -> Result<Option<Bytes>> {
    let mut header = [0u8; 8];
    let mut filled = 0usize;
    while filled < header.len() {
        let n = match r.read(&mut header[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(map_read_err(e)),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(HvacError::Protocol(format!(
                "stream ended {filled} bytes into a frame header"
            )));
        }
        filled += n;
    }
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != FRAME_MAGIC {
        return Err(HvacError::Protocol(format!(
            "bad frame magic {magic:#010x} (expected {FRAME_MAGIC:#010x})"
        )));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    check_body_len(len, max_frame)?;
    let map_body_err = |e: std::io::Error| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HvacError::Protocol(format!("stream ended inside a {len}-byte frame body"))
        } else {
            map_read_err(e)
        }
    };
    match pool {
        Some(pool) => {
            let mut body = pool.acquire(len);
            r.read_exact(&mut body).map_err(map_body_err)?;
            Ok(Some(body.freeze()))
        }
        None => {
            let mut body = vec![0u8; len];
            r.read_exact(&mut body).map_err(map_body_err)?;
            Ok(Some(Bytes::from(body)))
        }
    }
}

fn map_read_err(e: std::io::Error) -> HvacError {
    HvacError::Io(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_frame_round_trip() {
        let frame = encode_request(42, 1500, b"payload", DEFAULT_MAX_FRAME).unwrap();
        let body = read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        let req = decode_request(body).unwrap();
        assert_eq!(req.req_id, 42);
        assert_eq!(req.deadline_ms, 1500);
        assert_eq!(&req.payload[..], b"payload");
    }

    #[test]
    fn retired_request_kind_3_is_rejected() {
        // Kind 3 was a tenant-stamped request: kind 1's layout with a u64
        // job after the deadline. Its body is now an unknown kind.
        let mut body = vec![3u8];
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(&1500u32.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(b"payload");
        match decode_request(Bytes::from(body)) {
            Err(HvacError::Protocol(msg)) => assert!(msg.ends_with("got kind 3"), "{msg}"),
            other => panic!("expected a Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn reply_frame_round_trip_with_and_without_bulk() {
        for bulk in [None, Some(Bytes::from(vec![7u8; 4096]))] {
            let reply = Reply {
                header: Bytes::from_static(b"hdr"),
                bulk: bulk.clone().map(Bulk::from),
            };
            let frame = encode_reply(9, &reply, DEFAULT_MAX_FRAME).unwrap();
            let body = read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap();
            let decoded = decode_reply(body).unwrap();
            assert_eq!(decoded.req_id, 9);
            assert_eq!(&decoded.reply.header[..], b"hdr");
            assert_eq!(
                decoded.reply.bulk.map(|b| b.to_vec()),
                bulk.map(|b| b.to_vec())
            );
        }
    }

    /// A stream that takes 1 to `max` bytes per call, across slices, and
    /// sometimes fails a call with `Interrupted` instead.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        rng: u64,
        interrupts: usize,
    }

    impl Trickle {
        fn next(&mut self) -> u64 {
            self.rng = self
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.rng >> 33
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.next() & 3 == 0 {
                self.interrupts += 1;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut budget = 1 + self.next() as usize % self.max;
            let mut taken = 0;
            for b in bufs {
                let n = b.len().min(budget);
                self.out.extend_from_slice(&b[..n]);
                (taken, budget) = (taken + n, budget - n);
                if budget == 0 {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_writer_survives_short_writes_and_interrupts() {
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 7 + 3) as u8).collect();
        let b = Bytes::from(payload);
        let reply = Reply {
            header: Bytes::from_static(b"header"),
            bulk: Some(Bulk::from(vec![
                b.slice(0..1),
                Bytes::new(),
                b.slice(1..1200),
                b.slice(1200..1201),
                b.slice(1201..5000),
                Bytes::new(),
            ])),
        };
        let want = encode_reply(5, &reply, DEFAULT_MAX_FRAME).unwrap();
        for (seed, max) in [
            (1u64, 1usize),
            (2, 2),
            (3, 7),
            (4, 64),
            (5, 4096),
            (6, 1 << 20),
        ] {
            let mut w = Trickle {
                out: Vec::new(),
                max,
                rng: seed,
                interrupts: 0,
            };
            write_reply(&mut w, 5, &reply, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(w.out, want, "seed {seed}, up to {max} bytes a call");
            assert!(
                w.interrupts > 0 || max > 64,
                "seed {seed} never interrupted"
            );
        }
        // A stream that stops accepting bytes is an error, not a spin.
        let mut full = [0u8; 10];
        let err = write_reply(&mut &mut full[..], 5, &reply, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, HvacError::Io(_)), "{err:?}");
    }

    #[test]
    fn oversized_reply_is_refused_before_any_byte_is_written() {
        let reply = Reply {
            header: Bytes::from_static(b"h"),
            bulk: Some(Bulk::from(vec![Bytes::from(vec![0u8; 60]); 2])),
        };
        let mut out = Vec::new();
        let err = write_reply(&mut out, 1, &reply, 100).unwrap_err();
        assert!(matches!(err, HvacError::Protocol(_)), "{err:?}");
        assert!(out.is_empty());
        write_reply(&mut out, 1, &reply, 14 + 1 + 120).unwrap();
        assert_eq!(out.len(), 8 + 14 + 1 + 120);
    }

    #[test]
    fn clean_eof_is_none_midframe_eof_is_protocol() {
        let frame = encode_request(1, 0, b"x", DEFAULT_MAX_FRAME).unwrap();
        // Clean EOF at a boundary.
        assert!(read_frame(&mut Cursor::new(&[][..]), DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
        // Every strict prefix of a valid frame is a Protocol error.
        for cut in 1..frame.len() {
            let err = read_frame(&mut Cursor::new(&frame[..cut]), DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, HvacError::Protocol(_)),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_oversized_length_are_typed_errors() {
        let mut junk = encode_request(1, 0, b"x", DEFAULT_MAX_FRAME).unwrap();
        junk[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut Cursor::new(&junk), DEFAULT_MAX_FRAME),
            Err(HvacError::Protocol(_))
        ));

        // A hostile length prefix must be rejected before any allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&hostile), 1024),
            Err(HvacError::Protocol(_))
        ));
    }

    #[test]
    fn pooled_read_and_encode_round_trip_and_quiesce() {
        let pool = BufferPool::new();
        let reply = Reply {
            header: Bytes::from_static(b"hdr"),
            bulk: Some(Bulk::from(vec![
                Bytes::from(vec![3u8; 8000]),
                Bytes::from(vec![4u8; 192]),
            ])),
        };
        let mut frame = Vec::new();
        write_reply(&mut frame, 77, &reply, DEFAULT_MAX_FRAME).unwrap();
        // The gathered write is byte-identical to the one-buffer encoding.
        assert_eq!(frame, encode_reply(77, &reply, DEFAULT_MAX_FRAME).unwrap());
        let body = read_frame_pooled(&mut Cursor::new(frame), DEFAULT_MAX_FRAME, Some(&pool))
            .unwrap()
            .unwrap();
        let decoded = decode_reply(body).unwrap();
        assert_eq!(decoded.req_id, 77);
        assert_eq!(&decoded.reply.header[..], b"hdr");
        let bulk = decoded.reply.bulk.unwrap();
        assert_eq!((bulk.parts().len(), bulk.len()), (1, 8192));
        // Header and bulk are zero-copy slices of one pooled frame slab;
        // dropping the last of them returns the slab.
        drop(decoded.reply.header);
        assert_eq!(pool.stats().in_flight(), 1, "bulk still pins the frame");
        drop(bulk);
        assert_eq!(pool.stats().in_flight(), 0);
    }

    #[test]
    fn oversized_body_refuses_to_encode() {
        let body = vec![0u8; 100];
        assert!(encode_frame(&body, 99).is_err());
        assert!(encode_frame(&body, 100).is_ok());
    }

    #[test]
    fn wrong_kind_and_unknown_flags_are_rejected() {
        let req = encode_request(5, 0, b"p", DEFAULT_MAX_FRAME).unwrap();
        let body = read_frame(&mut Cursor::new(&req), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert!(matches!(decode_reply(body), Err(HvacError::Protocol(_))));

        let reply = Reply {
            header: Bytes::from_static(b"h"),
            bulk: None,
        };
        let rep = encode_reply(5, &reply, DEFAULT_MAX_FRAME).unwrap();
        let body = read_frame(&mut Cursor::new(&rep), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert!(matches!(decode_request(body), Err(HvacError::Protocol(_))));
    }
}
