//! The client↔server wire protocol.
//!
//! Five operations cover the paper's intercepted I/O profile
//! (`<open, read, close>` plus staging and job teardown):
//!
//! * [`Request::Stat`] — size lookup at `open` time,
//! * [`Request::Read`] — ranged read; the reply carries data as a bulk
//!   payload (Mercury's RPC/bulk split) and the file's size, so a
//!   whole-file read needs no `Stat`,
//! * [`Request::Batch`] — several segment reads homed on one server in one
//!   RPC (the §III-E segment-level caching alternative); a segment read on
//!   its own is a one-item batch,
//! * [`Request::Prefetch`] — stage files into the cache without waiting,
//! * [`Request::Purge`] — job teardown: drop the node's cache contents.
//!
//! `close` sends nothing: the server keeps no per-descriptor state, so the
//! out-of-band teardown RPC of §III-D step ⑧ would only be an accounting
//! ping. Two wire tags are retired and never reused: 3 (`Close`) and 6
//! (`ReadSegment`, a single segment read, now a one-item `Batch`).
//!
//! Messages are encoded with the explicit little-endian codec from
//! [`hvac_net::wire`]. Structural versioning is unnecessary — client and
//! server ship in one binary (the cache lives only inside one job
//! allocation) — but **membership** is versioned: every request is prefixed
//! with the sender's [`ClusterView`] epoch. A server holding a newer view
//! answers [`Response::StaleView`], piggybacking its current view so the
//! client can swap atomically and re-resolve ownership; epoch 0 denotes the
//! static launch-time view, so topologies that never change behave exactly
//! as the paper's fixed allocation.

use bytes::{Bytes, BytesMut};
use hvac_net::plan::{decode_batch_items, encode_batch_items, BatchItem, MAX_BATCH_ITEMS};
use hvac_net::wire;
use hvac_types::{ClusterView, HvacError, JobId, Result, ServerId};
use std::path::{Path, PathBuf};

/// High bit of the epoch prefix: set when a job id follows the epoch.
/// Tenant identity rides the wire exactly like membership epochs do — job 0
/// (the default namespace) encodes byte-identically to the pre-tenancy
/// format, and a set flag means "one more u64: the sender's job". Epochs are
/// monotonically-bumped small integers, so the bit is otherwise never set.
pub const JOB_FLAG: u64 = 1 << 63;

const TAG_STAT: u8 = 1;
const TAG_READ: u8 = 2;
// Tag 3 was `Close`; retired, never reuse it.
const TAG_PURGE: u8 = 4;
const TAG_PREFETCH: u8 = 5;
// Tag 6 was `ReadSegment`; retired, never reuse it.
const TAG_BATCH: u8 = 7;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;
// Tenant-echoing variants: same layout as OK/ERR with a u64 job id spliced
// in right after the status byte. Only produced for non-default jobs, so
// job-0 replies stay byte-identical to the legacy format.
const STATUS_OK_JOB: u8 = 2;
const STATUS_ERR_JOB: u8 = 3;

/// A request from an HVAC client to a server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Stat `path` (served from cache metadata if resident, else from PFS).
    Stat {
        /// Application-space file path.
        path: PathBuf,
    },
    /// Read `len` bytes of `path` at `offset`, caching the file first if
    /// needed.
    Read {
        /// Application-space file path.
        path: PathBuf,
        /// Byte offset.
        offset: u64,
        /// Maximum bytes to return.
        len: u64,
    },
    /// Drop all cached data (job teardown).
    Purge,
    /// Stage these files into the cache without waiting (the paper's §IV-C
    /// prefetching future work). The server copies them in the background;
    /// the reply only acknowledges the request.
    Prefetch {
        /// Application-space paths, all homed on the receiving server.
        paths: Vec<PathBuf>,
    },
    /// Segment-granular reads (the §III-E segment-level caching
    /// alternative) homed on the receiving server, shipped as one RPC
    /// (FanStore-style small-request batching). For each item the server
    /// caches only the `[offset, offset+len)` slice of its path, not the
    /// whole file, so huge files spread across many servers. The reply
    /// concatenates the per-item payloads into one bulk buffer, delimited by
    /// [`Response::Batch`] lengths. All-or-nothing: any item failing turns
    /// the whole reply into [`Response::Err`], and the client falls back to
    /// one-item batches per segment (which keep the full retry/failover
    /// ladder).
    Batch {
        /// The batched reads, in reply order.
        items: Vec<BatchItem>,
    },
}

/// A reply header (bulk data travels separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Stat result.
    Stat {
        /// File size in bytes.
        size: u64,
    },
    /// Read result; `total_size` is the full file size (clients use it to
    /// maintain EOF), the data itself is the RPC's bulk payload.
    Data {
        /// Full size of the file.
        total_size: u64,
        /// Whether this read was served from the node-local cache (false =
        /// the file had to be fetched from the PFS first).
        cache_hit: bool,
    },
    /// Generic success (purge/prefetch).
    Ok,
    /// The request's membership epoch was older than the server's: the
    /// request was **not** served. The server's current view rides along so
    /// the client can swap views and re-resolve ownership in one round trip.
    StaleView {
        /// The server's current membership view.
        view: ClusterView,
    },
    /// Batched-read result: the RPC's bulk payload is the concatenation of
    /// every item's data, and `lens[i]` is the byte length of item `i`'s
    /// slice within it. Only produced when **every** item succeeded.
    Batch {
        /// Per-item payload lengths, in request order.
        lens: Vec<u32>,
    },
    /// Failure, with an errno-style code and a message.
    Err {
        /// errno-equivalent (see [`HvacError::errno`]).
        code: i32,
        /// Human-readable description.
        message: String,
    },
}

fn path_to_str(path: &Path) -> Result<&str> {
    path.to_str().ok_or_else(|| {
        HvacError::Protocol(format!("non-UTF-8 path not supported: {}", path.display()))
    })
}

impl Request {
    /// Encode to wire bytes at membership epoch 0 (the static launch-time
    /// view). Equivalent to `encode_at(0)`; callers that track a live
    /// [`ClusterView`] use [`Request::encode_at`].
    pub fn encode(&self) -> Result<Bytes> {
        self.encode_at(0)
    }

    /// Encode to wire bytes, prefixing the sender's view `epoch`.
    /// Equivalent to `encode_ctx(epoch, JobId::DEFAULT)`.
    pub fn encode_at(&self, epoch: u64) -> Result<Bytes> {
        self.encode_ctx(epoch, JobId::DEFAULT)
    }

    /// Encode to wire bytes, prefixing the sender's view `epoch` and tenant
    /// identity. Job 0 produces the legacy byte layout (no job field, clear
    /// [`JOB_FLAG`]); any other job sets the flag and appends its id.
    pub fn encode_ctx(&self, epoch: u64, job: JobId) -> Result<Bytes> {
        if epoch & JOB_FLAG != 0 {
            return Err(HvacError::Protocol(format!(
                "epoch {epoch:#x} collides with the job flag"
            )));
        }
        let mut b = BytesMut::with_capacity(80);
        if job.is_default() {
            b.extend_from_slice(&epoch.to_le_bytes());
        } else {
            b.extend_from_slice(&(epoch | JOB_FLAG).to_le_bytes());
            b.extend_from_slice(&job.0.to_le_bytes());
        }
        match self {
            Request::Stat { path } => {
                b.extend_from_slice(&[TAG_STAT]);
                wire::put_str(&mut b, path_to_str(path)?)?;
            }
            Request::Read { path, offset, len } => {
                b.extend_from_slice(&[TAG_READ]);
                wire::put_str(&mut b, path_to_str(path)?)?;
                b.extend_from_slice(&offset.to_le_bytes());
                b.extend_from_slice(&len.to_le_bytes());
            }
            Request::Purge => b.extend_from_slice(&[TAG_PURGE]),
            Request::Prefetch { paths } => {
                b.extend_from_slice(&[TAG_PREFETCH]);
                b.extend_from_slice(&(paths.len() as u32).to_le_bytes());
                for p in paths {
                    wire::put_str(&mut b, path_to_str(p)?)?;
                }
            }
            Request::Batch { items } => {
                b.extend_from_slice(&[TAG_BATCH]);
                encode_batch_items(&mut b, items)?;
            }
        }
        Ok(b.freeze())
    }

    /// Decode from wire bytes, discarding the epoch prefix. Servers that
    /// enforce view freshness use [`Request::decode_with_epoch`].
    pub fn decode(buf: Bytes) -> Result<Request> {
        Ok(Self::decode_with_epoch(buf)?.1)
    }

    /// Decode from wire bytes, returning the sender's view epoch alongside
    /// the request (tenant identity discarded — legacy callers).
    pub fn decode_with_epoch(buf: Bytes) -> Result<(u64, Request)> {
        let (epoch, _, req) = Self::decode_with_ctx(buf)?;
        Ok((epoch, req))
    }

    /// Decode from wire bytes, returning the sender's view epoch and tenant
    /// identity alongside the request. A legacy frame (clear [`JOB_FLAG`])
    /// decodes as job 0, so pre-tenancy clients work against tenant-aware
    /// servers unchanged.
    pub fn decode_with_ctx(mut buf: Bytes) -> Result<(u64, JobId, Request)> {
        let prefix = wire::get_u64(&mut buf)?;
        let (epoch, job) = if prefix & JOB_FLAG != 0 {
            (prefix & !JOB_FLAG, JobId(wire::get_u64(&mut buf)?))
        } else {
            (prefix, JobId::DEFAULT)
        };
        Ok((epoch, job, Self::decode_body(&mut buf)?))
    }

    fn decode_body(buf: &mut Bytes) -> Result<Request> {
        let tag = wire::get_u8(buf)?;
        match tag {
            TAG_STAT => Ok(Request::Stat {
                path: PathBuf::from(wire::get_str(buf)?),
            }),
            TAG_READ => {
                let path = PathBuf::from(wire::get_str(buf)?);
                let offset = wire::get_u64(buf)?;
                let len = wire::get_u64(buf)?;
                Ok(Request::Read { path, offset, len })
            }
            TAG_PURGE => Ok(Request::Purge),
            TAG_PREFETCH => {
                let n = wire::get_u32(buf)? as usize;
                if n > 1_000_000 {
                    return Err(HvacError::Protocol(format!(
                        "implausible prefetch batch of {n} paths"
                    )));
                }
                let mut paths = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    paths.push(PathBuf::from(wire::get_str(buf)?));
                }
                Ok(Request::Prefetch { paths })
            }
            TAG_BATCH => Ok(Request::Batch {
                // The item-count guard lives inside the codec.
                items: decode_batch_items(buf)?,
            }),
            t => Err(HvacError::Protocol(format!("unknown request tag {t}"))),
        }
    }
}

const RTAG_STAT: u8 = 1;
const RTAG_DATA: u8 = 2;
const RTAG_OK: u8 = 3;
const RTAG_STALE_VIEW: u8 = 4;
const RTAG_BATCH: u8 = 5;

/// Append a [`ClusterView`] in wire form: epoch, instances-per-node, then
/// the member list as `(node, instance)` pairs.
fn put_view(b: &mut BytesMut, view: &ClusterView) {
    b.extend_from_slice(&view.epoch().to_le_bytes());
    b.extend_from_slice(&view.instances_per_node().to_le_bytes());
    b.extend_from_slice(&(view.n_servers() as u32).to_le_bytes());
    for sid in view.servers() {
        b.extend_from_slice(&sid.node.0.to_le_bytes());
        b.extend_from_slice(&sid.instance.to_le_bytes());
    }
}

/// Decode a [`ClusterView`] from wire form.
fn get_view(buf: &mut Bytes) -> Result<ClusterView> {
    let epoch = wire::get_u64(buf)?;
    let instances_per_node = wire::get_u32(buf)?;
    let n = wire::get_u32(buf)? as usize;
    if n > 1_000_000 {
        return Err(HvacError::Protocol(format!(
            "implausible view of {n} servers"
        )));
    }
    let mut servers = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let node = wire::get_u32(buf)?;
        let instance = wire::get_u32(buf)?;
        servers.push(ServerId::new(node, instance));
    }
    ClusterView::new(epoch, servers, instances_per_node)
}

impl Response {
    /// Encode to wire bytes in the legacy (default-namespace) layout.
    /// Equivalent to `encode_for(JobId::DEFAULT)`.
    pub fn encode(&self) -> Bytes {
        self.encode_for(JobId::DEFAULT)
    }

    /// Encode to wire bytes, echoing the request's tenant identity. Job 0
    /// produces the legacy byte layout; any other job uses the job-carrying
    /// status bytes so the sender can verify the echo.
    pub fn encode_for(&self, job: JobId) -> Bytes {
        let mut b = BytesMut::with_capacity(40);
        let (ok, err) = if job.is_default() {
            (vec![STATUS_OK], vec![STATUS_ERR])
        } else {
            let mut ok = vec![STATUS_OK_JOB];
            ok.extend_from_slice(&job.0.to_le_bytes());
            let mut err = vec![STATUS_ERR_JOB];
            err.extend_from_slice(&job.0.to_le_bytes());
            (ok, err)
        };
        match self {
            Response::Stat { size } => {
                b.extend_from_slice(&ok);
                b.extend_from_slice(&[RTAG_STAT]);
                b.extend_from_slice(&size.to_le_bytes());
            }
            Response::Data {
                total_size,
                cache_hit,
            } => {
                b.extend_from_slice(&ok);
                b.extend_from_slice(&[RTAG_DATA]);
                b.extend_from_slice(&total_size.to_le_bytes());
                b.extend_from_slice(&[u8::from(*cache_hit)]);
            }
            Response::Ok => {
                b.extend_from_slice(&ok);
                b.extend_from_slice(&[RTAG_OK]);
            }
            Response::StaleView { view } => {
                b.extend_from_slice(&ok);
                b.extend_from_slice(&[RTAG_STALE_VIEW]);
                put_view(&mut b, view);
            }
            Response::Batch { lens } => {
                b.extend_from_slice(&ok);
                b.extend_from_slice(&[RTAG_BATCH]);
                b.extend_from_slice(&(lens.len() as u32).to_le_bytes());
                for len in lens {
                    b.extend_from_slice(&len.to_le_bytes());
                }
            }
            Response::Err { code, message } => {
                b.extend_from_slice(&err);
                b.extend_from_slice(&(*code as i64).to_le_bytes());
                // An error reply must never itself fail to encode, so clamp
                // the text (at a char boundary) far below the u32 wire
                // prefix and write the prefix for the clamped body — never a
                // prefix/body mismatch, unlike the old `len as u32` cast.
                const MAX_ERR_MSG: usize = 64 * 1024;
                let mut end = MAX_ERR_MSG.min(message.len());
                while !message.is_char_boundary(end) {
                    end -= 1;
                }
                let msg = &message.as_bytes()[..end];
                b.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                b.extend_from_slice(msg);
            }
        }
        b.freeze()
    }

    /// Decode from wire bytes, discarding any echoed tenant identity.
    pub fn decode(buf: Bytes) -> Result<Response> {
        Ok(Self::decode_with_job(buf)?.1)
    }

    /// Decode from wire bytes, returning the echoed tenant identity
    /// alongside the response. A legacy reply decodes as job 0.
    pub fn decode_with_job(mut buf: Bytes) -> Result<(JobId, Response)> {
        let status = wire::get_u8(&mut buf)?;
        let job = match status {
            STATUS_OK_JOB | STATUS_ERR_JOB => JobId(wire::get_u64(&mut buf)?),
            STATUS_OK | STATUS_ERR => JobId::DEFAULT,
            s => return Err(HvacError::Protocol(format!("unknown reply status {s}"))),
        };
        Ok((job, Self::decode_tail(status, buf)?))
    }

    fn decode_tail(status: u8, mut buf: Bytes) -> Result<Response> {
        if status == STATUS_ERR || status == STATUS_ERR_JOB {
            let code = wire::get_i64(&mut buf)? as i32;
            let message = wire::get_str(&mut buf)?;
            return Ok(Response::Err { code, message });
        }
        let tag = wire::get_u8(&mut buf)?;
        match tag {
            RTAG_STAT => Ok(Response::Stat {
                size: wire::get_u64(&mut buf)?,
            }),
            RTAG_DATA => {
                let total_size = wire::get_u64(&mut buf)?;
                let cache_hit = wire::get_u8(&mut buf)? != 0;
                Ok(Response::Data {
                    total_size,
                    cache_hit,
                })
            }
            RTAG_OK => Ok(Response::Ok),
            RTAG_STALE_VIEW => Ok(Response::StaleView {
                view: get_view(&mut buf)?,
            }),
            RTAG_BATCH => {
                let n = wire::get_u32(&mut buf)? as usize;
                if n > MAX_BATCH_ITEMS {
                    return Err(HvacError::Protocol(format!(
                        "implausible batch reply of {n} items"
                    )));
                }
                let mut lens = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    lens.push(wire::get_u32(&mut buf)?);
                }
                Ok(Response::Batch { lens })
            }
            t => Err(HvacError::Protocol(format!("unknown response tag {t}"))),
        }
    }

    /// Build an error response from an [`HvacError`].
    pub fn from_error(e: &HvacError) -> Response {
        Response::Err {
            code: e.errno(),
            message: e.to_string(),
        }
    }

    /// Convert an error response into a typed `Err`, anything else into
    /// `Ok(self)`. The remote errno survives in [`HvacError::Remote`], so a
    /// server-side `ENOENT` reaches the shim as `ENOENT`, and the failover
    /// path can tell an answered error (fatal) from silence (transient).
    ///
    /// [`Response::StaleView`] becomes [`HvacError::StaleView`] (retriable).
    /// View-tracking callers intercept the response *before* this call to
    /// keep the piggybacked view; dropping through here is still correct,
    /// just costs one extra round trip after the view refreshes.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Err { code, message } => Err(HvacError::Remote { code, message }),
            Response::StaleView { view } => Err(HvacError::StaleView {
                current_epoch: view.epoch(),
            }),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::Stat {
                path: PathBuf::from("/gpfs/train/x.bin"),
            },
            Request::Read {
                path: PathBuf::from("/gpfs/train/y.bin"),
                offset: 123,
                len: 4096,
            },
            Request::Purge,
            Request::Prefetch { paths: vec![] },
            Request::Prefetch {
                paths: vec![PathBuf::from("/a"), PathBuf::from("/gpfs/b.bin")],
            },
            Request::Batch { items: vec![] },
            Request::Batch {
                items: vec![
                    BatchItem {
                        path: "/gpfs/train/a.bin".into(),
                        offset: 0,
                        len: 4096,
                    },
                    BatchItem {
                        path: "/gpfs/train/b.bin".into(),
                        offset: 1 << 30,
                        len: 7,
                    },
                ],
            },
        ];
        for req in cases {
            let enc = req.encode().unwrap();
            assert_eq!(Request::decode(enc).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = vec![
            Response::Stat { size: 42 },
            Response::Data {
                total_size: 1 << 40,
                cache_hit: true,
            },
            Response::Data {
                total_size: 0,
                cache_hit: false,
            },
            Response::Ok,
            Response::Batch { lens: vec![] },
            Response::Batch {
                lens: vec![0, 4096, u32::MAX],
            },
            Response::Err {
                code: 2,
                message: "file not found: /x".into(),
            },
        ];
        for resp in cases {
            let enc = resp.encode();
            assert_eq!(Response::decode(enc).unwrap(), resp);
        }
    }

    #[test]
    fn garbage_decodes_to_protocol_error() {
        assert!(Request::decode(Bytes::from_static(&[99])).is_err());
        assert!(Request::decode(Bytes::new()).is_err());
        assert!(Response::decode(Bytes::from_static(&[0, 99])).is_err());
        assert!(Response::decode(Bytes::new()).is_err());
        // Truncated read request
        assert!(Request::decode(Bytes::from_static(&[TAG_READ, 1, 0, 0, 0, b'x'])).is_err());
    }

    #[test]
    fn retired_close_tag_is_rejected() {
        // Tag 3 was `Close` and tag 6 `ReadSegment`: a frame carrying
        // either, with the body it used to have, is an unknown request.
        for (tag, tail) in [(3u8, 0usize), (6, 16)] {
            let mut b = BytesMut::new();
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&[tag]);
            wire::put_str(&mut b, "/z").unwrap();
            b.extend_from_slice(&vec![0u8; tail]);
            match Request::decode(b.freeze()) {
                Err(HvacError::Protocol(msg)) => {
                    assert_eq!(msg, format!("unknown request tag {tag}"))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn error_response_round_trips_through_hvac_error() {
        let e = HvacError::NotFound(PathBuf::from("/missing"));
        let resp = Response::from_error(&e);
        let decoded = Response::decode(resp.encode()).unwrap();
        match decoded.into_result() {
            Err(e @ HvacError::Remote { code: 2, .. }) => {
                assert_eq!(e.errno(), 2, "remote errno survives the wire");
                assert!(e.to_string().contains("/missing"));
                assert!(!e.is_retriable(), "an answered error is fatal");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn hostile_batch_counts_are_protocol_errors() {
        // Request side: a forged u32::MAX item count after the tag.
        let mut b = BytesMut::new();
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&[TAG_BATCH]);
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(b.freeze()).is_err());
        // Response side: a forged huge lens count.
        let mut b = BytesMut::new();
        b.extend_from_slice(&[STATUS_OK, RTAG_BATCH]);
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(b.freeze()).is_err());
    }

    #[test]
    fn into_result_passes_success_through() {
        assert!(Response::Ok.into_result().is_ok());
        assert!(Response::Stat { size: 1 }.into_result().is_ok());
    }

    #[test]
    fn request_epoch_rides_the_wire() {
        let req = Request::Read {
            path: PathBuf::from("/gpfs/train/x.bin"),
            offset: 8,
            len: 64,
        };
        let enc = req.encode_at(7).unwrap();
        let (epoch, decoded) = Request::decode_with_epoch(enc).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(decoded, req);
        // The epoch-free entry points are the epoch-0 special case.
        let (epoch, decoded) = Request::decode_with_epoch(req.encode().unwrap()).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(decoded, req);
        assert_eq!(Request::decode(req.encode_at(99).unwrap()).unwrap(), req);
    }

    #[test]
    fn job_id_rides_the_wire_and_job0_is_byte_identical_to_legacy() {
        let req = Request::Read {
            path: PathBuf::from("/gpfs/train/x.bin"),
            offset: 8,
            len: 64,
        };
        // Job 0 encodes byte-identically to the pre-tenancy format.
        assert_eq!(
            req.encode_ctx(7, JobId::DEFAULT).unwrap(),
            req.encode_at(7).unwrap()
        );
        // A tenant-stamped request round-trips epoch, job and body.
        let enc = req.encode_ctx(7, JobId(42)).unwrap();
        let (epoch, job, decoded) = Request::decode_with_ctx(enc.clone()).unwrap();
        assert_eq!((epoch, job), (7, JobId(42)));
        assert_eq!(decoded, req);
        // Legacy decode entry points see the same epoch and request.
        let (epoch, decoded) = Request::decode_with_epoch(enc).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(decoded, req);
        // A legacy frame decodes as job 0 on a tenant-aware decoder.
        let (epoch, job, decoded) = Request::decode_with_ctx(req.encode_at(7).unwrap()).unwrap();
        assert_eq!((epoch, job), (7, JobId::DEFAULT));
        assert_eq!(decoded, req);
        // An epoch colliding with the flag is refused at encode time.
        assert!(req.encode_ctx(JOB_FLAG, JobId(1)).is_err());
    }

    #[test]
    fn responses_echo_the_job_and_job0_stays_legacy() {
        let cases = vec![
            Response::Stat { size: 42 },
            Response::Data {
                total_size: 9,
                cache_hit: true,
            },
            Response::Ok,
            Response::Batch { lens: vec![1, 2] },
            Response::Err {
                code: 2,
                message: "nope".into(),
            },
        ];
        for resp in cases {
            // Job 0 = the legacy bytes.
            assert_eq!(resp.encode_for(JobId::DEFAULT), resp.encode());
            // Tenant echo round-trips; legacy decode still sees the body.
            let enc = resp.encode_for(JobId(7));
            let (job, decoded) = Response::decode_with_job(enc.clone()).unwrap();
            assert_eq!(job, JobId(7));
            assert_eq!(decoded, resp);
            assert_eq!(Response::decode(enc).unwrap(), resp);
            // A legacy reply decodes as job 0 on a tenant-aware decoder.
            let (job, decoded) = Response::decode_with_job(resp.encode()).unwrap();
            assert_eq!(job, JobId::DEFAULT);
            assert_eq!(decoded, resp);
        }
        // An unknown status byte is a protocol error.
        assert!(Response::decode(Bytes::from_static(&[9, 1])).is_err());
    }

    #[test]
    fn stale_view_round_trips_with_the_piggybacked_view() {
        let view = ClusterView::initial(4, 2)
            .unwrap()
            .with_node_added(hvac_types::NodeId(9))
            .unwrap();
        let resp = Response::StaleView { view: view.clone() };
        let decoded = Response::decode(resp.encode()).unwrap();
        assert_eq!(decoded, resp);
        match decoded.into_result() {
            Err(e @ HvacError::StaleView { current_epoch: 1 }) => {
                assert!(e.is_retriable(), "stale view must be retriable");
                assert_eq!(e.errno(), 11);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn truncated_view_is_a_protocol_error() {
        let view = ClusterView::initial(3, 1).unwrap();
        let enc = Response::StaleView { view }.encode();
        for cut in 3..enc.len() - 1 {
            assert!(
                Response::decode(enc.slice(..cut)).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
