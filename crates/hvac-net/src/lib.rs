//! Mercury-style RPC substrate for HVAC.
//!
//! The paper uses the Mercury communication library for RPC and bulk data
//! transfer over Summit's InfiniBand (§III-C). This crate reproduces the
//! programming model — registered request handlers, request/response RPCs,
//! and separate *bulk* payloads for file data — over two interchangeable
//! backends: an in-process loopback fabric (the faithful substitution for a
//! single-machine reproduction, see DESIGN.md §1) and a real socket
//! transport (TCP or Unix-domain) for multi-process deployments:
//!
//! * [`wire`] — a small, explicit binary codec over [`bytes`],
//! * [`fabric`] — the [`Fabric`]: one endpoint table (each name's
//!   down-latch and route: a loopback handler, run on the calling thread,
//!   or a socket address), server endpoints, fault injection (mark a server
//!   down), and traffic accounting, over either transport,
//! * [`framing`] — length-prefixed socket frames with a bounded-allocation
//!   decoder (truncated/oversized/garbage input → typed `Protocol` errors),
//! * [`socket`] — the socket transport: endpoint addresses (parsed from
//!   config or `HVAC_ENDPOINTS`), per-destination pools of
//!   one-call-at-a-time connections, and the server accept loop with one
//!   thread per connection,
//! * [`fault`] — the seeded [`FaultInjector`] (per-endpoint drop / delay /
//!   hang / error-reply schedules) driving the hung-server tests,
//! * [`bulk`] — chunk tiling, the [`Bulk`](bulk::Bulk) gather list a
//!   reply's payload travels in, and pooled reassembly of large reads,
//!   mirroring Mercury's separation of RPC metadata from payload,
//! * [`pool`] — the reference-counted slab [`BufferPool`](pool::BufferPool)
//!   behind the zero-copy data plane (return-to-pool on last `Bytes` drop),
//! * [`plan`] — the adjacent-segment coalescer and per-destination batch
//!   planner plus the batch payload codec,
//! * [`sq`] — the client's persistent [`SqPool`](sq::SqPool) of dispatch
//!   workers: every multi-RPC read (bulk chunks, per-destination batches)
//!   issues its calls through one [`SqPool::call_all`](sq::SqPool::call_all).
//!
//! The loopback fabric hands real bytes to the handler on the calling
//! thread; latency and bandwidth of the modeled interconnect are accounted
//! (for reporting) rather than slept. The socket transport moves the same frames through
//! the kernel, and the whole deadline/retry/breaker/hedge ladder above the
//! fabric works unchanged on both.

pub mod bulk;
pub mod fabric;
pub mod fault;
pub mod framing;
pub mod plan;
pub mod pool;
pub mod socket;
pub mod sq;
pub mod wire;

pub use bulk::{Bulk, BULK_CHUNK_SIZE};
pub use fabric::{Fabric, Reply, RpcHandler};
pub use fault::{FaultInjector, FaultSpec};
pub use sq::DEFAULT_SQ_DEPTH;
