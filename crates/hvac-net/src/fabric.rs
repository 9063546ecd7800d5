//! The RPC fabric: Mercury's programming model over a pluggable transport.
//!
//! A [`Fabric`] is a registry of named endpoints. Server endpoints run a
//! request handler; clients issue blocking calls and receive a [`Reply`]
//! containing a small response header plus an optional bulk payload —
//! Mercury's RPC/bulk split.
//!
//! Two backends implement that contract: the in-process **loopback** fabric
//! (the default — the handler runs on the calling thread, and no bytes
//! leave the process) and the **socket** transport of [`crate::socket`]
//! (TCP or Unix-domain streams with length-prefixed frames and
//! per-destination pools of idle connections, each carrying one call at a
//! time, answered on the thread that made it). The backend is chosen at
//! construction ([`Fabric::new`] vs. [`Fabric::socket`]/
//! [`Fabric::for_transport`]) and is invisible to callers.
//!
//! Fault injection comes in two flavours: `set_down` (a *dead* server —
//! calls fail fast with `ServerDown`) and the seeded [`FaultInjector`]
//! (a *misbehaving* server — requests dropped, delayed, hung, or answered
//! with errors), which together exercise both halves of the paper's §III-H
//! "node-local NVMe fails ⇒ failed training run" scenario. All fault
//! decisions, liveness checks, deadline bookkeeping, and traffic accounting
//! live in backend-independent code, so the injector (including Crash
//! latching) behaves identically over loopback and real sockets. Calls
//! carry a per-call deadline ([`Fabric::call_with_deadline`]); missing it
//! returns a typed [`HvacError::RpcTimeout`] that the client's failover
//! path matches.
//!
//! The stats ledger keeps one invariant: every call lands in exactly one of
//! `rpcs` (answered) or `failed_calls` (any error), and `request_bytes`
//! counts only requests actually handed to a handler or written to a
//! socket.

use crate::bulk::Bulk;
use crate::fault::{FaultAction, FaultInjector};
use crate::socket::{
    CallClock, EndpointUri, ServerCore, SocketBackend, SocketConfig, SocketFamily,
};
use bytes::Bytes;
use hvac_sync::{classes, OrderedRwLock};
use hvac_types::{HvacError, Result, TransportKind};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response to one RPC: a small header plus an optional bulk payload,
/// mirroring Mercury's separation of RPC arguments from bulk transfers.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Decoded by the protocol layer (status, sizes, ...).
    pub header: Bytes,
    /// File data moved via the bulk path, as a gather list of parts;
    /// `None` for metadata-only replies.
    pub bulk: Option<Bulk>,
}

/// Server-side request handler. One handler instance serves all threads of
/// an endpoint (every loopback caller's thread, or one thread per socket
/// connection), so it must be internally synchronized.
pub trait RpcHandler: Send + Sync + 'static {
    /// Process one request and produce a reply.
    fn handle(&self, request: Bytes) -> Reply;
}

impl<F> RpcHandler for F
where
    F: Fn(Bytes) -> Reply + Send + Sync + 'static,
{
    fn handle(&self, request: Bytes) -> Reply {
        self(request)
    }
}

struct EndpointSlot {
    handler: Arc<dyn RpcHandler>,
    down: Arc<AtomicBool>,
}

/// Cumulative traffic counters of a fabric.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// RPCs successfully delivered to a handler.
    pub rpcs: AtomicU64,
    /// Request header bytes.
    pub request_bytes: AtomicU64,
    /// Reply header bytes.
    pub reply_bytes: AtomicU64,
    /// Bulk payload bytes: the sum of each reply's parts.
    pub bulk_bytes: AtomicU64,
    /// Calls rejected because the target endpoint was down/absent.
    pub failed_calls: AtomicU64,
    /// Socket connections dialled (always 0 on loopback). A pooled
    /// connection is reused by later calls, so while no call fails this
    /// stays at the sum over destinations of the peak number of concurrent
    /// calls to each.
    pub connects: AtomicU64,
}

impl FabricStats {
    /// Snapshot of (rpcs, request_bytes, reply_bytes, bulk_bytes, failed).
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.rpcs.load(Ordering::Relaxed),
            self.request_bytes.load(Ordering::Relaxed),
            self.reply_bytes.load(Ordering::Relaxed),
            self.bulk_bytes.load(Ordering::Relaxed),
            self.failed_calls.load(Ordering::Relaxed),
        )
    }
}

/// The transport behind a [`Fabric`]: in-process handler calls or real
/// sockets.
enum Backend {
    Loopback {
        endpoints: OrderedRwLock<HashMap<String, EndpointSlot>>,
    },
    Socket(SocketBackend),
}

impl Backend {
    fn loopback() -> Self {
        Backend::Loopback {
            endpoints: OrderedRwLock::new(classes::FABRIC_ENDPOINTS, HashMap::new()),
        }
    }
}

/// The interconnect: endpoint registry + traffic accounting over a
/// loopback or socket backend.
pub struct Fabric {
    backend: Backend,
    stats: FabricStats,
    call_timeout: Duration,
    faults: FaultInjector,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    fn with_backend(backend: Backend) -> Self {
        Self {
            backend,
            stats: FabricStats::default(),
            call_timeout: Duration::from_secs(30),
            faults: FaultInjector::new(),
        }
    }

    /// A loopback fabric with the default 30 s call timeout.
    pub fn new() -> Self {
        Self::with_backend(Backend::loopback())
    }

    /// A socket-backed fabric of the given family with default knobs.
    pub fn socket(family: SocketFamily) -> Self {
        Self::socket_with(SocketConfig {
            family,
            ..SocketConfig::default()
        })
    }

    /// A socket-backed fabric with explicit [`SocketConfig`] knobs.
    pub fn socket_with(config: SocketConfig) -> Self {
        Self::with_backend(Backend::Socket(SocketBackend::new(config)))
    }

    /// A fabric for the given [`TransportKind`] (how `Cluster` and the
    /// `hvac-server` binary pick their backend).
    pub fn for_transport(kind: TransportKind) -> Self {
        match kind {
            TransportKind::Loopback => Self::new(),
            TransportKind::Tcp => Self::socket(SocketFamily::Tcp),
            TransportKind::Unix => Self::socket(SocketFamily::Unix),
        }
    }

    /// A socket-backed fabric (TCP family by default) with every endpoint
    /// named in the `HVAC_ENDPOINTS` environment variable pre-registered —
    /// the cross-process client bootstrap path.
    pub fn socket_from_env() -> Result<Self> {
        let fabric = Self::socket(SocketFamily::Tcp);
        for (name, uri) in crate::socket::endpoints_from_env()? {
            fabric.register_endpoint(&name, &uri.to_string())?;
        }
        Ok(fabric)
    }

    /// Record the concrete socket address of a logical endpoint name
    /// (`tcp:host:port` or `unix:/path`). Errors on a loopback fabric,
    /// which has no remote endpoints to point at.
    pub fn register_endpoint(&self, addr: &str, uri: &str) -> Result<()> {
        match &self.backend {
            Backend::Loopback { .. } => Err(HvacError::InvalidConfig(format!(
                "cannot register remote endpoint {addr} on a loopback fabric"
            ))),
            Backend::Socket(sb) => {
                sb.register_endpoint(addr, EndpointUri::parse(uri)?);
                Ok(())
            }
        }
    }

    /// The concrete `tcp:`/`unix:` address a logical endpoint resolves to
    /// (`None` for unknown endpoints and for loopback fabrics). Servers
    /// bound to an ephemeral address use this to announce where they
    /// actually listen.
    pub fn endpoint_uri(&self, addr: &str) -> Option<String> {
        match &self.backend {
            Backend::Loopback { .. } => None,
            Backend::Socket(sb) => sb.endpoint_uri(addr),
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The fault injector (install per-endpoint misbehaviour here).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Register a server endpoint under `addr`. A loopback call runs
    /// `handler` on the calling thread; a socket endpoint serves each
    /// connection on that connection's own thread. Returns a handle that
    /// unregisters on drop.
    pub fn serve(
        self: &Arc<Self>,
        addr: &str,
        handler: Arc<dyn RpcHandler>,
    ) -> Result<ServerEndpoint> {
        let (down, core) = match &self.backend {
            Backend::Loopback { endpoints } => {
                let mut eps = endpoints.write();
                if eps.contains_key(addr) {
                    return Err(HvacError::InvalidConfig(format!(
                        "endpoint {addr} already registered"
                    )));
                }
                let down = Arc::new(AtomicBool::new(false));
                eps.insert(
                    addr.to_string(),
                    EndpointSlot {
                        handler,
                        down: down.clone(),
                    },
                );
                (down, None)
            }
            Backend::Socket(sb) => {
                let (core, down) = sb.serve(addr, handler)?;
                (down, Some(core))
            }
        };
        Ok(ServerEndpoint {
            fabric: self.clone(),
            addr: addr.to_string(),
            down,
            core,
        })
    }

    /// Issue a blocking RPC to `addr` with the fabric's default timeout.
    pub fn call(&self, addr: &str, request: Bytes) -> Result<Reply> {
        self.call_with_deadline(addr, request, self.call_timeout)
    }

    /// Issue a blocking RPC to `addr` whose reply is due within `deadline`.
    /// A missed deadline is a typed [`HvacError::RpcTimeout`] — the caller
    /// cannot distinguish a hung server from a lost reply, and the error
    /// says exactly that much and no more. A socket call returns at the
    /// deadline; a loopback call runs the handler on this thread to
    /// completion first and only then discards a late reply.
    ///
    /// Ledger invariant: exactly one of `rpcs` (on success) or
    /// `failed_calls` (on any error) is bumped per call, and
    /// `request_bytes` counts only requests actually handed to a handler
    /// or written to a socket.
    pub fn call_with_deadline(
        &self,
        addr: &str,
        request: Bytes,
        deadline: Duration,
    ) -> Result<Reply> {
        let result = self.call_inner(addr, request, deadline);
        match &result {
            Ok(reply) => {
                self.stats.rpcs.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .reply_bytes
                    .fetch_add(reply.header.len() as u64, Ordering::Relaxed);
                if let Some(bulk) = &reply.bulk {
                    self.stats
                        .bulk_bytes
                        .fetch_add(bulk.len() as u64, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.stats.failed_calls.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Backend-independent fault prologue: decide this call's fate after
    /// the liveness check (so `set_down` always wins) and before any bytes
    /// move (so a dropped request really never reaches the server). Returns
    /// whether the reply must be discarded (Hang).
    fn apply_faults(
        &self,
        addr: &str,
        down: &AtomicBool,
        deadline: Duration,
        start: Instant,
    ) -> Result<bool> {
        match self.faults.decide(addr) {
            FaultAction::None => Ok(false),
            FaultAction::Crash => {
                // Crash-stop: latch the endpoint down exactly as `set_down`
                // would, so every later call fails fast until the harness
                // revives the endpoint. The fabric only kills the transport;
                // wiping the server's cached state is `Cluster::crash_node`.
                down.store(true, Ordering::Relaxed);
                Err(HvacError::ServerDown(format!("{addr} (crashed)")))
            }
            FaultAction::Error => Err(HvacError::Rpc(format!("injected error reply from {addr}"))),
            FaultAction::Drop => {
                // The request vanished; the caller waits out its deadline.
                std::thread::sleep(deadline);
                Err(HvacError::RpcTimeout {
                    addr: addr.to_string(),
                    elapsed: start.elapsed(),
                })
            }
            FaultAction::Hang => Ok(true),
            FaultAction::Delay(d) => {
                if d >= deadline {
                    std::thread::sleep(deadline);
                    return Err(HvacError::RpcTimeout {
                        addr: addr.to_string(),
                        elapsed: start.elapsed(),
                    });
                }
                std::thread::sleep(d);
                Ok(false)
            }
        }
    }

    fn call_inner(&self, addr: &str, request: Bytes, deadline: Duration) -> Result<Reply> {
        let start = Instant::now();
        let endpoints = match &self.backend {
            Backend::Loopback { endpoints } => endpoints,
            Backend::Socket(sb) => {
                let Some((uri, down)) = sb.resolve(addr) else {
                    return Err(HvacError::ServerDown(format!("{addr} (not registered)")));
                };
                if down.load(Ordering::Relaxed) {
                    return Err(HvacError::ServerDown(addr.to_string()));
                }
                let discard_reply = self.apply_faults(addr, &down, deadline, start)?;
                return sb.dispatch(
                    addr,
                    &uri,
                    request,
                    CallClock { deadline, start },
                    discard_reply,
                    &self.stats,
                );
            }
        };
        // Take the handler and the down-flag, then release the registry
        // before the handler runs: a slow handler never blocks `serve` or
        // `unregister`, and no server lock nests inside the registry's.
        let (handler, down) = {
            let eps = endpoints.read();
            match eps.get(addr) {
                None => {
                    return Err(HvacError::ServerDown(format!("{addr} (not registered)")));
                }
                Some(slot) => {
                    if slot.down.load(Ordering::Relaxed) {
                        return Err(HvacError::ServerDown(addr.to_string()));
                    }
                    (slot.handler.clone(), slot.down.clone())
                }
            }
        };
        let discard_reply = self.apply_faults(addr, &down, deadline, start)?;
        self.stats
            .request_bytes
            .fetch_add(request.len() as u64, Ordering::Relaxed);
        // A panicking handler fails only this call; the endpoint keeps
        // answering the next one.
        let reply = std::panic::catch_unwind(AssertUnwindSafe(|| handler.handle(request)))
            .map_err(|_| HvacError::Rpc(format!("handler of {addr} panicked")))?;
        if discard_reply {
            // Hung server: the handler ran, but the reply is dropped on the
            // floor. Waiting out the rest of the deadline reproduces what
            // the caller of a wedged endpoint experiences.
            std::thread::sleep(deadline.saturating_sub(start.elapsed()));
        }
        let elapsed = start.elapsed();
        if discard_reply || elapsed > deadline {
            return Err(HvacError::RpcTimeout {
                addr: addr.to_string(),
                elapsed,
            });
        }
        Ok(reply)
    }

    /// Mark an endpoint up/down without unregistering it (fault injection).
    /// Returns false if the endpoint is unknown.
    pub fn set_down(&self, addr: &str, down: bool) -> bool {
        match &self.backend {
            Backend::Loopback { endpoints } => {
                let eps = endpoints.read();
                match eps.get(addr) {
                    Some(slot) => {
                        slot.down.store(down, Ordering::Relaxed);
                        true
                    }
                    None => false,
                }
            }
            Backend::Socket(sb) => sb.set_down(addr, down),
        }
    }

    /// Whether an endpoint exists and is up.
    pub fn is_up(&self, addr: &str) -> bool {
        match &self.backend {
            Backend::Loopback { endpoints } => {
                let eps = endpoints.read();
                eps.get(addr)
                    .map(|s| !s.down.load(Ordering::Relaxed))
                    .unwrap_or(false)
            }
            Backend::Socket(sb) => sb.is_up(addr),
        }
    }

    /// Registered endpoint names (sorted, for reporting).
    pub fn endpoint_names(&self) -> Vec<String> {
        match &self.backend {
            Backend::Loopback { endpoints } => {
                let mut names: Vec<String> = endpoints.read().keys().cloned().collect();
                names.sort();
                names
            }
            Backend::Socket(sb) => sb.endpoint_names(),
        }
    }

    fn unregister(&self, addr: &str) {
        match &self.backend {
            Backend::Loopback { endpoints } => {
                endpoints.write().remove(addr);
            }
            Backend::Socket(sb) => sb.unregister(addr),
        }
    }
}

/// A live server endpoint; dropping it unregisters the address (the HVAC
/// server's job-lifetime coupling, §III-C). Loopback calls already running
/// finish on their callers' threads.
pub struct ServerEndpoint {
    fabric: Arc<Fabric>,
    addr: String,
    down: Arc<AtomicBool>,
    /// Socket backends park their listener and connection threads here;
    /// loopback endpoints keep it `None`. Dropped (= stopped and joined)
    /// after the address is unregistered.
    core: Option<ServerCore>,
}

impl std::fmt::Debug for ServerEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEndpoint")
            .field("addr", &self.addr)
            .field("down", &self.down.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServerEndpoint {
    /// The registered address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Fault-inject this endpoint.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }
}

impl Drop for ServerEndpoint {
    fn drop(&mut self) {
        self.fabric.unregister(&self.addr);
        // Socket machinery (listener, connection threads) stops and joins
        // here.
        self.core.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_handler() -> Arc<dyn RpcHandler> {
        Arc::new(|req: Bytes| Reply {
            header: req.clone(),
            bulk: None,
        })
    }

    #[test]
    fn call_round_trip() {
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("node0/srv0", echo_handler()).unwrap();
        let reply = fabric
            .call("node0/srv0", Bytes::from_static(b"ping"))
            .unwrap();
        assert_eq!(&reply.header[..], b"ping");
        assert!(reply.bulk.is_none());
        let (rpcs, req, rep, bulk, failed) = fabric.stats().snapshot();
        assert_eq!(rpcs, 1);
        assert_eq!(req, 4);
        assert_eq!(rep, 4);
        assert_eq!(bulk, 0);
        assert_eq!(failed, 0);
    }

    #[test]
    fn unknown_endpoint_is_server_down() {
        let fabric = Arc::new(Fabric::new());
        let err = fabric.call("nowhere", Bytes::new()).unwrap_err();
        assert!(matches!(err, HvacError::ServerDown(_)));
        assert_eq!(fabric.stats().snapshot().4, 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let fabric = Arc::new(Fabric::new());
        let _a = fabric.serve("x", echo_handler()).unwrap();
        assert!(fabric.serve("x", echo_handler()).is_err());
    }

    #[test]
    fn set_down_blocks_calls_and_recovers() {
        let fabric = Arc::new(Fabric::new());
        let ep = fabric.serve("s", echo_handler()).unwrap();
        assert!(fabric.is_up("s"));
        ep.set_down(true);
        assert!(!fabric.is_up("s"));
        assert!(matches!(
            fabric.call("s", Bytes::new()).unwrap_err(),
            HvacError::ServerDown(_)
        ));
        ep.set_down(false);
        assert!(fabric.call("s", Bytes::new()).is_ok());
    }

    #[test]
    fn drop_unregisters_endpoint() {
        let fabric = Arc::new(Fabric::new());
        {
            let _ep = fabric.serve("gone", echo_handler()).unwrap();
            assert!(fabric.is_up("gone"));
        }
        assert!(!fabric.is_up("gone"));
        assert!(fabric.endpoint_names().is_empty());
    }

    #[test]
    fn concurrent_clients_all_get_their_own_replies() {
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("srv", echo_handler()).unwrap();
        let mut joins = Vec::new();
        for i in 0..16u32 {
            let f = fabric.clone();
            joins.push(std::thread::spawn(move || {
                for j in 0..50u32 {
                    let msg = Bytes::from(format!("{i}:{j}"));
                    let reply = f.call("srv", msg.clone()).unwrap();
                    assert_eq!(reply.header, msg);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(fabric.stats().snapshot().0, 16 * 50);
    }

    /// Panics on a request that reads `boom`, echoes anything else.
    fn flaky_handler() -> Arc<dyn RpcHandler> {
        Arc::new(|req: Bytes| -> Reply {
            if &req[..] == b"boom" {
                panic!("injected handler panic");
            }
            Reply {
                header: req,
                bulk: None,
            }
        })
    }

    #[test]
    fn panicking_handler_does_not_block_the_client() {
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("flaky", flaky_handler()).unwrap();
        // The panic unwinds out of the handler on the caller's own thread,
        // so the caller errors out at once instead of blocking until the
        // 10 s deadline on a reply that never comes.
        let start = std::time::Instant::now();
        assert!(fabric
            .call_with_deadline(
                "flaky",
                Bytes::from_static(b"boom"),
                Duration::from_secs(10)
            )
            .is_err());
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "client blocked on a panicked handler"
        );
    }

    #[test]
    fn a_panicking_handler_fails_only_its_own_call() {
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("flaky", flaky_handler()).unwrap();
        let err = fabric
            .call("flaky", Bytes::from_static(b"boom"))
            .unwrap_err();
        assert!(matches!(err, HvacError::Rpc(_)), "{err}");
        assert!(err.is_retriable(), "a panicked call may be retried");
        let (rpcs, req, _rep, _bulk, failed) = fabric.stats().snapshot();
        assert_eq!((rpcs, failed), (0, 1), "the panic is one failed call");
        assert_eq!(req, 4, "the request reached the handler, so it counts");
        // The endpoint survives its handler's panic: the next call to it is
        // answered.
        let reply = fabric.call("flaky", Bytes::from_static(b"next")).unwrap();
        assert_eq!(&reply.header[..], b"next");
        let (rpcs, req, _rep, _bulk, failed) = fabric.stats().snapshot();
        assert_eq!((rpcs, failed, req), (1, 1, 8));
        assert!(fabric.is_up("flaky"));
    }

    #[test]
    fn a_loopback_handler_runs_on_the_calling_thread() {
        let fabric = Arc::new(Fabric::new());
        let handler: Arc<dyn RpcHandler> = Arc::new(|_req: Bytes| Reply {
            header: Bytes::from(format!("{:?}", std::thread::current().id())),
            bulk: None,
        });
        let _ep = fabric.serve("here", handler).unwrap();
        let callers: Vec<_> = (0..3)
            .map(|_| {
                let fabric = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    let reply = fabric.call("here", Bytes::new()).unwrap();
                    (format!("{:?}", std::thread::current().id()), reply.header)
                })
            })
            .collect();
        for caller in callers {
            let (me, ran_on) = caller.join().unwrap();
            assert_eq!(ran_on, me.as_bytes(), "handler ran off the caller's thread");
        }
    }

    #[test]
    fn timed_out_call_is_typed_rpc_timeout() {
        let fabric = Arc::new(Fabric::new());
        let handler: Arc<dyn RpcHandler> = Arc::new(|req: Bytes| {
            std::thread::sleep(Duration::from_millis(200));
            Reply {
                header: req,
                bulk: None,
            }
        });
        let _ep = fabric.serve("slow", handler).unwrap();
        let err = fabric
            .call_with_deadline("slow", Bytes::from_static(b"x"), Duration::from_millis(20))
            .unwrap_err();
        match err {
            HvacError::RpcTimeout { addr, elapsed } => {
                assert_eq!(addr, "slow");
                // On loopback the handler runs to completion on the calling
                // thread; only then is its late reply turned into a timeout.
                assert!(elapsed >= Duration::from_millis(200), "{elapsed:?}");
            }
            other => panic!("expected RpcTimeout, got {other}"),
        }
        assert!(err_is_retriable_sanity());
    }

    fn err_is_retriable_sanity() -> bool {
        HvacError::RpcTimeout {
            addr: String::new(),
            elapsed: Duration::ZERO,
        }
        .is_retriable()
    }

    #[test]
    fn hung_endpoint_times_out_within_deadline() {
        use crate::fault::FaultSpec;
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("wedged", echo_handler()).unwrap();
        fabric
            .fault_injector()
            .set("wedged", FaultSpec::always_hang(3));
        let start = std::time::Instant::now();
        let err = fabric
            .call_with_deadline(
                "wedged",
                Bytes::from_static(b"hi"),
                Duration::from_millis(30),
            )
            .unwrap_err();
        assert!(matches!(err, HvacError::RpcTimeout { .. }), "{err}");
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(30));
        assert!(
            waited < Duration::from_secs(5),
            "hang must cost one deadline, not the legacy 30 s: {waited:?}"
        );
        // The handler DID run (hang drops the reply, not the request).
        assert_eq!(fabric.stats().snapshot().1, 2, "request bytes delivered");
        // Clearing the plan restores service.
        fabric.fault_injector().clear("wedged");
        assert!(fabric.call("wedged", Bytes::from_static(b"ok")).is_ok());
    }

    #[test]
    fn dropped_request_never_reaches_the_server() {
        use crate::fault::FaultSpec;
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("hole", echo_handler()).unwrap();
        fabric
            .fault_injector()
            .set("hole", FaultSpec::always_drop(5));
        let err = fabric
            .call_with_deadline(
                "hole",
                Bytes::from_static(b"gone"),
                Duration::from_millis(10),
            )
            .unwrap_err();
        assert!(matches!(err, HvacError::RpcTimeout { .. }));
        assert_eq!(fabric.stats().snapshot().1, 0, "no request bytes moved");
        assert_eq!(fabric.fault_injector().injected(), 1);
    }

    #[test]
    fn injected_error_reply_is_fast_and_typed() {
        use crate::fault::FaultSpec;
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("flk", echo_handler()).unwrap();
        fabric.fault_injector().set(
            "flk",
            FaultSpec {
                error_prob: 1.0,
                seed: 9,
                ..FaultSpec::default()
            },
        );
        let start = std::time::Instant::now();
        let err = fabric.call("flk", Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, HvacError::Rpc(_)), "{err}");
        assert!(err.is_retriable());
        assert!(start.elapsed() < Duration::from_secs(1), "errors fail fast");
    }

    #[test]
    fn injected_delay_slows_but_still_answers() {
        use crate::fault::FaultSpec;
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("lag", echo_handler()).unwrap();
        fabric.fault_injector().set(
            "lag",
            FaultSpec {
                delay_prob: 1.0,
                delay: Duration::from_millis(15),
                seed: 4,
                ..FaultSpec::default()
            },
        );
        let start = std::time::Instant::now();
        let reply = fabric
            .call_with_deadline("lag", Bytes::from_static(b"x"), Duration::from_secs(2))
            .unwrap();
        assert_eq!(&reply.header[..], b"x");
        assert!(start.elapsed() >= Duration::from_millis(15));
        // A delay at or beyond the deadline is a timeout instead.
        fabric.fault_injector().set(
            "lag",
            FaultSpec {
                delay_prob: 1.0,
                delay: Duration::from_millis(50),
                seed: 4,
                ..FaultSpec::default()
            },
        );
        let err = fabric
            .call_with_deadline("lag", Bytes::from_static(b"x"), Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, HvacError::RpcTimeout { .. }));
    }

    #[test]
    fn set_down_wins_over_fault_plans() {
        use crate::fault::FaultSpec;
        let fabric = Arc::new(Fabric::new());
        let ep = fabric.serve("d", echo_handler()).unwrap();
        fabric.fault_injector().set("d", FaultSpec::always_hang(1));
        ep.set_down(true);
        let start = std::time::Instant::now();
        let err = fabric.call("d", Bytes::new()).unwrap_err();
        assert!(matches!(err, HvacError::ServerDown(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "down endpoints fail fast even when a hang plan is installed"
        );
    }

    #[test]
    fn injected_crash_latches_the_endpoint_down() {
        use crate::fault::FaultSpec;
        let fabric = Arc::new(Fabric::new());
        let _ep = fabric.serve("doomed", echo_handler()).unwrap();
        fabric
            .fault_injector()
            .set("doomed", FaultSpec::always_crash(11));
        let start = std::time::Instant::now();
        let err = fabric.call("doomed", Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, HvacError::ServerDown(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "crashes fail fast"
        );
        // The crash persists: later calls fail on the liveness check without
        // consuming further fault draws.
        assert!(!fabric.is_up("doomed"));
        assert!(fabric.call("doomed", Bytes::new()).is_err());
        assert_eq!(fabric.fault_injector().injected_for("doomed"), 1);
        // An explicit revive (restart) restores service once the plan is gone.
        fabric.fault_injector().clear("doomed");
        assert!(fabric.set_down("doomed", false));
        assert!(fabric.call("doomed", Bytes::from_static(b"ok")).is_ok());
    }

    #[test]
    fn bulk_bytes_are_accounted() {
        let fabric = Arc::new(Fabric::new());
        let handler: Arc<dyn RpcHandler> = Arc::new(|_req: Bytes| Reply {
            header: Bytes::from_static(b"ok"),
            bulk: Some(Bulk::from(vec![
                Bytes::from(vec![0u8; 1000]),
                Bytes::from(vec![1u8; 24]),
            ])),
        });
        let _ep = fabric.serve("bulk", handler).unwrap();
        let reply = fabric.call("bulk", Bytes::new()).unwrap();
        // Loopback hands the parts over as they are; the ledger counts
        // their sum.
        let bulk = reply.bulk.unwrap();
        assert_eq!((bulk.parts().len(), bulk.len()), (2, 1024));
        assert_eq!(fabric.stats().snapshot().3, 1024);
    }
}
