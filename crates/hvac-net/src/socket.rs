//! Real socket transport: TCP and Unix-domain streams behind the [`Fabric`]
//! abstraction.
//!
//! The loopback fabric models Mercury with in-process queues; this module
//! carries the same RPCs over real stream sockets using the length-prefixed
//! frames of [`crate::framing`]. The design mirrors Mercury's connection
//! model:
//!
//! * **Endpoint registry** — logical names (`node0/srv0`) map to concrete
//!   [`EndpointUri`]s (`tcp:127.0.0.1:4123`, `unix:/tmp/hvac-7-0.sock`),
//!   registered either by a local [`SocketBackend::serve`] (which binds and
//!   records its actual address) or externally via config/env
//!   (`HVAC_ENDPOINTS`) for cross-process clients.
//! * **Connection pool** — one multiplexed connection per destination URI.
//!   Concurrent callers write frames under a per-connection writer lock,
//!   tagged with a connection-local request id; a reader thread demuxes
//!   reply frames back to per-call channels. Dead connections are replaced
//!   lazily on the next call.
//! * **Server core** — an accept loop (non-blocking, so shutdown is a flag
//!   flip away), one frame-decoder thread per accepted connection, and
//!   exactly `workers` handler threads draining a shared job queue — the
//!   same shared-FIFO shape as the loopback fabric and the paper's server.
//!
//! Lock discipline: the three socket classes (`NET_SOCKET_POOL`,
//! `NET_SOCKET_CONN`, `NET_SOCKET_WRITER`) are *leaves* of the `hvac-sync`
//! hierarchy. Every guard here lives in its own block and is dropped before
//! connecting, spawning, sending, or sleeping, so the socket path adds zero
//! edges to the static lock graph. The buffer pool's internal `NET_POOL`
//! free-list mutex is likewise only ever held inside `acquire`/release with
//! no socket lock held, so pooled frame reads keep that property. A reply
//! is written under the writer lock as its frame prefix plus the bulk's
//! parts in vectored writes, with no pooled or copied frame buffer.

use crate::fabric::{FabricStats, Reply, RpcHandler};
use crate::framing;
use crate::pool::BufferPool;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use hvac_sync::{classes, OrderedMutex, OrderedRwLock};
use hvac_types::{HvacError, Result};
use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which address family a socket fabric binds by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFamily {
    /// TCP on 127.0.0.1 (ephemeral ports unless told otherwise).
    Tcp,
    /// Unix-domain stream sockets under the system temp directory.
    Unix,
}

/// Knobs of a socket-backed fabric.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Address family used when `serve` has to pick its own bind address.
    pub family: SocketFamily,
    /// Per-frame body cap enforced by every encoder and decoder.
    pub max_frame: usize,
    /// Slab pool backing frame reads on this fabric; `None` falls back to
    /// per-frame heap allocation (the legacy path, kept for the
    /// zero-copy-off benchmark arm and differential tests).
    pub pool: Option<BufferPool>,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            family: SocketFamily::Tcp,
            max_frame: framing::DEFAULT_MAX_FRAME,
            pool: Some(BufferPool::new()),
        }
    }
}

/// A concrete socket address in `tcp:host:port` / `unix:/path` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointUri {
    /// `host:port` for a TCP endpoint.
    Tcp(String),
    /// Filesystem path of a Unix-domain socket.
    Unix(PathBuf),
}

impl EndpointUri {
    /// Parse `tcp:host:port` or `unix:/path`.
    pub fn parse(s: &str) -> Result<Self> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest
                .rsplit_once(':')
                .is_none_or(|(h, p)| h.is_empty() || p.parse::<u16>().is_err())
            {
                return Err(HvacError::InvalidConfig(format!(
                    "bad TCP endpoint {s:?} (want tcp:host:port)"
                )));
            }
            Ok(EndpointUri::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err(HvacError::InvalidConfig(format!(
                    "bad Unix endpoint {s:?} (want unix:/path)"
                )));
            }
            Ok(EndpointUri::Unix(PathBuf::from(rest)))
        } else {
            Err(HvacError::InvalidConfig(format!(
                "unknown endpoint scheme in {s:?} (want tcp: or unix:)"
            )))
        }
    }
}

impl std::fmt::Display for EndpointUri {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndpointUri::Tcp(hp) => write!(f, "tcp:{hp}"),
            EndpointUri::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Parse an `HVAC_ENDPOINTS`-style list: `name=uri` pairs separated by `;`
/// or `,` (socket paths therefore must not contain either), e.g.
/// `node0/srv0=tcp:127.0.0.1:4123;node1/srv0=unix:/tmp/h.sock`.
pub fn parse_endpoint_list(spec: &str) -> Result<Vec<(String, EndpointUri)>> {
    let mut out = Vec::new();
    for item in spec.split([';', ',']) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let Some((name, uri)) = item.split_once('=') else {
            return Err(HvacError::InvalidConfig(format!(
                "bad endpoint entry {item:?} (want name=uri)"
            )));
        };
        out.push((name.trim().to_string(), EndpointUri::parse(uri.trim())?));
    }
    Ok(out)
}

/// Endpoint list from the `HVAC_ENDPOINTS` environment variable (empty when
/// unset).
pub fn endpoints_from_env() -> Result<Vec<(String, EndpointUri)>> {
    match std::env::var("HVAC_ENDPOINTS") {
        Ok(v) => parse_endpoint_list(&v),
        Err(_) => Ok(Vec::new()),
    }
}

/// One live stream of either family, unified behind `Read`/`Write`.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn connect(uri: &EndpointUri) -> std::io::Result<Self> {
        match uri {
            EndpointUri::Tcp(hp) => {
                let s = TcpStream::connect(hp.as_str())?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            EndpointUri::Unix(p) => Ok(Stream::Unix(UnixStream::connect(p)?)),
        }
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

struct SocketEndpointEntry {
    uri: EndpointUri,
    served: bool,
    down: Arc<AtomicBool>,
}

/// One call's time budget: the total deadline and when the call started.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallClock {
    /// The caller's whole deadline for this RPC.
    pub(crate) deadline: Duration,
    /// When the fabric accepted the call.
    pub(crate) start: Instant,
}

impl CallClock {
    /// What is left of the budget right now.
    fn remaining(self) -> Duration {
        self.deadline.saturating_sub(self.start.elapsed())
    }
}

/// The socket half of [`crate::fabric::Fabric`]: endpoint registry plus
/// client connection pool. Fault injection, stats, and the down-latch
/// semantics live in the shared fabric prologue so they behave identically
/// on both backends.
pub(crate) struct SocketBackend {
    config: SocketConfig,
    endpoints: OrderedRwLock<HashMap<String, SocketEndpointEntry>>,
    pool: OrderedMutex<HashMap<String, Arc<Connection>>>,
}

impl SocketBackend {
    pub(crate) fn new(config: SocketConfig) -> Self {
        Self {
            config,
            endpoints: OrderedRwLock::new(classes::FABRIC_ENDPOINTS, HashMap::new()),
            pool: OrderedMutex::new(classes::NET_SOCKET_POOL, HashMap::new()),
        }
    }

    /// Record (or overwrite) the concrete address of a logical endpoint.
    /// The down-latch of an existing entry survives, so re-registering an
    /// address never silently revives a crashed endpoint.
    pub(crate) fn register_endpoint(&self, addr: &str, uri: EndpointUri) {
        let mut eps = self.endpoints.write();
        match eps.get_mut(addr) {
            Some(entry) => entry.uri = uri,
            None => {
                eps.insert(
                    addr.to_string(),
                    SocketEndpointEntry {
                        uri,
                        served: false,
                        down: Arc::new(AtomicBool::new(false)),
                    },
                );
            }
        }
    }

    /// `(uri, down-latch)` of a registered endpoint.
    pub(crate) fn resolve(&self, addr: &str) -> Option<(EndpointUri, Arc<AtomicBool>)> {
        let eps = self.endpoints.read();
        eps.get(addr).map(|e| (e.uri.clone(), e.down.clone()))
    }

    pub(crate) fn endpoint_uri(&self, addr: &str) -> Option<String> {
        let eps = self.endpoints.read();
        eps.get(addr).map(|e| e.uri.to_string())
    }

    pub(crate) fn set_down(&self, addr: &str, down: bool) -> bool {
        let eps = self.endpoints.read();
        match eps.get(addr) {
            Some(e) => {
                e.down.store(down, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    pub(crate) fn is_up(&self, addr: &str) -> bool {
        let eps = self.endpoints.read();
        eps.get(addr)
            .map(|e| !e.down.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    pub(crate) fn endpoint_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.endpoints.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub(crate) fn unregister(&self, addr: &str) {
        self.endpoints.write().remove(addr);
    }

    /// Bind a listener for `addr` (honouring a pre-registered address, else
    /// an ephemeral one of the configured family), record the actual bound
    /// address in the registry, and spawn the accept/worker threads.
    pub(crate) fn serve(
        &self,
        addr: &str,
        workers: usize,
        handler: Arc<dyn RpcHandler>,
    ) -> Result<(ServerCore, Arc<AtomicBool>)> {
        let hint = {
            let eps = self.endpoints.read();
            match eps.get(addr) {
                Some(e) if e.served => {
                    return Err(HvacError::InvalidConfig(format!(
                        "endpoint {addr} already registered"
                    )));
                }
                Some(e) => Some(e.uri.clone()),
                None => None,
            }
        };
        let listen = match hint {
            Some(uri) => uri,
            None => match self.config.family {
                SocketFamily::Tcp => EndpointUri::Tcp("127.0.0.1:0".to_string()),
                SocketFamily::Unix => EndpointUri::Unix(ephemeral_unix_path()),
            },
        };
        let (listener, actual, uds_path) = Listener::bind(&listen).map_err(HvacError::Io)?;
        let down = Arc::new(AtomicBool::new(false));
        {
            let mut eps = self.endpoints.write();
            if eps.get(addr).is_some_and(|e| e.served) {
                drop(eps);
                if let Some(p) = &uds_path {
                    let _ = std::fs::remove_file(p);
                }
                return Err(HvacError::InvalidConfig(format!(
                    "endpoint {addr} already registered"
                )));
            }
            eps.insert(
                addr.to_string(),
                SocketEndpointEntry {
                    uri: actual.clone(),
                    served: true,
                    down: down.clone(),
                },
            );
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let (jobs_tx, jobs_rx) = unbounded::<ServerJob>();
        let conns = Arc::new(OrderedMutex::new(classes::NET_SOCKET_CONN, Vec::new()));
        let readers = Arc::new(OrderedMutex::new(classes::FABRIC_THREADS, Vec::new()));

        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx: Receiver<ServerJob> = jobs_rx.clone();
            let handler = handler.clone();
            let max_frame = self.config.max_frame;
            let name = format!("hvac-sock-{addr}-{w}");
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || server_worker(rx, handler, max_frame));
            match spawned {
                Ok(h) => worker_handles.push(h),
                Err(e) => {
                    self.unregister(addr);
                    drop(jobs_tx);
                    for t in worker_handles {
                        let _ = t.join();
                    }
                    if let Some(p) = &uds_path {
                        let _ = std::fs::remove_file(p);
                    }
                    return Err(HvacError::Io(e));
                }
            }
        }

        let accept = {
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            let readers = readers.clone();
            let max_frame = self.config.max_frame;
            let pool = self.config.pool.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("hvac-sock-accept-{addr}"))
                .spawn(move || {
                    accept_loop(listener, shutdown, jobs_tx, conns, readers, max_frame, pool)
                });
            match spawned {
                Ok(h) => h,
                Err(e) => {
                    self.unregister(addr);
                    // jobs_tx moved into the failed spawn closure and is
                    // gone; the workers drain and exit.
                    for t in worker_handles {
                        let _ = t.join();
                    }
                    if let Some(p) = &uds_path {
                        let _ = std::fs::remove_file(p);
                    }
                    return Err(HvacError::Io(e));
                }
            }
        };

        Ok((
            ServerCore {
                shutdown,
                accept: Some(accept),
                workers: worker_handles,
                readers,
                conns,
                uds_path,
            },
            down,
        ))
    }

    /// Send one framed request over the pooled connection and wait for its
    /// demuxed reply. `request_bytes` is bumped only after the frame is on
    /// the wire, preserving the fabric's stats-ledger invariant.
    pub(crate) fn dispatch(
        &self,
        addr: &str,
        uri: &EndpointUri,
        request: Bytes,
        clock: CallClock,
        discard_reply: bool,
        stats: &FabricStats,
    ) -> Result<Reply> {
        let conn = self.connection(addr, uri)?;
        let deadline_ms = u32::try_from(clock.remaining().as_millis())
            .unwrap_or(u32::MAX)
            .max(1);
        let (req_id, reply_rx) = conn.begin();
        let frame = framing::encode_request(req_id, deadline_ms, &request, self.config.max_frame)?;
        if let Err(e) = conn.send_frame(&frame) {
            conn.forget(req_id);
            conn.mark_dead();
            return Err(HvacError::ServerDown(format!("{addr} (send failed: {e})")));
        }
        stats
            .request_bytes
            .fetch_add(request.len() as u64, Ordering::Relaxed);
        if discard_reply {
            // Hung server: the request was delivered (the handler will run)
            // but the reply is abandoned — wait out the caller's deadline
            // exactly as the loopback fabric does.
            conn.forget(req_id);
            std::thread::sleep(clock.remaining());
            return Err(HvacError::RpcTimeout {
                addr: addr.to_string(),
                elapsed: clock.start.elapsed(),
            });
        }
        match reply_rx.recv_timeout(clock.remaining()) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Timeout) => {
                conn.forget(req_id);
                Err(HvacError::RpcTimeout {
                    addr: addr.to_string(),
                    elapsed: clock.start.elapsed(),
                })
            }
            Err(RecvTimeoutError::Disconnected) => Err(HvacError::Rpc(format!(
                "{addr}: connection closed mid-call"
            ))),
        }
    }

    /// The pooled connection for `uri`, dialling a fresh one (outside any
    /// lock) when none exists or the cached one has died.
    fn connection(&self, addr: &str, uri: &EndpointUri) -> Result<Arc<Connection>> {
        let key = uri.to_string();
        let existing = {
            let pool = self.pool.lock();
            pool.get(&key).cloned()
        };
        if let Some(c) = &existing {
            if !c.is_dead() {
                return Ok(c.clone());
            }
        }
        let fresh = Connection::connect(uri, self.config.max_frame, self.config.pool.clone())
            .map(Arc::new)
            .map_err(|e| HvacError::ServerDown(format!("{addr} ({key}: {e})")))?;
        let winner = {
            let mut pool = self.pool.lock();
            match pool.get(&key) {
                Some(c) if !c.is_dead() => c.clone(),
                _ => {
                    pool.insert(key, fresh.clone());
                    fresh.clone()
                }
            }
        };
        Ok(winner)
    }
}

impl Drop for SocketBackend {
    fn drop(&mut self) {
        // Tear down pooled connections so their reader threads exit.
        let conns: Vec<Arc<Connection>> = {
            let mut pool = self.pool.lock();
            pool.drain().map(|(_, c)| c).collect()
        };
        drop(conns);
    }
}

/// Ephemeral Unix socket path: unique per process × sequence number, short
/// enough for the 108-byte `sun_path` limit.
fn ephemeral_unix_path() -> PathBuf {
    static UDS_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = UDS_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hvac-{}-{seq}.sock", std::process::id()))
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Bind (non-blocking) and report the actual address plus the socket
    /// file to unlink at teardown, if any. A stale Unix socket file from a
    /// dead process is removed and the bind retried once.
    fn bind(uri: &EndpointUri) -> std::io::Result<(Self, EndpointUri, Option<PathBuf>)> {
        match uri {
            EndpointUri::Tcp(hp) => {
                let l = TcpListener::bind(hp.as_str())?;
                l.set_nonblocking(true)?;
                let actual = EndpointUri::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), actual, None))
            }
            EndpointUri::Unix(path) => {
                let l = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(e),
                };
                l.set_nonblocking(true)?;
                Ok((
                    Listener::Unix(l),
                    EndpointUri::Unix(path.clone()),
                    Some(path.clone()),
                ))
            }
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

struct ServerJob {
    writer: Arc<OrderedMutex<Stream>>,
    req_id: u64,
    deadline_ms: u32,
    received: Instant,
    payload: Bytes,
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: Listener,
    shutdown: Arc<AtomicBool>,
    jobs: Sender<ServerJob>,
    conns: Arc<OrderedMutex<Vec<Stream>>>,
    readers: Arc<OrderedMutex<Vec<JoinHandle<()>>>>,
    max_frame: usize,
    pool: Option<BufferPool>,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(stream) => {
                let keeper = match stream.try_clone() {
                    Ok(c) => c,
                    Err(_) => continue,
                };
                {
                    conns.lock().push(keeper);
                }
                let jobs = jobs.clone();
                let pool = pool.clone();
                let spawned = std::thread::Builder::new()
                    .name("hvac-sock-conn".to_string())
                    .spawn(move || conn_reader(stream, jobs, max_frame, pool));
                if let Ok(h) = spawned {
                    // lockgraph: readers -> FABRIC_THREADS
                    readers.lock().push(h);
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection frame decoder: turns valid request frames into jobs for
/// the worker pool; any protocol violation or I/O failure drops the whole
/// connection (a desynced stream cannot be re-synchronized).
fn conn_reader(
    stream: Stream,
    jobs: Sender<ServerJob>,
    max_frame: usize,
    pool: Option<BufferPool>,
) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(OrderedMutex::new(classes::NET_SOCKET_WRITER, w)),
        Err(_) => return,
    };
    let mut r = stream;
    while let Ok(Some(body)) = framing::read_frame_pooled(&mut r, max_frame, pool.as_ref()) {
        let req = match framing::decode_request(body) {
            Ok(req) => req,
            Err(_) => break,
        };
        let job = ServerJob {
            writer: writer.clone(),
            req_id: req.req_id,
            deadline_ms: req.deadline_ms,
            received: Instant::now(),
            payload: req.payload,
        };
        if jobs.send(job).is_err() {
            break;
        }
    }
    let _ = r.shutdown();
}

fn server_worker(jobs: Receiver<ServerJob>, handler: Arc<dyn RpcHandler>, max_frame: usize) {
    while let Ok(job) = jobs.recv() {
        // The wire deadline rode along for exactly this: a job that waited
        // in queue past its caller's whole budget has no one left to answer.
        if job.received.elapsed() > Duration::from_millis(u64::from(job.deadline_ms)) {
            continue;
        }
        let reply = handler.handle(job.payload);
        // Prefix plus the bulk's own parts, gathered into vectored writes:
        // the bytes the handler returned go to the kernel uncopied. An
        // over-cap reply is dropped unwritten and its caller times out.
        let mut w = job.writer.lock();
        let _ = framing::write_reply(&mut *w, job.req_id, &reply, max_frame);
    }
}

/// Server-side half of one socket endpoint: owns the accept loop, the
/// per-connection readers, and the worker pool. Dropping it stops the
/// listener, shuts every open connection, joins all threads, and unlinks
/// the Unix socket file.
pub(crate) struct ServerCore {
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Arc<OrderedMutex<Vec<JoinHandle<()>>>>,
    conns: Arc<OrderedMutex<Vec<Stream>>>,
    uds_path: Option<PathBuf>,
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let open = {
            let mut guard = self.conns.lock();
            std::mem::take(&mut *guard)
        };
        for c in &open {
            let _ = c.shutdown();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let reader_handles = {
            // lockgraph: self.readers -> FABRIC_THREADS
            let mut guard = self.readers.lock();
            std::mem::take(&mut *guard)
        };
        for h in reader_handles {
            let _ = h.join();
        }
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

struct ConnShared {
    writer: OrderedMutex<Stream>,
    pending: OrderedMutex<HashMap<u64, Sender<Reply>>>,
    next_id: AtomicU64,
    dead: AtomicBool,
    max_frame: usize,
    pool: Option<BufferPool>,
}

/// One multiplexed client connection: a writer half shared by concurrent
/// callers and a reader thread that routes reply frames to the pending
/// call with the matching request id.
struct Connection {
    shared: Arc<ConnShared>,
    reader: OrderedMutex<Option<JoinHandle<()>>>,
}

impl Connection {
    fn connect(
        uri: &EndpointUri,
        max_frame: usize,
        pool: Option<BufferPool>,
    ) -> std::io::Result<Connection> {
        let stream = Stream::connect(uri)?;
        let rstream = stream.try_clone()?;
        let shared = Arc::new(ConnShared {
            writer: OrderedMutex::new(classes::NET_SOCKET_WRITER, stream),
            pending: OrderedMutex::new(classes::NET_SOCKET_CONN, HashMap::new()),
            next_id: AtomicU64::new(1),
            dead: AtomicBool::new(false),
            max_frame,
            pool,
        });
        let for_reader = shared.clone();
        let handle = std::thread::Builder::new()
            .name("hvac-sock-reader".to_string())
            .spawn(move || client_reader(rstream, for_reader))?;
        Ok(Connection {
            shared,
            reader: OrderedMutex::new(classes::FABRIC_THREADS, Some(handle)),
        })
    }

    /// Allocate a request id and park a reply slot for it.
    fn begin(&self) -> (u64, Receiver<Reply>) {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded::<Reply>(1);
        {
            self.shared.pending.lock().insert(id, tx);
        }
        (id, rx)
    }

    fn forget(&self, id: u64) {
        self.shared.pending.lock().remove(&id);
    }

    fn send_frame(&self, frame: &[u8]) -> std::io::Result<()> {
        let mut w = self.shared.writer.lock();
        w.write_all(frame)?;
        w.flush()
    }

    fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Relaxed)
    }

    fn mark_dead(&self) {
        self.shared.dead.store(true, Ordering::Relaxed);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.mark_dead();
        {
            let w = self.shared.writer.lock();
            let _ = w.shutdown();
        }
        let handle = {
            let mut guard = self.reader.lock();
            guard.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// Client-side demux loop: one per connection. Exits (and wakes every
/// pending caller with a disconnect) on EOF, I/O failure, or the first
/// protocol violation.
fn client_reader(mut r: Stream, shared: Arc<ConnShared>) {
    while let Ok(Some(body)) =
        framing::read_frame_pooled(&mut r, shared.max_frame, shared.pool.as_ref())
    {
        let rf = match framing::decode_reply(body) {
            Ok(rf) => rf,
            Err(_) => break,
        };
        let slot = {
            let mut pending = shared.pending.lock();
            pending.remove(&rf.req_id)
        };
        if let Some(tx) = slot {
            let _ = tx.send(rf.reply);
        }
    }
    shared.dead.store(true, Ordering::Relaxed);
    let _ = r.shutdown();
    let waiters = {
        let mut pending = shared.pending.lock();
        std::mem::take(&mut *pending)
    };
    // Dropping the senders disconnects every parked caller immediately.
    drop(waiters);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_uri_parse_and_display_round_trip() {
        for s in ["tcp:127.0.0.1:4123", "unix:/tmp/h.sock"] {
            assert_eq!(EndpointUri::parse(s).unwrap().to_string(), s);
        }
        for bad in [
            "tcp:nohost",
            "tcp::99",
            "tcp:h:notaport",
            "unix:",
            "ib:x",
            "",
        ] {
            assert!(EndpointUri::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn endpoint_list_parses_both_separators() {
        let got = parse_endpoint_list("a=tcp:127.0.0.1:1; b=unix:/tmp/x.sock , c=tcp:127.0.0.1:2,")
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, "a");
        assert_eq!(got[1].1, EndpointUri::Unix(PathBuf::from("/tmp/x.sock")));
        assert!(parse_endpoint_list("justaname").is_err());
    }

    #[test]
    fn ephemeral_unix_paths_are_unique_and_short() {
        let a = ephemeral_unix_path();
        let b = ephemeral_unix_path();
        assert_ne!(a, b);
        assert!(a.as_os_str().len() < 100, "{a:?} too long for sun_path");
    }
}
