//! Real socket transport: TCP and Unix-domain streams behind the [`Fabric`]
//! abstraction.
//!
//! The loopback fabric runs a handler on the caller's thread; this module
//! carries the same RPCs over real stream sockets using the length-prefixed
//! frames of [`crate::framing`]. The fabric's endpoint table maps each
//! logical name to the [`EndpointUri`] a call dials; this module does the
//! socket work only. A call is answered on the thread that made it, at both
//! ends:
//!
//! * **Connection pool** — per destination URI, a stack of idle
//!   connections, each carrying one call at a time. A call checks one out
//!   (dialling when none is idle), writes its request frame, reads its own
//!   reply with the socket timeout armed to what is left of its deadline,
//!   and checks the connection back in. A connection whose call failed,
//!   timed out or was abandoned by an injected Hang is closed instead, so a
//!   late reply can never reach a later call. A pooled connection that its
//!   peer closed before any reply byte arrived is redialled once: every
//!   HVAC request (read, stat, prefetch, purge) is idempotent.
//! * **Server core** — an accept loop (non-blocking, so shutdown is a flag
//!   flip away) and one thread per accepted connection that reads a
//!   request, runs the handler and writes the reply, in order. A client
//!   sends a connection's next request only after reading the previous
//!   reply, so a slow call stalls only its own caller. Each connection
//!   thread drops its registry entry when the connection ends.
//!
//! Lock discipline: the two socket classes (`NET_SOCKET_POOL`,
//! `NET_SOCKET_CONN`) are *leaves* of the `hvac-sync` hierarchy. Every
//! guard here lives in one expression or block of its own and is dropped
//! before connecting, spawning, sending, or sleeping, so the socket path
//! adds zero edges to the static lock graph. The buffer pool's internal
//! `NET_POOL` free-list mutex is likewise only ever held inside
//! `acquire`/release with no socket lock held, so pooled frame reads keep
//! that property. A reply is written as its frame prefix plus the bulk's
//! parts in vectored writes, with no pooled or copied frame buffer.

use crate::fabric::{FabricStats, Reply, RpcHandler};
use crate::framing;
use crate::pool::BufferPool;
use bytes::Bytes;
use hvac_sync::{classes, OrderedMutex};
use hvac_types::{HvacError, Result};
use std::collections::HashMap;
use std::io::{ErrorKind, IoSlice, Read, Write};
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
    /// Slab pool backing frame reads on this fabric.
    pub pool: BufferPool,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            family: SocketFamily::Tcp,
            max_frame: framing::DEFAULT_MAX_FRAME,
            pool: BufferPool::new(),
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

    fn set_read_timeout(&self, t: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(t)),
            Stream::Unix(s) => s.set_read_timeout(Some(t)),
        }
    }

    fn set_write_timeout(&self, t: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(Some(t)),
            Stream::Unix(s) => s.set_write_timeout(Some(t)),
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

    fn timeout(self, addr: &str) -> HvacError {
        HvacError::RpcTimeout {
            addr: addr.to_string(),
            elapsed: self.start.elapsed(),
        }
    }
}

/// One call's view of its connection: every read and write first arms the
/// socket timeout with what is left of the call's deadline, so a peer that
/// stalls — before its reply or in the middle of one — costs the caller its
/// deadline and no more.
struct Timed<'a> {
    stream: &'a mut Stream,
    clock: CallClock,
    /// Reply bytes read so far.
    read: usize,
    /// Whether the deadline ran out inside a read or write.
    timed_out: bool,
}

impl Timed<'_> {
    /// What is left of the budget, or a `TimedOut` error once it is spent.
    fn left(&mut self) -> std::io::Result<Duration> {
        let left = self.clock.remaining();
        if left.is_zero() {
            self.timed_out = true;
            return Err(ErrorKind::TimedOut.into());
        }
        Ok(left)
    }

    fn note<T>(&mut self, r: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(e) = &r {
            // An expired SO_RCVTIMEO/SO_SNDTIMEO surfaces as EAGAIN.
            self.timed_out |= matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
        }
        r
    }
}

impl Read for Timed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.left()?;
        self.stream.set_read_timeout(left)?;
        let r = self.stream.read(buf);
        let n = self.note(r)?;
        self.read += n;
        Ok(n)
    }
}

impl Write for Timed<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let left = self.left()?;
        self.stream.set_write_timeout(left)?;
        let r = self.stream.write(buf);
        self.note(r)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// The socket half of [`crate::fabric::Fabric`]: listeners and the client
/// connection pool. The endpoint table, fault injection, stats and the
/// down-latches live in the fabric, so they behave identically on both
/// transports.
pub(crate) struct SocketBackend {
    config: SocketConfig,
    /// Idle connections by destination URI; the last one checked in is the
    /// first checked out, so a lone caller keeps reusing one connection.
    idle: OrderedMutex<HashMap<String, Vec<Stream>>>,
    /// Request ids: the reply echoes its request's id, and a caller checks it.
    next_req_id: AtomicU64,
}

impl SocketBackend {
    pub(crate) fn new(config: SocketConfig) -> Self {
        Self {
            config,
            idle: OrderedMutex::new(classes::NET_SOCKET_POOL, HashMap::new()),
            next_req_id: AtomicU64::new(1),
        }
    }

    /// Bind a listener for endpoint `addr` at `registered` (else at an
    /// ephemeral address of the configured family) and spawn its accept
    /// thread. Returns the running core and the address actually bound.
    pub(crate) fn serve(
        &self,
        addr: &str,
        registered: Option<EndpointUri>,
        handler: Arc<dyn RpcHandler>,
    ) -> Result<(ServerCore, EndpointUri)> {
        let listen = registered.unwrap_or_else(|| match self.config.family {
            SocketFamily::Tcp => EndpointUri::Tcp("127.0.0.1:0".to_string()),
            SocketFamily::Unix => EndpointUri::Unix(ephemeral_unix_path()),
        });
        let (listener, actual, uds_path) = Listener::bind(&listen).map_err(HvacError::Io)?;
        let mut core = ServerCore {
            shutdown: Arc::new(AtomicBool::new(false)),
            accept: None,
            readers: Arc::new(OrderedMutex::new(classes::FABRIC_THREADS, Vec::new())),
            shared: Arc::new(ServerShared {
                handler,
                max_frame: self.config.max_frame,
                pool: self.config.pool.clone(),
                conns: OrderedMutex::new(classes::NET_SOCKET_CONN, HashMap::new()),
            }),
            uds_path,
        };
        let (shutdown, shared, readers) = (
            core.shutdown.clone(),
            core.shared.clone(),
            core.readers.clone(),
        );
        // On a failed spawn the core drops here, unlinking its socket file.
        let accept = std::thread::Builder::new()
            .name(format!("hvac-sock-accept-{addr}"))
            .spawn(move || accept_loop(listener, shutdown, shared, readers))
            .map_err(HvacError::Io)?;
        core.accept = Some(accept);
        Ok((core, actual))
    }

    /// Send one framed request on a connection of this caller's own and
    /// read its reply on this thread. `request_bytes` is bumped only once
    /// the frame is on the wire (and not for an attempt that is redialled),
    /// preserving the fabric's stats-ledger invariant.
    pub(crate) fn dispatch(
        &self,
        addr: &str,
        uri: &EndpointUri,
        request: Bytes,
        clock: CallClock,
        discard_reply: bool,
        stats: &FabricStats,
    ) -> Result<Reply> {
        let deadline_ms = u32::try_from(clock.remaining().as_millis())
            .unwrap_or(u32::MAX)
            .max(1);
        let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed);
        let frame = framing::encode_request(req_id, deadline_ms, &request, self.config.max_frame)?;
        let key = uri.to_string();
        let mut pooled = self.idle.lock().get_mut(&key).and_then(Vec::pop);
        loop {
            // Only a pooled connection gets a second try: its peer may have
            // closed it while it sat idle. A fresh dial's answer is final.
            let may_redial = pooled.is_some();
            let mut stream = match pooled.take() {
                Some(s) => s,
                None => {
                    let s = Stream::connect(uri)
                        .map_err(|e| HvacError::ServerDown(format!("{addr} ({key}: {e})")))?;
                    stats.connects.fetch_add(1, Ordering::Relaxed);
                    s
                }
            };
            let mut conn = Timed {
                stream: &mut stream,
                clock,
                read: 0,
                timed_out: false,
            };
            if let Err(e) = conn.write_all(&frame).and_then(|()| conn.flush()) {
                if conn.timed_out {
                    return Err(clock.timeout(addr));
                }
                if may_redial {
                    continue;
                }
                return Err(HvacError::ServerDown(format!("{addr} (send failed: {e})")));
            }
            if discard_reply {
                // Hung server: the request was delivered (the handler will
                // run) but the reply is abandoned with its connection — wait
                // out the caller's deadline exactly as the loopback fabric
                // does.
                stats
                    .request_bytes
                    .fetch_add(request.len() as u64, Ordering::Relaxed);
                drop(stream);
                std::thread::sleep(clock.remaining());
                return Err(clock.timeout(addr));
            }
            let got = framing::read_frame_pooled(
                &mut conn,
                self.config.max_frame,
                Some(&self.config.pool),
            );
            let (read, timed_out) = (conn.read, conn.timed_out);
            if may_redial
                && read == 0
                && !timed_out
                && matches!(got, Ok(None) | Err(HvacError::Io(_)))
            {
                continue;
            }
            stats
                .request_bytes
                .fetch_add(request.len() as u64, Ordering::Relaxed);
            let reply = match got {
                Ok(Some(body)) => match framing::decode_reply(body) {
                    Ok(rf) if rf.req_id == req_id => rf.reply,
                    Ok(rf) => {
                        return Err(HvacError::Rpc(format!(
                            "{addr}: reply to request {} arrived for request {req_id}",
                            rf.req_id
                        )))
                    }
                    Err(e) => return Err(HvacError::Rpc(format!("{addr}: {e}"))),
                },
                _ if timed_out => return Err(clock.timeout(addr)),
                Ok(None) => {
                    return Err(HvacError::Rpc(format!(
                        "{addr}: connection closed mid-call"
                    )))
                }
                Err(e) => {
                    return Err(HvacError::Rpc(format!(
                        "{addr}: connection failed mid-call ({e})"
                    )))
                }
            };
            self.idle.lock().entry(key).or_default().push(stream);
            return Ok(reply);
        }
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
                    Err(e) if e.kind() == ErrorKind::AddrInUse => {
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

/// What every connection thread of one served endpoint shares.
struct ServerShared {
    handler: Arc<dyn RpcHandler>,
    max_frame: usize,
    pool: BufferPool,
    /// A clone of each open connection, by id, so teardown can shut it
    /// down; its thread removes the entry when the connection ends.
    conns: OrderedMutex<HashMap<u64, Stream>>,
}

fn accept_loop(
    listener: Listener,
    shutdown: Arc<AtomicBool>,
    shared: Arc<ServerShared>,
    readers: Arc<OrderedMutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    while !shutdown.load(Ordering::Relaxed) {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
        };
        let Ok(keeper) = stream.try_clone() else {
            continue;
        };
        next_id += 1;
        let id = next_id;
        shared.conns.lock().insert(id, keeper);
        let for_conn = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("hvac-sock-conn".to_string())
            .spawn(move || serve_connection(stream, id, &for_conn));
        let Ok(handle) = spawned else {
            let keeper = shared.conns.lock().remove(&id);
            drop(keeper);
            continue;
        };
        // Reap the threads of connections that have ended.
        let ended = {
            // lockgraph: readers -> FABRIC_THREADS
            let mut live = readers.lock();
            let (ended, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *live)
                .into_iter()
                .partition(|h| h.is_finished());
            *live = running;
            live.push(handle);
            ended
        };
        for h in ended {
            let _ = h.join();
        }
    }
}

/// Removes a connection's registry entry when its thread ends, however it
/// ends (a panicking handler included).
struct Registered<'a> {
    conns: &'a OrderedMutex<HashMap<u64, Stream>>,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        let keeper = self.conns.lock().remove(&self.id);
        drop(keeper);
    }
}

/// One connection's whole life on the server: read a request, run the
/// handler, write the reply — in order, on this thread. Any protocol
/// violation or I/O failure ends the connection (a desynced stream cannot
/// be re-synchronized). The wire's `deadline_ms` is not consulted: the
/// request is read as soon as it arrives, so it never waits in a queue.
fn serve_connection(mut stream: Stream, id: u64, shared: &ServerShared) {
    let _registered = Registered {
        conns: &shared.conns,
        id,
    };
    while let Ok(Some(body)) =
        framing::read_frame_pooled(&mut stream, shared.max_frame, Some(&shared.pool))
    {
        let Ok(req) = framing::decode_request(body) else {
            break;
        };
        let reply = shared.handler.handle(req.payload);
        // Prefix plus the bulk's own parts, gathered into vectored writes:
        // the bytes the handler returned go to the kernel uncopied. An
        // over-cap reply is refused before any byte is written, so the
        // stream stays in step and its caller times out.
        if let Err(HvacError::Io(_)) =
            framing::write_reply(&mut stream, req.req_id, &reply, shared.max_frame)
        {
            break;
        }
    }
}

/// Server-side half of one socket endpoint: owns the accept loop and the
/// per-connection threads. Dropping it stops the listener, shuts every
/// open connection, joins all threads, and unlinks the Unix socket file.
pub(crate) struct ServerCore {
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    readers: Arc<OrderedMutex<Vec<JoinHandle<()>>>>,
    shared: Arc<ServerShared>,
    uds_path: Option<PathBuf>,
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Stop accepting first, so no connection opens after the sweep.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let open = std::mem::take(&mut *self.shared.conns.lock());
        for c in open.values() {
            let _ = c.shutdown();
        }
        let reader_handles = {
            // lockgraph: self.readers -> FABRIC_THREADS
            let mut guard = self.readers.lock();
            std::mem::take(&mut *guard)
        };
        for h in reader_handles {
            let _ = h.join();
        }
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
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
