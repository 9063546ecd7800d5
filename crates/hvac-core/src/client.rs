//! The HVAC client library (paper §III-D, §III-F).
//!
//! The client is what the `LD_PRELOAD` shim (or an embedding application)
//! talks to. It keeps a descriptor table for intercepted files, computes the
//! home server of each path by hashing (§III-E), and forwards `open` (a
//! `Stat`) and `read` as RPCs; `close` is local bookkeeping. The per-sample
//! [`HvacClient::read_file`] fuses the whole transaction into one `Read`.
//!
//! One dispatcher: every RPC the client sends is an entry of a plan, and
//! every plan goes plan → submit. The `Stat` of an open and a read of at
//! most one chunk are one-entry plans; a longer read plans one `Read` per
//! chunk, a segmented read one `Batch` per replica list, and a prefetch one
//! `Prefetch` per replica list. Each entry is its own job on the client's
//! [`SqPool`] (the first runs inline) and walks the whole replica ladder
//! itself, so a plan's failed entries fail over together.
//!
//! Failure semantics (§III-H, extended here): every RPC carries a per-call
//! deadline from the client's [`RetryPolicy`]; transient failures (typed
//! timeouts from hung servers, `ServerDown`, transport errors) are retried
//! with exponential backoff + seeded jitter and then failed over to the
//! next replica. A per-replica consecutive-failure circuit breaker skips a
//! wedged server proactively on subsequent calls. When every replica is
//! exhausted and the client has a PFS fallback configured, reads degrade to
//! direct PFS access — the epoch completes byte-correct instead of erroring,
//! which is HVAC's whole contract.

use crate::intercept::DatasetMatcher;
use crate::metrics::ClientMetrics;
use crate::protocol::{Request, Response};
use crate::view::ViewHandle;
use bytes::Bytes;
use hvac_hash::pathhash::{hash_job_path, mix64};
use hvac_hash::placement::{make_placement, Placement};
use hvac_net::bulk::{chunk_ranges, reassemble_bulk_pooled, Bulk};
use hvac_net::fabric::{Fabric, Reply};
use hvac_net::plan::{coalesce_plan, BatchItem};
use hvac_net::pool::BufferPool;
use hvac_net::sq::SqPool;
use hvac_pfs::FileStore;
use hvac_sync::{classes, OrderedMutex};
use hvac_types::{
    ClusterView, FileId, HvacError, JobId, PlacementKind, Result, RetryPolicy, ServerId,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct HvacClientOptions {
    /// Directory whose files are cached (the `HVAC_DATASET_DIR` contract).
    pub dataset_dir: PathBuf,
    /// Placement algorithm — must match the rest of the job.
    pub placement: PlacementKind,
    /// Replicas per file (1 = paper's single-home design).
    pub replication: u32,
    /// Total HVAC server instances in the allocation.
    pub n_servers: usize,
    /// Server instances per node (for address derivation).
    pub instances_per_node: u32,
    /// Deadline/retry/backoff/breaker budget for every RPC this client
    /// issues.
    pub retry: RetryPolicy,
    /// Reads larger than this are split into chunk RPCs of at most this many
    /// bytes (Mercury's RDMA-sized bulk pieces), tiled from the read's
    /// offset.
    pub bulk_chunk: usize,
    /// Adjacent segments with the same replicas are merged into one read
    /// range of at most this many bytes (0 disables coalescing).
    pub coalesce_max: u64,
    /// At most this many coalesced ranges ride in one batch RPC.
    pub batch_max: usize,
    /// Tenant identity stamped on every request this client issues. Job 0
    /// (the default) is the legacy namespace: requests stay byte-identical
    /// to pre-tenancy clients. A non-default job namespaces placement, the
    /// server-side cache, and QoS accounting.
    pub job_id: JobId,
}

impl HvacClientOptions {
    /// Options for a single-home (no replication) job.
    pub fn new<P: Into<PathBuf>>(
        dataset_dir: P,
        n_servers: usize,
        instances_per_node: u32,
    ) -> Self {
        Self {
            dataset_dir: dataset_dir.into(),
            placement: PlacementKind::Modulo,
            replication: 1,
            n_servers,
            instances_per_node,
            retry: RetryPolicy::default(),
            bulk_chunk: hvac_net::BULK_CHUNK_SIZE,
            coalesce_max: 1 << 20,
            batch_max: 16,
            job_id: JobId::from_env(),
        }
    }
}

/// Whence values for [`HvacClient::lseek`], mirroring POSIX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute position.
    Set,
    /// Relative to the current position.
    Cur,
    /// Relative to end-of-file.
    End,
}

#[derive(Debug, Clone)]
struct OpenFile {
    path: PathBuf,
    size: u64,
    pos: u64,
}

/// Per-replica circuit-breaker state. A replica that fails
/// `breaker_threshold` calls in a row is skipped (not even attempted) until
/// `breaker_cooldown` has elapsed; the first call after the cooldown is the
/// half-open probe — success closes the breaker, failure re-opens it.
#[derive(Debug, Default)]
struct ReplicaHealth {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    /// When this replica's breaker last tripped. Kept after the breaker
    /// closes again: when *every* replica of a call is open, the ladder
    /// force-probes the least-recently-tripped replica (the one that has
    /// been cooling the longest, hence the most likely to have recovered).
    tripped_at: Option<Instant>,
}

/// How many rounds of stale-view redirects one plan will chase before
/// degrading what still bounces. Each hop installs a strictly newer epoch,
/// so more hops than this means the membership is churning faster than the
/// client can follow.
const MAX_VIEW_HOPS: u32 = 4;

/// The replica ladder, with everything a plan entry's job needs to walk it
/// on a pool worker. The client and the jobs it dispatches share it through
/// one `Arc`; a job drops its clone before it answers.
struct Ladder {
    fabric: Arc<Fabric>,
    placement: Box<dyn Placement>,
    /// The membership view ownership is resolved through. Starts as the
    /// dense epoch-0 launch layout; advanced by [`Response::StaleView`]
    /// redirects or an explicit [`HvacClient::install_view`].
    view: Arc<ViewHandle>,
    metrics: ClientMetrics,
    health: OrderedMutex<HashMap<String, ReplicaHealth>>,
    /// Deadline/retry/backoff/breaker/hedge budget of every call.
    policy: RetryPolicy,
    /// splitmix64 state for backoff jitter — seeded from the policy so two
    /// runs with the same seed sleep the same schedule.
    jitter_state: AtomicU64,
    /// Last rung of the degradation ladder: read straight from the PFS when
    /// every replica is exhausted. `None` = error out instead (the pre-§III-H
    /// behaviour, and the only option for pure-RPC embeddings).
    pfs_fallback: Option<Arc<dyn FileStore>>,
    job_id: JobId,
    replication: usize,
}

/// One RPC of a plan: its request, and the replicas that may answer it in
/// the plan's view, home first.
struct Entry {
    addrs: Vec<String>,
    req: Request,
}

/// What a plan entry's job hands back.
enum Answer {
    /// The request bounced off a newer view, now installed: plan it again.
    Stale(Request),
    /// A `Stat`'s file size.
    Size(u64),
    /// Bytes read, each piece keyed by the file offset of the request or
    /// batch item that read it, and the file's size when a server answered
    /// a `Read`.
    Read(Vec<(u64, Bytes)>, Option<u64>),
    /// A `Prefetch` was accepted.
    Staged,
}

/// A per-process HVAC client.
pub struct HvacClient {
    /// The replica ladder every plan entry walks, shared with the jobs that
    /// run them.
    ladder: Arc<Ladder>,
    matcher: DatasetMatcher,
    options: HvacClientOptions,
    fds: OrderedMutex<HashMap<u64, OpenFile>>,
    next_fd: AtomicU64,
    /// Slab pool for reassembly: multi-piece reads recycle slabs instead of
    /// allocating per read.
    pool: BufferPool,
    /// Persistent dispatch workers for every plan's entries past the first,
    /// so the hot path never pays a per-read thread spawn.
    sq: SqPool,
}

/// The first descriptor a client hands out. Descriptors are virtual and
/// start far above any kernel fd (`RLIMIT_NOFILE` cannot reach 2^28), so
/// the `LD_PRELOAD` shim tells its own from real ones by value alone.
pub const FD_BASE: u64 = 1 << 28;

/// The fabric address of a server instance, by global index.
pub fn server_addr(global_index: usize, instances_per_node: u32) -> String {
    ServerId::from_global_index(global_index, instances_per_node).to_string()
}

/// Group `(replicas, item)` pairs into runs of at most `max` items that
/// share their whole replica list, in first-appearance order, so that each
/// run fails over as a unit.
fn group<T>(
    pairs: impl IntoIterator<Item = (Vec<String>, T)>,
    max: usize,
) -> Vec<(Vec<String>, Vec<T>)> {
    let mut groups: Vec<(Vec<String>, Vec<T>)> = Vec::new();
    let mut open: HashMap<Vec<String>, usize> = HashMap::new();
    for (addrs, item) in pairs {
        match open.get(&addrs) {
            Some(&g) if groups[g].1.len() < max => groups[g].1.push(item),
            _ => {
                open.insert(addrs.clone(), groups.len());
                groups.push((addrs, vec![item]));
            }
        }
    }
    groups
}

/// The pieces of a read's answers in file order, and the file size a
/// server reported with them.
fn pieces(answers: Vec<Answer>) -> (Vec<Bytes>, Option<u64>) {
    let mut pieces = Vec::new();
    let mut size = None;
    for answer in answers {
        if let Answer::Read(read, reported) = answer {
            pieces.extend(read);
            size = size.or(reported);
        }
    }
    // Stable, so the parts of one reply keep their order.
    pieces.sort_by_key(|&(at, _)| at);
    (pieces.into_iter().map(|(_, piece)| piece).collect(), size)
}

/// Decode `addr`'s reply. An answered `EIO` is the server failing, not the
/// file's status: a crash-stop answers every request it had parked with
/// `ServerDown`, whose errno is `EIO`. So it comes back as
/// [`HvacError::ServerDown`], and the ladder fails over or degrades as for
/// a dead endpoint. Any other answered error stays the file's status.
fn decode_reply(addr: &str, reply: Reply) -> Result<(Response, Bulk)> {
    match Response::decode(reply.header)? {
        Response::Err { code, message } if code == HvacError::ServerDown(String::new()).errno() => {
            Err(HvacError::ServerDown(format!("{addr} answered: {message}")))
        }
        resp => Ok((resp, reply.bulk.unwrap_or_default())),
    }
}

impl Ladder {
    /// Replica addresses of placement key `fid` in `view`, home first.
    fn replicas(&self, view: &ClusterView, fid: FileId) -> Vec<String> {
        self.placement
            .replicas_in_view(fid, view, self.replication)
            .into_iter()
            .map(|sid| view.addr(sid))
            .collect()
    }

    /// Replica addresses of a path in `view`, home first. Placement hashes
    /// `(job, path)`, so two tenants reading the same dataset spread their
    /// (separately-cached) copies independently.
    fn replica_addrs_in(&self, view: &ClusterView, path: &Path) -> Vec<String> {
        self.replicas(view, hash_job_path(self.job_id, path))
    }

    /// Replica addresses of one segment of a path in `view`. Each segment
    /// hashes independently, so segments of one file spread across servers.
    fn segment_replica_addrs_in(
        &self,
        view: &ClusterView,
        path: &Path,
        seg_index: u64,
    ) -> Vec<String> {
        let fid = hash_job_path(self.job_id, path);
        let seg_fid = FileId(mix64(fid.0 ^ seg_index.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        self.replicas(view, seg_fid)
    }

    /// Next jitter draw in `[0, backoff_base)` (splitmix64; relaxed CAS-free
    /// update is fine — determinism only matters for single-threaded tests).
    fn jitter(&self) -> Duration {
        let base = self.policy.backoff_base;
        let mut x = self
            .jitter_state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let nanos = base.as_nanos().max(1) as u64;
        Duration::from_nanos(x % nanos)
    }

    /// Whether `addr`'s breaker is open (still cooling down). A replica past
    /// its cooldown is allowed one half-open probe.
    fn breaker_open(&self, addr: &str) -> bool {
        let mut health = self.health.lock();
        match health.get_mut(addr) {
            Some(h) => match h.open_until {
                Some(until) if Instant::now() < until => true,
                Some(_) => {
                    // Half-open: let one probe through; a failure re-trips.
                    h.open_until = None;
                    false
                }
                None => false,
            },
            None => false,
        }
    }

    fn record_success(&self, addr: &str) {
        let mut health = self.health.lock();
        if let Some(h) = health.get_mut(addr) {
            h.consecutive_failures = 0;
            h.open_until = None;
        }
    }

    fn record_failure(&self, addr: &str) {
        let policy = &self.policy;
        let mut health = self.health.lock();
        let h = health.entry(addr.to_string()).or_default();
        h.consecutive_failures += 1;
        if h.consecutive_failures >= policy.breaker_threshold && h.open_until.is_none() {
            let now = Instant::now();
            h.open_until = Some(now + policy.breaker_cooldown);
            h.tripped_at = Some(now);
            self.metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One replica, with the per-call deadline and same-replica retries:
    /// timeouts and transport errors are retried up to `max_attempts` with
    /// exponential backoff + jitter; `ServerDown`, from the endpoint or
    /// answered ([`decode_reply`]), returns immediately (retrying a dead
    /// server is pointless); fatal errors close the breaker and return at
    /// once. A decoded reply comes with whether the first attempt got it.
    fn call_one_replica(&self, addr: &str, encoded: &Bytes) -> Result<((Response, Bulk), bool)> {
        let policy = &self.policy;
        let mut attempt = 0u32;
        loop {
            match self
                .fabric
                .call_with_deadline(addr, encoded.clone(), policy.rpc_timeout)
                .and_then(|reply| decode_reply(addr, reply))
            {
                Ok(reply) => {
                    self.record_success(addr);
                    return Ok((reply, attempt == 0));
                }
                Err(e) => {
                    if matches!(e, HvacError::RpcTimeout { .. }) {
                        self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    if !e.is_retriable() {
                        // An answered error from a live server is the file's
                        // real status — the server is healthy.
                        self.record_success(addr);
                        return Err(e);
                    }
                    self.record_failure(addr);
                    attempt += 1;
                    if matches!(e, HvacError::ServerDown(_)) || attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = policy
                        .backoff_base
                        .saturating_mul(1u32 << (attempt - 1).min(16));
                    std::thread::sleep(backoff + self.jitter());
                }
            }
        }
    }

    /// Race one hedged pair: fire `primary`, and if it has not answered
    /// within the policy's hedge delay, fire a *single* backup request to
    /// `backup` and take whichever answers first. Legs are bare one-shot
    /// calls (no same-replica retries — the sequential ladder owns those);
    /// health is recorded as each leg's outcome arrives, so a slow leg
    /// still feeds the breaker. Returns `Some(Ok)` on the first success,
    /// with whether the primary leg won; `Some(Err)` on an answered (fatal)
    /// error — the file's real status, which hedging must not mask — and
    /// `None` when every fired leg failed transiently (or the primary leg
    /// could not be spawned), telling the caller to walk the ordinary
    /// ladder. Legs run on `hvac-hedge-*` threads, not on the pool, whose
    /// worker is already running this entry: a loopback leg runs server
    /// code, which the preload shim must recognise as its own.
    fn call_hedged(
        &self,
        primary: &str,
        backup: &str,
        encoded: &Bytes,
    ) -> Option<Result<((Response, Bulk), bool)>> {
        let policy = &self.policy;
        let delay = policy.hedge_delay()?;
        let timeout = policy.rpc_timeout;
        let (tx, rx) = std::sync::mpsc::channel();
        let spawn_leg = |addr: &str, is_backup: bool| {
            let fabric = Arc::clone(&self.fabric);
            let addr = addr.to_string();
            let encoded = encoded.clone();
            let tx = tx.clone();
            std::thread::Builder::new()
                .name(format!("hvac-hedge-{addr}"))
                .spawn(move || {
                    let result = fabric
                        .call_with_deadline(&addr, encoded, timeout)
                        .and_then(|reply| decode_reply(&addr, reply));
                    // A closed channel just means the other leg already won.
                    let _ = tx.send((is_backup, addr, result));
                })
                .is_ok()
        };
        if !spawn_leg(primary, false) {
            return None;
        }
        let mut outstanding = 1u32;
        let mut queue = Vec::new();
        match rx.recv_timeout(delay) {
            Ok(msg) => queue.push(msg),
            // Primary is past the hedge delay: arm the backup and race. If
            // the backup cannot be spawned, the primary races alone.
            Err(_) if spawn_leg(backup, true) => {
                self.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                outstanding = 2;
            }
            Err(_) => {}
        }
        loop {
            let (is_backup, addr, result) = match queue.pop() {
                Some(msg) => msg,
                // Every leg is bounded by the deadline; the slack covers
                // scheduler noise. A miss here means both legs wedged —
                // hand the call back to the ladder.
                None => rx.recv_timeout(timeout + delay).ok()?,
            };
            outstanding -= 1;
            match result {
                Ok(reply) => {
                    self.record_success(&addr);
                    if is_backup {
                        self.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(Ok((reply, !is_backup)));
                }
                Err(e) if e.is_retriable() => {
                    if matches!(e, HvacError::RpcTimeout { .. }) {
                        self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    self.record_failure(&addr);
                    if outstanding == 0 {
                        return None;
                    }
                }
                Err(fatal) => {
                    // An answered error from a live server is real status.
                    self.record_success(&addr);
                    return Some(Err(fatal));
                }
            }
        }
    }

    /// Issue one RPC over the replica ladder:
    ///
    /// 0. with a hedge delay configured ([`RetryPolicy::hedge_delay`]) and
    ///    at least two closed-breaker replicas, race a delayed backup
    ///    against the primary ([`Self::call_hedged`]) and take the first
    ///    success; open breakers are never hedged to, so hedging cannot
    ///    double the load on a replica that is already tripping,
    /// 1. walk replicas home-first, skipping any whose breaker is open,
    /// 2. each attempted replica gets deadline + retry via
    ///    [`Self::call_one_replica`]; transient failure moves to the next
    ///    replica, a fatal error returns at once (a live server's `ENOENT`
    ///    must not be masked by a replica walk),
    /// 3. if the walk attempted *nothing* — every replica's breaker is
    ///    open — force-probe the skipped ones, least-recently-tripped
    ///    first (the replica cooling the longest is the most likely to
    ///    have recovered). This holds even with a PFS fallback armed
    ///    (then one probe suffices before degrading): returning
    ///    `ServerDown` without a single RPC would pin a fully recovered
    ///    cluster onto the PFS for an entire cooldown. If something *was*
    ///    attempted and failed, a fallback-armed caller degrades instead,
    ///    which is just as correct and far cheaper than waiting out a
    ///    wedged server's deadline; without a fallback, probe them all,
    /// 4. success on any replica other than the home counts as a failover.
    ///
    /// A decoded reply comes with whether the first call to the home
    /// answered it.
    fn call_replicas(&self, addrs: &[String], encoded: &Bytes) -> Result<((Response, Bulk), bool)> {
        if addrs.is_empty() {
            return Err(HvacError::InvalidConfig("empty replica set".into()));
        }
        // Whether every step so far was the home's first call.
        let mut first_call = true;
        if self.policy.hedge_delay().is_some() && addrs.len() >= 2 {
            let live: Vec<&String> = addrs
                .iter()
                .filter(|a| !self.breaker_open(a))
                .take(2)
                .collect();
            if live.len() == 2 {
                if let Some(outcome) = self.call_hedged(live[0], live[1], encoded) {
                    return outcome
                        .map(|(reply, primary)| (reply, primary && *live[0] == addrs[0]));
                }
                first_call = false;
            }
        }
        let mut skipped = Vec::new();
        let mut attempted = false;
        let mut last_err = None;
        for addr in addrs {
            if self.breaker_open(addr) {
                self.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
                skipped.push(addr);
                first_call = false;
                continue;
            }
            attempted = true;
            match self.call_one_replica(addr, encoded) {
                Ok((reply, first_try)) => {
                    if *addr != addrs[0] {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((reply, first_call && first_try));
                }
                Err(e) if e.is_retriable() => {
                    last_err = Some(e);
                    first_call = false;
                }
                Err(fatal) => return Err(fatal),
            }
        }
        if !attempted && !skipped.is_empty() {
            {
                let health = self.health.lock();
                skipped.sort_by_key(|a| health.get(a.as_str()).and_then(|h| h.tripped_at));
            }
            if self.pfs_fallback.is_some() {
                skipped.truncate(1);
            }
        } else if self.pfs_fallback.is_some() {
            skipped.clear();
        }
        for addr in skipped {
            match self.call_one_replica(addr, encoded) {
                Ok((reply, _)) => {
                    if *addr != addrs[0] {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((reply, false));
                }
                Err(e) if e.is_retriable() => last_err = Some(e),
                Err(fatal) => return Err(fatal),
            }
        }
        // addrs is non-empty and every arm either returned or set last_err.
        Err(last_err.unwrap_or_else(|| HvacError::ServerDown("no replica answered".into())))
    }

    /// One plan entry's job: send `entry`'s request, stamped with view
    /// `epoch`, down the replica ladder and read the answer; degrade the
    /// request when every replica failed. A [`Response::StaleView`] installs
    /// the newer view and hands the request back for planning under it.
    /// The entry counts one `batch_fallbacks` when the first call to its
    /// home did not answer it.
    fn run(&self, epoch: u64, Entry { addrs, req }: Entry) -> Result<Answer> {
        let encoded = req.encode_ctx(epoch, self.job_id)?;
        let ((resp, bulk), first_call) = match self.call_replicas(&addrs, &encoded) {
            Ok(answered) => answered,
            Err(e) => {
                self.metrics.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
                return self.degrade(req, e);
            }
        };
        if !first_call || matches!(resp, Response::StaleView { .. }) {
            self.metrics.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        match (req, resp) {
            (req, Response::StaleView { view }) => {
                // Entries of one plan bounce together; count the one swap.
                if self.view.install(Arc::new(view)) {
                    self.metrics.view_refreshes.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Answer::Stale(req))
            }
            (Request::Stat { .. }, Response::Stat { size }) => Ok(Answer::Size(size)),
            (Request::Read { offset, .. }, Response::Data { total_size, .. }) => {
                let read = bulk.parts().iter().map(|part| (offset, part.clone()));
                Ok(Answer::Read(read.collect(), Some(total_size)))
            }
            (Request::Batch { items }, Response::Batch { lens }) => {
                // Batches are all-or-nothing on the server: a full answer
                // has one payload of each item's length.
                let parts = (items.iter().map(|item| item.len))
                    .eq(lens.iter().map(|&l| u64::from(l)))
                    .then(|| bulk.split(lens.iter().map(|&l| l as usize)))
                    .flatten()
                    .ok_or_else(|| {
                        HvacError::Protocol(format!(
                            "a batch of {} items came back as {lens:?}",
                            items.len()
                        ))
                    })?;
                let read = items.iter().map(|item| item.offset).zip(parts);
                Ok(Answer::Read(read.collect(), None))
            }
            (Request::Prefetch { .. }, Response::Ok) => Ok(Answer::Staged),
            (_, resp) => {
                let other = resp.into_result()?;
                Err(HvacError::Protocol(format!("unexpected reply: {other:?}")))
            }
        }
    }

    /// The ladder's last rung, for a request whose replicas all failed
    /// with `err`: when `err` is transient and a PFS fallback is armed, a
    /// `Read` or each item of a `Batch` is read from the PFS, byte-identical
    /// to what a server-side miss would return, and a `Stat` asks the PFS
    /// for the size. Otherwise, and always for a `Prefetch`, the request
    /// fails with `err`. Fatal errors (an answered `ENOENT`, protocol
    /// garbage) never degrade — the PFS would only repeat them.
    fn degrade(&self, req: Request, err: HvacError) -> Result<Answer> {
        let Some(pfs) = self.pfs_fallback.as_ref().filter(|_| err.is_retriable()) else {
            return Err(err);
        };
        // A batch item lies inside the size a `Stat` reported, so, unlike a
        // `Read` at EOF, it is never short: a short one means the file
        // changed under the read.
        let read_at = |path: &Path, offset: u64, len: u64, exact: bool| {
            let data = pfs.read_at(path, offset, len as usize)?;
            if exact && data.len() as u64 != len {
                return Err(HvacError::Protocol(format!(
                    "the PFS returned {} bytes of {} at {offset}, expected {len}",
                    data.len(),
                    path.display()
                )));
            }
            self.metrics.degraded_reads.fetch_add(1, Ordering::Relaxed);
            Ok((offset, data))
        };
        let read = match req {
            Request::Stat { path } => return Ok(Answer::Size(pfs.open_meta(&path)?.size)),
            Request::Read { path, offset, len } => vec![read_at(&path, offset, len, false)?],
            Request::Batch { items } => items
                .iter()
                .map(|item| read_at(Path::new(&item.path), item.offset, item.len, true))
                .collect::<Result<_>>()?,
            _ => return Err(err),
        };
        Ok(Answer::Read(read, None))
    }
}

impl HvacClient {
    /// Build a client over a fabric.
    pub fn new(fabric: Arc<Fabric>, options: HvacClientOptions) -> Result<Self> {
        if options.n_servers == 0 {
            return Err(HvacError::InvalidConfig("n_servers must be >= 1".into()));
        }
        if options.replication == 0 {
            return Err(HvacError::InvalidConfig("replication must be >= 1".into()));
        }
        if options.bulk_chunk == 0 {
            return Err(HvacError::InvalidConfig("bulk_chunk must be >= 1".into()));
        }
        if options.batch_max == 0 {
            return Err(HvacError::InvalidConfig("batch_max must be >= 1".into()));
        }
        let view = ViewHandle::new(ClusterView::initial(
            options.n_servers,
            options.instances_per_node,
        )?);
        Ok(Self {
            ladder: Arc::new(Ladder {
                fabric,
                placement: make_placement(options.placement),
                view,
                metrics: ClientMetrics::default(),
                health: OrderedMutex::new(classes::CLIENT_HEALTH, HashMap::new()),
                policy: options.retry.clone(),
                jitter_state: AtomicU64::new(options.retry.jitter_seed),
                pfs_fallback: None,
                job_id: options.job_id,
                replication: options.replication as usize,
            }),
            matcher: DatasetMatcher::new(&options.dataset_dir),
            sq: SqPool::new("sq", hvac_net::DEFAULT_SQ_DEPTH)?,
            options,
            fds: OrderedMutex::new(classes::CLIENT_FDS, HashMap::new()),
            next_fd: AtomicU64::new(FD_BASE),
            pool: BufferPool::new(),
        })
    }

    /// Install a (strictly newer) membership view, as a cluster harness
    /// does on `add_node`/`remove_node`. Clients also learn views
    /// organically from [`Response::StaleView`] redirects; either path is
    /// monotonic, so the two never fight.
    pub fn install_view(&self, view: Arc<ClusterView>) -> bool {
        self.ladder.view.install(view)
    }

    /// Snapshot of the membership view this client resolves homes through.
    pub fn view(&self) -> Arc<ClusterView> {
        self.ladder.view.snapshot()
    }

    /// Arm client-side PFS degradation: when every replica of a read is
    /// exhausted (hung, down, or erroring at the transport level), serve the
    /// read directly from `pfs` instead of failing the application.
    pub fn set_pfs_fallback(&mut self, pfs: Arc<dyn FileStore>) {
        // Jobs share the ladder only while their plan runs, and a plan runs
        // under `&self`, so `&mut self` sees the only handle.
        match Arc::get_mut(&mut self.ladder) {
            Some(ladder) => ladder.pfs_fallback = Some(pfs),
            None => unreachable!("a plan job outlived its plan"),
        }
    }

    /// Whether HVAC should intercept this path (the shim falls back to the
    /// real libc call otherwise).
    pub fn intercepts<P: AsRef<Path>>(&self, path: P) -> bool {
        self.matcher.matches(path)
    }

    /// Client metrics.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.ladder.metrics
    }

    /// Replica addresses of a path, home first, per the current view.
    pub fn replica_addrs(&self, path: &Path) -> Vec<String> {
        self.ladder.replica_addrs_in(&self.view(), path)
    }

    /// Replica addresses of one segment of a path, home first, per the
    /// current view.
    pub fn segment_replica_addrs(&self, path: &Path, seg_index: u64) -> Vec<String> {
        self.ladder
            .segment_replica_addrs_in(&self.view(), path, seg_index)
    }

    /// Plan → submit. `plan` turns requests into entries under a view
    /// snapshot, and each entry runs as its own job on the pool (the first
    /// inline), walking the whole ladder. Requests that bounce off a newer
    /// view go back to `plan` under it, for at most [`MAX_VIEW_HOPS`]
    /// rounds; what still bounces then degrades like a request whose
    /// replicas all failed. Returns every answer, or the error of the first
    /// failed entry in plan order.
    fn submit(
        &self,
        mut reqs: Vec<Request>,
        plan: impl Fn(&ClusterView, Vec<Request>) -> Vec<Entry>,
    ) -> Result<Vec<Answer>> {
        let mut answers = Vec::new();
        for _ in 0..MAX_VIEW_HOPS {
            let view = self.view();
            let epoch = view.epoch();
            let jobs = plan(&view, reqs).into_iter().map(|entry| {
                let ladder = Arc::clone(&self.ladder);
                move || ladder.run(epoch, entry)
            });
            reqs = Vec::new();
            for answer in self.sq.run_all(jobs) {
                match answer.and_then(|answer| answer)? {
                    Answer::Stale(req) => reqs.push(req),
                    answer => answers.push(answer),
                }
            }
            if reqs.is_empty() {
                return Ok(answers);
            }
        }
        let current_epoch = self.ladder.view.epoch();
        for req in reqs {
            answers.push(
                self.ladder
                    .degrade(req, HvacError::StaleView { current_epoch })?,
            );
        }
        Ok(answers)
    }

    /// Plan → submit requests about one file: each is its own entry,
    /// addressed to the file's replicas in the plan's view.
    fn submit_to_file(&self, path: &Path, reqs: Vec<Request>) -> Result<Vec<Answer>> {
        self.submit(reqs, |view, reqs| {
            reqs.into_iter()
                .map(|req| Entry {
                    addrs: self.ladder.replica_addrs_in(view, path),
                    req,
                })
                .collect()
        })
    }

    /// Refuse a path outside the dataset directory (the shim falls back to
    /// the real libc call for it), counting it as a passthrough open.
    fn check_intercepted(&self, path: &Path) -> Result<()> {
        if self.intercepts(path) {
            return Ok(());
        }
        self.metrics()
            .passthrough_opens
            .fetch_add(1, Ordering::Relaxed);
        Err(HvacError::Protocol(format!(
            "{} is outside the dataset directory {}",
            path.display(),
            self.matcher.root().display()
        )))
    }

    /// Open a dataset file; returns an HVAC descriptor. Open keeps its
    /// `Stat` RPC, because POSIX reports a missing file at open time.
    pub fn open(&self, path: &Path) -> Result<u64> {
        self.check_intercepted(path)?;
        let size = self.stat(path)?;
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.lock().insert(
            fd,
            OpenFile {
                path: path.to_path_buf(),
                size,
                pos: 0,
            },
        );
        self.metrics().opens.fetch_add(1, Ordering::Relaxed);
        Ok(fd)
    }

    fn with_fd<T>(&self, fd: u64, f: impl FnOnce(&mut OpenFile) -> T) -> Result<T> {
        let mut fds = self.fds.lock();
        fds.get_mut(&fd).map(f).ok_or(HvacError::BadFd(fd as i32))
    }

    /// Clamp a request to the size recorded at open time, so an oversized
    /// `len` (POSIX allows `read(fd, buf, SIZE_MAX)`) never plans an
    /// absurd number of chunks — it just short-reads like the syscall would.
    fn clamp_len(size: u64, offset: u64, len: usize) -> usize {
        len.min(size.saturating_sub(offset).try_into().unwrap_or(usize::MAX))
    }

    /// Positional read (POSIX `pread`): does not move the file position.
    pub fn pread(&self, fd: u64, offset: u64, len: usize) -> Result<Bytes> {
        let (path, size) = self.with_fd(fd, |of| (of.path.clone(), of.size))?;
        self.read_path_at(&path, offset, Self::clamp_len(size, offset, len))
    }

    /// Sequential read: reads at the current position and advances it.
    pub fn read(&self, fd: u64, len: usize) -> Result<Bytes> {
        let (path, pos, size) = self.with_fd(fd, |of| (of.path.clone(), of.pos, of.size))?;
        let data = self.read_path_at(&path, pos, Self::clamp_len(size, pos, len))?;
        self.with_fd(fd, |of| of.pos = pos + data.len() as u64)?;
        Ok(data)
    }

    /// POSIX `lseek`. Returns the new position.
    pub fn lseek(&self, fd: u64, offset: i64, whence: Whence) -> Result<u64> {
        self.with_fd(fd, |of| {
            let base = match whence {
                Whence::Set => 0i64,
                Whence::Cur => of.pos as i64,
                Whence::End => of.size as i64,
            };
            let newpos =
                base.checked_add(offset)
                    .filter(|&p| p >= 0)
                    .ok_or(HvacError::Protocol(format!(
                        "seek to negative offset {offset}"
                    )))?;
            of.pos = newpos as u64;
            Ok(of.pos)
        })?
    }

    /// Size recorded at open time.
    pub fn fd_size(&self, fd: u64) -> Result<u64> {
        self.with_fd(fd, |of| of.size)
    }

    /// Close a descriptor. The server keeps no per-descriptor state, so
    /// this sends no RPC — a deviation from the out-of-band teardown of
    /// §III-D step ⑧ (DESIGN.md §3).
    pub fn close(&self, fd: u64) -> Result<()> {
        self.fds
            .lock()
            .remove(&fd)
            .ok_or(HvacError::BadFd(fd as i32))?;
        self.metrics().closes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Copy `parent`'s open descriptors into this client under the same
    /// numbers, each with its path, size and position, as `fork` copies a
    /// process's descriptor table; later opens number above them. The
    /// position is copied, not shared: a read in one process no longer
    /// moves the other's. Copies nothing when `parent`'s table is locked,
    /// because after `fork` its holder is a thread that no longer exists.
    /// Returns how many descriptors were copied.
    pub fn inherit_descriptors(&self, parent: &HvacClient) -> usize {
        let Some(table) = parent.fds.try_lock() else {
            return 0;
        };
        let inherited: Vec<(u64, OpenFile)> =
            table.iter().map(|(&fd, of)| (fd, of.clone())).collect();
        drop(table);
        self.next_fd
            .fetch_max(parent.next_fd.load(Ordering::Relaxed), Ordering::Relaxed);
        let n = inherited.len();
        self.fds.lock().extend(inherited);
        n
    }

    /// Stat without opening: a one-entry plan, degrading to the PFS's
    /// `open_meta` when every replica is exhausted.
    pub fn stat(&self, path: &Path) -> Result<u64> {
        let stat = Request::Stat {
            path: path.to_path_buf(),
        };
        match self.submit_to_file(path, vec![stat])?.as_slice() {
            [Answer::Size(size)] => Ok(*size),
            _ => Err(HvacError::Protocol(
                "a stat came back without a size".into(),
            )),
        }
    }

    /// Join a read's pieces into one `Bytes` — zero-copy for one piece, one
    /// copy into a pooled slab for more — and account one logical read.
    fn deliver(&self, pieces: &[Bytes]) -> Bytes {
        // lockgraph: acquires NET_POOL
        let data = reassemble_bulk_pooled(pieces, &self.pool);
        self.metrics().reads.fetch_add(1, Ordering::Relaxed);
        self.metrics()
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        data
    }

    /// `len` bytes of `path` at `offset`: a plan of `Read` chunks of at most
    /// `bulk_chunk` bytes, tiled from the read's own offset and each its own
    /// entry. A read of at most one chunk is one entry at any offset, a
    /// 0-byte read at EOF included, so it runs inline. Returns the pieces in
    /// offset order, and the file's size when a server answered. A failing
    /// read returns the error of its lowest-offset failed chunk.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<(Vec<Bytes>, Option<u64>)> {
        if offset.checked_add(len as u64).is_none() {
            return Err(HvacError::InvalidConfig(format!(
                "read of {len} bytes at offset {offset} overflows u64"
            )));
        }
        let read = |at: u64, len: usize| Request::Read {
            path: path.to_path_buf(),
            offset: at,
            len: len as u64,
        };
        let mut chunks: Vec<Request> = chunk_ranges(len, self.options.bulk_chunk)
            .map(|r| read(offset + r.start as u64, r.len()))
            .collect();
        if chunks.is_empty() {
            chunks.push(read(offset, 0));
        }
        Ok(pieces(self.submit_to_file(path, chunks)?))
    }

    /// One logical read at `offset`.
    fn read_path_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        let (read, _) = self.read_at(path, offset, len)?;
        Ok(self.deliver(&read))
    }

    /// Read a whole file at **segment granularity** (the §III-E alternative
    /// to file-granular caching): the file is cut into `segment_size` byte
    /// segments, each homed on its *own* server (`hash(path, segment)`), so
    /// a multi-gigabyte file spreads over the allocation instead of landing
    /// on one NVMe. After the `Stat`, the read is one plan of batches, one
    /// per replica list. Returns the reassembled contents.
    pub fn read_file_segmented(&self, path: &Path, segment_size: u64) -> Result<Bytes> {
        if segment_size == 0 {
            return Err(HvacError::InvalidConfig("segment_size must be > 0".into()));
        }
        let path_str = path.to_str().ok_or_else(|| {
            HvacError::Protocol(format!("non-UTF-8 path not supported: {}", path.display()))
        })?;
        let size = self.stat(path)?;
        self.metrics().opens.fetch_add(1, Ordering::Relaxed);
        let whole = BatchItem {
            path: path_str.to_string(),
            offset: 0,
            len: size,
        };
        let answers = self.submit(vec![Request::Batch { items: vec![whole] }], |view, reqs| {
            self.plan_batches(view, path, segment_size, reqs)
        })?;
        self.metrics().closes.fetch_add(1, Ordering::Relaxed);
        Ok(self.deliver(&pieces(answers).0))
    }

    /// Plan the ranges of `reqs` — `Batch`es of `path` — under `view`.
    /// [`coalesce_plan`] cuts each range into runs of adjacent segments
    /// that share their whole replica list (at most `coalesce_max` bytes
    /// each), and runs with the same replica list ride together in batches
    /// of at most `batch_max`, each one [`Request::Batch`] entry. A batch
    /// therefore fails over as a unit, and a range bounced off a newer view
    /// is cut again by its segments' homes in that view.
    fn plan_batches(
        &self,
        view: &ClusterView,
        path: &Path,
        segment_size: u64,
        reqs: Vec<Request>,
    ) -> Vec<Entry> {
        let mut runs = Vec::new();
        for req in reqs {
            let Request::Batch { items } = req else {
                continue;
            };
            for item in items {
                let plan = coalesce_plan(
                    item.offset,
                    item.len,
                    segment_size,
                    self.options.coalesce_max,
                    |seg| self.ladder.segment_replica_addrs_in(view, path, seg),
                );
                runs.extend(plan.into_iter().map(|run| {
                    let item = BatchItem {
                        path: item.path.clone(),
                        offset: run.offset,
                        len: run.len,
                    };
                    (run.dest, item)
                }));
            }
        }
        group(runs, self.options.batch_max)
            .into_iter()
            .map(|(addrs, items)| {
                self.metrics().batch_rpcs.fetch_add(1, Ordering::Relaxed);
                Entry {
                    addrs,
                    req: Request::Batch { items },
                }
            })
            .collect()
    }

    /// Ask the replicas of every path to stage it in the background (the
    /// paper's §IV-C prefetching future work): paths with the same replica
    /// list go as one `Prefetch` entry, which fails over like any other.
    /// Returns the number of paths submitted. Staging is asynchronous —
    /// subsequent reads of a still-copying file simply piggyback on the
    /// in-flight copy.
    pub fn prefetch<'a, I>(&self, paths: I) -> Result<usize>
    where
        I: IntoIterator<Item = &'a Path>,
    {
        let paths: Vec<PathBuf> = paths
            .into_iter()
            .filter(|p| self.intercepts(p))
            .map(Path::to_path_buf)
            .collect();
        let submitted = paths.len();
        self.submit(vec![Request::Prefetch { paths }], |view, reqs| {
            let mut pairs = Vec::new();
            for req in reqs {
                let Request::Prefetch { paths } = req else {
                    continue;
                };
                pairs.extend(
                    paths
                        .into_iter()
                        .map(|path| (self.ladder.replica_addrs_in(view, &path), path)),
                );
            }
            group(pairs, usize::MAX)
                .into_iter()
                .map(|(addrs, paths)| Entry {
                    addrs,
                    req: Request::Prefetch { paths },
                })
                .collect()
        })?;
        Ok(submitted)
    }

    /// `<open, read-entire-file, close>` — the exact transaction the
    /// paper's DL profile shows per training sample (§III-F) — as one
    /// `Read` of the first `bulk_chunk` bytes, a one-entry plan. The
    /// reply's `total_size` stands in for the open-time `Stat`, `close`
    /// sends nothing, and only a file longer than one chunk plans the rest.
    /// A head served from the PFS takes the size from a short head, or else
    /// from one `open_meta`; the rest then degrades chunk by chunk.
    pub fn read_file(&self, path: &Path) -> Result<Bytes> {
        self.check_intercepted(path)?;
        let chunk = self.options.bulk_chunk;
        let (mut read, total_size) = self.read_at(path, 0, chunk)?;
        let done: u64 = read.iter().map(|piece| piece.len() as u64).sum();
        let size = match (total_size, &self.ladder.pfs_fallback) {
            (Some(size), _) => size,
            (None, _) if done < chunk as u64 => done,
            (None, Some(pfs)) => pfs.open_meta(path)?.size,
            (None, None) => {
                return Err(HvacError::InvalidConfig("no PFS fallback armed".into()));
            }
        };
        self.metrics().opens.fetch_add(1, Ordering::Relaxed);
        if size > done {
            let rest = usize::try_from(size - done).unwrap_or(usize::MAX);
            read.extend(self.read_at(path, done, rest)?.0);
        }
        self.metrics().closes.fetch_add(1, Ordering::Relaxed);
        Ok(self.deliver(&read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheManager;
    use crate::eviction::make_policy;
    use crate::server::{HvacServer, HvacServerOptions};
    use hvac_pfs::{FileMeta, FileStore, MemStore, StoreStats};
    use hvac_storage::LocalStore;
    use hvac_types::{ByteSize, EvictionPolicyKind};

    type ServerSet = Vec<(Arc<HvacServer>, hvac_net::fabric::ServerEndpoint)>;

    /// Three-node mini-allocation on one fabric, with a hook to tweak the
    /// client options before the client is built.
    fn setup_with(
        replication: u32,
        tweak: impl FnOnce(&mut HvacClientOptions),
    ) -> (Arc<MemStore>, Arc<Fabric>, ServerSet, HvacClient) {
        let pfs = Arc::new(MemStore::new());
        pfs.synthesize_dataset(Path::new("/gpfs/set"), 24, |i| 64 + (i as usize % 5) * 16);
        let fabric = Arc::new(Fabric::new());
        let mut servers = Vec::new();
        for node in 0..3u32 {
            let cache = Arc::new(CacheManager::new(
                LocalStore::in_memory(ByteSize(1 << 20)),
                make_policy(EvictionPolicyKind::Random, node as u64),
            ));
            let server = HvacServer::new(
                cache,
                pfs.clone(),
                HvacServerOptions::default(),
                &format!("n{node}"),
            )
            .unwrap();
            let ep = server
                .serve(&fabric, &server_addr(node as usize, 1))
                .unwrap();
            servers.push((server, ep));
        }
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.replication = replication;
        tweak(&mut opts);
        let client = HvacClient::new(fabric.clone(), opts).unwrap();
        (pfs, fabric, servers, client)
    }

    /// Three-node mini-allocation with the default retry policy.
    fn setup2(replication: u32) -> (Arc<MemStore>, Arc<Fabric>, ServerSet, HvacClient) {
        setup_with(replication, |_| {})
    }

    fn sample(i: u32) -> PathBuf {
        PathBuf::from(format!("/gpfs/set/sample_{i:08}.bin"))
    }

    #[test]
    fn open_read_close_round_trip() {
        let (pfs, _fabric, _servers, client) = setup2(1);
        let p = sample(0);
        let expected = pfs.read_all(&p).unwrap();

        let fd = client.open(&p).unwrap();
        assert_eq!(client.fd_size(fd).unwrap(), expected.len() as u64);
        let data = client.read(fd, expected.len()).unwrap();
        assert_eq!(data, expected);
        // Position advanced to EOF; next read is empty.
        assert_eq!(client.read(fd, 10).unwrap().len(), 0);
        client.close(fd).unwrap();
        assert!(matches!(client.read(fd, 1), Err(HvacError::BadFd(_))));

        let m = client.metrics().full_snapshot();
        assert_eq!(m.opens, 1);
        assert_eq!(m.reads, 2);
        assert_eq!(m.bytes, expected.len() as u64);
        assert_eq!(m.closes, 1);
    }

    #[test]
    fn pread_does_not_move_position() {
        let (_pfs, _f, _s, client) = setup2(1);
        let fd = client.open(&sample(1)).unwrap();
        let a = client.pread(fd, 10, 8).unwrap();
        let b = client.read(fd, 8).unwrap(); // still at offset 0
        assert_ne!(a, b);
        client.close(fd).unwrap();
    }

    #[test]
    fn lseek_semantics() {
        let (_pfs, _f, _s, client) = setup2(1);
        let fd = client.open(&sample(2)).unwrap();
        let size = client.fd_size(fd).unwrap();
        assert_eq!(client.lseek(fd, 5, Whence::Set).unwrap(), 5);
        assert_eq!(client.lseek(fd, 3, Whence::Cur).unwrap(), 8);
        assert_eq!(client.lseek(fd, -2, Whence::End).unwrap(), size - 2);
        assert!(client.lseek(fd, -1000, Whence::Cur).is_err());
        // Position unchanged after failed seek.
        let rest = client.read(fd, usize::MAX / 2).unwrap();
        assert_eq!(rest.len() as u64, 2);
        client.close(fd).unwrap();
    }

    #[test]
    fn non_dataset_path_is_rejected_for_passthrough() {
        let (_pfs, _f, _s, client) = setup2(1);
        assert!(!client.intercepts("/etc/passwd"));
        assert!(client.open(Path::new("/etc/passwd")).is_err());
        assert_eq!(client.metrics().full_snapshot().passthrough_opens, 1);
    }

    #[test]
    fn missing_file_error_propagates() {
        let (_pfs, _f, _s, client) = setup2(1);
        let err = client.open(Path::new("/gpfs/set/absent.bin")).unwrap_err();
        assert!(matches!(err, HvacError::Remote { code: 2, .. }));
        assert_eq!(err.errno(), 2, "server-side ENOENT survives the wire");
        assert!(!err.is_retriable(), "an answered error must not fail over");
    }

    #[test]
    fn read_file_of_a_missing_path_is_not_found_after_one_rpc() {
        let (_pfs, fabric, servers, client) = setup2(1);
        let p = Path::new("/gpfs/set/absent.bin");
        let rpcs = || fabric.stats().rpcs.load(Ordering::Relaxed);
        let stats_ops = || -> u64 {
            servers
                .iter()
                .map(|(s, _)| s.metrics().snapshot().stats_ops)
                .sum()
        };
        let before = rpcs();
        let err = client.read_file(p).unwrap_err();
        assert!(matches!(err, HvacError::Remote { code: 2, .. }), "{err:?}");
        assert_eq!(rpcs() - before, 1, "one fused read RPC");
        assert_eq!(stats_ops(), 0, "no stat");
        // `open` still reports ENOENT itself, from its stat.
        let before = rpcs();
        let err = client.open(p).unwrap_err();
        assert!(matches!(err, HvacError::Remote { code: 2, .. }), "{err:?}");
        assert_eq!(rpcs() - before, 1);
        assert_eq!(stats_ops(), 1);
        let m = client.metrics().full_snapshot();
        assert_eq!(
            (m.opens, m.reads, m.closes),
            (0, 0, 0),
            "nothing was opened"
        );
    }

    #[test]
    fn close_sends_no_rpc() {
        let (_pfs, fabric, _servers, client) = setup2(1);
        let fd = client.open(&sample(0)).unwrap();
        let before = fabric.stats().rpcs.load(Ordering::Relaxed);
        client.close(fd).unwrap();
        assert_eq!(fabric.stats().rpcs.load(Ordering::Relaxed), before);
        assert!(matches!(client.close(fd), Err(HvacError::BadFd(_))));
        assert_eq!(
            client.metrics().full_snapshot().closes,
            1,
            "the close is counted"
        );
    }

    #[test]
    fn inherited_descriptors_keep_number_path_and_position() {
        let (pfs, fabric, _servers, parent) = setup2(1);
        let p = sample(3);
        let expected = pfs.read_all(&p).unwrap();
        let fd = parent.open(&p).unwrap();
        assert!(fd >= FD_BASE, "descriptors start at FD_BASE: {fd}");
        parent.read(fd, 10).unwrap();

        let child = HvacClient::new(fabric, HvacClientOptions::new("/gpfs/set", 3, 1)).unwrap();
        assert_eq!(child.inherit_descriptors(&parent), 1);
        assert_eq!(child.fd_size(fd).unwrap(), expected.len() as u64);
        assert_eq!(child.read(fd, 10).unwrap(), expected.slice(10..20));
        assert_eq!(child.pread(fd, 0, 4).unwrap(), expected.slice(..4));
        // The position was copied, not shared.
        assert_eq!(parent.read(fd, 10).unwrap(), expected.slice(10..20));
        // Later opens number above every inherited descriptor.
        assert!(child.open(&sample(4)).unwrap() > fd);
        child.close(fd).unwrap();
        assert!(
            parent.fd_size(fd).is_ok(),
            "closing in one leaves the other"
        );

        // A table locked at fork time is not copied.
        let held = parent.fds.lock();
        let orphan = HvacClient::new(
            child.ladder.fabric.clone(),
            HvacClientOptions::new("/gpfs/set", 3, 1),
        )
        .unwrap();
        assert_eq!(orphan.inherit_descriptors(&parent), 0);
        drop(held);
        assert!(orphan.fd_size(fd).is_err());
    }

    #[test]
    fn reads_are_distributed_across_homes() {
        let (_pfs, _f, servers, client) = setup2(1);
        for i in 0..24 {
            client.read_file(&sample(i)).unwrap();
        }
        let counts: Vec<u64> = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 24);
        assert!(
            counts.iter().all(|&c| c > 0),
            "placement left a server idle: {counts:?}"
        );
    }

    #[test]
    fn second_epoch_is_all_cache_hits() {
        let (pfs, _f, servers, client) = setup2(1);
        for i in 0..24 {
            client.read_file(&sample(i)).unwrap();
        }
        let pfs_reads_epoch1 = pfs.stats().snapshot().1;
        assert_eq!(pfs_reads_epoch1, 24);
        for i in 0..24 {
            client.read_file(&sample(i)).unwrap();
        }
        assert_eq!(
            pfs.stats().snapshot().1,
            24,
            "epoch 2 never touched the PFS"
        );
        let total_hits: u64 = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().cache_hits)
            .sum();
        assert_eq!(total_hits, 24);
    }

    #[test]
    fn failover_to_replica_when_home_is_down() {
        let (_pfs, fabric, servers, client) = setup2(2);
        let p = sample(3);
        // Find and kill the home server.
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 2);
        assert_ne!(addrs[0], addrs[1]);
        fabric.set_down(&addrs[0], true);

        let data = client.read_file(&p).unwrap();
        assert!(!data.is_empty());
        assert!(
            client.metrics().full_snapshot().failovers >= 1,
            "failover counted"
        );
        // The replica (second address) served it.
        let served: u64 = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .sum();
        assert!(served >= 1);
    }

    #[test]
    fn no_replication_and_home_down_fails() {
        let (_pfs, fabric, _servers, client) = setup2(1);
        let p = sample(4);
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 1);
        fabric.set_down(&addrs[0], true);
        assert!(matches!(
            client.read_file(&p),
            Err(HvacError::ServerDown(_))
        ));
    }

    #[test]
    fn invalid_options_rejected() {
        let fabric = Arc::new(Fabric::new());
        let mut opts = HvacClientOptions::new("/d", 0, 1);
        assert!(HvacClient::new(fabric.clone(), opts.clone()).is_err());
        opts.n_servers = 1;
        opts.replication = 0;
        assert!(HvacClient::new(fabric, opts).is_err());
    }

    #[test]
    fn all_replicas_down_degrades_to_pfs_when_armed() {
        let (pfs, fabric, _servers, mut client) = setup2(1);
        client.set_pfs_fallback(pfs.clone());
        let p = sample(5);
        let expected = pfs.read_all(&p).unwrap();
        for addr in client.replica_addrs(&p) {
            fabric.set_down(&addr, true);
        }
        let data = client.read_file(&p).unwrap();
        assert_eq!(data, expected, "degraded read is byte-correct");
        let s = client.metrics().full_snapshot();
        assert!(s.degraded_reads >= 1, "degraded_reads counted: {s:?}");
    }

    #[test]
    fn fatal_remote_error_never_degrades() {
        let (pfs, _f, _s, mut client) = setup2(1);
        client.set_pfs_fallback(pfs);
        // The server answers ENOENT — degradation must not mask it (the PFS
        // would only repeat it, and a wrong path must stay an error).
        let err = client.open(Path::new("/gpfs/set/absent.bin")).unwrap_err();
        assert!(matches!(err, HvacError::Remote { code: 2, .. }));
        assert_eq!(client.metrics().full_snapshot().degraded_reads, 0);
    }

    #[test]
    fn breaker_trips_and_skips_a_dead_primary() {
        let (_pfs, fabric, _servers, client) = setup2(2);
        let p = sample(3);
        let addrs = client.replica_addrs(&p);
        fabric.set_down(&addrs[0], true);
        // Each read_file issues one read against the dead primary; after
        // breaker_threshold consecutive failures the breaker opens and
        // later calls skip straight to the replica.
        for _ in 0..4 {
            client.read_file(&p).unwrap();
        }
        let s = client.metrics().full_snapshot();
        assert!(s.breaker_trips >= 1, "breaker tripped: {s:?}");
        assert!(s.breaker_skips >= 1, "open breaker skipped: {s:?}");
        // Recovery: once the primary is back, a successful probe closes the
        // breaker again (after cooldown the half-open path lets one through;
        // here we just verify the job kept working throughout).
        fabric.set_down(&addrs[0], false);
        client.read_file(&p).unwrap();
    }

    #[test]
    fn large_reads_pipeline_chunk_rpcs_and_stay_byte_exact() {
        let (pfs, fabric, servers, _client) = setup2(1);
        // Rebuild the client with a tiny chunk so every file (>= 64 B) is a
        // multi-chunk plan; the dispatch workers keep several chunks in
        // flight.
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.bulk_chunk = 16;
        let client = HvacClient::new(fabric, opts).unwrap();
        for i in 0..8 {
            let p = sample(i);
            assert_eq!(client.read_file(&p).unwrap(), pfs.read_all(&p).unwrap());
        }
        // Each file produced several chunk RPCs server-side, but the client
        // counted one logical read per file, and no chunk fell back.
        let server_reads: u64 = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .sum();
        assert!(server_reads >= 8 * 4, "chunk RPCs issued: {server_reads}");
        assert_eq!(client.metrics().full_snapshot().reads, 8);
        assert_eq!(client.metrics().full_snapshot().batch_fallbacks, 0);
    }

    #[test]
    fn pipelined_read_degrades_per_chunk_when_replicas_die() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.bulk_chunk = 16;
        let mut client = HvacClient::new(fabric.clone(), opts).unwrap();
        client.set_pfs_fallback(pfs.clone());
        let p = sample(2);
        let expected = pfs.read_all(&p).unwrap();
        for addr in client.replica_addrs(&p) {
            fabric.set_down(&addr, true);
        }
        assert_eq!(client.read_file(&p).unwrap(), expected);
        let s = client.metrics().full_snapshot();
        assert!(
            s.degraded_reads as usize >= expected.len() / 16,
            "every chunk degraded individually: {s:?}"
        );
    }

    #[test]
    fn open_breakers_are_probed_before_degrading_to_pfs() {
        let (pfs, fabric, _servers, mut client) = setup_with(2, |o| {
            o.retry.rpc_timeout = Duration::from_millis(50);
            o.retry.max_attempts = 1;
            o.retry.breaker_threshold = 2;
            // Long enough that no half-open probe can rescue the old
            // behaviour within the test.
            o.retry.breaker_cooldown = Duration::from_secs(600);
        });
        client.set_pfs_fallback(pfs.clone());
        let p = sample(6);
        let expected = pfs.read_all(&p).unwrap();
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 2);
        for a in &addrs {
            fabric.set_down(a, true);
        }
        // Trip both breakers; the job keeps running on PFS degradation.
        for _ in 0..3 {
            assert_eq!(client.read_file(&p).unwrap(), expected);
        }
        let s = client.metrics().full_snapshot();
        assert!(s.breaker_trips >= 2, "both breakers tripped: {s:?}");
        assert!(s.degraded_reads >= 1, "{s:?}");
        let degraded_before = s.degraded_reads;
        // Both servers recover while the breakers are still mid-cooldown.
        // The ladder must force-probe a skipped replica instead of
        // returning `ServerDown` without a single RPC — which would pin a
        // fully recovered cluster onto the PFS for the whole cooldown.
        for a in &addrs {
            fabric.set_down(a, false);
        }
        assert_eq!(client.read_file(&p).unwrap(), expected);
        let s = client.metrics().full_snapshot();
        assert_eq!(
            s.degraded_reads, degraded_before,
            "the probe served the read from cache, not the PFS: {s:?}"
        );
    }

    #[test]
    fn hedged_read_races_a_slow_primary() {
        let (pfs, fabric, _servers, client) = setup_with(2, |o| {
            o.retry.rpc_timeout = Duration::from_millis(500);
            o.retry.hedge_delay_percent = 4; // 20 ms
        });
        let p = sample(7);
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 2);
        // Warm pass: both endpoints healthy, no hedge should be needed.
        let expected = client.read_file(&p).unwrap();
        assert_eq!(expected, pfs.read_all(&p).unwrap());
        // The primary now answers, but only after 10x the hedge delay.
        fabric.fault_injector().set(
            &addrs[0],
            hvac_net::FaultSpec {
                delay_prob: 1.0,
                delay: Duration::from_millis(200),
                seed: 0x4ED6,
                ..hvac_net::FaultSpec::default()
            },
        );
        let t0 = Instant::now();
        assert_eq!(client.read_file(&p).unwrap(), expected);
        // read_file is one read RPC; it hedges after 20 ms and the backup
        // answers immediately, so the whole thing finishes far below even
        // one injected 200 ms delay.
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "backup should win the race: took {:?}",
            t0.elapsed()
        );
        let s = client.metrics().full_snapshot();
        assert!(s.hedges >= 1, "hedge fired: {s:?}");
        assert!(s.hedge_wins >= 1, "backup won at least once: {s:?}");
        assert_eq!(s.degraded_reads, 0, "{s:?}");
    }

    #[test]
    fn hedge_legs_run_their_loopback_handlers_on_hvac_threads() {
        use hvac_net::fabric::RpcHandler;
        let pfs = Arc::new(MemStore::new());
        pfs.synthesize_dataset(Path::new("/gpfs/set"), 4, |_| 64);
        let fabric = Arc::new(Fabric::new());
        // Each endpoint reports the name of the thread its handler runs on.
        let (seen_tx, seen_rx) = crossbeam::channel::unbounded::<String>();
        let mut servers = Vec::new();
        for node in 0..2usize {
            let cache = Arc::new(CacheManager::new(
                LocalStore::in_memory(ByteSize(1 << 20)),
                make_policy(EvictionPolicyKind::Random, node as u64),
            ));
            let server = HvacServer::new(
                cache,
                pfs.clone(),
                HvacServerOptions::default(),
                &format!("h{node}"),
            )
            .unwrap();
            let inner = Arc::clone(&server);
            let seen = seen_tx.clone();
            let handler: Arc<dyn RpcHandler> = Arc::new(move |req: Bytes| {
                let name = std::thread::current().name().unwrap_or("").to_string();
                let _ = seen.send(name);
                inner.handle(req)
            });
            let ep = fabric.serve(&server_addr(node, 1), handler).unwrap();
            servers.push((server, ep));
        }
        let mut opts = HvacClientOptions::new("/gpfs/set", 2, 1);
        opts.replication = 2;
        opts.retry.rpc_timeout = Duration::from_millis(500);
        opts.retry.hedge_delay_percent = 4; // 20 ms
        let client = HvacClient::new(fabric.clone(), opts).unwrap();
        let p = sample(1);
        // Slow the primary past the hedge delay so both legs fire.
        fabric.fault_injector().set(
            &client.replica_addrs(&p)[0],
            hvac_net::FaultSpec {
                delay_prob: 1.0,
                delay: Duration::from_millis(100),
                seed: 0x4ED6,
                ..hvac_net::FaultSpec::default()
            },
        );
        assert_eq!(client.read_file(&p).unwrap(), pfs.read_all(&p).unwrap());
        assert_eq!(client.metrics().full_snapshot().hedges, 1);
        // The slow primary leg still runs its handler after the delay.
        for leg in 0..2 {
            let name = seen_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(
                name.starts_with("hvac-hedge-"),
                "leg {leg} ran its handler on thread {name:?}"
            );
        }
    }

    #[test]
    fn batched_segmented_read_is_byte_exact_and_batches() {
        let (pfs, _f, servers, client) = setup2(1);
        for i in 0..8 {
            let p = sample(i);
            let expected = pfs.read_all(&p).unwrap();
            assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        }
        let s = client.metrics().full_snapshot();
        assert!(s.batch_rpcs >= 1, "batch RPCs issued: {s:?}");
        assert_eq!(s.batch_fallbacks, 0, "healthy cluster never falls back");
        let server_batches: u64 = servers
            .iter()
            .map(|(srv, _)| srv.metrics().snapshot().batch_rpcs)
            .sum();
        assert_eq!(server_batches, s.batch_rpcs, "ledger balances");
    }

    #[test]
    fn repeat_segmented_reads_stat_from_the_size_memo_until_a_purge() {
        let (pfs, _fabric, servers, client) = setup2(1);
        let p = sample(5);
        let expected = pfs.read_all(&p).unwrap();
        let opens = || pfs.stats().snapshot().0;
        for _ in 0..2 {
            assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        }
        // Segments never make the whole file resident; the home remembers
        // the size its first Stat learned from the PFS.
        assert_eq!(opens(), 1, "two segmented reads, one open_meta");
        let stats: u64 = servers
            .iter()
            .map(|(srv, _)| srv.metrics().snapshot().stats_ops)
            .sum();
        assert_eq!(stats, 2, "each read still sends its Stat");
        for (srv, _) in &servers {
            srv.cache().purge();
        }
        assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        assert_eq!(opens(), 2, "a purge forgets the size");
    }

    #[test]
    fn segmented_reads_match_the_pfs_across_segment_sizes() {
        let (pfs, _f, _s, client) = setup2(1);
        for i in 0..8 {
            let p = sample(i);
            let expected = pfs.read_all(&p).unwrap();
            for seg in [7u64, 16, 64, 1024] {
                assert_eq!(
                    client.read_file_segmented(&p, seg).unwrap(),
                    expected,
                    "segment {seg}"
                );
            }
        }
        let s = client.metrics().full_snapshot();
        assert!(s.batch_rpcs >= 8, "every read batched: {s:?}");
        assert_eq!(s.batch_fallbacks, 0, "{s:?}");
    }

    #[test]
    fn failed_batch_falls_back_to_the_per_segment_ladder() {
        let (pfs, fabric, _servers, mut client) = setup2(1);
        client.set_pfs_fallback(pfs.clone());
        let p = sample(3);
        let expected = pfs.read_all(&p).unwrap();
        // Down one server: any batch homed there fails as a unit, and its
        // own ladder degrades its items to the PFS, since the dead server
        // is their only replica.
        fabric.set_down(&server_addr(0, 1), true);
        assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        let s = client.metrics().full_snapshot();
        assert!(s.batch_fallbacks >= 1, "fallback counted: {s:?}");
    }

    #[test]
    fn stale_batches_are_replanned_under_the_newer_view() {
        let (pfs, _fabric, servers, client) = setup2(1);
        let p = sample(4);
        let expected = pfs.read_all(&p).unwrap();
        let seg_len = |s: u64| (expected.len() as u64 - s * 16).min(16);
        let segs = (expected.len() as u64).div_ceil(16);
        let homes = |client: &HvacClient| -> Vec<String> {
            (0..segs)
                .map(|s| client.segment_replica_addrs(&p, s)[0].clone())
                .collect()
        };
        let home = client.replica_addrs(&p)[0].clone();
        let old_homes = homes(&client);
        assert!(
            old_homes.iter().any(|h| *h != home),
            "some segment must live off the file's home"
        );
        // A newer view without the file's home reaches every server but the
        // home. The home still serves epoch 0, so the Stat and the home's
        // own batch go through; the other batches bounce and are planned
        // again under the newer view.
        let home_node = servers
            .iter()
            .position(|(_, ep)| ep.addr() == home)
            .unwrap();
        let newer = Arc::new(
            client
                .view()
                .with_node_removed(hvac_types::NodeId(home_node as u32))
                .unwrap(),
        );
        for (server, ep) in &servers {
            if ep.addr() != home {
                server.install_view(newer.clone());
            }
        }
        assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        assert_eq!(client.view().epoch(), newer.epoch());
        let new_homes = homes(&client);
        // Every segment was served once, by its home in the view its last
        // batch was planned under.
        for (server, ep) in &servers {
            let served: u64 = (0..segs)
                .filter(|&s| {
                    let s = s as usize;
                    if old_homes[s] == home {
                        ep.addr() == home
                    } else {
                        new_homes[s] == ep.addr()
                    }
                })
                .map(seg_len)
                .sum();
            assert_eq!(
                server.metrics().snapshot().served_bytes,
                served,
                "{}",
                ep.addr()
            );
        }
        let s = client.metrics().full_snapshot();
        assert_eq!(s.view_refreshes, 1, "one view swapped in: {s:?}");
        assert_eq!(s.degraded_reads, 0, "{s:?}");
    }

    #[test]
    fn batch_max_of_zero_is_rejected() {
        let fabric = Arc::new(Fabric::new());
        let mut opts = HvacClientOptions::new("/d", 1, 1);
        opts.batch_max = 0;
        assert!(matches!(
            HvacClient::new(fabric, opts),
            Err(HvacError::InvalidConfig(_))
        ));
    }

    /// A client on `setup2`'s allocation that reads in `chunk`-byte chunks.
    fn chunked_client(fabric: &Arc<Fabric>, chunk: usize) -> HvacClient {
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.bulk_chunk = chunk;
        HvacClient::new(fabric.clone(), opts).unwrap()
    }

    fn server_reads(servers: &ServerSet) -> u64 {
        servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .sum()
    }

    #[test]
    fn chunked_reads_round_trip_across_windows_and_chunk_sizes() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        for chunk in [1usize, 13, 100, 1 << 14] {
            let client = chunked_client(&fabric, chunk);
            for i in 0..3 {
                let p = sample(i);
                assert_eq!(
                    client.read_file(&p).unwrap(),
                    pfs.read_all(&p).unwrap(),
                    "chunk={chunk}"
                );
            }
            assert_eq!(client.metrics().full_snapshot().batch_fallbacks, 0);
        }
    }

    #[test]
    fn chunked_reads_recycle_pool_slabs() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        let client = chunked_client(&fabric, 16);
        for _ in 0..3 {
            for i in 0..4 {
                let p = sample(i);
                assert_eq!(client.read_file(&p).unwrap(), pfs.read_all(&p).unwrap());
            }
        }
        let stats = client.pool.stats();
        assert_eq!(stats.in_flight(), 0, "every reassembly slab came home");
        assert!(stats.pool_hits >= 2, "reads recycled the slab: {stats:?}");
    }

    #[test]
    fn chunked_pread_honours_offset_and_short_reads_at_eof() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        let client = chunked_client(&fabric, 16);
        let p = sample(4);
        let expected = pfs.read_all(&p).unwrap();
        let size = expected.len();
        let fd = client.open(&p).unwrap();
        // Unaligned offset, length far past EOF: clamped to the file.
        assert_eq!(
            client.pread(fd, 10, size + 500).unwrap(),
            expected.slice(10..)
        );
        assert_eq!(client.pread(fd, 3, 40).unwrap(), expected.slice(3..43));
        assert_eq!(
            client.pread(fd, size as u64 - 5, 100).unwrap(),
            expected.slice(size - 5..)
        );
        assert!(client.pread(fd, size as u64, 100).unwrap().is_empty());
        assert!(client.pread(fd, size as u64 + 7, 100).unwrap().is_empty());
        client.close(fd).unwrap();
    }

    #[test]
    fn one_chunk_read_is_a_single_read_rpc_at_any_offset() {
        let (pfs, fabric, servers, _client) = setup2(1);
        let client = chunked_client(&fabric, 16);
        let p = sample(1);
        let size = pfs.read_all(&p).unwrap().len() as u64;
        let fd = client.open(&p).unwrap();
        // (offset, len, RPCs): chunks tile from the read's own offset, so a
        // read of at most one chunk is one RPC however it is aligned, and a
        // 0-byte read at or past EOF still asks the server once.
        for (offset, len, rpcs) in [
            (0, 16, 1),
            (5, 16, 1),
            (15, 2, 1),
            (size - 3, 16, 1),
            (size, 0, 1),
            (size, 9, 1),
            (5, 17, 2),
            (1, 48, 3),
        ] {
            let before = server_reads(&servers);
            client.pread(fd, offset, len).unwrap();
            assert_eq!(
                server_reads(&servers) - before,
                rpcs,
                "pread at {offset} of {len} bytes"
            );
        }
        client.close(fd).unwrap();
    }

    #[test]
    fn multi_chunk_read_returns_the_lowest_offset_chunk_error() {
        let (_pfs, fabric, _servers, _client) = setup2(1);
        let client = chunked_client(&fabric, 16);
        let p = sample(2);
        let fd = client.open(&p).unwrap();
        let size = client.fd_size(fd).unwrap();
        let chunks = size.div_ceil(16);
        assert!(chunks >= 4, "a multi-chunk read: {chunks} chunks");
        for addr in client.replica_addrs(&p) {
            fabric.set_down(&addr, true);
        }
        let failed_before = fabric.stats().failed_calls.load(Ordering::Relaxed);
        // No PFS fallback: every chunk walks its own ladder and fails, and
        // the read returns the error of the chunk at offset 0.
        let err = client.pread(fd, 0, size as usize).unwrap_err();
        assert!(matches!(err, HvacError::ServerDown(_)), "{err:?}");
        assert_eq!(client.metrics().full_snapshot().batch_fallbacks, chunks);
        assert_eq!(
            fabric.stats().failed_calls.load(Ordering::Relaxed) - failed_before,
            chunks,
            "one call per chunk: a down replica is not retried, and an open \
             breaker is force-probed once"
        );
    }

    /// A PFS whose `read_at` fails at every offset from `fail_from` on, or
    /// with `short` comes back one byte short there.
    struct FailingTail {
        inner: Arc<MemStore>,
        fail_from: u64,
        short: bool,
    }

    impl FileStore for FailingTail {
        fn open_meta(&self, path: &Path) -> Result<FileMeta> {
            self.inner.open_meta(path)
        }

        fn read_all(&self, path: &Path) -> Result<Bytes> {
            self.inner.read_all(path)
        }

        fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
            if offset < self.fail_from {
                return self.inner.read_at(path, offset, len);
            }
            if self.short {
                return self.inner.read_at(path, offset, len.saturating_sub(1));
            }
            Err(HvacError::Rpc(format!("read at {offset} failed")))
        }

        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }

        fn list(&self, prefix: &Path) -> Result<Vec<PathBuf>> {
            self.inner.list(prefix)
        }

        fn stats(&self) -> &StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn first_failed_chunk_error_wins_deterministically() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        let mut client = chunked_client(&fabric, 16);
        client.set_pfs_fallback(Arc::new(FailingTail {
            inner: pfs,
            fail_from: 32,
            short: false,
        }));
        let p = sample(2);
        let fd = client.open(&p).unwrap();
        let size = client.fd_size(fd).unwrap();
        assert!(size > 48, "chunks past the failing one: {size} bytes");
        for addr in client.replica_addrs(&p) {
            fabric.set_down(&addr, true);
        }
        // Every chunk RPC fails and degrades to the PFS: the chunks at 0 and
        // 16 are served from it, and the read returns the error of the chunk
        // at 32, the first whose fallback fails.
        match client.pread(fd, 0, size as usize).unwrap_err() {
            HvacError::Rpc(msg) => assert_eq!(msg, "read at 32 failed"),
            other => panic!("unexpected {other:?}"),
        }
        let s = client.metrics().full_snapshot();
        assert_eq!(s.batch_fallbacks, size.div_ceil(16), "{s:?}");
        assert_eq!(s.degraded_reads, 2, "{s:?}");
    }

    #[test]
    fn a_short_degraded_segment_is_a_protocol_error() {
        let (pfs, fabric, _servers, mut client) = setup2(1);
        client.set_pfs_fallback(Arc::new(FailingTail {
            inner: pfs,
            fail_from: 32,
            short: true,
        }));
        for addr in fabric.endpoint_names() {
            fabric.set_down(&addr, true);
        }
        // Every batch degrades to the PFS, which comes back a byte short
        // from offset 32: inside the size the Stat reported, so the file
        // changed under the read.
        let err = client.read_file_segmented(&sample(2), 16).unwrap_err();
        assert!(matches!(err, HvacError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn chunk_offset_overflow_is_a_typed_error_not_a_wrap() {
        // A range whose end overflows u64 must surface as a typed error
        // before any chunk is planned; wrapping would read from offset ~0.
        let (_pfs, fabric, servers, _client) = setup2(1);
        let client = chunked_client(&fabric, 64);
        let err = client
            .read_path_at(&sample(0), u64::MAX - 10, 1024)
            .unwrap_err();
        assert!(matches!(err, HvacError::InvalidConfig(_)), "got {err:?}");
        assert_eq!(server_reads(&servers), 0, "no RPC was issued");
    }

    /// An encoded `Stat` of `sample(i)`, for driving the replica ladder
    /// directly.
    fn stat_request(i: u32) -> Bytes {
        Request::Stat { path: sample(i) }
            .encode_ctx(0, JobId::DEFAULT)
            .unwrap()
    }

    fn stat_size((resp, _): (Response, Bulk)) -> u64 {
        match resp {
            Response::Stat { size } => size,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_call() {
        // A healthy replica answers the ladder with exactly one RPC.
        let (pfs, fabric, _s, client) = setup2(1);
        let addrs = client.replica_addrs(&sample(0));
        let rpcs_before = fabric.stats().rpcs.load(Ordering::Relaxed);
        let reply = client
            .ladder
            .call_replicas(&addrs, &stat_request(0))
            .unwrap()
            .0;
        assert_eq!(
            stat_size(reply),
            pfs.read_all(&sample(0)).unwrap().len() as u64
        );
        assert_eq!(fabric.stats().rpcs.load(Ordering::Relaxed) - rpcs_before, 1);
        let s = client.metrics().full_snapshot();
        assert_eq!((s.failovers, s.retries, s.timeouts), (0, 0, 0), "{s:?}");
    }

    #[test]
    fn failover_skips_down_primary() {
        let (_pfs, fabric, _s, client) = setup2(2);
        let addrs = client.replica_addrs(&sample(3));
        fabric.set_down(&addrs[0], true);
        client
            .ladder
            .call_replicas(&addrs, &stat_request(3))
            .unwrap();
        assert_eq!(client.metrics().full_snapshot().failovers, 1);
    }

    #[test]
    fn failover_exhausted_returns_server_down() {
        let (_pfs, _f, _s, client) = setup2(1);
        let err = client
            .ladder
            .call_replicas(&["x".into(), "y".into()], &stat_request(0))
            .unwrap_err();
        assert!(matches!(err, HvacError::ServerDown(_)), "{err:?}");
    }

    #[test]
    fn hung_primary_fails_over_to_replica() {
        let (_pfs, fabric, _s, client) = setup_with(2, |o| {
            o.retry.rpc_timeout = Duration::from_millis(25);
            o.retry.max_attempts = 1;
        });
        let addrs = client.replica_addrs(&sample(3));
        fabric
            .fault_injector()
            .set(&addrs[0], hvac_net::FaultSpec::always_hang(11));
        let start = Instant::now();
        client
            .ladder
            .call_replicas(&addrs, &stat_request(3))
            .unwrap();
        let s = client.metrics().full_snapshot();
        assert_eq!(s.failovers, 1, "failover counted: {s:?}");
        assert!(s.timeouts >= 1, "{s:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "one hung replica costs one deadline, not a hang"
        );
    }

    #[test]
    fn empty_replica_set_is_config_error() {
        let (_pfs, _f, _s, client) = setup2(1);
        assert!(matches!(
            client.ladder.call_replicas(&[], &stat_request(0)),
            Err(HvacError::InvalidConfig(_))
        ));
    }

    #[test]
    fn healthy_primary_never_fails_over() {
        let (_pfs, _f, servers, client) = setup2(2);
        let addrs = client.replica_addrs(&sample(3));
        for _ in 0..5 {
            client
                .ladder
                .call_replicas(&addrs, &stat_request(3))
                .unwrap();
        }
        assert_eq!(client.metrics().full_snapshot().failovers, 0);
        let home = servers
            .iter()
            .position(|(_, ep)| ep.addr() == addrs[0])
            .unwrap();
        assert_eq!(servers[home].0.metrics().snapshot().stats_ops, 5);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let draws = |seed: u64| {
            let fabric = Arc::new(Fabric::new());
            let mut opts = HvacClientOptions::new("/d", 1, 1);
            opts.retry.jitter_seed = seed;
            let client = HvacClient::new(fabric, opts).unwrap();
            (0..8).map(|_| client.ladder.jitter()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same backoff schedule");
        assert_ne!(draws(7), draws(8), "different seed, different schedule");
    }
}
