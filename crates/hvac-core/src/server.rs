//! The HVAC server instance (paper §III-C, §III-D).
//!
//! Each instance owns a **shared FIFO queue** drained by dedicated
//! **data-mover threads**. RPC handler threads enqueue copy work and wait;
//! the mover fetches the file from the PFS exactly once even when many
//! clients race for it (the paper's "mutex lock on shared queue to ...
//! avoid repeated copying"), inserts it into the node's cache, and hands the
//! fetched bytes to all waiters, which serve them without reading the cache
//! back. Servers never talk to each other — a file's home is computed by
//! every client independently.
//!
//! Multiple instances on one node (HVAC (2×1), (4×1)) share the node's
//! [`CacheManager`] but have private queues and movers, which is exactly the
//! parallelism the paper varies in Fig. 9(b).

use crate::cache::CacheManager;
use crate::metrics::ServerMetrics;
use crate::protocol::{Request, Response};
use crate::qos::{Admit, QosOptions, TenantScheduler};
use crate::view::ViewHandle;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use hvac_hash::pathhash::{hash_path, tenant_key};
use hvac_net::fabric::{Fabric, Reply, RpcHandler, ServerEndpoint};
use hvac_net::Bulk;
use hvac_pfs::store::slice_read_at;
use hvac_pfs::FileStore;
use hvac_storage::default_shard_count;
use hvac_sync::{classes, OrderedMutex, OrderedMutexGuard};
use hvac_types::{ClusterView, HvacError, JobId, JobWeights, Result};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct HvacServerOptions {
    /// Data-mover threads draining the FIFO queue (paper default: 1).
    pub movers: usize,
    /// Per-tenant weighted-fair-share plan. Empty (the default) disables
    /// QoS entirely: every read is admitted immediately and nothing is
    /// shed, which is the single-tenant behaviour of earlier versions.
    pub job_weights: JobWeights,
    /// Scheduler tuning (only consulted when `job_weights` is non-empty).
    pub qos: QosOptions,
}

impl Default for HvacServerOptions {
    fn default() -> Self {
        Self {
            movers: 1,
            job_weights: JobWeights::default(),
            qos: QosOptions::default(),
        }
    }
}

/// How a read found its cache entry's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Found {
    /// Resident in the node cache: a hit.
    Resident,
    /// Copied in from the PFS by the data mover: a miss.
    Copied,
    /// Fetched from the PFS by the data mover but refused by the cache (the
    /// entry is larger than the device or the tenant's quota, a pinned
    /// MinIO cache is full, or the backing store failed the write): a miss,
    /// served without being cached.
    Refused,
}

/// What a data-mover copy hands its waiters: the bytes it fetched from the
/// PFS, and whether the cache admitted them.
type CopyResult = std::result::Result<(Bytes, Found), Arc<HvacError>>;

struct CopyJob {
    /// Application-space source path on the PFS.
    path: PathBuf,
    /// Cache key: equals `path` for whole-file caching; a synthetic
    /// `path#offset+len` key for segment-level caching (§III-E).
    key: PathBuf,
    /// `Some((offset, len))` restricts the copy to that byte range.
    range: Option<(u64, u64)>,
    /// The mover generation this job was enqueued under; a crash-stop bumps
    /// the generation, so stale jobs are discarded instead of resurrecting
    /// pre-crash state into the wiped cache.
    generation: u64,
}

type Waiters = HashMap<PathBuf, Vec<Sender<CopyResult>>>;

/// The in-flight dedup table, lock-striped by cache-key hash so concurrent
/// first-epoch fetches of *distinct* files admit in parallel instead of
/// funnelling through one global mutex. All stripes share the
/// `SERVER_INFLIGHT_STRIPE` class (a thread holds at most one stripe at a
/// time), and the stripe count mirrors the store's shard count so the two
/// striped layers scale together.
struct InflightTable {
    stripes: Vec<OrderedMutex<Waiters>>,
    /// `stripes.len() - 1`; the count is a power of two.
    mask: u64,
}

impl InflightTable {
    fn new(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        Self {
            stripes: (0..n)
                .map(|_| OrderedMutex::new(classes::SERVER_INFLIGHT_STRIPE, HashMap::new()))
                .collect(),
            mask: (n - 1) as u64,
        }
    }

    /// The stripe index a cache key maps to.
    fn stripe_of(&self, key: &Path) -> usize {
        (hash_path(key).0 & self.mask) as usize
    }

    /// Lock stripe `idx`, counting the acquisition as contended on
    /// `metrics` when another thread holds it at that moment.
    fn lock(&self, idx: usize, metrics: &ServerMetrics) -> OrderedMutexGuard<'_, Waiters> {
        match self.stripes[idx].try_lock() {
            Some(guard) => guard,
            None => {
                metrics.stripe_contended(idx);
                self.stripes[idx].lock()
            }
        }
    }

    /// Join every copy in flight as one more waiter (stripes locked one at
    /// a time). Each receiver fires when its copy finishes or a crash-stop
    /// aborts it.
    fn watch_all(&self) -> Vec<Receiver<CopyResult>> {
        let mut watches = Vec::new();
        for stripe in &self.stripes {
            for waiters in stripe.lock().values_mut() {
                let (tx, rx) = bounded(1);
                waiters.push(tx);
                watches.push(rx);
            }
        }
        watches
    }

    /// Crash-stop: drain every stripe (strictly one at a time) and error
    /// out all parked waiters with `ServerDown`. The sends happen with no
    /// stripe lock held.
    fn wipe(&self) {
        let mut victims: Vec<Vec<Sender<CopyResult>>> = Vec::new();
        for stripe in &self.stripes {
            victims.extend(std::mem::take(&mut *stripe.lock()).into_values());
        }
        for senders in victims {
            for w in senders {
                let _ = w.send(Err(Arc::new(HvacError::ServerDown(
                    "crash-stop: in-flight copy aborted".into(),
                ))));
            }
        }
    }
}

/// The data-mover machinery: FIFO queue + threads + striped in-flight
/// dedup table.
struct DataMover {
    queue_tx: Sender<CopyJob>,
    // lockgraph: inflight -> SERVER_INFLIGHT_STRIPE
    inflight: Arc<InflightTable>,
    /// Bumped by a crash-stop; movers discard jobs from older generations.
    generation: Arc<AtomicU64>,
    threads: OrderedMutex<Vec<JoinHandle<()>>>,
}

impl DataMover {
    fn spawn(
        cache: Arc<CacheManager>,
        pfs: Arc<dyn FileStore>,
        metrics: Arc<ServerMetrics>,
        movers: usize,
        name: &str,
    ) -> Result<Self> {
        let (queue_tx, queue_rx) = unbounded::<CopyJob>();
        let inflight = Arc::new(InflightTable::new(default_shard_count()));
        let generation = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::with_capacity(movers.max(1));
        for m in 0..movers.max(1) {
            let rx: Receiver<CopyJob> = queue_rx.clone();
            let cache = cache.clone();
            let pfs = pfs.clone();
            let metrics = metrics.clone();
            let inflight = inflight.clone();
            let generation = generation.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hvac-mover-{name}-{m}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A crash-stop wiped this job's waiters; executing
                        // it would resurrect pre-crash state into the
                        // freshly-emptied cache, so skip it entirely (any
                        // post-crash request for the same key enqueued its
                        // own job under the new generation).
                        if job.generation != generation.load(Ordering::Relaxed) {
                            continue;
                        }
                        // Step ⑥ of §III-D: copy PFS -> node-local store,
                        // then hand the fetched bytes to every waiter. A
                        // refused insert still serves them: one PFS read
                        // per miss, cached or not.
                        let fetched = match job.range {
                            None => pfs.read_all(&job.path),
                            Some((offset, len)) => pfs.read_at(&job.path, offset, len as usize),
                        };
                        let result: CopyResult = fetched.map_err(Arc::new).map(|data| {
                            let found = match cache.insert(&job.key, data.clone()) {
                                Ok(outcome) => {
                                    let n = data.len() as u64;
                                    let evicted = outcome.evicted.len() as u64;
                                    metrics.pfs_copies.fetch_add(1, Ordering::Relaxed);
                                    metrics.pfs_bytes.fetch_add(n, Ordering::Relaxed);
                                    metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
                                    Found::Copied
                                }
                                Err(_) => Found::Refused,
                            };
                            (data, found)
                        });
                        let idx = inflight.stripe_of(&job.key);
                        let waiters = inflight
                            .lock(idx, &metrics)
                            .remove(&job.key)
                            .unwrap_or_default();
                        for w in waiters {
                            let _ = w.send(result.clone());
                        }
                    }
                });
            match handle {
                Ok(h) => threads.push(h),
                Err(e) => {
                    // Closing the queue lets the already-spawned movers exit.
                    drop(queue_tx);
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(HvacError::Io(e));
                }
            }
        }
        Ok(Self {
            queue_tx,
            inflight,
            generation,
            threads: OrderedMutex::new(classes::SERVER_THREADS, threads),
        })
    }

    /// Crash-stop: discard every queued copy job (by bumping the
    /// generation) and error out all parked waiters.
    fn crash(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.inflight.wipe();
    }

    /// Fire-and-forget staging: enqueue a copy of `path` (cached under
    /// `key`, which namespaces it by tenant) unless it is resident or
    /// already in flight (used by the §IV-C prefetch extension). Returns
    /// whether a new copy job was enqueued.
    fn request_copy(
        &self,
        cache: &CacheManager,
        metrics: &ServerMetrics,
        path: &Path,
        key: &Path,
    ) -> bool {
        if cache.contains(key) {
            return false;
        }
        let idx = self.inflight.stripe_of(key);
        let mut inflight = self.inflight.lock(idx, metrics);
        // lockgraph: acquires STORE_SHARD
        if cache.contains(key) || inflight.contains_key(key) {
            return false;
        }
        inflight.insert(key.to_path_buf(), Vec::new());
        self.queue_tx
            .send(CopyJob {
                path: path.to_path_buf(),
                key: key.to_path_buf(),
                range: None,
                generation: self.generation.load(Ordering::Relaxed),
            })
            .is_ok()
    }

    /// The bytes of cache entry `key`, sourced from `path` (optionally a
    /// byte range of it), and how they were found. A hit is one cache
    /// lookup. A miss waits for the data mover's copy — joining the one in
    /// flight (§III-D dedup) or enqueuing a new one — and takes the bytes
    /// the copy fetched, so it never reads the cache back and an eviction
    /// cannot take them away.
    fn lookup(
        &self,
        cache: &CacheManager,
        metrics: &ServerMetrics,
        path: &Path,
        key: &Path,
        range: Option<(u64, u64)>,
    ) -> Result<(Bytes, Found)> {
        let idx = self.inflight.stripe_of(key);
        let mut recheck = true;
        let rx = loop {
            if let Some(entry) = cache.read_all(key) {
                metrics.stripe_hit(idx);
                return Ok((entry, Found::Resident));
            }
            let mut inflight = self.inflight.lock(idx, metrics);
            // Re-check under the lock: a copy may have landed, and left the
            // in-flight table, since the lookup above; go back and read it.
            // Only once, so an entry evicted again at once is copied afresh.
            // lockgraph: acquires STORE_SHARD
            if std::mem::take(&mut recheck) && cache.contains(key) {
                continue;
            }
            metrics.stripe_miss(idx);
            let (tx, rx) = bounded::<CopyResult>(1);
            match inflight.get_mut(key) {
                Some(waiters) => {
                    // Piggyback on the in-flight copy (§III-D dedup).
                    waiters.push(tx);
                    metrics.dedup_waits.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    inflight.insert(key.to_path_buf(), vec![tx]);
                    self.queue_tx
                        .send(CopyJob {
                            path: path.to_path_buf(),
                            key: key.to_path_buf(),
                            range,
                            generation: self.generation.load(Ordering::Relaxed),
                        })
                        .map_err(|_| HvacError::Rpc("data mover queue closed".into()))?;
                }
            }
            break rx;
        };
        match rx.recv() {
            Ok(Ok(copied)) => Ok(copied),
            Ok(Err(e)) => Err(clone_error(&e)),
            Err(_) => Err(HvacError::Rpc("data mover died".into())),
        }
    }
}

/// Cache key of a file segment: `<path>#<offset>+<len>`.
pub fn segment_key(path: &Path, offset: u64, len: u64) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(format!("#{offset}+{len}"));
    PathBuf::from(s)
}

/// Rebuild an owned error from a shared one (HvacError is not `Clone`
/// because it can wrap `io::Error`).
fn clone_error(e: &HvacError) -> HvacError {
    match e {
        HvacError::NotFound(p) => HvacError::NotFound(p.clone()),
        HvacError::CapacityExhausted {
            requested,
            capacity,
        } => HvacError::CapacityExhausted {
            requested: *requested,
            capacity: *capacity,
        },
        HvacError::ServerDown(s) => HvacError::ServerDown(s.clone()),
        HvacError::RpcTimeout { addr, elapsed } => HvacError::RpcTimeout {
            addr: addr.clone(),
            elapsed: *elapsed,
        },
        HvacError::Remote { code, message } => HvacError::Remote {
            code: *code,
            message: message.clone(),
        },
        HvacError::StaleView { current_epoch } => HvacError::StaleView {
            current_epoch: *current_epoch,
        },
        other => HvacError::Rpc(other.to_string()),
    }
}

/// One HVAC server instance.
pub struct HvacServer {
    cache: Arc<CacheManager>,
    pfs: Arc<dyn FileStore>,
    metrics: Arc<ServerMetrics>,
    mover: DataMover,
    /// The membership view this instance believes in. Requests carrying an
    /// older epoch are bounced with [`Response::StaleView`] so the sender
    /// can re-resolve ownership (the stale-view redirect protocol).
    view: Arc<ViewHandle>,
    /// Weighted-fair admission over the device read path. Pass-through when
    /// no weights plan is configured.
    sched: TenantScheduler,
}

impl HvacServer {
    /// Build a server instance over the node's cache and the shared PFS.
    ///
    /// The server starts on the solo epoch-0 view; a cluster harness (or
    /// deployment agent) installs the real membership via
    /// [`Self::install_view`]. Epoch-0 requests — the static-allocation
    /// wire format — are always accepted.
    pub fn new(
        cache: Arc<CacheManager>,
        pfs: Arc<dyn FileStore>,
        options: HvacServerOptions,
        name: &str,
    ) -> Result<Arc<Self>> {
        let metrics = Arc::new(ServerMetrics::with_stripes(default_shard_count()));
        let mover = DataMover::spawn(
            cache.clone(),
            pfs.clone(),
            metrics.clone(),
            options.movers,
            name,
        )?;
        let sched = TenantScheduler::with_options(options.job_weights, options.qos);
        Ok(Arc::new(Self {
            cache,
            pfs,
            metrics,
            mover,
            view: ViewHandle::new(ClusterView::initial(1, 1)?),
            sched,
        }))
    }

    /// This instance's metrics.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The node cache shared with sibling instances.
    pub fn cache(&self) -> &Arc<CacheManager> {
        &self.cache
    }

    /// Crash-stop this instance's volatile state: queued copy jobs are
    /// discarded, every parked waiter is errored out with `ServerDown`,
    /// and the node cache is purged. The threads and endpoint survive —
    /// a restarted server answers at the same address but `ENOENT`s
    /// everything it used to own, which is the crash-stop model DESIGN.md
    /// §6.1 describes (the harness-level wrapper is
    /// `Cluster::crash_node`).
    pub fn crash(&self) {
        self.mover.crash();
        self.cache.purge();
    }

    /// Install a (strictly newer) membership view. Returns whether the
    /// view advanced; older or equal epochs are ignored.
    pub fn install_view(&self, view: Arc<ClusterView>) -> bool {
        self.view.install(view)
    }

    /// Snapshot of this instance's current membership view.
    pub fn view(&self) -> Arc<ClusterView> {
        self.view.snapshot()
    }

    /// Register this server on the fabric under `addr`.
    pub fn serve(self: &Arc<Self>, fabric: &Arc<Fabric>, addr: &str) -> Result<ServerEndpoint> {
        fabric.serve(addr, self.clone())
    }

    /// Handle one decoded request under the default (legacy) tenant — the
    /// entry point unit tests use; every other caller reaches the server
    /// through the fabric.
    pub fn handle_request(&self, req: Request) -> (Response, Option<Bulk>) {
        self.handle_request_for(JobId::DEFAULT, req)
    }

    /// Handle one decoded request on behalf of tenant `job`. Cache entries
    /// (and in-flight dedup slots) are keyed under the tenant namespace, so
    /// two jobs never share bytes or eviction fate; PFS operations always
    /// use the raw application path. A bulk reply carries the bytes the
    /// cache or the data mover holds, uncopied: a batch's items are the
    /// parts of its [`Bulk`].
    pub fn handle_request_for(&self, job: JobId, req: Request) -> (Response, Option<Bulk>) {
        match req {
            Request::Stat { path } => {
                self.metrics.stats_ops.fetch_add(1, Ordering::Relaxed);
                match self.stat(&path, &tenant_key(job, &path)) {
                    Ok(size) => (Response::Stat { size }, None),
                    Err(e) => (Response::from_error(&e), None),
                }
            }
            Request::Read { path, offset, len } => {
                match self.read(job, &path, &tenant_key(job, &path), None, offset, len) {
                    Ok((total_size, cache_hit, data)) => (
                        Response::Data {
                            total_size,
                            cache_hit,
                        },
                        Some(data.into()),
                    ),
                    Err(e) => (Response::from_error(&e), None),
                }
            }
            Request::Purge => {
                self.cache.purge();
                (Response::Ok, None)
            }
            Request::Prefetch { paths } => {
                for path in &paths {
                    let key = tenant_key(job, path);
                    if self
                        .mover
                        .request_copy(&self.cache, &self.metrics, path, &key)
                    {
                        self.metrics.prefetches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (Response::Ok, None)
            }
            Request::Batch { items } => {
                self.metrics.batch_rpcs.fetch_add(1, Ordering::Relaxed);
                let mut lens = Vec::with_capacity(items.len());
                let mut parts = Vec::with_capacity(items.len());
                for item in &items {
                    match self.read_segment(job, Path::new(&item.path), item.offset, item.len) {
                        Ok((_hit, data)) if data.len() <= u32::MAX as usize => {
                            lens.push(data.len() as u32);
                            parts.push(data);
                        }
                        Ok(_) => {
                            return (
                                Response::from_error(&HvacError::Protocol(
                                    "batch item payload exceeds the u32 length field".into(),
                                )),
                                None,
                            )
                        }
                        // All-or-nothing: one failed item fails the batch;
                        // the client re-reads every item through the
                        // per-segment retry/failover ladder.
                        Err(e) => return (Response::from_error(&e), None),
                    }
                }
                (Response::Batch { lens }, Some(Bulk::from(parts)))
            }
        }
    }

    /// Block until every copy in flight at the call — the staging a
    /// prefetch just requested — has finished (test/benchmark helper;
    /// production callers just keep training — demand reads piggyback on
    /// in-flight copies via the §III-D dedup). It waits as one more waiter
    /// on each copy, so it wakes on the copy's own completion.
    pub fn drain_prefetches(&self) {
        for copy in self.mover.inflight.watch_all() {
            let _ = copy.recv();
        }
    }

    /// Weighted-fair admission for one device read of `cost` bytes on
    /// behalf of `job`. `None` means the read was shed: it must be served
    /// via the PFS-bypass ladder instead of touching the cache/device path.
    /// The returned grant is RAII — dropping it frees the device slot.
    fn admit(&self, job: JobId, cost: u64) -> Option<crate::qos::AdmitGrant<'_>> {
        match self.sched.admit(job, cost) {
            Admit::Granted(grant) => {
                self.metrics.tenant_admit(job.0);
                Some(grant)
            }
            Admit::Shed => {
                self.metrics.tenant_shed(job.0);
                None
            }
        }
    }

    /// The size of `path`, cached under `key`: a resident entry's size, else
    /// the size the node last learned from the PFS, else one `open_meta`,
    /// which the node then remembers until a purge. Segment caching never
    /// makes the whole file resident, so without the memo every segmented
    /// read's `Stat` would reach the PFS.
    fn stat(&self, path: &Path, key: &Path) -> Result<u64> {
        if let Some(size) = self.cache.known_size(key) {
            return Ok(size);
        }
        let size = self.pfs.open_meta(path)?.size;
        self.cache.remember_size(key, size);
        Ok(size)
    }

    /// Segment-granular read (§III-E alternative): cache and serve only the
    /// requested byte range, keyed separately from whole-file entries (and
    /// per tenant).
    fn read_segment(
        &self,
        job: JobId,
        path: &Path,
        offset: u64,
        len: u64,
    ) -> Result<(bool, Bytes)> {
        let key = segment_key(&tenant_key(job, path), offset, len);
        let (_, hit, data) = self.read(job, path, &key, Some((offset, len)), 0, len)?;
        Ok((hit, data))
    }

    /// Bytes QoS admission charges a read of `len` at offset `at` of entry
    /// `key`: what the read will serve when the entry is resident — a fused
    /// whole-file read asks for a whole chunk of a file that is often far
    /// smaller — and `len` otherwise. The size lookup runs only when a
    /// weights plan is set, so the default read path pays nothing for it.
    fn qos_cost(&self, key: &Path, at: u64, len: u64) -> u64 {
        if !self.sched.enabled() {
            return len;
        }
        self.cache
            .size_of(key)
            .map_or(len, |size| len.min(size.bytes().saturating_sub(at)))
    }

    /// Serve a read straight from the PFS without caching — the path of a
    /// tenant shed by admission control. CoorDL semantics: un-admitted
    /// reads are still served, just not accelerated. A short read from
    /// offset 0 already proves the file's size, so only a full-length read
    /// pays an `open_meta` for it.
    fn pfs_bypass_read(
        &self,
        job: JobId,
        path: &Path,
        offset: u64,
        len: u64,
    ) -> Result<(u64, bool, Bytes)> {
        let data = self.pfs.read_at(path, offset, len as usize)?;
        let total_size = if offset == 0 && (data.len() as u64) < len {
            data.len() as u64
        } else {
            self.pfs.open_meta(path)?.size
        };
        self.metrics
            .pfs_bypass_reads
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .served_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.metrics.tenant_read(job.0, data.len() as u64);
        Ok((total_size, false, data))
    }

    /// Serve `len` bytes at offset `at` of cache entry `key`, returning the
    /// entry's size, whether the read was a hit, and the bytes. The entry
    /// holds `copy` (offset, length) of `path` — the whole file when `None`
    /// — and a miss is served from the bytes the data mover copied in from
    /// the PFS, so it costs one PFS read even when the cache refuses them
    /// (counted as a `pfs_bypass_reads` miss). A shed tenant reads the
    /// range straight from the PFS.
    fn read(
        &self,
        job: JobId,
        path: &Path,
        key: &Path,
        copy: Option<(u64, u64)>,
        at: u64,
        len: u64,
    ) -> Result<(u64, bool, Bytes)> {
        self.metrics.reads.fetch_add(1, Ordering::Relaxed);
        let Some(_grant) = self.admit(job, self.qos_cost(key, at, len)) else {
            // Over-limit tenant: degrade to the PFS ladder (§III-G) rather
            // than queueing behind well-behaved tenants' device reads.
            let pfs_offset = copy.map_or(at, |(start, _)| start + at);
            return self.pfs_bypass_read(job, path, pfs_offset, len);
        };
        let (entry, found) = self
            .mover
            .lookup(&self.cache, &self.metrics, path, key, copy)?;
        if found == Found::Resident {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        if found == Found::Refused {
            self.metrics
                .pfs_bypass_reads
                .fetch_add(1, Ordering::Relaxed);
        }
        let data = slice_read_at(&entry, at, len as usize);
        self.metrics
            .served_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.metrics.tenant_read(job.0, data.len() as u64);
        Ok((entry.len() as u64, found == Found::Resident, data))
    }
}

impl RpcHandler for HvacServer {
    fn handle(&self, request: Bytes) -> Reply {
        let mut job = JobId::DEFAULT;
        let (response, bulk) = match Request::decode_with_ctx(request) {
            // A sender on an *older* epoch may be addressing the wrong home
            // — bounce it with the current view so it can re-resolve.
            // Newer-epoch requests are served: this server just hasn't
            // heard yet, and placement only has to be right at the sender.
            Ok((req_epoch, req_job, _)) if req_epoch < self.view.epoch() => {
                job = req_job;
                self.metrics
                    .stale_view_redirects
                    .fetch_add(1, Ordering::Relaxed);
                (
                    Response::StaleView {
                        view: (*self.view.snapshot()).clone(),
                    },
                    None,
                )
            }
            Ok((_, req_job, req)) => {
                job = req_job;
                self.handle_request_for(req_job, req)
            }
            Err(e) => (Response::from_error(&e), None),
        };
        Reply {
            // Echo the sender's job id so the response status byte stays
            // byte-identical to older versions for the default tenant.
            header: response.encode_for(job),
            bulk,
        }
    }
}

impl Drop for DataMover {
    fn drop(&mut self) {
        // Closing the queue lets mover threads drain and exit.
        let (dead_tx, _) = unbounded();
        self.queue_tx = dead_tx;
        for t in std::mem::take(&mut *self.threads.lock()) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::make_policy;
    use hvac_pfs::{FileMeta, MemStore, StoreStats};
    use hvac_storage::LocalStore;
    use hvac_types::{ByteSize, EvictionPolicyKind};
    use std::time::{Duration, Instant};

    fn dataset() -> Arc<MemStore> {
        let pfs = Arc::new(MemStore::new());
        pfs.synthesize_dataset(Path::new("/data"), 16, |_| 100);
        pfs
    }

    fn server_over(pfs: Arc<dyn FileStore>, cap: u64) -> Arc<HvacServer> {
        let cache = Arc::new(CacheManager::new(
            LocalStore::in_memory(ByteSize(cap)),
            make_policy(EvictionPolicyKind::Random, 1),
        ));
        HvacServer::new(cache, pfs, HvacServerOptions::default(), "test").unwrap()
    }

    fn setup(cap: u64) -> (Arc<MemStore>, Arc<HvacServer>) {
        let pfs = dataset();
        (pfs.clone(), server_over(pfs, cap))
    }

    /// A PFS whose whole-file reads park until the test sends on the gate,
    /// holding a data-mover copy in flight for as long as the test needs.
    struct GatedStore {
        inner: Arc<MemStore>,
        gate: Receiver<()>,
    }

    impl FileStore for GatedStore {
        fn open_meta(&self, path: &Path) -> Result<FileMeta> {
            self.inner.open_meta(path)
        }

        fn read_all(&self, path: &Path) -> Result<Bytes> {
            // Bounded, so a test that never opens the gate fails its
            // assertions instead of hanging.
            let _ = self.gate.recv_timeout(Duration::from_secs(30));
            self.inner.read_all(path)
        }

        fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
            self.inner.read_at(path, offset, len)
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

    fn sample(i: u32) -> PathBuf {
        PathBuf::from(format!("/data/sample_{i:08}.bin"))
    }

    #[test]
    fn first_read_misses_then_hits() {
        let (pfs, server) = setup(10_000);
        let p = sample(0);
        let (resp, bulk) = server.handle_request(Request::Read {
            path: p.clone(),
            offset: 0,
            len: 100,
        });
        match resp {
            Response::Data {
                total_size,
                cache_hit,
            } => {
                assert_eq!(total_size, 100);
                assert!(!cache_hit);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(bulk.unwrap().len(), 100);

        let (resp, _) = server.handle_request(Request::Read {
            path: p.clone(),
            offset: 0,
            len: 100,
        });
        assert!(matches!(
            resp,
            Response::Data {
                cache_hit: true,
                ..
            }
        ));

        let snap = server.metrics().snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.pfs_copies, 1);
        // The striped inflight table saw one admit (miss) and one fast-path
        // hit, mirroring the cache counters.
        assert_eq!(snap.stripe_hits, 1);
        assert_eq!(snap.stripe_misses, 1);
        // PFS saw exactly one data read.
        assert_eq!(pfs.stats().snapshot().1, 1);
    }

    #[test]
    fn read_returns_correct_bytes_and_ranges() {
        let (pfs, server) = setup(10_000);
        let p = sample(3);
        let expected = pfs.read_all(&p).unwrap();
        let (_, bulk) = server.handle_request(Request::Read {
            path: p.clone(),
            offset: 10,
            len: 20,
        });
        assert_eq!(expected.slice(10..30), bulk.unwrap().to_vec());
        // Reads past EOF return empty bulk.
        let (resp, bulk) = server.handle_request(Request::Read {
            path: p,
            offset: 100,
            len: 10,
        });
        assert!(matches!(resp, Response::Data { .. }));
        assert_eq!(bulk.unwrap().len(), 0);
    }

    #[test]
    fn stat_prefers_cache_but_falls_back_to_pfs() {
        let (pfs, server) = setup(10_000);
        let p = sample(1);
        let (resp, _) = server.handle_request(Request::Stat { path: p.clone() });
        assert_eq!(resp, Response::Stat { size: 100 });
        assert_eq!(pfs.stats().snapshot().0, 1); // PFS open_meta

        // After caching, stat does not touch the PFS again.
        server.handle_request(Request::Read {
            path: p.clone(),
            offset: 0,
            len: 1,
        });
        let (resp, _) = server.handle_request(Request::Stat { path: p });
        assert_eq!(resp, Response::Stat { size: 100 });
        assert_eq!(pfs.stats().snapshot().0, 1);
    }

    #[test]
    fn stat_remembers_pfs_sizes_until_a_purge_or_crash() {
        let (pfs, server) = setup(10_000);
        let opens = || pfs.stats().snapshot().0;
        let stat = |p: PathBuf| server.handle_request(Request::Stat { path: p }).0;
        for _ in 0..3 {
            assert_eq!(stat(sample(1)), Response::Stat { size: 100 });
        }
        assert_eq!(opens(), 1, "repeat Stats are answered from the memo");
        server.crash();
        assert_eq!(stat(sample(1)), Response::Stat { size: 100 });
        assert_eq!(opens(), 2, "a crash forgets the size");
        server.handle_request(Request::Purge);
        assert_eq!(stat(sample(1)), Response::Stat { size: 100 });
        assert_eq!(opens(), 3, "so does a purge");
        // A failed lookup is not remembered.
        for _ in 0..2 {
            assert!(matches!(
                stat(PathBuf::from("/data/absent")),
                Response::Err { code: 2, .. }
            ));
        }
        assert_eq!(opens(), 5);
        assert_eq!(server.cache().resident_count(), 0, "sizes are not entries");
    }

    #[test]
    fn missing_file_surfaces_not_found() {
        let (_pfs, server) = setup(10_000);
        let (resp, bulk) = server.handle_request(Request::Read {
            path: PathBuf::from("/data/absent"),
            offset: 0,
            len: 1,
        });
        match resp {
            Response::Err { code, .. } => assert_eq!(code, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(bulk.is_none());
    }

    #[test]
    fn concurrent_first_reads_copy_once() {
        let pfs = dataset();
        let (open_gate, gate) = bounded(1);
        let server = server_over(
            Arc::new(GatedStore {
                inner: pfs.clone(),
                gate,
            }),
            100_000,
        );
        let p = sample(5);
        let mut joins = Vec::new();
        for _ in 0..16 {
            let server = server.clone();
            let p = p.clone();
            joins.push(std::thread::spawn(move || {
                let (resp, bulk) = server.handle_request(Request::Read {
                    path: p,
                    offset: 0,
                    len: 100,
                });
                assert!(matches!(resp, Response::Data { .. }));
                bulk.unwrap().len()
            }));
        }
        // The first racer's copy is parked in the gated PFS read. Open the
        // gate only once the other 15 have all parked on that copy in the
        // in-flight table, so the dedup path runs on every schedule.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().dedup_waits.load(Ordering::Relaxed) < 15 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        open_gate.send(()).unwrap();
        for j in joins {
            assert_eq!(j.join().unwrap(), 100);
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.pfs_copies, 1, "exactly one PFS copy under racing");
        assert_eq!(pfs.stats().snapshot().1, 1);
        assert!(
            snap.dedup_waits > 0,
            "racers piggybacked on the in-flight copy"
        );
    }

    #[test]
    fn eviction_under_pressure_keeps_serving() {
        // Cache fits only 3 of the 16 files; every file must still be
        // readable (paper §III-G: random replacement when dataset > cache).
        let (_pfs, server) = setup(350);
        for round in 0..3 {
            for i in 0..16 {
                let (resp, bulk) = server.handle_request(Request::Read {
                    path: sample(i),
                    offset: 0,
                    len: 100,
                });
                assert!(
                    matches!(resp, Response::Data { .. }),
                    "round {round} file {i}: {resp:?}"
                );
                assert_eq!(bulk.unwrap().len(), 100);
            }
        }
        let snap = server.metrics().snapshot();
        assert!(snap.evictions > 0);
        assert!(snap.pfs_copies >= 16);
        assert!(server.cache().store().used().bytes() <= 350);
    }

    #[test]
    fn purge_empties_the_cache() {
        let (_pfs, server) = setup(10_000);
        server.handle_request(Request::Read {
            path: sample(0),
            offset: 0,
            len: 1,
        });
        assert_eq!(server.cache().resident_count(), 1);
        let (resp, _) = server.handle_request(Request::Purge);
        assert_eq!(resp, Response::Ok);
        assert_eq!(server.cache().resident_count(), 0);
    }

    #[test]
    fn refused_insert_serves_the_fetched_bytes_with_one_pfs_read() {
        // A 50-byte cache can never hold a 100-byte file: the mover's insert
        // is refused, and the read is served from the bytes it fetched.
        let (pfs, server) = setup(50);
        let p = sample(6);
        let expected = pfs.read_all(&p).unwrap();
        let before = pfs.stats().snapshot();
        let (resp, bulk) = server.handle_request(Request::Read {
            path: p,
            offset: 0,
            len: 1 << 20,
        });
        assert_eq!(
            resp,
            Response::Data {
                total_size: 100,
                cache_hit: false
            }
        );
        assert_eq!(expected, bulk.unwrap().to_vec());
        let after = pfs.stats().snapshot();
        assert_eq!(after.0 - before.0, 0, "no open_meta");
        assert_eq!(after.1 - before.1, 1, "exactly one PFS read");
        let snap = server.metrics().snapshot();
        assert_eq!((snap.reads, snap.cache_misses), (1, 1));
        assert_eq!(snap.pfs_bypass_reads, 1);
        assert_eq!(snap.pfs_copies, 0, "nothing was cached");
        assert_eq!(server.cache().resident_count(), 0);
    }

    #[test]
    fn bypass_read_stats_only_when_the_read_is_full_length() {
        let (pfs, server) = setup(10_000);
        let p = sample(7);
        let expected = pfs.read_all(&p).unwrap();
        // (offset, len, PFS opens): a short read from offset 0 is the whole
        // file, so its size needs no open_meta; any other read does.
        for (offset, len, opens) in [(0, 1 << 20, 0), (0, 100, 1), (0, 40, 1), (10, 1 << 20, 1)] {
            let before = pfs.stats().snapshot();
            let (total_size, hit, data) = server
                .pfs_bypass_read(JobId::DEFAULT, &p, offset, len)
                .unwrap();
            let after = pfs.stats().snapshot();
            assert_eq!((total_size, hit), (100, false), "read at {offset} of {len}");
            assert_eq!(data, slice_read_at(&expected, offset, len as usize));
            assert_eq!(after.0 - before.0, opens, "read at {offset} of {len}");
            assert_eq!(after.1 - before.1, 1, "read at {offset} of {len}");
        }
    }

    #[test]
    fn qos_charges_the_bytes_a_read_of_a_resident_entry_serves() {
        let pfs = dataset();
        let cache = Arc::new(CacheManager::new(
            LocalStore::in_memory(ByteSize(10_000)),
            make_policy(EvictionPolicyKind::Random, 1),
        ));
        let options = HvacServerOptions {
            job_weights: JobWeights::parse("0=1").unwrap(),
            ..HvacServerOptions::default()
        };
        let server = HvacServer::new(cache, pfs, options, "qos").unwrap();
        let p = sample(8);
        // Not resident yet: the size is unknown, so the request is charged.
        assert_eq!(server.qos_cost(&p, 0, 1 << 20), 1 << 20);
        server.handle_request(Request::Read {
            path: p.clone(),
            offset: 0,
            len: 1 << 20,
        });
        // A fused read of the resident 100-byte file is charged 100 bytes.
        assert_eq!(server.qos_cost(&p, 0, 1 << 20), 100);
        assert_eq!(server.qos_cost(&p, 60, 1 << 20), 40);
        assert_eq!(server.qos_cost(&p, 0, 30), 30);
        assert_eq!(server.qos_cost(&p, 500, 30), 0);
        // Without a weights plan the request length is charged, unlooked-up.
        let (_pfs, plain) = setup(10_000);
        plain.handle_request(Request::Read {
            path: p.clone(),
            offset: 0,
            len: 100,
        });
        assert_eq!(plain.qos_cost(&p, 0, 1 << 20), 1 << 20);
    }

    #[test]
    fn drain_waits_for_a_parked_copy_and_returns_once_it_lands() {
        let pfs = dataset();
        let (open_gate, gate) = bounded(1);
        let server = server_over(
            Arc::new(GatedStore {
                inner: pfs.clone(),
                gate,
            }),
            100_000,
        );
        // The prefetch registers the copy in flight before it replies; the
        // copy then parks in the gated PFS read.
        let (resp, _) = server.handle_request(Request::Prefetch {
            paths: vec![sample(9)],
        });
        assert_eq!(resp, Response::Ok);
        let (done_tx, done_rx) = bounded(1);
        let drainer = {
            let server = server.clone();
            std::thread::spawn(move || {
                server.drain_prefetches();
                done_tx.send(()).unwrap();
            })
        };
        assert!(
            done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "drain returned while the copy was parked"
        );
        assert_eq!(server.cache().resident_count(), 0);
        open_gate.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("drain returns once the copy lands");
        drainer.join().unwrap();
        assert!(server.cache().contains(&sample(9)), "the copy landed first");
        // With nothing in flight, drain returns at once.
        server.drain_prefetches();
    }

    #[test]
    fn crash_wipes_cache_and_later_reads_refault() {
        let (pfs, server) = setup(10_000);
        for i in 0..4 {
            server.handle_request(Request::Read {
                path: sample(i),
                offset: 0,
                len: 100,
            });
        }
        assert_eq!(server.cache().resident_count(), 4);
        server.crash();
        assert_eq!(
            server.cache().resident_count(),
            0,
            "crash empties the cache"
        );
        // The instance is still alive: the same file is re-copied from the
        // PFS and served byte-exact.
        let expected = pfs.read_all(&sample(0)).unwrap();
        let (resp, bulk) = server.handle_request(Request::Read {
            path: sample(0),
            offset: 0,
            len: 100,
        });
        assert!(matches!(
            resp,
            Response::Data {
                cache_hit: false,
                ..
            }
        ));
        assert_eq!(expected, bulk.unwrap().to_vec());
        assert!(
            server.metrics().snapshot().pfs_copies >= 5,
            "the post-crash read re-faulted from the PFS"
        );
    }

    #[test]
    fn over_fabric_round_trip() {
        let (_pfs, server) = setup(10_000);
        let fabric = Arc::new(Fabric::new());
        let _ep = server.serve(&fabric, "node0/srv0").unwrap();
        let req = Request::Read {
            path: sample(2),
            offset: 0,
            len: 50,
        }
        .encode()
        .unwrap();
        let reply = fabric.call("node0/srv0", req).unwrap();
        let resp = Response::decode(reply.header).unwrap();
        assert!(matches!(
            resp,
            Response::Data {
                total_size: 100,
                ..
            }
        ));
        assert_eq!(reply.bulk.unwrap().len(), 50);
    }

    #[test]
    fn batch_reads_concatenate_in_item_order() {
        use hvac_net::plan::BatchItem;
        let (pfs, server) = setup(100_000);
        let items = vec![
            BatchItem {
                path: sample(0).to_str().unwrap().into(),
                offset: 0,
                len: 40,
            },
            BatchItem {
                path: sample(1).to_str().unwrap().into(),
                offset: 10,
                len: 30,
            },
            BatchItem {
                path: sample(0).to_str().unwrap().into(),
                offset: 60,
                len: 40,
            },
        ];
        let (resp, bulk) = server.handle_request(Request::Batch { items });
        let lens = match resp {
            Response::Batch { lens } => lens,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(lens, vec![40, 30, 40]);
        let bulk = bulk.unwrap();
        assert_eq!(bulk.len(), 110);
        let a = pfs.read_all(&sample(0)).unwrap();
        let b = pfs.read_all(&sample(1)).unwrap();
        // The items are the parts, in order, never joined into one buffer:
        // each part is the cached segment entry itself.
        assert_eq!(
            bulk.parts(),
            [a.slice(0..40), b.slice(10..40), a.slice(60..100)]
        );
        let cached = server
            .cache()
            .read_all(&segment_key(&sample(1), 10, 30))
            .unwrap();
        assert_eq!(bulk.parts()[1].as_ptr(), cached.as_ptr(), "no copy");
        let snap = server.metrics().snapshot();
        assert_eq!(snap.batch_rpcs, 1);
        assert_eq!(snap.reads, 3, "each batch item counts as one read");
    }

    #[test]
    fn batch_with_missing_item_fails_whole_batch() {
        use hvac_net::plan::BatchItem;
        let (_pfs, server) = setup(100_000);
        let items = vec![
            BatchItem {
                path: sample(0).to_str().unwrap().into(),
                offset: 0,
                len: 10,
            },
            BatchItem {
                path: "/data/absent".into(),
                offset: 0,
                len: 10,
            },
        ];
        let (resp, bulk) = server.handle_request(Request::Batch { items });
        match resp {
            Response::Err { code, .. } => assert_eq!(code, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(bulk.is_none(), "all-or-nothing: no partial bulk");
    }

    #[test]
    fn undecodable_request_yields_error_reply() {
        let (_pfs, server) = setup(1_000);
        let reply = server.handle(Bytes::from_static(&[250, 1, 2]));
        let resp = Response::decode(reply.header).unwrap();
        assert!(matches!(resp, Response::Err { .. }));
    }
}
