//! An in-process HVAC allocation: the functional stand-in for a Summit job.
//!
//! [`Cluster`] wires together everything a batch job's `alloc_flags "hvac"`
//! would provision on real hardware (§III-C): one node-local cache per node,
//! `i` server instances per node on a shared fabric, and one client per
//! training rank. All components are real (threads, RPC, byte movement);
//! only the hardware is virtual.
//!
//! **Elastic membership.** The allocation is no longer frozen at launch:
//! [`Cluster::add_node`] and [`Cluster::remove_node`] bump the membership
//! epoch, install the new [`ClusterView`] on every server (including the
//! just-retired one, which keeps answering — with [`StaleView`
//! redirects](crate::protocol::Response::StaleView) — so no in-flight read
//! ever sees a dead address), and kick a background [`rebalance`] pass
//! that migrates the minority of cached files whose home moved. Clients
//! discover the new view organically through the redirect protocol.

use crate::cache::CacheManager;
use crate::client::{HvacClient, HvacClientOptions};
use crate::eviction::make_policy;
use crate::metrics::{ServerMetricsSnapshot, TenantServerSnapshot};
use crate::qos::QosOptions;
use crate::rebalance::{rebalance, RebalanceReport, RebalanceSource};
use crate::repair::{audit_under_replicated, repair, RepairReport, RepairSource};
use crate::server::{HvacServer, HvacServerOptions};
use crate::view::ViewHandle;
use hvac_hash::placement::{make_placement, Placement};
use hvac_net::fabric::{Fabric, ServerEndpoint};
use hvac_pfs::FileStore;
use hvac_storage::{DeviceModel, LocalStore};
use hvac_sync::{classes, OrderedMutex};
use hvac_types::{
    ByteSize, ClusterView, EvictionPolicyKind, HvacError, JobId, JobWeights, NodeId, PlacementKind,
    Result, RetryPolicy, ServerId, TransportKind,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Builder-style options for a functional cluster.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Compute nodes in the allocation.
    pub nodes: u32,
    /// HVAC server instances per node (the `i` of HVAC (i×1)).
    pub instances_per_node: u32,
    /// Training ranks (clients) per node.
    pub clients_per_node: u32,
    /// Dataset directory to cache.
    pub dataset_dir: PathBuf,
    /// Placement algorithm.
    pub placement: PlacementKind,
    /// Eviction policy.
    pub eviction: EvictionPolicyKind,
    /// Replicas per file.
    pub replication: u32,
    /// Node-local cache capacity per node.
    pub cache_capacity: ByteSize,
    /// Data-mover threads per server instance.
    pub movers_per_instance: usize,
    /// Seed for randomized eviction.
    pub seed: u64,
    /// Deadline/retry/backoff/breaker policy for every client in the
    /// allocation.
    pub retry: RetryPolicy,
    /// Whether clients fall back to direct PFS reads once every replica of a
    /// file is exhausted (the §III-H degradation ladder's last rung). On by
    /// default — HVAC's contract is that the epoch completes.
    pub pfs_fallback: bool,
    /// Bulk chunk size for client reads (reads larger than this are split
    /// into chunk RPCs).
    pub bulk_chunk: usize,
    /// Per-client cap on a coalesced read range (0 disables coalescing).
    pub coalesce_max: u64,
    /// Per-client cap on ranges per batch RPC.
    pub batch_max: usize,
    /// Whether a view change kicks a background cache-rebalance pass that
    /// migrates files whose home moved. On by default; benchmarks disable
    /// it to measure the cold-restart baseline.
    pub rebalance: bool,
    /// Whether [`Cluster::restart_node`] kicks a background anti-entropy
    /// repair pass that re-clones under-replicated entries from surviving
    /// holders. On by default; benchmarks disable it to measure the
    /// organic-refault baseline.
    pub repair: bool,
    /// Transport behind the cluster's fabric: in-process loopback (the
    /// default) or real sockets (TCP / Unix-domain). Defaults from the
    /// `HVAC_TRANSPORT` environment variable so an unchanged test suite can
    /// be rerun over real sockets by exporting `HVAC_TRANSPORT=tcp`.
    pub transport: TransportKind,
    /// Tenant identity every client of this allocation encodes on the wire.
    /// Defaults from `HVAC_JOB_ID` (absent/unparsable = job 0, the legacy
    /// namespace), so a launcher can scope a whole training job without
    /// touching its code.
    pub job_id: JobId,
    /// Per-tenant weighted-fair-share plan installed on every server
    /// (admission control + device scheduling) and every node store
    /// (capacity quotas). Empty (the default) keeps the single-tenant
    /// behaviour: no quotas, no shedding.
    pub job_weights: JobWeights,
    /// Tuning of the per-server tenant scheduler (device-slot count, queue
    /// depth cap, DRR quantum). Only consulted when `job_weights` is
    /// non-empty.
    pub qos: QosOptions,
    /// Optional device service-time emulation armed on every node store —
    /// how tests and benches create real device contention for the QoS
    /// scheduler to arbitrate. `None` (the default) keeps reads instant.
    pub device_model: Option<DeviceModel>,
}

impl ClusterOptions {
    /// Defaults: 1 client/node, modulo placement, random eviction, 1 GiB of
    /// cache per node, no replication.
    pub fn new(nodes: u32, instances_per_node: u32) -> Self {
        Self {
            nodes,
            instances_per_node,
            clients_per_node: 1,
            dataset_dir: PathBuf::from("/"),
            placement: PlacementKind::Modulo,
            eviction: EvictionPolicyKind::Random,
            replication: 1,
            cache_capacity: ByteSize::gib(1),
            movers_per_instance: 1,
            seed: 0x4856_4143, // "HVAC"
            retry: RetryPolicy::default(),
            pfs_fallback: true,
            bulk_chunk: hvac_net::BULK_CHUNK_SIZE,
            coalesce_max: 1 << 20,
            batch_max: 16,
            rebalance: true,
            repair: true,
            transport: TransportKind::from_env(),
            job_id: JobId::from_env(),
            job_weights: JobWeights::default(),
            qos: QosOptions::default(),
            device_model: None,
        }
    }

    /// Set the dataset directory.
    pub fn dataset_dir<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.dataset_dir = dir.into();
        self
    }

    /// Set per-node cache capacity.
    pub fn cache_capacity(mut self, cap: ByteSize) -> Self {
        self.cache_capacity = cap;
        self
    }

    /// Set the eviction policy.
    pub fn eviction(mut self, kind: EvictionPolicyKind) -> Self {
        self.eviction = kind;
        self
    }

    /// Set the placement algorithm.
    pub fn placement(mut self, kind: PlacementKind) -> Self {
        self.placement = kind;
        self
    }

    /// Set the replication factor.
    pub fn replication(mut self, k: u32) -> Self {
        self.replication = k;
        self
    }

    /// Set clients per node.
    pub fn clients_per_node(mut self, n: u32) -> Self {
        self.clients_per_node = n;
        self
    }

    /// Set data-mover threads per instance.
    pub fn movers_per_instance(mut self, n: usize) -> Self {
        self.movers_per_instance = n;
        self
    }

    /// Set the client deadline/retry/backoff/breaker policy.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enable or disable client-side direct-PFS degradation.
    pub fn pfs_fallback(mut self, enabled: bool) -> Self {
        self.pfs_fallback = enabled;
        self
    }

    /// Set the bulk chunk size.
    pub fn bulk_chunk(mut self, chunk: usize) -> Self {
        self.bulk_chunk = chunk;
        self
    }

    /// Set the coalescing cap (bytes per merged range; 0 disables) and the
    /// batching cap (ranges per batch RPC).
    pub fn coalesce_batch(mut self, coalesce_max: u64, batch_max: usize) -> Self {
        self.coalesce_max = coalesce_max;
        self.batch_max = batch_max;
        self
    }

    /// Enable or disable the background rebalance pass on view changes.
    pub fn rebalance(mut self, enabled: bool) -> Self {
        self.rebalance = enabled;
        self
    }

    /// Enable or disable the anti-entropy repair pass on node restarts.
    pub fn repair(mut self, enabled: bool) -> Self {
        self.repair = enabled;
        self
    }

    /// Select the RPC transport (loopback queues or real sockets).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Set the tenant identity of this allocation's clients.
    pub fn job_id(mut self, job: JobId) -> Self {
        self.job_id = job;
        self
    }

    /// Install a per-tenant QoS/quota plan on every server and node store.
    pub fn job_weights(mut self, weights: JobWeights) -> Self {
        self.job_weights = weights;
        self
    }

    /// Tune the tenant scheduler (inflight slots, queue cap, DRR quantum).
    pub fn qos(mut self, qos: QosOptions) -> Self {
        self.qos = qos;
        self
    }

    /// Arm device service-time emulation on every node store.
    pub fn device_model(mut self, model: DeviceModel) -> Self {
        self.device_model = Some(model);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.nodes == 0 || self.instances_per_node == 0 || self.clients_per_node == 0 {
            return Err(HvacError::InvalidConfig(
                "nodes, instances_per_node and clients_per_node must be >= 1".into(),
            ));
        }
        let n_servers = self.nodes as usize * self.instances_per_node as usize;
        if self.replication == 0 || self.replication as usize > n_servers {
            return Err(HvacError::InvalidConfig(format!(
                "replication {} out of range 1..={n_servers}",
                self.replication
            )));
        }
        // A zero chunk would trip `chunk_ranges`'s assertion deep in the
        // read path; reject it at configuration time.
        if self.bulk_chunk == 0 {
            return Err(HvacError::InvalidConfig("bulk_chunk must be >= 1".into()));
        }
        if self.batch_max == 0 {
            return Err(HvacError::InvalidConfig("batch_max must be >= 1".into()));
        }
        Ok(())
    }
}

/// One provisioned node: its shared cache plus the server instances and
/// fabric endpoints running on it.
struct NodeSlot {
    node: NodeId,
    cache: Arc<CacheManager>,
    servers: Vec<Arc<HvacServer>>,
    endpoints: Vec<ServerEndpoint>,
}

/// A running in-process allocation.
pub struct Cluster {
    fabric: Arc<Fabric>,
    pfs: Arc<dyn FileStore>,
    /// Live nodes, in provisioning order (view membership).
    nodes: Vec<NodeSlot>,
    /// Tombstoned nodes: removed from the view but still registered on the
    /// fabric, answering every request with a `StaleView` redirect so that
    /// clients on the old epoch re-resolve instead of degrading to the PFS.
    retired: Vec<NodeSlot>,
    clients: Vec<Arc<HvacClient>>,
    /// The authoritative membership view; servers get copies installed on
    /// every change, clients learn through redirects.
    view: Arc<ViewHandle>,
    /// The same placement algorithm the clients use, for the rebalancer.
    placement: Arc<dyn Placement>,
    /// The in-flight rebalance pass, if any. The `REBALANCER` class guards
    /// only this spawn/join slot — never the migration walk itself.
    rebalancer: OrderedMutex<Option<JoinHandle<RebalanceReport>>>,
    /// The in-flight anti-entropy repair pass, if any. The `REPAIR` class
    /// is outermost in the lock hierarchy (a repair pass may first need to
    /// join a still-running rebalance) and guards only this spawn/join
    /// slot — never the scrub walk itself.
    repairer: OrderedMutex<Option<JoinHandle<RepairReport>>>,
    options: ClusterOptions,
}

impl Cluster {
    /// Provision the allocation: caches, servers, endpoints, clients.
    pub fn new(pfs: Arc<dyn FileStore>, options: ClusterOptions) -> Result<Self> {
        options.validate()?;
        let fabric = Arc::new(Fabric::for_transport(options.transport));
        let mut nodes = Vec::with_capacity(options.nodes as usize);
        for node in 0..options.nodes {
            nodes.push(Self::build_node(&fabric, &pfs, &options, NodeId(node))?);
        }
        let n_servers = nodes.iter().map(|s| s.servers.len()).sum();
        let view = ViewHandle::new(ClusterView::initial(n_servers, options.instances_per_node)?);
        let n_clients = options.nodes as usize * options.clients_per_node as usize;
        let clients = (0..n_clients)
            .map(|_| Self::build_client(&fabric, &pfs, &options, n_servers, options.job_id))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            fabric,
            pfs,
            nodes,
            retired: Vec::new(),
            clients,
            view,
            placement: Arc::from(make_placement(options.placement)),
            rebalancer: OrderedMutex::new(classes::REBALANCER, None),
            repairer: OrderedMutex::new(classes::REPAIR, None),
            options,
        })
    }

    /// Provision one node: a cache plus `instances_per_node` servers, each
    /// registered on the fabric under its `ServerId` address.
    fn build_node(
        fabric: &Arc<Fabric>,
        pfs: &Arc<dyn FileStore>,
        options: &ClusterOptions,
        node: NodeId,
    ) -> Result<NodeSlot> {
        let mut store = LocalStore::in_memory(options.cache_capacity);
        if let Some(model) = &options.device_model {
            store.set_device_model(model.clone());
        }
        // Quota shares carve the node capacity per tenant before any byte
        // lands, so eviction isolation holds from the first insert on.
        store.set_tenant_quotas(&options.job_weights);
        let cache = Arc::new(CacheManager::new(
            store,
            make_policy(options.eviction, options.seed ^ u64::from(node.0)),
        ));
        let mut servers = Vec::new();
        let mut endpoints = Vec::new();
        for instance in 0..options.instances_per_node {
            let sid = ServerId::new(node.0, instance);
            let server = HvacServer::new(
                cache.clone(),
                pfs.clone(),
                HvacServerOptions {
                    movers: options.movers_per_instance,
                    job_weights: options.job_weights.clone(),
                    qos: options.qos,
                },
                &sid.to_string(),
            )?;
            let ep = server.serve(fabric, &sid.to_string())?;
            servers.push(server);
            endpoints.push(ep);
        }
        Ok(NodeSlot {
            node,
            cache,
            servers,
            endpoints,
        })
    }

    /// Grow the allocation by one node. Bumps the membership epoch,
    /// installs the new view on every server (the new node's included, so
    /// it can vouch for the epoch it serves), and starts a background
    /// rebalance migrating the minority of files whose home moved onto the
    /// joiner. Returns the new node's id.
    pub fn add_node(&mut self) -> Result<NodeId> {
        let old_view = self.view.snapshot();
        let node = old_view.next_node_id();
        let new_view = Arc::new(old_view.with_node_added(node)?);
        // Endpoints must be reachable *before* any client can learn the
        // new view, so provision first, then flip the epoch.
        self.nodes.push(Self::build_node(
            &self.fabric,
            &self.pfs,
            &self.options,
            node,
        )?);
        self.install_view(new_view.clone());
        self.start_rebalance(old_view, new_view);
        Ok(node)
    }

    /// Shrink the allocation: retire `node` from the view. The node's
    /// endpoints stay registered as a **tombstone** — every request they
    /// now see carries a stale epoch and is answered with a `StaleView`
    /// redirect, so clients re-resolve to live homes instead of burning
    /// their retry ladders on a dead address. A background rebalance
    /// drains the retired node's cache onto the new homes ("old home
    /// serves until handoff, then redirects").
    pub fn remove_node(&mut self, node: NodeId) -> Result<()> {
        let old_view = self.view.snapshot();
        let new_view = Arc::new(old_view.with_node_removed(node)?);
        let idx = self
            .nodes
            .iter()
            .position(|s| s.node == node)
            .ok_or_else(|| {
                HvacError::InvalidConfig(format!("node {} is not provisioned", node.0))
            })?;
        let slot = self.nodes.remove(idx);
        self.retired.push(slot);
        self.install_view(new_view.clone());
        self.start_rebalance(old_view, new_view);
        Ok(())
    }

    /// Install `view` as the authoritative membership: the cluster handle
    /// first, then every server — live and retired — so all of them bounce
    /// stale requests with the same (newest) view.
    fn install_view(&self, view: Arc<ClusterView>) {
        self.view.install(view.clone());
        for slot in self.nodes.iter().chain(self.retired.iter()) {
            for server in &slot.servers {
                server.install_view(view.clone());
            }
        }
    }

    /// Kick a background migration pass for the `old_view → new_view`
    /// transition (no-op when `options.rebalance` is off). Any previous
    /// pass is joined first so passes never interleave.
    fn start_rebalance(&self, old_view: Arc<ClusterView>, new_view: Arc<ClusterView>) {
        if !self.options.rebalance {
            return;
        }
        self.wait_rebalance();
        let sources: Vec<RebalanceSource> = self
            .nodes
            .iter()
            .chain(self.retired.iter())
            .map(|slot| RebalanceSource {
                node: slot.node,
                cache: slot.cache.clone(),
                metrics: slot.servers[0].metrics().clone(),
            })
            .collect();
        let dests: HashMap<NodeId, Arc<CacheManager>> = self
            .nodes
            .iter()
            .map(|slot| (slot.node, slot.cache.clone()))
            .collect();
        let placement = self.placement.clone();
        let handle = std::thread::spawn(move || {
            rebalance(&sources, &dests, placement.as_ref(), &old_view, &new_view)
        });
        *self.rebalancer.lock() = Some(handle);
    }

    /// Join the in-flight rebalance pass, returning its ledger (or `None`
    /// if no pass is running).
    pub fn wait_rebalance(&self) -> Option<RebalanceReport> {
        let handle = self.rebalancer.lock().take();
        // Propagate a rebalancer panic into the caller rather than eating it.
        handle.map(|h| match h.join() {
            Ok(report) => report,
            Err(payload) => std::panic::resume_unwind(payload),
        })
    }

    /// Crash-stop every server instance on `node`: the endpoints latch
    /// down, queued copy jobs are disowned (generation bump), every
    /// in-flight single-flight waiter is errored out, and the node's cache
    /// is wiped — all before this returns, so there is no window where a
    /// half-wiped node answers reads. Unlike [`Self::remove_node`] the
    /// membership does **not** change: the node keeps its view slot and
    /// its fabric address, exactly like a real machine rebooting.
    pub fn crash_node(&self, node: u32) -> Result<()> {
        let slot = self
            .nodes
            .iter()
            .find(|s| s.node == NodeId(node))
            .ok_or_else(|| HvacError::InvalidConfig(format!("node {node} is not provisioned")))?;
        for ep in &slot.endpoints {
            ep.set_down(true);
        }
        for server in &slot.servers {
            server.crash();
        }
        Ok(())
    }

    /// Bring a crashed node back at the same endpoints, **empty**: clients
    /// see a live server again, but everything it used to hold refaults
    /// from the PFS on first access. When `options.repair` is on, a
    /// background anti-entropy pass starts immediately and re-clones the
    /// node's share of replicated files from surviving holders.
    pub fn restart_node(&self, node: u32) -> Result<()> {
        let slot = self
            .nodes
            .iter()
            .find(|s| s.node == NodeId(node))
            .ok_or_else(|| HvacError::InvalidConfig(format!("node {node} is not provisioned")))?;
        for ep in &slot.endpoints {
            ep.set_down(false);
        }
        if self.options.repair {
            self.start_repair();
        }
        Ok(())
    }

    /// The live nodes as repair participants.
    fn repair_sources(&self) -> Vec<RepairSource> {
        self.nodes
            .iter()
            .map(|slot| RepairSource {
                node: slot.node,
                cache: slot.cache.clone(),
                metrics: slot.servers[0].metrics().clone(),
            })
            .collect()
    }

    /// Kick a background anti-entropy repair pass over the live nodes. Any
    /// previous repair pass is joined first, and so is any in-flight
    /// rebalance — repairing mid-migration would double-copy files whose
    /// home is about to move.
    pub fn start_repair(&self) {
        self.wait_repair();
        self.wait_rebalance();
        let sources = self.repair_sources();
        let placement = self.placement.clone();
        let view = self.view.snapshot();
        let replication = self.options.replication as usize;
        let handle =
            std::thread::spawn(move || repair(&sources, placement.as_ref(), &view, replication));
        *self.repairer.lock() = Some(handle);
    }

    /// Join the in-flight repair pass, returning its ledger (or `None` if
    /// no pass is running).
    pub fn wait_repair(&self) -> Option<RepairReport> {
        let handle = self.repairer.lock().take();
        handle.map(|h| match h.join() {
            Ok(report) => report,
            Err(payload) => std::panic::resume_unwind(payload),
        })
    }

    /// Audit: expected-but-missing replica copies across the live nodes
    /// under the current view. Zero means the allocation has converged.
    pub fn under_replicated_count(&self) -> u64 {
        audit_under_replicated(
            &self.repair_sources(),
            self.placement.as_ref(),
            &self.view.snapshot(),
            self.options.replication as usize,
        )
    }

    /// The current membership view.
    pub fn view(&self) -> Arc<ClusterView> {
        self.view.snapshot()
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// The shared fabric (for fault injection).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The PFS backing this allocation.
    pub fn pfs(&self) -> &Arc<dyn FileStore> {
        &self.pfs
    }

    /// The options the cluster was built with.
    pub fn options(&self) -> &ClusterOptions {
        &self.options
    }

    /// Total ranks (clients).
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Total live server instances.
    pub fn n_servers(&self) -> usize {
        self.nodes.iter().map(|s| s.servers.len()).sum()
    }

    /// The client of training rank `rank` (ranks are node-major).
    pub fn client(&self, rank: usize) -> &Arc<HvacClient> {
        &self.clients[rank]
    }

    /// Build an extra client bound to tenant `job` against this
    /// allocation's servers — how a second training job shares the same
    /// node caches. The client mirrors every data-path option of the
    /// built-in ranks; only the tenant identity differs.
    pub fn client_for_job(&self, job: JobId) -> Result<Arc<HvacClient>> {
        Self::build_client(
            &self.fabric,
            &self.pfs,
            &self.options,
            self.n_servers(),
            job,
        )
    }

    /// One client of tenant `job` over `n_servers` instances, with every
    /// data-path option taken from `options` and the PFS fallback armed
    /// when `options.pfs_fallback` says so.
    fn build_client(
        fabric: &Arc<Fabric>,
        pfs: &Arc<dyn FileStore>,
        options: &ClusterOptions,
        n_servers: usize,
        job: JobId,
    ) -> Result<Arc<HvacClient>> {
        let mut client = HvacClient::new(
            fabric.clone(),
            HvacClientOptions {
                dataset_dir: options.dataset_dir.clone(),
                placement: options.placement,
                replication: options.replication,
                n_servers,
                instances_per_node: options.instances_per_node,
                retry: options.retry.clone(),
                bulk_chunk: options.bulk_chunk,
                coalesce_max: options.coalesce_max,
                batch_max: options.batch_max,
                job_id: job,
            },
        )?;
        if options.pfs_fallback {
            client.set_pfs_fallback(pfs.clone());
        }
        Ok(Arc::new(client))
    }

    /// A live server instance by global index (node-major over live nodes).
    pub fn server(&self, idx: usize) -> &Arc<HvacServer> {
        let mut remaining = idx;
        for slot in &self.nodes {
            if remaining < slot.servers.len() {
                return &slot.servers[remaining];
            }
            remaining -= slot.servers.len();
        }
        panic!(
            "server index {idx} out of range ({} live)",
            self.n_servers()
        );
    }

    /// Per-instance metric snapshots (live instances, node-major).
    pub fn server_metrics(&self) -> Vec<ServerMetricsSnapshot> {
        self.nodes
            .iter()
            .flat_map(|slot| slot.servers.iter())
            .map(|s| s.metrics().snapshot())
            .collect()
    }

    /// Cluster-wide aggregated server metrics, retired nodes included —
    /// their redirect and migration counters are part of the job's story.
    pub fn aggregate_metrics(&self) -> ServerMetricsSnapshot {
        let mut agg = ServerMetricsSnapshot::default();
        for slot in self.nodes.iter().chain(self.retired.iter()) {
            for s in &slot.servers {
                agg.merge(&s.metrics().snapshot());
            }
        }
        agg
    }

    /// Cluster-wide per-tenant server counters, merged across every live
    /// and retired instance, sorted by job id.
    pub fn tenant_metrics(&self) -> Vec<TenantServerSnapshot> {
        let mut by_job: HashMap<u64, TenantServerSnapshot> = HashMap::new();
        for slot in self.nodes.iter().chain(self.retired.iter()) {
            for s in &slot.servers {
                for row in s.metrics().tenants.snapshot() {
                    by_job
                        .entry(row.job)
                        .or_insert(TenantServerSnapshot {
                            job: row.job,
                            ..Default::default()
                        })
                        .merge(&row);
                }
            }
        }
        let mut rows: Vec<TenantServerSnapshot> = by_job.into_values().collect();
        rows.sort_by_key(|r| r.job);
        rows
    }

    /// Resident file count per live node cache (Fig. 15's distribution,
    /// measured on the real cache rather than predicted from the hash).
    pub fn per_node_file_counts(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|s| s.cache.resident_count() as u64)
            .collect()
    }

    /// Bytes resident per live node cache.
    pub fn per_node_bytes(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|s| s.cache.store().used().bytes())
            .collect()
    }

    /// Live node ids, in provisioning order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|s| s.node).collect()
    }

    /// Fault-inject every instance on a node (NVMe/node failure, §III-H).
    /// Works on retired nodes too (a tombstone can crash like anything
    /// else).
    pub fn set_node_down(&self, node: u32, down: bool) {
        for slot in self.nodes.iter().chain(self.retired.iter()) {
            if slot.node == NodeId(node) {
                for ep in &slot.endpoints {
                    ep.set_down(down);
                }
            }
        }
    }

    /// Stage every file under `prefix` into the cache (paper §IV-C) and
    /// wait for staging to finish. Returns the number of files staged.
    pub fn prefetch_dataset(&self, prefix: &std::path::Path) -> Result<usize> {
        let listing = self.pfs.list(prefix)?;
        let n = self
            .clients
            .first()
            .ok_or_else(|| HvacError::InvalidConfig("cluster has no clients".into()))?
            .prefetch(listing.iter().map(|p| p.as_path()))?;
        for slot in &self.nodes {
            for server in &slot.servers {
                server.drain_prefetches();
            }
        }
        Ok(n)
    }

    /// Drop all cached data on every node — retired tombstones included
    /// (job teardown, §III-D).
    pub fn purge(&self) {
        for slot in self.nodes.iter().chain(self.retired.iter()) {
            slot.cache.purge();
        }
    }

    /// Tear the allocation down in dependency order, without waiting for
    /// `Drop`: join any in-flight rebalance, then mark every endpoint down
    /// so racing client calls fail fast with `ServerDown` instead of
    /// reaching a server that is going away, then unregister the endpoints
    /// (a socket endpoint joins its listener and connection threads), and
    /// only then release the server instances so their data movers stop.
    /// Idempotent; clients created from this cluster keep working as
    /// objects, but every RPC fails fast with `ServerDown` afterwards —
    /// with the default `pfs_fallback`, reads then degrade to direct PFS
    /// access instead of erroring.
    pub fn shutdown(&mut self) {
        self.wait_repair();
        self.wait_rebalance();
        for slot in self.nodes.iter().chain(self.retired.iter()) {
            for ep in &slot.endpoints {
                ep.set_down(true);
            }
        }
        for slot in self.nodes.iter_mut().chain(self.retired.iter_mut()) {
            slot.endpoints.clear();
            slot.servers.clear();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvac_pfs::MemStore;
    use std::path::Path;

    fn dataset_pfs(n: u64, size: usize) -> Arc<MemStore> {
        let pfs = Arc::new(MemStore::new());
        pfs.synthesize_dataset(Path::new("/gpfs/train"), n, |_| size);
        pfs
    }

    fn sample(i: u64) -> PathBuf {
        PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
    }

    #[test]
    fn builds_expected_topology() {
        let pfs = dataset_pfs(4, 64);
        let cluster = Cluster::new(
            pfs,
            ClusterOptions::new(4, 2)
                .dataset_dir("/gpfs/train")
                .clients_per_node(2),
        )
        .unwrap();
        assert_eq!(cluster.n_servers(), 8);
        assert_eq!(cluster.n_clients(), 8);
        assert_eq!(cluster.fabric().endpoint_names().len(), 8);
        assert_eq!(cluster.per_node_file_counts().len(), 4);
    }

    #[test]
    fn multi_rank_epoch_reads_are_correct_and_cached() {
        let pfs = dataset_pfs(32, 128);
        let cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(4, 1).dataset_dir("/gpfs/train"),
        )
        .unwrap();
        // Epoch 1: each rank reads a shard of 8 files.
        for rank in 0..4 {
            let client = cluster.client(rank);
            for i in 0..8u64 {
                let idx = rank as u64 * 8 + i;
                let data = client.read_file(&sample(idx)).unwrap();
                assert_eq!(data, MemStore::sample_content(idx, 128));
            }
        }
        assert_eq!(pfs.stats().snapshot().1, 32);
        // Epoch 2: shuffled assignment (rank reads a different shard) — all
        // cache hits because the cache is allocation-wide, not per-node.
        for rank in 0..4 {
            let client = cluster.client(rank);
            for i in 0..8u64 {
                let idx = ((rank as u64 + 1) % 4) * 8 + i;
                let data = client.read_file(&sample(idx)).unwrap();
                assert_eq!(data, MemStore::sample_content(idx, 128));
            }
        }
        assert_eq!(
            pfs.stats().snapshot().1,
            32,
            "epoch 2 never touched the PFS"
        );
        let agg = cluster.aggregate_metrics();
        assert_eq!(agg.cache_hits, 32);
        assert_eq!(agg.pfs_copies, 32);
        // Every file is resident exactly once across the allocation.
        let resident: u64 = cluster.per_node_file_counts().iter().sum();
        assert_eq!(resident, 32);
    }

    #[test]
    fn instances_share_the_node_cache() {
        let pfs = dataset_pfs(12, 64);
        let cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(2, 2).dataset_dir("/gpfs/train"),
        )
        .unwrap();
        for i in 0..12u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        // 2 nodes hold 12 files between them regardless of instance count.
        let resident: u64 = cluster.per_node_file_counts().iter().sum();
        assert_eq!(resident, 12);
        assert_eq!(pfs.stats().snapshot().1, 12);
    }

    #[test]
    fn node_failure_with_replication_keeps_the_job_alive() {
        let pfs = dataset_pfs(16, 64);
        let cluster = Cluster::new(
            pfs,
            ClusterOptions::new(4, 1)
                .dataset_dir("/gpfs/train")
                .replication(2),
        )
        .unwrap();
        // Warm the cache.
        for i in 0..16u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        cluster.set_node_down(1, true);
        for i in 0..16u64 {
            assert!(
                cluster.client(2).read_file(&sample(i)).is_ok(),
                "file {i} unreadable after node 1 died"
            );
        }
        cluster.set_node_down(1, false);
    }

    #[test]
    fn purge_clears_all_nodes() {
        let pfs = dataset_pfs(8, 64);
        let cluster =
            Cluster::new(pfs, ClusterOptions::new(2, 1).dataset_dir("/gpfs/train")).unwrap();
        for i in 0..8u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        assert!(cluster.per_node_file_counts().iter().sum::<u64>() > 0);
        cluster.purge();
        assert_eq!(cluster.per_node_file_counts().iter().sum::<u64>(), 0);
        assert_eq!(cluster.per_node_bytes().iter().sum::<u64>(), 0);
    }

    #[test]
    fn shutdown_is_explicit_and_idempotent() {
        let pfs = dataset_pfs(4, 64);
        let mut cluster = Cluster::new(
            pfs,
            ClusterOptions::new(2, 1)
                .dataset_dir("/gpfs/train")
                .pfs_fallback(false),
        )
        .unwrap();
        cluster.client(0).read_file(&sample(0)).unwrap();
        let client = cluster.client(0).clone();
        cluster.shutdown();
        cluster.shutdown(); // second call is a no-op
        assert!(cluster.fabric().endpoint_names().is_empty());
        assert_eq!(cluster.n_servers(), 0);
        // Calls after shutdown fail fast instead of waiting on the fabric.
        assert!(matches!(
            client.read_file(&sample(1)),
            Err(HvacError::ServerDown(_))
        ));
    }

    #[test]
    fn reads_after_shutdown_degrade_to_the_pfs_when_armed() {
        let pfs = dataset_pfs(4, 64);
        let mut cluster =
            Cluster::new(pfs, ClusterOptions::new(2, 1).dataset_dir("/gpfs/train")).unwrap();
        let client = cluster.client(0).clone();
        cluster.shutdown();
        // Every server is gone, but the epoch still completes byte-correct
        // straight from the PFS (§III-H graceful degradation, client side).
        let data = client.read_file(&sample(2)).unwrap();
        assert_eq!(data, MemStore::sample_content(2, 64));
        let s = client.metrics().full_snapshot();
        assert!(s.degraded_reads >= 1, "degraded read counted: {s:?}");
    }

    #[test]
    fn shutdown_mid_epoch_does_not_block_clients() {
        let pfs = dataset_pfs(64, 1024);
        let mut cluster =
            Cluster::new(pfs, ClusterOptions::new(2, 1).dataset_dir("/gpfs/train")).unwrap();
        // A rank reads through the epoch while the allocation is torn down
        // under it. Every read must either succeed or fail promptly — the
        // join below hangs (and the harness times the test out) if a client
        // can still block on a dying server's queue.
        let client = cluster.client(0).clone();
        let reader = std::thread::spawn(move || {
            let mut outcomes = (0usize, 0usize);
            for i in 0..64u64 {
                match client.read_file(&sample(i)) {
                    Ok(_) => outcomes.0 += 1,
                    Err(_) => outcomes.1 += 1,
                }
            }
            outcomes
        });
        cluster.client(1).read_file(&sample(0)).unwrap();
        cluster.shutdown();
        let (ok, failed) = reader.join().unwrap();
        assert_eq!(ok + failed, 64);
    }

    #[test]
    fn invalid_topologies_rejected() {
        let pfs = dataset_pfs(1, 8);
        assert!(Cluster::new(pfs.clone(), ClusterOptions::new(0, 1)).is_err());
        assert!(Cluster::new(pfs.clone(), ClusterOptions::new(1, 0)).is_err());
        assert!(
            Cluster::new(pfs, ClusterOptions::new(2, 1).replication(5)).is_err(),
            "replication > server count"
        );
    }

    #[test]
    fn zero_bulk_transfer_knobs_rejected_as_config_errors() {
        // Regression: a zero chunk used to reach a chunking assertion on
        // the first large read; now it is a typed `InvalidConfig` error at
        // construction time.
        let pfs = dataset_pfs(1, 8);
        let chunk0 = ClusterOptions::new(2, 1).bulk_chunk(0);
        assert!(matches!(
            Cluster::new(pfs, chunk0),
            Err(HvacError::InvalidConfig(_))
        ));
    }

    #[test]
    fn add_node_bumps_epoch_redirects_clients_and_rebalances() {
        let pfs = dataset_pfs(48, 64);
        let mut cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(3, 1)
                .dataset_dir("/gpfs/train")
                .placement(PlacementKind::Ring),
        )
        .unwrap();
        for i in 0..48u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        assert_eq!(cluster.epoch(), 0);

        let node = cluster.add_node().unwrap();
        assert_eq!(node, hvac_types::NodeId(3));
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(cluster.n_servers(), 4);
        let report = cluster.wait_rebalance().expect("a pass ran");
        assert!(report.migrated_files > 0, "{report:?}");
        assert_eq!(
            cluster.per_node_file_counts()[3],
            report.migrated_files,
            "everything that moved landed on the joiner"
        );

        // The client is still on epoch 0; its first reads get bounced with
        // the new view, re-resolve, and stay byte-exact with no PFS reads
        // beyond the warmup (the minority of moved files was migrated, not
        // dropped).
        let pfs_reads_before = pfs.stats().snapshot().1;
        for i in 0..48u64 {
            let data = cluster.client(0).read_file(&sample(i)).unwrap();
            assert_eq!(data, MemStore::sample_content(i, 64));
        }
        assert_eq!(pfs.stats().snapshot().1, pfs_reads_before);
        assert_eq!(cluster.client(0).view().epoch(), 1);
        let cm = cluster.client(0).metrics().full_snapshot();
        assert!(cm.view_refreshes > 0, "client learned by redirect: {cm:?}");
        assert_eq!(cm.degraded_reads, 0);
        assert!(cluster.aggregate_metrics().stale_view_redirects > 0);
    }

    #[test]
    fn remove_node_retires_a_tombstone_that_redirects() {
        let pfs = dataset_pfs(48, 64);
        let mut cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(4, 1)
                .dataset_dir("/gpfs/train")
                .placement(PlacementKind::Ring),
        )
        .unwrap();
        for i in 0..48u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        cluster.remove_node(hvac_types::NodeId(1)).unwrap();
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(cluster.n_servers(), 3);
        let report = cluster.wait_rebalance().expect("a pass ran");
        assert!(report.migrated_files > 0, "{report:?}");

        // Every read completes byte-exact from the *cache*: the tombstone
        // redirected the stale client instead of timing it out, and the
        // victim's files were migrated before its cache was abandoned.
        let pfs_reads_before = pfs.stats().snapshot().1;
        for i in 0..48u64 {
            let data = cluster.client(2).read_file(&sample(i)).unwrap();
            assert_eq!(data, MemStore::sample_content(i, 64));
        }
        assert_eq!(pfs.stats().snapshot().1, pfs_reads_before);
        let cm = cluster.client(2).metrics().full_snapshot();
        assert_eq!(cm.degraded_reads, 0, "no PFS degradation: {cm:?}");
        let agg = cluster.aggregate_metrics();
        assert!(agg.stale_view_redirects > 0, "{agg:?}");
        assert_eq!(agg.migrated_files, report.migrated_files);
        assert_eq!(agg.migrated_bytes, report.migrated_bytes);
    }

    #[test]
    fn node_down_mid_rebalance_does_not_wedge_the_pass() {
        let pfs = dataset_pfs(48, 64);
        let mut cluster = Cluster::new(
            pfs,
            ClusterOptions::new(4, 1)
                .dataset_dir("/gpfs/train")
                .placement(PlacementKind::Ring),
        )
        .unwrap();
        for i in 0..48u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        let joiner = cluster.add_node().unwrap();
        // A node dies the instant the migration pass starts. The handoff
        // is direct cache-to-cache (no RPC through the dead endpoints), so
        // the join below must return promptly instead of wedging — the
        // test harness timeout is the failure mode if it regresses.
        cluster.set_node_down(1, true);
        let report = cluster.wait_rebalance().expect("a pass ran");
        assert!(report.migrated_files > 0, "{report:?}");
        // The ledger still balances: per-server counters equal the report.
        let agg = cluster.aggregate_metrics();
        assert_eq!(agg.migrated_files, report.migrated_files, "{agg:?}");
        assert_eq!(agg.migrated_bytes, report.migrated_bytes, "{agg:?}");
        // And the dead node coming back does not disturb the result.
        cluster.set_node_down(1, false);
        let data = cluster.client(0).read_file(&sample(7)).unwrap();
        assert_eq!(data, MemStore::sample_content(7, 64));
        let _ = joiner;
    }

    #[test]
    fn crash_restart_and_repair_reconverge_the_allocation() {
        let pfs = dataset_pfs(32, 64);
        let cluster = Cluster::new(
            pfs.clone(),
            ClusterOptions::new(4, 1)
                .dataset_dir("/gpfs/train")
                .placement(PlacementKind::Ring)
                .replication(2),
        )
        .unwrap();
        for i in 0..32u64 {
            cluster.client(0).read_file(&sample(i)).unwrap();
        }
        // Organic warming leaves one copy per file (reads land on the
        // home); the first scrub pass brings the allocation to full 2x.
        assert!(cluster.under_replicated_count() > 0);
        cluster.start_repair();
        let seed_pass = cluster.wait_repair().expect("a pass ran");
        assert!(seed_pass.files_repaired > 0, "{seed_pass:?}");
        assert_eq!(cluster.under_replicated_count(), 0);

        // Node 1 crash-stops: endpoints latch down, cache and in-flight
        // state wiped. Reads still complete warm from surviving replicas.
        cluster.crash_node(1).unwrap();
        assert!(matches!(
            cluster.crash_node(9),
            Err(HvacError::InvalidConfig(_))
        ));
        let pfs_before = pfs.stats().snapshot().1;
        for i in 0..32u64 {
            let data = cluster.client(2).read_file(&sample(i)).unwrap();
            assert_eq!(data, MemStore::sample_content(i, 64));
        }
        assert_eq!(
            pfs.stats().snapshot().1,
            pfs_before,
            "survivor replicas served the whole epoch warm"
        );
        assert!(cluster.under_replicated_count() > 0);

        // Restart brings the node back empty and (repair on by default)
        // kicks the scrubber; convergence needs no client traffic.
        cluster.restart_node(1).unwrap();
        let report = cluster.wait_repair().expect("restart kicked a pass");
        assert!(report.files_repaired > 0, "{report:?}");
        assert_eq!(report.under_replicated_remaining, 0, "{report:?}");
        assert_eq!(cluster.under_replicated_count(), 0);
        let agg = cluster.aggregate_metrics();
        assert_eq!(
            agg.repaired_files,
            seed_pass.files_repaired + report.files_repaired,
            "donor-side ledger balances: {agg:?}"
        );
    }

    #[test]
    fn removing_an_unknown_node_is_an_error() {
        let pfs = dataset_pfs(1, 8);
        let mut cluster =
            Cluster::new(pfs, ClusterOptions::new(2, 1).dataset_dir("/gpfs/train")).unwrap();
        assert!(cluster.remove_node(hvac_types::NodeId(9)).is_err());
        // Removing down to zero nodes is rejected too.
        cluster.remove_node(hvac_types::NodeId(0)).unwrap();
        assert!(cluster.remove_node(hvac_types::NodeId(1)).is_err());
    }
}
