//! The three I/O backends of the paper's evaluation.
//!
//! Every experiment in §IV compares training over:
//!
//! * **GPFS** ([`GpfsBackend`]) — every `<open, read, close>` hits the shared
//!   file system model,
//! * **XFS-on-NVMe** ([`XfsLocalBackend`]) — the dataset is pre-staged on
//!   every node's NVMe; the ideal upper bound (staging time is not charged,
//!   exactly as in the paper),
//! * **HVAC (i×1)** ([`HvacBackend`]) — hash placement over `nodes × i`
//!   server instances (using the *real* `hvac-hash` placement code), first
//!   reads fetched from the GPFS model and written to the home node's NVMe,
//!   cached reads served from NVMe and shipped over the NIC when remote.
//!
//! A backend answers "when does this file access complete?"; the training
//! driver (in `hvac-dl`) strings accesses into batches, epochs and jobs.

use crate::gpfs::GpfsModel;
use crate::resource::{FifoPool, FluidPipe, IopsGate};
use hvac_hash::pathhash::mix64;
use hvac_hash::placement::{make_placement, Placement};
use hvac_storage::DeviceModel;
use hvac_types::{ByteSize, ClusterConfig, FileId, Histogram, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One file access: a dataset sample identified by index, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAccess {
    /// Sample index within the dataset.
    pub index: u64,
    /// File size.
    pub size: ByteSize,
}

/// A simulated I/O backend.
pub trait IoBackend {
    /// Backend label for reports ("GPFS", "HVAC(4x1)", ...).
    fn label(&self) -> String;

    /// Complete one `<open, read, close>` of `file`, issued by a rank on
    /// `reader_node` at time `now`; returns the completion time.
    fn access(&mut self, now: SimTime, reader_node: u32, file: FileAccess) -> SimTime;

    /// Declare the entire dataset resident in the cache (used when the
    /// driver extrapolates epoch 1 instead of simulating every file).
    fn assume_all_cached(&mut self) {}

    /// Declare how many concurrent client processes drive this backend
    /// (lets the GPFS model account for token/lock contention).
    fn set_client_count(&mut self, _clients: u32) {}

    /// Client-side cost per request (interposition + RPC marshalling),
    /// spent serially in the rank's loader thread. Plain POSIX backends
    /// (GPFS, local XFS) pay only the syscall, folded into `access`.
    fn client_dispatch_ns(&self) -> u64 {
        0
    }

    /// Pre-populate the cache with the whole dataset (the paper's §IV-C
    /// future work: "utilizing prefetching techniques to pre-populate the
    /// HVAC cache and reduce the performance overhead of epoch-1").
    /// Returns when staging completes; a no-op for backends with nothing to
    /// stage (GPFS reads in place; XFS staging is uncharged, as in §IV-A3).
    fn prefetch_dataset(&mut self, now: SimTime, _n_files: u64, _total_bytes: ByteSize) -> SimTime {
        now
    }

    /// Distribution of individual access latencies (ns) observed so far.
    fn latency_histogram(&self) -> Option<&Histogram> {
        None
    }

    /// Kill a compute node mid-run (its NVMe contents become unreachable —
    /// the §III-H failure scenario). Backends without node state ignore it.
    fn inject_node_failure(&mut self, _node: u32) {}
}

/// Training I/O straight against the shared PFS.
pub struct GpfsBackend {
    gpfs: GpfsModel,
    hist: Histogram,
}

impl GpfsBackend {
    /// Build over a GPFS model.
    pub fn new(gpfs: GpfsModel) -> Self {
        Self {
            gpfs,
            hist: Histogram::new(),
        }
    }

    /// The underlying model (for load inspection).
    pub fn gpfs(&self) -> &GpfsModel {
        &self.gpfs
    }
}

impl IoBackend for GpfsBackend {
    fn label(&self) -> String {
        "GPFS".into()
    }

    fn access(&mut self, now: SimTime, _reader_node: u32, file: FileAccess) -> SimTime {
        let done = self.gpfs.open_read_close(now, file.size);
        self.hist.record(done.saturating_since(now).as_nanos());
        done
    }

    fn set_client_count(&mut self, clients: u32) {
        self.gpfs.set_client_count(clients);
    }

    fn latency_histogram(&self) -> Option<&Histogram> {
        Some(&self.hist)
    }
}

/// One node's NVMe device (shared by all ranks and server instances on it).
struct NodeDevice {
    pipe: FluidPipe,
    gate: IopsGate,
    op_latency: SimTime,
}

impl NodeDevice {
    fn new(model: &DeviceModel) -> Self {
        Self {
            pipe: FluidPipe::new(model.read_bandwidth),
            gate: IopsGate::new(model.max_iops),
            op_latency: model.op_latency,
        }
    }

    fn read(&mut self, now: SimTime, size: ByteSize) -> SimTime {
        let granted = self.gate.admit(now);
        self.pipe
            .admit(granted.saturating_add(self.op_latency), size)
    }

    fn write(&mut self, now: SimTime, size: ByteSize) -> SimTime {
        // Reads and writes share the device; we charge writes to the same
        // pipe (NVMe write bandwidth is lower, folded into service time).
        let granted = self.gate.admit(now);
        self.pipe
            .admit(granted.saturating_add(self.op_latency), size)
    }
}

/// The staged-dataset upper bound: every read is node-local.
pub struct XfsLocalBackend {
    nodes: Vec<NodeDevice>,
    hist: Histogram,
}

impl XfsLocalBackend {
    /// Build for `nodes` nodes with the given device model.
    pub fn new(nodes: u32, device: &DeviceModel) -> Self {
        Self {
            nodes: (0..nodes).map(|_| NodeDevice::new(device)).collect(),
            hist: Histogram::new(),
        }
    }

    /// Summit defaults.
    pub fn summit(nodes: u32) -> Self {
        Self::new(nodes, &DeviceModel::summit_nvme())
    }
}

impl IoBackend for XfsLocalBackend {
    fn label(&self) -> String {
        "XFS-on-NVMe".into()
    }

    fn access(&mut self, now: SimTime, reader_node: u32, file: FileAccess) -> SimTime {
        let done = self.nodes[reader_node as usize].read(now, file.size);
        self.hist.record(done.saturating_since(now).as_nanos());
        done
    }

    fn latency_histogram(&self) -> Option<&Histogram> {
        Some(&self.hist)
    }
}

/// Per-access statistics of the HVAC backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HvacSimStats {
    /// Accesses that triggered a PFS fetch (cold misses).
    pub first_reads: u64,
    /// Cache hits served from the reader's own node.
    pub local_hits: u64,
    /// Cache hits served from a remote node over the NIC.
    pub remote_hits: u64,
    /// Accesses served by a non-primary replica after a node failure.
    pub failover_reads: u64,
    /// Accesses whose every replica was on a failed node — with k=1 this is
    /// the paper's "failed training run" (§III-H); the model degrades to a
    /// GPFS re-fetch so the count is observable.
    pub lost_accesses: u64,
}

/// The HVAC (i×1) backend.
pub struct HvacBackend {
    label: String,
    nodes: u32,
    instances_per_node: u32,
    request_overhead: SimTime,
    net_latency: SimTime,
    placement: Box<dyn Placement>,
    gpfs: GpfsModel,
    devices: Vec<NodeDevice>,
    nics: Vec<FluidPipe>,
    instance_pools: Vec<FifoPool>,
    cached: HashSet<u64>,
    all_cached: bool,
    replication: u32,
    failed_nodes: HashSet<u32>,
    /// When set, forces a fraction of accesses to resolve to the reader's
    /// node (Fig. 13's L%/R% split) instead of hash placement.
    locality_split: Option<f64>,
    rng: StdRng,
    seed: u64,
    client_dispatch_ns: u64,
    hist: Histogram,
    write_bandwidth: hvac_types::Bandwidth,
    stats: HvacSimStats,
}

impl HvacBackend {
    /// Build from a cluster configuration (uses `cfg.hvac.instances_per_node`
    /// and the real placement implementation selected by `cfg.hvac.placement`).
    pub fn new(cfg: &ClusterConfig, seed: u64) -> Self {
        let device = DeviceModel::from_nvme_config(&cfg.nvme);
        let total_instances = cfg.total_servers();
        Self {
            label: format!("HVAC({}x1)", cfg.hvac.instances_per_node),
            nodes: cfg.nodes,
            instances_per_node: cfg.hvac.instances_per_node,
            request_overhead: SimTime::from_nanos(cfg.hvac.request_overhead_ns),
            net_latency: SimTime::from_nanos(cfg.network.latency_ns),
            placement: make_placement(cfg.hvac.placement),
            gpfs: GpfsModel::new(cfg.gpfs.clone()),
            devices: (0..cfg.nodes).map(|_| NodeDevice::new(&device)).collect(),
            nics: (0..cfg.nodes)
                .map(|_| FluidPipe::new(cfg.network.node_bandwidth))
                .collect(),
            instance_pools: (0..total_instances)
                .map(|_| FifoPool::new(cfg.hvac.movers_per_instance as usize))
                .collect(),
            cached: HashSet::new(),
            all_cached: false,
            replication: cfg.hvac.replication.max(1),
            failed_nodes: HashSet::new(),
            locality_split: None,
            rng: StdRng::seed_from_u64(seed),
            seed,
            client_dispatch_ns: cfg.hvac.client_dispatch_ns,
            hist: Histogram::new(),
            write_bandwidth: cfg.nvme.write_bandwidth,
            stats: HvacSimStats::default(),
        }
    }

    /// Force `local_fraction` of accesses to be served from the reader's own
    /// node (Fig. 13 manually controls dataset residency).
    pub fn with_locality_split(mut self, local_fraction: f64) -> Self {
        self.locality_split = Some(local_fraction.clamp(0.0, 1.0));
        self
    }

    /// Per-access statistics.
    pub fn stats(&self) -> HvacSimStats {
        self.stats
    }

    /// The embedded GPFS model (first-epoch traffic lands here).
    pub fn gpfs(&self) -> &GpfsModel {
        &self.gpfs
    }

    fn is_cached(&self, index: u64) -> bool {
        self.all_cached || self.cached.contains(&index)
    }

    fn home_of(&mut self, reader_node: u32, file: FileAccess) -> usize {
        if let Some(l) = self.locality_split {
            // Deterministic per-file coin derived from the seed keeps the
            // split stable across epochs (residency does not move).
            let coin = mix64(file.index ^ self.seed) as f64 / u64::MAX as f64;
            if coin < l {
                return (reader_node * self.instances_per_node) as usize;
            }
            // A uniformly random *remote* node's instance.
            let remote = if self.nodes <= 1 {
                0
            } else {
                let r = self.rng.gen_range(0..self.nodes - 1);
                if r >= reader_node {
                    r + 1
                } else {
                    r
                }
            };
            return (remote * self.instances_per_node) as usize;
        }
        let fid = FileId(mix64(file.index.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        self.placement
            .home(fid, (self.nodes * self.instances_per_node) as usize)
    }
}

impl IoBackend for HvacBackend {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn access(&mut self, now: SimTime, reader_node: u32, file: FileAccess) -> SimTime {
        let done = self.access_inner(now, reader_node, file);
        self.hist.record(done.saturating_since(now).as_nanos());
        done
    }

    fn set_client_count(&mut self, clients: u32) {
        // Only HVAC's first-epoch fetches hit GPFS, but they hit it with the
        // same client concurrency.
        self.gpfs.set_client_count(clients);
    }

    fn client_dispatch_ns(&self) -> u64 {
        self.client_dispatch_ns
    }

    fn assume_all_cached(&mut self) {
        self.all_cached = true;
    }

    /// Staged warm-up (paper §IV-C future work): every data mover pulls its
    /// share of the dataset from GPFS at full parallelism — no barriers, no
    /// interleaved compute — so staging is bounded by the slowest of: the
    /// MDS pool draining one open per file, the job's aggregate GPFS
    /// bandwidth, and each node writing its shard to NVMe.
    fn prefetch_dataset(&mut self, now: SimTime, n_files: u64, total_bytes: ByteSize) -> SimTime {
        let meta_secs = {
            // MDS pool throughput, including the overload factor baked into
            // the model via set_client_count (probe one op to learn it).
            let probe0 = self.gpfs.open(now);
            let service = probe0.saturating_since(now).as_secs_f64();
            let rpc = self.gpfs.config().rpc_latency_ns as f64 * 1e-9;
            let per_op = (service - rpc).max(1e-9);
            n_files as f64 * per_op / self.gpfs.config().mds_count as f64
        };
        let data_secs =
            total_bytes.as_f64() / self.gpfs.config().aggregate_bandwidth.as_bytes_per_sec();
        let write_secs =
            total_bytes.as_f64() / (self.write_bandwidth.as_bytes_per_sec() * self.nodes as f64);
        let staging = meta_secs.max(data_secs).max(write_secs);
        self.all_cached = true;
        self.stats.first_reads += n_files;
        now.saturating_add(SimTime::from_secs_f64(staging))
    }

    fn latency_histogram(&self) -> Option<&Histogram> {
        Some(&self.hist)
    }

    fn inject_node_failure(&mut self, node: u32) {
        self.failed_nodes.insert(node);
    }
}

impl HvacBackend {
    /// Replica instances of a file (home first), honoring the locality
    /// split when configured.
    fn replica_instances(&mut self, reader_node: u32, file: FileAccess) -> Vec<usize> {
        if self.replication <= 1 || self.locality_split.is_some() {
            return vec![self.home_of(reader_node, file)];
        }
        let fid = FileId(mix64(file.index.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        self.placement.replicas(
            fid,
            (self.nodes * self.instances_per_node) as usize,
            self.replication as usize,
        )
    }

    fn access_inner(&mut self, now: SimTime, reader_node: u32, file: FileAccess) -> SimTime {
        // Pick the first replica on a live node (client fail-over, §III-H).
        let replicas = self.replica_instances(reader_node, file);
        let chosen = replicas.iter().copied().find(|&inst| {
            let node = inst as u32 / self.instances_per_node;
            !self.failed_nodes.contains(&node)
        });
        let instance = match chosen {
            Some(inst) => {
                if inst != replicas[0] {
                    self.stats.failover_reads += 1;
                }
                inst
            }
            None => {
                // Every replica is gone: with k=1 this kills the run on real
                // hardware; the model degrades to a PFS re-fetch so the
                // experiment can count the damage.
                self.stats.lost_accesses += 1;
                return self.gpfs.open_read_close(now, file.size);
            }
        };
        self.access_at_instance(now, reader_node, file, instance, &replicas)
    }

    fn access_at_instance(
        &mut self,
        now: SimTime,
        reader_node: u32,
        file: FileAccess,
        instance: usize,
        replicas: &[usize],
    ) -> SimTime {
        let home_node = (instance as u32) / self.instances_per_node;
        let remote = home_node != reader_node;

        // Client -> server RPC hop.
        let arrive = if remote {
            now.saturating_add(self.net_latency)
        } else {
            now
        };
        // Request processing / data-mover capacity of the instance: this is
        // what HVAC (2x1)/(4x1) scale up.
        let processed = self.instance_pools[instance].admit(arrive, self.request_overhead);

        let served = if self.is_cached(file.index) {
            // Cached read: node-local NVMe of the home node.
            if reader_node == home_node {
                self.stats.local_hits += 1;
            } else {
                self.stats.remote_hits += 1;
            }
            self.devices[home_node as usize].read(processed, file.size)
        } else {
            // First read (§III-D): fetch from GPFS, write to NVMe, serve
            // from the fresh copy (still in memory). With replication, the
            // copy is also pushed to the other replicas' NVMe over their
            // NICs (§III-H's "data replication within the allocation").
            self.cached.insert(file.index);
            self.stats.first_reads += 1;
            let fetched = self.gpfs.open_read_close(processed, file.size);
            let written = self.devices[home_node as usize].write(fetched, file.size);
            for &replica in replicas.iter().skip(1) {
                let rnode = replica as u32 / self.instances_per_node;
                let shipped = self.nics[home_node as usize]
                    .admit(fetched, file.size)
                    .saturating_add(self.net_latency);
                self.devices[rnode as usize].write(shipped, file.size);
            }
            written
        };

        // Bulk transfer back to the reader.
        if remote {
            self.nics[home_node as usize]
                .admit(served, file.size)
                .saturating_add(self.net_latency)
        } else {
            served
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(i: u64, kib: u64) -> FileAccess {
        FileAccess {
            index: i,
            size: ByteSize::kib(kib),
        }
    }

    fn hvac_cfg(nodes: u32, instances: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::with_nodes(nodes);
        cfg.hvac.instances_per_node = instances;
        cfg
    }

    #[test]
    fn labels() {
        assert_eq!(GpfsBackend::new(GpfsModel::summit()).label(), "GPFS");
        assert_eq!(XfsLocalBackend::summit(2).label(), "XFS-on-NVMe");
        assert_eq!(HvacBackend::new(&hvac_cfg(2, 4), 1).label(), "HVAC(4x1)");
    }

    #[test]
    fn xfs_nodes_are_independent() {
        let mut b = XfsLocalBackend::summit(2);
        let t0 = b.access(SimTime::ZERO, 0, acc(1, 163));
        let t1 = b.access(SimTime::ZERO, 1, acc(2, 163));
        assert_eq!(t0, t1, "different nodes must not queue on each other");
        // Same node queues.
        let t2 = b.access(SimTime::ZERO, 0, acc(3, 163));
        assert!(t2 > t0);
    }

    #[test]
    fn hvac_first_read_is_slower_than_cached_read() {
        let mut b = HvacBackend::new(&hvac_cfg(4, 1), 7);
        let first = b.access(SimTime::ZERO, 0, acc(42, 163));
        let again = b.access(first, 0, acc(42, 163));
        assert!(
            first.as_nanos() > (again - first).as_nanos(),
            "first read {first} must cost more than cached {again}"
        );
        let s = b.stats();
        assert_eq!(s.first_reads, 1);
        assert_eq!(s.local_hits + s.remote_hits, 1);
    }

    #[test]
    fn hvac_second_epoch_avoids_gpfs() {
        let mut b = HvacBackend::new(&hvac_cfg(4, 1), 7);
        let mut t = SimTime::ZERO;
        for i in 0..100 {
            t = b.access(t, (i % 4) as u32, acc(i, 163));
        }
        let gpfs_opens_epoch1 = b.gpfs().opens();
        assert_eq!(gpfs_opens_epoch1, 100);
        for i in 0..100 {
            t = b.access(t, ((i + 1) % 4) as u32, acc(i, 163));
        }
        assert_eq!(b.gpfs().opens(), 100, "epoch 2 never touched GPFS");
        assert_eq!(b.stats().first_reads, 100);
        assert_eq!(b.stats().local_hits + b.stats().remote_hits, 100);
    }

    #[test]
    fn assume_all_cached_skips_first_reads() {
        let mut b = HvacBackend::new(&hvac_cfg(2, 1), 3);
        b.assume_all_cached();
        b.access(SimTime::ZERO, 0, acc(5, 163));
        assert_eq!(b.stats().first_reads, 0);
        assert_eq!(b.gpfs().opens(), 0);
    }

    #[test]
    fn more_instances_reduce_queueing() {
        // Saturate one node's servers with simultaneous cached reads; the
        // 4x1 variant must finish no later than the 1x1 variant.
        let finish = |instances: u32| {
            let mut b = HvacBackend::new(&hvac_cfg(1, instances), 5);
            b.assume_all_cached();
            let mut last = SimTime::ZERO;
            for i in 0..1000 {
                let done = b.access(SimTime::ZERO, 0, acc(i, 32));
                if done > last {
                    last = done;
                }
            }
            last
        };
        let one = finish(1);
        let four = finish(4);
        assert!(four < one, "4x1 {four} should beat 1x1 {one}");
    }

    #[test]
    fn locality_split_controls_remote_fraction() {
        for (l, _r) in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)] {
            let mut b = HvacBackend::new(&hvac_cfg(8, 1), 11).with_locality_split(l);
            b.assume_all_cached();
            let mut t = SimTime::ZERO;
            for i in 0..2000 {
                t = b.access(t, 0, acc(i, 163));
            }
            let s = b.stats();
            let local_frac = s.local_hits as f64 / (s.local_hits + s.remote_hits) as f64;
            assert!(
                (local_frac - l).abs() < 0.06,
                "L={l}: measured local fraction {local_frac}"
            );
        }
    }

    #[test]
    fn prefetch_marks_everything_cached_and_costs_time() {
        let mut b = HvacBackend::new(&hvac_cfg(8, 1), 3);
        let staged = b.prefetch_dataset(SimTime::ZERO, 10_000, ByteSize(10_000 * 163_000));
        assert!(staged > SimTime::ZERO, "staging takes time");
        // Everything is now a cache hit — GPFS untouched by reads.
        let opens_after_staging = b.gpfs().opens();
        b.access(staged, 0, acc(42, 163));
        assert_eq!(b.gpfs().opens(), opens_after_staging);
        assert_eq!(b.stats().local_hits + b.stats().remote_hits, 1);
    }

    #[test]
    fn latency_histograms_record_accesses() {
        let mut b = HvacBackend::new(&hvac_cfg(2, 1), 5);
        let mut t = SimTime::ZERO;
        for i in 0..50 {
            t = b.access(t, 0, acc(i, 163));
        }
        let h = b.latency_histogram().expect("hvac records latencies");
        assert_eq!(h.count(), 50);
        assert!(h.quantile(0.5) > 0);
        assert!(h.max() >= h.quantile(0.99));

        let mut x = XfsLocalBackend::summit(2);
        x.access(SimTime::ZERO, 0, acc(1, 163));
        assert_eq!(x.latency_histogram().unwrap().count(), 1);

        let mut g = GpfsBackend::new(GpfsModel::summit());
        g.access(SimTime::ZERO, 0, acc(1, 163));
        assert_eq!(g.latency_histogram().unwrap().count(), 1);
    }

    #[test]
    fn node_failure_without_replication_loses_accesses() {
        let mut b = HvacBackend::new(&hvac_cfg(4, 1), 9);
        let mut t = SimTime::ZERO;
        for i in 0..100 {
            t = b.access(t, (i % 4) as u32, acc(i, 163));
        }
        b.inject_node_failure(1);
        for i in 0..100 {
            t = b.access(t, (i % 4) as u32, acc(i, 163));
        }
        let s = b.stats();
        assert!(s.lost_accesses > 0, "files homed on node 1 are gone: {s:?}");
        assert_eq!(s.failover_reads, 0, "k=1 has nowhere to fail over");
    }

    #[test]
    fn node_failure_with_replication_fails_over() {
        let mut cfg = hvac_cfg(4, 1);
        cfg.hvac.replication = 2;
        let mut b = HvacBackend::new(&cfg, 9);
        let mut t = SimTime::ZERO;
        for i in 0..100 {
            t = b.access(t, (i % 4) as u32, acc(i, 163));
        }
        b.inject_node_failure(1);
        for i in 0..100 {
            t = b.access(t, (i % 4) as u32, acc(i, 163));
        }
        let s = b.stats();
        assert_eq!(s.lost_accesses, 0, "k=2 must mask one node failure: {s:?}");
        assert!(s.failover_reads > 0, "node-1 homes must have failed over");
    }

    #[test]
    fn replication_costs_extra_first_epoch_work() {
        let run = |k: u32| {
            let mut cfg = hvac_cfg(4, 1);
            cfg.hvac.replication = k;
            let mut b = HvacBackend::new(&cfg, 3);
            let mut last = SimTime::ZERO;
            for i in 0..200 {
                let done = b.access(SimTime::ZERO, (i % 4) as u32, acc(i, 2500));
                if done > last {
                    last = done;
                }
            }
            last
        };
        // k=2 ships every file to a second NVMe: the cold storm takes longer.
        assert!(run(2) > run(1));
    }

    #[test]
    fn remote_reads_cost_more_than_local() {
        let mut local = HvacBackend::new(&hvac_cfg(4, 1), 2).with_locality_split(1.0);
        let mut remote = HvacBackend::new(&hvac_cfg(4, 1), 2).with_locality_split(0.0);
        local.assume_all_cached();
        remote.assume_all_cached();
        let tl = local.access(SimTime::ZERO, 0, acc(1, 163));
        let tr = remote.access(SimTime::ZERO, 0, acc(1, 163));
        assert!(tr > tl);
        // ...but only slightly (Fig. 13: negligible at 25 GB/s NIC).
        assert!(
            tr.as_secs_f64() / tl.as_secs_f64() < 1.5,
            "remote {tr} vs local {tl} should be close"
        );
    }
}
