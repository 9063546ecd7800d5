//! Design-choice ablations (not in the paper, but answering the questions
//! its §III leaves open):
//!
//! * **Placement** — §III-E picks plain modulo hashing; how do jump,
//!   rendezvous, ring and straw2 compare on balance, and what fraction of
//!   files move when the allocation grows by one node (the elasticity the
//!   alternatives are supposed to buy)?
//! * **Eviction** — §III-G picks random eviction; how do FIFO/LRU/LFU and
//!   CoorDL's MinIO compare on hit rate when the dataset exceeds the
//!   aggregate cache, under the re-read-everything-each-epoch access
//!   pattern? (Each row names its policy, so the table does not depend on
//!   the default; MinIO's lead is why it is the default.)
//! * **Prefetch** — §IV-C proposes pre-populating the cache to remove the
//!   epoch-1 penalty; how much does staged warm-up buy per job length?
//! * **Topology** — §IV-G proposes topology-aware placement; how often do
//!   the naive replica schemes co-locate both copies of a file in one rack?
//! * **Latency tails** — barrier-synchronized training stalls on the
//!   slowest read; where do p50/p99/max access latencies sit per system?
//! * **PFS concurrency** — a server overlaps a request's misses on its data
//!   movers; how much of that survives a PFS with a finite server pool?

use crate::report::{fmt_pct, Table};
use bytes::Bytes;
use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_hash::pathhash::mix64;
use hvac_hash::placement::{
    JumpPlacement, ModuloPlacement, Placement, RendezvousPlacement, RingPlacement, Straw2Placement,
};
use hvac_hash::stats::{DistributionStats, LoadCdf};
use hvac_pfs::{FileMeta, FileStore, MemStore, StoreStats, ThrottledStore};
use hvac_types::{Bandwidth, ByteSize, EvictionPolicyKind, FileId, Result, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One topology-ablation case: label, baseline placement, topology-aware
/// counterpart.
type TopologyCase = (&'static str, Box<dyn Placement>, Box<dyn Placement>);

fn placements() -> Vec<Box<dyn Placement>> {
    vec![
        Box::new(ModuloPlacement),
        Box::new(JumpPlacement),
        Box::new(RendezvousPlacement),
        Box::new(RingPlacement::default()),
        Box::new(Straw2Placement::new()),
    ]
}

/// Balance and elasticity of every placement algorithm.
pub fn placement_table(quick: bool) -> Table {
    let n_files: u64 = if quick { 50_000 } else { 500_000 };
    let servers = 512usize;
    let mut t = Table::new(
        "ablation_placement",
        format!("Placement ablation: {n_files} files over {servers} servers"),
        vec![
            "algorithm",
            "peak/mean",
            "cdf_dev",
            "jain",
            "moved_on_grow", // fraction of files whose home changes 512->513
        ],
    );
    for p in placements() {
        let mut counts = vec![0u64; servers];
        let mut moved = 0u64;
        for i in 0..n_files {
            let fid = FileId(mix64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let home = p.home(fid, servers);
            counts[home] += 1;
            if p.home(fid, servers + 1) != home {
                moved += 1;
            }
        }
        let stats = DistributionStats::from_counts(&counts);
        let cdf = LoadCdf::from_counts(&counts);
        t.push_row(vec![
            p.name().to_string(),
            format!("{:.4}", stats.peak_to_mean),
            format!("{:.4}", cdf.max_deviation),
            format!("{:.4}", stats.jain_index),
            fmt_pct(moved as f64 / n_files as f64),
        ]);
    }
    t
}

/// Hit rates of the eviction policies on a functional cluster whose cache
/// holds only part of the dataset, over shuffled epochs.
pub fn eviction_table(quick: bool) -> Table {
    let (n_files, epochs) = if quick { (120u64, 2u32) } else { (400, 3) };
    let file_size = 1_000usize;
    // Aggregate cache: 4 nodes x capacity = half the dataset.
    let per_node_capacity = ByteSize((n_files * file_size as u64) / 8);
    let mut t = Table::new(
        "ablation_eviction",
        format!(
            "Eviction ablation: {n_files} files, aggregate cache holds ~50%, {epochs} shuffled epochs"
        ),
        vec!["policy", "hit_rate", "evictions", "pfs_copies", "bypass_reads"],
    );
    for kind in [
        EvictionPolicyKind::Random,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Lfu,
        EvictionPolicyKind::MinIo,
    ] {
        let pfs = Arc::new(MemStore::new());
        pfs.synthesize_dataset(Path::new("/gpfs/train"), n_files, |_| file_size);
        let cluster = Cluster::new(
            pfs,
            ClusterOptions::new(4, 1)
                .dataset_dir("/gpfs/train")
                .cache_capacity(per_node_capacity)
                .eviction(kind),
        )
        .unwrap_or_else(|e| panic!("ablation cluster construction failed: {e}"));
        let sampler = hvac_dl::DistributedSampler::new(n_files, 4, 99);
        for epoch in 0..epochs {
            for rank in 0..4u64 {
                for idx in sampler.rank_iter(epoch, rank) {
                    let path = format!("/gpfs/train/sample_{idx:08}.bin");
                    cluster
                        .client(rank as usize)
                        .read_file(Path::new(&path))
                        .unwrap_or_else(|e| panic!("cache read of {path} failed: {e}"));
                }
            }
        }
        let agg = cluster.aggregate_metrics();
        t.push_row(vec![
            format!("{kind:?}"),
            fmt_pct(agg.hit_rate()),
            agg.evictions.to_string(),
            agg.pfs_copies.to_string(),
            agg.pfs_bypass_reads.to_string(),
        ]);
    }
    t
}

/// The §IV-C prefetch extension: staged warm-up vs demand-paged epoch 1.
pub fn prefetch_table(quick: bool) -> Table {
    use crate::systems::paper_apps;
    use hvac_dl::{simulate_training, TrainingConfig};
    use hvac_sim::iostack::HvacBackend;
    use hvac_types::{ClusterConfig, GpfsConfig};

    let nodes = if quick { 32 } else { 512 };
    let app = &paper_apps()[0]; // ResNet50
    let mut t = Table::new(
        "ablation_prefetch",
        format!(
            "Prefetch (§IV-C): staged warm-up vs demand-paged epoch 1 [ResNet50, nNodes={nodes}]"
        ),
        vec![
            "epochs",
            "cold_total_min",
            "staged_total_min",
            "staging_min",
            "epoch1_cold_min",
            "epoch1_staged_min",
        ],
    );
    for epochs in [2u32, 10] {
        let mut cfg = TrainingConfig::new(app.dataset.clone(), app.model.clone(), nodes)
            .batch_size(app.batch_size)
            .epochs(epochs);
        cfg.max_sim_iters = if quick { 2 } else { 4 };
        let mut cc = ClusterConfig::with_nodes(nodes);
        cc.gpfs = GpfsConfig::shared_alpine();

        let cold = simulate_training(&mut HvacBackend::new(&cc, 0xAB), &cfg);
        cfg.prefetch = true;
        let staged = simulate_training(&mut HvacBackend::new(&cc, 0xAB), &cfg);
        t.push_row(vec![
            epochs.to_string(),
            crate::report::fmt_minutes(cold.total_minutes()),
            crate::report::fmt_minutes(staged.total_minutes()),
            crate::report::fmt_minutes(staged.prefetch_time.as_minutes_f64()),
            crate::report::fmt_minutes(cold.first_epoch().as_minutes_f64()),
            crate::report::fmt_minutes(staged.first_epoch().as_minutes_f64()),
        ]);
    }
    t
}

/// The §IV-G topology extension: fraction of files whose k=2 replicas share
/// a rack, per placement, with and without topology-aware re-ranking.
pub fn topology_table(quick: bool) -> Table {
    use hvac_hash::topology::{Topology, TopologyAware};
    let n_files: u64 = if quick { 5_000 } else { 200_000 };
    let servers = 512usize;
    let per_rack = 18usize; // Summit cabinets hold 18 nodes
    let mut t = Table::new(
        "ablation_topology",
        format!(
            "Topology-aware replicas (§IV-G): co-racked k=2 pairs over {servers} servers, {per_rack}/rack"
        ),
        vec!["algorithm", "co-racked", "topology-aware co-racked"],
    );
    let shared_fraction = |p: &dyn Placement| -> f64 {
        let mut shared = 0u64;
        for i in 0..n_files {
            let fid = FileId(mix64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let reps = p.replicas(fid, servers, 2);
            if reps[0] / per_rack == reps[1] / per_rack {
                shared += 1;
            }
        }
        shared as f64 / n_files as f64
    };
    let cases: Vec<TopologyCase> = vec![
        (
            "modulo",
            Box::new(ModuloPlacement),
            Box::new(TopologyAware::new(
                ModuloPlacement,
                Topology::regular(servers, per_rack),
            )),
        ),
        (
            "rendezvous",
            Box::new(RendezvousPlacement),
            Box::new(TopologyAware::new(
                RendezvousPlacement,
                Topology::regular(servers, per_rack),
            )),
        ),
        (
            "jump",
            Box::new(JumpPlacement),
            Box::new(TopologyAware::new(
                JumpPlacement,
                Topology::regular(servers, per_rack),
            )),
        ),
    ];
    for (name, base, aware) in &cases {
        t.push_row(vec![
            name.to_string(),
            fmt_pct(shared_fraction(base.as_ref())),
            fmt_pct(shared_fraction(aware.as_ref())),
        ]);
    }
    t
}

/// The §III-H reliability scenario: a node dies mid-training. Without
/// replication the run is damaged (lost accesses degrade to PFS re-fetches
/// every epoch); with k=2 the job completes with a bounded slowdown.
pub fn failure_table(quick: bool) -> Table {
    use crate::systems::paper_apps;
    use hvac_dl::{simulate_training, TrainingConfig};
    use hvac_sim::iostack::HvacBackend;
    use hvac_types::{ClusterConfig, GpfsConfig};

    let nodes = if quick { 16 } else { 128 };
    let app = &paper_apps()[0];
    let mut t = Table::new(
        "ablation_failure",
        format!(
            "Node failure mid-training (§III-H): kill one node after epoch 2 [ResNet50, nNodes={nodes}, Eps=6]"
        ),
        vec![
            "config",
            "total_min",
            "vs_healthy",
            "lost_accesses",
            "failover_reads",
        ],
    );
    let mut healthy_total = [0.0f64; 2];
    for (ki, k) in [1u32, 2].into_iter().enumerate() {
        for fail in [false, true] {
            let mut cfg = TrainingConfig::new(app.dataset.clone(), app.model.clone(), nodes)
                .batch_size(app.batch_size)
                .epochs(6);
            cfg.max_sim_iters = if quick { 2 } else { 4 };
            if fail {
                cfg.fail_node_after_epoch = Some((1, nodes / 2));
            }
            let mut cc = ClusterConfig::with_nodes(nodes);
            cc.gpfs = GpfsConfig::shared_alpine();
            cc.hvac.replication = k;
            let mut backend = HvacBackend::new(&cc, 0xFA11);
            let result = simulate_training(&mut backend, &cfg);
            let total = result.total_minutes();
            let vs = if fail {
                format!("{:+.1}%", (total / healthy_total[ki] - 1.0) * 100.0)
            } else {
                healthy_total[ki] = total;
                "—".into()
            };
            let stats = backend.stats();
            t.push_row(vec![
                format!("k={k}{}", if fail { " +node-failure" } else { "" }),
                crate::report::fmt_minutes(total),
                vs,
                stats.lost_accesses.to_string(),
                stats.failover_reads.to_string(),
            ]);
        }
    }
    t
}

/// Fig. 15 extension: byte balance at file vs segment granularity under a
/// heavy-tailed size distribution (the skew the paper blames for its CDF
/// deviation — segment-level caching, §III-E, fixes it).
pub fn segment_balance_table(quick: bool) -> Table {
    use hvac_dl::dataset::{DatasetSpec, SizeDistribution};
    let n_files: u64 = if quick { 8_000 } else { 200_000 };
    let servers = 512usize;
    let seg_size: u64 = 1 << 20; // 1 MiB segments
    let dataset = DatasetSpec {
        name: "skewed".into(),
        train_samples: n_files,
        mean_size: ByteSize::mib(4),
        size_dist: SizeDistribution::LogNormal { sigma: 1.4 },
        seed: 99,
    };
    let p = ModuloPlacement;
    let mut file_bytes = vec![0u64; servers];
    let mut seg_bytes = vec![0u64; servers];
    for i in 0..n_files {
        let size = dataset.size_of(i).bytes();
        let fid = FileId(mix64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        file_bytes[p.home(fid, servers)] += size;
        let mut off = 0u64;
        let mut seg = 0u64;
        while off < size {
            let len = seg_size.min(size - off);
            let sfid = FileId(mix64(fid.0 ^ seg.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            seg_bytes[p.home(sfid, servers)] += len;
            off += len;
            seg += 1;
        }
    }
    let f = DistributionStats::from_counts(&file_bytes);
    let s = DistributionStats::from_counts(&seg_bytes);
    let fc = LoadCdf::from_counts(&file_bytes);
    let sc = LoadCdf::from_counts(&seg_bytes);
    let mut t = Table::new(
        "ablation_segments",
        format!(
            "Segment-level caching (§III-E): byte balance over {servers} servers, lognormal(σ=1.4) sizes, 1 MiB segments"
        ),
        vec!["granularity", "bytes_peak/mean", "bytes_cdf_dev", "jain"],
    );
    t.push_row(vec![
        "file".to_string(),
        format!("{:.4}", f.peak_to_mean),
        format!("{:.4}", fc.max_deviation),
        format!("{:.4}", f.jain_index),
    ]);
    t.push_row(vec![
        "segment(1MiB)".to_string(),
        format!("{:.4}", s.peak_to_mean),
        format!("{:.4}", sc.max_deviation),
        format!("{:.4}", s.jain_index),
    ]);
    t
}

/// Per-access latency tails for the three systems in a warm 256-node run.
pub fn latency_table(quick: bool) -> Table {
    use crate::systems::{paper_apps, SystemKind};
    use hvac_dl::{simulate_training, TrainingConfig};

    let nodes = if quick { 32 } else { 256 };
    let app = &paper_apps()[0];
    let mut t = Table::new(
        "ablation_latency",
        format!("Per-access latency distribution [ResNet50, nNodes={nodes}]"),
        vec!["system", "p50", "p99", "max", "mean"],
    );
    for system in SystemKind::all() {
        let mut cfg = TrainingConfig::new(app.dataset.clone(), app.model.clone(), nodes)
            .batch_size(app.batch_size)
            .epochs(3);
        cfg.max_sim_iters = 2;
        let mut backend = system.make_backend(nodes, 0x1A7);
        simulate_training(backend.as_mut(), &cfg);
        let h = backend
            .latency_histogram()
            .unwrap_or_else(|| panic!("sim backend {} records no latencies", system.label()));
        t.push_row(vec![
            system.label(),
            SimTime(h.quantile(0.5)).to_string(),
            SimTime(h.quantile(0.99)).to_string(),
            SimTime(h.max()).to_string(),
            SimTime(h.mean()).to_string(),
        ]);
    }
    t
}

/// A PFS wrapper that records the most operations outstanding on it at
/// once, queued for a server slot or in service.
struct InflightProbe<S> {
    inner: S,
    now: AtomicUsize,
    max: AtomicUsize,
}

impl<S: FileStore> InflightProbe<S> {
    fn track<T>(&self, op: impl FnOnce(&S) -> T) -> T {
        let now = self.now.fetch_add(1, Ordering::Relaxed) + 1;
        self.max.fetch_max(now, Ordering::Relaxed);
        let out = op(&self.inner);
        self.now.fetch_sub(1, Ordering::Relaxed);
        out
    }
}

impl<S: FileStore> FileStore for InflightProbe<S> {
    fn open_meta(&self, path: &Path) -> Result<FileMeta> {
        self.track(|s| s.open_meta(path))
    }
    fn read_all(&self, path: &Path) -> Result<Bytes> {
        self.track(|s| s.read_all(path))
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        self.track(|s| s.read_at(path, offset, len))
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

/// Data movers per server against PFS server slots: a cosmo-shaped run
/// (4 nodes, 2 ranks, 2.5 MB samples read as 512-KiB segments, an aggregate
/// cache of half the dataset under the default no-replacement policy) over
/// a PFS that charges 500 us per operation plus the bytes at 512 MiB/s and
/// serves at most k operations at once. One fill epoch, then timed epochs;
/// samples/s is the median over them, and `pfs_max_inflight` counts the
/// operations outstanding at once (queued for a slot or in service).
pub fn pfs_concurrency_table(quick: bool) -> Table {
    const SEGMENT: u64 = 512 * 1024;
    const FILE_SIZE: usize = 2_500_000;
    const RANKS: u64 = 2;
    let (n_files, epochs) = if quick { (16u64, 1u32) } else { (128, 4) };
    let per_node_capacity = ByteSize(n_files * FILE_SIZE as u64 / 8);
    let mut t = Table::new(
        "ablation_pfs_concurrency",
        format!(
            "PFS concurrency: {n_files} x 2.5 MB files as 512-KiB segments, aggregate cache holds ~50%, {epochs} timed epochs, k PFS server slots x movers per server"
        ),
        vec!["pfs_slots", "movers", "samples_per_s", "pfs_max_inflight"],
    );
    for slots in [Some(1usize), Some(2), Some(4), None] {
        for movers in [1usize, 4] {
            let mem = MemStore::new();
            mem.synthesize_dataset(Path::new("/gpfs/train"), n_files, |_| FILE_SIZE);
            let throttled = ThrottledStore::new(
                mem,
                Duration::from_micros(500),
                Some(Bandwidth::mib_per_sec(512.0)),
            );
            let pfs = Arc::new(InflightProbe {
                inner: match slots {
                    Some(k) => throttled.with_slots(k),
                    None => throttled,
                },
                now: AtomicUsize::new(0),
                max: AtomicUsize::new(0),
            });
            let cluster = Cluster::new(
                pfs.clone(),
                ClusterOptions::new(4, 1)
                    .dataset_dir("/gpfs/train")
                    .cache_capacity(per_node_capacity)
                    .movers_per_instance(movers)
                    .rebalance(false)
                    .repair(false),
            )
            .unwrap_or_else(|e| panic!("ablation cluster construction failed: {e}"));
            let sampler = hvac_dl::DistributedSampler::new(n_files, RANKS, 7);
            // Every rank reads its share of `epoch` on a thread of its own;
            // returns the epoch's wall time.
            let run_epoch = |epoch: u32| {
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for rank in 0..RANKS {
                        let (client, sampler) = (cluster.client(rank as usize), &sampler);
                        scope.spawn(move || {
                            for idx in sampler.rank_iter(epoch, rank) {
                                let path = format!("/gpfs/train/sample_{idx:08}.bin");
                                let data = client
                                    .read_file_segmented(Path::new(&path), SEGMENT)
                                    .unwrap_or_else(|e| panic!("read of {path} failed: {e}"));
                                assert_eq!(data.len(), FILE_SIZE, "{path}");
                            }
                        });
                    }
                });
                t0.elapsed().as_secs_f64()
            };
            run_epoch(0);
            pfs.max.store(0, Ordering::Relaxed);
            let mut rates: Vec<f64> = (1..=epochs)
                .map(|epoch| n_files as f64 / run_epoch(epoch))
                .collect();
            rates.sort_by(f64::total_cmp);
            t.push_row(vec![
                slots.map_or("inf".to_string(), |k| k.to_string()),
                movers.to_string(),
                format!("{:.0}", rates[rates.len() / 2]),
                pfs.max.load(Ordering::Relaxed).to_string(),
            ]);
        }
    }
    t
}

/// Run all ablations.
pub fn run(quick: bool) -> Vec<Table> {
    vec![
        placement_table(quick),
        eviction_table(quick),
        prefetch_table(quick),
        topology_table(quick),
        segment_balance_table(quick),
        failure_table(quick),
        latency_table(quick),
        pfs_concurrency_table(quick),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn placement_elasticity_ordering() {
        let t = super::placement_table(true);
        let moved = |name: &str| -> f64 {
            let row = t.rows.iter().find(|r| r[0] == name).unwrap();
            row[4].trim_end_matches('%').parse::<f64>().unwrap()
        };
        // Modulo reshuffles nearly everything on growth; jump moves ~1/(n+1).
        assert!(moved("modulo") > 90.0, "modulo moved {}", moved("modulo"));
        assert!(moved("jump") < 5.0, "jump moved {}", moved("jump"));
        assert!(moved("rendezvous") < 5.0);
        assert!(moved("ring") < 10.0);
    }

    #[test]
    fn prefetch_makes_first_training_epoch_warm() {
        let t = super::prefetch_table(true);
        for row in &t.rows {
            let e1_cold: f64 = row[4].parse().unwrap();
            let e1_staged: f64 = row[5].parse().unwrap();
            assert!(
                e1_staged < e1_cold,
                "staged epoch-1 {e1_staged} must beat cold {e1_cold}"
            );
        }
    }

    #[test]
    fn topology_awareness_eliminates_co_racking() {
        let t = super::topology_table(true);
        for row in &t.rows {
            let aware: f64 = row[2].trim_end_matches('%').parse().unwrap();
            assert_eq!(aware, 0.0, "{}: aware co-rack {aware}%", row[0]);
        }
        let modulo_base: f64 = t.rows[0][1].trim_end_matches('%').parse().unwrap();
        assert!(
            modulo_base > 50.0,
            "modulo should co-rack heavily: {modulo_base}%"
        );
    }

    #[test]
    fn segment_granularity_improves_byte_balance() {
        let t = super::segment_balance_table(true);
        let file_dev: f64 = t.rows[0][2].parse().unwrap();
        let seg_dev: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            seg_dev < file_dev,
            "segments should balance skewed bytes better: {seg_dev} vs {file_dev}"
        );
        let seg_peak: f64 = t.rows[1][1].parse().unwrap();
        let file_peak: f64 = t.rows[0][1].parse().unwrap();
        // At quick scale the sample is small; assert the relative win.
        assert!(
            seg_peak < file_peak * 0.7,
            "segment peak/mean {seg_peak} vs file {file_peak}"
        );
    }

    #[test]
    fn failure_table_shape() {
        let t = super::failure_table(true);
        assert_eq!(t.rows.len(), 4);
        // k=1 + failure loses accesses; k=2 + failure loses none but fails
        // over.
        let lost = |row: usize| -> u64 { t.rows[row][3].parse().unwrap() };
        let failovers = |row: usize| -> u64 { t.rows[row][4].parse().unwrap() };
        assert_eq!(lost(0), 0, "healthy k=1 loses nothing");
        assert!(lost(1) > 0, "k=1 + failure must lose accesses");
        assert_eq!(lost(3), 0, "k=2 + failure must lose nothing");
        assert!(failovers(3) > 0, "k=2 + failure must fail over");
    }

    /// Nanoseconds of a duration as the tables print a `SimTime`
    /// ("65.535 us").
    fn nanos(cell: &str) -> f64 {
        let (value, unit) = cell.split_once(' ').expect("value and unit");
        let scale = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            "s" => 1e9,
            "min" => 60e9,
            other => panic!("unit {other} in {cell}"),
        };
        value.parse::<f64>().expect("a number") * scale
    }

    #[test]
    fn latency_table_tails_ordered() {
        let t = super::latency_table(true);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let (p50, p99, max) = (nanos(&row[1]), nanos(&row[2]), nanos(&row[3]));
            assert!(p50 <= p99 && p99 <= max, "tails out of order: {row:?}");
        }
        // Staged node-local data is the fastest system at the median.
        assert_eq!(t.rows[4][0], "XFS-on-NVMe");
        let xfs_p50 = nanos(&t.rows[4][1]);
        for row in &t.rows[..4] {
            assert!(xfs_p50 < nanos(&row[1]), "XFS p50 not the lowest: {row:?}");
        }
    }

    #[test]
    fn pfs_concurrency_table_sweeps_slots_against_movers() {
        let t = super::pfs_concurrency_table(true);
        let cells: Vec<(&str, &str)> = t
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str()))
            .collect();
        assert_eq!(
            cells,
            [
                ("1", "1"),
                ("1", "4"),
                ("2", "1"),
                ("2", "4"),
                ("4", "1"),
                ("4", "4"),
                ("inf", "1"),
                ("inf", "4")
            ]
        );
        for row in &t.rows {
            let rate: f64 = row[2].parse().unwrap();
            let inflight: u64 = row[3].parse().unwrap();
            assert!(rate > 0.0 && inflight >= 1, "{row:?}");
        }
    }

    #[test]
    fn eviction_policies_all_produce_hits_under_pressure() {
        let t = super::eviction_table(true);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let hit: f64 = row[1].trim_end_matches('%').parse().unwrap();
            let evictions: u64 = row[2].parse().unwrap();
            assert!(hit > 1.0 && hit < 60.0, "{}: hit {hit}", row[0]);
            if row[0] == "MinIo" {
                // The pinned cache never evicts; overflow bypasses to PFS.
                assert_eq!(evictions, 0, "MinIO must not evict");
                let bypass: u64 = row[4].parse().unwrap();
                assert!(bypass > 0, "MinIO overflow must bypass");
            } else {
                assert!(evictions > 0, "{}: no evictions", row[0]);
            }
        }
    }
}
