//! Drives one workload: synthesize the dataset, set the cluster up, run
//! closed-loop training epochs from every rank, check every byte and the
//! counter ledger, and turn the measurements into metrics.

use crate::stats::{self, Counters};
use crate::trace::{self, request_id, Span, SpanKind, TracedStore, Tracer};
use crate::usage;
use crate::workload::{
    Dataset, Fill, ReadPath, Workload, DATASET_DIR, INSTANCES_PER_NODE, NODES, PFS_MIB_PER_S,
    PFS_OP_LATENCY, RANKS,
};
use hvac_core::{Cluster, ClusterOptions, HvacClient};
use hvac_dl::DistributedSampler;
use hvac_pfs::{FileStore, ThrottledStore};
use hvac_types::{Bandwidth, JobId, TransportKind};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The read-latency percentiles need this many samples to have
/// [`stats::MIN_BEYOND`] beyond p99; a measured phase runs at least this
/// long even when its time is up.
const MIN_PHASE_SAMPLES: u64 = 1000;

/// Host steal share above which an epoch or a set-up counts as disturbed.
/// On a shared virtual machine a neighbour's load shows up as steal time
/// for minutes at a time and slows every thread of the process (a 20%
/// steal halves warm throughput), so the timing metrics are taken over the
/// quiet epochs — or, when those cover less than half the phase, over its
/// least-disturbed half — as comparing two program versions needs.
const QUIET_STEAL: f64 = 0.03;

/// Command-line settings of one run.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the traced run writes its span file to.
    pub trace_dir: PathBuf,
}

/// A measured value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Ledger violations; a run with any is not correct.
    pub violations: Vec<String>,
    /// Metrics for the result line (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Further lines for the human-readable summary.
    pub notes: Vec<String>,
}

/// One rank's share of one epoch.
struct RankEpoch {
    attempted: u64,
    failed: u64,
    delivered: u64,
    expected: u64,
    latencies: Vec<u64>,
    spans: Vec<Span>,
    secs: f64,
}

/// One measured epoch, all ranks together.
struct EpochStat {
    attempted: u64,
    ok: u64,
    /// Wall time from releasing the ranks to the slowest one finishing.
    wall_s: f64,
    /// Process CPU time over the same interval.
    cpu_s: f64,
    /// Host steal share over the same interval.
    steal: f64,
    /// Each rank's epoch time.
    rank_secs: Vec<f64>,
    /// Read latencies (ns) of the delivered samples.
    latencies: Vec<u64>,
}

/// One measured phase: whole epochs until the time is up.
struct Phase {
    attempted: u64,
    failed: u64,
    delivered: u64,
    expected: u64,
    epochs: Vec<EpochStat>,
    /// The epochs the timing metrics are taken over (see [`QUIET_STEAL`]).
    counted: Vec<usize>,
    /// Sum of epoch wall times (excludes the purges between epochs).
    wall_s: f64,
    deltas: Counters,
    node_bytes: Vec<u64>,
    server_reads: Vec<u64>,
    spans: Vec<Span>,
}

impl Phase {
    fn ok_samples(&self) -> u64 {
        self.attempted - self.failed
    }

    fn counted(&self) -> impl Iterator<Item = &EpochStat> {
        self.counted.iter().map(|&i| &self.epochs[i])
    }

    /// Median over counted epochs of delivered samples per second: a burst
    /// of interference costs an epoch, not the run.
    fn samples_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .counted()
            .map(|e| stats::ratio(e.ok as f64, e.wall_s))
            .collect();
        stats::median(&rates)
    }

    /// Median over counted epochs of process CPU time per attempted
    /// sample, µs.
    fn cpu_us_per_sample(&self) -> f64 {
        let per_sample: Vec<f64> = self
            .counted()
            .map(|e| stats::ratio(e.cpu_s * 1e6, e.attempted as f64))
            .collect();
        stats::median(&per_sample)
    }

    /// Percentile `p` of read latency (µs): computed over windows of
    /// consecutive counted epochs, each holding enough samples for `p`, and
    /// the median over windows reported. Falls back to every epoch when
    /// the counted ones are too few; `None` if even those are.
    fn windowed_latency_us(&self, p: f64) -> Option<f64> {
        let over = |epochs: &mut dyn Iterator<Item = &EpochStat>| {
            let mut per_window = Vec::new();
            let mut window = Vec::new();
            for e in epochs {
                window.extend_from_slice(&e.latencies);
                window.sort_unstable();
                if let Some(ns) = stats::percentile(&window, p) {
                    per_window.push(ns as f64 / 1e3);
                    window.clear();
                }
            }
            (!per_window.is_empty()).then(|| stats::median(&per_window))
        };
        over(&mut self.counted()).or_else(|| over(&mut self.epochs.iter()))
    }

    fn latency_count(&self) -> usize {
        self.epochs.iter().map(|e| e.latencies.len()).sum()
    }

    /// Summary of how the host's steal shaped the counted epochs.
    fn steal_note(&self) -> String {
        let quiet = self
            .epochs
            .iter()
            .filter(|e| e.steal <= QUIET_STEAL)
            .count();
        let worst = self.epochs.iter().map(|e| e.steal).fold(0.0, f64::max);
        format!(
            "host steal: {quiet} of {} epochs quiet (<= {:.0}%), worst {:.1}%; {} epochs counted",
            self.epochs.len(),
            QUIET_STEAL * 100.0,
            worst * 100.0,
            self.counted.len()
        )
    }

    fn delta(&self, name: &str) -> u64 {
        self.deltas[name]
    }

    fn per_sample(&self, name: &str) -> f64 {
        stats::ratio(self.delta(name) as f64, self.attempted as f64)
    }

    fn pfs_ops_per_sample(&self) -> f64 {
        stats::ratio(
            (self.delta("pfs.opens") + self.delta("pfs.reads")) as f64,
            self.attempted as f64,
        )
    }

    fn pfs_bytes_per_byte(&self) -> f64 {
        stats::ratio(self.delta("pfs.bytes") as f64, self.delivered as f64)
    }

    fn failed_frac(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Shared, read-only state of a running workload.
struct Bench<'a> {
    workload: &'a Workload,
    dataset: &'a Dataset,
    sampler: DistributedSampler,
    pfs: Arc<dyn FileStore>,
    tracer: Option<Arc<Tracer>>,
}

impl Bench<'_> {
    fn build_cluster(&self) -> Result<Cluster, String> {
        let options = ClusterOptions::new(NODES, INSTANCES_PER_NODE)
            .dataset_dir(DATASET_DIR)
            .cache_capacity(self.workload.cache_per_node)
            .rebalance(false)
            .repair(false)
            .transport(TransportKind::Tcp)
            .job_id(JobId::DEFAULT);
        Cluster::new(self.pfs.clone(), options).map_err(|e| format!("cluster set-up: {e}"))
    }

    fn clients(cluster: &Cluster) -> Vec<Arc<HvacClient>> {
        (0..RANKS as usize)
            .map(|r| cluster.client(r).clone())
            .collect()
    }

    /// `Cluster::new` plus the workload's fill pass; returns the cluster,
    /// the seconds both took and the host steal share meanwhile.
    fn set_up(&self) -> Result<(Cluster, f64, f64), String> {
        let steal = usage::StealMeter::start();
        let t0 = Instant::now();
        let cluster = self.build_cluster()?;
        match self.workload.fill {
            Fill::Prefetch => {
                cluster
                    .prefetch_dataset(Path::new(DATASET_DIR))
                    .map_err(|e| format!("prefetch: {e}"))?;
                let resident: u64 = cluster.per_node_file_counts().iter().sum();
                if resident != self.workload.files {
                    return Err(format!(
                        "prefetch staged {resident} of {} files",
                        self.workload.files
                    ));
                }
            }
            Fill::Epoch => {
                let ranks = self.run_epoch(&Self::clients(&cluster), 0, false);
                let failed: u64 = ranks.iter().map(|r| r.failed).sum();
                if failed > 0 {
                    return Err(format!("{failed} samples failed in the fill epoch"));
                }
            }
        }
        Ok((cluster, t0.elapsed().as_secs_f64(), steal.fraction()))
    }

    /// Every rank reads its shard of `epoch` concurrently.
    fn run_epoch(&self, clients: &[Arc<HvacClient>], epoch: u32, traced: bool) -> Vec<RankEpoch> {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(rank, client)| {
                    s.spawn(move || self.run_rank(client, epoch, rank as u64, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a rank thread panicked"))
                .collect()
        })
    }

    /// One rank's epoch: read every sample of its shard in sampler order,
    /// timing each read and comparing the bytes with the synthesized ones.
    fn run_rank(&self, client: &HvacClient, epoch: u32, rank: u64, traced: bool) -> RankEpoch {
        let tracer = self.tracer.as_deref().filter(|_| traced);
        let per_rank = self.sampler.samples_per_rank() as usize;
        let mut out = RankEpoch {
            attempted: 0,
            failed: 0,
            delivered: 0,
            expected: 0,
            latencies: Vec::with_capacity(per_rank),
            spans: Vec::with_capacity(if tracer.is_some() { per_rank + 1 } else { 0 }),
            secs: 0.0,
        };
        let epoch_start = Instant::now();
        let epoch_span_start = tracer.map(Tracer::now);
        for index in self.sampler.rank_iter(epoch, rank) {
            let i = index as usize;
            let path = &self.dataset.paths[i];
            let expected = &self.dataset.contents[i];
            let span_start = tracer.map(Tracer::now);
            let t0 = Instant::now();
            let result = match self.workload.read {
                ReadPath::WholeFile => client.read_file(path),
                ReadPath::Segmented(segment) => client.read_file_segmented(path, segment),
            };
            let elapsed = t0.elapsed();
            if let (Some(t), Some(start)) = (tracer, span_start) {
                out.spans.push(Span {
                    kind: SpanKind::ClientRead,
                    id: request_id(epoch, index),
                    start,
                    end: t.now(),
                });
            }
            out.attempted += 1;
            out.expected += expected.len() as u64;
            match result {
                Ok(data) => {
                    out.delivered += data.len() as u64;
                    if data == *expected {
                        out.latencies.push(elapsed.as_nanos() as u64);
                    } else {
                        out.failed += 1;
                        eprintln!(
                            "perfbench: wrong bytes for {} in epoch {epoch} ({} bytes, expected {})",
                            path.display(),
                            data.len(),
                            expected.len()
                        );
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: {} in epoch {epoch}: {e}", path.display());
                }
            }
        }
        out.secs = epoch_start.elapsed().as_secs_f64();
        if let (Some(t), Some(start)) = (tracer, epoch_span_start) {
            out.spans.push(Span {
                kind: SpanKind::DlEpoch,
                id: request_id(epoch, rank),
                start,
                end: t.now(),
            });
        }
        out
    }

    /// Run whole epochs, starting at `*next_epoch`, until `seconds` have
    /// passed and at least [`MIN_PHASE_SAMPLES`] samples were read.
    fn measure(
        &self,
        cluster: &Cluster,
        next_epoch: &mut u32,
        seconds: f64,
        traced: bool,
        violations: &mut Vec<String>,
    ) -> Result<Phase, String> {
        let clients = Self::clients(cluster);
        if let Some(t) = self.tracer.as_deref().filter(|_| traced) {
            t.set_recording(true);
        }
        let before = capture(cluster, &clients, self.pfs.as_ref());
        let start = Instant::now();
        let mut phase = Phase {
            attempted: 0,
            failed: 0,
            delivered: 0,
            expected: 0,
            epochs: Vec::new(),
            counted: Vec::new(),
            wall_s: 0.0,
            deltas: Counters::new(),
            node_bytes: Vec::new(),
            server_reads: Vec::new(),
            spans: Vec::new(),
        };
        while phase.epochs.is_empty()
            || start.elapsed().as_secs_f64() < seconds
            || phase.attempted < MIN_PHASE_SAMPLES
        {
            let epoch = *next_epoch;
            *next_epoch += 1;
            if self.workload.cold_epochs {
                cluster.purge();
                let files: u64 = cluster.per_node_file_counts().iter().sum();
                let bytes: u64 = cluster.per_node_bytes().iter().sum();
                if files != 0 || bytes != 0 {
                    violations.push(format!(
                        "epoch {epoch} started with {files} files / {bytes} bytes cached"
                    ));
                }
            }
            if let Some(t) = &self.tracer {
                t.set_epoch(epoch);
            }
            let steal = usage::StealMeter::start();
            let cpu0 = usage::cpu_seconds();
            let t0 = Instant::now();
            let ranks = self.run_epoch(&clients, epoch, traced);
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = usage::cpu_seconds() - cpu0;
            let mut stat = EpochStat {
                attempted: 0,
                ok: 0,
                wall_s,
                cpu_s,
                steal: steal.fraction(),
                rank_secs: ranks.iter().map(|r| r.secs).collect(),
                latencies: Vec::new(),
            };
            for r in ranks {
                stat.attempted += r.attempted;
                stat.ok += r.attempted - r.failed;
                phase.failed += r.failed;
                phase.delivered += r.delivered;
                phase.expected += r.expected;
                stat.latencies.extend(r.latencies);
                phase.spans.extend(r.spans);
            }
            phase.attempted += stat.attempted;
            phase.wall_s += wall_s;
            phase.epochs.push(stat);
        }
        let steals: Vec<f64> = phase.epochs.iter().map(|e| e.steal).collect();
        let walls: Vec<f64> = phase.epochs.iter().map(|e| e.wall_s).collect();
        phase.counted = stats::quiet_subset(&steals, &walls, QUIET_STEAL, phase.wall_s / 2.0);
        let after = capture(cluster, &clients, self.pfs.as_ref());
        if let Some(t) = self.tracer.as_deref().filter(|_| traced) {
            t.set_recording(false);
            phase.spans.extend(t.take_pfs_spans());
        }
        phase.deltas = stats::deltas(&before, &after)?;
        phase.node_bytes = cluster.per_node_bytes();
        phase.server_reads = (0..cluster.n_servers())
            .map(|i| phase.delta(&format!("server{i}.reads")))
            .collect();
        self.check_ledger(&phase, violations);
        Ok(phase)
    }

    /// The counter ledger of one phase, from the public snapshot APIs.
    fn check_ledger(&self, phase: &Phase, violations: &mut Vec<String>) {
        for (i, &reads) in phase.server_reads.iter().enumerate() {
            let hits = phase.delta(&format!("server{i}.hits"));
            let misses = phase.delta(&format!("server{i}.misses"));
            if hits + misses != reads {
                violations.push(format!(
                    "server {i}: {hits} hits + {misses} misses != {reads} reads"
                ));
            }
        }
        if phase.delivered != phase.expected {
            violations.push(format!(
                "ranks received {} bytes, the sampled files hold {}",
                phase.delivered, phase.expected
            ));
        }
        let client_bytes = phase.delta("client.bytes");
        if client_bytes != phase.expected {
            violations.push(format!(
                "clients counted {client_bytes} bytes delivered, the sampled files hold {}",
                phase.expected
            ));
        }
        if self.workload.fully_cached() {
            let ops = phase.delta("pfs.opens") + phase.delta("pfs.reads");
            if ops != 0 {
                violations.push(format!(
                    "{ops} PFS operations on a fully cached workload (expected 0)"
                ));
            }
        }
    }
}

/// Every counter the metrics and the ledger use, from the public snapshot
/// APIs: per-server and aggregate server metrics, the ranks' client
/// metrics, the fabric's traffic counters and the PFS store's counters.
fn capture(cluster: &Cluster, clients: &[Arc<HvacClient>], pfs: &dyn FileStore) -> Counters {
    let mut c = Counters::new();
    let mut put = |name: String, v: u64| {
        *c.entry(name).or_insert(0) += v;
    };
    for (i, s) in cluster.server_metrics().iter().enumerate() {
        put(format!("server{i}.reads"), s.reads);
        put(format!("server{i}.hits"), s.cache_hits);
        put(format!("server{i}.misses"), s.cache_misses);
    }
    let a = cluster.aggregate_metrics();
    for (name, v) in [
        ("server.reads", a.reads),
        ("server.cache_hits", a.cache_hits),
        ("server.pfs_copies", a.pfs_copies),
        ("server.evictions", a.evictions),
        ("server.dedup_waits", a.dedup_waits),
        ("server.stats_ops", a.stats_ops),
        ("server.closes", a.closes),
        ("server.pfs_bypass_reads", a.pfs_bypass_reads),
        ("server.eviction_races", a.eviction_races),
        ("server.stripe_lookups", a.stripe_hits + a.stripe_misses),
        ("server.stripe_contention", a.stripe_contention),
    ] {
        put(name.to_string(), v);
    }
    for client in clients {
        let m = client.metrics().full_snapshot();
        for (name, v) in [
            ("client.bytes", m.bytes),
            ("client.retries", m.retries),
            ("client.timeouts", m.timeouts),
            ("client.failovers", m.failovers),
            ("client.degraded_reads", m.degraded_reads),
            ("client.hedges", m.hedges),
            ("client.batch_rpcs", m.batch_rpcs),
            ("client.batch_fallbacks", m.batch_fallbacks),
        ] {
            put(name.to_string(), v);
        }
    }
    let (rpcs, request_bytes, reply_bytes, bulk_bytes, failed_calls) =
        cluster.fabric().stats().snapshot();
    let (opens, reads, bytes) = pfs.stats().snapshot();
    for (name, v) in [
        ("net.rpcs", rpcs),
        ("net.request_bytes", request_bytes),
        ("net.reply_bytes", reply_bytes),
        ("net.bulk_bytes", bulk_bytes),
        ("net.failed_calls", failed_calls),
        ("pfs.opens", opens),
        ("pfs.reads", reads),
        ("pfs.bytes", bytes),
    ] {
        put(name.to_string(), v);
    }
    c
}

/// Run `workload` once.
pub fn run(workload: &Workload, config: &RunConfig) -> Result<Report, String> {
    let dataset = Dataset::synthesize(workload, config.seed);
    let mem = dataset.store();
    let rss_base_kib = usage::max_rss_kib();

    let throttled = ThrottledStore::new(
        mem,
        PFS_OP_LATENCY,
        Some(Bandwidth::mib_per_sec(PFS_MIB_PER_S)),
    );
    let tracer = config.trace.then(|| Arc::new(Tracer::default()));
    let pfs: Arc<dyn FileStore> = match &tracer {
        Some(t) => Arc::new(TracedStore::new(throttled, t.clone(), &dataset.paths)),
        None => Arc::new(throttled),
    };
    let bench = Bench {
        workload,
        dataset: &dataset,
        sampler: DistributedSampler::new(workload.files, RANKS, config.seed),
        pfs,
        tracer,
    };

    let mut setup_secs = Vec::with_capacity(workload.setup_reps);
    let mut setup_steal = Vec::with_capacity(workload.setup_reps);
    let mut cluster = None;
    for _ in 0..workload.setup_reps {
        // Tear the previous allocation down before timing the next one.
        drop(cluster.take());
        let (c, secs, steal) = bench.set_up()?;
        setup_secs.push(secs);
        setup_steal.push(steal);
        cluster = Some(c);
    }
    let cluster = cluster.ok_or("no set-up repetitions")?;
    // The median over quiet repetitions, or over the quieter half.
    let quiet_setups = stats::quiet_subset(
        &setup_steal,
        &vec![1.0; setup_steal.len()],
        QUIET_STEAL,
        (setup_steal.len() as f64 / 2.0).ceil(),
    );
    let setup_s = stats::median(
        &quiet_setups
            .iter()
            .map(|&i| setup_secs[i])
            .collect::<Vec<_>>(),
    );

    let mut violations = Vec::new();
    let mut next_epoch = 1;
    let mut notes = vec![format!(
        "{}: seed {}, {} files, {:.1} MiB, {} MiB cache/node, {} nodes x {} server(s) on TCP, {} ranks",
        workload.name,
        config.seed,
        workload.files,
        dataset.total_bytes() as f64 / (1 << 20) as f64,
        workload.cache_per_node.bytes() >> 20,
        NODES,
        INSTANCES_PER_NODE,
        RANKS
    )];

    if !config.trace {
        let phase = bench.measure(
            &cluster,
            &mut next_epoch,
            config.seconds,
            false,
            &mut violations,
        )?;
        let rss_mib = usage::max_rss_kib().saturating_sub(rss_base_kib) as f64 / 1024.0;
        let (metrics, lines) = end_to_end(&phase, setup_s, rss_mib)?;
        notes.push(format!(
            "set-up repetitions: {setup_secs:.4?} s, host steal {:.1?}%",
            setup_steal.iter().map(|s| s * 100.0).collect::<Vec<_>>()
        ));
        notes.extend(lines);
        return Ok(Report {
            attempted: phase.attempted,
            failed: phase.failed,
            violations,
            metrics,
            notes,
        });
    }

    // Traced run: an untraced half, then a traced half on the same
    // allocation; their throughput difference is the tracing overhead.
    let half = config.seconds / 2.0;
    let plain = bench.measure(&cluster, &mut next_epoch, half, false, &mut violations)?;
    let traced = bench.measure(&cluster, &mut next_epoch, half, true, &mut violations)?;
    let span_file = config
        .trace_dir
        .join(format!("trace-{}-seed{}.tsv", workload.name, config.seed));
    trace::write_spans(&span_file, &traced.spans)
        .map_err(|e| format!("writing {}: {e}", span_file.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        traced.spans.len(),
        span_file.display()
    ));
    let overhead = traced.samples_per_s() - plain.samples_per_s();
    notes.push(format!(
        "tracing overhead: {overhead:.1} samples/s ({:.1} untraced, {:.1} traced)",
        plain.samples_per_s(),
        traced.samples_per_s()
    ));
    notes.push(format!("untraced half: {}", plain.steal_note()));
    notes.push(format!("traced half: {}", traced.steal_note()));
    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        violations,
        metrics: per_layer(&traced, overhead),
        notes,
    })
}

/// The end-to-end metrics of an untraced phase, plus summary lines for the
/// ones that are reported but carry no bound: PFS offload and failures read
/// 0 on some workloads by design, and peak RSS growth depends on the
/// allocator's reaction to each seed's size sequence.
fn end_to_end(
    phase: &Phase,
    setup_s: f64,
    rss_mib: f64,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let latency = |p: f64| {
        phase
            .windowed_latency_us(p)
            .ok_or_else(|| format!("{} samples are too few for p{p}", phase.latency_count()))
    };
    let metrics = vec![
        metric("samples_per_s", phase.samples_per_s(), "samples/s"),
        metric("read_p50_us", latency(50.0)?, "us"),
        metric("read_p99_us", latency(99.0)?, "us"),
        metric("cpu_us_per_sample", phase.cpu_us_per_sample(), "us"),
        metric("setup_s", setup_s, "s"),
    ];
    let lines = vec![
        format!(
            "samples: {} attempted, {} delivered in {} epochs, {:.3} s measured",
            phase.attempted,
            phase.ok_samples(),
            phase.epochs.len(),
            phase.wall_s,
        ),
        phase.steal_note(),
        format!(
            "read latency n={}, median over windows: p90 {:.1} us, p95 {:.1} us",
            phase.latency_count(),
            latency(90.0)?,
            latency(95.0)?
        ),
        format!(
            "pfs_ops_per_sample  {:.4} ops/sample",
            phase.pfs_ops_per_sample()
        ),
        format!(
            "pfs_bytes_per_byte  {:.4} ratio",
            phase.pfs_bytes_per_byte()
        ),
        format!("failed_frac         {:.6} ratio", phase.failed_frac()),
        format!("rss_mib             {rss_mib:.2} MiB"),
    ];
    Ok((metrics, lines))
}

/// Per-layer metrics of a traced phase, from its spans and counter deltas.
fn per_layer(phase: &Phase, overhead: f64) -> Vec<Metric> {
    let mut pfs_by_request: HashMap<u64, Vec<stats::Interval>> = HashMap::new();
    let mut pfs_intervals = Vec::new();
    let mut pfs_read_ns = Vec::new();
    for s in &phase.spans {
        if matches!(s.kind, SpanKind::PfsOpenMeta | SpanKind::PfsRead) {
            pfs_by_request
                .entry(s.id)
                .or_default()
                .push((s.start, s.end));
            pfs_intervals.push((s.start, s.end));
            if s.kind == SpanKind::PfsRead {
                pfs_read_ns.push(s.end - s.start);
            }
        }
    }
    let mut client_self_ns: Vec<u64> = phase
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::ClientRead)
        .map(|s| {
            let children = pfs_by_request.get(&s.id).map_or(&[][..], Vec::as_slice);
            stats::self_time((s.start, s.end), children)
        })
        .collect();
    client_self_ns.sort_unstable();
    pfs_read_ns.sort_unstable();
    let p50_us = |sorted: &[u64]| stats::percentile(sorted, 50.0).map_or(0.0, |ns| ns as f64 / 1e3);
    let pfs_busy_s = pfs_intervals.iter().map(|&(s, e)| e - s).sum::<u64>() as f64 / 1e9;

    let epoch_max: Vec<f64> = phase
        .counted()
        .map(|e| e.rank_secs.iter().copied().fold(0.0, f64::max))
        .collect();
    let epoch_skew: Vec<f64> = phase
        .counted()
        .map(|e| {
            let max = e.rank_secs.iter().copied().fold(0.0, f64::max);
            let min = e.rank_secs.iter().copied().fold(f64::INFINITY, f64::min);
            stats::ratio(max, min)
        })
        .collect();
    let count = |name: &str| phase.delta(name) as f64;
    vec![
        metric("dl.rank_epoch_s_max", stats::median(&epoch_max), "s"),
        metric("dl.rank_skew", stats::median(&epoch_skew), "ratio"),
        metric("dl.failed_frac", phase.failed_frac(), "ratio"),
        metric("client.read.self_us_p50", p50_us(&client_self_ns), "us"),
        metric(
            "client.batch_rpcs_per_sample",
            phase.per_sample("client.batch_rpcs"),
            "rpcs/sample",
        ),
        metric(
            "client.batch_fallbacks",
            count("client.batch_fallbacks"),
            "count",
        ),
        metric("client.retries", count("client.retries"), "count"),
        metric("client.timeouts", count("client.timeouts"), "count"),
        metric("client.failovers", count("client.failovers"), "count"),
        metric(
            "client.degraded_reads",
            count("client.degraded_reads"),
            "count",
        ),
        metric("client.hedges", count("client.hedges"), "count"),
        metric(
            "net.rpcs_per_sample",
            phase.per_sample("net.rpcs"),
            "rpcs/sample",
        ),
        metric(
            "net.request_bytes_per_sample",
            phase.per_sample("net.request_bytes"),
            "B/sample",
        ),
        metric(
            "net.reply_bytes_per_sample",
            phase.per_sample("net.reply_bytes"),
            "B/sample",
        ),
        metric(
            "net.bulk_bytes_per_byte",
            stats::ratio(count("net.bulk_bytes"), phase.delivered as f64),
            "ratio",
        ),
        metric("net.failed_calls", count("net.failed_calls"), "count"),
        metric(
            "server.stat_ops_per_sample",
            phase.per_sample("server.stats_ops"),
            "ops/sample",
        ),
        metric(
            "server.closes_per_sample",
            phase.per_sample("server.closes"),
            "ops/sample",
        ),
        metric(
            "server.stripe_contention_ratio",
            stats::ratio(
                count("server.stripe_contention"),
                count("server.stripe_lookups"),
            ),
            "ratio",
        ),
        metric("server.dedup_waits", count("server.dedup_waits"), "count"),
        metric(
            "server.eviction_races",
            count("server.eviction_races"),
            "count",
        ),
        metric(
            "server.pfs_bypass_reads",
            count("server.pfs_bypass_reads"),
            "count",
        ),
        metric(
            "cache.hit_ratio",
            stats::ratio(count("server.cache_hits"), count("server.reads")),
            "ratio",
        ),
        metric(
            "cache.evictions_per_sample",
            phase.per_sample("server.evictions"),
            "evictions/sample",
        ),
        metric(
            "cache.pfs_copies_per_sample",
            phase.per_sample("server.pfs_copies"),
            "copies/sample",
        ),
        metric(
            "placement.node_bytes_imbalance",
            stats::imbalance(&phase.node_bytes),
            "ratio",
        ),
        metric(
            "placement.server_reads_imbalance",
            stats::imbalance(&phase.server_reads),
            "ratio",
        ),
        metric("pfs.open_meta.count", count("pfs.opens"), "count"),
        metric("pfs.read.count", count("pfs.reads"), "count"),
        metric("pfs.busy_s", pfs_busy_s, "s"),
        metric(
            "pfs.mean_inflight",
            stats::ratio(pfs_busy_s, phase.wall_s),
            "ops",
        ),
        metric(
            "pfs.max_inflight",
            stats::max_concurrency(&pfs_intervals) as f64,
            "ops",
        ),
        metric("pfs.read_us_p50", p50_us(&pfs_read_ns), "us"),
        metric(
            "pfs.ops_per_sample",
            phase.pfs_ops_per_sample(),
            "ops/sample",
        ),
        metric("pfs.bytes_per_byte", phase.pfs_bytes_per_byte(), "ratio"),
        metric("trace.overhead_samples_per_s", overhead, "samples/s"),
    ]
}
