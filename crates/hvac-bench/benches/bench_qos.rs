//! Tenant-QoS payoff benchmark: tail latency of a well-behaved job while a
//! misbehaving neighbour floods the same nodes with an unbounded read loop.
//!
//! Three arms on identical clusters with device service-time emulation
//! armed (an op-latency-dominated SSD, so device slots are the scarce
//! resource the scheduler arbitrates):
//!
//! * **solo** — the victim runs its epoch alone (QoS plan installed, no
//!   contention): the baseline tail.
//! * **qos_off** — an aggressor floods while the victim runs, with an empty
//!   weights plan: no quotas, no admission control, no fair scheduling.
//! * **qos_on** — the same flood with the weighted-fair plan installed: the
//!   aggressor's overflow is shed to the PFS ladder and the victim's reads
//!   are scheduled at 16x weight.
//!
//! The gate is the paper-level claim for multi-tenancy: with QoS on the
//! victim's p99 stays within 2x of its solo baseline, and is at least 3x
//! better than the unprotected (QoS off) tail.
//!
//! Run with `cargo bench -p hvac-bench --bench bench_qos`; emits
//! `results/BENCH_qos.json` at the repo root.

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_core::qos::QosOptions;
use hvac_pfs::MemStore;
use hvac_storage::DeviceModel;
use hvac_types::{Bandwidth, ByteSize, JobId, JobWeights, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NODES: u32 = 4;
const N_FILES: u64 = 64;
const FILE_SIZE: usize = 4096;
/// Aggressor rank count: enough concurrent floods that every node's
/// admission gate and device queue see real backlog.
const AGGRESSOR_THREADS: usize = 14;
/// Per-iteration pacing of each aggressor rank, modeling the loader's
/// nonzero per-sample compute. Without it the flood degenerates into a CPU
/// spin on small hosts and the measurement becomes OS-scheduler noise
/// instead of device contention.
const AGGRESSOR_PACE: std::time::Duration = std::time::Duration::from_micros(200);
/// The aggressor hammers a small hot set so its reads stay cached (and thus
/// burn device time) in every arm.
const AGG_FILES: u64 = 8;
const MEASURED_PASSES: usize = 5;
const VICTIM: JobId = JobId(7);
const AGGRESSOR: JobId = JobId(13);

/// An op-latency-dominated device: every cached read charges ~200 us of
/// device-queue time regardless of size, which is the contention QoS must
/// arbitrate.
fn device() -> DeviceModel {
    DeviceModel {
        op_latency: SimTime::from_micros(1000),
        read_bandwidth: Bandwidth::mib_per_sec(4096.0),
        max_iops: 500_000,
    }
}

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/bench/sample_{i:08}.bin"))
}

fn build_cluster(qos_on: bool) -> Cluster {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/bench"), N_FILES, |_| FILE_SIZE);
    let weights = if qos_on {
        JobWeights::parse("7=16@0.5,13=1@0.4").unwrap()
    } else {
        JobWeights::default()
    };
    let options = ClusterOptions::new(NODES, 1)
        .dataset_dir("/gpfs/bench")
        .cache_capacity(ByteSize(256 * 1024))
        .job_weights(weights)
        .qos(QosOptions {
            max_inflight: 1,
            queue_cap: 1,
            // An eighth of a file per cursor visit: the weight-1 aggressor
            // must accumulate deficit over 8 rounds per read while the
            // weight-16 victim's replenishment covers a whole file every
            // round. A large quantum would instead let the aggressor's
            // continuously-refilling queue drain dozens of reads
            // back-to-back.
            quantum: FILE_SIZE as u64 / 8,
        })
        .device_model(device());
    Cluster::new(pfs, options).expect("cluster options are valid")
}

/// Run the victim epoch: a warm-up pass, then `MEASURED_PASSES` measured
/// passes. Returns the p99 per-read latency in microseconds.
fn victim_p99_us(cluster: &Cluster) -> f64 {
    let client = cluster.client_for_job(VICTIM).expect("victim client");
    for i in 0..N_FILES {
        client.read_file(&sample(i)).expect("warm-up read");
    }
    let mut lat_us: Vec<u64> = Vec::with_capacity(N_FILES as usize * MEASURED_PASSES);
    for pass in 0..MEASURED_PASSES {
        for i in 0..N_FILES {
            let idx = (i + pass as u64 * 11) % N_FILES;
            let t0 = Instant::now();
            let data = client.read_file(&sample(idx)).expect("victim read");
            lat_us.push(t0.elapsed().as_micros() as u64);
            assert_eq!(data.len(), FILE_SIZE, "victim bytes must stay exact");
        }
    }
    lat_us.sort_unstable();
    lat_us[((lat_us.len() - 1) * 99) / 100] as f64
}

/// Start the unbounded aggressor flood; returns the stop flag and joins.
fn start_flood(cluster: &Cluster) -> (Arc<AtomicBool>, Vec<std::thread::JoinHandle<u64>>) {
    let stop = Arc::new(AtomicBool::new(false));
    let joins = (0..AGGRESSOR_THREADS)
        .map(|rank| {
            let client = cluster.client_for_job(AGGRESSOR).expect("aggressor client");
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = rank as u64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let idx = i % AGG_FILES;
                    let data = client.read_file(&sample(idx)).expect("flood read");
                    assert_eq!(data.len(), FILE_SIZE);
                    i += 3;
                    reads += 1;
                    std::thread::sleep(AGGRESSOR_PACE);
                }
                reads
            })
        })
        .collect();
    (stop, joins)
}

/// One contended arm: flood + victim epoch on a fresh cluster. Returns the
/// victim p99 and (aggressor reads, aggressor sheds) for context.
fn contended_arm(qos_on: bool) -> (f64, u64, u64) {
    let cluster = build_cluster(qos_on);
    let (stop, joins) = start_flood(&cluster);
    let p99 = victim_p99_us(&cluster);
    stop.store(true, Ordering::Relaxed);
    let flood_reads: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    let shed = cluster
        .tenant_metrics()
        .into_iter()
        .find(|r| r.job == AGGRESSOR.0)
        .map_or(0, |r| r.shed);
    (p99, flood_reads, shed)
}

fn main() {
    println!(
        "qos bench: {N_FILES} files x {FILE_SIZE} B on {NODES} nodes, \
         {AGGRESSOR_THREADS} aggressor ranks hammering {AGG_FILES} hot files \
         (200 us/op device model)"
    );

    let solo = victim_p99_us(&build_cluster(true));
    println!("  solo     p99 {solo:>8.0} us");
    let (off_p99, off_reads, off_shed) = contended_arm(false);
    println!("  qos_off  p99 {off_p99:>8.0} us  (flood {off_reads} reads, {off_shed} shed)");
    let (on_p99, on_reads, on_shed) = contended_arm(true);
    println!("  qos_on   p99 {on_p99:>8.0} us  (flood {on_reads} reads, {on_shed} shed)");

    let vs_solo = on_p99 / solo;
    let off_vs_on = off_p99 / on_p99;
    println!(
        "  qos_on/solo = {vs_solo:.2}x (gate <= 2), qos_off/qos_on = {off_vs_on:.2}x (gate >= 3)"
    );

    let json = format!(
        "{{\n  \"bench\": \"qos\",\n  \"files\": {N_FILES},\n  \
         \"file_size_bytes\": {FILE_SIZE},\n  \"nodes\": {NODES},\n  \
         \"aggressor_threads\": {AGGRESSOR_THREADS},\n  \
         \"solo_p99_us\": {solo:.1},\n  \"qos_off_p99_us\": {off_p99:.1},\n  \
         \"qos_on_p99_us\": {on_p99:.1},\n  \
         \"qos_on_vs_solo\": {vs_solo:.3},\n  \
         \"qos_off_vs_qos_on\": {off_vs_on:.3},\n  \
         \"aggressor_shed_qos_on\": {on_shed},\n  \
         \"aggressor_shed_qos_off\": {off_shed},\n  \
         \"gate_vs_solo_max\": 2.0,\n  \"gate_off_vs_on_min\": 3.0\n}}\n"
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_qos.json");
    std::fs::write(&out, json).expect("write results/BENCH_qos.json");
    println!("wrote {}", out.display());

    assert!(
        on_shed > 0,
        "with QoS on the flood must overflow the aggressor's queue cap"
    );
    assert!(
        vs_solo <= 2.0,
        "QoS must protect the victim's tail: contended p99 {on_p99:.0} us \
         is {vs_solo:.2}x its solo baseline {solo:.0} us (gate <= 2x)"
    );
    assert!(
        off_vs_on >= 3.0,
        "QoS must beat the unprotected tail by >= 3x: off {off_p99:.0} us \
         vs on {on_p99:.0} us is only {off_vs_on:.2}x"
    );
}
