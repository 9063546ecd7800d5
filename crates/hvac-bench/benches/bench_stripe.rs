//! Stripe scaling micro-benchmark: 1-shard vs N-shard `LocalStore` reads.
//!
//! Measures aggregate read throughput of 1..16 reader threads against two
//! otherwise-identical stores — one with a single lock stripe (the old
//! global-mutex design) and one with the machine's default shard count —
//! each armed with the same [`DeviceModel`] so every read *holds its
//! shard's device queue* for a fixed modeled service time. That queue is
//! what makes the experiment meaningful on any host, including a 1-core CI
//! box: service times serialize within a shard and overlap across shards,
//! so the measured speedup is the lock-striping win itself, not a
//! scheduler artifact.
//!
//! Run with `cargo bench -p hvac-bench --bench bench_stripe`; emits
//! `results/BENCH_stripe.json` at the repo root.

use bytes::Bytes;
use hvac_storage::{DeviceModel, LocalStore};
use hvac_types::{Bandwidth, ByteSize, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_FILES: u64 = 64;
const FILE_SIZE: usize = 4096;
const READS_PER_THREAD: usize = 24;
const OP_LATENCY_US: u64 = 500;
const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const TIMED_ITERS: usize = 3;

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/bench/sample_{i:08}.bin"))
}

/// A device whose service time is a flat `OP_LATENCY_US` per read: the
/// bandwidth term is made negligible so the queue, not the payload, is the
/// measured quantity.
fn bench_device() -> DeviceModel {
    DeviceModel {
        op_latency: SimTime::from_micros(OP_LATENCY_US),
        read_bandwidth: Bandwidth::mib_per_sec(1e9),
        max_iops: u64::MAX,
    }
}

fn preloaded_store(shards: usize) -> Arc<LocalStore> {
    let mut store =
        LocalStore::in_memory_striped(ByteSize((N_FILES + 1) * FILE_SIZE as u64), shards);
    store.set_device_model(bench_device());
    for i in 0..N_FILES {
        store
            .insert(&sample(i), Bytes::from(vec![i as u8; FILE_SIZE]))
            .expect("preload fits by construction");
    }
    Arc::new(store)
}

/// One timed run: `threads` readers each issue `READS_PER_THREAD` seeded-
/// shuffled reads; returns the wall time of the slowest reader cohort.
fn run_once(store: &Arc<LocalStore>, threads: usize, seed: u64) -> Duration {
    let start = Instant::now();
    let mut joins = Vec::with_capacity(threads);
    for t in 0..threads {
        let store = store.clone();
        joins.push(std::thread::spawn(move || {
            let mut order: Vec<u64> = (0..N_FILES).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64) << 20));
            order.shuffle(&mut rng);
            let mut bytes = 0usize;
            for &i in order.iter().take(READS_PER_THREAD) {
                bytes += store.get(&sample(i)).expect("preloaded").len();
            }
            assert_eq!(bytes, READS_PER_THREAD * FILE_SIZE);
        }));
    }
    for j in joins {
        j.join().expect("reader thread panicked");
    }
    start.elapsed()
}

/// Median-of-N wall time for one (store, threads) configuration.
fn measure(store: &Arc<LocalStore>, threads: usize) -> Duration {
    // Warm-up pass (first-touch allocation, thread spawn paths).
    run_once(store, threads, 0xAAAA);
    let mut times: Vec<Duration> = (0..TIMED_ITERS)
        .map(|iter| run_once(store, threads, 0x5EED + iter as u64))
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn mibps(threads: usize, elapsed: Duration) -> f64 {
    let bytes = (threads * READS_PER_THREAD * FILE_SIZE) as f64;
    bytes / (1024.0 * 1024.0) / elapsed.as_secs_f64()
}

fn main() {
    let single = preloaded_store(1);
    let striped = preloaded_store(hvac_storage::default_shard_count());
    println!(
        "stripe bench: {} files x {} B, {} reads/thread, {} us/read device; shards 1 vs {}",
        N_FILES,
        FILE_SIZE,
        READS_PER_THREAD,
        OP_LATENCY_US,
        striped.shard_count()
    );

    let mut rows = Vec::new();
    let mut speedup_at_8 = 0.0f64;
    for &threads in &THREAD_COUNTS {
        let t_single = measure(&single, threads);
        let t_striped = measure(&striped, threads);
        let (s_mibps, n_mibps) = (mibps(threads, t_single), mibps(threads, t_striped));
        let speedup = n_mibps / s_mibps;
        if threads == 8 {
            speedup_at_8 = speedup;
        }
        println!(
            "  threads={threads:>2}  1-shard {s_mibps:>8.2} MiB/s  {n}-shard {n_mibps:>8.2} MiB/s  speedup {speedup:>5.2}x",
            n = striped.shard_count()
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"single_shard_mib_per_s\": {s_mibps:.3}, \
             \"striped_mib_per_s\": {n_mibps:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"stripe\",\n  \"files\": {N_FILES},\n  \"file_size_bytes\": {FILE_SIZE},\n  \
         \"reads_per_thread\": {READS_PER_THREAD},\n  \"device_op_latency_us\": {OP_LATENCY_US},\n  \
         \"single_shards\": 1,\n  \"striped_shards\": {},\n  \"results\": [\n{}\n  ],\n  \
         \"speedup_at_8_threads\": {speedup_at_8:.3}\n}}\n",
        striped.shard_count(),
        rows.join(",\n"),
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_stripe.json");
    std::fs::write(&out, json).expect("write results/BENCH_stripe.json");
    println!("wrote {}", out.display());
    assert!(
        speedup_at_8 >= 2.0,
        "striping must buy >= 2x aggregate read throughput at 8 threads, got {speedup_at_8:.2}x"
    );
}
