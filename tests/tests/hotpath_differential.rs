//! Differential hot-path tier: the client's one read path (plan → submit
//! on the client's dispatch pool, with the per-RPC ladder as fallback) must
//! return the synthesized ground truth for **every read shape** —
//! whole-file, multi-chunk bulk, segmented, coalesced, batched — on every
//! transport, clean and under drop/delay/crash faults.
//!
//! Each file is read through both arms of that path: a whole-file read
//! (one RPC, or a plan of chunk RPCs when the file exceeds `bulk_chunk`)
//! and a segmented read (a plan of per-destination batch RPCs). Both arms
//! are checked against the ground truth, so they also agree with each
//! other.

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_net::FaultSpec;
use hvac_pfs::MemStore;
use hvac_types::{RetryPolicy, TransportKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SEG: u64 = 16 * 1024;

/// File sizes chosen to hit every tiling case: sub-segment, exact
/// segment multiple, straddling remainders, and multi-batch spans.
const SIZES: [usize; 6] = [
    1,
    100,
    SEG as usize,
    3 * SEG as usize + 17,
    96 * 1024,
    256 * 1024 + 12_345,
];

const TRANSPORTS: [TransportKind; 3] = [
    TransportKind::Loopback,
    TransportKind::Tcp,
    TransportKind::Unix,
];

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

fn dataset() -> Arc<MemStore> {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), SIZES.len() as u64, |i| {
        SIZES[i as usize]
    });
    pfs
}

fn build(
    transport: TransportKind,
    tweak: impl FnOnce(ClusterOptions) -> ClusterOptions,
) -> (Arc<MemStore>, Cluster) {
    let pfs = dataset();
    let options = tweak(
        ClusterOptions::new(4, 1)
            .dataset_dir("/gpfs/train")
            .transport(transport),
    );
    let cluster = Cluster::new(pfs.clone(), options).unwrap();
    (pfs, cluster)
}

/// Read every file through both arms — whole-file and segmented — on
/// `cluster`, checking each against the synthesized ground truth.
fn read_all(cluster: &Cluster, rank: usize, tag: &str) {
    let client = cluster.client(rank);
    for (i, &size) in SIZES.iter().enumerate() {
        let p = sample(i as u64);
        let whole = client
            .read_file(&p)
            .unwrap_or_else(|e| panic!("{tag}: whole-file read of {} failed: {e}", p.display()));
        let segmented = client
            .read_file_segmented(&p, SEG)
            .unwrap_or_else(|e| panic!("{tag}: segmented read of {} failed: {e}", p.display()));
        let expected = MemStore::sample_content(i as u64, size);
        assert_eq!(whole, expected, "{tag}: whole-file bytes of file {i}");
        assert_eq!(segmented, expected, "{tag}: segmented bytes of file {i}");
    }
}

/// Clean sweep: whole-file + multi-chunk bulk (8 KiB chunks) + segmented
/// (coalesced and batched) on every transport.
#[test]
fn all_read_shapes_agree_across_arms_and_transports() {
    for transport in TRANSPORTS {
        // Small bulk chunks turn whole-file reads of the larger files into
        // chunk plans; segmented reads batch per destination.
        let (_pfs, cluster) = build(transport, |o| o.bulk_chunk(8 * 1024));
        read_all(&cluster, 0, &format!("{transport:?}/clean"));
        let s = cluster.client(0).metrics().full_snapshot();
        assert!(
            s.batch_rpcs >= 1,
            "{transport:?}: segmented reads never batched"
        );
        assert_eq!(
            s.batch_fallbacks, 0,
            "{transport:?}: a healthy cluster never falls back"
        );
    }
}

/// A single-node allocation homes every segment on the same server, so the
/// planner's adjacent-range coalescing collapses a whole file into one
/// request — the pure-coalescing shape.
#[test]
fn coalesced_single_destination_reads_are_exact() {
    for transport in TRANSPORTS {
        let cluster = Cluster::new(
            dataset(),
            ClusterOptions::new(1, 1)
                .dataset_dir("/gpfs/train")
                .transport(transport),
        )
        .unwrap();
        read_all(&cluster, 0, &format!("{transport:?}/coalesced"));
    }
}

/// Coalescing disabled and a tiny `batch_max` force many small batches per
/// destination — the pure-batching shape.
#[test]
fn batched_reads_with_coalescing_disabled_are_exact() {
    for transport in TRANSPORTS {
        let (_pfs, cluster) = build(transport, |o| o.coalesce_batch(0, 2));
        read_all(&cluster, 1, &format!("{transport:?}/batched"));
    }
}

/// Small deadlines so injected drops cost milliseconds, enough attempts
/// that a few-percent drop rate cannot exhaust a replica ladder.
fn fault_retry() -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: Duration::from_millis(50),
        max_attempts: 4,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 16,
        breaker_cooldown: Duration::from_millis(100),
        jitter_seed: 0x4845_5854, // "HXT"
        ..RetryPolicy::default()
    }
}

fn arm_drop_delay(cluster: &Cluster) {
    for (i, addr) in cluster.fabric().endpoint_names().into_iter().enumerate() {
        cluster.fabric().fault_injector().set(
            &addr,
            FaultSpec {
                delay_prob: 0.25,
                delay: Duration::from_millis(1),
                drop_prob: 0.03,
                seed: 0xD1FF ^ ((i as u64) << 8),
                ..FaultSpec::default()
            },
        );
    }
}

/// Drop + delay faults on every endpoint: chunk and batch RPCs fail
/// probabilistically and must fall back to the per-RPC ladder without ever
/// returning wrong bytes. 8 KiB bulk chunks make the larger whole-file
/// reads multi-chunk plans, so their fallback runs under faults too.
#[test]
fn drop_and_delay_faults_stay_byte_exact_on_both_arms() {
    for transport in TRANSPORTS {
        let (_pfs, cluster) = build(transport, |o| {
            o.replication(2)
                .retry_policy(fault_retry())
                .bulk_chunk(8 * 1024)
        });
        // Warm pass (clean) so the dataset is cached, then arm faults.
        read_all(&cluster, 0, &format!("{transport:?}/warm"));
        arm_drop_delay(&cluster);
        for pass in 0..3 {
            read_all(
                &cluster,
                pass % 2,
                &format!("{transport:?}/faulted/pass{pass}"),
            );
        }
        assert!(
            cluster.fabric().fault_injector().injected() > 0,
            "{transport:?}: the fault plan never fired"
        );
    }
}

/// Crash-stop a node mid-workload: with k=2 replication the surviving
/// replica (or the PFS rung) must keep every shape byte-exact. Every plan
/// entry homed on the crashed node fails fast, so each crashed pass must
/// fall back to the ladder at least once.
#[test]
fn crash_faults_stay_byte_exact_on_both_arms() {
    for transport in TRANSPORTS {
        let (_pfs, cluster) = build(transport, |o| {
            o.replication(2)
                .retry_policy(fault_retry())
                .repair(false)
                .bulk_chunk(8 * 1024)
        });
        read_all(&cluster, 0, &format!("{transport:?}/pre-crash"));
        cluster.crash_node(1).unwrap();
        for pass in 0..2 {
            let client = cluster.client(pass);
            let before = client.metrics().full_snapshot().batch_fallbacks;
            read_all(&cluster, pass, &format!("{transport:?}/crashed/pass{pass}"));
            let fallbacks = client.metrics().full_snapshot().batch_fallbacks - before;
            assert!(
                fallbacks > 0,
                "{transport:?}: crashed pass {pass} never fell back to the ladder"
            );
        }
        cluster.restart_node(1).unwrap();
        read_all(&cluster, 1, &format!("{transport:?}/post-restart"));
    }
}
