//! Multi-tenant isolation tier: two training jobs share one allocation and
//! one of them misbehaves.
//!
//! The victim job runs a normal paced epoch while the aggressor job floods
//! the same nodes with an unbounded read loop. With a weighted-fair plan
//! installed, admission control sheds the aggressor's overflow to the PFS
//! degradation ladder while the victim's reads stay byte-exact — including
//! under injected drop/delay faults. A second job also gets its share of
//! nodes the first job filled, under the pinned cache that never replaces
//! a tenant's own entries. Exporting `HVAC_TRANSPORT=tcp|unix` reruns the
//! whole tier over real sockets, like every other tier.

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_core::qos::QosOptions;
use hvac_net::FaultSpec;
use hvac_pfs::MemStore;
use hvac_storage::DeviceModel;
use hvac_types::{ByteSize, EvictionPolicyKind, JobId, JobWeights, RetryPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N_FILES: u64 = 32;
const FILE_SIZE: usize = 4 * 1024;
const RANKS: usize = 8;
const VICTIM: JobId = JobId(7);
const AGGRESSOR: JobId = JobId(13);

/// Victim gets 4× the device weight and half the cache; the aggressor gets
/// weight 1 and a quarter of the cache.
fn plan() -> JobWeights {
    JobWeights::parse("7=4@0.5,13=1@0.25").unwrap()
}

/// Small queue caps so the aggressor's flood actually overflows its queue
/// (cap = `queue_cap × weight`), and a realistic SSD model so device time —
/// the resource QoS arbitrates — is nonzero.
fn tenant_cluster(retry: RetryPolicy) -> (Arc<MemStore>, Cluster) {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let options = ClusterOptions::new(4, 1)
        .dataset_dir("/gpfs/train")
        .clients_per_node(2)
        .cache_capacity(ByteSize(64 * 1024))
        .job_weights(plan())
        .qos(QosOptions {
            max_inflight: 1,
            queue_cap: 1,
            quantum: 64 * 1024,
        })
        .device_model(DeviceModel::sata_ssd())
        .retry_policy(retry);
    let cluster = Cluster::new(pfs.clone(), options).unwrap();
    (pfs, cluster)
}

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

/// Spawn `RANKS` aggressor threads, each hammering its own tenant client
/// with an unbounded read loop until `stop` flips. Reads may be shed to the
/// degradation ladder but must still return correct bytes.
fn flood(cluster: &Cluster, stop: &Arc<AtomicBool>) -> Vec<std::thread::JoinHandle<()>> {
    (0..RANKS)
        .map(|rank| {
            let client = cluster.client_for_job(AGGRESSOR).unwrap();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = rank as u64;
                while !stop.load(Ordering::Relaxed) {
                    let idx = i % N_FILES;
                    let data = client.read_file(&sample(idx)).unwrap();
                    assert_eq!(
                        data,
                        MemStore::sample_content(idx, FILE_SIZE),
                        "aggressor read of file {idx} corrupted"
                    );
                    i += 3; // stride so ranks do not lock-step
                }
            })
        })
        .collect()
}

/// Run one victim epoch across `RANKS` parallel ranks, byte-checking every
/// file, and return when all ranks finish.
fn victim_epoch(cluster: &Cluster) {
    let mut joins = Vec::new();
    for rank in 0..RANKS {
        let client = cluster.client_for_job(VICTIM).unwrap();
        joins.push(std::thread::spawn(move || {
            for i in 0..N_FILES {
                let idx = (i + rank as u64 * 5) % N_FILES; // cheap shuffle
                let data = client.read_file(&sample(idx)).unwrap();
                assert_eq!(
                    data,
                    MemStore::sample_content(idx, FILE_SIZE),
                    "victim rank {rank} read of file {idx} corrupted"
                );
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

fn tenant_row(cluster: &Cluster, job: JobId) -> hvac_core::metrics::TenantServerSnapshot {
    cluster
        .tenant_metrics()
        .into_iter()
        .find(|r| r.job == job.0)
        .unwrap_or_else(|| panic!("no tenant row for job {}", job.0))
}

/// The core QoS story: a flooding tenant gets shed, the victim's epoch is
/// byte-exact, and both tenants' reads are accounted to the right job.
#[test]
fn misbehaving_tenant_is_shed_while_victim_stays_byte_exact() {
    let (_pfs, cluster) = tenant_cluster(RetryPolicy::default());
    let stop = Arc::new(AtomicBool::new(false));
    let aggressors = flood(&cluster, &stop);

    // Two epochs so the second one runs against a fully warmed flood.
    victim_epoch(&cluster);
    victim_epoch(&cluster);

    stop.store(true, Ordering::Relaxed);
    for j in aggressors {
        j.join().unwrap();
    }

    let victim = tenant_row(&cluster, VICTIM);
    let aggressor = tenant_row(&cluster, AGGRESSOR);
    assert!(victim.reads > 0, "victim reads accounted: {victim:?}");
    assert!(victim.admitted > 0, "victim admitted: {victim:?}");
    assert!(victim.served_bytes > 0, "victim bytes: {victim:?}");
    assert!(
        aggressor.shed > 0,
        "the flood must overflow the aggressor's queue cap: {aggressor:?}"
    );
    assert!(aggressor.reads > 0, "aggressor still served: {aggressor:?}");
    // Tenant counters are disjoint: job 0 (the built-in legacy ranks) did
    // not read anything in this test.
    assert_eq!(
        cluster
            .tenant_metrics()
            .into_iter()
            .find(|r| r.job == 0)
            .map_or(0, |r| r.reads),
        0,
        "no reads may leak into the default namespace"
    );
}

/// The same contended two-tenant run with drop and delay faults on every
/// server: the victim epoch still completes byte-exact (drops retry or fail
/// over, delays are absorbed by deadlines) on whichever transport
/// `HVAC_TRANSPORT` selects.
#[test]
fn victim_stays_byte_exact_under_drop_and_delay_faults() {
    // Tight deadlines so injected drops cost milliseconds, not the
    // default multi-second RPC budget.
    let retry = RetryPolicy {
        rpc_timeout: Duration::from_millis(80),
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 4,
        breaker_cooldown: Duration::from_millis(200),
        jitter_seed: 0x007E_4A17,
        ..RetryPolicy::default()
    };
    let (_pfs, cluster) = tenant_cluster(retry);
    for (i, addr) in cluster.fabric().endpoint_names().iter().enumerate() {
        cluster.fabric().fault_injector().set(
            addr,
            FaultSpec {
                drop_prob: 0.05,
                delay_prob: 0.2,
                delay: Duration::from_millis(2),
                seed: 0x000F_A017 + i as u64,
                ..FaultSpec::default()
            },
        );
    }

    let stop = Arc::new(AtomicBool::new(false));
    let aggressors = flood(&cluster, &stop);
    victim_epoch(&cluster);
    stop.store(true, Ordering::Relaxed);
    for j in aggressors {
        j.join().unwrap();
    }

    let victim = tenant_row(&cluster, VICTIM);
    assert!(victim.reads > 0 && victim.served_bytes > 0, "{victim:?}");
    assert!(
        cluster.fabric().fault_injector().injected() > 0,
        "the fault plan must actually have fired"
    );
}

/// Backward compatibility inside the tier: with a tenant plan installed,
/// the built-in job-0 ranks (the legacy namespace) still run a byte-exact
/// epoch and their traffic lands on the job-0 row.
#[test]
fn default_namespace_epoch_is_unaffected_by_the_plan() {
    let (_pfs, cluster) = tenant_cluster(RetryPolicy::default());
    for i in 0..N_FILES {
        let data = cluster
            .client((i % RANKS as u64) as usize)
            .read_file(&sample(i))
            .unwrap();
        assert_eq!(data, MemStore::sample_content(i, FILE_SIZE));
    }
    let legacy = tenant_row(&cluster, JobId::DEFAULT);
    assert_eq!(legacy.reads, N_FILES, "every legacy read accounted");
    assert_eq!(legacy.shed, 0, "an uncontended epoch is never shed");
    // Per-tenant cache quotas: the plan carves 50 % + 25 %; job 0 is
    // unlimited, so the epoch caches normally and mostly hits on re-read.
    for i in 0..N_FILES {
        let data = cluster
            .client((i % RANKS as u64) as usize)
            .read_file(&sample(i))
            .unwrap();
        assert_eq!(data, MemStore::sample_content(i, FILE_SIZE));
    }
    let agg = cluster.aggregate_metrics();
    assert!(agg.cache_hits > 0, "warm re-read should hit: {agg:?}");
}

/// DESIGN §14's cross-tenant reclaim under the pinned (MinIO) cache: job A's
/// epoch fills every node, then job B — unquota'd like A — reclaims A's
/// newest entries until their shares meet, instead of being refused on
/// every node A filled. B's second epoch hits what B holds, and once the
/// shares meet nobody replaces anything.
#[test]
fn second_job_gets_its_share_of_nodes_the_first_job_filled() {
    const JOB_A: JobId = JobId(21);
    const JOB_B: JobId = JobId(22);
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    // Each node holds 4 files, about half of one job's slice of the dataset.
    let capacity = 4 * FILE_SIZE as u64;
    let cluster = Cluster::new(
        pfs,
        ClusterOptions::new(4, 1)
            .dataset_dir("/gpfs/train")
            .cache_capacity(ByteSize(capacity))
            .eviction(EvictionPolicyKind::MinIo),
    )
    .unwrap();
    let epoch = |job: JobId| {
        let client = cluster.client_for_job(job).unwrap();
        for i in 0..N_FILES {
            let data = client.read_file(&sample(i)).unwrap();
            assert_eq!(
                data,
                MemStore::sample_content(i, FILE_SIZE),
                "job {} read of file {i} corrupted",
                job.0
            );
        }
    };
    // (resident entries, bytes, hits) of `job`, summed over the nodes.
    let usage = |job: JobId| {
        (0..cluster.n_servers())
            .flat_map(|s| cluster.server(s).cache().store().tenant_usage())
            .filter(|u| u.job == job)
            .fold((0, 0, 0), |(n, b, h), u| {
                (n + u.resident, b + u.used.bytes(), h + u.hits)
            })
    };

    epoch(JOB_A);
    assert!(
        cluster.per_node_bytes().iter().all(|&b| b == capacity),
        "job A must fill every node: {:?}",
        cluster.per_node_bytes()
    );
    epoch(JOB_B);
    for s in 0..cluster.n_servers() {
        let store = cluster.server(s).cache().store();
        let (a, b) = (store.tenant_used(JOB_A), store.tenant_used(JOB_B));
        assert!(b.bytes() > 0, "node {s}: job B starved");
        assert!(
            a.bytes().abs_diff(b.bytes()) <= FILE_SIZE as u64,
            "node {s}: shares must meet within one entry: A {a:?}, B {b:?}"
        );
        assert_eq!(store.used().bytes(), capacity, "node {s} stays full");
    }
    let (resident, bytes, hits) = usage(JOB_B);
    assert_eq!(hits, 0, "one pass reads each file once");
    let evictions = cluster.aggregate_metrics().evictions;
    assert_eq!(evictions, resident, "each B entry reclaimed one A entry");

    epoch(JOB_B);
    assert_eq!(
        usage(JOB_B),
        (resident, bytes, resident),
        "B's second epoch hits every entry B holds, and keeps them"
    );
    assert_eq!(cluster.aggregate_metrics().evictions, evictions);
}
