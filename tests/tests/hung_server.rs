//! Hung-server resilience (paper §III-H, the failure-semantics extension).
//!
//! A *hung* server is worse than a dead one: the fabric accepts the request
//! and simply never answers, so only a per-call deadline can unblock the
//! client. These tests inject hangs with the seeded [`FaultInjector`] and
//! verify the full degradation ladder — typed timeout → same-replica retry
//! → replica failover → circuit breaker → direct-PFS degradation — keeps an
//! epoch byte-correct and promptly served, never wedged.

use hvac_core::client::server_addr;
use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_net::FaultSpec;
use hvac_pfs::MemStore;
use hvac_types::RetryPolicy;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_FILES: u64 = 20;
const FILE_SIZE: usize = 256;

/// Tight budgets so a whole epoch against hung servers stays in test time:
/// 40 ms deadline, 2 attempts, 1 ms backoff, breaker after 2 failures.
fn tight_retry() -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: Duration::from_millis(40),
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(10),
        jitter_seed: 0xDEAD_BEEF,
        ..RetryPolicy::default()
    }
}

fn cluster(nodes: u32, replication: u32) -> (Arc<MemStore>, Cluster) {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(nodes, 1)
            .dataset_dir("/gpfs/train")
            .replication(replication)
            .retry_policy(tight_retry()),
    )
    .unwrap();
    (pfs, cluster)
}

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

/// One replica hung (k=2): the epoch completes byte-correct via failover,
/// the timeout is typed and counted, and no read ever approaches the
/// 30-second RPC stall the paper's Mercury deployment suffered.
#[test]
fn hung_replica_epoch_completes_via_failover() {
    let (_pfs, cluster) = cluster(3, 2);
    cluster
        .fabric()
        .fault_injector()
        .set(&server_addr(0, 1), FaultSpec::always_hang(42));

    let client = cluster.client(1);
    let mut max_read = Duration::ZERO;
    for i in 0..N_FILES {
        let start = Instant::now();
        let data = client.read_file(&sample(i)).unwrap();
        max_read = max_read.max(start.elapsed());
        assert_eq!(
            data,
            MemStore::sample_content(i, FILE_SIZE),
            "file {i} corrupted under failover"
        );
    }

    let s = client.metrics().full_snapshot();
    assert!(s.timeouts > 0, "hangs surface as typed timeouts: {s:?}");
    assert!(s.failovers > 0, "hung home must fail over: {s:?}");
    assert_eq!(s.degraded_reads, 0, "replicas suffice, no PFS degradation");
    assert!(
        max_read < Duration::from_secs(5),
        "a read stalled {max_read:?}; one hung replica may cost retries \
         plus one failover, never a 30 s wedge"
    );
}

/// Everything hung (k=1): the client trips its breakers and completes the
/// epoch byte-correct straight from the PFS — HVAC degrades, it never
/// fails the application.
#[test]
fn all_servers_hung_epoch_degrades_to_pfs() {
    let (_pfs, cluster) = cluster(2, 1);
    for addr in cluster.fabric().endpoint_names() {
        cluster
            .fabric()
            .fault_injector()
            .set(&addr, FaultSpec::always_hang(7));
    }

    let client = cluster.client(0);
    let start = Instant::now();
    for i in 0..N_FILES {
        let data = client.read_file(&sample(i)).unwrap();
        assert_eq!(
            data,
            MemStore::sample_content(i, FILE_SIZE),
            "degraded read of file {i} corrupted"
        );
    }

    let s = client.metrics().full_snapshot();
    assert!(s.degraded_reads > 0, "PFS degradation engaged: {s:?}");
    assert!(s.timeouts > 0, "hangs were detected by deadline: {s:?}");
    assert!(s.breaker_trips > 0, "breakers tripped on the wedge: {s:?}");
    assert!(
        s.breaker_skips > 0,
        "later reads skipped the wedged servers: {s:?}"
    );
    // Once the breakers are open the epoch runs at PFS speed: the total
    // cost is a handful of initial deadlines, nowhere near one per read.
    let budget = tight_retry().rpc_timeout * 4 * 8;
    assert!(
        start.elapsed() < budget.max(Duration::from_secs(10)),
        "epoch took {:?}; breakers failed to bound the deadline cost",
        start.elapsed()
    );
}

/// The same seeded fault plan and jitter seed produce the same counter
/// values run-to-run — failures are reproducible, which is what makes them
/// debuggable.
#[test]
fn seeded_faults_are_deterministic() {
    let run = || {
        let (_pfs, cluster) = cluster(2, 2);
        cluster
            .fabric()
            .fault_injector()
            .set(&server_addr(1, 1), FaultSpec::always_hang(99));
        let client = cluster.client(0);
        for i in 0..N_FILES {
            client.read_file(&sample(i)).unwrap();
        }
        let s = client.metrics().full_snapshot();
        (
            s.reads,
            s.bytes,
            s.timeouts,
            s.retries,
            s.failovers,
            s.breaker_trips,
            s.breaker_skips,
            s.degraded_reads,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fixed seeds must reproduce the same epoch");
    assert!(first.2 > 0, "the hung replica was actually exercised");
}

/// Drop faults (request lost before the server ever sees it) behave like
/// hangs from the client's perspective: deadline, retry, failover.
#[test]
fn dropped_requests_fail_over_like_hangs() {
    let (_pfs, cluster) = cluster(2, 2);
    cluster
        .fabric()
        .fault_injector()
        .set(&server_addr(0, 1), FaultSpec::always_drop(5));

    let client = cluster.client(0);
    for i in 0..N_FILES {
        let data = client.read_file(&sample(i)).unwrap();
        assert_eq!(data, MemStore::sample_content(i, FILE_SIZE));
    }
    let s = client.metrics().full_snapshot();
    assert!(s.timeouts > 0, "drops surface as deadline misses: {s:?}");
    assert_eq!(s.degraded_reads, 0, "the healthy replica carries the load");
}

/// Files of the plan tests: long enough that a read is a plan of 8 chunks
/// or 8 segments.
const PLAN_FILES: u64 = 12;
const PLAN_FILE_SIZE: usize = 64 * 1024;
const PIECE: usize = 8 * 1024;

/// A 100 ms deadline, `attempts` per replica, and a breaker that trips
/// after 2 failures and stays open for a minute, so no half-open probe
/// reaches the hung server while a test runs.
fn plan_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: Duration::from_millis(100),
        max_attempts: attempts,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(60),
        jitter_seed: 0xB0A7,
        ..RetryPolicy::default()
    }
}

/// Three nodes with server 0 hung for good; reads are plans of 8-KiB
/// chunks, or of batches of 8-KiB segments.
fn hung_plan_cluster(replication: u32, attempts: u32) -> (Cluster, String) {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), PLAN_FILES, |_| PLAN_FILE_SIZE);
    let cluster = Cluster::new(
        pfs,
        ClusterOptions::new(3, 1)
            .dataset_dir("/gpfs/train")
            .replication(replication)
            .retry_policy(plan_retry(attempts))
            .bulk_chunk(PIECE),
    )
    .unwrap();
    let hung = server_addr(0, 1);
    cluster
        .fabric()
        .fault_injector()
        .set(&hung, FaultSpec::always_hang(21));
    (cluster, hung)
}

fn plan_content(i: u64) -> bytes::Bytes {
    MemStore::sample_content(i, PLAN_FILE_SIZE)
}

/// k=2: once the hung home's breaker has tripped, no plan — segmented or
/// chunked — sends it another call; every entry goes straight to the live
/// replica. Every hang fired is counted as a client timeout.
#[test]
fn plans_skip_a_tripped_home_and_count_every_hang() {
    let (cluster, hung) = hung_plan_cluster(2, 1);
    let injector = cluster.fabric().fault_injector();
    let client = cluster.client(1);
    let mut i = 0;
    while client.metrics().full_snapshot().breaker_trips == 0 {
        assert!(i < PLAN_FILES, "the hung home's breaker never tripped");
        let data = client.read_file_segmented(&sample(i), PIECE as u64);
        assert_eq!(data.unwrap(), plan_content(i), "file {i}");
        i += 1;
    }
    let fired = injector.injected_for(&hung);
    assert!(fired >= 2, "the breaker tripped on hangs: {fired}");
    for i in 0..PLAN_FILES {
        let segmented = client.read_file_segmented(&sample(i), PIECE as u64);
        assert_eq!(segmented.unwrap(), plan_content(i), "segmented file {i}");
        assert_eq!(
            client.read_file(&sample(i)).unwrap(),
            plan_content(i),
            "chunked file {i}"
        );
    }
    assert_eq!(
        injector.injected_for(&hung),
        fired,
        "a plan sent calls to a home whose breaker was open"
    );
    let s = client.metrics().full_snapshot();
    assert_eq!(s.hedges, 0);
    assert_eq!(
        s.timeouts, fired,
        "every hang fired is one client timeout: {s:?}"
    );
    assert_eq!(s.degraded_reads, 0, "the live replica served it all: {s:?}");
}

/// k=1 with the PFS fallback armed: the hung server is every entry's only
/// replica, so the force-probe rule sends it one call per entry planned to
/// it (times `max_attempts`), before and after its breaker trips. A
/// segmented read plans one `Stat` to the file's home, then one batch per
/// home (8 segments never fill a batch).
#[test]
fn a_hung_sole_home_gets_one_probe_per_planned_batch() {
    const ATTEMPTS: u64 = 2;
    let (cluster, hung) = hung_plan_cluster(1, ATTEMPTS as u32);
    let injector = cluster.fabric().fault_injector();
    let client = cluster.client(1);
    let segments = (PLAN_FILE_SIZE / PIECE) as u64;
    let mut probed = 0;
    for i in 0..PLAN_FILES / 2 {
        let p = sample(i);
        let stat = u64::from(client.replica_addrs(&p)[0] == hung);
        let batch =
            u64::from((0..segments).any(|s| client.segment_replica_addrs(&p, s)[0] == hung));
        let before = injector.injected_for(&hung);
        assert_eq!(
            client.read_file_segmented(&p, PIECE as u64).unwrap(),
            plan_content(i),
            "file {i}"
        );
        assert_eq!(
            injector.injected_for(&hung) - before,
            (stat + batch) * ATTEMPTS,
            "file {i}: calls to the hung home"
        );
        probed += stat + batch;
    }
    assert!(probed > 0, "no read planned an entry to the hung home");
    let s = client.metrics().full_snapshot();
    assert!(s.breaker_trips >= 1, "{s:?}");
    assert!(s.degraded_reads > 0, "{s:?}");
}

/// k=2: a prefetch whose paths include some homed on a hung server fails
/// those over to the live replica within one deadline, and counts the hang.
#[test]
fn prefetch_fails_over_from_a_hung_home() {
    let (cluster, hung) = hung_plan_cluster(2, 1);
    let injector = cluster.fabric().fault_injector();
    let client = cluster.client(0);
    let paths: Vec<PathBuf> = (0..PLAN_FILES).map(sample).collect();
    let staged = client.prefetch(paths.iter().map(PathBuf::as_path));
    assert_eq!(staged.unwrap(), paths.len());
    let fired = injector.injected_for(&hung);
    assert!(fired >= 1, "no path was homed on the hung server");
    let s = client.metrics().full_snapshot();
    assert_eq!(s.timeouts, fired, "the hang is counted: {s:?}");
    assert!(s.failovers >= 1, "{s:?}");
}
