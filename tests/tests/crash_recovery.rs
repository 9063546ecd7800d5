//! Crash-stop recovery: 16 training ranks read a 4-node allocation
//! byte-exact while a node **crash-stops mid-epoch** — its endpoints latch
//! down and its cache, queued copy jobs, and in-flight single-flight
//! waiters are wiped — and then **restarts empty** at the same endpoints
//! while the ranks are still reading.
//!
//! What this certifies: replicated reads survive a crash with zero PFS
//! degradation (the survivor replica serves them warm), the anti-entropy
//! repair scrubber kicked by the restart re-clones the crashed node's
//! share from surviving holders until nothing is under-replicated, and the
//! first full epoch after convergence runs at a warm hit rate above the
//! `[repair]` ratchet floor. Hedged reads get their own section: a slow
//! (delay-faulted) primary is raced by a backup request to the next
//! replica, and the backup wins without doubling load on tripped replicas.

use bytes::Bytes;
use hvac_core::client::server_addr;
use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_pfs::{FileMeta, FileStore, MemStore, StoreStats};
use hvac_types::{PlacementKind, Result, RetryPolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u32 = 4;
const CLIENTS_PER_NODE: u32 = 4;
const RANKS: usize = (NODES * CLIENTS_PER_NODE) as usize;
const N_FILES: u64 = 48;
const FILE_SIZE: usize = 256;

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

/// Small deadline so a crashed endpoint costs milliseconds; enough
/// attempts that the failover ladder never degrades to the PFS (this test
/// forbids degraded reads — the survivor replica must serve everything).
fn crash_retry() -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: Duration::from_millis(50),
        max_attempts: 4,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 8,
        breaker_cooldown: Duration::from_millis(200),
        jitter_seed: 0x4352_5348, // "CRSH"
        ..RetryPolicy::default()
    }
}

/// The `[repair]` ratchet floors from tools/tidy/ratchet.toml.
fn repair_floors() -> (u64, u64) {
    let ratchet = tidy::Ratchet::load(&tidy::workspace_root().join("tools/tidy/ratchet.toml"))
        .expect("ratchet");
    let hit_floor = ratchet
        .repair_floors
        .get("min-warm-hit-rate-pct")
        .copied()
        .unwrap_or(0) as u64;
    let max_under = ratchet
        .repair_floors
        .get("max-under-replicated-remaining")
        .copied()
        .unwrap_or(usize::MAX) as u64;
    (hit_floor, max_under)
}

/// One full seeded-shuffled pass over the dataset for every rank, joined
/// as a barrier. Asserts byte-exactness on every read.
fn epoch_pass(clients: &[Arc<hvac_core::HvacClient>], tag: u64) {
    let mut joins = Vec::new();
    for (rank, client) in clients.iter().enumerate() {
        let client = client.clone();
        joins.push(std::thread::spawn(move || {
            let mut order: Vec<u64> = (0..N_FILES).collect();
            let mut rng = StdRng::seed_from_u64(0x5EED ^ ((rank as u64) << 16) ^ tag);
            order.shuffle(&mut rng);
            for i in order {
                let data = client
                    .read_file(&sample(i))
                    .unwrap_or_else(|e| panic!("rank {rank} pass {tag} file {i}: {e}"));
                assert_eq!(
                    data,
                    MemStore::sample_content(i, FILE_SIZE),
                    "rank {rank} pass {tag}: corrupted bytes for file {i}"
                );
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn crash_and_restart_mid_epoch_stay_byte_exact_and_repair_reconverges() {
    let (hit_floor, max_under) = repair_floors();
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(NODES, 1)
            .dataset_dir("/gpfs/train")
            .clients_per_node(CLIENTS_PER_NODE)
            .placement(PlacementKind::Ring)
            .replication(2)
            .retry_policy(crash_retry()),
    )
    .unwrap();
    let clients: Vec<_> = (0..RANKS).map(|r| cluster.client(r).clone()).collect();

    // Pass 0: warm the allocation (one copy per file, on its home), then
    // let the scrubber seed full 2x replication.
    epoch_pass(&clients, 0);
    cluster.start_repair();
    let seed_pass = cluster.wait_repair().expect("seed pass ran");
    assert!(seed_pass.files_repaired > 0, "{seed_pass:?}");
    assert_eq!(cluster.under_replicated_count(), 0, "{seed_pass:?}");

    // Pass 1: node 1 crash-stops *mid-pass* while every rank is reading —
    // cache wiped, in-flight state disowned, endpoints down — and then
    // restarts *empty* a few milliseconds later, still mid-pass.
    let readers: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(rank, client)| {
            let client = client.clone();
            std::thread::spawn(move || {
                let mut order: Vec<u64> = (0..N_FILES).collect();
                let mut rng = StdRng::seed_from_u64(0xD00D ^ (rank as u64) << 8);
                order.shuffle(&mut rng);
                for i in order {
                    let data = client
                        .read_file(&sample(i))
                        .unwrap_or_else(|e| panic!("rank {rank} mid-crash file {i}: {e}"));
                    assert_eq!(data, MemStore::sample_content(i, FILE_SIZE));
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(3));
    cluster.crash_node(1).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    cluster.restart_node(1).unwrap(); // kicks the scrubber (repair default-on)
    for j in readers {
        j.join().unwrap();
    }

    // The restart-kicked repair pass converges: the crashed node's share
    // is re-cloned from survivors, within the ratchet's allowance.
    let report = cluster.wait_repair().expect("restart kicked a repair pass");
    assert!(report.files_repaired > 0, "{report:?}");
    assert!(
        report.under_replicated_remaining <= max_under,
        "repair left {} slots open, ratchet allows {max_under}: {report:?}",
        report.under_replicated_remaining
    );
    // A follow-up audit agrees nothing is missing (organic refaults during
    // the pass can only add copies, never remove them).
    assert_eq!(cluster.under_replicated_count(), 0);

    // Pass 2: the first full epoch after convergence is warm again — the
    // hit rate clears the `[repair]` ratchet floor.
    let before = cluster.aggregate_metrics();
    epoch_pass(&clients, 2);
    let after = cluster.aggregate_metrics();
    let reads = after.reads - before.reads;
    let hits = after.cache_hits - before.cache_hits;
    let hit_rate_pct = 100 * hits / reads.max(1);
    assert!(
        hit_rate_pct >= hit_floor,
        "post-repair warm hit rate {hit_rate_pct}% fell below the ratchet floor \
         {hit_floor}% (tools/tidy/ratchet.toml [repair]): {hits}/{reads}"
    );

    // Nothing ever degraded to the PFS: the survivor replica (pre-repair)
    // and the re-cloned copies (post-repair) carried every read.
    for (rank, client) in clients.iter().enumerate() {
        let s = client.metrics().full_snapshot();
        assert_eq!(s.degraded_reads, 0, "rank {rank} degraded: {s:?}");
    }
    // Ledgers balance: donor-side repair counters equal the two reports.
    let agg = cluster.aggregate_metrics();
    assert_eq!(
        agg.repaired_files,
        seed_pass.files_repaired + report.files_repaired,
        "{agg:?}"
    );
    assert_eq!(
        agg.repaired_bytes,
        seed_pass.bytes_copied + report.bytes_copied,
        "{agg:?}"
    );
    assert_eq!(agg.cache_hits + agg.cache_misses, agg.reads, "{agg:?}");
}

#[test]
fn hedged_reads_win_against_a_delay_faulted_primary() {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let cluster = Cluster::new(
        pfs,
        ClusterOptions::new(NODES, 1)
            .dataset_dir("/gpfs/train")
            .placement(PlacementKind::Ring)
            .replication(2)
            .retry_policy(RetryPolicy {
                rpc_timeout: Duration::from_millis(200),
                hedge_delay_percent: 5,   // hedge after 10 ms
                jitter_seed: 0x4845_4447, // "HEDG"
                ..RetryPolicy::default()
            }),
    )
    .unwrap();
    let client = cluster.client(0).clone();

    // Pick a file and delay-fault its primary far past the hedge delay
    // (but well inside the deadline, so without hedging the read would
    // *succeed slowly* — this isolates hedging from failover).
    let p = sample(0);
    let addrs = client.replica_addrs(&p);
    assert_eq!(addrs.len(), 2);
    cluster.fabric().fault_injector().set(
        &addrs[0],
        hvac_net::FaultSpec {
            delay_prob: 1.0,
            delay: Duration::from_millis(60),
            seed: 0x4845_4447,
            ..hvac_net::FaultSpec::default()
        },
    );
    for _ in 0..4 {
        let data = client.read_file(&p).unwrap();
        assert_eq!(data, MemStore::sample_content(0, FILE_SIZE));
    }
    let s = client.metrics().full_snapshot();
    assert!(
        s.hedges >= 1,
        "hedges fired against the slow primary: {s:?}"
    );
    assert!(
        s.hedge_wins >= 1,
        "the backup replica won at least once: {s:?}"
    );
    assert_eq!(s.degraded_reads, 0, "{s:?}");
    assert!(
        cluster.fabric().fault_injector().injected_for(&addrs[0]) > 0,
        "the delay plan really fired"
    );
}

/// Poll `done` every millisecond for up to 30 s; a test whose condition
/// never holds fails its assertions instead of hanging.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A PFS whose reads wait while the gate is shut, counting the reads
/// parked on it, so a server's copies stay in flight until the test has
/// crashed it.
struct GatedStore {
    inner: Arc<MemStore>,
    open: AtomicBool,
    parked: AtomicUsize,
}

impl GatedStore {
    fn pass(&self) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        wait_until(|| self.open.load(Ordering::Acquire));
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

impl FileStore for GatedStore {
    fn open_meta(&self, path: &Path) -> Result<FileMeta> {
        self.inner.open_meta(path)
    }

    fn read_all(&self, path: &Path) -> Result<Bytes> {
        self.pass();
        self.inner.read_all(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        self.pass();
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

/// k=2: a crash-stop answers every read its server had parked on a PFS
/// copy with `ServerDown`. That answer is the replica failing, not the
/// file's status, so each plan entry parked on the crashed home fails over
/// to its live replica once: a segmented read and a one-entry `read_file`
/// both complete byte-exact, and nothing degrades to the PFS.
#[test]
fn reads_parked_on_a_crashing_home_fail_over_byte_exact() {
    const NODES: u32 = 3;
    const SIZE: usize = 32 * 1024;
    const SEGMENT: u64 = 8 * 1024;
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| SIZE);
    let gated = Arc::new(GatedStore {
        inner: pfs,
        open: AtomicBool::new(false),
        parked: AtomicUsize::new(0),
    });
    // A deadline far past the test's length, so a parked call ends only by
    // the crash's answer; and movers enough that every copy parks.
    let cluster = Cluster::new(
        gated.clone(),
        ClusterOptions::new(NODES, 1)
            .dataset_dir("/gpfs/train")
            .replication(2)
            .movers_per_instance(8)
            .retry_policy(RetryPolicy {
                rpc_timeout: Duration::from_secs(60),
                ..crash_retry()
            }),
    )
    .unwrap();
    let client = cluster.client(0).clone();
    let segmented = sample(0);
    let replicas: Vec<Vec<String>> = (0..SIZE as u64 / SEGMENT)
        .map(|s| client.segment_replica_addrs(&segmented, s))
        .collect();
    let home = replicas[0][0].clone();
    let node = (0..NODES)
        .find(|&n| server_addr(n as usize, 1) == home)
        .expect("the home is a server of the allocation");
    let whole = (1..N_FILES)
        .find(|&i| client.replica_addrs(&sample(i))[0] == home)
        .expect("a file homed on the same server");
    // Adjacent segments with one replica list coalesce into one copy; the
    // batches planned to the crashing home are its distinct replica lists.
    let copies = 1 + replicas.windows(2).filter(|w| w[0] != w[1]).count();
    let home_batches = replicas
        .iter()
        .filter(|r| r[0] == home)
        .collect::<HashSet<_>>()
        .len();

    let readers = [(0, Some(SEGMENT)), (whole, None)].map(|(i, segment)| {
        let client = client.clone();
        std::thread::spawn(move || {
            let data = match segment {
                Some(segment) => client.read_file_segmented(&sample(i), segment),
                None => client.read_file(&sample(i)),
            };
            (i, data)
        })
    });
    wait_until(|| gated.parked.load(Ordering::SeqCst) == copies + 1);
    assert_eq!(gated.parked.load(Ordering::SeqCst), copies + 1);
    cluster.crash_node(node).unwrap();
    gated.open.store(true, Ordering::Release);
    for reader in readers {
        let (i, data) = reader.join().unwrap();
        let data = data.unwrap_or_else(|e| panic!("file {i}: {e}"));
        assert_eq!(data, MemStore::sample_content(i, SIZE), "file {i}");
    }
    let s = client.metrics().full_snapshot();
    assert_eq!(
        s.failovers,
        home_batches as u64 + 1,
        "each entry parked on the crashed home failed over once: {s:?}"
    );
    assert_eq!(
        s.degraded_reads, 0,
        "the live replicas served it all: {s:?}"
    );
    assert_eq!(s.timeouts, 0, "the crash answered every parked call: {s:?}");
}
