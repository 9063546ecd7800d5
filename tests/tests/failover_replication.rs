//! Replication & fail-over integration tests (the paper's §III-H extension).

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_pfs::{FileStore, MemStore};
use hvac_types::HvacError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_FILES: u64 = 60;

fn cluster_with_replication(k: u32) -> (Arc<MemStore>, Cluster) {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| 512);
    // Degradation off: these tests probe pure RPC failover semantics — a
    // lost file must surface as `ServerDown`, not silently come from the
    // PFS. Client-side degradation has its own coverage in hung_server.rs.
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(5, 1)
            .dataset_dir("/gpfs/train")
            .replication(k)
            .pfs_fallback(false),
    )
    .unwrap();
    (pfs, cluster)
}

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

#[test]
fn replicas_live_on_distinct_servers() {
    let (_pfs, cluster) = cluster_with_replication(3);
    let client = cluster.client(0);
    for i in 0..N_FILES {
        let addrs = client.replica_addrs(&sample(i));
        assert_eq!(addrs.len(), 3);
        let mut sorted = addrs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas of file {i} collide: {addrs:?}");
    }
}

#[test]
fn single_node_failure_is_masked_with_k2() {
    let (pfs, cluster) = cluster_with_replication(2);
    // Warm epoch.
    for i in 0..N_FILES {
        cluster.client(0).read_file(&sample(i)).unwrap();
    }
    let pfs_reads_warm = pfs.stats().snapshot().1;

    for dead in 0..5u32 {
        cluster.set_node_down(dead, true);
        for i in 0..N_FILES {
            let data = cluster
                .client(((dead + 1) % 5) as usize)
                .read_file(&sample(i))
                .unwrap_or_else(|e| panic!("node {dead} down, file {i}: {e}"));
            assert_eq!(data.len(), 512);
        }
        cluster.set_node_down(dead, false);
    }
    // Fail-over reads may re-fetch from the PFS on the replica (the replica
    // only caches lazily), but never corrupt. PFS traffic stays bounded.
    let pfs_reads_after = pfs.stats().snapshot().1;
    assert!(pfs_reads_after >= pfs_reads_warm);
    assert!(pfs_reads_after <= pfs_reads_warm + 5 * N_FILES);
}

#[test]
fn double_failure_beats_k2_but_not_k3() {
    let (_pfs, cluster) = cluster_with_replication(3);
    for i in 0..N_FILES {
        cluster.client(0).read_file(&sample(i)).unwrap();
    }
    cluster.set_node_down(1, true);
    cluster.set_node_down(3, true);
    for i in 0..N_FILES {
        assert!(
            cluster.client(0).read_file(&sample(i)).is_ok(),
            "k=3 must survive two dead nodes (file {i})"
        );
    }
    cluster.set_node_down(1, false);
    cluster.set_node_down(3, false);

    // k=2 with two dead *adjacent* nodes must lose some files: modulo
    // placement puts a file's replica on the cyclically-next server, so a
    // file homed on node 1 has both copies on {1, 2}.
    let (_pfs2, weak) = cluster_with_replication(2);
    for i in 0..N_FILES {
        weak.client(0).read_file(&sample(i)).unwrap();
    }
    weak.set_node_down(1, true);
    weak.set_node_down(2, true);
    let mut lost = 0;
    let mut served = 0;
    for i in 0..N_FILES {
        match weak.client(0).read_file(&sample(i)) {
            Ok(_) => served += 1,
            Err(HvacError::ServerDown(_)) => lost += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(served > 0, "files homed on live nodes must survive");
    assert!(lost > 0, "k=2 cannot mask two failures for every file");
}

#[test]
fn failover_metrics_are_recorded() {
    let (_pfs, cluster) = cluster_with_replication(2);
    for i in 0..N_FILES {
        cluster.client(2).read_file(&sample(i)).unwrap();
    }
    cluster.set_node_down(0, true);
    for i in 0..N_FILES {
        cluster.client(2).read_file(&sample(i)).unwrap();
    }
    let failovers = cluster.client(2).metrics().full_snapshot().failovers;
    assert!(failovers > 0, "reads homed on node 0 must have failed over");
    assert!(failovers < N_FILES, "only node-0 homes fail over");
}

#[test]
fn close_succeeds_even_when_home_is_down() {
    let (_pfs, cluster) = cluster_with_replication(1);
    let client = cluster.client(0);
    let fd = client.open(&sample(7)).unwrap();
    // Find the home and kill it mid-file.
    let addrs = client.replica_addrs(&sample(7));
    cluster.fabric().set_down(&addrs[0], true);
    // Close sends no RPC, so a dead home cannot fail it.
    client.close(fd).unwrap();
}
