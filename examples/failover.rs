//! The fail-over extension (paper §III-H, "future work" — implemented
//! here): replicate each file on k=2 HVAC servers so a dead node does not
//! kill the training run.
//!
//! ```text
//! cargo run -p hvac-examples --example failover
//! ```

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_pfs::MemStore;
use std::path::Path;
use std::sync::Arc;

fn read_all(cluster: &Cluster, n_files: u64) -> (u64, u64) {
    let mut ok = 0;
    let mut failed = 0;
    for i in 0..n_files {
        let path = format!("/gpfs/train/sample_{i:08}.bin");
        match cluster.client(0).read_file(Path::new(&path)) {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    (ok, failed)
}

fn main() {
    let n_files = 48u64;
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), n_files, |_| 4096);

    // --- Without replication (the paper's current design) -----------------
    // PFS degradation is switched off so the paper's failure mode is
    // actually visible; the default keeps it armed.
    let fragile = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(4, 1)
            .dataset_dir("/gpfs/train")
            .pfs_fallback(false),
    )
    .unwrap();
    read_all(&fragile, n_files); // warm the cache
    fragile.set_node_down(2, true);
    let (ok, failed) = read_all(&fragile, n_files);
    println!("replication=1, node 2 down: {ok} reads ok, {failed} FAILED");
    println!("  (the paper §III-H: \"if the node-local NVMe fails, [this can] lead to a failed training run\")\n");

    // --- Without replication, but with the default PFS degradation --------
    let degrading = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(4, 1).dataset_dir("/gpfs/train"),
    )
    .unwrap();
    read_all(&degrading, n_files);
    degrading.set_node_down(2, true);
    let (ok, failed) = read_all(&degrading, n_files);
    let degraded = degrading.client(0).metrics().full_snapshot().degraded_reads;
    println!(
        "replication=1 + degradation, node 2 down: {ok} reads ok, {failed} failed, \
         {degraded} served straight from the PFS"
    );
    assert_eq!(failed, 0, "degradation must keep the epoch alive");
    println!("  (slow epoch, but the training run survives)\n");

    // --- With k=2 replication (the §III-H extension) -----------------------
    let robust = Cluster::new(
        pfs,
        ClusterOptions::new(4, 1)
            .dataset_dir("/gpfs/train")
            .replication(2),
    )
    .unwrap();
    read_all(&robust, n_files);
    robust.set_node_down(2, true);
    let (ok, failed) = read_all(&robust, n_files);
    let failovers = robust.client(0).metrics().full_snapshot().failovers;
    println!("replication=2, node 2 down: {ok} reads ok, {failed} failed, {failovers} served by fail-over replicas");
    assert_eq!(failed, 0, "replication must mask a single node failure");

    // Recovery: bring the node back; the primary serves again.
    robust.set_node_down(2, false);
    let (ok, _) = read_all(&robust, n_files);
    println!("node 2 restored: {ok} reads ok");
}
