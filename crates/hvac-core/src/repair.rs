//! Anti-entropy replica repair (crash-stop recovery).
//!
//! A crashed-and-restarted node comes back **empty** at its old endpoint:
//! reads it used to serve warm now refault from the PFS, and every file it
//! replicated is one copy short until something re-replicates it. The
//! repair scrubber closes that gap without waiting for organic traffic: it
//! walks the union of resident whole-file entries across the allocation,
//! detects entries with fewer live copies than the placement's replica set
//! demands, and re-clones each from any surviving holder — the same direct
//! cache-to-cache export→import handoff the [`rebalancer`](crate::rebalance)
//! uses, so a read served mid-repair is answered either by the donor copy
//! (still resident) or by the fresh clone.
//!
//! Repair is **priority-ordered by access count**: the
//! [`LocalStore`](hvac_storage::LocalStore) tracks per-entry hits, and the
//! scrubber re-clones the hottest files first, so the entries most likely
//! to be read next regain their fault tolerance (and their warm-read
//! latency) soonest.
//!
//! Segment-granular entries (keys from
//! [`segment_key`](crate::server::segment_key)) are skipped for the same
//! reason the rebalancer skips them: they re-home lazily on next access
//! and repairing them would race the segment read path.
//!
//! The pass runs on a background thread owned by the cluster harness; the
//! `REPAIR` lock class guards only that spawn/join slot, never the walk
//! itself, so repair takes cache/store locks in the ordinary
//! `cache → store` order with nothing held above them.

use crate::cache::CacheManager;
use crate::metrics::ServerMetrics;
use crate::server::is_segment_key;
use hvac_hash::pathhash::hash_path;
use hvac_hash::placement::Placement;
use hvac_types::{ClusterView, NodeId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One live node participating in a repair pass: a potential donor of
/// surviving copies and a potential destination for re-clones.
pub struct RepairSource {
    /// The node the cache belongs to.
    pub node: NodeId,
    /// Its node-local cache.
    pub cache: Arc<CacheManager>,
    /// Metrics of one server instance on the node; repair counters
    /// (`repaired_files`, `repaired_bytes`) are charged to the **donor**
    /// holder, mirroring how migration charges the source.
    pub metrics: Arc<ServerMetrics>,
}

/// Ledger of one repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Membership epoch the pass ran under.
    pub epoch: u64,
    /// Distinct whole-file entries examined (union across all nodes).
    pub scanned: u64,
    /// Replica copies re-cloned onto nodes that were missing them.
    pub files_repaired: u64,
    /// Bytes copied for those re-clones.
    pub bytes_copied: u64,
    /// Expected replica slots still empty when the pass ended: the replica
    /// node is not participating (down), the donor copy was evicted
    /// mid-pass, or the clone did not fit even after eviction.
    pub under_replicated_remaining: u64,
    /// Segment-granular entries left to re-home lazily.
    pub skipped_segments: u64,
}

/// The replica *nodes* `path` must be resident on under `view`. Instances
/// on one node share the node cache, so replica sets collapse to node sets.
fn expected_nodes(
    path: &PathBuf,
    placement: &dyn Placement,
    view: &ClusterView,
    replication: usize,
) -> Vec<NodeId> {
    let fid = hash_path(path);
    let mut nodes = Vec::new();
    for sid in placement.replicas_in_view(fid, view, replication) {
        if !nodes.contains(&sid.node) {
            nodes.push(sid.node);
        }
    }
    nodes
}

/// Count expected-but-missing replica copies without repairing anything —
/// the audit half of the scrubber, used by tests and the cluster harness
/// to certify convergence (`under_replicated == 0` after a repair pass).
pub fn audit_under_replicated(
    sources: &[RepairSource],
    placement: &dyn Placement,
    view: &ClusterView,
    replication: usize,
) -> u64 {
    let by_node: HashMap<NodeId, &RepairSource> = sources.iter().map(|s| (s.node, s)).collect();
    let mut missing = 0u64;
    for path in resident_union(sources).into_keys() {
        for node in expected_nodes(&path, placement, view, replication) {
            match by_node.get(&node) {
                Some(dest) if dest.cache.contains(&path) => {}
                _ => missing += 1,
            }
        }
    }
    missing
}

/// Union of resident whole-file entries across `sources`, keyed by path,
/// valued by the hottest access count across holders — the scrubber's
/// priority signal. Segment keys are excluded.
fn resident_union(sources: &[RepairSource]) -> HashMap<PathBuf, u64> {
    let mut seen: HashMap<PathBuf, u64> = HashMap::new();
    for src in sources {
        for (path, hits) in src.cache.store().resident_with_access() {
            if is_segment_key(&path) {
                continue;
            }
            let slot = seen.entry(path).or_insert(0);
            *slot = (*slot).max(hits);
        }
    }
    seen
}

/// One anti-entropy pass: re-clone every under-replicated whole-file entry
/// from a surviving holder onto the replica nodes that are missing it,
/// hottest files first. Idempotent — a second pass over a converged
/// allocation copies nothing.
pub fn repair(
    sources: &[RepairSource],
    placement: &dyn Placement,
    view: &ClusterView,
    replication: usize,
) -> RepairReport {
    let mut report = RepairReport {
        epoch: view.epoch(),
        ..RepairReport::default()
    };
    for src in sources {
        for (path, _) in src.cache.store().resident_with_access() {
            if is_segment_key(&path) {
                report.skipped_segments += 1;
            }
        }
    }
    let union = resident_union(sources);
    report.scanned = union.len() as u64;
    // Hottest first; path as tie-break keeps the pass deterministic.
    let mut work: Vec<(PathBuf, u64)> = union.into_iter().collect();
    work.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let by_node: HashMap<NodeId, &RepairSource> = sources.iter().map(|s| (s.node, s)).collect();
    for (path, _hits) in work {
        // Any surviving holder can donate; placement members are read-only
        // duplicates of each other, and stragglers are byte-identical too
        // (the store is copy-once from an immutable PFS file).
        let donor = sources.iter().find(|s| s.cache.contains(&path));
        for node in expected_nodes(&path, placement, view, replication) {
            match by_node.get(&node) {
                Some(dest) if dest.cache.contains(&path) => {}
                Some(dest) => {
                    let mut repaired = false;
                    if let Some(d) = donor {
                        if let Some(data) = d.cache.store().get(&path) {
                            let len = data.len() as u64;
                            if dest.cache.insert(&path, data).is_ok() {
                                d.metrics.repaired_files.fetch_add(1, Ordering::Relaxed);
                                d.metrics.repaired_bytes.fetch_add(len, Ordering::Relaxed);
                                report.files_repaired += 1;
                                report.bytes_copied += len;
                                repaired = true;
                            }
                        }
                    }
                    if !repaired {
                        // Donor evicted mid-pass, or the clone did not fit
                        // even after eviction; the next pass (or an organic
                        // read at the replica) closes the gap.
                        report.under_replicated_remaining += 1;
                    }
                }
                None => {
                    // The replica node is not participating (down or not
                    // provisioned); nothing to copy onto.
                    report.under_replicated_remaining += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::make_policy;
    use crate::server::segment_key;
    use bytes::Bytes;
    use hvac_hash::placement::make_placement;
    use hvac_storage::LocalStore;
    use hvac_types::{ByteSize, EvictionPolicyKind, PlacementKind};
    use std::path::Path;

    const K: usize = 2;

    fn cache(cap: u64) -> Arc<CacheManager> {
        Arc::new(CacheManager::new(
            LocalStore::in_memory(ByteSize(cap)),
            make_policy(EvictionPolicyKind::Random, 7),
        ))
    }

    fn sources(n: u32, cap: u64) -> Vec<RepairSource> {
        (0..n)
            .map(|i| RepairSource {
                node: NodeId(i),
                cache: cache(cap),
                metrics: Arc::new(ServerMetrics::default()),
            })
            .collect()
    }

    /// Fill every replica of every file, as a healthy epoch would.
    fn populate_replicas(
        srcs: &[RepairSource],
        placement: &dyn Placement,
        view: &ClusterView,
        n_files: u64,
    ) -> Vec<PathBuf> {
        let by_node: HashMap<NodeId, &RepairSource> = srcs.iter().map(|s| (s.node, s)).collect();
        let mut paths = Vec::new();
        for i in 0..n_files {
            let path = PathBuf::from(format!("/gpfs/rep/{i}"));
            for node in expected_nodes(&path, placement, view, K) {
                by_node[&node]
                    .cache
                    .insert(&path, Bytes::from(vec![i as u8; 64]))
                    .unwrap();
            }
            paths.push(path);
        }
        paths
    }

    #[test]
    fn converged_allocation_is_a_noop() {
        let placement = make_placement(PlacementKind::Ring);
        let view = ClusterView::initial(4, 1).unwrap();
        let srcs = sources(4, 1 << 20);
        populate_replicas(&srcs, placement.as_ref(), &view, 32);
        assert_eq!(
            audit_under_replicated(&srcs, placement.as_ref(), &view, K),
            0
        );
        let report = repair(&srcs, placement.as_ref(), &view, K);
        assert_eq!(report.scanned, 32);
        assert_eq!(report.files_repaired, 0, "{report:?}");
        assert_eq!(report.under_replicated_remaining, 0, "{report:?}");
    }

    #[test]
    fn crashed_node_is_refilled_from_survivors_hot_first() {
        let placement = make_placement(PlacementKind::Ring);
        let view = ClusterView::initial(4, 1).unwrap();
        let srcs = sources(4, 1 << 20);
        let paths = populate_replicas(&srcs, placement.as_ref(), &view, 32);
        // Make one file clearly hot on its surviving replicas.
        let hot = &paths[5];
        for src in &srcs {
            for _ in 0..10 {
                let _ = src.cache.store().get(hot);
            }
        }
        // Node 1 crash-stops: its cache comes back empty.
        srcs[1].cache.purge();
        let before = audit_under_replicated(&srcs, placement.as_ref(), &view, K);
        assert!(before > 0, "the crash left replicas missing");

        let report = repair(&srcs, placement.as_ref(), &view, K);
        assert_eq!(report.files_repaired, before, "{report:?}");
        assert_eq!(report.under_replicated_remaining, 0, "{report:?}");
        assert!(report.bytes_copied >= before * 64, "{report:?}");
        assert_eq!(
            audit_under_replicated(&srcs, placement.as_ref(), &view, K),
            0,
            "one pass converges"
        );
        // The donor-side ledger balances with the report.
        let counted: u64 = srcs
            .iter()
            .map(|s| s.metrics.repaired_files.load(Ordering::Relaxed))
            .sum();
        assert_eq!(counted, report.files_repaired);
        // A second pass copies nothing (idempotence).
        let again = repair(&srcs, placement.as_ref(), &view, K);
        assert_eq!(again.files_repaired, 0, "{again:?}");
    }

    #[test]
    fn missing_replica_node_counts_as_remaining() {
        let placement = make_placement(PlacementKind::Ring);
        let view = ClusterView::initial(4, 1).unwrap();
        let mut srcs = sources(4, 1 << 20);
        populate_replicas(&srcs, placement.as_ref(), &view, 16);
        // Node 2 vanishes from the pass entirely (still down): every slot
        // it owes stays open, and the ledger says so instead of lying.
        srcs.retain(|s| s.node != NodeId(2));
        let report = repair(&srcs, placement.as_ref(), &view, K);
        assert!(report.under_replicated_remaining > 0, "{report:?}");
        assert_eq!(
            report.under_replicated_remaining,
            audit_under_replicated(&srcs, placement.as_ref(), &view, K),
            "repair and audit agree on the open slots"
        );
    }

    #[test]
    fn segment_entries_are_skipped() {
        let placement = make_placement(PlacementKind::Ring);
        let view = ClusterView::initial(2, 1).unwrap();
        let srcs = sources(2, 1 << 20);
        srcs[0]
            .cache
            .insert(
                &segment_key(Path::new("/gpfs/rep/0"), 128, 64),
                Bytes::from(vec![9; 64]),
            )
            .unwrap();
        let report = repair(&srcs, placement.as_ref(), &view, K);
        assert_eq!(report.skipped_segments, 1);
        assert_eq!(report.scanned, 0);
        assert_eq!(report.files_repaired, 0);
    }
}
