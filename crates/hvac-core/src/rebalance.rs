//! Online cache rebalancing across a membership change.
//!
//! A view change moves a *minority* of file homes (for the identity-hashing
//! placements; `Modulo` documents full churn). The rebalancer walks every
//! node that holds data under the **old** view and migrates exactly the
//! resident whole-file entries whose home *node* changed, copying each to
//! its new home before removing it from the old one — so at every instant
//! the file is resident somewhere, and a read served mid-migration is
//! either answered by the old home (pre-handoff) or by the new home
//! (post-handoff, possibly as a fresh PFS copy). Segment entries (keys
//! from [`segment_key`](crate::server::segment_key)) are skipped: they
//! re-home lazily on next access, and migrating them would race the
//! segment read path for no warm-cache benefit.
//!
//! The walk runs on a background thread owned by the cluster harness; the
//! `REBALANCER` lock class only guards the spawn/join slot, never the walk
//! itself, so migration takes cache/store locks in the ordinary
//! `cache → store` order with nothing held above them.

use crate::cache::CacheManager;
use crate::metrics::ServerMetrics;
use crate::server::is_segment_key;
use hvac_hash::pathhash::hash_path;
use hvac_hash::placement::Placement;
use hvac_types::{ClusterView, NodeId};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One node that may hold entries homed elsewhere after a view change.
pub struct RebalanceSource {
    /// The node the cache belongs to.
    pub node: NodeId,
    /// Its (possibly retired) node-local cache.
    pub cache: Arc<CacheManager>,
    /// Metrics of one server instance on the node; migration counters
    /// (`migrated_files`, `migrated_bytes`) are charged to the source.
    pub metrics: Arc<ServerMetrics>,
}

/// Ledger of one rebalance pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Epoch migrated from.
    pub from_epoch: u64,
    /// Epoch migrated to.
    pub to_epoch: u64,
    /// Whole-file entries examined across all sources.
    pub scanned: u64,
    /// Entries whose home node changed and that were copied over.
    pub migrated_files: u64,
    /// Bytes copied over.
    pub migrated_bytes: u64,
    /// Segment-granular entries left to re-home lazily.
    pub skipped_segments: u64,
}

/// Migrate every whole-file entry whose home node moved between `old_view`
/// and `new_view`. `sources` are all nodes holding data placed under the
/// old view (including a just-retired node); `dests` maps the *new* view's
/// node ids to their caches.
///
/// Only the old **home** node migrates a file — replicas and stragglers
/// keep their copies (they are read-only duplicates and age out by
/// eviction), which keeps the pass single-writer per file.
pub fn rebalance(
    sources: &[RebalanceSource],
    dests: &HashMap<NodeId, Arc<CacheManager>>,
    placement: &dyn Placement,
    old_view: &ClusterView,
    new_view: &ClusterView,
) -> RebalanceReport {
    let mut report = RebalanceReport {
        from_epoch: old_view.epoch(),
        to_epoch: new_view.epoch(),
        ..RebalanceReport::default()
    };
    for src in sources {
        for path in src.cache.store().resident_paths() {
            if is_segment_key(&path) {
                report.skipped_segments += 1;
                continue;
            }
            report.scanned += 1;
            let fid = hash_path(&path);
            if placement.home_in_view(fid, old_view).node != src.node {
                continue; // replica or straggler copy; the old home migrates
            }
            let new_home = placement.home_in_view(fid, new_view).node;
            if new_home == src.node {
                continue; // home unchanged — the common case
            }
            let Some(dest) = dests.get(&new_home) else {
                continue; // new home has no cache here (shut down mid-pass)
            };
            // Peek without recency update (migration must not look like
            // access), import at the destination, then retire the source
            // copy — the file is resident somewhere at every instant.
            let Some(data) = src.cache.store().get(&path) else {
                continue; // evicted between listing and export
            };
            let len = data.len() as u64;
            if dest.insert(&path, data).is_err() {
                continue; // does not fit even after eviction; next epoch's
                          // read re-fetches it from the PFS at the new home
            }
            src.cache.remove(&path);
            src.metrics.migrated_files.fetch_add(1, Ordering::Relaxed);
            src.metrics.migrated_bytes.fetch_add(len, Ordering::Relaxed);
            report.migrated_files += 1;
            report.migrated_bytes += len;
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
    use std::path::PathBuf;

    fn cache(cap: u64) -> Arc<CacheManager> {
        Arc::new(CacheManager::new(
            LocalStore::in_memory(ByteSize(cap)),
            make_policy(EvictionPolicyKind::Random, 7),
        ))
    }

    /// Insert files `name(0)..name(n_files)` into their homes under `view`.
    fn populate_homes(
        caches: &HashMap<NodeId, Arc<CacheManager>>,
        placement: &dyn Placement,
        view: &ClusterView,
        n_files: u64,
        name: impl Fn(u64) -> PathBuf,
    ) {
        for i in 0..n_files {
            let path = name(i);
            let home = placement.home_in_view(hash_path(&path), view).node;
            caches[&home]
                .insert(&path, Bytes::from(vec![i as u8; 64]))
                .unwrap();
        }
    }

    fn reb_file(i: u64) -> PathBuf {
        PathBuf::from(format!("/gpfs/reb/{i}"))
    }

    #[test]
    fn leave_drains_the_retired_node_and_ledger_balances() {
        leave_drains(reb_file);
    }

    #[test]
    fn leave_drains_whole_files_whose_names_hold_a_hash() {
        // A file name spelling a segment range must not make its entry look
        // like a segment's.
        leave_drains(|i| PathBuf::from(format!("/gpfs/reb/{i}#0+64")));
    }

    fn leave_drains(name: impl Fn(u64) -> PathBuf) {
        let placement = make_placement(PlacementKind::Ring);
        let old = ClusterView::initial(4, 1).unwrap();
        let new = old.with_node_removed(NodeId(2)).unwrap();
        let caches: HashMap<NodeId, Arc<CacheManager>> =
            (0..4).map(|n| (NodeId(n), cache(1 << 20))).collect();
        populate_homes(&caches, placement.as_ref(), &old, 64, &name);

        let sources: Vec<RebalanceSource> = caches
            .iter()
            .map(|(&node, c)| RebalanceSource {
                node,
                cache: c.clone(),
                metrics: Arc::new(ServerMetrics::default()),
            })
            .collect();
        let dests: HashMap<NodeId, Arc<CacheManager>> = caches
            .iter()
            .filter(|(n, _)| **n != NodeId(2))
            .map(|(n, c)| (*n, c.clone()))
            .collect();
        let report = rebalance(&sources, &dests, placement.as_ref(), &old, &new);

        assert_eq!(report.from_epoch, 0);
        assert_eq!(report.to_epoch, 1);
        assert!(report.migrated_files > 0, "{report:?}");
        assert_eq!(
            caches[&NodeId(2)].resident_count(),
            0,
            "retired node fully drained"
        );
        // Ledger balances: per-source counters sum to the report, and every
        // file is now resident on its new home.
        let counted: u64 = sources
            .iter()
            .map(|s| s.metrics.migrated_files.load(Ordering::Relaxed))
            .sum();
        assert_eq!(counted, report.migrated_files);
        for i in 0..64u64 {
            let path = name(i);
            let home = placement.home_in_view(hash_path(&path), &new).node;
            assert!(caches[&home].contains(&path), "file {i} not at new home");
        }
    }

    #[test]
    fn join_moves_a_minority_and_skips_segments() {
        let placement = make_placement(PlacementKind::Ring);
        let old = ClusterView::initial(4, 1).unwrap();
        let new = old.with_node_added(NodeId(4)).unwrap();
        let mut caches: HashMap<NodeId, Arc<CacheManager>> =
            (0..4).map(|n| (NodeId(n), cache(1 << 20))).collect();
        populate_homes(&caches, placement.as_ref(), &old, 80, reb_file);
        // A segment-granular entry must be left alone.
        let segment = segment_key(&reb_file(0), 128, 64);
        caches[&NodeId(0)]
            .insert(&segment, Bytes::from(vec![9; 64]))
            .unwrap();
        caches.insert(NodeId(4), cache(1 << 20));

        let sources: Vec<RebalanceSource> = caches
            .iter()
            .map(|(&node, c)| RebalanceSource {
                node,
                cache: c.clone(),
                metrics: Arc::new(ServerMetrics::default()),
            })
            .collect();
        let dests = caches.clone();
        let report = rebalance(&sources, &dests, placement.as_ref(), &old, &new);

        assert_eq!(report.skipped_segments, 1);
        assert!(caches[&NodeId(0)].contains(&segment));
        assert!(report.migrated_files > 0);
        assert!(
            (report.migrated_files as f64) < 0.5 * 80.0,
            "join migrated a majority: {report:?}"
        );
        assert_eq!(
            caches[&NodeId(4)].resident_count() as u64,
            report.migrated_files,
            "everything that moved landed on the joiner"
        );
    }
}
