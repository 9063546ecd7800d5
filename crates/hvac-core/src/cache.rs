//! The per-node cache manager.
//!
//! [`CacheManager`] owns the node's [`LocalStore`] plus an eviction policy
//! and keeps them consistent: an insert that does not fit evicts victims
//! until it does, or is refused (a file that can never fit, or a policy
//! that does not replace); every store mutation is mirrored into the
//! policy, and eviction counts flow into the server metrics.
//!
//! One `CacheManager` is shared by all HVAC server *instances* on a node —
//! the instances have separate request queues and data movers (that is what
//! HVAC (2×1)/(4×1) vary), but there is one NVMe device per node.
//!
//! Beside the resident entries the manager keeps a *size memo*: the file
//! sizes the node has learned from the PFS, by tenant key, so a repeat
//! `Stat` of a file that is not resident as a whole (segment caching never
//! makes it so) costs no PFS operation. The memo holds no file bytes and
//! stays out of the store's counts, capacity and eviction; a purge (job
//! teardown or crash-stop) clears it with the entries.

use crate::eviction::EvictionPolicy;
use bytes::Bytes;
use hvac_hash::pathhash::split_tenant_key;
use hvac_storage::LocalStore;
use hvac_sync::{classes, OrderedMutex, OrderedRwLock};
use hvac_types::{ByteSize, HvacError, JobId, Result};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of [`CacheManager::insert`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InsertOutcome {
    /// Files evicted to make room (empty in the common case).
    pub evicted: Vec<PathBuf>,
}

/// Thread-safe cache state of one node.
pub struct CacheManager {
    store: LocalStore,
    policy: OrderedMutex<Box<dyn EvictionPolicy>>,
    evictions: AtomicU64,
    /// File sizes learned from the PFS, by tenant key.
    sizes: OrderedRwLock<HashMap<PathBuf, u64>>,
}

impl CacheManager {
    /// Wrap a store and a policy.
    pub fn new(store: LocalStore, policy: Box<dyn EvictionPolicy>) -> Self {
        Self {
            store,
            policy: OrderedMutex::new(classes::CACHE_POLICY, policy),
            evictions: AtomicU64::new(0),
            sizes: OrderedRwLock::new(classes::CACHE_SIZE_MEMO, HashMap::new()),
        }
    }

    /// The underlying store (read-only observations).
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Insert `data` for `path`, evicting as needed.
    ///
    /// Eviction is tenant-isolated: a tenant pushing past its own quota
    /// evicts only its own keys (a tenant at quota can never displace a
    /// neighbour's resident entries), while genuine global pressure shrinks
    /// tenants in proportion to their quota share — the tenant furthest
    /// over its share loses first. A policy that does not
    /// [replace](EvictionPolicy::replaces) never evicts the inserter's own
    /// keys: under quota pressure the insert is refused, and under global
    /// pressure it only reclaims from tenants strictly further over their
    /// share than the inserter would be with the new entry.
    ///
    /// Fails with [`HvacError::CapacityExhausted`] when the file is larger
    /// than the whole device or the tenant's quota — the paper's
    /// expectation is that real datasets never outgrow the *aggregate*
    /// allocation capacity (§III-G), but a single node can still fill — or
    /// when the policy finds no victim it may take.
    pub fn insert(&self, path: &Path, data: Bytes) -> Result<InsertOutcome> {
        let size = ByteSize(data.len() as u64);
        if !self.store.can_ever_fit(size) {
            return Err(HvacError::CapacityExhausted {
                requested: size.bytes(),
                capacity: self.store.capacity().bytes(),
            });
        }
        let job = split_tenant_key(path).0;
        if let Some(q) = self.store.tenant_quota(job) {
            if size.bytes() > q.bytes() {
                return Err(HvacError::CapacityExhausted {
                    requested: size.bytes(),
                    capacity: q.bytes(),
                });
            }
        }
        let mut policy = self.policy.lock();
        let mut outcome = InsertOutcome::default();
        // Evict until the insert fits. Holding the policy lock serializes
        // concurrent inserts, so capacity race retries are bounded.
        loop {
            // Replacing `path` frees its old bytes first, so only the delta
            // counts against the tenant's line.
            let existing = self.store.size_of(path).unwrap_or(ByteSize::ZERO);
            let incoming = ByteSize(size.bytes().saturating_sub(existing.bytes()));
            if self.store.tenant_over_quota(job, incoming) {
                // Quota pressure: the offending tenant pays for itself, or
                // is refused by a policy that does not replace.
                let own = |k: &Path| split_tenant_key(k).0 == job && k != path;
                let victim = policy
                    .replaces()
                    .then(|| policy.victim_where(&own))
                    .flatten()
                    .ok_or(HvacError::CapacityExhausted {
                        requested: size.bytes(),
                        capacity: self
                            .store
                            .tenant_quota(job)
                            .unwrap_or_else(|| self.store.capacity())
                            .bytes(),
                    })?;
                self.evict(&mut policy, &victim, &mut outcome);
                continue;
            }
            match self.store.insert(path, data.clone()) {
                // lockgraph: acquires STORE_SHARD
                Ok(()) => {
                    policy.on_insert(path);
                    return Ok(outcome);
                }
                Err(HvacError::CapacityExhausted { .. }) => {
                    let victim = self
                        .pressure_victim(&mut policy, path, job, incoming)
                        .ok_or(HvacError::CapacityExhausted {
                            requested: size.bytes(),
                            capacity: self.store.capacity().bytes(),
                        })?;
                    // Never evict the path we are inserting (re-insert case).
                    if victim == path {
                        policy.on_remove(&victim);
                        continue;
                    }
                    self.evict(&mut policy, &victim, &mut outcome);
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Drop one victim from both the store and the policy, recording it.
    fn evict(
        &self,
        policy: &mut Box<dyn EvictionPolicy>,
        victim: &Path,
        outcome: &mut InsertOutcome,
    ) {
        self.store.remove(victim); // lockgraph: acquires STORE_SHARD
        policy.on_remove(victim);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        outcome.evicted.push(victim.to_path_buf());
    }

    /// Under global pressure, pick the next victim: tenants shrink in
    /// proportion to their quota share, so the tenant furthest over its
    /// share (unlimited tenants are measured against whole-device capacity)
    /// loses first; the policy keeps its own preference order *within* the
    /// chosen tenant. A replacing policy falls back to its unrestricted
    /// choice if no per-tenant search yields a victim. A policy that does
    /// not replace only considers tenants strictly further over their share
    /// than the inserting tenant `job` would be after landing `incoming` more
    /// bytes, so reclaim stops once the shares meet instead of trading
    /// entries back and forth.
    fn pressure_victim(
        &self,
        policy: &mut Box<dyn EvictionPolicy>,
        inserting: &Path,
        job: JobId,
        incoming: ByteSize,
    ) -> Option<PathBuf> {
        let cap = self.store.capacity().bytes().max(1) as f64;
        let share = |used: u64, quota: Option<ByteSize>| {
            used as f64 / quota.map_or(cap, |q| q.bytes().max(1) as f64)
        };
        let mut usage = self.store.tenant_usage();
        let floor = (!policy.replaces()).then(|| {
            let used = self.store.tenant_used(job) + incoming;
            share(used.bytes(), self.store.tenant_quota(job))
        });
        usage
            .retain(|u| u.resident > 0 && floor.is_none_or(|f| share(u.used.bytes(), u.quota) > f));
        usage.sort_by(|a, b| {
            share(b.used.bytes(), b.quota)
                .partial_cmp(&share(a.used.bytes(), a.quota))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for u in &usage {
            let tenant = u.job;
            let in_tenant = |k: &Path| split_tenant_key(k).0 == tenant && k != inserting;
            if let Some(v) = policy.victim_where(&in_tenant) {
                return Some(v);
            }
        }
        policy.replaces().then(|| policy.victim()).flatten()
    }

    /// Whether `path` is resident.
    pub fn contains(&self, path: &Path) -> bool {
        self.store.contains(path)
    }

    /// Size of a resident file.
    pub fn size_of(&self, path: &Path) -> Option<ByteSize> {
        self.store.size_of(path)
    }

    /// The size of `path` as far as the node knows without the PFS: a
    /// resident entry's size, else a size remembered by
    /// [`Self::remember_size`] since the last purge.
    pub fn known_size(&self, path: &Path) -> Option<u64> {
        match self.store.size_of(path) {
            Some(size) => Some(size.bytes()),
            None => self.sizes.read().get(path).copied(),
        }
    }

    /// Remember a size the PFS reported for `path` until the next purge.
    pub fn remember_size(&self, path: &Path, size: u64) {
        self.sizes.write().insert(path.to_path_buf(), size);
    }

    /// Read a whole resident file, updating recency. `None` = miss.
    pub fn read_all(&self, path: &Path) -> Option<Bytes> {
        let out = self.store.get(path)?;
        self.policy.lock().on_access(path);
        Some(out)
    }

    /// Explicitly drop one file.
    pub fn remove(&self, path: &Path) -> ByteSize {
        let freed = self.store.remove(path);
        self.policy.lock().on_remove(path);
        freed
    }

    /// Job teardown: drop everything, remembered sizes included.
    pub fn purge(&self) {
        self.sizes.write().clear();
        let mut policy = self.policy.lock();
        for p in self.store.resident_paths() {
            // lockgraph: acquires STORE_SHARD
            policy.on_remove(&p);
        }
        self.store.purge(); // lockgraph: acquires STORE_SHARD
    }

    /// Files currently resident.
    pub fn resident_count(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::{make_policy, FifoPolicy, LruPolicy};
    use hvac_types::EvictionPolicyKind;

    fn mgr(cap: u64, policy: Box<dyn EvictionPolicy>) -> CacheManager {
        CacheManager::new(LocalStore::in_memory(ByteSize(cap)), policy)
    }

    fn blob(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn insert_and_read_back() {
        let m = mgr(100, Box::new(FifoPolicy::new()));
        let p = Path::new("/a");
        let out = m.insert(p, blob(10, 1)).unwrap();
        assert!(out.evicted.is_empty());
        assert!(m.contains(p));
        assert_eq!(m.size_of(p), Some(ByteSize(10)));
        assert_eq!(m.read_all(p).unwrap().len(), 10);
        assert_eq!(m.read_all(Path::new("/nope")), None);
    }

    #[test]
    fn eviction_makes_room_fifo_order() {
        let m = mgr(30, Box::new(FifoPolicy::new()));
        m.insert(Path::new("/a"), blob(10, 1)).unwrap();
        m.insert(Path::new("/b"), blob(10, 2)).unwrap();
        m.insert(Path::new("/c"), blob(10, 3)).unwrap();
        // Full. Inserting /d (20 bytes) must evict /a then /b.
        let out = m.insert(Path::new("/d"), blob(20, 4)).unwrap();
        assert_eq!(out.evicted, vec![PathBuf::from("/a"), PathBuf::from("/b")]);
        assert_eq!(m.evictions(), 2);
        assert!(!m.contains(Path::new("/a")));
        assert!(m.contains(Path::new("/c")));
        assert!(m.contains(Path::new("/d")));
        assert_eq!(m.store().used(), ByteSize(30));
    }

    #[test]
    fn lru_eviction_prefers_cold_files() {
        let m = mgr(30, Box::new(LruPolicy::new()));
        m.insert(Path::new("/a"), blob(10, 1)).unwrap();
        m.insert(Path::new("/b"), blob(10, 2)).unwrap();
        m.insert(Path::new("/c"), blob(10, 3)).unwrap();
        m.read_all(Path::new("/a")).unwrap(); // warm /a; /b is coldest
        let out = m.insert(Path::new("/d"), blob(10, 4)).unwrap();
        assert_eq!(out.evicted, vec![PathBuf::from("/b")]);
    }

    #[test]
    fn oversized_file_fails_cleanly() {
        let m = mgr(10, Box::new(FifoPolicy::new()));
        m.insert(Path::new("/a"), blob(5, 1)).unwrap();
        let err = m.insert(Path::new("/huge"), blob(11, 2)).unwrap_err();
        assert!(matches!(err, HvacError::CapacityExhausted { .. }));
        // Nothing was evicted for a hopeless insert.
        assert!(m.contains(Path::new("/a")));
        assert_eq!(m.evictions(), 0);
    }

    #[test]
    fn purge_resets_everything() {
        let m = mgr(100, make_policy(EvictionPolicyKind::Random, 1));
        for i in 0..5 {
            m.insert(Path::new(&format!("/f{i}")), blob(10, i as u8))
                .unwrap();
        }
        m.purge();
        assert_eq!(m.resident_count(), 0);
        assert_eq!(m.store().used(), ByteSize::ZERO);
        // Policy is empty too: inserting one file then filling evicts it, not
        // a stale pre-purge path.
        m.insert(Path::new("/new"), blob(10, 9)).unwrap();
        assert_eq!(m.resident_count(), 1);
    }

    #[test]
    fn size_memo_answers_until_purge_and_stays_out_of_the_store() {
        let m = mgr(100, Box::new(FifoPolicy::new()));
        let (p, q) = (Path::new("/seg"), Path::new("/res"));
        assert_eq!(m.known_size(p), None);
        m.remember_size(p, 4096);
        m.insert(q, blob(10, 1)).unwrap();
        assert_eq!((m.known_size(p), m.known_size(q)), (Some(4096), Some(10)));
        // A remembered size is not an entry: no residency, bytes or victim.
        assert!(!m.contains(p));
        assert_eq!((m.resident_count(), m.store().used()), (1, ByteSize(10)));
        m.purge();
        assert_eq!((m.known_size(p), m.known_size(q)), (None, None));
    }

    #[test]
    fn random_policy_never_loses_capacity_under_churn() {
        let m = mgr(1_000, make_policy(EvictionPolicyKind::Random, 42));
        for i in 0..500 {
            let p = PathBuf::from(format!("/churn/{i}"));
            m.insert(&p, blob(97, (i % 251) as u8)).unwrap();
            assert!(m.store().used().bytes() <= 1_000);
        }
        // Store stays maximally packed: 10 files of 97 bytes fit in 1000.
        assert_eq!(m.resident_count(), 10);
        assert_eq!(m.evictions(), 490);
    }

    #[test]
    fn reinsert_same_path_does_not_self_evict_loop() {
        let m = mgr(10, Box::new(FifoPolicy::new()));
        m.insert(Path::new("/a"), blob(10, 1)).unwrap();
        // Replacing /a with an equal-size blob must succeed without errors.
        m.insert(Path::new("/a"), blob(10, 2)).unwrap();
        assert_eq!(m.read_all(Path::new("/a")).unwrap()[0], 2);
        assert_eq!(m.resident_count(), 1);
    }

    #[test]
    fn quota_pressure_evicts_only_the_offending_tenant() {
        use hvac_hash::pathhash::tenant_key;
        use hvac_types::JobId;
        let m = mgr(100, Box::new(FifoPolicy::new()));
        m.store().set_tenant_quota(JobId(1), Some(ByteSize(30)));
        let k = |job: u64, name: &str| tenant_key(JobId(job), Path::new(name));
        for i in 0..3 {
            m.insert(&k(1, &format!("/f{i}")), blob(10, i as u8))
                .unwrap();
        }
        m.insert(&k(2, "/g"), blob(10, 9)).unwrap();
        m.insert(Path::new("/legacy"), blob(10, 8)).unwrap();
        // Tenant 1 is at quota: one more insert evicts its own oldest file
        // and nobody else's, even though the device has plenty of room.
        let out = m.insert(&k(1, "/f3"), blob(10, 3)).unwrap();
        assert_eq!(out.evicted, vec![k(1, "/f0")]);
        assert!(m.contains(&k(2, "/g")));
        assert!(m.contains(Path::new("/legacy")));
        assert_eq!(m.store().tenant_used(JobId(1)), ByteSize(30));
        // A single file larger than the quota can never fit.
        let err = m.insert(&k(1, "/huge"), blob(31, 0)).unwrap_err();
        assert!(matches!(
            err,
            HvacError::CapacityExhausted { capacity: 30, .. }
        ));
        // ... and nothing was evicted for the hopeless attempt.
        assert_eq!(m.store().tenant_used(JobId(1)), ByteSize(30));
    }

    #[test]
    fn global_pressure_shrinks_the_most_over_share_tenant() {
        use hvac_hash::pathhash::tenant_key;
        use hvac_types::JobId;
        let m = mgr(100, Box::new(FifoPolicy::new()));
        m.store().set_tenant_quota(JobId(1), Some(ByteSize(50)));
        m.store().set_tenant_quota(JobId(2), Some(ByteSize(50)));
        let k = |job: u64, name: &str| tenant_key(JobId(job), Path::new(name));
        for i in 0..5 {
            m.insert(&k(1, &format!("/a{i}")), blob(10, 1)).unwrap();
        }
        for i in 0..3 {
            m.insert(&k(2, &format!("/b{i}")), blob(10, 2)).unwrap();
        }
        m.insert(Path::new("/l0"), blob(10, 3)).unwrap();
        m.insert(Path::new("/l1"), blob(10, 3)).unwrap();
        assert_eq!(m.store().used(), ByteSize(100), "device full");
        // Job 2 is inside its own quota, so this is global pressure; job 1
        // sits at 100% of its share (vs 60% and 20%) and pays first.
        let out = m.insert(&k(2, "/b3"), blob(10, 2)).unwrap();
        assert_eq!(out.evicted, vec![k(1, "/a0")]);
        assert_eq!(m.store().tenant_used(JobId(1)), ByteSize(40));
        assert_eq!(m.store().tenant_used(JobId(2)), ByteSize(40));
        assert_eq!(m.store().tenant_used(JobId::DEFAULT), ByteSize(20));
    }

    #[test]
    fn pinned_policy_reclaims_across_tenants_but_never_within_one() {
        use hvac_hash::pathhash::tenant_key;
        use hvac_types::JobId;
        let m = mgr(100, make_policy(EvictionPolicyKind::MinIo, 1));
        let k = |job: u64, i: u64| tenant_key(JobId(job), Path::new(&format!("/f{i}")));
        let used = |job: u64| m.store().tenant_used(JobId(job)).bytes();
        for i in 0..10 {
            m.insert(&k(1, i), blob(10, 1)).unwrap();
        }
        // A lone tenant on a full device is refused, never replaces.
        assert!(m.insert(&k(1, 10), blob(10, 1)).is_err());
        assert_eq!(m.evictions(), 0);
        // Job 2 (no quota either) reclaims job 1's newest entries until the
        // two shares meet.
        let admitted = (0..10)
            .filter(|&i| m.insert(&k(2, i), blob(10, 2)).is_ok())
            .count() as u64;
        assert!(admitted > 0, "job 2 starved on a node job 1 filled");
        assert!(
            used(1).abs_diff(used(2)) <= 10,
            "{} vs {}",
            used(1),
            used(2)
        );
        assert_eq!((m.evictions(), used(2)), (admitted, 10 * admitted));
        for i in 0..10 - admitted {
            assert!(m.contains(&k(1, i)), "job 1's first-admitted prefix stays");
        }
        // Once the shares meet, neither job gets in, and neither loses an
        // entry of its own.
        let resident: Vec<_> = (0..10)
            .map(|i| (m.contains(&k(1, i)), m.contains(&k(2, i))))
            .collect();
        for job in [1, 2] {
            assert!(m.insert(&k(job, 99), blob(10, 3)).is_err(), "job {job}");
        }
        assert_eq!(m.evictions(), admitted);
        let after: Vec<_> = (0..10)
            .map(|i| (m.contains(&k(1, i)), m.contains(&k(2, i))))
            .collect();
        assert_eq!(resident, after);
    }

    #[test]
    fn concurrent_inserts_stay_within_capacity() {
        use std::sync::Arc;
        let m = Arc::new(mgr(500, make_policy(EvictionPolicyKind::Random, 7)));
        let mut joins = Vec::new();
        for t in 0..4 {
            let m = m.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..100 {
                    m.insert(Path::new(&format!("/t{t}/f{i}")), blob(50, 1))
                        .unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(m.store().used().bytes() <= 500);
        assert_eq!(m.resident_count(), 10);
    }
}
