//! Cache eviction policies.
//!
//! The paper (§III-G): *"Currently, HVAC is designed to perform eviction and
//! replacement randomly and various cache-eviction and replacement policies
//! can be considered."* The default here is CoorDL's MinIO instead
//! ([`MinIoPolicy`]; DESIGN §3): a training epoch reads each sample once in
//! a fresh shuffle, so replacing an entry trades one that may still be read
//! this epoch for one that will not be. A full node refuses further inserts
//! and serves those misses from the PFS. [`RandomPolicy`] (the paper's),
//! FIFO, LRU and LFU stay selectable as the "various policies" for the
//! ablation bench.
//!
//! A policy only tracks *which* resident file to sacrifice; the byte
//! accounting lives in [`hvac_storage::LocalStore`], and the orchestration in
//! [`crate::cache::CacheManager`]. Policies are not thread-safe by themselves
//! — the cache manager serializes calls under its own lock.

use hvac_types::EvictionPolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Victim-selection interface.
pub trait EvictionPolicy: Send {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// A file became resident.
    fn on_insert(&mut self, path: &Path);

    /// A resident file was read.
    fn on_access(&mut self, path: &Path);

    /// A file left the cache (evicted or explicitly removed).
    fn on_remove(&mut self, path: &Path);

    /// Choose the next victim among resident files, or `None` if empty.
    /// The chosen path stays tracked until `on_remove` is called.
    fn victim(&mut self) -> Option<PathBuf>;

    /// [`victim`](Self::victim) restricted to files satisfying `eligible` —
    /// the same preference order, applied to a sub-population. The cache
    /// manager uses this to confine eviction to one tenant's keys.
    fn victim_where(&mut self, eligible: &dyn Fn(&Path) -> bool) -> Option<PathBuf>;

    /// Whether the policy replaces a tenant's entries with its own newer
    /// ones. A policy that does not ([`MinIoPolicy`]) only gives entries up
    /// across tenants, to one under its share (DESIGN §14); its victim
    /// order is then the reclaim order.
    fn replaces(&self) -> bool {
        true
    }

    /// Number of tracked files (for invariant checks).
    fn len(&self) -> usize;

    /// Whether nothing is tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared bookkeeping: a dense vector of paths with O(1) removal by
/// swap-remove, plus a path→slot map. Random/FIFO/LRU/LFU all build on it.
#[derive(Debug, Default)]
struct Slab {
    paths: Vec<PathBuf>,
    slots: HashMap<PathBuf, usize>,
}

impl Slab {
    fn insert(&mut self, path: &Path) {
        if self.slots.contains_key(path) {
            return;
        }
        self.slots.insert(path.to_path_buf(), self.paths.len());
        self.paths.push(path.to_path_buf());
    }

    fn remove(&mut self, path: &Path) {
        if let Some(slot) = self.slots.remove(path) {
            self.paths.swap_remove(slot);
            if slot < self.paths.len() {
                let moved = self.paths[slot].clone();
                self.slots.insert(moved, slot);
            }
        }
    }

    fn len(&self) -> usize {
        self.paths.len()
    }
}

/// Uniformly random victim — the paper's default.
pub struct RandomPolicy {
    slab: Slab,
    rng: StdRng,
}

impl RandomPolicy {
    /// Deterministic policy from a seed (experiments fix seeds).
    pub fn new(seed: u64) -> Self {
        Self {
            slab: Slab::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl EvictionPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }
    fn on_insert(&mut self, path: &Path) {
        self.slab.insert(path);
    }
    fn on_access(&mut self, _path: &Path) {}
    fn on_remove(&mut self, path: &Path) {
        self.slab.remove(path);
    }
    fn victim(&mut self) -> Option<PathBuf> {
        if self.slab.paths.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.slab.paths.len());
        Some(self.slab.paths[idx].clone())
    }
    fn victim_where(&mut self, eligible: &dyn Fn(&Path) -> bool) -> Option<PathBuf> {
        let idxs: Vec<usize> = (0..self.slab.paths.len())
            .filter(|&i| eligible(&self.slab.paths[i]))
            .collect();
        if idxs.is_empty() {
            return None;
        }
        let pick = idxs[self.rng.gen_range(0..idxs.len())];
        Some(self.slab.paths[pick].clone())
    }
    fn len(&self) -> usize {
        self.slab.len()
    }
}

/// First-in, first-out.
#[derive(Default)]
pub struct FifoPolicy {
    /// Admission-ordered slots, each stamped with its admission sequence.
    /// Removal is lazy: a slot is live only while `resident` maps its path
    /// to the same sequence, so a path removed and admitted again is aged
    /// from its new slot, not its stale older one.
    order: std::collections::VecDeque<(u64, PathBuf)>,
    resident: HashMap<PathBuf, u64>,
    next_seq: u64,
}

impl FifoPolicy {
    /// Empty FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_live(&self, (seq, path): &(u64, PathBuf)) -> bool {
        self.resident.get(path) == Some(seq)
    }
}

impl EvictionPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn on_insert(&mut self, path: &Path) {
        if !self.resident.contains_key(path) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.resident.insert(path.to_path_buf(), seq);
            self.order.push_back((seq, path.to_path_buf()));
        }
    }
    fn on_access(&mut self, _path: &Path) {}
    fn on_remove(&mut self, path: &Path) {
        self.resident.remove(path);
        // Lazy removal: stale slots are skipped in victim().
    }
    fn victim(&mut self) -> Option<PathBuf> {
        while let Some(front) = self.order.front() {
            if self.is_live(front) {
                return Some(front.1.clone());
            }
            self.order.pop_front();
        }
        None
    }
    fn victim_where(&mut self, eligible: &dyn Fn(&Path) -> bool) -> Option<PathBuf> {
        // Oldest eligible entry; live-but-ineligible entries keep their
        // queue positions (only stale slots at the front are dropped).
        while let Some(front) = self.order.front() {
            if self.is_live(front) {
                break;
            }
            self.order.pop_front();
        }
        self.order
            .iter()
            .find(|slot| self.is_live(slot) && eligible(&slot.1))
            .map(|slot| slot.1.clone())
    }
    fn len(&self) -> usize {
        self.resident.len()
    }
}

/// Least-recently-used, tracked with a logical clock.
#[derive(Default)]
pub struct LruPolicy {
    clock: u64,
    last_use: HashMap<PathBuf, u64>,
}

impl LruPolicy {
    /// Empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }
    fn on_insert(&mut self, path: &Path) {
        let t = self.tick();
        self.last_use.insert(path.to_path_buf(), t);
    }
    fn on_access(&mut self, path: &Path) {
        let t = self.tick();
        if let Some(entry) = self.last_use.get_mut(path) {
            *entry = t;
        }
    }
    fn on_remove(&mut self, path: &Path) {
        self.last_use.remove(path);
    }
    fn victim(&mut self) -> Option<PathBuf> {
        self.last_use
            .iter()
            .min_by_key(|(_, &t)| t)
            .map(|(p, _)| p.clone())
    }
    fn victim_where(&mut self, eligible: &dyn Fn(&Path) -> bool) -> Option<PathBuf> {
        self.last_use
            .iter()
            .filter(|(p, _)| eligible(p))
            .min_by_key(|(_, &t)| t)
            .map(|(p, _)| p.clone())
    }
    fn len(&self) -> usize {
        self.last_use.len()
    }
}

/// Least-frequently-used with logical-time tiebreak (older first).
#[derive(Default)]
pub struct LfuPolicy {
    clock: u64,
    entries: HashMap<PathBuf, (u64, u64)>, // (uses, inserted_at)
}

impl LfuPolicy {
    /// Empty LFU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        "lfu"
    }
    fn on_insert(&mut self, path: &Path) {
        self.clock += 1;
        let t = self.clock;
        self.entries.entry(path.to_path_buf()).or_insert((0, t));
    }
    fn on_access(&mut self, path: &Path) {
        if let Some((uses, _)) = self.entries.get_mut(path) {
            *uses += 1;
        }
    }
    fn on_remove(&mut self, path: &Path) {
        self.entries.remove(path);
    }
    fn victim(&mut self) -> Option<PathBuf> {
        self.entries
            .iter()
            .min_by_key(|(_, &(uses, t))| (uses, t))
            .map(|(p, _)| p.clone())
    }
    fn victim_where(&mut self, eligible: &dyn Fn(&Path) -> bool) -> Option<PathBuf> {
        self.entries
            .iter()
            .filter(|(p, _)| eligible(p))
            .min_by_key(|(_, &(uses, t))| (uses, t))
            .map(|(p, _)| p.clone())
    }
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// CoorDL's MinIO, the default: never replace. Once the cache fills,
/// further inserts are refused and the server serves those files from the
/// PFS directly — so a *stable* subset of the dataset is always
/// cache-resident, instead of the whole dataset churning (the §V-cited
/// design). Its victims are only for cross-tenant reclaim, newest-admitted
/// first, so the first-admitted prefix is the last to go.
#[derive(Default)]
pub struct MinIoPolicy {
    clock: u64,
    admitted_at: HashMap<PathBuf, u64>,
}

impl MinIoPolicy {
    /// Empty pinned-cache policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for MinIoPolicy {
    fn name(&self) -> &'static str {
        "minio"
    }
    fn on_insert(&mut self, path: &Path) {
        self.clock += 1;
        let t = self.clock;
        self.admitted_at.entry(path.to_path_buf()).or_insert(t);
    }
    fn on_access(&mut self, _path: &Path) {}
    fn on_remove(&mut self, path: &Path) {
        self.admitted_at.remove(path);
    }
    fn victim(&mut self) -> Option<PathBuf> {
        self.victim_where(&|_| true)
    }
    fn victim_where(&mut self, eligible: &dyn Fn(&Path) -> bool) -> Option<PathBuf> {
        self.admitted_at
            .iter()
            .filter(|(p, _)| eligible(p))
            .max_by_key(|(_, &t)| t)
            .map(|(p, _)| p.clone())
    }
    fn replaces(&self) -> bool {
        false
    }
    fn len(&self) -> usize {
        self.admitted_at.len()
    }
}

/// Construct the policy selected by an [`EvictionPolicyKind`]; `seed` only
/// affects [`RandomPolicy`].
pub fn make_policy(kind: EvictionPolicyKind, seed: u64) -> Box<dyn EvictionPolicy> {
    match kind {
        EvictionPolicyKind::Random => Box::new(RandomPolicy::new(seed)),
        EvictionPolicyKind::Fifo => Box::new(FifoPolicy::new()),
        EvictionPolicyKind::Lru => Box::new(LruPolicy::new()),
        EvictionPolicyKind::Lfu => Box::new(LfuPolicy::new()),
        EvictionPolicyKind::MinIo => Box::new(MinIoPolicy::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn all_policies() -> Vec<Box<dyn EvictionPolicy>> {
        vec![
            Box::new(RandomPolicy::new(42)),
            Box::new(FifoPolicy::new()),
            Box::new(LruPolicy::new()),
            Box::new(LfuPolicy::new()),
            Box::new(MinIoPolicy::new()),
        ]
    }

    #[test]
    fn empty_policy_has_no_victim() {
        for mut pol in all_policies() {
            assert!(pol.victim().is_none(), "{}", pol.name());
            assert!(pol.is_empty());
        }
    }

    #[test]
    fn victim_is_always_resident() {
        for mut pol in all_policies() {
            for i in 0..20 {
                pol.on_insert(&p(&format!("/f{i}")));
            }
            for i in (0..20).step_by(2) {
                pol.on_remove(&p(&format!("/f{i}")));
            }
            assert_eq!(pol.len(), 10, "{}", pol.name());
            for _ in 0..10 {
                let v = pol.victim().unwrap();
                let idx: usize = v.to_str().unwrap()[2..].parse().unwrap();
                assert_eq!(idx % 2, 1, "{} chose removed file {v:?}", pol.name());
                pol.on_remove(&v);
            }
            assert!(pol.victim().is_none());
        }
    }

    #[test]
    fn fifo_evicts_in_insertion_order() {
        let mut pol = FifoPolicy::new();
        pol.on_insert(&p("/a"));
        pol.on_insert(&p("/b"));
        pol.on_insert(&p("/c"));
        pol.on_access(&p("/a")); // access is irrelevant to FIFO
        assert_eq!(pol.victim().unwrap(), p("/a"));
        pol.on_remove(&p("/a"));
        assert_eq!(pol.victim().unwrap(), p("/b"));
    }

    #[test]
    fn fifo_ages_a_readmitted_path_from_its_new_slot() {
        let mut pol = FifoPolicy::new();
        pol.on_insert(&p("/a"));
        pol.on_insert(&p("/b"));
        pol.on_remove(&p("/a"));
        pol.on_insert(&p("/c"));
        pol.on_insert(&p("/a"));
        assert_eq!(pol.victim().unwrap(), p("/b"));
        assert_eq!(
            pol.victim_where(&|x| x != Path::new("/b")).unwrap(),
            p("/c")
        );
        assert_eq!(pol.len(), 3);
    }

    #[test]
    fn lru_respects_recency() {
        let mut pol = LruPolicy::new();
        pol.on_insert(&p("/a"));
        pol.on_insert(&p("/b"));
        pol.on_insert(&p("/c"));
        pol.on_access(&p("/a")); // /a is now most recent; /b is LRU
        assert_eq!(pol.victim().unwrap(), p("/b"));
        pol.on_remove(&p("/b"));
        pol.on_access(&p("/c"));
        assert_eq!(pol.victim().unwrap(), p("/a"));
    }

    #[test]
    fn lfu_respects_frequency_with_age_tiebreak() {
        let mut pol = LfuPolicy::new();
        pol.on_insert(&p("/a"));
        pol.on_insert(&p("/b"));
        pol.on_access(&p("/a"));
        pol.on_access(&p("/a"));
        pol.on_access(&p("/b"));
        assert_eq!(pol.victim().unwrap(), p("/b"));
        // Tie: equal frequencies -> the older insert loses.
        let mut tie = LfuPolicy::new();
        tie.on_insert(&p("/old"));
        tie.on_insert(&p("/new"));
        assert_eq!(tie.victim().unwrap(), p("/old"));
    }

    #[test]
    fn random_is_deterministic_per_seed_and_covers_all_entries() {
        let run = |seed: u64| {
            let mut pol = RandomPolicy::new(seed);
            for i in 0..8 {
                pol.on_insert(&p(&format!("/f{i}")));
            }
            let mut order = Vec::new();
            while let Some(v) = pol.victim() {
                pol.on_remove(&v);
                order.push(v);
            }
            order
        };
        assert_eq!(run(7), run(7));
        let a = run(1);
        assert_eq!(a.len(), 8);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "each file evicted exactly once");
        // Different seeds eventually disagree (overwhelmingly likely).
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        for mut pol in all_policies() {
            pol.on_insert(&p("/a"));
            pol.on_insert(&p("/a"));
            assert_eq!(pol.len(), 1, "{}", pol.name());
            pol.on_remove(&p("/a"));
            assert_eq!(pol.len(), 0, "{}", pol.name());
            assert!(pol.victim().is_none(), "{}", pol.name());
        }
    }

    #[test]
    fn victim_where_respects_the_restriction_and_the_order() {
        for mut pol in all_policies() {
            for i in 0..10 {
                pol.on_insert(&p(&format!("/t{}/f{i}", i % 2)));
            }
            let only_t1 = |path: &Path| path.starts_with("/t1");
            // Drain the restricted population: every victim matches, and the
            // restriction never returns files outside it.
            for _ in 0..5 {
                let v = pol.victim_where(&only_t1).unwrap();
                assert!(only_t1(&v), "{} chose {v:?}", pol.name());
                pol.on_remove(&v);
            }
            assert!(pol.victim_where(&only_t1).is_none(), "{}", pol.name());
            assert_eq!(pol.len(), 5, "{}: /t0 files untouched", pol.name());
        }
        // Order agreement: the restricted choice follows the policy's own
        // preference, not just any eligible entry.
        let mut fifo = FifoPolicy::new();
        let mut lru = LruPolicy::new();
        for n in ["/t0/a", "/t1/b", "/t1/c"] {
            fifo.on_insert(&p(n));
            lru.on_insert(&p(n));
        }
        lru.on_access(&p("/t1/b"));
        assert_eq!(
            fifo.victim_where(&|x| x.starts_with("/t1")).unwrap(),
            p("/t1/b")
        );
        assert_eq!(
            lru.victim_where(&|x| x.starts_with("/t1")).unwrap(),
            p("/t1/c")
        );
        // MinIO reclaims newest-admitted first, so the prefix it pinned
        // first is the last to go; re-admitting a resident entry keeps its
        // place.
        let mut pinned = MinIoPolicy::new();
        for n in ["/t0/a", "/t1/b", "/t1/c", "/t0/d", "/t1/b"] {
            pinned.on_insert(&p(n));
        }
        assert_eq!(
            pinned.victim_where(&|x| x.starts_with("/t1")).unwrap(),
            p("/t1/c")
        );
        assert_eq!(pinned.victim().unwrap(), p("/t0/d"));
    }

    #[test]
    fn make_policy_covers_all_kinds() {
        for kind in [
            EvictionPolicyKind::Random,
            EvictionPolicyKind::Fifo,
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Lfu,
            EvictionPolicyKind::MinIo,
        ] {
            let mut pol = make_policy(kind, 3);
            pol.on_insert(&p("/x"));
            assert_eq!(pol.victim().unwrap(), p("/x"));
            assert_eq!(
                pol.replaces(),
                kind != EvictionPolicyKind::MinIo,
                "{kind:?}"
            );
        }
        // The default never replaces; its reclaim order is newest first,
        // where FIFO's is oldest first.
        assert_eq!(EvictionPolicyKind::default(), EvictionPolicyKind::MinIo);
        let mut pinned = make_policy(EvictionPolicyKind::default(), 3);
        let mut fifo = make_policy(EvictionPolicyKind::Fifo, 3);
        for n in ["/x", "/y"] {
            pinned.on_insert(&p(n));
            fifo.on_insert(&p(n));
        }
        assert_eq!(
            (pinned.victim().unwrap(), fifo.victim().unwrap()),
            (p("/y"), p("/x"))
        );
        pinned.on_remove(&p("/y"));
        assert_eq!(pinned.victim().unwrap(), p("/x"));
        assert_eq!(pinned.len(), 1);
    }
}
