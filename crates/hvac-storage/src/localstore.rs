//! One node's NVMe cache: a capacity-accounted path→bytes store.
//!
//! The HVAC server's data mover copies files from the PFS into this store on
//! first access (paper §III-D step ⑥, `fs::copy(src, dst)`), and serves all
//! later reads from it. Capacity is enforced here; choosing a victim when
//! full is the cache manager's job (`hvac-core::eviction`).
//!
//! **Lock striping.** The entry map is split into a power-of-two number of
//! shards (default ~2× the machine's cores), each behind its own
//! [`hvac_sync::OrderedRwLock`] of class `STORE_SHARD`; a path's shard is
//! chosen by its hash. Readers of *different* shards never contend, readers
//! of the *same* shard share a read guard, and only same-shard writers
//! serialize — which is what lets a 16-rank node read at aggregate-NVMe
//! speed instead of one file at a time. Capacity accounting moved out of
//! the (formerly global) lock into atomics: an insert *reserves* its bytes
//! with a CAS loop before touching any shard, so `used()` can never exceed
//! `capacity()` no matter how many writers race.
//!
//! An optional [`DeviceModel`] arms per-shard *service-time emulation* for
//! benchmarks: each read then holds its shard's device-queue mutex (class
//! `STORE_DEVICE_QUEUE`, strictly innermost) for the modeled service time,
//! so reads serialize within a shard and overlap across shards exactly like
//! queue-per-LUN hardware.
//!
//! **Multi-tenancy.** Keys under `hvac_hash::pathhash::TENANT_PREFIX` belong
//! to a non-default tenant (job); everything else is the legacy/default
//! namespace (job 0). The store keeps per-tenant used/resident/hit/miss
//! accounting and optional per-tenant byte quotas: an insert must reserve
//! its bytes against the tenant's quota *and* the global capacity, so one
//! over-quota tenant fails fast without disturbing its neighbours. The
//! tenant table sits behind a `STORE_TENANT` lock, but the counters are
//! shared `Arc`ed relaxed atomics, so the read path never takes it — and
//! the default namespace reaches its slot without any lock at all.

use crate::device::DeviceModel;
use bytes::Bytes;
use hvac_hash::pathhash::{hash_path, split_tenant_key, TENANT_PREFIX};
use hvac_sync::{classes, OrderedMutex, OrderedRwLock};
use hvac_types::{ByteSize, HvacError, JobId, JobWeights, Result};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where the cached bytes physically live.
#[derive(Debug, Clone)]
pub enum Backing {
    /// In memory — fast, hermetic; the default for tests and simulation-free
    /// functional runs.
    Memory,
    /// In a real directory (one file per cached path), mirroring the paper's
    /// `fs::copy` onto the XFS-formatted NVMe.
    Directory(PathBuf),
}

#[derive(Debug)]
struct Entry {
    size: ByteSize,
    data: Option<Bytes>,   // Memory backing
    disk: Option<PathBuf>, // Directory backing
    /// Whole-file reads served from this entry since it was inserted
    /// (replacement resets it). The repair scrubber uses this as its
    /// priority signal: hot files are re-replicated first.
    hits: AtomicU64,
}

type ShardMap = HashMap<PathBuf, Entry>;

/// Live per-tenant accounting. Counters are relaxed atomics reached through
/// a shared `Arc`, so the hot read path bumps them without any store lock;
/// the reserve CAS makes the per-tenant quota check-and-add atomic exactly
/// like the store-wide one.
#[derive(Debug)]
struct TenantStat {
    used: AtomicU64,
    resident: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Byte quota; `u64::MAX` means unlimited.
    quota: AtomicU64,
}

impl Default for TenantStat {
    fn default() -> Self {
        Self {
            used: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quota: AtomicU64::new(u64::MAX),
        }
    }
}

impl TenantStat {
    fn try_reserve(&self, size: ByteSize) -> bool {
        let quota = self.quota.load(Ordering::Relaxed);
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                used.checked_add(size.bytes()).filter(|&u| u <= quota)
            })
            .is_ok()
    }

    fn release(&self, size: ByteSize) {
        self.used.fetch_sub(size.bytes(), Ordering::Relaxed);
    }

    /// Release one resident entry's accounting (bytes and the entry count).
    fn drop_entry(&self, size: ByteSize) {
        self.release(size);
        self.resident.fetch_sub(1, Ordering::Relaxed);
    }

    fn snapshot(&self, job: JobId) -> TenantUsage {
        TenantUsage {
            job,
            used: ByteSize(self.used.load(Ordering::Relaxed)),
            resident: self.resident.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quota: match self.quota.load(Ordering::Relaxed) {
                u64::MAX => None,
                q => Some(ByteSize(q)),
            },
        }
    }
}

/// A point-in-time view of one tenant's footprint in this store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantUsage {
    pub job: JobId,
    pub used: ByteSize,
    pub resident: u64,
    pub hits: u64,
    pub misses: u64,
    /// Configured byte quota, if any.
    pub quota: Option<ByteSize>,
}

/// Optional simulated-device service: one queue mutex per shard, so service
/// times serialize within a shard and overlap across shards.
struct DeviceService {
    model: DeviceModel,
    queues: Vec<OrderedMutex<()>>,
}

/// The default shard count for this machine: at least 8, about twice the
/// available cores, rounded up to a power of two (so shard selection is a
/// mask, not a division).
pub fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (2 * cores).max(8).next_power_of_two()
}

/// A single node-local cache store, lock-striped across `shards` shards.
pub struct LocalStore {
    backing: Backing,
    shards: Vec<OrderedRwLock<ShardMap>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    capacity: ByteSize,
    /// Bytes accounted. Inserts reserve via CAS *before* mutating a shard,
    /// so this never exceeds `capacity` (relaxed ordering is enough: the
    /// invariant rides on RMW atomicity, not on cross-location ordering).
    used: AtomicU64,
    insert_seq: AtomicU64,
    /// Per-tenant accounting slots, keyed by job id. Guards only slot
    /// creation, quota updates and enumeration — never held across a shard
    /// lock acquisition; counters travel out as `Arc`s.
    tenants: OrderedRwLock<HashMap<u64, Arc<TenantStat>>>,
    /// The default namespace's slot, reachable without taking `tenants`.
    default_tenant: Arc<TenantStat>,
    device: Option<DeviceService>,
}

impl LocalStore {
    /// An in-memory store of the given capacity with the default shard
    /// count.
    pub fn in_memory(capacity: ByteSize) -> Self {
        Self::in_memory_striped(capacity, default_shard_count())
    }

    /// An in-memory store with an explicit shard count (rounded up to a
    /// power of two; `1` yields the old single-lock behaviour, which the
    /// stripe benchmarks and equivalence property tests compare against).
    pub fn in_memory_striped(capacity: ByteSize, shards: usize) -> Self {
        Self::build(Backing::Memory, capacity, shards)
    }

    /// A directory-backed store of the given capacity rooted at `dir`
    /// (created if missing), with the default shard count.
    pub fn on_directory<P: Into<PathBuf>>(dir: P, capacity: ByteSize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self::build(
            Backing::Directory(dir),
            capacity,
            default_shard_count(),
        ))
    }

    fn build(backing: Backing, capacity: ByteSize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| OrderedRwLock::new(classes::STORE_SHARD, ShardMap::new()))
            .collect();
        Self {
            backing,
            shards,
            mask: (n - 1) as u64,
            capacity,
            used: AtomicU64::new(0),
            insert_seq: AtomicU64::new(0),
            tenants: OrderedRwLock::new(classes::STORE_TENANT, HashMap::new()),
            default_tenant: Arc::new(TenantStat::default()),
            device: None,
        }
    }

    /// Arm per-shard device service-time emulation: every read then holds
    /// its shard's device queue for `model.read_time(size)`. Benchmark-only
    /// knob — the functional cluster never arms it.
    pub fn set_device_model(&mut self, model: DeviceModel) {
        let queues = (0..self.shards.len())
            .map(|_| OrderedMutex::new(classes::STORE_DEVICE_QUEUE, ()))
            .collect();
        self.device = Some(DeviceService { model, queues });
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a path maps to (exposed so callers — the stripe
    /// benchmarks, the server's inflight table — can align their own
    /// striping with the store's).
    pub fn shard_of(&self, path: &Path) -> usize {
        (hash_path(path).0 & self.mask) as usize
    }

    /// Reserve `size` bytes against capacity; the CAS makes the check-and-
    /// add atomic, so concurrent writers can never overshoot.
    fn try_reserve(&self, size: ByteSize) -> bool {
        let cap = self.capacity.bytes();
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                used.checked_add(size.bytes()).filter(|&u| u <= cap)
            })
            .is_ok()
    }

    fn release(&self, size: ByteSize) {
        self.used.fetch_sub(size.bytes(), Ordering::Relaxed);
    }

    /// Get-or-create the accounting slot for a job.
    fn tenant(&self, job: JobId) -> Arc<TenantStat> {
        if job.is_default() {
            return self.default_tenant.clone();
        }
        if let Some(t) = self.tenants.read().get(&job.0) {
            return t.clone();
        }
        self.tenants.write().entry(job.0).or_default().clone()
    }

    /// Look up a slot without creating it.
    fn tenant_peek(&self, job: JobId) -> Option<Arc<TenantStat>> {
        if job.is_default() {
            return Some(self.default_tenant.clone());
        }
        self.tenants.read().get(&job.0).cloned()
    }

    /// The accounting slot a store key belongs to. Keys outside the reserved
    /// tenant prefix — every legacy key — resolve without taking any lock.
    fn tenant_for_key(&self, key: &Path) -> Arc<TenantStat> {
        if !key.starts_with(TENANT_PREFIX) {
            return self.default_tenant.clone();
        }
        self.tenant(split_tenant_key(key).0)
    }

    /// Set (or clear, with `None`) a tenant's byte quota. Quotas bound new
    /// reservations only; bytes already resident are never dropped here —
    /// shrinking below current use just makes further inserts fail until
    /// the cache manager evicts the tenant back under its line.
    pub fn set_tenant_quota(&self, job: JobId, quota: Option<ByteSize>) {
        self.tenant(job)
            .quota
            .store(quota.map_or(u64::MAX, |q| q.bytes()), Ordering::Relaxed);
    }

    /// Apply a [`JobWeights`] plan: every listed share gets
    /// `quota_frac × capacity` bytes (explicit `@frac`, or its proportional
    /// weight share by default). Unlisted jobs stay unlimited.
    pub fn set_tenant_quotas(&self, weights: &JobWeights) {
        for share in &weights.shares {
            if let Some(frac) = weights.quota_frac_of(share.job) {
                let bytes = (self.capacity.bytes() as f64 * frac).floor() as u64;
                self.set_tenant_quota(JobId(share.job), Some(ByteSize(bytes)));
            }
        }
    }

    /// Bytes a tenant currently has resident.
    pub fn tenant_used(&self, job: JobId) -> ByteSize {
        ByteSize(
            self.tenant_peek(job)
                .map_or(0, |t| t.used.load(Ordering::Relaxed)),
        )
    }

    /// A tenant's configured quota, if any.
    pub fn tenant_quota(&self, job: JobId) -> Option<ByteSize> {
        let t = self.tenant_peek(job)?;
        match t.quota.load(Ordering::Relaxed) {
            u64::MAX => None,
            q => Some(ByteSize(q)),
        }
    }

    /// Whether landing `incoming` more bytes would push `job` past its
    /// quota (always `false` for unlimited tenants). The cache manager uses
    /// this to keep quota-driven eviction inside the offending tenant.
    pub fn tenant_over_quota(&self, job: JobId, incoming: ByteSize) -> bool {
        let Some(t) = self.tenant_peek(job) else {
            return false;
        };
        let quota = t.quota.load(Ordering::Relaxed);
        quota != u64::MAX && t.used.load(Ordering::Relaxed) + incoming.bytes() > quota
    }

    /// Per-tenant usage snapshots (default namespace first, then by job id).
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        let mut out = vec![self.default_tenant.snapshot(JobId::DEFAULT)];
        out.extend(
            self.tenants
                .read()
                .iter()
                .map(|(job, t)| t.snapshot(JobId(*job))),
        );
        out.sort_by_key(|u| u.job.0);
        out
    }

    /// Hold the shard's device queue for the modeled service time of one
    /// read of `size` bytes (no-op unless a [`DeviceModel`] is armed).
    fn service_read(&self, shard: usize, size: ByteSize) {
        if let Some(dev) = &self.device {
            let _queue = dev.queues[shard].lock();
            let t = dev.model.read_time(size).as_secs_f64();
            if t > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(t));
            }
        }
    }

    /// Put a displaced old copy back after a failed replacement. If a
    /// concurrent insert claimed the path while we were failing, the newer
    /// copy wins and the old one is dropped with its accounting (outside the
    /// shard guard — STORE_TENANT accounting never runs under STORE_SHARD).
    fn restore_entry(&self, shard: usize, path: &Path, old: Entry) {
        use std::collections::hash_map::Entry as Slot;
        let displaced = match self.shards[shard].write().entry(path.to_path_buf()) {
            Slot::Vacant(slot) => {
                slot.insert(old);
                None
            }
            Slot::Occupied(_) => Some(old),
        };
        if let Some(old) = displaced {
            self.delete_backing(&old);
            self.release(old.size);
            self.tenant_for_key(path).drop_entry(old.size);
        }
    }

    /// Insert a file. Fails with [`HvacError::CapacityExhausted`] if it does
    /// not fit globally *or* would push its tenant past a configured quota
    /// (the caller should evict and retry; the cache manager keeps
    /// quota-driven eviction inside the offending tenant). Replacing an
    /// existing path reserves only the *growth* over the resident copy, and
    /// a rejected insert leaves the resident copy exactly as it was.
    pub fn insert(&self, path: &Path, data: Bytes) -> Result<()> {
        let size = ByteSize(data.len() as u64);
        let shard = self.shard_of(path);
        let tenant = self.tenant_for_key(path);
        // Pull any old copy out of the map but keep its bytes accounted
        // until the replacement commits: a failed reservation restores it
        // untouched instead of clobbering resident data. The shard guard is
        // released between the critical sections — STORE_TENANT accounting
        // must never run under STORE_SHARD.
        let old = self.shards[shard].write().remove(path);
        let old_size = old.as_ref().map_or(0, |e| e.size.bytes());
        // A shrinking (or same-size) replacement always has headroom; only
        // reserve when the entry grows, so it still succeeds for a tenant
        // whose quota was lowered below its current use.
        let growth = ByteSize(size.bytes().saturating_sub(old_size));
        if growth.bytes() > 0 {
            let quota = tenant.quota.load(Ordering::Relaxed);
            if !tenant.try_reserve(growth) {
                if let Some(old) = old {
                    self.restore_entry(shard, path, old);
                }
                return Err(HvacError::CapacityExhausted {
                    requested: size.bytes(),
                    capacity: quota,
                });
            }
            if !self.try_reserve(growth) {
                tenant.release(growth);
                if let Some(old) = old {
                    self.restore_entry(shard, path, old);
                }
                return Err(HvacError::CapacityExhausted {
                    requested: size.bytes(),
                    capacity: self.capacity.bytes(),
                });
            }
        }
        let entry = match &self.backing {
            Backing::Memory => Entry {
                size,
                data: Some(data),
                disk: None,
                hits: AtomicU64::new(0),
            },
            Backing::Directory(root) => {
                let seq = self.insert_seq.fetch_add(1, Ordering::Relaxed);
                let disk = root.join(format!("obj_{seq:016x}"));
                if let Err(e) = fs::write(&disk, &data) {
                    // Roll the growth back: the bytes never landed.
                    self.release(growth);
                    tenant.release(growth);
                    if let Some(old) = old {
                        self.restore_entry(shard, path, old);
                    }
                    return Err(HvacError::Io(e));
                }
                Entry {
                    size,
                    data: None,
                    disk: Some(disk),
                    hits: AtomicU64::new(0),
                }
            }
        };
        // Commit: only now is the old copy's surplus released, so the
        // budgets never dip below what is actually resident.
        if let Some(old) = old {
            self.delete_backing(&old);
            let shrink = ByteSize(old_size.saturating_sub(size.bytes()));
            if shrink.bytes() > 0 {
                self.release(shrink);
                tenant.release(shrink);
            }
        } else {
            tenant.resident.fetch_add(1, Ordering::Relaxed);
        }
        let raced = self.shards[shard].write().insert(path.to_path_buf(), entry);
        if let Some(raced) = raced {
            // A concurrent insert of the same path landed between our two
            // shard critical sections; the newer copy wins, drop the other.
            self.delete_backing(&raced);
            self.release(raced.size);
            tenant.drop_entry(raced.size);
        }
        Ok(())
    }

    /// Fetch a whole cached file, or `None` on a miss.
    pub fn get(&self, path: &Path) -> Option<Bytes> {
        let shard = self.shard_of(path);
        let tenant = self.tenant_for_key(path);
        let data = {
            let map = self.shards[shard].read();
            map.get(path).and_then(|entry| {
                entry.hits.fetch_add(1, Ordering::Relaxed);
                match (&entry.data, &entry.disk) {
                    (Some(d), _) => Some(d.clone()),
                    (None, Some(disk)) => fs::read(disk).ok().map(Bytes::from),
                    _ => None,
                }
            })
        };
        let Some(data) = data else {
            tenant.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        tenant.hits.fetch_add(1, Ordering::Relaxed);
        self.service_read(shard, ByteSize(data.len() as u64));
        Some(data)
    }

    /// Remove a cached file; returns the bytes freed (zero if absent).
    pub fn remove(&self, path: &Path) -> ByteSize {
        let shard = self.shard_of(path);
        let removed = self.shards[shard].write().remove(path);
        match removed {
            Some(e) => {
                let sz = e.size;
                self.delete_backing(&e);
                self.release(sz);
                self.tenant_for_key(path).drop_entry(sz);
                sz
            }
            None => ByteSize::ZERO,
        }
    }

    fn delete_backing(&self, entry: &Entry) {
        if let Some(disk) = &entry.disk {
            let _ = fs::remove_file(disk);
        }
    }

    /// Whether `path` is resident.
    pub fn contains(&self, path: &Path) -> bool {
        self.shards[self.shard_of(path)].read().contains_key(path)
    }

    /// Size of a resident file.
    pub fn size_of(&self, path: &Path) -> Option<ByteSize> {
        self.shards[self.shard_of(path)]
            .read()
            .get(path)
            .map(|e| e.size)
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes used.
    pub fn used(&self) -> ByteSize {
        ByteSize(self.used.load(Ordering::Relaxed))
    }

    /// Total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Whether an item of `size` could fit right now without eviction.
    pub fn fits(&self, size: ByteSize) -> bool {
        self.used.load(Ordering::Relaxed) + size.bytes() <= self.capacity.bytes()
    }

    /// Whether an item of `size` could fit even after evicting everything.
    pub fn can_ever_fit(&self, size: ByteSize) -> bool {
        size.bytes() <= self.capacity.bytes()
    }

    /// Paths currently resident (unordered).
    pub fn resident_paths(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().keys().cloned());
        }
        out
    }

    /// Resident paths with their access counts (unordered); shards are
    /// read strictly one at a time.
    pub fn resident_with_access(&self) -> Vec<(PathBuf, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .read()
                    .iter()
                    .map(|(p, e)| (p.clone(), e.hits.load(Ordering::Relaxed))),
            );
        }
        out
    }

    /// Drop everything (job teardown: "the cached dataset is purged",
    /// §III-D). Shards are drained strictly one at a time — no thread ever
    /// holds two `STORE_SHARD` locks, so striping cannot deadlock purge.
    pub fn purge(&self) {
        for shard in &self.shards {
            let entries = std::mem::take(&mut *shard.write());
            for (key, e) in &entries {
                self.delete_backing(e);
                self.release(e.size);
                self.tenant_for_key(key).drop_entry(e.size);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvac_pfs::store::slice_read_at;

    fn mem(cap: u64) -> LocalStore {
        LocalStore::in_memory(ByteSize(cap))
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let s = mem(100);
        let p = Path::new("/d/a");
        s.insert(p, Bytes::from_static(b"abcdef")).unwrap();
        assert!(s.contains(p));
        assert_eq!(s.len(), 1);
        assert_eq!(s.used(), ByteSize(6));
        assert_eq!(s.size_of(p), Some(ByteSize(6)));
        let data = s.get(p).unwrap();
        assert_eq!(&data[..], b"abcdef");
        assert_eq!(&slice_read_at(&data, 2, 2)[..], b"cd");
        assert_eq!(&slice_read_at(&data, 4, 100)[..], b"ef");
        assert_eq!(slice_read_at(&data, 100, 1).len(), 0);
        assert_eq!(s.remove(p), ByteSize(6));
        assert!(!s.contains(p));
        assert_eq!(s.used(), ByteSize::ZERO);
        assert_eq!(s.remove(p), ByteSize::ZERO);
    }

    #[test]
    fn capacity_is_enforced() {
        let s = mem(10);
        s.insert(Path::new("/a"), Bytes::from(vec![0u8; 6]))
            .unwrap();
        let err = s
            .insert(Path::new("/b"), Bytes::from(vec![0u8; 5]))
            .unwrap_err();
        assert!(matches!(err, HvacError::CapacityExhausted { .. }));
        // After evicting /a there is room.
        s.remove(Path::new("/a"));
        s.insert(Path::new("/b"), Bytes::from(vec![0u8; 5]))
            .unwrap();
        assert!(s.can_ever_fit(ByteSize(10)));
        assert!(!s.can_ever_fit(ByteSize(11)));
    }

    #[test]
    fn replacing_a_path_releases_old_bytes() {
        let s = mem(10);
        let p = Path::new("/a");
        s.insert(p, Bytes::from(vec![0u8; 8])).unwrap();
        // Would not fit next to the old copy, but replacement frees it first.
        s.insert(p, Bytes::from(vec![1u8; 9])).unwrap();
        assert_eq!(s.used(), ByteSize(9));
        assert_eq!(s.get(p).unwrap()[0], 1);
    }

    #[test]
    fn purge_empties_the_store() {
        let s = mem(100);
        s.insert(Path::new("/a"), Bytes::from_static(b"xx"))
            .unwrap();
        s.insert(Path::new("/b"), Bytes::from_static(b"yy"))
            .unwrap();
        s.purge();
        assert!(s.is_empty());
        assert_eq!(s.used(), ByteSize::ZERO);
        assert_eq!(s.capacity(), ByteSize(100));
    }

    #[test]
    fn directory_backing_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!(
            "hvac-localstore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let s = LocalStore::on_directory(&dir, ByteSize(1000)).unwrap();
        let p = Path::new("/gpfs/data/s.bin");
        s.insert(p, Bytes::from_static(b"persisted")).unwrap();
        assert_eq!(&s.get(p).unwrap()[..], b"persisted");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        s.remove(p);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        // purge also removes disk objects
        s.insert(p, Bytes::from_static(b"x")).unwrap();
        s.purge();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_paths_lists_everything() {
        let s = mem(100);
        s.insert(Path::new("/a"), Bytes::from_static(b"1")).unwrap();
        s.insert(Path::new("/b"), Bytes::from_static(b"2")).unwrap();
        let mut paths = s.resident_paths();
        paths.sort();
        assert_eq!(paths, vec![PathBuf::from("/a"), PathBuf::from("/b")]);
    }

    #[test]
    fn access_counts_track_reads_and_reset_on_replace() {
        let s = mem(100);
        let p = Path::new("/hot");
        let counts = |s: &LocalStore| {
            let mut c = s.resident_with_access();
            c.sort();
            c
        };
        assert_eq!(counts(&s), vec![], "nothing resident");
        s.insert(p, Bytes::from_static(b"abc")).unwrap();
        assert_eq!(counts(&s), vec![(PathBuf::from("/hot"), 0)]);
        s.get(p).unwrap();
        s.get(p).unwrap();
        s.insert(Path::new("/cold"), Bytes::from_static(b"z"))
            .unwrap();
        assert_eq!(
            counts(&s),
            vec![(PathBuf::from("/cold"), 0), (PathBuf::from("/hot"), 2)]
        );
        // Replacement is a new entry: the count restarts.
        s.insert(p, Bytes::from_static(b"abcd")).unwrap();
        assert_eq!(
            counts(&s),
            vec![(PathBuf::from("/cold"), 0), (PathBuf::from("/hot"), 0)]
        );
    }

    #[test]
    fn tenant_accounting_tracks_namespaced_keys() {
        use hvac_hash::pathhash::tenant_key;
        let s = mem(1000);
        let raw = Path::new("/gpfs/data/x.bin");
        let k1 = tenant_key(JobId(1), raw);
        let k2 = tenant_key(JobId(2), raw);
        s.insert(raw, Bytes::from(vec![0u8; 10])).unwrap();
        s.insert(&k1, Bytes::from(vec![1u8; 20])).unwrap();
        s.insert(&k2, Bytes::from(vec![2u8; 30])).unwrap();
        assert_eq!(s.tenant_used(JobId::DEFAULT), ByteSize(10));
        assert_eq!(s.tenant_used(JobId(1)), ByteSize(20));
        assert_eq!(s.tenant_used(JobId(2)), ByteSize(30));
        assert_eq!(s.used(), ByteSize(60), "global accounting still balances");

        s.get(&k1).unwrap();
        s.get(&k1).unwrap();
        assert!(s.get(&tenant_key(JobId(1), Path::new("/absent"))).is_none());
        let usage = s.tenant_usage();
        assert_eq!(
            usage.iter().map(|u| u.job.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let t1 = usage[1];
        assert_eq!((t1.resident, t1.hits, t1.misses), (1, 2, 1));

        // Replacement and removal release the right tenant's bytes.
        s.insert(&k1, Bytes::from(vec![1u8; 5])).unwrap();
        assert_eq!(s.tenant_used(JobId(1)), ByteSize(5));
        s.remove(&k2);
        assert_eq!(s.tenant_used(JobId(2)), ByteSize::ZERO);
        s.purge();
        for u in s.tenant_usage() {
            assert_eq!(u.used, ByteSize::ZERO, "job {}", u.job.0);
            assert_eq!(u.resident, 0, "job {}", u.job.0);
        }
        assert_eq!(s.used(), ByteSize::ZERO);
    }

    #[test]
    fn tenant_quota_is_enforced_independently_of_global_capacity() {
        use hvac_hash::pathhash::tenant_key;
        let s = mem(1000);
        s.set_tenant_quota(JobId(1), Some(ByteSize(25)));
        assert_eq!(s.tenant_quota(JobId(1)), Some(ByteSize(25)));
        assert_eq!(s.tenant_quota(JobId(2)), None);
        let k = |job, name: &str| tenant_key(JobId(job), Path::new(name));
        s.insert(&k(1, "/a"), Bytes::from(vec![0u8; 20])).unwrap();
        assert!(s.tenant_over_quota(JobId(1), ByteSize(10)));
        assert!(!s.tenant_over_quota(JobId(1), ByteSize(5)));
        assert!(!s.tenant_over_quota(JobId(2), ByteSize(900)));
        // Global capacity has plenty of room; the tenant quota still trips.
        let err = s
            .insert(&k(1, "/b"), Bytes::from(vec![0u8; 10]))
            .unwrap_err();
        assert!(matches!(
            err,
            HvacError::CapacityExhausted { capacity: 25, .. }
        ));
        // Another tenant and the default namespace are unaffected.
        s.insert(&k(2, "/b"), Bytes::from(vec![0u8; 10])).unwrap();
        s.insert(Path::new("/b"), Bytes::from(vec![0u8; 10]))
            .unwrap();
        // Quotas derived from a weights plan: job 1 gets 40% of capacity.
        let weights = JobWeights::parse("1=1@0.4,2=1").unwrap();
        s.set_tenant_quotas(&weights);
        assert_eq!(s.tenant_quota(JobId(1)), Some(ByteSize(400)));
        assert_eq!(s.tenant_quota(JobId(2)), Some(ByteSize(500)));
        s.insert(&k(1, "/b"), Bytes::from(vec![0u8; 10])).unwrap();
    }

    #[test]
    fn concurrent_inserts_respect_capacity() {
        use std::sync::Arc;
        let s = Arc::new(mem(1000));
        let mut joins = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            joins.push(std::thread::spawn(move || {
                let mut ok = 0u32;
                for i in 0..50 {
                    let p = PathBuf::from(format!("/t{t}/f{i}"));
                    if s.insert(&p, Bytes::from(vec![0u8; 10])).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total_ok: u32 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(total_ok as u64 * 10, s.used().bytes());
        assert!(s.used().bytes() <= 1000);
        assert_eq!(total_ok, 100); // exactly capacity/size inserts succeed
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        for (req, got) in [(1usize, 1usize), (2, 2), (3, 4), (8, 8), (9, 16)] {
            let s = LocalStore::in_memory_striped(ByteSize(100), req);
            assert_eq!(s.shard_count(), got, "requested {req}");
        }
        assert!(default_shard_count().is_power_of_two());
        assert!(default_shard_count() >= 8);
        assert_eq!(mem(1).shard_count(), default_shard_count());
    }

    #[test]
    fn shard_selection_is_stable_and_in_range() {
        let s = LocalStore::in_memory_striped(ByteSize(1000), 8);
        for i in 0..256 {
            let p = PathBuf::from(format!("/data/file_{i}"));
            let shard = s.shard_of(&p);
            assert!(shard < s.shard_count());
            assert_eq!(shard, s.shard_of(&p), "shard choice must be stable");
        }
    }

    #[test]
    fn single_shard_store_behaves_identically() {
        let s = LocalStore::in_memory_striped(ByteSize(30), 1);
        assert_eq!(s.shard_count(), 1);
        for i in 0..3 {
            s.insert(Path::new(&format!("/f{i}")), Bytes::from(vec![i as u8; 10]))
                .unwrap();
        }
        assert!(matches!(
            s.insert(Path::new("/f3"), Bytes::from(vec![3u8; 10])),
            Err(HvacError::CapacityExhausted { .. })
        ));
        assert_eq!(s.len(), 3);
        assert_eq!(s.used(), ByteSize(30));
    }

    #[test]
    fn device_model_service_serializes_within_a_shard() {
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        // A model with a fat fixed latency and no bandwidth term to speak
        // of: 2 ms per read regardless of size.
        let model = DeviceModel {
            op_latency: hvac_types::SimTime::from_millis(2),
            read_bandwidth: hvac_types::Bandwidth::mib_per_sec(1e9),
            max_iops: u64::MAX,
        };
        let mut one = LocalStore::in_memory_striped(ByteSize(10_000), 1);
        one.set_device_model(model.clone());
        let one = Arc::new(one);
        let path = PathBuf::from("/d/x");
        one.insert(&path, Bytes::from(vec![0u8; 8])).unwrap();
        // 4 concurrent readers of a 1-shard store serialize: >= 4 * 2 ms.
        let start = Instant::now();
        let mut joins = Vec::new();
        for _ in 0..4 {
            let s = one.clone();
            let p = path.clone();
            joins.push(std::thread::spawn(move || s.get(&p).unwrap()));
        }
        for j in joins {
            assert_eq!(j.join().unwrap().len(), 8);
        }
        assert!(
            start.elapsed() >= Duration::from_millis(8),
            "1-shard reads must serialize behind the device queue"
        );
    }
}
