//! Observability counters.
//!
//! The whole value proposition of HVAC is *where reads are served from*, so
//! both sides count it. All counters are relaxed atomics — they are
//! statistics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-stripe counters of the server's striped read hot path (the inflight
/// dedup table). One entry per stripe; indexed by the stripe a cache key
/// hashes to.
#[derive(Debug, Default)]
pub struct StripeCounters {
    /// Read lookups that found the key already resident.
    pub hits: AtomicU64,
    /// Read lookups that had to wait for (or start) a PFS copy.
    pub misses: AtomicU64,
    /// Stripe-lock acquisitions that found the stripe held (`try_lock`
    /// failed and the caller fell back to a blocking lock).
    pub contention: AtomicU64,
}

/// Slots in a [`TenantTable`]. Plenty for any realistic number of
/// co-scheduled jobs on one allocation; overflow tenants keep counting in
/// the scalar totals but lose their per-tenant split.
const TENANT_SLOTS: usize = 64;

/// One tenant's row in the per-tenant counter split.
#[derive(Debug)]
pub struct TenantCounters {
    /// Owning job id; `u64::MAX` marks a free slot (so a literal job id of
    /// `u64::MAX` is the one tenant that cannot get its own row).
    job: AtomicU64,
    /// Reads admitted past QoS admission control.
    pub admitted: AtomicU64,
    /// Reads shed to the PFS degradation path by admission control.
    pub shed: AtomicU64,
    /// Read RPCs answered for this tenant.
    pub reads: AtomicU64,
    /// Bytes served to this tenant.
    pub served_bytes: AtomicU64,
}

/// Lock-free per-tenant counter table: a fixed open-addressed slot array
/// claimed by CAS on first touch, linear probing on collision. Counting
/// stays wait-free on the read hot path; enumeration walks occupied slots.
#[derive(Debug)]
pub struct TenantTable {
    slots: Vec<TenantCounters>,
}

impl Default for TenantTable {
    fn default() -> Self {
        Self {
            slots: (0..TENANT_SLOTS)
                .map(|_| TenantCounters {
                    job: AtomicU64::new(u64::MAX),
                    admitted: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                    reads: AtomicU64::new(0),
                    served_bytes: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

impl TenantTable {
    /// Find (or claim) the slot for `job`. `None` when the table is full —
    /// the caller just drops the per-tenant split for that job.
    pub fn slot(&self, job: u64) -> Option<&TenantCounters> {
        if job == u64::MAX {
            return None;
        }
        let n = self.slots.len();
        let start = (job as usize) % n;
        for i in 0..n {
            let s = &self.slots[(start + i) % n];
            let cur = s.job.load(Ordering::Relaxed);
            if cur == job {
                return Some(s);
            }
            if cur == u64::MAX {
                match s
                    .job
                    .compare_exchange(u64::MAX, job, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => return Some(s),
                    Err(actual) if actual == job => return Some(s),
                    Err(_) => continue,
                }
            }
        }
        None
    }

    /// Occupied rows as plain data, sorted by job id.
    pub fn snapshot(&self) -> Vec<TenantServerSnapshot> {
        let mut out: Vec<TenantServerSnapshot> = self
            .slots
            .iter()
            .filter(|s| s.job.load(Ordering::Relaxed) != u64::MAX)
            .map(|s| TenantServerSnapshot {
                job: s.job.load(Ordering::Relaxed),
                admitted: s.admitted.load(Ordering::Relaxed),
                shed: s.shed.load(Ordering::Relaxed),
                reads: s.reads.load(Ordering::Relaxed),
                served_bytes: s.served_bytes.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|t| t.job);
        out
    }
}

/// A plain-old-data row of one tenant's server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantServerSnapshot {
    /// Job id.
    pub job: u64,
    /// Reads admitted past QoS admission control.
    pub admitted: u64,
    /// Reads shed to the PFS degradation path.
    pub shed: u64,
    /// Read RPCs answered.
    pub reads: u64,
    /// Bytes served.
    pub served_bytes: u64,
}

impl TenantServerSnapshot {
    /// Merge another row of the *same* job into this one.
    pub fn merge(&mut self, other: &TenantServerSnapshot) {
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.reads += other.reads;
        self.served_bytes += other.served_bytes;
    }
}

/// Counters kept by one HVAC server instance.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Read RPCs answered.
    pub reads: AtomicU64,
    /// Reads served from node-local storage.
    pub cache_hits: AtomicU64,
    /// Reads that required fetching from the PFS first.
    pub cache_misses: AtomicU64,
    /// Files copied PFS → node-local storage by the data mover.
    pub pfs_copies: AtomicU64,
    /// Bytes copied from the PFS.
    pub pfs_bytes: AtomicU64,
    /// Bytes served to clients.
    pub served_bytes: AtomicU64,
    /// Files evicted to make room.
    pub evictions: AtomicU64,
    /// Copy requests that piggybacked on an in-flight copy of the same file
    /// (the mutex-on-shared-queue dedup of §III-D).
    pub dedup_waits: AtomicU64,
    /// Stat RPCs answered.
    pub stats_ops: AtomicU64,
    /// Files accepted for background prefetch.
    pub prefetches: AtomicU64,
    /// Reads served without caching: the cache refused the fetched bytes
    /// (file too large, or a pinned MinIO-style cache is full), or QoS shed
    /// the read to the PFS.
    pub pfs_bypass_reads: AtomicU64,
    /// Batch RPCs answered (each bundling several segment reads into one
    /// frame; the per-item reads are still counted in `reads`).
    pub batch_rpcs: AtomicU64,
    /// Requests rejected with `StaleView` because the sender's membership
    /// epoch was older than this server's (each one redirects the client to
    /// the current view).
    pub stale_view_redirects: AtomicU64,
    /// Files this server migrated to a new home during rebalancing (counted
    /// on the *source*).
    pub migrated_files: AtomicU64,
    /// Bytes this server migrated to new homes during rebalancing.
    pub migrated_bytes: AtomicU64,
    /// Files this server re-replicated to an under-replicated peer during
    /// an anti-entropy repair pass (counted on the *source* holder).
    pub repaired_files: AtomicU64,
    /// Bytes this server copied to peers during repair passes.
    pub repaired_bytes: AtomicU64,
    /// Reads admitted past QoS admission control (counted even when QoS is
    /// off — then everything is admitted).
    pub tenant_admitted: AtomicU64,
    /// Reads shed by admission control and served via the PFS degradation
    /// path instead of the cache read path.
    pub tenant_shed: AtomicU64,
    /// Per-stripe hit/miss/contention counters of the inflight table.
    /// Empty by default (`ServerMetrics::default()`); sized by
    /// [`ServerMetrics::with_stripes`] when the server spawns.
    pub stripes: Vec<StripeCounters>,
    /// Per-tenant counter split (lock-free fixed slot table).
    pub tenants: TenantTable,
}

impl ServerMetrics {
    /// Metrics with `n` per-stripe counter slots.
    pub fn with_stripes(n: usize) -> Self {
        Self {
            stripes: (0..n).map(|_| StripeCounters::default()).collect(),
            ..Self::default()
        }
    }

    /// Count a stripe-level hit (no-op when stripe counters are not armed).
    pub fn stripe_hit(&self, stripe: usize) {
        if let Some(s) = self.stripes.get(stripe) {
            s.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count a stripe-level miss.
    pub fn stripe_miss(&self, stripe: usize) {
        if let Some(s) = self.stripes.get(stripe) {
            s.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count a contended stripe-lock acquisition.
    pub fn stripe_contended(&self, stripe: usize) {
        if let Some(s) = self.stripes.get(stripe) {
            s.contention.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one admitted read for `job` (scalar total + per-tenant row).
    pub fn tenant_admit(&self, job: u64) {
        self.tenant_admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.tenants.slot(job) {
            t.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one shed read for `job`.
    pub fn tenant_shed(&self, job: u64) {
        self.tenant_shed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.tenants.slot(job) {
            t.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one answered read of `bytes` bytes for `job`.
    pub fn tenant_read(&self, job: u64, bytes: u64) {
        if let Some(t) = self.tenants.slot(job) {
            t.reads.fetch_add(1, Ordering::Relaxed);
            t.served_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// A plain-old-data snapshot of [`ServerMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMetricsSnapshot {
    /// Read RPCs answered.
    pub reads: u64,
    /// Reads served from node-local storage.
    pub cache_hits: u64,
    /// Reads that required a PFS fetch.
    pub cache_misses: u64,
    /// Files copied from the PFS.
    pub pfs_copies: u64,
    /// Bytes copied from the PFS.
    pub pfs_bytes: u64,
    /// Bytes served to clients.
    pub served_bytes: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Deduplicated concurrent copy requests.
    pub dedup_waits: u64,
    /// Stat RPCs answered.
    pub stats_ops: u64,
    /// Retired, always 0: `close` sends no RPC. Kept so readers of the
    /// snapshot still build.
    pub closes: u64,
    /// Files accepted for background prefetch.
    pub prefetches: u64,
    /// Reads served without caching (refused insert or QoS shed).
    pub pfs_bypass_reads: u64,
    /// Retired, always 0: a miss is served from the bytes the data mover
    /// fetched, so it can no longer lose a race to eviction. Kept so
    /// readers of the snapshot still build.
    pub eviction_races: u64,
    /// Batch RPCs answered (per-item reads are still counted in `reads`).
    pub batch_rpcs: u64,
    /// Requests rejected (and redirected) for carrying a stale view epoch.
    pub stale_view_redirects: u64,
    /// Files migrated away during rebalancing (source-side count).
    pub migrated_files: u64,
    /// Bytes migrated away during rebalancing.
    pub migrated_bytes: u64,
    /// Files re-replicated to peers during repair passes (source-side).
    pub repaired_files: u64,
    /// Bytes copied to peers during repair passes.
    pub repaired_bytes: u64,
    /// Reads admitted past QoS admission control.
    pub tenant_admitted: u64,
    /// Reads shed by admission control to the PFS degradation path.
    pub tenant_shed: u64,
    /// Stripe-level hits summed over every stripe (the per-stripe vectors
    /// stay on [`ServerMetrics`]; the snapshot carries scalars so it stays
    /// `Copy` and merges cheaply).
    pub stripe_hits: u64,
    /// Stripe-level misses summed over every stripe.
    pub stripe_misses: u64,
    /// Contended stripe-lock acquisitions summed over every stripe.
    pub stripe_contention: u64,
}

impl ServerMetrics {
    /// Atomic snapshot (per-counter; not globally consistent, which is fine
    /// for reporting).
    pub fn snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            pfs_copies: self.pfs_copies.load(Ordering::Relaxed),
            pfs_bytes: self.pfs_bytes.load(Ordering::Relaxed),
            served_bytes: self.served_bytes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            stats_ops: self.stats_ops.load(Ordering::Relaxed),
            closes: 0,
            prefetches: self.prefetches.load(Ordering::Relaxed),
            pfs_bypass_reads: self.pfs_bypass_reads.load(Ordering::Relaxed),
            eviction_races: 0,
            batch_rpcs: self.batch_rpcs.load(Ordering::Relaxed),
            stale_view_redirects: self.stale_view_redirects.load(Ordering::Relaxed),
            migrated_files: self.migrated_files.load(Ordering::Relaxed),
            migrated_bytes: self.migrated_bytes.load(Ordering::Relaxed),
            repaired_files: self.repaired_files.load(Ordering::Relaxed),
            repaired_bytes: self.repaired_bytes.load(Ordering::Relaxed),
            tenant_admitted: self.tenant_admitted.load(Ordering::Relaxed),
            tenant_shed: self.tenant_shed.load(Ordering::Relaxed),
            stripe_hits: self
                .stripes
                .iter()
                .map(|s| s.hits.load(Ordering::Relaxed))
                .sum(),
            stripe_misses: self
                .stripes
                .iter()
                .map(|s| s.misses.load(Ordering::Relaxed))
                .sum(),
            stripe_contention: self
                .stripes
                .iter()
                .map(|s| s.contention.load(Ordering::Relaxed))
                .sum(),
        }
    }
}

impl ServerMetricsSnapshot {
    /// Merge another snapshot into this one (cluster-wide aggregation).
    pub fn merge(&mut self, other: &ServerMetricsSnapshot) {
        self.reads += other.reads;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.pfs_copies += other.pfs_copies;
        self.pfs_bytes += other.pfs_bytes;
        self.served_bytes += other.served_bytes;
        self.evictions += other.evictions;
        self.dedup_waits += other.dedup_waits;
        self.stats_ops += other.stats_ops;
        self.prefetches += other.prefetches;
        self.pfs_bypass_reads += other.pfs_bypass_reads;
        self.batch_rpcs += other.batch_rpcs;
        self.stale_view_redirects += other.stale_view_redirects;
        self.migrated_files += other.migrated_files;
        self.migrated_bytes += other.migrated_bytes;
        self.repaired_files += other.repaired_files;
        self.repaired_bytes += other.repaired_bytes;
        self.tenant_admitted += other.tenant_admitted;
        self.tenant_shed += other.tenant_shed;
        self.stripe_hits += other.stripe_hits;
        self.stripe_misses += other.stripe_misses;
        self.stripe_contention += other.stripe_contention;
    }

    /// Fraction of reads served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.reads as f64
        }
    }
}

/// Counters kept by one HVAC client.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// `open` calls intercepted for the dataset directory.
    pub opens: AtomicU64,
    /// `read`/`pread` calls forwarded to HVAC servers.
    pub reads: AtomicU64,
    /// Bytes delivered to the application.
    pub bytes: AtomicU64,
    /// `close` calls.
    pub closes: AtomicU64,
    /// Reads answered by a non-primary replica.
    pub failovers: AtomicU64,
    /// Opens that bypassed HVAC (outside the dataset directory).
    pub passthrough_opens: AtomicU64,
    /// RPC attempts that missed their per-call deadline.
    pub timeouts: AtomicU64,
    /// Same-replica retry attempts after a transient failure.
    pub retries: AtomicU64,
    /// Circuit-breaker trips (a replica crossed the consecutive-failure
    /// threshold and is now skipped proactively).
    pub breaker_trips: AtomicU64,
    /// Calls that skipped a replica because its breaker was open.
    pub breaker_skips: AtomicU64,
    /// Reads served by the client directly from the PFS after every replica
    /// was exhausted (last rung of the degradation ladder).
    pub degraded_reads: AtomicU64,
    /// Times this client swapped in a newer [`hvac_types::ClusterView`]
    /// after a `StaleView` redirect.
    pub view_refreshes: AtomicU64,
    /// Hedged backup requests issued after the hedge delay expired with the
    /// primary replica still silent.
    pub hedges: AtomicU64,
    /// Hedged calls where the backup replica answered first.
    pub hedge_wins: AtomicU64,
    /// Batch RPCs issued by segmented reads (each bundling several
    /// coalesced segment ranges for one destination).
    pub batch_rpcs: AtomicU64,
    /// Plan entries — every client RPC is one — that the first call to
    /// their planned home did not answer: the home was skipped on an open
    /// breaker, failed, needed a retry or bounced with a stale view, and
    /// the entry walked on down its ladder. A healthy run counts 0.
    pub batch_fallbacks: AtomicU64,
}

/// A plain-old-data snapshot of [`ClientMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientMetricsSnapshot {
    /// `open` calls intercepted for the dataset directory.
    pub opens: u64,
    /// `read`/`pread` calls forwarded to HVAC servers.
    pub reads: u64,
    /// Bytes delivered to the application.
    pub bytes: u64,
    /// `close` calls.
    pub closes: u64,
    /// Reads answered by a non-primary replica.
    pub failovers: u64,
    /// Opens that bypassed HVAC.
    pub passthrough_opens: u64,
    /// RPC attempts that missed their per-call deadline.
    pub timeouts: u64,
    /// Same-replica retry attempts.
    pub retries: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Replica calls skipped on an open breaker.
    pub breaker_skips: u64,
    /// Client-side direct-PFS reads.
    pub degraded_reads: u64,
    /// View swaps performed after `StaleView` redirects.
    pub view_refreshes: u64,
    /// Hedged backup requests issued.
    pub hedges: u64,
    /// Hedged calls won by the backup replica.
    pub hedge_wins: u64,
    /// Batch RPCs issued by segmented reads.
    pub batch_rpcs: u64,
    /// Plan entries the first call to their planned home did not answer.
    pub batch_fallbacks: u64,
}

impl ClientMetrics {
    /// Snapshot `(opens, reads, bytes, closes, failovers, passthrough)` —
    /// the legacy tuple; resilience counters live in [`Self::full_snapshot`].
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        let s = self.full_snapshot();
        (
            s.opens,
            s.reads,
            s.bytes,
            s.closes,
            s.failovers,
            s.passthrough_opens,
        )
    }

    /// Atomic snapshot of every counter, including the failure-semantics
    /// ones (timeouts, retries, breaker trips/skips, degraded reads).
    pub fn full_snapshot(&self) -> ClientMetricsSnapshot {
        ClientMetricsSnapshot {
            opens: self.opens.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            passthrough_opens: self.passthrough_opens.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            view_refreshes: self.view_refreshes.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            batch_rpcs: self.batch_rpcs.load(Ordering::Relaxed),
            batch_fallbacks: self.batch_fallbacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let m = ServerMetrics::default();
        m.reads.fetch_add(10, Ordering::Relaxed);
        m.cache_hits.fetch_add(7, Ordering::Relaxed);
        m.cache_misses.fetch_add(3, Ordering::Relaxed);
        let s1 = m.snapshot();
        assert_eq!(s1.reads, 10);
        assert!((s1.hit_rate() - 0.7).abs() < 1e-12);

        let mut agg = ServerMetricsSnapshot::default();
        agg.merge(&s1);
        agg.merge(&s1);
        assert_eq!(agg.reads, 20);
        assert_eq!(agg.cache_hits, 14);
    }

    #[test]
    fn stripe_counters_sum_into_snapshot_and_merge() {
        let m = ServerMetrics::with_stripes(4);
        m.stripe_hit(0);
        m.stripe_hit(3);
        m.stripe_miss(1);
        m.stripe_contended(2);
        m.stripe_contended(2);
        m.stripe_hit(99); // out of range: ignored, not a panic
        let s = m.snapshot();
        assert_eq!(
            (s.stripe_hits, s.stripe_misses, s.stripe_contention),
            (2, 1, 2)
        );
        let mut agg = ServerMetricsSnapshot::default();
        agg.merge(&s);
        agg.merge(&s);
        assert_eq!(agg.stripe_hits, 4);
        assert_eq!(agg.stripe_contention, 4);
        // Un-armed metrics (no stripe slots): counting is a no-op.
        let d = ServerMetrics::default();
        d.stripe_hit(0);
        assert_eq!(d.snapshot().stripe_hits, 0);
    }

    #[test]
    fn tenant_counters_split_per_job_and_total_in_the_snapshot() {
        let m = ServerMetrics::default();
        m.tenant_admit(0);
        m.tenant_admit(7);
        m.tenant_admit(7);
        m.tenant_shed(7);
        m.tenant_read(7, 100);
        m.tenant_read(0, 40);
        let s = m.snapshot();
        assert_eq!((s.tenant_admitted, s.tenant_shed), (3, 1));
        let rows = m.tenants.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (
                rows[0].job,
                rows[0].admitted,
                rows[0].reads,
                rows[0].served_bytes
            ),
            (0, 1, 1, 40)
        );
        assert_eq!(
            (
                rows[1].job,
                rows[1].admitted,
                rows[1].shed,
                rows[1].served_bytes
            ),
            (7, 2, 1, 100)
        );
        let mut agg = rows[1];
        agg.merge(&rows[1]);
        assert_eq!((agg.admitted, agg.served_bytes), (4, 200));
        // Snapshot merge carries the scalar totals.
        let mut total = ServerMetricsSnapshot::default();
        total.merge(&s);
        total.merge(&s);
        assert_eq!((total.tenant_admitted, total.tenant_shed), (6, 2));
    }

    #[test]
    fn tenant_table_probes_past_collisions_and_survives_overflow() {
        let t = TenantTable::default();
        // 0 and 64 collide on the same start slot; probing separates them.
        assert!(t.slot(0).is_some());
        assert!(t.slot(64).is_some());
        t.slot(64).unwrap().reads.fetch_add(1, Ordering::Relaxed);
        assert_eq!(t.slot(0).unwrap().reads.load(Ordering::Relaxed), 0);
        // The sentinel job id cannot be tracked; everything else up to the
        // table size can, and overflow degrades to None, not a panic.
        assert!(t.slot(u64::MAX).is_none());
        // 0 and 64 already hold two of the 64 slots; 62 more jobs fill it.
        for job in 1..63 {
            assert!(t.slot(job).is_some(), "job {job}");
        }
        assert!(t.slot(1000).is_none(), "table full");
        assert_eq!(t.snapshot().len(), 64);
    }

    #[test]
    fn hit_rate_of_idle_server_is_zero() {
        assert_eq!(ServerMetricsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn client_metrics_snapshot() {
        let c = ClientMetrics::default();
        c.opens.fetch_add(2, Ordering::Relaxed);
        c.bytes.fetch_add(100, Ordering::Relaxed);
        let (opens, reads, bytes, closes, failovers, passthrough) = c.snapshot();
        assert_eq!(
            (opens, reads, bytes, closes, failovers, passthrough),
            (2, 0, 100, 0, 0, 0)
        );
    }

    #[test]
    fn client_resilience_counters_appear_in_full_snapshot() {
        let c = ClientMetrics::default();
        c.timeouts.fetch_add(3, Ordering::Relaxed);
        c.retries.fetch_add(2, Ordering::Relaxed);
        c.breaker_trips.fetch_add(1, Ordering::Relaxed);
        c.breaker_skips.fetch_add(5, Ordering::Relaxed);
        c.degraded_reads.fetch_add(4, Ordering::Relaxed);
        let s = c.full_snapshot();
        assert_eq!(s.timeouts, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_skips, 5);
        assert_eq!(s.degraded_reads, 4);
        // The legacy tuple is unchanged by resilience traffic.
        assert_eq!(c.snapshot(), (0, 0, 0, 0, 0, 0));
    }

    #[test]
    fn hedge_and_repair_counters_flow_through_snapshots() {
        let c = ClientMetrics::default();
        c.hedges.fetch_add(6, Ordering::Relaxed);
        c.hedge_wins.fetch_add(2, Ordering::Relaxed);
        let s = c.full_snapshot();
        assert_eq!((s.hedges, s.hedge_wins), (6, 2));
        assert_eq!(c.snapshot(), (0, 0, 0, 0, 0, 0));

        let m = ServerMetrics::default();
        m.repaired_files.fetch_add(3, Ordering::Relaxed);
        m.repaired_bytes.fetch_add(768, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!((snap.repaired_files, snap.repaired_bytes), (3, 768));
        let mut agg = ServerMetricsSnapshot::default();
        agg.merge(&snap);
        agg.merge(&snap);
        assert_eq!((agg.repaired_files, agg.repaired_bytes), (6, 1536));
    }
}
