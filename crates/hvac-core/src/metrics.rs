//! Observability counters.
//!
//! The whole value proposition of HVAC is *where reads are served from*, so
//! both sides count it. All counters are relaxed atomics — they are
//! statistics, not synchronization. The server's and the client's groups
//! are each declared once through [`hvac_types::counters!`], which names
//! every counter `server.*` or `client.*`; the server's per-tenant split is
//! a separate [`TenantTable`] beside them.

use std::sync::atomic::{AtomicU64, Ordering};

hvac_types::counters! {
    /// Counters kept by one HVAC server instance.
    pub struct ServerMetrics => ServerMetricsSnapshot, "server" {
        /// Items read: one per `Read` RPC and one per item of a `Batch`.
        reads,
        /// Reads served from node-local storage.
        cache_hits,
        /// Reads that required fetching from the PFS first.
        cache_misses,
        /// Files copied PFS → node-local storage by the data mover.
        pfs_copies,
        /// Bytes copied from the PFS.
        pfs_bytes,
        /// Bytes served to clients.
        served_bytes,
        /// Files evicted to make room.
        evictions,
        /// Copy requests that piggybacked on an in-flight copy of the same
        /// file (the mutex-on-shared-queue dedup of §III-D).
        dedup_waits,
        /// Stat RPCs answered.
        stats_ops,
        /// Retired, always 0: `close` sends no RPC. Kept so readers of the
        /// snapshot still build.
        closes,
        /// Files accepted for background prefetch.
        prefetches,
        /// Reads served without caching: the cache refused the fetched
        /// bytes (file too large, or a pinned MinIO-style cache is full),
        /// or QoS shed the read to the PFS.
        pfs_bypass_reads,
        /// Retired, always 0: a miss is served from the bytes the data
        /// mover fetched, so it can no longer lose a race to eviction. Kept
        /// so readers of the snapshot still build.
        eviction_races,
        /// Batch RPCs answered (each bundling several segment reads into
        /// one frame; the per-item reads are still counted in `reads`).
        batch_rpcs,
        /// Requests rejected with `StaleView` because the sender's
        /// membership epoch was older than this server's (each one
        /// redirects the client to the current view).
        stale_view_redirects,
        /// Files this server migrated to a new home during rebalancing
        /// (counted on the *source*).
        migrated_files,
        /// Bytes this server migrated to new homes during rebalancing.
        migrated_bytes,
        /// Files this server re-replicated to an under-replicated peer
        /// during an anti-entropy repair pass (counted on the *source*
        /// holder).
        repaired_files,
        /// Bytes this server copied to peers during repair passes.
        repaired_bytes,
        /// Reads admitted past QoS admission control (counted even when QoS
        /// is off — then everything is admitted).
        tenant_admitted,
        /// Reads shed by admission control and served via the PFS
        /// degradation path instead of the cache read path.
        tenant_shed,
        /// Cache lookups on the read path that found the key resident.
        stripe_hits,
        /// Cache lookups on the read path that had to wait for (or start) a
        /// PFS copy. With `stripe_hits`, one per item read.
        stripe_misses,
        /// In-flight-table stripe lock acquisitions that found the stripe
        /// held (`try_lock` failed and the caller blocked).
        stripe_contention,
    }
}

impl ServerMetricsSnapshot {
    /// Fraction of reads served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.reads as f64
        }
    }
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
    /// Count one admitted read for `job`: the server's scalar total in
    /// `totals` and the job's row.
    pub fn admit(&self, totals: &ServerMetrics, job: u64) {
        totals.tenant_admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.slot(job) {
            t.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one shed read for `job`, in `totals` and the job's row.
    pub fn shed(&self, totals: &ServerMetrics, job: u64) {
        totals.tenant_shed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.slot(job) {
            t.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one answered read of `bytes` bytes in `job`'s row.
    pub fn read(&self, job: u64, bytes: u64) {
        if let Some(t) = self.slot(job) {
            t.reads.fetch_add(1, Ordering::Relaxed);
            t.served_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

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

hvac_types::counters! {
    /// Counters kept by one HVAC client.
    pub struct ClientMetrics => ClientMetricsSnapshot, "client" {
        /// `open` calls intercepted for the dataset directory.
        opens,
        /// `read`/`pread` calls forwarded to HVAC servers.
        reads,
        /// Bytes delivered to the application.
        bytes,
        /// `close` calls.
        closes,
        /// Reads answered by a non-primary replica.
        failovers,
        /// Opens that bypassed HVAC (outside the dataset directory).
        passthrough_opens,
        /// RPC attempts that missed their per-call deadline.
        timeouts,
        /// Same-replica retry attempts after a transient failure.
        retries,
        /// Circuit-breaker trips (a replica crossed the consecutive-failure
        /// threshold and is now skipped proactively).
        breaker_trips,
        /// Calls that skipped a replica because its breaker was open.
        breaker_skips,
        /// Reads served by the client directly from the PFS after every
        /// replica was exhausted (last rung of the degradation ladder).
        degraded_reads,
        /// Times this client swapped in a newer
        /// [`ClusterView`](hvac_types::ClusterView) after a `StaleView`
        /// redirect.
        view_refreshes,
        /// Hedged backup requests issued after the hedge delay expired with
        /// the primary replica still silent.
        hedges,
        /// Hedged calls where the backup replica answered first.
        hedge_wins,
        /// Batch RPCs issued by segmented reads (each bundling several
        /// coalesced segment ranges for one destination).
        batch_rpcs,
        /// Plan entries — every client RPC is one — that the first call to
        /// their planned home did not answer: the home was skipped on an
        /// open breaker, failed, needed a retry or bounced with a stale
        /// view, and the entry walked on down its ladder. A healthy run
        /// counts 0.
        batch_fallbacks,
    }
}

impl ClientMetrics {
    /// Every counter; the same as [`Self::snapshot`], under the name
    /// callers outside this crate use.
    pub fn full_snapshot(&self) -> ClientMetricsSnapshot {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Store 1, 2, 3, ... into `counters` in order, then check that the
    /// snapshot's `entries()` carry each value in declaration order, and
    /// that merging the snapshot into itself doubles every one.
    fn check_group<S: Copy>(
        counters: &[&AtomicU64],
        snapshot: impl Fn() -> S,
        entries: impl Fn(&S) -> Vec<(&'static str, u64)>,
        merge: impl Fn(&mut S, &S),
    ) {
        for (i, c) in counters.iter().enumerate() {
            c.store(i as u64 + 1, Ordering::Relaxed);
        }
        let s = snapshot();
        let got: Vec<u64> = entries(&s).iter().map(|e| e.1).collect();
        let want: Vec<u64> = (1..=counters.len() as u64).collect();
        assert_eq!(got, want, "{:?}", entries(&s));
        let mut agg = s;
        merge(&mut agg, &s);
        let got: Vec<u64> = entries(&agg).iter().map(|e| e.1).collect();
        let want: Vec<u64> = want.iter().map(|v| 2 * v).collect();
        assert_eq!(got, want, "{:?}", entries(&agg));
    }

    #[test]
    fn snapshot_and_merge() {
        let m = ServerMetrics::default();
        check_group(
            &[
                &m.reads,
                &m.cache_hits,
                &m.cache_misses,
                &m.pfs_copies,
                &m.pfs_bytes,
                &m.served_bytes,
                &m.evictions,
                &m.dedup_waits,
                &m.stats_ops,
                &m.closes,
                &m.prefetches,
                &m.pfs_bypass_reads,
                &m.eviction_races,
                &m.batch_rpcs,
                &m.stale_view_redirects,
                &m.migrated_files,
                &m.migrated_bytes,
                &m.repaired_files,
                &m.repaired_bytes,
                &m.tenant_admitted,
                &m.tenant_shed,
                &m.stripe_hits,
                &m.stripe_misses,
                &m.stripe_contention,
            ],
            || m.snapshot(),
            ServerMetricsSnapshot::entries,
            ServerMetricsSnapshot::merge,
        );
        let s = m.snapshot();
        assert_eq!((s.reads, s.stripe_contention), (1, 24));
        let s = ServerMetricsSnapshot {
            reads: 10,
            cache_hits: 7,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn stripe_counters_sum_into_snapshot_and_merge() {
        let m = ServerMetrics::default();
        m.stripe_hits.fetch_add(1, Ordering::Relaxed);
        m.stripe_hits.fetch_add(1, Ordering::Relaxed);
        m.stripe_misses.fetch_add(1, Ordering::Relaxed);
        m.stripe_contention.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(
            (s.stripe_hits, s.stripe_misses, s.stripe_contention),
            (2, 1, 2)
        );
        let mut agg = ServerMetricsSnapshot::default();
        agg.merge(&s);
        agg.merge(&s);
        assert_eq!(
            (agg.stripe_hits, agg.stripe_misses, agg.stripe_contention),
            (4, 2, 4)
        );
        let stripe: Vec<_> = agg
            .entries()
            .into_iter()
            .filter(|e| e.0.starts_with("server.stripe_"))
            .collect();
        assert_eq!(
            stripe,
            [
                ("server.stripe_hits", 4),
                ("server.stripe_misses", 2),
                ("server.stripe_contention", 4),
            ]
        );
        // Stripe traffic moves no other counter.
        assert_eq!((agg.reads, agg.cache_hits, agg.cache_misses), (0, 0, 0));
    }

    #[test]
    fn client_metrics_snapshot() {
        let c = ClientMetrics::default();
        check_group(
            &[
                &c.opens,
                &c.reads,
                &c.bytes,
                &c.closes,
                &c.failovers,
                &c.passthrough_opens,
                &c.timeouts,
                &c.retries,
                &c.breaker_trips,
                &c.breaker_skips,
                &c.degraded_reads,
                &c.view_refreshes,
                &c.hedges,
                &c.hedge_wins,
                &c.batch_rpcs,
                &c.batch_fallbacks,
            ],
            || c.full_snapshot(),
            ClientMetricsSnapshot::entries,
            ClientMetricsSnapshot::merge,
        );
        let s = c.full_snapshot();
        assert_eq!((s.opens, s.batch_fallbacks), (1, 16));
        assert_eq!(s, c.snapshot());
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
        // The data-path counters are unchanged by resilience traffic.
        assert_eq!(
            (
                s.opens,
                s.reads,
                s.bytes,
                s.closes,
                s.failovers,
                s.passthrough_opens
            ),
            (0, 0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn hedge_and_repair_counters_flow_through_snapshots() {
        let c = ClientMetrics::default();
        c.hedges.fetch_add(6, Ordering::Relaxed);
        c.hedge_wins.fetch_add(2, Ordering::Relaxed);
        let s = c.full_snapshot();
        assert_eq!((s.hedges, s.hedge_wins), (6, 2));
        assert_eq!((s.reads, s.failovers), (0, 0));

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

    #[test]
    fn counter_names_are_pinned() {
        let names = |entries: Vec<(&'static str, u64)>| -> Vec<&'static str> {
            entries.into_iter().map(|e| e.0).collect()
        };
        assert_eq!(
            names(ServerMetricsSnapshot::default().entries()),
            [
                "server.reads",
                "server.cache_hits",
                "server.cache_misses",
                "server.pfs_copies",
                "server.pfs_bytes",
                "server.served_bytes",
                "server.evictions",
                "server.dedup_waits",
                "server.stats_ops",
                "server.closes",
                "server.prefetches",
                "server.pfs_bypass_reads",
                "server.eviction_races",
                "server.batch_rpcs",
                "server.stale_view_redirects",
                "server.migrated_files",
                "server.migrated_bytes",
                "server.repaired_files",
                "server.repaired_bytes",
                "server.tenant_admitted",
                "server.tenant_shed",
                "server.stripe_hits",
                "server.stripe_misses",
                "server.stripe_contention",
            ]
        );
        assert_eq!(
            names(ClientMetricsSnapshot::default().entries()),
            [
                "client.opens",
                "client.reads",
                "client.bytes",
                "client.closes",
                "client.failovers",
                "client.passthrough_opens",
                "client.timeouts",
                "client.retries",
                "client.breaker_trips",
                "client.breaker_skips",
                "client.degraded_reads",
                "client.view_refreshes",
                "client.hedges",
                "client.hedge_wins",
                "client.batch_rpcs",
                "client.batch_fallbacks",
            ]
        );
        assert_eq!(
            names(hvac_net::pool::PoolStats::default().entries()),
            [
                "pool.acquires",
                "pool.pool_hits",
                "pool.fresh_allocs",
                "pool.returns",
                "pool.overflow_frees",
                "pool.oversize",
            ]
        );
    }

    #[test]
    fn tenant_counters_split_per_job_and_total_in_the_snapshot() {
        let m = ServerMetrics::default();
        let t = TenantTable::default();
        t.admit(&m, 0);
        t.admit(&m, 7);
        t.admit(&m, 7);
        t.shed(&m, 7);
        t.read(7, 100);
        t.read(0, 40);
        let s = m.snapshot();
        assert_eq!((s.tenant_admitted, s.tenant_shed), (3, 1));
        let rows = t.snapshot();
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
}
