//! Per-tenant QoS: weighted-fair scheduling and admission control for the
//! server's device read path.
//!
//! One misbehaving job issuing unbounded reads can monopolize a node's NVMe
//! queue and wreck its neighbours' tail latency. [`TenantScheduler`] puts a
//! deficit-round-robin (DRR) scheduler in front of the device: each tenant
//! has a FIFO of waiting reads and a *deficit* that is replenished by
//! `quantum × weight` whenever the scheduler's cursor reaches it, so over
//! time tenants receive device service proportional to their configured
//! weights regardless of how fast they submit.
//!
//! Admission control backs the scheduler: a tenant whose queue is already
//! at its (weight-scaled) depth cap is not enqueued at all — the caller is
//! told to *shed* the read to the PFS degradation ladder (the same
//! "serve it, just not from the cache" semantics the cache uses for
//! unadmittable files). Shedding keeps the scheduler's backlog — and thus
//! every well-behaved tenant's worst-case wait — bounded.
//!
//! With an empty [`JobWeights`] plan the scheduler is a pass-through: every
//! read is admitted immediately and nothing is queued, which keeps the
//! single-tenant fast path allocation- and contention-free.
//!
//! **Locking.** All state sits under one `SERVER_SCHED` mutex. The guard is
//! always dropped before a waiter blocks on its grant channel (tickets
//! carry a per-waiter bounded(1) channel), so the lock is held only for
//! pointer-sized bookkeeping and never across a wait.

use hvac_sync::{classes, OrderedMutex};
use hvac_types::{JobId, JobWeights};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Safety net for a lost grant: a waiter never blocks longer than this —
/// after the timeout it proceeds as if granted (without holding a slot), so
/// a scheduler bug degrades to "no QoS" instead of a hung read.
pub(crate) const GRANT_TIMEOUT: Duration = Duration::from_secs(30);

/// Tuning knobs of the [`TenantScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosOptions {
    /// Reads allowed on the device path concurrently (scheduler-wide).
    pub max_inflight: usize,
    /// Per-unit-weight queue depth cap; a tenant's cap is
    /// `ceil(queue_cap × weight)`, at least 1. Beyond it, reads are shed.
    pub queue_cap: usize,
    /// DRR replenishment quantum in bytes per cursor visit.
    pub quantum: u64,
}

impl Default for QosOptions {
    fn default() -> Self {
        Self {
            max_inflight: 4,
            queue_cap: 16,
            quantum: 256 * 1024,
        }
    }
}

struct Ticket {
    cost: u64,
    tx: crossbeam::channel::Sender<()>,
}

struct TenantQueue {
    weight: f64,
    deficit: f64,
    /// Whether the next cursor arrival should replenish the deficit
    /// (exactly once per arrival — classic DRR).
    replenish: bool,
    queue: VecDeque<Ticket>,
}

#[derive(Default)]
struct SchedInner {
    tenants: HashMap<u64, TenantQueue>,
    /// Round-robin visit order (jobs in first-seen order).
    order: Vec<u64>,
    cursor: usize,
    inflight: usize,
}

/// Weighted-fair admission gate for the device read path.
pub struct TenantScheduler {
    inner: OrderedMutex<SchedInner>,
    weights: JobWeights,
    opts: QosOptions,
}

/// Outcome of [`TenantScheduler::admit`].
pub enum Admit<'a> {
    /// Proceed on the cache/device read path; dropping the grant frees the
    /// slot and wakes the next queued read.
    Granted(AdmitGrant<'a>),
    /// The tenant's queue is at its depth cap: serve this read through the
    /// PFS degradation ladder instead.
    Shed,
}

/// An admitted read's slot; freed on drop.
pub struct AdmitGrant<'a> {
    sched: &'a TenantScheduler,
    /// Whether this grant holds an inflight slot (false for pass-through
    /// grants and for waiters that timed out and barged ahead).
    counted: bool,
}

impl Drop for AdmitGrant<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.sched.release();
        }
    }
}

impl TenantScheduler {
    /// A scheduler over a weights plan with default tuning. An empty plan
    /// yields a pass-through scheduler (QoS off).
    pub fn new(weights: JobWeights) -> Self {
        Self::with_options(weights, QosOptions::default())
    }

    /// A scheduler with explicit tuning.
    pub fn with_options(weights: JobWeights, opts: QosOptions) -> Self {
        Self {
            inner: OrderedMutex::new(classes::SERVER_SCHED, SchedInner::default()),
            weights,
            opts,
        }
    }

    /// Whether QoS is active (a non-empty weights plan was configured).
    pub fn enabled(&self) -> bool {
        !self.weights.is_empty()
    }

    /// The weights plan this scheduler enforces.
    pub fn weights(&self) -> &JobWeights {
        &self.weights
    }

    /// Ask to run a read of `cost` bytes for `job`. Either blocks until the
    /// DRR scheduler grants a device slot, or returns [`Admit::Shed`] when
    /// the tenant's queue is already at its cap. Pass-through (QoS off)
    /// admits immediately.
    pub fn admit(&self, job: JobId, cost: u64) -> Admit<'_> {
        if !self.enabled() {
            return Admit::Granted(AdmitGrant {
                sched: self,
                counted: false,
            });
        }
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            let weight = self.weights.weight_of(job.0);
            let cap = ((self.opts.queue_cap as f64 * weight).ceil() as usize).max(1);
            let q = match inner.tenants.entry(job.0) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    inner.order.push(job.0);
                    v.insert(TenantQueue {
                        weight,
                        deficit: 0.0,
                        replenish: true,
                        queue: VecDeque::new(),
                    })
                }
            };
            if q.queue.len() >= cap {
                return Admit::Shed;
            }
            q.queue.push_back(Ticket { cost, tx });
            self.grant_locked(inner);
        }
        // Guard dropped: block on the grant channel, never under the lock.
        match rx.recv_timeout(GRANT_TIMEOUT) {
            Ok(()) => Admit::Granted(AdmitGrant {
                sched: self,
                counted: true,
            }),
            // Lost ticket (should not happen): proceed without a slot. The
            // scheduler skips our ticket when it finally pops it, because
            // the send fails on the dropped receiver.
            Err(_) => Admit::Granted(AdmitGrant {
                sched: self,
                counted: false,
            }),
        }
    }

    fn release(&self) {
        let mut inner = self.inner.lock();
        inner.inflight = inner.inflight.saturating_sub(1);
        self.grant_locked(&mut inner);
    }

    /// Grant device slots to queued tickets, deficit-round-robin. Called
    /// with the scheduler lock held; never blocks.
    fn grant_locked(&self, inner: &mut SchedInner) {
        let max = self.opts.max_inflight;
        'slots: while inner.inflight < max {
            let n = inner.order.len();
            if n == 0 {
                return;
            }
            let mut empties = 0; // consecutive empty queues seen
            let mut moves = 0; // cursor advances without a grant
            loop {
                if empties >= n {
                    return; // nothing queued anywhere
                }
                let job = inner.order[inner.cursor % n];
                // `order` and `tenants` are inserted together; a missing
                // entry degrades to an empty queue rather than a panic.
                let Some(q) = inner.tenants.get_mut(&job) else {
                    inner.cursor = (inner.cursor + 1) % n;
                    empties += 1;
                    continue;
                };
                let Some(front_cost) = q.queue.front().map(|t| t.cost as f64) else {
                    q.deficit = 0.0;
                    q.replenish = true;
                    inner.cursor = (inner.cursor + 1) % n;
                    empties += 1;
                    continue;
                };
                empties = 0;
                if q.replenish {
                    q.deficit += self.opts.quantum as f64 * q.weight;
                    q.replenish = false;
                }
                // Work conservation: an idle scheduler serves the first
                // queued tenant even before its deficit covers a big read.
                let force = inner.inflight == 0 && moves >= n;
                if q.deficit >= front_cost || force {
                    if let Some(t) = q.queue.pop_front() {
                        q.deficit = (q.deficit - front_cost).max(0.0);
                        if t.tx.send(()).is_ok() {
                            inner.inflight += 1;
                        }
                    }
                    // A failed send is a departed waiter: its slot is not
                    // consumed and the loop keeps granting.
                    continue 'slots;
                }
                q.replenish = true;
                inner.cursor = (inner.cursor + 1) % n;
                moves += 1;
                if moves > 64 * n && inner.inflight > 0 {
                    // A giant read's deficit keeps building on later
                    // releases instead of spinning here.
                    return;
                }
            }
        }
    }

    /// Reads currently holding device slots.
    pub fn inflight(&self) -> usize {
        self.inner.lock().inflight
    }

    /// Reads queued (admitted but not yet granted) for `job`.
    pub fn queued(&self, job: JobId) -> usize {
        self.inner
            .lock()
            .tenants
            .get(&job.0)
            .map_or(0, |q| q.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sched(plan: &str, opts: QosOptions) -> Arc<TenantScheduler> {
        Arc::new(TenantScheduler::with_options(
            JobWeights::parse(plan).unwrap(),
            opts,
        ))
    }

    #[test]
    fn empty_plan_is_a_pass_through() {
        let s = TenantScheduler::new(JobWeights::default());
        assert!(!s.enabled());
        for job in [0u64, 1, 2] {
            let g = s.admit(JobId(job), 1 << 20);
            assert!(matches!(g, Admit::Granted(_)));
            drop(g);
        }
        assert_eq!(s.inflight(), 0, "pass-through holds no slots");
    }

    #[test]
    fn queue_cap_sheds_the_overflowing_tenant_only() {
        let s = sched(
            "1=1,2=1",
            QosOptions {
                max_inflight: 1,
                queue_cap: 2,
                quantum: 1024,
            },
        );
        // Take the only slot and hold it.
        let held = match s.admit(JobId(1), 100) {
            Admit::Granted(g) => g,
            Admit::Shed => panic!("idle scheduler must grant"),
        };
        // Fill tenant 2's queue to its cap with blocked waiters.
        let mut joins = Vec::new();
        for _ in 0..2 {
            let s2 = s.clone();
            joins.push(std::thread::spawn(move || {
                assert!(matches!(s2.admit(JobId(2), 100), Admit::Granted(_)));
            }));
        }
        while s.queued(JobId(2)) < 2 {
            std::thread::yield_now();
        }
        // Tenant 2 is at cap: shed. Tenant 1's queue is empty: admitted.
        assert!(matches!(s.admit(JobId(2), 100), Admit::Shed));
        let s3 = s.clone();
        let t1 = std::thread::spawn(move || {
            assert!(matches!(s3.admit(JobId(1), 100), Admit::Granted(_)))
        });
        while s.queued(JobId(1)) < 1 {
            std::thread::yield_now();
        }
        drop(held); // free the slot; everything queued drains
        t1.join().unwrap();
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn drr_serves_tenants_in_proportion_to_their_weights() {
        let quantum = 1024u64;
        let s = sched(
            "1=4,2=1",
            QosOptions {
                max_inflight: 1,
                queue_cap: 64,
                quantum,
            },
        );
        // Plug the only slot so both tenants build a full backlog before
        // any scheduling happens — the drain order is then pure DRR.
        let plug = match s.admit(JobId(1), quantum) {
            Admit::Granted(g) => g,
            Admit::Shed => panic!("idle scheduler must grant"),
        };
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<u64>();
        let mut joins = Vec::new();
        for job in [1u64, 2] {
            for _ in 0..10 {
                let s2 = s.clone();
                let tx = done_tx.clone();
                joins.push(std::thread::spawn(move || {
                    match s2.admit(JobId(job), quantum) {
                        Admit::Granted(g) => {
                            // Record the grant order while holding the slot:
                            // max_inflight=1 serializes this section.
                            tx.send(job).unwrap();
                            drop(g);
                        }
                        Admit::Shed => panic!("under cap, never shed"),
                    }
                }));
            }
        }
        while s.queued(JobId(1)) < 10 || s.queued(JobId(2)) < 10 {
            std::thread::yield_now();
        }
        drop(plug);
        for j in joins {
            j.join().unwrap();
        }
        let mut order = Vec::new();
        while let Ok(job) = done_rx.try_recv() {
            order.push(job);
        }
        assert_eq!(order.len(), 20);
        // Every ticket costs exactly one quantum, so weight 4 buys four
        // grants per cursor round against one: the heavy tenant dominates
        // the head of the drain and the light one inevitably closes it.
        let j1_early = order[..10].iter().filter(|&&j| j == 1).count();
        assert!(
            j1_early >= 7,
            "weight-4 tenant got only {j1_early}/10 early grants ({order:?})"
        );
        assert_eq!(*order.last().unwrap(), 2, "light tenant finishes last");
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn a_read_bigger_than_the_quantum_is_still_served() {
        let s = sched(
            "1=1",
            QosOptions {
                max_inflight: 2,
                queue_cap: 4,
                quantum: 16,
            },
        );
        // Cost ≫ quantum: work conservation must grant it anyway.
        let g = s.admit(JobId(1), 1 << 30);
        assert!(matches!(g, Admit::Granted(_)));
        assert_eq!(s.inflight(), 1);
        drop(g);
        assert_eq!(s.inflight(), 0);
    }
}
