//! Submission-queue API for multi-RPC reads.
//!
//! io_uring replaced one-syscall-per-I/O with a prepared queue of
//! submission entries drained by persistent kernel workers; this module
//! gives the HVAC client the same shape for the RPCs of one read — the
//! chunks of a large whole-file read and the per-destination batches of a
//! segmented one: `prep` entries into a [`SubmissionQueue`], then
//! `submit_and_wait` drains them — dispatching up to the pool's worker
//! count concurrently — and returns one [`Completion`] per entry, in
//! submission order, tagged with the caller's `user_data` like a CQE.
//!
//! Keeping the io_uring signature (prep / submit_and_wait / user_data) is
//! deliberate: a future liburing backend slots in behind this API without
//! touching callers. The current backend issues each entry through
//! [`Fabric::call_with_deadline`], so every entry carries the full
//! deadline/fault-injection semantics of a standalone RPC.
//!
//! Dispatch concurrency comes from an [`SqPool`] — a small set of
//! long-lived worker threads fed over a crossbeam channel, mirroring
//! io_uring's persistent workers. Spawning threads per submit was
//! measured at ~100 µs per read on the segmented hot path, swamping the
//! round trips it parallelized; a pool pays that cost once at client
//! construction. The submitting thread always runs the first entry
//! itself, so a submit makes progress even when every pool worker is
//! busy with other submits. Nothing here enters the `hvac-sync` lock
//! hierarchy: the queue and pool own channels and atomics only.

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Sender};
use hvac_types::{HvacError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fabric::{Fabric, Reply};

/// Default number of dispatch workers per client [`SqPool`], which bounds
/// how many RPCs of one submit are in flight at once.
pub const DEFAULT_SQ_DEPTH: usize = 4;

/// One prepared RPC: `payload` to `dest`, answered within `deadline`.
#[derive(Debug, Clone)]
pub struct SqEntry {
    /// Destination endpoint address (a [`Fabric`] endpoint name).
    pub dest: String,
    /// Encoded request payload, handed to the fabric verbatim.
    pub payload: Bytes,
    /// Per-entry RPC deadline.
    pub deadline: Duration,
    /// Opaque caller tag, echoed on the matching [`Completion`].
    pub user_data: u64,
}

/// One completed RPC, tagged with the submitting entry's `user_data`.
#[derive(Debug)]
pub struct Completion {
    /// The `user_data` of the [`SqEntry`] this completes.
    pub user_data: u64,
    /// The RPC outcome: a reply, or the entry's own typed error.
    pub result: Result<Reply>,
}

/// One dispatched entry in flight on a pool worker.
struct Job {
    dest: String,
    payload: Bytes,
    deadline: Duration,
    user_data: u64,
    /// Position of this entry in its submit, echoed back so the caller
    /// can reassemble completions in submission order.
    idx: usize,
    done: Sender<(usize, Completion)>,
}

struct PoolInner {
    fabric: Arc<Fabric>,
    /// Jobs dispatched to the channel and not yet completed (queued or
    /// running). Shared with every worker; used to scale a submit's
    /// overall recv bound by the backlog it queues behind.
    outstanding: Arc<AtomicU64>,
    /// `Some` for the pool's whole life; taken in `Drop` to close the
    /// queue so workers drain and exit.
    tx: Option<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        self.tx.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A persistent pool of RPC dispatch workers shared by every
/// [`SubmissionQueue`] built over it (io_uring's kernel workers, in
/// userspace). Cloning is cheap and shares the same workers; the threads
/// exit when the last clone drops.
#[derive(Clone)]
pub struct SqPool {
    inner: Arc<PoolInner>,
}

impl SqPool {
    /// Spawn a pool of `workers` dispatch threads (clamped to at least
    /// one) issuing through `fabric`.
    pub fn new(fabric: Arc<Fabric>, workers: usize) -> Result<Self> {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Job>();
        let outstanding = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx = rx.clone();
            let fabric = fabric.clone();
            let outstanding = Arc::clone(&outstanding);
            let spawned = std::thread::Builder::new()
                .name(format!("hvac-sq-{w}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let result =
                            fabric.call_with_deadline(&job.dest, job.payload, job.deadline);
                        // Submitter may have given up on the batch; a dead
                        // completion channel is not the worker's problem.
                        let _ = job.done.send((
                            job.idx,
                            Completion {
                                user_data: job.user_data,
                                result,
                            },
                        ));
                        outstanding.fetch_sub(1, Ordering::Relaxed);
                    }
                });
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(e) => {
                    // Roll back: close the queue so the already-spawned
                    // workers drain and exit, then join them.
                    drop(tx);
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(HvacError::Io(e));
                }
            }
        }
        Ok(Self {
            inner: Arc::new(PoolInner {
                fabric,
                outstanding,
                tx: Some(tx),
                threads,
            }),
        })
    }

    /// Number of dispatch workers.
    pub fn workers(&self) -> usize {
        self.inner.threads.len()
    }

    fn dispatch(&self, job: Job) {
        // `tx` is `Some` for the pool's whole life (only `Drop` takes it),
        // and workers never hang up their receiver while it lives.
        if let Some(tx) = &self.inner.tx {
            self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
            if tx.send(job).is_err() {
                self.inner.outstanding.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Overall recv bound for one submit. Per-entry deadlines are enforced by
/// the fabric once a job reaches a worker, but on a shared pool a job can
/// first sit in the channel behind `backlog` earlier jobs (and behind this
/// submit's own earlier entries) — queue wait a single `max_deadline + 5s`
/// bound does not cover, which falsely abandoned whole batches under load.
/// The pool drains at least `workers` jobs per `max_deadline` round, so
/// `ceil((backlog + dispatched) / workers)` rounds plus slack covers the
/// worst-case queueing; the bound still exists only to turn a lost worker
/// into per-slot errors instead of a hang.
fn overall_bound(max_deadline: Duration, dispatched: u64, backlog: u64, workers: u64) -> Duration {
    let rounds = backlog
        .saturating_add(dispatched)
        .div_ceil(workers.max(1))
        .max(1);
    max_deadline
        .saturating_mul(u32::try_from(rounds).unwrap_or(u32::MAX))
        .saturating_add(Duration::from_secs(5))
}

/// A prepared queue of small RPCs drained concurrently on submit.
pub struct SubmissionQueue {
    pool: SqPool,
    entries: Vec<SqEntry>,
}

impl SubmissionQueue {
    /// Create a queue over an existing pool. Costs nothing: the queue is a
    /// prep buffer, and dispatch concurrency lives in the shared pool.
    pub fn with_pool(pool: &SqPool) -> Self {
        Self {
            pool: pool.clone(),
            entries: Vec::new(),
        }
    }

    /// Queue one entry for the next submit. No I/O happens here.
    pub fn prep(&mut self, entry: SqEntry) {
        self.entries.push(entry);
    }

    /// Number of entries queued for the next submit.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Drain the queue: dispatch every prepared entry to the pool (the
    /// first entry runs on the submitting thread itself) and block until
    /// all complete. Completions are returned in submission order (index
    /// `i` completes entry `i`); one entry failing does not cancel the
    /// others — each completion carries its own `Result`, and the caller
    /// decides whether a partial batch is usable.
    ///
    /// The queue is empty afterwards and can be re-prepped and resubmitted.
    pub fn submit_and_wait(&mut self) -> Vec<Completion> {
        let mut entries = std::mem::take(&mut self.entries);
        if entries.is_empty() {
            return Vec::new();
        }
        let fabric = &self.pool.inner.fabric;
        if entries.len() == 1 {
            // Degenerate queue: no dispatch, same as a plain call.
            return entries
                .drain(..)
                .map(|e| Completion {
                    user_data: e.user_data,
                    result: fabric.call_with_deadline(&e.dest, e.payload, e.deadline),
                })
                .collect();
        }
        let n = entries.len();
        let max_deadline = entries.iter().map(|e| e.deadline).max().unwrap_or_default();
        // Snapshot the pool backlog before dispatching: our n-1 dispatched
        // jobs queue behind it, and the bound must absorb that wait.
        let backlog = self.pool.inner.outstanding.load(Ordering::Relaxed);
        let overall = overall_bound(
            max_deadline,
            (n - 1) as u64,
            backlog,
            self.pool.workers() as u64,
        );
        let (done_tx, done_rx) = bounded::<(usize, Completion)>(n);
        let mut drained = entries.drain(..);
        let Some(first) = drained.next() else {
            return Vec::new();
        };
        for (off, e) in drained.enumerate() {
            self.pool.dispatch(Job {
                dest: e.dest,
                payload: e.payload,
                deadline: e.deadline,
                user_data: e.user_data,
                idx: off + 1,
                done: done_tx.clone(),
            });
        }
        let mut slots: Vec<Option<Completion>> = (0..n).map(|_| None).collect();
        slots[0] = Some(Completion {
            user_data: first.user_data,
            result: fabric.call_with_deadline(&first.dest, first.payload, first.deadline),
        });
        let start = Instant::now();
        for _ in 1..n {
            match done_rx.recv_timeout(overall.saturating_sub(start.elapsed())) {
                Ok((idx, c)) => slots[idx] = Some(c),
                Err(_) => break,
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or(Completion {
                    user_data: u64::MAX,
                    result: Err(HvacError::Rpc(
                        "submission queue lost a dispatch worker".into(),
                    )),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::RpcHandler;

    struct Echo;
    impl RpcHandler for Echo {
        fn handle(&self, request: Bytes) -> Reply {
            Reply {
                header: request,
                bulk: None,
            }
        }
    }

    fn fabric_with_echo(addrs: &[&str]) -> (Arc<Fabric>, Vec<crate::fabric::ServerEndpoint>) {
        let fabric = Arc::new(Fabric::new());
        let servers = addrs
            .iter()
            .map(|addr| fabric.serve(addr, Arc::new(Echo)).unwrap())
            .collect();
        (fabric, servers)
    }

    #[test]
    fn completions_come_back_in_submission_order() {
        let (fabric, _servers) = fabric_with_echo(&["s0", "s1"]);
        let pool = SqPool::new(fabric, 4).unwrap();
        let mut sq = SubmissionQueue::with_pool(&pool);
        for i in 0..16u64 {
            sq.prep(SqEntry {
                dest: format!("s{}", i % 2),
                payload: Bytes::from(format!("req-{i}")),
                deadline: Duration::from_secs(5),
                user_data: i,
            });
        }
        assert_eq!(sq.pending(), 16);
        let completions = sq.submit_and_wait();
        assert_eq!(sq.pending(), 0);
        assert_eq!(completions.len(), 16);
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.user_data, i as u64);
            let reply = c.result.as_ref().unwrap();
            assert_eq!(reply.header, Bytes::from(format!("req-{i}")));
        }
    }

    #[test]
    fn one_failure_does_not_poison_the_batch() {
        let (fabric, _servers) = fabric_with_echo(&["s0"]);
        let pool = SqPool::new(fabric, 3).unwrap();
        let mut sq = SubmissionQueue::with_pool(&pool);
        // The middle entry targets an endpoint that was never registered,
        // so only it fails; the batch's other completions are unaffected.
        for (i, dest) in ["s0", "nowhere", "s0"].iter().enumerate() {
            sq.prep(SqEntry {
                dest: (*dest).into(),
                payload: Bytes::from_static(b"ok"),
                deadline: Duration::from_secs(5),
                user_data: i as u64,
            });
        }
        let completions = sq.submit_and_wait();
        assert!(completions[0].result.is_ok());
        assert!(completions[1].result.is_err());
        assert!(completions[2].result.is_ok());
    }

    #[test]
    fn empty_and_single_entry_submits_avoid_dispatch() {
        let (fabric, _servers) = fabric_with_echo(&["s0"]);
        let pool = SqPool::new(fabric, 8).unwrap();
        let mut sq = SubmissionQueue::with_pool(&pool);
        assert!(sq.submit_and_wait().is_empty());
        sq.prep(SqEntry {
            dest: "s0".into(),
            payload: Bytes::from_static(b"solo"),
            deadline: Duration::from_secs(5),
            user_data: 42,
        });
        let completions = sq.submit_and_wait();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].user_data, 42);
        assert_eq!(
            completions[0].result.as_ref().unwrap().header,
            Bytes::from_static(b"solo")
        );
    }

    #[test]
    fn queue_is_reusable_after_submit() {
        let (fabric, _servers) = fabric_with_echo(&["s0"]);
        let pool = SqPool::new(fabric, 2).unwrap();
        let mut sq = SubmissionQueue::with_pool(&pool);
        for round in 0..3u64 {
            for i in 0..4u64 {
                sq.prep(SqEntry {
                    dest: "s0".into(),
                    payload: Bytes::from(format!("r{round}-{i}")),
                    deadline: Duration::from_secs(5),
                    user_data: i,
                });
            }
            let completions = sq.submit_and_wait();
            assert_eq!(completions.len(), 4);
            assert!(completions.iter().all(|c| c.result.is_ok()));
        }
    }

    #[test]
    fn one_pool_serves_many_queues_concurrently() {
        let (fabric, _servers) = fabric_with_echo(&["s0", "s1"]);
        let pool = SqPool::new(fabric, 4).unwrap();
        assert_eq!(pool.workers(), 4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let pool = pool.clone();
                    s.spawn(move || {
                        let mut sq = SubmissionQueue::with_pool(&pool);
                        for i in 0..6u64 {
                            sq.prep(SqEntry {
                                dest: format!("s{}", i % 2),
                                payload: Bytes::from(format!("t{t}-{i}")),
                                deadline: Duration::from_secs(5),
                                user_data: i,
                            });
                        }
                        let completions = sq.submit_and_wait();
                        assert_eq!(completions.len(), 6);
                        for (i, c) in completions.iter().enumerate() {
                            assert_eq!(c.user_data, i as u64);
                            assert_eq!(
                                c.result.as_ref().unwrap().header,
                                Bytes::from(format!("t{t}-{i}"))
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn overall_bound_scales_with_queue_rounds() {
        let d = Duration::from_secs(1);
        let slack = Duration::from_secs(5);
        // Empty pool, everything fits in one round: one deadline + slack.
        assert_eq!(overall_bound(d, 3, 0, 4), d + slack);
        // 7 of our jobs + 9 backlogged jobs over 4 workers: 4 rounds.
        assert_eq!(overall_bound(d, 7, 9, 4), 4 * d + slack);
        // A busy shared pool must not shrink the bound below one round,
        // and zero workers must not divide by zero.
        assert_eq!(overall_bound(d, 0, 0, 4), d + slack);
        assert_eq!(overall_bound(d, 1, 0, 0), d + slack);
        // Absurd backlogs saturate instead of overflowing.
        let huge = overall_bound(Duration::from_secs(3600), u64::MAX, u64::MAX, 1);
        assert!(huge >= Duration::from_secs(3600));
    }

    #[test]
    fn pool_workers_exit_when_the_last_clone_drops() {
        let (fabric, _servers) = fabric_with_echo(&["s0"]);
        let pool = SqPool::new(fabric, 2).unwrap();
        let clone = pool.clone();
        drop(pool);
        // The clone still dispatches fine.
        let mut sq = SubmissionQueue::with_pool(&clone);
        for i in 0..3u64 {
            sq.prep(SqEntry {
                dest: "s0".into(),
                payload: Bytes::from_static(b"x"),
                deadline: Duration::from_secs(5),
                user_data: i,
            });
        }
        assert_eq!(sq.submit_and_wait().len(), 3);
        drop(sq);
        drop(clone); // joins the workers; a hang here would fail the test
    }
}
