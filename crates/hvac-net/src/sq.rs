//! The client's dispatch pool for multi-RPC reads.
//!
//! A read that needs several RPCs — the chunks of a large whole-file read,
//! the per-destination batches of a segmented one — hands them to
//! [`SqPool::call_all`] as one list of `(destination, payload)` calls. The
//! first call runs on the calling thread; the rest go to a small set of
//! long-lived worker threads fed over a crossbeam channel, so up to the
//! pool's worker count run at once. Every call goes through
//! [`Fabric::call_with_deadline`] with the same deadline, so each carries
//! the full deadline/fault-injection semantics of a standalone RPC, and the
//! results come back in call order.
//!
//! Spawning threads per read was measured at ~100 µs per read on the
//! segmented hot path, swamping the round trips it parallelized; a pool
//! pays that cost once at client construction. Running the first call on
//! the caller's thread means a read makes progress even when every worker
//! is busy with other reads. Nothing here enters the `hvac-sync` lock
//! hierarchy: the pool owns channels and atomics only.

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Sender};
use hvac_types::{HvacError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fabric::{Fabric, Reply};

/// Number of dispatch workers per client [`SqPool`], which bounds how many
/// RPCs of one read are in flight at once.
pub const DEFAULT_SQ_DEPTH: usize = 4;

/// One call in flight on a pool worker.
struct Job {
    dest: String,
    payload: Bytes,
    deadline: Duration,
    /// Position of this call in its list, echoed back so the caller can
    /// put the results in call order.
    idx: usize,
    done: Sender<(usize, Result<Reply>)>,
}

struct PoolInner {
    fabric: Arc<Fabric>,
    /// Jobs dispatched to the channel and not yet completed (queued or
    /// running). Shared with every worker; used to scale a call list's
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

/// A persistent pool of RPC dispatch workers. Cloning is cheap and shares
/// the same workers; the threads exit when the last clone drops.
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
                        // The caller may have given up on the list; a dead
                        // result channel is not the worker's problem.
                        let _ = job.done.send((job.idx, result));
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

    /// Issue every `(destination, payload)` call, each answered within
    /// `deadline`, and block until all complete. The first call runs on
    /// this thread; the rest run on the pool's workers. Results come back
    /// in call order (index `i` answers call `i`); one call failing does
    /// not cancel the others, and the caller decides whether a partial
    /// answer is usable. A call whose worker never answers is an
    /// [`HvacError::Rpc`].
    pub fn call_all(&self, calls: Vec<(String, Bytes)>, deadline: Duration) -> Vec<Result<Reply>> {
        let n = calls.len();
        let fabric = &self.inner.fabric;
        let mut calls = calls.into_iter();
        let Some((first_dest, first_payload)) = calls.next() else {
            return Vec::new();
        };
        if n == 1 {
            // One call: no dispatch, same as a plain call.
            return vec![fabric.call_with_deadline(&first_dest, first_payload, deadline)];
        }
        // Snapshot the pool backlog before dispatching: our n-1 dispatched
        // jobs queue behind it, and the bound must absorb that wait.
        let backlog = self.inner.outstanding.load(Ordering::Relaxed);
        let overall = overall_bound(deadline, (n - 1) as u64, backlog, self.workers() as u64);
        let (done_tx, done_rx) = bounded::<(usize, Result<Reply>)>(n);
        for (off, (dest, payload)) in calls.enumerate() {
            self.dispatch(Job {
                dest,
                payload,
                deadline,
                idx: off + 1,
                done: done_tx.clone(),
            });
        }
        let mut slots: Vec<Option<Result<Reply>>> = (0..n).map(|_| None).collect();
        slots[0] = Some(fabric.call_with_deadline(&first_dest, first_payload, deadline));
        let start = Instant::now();
        for _ in 1..n {
            match done_rx.recv_timeout(overall.saturating_sub(start.elapsed())) {
                Ok((idx, result)) => slots[idx] = Some(result),
                Err(_) => break,
            }
        }
        slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| Err(HvacError::Rpc("dispatch pool lost a worker".into()))))
            .collect()
    }
}

/// Overall recv bound for one call list. Per-call deadlines are enforced by
/// the fabric once a job reaches a worker, but on a shared pool a job can
/// first sit in the channel behind `backlog` earlier jobs (and behind this
/// list's own earlier calls) — queue wait a single `deadline + 5s` bound
/// does not cover, which falsely abandoned whole batches under load. The
/// pool drains at least `workers` jobs per `deadline` round, so
/// `ceil((backlog + dispatched) / workers)` rounds plus slack covers the
/// worst-case queueing; the bound still exists only to turn a lost worker
/// into per-call errors instead of a hang.
fn overall_bound(deadline: Duration, dispatched: u64, backlog: u64, workers: u64) -> Duration {
    let rounds = backlog
        .saturating_add(dispatched)
        .div_ceil(workers.max(1))
        .max(1);
    deadline
        .saturating_mul(u32::try_from(rounds).unwrap_or(u32::MAX))
        .saturating_add(Duration::from_secs(5))
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

    const DEADLINE: Duration = Duration::from_secs(5);

    #[test]
    fn completions_come_back_in_submission_order() {
        let (fabric, _servers) = fabric_with_echo(&["s0", "s1"]);
        let pool = SqPool::new(fabric, 4).unwrap();
        let calls = (0..16)
            .map(|i| (format!("s{}", i % 2), Bytes::from(format!("req-{i}"))))
            .collect();
        let results = pool.call_all(calls, DEADLINE);
        assert_eq!(results.len(), 16);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().header, Bytes::from(format!("req-{i}")));
        }
    }

    #[test]
    fn one_failure_does_not_poison_the_batch() {
        let (fabric, _servers) = fabric_with_echo(&["s0"]);
        let pool = SqPool::new(fabric, 3).unwrap();
        // The middle call targets an endpoint that was never registered,
        // so only it fails; the other results are unaffected.
        let calls = ["s0", "nowhere", "s0"]
            .iter()
            .map(|dest| (dest.to_string(), Bytes::from_static(b"ok")))
            .collect();
        let results = pool.call_all(calls, DEADLINE);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_and_single_entry_submits_avoid_dispatch() {
        let (fabric, _servers) = fabric_with_echo(&["s0"]);
        let pool = SqPool::new(fabric, 8).unwrap();
        assert!(pool.call_all(Vec::new(), DEADLINE).is_empty());
        let results = pool.call_all(vec![("s0".into(), Bytes::from_static(b"solo"))], DEADLINE);
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].as_ref().unwrap().header,
            Bytes::from_static(b"solo")
        );
    }

    #[test]
    fn one_pool_serves_many_queues_concurrently() {
        let (fabric, _servers) = fabric_with_echo(&["s0", "s1"]);
        let pool = SqPool::new(fabric, 4).unwrap();
        assert_eq!(pool.workers(), 4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let pool = pool.clone();
                    s.spawn(move || {
                        let calls = (0..6)
                            .map(|i| (format!("s{}", i % 2), Bytes::from(format!("t{t}-{i}"))))
                            .collect();
                        let results = pool.call_all(calls, DEADLINE);
                        assert_eq!(results.len(), 6);
                        for (i, r) in results.iter().enumerate() {
                            assert_eq!(
                                r.as_ref().unwrap().header,
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
        let calls = vec![("s0".to_string(), Bytes::from_static(b"x")); 3];
        assert_eq!(clone.call_all(calls, DEADLINE).len(), 3);
        drop(clone); // joins the workers; a hang here would fail the test
    }
}
