//! The worker pool: every persistent worker thread in HVAC runs here.
//!
//! Two kinds of jobs run on [`SqPool`]s. A client RPC is a plan of
//! entries — the `Stat` of an open, the chunks of a read, the
//! per-replica-list batches of a segmented read, the groups of a prefetch —
//! and each entry is one job: a closure that walks the replica ladder for
//! its request and returns what it got. [`SqPool::run_all`] runs one plan's
//! jobs and returns their results in job order. The first job runs on the
//! calling thread, so a one-entry plan never dispatches and a plan makes
//! progress even when every worker is busy with other plans. A server's
//! data-mover copies are the other kind: each PFS copy is one
//! fire-and-forget [`SqPool::submit`] on the server instance's own pool,
//! and its waiters hear from the copy itself. Either way the jobs go to a
//! small set of long-lived worker threads fed over one crossbeam channel,
//! so up to the pool's worker count run at once, in FIFO order.
//!
//! Each job `run_all` dispatches answers on its own channel. A job that
//! dies without answering drops its sender while unwinding, so its slot
//! fails at once as an [`HvacError::Rpc`] and no timer is needed; the
//! worker catches the panic and goes on serving, so the queue always has
//! workers to drain it.
//!
//! Spawning threads per read was measured at ~100 µs per read on the
//! segmented hot path, swamping the round trips it parallelized; a pool
//! pays that cost once at construction. Nothing here enters the
//! [`hvac_sync`] lock hierarchy: the pool owns channels only.

use crossbeam::channel::{bounded, unbounded, Sender};
use hvac_types::{HvacError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Number of dispatch workers of a client's [`SqPool`], which bounds how
/// many entries of one plan run at once beside the caller's own.
pub const DEFAULT_SQ_DEPTH: usize = 4;

/// One job on its way to a worker.
type Task = Box<dyn FnOnce() + Send>;

struct PoolInner {
    /// `Some` for the pool's whole life; taken in `Drop` to close the
    /// queue so workers drain and exit.
    tx: Option<Sender<Task>>,
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

/// A persistent pool of workers. Cloning is cheap and shares the same
/// workers; the threads finish the queued jobs and exit when the last
/// clone drops.
#[derive(Clone)]
pub struct SqPool {
    inner: Arc<PoolInner>,
}

impl SqPool {
    /// Spawn a pool of `workers` threads (clamped to at least one), named
    /// `hvac-<name>-<i>`.
    pub fn new(name: &str, workers: usize) -> Result<Self> {
        let (tx, rx) = unbounded::<Task>();
        let mut threads = Vec::with_capacity(workers.max(1));
        for w in 0..workers.max(1) {
            let rx = rx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("hvac-{name}-{w}"))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        // A panicking job fails only itself: a `run_all`
                        // slot's sender drops while unwinding.
                        let _ = catch_unwind(AssertUnwindSafe(task));
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
                tx: Some(tx),
                threads,
            }),
        })
    }

    /// Queue `job` for the next free worker and return at once. Jobs start
    /// in submission order.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        // `tx` is `Some` for the pool's whole life, and its workers hold
        // the receivers, so the send cannot be refused.
        if let Some(tx) = &self.inner.tx {
            let _ = tx.send(Box::new(job));
        }
    }

    /// Run every job and block until each has answered. The first job runs
    /// on this thread; the rest are [submitted](Self::submit) to the pool's
    /// workers. Results come back in job order (index `i` answers job `i`);
    /// one job failing does not cancel the others. A job that dies without
    /// answering is an [`HvacError::Rpc`] in its own slot.
    pub fn run_all<T, F>(&self, jobs: impl IntoIterator<Item = F>) -> Vec<Result<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else {
            return Vec::new();
        };
        let answers: Vec<_> = jobs
            .map(|job| {
                let (done, answer) = bounded(1);
                // The caller may have stopped listening; nothing to do.
                self.submit(move || {
                    let _ = done.send(job());
                });
                answer
            })
            .collect();
        let mut results = Vec::with_capacity(answers.len() + 1);
        results.push(Ok(first()));
        results.extend(answers.into_iter().map(|answer| {
            answer
                .recv()
                .map_err(|_| HvacError::Rpc("a dispatched job died without answering".into()))
        }));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn completions_come_back_in_submission_order() {
        let pool = SqPool::new("test", 4).unwrap();
        // Later jobs finish first; the results still follow job order.
        let results = pool.run_all((0..16u64).map(|i| {
            move || {
                std::thread::sleep(Duration::from_millis(16 - i));
                i
            }
        }));
        let got: Vec<u64> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn one_failure_does_not_poison_the_batch() {
        let pool = SqPool::new("test", 3).unwrap();
        // The middle job fails; the other results are unaffected.
        let results = pool.run_all((0..3).map(|i| {
            move || {
                if i == 1 {
                    Err(HvacError::ServerDown("nowhere".into()))
                } else {
                    Ok(i)
                }
            }
        }));
        assert_eq!(*results[0].as_ref().unwrap().as_ref().unwrap(), 0);
        assert!(results[1].as_ref().unwrap().is_err());
        assert_eq!(*results[2].as_ref().unwrap().as_ref().unwrap(), 2);
    }

    #[test]
    fn empty_and_single_entry_submits_avoid_dispatch() {
        let pool = SqPool::new("test", 8).unwrap();
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(pool.run_all(none).is_empty());
        let caller = std::thread::current().id();
        let results = pool.run_all([move || std::thread::current().id() == caller]);
        assert_eq!(results.len(), 1);
        assert!(*results[0].as_ref().unwrap(), "one job runs inline");
        // With two jobs, the second goes to a worker.
        let results = pool.run_all((0..2).map(|_| move || std::thread::current().id() == caller));
        let inline: Vec<bool> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(inline, [true, false]);
    }

    #[test]
    fn one_pool_serves_many_queues_concurrently() {
        let pool = SqPool::new("test", 4).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let pool = pool.clone();
                    s.spawn(move || {
                        let results = pool.run_all((0..6).map(|i| move || format!("t{t}-{i}")));
                        assert_eq!(results.len(), 6);
                        for (i, r) in results.into_iter().enumerate() {
                            assert_eq!(r.unwrap(), format!("t{t}-{i}"));
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
    fn a_panicking_job_fails_only_its_own_slot() {
        // One worker: the panicking job and every job after it share it, so
        // the later results prove the worker survived. No timer decides
        // anything here; the dead job's slot fails when its sender drops.
        let pool = SqPool::new("test", 1).unwrap();
        let results = pool.run_all((0..4).map(|i| {
            move || {
                if i == 1 {
                    panic!("job {i} dies");
                }
                i
            }
        }));
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        assert!(
            matches!(&results[1], Err(HvacError::Rpc(msg)) if msg.contains("died")),
            "{:?}",
            results[1].as_ref().err()
        );
        assert_eq!(*results[2].as_ref().unwrap(), 2);
        assert_eq!(*results[3].as_ref().unwrap(), 3);
        // The worker keeps serving later lists.
        let again = pool.run_all((0..3).map(|i| move || i * 10));
        let got: Vec<i32> = again.into_iter().map(Result::unwrap).collect();
        assert_eq!(got, [0, 10, 20]);
    }

    #[test]
    fn submitted_jobs_run_off_thread_in_fifo_order_and_drain_before_the_drop() {
        let pool = SqPool::new("test", 1).unwrap();
        let caller = std::thread::current().id();
        let (open_gate, gate) = bounded::<()>(1);
        let (ran_tx, ran) = unbounded();
        for i in 0..8 {
            let (gate, ran_tx) = (gate.clone(), ran_tx.clone());
            pool.submit(move || {
                if i == 0 {
                    // Park the only worker, so jobs 1..8 stay queued.
                    let _ = gate.recv_timeout(Duration::from_secs(30));
                }
                let me = std::thread::current();
                let _ = ran_tx.send((i, me.id() != caller, me.name().map(String::from)));
            });
        }
        drop(ran_tx);
        // Drop the last clone on another thread, and open the gate only
        // once that drop has begun: jobs 1..8 are still queued then.
        let weak = Arc::downgrade(&pool.inner);
        let dropper = std::thread::spawn(move || drop(pool));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while weak.strong_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        open_gate.send(()).unwrap();
        dropper.join().unwrap();
        // Every job ran, in submission order, on the pool's named worker,
        // before the drop returned.
        let mut got = Vec::new();
        while let Ok(r) = ran.try_recv() {
            got.push(r);
        }
        let want: Vec<_> = (0..8)
            .map(|i| (i, true, Some("hvac-test-0".to_string())))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_workers_exit_when_the_last_clone_drops() {
        let pool = SqPool::new("test", 2).unwrap();
        let clone = pool.clone();
        drop(pool);
        // The clone still dispatches fine.
        assert_eq!(clone.run_all((0..3).map(|i| move || i)).len(), 3);
        drop(clone); // joins the workers; a hang here would fail the test
    }
}
