//! A small worker pool for a batch's slice stores and window plans.
//!
//! The sharded execution core advances each slice store a batch (or
//! heartbeat) reaches as one job, then stages every window it closes as a
//! [`crate::runtime::WindowTask`] for this pool. Jobs are side-effect free
//! — a store is owned data, a plan reads its window plus a pinned MVCC
//! snapshot — so they run on any thread in any order; determinism comes
//! from [`WorkerPool::run_ordered`] returning results **in submission
//! order**, which the caller arranges to be the serial order (store; CQ
//! registration × window close). Sequencing therefore costs nothing: the
//! results vector *is* the order single-threaded execution emits.
//!
//! The calling thread never idles while its batch runs: it helps drain
//! the queue, so a pool of `n` workers gives `n + 1` lanes and a pool of
//! zero workers degenerates to exactly the old inline execution.
//!
//! A job that panics does so inside its own slot: the unwind is caught
//! wherever the job ran and re-raised on the submitting thread once the
//! whole batch is in, first panic in submission order — the outcome of
//! running the batch inline — while the worker thread lives on.

// The job queue lock is released before a job runs; a job's completion
// closure takes its batch's results lock, which also holds the count of
// slots still empty. No lock is ever held while executing user work.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use streamrel_obs::{Gauge, Registry};

/// A queued job. A pool thread passes its `pool.busy_workers`, which the
/// job takes down before it completes its slot; the helping caller `None`.
type Job = Box<dyn FnOnce(Option<&Gauge>) + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// `pool.queue_depth`: jobs enqueued but not yet started.
    queue_depth: Arc<Gauge>,
    /// `pool.busy_workers`: pool threads currently executing a job (the
    /// helping caller thread is not counted — it is accounted to the
    /// operation that submitted the batch).
    busy_workers: Arc<Gauge>,
}

impl PoolShared {
    fn enqueue(&self, job: Job) {
        self.queue_depth.add(1);
        self.queue.lock().push_back(job);
        self.queue_cv.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        let job = self.queue.lock().pop_front();
        if job.is_some() {
            self.queue_depth.sub(1);
        }
        job
    }
}

/// Fixed-size pool of evaluation workers. Dropping the pool joins every
/// worker thread.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads. Zero workers is valid: every batch then
    /// runs inline on the calling thread (the serial baseline).
    pub fn new(workers: usize, registry: &Registry) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::named("cq.queue", VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_depth: registry.gauge("pool.queue_depth"),
            busy_workers: registry.gauge("pool.busy_workers"),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("streamrel-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .unwrap_or_else(|e| panic!("spawn pool worker: {e}"))
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of pool threads (excluding the helping caller).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run every task, returning results **in submission order**. The
    /// calling thread helps drain the queue, then blocks until its batch
    /// completes.
    pub fn run_ordered<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.workers.is_empty() || tasks.len() <= 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }
        let n = tasks.len();
        let batch = Arc::new(BatchState {
            results: Mutex::named("cq.results", ((0..n).map(|_| None).collect(), n)),
            done_cv: Condvar::new(),
        });
        for (i, f) in tasks.into_iter().enumerate() {
            let batch = batch.clone();
            self.shared.enqueue(Box::new(move |busy: Option<&Gauge>| {
                let r = catch_unwind(AssertUnwindSafe(f));
                busy.inspect(|busy| busy.sub(1));
                batch.complete(i, r);
            }));
        }
        // Help: run queued jobs (possibly other batches') until the queue
        // is dry, then wait for our batch to finish.
        while let Some(job) = self.shared.try_pop() {
            job(None);
        }
        batch.wait_results()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    shared.queue_depth.sub(1);
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Timed wait so shutdown can never be missed.
                shared.queue_cv.wait_for(&mut q, Duration::from_millis(50));
            }
        };
        shared.busy_workers.add(1);
        job(Some(&shared.busy_workers));
    }
}

/// Completion state for one `run_ordered` batch: the result slots (each a
/// value or the panic its job raised) and how many of them are still
/// empty, under one lock.
struct BatchState<T> {
    results: Mutex<(Vec<Option<std::thread::Result<T>>>, usize)>,
    done_cv: Condvar,
}

impl<T> BatchState<T> {
    fn complete(&self, i: usize, r: std::thread::Result<T>) {
        let mut g = self.results.lock();
        let (slots, left) = &mut *g;
        slots[i] = Some(r);
        *left -= 1;
        if *left == 0 {
            self.done_cv.notify_all();
        }
    }

    /// Block until every slot is filled, then take the results in order,
    /// re-raising the first panic among them on this thread.
    fn wait_results(&self) -> Vec<T> {
        let slots = {
            let mut g = self.results.lock();
            while g.1 > 0 {
                self.done_cv.wait(&mut g);
            }
            std::mem::take(&mut g.0)
        };
        slots
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(v)) => v,
                Some(Err(panic)) => resume_unwind(panic),
                None => panic!("batch slot empty"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::new(16)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let reg = registry();
        let pool = WorkerPool::new(3, &reg);
        let tasks: Vec<_> = (0..64)
            .map(|i: u64| {
                move || {
                    // Stagger work so completion order differs from
                    // submission order.
                    if i.is_multiple_of(7) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    i * i
                }
            })
            .collect();
        let got = pool.run_ordered(tasks);
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_workers_runs_inline() {
        let reg = registry();
        let pool = WorkerPool::new(0, &reg);
        let got = pool.run_ordered(vec![|| 1, || 2, || 3]);
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(pool.workers(), 0);
    }

    #[test]
    fn gauges_return_to_zero_after_batches() {
        let reg = registry();
        let pool = WorkerPool::new(2, &reg);
        for _ in 0..10 {
            let tasks: Vec<_> = (0..8).map(|i: i64| move || i).collect();
            let _ = pool.run_ordered(tasks);
        }
        assert_eq!(reg.gauge("pool.queue_depth").get(), 0);
        assert_eq!(reg.gauge("pool.busy_workers").get(), 0);
    }

    /// Two tasks that meet on a barrier, so one runs on the submitting
    /// thread and one on the single pool worker. Each returns whether it
    /// ran on the worker; with `panic_on_worker` that one panics instead.
    fn meeting_tasks(panic_on_worker: bool) -> Vec<impl FnOnce() -> bool + Send + 'static> {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        (0..2)
            .map(|_| {
                let barrier = barrier.clone();
                move || {
                    barrier.wait();
                    let on_worker = std::thread::current()
                        .name()
                        .is_some_and(|n| n.starts_with("streamrel-pool-"));
                    assert!(
                        !(on_worker && panic_on_worker),
                        "job panicked on a pool worker"
                    );
                    on_worker
                }
            })
            .collect()
    }

    #[test]
    fn a_job_panicking_on_a_worker_unwinds_the_submitter() {
        let reg = registry();
        let pool = WorkerPool::new(1, &reg);
        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let first = catch_unwind(AssertUnwindSafe(|| pool.run_ordered(meeting_tasks(true))));
            let _ = tx.send(first.is_err());
            // The worker survived its job's panic: this batch needs it too.
            let second = pool.run_ordered(meeting_tasks(false));
            let _ = tx.send(second.iter().filter(|&&w| w).count() == 1);
        });
        let wait = Duration::from_secs(5);
        assert_eq!(
            rx.recv_timeout(wait),
            Ok(true),
            "run_ordered must re-raise a worker's panic, not wait for its slot for ever"
        );
        assert_eq!(rx.recv_timeout(wait), Ok(true), "the worker thread died");
        submitter.join().expect("the submitter caught the panic");
    }

    #[test]
    fn pool_survives_many_concurrent_batches() {
        let reg = registry();
        let pool = Arc::new(WorkerPool::new(4, &reg));
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for round in 0..50 {
                        let tasks: Vec<_> = (0..5).map(|i: usize| move || (t, round, i)).collect();
                        let got = pool.run_ordered(tasks);
                        assert_eq!(got.len(), 5);
                        assert!(got.iter().enumerate().all(|(i, v)| v.2 == i));
                    }
                });
            }
        });
    }
}
