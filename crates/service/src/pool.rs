//! The worker pool: bounded submission queue, cooperative cancellation,
//! graceful shutdown.
//!
//! Plain `std` threads and channels — no executor, no dependency. Workers
//! share a single receiver behind a mutex (the classic shared-dequeue
//! pattern); the queue is a `sync_channel`, so `try_send` gives
//! backpressure ([`SubmitError::QueueFull`]) and `send` blocks. Dropping
//! the sender is the shutdown signal: workers drain the queue and exit,
//! and [`Pool::drop`] joins every handle, so no detached threads survive
//! the pool and every store entry a worker owed is on disk.

use crate::dispatch::{classify_for, Dispatch};
use crate::exec::{check_forced, execute_then_store};
use crate::job::Job;
use crate::outcome::{JobMetrics, JobOutcome, JobResult};
use cqfd_core::CancelToken;
use cqfd_greenred::DeterminacyOracle;
use cqfd_obs::Gauge;
use cqfd_store::Store;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Pool sizing knobs.
#[derive(Clone)]
pub struct PoolConfig {
    /// Number of worker threads. Defaults to the machine's available
    /// parallelism (at least 1).
    pub workers: usize,
    /// Bounded submission-queue capacity; a full queue makes
    /// [`Pool::submit`] report backpressure.
    pub queue_capacity: usize,
    /// An opened `cqfd-store`: each worker probes it before running a
    /// job and serves a checker-validated hit without computing, misses
    /// run normally, answer, and then write their result back before the
    /// worker takes its next job, and `resume=1` jobs checkpoint to the
    /// store's stage logs. Hits are queued and run on a worker like any
    /// other job. `None` (the default) disables all of it.
    pub store: Option<Arc<Store>>,
    /// Called by a worker after each job's result has been sent into its
    /// [`JobHandle`]. This is how an event-loop front end (the gateway
    /// reactor) learns a `try_wait` will now succeed without polling:
    /// the hook pokes its poller awake. Runs on the worker thread — keep
    /// it cheap and non-blocking.
    pub on_complete: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 64,
            store: None,
            on_complete: None,
        }
    }
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("store", &self.store)
            .field("on_complete", &self.on_complete.as_ref().map(|_| "Fn"))
            .finish()
    }
}

impl PoolConfig {
    /// A pool with exactly `workers` threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the submission-queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Attaches a result store (cache + stage logs) to the pool.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Installs a completion hook (see [`PoolConfig::on_complete`]).
    pub fn with_completion_hook(mut self, hook: Arc<dyn Fn() + Send + Sync>) -> Self {
        self.on_complete = Some(hook);
        self
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — backpressure; retry later or use
    /// [`Pool::submit_blocking`].
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full (backpressure)"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Submission {
    id: u64,
    job: Job,
    cancel: CancelToken,
    reply: mpsc::Sender<JobResult>,
}

/// A submitted job: its id, a cancellation handle, and the result channel.
#[derive(Debug)]
pub struct JobHandle {
    /// The pool-assigned job id (submission order, starting at 1).
    pub id: u64,
    cancel: CancelToken,
    rx: mpsc::Receiver<JobResult>,
}

impl JobHandle {
    /// Requests cooperative cancellation. If the job is still queued it
    /// returns immediately as budget-exceeded when a worker picks it up;
    /// if it is running, the chase, creep or counter-example search loop
    /// stops at the next poll.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job's result is available.
    pub fn wait(self) -> JobResult {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| JobResult {
            id,
            kind: "unknown",
            outcome: JobOutcome::Error {
                message: "worker disappeared before reporting a result".into(),
            },
            metrics: Default::default(),
            certificate: None,
            trace: None,
            lint: None,
        })
    }

    /// Non-blocking poll: the result, if already available.
    pub fn try_wait(&self) -> Option<JobResult> {
        self.rx.try_recv().ok()
    }
}

/// A fixed-size worker pool executing [`Job`]s from a bounded queue.
///
/// ```
/// use cqfd_service::{Job, JobBudget, Pool, PoolConfig};
/// use cqfd_core::{Cq, Signature};
///
/// let mut sig = Signature::new();
/// sig.add_predicate("R", 2);
/// let job = Job::Determine {
///     views: vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()],
///     q0: Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap(),
///     sig,
///     budget: JobBudget::default(),
/// };
/// let pool = Pool::new(PoolConfig::default().with_workers(2));
/// let handle = pool.submit(job).unwrap();
/// let result = handle.wait();
/// assert_eq!(result.outcome.verdict(), "determined");
/// pool.shutdown();
/// ```
pub struct Pool {
    tx: Option<SyncSender<Submission>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    /// Live submissions not yet dequeued by a worker (`cqfd_pool_queue_depth`).
    queue_depth: Gauge,
    /// Live worker threads across all pools (`cqfd_pool_workers`).
    worker_gauge: Gauge,
    /// Shared result store, probed and written by the workers.
    store: Option<Arc<Store>>,
    /// Submission-queue capacity, as configured.
    queue_capacity: usize,
    /// Completion hook, fired by workers after each result send.
    on_complete: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Pool {
    /// Spawns the worker threads and returns the pool.
    pub fn new(config: PoolConfig) -> Pool {
        // Always-on forensics: every pool (serve, gateway, batch) records
        // into the process-wide flight ring, so a later panic/timeout dump
        // has history to show. Idempotent across pools.
        cqfd_flight::install();
        let reg = cqfd_obs::global();
        let queue_depth = reg.gauge(
            "cqfd_pool_queue_depth",
            "Jobs submitted but not yet picked up by a worker.",
            &[],
        );
        let worker_gauge = reg.gauge(
            "cqfd_pool_workers",
            "Live pool worker threads (summed over all pools in the process).",
            &[],
        );
        let (tx, rx) = mpsc::sync_channel::<Submission>(config.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let worker_count = config.workers.max(1);
        // Pool-aware cap on per-job chase threads: `workers × threads`
        // must not oversubscribe the host, so each worker may fan a job
        // out over at most `available_parallelism / workers` threads
        // (min 1 — a job always runs). The cap never changes results,
        // only scheduling.
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        let thread_cap = (avail / worker_count).max(1);
        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let depth = queue_depth.clone();
                let store = config.store.clone();
                let hook = config.on_complete.clone();
                std::thread::Builder::new()
                    .name(format!("cqfd-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &depth, thread_cap, store, hook))
                    .expect("spawn worker thread")
            })
            .collect();
        worker_gauge.add(workers.len() as i64);
        Pool {
            tx: Some(tx),
            workers,
            next_id: AtomicU64::new(1),
            queue_depth,
            worker_gauge,
            store: config.store,
            queue_capacity: config.queue_capacity.max(1),
            on_complete: config.on_complete,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The configured submission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Jobs submitted but not yet picked up by a worker (the live
    /// `cqfd_pool_queue_depth` reading; readiness probes use it).
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.get()
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Submits a job without blocking. A full queue is reported as
    /// [`SubmitError::QueueFull`] — the caller decides whether to retry,
    /// shed load, or block via [`Pool::submit_blocking`].
    pub fn submit(&self, job: Job) -> Result<JobHandle, SubmitError> {
        let (sub, handle) = self.package(job);
        // Pre-routing: a `forced:` dispatch mismatch fails on the
        // submitter's thread, never occupying a queue slot or a worker.
        let Some(sub) = self.preroute(sub) else {
            return Ok(handle);
        };
        match self.sender().try_send(sub) {
            Ok(()) => {
                self.queue_depth.inc();
                Ok(handle)
            }
            Err(TrySendError::Full(_)) => {
                cqfd_obs::global()
                    .counter(
                        "cqfd_pool_rejections_total",
                        "Submissions rejected by queue backpressure.",
                        &[],
                    )
                    .inc();
                Err(SubmitError::QueueFull)
            }
            // Workers only disconnect at shutdown, which consumes the pool.
            Err(TrySendError::Disconnected(_)) => unreachable!("pool alive while submitting"),
        }
    }

    /// Submits a job, blocking while the queue is full (backpressure by
    /// waiting instead of by error).
    pub fn submit_blocking(&self, job: Job) -> JobHandle {
        let (sub, handle) = self.package(job);
        let Some(sub) = self.preroute(sub) else {
            return handle;
        };
        self.sender()
            .send(sub)
            .expect("pool alive while submitting");
        self.queue_depth.inc();
        handle
    }

    /// The pre-dispatch routing probe: classifies a `dispatch=forced:`
    /// determinacy job at submission and, on a classifier mismatch,
    /// answers the error into the reply channel and returns `None`.
    /// Everything else (including `auto`/`semi`, which cannot mismatch)
    /// passes through unclassified — the executor classifies again when
    /// the job actually runs, so this probe costs nothing on the common
    /// path.
    fn preroute(&self, sub: Submission) -> Option<Submission> {
        let rejected = match &sub.job {
            Job::Determine {
                sig,
                views,
                q0,
                budget,
            }
            | Job::CounterexampleSearch {
                sig,
                views,
                q0,
                budget,
            } if matches!(budget.dispatch, Dispatch::Forced(_)) => {
                let oracle = DeterminacyOracle::new(sig.clone());
                let class = classify_for(&oracle, views, q0);
                match check_forced(budget.dispatch, class.fragment) {
                    Ok(()) => None,
                    Err(outcome) => Some((class.fragment.as_str(), outcome)),
                }
            }
            _ => None,
        };
        let Some((fragment, outcome)) = rejected else {
            return Some(sub);
        };
        cqfd_obs::global()
            .counter(
                "cqfd_dispatch_preroute_rejected_total",
                "Forced-dispatch jobs rejected at submission by the classifier.",
                &[("fragment", fragment)],
            )
            .inc();
        let _ = sub.reply.send(JobResult {
            id: sub.id,
            kind: sub.job.kind(),
            outcome,
            metrics: JobMetrics {
                fragment: Some(fragment),
                ..Default::default()
            },
            certificate: None,
            trace: None,
            lint: None,
        });
        if let Some(hook) = &self.on_complete {
            hook();
        }
        None
    }

    /// Runs a whole batch through the pool with blocking submission and
    /// returns the results in submission order.
    pub fn run_batch(&self, jobs: Vec<Job>) -> Vec<JobResult> {
        let handles: Vec<JobHandle> = jobs.into_iter().map(|j| self.submit_blocking(j)).collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }

    /// Graceful shutdown: stops accepting jobs, lets queued jobs finish,
    /// and joins every worker thread. (Merely dropping the pool does the
    /// same; this method just makes the point explicit at call sites.)
    pub fn shutdown(self) {}

    fn sender(&self) -> &SyncSender<Submission> {
        self.tx.as_ref().expect("sender live until drop")
    }

    fn package(&self, job: Job) -> (Submission, JobHandle) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let (reply, rx) = mpsc::channel();
        (
            Submission {
                id,
                job,
                cancel: cancel.clone(),
                reply,
            },
            JobHandle { id, cancel, rx },
        )
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Dropping the sender disconnects the queue; workers finish what
        // is queued and exit. Joining here guarantees no detached threads.
        self.tx = None;
        let joined = self.workers.len();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.worker_gauge.add(-(joined as i64));
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<Submission>>,
    queue_depth: &Gauge,
    thread_cap: usize,
    store: Option<Arc<Store>>,
    on_complete: Option<Arc<dyn Fn() + Send + Sync>>,
) {
    loop {
        // Hold the lock only for the dequeue, not for the job.
        let sub = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling panicked while dequeuing
        };
        match sub {
            Ok(s) => {
                queue_depth.dec();
                // With a store, the worker probes it first (a validated
                // hit is served without computing); a miss is answered
                // first and its entry written after, before the next
                // dequeue. Without one, `lookup` is a no-op.
                //
                // A panicking job dumps the flight ring first — the last
                // spans before the panic are exactly what a post-mortem
                // needs — then resumes the unwind, preserving the pool's
                // existing sibling-poisoning shutdown semantics.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let deliver = |result| {
                        // The submitter may have dropped its handle; that's fine.
                        let _ = s.reply.send(result);
                        if let Some(hook) = &on_complete {
                            hook();
                        }
                    };
                    execute_then_store(
                        s.id,
                        &s.job,
                        &s.cancel,
                        thread_cap,
                        store.as_deref(),
                        true,
                        deliver,
                    )
                }))
                .unwrap_or_else(|panic| {
                    cqfd_flight::dump_to_stderr("panic", 256);
                    std::panic::resume_unwind(panic)
                });
            }
            Err(_) => return, // disconnected: shutdown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBudget;
    use cqfd_rainworm::families::halting_worm_short;

    fn creep_job() -> Job {
        Job::Creep {
            delta: halting_worm_short(),
            budget: JobBudget::default(),
        }
    }

    #[test]
    fn ids_are_sequential_and_results_ordered() {
        let pool = Pool::new(PoolConfig::default().with_workers(2));
        let results = pool.run_batch(vec![creep_job(), creep_job(), creep_job()]);
        let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(results.iter().all(|r| r.outcome.verdict() == "halted"));
    }

    #[test]
    fn queue_overflow_reports_backpressure() {
        // One worker, capacity 1: submissions beyond worker+queue overflow.
        let pool = Pool::new(PoolConfig::default().with_workers(1).with_queue_capacity(1));
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for _ in 0..50 {
            match pool.submit(creep_job()) {
                Ok(h) => accepted.push(h),
                Err(SubmitError::QueueFull) => rejected += 1,
            }
        }
        assert!(rejected > 0, "50 instant submissions must overflow cap 1");
        for h in accepted {
            assert_eq!(h.wait().outcome.verdict(), "halted");
        }
        pool.shutdown();
    }

    #[test]
    fn completion_hook_fires_once_per_job() {
        let count = Arc::new(AtomicU64::new(0));
        let in_hook = Arc::clone(&count);
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(1)
                .with_completion_hook(Arc::new(move || {
                    in_hook.fetch_add(1, Ordering::SeqCst);
                })),
        );
        assert_eq!(pool.queue_capacity(), 64);
        let results = pool.run_batch(vec![creep_job(), creep_job(), creep_job()]);
        assert_eq!(results.len(), 3);
        // The worker fires the hook *after* sending the result (so a
        // reactor woken by the hook always finds the result waiting);
        // run_batch can therefore return a beat before the last call.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while count.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(count.load(Ordering::SeqCst), 3, "one hook call per job");
        pool.shutdown();
    }

    #[test]
    fn cancelling_a_running_counterexample_search_stops_it() {
        // Unbounded, this enumeration runs for half a minute in release.
        let job = crate::parse_job("counterexample instance=mismatch:5x7 dispatch=semi")
            .unwrap()
            .unwrap();
        let pool = Pool::new(PoolConfig::default().with_workers(1));
        let handle = pool.submit(job).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let cancelled_at = std::time::Instant::now();
        handle.cancel();
        let r = wait_bounded(handle);
        assert_eq!(
            r.outcome,
            JobOutcome::BudgetExceeded {
                detail: "cancelled".into()
            }
        );
        assert!(
            cancelled_at.elapsed() < std::time::Duration::from_secs(1),
            "stopped {:?} after the cancel",
            cancelled_at.elapsed()
        );
        pool.shutdown();
    }

    #[test]
    fn forced_mismatch_is_rejected_at_submission() {
        use cqfd_analysis::Fragment;
        let pool = Pool::new(PoolConfig::default().with_workers(1));
        let inst = cqfd_greenred::instances::projection_instance();
        let job = Job::Determine {
            sig: inst.sig,
            views: inst.views,
            q0: inst.q0,
            budget: JobBudget::default().with_dispatch(Dispatch::Forced(Fragment::SpiderPath)),
        };
        let r = pool.submit(job).unwrap().wait();
        let JobOutcome::Error { message } = &r.outcome else {
            panic!("expected a preroute rejection, got {:?}", r.outcome);
        };
        assert!(message.contains("forced:A302"), "{message}");
        assert!(message.contains("A300"), "{message}");
        assert_eq!(r.metrics.fragment, Some("A300"));
        assert_eq!(r.metrics.stages, 0, "rejected before any chase");
        pool.shutdown();
    }

    /// A fresh, empty store under the system temp dir.
    fn temp_store(tag: &str) -> (Arc<Store>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("cqfd-pool-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open temp store");
        (Arc::new(store), dir)
    }

    #[test]
    fn store_hits_are_served_on_a_worker() {
        let (store, dir) = temp_store("hit-thread");
        let threads = Arc::new(Mutex::new(Vec::<String>::new()));
        let in_hook = Arc::clone(&threads);
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(1)
                .with_store(Arc::clone(&store))
                .with_completion_hook(Arc::new(move || {
                    let name = std::thread::current().name().unwrap_or("").to_owned();
                    in_hook.lock().unwrap().push(name);
                })),
        );
        let cold = pool.submit(creep_job()).unwrap().wait();
        assert!(!cold.metrics.cached, "first submission computes");
        let warm = pool.submit(creep_job()).unwrap().wait();
        assert!(warm.metrics.cached, "second submission is a store hit");
        assert_eq!(warm.outcome, cold.outcome);
        // The hook runs after the result send, so it may trail `wait`.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while threads.lock().unwrap().len() < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.shutdown();
        let threads = threads.lock().unwrap();
        assert_eq!(threads.len(), 2, "one hook call per job: {threads:?}");
        assert!(
            threads.iter().all(|t| t.starts_with("cqfd-worker-")),
            "hit and miss both ran on a worker: {threads:?}"
        );
        assert_eq!(store.counters(), (1, 1, 0, 0), "one hit, one miss");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_job_cancelled_in_the_queue_is_not_served_from_the_store() {
        let (store, dir) = temp_store("cancel-hit");
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(1)
                .with_store(Arc::clone(&store)),
        );
        assert!(!pool.submit(creep_job()).unwrap().wait().metrics.cached);
        // Occupy the only worker, so the next submission stays queued.
        let blocker = pool
            .submit(Job::Creep {
                delta: cqfd_rainworm::families::forever_worm(),
                budget: JobBudget::default().with_steps(usize::MAX),
            })
            .unwrap();
        let queued = pool.submit(creep_job()).unwrap();
        queued.cancel();
        blocker.cancel();
        let r = queued.wait();
        assert_eq!(
            r.outcome,
            JobOutcome::BudgetExceeded {
                detail: "cancelled".into()
            }
        );
        assert!(!r.metrics.cached);
        assert_eq!(blocker.wait().outcome.verdict(), "budget-exceeded");
        pool.shutdown();
        assert_eq!(store.counters().0, 0, "the stored key was never served");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The short halting worm under a step budget of `steps` (≥ 20 halts):
    /// one distinct store key per budget.
    fn creep_steps(steps: usize) -> Job {
        Job::Creep {
            delta: halting_worm_short(),
            budget: JobBudget::default().with_steps(steps),
        }
    }

    /// `handle.wait()`, failing the test instead of hanging past 60 s.
    fn wait_bounded(handle: JobHandle) -> JobResult {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Some(r) = handle.try_wait() {
                return r;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job {} hung",
                handle.id
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn a_miss_is_answered_before_its_entry_is_written() {
        let (store, dir) = temp_store("answer-first");
        let path = store.entry_path(&crate::exec::job_key(&creep_job()).unwrap().hash);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let in_hook = Arc::clone(&seen);
        let hook_path = path.clone();
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(1)
                .with_store(Arc::clone(&store))
                .with_completion_hook(Arc::new(move || {
                    in_hook.lock().unwrap().push(hook_path.exists());
                })),
        );
        assert!(!pool.submit(creep_job()).unwrap().wait().metrics.cached);
        assert!(pool.submit(creep_job()).unwrap().wait().metrics.cached);
        pool.shutdown();
        assert_eq!(
            *seen.lock().unwrap(),
            [false, true],
            "the miss's hook fires before the insert; the hit's after it"
        );
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn an_answered_miss_is_a_hit_for_the_next_identical_job() {
        let (store, dir) = temp_store("read-your-writes");
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(2)
                .with_store(Arc::clone(&store)),
        );
        // With two workers the resubmission usually lands on the idle
        // one while the other is still writing the entry.
        for steps in 100..300 {
            let cold = wait_bounded(pool.submit(creep_steps(steps)).unwrap());
            assert!(!cold.metrics.cached, "steps={steps}: first run computes");
            let warm = wait_bounded(pool.submit(creep_steps(steps)).unwrap());
            assert!(warm.metrics.cached, "steps={steps}: resubmission is a hit");
            assert_eq!(warm.outcome, cold.outcome);
        }
        pool.shutdown();
        assert_eq!(store.counters(), (200, 200, 0, 0));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn every_answered_miss_is_on_disk_once_the_pool_drops() {
        let (store, dir) = temp_store("drain-on-drop");
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(2)
                .with_store(Arc::clone(&store)),
        );
        let results = pool.run_batch((100..124).map(creep_steps).collect());
        drop(pool);
        assert!(results.iter().all(|r| !r.metrics.cached));
        let misses = store.counters().1;
        assert_eq!(misses, 24);
        assert_eq!(store.stat().unwrap().entries as u64, misses);
        assert!(store.verify().unwrap().is_empty());
        assert_eq!(store.insert_failures(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Makes the shard directory of `job`'s entry a regular file, so the
    /// entry write fails at `create_dir_all`; returns the shard path.
    fn block_shard(store: &Store, job: &Job) -> std::path::PathBuf {
        let key = crate::exec::job_key(job).unwrap();
        let shard = store.entry_path(&key.hash).parent().unwrap().to_path_buf();
        std::fs::write(&shard, b"not a directory").unwrap();
        shard
    }

    #[test]
    fn a_failed_entry_write_is_counted_and_the_job_still_answered() {
        let (store, dir) = temp_store("blocked-shard");
        block_shard(&store, &creep_job());
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(2)
                .with_store(Arc::clone(&store)),
        );
        let first = wait_bounded(pool.submit(creep_job()).unwrap());
        assert_eq!(first.outcome.verdict(), "halted");
        assert!(!first.metrics.cached);
        pool.shutdown();
        assert_eq!(store.insert_failures(), 1);
        assert_eq!(store.stat().unwrap().entries, 0);
        // The failed write released its mark: an identical job looks the
        // key up without waiting, and recomputes.
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(2)
                .with_store(Arc::clone(&store)),
        );
        let again = wait_bounded(pool.submit(creep_job()).unwrap());
        assert_eq!(again.outcome, first.outcome);
        assert!(!again.metrics.cached);
        pool.shutdown();
        assert_eq!(store.insert_failures(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_write_lost_after_its_reply_is_recomputed_and_stored() {
        let (store, dir) = temp_store("lost-write");
        let shard = block_shard(&store, &creep_job());
        let pool = Pool::new(
            PoolConfig::default()
                .with_workers(2)
                .with_store(Arc::clone(&store)),
        );
        let first = wait_bounded(pool.submit(creep_job()).unwrap());
        assert!(!first.metrics.cached);
        // Wait for the worker to give up on the write, then unblock.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while store.insert_failures() == 0 {
            assert!(std::time::Instant::now() < deadline, "write never failed");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::fs::remove_file(&shard).unwrap();
        let second = wait_bounded(pool.submit(creep_job()).unwrap());
        assert!(!second.metrics.cached, "the lost entry is recomputed");
        assert_eq!(second.outcome, first.outcome);
        let third = wait_bounded(pool.submit(creep_job()).unwrap());
        assert!(third.metrics.cached, "…and stored this time");
        pool.shutdown();
        assert_eq!(store.insert_failures(), 1);
        assert_eq!(store.stat().unwrap().entries, 1);
        assert!(store.verify().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let pool = Pool::new(PoolConfig::default().with_workers(3));
        let h = pool.submit_blocking(creep_job());
        drop(pool); // must not hang, must let the queued job finish
        assert_eq!(h.wait().outcome.verdict(), "halted");
    }
}
