//! Work-stealing thread-pool executor for the batch-GCD phases.
//!
//! The product/remainder trees produce pathologically uneven task sizes: the
//! top levels multiply a handful of enormous integers while the leaf levels
//! process thousands of small ones. The old `parallel_map` helper split each
//! call into static per-thread chunks, so one unlucky chunk of big nodes
//! serialized the whole level, and every call re-spawned OS threads. This
//! module replaces it with one long-lived pool per batch-GCD run:
//!
//! * each execution slot (spawned workers plus the submitting caller) owns a
//!   deque; submitted batches are dealt round-robin across all deques;
//! * a slot pops its own deque LIFO and steals FIFO from the others, so
//!   skewed task sizes rebalance instead of serializing;
//! * a thread waiting on a batch *helps* — it keeps executing queued tasks,
//!   which makes nested submissions (a distributed node task building its
//!   product tree on the same pool) deadlock-free;
//! * executed tasks, steals, and per-slot busy time are counted globally and
//!   per [`ExecDomain`], so each algorithm phase can report executor
//!   metrics (see `BatchStats` and `ClusterReport`). A task's busy time is
//!   its *self* time: the metered tasks it runs inline or helps with while
//!   it waits are counted in their own domains, not again in its.
//!
//! Results always come back in submission order, and execution order never
//! affects values, so pooled runs are bit-identical to sequential ones.
//!
//! # Examples
//!
//! ```
//! use wk_batchgcd::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! // Results come back in submission order regardless of which worker
//! // ran each task.
//! let squares = pool.exec().map((0u64..8).collect(), |n| n * n);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(pool.total_tasks(), 8);
//! ```
//!
//! Per-phase accounting via domains:
//!
//! ```
//! use wk_batchgcd::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! let phase_a = pool.domain();
//! let phase_b = pool.domain();
//! pool.exec_in(&phase_a).map(vec![1u32, 2, 3], |n| n + 1);
//! pool.exec_in(&phase_b).map(vec![4u32], |n| n + 1);
//! assert_eq!(phase_a.phase().tasks(), 3);
//! assert_eq!(phase_b.phase().tasks(), 1);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle thread sleeps between deque re-scans. Wake-ups are
/// notified eagerly; the timeout only bounds the cost of a lost race.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// Lock `m`, recovering the guard from a poisoned mutex instead of
/// panicking. Task panics are already contained by `catch_unwind` in
/// [`Shared::execute`] and re-raised on the submitting thread; a poisoned
/// pool-internal lock must not take down unrelated worker threads, and
/// every value guarded here (deques, the idle token, the panic slot) stays
/// consistent across an unwind.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison recovery as [`locked`].
fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

type Job = Box<dyn FnOnce() + Send>;

/// Completion state shared by every task of one `map` call.
struct Batch {
    remaining: AtomicU64,
    lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(tasks: u64) -> Batch {
        Batch {
            remaining: AtomicU64::new(tasks),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

struct Task {
    job: Job,
    /// Slot whose deque the task was dealt to; executing elsewhere is a steal.
    home: usize,
    batch: Arc<Batch>,
    domain: Option<Arc<DomainCounters>>,
}

struct DomainCounters {
    worker_tasks: Vec<AtomicU64>,
    worker_busy_ns: Vec<AtomicU64>,
    steals: AtomicU64,
}

impl DomainCounters {
    fn new(slots: usize) -> DomainCounters {
        DomainCounters {
            worker_tasks: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ns: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            steals: AtomicU64::new(0),
        }
    }

    fn record(&self, slot: usize, busy: Duration, stolen: bool) {
        // Reporting counters only: published to readers by the AcqRel
        // batch-completion decrement in `Shared::execute`, never read to
        // make scheduling decisions.
        self.worker_tasks[slot].fetch_add(1, Ordering::Relaxed); // lint:atomics(metrics) per-slot task tally, reporting only
        self.worker_busy_ns[slot].fetch_add(busy.as_nanos() as u64, Ordering::Relaxed); // lint:atomics(metrics) busy-time tally, reporting only
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed); // lint:atomics(metrics) steal tally, reporting only
        }
    }
}

/// A labeled metrics scope: submit work under a domain (via
/// [`WorkerPool::exec_in`]) and read the accumulated counters back as a
/// [`PhaseExec`]. One domain per algorithm phase gives per-phase accounting
/// even when phases of different nodes overlap on the same pool.
pub struct ExecDomain {
    inner: Arc<DomainCounters>,
}

impl ExecDomain {
    /// Snapshot the counters accumulated so far.
    pub fn phase(&self) -> PhaseExec {
        PhaseExec {
            worker_tasks: self
                .inner
                .worker_tasks
                .iter()
                .map(|t| t.load(Ordering::Relaxed)) // lint:atomics(metrics) snapshot read; exact after map() returns (AcqRel handoff)
                .collect(),
            worker_busy: self
                .inner
                .worker_busy_ns
                .iter()
                .map(|b| Duration::from_nanos(b.load(Ordering::Relaxed))) // lint:atomics(metrics) snapshot read for reporting
                .collect(),
            steals: self.inner.steals.load(Ordering::Relaxed), // lint:atomics(metrics) snapshot read for reporting
        }
    }
}

/// Executor metrics for one phase: tasks executed and busy time per slot,
/// plus how many of those executions were steals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseExec {
    /// Tasks executed by each slot (slot 0 is the submitting caller).
    pub worker_tasks: Vec<u64>,
    /// Busy (task-execution) time per slot.
    pub worker_busy: Vec<Duration>,
    /// Tasks executed by a slot other than the one they were dealt to.
    pub steals: u64,
}

impl PhaseExec {
    /// Total tasks executed in this phase.
    pub fn tasks(&self) -> u64 {
        self.worker_tasks.iter().sum()
    }

    /// Summed busy time across slots (CPU time, not wall time).
    pub fn busy_total(&self) -> Duration {
        self.worker_busy.iter().sum()
    }

    /// Number of execution slots (workers + caller).
    pub fn workers(&self) -> usize {
        self.worker_tasks.len()
    }

    /// Slots that executed at least one task.
    pub fn active_workers(&self) -> usize {
        self.worker_tasks.iter().filter(|&&t| t > 0).count()
    }

    /// Accumulate another phase's counters into this one (slot-wise).
    pub fn merge(&mut self, other: &PhaseExec) {
        if self.worker_tasks.len() < other.worker_tasks.len() {
            self.worker_tasks.resize(other.worker_tasks.len(), 0);
            self.worker_busy
                .resize(other.worker_busy.len(), Duration::ZERO);
        }
        for (a, b) in self.worker_tasks.iter_mut().zip(&other.worker_tasks) {
            *a += b;
        }
        for (a, b) in self.worker_busy.iter_mut().zip(&other.worker_busy) {
            *a += *b;
        }
        self.steals += other.steals;
    }
}

struct Shared {
    deques: Vec<Mutex<VecDeque<Task>>>,
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    tasks_total: AtomicU64,
    steals_total: AtomicU64,
}

impl Shared {
    fn find_task(&self, me: usize) -> Option<Task> {
        // Own deque newest-first: the freshest tasks are the ones whose
        // inputs are still cache-hot for this thread.
        if let Some(task) = locked(&self.deques[me]).pop_back() {
            return Some(task);
        }
        // Steal oldest-first from the others.
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(task) = locked(&self.deques[victim]).pop_front() {
                return Some(task);
            }
        }
        None
    }

    fn has_queued(&self) -> bool {
        self.deques.iter().any(|d| !locked(d).is_empty())
    }

    /// Run one task's `job` on slot `me` and count it, in `domain` with its
    /// self time: its wall time less the metered tasks it ran on this
    /// thread, which their own domains count (and which it hands up).
    fn run_counted<R>(
        &self,
        domain: Option<&DomainCounters>,
        me: usize,
        stolen: bool,
        job: impl FnOnce() -> R,
    ) -> R {
        let outer = NESTED_BUSY.replace(Duration::ZERO);
        let start = Instant::now();
        let out = job();
        let wall = start.elapsed();
        let nested = NESTED_BUSY.get();
        NESTED_BUSY.set(outer + if domain.is_some() { wall } else { nested });
        self.tasks_total.fetch_add(1, Ordering::Relaxed); // lint:atomics(metrics) lifetime task tally, reporting only
        if stolen {
            self.steals_total.fetch_add(1, Ordering::Relaxed); // lint:atomics(metrics) lifetime steal tally, reporting only
        }
        if let Some(domain) = domain {
            domain.record(me, wall.saturating_sub(nested), stolen);
        }
        out
    }

    fn execute(&self, task: Task, me: usize) {
        let outcome = self.run_counted(task.domain.as_deref(), me, task.home != me, || {
            catch_unwind(AssertUnwindSafe(task.job))
        });
        if let Err(payload) = outcome {
            *locked(&task.batch.panic) = Some(payload);
        }
        // Last task out wakes the submitter (notify under the lock so the
        // submitter's check-then-wait cannot miss it). The AcqRel decrement
        // is also what publishes this task's metrics counters and result
        // write to the submitter's Acquire load.
        if task.batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = locked(&task.batch.lock);
            task.batch.done.notify_all();
        }
    }
}

thread_local! {
    /// (pool identity, slot index) of the pool worker running this thread.
    static WORKER_SLOT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// Wall time of the metered tasks this thread has run so far inside the
    /// task it is running now, inline or while helping.
    static NESTED_BUSY: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

fn pool_id(shared: &Arc<Shared>) -> usize {
    Arc::as_ptr(shared) as usize
}

fn worker_main(shared: Arc<Shared>, me: usize) {
    WORKER_SLOT.with(|slot| slot.set(Some((pool_id(&shared), me))));
    loop {
        if let Some(task) = shared.find_task(me) {
            shared.execute(task, me);
            continue;
        }
        let guard = locked(&shared.idle);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if !shared.has_queued() {
            drop(wait_on(&shared.wake, guard, IDLE_WAIT));
        }
    }
}

/// A work-stealing executor shared by all phases of one batch-GCD run.
///
/// `WorkerPool::new(t)` provides `t` execution slots: `t - 1` spawned worker
/// threads plus the thread that submits work (it participates while waiting,
/// so a pool of 1 degrades to metered sequential execution with no spawned
/// threads). Submissions are allowed from inside pool tasks — the waiting
/// task helps drain the queues, so nested fan-out cannot deadlock.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Build a pool with `threads` execution slots (minimum 1).
    pub fn new(threads: usize) -> WorkerPool {
        let slots = threads.max(1);
        let shared = Arc::new(Shared {
            deques: (0..slots).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks_total: AtomicU64::new(0),
            steals_total: AtomicU64::new(0),
        });
        let handles = (1..slots)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_main(shared, me))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of execution slots (spawned workers + submitting caller).
    pub fn threads(&self) -> usize {
        self.shared.deques.len()
    }

    /// Tasks executed over the pool's lifetime.
    pub fn total_tasks(&self) -> u64 {
        self.shared.tasks_total.load(Ordering::Relaxed) // lint:atomics(metrics) reporting read, no decision made on it
    }

    /// Steals over the pool's lifetime.
    pub fn total_steals(&self) -> u64 {
        self.shared.steals_total.load(Ordering::Relaxed) // lint:atomics(metrics) reporting read, no decision made on it
    }

    /// Create a metrics domain sized for this pool.
    pub fn domain(&self) -> ExecDomain {
        ExecDomain {
            inner: Arc::new(DomainCounters::new(self.threads())),
        }
    }

    /// Submission handle with no metrics domain.
    pub fn exec(&self) -> Exec<'_> {
        Exec {
            pool: self,
            domain: None,
        }
    }

    /// Submission handle whose tasks are counted into `domain`.
    pub fn exec_in<'a>(&'a self, domain: &'a ExecDomain) -> Exec<'a> {
        Exec {
            pool: self,
            domain: Some(domain),
        }
    }

    /// The slot index the current thread submits from and executes on: its
    /// own slot for pool workers, slot 0 for external threads.
    fn current_slot(&self) -> usize {
        WORKER_SLOT.with(|slot| match slot.get() {
            Some((id, me)) if id == pool_id(&self.shared) => me,
            _ => 0,
        })
    }

    fn map_impl<T, U, F>(&self, domain: Option<&ExecDomain>, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let me = self.current_slot();
        if self.threads() == 1 || n == 1 {
            // Sequential fast path, still metered so phase accounting holds.
            let domain = domain.map(|d| &*d.inner);
            return items
                .into_iter()
                .map(|item| self.shared.run_counted(domain, me, false, || f(item)))
                .collect();
        }

        let slots = self.threads();
        let mut results: Vec<Option<U>> = (0..n).map(|_| None).collect();
        let batch = Arc::new(Batch::new(n as u64));
        let base = SendPtr(results.as_mut_ptr());
        for (i, item) in items.into_iter().enumerate() {
            let f = &f;
            let slot_ptr = SendPtr(unsafe { base.0.add(i) });
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // Bind the wrapper itself so the closure captures `SendPtr`
                // (which is Send), not the bare field (2021 disjoint capture).
                let slot_ptr = slot_ptr;
                let out = f(item);
                // In-bounds one-shot write; the submitter reads it only
                // after the batch count reaches zero.
                unsafe { slot_ptr.0.write(Some(out)) };
            });
            // SAFETY: the job borrows `f` and `results`, which outlive every
            // task — map_impl does not return (or unwind) until `remaining`
            // hits zero, and panicking tasks still decrement it.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            let home = (me + i) % slots;
            locked(&self.shared.deques[home]).push_back(Task {
                job,
                home,
                batch: Arc::clone(&batch),
                domain: domain.map(|d| Arc::clone(&d.inner)),
            });
        }
        {
            let _guard = locked(&self.shared.idle);
            self.shared.wake.notify_all();
        }

        // Help until the batch completes.
        while batch.remaining.load(Ordering::Acquire) > 0 {
            if let Some(task) = self.shared.find_task(me) {
                self.shared.execute(task, me);
            } else {
                let guard = locked(&batch.lock);
                if batch.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                drop(wait_on(&batch.done, guard, IDLE_WAIT));
            }
        }

        if let Some(payload) = locked(&batch.panic).take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            // lint:allow(no-panic-in-lib) invariant: remaining hit zero, so every task wrote its slot exactly once
            .map(|slot| slot.expect("completed batch left an empty slot"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = locked(&self.shared.idle);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A borrowed submission handle: a pool plus an optional metrics domain.
/// `Copy`, so it threads cheaply through the tree-building call graph.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    pool: &'a WorkerPool,
    domain: Option<&'a ExecDomain>,
}

impl<'a> Exec<'a> {
    /// The underlying pool.
    pub fn pool(&self) -> &'a WorkerPool {
        self.pool
    }

    /// Map `f` over `items` on the pool, preserving input order.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        self.pool.map_impl(self.domain, items, f)
    }

    /// Map `f` over `items` in contiguous chunks, amortizing per-task
    /// dispatch overhead when items are small and plentiful. Results are in
    /// input order and identical to [`Exec::map`]; only the scheduling
    /// granularity differs (at most ~4 in-flight tasks per worker). Small
    /// inputs fall through to per-item `map`, so metered task counts match
    /// `map` exactly below the chunking threshold.
    pub fn map_chunked<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        let target = 4 * self.pool.threads();
        if n <= 16 || n <= target {
            return self.map(items, f);
        }
        let chunk = n.div_ceil(target);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(target);
        let mut it = items.into_iter();
        loop {
            let run: Vec<T> = it.by_ref().take(chunk).collect();
            if run.is_empty() {
                break;
            }
            chunks.push(run);
        }
        self.map(chunks, |run| run.into_iter().map(&f).collect::<Vec<U>>())
            .into_iter()
            .flatten()
            .collect()
    }

    /// Run independent closures on the pool, results in task order.
    ///
    /// This is how [`sharded_batch_gcd`](crate::corpus::sharded_batch_gcd)
    /// dispatches shard claims: one closure per shard, dealt across the
    /// worker deques, so a free worker always steals the next unprocessed
    /// shard.
    ///
    /// # Examples
    ///
    /// ```
    /// use wk_batchgcd::WorkerPool;
    ///
    /// let pool = WorkerPool::new(2);
    /// let tasks: Vec<_> = (0u64..4).map(|n| move || n * 10).collect();
    /// assert_eq!(pool.exec().run_tasks(tasks), vec![0, 10, 20, 30]);
    /// ```
    pub fn run_tasks<U, F>(&self, tasks: Vec<F>) -> Vec<U>
    where
        U: Send,
        F: FnOnce() -> U + Send,
    {
        self.pool.map_impl(self.domain, tasks, |task| task())
    }
}

/// Raw pointer wrapper that may cross threads; every use writes a distinct
/// index of a buffer the submitting frame keeps alive.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.exec().map(items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_pool_matches_parallel() {
        let items: Vec<u64> = (0..57).collect();
        let seq = WorkerPool::new(1).exec().map(items.clone(), |x| x + 7);
        let par = WorkerPool::new(8).exec().map(items, |x| x + 7);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.exec().map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(pool.exec().map(vec![9u64], |x| x * x), vec![81]);
    }

    #[test]
    fn more_threads_than_items() {
        let pool = WorkerPool::new(16);
        let out = pool.exec().map(vec![1u64, 2, 3], |x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn tasks_run_in_order_of_results() {
        let pool = WorkerPool::new(3);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.exec().run_tasks(tasks);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_submissions_complete() {
        // A node-style task fans out on the same pool it runs on; helping
        // while waiting keeps this deadlock-free even with one worker
        // per outer task.
        let pool = WorkerPool::new(2);
        let tasks: Vec<_> = (0..8u64)
            .map(|i| {
                let pool = &pool;
                move || {
                    let inner: Vec<u64> = pool.exec().map((0..50).collect(), |x: u64| x + i);
                    inner.iter().sum::<u64>()
                }
            })
            .collect();
        let sums = pool.exec().run_tasks(tasks);
        let expect: Vec<u64> = (0..8u64).map(|i| (0..50).map(|x| x + i).sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn domain_counts_tasks_and_busy_time() {
        let pool = WorkerPool::new(4);
        let domain = pool.domain();
        let untracked = pool.domain();
        let _ = pool.exec_in(&domain).map((0..500u64).collect(), |x| {
            std::hint::black_box((0..200).fold(x, |a, b| a ^ (a << 1) ^ b))
        });
        let phase = domain.phase();
        assert_eq!(phase.tasks(), 500);
        assert_eq!(phase.workers(), 4);
        assert!(phase.busy_total() > Duration::ZERO);
        assert_eq!(untracked.phase().tasks(), 0);
        assert!(pool.total_tasks() >= 500);
    }

    #[test]
    fn nested_metered_tasks_count_once() {
        // An outer task runs two inner metered tasks, inline on one slot,
        // helping with them on two. The outer domain keeps only its own
        // time, so the two domains' busy time fits in the slots' wall time.
        for threads in [1u32, 2] {
            let pool = WorkerPool::new(threads as usize);
            let (outer, inner) = (pool.domain(), pool.domain());
            let nap = Duration::from_millis(10);
            let start = Instant::now();
            pool.exec_in(&outer).run_tasks(vec![|| {
                std::thread::sleep(nap);
                let naps = vec![|| std::thread::sleep(nap); 2];
                pool.exec_in(&inner).run_tasks(naps);
            }]);
            let wall = start.elapsed();
            let (outer, inner) = (outer.phase().busy_total(), inner.phase().busy_total());
            assert!(outer >= nap && inner >= 2 * nap, "{outer:?}, {inner:?}");
            assert!(
                outer + inner <= wall * threads,
                "threads={threads}: {outer:?} + {inner:?} > {wall:?} × {threads}"
            );
        }
    }

    #[test]
    fn skewed_tasks_reach_every_worker() {
        // Pathological skew: a few giant tasks among a flood of small ones.
        // Static chunking would strand the giants on whichever chunk got
        // them; stealing must spread execution across every slot. Tasks
        // block (sleep) rather than spin so the test holds even on a
        // single-CPU host, where a spinning submitter could drain the whole
        // batch before the OS ever schedules a worker.
        let slots = 4;
        let pool = WorkerPool::new(slots);
        let domain = pool.domain();
        let sizes: Vec<u64> = (0..64u64)
            .map(|i| if i % 16 == 0 { 5000 } else { 200 })
            .collect();
        let out = pool.exec_in(&domain).map(sizes.clone(), |micros| {
            std::thread::sleep(Duration::from_micros(micros));
            micros
        });
        assert_eq!(out, sizes);
        let phase = domain.phase();
        assert_eq!(phase.tasks(), 64);
        assert_eq!(
            phase.active_workers(),
            slots,
            "every slot must execute at least one task: {:?}",
            phase.worker_tasks
        );
        assert!(phase.steals > 0, "skewed batch must trigger steals");
    }

    #[test]
    fn merge_accumulates_slotwise() {
        let mut a = PhaseExec {
            worker_tasks: vec![1, 2],
            worker_busy: vec![Duration::from_nanos(5), Duration::from_nanos(6)],
            steals: 1,
        };
        let b = PhaseExec {
            worker_tasks: vec![10, 20, 30],
            worker_busy: vec![Duration::from_nanos(1); 3],
            steals: 2,
        };
        a.merge(&b);
        assert_eq!(a.worker_tasks, vec![11, 22, 30]);
        assert_eq!(a.tasks(), 63);
        assert_eq!(a.steals, 3);
        assert_eq!(a.busy_total(), Duration::from_nanos(14));
    }

    #[test]
    fn external_threads_share_slot_zero() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let out = pool.exec().map((0..100u64).collect(), |x| {
                        counter.fetch_add(1, Ordering::Relaxed); // lint:atomics(metrics) test tally
                        x
                    });
                    assert_eq!(out.len(), 100);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200); // lint:atomics(metrics) read after scope join
    }

    #[test]
    #[should_panic(expected = "boom at 17")]
    fn task_panics_propagate_to_submitter() {
        let pool = WorkerPool::new(4);
        let _ = pool.exec().map((0..100u64).collect(), |x| {
            if x == 17 {
                panic!("boom at {x}");
            }
            x
        });
    }
}
