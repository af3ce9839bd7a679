//! Process-wide worker pool for SM-simulation tasks.
//!
//! `launch` used to spawn `num_sms` fresh OS threads per call via
//! `std::thread::scope`. A single launch hides that cost behind real
//! simulation work, but the paper's experiments are *fleets* of launches —
//! the Figure 4 tile/unroll sweep, the register-cap and architecture
//! studies, the 13-app suite, and the auto-tuner — where per-launch spawn
//! bursts dominate: on one host core a 2-block launch spent ~480 µs
//! spawning and joining 16 threads around ~7 µs of simulation.
//!
//! This module replaces the per-launch burst with one lazily-initialized,
//! process-wide pool:
//!
//! * **Sizing** — `G80_SIM_THREADS` if set (clamped to ≥ 1), otherwise
//!   [`std::thread::available_parallelism`]. Workers are detached and park
//!   on a condvar when idle; they cost nothing between launches. Starting
//!   the pool also fixes glibc's malloc thresholds, so that a buffer freed on
//!   one worker does not leave the process's peak RSS to scheduling.
//! * **Work stealing across launches** — every in-flight [`scope`] (one per
//!   launch or batch) owns a queue of tasks. The submitting thread drains
//!   its own queue; idle pool workers steal tasks from *any* active scope's
//!   queue. Concurrent launches from many host threads therefore share one
//!   set of workers instead of stacking `N × num_sms` spawned threads.
//! * **Caller participation** — the scope owner executes tasks itself while
//!   it waits, so a nested scope (an SM task that itself launches, or a
//!   suite task that runs an app) can always make progress: no task ever
//!   blocks a worker, and the pool cannot deadlock on nesting.
//! * **Scopes that grow** — a running task may [`Scope::spawn`] more tasks
//!   into its own scope (a launch's donor SM queues its followers the moment
//!   its representative freezes). The owner keeps draining the scope and
//!   waits only while nothing is queued; a spawned task never waits on the
//!   task that spawned it. `scope_on_caller` is the same scope with the
//!   pool left out: the owner runs every task, spawned ones included, in
//!   queue order.
//!
//! Determinism: the pool moves *where* a task runs, never *what* it
//! computes. Each task is a pure function of its captured inputs (plus
//! CUDA-consistency-racing device memory, exactly as concurrent SMs already
//! race on hardware), and [`run_tasks`] returns results in submission
//! order, so simulated statistics are bit-identical for any worker count —
//! enforced by `tests/golden_stats.rs`, `tests/pool_single_worker.rs` and
//! CI's environment leg (the whole suite under `G80_SIM_THREADS=1`).

use crate::context::{self, SimContext};
use crate::fault::{self, lock_recover, wait_recover};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A lifetime-erased unit of work. Safety: a `Task` may borrow from the
/// stack frame that opened its scope; [`scope_run`] guarantees every task,
/// spawned ones included, has finished executing before it returns, so the
/// borrow never outlives its referent (the same contract
/// `std::thread::scope` enforces).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One in-flight `scope`: a queue of tasks plus completion tracking.
struct Group {
    /// The submitter's entered context (`None`: the global one): every task
    /// runs in it.
    ctx: Option<Arc<SimContext>>,
    /// Pool workers may take this group's tasks; otherwise the owner runs
    /// them all ([`scope_on_caller`]).
    shared: bool,
    /// The owner has run the closure that opened the scope: a spawn from
    /// then on comes from a running task, and offers the group to the
    /// workers itself. The opening closure's spawns are offered at once.
    /// Stored `Release` before that offer and loaded `Acquire` by `push`;
    /// no task runs before the offer or the owner's drain, so every spawn
    /// from a task reads it set.
    open: AtomicBool,
    queue: Mutex<Queue>,
    /// Tasks submitted but not yet finished (queued + running).
    pending: AtomicUsize,
    /// What the owner waits on while nothing is queued.
    wake: Condvar,
    /// First panic payload raised by a task, re-raised by the owner.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    /// The owner is waiting on `wake`: a push or the last finish signals.
    owner_waits: bool,
}

impl Group {
    fn pop(&self) -> Option<Task> {
        lock_recover(&self.queue).tasks.pop_front()
    }

    /// Queues `task`, waking the owner if it waits, and offers the group to
    /// the workers once it is open.
    fn push(self: &Arc<Self>, task: Task) {
        let owner_waits = {
            let mut queue = lock_recover(&self.queue);
            self.pending.fetch_add(1, Ordering::AcqRel);
            queue.tasks.push_back(task);
            queue.owner_waits
        };
        if owner_waits {
            self.wake.notify_one();
        }
        if self.shared && self.open.load(Ordering::Acquire) {
            pool().shared.offer(self, false);
        }
    }

    /// Runs one task, recording a panic instead of unwinding into the
    /// scheduler, and signals a waiting owner when the last task finishes.
    fn run(&self, task: Task) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            lock_recover(&self.panic).get_or_insert(payload);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 && lock_recover(&self.queue).owner_waits
        {
            self.wake.notify_all();
        }
    }

    /// The owner's loop: runs queued tasks, waits while none is queued and
    /// some still run elsewhere, and returns when every task has finished.
    fn drain(&self) {
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                drop(queue);
                self.run(task);
                queue = lock_recover(&self.queue);
            } else if self.pending.load(Ordering::Acquire) == 0 {
                return;
            } else {
                queue.owner_waits = true;
                queue = wait_recover(&self.wake, queue);
                queue.owner_waits = false;
            }
        }
    }
}

/// An open task scope ([`scope`], or the caller-only one the launch path
/// opens for small launches). Tasks borrow for `'scope`, which outlives
/// every task; a running task may spawn more into the scope through the
/// same handle.
pub struct Scope<'scope, 'env: 'scope> {
    group: Arc<Group>,
    /// Invariant in both lifetimes, as `std::thread::Scope` is: a
    /// covariant scope could be shortened to admit a borrow that dies
    /// before the scope ends.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Queues `f` in this scope. The scope does not return before it has
    /// run; its panic, if any, is re-raised by the scope's owner like any
    /// other task's.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: `scope_run` does not return until every task of the scope
        // has run to completion, so whatever `f` borrows for `'scope` is
        // live for as long as the task can execute. Erasing the lifetime is
        // exactly the trick `std::thread::scope` performs internally.
        let task = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.group.push(task);
    }
}

struct Shared {
    offers: Mutex<Offers>,
    work_cv: Condvar,
}

#[derive(Default)]
struct Offers {
    /// Scopes that may still have queued tasks; workers steal from these.
    groups: Vec<Arc<Group>>,
    /// Workers waiting on `work_cv`.
    idle: usize,
}

impl Shared {
    /// Lists `group` for the workers unless it is listed, and wakes one
    /// idle worker, or every idle worker for a scope just opened.
    fn offer(&self, group: &Arc<Group>, opening: bool) {
        let mut offers = lock_recover(&self.offers);
        if !offers.groups.iter().any(|g| Arc::ptr_eq(g, group)) {
            offers.groups.push(Arc::clone(group));
        }
        match (offers.idle, opening) {
            (0, _) => {}
            (_, true) => self.work_cv.notify_all(),
            (_, false) => self.work_cv.notify_one(),
        }
    }
}

struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

/// Worker count: `G80_SIM_THREADS` clamped to ≥ 1, else the host's
/// available parallelism.
fn configured_workers() -> usize {
    let var = std::env::var("G80_SIM_THREADS").ok();
    let host = std::thread::available_parallelism().ok().map(|n| n.get());
    workers_from(var.as_deref(), host)
}

/// [`configured_workers`] from the variable's value and the host's
/// parallelism: a number is clamped to ≥ 1; anything else falls back to
/// the host (4 when unknown).
fn workers_from(var: Option<&str>, host: Option<usize>) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) => n.max(1),
        None => host.unwrap_or(4),
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        pin_malloc_thresholds();
        let shared = Arc::new(Shared {
            offers: Mutex::new(Offers::default()),
            work_cv: Condvar::new(),
        });
        let workers = configured_workers();
        for i in 0..workers {
            spawn_worker(Arc::clone(&shared), i);
        }
        Pool { shared, workers }
    })
}

/// Fixes glibc malloc's mmap threshold at 256 KiB and its trim threshold
/// at 1 MiB for the process. Left dynamic, glibc raises the mmap threshold
/// to the size of each large block freed (up to 32 MiB), after which blocks
/// that size come from the allocating thread's arena and stay there once
/// freed. Pool tasks allocate and free multi-megabyte buffers on whichever
/// thread runs them, so peak RSS then hinged on scheduling: the full Table
/// 3 suite peaked at ≈ 90 or ≈ 130 MB from one run to the next, and at
/// ≈ 67 MB every run with the thresholds fixed. A 1 MiB trim threshold
/// keeps a freed 128 KiB serve frame from returning the heap's top to the
/// OS on every request.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes two integers and only adjusts malloc's
        // parameters under its own lock; both values are in range.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 256 << 10);
            mallopt(M_TRIM_THRESHOLD, 1 << 20);
        }
    }
}

/// Spawns one pool worker. Task panics are caught inside [`Group::run`],
/// so nothing unwinds a worker out of its loop.
fn spawn_worker(shared: Arc<Shared>, i: usize) {
    std::thread::Builder::new()
        .name(format!("g80-sim-{i}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawn simulation worker");
}

/// Number of pool worker threads (excluding scope owners, which also
/// execute tasks).
pub fn worker_count() -> usize {
    pool().workers
}

fn worker_loop(shared: &Shared) {
    loop {
        let group = {
            let mut offers = lock_recover(&shared.offers);
            loop {
                if let Some(g) = offers.groups.first() {
                    break Arc::clone(g);
                }
                offers.idle += 1;
                offers = wait_recover(&shared.work_cv, offers);
                offers.idle -= 1;
            }
        };
        match group.pop() {
            Some(task) => {
                let _restore = context::scope(group.ctx.clone());
                group.run(task);
            }
            // Drained: stop offering it, unless a spawn refilled it since.
            None => {
                let mut offers = lock_recover(&shared.offers);
                if lock_recover(&group.queue).tasks.is_empty() {
                    offers.groups.retain(|g| !Arc::ptr_eq(g, &group));
                }
            }
        }
    }
}

/// Opens a scope in the caller's context, lets `f` spawn into it, drains
/// it from the owning thread (with the pool's workers when `shared`), then
/// re-raises the first panic of `f` or of a task.
fn scope_run<'env, F, R>(shared: bool, f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    let scope = Scope {
        group: Arc::new(Group {
            ctx: context::scoped(),
            shared,
            open: AtomicBool::new(false),
            queue: Mutex::new(Queue::default()),
            pending: AtomicUsize::new(0),
            wake: Condvar::new(),
            panic: Mutex::new(None),
        }),
        scope: PhantomData,
        env: PhantomData,
    };
    // The tasks `f` spawned borrow what it may unwind past: drain first.
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    let group = &scope.group;
    group.open.store(true, Ordering::Release);
    if shared && group.pending.load(Ordering::Acquire) > 0 {
        pool().shared.offer(group, true);
    }
    group.drain();
    let panic = lock_recover(&group.panic).take();
    match (result, panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(r), None) => r,
    }
}

/// Calls `f` with a scope whose tasks run on the pool, the calling thread
/// participating, and returns once every task spawned into it — by `f` or
/// by a task — has finished. Every task runs inside the
/// [`crate::SimContext`] the caller had entered (none = the global one), on
/// whichever thread executes it. A task's panic is re-raised here after the
/// scope drains; a caller that needs per-task isolation catches inside its
/// tasks, as [`try_run_tasks`] does.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    scope_run(true, f)
}

/// [`scope`] without the pool: the calling thread runs every task, spawned
/// ones included, in queue order. For work too small to pay for the pool's
/// wakeups.
pub(crate) fn scope_on_caller<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    scope_run(false, f)
}

/// The captured unwind payload of a single pool task.
pub struct TaskPanic(pub Box<dyn std::any::Any + Send>);

impl TaskPanic {
    /// The panic message, when the payload carries one.
    pub fn message(&self) -> &str {
        fault::payload_str(self.0.as_ref()).unwrap_or("non-string panic payload")
    }

    /// Re-raises the captured panic.
    pub fn resume(self) -> ! {
        resume_unwind(self.0)
    }
}

impl std::fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskPanic({:?})", self.message())
    }
}

/// Runs every closure on the pool (the calling thread participates) and
/// returns their results **in input order**, with each task's panic — if
/// any — captured per slot instead of unwinding. One failing task cannot
/// disturb its siblings: every other task still runs to completion and
/// keeps its own result. Every task runs inside the [`crate::SimContext`]
/// the caller had entered (none = the global one), on whichever thread
/// executes it, so nested work stays in the context of the call that caused
/// it.
pub fn try_run_tasks<T, F>(fns: Vec<F>) -> Vec<Result<T, TaskPanic>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    match fns.len() {
        0 => return Vec::new(),
        1 => {
            let f = fns.into_iter().next().unwrap();
            return vec![catch_unwind(AssertUnwindSafe(f)).map_err(TaskPanic)];
        }
        _ => {}
    }
    let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
        fns.iter().map(|_| Mutex::new(None)).collect();
    scope(|s| {
        for (f, slot) in fns.into_iter().zip(&slots) {
            s.spawn(move || {
                // The task catches its own panic so the slot always ends up
                // filled; `Group::run`'s catch is only a backstop.
                let r = catch_unwind(AssertUnwindSafe(f)).map_err(TaskPanic);
                *lock_recover(slot) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("pool task finished without storing a result")
        })
        .collect()
}

/// Runs every closure on the pool (the calling thread participates) and
/// returns their results **in input order**. Closures may borrow from the
/// caller's stack, exactly like `std::thread::scope` spawns; a single-task
/// input runs inline with no queue round-trip.
///
/// If a task panics, the panic is re-raised here after all remaining tasks
/// have completed (the borrows a task holds must outlive its execution).
/// Callers that need per-task isolation use [`try_run_tasks`] instead.
pub fn run_tasks<T, F>(fns: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let mut out = Vec::with_capacity(fns.len());
    let mut first_panic: Option<TaskPanic> = None;
    for r in try_run_tasks(fns) {
        match r {
            Ok(v) => out.push(v),
            Err(p) => {
                first_panic.get_or_insert(p);
            }
        }
    }
    if let Some(p) = first_panic {
        p.resume();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_variable_is_clamped_to_one_worker() {
        assert_eq!(workers_from(Some("0"), Some(8)), 1);
        assert_eq!(workers_from(Some("3"), Some(8)), 3);
        assert_eq!(workers_from(Some(" 2 "), Some(8)), 2);
        assert_eq!(workers_from(Some("x"), Some(8)), 8);
        assert_eq!(workers_from(None, Some(8)), 8);
        assert_eq!(workers_from(None, None), 4);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<i32> = run_tasks(Vec::<fn() -> i32>::new());
        assert!(none.is_empty());
        assert_eq!(run_tasks(vec![|| 7]), vec![7]);
    }

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..64).collect();
        let tasks: Vec<_> = inputs.iter().map(|&i| move || i * i).collect();
        let out = run_tasks(tasks);
        assert_eq!(out, inputs.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let data: Vec<u32> = (0..100).collect();
        let chunks: Vec<&[u32]> = data.chunks(7).collect();
        let sums = run_tasks(
            chunks
                .iter()
                .map(|c| move || c.iter().sum::<u32>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u32>(), data.iter().sum::<u32>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let totals = run_tasks(
            (0..4u64)
                .map(|i| {
                    move || {
                        run_tasks((0..8u64).map(|j| move || i * 8 + j).collect::<Vec<_>>())
                            .iter()
                            .sum::<u64>()
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(totals.iter().sum::<u64>(), (0..32).sum());
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    s.spawn(move || {
                        let out =
                            run_tasks((0..16).map(|i| move || t * 100 + i).collect::<Vec<_>>());
                        assert_eq!(out, (0..16).map(|i| t * 100 + i).collect::<Vec<i32>>());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn try_run_tasks_isolates_panics_per_slot() {
        let out = try_run_tasks(
            (0..8usize)
                .map(|i| {
                    move || {
                        if i % 3 == 0 {
                            panic!("boom {i}");
                        }
                        i * 2
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => {
                    assert_ne!(i % 3, 0);
                    assert_eq!(*v, i * 2);
                }
                Err(p) => {
                    assert_eq!(i % 3, 0);
                    assert!(p.message().contains("boom"), "{p:?}");
                }
            }
        }
    }

    #[test]
    fn try_run_tasks_single_task_catches_inline() {
        let out = try_run_tasks(vec![|| -> u32 { panic!("solo") }]);
        assert_eq!(out.len(), 1);
        assert!(out[0].as_ref().unwrap_err().message().contains("solo"));
    }

    /// Without the pool, the caller runs every task, spawned ones after
    /// those queued before them, in order.
    #[test]
    fn scope_on_caller_runs_spawned_tasks_in_queue_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let log = |task: &str| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(task.to_string());
        };
        scope_on_caller(|s| {
            s.spawn(|| {
                log("donor");
                s.spawn(|| log("follower 1"));
                s.spawn(|| log("follower 2"));
            });
            s.spawn(|| log("second donor"));
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order, ["donor", "second donor", "follower 1", "follower 2"]);
    }

    #[test]
    fn task_panic_propagates_after_the_scope_drains() {
        let hits = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(
                (0..8)
                    .map(|i| {
                        let hits = &hits;
                        move || {
                            if i == 3 {
                                panic!("boom {i}");
                            }
                            hits.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(result.is_err(), "panic must propagate to the scope owner");
        // Every non-panicking task still ran (the scope drains fully).
        assert_eq!(hits.load(Ordering::SeqCst), 7);
    }
}
