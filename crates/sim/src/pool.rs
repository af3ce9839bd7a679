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
//!   on a condvar when idle; they cost nothing between launches.
//! * **Work stealing across launches** — every in-flight [`scope`] (one per
//!   launch or batch) owns a queue of tasks. The submitting thread drains
//!   its own queue; idle pool workers steal tasks from *any* active scope's
//!   queue. Concurrent launches from many host threads therefore share one
//!   set of workers instead of stacking `N × num_sms` spawned threads.
//! * **Caller participation** — the scope owner executes tasks itself while
//!   it waits, so a nested scope (an SM task that itself launches, or a
//!   suite task that runs an app) can always make progress: no task ever
//!   blocks a worker, and the pool cannot deadlock on nesting.
//!
//! Determinism: the pool moves *where* a task runs, never *what* it
//! computes. Each task is a pure function of its captured inputs (plus
//! CUDA-consistency-racing device memory, exactly as concurrent SMs already
//! race on hardware), and [`run_tasks`] returns results in submission
//! order, so simulated statistics are bit-identical for any worker count —
//! enforced by `tests/golden_stats.rs`, `tests/pool_single_worker.rs` and
//! CI's environment leg (the whole suite under `G80_SIM_THREADS=1`).

use crate::context::{self, SimContext};
use crate::fault::{self, lock_recover, wait_recover, Site};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A lifetime-erased unit of work. Safety: a `Task` may borrow from the
/// stack frame that created it; [`scope_run`] guarantees every task has
/// finished executing before it returns, so the borrow never outlives its
/// referent (the same contract `std::thread::scope` enforces).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One in-flight `scope`: a queue of tasks plus completion tracking.
struct Group {
    /// The submitter's entered context (`None`: the global one): every task
    /// runs in it, and a worker polls its `pool.worker` site before taking
    /// one.
    ctx: Option<Arc<SimContext>>,
    queue: Mutex<VecDeque<Task>>,
    /// Tasks submitted but not yet finished (queued + running).
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload raised by a task, re-raised by the owner.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Group {
    fn new(ctx: Option<Arc<SimContext>>, tasks: VecDeque<Task>) -> Self {
        Group {
            ctx,
            pending: AtomicUsize::new(tasks.len()),
            queue: Mutex::new(tasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn pop(&self) -> Option<Task> {
        lock_recover(&self.queue).pop_front()
    }

    fn context(&self) -> &SimContext {
        match &self.ctx {
            Some(ctx) => ctx,
            None => context::global(),
        }
    }

    /// Runs one task in the group's context, recording a panic instead of
    /// unwinding into the scheduler, and signals the owner when the last
    /// task finishes.
    fn run(&self, task: Task) {
        let _restore = context::scope(self.ctx.clone());
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            lock_recover(&self.panic).get_or_insert(payload);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock_recover(&self.done) = true;
            self.done_cv.notify_all();
        }
    }
}

struct Shared {
    /// Scopes that may still have queued tasks; workers steal from these.
    groups: Mutex<Vec<Arc<Group>>>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

/// Worker-count override: `G80_SIM_THREADS` (≥ 1), else the host's
/// available parallelism.
fn configured_workers() -> usize {
    std::env::var("G80_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(Shared {
            groups: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
        });
        let workers = configured_workers();
        for i in 0..workers {
            spawn_worker(Arc::clone(&shared), i);
        }
        Pool { shared, workers }
    })
}

/// Spawns one pool worker. If the worker dies to an injected fault (real
/// task panics are caught inside [`Group::run`] and can't unwind the
/// worker), a replacement is spawned so the pool keeps its configured
/// width; the death is the `pool.worker` fire the context counted.
fn spawn_worker(shared: Arc<Shared>, i: usize) {
    std::thread::Builder::new()
        .name(format!("g80-sim-{i}"))
        .spawn(move || {
            if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_err() {
                spawn_worker(shared, i);
            }
        })
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
            let mut groups = lock_recover(&shared.groups);
            loop {
                if let Some(g) = groups.first() {
                    break Arc::clone(g);
                }
                groups = wait_recover(&shared.work_cv, groups);
            }
        };
        // Polled in the group's context after choosing it and *before*
        // popping, so an injected worker death never takes a task with it —
        // the task stays queued for another thread.
        group.context().faults().poll(Site::PoolWorker);
        match group.pop() {
            Some(task) => group.run(task),
            // Drained: stop offering it.
            None => lock_recover(&shared.groups).retain(|g| !Arc::ptr_eq(g, &group)),
        }
    }
}

/// Executes lifetime-erased tasks to completion in `ctx`: registers the
/// group for workers to steal from, drains it from the owning thread, then
/// blocks until every task (including stolen ones) has finished.
fn scope_run(ctx: Option<Arc<SimContext>>, tasks: VecDeque<Task>) {
    let pool = pool();
    let group = Arc::new(Group::new(ctx, tasks));
    {
        let mut groups = lock_recover(&pool.shared.groups);
        groups.push(Arc::clone(&group));
    }
    pool.shared.work_cv.notify_all();
    while let Some(task) = group.pop() {
        group.run(task);
    }
    let mut done = lock_recover(&group.done);
    while !*done {
        done = wait_recover(&group.done_cv, done);
    }
    drop(done);
    let payload = lock_recover(&group.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
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
    let tasks: VecDeque<Task> = fns
        .into_iter()
        .zip(&slots)
        .map(|(f, slot)| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // The task catches its own panic so the slot always ends up
                // filled; Group::run's catch is only a backstop.
                let r = catch_unwind(AssertUnwindSafe(f)).map_err(TaskPanic);
                *lock_recover(slot) = Some(r);
            });
            // SAFETY: `scope_run` does not return until every task has run
            // to completion, so the borrows of `slots` (and whatever `f`
            // captures from the caller) are live for as long as the task
            // can execute. Erasing the lifetime is exactly the trick
            // `std::thread::scope` performs internally.
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) }
        })
        .collect();
    scope_run(context::scoped(), tasks);
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
