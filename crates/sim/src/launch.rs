//! Kernel launch: occupancy-checked block scheduling across the 16 SMs,
//! simulated in parallel on the process-wide worker pool. The public entry
//! points resolve [`SimContext::current`] once; everything below them takes
//! the context as an explicit argument.
//!
//! Blocks are distributed round-robin over SMs at launch, and each SM refills
//! its own slots as resident blocks retire. Because DRAM bandwidth is
//! partitioned evenly per SM (see `cost::dram_request`),
//! SM simulations are mutually independent and the result is deterministic
//! regardless of host thread scheduling.
//!
//! Each non-empty SM's simulation is a task on [`crate::pool`], so fleets of
//! launches share one set of worker threads and no thread is spawned per
//! launch.
//!
//! [`launch_batch`] runs *independent* launches concurrently: every spec is
//! probed against the cache tiers on the caller, and each miss becomes one
//! pool task running [`simulate`]. A single [`launch`] is a batch of one.

use crate::config::GpuConfig;
use crate::context::SimContext;
use crate::counters::{KernelStats, MemoCounters, SmStats, WorkCounters};
use crate::fault::lock_recover;
use crate::memo::{self, KernelInfo, Served};
use crate::memory::DeviceMemory;
use crate::pool::{self, Scope, TaskPanic};
use crate::sm::{self, LaunchDims, Watch};
use crate::witness::{replay_sm, Rep, WriteBuf};
use g80_isa::{Kernel, Value};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Errors rejected at launch time (the CUDA runtime would fail the same
/// way), plus per-launch degradation outcomes: a launch whose simulation
/// aborts (watchdog budget, kernel panic) degrades to an
/// `Err` for that launch alone instead of unwinding through the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Block dimensions exceed the 512-thread limit or are zero.
    BadBlockDims(String),
    /// Grid dimensions are zero or exceed the 65535 limit.
    BadGridDims(String),
    /// One block alone exceeds a per-SM resource (registers / shared
    /// memory / threads).
    BlockDoesNotFit(String),
    /// Wrong number of kernel parameters.
    BadParams(String),
    /// An SM exceeded the watchdog cycle budget
    /// ([`crate::SimConfig::watchdog_cycles`]), carrying the aborting SM's
    /// partial progress.
    Watchdog {
        /// Kernel name.
        kernel: String,
        /// The budget that was exceeded.
        budget: u64,
        /// Simulated cycles reached on the aborting SM.
        cycles: u64,
        /// Warp instructions issued on the aborting SM before the abort.
        warp_instructions: u64,
    },
    /// The launch's simulation panicked (kernel bug — e.g. an out-of-bounds
    /// access or a divergent barrier); the panic message is captured.
    Panic(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Every variant leads with its name: log lines stay distinguishable
        // even though the payloads are free-form strings.
        match self {
            LaunchError::BadBlockDims(s) => write!(f, "BadBlockDims: {s}"),
            LaunchError::BadGridDims(s) => write!(f, "BadGridDims: {s}"),
            LaunchError::BlockDoesNotFit(s) => write!(f, "BlockDoesNotFit: {s}"),
            LaunchError::BadParams(s) => write!(f, "BadParams: {s}"),
            LaunchError::Watchdog {
                kernel,
                budget,
                cycles,
                warp_instructions,
            } => write!(
                f,
                "Watchdog: kernel {kernel}: exceeded the {budget}-cycle budget \
                 (aborted at cycle {cycles} after {warp_instructions} warp instructions)"
            ),
            LaunchError::Panic(msg) => write!(f, "Panic: {msg}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Classifies an unwind payload caught at the launch boundary.
fn classify_panic(p: Box<dyn std::any::Any + Send>) -> LaunchError {
    if let Some(w) = p.downcast_ref::<crate::fault::WatchdogAbort>() {
        return LaunchError::Watchdog {
            kernel: w.kernel.clone(),
            budget: w.budget,
            cycles: w.cycles,
            warp_instructions: w.warp_instructions,
        };
    }
    LaunchError::Panic(
        crate::fault::payload_str(p.as_ref())
            .unwrap_or("non-string panic payload")
            .to_string(),
    )
}

/// One launch of a batch: everything [`launch`] takes except the shared
/// machine configuration. Entries are independent; if several specs share a
/// [`DeviceMemory`] they must follow the same consistency rules concurrent
/// blocks already do (disjoint or idempotent writes, commutative atomics).
#[derive(Copy, Clone)]
pub struct LaunchSpec<'a> {
    pub kernel: &'a Kernel,
    pub dims: LaunchDims,
    pub params: &'a [Value],
    pub mem: &'a DeviceMemory,
}

/// Occupancy-checks a launch request; returns blocks/SM on success.
fn validate(cfg: &GpuConfig, spec: &LaunchSpec) -> Result<u32, LaunchError> {
    // The timing engine's warp machinery (masks, register file striding) is
    // fixed at 32 lanes; configs are free to vary everything else.
    assert_eq!(
        cfg.warp_size, 32,
        "the simulation engine only supports 32-lane warps"
    );
    let (kernel, dims) = (spec.kernel, spec.dims);
    let tpb = dims.threads_per_block();
    if tpb == 0 || tpb > cfg.max_threads_per_block {
        return Err(LaunchError::BadBlockDims(format!(
            "kernel {}: {} threads per block (limit {})",
            kernel.name, tpb, cfg.max_threads_per_block
        )));
    }
    if dims.grid.0 == 0 || dims.grid.1 == 0 || dims.grid.0 > 65535 || dims.grid.1 > 65535 {
        return Err(LaunchError::BadGridDims(format!(
            "kernel {}: grid {:?}",
            kernel.name, dims.grid
        )));
    }
    if spec.params.len() != kernel.num_params as usize {
        return Err(LaunchError::BadParams(format!(
            "kernel {} expects {} params, got {}",
            kernel.name,
            kernel.num_params,
            spec.params.len()
        )));
    }
    let blocks_per_sm = cfg.blocks_per_sm(kernel.regs_per_thread, kernel.smem_bytes, tpb);
    if blocks_per_sm == 0 {
        return Err(LaunchError::BlockDoesNotFit(format!(
            "kernel {}: a {}-thread block with {} regs/thread and {} B smem does not fit on an SM",
            kernel.name, tpb, kernel.regs_per_thread, kernel.smem_bytes
        )));
    }
    Ok(blocks_per_sm)
}

/// Round-robin static assignment of blocks to SMs.
fn assign_blocks(cfg: &GpuConfig, dims: LaunchDims) -> Vec<Vec<(u32, u32)>> {
    let mut per_sm_blocks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); cfg.num_sms as usize];
    let mut i = 0usize;
    for cy in 0..dims.grid.1 {
        for cx in 0..dims.grid.0 {
            per_sm_blocks[i % cfg.num_sms as usize].push((cx, cy));
            i += 1;
        }
    }
    per_sm_blocks
}

/// A validated launch: everything that stays fixed while its SMs run, handed
/// down whole to the engines ([`sm::run_sm`], [`replay_sm`]).
pub(crate) struct Prepared<'a> {
    pub(crate) cfg: &'a GpuConfig,
    pub(crate) spec: LaunchSpec<'a>,
    pub(crate) blocks_per_sm: u32,
    per_sm_blocks: Vec<Vec<(u32, u32)>>,
    /// The kernel's predecode and dataflow facts.
    pub(crate) info: Arc<KernelInfo>,
    /// Block-class dedup engages: the context allows it and has no SM-engine
    /// seam, and the kernel is eligible ([`KernelInfo::dedup_eligible`]).
    pub(crate) dedup: bool,
    /// The per-SM cycle budget ([`SimContext::watchdog_budget`]).
    pub(crate) watchdog: u64,
}

impl<'a> Prepared<'a> {
    /// Resolves everything a launch's SMs share. Predecode (and dataflow
    /// analysis) runs once per process per kernel content; should it unwind,
    /// that costs this launch only.
    pub(crate) fn new(
        ctx: &SimContext,
        cfg: &'a GpuConfig,
        spec: LaunchSpec<'a>,
        blocks_per_sm: u32,
    ) -> Result<Self, LaunchError> {
        let info = catch_unwind(AssertUnwindSafe(|| memo::kernel_info(spec.kernel)))
            .map_err(classify_panic)?;
        Ok(Prepared {
            cfg,
            spec,
            blocks_per_sm,
            per_sm_blocks: assign_blocks(cfg, spec.dims),
            dedup: ctx.config().dedup && ctx.sm_engine.is_none() && info.dedup_eligible,
            info,
            watchdog: ctx.watchdog_budget(),
        })
    }

    /// Simulates one SM of this launch on the predecoded engine, or on the
    /// context's [`SimContext::with_sm_engine`] seam when set. The run's
    /// row, dedup and host-work tallies are flushed to `ctx` once, at its
    /// end. Also says whether every block verified class-identical
    /// ([`sm::run_sm`]; never on the seam).
    fn run_sm(&self, ctx: &SimContext, blocks: &[(u32, u32)], watch: Watch) -> (SmStats, bool) {
        if let Some(run_sm) = ctx.sm_engine {
            let s = &self.spec;
            let stats = run_sm(
                self.cfg,
                s.kernel,
                &s.dims,
                s.params,
                s.mem,
                blocks,
                self.blocks_per_sm,
                self.watchdog,
            );
            return (stats, false);
        }
        let (stats, tally, verified) = sm::run_sm(self, blocks, watch);
        ctx.metrics.rows.add(&tally.rows);
        ctx.metrics.memo.add(&tally.memo);
        ctx.metrics.work.add(&tally.work);
        (stats, verified)
    }

    /// The first SM of a block class of several, and the class's followers
    /// through it: the donor runs timed, and the moment its representative
    /// freezes it spawns one follower task per other SM of the class into
    /// `s`, which replay while it runs on ([`Self::follow`]). A donor that
    /// returns without having frozen one leaves its followers to the timed
    /// engine; one that unwinds first leaves them unrun, since its error
    /// fails the launch. Fills the slots of the SMs that ran, the donor's
    /// first.
    fn lead<'s>(
        &'s self,
        ctx: &'s SimContext,
        s: &'s Scope<'s, '_>,
        class: &'s [Queue<'s>],
        slots: &'s [SmSlot<'a>],
    ) {
        let (donor, followers) = (class[0].1, class[1..].iter().zip(&slots[1..]));
        if class.len() == 1 {
            return fill(&slots[0], || {
                SmRun::Timed(self.run_sm(ctx, donor, Watch::Periods).0)
            });
        }
        let mut spawned = false;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut on_freeze = |rep: Arc<Rep>| {
                spawned = true;
                for (&(_, blocks), slot) in followers.clone() {
                    let rep = Arc::clone(&rep);
                    s.spawn(move || fill(slot, || self.follow(ctx, blocks, &rep)));
                }
            };
            self.run_sm(ctx, donor, Watch::Donor(&mut on_freeze))
        }));
        if !spawned && run.is_ok() {
            for (&(_, blocks), slot) in followers {
                s.spawn(move || {
                    fill(slot, || {
                        SmRun::Timed(self.run_sm(ctx, blocks, Watch::Periods).0)
                    });
                });
            }
        }
        let run = run.map(|(stats, verified)| SmRun::Donor(stats, verified));
        *lock_recover(&slots[0]) = Some(run.map_err(TaskPanic));
    }

    /// Donor-SM reuse: this SM's block queue is exactly as long as the
    /// donor's, so if every block replays clean against the donor's frozen
    /// witness, and the donor goes on to verify all of its own blocks, the
    /// SM's evolution is the same deterministic computation as the donor's:
    /// it adopts the donor's stats, and [`run_sms`] commits the writes held
    /// here. A block that fails its replay runs the whole SM timed at once,
    /// with no recorder: its blocks are not the donor's class.
    fn follow(&self, ctx: &SimContext, blocks: &[(u32, u32)], rep: &Rep) -> SmRun<'a> {
        match replay_sm(self, blocks, rep) {
            (Some(buf), replayed) => SmRun::Replayed(buf, replayed),
            (None, replayed) => SmRun::FellBack(self.run_sm(ctx, blocks, Watch::Off).0, replayed),
        }
    }

    fn merge(&self, results: Vec<SmStats>) -> KernelStats {
        KernelStats::merge(
            &self.spec.kernel.name,
            self.cfg,
            results,
            self.spec.kernel.regs_per_thread,
            self.spec.kernel.smem_bytes,
            self.spec.dims.threads_per_block(),
            self.blocks_per_sm,
            self.spec.dims.total_blocks(),
        )
    }
}

/// Launches a kernel on the simulated GPU and runs it to completion.
///
/// Returns the performance counters; output data lands in `mem`.
pub fn launch(
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
) -> Result<KernelStats, LaunchError> {
    launch_traced(cfg, kernel, dims, params, mem).map(|(stats, _)| stats)
}

/// [`launch`], but also reports which tier served the result (simulated
/// fresh, replayed from the in-process memo LRU, or replayed from the
/// persistent disk tier). Host runtimes use this to attribute cache
/// activity to the launch that caused it instead of diffing their
/// context's [`memo_counters`].
///
/// A single launch is a batch of one ([`launch_batch_traced`]): it has its
/// memory to itself, so the memo may digest and diff it.
///
/// [`memo_counters`]: crate::memo_counters
pub fn launch_traced(
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
) -> Result<(KernelStats, Served), LaunchError> {
    let spec = LaunchSpec {
        kernel,
        dims,
        params,
        mem,
    };
    let mut results = launch_batch_traced(cfg, &[spec]);
    results.pop().expect("one result per spec")
}

/// Outcome of [`probe`] for a valid launch.
enum Probe {
    /// A cache tier answered; the memory effect is already applied.
    Hit(Box<KernelStats>, Served),
    /// Nothing cached (or memoization is off for this launch): simulate.
    Miss(Miss),
}

/// What [`probe`] hands to [`simulate`].
struct Miss {
    blocks_per_sm: u32,
    /// The memo token to record the result under, when memoizing.
    pending: Option<memo::MemoPending>,
}

/// The cheap half of a launch: validate, then ask the memo cache. Runs on
/// the calling thread; launch-time validation panics (e.g. the
/// 32-lane-warp engine limit) stay panics.
fn probe(
    ctx: &SimContext,
    cfg: &GpuConfig,
    spec: LaunchSpec,
    exclusive_mem: bool,
) -> Result<Probe, LaunchError> {
    let blocks_per_sm = validate(cfg, &spec)?;
    let pending = match memo::memo_lookup(
        ctx,
        cfg,
        spec.kernel,
        spec.dims,
        spec.params,
        spec.mem,
        exclusive_mem,
    ) {
        memo::MemoLookup::Hit(stats, served) => return Ok(Probe::Hit(stats, served)),
        memo::MemoLookup::Miss(pending) => Some(pending),
        memo::MemoLookup::Disabled => None,
    };
    Ok(Probe::Miss(Miss {
        blocks_per_sm,
        pending,
    }))
}

/// The expensive half: [`Prepared::new`] (the predecode registry), SM
/// simulation (with donor-SM reuse), merge, record. Unwinds from the simulation (kernel bugs,
/// watchdog aborts) are caught and classified into
/// [`LaunchError`]s, so they cost this launch only.
fn simulate(
    ctx: &SimContext,
    cfg: &GpuConfig,
    spec: LaunchSpec,
    miss: Miss,
) -> Result<(KernelStats, Served), LaunchError> {
    let prepared = Prepared::new(ctx, cfg, spec, miss.blocks_per_sm)?;
    let results = run_sms(ctx, &prepared)?;
    let stats = prepared.merge(results);
    if let Some(pending) = miss.pending {
        memo::memo_record(ctx, pending, spec.mem, &stats);
    }
    Ok((stats, Served::Simulated))
}

/// Below this many simulated threads in the whole grid, the per-SM tasks of
/// a launch run serially on the caller thread instead of through the
/// pool. A launch this small simulates in well under a millisecond per SM,
/// so the pool's queue lock and condvar wakeups cost more than the work —
/// and when the caller is itself a pool task (an application job whose
/// inner launches nest on the same pool, as in the benchmark suite), those
/// queue operations contend with every sibling job's. SM simulations are
/// independent, so running them serially on the caller is bit-identical.
const CALLER_RUNS_THREADS: u64 = 8192;

/// A scope for a launch's SM tasks: the pool's, or the caller alone for a
/// launch under the [`CALLER_RUNS_THREADS`] floor.
fn sm_scope<'env, F>(small: bool, f: F)
where
    F: for<'s> FnOnce(&'s Scope<'s, 'env>),
{
    if small {
        pool::scope_on_caller(f);
    } else {
        pool::scope(f);
    }
}

/// An SM's index and its block queue.
type Queue<'a> = (usize, &'a [(u32, u32)]);

/// What an SM's task leaves for [`run_sms`].
enum SmRun<'m> {
    /// A timed run.
    Timed(SmStats),
    /// A donor's timed run, and whether every block it ran verified
    /// class-identical.
    Donor(SmStats, bool),
    /// A follower's clean replay: its writes, held until its donor has
    /// verified, and the warp instructions it replayed.
    Replayed(WriteBuf<'m>, u64),
    /// A follower whose replay failed, then ran timed, and the warp
    /// instructions it replayed first.
    FellBack(SmStats, u64),
}

/// One SM's outcome, or its task's panic, caught in the task.
type SmSlot<'m> = Mutex<Option<Result<SmRun<'m>, TaskPanic>>>;

fn fill<'m>(slot: &SmSlot<'m>, run: impl FnOnce() -> SmRun<'m>) {
    let run = catch_unwind(AssertUnwindSafe(run)).map_err(TaskPanic);
    *lock_recover(slot) = Some(run);
}

fn take<'m>(slot: &SmSlot<'m>) -> Option<Result<SmRun<'m>, TaskPanic>> {
    lock_recover(slot).take()
}

/// One task scope per launch, over the SMs *with work to do*. An empty
/// SM's simulation is the empty `SmStats` (it never enters the scheduler
/// loop), so skipping it is bit-identical and a small grid costs a handful
/// of queue operations.
///
/// With dedup, SMs reuse a donor, one per queue length. Round-robin
/// assignment leaves at most two lengths, q + 1 on the first SMs and q on
/// the rest, each a contiguous run of `busy`. Every SM with an equally long
/// block queue evolves identically (same deterministic computation once its
/// blocks are verified class-identical, constant addresses included —
/// every SM starts with a cold constant cache), so the first SM of each
/// length runs timed and the others replay functionally against its
/// representative, from the moment it freezes, while the donor runs on
/// ([`Prepared::lead`]). At the join, each replay's writes commit in SM
/// order and it adopts the donor's stats if the donor verified all its
/// blocks; if not, those SMs run timed in a second scope. A panic degrades
/// to a classified [`LaunchError`] for this launch alone, the first in SM
/// order.
fn run_sms(ctx: &SimContext, prepared: &Prepared) -> Result<Vec<SmStats>, LaunchError> {
    let busy: Vec<Queue> = prepared
        .per_sm_blocks
        .iter()
        .enumerate()
        .filter(|(_, blocks)| !blocks.is_empty())
        .map(|(sm, blocks)| (sm, blocks.as_slice()))
        .collect();
    let small = prepared.spec.dims.total_blocks() * prepared.spec.dims.threads_per_block() as u64
        <= CALLER_RUNS_THREADS;
    let classes: Vec<&[Queue]> = if prepared.dedup {
        busy.chunk_by(|a, b| a.1.len() == b.1.len()).collect()
    } else {
        busy.chunks(1).collect()
    };
    let slots: Vec<SmSlot> = busy.iter().map(|_| Mutex::new(None)).collect();
    sm_scope(small, |s| {
        let mut rest = &slots[..];
        for &class in &classes {
            let (mine, tail) = rest.split_at(class.len());
            rest = tail;
            s.spawn(move || prepared.lead(ctx, s, class, mine));
        }
    });

    let mut results = vec![SmStats::default(); prepared.cfg.num_sms as usize];
    let mut first_err = None;
    let (mut tally, mut work) = (MemoCounters::default(), WorkCounters::default());
    let mut late = Vec::new();
    let mut runs = busy.iter().zip(&slots);
    for class in &classes {
        let mut donor = (SmStats::default(), false);
        for (&(sm, blocks), slot) in runs.by_ref().take(class.len()) {
            // Only the followers of a donor that unwound are left empty.
            let Some(run) = take(slot) else { continue };
            match run {
                // A follower of a verified donor only runs timed, and so
                // only panics, after its replay failed.
                Err(p) => {
                    tally.dedup_fallbacks += u64::from(donor.1);
                    first_err.get_or_insert_with(|| classify_panic(p.0));
                }
                Ok(SmRun::Timed(stats)) => results[sm] = stats,
                Ok(SmRun::Donor(stats, verified)) => {
                    results[sm] = stats.clone();
                    donor = (stats, verified);
                }
                Ok(SmRun::Replayed(buf, replayed)) => {
                    work.replayed_insts += replayed;
                    if donor.1 {
                        buf.commit();
                        results[sm] = donor.0.clone();
                        tally.dedup_fast_blocks += blocks.len() as u64;
                    } else {
                        late.push((sm, blocks, slot));
                    }
                }
                Ok(SmRun::FellBack(stats, replayed)) => {
                    work.replayed_insts += replayed;
                    results[sm] = stats;
                    tally.dedup_fallbacks += u64::from(donor.1);
                }
            }
        }
    }
    ctx.metrics.memo.add(&tally);
    ctx.metrics.work.add(&work);
    if let Some(e) = first_err {
        return Err(e);
    }
    if late.is_empty() {
        return Ok(results);
    }
    // A donor that failed verification after its freeze: its followers'
    // replays prove nothing, so they run timed.
    sm_scope(small, |s| {
        for &(_, blocks, slot) in &late {
            s.spawn(move || {
                fill(slot, || {
                    SmRun::Timed(prepared.run_sm(ctx, blocks, Watch::Periods).0)
                });
            });
        }
    });
    for (sm, _, slot) in late {
        match take(slot).expect("every rerun fills its slot") {
            Ok(SmRun::Timed(stats)) => results[sm] = stats,
            Ok(_) => unreachable!("a rerun is timed"),
            Err(p) => return Err(classify_panic(p.0)),
        }
    }
    Ok(results)
}

/// Launches a fleet of independent kernels and runs them all to completion,
/// returning one result per spec **in input order**.
///
/// Compared with calling [`launch`] in a loop, a batch runs its cache
/// misses concurrently, one pool task per launch (large launches still fan
/// their SMs out from inside that task), while hits resolve on the caller
/// without touching the pool. Each launch goes through the same
/// probe-then-simulate path as [`launch`], so simulated statistics and
/// memory are bit-identical to the sequential loop for any worker count.
pub fn launch_batch(
    cfg: &GpuConfig,
    specs: &[LaunchSpec],
) -> Vec<Result<KernelStats, LaunchError>> {
    launch_batch_traced(cfg, specs)
        .into_iter()
        .map(|r| r.map(|(stats, _)| stats))
        .collect()
}

/// [`launch_batch`], but each entry also reports which cache tier served it
/// (see [`launch_traced`]).
pub fn launch_batch_traced(
    cfg: &GpuConfig,
    specs: &[LaunchSpec],
) -> Vec<Result<(KernelStats, Served), LaunchError>> {
    launch_batch_once(&SimContext::current(), cfg, specs)
}

/// The batch itself. Every spec is probed serially on the caller —
/// a hit is a few microseconds and routing it through the pool costs more
/// than it saves — then each miss is one pool task running [`simulate`]. A
/// panic that escapes a task costs only the launch that owns it.
fn launch_batch_once(
    ctx: &SimContext,
    cfg: &GpuConfig,
    specs: &[LaunchSpec],
) -> Vec<Result<(KernelStats, Served), LaunchError>> {
    // Memo exclusivity: launches in the batch run concurrently, so a spec
    // sharing its `DeviceMemory` with another spec cannot be memoized (its
    // input digest / output diff would race the other launch's writes).
    let mut mem_uses: HashMap<*const DeviceMemory, usize> = HashMap::new();
    for s in specs {
        *mem_uses.entry(std::ptr::from_ref(s.mem)).or_insert(0) += 1;
    }

    // Hits apply their memory delta during the probe, before any simulation
    // starts, which is safe precisely because only exclusively-owned
    // memories are probed.
    let mut misses = Vec::new();
    let resolved: Vec<Option<Result<(KernelStats, Served), LaunchError>>> = specs
        .iter()
        .map(|&spec| {
            let exclusive = mem_uses[&std::ptr::from_ref(spec.mem)] == 1;
            match probe(ctx, cfg, spec, exclusive) {
                Err(e) => Some(Err(e)),
                Ok(Probe::Hit(stats, served)) => Some(Ok((*stats, served))),
                Ok(Probe::Miss(miss)) => {
                    misses.push(move || simulate(ctx, cfg, spec, miss));
                    None
                }
            }
        })
        .collect();
    let mut simulated = pool::try_run_tasks(misses).into_iter();
    resolved
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                simulated
                    .next()
                    .expect("one simulation per miss")
                    .unwrap_or_else(|p| Err(classify_panic(p.0)))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::KernelBuilder;

    impl<'a> Prepared<'a> {
        /// A launch on a fresh context with the predecoded engine, dedup as
        /// asked (when the kernel is eligible) and `blocks_per_sm` as given.
        pub(crate) fn for_test(
            cfg: &'a GpuConfig,
            spec: LaunchSpec<'a>,
            blocks_per_sm: u32,
            dedup: bool,
        ) -> Self {
            let ctx = SimContext::new(crate::SimConfig {
                dedup,
                ..Default::default()
            });
            ctx.enter(|| Prepared::new(&ctx, cfg, spec, blocks_per_sm))
                .expect("predecode")
        }
    }

    /// A one-parameter kernel that stores tid to the param address.
    fn tiny_kernel() -> Kernel {
        let mut bk = KernelBuilder::new("tiny");
        let p = bk.param();
        let tid = bk.tid_x();
        let byte = bk.shl(tid, 2u32);
        let addr = bk.iadd(byte, p);
        bk.st_global(addr, 0, tid);
        bk.build()
    }

    fn setup() -> (GpuConfig, Kernel, DeviceMemory) {
        (
            GpuConfig::geforce_8800_gtx(),
            tiny_kernel(),
            DeviceMemory::new(1 << 16),
        )
    }

    fn dims(grid: (u32, u32), block: (u32, u32, u32)) -> LaunchDims {
        LaunchDims { grid, block }
    }

    #[test]
    fn zero_block_dim_is_rejected() {
        let (cfg, k, mem) = setup();
        let r = launch(
            &cfg,
            &k,
            dims((1, 1), (0, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
        assert!(matches!(r, Err(LaunchError::BadBlockDims(_))), "{r:?}");
    }

    #[test]
    fn oversized_block_is_rejected() {
        let (cfg, k, mem) = setup();
        // 32x32 = 1024 threads > the 512-thread CC 1.0 limit.
        let r = launch(
            &cfg,
            &k,
            dims((1, 1), (32, 32, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
        assert!(matches!(r, Err(LaunchError::BadBlockDims(_))), "{r:?}");
    }

    #[test]
    fn zero_grid_dim_is_rejected() {
        let (cfg, k, mem) = setup();
        let r = launch(
            &cfg,
            &k,
            dims((0, 1), (32, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
        assert!(matches!(r, Err(LaunchError::BadGridDims(_))), "{r:?}");
        let r = launch(
            &cfg,
            &k,
            dims((1, 0), (32, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
        assert!(matches!(r, Err(LaunchError::BadGridDims(_))), "{r:?}");
    }

    #[test]
    fn oversized_grid_dim_is_rejected() {
        let (cfg, k, mem) = setup();
        let r = launch(
            &cfg,
            &k,
            dims((65536, 1), (32, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
        assert!(matches!(r, Err(LaunchError::BadGridDims(_))), "{r:?}");
    }

    #[test]
    fn wrong_param_count_is_rejected() {
        let (cfg, k, mem) = setup();
        let r = launch(&cfg, &k, dims((1, 1), (32, 1, 1)), &[], &mem);
        assert!(matches!(r, Err(LaunchError::BadParams(_))), "{r:?}");
        let two = [Value::from_u32(0), Value::from_u32(0)];
        let r = launch(&cfg, &k, dims((1, 1), (32, 1, 1)), &two, &mem);
        assert!(matches!(r, Err(LaunchError::BadParams(_))), "{r:?}");
    }

    #[test]
    fn block_exceeding_smem_does_not_fit() {
        let (cfg, _, mem) = setup();
        let mut bk = KernelBuilder::new("smem_hog");
        let p = bk.param();
        // One word more shared memory than an SM has.
        bk.shared_alloc(cfg.smem_per_sm / 4 + 1);
        let tid = bk.tid_x();
        let byte = bk.shl(tid, 2u32);
        let addr = bk.iadd(byte, p);
        bk.st_global(addr, 0, tid);
        let k = bk.build();
        let r = launch(
            &cfg,
            &k,
            dims((1, 1), (32, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
        assert!(matches!(r, Err(LaunchError::BlockDoesNotFit(_))), "{r:?}");
    }

    #[test]
    #[should_panic(expected = "32-lane warps")]
    fn non_32_lane_warp_config_panics() {
        let (mut cfg, k, mem) = setup();
        cfg.warp_size = 16;
        let _ = launch(
            &cfg,
            &k,
            dims((1, 1), (32, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        );
    }

    #[test]
    fn batch_matches_sequential_launches_and_keeps_error_order() {
        let (cfg, k, _) = setup();
        let mems: Vec<DeviceMemory> = (0..3).map(|_| DeviceMemory::new(1 << 16)).collect();
        let params = [Value::from_u32(0)];
        let specs = vec![
            LaunchSpec {
                kernel: &k,
                dims: dims((2, 1), (32, 1, 1)),
                params: &params,
                mem: &mems[0],
            },
            // Invalid: zero grid. Must come back as Err in position 1.
            LaunchSpec {
                kernel: &k,
                dims: dims((0, 1), (32, 1, 1)),
                params: &params,
                mem: &mems[1],
            },
            LaunchSpec {
                kernel: &k,
                dims: dims((40, 1), (64, 1, 1)),
                params: &params,
                mem: &mems[2],
            },
        ];
        let batch = launch_batch(&cfg, &specs);
        assert_eq!(batch.len(), 3);
        assert!(matches!(batch[1], Err(LaunchError::BadGridDims(_))));
        for (i, spec) in specs.iter().enumerate() {
            let serial_mem = DeviceMemory::new(1 << 16);
            let serial = launch(&cfg, spec.kernel, spec.dims, spec.params, &serial_mem);
            match (&batch[i], serial) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.cycles, s.cycles, "spec {i}");
                    assert_eq!(b.warp_instructions, s.warp_instructions, "spec {i}");
                    assert_eq!(b.stall_cycles, s.stall_cycles, "spec {i}");
                    assert_eq!(b.total_threads, s.total_threads, "spec {i}");
                }
                (Err(b), Err(s)) => assert_eq!(b, &s, "spec {i}"),
                (b, s) => panic!("spec {i}: batch {b:?} vs serial {s:?}"),
            }
        }
    }

    #[test]
    fn batch_shares_predecode_across_specs_of_one_kernel() {
        // Same kernel three times: the content-keyed registry predecodes it
        // once (observable only through correctness here; the stats must
        // match three independent launches).
        let (cfg, k, _) = setup();
        let mems: Vec<DeviceMemory> = (0..3).map(|_| DeviceMemory::new(1 << 16)).collect();
        let params = [Value::from_u32(0)];
        let specs: Vec<LaunchSpec> = mems
            .iter()
            .map(|mem| LaunchSpec {
                kernel: &k,
                dims: dims((4, 1), (32, 1, 1)),
                params: &params,
                mem,
            })
            .collect();
        let batch = launch_batch(&cfg, &specs);
        let first = batch[0].as_ref().unwrap();
        for r in &batch {
            let r = r.as_ref().unwrap();
            assert_eq!(r.cycles, first.cycles);
            assert_eq!(r.warp_instructions, first.warp_instructions);
        }
        for mem in &mems {
            assert_eq!(mem.read(4 * 7).as_u32(), 7); // every block stores tid
        }
    }

    #[test]
    fn valid_launch_succeeds_and_errors_display() {
        let (cfg, k, mem) = setup();
        let stats = launch(
            &cfg,
            &k,
            dims((2, 1), (32, 1, 1)),
            &[Value::from_u32(0)],
            &mem,
        )
        .expect("valid launch");
        assert_eq!(stats.total_threads, 64);
        let e = LaunchError::BadBlockDims("kernel t: 0 threads per block".into());
        assert!(e.to_string().contains("threads per block"));
    }
}
