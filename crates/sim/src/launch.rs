//! Kernel launch: occupancy-checked block scheduling across the 16 SMs,
//! simulated in parallel on the process-wide worker pool. The public entry
//! points resolve [`SimContext::current`] once; everything below them takes
//! the context as an explicit argument.
//!
//! Blocks are distributed round-robin over SMs at launch, and each SM refills
//! its own slots as resident blocks retire. Because DRAM bandwidth is
//! partitioned evenly per SM (see `GpuConfig::dram_bytes_per_cycle_per_sm`),
//! SM simulations are mutually independent and the result is deterministic
//! regardless of host thread scheduling.
//!
//! Each non-empty SM's simulation is a task on [`crate::pool`], so fleets of
//! launches share one set of worker threads and no thread is spawned per
//! launch.
//!
//! [`launch_batch`] runs *independent* launches concurrently: every spec is
//! probed against the cache tiers on the caller, and each miss becomes one
//! pool task that runs the same [`simulate`] a single [`launch`] does.

use crate::config::GpuConfig;
use crate::context::SimContext;
use crate::counters::{KernelStats, SmStats};
use crate::fault;
use crate::memo::{self, Served};
use crate::memory::DeviceMemory;
use crate::pool;
use crate::reference::run_sm_reference;
use crate::sm::{run_sm, LaunchDims, SmTally};
use crate::witness::{replay_sm, Ev};
use g80_isa::{DecodedKernel, Kernel, Value};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;

/// Which timing-engine implementation a context's launches use
/// ([`crate::SimConfig::engine`]). Both produce bit-identical
/// [`KernelStats`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The predecoded, allocation-free hot loop in [`crate::sm`]: the
    /// product engine.
    Predecoded,
    /// The original instruction-at-a-time engine, kept in
    /// [`crate::reference`] as the executable spec: the oracle that tests
    /// and benches compare the product engine against.
    Reference,
}

/// Errors rejected at launch time (the CUDA runtime would fail the same
/// way), plus per-launch degradation outcomes: a launch whose simulation
/// aborts (watchdog budget, injected fault, kernel panic) degrades to an
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
    /// A typed fault from the deterministic injector ([`crate::fault`])
    /// surfaced at the named site.
    Fault {
        /// [`crate::fault::Site::name`] of the firing site.
        site: &'static str,
    },
    /// The launch's simulation panicked (kernel bug — e.g. an out-of-bounds
    /// access or a divergent barrier — or a panic-kind injected fault);
    /// the panic message is captured.
    Panic(String),
}

impl LaunchError {
    /// True when the error was manufactured by the fault injector (either
    /// kind) rather than by the kernel or the machine. The absorb layer
    /// retries these; everything else is reported.
    pub fn is_injected(&self) -> bool {
        match self {
            LaunchError::Fault { .. } => true,
            LaunchError::Panic(msg) => msg.starts_with(crate::fault::PANIC_MARKER),
            _ => false,
        }
    }
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
            LaunchError::Fault { site } => write!(f, "Fault: injected fault at {site}"),
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
    if let Some(fi) = p.downcast_ref::<crate::fault::InjectedFault>() {
        return LaunchError::Fault { site: fi.site };
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

/// A validated launch, ready to have its SM tasks executed.
struct Prepared<'a> {
    spec: LaunchSpec<'a>,
    blocks_per_sm: u32,
    per_sm_blocks: Vec<Vec<(u32, u32)>>,
}

impl<'a> Prepared<'a> {
    /// Simulates one SM of this launch: on the product engine given the
    /// kernel's decoded table, on the reference engine without one. The
    /// run's row and dedup tallies are flushed to `ctx` once, at its end.
    #[allow(clippy::too_many_arguments)]
    fn run_sm(
        &self,
        ctx: &SimContext,
        decoded: Option<&DecodedKernel>,
        blocks: &[(u32, u32)],
        cfg: &GpuConfig,
        dedup: bool,
        shared_uniform: bool,
        witness_out: Option<&mut Option<Vec<Vec<Ev>>>>,
    ) -> SmStats {
        let s = &self.spec;
        let Some(decoded) = decoded else {
            return run_sm_reference(
                cfg,
                s.kernel,
                &s.dims,
                s.params,
                s.mem,
                blocks,
                self.blocks_per_sm,
                ctx.watchdog_budget(),
            );
        };
        let mut tally = SmTally::default();
        let stats = run_sm(
            cfg,
            s.kernel,
            decoded,
            &s.dims,
            s.params,
            s.mem,
            blocks,
            self.blocks_per_sm,
            dedup,
            shared_uniform,
            ctx.watchdog_budget(),
            &mut tally,
            witness_out,
        );
        ctx.metrics.rows.add(&tally.rows);
        ctx.metrics.memo.add(&tally.memo);
        stats
    }

    /// Donor-SM reuse: this SM's block queue is exactly as long as the
    /// donor's, so if every block replays clean against the donor's verified
    /// witness, the SM's evolution is the same deterministic computation as
    /// the donor's — adopt the donor's stats and commit the replayed writes.
    /// Any mismatch, or a donor without verified streams, falls back to full
    /// simulation (nothing committed).
    fn reuse_or_run_sm(
        &self,
        ctx: &SimContext,
        cfg: &GpuConfig,
        decoded: &DecodedKernel,
        shared_uniform: bool,
        blocks: &[(u32, u32)],
        donor: Option<(&SmStats, &[Vec<Ev>])>,
    ) -> SmStats {
        if let Some((donor_stats, rep)) = donor {
            let (s, tally) = (&self.spec, &ctx.metrics.memo);
            if replay_sm(
                cfg,
                s.kernel,
                decoded,
                &s.dims,
                s.params,
                s.mem,
                blocks,
                rep,
                shared_uniform,
            ) {
                let replayed = blocks.len() as u64;
                tally.dedup_fast_blocks.fetch_add(replayed, Relaxed);
                return donor_stats.clone();
            }
            tally.dedup_fallbacks.fetch_add(1, Relaxed);
        }
        self.run_sm(ctx, Some(decoded), blocks, cfg, true, shared_uniform, None)
    }

    fn merge(&self, cfg: &GpuConfig, results: Vec<SmStats>) -> KernelStats {
        KernelStats::merge(
            &self.spec.kernel.name,
            cfg,
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
    let spec = LaunchSpec {
        kernel,
        dims,
        params,
        mem,
    };
    // A single launch has exclusive use of its memory for the duration of
    // the call (the caller handed us `&DeviceMemory` and blocks on the
    // result), so the memo digest/diff is sound.
    launch_with_memo(&SimContext::current(), cfg, spec, true).map(|(stats, _)| stats)
}

/// [`launch`], but also reports which tier served the result (simulated
/// fresh, replayed from the in-process memo LRU, or replayed from the
/// persistent disk tier). Host runtimes use this to attribute cache
/// activity to the launch that caused it instead of diffing their
/// context's [`memo_counters`].
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
    launch_with_memo(&SimContext::current(), cfg, spec, true)
}

/// Bound on absorb-mode retries of injected-class failures. At realistic
/// injection rates the probability of exhausting this is negligible; at
/// rate 1.0 it prevents an infinite loop (the error is reported instead).
const MAX_FAULT_RETRIES: u32 = 32;

/// [`launch`] body with an explicit memo-exclusivity verdict (batches pass
/// `false` for specs that share a [`DeviceMemory`] with a concurrent spec).
/// The [`Served`] in the result is the cache-tier verdict.
///
/// When fault injection is armed with absorb-and-retry enabled (the
/// default), injected-class failures are retried after restoring the
/// pre-launch memory image — a retry without the restore would double-apply
/// the partial writes of in-place kernels. Simulation is deterministic, so
/// an absorbed launch is bit-identical to an unfaulted one.
pub(crate) fn launch_with_memo(
    ctx: &SimContext,
    cfg: &GpuConfig,
    spec: LaunchSpec,
    exclusive_mem: bool,
) -> Result<(KernelStats, Served), LaunchError> {
    if !fault::armed() {
        return launch_once(ctx, cfg, spec, exclusive_mem);
    }
    let snapshot = if fault::retry() {
        Some(spec.mem.snapshot_words())
    } else {
        None
    };
    let mut attempts = 0u32;
    loop {
        match launch_once(ctx, cfg, spec, exclusive_mem) {
            Err(e) if e.is_injected() && attempts < MAX_FAULT_RETRIES && snapshot.is_some() => {
                attempts += 1;
                spec.mem.restore_words(snapshot.as_ref().unwrap());
            }
            r => return r,
        }
    }
}

/// One attempt at a launch: [`probe`], then [`simulate`] on a miss.
fn launch_once(
    ctx: &SimContext,
    cfg: &GpuConfig,
    spec: LaunchSpec,
    exclusive_mem: bool,
) -> Result<(KernelStats, Served), LaunchError> {
    match probe(ctx, cfg, spec, exclusive_mem)? {
        Probe::Hit(stats, served) => Ok((*stats, served)),
        Probe::Miss(miss) => simulate(ctx, cfg, spec, miss),
    }
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

/// The expensive half: predecode registry, SM simulation (with donor-SM
/// reuse), merge, record. Unwinds from the simulation (kernel bugs,
/// watchdog aborts, injected faults) are caught and classified into
/// [`LaunchError`]s, so they cost this launch only.
fn simulate(
    ctx: &SimContext,
    cfg: &GpuConfig,
    spec: LaunchSpec,
    miss: Miss,
) -> Result<(KernelStats, Served), LaunchError> {
    let prepared = Prepared {
        spec,
        blocks_per_sm: miss.blocks_per_sm,
        per_sm_blocks: assign_blocks(cfg, spec.dims),
    };

    // Predecode (and dataflow-analyze) once per process per kernel content.
    // Decode can unwind (injected isa.decode fault); that costs this launch
    // only.
    let info = match ctx.config().engine {
        Engine::Reference => None,
        Engine::Predecoded => Some(
            catch_unwind(AssertUnwindSafe(|| memo::kernel_info(spec.kernel)))
                .map_err(classify_panic)?,
        ),
    };
    let decoded = info.as_deref().map(|i| &i.decoded);
    let dedup = ctx.config().dedup && info.as_deref().is_some_and(|i| i.dedup_eligible);
    let shared_uniform = info.as_deref().is_some_and(|i| i.shared_uniform);

    let results = run_sms(ctx, cfg, &prepared, decoded, dedup, shared_uniform)?;
    let stats = prepared.merge(cfg, results);
    if let Some(pending) = miss.pending {
        memo::memo_record(ctx, pending, spec.mem, &stats);
    }
    Ok((stats, Served::Simulated))
}

/// Collects per-SM task results, degrading the first panic (in SM order)
/// into a classified [`LaunchError`] for the owning launch. Every task ran
/// to completion or unwound inside its own slot, so losing the launch loses
/// nothing else.
fn collect_sm_results(
    slots: Vec<Result<SmStats, pool::TaskPanic>>,
) -> Result<Vec<SmStats>, LaunchError> {
    let mut out = Vec::with_capacity(slots.len());
    let mut first_err: Option<LaunchError> = None;
    for slot in slots {
        match slot {
            Ok(stats) => out.push(stats),
            Err(p) => {
                if first_err.is_none() {
                    first_err = Some(classify_panic(p.0));
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
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

/// Runs per-SM closures through the pool, or serially on the caller for
/// launches under the [`CALLER_RUNS_THREADS`] floor, preserving
/// [`pool::try_run_tasks`]'s per-slot panic isolation either way.
fn run_sm_tasks<F>(small: bool, fns: Vec<F>) -> Vec<Result<SmStats, pool::TaskPanic>>
where
    F: FnOnce() -> SmStats + Send,
{
    if small {
        fns.into_iter()
            .map(|f| catch_unwind(AssertUnwindSafe(f)).map_err(pool::TaskPanic))
            .collect()
    } else {
        pool::try_run_tasks(fns)
    }
}

/// An SM's index and its block queue.
type Queue<'a> = (usize, &'a [(u32, u32)]);

/// One pool task per SM *with work to do*. An empty SM's simulation is the
/// empty `SmStats` (it never enters the scheduler loop), so skipping it is
/// bit-identical and a small grid costs a handful of queue operations.
fn run_sms(
    ctx: &SimContext,
    cfg: &GpuConfig,
    prepared: &Prepared,
    decoded: Option<&DecodedKernel>,
    dedup: bool,
    shared_uniform: bool,
) -> Result<Vec<SmStats>, LaunchError> {
    let busy: Vec<Queue> = prepared
        .per_sm_blocks
        .iter()
        .enumerate()
        .filter(|(_, blocks)| !blocks.is_empty())
        .map(|(sm, blocks)| (sm, blocks.as_slice()))
        .collect();
    let mut results: Vec<SmStats> = vec![SmStats::default(); cfg.num_sms as usize];
    let small = prepared.spec.dims.total_blocks() * prepared.spec.dims.threads_per_block() as u64
        <= CALLER_RUNS_THREADS;

    // Donor-SM reuse, one donor per queue length. Round-robin assignment
    // leaves at most two lengths, q + 1 on the first SMs and q on the rest,
    // each a contiguous run of `busy`. The first SM of each length
    // runs timed, exporting its verified witness streams when another SM of
    // that length will replay them (a class of one just runs). Every other
    // SM with an equally long block queue evolves identically (same
    // deterministic computation once its blocks are verified
    // class-identical, constant addresses included — every SM starts with a
    // cold constant cache), so it replays functionally and adopts its
    // donor's stats. Donors are independent of each other: one task scope.
    if let (true, Some(d)) = (dedup, decoded) {
        let classes: Vec<&[Queue]> = busy.chunk_by(|a, b| a.1.len() == b.1.len()).collect();
        let mut reps: Vec<Option<Vec<Vec<Ev>>>> = vec![None; classes.len()];
        let donor_stats = collect_sm_results(run_sm_tasks(
            small,
            classes
                .iter()
                .zip(reps.iter_mut())
                .map(|(class, rep)| {
                    let (blocks, rep) = (class[0].1, (class.len() > 1).then_some(rep));
                    move || prepared.run_sm(ctx, decoded, blocks, cfg, true, shared_uniform, rep)
                })
                .collect(),
        ))?;
        let replayed = collect_sm_results(run_sm_tasks(
            small,
            classes
                .iter()
                .zip(donor_stats.iter().zip(&reps))
                .flat_map(|(class, (stats, rep))| {
                    let donor = rep.as_deref().map(|rep| (stats, rep));
                    class[1..].iter().map(move |&(_, blocks)| {
                        move || prepared.reuse_or_run_sm(ctx, cfg, d, shared_uniform, blocks, donor)
                    })
                })
                .collect(),
        ))?;
        let followers = classes.iter().flat_map(|class| &class[1..]);
        for (&(sm, _), stats) in followers.zip(replayed) {
            results[sm] = stats;
        }
        for (class, stats) in classes.iter().zip(donor_stats) {
            results[class[0].0] = stats;
        }
        return Ok(results);
    }

    let partial = collect_sm_results(run_sm_tasks(
        small,
        busy.iter()
            .map(|&(_, blocks)| {
                move || prepared.run_sm(ctx, decoded, blocks, cfg, dedup, shared_uniform, None)
            })
            .collect(),
    ))?;
    for ((sm, _), stats) in busy.into_iter().zip(partial) {
        results[sm] = stats;
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
    let ctx = SimContext::current();
    if !fault::armed() {
        return launch_batch_once(&ctx, cfg, specs);
    }

    // Absorb/retry for a batch: specs may share memories, so a
    // per-launch restore could clobber a sibling's committed writes. Retry
    // the *whole batch* instead, restoring every distinct memory first.
    // Simulation is deterministic, so unfaulted entries recompute the same
    // stats and writes on every attempt.
    let snapshots: Option<Vec<(&DeviceMemory, Vec<u32>)>> = fault::retry().then(|| {
        let mut seen: HashMap<*const DeviceMemory, ()> = HashMap::new();
        let mut snaps = Vec::new();
        for s in specs {
            if seen.insert(std::ptr::from_ref(s.mem), ()).is_none() {
                snaps.push((s.mem, s.mem.snapshot_words()));
            }
        }
        snaps
    });
    let mut attempts = 0u32;
    loop {
        let results = launch_batch_once(&ctx, cfg, specs);
        let injected = results
            .iter()
            .any(|r| matches!(r, Err(e) if e.is_injected()));
        match &snapshots {
            Some(snaps) if injected && attempts < MAX_FAULT_RETRIES => {
                attempts += 1;
                for (mem, words) in snaps {
                    mem.restore_words(words);
                }
            }
            _ => return results,
        }
    }
}

/// One attempt at a batch. Every spec is probed serially on the caller —
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

    /// A grid smaller than the SM count submits tasks only for the busy SMs;
    /// stats and outputs match the reference engine stepping through all 16.
    #[test]
    fn small_grid_skips_empty_sms() {
        let (cfg, k, _) = setup();
        assert!(2 < cfg.num_sms);
        let run = |engine: Engine| {
            let ctx = SimContext::new(crate::SimConfig {
                engine,
                ..Default::default()
            });
            let mem = DeviceMemory::new(1 << 16);
            let stats = ctx
                .enter(|| {
                    launch(
                        &cfg,
                        &k,
                        dims((2, 1), (32, 1, 1)),
                        &[Value::from_u32(0)],
                        &mem,
                    )
                })
                .expect("small grid launch");
            let words: Vec<u32> = (0..64).map(|i| mem.read(i * 4).as_u32()).collect();
            (stats, words)
        };
        let (product, product_mem) = run(Engine::Predecoded);
        let (reference, reference_mem) = run(Engine::Reference);
        assert_eq!(product_mem, reference_mem);
        // Both blocks store tid (block-local) to the same 32 words.
        assert_eq!(
            product_mem,
            (0..32)
                .chain(std::iter::repeat_n(0, 32))
                .collect::<Vec<u32>>()
        );
        assert_eq!(product.cycles, reference.cycles);
        assert_eq!(product.warp_instructions, reference.warp_instructions);
        assert_eq!(product.stall_cycles, reference.stall_cycles);
        assert_eq!(product.blocks_executed, reference.blocks_executed);
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
