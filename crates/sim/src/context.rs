//! The host-side configuration, caches and tallies of the simulator, as a
//! value.
//!
//! A [`SimContext`] owns everything a launch reads or updates outside its
//! own arguments: the [`SimConfig`] it runs under, the launch memo LRU, the
//! disk tier's compaction bookkeeping, the counters and the two fault
//! schedules ([`crate::fault`]). None of it is
//! process-wide, so contexts with different configurations run side by side
//! in one process — the paper's method of comparing configurations, applied
//! to the host side.
//!
//! Every public entry point ([`crate::launch`], [`crate::memo_counters`], …)
//! resolves [`SimContext::current`] once: the innermost [`SimContext::enter`]
//! on the calling thread, else [`SimContext::global`]. Pool tasks run in
//! their submitter's context ([`crate::pool::try_run_tasks`]); a thread
//! started with `std::thread::spawn` does **not** inherit one.

use crate::counters::{MemoTally, NetTally, RowTally};
use crate::fault::{FaultConfig, FaultSchedule, NetFaultConfig};
use crate::launch::Engine;
use crate::memo::LaunchCache;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, OnceLock};

/// What a [`SimContext`] runs under. `Default` is the product
/// configuration, faults disarmed, and ignores the environment;
/// [`SimConfig::from_env`] is the only reader of the variables named on
/// the fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Consult and fill the launch memo cache (`G80_SIM_MEMO`;
    /// `off|0|false` disables).
    pub memo: bool,
    /// Block-class deduplication inside eligible launches, see
    /// `crate::witness` (`G80_SIM_DEDUP`; `off|0|false` disables).
    pub dedup: bool,
    /// Launches the memo LRU holds (`G80_SIM_MEMO_CAP`, default 128, min 1).
    pub memo_cap: usize,
    /// Directory of the persistent disk tier, created lazily on first
    /// publish; `None` disables the tier (`G80_SIM_DISK_CACHE`; empty or
    /// whitespace counts as unset, as CI matrices pass for disabled arms).
    pub disk_dir: Option<PathBuf>,
    /// Byte budget of the disk tier, enforced by compaction
    /// (`G80_SIM_DISK_CACHE_CAP`, default 1 GiB, min 1).
    pub disk_cap: u64,
    /// Per-SM simulated-cycle budget; a launch exceeding it fails with
    /// [`crate::LaunchError::Watchdog`] (`G80_SIM_WATCHDOG_CYCLES`, min 1;
    /// `None` = no watchdog).
    pub watchdog_cycles: Option<u64>,
    /// Arms the context's simulator fault sites ([`SimContext::faults`];
    /// `G80_SIM_FAULTS`, unparsable = disarmed).
    pub faults: Option<FaultConfig>,
    /// Arms the context's `g80-serve` wire sites
    /// ([`SimContext::net_faults`]; `G80_SERVE_NET_FAULTS`, unparsable =
    /// disarmed).
    pub net_faults: Option<NetFaultConfig>,
    /// Test/bench hook: which timing engine simulates. Product callers
    /// leave it at [`Engine::Predecoded`].
    #[doc(hidden)]
    pub engine: Engine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            memo: true,
            dedup: true,
            memo_cap: 128,
            disk_dir: None,
            disk_cap: 1 << 30,
            watchdog_cycles: None,
            faults: None,
            net_faults: None,
            engine: Engine::Predecoded,
        }
    }
}

impl SimConfig {
    /// The configuration the process environment asks for.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`SimConfig::from_env`] over an arbitrary variable lookup. Unset and
    /// unparsable values keep the defaults.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let on = |name| !var(name).is_some_and(|v| matches!(v.as_str(), "off" | "0" | "false"));
        let default = SimConfig::default();
        SimConfig {
            memo: on("G80_SIM_MEMO"),
            dedup: on("G80_SIM_DEDUP"),
            memo_cap: var("G80_SIM_MEMO_CAP")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default.memo_cap),
            disk_dir: var("G80_SIM_DISK_CACHE")
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            disk_cap: var("G80_SIM_DISK_CACHE_CAP")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default.disk_cap),
            watchdog_cycles: var("G80_SIM_WATCHDOG_CYCLES").and_then(|v| v.trim().parse().ok()),
            faults: var("G80_SIM_FAULTS").and_then(|v| FaultConfig::parse(&v)),
            net_faults: var("G80_SERVE_NET_FAULTS").and_then(|v| NetFaultConfig::parse(&v)),
            engine: default.engine,
        }
    }
}

/// The counters of one context.
#[derive(Default)]
pub(crate) struct Metrics {
    pub(crate) memo: MemoTally,
    pub(crate) rows: RowTally,
    pub(crate) net: NetTally,
}

/// One simulator instance's host-side state; see the module docs.
pub struct SimContext {
    config: SimConfig,
    pub(crate) cache: Mutex<LaunchCache>,
    /// Bytes this context published to the disk tier since its last
    /// compaction scan.
    pub(crate) disk_published: AtomicU64,
    pub(crate) metrics: Metrics,
    faults: FaultSchedule<FaultConfig>,
    net_faults: FaultSchedule<NetFaultConfig>,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<SimContext>>> = const { RefCell::new(None) };
}

/// Restores the thread's previous scoped context on drop (unwinds included).
pub(crate) struct Scope(Option<Arc<SimContext>>);

impl Drop for Scope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Makes `ctx` the calling thread's scoped context until the guard drops.
pub(crate) fn scope(ctx: Option<Arc<SimContext>>) -> Scope {
    Scope(CURRENT.with(|c| c.replace(ctx)))
}

/// The calling thread's innermost entered context, if any: what a pool task
/// inherits from its submitter.
pub(crate) fn scoped() -> Option<Arc<SimContext>> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn global() -> &'static Arc<SimContext> {
    static GLOBAL: OnceLock<Arc<SimContext>> = OnceLock::new();
    GLOBAL.get_or_init(|| SimContext::new(SimConfig::from_env()))
}

impl SimContext {
    /// A context with cold caches and zero counters. Caps and the watchdog
    /// budget are clamped to their minimum of 1.
    pub fn new(mut config: SimConfig) -> Arc<Self> {
        config.memo_cap = config.memo_cap.max(1);
        config.disk_cap = config.disk_cap.max(1);
        config.watchdog_cycles = config.watchdog_cycles.map(|b| b.max(1));
        Arc::new(SimContext {
            faults: FaultSchedule::new(config.faults),
            net_faults: FaultSchedule::new(config.net_faults),
            config,
            cache: Mutex::default(),
            disk_published: AtomicU64::new(0),
            metrics: Metrics::default(),
        })
    }

    /// The process's default context, built from [`SimConfig::from_env`]
    /// when first used.
    pub fn global() -> Arc<Self> {
        Arc::clone(global())
    }

    /// The context launches on this thread run in: the innermost
    /// [`SimContext::enter`], else [`SimContext::global`].
    pub fn current() -> Arc<Self> {
        scoped().unwrap_or_else(Self::global)
    }

    /// Runs `f` on [`SimContext::current`] without taking a reference
    /// count: what a per-frame or per-decode fault poll uses. `f` must not
    /// enter a context.
    pub fn with_current<R>(f: impl FnOnce(&SimContext) -> R) -> R {
        CURRENT.with(|c| match &*c.borrow() {
            Some(ctx) => f(ctx),
            None => f(global()),
        })
    }

    /// Runs `f` with this context as the calling thread's current one,
    /// restoring the previous one afterwards (also when `f` panics). Pool
    /// tasks submitted inside `f` inherit it; threads spawned inside do not.
    pub fn enter<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _restore = scope(Some(Arc::clone(self)));
        f()
    }

    /// The configuration this context was built with (after clamping).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The schedule of this context's simulator fault sites, armed from
    /// [`SimConfig::faults`]; re-arming it in place resets its call
    /// indices.
    pub fn faults(&self) -> &FaultSchedule<FaultConfig> {
        &self.faults
    }

    /// The schedule of this context's `g80-serve` wire sites, armed from
    /// [`SimConfig::net_faults`].
    pub fn net_faults(&self) -> &FaultSchedule<NetFaultConfig> {
        &self.net_faults
    }

    /// The per-SM cycle budget as the engines compare it (`u64::MAX` = off).
    pub(crate) fn watchdog_budget(&self) -> u64 {
        self.config.watchdog_cycles.unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::pool::run_tasks;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn from(vars: &[(&str, &str)]) -> SimConfig {
        SimConfig::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn from_vars_reads_every_variable_and_nothing_else() {
        assert_eq!(from(&[]), SimConfig::default());
        assert_eq!(
            from(&[("G80_SIM_ENGINE", "reference")]),
            SimConfig::default()
        );
        let all = from(&[
            ("G80_SIM_MEMO", "off"),
            ("G80_SIM_DEDUP", "0"),
            ("G80_SIM_MEMO_CAP", "7"),
            ("G80_SIM_DISK_CACHE", " /tmp/g80 "),
            ("G80_SIM_DISK_CACHE_CAP", " 4096 "),
            ("G80_SIM_WATCHDOG_CYCLES", " 99 "),
            ("G80_SIM_FAULTS", "1:0.02:typed"),
            ("G80_SERVE_NET_FAULTS", " 8:0.01 "),
        ]);
        assert_eq!(
            all,
            SimConfig {
                memo: false,
                dedup: false,
                memo_cap: 7,
                disk_dir: Some(PathBuf::from("/tmp/g80")),
                disk_cap: 4096,
                watchdog_cycles: Some(99),
                faults: Some(FaultConfig::new(1, 0.02, Some(FaultKind::Typed))),
                net_faults: Some(NetFaultConfig::new(8, 0.01)),
                engine: Engine::Predecoded,
            }
        );
        let ctx = SimContext::new(all);
        assert!(ctx.faults().is_armed() && ctx.net_faults().is_armed());
        let default = SimContext::new(SimConfig::default());
        assert!(!default.faults().is_armed() && !default.net_faults().is_armed());
    }

    #[test]
    fn from_vars_spellings_fallbacks_and_clamps() {
        for off in ["off", "0", "false"] {
            assert!(!from(&[("G80_SIM_MEMO", off)]).memo, "{off}");
            assert!(!from(&[("G80_SIM_DEDUP", off)]).dedup, "{off}");
        }
        for on in ["on", "1", "true", "", "OFF", " off"] {
            assert!(from(&[("G80_SIM_MEMO", on)]).memo, "{on:?}");
            assert!(from(&[("G80_SIM_DEDUP", on)]).dedup, "{on:?}");
        }
        // Unparsable numbers keep the default; surrounding blanks are trimmed.
        for bad in ["", "   ", "many", "-1", "1.5"] {
            let cfg = from(&[
                ("G80_SIM_MEMO_CAP", bad),
                ("G80_SIM_DISK_CACHE_CAP", bad),
                ("G80_SIM_WATCHDOG_CYCLES", bad),
                ("G80_SIM_FAULTS", bad),
                ("G80_SERVE_NET_FAULTS", bad),
            ]);
            let parsed = (cfg.memo_cap, cfg.disk_cap, cfg.watchdog_cycles);
            assert_eq!(parsed, (128, 1 << 30, None), "{bad:?}");
            assert_eq!((cfg.faults, cfg.net_faults), (None, None), "{bad:?}");
        }
        assert_eq!(from(&[("G80_SIM_MEMO_CAP", " 7")]).memo_cap, 7);
        for unset in ["", "   ", "\t"] {
            assert_eq!(from(&[("G80_SIM_DISK_CACHE", unset)]).disk_dir, None);
        }
        // Zero caps and a zero budget clamp to 1 when the context is built.
        let zeros = SimContext::new(from(&[
            ("G80_SIM_MEMO_CAP", "0"),
            ("G80_SIM_DISK_CACHE_CAP", "0"),
            ("G80_SIM_WATCHDOG_CYCLES", "0"),
        ]));
        let cfg = zeros.config();
        assert_eq!(
            (cfg.memo_cap, cfg.disk_cap, cfg.watchdog_cycles),
            (1, 1, Some(1))
        );
        assert_eq!(zeros.watchdog_budget(), 1);
        assert_eq!(SimContext::new(from(&[])).watchdog_budget(), u64::MAX);
    }

    fn is_current(ctx: &Arc<SimContext>) -> bool {
        Arc::ptr_eq(&SimContext::current(), ctx)
    }

    #[test]
    fn enter_nests_and_restores_also_on_panic() {
        let (outer, inner) = (
            SimContext::new(SimConfig::default()),
            SimContext::new(SimConfig::default()),
        );
        assert!(is_current(&SimContext::global()));
        outer.enter(|| {
            assert!(is_current(&outer));
            inner.enter(|| assert!(is_current(&inner)));
            assert!(is_current(&outer));
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                inner.enter(|| {
                    assert!(is_current(&inner));
                    panic!("inside enter");
                })
            }));
            assert!(unwound.is_err());
            assert!(is_current(&outer));
        });
        assert!(is_current(&SimContext::global()));
    }

    #[test]
    fn pool_tasks_inherit_the_entered_context_two_levels_deep() {
        let ctx = SimContext::new(SimConfig::default());
        let seen = ctx.enter(|| {
            run_tasks(
                (0..8)
                    .map(|_| || run_tasks((0..8).map(|_| || is_current(&ctx)).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            )
        });
        assert!(seen.iter().flatten().all(|&inherited| inherited));
        // Whichever threads ran those tasks are back on the global context.
        let global = SimContext::global();
        let after = run_tasks((0..64).map(|_| || is_current(&global)).collect::<Vec<_>>());
        assert!(after.iter().all(|&restored| restored));
    }

    #[test]
    fn spawned_threads_do_not_inherit() {
        let ctx = SimContext::new(SimConfig::default());
        ctx.enter(|| {
            std::thread::scope(|s| {
                let spawned = s.spawn(|| (is_current(&ctx), ctx.enter(|| is_current(&ctx))));
                assert_eq!(spawned.join().unwrap(), (false, true));
            });
        });
    }
}
