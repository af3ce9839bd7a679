//! Deterministic fault injection, and the degradation helpers that harden
//! every layer against it.
//!
//! A [`FaultSchedule`] is one seeded machine: armed with a seed and a
//! per-poll rate, it decides whether the `n`-th poll of a site fires — a pure
//! function of (seed, site, `n`) through [`splitmix64`] — and hands the draw
//! back. Every [`crate::SimContext`] owns two, built from its
//! [`crate::SimConfig`]: one over the nine simulator [`Site`]s
//! ([`crate::SimContext::faults`], `G80_SIM_FAULTS`) and one over
//! `g80-serve`'s four wire sites ([`crate::SimContext::net_faults`],
//! `G80_SERVE_NET_FAULTS`). Both variables read
//! `<seed>:<rate>[:<kind>]`. A poll reads the schedule of the context it
//! runs in, so contexts armed differently run side by side.
//!
//! What a fire means is the family's business. Here, at a simulator site,
//! `typed` unwinds with an [`InjectedFault`] payload that the hardened
//! layers classify into typed errors; `panic` unwinds with a plain string
//! payload, indistinguishable from a real bug, to prove the same layers
//! survive arbitrary panics; `mixed` (the default) flips a deterministic
//! coin per event. `g80_serve::netfault` maps a wire draw to a transport
//! fault. Disarmed, a poll is one relaxed load.
//!
//! Two hardening pieces also live here because every layer shares them:
//!
//! * [`WatchdogAbort`] — [`crate::SimConfig::watchdog_cycles`] bounds the
//!   simulated cycles of one SM's scheduler loop; a runaway kernel aborts
//!   with [`crate::LaunchError::Watchdog`] instead of hanging the pool.
//! * [`lock_recover`] / [`wait_recover`] — poison-recovering lock helpers.
//!   Every protected structure in [`crate::pool`] and [`crate::memo`] is
//!   kept consistent at panic boundaries (panics are injected *outside*
//!   critical sections and tasks are individually caught), so recovering
//!   from a poisoned mutex is always sound and one dead thread can no
//!   longer wedge the process.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

// ---- sites -----------------------------------------------------------------

/// A named injection point of the simulator family. Each site is polled on
/// that subsystem's normal control path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Site {
    /// `Device::alloc` / `Device::try_alloc` (crates/cuda).
    DeviceAlloc = 0,
    /// `Device::copy_to_device` / `copy_from_device` / `set_const`.
    DeviceCopy = 1,
    /// Predecode of a kernel the registry has not seen
    /// ([`crate::kernel_info`]), on the launching thread.
    Decode = 2,
    /// Once per SM simulation of a launch (both engines).
    SmStep = 3,
    /// `memo_record`: the store path of the launch memo cache.
    MemoStore = 4,
    /// `memo_lookup`: the load path of the launch memo cache.
    MemoLoad = 5,
    /// Pool worker threads, polled between stolen tasks in the context of
    /// the scope about to be stolen from.
    PoolWorker = 6,
    /// The persistent disk tier of the launch memo ([`crate::disk`]):
    /// polled once per entry load and once per entry publish. A typed fault
    /// tampers with the entry (corrupt on-disk checksum / treat the loaded
    /// entry as corrupt), exercising the evict-and-resimulate path.
    DiskCache = 7,
    /// `g80-serve` request deserialization: polled once per decoded frame.
    /// A typed fault tampers with the frame (treat it as corrupt),
    /// exercising the typed decode-error response path — the connection
    /// must survive, never drop.
    ServeDecode = 8,
}

impl Site {
    /// Every site, for soak tests and docs.
    pub const ALL: [Site; 9] = [
        Site::DeviceAlloc,
        Site::DeviceCopy,
        Site::Decode,
        Site::SmStep,
        Site::MemoStore,
        Site::MemoLoad,
        Site::PoolWorker,
        Site::DiskCache,
        Site::ServeDecode,
    ];

    /// Stable name, used in payloads and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Site::DeviceAlloc => "device.alloc",
            Site::DeviceCopy => "device.copy",
            Site::Decode => "isa.decode",
            Site::SmStep => "sm.step",
            Site::MemoStore => "memo.store",
            Site::MemoLoad => "memo.load",
            Site::PoolWorker => "pool.worker",
            Site::DiskCache => "memo.disk",
            Site::ServeDecode => "serve.decode",
        }
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

impl From<Site> for usize {
    fn from(site: Site) -> usize {
        site as usize
    }
}

// ---- configuration ---------------------------------------------------------

/// How an injected simulator fault surfaces.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Unwind with an [`InjectedFault`] payload (classified into typed
    /// errors by the hardened layers).
    Typed,
    /// Unwind with a plain string payload, like a real bug would.
    Panic,
}

/// Which transport-fault family a wire schedule draws from; the
/// `g80-serve` crate maps each draw to a concrete fault.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum NetFaultKind {
    /// Every kind, chosen per event by hash bits (the default).
    All,
    Disconnect,
    Truncate,
    Corrupt,
    Split,
    Stall,
}

/// A per-poll fire probability in `[0, 1]`, held as its bit pattern so
/// fault configs — and the [`crate::SimConfig`] holding them — compare
/// with `Eq`.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct Rate(u64);

impl Rate {
    pub fn new(p: f64) -> Rate {
        Rate(p.to_bits())
    }

    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl std::fmt::Debug for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// How a context's simulator sites are armed (`G80_SIM_FAULTS=<seed>:
/// <rate>[:typed|:panic|:mixed]`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the fire/no-fire decision.
    pub seed: u64,
    pub rate: Rate,
    /// `None` = mixed: a deterministic coin picks the kind per event.
    pub kind: Option<FaultKind>,
    /// Bitmask of enabled sites ([`FaultConfig::all_sites`] = every site).
    pub sites: u32,
    /// Absorb-and-retry (on unless a test turns it off): the launch and
    /// device layers retry injected-class failures after restoring memory,
    /// so an armed suite still passes. Soak tests turn it off to observe
    /// the per-launch `Err`s.
    pub absorb: bool,
}

impl FaultConfig {
    /// Every site enabled, absorb on.
    pub fn new(seed: u64, rate: f64, kind: Option<FaultKind>) -> Self {
        FaultConfig {
            seed,
            rate: Rate::new(rate),
            kind,
            sites: Self::all_sites(),
            absorb: true,
        }
    }

    /// Site mask covering all sites.
    pub fn all_sites() -> u32 {
        Site::ALL.iter().fold(0, |m, s| m | s.bit())
    }

    /// Restricts this config to a single site (targeted tests).
    pub fn only(mut self, site: Site) -> Self {
        self.sites = site.bit();
        self
    }

    /// Parses `G80_SIM_FAULTS`; `None` when it does not parse.
    pub(crate) fn parse(v: &str) -> Option<Self> {
        let (seed, rate, kind) = parse_spec(v, &["mixed", "typed", "panic"])?;
        let kind = [None, Some(FaultKind::Typed), Some(FaultKind::Panic)][kind];
        Some(FaultConfig::new(seed, rate, kind))
    }
}

/// How a context's wire sites are armed (`G80_SERVE_NET_FAULTS=<seed>:
/// <rate>[:all|:disconnect|:truncate|:corrupt|:split|:stall]`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NetFaultConfig {
    pub seed: u64,
    /// Per-frame-operation fault probability.
    pub rate: Rate,
    pub kind: NetFaultKind,
}

impl NetFaultConfig {
    pub fn new(seed: u64, rate: f64) -> Self {
        Self::only(seed, rate, NetFaultKind::All)
    }

    pub fn only(seed: u64, rate: f64, kind: NetFaultKind) -> Self {
        NetFaultConfig {
            seed,
            rate: Rate::new(rate),
            kind,
        }
    }

    /// Parses `G80_SERVE_NET_FAULTS`; `None` when it does not parse.
    pub(crate) fn parse(v: &str) -> Option<Self> {
        use NetFaultKind::*;
        let names = ["all", "disconnect", "truncate", "corrupt", "split", "stall"];
        let (seed, rate, kind) = parse_spec(v, &names)?;
        let kind = [All, Disconnect, Truncate, Corrupt, Split, Stall][kind];
        Some(Self::only(seed, rate, kind))
    }
}

/// The grammar of both fault variables: `<seed>:<rate>[:<kind>]`, the rate
/// in `[0, 1]`, the kind one of `kinds` (`kinds[0]` when omitted), nothing
/// after it. Returns the kind's index.
fn parse_spec(v: &str, kinds: &[&str]) -> Option<(u64, f64, usize)> {
    let mut it = v.trim().split(':');
    let seed = it.next()?.parse().ok()?;
    let rate: f64 = it.next()?.parse().ok()?;
    let kind = match it.next() {
        None => 0,
        Some(name) => kinds.iter().position(|&k| k == name)?,
    };
    ((0.0..=1.0).contains(&rate) && it.next().is_none()).then_some((seed, rate, kind))
}

// ---- the schedule ----------------------------------------------------------

/// The fire decision's mixer; also seeds the serve client's backoff jitter.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The most sites a family has ([`Site::ALL`]).
const MAX_SITES: usize = 9;

/// One seeded fault schedule over a family of sites, armed with a config
/// `C` ([`FaultConfig`] or [`NetFaultConfig`]). Per site it counts polls —
/// the call index feeding the draw — and fires.
pub struct FaultSchedule<C> {
    armed: AtomicBool,
    config: RwLock<Option<C>>,
    calls: [AtomicU64; MAX_SITES],
    raised: [AtomicU64; MAX_SITES],
}

impl<C: Copy> FaultSchedule<C> {
    pub fn new(config: Option<C>) -> Self {
        let schedule = FaultSchedule {
            armed: AtomicBool::new(false),
            config: RwLock::new(None),
            calls: Default::default(),
            raised: Default::default(),
        };
        schedule.arm(config);
        schedule
    }

    /// Arms the schedule with `config` (`None` disarms) and resets every
    /// call index and fire count, so arming the same config again replays
    /// the same schedule.
    pub fn arm(&self, config: Option<C>) {
        self.armed.store(false, Ordering::SeqCst);
        *self.config.write().unwrap_or_else(PoisonError::into_inner) = config;
        for counter in self.calls.iter().chain(&self.raised) {
            counter.store(0, Ordering::SeqCst);
        }
        self.armed.store(config.is_some(), Ordering::SeqCst);
    }

    /// The only cost a disarmed site pays. Relaxed: the flag publishes
    /// nothing — an armed poll reads the config under its lock, and one that
    /// races a re-arm sees the old or the new schedule.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    pub fn config(&self) -> Option<C> {
        *self.config.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Polls of `site` that fired since the schedule was last armed.
    pub fn raised(&self, site: impl Into<usize>) -> u64 {
        self.raised[site.into()].load(Ordering::Relaxed)
    }

    /// Counts this poll of `site` and returns its draw if it fires at
    /// `rate` — a pure function of (`seed`, site, call index). Further
    /// hash bits of the draw choose what the fire does.
    pub fn draw(&self, site: impl Into<usize>, seed: u64, rate: Rate) -> Option<u64> {
        let site = site.into();
        let index = self.calls[site].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(seed ^ splitmix64(((site as u64) << 56) ^ index));
        if ((h >> 11) as f64) / ((1u64 << 53) as f64) >= rate.get() {
            return None;
        }
        self.raised[site].fetch_add(1, Ordering::Relaxed);
        Some(h)
    }
}

impl FaultSchedule<FaultConfig> {
    /// Whether this poll of `site` fires, and with which kind.
    fn decide(&self, site: Site) -> Option<FaultKind> {
        let cfg = self.config()?;
        if cfg.sites & site.bit() == 0 {
            return None;
        }
        let h = self.draw(site, cfg.seed, cfg.rate)?;
        Some(match cfg.kind {
            Some(kind) => kind,
            None if h & (1 << 7) == 0 => FaultKind::Typed,
            None => FaultKind::Panic,
        })
    }

    /// Polls `site`; unwinds with an injected payload if it fires. Sites
    /// whose enclosing layer catches unwinds (SM step, decode, pool
    /// workers) use this directly.
    #[inline]
    pub fn poll(&self, site: Site) {
        if !self.is_armed() {
            return;
        }
        if let Some(kind) = self.decide(site) {
            raise(site, kind);
        }
    }

    /// Polls `site` for the device layer: a typed fault comes back as a
    /// value (for `Result`-returning APIs), a panic-kind fault unwinds.
    #[inline]
    pub fn poll_typed(&self, site: Site) -> Option<InjectedFault> {
        if !self.is_armed() {
            return None;
        }
        match self.decide(site)? {
            FaultKind::Typed => Some(InjectedFault { site: site.name() }),
            FaultKind::Panic => raise(site, FaultKind::Panic),
        }
    }

    /// Polls a cache site: a typed fault reports `true` ("tamper with the
    /// entry"), exercising the checksum/eviction path without unwinding; a
    /// panic-kind fault unwinds (caught at the memo boundary, which
    /// degrades the probe to a miss).
    #[inline]
    pub fn tamper(&self, site: Site) -> bool {
        if !self.is_armed() {
            return false;
        }
        match self.decide(site) {
            None => false,
            Some(FaultKind::Typed) => true,
            Some(FaultKind::Panic) => raise(site, FaultKind::Panic),
        }
    }

    /// True when armed with absorb-and-retry: the launch and device layers
    /// then retry injected-class failures.
    pub fn absorbs(&self) -> bool {
        self.is_armed() && self.config().is_some_and(|c| c.absorb)
    }
}

// ---- payloads --------------------------------------------------------------

/// Payload carried by a `typed`-kind injected fault. Hardened layers
/// downcast unwind payloads to this type to classify the failure.
#[derive(Debug)]
pub struct InjectedFault {
    /// [`Site::name`] of the firing site.
    pub site: &'static str,
}

/// Marker prefix of `panic`-kind injected payloads; the retry layer uses it
/// to tell absorbable injected panics from genuine bugs.
pub const PANIC_MARKER: &str = "injected panic at ";

/// Payload raised when an SM exceeds the watchdog cycle budget; classified
/// into [`crate::LaunchError::Watchdog`] at the launch boundary.
#[derive(Debug)]
pub struct WatchdogAbort {
    /// Kernel name.
    pub kernel: String,
    /// The budget that was exceeded ([`crate::SimConfig::watchdog_cycles`]).
    pub budget: u64,
    /// Simulated cycles reached on the aborting SM (partial progress).
    pub cycles: u64,
    /// Warp instructions issued on the aborting SM before the abort.
    pub warp_instructions: u64,
}

fn raise(site: Site, kind: FaultKind) -> ! {
    match kind {
        FaultKind::Typed => std::panic::panic_any(InjectedFault { site: site.name() }),
        FaultKind::Panic => panic!("{PANIC_MARKER}{}", site.name()),
    }
}

/// True if an unwind payload came from this injector (either kind) or from
/// the watchdog — i.e. it is classifiable rather than a genuine bug.
pub fn is_injected_payload(p: &(dyn std::any::Any + Send)) -> bool {
    if p.is::<InjectedFault>() {
        return true;
    }
    payload_str(p).is_some_and(|s| s.starts_with(PANIC_MARKER))
}

/// Extracts the human-readable message of an unwind payload, if it has one.
pub fn payload_str(p: &(dyn std::any::Any + Send)) -> Option<&str> {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        Some(s)
    } else {
        p.downcast_ref::<String>().map(String::as_str)
    }
}

// ---- watchdog --------------------------------------------------------------

/// Aborts the current SM simulation with a [`WatchdogAbort`] payload.
#[doc(hidden)]
#[cold]
pub fn watchdog_abort(kernel: &str, budget: u64, cycles: u64, warp_instructions: u64) -> ! {
    std::panic::panic_any(WatchdogAbort {
        kernel: kernel.to_string(),
        budget,
        cycles,
        warp_instructions,
    })
}

// ---- poison-recovering lock helpers ----------------------------------------

/// `Mutex::lock` that shrugs off poisoning. See the module docs for why
/// recovery is sound for every structure that uses this.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait` that shrugs off poisoning (companion of [`lock_recover`]).
pub fn wait_recover<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_rate_and_kind() {
        let c = FaultConfig::parse("7:0.25").unwrap();
        assert_eq!((c.seed, c.rate.get(), c.kind), (7, 0.25, None));
        assert_eq!((c.sites, c.absorb), (FaultConfig::all_sites(), true));
        let sim = |v| FaultConfig::parse(v).map(|c| c.kind);
        assert_eq!(sim("1:0.5:typed"), Some(Some(FaultKind::Typed)));
        assert_eq!(sim("1:0.5:panic"), Some(Some(FaultKind::Panic)));
        assert_eq!(sim("1:0.5:mixed"), Some(None));
        let net = |v| NetFaultConfig::parse(v).map(|c| c.kind);
        let n = NetFaultConfig::parse(" 7:0.25 ").unwrap();
        assert_eq!((n.seed, n.rate.get(), n.kind), (7, 0.25, NetFaultKind::All));
        assert_eq!(net("1:0.5:corrupt"), Some(NetFaultKind::Corrupt));
        assert_eq!(net("1:0.5:stall"), Some(NetFaultKind::Stall));
        assert_eq!(net("1:0.5:all"), Some(NetFaultKind::All));
        // Each variable's kinds are its own; the rest of the grammar is one.
        assert_eq!(sim("1:0.5:stall"), None);
        assert_eq!(net("1:0.5:typed"), None);
        for bad in [
            "",
            "1",
            "nope",
            "1:2.0",
            "1:-0.1",
            "1:1.5",
            "1:0.5:bogus",
            "1:0.5:typed:junk",
            "1:0.5:stall:x",
            "1:0.5:",
        ] {
            assert_eq!(sim(bad), None, "{bad:?}");
            assert_eq!(net(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn decision_is_deterministic_in_seed_and_index() {
        let fires = |seed: u64| -> Vec<bool> {
            let s = FaultSchedule::<FaultConfig>::new(None);
            (0..256)
                .map(|_| s.draw(Site::SmStep, seed, Rate::new(0.1)).is_some())
                .collect()
        };
        let a = fires(1);
        assert_eq!(a, fires(1));
        assert_ne!(
            a,
            fires(2),
            "different seeds should give different schedules"
        );
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 256, "rate 0.1 over 256 polls: {fired}");
    }

    #[test]
    fn payload_classification() {
        let typed: Box<dyn std::any::Any + Send> = Box::new(InjectedFault { site: "sm.step" });
        assert!(is_injected_payload(typed.as_ref()));
        let injected: Box<dyn std::any::Any + Send> =
            Box::new(format!("{PANIC_MARKER}pool.worker"));
        assert!(is_injected_payload(injected.as_ref()));
        let real: Box<dyn std::any::Any + Send> = Box::new("genuine bug".to_string());
        assert!(!is_injected_payload(real.as_ref()));
        assert_eq!(payload_str(real.as_ref()), Some("genuine bug"));
    }

    #[test]
    fn lock_recover_shrugs_off_poison() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 5);
    }
}
