//! Deterministic fault injection and the degradation toggles that harden
//! the process-wide layers against it.
//!
//! The simulator now carries three pieces of shared mutable process state —
//! the work-stealing pool, the launch memo cache, and the predecode
//! registry — where a single panic or corrupted entry used to poison every
//! subsequent launch. This module makes the failure modes *reproducible*:
//! `G80_SIM_FAULTS=<seed>:<rate>[:typed|:panic|:mixed]` arms a process-wide
//! injector that, at each named [`Site`], deterministically decides (pure
//! function of seed, site, and the site's call index) whether to raise a
//! fault. `typed` faults unwind with an [`InjectedFault`] payload that the
//! hardened layers classify into typed errors; `panic` faults unwind with a
//! plain string payload, indistinguishable from a real bug, to prove the
//! same layers survive arbitrary panics. `mixed` (the default) flips a
//! deterministic coin per event.
//!
//! The harness is **off by default and zero-cost when disabled**: every
//! site guards its work behind [`armed`], a single relaxed atomic load.
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

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

// ---- sites -----------------------------------------------------------------

/// A named injection point. Each site is polled on that subsystem's normal
/// control path; the decision to fire is a pure function of (seed, site,
/// per-site call index), so a given seed replays the same fault schedule.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Site {
    /// `Device::alloc` / `Device::try_alloc` (crates/cuda).
    DeviceAlloc = 0,
    /// `Device::copy_to_device` / `copy_from_device` / `set_const`.
    DeviceCopy = 1,
    /// `DecodedKernel::new` (crates/isa, via the installed probe).
    Decode = 2,
    /// The SM scheduler's block retire/refill boundary (both engines).
    SmStep = 3,
    /// `memo_record`: the store path of the launch memo cache.
    MemoStore = 4,
    /// `memo_lookup`: the load path of the launch memo cache.
    MemoLoad = 5,
    /// Pool worker threads, polled between stolen tasks.
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

/// How an injected fault surfaces.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Unwind with an [`InjectedFault`] payload (classified into typed
    /// errors by the hardened layers).
    Typed,
    /// Unwind with a plain string payload, like a real bug would.
    Panic,
}

/// A parsed/programmatic fault configuration.
#[derive(Copy, Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the deterministic fire/no-fire decision.
    pub seed: u64,
    /// Per-poll fire probability in `[0, 1]`.
    pub rate: f64,
    /// `None` = mixed: a deterministic coin picks the kind per event.
    pub kind: Option<FaultKind>,
    /// Bitmask of enabled sites ([`FaultConfig::all_sites`] = every site).
    pub sites: u32,
}

impl FaultConfig {
    /// A config with every site enabled.
    pub fn new(seed: u64, rate: f64, kind: Option<FaultKind>) -> Self {
        FaultConfig {
            seed,
            rate,
            kind,
            sites: Self::all_sites(),
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
}

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

// ---- state -----------------------------------------------------------------

// 0 = unresolved (read G80_SIM_FAULTS on first use), 1 = disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
static RATE_BITS: AtomicU64 = AtomicU64::new(0);
// 0 = mixed, 1 = typed, 2 = panic.
static KIND: AtomicU8 = AtomicU8::new(0);
static SITES: AtomicU32 = AtomicU32::new(0);
/// Per-site poll counters: the call index feeding the decision hash.
static CALLS: [AtomicU64; 9] = [const { AtomicU64::new(0) }; 9];
/// Per-site counters of faults actually raised.
static RAISED: [AtomicU64; 9] = [const { AtomicU64::new(0) }; 9];
/// Absorb-and-retry mode (default on): the launch/device layers retry
/// injected-class failures after restoring memory, so an armed suite still
/// passes. Soak tests turn it off to observe the per-launch `Err`s.
static RETRY_OFF: AtomicBool = AtomicBool::new(false);
/// Worker threads that died to an injected fault and were respawned.
static WORKER_DEATHS: AtomicU64 = AtomicU64::new(0);

/// True when fault injection is armed. The only cost a disabled site pays.
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => resolve_env(),
        2 => true,
        _ => false,
    }
}

#[cold]
fn resolve_env() -> bool {
    let cfg = std::env::var("G80_SIM_FAULTS").ok().and_then(|v| parse(&v));
    // Racing first reads parse the same env and resolve identically.
    store(cfg);
    cfg.is_some()
}

fn parse(v: &str) -> Option<FaultConfig> {
    let mut it = v.trim().split(':');
    let seed = it.next()?.parse::<u64>().ok()?;
    let rate = it.next()?.parse::<f64>().ok()?;
    if !(0.0..=1.0).contains(&rate) {
        return None;
    }
    let kind = match it.next() {
        None | Some("mixed") => None,
        Some("typed") => Some(FaultKind::Typed),
        Some("panic") => Some(FaultKind::Panic),
        Some(_) => return None,
    };
    Some(FaultConfig::new(seed, rate, kind))
}

fn store(cfg: Option<FaultConfig>) {
    match cfg {
        Some(c) => {
            SEED.store(c.seed, Ordering::SeqCst);
            RATE_BITS.store(c.rate.to_bits(), Ordering::SeqCst);
            KIND.store(
                match c.kind {
                    None => 0,
                    Some(FaultKind::Typed) => 1,
                    Some(FaultKind::Panic) => 2,
                },
                Ordering::SeqCst,
            );
            SITES.store(c.sites, Ordering::SeqCst);
            install_decode_probe();
            STATE.store(2, Ordering::SeqCst);
        }
        None => STATE.store(1, Ordering::SeqCst),
    }
}

/// Arms (`Some`) or disarms (`None`) fault injection programmatically,
/// overriding `G80_SIM_FAULTS`. Process-wide; tests serialize around it.
pub fn set_faults(cfg: Option<FaultConfig>) {
    store(cfg);
}

/// The active configuration, if armed.
pub fn config() -> Option<FaultConfig> {
    if !armed() {
        return None;
    }
    Some(FaultConfig {
        seed: SEED.load(Ordering::SeqCst),
        rate: f64::from_bits(RATE_BITS.load(Ordering::SeqCst)),
        kind: match KIND.load(Ordering::SeqCst) {
            1 => Some(FaultKind::Typed),
            2 => Some(FaultKind::Panic),
            _ => None,
        },
        sites: SITES.load(Ordering::SeqCst),
    })
}

/// Enables/disables absorb-and-retry of injected-class failures in the
/// launch and device layers (default enabled).
pub fn set_retry(on: bool) {
    RETRY_OFF.store(!on, Ordering::SeqCst);
}

/// Whether injected-class failures are absorbed by retrying.
pub fn retry() -> bool {
    !RETRY_OFF.load(Ordering::SeqCst)
}

/// Faults raised so far at `site`.
pub fn raised(site: Site) -> u64 {
    RAISED[site as usize].load(Ordering::Relaxed)
}

/// Total faults raised across all sites.
pub fn total_raised() -> u64 {
    RAISED.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// Pool workers killed by injected faults and respawned.
pub fn worker_deaths() -> u64 {
    WORKER_DEATHS.load(Ordering::Relaxed)
}

pub(crate) fn count_worker_death() {
    WORKER_DEATHS.fetch_add(1, Ordering::Relaxed);
}

// ---- the decision ----------------------------------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decides whether the `index`-th poll of `site` fires, and with which
/// kind. Pure in (seed, site, index).
fn decide(site: Site) -> Option<FaultKind> {
    if SITES.load(Ordering::Relaxed) & site.bit() == 0 {
        return None;
    }
    let index = CALLS[site as usize].fetch_add(1, Ordering::Relaxed);
    let seed = SEED.load(Ordering::Relaxed);
    let h = splitmix64(seed ^ splitmix64(((site as u64) << 56) ^ index));
    let rate = f64::from_bits(RATE_BITS.load(Ordering::Relaxed));
    if ((h >> 11) as f64) / ((1u64 << 53) as f64) >= rate {
        return None;
    }
    RAISED[site as usize].fetch_add(1, Ordering::Relaxed);
    Some(match KIND.load(Ordering::Relaxed) {
        1 => FaultKind::Typed,
        2 => FaultKind::Panic,
        _ if h & (1 << 7) == 0 => FaultKind::Typed,
        _ => FaultKind::Panic,
    })
}

fn raise(site: Site, kind: FaultKind) -> ! {
    match kind {
        FaultKind::Typed => std::panic::panic_any(InjectedFault { site: site.name() }),
        FaultKind::Panic => panic!("{PANIC_MARKER}{}", site.name()),
    }
}

/// Polls `site`; unwinds with an injected payload if it fires. Sites whose
/// enclosing layer catches unwinds (SM step, decode, pool workers) use this
/// directly.
#[inline]
pub fn poll(site: Site) {
    if !armed() {
        return;
    }
    if let Some(kind) = decide(site) {
        raise(site, kind);
    }
}

/// Polls `site` for the device layer: a typed fault comes back as a value
/// (for `Result`-returning APIs), a panic-kind fault unwinds.
#[inline]
pub fn poll_typed(site: Site) -> Option<InjectedFault> {
    if !armed() {
        return None;
    }
    match decide(site)? {
        FaultKind::Typed => Some(InjectedFault { site: site.name() }),
        FaultKind::Panic => raise(site, FaultKind::Panic),
    }
}

/// Polls a memo-cache site: a typed fault reports `true` ("tamper with the
/// entry"), exercising the checksum/eviction path without unwinding; a
/// panic-kind fault unwinds (caught at the memo boundary, which degrades
/// the probe to a miss).
#[inline]
pub fn tamper(site: Site) -> bool {
    if !armed() {
        return false;
    }
    match decide(site) {
        None => false,
        Some(FaultKind::Typed) => true,
        Some(FaultKind::Panic) => raise(site, FaultKind::Panic),
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

fn install_decode_probe() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        fn probe() {
            poll(Site::Decode);
        }
        g80_isa::decode::install_decode_probe(probe);
    });
}

// ---- watchdog --------------------------------------------------------------

/// Aborts the current SM simulation with a [`WatchdogAbort`] payload.
#[cold]
pub(crate) fn watchdog_abort(kernel: &str, budget: u64, cycles: u64, warp_instructions: u64) -> ! {
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
        let c = parse("7:0.25").unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.rate, 0.25);
        assert_eq!(c.kind, None);
        assert_eq!(parse("1:0.5:typed").unwrap().kind, Some(FaultKind::Typed));
        assert_eq!(parse("1:0.5:panic").unwrap().kind, Some(FaultKind::Panic));
        assert_eq!(parse("1:0.5:mixed").unwrap().kind, None);
        assert!(parse("").is_none());
        assert!(parse("1").is_none());
        assert!(parse("1:2.0").is_none());
        assert!(parse("1:-0.1").is_none());
        assert!(parse("1:0.5:bogus").is_none());
    }

    #[test]
    fn decision_is_deterministic_in_seed_and_index() {
        // Pure recomputation of the decide() hash for two seeds.
        let fires = |seed: u64, site: Site, index: u64, rate: f64| {
            let h = splitmix64(seed ^ splitmix64(((site as u64) << 56) ^ index));
            ((h >> 11) as f64) / ((1u64 << 53) as f64) < rate
        };
        let a: Vec<bool> = (0..256).map(|i| fires(1, Site::SmStep, i, 0.1)).collect();
        let b: Vec<bool> = (0..256).map(|i| fires(1, Site::SmStep, i, 0.1)).collect();
        assert_eq!(a, b);
        let c: Vec<bool> = (0..256).map(|i| fires(2, Site::SmStep, i, 0.1)).collect();
        assert_ne!(a, c, "different seeds should give different schedules");
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
