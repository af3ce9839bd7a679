//! The hardening pieces every layer shares.
//!
//! * [`WatchdogAbort`] — [`crate::SimConfig::watchdog_cycles`] bounds the
//!   simulated cycles of one SM's scheduler loop; a runaway kernel aborts
//!   with [`crate::LaunchError::Watchdog`] instead of hanging the pool.
//! * [`lock_recover`] / [`wait_recover`] — poison-recovering lock helpers.
//!   Every protected structure in [`crate::pool`] and [`crate::memo`] is
//!   kept consistent at panic boundaries (no critical section runs kernel
//!   code, and tasks are individually caught), so recovering from a
//!   poisoned mutex is always sound and one dead thread cannot wedge the
//!   process.
//! * [`payload_str`] — the message of a caught unwind, for the typed
//!   errors the launch, pool and serve boundaries report.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

// ---- watchdog --------------------------------------------------------------

/// Payload raised when an SM exceeds the watchdog cycle budget; classified
/// into [`crate::LaunchError::Watchdog`] at the launch boundary.
#[derive(Debug)]
pub(crate) struct WatchdogAbort {
    /// Kernel name.
    pub kernel: String,
    /// The budget that was exceeded ([`crate::SimConfig::watchdog_cycles`]).
    pub budget: u64,
    /// Simulated cycles reached on the aborting SM (partial progress).
    pub cycles: u64,
    /// Warp instructions issued on the aborting SM before the abort.
    pub warp_instructions: u64,
}

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

// ---- payloads --------------------------------------------------------------

/// Extracts the human-readable message of an unwind payload, if it has one.
pub fn payload_str(p: &(dyn std::any::Any + Send)) -> Option<&str> {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        Some(s)
    } else {
        p.downcast_ref::<String>().map(String::as_str)
    }
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
    fn payload_classification() {
        let owned: Box<dyn std::any::Any + Send> = Box::new("genuine bug".to_string());
        assert_eq!(payload_str(owned.as_ref()), Some("genuine bug"));
        let borrowed: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(payload_str(borrowed.as_ref()), Some("static"));
        let other: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(payload_str(other.as_ref()), None);
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
