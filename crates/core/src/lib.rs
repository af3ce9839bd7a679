//! # g80-core — the optimization principles of Ryoo et al., codified
//!
//! The paper's primary contribution is a *methodology*: balance per-thread
//! resources against thread count (occupancy), estimate potential throughput
//! from the instruction mix and the memory traffic, name the bottleneck, and
//! apply the matching transformation. This crate packages that methodology:
//!
//! * [`occupancy()`] — the resource-balancing calculator (principles 1 & 2),
//!   reproducing the Section 4.2 register cliff (10 regs ⇒ 3 blocks, 11 ⇒ 2);
//! * [`estimate`] — Section 4's potential-throughput estimation and bottleneck
//!   classification (instruction issue vs memory bandwidth vs latency);
//! * [`advise`] — the principles as an executable checklist over a run's
//!   performance counters;
//! * [`explain()`] — all of the above for one run, derived once: the
//!   [`Diagnosis`] that `repro sec4` and the examples print;
//! * [`sweep`] and [`hill_climb`] — an exhaustive configuration sweep and a greedy
//!   hill-climber that exposes the "local maximums of performance" the
//!   conclusion warns about.

#![warn(clippy::too_many_lines)]
#![warn(unreachable_pub)]

mod advisor;
mod explain;
mod model;
mod occupancy;
mod tuner;

pub use advisor::{advise, Hint, HintKind};
pub use explain::{explain, Diagnosis};
pub use model::{estimate, Bottleneck, PerfEstimate};
pub use occupancy::{kernel_occupancy, occupancy, LimitingResource, Occupancy};
pub use tuner::{hill_climb, sweep, Sample, SweepResult};
