//! # g80-oracle — the executable spec of `g80-sim`'s timing engine
//!
//! The frozen instruction-at-a-time engine (`src/reference.rs`), run by a
//! [`SimContext`] built with [`context`]. Tests and `bench_sim`'s engine
//! rows compare the product engine against it; no product crate depends on it.

#![warn(clippy::too_many_lines)]

mod reference;

use g80_sim::{SimConfig, SimContext};
use std::sync::Arc;

pub use reference::run_sm_reference as run_sm;

/// A context whose launches simulate every SM on the oracle ([`run_sm`])
/// instead of the predecoded engine. Block-class dedup is off in it; its
/// memo entries are keyed apart from the product's.
pub fn context(config: SimConfig) -> Arc<SimContext> {
    SimContext::with_sm_engine(config, run_sm)
}
