//! # g80-bench — regenerating every table and figure of the paper
//!
//! One module per experiment family; the `repro` binary exposes them as
//! subcommands. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

#![warn(clippy::too_many_lines)]

pub mod ablations;
pub mod arch_study;
pub mod fidelity;
pub mod matmul_study;
pub mod regcap_study;
pub mod suite;
pub mod table1;
