//! # g80-apps — the application suite of Ryoo et al. (PPoPP 2008)
//!
//! Self-contained re-implementations of the paper's evaluation workloads,
//! each with a seeded workload generator, a sequential CPU reference, naive
//! and optimized kernel variants, and a [`common::AppReport`] feeding the
//! Table 2 / Table 3 harnesses.

#![warn(clippy::too_many_lines)]

pub mod common;
pub mod cp;
pub mod fdtd;
pub mod fem;
pub mod lbm;
pub mod matmul;
pub mod mrifhd;
pub mod mriq;
pub mod pns;
pub mod primitives;
pub mod rc5;
pub mod rpes;
pub mod sad;
pub mod saxpy;
pub mod tpacf;
