//! # portopt-experiments
//!
//! The evaluation harness reproducing every table and figure of
//! Dubach et al. (MICRO 2009). See DESIGN.md §5 for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured results.
//!
//! The intended flow:
//!
//! 1. build the suite and a [`portopt_core::Dataset`] at some
//!    [`portopt_core::SweepScale`];
//! 2. run [`loo::run_loo`] for the leave-one-out model evaluation;
//! 3. feed both to the [`figures`] generators.
//!
//! The `portopt-bench` crate wraps these as one binary per figure.

#![warn(missing_docs)]

pub mod figures;
pub mod loo;
pub mod stats;

use portopt_ir::Module;
use portopt_mibench::{suite, Workload};

/// Builds the benchmark suite as `(name, module)` pairs plus the module
/// list (for the LOO harness).
pub fn suite_modules(seed: u64) -> (Vec<(String, Module)>, Vec<Module>) {
    let programs = suite(Workload { seed });
    let pairs: Vec<(String, Module)> = programs
        .iter()
        .map(|p| (p.name.to_string(), p.module.clone()))
        .collect();
    let modules = pairs.iter().map(|(_, m)| m.clone()).collect();
    (pairs, modules)
}
