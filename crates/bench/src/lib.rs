#![forbid(unsafe_code)]
//! # td-bench — experiment harness and benchmarks
//!
//! One binary per table/figure of the paper (see DESIGN.md §3) plus four
//! self-timed gate benches. Binaries print paper-style rows and write CSV
//! files into `results/`.

pub mod harness;
pub mod sweep;

pub use harness::*;
