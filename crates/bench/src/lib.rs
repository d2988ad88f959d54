//! # g2pl-bench
//!
//! Benchmark support for the g-2PL reproduction: the `repro` harness and
//! the chaos search.
//!
//! * `cargo run --release --bin repro -- all` regenerates every table and
//!   figure of the paper (see `g2pl_core::experiments` for the mapping).
//! * `cargo run --release --bin repro -- bench` times the engine cells and
//!   figure sweeps; `perfbench/` is the repository benchmark.

pub mod chaos;
pub mod harness;
