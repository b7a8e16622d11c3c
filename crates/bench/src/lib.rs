//! Benchmark support crate.
//!
//! [`harness`] is the std-only benchmark runner (warmup, repeated
//! timed samples, median/p95 summary, `target/bench/BENCH_<group>.json`
//! output) the benches are built on — the workspace has zero external
//! dependencies, so there is no Criterion here.
//!
//! The one benchmark, `benches/sweep.rs`, times the CR load sweep
//! serial and parallel, the `large_*` topology drains and the
//! `*_sh1`/`*_sh4` shard-scaling pairs. Its results are committed as
//! `BENCH_sweep.json` and gated by `scripts/bench_compare.sh`. Run any
//! experiment at full paper scale with the matching binary in
//! `cr-experiments` (e.g. `cargo run --release --bin fig14ab`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
