//! The PS2Stream benchmark harness behind the root `BENCHMARK.json`.
//!
//! See `crates/benchmark/README.md` for the metric and workload glossary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod e2e;
pub mod hermetic;
pub mod json;
pub mod replay;
pub mod run;
pub mod schedule;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;

/// Where the benchmark writes its artifacts (`crates/benchmark/out/`,
/// ignored by git): trace files and short-lived scratch directories.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}
