//! # PS2Stream
//!
//! A from-scratch Rust reproduction of **"Distributed Publish/Subscribe Query
//! Processing on the Spatio-Textual Data Stream"** (Chen et al., ICDE 2017).
//!
//! PS2Stream is a distributed publish/subscribe system over a stream of
//! spatio-textual objects (geo-tagged tweets): subscribers register
//! Spatio-Textual Subscription (STS) queries — a boolean keyword expression
//! plus a rectangular region — and the system delivers every arriving object
//! to the queries it satisfies, in real time, across a cluster of dispatcher,
//! worker and merger executors.
//!
//! This crate assembles the full system from the subsystem crates:
//!
//! * `ps2stream-partition` — the hybrid workload partitioner (the paper's
//!   primary contribution), the six baseline partitioners and the gridt
//!   dispatcher routing table;
//! * `ps2stream-index` — the GI² grid-inverted worker index;
//! * `ps2stream-balance` — the dynamic load adjustment (Minimum Cost
//!   Migration, local rebalancing);
//! * `ps2stream-workload` — synthetic TWEETS-US / TWEETS-UK corpora and the
//!   Q1/Q2/Q3 query generators;
//! * `ps2stream-stream` — the in-process dataflow substrate standing in for
//!   Apache Storm.
//!
//! ## Quick start
//!
//! ```
//! use ps2stream::prelude::*;
//!
//! // 1. a calibration sample drives the workload partitioner
//! let sample = ps2stream_workload::build_sample(
//!     DatasetSpec::tiny(), QueryClass::Q1, 500, 100, 42,
//! );
//!
//! // 2. build and start the system (4 dispatchers, 8 workers by default)
//! let mut system = Ps2StreamBuilder::new(SystemConfig {
//!     num_dispatchers: 1,
//!     num_workers: 2,
//!     num_mergers: 1,
//!     ..SystemConfig::default()
//! })
//! .with_partitioner(Box::new(HybridPartitioner::default()))
//! .with_calibration_sample(sample.clone())
//! .start();
//!
//! // 3. feed the stream: query subscriptions and objects
//! for q in sample.insertions() {
//!     system.send(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
//! }
//! for o in sample.objects() {
//!     system.send(StreamRecord::Object(o.clone()));
//! }
//!
//! // 4. finish and inspect the report
//! let report = system.finish();
//! assert!(report.throughput_tps > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod config;
pub mod controller;
pub mod dispatcher;
pub mod merger;
pub mod messages;
pub mod metrics;
pub mod supervisor;
pub mod system;
pub mod worker;

pub use config::{AdjustmentConfig, OverloadPolicy, SelectorKind, SystemConfig};
pub use messages::WorkerCheckpoint;
pub use metrics::{FaultReport, PersistenceReport, RunReport, SystemMetrics};
pub use supervisor::{Supervisor, WorkerFaults};
pub use system::{Ps2StreamBuilder, RunningSystem, SystemError};

/// Convenient re-exports for building and driving a PS2Stream deployment.
pub mod prelude {
    pub use crate::config::{AdjustmentConfig, OverloadPolicy, SelectorKind, SystemConfig};
    pub use crate::messages::WorkerCheckpoint;
    pub use crate::metrics::{FaultReport, PersistenceReport, RunReport, SystemMetrics};
    pub use crate::supervisor::{Supervisor, WorkerFaults};
    pub use crate::system::{Ps2StreamBuilder, RunningSystem, SystemError};
    pub use ps2stream_geo::{Point, Rect};
    pub use ps2stream_model::{
        MatchResult, ObjectId, QueryId, QueryUpdate, SpatioTextualObject, StreamRecord, StsQuery,
        SubscriberId, WorkerId,
    };
    pub use ps2stream_partition::{
        FrequencyPartitioner, GridPartitioner, HybridConfig, HybridPartitioner,
        HypergraphPartitioner, KdTreePartitioner, MetricPartitioner, Partitioner, RTreePartitioner,
        RoutingTable, WorkloadSample,
    };
    pub use ps2stream_persist::{FsyncPolicy, PersistentStore, StoreConfig};
    pub use ps2stream_stream::{FaultPlan, RuntimeBackend};
    pub use ps2stream_text::{BooleanExpr, TermId, Tokenizer, Vocabulary};
    pub use ps2stream_workload::{
        build_sample, CorpusGenerator, DatasetSpec, DriverConfig, QueryClass, QueryGenerator,
        QueryGeneratorConfig, Scenario, ScenarioDriver, WorkloadDriver,
    };
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    /// Every `PS2_*` environment variable that library or binary code of a
    /// workspace crate names as a string literal is documented in
    /// `docs/RUNTIME.md`. Tests, benches, examples and `#[cfg(test)]` items
    /// are out of scope: their knobs are not user surface.
    #[test]
    fn every_ps2_variable_in_library_code_is_documented() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let doc = std::fs::read_to_string(root.join("docs/RUNTIME.md")).expect("docs/RUNTIME.md");
        let mut sources = Vec::new();
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
            rust_files(&krate.expect("crate dir").path().join("src"), &mut sources);
        }
        assert!(sources.len() > 50, "found only {} sources", sources.len());
        let mut undocumented = Vec::new();
        for path in &sources {
            let src = std::fs::read_to_string(path).expect("readable source");
            for var in env_var_literals(&src) {
                if !doc.contains(&var) {
                    undocumented.push(format!("{var} ({})", path.display()));
                }
            }
        }
        assert!(
            undocumented.is_empty(),
            "read in code but missing from docs/RUNTIME.md: {undocumented:?}"
        );
    }

    /// Collects the `.rs` files under `dir`, recursively.
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// The string literals of `src` that are exactly a `PS2_*` name, outside
    /// comments and `#[cfg(test)]` items (rustformatted: an item ends at the
    /// first line at its own indentation that ends in `;` or `}`).
    fn env_var_literals(src: &str) -> Vec<String> {
        let mut vars = Vec::new();
        let mut lines = src.lines();
        while let Some(line) = lines.next() {
            let code = line.trim_start();
            if code == "#[cfg(test)]" {
                let indent = &line[..line.len() - code.len()];
                for item in lines.by_ref() {
                    let at_indent = item
                        .strip_prefix(indent)
                        .is_some_and(|rest| !rest.starts_with(' '));
                    if at_indent && (item.ends_with(';') || item.ends_with('}')) {
                        break;
                    }
                }
                continue;
            }
            if code.starts_with("//") {
                continue;
            }
            for (start, _) in code.match_indices("\"PS2_") {
                let name = &code[start + 1..];
                let len = name
                    .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                    .unwrap_or(name.len());
                if name[len..].starts_with('"') {
                    vars.push(name[..len].to_string());
                }
            }
        }
        vars
    }

    #[test]
    fn env_var_literals_skip_comments_and_test_items() {
        let src = r#"
            fn a() { std::env::var("PS2_A").ok(); }
            // std::env::var("PS2_COMMENT")
            fn b() -> String { format!("PS2_B={}", 1) }
            #[cfg(test)]
            mod tests {
                fn c() { std::env::var("PS2_TEST").ok(); }
            }
            #[cfg(test)]
            fn e() -> &'static str { "PS2_TEST_FN" }
            #[cfg(test)]
            use x::y;
            const D: &str = "PS2_D";
        "#;
        assert_eq!(env_var_literals(src), ["PS2_A", "PS2_D"]);
    }
}
