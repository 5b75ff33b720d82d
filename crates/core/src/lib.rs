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
//!   Migration, local and global rebalancing);
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
