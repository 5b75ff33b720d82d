//! The benchmark's fixed vocabulary: workloads, metrics, bounds.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! ([`benchmark_json`]); a unit test keeps the committed file identical, so
//! the bounds `--check-agreement` enforces are the ones the file declares.

use crate::json;
use ps2stream_workload::{DatasetSpec, QueryClass};

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Objects in the calibration sample handed to the partitioner.
pub const CALIBRATION_OBJECTS: usize = 10_000;
/// Queries in the calibration sample handed to the partitioner.
pub const CALIBRATION_QUERIES: usize = 2_500;

/// A delivery later than this after its object was due counts as an SLO miss
/// on the open-loop workload.
pub const SLO_MS: u64 = 100;
/// Largest tolerated share of SLO misses before an open-loop run is
/// reported incorrect.
pub const SLO_MISS_BUDGET: f64 = 0.01;

/// How the feeder paces a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop: `send` as fast as the bounded input accepts; one round
    /// replays `records` measured records.
    Closed {
        /// Measured records (objects + updates) per round.
        records: usize,
    },
    /// Open loop: record `i` is due `i / rate` seconds after the round
    /// starts, whether or not the system keeps up.
    Open {
        /// Offered rate in records per second.
        rate: u64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Fixed name (`--workload`).
    pub name: &'static str,
    /// Why the workload exists (one line, ≤ 200 characters).
    pub why: &'static str,
    /// Corpus the objects and query centres are drawn from.
    pub dataset: fn() -> DatasetSpec,
    /// Query family.
    pub class: QueryClass,
    /// Live query population µ (also the number of warm-up inserts).
    pub mu: u64,
    /// Objects per subscription update in the measured mix.
    pub objects_per_update: u64,
    /// Closed or open loop, with its size.
    pub pacing: Pacing,
    /// Leading measured records pushed through the single-threaded layer
    /// replay of the traced run (sized so both replay passes fit the run).
    pub replay_records: usize,
}

impl WorkloadSpec {
    /// The same workload `divisor` times smaller (`--quick`, tests): µ, the
    /// round length and the open-loop rate all shrink together.
    pub fn scaled_down(&self, divisor: u64) -> Self {
        let divisor = divisor.max(1);
        Self {
            mu: (self.mu / divisor).max(50),
            pacing: match self.pacing {
                Pacing::Closed { records } => Pacing::Closed {
                    records: (records / divisor as usize).max(600),
                },
                Pacing::Open { rate } => Pacing::Open {
                    rate: (rate / divisor).max(500),
                },
            },
            replay_records: (self.replay_records / divisor as usize).max(600),
            ..self.clone()
        }
    }
}

/// The four workloads, in reporting order.
pub fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "match-heavy",
            why: "50k live rare-keyword queries on TWEETS-UK: a GI2 index far out of cache with several deliveries per object, so index matching and merger dedup dominate; a kernel change must show here.",
            dataset: DatasetSpec::tweets_uk,
            class: QueryClass::Q2,
            mu: 50_000,
            objects_per_update: 5,
            pacing: Pacing::Closed { records: 120_000 },
            replay_records: 100_000,
        },
        WorkloadSpec {
            name: "route-heavy",
            why: "2k live rare-keyword queries on TWEETS-US, 100 objects per update: 9 in 10 objects die at the dispatcher, so batching and routing dominate and the index idles; a kernel change must not show here.",
            dataset: DatasetSpec::tweets_us,
            class: QueryClass::Q2,
            mu: 2_000,
            objects_per_update: 100,
            pacing: Pacing::Closed { records: 1_000_000 },
            replay_records: 300_000,
        },
        WorkloadSpec {
            name: "churn",
            why: "One subscription update per object at 20k live queries: exercises route_insert/route_delete, index insert/delete and tombstone purging, so a read-path gain paid for on the write path shows.",
            dataset: DatasetSpec::tweets_us,
            class: QueryClass::Q3,
            mu: 20_000,
            objects_per_update: 1,
            pacing: Pacing::Closed { records: 600_000 },
            replay_records: 300_000,
        },
        WorkloadSpec {
            name: "steady-open",
            why: "Open loop at a fixed 80k records/s, about a sixth of saturation, timed from each record's due time: a throughput gain bought with queueing or batching delay shows as late deliveries.",
            dataset: DatasetSpec::tweets_us,
            class: QueryClass::Q3,
            mu: 20_000,
            objects_per_update: 5,
            pacing: Pacing::Open { rate: 80_000 },
            replay_records: 300_000,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `second` is than `first`, as a share of `first`
    /// (negative when it improved).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        if first == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (first - second) / first.abs(),
            Better::Lower => (second - first) / first.abs(),
        }
    }
}

/// A named metric with its unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Exact metric name.
    pub name: &'static str,
    /// Unit, in the contract's alphabet (`us`, not `µs`).
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the reference median; `None` for
    /// per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    end_to_end("throughput_tps", "records/s", Better::Higher, 0.25),
    end_to_end("cpu_us_per_record", "us", Better::Lower, 0.25),
    end_to_end("state_bytes_per_query", "bytes", Better::Lower, 0.02),
    end_to_end("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("partition.build_s", "s", Better::Lower),
    layer("dispatcher.ns_per_record", "ns", Better::Lower),
    layer("dispatcher.fanout", "sends/object", Better::Lower),
    layer("dispatcher.discard_share", "share", Better::Higher),
    layer("routing.route_object_ns", "ns", Better::Lower),
    layer("routing.route_update_ns", "ns", Better::Lower),
    layer("stream.hop_ns_per_record", "ns", Better::Lower),
    layer("index.match_ns_per_object", "ns", Better::Lower),
    layer("index.candidates_per_object", "count", Better::Lower),
    layer("index.signature_reject_share", "share", Better::Higher),
    layer("index.match_yield", "share", Better::Higher),
    layer("index.insert_ns", "ns", Better::Lower),
    layer("index.delete_ns", "ns", Better::Lower),
    layer("index.bytes_per_query", "bytes", Better::Lower),
    layer("worker.ns_per_record", "ns", Better::Lower),
    layer("merger.ns_per_match", "ns", Better::Lower),
    layer("merger.duplicate_share", "share", Better::Lower),
    layer("feeder.blocked_share", "share", Better::Higher),
    layer("drain_s", "s", Better::Lower),
    layer("worker.balance_factor", "ratio", Better::Lower),
    layer("unattributed_us_per_record", "us", Better::Lower),
    layer("persist.append_ns_per_update", "ns", Better::Lower),
    layer("persist.bytes_per_update", "bytes", Better::Lower),
    layer("wire.encode_ns", "ns", Better::Lower),
    layer("wire.decode_ns", "ns", Better::Lower),
    layer("trace_overhead_share", "share", Better::Lower),
];

/// Renders the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "-p",
        "ps2stream-benchmark",
        "--",
    ]
    .map(json::string)
    .to_vec();
    let workloads: Vec<String> = workloads()
        .iter()
        .map(|w| json::object(&[("name", json::string(w.name)), ("why", json::string(w.why))]))
        .collect();
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", json::string(m.name)),
            ("unit", json::string(m.unit)),
            ("better", json::string(m.better.name())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", json::number(bound)));
        }
        json::object(&fields)
    };
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json::array(&command),
        json::array(&[json::string("crates/benchmark")]),
        RUN_SECONDS,
        lines(workloads),
        lines(END_TO_END.iter().map(metric).collect()),
        lines(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in workloads() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!((2..=8).contains(&workloads().len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run -p ps2stream-benchmark -- --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 5.0), 0.0);
    }

    #[test]
    fn scaling_down_shrinks_every_dimension() {
        for w in workloads() {
            let q = w.scaled_down(20);
            assert_eq!(q.mu, w.mu / 20);
            match (w.pacing, q.pacing) {
                (Pacing::Closed { records: a }, Pacing::Closed { records: b }) => {
                    assert_eq!(b, a / 20)
                }
                (Pacing::Open { rate: a }, Pacing::Open { rate: b }) => assert_eq!(b, a / 20),
                _ => panic!("pacing kind changed"),
            }
        }
    }
}
