//! Figure 8 — per-tuple latency of Hybrid vs Metric vs kd-tree partitioning.
//!
//! The latency is the average time a tuple spends in the system, measured at
//! a moderate input rate (the harness drives a fixed stream and reports the
//! mean and 99th-percentile end-to-end latency). `--json <path>` additionally
//! writes every row in machine-readable form (the perf-trajectory artifact).

use ps2stream_bench::{fmt_ms, HeadlineFigure, JsonValue};

fn main() {
    HeadlineFigure {
        name: "fig08_latency",
        number: 8,
        subject: "latency",
        headers: ["mean latency (ms)", "p99 latency (ms)"],
        cells: |r| [fmt_ms(r.mean_latency), fmt_ms(r.p99_latency)],
        fields: |r| {
            vec![
                (
                    "mean_latency_ms",
                    JsonValue::Float(r.mean_latency.as_secs_f64() * 1e3),
                ),
                (
                    "p99_latency_ms",
                    JsonValue::Float(r.p99_latency.as_secs_f64() * 1e3),
                ),
            ]
        },
        paper_shape: "Hybrid has the smallest latency; kd-tree is noticeably slower\n\
                      on Q2 (large query ranges), and Metric degrades badly on STS-UK-Q1 where\n\
                      the query keywords are frequent.",
    }
    .run();
}
