//! Figure 7 — throughput of Hybrid vs Metric vs kd-tree partitioning.
//!
//! (a) Q1 with µ=5M, (b) Q2 with µ=10M, (c) Q3 with µ=10M; TWEETS-US and
//! TWEETS-UK; 4 dispatchers, 8 workers. `--json <path>` additionally writes
//! every row in machine-readable form (the perf-trajectory artifact).

use ps2stream_bench::{fmt_tps, HeadlineFigure, JsonValue};

fn main() {
    HeadlineFigure {
        name: "fig07_throughput",
        number: 7,
        subject: "throughput",
        headers: ["throughput (tuples/s)", "balance Lmax/Lmin"],
        cells: |r| {
            [
                fmt_tps(r.throughput_tps),
                format!("{:.2}", r.balance_factor()),
            ]
        },
        fields: |r| {
            vec![
                ("throughput_tps", JsonValue::Float(r.throughput_tps)),
                ("balance_factor", JsonValue::Float(r.balance_factor())),
                (
                    "matches_delivered",
                    JsonValue::Int(r.matches_delivered as i64),
                ),
            ]
        },
        paper_shape: "Hybrid has the overall best throughput; on Q1 it tracks the\n\
                      kd-tree baseline, on Q2 it tracks Metric, and on the heterogeneous Q3\n\
                      workload it beats both by roughly 30%.",
    }
    .run();
}
