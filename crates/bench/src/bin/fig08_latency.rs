//! Figure 8 — per-tuple latency of Hybrid vs Metric vs kd-tree partitioning.
//!
//! The latency is the average time a tuple spends in the system, measured at
//! a moderate input rate (the harness drives a fixed stream and reports the
//! mean and 99th-percentile end-to-end latency). `--json <path>` additionally
//! writes every row in machine-readable form (the perf-trajectory artifact).

use ps2stream::prelude::*;
use ps2stream_bench::{
    dataset_tag, datasets, fmt_ms, headline_report, headline_strategies, json_arg, print_table,
    write_json_file, JsonValue, RunKnobs, Scale,
};

fn run_panel(
    title: &str,
    panel: &str,
    class: QueryClass,
    scale: Scale,
    knobs: &RunKnobs,
    json_rows: &mut Vec<Vec<(&'static str, JsonValue)>>,
) {
    let mut rows = Vec::new();
    for dataset in datasets() {
        for strategy in headline_strategies() {
            let report = headline_report(dataset.clone(), class, strategy, scale, 8, knobs);
            let workload = format!("STS-{}-{}", dataset_tag(&dataset), class.name());
            rows.push(vec![
                workload.clone(),
                strategy.to_string(),
                fmt_ms(report.mean_latency),
                fmt_ms(report.p99_latency),
            ]);
            json_rows.push(vec![
                ("panel", JsonValue::Str(panel.to_string())),
                ("workload", JsonValue::Str(workload)),
                ("strategy", JsonValue::Str(strategy.to_string())),
                ("scenario", JsonValue::Str(knobs.scenario_name())),
                (
                    "mean_latency_ms",
                    JsonValue::Float(report.mean_latency.as_secs_f64() * 1e3),
                ),
                (
                    "p99_latency_ms",
                    JsonValue::Float(report.p99_latency.as_secs_f64() * 1e3),
                ),
                // the adjustment controller's reaction to the scenario
                // (all-zero when adjustment is off, i.e. steady-state runs)
                (
                    "migration_rounds",
                    JsonValue::Int(report.migration_rounds as i64),
                ),
                (
                    "migration_moves",
                    JsonValue::Int(report.migration_moves as i64),
                ),
                (
                    "migration_bytes",
                    JsonValue::Int(report.migration_bytes as i64),
                ),
            ]);
            // durability cost + recovery-probe columns (all-zero unless
            // the run was started with --durable)
            let p = report.persistence.clone().unwrap_or_default();
            json_rows.last_mut().unwrap().extend([
                ("ops_logged", JsonValue::Int(p.ops_logged as i64)),
                ("log_bytes", JsonValue::Int(p.log_bytes as i64)),
                ("snapshot_bytes", JsonValue::Int(p.snapshot_bytes as i64)),
                (
                    "snapshots_written",
                    JsonValue::Int(p.snapshots_written as i64),
                ),
                ("recovered_ops", JsonValue::Int(p.recovered_ops as i64)),
                (
                    "replay_ms",
                    JsonValue::Float(p.replay_time.as_secs_f64() * 1e3),
                ),
            ]);
            // supervision + overload counters (all-zero unless the run was
            // started with --faults or an overload policy tripped)
            let f = &report.faults;
            json_rows.last_mut().unwrap().extend([
                ("worker_crashes", JsonValue::Int(f.worker_crashes as i64)),
                ("worker_respawns", JsonValue::Int(f.worker_respawns as i64)),
                (
                    "replayed_records",
                    JsonValue::Int(f.replayed_records as i64),
                ),
                (
                    "restored_updates",
                    JsonValue::Int(f.restored_updates as i64),
                ),
                ("shed_records", JsonValue::Int(f.shed_records as i64)),
                ("shed_matches", JsonValue::Int(f.shed_matches as i64)),
                ("diverted_sends", JsonValue::Int(f.diverted_sends as i64)),
            ]);
        }
    }
    print_table(
        title,
        &[
            "workload",
            "strategy",
            "mean latency (ms)",
            "p99 latency (ms)",
        ],
        &rows,
    );
}

fn main() {
    let knobs = RunKnobs::from_args();
    let mut json_rows = Vec::new();
    println!("Figure 8: latency comparison (Metric, kd-tree, Hybrid)");
    println!(
        "(4 dispatchers, 8 workers; PS2_SCALE={}; {})",
        Scale::factor(),
        knobs.describe(),
    );
    run_panel(
        "Figure 8(a): #Queries=5M (Q1)",
        "a",
        QueryClass::Q1,
        Scale::q5m(),
        &knobs,
        &mut json_rows,
    );
    run_panel(
        "Figure 8(b): #Queries=10M (Q2)",
        "b",
        QueryClass::Q2,
        Scale::q10m(),
        &knobs,
        &mut json_rows,
    );
    run_panel(
        "Figure 8(c): #Queries=10M (Q3)",
        "c",
        QueryClass::Q3,
        Scale::q10m(),
        &knobs,
        &mut json_rows,
    );
    println!();
    println!(
        "Paper shape: Hybrid has the smallest latency; kd-tree is noticeably slower\n\
         on Q2 (large query ranges), and Metric degrades badly on STS-UK-Q1 where\n\
         the query keywords are frequent."
    );
    if let Some(path) = json_arg() {
        write_json_file(
            &path,
            "fig08_latency",
            &[
                ("scale_factor", JsonValue::Float(Scale::factor())),
                ("scenario", JsonValue::Str(knobs.scenario_name())),
                ("knobs", JsonValue::Str(knobs.describe())),
                ("durable", JsonValue::Int(knobs.durable as i64)),
            ],
            &json_rows,
        )
        .expect("writing --json output");
        println!("wrote {path}");
    }
}
