//! Figure 7 — throughput of Hybrid vs Metric vs kd-tree partitioning.
//!
//! (a) Q1 with µ=5M, (b) Q2 with µ=10M, (c) Q3 with µ=10M; TWEETS-US and
//! TWEETS-UK; 4 dispatchers, 8 workers. `--json <path>` additionally writes
//! every row in machine-readable form (the perf-trajectory artifact).

use ps2stream::prelude::*;
use ps2stream_bench::{
    dataset_tag, datasets, fmt_tps, headline_report, headline_strategies, json_arg, print_table,
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
                fmt_tps(report.throughput_tps),
                format!("{:.2}", report.balance_factor()),
            ]);
            json_rows.push(vec![
                ("panel", JsonValue::Str(panel.to_string())),
                ("workload", JsonValue::Str(workload)),
                ("strategy", JsonValue::Str(strategy.to_string())),
                ("scenario", JsonValue::Str(knobs.scenario_name())),
                ("throughput_tps", JsonValue::Float(report.throughput_tps)),
                ("balance_factor", JsonValue::Float(report.balance_factor())),
                (
                    "matches_delivered",
                    JsonValue::Int(report.matches_delivered as i64),
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
            "throughput (tuples/s)",
            "balance Lmax/Lmin",
        ],
        &rows,
    );
}

fn main() {
    let knobs = RunKnobs::from_args();
    let mut json_rows = Vec::new();
    println!("Figure 7: throughput comparison (Metric, kd-tree, Hybrid)");
    println!(
        "(4 dispatchers, 8 workers; PS2_SCALE={}; {})",
        Scale::factor(),
        knobs.describe(),
    );
    run_panel(
        "Figure 7(a): #Queries=5M (Q1)",
        "a",
        QueryClass::Q1,
        Scale::q5m(),
        &knobs,
        &mut json_rows,
    );
    run_panel(
        "Figure 7(b): #Queries=10M (Q2)",
        "b",
        QueryClass::Q2,
        Scale::q10m(),
        &knobs,
        &mut json_rows,
    );
    run_panel(
        "Figure 7(c): #Queries=10M (Q3)",
        "c",
        QueryClass::Q3,
        Scale::q10m(),
        &knobs,
        &mut json_rows,
    );
    println!();
    println!(
        "Paper shape: Hybrid has the overall best throughput; on Q1 it tracks the\n\
         kd-tree baseline, on Q2 it tracks Metric, and on the heterogeneous Q3\n\
         workload it beats both by roughly 30%."
    );
    if let Some(path) = json_arg() {
        write_json_file(
            &path,
            "fig07_throughput",
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
