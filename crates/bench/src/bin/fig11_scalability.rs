//! Figure 11 — scalability with the number of workers.
//!
//! Throughput of Metric, kd-tree and Hybrid on the TWEETS-UK workloads while
//! the number of workers grows from 8 to 24 (4 dispatchers throughout):
//! (a) Q1 with µ=10M, (b) Q2 with µ=20M, (c) Q3 with µ=20M.

use ps2stream::prelude::*;
use ps2stream_bench::{
    fmt_tps, headline_report, headline_strategies, print_table, RunKnobs, Scale,
};

fn run_panel(title: &str, class: QueryClass, scale: Scale, worker_counts: &[usize]) {
    let mut rows = Vec::new();
    for &workers in worker_counts {
        for strategy in headline_strategies() {
            let report = headline_report(
                DatasetSpec::tweets_uk(),
                class,
                strategy,
                scale,
                workers,
                &RunKnobs::default(),
            );
            rows.push(vec![
                format!("{workers}"),
                strategy.to_string(),
                fmt_tps(report.throughput_tps),
            ]);
        }
    }
    print_table(
        title,
        &["#workers", "strategy", "throughput (tuples/s)"],
        &rows,
    );
}

fn main() {
    println!("Figure 11: scalability (TWEETS-UK, 4 dispatchers)");
    println!("(PS2_SCALE={})", Scale::factor());
    let workers = [8usize, 12, 16, 20, 24];
    run_panel(
        "Figure 11(a): #Queries=10M (STS-UK-Q1)",
        QueryClass::Q1,
        Scale::q10m(),
        &workers,
    );
    run_panel(
        "Figure 11(b): #Queries=20M (STS-UK-Q2)",
        QueryClass::Q2,
        Scale::q20m(),
        &workers,
    );
    run_panel(
        "Figure 11(c): #Queries=20M (STS-UK-Q3)",
        QueryClass::Q3,
        Scale::q20m(),
        &workers,
    );
    println!();
    println!(
        "Paper shape: Hybrid scales best with the number of workers; Metric scales\n\
         worst on Q1 (frequent keywords) and kd-tree worst on Q2 (large ranges)."
    );
}
