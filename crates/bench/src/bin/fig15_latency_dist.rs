//! Figure 15 — tuple latency distribution under dynamic load adjustment with
//! GR, SI and RA, for #Queries = 5M and 10M (STS-US-Q1).
//!
//! The system runs with the dynamic load adjustment enabled and the chosen
//! selector; the table reports which fraction of tuples stayed below 100 ms,
//! fell between 100 ms and 1 s, or exceeded 1 s (the paper uses a 300 ms
//! lower bucket for the 10M configuration; the 100 ms bucket is kept here for
//! comparability across panels).

use ps2stream::prelude::*;
use ps2stream_bench::{print_table, Experiment, Scale};

fn run_panel(title: &str, scale: Scale) {
    let selectors = [
        SelectorKind::Greedy,
        SelectorKind::Size,
        SelectorKind::Random,
    ];
    let mut rows = Vec::new();
    for selector in selectors {
        let adjustment = AdjustmentConfig {
            selector,
            ..AdjustmentConfig::default()
        };
        let report = Experiment::new(
            DatasetSpec::tweets_us(),
            QueryClass::Q1,
            Box::new(HybridPartitioner::default()),
            scale,
        )
        .with_adjustment(adjustment)
        .run();
        let b = report.latency_breakdown;
        rows.push(vec![
            selector.name().to_string(),
            format!("{:.2}", b.fast),
            format!("{:.2}", b.medium),
            format!("{:.2}", b.slow),
            format!("{}", report.migration_moves),
            format!("{:.2}", report.migration_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    print_table(
        title,
        &[
            "algorithm",
            "<100ms",
            "[100ms,1s]",
            ">1s",
            "#cell moves",
            "migrated (MB)",
        ],
        &rows,
    );
}

fn main() {
    println!("Figure 15: latency distribution under dynamic load adjustment (STS-US-Q1)");
    println!("(PS2_SCALE={})", Scale::factor());
    run_panel("Figure 15(a): #Queries=5M", Scale::q5m());
    run_panel("Figure 15(b): #Queries=10M", Scale::q10m());
    println!();
    println!(
        "Paper shape: GR leaves the largest fraction of tuples unaffected by the\n\
         migrations; SI delays about 10% more tuples than GR and RA about 20% more."
    );
}
