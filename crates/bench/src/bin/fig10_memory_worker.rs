//! Figure 10 — worker memory usage of Hybrid vs Metric vs kd-tree.
//!
//! The workers' memory is dominated by the GI² indexes holding the STS
//! queries. A strategy that replicates queries across workers (space
//! partitioning with large query ranges, or the handover of a poor text
//! partition) inflates the total; hybrid distributes queries with the least
//! duplication.

use ps2stream::prelude::*;
use ps2stream_bench::{
    dataset_tag, datasets, fmt_mib, headline_report, headline_strategies, print_table, RunKnobs,
    Scale,
};

fn run_panel(title: &str, class: QueryClass, scale: Scale) {
    let knobs = RunKnobs::default();
    let mut rows = Vec::new();
    for dataset in datasets() {
        for strategy in headline_strategies() {
            let report = headline_report(dataset.clone(), class, strategy, scale, 8, &knobs);
            let total: usize = report.worker_memory.iter().sum();
            let avg = total / report.worker_memory.len().max(1);
            let max = report.worker_memory.iter().copied().max().unwrap_or(0);
            rows.push(vec![
                format!("STS-{}-{}", dataset_tag(&dataset), class.name()),
                strategy.to_string(),
                fmt_mib(avg),
                fmt_mib(max),
                fmt_mib(total),
            ]);
        }
    }
    print_table(
        title,
        &[
            "workload",
            "strategy",
            "avg worker memory (MiB)",
            "max worker memory (MiB)",
            "total (MiB)",
        ],
        &rows,
    );
}

fn main() {
    println!("Figure 10: memory comparison of the workers");
    println!("(4 dispatchers, 8 workers; PS2_SCALE={})", Scale::factor());
    run_panel(
        "Figure 10(a): #Queries=5M (Q1)",
        QueryClass::Q1,
        Scale::q5m(),
    );
    run_panel(
        "Figure 10(b): #Queries=10M (Q2)",
        QueryClass::Q2,
        Scale::q10m(),
    );
    run_panel(
        "Figure 10(c): #Queries=10M (Q3)",
        QueryClass::Q3,
        Scale::q10m(),
    );
    println!();
    println!(
        "Paper shape: hybrid has the smallest worker footprint in most cases because\n\
         it reduces the number of STS queries stored on multiple workers; none of\n\
         the strategies imposes a large absolute memory requirement."
    );
}
