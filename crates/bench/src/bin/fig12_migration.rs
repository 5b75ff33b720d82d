//! Figure 12 — migration experiments with #Q = 1M (STS-US-Q1).
//!
//! (a) running time of selecting the cells to migrate, for DP, GR, SI and RA;
//! (b) average migration cost (MB) and migration time;
//! (c) fraction of tuples with latency below 100 ms, between 100 ms and 1 s,
//!     and above 1 s when the selector drives the dynamic load adjustment of
//!     a running system.

use ps2stream::prelude::*;
use ps2stream_balance::all_selectors;
use ps2stream_bench::{print_table, Experiment, MigrationLab, Scale};

fn selector_kind(name: &str) -> SelectorKind {
    match name {
        "DP" => SelectorKind::Dp,
        "GR" => SelectorKind::Greedy,
        "SI" => SelectorKind::Size,
        "RA" => SelectorKind::Random,
        other => panic!("unknown selector {other}"),
    }
}

fn main() {
    println!("Figure 12: migration experiments (#Q=1M, STS-US-Q1)");
    println!("(PS2_SCALE={})", Scale::factor());
    let scale = Scale::factor();
    let queries = ((4_000.0 * scale) as usize).max(500);
    let objects = queries * 2;
    let lab = MigrationLab::build(queries, objects, 7);
    let tau = lab.total_load() * 0.25;

    // (a) selection time, (b) migration cost and time
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    for selector in all_selectors() {
        let (selection, selection_time) = lab.time_selection(selector.as_ref(), tau);
        rows_a.push(vec![
            selector.name().to_string(),
            format!("{:.3}", selection_time.as_secs_f64() * 1e3),
            format!("{}", selection.cells.len()),
        ]);
        let outcome = lab.execute_migration(&selection);
        rows_b.push(vec![
            selector.name().to_string(),
            format!("{:.3}", outcome.bytes_moved as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", outcome.elapsed.as_secs_f64() * 1e3),
            format!("{}", outcome.queries_moved),
        ]);
    }
    print_table(
        "Figure 12(a): time of selecting cells for migration",
        &["algorithm", "selection time (ms)", "#cells selected"],
        &rows_a,
    );
    print_table(
        "Figure 12(b): migration cost and time",
        &[
            "algorithm",
            "migration cost (MB)",
            "migration time (ms)",
            "#queries moved",
        ],
        &rows_b,
    );

    // (c) latency distribution when the selector drives the adjustment of a
    // running system
    let mut rows_c = Vec::new();
    for selector in all_selectors() {
        let adjustment = AdjustmentConfig {
            selector: selector_kind(selector.name()),
            ..AdjustmentConfig::default()
        };
        let report = Experiment::new(
            DatasetSpec::tweets_us(),
            QueryClass::Q1,
            Box::new(HybridPartitioner::default()),
            Scale::smoke(),
        )
        .with_adjustment(adjustment)
        .run();
        let b = report.latency_breakdown;
        rows_c.push(vec![
            selector.name().to_string(),
            format!("{:.2}", b.fast),
            format!("{:.2}", b.medium),
            format!("{:.2}", b.slow),
            format!("{}", report.migration_moves),
        ]);
    }
    print_table(
        "Figure 12(c): fraction of tuple latencies under adjustment",
        &["algorithm", "<100ms", "[100ms,1s]", ">1s", "#cell moves"],
        &rows_c,
    );
    println!();
    println!(
        "Paper shape: DP needs far longer to select cells than GR/SI/RA; DP and GR\n\
         incur the smallest migration cost and time; GR disturbs the fewest tuples\n\
         (largest <100ms fraction), followed by DP, then SI and RA."
    );
}
