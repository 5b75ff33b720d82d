//! Figure 16 — the effect of the dynamic load adjustments.
//!
//! The workload drifts over time: the query mix is Q3 (per-region Q1/Q2
//! preferences) and every interval 10% of the regions flip their preference,
//! as in the paper's experiment (µ = 10M, GR selector). The same drifting
//! stream is processed twice: once without dynamic load adjustment
//! ("NoAdjust") and once with it ("Adjust").

use ps2stream::prelude::*;
use ps2stream_bench::{fmt_tps, print_table, Scale};

/// Runs the drifting-workload experiment with or without adjustment.
fn run(adjust: bool, scale: Scale) -> RunReport {
    let dataset = DatasetSpec::tweets_us();
    let sample = ps2stream_workload::build_sample(
        dataset.clone(),
        QueryClass::Q3,
        scale.calibration_objects,
        scale.calibration_queries,
        42,
    );
    let mut config = SystemConfig {
        num_dispatchers: 4,
        num_workers: 8,
        num_mergers: 2,
        ..SystemConfig::default()
    };
    if adjust {
        config = config.with_adjustment(AdjustmentConfig::default());
    }
    let mut system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(HybridPartitioner::default()))
        .with_calibration_sample(sample)
        .start();

    let mut corpus = CorpusGenerator::new(dataset.clone(), 49);
    let corpus_sample = corpus.generate(scale.calibration_objects);
    let queries = QueryGenerator::from_corpus(
        &corpus,
        &corpus_sample,
        QueryGeneratorConfig::new(QueryClass::Q3),
        53,
    );
    let mut driver = WorkloadDriver::new(
        DriverConfig::with_mu(scale.queries as u64),
        corpus,
        queries,
        59,
    );
    for record in driver.warm_up(scale.queries) {
        system.send(record);
    }
    // drive the stream in intervals; after every interval 10% of the Q3
    // regions switch between Q1-style and Q2-style queries (the workload
    // drift of the paper's experiment)
    let intervals = 5;
    let per_interval = scale.stream_records / intervals;
    for _ in 0..intervals {
        for record in (&mut driver).take(per_interval) {
            system.send(record);
        }
        driver.query_generator_mut().drift_q3_regions(0.10);
    }
    system.finish()
}

fn main() {
    println!("Figure 16: the effect of the dynamic load adjustments");
    println!(
        "(Q3 with drifting regional preferences, GR selector, µ=10M; PS2_SCALE={})",
        Scale::factor()
    );
    let scale = Scale::q10m();
    let no_adjust = run(false, scale);
    let adjust = run(true, scale);
    let rows = vec![
        vec![
            "NoAdjust".to_string(),
            fmt_tps(no_adjust.throughput_tps),
            format!("{:.2}", no_adjust.balance_factor()),
            format!("{}", no_adjust.migration_moves),
        ],
        vec![
            "Adjust".to_string(),
            fmt_tps(adjust.throughput_tps),
            format!("{:.2}", adjust.balance_factor()),
            format!("{}", adjust.migration_moves),
        ],
    ];
    print_table(
        "Figure 16: throughput with and without dynamic load adjustment",
        &[
            "system",
            "throughput (tuples/s)",
            "balance Lmax/Lmin",
            "#cell moves",
        ],
        &rows,
    );
    let gain = if no_adjust.throughput_tps > 0.0 {
        (adjust.throughput_tps / no_adjust.throughput_tps - 1.0) * 100.0
    } else {
        0.0
    };
    println!();
    println!("Observed throughput change with adjustment: {gain:+.1}%");
    println!("Paper shape: the system with dynamic load adjustments outperforms the");
    println!("system without them by roughly 26% on this drifting workload.");
}
