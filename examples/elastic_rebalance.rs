//! Elastic rebalancing: a drifting workload (regional interests flip between
//! Q1- and Q2-style subscriptions over time, as in the Figure 16 experiment)
//! processed with the dynamic load adjustment enabled. The example prints the
//! per-worker load before/after and the migration activity of the GR
//! selector.
//!
//! ```sh
//! cargo run --release --example elastic_rebalance
//! ```

use ps2stream::prelude::*;

fn main() {
    let dataset = DatasetSpec::tweets_us();
    let mu = 20_000usize;

    let sample =
        ps2stream_workload::build_sample(dataset.clone(), QueryClass::Q3, 20_000, 2_500, 11);
    let config = SystemConfig::paper_default().with_adjustment(AdjustmentConfig {
        selector: SelectorKind::Greedy,
        sigma: 1.3,
        ..AdjustmentConfig::default()
    });
    let mut system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(HybridPartitioner::default()))
        .with_calibration_sample(sample)
        .start();

    // drifting Q3 workload: 10% of the regions flip preference per interval
    let mut corpus = CorpusGenerator::new(dataset.clone(), 13);
    let corpus_sample = corpus.generate(20_000);
    let generator = QueryGenerator::from_corpus(
        &corpus,
        &corpus_sample,
        QueryGeneratorConfig::new(QueryClass::Q3),
        17,
    );
    let mut driver = WorkloadDriver::new(DriverConfig::with_mu(mu as u64), corpus, generator, 19);

    println!("warming up with {mu} subscriptions ...");
    for record in driver.warm_up(mu) {
        system.send(record);
    }
    println!("streaming a drifting workload (5 intervals x 30k records) ...");
    for interval in 0..5 {
        for record in (&mut driver).take(30_000) {
            system.send(record);
        }
        driver.query_generator_mut().drift_q3_regions(0.10);
        println!(
            "  interval {} done, regional preferences drifted",
            interval + 1
        );
    }

    let report = system.finish();
    println!();
    println!("run report with dynamic load adjustment (GR selector)");
    println!(
        "  throughput          : {:.0} tuples/s",
        report.throughput_tps
    );
    println!(
        "  mean latency        : {:.2} ms",
        report.mean_latency.as_secs_f64() * 1e3
    );
    println!("  adjustment rounds   : {}", report.migration_rounds);
    println!("  cells migrated      : {}", report.migration_moves);
    println!(
        "  query state migrated: {:.2} MiB in {:.1} ms total",
        report.migration_bytes as f64 / (1024.0 * 1024.0),
        report.migration_time.as_secs_f64() * 1e3
    );
    println!(
        "  selection time      : {:.1} ms total",
        report.migration_selection_time.as_secs_f64() * 1e3
    );
    println!(
        "  final load balance  : {:.2} (Lmax/Lmin over routed tuples)",
        report.balance_factor()
    );
    println!();
    println!("per-worker routed tuples:");
    for (i, load) in report.worker_loads.iter().enumerate() {
        println!(
            "  worker {i}: {:>8} objects  {:>7} inserts  {:>7} deletes",
            load.objects, load.insertions, load.deletions
        );
    }
}
