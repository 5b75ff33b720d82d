//! Criterion benchmark of the execution substrates as the operator count
//! grows.
//!
//! The point of the cooperative backend is that logical operators are cheap:
//! 64 workers on the thread backend are 64 OS threads contending for the
//! machine's cores, while on the cooperative backend they are 64 pollable
//! tasks multiplexed over a **fixed pool** (min(cores, 4) scheduler threads,
//! i.e. a bounded core budget). The benchmark drives the same fig07-style workload
//! through both substrates at 4 and 64 logical workers. Expected shape: the
//! backends are comparable at 4 workers, and coop holds or wins at 64 where
//! the thread backend pays for oversubscription (64 blocking consumers plus
//! dispatcher threads on a handful of cores).
//!
//! Set `PS2_BENCH_FAST=1` (the CI smoke mode) to shrink the driven stream
//! and sample count so the suite finishes in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps2stream::prelude::*;

fn fast_mode() -> bool {
    std::env::var("PS2_BENCH_FAST").is_ok_and(|v| v != "0")
}

/// Scheduler threads of the cooperative pool — the fixed core budget both
/// backends are compared on (capped at 4 so the comparison stays "many
/// logical workers, few cores" even on big machines; never more than the
/// machine actually has, since the thread backend also cannot use more).
fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(4)
}

fn build_records(queries: usize, stream_records: usize) -> (WorkloadSample, Vec<StreamRecord>) {
    let spec = DatasetSpec::tweets_us();
    let sample = ps2stream_workload::build_sample(spec.clone(), QueryClass::Q1, 2_000, 400, 42);
    let mut corpus = CorpusGenerator::new(spec.clone(), 49);
    let corpus_sample = corpus.generate(2_000);
    let generator = QueryGenerator::from_corpus(
        &corpus,
        &corpus_sample,
        QueryGeneratorConfig::new(QueryClass::Q1),
        55,
    );
    let mut driver =
        WorkloadDriver::new(DriverConfig::with_mu(queries as u64), corpus, generator, 65);
    let mut records = driver.warm_up(queries);
    records.extend((&mut driver).take(stream_records));
    (sample, records)
}

fn run_once(
    sample: &WorkloadSample,
    records: &[StreamRecord],
    workers: usize,
    runtime: RuntimeBackend,
) -> u64 {
    let mut system = Ps2StreamBuilder::new(
        SystemConfig {
            num_dispatchers: 2,
            num_workers: workers,
            num_mergers: 1,
            ..SystemConfig::default()
        }
        .with_runtime(runtime),
    )
    .with_partitioner(Box::new(HybridPartitioner::default()))
    .with_calibration_sample(sample.clone())
    .start();
    for record in records {
        system.send(record.clone());
    }
    let report = system.finish();
    report.records_in
}

fn bench_backends(c: &mut Criterion) {
    let (queries, stream) = if fast_mode() {
        (400, 2_000)
    } else {
        (1_500, 24_000)
    };
    let (sample, records) = build_records(queries, stream);
    let mut group = c.benchmark_group("runtime_backend_scaling");
    for workers in [4usize, 64] {
        group.bench_with_input(
            BenchmarkId::new("threads", workers),
            &workers,
            |b, &workers| b.iter(|| run_once(&sample, &records, workers, RuntimeBackend::Threads)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("coop-pool{}", pool_threads()), workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    run_once(
                        &sample,
                        &records,
                        workers,
                        RuntimeBackend::Coop {
                            pool_threads: pool_threads(),
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn c() -> Criterion {
    Criterion::default().sample_size(if fast_mode() { 2 } else { 5 })
}

criterion_group! {
    name = runtime;
    config = c();
    targets = bench_backends
}
criterion_main!(runtime);
