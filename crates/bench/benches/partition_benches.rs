//! Criterion micro-benchmarks of the workload partitioners: how long each
//! strategy needs to analyse a calibration sample and build its routing
//! table, and the δ / σ ablations of the hybrid algorithm (see
//! `docs/ARCHITECTURE.md` §2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps2stream::prelude::*;
use ps2stream_partition::{all_partitioners, HybridConfig, Partitioner};

fn sample() -> WorkloadSample {
    ps2stream_workload::build_sample(DatasetSpec::tweets_us(), QueryClass::Q3, 5_000, 1_000, 3)
}

fn bench_partitioners(c: &mut Criterion) {
    let sample = sample();
    let mut group = c.benchmark_group("partition_build");
    for partitioner in all_partitioners() {
        group.bench_with_input(
            BenchmarkId::new("strategy", partitioner.name()),
            &partitioner,
            |b, p| b.iter(|| p.partition(&sample, 8).memory_usage()),
        );
    }
    group.finish();
}

fn bench_hybrid_delta_ablation(c: &mut Criterion) {
    let sample = sample();
    let mut group = c.benchmark_group("hybrid_delta_ablation");
    for delta in [0.25f64, 0.5, 0.75] {
        let p = HybridPartitioner::new(HybridConfig {
            delta,
            ..HybridConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("delta", format!("{delta}")), &p, |b, p| {
            b.iter(|| p.partition(&sample, 8).text_partitioned_fraction())
        });
    }
    group.finish();
}

fn bench_hybrid_sigma_ablation(c: &mut Criterion) {
    let sample = sample();
    let mut group = c.benchmark_group("hybrid_sigma_ablation");
    for sigma in [1.2f64, 1.5, 2.0] {
        let p = HybridPartitioner::new(HybridConfig {
            sigma,
            ..HybridConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("sigma", format!("{sigma}")), &p, |b, p| {
            b.iter(|| p.partition(&sample, 8).memory_usage())
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let sample = sample();
    let table = HybridPartitioner::default().partition(&sample, 8);
    for q in sample.insertions() {
        table.route_insert(q);
    }
    let objects = sample.objects();
    c.bench_function("gridt_route_object", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let o = &objects[i % objects.len()];
            i += 1;
            table.route_object(o).len()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partitioners, bench_hybrid_delta_ablation, bench_hybrid_sigma_ablation, bench_routing
);
criterion_main!(benches);
