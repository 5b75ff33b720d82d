//! Cross-crate integration tests of the workload partitioning layer: the
//! synthetic Q1/Q2/Q3 workloads must reproduce the qualitative trade-offs the
//! paper's evaluation is built on (space partitioning wins on Q1, text
//! partitioning wins on Q2, hybrid is never the worst and wins on Q3).

use ps2stream::prelude::*;
use ps2stream_partition::{evaluate_distribution, CellRouting, CostConstants};
use ps2stream_workload::build_sample;
use std::sync::Arc;

fn total_load(partitioner: &dyn Partitioner, sample: &WorkloadSample, workers: usize) -> f64 {
    let mut table = partitioner.partition(sample, workers);
    evaluate_distribution(&mut table, sample, CostConstants::default()).total_load()
}

#[test]
fn q1_favors_space_partitioning_over_text_partitioning() {
    // Q1 keywords are frequent among objects, so text partitioning replicates
    // almost every object to several workers.
    let sample = build_sample(DatasetSpec::tweets_us(), QueryClass::Q1, 8_000, 1_500, 3);
    let kd = total_load(&KdTreePartitioner::default(), &sample, 8);
    let metric = total_load(&MetricPartitioner::default(), &sample, 8);
    assert!(
        kd < metric,
        "expected kd-tree ({kd:.0}) to beat metric text partitioning ({metric:.0}) on Q1"
    );
}

#[test]
fn q2_favors_text_partitioning_over_space_partitioning() {
    // Q2 queries have rare keywords and ranges up to 100 km, so space
    // partitioning replicates queries across many workers while text
    // partitioning rarely replicates objects.
    let sample = build_sample(DatasetSpec::tweets_uk(), QueryClass::Q2, 8_000, 3_000, 5);
    let kd = total_load(&KdTreePartitioner::default(), &sample, 8);
    let metric = total_load(&MetricPartitioner::default(), &sample, 8);
    assert!(
        metric < kd,
        "expected metric text partitioning ({metric:.0}) to beat kd-tree ({kd:.0}) on Q2"
    );
}

#[test]
fn hybrid_is_never_the_worst_strategy() {
    for (class, seed) in [
        (QueryClass::Q1, 7u64),
        (QueryClass::Q2, 9),
        (QueryClass::Q3, 11),
    ] {
        let sample = build_sample(DatasetSpec::tweets_us(), class, 6_000, 1_500, seed);
        let hybrid = total_load(&HybridPartitioner::default(), &sample, 8);
        let kd = total_load(&KdTreePartitioner::default(), &sample, 8);
        let metric = total_load(&MetricPartitioner::default(), &sample, 8);
        let worst = kd.max(metric);
        assert!(
            hybrid <= worst * 1.10,
            "{:?}: hybrid {hybrid:.0} should not be clearly worse than the worst baseline {worst:.0}",
            class
        );
    }
}

#[test]
fn hybrid_beats_both_baselines_on_the_heterogeneous_q3_workload() {
    let sample = build_sample(DatasetSpec::tweets_us(), QueryClass::Q3, 10_000, 2_500, 13);
    let hybrid = total_load(&HybridPartitioner::default(), &sample, 8);
    let kd = total_load(&KdTreePartitioner::default(), &sample, 8);
    let metric = total_load(&MetricPartitioner::default(), &sample, 8);
    let best_baseline = kd.min(metric);
    assert!(
        hybrid <= best_baseline * 1.05,
        "hybrid {hybrid:.0} should be at least on par with the best baseline {best_baseline:.0} \
         (kd {kd:.0}, metric {metric:.0}) on Q3"
    );
}

#[test]
fn all_partitioners_respect_reasonable_balance_on_uniformish_workloads() {
    let sample = build_sample(DatasetSpec::tweets_uk(), QueryClass::Q1, 6_000, 1_200, 19);
    for partitioner in ps2stream_partition::all_partitioners() {
        let mut table = partitioner.partition(&sample, 8);
        let summary = evaluate_distribution(&mut table, &sample, CostConstants::default());
        let busy = summary.per_worker.iter().filter(|w| w.tuples() > 0).count();
        assert!(
            busy >= 4,
            "{}: only {busy} of 8 workers received load",
            partitioner.name()
        );
    }
}

#[test]
fn routing_tables_reflect_their_strategy_families() {
    let sample = build_sample(DatasetSpec::tweets_us(), QueryClass::Q3, 5_000, 1_000, 23);
    let text_table = MetricPartitioner::default().partition(&sample, 8);
    assert!(text_table.text_partitioned_fraction() > 0.99);
    let space_table = KdTreePartitioner::default().partition(&sample, 8);
    assert_eq!(space_table.text_partitioned_fraction(), 0.0);
    let hybrid_table = HybridPartitioner::default().partition(&sample, 8);
    let frac = hybrid_table.text_partitioned_fraction();
    assert!(
        (0.0..=1.0).contains(&frac),
        "hybrid text fraction out of range: {frac}"
    );
    // dispatcher memory ordering of Figure 9: space < hybrid-ish <= text-heavy
    assert!(space_table.memory_usage() <= hybrid_table.memory_usage());
}

#[test]
fn partitioning_is_a_function_of_the_sample() {
    // Q2's rare keywords give many equal-weight terms, the ties a partitioner
    // must not break by hash-map iteration order
    let sample = build_sample(DatasetSpec::tweets_uk(), QueryClass::Q2, 8_000, 1_000, 0);
    for partitioner in ps2stream_partition::all_partitioners() {
        let first = partitioner.partition(&sample, 2);
        let second = partitioner.partition(&sample, 2);
        // a text partitioner shares one map across every cell: compare it once
        let mut equal_shared = Vec::new();
        for cell in first.grid().all_cells() {
            let same = match (first.cell_routing(cell), second.cell_routing(cell)) {
                (CellRouting::Single(a), CellRouting::Single(b)) => a == b,
                (CellRouting::SharedTerms(a), CellRouting::SharedTerms(b)) => {
                    let pair = (Arc::as_ptr(a), Arc::as_ptr(b));
                    if !equal_shared.contains(&pair) && a == b {
                        equal_shared.push(pair);
                    }
                    equal_shared.contains(&pair)
                }
                (CellRouting::OwnedTerms(a), CellRouting::OwnedTerms(b)) => a == b,
                _ => false,
            };
            assert!(
                same,
                "{}: two partitions of one sample route cell {cell:?} differently",
                partitioner.name()
            );
        }
    }
}
