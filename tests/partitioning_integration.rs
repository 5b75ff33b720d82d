//! Cross-crate integration tests of the workload partitioning layer: the
//! synthetic Q1/Q2/Q3 workloads must reproduce the qualitative trade-offs the
//! paper's evaluation is built on (space partitioning wins on Q1, text
//! partitioning wins on Q2, hybrid is never the worst and wins on Q3).

use ps2stream::prelude::*;
use ps2stream_partition::{evaluate_distribution, CellRouting, CostConstants, TermRouting};
use std::collections::HashMap;
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

/// Seed of the benchmark's synthetic geography: the calibration samples
/// below are the ones its workloads partition.
const LAYOUT_SEED: u64 = 2017;

/// The benchmark-shaped calibration samples (10k objects each): TWEETS-UK
/// Q2, TWEETS-US Q2 and TWEETS-US Q3.
fn benchmark_samples() -> [(&'static str, WorkloadSample); 3] {
    [
        (
            "uk-q2",
            build_sample(
                DatasetSpec::tweets_uk(),
                QueryClass::Q2,
                10_000,
                2_500,
                LAYOUT_SEED,
            ),
        ),
        (
            "us-q2",
            build_sample(
                DatasetSpec::tweets_us(),
                QueryClass::Q2,
                10_000,
                2_000,
                LAYOUT_SEED,
            ),
        ),
        (
            "us-q3",
            build_sample(
                DatasetSpec::tweets_us(),
                QueryClass::Q3,
                10_000,
                2_500,
                LAYOUT_SEED,
            ),
        ),
    ]
}

/// FNV-1a over 32-bit words.
fn fnv(hash: u64, word: u32) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A digest of every routing decision of `table` for the sample's terms:
/// per cell, whether it is `Single`, and the worker of every object and
/// query term plus one unmapped id. Two tables with equal digests route
/// every one of those terms alike in every cell.
fn routing_digest(table: &RoutingTable, sample: &WorkloadSample) -> u64 {
    let mut vocabulary: Vec<TermId> = sample
        .objects()
        .iter()
        .flat_map(|o| o.terms.iter().copied())
        .chain(
            sample
                .insertions()
                .iter()
                .flat_map(|q| q.keywords.all_terms()),
        )
        .collect();
    vocabulary.sort_unstable();
    vocabulary.dedup();
    vocabulary.push(TermId(u32::MAX - 1));
    let term_digest = |cell: &CellRouting| {
        vocabulary
            .iter()
            .fold(FNV_OFFSET, |h, &t| fnv(h, cell.worker_for(t).0))
    };
    // a shared map is digested once; the result is the same as per cell
    let mut shared: HashMap<*const TermRouting, u64> = HashMap::new();
    table.grid().all_cells().fold(FNV_OFFSET, |h, cell| {
        let routing = table.cell_routing(cell);
        let d = match routing {
            CellRouting::Single(w) => return fnv(fnv(h, 0), w.0),
            CellRouting::SharedTerms(map) => *shared
                .entry(Arc::as_ptr(map))
                .or_insert_with(|| term_digest(routing)),
            CellRouting::OwnedTerms(_) => term_digest(routing),
        };
        fnv(fnv(fnv(h, 1), d as u32), (d >> 32) as u32)
    })
}

#[test]
fn hybrid_tables_route_as_their_golden_digests_and_share_one_map_per_region() {
    let [uk_q2, us_q2, us_q3] = benchmark_samples();
    // digests of the tables built when each text region's map was still
    // copied into every cell: sharing it must not move a single term
    for (name, sample, workers, golden) in [
        (uk_q2.0, &uk_q2.1, 2usize, 0xa0cf_04d0_c832_a325u64),
        (us_q2.0, &us_q2.1, 2, 0x30fa_8cea_a9f0_6325),
        (us_q3.0, &us_q3.1, 2, 0x02c1_a2e8_bba8_8b25),
        (uk_q2.0, &uk_q2.1, 8, 0x44b3_63f2_ddb8_0325),
    ] {
        let table = HybridPartitioner::default().partition(sample, workers);
        assert_eq!(
            routing_digest(&table, sample),
            golden,
            "{name} at {workers} workers: the hybrid table routes differently"
        );
        // every text-routed cell shares its region's map, and distinct
        // regions' maps differ, so no two Arcs hold the same map
        let mut maps: Vec<&Arc<TermRouting>> = Vec::new();
        for cell in table.grid().all_cells() {
            match table.cell_routing(cell) {
                CellRouting::Single(_) => {}
                CellRouting::SharedTerms(map) => {
                    if !maps.iter().any(|m| Arc::ptr_eq(m, map)) {
                        maps.push(map);
                    }
                }
                CellRouting::OwnedTerms(_) => {
                    panic!("{name} at {workers} workers: cell {cell:?} owns a copy of its map")
                }
            }
        }
        for (i, a) in maps.iter().enumerate() {
            for b in &maps[i + 1..] {
                assert_ne!(a, b, "{name} at {workers} workers: one region, two Arcs");
            }
        }
        // the Q2 samples are text-partitioned, so the checks above bite
        assert_eq!(
            maps.is_empty(),
            name == "us-q3",
            "{name} at {workers} workers"
        );
        if workers == 2 {
            let bytes = table.memory_usage();
            assert!(
                bytes < 1 << 20,
                "{name} at 2 workers: table of {bytes} bytes"
            );
        }
    }
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
