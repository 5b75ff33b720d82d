//! Helpers shared by the integration suites. The migration suites
//! (`sim_determinism.rs`, `sim_migration_sweep.rs`,
//! `adjustment_integration.rs`) must drive the *same* skewed migration
//! scenario, so the workload construction lives in one place.

use ps2stream::prelude::*;
use std::collections::HashSet;

/// A hot-spot workload (all queries and objects in one small region) so a
/// grid-partitioned deployment starts imbalanced and the adjustment
/// controller must migrate cells while the stream is in flight.
#[allow(dead_code)] // not every suite drives the migration scenario
pub fn skewed_sample(n_objects: usize, n_queries: usize, seed: u64) -> WorkloadSample {
    let spec = DatasetSpec::tweets_us();
    let mut corpus = CorpusGenerator::new(spec.clone(), seed);
    let mut objects = corpus.generate(n_objects);
    let hot = Point::new(-100.0, 38.0);
    for (i, o) in objects.iter_mut().enumerate() {
        o.location = Point::new(
            hot.x + ((i * 7) % 100) as f64 * 0.015,
            hot.y + ((i * 13) % 100) as f64 * 0.015,
        );
    }
    let mut generator = QueryGenerator::from_corpus(
        &corpus,
        &objects,
        QueryGeneratorConfig::new(QueryClass::Q1),
        seed + 1,
    );
    let queries = generator.generate(n_queries);
    WorkloadSample::from_objects_and_queries(spec.bounds, objects, queries)
}

/// The ground-truth match set every correct run must deliver exactly.
pub fn brute_force(sample: &WorkloadSample) -> HashSet<(QueryId, ObjectId)> {
    let mut expected = HashSet::new();
    for o in sample.objects() {
        for q in sample.insertions() {
            if q.matches(o) {
                expected.insert((q.id, o.id));
            }
        }
    }
    expected
}
