//! Helpers shared by the integration suites: the one reference model
//! ([`owed`]) every suite checks delivery against, and the skewed migration
//! scenario that the migration suites (`sim_determinism.rs`,
//! `sim_migration_sweep.rs`, `adjustment_integration.rs`) must all drive.

use ps2stream::prelude::*;
use std::collections::{HashMap, HashSet};

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

/// The sample's queries inserted up front, then its objects: the stream
/// most suites feed.
#[allow(dead_code)] // not every suite feeds a sample as is
pub fn inserts_then_objects(sample: &WorkloadSample) -> Vec<StreamRecord> {
    let inserts = sample.insertions().iter().cloned().map(QueryUpdate::Insert);
    inserts
        .map(StreamRecord::Update)
        .chain(sample.objects().iter().cloned().map(StreamRecord::Object))
        .collect()
}

/// The reference model: the match set a correct run owes `records`, fed in
/// this order. Each object is owed to every query live at its position —
/// inserted before it and not deleted since.
pub fn owed(records: &[StreamRecord]) -> HashSet<(QueryId, ObjectId)> {
    let mut live: HashMap<QueryId, &StsQuery> = HashMap::new();
    let mut owed = HashSet::new();
    for record in records {
        match record {
            StreamRecord::Update(QueryUpdate::Insert(q)) => {
                live.insert(q.id, q);
            }
            StreamRecord::Update(QueryUpdate::Delete(q)) => {
                live.remove(&q.id);
            }
            StreamRecord::Object(o) => {
                owed.extend(live.values().filter(|q| q.matches(o)).map(|q| (q.id, o.id)));
            }
        }
    }
    owed
}
