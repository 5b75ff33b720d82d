//! Synthetic workload generation for PS2Stream.
//!
//! Substitutes for the unavailable TWEETS-US / TWEETS-UK corpora and the STS
//! query workloads of Section VI-A: a clustered, Zipf-skewed corpus
//! generator, the Q1/Q2/Q3 query generators, and the stream driver producing
//! the 5:1 object/update mix whose live query population is controlled by µ.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod driver;
pub mod queries;
pub mod scenario;
pub mod zipf;

pub use corpus::{CorpusGenerator, DatasetSpec};
pub use driver::{DriverConfig, WorkloadDriver};
pub use queries::{QueryClass, QueryGenerator, QueryGeneratorConfig};
pub use scenario::{Scenario, ScenarioDriver};
pub use zipf::ZipfSampler;

use ps2stream_partition::WorkloadSample;

/// Builds a [`WorkloadSample`] (the partitioners' input) by generating
/// `num_objects` objects and `num_queries` query insertions from the given
/// dataset and query class. This is the standard way the benchmarks and
/// examples produce calibration samples.
pub fn build_sample(
    spec: DatasetSpec,
    class: QueryClass,
    num_objects: usize,
    num_queries: usize,
    seed: u64,
) -> WorkloadSample {
    let bounds = spec.bounds;
    let mut corpus = CorpusGenerator::new(spec, seed);
    let objects = corpus.generate(num_objects);
    let mut queries = QueryGenerator::from_corpus(
        &corpus,
        &objects,
        QueryGeneratorConfig::new(class),
        seed.wrapping_add(1),
    );
    let insertions = queries.generate(num_queries);
    WorkloadSample::from_objects_and_queries(bounds, objects, insertions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sample_produces_requested_sizes() {
        let sample = build_sample(DatasetSpec::tiny(), QueryClass::Q1, 300, 60, 5);
        assert_eq!(sample.objects().len(), 300);
        assert_eq!(sample.insertions().len(), 60);
        assert!(!sample.is_empty());
        assert!(sample.bounds().area() > 0.0);
    }

    #[test]
    fn build_sample_is_deterministic() {
        let a = build_sample(DatasetSpec::tiny(), QueryClass::Q2, 100, 20, 9);
        let b = build_sample(DatasetSpec::tiny(), QueryClass::Q2, 100, 20, 9);
        assert_eq!(a.objects(), b.objects());
        assert_eq!(a.insertions(), b.insertions());
    }
}
