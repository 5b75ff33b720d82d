//! Workload partitioning for PS2Stream.
//!
//! This crate contains the paper's primary algorithmic contribution — the
//! **hybrid workload partitioning** of Section IV — together with the load
//! model (Definition 1), the dispatcher routing table (the gridt index of
//! Section IV-C) and all six baseline partitioners evaluated in Section VI-B:
//! frequency-, hypergraph- and metric-based text partitioning, and grid,
//! kd-tree and R-tree space partitioning.
//!
//! # Example
//!
//! Routing a query insertion and then an object through a (degenerate
//! single-worker) gridt table — both under `&self`, the read-mostly hot
//! path contract:
//!
//! ```
//! use ps2stream_geo::{Point, Rect};
//! use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId, WorkerId};
//! use ps2stream_partition::RoutingTable;
//! use ps2stream_text::{BooleanExpr, TermId, TermStats};
//! use std::sync::Arc;
//!
//! let table = RoutingTable::single_worker(
//!     Rect::from_coords(0.0, 0.0, 16.0, 16.0),
//!     2,
//!     Arc::new(TermStats::new()),
//! );
//! let query = StsQuery::new(
//!     QueryId(1),
//!     SubscriberId(1),
//!     BooleanExpr::and_of([TermId(7)]),
//!     Rect::from_coords(0.0, 0.0, 4.0, 4.0),
//! );
//! assert_eq!(table.route_insert(&query), vec![WorkerId(0)]);
//!
//! // the object carries a registered term: routed to the cell's worker
//! let object = SpatioTextualObject::new(ObjectId(1), vec![TermId(7)], Point::new(1.0, 1.0));
//! assert_eq!(table.route_object(&object), vec![WorkerId(0)]);
//! // an object with no registered term is discarded at the dispatcher
//! let other = SpatioTextualObject::new(ObjectId(2), vec![TermId(8)], Point::new(1.0, 1.0));
//! assert!(table.route_object(&other).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod hybrid;
pub mod load;
pub mod partitioner;
pub mod registry;
pub mod routing;
pub mod sample;
pub mod space;
pub mod text;

pub use hybrid::{HybridConfig, HybridPartitioner};
pub use load::{CostConstants, DistributionSummary, WorkerLoad};
pub use partitioner::{balanced_assignment, evaluate_distribution, Partitioner};
pub use registry::TermRegistry;
pub use routing::{CellRouting, RoutingTable, TermRouting};
pub use sample::WorkloadSample;
pub use space::{GridPartitioner, KdTreePartitioner, RTreePartitioner};
pub use text::{FrequencyPartitioner, HypergraphPartitioner, MetricPartitioner};

/// Every partitioner evaluated in the paper, in the order of Figure 6/7.
pub fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(FrequencyPartitioner::default()),
        Box::new(HypergraphPartitioner::default()),
        Box::new(MetricPartitioner::default()),
        Box::new(GridPartitioner::default()),
        Box::new(KdTreePartitioner::default()),
        Box::new(RTreePartitioner::default()),
        Box::new(HybridPartitioner::default()),
    ]
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_model::{
        ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId, WorkerId,
    };
    use ps2stream_text::{BooleanExpr, TermId};

    fn arb_object(id: u64) -> impl Strategy<Value = SpatioTextualObject> {
        (
            proptest::collection::vec(0u32..30, 1..6),
            0.0f64..64.0,
            0.0f64..64.0,
        )
            .prop_map(move |(terms, x, y)| {
                SpatioTextualObject::new(
                    ObjectId(id),
                    terms.into_iter().map(TermId).collect(),
                    Point::new(x, y),
                )
            })
    }

    fn arb_query(id: u64) -> impl Strategy<Value = StsQuery> {
        (
            proptest::collection::vec(0u32..30, 1..3),
            0.0f64..64.0,
            0.0f64..64.0,
            1.0f64..30.0,
            proptest::bool::ANY,
        )
            .prop_map(move |(terms, x, y, side, is_and)| {
                let terms: Vec<TermId> = terms.into_iter().map(TermId).collect();
                let expr = if is_and {
                    BooleanExpr::and_of(terms)
                } else {
                    BooleanExpr::or_of(terms)
                };
                StsQuery::new(
                    QueryId(id),
                    SubscriberId(id),
                    expr,
                    Rect::square(Point::new(x, y), side),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The completeness invariant of the whole system: for every
        /// partitioning strategy, whenever a query matches an object, at
        /// least one worker receives both the query and the object.
        #[test]
        fn no_strategy_ever_misses_a_match(
            objects in proptest::collection::vec((0u64..10_000).prop_flat_map(arb_object), 1..40),
            queries in proptest::collection::vec((0u64..10_000).prop_flat_map(arb_query), 1..25),
            workers in 1usize..9,
        ) {
            let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
            let sample = WorkloadSample::from_objects_and_queries(
                bounds,
                objects.clone(),
                queries.clone(),
            );
            for p in all_partitioners() {
                let table = p.partition(&sample, workers);
                prop_assert_eq!(table.num_workers(), workers);
                let query_workers: Vec<Vec<WorkerId>> =
                    queries.iter().map(|q| table.route_insert(q)).collect();
                for qw in &query_workers {
                    // every query must be routed to at least one worker
                    prop_assert!(!qw.is_empty(), "{}: query not routed", p.name());
                    prop_assert!(qw.iter().all(|w| w.index() < workers));
                }
                for o in &objects {
                    let ow = table.route_object(o);
                    prop_assert!(ow.iter().all(|w| w.index() < workers));
                    for (q, qw) in queries.iter().zip(&query_workers) {
                        if q.matches(o) {
                            prop_assert!(
                                qw.iter().any(|w| ow.contains(w)),
                                "{}: match lost between query {:?} and object {:?}",
                                p.name(), q.id, o.id
                            );
                        }
                    }
                }
            }
        }
    }
}
