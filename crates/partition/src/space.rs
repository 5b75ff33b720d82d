//! Space-partitioning baselines (Section VI-B, Figure 6(c)(d)).
//!
//! Space partitioning divides the data space into regions and assigns each
//! region to one worker; tuples are routed purely by location. Three
//! baselines from the paper are implemented:
//!
//! * **Grid** (SpatialHadoop-style) — the space is a uniform grid and the
//!   cells are spread over the workers balancing their load.
//! * **kd-tree** (AQWA / Tornado) — a weighted kd-tree with one leaf per
//!   worker is built over the sampled object locations.
//! * **R-tree** (SpatialHadoop) — an STR-packed R-tree is built over the
//!   sampled objects and its leaf pages are spread over the workers.
//!
//! All three produce a [`RoutingTable`] in which every grid cell routes to a
//! single worker.

use crate::partitioner::{balanced_assignment, Partitioner};
use crate::routing::{CellRouting, RoutingTable};
use crate::sample::WorkloadSample;
use crate::text::DEFAULT_GRID_EXP;
use ps2stream_geo::{
    KdTree, Point, RTree, RTreeEntry, Rect, SplitAxis, UniformGrid, WeightedPoint,
};
use ps2stream_model::WorkerId;
use ps2stream_text::TermStats;
use std::sync::Arc;

fn finish_table(
    sample: &WorkloadSample,
    grid: UniformGrid,
    cells: Vec<CellRouting>,
    num_workers: usize,
    name: &str,
) -> RoutingTable {
    let stats: TermStats = sample.object_stats().clone();
    RoutingTable::new(grid, cells, num_workers, Arc::new(stats), name)
}

/// Uniform-grid space partitioning: cells are assigned to workers with LPT
/// scheduling on their estimated load (objects located in the cell plus
/// queries overlapping it).
#[derive(Debug, Clone)]
pub struct GridPartitioner {
    /// Routing-grid granularity exponent (the paper uses 2⁶×2⁶). At most
    /// [`MAX_GRID_EXP`](crate::text::MAX_GRID_EXP): building a finer routing
    /// table panics.
    pub grid_exp: u32,
}

impl Default for GridPartitioner {
    fn default() -> Self {
        Self {
            grid_exp: DEFAULT_GRID_EXP,
        }
    }
}

impl Partitioner for GridPartitioner {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        let grid = UniformGrid::with_power_of_two(sample.bounds(), self.grid_exp);
        let mut weights = vec![0.0f64; grid.num_cells()];
        for o in sample.objects() {
            if let Some(c) = grid.cell_of(&o.location) {
                weights[grid.cell_index(c)] += 1.0;
            }
        }
        for q in sample.insertions() {
            for c in grid.cells_overlapping(&q.region) {
                weights[grid.cell_index(c)] += 0.5;
            }
        }
        let assignment = balanced_assignment(&weights, num_workers);
        let cells: Vec<CellRouting> = assignment.into_iter().map(CellRouting::Single).collect();
        finish_table(sample, grid, cells, num_workers, self.name())
    }
}

/// kd-tree space partitioning: a weighted kd-tree with one leaf per worker is
/// built over the sampled object locations; the kd-tree is then "transformed
/// to a grid index to accelerate the workload distribution in the
/// dispatchers" (Section VI-B), i.e. each routing-grid cell is assigned to
/// the worker owning the kd-tree leaf that contains the cell center.
#[derive(Debug, Clone)]
pub struct KdTreePartitioner {
    /// Routing-grid granularity exponent. At most
    /// [`MAX_GRID_EXP`](crate::text::MAX_GRID_EXP): building a finer routing
    /// table panics.
    pub grid_exp: u32,
}

impl Default for KdTreePartitioner {
    fn default() -> Self {
        Self {
            grid_exp: DEFAULT_GRID_EXP,
        }
    }
}

impl Partitioner for KdTreePartitioner {
    fn name(&self) -> &'static str {
        "kd-tree"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        let bounds = sample.bounds();
        let samples: Vec<WeightedPoint> = sample
            .objects()
            .iter()
            .map(|o| WeightedPoint::new(o.location, 1.0))
            .collect();
        let tree = KdTree::build(bounds, &samples, num_workers, SplitAxis::LongestExtent);
        // one leaf per worker; if the tree could not be split far enough the
        // remaining leaves are assigned round-robin
        let leaf_workers: Vec<WorkerId> = (0..tree.leaves().len())
            .map(|i| WorkerId((i % num_workers) as u32))
            .collect();
        let grid = UniformGrid::with_power_of_two(bounds, self.grid_exp);
        let cells: Vec<CellRouting> = grid
            .all_cells()
            .map(|c| {
                let center = grid.cell_rect(c).center();
                let leaf = tree.leaf_of(&center).unwrap_or(0);
                CellRouting::Single(leaf_workers[leaf])
            })
            .collect();
        finish_table(sample, grid, cells, num_workers, self.name())
    }
}

/// R-tree space partitioning: an STR bulk-loaded R-tree over the sampled
/// object locations; its leaf pages are spread over the workers with LPT on
/// their entry counts, and every routing-grid cell is assigned to the worker
/// of the closest covering leaf.
#[derive(Debug, Clone)]
pub struct RTreePartitioner {
    /// Routing-grid granularity exponent. At most
    /// [`MAX_GRID_EXP`](crate::text::MAX_GRID_EXP): building a finer routing
    /// table panics.
    pub grid_exp: u32,
    /// R-tree node capacity used for the STR packing.
    pub node_capacity: usize,
}

impl Default for RTreePartitioner {
    fn default() -> Self {
        Self {
            grid_exp: DEFAULT_GRID_EXP,
            node_capacity: 64,
        }
    }
}

impl Partitioner for RTreePartitioner {
    fn name(&self) -> &'static str {
        "R-tree"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        let bounds = sample.bounds();
        let entries: Vec<RTreeEntry<usize>> = sample
            .objects()
            .iter()
            .enumerate()
            .map(|(i, o)| RTreeEntry::new(Rect::from_point(o.location), i))
            .collect();
        let grid = UniformGrid::with_power_of_two(bounds, self.grid_exp);
        if entries.is_empty() {
            let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
            return finish_table(sample, grid, cells, num_workers, self.name());
        }
        let tree = RTree::bulk_load_with_capacity(entries, self.node_capacity);
        let leaves = tree.leaf_summaries();
        let weights: Vec<f64> = leaves.iter().map(|l| l.len as f64).collect();
        let leaf_workers = balanced_assignment(&weights, num_workers);
        let cells: Vec<CellRouting> = grid
            .all_cells()
            .map(|c| {
                let center = grid.cell_rect(c).center();
                let worker = nearest_leaf_worker(&leaves, &leaf_workers, &center);
                CellRouting::Single(worker)
            })
            .collect();
        finish_table(sample, grid, cells, num_workers, self.name())
    }
}

/// The worker of the leaf containing the point, or of the leaf whose center
/// is closest when no leaf covers it.
fn nearest_leaf_worker(
    leaves: &[ps2stream_geo::LeafSummary],
    leaf_workers: &[WorkerId],
    p: &Point,
) -> WorkerId {
    debug_assert_eq!(leaves.len(), leaf_workers.len());
    let mut best = WorkerId(0);
    let mut best_dist = f64::INFINITY;
    for (leaf, worker) in leaves.iter().zip(leaf_workers) {
        if leaf.rect.contains_point(p) {
            return *worker;
        }
        let d = leaf.rect.center().distance_sq(p);
        if d < best_dist {
            best_dist = d;
            best = *worker;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::CostConstants;
    use crate::partitioner::evaluate_distribution;
    use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId};
    use ps2stream_text::{BooleanExpr, TermId};

    fn obj(id: u64, terms: &[u32], x: f64, y: f64) -> SpatioTextualObject {
        SpatioTextualObject::new(
            ObjectId(id),
            terms.iter().map(|t| TermId(*t)).collect(),
            Point::new(x, y),
        )
    }

    fn qry(id: u64, terms: &[u32], region: Rect) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::and_of(terms.iter().map(|t| TermId(*t))),
            region,
        )
    }

    fn sample() -> WorkloadSample {
        let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let mut objects = Vec::new();
        let mut queries = Vec::new();
        for i in 0..300u64 {
            let t1 = (i % 15) as u32;
            // two spatial clusters plus a uniform sprinkle
            let (x, y) = match i % 3 {
                0 => (10.0 + (i % 8) as f64 * 0.5, 10.0 + (i % 5) as f64 * 0.5),
                1 => (50.0 + (i % 8) as f64 * 0.5, 50.0 + (i % 5) as f64 * 0.5),
                _ => ((i % 64) as f64, ((i * 13) % 64) as f64),
            };
            objects.push(obj(i, &[t1, (t1 + 1) % 15], x, y));
            if i % 5 == 0 {
                queries.push(qry(i, &[t1], Rect::square(Point::new(x, y), 6.0)));
            }
        }
        WorkloadSample::from_objects_and_queries(bounds, objects, queries)
    }

    fn check_space_partitioner(p: &dyn Partitioner) {
        let sample = sample();
        let mut table = p.partition(&sample, 4);
        assert_eq!(table.num_workers(), 4);
        assert_eq!(table.strategy(), p.name());
        // space partitioning never text-partitions a cell
        assert_eq!(table.text_partitioned_fraction(), 0.0);
        let summary = evaluate_distribution(&mut table, &sample, CostConstants::default());
        // each object is routed to at most one worker under space partitioning
        let total_obj: u64 = summary.per_worker.iter().map(|w| w.objects).sum();
        assert!(total_obj <= sample.objects().len() as u64);
        // the object load should be spread over several workers
        let busy = summary.per_worker.iter().filter(|w| w.objects > 0).count();
        assert!(
            busy >= 2,
            "{}: objects concentrated on {busy} worker(s)",
            p.name()
        );
    }

    #[test]
    fn grid_partitioner_properties() {
        check_space_partitioner(&GridPartitioner::default());
    }

    #[test]
    fn kdtree_partitioner_properties() {
        check_space_partitioner(&KdTreePartitioner::default());
    }

    #[test]
    fn rtree_partitioner_properties() {
        check_space_partitioner(&RTreePartitioner::default());
    }

    #[test]
    fn space_routing_never_misses_matches() {
        let sample = sample();
        for p in [
            &GridPartitioner::default() as &dyn Partitioner,
            &KdTreePartitioner::default(),
            &RTreePartitioner::default(),
        ] {
            let table = p.partition(&sample, 4);
            let query_workers: Vec<Vec<WorkerId>> = sample
                .insertions()
                .iter()
                .map(|q| table.route_insert(q))
                .collect();
            for o in sample.objects() {
                let ow = table.route_object(o);
                for (q, qw) in sample.insertions().iter().zip(&query_workers) {
                    if q.matches(o) {
                        assert!(
                            qw.iter().any(|w| ow.contains(w)),
                            "{}: query {:?} matches object {:?} but no common worker",
                            p.name(),
                            q.id,
                            o.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rtree_partitioner_handles_empty_sample() {
        let bounds = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let empty = WorkloadSample::new(bounds, vec![], vec![], vec![]);
        let table = RTreePartitioner::default().partition(&empty, 4);
        assert_eq!(table.num_workers(), 4);
    }

    #[test]
    fn kdtree_balances_clustered_objects_better_than_even_grid_assignment() {
        // with two dense clusters, the kd-tree should split through the
        // clusters and spread objects roughly evenly over workers
        let sample = sample();
        let mut table = KdTreePartitioner::default().partition(&sample, 4);
        let summary = evaluate_distribution(&mut table, &sample, CostConstants::default());
        let objs: Vec<u64> = summary.per_worker.iter().map(|w| w.objects).collect();
        let max = *objs.iter().max().unwrap() as f64;
        let total: u64 = objs.iter().sum();
        assert!(total > 0);
        // no worker should hold more than 70% of all routed objects
        assert!(max / total as f64 <= 0.7, "objects per worker: {objs:?}");
    }
}
