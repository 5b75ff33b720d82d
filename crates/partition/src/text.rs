//! Text-partitioning baselines (Section VI-B, Figure 6(a)(b)).
//!
//! Text partitioning divides the lexicon into `m` groups, assigns each group
//! to one worker and routes objects/queries purely by their keywords. Three
//! baselines from the paper are implemented:
//!
//! * **Frequency-based** — terms are spread over workers balancing their
//!   object document-frequency (LPT scheduling).
//! * **Hypergraph-based** (Cambazoglu et al.) — terms co-occurring in the
//!   same queries are kept on the same worker when the balance constraint
//!   allows, reducing query replication.
//! * **Metric-based** (S3-TM) — terms are weighted by an estimate of the
//!   matching cost they induce (object traffic × query postings) and spread
//!   with LPT over that metric.
//!
//! All three produce a [`RoutingTable`] in which every grid cell shares one
//! global term → worker map.

use crate::partitioner::{balanced_assignment, Partitioner};
use crate::routing::{CellRouting, RoutingTable, TermRouting};
use crate::sample::WorkloadSample;
use ps2stream_geo::UniformGrid;
use ps2stream_model::WorkerId;
use ps2stream_text::{TermId, TermStats};
use std::collections::HashMap;
use std::sync::Arc;

/// Default routing-grid granularity exponent (a 2⁶×2⁶ grid, as in the paper).
pub const DEFAULT_GRID_EXP: u32 = 6;

/// The finest routing grid: an `H2` pair stores its cell as a `u16`.
pub use ps2stream_geo::MAX_GRID_EXP;

/// Gathers the lexicon of a sample: every term appearing in objects or query
/// keywords, together with its object and query document frequencies.
fn lexicon(sample: &WorkloadSample) -> Vec<(TermId, u64, u64)> {
    let mut terms: Vec<TermId> = sample
        .object_stats()
        .terms_by_frequency()
        .into_iter()
        .map(|(t, _)| t)
        .chain(
            sample
                .query_stats()
                .terms_by_frequency()
                .into_iter()
                .map(|(t, _)| t),
        )
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms
        .into_iter()
        .map(|t| {
            (
                t,
                sample.object_stats().frequency(t),
                sample.query_stats().frequency(t),
            )
        })
        .collect()
}

/// Builds the shared-map routing table from a term → worker assignment.
fn table_from_term_assignment(
    sample: &WorkloadSample,
    assignment: HashMap<TermId, WorkerId>,
    num_workers: usize,
    grid_exp: u32,
    name: &str,
) -> RoutingTable {
    let grid = UniformGrid::with_power_of_two(sample.bounds(), grid_exp);
    let shared = Arc::new(TermRouting::new(assignment, WorkerId(0)));
    let cells: Vec<CellRouting> = (0..grid.num_cells())
        .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
        .collect();
    let stats: TermStats = sample.object_stats().clone();
    RoutingTable::new(grid, cells, num_workers, Arc::new(stats), name)
}

/// Frequency-based text partitioning: balance the object document-frequency
/// of the terms across workers.
#[derive(Debug, Clone)]
pub struct FrequencyPartitioner {
    /// Routing-grid granularity exponent. At most
    /// [`MAX_GRID_EXP`]: building a finer routing
    /// table panics.
    pub grid_exp: u32,
}

impl Default for FrequencyPartitioner {
    fn default() -> Self {
        Self {
            grid_exp: DEFAULT_GRID_EXP,
        }
    }
}

impl Partitioner for FrequencyPartitioner {
    fn name(&self) -> &'static str {
        "Frequency"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        let lex = lexicon(sample);
        let weights: Vec<f64> = lex.iter().map(|(_, fo, _)| (*fo as f64).max(1.0)).collect();
        let workers = balanced_assignment(&weights, num_workers);
        let assignment: HashMap<TermId, WorkerId> = lex
            .iter()
            .zip(workers)
            .map(|((t, _, _), w)| (*t, w))
            .collect();
        table_from_term_assignment(sample, assignment, num_workers, self.grid_exp, self.name())
    }
}

/// Hypergraph-based text partitioning: terms are vertices, query keyword sets
/// are hyperedges; the greedy assignment keeps co-occurring terms together
/// subject to a load-balance constraint.
#[derive(Debug, Clone)]
pub struct HypergraphPartitioner {
    /// Routing-grid granularity exponent. At most
    /// [`MAX_GRID_EXP`]: building a finer routing
    /// table panics.
    pub grid_exp: u32,
    /// Allowed imbalance: a worker may exceed the average load by this factor
    /// before the affinity heuristic is overridden.
    pub imbalance: f64,
}

impl Default for HypergraphPartitioner {
    fn default() -> Self {
        Self {
            grid_exp: DEFAULT_GRID_EXP,
            imbalance: 1.10,
        }
    }
}

impl Partitioner for HypergraphPartitioner {
    fn name(&self) -> &'static str {
        "Hypergraph"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        let lex = lexicon(sample);
        // Co-occurrence counts between term pairs appearing in the same query.
        let mut cooccur: HashMap<(TermId, TermId), u64> = HashMap::new();
        for q in sample.insertions() {
            let terms = q.keywords.all_terms();
            for (i, &a) in terms.iter().enumerate() {
                for &b in &terms[i + 1..] {
                    *cooccur.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                }
            }
        }
        let total_weight: f64 = lex.iter().map(|(_, fo, _)| (*fo as f64).max(1.0)).sum();
        let capacity = self.imbalance * total_weight / num_workers as f64;

        // Visit terms in descending object frequency; place each on the
        // worker with the highest co-occurrence affinity that still has
        // capacity, falling back to the lightest worker.
        let mut order: Vec<usize> = (0..lex.len()).collect();
        order.sort_by(|&a, &b| lex[b].1.cmp(&lex[a].1));
        let mut assignment: HashMap<TermId, WorkerId> = HashMap::with_capacity(lex.len());
        let mut worker_load = vec![0.0f64; num_workers];
        for idx in order {
            let (term, fo, _) = lex[idx];
            let weight = (fo as f64).max(1.0);
            let mut affinity = vec![0.0f64; num_workers];
            for (&(a, b), &c) in &cooccur {
                let other = if a == term {
                    Some(b)
                } else if b == term {
                    Some(a)
                } else {
                    None
                };
                if let Some(other) = other {
                    if let Some(w) = assignment.get(&other) {
                        affinity[w.index()] += c as f64;
                    }
                }
            }
            let mut best: Option<usize> = None;
            for w in 0..num_workers {
                if worker_load[w] + weight > capacity {
                    continue;
                }
                match best {
                    None => best = Some(w),
                    Some(b) => {
                        if affinity[w] > affinity[b]
                            || (affinity[w] == affinity[b] && worker_load[w] < worker_load[b])
                        {
                            best = Some(w);
                        }
                    }
                }
            }
            let chosen = best.unwrap_or_else(|| {
                worker_load
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            });
            worker_load[chosen] += weight;
            assignment.insert(term, WorkerId(chosen as u32));
        }
        table_from_term_assignment(sample, assignment, num_workers, self.grid_exp, self.name())
    }
}

/// Metric-based text partitioning (S3-TM style): each term is weighted by the
/// matching cost it is expected to induce — the product of its object traffic
/// and the number of query postings under it — and the terms are spread with
/// LPT over that metric.
#[derive(Debug, Clone)]
pub struct MetricPartitioner {
    /// Routing-grid granularity exponent. At most
    /// [`MAX_GRID_EXP`]: building a finer routing
    /// table panics.
    pub grid_exp: u32,
}

impl Default for MetricPartitioner {
    fn default() -> Self {
        Self {
            grid_exp: DEFAULT_GRID_EXP,
        }
    }
}

impl Partitioner for MetricPartitioner {
    fn name(&self) -> &'static str {
        "Metric"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        let lex = lexicon(sample);
        // Count how many queries would actually be *posted* under each term
        // (least frequent keyword per conjunction), which is what drives the
        // matching cost, rather than raw keyword occurrence.
        let mut postings: HashMap<TermId, u64> = HashMap::new();
        for q in sample.insertions() {
            for &t in q
                .keywords
                .representative_terms(|t| sample.object_stats().frequency(t))
                .iter()
            {
                *postings.entry(t).or_insert(0) += 1;
            }
        }
        let weights: Vec<f64> = lex
            .iter()
            .map(|(t, fo, _)| {
                let fo = (*fo as f64).max(1.0);
                let posted = postings.get(t).copied().unwrap_or(0) as f64;
                fo * (posted + 1.0)
            })
            .collect();
        let workers = balanced_assignment(&weights, num_workers);
        let assignment: HashMap<TermId, WorkerId> = lex
            .iter()
            .zip(workers)
            .map(|((t, _, _), w)| (*t, w))
            .collect();
        table_from_term_assignment(sample, assignment, num_workers, self.grid_exp, self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::CostConstants;
    use crate::partitioner::evaluate_distribution;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId};
    use ps2stream_text::BooleanExpr;

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

    /// A sample with 20 distinct terms, objects spread over space, each query
    /// using two co-occurring keywords.
    fn sample() -> WorkloadSample {
        let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let mut objects = Vec::new();
        let mut queries = Vec::new();
        for i in 0..200u64 {
            let t1 = (i % 21) as u32;
            let t2 = ((i * i + 1) % 21) as u32;
            let x = (i % 64) as f64;
            let y = ((i * 7) % 64) as f64;
            objects.push(obj(i, &[t1, t2], x, y));
            if i % 4 == 0 {
                queries.push(qry(i, &[t1, t2], Rect::square(Point::new(x, y), 8.0)));
            }
        }
        WorkloadSample::from_objects_and_queries(bounds, objects, queries)
    }

    fn check_partitioner(p: &dyn Partitioner) {
        let sample = sample();
        let mut table = p.partition(&sample, 4);
        assert_eq!(table.num_workers(), 4);
        assert_eq!(table.strategy(), p.name());
        // every cell is text partitioned
        assert!(table.text_partitioned_fraction() > 0.99);
        let summary = evaluate_distribution(&mut table, &sample, CostConstants::default());
        // every insertion must be routed somewhere
        let total_ins: u64 = summary.per_worker.iter().map(|w| w.insertions).sum();
        assert!(total_ins >= sample.insertions().len() as u64);
        // all four workers must receive some queries
        assert!(
            summary
                .per_worker
                .iter()
                .filter(|w| w.insertions > 0)
                .count()
                >= 2,
            "{}: query load concentrated on too few workers",
            p.name()
        );
    }

    #[test]
    fn frequency_partitioner_distributes_terms() {
        check_partitioner(&FrequencyPartitioner::default());
    }

    #[test]
    fn hypergraph_partitioner_distributes_terms() {
        check_partitioner(&HypergraphPartitioner::default());
    }

    #[test]
    fn metric_partitioner_distributes_terms() {
        check_partitioner(&MetricPartitioner::default());
    }

    #[test]
    fn hypergraph_keeps_cooccurring_terms_together_more_often_than_frequency() {
        let sample = sample();
        let hyper = HypergraphPartitioner::default().partition(&sample, 4);
        let freq = FrequencyPartitioner::default().partition(&sample, 4);
        // count queries whose two keywords land on the same worker
        let colocated = |table: &RoutingTable| -> usize {
            sample
                .insertions()
                .iter()
                .filter(|q| {
                    let terms = q.keywords.all_terms();
                    let cell = table.grid().cell_of(&q.region.center()).unwrap();
                    let workers: std::collections::HashSet<_> = terms
                        .iter()
                        .map(|t| table.cell_routing(cell).worker_for(*t))
                        .collect();
                    workers.len() == 1
                })
                .count()
        };
        assert!(colocated(&hyper) >= colocated(&freq));
    }

    #[test]
    fn routing_never_misses_matches() {
        // The fundamental correctness property of any routing table: if a
        // query matches an object, at least one worker receives both.
        let sample = sample();
        for p in [
            &FrequencyPartitioner::default() as &dyn Partitioner,
            &HypergraphPartitioner::default(),
            &MetricPartitioner::default(),
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
}
