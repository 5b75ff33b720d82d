//! Hybrid workload partitioning — Algorithm 1 of the paper.
//!
//! The hybrid partitioner decomposes the workload into *units* by choosing,
//! per subspace, between space-partitioning and text-partitioning:
//!
//! 1. **Phase 1** — the space is recursively split (kd-style) driven by the
//!    cosine text similarity between the objects and the queries of each
//!    subspace. Subspaces whose similarity is at least the threshold `δ` go
//!    to `Ns` (candidates for space partitioning); subspaces whose similarity
//!    cannot be reduced further by splitting go to `Nt` (text partitioning).
//! 2. **Phase 2** — if fewer nodes than workers were produced, a dynamic
//!    program (`ComputeNumberPartitions`) decides how many partitions each
//!    node receives so that the total workload is minimized; `PartitionNode`
//!    then splits every node (text-partitioning nodes in `Nt`; whichever of
//!    text/space yields less workload for nodes in `Ns`). Finally
//!    `MergeNodesIntoPartitions` packs the resulting units onto the `m`
//!    workers and keeps splitting the heaviest node until the load-balance
//!    constraint `L_max / L_min ≤ σ` holds (or `θ` nodes exist).
//!
//! The output is a [`RoutingTable`] equivalent to the paper's kdt-tree /
//! gridt index: some cells route to a single worker, others route by term.

use crate::load::CostConstants;
use crate::partitioner::Partitioner;
use crate::routing::{CellRouting, RoutingTable, TermRouting};
use crate::sample::WorkloadSample;
use ps2stream_geo::{Rect, UniformGrid};
use ps2stream_model::WorkerId;
use ps2stream_text::{IdMap, IdSet, TermDistribution, TermId, TermStats};
use std::sync::Arc;

/// Configuration of the hybrid partitioner.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Routing-grid granularity exponent (2⁶×2⁶ by default, as in the paper). At most
    /// [`MAX_GRID_EXP`](crate::text::MAX_GRID_EXP): building a finer routing
    /// table panics.
    pub grid_exp: u32,
    /// Text-similarity threshold `δ` above which a subspace is considered
    /// unsuitable for text partitioning (Algorithm 1, line 5).
    pub delta: f64,
    /// Load-balance constraint `σ` (`L_max / L_min ≤ σ`).
    pub sigma: f64,
    /// Tolerance for the `|α − simt(O_n, Q_n)| ≈ 0` test (line 9).
    pub epsilon: f64,
    /// Maximum number of nodes `θ` produced while trying to satisfy the
    /// balance constraint (line 26).
    pub theta: usize,
    /// Cost constants of the load model (Definition 1).
    pub costs: CostConstants,
    /// Maximum depth of the Phase-1 similarity-driven splitting.
    pub max_depth: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            grid_exp: 6,
            delta: 0.5,
            sigma: 1.5,
            epsilon: 0.02,
            theta: 512,
            costs: CostConstants::default(),
            max_depth: 8,
        }
    }
}

/// The hybrid partitioning algorithm (the paper's primary contribution).
#[derive(Debug, Clone, Default)]
pub struct HybridPartitioner {
    /// Algorithm parameters.
    pub config: HybridConfig,
}

impl HybridPartitioner {
    /// Creates a hybrid partitioner with explicit configuration.
    pub fn new(config: HybridConfig) -> Self {
        Self { config }
    }
}

/// Whether a node was classified for space- or text-partitioning in Phase 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeClass {
    /// Member of `Ns`: high object/query text similarity.
    Space,
    /// Member of `Nt`: low, locally irreducible text similarity.
    Text,
}

/// A Phase-1 node: a subspace plus the sampled objects/queries it contains.
#[derive(Debug, Clone)]
struct Node {
    rect: Rect,
    /// Indices into `sample.objects()` of objects located in the rect.
    objects: Vec<usize>,
    /// Indices into `sample.insertions()` of queries overlapping the rect.
    queries: Vec<usize>,
    class: NodeClass,
}

/// A workload unit produced by Phase 2: either a subspace assigned wholly to
/// one worker, or a (subspace, term group) pair.
#[derive(Debug, Clone)]
struct Unit {
    rect: Rect,
    /// `None` = spatial unit (all terms); `Some(terms)` = text unit.
    terms: Option<Vec<TermId>>,
    objects: Vec<usize>,
    queries: Vec<usize>,
}

impl Unit {
    fn load(&self, costs: &CostConstants) -> f64 {
        node_load(self.objects.len(), self.queries.len(), costs)
    }
}

fn node_load(objects: usize, queries: usize, costs: &CostConstants) -> f64 {
    costs.c1 * objects as f64 * queries as f64
        + costs.c2 * objects as f64
        + costs.c3 * queries as f64
}

impl Partitioner for HybridPartitioner {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn partition(&self, sample: &WorkloadSample, num_workers: usize) -> RoutingTable {
        assert!(
            num_workers > 0,
            "hybrid partitioning requires at least one worker"
        );
        let cfg = &self.config;
        let grid = UniformGrid::with_power_of_two(sample.bounds(), cfg.grid_exp);
        let stats: Arc<TermStats> = Arc::new(sample.object_stats().clone());

        if sample.is_empty() {
            let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
            return RoutingTable::new(grid, cells, num_workers, stats, self.name());
        }

        // ---- Phase 1: similarity-driven spatial decomposition ----
        let nodes = phase1(sample, cfg);

        // ---- Phase 2: decide per-node partition counts and split ----
        let mut units: Vec<Unit> = if nodes.len() < num_workers {
            compute_number_partitions(sample, &nodes, num_workers, cfg)
                .into_iter()
                .flat_map(|(_, parts)| parts)
                .collect()
        } else {
            nodes
                .into_iter()
                .map(|n| Unit {
                    rect: n.rect,
                    terms: None,
                    objects: n.objects,
                    queries: n.queries,
                })
                .collect()
        };

        // ---- Balance loop: merge into m partitions, split the heaviest
        // unit until the balance constraint holds or θ units exist ----
        let assignment = loop {
            let assignment = merge_units_into_partitions(&units, num_workers, cfg);
            let loads = partition_loads(&units, &assignment, num_workers, cfg);
            let max = loads.iter().cloned().fold(f64::MIN, f64::max);
            let min = loads.iter().cloned().fold(f64::MAX, f64::min);
            let balanced = min > 0.0 && max / min <= cfg.sigma;
            if balanced || units.len() >= cfg.theta {
                break assignment;
            }
            // split the heaviest unit in two
            let heaviest = units
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.load(&cfg.costs)
                        .partial_cmp(&b.1.load(&cfg.costs))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
                .expect("at least one unit exists");
            let unit = units.swap_remove(heaviest);
            let replacements = split_unit(sample, &unit, cfg);
            if replacements.len() <= 1 {
                // cannot be split further: restore and accept the imbalance
                units.push(unit);
                break merge_units_into_partitions(&units, num_workers, cfg);
            }
            units.extend(replacements);
        };

        build_routing_table(grid, &units, &assignment, num_workers, stats, self.name())
    }
}

// ---------------------------------------------------------------------------
// Phase 1
// ---------------------------------------------------------------------------

/// `simt(O_n, Q_n)`; `query_terms[i]` are the distinct keywords of
/// insertion `i`, computed once per partitioning run.
fn text_similarity(
    sample: &WorkloadSample,
    query_terms: &[Vec<TermId>],
    objects: &[usize],
    queries: &[usize],
) -> f64 {
    let mut od = TermDistribution::new();
    for &i in objects {
        od.add_terms(&sample.objects()[i].terms);
    }
    let mut qd = TermDistribution::new();
    for &i in queries {
        qd.add_terms(&query_terms[i]);
    }
    od.cosine_similarity(&qd)
}

/// Splits a node's contents at the spatial median of its objects along `dim`.
fn split_node_contents(sample: &WorkloadSample, node: &Node, dim: usize) -> Option<(Node, Node)> {
    if node.objects.len() < 2 {
        return None;
    }
    let mut coords: Vec<f64> = node
        .objects
        .iter()
        .map(|&i| sample.objects()[i].location.coord(dim))
        .collect();
    coords.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = coords[coords.len() / 2];
    let lo = node.rect.min.coord(dim);
    let hi = node.rect.max.coord(dim);
    if median <= lo || median >= hi {
        return None;
    }
    let (low_rect, high_rect) = node.rect.split_at(dim, median);
    // an object on the split line goes to the low side only
    let (mut low_objects, mut high_objects) = (Vec::new(), Vec::new());
    for &i in &node.objects {
        let location = &sample.objects()[i].location;
        if low_rect.contains_point(location) {
            low_objects.push(i);
        } else if high_rect.contains_point(location) {
            high_objects.push(i);
        }
    }
    if low_objects.is_empty() && high_objects.is_empty() {
        return None;
    }
    let make = |rect: Rect, objects: Vec<usize>| Node {
        rect,
        objects,
        queries: node
            .queries
            .iter()
            .copied()
            .filter(|&i| rect.intersects(&sample.insertions()[i].region))
            .collect(),
        class: NodeClass::Space,
    };
    Some((make(low_rect, low_objects), make(high_rect, high_objects)))
}

/// Phase 1 of Algorithm 1 (lines 1–12).
fn phase1(sample: &WorkloadSample, cfg: &HybridConfig) -> Vec<Node> {
    let root = Node {
        rect: sample.bounds(),
        objects: (0..sample.objects().len()).collect(),
        queries: (0..sample.insertions().len()).collect(),
        class: NodeClass::Space,
    };
    let query_terms: Vec<Vec<TermId>> = sample
        .insertions()
        .iter()
        .map(|q| q.keywords.all_terms())
        .collect();
    let similarity = |n: &Node| text_similarity(sample, &query_terms, &n.objects, &n.queries);
    let mut unresolved = vec![(root, 0usize)];
    let mut resolved: Vec<Node> = Vec::new();
    while let Some((mut node, depth)) = unresolved.pop() {
        let sim = similarity(&node);
        if sim >= cfg.delta || depth >= cfg.max_depth {
            node.class = NodeClass::Space;
            resolved.push(node);
            continue;
        }
        // try both split directions, keep the one minimizing
        // α = min(sim(n1), sim(n2))
        let mut best: Option<(f64, Node, Node)> = None;
        for dim in 0..2 {
            if let Some((a, b)) = split_node_contents(sample, &node, dim) {
                let alpha = similarity(&a).min(similarity(&b));
                if best
                    .as_ref()
                    .map(|(best_alpha, _, _)| alpha < *best_alpha)
                    .unwrap_or(true)
                {
                    best = Some((alpha, a, b));
                }
            }
        }
        match best {
            Some((alpha, a, b)) => {
                if (alpha - sim).abs() <= cfg.epsilon {
                    // splitting does not change the similarity: the node is
                    // consistent and goes to Nt
                    node.class = NodeClass::Text;
                    resolved.push(node);
                } else {
                    unresolved.push((a, depth + 1));
                    unresolved.push((b, depth + 1));
                }
            }
            None => {
                // cannot be split spatially; classify by similarity
                node.class = if sim >= cfg.delta {
                    NodeClass::Space
                } else {
                    NodeClass::Text
                };
                resolved.push(node);
            }
        }
    }
    resolved
}

// ---------------------------------------------------------------------------
// Phase 2: ComputeNumberPartitions (DP) and PartitionNode
// ---------------------------------------------------------------------------

/// The dynamic program of Section IV-B: decides how many partitions each node
/// receives so that the sum of loads after partitioning is minimal and the
/// total number of partitions equals `m`. Returns, per node, that count and
/// the units `PartitionNode` split the node into: every candidate split is
/// built once, to price it, and the chosen one is kept.
fn compute_number_partitions(
    sample: &WorkloadSample,
    nodes: &[Node],
    m: usize,
    cfg: &HybridConfig,
) -> Vec<(usize, Vec<Unit>)> {
    let n = nodes.len();
    if n == 0 || n >= m {
        return nodes
            .iter()
            .map(|node| (1, partition_node(sample, node, 1, cfg)))
            .collect();
    }
    let max_k = m - (n - 1);
    // parts[i][k - 1] = node i partitioned into k parts, and C[i][k - 1] =
    // the total load of those parts
    let mut parts: Vec<Vec<Vec<Unit>>> = nodes
        .iter()
        .map(|node| {
            (1..=max_k)
                .map(|k| partition_node(sample, node, k, cfg))
                .collect()
        })
        .collect();
    let c: Vec<Vec<f64>> = parts
        .iter()
        .map(|node_parts| {
            node_parts
                .iter()
                .map(|units| units.iter().map(|u| u.load(&cfg.costs)).sum())
                .collect()
        })
        .collect();
    // L[i][j] = minimal load partitioning the first i nodes into j partitions
    let mut l = vec![vec![f64::INFINITY; m + 1]; n + 1];
    let mut choice = vec![vec![0usize; m + 1]; n + 1];
    l[0][0] = 0.0;
    for i in 1..=n {
        for j in i..=m {
            for k in 1..=max_k.min(j - (i - 1)) {
                let prev = l[i - 1][j - k];
                if prev.is_finite() {
                    let cand = prev + c[i - 1][k - 1];
                    if cand < l[i][j] {
                        l[i][j] = cand;
                        choice[i][j] = k;
                    }
                }
            }
        }
    }
    // backtrack
    let mut chosen: Vec<(usize, Vec<Unit>)> = Vec::with_capacity(n);
    let mut j = m;
    for i in (1..=n).rev() {
        let k = choice[i][j].max(1);
        chosen.push((k, std::mem::take(&mut parts[i - 1][k - 1])));
        j -= k;
    }
    chosen.reverse();
    chosen
}

/// `PartitionNode`: splits a node into `k` units. Nodes in `Nt` are
/// text-partitioned; for nodes in `Ns` both strategies are evaluated and the
/// cheaper one is used.
fn partition_node(sample: &WorkloadSample, node: &Node, k: usize, cfg: &HybridConfig) -> Vec<Unit> {
    if k <= 1 {
        return vec![Unit {
            rect: node.rect,
            terms: None,
            objects: node.objects.clone(),
            queries: node.queries.clone(),
        }];
    }
    match node.class {
        NodeClass::Text => text_partition_node(sample, node, k),
        NodeClass::Space => {
            let by_space = space_partition_node(sample, node, k);
            let by_text = text_partition_node(sample, node, k);
            let space_load: f64 = by_space.iter().map(|u| u.load(&cfg.costs)).sum();
            let text_load: f64 = by_text.iter().map(|u| u.load(&cfg.costs)).sum();
            if text_load < space_load {
                by_text
            } else {
                by_space
            }
        }
    }
}

/// Splits a single unit into two (used by the balance loop). Text units are
/// split by terms, spatial units follow the `PartitionNode` rule.
fn split_unit(sample: &WorkloadSample, unit: &Unit, cfg: &HybridConfig) -> Vec<Unit> {
    let node = Node {
        rect: unit.rect,
        objects: unit.objects.clone(),
        queries: unit.queries.clone(),
        class: if unit.terms.is_some() {
            NodeClass::Text
        } else {
            NodeClass::Space
        },
    };
    if let Some(terms) = &unit.terms {
        // restrict the text split to the unit's terms
        if terms.len() < 2 {
            return vec![unit.clone()];
        }
        return text_partition_node_restricted(sample, &node, 2, Some(terms));
    }
    let parts = partition_node(sample, &node, 2, cfg);
    if parts.len() < 2 {
        vec![unit.clone()]
    } else {
        parts
    }
}

/// Space-partitions a node into `k` spatial units using median kd splits of
/// its objects; queries overlapping several sub-rects are replicated (the
/// source of the extra workload that makes space partitioning lose when query
/// ranges are large).
fn space_partition_node(sample: &WorkloadSample, node: &Node, k: usize) -> Vec<Unit> {
    let mut parts = vec![Node {
        rect: node.rect,
        objects: node.objects.clone(),
        queries: node.queries.clone(),
        class: NodeClass::Space,
    }];
    while parts.len() < k {
        // split the part with the most objects
        let (idx, _) = match parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.objects.len() >= 2)
            .max_by_key(|(_, p)| p.objects.len())
        {
            Some((i, p)) => (i, p),
            None => break,
        };
        let part = parts.swap_remove(idx);
        let dim = part.rect.longest_dim();
        match split_node_contents(sample, &part, dim)
            .or_else(|| split_node_contents(sample, &part, 1 - dim))
        {
            Some((a, b)) => {
                parts.push(a);
                parts.push(b);
            }
            None => {
                parts.push(part);
                break;
            }
        }
    }
    parts
        .into_iter()
        .map(|p| Unit {
            rect: p.rect,
            terms: None,
            objects: p.objects,
            queries: p.queries,
        })
        .collect()
}

/// Text-partitions a node into `k` term groups balanced by the matching load
/// of each posting term; objects containing terms of several groups are
/// replicated.
fn text_partition_node(sample: &WorkloadSample, node: &Node, k: usize) -> Vec<Unit> {
    text_partition_node_restricted(sample, node, k, None)
}

fn text_partition_node_restricted(
    sample: &WorkloadSample,
    node: &Node,
    k: usize,
    restrict_terms: Option<&[TermId]>,
) -> Vec<Unit> {
    // posting terms of the node's queries: `slot_of` numbers them, and
    // `posted[slot]` lists the queries posted under that term
    let stats = sample.object_stats();
    let allowed: Option<IdSet<TermId>> =
        restrict_terms.map(|terms| terms.iter().copied().collect());
    let mut slot_of: IdMap<TermId, usize> = IdMap::default();
    let mut posted: Vec<(TermId, Vec<usize>)> = Vec::new();
    for &qi in &node.queries {
        let q = &sample.insertions()[qi];
        for &t in q
            .keywords
            .representative_terms(|t| stats.frequency(t))
            .iter()
        {
            if allowed
                .as_ref()
                .is_some_and(|allowed| !allowed.contains(&t))
            {
                continue;
            }
            let slot = *slot_of.entry(t).or_insert_with(|| {
                posted.push((t, Vec::new()));
                posted.len() - 1
            });
            posted[slot].1.push(qi);
        }
    }
    if posted.is_empty() {
        return vec![Unit {
            rect: node.rect,
            terms: Some(restrict_terms.map(<[TermId]>::to_vec).unwrap_or_default()),
            objects: node.objects.clone(),
            queries: node.queries.clone(),
        }];
    }
    // the node's posting terms of each of its objects, in one walk (object
    // terms are distinct, so a slot is counted once per object)
    let object_slots = |oi: usize| {
        sample.objects()[oi]
            .terms
            .iter()
            .filter_map(|t| slot_of.get(t).copied())
    };
    let mut object_count = vec![0usize; posted.len()];
    for &oi in &node.objects {
        for slot in object_slots(oi) {
            object_count[slot] += 1;
        }
    }
    // weight of a term = queries posted under it × objects containing it
    let mut slots: Vec<(usize, f64)> = posted
        .iter()
        .zip(&object_count)
        .enumerate()
        .map(|(slot, ((_, qs), &objects))| (slot, (qs.len() as f64) * (objects.max(1) as f64)))
        .collect();
    // heaviest first; ties by term id, so the partition is a function of the
    // sample and not of the order the terms were met in
    slots.sort_by(|a, b| b.1.total_cmp(&a.1).then(posted[a.0].0.cmp(&posted[b.0].0)));
    let k = k.min(slots.len()).max(1);
    // LPT over term weights; every weight is at least 1 and k ≤ #terms, so
    // each of the k groups receives a term
    let mut groups: Vec<Vec<TermId>> = vec![Vec::new(); k];
    let mut group_load = vec![0.0f64; k];
    let mut group_of = vec![0usize; posted.len()];
    for (slot, w) in slots {
        let (best, _) = group_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("k >= 1");
        groups[best].push(posted[slot].0);
        group_load[best] += w;
        group_of[slot] = best;
    }
    let mut units: Vec<Unit> = groups
        .into_iter()
        .map(|terms| Unit {
            rect: node.rect,
            terms: Some(terms),
            objects: Vec::new(),
            queries: Vec::new(),
        })
        .collect();
    for ((_, qs), &group) in posted.iter().zip(&group_of) {
        units[group].queries.extend_from_slice(qs);
    }
    // an object goes to every group holding one of its terms, in node order:
    // a second walk over the node's objects
    for &oi in &node.objects {
        for slot in object_slots(oi) {
            let objects = &mut units[group_of[slot]].objects;
            if objects.last() != Some(&oi) {
                objects.push(oi);
            }
        }
    }
    for unit in &mut units {
        unit.queries.sort_unstable();
        unit.queries.dedup();
    }
    units
}

// ---------------------------------------------------------------------------
// MergeNodesIntoPartitions and routing-table construction
// ---------------------------------------------------------------------------

/// Packs the units onto `m` workers: units are visited in descending load
/// order; each goes to the worker whose load increases the least, unless that
/// would worsen the balance factor, in which case it goes to the currently
/// lightest worker (which is the same destination under additive loads, kept
/// as two explicit steps to mirror the paper's description).
fn merge_units_into_partitions(units: &[Unit], m: usize, cfg: &HybridConfig) -> Vec<WorkerId> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| {
        units[b]
            .load(&cfg.costs)
            .partial_cmp(&units[a].load(&cfg.costs))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut loads = vec![0.0f64; m];
    let mut assignment = vec![WorkerId(0); units.len()];
    for idx in order {
        let (best, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("m >= 1");
        loads[best] += units[idx].load(&cfg.costs);
        assignment[idx] = WorkerId(best as u32);
    }
    assignment
}

fn partition_loads(
    units: &[Unit],
    assignment: &[WorkerId],
    m: usize,
    cfg: &HybridConfig,
) -> Vec<f64> {
    let mut loads = vec![0.0f64; m];
    for (u, w) in units.iter().zip(assignment) {
        loads[w.index()] += u.load(&cfg.costs);
    }
    loads
}

/// Converts the final unit → worker assignment into the gridt routing table.
/// Each text region gets one term map, which every cell whose centre lies in
/// the region shares (the paper's kdt-tree keeps one map per text node; the
/// grid only indexes it).
fn build_routing_table(
    grid: UniformGrid,
    units: &[Unit],
    assignment: &[WorkerId],
    num_workers: usize,
    stats: Arc<TermStats>,
    name: &str,
) -> RoutingTable {
    let mut cells: Vec<CellRouting> = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
    // process spatial units first (they claim whole cells), then text units
    // (they overwrite their cells with term maps)
    for (u, w) in units.iter().zip(assignment) {
        if u.terms.is_some() {
            continue;
        }
        for cell in grid.cells_overlapping(&u.rect) {
            let center = grid.cell_rect(cell).center();
            if u.rect.contains_point(&center) {
                cells[grid.cell_index(cell)] = CellRouting::Single(*w);
            }
        }
    }
    // group text units by identical rect: one term map per region
    let mut rect_maps: Vec<(Rect, TermRouting)> = Vec::new();
    for (u, w) in units.iter().zip(assignment) {
        let Some(terms) = &u.terms else { continue };
        let entry = rect_maps.iter_mut().find(|(r, _)| *r == u.rect);
        let routing = match entry {
            Some((_, routing)) => routing,
            None => {
                rect_maps.push((u.rect, TermRouting::new([], *w)));
                &mut rect_maps.last_mut().expect("just pushed").1
            }
        };
        for &t in terms {
            routing.assign(t, *w);
        }
    }
    for (rect, routing) in rect_maps {
        let routing = Arc::new(routing);
        for cell in grid.cells_overlapping(&rect) {
            let center = grid.cell_rect(cell).center();
            if rect.contains_point(&center) {
                cells[grid.cell_index(cell)] = CellRouting::SharedTerms(Arc::clone(&routing));
            }
        }
    }
    RoutingTable::new(grid, cells, num_workers, stats, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::CostConstants;
    use crate::partitioner::evaluate_distribution;
    use crate::space::KdTreePartitioner;
    use crate::text::MetricPartitioner;
    use ps2stream_geo::Point;
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

    /// The Figure-2 scenario: region r1 (left) has large, clustered query
    /// ranges whose keywords differ from the local objects (text partitioning
    /// should win there); region r2 (right) has small well-spread queries
    /// whose keywords match the local objects (space partitioning wins).
    fn figure2_sample() -> WorkloadSample {
        let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let mut objects = Vec::new();
        let mut queries = Vec::new();
        let mut id = 0u64;
        // region r1: x in [0, 32): objects talk about terms 0..10, queries
        // ask about rare terms 100..110 with large ranges
        for i in 0..150u64 {
            let x = (i % 30) as f64 + 1.0;
            let y = (i % 60) as f64 + 1.0;
            objects.push(obj(id, &[(i % 10) as u32, ((i + 3) % 10) as u32], x, y));
            id += 1;
        }
        for i in 0..80u64 {
            let x = (i % 25) as f64 + 2.0;
            let y = (i % 50) as f64 + 2.0;
            queries.push(qry(
                id,
                &[(100 + i % 10) as u32],
                Rect::square(Point::new(x, y), 25.0),
            ));
            id += 1;
        }
        // region r2: x in [32, 64): objects and queries share terms 200..220,
        // small query ranges, well spread. Objects carry several terms each
        // (tweet-like), which is what makes text partitioning replicate them.
        for i in 0..150u64 {
            let x = 33.0 + (i % 30) as f64;
            let y = (i % 60) as f64 + 1.0;
            let terms: Vec<u32> = (0..5).map(|k| (200 + (i + 4 * k) % 20) as u32).collect();
            objects.push(obj(id, &terms, x, y));
            id += 1;
        }
        for i in 0..40u64 {
            let x = 34.0 + (i % 28) as f64;
            let y = (i % 55) as f64 + 2.0;
            queries.push(qry(
                id,
                &[(200 + i % 20) as u32],
                Rect::square(Point::new(x, y), 3.0),
            ));
            id += 1;
        }
        WorkloadSample::from_objects_and_queries(bounds, objects, queries)
    }

    #[test]
    fn hybrid_produces_valid_table() {
        let sample = figure2_sample();
        let p = HybridPartitioner::default();
        let table = p.partition(&sample, 8);
        assert_eq!(table.num_workers(), 8);
        assert_eq!(table.strategy(), "Hybrid");
    }

    #[test]
    fn hybrid_mixes_space_and_text_partitioning_on_heterogeneous_data() {
        let sample = figure2_sample();
        let table = HybridPartitioner::default().partition(&sample, 8);
        let frac = table.text_partitioned_fraction();
        assert!(
            frac > 0.0 && frac < 1.0,
            "expected a mix of space- and text-partitioned cells, got fraction {frac}"
        );
    }

    #[test]
    fn hybrid_never_misses_matches() {
        let sample = figure2_sample();
        let table = HybridPartitioner::default().partition(&sample, 8);
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
                        "query {:?} matches object {:?} but no common worker",
                        q.id,
                        o.id
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_total_load_not_worse_than_both_baselines() {
        // On the heterogeneous Figure-2 workload, hybrid should not produce
        // more total load than the better of the two pure strategies, and
        // should beat the worse one.
        let sample = figure2_sample();
        let costs = CostConstants::default();
        let load_of =
            |mut t: RoutingTable| evaluate_distribution(&mut t, &sample, costs).total_load();
        let hybrid = load_of(HybridPartitioner::default().partition(&sample, 8));
        let kd = load_of(KdTreePartitioner::default().partition(&sample, 8));
        let metric = load_of(MetricPartitioner::default().partition(&sample, 8));
        let best = kd.min(metric);
        let worst = kd.max(metric);
        assert!(
            hybrid <= worst * 1.05,
            "hybrid {hybrid} should not exceed the worse baseline {worst}"
        );
        assert!(
            hybrid <= best * 1.5,
            "hybrid {hybrid} should be in the ballpark of the better baseline {best}"
        );
    }

    #[test]
    fn hybrid_respects_balance_constraint_when_feasible() {
        let sample = figure2_sample();
        let cfg = HybridConfig {
            sigma: 2.0,
            ..HybridConfig::default()
        };
        let mut table = HybridPartitioner::new(cfg).partition(&sample, 4);
        let summary = evaluate_distribution(&mut table, &sample, CostConstants::default());
        // allow slack: the balance constraint is enforced on estimated unit
        // loads, the replay measures true routed load
        assert!(
            summary.balance_factor() < 6.0,
            "balance factor too high: {}",
            summary.balance_factor()
        );
    }

    #[test]
    fn hybrid_handles_single_worker_and_empty_sample() {
        let sample = figure2_sample();
        let table = HybridPartitioner::default().partition(&sample, 1);
        assert_eq!(table.num_workers(), 1);
        let empty = WorkloadSample::new(
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            vec![],
            vec![],
            vec![],
        );
        let table = HybridPartitioner::default().partition(&empty, 4);
        assert_eq!(table.num_workers(), 4);
    }

    #[test]
    fn compute_number_partitions_totals_m() {
        let sample = figure2_sample();
        let cfg = HybridConfig::default();
        let nodes = phase1(&sample, &cfg);
        if nodes.len() < 8 {
            let chosen = compute_number_partitions(&sample, &nodes, 8, &cfg);
            let counts: Vec<usize> = chosen.iter().map(|(k, _)| *k).collect();
            assert_eq!(counts.len(), nodes.len());
            assert_eq!(counts.iter().sum::<usize>(), 8);
            assert!(counts.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn phase1_separates_dissimilar_regions() {
        let sample = figure2_sample();
        let cfg = HybridConfig::default();
        let nodes = phase1(&sample, &cfg);
        assert!(!nodes.is_empty());
        // nodes tile the bounds (approximately, by area)
        let area: f64 = nodes.iter().map(|n| n.rect.area()).sum();
        assert!((area - sample.bounds().area()).abs() / sample.bounds().area() < 1e-6);
        // at least one node should be classified for text partitioning
        // because region r1's objects and queries have disjoint vocabularies
        assert!(
            nodes.iter().any(|n| n.class == NodeClass::Text),
            "expected at least one Nt node"
        );
    }
}
