//! The dispatcher routing table (gridt index).
//!
//! Section IV-C: instead of traversing the kdt-tree for every tuple, the
//! dispatcher keeps a **gridt** index — a uniform grid in which every cell
//! stores two hash maps: `H1` maps terms of the complete term set to worker
//! ids, and `H2` maps terms appearing in registered STS queries to worker
//! ids. Objects are routed by looking up their terms in `H2` of their cell
//! (and discarded when no term is present); query insertions/deletions are
//! routed by looking up the least frequent keyword of each conjunction in
//! `H1` of every overlapped cell, updating `H2` along the way.
//!
//! [`RoutingTable`] is that structure, generalized so that the same type can
//! express the output of every partitioning strategy:
//!
//! * space partitioning — every cell routes to a single worker,
//! * text partitioning — every cell shares one global term→worker map,
//! * hybrid partitioning — a mix of both, some cells having their own
//!   term→worker map.

use crate::registry::TermRegistry;
use ps2stream_geo::{CellId, Rect, UniformGrid};
use ps2stream_model::{SpatioTextualObject, StsQuery, WorkerId};
use ps2stream_text::{IdMap, TermId, TermStats};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A term → worker mapping with a default worker for unmapped terms.
#[derive(Debug, Clone, PartialEq)]
pub struct TermRouting {
    map: IdMap<TermId, WorkerId>,
    default: WorkerId,
}

impl TermRouting {
    /// Creates a term routing with an explicit map and default worker.
    pub fn new(map: impl IntoIterator<Item = (TermId, WorkerId)>, default: WorkerId) -> Self {
        Self {
            map: map.into_iter().collect(),
            default,
        }
    }

    /// The worker responsible for a term.
    #[inline]
    pub fn worker_for(&self, term: TermId) -> WorkerId {
        self.map.get(&term).copied().unwrap_or(self.default)
    }

    /// Reassigns a single term to a worker.
    pub fn assign(&mut self, term: TermId, worker: WorkerId) {
        self.map.insert(term, worker);
    }

    /// Number of explicitly mapped terms.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns true if no term is explicitly mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.map.len()
                * (std::mem::size_of::<TermId>() + std::mem::size_of::<WorkerId>() + 16)
    }

    /// Distinct workers referenced by the mapping (including the default).
    pub fn workers(&self) -> HashSet<WorkerId> {
        let mut out: HashSet<WorkerId> = self.map.values().copied().collect();
        out.insert(self.default);
        out
    }
}

/// How one grid cell routes tuples to workers (the per-cell `H1`).
#[derive(Debug, Clone)]
pub enum CellRouting {
    /// The whole cell is assigned to a single worker (space partitioning).
    Single(WorkerId),
    /// The cell routes by term using a map shared with other cells (global
    /// text partitioning). Shared maps are counted once in memory accounting.
    SharedTerms(Arc<TermRouting>),
    /// The cell routes by term using its own map (hybrid partitioning or a
    /// cell that was text-split by the dynamic load adjustment).
    OwnedTerms(TermRouting),
}

impl CellRouting {
    /// The worker responsible for a term in this cell.
    #[inline]
    pub fn worker_for(&self, term: TermId) -> WorkerId {
        match self {
            CellRouting::Single(w) => *w,
            CellRouting::SharedTerms(r) => r.worker_for(term),
            CellRouting::OwnedTerms(r) => r.worker_for(term),
        }
    }

    /// Returns true if the cell is text-partitioned (routes by term).
    pub fn is_text_partitioned(&self) -> bool {
        !matches!(self, CellRouting::Single(_))
    }
}

/// The dispatcher routing table: a uniform grid of [`CellRouting`]s plus the
/// per-cell `H2` query-term filters.
///
/// The `H2` filters live in a sharded, read-mostly [`TermRegistry`], so
/// [`RoutingTable::route_insert`] takes `&self`: several dispatcher executors
/// sharing this table behind an `RwLock` route objects, insertions **and**
/// deletions under read locks; the table-level write lock is only needed for
/// the control-path mutations of the dynamic load adjustment
/// ([`RoutingTable::reassign_cell`], [`RoutingTable::split_cell_by_terms`]).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    grid: UniformGrid,
    cells: Vec<CellRouting>,
    /// `H2`: for each cell, the terms under which at least one registered
    /// query is posted. Objects containing none of these terms are discarded.
    query_terms: TermRegistry,
    num_workers: usize,
    /// Object term frequencies used to pick the least frequent keyword when
    /// routing queries.
    object_stats: Arc<TermStats>,
    strategy: String,
}

impl RoutingTable {
    /// Creates a routing table from per-cell routings.
    ///
    /// # Panics
    /// Panics if `cells.len() != grid.num_cells()` or `num_workers == 0`.
    pub fn new(
        grid: UniformGrid,
        cells: Vec<CellRouting>,
        num_workers: usize,
        object_stats: Arc<TermStats>,
        strategy: impl Into<String>,
    ) -> Self {
        assert_eq!(
            cells.len(),
            grid.num_cells(),
            "RoutingTable: one CellRouting required per grid cell"
        );
        assert!(num_workers > 0, "RoutingTable requires at least one worker");
        let query_terms = TermRegistry::new(cells.len());
        Self {
            grid,
            cells,
            query_terms,
            num_workers,
            object_stats,
            strategy: strategy.into(),
        }
    }

    /// A routing table in which every cell is assigned to the same single
    /// worker (useful as a degenerate baseline and in tests).
    pub fn single_worker(bounds: Rect, granularity_exp: u32, stats: Arc<TermStats>) -> Self {
        let grid = UniformGrid::with_power_of_two(bounds, granularity_exp);
        let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
        Self::new(grid, cells, 1, stats, "single-worker")
    }

    /// The grid geometry.
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Number of workers the table routes to.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Name of the partitioning strategy that produced this table.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// The routing of one cell.
    pub fn cell_routing(&self, cell: CellId) -> &CellRouting {
        &self.cells[self.grid.cell_index(cell)]
    }

    /// The registered query terms (`H2`) of one cell (a control-path
    /// snapshot; the hot path uses per-term membership probes instead).
    pub fn cell_query_terms(&self, cell: CellId) -> HashSet<TermId> {
        self.query_terms
            .terms_of_cell(self.grid.cell_index(cell) as u32)
    }

    /// Routes a spatio-textual object: the set of workers that must receive
    /// it. Objects outside the grid or containing no registered query term in
    /// their cell are discarded (empty result).
    pub fn route_object(&self, object: &SpatioTextualObject) -> Vec<WorkerId> {
        let Some(cell) = self.grid.cell_of(&object.location) else {
            return Vec::new();
        };
        let idx = self.grid.cell_index(cell);
        if self.query_terms.cell_is_empty(idx) {
            return Vec::new();
        }
        let routing = &self.cells[idx];
        let mut workers: Vec<WorkerId> = Vec::with_capacity(2);
        self.query_terms
            .probe_terms(idx as u32, &object.terms, |term| {
                let w = routing.worker_for(term);
                if !workers.contains(&w) {
                    workers.push(w);
                }
                // a Single cell maps every registered term to the same
                // worker; no need to continue scanning.
                !matches!(routing, CellRouting::Single(_))
            });
        workers
    }

    /// Routes an STS query insertion: the set of workers that must index it.
    /// Updates the per-cell `H2` filters with the query's posting terms.
    ///
    /// Takes `&self`: the `H2` registration goes through the sharded
    /// [`TermRegistry`], so concurrent dispatchers insert queries without a
    /// table-level write lock (the steady-state requirement of Section IV-C).
    pub fn route_insert(&self, query: &StsQuery) -> Vec<WorkerId> {
        let rep_terms = query
            .keywords
            .representative_terms(|t| self.object_stats.frequency(t));
        let cells = self.grid.cells_overlapping(&query.region);
        let mut workers: Vec<WorkerId> = Vec::with_capacity(2);
        for cell in cells {
            let idx = self.grid.cell_index(cell);
            for &t in &rep_terms {
                self.query_terms.insert(idx as u32, t);
                let w = self.cells[idx].worker_for(t);
                if !workers.contains(&w) {
                    workers.push(w);
                }
            }
        }
        workers
    }

    /// Routes an STS query deletion (same destinations as the insertion, but
    /// `H2` is left untouched — filters are rebuilt by the periodic global
    /// adjustment instead).
    pub fn route_delete(&self, query: &StsQuery) -> Vec<WorkerId> {
        // A deletion must reach every worker that could hold a copy of the
        // query, and that is a strictly wider set than the insertion's
        // representative-term routing: text-split migrations *replicate* a
        // query to the worker owning any of its terms in a cell (the
        // straddling-query rule of `Gi2Index::replicate_cell_where`), and
        // the registry's and the workers' representative-term choices can
        // drift as term statistics evolve. Routing the delete by **all** of
        // the query's terms covers every such worker; a delete for an
        // absent id is a cheap no-op at the worker, and deletions are rare
        // relative to objects.
        let all_terms = query.keywords.all_terms();
        let cells = self.grid.cells_overlapping(&query.region);
        let mut workers: Vec<WorkerId> = Vec::with_capacity(2);
        for cell in cells {
            let idx = self.grid.cell_index(cell);
            for &t in &all_terms {
                let w = self.cells[idx].worker_for(t);
                if !workers.contains(&w) {
                    workers.push(w);
                }
            }
        }
        workers
    }

    /// Has no effect: the `H2` registry has one fixed flat layout. Survives
    /// only because the frozen `crates/benchmark/` replay still calls
    /// `reshard_for_topology(1, None)`; the next PR allowed to edit that
    /// crate deletes it.
    pub fn reshard_for_topology(&mut self, _num_nodes: usize, _shards_per_group: Option<usize>) {}

    /// Exports the `H2` registry in canonical order for embedding in a
    /// durability snapshot (see `TermRegistry::export_cells`).
    pub fn registry_export(&self) -> Vec<(u32, Vec<TermId>)> {
        self.query_terms.export_cells()
    }

    /// Re-registers a snapshot's registry export. Idempotent: replaying the
    /// recovered query log afterwards re-inserts the same pairs harmlessly.
    pub fn import_registry(&self, cells: &[(u32, Vec<TermId>)]) {
        self.query_terms.import_cells(cells);
    }

    /// Reassigns an entire cell to a different worker (local load adjustment
    /// migrating a cell). The cell becomes [`CellRouting::Single`].
    pub fn reassign_cell(&mut self, cell: CellId, to: WorkerId) {
        let idx = self.grid.cell_index(cell);
        self.cells[idx] = CellRouting::Single(to);
    }

    /// Text-splits a cell: the given terms are reassigned to worker `to`
    /// while all remaining terms keep their previous destination (Phase I of
    /// the local load adjustment).
    pub fn split_cell_by_terms(&mut self, cell: CellId, terms: &HashSet<TermId>, to: WorkerId) {
        let idx = self.grid.cell_index(cell);
        let previous = self.cells[idx].clone();
        let mut routing = match previous {
            CellRouting::Single(w) => TermRouting::new(HashMap::new(), w),
            CellRouting::SharedTerms(shared) => (*shared).clone(),
            CellRouting::OwnedTerms(owned) => owned,
        };
        for &t in terms {
            routing.assign(t, to);
        }
        self.cells[idx] = CellRouting::OwnedTerms(routing);
    }

    /// The workers currently referenced by a cell's routing together with the
    /// registered terms they receive (used to decide migrations).
    pub fn cell_worker_terms(&self, cell: CellId) -> HashMap<WorkerId, Vec<TermId>> {
        let idx = self.grid.cell_index(cell);
        let mut out: HashMap<WorkerId, Vec<TermId>> = HashMap::new();
        for t in self.query_terms.terms_of_cell(idx as u32) {
            out.entry(self.cells[idx].worker_for(t))
                .or_default()
                .push(t);
        }
        out
    }

    /// Approximate dispatcher memory footprint in bytes: grid cells, `H2`
    /// filters and term maps; routing maps shared between cells via `Arc` are
    /// counted once.
    pub fn memory_usage(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        total += self.cells.len() * std::mem::size_of::<CellRouting>();
        let mut seen_shared: HashSet<*const TermRouting> = HashSet::new();
        for c in &self.cells {
            match c {
                CellRouting::Single(_) => {}
                CellRouting::SharedTerms(shared) => {
                    if seen_shared.insert(Arc::as_ptr(shared)) {
                        total += shared.memory_usage();
                    }
                }
                CellRouting::OwnedTerms(owned) => total += owned.memory_usage(),
            }
        }
        total += self.query_terms.memory_usage();
        total
    }

    /// Fraction of cells that are text-partitioned.
    pub fn text_partitioned_fraction(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells
            .iter()
            .filter(|c| c.is_text_partitioned())
            .count() as f64
            / self.cells.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Point;
    use ps2stream_model::{ObjectId, QueryId, SubscriberId};
    use ps2stream_text::BooleanExpr;

    fn bounds() -> Rect {
        Rect::from_coords(0.0, 0.0, 16.0, 16.0)
    }

    fn obj(terms: &[u32], x: f64, y: f64) -> SpatioTextualObject {
        SpatioTextualObject::new(
            ObjectId(0),
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

    /// A 4x4-cell table whose left half routes to worker 0 and right half to
    /// worker 1.
    fn split_table() -> RoutingTable {
        let grid = UniformGrid::new(bounds(), 4, 4);
        let cells: Vec<CellRouting> = grid
            .all_cells()
            .map(|c| {
                if c.col < 2 {
                    CellRouting::Single(WorkerId(0))
                } else {
                    CellRouting::Single(WorkerId(1))
                }
            })
            .collect();
        RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "test-split")
    }

    #[test]
    fn objects_without_registered_terms_are_discarded() {
        let table = split_table();
        assert!(table.route_object(&obj(&[1], 1.0, 1.0)).is_empty());
        table.route_insert(&qry(1, &[1], Rect::from_coords(0.0, 0.0, 4.0, 4.0)));
        assert_eq!(table.route_object(&obj(&[1], 1.0, 1.0)), vec![WorkerId(0)]);
        // a different term in the same cell is still discarded
        assert!(table.route_object(&obj(&[2], 1.0, 1.0)).is_empty());
    }

    #[test]
    fn insertions_route_through_a_shared_reference() {
        // The steady-state guarantee of the batched dispatcher design: query
        // insertion requires no exclusive access to the routing table. This
        // compiles only while `route_insert` takes `&self`.
        let table = split_table();
        let shared: &RoutingTable = &table;
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                scope.spawn(move || {
                    let q = qry(i, &[i as u32 + 1], Rect::from_coords(0.0, 0.0, 4.0, 4.0));
                    assert_eq!(shared.route_insert(&q), vec![WorkerId(0)]);
                });
            }
        });
        // the registrations are visible to object routing
        assert_eq!(shared.route_object(&obj(&[1], 1.0, 1.0)), vec![WorkerId(0)]);
    }

    #[test]
    fn space_partitioned_query_goes_to_every_overlapped_worker() {
        let table = split_table();
        let q = qry(1, &[5], Rect::from_coords(6.0, 6.0, 10.0, 10.0));
        let mut workers = table.route_insert(&q);
        workers.sort();
        assert_eq!(workers, vec![WorkerId(0), WorkerId(1)]);
        // deletions route to the same workers
        let mut del = table.route_delete(&q);
        del.sort();
        assert_eq!(del, vec![WorkerId(0), WorkerId(1)]);
    }

    #[test]
    fn object_routed_to_cell_owner_only() {
        let table = split_table();
        table.route_insert(&qry(1, &[7], Rect::from_coords(0.0, 0.0, 16.0, 16.0)));
        assert_eq!(table.route_object(&obj(&[7], 1.0, 1.0)), vec![WorkerId(0)]);
        assert_eq!(table.route_object(&obj(&[7], 15.0, 1.0)), vec![WorkerId(1)]);
        // outside the grid -> discarded
        assert!(table.route_object(&obj(&[7], 100.0, 1.0)).is_empty());
    }

    #[test]
    fn text_partitioned_table_routes_by_term() {
        let grid = UniformGrid::new(bounds(), 4, 4);
        let mut map = HashMap::new();
        map.insert(TermId(1), WorkerId(0));
        map.insert(TermId(2), WorkerId(1));
        let shared = Arc::new(TermRouting::new(map, WorkerId(0)));
        let cells: Vec<CellRouting> = (0..grid.num_cells())
            .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
            .collect();
        let table = RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "test-text");

        table.route_insert(&qry(1, &[1], Rect::from_coords(0.0, 0.0, 16.0, 16.0)));
        table.route_insert(&qry(2, &[2], Rect::from_coords(0.0, 0.0, 16.0, 16.0)));
        // object with both terms goes to both workers, independent of location
        let mut ws = table.route_object(&obj(&[1, 2], 1.0, 1.0));
        ws.sort();
        assert_eq!(ws, vec![WorkerId(0), WorkerId(1)]);
        let ws = table.route_object(&obj(&[2], 15.0, 15.0));
        assert_eq!(ws, vec![WorkerId(1)]);
        assert!(table.text_partitioned_fraction() > 0.99);
    }

    #[test]
    fn insert_routes_by_least_frequent_keyword() {
        // term 1 very frequent among objects, term 2 rare
        let mut stats = TermStats::new();
        for _ in 0..10 {
            stats.observe(&[TermId(1)]);
        }
        stats.observe(&[TermId(2)]);
        let grid = UniformGrid::new(bounds(), 4, 4);
        let mut map = HashMap::new();
        map.insert(TermId(1), WorkerId(0));
        map.insert(TermId(2), WorkerId(1));
        let shared = Arc::new(TermRouting::new(map, WorkerId(0)));
        let cells: Vec<CellRouting> = (0..grid.num_cells())
            .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
            .collect();
        let table = RoutingTable::new(grid, cells, 2, Arc::new(stats), "test");
        // AND query: routed only under its least frequent keyword (term 2)
        let ws = table.route_insert(&qry(1, &[1, 2], Rect::from_coords(0.0, 0.0, 3.0, 3.0)));
        assert_eq!(ws, vec![WorkerId(1)]);
        // the frequent keyword is NOT registered in H2
        let cell = table.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        assert!(table.cell_query_terms(cell).contains(&TermId(2)));
        assert!(!table.cell_query_terms(cell).contains(&TermId(1)));
    }

    #[test]
    fn or_query_routes_every_branch() {
        let grid = UniformGrid::new(bounds(), 4, 4);
        let mut map = HashMap::new();
        map.insert(TermId(1), WorkerId(0));
        map.insert(TermId(2), WorkerId(1));
        let shared = Arc::new(TermRouting::new(map, WorkerId(0)));
        let cells: Vec<CellRouting> = (0..grid.num_cells())
            .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
            .collect();
        let table = RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "test");
        let q = StsQuery::new(
            QueryId(1),
            SubscriberId(1),
            BooleanExpr::or_of([TermId(1), TermId(2)]),
            Rect::from_coords(0.0, 0.0, 3.0, 3.0),
        );
        let mut ws = table.route_insert(&q);
        ws.sort();
        assert_eq!(ws, vec![WorkerId(0), WorkerId(1)]);
    }

    #[test]
    fn reassign_cell_changes_object_routing() {
        let mut table = split_table();
        table.route_insert(&qry(1, &[3], Rect::from_coords(0.0, 0.0, 4.0, 4.0)));
        let cell = table.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        assert_eq!(table.route_object(&obj(&[3], 1.0, 1.0)), vec![WorkerId(0)]);
        table.reassign_cell(cell, WorkerId(1));
        assert_eq!(table.route_object(&obj(&[3], 1.0, 1.0)), vec![WorkerId(1)]);
    }

    #[test]
    fn delete_reaches_text_split_replicas() {
        // Regression: a text split moving a *non-representative* term of a
        // query replicates the query to the destination worker (the
        // worker-side straddling rule), so the deletion must be routed by
        // ALL the query's terms — representative-term routing would miss
        // the replica and leave it matching forever.
        let mut table = split_table();
        // AND(3, 4): with uniform stats the representative term is TermId(3)
        let q = qry(1, &[3, 4], Rect::from_coords(0.0, 0.0, 4.0, 4.0));
        table.route_insert(&q);
        let cell = table.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        // move the non-representative term 4 to worker 1
        let moved: HashSet<TermId> = [TermId(4)].into_iter().collect();
        table.split_cell_by_terms(cell, &moved, WorkerId(1));
        let mut del = table.route_delete(&q);
        del.sort();
        assert_eq!(
            del,
            vec![WorkerId(0), WorkerId(1)],
            "the deletion must reach the replica created by the text split"
        );
    }

    #[test]
    fn split_cell_by_terms_moves_only_those_terms() {
        let mut table = split_table();
        table.route_insert(&qry(1, &[3], Rect::from_coords(0.0, 0.0, 4.0, 4.0)));
        table.route_insert(&qry(2, &[4], Rect::from_coords(0.0, 0.0, 4.0, 4.0)));
        let cell = table.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let moved: HashSet<TermId> = [TermId(3)].into_iter().collect();
        table.split_cell_by_terms(cell, &moved, WorkerId(1));
        assert_eq!(table.route_object(&obj(&[3], 1.0, 1.0)), vec![WorkerId(1)]);
        assert_eq!(table.route_object(&obj(&[4], 1.0, 1.0)), vec![WorkerId(0)]);
        assert!(table.cell_routing(cell).is_text_partitioned());
        let worker_terms = table.cell_worker_terms(cell);
        assert_eq!(worker_terms[&WorkerId(1)], vec![TermId(3)]);
    }

    #[test]
    fn memory_counts_shared_maps_once() {
        let grid = UniformGrid::new(bounds(), 8, 8);
        let mut map = HashMap::new();
        for i in 0..1000u32 {
            map.insert(TermId(i), WorkerId(i % 2));
        }
        let shared = Arc::new(TermRouting::new(map, WorkerId(0)));
        let shared_cells: Vec<CellRouting> = (0..grid.num_cells())
            .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
            .collect();
        let shared_table = RoutingTable::new(
            grid.clone(),
            shared_cells,
            2,
            Arc::new(TermStats::new()),
            "shared",
        );
        let owned_cells: Vec<CellRouting> = (0..grid.num_cells())
            .map(|_| CellRouting::OwnedTerms((*shared).clone()))
            .collect();
        let owned_table =
            RoutingTable::new(grid, owned_cells, 2, Arc::new(TermStats::new()), "owned");
        assert!(owned_table.memory_usage() > 10 * shared_table.memory_usage());
    }

    #[test]
    #[should_panic(expected = "one CellRouting required per grid cell")]
    fn mismatched_cell_count_panics() {
        let grid = UniformGrid::new(bounds(), 4, 4);
        let _ = RoutingTable::new(
            grid,
            vec![CellRouting::Single(WorkerId(0))],
            1,
            Arc::new(TermStats::new()),
            "bad",
        );
    }
}
