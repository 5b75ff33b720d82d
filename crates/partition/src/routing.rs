//! The dispatcher routing table (gridt index).
//!
//! Section IV-C: instead of traversing the kdt-tree for every tuple, the
//! dispatcher keeps a **gridt** index — a uniform grid in which every cell
//! stores two hash maps: `H1` maps terms of the complete term set to worker
//! ids, and `H2` maps terms appearing in registered STS queries to worker
//! ids. Objects are routed by looking up their terms in `H2` of their cell
//! (and discarded when no term is present); query insertions are routed by
//! looking up the least frequent keyword of each conjunction in `H1` of
//! every overlapped cell, updating `H2` along the way. Deletions go to every
//! worker and unregister what their insertion registered (see
//! [`RoutingTable::route_delete`]).
//!
//! [`RoutingTable`] is that structure, generalized so that the same type can
//! express the output of every partitioning strategy:
//!
//! * space partitioning — every cell routes to a single worker,
//! * text partitioning — every cell shares one global term→worker map,
//! * hybrid partitioning — a mix of both: the cells of one text-partitioned
//!   region share that region's term→worker map.
//!
//! A shared map is copy-on-write: when the load adjustment text-splits one
//! of its cells, that cell gets its own copy and the others keep sharing.

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
    /// text partitioning, or one text-partitioned region of a hybrid
    /// partition). Shared maps are counted once in memory accounting.
    SharedTerms(Arc<TermRouting>),
    /// The cell routes by term using its own map (a cell that was text-split
    /// by the dynamic load adjustment).
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

    /// Adds the workers of `terms` in this cell to `workers`, each once. A
    /// `Single` cell adds its worker, and a shared map that `visited` has
    /// seen already adds nothing: its workers for these terms are in.
    #[inline]
    fn add_workers<'t>(
        &self,
        terms: impl Iterator<Item = &'t TermId>,
        visited: &mut VisitedMaps,
        workers: &mut Vec<WorkerId>,
    ) {
        let map = match self {
            CellRouting::Single(w) => return add_worker(workers, *w),
            CellRouting::SharedTerms(map) if !visited.first_visit(map) => return,
            CellRouting::SharedTerms(map) => &**map,
            CellRouting::OwnedTerms(map) => map,
        };
        for &t in terms {
            add_worker(workers, map.worker_for(t));
        }
    }
}

/// Adds `w` to `workers` unless it is there already.
#[inline]
fn add_worker(workers: &mut Vec<WorkerId>, w: WorkerId) {
    if !workers.contains(&w) {
        workers.push(w);
    }
}

/// The shared term maps an update has looked its terms up in. A text
/// region's cells share one map, so a query usually meets one or two; past
/// `VISITED_MAPS` of them, maps are simply looked up again.
#[derive(Default)]
struct VisitedMaps {
    maps: [usize; VISITED_MAPS],
    len: usize,
}

const VISITED_MAPS: usize = 4;

impl VisitedMaps {
    /// True unless `map` was visited before.
    #[inline]
    fn first_visit(&mut self, map: &Arc<TermRouting>) -> bool {
        let key = Arc::as_ptr(map) as usize;
        if self.maps[..self.len].contains(&key) {
            return false;
        }
        if self.len < VISITED_MAPS {
            self.maps[self.len] = key;
            self.len += 1;
        }
        true
    }
}

/// The dispatcher routing table: a uniform grid of [`CellRouting`]s plus the
/// per-cell `H2` query-term filters.
///
/// The `H2` filters live in a counted [`TermRegistry`] behind its own lock,
/// so [`RoutingTable::route_insert`] takes `&self`: several dispatcher executors
/// sharing this table behind an `RwLock` route objects, insertions **and**
/// deletions under read locks; the table-level write lock is only needed for
/// the control-path mutations of the dynamic load adjustment
/// ([`RoutingTable::reassign_cell`], [`RoutingTable::split_cell_by_terms`]).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    grid: UniformGrid,
    cells: Vec<CellRouting>,
    /// `H2`: for each cell, the terms under which at least one live query
    /// is posted. Objects containing none of these terms are discarded.
    query_terms: TermRegistry,
    num_workers: usize,
    /// Object term frequencies used to pick the least frequent keyword when
    /// routing queries: the one posting-term table, which every worker's
    /// GI² index shares.
    object_stats: Arc<TermStats>,
    strategy: String,
}

impl RoutingTable {
    /// Creates a routing table from per-cell routings.
    ///
    /// # Panics
    /// Panics if `cells.len() != grid.num_cells()`, if the grid has more
    /// than [`MAX_CELLS`](crate::registry::MAX_CELLS) = 2^16 cells (an `H2`
    /// pair stores its cell as a `u16`, so a partitioner's `grid_exp` is at
    /// most [`MAX_GRID_EXP`](crate::text::MAX_GRID_EXP)) or if
    /// `num_workers == 0`.
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
        assert!(
            grid.num_cells() <= crate::registry::MAX_CELLS,
            "RoutingTable: a routing grid has at most 2^16 cells (grid_exp <= {}), got {} x {}",
            crate::text::MAX_GRID_EXP,
            grid.nx(),
            grid.ny()
        );
        let query_terms = TermRegistry::new(grid.nx() as usize, grid.ny() as usize);
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

    /// The frozen term table posting terms are picked from (see
    /// [`RoutingTable::route_insert_into`]); workers post under its choice.
    pub fn object_stats(&self) -> &Arc<TermStats> {
        &self.object_stats
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
        let mut workers = Vec::new();
        self.route_object_into(object, &mut workers);
        workers
    }

    /// [`RoutingTable::route_object`] into a caller-owned buffer, which is
    /// cleared first: with a recycled buffer, routing allocates nothing,
    /// whether the object is discarded or routed.
    pub fn route_object_into(&self, object: &SpatioTextualObject, workers: &mut Vec<WorkerId>) {
        workers.clear();
        let Some(cell) = self.grid.cell_of(&object.location) else {
            return;
        };
        let idx = self.grid.cell_index(cell);
        if self.query_terms.cell_is_empty(idx) {
            return;
        }
        let routing = &self.cells[idx];
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
    }

    /// Routes an STS query insertion: the set of workers that must index it.
    /// Registers the query's posting terms in the `H2` filters of every cell
    /// its region overlaps.
    ///
    /// Takes `&self`: the `H2` registration goes through the
    /// [`TermRegistry`]'s own lock, so concurrent dispatchers insert queries
    /// without a table-level write lock (the steady-state requirement of
    /// Section IV-C).
    pub fn route_insert(&self, query: &StsQuery) -> Vec<WorkerId> {
        let mut workers = Vec::with_capacity(2);
        self.route_insert_into(query, &mut workers);
        workers
    }

    /// [`RoutingTable::route_insert`] into a caller-owned buffer, which is
    /// cleared first. Each conjunction's least frequent keyword is worked out
    /// once per query, in place. A term's worker is looked up once per
    /// distinct shared term map (a region's cells share one, so a query
    /// meets one or two), once per `OwnedTerms` cell, and not at all in a
    /// `Single` cell. The query's block of cells is then registered under
    /// each posting term in one locked pass.
    /// With a recycled buffer, an insertion allocates nothing once the
    /// registry has a cell table with room for its cells for each of its
    /// posting terms (or a spare one) and room for its id.
    pub fn route_insert_into(&self, query: &StsQuery, workers: &mut Vec<WorkerId>) {
        // the posting terms, as the workers pick them under the frozen term
        // table
        let terms = query
            .keywords
            .representative_terms(|t| self.object_stats.frequency(t));
        workers.clear();
        let mut visited = VisitedMaps::default();
        for cell in self.grid.cells_overlapping_iter(&query.region) {
            let idx = self.grid.cell_index(cell);
            self.cells[idx].add_workers(terms.iter(), &mut visited, workers);
        }
        let block = self
            .grid
            .cell_span(&query.region)
            .map(|(lo, hi)| (self.grid.cell_index(lo), self.grid.cell_index(hi)));
        self.query_terms.register(query.id, terms, block);
    }

    /// Routes an STS query deletion: every worker. A worker may hold a copy
    /// of a query that no routing of its terms reaches any more — a text
    /// split replicates a query, and a whole-cell move leaves it in the
    /// source's other cells — and a later move can make that copy reachable
    /// again; a worker without the id does nothing.
    ///
    /// The deletion also unregisters the `(cell, term)` pairs the id's
    /// insertion registered, so `H2` holds only the pairs of live queries.
    /// Like a worker, it goes by the id alone: what the registry recorded
    /// at the insertion is uncounted, whatever region or keywords the
    /// deletion carries, and a repeated deletion, or one of an id that was
    /// never inserted, leaves `H2` as it is (see [`TermRegistry`]).
    pub fn route_delete(&self, query: &StsQuery) -> Vec<WorkerId> {
        let mut workers = Vec::with_capacity(self.num_workers);
        self.route_delete_into(query, &mut workers);
        workers
    }

    /// [`RoutingTable::route_delete`] into a caller-owned buffer, which is
    /// cleared first: with a recycled buffer it allocates nothing.
    pub fn route_delete_into(&self, query: &StsQuery, workers: &mut Vec<WorkerId>) {
        workers.clear();
        workers.extend((0..self.num_workers as u32).map(WorkerId));
        self.query_terms.unregister(query.id);
    }

    /// Has no effect: the `H2` registry has one fixed layout. Survives
    /// only because the frozen `crates/benchmark/` replay still calls
    /// `reshard_for_topology(1, None)`; the next PR allowed to edit that
    /// crate deletes it.
    pub fn reshard_for_topology(&mut self, _num_nodes: usize, _shards_per_group: Option<usize>) {}

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
    /// filters, term maps and the posting-term table; routing maps shared
    /// between cells via `Arc` are counted once, and so is the term table
    /// the workers share.
    pub fn memory_usage(&self) -> usize {
        let mut total = std::mem::size_of::<Self>() + self.object_stats.memory_usage();
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
    fn a_deletion_unregisters_what_its_id_registered_whatever_it_carries() {
        let table = split_table();
        let left = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let right = Rect::from_coords(12.0, 12.0, 16.0, 16.0);
        table.route_insert(&qry(1, &[1], left));
        table.route_insert(&qry(2, &[1], right));
        // query 2's deletion carries query 1's region: it must still take
        // away query 2's pair, and leave query 1's
        table.route_delete(&qry(2, &[1], left));
        assert_eq!(table.route_object(&obj(&[1], 1.0, 1.0)), vec![WorkerId(0)]);
        assert!(table.route_object(&obj(&[1], 13.0, 13.0)).is_empty());
        // a re-insertion under a live id replaces its pairs
        table.route_insert(&qry(1, &[3], right));
        assert!(table.route_object(&obj(&[1], 1.0, 1.0)).is_empty());
        assert_eq!(
            table.route_object(&obj(&[3], 13.0, 13.0)),
            vec![WorkerId(1)]
        );
        table.route_delete(&qry(1, &[1], left));
        assert!(table.route_object(&obj(&[3], 13.0, 13.0)).is_empty());
        assert!(table
            .grid()
            .all_cells()
            .all(|c| table.cell_query_terms(c).is_empty()));
    }

    #[test]
    #[should_panic(expected = "at most 2^16 cells")]
    fn a_routing_grid_finer_than_2_to_the_8_is_refused() {
        let grid = UniformGrid::with_power_of_two(bounds(), 9);
        let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
        RoutingTable::new(grid, cells, 1, Arc::new(TermStats::new()), "too-fine");
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
        // a deletion reaches every worker, here the same two
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
        // worker-side straddling rule), so the deletion must reach workers
        // that representative-term routing would miss, or the replica
        // keeps matching forever.
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
    fn splitting_a_shared_cell_copies_its_map_and_leaves_the_neighbours_shared() {
        let grid = UniformGrid::new(bounds(), 4, 4);
        let original = TermRouting::new(
            [(TermId(1), WorkerId(0)), (TermId(2), WorkerId(1))],
            WorkerId(0),
        );
        let shared = Arc::new(original.clone());
        let cells: Vec<CellRouting> = (0..grid.num_cells())
            .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
            .collect();
        let mut table = RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "test");
        table.route_insert(&qry(1, &[1], bounds()));
        table.route_insert(&qry(2, &[2], bounds()));
        let before = table.memory_usage();
        let cell = table.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let moved: HashSet<TermId> = [TermId(1)].into_iter().collect();
        table.split_cell_by_terms(cell, &moved, WorkerId(1));

        // the split cell owns a copy with only the moved term re-routed
        let CellRouting::OwnedTerms(copy) = table.cell_routing(cell) else {
            panic!("a split shared cell must own its map");
        };
        assert_eq!(copy.worker_for(TermId(1)), WorkerId(1));
        assert_eq!(copy.worker_for(TermId(2)), WorkerId(1));
        assert_eq!(copy.worker_for(TermId(3)), WorkerId(0));
        assert_eq!(table.route_object(&obj(&[1], 1.0, 1.0)), vec![WorkerId(1)]);
        // every other cell still holds the original, unchanged map
        assert_eq!(*shared, original);
        for other in table.grid().all_cells().filter(|&c| c != cell) {
            let CellRouting::SharedTerms(map) = table.cell_routing(other) else {
                panic!("neighbour {other:?} lost its shared map");
            };
            assert!(Arc::ptr_eq(map, &shared));
        }
        for (term, worker) in [(1, 0), (2, 1)] {
            let routed = table.route_object(&obj(&[term], 15.0, 15.0));
            assert_eq!(routed, vec![WorkerId(worker)]);
        }
        assert_eq!(Arc::strong_count(&shared), table.grid().num_cells());
        // memory grows by the one copy; the shared map is still counted once
        assert_eq!(table.memory_usage(), before + copy.memory_usage());
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
        let owned_table = RoutingTable::new(
            grid.clone(),
            owned_cells,
            2,
            Arc::new(TermStats::new()),
            "owned",
        );
        assert!(owned_table.memory_usage() > 10 * shared_table.memory_usage());
        // the posting-term table the workers share is counted here, once
        let mut stats = TermStats::new();
        stats.observe(&[TermId(999)]);
        let grown = stats.memory_usage() - TermStats::new().memory_usage();
        let cells = shared_table.cells.clone();
        let with_stats = RoutingTable::new(grid, cells, 2, Arc::new(stats), "stats");
        assert_eq!(
            with_stats.memory_usage(),
            shared_table.memory_usage() + grown
        );
    }

    #[test]
    fn updates_route_like_a_lookup_per_cell_and_term() {
        // 8 × 8 cells: Single cells, owned maps, and six distinct shared
        // maps (more than an update remembers) along the diagonals
        let grid = UniformGrid::new(bounds(), 8, 8);
        let maps: Vec<Arc<TermRouting>> = (0..6u32)
            .map(|m| {
                let map = (0..12u32).map(|t| (TermId(t), WorkerId((t * 7 + m) % 5)));
                Arc::new(TermRouting::new(map, WorkerId(m % 5)))
            })
            .collect();
        let cells: Vec<CellRouting> = grid
            .all_cells()
            .map(|c| match (c.col + c.row) % 5 {
                0 => CellRouting::Single(WorkerId(c.col % 5)),
                1 => CellRouting::OwnedTerms((*maps[c.col as usize % 6]).clone()),
                _ => CellRouting::SharedTerms(Arc::clone(&maps[(c.row + c.col) as usize % 6])),
            })
            .collect();
        let mut stats = TermStats::new();
        for t in 0..12u32 {
            for _ in 0..(t * 5) % 7 {
                stats.observe(&[TermId(t)]);
            }
        }
        let stats = Arc::new(stats);
        let table = RoutingTable::new(grid.clone(), cells, 5, Arc::clone(&stats), "mixed");
        let sorted = |mut ws: Vec<WorkerId>| {
            ws.sort();
            ws
        };
        let everyone: Vec<WorkerId> = (0..5).map(WorkerId).collect();
        for i in 0..200u32 {
            let terms = |k: u32| TermId((i * 5 + k * 3) % 12);
            let keywords = match i % 3 {
                0 => BooleanExpr::and_of([terms(0), terms(1), terms(2)]),
                1 => BooleanExpr::or_of([terms(0), terms(1), terms(2)]),
                _ => BooleanExpr::from_dnf([vec![terms(0), terms(1)], vec![terms(2)]]),
            };
            let (x, y) = ((i % 13) as f64, (i % 11) as f64);
            let side = 1.0 + (i % 7) as f64;
            let q = StsQuery::new(
                QueryId(u64::from(i)),
                SubscriberId(1),
                keywords,
                Rect::from_coords(x, y, x + side, y + side),
            );
            let mut inserts = Vec::new();
            for cell in grid.cells_overlapping(&q.region) {
                let routing = table.cell_routing(cell);
                for conj in q.keywords.conjunctions() {
                    let t = *conj
                        .iter()
                        .min_by_key(|t| (stats.frequency(**t), t.0))
                        .unwrap();
                    inserts.push(routing.worker_for(t));
                }
            }
            inserts.sort();
            inserts.dedup();
            assert_eq!(sorted(table.route_insert(&q)), inserts, "insert of {q:?}");
            // a deletion reaches every worker
            assert_eq!(sorted(table.route_delete(&q)), everyone, "delete of {q:?}");
        }
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
