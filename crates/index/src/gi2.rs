//! GI² — the Grid-Inverted-Index maintained by every worker.
//!
//! Following Section IV-D of the paper, every worker organizes its STS
//! queries in a uniform grid; inside each cell overlapped by a query's
//! region, the query is appended to the inverted list of its least frequent
//! keyword (one per conjunction of the DNF, which generalizes the paper's
//! AND-only / OR rule). Deletions are eager: a deletion request carries the
//! full query (Section IV-C), so [`Gi2Index::delete_by_id`] unposts it from
//! every (cell, posting term) entry it was posted under and frees its slot
//! before returning. Posting lists therefore only ever hold live queries.
//! The cells a query is unposted from follow from its region (minus any
//! cell migration extracted), and its posting terms sit in place, so a
//! stored paper-shaped query owns no heap block.
//!
//! # The matching kernel
//!
//! The per-object hot loop is allocation-free in steady state:
//!
//! * queries live in a `QuerySlab` (see [`crate::slab`]); posting lists
//!   carry dense `u32` slot ids, so fetching a candidate is an array index
//!   (no `HashMap<QueryId, _>` probe per candidate);
//! * a candidate is checked in one step: the first time an object reaches
//!   its slot, the query itself is verified against the object
//!   ([`StsQuery::matches`]);
//! * per-object state (candidate dedup, result buffer) lives in a reusable
//!   [`MatchScratch`] — dedup is an epoch-stamped visit array, cleared by
//!   bumping an epoch counter;
//! * matching only reads posting lists (plus one hit counter per list it
//!   walks): every posted slot is live, so there is no liveness branch and
//!   no compaction in the candidate loop;
//! * [`Gi2Index::match_batch`] amortizes the work counters and the visit
//!   array's sizing across a whole batch of objects.
//!
//! # One posting-term table
//!
//! A query's posting terms are picked from the routing table's frozen
//! [`TermStats`], shared through one `Arc` by the dispatchers and every
//! worker's index: a worker posts a query under exactly the (cell, term)
//! keys the dispatcher registered in `H2` for it. Matching never updates the
//! table, and its bytes are counted once, on the routing side.
//!
//! The same table decides each posting term's **class**. A term carried by
//! fewer than 1 in 1,000 of its objects is cold: a query is filed under it
//! once, as a (cell block, slot) posting in the index's cold store (see
//! [`crate::cell`]), instead of once in every cell its region overlaps.
//! Other terms are hot and keep their per-cell entries. Matching an object
//! in cell `c` walks, for a cold term, the postings whose block contains
//! `c`: exactly the slots a per-cell list would hold, in the same order, so
//! candidates, results and work counters do not depend on the class. Over
//! an empty table nothing is cold. A term's class never changes under a
//! live posting: the table is set while the index is empty.
//!
//! Cell migration keeps this exact. The first cell extracted from a
//! cold-filed query re-files it per cell under all of its posting terms, so
//! a cold posting always covers its whole block and matching never checks
//! exclusions. The one per-cell array is the count of objects seen:
//! [`Gi2Index::cell_loads`] recounts each cell's queries from the stored
//! queries when asked, so the write path keeps no per-cell counter.

use crate::cell::{CellBlock, CellKey, CellTermStat, ColdPosting, ColdPostings, HotPostings};
use crate::scratch::MatchScratch;
use crate::slab::{QuerySlab, Slot, SlotId, StoredQuery};
use ps2stream_geo::{CellId, Rect, UniformGrid, MAX_GRID_EXP};
use ps2stream_model::{MatchResult, QueryId, SpatioTextualObject, StsQuery};
use ps2stream_text::{TermId, TermStats};
use std::sync::Arc;

/// Configuration of a GI² index.
#[derive(Debug, Clone, PartialEq)]
pub struct Gi2Config {
    /// Bounding rectangle of the indexed space.
    pub bounds: Rect,
    /// The grid has `2^granularity_exp × 2^granularity_exp` cells, at
    /// most [`MAX_GRID_EXP`]. The paper's evaluation uses 6 (a 64×64 grid).
    pub granularity_exp: u32,
}

impl Gi2Config {
    /// Creates a configuration with the paper's default granularity (2⁶×2⁶).
    pub fn new(bounds: Rect) -> Self {
        Self {
            bounds,
            granularity_exp: 6,
        }
    }

    /// Overrides the grid granularity exponent.
    pub fn with_granularity_exp(mut self, exp: u32) -> Self {
        self.granularity_exp = exp;
        self
    }
}

/// Per-cell load statistics exposed for dynamic load adjustment
/// (Definition 3: `L_g = n_o * n_q`; `S_g` = total query bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLoadStat {
    /// The cell.
    pub cell: CellId,
    /// Number of objects that fell into the cell during the current period.
    pub objects: u64,
    /// Number of queries currently stored in the cell.
    pub queries: usize,
    /// Total approximate size of the stored queries in bytes.
    pub bytes: usize,
}

impl CellLoadStat {
    /// The load of the cell per Definition 3: `n_o * n_q`.
    pub fn load(&self) -> f64 {
        self.objects as f64 * self.queries as f64
    }
}

/// The Grid-Inverted-Index of one worker.
#[derive(Debug, Clone)]
pub struct Gi2Index {
    grid: UniformGrid,
    /// The queries posted per cell under their hot posting terms.
    hot: HotPostings,
    /// The queries filed once under their cold posting terms.
    cold: ColdPostings,
    /// Per cell (row-major), the objects that fell into it since the last
    /// counter reset (the `n_o` quantity of Definition 3).
    objects_seen: Vec<u32>,
    /// Slab of stored queries; posting lists reference its live slots.
    slab: QuerySlab,
    /// The shared term table used to pick the least frequent keyword at
    /// insertion and to class it hot or cold (see the module docs).
    stats: Arc<TermStats>,
    /// Counters for the matching work performed (used by the load model).
    matches_checked: u64,
    objects_processed: u64,
}

impl Gi2Index {
    /// Creates an empty index over an empty term table.
    ///
    /// # Panics
    ///
    /// If `config.granularity_exp` exceeds [`MAX_GRID_EXP`].
    pub fn new(config: Gi2Config) -> Self {
        let exp = config.granularity_exp;
        assert!(
            exp <= MAX_GRID_EXP,
            "Gi2Index: grid exponent {exp} > {MAX_GRID_EXP}"
        );
        let grid = UniformGrid::with_power_of_two(config.bounds, exp);
        Self::empty(grid, Arc::default())
    }

    fn empty(grid: UniformGrid, stats: Arc<TermStats>) -> Self {
        Self {
            cold: ColdPostings::new(&grid),
            objects_seen: vec![0; grid.num_cells()],
            grid,
            hot: HotPostings::default(),
            slab: QuerySlab::new(),
            stats,
            matches_checked: 0,
            objects_processed: 0,
        }
    }

    /// Sets the term table used for least-frequent-keyword selection: the
    /// routing table's, so that worker and dispatcher pick the same posting
    /// terms. The table also classes each posting term hot or cold, so it
    /// is set on an empty index.
    ///
    /// # Panics
    ///
    /// If the index holds a query.
    pub fn set_term_stats(&mut self, stats: impl Into<Arc<TermStats>>) {
        assert_eq!(
            self.num_queries(),
            0,
            "the term table classes posting terms: set it before the first insert"
        );
        self.stats = stats.into();
    }

    /// Drops every query and counter, keeping the grid and the shared term
    /// table: what a crashed worker respawns from.
    pub fn clear(&mut self) {
        *self = Self::empty(self.grid.clone(), Arc::clone(&self.stats));
    }

    /// The grid geometry of the index.
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Number of live (non-deleted) queries stored in the index.
    pub fn num_queries(&self) -> usize {
        self.slab.num_live()
    }

    /// Returns true if a query id is currently stored (and not deleted).
    pub fn contains_query(&self, id: QueryId) -> bool {
        self.slab.find(id).is_some()
    }

    /// Total number of candidate query evaluations performed so far: one
    /// full boolean/spatial check per distinct candidate of each object.
    pub fn matches_checked(&self) -> u64 {
        self.matches_checked
    }

    /// Total number of objects processed so far.
    pub fn objects_processed(&self) -> u64 {
        self.objects_processed
    }

    /// Always 0: matching has no candidate prefilter. Kept only because the
    /// benchmark crate, whose sources are frozen, reads it.
    pub fn signature_rejections(&self) -> u64 {
        0
    }

    /// Inserts an STS query (Section IV-D posting rule): it is posted in
    /// every cell its region overlaps under its hot posting terms, and filed
    /// once with its block of cells under its cold ones. Re-inserting an
    /// existing id replaces the previous version. Into warm tables (a free
    /// slot, entries and arena indices to reuse) a paper-shaped query
    /// allocates nothing.
    pub fn insert(&mut self, query: StsQuery) {
        self.delete_by_id(query.id);
        let posting_terms = query
            .keywords
            .representative_terms(|t| self.stats.frequency(t));
        let slot = self.slab.insert(StoredQuery::new(query, posting_terms));
        let Gi2Index {
            slab,
            hot,
            cold,
            grid,
            stats,
            ..
        } = self;
        let sq = slab.get_live(slot).expect("slot was just filled");
        // nothing is excluded yet: the query's cells are its block's
        let block = cold_block(grid, sq);
        for &t in sq.posting_terms.iter() {
            match block {
                Some(block) if cold.is_cold(stats, t) => cold.file(t, ColdPosting { block, slot }),
                _ => hot.post(
                    t,
                    slot,
                    cell_keys(grid, sq),
                    block.map_or(0, CellBlock::num_cells),
                ),
            }
        }
    }

    /// Deletes a query given the full query description (the deletion request
    /// carries the complete query, Section IV-C).
    pub fn delete(&mut self, query: &StsQuery) -> bool {
        self.delete_by_id(query.id)
    }

    /// Deletes a query by id: unposts it from every (cell, posting term)
    /// entry and cold list it was filed in — one probe per term, entry or
    /// list, no allocation — and frees its slot. Returns false if the id was not
    /// stored.
    pub fn delete_by_id(&mut self, id: QueryId) -> bool {
        let Some(slot) = self.slab.find(id) else {
            return false;
        };
        let old = self.slab.free_live(slot);
        let Gi2Index {
            hot,
            cold,
            grid,
            stats,
            ..
        } = self;
        let block = cold_block(grid, &old);
        for &t in old.posting_terms.iter() {
            if block.is_some() && cold.is_cold(stats, t) {
                cold.unfile(t, slot);
            } else {
                hot.unpost(t, slot, cell_keys(grid, &old));
            }
        }
        true
    }

    /// Matches a batch of objects (of any size, one included) against the
    /// indexed queries, calling `sink(position, object, results)` once per
    /// object in order with one deduplicated [`MatchResult`] per satisfied
    /// query. Steady state performs **no allocation**. Amortized across the
    /// batch: the work counters and the sizing of the scratch's visit array
    /// (no query mutation can occur mid-batch).
    pub fn match_batch<'a, I, F>(&mut self, objects: I, scratch: &mut MatchScratch, mut sink: F)
    where
        I: Iterator<Item = &'a SpatioTextualObject>,
        F: FnMut(usize, &'a SpatioTextualObject, &[MatchResult]),
    {
        // The slab cannot grow mid-batch (matching takes no query updates),
        // so the visit array is sized once here and each object only bumps
        // the dedup epoch.
        scratch.begin_batch(self.slab.capacity());
        let mut processed = 0u64;
        for (i, object) in objects.enumerate() {
            processed += 1;
            scratch.results.clear();
            if let Some(cell) = self.grid.cell_of(&object.location) {
                let idx = self.grid.cell_index(cell);
                self.objects_seen[idx] = self.objects_seen[idx].saturating_add(1);
                scratch.next_epoch();
                Self::match_in_cell(
                    &mut self.hot,
                    &self.cold,
                    &self.slab,
                    cell,
                    idx as CellKey,
                    object,
                    scratch,
                    &mut self.matches_checked,
                );
            }
            sink(i, object, &scratch.results);
        }
        self.objects_processed += processed;
    }

    /// The candidate loop of one object in one cell: walks the posting lists
    /// of the object's terms — the term's entry in the cell, then its cold
    /// postings whose block holds the cell — deduplicating candidates via the scratch
    /// epoch and checking each distinct one against the object. Each entry
    /// walked records one object hit.
    ///
    /// The caller must have prepared the scratch for this object (visit
    /// array sized to the slab, dedup epoch bumped).
    #[allow(clippy::too_many_arguments)]
    fn match_in_cell(
        hot: &mut HotPostings,
        cold: &ColdPostings,
        slab: &QuerySlab,
        cell: CellId,
        key: CellKey,
        object: &SpatioTextualObject,
        scratch: &mut MatchScratch,
        matches_checked: &mut u64,
    ) {
        let slots = slab.slots();
        let mut candidate = |s: SlotId| {
            if !scratch.first_visit(s) {
                return;
            }
            *matches_checked += 1;
            let Slot::Live(sq) = &slots[s.index()] else {
                unreachable!("posting of a free slot");
            };
            if sq.query.matches(object) {
                scratch.results.push(MatchResult::new(
                    sq.query.id,
                    sq.query.subscriber,
                    object.id,
                ));
            }
        };
        let cell_bit = cold.cell_bit(cell);
        for &term in &object.terms {
            if let Some((entry, arena)) = hot.traverse(term, key) {
                for &s in entry.slots(arena) {
                    candidate(s);
                }
                entry.note_object_hit();
            }
            if cold.may_cover(term, cell_bit) {
                for p in cold.postings(term) {
                    if p.block.contains(cell) {
                        candidate(p.slot);
                    }
                }
            }
        }
    }

    /// Per-cell load statistics for every cell that stores a query or saw an
    /// object, in row-major order, used by the dynamic load adjustment
    /// algorithms. The queries and bytes are recounted from the stored
    /// queries: one pass over the cells of each.
    pub fn cell_loads(&self) -> Vec<CellLoadStat> {
        let mut loads: Vec<CellLoadStat> = (self.objects_seen.iter().enumerate())
            .map(|(idx, &objects)| CellLoadStat {
                cell: self.grid.cell_from_index(idx),
                objects: u64::from(objects),
                queries: 0,
                bytes: 0,
            })
            .collect();
        for (_, sq) in self.slab.iter_live() {
            for cell in sq.cells(&self.grid) {
                let load = &mut loads[self.grid.cell_index(cell)];
                load.queries += 1;
                load.bytes += sq.bytes();
            }
        }
        loads.retain(|l| l.objects > 0 || l.queries > 0);
        loads
    }

    /// Per-term statistics of one cell (queries posted and recent object
    /// hits), consumed by the Phase-I text-split decision of the local load
    /// adjustment. A cold term lists its cold-filed queries covering the
    /// cell too, with no object hits for them (see [`CellTermStat`]).
    ///
    /// It costs what a report of every cell costs; to report many cells, use
    /// [`Gi2Index::for_each_cell_term_stat`].
    pub fn cell_term_stats(&self, cell: CellId) -> Vec<CellTermStat> {
        let mut out = Vec::new();
        self.for_each_cell_term_stat(|c, stat| {
            if c == cell {
                out.push(stat);
            }
        });
        out
    }

    /// Streams the per-term statistics of every cell to `f`, cells in
    /// row-major order and terms ascending within a cell: per (cell, term),
    /// its entry's counts plus the term's cold postings covering the cell.
    pub fn for_each_cell_term_stat<F: FnMut(CellId, CellTermStat)>(&self, mut f: F) {
        // (cell, term, queries, object hits): one row per hot entry, and
        // one per cell of each cold posting's block
        let mut rows: Vec<(CellKey, TermId, u64, u64)> = Vec::new();
        self.hot
            .for_each_entry(|cell, s| rows.push((cell, s.term, s.queries, s.object_hits)));
        self.cold.for_each_posting(|term, p| {
            rows.extend(
                p.block
                    .cells()
                    .map(|c| (self.grid.cell_index(c) as CellKey, term, 1, 0)),
            );
        });
        rows.sort_unstable();
        for run in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let stat = CellTermStat {
                term: run[0].1,
                queries: run.iter().map(|r| r.2).sum(),
                object_hits: run.iter().map(|r| r.3).sum(),
            };
            f(self.grid.cell_from_index(usize::from(run[0].0)), stat);
        }
    }

    /// Resets the per-cell object counters (start of a new load period).
    pub fn reset_load_counters(&mut self) {
        self.objects_seen.fill(0);
        self.hot.reset_hits();
        self.matches_checked = 0;
        self.objects_processed = 0;
    }

    /// The slots of the live queries stored in `cell` — posted in its
    /// entries or filed cold with a block holding it — sorted, each once.
    fn queries_in_cell(&self, cell: CellId) -> Vec<SlotId> {
        let mut slots = Vec::new();
        self.cold.for_each_posting(|_, p| {
            if p.block.contains(cell) {
                slots.push(p.slot);
            }
        });
        self.hot
            .slots_in(self.grid.cell_index(cell) as CellKey, &mut slots);
        slots
    }

    /// Extracts every live query stored in `cell` that satisfies `filter`,
    /// removing its postings there. Queries that are still posted in other
    /// cells of this index remain stored; queries whose last cell was
    /// extracted are removed entirely; the others record the cell as
    /// excluded, and a query's first excluded cell re-files it per cell
    /// under its cold posting terms too. Returns clones of the extracted
    /// queries in id order — this is the unit of migration of the dynamic
    /// load adjustment (queries are migrated cell by cell).
    pub fn extract_cell_where<F: Fn(&StsQuery) -> bool>(
        &mut self,
        cell: CellId,
        filter: F,
    ) -> Vec<StsQuery> {
        let slots = self.queries_in_cell(cell);
        let mut extracted = Vec::new();
        let Gi2Index {
            slab,
            hot,
            cold,
            grid,
            stats,
            ..
        } = self;
        let key = grid.cell_index(cell) as CellKey;
        for &slot in &slots {
            let sq = slab.get_live_mut(slot).expect("posted slots are live");
            if !filter(&sq.query) {
                continue;
            }
            extracted.push(sq.query.clone());
            // Remove this cell's postings for the query; cold ones move to
            // the entries of its other cells.
            let block = cold_block(grid, sq);
            for &t in sq.posting_terms.iter() {
                match block {
                    Some(block) if cold.is_cold(stats, t) => {
                        cold.unfile(t, slot);
                        let others = cell_keys(grid, sq).filter(|&k| k != key);
                        hot.post(t, slot, others, block.num_cells() - 1);
                    }
                    _ => hot.unpost(t, slot, std::iter::once(key)),
                }
            }
            if sq.cells(grid).any(|c| c != cell) {
                sq.exclude(cell);
            } else {
                let _ = slab.free_live(slot);
            }
        }
        extracted.sort_by_key(|q| q.id);
        extracted
    }

    /// Extracts every live query posted in `cell` (see
    /// [`Gi2Index::extract_cell_where`]).
    pub fn extract_cell(&mut self, cell: CellId) -> Vec<StsQuery> {
        self.extract_cell_where(cell, |_| true)
    }

    /// Clones every live query stored in `cell` that satisfies `filter`,
    /// leaving the cell untouched — the unit of **text-split** migration.
    /// A term split moves only some of a cell's terms to another worker;
    /// a query whose representative terms straddle the moved and remaining
    /// groups must exist on *both* workers or objects routed by the
    /// not-moved terms stop matching it (the merger deduplicates the
    /// replicas' results). Queries are returned in id order.
    pub fn replicate_cell_where<F: Fn(&StsQuery) -> bool>(
        &self,
        cell: CellId,
        filter: F,
    ) -> Vec<StsQuery> {
        let mut out: Vec<StsQuery> = self
            .queries_in_cell(cell)
            .into_iter()
            .filter_map(|slot| {
                let sq = self.slab.get_live(slot)?;
                filter(&sq.query).then(|| sq.query.clone())
            })
            .collect();
        out.sort_by_key(|q| q.id);
        out
    }

    /// Approximate memory footprint of the index in bytes (posting entries,
    /// spilled lists, cold postings, the per-cell object counters and the
    /// query slab; the shared term table is counted with the routing table).
    pub fn memory_usage(&self) -> usize {
        self.hot.memory_usage()
            + self.cold.memory_usage()
            + std::mem::size_of_val::<[u32]>(&self.objects_seen)
            + self.slab.memory_usage()
            + std::mem::size_of::<Self>()
    }

    /// Iterates over all live queries, in slab order (used by the snapshot
    /// serializer and tests).
    pub fn queries(&self) -> impl Iterator<Item = &StsQuery> + '_ {
        self.slab.iter_live().map(|(_, sq)| &sq.query)
    }
}

/// The keys (row-major indices) of the cells a stored query is posted in.
#[inline]
fn cell_keys<'a>(grid: &'a UniformGrid, sq: &'a StoredQuery) -> impl Iterator<Item = CellKey> + 'a {
    sq.cells(grid).map(|c| grid.cell_index(c) as CellKey)
}

/// The block of cells a stored query's cold posting terms are filed with:
/// its region's, while no cell of it is excluded. `None` when the query is
/// posted per cell under every posting term (an excluded cell re-filed it,
/// or its region misses the grid).
fn cold_block(grid: &UniformGrid, sq: &StoredQuery) -> Option<CellBlock> {
    if !sq.excluded.is_empty() {
        return None;
    }
    let (lo, hi) = grid.cell_span(&sq.query.region)?;
    Some(CellBlock::new(lo, hi))
}

#[cfg(test)]
impl Gi2Index {
    /// Matches a batch of one with a throw-away scratch — shorthand for the
    /// unit tests of this crate.
    pub(crate) fn match_one(&mut self, object: &SpatioTextualObject) -> Vec<MatchResult> {
        let mut results = Vec::new();
        self.match_batch(
            std::iter::once(object),
            &mut MatchScratch::new(),
            |_, _, r| results.extend_from_slice(r),
        );
        results
    }

    /// Whether an extraction re-filed some query per cell under a cold
    /// posting term: the one case in which an object's results can come in
    /// another order than over an empty term table (a re-filed query sits
    /// in the cell's entry, which is walked before the cold list).
    pub(crate) fn holds_refiled_cold_postings(&self) -> bool {
        self.slab.iter_live().any(|(_, sq)| {
            !sq.excluded.is_empty()
                && sq
                    .posting_terms
                    .iter()
                    .any(|&t| self.cold.is_cold(&self.stats, t))
        })
    }

    /// Panics unless the postings, the arena, the cold store and the slab
    /// agree exactly:
    /// * every posted slot is live, and posted at most once per list;
    /// * every live query is posted in exactly its region's cells minus its
    ///   exclusions, times its per-cell posting terms;
    /// * a query with no excluded cell has one cold posting, with its
    ///   region's block, under each cold posting term, and a query with an
    ///   excluded cell has none;
    /// * every cold posting is a live query's, and every cold term's mask
    ///   is the OR of its postings' coarse cells;
    /// * every live arena list is referenced by exactly one entry and holds
    ///   at least 3 slots (2 cold postings), and every released list is
    ///   empty and listed once;
    /// * the slab's capacity is its live slots plus its free list.
    pub(crate) fn audit(&self) {
        self.slab.audit();
        self.cold.audit();
        assert_eq!(self.objects_seen.len(), self.grid.num_cells());
        let mut expected = 0usize;
        let mut expected_cold = 0usize;
        for (slot, sq) in self.slab.iter_live() {
            let id = sq.query.id;
            for (i, &cell) in sq.excluded.iter().enumerate() {
                let mut overlaps = self.grid.cells_overlapping_iter(&sq.query.region);
                assert!(
                    overlaps.any(|c| c == cell),
                    "{cell:?} excluded off the region"
                );
                assert!(!sq.excluded[..i].contains(&cell), "{cell:?} excluded twice");
            }
            let block = cold_block(&self.grid, sq);
            let filed_cold = |t: TermId| block.is_some() && self.cold.is_cold(&self.stats, t);
            for &t in sq.posting_terms.iter() {
                let filed: Vec<ColdPosting> = self
                    .cold
                    .postings(t)
                    .iter()
                    .filter(|p| p.slot == slot)
                    .copied()
                    .collect();
                if let Some(block) = block.filter(|_| filed_cold(t)) {
                    assert_eq!(filed, [ColdPosting { block, slot }], "{id:?} under {t:?}");
                    expected_cold += 1;
                } else {
                    assert!(filed.is_empty(), "{id:?} filed cold under {t:?}");
                }
            }
            for cell in sq.cells(&self.grid) {
                let key = self.grid.cell_index(cell) as CellKey;
                for &t in sq.posting_terms.iter().filter(|&&t| !filed_cold(t)) {
                    let list = self.hot.postings(t, key).unwrap_or_default();
                    let n = list.iter().filter(|&&s| s == slot).count();
                    assert_eq!(n, 1, "{id:?} in {cell:?} under {t:?}");
                    expected += 1;
                }
            }
        }
        let mut filed_cold = 0usize;
        self.cold.for_each_posting(|term, p| {
            assert!(
                self.slab.get_live(p.slot).is_some(),
                "free {:?} filed under {term:?}",
                p.slot
            );
            filed_cold += 1;
        });
        assert_eq!(
            filed_cold, expected_cold,
            "cold postings beyond the live queries' own"
        );
        let mut posted = 0usize;
        self.hot.audit(|term, cell, list| {
            assert!(
                usize::from(cell) < self.grid.num_cells(),
                "cell {cell} off the grid"
            );
            assert!(!list.is_empty(), "empty list under {term:?} in cell {cell}");
            for &slot in list {
                let live = self.slab.get_live(slot).is_some();
                assert!(live, "free {slot:?} posted in cell {cell}");
            }
            posted += list.len();
        });
        assert_eq!(posted, expected, "postings beyond the live queries' own");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Point;
    use ps2stream_model::{ObjectId, SubscriberId};
    use ps2stream_text::BooleanExpr;

    fn config() -> Gi2Config {
        Gi2Config::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0)).with_granularity_exp(4)
    }

    fn query(id: u64, terms: &[u32], region: Rect) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::and_of(terms.iter().map(|t| ps2stream_text::TermId(*t))),
            region,
        )
    }

    fn or_query(id: u64, terms: &[u32], region: Rect) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::or_of(terms.iter().map(|t| ps2stream_text::TermId(*t))),
            region,
        )
    }

    fn object(id: u64, terms: &[u32], x: f64, y: f64) -> SpatioTextualObject {
        SpatioTextualObject::new(
            ObjectId(id),
            terms.iter().map(|t| ps2stream_text::TermId(*t)).collect(),
            Point::new(x, y),
        )
    }

    #[test]
    fn insert_and_match_and_query() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1, 2], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        idx.insert(query(2, &[3], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        assert_eq!(idx.num_queries(), 2);

        let results = idx.match_one(&object(100, &[1, 2, 9], 5.0, 5.0));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].query_id, QueryId(1));
        assert_eq!(results[0].object_id, ObjectId(100));

        // missing one AND term -> no match
        let results = idx.match_one(&object(101, &[1, 9], 5.0, 5.0));
        assert!(results.is_empty());

        // outside the region -> no match
        let results = idx.match_one(&object(102, &[1, 2], 50.0, 50.0));
        assert!(results.is_empty());
    }

    /// Matches `objects` in batches of `size`, returning each object's
    /// matched query ids (sorted) in stream order.
    fn match_chunked(
        idx: &mut Gi2Index,
        scratch: &mut MatchScratch,
        objects: &[SpatioTextualObject],
        size: usize,
    ) -> Vec<Vec<QueryId>> {
        let mut out = Vec::new();
        for chunk in objects.chunks(size) {
            let base = out.len();
            idx.match_batch(chunk.iter(), scratch, |i, o, r| {
                assert_eq!(base + i, out.len(), "sink positions count up in order");
                assert!(r.iter().all(|m| m.object_id == o.id));
                let mut ids: Vec<QueryId> = r.iter().map(|m| m.query_id).collect();
                ids.sort_unstable();
                out.push(ids);
            });
        }
        out
    }

    /// Everything matching leaves behind in the index, for comparing two
    /// indexes that must have done bit-identical work.
    fn work_done(idx: &Gi2Index) -> ([u64; 2], usize, usize) {
        (
            [idx.objects_processed(), idx.matches_checked()],
            idx.slab.capacity(),
            idx.memory_usage(),
        )
    }

    #[test]
    fn scratch_is_reused_across_batches_and_indexes() {
        let mut small = Gi2Index::new(config());
        small.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        let mut large = Gi2Index::new(config());
        for i in 0..50u64 {
            large.insert(query(i, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        }
        let hit = object(1, &[1], 5.0, 5.0);
        let miss = object(2, &[2], 5.0, 5.0);
        // one scratch serves batches of any size against slabs of any size:
        // no batch sees the results or visit stamps of the last
        let mut scratch = MatchScratch::new();
        let objects = [hit.clone(), miss, hit];
        for size in [1, 3] {
            let got = match_chunked(&mut small, &mut scratch, &objects, size);
            assert_eq!(got, [vec![QueryId(1)], vec![], vec![QueryId(1)]]);
            let got = match_chunked(&mut large, &mut scratch, &objects, size);
            assert_eq!(got[0].len(), 50);
            assert!(got[1].is_empty());
            assert_eq!(got[2].len(), 50);
        }
    }

    #[test]
    fn match_batch_is_batch_size_invariant() {
        let mut queries = Vec::new();
        for i in 0..20u64 {
            queries.push(query(
                i,
                &[(i % 5) as u32],
                Rect::from_coords(0.0, 0.0, 30.0, 30.0),
            ));
        }
        let mut whole = Gi2Index::new(config());
        for q in &queries {
            whole.insert(q.clone());
        }
        // delete a few: their slots go back to the free list
        for i in [3u64, 7, 11] {
            whole.delete_by_id(QueryId(i));
        }
        queries.retain(|q| ![3, 7, 11].contains(&q.id.0));
        let mut chunks = whole.clone();
        let mut singles = whole.clone();
        let objects: Vec<SpatioTextualObject> = (0..40u64)
            .map(|i| object(i, &[(i % 6) as u32], (i % 32) as f64, ((i * 7) % 32) as f64))
            .collect();
        let brute_force: Vec<Vec<QueryId>> = objects
            .iter()
            .map(|o| {
                let mut ids: Vec<QueryId> = queries
                    .iter()
                    .filter(|q| q.matches(o))
                    .map(|q| q.id)
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        assert!(brute_force.iter().any(|ids| !ids.is_empty()));
        let mut scratch = MatchScratch::new();
        // one batch of N ≡ batches of 7 ≡ N batches of one ≡ brute force
        for (idx, size) in [(&mut whole, 40), (&mut chunks, 7), (&mut singles, 1)] {
            let got = match_chunked(idx, &mut scratch, &objects, size);
            assert_eq!(got, brute_force, "batch size {size}");
        }
        assert_eq!(work_done(&whole), work_done(&singles));
        assert_eq!(work_done(&chunks), work_done(&singles));
        assert_eq!(singles.objects_processed(), 40);
    }

    #[test]
    fn match_batch_observes_objects_in_cells_whose_queries_were_all_deleted() {
        // A cell whose queries were all deleted holds no posting any more,
        // yet its objects are still counted, at any batch size.
        let mut batched = Gi2Index::new(config());
        for i in 0..4u64 {
            batched.insert(query(i, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        }
        for i in 0..4u64 {
            batched.delete_by_id(QueryId(i));
        }
        let cell = batched.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        assert!(batched.cell_term_stats(cell).is_empty());
        let mut singles = batched.clone();
        let objects: Vec<SpatioTextualObject> =
            (0..6u64).map(|i| object(i, &[1, 2], 1.0, 1.0)).collect();
        let mut scratch = MatchScratch::new();
        for (idx, size) in [(&mut batched, 6), (&mut singles, 1)] {
            let got = match_chunked(idx, &mut scratch, &objects, size);
            assert!(
                got.iter().all(Vec::is_empty),
                "deleted query must not match"
            );
            assert_eq!(idx.cell_loads()[0].objects, objects.len() as u64);
            assert_eq!(idx.matches_checked(), 0);
            idx.audit();
        }
        assert_eq!(work_done(&batched), work_done(&singles));
    }

    #[test]
    fn or_query_matches_any_keyword() {
        let mut idx = Gi2Index::new(config());
        idx.insert(or_query(
            1,
            &[5, 6],
            Rect::from_coords(0.0, 0.0, 64.0, 64.0),
        ));
        assert_eq!(idx.match_one(&object(1, &[5], 1.0, 1.0)).len(), 1);
        assert_eq!(idx.match_one(&object(2, &[6], 60.0, 60.0)).len(), 1);
        assert_eq!(idx.match_one(&object(3, &[7], 1.0, 1.0)).len(), 0);
        // both keywords present must still produce exactly one result
        assert_eq!(idx.match_one(&object(4, &[5, 6], 1.0, 1.0)).len(), 1);
    }

    #[test]
    fn query_spanning_many_cells_matches_everywhere_once() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 64.0, 64.0)));
        for (i, (x, y)) in [(1.0, 1.0), (30.0, 30.0), (63.0, 63.0)].iter().enumerate() {
            let res = idx.match_one(&object(i as u64, &[1], *x, *y));
            assert_eq!(res.len(), 1, "location ({x},{y})");
        }
    }

    #[test]
    fn delete_stops_matching() {
        let mut idx = Gi2Index::new(config());
        let q = query(1, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        idx.insert(q.clone());
        assert_eq!(idx.match_one(&object(1, &[1], 5.0, 5.0)).len(), 1);
        assert!(idx.delete(&q));
        assert_eq!(idx.num_queries(), 0);
        assert_eq!(idx.match_one(&object(2, &[1], 5.0, 5.0)).len(), 0);
        // deleting again is a no-op
        assert!(!idx.delete(&q));
    }

    #[test]
    fn deletion_removes_the_postings_at_once() {
        let mut idx = Gi2Index::new(config());
        let q = query(1, &[1], Rect::from_coords(0.0, 0.0, 3.0, 3.0));
        idx.insert(q.clone());
        let cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        assert_eq!(idx.cell_term_stats(cell).len(), 1);
        idx.delete(&q);
        // gone before any object walks the list
        assert!(idx.cell_term_stats(cell).is_empty());
        assert!(idx.slab.find(QueryId(1)).is_none());
        idx.audit();
        assert!(idx.match_one(&object(1, &[1], 1.0, 1.0)).is_empty());
        assert_eq!(idx.matches_checked(), 0);
    }

    #[test]
    fn reinsert_after_delete_matches_again() {
        let mut idx = Gi2Index::new(config());
        let q = query(1, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        idx.insert(q.clone());
        idx.delete(&q);
        idx.insert(q);
        assert_eq!(idx.match_one(&object(1, &[1], 5.0, 5.0)).len(), 1);
    }

    #[test]
    fn reinsert_same_id_replaces_query() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        idx.insert(query(1, &[2], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        assert_eq!(idx.num_queries(), 1);
        assert_eq!(idx.match_one(&object(1, &[1], 5.0, 5.0)).len(), 0);
        assert_eq!(idx.match_one(&object(2, &[2], 5.0, 5.0)).len(), 1);
    }

    #[test]
    fn slot_reuse_after_delete_never_resurrects_the_old_query() {
        let mut idx = Gi2Index::new(config());
        // q1 lives in one cell, posted under term 1
        let q1 = query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        idx.insert(q1.clone());
        let slot1 = idx.slab.find(QueryId(1)).unwrap();
        idx.delete(&q1);
        assert!(idx.match_one(&object(1, &[1], 1.0, 1.0)).is_empty());
        assert!(idx.slab.find(QueryId(1)).is_none());

        // a different query reuses the freed slot (LIFO free list)
        let q2 = query(2, &[2], Rect::from_coords(40.0, 40.0, 50.0, 50.0));
        idx.insert(q2);
        assert_eq!(idx.slab.find(QueryId(2)), Some(slot1));
        assert_eq!(idx.slab.capacity(), 1, "no slab growth on reuse");

        // an object that matched q1 must not match the reused slot's query
        assert!(idx.match_one(&object(2, &[1], 1.0, 1.0)).is_empty());
        // and q2 matches where it actually lives
        assert_eq!(idx.match_one(&object(3, &[2], 45.0, 45.0)).len(), 1);
    }

    #[test]
    fn slot_is_reused_at_once_after_a_delete() {
        let mut idx = Gi2Index::new(config());
        let q1 = query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        idx.insert(q1.clone());
        let slot1 = idx.slab.find(QueryId(1)).unwrap();
        idx.delete(&q1);
        // no matching traffic: the delete alone freed the slot for reuse
        idx.insert(query(2, &[2], Rect::from_coords(2.5, 2.5, 3.5, 3.5)));
        assert_eq!(idx.slab.find(QueryId(2)), Some(slot1));
        assert_eq!(idx.slab.capacity(), 1);
        idx.audit();
        // the old query never matches, and is not even a candidate
        assert!(idx.match_one(&object(1, &[1], 1.0, 1.0)).is_empty());
        assert_eq!(idx.matches_checked(), 0);
        assert_eq!(idx.match_one(&object(2, &[2], 3.0, 3.0)).len(), 1);
    }

    #[test]
    fn cell_loads_reflect_objects_and_queries() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 3.0, 3.0)));
        let _ = idx.match_one(&object(1, &[1], 1.0, 1.0));
        let _ = idx.match_one(&object(2, &[2], 1.0, 1.0));
        let loads = idx.cell_loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].objects, 2);
        assert_eq!(loads[0].queries, 1);
        assert!(loads[0].bytes > 0);
        assert!(loads[0].load() > 0.0);
        idx.reset_load_counters();
        assert_eq!(idx.cell_loads()[0].objects, 0);
    }

    #[test]
    fn extract_cell_moves_queries_out() {
        let mut idx = Gi2Index::new(config());
        // a query confined to one cell and one spanning the whole space
        idx.insert(query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        idx.insert(query(2, &[1], Rect::from_coords(0.0, 0.0, 64.0, 64.0)));
        let cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let extracted = idx.extract_cell(cell);
        assert_eq!(extracted.len(), 2);
        // the confined query is gone entirely, the spanning one remains
        assert!(!idx.contains_query(QueryId(1)));
        assert!(idx.contains_query(QueryId(2)));
        // objects in that cell no longer match anything here
        assert_eq!(idx.match_one(&object(1, &[1], 1.0, 1.0)).len(), 0);
        // but the spanning query still matches elsewhere
        assert_eq!(idx.match_one(&object(2, &[1], 40.0, 40.0)).len(), 1);
    }

    #[test]
    fn extract_cell_where_filters() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        idx.insert(query(2, &[2], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        let cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let extracted = idx.extract_cell_where(cell, |q| {
            q.keywords.contains_term(ps2stream_text::TermId(1))
        });
        assert_eq!(extracted.len(), 1);
        assert_eq!(extracted[0].id, QueryId(1));
        assert!(idx.contains_query(QueryId(2)));
    }

    #[test]
    fn deleted_postings_do_not_survive_cell_extraction() {
        // A query deleted with no matching traffic, whose cell is then
        // migrated out, must leave nothing behind in the cell: a later
        // re-insert of the same QueryId (with a different region and
        // keywords) must not bring a stale posting back.
        let mut idx = Gi2Index::new(config());
        // lives in exactly one cell, posted under term 1
        let q1 = query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        idx.insert(q1.clone());
        idx.delete(&q1);
        idx.audit();

        // migrate the cell out with no object ever having traversed the list
        let cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let extracted = idx.extract_cell(cell);
        assert!(extracted.is_empty(), "a deleted query must not migrate");
        assert!(idx.cell_term_stats(cell).is_empty());

        // re-insert the same id with a different region (elsewhere) and keywords
        let q1_new = query(1, &[2], Rect::from_coords(40.0, 40.0, 50.0, 50.0));
        idx.insert(q1_new);
        idx.audit();

        // an object in the old cell carrying the old keyword must not match —
        // and must not even reach a candidate check against a stale posting
        let checked_before = idx.matches_checked();
        let results = idx.match_one(&object(7, &[1], 1.0, 1.0));
        assert!(results.is_empty(), "stale posting resurrected a match");
        assert_eq!(
            idx.matches_checked(),
            checked_before,
            "a stale posting of the old generation was traversed as a candidate"
        );

        // a second extraction of the old cell must not ship the new query
        let re_extracted = idx.extract_cell(cell);
        assert!(re_extracted.is_empty());
        assert!(idx.contains_query(QueryId(1)));
        // the re-inserted query still works where it actually lives
        assert_eq!(idx.match_one(&object(8, &[2], 45.0, 45.0)).len(), 1);
    }

    #[test]
    fn replacing_a_live_id_purges_the_old_generation_postings() {
        // Re-inserting a live id (the replacement path, also exercised by
        // cell migration when a spanning query is re-shipped to a worker that
        // already holds it) must remove the old postings, or they would be
        // orphaned forever.
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        // replace with a different region and keywords
        idx.insert(query(1, &[2], Rect::from_coords(40.0, 40.0, 50.0, 50.0)));
        assert_eq!(idx.num_queries(), 1);
        idx.audit();

        // nothing of the old generation is traversed in the old cell
        let checked_before = idx.matches_checked();
        assert!(idx.match_one(&object(1, &[1], 1.0, 1.0)).is_empty());
        assert_eq!(idx.matches_checked(), checked_before);

        // the old cell ships nothing when migrated out
        let old_cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        assert!(idx.extract_cell(old_cell).is_empty());
        assert!(idx.contains_query(QueryId(1)));

        // re-inserting the same content repeatedly must not grow the posting
        // lists (no duplicate entries in the shared cell)
        let q = query(2, &[3], Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        idx.insert(q.clone());
        let mem_once = idx.memory_usage();
        for _ in 0..10 {
            idx.insert(q.clone());
        }
        assert_eq!(idx.memory_usage(), mem_once);
        assert_eq!(idx.match_one(&object(2, &[3], 5.0, 5.0)).len(), 1);
    }

    #[test]
    fn reinserting_a_deleted_id_posts_only_the_new_generation() {
        // delete (no matching traffic) then re-insert with a different
        // region: only the new generation's postings exist, each once.
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        idx.delete(&query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        idx.insert(query(1, &[1], Rect::from_coords(40.0, 40.0, 50.0, 50.0)));
        idx.audit();
        // the old cell holds nothing any more
        let old_cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        assert!(idx.cell_term_stats(old_cell).is_empty());
        let checked_before = idx.matches_checked();
        assert!(idx.match_one(&object(1, &[1], 1.0, 1.0)).is_empty());
        assert_eq!(idx.matches_checked(), checked_before);
        assert!(idx.extract_cell(old_cell).is_empty());
        // the new generation is posted once in each of its cells
        let new_cell = idx.grid().cell_of(&Point::new(45.0, 45.0)).unwrap();
        assert_eq!(idx.cell_term_stats(new_cell)[0].queries, 1);
        assert_eq!(idx.match_one(&object(2, &[1], 45.0, 45.0)).len(), 1);
    }

    #[test]
    fn extraction_after_deleting_a_multi_cell_query_finds_no_postings() {
        // A deleted query spanning two cells leaves neither cell any
        // posting: extracting one ships nothing, and the other holds nothing
        // for an object to walk.
        let mut idx = Gi2Index::new(config());
        // spans cells (0,0) and (1,0): x in [0.5, 6.5] crosses the 4.0 cell border
        let q = query(1, &[1], Rect::from_coords(0.5, 0.5, 6.5, 1.5));
        idx.insert(q.clone());
        idx.delete(&q);
        let left = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let right = idx.grid().cell_of(&Point::new(5.0, 1.0)).unwrap();
        assert!(idx.extract_cell(left).is_empty());
        assert!(idx.cell_term_stats(right).is_empty());
        idx.audit();
        assert!(idx.match_one(&object(1, &[1], 5.0, 1.0)).is_empty());
        assert_eq!(idx.matches_checked(), 0);
    }
    /// A query over the 2 × 2 cells around a spot picked by `id`, posted
    /// under a term no other query uses.
    fn rare_multi_cell_query(id: u64) -> StsQuery {
        let (x, y) = (
            2.0 + (id % 10) as f64 * 6.0,
            2.0 + (id / 10 % 10) as f64 * 6.0,
        );
        query(
            id,
            &[1_000 + id as u32],
            Rect::from_coords(x, y, x + 4.0, y + 4.0),
        )
    }

    #[test]
    fn deleting_without_matching_leaks_nothing() {
        // Most posting lists are never walked again once their query is
        // deleted, so deletion itself must give everything back.
        let mut idx = Gi2Index::new(config());
        for i in 0..100 {
            idx.insert(rare_multi_cell_query(i));
        }
        assert!(
            idx.cell_loads().len() > 100,
            "the queries span several cells"
        );
        for i in 0..100 {
            assert!(idx.delete_by_id(QueryId(i)));
        }
        for i in 100..200 {
            idx.insert(rare_multi_cell_query(i));
        }
        idx.audit();
        assert_eq!(idx.slab.capacity(), 100, "deleted slots are reused");
        let mut fresh = Gi2Index::new(config());
        for i in 100..200 {
            fresh.insert(rare_multi_cell_query(i));
        }
        assert_eq!(idx.memory_usage(), fresh.memory_usage());
    }

    #[test]
    fn migration_roundtrip_preserves_matching() {
        let mut source = Gi2Index::new(config());
        let mut target = Gi2Index::new(config());
        source.insert(query(1, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        let cell = source.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        for q in source.extract_cell(cell) {
            target.insert(q);
        }
        assert_eq!(source.match_one(&object(1, &[1], 1.0, 1.0)).len(), 0);
        assert_eq!(target.match_one(&object(1, &[1], 1.0, 1.0)).len(), 1);
    }

    #[test]
    fn memory_usage_grows_with_queries() {
        let mut idx = Gi2Index::new(config());
        let base = idx.memory_usage();
        for i in 0..100 {
            idx.insert(query(
                i,
                &[(i % 10) as u32],
                Rect::from_coords(0.0, 0.0, 20.0, 20.0),
            ));
        }
        assert!(idx.memory_usage() > base);
    }

    #[test]
    fn counters_track_work() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        let _ = idx.match_one(&object(1, &[1], 5.0, 5.0));
        assert_eq!(idx.objects_processed(), 1);
        assert_eq!(idx.matches_checked(), 1);
    }

    /// A term table of 1,000 objects that each carry every term of `hot`:
    /// every other term is cold.
    fn calibrated(hot: &[u32]) -> TermStats {
        let mut stats = TermStats::new();
        let terms: Vec<ps2stream_text::TermId> =
            hot.iter().map(|&t| ps2stream_text::TermId(t)).collect();
        for _ in 0..1_000 {
            stats.observe(&terms);
        }
        stats
    }

    /// An index over [`calibrated`]`(hot)`.
    fn calibrated_index(hot: &[u32]) -> Gi2Index {
        let mut idx = Gi2Index::new(config());
        idx.set_term_stats(calibrated(hot));
        idx
    }

    #[test]
    fn a_cold_term_is_filed_once_and_matches_like_per_cell_postings() {
        // term 1 is cold, term 2 hot; both queries span 3 × 3 cells
        let mut plain = Gi2Index::new(config());
        let mut cold = calibrated_index(&[2]);
        let region = Rect::from_coords(1.0, 1.0, 9.0, 9.0);
        for idx in [&mut plain, &mut cold] {
            idx.insert(query(1, &[1], region));
            idx.insert(query(2, &[2], region));
            idx.insert(query(3, &[1, 2], Rect::from_coords(5.0, 5.0, 6.0, 6.0)));
            idx.audit();
        }
        assert!(cold.memory_usage() < plain.memory_usage());
        assert_eq!(cold.cell_loads(), plain.cell_loads());
        for (i, (x, y)) in [(2.0, 2.0), (5.5, 5.5), (8.5, 1.5), (20.0, 20.0)]
            .into_iter()
            .enumerate()
        {
            let o = object(i as u64, &[1, 2], x, y);
            assert_eq!(
                cold.match_one(&o),
                plain.match_one(&o),
                "object at ({x}, {y})"
            );
        }
        assert_eq!(work_done(&cold).0, work_done(&plain).0);
        // the cold term lists its queries in every cell of the block, with
        // no object hits
        let cell = cold.grid().cell_of(&Point::new(5.5, 5.5)).unwrap();
        let mut stats = cold.cell_term_stats(cell);
        stats.sort_by_key(|s| s.term);
        let t = ps2stream_text::TermId;
        let stat = |term, queries, object_hits| CellTermStat {
            term,
            queries,
            object_hits,
        };
        // query 3 is posted under its rarer term, 1
        assert_eq!(stats, [stat(t(1), 2, 0), stat(t(2), 1, 1)]);
        let mut all = Vec::new();
        cold.for_each_cell_term_stat(|c, s| all.push((c, s)));
        assert_eq!(all.iter().filter(|(_, s)| s.term == t(1)).count(), 9);
        assert!(all.iter().any(|&(c, s)| c == cell && s == stats[0]));
        // deleting gives everything back, for the re-inserts to reuse
        let full = cold.memory_usage();
        let queries: Vec<StsQuery> = cold.queries().cloned().collect();
        for q in &queries {
            assert!(cold.delete_by_id(q.id));
        }
        cold.audit();
        assert!(cold.cell_term_stats(cell).is_empty());
        assert!(cold.cell_loads().iter().all(|c| c.queries == 0));
        for q in queries {
            cold.insert(q);
        }
        assert_eq!(cold.memory_usage(), full);
    }

    #[test]
    fn extracting_a_cell_refiles_a_cold_query_per_cell() {
        let mut idx = calibrated_index(&[]);
        // spans cells (0,0) and (1,0); term 1 is cold
        idx.insert(query(1, &[1], Rect::from_coords(0.5, 0.5, 6.5, 1.5)));
        idx.insert(query(2, &[1], Rect::from_coords(4.5, 0.5, 6.5, 1.5)));
        let left = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
        let right = idx.grid().cell_of(&Point::new(5.0, 1.0)).unwrap();
        assert!(idx
            .cell_term_stats(right)
            .iter()
            .all(|s| s.object_hits == 0));
        let moved = idx.extract_cell(left);
        assert_eq!(moved.len(), 1);
        assert!(idx.holds_refiled_cold_postings());
        idx.audit();
        // query 1 now has an entry in the right cell, next to query 2's
        // cold posting
        let stats = idx.cell_term_stats(right);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].queries, 2);
        assert!(idx.match_one(&object(1, &[1], 1.0, 1.0)).is_empty());
        let mut ids: Vec<QueryId> = idx
            .match_one(&object(2, &[1], 5.0, 1.0))
            .iter()
            .map(|m| m.query_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, [QueryId(1), QueryId(2)]);
        assert_eq!(idx.cell_term_stats(right)[0].object_hits, 1);
        // extracting the right cell moves both, and leaves nothing
        assert_eq!(idx.replicate_cell_where(right, |_| true).len(), 2);
        assert_eq!(idx.extract_cell(right).len(), 2);
        assert_eq!(idx.num_queries(), 0);
        idx.audit();
    }

    #[test]
    #[should_panic(expected = "set it before the first insert")]
    fn the_term_table_of_a_non_empty_index_cannot_change() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 3.0, 3.0)));
        idx.set_term_stats(calibrated(&[1]));
    }
}
