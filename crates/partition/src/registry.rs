//! The counted, term-major query-term registry (`H2`).
//!
//! The gridt routing table registers, for every cell, the terms under which
//! at least one live STS query is posted: objects carrying none of their
//! cell's registered terms are discarded at the dispatcher (Section IV-C).
//! A query is registered under each of its posting terms in every cell of
//! the block its region overlaps, and unregistered when it is deleted.
//!
//! [`TermRegistry`] keeps those pairs **term-major**: for each posting term,
//! one small `IdMap<u16, u16>` from cell index to the number of live
//! queries registered there. A query usually has one or two posting terms,
//! so registering or unregistering it touches one or two small tables, not
//! one table per overlapped cell; FAST (PAPERS.md) files a query once under
//! each keyword it can be reached by in the same way. A pair entry is 4
//! bytes, which is why a grid has at most [`MAX_CELLS`] cells. A pair whose
//! count reaches zero is removed, and so is a term whose last pair goes. A
//! count that reaches `u16::MAX` saturates and is never decremented:
//! over-registration only costs an object a wasted send.
//!
//! Beside the pairs, the registry keeps what it counted for each live
//! query id: its posting terms and its block of cells. A deletion uncounts
//! that record, whatever its own payload says, so a repeated delete, the
//! delete of an id that was never inserted, or one that carries another
//! region or other keywords cannot unregister a pair that a live query
//! holds. An insertion under a live id replaces the id's record: the new
//! pairs are counted and the old ones uncounted, as a worker replaces the
//! query it holds under that id.
//!
//! One `RwLock` covers the registry. An object probe takes it for reading
//! once; an update takes it for writing once, for all of its pairs. Beside
//! it, a lock-free per-cell count of registered terms lets the dispatcher
//! discard an object in a query-free cell without taking the lock. With
//! several dispatchers, updates serialize on this one lock, briefly, and
//! every probe of an occupied cell reads the same lock word; a cell-striped
//! layout would spread the probes but take a stripe lock per overlapped
//! cell on every update.
//!
//! A table emptied by a deletion is parked on a short spare list, and the
//! next new posting term takes it from there, so warm insert/delete cycles
//! allocate nothing while the tables held stay those of live terms.

use parking_lot::RwLock;
use ps2stream_geo::MAX_GRID_EXP;
use ps2stream_model::QueryId;
use ps2stream_text::{IdMap, RepresentativeTerms, TermId};
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::mem::size_of;
use std::sync::atomic::{AtomicU32, Ordering};

/// The most cells a registry (and so a routing grid) can have: a pair
/// stores its cell as a `u16`, which holds the cell index of the finest
/// grid, 2^[`MAX_GRID_EXP`] × 2^[`MAX_GRID_EXP`].
pub const MAX_CELLS: usize = 1 << (2 * MAX_GRID_EXP);

/// At most this many emptied tables are kept for reuse.
const SPARE_TABLES: usize = 64;
/// An emptied table with room for more pairs than this is freed, not kept.
const SPARE_TABLE_CAPACITY: usize = 64;

/// One posting term's cells: cell index → live queries registered there.
type CellCounts = IdMap<u16, u16>;

/// Posting terms a record keeps in place; most queries have one or two.
const INLINE_TERMS: usize = 2;

/// What [`TermRegistry::register`] counted for one live query id: 16
/// bytes.
#[derive(Clone, Copy)]
struct Registered {
    /// The indexes of the lowest and highest cells of the query's block,
    /// or `None` if its region misses the grid.
    block: Option<(u16, u16)>,
    /// The posting terms are `terms[..len]` while `len <= INLINE_TERMS`;
    /// past that they are kept in `Pairs::spilled`.
    len: u8,
    terms: [TermId; INLINE_TERMS],
}

const _: () = assert!(size_of::<Registered>() == 16);

impl Registered {
    fn new(terms: &[TermId], block: Option<(u16, u16)>) -> Self {
        let mut inline = [TermId(0); INLINE_TERMS];
        if terms.len() <= INLINE_TERMS {
            inline[..terms.len()].copy_from_slice(terms);
        }
        Self {
            block,
            len: terms.len().min(INLINE_TERMS + 1) as u8,
            terms: inline,
        }
    }

    fn spilled(&self) -> bool {
        usize::from(self.len) > INLINE_TERMS
    }

    /// The posting terms, given the id's spilled ones.
    fn terms<'a>(&'a self, spilled: Option<&'a RepresentativeTerms>) -> &'a [TermId] {
        match spilled {
            Some(terms) if self.spilled() => terms,
            _ => &self.terms[..usize::from(self.len).min(INLINE_TERMS)],
        }
    }
}

/// The registered pairs, the records of the live ids, and the spare tables.
#[derive(Clone)]
struct Pairs {
    terms: IdMap<TermId, CellCounts>,
    live: IdMap<QueryId, Registered>,
    /// The posting terms of the live ids with more than `INLINE_TERMS`.
    spilled: IdMap<QueryId, RepresentativeTerms>,
    spare: Vec<CellCounts>,
}

/// The counted `(cell, term)` registrations backing the `H2` filters of the
/// routing table. All methods take `&self`.
pub struct TermRegistry {
    pairs: RwLock<Pairs>,
    /// Number of distinct terms registered per cell (early-discard fast path).
    cell_terms: Vec<AtomicU32>,
    /// The grid's number of columns: cell index = row × `cols` + column.
    cols: usize,
}

impl TermRegistry {
    /// Creates an empty registry for a row-major grid of `cols × rows` cells.
    ///
    /// # Panics
    /// Panics if the grid is empty or has more than [`MAX_CELLS`] cells.
    pub fn new(cols: usize, rows: usize) -> Self {
        let num_cells = cols * rows;
        assert!(
            (1..=MAX_CELLS).contains(&num_cells),
            "TermRegistry: a grid has 1 to {MAX_CELLS} cells (2^{MAX_GRID_EXP} x 2^{MAX_GRID_EXP} at most), got {cols} x {rows}"
        );
        let mut cell_terms = Vec::with_capacity(num_cells);
        cell_terms.resize_with(num_cells, AtomicU32::default);
        Self {
            pairs: RwLock::new(Pairs {
                terms: IdMap::default(),
                live: IdMap::default(),
                spilled: IdMap::default(),
                spare: Vec::with_capacity(SPARE_TABLES),
            }),
            cell_terms,
            cols,
        }
    }

    /// Registers query `id` under each of its posting `terms` in every cell
    /// of the block whose lowest and highest cell indexes are `block`
    /// (`None` when the query's region misses the grid), one count per
    /// pair, under one write lock. If `id` is live already, its previous
    /// registration is unregistered.
    pub fn register(&self, id: QueryId, terms: RepresentativeTerms, block: Option<(usize, usize)>) {
        let block = block.map(|(lo, hi)| (lo as u16, hi as u16));
        let record = Registered::new(&terms, block);
        let mut pairs = self.pairs.write();
        let Pairs {
            terms: tables,
            live,
            spilled,
            spare,
        } = &mut *pairs;
        // count before uncounting, so pairs both copies hold stay in place
        self.count(tables, spare, &terms, block);
        let previous = live.insert(id, record);
        let previous_spill = match previous {
            Some(previous) if previous.spilled() => spilled.remove(&id),
            _ => None,
        };
        if record.spilled() {
            spilled.insert(id, terms);
        }
        if let Some(previous) = previous {
            let old = previous.terms(previous_spill.as_ref());
            self.uncount(tables, spare, old, previous.block);
        }
    }

    /// Unregisters query `id`: uncounts the pairs its registration counted,
    /// under one write lock. A pair whose count reaches zero is removed.
    /// Does nothing unless `id` is live. Returns true if it was.
    pub fn unregister(&self, id: QueryId) -> bool {
        let mut pairs = self.pairs.write();
        let Pairs {
            terms: tables,
            live,
            spilled,
            spare,
        } = &mut *pairs;
        let Some(record) = live.remove(&id) else {
            return false;
        };
        let spill = if record.spilled() {
            spilled.remove(&id)
        } else {
            None
        };
        self.uncount(tables, spare, record.terms(spill.as_ref()), record.block);
        true
    }

    /// The cell indexes of a block, row by row.
    fn cells(&self, block: Option<(u16, u16)>) -> impl Iterator<Item = usize> {
        let cols = self.cols;
        block.into_iter().flat_map(move |(lo, hi)| {
            let (lo, hi) = (usize::from(lo), usize::from(hi));
            (lo / cols..=hi / cols)
                .flat_map(move |row| (lo % cols..=hi % cols).map(move |col| row * cols + col))
        })
    }

    fn count(
        &self,
        terms: &mut IdMap<TermId, CellCounts>,
        spare: &mut Vec<CellCounts>,
        posting: &[TermId],
        block: Option<(u16, u16)>,
    ) {
        for &t in posting {
            let table = terms
                .entry(t)
                .or_insert_with(|| spare.pop().unwrap_or_default());
            for cell in self.cells(block) {
                let count = table.entry(cell as u16).or_insert(0);
                if *count == 0 {
                    self.cell_terms[cell].fetch_add(1, Ordering::Relaxed);
                }
                *count = count.saturating_add(1);
            }
        }
    }

    fn uncount(
        &self,
        terms: &mut IdMap<TermId, CellCounts>,
        spare: &mut Vec<CellCounts>,
        posting: &[TermId],
        block: Option<(u16, u16)>,
    ) {
        for t in posting {
            // a record's pairs were all counted, so every lookup hits
            let Some(table) = terms.get_mut(t) else {
                continue;
            };
            for cell in self.cells(block) {
                let Entry::Occupied(mut count) = table.entry(cell as u16) else {
                    continue;
                };
                match *count.get() {
                    u16::MAX => {}
                    1 => {
                        count.remove();
                        self.cell_terms[cell].fetch_sub(1, Ordering::Relaxed);
                    }
                    _ => *count.get_mut() -= 1,
                }
            }
            if table.is_empty() {
                if let Some(table) = terms.remove(t) {
                    if spare.len() < SPARE_TABLES && table.capacity() <= SPARE_TABLE_CAPACITY {
                        spare.push(table);
                    }
                }
            }
        }
    }

    /// Returns true if `term` is registered in `cell`.
    #[inline]
    pub fn contains(&self, cell: u32, term: TermId) -> bool {
        self.pairs
            .read()
            .terms
            .get(&term)
            .is_some_and(|cells| cells.contains_key(&(cell as u16)))
    }

    /// Returns true if the cell has no registered term at all (objects in it
    /// are discarded without taking the lock).
    #[inline]
    pub fn cell_is_empty(&self, cell: usize) -> bool {
        self.cell_terms
            .get(cell)
            .is_none_or(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// Probes several terms of one cell under a **single** read lock,
    /// calling `f` for each registered term in order; `f` returns false to
    /// stop early. This is the object hot path: one lock acquisition per
    /// object instead of one per term.
    pub fn probe_terms(&self, cell: u32, terms: &[TermId], mut f: impl FnMut(TermId) -> bool) {
        let pairs = self.pairs.read();
        let key = cell as u16;
        for &t in terms {
            let registered = pairs.terms.get(&t).is_some_and(|c| c.contains_key(&key));
            if registered && !f(t) {
                break;
            }
        }
    }

    /// The registered terms of one cell (a control-path scan of every live
    /// posting term's table, used by the dynamic load adjustment).
    pub fn terms_of_cell(&self, cell: u32) -> HashSet<TermId> {
        if self.cell_is_empty(cell as usize) {
            return HashSet::new();
        }
        let key = cell as u16;
        self.pairs
            .read()
            .terms
            .iter()
            .filter(|(_, cells)| cells.contains_key(&key))
            .map(|(&t, _)| t)
            .collect()
    }

    /// Total number of `(cell, term)` registrations.
    pub fn len(&self) -> usize {
        self.pairs.read().terms.values().map(IdMap::len).sum()
    }

    /// Returns true if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.cell_terms
            .iter()
            .all(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// Approximate memory footprint in bytes. Each hash table counts as its
    /// entries at their size plus 16 each, or as the bytes its buckets
    /// take (`table_bytes`), whichever is more; the second catches the room
    /// a table keeps after deletions.
    pub fn memory_usage(&self) -> usize {
        let pairs = self.pairs.read();
        let cells = |t: &CellCounts| table_bytes(t.len(), t.capacity(), size_of::<(u16, u16)>());
        let boxed_terms: usize = pairs
            .spilled
            .values()
            .map(|terms| match terms {
                RepresentativeTerms::Boxed(terms) => size_of_val::<[TermId]>(terms),
                RepresentativeTerms::Inline { .. } => 0,
            })
            .sum();
        size_of::<Self>()
            + table_bytes(
                pairs.terms.len(),
                pairs.terms.capacity(),
                size_of::<(TermId, CellCounts)>(),
            )
            + pairs.terms.values().map(cells).sum::<usize>()
            + pairs.spare.capacity() * size_of::<CellCounts>()
            + pairs.spare.iter().map(cells).sum::<usize>()
            + table_bytes(
                pairs.live.len(),
                pairs.live.capacity(),
                size_of::<(QueryId, Registered)>(),
            )
            + table_bytes(
                pairs.spilled.len(),
                pairs.spilled.capacity(),
                size_of::<(QueryId, RepresentativeTerms)>(),
            )
            + boxed_terms
            + self.cell_terms.len() * size_of::<AtomicU32>()
    }
}

/// The bytes a hash table with `len` entries of `entry` bytes and room for
/// `capacity` counts as: its entries at `entry + 16` bytes each, or its
/// allocation, whichever is more. The allocation is one control byte per
/// bucket plus a 16-byte group beside the buckets; a table with room for
/// `capacity` entries has `capacity + 1` buckets below 8, and otherwise the
/// power of two that `capacity` is 7/8 of. `capacity()` leaves out slots
/// that deletions turned into tombstones until the table next rehashes, so
/// the allocation found this way is a floor.
fn table_bytes(len: usize, capacity: usize, entry: usize) -> usize {
    let buckets = match capacity {
        0 => 0,
        1..8 => capacity + 1,
        _ => (capacity * 8 / 7).next_power_of_two(),
    };
    let allocated = if buckets == 0 {
        0
    } else {
        buckets * (entry + 1) + 16
    };
    (len * (entry + 16)).max(allocated)
}

impl Clone for TermRegistry {
    fn clone(&self) -> Self {
        Self {
            pairs: RwLock::new(self.pairs.read().clone()),
            cell_terms: self
                .cell_terms
                .iter()
                .map(|c| AtomicU32::new(c.load(Ordering::Relaxed)))
                .collect(),
            cols: self.cols,
        }
    }
}

impl std::fmt::Debug for TermRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermRegistry")
            .field("registrations", &self.len())
            .field("cells", &self.cell_terms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn terms(ts: &[u32]) -> RepresentativeTerms {
        RepresentativeTerms::Boxed(ts.iter().map(|&t| TermId(t)).collect())
    }

    /// Cells `lo..=hi` of a one-row grid.
    fn row(lo: usize, hi: usize) -> Option<(usize, usize)> {
        Some((lo, hi))
    }

    #[test]
    fn insert_and_contains() {
        let r = TermRegistry::new(16, 1);
        assert!(r.is_empty());
        assert!(r.cell_is_empty(3));
        r.register(QueryId(1), terms(&[7]), row(3, 3));
        r.register(QueryId(2), terms(&[7]), row(3, 4));
        assert!(r.contains(3, TermId(7)));
        assert!(!r.contains(3, TermId(8)));
        assert!(r.contains(4, TermId(7)));
        assert!(!r.contains(5, TermId(7)));
        assert!(!r.cell_is_empty(3));
        assert!(r.cell_is_empty(5));
        assert_eq!(r.len(), 2);
        // (3, 7) is counted twice: the first delete keeps it
        assert!(r.unregister(QueryId(2)));
        assert!(r.contains(3, TermId(7)));
        assert!(!r.contains(4, TermId(7)));
        assert!(r.cell_is_empty(4));
        // a repeated delete changes nothing
        assert!(!r.unregister(QueryId(2)));
        assert!(r.contains(3, TermId(7)));
        assert!(r.unregister(QueryId(1)));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn a_block_spans_rows_and_columns() {
        // a 4 x 3 grid; the block from (col 1, row 0) to (col 2, row 2)
        let r = TermRegistry::new(4, 3);
        r.register(QueryId(1), terms(&[5]), Some((1, 2 * 4 + 2)));
        let cells: Vec<u32> = (0..12).filter(|&c| r.contains(c, TermId(5))).collect();
        assert_eq!(cells, vec![1, 2, 5, 6, 9, 10]);
        // a region that misses the grid registers nothing, but is live
        r.register(QueryId(2), terms(&[5]), None);
        assert_eq!(r.len(), 6);
        assert!(r.unregister(QueryId(2)));
        assert!(r.unregister(QueryId(1)));
        assert!(r.is_empty());
    }

    #[test]
    fn a_saturated_count_is_never_decremented() {
        let r = TermRegistry::new(1, 1);
        let ids = u64::from(u16::MAX) + 2;
        for id in 0..ids {
            r.register(QueryId(id), terms(&[1]), row(0, 0));
        }
        for id in 0..ids {
            assert!(r.unregister(QueryId(id)));
        }
        assert!(
            r.contains(0, TermId(1)),
            "a saturated pair stays registered"
        );
    }

    #[test]
    fn a_reinsert_under_a_live_id_replaces_its_registration() {
        // as a worker replaces the query it holds under the id
        let r = TermRegistry::new(4, 1);
        r.register(QueryId(2), terms(&[1]), row(0, 0));
        r.register(QueryId(1), terms(&[1]), row(0, 1));
        r.register(QueryId(1), terms(&[2]), row(1, 1));
        assert!(r.contains(0, TermId(1)), "query 2 still holds (0, 1)");
        assert!(!r.contains(1, TermId(1)));
        assert!(r.contains(1, TermId(2)));
        assert_eq!(r.len(), 2);
        assert!(r.unregister(QueryId(1)));
        assert!(!r.unregister(QueryId(1)));
        assert!(r.contains(0, TermId(1)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn emptied_tables_are_dropped_from_the_term_map() {
        let r = TermRegistry::new(8, 1);
        for t in 0..100u32 {
            r.register(QueryId(u64::from(t)), terms(&[t]), row(5, 6));
        }
        let full = r.memory_usage();
        for t in 0..100u64 {
            r.unregister(QueryId(t));
        }
        assert!(r.is_empty());
        assert!(r.pairs.read().terms.is_empty());
        assert!(r.pairs.read().spare.len() <= SPARE_TABLES);
        assert!(r.memory_usage() < full);
    }

    #[test]
    fn terms_of_cell_is_per_cell() {
        let r = TermRegistry::new(8, 1);
        for t in 0..100u32 {
            r.register(QueryId(u64::from(t)), terms(&[t]), row(5, 5));
        }
        r.register(QueryId(100), terms(&[1]), row(6, 6));
        let registered = r.terms_of_cell(5);
        assert_eq!(registered.len(), 100);
        assert!(registered.contains(&TermId(42)));
        assert_eq!(r.terms_of_cell(6).len(), 1);
        assert_eq!(r.terms_of_cell(7).len(), 0);
        assert_eq!(r.len(), 101);
    }

    #[test]
    fn probe_terms_filters_and_stops_early() {
        let r = TermRegistry::new(8, 1);
        r.register(QueryId(1), terms(&[1, 3]), row(2, 2));
        let probe = |t: &[u32]| t.iter().map(|&t| TermId(t)).collect::<Vec<_>>();
        let mut seen = Vec::new();
        r.probe_terms(2, &probe(&[0, 1, 2, 3]), |t| {
            seen.push(t);
            true
        });
        assert_eq!(seen, vec![TermId(1), TermId(3)]);
        // early exit after the first registered term
        let mut seen = Vec::new();
        r.probe_terms(2, &probe(&[1, 3]), |t| {
            seen.push(t);
            false
        });
        assert_eq!(seen, vec![TermId(1)]);
        // unregistered cell probes nothing
        r.probe_terms(5, &probe(&[1]), |_| panic!("cell 5 has no terms"));
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        let r = TermRegistry::new(4, 1);
        r.register(QueryId(1), terms(&[1]), row(1, 1));
        let snapshot = r.clone();
        r.register(QueryId(2), terms(&[2]), row(1, 1));
        r.unregister(QueryId(1));
        assert!(snapshot.contains(1, TermId(1)));
        assert!(!snapshot.contains(1, TermId(2)));
        assert!(r.contains(1, TermId(2)));
        assert!(!r.contains(1, TermId(1)));
    }

    #[test]
    fn concurrent_registration_under_shared_reference() {
        let r = Arc::new(TermRegistry::new(64, 1));
        let handles: Vec<_> = (0..4u64)
            .map(|thread| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        // every thread registers the same pairs: heavy collisions
                        let (cell, term) = (i as usize % 64, i % 250);
                        let id = QueryId(thread * 1000 + u64::from(i));
                        r.register(id, terms(&[term]), row(cell, cell));
                        assert!(r.contains(cell as u32, TermId(term)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // (i % 64, i % 250) is injective over 0..500 (lcm(64, 250) > 500)
        assert_eq!(r.len(), 500);
    }

    // small spaces so probes often hit several registered terms and stop
    // early, and queries often share pairs
    const CELLS: u32 = 6;
    const TERMS: u32 = 12;
    const IDS: u64 = 8;

    /// A query's registration: distinct sorted posting terms, and the cells
    /// `lo..=hi` of its region in a one-row grid.
    #[derive(Debug, Clone)]
    struct Registration {
        terms: Vec<u32>,
        lo: usize,
        hi: usize,
    }

    fn arb_registration() -> impl Strategy<Value = Registration> {
        (
            proptest::collection::vec(0..TERMS, 1..4),
            0..CELLS as usize,
            0..3usize,
        )
            .prop_map(|(terms, lo, extra)| {
                let distinct: BTreeSet<u32> = terms.into_iter().collect();
                Registration {
                    terms: distinct.into_iter().collect(),
                    lo,
                    hi: (lo + extra).min(CELLS as usize - 1),
                }
            })
    }

    /// One step of `registry_matches_a_reference_model`. An insert carries
    /// one of the sample registrations; a delete names only an id.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, usize),
        Delete(u64),
        Contains(u32, TermId),
        /// Probe distinct terms of a cell, stopping after `stop` callbacks.
        Probe(u32, Vec<TermId>, usize),
        TermsOf(u32),
    }

    fn arb_op(registrations: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..IDS, 0..registrations).prop_map(|(id, reg)| Op::Insert(id, reg)),
            3 => (0..IDS).prop_map(Op::Delete),
            2 => (0..CELLS, 0..TERMS).prop_map(|(c, t)| Op::Contains(c, TermId(t))),
            3 => (0..CELLS, proptest::collection::vec(0..TERMS, 0..10), 1usize..5).prop_map(
                |(c, terms, stop)| {
                    let mut seen = HashSet::new();
                    let distinct = terms.into_iter().filter(|t| seen.insert(*t));
                    Op::Probe(c, distinct.map(TermId).collect(), stop)
                }
            ),
            1 => (0..CELLS).prop_map(Op::TermsOf),
        ]
    }

    /// Adds `delta` to the model's count of each pair of `reg`, removing
    /// pairs that reach zero; a saturated count is never decremented.
    fn apply(counts: &mut BTreeMap<(u32, TermId), u16>, reg: &Registration, delta: i8) {
        for &t in &reg.terms {
            for c in reg.lo..=reg.hi {
                let key = (c as u32, TermId(t));
                let count = counts.entry(key).or_insert(0);
                match (delta, *count) {
                    (1, n) => *count = n.saturating_add(1),
                    (_, u16::MAX) => {}
                    (_, n) if n > 1 => *count -= 1,
                    _ => {
                        counts.remove(&key);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The registry behaves exactly like a counted model: a `BTreeMap`
        /// from `(cell, term)` to its live count plus the live ids and what
        /// each registered. Inserts, deletes, double deletes, deletes of
        /// never-inserted ids and re-inserts of live ids under another
        /// registration all occur; probes yield each registered input term
        /// once, in input order.
        #[test]
        fn registry_matches_a_reference_model(
            registrations in proptest::collection::vec(arb_registration(), 4),
            ops in proptest::collection::vec(arb_op(4), 1..80),
        ) {
            let r = TermRegistry::new(CELLS as usize, 1);
            let mut counts: BTreeMap<(u32, TermId), u16> = BTreeMap::new();
            let mut live: BTreeMap<u64, usize> = BTreeMap::new();
            let registered = |counts: &BTreeMap<(u32, TermId), u16>, c: u32, t: TermId| {
                counts.contains_key(&(c, t))
            };
            for op in ops {
                match op {
                    Op::Insert(id, reg) => {
                        let new = &registrations[reg];
                        r.register(QueryId(id), terms(&new.terms), row(new.lo, new.hi));
                        apply(&mut counts, new, 1);
                        if let Some(old) = live.insert(id, reg) {
                            apply(&mut counts, &registrations[old], -1);
                        }
                    }
                    Op::Delete(id) => {
                        let was_live = live.remove(&id);
                        prop_assert_eq!(r.unregister(QueryId(id)), was_live.is_some());
                        if let Some(old) = was_live {
                            apply(&mut counts, &registrations[old], -1);
                        }
                    }
                    Op::Contains(c, t) => {
                        prop_assert_eq!(r.contains(c, t), registered(&counts, c, t));
                    }
                    Op::Probe(c, terms, stop) => {
                        let mut seen = Vec::new();
                        r.probe_terms(c, &terms, |t| {
                            seen.push(t);
                            seen.len() < stop
                        });
                        let expected: Vec<TermId> = terms
                            .iter()
                            .copied()
                            .filter(|&t| registered(&counts, c, t))
                            .take(stop)
                            .collect();
                        prop_assert_eq!(seen, expected);
                    }
                    Op::TermsOf(c) => {
                        let expected: HashSet<TermId> = counts
                            .keys()
                            .filter(|(cell, _)| *cell == c)
                            .map(|&(_, t)| t)
                            .collect();
                        prop_assert_eq!(r.terms_of_cell(c), expected);
                    }
                }
                for c in 0..CELLS {
                    let empty = !counts.keys().any(|(cell, _)| *cell == c);
                    prop_assert_eq!(r.cell_is_empty(c as usize), empty);
                }
                prop_assert_eq!(r.len(), counts.len());
                let held: BTreeSet<TermId> = counts.keys().map(|&(_, t)| t).collect();
                let tables: BTreeSet<TermId> = r.pairs.read().terms.keys().copied().collect();
                prop_assert_eq!(tables, held, "a term's table goes with its last pair");
            }
        }
    }
}
