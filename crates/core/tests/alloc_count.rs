//! Allocation-count regression tests for the per-record paths: GI²
//! matching and subscription storage, and dispatcher routing.
//!
//! A (cell, term) posting list of up to two slots lives inside its table
//! entry, a longer one in the index's spill arena; a stored query keeps its
//! posting terms in place and derives its cells from its region, so:
//!
//! * inserting a query costs no heap allocation per overlapped cell, and
//!   none at all into warm tables (a free slot, entries, arena indices);
//! * a list that spills costs one block;
//! * matching a batch against the stored queries allocates nothing at all;
//! * deleting a query, which unposts it from every (cell, term) list it is
//!   in, allocates nothing either.
//!
//! Most objects die at the dispatcher (no registered keyword in their cell),
//! so with a recycled destination buffer `RoutingTable::route_object_into`
//! allocates nothing, for a discarded object or a routed one. Subscription
//! updates share that buffer: once the registry has a table for each of
//! the query's posting terms, and room for its `(cell, term)` pairs,
//! neither `route_insert_into`, which counts the pairs, nor
//! `route_delete_into`, which names every worker and uncounts them,
//! allocates.
//!
//! The case that reaches each allocation-free function:
//!
//! | function | case |
//! |---|---|
//! | `Gi2Index::{match_batch, match_in_cell}`, `PostingEntry::{slots, note_object_hit}`, `CellIndex::traverse`, `MatchScratch::first_visit`, `BooleanExpr::{matches_sorted, conjunctions}`, `Conjunctions::next` | `matching_a_batch_allocates_nothing` |
//! | `Gi2Index::insert`, `StoredQuery::{cells, bytes}`, `UniformGrid::{cells_overlapping_iter, cell_span}` | `a_reinsert_into_warm_tables_allocates_nothing` |
//! | `Gi2Index::delete_by_id`, `CellIndex::unpost`, `PostingEntry::remove`, `PostingArena::release` | `a_delete_allocates_nothing` |
//! | `RoutingTable::route_object_into`, `TermRegistry::{cell_is_empty, probe_terms}` | `routing_an_object_allocates_nothing_once_the_buffer_is_warm` |
//! | `RoutingTable::{route_insert_into, route_delete_into}`, `CellRouting::add_workers`, `add_worker`, `TermRegistry::{register, unregister}` | `routing_an_update_allocates_nothing_once_the_buffer_is_warm` |
//! | `VisitedMaps::first_visit` | `routing_through_shared_term_maps_allocates_nothing` |
//! | `TermRegistry::contains` | `registry_probes_allocate_nothing` |
//!
//! Own test binary: the counting `#[global_allocator]` must not leak into
//! other tests. Counts are per thread, so the tests do not see each other
//! or the harness.

#![deny(clippy::undocumented_unsafe_blocks)]

use ps2stream_geo::{Point, Rect, UniformGrid};
use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId, WorkerId};
use ps2stream_partition::{CellRouting, RoutingTable, TermRegistry, TermRouting};
use ps2stream_text::{BooleanExpr, RepresentativeTerms, TermId, TermStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread freed (a reallocation counts as one too).
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of one of two
// const-initialized, destructor-free thread-local `Cell`s, which neither
// allocates nor unwinds (`try_with` declines instead of panicking once the
// thread's locals are gone).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `layout` obligations are exactly `System.alloc`'s.
    // (`alloc_zeroed` and `realloc` use the trait's defaults, which come
    // through here, so a growing `Vec` is counted too.)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` was returned by `alloc` above, i.e. by `System.alloc`
    // with the same `layout`, as `System.dealloc` requires.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = DEALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    allocations_and_frees_during(f).0
}

/// Allocations and frees this thread makes while running `f`.
fn allocations_and_frees_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), DEALLOCATIONS.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        DEALLOCATIONS.with(Cell::get) - before.1,
    )
}

// --- GI² index --------------------------------------------------------------

/// 16 × 16 cells of side 4 over a 64 × 64 space.
fn index() -> Gi2Index {
    Gi2Index::new(Gi2Config::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0)).with_granularity_exp(4))
}

const QUERIES: u64 = 512;
const TERMS: u64 = 256;
/// Every query covers the same 8 × 8 block of cells.
const CELLS_PER_QUERY: u64 = 64;

/// A two-keyword query over the fixture's 8 × 8 block of cells.
fn block_query(id: u64, posting_term: u32, other_term: u32) -> StsQuery {
    StsQuery::new(
        QueryId(id),
        SubscriberId(id),
        BooleanExpr::and_of([TermId(posting_term), TermId(other_term)]),
        Rect::from_coords(0.5, 0.5, 31.5, 31.5),
    )
}

/// `QUERIES` two-keyword queries over `TERMS` distinct posting terms (term
/// `i % TERMS`, the rarer of the two under empty statistics by id order), so
/// every (cell, term) list ends up holding `QUERIES / TERMS` = 2 slots — the
/// most an entry stores in place.
fn queries() -> Vec<StsQuery> {
    (0..QUERIES)
        .map(|i| block_query(i, (i % TERMS) as u32, 1_000 + i as u32))
        .collect()
}

/// The number of slots posted under `term` in the fixture's first cell.
fn list_len(idx: &Gi2Index, term: u32) -> u64 {
    let cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
    idx.cell_term_stats(cell)
        .iter()
        .find(|s| s.term == TermId(term))
        .map_or(0, |s| s.queries)
}

#[test]
fn inserting_costs_allocations_per_query_not_per_overlapped_cell() {
    let mut idx = index();
    let queries = queries();
    let allocations = allocations_during(|| {
        for q in queries {
            idx.insert(q);
        }
    });
    assert_eq!(idx.num_queries(), QUERIES as usize);
    assert_eq!(list_len(&idx, 0), 2);
    // What is left per query is the amortized growth of the slab's arrays
    // and of 64 cell tables — 1.1 when this was written. One block per
    // (cell, term) list would cost 64 * TERMS / QUERIES = 32 per query.
    let per_query = allocations as f64 / QUERIES as f64;
    assert!(
        per_query <= 2.0,
        "{allocations} allocations for {QUERIES} inserts = {per_query:.1} per query \
         (each overlaps {CELLS_PER_QUERY} cells)"
    );
}

#[test]
fn a_reinsert_into_warm_tables_allocates_nothing() {
    let mut idx = index();
    let queries = queries();
    for q in &queries {
        idx.insert(q.clone());
    }
    let memory = idx.memory_usage();
    for q in &queries {
        assert!(idx.delete_by_id(q.id));
    }
    assert_eq!(idx.num_queries(), 0);
    // every query's slot, id-map room and (cell, term) buckets are free
    // again, so each re-insert allocates nothing
    for q in &queries {
        let q = q.clone();
        let id = q.id;
        let allocations = allocations_during(|| idx.insert(q));
        assert_eq!(allocations, 0, "re-insert of {id:?}");
    }
    assert_eq!(idx.num_queries(), QUERIES as usize);
    assert_eq!(idx.memory_usage(), memory);
}

#[test]
fn a_spilling_list_allocates_one_block() {
    let mut idx = index();
    for q in queries() {
        idx.insert(q);
    }
    // a third query under term 0: each of its 64 two-slot lists spills
    let third = block_query(QUERIES, 0, 7_000);
    let allocations = allocations_during(|| idx.insert(third.clone()));
    assert_eq!(list_len(&idx, 0), 3);
    // one block per list, plus the amortized growth of the arena's arrays
    // and of the slab's
    assert!(
        allocations <= CELLS_PER_QUERY + 20,
        "{allocations} allocations for {CELLS_PER_QUERY} spilling lists"
    );
    // deleting it moves the lists back in place and frees their blocks
    let (allocations, frees) = allocations_and_frees_during(|| {
        assert!(idx.delete_by_id(third.id));
    });
    assert_eq!((allocations, frees), (0, CELLS_PER_QUERY));
    assert_eq!(list_len(&idx, 0), 2);
    // spilling again reuses the arena's released indices: one block per
    // list and nothing else
    let allocations = allocations_during(|| idx.insert(third.clone()));
    assert_eq!(allocations, CELLS_PER_QUERY, "one block per spilling list");
    assert_eq!(list_len(&idx, 0), 3);
}

#[test]
fn matching_a_batch_allocates_nothing() {
    let mut idx = index();
    for q in queries() {
        idx.insert(q);
    }
    // deletions leave some lists shorter and some terms without a list
    for i in (0..QUERIES).step_by(7) {
        idx.delete_by_id(QueryId(i));
    }
    // every object hits four posting lists of its cell and matches the
    // queries whose second keyword it carries
    let objects: Vec<SpatioTextualObject> = (0..256u64)
        .map(|i| {
            let mut terms: Vec<TermId> = (0..4)
                .map(|k| TermId(((i + 32 * k) % TERMS) as u32))
                .collect();
            terms.push(TermId(1_000 + i as u32));
            terms.sort_unstable();
            SpatioTextualObject::new(
                ObjectId(i),
                terms,
                Point::new(1.0 + (i % 30) as f64, 1.0 + (i / 30) as f64),
            )
        })
        .collect();
    let mut scratch = MatchScratch::new();
    let mut delivered = 0usize;
    // the first pass sizes the scratch buffers
    idx.match_batch(objects.iter(), &mut scratch, |_, _, r| delivered += r.len());
    assert!(delivered > 0, "the batch must actually match something");
    let mut again = 0usize;
    let allocations = allocations_during(|| {
        idx.match_batch(objects.iter(), &mut scratch, |_, _, r| again += r.len());
    });
    assert_eq!(again, delivered);
    assert_eq!(allocations, 0, "match_batch allocated in steady state");
    // a batch of one is the same kernel: no per-call set-up allocates either
    let mut singly = 0usize;
    let allocations = allocations_during(|| {
        for o in &objects {
            idx.match_batch(std::iter::once(o), &mut scratch, |_, _, r| {
                singly += r.len()
            });
        }
    });
    assert_eq!(singly, delivered);
    assert_eq!(allocations, 0, "a batch of one allocated in steady state");
}

#[test]
fn a_delete_allocates_nothing() {
    let mut idx = index();
    for q in queries() {
        idx.insert(q);
    }
    // six more queries over the same cells, all posted under one shared
    // term: each of their 64 lists spills past the in-place capacity
    const SHARED: u32 = 5_000;
    for i in 0..6u64 {
        idx.insert(block_query(QUERIES + i, SHARED, 6_000 + i as u32));
    }
    let deleting = |idx: &mut Gi2Index, id: u64| {
        let mut deleted = false;
        let counts = allocations_and_frees_during(|| deleted = idx.delete_by_id(QueryId(id)));
        assert!(deleted, "query {id} was stored");
        counts
    };
    // in-place lists, 2 → 1 → 0: term 0 holds queries 0 and 256, and the
    // last delete drops the entry
    assert_eq!(list_len(&idx, 0), 2);
    for id in [0, TERMS] {
        assert_eq!(
            deleting(&mut idx, id),
            (0, 0),
            "delete of {id} (in-place list)"
        );
    }
    assert_eq!(list_len(&idx, 0), 0);
    // a spilled list that stays spilled, 6 → 5 (and on down to 3): nothing
    // allocated, nothing freed
    assert_eq!(list_len(&idx, SHARED), 6);
    for id in QUERIES..QUERIES + 3 {
        assert_eq!(deleting(&mut idx, id), (0, 0), "delete from a spilled list");
    }
    assert_eq!(list_len(&idx, SHARED), 3);
    // a spilled list that moves back in place, 3 → 2: each of the 64 lists
    // frees its block, and the arena's reserved free-index list takes the
    // released indices without allocating
    assert_eq!(
        deleting(&mut idx, QUERIES + 3),
        (0, CELLS_PER_QUERY),
        "delete that shrinks a list"
    );
    assert_eq!(list_len(&idx, SHARED), 2);
    assert_eq!(idx.num_queries(), QUERIES as usize);
}

// --- Dispatcher routing -----------------------------------------------------

/// 4 × 4 cells over 16 × 16: the left half routes to worker 0, the right
/// half to worker 1, and cell (0, 0) is text-split so that term 2 goes to
/// worker 1. Queries on terms 1 and 2 are registered in the left half only.
fn table() -> RoutingTable {
    let grid = UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 4, 4);
    let cells: Vec<CellRouting> = grid
        .all_cells()
        .map(|c| CellRouting::Single(WorkerId(u32::from(c.col >= 2))))
        .collect();
    let mut table = RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "alloc");
    for (id, term) in [(1, 1), (2, 2)] {
        table.route_insert(&StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::single(TermId(term)),
            Rect::from_coords(0.5, 0.5, 7.5, 15.5),
        ));
    }
    let cell = table.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
    table.split_cell_by_terms(cell, &HashSet::from([TermId(2)]), WorkerId(1));
    table
}

fn object(terms: &[u32], x: f64, y: f64) -> SpatioTextualObject {
    SpatioTextualObject::new(
        ObjectId(0),
        terms.iter().map(|&t| TermId(t)).collect(),
        Point::new(x, y),
    )
}

#[test]
fn routing_an_object_allocates_nothing_once_the_buffer_is_warm() {
    let table = table();
    // (object, expected destinations)
    let cases = [
        // outside the grid
        (object(&[1], 40.0, 1.0), vec![]),
        // a cell with no registered query term at all
        (object(&[1], 13.0, 1.0), vec![]),
        // a non-empty cell, but none of the object's terms is registered
        (object(&[3, 4, 5], 5.0, 5.0), vec![]),
        // routed to one worker
        (object(&[1, 3], 5.0, 5.0), vec![WorkerId(0)]),
        // routed to both workers through the text-split cell
        (object(&[1, 2], 1.0, 1.0), vec![WorkerId(0), WorkerId(1)]),
    ];
    let mut workers = Vec::new();
    for (o, expected) in &cases {
        table.route_object_into(o, &mut workers);
        assert_eq!(&workers, expected);
        assert_eq!(&table.route_object(o), expected);
    }
    let allocations = allocations_during(|| {
        for _ in 0..1_000 {
            for (o, expected) in &cases {
                table.route_object_into(o, &mut workers);
                assert_eq!(workers.len(), expected.len());
            }
        }
    });
    assert_eq!(
        allocations, 0,
        "route_object_into allocated with a warm buffer"
    );
    // the wrapper allocates only for an object it actually routes
    let discarded = allocations_during(|| {
        for (o, _) in &cases[..3] {
            assert!(table.route_object(o).is_empty());
        }
    });
    assert_eq!(discarded, 0, "a discarded object cost an allocation");
}

fn query(id: u64, keywords: BooleanExpr, region: Rect) -> StsQuery {
    StsQuery::new(QueryId(id), SubscriberId(id), keywords, region)
}

/// Routes every case's insertion and deletion twice, checking the insertion
/// against its expected destinations and the deletion against every worker
/// (which also warms the buffer and gives the insertions' posting terms
/// their cell tables), then returns the allocations of a thousand more
/// rounds. Each deletion uncounts what its insertion counted, so a pair no
/// other query holds is removed and added again every round.
fn update_routing_allocations(table: &RoutingTable, cases: &[(StsQuery, Vec<WorkerId>)]) -> u64 {
    let everyone: Vec<WorkerId> = (0..table.num_workers() as u32).map(WorkerId).collect();
    let mut workers = Vec::new();
    for (q, expected) in cases {
        // the first insertion gives each posting term its cell table; from
        // then on, a cycle counts and uncounts pairs in place
        table.route_insert_into(q, &mut workers);
        workers.sort();
        assert_eq!(&workers, expected);
        table.route_delete_into(q, &mut workers);
        workers.sort();
        assert_eq!(workers, everyone);
        let mut wrapped = table.route_insert(q);
        wrapped.sort();
        assert_eq!(&wrapped, expected);
        let mut wrapped = table.route_delete(q);
        wrapped.sort();
        assert_eq!(wrapped, everyone);
    }
    allocations_during(|| {
        for _ in 0..1_000 {
            for (q, expected) in cases {
                table.route_insert_into(q, &mut workers);
                assert_eq!(workers.len(), expected.len());
                table.route_delete_into(q, &mut workers);
                assert_eq!(workers.len(), everyone.len());
            }
        }
    })
}

#[test]
fn routing_an_update_allocates_nothing_once_the_buffer_is_warm() {
    // (query, expected destinations of its insertion)
    let cases = [
        // one Single cell, terms already registered by `table()`
        (
            query(
                10,
                BooleanExpr::single(TermId(1)),
                Rect::from_coords(4.5, 4.5, 5.5, 5.5),
            ),
            vec![WorkerId(0)],
        ),
        // the text-split cell: term 2 routes to worker 1, term 1 to worker 0
        (
            query(
                11,
                BooleanExpr::or_of([TermId(1), TermId(2)]),
                Rect::from_coords(0.5, 0.5, 1.5, 1.5),
            ),
            vec![WorkerId(0), WorkerId(1)],
        ),
        // a region across both halves of the grid, many cells
        (
            query(
                12,
                BooleanExpr::and_of([TermId(1), TermId(3)]),
                Rect::from_coords(0.5, 0.5, 15.5, 15.5),
            ),
            vec![WorkerId(0), WorkerId(1)],
        ),
        // outside the grid
        (
            query(
                13,
                BooleanExpr::single(TermId(1)),
                Rect::from_coords(40.0, 40.0, 41.0, 41.0),
            ),
            vec![],
        ),
    ];
    assert_eq!(
        update_routing_allocations(&table(), &cases),
        0,
        "routing an update allocated with a warm buffer"
    );
}

#[test]
fn routing_through_shared_term_maps_allocates_nothing() {
    // 4 × 4 cells over 16 × 16, every cell text-partitioned by one map
    // shared the way a Hybrid text region shares it: term 2 to worker 1,
    // every other term to worker 0
    let grid = UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 4, 4);
    let shared = Arc::new(TermRouting::new([(TermId(2), WorkerId(1))], WorkerId(0)));
    let cells: Vec<CellRouting> = grid
        .all_cells()
        .map(|_| CellRouting::SharedTerms(Arc::clone(&shared)))
        .collect();
    let table = RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "alloc");
    // a region across many cells: each update looks the map up once
    let cases = [(
        query(
            20,
            BooleanExpr::or_of([TermId(1), TermId(2)]),
            Rect::from_coords(0.5, 0.5, 15.5, 15.5),
        ),
        vec![WorkerId(0), WorkerId(1)],
    )];
    assert_eq!(
        update_routing_allocations(&table, &cases),
        0,
        "routing through a shared term map allocated with a warm buffer"
    );
}

#[test]
fn registry_probes_allocate_nothing() {
    let registry = TermRegistry::new(16, 1);
    let terms = RepresentativeTerms::Boxed(Box::new([TermId(7), TermId(9)]));
    registry.register(QueryId(1), terms, Some((3, 3)));
    let allocations = allocations_during(|| {
        for _ in 0..1_000 {
            assert!(registry.contains(3, TermId(7)));
            assert!(!registry.contains(3, TermId(8)));
            assert!(!registry.contains(4, TermId(7)));
        }
    });
    assert_eq!(allocations, 0, "TermRegistry::contains allocated");
}
