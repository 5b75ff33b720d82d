//! Allocation-count regression tests for the flat subscription storage.
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
//! Own test binary: the counting `#[global_allocator]` must not leak into
//! the crate's other tests. Counts are per thread, so the tests do not see
//! each other or the harness.

use ps2stream_geo::{Point, Rect};
use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId};
use ps2stream_text::{BooleanExpr, TermId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    // the first pass sizes the scratch buffers and the term statistics
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
