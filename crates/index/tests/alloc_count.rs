//! Allocation-count regression tests for the flat subscription storage.
//!
//! A (cell, term) posting list lives inside its table entry while it is
//! short, and a paper-shaped keyword expression inside its query, so:
//!
//! * inserting a query costs a bounded number of heap allocations however
//!   many cells it overlaps (it used to cost one `Vec` per overlapped cell
//!   and posting term);
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
use std::mem::size_of;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialized, destructor-free thread-local `Cell`, which neither
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
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// 16 × 16 cells of side 4 over a 64 × 64 space.
fn index() -> Gi2Index {
    Gi2Index::new(Gi2Config::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0)).with_granularity_exp(4))
}

const QUERIES: u64 = 512;
const TERMS: u64 = 128;
/// Every query covers the same 8 × 8 block of cells.
const CELLS_PER_QUERY: u64 = 64;

/// `QUERIES` two-keyword queries over `TERMS` distinct posting terms (term
/// `i % TERMS`, the rarer of the two under empty statistics by id order), so
/// every (cell, term) list ends up holding `QUERIES / TERMS` = 4 slots — the
/// most an entry stores in place.
fn queries() -> Vec<StsQuery> {
    (0..QUERIES)
        .map(|i| {
            StsQuery::new(
                QueryId(i),
                SubscriberId(i),
                BooleanExpr::and_of([TermId((i % TERMS) as u32), TermId(1_000 + i as u32)]),
                Rect::from_coords(0.5, 0.5, 31.5, 31.5),
            )
        })
        .collect()
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
    // What is left per query: its cell list, its posting terms, and the
    // amortized growth of the slab's arrays and of 64 cell tables — 3.0 when
    // this was written. One block per (cell, term) list costs
    // 64 * TERMS / QUERIES = 16 per query on top.
    let per_query = allocations as f64 / QUERIES as f64;
    assert!(
        per_query <= 6.0,
        "{allocations} allocations for {QUERIES} inserts = {per_query:.1} per query \
         (each overlaps {CELLS_PER_QUERY} cells)"
    );
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
        idx.insert(StsQuery::new(
            QueryId(QUERIES + i),
            SubscriberId(i),
            BooleanExpr::and_of([TermId(SHARED), TermId(6_000 + i as u32)]),
            Rect::from_coords(0.5, 0.5, 31.5, 31.5),
        ));
    }
    let cell = idx.grid().cell_of(&Point::new(1.0, 1.0)).unwrap();
    let list_len = |idx: &Gi2Index, term: u32| {
        idx.cell_term_stats(cell)
            .iter()
            .find(|s| s.term == TermId(term))
            .map_or(0, |s| s.queries)
    };
    let deleting = |idx: &mut Gi2Index, id: u64| {
        let mut deleted = false;
        let allocations = allocations_during(|| deleted = idx.delete_by_id(QueryId(id)));
        assert!(deleted, "query {id} was stored");
        allocations
    };
    // in-place lists: term 0 holds queries 0, 128, 256 and 384; the last
    // delete drops the entry
    assert_eq!(list_len(&idx, 0), 4);
    for id in [0, TERMS, 2 * TERMS, 3 * TERMS] {
        assert_eq!(deleting(&mut idx, id), 0, "delete of {id} (in-place list)");
    }
    assert_eq!(list_len(&idx, 0), 0);
    // a spilled list that stays spilled: 6 → 5
    assert_eq!(list_len(&idx, SHARED), 6);
    let before = idx.memory_usage();
    assert_eq!(deleting(&mut idx, QUERIES), 0, "delete from a spilled list");
    let stays_spilled = before - idx.memory_usage();
    // a spilled list that moves back in place and frees its block: 5 → 4
    let before = idx.memory_usage();
    assert_eq!(
        deleting(&mut idx, QUERIES + 1),
        0,
        "delete that shrinks a list"
    );
    let moves_in_place = before - idx.memory_usage();
    assert_eq!(list_len(&idx, SHARED), 4);
    assert!(
        moves_in_place >= stays_spilled + CELLS_PER_QUERY as usize * size_of::<Vec<u32>>(),
        "the {CELLS_PER_QUERY} spilled blocks were freed: {moves_in_place} vs {stays_spilled} bytes"
    );
    assert_eq!(idx.num_queries(), QUERIES as usize);
}
