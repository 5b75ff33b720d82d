//! Allocation-count regression tests for routing.
//!
//! Most objects die at the dispatcher (no registered keyword in their cell),
//! so routing an object must cost no heap allocation: with a recycled
//! destination buffer, `RoutingTable::route_object_into` allocates nothing
//! for a discarded object or for a routed one. Subscription updates share
//! that buffer: `route_insert_into` allocates nothing once the query's
//! `(cell, term)` pairs are registered, and `route_delete_into` nothing at
//! all.
//!
//! Own test binary: the counting `#[global_allocator]` must not leak into
//! the crate's other tests. Counts are per thread, so the tests do not see
//! each other or the harness.

use ps2stream_geo::{Point, Rect, UniformGrid};
use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId, WorkerId};
use ps2stream_partition::{CellRouting, RoutingTable};
use ps2stream_text::{BooleanExpr, TermId, TermStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

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

#[test]
fn routing_an_update_allocates_nothing_once_the_buffer_is_warm() {
    let table = table();
    // (query, expected destinations of its insertion and of its deletion)
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
    let mut workers = Vec::new();
    for (q, expected) in &cases {
        // the first insertion registers the (cell, term) pairs it is
        // posted under; from then on, inserting it is a read-only probe
        table.route_insert_into(q, &mut workers);
        workers.sort();
        assert_eq!(&workers, expected);
        let mut wrapped = table.route_insert(q);
        wrapped.sort();
        assert_eq!(&wrapped, expected);
        table.route_delete_into(q, &mut workers);
        workers.sort();
        assert_eq!(&workers, expected);
    }
    let allocations = allocations_during(|| {
        for _ in 0..1_000 {
            for (q, expected) in &cases {
                table.route_insert_into(q, &mut workers);
                assert_eq!(workers.len(), expected.len());
                table.route_delete_into(q, &mut workers);
                assert_eq!(workers.len(), expected.len());
            }
        }
    });
    assert_eq!(
        allocations, 0,
        "routing an update allocated with a warm buffer"
    );
}
