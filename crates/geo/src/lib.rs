//! Spatial primitives for PS2Stream.
//!
//! This crate provides the geometric building blocks used throughout the
//! PS2Stream reproduction (ICDE 2017, "Distributed Publish/Subscribe Query
//! Processing on the Spatio-Textual Data Stream"):
//!
//! * [`Point`] / [`Rect`] — object locations and STS query regions,
//! * [`UniformGrid`] — the cell geometry shared by the GI² worker index, the
//!   gridt dispatcher index, and the grid space-partitioning baseline,
//! * [`KdTree`] — weighted kd-tree decomposition used by the kd-tree
//!   partitioning baseline and the spatial phase of hybrid partitioning,
//! * [`RTree`] — STR bulk-loaded R-tree used by the R-tree partitioning
//!   baseline and as a matching oracle in tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod grid;
pub mod kdtree;
pub mod point;
pub mod rect;
pub mod rtree;

pub use grid::{CellId, UniformGrid, MAX_GRID_EXP};
pub use kdtree::{KdNode, KdTree, LeafRegion, SplitAxis, WeightedPoint};
pub use point::{km_to_degrees, Point, KM_PER_DEGREE_LAT};
pub use rect::Rect;
pub use rtree::{LeafSummary, RTree, RTreeEntry};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_point() -> impl Strategy<Value = Point> {
        (-180.0f64..180.0, -90.0f64..90.0).prop_map(|(x, y)| Point::new(x, y))
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (arb_point(), arb_point()).prop_map(|(a, b)| Rect::new(a, b))
    }

    proptest! {
        #[test]
        fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }

        #[test]
        fn rect_intersection_contained_in_both(a in arb_rect(), b in arb_rect()) {
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_rect(&i) || i.area() == 0.0);
                prop_assert!(b.contains_rect(&i) || i.area() == 0.0);
                prop_assert!(a.intersects(&b));
            } else {
                prop_assert!(!a.intersects(&b));
            }
        }

        #[test]
        fn rect_contains_center(r in arb_rect()) {
            prop_assert!(r.contains_point(&r.center()));
        }

        #[test]
        fn rect_intersects_is_symmetric(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        }

        #[test]
        fn grid_cell_of_round_trips(p in arb_point()) {
            let g = UniformGrid::new(Rect::from_coords(-180.0, -90.0, 180.0, 90.0), 64, 64);
            let cell = g.cell_of(&p).expect("point inside bounds");
            prop_assert!(g.cell_rect(cell).contains_point(&p));
        }

        #[test]
        fn grid_overlap_includes_containing_cell(p in arb_point(), side in 0.001f64..5.0) {
            let g = UniformGrid::new(Rect::from_coords(-180.0, -90.0, 180.0, 90.0), 32, 32);
            let query = Rect::square(p, side);
            let cells = g.cells_overlapping(&query);
            let home = g.cell_of(&p).expect("point inside bounds");
            prop_assert!(cells.contains(&home));
        }

        #[test]
        fn kdtree_assigns_every_point_to_containing_leaf(
            pts in proptest::collection::vec(arb_point(), 1..200),
            leaves in 1usize..12,
        ) {
            let bounds = Rect::from_coords(-180.0, -90.0, 180.0, 90.0);
            let samples: Vec<WeightedPoint> =
                pts.iter().map(|p| WeightedPoint::new(*p, 1.0)).collect();
            let tree = KdTree::build(bounds, &samples, leaves, SplitAxis::Alternate);
            let total_area: f64 = tree.leaves().iter().map(|l| l.rect.area()).sum();
            prop_assert!((total_area - bounds.area()).abs() / bounds.area() < 1e-9);
            for p in &pts {
                let idx = tree.leaf_of(p).expect("inside bounds");
                prop_assert!(tree.leaves()[idx].rect.contains_point(p));
            }
        }

        #[test]
        fn rtree_query_equals_brute_force(
            rects in proptest::collection::vec(arb_rect(), 0..100),
            query in arb_rect(),
        ) {
            let entries: Vec<RTreeEntry<usize>> = rects
                .iter()
                .enumerate()
                .map(|(i, r)| RTreeEntry::new(*r, i))
                .collect();
            let tree = RTree::bulk_load(entries.clone());
            let mut expected: Vec<usize> = entries
                .iter()
                .filter(|e| e.rect.intersects(&query))
                .map(|e| e.data)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<usize> = tree.query_rect(&query).iter().map(|e| e.data).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}
