//! Dynamic load adjustment for PS2Stream (Section V of the paper).
//!
//! * [`migration`] — the Minimum Cost Migration problem and its four cell
//!   selection algorithms (DP, GR, SI, RA) compared in Figures 12–15.
//! * [`local`] — the two-phase local load adjustment that moves cells from
//!   the most loaded worker to the least loaded one.
//!
//! The paper's global load adjustment (periodic repartitioning with a dual
//! routing table during the hand-over) is not reproduced.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod local;
pub mod migration;

pub use local::{
    CellLoadInfo, LocalAdjuster, LocalAdjusterConfig, MigrationMove, MigrationPlan, TermLoad,
    WorkerLoadInfo,
};
pub use migration::{
    all_selectors, DpSelector, GreedySelector, MigrationCell, MigrationSelection,
    MigrationSelector, RandomSelector, SizeSelector,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ps2stream_geo::CellId;

    fn arb_cells() -> impl Strategy<Value = Vec<MigrationCell>> {
        proptest::collection::vec((0.0f64..500.0, 1u64..100_000), 1..60).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (load, size))| MigrationCell::new(CellId::new(i as u32, 0), load, size))
                .collect()
        })
    }

    proptest! {
        /// Every selector must return a feasible solution (load ≥ τ) whenever
        /// one exists, and report totals consistent with the selected cells.
        #[test]
        fn selectors_return_feasible_consistent_solutions(
            cells in arb_cells(),
            tau_fraction in 0.0f64..1.0,
        ) {
            let total: f64 = cells.iter().map(|c| c.load).sum();
            let tau = total * tau_fraction;
            for s in all_selectors() {
                let sel = s.select(&cells, tau);
                prop_assert!(sel.satisfies(tau.min(total)), "{} infeasible", s.name());
                let mut load = 0.0;
                let mut size = 0u64;
                for c in &sel.cells {
                    let mc = cells.iter().find(|mc| mc.cell == *c).unwrap();
                    load += mc.load;
                    size += mc.size;
                }
                prop_assert!((load - sel.total_load).abs() < 1e-6);
                prop_assert_eq!(size, sel.total_size);
                // no duplicates
                let mut dedup = sel.cells.clone();
                dedup.sort();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), sel.cells.len());
            }
        }

        /// The DP solution never has a larger migration cost than GR, and GR
        /// never exceeds the cost of migrating everything.
        #[test]
        fn dp_cost_le_greedy_cost(
            cells in arb_cells(),
            tau_fraction in 0.0f64..0.9,
        ) {
            let total: f64 = cells.iter().map(|c| c.load).sum();
            let tau = total * tau_fraction;
            let dp = DpSelector { size_unit: 64, ..DpSelector::default() }.select(&cells, tau);
            let gr = GreedySelector.select(&cells, tau);
            let everything: u64 = cells.iter().map(|c| c.size).sum();
            prop_assert!(dp.total_size <= gr.total_size + 64 * cells.len() as u64);
            prop_assert!(gr.total_size <= everything);
        }
    }
}
