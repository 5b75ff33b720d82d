//! Local load adjustment (Section V-A).
//!
//! When the dispatcher detects that the load-balance constraint is violated,
//! the most loaded worker `w_o` transfers part of its workload to the least
//! loaded worker `w_l`, in units of grid cells:
//!
//! * **Phase I** inspects the `p` most loaded cells of `w_o`: cells that are
//!   not yet text-split are text-split in two (moving the smaller half to
//!   `w_l`) when that reduces the total workload; cells that are already
//!   text-split are merged with `w_l`'s counterpart cell when merging reduces
//!   the total workload.
//! * **Phase II** runs a Minimum Cost Migration selector (GR by default) to
//!   pick additional whole cells whose migration restores the balance
//!   constraint at minimal migration cost.
//!
//! This module produces a [`MigrationPlan`] — a declarative description of
//! the moves — which the PS2Stream system executes by extracting queries from
//! the source worker's GI² index, shipping them to the target worker and
//! updating the dispatcher routing tables.

use crate::migration::{GreedySelector, MigrationCell, MigrationSelector};
use ps2stream_geo::CellId;
use ps2stream_model::WorkerId;
use ps2stream_text::TermId;

/// Per-term load breakdown of one cell, used by the Phase-I text split.
#[derive(Debug, Clone, PartialEq)]
pub struct TermLoad {
    /// The posting term.
    pub term: TermId,
    /// Number of queries posted under the term in this cell.
    pub queries: u64,
    /// Number of recent objects in the cell containing the term. A worker
    /// reports 0 for the queries its GI² index files once under a cold
    /// term (one that fewer than 1 in 1,000 calibration objects carry),
    /// which keep no per-cell hit counter, so the split's LPT order puts
    /// such a term last, by query count: its objects × queries load is
    /// negligible by construction.
    pub objects: u64,
    /// Bytes of the queries posted under the term.
    pub size: u64,
}

/// The load description of one cell of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLoadInfo {
    /// The cell.
    pub cell: CellId,
    /// Objects that fell in this cell during the period (`n_o`).
    pub objects: u64,
    /// Queries stored in the cell (`n_q`).
    pub queries: u64,
    /// Total bytes of the stored queries (`S_g`).
    pub size: u64,
    /// Whether the cell is already text-split on this worker (i.e. the
    /// dispatcher routes only a subset of terms of this cell here).
    pub text_split: bool,
    /// Optional per-term breakdown enabling Phase-I decisions.
    pub term_loads: Vec<TermLoad>,
}

impl CellLoadInfo {
    /// The cell load `L_g = n_o · n_q` (Definition 3).
    pub fn load(&self) -> f64 {
        self.objects as f64 * self.queries as f64
    }

    fn as_migration_cell(&self) -> MigrationCell {
        MigrationCell::new(self.cell, self.load(), self.size)
    }
}

/// The cells and total load of one worker, as observed over a period.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLoadInfo {
    /// The worker.
    pub worker: WorkerId,
    /// Per-cell load information.
    pub cells: Vec<CellLoadInfo>,
}

impl WorkerLoadInfo {
    /// Total load of the worker (sum of its cell loads).
    pub fn total_load(&self) -> f64 {
        self.cells.iter().map(CellLoadInfo::load).sum()
    }
}

/// One migration action of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationMove {
    /// Migrate the whole cell from `from` to `to`.
    WholeCell {
        /// The cell to migrate.
        cell: CellId,
        /// Source worker.
        from: WorkerId,
        /// Target worker.
        to: WorkerId,
    },
    /// Text-split the cell: queries posted under `terms` (and future objects
    /// containing them) move from `from` to `to`; the rest stays.
    TextSplit {
        /// The cell to split.
        cell: CellId,
        /// Source worker.
        from: WorkerId,
        /// Target worker.
        to: WorkerId,
        /// The terms moving to the target worker.
        terms: Vec<TermId>,
    },
    /// Merge the text-split cell of `from` into the same cell of `to`
    /// (reuniting a previously split cell on the less loaded worker).
    MergeCell {
        /// The cell to merge.
        cell: CellId,
        /// Source worker (gives up its share of the cell).
        from: WorkerId,
        /// Target worker (receives the share).
        to: WorkerId,
    },
}

impl MigrationMove {
    /// The cell affected by the move.
    pub fn cell(&self) -> CellId {
        match self {
            MigrationMove::WholeCell { cell, .. }
            | MigrationMove::TextSplit { cell, .. }
            | MigrationMove::MergeCell { cell, .. } => *cell,
        }
    }
}

/// A complete local-adjustment plan: the moves plus accounting of the load
/// and bytes they shift.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationPlan {
    /// The ordered list of moves.
    pub moves: Vec<MigrationMove>,
    /// Estimated load shifted from the overloaded worker.
    pub load_moved: f64,
    /// Estimated bytes of query state to transfer (the migration cost).
    pub bytes_moved: u64,
}

impl MigrationPlan {
    /// Returns true if the plan contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Configuration of the local load adjuster.
#[derive(Debug, Clone)]
pub struct LocalAdjusterConfig {
    /// Load-balance constraint σ: adjustment triggers when
    /// `L_max / L_min > σ`.
    pub sigma: f64,
    /// Number of most-loaded cells inspected by Phase I (`p`).
    pub phase1_cells: usize,
    /// Minimum relative reduction of the total load required before Phase I
    /// performs a split or merge.
    pub min_gain: f64,
}

impl Default for LocalAdjusterConfig {
    fn default() -> Self {
        Self {
            sigma: 1.5,
            phase1_cells: 4,
            min_gain: 0.02,
        }
    }
}

/// The local load adjustment planner.
pub struct LocalAdjuster {
    config: LocalAdjusterConfig,
    selector: Box<dyn MigrationSelector + Send>,
}

impl LocalAdjuster {
    /// Creates a planner with the default GR selector.
    pub fn new(config: LocalAdjusterConfig) -> Self {
        Self {
            config,
            selector: Box::new(GreedySelector),
        }
    }

    /// Replaces the Phase-II cell selector (DP / GR / SI / RA).
    pub fn with_selector(mut self, selector: Box<dyn MigrationSelector + Send>) -> Self {
        self.selector = selector;
        self
    }

    /// The configured σ.
    pub fn sigma(&self) -> f64 {
        self.config.sigma
    }

    /// Checks whether the balance constraint is violated and returns the
    /// indices of the most and least loaded workers if so.
    pub fn detect_imbalance(&self, loads: &[f64]) -> Option<(usize, usize)> {
        if loads.len() < 2 {
            return None;
        }
        let (max_i, max) = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        let (min_i, min) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        if *max <= 0.0 {
            return None;
        }
        let violated = if *min <= 0.0 {
            true
        } else {
            max / min > self.config.sigma
        };
        if violated && max_i != min_i {
            Some((max_i, min_i))
        } else {
            None
        }
    }

    /// Plans a local adjustment moving load from `overloaded` to
    /// `underloaded` (Phases I and II).
    pub fn plan(&self, overloaded: &WorkerLoadInfo, underloaded: &WorkerLoadInfo) -> MigrationPlan {
        let mut plan = MigrationPlan::default();
        let lo = overloaded.total_load();
        let ll = underloaded.total_load();
        if lo <= ll {
            return plan;
        }

        // ---------------- Phase I ----------------
        let mut top: Vec<&CellLoadInfo> = overloaded.cells.iter().collect();
        top.sort_by(|a, b| {
            b.load()
                .partial_cmp(&a.load())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut phase1_cells_used: Vec<CellId> = Vec::new();
        for cell in top.iter().take(self.config.phase1_cells) {
            if cell.text_split {
                // candidate for merging with the counterpart cell on w_l
                if let Some(counterpart) = underloaded.cells.iter().find(|c| c.cell == cell.cell) {
                    if merge_reduces_load(cell, counterpart, self.config.min_gain) {
                        plan.moves.push(MigrationMove::MergeCell {
                            cell: cell.cell,
                            from: overloaded.worker,
                            to: underloaded.worker,
                        });
                        plan.load_moved += cell.load();
                        plan.bytes_moved += cell.size;
                        phase1_cells_used.push(cell.cell);
                    }
                }
            } else if let Some((terms, moved_load, moved_size)) =
                text_split_gain(cell, self.config.min_gain)
            {
                plan.moves.push(MigrationMove::TextSplit {
                    cell: cell.cell,
                    from: overloaded.worker,
                    to: underloaded.worker,
                    terms,
                });
                plan.load_moved += moved_load;
                plan.bytes_moved += moved_size;
                phase1_cells_used.push(cell.cell);
            }
        }

        // ---------------- Phase II ----------------
        // Amount of load that must still move so both workers end up equal.
        let tau = (lo - ll) / 2.0 - plan.load_moved;
        if tau > 0.0 {
            let candidates: Vec<MigrationCell> = overloaded
                .cells
                .iter()
                .filter(|c| !phase1_cells_used.contains(&c.cell))
                .map(CellLoadInfo::as_migration_cell)
                .collect();
            let selection = self.selector.select(&candidates, tau);
            for cell in selection.cells {
                plan.moves.push(MigrationMove::WholeCell {
                    cell,
                    from: overloaded.worker,
                    to: underloaded.worker,
                });
            }
            plan.load_moved += selection.total_load;
            plan.bytes_moved += selection.total_size;
        }
        plan
    }
}

/// Estimates whether text-splitting the cell in two and moving the smaller
/// half reduces the total load by at least `min_gain` (relative). Returns the
/// terms to move, the load moved and its size.
fn text_split_gain(cell: &CellLoadInfo, min_gain: f64) -> Option<(Vec<TermId>, f64, u64)> {
    if cell.term_loads.len() < 2 {
        return None;
    }
    // balanced 2-way LPT split over per-term matching load (objects × queries);
    // a cold term reports no object hits (see `TermLoad::objects`)
    let mut terms: Vec<&TermLoad> = cell.term_loads.iter().collect();
    terms.sort_by(|a, b| {
        (b.objects * b.queries)
            .cmp(&(a.objects * a.queries))
            .then(b.queries.cmp(&a.queries))
    });
    let mut groups: [Vec<&TermLoad>; 2] = [Vec::new(), Vec::new()];
    let mut group_load = [0u64; 2];
    for t in terms {
        let g = if group_load[0] <= group_load[1] { 0 } else { 1 };
        group_load[g] += t.objects * t.queries;
        groups[g].push(t);
    }
    if groups[0].is_empty() || groups[1].is_empty() {
        return None;
    }
    let side_load = |g: &[&TermLoad]| -> f64 {
        let objects: u64 = g.iter().map(|t| t.objects).sum();
        let queries: u64 = g.iter().map(|t| t.queries).sum();
        // objects containing terms of both halves are double counted, which
        // is exactly the over-approximation the real split would incur
        objects.min(cell.objects) as f64 * queries as f64
    };
    let new_load = side_load(&groups[0]) + side_load(&groups[1]);
    let old_load = cell.load();
    if old_load <= 0.0 || new_load > old_load * (1.0 - min_gain) {
        return None;
    }
    // move the smaller (by size) half
    let size = |g: &[&TermLoad]| -> u64 { g.iter().map(|t| t.size).sum() };
    let (moved, _kept) = if size(&groups[0]) <= size(&groups[1]) {
        (&groups[0], &groups[1])
    } else {
        (&groups[1], &groups[0])
    };
    let moved_terms: Vec<TermId> = moved.iter().map(|t| t.term).collect();
    let moved_size = size(moved);
    let moved_load = side_load(moved);
    Some((moved_terms, moved_load, moved_size))
}

/// Estimates whether merging the overloaded worker's share of a text-split
/// cell into the underloaded worker's share reduces the total load: merging
/// removes the duplicated object deliveries (objects containing terms of both
/// shares) at the price of a single larger matching set.
fn merge_reduces_load(ours: &CellLoadInfo, theirs: &CellLoadInfo, min_gain: f64) -> bool {
    // separate: each share pays its own matching load plus one object
    // delivery per object it receives (the c2 term of Definition 1, which is
    // what duplication inflates)
    let separate = ours.load() + theirs.load() + (ours.objects + theirs.objects) as f64;
    if separate <= 0.0 {
        return false;
    }
    // merged: objects are delivered once (bounded by the larger share's
    // object count), queries add up
    let merged_objects = ours.objects.max(theirs.objects);
    let merged =
        merged_objects as f64 * (ours.queries + theirs.queries) as f64 + merged_objects as f64;
    merged < separate * (1.0 - min_gain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_cell(col: u32, objects: u64, queries: u64, size: u64) -> CellLoadInfo {
        CellLoadInfo {
            cell: CellId::new(col, 0),
            objects,
            queries,
            size,
            text_split: false,
            term_loads: Vec::new(),
        }
    }

    #[test]
    fn detect_imbalance_respects_sigma() {
        let adj = LocalAdjuster::new(LocalAdjusterConfig {
            sigma: 1.5,
            ..Default::default()
        });
        assert_eq!(adj.detect_imbalance(&[10.0, 8.0]), None);
        assert_eq!(adj.detect_imbalance(&[20.0, 10.0]), Some((0, 1)));
        assert_eq!(adj.detect_imbalance(&[10.0, 20.0]), Some((1, 0)));
        assert_eq!(adj.detect_imbalance(&[10.0]), None);
        assert_eq!(adj.detect_imbalance(&[0.0, 0.0]), None);
        // an idle worker always triggers adjustment
        assert_eq!(adj.detect_imbalance(&[5.0, 0.0]), Some((0, 1)));
    }

    #[test]
    fn plan_moves_enough_load_to_balance() {
        let overloaded = WorkerLoadInfo {
            worker: WorkerId(0),
            cells: (0..10).map(|i| simple_cell(i, 10, 10, 1000)).collect(),
        };
        let underloaded = WorkerLoadInfo {
            worker: WorkerId(1),
            cells: vec![simple_cell(20, 10, 2, 100)],
        };
        let adj = LocalAdjuster::new(LocalAdjusterConfig::default());
        let plan = adj.plan(&overloaded, &underloaded);
        assert!(!plan.is_empty());
        let lo = overloaded.total_load();
        let ll = underloaded.total_load();
        let tau = (lo - ll) / 2.0;
        assert!(
            plan.load_moved >= tau * 0.9,
            "moved {} but needed about {}",
            plan.load_moved,
            tau
        );
        // all moves originate from worker 0 towards worker 1
        for m in &plan.moves {
            match m {
                MigrationMove::WholeCell { from, to, .. }
                | MigrationMove::TextSplit { from, to, .. }
                | MigrationMove::MergeCell { from, to, .. } => {
                    assert_eq!(*from, WorkerId(0));
                    assert_eq!(*to, WorkerId(1));
                }
            }
        }
    }

    #[test]
    fn plan_is_empty_when_already_balanced() {
        let a = WorkerLoadInfo {
            worker: WorkerId(0),
            cells: vec![simple_cell(0, 10, 10, 100)],
        };
        let b = WorkerLoadInfo {
            worker: WorkerId(1),
            cells: vec![simple_cell(1, 10, 10, 100)],
        };
        let adj = LocalAdjuster::new(LocalAdjusterConfig::default());
        assert!(adj.plan(&a, &b).is_empty());
        // reversed direction also yields nothing
        assert!(adj.plan(&b, &a).is_empty());
    }

    #[test]
    fn phase1_text_splits_a_heavy_skewed_cell() {
        // one huge cell with two disjoint term groups: splitting it halves
        // the matching load
        let heavy = CellLoadInfo {
            cell: CellId::new(0, 0),
            objects: 100,
            queries: 100,
            size: 10_000,
            text_split: false,
            term_loads: vec![
                TermLoad {
                    term: TermId(1),
                    queries: 50,
                    objects: 50,
                    size: 5_000,
                },
                TermLoad {
                    term: TermId(2),
                    queries: 50,
                    objects: 50,
                    size: 5_000,
                },
            ],
        };
        let overloaded = WorkerLoadInfo {
            worker: WorkerId(0),
            cells: vec![heavy],
        };
        let underloaded = WorkerLoadInfo {
            worker: WorkerId(1),
            cells: vec![],
        };
        let adj = LocalAdjuster::new(LocalAdjusterConfig::default());
        let plan = adj.plan(&overloaded, &underloaded);
        assert!(
            plan.moves
                .iter()
                .any(|m| matches!(m, MigrationMove::TextSplit { .. })),
            "expected a text split, got {:?}",
            plan.moves
        );
    }

    #[test]
    fn phase1_merges_text_split_cells_when_beneficial() {
        // both workers hold a share of cell (0,0); each share sees almost all
        // objects (heavy duplication), so merging reduces total load
        let ours = CellLoadInfo {
            cell: CellId::new(0, 0),
            objects: 100,
            queries: 10,
            size: 1_000,
            text_split: true,
            term_loads: vec![],
        };
        let theirs = CellLoadInfo {
            cell: CellId::new(0, 0),
            objects: 100,
            queries: 10,
            size: 1_000,
            text_split: true,
            term_loads: vec![],
        };
        let overloaded = WorkerLoadInfo {
            worker: WorkerId(0),
            // extra cells make worker 0 clearly overloaded
            cells: vec![
                ours,
                simple_cell(5, 50, 50, 100),
                simple_cell(6, 50, 50, 100),
            ],
        };
        let underloaded = WorkerLoadInfo {
            worker: WorkerId(1),
            cells: vec![theirs],
        };
        let adj = LocalAdjuster::new(LocalAdjusterConfig::default());
        let plan = adj.plan(&overloaded, &underloaded);
        assert!(
            plan.moves
                .iter()
                .any(|m| matches!(m, MigrationMove::MergeCell { .. })),
            "expected a merge, got {:?}",
            plan.moves
        );
    }

    #[test]
    fn text_split_gain_requires_multiple_terms() {
        let cell = CellLoadInfo {
            cell: CellId::new(0, 0),
            objects: 100,
            queries: 100,
            size: 1_000,
            text_split: false,
            term_loads: vec![TermLoad {
                term: TermId(1),
                queries: 100,
                objects: 100,
                size: 1_000,
            }],
        };
        assert!(text_split_gain(&cell, 0.02).is_none());
    }

    #[test]
    fn text_split_gain_rejected_when_objects_fully_overlap() {
        // every object contains both terms: splitting would not reduce the
        // matching load (both halves still see all objects)
        let cell = CellLoadInfo {
            cell: CellId::new(0, 0),
            objects: 100,
            queries: 100,
            size: 1_000,
            text_split: false,
            term_loads: vec![
                TermLoad {
                    term: TermId(1),
                    queries: 50,
                    objects: 100,
                    size: 500,
                },
                TermLoad {
                    term: TermId(2),
                    queries: 50,
                    objects: 100,
                    size: 500,
                },
            ],
        };
        assert!(text_split_gain(&cell, 0.02).is_none());
    }
}
