//! The workload / load model of PS2Stream.
//!
//! Definition 1 of the paper: given a time period, the load of worker `w_i`
//! is
//!
//! ```text
//! L_i = c1 * |O_i| * |Q^i_i|  +  c2 * |O_i|  +  c3 * |Q^i_i|  +  c4 * |Q^d_i|
//! ```
//!
//! where `O_i` are the objects routed to the worker, `Q^i_i` the query
//! insertions and `Q^d_i` the query deletions, and `c1..c4` are the average
//! costs of a match check, of handling one object, one insertion and one
//! deletion respectively.

/// The cost constants `c1..c4` of Definition 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Average cost of checking whether one object matches one STS query.
    pub c1: f64,
    /// Average cost of handling one object (routing, cell lookup, ...).
    pub c2: f64,
    /// Average cost of handling one STS query insertion.
    pub c3: f64,
    /// Average cost of handling one STS query deletion.
    pub c4: f64,
}

impl Default for CostConstants {
    /// Defaults calibrated so that matching dominates (c1 is per
    /// object-query pair), insertion and deletion are comparable, and plain
    /// object handling is cheapest — the same ordering the paper assumes.
    fn default() -> Self {
        Self {
            c1: 0.001,
            c2: 1.0,
            c3: 2.0,
            c4: 1.0,
        }
    }
}

/// The measured workload components of one worker over a period.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerLoad {
    /// `|O_i|`: number of objects routed to the worker.
    pub objects: u64,
    /// `|Q^i_i|`: number of STS query insertion requests routed to the worker.
    pub insertions: u64,
    /// `|Q^d_i|`: number of STS query deletion requests routed to the worker.
    pub deletions: u64,
}

impl WorkerLoad {
    /// Creates a load record.
    pub fn new(objects: u64, insertions: u64, deletions: u64) -> Self {
        Self {
            objects,
            insertions,
            deletions,
        }
    }

    /// Evaluates Definition 1 with the given cost constants.
    pub fn load(&self, costs: &CostConstants) -> f64 {
        costs.c1 * self.objects as f64 * self.insertions as f64
            + costs.c2 * self.objects as f64
            + costs.c3 * self.insertions as f64
            + costs.c4 * self.deletions as f64
    }

    /// Adds another load record to this one.
    pub fn accumulate(&mut self, other: &WorkerLoad) {
        self.objects += other.objects;
        self.insertions += other.insertions;
        self.deletions += other.deletions;
    }

    /// Total number of tuples routed to the worker.
    pub fn tuples(&self) -> u64 {
        self.objects + self.insertions + self.deletions
    }
}

/// Summary of a complete workload distribution across `m` workers.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionSummary {
    /// Per-worker load components.
    pub per_worker: Vec<WorkerLoad>,
    /// Cost constants used for the scalar load values.
    pub costs: CostConstants,
}

impl DistributionSummary {
    /// Creates a summary.
    pub fn new(per_worker: Vec<WorkerLoad>, costs: CostConstants) -> Self {
        Self { per_worker, costs }
    }

    /// Per-worker scalar loads (Definition 1).
    pub fn loads(&self) -> Vec<f64> {
        self.per_worker
            .iter()
            .map(|w| w.load(&self.costs))
            .collect()
    }

    /// Total load across all workers (the quantity the Optimal Workload
    /// Partitioning problem minimizes).
    pub fn total_load(&self) -> f64 {
        self.loads().iter().sum()
    }

    /// The load-balance factor `L_max / L_min` (the constraint of Definition
    /// 2 requires this to stay below σ). Returns `f64::INFINITY` when some
    /// worker received no load at all, and 1.0 for an empty cluster.
    pub fn balance_factor(&self) -> f64 {
        let loads = self.loads();
        if loads.is_empty() {
            return 1.0;
        }
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            if max <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max / min
        }
    }

    /// Total number of replicated tuple deliveries: tuples counted once per
    /// worker they are routed to.
    pub fn total_tuples(&self) -> u64 {
        self.per_worker.iter().map(WorkerLoad::tuples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_formula_matches_definition() {
        let costs = CostConstants {
            c1: 2.0,
            c2: 3.0,
            c3: 5.0,
            c4: 7.0,
        };
        let w = WorkerLoad::new(10, 4, 2);
        // 2*10*4 + 3*10 + 5*4 + 7*2 = 80 + 30 + 20 + 14 = 144
        assert!((w.load(&costs) - 144.0).abs() < 1e-12);
    }

    #[test]
    fn default_costs_make_matching_dominant_at_scale() {
        let costs = CostConstants::default();
        let heavy = WorkerLoad::new(100_000, 10_000, 0);
        let light = WorkerLoad::new(100_000, 0, 0);
        assert!(heavy.load(&costs) > 5.0 * light.load(&costs));
    }

    #[test]
    fn accumulate_and_tuples() {
        let mut a = WorkerLoad::new(1, 2, 3);
        a.accumulate(&WorkerLoad::new(10, 20, 30));
        assert_eq!(a, WorkerLoad::new(11, 22, 33));
        assert_eq!(a.tuples(), 66);
    }

    #[test]
    fn summary_total_and_balance() {
        let costs = CostConstants {
            c1: 0.0,
            c2: 1.0,
            c3: 1.0,
            c4: 1.0,
        };
        let s = DistributionSummary::new(
            vec![WorkerLoad::new(10, 0, 0), WorkerLoad::new(20, 0, 0)],
            costs,
        );
        assert_eq!(s.total_load(), 30.0);
        assert_eq!(s.balance_factor(), 2.0);
        assert_eq!(s.total_tuples(), 30);
    }

    #[test]
    fn balance_factor_edge_cases() {
        let costs = CostConstants::default();
        let empty = DistributionSummary::new(vec![], costs);
        assert_eq!(empty.balance_factor(), 1.0);
        let idle_worker = DistributionSummary::new(
            vec![WorkerLoad::new(10, 0, 0), WorkerLoad::default()],
            costs,
        );
        assert!(idle_worker.balance_factor().is_infinite());
        let all_idle =
            DistributionSummary::new(vec![WorkerLoad::default(), WorkerLoad::default()], costs);
        assert_eq!(all_idle.balance_factor(), 1.0);
    }
}
