//! The dynamic load adjustment controller.
//!
//! The paper's dispatcher monitors the worker loads and, when the balance
//! constraint `L_max / L_min ≤ σ` is violated, triggers the local load
//! adjustment of Section V-A: the most loaded worker migrates cells to the
//! least loaded one. Here that monitoring runs inside dispatcher 0, which
//! owns the controller and steps it once for every input batch it routes
//! ([`AdjustmentController::step`]), after the run of batches that holds
//! it. The clock is that batch count,
//! not wall time, so adjustment follows the stream on every backend and
//! replays exactly under `sim`. A round never blocks the dispatcher:
//!
//! 1. **Idle** — count down [`AdjustmentConfig::period_batches`] batches;
//! 2. **Collecting** — send [`WorkerMessage::CollectStats`] to every worker,
//!    then gather the per-cell load reports with `try_recv` on later
//!    batches;
//! 3. **Plan and apply** — once every report is in (or the reply channel
//!    disconnects because a worker died holding its request), plan a
//!    migration with [`LocalAdjuster`], apply the routing-table changes and
//!    instruct the workers to move their queries.

use crate::config::{AdjustmentConfig, SelectorKind};
use crate::messages::{WorkerMessage, WorkerStatsReport};
use crate::metrics::SystemMetrics;
use crate::supervisor::Supervisor;
use parking_lot::RwLock;
use ps2stream_balance::{
    DpSelector, GreedySelector, LocalAdjuster, LocalAdjusterConfig, MigrationMove,
    MigrationSelector, RandomSelector, SizeSelector, WorkerLoadInfo,
};
use ps2stream_geo::CellId;
use ps2stream_model::WorkerId;
use ps2stream_partition::{CellRouting, CostConstants, RoutingTable};
use ps2stream_stream::{bounded, Receiver, Sender, TryRecvError};
use ps2stream_text::TermId;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

fn build_selector(kind: SelectorKind) -> Box<dyn MigrationSelector + Send> {
    match kind {
        SelectorKind::Dp => Box::new(DpSelector::default()),
        SelectorKind::Greedy => Box::new(GreedySelector),
        SelectorKind::Size => Box::new(SizeSelector),
        SelectorKind::Random => Box::new(RandomSelector::default()),
    }
}

/// The controller driving dynamic load adjustments for a running system,
/// stepped by dispatcher 0 (see the module docs).
pub struct AdjustmentController {
    costs: CostConstants,
    routing: Arc<RwLock<RoutingTable>>,
    /// The workers' own channels, never a fault shim: a diverted
    /// `CellPending` would arrive after records routed by the updated table
    /// and break the hand-off barrier.
    workers: Vec<Sender<WorkerMessage>>,
    metrics: Arc<SystemMetrics>,
    /// When set, a worker whose channel is disconnected is reported instead
    /// of being silently skipped.
    supervisor: Option<Arc<Supervisor>>,
    adjuster: LocalAdjuster,
    period_batches: u64,
    phase: Phase,
}

enum Phase {
    /// Counting down input batches to the next stats request.
    Idle { batches_left: u64 },
    /// Stats requested; gathering replies without blocking.
    Collecting {
        reply: Receiver<WorkerStatsReport>,
        expected: usize,
        reports: Vec<WorkerStatsReport>,
    },
}

impl AdjustmentController {
    /// Creates a controller over the shared routing table and the workers'
    /// command channels.
    pub fn new(
        config: &AdjustmentConfig,
        costs: CostConstants,
        routing: Arc<RwLock<RoutingTable>>,
        workers: Vec<Sender<WorkerMessage>>,
        metrics: Arc<SystemMetrics>,
    ) -> Self {
        let adjuster = LocalAdjuster::new(LocalAdjusterConfig {
            sigma: config.sigma,
            phase1_cells: config.phase1_cells,
            ..LocalAdjusterConfig::default()
        })
        .with_selector(build_selector(config.selector));
        Self {
            costs,
            routing,
            workers,
            metrics,
            supervisor: None,
            adjuster,
            period_batches: config.period_batches,
            phase: Phase::Idle {
                batches_left: config.period_batches,
            },
        }
    }

    /// Arms supervisor reporting: disconnected worker channels become
    /// peer-death flags.
    pub fn with_supervisor(mut self, supervisor: Arc<Supervisor>) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Advances the controller by one input batch. Returns `Some(migrated)`
    /// on the step that completes an adjustment round, `None` otherwise.
    /// Never blocks; must not be called while holding the routing table's
    /// read lock (applying a plan takes its write lock).
    pub fn step(&mut self) -> Option<bool> {
        match &mut self.phase {
            Phase::Idle { batches_left } => {
                if *batches_left > 0 {
                    *batches_left -= 1;
                    return None;
                }
                let (reply, expected) = self.request_stats();
                self.phase = Phase::Collecting {
                    reply,
                    expected,
                    reports: Vec::with_capacity(expected),
                };
                None
            }
            Phase::Collecting {
                reply,
                expected,
                reports,
            } => {
                let disconnected = loop {
                    match reply.try_recv() {
                        Ok(report) => reports.push(report),
                        Err(TryRecvError::Empty) => break false,
                        Err(TryRecvError::Disconnected) => break true,
                    }
                };
                if reports.len() < *expected {
                    // A disconnected reply channel means some worker died
                    // between accepting the request and answering it: plan
                    // with the survivors rather than waiting forever.
                    if !disconnected {
                        return None;
                    }
                    self.metrics
                        .faults
                        .liveness_suspects
                        .fetch_add((*expected - reports.len()) as u64, Ordering::Relaxed);
                }
                let mut reports = std::mem::take(reports);
                reports.sort_by_key(|r| r.worker);
                self.phase = Phase::Idle {
                    batches_left: self.period_batches,
                };
                Some(self.adjust_with_reports(&reports))
            }
        }
    }

    /// Flags worker `worker` down on the supervisor (counted once).
    fn note_worker_down(&self, worker: usize) {
        if let Some(supervisor) = &self.supervisor {
            if supervisor.note_peer_down(worker) {
                self.metrics
                    .faults
                    .peer_disconnects
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Requests a load report from every worker. Returns the reply channel
    /// and the number of replies to expect; a worker whose channel is
    /// already disconnected is reported as peer death.
    fn request_stats(&self) -> (Receiver<WorkerStatsReport>, usize) {
        // One reply per worker, so a capacity of `workers.len()` means the
        // replying side can never block on this channel.
        let (tx, rx) = bounded::<WorkerStatsReport>(self.workers.len().max(1));
        let mut expected = 0usize;
        for (index, w) in self.workers.iter().enumerate() {
            if w.send(WorkerMessage::CollectStats { reply: tx.clone() })
                .is_ok()
            {
                expected += 1;
            } else {
                self.note_worker_down(index);
            }
        }
        (rx, expected)
    }

    /// The planning half of an adjustment round, fed with the collected
    /// worker reports (sorted by worker id). Returns true if a migration was
    /// issued.
    fn adjust_with_reports(&self, reports: &[WorkerStatsReport]) -> bool {
        if reports.len() < 2 {
            return false;
        }
        let loads: Vec<f64> = reports.iter().map(|r| r.load.load(&self.costs)).collect();
        let Some((hi, lo)) = self.adjuster.detect_imbalance(&loads) else {
            return false;
        };
        let overloaded = WorkerLoadInfo {
            worker: reports[hi].worker,
            cells: reports[hi].cells.clone(),
        };
        let underloaded = WorkerLoadInfo {
            worker: reports[lo].worker,
            cells: reports[lo].cells.clone(),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "plan self-timing metric only; migration decisions consume worker-reported counters on the dispatcher-0 batch clock"
        )]
        let plan_start = Instant::now();
        let plan = self.adjuster.plan(&overloaded, &underloaded);
        self.metrics
            .migration
            .selection_time_us
            .fetch_add(plan_start.elapsed().as_micros() as u64, Ordering::Relaxed);
        if self.apply_plan(&plan.moves) == 0 {
            return false;
        }
        self.metrics
            .migration
            .rounds
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Applies a plan and returns the number of moves that took effect.
    ///
    /// A move only ever hands over what `from` owns in the cell: a cell
    /// routed whole to `from` moves whole (its queries are extracted), and in
    /// a term-routed cell only the terms routed to `from` move (queries
    /// touching them are replicated). Reassigning a term-routed cell whole
    /// would route the other owners' terms to a worker without their queries
    /// and lose their matches; a move of nothing `from` owns is skipped.
    fn apply_plan(&self, moves: &[MigrationMove]) -> usize {
        let mut applied = 0;
        for m in moves {
            let (cell, from, to, split) = match m {
                MigrationMove::WholeCell { cell, from, to }
                | MigrationMove::MergeCell { cell, from, to } => (*cell, *from, *to, None),
                MigrationMove::TextSplit {
                    cell,
                    from,
                    to,
                    terms,
                } => (*cell, *from, *to, Some(terms)),
            };
            let terms = {
                let mut routing = self.routing.write();
                let current = routing.cell_routing(cell);
                let terms = if split.is_none()
                    && matches!(current, CellRouting::Single(owner) if *owner == from)
                {
                    routing.reassign_cell(cell, to);
                    None
                } else {
                    let terms: Vec<TermId> = match split {
                        Some(terms) => terms
                            .iter()
                            .copied()
                            .filter(|&t| current.worker_for(t) == from)
                            .collect(),
                        None => routing
                            .cell_worker_terms(cell)
                            .remove(&from)
                            .unwrap_or_default(),
                    };
                    if terms.is_empty() {
                        continue;
                    }
                    let term_set: HashSet<TermId> = terms.iter().copied().collect();
                    routing.split_cell_by_terms(cell, &term_set, to);
                    Some(terms)
                };
                self.arm_handover_barrier(cell, to);
                terms
            };
            self.send_migration(from, cell, terms, to);
            applied += 1;
        }
        applied
    }

    /// Arms the destination's hand-off barrier. Must be called **while the
    /// routing-table write lock is held**: dispatchers flush their routed
    /// batches before releasing the read lock, so every record routed by the
    /// updated table is enqueued at the destination strictly after this
    /// `CellPending` — the worker can therefore park those records until the
    /// migrated queries arrive, making the hand-off lossless.
    fn arm_handover_barrier(&self, cell: CellId, to: WorkerId) {
        if let Some(tx) = self.workers.get(to.index()) {
            let _ = tx.send(WorkerMessage::CellPending { cell });
        }
    }

    fn send_migration(
        &self,
        from: WorkerId,
        cell: CellId,
        terms: Option<Vec<TermId>>,
        to: WorkerId,
    ) {
        if let Some(tx) = self.workers.get(from.index()) {
            let _ = tx.send(WorkerMessage::MigrateCell { cell, terms, to });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::WorkerStatsReport;
    use ps2stream_balance::CellLoadInfo;
    use ps2stream_geo::Rect;
    use ps2stream_partition::WorkerLoad;
    use ps2stream_stream::unbounded;
    use ps2stream_text::TermStats;

    fn routing_two_workers() -> RoutingTable {
        let grid = ps2stream_geo::UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 4, 4);
        let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
        RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "test")
    }

    /// A controller that requests stats on its first step.
    fn controller(
        routing: Arc<RwLock<RoutingTable>>,
        workers: Vec<Sender<WorkerMessage>>,
        metrics: &Arc<SystemMetrics>,
    ) -> AdjustmentController {
        let config = AdjustmentConfig {
            period_batches: 0,
            ..AdjustmentConfig::default()
        };
        AdjustmentController::new(
            &config,
            CostConstants::default(),
            routing,
            workers,
            Arc::clone(metrics),
        )
    }

    /// Steps the controller until its round completes, as dispatcher 0's
    /// later batches would.
    fn run_round(controller: &mut AdjustmentController) -> bool {
        loop {
            if let Some(migrated) = controller.step() {
                return migrated;
            }
            std::thread::yield_now();
        }
    }

    fn fake_worker(
        report: WorkerStatsReport,
    ) -> (
        Sender<WorkerMessage>,
        std::thread::JoinHandle<Vec<WorkerMessage>>,
    ) {
        let (tx, rx) = unbounded::<WorkerMessage>();
        let handle = std::thread::spawn(move || {
            let mut control_messages = Vec::new();
            while let Ok(msg) = rx.recv() {
                match msg {
                    WorkerMessage::CollectStats { reply } => {
                        let _ = reply.send(report.clone());
                    }
                    WorkerMessage::Shutdown => break,
                    other => control_messages.push(other),
                }
            }
            control_messages
        });
        (tx, handle)
    }

    #[test]
    fn controller_migrates_from_overloaded_to_underloaded_worker() {
        let metrics = SystemMetrics::new(2);
        let routing = Arc::new(RwLock::new(routing_two_workers()));
        // worker 0 heavily loaded with two cells; worker 1 idle
        let heavy = WorkerStatsReport {
            worker: WorkerId(0),
            load: WorkerLoad::new(1_000, 100, 0),
            cells: vec![
                CellLoadInfo {
                    cell: CellId::new(0, 0),
                    objects: 500,
                    queries: 50,
                    size: 5_000,
                    text_split: false,
                    term_loads: vec![],
                },
                CellLoadInfo {
                    cell: CellId::new(1, 0),
                    objects: 500,
                    queries: 50,
                    size: 5_000,
                    text_split: false,
                    term_loads: vec![],
                },
            ],
            indexed_queries: 100,
            memory_bytes: 10_000,
        };
        let idle = WorkerStatsReport {
            worker: WorkerId(1),
            load: WorkerLoad::new(10, 1, 0),
            cells: vec![],
            indexed_queries: 1,
            memory_bytes: 100,
        };
        let (tx0, h0) = fake_worker(heavy);
        let (tx1, h1) = fake_worker(idle);
        let mut controller = controller(
            Arc::clone(&routing),
            vec![tx0.clone(), tx1.clone()],
            &metrics,
        );
        assert!(run_round(&mut controller));
        assert_eq!(metrics.migration.rounds.load(Ordering::Relaxed), 1);

        // shut the fake workers down and inspect the control traffic
        tx0.send(WorkerMessage::Shutdown).unwrap();
        tx1.send(WorkerMessage::Shutdown).unwrap();
        let to_w0 = h0.join().unwrap();
        let to_w1 = h1.join().unwrap();
        assert!(
            to_w0
                .iter()
                .any(|m| matches!(m, WorkerMessage::MigrateCell { to, .. } if *to == WorkerId(1))),
            "worker 0 should have been told to migrate a cell"
        );
        // the destination gets exactly the hand-off barrier(s), armed before
        // the source is told to migrate
        assert!(!to_w1.is_empty());
        assert!(to_w1
            .iter()
            .all(|m| matches!(m, WorkerMessage::CellPending { .. })));
        // the routing table now sends at least one cell to worker 1
        let routing = routing.read();
        let moved = routing.grid().all_cells().any(
            |c| matches!(routing.cell_routing(c), CellRouting::Single(w) if *w == WorkerId(1)),
        );
        assert!(moved);
    }

    #[test]
    fn controller_does_nothing_when_balanced() {
        let metrics = SystemMetrics::new(2);
        let routing = Arc::new(RwLock::new(routing_two_workers()));
        let report = |w: u32| WorkerStatsReport {
            worker: WorkerId(w),
            load: WorkerLoad::new(100, 10, 0),
            cells: vec![],
            indexed_queries: 10,
            memory_bytes: 1_000,
        };
        let (tx0, h0) = fake_worker(report(0));
        let (tx1, h1) = fake_worker(report(1));
        let mut controller = controller(routing, vec![tx0.clone(), tx1.clone()], &metrics);
        assert!(!run_round(&mut controller));
        assert_eq!(metrics.migration.rounds.load(Ordering::Relaxed), 0);
        tx0.send(WorkerMessage::Shutdown).unwrap();
        tx1.send(WorkerMessage::Shutdown).unwrap();
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn stats_are_requested_once_per_period_of_batches() {
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = unbounded::<WorkerMessage>();
        let config = AdjustmentConfig {
            period_batches: 3,
            ..AdjustmentConfig::default()
        };
        let mut controller = AdjustmentController::new(
            &config,
            CostConstants::default(),
            Arc::new(RwLock::new(routing_two_workers())),
            vec![tx],
            Arc::clone(&metrics),
        );
        for round in 0..2 {
            for _ in 0..3 {
                assert_eq!(controller.step(), None);
                assert!(rx.try_recv().is_err(), "round {round}: requested early");
            }
            assert_eq!(controller.step(), None);
            let Ok(WorkerMessage::CollectStats { reply }) = rx.try_recv() else {
                panic!("round {round}: the period's last batch must request stats");
            };
            // the reply is gathered on a later batch; a single worker can
            // never be imbalanced
            assert_eq!(controller.step(), None);
            reply
                .send(WorkerStatsReport {
                    worker: WorkerId(0),
                    load: WorkerLoad::new(10, 1, 0),
                    cells: vec![],
                    indexed_queries: 1,
                    memory_bytes: 100,
                })
                .unwrap();
            assert_eq!(controller.step(), Some(false));
        }
    }

    #[test]
    fn dead_and_silent_workers_are_accounted_by_the_supervisor() {
        let metrics = SystemMetrics::new(2);
        let supervisor = Supervisor::new(2, false);
        // worker 0's channel is already disconnected
        let (dead_tx, dead_rx) = unbounded::<WorkerMessage>();
        drop(dead_rx);
        // worker 1 accepts the stats request but never answers (it drops the
        // reply channel), so the collection falls short of `expected`
        let (silent_tx, silent_rx) = unbounded::<WorkerMessage>();
        let silent = std::thread::spawn(move || {
            while let Ok(msg) = silent_rx.recv() {
                match msg {
                    WorkerMessage::CollectStats { reply } => drop(reply),
                    WorkerMessage::Shutdown => break,
                    _ => {}
                }
            }
        });
        let mut controller = controller(
            Arc::new(RwLock::new(routing_two_workers())),
            vec![dead_tx, silent_tx.clone()],
            &metrics,
        )
        .with_supervisor(Arc::clone(&supervisor));
        assert!(!run_round(&mut controller));
        assert!(supervisor.is_down(0), "the dead channel is peer death");
        assert!(!supervisor.is_down(1), "silence alone is not death");
        assert_eq!(metrics.faults.peer_disconnects.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.faults.liveness_suspects.load(Ordering::Relaxed), 1);
        silent_tx.send(WorkerMessage::Shutdown).unwrap();
        silent.join().unwrap();
    }

    #[test]
    fn moves_hand_over_only_what_the_source_owns_in_a_term_routed_cell() {
        let metrics = SystemMetrics::new(3);
        let grid = ps2stream_geo::UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 4, 4);
        let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
        let mut table = RoutingTable::new(grid, cells, 3, Arc::new(TermStats::new()), "test");
        let cell = CellId::new(0, 0);
        // two live terms in the cell; term 1 was text-split to worker 1
        for term in [1, 2] {
            table.route_insert(&ps2stream_model::StsQuery::new(
                ps2stream_model::QueryId(term.into()),
                ps2stream_model::SubscriberId(0),
                ps2stream_text::BooleanExpr::single(TermId(term)),
                Rect::from_coords(0.5, 0.5, 1.0, 1.0),
            ));
        }
        table.split_cell_by_terms(cell, &HashSet::from([TermId(1)]), WorkerId(1));
        let routing = Arc::new(RwLock::new(table));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded::<WorkerMessage>()).unzip();
        let controller = controller(Arc::clone(&routing), txs, &metrics);

        // worker 1 owns only term 1 of the cell: a whole-cell move from it
        // hands over term 1 and leaves term 2 with worker 0
        let whole = MigrationMove::WholeCell {
            cell,
            from: WorkerId(1),
            to: WorkerId(2),
        };
        assert_eq!(controller.apply_plan(&[whole]), 1);
        {
            let routing = routing.read();
            assert_eq!(
                routing.cell_routing(cell).worker_for(TermId(1)),
                WorkerId(2)
            );
            assert_eq!(
                routing.cell_routing(cell).worker_for(TermId(2)),
                WorkerId(0)
            );
        }
        assert!(matches!(
            rxs[1].try_recv(),
            Ok(WorkerMessage::MigrateCell { terms: Some(terms), to: WorkerId(2), .. })
                if terms == vec![TermId(1)]
        ));
        assert!(matches!(
            rxs[2].try_recv(),
            Ok(WorkerMessage::CellPending { .. })
        ));

        // worker 1 now owns nothing there: its moves are skipped
        let split = MigrationMove::TextSplit {
            cell,
            from: WorkerId(1),
            to: WorkerId(0),
            terms: vec![TermId(1), TermId(2)],
        };
        let whole = MigrationMove::WholeCell {
            cell,
            from: WorkerId(1),
            to: WorkerId(0),
        };
        assert_eq!(controller.apply_plan(&[split, whole]), 0);
        assert!(rxs.iter().all(|rx| rx.try_recv().is_err()));
    }

    #[test]
    fn selector_factory_builds_all_kinds() {
        for kind in [
            SelectorKind::Dp,
            SelectorKind::Greedy,
            SelectorKind::Size,
            SelectorKind::Random,
        ] {
            let s = build_selector(kind);
            assert_eq!(s.name(), kind.name());
        }
    }
}
