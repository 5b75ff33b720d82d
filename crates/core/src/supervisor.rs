//! Supervision state shared between the launcher and the executors.
//!
//! The paper's Storm deployment inherits worker supervision from the
//! platform: Nimbus restarts dead executors and the topology replays from
//! the spout. This in-process reproduction supplies the equivalent through
//! a [`Supervisor`] handle shared by the feeder thread and every executor:
//!
//! * a **shadow subscription log** — every query update accepted by
//!   [`crate::RunningSystem::send`] is recorded with its global ingest
//!   sequence number. A worker whose in-memory GI² index is destroyed by an
//!   injected crash (see [`ps2stream_stream::FaultPlan`]) rebuilds it by
//!   replaying the prefix of this log that precedes the crash point, routed
//!   through the live routing table — exactly the updates the dead index
//!   held. The log is only maintained when the fault plan can actually
//!   crash a worker, so fault-free runs pay nothing.
//! * **peer-death flags** — raised by dispatchers and the adjustment
//!   controller when a send to a worker channel reports disconnection,
//!   turning the substrate's silent-drop shutdown convention into an
//!   observable signal.
//!
//! Recovery is *in-band*: on the deterministic simulator executors make
//! progress only while the launcher joins them, so a main-thread supervisor
//! loop could never run concurrently with the schedule. Instead the crashed
//! worker itself performs the respawn (it parks incoming records for a
//! configurable lag, restores its index from the shadow log, then replays
//! the parked records in arrival order), and the `Supervisor` is the shared
//! state it restores from.

use parking_lot::RwLock;
use ps2stream_model::QueryUpdate;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared supervision state: the crash-recovery shadow log and per-worker
/// peer-death flags. One per running system.
#[derive(Debug)]
pub struct Supervisor {
    /// `(ingest sequence, update)` pairs in ingest order. Sequences are
    /// strictly increasing (the feeder is single-threaded), so prefix
    /// queries are a partition point.
    shadow: RwLock<Vec<(u64, QueryUpdate)>>,
    /// Whether the shadow log is maintained (only when the fault plan
    /// contains a worker crash).
    shadow_enabled: bool,
    /// Workers whose input channel reported disconnection.
    down: Vec<AtomicBool>,
}

impl Supervisor {
    /// Creates supervision state for `num_workers` workers. The shadow log
    /// is recorded only when `shadow_enabled` (i.e. a crash is scheduled).
    pub fn new(num_workers: usize, shadow_enabled: bool) -> Arc<Self> {
        Arc::new(Self {
            shadow: RwLock::new(Vec::new()),
            shadow_enabled,
            down: (0..num_workers).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Records a query update accepted at ingest sequence `sequence`.
    /// No-op unless the shadow log is enabled.
    pub fn observe_update(&self, sequence: u64, update: &QueryUpdate) {
        if self.shadow_enabled {
            self.shadow.write().push((sequence, update.clone()));
        }
    }

    /// The recorded updates with ingest sequence strictly below `cutoff`,
    /// in ingest order — the recovery prefix of a worker crashing at
    /// `cutoff`.
    pub fn updates_before(&self, cutoff: u64) -> Vec<(u64, QueryUpdate)> {
        let shadow = self.shadow.read();
        let end = shadow.partition_point(|(seq, _)| *seq < cutoff);
        shadow[..end].to_vec()
    }

    /// Number of updates currently held by the shadow log.
    pub fn shadow_len(&self) -> usize {
        self.shadow.read().len()
    }

    /// Flags worker `worker` as down (its channel disconnected). Returns
    /// true the first time — callers count each death once.
    pub fn note_peer_down(&self, worker: usize) -> bool {
        self.down
            .get(worker)
            .is_some_and(|flag| !flag.swap(true, Ordering::Relaxed))
    }

    /// Whether worker `worker` was flagged down.
    pub fn is_down(&self, worker: usize) -> bool {
        self.down
            .get(worker)
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// The fault schedule of one worker, derived from the system's
/// [`ps2stream_stream::FaultPlan`] at launch. Ticks count the stream
/// records this worker admits (control messages do not tick).
#[derive(Debug, Clone, Default)]
pub struct WorkerFaults {
    /// Destroy the in-memory index after admitting this many records.
    pub crash_at: Option<u64>,
    /// `(tick, duration)`: park `duration` records starting at `tick`,
    /// then replay them (a stall without state loss).
    pub wedge: Option<(u64, u64)>,
    /// Records parked after a crash before the index restore runs,
    /// modelling the respawn delay of a real supervisor.
    pub recovery_lag: u64,
}

impl WorkerFaults {
    /// True when no fault is scheduled for this worker.
    pub fn is_inert(&self) -> bool {
        self.crash_at.is_none() && self.wedge.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Rect;
    use ps2stream_model::{QueryId, StsQuery, SubscriberId};
    use ps2stream_text::{BooleanExpr, TermId};

    fn insert(id: u64) -> QueryUpdate {
        QueryUpdate::Insert(StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::single(TermId(1)),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        ))
    }

    #[test]
    fn shadow_log_returns_the_prefix_before_the_cutoff() {
        let sup = Supervisor::new(2, true);
        for seq in [1u64, 3, 5, 9] {
            sup.observe_update(seq, &insert(seq));
        }
        assert_eq!(sup.shadow_len(), 4);
        let prefix = sup.updates_before(5);
        assert_eq!(
            prefix.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(sup.updates_before(100).len(), 4);
        assert!(sup.updates_before(0).is_empty());
    }

    #[test]
    fn disabled_shadow_log_records_nothing() {
        let sup = Supervisor::new(1, false);
        sup.observe_update(1, &insert(1));
        assert_eq!(sup.shadow_len(), 0);
    }

    #[test]
    fn peer_death_flags() {
        let sup = Supervisor::new(2, false);
        assert!(sup.note_peer_down(1), "first report wins");
        assert!(!sup.note_peer_down(1), "second report is a duplicate");
        assert!(!sup.note_peer_down(9), "out of range never fires");
        assert!(sup.is_down(1));
        assert!(!sup.is_down(0));
    }

    #[test]
    fn worker_faults_inertness() {
        assert!(WorkerFaults::default().is_inert());
        let faults = WorkerFaults {
            crash_at: Some(10),
            ..WorkerFaults::default()
        };
        assert!(!faults.is_inert());
    }
}
