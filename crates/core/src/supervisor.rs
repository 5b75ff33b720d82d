//! Supervision state shared between the launcher and the executors.
//!
//! The paper's Storm deployment inherits worker supervision from the
//! platform: Nimbus restarts dead executors and the topology replays from
//! the spout. This in-process reproduction splits the equivalent in two:
//!
//! * **peer-death flags** on a [`Supervisor`] handle shared by the
//!   dispatchers and the adjustment controller, raised when a send to a
//!   worker channel reports disconnection, turning the substrate's
//!   silent-drop shutdown convention into an observable signal;
//! * **a per-worker fault schedule** ([`WorkerFaults`], derived from the
//!   system's [`ps2stream_stream::FaultPlan`]). A worker whose crash is
//!   still scheduled logs every change it applies to its GI² index — each
//!   insert, delete and whole-cell extract, in the order applied — and
//!   drops the log when the crash fires.
//!
//! Recovery is *in-band*: on the deterministic simulator executors make
//! progress only while the launcher joins them, so a main-thread supervisor
//! loop could never run concurrently with the schedule. Instead the crashed
//! worker itself performs the respawn: it parks incoming records for a
//! configurable lag, replays its own log onto the emptied index, then
//! replays the parked records in arrival order. Any control message ends
//! the window early, so a migration or a checkpoint always meets the
//! restored index. The respawn reads no shared state: what a worker held is
//! a matter of its own history, not of the current routing table.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Per-worker peer-death flags, shared by the dispatchers and the
/// adjustment controller. One per running system.
#[derive(Debug)]
pub struct Supervisor {
    /// Workers whose input channel reported disconnection.
    down: Vec<AtomicBool>,
}

impl Supervisor {
    /// Creates supervision state for `num_workers` workers.
    ///
    /// The second argument has no effect. It survives only because the
    /// `crates/benchmark/` replay still passes it; the next change allowed
    /// to edit that crate deletes it.
    pub fn new(num_workers: usize, _unused: bool) -> Arc<Self> {
        Arc::new(Self {
            down: (0..num_workers).map(|_| AtomicBool::new(false)).collect(),
        })
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
