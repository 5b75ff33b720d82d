//! Messages exchanged between the executors of a PS2Stream topology.

use ps2stream_balance::CellLoadInfo;
use ps2stream_geo::CellId;
use ps2stream_model::{MatchResult, StreamRecord, StsQuery, WorkerId};
use ps2stream_partition::WorkerLoad;
use ps2stream_stream::{Batch, Sender};
use ps2stream_text::TermId;

/// A message delivered to a worker executor.
#[derive(Debug)]
pub enum WorkerMessage {
    /// A batch of routed stream records (objects to match and query updates
    /// to apply), in dispatcher order. Each record keeps its own ingestion
    /// timestamp.
    Records(Batch<StreamRecord>),
    /// Control: extract the queries of `cell` (restricted to `terms` when
    /// present) and ship them to worker `to` (local load adjustment).
    MigrateCell {
        /// The cell whose queries move.
        cell: CellId,
        /// When present, only queries using at least one of these keywords
        /// move (Phase-I text split / merge); otherwise the whole cell moves.
        terms: Option<Vec<TermId>>,
        /// Destination worker.
        to: WorkerId,
    },
    /// Control: the receiving worker is the destination of an in-flight cell
    /// hand-off. Sent by the adjustment controller *while it still holds the
    /// routing-table write lock*, so it is guaranteed to sit in the worker's
    /// queue before any record routed by the updated table. From here until
    /// every owed [`WorkerMessage::MigrateIn`] has arrived, the worker parks
    /// every routed record — objects and subscription updates alike — in
    /// arrival order, so no object reaches the new owner before the migrated
    /// queries (a lost match), and no update lands before the older copy of
    /// its query that the `MigrateIn` carries (a deleted query matching).
    CellPending {
        /// The cell being handed over.
        cell: CellId,
    },
    /// Control: queries migrated from another worker; index them, then, once
    /// no other hand-off is pending, replay the parked records. Always sent
    /// by the migration source (even with no queries) so the destination's
    /// pending hand-off is released.
    MigrateIn {
        /// The cell whose hand-off this message completes.
        cell: CellId,
        /// The migrated queries.
        queries: Vec<StsQuery>,
    },
    /// Control: report the load observed since the previous report and reset
    /// the period counters.
    CollectStats {
        /// Channel on which to send the report.
        reply: Sender<WorkerStatsReport>,
    },
    /// Control: serialize the worker's GI² index in canonical form (see
    /// `ps2stream_index::snapshot`) and reply with the bytes. Used by the
    /// durability layer to capture per-worker index state, and by the
    /// recovery tests to compare a recovered worker against a freshly routed
    /// one.
    Checkpoint {
        /// Channel on which to send the serialized index.
        reply: Sender<WorkerCheckpoint>,
    },
    /// Control: drain and terminate.
    Shutdown,
}

/// A message delivered to a merger executor.
#[derive(Debug)]
pub enum MergerMessage {
    /// A batch of per-object match result sets produced by a worker: each
    /// record is the envelope of one object's matches (carrying that object's
    /// ingestion timestamp for latency accounting).
    Matches(Batch<Vec<MatchResult>>),
}

/// A worker's answer to [`WorkerMessage::Checkpoint`].
#[derive(Debug, Clone)]
pub struct WorkerCheckpoint {
    /// The replying worker.
    pub worker: WorkerId,
    /// Canonical index serialization (`Gi2Index::snapshot_bytes`).
    pub index_bytes: Vec<u8>,
}

/// A worker's answer to [`WorkerMessage::CollectStats`].
#[derive(Debug, Clone)]
pub struct WorkerStatsReport {
    /// The reporting worker.
    pub worker: WorkerId,
    /// Tuple counts of the period (Definition 1 inputs).
    pub load: WorkerLoad,
    /// Per-cell load information for the adjustment planner.
    pub cells: Vec<CellLoadInfo>,
    /// Number of STS queries currently indexed.
    pub indexed_queries: usize,
    /// Approximate memory footprint of the worker's GI² index in bytes.
    pub memory_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Point;
    use ps2stream_model::{ObjectId, SpatioTextualObject};

    #[test]
    fn worker_message_variants_construct() {
        let record = WorkerMessage::Records(Batch::of_one(ps2stream_stream::Envelope::now(
            0,
            StreamRecord::Object(SpatioTextualObject::new(
                ObjectId(1),
                vec![],
                Point::origin(),
            )),
        )));
        assert!(matches!(record, WorkerMessage::Records(_)));
        let migrate = WorkerMessage::MigrateCell {
            cell: CellId::new(1, 2),
            terms: Some(vec![TermId(3)]),
            to: WorkerId(4),
        };
        assert!(matches!(migrate, WorkerMessage::MigrateCell { .. }));
        assert!(matches!(WorkerMessage::Shutdown, WorkerMessage::Shutdown));
    }

    #[test]
    fn stats_report_holds_load() {
        let report = WorkerStatsReport {
            worker: WorkerId(1),
            load: WorkerLoad::new(10, 2, 1),
            cells: vec![],
            indexed_queries: 5,
            memory_bytes: 1024,
        };
        assert_eq!(report.load.tuples(), 13);
        assert_eq!(report.worker, WorkerId(1));
    }
}
