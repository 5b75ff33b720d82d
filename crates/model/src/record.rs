//! Stream records and match results.
//!
//! The input to PS2Stream is a single logical stream interleaving
//! spatio-textual objects with STS query insertions/deletions. Workers emit
//! [`MatchResult`]s which the mergers deduplicate and deliver to subscribers.

use crate::object::{ObjectId, SpatioTextualObject};
use crate::query::{QueryId, QueryUpdate, SubscriberId};

/// Identifier of a worker in the cluster (dense, `0 .. num_workers`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// The worker id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a dispatcher in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DispatcherId(pub u32);

/// One tuple of the input stream: either a spatio-textual object to match or
/// an update (insert/delete) of an STS query.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRecord {
    /// A spatio-textual object to be matched against registered queries.
    Object(SpatioTextualObject),
    /// An STS query insertion or deletion request.
    Update(QueryUpdate),
}

impl StreamRecord {
    /// Returns true if the record is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, StreamRecord::Object(_))
    }

    /// Returns true if the record is a query insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, StreamRecord::Update(QueryUpdate::Insert(_)))
    }

    /// Returns true if the record is a query deletion.
    pub fn is_delete(&self) -> bool {
        matches!(self, StreamRecord::Update(QueryUpdate::Delete(_)))
    }
}

/// A single match produced by a worker: object `object_id` satisfies query
/// `query_id` registered by `subscriber`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchResult {
    /// The matching query.
    pub query_id: QueryId,
    /// The subscriber owning the query.
    pub subscriber: SubscriberId,
    /// The matched object.
    pub object_id: ObjectId,
}

impl MatchResult {
    /// Creates a match result.
    pub fn new(query_id: QueryId, subscriber: SubscriberId, object_id: ObjectId) -> Self {
        Self {
            query_id,
            subscriber,
            object_id,
        }
    }

    /// The deduplication key used by mergers: the same (query, object) pair
    /// may be produced by multiple workers when a query is replicated.
    pub fn dedup_key(&self) -> (QueryId, ObjectId) {
        (self.query_id, self.object_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StsQuery;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_text::{BooleanExpr, TermId};

    #[test]
    fn record_kind_predicates() {
        let obj = StreamRecord::Object(SpatioTextualObject::new(
            ObjectId(1),
            vec![TermId(1)],
            Point::origin(),
        ));
        let q = StsQuery::new(
            QueryId(1),
            SubscriberId(1),
            BooleanExpr::single(TermId(1)),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        );
        let ins = StreamRecord::Update(QueryUpdate::Insert(q.clone()));
        let del = StreamRecord::Update(QueryUpdate::Delete(q));
        assert!(obj.is_object() && !obj.is_insert() && !obj.is_delete());
        assert!(!ins.is_object() && ins.is_insert() && !ins.is_delete());
        assert!(!del.is_object() && !del.is_insert() && del.is_delete());
    }

    #[test]
    fn match_result_dedup_key_ignores_subscriber() {
        let a = MatchResult::new(QueryId(1), SubscriberId(1), ObjectId(2));
        let b = MatchResult::new(QueryId(1), SubscriberId(9), ObjectId(2));
        assert_eq!(a.dedup_key(), b.dedup_key());
        let c = MatchResult::new(QueryId(2), SubscriberId(1), ObjectId(2));
        assert_ne!(a.dedup_key(), c.dedup_key());
    }

    #[test]
    fn worker_id_index() {
        assert_eq!(WorkerId(3).index(), 3);
    }
}
