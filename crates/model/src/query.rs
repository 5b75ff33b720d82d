//! Spatio-Textual Subscription (STS) queries.

use crate::object::SpatioTextualObject;
use ps2stream_geo::Rect;
use ps2stream_text::BooleanExpr;

/// Identifier of an STS query, unique within one system instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl QueryId {
    /// The raw id value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Identifier of the subscriber who registered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriberId(pub u64);

/// A Spatio-Textual Subscription query `q = <K, R>` (Section III-A):
/// a boolean keyword expression plus a rectangular region of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct StsQuery {
    /// Unique query id.
    pub id: QueryId,
    /// Subscriber that registered the query.
    pub subscriber: SubscriberId,
    /// Boolean keyword expression `q.K`.
    pub keywords: BooleanExpr,
    /// Spatial region of interest `q.R`.
    pub region: Rect,
}

impl StsQuery {
    /// Creates a new STS query.
    pub fn new(id: QueryId, subscriber: SubscriberId, keywords: BooleanExpr, region: Rect) -> Self {
        Self {
            id,
            subscriber,
            keywords,
            region,
        }
    }

    /// Returns true if the object is a result of this query: the object
    /// location lies inside `q.R` and the object text satisfies `q.K`
    /// (Section III-A, matching semantics).
    pub fn matches(&self, object: &SpatioTextualObject) -> bool {
        self.region.contains_point(&object.location) && self.keywords.matches_sorted(&object.terms)
    }

    /// Approximate footprint in bytes, every byte counted once: the struct
    /// (which holds the expression in place) plus whatever the expression
    /// keeps on the heap. This is the per-query size `S_g` contribution used
    /// by the Minimum Cost Migration problem.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<BooleanExpr>()
            + self.keywords.memory_usage()
    }
}

/// An update request on the subscription side of the system: users submit new
/// subscriptions or drop existing ones (Section III-B). Deletion requests
/// carry the complete query description — Section IV-C relies on this so the
/// dispatcher can route the deletion exactly like the original insertion.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryUpdate {
    /// Register a new STS query.
    Insert(StsQuery),
    /// Drop an existing STS query (full query description included).
    Delete(StsQuery),
}

impl QueryUpdate {
    /// The query id affected by the update.
    pub fn query_id(&self) -> QueryId {
        match self {
            QueryUpdate::Insert(q) | QueryUpdate::Delete(q) => q.id,
        }
    }

    /// The full query description carried by the update.
    pub fn query(&self) -> &StsQuery {
        match self {
            QueryUpdate::Insert(q) | QueryUpdate::Delete(q) => q,
        }
    }

    /// Returns true for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, QueryUpdate::Insert(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use ps2stream_geo::Point;
    use ps2stream_text::TermId;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn obj(terms: Vec<u32>, x: f64, y: f64) -> SpatioTextualObject {
        SpatioTextualObject::new(
            ObjectId(0),
            terms.into_iter().map(TermId).collect(),
            Point::new(x, y),
        )
    }

    #[test]
    fn matches_requires_both_space_and_text() {
        let q = StsQuery::new(
            QueryId(1),
            SubscriberId(1),
            BooleanExpr::and_of([t(1), t(2)]),
            Rect::from_coords(0.0, 0.0, 10.0, 10.0),
        );
        assert!(q.matches(&obj(vec![1, 2, 3], 5.0, 5.0)));
        // text satisfied, outside region
        assert!(!q.matches(&obj(vec![1, 2], 15.0, 5.0)));
        // inside region, text unsatisfied
        assert!(!q.matches(&obj(vec![1], 5.0, 5.0)));
    }

    #[test]
    fn or_query_matching() {
        let q = StsQuery::new(
            QueryId(2),
            SubscriberId(1),
            BooleanExpr::or_of([t(7), t(8)]),
            Rect::from_coords(-1.0, -1.0, 1.0, 1.0),
        );
        assert!(q.matches(&obj(vec![8], 0.0, 0.0)));
        assert!(q.matches(&obj(vec![7, 9], 0.5, -0.5)));
        assert!(!q.matches(&obj(vec![9], 0.0, 0.0)));
    }

    #[test]
    fn boundary_point_matches() {
        let q = StsQuery::new(
            QueryId(3),
            SubscriberId(2),
            BooleanExpr::single(t(1)),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        );
        assert!(q.matches(&obj(vec![1], 1.0, 1.0)));
        assert!(q.matches(&obj(vec![1], 0.0, 0.0)));
    }

    #[test]
    fn query_update_accessors() {
        let q = StsQuery::new(
            QueryId(5),
            SubscriberId(1),
            BooleanExpr::single(t(1)),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        );
        let mut q9 = q.clone();
        q9.id = QueryId(9);
        let ins = QueryUpdate::Insert(q);
        let del = QueryUpdate::Delete(q9);
        assert_eq!(ins.query_id(), QueryId(5));
        assert!(ins.is_insert());
        assert_eq!(ins.query().id, QueryId(5));
        assert_eq!(del.query_id(), QueryId(9));
        assert!(!del.is_insert());
    }

    #[test]
    fn memory_usage_counts_every_byte_once() {
        let query = |keywords| {
            StsQuery::new(
                QueryId(1),
                SubscriberId(1),
                keywords,
                Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            )
        };
        // a paper-shaped query owns nothing outside the struct, whose
        // `size_of` already holds the expression
        let small = query(BooleanExpr::and_of([t(1), t(2), t(3)]));
        assert_eq!(small.memory_usage(), std::mem::size_of::<StsQuery>());
        // a long one adds exactly its boxed words: clause count, clause
        // length, eight keywords
        let big = query(BooleanExpr::and_of((0..8).map(t)));
        assert_eq!(
            big.memory_usage(),
            std::mem::size_of::<StsQuery>() + 10 * std::mem::size_of::<TermId>()
        );
    }
}
