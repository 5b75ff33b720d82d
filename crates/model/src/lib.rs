//! Shared domain model for PS2Stream.
//!
//! Defines the spatio-textual object, the STS (Spatio-Textual Subscription)
//! query, query update requests, stream records and match results used by
//! every other crate of the reproduction.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod object;
pub mod query;
pub mod record;
pub mod wire;

pub use object::{ObjectId, SpatioTextualObject};
pub use query::{QueryId, QueryUpdate, StsQuery, SubscriberId};
pub use record::{MatchResult, StreamRecord, WorkerId};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_text::{BooleanExpr, TermId};

    fn arb_terms() -> impl Strategy<Value = Vec<TermId>> {
        proptest::collection::vec((0u32..40).prop_map(TermId), 0..15)
    }

    fn arb_expr() -> impl Strategy<Value = BooleanExpr> {
        proptest::collection::vec(
            proptest::collection::vec((0u32..40).prop_map(TermId), 1..3),
            1..3,
        )
        .prop_map(BooleanExpr::from_dnf)
    }

    proptest! {
        #[test]
        fn expr_wire_bytes_are_the_clause_list_and_roundtrip(
            // up to 4 clauses of 1–4 keywords: both sides of the in-place limit
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..40).prop_map(TermId), 1..5),
                1..5,
            ),
        ) {
            let expr = BooleanExpr::from_dnf(raw.clone());
            let mut expected = Vec::new();
            wire::put_u32(&mut expected, raw.len() as u32);
            for clause in &raw {
                let mut clause = clause.clone();
                clause.sort_unstable();
                clause.dedup();
                wire::put_u32(&mut expected, clause.len() as u32);
                for t in clause {
                    wire::put_u32(&mut expected, t.0);
                }
            }
            let mut encoded = Vec::new();
            wire::encode_expr(&mut encoded, &expr);
            prop_assert_eq!(&encoded, &expected);
            let mut reader = wire::WireReader::new(&encoded);
            prop_assert_eq!(wire::decode_expr(&mut reader), Ok(expr));
            prop_assert_eq!(reader.remaining(), 0);
        }

        #[test]
        fn query_matches_iff_region_and_expr(
            terms in arb_terms(),
            expr in arb_expr(),
            ox in -10.0f64..10.0,
            oy in -10.0f64..10.0,
            qx in -10.0f64..10.0,
            qy in -10.0f64..10.0,
            side in 0.1f64..10.0,
        ) {
            let object = SpatioTextualObject::new(ObjectId(1), terms, Point::new(ox, oy));
            let region = Rect::square(Point::new(qx, qy), side);
            let query = StsQuery::new(QueryId(1), SubscriberId(1), expr.clone(), region);
            let expected =
                region.contains_point(&object.location) && expr.matches_sorted(&object.terms);
            prop_assert_eq!(query.matches(&object), expected);
        }
    }
}
