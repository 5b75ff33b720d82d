//! Canonical serialization of a [`Gi2Index`].
//!
//! The snapshot is *canonical*, not structural: it stores the grid geometry
//! and the live queries in ascending-id order — never the slab slot layout or
//! the posting lists. Slot numbers depend on the whole
//! insert/delete/migration history, so two indexes holding the same queries
//! can disagree on every slot; the canonical form makes "recovered by replay"
//! and "freshly routed" byte-comparable. The term table is not part of an
//! index's state (it is the routing table's, shared), so it is not stored.

use crate::gi2::{Gi2Config, Gi2Index};
use ps2stream_geo::MAX_GRID_EXP;
use ps2stream_model::wire::{self, WireError, WireReader};
use ps2stream_model::StsQuery;

/// The decoded contents of an index snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotParts {
    /// Grid geometry of the snapshotted index.
    pub config: Gi2Config,
    /// Live queries in ascending-id order.
    pub queries: Vec<StsQuery>,
}

impl SnapshotParts {
    /// Rebuilds an index holding every query, over an empty term table.
    pub fn build_index(&self) -> Gi2Index {
        let mut index = Gi2Index::new(self.config.clone());
        for q in &self.queries {
            index.insert(q.clone());
        }
        index
    }
}

/// Decodes snapshot bytes produced by [`Gi2Index::snapshot_bytes`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotParts, WireError> {
    let mut r = WireReader::new(bytes);
    let bounds = wire::decode_rect(&mut r)?;
    let granularity_exp = r.u32()?;
    if granularity_exp > MAX_GRID_EXP {
        return Err(WireError::Oversize(granularity_exp));
    }
    let nqueries = r.count()?;
    let mut queries = Vec::with_capacity(nqueries as usize);
    for _ in 0..nqueries {
        queries.push(wire::decode_query(&mut r)?);
    }
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(SnapshotParts {
        config: Gi2Config::new(bounds).with_granularity_exp(granularity_exp),
        queries,
    })
}

impl Gi2Index {
    /// Serializes this index in canonical form (see the module docs). Two
    /// indexes holding the same live queries produce identical bytes
    /// regardless of their internal slot layout.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let grid = self.grid();
        wire::encode_rect(&mut out, &grid.bounds());
        wire::put_u32(&mut out, grid.nx().trailing_zeros());
        let mut queries: Vec<&StsQuery> = self.queries().collect();
        queries.sort_by_key(|q| q.id);
        wire::put_u32(&mut out, queries.len() as u32);
        for q in queries {
            wire::encode_query(&mut out, q);
        }
        out
    }

    /// Rebuilds an index from [`Gi2Index::snapshot_bytes`] output.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Gi2Index, WireError> {
        Ok(decode_snapshot(bytes)?.build_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, SubscriberId};
    use ps2stream_text::{BooleanExpr, TermId};

    fn query(id: u64, terms: &[u32], region: Rect) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id * 10),
            BooleanExpr::and_of(terms.iter().map(|t| TermId(*t))),
            region,
        )
    }

    fn object(id: u64, terms: &[u32], x: f64, y: f64) -> SpatioTextualObject {
        SpatioTextualObject::new(
            ObjectId(id),
            terms.iter().map(|t| TermId(*t)).collect(),
            Point::new(x, y),
        )
    }

    fn config() -> Gi2Config {
        Gi2Config::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0)).with_granularity_exp(4)
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries_and_matching() {
        let mut idx = Gi2Index::new(config());
        for i in 0..30u64 {
            idx.insert(query(
                i,
                &[(i % 5) as u32, 10 + (i % 3) as u32],
                Rect::from_coords(0.0, 0.0, (4 + i % 40) as f64, (4 + i % 40) as f64),
            ));
        }
        for i in [2u64, 9, 17] {
            idx.delete_by_id(QueryId(i));
        }
        for i in 0..20u64 {
            let _ = idx.match_one(&object(i, &[(i % 6) as u32], (i % 30) as f64, 3.0));
        }
        let restored = Gi2Index::from_snapshot_bytes(&idx.snapshot_bytes()).unwrap();
        assert_eq!(restored.num_queries(), idx.num_queries());
        for i in 0..25u64 {
            let o = object(
                100 + i,
                &[(i % 7) as u32, 11],
                (i % 40) as f64,
                (i % 9) as f64,
            );
            let mut a: Vec<QueryId> = idx.match_one(&o).iter().map(|m| m.query_id).collect();
            let mut b: Vec<QueryId> = restored
                .clone()
                .match_one(&o)
                .iter()
                .map(|m| m.query_id)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "object {i}");
        }
    }

    #[test]
    fn snapshot_is_canonical_across_histories() {
        // Same final query set via different histories (insertion order,
        // delete/re-insert churn) must serialize to identical bytes.
        let mut a = Gi2Index::new(config());
        let mut b = Gi2Index::new(config());
        let qs: Vec<StsQuery> = (0..12u64)
            .map(|i| {
                query(
                    i,
                    &[(i % 4) as u32],
                    Rect::from_coords(0.0, 0.0, 20.0, 20.0),
                )
            })
            .collect();
        for q in &qs {
            a.insert(q.clone());
        }
        // b: reverse order, with churn that shuffles slot assignments
        for q in qs.iter().rev() {
            b.insert(q.clone());
        }
        b.insert(query(99, &[1], Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        b.delete_by_id(QueryId(99));
        let _ = b.match_one(&object(0, &[1], 1.0, 1.0));
        b.delete_by_id(QueryId(3));
        b.insert(qs[3].clone());
        assert_eq!(a.num_queries(), b.num_queries());
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
    }

    #[test]
    fn truncated_snapshot_errors_instead_of_panicking() {
        let mut idx = Gi2Index::new(config());
        idx.insert(query(1, &[1], Rect::from_coords(0.0, 0.0, 10.0, 10.0)));
        let bytes = idx.snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Gi2Index::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
        assert!(Gi2Index::from_snapshot_bytes(&bytes).is_ok());
    }

    #[test]
    fn an_out_of_range_grid_exponent_errors_instead_of_panicking() {
        let mut bytes = Gi2Index::new(config()).snapshot_bytes();
        // the exponent word follows the bounds' four coordinates
        for exp in [MAX_GRID_EXP + 1, 40, u32::MAX] {
            bytes[32..36].copy_from_slice(&exp.to_le_bytes());
            assert_eq!(decode_snapshot(&bytes), Err(WireError::Oversize(exp)));
        }
        bytes[32..36].copy_from_slice(&MAX_GRID_EXP.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bytes).unwrap().build_index().grid().nx(),
            256
        );
    }

    #[test]
    fn grid_geometry_survives_the_roundtrip() {
        let cfg =
            Gi2Config::new(Rect::from_coords(-10.0, -20.0, 30.0, 40.0)).with_granularity_exp(3);
        let idx = Gi2Index::new(cfg);
        let restored = Gi2Index::from_snapshot_bytes(&idx.snapshot_bytes()).unwrap();
        assert_eq!(restored.grid().bounds(), idx.grid().bounds());
        assert_eq!(restored.grid().nx(), 8);
        assert_eq!(restored.grid().ny(), 8);
    }
}
