//! Fixed-layout binary encoding of the durable model types.
//!
//! The persistence layer (`ps2stream-persist`) frames every operation-log
//! record and snapshot entry as raw bytes; this module defines what those
//! bytes are. The encoding is deliberately *not* serde-based: it is a
//! little-endian, length-prefixed layout that is stable across builds,
//! byte-for-byte reproducible (the recovery tests compare files), and
//! decodable from an arbitrary — possibly torn — byte slice without panicking.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! Point       := x:f64  y:f64
//! Rect        := min:Point  max:Point
//! BooleanExpr := nclauses:u32  { nterms:u32 { term:u32 }* }*
//! StsQuery    := id:u64  subscriber:u64  Rect  BooleanExpr
//! QueryUpdate := tag:u8 (1=Insert, 2=Delete)  StsQuery
//! ```
//!
//! Decoders return [`WireError`] on truncation or malformed tags; they never
//! panic and never allocate unbounded memory from attacker-controlled (i.e.
//! torn-write) length fields.

use crate::query::{QueryId, QueryUpdate, StsQuery, SubscriberId};
use ps2stream_geo::{Point, Rect};
use ps2stream_text::{BooleanExpr, DnfBuilder, TermId};

/// Upper bound accepted for any decoded element count. Real queries have a
/// handful of clauses; a count beyond this is torn-write garbage and must be
/// rejected before it sizes an allocation.
pub const MAX_COUNT: u32 = 1 << 20;

/// Why a byte slice failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The slice ended before the value was complete.
    Truncated,
    /// An enum tag byte holds no known variant.
    BadTag(u8),
    /// A length field exceeds [`MAX_COUNT`], or a size field the largest
    /// size its structure takes (torn-write garbage).
    Oversize(u32),
    /// Decoding finished with unconsumed bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "record truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::Oversize(n) => write!(f, "implausible count or size {n}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over an encoded byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a count field, rejecting implausible values before they size an
    /// allocation.
    pub fn count(&mut self) -> Result<u32, WireError> {
        let n = self.u32()?;
        if n > MAX_COUNT {
            return Err(WireError::Oversize(n));
        }
        Ok(n)
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a [`Point`].
pub fn encode_point(out: &mut Vec<u8>, p: &Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

/// Decodes a [`Point`].
pub fn decode_point(r: &mut WireReader<'_>) -> Result<Point, WireError> {
    Ok(Point::new(r.f64()?, r.f64()?))
}

/// Encodes a [`Rect`].
pub fn encode_rect(out: &mut Vec<u8>, rect: &Rect) {
    encode_point(out, &rect.min);
    encode_point(out, &rect.max);
}

/// Decodes a [`Rect`].
pub fn decode_rect(r: &mut WireReader<'_>) -> Result<Rect, WireError> {
    let min = decode_point(r)?;
    let max = decode_point(r)?;
    Ok(Rect { min, max })
}

/// Encodes a [`BooleanExpr`] as its DNF clause list.
pub fn encode_expr(out: &mut Vec<u8>, expr: &BooleanExpr) {
    let clauses = expr.conjunctions();
    put_u32(out, clauses.len() as u32);
    for clause in clauses {
        put_u32(out, clause.len() as u32);
        for t in clause {
            put_u32(out, t.0);
        }
    }
}

/// Decodes a [`BooleanExpr`].
pub fn decode_expr(r: &mut WireReader<'_>) -> Result<BooleanExpr, WireError> {
    let nclauses = r.count()?;
    let mut expr = DnfBuilder::new();
    let mut clause = Vec::new();
    for _ in 0..nclauses {
        let nterms = r.count()?;
        clause.clear();
        for _ in 0..nterms {
            clause.push(TermId(r.u32()?));
        }
        expr.clause(clause.iter().copied());
    }
    Ok(expr.build())
}

/// Encodes an [`StsQuery`].
pub fn encode_query(out: &mut Vec<u8>, q: &StsQuery) {
    put_u64(out, q.id.0);
    put_u64(out, q.subscriber.0);
    encode_rect(out, &q.region);
    encode_expr(out, &q.keywords);
}

/// Decodes an [`StsQuery`].
pub fn decode_query(r: &mut WireReader<'_>) -> Result<StsQuery, WireError> {
    let id = QueryId(r.u64()?);
    let subscriber = SubscriberId(r.u64()?);
    let region = decode_rect(r)?;
    let keywords = decode_expr(r)?;
    Ok(StsQuery::new(id, subscriber, keywords, region))
}

/// `QueryUpdate::Insert` tag byte.
pub const TAG_INSERT: u8 = 1;
/// `QueryUpdate::Delete` tag byte.
pub const TAG_DELETE: u8 = 2;

/// Encodes a [`QueryUpdate`].
pub fn encode_update(out: &mut Vec<u8>, update: &QueryUpdate) {
    match update {
        QueryUpdate::Insert(q) => {
            out.push(TAG_INSERT);
            encode_query(out, q);
        }
        QueryUpdate::Delete(q) => {
            out.push(TAG_DELETE);
            encode_query(out, q);
        }
    }
}

/// Decodes a [`QueryUpdate`].
pub fn decode_update(r: &mut WireReader<'_>) -> Result<QueryUpdate, WireError> {
    match r.u8()? {
        TAG_INSERT => Ok(QueryUpdate::Insert(decode_query(r)?)),
        TAG_DELETE => Ok(QueryUpdate::Delete(decode_query(r)?)),
        tag => Err(WireError::BadTag(tag)),
    }
}

/// Decodes a [`QueryUpdate`] that must span the whole slice exactly.
pub fn decode_update_exact(buf: &[u8]) -> Result<QueryUpdate, WireError> {
    let mut r = WireReader::new(buf);
    let update = decode_update(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(update)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query(id: u64) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id.wrapping_mul(31)),
            BooleanExpr::from_dnf([vec![TermId(3), TermId(9)], vec![TermId(7)]]),
            Rect::from_coords(-1.25, 0.5, 3.75, 9.0),
        )
    }

    #[test]
    fn update_roundtrips() {
        for update in [
            QueryUpdate::Insert(sample_query(42)),
            QueryUpdate::Delete(sample_query(7)),
        ] {
            let mut buf = Vec::new();
            encode_update(&mut buf, &update);
            let decoded = decode_update_exact(&buf).unwrap();
            assert_eq!(decoded, update);
        }
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let mut buf = Vec::new();
        encode_update(&mut buf, &QueryUpdate::Insert(sample_query(5)));
        for len in 0..buf.len() {
            let err = decode_update_exact(&buf[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "prefix of {len} bytes: {err:?}"
            );
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut buf = Vec::new();
        encode_update(&mut buf, &QueryUpdate::Insert(sample_query(5)));
        buf[0] = 0x77;
        assert_eq!(decode_update_exact(&buf), Err(WireError::BadTag(0x77)));
    }

    #[test]
    fn oversize_count_is_rejected_before_allocating() {
        // tag + id + subscriber + rect, then a poisoned clause count
        let mut buf = Vec::new();
        buf.push(TAG_INSERT);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 1);
        encode_rect(&mut buf, &Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            decode_update_exact(&buf),
            Err(WireError::Oversize(u32::MAX))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_update(&mut buf, &QueryUpdate::Delete(sample_query(9)));
        buf.push(0);
        assert_eq!(decode_update_exact(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn encoded_bytes_are_those_of_the_clause_per_vec_representation() {
        // Golden strings printed by the commit before `BooleanExpr` went
        // flat: op logs and snapshots written then must still replay.
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let t = TermId;
        let cases = [
            (BooleanExpr::single(t(7)), "010000000100000007000000"),
            (
                BooleanExpr::and_of([t(9), t(3), t(3)]),
                "01000000020000000300000009000000",
            ),
            (
                BooleanExpr::or_of([t(5), t(1), t(4)]),
                "03000000010000000100000001000000040000000100000005000000",
            ),
            (
                BooleanExpr::from_dnf([vec![t(3), t(9)], vec![t(7)], vec![], vec![t(2), t(1)]]),
                "030000000200000003000000090000000100000007000000020000000100000002000000",
            ),
            // past the in-place limit
            (
                BooleanExpr::from_dnf([vec![t(1), t(2), t(3)], vec![t(4), t(5), t(6)]]),
                "020000000300000001000000020000000300000003000000040000000500000006000000",
            ),
            (
                BooleanExpr::and_of((10..18).map(t)),
                "01000000080000000a0000000b0000000c0000000d0000000e0000000f0000001000000011000000",
            ),
            (
                BooleanExpr::or_of((20..29).map(t)),
                "09000000010000001400000001000000150000000100000016000000010000001700000001000000\
                 180000000100000019000000010000001a000000010000001b000000010000001c000000",
            ),
        ];
        for (expr, golden) in &cases {
            let mut buf = Vec::new();
            encode_expr(&mut buf, expr);
            assert_eq!(hex(&buf), *golden, "{expr:?}");
            let mut r = WireReader::new(&buf);
            assert_eq!(decode_expr(&mut r).as_ref(), Ok(expr));
            assert_eq!(r.remaining(), 0);
        }
        let query = StsQuery::new(
            QueryId(42),
            SubscriberId(7),
            cases[3].0.clone(),
            Rect::from_coords(-1.25, 0.5, 3.75, 9.0),
        );
        let mut buf = Vec::new();
        encode_update(&mut buf, &QueryUpdate::Insert(query));
        assert_eq!(
            hex(&buf),
            "012a000000000000000700000000000000000000000000f4bf000000000000e03f0000000000000e40\
             0000000000002240030000000200000003000000090000000100000007000000020000000100000002\
             000000"
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let update = QueryUpdate::Insert(sample_query(123));
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_update(&mut a, &update);
        encode_update(&mut b, &update);
        assert_eq!(a, b);
    }
}
