//! Spatio-textual objects.

use ps2stream_geo::Point;
use ps2stream_text::{TermId, Tokenizer};

/// Identifier of a spatio-textual object, unique within one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The raw id value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A spatio-textual object `o = <text, loc>` (Section III-A).
///
/// The textual content is stored pre-tokenized as a sorted, deduplicated list
/// of interned [`TermId`]s, which is the representation every index operates
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatioTextualObject {
    /// Unique object id.
    pub id: ObjectId,
    /// Sorted, deduplicated term ids of the object text.
    pub terms: Vec<TermId>,
    /// Object location.
    pub location: Point,
    /// Event timestamp in microseconds (used for latency accounting and for
    /// the 60-day replay of the migration experiments).
    pub timestamp_us: u64,
}

impl SpatioTextualObject {
    /// Creates an object from already-tokenized terms. The term list is
    /// sorted and deduplicated.
    pub fn new(id: ObjectId, mut terms: Vec<TermId>, location: Point) -> Self {
        terms.sort_unstable();
        terms.dedup();
        Self {
            id,
            terms,
            location,
            timestamp_us: 0,
        }
    }

    /// Creates an object by tokenizing raw text with the given tokenizer.
    pub fn from_text(id: ObjectId, text: &str, location: Point, tokenizer: &Tokenizer) -> Self {
        Self::new(id, tokenizer.tokenize(text), location)
    }

    /// Sets the event timestamp (microseconds).
    pub fn with_timestamp(mut self, timestamp_us: u64) -> Self {
        self.timestamp_us = timestamp_us;
        self
    }

    /// Returns true if the object text contains the term.
    #[inline]
    pub fn contains_term(&self, term: TermId) -> bool {
        self.terms.binary_search(&term).is_ok()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.terms.len() * std::mem::size_of::<TermId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_text::Vocabulary;

    #[test]
    fn new_sorts_and_dedups_terms() {
        let o = SpatioTextualObject::new(
            ObjectId(1),
            vec![TermId(5), TermId(1), TermId(5)],
            Point::new(1.0, 2.0),
        );
        assert_eq!(o.terms, vec![TermId(1), TermId(5)]);
        assert_eq!(o.id.value(), 1);
    }

    #[test]
    fn from_text_tokenizes() {
        let tok = Tokenizer::new(Vocabulary::new());
        let o = SpatioTextualObject::from_text(
            ObjectId(7),
            "Kobe has retired",
            Point::new(-118.0, 34.0),
            &tok,
        );
        assert_eq!(o.terms.len(), 2);
        assert!(o.contains_term(tok.vocab().get("kobe").unwrap()));
        assert!(o.contains_term(tok.vocab().get("retired").unwrap()));
        assert!(!o.contains_term(TermId(9999)));
    }

    #[test]
    fn timestamp_builder() {
        let o =
            SpatioTextualObject::new(ObjectId(1), vec![], Point::origin()).with_timestamp(123_456);
        assert_eq!(o.timestamp_us, 123_456);
    }

    #[test]
    fn memory_usage_scales_with_terms() {
        let small = SpatioTextualObject::new(ObjectId(1), vec![TermId(1)], Point::origin());
        let large =
            SpatioTextualObject::new(ObjectId(2), (0..100).map(TermId).collect(), Point::origin());
        assert!(large.memory_usage() > small.memory_usage());
    }
}
