//! Term frequency statistics over an object corpus.
//!
//! Several components need to know how frequent each keyword is among the
//! spatio-textual objects:
//!
//! * the routing table picks each query's **least frequent** keyword from
//!   the calibration sample's frozen table, which every GI² worker shares to
//!   post the query under the same keyword,
//! * the frequency-based text partitioner balances workers by term frequency,
//! * the Q2 query generator requires "at least one keyword that is not in the
//!   top 1% most frequent terms".
//!
//! [`TermStats`] accumulates document frequencies from a sample of objects
//! and answers those questions.

use crate::vocab::TermId;

/// Document-frequency statistics for interned terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermStats {
    /// `counts[term.index()]` = number of objects containing the term.
    counts: Vec<u64>,
    /// Number of objects observed.
    num_docs: u64,
}

impl TermStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one object's (deduplicated) term list.
    pub fn observe(&mut self, terms: &[TermId]) {
        self.num_docs += 1;
        for &t in terms {
            let idx = t.index();
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
        }
    }

    /// Document frequency of a term (0 if never observed).
    #[inline]
    pub fn frequency(&self, term: TermId) -> u64 {
        self.counts.get(term.index()).copied().unwrap_or(0)
    }

    /// Number of observed objects.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Terms sorted by descending frequency (ties by ascending id).
    pub fn terms_by_frequency(&self) -> Vec<(TermId, u64)> {
        let mut out: Vec<(TermId, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (TermId(i as u32), *c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }

    /// The set of terms making up the most frequent `fraction` of the
    /// vocabulary (e.g. `0.01` = "top 1% most frequent terms" from the Q2
    /// query specification). At least one term is returned when any term has
    /// been observed.
    pub fn top_fraction(&self, fraction: f64) -> Vec<TermId> {
        let ranked = self.terms_by_frequency();
        if ranked.is_empty() {
            return Vec::new();
        }
        let k = ((ranked.len() as f64 * fraction).ceil() as usize).clamp(1, ranked.len());
        ranked.into_iter().take(k).map(|(t, _)| t).collect()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn sample_stats() -> TermStats {
        let mut s = TermStats::new();
        // term 0 appears in 3 docs, term 1 in 2, term 2 in 1
        s.observe(&[t(0), t(1)]);
        s.observe(&[t(0), t(1), t(2)]);
        s.observe(&[t(0)]);
        s
    }

    #[test]
    fn observe_counts_document_frequency() {
        let s = sample_stats();
        assert_eq!(s.num_docs(), 3);
        assert_eq!(s.frequency(t(0)), 3);
        assert_eq!(s.frequency(t(1)), 2);
        assert_eq!(s.frequency(t(2)), 1);
        assert_eq!(s.frequency(t(99)), 0);
    }

    #[test]
    fn terms_by_frequency_is_descending() {
        let s = sample_stats();
        let ranked = s.terms_by_frequency();
        assert_eq!(ranked[0], (t(0), 3));
        assert_eq!(ranked[1], (t(1), 2));
        assert_eq!(ranked[2], (t(2), 1));
    }

    #[test]
    fn top_fraction_returns_most_frequent() {
        let s = sample_stats();
        assert_eq!(s.top_fraction(0.01), vec![t(0)]);
        assert_eq!(s.top_fraction(0.5), vec![t(0), t(1)]);
        assert_eq!(s.top_fraction(1.0).len(), 3);
        assert!(TermStats::new().top_fraction(0.5).is_empty());
    }

    #[test]
    fn memory_usage_grows_with_vocabulary() {
        let mut s = TermStats::new();
        let base = s.memory_usage();
        s.observe(&[t(1000)]);
        assert!(s.memory_usage() > base);
    }
}
