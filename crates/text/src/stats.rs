//! Term frequency statistics over an object corpus.
//!
//! Several components need to know how frequent each keyword is among the
//! spatio-textual objects:
//!
//! * GI² and the gridt index post queries under their **least frequent**
//!   keyword,
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

    /// Records a whole batch of objects' term lists in one call. Equivalent
    /// to calling [`TermStats::observe`] per document (pinned by the
    /// `observe_batch_equals_repeated_observe` property). The GI² batch
    /// matcher deliberately does **not** use this: a separate observation
    /// pass over a batch walks every term slice twice, so it observes inside
    /// its per-object match loop instead.
    pub fn observe_batch<'a, I>(&mut self, docs: I)
    where
        I: Iterator<Item = &'a [TermId]>,
    {
        for doc in docs {
            self.observe(doc);
        }
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &TermStats) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.num_docs += other.num_docs;
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

    /// Number of distinct terms with at least one occurrence.
    pub fn num_terms(&self) -> usize {
        self.counts.iter().filter(|c| **c > 0).count()
    }

    /// The least frequent term of a non-empty slice (ties broken by id).
    ///
    /// # Panics
    /// Panics if `terms` is empty.
    pub fn least_frequent(&self, terms: &[TermId]) -> TermId {
        *terms
            .iter()
            .min_by_key(|t| (self.frequency(**t), t.0))
            .expect("least_frequent requires a non-empty term slice")
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

    /// Relative frequency of a term among observed documents (0.0 if no
    /// documents were observed).
    pub fn relative_frequency(&self, term: TermId) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.frequency(term) as f64 / self.num_docs as f64
        }
    }

    /// The raw per-term document-frequency counts (`counts[term.index()]`),
    /// exposed for snapshot serialization.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds statistics from snapshot parts (the inverse of
    /// [`TermStats::counts`] + [`TermStats::num_docs`]).
    pub fn from_parts(counts: Vec<u64>, num_docs: u64) -> Self {
        Self { counts, num_docs }
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
        assert_eq!(s.num_terms(), 3);
    }

    #[test]
    fn least_frequent_picks_rarest() {
        let s = sample_stats();
        assert_eq!(s.least_frequent(&[t(0), t(1), t(2)]), t(2));
        assert_eq!(s.least_frequent(&[t(0), t(1)]), t(1));
        // unknown terms have frequency zero and win
        assert_eq!(s.least_frequent(&[t(0), t(42)]), t(42));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn least_frequent_empty_panics() {
        sample_stats().least_frequent(&[]);
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
    fn relative_frequency() {
        let s = sample_stats();
        assert!((s.relative_frequency(t(0)) - 1.0).abs() < 1e-12);
        assert!((s.relative_frequency(t(1)) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(TermStats::new().relative_frequency(t(0)), 0.0);
    }

    #[test]
    fn observe_batch_equals_repeated_observe() {
        let docs: Vec<Vec<TermId>> =
            vec![vec![t(0), t(1)], vec![], vec![t(0), t(1), t(5)], vec![t(3)]];
        let mut one_by_one = TermStats::new();
        for d in &docs {
            one_by_one.observe(d);
        }
        let mut batched = TermStats::new();
        batched.observe_batch(docs.iter().map(Vec::as_slice));
        assert_eq!(batched.num_docs(), one_by_one.num_docs());
        for i in 0..8 {
            assert_eq!(batched.frequency(t(i)), one_by_one.frequency(t(i)));
        }
        // an empty batch is a no-op
        batched.observe_batch(std::iter::empty());
        assert_eq!(batched.num_docs(), one_by_one.num_docs());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = sample_stats();
        let mut b = TermStats::new();
        b.observe(&[t(2), t(3)]);
        a.merge(&b);
        assert_eq!(a.num_docs(), 4);
        assert_eq!(a.frequency(t(2)), 2);
        assert_eq!(a.frequency(t(3)), 1);
    }

    #[test]
    fn snapshot_parts_roundtrip() {
        let s = sample_stats();
        let rebuilt = TermStats::from_parts(s.counts().to_vec(), s.num_docs());
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn memory_usage_grows_with_vocabulary() {
        let mut s = TermStats::new();
        let base = s.memory_usage();
        s.observe(&[t(1000)]);
        assert!(s.memory_usage() > base);
    }
}
