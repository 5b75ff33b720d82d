//! Term distributions and cosine similarity.
//!
//! The hybrid partitioning algorithm (Algorithm 1) decides whether a subspace
//! should be text-partitioned by computing the **cosine similarity** between
//! the term distribution of the objects and the term distribution of the
//! queries inside that subspace: `simt(O_n, Q_n)`. [`TermDistribution`] is a
//! sparse term-frequency vector supporting exactly that computation.

use crate::vocab::TermId;
use std::collections::HashMap;

/// A sparse term-frequency vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TermDistribution {
    weights: HashMap<TermId, f64>,
}

impl TermDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` to a term's entry.
    pub fn add(&mut self, term: TermId, weight: f64) {
        *self.weights.entry(term).or_insert(0.0) += weight;
    }

    /// Adds one count for each term of an object / query term list.
    pub fn add_terms(&mut self, terms: &[TermId]) {
        for &t in terms {
            self.add(t, 1.0);
        }
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &TermDistribution) {
        for (&t, &w) in &other.weights {
            self.add(t, w);
        }
    }

    /// Weight of a term (0.0 if absent).
    pub fn weight(&self, term: TermId) -> f64 {
        self.weights.get(&term).copied().unwrap_or(0.0)
    }

    /// Number of distinct terms with non-zero weight.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the distribution has no entries.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterates over `(term, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.weights.iter().map(|(t, w)| (*t, *w))
    }

    /// Euclidean norm of the vector.
    pub fn norm(&self) -> f64 {
        self.weights.values().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Cosine similarity with another distribution, in `[0, 1]` for
    /// non-negative weights. Returns 0.0 if either vector is empty or has
    /// zero norm.
    pub fn cosine_similarity(&self, other: &TermDistribution) -> f64 {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let dot: f64 = small
            .weights
            .iter()
            .map(|(t, w)| w * large.weight(*t))
            .sum();
        let denom = self.norm() * other.norm();
        if denom <= 0.0 {
            0.0
        } else {
            (dot / denom).clamp(0.0, 1.0)
        }
    }

    /// Total weight across all terms.
    pub fn total_weight(&self) -> f64 {
        self.weights.values().sum()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.weights.len() * (std::mem::size_of::<TermId>() + std::mem::size_of::<f64>() + 16)
    }
}

impl FromIterator<(TermId, f64)> for TermDistribution {
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(iter: I) -> Self {
        let mut d = TermDistribution::new();
        for (t, w) in iter {
            d.add(t, w);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn add_and_weight() {
        let mut d = TermDistribution::new();
        d.add(t(1), 2.0);
        d.add(t(1), 3.0);
        d.add(t(2), 1.0);
        assert_eq!(d.weight(t(1)), 5.0);
        assert_eq!(d.weight(t(2)), 1.0);
        assert_eq!(d.weight(t(3)), 0.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.total_weight(), 6.0);
    }

    #[test]
    fn add_terms_counts_each_occurrence() {
        let mut d = TermDistribution::new();
        d.add_terms(&[t(1), t(2), t(1)]);
        assert_eq!(d.weight(t(1)), 2.0);
        assert_eq!(d.weight(t(2)), 1.0);
    }

    #[test]
    fn identical_distributions_have_similarity_one() {
        let d: TermDistribution = [(t(1), 3.0), (t(2), 4.0)].into_iter().collect();
        assert!((d.cosine_similarity(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_distributions_have_similarity_zero() {
        let a: TermDistribution = [(t(1), 1.0), (t(2), 1.0)].into_iter().collect();
        let b: TermDistribution = [(t(3), 1.0), (t(4), 1.0)].into_iter().collect();
        assert_eq!(a.cosine_similarity(&b), 0.0);
    }

    #[test]
    fn scaling_does_not_change_similarity() {
        let a: TermDistribution = [(t(1), 1.0), (t(2), 2.0)].into_iter().collect();
        let b: TermDistribution = [(t(1), 10.0), (t(2), 20.0)].into_iter().collect();
        assert!((a.cosine_similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a: TermDistribution = [(t(1), 1.0), (t(2), 5.0), (t(7), 0.5)]
            .into_iter()
            .collect();
        let b: TermDistribution = [(t(2), 3.0), (t(7), 2.0), (t(9), 4.0)]
            .into_iter()
            .collect();
        assert!((a.cosine_similarity(&b) - b.cosine_similarity(&a)).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_similarity_is_zero() {
        let a = TermDistribution::new();
        let b: TermDistribution = [(t(1), 1.0)].into_iter().collect();
        assert_eq!(a.cosine_similarity(&b), 0.0);
        assert_eq!(a.cosine_similarity(&a), 0.0);
    }

    #[test]
    fn partial_overlap_similarity_between_zero_and_one() {
        let a: TermDistribution = [(t(1), 1.0), (t(2), 1.0)].into_iter().collect();
        let b: TermDistribution = [(t(2), 1.0), (t(3), 1.0)].into_iter().collect();
        let sim = a.cosine_similarity(&b);
        assert!(sim > 0.0 && sim < 1.0);
        assert!((sim - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a: TermDistribution = [(t(1), 1.0)].into_iter().collect();
        let b: TermDistribution = [(t(1), 2.0), (t(2), 3.0)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.weight(t(1)), 3.0);
        assert_eq!(a.weight(t(2)), 3.0);
    }

    #[test]
    fn norm_and_memory() {
        let d: TermDistribution = [(t(1), 3.0), (t(2), 4.0)].into_iter().collect();
        assert!((d.norm() - 5.0).abs() < 1e-12);
        assert!(d.memory_usage() > std::mem::size_of::<TermDistribution>());
    }
}
