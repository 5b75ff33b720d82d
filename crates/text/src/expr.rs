//! Boolean keyword expressions of STS queries.
//!
//! An STS query's text predicate `q.K` is "a set of query keywords connected
//! by AND or OR operators" (Section III-A). We store the expression in
//! disjunctive normal form: a disjunction of conjunctions of keywords. An
//! object satisfies the expression if *some* conjunction is fully contained
//! in the object's term set.
//!
//! The DNF view also yields the posting rule used by both GI² and the gridt
//! dispatcher index (Section IV-C/IV-D): a query is posted under the least
//! frequent keyword of each conjunction, which guarantees that every matching
//! object probes at least one list containing the query.

use crate::vocab::TermId;

/// Keywords an expression stores in place. Paper-shaped queries (1–3
/// keywords joined by AND or OR) always fit; a longer expression lives in
/// one boxed slice.
const INLINE_TERMS: usize = 5;

/// A boolean keyword expression in disjunctive normal form.
///
/// Invariants maintained by the constructors:
/// * every conjunction is non-empty, sorted and deduplicated;
/// * the expression contains at least one conjunction.
///
/// The DNF is stored flat — the conjunctions' keywords back to back plus
/// their boundaries — and in place for up to `INLINE_TERMS` keywords, so
/// evaluating, cloning and dropping a paper-shaped query touches no heap.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BooleanExpr {
    repr: Repr,
}

/// One logical expression has exactly one representation (in place iff it
/// fits, unused slots zeroed), so the derived equality and hash are the
/// logical ones.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `terms[..len]` are the conjunctions' keywords back to back; bit `i` of
    /// `ends` is set iff `terms[i]` closes its conjunction (bit `len - 1`
    /// always is). Unused slots hold `TermId(0)`.
    Inline {
        len: u8,
        ends: u8,
        terms: [TermId; INLINE_TERMS],
    },
    /// `[nclauses, n₁, t…, n₂, t…]`: the conjunction count, then every
    /// conjunction prefixed by its length. Counts are stored as `TermId`
    /// words so conjunctions are borrowed straight out of the buffer.
    Heap(Box<[TermId]>),
}

/// The representative terms of a [`BooleanExpr`]
/// ([`BooleanExpr::representative_terms`]): sorted and distinct, and in place
/// for up to `INLINE_TERMS` of them. 24 bytes, like the `Vec` they replace.
/// Compare them as slices: unused inline slots hold leftovers.
#[derive(Debug, Clone)]
pub enum RepresentativeTerms {
    /// `terms[..len]`.
    Inline {
        /// Number of terms.
        len: u8,
        /// The terms, then unused slots.
        terms: [TermId; INLINE_TERMS],
    },
    /// More terms than fit in place.
    Boxed(Box<[TermId]>),
}

impl std::ops::Deref for RepresentativeTerms {
    type Target = [TermId];

    #[inline]
    fn deref(&self) -> &[TermId] {
        match self {
            RepresentativeTerms::Inline { len, terms } => &terms[..*len as usize],
            RepresentativeTerms::Boxed(terms) => terms,
        }
    }
}

/// The conjunctions of a [`BooleanExpr`], each a sorted keyword slice
/// borrowed from the expression.
#[derive(Debug, Clone)]
pub struct Conjunctions<'a> {
    /// Words not yet handed out.
    rest: &'a [TermId],
    /// Conjunctions not yet handed out.
    remaining: usize,
    /// In-place layout: the `ends` mask, shifted down to the next keyword.
    /// `None` in the length-prefixed layout.
    ends: Option<u8>,
}

impl<'a> Conjunctions<'a> {
    /// Walks `[n₁, t…, n₂, t…]`, the boxed layout past its count word.
    fn prefixed(words: &'a [TermId]) -> Self {
        Self {
            rest: &words[1..],
            remaining: words[0].index(),
            ends: None,
        }
    }
}

impl<'a> Iterator for Conjunctions<'a> {
    type Item = &'a [TermId];

    #[inline]
    fn next(&mut self) -> Option<&'a [TermId]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let n = match &mut self.ends {
            Some(ends) => {
                let n = ends.trailing_zeros() as usize + 1;
                *ends >>= n;
                n
            }
            None => {
                let n = self.rest[0].index();
                self.rest = &self.rest[1..];
                n
            }
        };
        let (clause, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Conjunctions<'_> {}

/// Assembles a [`BooleanExpr`] conjunction by conjunction, without a
/// collection per conjunction (the wire decoder's entry point; the
/// `BooleanExpr` constructors are built on it).
#[derive(Debug)]
pub struct DnfBuilder {
    /// The expression so far, in the boxed layout.
    words: Vec<TermId>,
    /// Keywords kept so far, over all conjunctions.
    terms: usize,
}

impl Default for DnfBuilder {
    fn default() -> Self {
        Self {
            words: vec![TermId(0)],
            terms: 0,
        }
    }
}

impl DnfBuilder {
    /// A builder holding no conjunction yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one conjunction, sorted and deduplicated. An empty one is
    /// dropped.
    pub fn clause(&mut self, terms: impl IntoIterator<Item = TermId>) {
        let count_at = self.words.len();
        self.words.push(TermId(0));
        self.words.extend(terms);
        let clause = &mut self.words[count_at + 1..];
        clause.sort_unstable();
        let mut kept = 0;
        for i in 0..clause.len() {
            if kept == 0 || clause[i] != clause[kept - 1] {
                clause[kept] = clause[i];
                kept += 1;
            }
        }
        if kept == 0 {
            self.words.truncate(count_at);
            return;
        }
        self.words.truncate(count_at + 1 + kept);
        self.words[count_at] = TermId(kept as u32);
        self.words[0].0 += 1;
        self.terms += kept;
    }

    /// The assembled expression.
    ///
    /// # Panics
    /// Panics if no non-empty conjunction was appended.
    pub fn build(self) -> BooleanExpr {
        assert!(
            self.terms > 0,
            "a BooleanExpr requires at least one non-empty conjunction"
        );
        if self.terms > INLINE_TERMS {
            return BooleanExpr {
                repr: Repr::Heap(self.words.into_boxed_slice()),
            };
        }
        let mut terms = [TermId(0); INLINE_TERMS];
        let mut ends = 0u8;
        let mut len = 0;
        for clause in Conjunctions::prefixed(&self.words) {
            terms[len..len + clause.len()].copy_from_slice(clause);
            len += clause.len();
            ends |= 1 << (len - 1);
        }
        BooleanExpr {
            repr: Repr::Inline {
                len: len as u8,
                ends,
                terms,
            },
        }
    }
}

impl std::fmt::Debug for BooleanExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.conjunctions()).finish()
    }
}

impl BooleanExpr {
    /// An expression with a single keyword.
    pub fn single(term: TermId) -> Self {
        let mut terms = [TermId(0); INLINE_TERMS];
        terms[0] = term;
        Self {
            repr: Repr::Inline {
                len: 1,
                ends: 1,
                terms,
            },
        }
    }

    /// A pure conjunction: `k1 AND k2 AND ...`.
    ///
    /// # Panics
    /// Panics if `terms` is empty.
    pub fn and_of(terms: impl IntoIterator<Item = TermId>) -> Self {
        let mut builder = DnfBuilder::new();
        builder.clause(terms);
        assert!(
            builder.terms > 0,
            "BooleanExpr::and_of requires at least one keyword"
        );
        builder.build()
    }

    /// A pure disjunction: `k1 OR k2 OR ...`.
    ///
    /// # Panics
    /// Panics if `terms` is empty.
    pub fn or_of(terms: impl IntoIterator<Item = TermId>) -> Self {
        let mut terms: Vec<TermId> = terms.into_iter().collect();
        assert!(
            !terms.is_empty(),
            "BooleanExpr::or_of requires at least one keyword"
        );
        terms.sort_unstable();
        terms.dedup();
        Self::from_dnf(terms.into_iter().map(|t| [t]))
    }

    /// Builds an expression from an explicit DNF (disjunction of
    /// conjunctions). Empty conjunctions are dropped.
    ///
    /// # Panics
    /// Panics if no non-empty conjunction remains.
    pub fn from_dnf<C>(clauses: impl IntoIterator<Item = C>) -> Self
    where
        C: IntoIterator<Item = TermId>,
    {
        let mut builder = DnfBuilder::new();
        for clause in clauses {
            builder.clause(clause);
        }
        builder.build()
    }

    /// The conjunctions of the DNF, in the order they were given.
    #[inline]
    pub fn conjunctions(&self) -> Conjunctions<'_> {
        match &self.repr {
            Repr::Inline { len, ends, terms } => Conjunctions {
                rest: &terms[..*len as usize],
                remaining: ends.count_ones() as usize,
                ends: Some(*ends),
            },
            Repr::Heap(words) => Conjunctions::prefixed(words),
        }
    }

    /// True if the expression is a single conjunction (AND-only query).
    pub fn is_conjunctive(&self) -> bool {
        self.conjunctions().len() == 1
    }

    /// All distinct keywords appearing anywhere in the expression, sorted.
    pub fn all_terms(&self) -> Vec<TermId> {
        let mut out: Vec<TermId> = self.conjunctions().flatten().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of distinct keywords in the expression.
    pub fn num_keywords(&self) -> usize {
        self.all_terms().len()
    }

    /// Returns true if the keyword occurs anywhere in the expression.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.conjunctions().any(|c| c.binary_search(&term).is_ok())
    }

    /// Evaluates the expression against a **sorted, deduplicated** object
    /// term list (as produced by the tokenizer).
    #[inline]
    pub fn matches_sorted(&self, object_terms: &[TermId]) -> bool {
        debug_assert!(object_terms.windows(2).all(|w| w[0] < w[1]));
        self.conjunctions()
            .any(|conj| conj.iter().all(|t| object_terms.binary_search(t).is_ok()))
    }

    /// For each conjunction, the keyword minimizing `frequency`, i.e. the
    /// least frequent (most selective) keyword, sorted and deduplicated.
    /// These are the terms the query is posted / routed under. They are
    /// stored in place whenever the expression is (it has at most
    /// `INLINE_TERMS` conjunctions then), so only an expression that already
    /// lives on the heap allocates here.
    pub fn representative_terms<F: Fn(TermId) -> u64>(&self, frequency: F) -> RepresentativeTerms {
        let rarest = |conj: &[TermId]| {
            *conj
                .iter()
                .min_by_key(|t| (frequency(**t), t.0))
                .expect("conjunctions are non-empty")
        };
        let conjunctions = self.conjunctions();
        if conjunctions.len() > INLINE_TERMS {
            let mut out: Vec<TermId> = conjunctions.map(rarest).collect();
            out.sort_unstable();
            out.dedup();
            return RepresentativeTerms::Boxed(out.into_boxed_slice());
        }
        let mut terms = [TermId(0); INLINE_TERMS];
        let mut len = 0;
        for conj in conjunctions {
            terms[len] = rarest(conj);
            len += 1;
        }
        terms[..len].sort_unstable();
        let mut distinct = 0;
        for i in 0..len {
            if distinct == 0 || terms[i] != terms[distinct - 1] {
                terms[distinct] = terms[i];
                distinct += 1;
            }
        }
        RepresentativeTerms::Inline {
            len: distinct as u8,
            terms,
        }
    }

    /// The 64-bit match signature of the expression: the bitwise AND over
    /// conjunctions of each conjunction's term-set signature
    /// ([`crate::terms_signature`]).
    ///
    /// Soundness: an object matches the expression only via *some*
    /// conjunction `c` with `c ⊆ object`, hence `sig(c) ⊆ sig(object)`; the
    /// AND across all conjunctions is a subset of `sig(c)`, so
    /// `self.signature() & !sig(object) == 0` is a necessary condition for
    /// any match. For single-conjunction (AND-only) queries — the common
    /// case — this is the full conjunction signature and rejects most
    /// non-matching candidates with one AND+compare; for OR-heavy queries it
    /// degrades gracefully towards 0 (accept-all), never rejecting a true
    /// match.
    pub fn signature(&self) -> u64 {
        self.conjunctions()
            .map(crate::terms_signature)
            .fold(!0u64, |acc, s| acc & s)
    }

    /// Approximate size of the expression in bytes: the value itself plus,
    /// for an expression too long to be stored in place, its boxed words. A
    /// containing struct's `size_of` already covers the first part.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.repr {
                Repr::Inline { .. } => 0,
                Repr::Heap(words) => std::mem::size_of_val::<[TermId]>(words),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn clauses(e: &BooleanExpr) -> Vec<Vec<TermId>> {
        e.conjunctions().map(<[TermId]>::to_vec).collect()
    }

    #[test]
    fn single_keyword_matches() {
        let e = BooleanExpr::single(t(3));
        assert!(e.matches_sorted(&[t(1), t(3), t(7)]));
        assert!(!e.matches_sorted(&[t(1), t(7)]));
        assert!(e.is_conjunctive());
        assert_eq!(e.num_keywords(), 1);
    }

    #[test]
    fn and_requires_all_terms() {
        let e = BooleanExpr::and_of([t(1), t(5)]);
        assert!(e.matches_sorted(&[t(1), t(2), t(5)]));
        assert!(!e.matches_sorted(&[t(1)]));
        assert!(!e.matches_sorted(&[t(5)]));
        assert!(!e.matches_sorted(&[]));
        assert!(e.is_conjunctive());
    }

    #[test]
    fn or_requires_any_term() {
        let e = BooleanExpr::or_of([t(1), t(5)]);
        assert!(e.matches_sorted(&[t(1)]));
        assert!(e.matches_sorted(&[t(5), t(9)]));
        assert!(!e.matches_sorted(&[t(2), t(3)]));
        assert!(!e.is_conjunctive());
    }

    #[test]
    fn dnf_mixed_expression() {
        // (kobe AND retired) OR lebron
        let e = BooleanExpr::from_dnf([vec![t(1), t(2)], vec![t(3)]]);
        assert!(e.matches_sorted(&[t(1), t(2)]));
        assert!(e.matches_sorted(&[t(3)]));
        assert!(!e.matches_sorted(&[t(1)]));
        assert!(!e.matches_sorted(&[t(2)]));
        assert_eq!(e.conjunctions().len(), 2);
        assert_eq!(e.num_keywords(), 3);
    }

    #[test]
    fn constructors_dedupe_and_sort() {
        let e = BooleanExpr::and_of([t(5), t(1), t(5)]);
        assert_eq!(clauses(&e), [vec![t(1), t(5)]]);
        let e = BooleanExpr::or_of([t(5), t(1), t(5)]);
        assert_eq!(e.conjunctions().len(), 2);
        let e = BooleanExpr::from_dnf([vec![], vec![t(2), t(2)]]);
        assert_eq!(clauses(&e), [vec![t(2)]]);
    }

    #[test]
    #[should_panic(expected = "at least one keyword")]
    fn empty_and_panics() {
        let _ = BooleanExpr::and_of([]);
    }

    #[test]
    #[should_panic(expected = "non-empty conjunction")]
    fn empty_dnf_panics() {
        let _ = BooleanExpr::from_dnf([vec![]]);
    }

    #[test]
    fn contains_term_and_all_terms() {
        let e = BooleanExpr::from_dnf([vec![t(4), t(2)], vec![t(9)]]);
        assert!(e.contains_term(t(2)));
        assert!(e.contains_term(t(9)));
        assert!(!e.contains_term(t(5)));
        assert_eq!(e.all_terms(), vec![t(2), t(4), t(9)]);
    }

    #[test]
    fn representative_terms_picks_least_frequent_per_conjunction() {
        // frequencies: t1=100, t2=5, t3=50
        let freq = |term: TermId| match term.0 {
            1 => 100,
            2 => 5,
            3 => 50,
            _ => 0,
        };
        let and_expr = BooleanExpr::and_of([t(1), t(2), t(3)]);
        assert_eq!(*and_expr.representative_terms(freq), [t(2)]);

        let or_expr = BooleanExpr::or_of([t(1), t(3)]);
        assert_eq!(*or_expr.representative_terms(freq), [t(1), t(3)]);

        let mixed = BooleanExpr::from_dnf([vec![t(1), t(3)], vec![t(2)]]);
        assert_eq!(*mixed.representative_terms(freq), [t(2), t(3)]);
        // duplicates across conjunctions are dropped, in place
        let shared = BooleanExpr::from_dnf([vec![t(2), t(3)], vec![t(1), t(2)], vec![t(3)]]);
        let reps = shared.representative_terms(freq);
        assert!(matches!(reps, RepresentativeTerms::Inline { len: 2, .. }));
        assert_eq!(*reps, [t(2), t(3)]);
        // more conjunctions than fit in place: boxed, same rule
        let wide = BooleanExpr::or_of((1..=7).map(t));
        let reps = wide.representative_terms(freq);
        assert!(matches!(reps, RepresentativeTerms::Boxed(_)));
        assert_eq!(*reps, (1..=7).map(t).collect::<Vec<_>>()[..]);
        assert_eq!(std::mem::size_of::<RepresentativeTerms>(), 24);
    }

    #[test]
    fn representative_terms_completeness_for_matching_objects() {
        // Posting rule soundness: if an object matches, it must contain at
        // least one representative term.
        let freq = |term: TermId| term.0 as u64;
        let exprs = [
            BooleanExpr::and_of([t(1), t(2), t(3)]),
            BooleanExpr::or_of([t(4), t(5)]),
            BooleanExpr::from_dnf([vec![t(1), t(6)], vec![t(7), t(8)]]),
        ];
        let objects: Vec<Vec<TermId>> = vec![
            vec![t(1), t(2), t(3)],
            vec![t(4)],
            vec![t(5), t(9)],
            vec![t(7), t(8)],
            vec![t(1), t(6), t(9)],
        ];
        for e in &exprs {
            let reps = e.representative_terms(freq);
            for obj in &objects {
                if e.matches_sorted(obj) {
                    assert!(
                        reps.iter().any(|r| obj.binary_search(r).is_ok()),
                        "expr {e:?} matched {obj:?} but no representative term present"
                    );
                }
            }
        }
    }

    #[test]
    fn signature_is_necessary_for_matching() {
        use crate::terms_signature;
        // exhaustive-ish sweep: random-ish expressions vs. object term sets
        let exprs = [
            BooleanExpr::single(t(3)),
            BooleanExpr::and_of([t(1), t(2), t(3)]),
            BooleanExpr::or_of([t(4), t(5)]),
            BooleanExpr::from_dnf([vec![t(1), t(6)], vec![t(7), t(8)]]),
            BooleanExpr::and_of((0..12).map(t)),
        ];
        let objects: Vec<Vec<TermId>> = (0u32..64)
            .map(|i| (0..10).filter(|k| (i >> (k % 6)) & 1 == 1).map(t).collect())
            .collect();
        for e in &exprs {
            let sig = e.signature();
            for obj in &objects {
                if e.matches_sorted(obj) {
                    assert_eq!(
                        sig & !terms_signature(obj),
                        0,
                        "signature rejected a matching object: {e:?} vs {obj:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn and_signature_is_conjunction_signature() {
        use crate::terms_signature;
        let e = BooleanExpr::and_of([t(1), t(2), t(3)]);
        assert_eq!(e.signature(), terms_signature(&[t(1), t(2), t(3)]));
        // a disjoint object signature is rejected: with the fixed hash,
        // terms 1/2/3 map to bits {39, 15, 54} and terms 20/21 to {23, 62},
        // so no query bit is covered by the object
        let obj_sig = terms_signature(&[t(20), t(21)]);
        assert_ne!(e.signature() & !obj_sig, 0);
    }

    #[test]
    fn short_expressions_are_stored_in_place() {
        // 24 bytes with 4-byte-aligned keywords: `StsQuery` keeps its size
        assert_eq!(std::mem::size_of::<BooleanExpr>(), 24);
        let header = std::mem::size_of::<BooleanExpr>();
        let word = std::mem::size_of::<TermId>();
        for n in 1..=INLINE_TERMS as u32 {
            assert_eq!(BooleanExpr::and_of((0..n).map(t)).memory_usage(), header);
            assert_eq!(BooleanExpr::or_of((0..n).map(t)).memory_usage(), header);
        }
        // one keyword more: the boxed words are the clause count, every
        // clause's length and the keywords
        let n = INLINE_TERMS + 1;
        let and = BooleanExpr::and_of((0..n as u32).map(t));
        assert_eq!(and.memory_usage(), header + (1 + 1 + n) * word);
        let or = BooleanExpr::or_of((0..n as u32).map(t));
        assert_eq!(or.memory_usage(), header + (1 + 2 * n) * word);
        assert_eq!(
            clauses(&or),
            (0..n as u32).map(|i| vec![t(i)]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_usage_grows_with_terms() {
        let small = BooleanExpr::single(t(1));
        let big = BooleanExpr::and_of((0..20).map(t));
        assert!(big.memory_usage() > small.memory_usage());
    }
}
