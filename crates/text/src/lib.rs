//! Text primitives for PS2Stream.
//!
//! The text side of the spatio-textual model: an interned [`Vocabulary`] of
//! keywords, a [`Tokenizer`] for object text, [`BooleanExpr`] keyword
//! predicates of STS queries, [`TermStats`] document-frequency statistics,
//! and [`TermDistribution`] sparse vectors with the cosine similarity used by
//! the hybrid partitioner. It also hosts [`IdHasher`], the integer hasher
//! behind the [`IdMap`] / [`IdSet`] tables of the per-tuple path, as the
//! lowest crate every layer that probes such a table depends on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod expr;
pub mod hash;
pub mod similarity;
pub mod stats;
pub mod token;
pub mod vocab;

pub use expr::{BooleanExpr, Conjunctions, DnfBuilder, RepresentativeTerms};
pub use hash::{IdHasher, IdMap, IdSet};
pub use similarity::TermDistribution;
pub use stats::TermStats;
pub use token::{Tokenizer, STOP_WORDS};
pub use vocab::{terms_signature, TermId, Vocabulary};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_terms(max_id: u32, max_len: usize) -> impl Strategy<Value = Vec<TermId>> {
        proptest::collection::vec((0..max_id).prop_map(TermId), 0..max_len).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    fn arb_expr(max_id: u32) -> impl Strategy<Value = BooleanExpr> {
        proptest::collection::vec(
            proptest::collection::vec((0..max_id).prop_map(TermId), 1..4),
            1..4,
        )
        .prop_map(BooleanExpr::from_dnf)
    }

    /// Raw DNF input on both sides of the in-place limit: up to 4 clauses of
    /// 0–4 keywords (duplicates and empty clauses included, as the
    /// constructors must normalize them away).
    fn arb_raw_dnf() -> impl Strategy<Value = Vec<Vec<TermId>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u32..30).prop_map(TermId), 0..5),
            1..5,
        )
    }

    /// The clause-per-`Vec` representation the flat [`BooleanExpr`]
    /// replaced, kept as its reference model.
    struct ModelExpr(Vec<Vec<TermId>>);

    impl ModelExpr {
        fn from_dnf(raw: &[Vec<TermId>]) -> Self {
            Self(
                raw.iter()
                    .map(|c| {
                        let mut c = c.clone();
                        c.sort_unstable();
                        c.dedup();
                        c
                    })
                    .filter(|c| !c.is_empty())
                    .collect(),
            )
        }

        fn matches_sorted(&self, object: &[TermId]) -> bool {
            self.0
                .iter()
                .any(|c| c.iter().all(|t| object.binary_search(t).is_ok()))
        }

        fn representative_terms(&self, frequency: impl Fn(TermId) -> u64) -> Vec<TermId> {
            let mut out: Vec<TermId> = self
                .0
                .iter()
                .map(|c| *c.iter().min_by_key(|t| (frequency(**t), t.0)).unwrap())
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }

        fn signature(&self) -> u64 {
            self.0.iter().fold(!0u64, |acc, c| acc & terms_signature(c))
        }

        fn all_terms(&self) -> Vec<TermId> {
            let mut out: Vec<TermId> = self.0.iter().flatten().copied().collect();
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    proptest! {
        #[test]
        fn flat_expr_equals_the_clause_per_vec_model(
            raw in arb_raw_dnf(),
            object in arb_terms(30, 12),
        ) {
            let model = ModelExpr::from_dnf(&raw);
            prop_assume!(!model.0.is_empty());
            let expr = BooleanExpr::from_dnf(raw.clone());
            let clauses: Vec<Vec<TermId>> =
                expr.conjunctions().map(<[TermId]>::to_vec).collect();
            prop_assert_eq!(&clauses, &model.0);
            prop_assert_eq!(expr.conjunctions().len(), model.0.len());
            prop_assert_eq!(expr.is_conjunctive(), model.0.len() == 1);
            prop_assert_eq!(expr.matches_sorted(&object), model.matches_sorted(&object));
            let freq = |t: TermId| (t.0 * 7 + 3) as u64 % 11;
            prop_assert_eq!(&*expr.representative_terms(freq), &model.representative_terms(freq)[..]);
            prop_assert_eq!(expr.signature(), model.signature());
            prop_assert_eq!(expr.all_terms(), model.all_terms());
            prop_assert_eq!(expr.num_keywords(), model.all_terms().len());
            for probe in (0..30).map(TermId) {
                prop_assert_eq!(
                    expr.contains_term(probe),
                    model.0.iter().any(|c| c.contains(&probe))
                );
            }
            // one logical expression, one representation: the same clauses
            // given differently ordered and duplicated compare and hash equal
            let again = BooleanExpr::from_dnf(
                model.0.iter().map(|c| c.iter().rev().chain(c.iter()).copied()),
            );
            prop_assert_eq!(&again, &expr);
            prop_assert_eq!(&expr.clone(), &expr);
            prop_assert_eq!(format!("{expr:?}"), format!("{:?}", model.0));
            // stored in place exactly when short enough
            let total: usize = model.0.iter().map(Vec::len).sum();
            let spilled = expr.memory_usage() - std::mem::size_of::<BooleanExpr>();
            prop_assert_eq!(spilled > 0, total > 5, "{} keywords", total);
        }

        #[test]
        fn expr_matching_object_contains_a_representative_term(
            expr in arb_expr(30),
            object in arb_terms(30, 20),
        ) {
            // Soundness of the least-frequent-keyword posting rule: any
            // matching object must contain at least one representative term,
            // regardless of the frequency function used.
            let freq = |t: TermId| (t.0 * 7 + 3) as u64 % 11;
            if expr.matches_sorted(&object) {
                let reps = expr.representative_terms(freq);
                prop_assert!(reps.iter().any(|r| object.binary_search(r).is_ok()));
            }
        }

        #[test]
        fn expr_superset_objects_still_match(
            expr in arb_expr(30),
            extra in arb_terms(60, 10),
        ) {
            // If an object matches, adding more terms never breaks the match
            // (boolean expressions here are monotone: no negation).
            let base = expr.all_terms();
            prop_assert!(expr.matches_sorted(&base));
            let mut bigger = base.clone();
            bigger.extend_from_slice(&extra);
            bigger.sort_unstable();
            bigger.dedup();
            prop_assert!(expr.matches_sorted(&bigger));
        }

        #[test]
        fn expr_signature_never_rejects_a_match(
            expr in arb_expr(200),
            object in arb_terms(200, 24),
        ) {
            // The 64-bit prefilter must be a *necessary* condition: whenever
            // the expression matches the object, the signature test passes.
            if expr.matches_sorted(&object) {
                prop_assert_eq!(expr.signature() & !terms_signature(&object), 0);
            }
        }

        #[test]
        fn cosine_similarity_bounded(
            a in proptest::collection::vec((0u32..50, 0.0f64..100.0), 0..30),
            b in proptest::collection::vec((0u32..50, 0.0f64..100.0), 0..30),
        ) {
            let da: TermDistribution = a.into_iter().map(|(t, w)| (TermId(t), w)).collect();
            let db: TermDistribution = b.into_iter().map(|(t, w)| (TermId(t), w)).collect();
            let sim = da.cosine_similarity(&db);
            prop_assert!((0.0..=1.0).contains(&sim));
            prop_assert!((sim - db.cosine_similarity(&da)).abs() < 1e-9);
        }

        #[test]
        fn tokenizer_output_sorted_unique(text in "[a-zA-Z0-9 ,.!?#]{0,200}") {
            let tok = Tokenizer::new(Vocabulary::new());
            let ids = tok.tokenize(&text);
            for w in ids.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
