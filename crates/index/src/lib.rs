//! Worker-side indexing structures for PS2Stream.
//!
//! The central structure is [`Gi2Index`], the Grid-Inverted-Index each worker
//! maintains over its registered STS queries (Section IV-D of the paper):
//! a uniform grid whose cells each hold an inverted index keyed by the
//! queries' least frequent keywords, with eager deletion and per-cell load
//! statistics that feed the dynamic load adjustment algorithms.
//!
//! # Example
//!
//! ```
//! use ps2stream_geo::{Point, Rect};
//! use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
//! use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId};
//! use ps2stream_text::{BooleanExpr, TermId};
//!
//! let mut index = Gi2Index::new(Gi2Config::new(Rect::from_coords(0.0, 0.0, 8.0, 8.0)));
//! index.insert(StsQuery::new(
//!     QueryId(1),
//!     SubscriberId(1),
//!     BooleanExpr::and_of([TermId(3)]),
//!     Rect::from_coords(0.0, 0.0, 4.0, 4.0),
//! ));
//! // the worker owns one scratch and matches its input in batches
//! let objects = [SpatioTextualObject::new(
//!     ObjectId(9),
//!     vec![TermId(3)],
//!     Point::new(1.0, 1.0),
//! )];
//! let mut scratch = MatchScratch::new();
//! let mut delivered = Vec::new();
//! index.match_batch(objects.iter(), &mut scratch, |_, object, matches| {
//!     delivered.extend(matches.iter().map(|m| (object.id, m.query_id)));
//! });
//! assert_eq!(delivered, [(ObjectId(9), QueryId(1))]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod gi2;
pub mod scratch;
pub mod slab;
pub mod snapshot;

pub use cell::{CellIndex, CellTermStat};
pub use gi2::{CellLoadStat, Gi2Config, Gi2Index};
pub use scratch::MatchScratch;
pub use slab::SlotId;
pub use snapshot::{decode_snapshot, SnapshotParts};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_model::{ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId};
    use ps2stream_text::{BooleanExpr, TermId, TermStats};
    use std::sync::Arc;

    /// The 16 × 16 grid of the generated workloads, over an empty term table.
    fn index() -> Gi2Index {
        let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(4))
    }

    /// A term table over which terms 0–11 of the 25 generated ones are cold
    /// and 12–24 hot: term `t` is carried by `t + 8` of 20,000 objects.
    /// Frequency grows with the id, so every query picks the posting terms
    /// it picks over an empty table, where ties break towards the lower id.
    fn half_cold_stats() -> Arc<TermStats> {
        let mut stats = TermStats::new();
        for t in 0..25u32 {
            for _ in 0..t + 8 {
                stats.observe(&[TermId(t)]);
            }
        }
        while stats.num_docs() < 20_000 {
            stats.observe(&[]);
        }
        Arc::new(stats)
    }

    /// [`index`] over [`half_cold_stats`].
    fn half_cold_index(stats: &Arc<TermStats>) -> Gi2Index {
        let mut index = index();
        index.set_term_stats(Arc::clone(stats));
        index
    }

    #[derive(Debug, Clone)]
    struct GenQuery {
        id: u64,
        clauses: Vec<Vec<u32>>,
        cx: f64,
        cy: f64,
        side: f64,
    }

    #[derive(Debug, Clone)]
    struct GenObject {
        id: u64,
        terms: Vec<u32>,
        x: f64,
        y: f64,
    }

    fn arb_query(id: u64) -> impl Strategy<Value = GenQuery> {
        (
            proptest::collection::vec(proptest::collection::vec(0u32..25, 1..3), 1..3),
            0.0f64..64.0,
            0.0f64..64.0,
            0.5f64..30.0,
        )
            .prop_map(move |(clauses, cx, cy, side)| GenQuery {
                id,
                clauses,
                cx,
                cy,
                side,
            })
    }

    fn arb_object(id: u64) -> impl Strategy<Value = GenObject> {
        (
            proptest::collection::vec(0u32..25, 0..8),
            0.0f64..64.0,
            0.0f64..64.0,
        )
            .prop_map(move |(terms, x, y)| GenObject { id, terms, x, y })
    }

    fn build_query(g: &GenQuery) -> StsQuery {
        StsQuery::new(
            QueryId(g.id),
            SubscriberId(g.id),
            BooleanExpr::from_dnf(
                g.clauses
                    .iter()
                    .map(|c| c.iter().map(|t| TermId(*t)).collect::<Vec<_>>()),
            ),
            Rect::square(Point::new(g.cx, g.cy), g.side),
        )
    }

    fn build_object(g: &GenObject) -> SpatioTextualObject {
        SpatioTextualObject::new(
            ObjectId(g.id),
            g.terms.iter().map(|t| TermId(*t)).collect(),
            Point::new(g.x, g.y),
        )
    }

    /// One record of an [`Op::Interleaved`] worker batch: objects mixed with
    /// query updates in arrival order.
    #[derive(Debug, Clone)]
    enum BatchItem {
        /// An object record; accumulates into the current run.
        Obj(GenObject),
        /// A query insertion; splits (flushes) the current run.
        Ins(GenQuery),
        /// A query deletion; splits (flushes) the current run.
        Del(u64),
    }

    fn arb_batch_item() -> impl Strategy<Value = BatchItem> {
        prop_oneof![
            4 => (0u64..1_000).prop_flat_map(arb_object).prop_map(BatchItem::Obj),
            2 => (0u64..30).prop_flat_map(arb_query).prop_map(BatchItem::Ins),
            1 => (0u64..30).prop_map(BatchItem::Del),
        ]
    }

    /// One step of the randomized operation-sequence workload of
    /// `gi2_ops_sequence_matches_brute_force`.
    #[derive(Debug, Clone)]
    enum Op {
        /// Register (or replace) a query; routed to index A.
        Insert(GenQuery),
        /// Drop a query id from both indexes.
        Delete(u64),
        /// Match a small batch of objects against both indexes.
        Match(Vec<GenObject>),
        /// A worker input batch interleaving objects with query updates:
        /// consecutive objects form a run matched through the batched
        /// kernel, and every update flushes the run first (the worker's
        /// run-splitting logic in `Worker::admit`).
        Interleaved(Vec<BatchItem>),
        /// Migrate one grid cell between the indexes (direction from parity).
        Migrate(u32, u32),
        /// Replicate a cell's queries containing a term into the peer index
        /// (the text-split hand-off; the merger would deduplicate).
        Replicate(u32, u32, u32),
        /// Register a run of single-keyword queries that share one keyword
        /// and one region, so the posting lists they land in — per cell for
        /// a hot keyword, the cold list for a cold one — grow past what an
        /// entry holds in place and spill to the arena; later deletes and
        /// migrations unpost them and shrink the lists back into their
        /// entries.
        HotTerm(Vec<GenQuery>),
    }

    /// 5–9 queries with consecutive ids (wrapping inside the id range the
    /// other ops delete from), all `term` over the same square.
    fn arb_hot_term() -> impl Strategy<Value = Vec<GenQuery>> {
        (
            0u32..25,
            0u64..30,
            5u64..10,
            0.0f64..64.0,
            0.0f64..64.0,
            0.5f64..30.0,
        )
            .prop_map(|(term, first, n, cx, cy, side)| {
                (0..n)
                    .map(|i| GenQuery {
                        id: (first + i) % 30,
                        clauses: vec![vec![term]],
                        cx,
                        cy,
                        side,
                    })
                    .collect()
            })
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..30).prop_flat_map(arb_query).prop_map(Op::Insert),
            2 => (0u64..30).prop_map(Op::Delete),
            3 => proptest::collection::vec((0u64..1_000).prop_flat_map(arb_object), 1..6)
                .prop_map(Op::Match),
            2 => proptest::collection::vec(arb_batch_item(), 1..12)
                .prop_map(Op::Interleaved),
            1 => (0u32..16, 0u32..16).prop_map(|(c, r)| Op::Migrate(c, r)),
            1 => (0u32..16, 0u32..16, 0u32..25).prop_map(|(c, r, t)| Op::Replicate(c, r, t)),
            1 => arb_hot_term().prop_map(Op::HotTerm),
        ]
    }

    /// Matches `objects` as one batch on a copy of `index` and as batches of
    /// one on `index` itself, pins the two bit-identical (per-object results,
    /// work counters, memory), audits both and appends the
    /// `(object, query)` matches to `got`.
    fn match_any_batch_size(
        index: &mut Gi2Index,
        scratch: &mut MatchScratch,
        objects: &[SpatioTextualObject],
        got: &mut Vec<(u64, QueryId)>,
    ) -> Result<(), TestCaseError> {
        let mut whole = index.clone();
        let mut batched: Vec<(u64, QueryId)> = Vec::new();
        whole.match_batch(objects.iter(), scratch, |_, o, r| {
            batched.extend(r.iter().map(|m| (o.id.0, m.query_id)));
        });
        let mut singles: Vec<(u64, QueryId)> = Vec::new();
        for o in objects {
            index.match_batch(std::iter::once(o), scratch, |_, o, r| {
                singles.extend(r.iter().map(|m| (o.id.0, m.query_id)));
            });
        }
        prop_assert_eq!(&batched, &singles);
        prop_assert_eq!(whole.objects_processed(), index.objects_processed());
        prop_assert_eq!(whole.matches_checked(), index.matches_checked());
        prop_assert_eq!(whole.memory_usage(), index.memory_usage());
        whole.audit();
        index.audit();
        got.extend(singles);
        Ok(())
    }

    /// Matches `objects` against both indexes at either batch size (see
    /// [`match_any_batch_size`]) and pins the combined, deduplicated result
    /// to a brute-force scan of the model.
    fn check_batch(
        a: &mut Gi2Index,
        b: &mut Gi2Index,
        model: &std::collections::BTreeMap<u64, StsQuery>,
        scratch: &mut MatchScratch,
        objects: &[SpatioTextualObject],
    ) -> Result<(), TestCaseError> {
        let mut got: Vec<(u64, QueryId)> = Vec::new();
        match_any_batch_size(a, scratch, objects, &mut got)?;
        match_any_batch_size(b, scratch, objects, &mut got)?;
        got.sort_unstable();
        got.dedup(); // replicas match on both sides (merger dedups)
        let mut expected: Vec<(u64, QueryId)> = Vec::new();
        for o in objects {
            expected.extend(
                model
                    .values()
                    .filter(|q| q.matches(o))
                    .map(|q| (o.id.0, q.id)),
            );
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        Ok(())
    }

    /// Applies one op to a pair of indexes as
    /// `gi2_ops_sequence_matches_brute_force` does (inserts go to the first,
    /// migrations by parity, replication from the first to the second) and
    /// returns, in order, what the pair hands out: each matched object's
    /// results in result order, from both indexes, and the ids each
    /// migration or replication moves.
    fn apply(
        ix: &mut [Gi2Index; 2],
        op: &Op,
        scratch: &mut MatchScratch,
        next_object: &mut u64,
    ) -> Vec<Vec<QueryId>> {
        fn flush(
            ix: &mut [Gi2Index; 2],
            run: &mut Vec<SpatioTextualObject>,
            scratch: &mut MatchScratch,
            out: &mut Vec<Vec<QueryId>>,
        ) {
            for index in ix.iter_mut() {
                index.match_batch(run.iter(), scratch, |_, _, r| {
                    out.push(r.iter().map(|m| m.query_id).collect());
                });
            }
            run.clear();
        }
        fn insert(ix: &mut [Gi2Index; 2], g: &GenQuery) {
            let q = build_query(g);
            ix[0].delete_by_id(q.id);
            ix[1].delete_by_id(q.id);
            ix[0].insert(q);
        }
        fn delete(ix: &mut [Gi2Index; 2], id: u64) {
            ix[0].delete_by_id(QueryId(id));
            ix[1].delete_by_id(QueryId(id));
        }
        let mut object = |g: &GenObject| {
            let mut o = build_object(g);
            o.id = ObjectId(*next_object);
            *next_object += 1;
            o
        };
        let ids = |queries: &[StsQuery]| queries.iter().map(|q| q.id).collect();
        let mut out = Vec::new();
        let mut run = Vec::new();
        match op {
            Op::Insert(g) => insert(ix, g),
            Op::HotTerm(queries) => queries.iter().for_each(|g| insert(ix, g)),
            Op::Delete(id) => delete(ix, *id),
            Op::Match(objects) => run.extend(objects.iter().map(object)),
            Op::Interleaved(items) => {
                for item in items {
                    match item {
                        BatchItem::Obj(g) => run.push(object(g)),
                        BatchItem::Ins(g) => {
                            flush(ix, &mut run, scratch, &mut out);
                            insert(ix, g);
                        }
                        BatchItem::Del(id) => {
                            flush(ix, &mut run, scratch, &mut out);
                            delete(ix, *id);
                        }
                    }
                }
            }
            &Op::Migrate(c, r) => {
                let (from, to) = if (c + r) % 2 == 0 { (0, 1) } else { (1, 0) };
                let moved = ix[from].extract_cell(ps2stream_geo::CellId::new(c, r));
                out.push(ids(&moved));
                moved.into_iter().for_each(|q| ix[to].insert(q));
            }
            &Op::Replicate(c, r, t) => {
                let cell = ps2stream_geo::CellId::new(c, r);
                let copies =
                    ix[0].replicate_cell_where(cell, |q| q.keywords.contains_term(TermId(t)));
                out.push(ids(&copies));
                copies.into_iter().for_each(|q| ix[1].insert(q));
            }
        }
        flush(ix, &mut run, scratch, &mut out);
        out
    }

    /// Everything an index reports about its load and work: per-cell loads,
    /// work counters, and per (cell, term) the queries and — for the hot
    /// terms 12–24 of [`half_cold_stats`] — the object hits (a cold term's
    /// cold-filed queries count none).
    #[allow(clippy::type_complexity)]
    fn loads(
        index: &Gi2Index,
    ) -> (
        Vec<CellLoadStat>,
        [u64; 2],
        Vec<(u32, u32, TermId, u64, Option<u64>)>,
    ) {
        let mut terms = Vec::new();
        index.for_each_cell_term_stat(|c, s| {
            let hits = (s.term.0 >= 12).then_some(s.object_hits);
            terms.push((c.col, c.row, s.term, s.queries, hits));
        });
        terms.sort_unstable();
        let work = [index.objects_processed(), index.matches_checked()];
        (index.cell_loads(), work, terms)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cold filing changes nothing an index hands out. Over one op
        /// stream, a pair of indexes over an empty table (every term posted
        /// per cell) and a pair over [`half_cold_stats`] (terms 0–11 filed
        /// cold) return the same results per object in the same order, move
        /// the same queries, do the same matching work and report the same
        /// loads. The one order that may differ is an object's results once
        /// a migration has re-filed a cold-filed query per cell: the cell's
        /// entry is walked before the cold list, so the re-filed query can
        /// come first (see `Gi2Index::holds_refiled_cold_postings`). Those
        /// results are compared as sets.
        #[test]
        fn cold_filing_changes_no_result_and_no_load(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let stats = half_cold_stats();
            let mut plain = [index(), index()];
            let mut cold = [half_cold_index(&stats), half_cold_index(&stats)];
            let mut scratch = MatchScratch::new();
            let (mut plain_objects, mut cold_objects) = (0, 0);
            for op in &ops {
                let refiled = cold.iter().any(Gi2Index::holds_refiled_cold_postings);
                let mut want = apply(&mut plain, op, &mut scratch, &mut plain_objects);
                let mut got = apply(&mut cold, op, &mut scratch, &mut cold_objects);
                if refiled {
                    want.iter_mut().chain(&mut got).for_each(|ids| ids.sort_unstable());
                }
                prop_assert_eq!(got, want);
                for (p, c) in plain.iter().zip(&cold) {
                    prop_assert_eq!(loads(c), loads(p));
                    c.audit();
                }
            }
        }

        /// GI² must return exactly the same matches as a brute-force scan
        /// over all registered queries, for any workload.
        #[test]
        fn gi2_matches_equal_brute_force(
            queries in proptest::collection::vec((0u64..1000).prop_flat_map(arb_query), 0..40),
            objects in proptest::collection::vec((0u64..1000).prop_flat_map(arb_object), 0..20),
        ) {
            let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
            let mut idx = Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(4));
            let mut reference: Vec<StsQuery> = Vec::new();
            for (i, gq) in queries.iter().enumerate() {
                let mut q = build_query(gq);
                q.id = QueryId(i as u64); // ensure unique ids
                reference.push(q.clone());
                idx.insert(q);
            }
            for go in &objects {
                let o = build_object(go);
                let mut got: Vec<QueryId> =
                    idx.match_one(&o).iter().map(|m| m.query_id).collect();
                got.sort_unstable();
                got.dedup();
                let mut expected: Vec<QueryId> = reference
                    .iter()
                    .filter(|q| q.matches(&o))
                    .map(|q| q.id)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }

        /// After deleting a random subset of queries, GI² must behave exactly
        /// like a brute-force scan over the remaining queries.
        #[test]
        fn gi2_with_deletions_matches_brute_force(
            queries in proptest::collection::vec((0u64..1000).prop_flat_map(arb_query), 1..30),
            objects in proptest::collection::vec((0u64..1000).prop_flat_map(arb_object), 0..15),
            delete_mask in proptest::collection::vec(proptest::bool::ANY, 30),
        ) {
            let bounds = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
            let mut idx = Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(4));
            let mut live: Vec<StsQuery> = Vec::new();
            for (i, gq) in queries.iter().enumerate() {
                let mut q = build_query(gq);
                q.id = QueryId(i as u64);
                idx.insert(q.clone());
                if *delete_mask.get(i).unwrap_or(&false) {
                    idx.delete(&q);
                } else {
                    live.push(q);
                }
            }
            for go in &objects {
                let o = build_object(go);
                let mut got: Vec<QueryId> =
                    idx.match_one(&o).iter().map(|m| m.query_id).collect();
                got.sort_unstable();
                let mut expected: Vec<QueryId> =
                    live.iter().filter(|q| q.matches(&o)).map(|q| q.id).collect();
                expected.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }

        /// The full kernel (slab slots + epoch dedup + one full check +
        /// batched matching) must agree exactly with a brute-force scan over
        /// the live query set, under an arbitrary interleaving of inserts,
        /// deletes, cell migrations and replications **mid-stream** —
        /// including updates arriving *inside* a worker input batch, which
        /// exercise the run-splitting flush of `Worker::admit`.
        #[test]
        fn gi2_ops_sequence_matches_brute_force(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            use ps2stream_geo::CellId;
            use std::collections::BTreeMap;
            let stats = half_cold_stats();
            let mut a = half_cold_index(&stats);
            let mut b = half_cold_index(&stats);
            let mut model: BTreeMap<u64, StsQuery> = BTreeMap::new();
            let mut scratch = MatchScratch::new();
            let mut next_object = 0u64;
            for op in ops {
                match op {
                    Op::Insert(gq) => {
                        let q = build_query(&gq);
                        // updates are routed as delete + insert, so a replaced
                        // query cannot linger in the peer index
                        a.delete_by_id(q.id);
                        b.delete_by_id(q.id);
                        model.insert(q.id.0, q.clone());
                        a.insert(q);
                    }
                    Op::HotTerm(run) => {
                        for gq in &run {
                            let q = build_query(gq);
                            a.delete_by_id(q.id);
                            b.delete_by_id(q.id);
                            model.insert(q.id.0, q.clone());
                            a.insert(q);
                        }
                    }
                    Op::Delete(id) => {
                        a.delete_by_id(QueryId(id));
                        b.delete_by_id(QueryId(id));
                        model.remove(&id);
                    }
                    Op::Match(gen_objects) => {
                        let objects: Vec<SpatioTextualObject> = gen_objects
                            .iter()
                            .map(|g| {
                                let mut o = build_object(g);
                                o.id = ObjectId(next_object);
                                next_object += 1;
                                o
                            })
                            .collect();
                        check_batch(&mut a, &mut b, &model, &mut scratch, &objects)?;
                    }
                    Op::Interleaved(items) => {
                        // mirrors `Worker::admit`: consecutive objects
                        // accumulate into a run matched as one batch; an
                        // insert/delete flushes the run
                        // first, so the update cannot affect objects that
                        // arrived before it in the same batch
                        let mut run: Vec<SpatioTextualObject> = Vec::new();
                        for item in items {
                            match item {
                                BatchItem::Obj(g) => {
                                    let mut o = build_object(&g);
                                    o.id = ObjectId(next_object);
                                    next_object += 1;
                                    run.push(o);
                                }
                                BatchItem::Ins(gq) => {
                                    check_batch(&mut a, &mut b, &model, &mut scratch, &run)?;
                                    run.clear();
                                    let q = build_query(&gq);
                                    a.delete_by_id(q.id);
                                    b.delete_by_id(q.id);
                                    model.insert(q.id.0, q.clone());
                                    a.insert(q);
                                }
                                BatchItem::Del(id) => {
                                    check_batch(&mut a, &mut b, &model, &mut scratch, &run)?;
                                    run.clear();
                                    a.delete_by_id(QueryId(id));
                                    b.delete_by_id(QueryId(id));
                                    model.remove(&id);
                                }
                            }
                        }
                        check_batch(&mut a, &mut b, &model, &mut scratch, &run)?;
                    }
                    Op::Migrate(c, r) => {
                        let cell = CellId::new(c, r);
                        if (c + r) % 2 == 0 {
                            for q in a.extract_cell(cell) {
                                b.insert(q);
                            }
                        } else {
                            for q in b.extract_cell(cell) {
                                a.insert(q);
                            }
                        }
                    }
                    Op::Replicate(c, r, t) => {
                        let cell = CellId::new(c, r);
                        for q in
                            a.replicate_cell_where(cell, |q| q.keywords.contains_term(TermId(t)))
                        {
                            b.insert(q);
                        }
                    }
                }
                a.audit();
                b.audit();
            }
            // end state: the union of live queries equals the model
            let mut live: Vec<u64> = a.queries().chain(b.queries()).map(|q| q.id.0).collect();
            live.sort_unstable();
            live.dedup();
            let expected_ids: Vec<u64> = model.keys().copied().collect();
            prop_assert_eq!(live, expected_ids);
        }

        /// Migrating an arbitrary cell from one index to another never loses
        /// or duplicates matches when results are combined and deduplicated.
        #[test]
        fn gi2_cell_migration_preserves_global_matching(
            queries in proptest::collection::vec((0u64..1000).prop_flat_map(arb_query), 1..25),
            objects in proptest::collection::vec((0u64..1000).prop_flat_map(arb_object), 1..15),
            cell_col in 0u32..16,
            cell_row in 0u32..16,
        ) {
            use ps2stream_geo::CellId;
            let stats = half_cold_stats();
            let mut a = half_cold_index(&stats);
            let mut b = half_cold_index(&stats);
            let mut reference: Vec<StsQuery> = Vec::new();
            for (i, gq) in queries.iter().enumerate() {
                let mut q = build_query(gq);
                q.id = QueryId(i as u64);
                reference.push(q.clone());
                a.insert(q);
            }
            for q in a.extract_cell(CellId::new(cell_col, cell_row)) {
                b.insert(q);
            }
            a.audit();
            b.audit();
            for go in &objects {
                let o = build_object(go);
                let mut got: Vec<QueryId> = a
                    .match_one(&o)
                    .iter()
                    .chain(b.match_one(&o).iter())
                    .map(|m| m.query_id)
                    .collect();
                got.sort_unstable();
                got.dedup();
                let mut expected: Vec<QueryId> = reference
                    .iter()
                    .filter(|q| q.matches(&o))
                    .map(|q| q.id)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }
    }
}
