//! The sharded, read-mostly query-term registry (`H2`).
//!
//! The gridt routing table registers, for every cell, the set of terms under
//! which at least one STS query is posted: objects carrying none of their
//! cell's registered terms are discarded at the dispatcher (Section IV-C).
//! With several dispatcher executors sharing one routing table, maintaining
//! those per-cell sets behind the table's `RwLock` forces every query
//! insertion to take a **write** lock on the whole table, serializing the
//! ingest path.
//!
//! [`TermRegistry`] therefore stripes `H2` over a fixed array of 64 locks,
//! each mapping cell → registered term set, plus a per-cell count of
//! registered terms for the early-discard check. A cell's stripe is a hash
//! of its id. Every per-cell operation (`contains`, `probe_terms`,
//! `insert_all`, `terms_of_cell`) takes one stripe lock at a time and no
//! operation ever holds two, so the registry has no lock order to keep.
//!
//! In steady state (the live query population stabilizes around µ,
//! Section VI-A) almost every insertion hits the read-only fast path and
//! the rare writes contend on one small stripe.

use parking_lot::RwLock;
use ps2stream_text::{IdMap, IdSet, TermId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of lock stripes; a power of two so the stripe of a cell is a mask
/// away from its hash.
const SHARDS: usize = 64;

type Shard = RwLock<IdMap<u32, IdSet<TermId>>>;

#[inline]
fn shard_of(cell: u32) -> usize {
    // Fibonacci hashing: cheap and well-distributed for dense cell ids.
    ((cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (SHARDS - 1)
}

/// The sharded per-cell term sets backing the `H2` filters of the routing
/// table. All methods take `&self`.
pub struct TermRegistry {
    shards: [Shard; SHARDS],
    /// Number of distinct terms registered per cell (early-discard fast path).
    cell_counts: Vec<AtomicUsize>,
}

impl TermRegistry {
    /// Creates an empty registry for `num_cells` grid cells.
    pub fn new(num_cells: usize) -> Self {
        let mut cell_counts = Vec::with_capacity(num_cells);
        cell_counts.resize_with(num_cells, AtomicUsize::default);
        Self {
            shards: std::array::from_fn(|_| RwLock::new(IdMap::default())),
            cell_counts,
        }
    }

    #[inline]
    fn shard(&self, cell: u32) -> &Shard {
        &self.shards[shard_of(cell)]
    }

    /// Returns true if `term` is registered in `cell`.
    #[inline]
    pub fn contains(&self, cell: u32, term: TermId) -> bool {
        self.shard(cell)
            .read()
            .get(&cell)
            .is_some_and(|terms| terms.contains(&term))
    }

    /// Returns true if the cell has no registered term at all (objects in it
    /// are discarded without consulting any shard).
    #[inline]
    pub fn cell_is_empty(&self, cell: usize) -> bool {
        self.cell_counts
            .get(cell)
            .is_none_or(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// Registers `term` in `cell` (see [`TermRegistry::insert_all`]).
    /// Returns true if the pair was newly registered.
    pub fn insert(&self, cell: u32, term: TermId) -> bool {
        self.insert_all(cell, &[term]) == 1
    }

    /// Registers every term of `terms` in `cell` — a query insertion's
    /// registration in one of its cells. One shard read lock when every pair
    /// is already present (the steady-state fast path); otherwise one shard
    /// write lock for all of them. Returns the number of pairs newly
    /// registered.
    pub fn insert_all(&self, cell: u32, terms: &[TermId]) -> usize {
        {
            let shard = self.shard(cell).read();
            let registered = shard.get(&cell);
            if terms
                .iter()
                .all(|t| registered.is_some_and(|set| set.contains(t)))
            {
                return 0;
            }
        }
        let mut shard = self.shard(cell).write();
        let registered = shard.entry(cell).or_default();
        let added = terms.iter().filter(|&&t| registered.insert(t)).count();
        if let Some(count) = self.cell_counts.get(cell as usize) {
            count.fetch_add(added, Ordering::Relaxed);
        }
        added
    }

    /// Probes several terms of one cell under a **single** shard read lock,
    /// calling `f` for each registered term in order; `f` returns false to
    /// stop early. This is the object hot path: one lock acquisition per
    /// object instead of one per term.
    pub fn probe_terms(&self, cell: u32, terms: &[TermId], mut f: impl FnMut(TermId) -> bool) {
        let shard = self.shard(cell).read();
        let Some(registered) = shard.get(&cell) else {
            return;
        };
        for &t in terms {
            if registered.contains(&t) && !f(t) {
                break;
            }
        }
    }

    /// The registered terms of one cell (one shard read lock; used by the
    /// control path of the dynamic load adjustment).
    pub fn terms_of_cell(&self, cell: u32) -> HashSet<TermId> {
        if self.cell_is_empty(cell as usize) {
            return HashSet::new();
        }
        self.shard(cell)
            .read()
            .get(&cell)
            .map(|terms| terms.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Total number of `(cell, term)` registrations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().values().map(IdSet::len).sum::<usize>())
            .sum()
    }

    /// Returns true if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.cell_counts
            .iter()
            .all(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_usage(&self) -> usize {
        let mut materialized_cells = 0usize;
        let mut materialized_terms = 0usize;
        for shard in &self.shards {
            let shard = shard.read();
            materialized_cells += shard.len();
            materialized_terms += shard.values().map(IdSet::len).sum::<usize>();
        }
        std::mem::size_of::<Self>()
            + materialized_cells
                * (std::mem::size_of::<u32>() + std::mem::size_of::<IdSet<TermId>>())
            + materialized_terms * (std::mem::size_of::<TermId>() + 16)
            + self.cell_counts.len() * std::mem::size_of::<AtomicUsize>()
    }
}

impl Clone for TermRegistry {
    fn clone(&self) -> Self {
        Self {
            shards: std::array::from_fn(|i| RwLock::new(self.shards[i].read().clone())),
            cell_counts: self
                .cell_counts
                .iter()
                .map(|c| AtomicUsize::new(c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for TermRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermRegistry")
            .field("registrations", &self.len())
            .field("cells", &self.cell_counts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    #[test]
    fn insert_and_contains() {
        let r = TermRegistry::new(16);
        assert!(r.is_empty());
        assert!(r.cell_is_empty(3));
        assert!(r.insert(3, TermId(7)));
        assert!(!r.insert(3, TermId(7))); // idempotent
        assert!(r.contains(3, TermId(7)));
        assert!(!r.contains(3, TermId(8)));
        assert!(!r.contains(4, TermId(7)));
        assert!(!r.cell_is_empty(3));
        assert!(r.cell_is_empty(4));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn terms_of_cell_is_per_cell() {
        let r = TermRegistry::new(8);
        for t in 0..100u32 {
            r.insert(5, TermId(t));
        }
        r.insert(6, TermId(1));
        let terms = r.terms_of_cell(5);
        assert_eq!(terms.len(), 100);
        assert!(terms.contains(&TermId(42)));
        assert_eq!(r.terms_of_cell(6).len(), 1);
        assert_eq!(r.terms_of_cell(7).len(), 0);
        assert_eq!(r.len(), 101);
    }

    #[test]
    fn probe_terms_filters_and_stops_early() {
        let r = TermRegistry::new(8);
        r.insert(2, TermId(1));
        r.insert(2, TermId(3));
        let mut seen = Vec::new();
        r.probe_terms(2, &[TermId(0), TermId(1), TermId(2), TermId(3)], |t| {
            seen.push(t);
            true
        });
        assert_eq!(seen, vec![TermId(1), TermId(3)]);
        // early exit after the first registered term
        let mut seen = Vec::new();
        r.probe_terms(2, &[TermId(1), TermId(3)], |t| {
            seen.push(t);
            false
        });
        assert_eq!(seen, vec![TermId(1)]);
        // unregistered cell probes nothing
        r.probe_terms(5, &[TermId(1)], |_| panic!("cell 5 has no terms"));
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        let r = TermRegistry::new(4);
        r.insert(1, TermId(1));
        let snapshot = r.clone();
        r.insert(1, TermId(2));
        assert!(snapshot.contains(1, TermId(1)));
        assert!(!snapshot.contains(1, TermId(2)));
        assert!(r.contains(1, TermId(2)));
    }

    #[test]
    fn concurrent_registration_under_shared_reference() {
        let r = Arc::new(TermRegistry::new(64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        // every thread registers the same pairs: heavy collisions
                        r.insert(i % 64, TermId(i % 250));
                        assert!(r.contains(i % 64, TermId(i % 250)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // (i % 64, i % 250) is injective over 0..500 (lcm(64, 250) > 500)
        assert_eq!(r.len(), 500);
    }

    // small spaces so probes often hit several registered terms and stop early
    const CELLS: u32 = 6;
    const TERMS: u32 = 12;

    /// One step of `registry_matches_a_reference_model`.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, TermId),
        /// Register several terms of one cell at once (duplicates allowed).
        InsertAll(u32, Vec<TermId>),
        Contains(u32, TermId),
        /// Probe distinct terms of a cell, stopping after `stop` callbacks.
        Probe(u32, Vec<TermId>, usize),
        TermsOf(u32),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..CELLS, 0..TERMS).prop_map(|(c, t)| Op::Insert(c, TermId(t))),
            2 => (0..CELLS, proptest::collection::vec(0..TERMS, 0..4))
                .prop_map(|(c, terms)| Op::InsertAll(c, terms.into_iter().map(TermId).collect())),
            2 => (0..CELLS, 0..TERMS).prop_map(|(c, t)| Op::Contains(c, TermId(t))),
            3 => (0..CELLS, proptest::collection::vec(0..TERMS, 0..10), 1usize..5).prop_map(
                |(c, terms, stop)| {
                    let mut seen = HashSet::new();
                    let distinct = terms.into_iter().filter(|t| seen.insert(*t));
                    Op::Probe(c, distinct.map(TermId).collect(), stop)
                }
            ),
            1 => (0..CELLS).prop_map(Op::TermsOf),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat registry behaves exactly like a `BTreeMap` of per-cell
        /// term sets: probes yield each registered input term once, in
        /// input order.
        #[test]
        fn registry_matches_a_reference_model(
            ops in proptest::collection::vec(arb_op(), 1..80),
        ) {
            let r = TermRegistry::new(CELLS as usize);
            let mut model: BTreeMap<u32, BTreeSet<TermId>> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(c, t) => {
                        prop_assert_eq!(r.insert(c, t), model.entry(c).or_default().insert(t));
                    }
                    Op::InsertAll(c, terms) => {
                        let before = model.get(&c).map_or(0, BTreeSet::len);
                        if !terms.is_empty() {
                            model.entry(c).or_default().extend(terms.iter().copied());
                        }
                        let added = model.get(&c).map_or(0, BTreeSet::len) - before;
                        prop_assert_eq!(r.insert_all(c, &terms), added);
                    }
                    Op::Contains(c, t) => {
                        let expected = model.get(&c).is_some_and(|s| s.contains(&t));
                        prop_assert_eq!(r.contains(c, t), expected);
                    }
                    Op::Probe(c, terms, stop) => {
                        let mut seen = Vec::new();
                        r.probe_terms(c, &terms, |t| {
                            seen.push(t);
                            seen.len() < stop
                        });
                        let expected: Vec<TermId> = terms
                            .iter()
                            .copied()
                            .filter(|t| model.get(&c).is_some_and(|s| s.contains(t)))
                            .take(stop)
                            .collect();
                        prop_assert_eq!(seen, expected);
                    }
                    Op::TermsOf(c) => {
                        let expected: HashSet<TermId> =
                            model.get(&c).into_iter().flatten().copied().collect();
                        prop_assert_eq!(r.terms_of_cell(c), expected);
                    }
                }
                for c in 0..CELLS {
                    prop_assert_eq!(r.cell_is_empty(c as usize), !model.contains_key(&c));
                }
                prop_assert_eq!(r.len(), model.values().map(BTreeSet::len).sum::<usize>());
            }
        }
    }
}
