//! Generational slab storage for the queries of one GI² index.
//!
//! The matching hot loop of [`crate::Gi2Index`] verifies candidates by
//! **array index** instead of a `HashMap<QueryId, _>` probe: every stored
//! query lives in a slot of a `QuerySlab` (`Vec<Slot>` plus an intrusive
//! free list), posting lists carry dense `u32` [`SlotId`]s, and two parallel
//! side arrays keep the per-slot data the hot loop touches most — a
//! liveness byte and the query's 64-bit term signature — densely packed.
//!
//! Slot lifecycle (the invariant that makes bare slot ids in posting lists
//! safe):
//!
//! * a slot is **live** while its query is registered;
//! * deleting a query turns its slot into a **tombstone** carrying the
//!   number of posting entries still referencing it;
//! * the slot is **freed** (and its generation bumped) only when that count
//!   reaches zero — i.e. only when no posting list references it any more.
//!
//! A freed slot can therefore be reused without any posting resurrecting the
//! old query: stale references simply cannot exist. The generation counter
//! is kept as an explicit witness of reuse (and is asserted on in tests).

use ps2stream_geo::CellId;
use ps2stream_model::{QueryId, StsQuery};
use ps2stream_text::{IdMap, TermId};

/// Dense identifier of a slot in one worker's `QuerySlab`. Posting lists
/// store these directly; they are only meaningful within the owning index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

impl SlotId {
    /// The slot as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A live query and the bookkeeping needed to unpost it.
#[derive(Debug, Clone)]
pub(crate) struct StoredQuery {
    /// The query itself.
    pub query: StsQuery,
    /// Approximate in-memory size (`S_g` accounting).
    pub bytes: usize,
    /// Cells of this index in which the query is posted.
    pub cells: Vec<CellId>,
    /// Terms the query is posted under (least frequent keyword of each
    /// conjunction at insertion time).
    pub posting_terms: Vec<TermId>,
}

/// One slot of the slab.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// Unused; `next` chains the free list (`u32::MAX` terminates it).
    Free { next: u32 },
    /// A registered query.
    Live(StoredQuery),
    /// A lazily deleted query: `pending` posting entries still reference the
    /// slot and are purged as their lists are traversed.
    Tombstoned {
        /// Posting entries not yet purged.
        pending: u32,
        /// Cells the deleted generation was posted in.
        cells: Vec<CellId>,
        /// Terms the deleted generation was posted under.
        posting_terms: Vec<TermId>,
        /// The deleted query's id (still present in the id map so a
        /// re-insert can purge the stale postings eagerly).
        id: QueryId,
    },
}

const FREE_END: u32 = u32::MAX;

/// The generational slab of one GI² index.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuerySlab {
    slots: Vec<Slot>,
    /// Parallel array: `true` iff the slot is live (hot-loop liveness check
    /// without touching the fat `Slot` enum).
    live: Vec<bool>,
    /// Parallel array: the live query's boolean-expression signature
    /// ([`ps2stream_text::BooleanExpr::signature`]); unspecified for
    /// non-live slots.
    sigs: Vec<u64>,
    /// Parallel array: bumped every time a slot is freed; witnesses reuse.
    generations: Vec<u32>,
    /// Head of the free list (`FREE_END` when empty).
    free_head: u32,
    /// Id → slot for live **and** tombstoned queries.
    id_map: IdMap<QueryId, SlotId>,
    num_live: usize,
    num_tombstoned: usize,
}

impl QuerySlab {
    pub(crate) fn new() -> Self {
        Self {
            free_head: FREE_END,
            ..Self::default()
        }
    }

    /// Number of live queries.
    #[inline]
    pub(crate) fn num_live(&self) -> usize {
        self.num_live
    }

    /// Number of tombstoned (lazily deleted, not yet fully purged) queries.
    #[inline]
    pub(crate) fn num_tombstoned(&self) -> usize {
        self.num_tombstoned
    }

    /// Total number of slots ever allocated (live + tombstoned + free); the
    /// bound for per-slot scratch arrays.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot currently mapped to a query id (live or tombstoned).
    #[inline]
    pub(crate) fn find(&self, id: QueryId) -> Option<SlotId> {
        self.id_map.get(&id).copied()
    }

    #[inline]
    pub(crate) fn is_live(&self, slot: SlotId) -> bool {
        self.live[slot.index()]
    }

    /// The live-flag array (hot loop).
    #[inline]
    pub(crate) fn live_flags(&self) -> &[bool] {
        &self.live
    }

    /// The signature array (hot loop).
    #[inline]
    pub(crate) fn signatures(&self) -> &[u64] {
        &self.sigs
    }

    /// The raw slots (hot loop — candidate verification by array index).
    #[inline]
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The generation of a slot (bumped on every free; test witness).
    #[inline]
    pub(crate) fn generation(&self, slot: SlotId) -> u32 {
        self.generations[slot.index()]
    }

    pub(crate) fn get_live(&self, slot: SlotId) -> Option<&StoredQuery> {
        match &self.slots[slot.index()] {
            Slot::Live(sq) => Some(sq),
            _ => None,
        }
    }

    pub(crate) fn get_live_mut(&mut self, slot: SlotId) -> Option<&mut StoredQuery> {
        match &mut self.slots[slot.index()] {
            Slot::Live(sq) => Some(sq),
            _ => None,
        }
    }

    /// Inserts a live query, reusing a free slot when one exists.
    pub(crate) fn insert(&mut self, stored: StoredQuery, sig: u64) -> SlotId {
        let id = stored.query.id;
        debug_assert!(
            !self.id_map.contains_key(&id),
            "insert over a mapped id must purge the old generation first"
        );
        let slot = if self.free_head != FREE_END {
            let idx = self.free_head as usize;
            let Slot::Free { next } = self.slots[idx] else {
                unreachable!("free list points at a non-free slot");
            };
            self.free_head = next;
            self.slots[idx] = Slot::Live(stored);
            SlotId(idx as u32)
        } else {
            self.slots.push(Slot::Live(stored));
            self.live.push(false);
            self.sigs.push(0);
            self.generations.push(0);
            SlotId((self.slots.len() - 1) as u32)
        };
        self.live[slot.index()] = true;
        self.sigs[slot.index()] = sig;
        self.id_map.insert(id, slot);
        self.num_live += 1;
        slot
    }

    /// Turns a live slot into a tombstone with `pending` postings to purge.
    pub(crate) fn tombstone(&mut self, slot: SlotId, pending: u32) {
        let idx = slot.index();
        let Slot::Live(sq) = std::mem::replace(&mut self.slots[idx], Slot::Free { next: FREE_END })
        else {
            panic!("tombstone of a non-live slot");
        };
        self.slots[idx] = Slot::Tombstoned {
            pending,
            cells: sq.cells,
            posting_terms: sq.posting_terms,
            id: sq.query.id,
        };
        self.live[idx] = false;
        self.num_live -= 1;
        self.num_tombstoned += 1;
    }

    /// Settles one purged posting of a tombstoned slot; frees the slot when
    /// its pending count reaches zero. No-op for already-freed slots (a slot
    /// purged from several lists in one sweep settles once per entry and may
    /// hit zero before the sweep's last entry).
    pub(crate) fn settle_one(&mut self, slot: SlotId) {
        let idx = slot.index();
        if let Slot::Tombstoned { pending, id, .. } = &mut self.slots[idx] {
            *pending = pending.saturating_sub(1);
            if *pending == 0 {
                let id = *id;
                self.id_map.remove(&id);
                self.num_tombstoned -= 1;
                self.release(slot);
            }
        }
    }

    /// Frees a live slot (eager unpost paths: replacement, extraction of a
    /// query's last cell). The caller must already have removed every
    /// posting referencing the slot.
    pub(crate) fn free_live(&mut self, slot: SlotId) -> StoredQuery {
        let idx = slot.index();
        let Slot::Live(sq) = std::mem::replace(&mut self.slots[idx], Slot::Free { next: FREE_END })
        else {
            panic!("free_live of a non-live slot");
        };
        self.live[idx] = false;
        self.num_live -= 1;
        self.id_map.remove(&sq.query.id);
        self.release(slot);
        sq
    }

    /// Discards a tombstone whose stale postings were purged eagerly
    /// (re-insert of a tombstoned id), returning its cells/terms.
    pub(crate) fn free_tombstone(&mut self, slot: SlotId) -> (Vec<CellId>, Vec<TermId>) {
        let idx = slot.index();
        let Slot::Tombstoned {
            cells,
            posting_terms,
            id,
            ..
        } = std::mem::replace(&mut self.slots[idx], Slot::Free { next: FREE_END })
        else {
            panic!("free_tombstone of a non-tombstoned slot");
        };
        self.id_map.remove(&id);
        self.num_tombstoned -= 1;
        self.release(slot);
        (cells, posting_terms)
    }

    fn release(&mut self, slot: SlotId) {
        let idx = slot.index();
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.slots[idx] = Slot::Free {
            next: self.free_head,
        };
        self.live[idx] = false;
        self.free_head = slot.0;
    }

    /// Iterates over the live queries.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = &StoredQuery> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Slot::Live(sq) => Some(sq),
            _ => None,
        })
    }

    /// Approximate memory footprint in bytes.
    pub(crate) fn memory_usage(&self) -> usize {
        let slots: usize = self
            .slots
            .iter()
            .map(|s| {
                std::mem::size_of::<Slot>()
                    + match s {
                        Slot::Free { .. } => 0,
                        Slot::Live(sq) => {
                            sq.bytes
                                + sq.cells.len() * std::mem::size_of::<CellId>()
                                + sq.posting_terms.len() * std::mem::size_of::<TermId>()
                        }
                        Slot::Tombstoned {
                            cells,
                            posting_terms,
                            ..
                        } => {
                            cells.len() * std::mem::size_of::<CellId>()
                                + posting_terms.len() * std::mem::size_of::<TermId>()
                        }
                    }
            })
            .sum();
        slots
            + self.live.len()
            + self.sigs.len() * std::mem::size_of::<u64>()
            + self.generations.len() * std::mem::size_of::<u32>()
            + self.id_map.len() * (std::mem::size_of::<(QueryId, SlotId)>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Rect;
    use ps2stream_model::SubscriberId;
    use ps2stream_text::BooleanExpr;

    fn stored(id: u64) -> StoredQuery {
        let query = StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::single(TermId(1)),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        );
        let bytes = query.memory_usage();
        StoredQuery {
            query,
            bytes,
            cells: vec![CellId::new(0, 0)],
            posting_terms: vec![TermId(1)],
        }
    }

    #[test]
    fn insert_find_free_roundtrip() {
        let mut slab = QuerySlab::new();
        let a = slab.insert(stored(1), 7);
        let b = slab.insert(stored(2), 9);
        assert_ne!(a, b);
        assert_eq!(slab.num_live(), 2);
        assert_eq!(slab.find(QueryId(1)), Some(a));
        assert!(slab.is_live(a));
        assert_eq!(slab.signatures()[a.index()], 7);
        let gen_before = slab.generation(a);
        let sq = slab.free_live(a);
        assert_eq!(sq.query.id, QueryId(1));
        assert_eq!(slab.num_live(), 1);
        assert_eq!(slab.find(QueryId(1)), None);
        // the freed slot is reused, with a bumped generation
        let c = slab.insert(stored(3), 0);
        assert_eq!(c, a);
        assert_eq!(slab.generation(c), gen_before + 1);
        assert_eq!(slab.capacity(), 2);
    }

    #[test]
    fn tombstone_settles_then_frees() {
        let mut slab = QuerySlab::new();
        let a = slab.insert(stored(1), 0);
        slab.tombstone(a, 2);
        assert_eq!(slab.num_live(), 0);
        assert_eq!(slab.num_tombstoned(), 1);
        assert!(!slab.is_live(a));
        // the id stays mapped while the tombstone is pending
        assert_eq!(slab.find(QueryId(1)), Some(a));
        slab.settle_one(a);
        assert_eq!(slab.num_tombstoned(), 1);
        slab.settle_one(a);
        assert_eq!(slab.num_tombstoned(), 0);
        assert_eq!(slab.find(QueryId(1)), None);
        // further settles of the freed slot are no-ops
        slab.settle_one(a);
        assert_eq!(slab.capacity(), 1);
    }

    #[test]
    fn free_tombstone_returns_posting_locations() {
        let mut slab = QuerySlab::new();
        let a = slab.insert(stored(1), 0);
        slab.tombstone(a, 1);
        let (cells, terms) = slab.free_tombstone(a);
        assert_eq!(cells, vec![CellId::new(0, 0)]);
        assert_eq!(terms, vec![TermId(1)]);
        assert_eq!(slab.num_tombstoned(), 0);
        assert_eq!(slab.find(QueryId(1)), None);
    }
}
