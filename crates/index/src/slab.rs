//! Generational slab storage for the queries of one GI² index.
//!
//! The matching hot loop of [`crate::Gi2Index`] verifies candidates by
//! **array index** instead of a `HashMap<QueryId, _>` probe: every stored
//! query lives in a slot of a `QuerySlab` (`Vec<Slot>` plus an intrusive
//! free list), posting lists carry dense `u32` [`SlotId`]s, and a parallel
//! side array keeps the per-slot datum the hot loop touches most — the
//! query's 64-bit term signature — densely packed.
//!
//! Slot lifecycle (the invariant that makes bare slot ids in posting lists
//! safe): a slot is **live** while its query is registered, and deleting
//! the query unposts it from every (cell, term) entry *before* the slot is
//! **freed** (its generation bumped). Every slot a posting list references
//! is therefore live, and a freed slot can be reused without any posting
//! resurrecting the old query. The generation counter is kept as an
//! explicit witness of reuse (and is asserted on in tests).

use ps2stream_geo::{CellId, UniformGrid};
use ps2stream_model::{QueryId, StsQuery};
use ps2stream_text::{IdMap, RepresentativeTerms, TermId};

/// Dense identifier of a slot in one worker's `QuerySlab`. Posting lists
/// store these directly; they are only meaningful within the owning index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

impl SlotId {
    /// Fills the unused second place of a posting entry that holds one slot
    /// (see [`crate::cell`]). Reserved: the slab never hands it out.
    pub(crate) const EMPTY: SlotId = SlotId(u32::MAX - 1);
    /// Marks a posting entry whose list lives in the spill arena. Reserved
    /// like [`SlotId::EMPTY`].
    pub(crate) const SPILLED: SlotId = SlotId(u32::MAX);

    /// The slot as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A live query and the bookkeeping needed to unpost it, none of it on the
/// heap for a paper-shaped query: its cells follow from its region, and its
/// posting terms sit in place.
#[derive(Debug, Clone)]
pub(crate) struct StoredQuery {
    /// The query itself.
    pub query: StsQuery,
    /// Terms the query is posted under (least frequent keyword of each
    /// conjunction at insertion time).
    pub posting_terms: RepresentativeTerms,
    /// Cells of the region the query is no longer posted in, because cell
    /// extraction moved them out. Empty, and unallocated, until then.
    pub excluded: Box<[CellId]>,
}

impl StoredQuery {
    /// A query as inserted: posted in every cell its region overlaps.
    pub(crate) fn new(query: StsQuery, posting_terms: RepresentativeTerms) -> Self {
        Self {
            query,
            posting_terms,
            excluded: Box::default(),
        }
    }

    /// Approximate in-memory size of the query (`S_g` accounting).
    #[inline]
    pub(crate) fn bytes(&self) -> usize {
        self.query.memory_usage()
    }

    /// The cells of `grid` the query is posted in: those its region
    /// overlaps, minus the excluded ones.
    #[inline]
    pub(crate) fn cells<'a>(&'a self, grid: &UniformGrid) -> impl Iterator<Item = CellId> + 'a {
        grid.cells_overlapping_iter(&self.query.region)
            .filter(|cell| !self.excluded.contains(cell))
    }

    /// Stops counting `cell` among the query's cells (cold: migration).
    pub(crate) fn exclude(&mut self, cell: CellId) {
        let mut excluded = std::mem::take(&mut self.excluded).into_vec();
        excluded.push(cell);
        self.excluded = excluded.into_boxed_slice();
    }
}

/// One slot of the slab.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// Unused; `next` chains the free list (`u32::MAX` terminates it).
    Free { next: u32 },
    /// A registered query.
    Live(StoredQuery),
}

const FREE_END: u32 = u32::MAX;

/// The generational slab of one GI² index.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuerySlab {
    slots: Vec<Slot>,
    /// Parallel array: the live query's boolean-expression signature
    /// ([`ps2stream_text::BooleanExpr::signature`]); unspecified for
    /// free slots.
    sigs: Vec<u64>,
    /// Parallel array: bumped every time a slot is freed; witnesses reuse.
    generations: Vec<u32>,
    /// Head of the free list (`FREE_END` when empty).
    free_head: u32,
    /// Id → slot of every live query.
    id_map: IdMap<QueryId, SlotId>,
    num_live: usize,
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

    /// Total number of slots ever allocated (live + free); the bound for
    /// per-slot scratch arrays.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot of a live query id.
    #[inline]
    pub(crate) fn find(&self, id: QueryId) -> Option<SlotId> {
        self.id_map.get(&id).copied()
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
            "insert over a live id must delete the old generation first"
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
            assert!(
                self.slots.len() < SlotId::EMPTY.index(),
                "slab full: the top slot ids mark posting entries"
            );
            self.slots.push(Slot::Live(stored));
            self.sigs.push(0);
            self.generations.push(0);
            SlotId((self.slots.len() - 1) as u32)
        };
        self.sigs[slot.index()] = sig;
        self.id_map.insert(id, slot);
        self.num_live += 1;
        slot
    }

    /// Frees a live slot (deletion, replacement, extraction of a query's
    /// last cell), bumping its generation. The caller removes every posting
    /// referencing the slot before it lets go of the returned query.
    pub(crate) fn free_live(&mut self, slot: SlotId) -> StoredQuery {
        let idx = slot.index();
        let free = Slot::Free {
            next: self.free_head,
        };
        let Slot::Live(sq) = std::mem::replace(&mut self.slots[idx], free) else {
            panic!("free_live of a non-live slot");
        };
        self.free_head = slot.0;
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.num_live -= 1;
        self.id_map.remove(&sq.query.id);
        sq
    }

    /// Iterates over the live queries and their slots.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (SlotId, &StoredQuery)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Live(sq) => Some((SlotId(i as u32), sq)),
            Slot::Free { .. } => None,
        })
    }

    /// Approximate memory footprint in bytes, every byte counted once: a
    /// slot holds its query in place, so a live one adds only the heap
    /// blocks of its query, exclusions and posting terms.
    pub(crate) fn memory_usage(&self) -> usize {
        let slots: usize = self
            .slots
            .iter()
            .map(|s| {
                std::mem::size_of::<Slot>()
                    + match s {
                        Slot::Free { .. } => 0,
                        Slot::Live(sq) => {
                            sq.bytes() - std::mem::size_of::<StsQuery>()
                                + std::mem::size_of_val::<[CellId]>(&sq.excluded)
                                + match &sq.posting_terms {
                                    RepresentativeTerms::Inline { .. } => 0,
                                    RepresentativeTerms::Boxed(terms) => {
                                        std::mem::size_of_val::<[TermId]>(terms)
                                    }
                                }
                        }
                    }
            })
            .sum();
        slots
            + self.sigs.len() * std::mem::size_of::<u64>()
            + self.generations.len() * std::mem::size_of::<u32>()
            + self.id_map.len() * (std::mem::size_of::<(QueryId, SlotId)>() + 16)
    }

    /// Panics unless the slab is self-consistent: every slot is either live
    /// or on the free list, the side arrays cover every slot, and the id map
    /// maps exactly the live queries to their slots.
    #[cfg(test)]
    pub(crate) fn audit(&self) {
        let mut free = 0usize;
        let mut next = self.free_head;
        while next != FREE_END {
            let Slot::Free { next: after } = self.slots[next as usize] else {
                panic!("free list reaches live slot {next}");
            };
            free += 1;
            assert!(free <= self.slots.len(), "free list has a cycle");
            next = after;
        }
        assert_eq!(self.capacity(), self.num_live + free, "live + free slots");
        assert_eq!(self.sigs.len(), self.slots.len());
        assert_eq!(self.generations.len(), self.slots.len());
        assert_eq!(self.iter_live().count(), self.num_live);
        assert_eq!(self.id_map.len(), self.num_live);
        for (slot, sq) in self.iter_live() {
            assert_eq!(self.find(sq.query.id), Some(slot), "{:?}", sq.query.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Rect;
    use ps2stream_model::SubscriberId;
    use ps2stream_text::BooleanExpr;

    fn stored(id: u64) -> StoredQuery {
        let keywords = BooleanExpr::single(TermId(1));
        let posting_terms = keywords.representative_terms(|_| 0);
        let region = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let query = StsQuery::new(QueryId(id), SubscriberId(id), keywords, region);
        StoredQuery::new(query, posting_terms)
    }

    #[test]
    fn cells_follow_the_region_minus_the_exclusions() {
        let grid = UniformGrid::new(Rect::from_coords(0.0, 0.0, 4.0, 4.0), 4, 4);
        let mut sq = stored(1);
        sq.query.region = Rect::from_coords(0.5, 0.5, 1.5, 2.5);
        let all: Vec<CellId> = grid.cells_overlapping(&sq.query.region);
        assert_eq!(all.len(), 6);
        assert_eq!(sq.cells(&grid).collect::<Vec<_>>(), all);
        sq.exclude(all[1]);
        sq.exclude(all[4]);
        let kept: Vec<CellId> = sq.cells(&grid).collect();
        assert_eq!(kept, [all[0], all[2], all[3], all[5]]);
    }

    #[test]
    fn memory_usage_counts_a_stored_query_once() {
        let per_slot = std::mem::size_of::<Slot>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<(QueryId, SlotId)>()
            + 16;
        let mut slab = QuerySlab::new();
        // a one-keyword query keeps everything in its slot
        let one = slab.insert(stored(1), 0);
        assert!(std::mem::size_of::<Slot>() >= std::mem::size_of::<StsQuery>());
        assert_eq!(slab.memory_usage(), per_slot);
        // a longer expression adds its heap block, and nothing else
        let mut long = stored(2);
        long.query.keywords = BooleanExpr::and_of((1..=12).map(TermId));
        let heap = long.query.memory_usage() - std::mem::size_of::<StsQuery>();
        assert!(heap > 0);
        slab.insert(long, 0);
        assert_eq!(slab.memory_usage(), 2 * per_slot + heap);
        // a freed slot keeps its slot and side arrays, not its id-map bucket
        slab.free_live(one);
        let bucket = std::mem::size_of::<(QueryId, SlotId)>() + 16;
        assert_eq!(slab.memory_usage(), 2 * per_slot - bucket + heap);
    }

    #[test]
    fn insert_find_free_roundtrip() {
        let mut slab = QuerySlab::new();
        let a = slab.insert(stored(1), 7);
        let b = slab.insert(stored(2), 9);
        assert_ne!(a, b);
        assert_eq!(slab.num_live(), 2);
        assert_eq!(slab.find(QueryId(1)), Some(a));
        assert!(slab.get_live(a).is_some());
        assert_eq!(slab.signatures()[a.index()], 7);
        let gen_before = slab.generation(a);
        let sq = slab.free_live(a);
        // the caller gets back what it needs to unpost the query
        assert_eq!(sq.query.id, QueryId(1));
        assert_eq!(*sq.posting_terms, [TermId(1)]);
        assert_eq!(slab.num_live(), 1);
        assert_eq!(slab.find(QueryId(1)), None);
        assert!(slab.get_live(a).is_none());
        // the freed slot is reused, with a bumped generation
        let c = slab.insert(stored(3), 0);
        assert_eq!(c, a);
        assert_eq!(slab.generation(c), gen_before + 1);
        assert_eq!(slab.capacity(), 2);
        slab.audit();
    }
}
