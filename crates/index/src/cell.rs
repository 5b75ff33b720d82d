//! Per-cell inverted index of the GI² structure.
//!
//! GI² divides the space into uniform grid cells and, inside each cell,
//! organizes the STS queries overlapping the cell in an inverted index keyed
//! by the queries' least frequent keyword(s) (Section IV-D).
//!
//! Posting lists carry dense [`SlotId`]s into the owning index's query slab
//! (see [`crate::slab`]), so candidate verification during matching is an
//! array index — no per-candidate hash probe. Each (cell, term) pair owns one
//! 12-byte `PostingEntry`: the term's object-hit counter plus up to two
//! slots in place, so a table bucket is 16 bytes. Most lists hold one or two
//! slots (rare keywords are the common case); a longer list lives in the
//! index's one `PostingArena`, and the entry holds a marker and the
//! arena index. Every slot in a list is live: deleting a query unposts it
//! from each of its entries with one probe apiece (`CellIndex::unpost`)
//! before its slot is freed.

use crate::slab::SlotId;
use ps2stream_text::{IdMap, TermId};
use std::collections::hash_map::Entry;

/// Slots a posting entry holds in place before its list spills to the arena.
const INLINE_SLOTS: usize = 2;

/// Everything a cell keeps for one posting term: how many recent objects of
/// the cell contained the term (feeds the Phase-I text-split decision of the
/// local load adjustment) and the non-empty list of slots posted under it.
///
/// `slots` is `[a, SlotId::EMPTY]` for a one-slot list, `[a, b]` for two,
/// and `[SlotId::SPILLED, i]` for a list of three or more held at arena
/// index `i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PostingEntry {
    hits: u32,
    slots: [SlotId; INLINE_SLOTS],
}

impl PostingEntry {
    /// An entry whose list holds `slot` alone.
    fn new(slot: SlotId) -> Self {
        Self {
            hits: 0,
            slots: [slot, SlotId::EMPTY],
        }
    }

    /// Appends a slot; a third one spills the list to the arena.
    #[inline]
    fn push(&mut self, slot: SlotId, arena: &mut PostingArena) {
        match self.slots {
            [SlotId::SPILLED, SlotId(i)] => arena.lists[i as usize].push(slot),
            [_, SlotId::EMPTY] => self.slots[1] = slot,
            [a, b] => self.slots = [SlotId::SPILLED, SlotId(arena.spill([a, b, slot]))],
        }
    }

    /// The posted slots.
    #[inline]
    pub(crate) fn slots<'a>(&'a self, arena: &'a PostingArena) -> &'a [SlotId] {
        match self.slots {
            [SlotId::SPILLED, SlotId(i)] => &arena.lists[i as usize],
            [_, SlotId::EMPTY] => &self.slots[..1],
            _ => &self.slots,
        }
    }

    /// Removes `slot`, preserving the order of the rest; a spilled list that
    /// fits in place again moves back and releases its block. Returns true
    /// if the list is now empty.
    #[inline]
    fn remove(&mut self, slot: SlotId, arena: &mut PostingArena) -> bool {
        match self.slots {
            [SlotId::SPILLED, SlotId(i)] => {
                let list = &mut arena.lists[i as usize];
                list.retain(|&s| s != slot);
                if list.len() == INLINE_SLOTS {
                    self.slots = [list[0], list[1]];
                    arena.release(i);
                }
                false
            }
            [a, b] if a == slot => {
                self.slots = [b, SlotId::EMPTY];
                b == SlotId::EMPTY
            }
            [_, b] if b == slot => {
                self.slots[1] = SlotId::EMPTY;
                false
            }
            _ => {
                debug_assert!(false, "unpost of unposted slot {slot:?}");
                false
            }
        }
    }

    /// Records that a recent object of the cell contained the term (a term
    /// with no posted query has no entry, so it accrues no hits).
    #[inline]
    pub(crate) fn note_object_hit(&mut self) {
        self.hits = self.hits.saturating_add(1);
    }

    /// The arena index of a spilled list (the index audit).
    #[cfg(test)]
    fn spilled(&self) -> Option<u32> {
        match self.slots {
            [SlotId::SPILLED, SlotId(i)] => Some(i),
            _ => None,
        }
    }
}

/// The posting lists of three or more slots of one index, one block each,
/// indexed by the `u32` their entry holds. A list that shrinks back to two
/// slots moves into its entry, and its block is freed and its index reused.
#[derive(Debug, Default)]
pub(crate) struct PostingArena {
    lists: Vec<Vec<SlotId>>,
    /// Indices of released lists. Its capacity covers every index, so a
    /// delete never allocates.
    free: Vec<u32>,
}

impl Clone for PostingArena {
    fn clone(&self) -> Self {
        let mut free = Vec::with_capacity(self.lists.len());
        free.extend_from_slice(&self.free);
        Self {
            lists: self.lists.clone(),
            free,
        }
    }
}

impl PostingArena {
    /// Stores a new list: one block, at a released index when there is one.
    fn spill(&mut self, slots: [SlotId; INLINE_SLOTS + 1]) -> u32 {
        let mut list = Vec::with_capacity(2 * INLINE_SLOTS);
        list.extend_from_slice(&slots);
        if let Some(i) = self.free.pop() {
            self.lists[i as usize] = list;
            return i;
        }
        self.lists.push(list);
        self.free.reserve(self.lists.len() - self.free.len());
        (self.lists.len() - 1) as u32
    }

    /// Frees the block of list `i` and makes its index reusable.
    #[inline]
    fn release(&mut self, i: u32) {
        drop(std::mem::take(&mut self.lists[i as usize]));
        self.free.push(i);
    }

    /// Approximate memory footprint in bytes: a `Vec` header per index,
    /// 4 bytes per released index and 4 per slot of a live list.
    pub(crate) fn memory_usage(&self) -> usize {
        self.lists.len() * std::mem::size_of::<Vec<SlotId>>()
            + std::mem::size_of_val::<[u32]>(&self.free)
            + self
                .lists
                .iter()
                .map(|list| std::mem::size_of_val::<[SlotId]>(list))
                .sum::<usize>()
    }

    /// Panics unless every live list is referenced by exactly one entry
    /// (`referenced` holds the index of every spilled entry) and holds at
    /// least three slots, and every released list is empty and listed once.
    #[cfg(test)]
    pub(crate) fn audit(&self, referenced: &[u32]) {
        let mut references = vec![0usize; self.lists.len()];
        for &i in referenced {
            references[i as usize] += 1;
        }
        let mut released = vec![false; self.lists.len()];
        for &i in &self.free {
            let i = i as usize;
            assert!(!released[i], "list {i} released twice");
            released[i] = true;
            assert!(self.lists[i].is_empty(), "released list {i} holds slots");
            assert_eq!(
                self.lists[i].capacity(),
                0,
                "released list {i} kept its block"
            );
            assert_eq!(references[i], 0, "released list {i} is referenced");
        }
        for (i, list) in self.lists.iter().enumerate() {
            if !released[i] {
                assert_eq!(
                    references[i], 1,
                    "list {i} referenced {} times",
                    references[i]
                );
                assert!(
                    list.len() > INLINE_SLOTS,
                    "list {i} holds {} slots",
                    list.len()
                );
            }
        }
        assert!(
            self.free.capacity() >= self.lists.len(),
            "a delete could allocate"
        );
    }
}

/// Inverted index of one grid cell: one `PostingEntry` per posting term.
#[derive(Debug, Default, Clone)]
pub struct CellIndex {
    postings: IdMap<TermId, PostingEntry>,
    /// Number of distinct queries currently posted in this cell
    /// (a query posted under several terms is counted once).
    num_queries: usize,
    /// Total approximate size in bytes of the queries posted in this cell
    /// (the `S_g` quantity of the Minimum Cost Migration problem).
    query_bytes: usize,
    /// Number of objects that fell into this cell since the last counter
    /// reset (the `n_o` quantity of Definition 3).
    objects_seen: u64,
}

/// Per-term statistics of one cell, consumed by the dynamic load adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTermStat {
    /// The posting term.
    pub term: TermId,
    /// Number of queries posted under the term in this cell.
    pub queries: u64,
    /// Number of recent objects in this cell containing the term.
    pub object_hits: u64,
}

impl CellIndex {
    /// Creates an empty cell index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a query under the given terms. `query_bytes` is the approximate
    /// in-memory size of the query, used for migration cost accounting.
    pub(crate) fn post(
        &mut self,
        slot: SlotId,
        terms: &[TermId],
        query_bytes: usize,
        arena: &mut PostingArena,
    ) {
        if terms.is_empty() {
            return;
        }
        for &t in terms {
            self.postings
                .entry(t)
                .and_modify(|e| e.push(slot, arena))
                .or_insert_with(|| PostingEntry::new(slot));
        }
        self.num_queries += 1;
        self.query_bytes += query_bytes;
    }

    /// The posting list for a term, if any (tests and the index audit).
    #[cfg(test)]
    pub(crate) fn postings<'a>(
        &'a self,
        term: TermId,
        arena: &'a PostingArena,
    ) -> Option<&'a [SlotId]> {
        self.postings.get(&term).map(|entry| entry.slots(arena))
    }

    /// The entry of a term — the matching hot loop's one probe per object
    /// term, serving both traversal ([`PostingEntry::slots`]) and hit
    /// accounting ([`PostingEntry::note_object_hit`]).
    #[inline]
    pub(crate) fn traverse(&mut self, term: TermId) -> Option<&mut PostingEntry> {
        self.postings.get_mut(&term)
    }

    /// Removes `slot` from the posting list of `term` with one probe,
    /// dropping the entry when its list empties. Allocation-free: a spilled
    /// list that shrinks back into the entry frees its block.
    pub(crate) fn unpost(&mut self, term: TermId, slot: SlotId, arena: &mut PostingArena) {
        let Entry::Occupied(mut entry) = self.postings.entry(term) else {
            debug_assert!(
                false,
                "unpost of slot {slot:?} under unposted term {term:?}"
            );
            return;
        };
        if entry.get_mut().remove(slot, arena) {
            entry.remove();
        }
    }

    /// Account for the removal of a query whose postings in this cell were
    /// unposted. Removing more than was posted is a bookkeeping bug: it
    /// fails a debug assertion (release builds clamp at zero).
    pub fn note_removed(&mut self, query_bytes: usize) {
        debug_assert!(
            self.num_queries >= 1 && self.query_bytes >= query_bytes,
            "removing {query_bytes} bytes from a cell of {} queries and {} bytes",
            self.num_queries,
            self.query_bytes
        );
        self.num_queries = self.num_queries.saturating_sub(1);
        self.query_bytes = self.query_bytes.saturating_sub(query_bytes);
    }

    /// Records that an object fell into this cell.
    #[inline]
    pub fn record_object(&mut self) {
        self.objects_seen += 1;
    }

    /// Per-term statistics of the cell (queries posted and recent object hits
    /// per posting term), streamed to `f` without building an intermediate
    /// collection.
    pub(crate) fn for_each_term_stat<F: FnMut(CellTermStat)>(
        &self,
        arena: &PostingArena,
        mut f: F,
    ) {
        for (t, entry) in &self.postings {
            f(CellTermStat {
                term: *t,
                queries: entry.slots(arena).len() as u64,
                object_hits: u64::from(entry.hits),
            });
        }
    }

    /// Number of objects recorded since the last reset (`n_o`).
    pub fn objects_seen(&self) -> u64 {
        self.objects_seen
    }

    /// Resets the object counters (called at the start of a load-measurement
    /// period).
    pub fn reset_object_counter(&mut self) {
        self.objects_seen = 0;
        for entry in self.postings.values_mut() {
            entry.hits = 0;
        }
    }

    /// Number of distinct queries posted in this cell (`n_q`).
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Total approximate size in bytes of the queries in this cell (`S_g`).
    pub fn query_bytes(&self) -> usize {
        self.query_bytes
    }

    /// Appends the distinct slots posted in this cell to `out` (sorted,
    /// deduplicated; the buffer is caller-provided so the migration paths
    /// can recycle it instead of flatten-collecting a fresh `Vec`).
    pub(crate) fn distinct_queries_into(&self, arena: &PostingArena, out: &mut Vec<SlotId>) {
        for entry in self.postings.values() {
            out.extend_from_slice(entry.slots(arena));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Returns true if no query is posted in this cell.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Calls `f` with every posting term, its list and, when the list is
    /// spilled, its arena index (the index audit).
    #[cfg(test)]
    pub(crate) fn for_each_posting_list(
        &self,
        arena: &PostingArena,
        mut f: impl FnMut(TermId, &[SlotId], Option<u32>),
    ) {
        for (&t, entry) in &self.postings {
            f(t, entry.slots(arena), entry.spilled());
        }
    }

    /// Approximate memory footprint of the cell in bytes, every byte counted
    /// once: the struct, then per posting term its table bucket (key, entry
    /// and 16 bytes of hash-table overhead). Spilled lists are the arena's
    /// (`PostingArena::memory_usage`).
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.postings.len() * (std::mem::size_of::<(TermId, PostingEntry)>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SlotId {
        SlotId(i)
    }
    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// A cell with the arena its spilled lists live in.
    #[derive(Default)]
    struct Cell {
        c: CellIndex,
        arena: PostingArena,
    }

    impl Cell {
        fn post(&mut self, slot: SlotId, terms: &[TermId], bytes: usize) {
            self.c.post(slot, terms, bytes, &mut self.arena);
        }
        fn unpost(&mut self, term: TermId, slot: SlotId) {
            self.c.unpost(term, slot, &mut self.arena);
        }
        fn postings(&self, term: TermId) -> Option<&[SlotId]> {
            self.c.postings(term, &self.arena)
        }
        fn spilled(&mut self, term: TermId) -> bool {
            self.c.traverse(term).and_then(|e| e.spilled()).is_some()
        }
        fn term_stats(&self) -> Vec<CellTermStat> {
            let mut out = Vec::new();
            self.c.for_each_term_stat(&self.arena, |s| out.push(s));
            out.sort_by_key(|s| s.term);
            out
        }
        fn memory_usage(&self) -> usize {
            self.c.memory_usage() + self.arena.memory_usage()
        }
    }

    #[test]
    fn post_and_lookup() {
        let mut c = Cell::default();
        c.post(s(1), &[t(5)], 100);
        c.post(s(2), &[t(5), t(7)], 200);
        assert_eq!(c.postings(t(5)).unwrap(), &[s(1), s(2)]);
        assert_eq!(c.postings(t(7)).unwrap(), &[s(2)]);
        assert!(c.postings(t(9)).is_none());
        assert_eq!(c.c.num_queries(), 2);
        assert_eq!(c.c.query_bytes(), 300);
    }

    #[test]
    fn post_with_no_terms_is_a_noop() {
        let mut c = Cell::default();
        c.post(s(1), &[], 100);
        assert!(c.c.is_empty());
        assert_eq!(c.c.num_queries(), 0);
    }

    #[test]
    fn unpost_keeps_order_and_drops_the_emptied_entry() {
        let mut c = Cell::default();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 10);
        c.post(s(3), &[t(1)], 10);
        c.unpost(t(1), s(2));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(1), s(3)]);
        // unposting everything drops the term entry
        c.unpost(t(1), s(1));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(3)]);
        c.unpost(t(1), s(3));
        assert!(c.postings(t(1)).is_none());
        assert!(c.c.is_empty());
    }

    #[test]
    fn unpost_removes_one_slot() {
        let mut c = Cell::default();
        c.post(s(1), &[t(1), t(2)], 10);
        c.post(s(2), &[t(1)], 10);
        c.unpost(t(1), s(1));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(2)]);
        c.unpost(t(2), s(1));
        assert!(c.postings(t(2)).is_none());
        // the second of two slots goes just as well
        c.post(s(3), &[t(1)], 10);
        c.unpost(t(1), s(3));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(2)]);
    }

    #[test]
    fn traverse_allows_compaction_and_hits_are_explicit() {
        let mut c = Cell::default();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 10);
        {
            let entry = c.c.traverse(t(1)).unwrap();
            assert_eq!(entry.slots(&c.arena), &[s(1), s(2)]);
            assert!(!entry.remove(s(1), &mut c.arena));
            entry.note_object_hit();
        }
        assert_eq!(c.postings(t(1)).unwrap(), &[s(2)]);
        assert_eq!(c.term_stats()[0].object_hits, 1);
        c.unpost(t(1), s(2));
        assert!(c.postings(t(1)).is_none());
        assert!(
            c.term_stats().is_empty(),
            "term entry removed with its postings"
        );
        assert!(c.c.traverse(t(9)).is_none());
    }

    #[test]
    fn object_counter() {
        let mut c = CellIndex::new();
        c.record_object();
        c.record_object();
        assert_eq!(c.objects_seen(), 2);
        c.reset_object_counter();
        assert_eq!(c.objects_seen(), 0);
    }

    #[test]
    fn all_queries_dedups_multi_term_postings() {
        let mut c = Cell::default();
        c.post(s(2), &[t(1), t(2)], 10);
        c.post(s(1), &[t(2)], 10);
        for i in 3..6 {
            c.post(s(i), &[t(1)], 10); // t(1) spills
        }
        // the buffer is recycled: it is appended to, then sorted and deduped
        let mut buf = vec![s(9)];
        buf.clear();
        c.c.distinct_queries_into(&c.arena, &mut buf);
        assert_eq!(buf, (1..6).map(s).collect::<Vec<_>>());
    }

    #[test]
    fn note_removed_adjusts_counters() {
        let mut c = Cell::default();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 30);
        c.c.note_removed(10);
        assert_eq!(c.c.num_queries(), 1);
        assert_eq!(c.c.query_bytes(), 30);
        c.c.note_removed(30);
        assert_eq!(c.c.num_queries(), 0);
        assert_eq!(c.c.query_bytes(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "removing 10 bytes from a cell of 0 queries")]
    fn note_removed_fails_on_a_double_removal() {
        let mut c = Cell::default();
        c.post(s(1), &[t(1)], 10);
        c.c.note_removed(10);
        c.c.note_removed(10);
    }

    #[test]
    fn term_stats_track_queries_and_object_hits() {
        let mut c = Cell::default();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 10);
        c.post(s(3), &[t(2)], 10);
        c.post(s(4), &[t(3)], 10);
        c.post(s(5), &[t(3)], 10);
        c.post(s(6), &[t(3)], 10);
        c.c.traverse(t(1)).unwrap().note_object_hit();
        c.c.traverse(t(1)).unwrap().note_object_hit();
        c.c.traverse(t(3)).unwrap().note_object_hit();
        assert!(c.c.traverse(t(9)).is_none()); // no posting list -> nothing to hit
        let stats = c.term_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].term, t(1));
        assert_eq!(stats[0].queries, 2);
        assert_eq!(stats[0].object_hits, 2);
        assert_eq!(stats[1].queries, 1);
        assert_eq!(stats[1].object_hits, 0);
        // a spilled list counts its arena slots
        assert_eq!(stats[2].queries, 3);
        assert_eq!(stats[2].object_hits, 1);
        c.c.reset_object_counter();
        assert!(c.term_stats().iter().all(|s| s.object_hits == 0));
    }

    #[test]
    fn memory_usage_grows_with_postings() {
        let mut c = Cell::default();
        let base = c.memory_usage();
        for i in 0..50 {
            c.post(s(i), &[t(i % 5)], 10);
        }
        assert!(c.memory_usage() > base);
    }

    #[test]
    fn table_bucket_is_16_bytes() {
        assert_eq!(std::mem::size_of::<PostingEntry>(), 12);
        assert_eq!(std::mem::size_of::<(TermId, PostingEntry)>(), 16);
    }

    #[test]
    fn list_spills_past_the_inline_capacity_and_moves_back() {
        let mut c = Cell::default();
        let n = INLINE_SLOTS as u32;
        for i in 0..n {
            c.post(s(i), &[t(1)], 10);
        }
        assert!(!c.spilled(t(1)));
        c.c.traverse(t(1)).unwrap().note_object_hit();
        c.post(s(n), &[t(1)], 10);
        c.post(s(n + 1), &[t(1)], 10);
        assert!(c.spilled(t(1)));
        let all: Vec<SlotId> = (0..n + 2).map(s).collect();
        assert_eq!(
            c.postings(t(1)).unwrap(),
            &all[..],
            "order survives the spill"
        );
        // still above the capacity: stays spilled
        c.unpost(t(1), s(0));
        assert!(c.spilled(t(1)));
        assert_eq!(c.postings(t(1)).unwrap(), &all[1..]);
        // back within it: stored in place again, order and hits intact
        c.unpost(t(1), s(2));
        assert!(!c.spilled(t(1)));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(1), s(3)]);
        assert_eq!(c.term_stats()[0].object_hits, 1);
        assert_eq!(c.term_stats()[0].queries, 2);
        // unposting every slot of a spilled list drops the entry, and the
        // next list to spill reuses the released arena index
        for i in 10..20 {
            c.post(s(i), &[t(2)], 10);
        }
        assert_eq!(c.c.traverse(t(2)).unwrap().spilled(), Some(0));
        for i in 10..20 {
            c.unpost(t(2), s(i));
        }
        assert!(c.postings(t(2)).is_none());
        c.arena.audit(&[]);
    }

    #[test]
    fn memory_usage_counts_entry_and_spilled_slots_once() {
        let bucket = std::mem::size_of::<TermId>() + std::mem::size_of::<PostingEntry>() + 16;
        assert_eq!(bucket, 32);
        let mut c = Cell::default();
        let empty = std::mem::size_of::<CellIndex>();
        assert_eq!(c.memory_usage(), empty);
        // three terms whose lists stay in place: one bucket each, whatever
        // their length, and recording hits costs nothing
        c.post(s(1), &[t(1), t(2)], 10);
        c.post(s(2), &[t(2), t(3)], 10);
        for i in 3..3 + INLINE_SLOTS as u32 - 1 {
            c.post(s(i), &[t(3)], 10);
        }
        c.c.traverse(t(2)).unwrap().note_object_hit();
        assert_eq!(c.memory_usage(), empty + 3 * bucket);
        // one more slot spills t(3): an arena `Vec` header plus 4 bytes per slot
        c.post(s(9), &[t(3)], 10);
        let header = std::mem::size_of::<Vec<SlotId>>();
        let spilled = header + (INLINE_SLOTS + 1) * 4;
        assert_eq!(c.memory_usage(), empty + 3 * bucket + spilled);
        // shrinking it back returns the slots; the arena keeps the header
        // and 4 bytes for the released index, reused by the next spill
        c.unpost(t(3), s(9));
        assert_eq!(c.memory_usage(), empty + 3 * bucket + header + 4);
        c.post(s(9), &[t(3)], 10);
        assert_eq!(c.memory_usage(), empty + 3 * bucket + spilled);
    }
}
