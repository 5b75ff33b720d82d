//! Per-cell inverted index of the GI² structure.
//!
//! GI² divides the space into uniform grid cells and, inside each cell,
//! organizes the STS queries overlapping the cell in an inverted index keyed
//! by the queries' least frequent keyword(s) (Section IV-D).
//!
//! Posting lists carry dense [`SlotId`]s into the owning index's query slab
//! (see [`crate::slab`]), so candidate verification during matching is an
//! array index — no per-candidate hash probe. Each (cell, term) pair owns one
//! `PostingEntry`: the term's object-hit counter plus its posting list,
//! stored in place while it is short. Most lists are (rare keywords are the
//! common case), so posting a query usually allocates nothing and tearing an
//! index down frees one table per cell, not one block per list. Every slot
//! in a list is live: deleting a query unposts it from each of its entries
//! with one probe apiece (`CellIndex::unpost`) before its slot is freed.

use crate::slab::SlotId;
use ps2stream_text::{IdMap, TermId};
use std::collections::hash_map::Entry;

/// Slots a posting list holds in place before it spills to the heap.
const INLINE_SLOTS: usize = 4;

/// Everything a cell keeps for one posting term: how many recent objects of
/// the cell contained the term (feeds the Phase-I text-split decision of the
/// local load adjustment) and the non-empty list of slots posted under it.
///
/// 24 bytes — no larger than the `Vec` header it replaces: both variants
/// carry the hit counter so it packs next to the discriminant, and a spilled
/// list sits behind one thin pointer.
#[derive(Debug, Clone)]
pub(crate) enum PostingEntry {
    /// Up to [`INLINE_SLOTS`] slots, `slots[..len]`, in place.
    Inline {
        len: u8,
        hits: u32,
        slots: [SlotId; INLINE_SLOTS],
    },
    /// More than [`INLINE_SLOTS`] slots.
    #[allow(clippy::box_collection)] // a bare `Vec` would make every entry 32 bytes
    Spilled { hits: u32, list: Box<Vec<SlotId>> },
}

impl PostingEntry {
    /// An entry whose list holds `slot` alone.
    fn new(slot: SlotId) -> Self {
        let mut slots = [SlotId(0); INLINE_SLOTS];
        slots[0] = slot;
        PostingEntry::Inline {
            len: 1,
            hits: 0,
            slots,
        }
    }

    /// Appends a slot, spilling the list once it outgrows the entry.
    fn push(&mut self, slot: SlotId) {
        match self {
            PostingEntry::Inline { len, slots, .. } if (*len as usize) < INLINE_SLOTS => {
                slots[*len as usize] = slot;
                *len += 1;
            }
            PostingEntry::Inline { hits, slots, .. } => {
                let mut list = Vec::with_capacity(2 * INLINE_SLOTS);
                list.extend_from_slice(slots);
                list.push(slot);
                *self = PostingEntry::Spilled {
                    hits: *hits,
                    list: Box::new(list),
                };
            }
            PostingEntry::Spilled { list, .. } => list.push(slot),
        }
    }

    /// The posted slots.
    #[inline]
    pub(crate) fn slots(&self) -> &[SlotId] {
        match self {
            PostingEntry::Inline { len, slots, .. } => &slots[..*len as usize],
            PostingEntry::Spilled { list, .. } => list,
        }
    }

    /// Keeps the first `new_len` slots; a spilled list that fits in place
    /// again moves back and frees its block.
    #[inline]
    fn truncate(&mut self, new_len: usize) {
        match self {
            PostingEntry::Inline { len, .. } => {
                if new_len < *len as usize {
                    *len = new_len as u8;
                }
            }
            PostingEntry::Spilled { list, .. } if new_len > INLINE_SLOTS => list.truncate(new_len),
            PostingEntry::Spilled { hits, list } => {
                let mut slots = [SlotId(0); INLINE_SLOTS];
                slots[..new_len].copy_from_slice(&list[..new_len]);
                *self = PostingEntry::Inline {
                    len: new_len as u8,
                    hits: *hits,
                    slots,
                };
            }
        }
    }

    /// Drops every slot `keep` rejects, preserving the order of the rest.
    fn retain<F: FnMut(SlotId) -> bool>(&mut self, mut keep: F) {
        let list = match self {
            PostingEntry::Inline { len, slots, .. } => &mut slots[..*len as usize],
            PostingEntry::Spilled { list, .. } => &mut list[..],
        };
        let mut write = 0;
        for read in 0..list.len() {
            let s = list[read];
            if keep(s) {
                list[write] = s;
                write += 1;
            }
        }
        self.truncate(write);
    }

    /// Records that a recent object of the cell contained the term (a term
    /// with no posted query has no entry, so it accrues no hits).
    #[inline]
    pub(crate) fn note_object_hit(&mut self) {
        let hits = self.hits_mut();
        *hits = hits.saturating_add(1);
    }

    #[inline]
    fn hits_mut(&mut self) -> &mut u32 {
        let (PostingEntry::Inline { hits, .. } | PostingEntry::Spilled { hits, .. }) = self;
        hits
    }

    fn object_hits(&self) -> u32 {
        let (PostingEntry::Inline { hits, .. } | PostingEntry::Spilled { hits, .. }) = self;
        *hits
    }

    /// Bytes the entry owns outside itself.
    fn spilled_bytes(&self) -> usize {
        match self {
            PostingEntry::Inline { .. } => 0,
            PostingEntry::Spilled { list, .. } => {
                std::mem::size_of::<Vec<SlotId>>() + std::mem::size_of_val::<[SlotId]>(list)
            }
        }
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
    pub fn post(&mut self, slot: SlotId, terms: &[TermId], query_bytes: usize) {
        if terms.is_empty() {
            return;
        }
        for &t in terms {
            self.postings
                .entry(t)
                .and_modify(|e| e.push(slot))
                .or_insert_with(|| PostingEntry::new(slot));
        }
        self.num_queries += 1;
        self.query_bytes += query_bytes;
    }

    /// The posting list for a term, if any.
    #[inline]
    pub fn postings(&self, term: TermId) -> Option<&[SlotId]> {
        self.postings.get(&term).map(PostingEntry::slots)
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
    pub(crate) fn unpost(&mut self, term: TermId, slot: SlotId) {
        let Entry::Occupied(mut entry) = self.postings.entry(term) else {
            debug_assert!(
                false,
                "unpost of slot {slot:?} under unposted term {term:?}"
            );
            return;
        };
        entry.get_mut().retain(|s| s != slot);
        if entry.get().slots().is_empty() {
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
    pub fn for_each_term_stat<F: FnMut(CellTermStat)>(&self, mut f: F) {
        for (t, entry) in &self.postings {
            f(CellTermStat {
                term: *t,
                queries: entry.slots().len() as u64,
                object_hits: u64::from(entry.object_hits()),
            });
        }
    }

    /// Per-term statistics of the cell as a collection (tests and cold
    /// paths; hot consumers use [`CellIndex::for_each_term_stat`]).
    pub fn term_stats(&self) -> Vec<CellTermStat> {
        let mut out = Vec::with_capacity(self.postings.len());
        self.for_each_term_stat(|s| out.push(s));
        out
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
            *entry.hits_mut() = 0;
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
    pub fn distinct_queries_into(&self, out: &mut Vec<SlotId>) {
        for entry in self.postings.values() {
            out.extend_from_slice(entry.slots());
        }
        out.sort_unstable();
        out.dedup();
    }

    /// All distinct slots posted in this cell (sorted, deduplicated).
    pub fn all_queries(&self) -> Vec<SlotId> {
        let mut out = Vec::new();
        self.distinct_queries_into(&mut out);
        out
    }

    /// Returns true if no query is posted in this cell.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Clears the cell, returning the distinct slots it held.
    pub fn drain(&mut self) -> Vec<SlotId> {
        let out = self.all_queries();
        self.postings.clear();
        self.num_queries = 0;
        self.query_bytes = 0;
        out
    }

    /// Calls `f` with every posting term and its list (the index audit).
    #[cfg(test)]
    pub(crate) fn for_each_posting_list(&self, mut f: impl FnMut(TermId, &[SlotId])) {
        for (&t, entry) in &self.postings {
            f(t, entry.slots());
        }
    }

    /// Approximate memory footprint of the cell in bytes, every byte counted
    /// once: the struct, then per posting term its table bucket (key, entry
    /// and 16 bytes of hash-table overhead) plus whatever the entry spilled
    /// to the heap.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .postings
                .values()
                .map(|entry| {
                    std::mem::size_of::<TermId>()
                        + std::mem::size_of::<PostingEntry>()
                        + 16
                        + entry.spilled_bytes()
                })
                .sum::<usize>()
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

    #[test]
    fn post_and_lookup() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(5)], 100);
        c.post(s(2), &[t(5), t(7)], 200);
        assert_eq!(c.postings(t(5)).unwrap(), &[s(1), s(2)]);
        assert_eq!(c.postings(t(7)).unwrap(), &[s(2)]);
        assert!(c.postings(t(9)).is_none());
        assert_eq!(c.num_queries(), 2);
        assert_eq!(c.query_bytes(), 300);
    }

    #[test]
    fn post_with_no_terms_is_a_noop() {
        let mut c = CellIndex::new();
        c.post(s(1), &[], 100);
        assert!(c.is_empty());
        assert_eq!(c.num_queries(), 0);
    }

    #[test]
    fn unpost_keeps_order_and_drops_the_emptied_entry() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 10);
        c.post(s(3), &[t(1)], 10);
        c.unpost(t(1), s(2));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(1), s(3)]);
        // unposting everything drops the term entry
        c.unpost(t(1), s(1));
        c.unpost(t(1), s(3));
        assert!(c.postings(t(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn unpost_removes_one_slot() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1), t(2)], 10);
        c.post(s(2), &[t(1)], 10);
        c.unpost(t(1), s(1));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(2)]);
        c.unpost(t(2), s(1));
        assert!(c.postings(t(2)).is_none());
    }

    #[test]
    fn traverse_allows_compaction_and_hits_are_explicit() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 10);
        {
            let entry = c.traverse(t(1)).unwrap();
            assert_eq!(entry.slots(), &[s(1), s(2)]);
            entry.retain(|x| x != s(1));
            entry.note_object_hit();
        }
        assert_eq!(c.postings(t(1)).unwrap(), &[s(2)]);
        assert_eq!(c.term_stats()[0].object_hits, 1);
        c.unpost(t(1), s(2));
        assert!(c.postings(t(1)).is_none());
        let stats = c.term_stats();
        assert!(stats.is_empty(), "term entry removed with its postings");
        assert!(c.traverse(t(9)).is_none());
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
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1), t(2)], 10);
        c.post(s(2), &[t(2)], 10);
        assert_eq!(c.all_queries(), vec![s(1), s(2)]);
        // the _into variant recycles its buffer
        let mut buf = vec![s(9)];
        buf.clear();
        c.distinct_queries_into(&mut buf);
        assert_eq!(buf, vec![s(1), s(2)]);
    }

    #[test]
    fn drain_empties_the_cell() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(3)], 20);
        c.record_object();
        let drained = c.drain();
        assert_eq!(drained, vec![s(1), s(2)]);
        assert!(c.is_empty());
        assert_eq!(c.num_queries(), 0);
        assert_eq!(c.query_bytes(), 0);
    }

    #[test]
    fn note_removed_adjusts_counters() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 30);
        c.note_removed(10);
        assert_eq!(c.num_queries(), 1);
        assert_eq!(c.query_bytes(), 30);
        c.note_removed(30);
        assert_eq!(c.num_queries(), 0);
        assert_eq!(c.query_bytes(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "removing 10 bytes from a cell of 0 queries")]
    fn note_removed_fails_on_a_double_removal() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1)], 10);
        c.note_removed(10);
        c.note_removed(10);
    }

    #[test]
    fn term_stats_track_queries_and_object_hits() {
        let mut c = CellIndex::new();
        c.post(s(1), &[t(1)], 10);
        c.post(s(2), &[t(1)], 10);
        c.post(s(3), &[t(2)], 10);
        c.traverse(t(1)).unwrap().note_object_hit();
        c.traverse(t(1)).unwrap().note_object_hit();
        assert!(c.traverse(t(9)).is_none()); // no posting list -> nothing to hit
        let mut stats = c.term_stats();
        stats.sort_by_key(|s| s.term);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].term, t(1));
        assert_eq!(stats[0].queries, 2);
        assert_eq!(stats[0].object_hits, 2);
        assert_eq!(stats[1].queries, 1);
        assert_eq!(stats[1].object_hits, 0);
        c.reset_object_counter();
        assert!(c.term_stats().iter().all(|s| s.object_hits == 0));
    }

    #[test]
    fn memory_usage_grows_with_postings() {
        let mut c = CellIndex::new();
        let base = c.memory_usage();
        for i in 0..50 {
            c.post(s(i), &[t(i % 5)], 10);
        }
        assert!(c.memory_usage() > base);
    }

    #[test]
    fn entry_is_no_larger_than_the_vec_header_it_replaced() {
        assert_eq!(std::mem::size_of::<PostingEntry>(), 24);
        assert_eq!(std::mem::size_of::<Vec<SlotId>>(), 24);
    }

    #[test]
    fn list_spills_past_the_inline_capacity_and_moves_back() {
        let mut c = CellIndex::new();
        let n = INLINE_SLOTS as u32;
        for i in 0..n {
            c.post(s(i), &[t(1)], 10);
        }
        assert!(matches!(
            c.traverse(t(1)),
            Some(PostingEntry::Inline { .. })
        ));
        c.traverse(t(1)).unwrap().note_object_hit();
        c.post(s(n), &[t(1)], 10);
        c.post(s(n + 1), &[t(1)], 10);
        assert!(matches!(
            c.traverse(t(1)),
            Some(PostingEntry::Spilled { .. })
        ));
        let all: Vec<SlotId> = (0..n + 2).map(s).collect();
        assert_eq!(
            c.postings(t(1)).unwrap(),
            &all[..],
            "order survives the spill"
        );
        // still above the capacity: stays spilled
        c.unpost(t(1), s(0));
        assert!(matches!(
            c.traverse(t(1)),
            Some(PostingEntry::Spilled { .. })
        ));
        assert_eq!(c.postings(t(1)).unwrap(), &all[1..]);
        // back within it: stored in place again, order and hits intact
        c.unpost(t(1), s(2));
        assert!(matches!(
            c.traverse(t(1)),
            Some(PostingEntry::Inline { .. })
        ));
        assert_eq!(c.postings(t(1)).unwrap(), &[s(1), s(3), s(4), s(5)]);
        assert_eq!(c.term_stats()[0].object_hits, 1);
        assert_eq!(c.term_stats()[0].queries, 4);
        // unposting every slot of a spilled list drops the entry
        for i in 10..20 {
            c.post(s(i), &[t(2)], 10);
        }
        for i in 10..20 {
            c.unpost(t(2), s(i));
        }
        assert!(c.postings(t(2)).is_none());
    }

    #[test]
    fn memory_usage_counts_entry_and_spilled_slots_once() {
        let bucket = std::mem::size_of::<TermId>() + std::mem::size_of::<PostingEntry>() + 16;
        assert_eq!(bucket, 44);
        let mut c = CellIndex::new();
        let empty = std::mem::size_of::<CellIndex>();
        assert_eq!(c.memory_usage(), empty);
        // three terms whose lists stay in place: one bucket each, whatever
        // their length, and recording hits costs nothing
        c.post(s(1), &[t(1), t(2)], 10);
        c.post(s(2), &[t(2), t(3)], 10);
        for i in 3..3 + INLINE_SLOTS as u32 - 1 {
            c.post(s(i), &[t(3)], 10);
        }
        c.traverse(t(2)).unwrap().note_object_hit();
        assert_eq!(c.memory_usage(), empty + 3 * bucket);
        // one more slot spills t(3): a Vec header plus 4 bytes per slot
        c.post(s(9), &[t(3)], 10);
        let spilled = std::mem::size_of::<Vec<SlotId>>() + (INLINE_SLOTS + 1) * 4;
        assert_eq!(c.memory_usage(), empty + 3 * bucket + spilled);
        // shrinking it back returns the spilled bytes
        c.unpost(t(3), s(9));
        assert_eq!(c.memory_usage(), empty + 3 * bucket);
    }
}
