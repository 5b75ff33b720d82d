//! The posting tables of the GI² structure: per-cell entries for hot
//! terms, and the cold postings that replace them for object-rare terms.
//!
//! GI² divides the space into uniform grid cells and, inside each cell,
//! organizes the STS queries overlapping the cell in an inverted index keyed
//! by the queries' least frequent keyword(s) (Section IV-D). The entries are
//! stored term-major, as the routing registry stores `H2`: per hot posting
//! term, one table from cell (its row-major index, a `u16`) to the
//! term's `PostingEntry` there (`HotPostings`). Only occupied (cell, term)
//! pairs cost anything here.
//!
//! Posting lists carry dense [`SlotId`]s into the owning index's query slab
//! (see [`crate::slab`]), so candidate verification during matching is an
//! array index — no per-candidate hash probe. Each (cell, term) pair owns one
//! 12-byte `PostingEntry`: the term's object-hit counter plus up to two
//! slots in place, so a table bucket is 16 bytes. Most lists hold one or two
//! slots (rare keywords are the common case); a longer list lives in the
//! index's one `PostingArena`, and the entry holds a marker and the
//! arena index. Every slot in a list is live: deleting a query unposts it
//! from each of its entries with one probe apiece (`HotPostings::unpost`)
//! before its slot is freed.
//!
//! # Cold postings
//!
//! A posting term that fewer than 1 in 1,000 objects of the shared term
//! table carry is **cold** (see `ColdPostings::is_cold`). A query is filed
//! under a cold term once per index, not once per cell: a `ColdPosting` holds
//! the block of cells its region overlaps and its slot, 8 bytes, in the
//! one-per-index `ColdPostings` (after FAST's frequency-aware split, which
//! keeps infrequent keywords in a plain inverted list). As with the per-cell
//! entries, a term's first posting sits in its table entry and a longer list
//! spills to an arena. Before a cold list is read, an 8-bit mask per term
//! says which coarse cells (an 8 × 8 grid over the cells, folded into 8
//! bits) its postings cover, so an object whose cell misses the mask skips
//! the table probe. The masks are one byte per term id, up to id 2²⁰; a
//! larger id keeps no mask and is always probed.
use crate::slab::SlotId;
use ps2stream_geo::{CellId, UniformGrid, MAX_GRID_EXP};
use ps2stream_text::{IdMap, TermId, TermStats};
use std::collections::hash_map::Entry;

/// Slots a posting entry holds in place before its list spills to the arena.
const INLINE_SLOTS: usize = 2;

/// Everything a (cell, term) pair keeps: how many recent objects of the
/// cell contained the term (feeds the Phase-I text-split decision of the
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
    fn push(&mut self, slot: SlotId, arena: &mut PostingArena<SlotId>) {
        match self.slots {
            [SlotId::SPILLED, SlotId(i)] => arena.lists[i as usize].push(slot),
            [_, SlotId::EMPTY] => self.slots[1] = slot,
            [a, b] => self.slots = [SlotId::SPILLED, SlotId(arena.spill(&[a, b, slot]))],
        }
    }

    /// The posted slots.
    #[inline]
    pub(crate) fn slots<'a>(&'a self, arena: &'a PostingArena<SlotId>) -> &'a [SlotId] {
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
    fn remove(&mut self, slot: SlotId, arena: &mut PostingArena<SlotId>) -> bool {
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

/// The posting lists too long to sit in their entry, one block each,
/// indexed by the `u32` their entry holds: per-cell lists of three or more
/// slots, and cold lists of two or more postings. A list that shrinks back
/// into its entry has its block freed and its index reused.
#[derive(Debug)]
pub(crate) struct PostingArena<T> {
    lists: Vec<Vec<T>>,
    /// Indices of released lists. Its capacity covers every index, so a
    /// delete never allocates.
    free: Vec<u32>,
}

impl<T> Default for PostingArena<T> {
    fn default() -> Self {
        Self {
            lists: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Clone> Clone for PostingArena<T> {
    fn clone(&self) -> Self {
        let mut free = Vec::with_capacity(self.lists.len());
        free.extend_from_slice(&self.free);
        Self {
            lists: self.lists.clone(),
            free,
        }
    }
}

impl<T: Copy> PostingArena<T> {
    /// Stores a new list: one block, at a released index when there is one.
    fn spill(&mut self, items: &[T]) -> u32 {
        let mut list = Vec::with_capacity(2 * INLINE_SLOTS);
        list.extend_from_slice(items);
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
    /// 4 bytes per released index and the items of every live list.
    pub(crate) fn memory_usage(&self) -> usize {
        self.lists.len() * std::mem::size_of::<Vec<T>>()
            + std::mem::size_of_val::<[u32]>(&self.free)
            + self
                .lists
                .iter()
                .map(|list| std::mem::size_of_val::<[T]>(list))
                .sum::<usize>()
    }

    /// Panics unless every live list is referenced by exactly one entry
    /// (`referenced` holds the index of every spilled entry) and holds at
    /// least `min_len` items, and every released list is empty and listed
    /// once.
    #[cfg(test)]
    pub(crate) fn audit(&self, referenced: &[u32], min_len: usize) {
        let mut references = vec![0usize; self.lists.len()];
        for &i in referenced {
            references[i as usize] += 1;
        }
        let mut released = vec![false; self.lists.len()];
        for &i in &self.free {
            let i = i as usize;
            assert!(!released[i], "list {i} released twice");
            released[i] = true;
            assert!(self.lists[i].is_empty(), "released list {i} holds items");
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
                assert!(list.len() >= min_len, "list {i} holds {} items", list.len());
            }
        }
        assert!(
            self.free.capacity() >= self.lists.len(),
            "a delete could allocate"
        );
    }
}

/// A cell of the index's grid, as its row-major index.
pub(crate) type CellKey = u16;
const _: () = assert!(2 * MAX_GRID_EXP <= CellKey::BITS);

/// One hot posting term's entries: cell → entry.
type CellEntries = IdMap<CellKey, PostingEntry>;

/// The per-cell postings of an index's hot terms, term-major as `H2` is: per
/// posting term, one table from cell to entry, and the arena of the lists
/// too long for their entry. A term's emptied table stays, with its room.
#[derive(Debug, Clone, Default)]
pub(crate) struct HotPostings {
    terms: IdMap<TermId, CellEntries>,
    arena: PostingArena<SlotId>,
}

/// Per-term statistics of one cell, consumed by the dynamic load adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTermStat {
    /// The posting term.
    pub term: TermId,
    /// Number of queries posted under the term in this cell, cold-filed
    /// ones included.
    pub queries: u64,
    /// Number of recent objects in this cell containing the term. A cold
    /// term's cold-filed queries have no per-cell hit counter, so only its
    /// per-cell entry (queries re-filed by a migration) counts hits: the
    /// term is carried by fewer than 1 in 1,000 objects anyway.
    pub object_hits: u64,
}

impl HotPostings {
    /// Appends `slot` to the list of `term` in each of the `len` `cells`; a
    /// term whose table is empty gets room for all of them at once.
    pub(crate) fn post(
        &mut self,
        term: TermId,
        slot: SlotId,
        cells: impl Iterator<Item = CellKey>,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        let table = self.terms.entry(term).or_default();
        if table.is_empty() {
            table.reserve(len);
        }
        for cell in cells {
            table
                .entry(cell)
                .and_modify(|e| e.push(slot, &mut self.arena))
                .or_insert_with(|| PostingEntry::new(slot));
        }
    }

    /// Removes `slot` from the list of `term` in each of `cells`, one probe
    /// per cell, dropping the entries whose lists empty. Allocation-free: a
    /// spilled list that shrinks back into its entry frees its block.
    pub(crate) fn unpost(
        &mut self,
        term: TermId,
        slot: SlotId,
        cells: impl Iterator<Item = CellKey>,
    ) {
        let mut table = self.terms.get_mut(&term);
        for cell in cells {
            let Some(Entry::Occupied(mut entry)) = table.as_mut().map(|t| t.entry(cell)) else {
                debug_assert!(
                    false,
                    "unpost of {slot:?} under unposted {term:?} in {cell}"
                );
                continue;
            };
            if entry.get_mut().remove(slot, &mut self.arena) {
                entry.remove();
            }
        }
    }

    /// The entry of `term` in `cell` and the arena: the matching loop's read
    /// per object term, for both [`PostingEntry::slots`] and
    /// [`PostingEntry::note_object_hit`].
    #[inline]
    pub(crate) fn traverse(
        &mut self,
        term: TermId,
        cell: CellKey,
    ) -> Option<(&mut PostingEntry, &PostingArena<SlotId>)> {
        let entry = self.terms.get_mut(&term)?.get_mut(&cell)?;
        Some((entry, &self.arena))
    }

    /// Calls `f` with every entry's cell and statistics.
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(CellKey, CellTermStat)) {
        for (&term, table) in &self.terms {
            for (&cell, entry) in table {
                f(
                    cell,
                    CellTermStat {
                        term,
                        queries: entry.slots(&self.arena).len() as u64,
                        object_hits: u64::from(entry.hits),
                    },
                );
            }
        }
    }

    /// Zeroes every entry's object hits (start of a load-measurement period).
    pub(crate) fn reset_hits(&mut self) {
        for entry in self.terms.values_mut().flat_map(|t| t.values_mut()) {
            entry.hits = 0;
        }
    }

    /// Appends the slots posted in `cell` to `out`, then sorts and
    /// deduplicates it (the caller recycles the buffer).
    pub(crate) fn slots_in(&self, cell: CellKey, out: &mut Vec<SlotId>) {
        for table in self.terms.values() {
            if let Some(entry) = table.get(&cell) {
                out.extend_from_slice(entry.slots(&self.arena));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The posting list of `term` in `cell`, if any (tests and the index
    /// audit).
    #[cfg(test)]
    pub(crate) fn postings(&self, term: TermId, cell: CellKey) -> Option<&[SlotId]> {
        let entry = self.terms.get(&term)?.get(&cell)?;
        Some(entry.slots(&self.arena))
    }

    /// Calls `f` with every entry's term, cell, list and, when the list is
    /// spilled, its arena index, then audits the arena against those
    /// indices (the index audit).
    #[cfg(test)]
    pub(crate) fn audit(&self, mut f: impl FnMut(TermId, CellKey, &[SlotId])) {
        let mut spilled = Vec::new();
        for (&term, table) in &self.terms {
            for (&cell, entry) in table {
                f(term, cell, entry.slots(&self.arena));
                spilled.extend(entry.spilled());
            }
        }
        self.arena.audit(&spilled, INLINE_SLOTS + 1);
    }

    /// Approximate memory footprint in bytes: per term with entries its
    /// bucket, per entry its bucket, each with 16 bytes of hash-table
    /// overhead, and the spilled lists. An emptied table counts nothing.
    pub(crate) fn memory_usage(&self) -> usize {
        let outer = std::mem::size_of::<(TermId, CellEntries)>() + 16;
        let inner = std::mem::size_of::<(CellKey, PostingEntry)>() + 16;
        self.terms
            .values()
            .filter(|t| !t.is_empty())
            .map(|t| outer + t.len() * inner)
            .sum::<usize>()
            + self.arena.memory_usage()
    }
}

/// A posting term is cold when fewer than one in `COLD_RATIO` objects of the
/// shared term table carry it.
const COLD_RATIO: u64 = 1_000;

/// Cold terms with ids below this keep a mask byte (at most 1 MiB of masks
/// per index); a term past it has none and is always probed.
const MASKED_TERMS: usize = 1 << 20;

/// An inclusive block of grid cells, packed into 4 bytes: lowest column,
/// lowest row, highest column, highest row, a byte each. In a spilled cold
/// entry the word is instead the arena index of the term's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellBlock(u32);

const _: () = assert!(MAX_GRID_EXP <= u8::BITS);

impl CellBlock {
    /// The block from `lo` to `hi`, both included.
    pub(crate) fn new(lo: CellId, hi: CellId) -> Self {
        debug_assert!(lo.col.max(lo.row).max(hi.col).max(hi.row) <= u32::from(u8::MAX));
        Self(lo.col | lo.row << 8 | hi.col << 16 | hi.row << 24)
    }

    /// The lowest and highest cell.
    #[inline]
    fn corners(self) -> (CellId, CellId) {
        let b = self.0.to_le_bytes();
        let c = |col: u8, row: u8| CellId::new(u32::from(col), u32::from(row));
        (c(b[0], b[1]), c(b[2], b[3]))
    }

    /// Returns true if `cell` lies in the block.
    #[inline]
    pub(crate) fn contains(self, cell: CellId) -> bool {
        let (lo, hi) = self.corners();
        (lo.col..=hi.col).contains(&cell.col) && (lo.row..=hi.row).contains(&cell.row)
    }

    /// The number of cells in the block.
    pub(crate) fn num_cells(self) -> usize {
        let (lo, hi) = self.corners();
        ((hi.col - lo.col + 1) * (hi.row - lo.row + 1)) as usize
    }

    /// The cells of the block, in row-major order.
    pub(crate) fn cells(self) -> impl Iterator<Item = CellId> {
        let (lo, hi) = self.corners();
        (lo.row..=hi.row)
            .flat_map(move |row| (lo.col..=hi.col).map(move |col| CellId::new(col, row)))
    }
}

/// A query filed under a cold term: the block of cells its region overlaps
/// and its slot. In a term's table entry, a `SlotId::SPILLED` slot marks a
/// list that lives in the arena, at the index the block word holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColdPosting {
    pub(crate) block: CellBlock,
    pub(crate) slot: SlotId,
}

impl ColdPosting {
    /// The postings of the term whose table entry this is.
    #[inline]
    fn list<'a>(&'a self, arena: &'a PostingArena<ColdPosting>) -> &'a [ColdPosting] {
        if self.slot == SlotId::SPILLED {
            &arena.lists[self.block.0 as usize]
        } else {
            std::slice::from_ref(self)
        }
    }
}

/// The cold postings of one index (see the module docs): per cold term, its
/// queries in filing order, each with its block of cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColdPostings {
    terms: IdMap<TermId, ColdPosting>,
    /// The lists of two or more postings.
    arena: PostingArena<ColdPosting>,
    /// `masks[t]`: the coarse cells the postings of term `t` cover, folded
    /// into 8 bits (0 for a term with none; a term past the end and below
    /// `MASKED_TERMS` has none).
    masks: Vec<u8>,
    /// A cell's coarse cell is its column and row shifted right by this,
    /// which leaves an 8 × 8 coarse grid.
    shift: u32,
}

impl ColdPostings {
    /// An empty store for an index over `grid`.
    pub(crate) fn new(grid: &UniformGrid) -> Self {
        let side = grid.nx().max(grid.ny());
        Self {
            shift: side.next_power_of_two().trailing_zeros().saturating_sub(3),
            ..Self::default()
        }
    }

    /// Whether `term` is cold under the frozen term table `stats`: carried
    /// by fewer than 1 in 1,000 of its objects. Over an empty table (no
    /// objects) nothing is cold.
    #[inline]
    pub(crate) fn is_cold(&self, stats: &TermStats, term: TermId) -> bool {
        stats.frequency(term).saturating_mul(COLD_RATIO) < stats.num_docs()
    }

    /// The mask bit of coarse cell (`col`, `row`). Folding column plus
    /// three times row gives neighbouring coarse cells different bits.
    #[inline]
    fn coarse_bit(col: u32, row: u32) -> u8 {
        1 << ((col + 3 * row) & 7)
    }

    /// The mask bits of every coarse cell `block` touches, for coarse cells
    /// of cells shifted right by `shift`.
    fn block_mask(shift: u32, block: CellBlock) -> u8 {
        let (lo, hi) = block.corners();
        let mut mask = 0;
        for row in (lo.row >> shift)..=(hi.row >> shift) {
            for col in (lo.col >> shift)..=(hi.col >> shift) {
                mask |= Self::coarse_bit(col, row);
            }
        }
        mask
    }

    /// Appends a posting to `term`'s list; a second posting spills the list
    /// to the arena.
    pub(crate) fn file(&mut self, term: TermId, posting: ColdPosting) {
        let i = term.index();
        if i < MASKED_TERMS {
            if i >= self.masks.len() {
                self.masks.resize(i + 1, 0);
            }
            self.masks[i] |= Self::block_mask(self.shift, posting.block);
        }
        match self.terms.entry(term) {
            Entry::Vacant(entry) => {
                entry.insert(posting);
            }
            Entry::Occupied(mut entry) => {
                let first = entry.get_mut();
                if first.slot == SlotId::SPILLED {
                    self.arena.lists[first.block.0 as usize].push(posting);
                } else {
                    let list = self.arena.spill(&[*first, posting]);
                    *first = ColdPosting {
                        block: CellBlock(list),
                        slot: SlotId::SPILLED,
                    };
                }
            }
        }
    }

    /// Removes `slot` from `term`'s list, preserving the order of the rest,
    /// and recomputes the term's mask. A list of one moves back into its
    /// entry; an emptied one drops the entry. Allocation-free.
    pub(crate) fn unfile(&mut self, term: TermId, slot: SlotId) {
        let Entry::Occupied(mut entry) = self.terms.entry(term) else {
            debug_assert!(false, "unfile of {slot:?} under unfiled {term:?}");
            return;
        };
        let first = *entry.get();
        let mut mask = 0;
        if first.slot == SlotId::SPILLED {
            let list = &mut self.arena.lists[first.block.0 as usize];
            list.retain(|p| p.slot != slot);
            let list = &self.arena.lists[first.block.0 as usize];
            for p in list {
                mask |= Self::block_mask(self.shift, p.block);
            }
            if let [only] = list[..] {
                *entry.get_mut() = only;
                self.arena.release(first.block.0);
            }
        } else {
            debug_assert_eq!(first.slot, slot, "unfile of unfiled {slot:?}");
            entry.remove();
        }
        if let Some(m) = self.masks.get_mut(term.index()) {
            *m = mask;
        }
    }

    /// The mask bit of `cell`'s coarse cell, for [`ColdPostings::may_cover`].
    #[inline]
    pub(crate) fn cell_bit(&self, cell: CellId) -> u8 {
        Self::coarse_bit(cell.col >> self.shift, cell.row >> self.shift)
    }

    /// Returns false when no posting of `term` covers the coarse cell whose
    /// [`ColdPostings::cell_bit`] is `bit` — the matching loop's cheap test
    /// before [`ColdPostings::postings`].
    #[inline]
    pub(crate) fn may_cover(&self, term: TermId, bit: u8) -> bool {
        match self.masks.get(term.index()) {
            Some(&mask) => mask & bit != 0,
            None => term.index() >= MASKED_TERMS,
        }
    }

    /// The postings of `term`, in filing order.
    #[inline]
    pub(crate) fn postings(&self, term: TermId) -> &[ColdPosting] {
        self.terms
            .get(&term)
            .map_or(&[], |first| first.list(&self.arena))
    }

    /// Calls `f` with every posting and its term.
    pub(crate) fn for_each_posting(&self, mut f: impl FnMut(TermId, ColdPosting)) {
        for (&term, first) in &self.terms {
            for &p in first.list(&self.arena) {
                f(term, p);
            }
        }
    }

    /// Approximate memory footprint in bytes, counted as the hot postings
    /// count theirs: per cold term its table bucket (key, entry and 16 bytes of
    /// overhead) and its mask byte, plus the spilled lists.
    pub(crate) fn memory_usage(&self) -> usize {
        self.terms.len() * (std::mem::size_of::<(TermId, ColdPosting)>() + 16)
            + self.masks.len()
            + self.arena.memory_usage()
    }

    /// Panics unless every list is non-empty, every mask equals the OR of
    /// its term's postings' coarse cells (and a term without postings has
    /// mask 0), and the arena holds exactly the spilled lists, each of two
    /// or more postings.
    #[cfg(test)]
    pub(crate) fn audit(&self) {
        let mut spilled = Vec::new();
        for (&term, first) in &self.terms {
            let list = first.list(&self.arena);
            assert!(!list.is_empty(), "empty cold list under {term:?}");
            let mask = list
                .iter()
                .fold(0, |m, p| m | Self::block_mask(self.shift, p.block));
            if term.index() < MASKED_TERMS {
                assert_eq!(self.masks[term.index()], mask, "mask of {term:?}");
            }
            if first.slot == SlotId::SPILLED {
                spilled.push(first.block.0);
            }
        }
        for (i, &mask) in self.masks.iter().enumerate() {
            let filed = self.terms.contains_key(&TermId(i as u32));
            assert!(filed || mask == 0, "mask {mask:#x} of unfiled term {i}");
        }
        self.arena.audit(&spilled, 2);
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

    /// The cell most tests post in.
    const C: CellKey = 7;

    impl HotPostings {
        /// Posts `slot` under each of `terms` in cell `C`.
        fn post_here(&mut self, slot: SlotId, terms: &[TermId]) {
            for &term in terms {
                self.post(term, slot, std::iter::once(C), 1);
            }
        }
        fn unpost_here(&mut self, term: TermId, slot: SlotId) {
            self.unpost(term, slot, std::iter::once(C));
        }
        fn here(&self, term: TermId) -> Option<&[SlotId]> {
            self.postings(term, C)
        }
        fn spilled_here(&mut self, term: TermId) -> Option<u32> {
            self.traverse(term, C).and_then(|(e, _)| e.spilled())
        }
        fn hit_here(&mut self, term: TermId) {
            self.traverse(term, C).unwrap().0.note_object_hit();
        }
        /// Every entry's statistics in cell `C`, by term.
        fn term_stats(&self) -> Vec<CellTermStat> {
            let mut out = Vec::new();
            self.for_each_entry(|cell, s| {
                if cell == C {
                    out.push(s);
                }
            });
            out.sort_by_key(|s| s.term);
            out
        }
    }

    #[test]
    fn post_and_lookup() {
        let mut h = HotPostings::default();
        h.post_here(s(1), &[t(5)]);
        h.post_here(s(2), &[t(5), t(7)]);
        assert_eq!(h.here(t(5)).unwrap(), &[s(1), s(2)]);
        assert_eq!(h.here(t(7)).unwrap(), &[s(2)]);
        assert!(h.here(t(9)).is_none());
        // a term's table keeps its cells apart
        h.post(t(5), s(3), [C + 1, C + 2].into_iter(), 2);
        assert_eq!(h.here(t(5)).unwrap(), &[s(1), s(2)]);
        assert_eq!(h.postings(t(5), C + 2).unwrap(), &[s(3)]);
        assert!(h.postings(t(7), C + 2).is_none());
    }

    #[test]
    fn post_with_no_terms_is_a_noop() {
        let mut h = HotPostings::default();
        h.post_here(s(1), &[]);
        // nor does posting in no cell make the term a table
        h.post(t(1), s(1), std::iter::empty(), 0);
        h.unpost(t(1), s(1), std::iter::empty());
        assert!(h.terms.is_empty());
        assert_eq!(h.memory_usage(), 0);
    }

    #[test]
    fn unpost_keeps_order_and_drops_the_emptied_entry() {
        let mut h = HotPostings::default();
        for i in 1..=3 {
            h.post_here(s(i), &[t(1)]);
        }
        h.unpost_here(t(1), s(2));
        assert_eq!(h.here(t(1)).unwrap(), &[s(1), s(3)]);
        // unposting everything drops the entry; the term's table stays, and
        // costs nothing until it holds an entry again
        h.unpost_here(t(1), s(1));
        assert_eq!(h.here(t(1)).unwrap(), &[s(3)]);
        h.unpost_here(t(1), s(3));
        assert!(h.here(t(1)).is_none());
        assert!(h.terms[&t(1)].is_empty());
        assert_eq!(h.memory_usage(), h.arena.memory_usage());
    }

    #[test]
    fn unpost_removes_one_slot() {
        let mut h = HotPostings::default();
        h.post_here(s(1), &[t(1), t(2)]);
        h.post_here(s(2), &[t(1)]);
        h.unpost_here(t(1), s(1));
        assert_eq!(h.here(t(1)).unwrap(), &[s(2)]);
        h.unpost_here(t(2), s(1));
        assert!(h.here(t(2)).is_none());
        // the second of two slots goes just as well
        h.post_here(s(3), &[t(1)]);
        h.unpost_here(t(1), s(3));
        assert_eq!(h.here(t(1)).unwrap(), &[s(2)]);
    }

    #[test]
    fn traverse_allows_compaction_and_hits_are_explicit() {
        let mut h = HotPostings::default();
        h.post_here(s(1), &[t(1)]);
        h.post_here(s(2), &[t(1)]);
        {
            let (entry, arena) = h.traverse(t(1), C).unwrap();
            assert_eq!(entry.slots(arena), &[s(1), s(2)]);
            entry.note_object_hit();
        }
        // a removal keeps the entry's hits
        h.unpost_here(t(1), s(1));
        assert_eq!(h.here(t(1)).unwrap(), &[s(2)]);
        assert_eq!(h.term_stats()[0].object_hits, 1);
        h.unpost_here(t(1), s(2));
        assert!(h.here(t(1)).is_none());
        assert!(
            h.term_stats().is_empty(),
            "term entry removed with its postings"
        );
        assert!(h.traverse(t(1), C).is_none());
        assert!(h.traverse(t(9), C).is_none());
    }

    #[test]
    fn all_queries_dedups_multi_term_postings() {
        let mut h = HotPostings::default();
        h.post_here(s(2), &[t(1), t(2)]);
        h.post_here(s(1), &[t(2)]);
        for i in 3..6 {
            h.post_here(s(i), &[t(1)]); // t(1) spills
        }
        // another cell's postings are not the cell's
        h.post(t(1), s(9), std::iter::once(C + 1), 1);
        // the buffer is recycled: it is appended to, then sorted and deduped
        let mut buf = vec![s(9)];
        buf.clear();
        h.slots_in(C, &mut buf);
        assert_eq!(buf, (1..6).map(s).collect::<Vec<_>>());
    }

    #[test]
    fn term_stats_track_queries_and_object_hits() {
        let mut h = HotPostings::default();
        h.post_here(s(1), &[t(1)]);
        h.post_here(s(2), &[t(1)]);
        h.post_here(s(3), &[t(2)]);
        h.post_here(s(4), &[t(3)]);
        h.post_here(s(5), &[t(3)]);
        h.post_here(s(6), &[t(3)]);
        h.hit_here(t(1));
        h.hit_here(t(1));
        h.hit_here(t(3));
        assert!(h.traverse(t(9), C).is_none()); // no posting list -> nothing to hit
        let stats = h.term_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].term, t(1));
        assert_eq!(stats[0].queries, 2);
        assert_eq!(stats[0].object_hits, 2);
        assert_eq!(stats[1].queries, 1);
        assert_eq!(stats[1].object_hits, 0);
        // a spilled list counts its arena slots
        assert_eq!(stats[2].queries, 3);
        assert_eq!(stats[2].object_hits, 1);
        h.reset_hits();
        assert!(h.term_stats().iter().all(|s| s.object_hits == 0));
    }

    #[test]
    fn memory_usage_grows_with_postings() {
        let mut h = HotPostings::default();
        let base = h.memory_usage();
        for i in 0..50 {
            h.post_here(s(i), &[t(i % 5)]);
        }
        assert!(h.memory_usage() > base);
    }

    #[test]
    fn table_bucket_is_16_bytes() {
        assert_eq!(std::mem::size_of::<PostingEntry>(), 12);
        assert_eq!(std::mem::size_of::<(CellKey, PostingEntry)>(), 16);
    }

    #[test]
    fn list_spills_past_the_inline_capacity_and_moves_back() {
        let mut h = HotPostings::default();
        let n = INLINE_SLOTS as u32;
        for i in 0..n {
            h.post_here(s(i), &[t(1)]);
        }
        assert!(h.spilled_here(t(1)).is_none());
        h.hit_here(t(1));
        h.post_here(s(n), &[t(1)]);
        h.post_here(s(n + 1), &[t(1)]);
        assert!(h.spilled_here(t(1)).is_some());
        let all: Vec<SlotId> = (0..n + 2).map(s).collect();
        assert_eq!(h.here(t(1)).unwrap(), &all[..], "order survives the spill");
        // still above the capacity: stays spilled
        h.unpost_here(t(1), s(0));
        assert!(h.spilled_here(t(1)).is_some());
        assert_eq!(h.here(t(1)).unwrap(), &all[1..]);
        // back within it: stored in place again, order and hits intact
        h.unpost_here(t(1), s(2));
        assert!(h.spilled_here(t(1)).is_none());
        assert_eq!(h.here(t(1)).unwrap(), &[s(1), s(3)]);
        assert_eq!(h.term_stats()[0].object_hits, 1);
        assert_eq!(h.term_stats()[0].queries, 2);
        // unposting every slot of a spilled list drops the entry, and the
        // next list to spill reuses the released arena index
        for i in 10..20 {
            h.post_here(s(i), &[t(2)]);
        }
        assert_eq!(h.spilled_here(t(2)), Some(0));
        for i in 10..20 {
            h.unpost_here(t(2), s(i));
        }
        assert!(h.here(t(2)).is_none());
        h.audit(|_, _, list| assert!(!list.is_empty()));
    }

    #[test]
    fn memory_usage_counts_entry_and_spilled_slots_once() {
        let outer = std::mem::size_of::<(TermId, CellEntries)>() + 16;
        assert_eq!(outer, 40 + 16, "the table of a term: a 40-byte bucket");
        let bucket = std::mem::size_of::<(CellKey, PostingEntry)>() + 16;
        assert_eq!(bucket, 32);
        let mut h = HotPostings::default();
        assert_eq!(h.memory_usage(), 0);
        // three terms whose lists stay in place: one table and one bucket
        // each, whatever their length, and recording hits costs nothing
        h.post_here(s(1), &[t(1), t(2)]);
        h.post_here(s(2), &[t(2), t(3)]);
        for i in 3..3 + INLINE_SLOTS as u32 - 1 {
            h.post_here(s(i), &[t(3)]);
        }
        h.hit_here(t(2));
        let three = 3 * (outer + bucket);
        assert_eq!(h.memory_usage(), three);
        // a term's second cell adds one bucket, not another table
        h.post(t(1), s(1), std::iter::once(C + 1), 1);
        assert_eq!(h.memory_usage(), three + bucket);
        h.unpost(t(1), s(1), std::iter::once(C + 1));
        // one more slot spills t(3): an arena `Vec` header plus 4 bytes per slot
        h.post_here(s(9), &[t(3)]);
        let header = std::mem::size_of::<Vec<SlotId>>();
        let spilled = header + (INLINE_SLOTS + 1) * 4;
        assert_eq!(h.memory_usage(), three + spilled);
        // shrinking it back returns the slots; the arena keeps the header
        // and 4 bytes for the released index, reused by the next spill
        h.unpost_here(t(3), s(9));
        assert_eq!(h.memory_usage(), three + header + 4);
        h.post_here(s(9), &[t(3)]);
        assert_eq!(h.memory_usage(), three + spilled);
    }

    impl ColdPostings {
        fn may_cover_cell(&self, term: TermId, cell: CellId) -> bool {
            self.may_cover(term, self.cell_bit(cell))
        }
    }

    fn grid64() -> UniformGrid {
        let bounds = ps2stream_geo::Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        UniformGrid::with_power_of_two(bounds, 6)
    }

    fn block(lo: (u32, u32), hi: (u32, u32)) -> CellBlock {
        CellBlock::new(CellId::new(lo.0, lo.1), CellId::new(hi.0, hi.1))
    }

    fn cold(block: CellBlock, slot: u32) -> ColdPosting {
        ColdPosting {
            block,
            slot: s(slot),
        }
    }

    #[test]
    fn a_cell_block_holds_exactly_its_cells() {
        let b = block((2, 3), (4, 3));
        let cells: Vec<CellId> = b.cells().collect();
        assert_eq!(cells, [2, 3, 4].map(|col| CellId::new(col, 3)));
        assert!(cells.iter().all(|&c| b.contains(c)));
        for outside in [(1, 3), (5, 3), (3, 2), (3, 4)] {
            assert!(!b.contains(CellId::new(outside.0, outside.1)));
        }
        let corner = block((255, 255), (255, 255));
        assert!(corner.contains(CellId::new(255, 255)));
        assert!(!corner.contains(CellId::new(254, 255)));
    }

    #[test]
    fn a_term_is_cold_below_one_in_a_thousand_objects() {
        let grid = grid64();
        let store = ColdPostings::new(&grid);
        let mut stats = TermStats::new();
        assert!(
            !store.is_cold(&stats, t(1)),
            "nothing is cold over an empty table"
        );
        // 2,000 objects: t(1) in one, t(4) in two, t(2) in the rest
        stats.observe(&[t(1)]);
        stats.observe(&[t(4)]);
        stats.observe(&[t(4)]);
        for _ in 0..1_997 {
            stats.observe(&[t(2)]);
        }
        assert!(store.is_cold(&stats, t(1)));
        assert!(store.is_cold(&stats, t(3)), "an unseen term is cold");
        assert!(
            !store.is_cold(&stats, t(4)),
            "one in a thousand is not below it"
        );
        assert!(!store.is_cold(&stats, t(2)));
    }

    #[test]
    fn a_cold_list_keeps_filing_order_and_moves_back_in_place() {
        let mut store = ColdPostings::new(&grid64());
        let (a, b, c) = (
            cold(block((0, 0), (1, 1)), 1),
            cold(block((8, 8), (9, 9)), 2),
            cold(block((0, 0), (0, 0)), 3),
        );
        store.file(t(7), a);
        assert_eq!(store.postings(t(7)), [a]);
        store.file(t(7), b);
        store.file(t(7), c);
        assert_eq!(store.postings(t(7)), [a, b, c]);
        store.audit();
        store.unfile(t(7), s(2));
        assert_eq!(store.postings(t(7)), [a, c]);
        store.unfile(t(7), s(1));
        assert_eq!(store.postings(t(7)), [c]);
        store.audit();
        store.unfile(t(7), s(3));
        assert!(store.postings(t(7)).is_empty());
        store.audit();
        // the next list to spill reuses the released arena index
        store.file(t(8), a);
        store.file(t(8), b);
        assert_eq!(store.terms[&t(8)].block.0, 0);
        store.audit();
    }

    #[test]
    fn a_cold_mask_follows_its_postings_coarse_cells() {
        // 64 × 64 cells: coarse cells of 8 × 8
        let mut store = ColdPostings::new(&grid64());
        store.file(t(1), cold(block((0, 0), (1, 1)), 1));
        assert!(
            store.may_cover_cell(t(1), CellId::new(7, 7)),
            "same coarse cell"
        );
        assert!(
            !store.may_cover_cell(t(1), CellId::new(8, 0)),
            "next coarse column"
        );
        assert!(
            !store.may_cover_cell(t(1), CellId::new(0, 8)),
            "next coarse row"
        );
        assert!(
            !store.may_cover_cell(t(2), CellId::new(0, 0)),
            "a term with no posting"
        );
        assert!(
            !store.may_cover_cell(t(1_000), CellId::new(0, 0)),
            "a term past the masks"
        );
        // a term id past the masked range keeps no mask byte, and is probed
        let far = t(MASKED_TERMS as u32);
        assert!(store.may_cover_cell(far, CellId::new(0, 0)));
        store.file(far, cold(block((0, 0), (0, 0)), 9));
        assert!(store.masks.len() < MASKED_TERMS);
        assert_eq!(store.postings(far).len(), 1);
        store.audit();
        store.unfile(far, s(9));
        assert!(store.postings(far).is_empty());
        store.file(t(1), cold(block((8, 0), (8, 0)), 2));
        assert!(store.may_cover_cell(t(1), CellId::new(8, 0)));
        store.unfile(t(1), s(2));
        assert!(
            !store.may_cover_cell(t(1), CellId::new(8, 0)),
            "unfiling clears the bit"
        );
        assert!(store.may_cover_cell(t(1), CellId::new(0, 0)));
        store.audit();
        // a block nine coarse cells wide touches every bit
        store.file(t(3), cold(block((0, 5), (63, 5)), 3));
        assert_eq!(store.masks[3], u8::MAX);
    }

    #[test]
    fn a_cold_posting_costs_less_than_one_cell_entry() {
        let bucket = std::mem::size_of::<(TermId, ColdPosting)>() + 16;
        assert_eq!(std::mem::size_of::<ColdPosting>(), 8);
        assert!(bucket < std::mem::size_of::<(CellKey, PostingEntry)>() + 16);
        let mut store = ColdPostings::new(&grid64());
        assert_eq!(store.memory_usage(), 0);
        // one posting sits in its bucket; the masks cover terms 0 ..= 3
        let a = cold(block((0, 0), (5, 5)), 1);
        store.file(t(3), a);
        assert_eq!(store.memory_usage(), bucket + 4);
        // a second one spills: a `Vec` header plus 8 bytes per posting
        store.file(t(3), cold(block((0, 0), (0, 0)), 2));
        let header = std::mem::size_of::<Vec<ColdPosting>>();
        assert_eq!(store.memory_usage(), bucket + 4 + header + 2 * 8);
        // moving back in place returns the postings; the arena keeps the
        // header and the released index
        store.unfile(t(3), s(2));
        assert_eq!(store.memory_usage(), bucket + 4 + header + 4);
    }
}
