//! Reusable scratch state of the GI² matching kernel.
//!
//! Matching one object needs a candidate-deduplication set and a result
//! list. [`MatchScratch`] holds both as buffers that live across objects and
//! batches — the worker owns one and threads it
//! through [`crate::Gi2Index::match_batch`], making steady-state matching
//! allocation-free:
//!
//! * deduplication is an **epoch-stamped visit array** indexed by slot id —
//!   "seen this object" is `visited[slot] == epoch`, and clearing between
//!   objects is a single `epoch += 1`;
//! * the result buffer is recycled (`clear()` keeps capacity).

use crate::slab::SlotId;
use ps2stream_model::MatchResult;

/// Reusable per-worker scratch for the matching hot loop. One instance may
/// serve any number of [`crate::Gi2Index`]es (the visit array grows to the
/// largest slab it has seen).
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Current object's epoch; `visited[slot] == epoch` ⇔ candidate already
    /// checked for this object.
    epoch: u64,
    /// Last epoch each slot was visited in. Sized to the slab capacity on
    /// [`MatchScratch::begin_batch`]. A `u64` epoch never wraps in
    /// practice, so stale stamps can never alias a current epoch.
    visited: Vec<u64>,
    /// Match results of the current object (recycled).
    pub(crate) results: Vec<MatchResult>,
}

impl MatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the visit array for a slab of `slots` slots. Called once per
    /// batch (the slab cannot grow mid-batch, so the per-object work reduces
    /// to the epoch bump of [`MatchScratch::next_epoch`]).
    #[inline]
    pub(crate) fn begin_batch(&mut self, slots: usize) {
        if self.visited.len() < slots {
            self.visited.resize(slots, 0);
        }
    }

    /// Starts a new object's dedup scope: stale visit stamps stop matching
    /// the current epoch.
    #[inline]
    pub(crate) fn next_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Marks a slot as visited for the current object; returns `true` on the
    /// first visit.
    #[inline]
    pub(crate) fn first_visit(&mut self, slot: SlotId) -> bool {
        let stamp = &mut self.visited[slot.index()];
        if *stamp == self.epoch {
            false
        } else {
            *stamp = self.epoch;
            true
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.visited.capacity() * std::mem::size_of::<u64>()
            + self.results.capacity() * std::mem::size_of::<MatchResult>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_dedup_resets_between_objects() {
        let mut s = MatchScratch::new();
        s.begin_batch(4);
        s.next_epoch();
        assert!(s.first_visit(SlotId(2)));
        assert!(!s.first_visit(SlotId(2)));
        assert!(s.first_visit(SlotId(3)));
        s.next_epoch();
        assert!(s.first_visit(SlotId(2)), "a new epoch forgets old visits");
        // growing the slab grows the visit array
        s.begin_batch(16);
        s.next_epoch();
        assert!(s.first_visit(SlotId(15)));
        assert!(!s.first_visit(SlotId(15)));
    }
}
