//! Interned term vocabulary.
//!
//! Every keyword appearing in objects or STS queries is interned into a
//! compact [`TermId`], so that the routing tables, inverted indexes and text
//! partitioners operate on integers instead of strings.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an interned term. Dense, starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for TermId {
    fn from(v: u32) -> Self {
        TermId(v)
    }
}

#[derive(Debug, Default)]
struct VocabInner {
    term_to_id: HashMap<String, TermId>,
    id_to_term: Vec<String>,
}

/// A thread-safe, append-only term vocabulary.
///
/// The vocabulary is shared between the workload generators, the dispatchers
/// and the workers; interning is concurrent behind an `RwLock` (reads, the
/// common case after warm-up, take the shared lock).
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    inner: Arc<RwLock<VocabInner>>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its id. Terms are case-sensitive; callers
    /// should normalize (e.g. lowercase) before interning.
    pub fn intern(&self, term: &str) -> TermId {
        if let Some(id) = self.inner.read().term_to_id.get(term) {
            return *id;
        }
        let mut inner = self.inner.write();
        if let Some(id) = inner.term_to_id.get(term) {
            return *id;
        }
        let id = TermId(inner.id_to_term.len() as u32);
        inner.id_to_term.push(term.to_owned());
        inner.term_to_id.insert(term.to_owned(), id);
        id
    }

    /// Looks up a term without interning it.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.inner.read().term_to_id.get(term).copied()
    }

    /// Returns the string for an id, if it exists.
    pub fn term(&self, id: TermId) -> Option<String> {
        self.inner.read().id_to_term.get(id.index()).cloned()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().id_to_term.len()
    }

    /// Returns true if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns every token of an iterator, returning the ids in order.
    pub fn intern_all<'a, I: IntoIterator<Item = &'a str>>(&self, terms: I) -> Vec<TermId> {
        terms.into_iter().map(|t| self.intern(t)).collect()
    }

    /// Approximate memory footprint in bytes (strings + hash map overhead).
    pub fn memory_usage(&self) -> usize {
        let inner = self.inner.read();
        let strings: usize = inner.id_to_term.iter().map(|s| s.len() * 2).sum();
        strings
            + inner.id_to_term.len() * std::mem::size_of::<String>() * 2
            + inner.term_to_id.len()
                * (std::mem::size_of::<TermId>() + std::mem::size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let v = Vocabulary::new();
        let a = v.intern("kobe");
        let b = v.intern("kobe");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let v = Vocabulary::new();
        let a = v.intern("kobe");
        let b = v.intern("lebron");
        assert_ne!(a, b);
        assert_eq!(v.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn get_and_term_roundtrip() {
        let v = Vocabulary::new();
        let id = v.intern("retired");
        assert_eq!(v.get("retired"), Some(id));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.term(id).as_deref(), Some("retired"));
        assert_eq!(v.term(TermId(99)), None);
    }

    #[test]
    fn intern_all_preserves_order() {
        let v = Vocabulary::new();
        let ids = v.intern_all(["a", "b", "a", "c"]);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], ids[2]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn empty_and_memory() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        v.intern("word");
        assert!(!v.is_empty());
        assert!(v.memory_usage() > 0);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let v = Vocabulary::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = v.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| v.intern(&format!("t{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(v.len(), 100);
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
