//! The integer hasher of the per-tuple tables.
//!
//! Every table a tuple probes on its way through the pipeline — the
//! dispatcher's `H2` term registry and term→worker maps, the per-cell
//! posting tables and the query-id map of GI², the merger's dedup sets — is
//! keyed by a dense integer id minted inside the system (`TermId`, cell
//! index, `QueryId`, `ObjectId`). std's default `SipHash-1-3` spends most of
//! such a probe on hashing and buys flooding resistance that keys the
//! system mints itself do not need. [`IdHasher`] is an FxHash-style
//! replacement: one add and multiply per written word, and a rotate in
//! [`Hasher::finish`].
//!
//! The rotate is what makes a multiplicative hash usable by `hashbrown`,
//! which takes the bucket from the **low** bits of the hash and a 7-bit tag
//! from the **top** bits. A product `x * K` carries its entropy in its high
//! bits: its low bits depend only on the low bits of `x`, so ids that differ
//! only above bit 16 (or bit 32) would all land in one bucket. The finishing
//! rotate moves the well-mixed upper bits of the product into the bucket
//! bits while keeping the tag inside the part that still varies for ids that
//! differ only in their upper half.
//!
//! Keys chosen by a client must not go through these maps: a caller who picks
//! the ids can make them collide. Every key the system hashes this way is
//! minted inside it; a wire front end that accepts client-chosen ids has to
//! remap them first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier, picked together with [`ROTATE`] from 30 000 random
/// odd constants and the rotations 17–25 as the pair with the best worst
/// case: in every table of 2^6 to 2^16 buckets, as many ids as buckets —
/// dense, or spaced by 2^8, 2^16, 2^24 or 2^32 — occupy at least 67 % of
/// the buckets, where a uniformly random hash occupies 63 % (`1 - 1/e`) on
/// average. With the multipliers of FxHash or rustc-hash, some of those
/// families occupy under 45 % of the buckets at every rotation in that range.
const K: u64 = 0x638f_b2d4_362f_bc6b;

/// Left rotation applied by [`Hasher::finish`]: the bucket bits come from
/// product bits 42 upwards and the 7-bit tag from bits 35–41, all of which
/// still vary for ids that differ only above bit 32.
const ROTATE: u32 = 22;

/// Multiply-rotate hasher for integer ids minted inside the system (see the
/// [module documentation](self) for when it must not be used).
#[derive(Debug, Default, Clone)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// A `HashMap` keyed by system-minted integer ids, hashed with [`IdHasher`].
/// Build one with `IdMap::default()` or `with_capacity_and_hasher`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of system-minted integer ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids per family. With as many ids as the 2^16 values of the low 16
    /// bits, even a uniformly random hash reaches only `1 - 1/e` distinct
    /// values; at 2^12 it reaches 97 %, so 90 % separates a hash that spreads
    /// the family from one that clusters it.
    const IDS: u64 = 1 << 12;

    fn finish_of(id: u64) -> u64 {
        let mut h = IdHasher::default();
        h.write_u64(id);
        h.finish()
    }

    /// Share of distinct low-16-bit values (the bucket bits of a table of
    /// 2^16 buckets) and number of distinct top-7-bit values (hashbrown's
    /// control byte) over `hashes`.
    fn spread(hashes: impl Iterator<Item = u64>) -> (f64, usize) {
        let mut low = HashSet::new();
        let mut top = HashSet::new();
        let mut n = 0usize;
        for h in hashes {
            low.insert(h & 0xffff);
            top.insert(h >> 57);
            n += 1;
        }
        (low.len() as f64 / n as f64, top.len())
    }

    fn families() -> [(&'static str, Vec<u64>); 3] {
        [
            ("dense", (0..IDS).collect()),
            ("stride 2^16", (0..IDS).map(|i| i << 16).collect()),
            // object ids that share their low half
            ("above bit 32", (0..IDS).map(|i| (i << 32) | 0x2a).collect()),
        ]
    }

    #[test]
    fn structured_id_families_spread_over_bucket_and_tag_bits() {
        for (family, ids) in families() {
            let (distinct, tags) = spread(ids.iter().map(|&id| finish_of(id)));
            assert!(distinct >= 0.9, "{family}: {distinct:.3} distinct");
            assert_eq!(tags, 128, "{family}: top-7 tags");
        }
        // without the finishing rotate, the low bits of `x * K` ignore every
        // bit of `x` above them: ids differing above bit 32 share one bucket
        let (_, high) = &families()[2];
        let (distinct, _) = spread(high.iter().map(|&id| id.wrapping_mul(K)));
        assert!(distinct < 0.9, "plain product: {distinct:.3} distinct");
        // a 32-bit key hashes exactly like the same value written as 64 bits
        let mut h = IdHasher::default();
        h.write_u32(7);
        assert_eq!(h.finish(), finish_of(7));
    }

    #[test]
    fn maps_built_by_the_same_inserts_iterate_in_the_same_order() {
        let keys = || (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9) % 5003);
        let map = || {
            let mut map: IdMap<u64, u64> = keys().zip(0..).collect();
            map.remove(&17);
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(map(), map());
        let set = || {
            keys()
                .collect::<IdSet<u64>>()
                .into_iter()
                .collect::<Vec<_>>()
        };
        assert_eq!(set(), set());
    }

    #[test]
    fn byte_writes_fold_in_words() {
        // `write` is what derived `Hash` on non-integer fields reaches:
        // equal input hashes equally, and a trailing partial word counts
        let hash = |bytes: &[u8]| {
            let mut h = IdHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"posting-term"), hash(b"posting-term"));
        assert_ne!(hash(b"posting-term"), hash(b"posting-terms"));
        assert_eq!(hash(&7u64.to_le_bytes()), finish_of(7));
    }
}
