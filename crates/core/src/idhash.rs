//! A cheap hasher for maps keyed by ids the scheduler mints itself.
//!
//! [`PeriodId`](crate::ids::PeriodId) and [`JobId`](crate::ids::JobId) are
//! sequence numbers handed out by this program (or read back from its own
//! snapshots and write-ahead log), so the maps keyed by them need no
//! defence against keys crafted to collide — and the default SipHash was
//! the single largest cost of turning a feasible id back into its period
//! record. A client can name a job id on the wire, but such an id is only
//! ever *looked up*, never inserted, so it cannot grow a bucket chain.
//!
//! None of these maps is iterated in an order that reaches a reply; do not
//! use [`IdMap`] where iteration order is observable or where keys arrive
//! from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply and one xor-shift per integer written. The multiply (by an
/// odd constant, so a bijection on `u64`) spreads consecutive ids over the
/// high bits the hash table takes its control bytes from; the shift folds
/// those back into the low bits it takes its bucket index from.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    /// Keys that are not a single integer: fold eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by self-minted ids (see the module docs).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_ids_spread_over_low_and_high_bits() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for id in 0..4096u64 {
            let h = build.hash_one(JobId(id));
            low.insert(h & 0xFFF);
            high.insert(h >> 57);
        }
        // 4096 sequential keys into 4096 buckets: a uniform hash fills
        // about 63 % of them; identity-like hashes would fill all or few.
        assert!(low.len() > 2000, "low bits collide: {}", low.len());
        assert_eq!(high.len(), 128, "control bytes unused");
    }
}
