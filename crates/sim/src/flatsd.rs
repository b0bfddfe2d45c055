//! A fast exact LRU stack-distance tracker over a dense block index space.
//!
//! Same distances as `portopt_uarch::StackDistance` (Bennett–Kruskal: a
//! marker at each block's latest access time, and a distance is the number
//! of markers after the block's previous one), but every per-access cost is
//! sized by the *distinct blocks* seen so far, not by the accesses:
//!
//! * `last[block]` is a flat, paged array instead of a hash map, sized once
//!   for the address space and paged in as blocks are first touched.
//! * **Repeat fast path.** An access to the block accessed immediately
//!   before returns distance 0 and changes no state: no other block is
//!   touched in between, so every other block's set of distinct blocks
//!   since its last access is unchanged, and the block's own marker is
//!   already the latest.
//! * **One prefix count.** Before an access at time `t`, every live block
//!   has exactly one marker at a time `≤ t − 1`, so `count(≤ t − 1)` is
//!   `live`, the number of distinct blocks touched so far, and the
//!   distance is `live − count(≤ prev)`.
//! * **Timestamp compaction** (Bennett–Kruskal/Olken renumbering).
//!   Distances depend only on the *order* of the markers, so when the
//!   clock reaches the end of the slot space the live markers are
//!   renumbered `1..=live` in order and the slot space is resized to about
//!   4× `live`. The blocks are found through a first-touch list, never by
//!   scanning `last`; each compaction costs O(`live` + slots/64) and is
//!   followed by ≥ 3·`live` − 1 accesses, so it is O(1) amortised.
//! * **Two-level count.** Markers are bits in a word array. A Fenwick tree
//!   over the popcounts of the words *below the clock's word* answers the
//!   whole-word part of a prefix count, and a masked popcount the rest,
//!   replacing the bottom six tree levels. The clock's own word joins the
//!   tree only when the clock leaves it (one tree update per 64 ticks): a
//!   prefix count that ends below that word never reads it, and one that
//!   ends inside it is `live` minus the markers above `prev` there. So the
//!   new marker never touches the tree, and a reuse within the last 64
//!   ticks is one shifted popcount.
//!
//! The profiler runs nine of these per run (four block sizes per stream
//! plus the branch PC), so constant factors matter.

use portopt_ir::ZeroPaged;

/// Slots per bitset word.
const WORD: usize = 64;
/// Smallest slot space.
const MIN_SLOTS: usize = 64;

/// Flat-array stack-distance tracker.
#[derive(Debug, Clone)]
pub struct FlatStackDistance {
    /// last[block] = time of the block's latest access (0 = never).
    last: ZeroPaged<u32>,
    /// Every touched block, in first-touch order (`len() == live`).
    blocks: Vec<usize>,
    /// Bit `t` set iff time slot `t` is some block's latest access.
    bits: Vec<u64>,
    /// Fenwick tree (1-based) over `bits[w].count_ones()` for the words
    /// below the clock's word `time / WORD`; zero from that word up.
    tree: Vec<u32>,
    /// Time of the latest access that changed state; `< bits.len() * WORD`.
    time: u32,
    /// Block of the latest access (`usize::MAX` before the first).
    prev_block: usize,
}

impl FlatStackDistance {
    /// Creates a tracker for block indices `< capacity`.
    pub fn new(capacity: usize) -> Self {
        FlatStackDistance {
            last: ZeroPaged::new(capacity),
            blocks: Vec::new(),
            bits: vec![0; MIN_SLOTS / WORD],
            tree: vec![0; MIN_SLOTS / WORD + 1],
            time: 0,
            prev_block: usize::MAX,
        }
    }

    /// Records an access to `block`; returns the stack distance, `None` on
    /// first touch.
    ///
    /// # Panics
    /// Panics if `block` is outside the capacity given at construction.
    #[inline]
    pub fn access(&mut self, block: usize) -> Option<u64> {
        if block == self.prev_block {
            return Some(0);
        }
        if self.time as usize + 1 == self.bits.len() * WORD {
            self.compact();
        }
        self.time += 1;
        let (tw, tb) = (self.time as usize / WORD, self.time as usize % WORD);
        if tb == 0 {
            // The clock left word `tw - 1`: hand it to the tree.
            self.tree_add(tw - 1, self.bits[tw - 1].count_ones() as i32);
        }
        let prev = std::mem::replace(self.last.get_mut(block), self.time);
        self.prev_block = block;
        let dist = if prev == 0 {
            self.blocks.push(block);
            None
        } else {
            let (pw, pb) = (prev as usize / WORD, prev as usize % WORD);
            let d = if pw == tw {
                // Every marker after `prev` is in the clock's word.
                (self.bits[tw] >> pb).count_ones() - 1
            } else {
                let mut through = (self.bits[pw] & (2u64 << pb).wrapping_sub(1)).count_ones();
                let mut i = pw;
                while i > 0 {
                    through += self.tree[i];
                    i &= i - 1;
                }
                self.tree_add(pw, -1);
                self.blocks.len() as u32 - through
            };
            self.bits[pw] ^= 1 << pb;
            Some(d as u64)
        };
        self.bits[tw] |= 1 << tb;
        dist
    }

    /// Adds `v` to word `w`'s count in the Fenwick tree.
    #[inline]
    fn tree_add(&mut self, w: usize, v: i32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(v);
            i += i & i.wrapping_neg();
        }
    }

    /// Renumbers the live markers `1..=live` in order and resizes the slot
    /// space to the smallest power of two `≥ 4·live` (at least
    /// [`MIN_SLOTS`]).
    ///
    /// Few live blocks mean a small slot space and a compaction every few
    /// hundred accesses, so this reuses its buffers rather than
    /// allocating.
    #[cold]
    fn compact(&mut self) {
        // tree[w] := markers in words before w (the Fenwick tree is rebuilt
        // below, so its buffer serves as scratch).
        let mut acc = 0u32;
        for (w, bits) in self.bits.iter().enumerate() {
            self.tree[w] = acc;
            acc += bits.count_ones();
        }
        for &block in &self.blocks {
            let t = self.last.get_mut(block);
            let (w, b) = (*t as usize / WORD, *t as usize % WORD);
            *t = self.tree[w] + (self.bits[w] & ((1u64 << b) - 1)).count_ones() + 1;
        }
        let live = self.blocks.len();
        let slots = (4 * live).next_power_of_two().max(MIN_SLOTS);
        assert!(
            slots - 1 <= u32::MAX as usize,
            "stack-distance clock overflow"
        );
        self.time = live as u32;
        self.bits.clear();
        self.bits.resize(slots / WORD, 0);
        // Slots 1..=live (live + 1 < slots, so the last word is in range).
        let full = (live + 1) / WORD;
        self.bits[..full].fill(!0);
        self.bits[full] = (1u64 << ((live + 1) % WORD)) - 1;
        self.bits[0] &= !1;
        // Linear-time Fenwick build over the words below the clock's word:
        // seed each node with its own word, then push every node's total
        // into its parent.
        self.tree.clear();
        self.tree.push(0);
        let tw = live / WORD;
        self.tree
            .extend(self.bits[..tw].iter().map(|w| w.count_ones()));
        self.tree.resize(self.bits.len() + 1, 0);
        for i in 1..self.tree.len() {
            let j = i + (i & i.wrapping_neg());
            if j < self.tree.len() {
                self.tree[j] += self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_uarch::StackDistance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_reference_implementation() {
        let mut flat = FlatStackDistance::new(256);
        let mut reference = StackDistance::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20_000 {
            let b = rng.gen_range(0usize..256);
            assert_eq!(flat.access(b), reference.access(b as u64));
        }
    }

    #[test]
    fn sequential_then_repeat() {
        let mut sd = FlatStackDistance::new(1024);
        for i in 0..1024 {
            assert_eq!(sd.access(i), None);
        }
        assert_eq!(sd.access(0), Some(1023));
        assert_eq!(sd.access(0), Some(0));
    }

    #[test]
    fn growth_preserves_distances() {
        let mut sd = FlatStackDistance::new(8);
        // Far more accesses than the initial tree capacity.
        for round in 0..10_000u64 {
            for b in 0..8usize {
                let d = sd.access(b);
                if round > 0 {
                    assert_eq!(d, Some(7), "round {round} block {b}");
                }
            }
        }
    }
}
