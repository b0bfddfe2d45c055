//! A fast exact LRU stack-distance tracker over a dense block index space.
//!
//! Same algorithm as `portopt_uarch::StackDistance` (Bennett–Kruskal with a
//! Fenwick tree) but with a flat `last-access` array instead of a hash map,
//! sized once for the address space and paged in as blocks are first
//! touched. The profiler runs four of these per stream (one per candidate
//! block size), so constant factors matter.

use portopt_ir::ZeroPaged;

/// Flat-array stack-distance tracker.
#[derive(Debug, Clone)]
pub struct FlatStackDistance {
    /// last[block] = time of previous access (0 = never).
    last: ZeroPaged<u32>,
    /// Fenwick tree: 1 at slots that are some block's latest access.
    tree: Vec<u32>,
    time: u32,
}

impl FlatStackDistance {
    /// Creates a tracker for block indices `< capacity`.
    pub fn new(capacity: usize) -> Self {
        FlatStackDistance {
            last: ZeroPaged::new(capacity),
            tree: vec![0; 4096],
            time: 0,
        }
    }

    #[inline]
    fn add(&mut self, mut i: u32, v: i32) {
        let n = self.tree.len() as u32;
        while i < n {
            self.tree[i as usize] = (self.tree[i as usize] as i32 + v) as u32;
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn sum(&self, mut i: u32) -> u32 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i as usize];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Records an access to `block`; returns the stack distance, `None` on
    /// first touch.
    ///
    /// # Panics
    /// Panics if `block` is outside the capacity given at construction.
    #[inline]
    pub fn access(&mut self, block: usize) -> Option<u64> {
        self.time += 1;
        if self.time as usize + 1 >= self.tree.len() {
            self.grow();
        }
        let prev = std::mem::replace(self.last.get_mut(block), self.time);
        let dist = if prev == 0 {
            None
        } else {
            let d = self.sum(self.time - 1) - self.sum(prev);
            self.add(prev, -1);
            Some(d as u64)
        };
        self.add(self.time, 1);
        dist
    }

    fn grow(&mut self) {
        let new_len = self.tree.len() * 2;
        self.tree = vec![0; new_len];
        // Rebuild from the last-access array.
        let times: Vec<u32> = self.last.allocated().filter(|&t| t != 0).collect();
        for t in times {
            self.add(t, 1);
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
