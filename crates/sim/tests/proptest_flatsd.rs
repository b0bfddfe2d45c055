//! Differential property tests: the profiler's flat stack-distance tracker
//! against its oracle, `portopt_uarch::StackDistance`, on streams built to
//! reach every path of the fast tracker — the repeat fast path, timestamp
//! compaction (many times over, and while the live set grows past every
//! slot space), the paged `last` array's page edges and the last index of
//! the capacity.

use portopt_sim::FlatStackDistance;
use portopt_uarch::StackDistance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Elements per page of the tracker's paged `last` array.
const PAGE: usize = 4096;

/// Feeds `stream` to a fresh tracker of `capacity` and to the oracle,
/// failing at the first access whose distances differ.
fn agree(capacity: usize, stream: &[usize]) -> Result<(), TestCaseError> {
    let mut flat = FlatStackDistance::new(capacity);
    let mut oracle = StackDistance::new();
    for (i, &b) in stream.iter().enumerate() {
        let (got, want) = (flat.access(b), oracle.access(b as u64));
        prop_assert_eq!(got, want, "access #{} to block {}", i, b);
    }
    Ok(())
}

proptest! {
    /// Random blocks, each repeated in a run of 1–8 immediate repeats.
    #[test]
    fn runs_of_immediate_repeats(seed in 0u64..1 << 32, universe in 1usize..400, n in 100usize..4000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(n);
        while stream.len() < n {
            let b = rng.gen_range(0..universe);
            let run = rng.gen_range(1usize..=8);
            stream.extend(std::iter::repeat_n(b, run));
        }
        agree(universe, &stream)?;
    }

    /// 2–3 hot blocks for 100k+ accesses, after an optional cold prefix:
    /// with few live blocks the slot space stays small, so the clock
    /// wraps and compacts thousands of times.
    #[test]
    fn few_hot_blocks_force_many_compactions(
        seed in 0u64..1 << 32,
        hot in 2usize..=3,
        prefix in 0usize..200,
        n in 100_000usize..120_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = prefix + hot;
        let mut stream: Vec<usize> = (0..prefix).collect();
        stream.extend((0..n).map(|_| prefix + rng.gen_range(0..hot)));
        agree(capacity, &stream)?;
    }

    /// Sequential scans, forwards or backwards, over more distinct blocks
    /// than any slot space the tracker has held, repeated so every block
    /// is re-used at the full working-set distance.
    #[test]
    fn sequential_scans_past_every_capacity(
        distinct in 5_000usize..20_000,
        passes in 2usize..4,
        backwards in any::<bool>(),
    ) {
        let mut stream = Vec::with_capacity(distinct * passes);
        for pass in 0..passes {
            let rev = backwards && pass % 2 == 1;
            stream.extend((0..distinct).map(|i| if rev { distinct - 1 - i } else { i }));
        }
        agree(distinct, &stream)?;
    }

    /// Indices on either side of the paged array's page edges, and the
    /// first and last index of the capacity.
    #[test]
    fn page_edges_and_capacity_end(seed in 0u64..1 << 32, pages in 1usize..64, tail in 1usize..PAGE, n in 100usize..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = pages * PAGE + tail;
        let mut edges = vec![0, capacity - 1, capacity - 2];
        for p in 1..=pages {
            edges.extend([p * PAGE - 1, p * PAGE, p * PAGE + 1]);
        }
        edges.retain(|&b| b < capacity);
        let stream: Vec<usize> = (0..n).map(|_| edges[rng.gen_range(0..edges.len())]).collect();
        agree(capacity, &stream)?;
    }

    /// A hot working set interleaved with cold blocks from a large space:
    /// the live set keeps growing while most accesses stay short-distance.
    #[test]
    fn hot_cold_interleavings(
        seed in 0u64..1 << 32,
        hot in 1usize..32,
        cold_pct in 1u32..60,
        n in 1000usize..20_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = 1 << 20;
        let stream: Vec<usize> = (0..n)
            .map(|_| {
                if rng.gen_range(0u32..100) < cold_pct {
                    rng.gen_range(hot..capacity)
                } else {
                    rng.gen_range(0..hot)
                }
            })
            .collect();
        agree(capacity, &stream)?;
    }
}
