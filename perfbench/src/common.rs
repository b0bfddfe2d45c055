//! Helpers every workload shares: seeded input derivation, the program
//! split, and process facts.

use portopt_ir::interp::ExecLimits;
use portopt_ir::Module;
use portopt_mibench::{suite, Category, Program, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// The profiling limits the sweep and the service use.
pub const LIMITS: ExecLimits = ExecLimits {
    fuel: 100_000_000,
    max_depth: 2048,
};

/// MiBench categories in a fixed order (the per-category draws iterate
/// it).
pub const CATEGORIES: [Category; 6] = [
    Category::Auto,
    Category::Consumer,
    Category::Network,
    Category::Office,
    Category::Security,
    Category::Telecomm,
];

/// Independent input streams derived from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Split = 1,
    Uarchs = 2,
    Order = 3,
    Arrivals = 4,
}

/// A generator for one input stream of one seed.
pub fn rng(seed: u64, stream: Stream, salt: u64) -> StdRng {
    let mix = (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    StdRng::seed_from_u64(seed ^ mix)
}

/// A Fisher–Yates shuffle of `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// The 35-program suite (fixed inputs: the seed varies which programs
/// are drawn, never what they compute).
pub fn programs() -> Vec<Program> {
    suite(Workload::default())
}

/// Suite indices of each category's programs, each list in a seeded
/// order.
pub fn shuffled_categories(progs: &[Program], seed: u64) -> Vec<Vec<usize>> {
    CATEGORIES
        .iter()
        .enumerate()
        .map(|(c, cat)| {
            let members: Vec<usize> = (0..progs.len())
                .filter(|&i| progs[i].category == *cat)
                .collect();
            let order = permutation(members.len(), &mut rng(seed, Stream::Split, c as u64));
            order.into_iter().map(|k| members[k]).collect()
        })
        .collect()
}

/// Splits a fixed training pool, the first `per_category` programs of
/// each category in suite order, into `folds` disjoint folds: each
/// category's pool members in a seeded order, dealt round-robin. The
/// pool is the same for every seed, so every seed's training sweeps do
/// the same work; the seed decides only which fold trains on which
/// program.
pub fn training_folds(
    progs: &[Program],
    per_category: usize,
    folds: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); folds];
    for (c, cat) in CATEGORIES.iter().enumerate() {
        let pool: Vec<usize> = (0..progs.len())
            .filter(|&i| progs[i].category == *cat)
            .take(per_category)
            .collect();
        let order = permutation(pool.len(), &mut rng(seed, Stream::Split, c as u64));
        for (j, k) in order.into_iter().enumerate() {
            out[j % folds].push(pool[k]);
        }
    }
    out
}

/// Deals every suite program into `n` rounds exactly once: the seeded
/// category orders, concatenated, dealt round-robin, so each round holds
/// about one program per category and every run sweeps the whole suite.
pub fn deal(shuffled: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    let mut rounds = vec![Vec::new(); n];
    for (j, &p) in shuffled.iter().flatten().enumerate() {
        rounds[j % n].push(p);
    }
    rounds
}

/// `(name, module)` pairs for the given suite indices.
pub fn named(progs: &[Program], idx: &[usize]) -> Vec<(String, Module)> {
    idx.iter()
        .map(|&i| (progs[i].name.to_string(), progs[i].module.clone()))
        .collect()
}

/// Worker threads: every core the process may use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a run writes its files (snapshots, span logs): `out/` beside
/// this crate's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_seeded_and_cover_every_category() {
        let progs = programs();
        let a = shuffled_categories(&progs, 7);
        assert_eq!(a, shuffled_categories(&progs, 7));
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), progs.len());
        // Dealing covers the suite once, about one category each.
        let rounds = deal(&a, 6);
        let mut all: Vec<usize> = rounds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..progs.len()).collect::<Vec<_>>());
        assert!(rounds.iter().all(|r| (5..=6).contains(&r.len())));
        // The training pool is fixed; the seed only splits it.
        let two = training_folds(&progs, 2, 2, 7);
        assert_eq!(two, training_folds(&progs, 2, 2, 7));
        let mut pool = two.concat();
        pool.sort_unstable();
        for seed in [1, 2, 3] {
            let other = training_folds(&progs, 2, 2, seed);
            let mut union = other.concat();
            union.sort_unstable();
            assert_eq!(union, pool, "seed {seed} trains on another pool");
            for fold in &other {
                let cats: Vec<Category> = fold.iter().map(|&p| progs[p].category).collect();
                assert_eq!(cats, CATEGORIES, "one program per category per fold");
            }
        }
        assert_eq!(
            training_folds(&progs, 2, 1, 7)[0].len(),
            2 * CATEGORIES.len()
        );
    }
}
