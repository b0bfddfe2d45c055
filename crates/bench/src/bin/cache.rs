//! Offline maintenance for the on-disk profile cache: inspect its size,
//! evict it down to a byte budget (LRU by mtime), and sweep stale temp
//! droppings — without running a sweep.
//!
//! ```text
//! cargo run --release -p portopt-bench --bin cache -- stats target/pcache
//! cargo run --release -p portopt-bench --bin cache -- gc target/pcache --max-bytes 50000000
//! ```
//!
//! Offline GC protects nothing (no sweep is running, so no entry is
//! "current"); `sweep --cache-max-bytes` is the online variant that never
//! evicts entries the running sweep touched. See `docs/SWEEP.md`.

use portopt_bench::cli::{parse, Cli};
use portopt_core::open_profile_cache;
use portopt_exec::DiskCache;

fn open(dir: &str) -> DiskCache {
    open_profile_cache(dir).unwrap_or_else(|e| {
        portopt_trace::error!("bench.cache", "cannot open profile cache {dir}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut cli = Cli::new("cache", "Inspects or evicts the on-disk profile cache.");
    let help = "gc: evict oldest-first until the cache is at most N bytes";
    let max_bytes: Option<u64> = cli.opt("--max-bytes N", help, parse);
    let command = cli.positional("stats|gc", "print entry count and bytes, or evict");
    let dir = cli.positional("DIR", "the profile cache directory");
    match (command.as_str(), max_bytes) {
        ("stats", None) | ("gc", Some(_)) => {}
        ("stats", Some(_)) => cli.error("--max-bytes is a gc option"),
        ("gc", None) => cli.error("missing --max-bytes N"),
        (other, _) => cli.error(format!("unknown command {other:?}")),
    }
    cli.finish();
    let cache = open(&dir);
    // Settled above: `stats` runs without a byte budget, `gc` with one.
    match max_bytes {
        None => match (cache.entries(), cache.total_bytes()) {
            (Ok(entries), Ok(bytes)) => {
                println!("{dir}: {} entries, {bytes} bytes", entries.len());
            }
            (Err(e), _) | (_, Err(e)) => {
                portopt_trace::error!("bench.cache", "cannot scan {dir}: {e}");
                std::process::exit(2);
            }
        },
        Some(max_bytes) => match cache.gc(max_bytes) {
            Ok(r) => {
                println!(
                    "{dir}: examined {} entries ({} bytes), evicted {} ({} bytes), \
                         kept {} ({} bytes), removed {} stale tmp files",
                    r.examined,
                    r.before_bytes,
                    r.evicted,
                    r.evicted_bytes,
                    r.kept,
                    r.kept_bytes,
                    r.tmp_removed,
                );
                if !r.met_budget(max_bytes) {
                    portopt_trace::warn!(
                        "bench.cache",
                        "still over budget ({} > {max_bytes})",
                        r.kept_bytes
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                portopt_trace::error!("bench.cache", "gc failed: {e}");
                std::process::exit(2);
            }
        },
    }
}
