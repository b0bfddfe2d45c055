//! The multi-rig sweep driver: sweeps this rig's shard of the
//! `(program, setting)` training grid and writes a `Dataset` shard file
//! that `snapshot --shard` merges for training.
//!
//! ```text
//! # rig 0 and rig 1 each sweep half the programs, sharing nothing but
//! # the seed; --profile-cache makes re-runs reuse profiling on disk
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --shard-index 0 --shard-count 2 \
//!     --profile-cache target/pcache --out rig0.json
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --shard-index 1 --shard-count 2 \
//!     --profile-cache target/pcache --out rig1.json
//!
//! # then merge-train on any one machine
//! cargo run --release -p portopt-bench --bin snapshot -- \
//!     --shard rig0.json --shard rig1.json --out model.snap
//! ```
//!
//! Without shard flags (`--shard-count 1`, the default) this is a plain
//! whole-suite sweep to an explicit dataset file. Sharding is contiguous
//! and deterministic ([`portopt_core::shard::ShardSpec`]), so merging the
//! shards in index order is byte-identical to the unsharded sweep — CI
//! asserts exactly that.
//!
//! **Crash safety**: every completed `(program, setting)` pair is
//! checkpointed to `<out>.journal` as it finishes, and a rerun with the
//! same flags resumes from the journal instead of re-pricing (disable
//! with `--no-checkpoint`; see `docs/SWEEP.md`). The journal is retired
//! once the shard file is (atomically) published.
//!
//! **Fleet mode**: `--worker HOST:PORT` takes shard leases from a
//! `coordinator` bin instead of sweeping a fixed `--shard-index`, so a
//! pool of rigs drains the plan and a dead rig's shard is retried
//! elsewhere.
//!
//! **Disk pressure**: `--cache-max-bytes N` evicts the profile cache
//! LRU-by-mtime down to `N` bytes after the sweep, never touching entries
//! this run wrote or read (offline alternative: the `cache` bin).

use portopt_bench::cli::{parse, Cli};
use portopt_bench::{
    coordinator, ensure_writable, finish_trace, open_journal, shard_count, write_dataset,
    JournalRole, SweepArgs, Tracing,
};
use portopt_core::{open_profile_cache, CheckpointJournal, Dataset, ShardSpec, Sweep, SweepReport};
use portopt_exec::DiskCache;
use portopt_experiments::suite_modules;
use portopt_ir::Module;

/// The `sweep` bin's command line.
struct Args {
    sweep: SweepArgs,
    out: Option<String>,
    shard_index: usize,
    shard_count: usize,
    profile_cache: Option<String>,
    no_checkpoint: bool,
    worker: Option<String>,
    cache_max_bytes: Option<u64>,
}

impl Args {
    fn parse() -> Self {
        let mut cli = Cli::new("sweep", "Sweeps one shard of the training grid.");
        let args = Args {
            sweep: SweepArgs::declare(&mut cli),
            out: cli.opt("--out PATH", "shard file [default: under target/]", parse),
            shard_index: cli.value("--shard-index I", 0, "this rig's shard", parse),
            shard_count: shard_count(&mut cli),
            profile_cache: cli.opt("--profile-cache DIR", "on-disk profile cache", parse),
            no_checkpoint: cli.flag("--no-checkpoint", "disable the resumable journal"),
            worker: cli.opt("--worker HOST:PORT", "lease from a coordinator", parse),
            cache_max_bytes: cli.opt(
                "--cache-max-bytes N",
                "GC the cache to N bytes after",
                parse,
            ),
        };
        Tracing::declare(&mut cli).start(cli);
        args
    }
}

fn open_cache(args: &Args) -> Option<DiskCache> {
    args.profile_cache.as_ref().map(|dir| {
        open_profile_cache(dir).unwrap_or_else(|e| {
            portopt_trace::error!("bench.sweep", "cannot open profile cache {dir}: {e}");
            std::process::exit(2);
        })
    })
}

fn print_cache_stats(cache: &DiskCache) {
    let s = cache.stats();
    println!(
        "profile cache: {} hits, {} misses, {} rejected ({})",
        s.hits,
        s.misses,
        s.rejected,
        cache.dir().display(),
    );
}

/// Evicts the profile cache down to `max_bytes` (entries touched by this
/// run are protected) and reports what happened.
fn gc_cache(cache: &DiskCache, max_bytes: u64) {
    match cache.gc(max_bytes) {
        Ok(r) => {
            println!(
                "cache gc: evicted {} entries ({} bytes), kept {} ({} bytes, \
                 {} protected), budget {max_bytes} bytes {}",
                r.evicted,
                r.evicted_bytes,
                r.kept,
                r.kept_bytes,
                r.protected,
                if r.met_budget(max_bytes) {
                    "met"
                } else {
                    "NOT met (current-run entries exceed it)"
                },
            );
        }
        Err(e) => portopt_trace::warn!("bench.sweep", "cache gc failed: {e}"),
    }
}

/// Sweeps one shard with checkpointing and returns the dataset, retiring
/// the journal only after `publish` has safely landed the result.
fn sweep_shard(
    args: &Args,
    spec: &ShardSpec,
    pairs: &[(String, Module)],
    cache: Option<&DiskCache>,
    journal_path: &str,
    publish: impl FnOnce(&Dataset, &SweepReport, Option<&CheckpointJournal>),
) -> Dataset {
    let mine = spec.slice(pairs);
    let sp = portopt_trace::span(
        "bench.sweep",
        "sweep_shard",
        &[
            ("shard_index", (spec.index() as u64).into()),
            ("shard_count", (spec.count() as u64).into()),
            ("programs", (mine.len() as u64).into()),
        ],
    );
    let plan = Sweep {
        cache,
        ..Sweep::new(args.sweep.gen_options())
    };
    let journal = if args.no_checkpoint {
        None
    } else {
        open_journal(journal_path, mine, &plan, JournalRole::Shard)
    };
    let (ds, report) = Sweep {
        journal: journal.as_ref(),
        ..plan
    }
    .run(mine);
    sp.close_with(&[("wall_secs", report.wall_secs.into())]);
    publish(&ds, &report, journal.as_ref());
    if let Some(j) = journal {
        if let Err(e) = j.retire() {
            portopt_trace::warn!(
                "bench.sweep",
                "could not retire checkpoint journal {journal_path}: {e}"
            );
        }
    }
    ds
}

/// Fleet mode: drain shard leases from the coordinator until the plan is
/// finished. Each lease is swept with its own checkpoint journal, so even
/// a worker killed mid-lease resumes its own partial work when restarted.
fn run_as_worker(args: &Args, addr: &str) -> ! {
    let (pairs, _) = suite_modules(2009);
    let name = format!(
        "worker-{}-{}",
        std::process::id(),
        std::env::var("HOSTNAME").unwrap_or_else(|_| "rig".into())
    );
    println!("sweep worker {name}: taking leases from {addr}");
    let cache = open_cache(args);
    let outcome = coordinator::run_worker(addr, &name, |index, count| {
        let spec = ShardSpec::new(index, count).map_err(|e| e.to_string())?;
        let journal_path = format!(
            "target/portopt-worker-{}-{index}of{count}.journal",
            args.sweep.tag()
        );
        // Refuse rather than die: the coordinator re-leases the shard to a
        // rig whose disk works.
        ensure_writable(&journal_path)?;
        println!("worker {name}: sweeping shard {index}/{count}");
        Ok(sweep_shard(
            args,
            &spec,
            &pairs,
            cache.as_ref(),
            &journal_path,
            |_, report, _| {
                portopt_trace::info!(
                    "bench.sweep",
                    { wall_secs = report.wall_secs },
                    "worker {name}: shard {index}/{count} done in {:.2}s",
                    report.wall_secs
                );
            },
        ))
    });
    if let Some(c) = &cache {
        print_cache_stats(c);
        if let Some(max) = args.cache_max_bytes {
            gc_cache(c, max);
        }
    }
    match outcome {
        Ok(o) => {
            println!(
                "worker {name}: plan finished ({} shards swept, {} refused)",
                o.shards_swept, o.refused
            );
            finish_trace();
            std::process::exit(0);
        }
        Err(e) => {
            portopt_trace::error!("bench.sweep", "worker {name}: {e}");
            finish_trace();
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = Args::parse();
    if let Some(addr) = args.worker.clone() {
        run_as_worker(&args, &addr);
    }

    let spec = ShardSpec::new(args.shard_index, args.shard_count).unwrap_or_else(|e| {
        portopt_trace::error!("bench.sweep", "bad shard spec: {e}");
        std::process::exit(2);
    });
    // Fail fast: a bad --out must cost seconds, not a full sweep. The
    // journal lands next to the shard file, so one probe covers both.
    let out = args.out.clone().unwrap_or_else(|| {
        format!(
            "target/portopt-shard-{}-{}of{}.json",
            args.sweep.tag(),
            args.shard_index,
            args.shard_count
        )
    });
    if let Err(e) = ensure_writable(&out) {
        portopt_trace::error!("bench.sweep", "refusing to sweep: {e}");
        std::process::exit(2);
    }

    let (pairs, _) = suite_modules(2009);
    let range = spec.range(pairs.len());
    println!(
        "sweep shard {}/{}: programs [{}..{}) of {} ({} uarchs x {} settings, scale {})",
        spec.index(),
        spec.count(),
        range.start,
        range.end,
        pairs.len(),
        args.sweep.scale.n_uarch,
        args.sweep.scale.n_opts,
        args.sweep.scale_name,
    );

    let cache = open_cache(&args);
    let journal_path = format!("{out}.journal");
    sweep_shard(
        &args,
        &spec,
        &pairs,
        cache.as_ref(),
        &journal_path,
        |ds, report, journal| {
            args.sweep.write_report(report, journal);
            if let Some(c) = &cache {
                print_cache_stats(c);
            }
            write_dataset(&out, ds);
        },
    );
    if let Some(c) = &cache {
        if let Some(max) = args.cache_max_bytes {
            gc_cache(c, max);
        }
    }
    finish_trace();
}
