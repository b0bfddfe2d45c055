//! # portopt-bench
//!
//! Regeneration harness: one binary per table/figure of the paper
//! (`cargo run -p portopt-bench --release --bin fig6 -- --scale default`)
//! plus Criterion micro-benchmarks (`cargo bench`).
//!
//! Every bin declares exactly the flags it reads on one [`cli::Cli`], so
//! `--help` lists them and anything else is a usage error (exit 2). The
//! flag groups several bins share are declared once, here: [`SweepArgs`]
//! (`--scale/--extended/--threads`, plus `--no-cache` where the dataset
//! store is read), [`ServeArgs`] (the `serve`/`ab` listener) and
//! [`Tracing`] (`--log-level/--trace-out`).

#![warn(missing_docs)]

pub mod cli;
pub mod coordinator;

use cli::{parse, positive, Cli};
use portopt_core::{
    open_sweep_journal, CheckpointJournal, Dataset, GenOptions, Sweep, SweepReport, SweepScale,
};
use portopt_experiments::loo::{run_loo, LooResult};
use portopt_experiments::suite_modules;
use portopt_ir::Module;
use portopt_trace::Level;

/// The port the `serve`, `ab` and `coordinator` bins listen on by default.
const DEFAULT_PORT: u16 = 7209;

/// Declares `--port`.
pub fn port(cli: &mut Cli) -> u16 {
    cli.value("--port PORT", DEFAULT_PORT, "TCP port on 127.0.0.1", parse)
}

/// Declares `--metrics-port`.
pub fn metrics_port(cli: &mut Cli) -> Option<u16> {
    let help = "serve a plaintext metrics snapshot on this localhost port";
    cli.opt("--metrics-port PORT", help, parse)
}

/// Declares `--shard-count`.
pub fn shard_count(cli: &mut Cli) -> usize {
    let help = "shards the program grid is split into";
    cli.value("--shard-count N", 1, help, positive)
}

/// The sweep scale for a `--scale` name.
fn scale_by_name(name: &str) -> Option<SweepScale> {
    Some(match name {
        "smoke" => SweepScale::smoke(),
        // `quick`: the scale used for the recorded EXPERIMENTS.md run.
        "quick" => SweepScale {
            n_uarch: 10,
            n_opts: 60,
        },
        "default" => SweepScale::default_scale(),
        "paper" => SweepScale::paper(),
        _ => return None,
    })
}

/// Declares `--scale`, returning the scale's name.
pub fn scale_name(cli: &mut Cli) -> String {
    let spec = "--scale smoke|quick|default|paper";
    let known = |s: &str| scale_by_name(s).map(|_| s.to_string());
    cli.value(spec, "quick".into(), "sweep size", known)
}

/// The sweep a bin runs — `--scale`, `--extended`, `--threads` — and, for
/// the bins that read the dataset store, `--no-cache`.
pub struct SweepArgs {
    /// Sweep scale.
    pub scale: SweepScale,
    /// Scale name (part of every artifact's default path).
    pub scale_name: String,
    /// Use the §7 extended microarchitecture space.
    pub extended: bool,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Bypass the dataset and leave-one-out caches under `target/`
    /// (declared only by the bins that read them, via [`SweepArgs::cached`]).
    pub no_cache: bool,
}

impl SweepArgs {
    /// Declares `--scale`, `--extended` and `--threads`.
    pub fn declare(cli: &mut Cli) -> Self {
        let mut sweep = Self::declare_pinned(cli, false);
        let help = "use the §7 extended μarch space (frequency + issue width)";
        sweep.extended = cli.flag("--extended", help);
        sweep
    }

    /// Declares `--scale` and `--threads` for a bin whose μarch space is
    /// fixed (`fig10` always uses the extended one).
    pub fn declare_pinned(cli: &mut Cli, extended: bool) -> Self {
        let scale_name = scale_name(cli);
        SweepArgs {
            scale: scale_by_name(&scale_name).expect("a known scale"),
            scale_name,
            extended,
            threads: threads(cli),
            no_cache: false,
        }
    }

    /// Adds `--no-cache`, for the bins that read the dataset store.
    pub fn cached(mut self, cli: &mut Cli) -> Self {
        let help = "sweep afresh instead of reading the target/ dataset store and LOO cache";
        self.no_cache = cli.flag("--no-cache", help);
        self
    }

    /// Reads a figure bin's whole command line — [`SweepArgs::declare`],
    /// `--no-cache` and [`Tracing`] — and brings up the tracer.
    pub fn parse_figure(bin: &'static str, about: &'static str) -> Self {
        let mut cli = Cli::new(bin, about);
        let args = SweepArgs::declare(&mut cli).cached(&mut cli);
        Tracing::declare(&mut cli).start(cli);
        args
    }

    /// `SCALE` or `SCALE-ext`: the tag in every artifact's default path.
    pub fn tag(&self) -> String {
        let ext = if self.extended { "-ext" } else { "" };
        format!("{}{ext}", self.scale_name)
    }

    /// Generation options for this run.
    pub fn gen_options(&self) -> GenOptions {
        GenOptions {
            scale: self.scale,
            seed: 2009,
            extended_space: self.extended,
            threads: self.threads,
        }
    }

    /// Writes the machine-readable sweep throughput report (settings/sec,
    /// wall time) to `target/BENCH_sweep-TAG.json` and echoes it to
    /// stderr, so every fresh sweep leaves a perf data point behind.
    /// Returns whether it recorded one: a sweep whose `journal` replayed
    /// any work measured the replay, not the sweep, so it is skipped with
    /// an `info` line.
    pub fn write_report(&self, report: &SweepReport, journal: Option<&CheckpointJournal>) -> bool {
        if let Some(j) = journal.filter(|j| j.resumed_pairs() + j.resumed_baselines() > 0) {
            portopt_trace::info!(
                "bench",
                "sweep replayed {} pairs and {} baselines from {}: no throughput report recorded",
                j.resumed_pairs(),
                j.resumed_baselines(),
                j.path().display(),
            );
            return false;
        }
        portopt_trace::info!(
            "bench",
            {
                wall_secs = report.wall_secs,
                settings_per_sec = report.settings_per_sec,
                threads = report.threads as u64,
                unique_settings = report.unique_settings as u64
            },
            "sweep: {} programs x {} settings x {} uarchs in {:.2}s \
             ({:.1} settings/sec, {} threads, {} unique settings)",
            report.programs,
            report.settings,
            report.uarchs,
            report.wall_secs,
            report.settings_per_sec,
            report.threads,
            report.unique_settings,
        );
        if let Ok(bytes) = serde_json::to_vec(report) {
            let path = format!("target/BENCH_sweep-{}.json", self.tag());
            if let Err(e) = write_atomic(&path, &bytes) {
                portopt_trace::warn!("bench", "could not write {path}: {e}");
            }
        }
        true
    }

    /// Sweeps the suite through the dataset store: a checkpoint journal
    /// at `target/portopt-ds-TAG.journal` that is never retired, so a
    /// finished store replays the dataset without compiling and a killed
    /// run resumes (see docs/SWEEP.md §1). A fresh sweep also records its
    /// throughput report.
    pub fn dataset(&self) -> Dataset {
        let (programs, _) = suite_modules(2009);
        let plan = Sweep::new(self.gen_options());
        let path = format!("target/portopt-ds-{}.journal", self.tag());
        let store = if self.no_cache {
            None
        } else {
            open_journal(&path, &programs, &plan, JournalRole::Store)
        };
        let (ds, report) = Sweep {
            journal: store.as_ref(),
            ..plan
        }
        .run(&programs);
        self.write_report(&report, store.as_ref());
        ds
    }

    /// Dataset plus the leave-one-out evaluation, cached under `target/`
    /// for the dataset it was computed on.
    pub fn dataset_and_loo(&self) -> (Dataset, LooResult, Vec<Module>) {
        let ds = self.dataset();
        let (_, modules) = suite_modules(2009);
        let path = format!("target/portopt-loo-{}.json", self.tag());
        if !self.no_cache {
            if let Some(loo) = cached_loo(&path, &ds) {
                return (ds, loo, modules);
            }
        }
        let loo = run_loo(&ds, &modules, self.threads);
        if !self.no_cache {
            if let Ok(bytes) = serde_json::to_vec(&loo) {
                if let Err(e) = write_atomic(&path, &bytes) {
                    portopt_trace::warn!("bench", "could not write {path}: {e}");
                }
            }
        }
        (ds, loo, modules)
    }
}

/// The leave-one-out result cached at `path`, if it was computed on `ds`:
/// its `best_speedup` matrix must equal `ds`'s cell for cell. That check
/// is exact — the values are a pure function of `ds.cycles`, and JSON
/// floats round-trip exactly — so a result of an older dataset is
/// recomputed, never shown beside a fresh one.
fn cached_loo(path: &str, ds: &Dataset) -> Option<LooResult> {
    let loo: LooResult = serde_json::from_slice(&std::fs::read(path).ok()?).ok()?;
    let best: Vec<Vec<f64>> = (0..ds.n_programs())
        .map(|p| (0..ds.n_uarchs()).map(|u| ds.best_speedup(p, u)).collect())
        .collect();
    (loo.best_speedup == best).then_some(loo)
}

/// What a checkpoint journal is for, which decides what [`open_journal`]
/// does with one it cannot use and where it reports a resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRole {
    /// The `sweep` bin's shard journal. Its pairs may be hours of a
    /// fleet's work, so a journal that cannot be opened — its plan check
    /// refused it, say — exits 2 (docs/SWEEP.md §1). The resume line goes
    /// to stdout, the bin's report channel.
    Shard,
    /// A figure bin's dataset store. It is recomputable, so a refused
    /// journal is discarded with a warning and re-swept, and one that
    /// cannot be written is skipped with a warning, like `--no-cache`.
    /// The resume line is logged to stderr, leaving stdout to the figure.
    Store,
}

/// Opens the checkpoint journal at `path` for `plan` over `programs` and
/// reports what it resumed — the `checkpoint journal: resumed …` line
/// that CI greps. `None` only for a [`JournalRole::Store`] that cannot be
/// used.
pub fn open_journal(
    path: &str,
    programs: &[(String, Module)],
    plan: &Sweep,
    role: JournalRole,
) -> Option<CheckpointJournal> {
    let journal = match role {
        JournalRole::Shard => open_sweep_journal(path, programs, plan).unwrap_or_else(|e| {
            portopt_trace::error!("bench", "cannot open checkpoint journal {path}: {e}");
            std::process::exit(2);
        }),
        JournalRole::Store => open_store(path, programs, plan)?,
    };
    let line = format!(
        "checkpoint journal: resumed {} completed pairs, {} baselines{} ({path})",
        journal.resumed_pairs(),
        journal.resumed_baselines(),
        if journal.healed_bytes() > 0 {
            format!(", healed {} torn bytes", journal.healed_bytes())
        } else {
            String::new()
        },
    );
    match role {
        JournalRole::Shard => println!("{line}"),
        JournalRole::Store => portopt_trace::info!("bench", "{line}"),
    }
    Some(journal)
}

/// [`open_journal`] for a [`JournalRole::Store`]: creates `target/` if
/// needed, and discards a journal that cannot be replayed.
fn open_store(
    path: &str,
    programs: &[(String, Module)],
    plan: &Sweep,
) -> Option<CheckpointJournal> {
    let opened = ensure_writable(path).and_then(|()| {
        open_sweep_journal(path, programs, plan).or_else(|e| {
            portopt_trace::warn!("bench", "discarding dataset store {path}: {e}");
            std::fs::remove_file(path).map_err(|e| e.to_string())?;
            open_sweep_journal(path, programs, plan).map_err(|e| e.to_string())
        })
    });
    opened
        .inspect_err(|e| {
            portopt_trace::warn!("bench", "no dataset store: {e}; sweeping without one")
        })
        .ok()
}

fn threads(cli: &mut Cli) -> usize {
    cli.value("--threads N", 0, "worker threads, 0 = all cores", parse)
}

/// The flags the `serve` and `ab` bins share.
pub struct ServeArgs {
    /// The model snapshot to serve (`--snapshot`, required).
    pub snapshot: String,
    /// Executor threads (`0` = all available cores).
    pub threads: usize,
    /// Serve stdin/stdout instead of a TCP socket.
    pub stdio: bool,
    /// TCP port for socket mode.
    pub port: u16,
    /// Requests per executor batch.
    pub batch: usize,
}

impl ServeArgs {
    /// Declares `--snapshot`, `--threads`, `--stdio`, `--port` and
    /// `--batch` (default: [`portopt_serve::ServeOptions`]'s batch).
    pub fn declare(cli: &mut Cli) -> Self {
        let batch = portopt_serve::ServeOptions::default().batch;
        ServeArgs {
            snapshot: cli.required("--snapshot PATH", "model snapshot (see `snapshot`)"),
            threads: threads(cli),
            stdio: cli.flag("--stdio", "serve stdin/stdout instead of a TCP socket"),
            port: port(cli),
            batch: cli.value("--batch N", batch, "requests per executor batch", positive),
        }
    }
}

/// `--log-level` and `--trace-out`: the tracer of every bin that logs.
pub struct Tracing {
    level: Option<Level>,
    out: Option<String>,
}

impl Tracing {
    /// Declares `--log-level` and `--trace-out`.
    pub fn declare(cli: &mut Cli) -> Self {
        let spec = "--log-level off|error|warn|info|debug|trace";
        let help = "stderr log level [default: $PORTOPT_LOG, else info]";
        let level = cli.opt(spec, help, Level::parse);
        let help = "also write a JSON-lines trace file, published at a clean exit";
        let out = cli.opt("--trace-out PATH", help, parse);
        Tracing { level, out }
    }

    /// Settles `cli` ([`Cli::finish`]), then brings up the global tracer:
    /// leveled stderr logging (`--log-level`, else `PORTOPT_LOG`, else
    /// `info`) and the optional trace file. Exits 2 if the trace file
    /// cannot be created. Bins publish the file with [`finish_trace`]
    /// before exiting.
    pub fn start(self, cli: Cli) {
        cli.finish();
        let level = portopt_trace::level_from_env_or(self.level.map(Level::as_str));
        if let Some(path) = &self.out {
            if let Err(e) = ensure_writable(path) {
                eprintln!("--trace-out: {e}");
                std::process::exit(2);
            }
        }
        if let Err(e) = portopt_trace::init(level, self.out.as_deref().map(std::path::Path::new)) {
            eprintln!(
                "cannot open --trace-out {}: {e}",
                self.out.unwrap_or_default()
            );
            std::process::exit(2);
        }
    }
}

/// Publishes the `--trace-out` file (atomic temp → rename), if one was
/// requested. Call once at the end of a bin's happy path; a crash before
/// this point leaves only a `.tmp.<pid>` file, never a torn trace
/// presented as complete.
pub fn finish_trace() {
    match portopt_trace::finish() {
        Ok(Some(path)) => portopt_trace::info!("bench", "trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => portopt_trace::warn!("bench", "could not publish trace file: {e}"),
    }
}

/// Writes `bytes` to `path` atomically: a temp file in the same
/// directory, flushed, then renamed over the target (the same publication
/// discipline as `DiskCache::put`). A crash mid-write leaves either the
/// old file or a stray `.tmp` — never a truncated artifact for a reader
/// to choke on.
fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Verifies that `path` can be created and written *now*, creating
/// missing parent directories — called by the `sweep`, `snapshot` and
/// `coordinator` bins before any pricing starts, so a typo'd output path
/// costs seconds, not a sweep.
pub fn ensure_writable(path: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        return Err(format!("{path} is a directory, not a writable file"));
    }
    if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create directory {}: {e}", dir.display()))?;
    }
    // Probe with a sibling temp file (same directory, same rename target
    // as `write_atomic`), so the check exercises the exact permission the
    // final publication needs.
    let probe = format!("{path}.probe.{}", std::process::id());
    std::fs::write(&probe, b"").map_err(|e| format!("{path} is not writable: {e}"))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Writes a dataset as JSON and reports the artifact, exiting with status
/// 2 on failure — the shared output path of the `sweep` bin (shard files),
/// `snapshot --dataset-out` (the merged dataset) and the `coordinator`.
/// Publication is atomic (`write_atomic`): a crash mid-write can never
/// leave a truncated shard for `snapshot --shard`.
pub fn write_dataset(path: &str, ds: &Dataset) {
    let bytes = serde_json::to_vec(ds).unwrap_or_else(|e| {
        portopt_trace::error!("bench", "cannot serialize dataset: {e}");
        std::process::exit(2);
    });
    if let Err(e) = write_atomic(path, &bytes) {
        portopt_trace::error!("bench", "cannot write dataset {path}: {e}");
        std::process::exit(2);
    }
    println!(
        "wrote {path}: {} programs, {} bytes",
        ds.n_programs(),
        bytes.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_core::{JOURNAL_FORMAT_VERSION, JOURNAL_MAGIC};
    use portopt_uarch::MicroArch;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("portopt-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_sweep_that_replayed_a_pair_records_no_report() {
        let dir = scratch("replayed");
        let path = dir.join("sweep.journal");
        let plan = 7u64;
        std::fs::write(
            &path,
            format!(
                "{{\"magic\":\"{JOURNAL_MAGIC}\",\"format_version\":{JOURNAL_FORMAT_VERSION},\
                 \"plan\":\"{plan:016x}\"}}\n{{\"Pair\":{{\"p\":0,\"t\":0,\"row\":[1.0]}}}}\n"
            ),
        )
        .unwrap();
        let journal = CheckpointJournal::open(&path, plan).unwrap();
        assert_eq!(
            (journal.resumed_pairs(), journal.resumed_baselines()),
            (1, 0)
        );
        let args = SweepArgs {
            scale: SweepScale::smoke(),
            scale_name: "replayed-test".into(),
            extended: false,
            threads: 1,
            no_cache: false,
        };
        let (_, report) = Sweep::new(args.gen_options()).run(&[]);
        assert!(!args.write_report(&report, Some(&journal)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_store_is_discarded_and_an_unwritable_one_skipped() {
        let dir = scratch("store");
        let path = dir.join("ds.journal");
        let path = path.to_str().unwrap();
        let plan = Sweep::new(GenOptions::default());
        // A store of another plan (an edited suite or scale) is replaced
        // by an empty one for this plan, which then reopens cleanly.
        drop(CheckpointJournal::open(path, 1).unwrap());
        let store = open_store(path, &[], &plan).expect("a fresh store");
        assert_eq!(store.resumed_pairs() + store.resumed_baselines(), 0);
        drop(store);
        assert!(open_sweep_journal(path, &[], &plan).is_ok());
        // A store whose directory cannot be created is skipped.
        std::fs::write(dir.join("file"), b"").unwrap();
        let blocked = dir.join("file").join("ds.journal");
        assert!(open_store(blocked.to_str().unwrap(), &[], &plan).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_loo_cache_with_one_altered_cell_is_recomputed() {
        let ds = Dataset {
            programs: vec!["a".into(), "b".into()],
            uarchs: vec![MicroArch::xscale(); 2],
            configs: Vec::new(),
            cycles: vec![
                vec![vec![10.0, 20.0], vec![30.0, 15.0]],
                vec![vec![7.0, 8.0], vec![9.0, 3.0]],
            ],
            o3_cycles: vec![vec![12.0, 30.0], vec![7.0, 6.0]],
            features: Vec::new(),
        };
        let best: Vec<Vec<f64>> = (0..2)
            .map(|p| (0..2).map(|u| ds.best_speedup(p, u)).collect())
            .collect();
        let mut loo = LooResult {
            model_speedup: best.clone(),
            best_speedup: best,
            predicted: vec![vec![portopt_passes::OptConfig::o3(); 2]; 2],
        };
        let dir = scratch("loo");
        let path = dir.join("loo.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, serde_json::to_vec(&loo).unwrap()).unwrap();
        assert!(cached_loo(path, &ds).is_some(), "computed on this dataset");

        loo.best_speedup[1][0] *= 1.5;
        std::fs::write(path, serde_json::to_vec(&loo).unwrap()).unwrap();
        assert!(
            cached_loo(path, &ds).is_none(),
            "computed on another dataset"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
