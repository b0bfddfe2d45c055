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
//! cache is read), [`ServeArgs`] (the `serve`/`ab` listener) and
//! [`Tracing`] (`--log-level/--trace-out`).

#![warn(missing_docs)]

pub mod cli;
pub mod coordinator;

use cli::{parse, positive, Cli};
use portopt_core::{Dataset, GenOptions, SweepReport, SweepScale};
use portopt_experiments::loo::{run_loo, LooResult};
use portopt_experiments::{dataset_cached, suite_modules};
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
/// the bins that read the dataset cache, `--no-cache`.
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

    /// Adds `--no-cache`, for the bins that read the dataset cache.
    pub fn cached(mut self, cli: &mut Cli) -> Self {
        let help = "regenerate the dataset instead of reading target/ caches";
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
    /// stderr, so every figure run leaves a perf data point behind.
    pub fn write_report(&self, report: &SweepReport) {
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
    }

    /// Loads or generates the dataset (cached under `target/`). A fresh
    /// generation also records its throughput report.
    pub fn dataset(&self) -> Dataset {
        let path = std::path::PathBuf::from(format!("target/portopt-ds-{}.json", self.tag()));
        let cache = if self.no_cache { None } else { Some(&*path) };
        dataset_cached(&self.gen_options(), cache, |r| self.write_report(r))
    }

    /// Dataset plus the leave-one-out evaluation (also cached).
    pub fn dataset_and_loo(&self) -> (Dataset, LooResult, Vec<Module>) {
        let ds = self.dataset();
        let (_, modules) = suite_modules(2009);
        let cache = format!("target/portopt-loo-{}.json", self.tag());
        if !self.no_cache {
            if let Ok(bytes) = std::fs::read(&cache) {
                if let Ok(loo) = serde_json::from_slice::<LooResult>(&bytes) {
                    if loo.model_speedup.len() == ds.n_programs() {
                        return (ds, loo, modules);
                    }
                }
            }
        }
        let loo = run_loo(&ds, &modules, self.threads);
        if !self.no_cache {
            if let Ok(bytes) = serde_json::to_vec(&loo) {
                let _ = std::fs::write(&cache, bytes);
            }
        }
        (ds, loo, modules)
    }
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
