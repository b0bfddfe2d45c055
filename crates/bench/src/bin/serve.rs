//! Serves predictions from a model snapshot — the online half of the
//! serving path. Loads the artifact written by the `snapshot` bin (no
//! dataset regeneration, no retraining) and answers JSON-lines requests,
//! batched onto the executor. The wire protocol is specified in
//! `docs/SERVING.md`.
//!
//! ```text
//! # stdin/stdout, for piping and tests
//! echo '{"features": [...], "uarch": "xscale"}' \
//!   | cargo run --release -p portopt-bench --bin serve -- \
//!       --snapshot target/portopt-model-smoke.snap --stdio
//!
//! # concurrent TCP socket: bounded connections, cross-connection
//! # batching window, hot snapshot reload on file change, bounded
//! # admission with per-client backpressure, live metrics endpoint
//! cargo run --release -p portopt-bench --bin serve -- \
//!     --snapshot target/portopt-model-smoke.snap --port 7209 \
//!     --max-conns 128 --batch-window-ms 5 --watch-snapshot \
//!     --queue-cap 4096 --per-conn-quota 256 --metrics-port 9209
//! ```
//!
//! Shuts down on stdin EOF (stdio mode) or a `{"shutdown": true}` request
//! (either mode), then reports latency/throughput counters on stderr. A
//! `{"cmd": "reload"}` request (or `--watch-snapshot`) hot-swaps the
//! snapshot without dropping in-flight requests; a `{"cmd": "stats"}`
//! request answers with a one-line JSON metrics snapshot (live p50/p99
//! latency, queue depth, refusal counters).

use portopt_bench::cli::{parse, positive, Cli};
use portopt_bench::{finish_trace, metrics_port, ServeArgs, Tracing};
use portopt_serve::{
    ModelKind, PredictionService, ServeOptions, ServiceStats, Snapshot, WatchEvent,
    DEFAULT_WATCH_INTERVAL_MS,
};
use std::time::Duration;

fn main() {
    let mut cli = Cli::new("serve", "Serves predictions from a model snapshot.");
    let args = ServeArgs::declare(&mut cli);
    let help = "refuse a snapshot holding another kind (knn|linear|clustered)";
    let expect_model = cli.opt("--expect-model KIND", help, ModelKind::parse);
    let mut opts = ServeOptions {
        batch: args.batch,
        ..ServeOptions::default()
    };
    let help = "cross-connection batching window: a lone request's wait";
    let window_ms = opts.window.as_millis() as u64;
    let window_ms = cli.value("--batch-window-ms MS", window_ms, help, parse);
    opts.window = Duration::from_millis(window_ms);
    let help = "maximum simultaneous TCP connections";
    opts.max_conns = cli.value("--max-conns N", opts.max_conns, help, positive);
    let help = "refuse requests past N pending [default: unbounded]";
    opts.queue_cap = cli.opt("--queue-cap N", help, positive);
    let help = "stop reading a connection with N outstanding [default: unbounded]";
    opts.per_conn_quota = cli.opt("--per-conn-quota N", help, positive);
    opts.metrics_port = metrics_port(&mut cli);
    let watch = cli.flag("--watch-snapshot", "hot-reload the snapshot file on change");
    opts.watch_interval = watch.then(|| Duration::from_millis(DEFAULT_WATCH_INTERVAL_MS));
    Tracing::declare(&mut cli).start(cli);

    let path = args.snapshot;
    // `--expect-model` refuses a wrong-kind artifact off its header, before
    // the payload is decoded — the guard for deployments that pin a kind.
    let snap = match expect_model {
        Some(kind) => Snapshot::load_expecting(&path, kind),
        None => Snapshot::load(&path),
    }
    .unwrap_or_else(|e| {
        portopt_trace::error!("bench.serve", "cannot serve {path}: {e}");
        std::process::exit(2);
    });
    portopt_trace::info!(
        "bench.serve",
        "serving {path}: {} model, {} training pairs, format v{}",
        snap.meta.model_kind,
        snap.compiler.model().len(),
        snap.meta.format_version
    );
    let service = PredictionService::new(snap, args.threads).with_reload_path(&path);
    let stats = if args.stdio {
        let mut stats = ServiceStats::default();
        // Stdio has no admin channel worth blocking on, so the watcher (if
        // requested) runs detached and lives as long as the process.
        if watch {
            let handle = service.reload_handle();
            let watch_path = path.clone();
            std::thread::spawn(move || {
                let run_forever = Box::leak(Box::new(std::sync::atomic::AtomicBool::new(false)));
                handle.watch(
                    &watch_path,
                    Duration::from_millis(DEFAULT_WATCH_INTERVAL_MS),
                    run_forever,
                    WatchEvent::log_to_stderr,
                );
            });
        }
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = service.run_lines(stdin.lock(), stdout.lock(), args.batch, &mut stats) {
            portopt_trace::error!("bench.serve", "i/o error: {e}");
            std::process::exit(1);
        }
        stats
    } else {
        let addr = format!("127.0.0.1:{}", args.port);
        let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
            portopt_trace::error!("bench.serve", "cannot bind {addr}: {e}");
            std::process::exit(2);
        });
        portopt_trace::info!(
            "bench.serve",
            "listening on {addr}: up to {} connections, batch {} / window {} ms{}{}{}{} \
             (stop with a {{\"shutdown\": true}} request)",
            opts.max_conns,
            opts.batch,
            opts.window.as_millis(),
            match opts.queue_cap {
                Some(cap) => format!(", queue cap {cap}"),
                None => String::new(),
            },
            match opts.per_conn_quota {
                Some(q) => format!(", per-conn quota {q}"),
                None => String::new(),
            },
            match opts.metrics_port {
                Some(p) => format!(", metrics on 127.0.0.1:{p}"),
                None => String::new(),
            },
            if watch {
                ", watching the snapshot file"
            } else {
                ""
            },
        );
        match service.run_concurrent(listener, &opts) {
            Ok(stats) => stats,
            Err(e) => {
                portopt_trace::error!("bench.serve", "accept error: {e}");
                std::process::exit(1);
            }
        }
    };
    portopt_trace::info!("bench.serve", "{}", stats.report());
    finish_trace();
}
