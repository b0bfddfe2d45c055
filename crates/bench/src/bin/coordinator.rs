//! The sweep coordinator: owns a `ShardSpec` plan, leases shards to
//! `sweep --worker` rigs over TCP (JSON-lines wire protocol, see
//! `docs/SWEEP.md`), retries shards whose workers die, stall past the
//! lease deadline, or refuse, and writes the merged dataset — byte
//! identical to an unsharded sweep, however many rigs crashed along the
//! way.
//!
//! ```text
//! # one coordinator, two expendable rigs
//! cargo run --release -p portopt-bench --bin coordinator -- \
//!     --scale smoke --shard-count 4 --port 7310 --out merged.json &
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --worker 127.0.0.1:7310 --profile-cache target/pcache &
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --worker 127.0.0.1:7310 --profile-cache target/pcache
//! ```
//!
//! Worker loss, lease expiry, retries, refusals and deduped duplicate
//! results are all visible in the exit counters (`coordinator: granted=…
//! workers_lost=…`) — and, live while the plan runs, on the plaintext
//! `--metrics-port` endpoint (`portopt_coord_*` lines, same read-to-EOF
//! contract as the `serve` bin's metrics port).

use portopt_bench::cli::{parse, positive, Cli};
use portopt_bench::coordinator::{
    run_coordinator, CoordConfig, CoordMetrics, Coordinator, DEFAULT_BACKOFF_MS,
    DEFAULT_LEASE_TIMEOUT_MS, DEFAULT_RETRY_BUDGET,
};
use portopt_bench::{
    ensure_writable, finish_trace, metrics_port, port, scale_name, shard_count, write_dataset,
    Tracing,
};
use std::io::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serves `metrics.to_text()` to every connection until `stop`: accept,
/// write, drop (a scraper reads to EOF) — the same loop shape as the
/// `serve` bin's metrics endpoint.
fn metrics_endpoint_loop(listener: &TcpListener, metrics: &CoordMetrics, stop: &AtomicBool) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.write_all(metrics.to_text().as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                portopt_trace::warn!("bench.coordinator", "metrics endpoint accept error: {e}")
            }
        }
    }
}

fn main() {
    let mut cli = Cli::new("coordinator", "Leases sweep shards to worker rigs.");
    let scale_name = scale_name(&mut cli);
    let shard_count = shard_count(&mut cli);
    let port = port(&mut cli);
    let help = "merged dataset [default: target/portopt-merged-SCALE.json]";
    let out = cli.opt("--out PATH", help, parse);
    let spec = "--lease-timeout-ms MS";
    let help = "deadline before a shard is re-leased";
    let lease_timeout_ms = cli.value(spec, DEFAULT_LEASE_TIMEOUT_MS, help, positive);
    let help = "attempts per shard before the plan aborts";
    let retry_budget = cli.value("--retry-budget N", DEFAULT_RETRY_BUDGET, help, positive);
    let metrics_port = metrics_port(&mut cli);
    Tracing::declare(&mut cli).start(cli);

    let out = out.unwrap_or_else(|| format!("target/portopt-merged-{scale_name}.json"));
    // Fail fast before any worker burns compute on a plan whose result
    // could never be written.
    if let Err(e) = ensure_writable(&out) {
        portopt_trace::error!("bench.coordinator", "refusing to coordinate: {e}");
        std::process::exit(2);
    }

    let listener = TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
        portopt_trace::error!("bench.coordinator", "cannot listen on port {port}: {e}");
        std::process::exit(2);
    });
    let addr = listener.local_addr().expect("bound socket has an address");
    let config = CoordConfig {
        shard_count,
        lease_timeout: Duration::from_millis(lease_timeout_ms),
        retry_budget,
        backoff_base: Duration::from_millis(DEFAULT_BACKOFF_MS),
    };
    println!(
        "coordinator: {} shards on {addr} (lease timeout {lease_timeout_ms}ms, retry budget {retry_budget})",
        config.shard_count,
    );
    let coord = Arc::new(Mutex::new(Coordinator::new(config)));
    let metrics = coord.lock().expect("coordinator").metrics();

    // Live fleet counters while the plan runs: the endpoint thread serves
    // the shared CoordMetrics and is told to stop once the plan resolves.
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_thread = metrics_port.map(|port| {
        let listener = TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
            portopt_trace::error!(
                "bench.coordinator",
                "cannot listen on metrics port {port}: {e}"
            );
            std::process::exit(2);
        });
        listener
            .set_nonblocking(true)
            .expect("nonblocking metrics listener");
        let shown = listener.local_addr().expect("bound socket has an address");
        println!("coordinator: metrics on {shown}");
        let metrics = metrics.clone();
        let stop = metrics_stop.clone();
        std::thread::spawn(move || metrics_endpoint_loop(&listener, &metrics, &stop))
    });

    let outcome = run_coordinator(listener, coord);
    metrics_stop.store(true, Ordering::Release);
    if let Some(h) = metrics_thread {
        let _ = h.join();
    }
    match outcome {
        Ok(merged) => {
            println!("{}", metrics.render_line());
            write_dataset(&out, &merged);
            finish_trace();
        }
        Err(e) => {
            println!("{}", metrics.render_line());
            portopt_trace::error!("bench.coordinator", "coordinator failed: {e}");
            finish_trace();
            std::process::exit(1);
        }
    }
}
