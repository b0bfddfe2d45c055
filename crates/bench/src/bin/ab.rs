//! A/B-serves two model snapshots over one request stream — the
//! model-zoo comparison harness. Every request is answered by *both*
//! models (same batch boundaries, same snapshot-capture discipline as the
//! single-model `serve` bin), each reply pair is emitted as one JSON
//! line, and the run ends with per-model predicted-vs-O3 cycle stats so
//! "is the linear model good enough to serve?" is one command:
//!
//! ```text
//! # train the pair, then replay a shared stream through both
//! cargo run --release -p portopt-bench --bin snapshot -- --scale smoke
//! cargo run --release -p portopt-bench --bin snapshot -- --scale smoke --model linear
//! cat requests.jsonl | cargo run --release -p portopt-bench --bin ab -- \
//!     --snapshot target/portopt-model-smoke.snap \
//!     --snapshot-b target/portopt-model-smoke-linear.snap --stdio
//!
//! # same, behind one TCP socket (connections handled one at a time)
//! cargo run --release -p portopt-bench --bin ab -- \
//!     --snapshot a.snap --snapshot-b b.snap --port 7210
//! ```
//!
//! Reply lines look like `{"id":4,"agree":true,"a":{...},"b":{...}}`
//! where each side carries its model kind, latency, error (if any) and —
//! for `"apply": true` requests — the predicted-vs-O3 cycle counts. The
//! final stdout line is the summary: per side, requests answered, errors,
//! agreement count, and total O3 vs predicted cycles over every applied
//! request. Shuts down on EOF or a `{"shutdown": true}` line.

use portopt_bench::cli::Cli;
use portopt_bench::{finish_trace, ServeArgs, Tracing};
use portopt_serve::{
    LineAction, PredictionService, ServeResponse, ServiceStats, Snapshot, LOCAL_CONN,
};
use std::io::{BufRead, Write};

/// Per-side running totals over the shared stream.
#[derive(Default)]
struct SideStats {
    requests: u64,
    errors: u64,
    applied: u64,
    o3_cycles: f64,
    predicted_cycles: f64,
    total_latency_ms: f64,
}

impl SideStats {
    fn absorb(&mut self, r: &ServeResponse) {
        self.requests += 1;
        self.total_latency_ms += r.latency_ms;
        if r.error.is_some() {
            self.errors += 1;
        }
        if let Some(apply) = &r.stats {
            self.applied += 1;
            self.o3_cycles += apply.o3_cycles;
            self.predicted_cycles += apply.predicted_cycles;
        }
    }

    /// Total-cycles speedup over every applied request (0 when none were).
    fn speedup(&self) -> f64 {
        if self.predicted_cycles > 0.0 {
            self.o3_cycles / self.predicted_cycles
        } else {
            0.0
        }
    }

    fn to_json(&self, kind: &str) -> String {
        format!(
            "{{\"kind\":\"{kind}\",\"requests\":{},\"errors\":{},\"applied\":{},\
             \"o3_cycles\":{:.1},\"predicted_cycles\":{:.1},\"speedup\":{:.4},\
             \"mean_latency_ms\":{:.4}}}",
            self.requests,
            self.errors,
            self.applied,
            self.o3_cycles,
            self.predicted_cycles,
            self.speedup(),
            if self.requests > 0 {
                self.total_latency_ms / self.requests as f64
            } else {
                0.0
            },
        )
    }
}

/// One side of a reply-pair line: kind, latency, error, apply cycles.
fn side_json(kind: &str, r: &ServeResponse) -> String {
    let mut s = format!(
        "{{\"kind\":\"{kind}\",\"latency_ms\":{:.4},\"snapshot_version\":{}",
        r.latency_ms, r.snapshot_version
    );
    if let Some(e) = &r.error {
        s.push_str(&format!(",\"error\":{}", serde_json::to_string(e).unwrap()));
    }
    if let Some(apply) = &r.stats {
        s.push_str(&format!(
            ",\"o3_cycles\":{:.1},\"predicted_cycles\":{:.1},\"speedup\":{:.4}",
            apply.o3_cycles, apply.predicted_cycles, apply.speedup
        ));
    }
    s.push('}');
    s
}

/// Drains both services and writes one paired line per request. Both
/// sides saw the same submissions in the same order, so the reply
/// streams zip positionally.
fn flush_pairs(
    a: &PredictionService,
    b: &PredictionService,
    kinds: (&str, &str),
    totals: &mut (SideStats, SideStats),
    out: &mut impl Write,
) -> std::io::Result<()> {
    let mut sa = ServiceStats::default();
    let mut sb = ServiceStats::default();
    let ra = a.drain(&mut sa);
    let rb = b.drain(&mut sb);
    if ra.len() != rb.len() {
        portopt_trace::warn!(
            "bench.ab",
            "reply streams diverged: {} vs {} replies in one batch",
            ra.len(),
            rb.len()
        );
    }
    for (x, y) in ra.iter().zip(rb.iter()) {
        totals.0.absorb(x);
        totals.1.absorb(y);
        let agree = x.error.is_none() && y.error.is_none() && x.choices == y.choices;
        writeln!(
            out,
            "{{\"id\":{},\"agree\":{agree},\"a\":{},\"b\":{}}}",
            x.id,
            side_json(kinds.0, x),
            side_json(kinds.1, y),
        )?;
    }
    out.flush()
}

/// Feeds every line of `reader` to both services, flushing paired replies
/// at each `batch` boundary and at EOF. Returns `true` on a shutdown
/// sentinel (vs. plain EOF).
fn run_ab(
    reader: impl BufRead,
    out: &mut impl Write,
    a: &PredictionService,
    b: &PredictionService,
    kinds: (&str, &str),
    batch: usize,
    totals: &mut (SideStats, SideStats),
) -> std::io::Result<bool> {
    let mut pending = 0usize;
    let mut shutdown = false;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let action_a = a.submit_line_for(LOCAL_CONN, &line);
        let _ = b.submit_line_for(LOCAL_CONN, &line);
        match action_a {
            LineAction::Shutdown => {
                shutdown = true;
                break;
            }
            LineAction::Queued => pending += 1,
            // Admin commands (reload/stats) and refusals are single-model
            // concepts; the A/B harness only replays predictions.
            _ => portopt_trace::warn!("bench.ab", "ignoring non-prediction line: {line}"),
        }
        if pending >= batch {
            flush_pairs(a, b, kinds, totals, out)?;
            pending = 0;
        }
    }
    flush_pairs(a, b, kinds, totals, out)?;
    Ok(shutdown)
}

fn load(path: &str) -> Snapshot {
    Snapshot::load(path).unwrap_or_else(|e| {
        portopt_trace::error!("bench.ab", "cannot serve {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut cli = Cli::new("ab", "A/B-serves two snapshots over one request stream.");
    let args = ServeArgs::declare(&mut cli);
    let path_b = cli.required("--snapshot-b PATH", "the second snapshot of the pair");
    Tracing::declare(&mut cli).start(cli);
    let path_a = args.snapshot;
    let snap_a = load(&path_a);
    let snap_b = load(&path_b);
    let kind_a = snap_a.meta.model_kind.as_str();
    let kind_b = snap_b.meta.model_kind.as_str();
    portopt_trace::info!(
        "bench.ab",
        "A/B: {path_a} ({kind_a}, {} pairs) vs {path_b} ({kind_b}, {} pairs)",
        snap_a.compiler.model().len(),
        snap_b.compiler.model().len()
    );
    let service_a = PredictionService::new(snap_a, args.threads);
    let service_b = PredictionService::new(snap_b, args.threads);
    let mut totals = (SideStats::default(), SideStats::default());
    let kinds = (kind_a, kind_b);

    if args.stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        if let Err(e) = run_ab(
            stdin.lock(),
            &mut out,
            &service_a,
            &service_b,
            kinds,
            args.batch,
            &mut totals,
        ) {
            portopt_trace::error!("bench.ab", "i/o error: {e}");
            std::process::exit(1);
        }
    } else {
        let addr = format!("127.0.0.1:{}", args.port);
        let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
            portopt_trace::error!("bench.ab", "cannot bind {addr}: {e}");
            std::process::exit(2);
        });
        portopt_trace::info!(
            "bench.ab",
            "listening on {addr}: connections handled one at a time, paired replies \
             (stop with a {{\"shutdown\": true}} request)"
        );
        loop {
            let (stream, peer) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    portopt_trace::warn!("bench.ab", "accept error: {e}");
                    continue;
                }
            };
            portopt_trace::debug!("bench.ab", "connection from {peer}");
            let reader = std::io::BufReader::new(stream.try_clone().unwrap_or_else(|e| {
                portopt_trace::error!("bench.ab", "cannot clone socket: {e}");
                std::process::exit(1);
            }));
            let mut out = stream;
            match run_ab(
                reader,
                &mut out,
                &service_a,
                &service_b,
                kinds,
                args.batch,
                &mut totals,
            ) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => portopt_trace::warn!("bench.ab", "connection error: {e}"),
            }
        }
    }

    // The summary is the last stdout line either way, so a piped consumer
    // can take `tail -n 1`.
    println!(
        "{{\"cmd\":\"ab-summary\",\"a\":{},\"b\":{}}}",
        totals.0.to_json(kind_a),
        totals.1.to_json(kind_b),
    );
    portopt_trace::info!(
        "bench.ab",
        "A ({kind_a}): {} requests, {} errors, speedup {:.4}; \
         B ({kind_b}): {} requests, {} errors, speedup {:.4}",
        totals.0.requests,
        totals.0.errors,
        totals.0.speedup(),
        totals.1.requests,
        totals.1.errors,
        totals.1.speedup(),
    );
    finish_trace();
}
