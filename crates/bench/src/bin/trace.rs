//! Offline trace analysis: ingests a `--trace-out` JSON-lines file and
//! reports where the time went — per-stage breakdown, slowest
//! `(program, setting)` pricings, per-program and per-microarchitecture
//! attribution, queue-wait vs compute ratio, and a depth-indented span
//! tree.
//!
//! ```text
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --trace-out target/sweep.trace
//! cargo run --release -p portopt-bench --bin trace -- target/sweep.trace --top 10
//! ```
//!
//! The file is validated like the checkpoint journal: header first, then
//! every complete record, with a torn final line (producer killed
//! mid-append) reported rather than fatal. Span opens and closes are
//! cross-checked ([`portopt_trace::read::check_spans`]); a file that
//! violates the open/close discipline exits 2, because it means the
//! producer is buggy, not merely interrupted. See `docs/OBSERVABILITY.md`
//! for the format and schema.

use portopt_bench::cli::{parse, Cli};
use portopt_trace::read::{check_spans, read_trace, Json, TraceRecord};
use std::collections::HashMap;

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// One completed span, with its open and close context joined.
struct Closed {
    target: String,
    name: String,
    dur_us: u64,
    open_fields: Vec<(String, Json)>,
    close_fields: Vec<(String, Json)>,
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn main() {
    let mut cli = Cli::new("trace", "Reports where a `--trace-out` file's time went.");
    let top = cli.value("--top N", 10, "rows per ranking table", parse);
    let tree_max = cli.value("--tree-max N", 100, "span-tree lines shown", parse);
    let path = cli.positional("FILE", "the JSON-lines trace file");
    cli.finish();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let tf = read_trace(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid trace: {e}");
        std::process::exit(2);
    });
    let dangling = check_spans(&tf.records).unwrap_or_else(|e| {
        eprintln!("{path} violates the span discipline: {e}");
        std::process::exit(2);
    });

    println!(
        "{path}: bin `{}`, format v{}, {} records{}",
        tf.header.bin,
        tf.header.format_version,
        tf.records.len(),
        if tf.torn_tail {
            " (torn tail: producer died mid-append)"
        } else {
            ""
        },
    );
    if !dangling.is_empty() {
        println!(
            "  {} span(s) never closed (ids {:?}{}) — normal for an interrupted run",
            dangling.len(),
            &dangling[..dangling.len().min(8)],
            if dangling.len() > 8 { ", …" } else { "" },
        );
    }

    // Join opens with closes into completed spans, preserving file order.
    let mut open_at: HashMap<u64, (String, String, Vec<(String, Json)>)> = HashMap::new();
    let mut closed: Vec<Closed> = Vec::new();
    for r in &tf.records {
        match r {
            TraceRecord::SpanOpen {
                id,
                target,
                name,
                fields,
                ..
            } => {
                open_at.insert(*id, (target.clone(), name.clone(), fields.clone()));
            }
            TraceRecord::SpanClose {
                id, dur_us, fields, ..
            } => {
                if let Some((target, name, open_fields)) = open_at.remove(id) {
                    closed.push(Closed {
                        target,
                        name,
                        dur_us: *dur_us,
                        open_fields,
                        close_fields: fields.clone(),
                    });
                }
            }
            TraceRecord::Event { .. } => {}
        }
    }

    // --- Per-stage breakdown: sum/count/mean/max by (target, name). ---
    let mut stages: HashMap<(String, String), (u64, u64, u64)> = HashMap::new(); // (count, sum, max)
    for c in &closed {
        let e = stages
            .entry((c.target.clone(), c.name.clone()))
            .or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += c.dur_us;
        e.2 = e.2.max(c.dur_us);
    }
    let mut stage_rows: Vec<_> = stages.into_iter().collect();
    stage_rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1));
    println!("\nper-stage time (completed spans, sorted by total):");
    println!(
        "  {:<32} {:>7} {:>12} {:>12} {:>12}",
        "stage", "count", "total", "mean", "max"
    );
    for ((target, name), (count, sum, max)) in &stage_rows {
        println!(
            "  {:<32} {:>7} {:>12} {:>12} {:>12}",
            format!("{target}/{name}"),
            count,
            fmt_us(*sum),
            fmt_us(sum / count.max(&1)),
            fmt_us(*max),
        );
    }

    // --- Profile rate: instructions per second over the profiling runs
    // that completed (a run served from a cache opens no span; a failed
    // run carries no `dyn_insts`). ---
    let (mut runs, mut insts, mut us) = (0u64, 0u64, 0u64);
    for c in closed
        .iter()
        .filter(|c| c.target == "core.dataset" && c.name == "profile")
    {
        if let Some(n) = field(&c.close_fields, "dyn_insts").and_then(Json::as_u64) {
            runs += 1;
            insts += n;
            us += c.dur_us;
        }
    }
    if runs == 0 {
        println!("\nprofile rate: 0 runs (no profiling run completed in this trace)");
    } else {
        println!(
            "\nprofile rate: {runs} runs, {:.1} Minst, {:.2} Minst/s",
            insts as f64 / 1e6,
            insts as f64 / us.max(1) as f64,
        );
    }

    // --- Pricing spans: the per-(program, setting) unit of sweep work. ---
    let pricings: Vec<&Closed> = closed.iter().filter(|c| c.name == "price_pair").collect();
    println!("\npricing spans: {}", pricings.len());
    if !pricings.is_empty() {
        let mut slowest: Vec<&&Closed> = pricings.iter().collect();
        slowest.sort_by(|a, b| b.dur_us.cmp(&a.dur_us));
        println!(
            "  top {} slowest (program, setting):",
            top.min(slowest.len())
        );
        for c in slowest.iter().take(top) {
            let program = field(&c.open_fields, "program")
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".into());
            let t = field(&c.open_fields, "t")
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".into());
            let source = field(&c.close_fields, "source")
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".into());
            println!(
                "    {:>10}  {program} setting {t} ({source})",
                fmt_us(c.dur_us)
            );
        }
        // Per-program totals.
        let mut by_program: HashMap<String, (u64, u64)> = HashMap::new();
        for c in &pricings {
            let program = field(&c.open_fields, "program")
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".into());
            let e = by_program.entry(program).or_insert((0, 0));
            e.0 += 1;
            e.1 += c.dur_us;
        }
        let mut rows: Vec<_> = by_program.into_iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1));
        println!("  top {} programs by pricing time:", top.min(rows.len()));
        for (program, (count, sum)) in rows.iter().take(top) {
            println!("    {:>10}  {program} ({count} pairs)", fmt_us(*sum));
        }
    }

    // --- Per-microarchitecture attribution ("uarch evaluated" events). ---
    let mut by_uarch: HashMap<String, (u64, u64)> = HashMap::new();
    for r in &tf.records {
        if let TraceRecord::Event { msg, fields, .. } = r {
            if msg == "uarch evaluated" {
                let u = field(fields, "u")
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "?".into());
                let eval_us = field(fields, "eval_us").and_then(Json::as_u64).unwrap_or(0);
                let e = by_uarch.entry(u).or_insert((0, 0));
                e.0 += 1;
                e.1 += eval_us;
            }
        }
    }
    if !by_uarch.is_empty() {
        let mut rows: Vec<_> = by_uarch.into_iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1));
        println!(
            "\ntop {} microarchitectures by evaluation time:",
            top.min(rows.len())
        );
        for (u, (count, sum)) in rows.iter().take(top) {
            println!("  {:>10}  uarch {u} ({count} evaluations)", fmt_us(*sum));
        }
    }

    // --- Queue-wait vs compute, from the executor's drain events. ---
    let (mut compute_us, mut idle_us, mut drains) = (0u64, 0u64, 0u64);
    for r in &tf.records {
        if let TraceRecord::Event { msg, fields, .. } = r {
            if msg == "map_indexed drained" {
                drains += 1;
                compute_us += field(fields, "compute_us")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                idle_us += field(fields, "idle_us").and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    if drains > 0 {
        let total = (compute_us + idle_us).max(1);
        println!(
            "\nexecutor: {} drain(s), compute {} vs queue-wait {} ({:.1}% waiting)",
            drains,
            fmt_us(compute_us),
            fmt_us(idle_us),
            idle_us as f64 * 100.0 / total as f64,
        );
    }

    // --- Depth-indented span tree, in file order. ---
    let mut dur_of: HashMap<u64, u64> = HashMap::new();
    for r in &tf.records {
        if let TraceRecord::SpanClose { id, dur_us, .. } = r {
            dur_of.insert(*id, *dur_us);
        }
    }
    let mut depth_of: HashMap<u64, usize> = HashMap::new();
    let mut printed = 0usize;
    let mut skipped = 0usize;
    println!("\nspan tree (file order):");
    for r in &tf.records {
        if let TraceRecord::SpanOpen {
            id,
            parent,
            target,
            name,
            ..
        } = r
        {
            let depth = parent
                .and_then(|p| depth_of.get(&p).copied())
                .map_or(0, |d| d + 1);
            depth_of.insert(*id, depth);
            if printed >= tree_max {
                skipped += 1;
                continue;
            }
            printed += 1;
            let dur = dur_of
                .get(id)
                .map(|d| fmt_us(*d))
                .unwrap_or_else(|| "open".into());
            println!("  {}{target}/{name} [{dur}]", "  ".repeat(depth));
        }
    }
    if skipped > 0 {
        println!("  … {skipped} more span(s) (raise with --tree-max)");
    }
}
