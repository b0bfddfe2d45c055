//! `perfbench`: the end-to-end and per-layer benchmark of the portopt
//! workspace. See `README.md` beside this crate for what each workload
//! measures and why.
//!
//! ```text
//! perfbench --workload sweep|serve_features|optimise --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! carrying every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`). A failed output check prints `"correct":false`
//! and exits with status 1.

mod common;
mod optimise;
mod serve_features;
mod serving;
mod stats;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports each one; a
/// layer its workload never calls reads `0`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("passes.compile.calls", "count"),
    ("passes.compile.busy_s", "s"),
    ("passes.compile.static_insts", "count"),
    ("core.image_share_ratio", "ratio"),
    ("sim.profile.calls", "count"),
    ("sim.profile.busy_s", "s"),
    ("sim.profile.dyn_insts", "count"),
    ("sim.profile.minsts_per_s", "Minst/s"),
    ("sim.profile.fuel_exhausted", "count"),
    ("sim.profile.slowdown_vs_interp", "ratio"),
    ("sim.price.prepare_busy_s", "s"),
    ("sim.price.evaluate_calls", "count"),
    ("sim.price.evaluate_busy_s", "s"),
    ("ir.interp.minsts_per_s", "Minst/s"),
    ("exec.sweep.busy_share", "ratio"),
    ("exec.sweep.max_pair_s", "s"),
    ("ml.train_s.knn", "s"),
    ("ml.train_s.linear", "s"),
    ("ml.train_s.clustered", "s"),
    ("ml.predict_us", "us"),
    ("experiments.loo.busy_s", "s"),
    ("experiments.loo.fraction_of_best", "ratio"),
    ("serve.decode_us", "us"),
    ("serve.decode_ms.module", "ms"),
    ("serve.drain_us_per_req", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.p99_ms_loaded", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.refused", "count"),
    ("serve.reload_ms", "ms"),
    ("serve.snapshot_load_s", "s"),
    ("serve.apply.speedup_geomean", "ratio"),
    ("loadgen.late_ms.max", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.mirror_pair_ms", "ms"),
    ("bench.unattributed_share", "ratio"),
    ("bench.fail_ratio", "ratio"),
    ("bench.tail_ms", "ms"),
    ("bench.samples", "count"),
    ("bench.tail_pct", "pct"),
    ("bench.threads", "count"),
    ("bench.setup_pairs_per_s", "1/s"),
    ("bench.work_s", "s"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Every metric the workload measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload sweep|serve_features|optimise \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "serve_features", "optimise"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders a metric value; JSON has no infinities, so a non-finite
/// value (a timing with failed requests) prints as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: every metric of the selected kind, in table order.
fn result_line(out: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match out.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            format!(
                r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                json_number(value)
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tr = tracer::Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, &tr),
        "serve_features" => serve_features::run(args.seed, args.seconds, &tr),
        _ => optimise::run(args.seed, args.seconds, &tr),
    };
    out.set("peak_rss_mb", common::peak_rss_mb());
    out.set("bench.threads", common::threads() as f64);
    out.set(
        "bench.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if tr.on() {
        let spans = tr.spans();
        out.set(
            "bench.unattributed_share",
            tracer::unattributed_share(&spans),
        );
        let path = common::out_dir().join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => eprintln!("perfbench: {} spans -> {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        eprint!("{}", tracer::table(&spans));
    }
    let line = result_line(&out, args.trace);
    println!("{line}");
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} output checks failed",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn cli_accepts_the_driver_form_and_rejects_the_rest() {
        let a = args("--workload sweep --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep", 3, 10, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload sweep --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload sweep --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload sweep --seconds 10 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 10 --trace 0 --extra 1").is_err());
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.check(true);
        let e2e = serde_json::parse(&result_line(&out, false)).unwrap();
        let metrics = e2e.field("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(e2e.field("correct").unwrap(), &serde::Value::Bool(true));
        let layer = serde_json::parse(&result_line(&out, true)).unwrap();
        assert_eq!(
            layer.field("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
        // A failed check flips `correct`.
        out.check(false);
        let bad = serde_json::parse(&result_line(&out, false)).unwrap();
        assert_eq!(bad.field("correct").unwrap(), &serde::Value::Bool(false));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let doc = serde_json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| match m.field(f).unwrap() {
                        serde::Value::Str(s) => s.clone(),
                        v => panic!("{f} is not a string: {v:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
