//! The `optimise` workload: a closed loop of one client sending every
//! suite program as a raw module with `apply: true`, once per pass and
//! each time on another seeded μarch, the next request only after the
//! previous reply arrives. The service profiles each at
//! `-O3`, predicts, recompiles with the prediction and profiles that
//! binary too — the `passes` + `sim` layers one image at a time on the
//! latency path, with large module lines through the tree decoder.
//!
//! Every request is held out: two snapshots are trained on a seeded
//! split of the fixed training pool, one program per category each, and
//! each program is sent to a server on the snapshot that never saw it
//! (the first fold's server answers everything outside its own fold,
//! then the second fold's answers the first fold). So every run requests
//! the whole suite.
//!
//! Every reply must carry the choices a direct `predict_from_counters`
//! on the `-O3` counters returns, and a `stats.speedup` bit-equal to the
//! same computation done in process.
//!
//! The latency is the median over every request, and the throughput is
//! the requests answered per second of the closed loop. Sending each
//! program on several μarchs, not one, averages over what the model
//! happens to predict for a seed, which decides the cost of profiling
//! the predicted binary.

use crate::common::{self, Stream, LIMITS};
use crate::serving::{self, Server};
use crate::stats;
use crate::tracer::Tracer;
use crate::Outcome;
use portopt_exec::Executor;
use portopt_ir::Module;
use portopt_passes::{compile_with_stats, CodeImage, OptConfig};
use portopt_serve::{PredictionService, RequestInput, ServeRequest};
use portopt_sim::{evaluate, profile, ExecProfile};
use portopt_uarch::{MicroArch, MicroArchSpace};
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Passes over the suite per run: three per twenty seconds of
/// `--seconds` (enough requests for a p90 with ten beyond it), at least
/// two. Each pass sends every program on a μarch of its own.
fn cycles(seconds: u64) -> usize {
    (seconds as usize * 3 / 20).max(2)
}

/// What recomputing one program's answers cost.
#[derive(Debug, Default)]
struct Costs {
    compile_calls: u64,
    compile_s: f64,
    static_insts: u64,
    profile_calls: u64,
    profile_s: f64,
    dyn_insts: u64,
    evaluate_calls: u64,
    evaluate_s: f64,
    profile_errors: u64,
}

/// Recomputes what the service answers for `apply` requests of one
/// program on each of `uarchs`: `-O3` compile and profile (once), then
/// per μarch price it, predict from the counters, and compile, profile
/// (once per distinct prediction) and price the prediction. Returns the
/// choices and speedup per μarch, and what the calls cost.
fn recompute(
    compiler: &portopt_core::PortableCompiler,
    module: &Module,
    uarchs: &[MicroArch],
    tr: &Tracer,
    parent: u64,
    req: u64,
) -> (Vec<(Vec<u8>, f64)>, Costs) {
    let mut c = Costs::default();
    let build = |cfg: &OptConfig, c: &mut Costs| {
        let ((img, st), s) = tr.time(
            "passes::compile_with_stats",
            Some(parent),
            Some(req),
            || compile_with_stats(module, cfg),
        );
        c.compile_calls += 1;
        c.compile_s += s;
        c.static_insts += st.insts_after_opt as u64;
        let (prof, s) = tr.time("sim::profile", Some(parent), Some(req), || {
            profile(&img, module, &[], LIMITS)
        });
        c.profile_calls += 1;
        c.profile_s += s;
        match prof {
            Ok(p) => {
                c.dyn_insts += p.dyn_insts;
                Some((img, p))
            }
            Err(_) => {
                c.profile_errors += 1;
                None
            }
        }
    };
    let price = |(img, prof): &(CodeImage, ExecProfile), ua: &MicroArch, c: &mut Costs| {
        let (t, s) = tr.time("sim::evaluate", Some(parent), Some(req), || {
            evaluate(img, prof, ua)
        });
        c.evaluate_calls += 1;
        c.evaluate_s += s;
        t
    };
    let Some(o3) = build(&OptConfig::o3(), &mut c) else {
        return (Vec::new(), c);
    };
    let mut built = HashMap::new();
    let answers = uarchs
        .iter()
        .map(|ua| {
            let t3 = price(&o3, ua, &mut c);
            let (cfg, _) = tr.time(
                "PortableCompiler::predict_from_counters",
                Some(parent),
                Some(req),
                || compiler.predict_from_counters(&t3.counters, ua),
            );
            let bin = built
                .entry(cfg.to_choices())
                .or_insert_with(|| build(&cfg, &mut c));
            let speedup = match bin {
                Some(b) => t3.cycles / price(b, ua, &mut c).cycles,
                None => f64::NAN,
            };
            (cfg.to_choices(), speedup)
        })
        .collect();
    (answers, c)
}

pub fn run(seed: u64, seconds: u64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let served = serving::set_up(seed, "optimise", 2, tr);
    out.set("setup_s", served.setup_s);
    out.set("bench.setup_pairs_per_s", served.pairs_per_s);
    out.set("serve.snapshot_load_s", served.load_s);

    // Every suite program on a seeded μarch of its own in each pass.
    let n = served.progs.len();
    let cycles = cycles(seconds);
    let uarchs: Vec<Vec<MicroArch>> = (0..n)
        .map(|p| {
            MicroArchSpace::base()
                .sample_n(cycles, &mut common::rng(seed, Stream::Uarchs, 1 + p as u64))
        })
        .collect();
    let bodies: Vec<Vec<String>> = (0..n)
        .map(|p| {
            uarchs[p]
                .iter()
                .map(|ua| {
                    serde_json::to_string(&ServeRequest {
                        id: None,
                        input: RequestInput::Module(Box::new(served.progs[p].module.clone())),
                        uarch: *ua,
                        apply: true,
                    })
                    .expect("requests serialize")
                })
                .collect()
        })
        .collect();

    // One phase per fold: its server answers the programs it never saw.
    // `answered` holds (request id, program, pass, latency ms, reply
    // line).
    let mut answered: Vec<(usize, usize, usize, f64, String)> = Vec::new();
    let mut sent = 0;
    let mut wall = 0.0;
    for (f, fold) in served.folds.iter().enumerate() {
        let programs: Vec<usize> = (0..n).filter(|&p| served.fold_for(p) == f).collect();
        let order = serving::request_order(programs.len(), cycles, seed ^ f as u64);
        let server = Server::start(fold);
        let (mut w, mut r) = serving::connect(server.addr);
        let mut buf = String::new();
        let started = Instant::now();
        for (j, k) in order.into_iter().enumerate() {
            let (id, p, c) = (sent, programs[k], j / programs.len());
            sent += 1;
            let line = format!("{{\"id\":{id},{}\n", &bodies[p][c][1..]);
            let t = Instant::now();
            if w.write_all(line.as_bytes()).is_err()
                || serving::read_line(&mut r, &mut buf).is_none()
            {
                break;
            }
            answered.push((id, p, c, t.elapsed().as_secs_f64() * 1e3, buf.clone()));
        }
        wall += started.elapsed().as_secs_f64();
        drop((w, r));
        server.stop();
    }

    // The in-process answers, per program and pass, each from the
    // snapshot that answered it.
    let root = tr.open();
    let expected = Executor::new(common::threads()).map_indexed(n, |p| {
        let compiler = &served.folds[served.fold_for(p)].snapshot.compiler;
        recompute(
            compiler,
            &served.progs[p].module,
            &uarchs[p],
            tr,
            root.0,
            p as u64,
        )
    });
    tr.close(root, "optimise::recompute", None, None);

    // Every request's latency, a failed one counting as infinitely
    // slow.
    let mut seen = vec![false; sent];
    let (mut lat_ms, mut speedups) = (Vec::new(), Vec::new());
    for (id, p, c, ms, reply_line) in &answered {
        let (answers, costs) = &expected[*p];
        let ok = match (serving::parse_reply(reply_line), answers.get(*c)) {
            (Some(reply), Some((choices, speedup))) => {
                let ok = serving::reply_ok(&reply, *id as u64, choices, Some(*speedup));
                if let Some(s) = reply.speedup.filter(|_| ok) {
                    speedups.push(s);
                }
                ok
            }
            _ => false,
        };
        let ok = ok && !seen[*id] && costs.profile_errors == 0;
        out.check(ok);
        seen[*id] = true;
        lat_ms.push(if ok { *ms } else { f64::INFINITY });
    }
    for s in seen.iter().filter(|s| !**s) {
        // Never answered.
        out.check(*s);
        lat_ms.push(f64::INFINITY);
    }

    let t = stats::timing(&lat_ms).expect("requests were sent");
    out.set("p50_ms", t.median);
    out.set("bench.tail_ms", t.tail);
    out.set("bench.samples", t.n as f64);
    out.set("bench.tail_pct", t.tail_pct);
    let answered_ok = lat_ms.iter().filter(|ms| ms.is_finite()).count();
    out.set("throughput_per_s", answered_ok as f64 / wall);
    out.set("bench.work_s", wall);
    out.set(
        "serve.apply.speedup_geomean",
        stats::geomean(&speedups).unwrap_or(0.0),
    );

    let sum = |f: fn(&Costs) -> f64| expected.iter().map(|(_, c)| f(c)).sum::<f64>();
    out.set("passes.compile.calls", sum(|c| c.compile_calls as f64));
    out.set("passes.compile.busy_s", sum(|c| c.compile_s));
    out.set(
        "passes.compile.static_insts",
        sum(|c| c.static_insts as f64),
    );
    out.set("sim.profile.calls", sum(|c| c.profile_calls as f64));
    out.set("sim.profile.busy_s", sum(|c| c.profile_s));
    out.set("sim.profile.dyn_insts", sum(|c| c.dyn_insts as f64));
    out.set(
        "sim.profile.minsts_per_s",
        sum(|c| c.dyn_insts as f64) / sum(|c| c.profile_s) / 1e6,
    );
    out.set("sim.price.evaluate_calls", sum(|c| c.evaluate_calls as f64));
    out.set("sim.price.evaluate_busy_s", sum(|c| c.evaluate_s));

    if tr.on() {
        // Module-line decode: submit each distinct request to an idle
        // in-process service, then discard it unanswered; once untraced
        // and once traced, for the tracing overhead ratio.
        let svc = PredictionService::new(served.folds[0].snapshot.clone(), 1);
        let decode = |tr: &Tracer| -> (f64, Vec<f64>) {
            let t = Instant::now();
            let ms = bodies
                .iter()
                .map(|b| &b[0])
                .enumerate()
                .map(|(k, b)| {
                    let l = format!("{{\"id\":{k},{}", &b[1..]);
                    let (_, s) = tr.time(
                        "PredictionService::submit_line",
                        None,
                        Some(k as u64),
                        || svc.submit_line(&l),
                    );
                    svc.discard_dead(|_| true);
                    s * 1e3
                })
                .collect();
            (t.elapsed().as_secs_f64(), ms)
        };
        let (plain_s, _) = decode(&Tracer::new(false));
        let (traced_s, decode_ms) = decode(tr);
        out.set("serve.decode_ms.module", stats::median(&decode_ms));
        out.set("bench.trace_overhead", traced_s / plain_s);
    }
    served.remove_files();
    out
}
