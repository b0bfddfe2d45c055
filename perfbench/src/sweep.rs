//! The `sweep` workload: cold offline dataset sweeps through
//! `portopt_core::generate_with_uarchs` (the grid `generate_with_report`
//! sweeps, on μarchs drawn here), each followed by training every
//! model kind and a leave-one-out evaluation — the paper's training-data
//! path, which never touches `serve`.
//!
//! Each run sweeps every suite program once per pass, dealt into six
//! rounds of about one program per MiBench category, each round over its
//! own setting sample and six seeded μarchs. The deal and the settings
//! are the same for every seed, so every seed compiles and profiles the
//! same binaries: the seed varies the μarchs they are priced on, never
//! the amount of work. After the timed rounds, every program is swept
//! alone by its own sweep call with its round's axes: the wait for one
//! program's rows, and together the round's rows again.
//! Last, [`mirror`] sweeps every round again: the same grid on the same
//! executor through the layers' public calls, timed per call (and traced
//! in a traced run). The mirror's dataset must equal the timed one cell
//! for cell, and every binary it runs must return what the IR
//! interpreter returns on the source module.

use crate::common::{self, Stream, LIMITS};
use crate::stats;
use crate::tracer::Tracer;
use crate::Outcome;
use portopt_core::{Dataset, GenOptions, SweepScale, TrainOptions};
use portopt_exec::Executor;
use portopt_ir::interp::{run_module_with, ExecError, ExecResult};
use portopt_ir::Module;
use portopt_ml::ModelKind;
use portopt_passes::{compile_with_stats, CodeImage, OptConfig};
use portopt_serve::Snapshot;
use portopt_sim::{profile, ExecProfile, PreparedEval};
use portopt_uarch::{FeatureVec, MicroArch, MicroArchSpace};
use std::collections::HashMap;
use std::time::Instant;

/// Sampled settings per program in one round.
const SETTINGS: usize = 4;
/// Rounds per pass over the suite (each holds about one program per
/// category).
const ROUNDS_PER_PASS: usize = 6;
/// Sampled μarchs per round.
const UARCHS: usize = 6;
/// Times each program is swept alone; its wait is the fastest.
const PROGRAM_SWEEPS: usize = 2;
/// Seeds the deal of programs into rounds and each round's setting
/// sample; the same for every workload seed.
const GRID_SEED: u64 = 0x5ee9;
/// Set-up repetitions (the reported set-up time is their median). The
/// set-up takes a fraction of a second, so more repetitions are cheap
/// and steady its median.
const SETUP_REPS: usize = 7;

/// Passes over the whole suite per run: one per twenty seconds of
/// `--seconds`, at least one.
fn passes(seconds: u64) -> usize {
    (seconds as usize / 20).max(1)
}

/// One round's inputs.
struct Round {
    programs: Vec<(String, Module)>,
    /// Interpreter results on each source module: the reference every
    /// compiled binary must reproduce.
    refs: Vec<ExecResult>,
    /// The seeded μarchs the round is priced on.
    uarchs: Vec<MicroArch>,
    /// Sweep options; their seed draws the settings only.
    opts: GenOptions,
}

impl Round {
    /// Sweeps `programs` (the round's or some of them) over the round's
    /// axes: `generate_with_report` with the μarchs given instead of
    /// drawn.
    fn generate(&self, programs: &[(String, Module)]) -> Dataset {
        portopt_core::generate_with_uarchs(programs, &self.uarchs, &self.opts).0
    }
}

/// Per-call measurements the mirror accumulates.
#[derive(Debug, Default)]
struct LayerTotals {
    compile_calls: u64,
    compile_s: f64,
    static_insts: u64,
    grid_compiles: u64,
    grid_shared: u64,
    profile_calls: u64,
    profile_s: f64,
    dyn_insts: u64,
    fuel_exhausted: u64,
    prepare_s: f64,
    evaluate_calls: u64,
    evaluate_s: f64,
    /// Wall time of the mirror sweeps.
    wall_s: f64,
    /// Per-(program, setting) latency: compile, plus profile and pricing
    /// for the task that profiled a new image.
    pair_s: Vec<f64>,
}

/// Whether one binary's run reproduces the interpreter's result.
fn matches_reference(prof: &ExecProfile, reference: &ExecResult) -> bool {
    prof.ret == reference.ret && prof.mem_hash == reference.mem_hash
}

/// Cells (and axis entries) on which two datasets differ. `f64` cells
/// compare bit for bit.
fn dataset_mismatches(a: &Dataset, b: &Dataset) -> usize {
    let bits = |x: &f64| x.to_bits();
    let mut bad = usize::from(a.programs != b.programs)
        + usize::from(a.uarchs != b.uarchs)
        + usize::from(
            a.configs
                .iter()
                .map(OptConfig::to_choices)
                .collect::<Vec<_>>()
                != b.configs
                    .iter()
                    .map(OptConfig::to_choices)
                    .collect::<Vec<_>>(),
        );
    let flat3 =
        |d: &Dataset| -> Vec<u64> { d.cycles.iter().flatten().flatten().map(bits).collect() };
    let flat2 = |d: &Dataset| -> Vec<u64> { d.o3_cycles.iter().flatten().map(bits).collect() };
    let feats = |d: &Dataset| -> Vec<u64> {
        d.features
            .iter()
            .flatten()
            .flat_map(|f| f.values.iter().map(bits))
            .collect()
    };
    for (x, y) in [
        (flat3(a), flat3(b)),
        (flat2(a), flat2(b)),
        (feats(a), feats(b)),
    ] {
        bad += x.len().abs_diff(y.len());
        bad += x.iter().zip(&y).filter(|(p, q)| p != q).count();
    }
    bad
}

/// The rows of per-program datasets swept with the same options, as one
/// dataset.
fn concat(parts: Vec<Dataset>) -> Dataset {
    let mut it = parts.into_iter();
    let mut all = it.next().expect("at least one part");
    for d in it {
        all.programs.extend(d.programs);
        all.cycles.extend(d.cycles);
        all.o3_cycles.extend(d.o3_cycles);
        all.features.extend(d.features);
    }
    all
}

/// First occurrence of each distinct setting: `(unique → config index,
/// config index → unique)`, the dedup `generate` applies.
fn dedup(configs: &[OptConfig]) -> (Vec<usize>, Vec<usize>) {
    let mut first: HashMap<Vec<u8>, usize> = HashMap::new();
    let (mut uniques, mut to_unique) = (Vec::new(), Vec::new());
    for (c, cfg) in configs.iter().enumerate() {
        let next = uniques.len();
        let u = *first.entry(cfg.to_choices()).or_insert(next);
        if u == next {
            uniques.push(c);
        }
        to_unique.push(u);
    }
    (uniques, to_unique)
}

/// A profiled and priced image: cycles per μarch plus the `-O3`
/// counters' feature vectors (baselines only).
struct Priced {
    cycles: Vec<f64>,
    features: Vec<FeatureVec>,
    profile_s: f64,
    prepare_s: f64,
    evaluate_s: f64,
    dyn_insts: u64,
    error: Option<ExecError>,
    /// `Some(false)` when the binary ran but disagreed with the
    /// interpreter.
    output_ok: Option<bool>,
}

fn price(
    img: &CodeImage,
    module: &Module,
    reference: &ExecResult,
    uarchs: &[MicroArch],
    tr: &Tracer,
    parent: u64,
    req: u64,
) -> Priced {
    let (prof, profile_s) = tr.time("sim::profile", Some(parent), Some(req), || {
        profile(img, module, &[], LIMITS)
    });
    let mut out = Priced {
        cycles: vec![f64::INFINITY; uarchs.len()],
        features: Vec::new(),
        profile_s,
        prepare_s: 0.0,
        evaluate_s: 0.0,
        dyn_insts: 0,
        error: None,
        output_ok: None,
    };
    let prof = match prof {
        Ok(p) => p,
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };
    out.dyn_insts = prof.dyn_insts;
    out.output_ok = Some(matches_reference(&prof, reference));
    let (pe, prepare_s) = tr.time("PreparedEval::new", Some(parent), Some(req), || {
        PreparedEval::new(img, &prof)
    });
    out.prepare_s = prepare_s;
    for (u, ua) in uarchs.iter().enumerate() {
        let (t, s) = tr.time("PreparedEval::evaluate", Some(parent), Some(req), || {
            pe.evaluate(ua)
        });
        out.evaluate_s += s;
        out.cycles[u] = t.cycles;
        out.features.push(FeatureVec::new(&t.counters, ua));
    }
    out
}

/// Sweeps `round` again through the layers' public calls on `exec`:
/// `-O3` baselines, then every distinct `(program, setting)` compile,
/// then one profile-and-price per distinct image of each program (the
/// sharing `generate` applies). Returns the assembled dataset; output
/// checks land in `out`, per-call timings in `acc`.
fn mirror(
    round: &Round,
    exec: &Executor,
    tr: &Tracer,
    out: &mut Outcome,
    acc: &mut LayerTotals,
) -> Dataset {
    let started = Instant::now();
    let root = tr.open();
    let rid = root.0;
    let uarchs = &round.uarchs;
    let configs = round.generate(&[]).configs;
    let np = round.programs.len();
    let module = |p: usize| &round.programs[p].1;

    let baselines = exec.map_indexed(np, |p| {
        let ((img, st), compile_s) = tr.time(
            "passes::compile_with_stats",
            Some(rid),
            Some(p as u64),
            || compile_with_stats(module(p), &OptConfig::o3()),
        );
        let priced = price(&img, module(p), &round.refs[p], uarchs, tr, rid, p as u64);
        (priced, compile_s, st.insts_after_opt)
    });

    let (uniques, to_unique) = dedup(&configs);
    let nu = uniques.len();
    let compiled = exec.map_indexed(np * nu, |i| {
        let (p, t) = (i / nu, i % nu);
        let req = (np + i) as u64;
        let ((img, st), compile_s) =
            tr.time("passes::compile_with_stats", Some(rid), Some(req), || {
                compile_with_stats(module(p), &configs[uniques[t]])
            });
        let (fp, fp_s) = tr.time("CodeImage::fingerprint", Some(rid), Some(req), || {
            img.fingerprint()
        });
        (img, st.insts_after_opt, fp, compile_s + fp_s)
    });
    // The first task of each program to produce an image profiles it;
    // later tasks producing the same image share that row.
    let mut owner: Vec<usize> = Vec::with_capacity(np * nu);
    let mut to_profile: Vec<usize> = Vec::new();
    for p in 0..np {
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for t in 0..nu {
            let i = p * nu + t;
            let o = *seen.entry(compiled[i].2).or_insert(i);
            if o == i {
                to_profile.push(i);
            } else {
                acc.grid_shared += 1;
            }
            owner.push(o);
        }
    }
    let priced = exec.map_indexed(to_profile.len(), |k| {
        let i = to_profile[k];
        let p = i / nu;
        price(
            &compiled[i].0,
            module(p),
            &round.refs[p],
            uarchs,
            tr,
            rid,
            (np + i) as u64,
        )
    });
    let mut row_of: HashMap<usize, usize> = HashMap::new();
    for (k, &i) in to_profile.iter().enumerate() {
        row_of.insert(i, k);
    }

    let note = |pr: &Priced, acc: &mut LayerTotals, out: &mut Outcome| {
        acc.profile_calls += 1;
        acc.profile_s += pr.profile_s;
        acc.prepare_s += pr.prepare_s;
        acc.evaluate_s += pr.evaluate_s;
        acc.evaluate_calls += pr.features.len() as u64;
        acc.dyn_insts += pr.dyn_insts;
        match (&pr.error, pr.output_ok) {
            // A runaway binary is priced unusable, as `generate` does;
            // it is not a wrong output.
            (Some(ExecError::FuelExhausted), _) => acc.fuel_exhausted += 1,
            (Some(_), _) => out.check(false),
            (None, ok) => out.check(ok == Some(true)),
        }
    };

    let mut ds = Dataset {
        programs: round.programs.iter().map(|(n, _)| n.clone()).collect(),
        uarchs: uarchs.clone(),
        configs: configs.clone(),
        cycles: Vec::with_capacity(np),
        o3_cycles: Vec::with_capacity(np),
        features: Vec::with_capacity(np),
    };
    for (p, (base, compile_s, insts)) in baselines.iter().enumerate() {
        acc.compile_calls += 1;
        acc.compile_s += compile_s;
        acc.static_insts += *insts as u64;
        note(base, acc, out);
        let mut cycles = vec![vec![0.0; configs.len()]; uarchs.len()];
        for (c, &t) in to_unique.iter().enumerate() {
            let row = &priced[row_of[&owner[p * nu + t]]].cycles;
            for (u, cy) in row.iter().enumerate() {
                cycles[u][c] = *cy;
            }
        }
        ds.cycles.push(cycles);
        ds.o3_cycles.push(base.cycles.clone());
        ds.features.push(base.features.clone());
    }
    for (i, (_, insts, _, compile_s)) in compiled.iter().enumerate() {
        acc.compile_calls += 1;
        acc.grid_compiles += 1;
        acc.compile_s += compile_s;
        acc.static_insts += *insts as u64;
        let mut pair = *compile_s;
        if owner[i] == i {
            let pr = &priced[row_of[&i]];
            note(pr, acc, out);
            pair += pr.profile_s + pr.prepare_s + pr.evaluate_s;
        }
        acc.pair_s.push(pair);
    }
    tr.close(root, "sweep::mirror", None, None);
    acc.wall_s += started.elapsed().as_secs_f64();
    ds
}

/// Sweeps every program alone through its own sweep call with its
/// round's axes; returns each call's wall time (ms).
/// The programs' rows together must be their round's rows.
fn per_program(rounds: &[Round], datasets: &[Dataset], out: &mut Outcome) -> Vec<f64> {
    let mut program_ms = Vec::new();
    for (round, timed) in rounds.iter().zip(datasets) {
        let parts: Vec<Dataset> = round
            .programs
            .iter()
            .map(|prog| {
                let t = Instant::now();
                let ds = round.generate(std::slice::from_ref(prog));
                program_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ds
            })
            .collect();
        out.check(dataset_mismatches(&concat(parts), timed) == 0);
    }
    program_ms
}

/// Builds every round's inputs: the suite, the deal, the seeded μarchs,
/// and the interpreter reference of every suite program (the same work
/// for every seed).
fn set_up(seed: u64, n_passes: usize, tr: &Tracer) -> (Vec<Round>, f64, u64) {
    let progs = common::programs();
    let (mut interp_s, mut interp_insts) = (0.0, 0u64);
    let refs: Vec<ExecResult> = progs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (res, s) = tr.time("ir::run_module_with", None, Some(i as u64), || {
                run_module_with(&p.module, &[], LIMITS)
                    .expect("every suite program runs under the interpreter")
            });
            interp_s += s;
            interp_insts += res.dyn_insts;
            res
        })
        .collect();
    let draws: Vec<Vec<usize>> = (0..n_passes as u64)
        .flat_map(|pass| {
            let shuffled = common::shuffled_categories(&progs, GRID_SEED ^ (pass << 32));
            common::deal(&shuffled, ROUNDS_PER_PASS)
        })
        .collect();
    let rounds = draws
        .iter()
        .enumerate()
        .map(|(r, idx)| Round {
            programs: common::named(&progs, idx),
            refs: idx.iter().map(|&i| refs[i].clone()).collect(),
            uarchs: MicroArchSpace::base()
                .sample_n(UARCHS, &mut common::rng(seed, Stream::Uarchs, r as u64)),
            opts: GenOptions {
                scale: SweepScale {
                    n_uarch: UARCHS,
                    n_opts: SETTINGS,
                },
                seed: GRID_SEED.wrapping_mul(1_000_003).wrapping_add(r as u64),
                extended_space: false,
                threads: common::threads(),
            },
        })
        .collect();
    (rounds, interp_s, interp_insts)
}

pub fn run(seed: u64, seconds: u64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n_passes = passes(seconds);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let quiet = Tracer::new(false);
        let t = Instant::now();
        let built = set_up(seed, n_passes, if prepared.is_none() { tr } else { &quiet });
        setup_s.push(t.elapsed().as_secs_f64());
        prepared.get_or_insert(built);
    }
    let (rounds, interp_s, interp_insts) = prepared.expect("set up at least once");
    out.set("setup_s", stats::median(&setup_s));

    // Timed: sweep, train every kind, leave-one-out.
    let work = Instant::now();
    let (mut pairs, mut gen_s, mut loo_s) = (0usize, 0.0, 0.0);
    let mut train_s = [0.0; 3];
    let (mut model_sp, mut best_sp) = (Vec::new(), Vec::new());
    let mut datasets = Vec::with_capacity(rounds.len());
    for round in &rounds {
        let t = Instant::now();
        let ds = round.generate(&round.programs);
        gen_s += t.elapsed().as_secs_f64();
        pairs += ds.programs.len() * ds.configs.len();
        for kind in ModelKind::ALL {
            let (snap, s) = tr.time("Snapshot::try_train_kind", None, None, || {
                Snapshot::try_train_kind(&ds, kind, &TrainOptions::default())
            });
            out.check(snap.is_ok());
            train_s[kind.index()] += s;
        }
        let modules: Vec<Module> = round.programs.iter().map(|(_, m)| m.clone()).collect();
        let (loo, s) = tr.time("run_loo", None, None, || {
            portopt_experiments::loo::run_loo(&ds, &modules, round.opts.threads)
        });
        loo_s += s;
        model_sp.extend(loo.model_speedup.iter().flatten().copied());
        best_sp.extend(loo.best_speedup.iter().flatten().copied());
        datasets.push(ds);
    }
    out.set("bench.work_s", work.elapsed().as_secs_f64());
    out.set("throughput_per_s", pairs as f64 / gen_s);
    let n = rounds.len() as f64;
    for kind in ModelKind::ALL {
        let name = match kind {
            ModelKind::Knn => "ml.train_s.knn",
            ModelKind::Linear => "ml.train_s.linear",
            ModelKind::Clustered => "ml.train_s.clustered",
        };
        out.set(name, train_s[kind.index()] / n);
    }
    out.set("experiments.loo.busy_s", loo_s / n);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let fraction = mean(&model_sp) / mean(&best_sp);
    out.check(fraction.is_finite() && fraction > 0.0);
    out.set("experiments.loo.fraction_of_best", fraction);

    // Timed per program: each program alone, with its round's axes;
    // again after the mirror below.
    let mut program_ms = per_program(&rounds, &datasets, &mut out);

    // Checked (and, in a traced run, traced): the same grids again. A
    // traced run first mirrors the first round untraced, for the tracing
    // overhead on the same work.
    let exec = Executor::new(common::threads());
    let plain_s = tr.on().then(|| {
        let t = Instant::now();
        mirror(
            &rounds[0],
            &exec,
            &Tracer::new(false),
            &mut Outcome::default(),
            &mut LayerTotals::default(),
        );
        t.elapsed().as_secs_f64()
    });
    let mut acc = LayerTotals::default();
    let mut traced_s = 0.0;
    for (r, (round, timed)) in rounds.iter().zip(&datasets).enumerate() {
        let t = Instant::now();
        let ds = mirror(round, &exec, tr, &mut out, &mut acc);
        if r == 0 {
            traced_s = t.elapsed().as_secs_f64();
        }
        out.check(dataset_mismatches(&ds, timed) == 0);
    }
    if let Some(plain_s) = plain_s {
        out.set("bench.trace_overhead", traced_s / plain_s);
    }

    // Each program's wait is the fastest of its sweeps, taken some ten
    // seconds apart, so one busy stretch of the machine does not decide
    // it.
    for _ in 1..PROGRAM_SWEEPS {
        for (best, ms) in program_ms
            .iter_mut()
            .zip(per_program(&rounds, &datasets, &mut out))
        {
            *best = best.min(ms);
        }
    }
    let t = stats::timing(&program_ms).expect("every round has programs");
    out.set("p50_ms", t.median);
    out.set("bench.tail_ms", t.tail);
    out.set("bench.samples", t.n as f64);
    out.set("bench.tail_pct", t.tail_pct);

    let pair_ms: Vec<f64> = acc.pair_s.iter().map(|s| s * 1e3).collect();
    out.set("bench.mirror_pair_ms", stats::median(&pair_ms));
    out.set("passes.compile.calls", acc.compile_calls as f64);
    out.set("passes.compile.busy_s", acc.compile_s);
    out.set("passes.compile.static_insts", acc.static_insts as f64);
    out.set(
        "core.image_share_ratio",
        acc.grid_shared as f64 / acc.grid_compiles as f64,
    );
    out.set("sim.profile.calls", acc.profile_calls as f64);
    out.set("sim.profile.busy_s", acc.profile_s);
    out.set("sim.profile.dyn_insts", acc.dyn_insts as f64);
    let profile_mips = acc.dyn_insts as f64 / acc.profile_s / 1e6;
    let interp_mips = interp_insts as f64 / interp_s / 1e6;
    out.set("sim.profile.minsts_per_s", profile_mips);
    out.set("sim.profile.fuel_exhausted", acc.fuel_exhausted as f64);
    out.set("sim.profile.slowdown_vs_interp", interp_mips / profile_mips);
    out.set("ir.interp.minsts_per_s", interp_mips);
    out.set("sim.price.prepare_busy_s", acc.prepare_s);
    out.set("sim.price.evaluate_calls", acc.evaluate_calls as f64);
    out.set("sim.price.evaluate_busy_s", acc.evaluate_s);
    let busy = acc.compile_s + acc.profile_s + acc.prepare_s + acc.evaluate_s;
    out.set(
        "exec.sweep.busy_share",
        busy / (acc.wall_s * exec.threads() as f64),
    );
    out.set(
        "exec.sweep.max_pair_s",
        acc.pair_s.iter().copied().fold(0.0, f64::max),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_ir::{FuncBuilder, ModuleBuilder};

    fn tiny(name: &str, stride: i64) -> (String, Module) {
        let mut mb = ModuleBuilder::new(name);
        let (_, base) = mb.global("buf", 256);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, 200, 1, |b, i| {
            let off0 = b.mul(i, stride);
            let off = b.and(off0, 255);
            let sh = b.shl(off, 2);
            let a = b.add(p, sh);
            let v = b.load(a, 0);
            let w = b.add(v, i);
            b.store(w, a, 0);
            let t = b.add(acc, w);
            b.assign(acc, t);
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        (name.to_string(), mb.finish())
    }

    fn tiny_round() -> Round {
        let programs = vec![tiny("a", 3), tiny("b", 7), tiny("c", 11)];
        let refs = programs
            .iter()
            .map(|(_, m)| run_module_with(m, &[], LIMITS).unwrap())
            .collect();
        Round {
            programs,
            refs,
            uarchs: MicroArchSpace::base().sample_n(3, &mut common::rng(11, Stream::Uarchs, 0)),
            opts: GenOptions {
                scale: SweepScale {
                    n_uarch: 3,
                    n_opts: 5,
                },
                seed: 11,
                extended_space: false,
                threads: 2,
            },
        }
    }

    #[test]
    fn mirror_reproduces_generate_and_passes_its_checks() {
        let round = tiny_round();
        let timed = round.generate(&round.programs);
        let mut out = Outcome::default();
        let mut acc = LayerTotals::default();
        let tr = Tracer::new(true);
        let ds = mirror(&round, &Executor::new(2), &tr, &mut out, &mut acc);
        assert_eq!(dataset_mismatches(&ds, &timed), 0);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, acc.profile_calls);
        assert_eq!(acc.pair_s.len(), 3 * dedup(&timed.configs).0.len());
        assert_eq!(
            tr.spans()
                .iter()
                .filter(|s| s.name == "sim::profile")
                .count() as u64,
            acc.profile_calls
        );
    }

    #[test]
    fn a_corrupted_reference_raises_the_fail_ratio() {
        let mut round = tiny_round();
        round.refs[1].mem_hash ^= 1;
        let mut out = Outcome::default();
        mirror(
            &round,
            &Executor::new(1),
            &Tracer::new(false),
            &mut out,
            &mut LayerTotals::default(),
        );
        assert!(out.failed > 0, "a flipped checksum must fail its binaries");
        assert!(out.failed < out.attempted, "the other programs still pass");
    }

    #[test]
    fn per_program_sweeps_give_the_round_rows() {
        let round = tiny_round();
        let whole = round.generate(&round.programs);
        let parts = round
            .programs
            .iter()
            .map(|p| round.generate(std::slice::from_ref(p)))
            .collect();
        assert_eq!(dataset_mismatches(&concat(parts), &whole), 0);
    }

    #[test]
    fn dataset_comparison_sees_a_single_flipped_cell() {
        let round = tiny_round();
        let a = round.generate(&round.programs);
        let mut b = a.clone();
        assert_eq!(dataset_mismatches(&a, &b), 0);
        b.cycles[1][2][3] += 1.0;
        assert_eq!(dataset_mismatches(&a, &b), 1);
        b.features[0][0].values[4] = -0.0;
        assert!(dataset_mismatches(&a, &b) >= 1);
    }
}
