//! Cross-crate integration tests: the whole stack from IR to model.

use portopt::prelude::*;
use portopt_core::{GenOptions, PortableCompiler, Sweep, SweepScale, TrainOptions};
use portopt_ir::interp::run_module;
use portopt_mibench::{suite, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every suite program must survive the full compile → run → profile flow
/// at O3 and several random settings with identical results.
#[test]
fn whole_suite_differential_o3_and_random() {
    let mut rng = StdRng::seed_from_u64(20091212);
    for p in suite(Workload::default()) {
        let reference = run_module(&p.module, &[]).unwrap();
        let img3 = compile(&p.module, &OptConfig::o3());
        let prof3 = profile(&img3, &p.module, &[], Default::default())
            .unwrap_or_else(|e| panic!("{} failed at O3: {e}", p.name));
        assert_eq!(prof3.ret, reference.ret, "{} O3 result", p.name);
        assert_eq!(prof3.mem_hash, reference.mem_hash, "{} O3 memory", p.name);

        for k in 0..2 {
            let cfg = OptConfig::sample(&mut rng);
            let img = compile(&p.module, &cfg);
            let prof = profile(&img, &p.module, &[], Default::default())
                .unwrap_or_else(|e| panic!("{} cfg#{k} failed: {e} ({cfg:?})", p.name));
            assert_eq!(
                prof.ret, reference.ret,
                "{} cfg#{k} result ({cfg:?})",
                p.name
            );
        }
    }
}

/// The fast timing model must track the detailed cycle-level simulator
/// pointwise (cycles within a factor band, cache miss rates close) across
/// programs and extreme configurations.
#[test]
fn fast_model_tracks_detailed_sim() {
    let mut tiny = MicroArch::xscale();
    tiny.il1_size = 4096;
    tiny.dl1_size = 4096;
    tiny.il1_assoc = 4;
    tiny.dl1_assoc = 4;
    tiny.btb_entries = 128;
    let mut huge = MicroArch::xscale();
    huge.il1_size = 131_072;
    huge.dl1_size = 131_072;
    huge.btb_entries = 2048;
    huge.btb_assoc = 8;
    let cfgs = [tiny, MicroArch::xscale(), huge];

    for name in ["dijkstra", "tiff2bw", "sha"] {
        let p = portopt_mibench::by_name(name, Workload::default()).unwrap();
        let img = compile(&p.module, &OptConfig::o2());
        let prof = profile(&img, &p.module, &[], Default::default()).unwrap();
        for cfg in &cfgs {
            let f = evaluate(&img, &prof, cfg);
            let d = simulate(&img, &p.module, cfg, &[], Default::default()).unwrap();
            let ratio = f.cycles / d.cycles as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name}: fast {} vs detailed {} (ratio {ratio})",
                f.cycles,
                d.cycles
            );
            let (mf, md) = (f.counters.dcache_miss_rate, d.counters.dcache_miss_rate);
            assert!(
                (mf - md).abs() < 0.06 || (0.5..=2.0).contains(&(mf / md.max(1e-9))),
                "{name}: dcache miss rate fast {mf} vs detailed {md}"
            );
        }
    }
}

/// End-to-end mini-reproduction: train on a handful of programs, evaluate
/// leave-one-out, and require the model to recover a meaningful share of
/// the available improvement.
#[test]
fn mini_reproduction_beats_o3() {
    let names = [
        "search", "crc", "sha", "dijkstra", "tiff2bw", "gs", "madplay", "bf_e",
    ];
    let pairs: Vec<(String, portopt_ir::Module)> = names
        .iter()
        .map(|n| {
            let p = portopt_mibench::by_name(n, Workload::default()).unwrap();
            (p.name.to_string(), p.module)
        })
        .collect();
    let ds = Sweep::new(GenOptions {
        scale: SweepScale {
            n_uarch: 5,
            n_opts: 40,
        },
        seed: 7,
        extended_space: false,
        threads: 0,
    })
    .run(&pairs)
    .0;
    let modules: Vec<portopt_ir::Module> = pairs.iter().map(|(_, m)| m.clone()).collect();
    let loo = portopt_experiments::loo::run_loo(&ds, &modules, 0);

    let best = loo.mean_best();
    let model = loo.mean_model();
    assert!(best > 1.0, "search must find headroom: {best}");
    // The model should capture a solid fraction of the improvement and
    // stay near or above 1.0 on average even at this tiny scale.
    assert!(
        model > 1.0 + (best - 1.0) * 0.2,
        "model mean {model} too far below best {best}"
    );
}

/// The PortableCompiler deployment flow works on an unseen program and an
/// unseen microarchitecture.
#[test]
fn deployment_flow_unseen_program_and_uarch() {
    let names = ["qsort", "fft", "rawcaudio", "ispell", "tiffdither", "lout"];
    let pairs: Vec<(String, portopt_ir::Module)> = names
        .iter()
        .map(|n| {
            let p = portopt_mibench::by_name(n, Workload::default()).unwrap();
            (p.name.to_string(), p.module)
        })
        .collect();
    let ds = Sweep::new(GenOptions {
        scale: SweepScale {
            n_uarch: 4,
            n_opts: 30,
        },
        seed: 13,
        extended_space: false,
        threads: 0,
    })
    .run(&pairs)
    .0;
    let pc = PortableCompiler::train(&ds, None, None, &TrainOptions::default());

    let unseen = portopt_mibench::by_name("say", Workload::default()).unwrap();
    let mut target = MicroArch::xscale();
    target.il1_size = 16384;
    target.btb_entries = 256;
    let (img, _cfg, t3) = pc.optimise(&unseen.module, &target);
    let prof = profile(&img, &unseen.module, &[], Default::default()).unwrap();
    let reference = run_module(&unseen.module, &[]).unwrap();
    assert_eq!(prof.ret, reference.ret, "predicted binary must be correct");
    let t = evaluate(&img, &prof, &target);
    assert!(
        t.cycles < t3.cycles * 1.5,
        "prediction must not be catastrophic: {} vs O3 {}",
        t.cycles,
        t3.cycles
    );
}

/// Determinism across the whole pipeline: dataset, LOO and predictions.
#[test]
fn pipeline_is_deterministic() {
    let pairs: Vec<(String, portopt_ir::Module)> = ["crc", "sha"]
        .iter()
        .map(|n| {
            let p = portopt_mibench::by_name(n, Workload::default()).unwrap();
            (p.name.to_string(), p.module)
        })
        .collect();
    let opts = GenOptions {
        scale: SweepScale {
            n_uarch: 3,
            n_opts: 15,
        },
        seed: 99,
        extended_space: false,
        threads: 0,
    };
    let a = Sweep::new(opts).run(&pairs).0;
    let b = Sweep::new(opts).run(&pairs).0;
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.o3_cycles, b.o3_cycles);
    let fa: Vec<Vec<f64>> = a
        .features
        .iter()
        .flatten()
        .map(|f| f.values.clone())
        .collect();
    let fb: Vec<Vec<f64>> = b
        .features
        .iter()
        .flatten()
        .map(|f| f.values.clone())
        .collect();
    assert_eq!(fa, fb);
}
