//! Figure 1: best-pass segment diagrams for three programs on three
//! microarchitectures (XScale; small icache; small icache + small dcache).

use portopt_bench::cli::Cli;
use portopt_bench::{finish_trace, SweepArgs, Tracing};
use portopt_core::Sweep;
use portopt_experiments::figures::fig1;
use portopt_mibench::{by_name, Workload};
use portopt_uarch::MicroArch;

fn main() {
    let mut cli = Cli::new("fig1", "Figure 1: best passes on three named μarchs.");
    let args = SweepArgs::declare(&mut cli);
    Tracing::declare(&mut cli).start(cli);
    let names = ["rijndael_e", "untoast", "madplay"];
    let pairs: Vec<_> = names
        .iter()
        .map(|n| {
            let p = by_name(n, Workload::default()).unwrap();
            (p.name.to_string(), p.module)
        })
        .collect();
    let mut small_i = MicroArch::xscale();
    small_i.il1_size = 4096;
    let mut small_id = small_i;
    small_id.dl1_size = 4096;
    let uarchs = [MicroArch::xscale(), small_i, small_id];
    let labels = [
        "A: XScale",
        "B: small insn cache",
        "C: small insn+data cache",
    ];

    // Price the usual setting sample directly on the three *named*
    // configurations (same settings as the sampled-space dataset for this
    // seed, but each binary is compiled and profiled exactly once).
    let (ds, report) = Sweep {
        uarchs: Some(&uarchs),
        ..Sweep::new(args.gen_options())
    }
    .run(&pairs);
    args.write_report(&report, None);

    let f = fig1(&ds, &[0, 1, 2], &[0, 1, 2], &labels.map(String::from));
    println!("{f}");
    for (p, name) in names.iter().enumerate() {
        for u in 0..3 {
            println!(
                "  best speedup {name} on {}: {:.2}x",
                labels[u],
                ds.best_speedup(p, u)
            );
        }
    }
    finish_trace();
}
