//! Table 1: the 11 performance counters, with values measured for one
//! program on the XScale baseline.
use portopt_passes::{compile, OptConfig};
use portopt_sim::{evaluate, profile};
use portopt_uarch::{MicroArch, PerfCounters};

fn main() {
    portopt_bench::cli::Cli::new("table1", "Table 1: the 11 counters, measured for crc.").finish();
    println!("Table 1: performance counters (c) — measured on crc @ XScale");
    let p = portopt_mibench::by_name("crc", Default::default()).unwrap();
    let img = compile(&p.module, &OptConfig::o3());
    let prof = profile(&img, &p.module, &[], Default::default()).unwrap();
    let t = evaluate(&img, &prof, &MicroArch::xscale());
    for (name, v) in PerfCounters::names().iter().zip(t.counters.to_vec()) {
        println!("  {name:<18} {v:.4}");
    }
}
