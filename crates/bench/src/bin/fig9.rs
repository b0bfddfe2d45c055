//! Figure 9: Hinton diagram — MI(feature ; best optimisation).
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::fig9;

fn main() {
    let args = SweepArgs::parse_figure("fig9", "Figure 9: MI(feature ; best optimisation).");
    let ds = args.dataset();
    println!("Figure 9 (rows: optimisations, cols: 11 counters + 8 descriptors)");
    println!("{}", fig9(&ds));
    finish_trace();
}
