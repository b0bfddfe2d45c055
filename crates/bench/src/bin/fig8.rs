//! Figure 8: Hinton diagram — MI(optimisation ; speedup) per program.
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::fig8;

fn main() {
    let args = SweepArgs::parse_figure("fig8", "Figure 8: MI(optimisation ; speedup).");
    let ds = args.dataset();
    println!("Figure 8 (rows: optimisations, cols: programs)");
    println!("{}", fig8(&ds));
    finish_trace();
}
