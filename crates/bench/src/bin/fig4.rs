//! Figure 4: distribution of maximum available speedup per program.
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::fig4;

fn main() {
    let args = SweepArgs::parse_figure("fig4", "Figure 4: best available speedup per program.");
    let ds = args.dataset();
    println!("{}", fig4(&ds));
    finish_trace();
}
