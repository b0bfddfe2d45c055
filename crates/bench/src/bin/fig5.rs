//! Figure 5: best vs. predicted speedup over the joint space.
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::fig5;

fn main() {
    let args = SweepArgs::parse_figure("fig5", "Figure 5: best vs. predicted speedup.");
    let (ds, loo, _) = args.dataset_and_loo();
    println!("{}", fig5(&ds, &loo));
    finish_trace();
}
