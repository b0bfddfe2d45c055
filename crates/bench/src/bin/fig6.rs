//! Figure 6: per-program model vs. best speedup (mean over uarchs).
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::fig6;

fn main() {
    let args = SweepArgs::parse_figure("fig6", "Figure 6: model vs. best, per program.");
    let (ds, loo, _) = args.dataset_and_loo();
    println!("{}", fig6(&ds, &loo));
    finish_trace();
}
