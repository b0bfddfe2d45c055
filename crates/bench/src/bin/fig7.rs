//! Figure 7: per-uarch model vs. best speedup (mean over programs).
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::fig7;

fn main() {
    let args = SweepArgs::parse_figure("fig7", "Figure 7: model vs. best, per μarch.");
    let (ds, loo, _) = args.dataset_and_loo();
    println!("{}", fig7(&ds, &loo));
    finish_trace();
}
