//! §5.3: how many iterative-compilation evaluations match the model?
use portopt_bench::{finish_trace, SweepArgs};
use portopt_experiments::figures::iters_to_match;

fn main() {
    let args = SweepArgs::parse_figure("iters_to_match", "§5.3: iterations to match the model.");
    let (ds, loo, _) = args.dataset_and_loo();
    println!("{}", iters_to_match(&ds, &loo));
    finish_trace();
}
