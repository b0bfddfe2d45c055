//! Figure 10: per-program model vs. best on the §7 extended space
//! (frequency 200–600 MHz, issue width 1–2).
use portopt_bench::cli::Cli;
use portopt_bench::{finish_trace, SweepArgs, Tracing};
use portopt_experiments::figures::fig6;

fn main() {
    let mut cli = Cli::new("fig10", "Figure 10: model vs. best, extended space.");
    let args = SweepArgs::declare_pinned(&mut cli, true).cached(&mut cli);
    Tracing::declare(&mut cli).start(cli);
    let (ds, loo, _) = args.dataset_and_loo();
    println!("Figure 10 (extended space: frequency + issue width)");
    println!("{}", fig6(&ds, &loo));
    finish_trace();
}
