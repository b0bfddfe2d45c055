//! Figure 3: the compiler optimisation space.
use portopt_passes::OptSpace;

fn main() {
    portopt_bench::cli::Cli::new("fig3", "Figure 3: the compiler optimisation space.").finish();
    let dims = OptSpace::dims();
    println!("Figure 3: {} optimisation dimensions", dims.len());
    for d in &dims {
        println!("  {:<30} {} values", d.name, d.cardinality);
    }
    let (flags, total) = OptSpace::combination_counts();
    println!("flag-only combinations: {flags:.3e} (paper: 6.42e8)");
    println!("total combinations:     {total:.3e} (paper: 1.69e17)");
}
