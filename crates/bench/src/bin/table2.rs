//! Table 2: the microarchitectural parameter space and XScale values.
use portopt_uarch::*;

fn main() {
    portopt_bench::cli::Cli::new("table2", "Table 2: the μarch parameter space.").finish();
    println!(
        "Table 2: microarchitectural parameters (total configs: {})",
        MicroArchSpace::base().total_configs()
    );
    let x = MicroArch::xscale();
    println!("  {:<12} {:?}  XScale={}", "IL1 size", SIZES, x.il1_size);
    println!("  {:<12} {:?}  XScale={}", "IL1 assoc", ASSOCS, x.il1_assoc);
    println!("  {:<12} {:?}  XScale={}", "IL1 block", BLOCKS, x.il1_block);
    println!("  {:<12} {:?}  XScale={}", "DL1 size", SIZES, x.dl1_size);
    println!("  {:<12} {:?}  XScale={}", "DL1 assoc", ASSOCS, x.dl1_assoc);
    println!("  {:<12} {:?}  XScale={}", "DL1 block", BLOCKS, x.dl1_block);
    println!(
        "  {:<12} {:?}  XScale={}",
        "BTB entries", BTB_ENTRIES, x.btb_entries
    );
    println!(
        "  {:<12} {:?}  XScale={}",
        "BTB assoc", BTB_ASSOCS, x.btb_assoc
    );
    println!(
        "extended space (§7): freq {:?} MHz, width {:?} -> {} configs",
        FREQS,
        WIDTHS,
        MicroArchSpace::extended().total_configs()
    );
}
