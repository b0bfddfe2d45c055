//! Generators for every table and figure in the paper's evaluation.
//!
//! Each function consumes the shared [`Dataset`] (plus the leave-one-out
//! result where the figure involves the model) and returns a structured,
//! printable result. The `portopt-bench` binaries wrap these one-to-one.

use crate::loo::LooResult;
use crate::stats::{five_num, mean, FiveNum};
use portopt_core::Dataset;
use portopt_ml::{bin_equal_frequency, normalized_mutual_information};
use portopt_passes::OptSpace;
use portopt_uarch::FeatureVec;
use std::fmt::Write as _;

/// Figure 4: per-program distribution of the maximum speedup available
/// across microarchitectures, plus the §4.4 wrong-passes statistics.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// `(program, five-number summary of best speedup across uarchs)`.
    pub rows: Vec<(String, FiveNum)>,
    /// Mean of per-pair best speedups (paper: 1.23x).
    pub average_best: f64,
    /// Mean speedup of the *worst* setting per pair (paper: ~0.7x).
    pub average_worst: f64,
    /// Worst-case single-pair slowdown (paper: ~0.2x).
    pub worst_case: f64,
}

/// Computes Figure 4.
pub fn fig4(ds: &Dataset) -> Fig4 {
    let mut rows = Vec::new();
    let mut all_best = Vec::new();
    let mut all_worst = Vec::new();
    for p in 0..ds.n_programs() {
        let best: Vec<f64> = (0..ds.n_uarchs()).map(|u| ds.best_speedup(p, u)).collect();
        for u in 0..ds.n_uarchs() {
            let worst = ds.cycles[p][u]
                .iter()
                .copied()
                .filter(|c| c.is_finite())
                .fold(0.0f64, f64::max);
            if worst > 0.0 {
                all_worst.push(ds.o3_cycles[p][u] / worst);
            }
        }
        all_best.extend_from_slice(&best);
        rows.push((ds.programs[p].clone(), five_num(&best)));
    }
    Fig4 {
        rows,
        average_best: mean(&all_best),
        average_worst: mean(&all_worst),
        worst_case: all_worst.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

impl std::fmt::Display for Fig4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 4: distribution of max speedup per program (across uarchs)"
        )?;
        writeln!(
            f,
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "program", "min", "q25", "med", "q75", "max"
        )?;
        for (name, fv) in &self.rows {
            writeln!(
                f,
                "{:<12} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
                name, fv.min, fv.q25, fv.median, fv.q75, fv.max
            )?;
        }
        writeln!(
            f,
            "AVERAGE best speedup: {:.3}x (paper: 1.23x)",
            self.average_best
        )?;
        writeln!(
            f,
            "wrong passes: avg {:.2}x, worst {:.2}x (paper: 0.7x / 0.2x)",
            self.average_worst, self.worst_case
        )
    }
}

/// Figure 5: best vs. predicted speedup surfaces and their correlation.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Program names (axis labels).
    pub programs: Vec<String>,
    /// `best[p][u]`.
    pub best: Vec<Vec<f64>>,
    /// `model[p][u]`.
    pub model: Vec<Vec<f64>>,
    /// Pearson correlation over the joint space (paper: 0.93).
    pub correlation: f64,
}

/// Computes Figure 5 from a finished leave-one-out run.
pub fn fig5(ds: &Dataset, loo: &LooResult) -> Fig5 {
    Fig5 {
        programs: ds.programs.clone(),
        best: loo.best_speedup.clone(),
        model: loo.model_speedup.clone(),
        correlation: loo.correlation(),
    }
}

impl std::fmt::Display for Fig5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 5: speedup surfaces over (program x uarch)")?;
        for (which, m) in [("(a) best", &self.best), ("(b) our compiler", &self.model)] {
            writeln!(f, "{which}: per-program mean / max across uarchs")?;
            for (p, row) in m.iter().enumerate() {
                let mx = row.iter().copied().fold(0.0f64, f64::max);
                writeln!(
                    f,
                    "  {:<12} mean {:>5.2} max {:>5.2}",
                    self.programs[p],
                    mean(row),
                    mx
                )?;
            }
        }
        writeln!(
            f,
            "correlation(best, model) = {:.3} (paper: 0.93)",
            self.correlation
        )
    }
}

/// Figures 6/10: per-program model vs. best, averaged over uarchs.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(program, model mean, best mean)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Mean model speedup (paper: 1.16x base space, 1.14x extended).
    pub average_model: f64,
    /// Mean best speedup (paper: 1.23x base, 1.24x extended).
    pub average_best: f64,
    /// Fraction of available improvement captured (paper: 67 %).
    pub fraction_of_best: f64,
}

/// Computes Figure 6 (or Figure 10 when fed the extended-space dataset).
pub fn fig6(ds: &Dataset, loo: &LooResult) -> Fig6 {
    let rows: Vec<(String, f64, f64)> = (0..ds.n_programs())
        .map(|p| {
            (
                ds.programs[p].clone(),
                mean(&loo.model_speedup[p]),
                mean(&loo.best_speedup[p]),
            )
        })
        .collect();
    Fig6 {
        rows,
        average_model: loo.mean_model(),
        average_best: loo.mean_best(),
        fraction_of_best: loo.fraction_of_best(),
    }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 6: per-program speedup over O3 (mean across uarchs)"
        )?;
        writeln!(f, "{:<12} {:>8} {:>8}", "program", "model", "best")?;
        for (name, m, b) in &self.rows {
            writeln!(f, "{:<12} {:>8.3} {:>8.3}", name, m, b)?;
        }
        writeln!(
            f,
            "AVERAGE: model {:.3}x, best {:.3}x, fraction {:.0}% (paper: 1.16x / 1.23x / 67%)",
            self.average_model,
            self.average_best,
            self.fraction_of_best * 100.0
        )
    }
}

/// Figure 7: per-microarchitecture model vs. best, sorted by best.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(uarch index in dataset, model mean, best mean)`, ascending best.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Computes Figure 7.
pub fn fig7(ds: &Dataset, loo: &LooResult) -> Fig7 {
    let nu = ds.n_uarchs();
    let mut rows: Vec<(usize, f64, f64)> = (0..nu)
        .map(|u| {
            let m: Vec<f64> = (0..ds.n_programs())
                .map(|p| loo.model_speedup[p][u])
                .collect();
            let b: Vec<f64> = (0..ds.n_programs())
                .map(|p| loo.best_speedup[p][u])
                .collect();
            (u, mean(&m), mean(&b))
        })
        .collect();
    rows.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    Fig7 { rows }
}

impl std::fmt::Display for Fig7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 7: per-uarch speedup over O3 (mean across programs, sorted by best)"
        )?;
        writeln!(f, "{:<6} {:>8} {:>8}", "uarch", "model", "best")?;
        for (u, m, b) in &self.rows {
            writeln!(f, "{:<6} {:>8.3} {:>8.3}", u, m, b)?;
        }
        Ok(())
    }
}

/// A Hinton diagram: row labels × column labels with `[0,1]` magnitudes.
#[derive(Debug, Clone)]
pub struct Hinton {
    /// Row labels.
    pub rows: Vec<String>,
    /// Column labels.
    pub cols: Vec<String>,
    /// `values[row][col]` in `[0, 1]`.
    pub values: Vec<Vec<f64>>,
}

impl std::fmt::Display for Hinton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render magnitudes as glyph sizes, the ASCII take on a Hinton plot.
        let glyph = |v: f64| -> char {
            match (v * 5.0) as usize {
                0 => '.',
                1 => 'o',
                2 => 'O',
                3 => '#',
                _ => '@',
            }
        };
        let mut header = String::new();
        write!(header, "{:<28}", "")?;
        for c in &self.cols {
            write!(header, "{:>2}", &c[..1.min(c.len())])?;
        }
        writeln!(f, "{header}")?;
        for (r, row) in self.values.iter().enumerate() {
            write!(f, "{:<28}", self.rows[r])?;
            for v in row {
                write!(f, " {}", glyph(*v))?;
            }
            writeln!(f)?;
        }
        writeln!(f, "legend: . o O # @  =  0 .. 1 (normalised MI)")
    }
}

/// Figure 8: per program, the normalised mutual information between each
/// optimisation dimension's setting and the achieved speedup.
pub fn fig8(ds: &Dataset) -> Hinton {
    let dims = OptSpace::dims();
    let nbins = 5;
    let mut values = Vec::new();
    for d in 0..dims.len() {
        let mut row = Vec::new();
        for p in 0..ds.n_programs() {
            // Samples: over all (uarch, setting) pairs of this program.
            let mut xs = Vec::new();
            let mut speeds = Vec::new();
            for u in 0..ds.n_uarchs() {
                for (c, cfg) in ds.configs.iter().enumerate() {
                    if !ds.cycles[p][u][c].is_finite() {
                        continue;
                    }
                    xs.push(cfg.to_choices()[d] as usize);
                    speeds.push(ds.speedup(p, u, c));
                }
            }
            let bins = bin_equal_frequency(&speeds, nbins);
            let pairs: Vec<(usize, usize)> = xs.into_iter().zip(bins).collect();
            row.push(normalized_mutual_information(
                &pairs,
                dims[d].cardinality,
                nbins,
            ));
        }
        values.push(row);
    }
    Hinton {
        rows: dims.iter().map(|d| d.name.to_string()).collect(),
        cols: ds.programs.clone(),
        values,
    }
}

/// Figure 9: mutual information between each feature (binned) and the
/// best setting of each optimisation dimension, over all pairs.
pub fn fig9(ds: &Dataset) -> Hinton {
    let dims = OptSpace::dims();
    let nbins = 5;
    // Best setting per pair.
    let mut best_choice: Vec<Vec<Vec<u8>>> = Vec::new();
    for p in 0..ds.n_programs() {
        let mut row = Vec::new();
        for u in 0..ds.n_uarchs() {
            let best_c = ds.good_set(p, u, 1e-9)[0];
            row.push(ds.configs[best_c].to_choices());
        }
        best_choice.push(row);
    }
    let feature_names = FeatureVec::names();
    let nf = feature_names.len();
    let mut values = Vec::new();
    for d in 0..dims.len() {
        let mut row = Vec::new();
        for fi in 0..nf {
            let mut fvals = Vec::new();
            let mut choices = Vec::new();
            for p in 0..ds.n_programs() {
                for u in 0..ds.n_uarchs() {
                    fvals.push(ds.features[p][u].values[fi]);
                    choices.push(best_choice[p][u][d] as usize);
                }
            }
            let bins = bin_equal_frequency(&fvals, nbins);
            let pairs: Vec<(usize, usize)> = bins.into_iter().zip(choices).collect();
            row.push(normalized_mutual_information(
                &pairs,
                nbins,
                dims[d].cardinality,
            ));
        }
        values.push(row);
    }
    Hinton {
        rows: dims.iter().map(|d| d.name.to_string()).collect(),
        cols: feature_names.iter().map(|s| s.to_string()).collect(),
        values,
    }
}

/// Figure 1: best-setting segment diagrams for three programs on three
/// microarchitectures, restricted to the paper's five headline passes.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Program names (columns).
    pub programs: Vec<String>,
    /// Microarchitecture labels (rows).
    pub uarchs: Vec<String>,
    /// `enabled[u][p][k]`: whether pass `k` of [`Fig1::PASSES`] is enabled
    /// in the best setting.
    pub enabled: Vec<Vec<Vec<bool>>>,
}

impl Fig1 {
    /// The five passes of the paper's segment diagrams.
    pub const PASSES: [&'static str; 5] = [
        "freorder_blocks",
        "funroll_loops",
        "finline_functions",
        "fschedule_insns",
        "fgcse",
    ];
}

/// Computes Figure 1 from a dataset restricted to (or containing) the
/// requested programs and microarchitectures (by dataset index).
pub fn fig1(ds: &Dataset, progs: &[usize], uarchs: &[usize], labels: &[String]) -> Fig1 {
    let dims = OptSpace::dims();
    let pass_idx: Vec<usize> = Fig1::PASSES
        .iter()
        .map(|n| dims.iter().position(|d| d.name == *n).expect("known pass"))
        .collect();
    let mut enabled = Vec::new();
    for &u in uarchs {
        let mut per_prog = Vec::new();
        for &p in progs {
            let best_c = ds.good_set(p, u, 1e-9)[0];
            let choices = ds.configs[best_c].to_choices();
            per_prog.push(pass_idx.iter().map(|&k| choices[k] != 0).collect());
        }
        enabled.push(per_prog);
    }
    Fig1 {
        programs: progs.iter().map(|&p| ds.programs[p].clone()).collect(),
        uarchs: labels.to_vec(),
        enabled,
    }
}

impl std::fmt::Display for Fig1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 1: best passes per program/uarch (filled = enable)"
        )?;
        writeln!(f, "passes: {:?}", Fig1::PASSES)?;
        for (u, row) in self.enabled.iter().enumerate() {
            for (p, seg) in row.iter().enumerate() {
                let marks: String = seg.iter().map(|&e| if e { '#' } else { '.' }).collect();
                writeln!(
                    f,
                    "  {:<28} {:<12} [{}]",
                    self.uarchs[u], self.programs[p], marks
                )?;
            }
        }
        Ok(())
    }
}

/// §5.3: iterative-compilation evaluations needed to match the model.
#[derive(Debug, Clone)]
pub struct ItersToMatch {
    /// `(program, mean evaluations to reach the model's cycles)`.
    pub rows: Vec<(String, f64)>,
    /// Grand mean (paper: ≈50).
    pub average: f64,
}

/// Computes the §5.3 comparison: walking the dataset's random settings in
/// order (= random iterative search), how many evaluations until matching
/// the model's predicted performance?
pub fn iters_to_match(ds: &Dataset, loo: &LooResult) -> ItersToMatch {
    let mut rows = Vec::new();
    let mut all = Vec::new();
    for p in 0..ds.n_programs() {
        let mut per_pair = Vec::new();
        for u in 0..ds.n_uarchs() {
            let target = ds.o3_cycles[p][u] / loo.model_speedup[p][u];
            let mut best = f64::INFINITY;
            let mut hit = ds.configs.len();
            for (c, &cy) in ds.cycles[p][u].iter().enumerate() {
                best = best.min(cy);
                if best <= target {
                    hit = c + 1;
                    break;
                }
            }
            per_pair.push(hit as f64);
        }
        let m = mean(&per_pair);
        all.extend(per_pair);
        rows.push((ds.programs[p].clone(), m));
    }
    ItersToMatch {
        rows,
        average: mean(&all),
    }
}

impl std::fmt::Display for ItersToMatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Iterative compilation evaluations to match the model (§5.3)"
        )?;
        for (name, n) in &self.rows {
            writeln!(f, "  {:<12} {:>6.1}", name, n)?;
        }
        writeln!(f, "AVERAGE: {:.1} evaluations (paper: ≈50)", self.average)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_core::{GenOptions, Sweep, SweepScale};
    use portopt_mibench::{suite, Workload};

    fn small() -> (Dataset, Vec<portopt_ir::Module>) {
        let progs: Vec<_> = suite(Workload::default()).into_iter().take(4).collect();
        let pairs: Vec<(String, portopt_ir::Module)> = progs
            .iter()
            .map(|p| (p.name.to_string(), p.module.clone()))
            .collect();
        let ds = Sweep::new(GenOptions {
            scale: SweepScale {
                n_uarch: 3,
                n_opts: 20,
            },
            seed: 42,
            extended_space: false,
            threads: 2,
        })
        .run(&pairs)
        .0;
        let modules = pairs.into_iter().map(|(_, m)| m).collect();
        (ds, modules)
    }

    #[test]
    fn fig4_shapes_and_sanity() {
        let (ds, _) = small();
        let f = fig4(&ds);
        assert_eq!(f.rows.len(), 4);
        assert!(f.average_best >= 1.0);
        assert!(f.average_worst <= 1.0 + 1e-9);
        assert!(f.worst_case <= f.average_worst);
        let s = f.to_string();
        assert!(s.contains("AVERAGE"));
    }

    #[test]
    fn fig8_fig9_are_normalised() {
        let (ds, _) = small();
        for h in [fig8(&ds), fig9(&ds)] {
            for row in &h.values {
                for &v in row {
                    assert!((0.0..=1.0).contains(&v), "NMI out of range: {v}");
                }
            }
            assert_eq!(h.values.len(), OptSpace::n_dims());
            let _ = h.to_string();
        }
    }

    #[test]
    fn fig1_picks_best_settings() {
        let (ds, _) = small();
        let f = fig1(&ds, &[0, 1], &[0, 1], &["A".into(), "B".into()]);
        assert_eq!(f.enabled.len(), 2);
        assert_eq!(f.enabled[0].len(), 2);
        assert_eq!(f.enabled[0][0].len(), 5);
        let _ = f.to_string();
    }

    #[test]
    fn full_figure_pipeline_runs() {
        let (ds, modules) = small();
        let loo = crate::loo::run_loo(&ds, &modules, 2);
        let f5 = fig5(&ds, &loo);
        assert!((-1.0..=1.0).contains(&f5.correlation));
        let f6 = fig6(&ds, &loo);
        assert!(f6.average_best >= 1.0);
        let f7 = fig7(&ds, &loo);
        // Sorted ascending by best.
        for w in f7.rows.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        let it = iters_to_match(&ds, &loo);
        assert!(it.average >= 1.0);
        let _ = (
            f5.to_string(),
            f6.to_string(),
            f7.to_string(),
            it.to_string(),
        );
    }
}
