//! Summary statistics shared by every workload: the percentile rule,
//! geometric means, and the rate-ladder selection.

/// The percentiles a timing's tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 100]`.
/// Infinite samples (failed requests) sort last and are returned as-is.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing summarised the way every timing in this benchmark is: the
/// median, plus the highest percentile that still has at least ten
/// samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub median: f64,
    /// The tail percentile used (`0` when fewer than 40 samples exist,
    /// in which case `tail` repeats the maximum).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `samples` (any order). `None` for an empty set.
pub fn timing(samples: &[f64]) -> Option<Timing> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|q| n as f64 * (1.0 - q / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(0.0);
    let tail = if tail_pct > 0.0 {
        percentile(&s, tail_pct)
    } else {
        s[n - 1]
    };
    Some(Timing {
        n,
        median: percentile(&s, 50.0),
        tail_pct,
        tail,
    })
}

/// Median of `xs` (any order); `0` for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    timing(xs).map_or(0.0, |t| t.median)
}

/// Geometric mean of strictly positive values; `None` if any value is
/// not a positive finite number or the set is empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| !x.is_finite() || *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// The outcome of one open-loop step of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate (requests per second).
    pub offered_rps: f64,
    /// Replies received per second of the step's sending window.
    pub achieved_rps: f64,
    /// Tail latency with failures counted as misses (`inf` when any
    /// request of the step failed).
    pub p99_ms: f64,
    /// Requests refused, answered with an error, or never answered.
    pub failures: usize,
    /// The server's queue depth grew across the step.
    pub backlog_grew: bool,
}

impl Step {
    /// Whether the step meets the latency limit with no failures and no
    /// growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failures == 0 && !self.backlog_grew && self.p99_ms <= limit_ms
    }
}

/// The passing step with the highest offered rate (probes between a
/// passing and a failing rate included), as the rate it actually
/// sustained; `0` when no step passes.
pub fn max_rate(steps: &[Step], limit_ms: f64) -> f64 {
    steps
        .iter()
        .filter(|s| s.passes(limit_ms))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
        .map_or(0.0, |s| s.achieved_rps)
}

/// Whether queue-depth samples taken across a step show a growing
/// backlog. The first sample (taken as the step starts) is skipped; the
/// backlog grew when the last sample exceeds the first one after it by
/// more than `slack` and the one before last also sits above that first
/// one, so a single burst caught by one sample does not count.
pub fn backlog_grew(depths: &[usize], slack: usize) -> bool {
    match depths.get(1..) {
        Some([first, .., before_last, last]) => last > &(first + slack) && before_last > first,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let t = |n: usize| timing(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        assert_eq!(t(10_000).tail_pct, 99.9);
        assert_eq!(t(1_000).tail_pct, 99.0);
        assert_eq!(t(999).tail_pct, 95.0);
        assert_eq!(t(200).tail_pct, 95.0);
        assert_eq!(t(100).tail_pct, 90.0);
        assert_eq!(t(99).tail_pct, 75.0);
        assert_eq!(t(40).tail_pct, 75.0);
        let small = t(39);
        assert_eq!((small.tail_pct, small.tail), (0.0, 38.0));
        let big = t(1_000);
        assert_eq!((big.n, big.median, big.tail), (1_000, 499.0, 989.0));
        assert!(timing(&[]).is_none());
    }

    #[test]
    fn failures_count_as_tail_misses() {
        let mut xs = vec![1.0; 990];
        xs.extend([f64::INFINITY; 11]);
        let t = timing(&xs).unwrap();
        assert_eq!(t.median, 1.0);
        assert!(t.tail.is_infinite(), "11 failed of 1001 must miss p99");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    fn step(offered: f64, p99: f64, failures: usize, grew: bool) -> Step {
        Step {
            offered_rps: offered,
            achieved_rps: offered * 0.99,
            p99_ms: p99,
            failures,
            backlog_grew: grew,
        }
    }

    #[test]
    fn ladder_takes_the_highest_passing_rate() {
        let steps = [
            step(1000.0, 6.0, 0, false),
            step(2000.0, 7.0, 0, false),
            step(4000.0, 35.0, 0, false), // misses the limit
            step(3000.0, 12.0, 0, false), // probe between pass and fail
        ];
        assert_eq!(max_rate(&steps, 20.0), 3000.0 * 0.99);
        // A refusal or a growing queue fails a step whatever its latency.
        let steps = [step(1000.0, 6.0, 0, false), step(2000.0, 6.0, 1, false)];
        assert_eq!(max_rate(&steps, 20.0), 1000.0 * 0.99);
        let steps = [step(1000.0, 6.0, 0, false), step(2000.0, 6.0, 0, true)];
        assert_eq!(max_rate(&steps, 20.0), 1000.0 * 0.99);
        assert_eq!(max_rate(&[step(1000.0, 25.0, 0, false)], 20.0), 0.0);
    }

    #[test]
    fn backlog_growth_needs_a_sustained_rise() {
        // Depth noise of a few batches while keeping up.
        assert!(!backlog_grew(&[0, 120, 30, 200, 90], 256));
        // One burst caught by the last sample only.
        assert!(!backlog_grew(&[0, 40, 30, 20, 900], 256));
        // A queue falling behind the offered rate.
        assert!(backlog_grew(&[0, 500, 1900, 3400, 5000], 256));
        assert!(!backlog_grew(&[0, 10], 256));
        assert!(!backlog_grew(&[], 256));
    }
}
