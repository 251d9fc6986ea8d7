//! Order statistics and the fidelity computations the metrics are built
//! from. Everything here is a pure function of its inputs.

/// The paper's DMDP-over-NoSQ geomean IPC speedups (Fig. 12), in percent.
pub const PAPER_SPEEDUP_INT_PCT: f64 = 7.17;
/// See [`PAPER_SPEEDUP_INT_PCT`].
pub const PAPER_SPEEDUP_FP_PCT: f64 = 4.48;

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `v`.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// A tail latency: the highest percentile above the median that still
/// has at least [`Tail::MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (100 when no percentile above
    /// the median has enough samples beyond it and the maximum is
    /// reported instead).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Tail {
    /// Samples a tail percentile must leave above it.
    pub const MIN_BEYOND: usize = 10;

    /// The tail of `v`: the sample at rank `n − 10` (1-based), i.e. the
    /// eleventh largest, at percentile `(n − 10) / n`. With twenty
    /// samples or fewer that rank is at or below the median, not a tail,
    /// so the maximum is reported at p100 with nothing beyond it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is empty.
    pub fn of(v: &[f64]) -> Tail {
        assert!(!v.is_empty(), "tail of no samples");
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n > 2 * Tail::MIN_BEYOND {
            let rank = n - Tail::MIN_BEYOND;
            Tail {
                pct: rank as f64 / n as f64 * 100.0,
                value: s[rank - 1],
                n,
                beyond: n - rank,
            }
        } else {
            Tail {
                pct: 100.0,
                value: s[n - 1],
                n,
                beyond: 0,
            }
        }
    }
}

/// Geometric mean of `model_ipc / reference_ipc` over paired rows, as a
/// percentage speedup (`+3.5` means 3.5 % faster).
///
/// # Panics
///
/// Panics if `pairs` is empty or an IPC is not positive.
pub fn geomean_speedup_pct(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "speedup over no rows");
    let log_sum: f64 = pairs
        .iter()
        .map(|&(reference, model)| {
            assert!(reference > 0.0 && model > 0.0, "IPC must be positive");
            (model / reference).ln()
        })
        .sum();
    ((log_sum / pairs.len() as f64).exp() - 1.0) * 100.0
}

/// Absolute gap in percentage points between a measured speedup and the
/// paper's.
pub fn paper_gap_pp(measured_pct: f64, paper_pct: f64) -> f64 {
    (measured_pct - paper_pct).abs()
}

/// Max and mean of `|sampled − full| / full` in percent over paired
/// `(sampled_ipc, full_ipc)` rows.
///
/// # Panics
///
/// Panics if `pairs` is empty or a full IPC is not positive.
pub fn sampled_errors_pct(pairs: &[(f64, f64)]) -> (f64, f64) {
    assert!(!pairs.is_empty(), "sampled error over no rows");
    let errs: Vec<f64> = pairs
        .iter()
        .map(|&(sampled, full)| {
            assert!(full > 0.0, "full IPC must be positive");
            ((sampled - full) / full).abs() * 100.0
        })
        .collect();
    let max = errs.iter().copied().fold(0.0, f64::max);
    (max, errs.iter().sum::<f64>() / errs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 40 samples 1..=40: rank 30 (p75) is the highest with ten above.
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.value, 30.0);
        assert!(close(t.pct, 75.0));
        assert_eq!((t.n, t.beyond), (40, 10));
        // 21 samples: rank 11 (p52.4) is the lowest rank still above
        // the median.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!((t.value, t.beyond), (11.0, 10));
        assert!(close(t.pct, 1100.0 / 21.0));
        // 100 samples: p90 exactly.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!((t.value, t.pct, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_of_few_samples_is_the_max() {
        let t = Tail::of(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.pct, t.n, t.beyond), (9.0, 100.0, 3, 0));
        // Up to 20 samples the rank with ten above is not above the
        // median, so the maximum stands in.
        for n in [10, 11, 20] {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = Tail::of(&v);
            assert_eq!((t.value, t.pct, t.beyond), (f64::from(n), 100.0, 0));
        }
    }

    #[test]
    fn speedup_and_paper_gap_by_hand() {
        // Ratios 1.1 and 1.0: geomean sqrt(1.1) = 1.048808848…
        let s = geomean_speedup_pct(&[(1.0, 1.1), (2.0, 2.0)]);
        assert!(close(s, (1.1f64.sqrt() - 1.0) * 100.0));
        assert!((s - 4.880_884_817).abs() < 1e-6);
        assert!((paper_gap_pp(s, PAPER_SPEEDUP_INT_PCT) - 2.289_115_183).abs() < 1e-6);
        // The seed's +3.45 % / +3.50 % give the 3.72 / 0.98 pp gaps.
        assert!(close(paper_gap_pp(3.45, PAPER_SPEEDUP_INT_PCT), 3.72));
        assert!(close(paper_gap_pp(3.50, PAPER_SPEEDUP_FP_PCT), 0.98));
        // A slowdown is a gap too.
        assert!(close(paper_gap_pp(-1.0, 4.48), 5.48));
    }

    #[test]
    fn sampled_errors_by_hand() {
        // |1.1-1|/1 = 10 %, |1.9-2|/2 = 5 %, |3-3|/3 = 0 %.
        let (max, mean) = sampled_errors_pct(&[(1.1, 1.0), (1.9, 2.0), (3.0, 3.0)]);
        assert!(close(max, 10.0));
        assert!(close(mean, 5.0));
    }
}
