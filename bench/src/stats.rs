//! Order statistics for the benchmark's samples.
//!
//! Every timing metric is a median over sample groups; its spread is the
//! inter-quartile range computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does, because that is the definition
//! the acceptance check uses.

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, taxes).
    Lower,
    /// Larger values are better (speedups, rates).
    Higher,
}

/// The percentile ladder the tail report chooses from, in per-mille (so the
/// rank arithmetic is exact).
const LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// Median, sample count, spread and bad-side tail of one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Q3 − Q1 (0 with fewer than two samples).
    pub iqr: f64,
    /// `(p, value)`: the highest ladder percentile with at least ten
    /// samples beyond it, taken on the *worse* side of the distribution
    /// (the upper tail for [`Better::Lower`], the lower tail otherwise).
    pub p_hi: Option<(f64, f64)>,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `xs`, by the "exclusive" method of
/// Python's `statistics.quantiles(xs, n=4)`. `None` with fewer than two
/// samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Q1 of `xs` (the sample itself when there is only one).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn first_quartile(xs: &[f64]) -> f64 {
    quartiles(xs).map_or_else(|| median(xs), |q| q[0])
}

/// Q3 − Q1 of `xs` (0 with fewer than two samples).
pub fn iqr(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |q| q[2] - q[0])
}

/// Nearest rank (1-based) of the `permille` point among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000)
}

/// The highest ladder percentile that still has at least ten of `n`
/// samples beyond it, in per-mille, or `None` when even the 75th does not.
fn tail_permille(n: usize) -> Option<usize> {
    LADDER.iter().copied().rfind(|pm| n - rank(n, *pm) >= 10)
}

/// Summarises `samples` of a metric whose good direction is `better`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64], better: Better) -> Summary {
    let v = sorted(samples);
    // The tail is mirrored for higher-is-better metrics, so that "ten
    // samples beyond" always counts samples worse than the one reported.
    let p_hi = tail_permille(v.len()).map(|pm| {
        let r = rank(v.len(), pm);
        let at = match better {
            Better::Lower => r - 1,
            Better::Higher => v.len() - r,
        };
        (pm as f64 / 10.0, v[at])
    });
    Summary {
        value: median(&v),
        n: v.len(),
        iqr: iqr(&v),
        p_hi,
    }
}

/// The within-group ratios `num[i] / den[i]` — the samples of every paired
/// end-to-end metric.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn paired_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    assert_eq!(num.len(), den.len(), "paired samples must align");
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        assert_eq!(iqr(&xs), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr(&[1.0]), 0.0);
        assert_eq!(first_quartile(&xs), 2.75);
        assert_eq!(first_quartile(&[4.0]), 4.0);
    }

    #[test]
    fn paired_ratio_median_is_robust_to_a_common_drift() {
        // Both sides drift 3x in the second half; each pair's ratio holds.
        let den = [1.0, 1.1, 0.9, 3.0, 3.3, 2.7];
        let num: Vec<f64> = den.iter().map(|d| d * 5.0).collect();
        let r = paired_ratios(&num, &den);
        assert!((median(&r) - 5.0).abs() < 1e-12);
        // The ratio of medians would be the same here, but the ratio of
        // one side's median to a stale baseline would not.
        assert!((median(&num) / den[0] - 9.5).abs() < 1e-9);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(39), None);
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(1_000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn tail_is_taken_on_the_worse_side() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let lo = summarize(&xs, Better::Lower);
        assert_eq!(lo.p_hi, Some((90.0, 90.0)));
        let hi = summarize(&xs, Better::Higher);
        assert_eq!(hi.p_hi, Some((90.0, 11.0)));
        assert_eq!((lo.value, lo.n), (50.5, 100));
        assert_eq!(summarize(&[1.0, 2.0], Better::Lower).p_hi, None);
    }
}
