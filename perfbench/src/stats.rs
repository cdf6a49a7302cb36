//! Order statistics used by every workload.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median; the mean of the two middle samples for an even count, 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest whole percentile that leaves at least `beyond` samples
/// above it, with its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `[0, 100)`.
    pub percentile: u32,
    /// Its value: the `ceil(percentile · n / 100)`-th order statistic.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Selects the tail percentile of `samples`: the largest whole `p` whose
/// order statistic `ceil(p · n / 100)` has at least `beyond` samples above
/// it. `None` when the run is too short to leave `beyond` samples above
/// any sample.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    let n = samples.len();
    if n <= beyond {
        return None;
    }
    let s = sorted(samples);
    // rank(p) = ceil(p·n/100) must stay <= n - beyond.
    let mut p = (100 * (n - beyond) / n) as u32;
    while p > 0 && rank(p, n) > n - beyond {
        p -= 1;
    }
    let r = rank(p, n).max(1);
    Some(Tail { percentile: p, value: s[r - 1], samples: n })
}

fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100)
}

/// The tail of `samples`. A run too short to have a tail percentile
/// reports its median instead, as percentile 50: the maximum of a few
/// samples moved by a third from run to run.
pub fn tail_or_median(samples: &[f64]) -> Tail {
    tail(samples, TAIL_BEYOND).unwrap_or_else(|| Tail {
        percentile: 50,
        value: median(samples),
        samples: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
