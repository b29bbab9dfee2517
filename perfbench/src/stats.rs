//! Summary statistics and failure accounting.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is measured at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples needed before the `num/den` percentile has
/// [`MIN_BEYOND_TAIL`] samples beyond it (1000 for p99).
pub fn samples_for_tail(num: usize, den: usize) -> usize {
    (MIN_BEYOND_TAIL * den).div_ceil(den - num)
}

/// The nearest-rank `num/den` percentile, or `None` when fewer than
/// [`MIN_BEYOND_TAIL`] samples lie beyond it — a tail read off fewer
/// samples is one outlier, not a percentile.
pub fn tail(samples: &[f64], num: usize, den: usize) -> Option<f64> {
    let n = samples.len();
    let rank = (num * n).div_ceil(den).max(1);
    if n < rank + MIN_BEYOND_TAIL {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Operations attempted and failed. A failed operation is one that
/// errored, timed out, answered a non-200 status, or returned output
/// that differs from the in-process reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns `ok` so callers can branch on it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (`0.0` when none ran).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_for_tail(99, 100), 1000);
        assert_eq!(samples_for_tail(95, 100), 200);
        let below: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&below, 99, 100), None);
        let at: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&at, 99, 100), Some(990.0));
    }

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        for n in [1000usize, 1001, 1500, 4321] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p99 = tail(&v, 99, 100).expect("enough samples");
            let beyond = v.iter().filter(|&&x| x > p99).count();
            assert!(beyond >= MIN_BEYOND_TAIL, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = tail(&v, 99, 100);
        v.reverse();
        assert_eq!(a, tail(&v, 99, 100));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert!(t.record(true));
        assert!(!t.record(false));
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_share(), 0.25);
        let mut total = Tally::default();
        assert_eq!(total.failed_share(), 0.0);
        total.absorb(t);
        total.absorb(Tally {
            attempted: 6,
            failed: 0,
        });
        assert_eq!((total.attempted, total.failed), (10, 1));
        assert_eq!(total.failed_share(), 0.1);
    }
}
