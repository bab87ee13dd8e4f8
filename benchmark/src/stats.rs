//! Summary statistics and the seeded arrival schedule.

/// Percentiles a tail may be reported at. The reported tail is the highest
/// of these with at least [`MIN_BEYOND`] samples beyond it, so a tail is
/// never read off a handful of outliers.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`] of
/// `n` samples beyond it; the median when no rung qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| beyond(n, *p) >= MIN_BEYOND)
        .fold(50.0, f64::max)
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// Integer arithmetic in tenths of a percent, so `p95` of 200 samples is
/// rank 190 and not 191 through a rounding error.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts). Empty reads 0.
pub fn median(xs: &[f64]) -> f64 {
    median_of_sorted(&sorted(xs))
}

fn median_of_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and rule-chosen tail of one sample set.
pub fn median_and_tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let p50 = median_of_sorted(&v);
    match tail_percentile(v.len()) {
        p if p > 50.0 => (p50, percentile(&v, p)),
        _ => (p50, p50),
    }
}

/// Arithmetic mean. Empty reads 0.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of positive values. Empty reads 0.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `part / whole`, reading 0 when nothing was counted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// 64-bit linear congruential generator (Knuth's MMIX constants): the one
/// source of randomness for schedules and request seeds, so a `--seed`
/// reproduces a run's inputs exactly.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        // one scramble step so small seeds do not start in a low-entropy state
        let mut g = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // the low bits of an LCG are weak; fold the high half down
        self.0 ^ (self.0 >> 32)
    }

    /// Uniform in (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Poisson arrival offsets (seconds from phase start) at `rate_per_s` over
/// `duration_s`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(rng: &mut Lcg, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * duration_s) as usize + 16);
    loop {
        at += -rng.next_unit().ln() / rate_per_s;
        if at >= duration_s {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0); // p50 itself leaves only 9
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0); // p90 leaves 9
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(1_000_000), 99.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Lcg::new(7), 600.0, 2.0);
        let b = poisson_schedule(&mut Lcg::new(7), 600.0, 2.0);
        let c = poisson_schedule(&mut Lcg::new(8), 600.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t > 0.0 && t < 2.0));
        // 1200 expected arrivals; five sigma is ±173
        assert!((a.len() as f64 - 1200.0).abs() < 173.0, "{}", a.len());
    }
}
