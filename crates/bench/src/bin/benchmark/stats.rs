//! Latency histograms, percentile rules and the small statistics the
//! reports need.

/// Sub-buckets per power of two. Each bucket's midpoint is within
/// `1 / (2 * SUB)` of every value in it, 0.012%: well inside the 0.4% the
/// benchmark promises, so no sample has to be kept, and fine enough that
/// seeds whose percentiles differ read differently.
const SUB_BITS: u32 = 12;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

/// A log-linear histogram of `u64` samples (simulated nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let mantissa = (v >> shift) - SUB;
    ((shift + 1) as u64 * SUB + mantissa) as usize
}

/// The values bucket `b` holds: `[low, low + width)`.
fn bounds(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = b / SUB - 1;
    (((SUB + b % SUB) << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The nearest-rank `p`-th percentile (the value with rank
    /// `ceil(p / 100 * n)`), or `None` when empty. Within its bucket the
    /// value is interpolated by rank, as if the bucket's samples were
    /// spread evenly across it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = rank(p, self.n).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (low, width) = bounds(b);
                return Some(low + width * ((rank - seen) as f64 - 0.5) / c as f64);
            }
            seen += c;
        }
        None
    }
}

fn rank(p: f64, n: u64) -> u64 {
    (p / 100.0 * n as f64).ceil() as u64
}

/// The highest of p99, p90 and p50 that has at least ten samples beyond
/// it, so a tail is never read off a handful of samples; `None` below 20.
pub fn tail_percentile(n: u64) -> Option<f64> {
    [99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// `a / b`, or 0 when `b` is 0: a layer that did no work reports 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    ratio(q3 - q1, median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_sim::SplitMix64;

    fn exact(sorted: &[u64], p: f64) -> f64 {
        sorted[(rank(p, sorted.len() as u64).max(1) - 1) as usize] as f64
    }

    #[test]
    fn histogram_matches_an_exact_sort_within_0_4_percent() {
        let mut rng = SplitMix64::new(42);
        for scale in [1_000u64, 1_000_000, 3_000_000_000] {
            let mut h = Histogram::default();
            let mut all = Vec::new();
            for _ in 0..20_000 {
                // Log-uniform over three decades, the shape of real tails.
                let v = scale
                    + (scale as f64
                        * 1000f64.powf(rng.next_below(1 << 20) as f64 / (1 << 20) as f64))
                        as u64;
                h.record(v);
                all.push(v);
            }
            all.sort_unstable();
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let want = exact(&all, p);
                let got = h.percentile(p).unwrap();
                assert!(
                    (got - want).abs() / want <= 0.004,
                    "p{p} at scale {scale}: histogram {got} vs exact {want}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some((SUB / 2 - 1) as f64 + 0.5));
        assert_eq!(h.percentile(100.0), Some((SUB - 1) as f64 + 0.5));
        assert_eq!(Histogram::default().percentile(50.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn zero_denominators_report_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
