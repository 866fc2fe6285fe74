//! Order statistics and the small deterministic RNG the workloads draw
//! their inputs from.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has at least ten samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The latency at that rank.
    pub value: f64,
    /// Which percentile it is (`100 * rank / n`).
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

impl Tail {
    /// `p90 of 250` style label.
    pub fn label(&self) -> String {
        if self.n > 10 {
            format!("p{:.1} of {}", self.percentile, self.n)
        } else {
            format!("max of {} (fewer than 11 samples)", self.n)
        }
    }
}

/// The tail of `values` (see [`Tail`]). With ten samples or fewer there is
/// no such percentile; the maximum stands in and the label says so.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            n,
        };
    }
    let rank = if n > 10 { n - 10 } else { n };
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// SplitMix64: the benchmark's only source of randomness, so the same
/// workload seed always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream label, so independent
    /// input families drawn from one workload seed do not overlap.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&v[..5]).value, 5.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
    }
}
