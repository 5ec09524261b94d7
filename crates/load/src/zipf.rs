//! Zipfian popularity sampling.
//!
//! Real KG query traffic is head-heavy: a few entities draw most of the
//! reads. A zipf(s) sampler over the store's entity ids reproduces that
//! shape — rank-`k` probability ∝ `1/k^s` — which is what makes the
//! per-shard chain caches earn (or fail to earn) their hit rate under
//! load, instead of the uniform traffic a naive generator would offer.

use cf_rand::rngs::StdRng;
use cf_rand::Rng;

/// `Ok` for the exponents [`ZipfSampler::new`] accepts (finite and
/// non-negative), else an error naming `s`.
pub fn check_exponent(s: f64) -> Result<(), String> {
    if s.is_finite() && s >= 0.0 {
        Ok(())
    } else {
        Err(format!("zipf exponent must be ≥ 0, got {s}"))
    }
}

/// Samples ranks `0..n` with probability ∝ `1/(rank+1)^s` by inverse-CDF
/// lookup. Construction is O(n) and sampling is O(log n); the CDF is built
/// once per plan, so a million-entity store costs one pass.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative unnormalized mass; `cdf[k]` = Σ_{j≤k} 1/(j+1)^s.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform, `s ≈ 1` is classic zipf). Panics if `n == 0` or `s` fails
    /// [`check_exponent`].
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "cannot sample from an empty population");
        if let Err(e) = check_exponent(s) {
            panic!("{e}");
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the population has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false // `new` rejects n == 0
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty by construction");
        let u = rng.gen::<f64>() * total;
        // partition_point: first rank whose cumulative mass exceeds u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_rand::SeedableRng;

    #[test]
    fn samples_are_deterministic_and_in_range() {
        let z = ZipfSampler::new(1000, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..256).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..256).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&r| r < 1000));
    }

    #[test]
    fn exponent_one_is_head_heavy() {
        let z = ZipfSampler::new(10_000, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let head = (0..20_000).filter(|_| z.sample(&mut rng) < 100).count() as f64 / 20_000.0;
        // Under zipf(1) over 10k ranks the top 100 carry
        // H(100)/H(10000) ≈ 5.19/9.79 ≈ 53% of the mass.
        assert!(head > 0.4, "top-1% mass {head}, expected head-heavy");
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.5, "uniform sampler skewed: {min}..{max}");
    }

    #[test]
    fn single_rank_population_always_returns_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
