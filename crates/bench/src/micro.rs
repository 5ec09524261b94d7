//! Minimal micro-benchmark harness (offline replacement for Criterion).
//!
//! One timing loop: [`Criterion::bench_function`] drives a [`Bencher`],
//! and [`Bencher::iter`] picks once an iteration count whose wall time is
//! ≈[`SAMPLE_BUDGET_NS`], then times `sample_size` samples of it. Each
//! benchmark prints its min / median / mean per-call time and keeps a
//! [`BenchStats`] for the bench to write. No outlier analysis: these
//! numbers guide optimization work, they are not a measurement paper. Set
//! `CF_BENCH_SAMPLES` to override every sample count (e.g. `=1` for a
//! smoke run in CI).
//!
//! Every bench under `benches/` writes its numbers as `results/BENCH_*.json`
//! rows (`tensor_kernels` through this loop; `kg_retrieval` and `kg_mutate`
//! time single operations with [`secs`] and [`percentiles`]).

use std::hint::black_box;
use std::time::Instant;

/// Wall-time target for one calibrated sample.
const SAMPLE_BUDGET_NS: f64 = 2_000_000.0;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The (p50, p99) of per-operation latencies, picked by rank.
pub fn percentiles(mut lat: Vec<f64>) -> (f64, f64) {
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize];
    (pick(0.50), pick(0.99))
}

/// Summary statistics of one finished benchmark, in nanoseconds per call.
/// Collected by [`Criterion`] so bench binaries can persist a machine-readable
/// report (see `report::write_json_merged`) next to the console output.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark id.
    pub name: String,
    /// Median per-call time.
    pub median_ns: f64,
    /// Mean per-call time.
    pub mean_ns: f64,
    /// Fastest sample's per-call time.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Top-level benchmark driver; build with `Criterion::default()` and
/// adjust with [`sample_size`](Criterion::sample_size).
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    results: Vec<BenchStats>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark (env
    /// `CF_BENCH_SAMPLES` overrides at run time).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    fn effective_samples(&self) -> usize {
        std::env::var("CF_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or(self.sample_size)
    }

    /// Runs one named benchmark; the closure drives a [`Bencher`].
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.effective_samples(),
        };
        f(&mut b);
        let stats = summarize(&id.into(), &b.samples);
        report(&stats);
        self.results.push(stats);
        self
    }

    /// Statistics of every benchmark run so far, in execution order.
    pub fn results(&self) -> &[BenchStats] {
        &self.results
    }
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    /// Per-call nanoseconds, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine` repeatedly, black-boxing its output.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let iters = calibrate(|| {
            black_box(routine());
        });
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples
                .push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
}

/// Picks an iteration count so one sample takes ≈ the budget, from a
/// repeatable routine.
fn calibrate<F: FnMut()>(mut routine: F) -> u64 {
    routine(); // warm caches and lazy statics
    let t0 = Instant::now();
    routine();
    iters_for(t0.elapsed().as_nanos() as f64)
}

fn iters_for(single_ns: f64) -> u64 {
    (SAMPLE_BUDGET_NS / single_ns.max(1.0)).clamp(1.0, 1_000_000.0) as u64
}

fn summarize(name: &str, samples: &[f64]) -> BenchStats {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    BenchStats {
        name: name.to_string(),
        median_ns: sorted.get(sorted.len() / 2).copied().unwrap_or(0.0),
        mean_ns: sorted.iter().sum::<f64>() / sorted.len().max(1) as f64,
        min_ns: sorted.first().copied().unwrap_or(0.0),
        samples: sorted.len(),
    }
}

fn report(stats: &BenchStats) {
    println!(
        "{:<40} median {:>10}  mean {:>10}  min {:>10}  ({} samples)",
        stats.name,
        fmt_ns(stats.median_ns),
        fmt_ns(stats.mean_ns),
        fmt_ns(stats.min_ns),
        stats.samples
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_requested_samples() {
        let mut c = Criterion::default().sample_size(5);
        let mut seen = 0;
        c.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            seen = 5;
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn format_scales_units() {
        assert_eq!(fmt_ns(500.0), "500.0 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }

    #[test]
    fn calibration_never_returns_zero_iters() {
        assert_eq!(iters_for(f64::INFINITY), 1);
        assert!(iters_for(0.0) >= 1);
    }
}
