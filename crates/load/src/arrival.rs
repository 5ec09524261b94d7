//! Deterministic arrival processes.
//!
//! An open-loop generator needs the *schedule* fixed up front; these
//! helpers turn (process, rate, seed) into a sorted list of microsecond
//! offsets from the run start. Poisson arrivals are the standard model for
//! independent request sources (exponential inter-arrival gaps, so bursts
//! and lulls occur at realistic odds); uniform arrivals space requests
//! evenly and are useful when a bench wants zero burst variance.

use cf_rand::rngs::StdRng;
use cf_rand::Rng;

/// Which inter-arrival distribution drives the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential gaps with mean `1/rate`: a memoryless Poisson stream.
    Poisson,
    /// Constant gaps of exactly `1/rate`.
    Uniform,
}

impl std::str::FromStr for ArrivalProcess {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(ArrivalProcess::Poisson),
            "uniform" => Ok(ArrivalProcess::Uniform),
            other => Err(format!(
                "unknown arrival process {other:?} (expected \"poisson\" or \"uniform\")"
            )),
        }
    }
}

/// `Ok` for the rates [`arrival_offsets_us`] accepts (finite and positive),
/// else an error naming `rate_hz`.
pub fn check_rate(rate_hz: f64) -> Result<(), String> {
    if rate_hz.is_finite() && rate_hz > 0.0 {
        Ok(())
    } else {
        Err(format!("arrival rate must be positive, got {rate_hz}"))
    }
}

/// Microsecond offsets (from run start) of `n` arrivals at `rate_hz`.
/// Offsets are non-decreasing; the gap accumulator runs in f64 and is
/// rounded once per event, so rounding error never drifts the rate.
///
/// Panics if `rate_hz` fails [`check_rate`].
pub fn arrival_offsets_us(
    kind: ArrivalProcess,
    rate_hz: f64,
    n: usize,
    rng: &mut StdRng,
) -> Vec<u64> {
    if let Err(e) = check_rate(rate_hz) {
        panic!("{e}");
    }
    let mean_gap_us = 1e6 / rate_hz;
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let gap = match kind {
            // Inverse-CDF sampling: U ∈ [0,1) ⇒ -ln(1-U) is Exp(1), and
            // 1-U is never 0 so the log is always finite.
            ArrivalProcess::Poisson => -(1.0 - rng.gen::<f64>()).ln() * mean_gap_us,
            ArrivalProcess::Uniform => mean_gap_us,
        };
        at += gap;
        out.push(at as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_rand::SeedableRng;

    #[test]
    fn offsets_are_sorted_and_deterministic() {
        for kind in [ArrivalProcess::Poisson, ArrivalProcess::Uniform] {
            let a = arrival_offsets_us(kind, 1000.0, 500, &mut StdRng::seed_from_u64(42));
            let b = arrival_offsets_us(kind, 1000.0, 500, &mut StdRng::seed_from_u64(42));
            assert_eq!(a, b, "{kind:?} schedule must be seed-deterministic");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{kind:?} not sorted");
        }
    }

    #[test]
    fn mean_rate_matches_the_target() {
        // 5000 Poisson arrivals at 1 kHz should span ~5 s; the sample mean
        // of exponential gaps concentrates well within ±10% at this n.
        let a = arrival_offsets_us(
            ArrivalProcess::Poisson,
            1000.0,
            5000,
            &mut StdRng::seed_from_u64(7),
        );
        let span_s = *a.last().unwrap() as f64 / 1e6;
        assert!((4.5..5.5).contains(&span_s), "span {span_s} s, want ≈5 s");
        // Uniform arrivals are exact.
        let u = arrival_offsets_us(
            ArrivalProcess::Uniform,
            1000.0,
            5000,
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(*u.last().unwrap(), 5_000_000);
    }

    #[test]
    fn poisson_gaps_vary_but_stay_finite() {
        let a = arrival_offsets_us(
            ArrivalProcess::Poisson,
            10_000.0,
            1000,
            &mut StdRng::seed_from_u64(3),
        );
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let distinct: std::collections::HashSet<u64> = gaps.iter().copied().collect();
        assert!(distinct.len() > 10, "Poisson gaps suspiciously regular");
    }

    #[test]
    fn parse_arrival_process_names() {
        assert_eq!("poisson".parse(), Ok(ArrivalProcess::Poisson));
        assert_eq!("uniform".parse(), Ok(ArrivalProcess::Uniform));
        assert!("bursty".parse::<ArrivalProcess>().is_err());
    }
}
