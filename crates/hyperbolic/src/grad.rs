//! Analytic gradient of the Poincaré distance (c = 1), after Nickel & Kiela
//! (2017), used by Riemannian SGD in [`crate::embedding`].

use crate::ball::{dot, pair_sums, PoincareBall};

/// `∂ d(x, y) / ∂x` for the unit-curvature ball.
///
/// Near-coincident points have a singular gradient; we return zero there,
/// which is the correct subgradient choice for the embedding losses we train
/// (a positive pair at distance zero is already optimal).
pub fn distance_grad_x(x: &[f64], y: &[f64]) -> Vec<f64> {
    let s = pair_sums(x, y);
    match DistanceGrad::new(dot(x, x), s.y2, s.diff2, s.xy) {
        Some(g) => x
            .iter()
            .zip(y)
            .map(|(&xi, &yi)| g.component(xi, yi))
            .collect(),
        None => vec![0.0; x.len()],
    }
}

/// `∂ d(x, y) / ∂x` reduced to three scalars: component `i` is
/// `coef · (a·xᵢ − yᵢ / alpha)`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DistanceGrad {
    coef: f64,
    a: f64,
    alpha: f64,
}

impl DistanceGrad {
    /// The scalars from `‖x‖²`, `‖y‖²`, `‖x − y‖²` and `x · y`; `None` for
    /// near-coincident points, whose gradient is zero.
    pub(crate) fn new(x2: f64, y2: f64, diff2: f64, xy: f64) -> Option<Self> {
        if diff2 < 1e-18 {
            return None;
        }
        let alpha = (1.0 - x2).max(1e-15);
        let beta = (1.0 - y2).max(1e-15);
        let gamma = 1.0 + 2.0 * diff2 / (alpha * beta);
        let denom = (gamma * gamma - 1.0).max(1e-15).sqrt();
        Some(DistanceGrad {
            coef: 4.0 / (beta * denom),
            a: (y2 - 2.0 * xy + 1.0) / (alpha * alpha),
            alpha,
        })
    }

    /// Component `i` of the gradient, from `xᵢ` and `yᵢ`.
    pub(crate) fn component(&self, xi: f64, yi: f64) -> f64 {
        self.coef * (self.a * xi - yi / self.alpha)
    }
}

/// The inverse metric tensor `(1 − ‖x‖²)² / 4` at a point with `‖x‖² = x2`.
fn rescale_factor(x2: f64) -> f64 {
    ((1.0 - x2).max(0.0)).powi(2) / 4.0
}

/// Converts a Euclidean gradient at `x` to the Riemannian gradient on the
/// unit ball: scale by `(1 − ‖x‖²)² / 4` (inverse metric tensor).
pub fn riemannian_rescale(x: &[f64], euclidean_grad: &[f64]) -> Vec<f64> {
    let factor = rescale_factor(dot(x, x));
    euclidean_grad.iter().map(|&g| factor * g).collect()
}

/// One Riemannian SGD step: rescale, step, project back into the ball.
pub fn rsgd_step(ball: &PoincareBall, x: &mut [f64], euclidean_grad: &[f64], lr: f64) {
    rsgd_step_at(ball, x, dot(x, x), euclidean_grad, lr);
}

/// [`rsgd_step`] for a point whose `‖x‖²` the caller already holds.
pub(crate) fn rsgd_step_at(
    ball: &PoincareBall,
    x: &mut [f64],
    x2: f64,
    euclidean_grad: &[f64],
    lr: f64,
) {
    let factor = rescale_factor(x2);
    for (xi, gi) in x.iter_mut().zip(euclidean_grad) {
        *xi -= lr * (factor * gi);
    }
    ball.project(x);
}

/// The formulas as first written, with a full pass per sum and a fresh
/// vector per result: the bitwise reference for the functions above and for
/// [`crate::PoincareEmbeddings::train_epoch`].
#[cfg(test)]
pub(crate) mod reference {
    use crate::ball::{dot, PoincareBall};

    pub(crate) fn distance_arcosh(x: &[f64], y: &[f64]) -> f64 {
        let x2 = dot(x, x);
        let y2 = dot(y, y);
        let diff2: f64 = x.iter().zip(y).map(|(&a, &b)| (a - b) * (a - b)).sum();
        let denom = ((1.0 - x2) * (1.0 - y2)).max(1e-15);
        let arg = 1.0 + 2.0 * diff2 / denom;
        arg.max(1.0).acosh()
    }

    pub(crate) fn distance_grad_x(x: &[f64], y: &[f64]) -> Vec<f64> {
        let x2 = dot(x, x);
        let y2 = dot(y, y);
        let diff2: f64 = x.iter().zip(y).map(|(&a, &b)| (a - b) * (a - b)).sum();
        if diff2 < 1e-18 {
            return vec![0.0; x.len()];
        }
        let alpha = (1.0 - x2).max(1e-15);
        let beta = (1.0 - y2).max(1e-15);
        let gamma = 1.0 + 2.0 * diff2 / (alpha * beta);
        let denom = (gamma * gamma - 1.0).max(1e-15).sqrt();
        let coef = 4.0 / (beta * denom);
        let xy = dot(x, y);
        let a = (y2 - 2.0 * xy + 1.0) / (alpha * alpha);
        x.iter()
            .zip(y)
            .map(|(&xi, &yi)| coef * (a * xi - yi / alpha))
            .collect()
    }

    pub(crate) fn riemannian_rescale(x: &[f64], euclidean_grad: &[f64]) -> Vec<f64> {
        let factor = ((1.0 - dot(x, x)).max(0.0)).powi(2) / 4.0;
        euclidean_grad.iter().map(|&g| factor * g).collect()
    }

    pub(crate) fn rsgd_step(ball: &PoincareBall, x: &mut [f64], euclidean_grad: &[f64], lr: f64) {
        let rg = riemannian_rescale(x, euclidean_grad);
        for (xi, gi) in x.iter_mut().zip(&rg) {
            *xi -= lr * gi;
        }
        ball.project(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_check::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A point of `dim` coordinates in `[-1, 1)`, scaled to norm `radius`
    /// when it has one; radii at and past 1 reach the clamps.
    fn point(raw: &[f64], dim: usize, radius: f64) -> Vec<f64> {
        let v: Vec<f64> = raw.iter().cycle().take(dim).copied().collect();
        let norm = dot(&v, &v).sqrt();
        if norm == 0.0 {
            return v;
        }
        v.iter().map(|x| x * radius / norm).collect()
    }

    property! {
        #![config(cases = 1000)]

        /// The distance, its gradient, the rescale and the step are the
        /// formulas as first written, bit for bit, from the origin to past
        /// the rim and for coincident points.
        #[test]
        fn formulas_match_reference(
            dim in 1usize..=17,
            raw in (vec(-1.0f64..1.0, 17), vec(-1.0f64..1.0, 17)),
            radii in (0.0f64..1.2, 0.0f64..1.2),
            same in 0u8..4,
            log_lr in -3.0f64..=1.699,
        ) {
            let ball = PoincareBall::default();
            let x = point(&raw.0, dim, radii.0);
            let y = if same == 0 { x.clone() } else { point(&raw.1, dim, radii.1) };
            check_assert_eq!(
                ball.distance_arcosh(&x, &y).to_bits(),
                reference::distance_arcosh(&x, &y).to_bits()
            );
            check_assert_eq!(bits(&distance_grad_x(&x, &y)), bits(&reference::distance_grad_x(&x, &y)));
            check_assert_eq!(bits(&distance_grad_x(&y, &x)), bits(&reference::distance_grad_x(&y, &x)));
            let g = distance_grad_x(&x, &y);
            check_assert_eq!(bits(&riemannian_rescale(&y, &g)), bits(&reference::riemannian_rescale(&y, &g)));
            let lr = 10f64.powf(log_lr);
            let (mut a, mut b) = (y.clone(), y.clone());
            rsgd_step(&ball, &mut a, &g, lr);
            reference::rsgd_step(&ball, &mut b, &g, lr);
            check_assert_eq!(bits(&a), bits(&b));
        }
    }

    fn numeric_grad(x: &[f64], y: &[f64], eps: f64) -> Vec<f64> {
        let ball = PoincareBall::default();
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                xp[i] += eps;
                let mut xm = x.to_vec();
                xm[i] -= eps;
                (ball.distance_arcosh(&xp, y) - ball.distance_arcosh(&xm, y)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn analytic_matches_numeric() {
        let cases = [
            (vec![0.1, 0.2], vec![-0.3, 0.4]),
            (vec![0.0, 0.0], vec![0.5, 0.1]),
            (vec![0.6, -0.5], vec![0.1, 0.1]),
            (vec![0.05, 0.0, -0.6], vec![0.3, 0.3, 0.3]),
        ];
        for (x, y) in cases {
            let analytic = distance_grad_x(&x, &y);
            let numeric = numeric_grad(&x, &y, 1e-6);
            for (a, n) in analytic.iter().zip(&numeric) {
                assert!(
                    (a - n).abs() < 1e-4 * (1.0 + n.abs()),
                    "grad mismatch at {x:?},{y:?}: {analytic:?} vs {numeric:?}"
                );
            }
        }
    }

    #[test]
    fn coincident_points_get_zero_grad() {
        let x = vec![0.2, 0.2];
        assert_eq!(distance_grad_x(&x, &x), vec![0.0, 0.0]);
    }

    #[test]
    fn rsgd_reduces_distance_between_pair() {
        let ball = PoincareBall::default();
        let mut x = vec![0.5, 0.0];
        let y = vec![-0.5, 0.0];
        let before = ball.distance(&x, &y);
        for _ in 0..50 {
            let g = distance_grad_x(&x, &y);
            rsgd_step(&ball, &mut x, &g, 0.05);
        }
        let after = ball.distance(&x, &y);
        assert!(
            after < before * 0.5,
            "rsgd failed to pull points together: {before} -> {after}"
        );
        assert!(ball.contains(&x));
    }

    #[test]
    fn rsgd_slows_near_boundary() {
        // The metric rescaling must shrink steps near the rim.
        let near_rim = riemannian_rescale(&[0.99, 0.0], &[1.0, 0.0]);
        let near_origin = riemannian_rescale(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(near_rim[0] < 0.01 * near_origin[0]);
    }
}
