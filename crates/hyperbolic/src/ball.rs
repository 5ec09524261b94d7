//! Poincaré-ball operations (§III-B of the paper).
//!
//! Points are slices of `f64`; the geometry is precision-sensitive near the
//! boundary so this crate computes in double precision and lets callers
//! narrow to `f32` when feeding the neural stack.

/// The Poincaré ball `B^{d,c} = {x : c‖x‖² < 1}` with curvature `-c` (`c > 0`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PoincareBall {
    /// Curvature magnitude (the space has curvature `-c`).
    pub c: f64,
}

/// Keeps points strictly inside the ball; mirrors the usual `1e-5` boundary
/// epsilon of hyperbolic embedding implementations.
pub const BOUNDARY_EPS: f64 = 1e-5;

impl Default for PoincareBall {
    /// Unit curvature, the paper's "without loss of generality c = 1".
    fn default() -> Self {
        PoincareBall { c: 1.0 }
    }
}

impl PoincareBall {
    /// A ball with curvature `-c` (`c > 0`).
    pub fn new(c: f64) -> Self {
        assert!(c > 0.0, "curvature parameter c must be positive, got {c}");
        PoincareBall { c }
    }

    /// Maximum Euclidean norm of a representable point.
    pub fn max_norm(&self) -> f64 {
        (1.0 / self.c).sqrt() * (1.0 - BOUNDARY_EPS)
    }

    /// True when `x` lies strictly inside the ball.
    pub fn contains(&self, x: &[f64]) -> bool {
        self.c * dot(x, x) < 1.0
    }

    /// Radially projects `x` into the ball if it escaped (in place).
    pub fn project(&self, x: &mut [f64]) {
        let norm = dot(x, x).sqrt();
        let max = self.max_norm();
        if norm > max {
            let s = max / norm;
            for xi in x.iter_mut() {
                *xi *= s;
            }
        }
    }

    /// Möbius addition `x ⊕_c y` (Eq. 1).
    pub fn mobius_add(&self, x: &[f64], y: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), y.len(), "mobius_add dim mismatch");
        let c = self.c;
        let xy = dot(x, y);
        let x2 = dot(x, x);
        let y2 = dot(y, y);
        let denom = 1.0 + 2.0 * c * xy + c * c * x2 * y2;
        let ax = (1.0 + 2.0 * c * xy + c * y2) / denom;
        let ay = (1.0 - c * x2) / denom;
        let mut out: Vec<f64> = x
            .iter()
            .zip(y)
            .map(|(&xi, &yi)| ax * xi + ay * yi)
            .collect();
        self.project(&mut out);
        out
    }

    /// Hyperbolic distance `d(x, y)` (Eq. 2).
    pub fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        let c = self.c;
        let neg_x: Vec<f64> = x.iter().map(|&v| -v).collect();
        let m = self.mobius_add(&neg_x, y);
        let arg = (c.sqrt() * dot(&m, &m).sqrt()).min(1.0 - 1e-12);
        2.0 / c.sqrt() * arg.atanh()
    }

    /// The `c = 1` induced distance of Eq. 3 (arcosh form); equal to
    /// [`Self::distance`] up to floating error, kept because the paper writes
    /// both and the filter uses this closed form.
    pub fn distance_arcosh(&self, x: &[f64], y: &[f64]) -> f64 {
        assert!(
            (self.c - 1.0).abs() < 1e-12,
            "arcosh form is the c = 1 special case"
        );
        let s = pair_sums(x, y);
        arcosh_from_sums(dot(x, x), s.y2, s.diff2)
    }

    /// Exponential map at the origin: tangent vector → ball point.
    pub fn exp0(&self, v: &[f64]) -> Vec<f64> {
        let c = self.c;
        let norm = dot(v, v).sqrt();
        if norm < 1e-15 {
            return v.to_vec();
        }
        let scale = (c.sqrt() * norm).tanh() / (c.sqrt() * norm);
        let mut out: Vec<f64> = v.iter().map(|&vi| scale * vi).collect();
        self.project(&mut out);
        out
    }

    /// Logarithmic map at the origin: ball point → tangent vector (Eq. 12).
    pub fn log0(&self, x: &[f64]) -> Vec<f64> {
        let c = self.c;
        let norm = dot(x, x).sqrt();
        if norm < 1e-15 {
            return x.to_vec();
        }
        let scaled = (c.sqrt() * norm).min(1.0 - 1e-12);
        let scale = scaled.atanh() / (c.sqrt() * norm);
        x.iter().map(|&xi| scale * xi).collect()
    }

    /// Left-folds Möbius addition over a sequence of points — the paper's
    /// hyperbolic chain embedding `h_c = h_{r1} ⊕ h_{r2} ⊕ …` (Eq. 7).
    ///
    /// Returns the origin for an empty chain (the identity of ⊕).
    pub fn mobius_chain(&self, points: &[&[f64]], dim: usize) -> Vec<f64> {
        let mut acc = vec![0.0; dim];
        for p in points {
            acc = self.mobius_add(&acc, p);
        }
        acc
    }
}

/// Plain Euclidean distance, used by the Figure-7 "Euclidean space" filter arm.
pub fn euclidean_distance(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// The sums a distance or its gradient reads about a second point `y`,
/// given `x`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct PairSums {
    /// `‖y‖²`.
    pub y2: f64,
    /// `‖x − y‖²`.
    pub diff2: f64,
    /// `x · y`.
    pub xy: f64,
}

/// [`PairSums`] in one pass. Each sum starts at `-0.0` and runs left to
/// right, as `Iterator::sum` in [`dot`] does, so each equals its own
/// separate pass bit for bit.
pub(crate) fn pair_sums(x: &[f64], y: &[f64]) -> PairSums {
    let mut s = PairSums {
        y2: -0.0,
        diff2: -0.0,
        xy: -0.0,
    };
    for (&a, &b) in x.iter().zip(y) {
        s.y2 += b * b;
        s.diff2 += (a - b) * (a - b);
        s.xy += a * b;
    }
    s
}

/// Eq. 3 from its sums: `arcosh(1 + 2‖x − y‖² / ((1 − ‖x‖²)(1 − ‖y‖²)))`.
pub(crate) fn arcosh_from_sums(x2: f64, y2: f64, diff2: f64) -> f64 {
    let denom = ((1.0 - x2) * (1.0 - y2)).max(1e-15);
    let arg = 1.0 + 2.0 * diff2 / denom;
    arg.max(1.0).acosh()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    fn ball() -> PoincareBall {
        PoincareBall::default()
    }

    #[test]
    fn mobius_identity_element() {
        // x ⊕ 0 = 0 ⊕ x = x (stated under Eq. 1).
        let b = ball();
        let x = vec![0.3, -0.2, 0.1];
        let zero = vec![0.0; 3];
        for (a, e) in b.mobius_add(&x, &zero).iter().zip(&x) {
            assert!((a - e).abs() < TOL);
        }
        for (a, e) in b.mobius_add(&zero, &x).iter().zip(&x) {
            assert!((a - e).abs() < TOL);
        }
    }

    #[test]
    fn mobius_left_inverse() {
        // (−x) ⊕ x = 0.
        let b = ball();
        let x = vec![0.5, 0.2];
        let nx: Vec<f64> = x.iter().map(|&v| -v).collect();
        let r = b.mobius_add(&nx, &x);
        assert!(r.iter().all(|&v| v.abs() < TOL), "{r:?}");
    }

    #[test]
    fn mobius_is_not_commutative_in_general() {
        let b = ball();
        let x = vec![0.5, 0.0];
        let y = vec![0.0, 0.5];
        let xy = b.mobius_add(&x, &y);
        let yx = b.mobius_add(&y, &x);
        let diff: f64 = xy.iter().zip(&yx).map(|(a, c)| (a - c).abs()).sum();
        assert!(diff > 1e-6, "Möbius addition unexpectedly commuted");
    }

    #[test]
    fn mobius_stays_in_ball() {
        let b = ball();
        let x = vec![0.9, 0.4];
        // ‖x‖ close to 1 — result must still be inside.
        let y = vec![0.43, -0.89];
        let r = b.mobius_add(&x, &y);
        assert!(b.contains(&r), "escaped the ball: {r:?}");
    }

    #[test]
    fn distance_forms_agree() {
        let b = ball();
        let x = vec![0.1, 0.2, -0.3];
        let y = vec![-0.4, 0.05, 0.2];
        let d1 = b.distance(&x, &y);
        let d2 = b.distance_arcosh(&x, &y);
        assert!((d1 - d2).abs() < 1e-9, "{d1} vs {d2}");
    }

    #[test]
    fn distance_is_a_metric_sample() {
        let b = ball();
        let x = vec![0.1, 0.1];
        let y = vec![-0.2, 0.3];
        let z = vec![0.4, -0.1];
        assert!(b.distance(&x, &x) < 1e-9);
        assert!((b.distance(&x, &y) - b.distance(&y, &x)).abs() < 1e-9);
        assert!(b.distance(&x, &z) <= b.distance(&x, &y) + b.distance(&y, &z) + 1e-9);
    }

    #[test]
    fn distance_grows_toward_boundary() {
        // Same Euclidean gap costs more hyperbolic distance near the rim —
        // the "variable resolution" the paper exploits.
        let b = ball();
        let near_origin = b.distance(&[0.0, 0.0], &[0.1, 0.0]);
        let near_rim = b.distance(&[0.85, 0.0], &[0.95, 0.0]);
        assert!(near_rim > 3.0 * near_origin, "{near_rim} vs {near_origin}");
    }

    #[test]
    fn exp_log_round_trip() {
        let b = ball();
        let v = vec![0.7, -1.2, 0.4];
        let x = b.exp0(&v);
        assert!(b.contains(&x));
        let back = b.log0(&x);
        for (a, e) in back.iter().zip(&v) {
            assert!((a - e).abs() < 1e-9, "{back:?} vs {v:?}");
        }
    }

    #[test]
    fn exp0_of_zero_is_origin() {
        let b = ball();
        assert_eq!(b.exp0(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(b.log0(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn distance_along_geodesic_through_origin_matches_formula() {
        // For points r·e on a ray, d(0, r·e) = 2·artanh(r) at c = 1.
        let b = ball();
        let r: f64 = 0.6;
        let d = b.distance(&[0.0, 0.0], &[r, 0.0]);
        assert!((d - 2.0 * r.atanh()).abs() < 1e-9);
    }

    #[test]
    fn mobius_chain_reduces_to_single_point() {
        let b = ball();
        let p = vec![0.2, 0.3];
        let chain = b.mobius_chain(&[&p], 2);
        for (a, e) in chain.iter().zip(&p) {
            assert!((a - e).abs() < TOL);
        }
        assert_eq!(b.mobius_chain(&[], 2), vec![0.0, 0.0]);
    }

    #[test]
    fn project_pulls_back_escaped_points() {
        let b = ball();
        let mut x = vec![2.0, 0.0];
        b.project(&mut x);
        assert!(b.contains(&x));
        assert!(x[0] > 0.99);
    }

    #[test]
    fn curvature_scales_distances() {
        // Smaller c -> flatter space -> distance closer to 2‖x−y‖ (Eq. 2 limit).
        let flat = PoincareBall::new(1e-6);
        let d = flat.distance(&[0.1, 0.0], &[0.3, 0.0]);
        assert!((d - 2.0 * 0.2).abs() < 1e-3, "flat-limit distance {d}");
    }

    #[test]
    fn euclidean_distance_basic() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
