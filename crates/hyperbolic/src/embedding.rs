//! Trainable Poincaré embeddings with negative-sampling Riemannian SGD
//! (Nickel & Kiela style), used to pre-train the Hyperbolic Filter's
//! relation/attribute table.

use crate::ball::{arcosh_from_sums, dot, pair_sums, PoincareBall};
use crate::grad::{rsgd_step_at, DistanceGrad};
use cf_rand::Rng;

/// A table of points on the Poincaré ball, trained so that co-occurring
/// items sit close together.
#[derive(Clone, Debug)]
pub struct PoincareEmbeddings {
    ball: PoincareBall,
    dim: usize,
    points: Vec<Vec<f64>>,
}

impl PoincareEmbeddings {
    /// Initializes `n` points uniformly in a tiny ball around the origin
    /// (the customary Poincaré-embedding init).
    pub fn new(n: usize, dim: usize, rng: &mut impl Rng) -> Self {
        let points = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1e-3..1e-3)).collect())
            .collect();
        PoincareEmbeddings {
            ball: PoincareBall::default(),
            dim,
            points,
        }
    }

    /// A table of already-trained points of dimension `dim` on the default
    /// ball, e.g. read back from a checkpoint.
    pub fn from_points(dim: usize, points: Vec<Vec<f64>>) -> Self {
        assert!(
            points.iter().all(|p| p.len() == dim),
            "every point has dimension {dim}"
        );
        PoincareEmbeddings {
            ball: PoincareBall::default(),
            dim,
            points,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality of the points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying Poincaré ball.
    pub fn ball(&self) -> &PoincareBall {
        &self.ball
    }

    /// Borrow of point `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i]
    }

    /// Hyperbolic distance between stored points.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.ball.distance_arcosh(&self.points[i], &self.points[j])
    }

    /// One epoch of negative-sampling training over positive pairs.
    ///
    /// For each pair `(u, v)` we sample `negatives` uniform corruption
    /// targets and minimize `-log softmax(-d(u, v))` over the candidate set,
    /// taking Riemannian SGD steps on every involved point. Returns the mean
    /// loss.
    ///
    /// A pair step takes `‖u‖²` once and, per candidate `c`, `‖c‖²`,
    /// `‖u − c‖²` and `u · c` in one pass; the distance, both distance
    /// gradients and the step's rescale all read them. Buffers are
    /// allocated once per call.
    pub fn train_epoch(
        &mut self,
        pairs: &[(usize, usize)],
        negatives: usize,
        lr: f64,
        rng: &mut impl Rng,
    ) -> f64 {
        assert!(!self.points.is_empty());
        let n = self.points.len();
        let mut cands = Vec::with_capacity(negatives + 1);
        let mut sums = Vec::with_capacity(negatives + 1);
        let mut probs = Vec::with_capacity(negatives + 1);
        let mut grad_u = vec![0.0; self.dim];
        let mut grad_c = vec![0.0; self.dim];
        let mut total = 0.0;
        for &(u, v) in pairs {
            // Candidate list: the positive then the negatives.
            cands.clear();
            cands.push(v);
            for _ in 0..negatives {
                let mut c = rng.gen_range(0..n);
                if c == v {
                    c = (c + 1) % n;
                }
                cands.push(c);
            }
            let mut u2 = dot(&self.points[u], &self.points[u]);
            sums.clear();
            sums.extend(
                cands
                    .iter()
                    .map(|&c| pair_sums(&self.points[u], &self.points[c])),
            );
            // softmax over scores s_j = -d_j, stabilized. `probs` holds the
            // distances, then their exponentials, then the probabilities.
            probs.clear();
            probs.extend(sums.iter().map(|s| arcosh_from_sums(u2, s.y2, s.diff2)));
            let smax = probs.iter().cloned().fold(f64::INFINITY, f64::min);
            for p in probs.iter_mut() {
                *p = (-(*p - smax)).exp();
            }
            let z: f64 = probs.iter().sum();
            for p in probs.iter_mut() {
                *p /= z;
            }
            total += -(probs[0].max(1e-12)).ln();

            // dL/dd_j = δ_{j,pos} − p_j   (descent pulls the positive pair
            // together and pushes negatives apart).
            grad_u.fill(0.0);
            for (j, &c) in cands.iter().enumerate() {
                let coef = if j == 0 { 1.0 - probs[j] } else { -probs[j] };
                if coef.abs() < 1e-12 {
                    continue;
                }
                // The gradients read the points as they are now. `u` has
                // moved if it was an earlier candidate, and `c` if it repeats
                // one; then the sums are retaken.
                let mut s = sums[j];
                if cands[..j].contains(&u) {
                    u2 = dot(&self.points[u], &self.points[u]);
                    s = pair_sums(&self.points[u], &self.points[c]);
                } else if cands[..j].contains(&c) {
                    s = pair_sums(&self.points[u], &self.points[c]);
                }
                // d(c, u) reads the same sums with the roles swapped:
                // (c − u)² and c·u equal (u − c)² and u·c bit for bit.
                let gu = DistanceGrad::new(u2, s.y2, s.diff2, s.xy);
                let gc = DistanceGrad::new(s.y2, u2, s.diff2, s.xy);
                let (pu, pc) = (&self.points[u], &self.points[c]);
                let rows = grad_u
                    .iter_mut()
                    .zip(grad_c.iter_mut())
                    .zip(pu.iter().zip(pc));
                match (gu, gc) {
                    (Some(gu), Some(gc)) => {
                        for ((du, dc), (&ui, &ci)) in rows {
                            *du += coef * gu.component(ui, ci);
                            *dc = coef * gc.component(ci, ui);
                        }
                    }
                    // Near-coincident points: both gradients are zero. They
                    // are still scaled and applied, so the step sees the
                    // same signed zeros as the first-written epoch.
                    _ => {
                        for ((du, dc), _) in rows {
                            *du += coef * 0.0;
                            *dc = coef * 0.0;
                        }
                    }
                }
                rsgd_step_at(&self.ball, &mut self.points[c], s.y2, &grad_c, lr);
            }
            if cands.contains(&u) {
                u2 = dot(&self.points[u], &self.points[u]);
            }
            rsgd_step_at(&self.ball, &mut self.points[u], u2, &grad_u, lr);
        }
        total / pairs.len().max(1) as f64
    }

    /// Trains with the usual burn-in schedule (reduced lr for the first
    /// tenth of the epochs). Returns the final-epoch mean loss.
    pub fn train(
        &mut self,
        pairs: &[(usize, usize)],
        epochs: usize,
        negatives: usize,
        lr: f64,
        rng: &mut impl Rng,
    ) -> f64 {
        let burn_in = (epochs / 10).max(1);
        let mut last = f64::INFINITY;
        for epoch in 0..epochs {
            let eff_lr = if epoch < burn_in { lr / 10.0 } else { lr };
            last = self.train_epoch(pairs, negatives, eff_lr, rng);
        }
        last
    }

    /// Log-map of point `i` to the tangent space at the origin, narrowed to
    /// `f32` for the neural stack (Eq. 12).
    pub fn log0_f32(&self, i: usize) -> Vec<f32> {
        self.ball
            .log0(&self.points[i])
            .into_iter()
            .map(|x| x as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::reference;
    use cf_check::prelude::*;
    use cf_rand::rngs::StdRng;
    use cf_rand::{SeedableRng, SnapshotRng};

    impl PoincareEmbeddings {
        /// `train_epoch` as first written: fresh vectors per pair step, and
        /// every distance and gradient recomputed from the current points
        /// by the reference formulas.
        fn train_epoch_reference(
            &mut self,
            pairs: &[(usize, usize)],
            negatives: usize,
            lr: f64,
            rng: &mut impl Rng,
        ) -> f64 {
            assert!(!self.points.is_empty());
            let mut total = 0.0;
            for &(u, v) in pairs {
                let mut cands = Vec::with_capacity(negatives + 1);
                cands.push(v);
                for _ in 0..negatives {
                    let mut n = rng.gen_range(0..self.points.len());
                    if n == v {
                        n = (n + 1) % self.points.len();
                    }
                    cands.push(n);
                }
                let dists: Vec<f64> = cands
                    .iter()
                    .map(|&c| reference::distance_arcosh(&self.points[u], &self.points[c]))
                    .collect();
                let smax = dists.iter().cloned().fold(f64::INFINITY, f64::min);
                let exps: Vec<f64> = dists.iter().map(|&d| (-(d - smax)).exp()).collect();
                let z: f64 = exps.iter().sum();
                let probs: Vec<f64> = exps.iter().map(|&e| e / z).collect();
                total += -(probs[0].max(1e-12)).ln();

                let mut grad_u = vec![0.0; self.dim];
                for (j, &cand) in cands.iter().enumerate() {
                    let coef = if j == 0 { 1.0 - probs[j] } else { -probs[j] };
                    if coef.abs() < 1e-12 {
                        continue;
                    }
                    let gu = reference::distance_grad_x(&self.points[u], &self.points[cand]);
                    for (acc, g) in grad_u.iter_mut().zip(&gu) {
                        *acc += coef * g;
                    }
                    let gv = reference::distance_grad_x(&self.points[cand], &self.points[u]);
                    let scaled: Vec<f64> = gv.iter().map(|&g| coef * g).collect();
                    reference::rsgd_step(&self.ball, &mut self.points[cand], &scaled, lr);
                }
                reference::rsgd_step(&self.ball, &mut self.points[u], &grad_u, lr);
            }
            total / pairs.len().max(1) as f64
        }
    }

    fn same_bits(a: &PoincareEmbeddings, b: &PoincareEmbeddings) -> bool {
        a.points.iter().flatten().map(|x| x.to_bits()).eq(b
            .points
            .iter()
            .flatten()
            .map(|x| x.to_bits()))
    }

    /// Trains a copy of `emb` through `train_epoch` and another through the
    /// reference, with one seed; every epoch's loss, the final points and
    /// the final generator state must agree bit for bit.
    fn check_against_reference(
        emb: &PoincareEmbeddings,
        pairs: &[(usize, usize)],
        epochs: usize,
        negatives: usize,
        lr: f64,
        seed: u64,
    ) -> CaseResult {
        let (mut got, mut want) = (emb.clone(), emb.clone());
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for epoch in 0..epochs {
            let la = got.train_epoch(pairs, negatives, lr, &mut a);
            let lb = want.train_epoch_reference(pairs, negatives, lr, &mut b);
            check_assert_eq!((epoch, la.to_bits()), (epoch, lb.to_bits()));
        }
        check_assert!(same_bits(&got, &want), "points differ");
        check_assert_eq!(a.state_words(), b.state_words());
        Ok(())
    }

    property! {
        #![config(cases = 1000)]

        /// `train_epoch` is the reference epoch bit for bit: tables of 1 to
        /// 40 points (at 1 every candidate is `u`), pairs with `u == v`,
        /// repeated candidates, 0 to 8 negatives and learning rates up to 50,
        /// which pin points to the rim.
        #[test]
        fn train_epoch_matches_reference(
            n in 1usize..=40,
            dim in 0usize..7,
            shape in (0usize..=8, 1usize..=6),
            log_lr in -3.0f64..=1.699,
            raw_pairs in vec((0usize..40, 0usize..40, 0u8..4), 0..48),
            seed in 0u64..1_000_000,
        ) {
            let dim = [1, 2, 3, 8, 16, 17, 64][dim];
            let (negatives, epochs) = shape;
            let pairs: Vec<(usize, usize)> = raw_pairs
                .iter()
                .map(|&(a, b, same)| (a % n, if same == 0 { a % n } else { b % n }))
                .collect();
            let emb = PoincareEmbeddings::new(n, dim, &mut StdRng::seed_from_u64(!seed));
            check_against_reference(&emb, &pairs, epochs, negatives, 10f64.powf(log_lr), seed)?;
        }
    }

    #[test]
    fn train_epoch_matches_reference_at_the_served_shape() {
        // 35 tokens, 16 dimensions and 5 negatives, the served filter's
        // shape, with pairs skewed toward a few tokens as co-occurrence
        // counts are; after ten epochs the points are far from the init.
        let mut rng = StdRng::seed_from_u64(5);
        let emb = PoincareEmbeddings::new(35, 16, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..600)
            .map(|_| (rng.gen_range(0..35) % 12, rng.gen_range(0..35)))
            .collect();
        check_against_reference(&emb, &pairs, 10, 5, 0.05, 6).unwrap();
    }

    #[test]
    fn init_points_are_near_origin_and_inside() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = PoincareEmbeddings::new(10, 4, &mut rng);
        for i in 0..10 {
            assert!(e.ball().contains(e.point(i)));
            assert!(e.point(i).iter().all(|&x| x.abs() < 1e-3));
        }
    }

    #[test]
    fn training_separates_two_clusters() {
        // Items 0-4 co-occur, items 5-9 co-occur; after training,
        // intra-cluster distances should undercut inter-cluster ones.
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = PoincareEmbeddings::new(10, 4, &mut rng);
        let mut pairs = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    pairs.push((a, b));
                    pairs.push((a + 5, b + 5));
                }
            }
        }
        e.train(&pairs, 40, 3, 0.1, &mut rng);
        let intra = e.distance(0, 1) + e.distance(5, 6);
        let inter = e.distance(0, 5) + e.distance(1, 6);
        assert!(
            inter > 1.5 * intra,
            "clusters not separated: intra {intra:.3} inter {inter:.3}"
        );
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = PoincareEmbeddings::new(8, 3, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..4)
            .flat_map(|a| (0..4).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        let first = e.train_epoch(&pairs, 2, 0.01, &mut rng);
        for _ in 0..30 {
            e.train_epoch(&pairs, 2, 0.05, &mut rng);
        }
        let last = e.train_epoch(&pairs, 2, 0.01, &mut rng);
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn points_stay_in_ball_under_aggressive_lr() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = PoincareEmbeddings::new(6, 2, &mut rng);
        let pairs = vec![(0, 1), (2, 3), (4, 5)];
        e.train(&pairs, 50, 4, 1.0, &mut rng);
        for i in 0..6 {
            assert!(e.ball().contains(e.point(i)), "point {i} escaped");
        }
    }

    #[test]
    fn log0_narrowing_round_trips_direction() {
        let mut rng = StdRng::seed_from_u64(4);
        let e = PoincareEmbeddings::new(3, 3, &mut rng);
        let v = e.log0_f32(0);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
