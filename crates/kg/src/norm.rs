//! Per-attribute min-max normalization (Eq. 23 of the paper).

use crate::graph::NumTriple;
use crate::ids::AttributeId;

/// Min-max normalizer fitted per attribute on *training* values only, so
/// evaluation ranges never leak into the scale.
#[derive(Clone, Debug)]
pub struct MinMaxNormalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxNormalizer {
    /// Fits on a set of (training) numeric triples. Attributes that never
    /// occur get the degenerate range `[0, 1]`.
    pub fn fit(num_attributes: usize, train: &[NumTriple]) -> Self {
        let mut mins = vec![f64::INFINITY; num_attributes];
        let mut maxs = vec![f64::NEG_INFINITY; num_attributes];
        for t in train {
            let i = t.attr.0 as usize;
            mins[i] = mins[i].min(t.value);
            maxs[i] = maxs[i].max(t.value);
        }
        for i in 0..num_attributes {
            if !mins[i].is_finite() {
                mins[i] = 0.0;
                maxs[i] = 1.0;
            } else if maxs[i] - mins[i] < 1e-12 {
                // (Near-)constant attribute: widen proportionally to the
                // value's magnitude so out-of-range test values don't blow
                // normalized errors up by orders of magnitude.
                let pad = (0.1 * mins[i].abs()).max(1.0);
                maxs[i] = mins[i] + pad;
            }
        }
        MinMaxNormalizer { mins, maxs }
    }

    /// A normalizer with the given per-attribute bounds, e.g. read back from
    /// a checkpoint. Every range must be positive.
    pub fn from_bounds(mins: Vec<f64>, maxs: Vec<f64>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "one bound pair per attribute");
        assert!(
            mins.iter().zip(&maxs).all(|(lo, hi)| hi - lo > 0.0),
            "every range is positive"
        );
        MinMaxNormalizer { mins, maxs }
    }

    /// Training minimum of an attribute.
    pub fn min(&self, a: AttributeId) -> f64 {
        self.mins[a.0 as usize]
    }

    /// Training maximum of an attribute.
    pub fn max(&self, a: AttributeId) -> f64 {
        self.maxs[a.0 as usize]
    }

    /// Training range (`max - min`) of an attribute.
    pub fn range(&self, a: AttributeId) -> f64 {
        self.max(a) - self.min(a)
    }

    /// `(v - min) / (max - min)`. Values outside the training range map
    /// outside [0, 1]; that's intended (no clipping — Eq. 23 has none).
    pub fn normalize(&self, a: AttributeId, v: f64) -> f64 {
        (v - self.min(a)) / self.range(a)
    }

    /// Inverse of [`Self::normalize`].
    pub fn denormalize(&self, a: AttributeId, n: f64) -> f64 {
        n * self.range(a) + self.min(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EntityId;

    fn nt(attr: u32, value: f64) -> NumTriple {
        NumTriple {
            entity: EntityId(0),
            attr: AttributeId(attr),
            value,
        }
    }

    #[test]
    fn normalize_denormalize_round_trip() {
        let n = MinMaxNormalizer::fit(1, &[nt(0, 10.0), nt(0, 30.0)]);
        let a = AttributeId(0);
        assert_eq!(n.normalize(a, 10.0), 0.0);
        assert_eq!(n.normalize(a, 30.0), 1.0);
        assert_eq!(n.normalize(a, 20.0), 0.5);
        for v in [-5.0, 10.0, 17.3, 30.0, 99.0] {
            assert!((n.denormalize(a, n.normalize(a, v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn unseen_attribute_gets_unit_range() {
        let n = MinMaxNormalizer::fit(2, &[nt(0, 5.0), nt(0, 6.0)]);
        let a1 = AttributeId(1);
        assert_eq!(n.min(a1), 0.0);
        assert_eq!(n.range(a1), 1.0);
    }

    #[test]
    fn constant_attribute_is_widened() {
        let n = MinMaxNormalizer::fit(1, &[nt(0, 7.0), nt(0, 7.0)]);
        assert!(n.range(AttributeId(0)) >= 1.0);
        assert!(n.normalize(AttributeId(0), 7.0).is_finite());
    }

    #[test]
    fn out_of_range_values_are_not_clipped() {
        let n = MinMaxNormalizer::fit(1, &[nt(0, 0.0), nt(0, 10.0)]);
        assert_eq!(n.normalize(AttributeId(0), 20.0), 2.0);
        assert_eq!(n.normalize(AttributeId(0), -10.0), -1.0);
    }
}
