//! Serving weight twins: every `Linear` weight of a [`ParamStore`] packed
//! once, in the layout its GEMM reads, so a served product packs only its
//! activations.
//!
//! A twin is built at checkpoint load and at hot reload, never per request,
//! and is immutable afterwards (an engine's shards share one through
//! `Arc`). [`InferCtx::set_weights`](crate::InferCtx::set_weights) attaches
//! it; `InferCtx::linear` then runs each weight that has an entry through
//! it. One type serves both numeric modes:
//!
//! - [`WeightTwin::f32`] holds [`PackedMatrix`] panels of the f32 weights.
//!   A product against them is the f32 GEMM bit for bit (the same panels,
//!   the same micro-kernel), so an f32 engine serves the bits a fresh
//!   context computes, minus the per-call pack of `B`.
//! - [`WeightTwin::int8`] holds [`QuantizedTensor`]s: the `--quantize int8`
//!   path (`crate::quant` has the scale scheme).

use crate::params::ParamStore;
use crate::quant::QuantizedTensor;
use crate::tensor::{PackedMatrix, Tensor, NR};

/// One weight's packed twin.
#[derive(Debug)]
pub enum PackedWeight {
    /// The f32 weight in the GEMM's column-panel layout.
    F32(PackedMatrix),
    /// The weight quantized to int8 and packed for the int8 GEMM.
    Int8(QuantizedTensor),
}

impl PackedWeight {
    /// `out[m, n] = a[m, k] · W` into a zeroed `out`, reading `a` as `m`
    /// row-major rows (the GEMM step of a `linear`).
    pub fn matmul_rows_into(&self, a: &[f32], m: usize, out: &mut [f32]) {
        match self {
            PackedWeight::F32(w) => w.matmul_rows_into(a, m, out),
            PackedWeight::Int8(w) => w.matmul_rows_into(a, m, out),
        }
    }
}

/// The packed twins of a [`ParamStore`]'s weights, indexed by
/// [`ParamId`](crate::ParamId): one numeric mode for every entry.
#[derive(Debug)]
pub struct WeightTwin {
    entries: Vec<Option<PackedWeight>>,
}

impl WeightTwin {
    /// Packs every parameter a `linear` may read as an f32 weight: each
    /// rank-2 one but the row-lookup tables ([`ParamStore::add_table`]) and
    /// the ones narrower than one panel (`n < 16`, the `[d, 1]` numeric
    /// heads), which the small-shape GEMM serves better.
    pub fn f32(store: &ParamStore) -> WeightTwin {
        Self::pack(store, |t| {
            (t.shape().rank() == 2 && t.shape().last_dim() >= NR)
                .then(|| PackedWeight::F32(PackedMatrix::from_tensor(t)))
        })
    }

    /// Quantizes every parameter a `linear` may read under
    /// [`QuantizedTensor::from_tensor`]'s eligibility rule, the row-lookup
    /// tables excepted.
    pub fn int8(store: &ParamStore) -> WeightTwin {
        Self::pack(store, |t| {
            QuantizedTensor::from_tensor(t).map(PackedWeight::Int8)
        })
    }

    /// [`Self::int8`] under its old name, which the benchmark sources
    /// (`crates/bench/src/bin/cfbench`) still spell, through the
    /// [`QuantizedParamStore`] alias.
    pub fn from_store(store: &ParamStore) -> WeightTwin {
        Self::int8(store)
    }

    fn pack(store: &ParamStore, twin: impl Fn(&Tensor) -> Option<PackedWeight>) -> WeightTwin {
        let entries = store
            .iter()
            .map(|(id, _, t)| if store.is_table(id) { None } else { twin(t) })
            .collect();
        WeightTwin { entries }
    }

    /// The twin of parameter `index` (`ParamId::index()`), if it has one.
    pub fn entry(&self, index: usize) -> Option<&PackedWeight> {
        self.entries.get(index).and_then(Option::as_ref)
    }

    /// Number of parameters that have a twin.
    pub fn num_packed(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Number of parameter slots tracked (equals the source store's `len`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The int8 twin's old type name, kept for the benchmark sources that still
/// spell `QuantizedParamStore::from_store`.
pub type QuantizedParamStore = WeightTwin;

#[cfg(test)]
mod tests {
    use super::*;
    use cf_rand::SeedableRng;

    /// The f32 twin packs each non-table matrix at least one panel wide;
    /// the int8 twin's rule is `quant`'s test.
    #[test]
    fn f32_twin_skips_narrow_weights_and_tables() {
        let mut ps = ParamStore::new();
        let wide = ps.add("wide", Tensor::ones([16, 16]));
        let mid = ps.add("mid", Tensor::ones([16, 8]));
        let vector = ps.add("bias", Tensor::ones([16]));
        let mut rng = cf_rand::rngs::StdRng::seed_from_u64(1);
        let table = ps.add_table("tokens", [5, 16], crate::Init::XavierUniform, &mut rng);
        let f = WeightTwin::f32(&ps);
        assert!(matches!(f.entry(wide.index()), Some(PackedWeight::F32(_))));
        assert!(f.entry(mid.index()).is_none(), "n < 16 stays unpacked");
        assert!(f.entry(vector.index()).is_none(), "rank-1 stays unpacked");
        assert!(f.entry(table.index()).is_none(), "tables are never packed");
        assert!(WeightTwin::int8(&ps).entry(table.index()).is_none());
        assert_eq!((f.num_packed(), f.len()), (1, 4));
    }
}
