//! Token embedding table.

use crate::infer::Forward;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tape::Var;
use cf_rand::Rng;

/// Learnable embedding table `[vocab, dim]` with index lookup.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// The `[vocab, dim]` table parameter.
    pub table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// A table of `vocab` rows of width `dim`, small-normal initialised.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        // Small-norm init keeps early softmax/attention temperatures sane.
        let table = ps.add_table(name, [vocab, dim], Init::Normal(0.02), rng);
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up `ids`, producing `[ids.len(), dim]`. Repeated ids are fine —
    /// gradients scatter-add into the table.
    pub fn forward<F: Forward>(&self, t: &mut F, ps: &ParamStore, ids: &[usize]) -> Var {
        for &id in ids {
            assert!(
                id < self.vocab,
                "embedding id {id} out of vocab {}",
                self.vocab
            );
        }
        let table = t.param(ps, self.table);
        t.select_rows(table, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let emb = Embedding::new(&mut ps, "e", 5, 3, &mut rng);
        let mut t = Tape::new();
        let out = emb.forward(&mut t, &ps, &[2, 2, 4]);
        assert_eq!(t.value(out).shape().as_matrix(), (3, 3));
        assert_eq!(t.value(out).row(0), t.value(out).row(1));
        assert_eq!(t.value(out).row(0), ps.get(emb.table).row(2));
    }

    #[test]
    fn grads_scatter_into_used_rows_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let emb = Embedding::new(&mut ps, "e", 4, 2, &mut rng);
        let mut t = Tape::new();
        let out = emb.forward(&mut t, &ps, &[1, 1]);
        let loss = t.mse_loss(out, &Tensor::zeros([2, 2]));
        let grads = t.backward(loss, ps.len());
        let g = grads.param_grad(emb.table).unwrap();
        assert!(g.row(0).iter().all(|&x| x == 0.0));
        assert!(g.row(1).iter().any(|&x| x != 0.0));
        assert!(g.row(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_out_of_vocab_ids() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let emb = Embedding::new(&mut ps, "e", 3, 2, &mut rng);
        let mut t = Tape::new();
        emb.forward(&mut t, &ps, &[3]);
    }
}
