//! Named parameter storage shared by layers and optimizers.

use crate::init::Init;
use crate::tensor::Tensor;
use cf_rand::Rng;

/// Handle to a parameter inside a [`ParamStore`]. Cheap to copy.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter in its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Flat arena of learnable tensors.
///
/// Layers allocate parameters here at construction time and hold only
/// [`ParamId`]s; optimizers mutate the store in place after each backward
/// pass. Keeping the tensors in one arena makes checkpointing, counting and
/// optimizer state trivial.
#[derive(Default, Debug, Clone)]
pub struct ParamStore {
    tensors: Vec<Tensor>,
    names: Vec<String>,
    /// Per parameter: a row-lookup table ([`Self::add_table`]) that no GEMM
    /// reads.
    tables: Vec<bool>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an explicit value.
    pub fn add(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        self.tensors.push(tensor);
        self.names.push(name.into());
        self.tables.push(false);
        ParamId(self.tensors.len() - 1)
    }

    /// Registers a parameter drawn from an initializer.
    pub fn add_init(
        &mut self,
        name: impl Into<String>,
        shape: impl Into<crate::shape::Shape>,
        init: Init,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, init.sample(shape, rng))
    }

    /// Registers a row-lookup table drawn from an initializer: an embedding
    /// that only `select_rows` reads, so [`crate::QuantizedParamStore`]
    /// packs no int8 twin of it.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        shape: impl Into<crate::shape::Shape>,
        init: Init,
        rng: &mut impl Rng,
    ) -> ParamId {
        let id = self.add_init(name, shape, init, rng);
        self.tables[id.0] = true;
        id
    }

    /// Whether a parameter was registered by [`Self::add_table`].
    pub fn is_table(&self, id: ParamId) -> bool {
        self.tables[id.0]
    }

    /// Borrow of a parameter's tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable borrow of a parameter's tensor (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Iterates over `(id, name, tensor)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.tensors
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (t, n))| (ParamId(i), n.as_str(), t))
    }

    /// True when every parameter is finite — a cheap NaN tripwire for tests.
    pub fn all_finite(&self) -> bool {
        self.tensors.iter().all(Tensor::all_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    #[test]
    fn add_get_roundtrip() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::ones([2, 2]));
        assert_eq!(ps.get(id).sum(), 4.0);
        assert_eq!(ps.name(id), "w");
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn add_init_uses_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        let id = ps.add_init("w", [3, 5], Init::XavierUniform, &mut rng);
        assert_eq!(ps.get(id).shape().as_matrix(), (3, 5));
        assert!(ps.all_finite());
    }

    #[test]
    fn iter_yields_all() {
        let mut ps = ParamStore::new();
        ps.add("a", Tensor::zeros([1]));
        ps.add("b", Tensor::zeros([2]));
        let names: Vec<_> = ps.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
