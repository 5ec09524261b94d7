//! The fitted half of a ChainsFormer model and the CFT2 `model` section
//! that carries it.
//!
//! Before any parameter is trained, [`ChainsFormer::new`] derives four
//! things from the visible graph and the training facts: the chain
//! vocabulary, the pre-trained and then frozen Hyperbolic Filter (paper
//! §IV-C), the min-max normalizer (Eq. 23) and the per-attribute fallback
//! means. [`Fitted`] holds them. Every checkpoint carries them in its
//! `model` section (tag `0x07`), so a loaded model is the trained model and
//! nothing is fitted again.
//!
//! Body layout, version 1. Integers are little-endian; every `f64` is its
//! exact bit pattern, little-endian:
//! ```text
//! u32 version (1)
//! u64 seed                         the configuration's seed (the split seed)
//! u32 relations | u32 attributes   vocabulary sizes
//! u8 space | u32 dim | f64 lambda  space: 0 hyperbolic, 1 euclidean, 2 random
//! u32 rows | rows × dim f64        filter table: 2·relations + attributes
//!                                  rows, 0 for random
//! attributes × (f64 min, f64 max)  normalizer bounds
//! attributes × f64                 fallback means
//! ```
//!
//! [`ChainsFormer::new`]: crate::ChainsFormer::new

use crate::config::{ChainsFormerConfig, FilterSpace};
use crate::filter::ChainFilter;
use cf_chains::ChainVocab;
use cf_hyperbolic::PoincareBall;
use cf_kg::{AttributeId, MinMaxNormalizer};
use cf_tensor::{CheckpointError, SectionReader};

const VERSION: u32 = 1;
const SECTION: &str = "model";

/// What a model derives from its graph and training facts rather than
/// learns by gradient descent.
#[derive(Clone, Debug)]
pub(crate) struct Fitted {
    pub vocab: ChainVocab,
    pub filter: ChainFilter,
    pub norm: MinMaxNormalizer,
    /// Per-attribute training mean, the fallback for evidence-free queries.
    pub fallback: Vec<f64>,
}

fn space_code(space: FilterSpace) -> u8 {
    match space {
        FilterSpace::Hyperbolic => 0,
        FilterSpace::Euclidean => 1,
        FilterSpace::Random => 2,
    }
}

fn mismatch(msg: String) -> CheckpointError {
    CheckpointError::Mismatch(format!("section {SECTION:?}: {msg}"))
}

impl Fitted {
    /// The `model` section body of a model configured with `seed`.
    pub fn encode(&self, seed: u64) -> Vec<u8> {
        let f = &self.filter;
        let rows = f.rows();
        let attrs = self.vocab.num_attributes();
        let mut out = Vec::with_capacity(40 + 8 * (rows.len() * f.dim() + 3 * attrs));
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&seed.to_le_bytes());
        out.extend_from_slice(&(self.vocab.num_relations() as u32).to_le_bytes());
        out.extend_from_slice(&(attrs as u32).to_le_bytes());
        out.push(space_code(f.space()));
        out.extend_from_slice(&(f.dim() as u32).to_le_bytes());
        out.extend_from_slice(&f.lambda().to_le_bytes());
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for x in rows.iter().flat_map(|r| r.iter()) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for a in 0..attrs {
            let a = AttributeId(a as u32);
            out.extend_from_slice(&self.norm.min(a).to_le_bytes());
            out.extend_from_slice(&self.norm.max(a).to_le_bytes());
        }
        for x in &self.fallback {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Decodes a `model` section body and checks it against the model's
    /// configuration and the vocabulary of the graph it serves. The header
    /// is checked before any table is read, so every length that drives an
    /// allocation is one the configuration and graph already bound.
    pub fn decode(
        body: &[u8],
        cfg: &ChainsFormerConfig,
        vocab: ChainVocab,
    ) -> Result<Fitted, CheckpointError> {
        let mut b = SectionReader::new(body, SECTION);
        let version = b.u32()?;
        if version != VERSION {
            return Err(b.corrupt(format!("unsupported version {version}")));
        }
        let seed = b.u64()?;
        let relations = b.u32()? as usize;
        let attrs = b.u32()? as usize;
        let space = match b.u8()? {
            0 => FilterSpace::Hyperbolic,
            1 => FilterSpace::Euclidean,
            2 => FilterSpace::Random,
            code => return Err(b.corrupt(format!("unknown filter space {code}"))),
        };
        let dim = b.u32()? as usize;
        let lambda = f64::from_bits(b.u64()?);
        if seed != cfg.seed {
            return Err(mismatch(format!(
                "fitted under seed {seed}, the configuration has seed {}",
                cfg.seed
            )));
        }
        if (relations, attrs) != (vocab.num_relations(), vocab.num_attributes()) {
            return Err(mismatch(format!(
                "fitted on {relations} relations and {attrs} attributes, \
                 the graph has {} and {}",
                vocab.num_relations(),
                vocab.num_attributes()
            )));
        }
        if (space, dim) != (cfg.filter_space, cfg.filter_dim)
            || lambda.to_bits() != cfg.lambda.to_bits()
        {
            return Err(mismatch(format!(
                "filter is {space:?}, dim {dim}, lambda {lambda}; the configuration \
                 has {:?}, dim {}, lambda {}",
                cfg.filter_space, cfg.filter_dim, cfg.lambda
            )));
        }

        let rows = b.u32()? as usize;
        let want_rows = match space {
            FilterSpace::Random => 0,
            _ => vocab.num_rel_tokens() + attrs,
        };
        if rows != want_rows {
            return Err(b.corrupt(format!(
                "filter table has {rows} rows, the vocabulary needs {want_rows}"
            )));
        }
        let n = rows
            .checked_mul(dim)
            .ok_or_else(|| b.corrupt("filter table size overflow"))?;
        let table = b.f64s(n)?;
        if table.iter().any(|x| !x.is_finite()) {
            return Err(b.corrupt("non-finite filter table entry"));
        }
        let rows: Vec<Vec<f64>> = (0..rows)
            .map(|i| table[i * dim..(i + 1) * dim].to_vec())
            .collect();
        let ball = PoincareBall::default();
        if space == FilterSpace::Hyperbolic && !rows.iter().all(|r| ball.contains(r)) {
            return Err(b.corrupt("filter point outside the Poincaré ball"));
        }

        let bounds = b.f64s(2 * attrs)?;
        let (mins, maxs): (Vec<f64>, Vec<f64>) =
            bounds.chunks_exact(2).map(|p| (p[0], p[1])).unzip();
        if !mins
            .iter()
            .zip(&maxs)
            .all(|(lo, hi)| lo.is_finite() && hi.is_finite() && hi - lo > 0.0)
        {
            return Err(b.corrupt("normalizer range that is not finite and positive"));
        }
        let fallback = b.f64s(attrs)?;
        if fallback.iter().any(|x| !x.is_finite()) {
            return Err(b.corrupt("non-finite fallback mean"));
        }
        b.finish()?;
        Ok(Fitted {
            vocab,
            filter: ChainFilter::from_rows(space, vocab, dim, lambda, rows),
            norm: MinMaxNormalizer::from_bounds(mins, maxs),
            fallback,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainsFormer;
    use cf_chains::Query;
    use cf_check::TempDir;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_kg::{KnowledgeGraph, Split};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    fn fit(space: FilterSpace) -> (KnowledgeGraph, Split, ChainsFormer) {
        let mut rng = StdRng::seed_from_u64(5);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let cfg = ChainsFormerConfig {
            filter_space: space,
            seed: 5,
            ..ChainsFormerConfig::tiny()
        };
        let model = ChainsFormer::new(&visible, &split.train, cfg, &mut rng);
        (visible, split, model)
    }

    fn table_bits(f: &ChainFilter) -> Vec<Vec<u64>> {
        f.rows()
            .into_iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn loaded_model_is_the_fitted_model_bit_for_bit() {
        for space in [
            FilterSpace::Hyperbolic,
            FilterSpace::Euclidean,
            FilterSpace::Random,
        ] {
            let (visible, split, model) = fit(space);
            let dir = TempDir::new("fitted_load");
            let path = dir.join("m.ckpt");
            model.save_params_to(&path).unwrap();
            let loaded = ChainsFormer::load(&path, model.cfg.clone(), &visible).unwrap();

            assert_eq!(model.vocab(), loaded.vocab(), "{space:?}");
            let (a, b) = (model.filter(), loaded.filter());
            assert!(a.same_bits(b), "{space:?}");
            assert_eq!(table_bits(a), table_bits(b), "{space:?}");
            if space != FilterSpace::Random {
                assert!(!a.rows().is_empty(), "{space:?}: no table");
            }
            let (a, b) = (model.normalizer(), loaded.normalizer());
            for attr in 0..visible.num_attributes() {
                let attr = AttributeId(attr as u32);
                assert_eq!(a.min(attr).to_bits(), b.min(attr).to_bits());
                assert_eq!(a.max(attr).to_bits(), b.max(attr).to_bits());
                let q = Query {
                    entity: split.test[0].entity,
                    attr,
                };
                let (x, y) = (model.fallback_value(q), loaded.fallback_value(q));
                assert_eq!(x.to_bits(), y.to_bits(), "{space:?}");
            }
            for ((_, name, x), (_, _, y)) in model.params.iter().zip(loaded.params.iter()) {
                assert_eq!(x, y, "{space:?}: {name}");
            }
            assert_eq!(model.model_section(), loaded.model_section());

            // And so the answers are the same, walk for walk.
            for t in split.test.iter().take(6) {
                let q = Query {
                    entity: t.entity,
                    attr: t.attr,
                };
                let want = model.predict(&visible, q, &mut StdRng::seed_from_u64(1));
                let got = loaded.predict(&visible, q, &mut StdRng::seed_from_u64(1));
                assert_eq!(want.value.to_bits(), got.value.to_bits(), "{space:?}");
            }
        }
    }

    #[test]
    fn a_load_needs_the_section_and_its_agreement() {
        let (visible, _, model) = fit(FilterSpace::Hyperbolic);
        let dir = TempDir::new("fitted_reject");
        let path = dir.join("m.ckpt");
        model.save_params_to(&path).unwrap();

        // No model section: a params-only CFT2 file.
        let bare = dir.join("bare.ckpt");
        cf_tensor::save_checkpoint_atomic(&model.params, None, None, &bare).unwrap();
        let load = |path: &std::path::Path, cfg: ChainsFormerConfig, g: &KnowledgeGraph| {
            ChainsFormer::load(path, cfg, g).map(|_| ()).unwrap_err()
        };
        let err = load(&bare, model.cfg.clone(), &visible);
        assert!(
            matches!(err, CheckpointError::Missing { section: "model" }),
            "{err}"
        );

        // The section disagrees with the configuration.
        for cfg in [
            ChainsFormerConfig {
                seed: 6,
                ..model.cfg.clone()
            },
            ChainsFormerConfig {
                filter_dim: 4,
                ..model.cfg.clone()
            },
            ChainsFormerConfig {
                filter_space: FilterSpace::Euclidean,
                ..model.cfg.clone()
            },
            ChainsFormerConfig {
                lambda: 0.25,
                ..model.cfg.clone()
            },
        ] {
            let err = load(&path, cfg, &visible);
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
            assert!(err.to_string().contains("\"model\""), "{err}");
        }

        // The section disagrees with the graph's vocabulary.
        let mut other = visible.clone();
        other.add_attribute_type("extra");
        other.build_index();
        let err = load(&path, model.cfg.clone(), &other);
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("the graph has"), "{err}");

        // A rejected reload leaves the model as it was.
        let mut target = model.clone();
        assert!(target.load_params_from(&bare).is_err());
        assert_eq!(target.model_section(), model.model_section());
    }

    #[test]
    fn a_damaged_file_leaves_the_model_as_it_was() {
        let (_, _, model) = fit(FilterSpace::Hyperbolic);
        // Another graph of the same schema: same vocabulary, other fit.
        let other = {
            let mut rng = StdRng::seed_from_u64(6);
            let g = yago15k_sim(SynthScale::small(), &mut rng);
            let split = Split::paper_811(&g, &mut rng);
            let visible = split.visible_graph(&g);
            ChainsFormer::new(&visible, &split.train, model.cfg.clone(), &mut rng)
        };
        let dir = TempDir::new("fitted_damaged");
        let good = dir.join("good.ckpt");
        other.save_params_to(&good).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        let bad = dir.join("bad.ckpt");
        let params = |m: &ChainsFormer| -> Vec<u32> {
            m.params
                .iter()
                .flat_map(|(_, _, t)| t.data().iter().map(|x| x.to_bits()))
                .collect()
        };
        // Cuts and byte flips across the params and model sections.
        for at in (0..bytes.len()).step_by(61) {
            for damaged in [bytes[..at].to_vec(), {
                let mut b = bytes.clone();
                b[at] ^= 0x5A;
                b
            }] {
                std::fs::write(&bad, &damaged).unwrap();
                let mut target = model.clone();
                target.load_params_from(&bad).unwrap_err();
                assert_eq!(params(&target), params(&model), "at {at}");
                assert_eq!(target.model_section(), model.model_section(), "at {at}");
            }
        }
        // The undamaged file does change both halves.
        let mut target = model.clone();
        target.load_params_from(&good).unwrap();
        assert_eq!(target.model_section(), other.model_section());
        assert_ne!(target.model_section(), model.model_section());
    }

    /// `body` with the `u32` at `at` replaced.
    fn with_u32(body: &[u8], at: usize, v: u32) -> Vec<u8> {
        let mut b = body.to_vec();
        b[at..at + 4].copy_from_slice(&v.to_le_bytes());
        b
    }

    #[test]
    fn hostile_or_damaged_bodies_are_typed_errors() {
        let (_, _, model) = fit(FilterSpace::Hyperbolic);
        let (cfg, vocab) = (&model.cfg, *model.vocab());
        let body = model.model_section();
        let decode = |b: &[u8]| Fitted::decode(b, cfg, vocab).map(|_| ());
        decode(&body).expect("the clean body decodes");
        // Field offsets: version 0, seed 4, relations 12, attributes 16,
        // space 20, dim 21, lambda 25, rows 33, table 37.
        const ROWS: usize = 33;
        let table = 37;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("version", with_u32(&body, 0, 9)),
            ("relations", with_u32(&body, 12, u32::MAX)),
            ("attributes", with_u32(&body, 16, u32::MAX)),
            ("dim", with_u32(&body, 21, u32::MAX)),
            ("rows", with_u32(&body, ROWS, u32::MAX)),
            ("space", {
                let mut b = body.clone();
                b[20] = 7;
                b
            }),
            ("truncated", body[..body.len() - 3].to_vec()),
            ("trailing", [body.as_slice(), &[0]].concat()),
            ("nan", {
                let mut b = body.clone();
                b[table..table + 8].copy_from_slice(&f64::NAN.to_le_bytes());
                b
            }),
            ("outside the ball", {
                let mut b = body.clone();
                b[table..table + 8].copy_from_slice(&2.0f64.to_le_bytes());
                b
            }),
        ];
        for (what, bad) in cases {
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt(_) | CheckpointError::Mismatch(_)
                ),
                "{what}: {err}"
            );
            assert!(err.to_string().contains("\"model\""), "{what}: {err}");
        }

        // A Euclidean table has no ball to leave: finiteness is its guard.
        let (_, _, eucl) = fit(FilterSpace::Euclidean);
        let mut bad = eucl.model_section();
        bad[table..table + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        let err = Fitted::decode(&bad, &eucl.cfg, *eucl.vocab()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}
