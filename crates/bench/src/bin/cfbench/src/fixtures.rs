//! Fixtures: the files a workload's server starts from (a CFKG1 store, an
//! init-weights CFT2 checkpoint and, where needed, a CFCI1 chain index),
//! plus the in-process model built the way `cfkg serve` builds it.

use cf_kg::synth::{yago15k_sim, SynthScale};
use cf_kg::{
    build_chain_index, read_store, write_index, write_store, IndexParams, KnowledgeGraph, Split,
};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use chainsformer::{ChainsFormer, ChainsFormerConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the synthetic graph. Fixed, so every run of a workload serves
/// the same graph and `--seed` varies only the traffic.
pub const GRAPH_SEED: u64 = 7;
/// The `--seed` every served model is built with (split, filter, init
/// weights and per-query retrieval RNGs).
pub const MODEL_SEED: u64 = 7;

/// Model flags as `cfkg` spells them, applied on top of the defaults.
pub type Flags = &'static [(&'static str, usize)];

/// The configuration `cfkg serve <flags> --seed MODEL_SEED` builds, so the
/// in-process oracle and replay run the served architecture.
pub fn config(flags: Flags) -> ChainsFormerConfig {
    let mut cfg = ChainsFormerConfig {
        seed: MODEL_SEED,
        ..ChainsFormerConfig::default()
    };
    for &(flag, v) in flags {
        match flag {
            "dim" => {
                cfg.dim = v;
                cfg.ff_dim = 2 * v;
            }
            "layers" => cfg.layers = v,
            "walks" => cfg.retrieval_walks = v,
            "top-k" => cfg.top_k = v,
            other => panic!("unknown model flag {other}"),
        }
    }
    cfg.validate().expect("workload config is valid");
    cfg
}

/// `--flag value` arguments for `cfkg` matching [`config`].
pub fn flag_args(flags: Flags) -> Vec<String> {
    flags
        .iter()
        .flat_map(|&(f, v)| [format!("--{f}"), v.to_string()])
        .collect()
}

/// The paper-scale synthetic YAGO15K twin, canonicalized as `cfkg ingest`
/// would store it.
pub fn graph() -> KnowledgeGraph {
    let mut g = yago15k_sim(SynthScale::paper(), &mut StdRng::seed_from_u64(GRAPH_SEED));
    g.canonicalize();
    g
}

/// Files one workload's server starts from.
pub struct Fixture {
    /// CFKG1 store of the full graph.
    pub store: PathBuf,
    /// Init-weights checkpoint for the workload's architecture.
    pub ckpt: PathBuf,
    /// Chain index over the served (visible) graph, when built.
    pub index: Option<PathBuf>,
    /// Model configuration the checkpoint was built for.
    pub cfg: ChainsFormerConfig,
}

/// The served model, rebuilt with the sequence `cfkg serve` runs:
/// `read_store` → `Split::paper_811` → `ChainsFormer::new` (→
/// `load_params_from` when a checkpoint is given).
pub fn served_model(
    store: &Path,
    ckpt: Option<&Path>,
    cfg: &ChainsFormerConfig,
) -> Result<(KnowledgeGraph, Split, ChainsFormer), String> {
    let graph = read_store(store).map_err(|e| format!("{}: {e}", store.display()))?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let split = Split::paper_811(&graph, &mut rng);
    let visible = split.visible_graph(&graph);
    let mut model = ChainsFormer::new(&visible, &split.train, cfg.clone(), &mut rng);
    if let Some(ckpt) = ckpt {
        model
            .load_params_from(ckpt)
            .map_err(|e| format!("{}: {e}", ckpt.display()))?;
    }
    Ok((visible, split, model))
}

/// Writes the store, checkpoint and (with `index`) chain index for `graph`
/// under `dir`. Returns the fixture and the seconds it took.
pub fn build(
    dir: &Path,
    graph: &KnowledgeGraph,
    cfg: ChainsFormerConfig,
    index: bool,
) -> Result<(Fixture, f64), String> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = dir.join("graph.cfkg");
    write_store(graph, &store).map_err(|e| format!("{}: {e}", store.display()))?;
    let (visible, _, model) = served_model(&store, None, &cfg)?;
    let ckpt = dir.join("init.ckpt");
    model
        .save_params_to(&ckpt)
        .map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let index = if index {
        let path = dir.join("chains.cfci");
        let ix = build_chain_index(&visible, IndexParams::default());
        write_index(&ix, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    Ok((
        Fixture {
            store,
            ckpt,
            index,
            cfg,
        },
        t0.elapsed().as_secs_f64(),
    ))
}
