#![warn(missing_docs)]

//! # cf-tensor
//!
//! A minimal, dependency-light CPU tensor library with reverse-mode autodiff,
//! built from scratch as the neural substrate for the ChainsFormer
//! reproduction (no mature deep-learning stack exists in offline Rust).
//!
//! Pieces:
//! - [`tensor::Tensor`] — dense row-major `f32` storage with matmul/bmm
//!   kernels usable outside autodiff;
//! - [`tape::Tape`] / [`tape::Var`] — an arena-based autodiff tape: every op
//!   appends a node, and a single reverse scan backpropagates (see
//!   [`crate::ops`] for the op set);
//! - [`params::ParamStore`] — flat parameter arena shared by layers and
//!   optimizers;
//! - [`nn`] — Linear/MLP/Embedding/LayerNorm, multi-head attention,
//!   encoder-only Transformers, and an LSTM for the paper's ablation;
//! - [`optim`] — Adam (the paper's optimizer) with global-norm clipping;
//! - [`pool`] — thread-local size-bucketed buffer pool behind every tensor
//!   and scratch allocation (zero steady-state heap traffic per step);
//! - [`simd`] — the one CPU-feature probe and the `simd_hot!` AVX2/AVX-512
//!   dispatch for the hot kernels (cf-kg's store scans included),
//!   bitwise-identical across tiers because no fast-math is ever enabled;
//! - [`crc`] — the CRC32 behind every checkpoint and graph-store section;
//! - [`gradcheck`] — finite-difference gradient checking used across tests.
//!
//! ## Example
//! ```
//! use cf_tensor::{Tape, Tensor, ParamStore, nn::{Mlp, Activation}, optim::Adam};
//! use cf_rand::SeedableRng;
//!
//! let mut rng = cf_rand::rngs::StdRng::seed_from_u64(0);
//! let mut ps = ParamStore::new();
//! let mlp = Mlp::new(&mut ps, "f", &[2, 16, 1], Activation::Tanh, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! for _ in 0..10 {
//!     let mut tape = Tape::new();
//!     let x = tape.leaf(Tensor::new([4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]));
//!     let pred = mlp.forward(&mut tape, &ps, x);
//!     let loss = tape.mse_loss(pred, &Tensor::new([4, 1], vec![0.0, 1.0, 1.0, 0.0]));
//!     let grads = tape.backward(loss, ps.len());
//!     opt.step(&mut ps, &grads);
//! }
//! assert!(ps.all_finite());
//! ```

pub mod crc;
pub mod gradcheck;
pub mod infer;
pub mod init;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod params;
pub mod pool;
pub mod quant;
pub mod serialize;
pub mod shape;
pub mod simd;
pub mod tape;
pub mod tensor;
#[cfg(test)]
mod test_alloc;

pub use crc::crc32;
pub use infer::{Forward, InferCtx};
pub use init::Init;
pub use optim::AdamSnapshot;
pub use params::{ParamId, ParamStore};
pub use quant::{QuantInferCtx, QuantizedParamStore, QuantizedTensor};
pub use serialize::{
    load_checkpoint, load_params, save_checkpoint, save_checkpoint_atomic, write_atomic,
    Checkpoint, CheckpointError, SectionReader, TrainState,
};
pub use shape::Shape;
pub use tape::{GradStore, Tape, Var};
pub use tensor::{matmul_into, matmul_into_at, matmul_into_bt, Tensor};
