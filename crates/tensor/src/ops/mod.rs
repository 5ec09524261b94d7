//! Differentiable operations, implemented as inherent methods on
//! [`crate::tape::Tape`].
//!
//! Each op evaluates its forward value eagerly and records a backward closure
//! that accumulates parent gradients. Ops that operate "row-wise" treat a
//! tensor of any rank as the matrix `[leading, last_dim]`, which lets the same
//! kernel serve 2-D activations and 3-D batched sequences.

pub(crate) mod attn;
pub(crate) mod elementwise;
mod linalg;
mod loss;
pub(crate) mod reduce;
pub(crate) mod shape_ops;
