//! Neural-network layers built on the autodiff tape.
//!
//! Layers allocate their parameters in a shared [`crate::params::ParamStore`]
//! at construction time and are immutable afterwards; `forward` records onto
//! a caller-provided [`crate::tape::Tape`]. There is no `Module` trait — each
//! layer exposes the `forward` signature its shape discipline needs.

mod attention;
mod embedding;
mod linear;
mod lstm;
mod mlp;
mod transformer;

pub use attention::MultiHeadAttention;
pub use embedding::Embedding;
pub use linear::{LayerNorm, Linear};
pub use lstm::Lstm;
pub use mlp::{Activation, Mlp};
pub use transformer::{TransformerEncoder, TransformerEncoderLayer};
