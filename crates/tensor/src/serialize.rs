//! Checkpointing: a small self-describing binary format for
//! [`crate::params::ParamStore`] and full training state (no external
//! serialization crates needed).
//!
//! **CFT2** is sectioned, CRC-checked, and optionally carries the full
//! training state for bitwise resume (all integers little-endian):
//! ```text
//! magic "CFT2"
//! section*: u8 tag | u64 body_len | body | u32 crc32(body)
//! end:      u8 0xFF | u32 crc32(concatenated section CRCs)
//! params body: u32 n_params, then per param
//!              u32 name_len | name bytes | u32 rank | u32 dims… | f32 data…
//! ```
//! Section tags: `0x01` params, `0x02` Adam moments + step, `0x03` RNG
//! state words, `0x04` train cursor (epoch / best / patience), `0x05`
//! config fingerprint, `0x06` best-validation params (params body), `0x07`
//! model. Any other magic, the retired params-only CFT1 included, is
//! [`CheckpointError::BadMagic`].
//! The params section is mandatory; the five state sections are all
//! present or all absent. The model section is opaque here: the model crate
//! encodes and decodes its body (what the model derives from its graph),
//! and this module carries it under the same length cap and CRC as every
//! other section. Every section is integrity-checked before anything is
//! committed to the receiving store, so a corrupt checkpoint is rejected
//! with a typed error naming the failed section and the store is left
//! untouched.
//!
//! Durability: [`save_checkpoint_atomic`] goes through [`write_atomic`],
//! which writes `<path>.tmp`, fsyncs the file, renames it over `path` and
//! fsyncs the parent directory — a crash at any byte offset leaves either
//! the old or the new checkpoint on disk, never a torn one. cf-kg's CFKG1
//! and CFCI1 writers use the same helper.

use crate::crc::crc32;
use crate::optim::AdamSnapshot;
use crate::params::ParamStore;
use crate::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC2: &[u8; 4] = b"CFT2";

const TAG_PARAMS: u8 = 0x01;
const TAG_ADAM: u8 = 0x02;
const TAG_RNG: u8 = 0x03;
const TAG_TRAIN: u8 = 0x04;
const TAG_CONFIG: u8 = 0x05;
const TAG_BEST: u8 = 0x06;
const TAG_MODEL: u8 = 0x07;
const TAG_END: u8 = 0xFF;

/// No tensor in the model family comes close to this rank; anything larger
/// is a corrupt stream, not a checkpoint.
const MAX_RANK: usize = 16;

/// Sanity caps applied to every length field *before* it drives an
/// allocation: a corrupt or adversarial stream must produce a typed error,
/// never a multi-gigabyte `Vec` reservation or an abort.
const MAX_NAME_LEN: usize = 4096;
const MAX_PARAMS: usize = 1 << 20;
const MAX_DIM: usize = 1 << 28;
const MAX_NUMEL: usize = 1 << 31;
const MAX_SECTION_LEN: u64 = 1 << 31;

/// Errors raised while reading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (including unexpected end of stream).
    Io(io::Error),
    /// The stream does not start with a known checkpoint magic.
    BadMagic,
    /// Parameter count/name/shape disagrees with the receiving store.
    Mismatch(String),
    /// Structurally invalid data (bad lengths, non-UTF-8 names, truncated
    /// or malformed section bodies). The message names the section.
    Corrupt(String),
    /// A section's stored CRC32 does not match its bytes.
    BadCrc {
        /// Which section failed its integrity check.
        section: &'static str,
    },
    /// A section the reader needs is absent from the stream.
    Missing {
        /// Which section is missing.
        section: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a ChainsFormer checkpoint (bad magic)"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::BadCrc { section } => {
                write!(
                    f,
                    "corrupt checkpoint: section {section:?} failed its CRC check"
                )
            }
            CheckpointError::Missing { section } => {
                write!(f, "checkpoint has no {section:?} section")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Training state carried by CFT2 checkpoints.
// ---------------------------------------------------------------------------

/// Everything beyond the parameters that a training run needs to resume
/// bit-for-bit: optimizer moments, the data-order RNG, and the
/// early-stopping cursor. The tape is deliberately absent — it is
/// re-derivable state, rebuilt by the next forward pass.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// Adam step count and first/second moment estimates.
    pub adam: AdamSnapshot,
    /// The training RNG's xoshiro256++ state words at the epoch boundary.
    pub rng: [u64; 4],
    /// Index of the next epoch to run (epochs `0..next_epoch` completed).
    pub next_epoch: u64,
    /// Consecutive epochs without validation improvement (patience cursor).
    pub bad_epochs: u64,
    /// Epoch index of the best validation MAE so far, if any.
    pub best_epoch: Option<u64>,
    /// The best validation MAE so far (stored bit-exactly), if any.
    pub best_val: Option<f64>,
    /// Fingerprint of the model configuration the run was started with;
    /// resume refuses a checkpoint whose fingerprint disagrees.
    pub config_fingerprint: u64,
    /// Parameters at the best validation epoch (what early stopping ships),
    /// when validation has produced one.
    pub best_params: Option<ParamStore>,
}

// ---------------------------------------------------------------------------
// Body encoding helpers.
// ---------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounded cursor over a fully-read section body. Every overrun is a
/// typed `Corrupt` naming the section, never a panic, and every read checks
/// its length against the bytes actually present before it allocates. The
/// model crate decodes the opaque model section with it.
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    /// A reader over `buf`, the body of the section named `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        SectionReader {
            buf,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CheckpointError::Corrupt(format!(
                "section {:?}: truncated body",
                self.section
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Takes `n` elements of `size` bytes, checking the count against the
    /// bytes left before anything is allocated.
    fn elements(&mut self, n: usize, size: usize) -> Result<&'a [u8], CheckpointError> {
        let bytes = n
            .checked_mul(size)
            .ok_or_else(|| self.corrupt("element count overflow"))?;
        self.take(bytes)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        Ok(self
            .elements(n, 4)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    /// Reads `n` little-endian `f64`s, bit for bit.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        Ok(self
            .elements(n, 8)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    /// Succeeds only when the whole body was read.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "section {:?}: {} trailing bytes",
                self.section,
                self.buf.len() - self.pos
            )))
        }
    }

    /// A `Corrupt` error naming this reader's section.
    pub fn corrupt(&self, msg: impl std::fmt::Display) -> CheckpointError {
        CheckpointError::Corrupt(format!("section {:?}: {msg}", self.section))
    }
}

/// Reads and validates a shape header (`u32 rank | u32 dims…`) against the
/// caps, returning the dims and their checked element count.
fn read_shape(
    b: &mut SectionReader<'_>,
    what: &str,
) -> Result<(Vec<usize>, usize), CheckpointError> {
    let rank = b.u32()? as usize;
    if rank > MAX_RANK {
        return Err(b.corrupt(format!("{what}: absurd rank {rank} (max {MAX_RANK})")));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut numel = 1usize;
    for _ in 0..rank {
        let d = b.u32()? as usize;
        if d > MAX_DIM {
            return Err(b.corrupt(format!("{what}: absurd dimension {d}")));
        }
        numel = numel
            .checked_mul(d)
            .filter(|&n| n <= MAX_NUMEL)
            .ok_or_else(|| b.corrupt(format!("{what}: element count overflow")))?;
        dims.push(d);
    }
    Ok((dims, numel.max(1)))
}

// ---------------------------------------------------------------------------
// Params body (shared by the params and best-params sections).
// ---------------------------------------------------------------------------

fn write_params_body(store: &ParamStore, out: &mut Vec<u8>) {
    push_u32(out, store.len() as u32);
    for (_, name, tensor) in store.iter() {
        let name_bytes = name.as_bytes();
        push_u32(out, name_bytes.len() as u32);
        out.extend_from_slice(name_bytes);
        let dims = tensor.shape().dims();
        push_u32(out, dims.len() as u32);
        for &d in dims {
            push_u32(out, d as u32);
        }
        for &x in tensor.data() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Parses a params body into `store`, staging first so a mismatch never
/// leaves it half overwritten. Names and shapes must match the store.
fn read_params_body(
    store: &mut ParamStore,
    b: &mut SectionReader<'_>,
) -> Result<(), CheckpointError> {
    let n = b.u32()? as usize;
    if n > MAX_PARAMS {
        return Err(b.corrupt(format!("absurd parameter count {n}")));
    }
    if n != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {n} params, store has {}",
            store.len()
        )));
    }
    let mut staged: Vec<Tensor> = Vec::with_capacity(n);
    for (_, name, tensor) in store.iter() {
        let name_len = b.u32()? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(b.corrupt(format!("absurd name length {name_len}")));
        }
        let name_buf = b.take(name_len)?;
        let ck_name =
            std::str::from_utf8(name_buf).map_err(|_| b.corrupt("non-utf8 parameter name"))?;
        if ck_name != name {
            return Err(CheckpointError::Mismatch(format!(
                "expected param {name:?}, found {ck_name:?}"
            )));
        }
        let (dims, numel) = read_shape(b, &format!("param {name:?}"))?;
        if dims.as_slice() != tensor.shape().dims() {
            return Err(CheckpointError::Mismatch(format!(
                "param {name:?}: checkpoint shape {dims:?} vs store {:?}",
                tensor.shape().dims()
            )));
        }
        let data = b.f32s(numel)?;
        staged.push(Tensor::new(dims, data));
    }
    for (i, t) in staged.into_iter().enumerate() {
        *store.get_mut(crate::params::ParamId(i)) = t;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// State section bodies.
// ---------------------------------------------------------------------------

fn write_adam_body(snap: &AdamSnapshot, n_params: usize, out: &mut Vec<u8>) {
    push_u64(out, snap.step);
    push_u32(out, n_params as u32);
    for i in 0..n_params {
        let slot = snap.m.get(i).and_then(|m| m.as_ref());
        match slot {
            Some(m) => {
                let v = snap.v[i].as_ref().expect("m and v are allocated together");
                out.push(1);
                let dims = m.shape().dims();
                push_u32(out, dims.len() as u32);
                for &d in dims {
                    push_u32(out, d as u32);
                }
                for &x in m.data() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                for &x in v.data() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            None => out.push(0),
        }
    }
}

fn read_adam_body(
    store: &ParamStore,
    b: &mut SectionReader<'_>,
) -> Result<AdamSnapshot, CheckpointError> {
    let step = b.u64()?;
    let n = b.u32()? as usize;
    if n != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "adam state covers {n} params, store has {}",
            store.len()
        )));
    }
    let mut m = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    for idx in 0..n {
        let present = b.u8()?;
        if present > 1 {
            return Err(b.corrupt(format!("bad moment-present flag {present}")));
        }
        if present == 0 {
            m.push(None);
            v.push(None);
            continue;
        }
        let name = store.name(crate::params::ParamId(idx)).to_string();
        let (dims, numel) = read_shape(b, &format!("adam moments of {name:?}"))?;
        let expect = store.get(crate::params::ParamId(idx)).shape().dims();
        if dims.as_slice() != expect {
            return Err(CheckpointError::Mismatch(format!(
                "adam moments of {name:?}: checkpoint shape {dims:?} vs store {expect:?}"
            )));
        }
        let m_data = b.f32s(numel)?;
        let v_data = b.f32s(numel)?;
        m.push(Some(Tensor::new(dims.clone(), m_data)));
        v.push(Some(Tensor::new(dims, v_data)));
    }
    Ok(AdamSnapshot { step, m, v })
}

fn write_train_body(state: &TrainState, out: &mut Vec<u8>) {
    push_u64(out, state.next_epoch);
    push_u64(out, state.bad_epochs);
    match (state.best_epoch, state.best_val) {
        (Some(e), Some(v)) => {
            out.push(1);
            push_u64(out, e);
            push_u64(out, v.to_bits());
        }
        _ => {
            out.push(0);
            push_u64(out, 0);
            push_u64(out, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Public save/load entry points.
// ---------------------------------------------------------------------------

/// Loads a params-only view of a CFT2 checkpoint into an
/// *identically structured* store: parameter count, names, and shapes must
/// match (the architecture is reconstructed from configuration, not from
/// the checkpoint). Any training state or model section in the stream is
/// validated and discarded.
pub fn load_params(store: &mut ParamStore, r: impl Read) -> Result<(), CheckpointError> {
    load_checkpoint(store, r).map(|_| ())
}

/// Writes a CFT2 checkpoint: parameters, the opaque `model` section body
/// when given, and, when `state` is given, the full training state needed
/// for bitwise resume. Every section carries a CRC32 and the stream ends
/// with a footer checksum.
pub fn save_checkpoint(
    store: &ParamStore,
    model: Option<&[u8]>,
    state: Option<&TrainState>,
    mut w: impl Write,
) -> io::Result<()> {
    let mut sections: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut body = Vec::new();
    write_params_body(store, &mut body);
    sections.push((TAG_PARAMS, body));
    if let Some(model) = model {
        sections.push((TAG_MODEL, model.to_vec()));
    }
    if let Some(state) = state {
        let mut adam = Vec::new();
        write_adam_body(&state.adam, store.len(), &mut adam);
        sections.push((TAG_ADAM, adam));
        let mut rng = Vec::new();
        for w64 in state.rng {
            push_u64(&mut rng, w64);
        }
        sections.push((TAG_RNG, rng));
        let mut train = Vec::new();
        write_train_body(state, &mut train);
        sections.push((TAG_TRAIN, train));
        let mut config = Vec::new();
        push_u64(&mut config, state.config_fingerprint);
        sections.push((TAG_CONFIG, config));
        if let Some(best) = &state.best_params {
            let mut best_body = Vec::new();
            write_params_body(best, &mut best_body);
            sections.push((TAG_BEST, best_body));
        }
    }
    w.write_all(MAGIC2)?;
    let mut crc_trail = Vec::with_capacity(sections.len() * 4);
    for (tag, body) in &sections {
        w.write_all(&[*tag])?;
        w.write_all(&(body.len() as u64).to_le_bytes())?;
        w.write_all(body)?;
        let crc = crc32(body);
        w.write_all(&crc.to_le_bytes())?;
        crc_trail.extend_from_slice(&crc.to_le_bytes());
    }
    w.write_all(&[TAG_END])?;
    w.write_all(&crc32(&crc_trail).to_le_bytes())?;
    Ok(())
}

fn section_name(tag: u8) -> &'static str {
    match tag {
        TAG_PARAMS => "params",
        TAG_ADAM => "adam",
        TAG_RNG => "rng",
        TAG_TRAIN => "train",
        TAG_CONFIG => "config",
        TAG_BEST => "best_params",
        TAG_MODEL => "model",
        _ => "unknown",
    }
}

/// Reads `len` bytes in bounded chunks, so a corrupt length field cannot
/// reserve gigabytes up front — memory grows only as data actually arrives.
fn read_body(r: &mut impl Read, len: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 65536];
    let mut remaining = len as usize;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        buf.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(buf)
}

/// A CFT2 stream read whole, with its framing verified: the magic, every
/// section's length cap and CRC32, the footer, and that no tag is unknown
/// or repeated. No body is parsed yet, so a caller can inspect the model
/// section before it builds the store the params must fit.
pub struct Checkpoint {
    sections: Vec<(u8, Vec<u8>)>,
}

impl Checkpoint {
    /// Reads and verifies the framing of a whole CFT2 stream. A stream that
    /// ends early is an `Io` error naming the section it ended in.
    pub fn read(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC2 {
            return Err(CheckpointError::BadMagic);
        }
        let mut sections: Vec<(u8, Vec<u8>)> = Vec::new();
        let mut crc_trail = Vec::new();
        let mut last = "magic";
        loop {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)
                .map_err(|e| ended_in(e, &format!("after section {last:?}")))?;
            let tag = tag[0];
            if tag == TAG_END {
                let mut footer = [0u8; 4];
                r.read_exact(&mut footer)
                    .map_err(|e| ended_in(e, "in the footer"))?;
                if u32::from_le_bytes(footer) != crc32(&crc_trail) {
                    return Err(CheckpointError::BadCrc { section: "footer" });
                }
                return Ok(Checkpoint { sections });
            }
            let name = section_name(tag);
            if name == "unknown" {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown section tag 0x{tag:02x} after section {last:?}"
                )));
            }
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(CheckpointError::Corrupt(format!(
                    "duplicate section {name:?}"
                )));
            }
            let within = |e| ended_in(e, &format!("in section {name:?}"));
            let mut len = [0u8; 8];
            r.read_exact(&mut len).map_err(within)?;
            let len = u64::from_le_bytes(len);
            if len > MAX_SECTION_LEN {
                return Err(CheckpointError::Corrupt(format!(
                    "section {name:?}: absurd length {len}"
                )));
            }
            let body = read_body(&mut r, len).map_err(within)?;
            let mut crc = [0u8; 4];
            r.read_exact(&mut crc).map_err(within)?;
            if u32::from_le_bytes(crc) != crc32(&body) {
                return Err(CheckpointError::BadCrc { section: name });
            }
            crc_trail.extend_from_slice(&crc);
            sections.push((tag, body));
            last = name;
        }
    }

    fn get(&self, tag: u8) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| b.as_slice())
    }

    /// The model section's body, if the stream carries one. It is opaque
    /// here; the model crate decodes it.
    pub fn model(&self) -> Option<&[u8]> {
        self.get(TAG_MODEL)
    }

    /// Parses the params section, and the training state when the stream
    /// carries one, into `layout`: the file must match its parameter count,
    /// names and shapes. Returns `layout` holding the file's parameters.
    pub fn decode(
        &self,
        layout: ParamStore,
    ) -> Result<(ParamStore, Option<TrainState>), CheckpointError> {
        let params_body = self
            .get(TAG_PARAMS)
            .ok_or(CheckpointError::Missing { section: "params" })?;
        let mut staged = layout;
        let mut b = SectionReader::new(params_body, "params");
        read_params_body(&mut staged, &mut b)?;
        b.finish()?;

        let state_tags = [TAG_ADAM, TAG_RNG, TAG_TRAIN, TAG_CONFIG];
        let present = state_tags
            .iter()
            .filter(|&&t| self.get(t).is_some())
            .count();
        let state = match present {
            0 => {
                if self.get(TAG_BEST).is_some() {
                    return Err(CheckpointError::Corrupt(
                        "best_params section without training state".into(),
                    ));
                }
                None
            }
            4 => {
                let mut b = SectionReader::new(self.get(TAG_ADAM).expect("present"), "adam");
                let adam = read_adam_body(&staged, &mut b)?;
                b.finish()?;

                let mut b = SectionReader::new(self.get(TAG_RNG).expect("present"), "rng");
                let rng = [b.u64()?, b.u64()?, b.u64()?, b.u64()?];
                b.finish()?;

                let mut b = SectionReader::new(self.get(TAG_TRAIN).expect("present"), "train");
                let next_epoch = b.u64()?;
                let bad_epochs = b.u64()?;
                let has_best = b.u8()?;
                if has_best > 1 {
                    return Err(b.corrupt(format!("bad best-present flag {has_best}")));
                }
                let best_epoch_raw = b.u64()?;
                let best_val_raw = b.u64()?;
                b.finish()?;
                let (best_epoch, best_val) = if has_best == 1 {
                    (Some(best_epoch_raw), Some(f64::from_bits(best_val_raw)))
                } else {
                    (None, None)
                };

                let mut b = SectionReader::new(self.get(TAG_CONFIG).expect("present"), "config");
                let config_fingerprint = b.u64()?;
                b.finish()?;

                let best_params = match self.get(TAG_BEST) {
                    Some(body) => {
                        let mut best = staged.clone();
                        let mut b = SectionReader::new(body, "best_params");
                        read_params_body(&mut best, &mut b)?;
                        b.finish()?;
                        Some(best)
                    }
                    None => None,
                };

                Some(TrainState {
                    adam,
                    rng,
                    next_epoch,
                    bad_epochs,
                    best_epoch,
                    best_val,
                    config_fingerprint,
                    best_params,
                })
            }
            _ => {
                return Err(CheckpointError::Corrupt(
                    "incomplete training state (adam/rng/train/config must all be present)".into(),
                ))
            }
        };
        Ok((staged, state))
    }
}

/// An early end of stream, reported as `Io` with the place it happened.
fn ended_in(e: io::Error, place: &str) -> CheckpointError {
    CheckpointError::Io(io::Error::new(
        e.kind(),
        format!("stream ends {place}: {e}"),
    ))
}

/// Loads a CFT2 checkpoint into an identically structured store
/// and returns its training state, if the stream carries one.
///
/// All-or-nothing: every section is read and validated (CRCs, footer,
/// names, shapes) before anything is committed, so a rejected checkpoint
/// leaves the store untouched. A model section is validated as framing
/// only and discarded.
pub fn load_checkpoint(
    store: &mut ParamStore,
    r: impl Read,
) -> Result<Option<TrainState>, CheckpointError> {
    let (params, state) = Checkpoint::read(r)?.decode(store.clone())?;
    *store = params;
    Ok(state)
}

// ---------------------------------------------------------------------------
// Atomic durable writes.
// ---------------------------------------------------------------------------

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Replaces `path` durably and atomically with the bytes `write` streams:
/// they go to `<path>.tmp`, which is fsynced and renamed over `path`, and
/// the parent directory is fsynced so the rename itself survives a power
/// cut. A crash at any byte offset leaves either the old file or the new
/// one at `path`, never a torn one; on error the temporary is removed and
/// `path` is untouched. The one durable write behind CFT2 checkpoints and
/// cf-kg's CFKG1 stores and CFCI1 indexes.
pub fn write_atomic<E: From<io::Error>>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> Result<(), E>,
) -> Result<(), E> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let result: Result<(), E> = (|| {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes a CFT2 checkpoint to `path` through [`write_atomic`].
pub fn save_checkpoint_atomic(
    store: &ParamStore,
    model: Option<&[u8]>,
    state: Option<&TrainState>,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    write_atomic(path, |w| save_checkpoint(store, model, state, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.add(
            "a",
            Tensor::new([2, 3], (0..6).map(|x| x as f32 * 0.5).collect()),
        );
        ps.add("b", Tensor::vector(&[7.0, -1.5]));
        ps
    }

    /// A params-only CFT2 stream of `ps`.
    fn params_only(ps: &ParamStore) -> Vec<u8> {
        let mut buf = Vec::new();
        save_checkpoint(ps, None, None, &mut buf).unwrap();
        buf
    }

    /// Offset of the params body in a params-only stream: magic, tag, length.
    const BODY: usize = 4 + 1 + 8;
    /// Offsets of param "a"'s fields in a params-only stream of `store()`:
    /// the body opens with n_params(4), then name_len(4), "a"(1), rank(4).
    const NAME_LEN: usize = BODY + 4;
    const RANK: usize = BODY + 9;
    const DIM0: usize = RANK + 4;

    /// Re-seals a params-only stream after a test edited a body field in
    /// place: recomputes the section CRC and the footer, so the edit reaches
    /// the body parser and its caps instead of failing a CRC first.
    fn reseal(buf: &mut [u8]) {
        let crc_at = buf.len() - 9; // body crc(4), end tag(1), footer(4)
        let crc = crc32(&buf[BODY..crc_at]).to_le_bytes();
        buf[crc_at..crc_at + 4].copy_from_slice(&crc);
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&crc32(&crc).to_le_bytes());
    }

    fn assert_stores_equal(a: &ParamStore, b: &ParamStore) {
        for ((_, _, ta), (_, _, tb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta, tb);
        }
    }

    fn train_state(base: &ParamStore) -> TrainState {
        let mut best = base.clone();
        best.get_mut(crate::params::ParamId(0)).data_mut()[0] = -3.25;
        TrainState {
            adam: AdamSnapshot {
                step: 42,
                m: vec![Some(Tensor::new([2, 3], vec![0.1; 6])), None],
                v: vec![Some(Tensor::new([2, 3], vec![0.2; 6])), None],
            },
            rng: [1, 2, 3, u64::MAX],
            next_epoch: 7,
            bad_epochs: 2,
            best_epoch: Some(4),
            best_val: Some(0.123456789f64),
            config_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            best_params: Some(best),
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let src = store();
        let buf = params_only(&src);
        let mut dst = store();
        // Perturb destination to prove data actually loads.
        dst.get_mut(crate::params::ParamId(0)).data_mut()[0] = 99.0;
        load_params(&mut dst, &buf[..]).unwrap();
        assert_stores_equal(&src, &dst);
    }

    #[test]
    fn cft2_params_only_round_trips() {
        let src = store();
        let mut buf = Vec::new();
        save_checkpoint(&src, None, None, &mut buf).unwrap();
        assert_eq!(&buf[..4], b"CFT2");
        let mut dst = store();
        dst.get_mut(crate::params::ParamId(0)).data_mut()[0] = 99.0;
        let state = load_checkpoint(&mut dst, &buf[..]).unwrap();
        assert!(state.is_none());
        assert_stores_equal(&src, &dst);
    }

    #[test]
    fn cft2_full_train_state_round_trips_bitwise() {
        let src = store();
        let state = train_state(&src);
        let mut buf = Vec::new();
        save_checkpoint(&src, None, Some(&state), &mut buf).unwrap();

        let mut dst = store();
        dst.get_mut(crate::params::ParamId(1)).data_mut()[0] = -100.0;
        let loaded = load_checkpoint(&mut dst, &buf[..]).unwrap().expect("state");
        assert_stores_equal(&src, &dst);
        assert_eq!(loaded.adam, state.adam);
        assert_eq!(loaded.rng, state.rng);
        assert_eq!(loaded.next_epoch, 7);
        assert_eq!(loaded.bad_epochs, 2);
        assert_eq!(loaded.best_epoch, Some(4));
        assert_eq!(
            loaded.best_val.unwrap().to_bits(),
            state.best_val.unwrap().to_bits()
        );
        assert_eq!(loaded.config_fingerprint, state.config_fingerprint);
        assert_stores_equal(
            loaded.best_params.as_ref().expect("best"),
            state.best_params.as_ref().expect("best"),
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut dst = store();
        let err = load_params(&mut dst, &b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn rejects_retired_cft1_magic() {
        // A CFT1 stream was the magic followed by a bare params body.
        let full = params_only(&store());
        let mut cft1 = b"CFT1".to_vec();
        cft1.extend_from_slice(&full[BODY..full.len() - 9]);
        let err = load_params(&mut store(), &cft1[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
    }

    #[test]
    fn rejects_shape_mismatch_without_corrupting() {
        let buf = params_only(&store());
        let mut other = ParamStore::new();
        other.add("a", Tensor::zeros([2, 3]));
        other.add("b", Tensor::zeros([3])); // wrong shape
        let before = other.get(crate::params::ParamId(0)).clone();
        assert!(load_params(&mut other, &buf[..]).is_err());
        assert_eq!(
            other.get(crate::params::ParamId(0)),
            &before,
            "store was corrupted"
        );
    }

    #[test]
    fn cft2_rejects_mismatch_without_corrupting() {
        let src = store();
        let state = train_state(&src);
        let mut buf = Vec::new();
        save_checkpoint(&src, None, Some(&state), &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.add("a", Tensor::ones([2, 3]));
        other.add("b", Tensor::zeros([3])); // wrong shape
        let before = other.get(crate::params::ParamId(0)).clone();
        let err = load_checkpoint(&mut other, &buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert_eq!(other.get(crate::params::ParamId(0)), &before);
    }

    #[test]
    fn rejects_name_mismatch() {
        let buf = params_only(&store());
        let mut other = ParamStore::new();
        other.add("a", Tensor::zeros([2, 3]));
        other.add("c", Tensor::zeros([2]));
        let err = load_params(&mut other, &buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut buf = params_only(&store());
        buf.truncate(buf.len() - 3);
        let mut dst = store();
        assert!(load_params(&mut dst, &buf[..]).is_err());
    }

    /// Loads `buf` with `value` written at `at` (re-sealed) and returns the
    /// error.
    fn load_edited(mut buf: Vec<u8>, at: usize, value: u32) -> CheckpointError {
        buf[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut buf);
        load_params(&mut store(), &buf[..]).unwrap_err()
    }

    #[test]
    fn rejects_absurd_rank_with_typed_error_not_oom() {
        // Before the cap a huge rank drove Vec::with_capacity into a
        // multi-GB allocation.
        let err = load_edited(params_only(&store()), RANK, u32::MAX);
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("absurd rank"), "{err}");
    }

    #[test]
    fn rejects_absurd_name_len_and_dims_with_typed_errors() {
        let buf = params_only(&store());
        let err = load_edited(buf.clone(), NAME_LEN, u32::MAX);
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("absurd name length"), "{err}");
        // A single dimension beyond MAX_DIM is Corrupt, not an allocation.
        let err = load_edited(buf.clone(), DIM0, u32::MAX);
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("absurd dimension"), "{err}");
        // Two in-cap dimensions whose product passes MAX_NUMEL.
        let mut wide = buf;
        wide[DIM0..DIM0 + 4].copy_from_slice(&(MAX_DIM as u32).to_le_bytes());
        let err = load_edited(wide, DIM0 + 4, MAX_DIM as u32);
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("element count overflow"), "{err}");
    }

    #[test]
    fn rejects_garbage_dims_as_mismatch() {
        // Keep rank=2 but overwrite the first dim of "a" with garbage.
        let err = load_edited(params_only(&store()), DIM0, 0xDEAD);
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        // No prefix of a valid params-only checkpoint may panic: the loader
        // reads every section before parsing any, so each cut is an Io
        // error (the full length alone loads).
        let buf = params_only(&store());
        for cut in 0..buf.len() {
            let mut dst = store();
            let err = load_params(&mut dst, &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Io(_)),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn cft2_rejects_truncation_at_every_prefix() {
        let src = store();
        let state = train_state(&src);
        let mut buf = Vec::new();
        save_checkpoint(&src, None, Some(&state), &mut buf).unwrap();
        for cut in 0..buf.len() {
            let mut dst = store();
            let err = load_checkpoint(&mut dst, &buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Io(_)
                        | CheckpointError::Corrupt(_)
                        | CheckpointError::BadCrc { .. }
                        | CheckpointError::BadMagic
                ),
                "cut at {cut}: unexpected {err}"
            );
            // A rejected load must leave the store untouched.
            assert_stores_equal(&dst, &store());
        }
    }

    #[test]
    fn cft2_bitflip_at_every_offset_never_misloads() {
        // Flip one byte at every position of a full CFT2 checkpoint: the
        // loader must reject it (CRC/footer/structure) or — only when the
        // flip lands in a field the format tolerates — load data identical
        // to what a clean load produces. A successful load of *different*
        // data would be a silent corruption.
        let src = store();
        let state = train_state(&src);
        let mut buf = Vec::new();
        save_checkpoint(&src, None, Some(&state), &mut buf).unwrap();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0xFF;
            let mut dst = store();
            match load_checkpoint(&mut dst, &bad[..]) {
                Err(_) => {}
                Ok(_) => {
                    assert_stores_equal(&dst, &src);
                    panic!("bitflip at {pos} was accepted — CRC failed to catch it");
                }
            }
        }
    }

    #[test]
    fn scalar_params_round_trip() {
        let mut src = ParamStore::new();
        src.add("s", Tensor::scalar(3.5));
        let buf = params_only(&src);
        let mut dst = ParamStore::new();
        dst.add("s", Tensor::scalar(0.0));
        load_params(&mut dst, &buf[..]).unwrap();
        assert_eq!(dst.get(crate::params::ParamId(0)).item(), 3.5);
    }

    #[test]
    fn atomic_save_round_trips_and_cleans_tmp() {
        let dir = cf_check::TempDir::new("ckpt_test");
        let path = dir.join("model.ckpt");
        let src = store();
        let state = train_state(&src);
        save_checkpoint_atomic(&src, None, Some(&state), &path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file left behind");
        let mut dst = store();
        let f = std::fs::File::open(&path).unwrap();
        let loaded = load_checkpoint(&mut dst, io::BufReader::new(f))
            .unwrap()
            .expect("state");
        assert_stores_equal(&src, &dst);
        assert_eq!(loaded.next_epoch, state.next_epoch);
        // A stale tmp from a previous crash must not block the next save.
        std::fs::write(tmp_path(&path), b"torn garbage").unwrap();
        save_checkpoint_atomic(&src, None, None, &path).unwrap();
        assert!(!tmp_path(&path).exists());
    }
}
