//! Checkpointing: small self-describing binary formats for
//! [`crate::params::ParamStore`] and full training state (no external
//! serialization crates needed).
//!
//! Two on-disk formats exist (all integers little-endian):
//!
//! **CFT1** (legacy, params only) — still read, no longer written:
//! ```text
//! magic "CFT1" | u32 n_params
//! per param: u32 name_len | name bytes | u32 rank | u32 dims… | f32 data…
//! ```
//!
//! **CFT2** (current) — sectioned, CRC-checked, optionally carrying the
//! full training state for bitwise resume:
//! ```text
//! magic "CFT2"
//! section*: u8 tag | u64 body_len | body | u32 crc32(body)
//! end:      u8 0xFF | u32 crc32(concatenated section CRCs)
//! ```
//! Section tags: `0x01` params (CFT1 body), `0x02` Adam moments + step,
//! `0x03` RNG state words, `0x04` train cursor (epoch / best / patience),
//! `0x05` config fingerprint, `0x06` best-validation params (CFT1 body).
//! The params section is mandatory; the five state sections are all
//! present or all absent. Every section is integrity-checked before
//! anything is committed to the receiving store, so a corrupt checkpoint
//! is rejected with a typed error naming the failed section and the store
//! is left untouched.
//!
//! Durability: [`save_checkpoint_atomic`] writes `<path>.tmp`, fsyncs the
//! file, renames it over `path` and fsyncs the parent directory — a crash
//! at any byte offset leaves either the old or the new checkpoint on
//! disk, never a torn one.

use crate::optim::AdamSnapshot;
use crate::params::ParamStore;
use crate::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC1: &[u8; 4] = b"CFT1";
const MAGIC2: &[u8; 4] = b"CFT2";

const TAG_PARAMS: u8 = 0x01;
const TAG_ADAM: u8 = 0x02;
const TAG_RNG: u8 = 0x03;
const TAG_TRAIN: u8 = 0x04;
const TAG_CONFIG: u8 = 0x05;
const TAG_BEST: u8 = 0x06;
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
// CRC32 (IEEE, polynomial 0xEDB88320) — in-tree, table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of a byte slice — the integrity check behind every
/// CFT2 section.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
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
/// typed `Corrupt` naming the section, never a panic.
struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Body {
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

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(n.checked_mul(4).ok_or_else(|| {
            CheckpointError::Corrupt(format!(
                "section {:?}: element count overflow",
                self.section
            ))
        })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn finish(self) -> Result<(), CheckpointError> {
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

    fn corrupt(&self, msg: impl std::fmt::Display) -> CheckpointError {
        CheckpointError::Corrupt(format!("section {:?}: {msg}", self.section))
    }
}

/// Reads and validates a shape header (`u32 rank | u32 dims…`) against the
/// caps, returning the dims and their checked element count.
fn read_shape(b: &mut Body<'_>, what: &str) -> Result<(Vec<usize>, usize), CheckpointError> {
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
// Params body (shared by CFT1, the CFT2 params section and best-params).
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
fn read_params_body(store: &mut ParamStore, b: &mut Body<'_>) -> Result<(), CheckpointError> {
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

fn read_adam_body(store: &ParamStore, b: &mut Body<'_>) -> Result<AdamSnapshot, CheckpointError> {
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

/// Writes a legacy CFT1 (params-only, no checksums) stream. Kept for
/// format-compatibility tests; new code should use [`save_checkpoint`] or
/// [`save_checkpoint_atomic`], which write CRC-protected CFT2.
pub fn save_params(store: &ParamStore, mut w: impl Write) -> io::Result<()> {
    w.write_all(MAGIC1)?;
    let mut body = Vec::new();
    write_params_body(store, &mut body);
    w.write_all(&body)
}

/// Loads a params-only view of a checkpoint (CFT1 or CFT2) into an
/// *identically structured* store: parameter count, names, and shapes must
/// match (the architecture is reconstructed from configuration, not from
/// the checkpoint). Any training state in a CFT2 stream is validated and
/// discarded.
pub fn load_params(store: &mut ParamStore, r: impl Read) -> Result<(), CheckpointError> {
    load_checkpoint(store, r).map(|_| ())
}

/// Writes a CFT2 checkpoint: parameters plus, when `state` is given, the
/// full training state needed for bitwise resume. Every section carries a
/// CRC32 and the stream ends with a footer checksum.
pub fn save_checkpoint(
    store: &ParamStore,
    state: Option<&TrainState>,
    mut w: impl Write,
) -> io::Result<()> {
    let mut sections: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut body = Vec::new();
    write_params_body(store, &mut body);
    sections.push((TAG_PARAMS, body));
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
        _ => "unknown",
    }
}

/// Reads `len` bytes in bounded chunks, so a corrupt length field cannot
/// reserve gigabytes up front — memory grows only as data actually arrives.
fn read_body(r: &mut impl Read, len: u64) -> Result<Vec<u8>, CheckpointError> {
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

/// Loads a checkpoint (CFT1 or CFT2) into an identically structured store
/// and returns its training state, if the stream carries one.
///
/// All-or-nothing: every section is read and validated (CRCs, footer,
/// names, shapes) before anything is committed, so a rejected checkpoint
/// leaves the store untouched.
pub fn load_checkpoint(
    store: &mut ParamStore,
    mut r: impl Read,
) -> Result<Option<TrainState>, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC1 {
        return load_cft1(store, r).map(|()| None);
    }
    if &magic != MAGIC2 {
        return Err(CheckpointError::BadMagic);
    }

    // Collect every section, CRC-checked, before parsing any of them.
    let mut bodies: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut crc_trail = Vec::new();
    loop {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let tag = tag[0];
        if tag == TAG_END {
            let mut footer = [0u8; 4];
            r.read_exact(&mut footer)?;
            if u32::from_le_bytes(footer) != crc32(&crc_trail) {
                return Err(CheckpointError::BadCrc { section: "footer" });
            }
            break;
        }
        if section_name(tag) == "unknown" {
            return Err(CheckpointError::Corrupt(format!(
                "unknown section tag 0x{tag:02x}"
            )));
        }
        if bodies.iter().any(|(t, _)| *t == tag) {
            return Err(CheckpointError::Corrupt(format!(
                "duplicate section {:?}",
                section_name(tag)
            )));
        }
        let mut len = [0u8; 8];
        r.read_exact(&mut len)?;
        let len = u64::from_le_bytes(len);
        if len > MAX_SECTION_LEN {
            return Err(CheckpointError::Corrupt(format!(
                "section {:?}: absurd length {len}",
                section_name(tag)
            )));
        }
        let body = read_body(&mut r, len)?;
        let mut crc = [0u8; 4];
        r.read_exact(&mut crc)?;
        if u32::from_le_bytes(crc) != crc32(&body) {
            return Err(CheckpointError::BadCrc {
                section: section_name(tag),
            });
        }
        crc_trail.extend_from_slice(&crc);
        bodies.push((tag, body));
    }

    let get = |tag: u8| bodies.iter().find(|(t, _)| *t == tag).map(|(_, b)| b);
    let params_body =
        get(TAG_PARAMS).ok_or_else(|| CheckpointError::Corrupt("missing params section".into()))?;

    // Stage everything; commit only after every section parsed cleanly.
    let mut staged = store.clone();
    let mut b = Body::new(params_body, "params");
    read_params_body(&mut staged, &mut b)?;
    b.finish()?;

    let state_tags = [TAG_ADAM, TAG_RNG, TAG_TRAIN, TAG_CONFIG];
    let present = state_tags.iter().filter(|&&t| get(t).is_some()).count();
    let state = match present {
        0 => {
            if get(TAG_BEST).is_some() {
                return Err(CheckpointError::Corrupt(
                    "best_params section without training state".into(),
                ));
            }
            None
        }
        4 => {
            let mut b = Body::new(get(TAG_ADAM).expect("present"), "adam");
            let adam = read_adam_body(&staged, &mut b)?;
            b.finish()?;

            let mut b = Body::new(get(TAG_RNG).expect("present"), "rng");
            let rng = [b.u64()?, b.u64()?, b.u64()?, b.u64()?];
            b.finish()?;

            let mut b = Body::new(get(TAG_TRAIN).expect("present"), "train");
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

            let mut b = Body::new(get(TAG_CONFIG).expect("present"), "config");
            let config_fingerprint = b.u64()?;
            b.finish()?;

            let best_params = match get(TAG_BEST) {
                Some(body) => {
                    let mut best = staged.clone();
                    let mut b = Body::new(body, "best_params");
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

    *store = staged;
    Ok(state)
}

/// The legacy CFT1 streaming reader (magic already consumed).
fn load_cft1(store: &mut ParamStore, mut r: impl Read) -> Result<(), CheckpointError> {
    let n = read_u32(&mut r)? as usize;
    if n != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {n} params, store has {}",
            store.len()
        )));
    }
    // Read into staging first so a mismatch never leaves the store half
    // overwritten.
    let mut staged: Vec<Tensor> = Vec::with_capacity(n);
    for (id, name, tensor) in store.iter() {
        let _ = id;
        let name_len = read_u32(&mut r)? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(CheckpointError::Corrupt(format!(
                "absurd name length {name_len}"
            )));
        }
        let mut name_buf = vec![0u8; name_len];
        r.read_exact(&mut name_buf)?;
        let ck_name = String::from_utf8(name_buf)
            .map_err(|_| CheckpointError::Corrupt("non-utf8 parameter name".into()))?;
        if ck_name != name {
            return Err(CheckpointError::Mismatch(format!(
                "expected param {name:?}, found {ck_name:?}"
            )));
        }
        let rank = read_u32(&mut r)? as usize;
        // Guard before the allocation below: a corrupt rank would otherwise
        // drive `Vec::with_capacity` into a multi-GB request and abort the
        // process instead of surfacing a typed error.
        if rank > MAX_RANK {
            return Err(CheckpointError::Corrupt(format!(
                "param {name:?}: absurd rank {rank} (max {MAX_RANK})"
            )));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d = read_u32(&mut r)? as usize;
            if d > MAX_DIM {
                return Err(CheckpointError::Corrupt(format!(
                    "param {name:?}: absurd dimension {d}"
                )));
            }
            dims.push(d);
        }
        if dims.as_slice() != tensor.shape().dims() {
            return Err(CheckpointError::Mismatch(format!(
                "param {name:?}: checkpoint shape {dims:?} vs store {:?}",
                tensor.shape().dims()
            )));
        }
        let numel: usize = dims.iter().product::<usize>().max(1);
        let numel = if dims.is_empty() { 1 } else { numel };
        let mut data = Vec::with_capacity(numel);
        let mut buf = [0u8; 4];
        for _ in 0..numel {
            r.read_exact(&mut buf)?;
            data.push(f32::from_le_bytes(buf));
        }
        staged.push(Tensor::new(dims, data));
    }
    for (i, t) in staged.into_iter().enumerate() {
        *store.get_mut(crate::params::ParamId(i)) = t;
    }
    Ok(())
}

fn read_u32(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
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

/// Writes a CFT2 checkpoint durably and atomically: the stream goes to
/// `<path>.tmp`, is fsynced, renamed over `path`, and the parent directory
/// is fsynced so the rename itself survives a power cut. A crash at any
/// byte offset leaves either the old checkpoint or the new one at `path`,
/// never a torn file; on error the temporary is removed and `path` is
/// untouched.
pub fn save_checkpoint_atomic(
    store: &ParamStore,
    state: Option<&TrainState>,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let result = (|| {
        let f = std::fs::File::create(&tmp)?;
        let mut w = io::BufWriter::new(f);
        save_checkpoint(store, state, &mut w)?;
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

/// Params-only [`save_checkpoint_atomic`] — the durable replacement for
/// writing a bare `save_params` stream straight to its final path.
pub fn save_params_atomic(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    save_checkpoint_atomic(store, None, path)
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
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
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
        save_checkpoint(&src, None, &mut buf).unwrap();
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
        save_checkpoint(&src, Some(&state), &mut buf).unwrap();

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
    fn rejects_shape_mismatch_without_corrupting() {
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
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
        save_checkpoint(&src, Some(&state), &mut buf).unwrap();
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
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.add("a", Tensor::zeros([2, 3]));
        other.add("c", Tensor::zeros([2]));
        let err = load_params(&mut other, &buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_stream() {
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut dst = store();
        assert!(load_params(&mut dst, &buf[..]).is_err());
    }

    /// Byte offset of param "a"'s rank field in a CFT1 checkpoint of
    /// `store()`: magic(4) + n(4) + name_len(4) + "a"(1).
    const RANK_OFFSET: usize = 13;

    #[test]
    fn rejects_absurd_rank_with_typed_error_not_oom() {
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        // Corrupt the rank field into a huge value; before the guard this
        // drove Vec::with_capacity into a multi-GB allocation.
        buf[RANK_OFFSET..RANK_OFFSET + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dst = store();
        let err = load_params(&mut dst, &buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_absurd_name_len_and_dims_with_typed_errors() {
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        // name_len field of param "a" sits right after magic + n_params.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_params(&mut store(), &bad[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        // A single dimension beyond MAX_DIM is Corrupt, not an allocation.
        let mut bad = buf;
        bad[RANK_OFFSET + 4..RANK_OFFSET + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_params(&mut store(), &bad[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_garbage_dims_as_mismatch() {
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        // Keep rank=2 but overwrite the first dim of "a" with garbage.
        buf[RANK_OFFSET + 4..RANK_OFFSET + 8].copy_from_slice(&0xDEAD_u32.to_le_bytes());
        let mut dst = store();
        let err = load_params(&mut dst, &buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        // No prefix of a valid CFT1 checkpoint may panic; every one must
        // yield a typed error (truncations land on Io, the final full
        // length on Ok).
        let src = store();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
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
        save_checkpoint(&src, Some(&state), &mut buf).unwrap();
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
        save_checkpoint(&src, Some(&state), &mut buf).unwrap();
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
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
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
        save_checkpoint_atomic(&src, Some(&state), &path).unwrap();
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
        save_checkpoint_atomic(&src, None, &path).unwrap();
        assert!(!tmp_path(&path).exists());
    }
}
