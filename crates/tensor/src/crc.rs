//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity check
//! behind every CFT2 checkpoint section and every CFKG1, CFCI1 and CFJ1
//! section or record in cf-kg.
//!
//! Three folds compute the same bits; the [`crate::simd`] probe picks the
//! fastest one the CPU has ([`crate::simd::CRC_TABLE`], `CRC_XMM`,
//! `CRC_ZMM`):
//! - a slicing-by-8 table, the portable path and the reference;
//! - PCLMULQDQ over eight 128-bit accumulators;
//! - VPCLMULQDQ over four 512-bit accumulators, the one that lets
//!   `MappedGraph::open` CRC a multi-hundred-MB store in tens of
//!   milliseconds.

use crate::simd::{CRC_XMM, CRC_ZMM};

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_T: [[u32; 256]; 8] = crc_tables();

/// Incremental CRC32: splitting the input anywhere across
/// [`update`](Crc::update) calls gives the same result as one call.
#[derive(Clone, Copy, Debug)]
pub struct Crc(u32);

impl Crc {
    /// A fresh CRC over zero bytes.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc(!0)
    }

    /// Folds `bytes` into the running CRC.
    pub fn update(&mut self, bytes: &[u8]) {
        // SAFETY: the probe reports a fold only after detecting its
        // features, and `simd::pin` refuses anything above the probe.
        self.0 = unsafe { update_with(crate::simd::tiers().crc, self.0, bytes) };
    }

    /// The CRC32 of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc::new();
    c.update(bytes);
    c.finish()
}

/// CRC state transition over `bytes` with the given fold tier; inputs below
/// `clmul::MIN_LEN` always take the table.
///
/// # Safety
/// `tier` must not exceed the fold the CPU supports (`simd` probe).
unsafe fn update_with(tier: u8, state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN {
        match tier {
            CRC_ZMM => return clmul::update_x512(state, bytes),
            CRC_XMM => return clmul::update_x128(state, bytes),
            _ => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    table_update(state, bytes)
}

/// Table-driven (slicing-by-8) CRC state transition — the portable path and
/// the reference the PCLMULQDQ paths must match bit for bit.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        crc = CRC_T[7][(lo & 0xFF) as usize]
            ^ CRC_T[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_T[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_T[4][(lo >> 24) as usize]
            ^ CRC_T[3][(hi & 0xFF) as usize]
            ^ CRC_T[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_T[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Carry-less-multiply CRC folding (x86_64 PCLMULQDQ), ~10× the table path.
///
/// Same polynomial, same stream, bitwise-identical result — this is purely a
/// throughput lever for `MappedGraph::open`, which must CRC every section of
/// a multi-hundred-MB store before the zero-copy casts are allowed.
///
/// Scheme (the reflected variant of Intel's CRC folding): eight 128-bit
/// accumulators sweep the input 128 bytes per step; each step multiplies an
/// accumulator by `x^1024 mod P` (carry-less) and XORs in the next 16 input
/// bytes, which preserves the value of the whole stream mod P. Because the
/// register holds bit-reflected polynomials, the low 64-bit half carries the
/// *high*-degree coefficients and folds by `x^(1024+64)`, the high half by
/// `x^1024`. The final <128-byte tail and the 128 accumulator bytes go
/// through the table path — no Barrett reduction needed, and the init/finish
/// XORs stay exactly where the table path puts them. The zmm fold is the
/// same scheme four lanes wide.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Below this, table overhead beats the SIMD setup.
    pub(super) const MIN_LEN: usize = 256;

    /// `x^n mod P` (P = 0x1_04C1_1DB7), coefficients of degree 31..0.
    const fn xn_mod_p(n: u32) -> u32 {
        let mut r: u32 = 1;
        let mut i = 0;
        while i < n {
            let hi = r & 0x8000_0000;
            r <<= 1;
            if hi != 0 {
                r ^= 0x04C1_1DB7;
            }
            i += 1;
        }
        r
    }

    /// Folding constant in PCLMULQDQ form: bit-reflected and shifted left
    /// one. In reflected bit order `rev128(clmul(u, v)) = rev64(u)·rev64(v)·x`
    /// and `rev64(rk(n)) = (x^n mod P)·x^31`, so multiplying by `rk(n)`
    /// advances a reflected half-register by `x^(n+32)` (mod P) — the +32 is
    /// why the constants below are 32 less than the fold distance.
    const fn rk(n: u32) -> i64 {
        ((xn_mod_p(n).reverse_bits() as u64) << 1) as i64
    }

    /// xmm path: eight accumulators sweep 128 bytes per step, so each folds
    /// across 1024 bits: the low half advances by x^(1024+64), the high by
    /// x^1024.
    const RK_LO: i64 = rk(1024 + 64 - 32);
    const RK_HI: i64 = rk(1024 - 32);

    /// zmm path: four 512-bit accumulators sweep 256 bytes per step; each
    /// 128-bit lane folds across 2048 bits.
    const ZK_LO: i64 = rk(2048 + 64 - 32);
    const ZK_HI: i64 = rk(2048 - 32);

    /// CRC state transition over `bytes` (len ≥ [`MIN_LEN`]), bitwise identical to
    /// [`super::table_update`].
    ///
    /// # Safety
    /// Caller must ensure pclmulqdq and sse2 are available.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn update_x128(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN);
        let k = _mm_set_epi64x(RK_HI, RK_LO);
        let p = bytes.as_ptr();
        // First 128 bytes; the running state XORs into the first 4 stream
        // bytes (exactly where the table recurrence applies it). The fixed
        // 0..8 loops fully unroll and the array lives in xmm registers.
        let mut x = [_mm_setzero_si128(); 8];
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = _mm_loadu_si128(p.add(16 * i) as *const __m128i);
        }
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let mut off = 128usize;
        while off + 128 <= bytes.len() {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128(*xi, k, 0x00),
                        _mm_clmulepi64_si128(*xi, k, 0x11),
                    ),
                    _mm_loadu_si128(p.add(off + 16 * i) as *const __m128i),
                );
            }
            off += 128;
        }
        // The accumulators are stream-equivalent to 128 literal bytes in
        // front of the unread tail; finish both through the table.
        let mut acc = [0u8; 128];
        for (i, xi) in x.iter().enumerate() {
            _mm_storeu_si128(acc.as_mut_ptr().add(16 * i) as *mut __m128i, *xi);
        }
        let s = super::table_update(0, &acc);
        super::table_update(s, &bytes[off..])
    }

    /// Same contract as [`update_x128`], but VPCLMULQDQ on 512-bit vectors:
    /// each instruction runs four independent 64×64 carry-less multiplies,
    /// one per 128-bit lane.
    ///
    /// # Safety
    /// Caller must ensure vpclmulqdq and avx512f are available.
    #[target_feature(enable = "vpclmulqdq", enable = "avx512f")]
    pub(super) unsafe fn update_x512(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN);
        // Per-128-lane constant pair [lo = ZK_LO, hi = ZK_HI].
        let k = _mm512_set4_epi64(ZK_HI, ZK_LO, ZK_HI, ZK_LO);
        let p = bytes.as_ptr();
        let mut z = [_mm512_setzero_si512(); 4];
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = _mm512_loadu_si512(p.add(64 * i) as *const _);
        }
        z[0] = _mm512_xor_si512(
            z[0],
            _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
        );
        let mut off = 256usize;
        while off + 256 <= bytes.len() {
            for (i, zi) in z.iter_mut().enumerate() {
                *zi = _mm512_xor_si512(
                    _mm512_xor_si512(
                        _mm512_clmulepi64_epi128(*zi, k, 0x00),
                        _mm512_clmulepi64_epi128(*zi, k, 0x11),
                    ),
                    _mm512_loadu_si512(p.add(off + 64 * i) as *const _),
                );
            }
            off += 256;
        }
        let mut acc = [0u8; 256];
        for (i, zi) in z.iter().enumerate() {
            _mm512_storeu_si512(acc.as_mut_ptr().add(64 * i) as *mut _, *zi);
        }
        let s = super::table_update(0, &acc);
        super::table_update(s, &bytes[off..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every fold this host supports, table first.
    fn folds() -> std::ops::RangeInclusive<u8> {
        crate::simd::CRC_TABLE..=crate::simd::tiers().crc
    }

    /// One-shot CRC32 through a chosen fold.
    fn crc_with(fold: u8, bytes: &[u8]) -> u32 {
        // SAFETY: `folds()` stops at the probed fold.
        !unsafe { update_with(fold, !0, bytes) }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value, plus vectors long enough to
        // reach the carry-less folds (values from zlib's crc32).
        let ramp: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        for fold in folds() {
            assert_eq!(crc_with(fold, b"123456789"), 0xCBF4_3926, "fold {fold}");
            assert_eq!(crc_with(fold, b""), 0, "fold {fold}");
            assert_eq!(crc_with(fold, &[0u8; 4096]), 0xC71C_0011, "fold {fold}");
            assert_eq!(crc_with(fold, &ramp), 0xA291_2082, "fold {fold}");
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc_matches_bytewise_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 37 + 11) as u8).collect();
            for fold in folds() {
                assert_eq!(
                    crc_with(fold, &data),
                    reference(&data),
                    "len {len} fold {fold}"
                );
            }
            assert_eq!(crc32(&data), reference(&data), "len {len}");
        }
    }

    /// Every carry-less fold must agree with the table path on every length
    /// around its thresholds, at every start alignment, and under arbitrary
    /// streaming splits (state handoff mid-buffer). On hosts without
    /// pclmulqdq only the table runs and this degrades to a
    /// self-consistency check.
    #[test]
    fn crc_simd_matches_table_path() {
        let mut data = vec![0u8; 5000];
        let mut x = 0x1234_5678_9abc_def0u64;
        for b in data.iter_mut() {
            // xorshift so the buffer exercises all byte values
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        for fold in folds() {
            for start in [0usize, 1, 3, 7, 8, 15] {
                for len in [
                    0usize, 1, 63, 64, 127, 128, 129, 255, 256, 257, 320, 1024, 4096,
                ] {
                    let slice = &data[start..start + len];
                    // SAFETY: `folds()` stops at the probed fold.
                    let got = unsafe { update_with(fold, 0x5A5A_5A5A, slice) };
                    assert_eq!(
                        got,
                        table_update(0x5A5A_5A5A, slice),
                        "fold {fold} start {start} len {len}"
                    );
                }
            }
            // Streaming: splitting the buffer anywhere must not change the CRC.
            let whole = crc_with(fold, &data);
            for split in [1usize, 64, 100, 255, 256, 300, 2048, 4999] {
                // SAFETY: as above.
                let state = unsafe { update_with(fold, !0, &data[..split]) };
                let state = unsafe { update_with(fold, state, &data[split..]) };
                assert_eq!(!state, whole, "fold {fold} split {split}");
            }
        }
        let mut c = Crc::new();
        c.update(&data[..300]);
        c.update(&data[300..]);
        assert_eq!(c.finish(), crc32(&data));
    }
}
