//! The kernel ladder's hardware tiers and the CPU probe that picks one.
//!
//! The portable kernels in [`crate::kernels`] index an expanded 256-entry
//! product table one byte at a time — every product is a load, and the
//! load ports are the ceiling. The split-nibble identity
//! `c·b = T_lo[b & 15] ^ T_hi[b >> 4]` has a second reading: the two
//! 16-entry tables fit in one vector register each, and a 16-lane byte
//! shuffle (`PSHUFB` on x86, `TBL` on aarch64) performs *sixteen* table
//! lookups in one instruction with no memory traffic at all. That is the
//! ISA-L/Plank formulation, and it turns the multiply-accumulate from a
//! load-bound loop into a handful of register-only ops per 16/32 bytes.
//!
//! The ladder, best first; [`level`] probes the CPU once per process and
//! every dispatcher in [`crate::kernels`] runs the tier it found:
//!
//! * **x86_64 GFNI** — `GF2P8MULB` multiplies 32 byte pairs directly in
//!   GF(2⁸) over the AES polynomial 0x11B — which is exactly this
//!   field's polynomial — so the whole split-nibble apparatus collapses
//!   to one instruction per 32 products: no tables, no shifts, no masks.
//! * **x86_64 AVX-512VBMI** — `VPERMB` is a *full* 64-lane byte permute
//!   (unlike `VPSHUFB` it crosses 128-bit lanes), so the two 16-entry
//!   nibble tables broadcast into 512-bit registers serve 64 lookups per
//!   instruction.
//! * **x86_64 AVX2** — 32 lanes per op (`_mm256_shuffle_epi8` shuffles
//!   within each 128-bit half, which is exactly right: the same 16-entry
//!   table is broadcast to both halves), main loop unrolled to 64 bytes.
//! * **x86_64 SSSE3** — the 16-lane `_mm_shuffle_epi8` version for CPUs
//!   without AVX2 (SSSE3 is ~2006-era and effectively universal).
//! * **aarch64 NEON** — `vqtbl1q_u8` against the same two tables.
//! * **Portable** — the safe-Rust table loops, for hosts with none of the
//!   above. A fallback, kept correct rather than tuned.
//!
//! The probe prefers GFNI over AVX-512VBMI: both exist on the same
//! cores (Ice Lake on), and one true multiply per vector beats two
//! permutes plus shift/mask — without the 512-bit license throttling.
//! Every tier the host supports (not just the preferred one) stays
//! reachable through the `*_at` entry points so the differential suite
//! can pin each tier against the scalar reference.
//!
//! CRC32C is not field math, so it maps onto the ladder differently. The
//! three top x86_64 tiers (GFNI, AVX-512VBMI, AVX2) run SSE4.2's `crc32`
//! instruction, which computes exactly this polynomial: one 8-byte word
//! per `_mm_crc32_u64`, a `_mm_crc32_u8` per tail byte, one dependent
//! chain. Their gates therefore also require `sse4.2`, which every AVX2
//! part has. SSSE3, NEON and portable run the scalar table.
//!
//! Every tier is byte-identical to the scalar reference (the differential
//! suite in `tests/kernel_differential.rs` runs all of its randomized
//! cases on each tier the host supports); tails shorter than one vector
//! go through the nibble tables byte by byte, so odd lengths and
//! unaligned slices cost nothing in correctness. All loads/stores use the
//! unaligned forms — callers hand us arbitrary sub-slices.
//!
//! This is the one module of the crate allowed to contain `unsafe` (the
//! crate root denies it everywhere else): the intrinsics live in the
//! private `x86` / `neon` submodules, and the only way in is the safe
//! `*_at` functions below, which check the tier against the CPU and the
//! slice lengths before their single `match`.

use crate::kernels::{
    crc32c_scalar, gf_axpy_portable, gf_scale_portable, xor_into_wide, NibbleTables,
};

/// One rung of the kernel ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Safe-Rust table loops; runs anywhere.
    Portable,
    /// x86_64 SSSE3: 16-lane `PSHUFB`.
    Ssse3,
    /// x86_64 AVX2: 32-lane `VPSHUFB`.
    Avx2,
    /// x86_64 AVX-512VBMI: 64-lane `VPERMB` nibble lookups.
    Avx512Vbmi,
    /// x86_64 GFNI: 32-lane `GF2P8MULB` true-field multiply.
    Gfni,
    /// aarch64 NEON: 16-lane `TBL`.
    Neon,
}

impl SimdLevel {
    /// Every tier, in declaration order; filter with [`tier_supported`]
    /// to get the ones this host can run.
    pub const ALL: [SimdLevel; 6] = [
        SimdLevel::Portable,
        SimdLevel::Ssse3,
        SimdLevel::Avx2,
        SimdLevel::Avx512Vbmi,
        SimdLevel::Gfni,
        SimdLevel::Neon,
    ];
}

/// The tier every dispatcher runs: the best one the CPU supports, probed
/// on first use and cached for the life of the process.
pub fn level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        // Probe order is preference order.
        [
            SimdLevel::Gfni,
            SimdLevel::Avx512Vbmi,
            SimdLevel::Avx2,
            SimdLevel::Ssse3,
            SimdLevel::Neon,
        ]
        .into_iter()
        .find(|&tier| tier_supported(tier))
        .unwrap_or(SimdLevel::Portable)
    })
}

/// Whether this host can execute `tier`, independent of which tier the
/// probe *prefers*. The `*_at` entry points assert this, so differential
/// tests can exercise every supported tier, not just [`level`]'s pick.
pub fn tier_supported(tier: SimdLevel) -> bool {
    // The three top x86_64 tiers run CRC32C on SSE4.2's `crc32`.
    #[cfg(target_arch = "x86_64")]
    let sse42 = || std::arch::is_x86_feature_detected!("sse4.2");
    match tier {
        SimdLevel::Portable => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2") && sse42(),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Vbmi => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vbmi")
                && sse42()
        }
        // The GFNI kernels use the VEX-encoded 256-bit forms, which need
        // AVX2 alongside the GFNI bit (pre-AVX hosts expose only the
        // legacy-SSE encoding).
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Gfni => {
            std::arch::is_x86_feature_detected!("gfni")
                && std::arch::is_x86_feature_detected!("avx2")
                && sse42()
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        _ => false,
    }
}

/// The check that makes the `*_at` functions safe to call with any tier.
fn assert_supported(tier: SimdLevel) {
    assert!(
        tier_supported(tier),
        "tier {tier:?} unsupported on this CPU"
    );
}

// ---------------------------------------------------------------------------
// Tier-pinned entry points: the one `match` between a dispatcher in
// `crate::kernels` and its inner loop
// ---------------------------------------------------------------------------

/// XOR `src` into `dst` on a specific tier.
///
/// # Panics
/// Panics if the slices differ in length or the host cannot execute
/// `tier` (see [`tier_supported`]).
pub fn xor_into_at(tier: SimdLevel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor of blocks with unequal lengths");
    assert_supported(tier);
    // SAFETY: every hardware arm needs (a) the CPU features its kernel is
    // compiled for — `assert_supported(tier)` just passed, and GFNI's
    // gate includes AVX2 — and (b) `dst.len() == src.len()`, asserted above.
    match tier {
        // XOR needs no field math, so GFNI borrows the AVX2 loop.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Gfni => unsafe { x86::xor_avx2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Vbmi => unsafe { x86::xor_avx512(dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => unsafe { x86::xor_sse2(dst, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::xor_neon(dst, src) },
        _ => xor_into_wide(dst, src),
    }
}

/// `acc ^= coef · src` over GF(2⁸) on a specific tier.
///
/// # Panics
/// Panics if the slices differ in length or the host cannot execute
/// `tier` (see [`tier_supported`]).
pub fn gf_axpy_at(tier: SimdLevel, acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    assert_supported(tier);
    if coef == 0 {
        return;
    }
    if coef == 1 {
        xor_into_at(tier, acc, src);
        return;
    }
    // SAFETY: as in `xor_into_at` — tier support and equal lengths were
    // asserted above, which is all the hardware kernels require.
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Gfni => unsafe { x86::axpy_gfni(acc, coef, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Vbmi => unsafe { x86::axpy_vbmi(acc, &NibbleTables::new(coef), src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(acc, &NibbleTables::new(coef), src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => unsafe { x86::axpy_ssse3(acc, &NibbleTables::new(coef), src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::axpy_neon(acc, &NibbleTables::new(coef), src) },
        _ => gf_axpy_portable(acc, coef, src),
    }
}

/// In-place multiply of `block` by field scalar `x` on a specific tier.
///
/// # Panics
/// Panics if the host cannot execute `tier` (see [`tier_supported`]).
pub fn gf_scale_at(tier: SimdLevel, block: &mut [u8], x: u8) {
    assert_supported(tier);
    if x == 1 {
        return;
    }
    if x == 0 {
        block.fill(0);
        return;
    }
    // SAFETY: tier support was asserted above; the scale kernels take a
    // single slice, so there is no length relation to uphold.
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Gfni => unsafe { x86::scale_gfni(block, x) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Vbmi => unsafe { x86::scale_vbmi(block, &NibbleTables::new(x)) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::scale_avx2(block, &NibbleTables::new(x)) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => unsafe { x86::scale_ssse3(block, &NibbleTables::new(x)) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::scale_neon(block, &NibbleTables::new(x)) },
        _ => gf_scale_portable(block, x),
    }
}

/// Fused multiply-accumulate of several sources on a specific tier:
/// `acc ^= Σ coefᵢ·srcᵢ`. On the tiers with a two-source kernel the live
/// sources fold in pairs, so the destination round-trips memory half as
/// often as per-source application and each pass keeps two independent
/// multiply chains in flight; the other tiers apply one source at a time.
///
/// # Panics
/// Panics if any source's length differs from `acc`'s or the host cannot
/// execute `tier` (see [`tier_supported`]).
pub fn gf_axpy_multi_at(tier: SimdLevel, acc: &mut [u8], srcs: &[(u8, &[u8])]) {
    for &(_, src) in srcs {
        assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    }
    assert_supported(tier);
    // Zero coefficients contribute nothing; pairing only live sources
    // keeps the fused kernels from spending a lane on them.
    let mut live = srcs.iter().copied().filter(|&(c, _)| c != 0);
    while let Some((c0, s0)) = live.next() {
        let Some((c1, s1)) = live.next() else {
            gf_axpy_at(tier, acc, c0, s0);
            break;
        };
        // SAFETY: tier support and every source's length were asserted
        // above, which is all the two-source kernels require.
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Gfni => unsafe { x86::axpy2_gfni(acc, c0, s0, c1, s1) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512Vbmi => unsafe {
                x86::axpy2_vbmi(acc, &NibbleTables::new(c0), s0, &NibbleTables::new(c1), s1)
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe {
                x86::axpy2_avx2(acc, &NibbleTables::new(c0), s0, &NibbleTables::new(c1), s1)
            },
            _ => {
                gf_axpy_at(tier, acc, c0, s0);
                gf_axpy_at(tier, acc, c1, s1);
            }
        }
    }
}

/// CRC32C digest of `data` on a specific tier.
///
/// # Panics
/// Panics if the host cannot execute `tier` (see [`tier_supported`]).
pub fn crc32c_at(tier: SimdLevel, data: &[u8]) -> u32 {
    assert_supported(tier);
    // SAFETY: tier support was asserted above, and the gates of these
    // three tiers include SSE4.2; the kernel takes a single slice, so
    // there is no length relation to uphold.
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512Vbmi | SimdLevel::Gfni => unsafe {
            x86::crc32c_sse42(data)
        },
        _ => crc32c_scalar(data),
    }
}

/// Per-byte tail fallback shared by all tiers: finish `acc[i] ^= c·src[i]`
/// through the nibble tables.
#[inline]
fn axpy_tail(acc: &mut [u8], nt: &NibbleTables, src: &[u8]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a ^= nt.mul(s);
    }
}

#[inline]
fn scale_tail(block: &mut [u8], nt: &NibbleTables) {
    for b in block.iter_mut() {
        *b = nt.mul(*b);
    }
}

// ---------------------------------------------------------------------------
// x86_64: SSSE3 PSHUFB, AVX2 VPSHUFB, AVX-512VBMI VPERMB, GFNI GF2P8MULB
// ---------------------------------------------------------------------------

/// # Safety
/// Every `pub unsafe fn` here has the same two-part contract, which the
/// `*_at` callers establish before their `match`: the CPU supports the
/// features named in the function's `#[target_feature]` (SSE2, the
/// x86_64 baseline, where there is none), and all slices passed to one
/// call have the same length — the loops index the sources by the
/// destination's length through raw pointers.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{axpy_tail, scale_tail};
    use crate::kernels::NibbleTables;
    use std::arch::x86_64::*;

    /// One 16-lane product: `T_lo[v & 15] ^ T_hi[v >> 4]` via two PSHUFBs.
    /// Indices are masked to 0..15, so the PSHUFB high-bit-clears-lane
    /// rule never triggers.
    #[inline(always)]
    unsafe fn mul16(v: __m128i, lo_tbl: __m128i, hi_tbl: __m128i, mask: __m128i) -> __m128i {
        let lo = _mm_and_si128(v, mask);
        // Byte-wise >>4 does not exist; shift 64-bit lanes and re-mask.
        let hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi))
    }

    /// One 32-lane product. VPSHUFB shuffles within each 128-bit half, so
    /// broadcasting the 16-entry table to both halves gives the correct
    /// per-byte lookup across all 32 lanes.
    #[inline(always)]
    unsafe fn mul32(v: __m256i, lo_tbl: __m256i, hi_tbl: __m256i, mask: __m256i) -> __m256i {
        let lo = _mm256_and_si256(v, mask);
        let hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_tbl, lo),
            _mm256_shuffle_epi8(hi_tbl, hi),
        )
    }

    #[target_feature(enable = "ssse3")]
    pub unsafe fn axpy_ssse3(acc: &mut [u8], nt: &NibbleTables, src: &[u8]) {
        let lo_tbl = _mm_loadu_si128(nt.lo.as_ptr() as *const __m128i);
        let hi_tbl = _mm_loadu_si128(nt.hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = acc.len() / 16 * 16;
        let (a, s) = (acc.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_si128(s.add(i) as *const __m128i);
            let d = _mm_loadu_si128(a.add(i) as *const __m128i);
            let p = mul16(v, lo_tbl, hi_tbl, mask);
            _mm_storeu_si128(a.add(i) as *mut __m128i, _mm_xor_si128(d, p));
            i += 16;
        }
        axpy_tail(&mut acc[n..], nt, &src[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(acc: &mut [u8], nt: &NibbleTables, src: &[u8]) {
        let lo128 = _mm_loadu_si128(nt.lo.as_ptr() as *const __m128i);
        let hi128 = _mm_loadu_si128(nt.hi.as_ptr() as *const __m128i);
        let lo_tbl = _mm256_broadcastsi128_si256(lo128);
        let hi_tbl = _mm256_broadcastsi128_si256(hi128);
        let mask = _mm256_set1_epi8(0x0F);
        let (a, s) = (acc.as_mut_ptr(), src.as_ptr());
        // 64-byte main loop: two independent shuffle chains in flight.
        let n64 = acc.len() / 64 * 64;
        let mut i = 0;
        while i < n64 {
            let v0 = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(s.add(i + 32) as *const __m256i);
            let d0 = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let d1 = _mm256_loadu_si256(a.add(i + 32) as *const __m256i);
            let p0 = mul32(v0, lo_tbl, hi_tbl, mask);
            let p1 = mul32(v1, lo_tbl, hi_tbl, mask);
            _mm256_storeu_si256(a.add(i) as *mut __m256i, _mm256_xor_si256(d0, p0));
            _mm256_storeu_si256(a.add(i + 32) as *mut __m256i, _mm256_xor_si256(d1, p1));
            i += 64;
        }
        let n32 = acc.len() / 32 * 32;
        while i < n32 {
            let v = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let d = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let p = mul32(v, lo_tbl, hi_tbl, mask);
            _mm256_storeu_si256(a.add(i) as *mut __m256i, _mm256_xor_si256(d, p));
            i += 32;
        }
        axpy_tail(&mut acc[n32..], nt, &src[n32..]);
    }

    /// Two-source fused AVX2 axpy: one destination round trip per pair.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy2_avx2(
        acc: &mut [u8],
        nt0: &NibbleTables,
        src0: &[u8],
        nt1: &NibbleTables,
        src1: &[u8],
    ) {
        let lo0 = _mm256_broadcastsi128_si256(_mm_loadu_si128(nt0.lo.as_ptr() as *const __m128i));
        let hi0 = _mm256_broadcastsi128_si256(_mm_loadu_si128(nt0.hi.as_ptr() as *const __m128i));
        let lo1 = _mm256_broadcastsi128_si256(_mm_loadu_si128(nt1.lo.as_ptr() as *const __m128i));
        let hi1 = _mm256_broadcastsi128_si256(_mm_loadu_si128(nt1.hi.as_ptr() as *const __m128i));
        let mask = _mm256_set1_epi8(0x0F);
        let n32 = acc.len() / 32 * 32;
        let (a, s0, s1) = (acc.as_mut_ptr(), src0.as_ptr(), src1.as_ptr());
        let mut i = 0;
        while i < n32 {
            let v0 = _mm256_loadu_si256(s0.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(s1.add(i) as *const __m256i);
            let d = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let p0 = mul32(v0, lo0, hi0, mask);
            let p1 = mul32(v1, lo1, hi1, mask);
            let x = _mm256_xor_si256(d, _mm256_xor_si256(p0, p1));
            _mm256_storeu_si256(a.add(i) as *mut __m256i, x);
            i += 32;
        }
        axpy_tail(&mut acc[n32..], nt0, &src0[n32..]);
        axpy_tail(&mut acc[n32..], nt1, &src1[n32..]);
    }

    #[target_feature(enable = "ssse3")]
    pub unsafe fn scale_ssse3(block: &mut [u8], nt: &NibbleTables) {
        let lo_tbl = _mm_loadu_si128(nt.lo.as_ptr() as *const __m128i);
        let hi_tbl = _mm_loadu_si128(nt.hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = block.len() / 16 * 16;
        let b = block.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_si128(b.add(i) as *const __m128i);
            _mm_storeu_si128(b.add(i) as *mut __m128i, mul16(v, lo_tbl, hi_tbl, mask));
            i += 16;
        }
        scale_tail(&mut block[n..], nt);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_avx2(block: &mut [u8], nt: &NibbleTables) {
        let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(nt.lo.as_ptr() as *const __m128i));
        let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(nt.hi.as_ptr() as *const __m128i));
        let mask = _mm256_set1_epi8(0x0F);
        let n = block.len() / 32 * 32;
        let b = block.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v = _mm256_loadu_si256(b.add(i) as *const __m256i);
            _mm256_storeu_si256(b.add(i) as *mut __m256i, mul32(v, lo_tbl, hi_tbl, mask));
            i += 32;
        }
        scale_tail(&mut block[n..], nt);
    }

    /// AVX2 XOR, 64 bytes per iteration.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_avx2(dst: &mut [u8], src: &[u8]) {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let n64 = dst.len() / 64 * 64;
        let mut i = 0;
        while i < n64 {
            let a0 = _mm256_loadu_si256(d.add(i) as *const __m256i);
            let b0 = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let a1 = _mm256_loadu_si256(d.add(i + 32) as *const __m256i);
            let b1 = _mm256_loadu_si256(s.add(i + 32) as *const __m256i);
            _mm256_storeu_si256(d.add(i) as *mut __m256i, _mm256_xor_si256(a0, b0));
            _mm256_storeu_si256(d.add(i + 32) as *mut __m256i, _mm256_xor_si256(a1, b1));
            i += 64;
        }
        for (db, sb) in dst[n64..].iter_mut().zip(&src[n64..]) {
            *db ^= *sb;
        }
    }

    // -- GFNI: true field multiply ---------------------------------------
    //
    // `GF2P8MULB` multiplies byte lanes in GF(2⁸) over x⁸+x⁴+x³+x+1
    // (0x11B) — exactly this crate's polynomial — so the coefficient
    // broadcasts into one register and every 32 products cost one
    // instruction: no nibble tables, no shifts, no masks.

    #[target_feature(enable = "gfni,avx2")]
    pub unsafe fn axpy_gfni(acc: &mut [u8], coef: u8, src: &[u8]) {
        let c = _mm256_set1_epi8(coef as i8);
        let (a, s) = (acc.as_mut_ptr(), src.as_ptr());
        // 64-byte main loop: two independent multiply chains in flight.
        let n64 = acc.len() / 64 * 64;
        let mut i = 0;
        while i < n64 {
            let v0 = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(s.add(i + 32) as *const __m256i);
            let d0 = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let d1 = _mm256_loadu_si256(a.add(i + 32) as *const __m256i);
            let p0 = _mm256_gf2p8mul_epi8(v0, c);
            let p1 = _mm256_gf2p8mul_epi8(v1, c);
            _mm256_storeu_si256(a.add(i) as *mut __m256i, _mm256_xor_si256(d0, p0));
            _mm256_storeu_si256(a.add(i + 32) as *mut __m256i, _mm256_xor_si256(d1, p1));
            i += 64;
        }
        let n32 = acc.len() / 32 * 32;
        while i < n32 {
            let v = _mm256_loadu_si256(s.add(i) as *const __m256i);
            let d = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let p = _mm256_gf2p8mul_epi8(v, c);
            _mm256_storeu_si256(a.add(i) as *mut __m256i, _mm256_xor_si256(d, p));
            i += 32;
        }
        if n32 < acc.len() {
            // Tables are built only when a sub-vector tail exists.
            axpy_tail(&mut acc[n32..], &NibbleTables::new(coef), &src[n32..]);
        }
    }

    /// Two-source fused GFNI axpy: one destination round trip per pair.
    #[target_feature(enable = "gfni,avx2")]
    pub unsafe fn axpy2_gfni(acc: &mut [u8], c0: u8, src0: &[u8], c1: u8, src1: &[u8]) {
        let cv0 = _mm256_set1_epi8(c0 as i8);
        let cv1 = _mm256_set1_epi8(c1 as i8);
        let n32 = acc.len() / 32 * 32;
        let (a, s0, s1) = (acc.as_mut_ptr(), src0.as_ptr(), src1.as_ptr());
        let mut i = 0;
        while i < n32 {
            let v0 = _mm256_loadu_si256(s0.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(s1.add(i) as *const __m256i);
            let d = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let p0 = _mm256_gf2p8mul_epi8(v0, cv0);
            let p1 = _mm256_gf2p8mul_epi8(v1, cv1);
            let x = _mm256_xor_si256(d, _mm256_xor_si256(p0, p1));
            _mm256_storeu_si256(a.add(i) as *mut __m256i, x);
            i += 32;
        }
        if n32 < acc.len() {
            axpy_tail(&mut acc[n32..], &NibbleTables::new(c0), &src0[n32..]);
            axpy_tail(&mut acc[n32..], &NibbleTables::new(c1), &src1[n32..]);
        }
    }

    #[target_feature(enable = "gfni,avx2")]
    pub unsafe fn scale_gfni(block: &mut [u8], x: u8) {
        let c = _mm256_set1_epi8(x as i8);
        let n = block.len() / 32 * 32;
        let b = block.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v = _mm256_loadu_si256(b.add(i) as *const __m256i);
            _mm256_storeu_si256(b.add(i) as *mut __m256i, _mm256_gf2p8mul_epi8(v, c));
            i += 32;
        }
        if n < block.len() {
            scale_tail(&mut block[n..], &NibbleTables::new(x));
        }
    }

    // -- AVX-512VBMI: 64-lane full-register byte permute -----------------
    //
    // `VPERMB` permutes across the whole 512-bit register (only the low 6
    // index bits matter), so broadcasting each 16-entry nibble table to
    // all four 128-bit quarters makes `table[idx & 15]` correct for all
    // 64 lanes in one instruction.

    /// One 64-lane product: `T_lo[v & 15] ^ T_hi[v >> 4]` via two VPERMBs.
    #[inline(always)]
    unsafe fn mul64(v: __m512i, lo_tbl: __m512i, hi_tbl: __m512i, mask: __m512i) -> __m512i {
        let lo = _mm512_and_si512(v, mask);
        let hi = _mm512_and_si512(_mm512_srli_epi64(v, 4), mask);
        _mm512_xor_si512(
            _mm512_permutexvar_epi8(lo, lo_tbl),
            _mm512_permutexvar_epi8(hi, hi_tbl),
        )
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub unsafe fn axpy_vbmi(acc: &mut [u8], nt: &NibbleTables, src: &[u8]) {
        let lo_tbl = _mm512_broadcast_i32x4(_mm_loadu_si128(nt.lo.as_ptr() as *const __m128i));
        let hi_tbl = _mm512_broadcast_i32x4(_mm_loadu_si128(nt.hi.as_ptr() as *const __m128i));
        let mask = _mm512_set1_epi8(0x0F);
        let (a, s) = (acc.as_mut_ptr(), src.as_ptr());
        // 128-byte main loop: two independent permute chains in flight.
        let n128 = acc.len() / 128 * 128;
        let mut i = 0;
        while i < n128 {
            let v0 = _mm512_loadu_si512(s.add(i) as *const __m512i);
            let v1 = _mm512_loadu_si512(s.add(i + 64) as *const __m512i);
            let d0 = _mm512_loadu_si512(a.add(i) as *const __m512i);
            let d1 = _mm512_loadu_si512(a.add(i + 64) as *const __m512i);
            let p0 = mul64(v0, lo_tbl, hi_tbl, mask);
            let p1 = mul64(v1, lo_tbl, hi_tbl, mask);
            _mm512_storeu_si512(a.add(i) as *mut __m512i, _mm512_xor_si512(d0, p0));
            _mm512_storeu_si512(a.add(i + 64) as *mut __m512i, _mm512_xor_si512(d1, p1));
            i += 128;
        }
        let n64 = acc.len() / 64 * 64;
        while i < n64 {
            let v = _mm512_loadu_si512(s.add(i) as *const __m512i);
            let d = _mm512_loadu_si512(a.add(i) as *const __m512i);
            let p = mul64(v, lo_tbl, hi_tbl, mask);
            _mm512_storeu_si512(a.add(i) as *mut __m512i, _mm512_xor_si512(d, p));
            i += 64;
        }
        axpy_tail(&mut acc[n64..], nt, &src[n64..]);
    }

    /// Two-source fused VBMI axpy: one destination round trip per pair.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub unsafe fn axpy2_vbmi(
        acc: &mut [u8],
        nt0: &NibbleTables,
        src0: &[u8],
        nt1: &NibbleTables,
        src1: &[u8],
    ) {
        let lo0 = _mm512_broadcast_i32x4(_mm_loadu_si128(nt0.lo.as_ptr() as *const __m128i));
        let hi0 = _mm512_broadcast_i32x4(_mm_loadu_si128(nt0.hi.as_ptr() as *const __m128i));
        let lo1 = _mm512_broadcast_i32x4(_mm_loadu_si128(nt1.lo.as_ptr() as *const __m128i));
        let hi1 = _mm512_broadcast_i32x4(_mm_loadu_si128(nt1.hi.as_ptr() as *const __m128i));
        let mask = _mm512_set1_epi8(0x0F);
        let n64 = acc.len() / 64 * 64;
        let (a, s0, s1) = (acc.as_mut_ptr(), src0.as_ptr(), src1.as_ptr());
        let mut i = 0;
        while i < n64 {
            let v0 = _mm512_loadu_si512(s0.add(i) as *const __m512i);
            let v1 = _mm512_loadu_si512(s1.add(i) as *const __m512i);
            let d = _mm512_loadu_si512(a.add(i) as *const __m512i);
            let p0 = mul64(v0, lo0, hi0, mask);
            let p1 = mul64(v1, lo1, hi1, mask);
            let x = _mm512_xor_si512(d, _mm512_xor_si512(p0, p1));
            _mm512_storeu_si512(a.add(i) as *mut __m512i, x);
            i += 64;
        }
        axpy_tail(&mut acc[n64..], nt0, &src0[n64..]);
        axpy_tail(&mut acc[n64..], nt1, &src1[n64..]);
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub unsafe fn scale_vbmi(block: &mut [u8], nt: &NibbleTables) {
        let lo_tbl = _mm512_broadcast_i32x4(_mm_loadu_si128(nt.lo.as_ptr() as *const __m128i));
        let hi_tbl = _mm512_broadcast_i32x4(_mm_loadu_si128(nt.hi.as_ptr() as *const __m128i));
        let mask = _mm512_set1_epi8(0x0F);
        let n = block.len() / 64 * 64;
        let b = block.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v = _mm512_loadu_si512(b.add(i) as *const __m512i);
            _mm512_storeu_si512(b.add(i) as *mut __m512i, mul64(v, lo_tbl, hi_tbl, mask));
            i += 64;
        }
        scale_tail(&mut block[n..], nt);
    }

    /// AVX-512 XOR, 128 bytes per iteration.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor_avx512(dst: &mut [u8], src: &[u8]) {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let n128 = dst.len() / 128 * 128;
        let mut i = 0;
        while i < n128 {
            let a0 = _mm512_loadu_si512(d.add(i) as *const __m512i);
            let b0 = _mm512_loadu_si512(s.add(i) as *const __m512i);
            let a1 = _mm512_loadu_si512(d.add(i + 64) as *const __m512i);
            let b1 = _mm512_loadu_si512(s.add(i + 64) as *const __m512i);
            _mm512_storeu_si512(d.add(i) as *mut __m512i, _mm512_xor_si512(a0, b0));
            _mm512_storeu_si512(d.add(i + 64) as *mut __m512i, _mm512_xor_si512(a1, b1));
            i += 128;
        }
        let n64 = dst.len() / 64 * 64;
        while i < n64 {
            let a = _mm512_loadu_si512(d.add(i) as *const __m512i);
            let b = _mm512_loadu_si512(s.add(i) as *const __m512i);
            _mm512_storeu_si512(d.add(i) as *mut __m512i, _mm512_xor_si512(a, b));
            i += 64;
        }
        for (db, sb) in dst[n64..].iter_mut().zip(&src[n64..]) {
            *db ^= *sb;
        }
    }

    /// SSE2 XOR (SSE2 is x86_64 baseline; used on the SSSE3 tier).
    pub unsafe fn xor_sse2(dst: &mut [u8], src: &[u8]) {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let n = dst.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let a = _mm_loadu_si128(d.add(i) as *const __m128i);
            let b = _mm_loadu_si128(s.add(i) as *const __m128i);
            _mm_storeu_si128(d.add(i) as *mut __m128i, _mm_xor_si128(a, b));
            i += 16;
        }
        for (db, sb) in dst[n..].iter_mut().zip(&src[n..]) {
            *db ^= *sb;
        }
    }

    // -- SSE4.2: CRC32C ---------------------------------------------------
    //
    // The `crc32` instruction folds a word into a reflected CRC32C state,
    // the same state the table reference keeps, so init (`!0`), the
    // little-endian word order and the final inversion carry over as is.

    /// Single-stream CRC32C: one 8-byte word per `crc32`, then the tail
    /// byte by byte.
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn crc32c_sse42(data: &[u8]) -> u32 {
        let mut words = data.chunks_exact(8);
        let mut crc = u64::from(!0u32);
        for w in &mut words {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().unwrap()));
        }
        // `crc32` on a 64-bit operand zero-extends its 32-bit result.
        let mut crc = crc as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        !crc
    }
}

// ---------------------------------------------------------------------------
// aarch64: NEON TBL
// ---------------------------------------------------------------------------

/// # Safety
/// Same contract as the x86 module: the CPU supports NEON, and all
/// slices passed to one call have the same length.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{axpy_tail, scale_tail};
    use crate::kernels::NibbleTables;
    use std::arch::aarch64::*;

    /// One 16-lane product via two `TBL` lookups. `vqtbl1q_u8` zeroes
    /// lanes whose index is ≥ 16; ours are masked to 0..15.
    #[inline(always)]
    unsafe fn mul16(v: uint8x16_t, lo_tbl: uint8x16_t, hi_tbl: uint8x16_t) -> uint8x16_t {
        let lo = vandq_u8(v, vdupq_n_u8(0x0F));
        let hi = vshrq_n_u8::<4>(v);
        veorq_u8(vqtbl1q_u8(lo_tbl, lo), vqtbl1q_u8(hi_tbl, hi))
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_neon(acc: &mut [u8], nt: &NibbleTables, src: &[u8]) {
        let lo_tbl = vld1q_u8(nt.lo.as_ptr());
        let hi_tbl = vld1q_u8(nt.hi.as_ptr());
        let n = acc.len() / 16 * 16;
        let (a, s) = (acc.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i < n {
            let v = vld1q_u8(s.add(i));
            let d = vld1q_u8(a.add(i));
            vst1q_u8(a.add(i), veorq_u8(d, mul16(v, lo_tbl, hi_tbl)));
            i += 16;
        }
        axpy_tail(&mut acc[n..], nt, &src[n..]);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn scale_neon(block: &mut [u8], nt: &NibbleTables) {
        let lo_tbl = vld1q_u8(nt.lo.as_ptr());
        let hi_tbl = vld1q_u8(nt.hi.as_ptr());
        let n = block.len() / 16 * 16;
        let b = block.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v = vld1q_u8(b.add(i));
            vst1q_u8(b.add(i), mul16(v, lo_tbl, hi_tbl));
            i += 16;
        }
        scale_tail(&mut block[n..], nt);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn xor_neon(dst: &mut [u8], src: &[u8]) {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let n = dst.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let a = vld1q_u8(d.add(i));
            let b = vld1q_u8(s.add(i));
            vst1q_u8(d.add(i), veorq_u8(a, b));
            i += 16;
        }
        for (db, sb) in dst[n..].iter_mut().zip(&src[n..]) {
            *db ^= *sb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{crc32c_scalar, gf_axpy_scalar, gf_scale_scalar, xor_into_scalar};

    #[test]
    fn probe_is_stable() {
        assert_eq!(level(), level());
    }

    #[test]
    fn probe_pick_is_supported() {
        assert!(tier_supported(level()));
    }

    /// Every tier the host can execute — the portable one included, not
    /// just the probe's pick — matches the scalar reference through the
    /// pinned entry points, at lengths on both sides of every vector
    /// width and with the special-cased coefficients.
    #[test]
    fn every_supported_tier_matches_scalar() {
        use std::io::Write;
        let tiers: Vec<SimdLevel> = SimdLevel::ALL
            .into_iter()
            .filter(|&t| tier_supported(t))
            .collect();
        // Straight to stderr, past libtest's capture: a CI log should say
        // which tiers its runner covered.
        let line = format!("kernel tiers: probed {:?}, exercising {tiers:?}\n", level());
        let _ = std::io::stderr().write_all(line.as_bytes());
        for tier in tiers {
            for len in [
                0usize, 1, 5, 7, 8, 15, 16, 17, 31, 32, 33, 40, 63, 64, 65, 96, 97, 100, 127, 129,
                257,
            ] {
                let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                let init: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                for coef in [0u8, 1, 2, 0x1D, 0x35, 0x80, 0xFE, 0xFF] {
                    let mut a = init.clone();
                    let mut b = init.clone();
                    gf_axpy_at(tier, &mut a, coef, &src);
                    gf_axpy_scalar(&mut b, coef, &src);
                    assert_eq!(a, b, "axpy {tier:?} len={len} coef={coef}");

                    let mut a = init.clone();
                    let mut b = init.clone();
                    gf_scale_at(tier, &mut a, coef);
                    gf_scale_scalar(&mut b, coef);
                    assert_eq!(a, b, "scale {tier:?} len={len} x={coef}");
                }
                let mut a = init.clone();
                let mut b = init.clone();
                xor_into_at(tier, &mut a, &src);
                xor_into_scalar(&mut b, &src);
                assert_eq!(a, b, "xor {tier:?} len={len}");

                assert_eq!(
                    crc32c_at(tier, &src),
                    crc32c_scalar(&src),
                    "crc32c {tier:?} len={len}"
                );

                let srcs_owned: Vec<(u8, Vec<u8>)> = (0..5u8)
                    .map(|t| {
                        (
                            t.wrapping_mul(0x3B),
                            (0..len).map(|i| (i as u8).wrapping_mul(t + 3)).collect(),
                        )
                    })
                    .collect();
                let srcs: Vec<(u8, &[u8])> =
                    srcs_owned.iter().map(|(c, s)| (*c, s.as_slice())).collect();
                let mut a = init.clone();
                let mut b = init.clone();
                gf_axpy_multi_at(tier, &mut a, &srcs);
                for &(c, s) in &srcs {
                    gf_axpy_scalar(&mut b, c, s);
                }
                assert_eq!(a, b, "multi {tier:?} len={len}");
            }
        }
    }
}
