//! Hot-loop coding kernels: GF(256) multiply-accumulate, wide XOR, the
//! CRC32C block digest, and block-buffer pooling.
//!
//! Every code in this crate bottoms out in two inner loops — `acc ^= src`
//! (LT/Raptor/Tornado/parity) and `acc ^= coef · src` over GF(2⁸)
//! (Reed–Solomon) — so this module is the single substrate they all share.
//! The paper makes coding bandwidth a first-class constraint (§5.2.3
//! item 4: "long operands, register- and cache-conscious loops"; Table 5-1
//! rules RS out for long code words because its per-byte field math halves
//! bandwidth with every K doubling). The store's end-to-end integrity
//! check, a CRC32C over every coded block written and every block
//! fetched, touches as many bytes as the codes do, so it rides the same
//! ladder.
//!
//! Each of the five operations — [`xor_into`], [`gf_axpy`],
//! [`gf_axpy_multi`], [`gf_scale`], [`crc32c`] — runs on one ladder of
//! implementations, and which rung runs is a function of the CPU
//! ([`crate::simd::level`], probed once per process), never of a build
//! flag or a setting:
//!
//! * **Hardware tiers** ([`crate::simd`]) — GFNI, AVX-512VBMI, AVX2 and
//!   SSSE3 on x86_64, NEON on aarch64. What every shipped and measured
//!   build runs.
//! * **Portable tier** — safe-Rust wide loops for hosts with none of
//!   those: XOR over 32-byte chunks (4 × `u64` lanes) that LLVM lowers to
//!   whatever vectors the target has, and a table-driven GF multiply in
//!   the ISA-L style: per coefficient, two 16-entry split-nibble tables
//!   ([`NibbleTables`], `c·b = lo[b & 15] ^ hi[b >> 4]`) are expanded
//!   once into a 256-entry product table that stays L1-resident for the
//!   whole block, so the inner loop is one branch-free lookup per byte.
//!   CRC32C runs the scalar table. A fallback: kept correct and safe, not
//!   tuned.
//! * **Scalar reference** (`*_scalar`) — the textbook byte-at-a-time
//!   loops (log/exp table lookups for GF, single-byte XOR, one 256-entry
//!   table step per byte for CRC32C). They pin the semantics; only the
//!   CRC32C one is also dispatched to. Every tier must be
//!   *byte-identical* to them for every input, a guarantee enforced by
//!   differential tests that take the tier as an argument (the `*_at`
//!   entry points in [`crate::simd`]). They double as the ablation
//!   baseline mirroring the paper's pre-optimisation loops —
//!   [`std::hint::black_box`] keeps the XOR reference genuinely
//!   byte-at-a-time so the compiler cannot quietly vectorize the baseline
//!   and erase the very effect §5.2.3 measures.
//!
//! Because the tiers agree byte-for-byte, the host a run lands on can
//! never change what any experiment computes — only how fast.
//!
//! Alignment note: the portable loops read/write through
//! `u64::from_ne_bytes`/`to_ne_bytes` on exact chunks, which LLVM merges
//! into full-width loads; the hardware tiers use the unaligned load/store
//! forms. On x86-64 and aarch64 those run at aligned speed when the data
//! is aligned (and `Vec<u8>` allocations are), so no separately
//! dispatched aligned path exists.
//!
//! [`BlockPool`] rounds out the memory-discipline side: a free-list of
//! equal-sized blocks with allocation counters, so per-trial segment
//! buffers are recycled across a request loop instead of reallocated, and
//! tests can assert that a decode path performed no hidden copies.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::simd::{self, SimdLevel};
use crate::Block;

/// GF(2⁸) arithmetic with the AES polynomial x⁸+x⁴+x³+x+1 (0x11B).
pub mod gf {
    /// Exponential table: EXP[i] = g^i for generator g = 0x03, doubled to
    /// avoid a modulo in `mul`.
    pub struct Tables {
        /// g^i for i in 0..510 (duplicated past 255 so `mul` skips a mod).
        pub exp: [u8; 512],
        /// Discrete log base g of each nonzero field element.
        pub log: [u16; 256],
    }

    /// Build the log/exp tables at first use.
    pub fn tables() -> &'static Tables {
        use std::sync::OnceLock;
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut exp = [0u8; 512];
            let mut log = [0u16; 256];
            let mut x: u16 = 1;
            for (i, e) in exp.iter_mut().enumerate().take(255) {
                *e = x as u8;
                log[x as usize] = i as u16;
                // multiply by generator 0x03 = x + 1: x*3 = x*2 ^ x
                let x2 = x << 1;
                let x2 = if x2 & 0x100 != 0 { x2 ^ 0x11B } else { x2 };
                x = (x2 ^ x) & 0xFF;
            }
            for i in 255..512 {
                exp[i] = exp[i - 255];
            }
            Tables { exp, log }
        })
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero, which has no inverse.
    #[inline]
    pub fn inv(a: u8) -> u8 {
        assert_ne!(a, 0, "inverse of zero in GF(256)");
        let t = tables();
        t.exp[255 - t.log[a as usize] as usize]
    }

    /// Field addition (= subtraction = XOR).
    #[inline]
    pub fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }
}

/// The tier the dispatchers below run on this host: [`simd::level`], the
/// best rung of the ladder the CPU supports.
#[inline]
pub fn active_kernel() -> SimdLevel {
    simd::level()
}

/// Whether the CPU probe found a hardware tier (anything above the
/// portable fallback).
pub fn simd_available() -> bool {
    simd::level() != SimdLevel::Portable
}

/// Per-coefficient split-nibble multiply tables (ISA-L layout): for a
/// fixed coefficient `c`, `c·b = lo[b & 15] ^ hi[b >> 4]` because
/// b = (b & 0x0F) ⊕ (b & 0xF0) and multiplication distributes over ⊕.
/// 32 bytes per coefficient — they live in registers/L1 for a whole block.
pub struct NibbleTables {
    /// Products of the coefficient with 0x00..=0x0F.
    pub lo: [u8; 16],
    /// Products of the coefficient with 0x00, 0x10, .., 0xF0.
    pub hi: [u8; 16],
}

impl NibbleTables {
    /// Build the two 16-entry tables for coefficient `c`.
    pub fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for i in 0..16u8 {
            lo[i as usize] = gf::mul(c, i);
            hi[i as usize] = gf::mul(c, i << 4);
        }
        NibbleTables { lo, hi }
    }

    /// Multiply `b` by the tables' coefficient.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }

    /// Expand into the full 256-entry product table the wide loops index
    /// by whole bytes: `expand()[b] = c·b`. 256 bytes per coefficient —
    /// L1-resident for the duration of a block operation.
    pub fn expand(&self) -> [u8; 256] {
        let mut full = [0u8; 256];
        for (b, e) in full.iter_mut().enumerate() {
            *e = self.lo[b & 0x0F] ^ self.hi[b >> 4];
        }
        full
    }
}

#[inline(always)]
fn load4(chunk: &[u8]) -> [u64; 4] {
    [
        u64::from_ne_bytes(chunk[0..8].try_into().unwrap()),
        u64::from_ne_bytes(chunk[8..16].try_into().unwrap()),
        u64::from_ne_bytes(chunk[16..24].try_into().unwrap()),
        u64::from_ne_bytes(chunk[24..32].try_into().unwrap()),
    ]
}

#[inline(always)]
fn store4(chunk: &mut [u8], w: [u64; 4]) {
    chunk[0..8].copy_from_slice(&w[0].to_ne_bytes());
    chunk[8..16].copy_from_slice(&w[1].to_ne_bytes());
    chunk[16..24].copy_from_slice(&w[2].to_ne_bytes());
    chunk[24..32].copy_from_slice(&w[3].to_ne_bytes());
}

/// The product `coef · src` of one 8-byte group through the expanded
/// split-nibble table, assembled in little-endian byte order (byte `i` of
/// the group lands in bits `8i..8i+8`, matching `u64::from_le_bytes` on
/// the destination). The 8 lookups carry no inter-dependencies, so they
/// pipeline — and assembling in registers avoids the store-forwarding
/// round trip a staging byte array would cost.
#[inline(always)]
fn mul8(w: u64, full: &[u8; 256]) -> u64 {
    // The group arrives as one u64 load; bytes are extracted with shifts
    // (ALU work) rather than eight extra byte-loads, halving load-port
    // pressure — the table lookups are then the only loads. Assembly is
    // tree-shaped: three OR levels instead of a serial chain of eight.
    let at = |i: u32| full[(w >> (8 * i)) as u8 as usize] as u64;
    let p0 = at(0) | at(1) << 8;
    let p1 = at(2) << 16 | at(3) << 24;
    let p2 = at(4) << 32 | at(5) << 40;
    let p3 = at(6) << 48 | at(7) << 56;
    (p0 | p1) | (p2 | p3)
}

// ---------------------------------------------------------------------------
// XOR kernels
// ---------------------------------------------------------------------------

/// XOR `src` into `dst` element-wise, on the probed tier.
///
/// # Panics
/// Panics if the slices differ in length — codes operate on equal-sized
/// blocks only, and a mismatch indicates corruption upstream.
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    simd::xor_into_at(simd::level(), dst, src)
}

/// Byte-at-a-time XOR reference. `black_box` pins the loop to genuinely
/// scalar execution (see module docs); use only as an oracle/baseline.
pub fn xor_into_scalar(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor of blocks with unequal lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = std::hint::black_box(*d ^ s);
    }
}

/// Portable-tier XOR: 32-byte chunks (4 × u64), then an 8-byte loop, then
/// bytes.
pub(crate) fn xor_into_wide(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor of blocks with unequal lengths");
    let mut d = dst.chunks_exact_mut(32);
    let mut s = src.chunks_exact(32);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let a = load4(dw);
        let b = load4(sw);
        store4(dw, [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]);
    }
    let dr = d.into_remainder();
    let sr = s.remainder();
    let mut d8 = dr.chunks_exact_mut(8);
    let mut s8 = sr.chunks_exact(8);
    for (dw, sw) in (&mut d8).zip(&mut s8) {
        let x =
            u64::from_ne_bytes(dw.try_into().unwrap()) ^ u64::from_ne_bytes(sw.try_into().unwrap());
        dw.copy_from_slice(&x.to_ne_bytes());
    }
    for (db, sb) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *db ^= *sb;
    }
}

// ---------------------------------------------------------------------------
// GF(256) multiply-accumulate / scale kernels
// ---------------------------------------------------------------------------

/// `acc ^= coef · src` over GF(2⁸), element-wise, on the probed tier.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn gf_axpy(acc: &mut [u8], coef: u8, src: &[u8]) {
    simd::gf_axpy_at(simd::level(), acc, coef, src)
}

/// Scalar reference multiply-accumulate: a branch plus two dependent
/// table lookups per byte (the loop Table 5-1's RS numbers come from).
pub fn gf_axpy_scalar(acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    if coef == 0 {
        return;
    }
    if coef == 1 {
        xor_into_scalar(acc, src);
        return;
    }
    let t = gf::tables();
    let lc = t.log[coef as usize] as usize;
    for (a, &s) in acc.iter_mut().zip(src) {
        if s != 0 {
            *a ^= t.exp[t.log[s as usize] as usize + lc];
        }
    }
}

/// Portable-tier multiply-accumulate for `coef` ∉ {0, 1} (the caller
/// special-cases those): the expanded split-nibble table over 16-byte
/// groups, per-byte table lookups on the tail.
pub(crate) fn gf_axpy_portable(acc: &mut [u8], coef: u8, src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "axpy over blocks of unequal lengths");
    let full = NibbleTables::new(coef).expand();
    // Two independent 8-byte groups per iteration keep 16 lookups in
    // flight at once.
    let mut d = acc.chunks_exact_mut(16);
    let mut s = src.chunks_exact(16);
    for (dg, sg) in (&mut d).zip(&mut s) {
        let x0 = u64::from_le_bytes(dg[0..8].try_into().unwrap())
            ^ mul8(u64::from_le_bytes(sg[0..8].try_into().unwrap()), &full);
        let x1 = u64::from_le_bytes(dg[8..16].try_into().unwrap())
            ^ mul8(u64::from_le_bytes(sg[8..16].try_into().unwrap()), &full);
        dg[0..8].copy_from_slice(&x0.to_le_bytes());
        dg[8..16].copy_from_slice(&x1.to_le_bytes());
    }
    let dr = d.into_remainder();
    let sr = s.remainder();
    let mut d8 = dr.chunks_exact_mut(8);
    let mut s8 = sr.chunks_exact(8);
    for (dg, sg) in (&mut d8).zip(&mut s8) {
        let x = u64::from_le_bytes(dg.as_ref().try_into().unwrap())
            ^ mul8(u64::from_le_bytes(sg.try_into().unwrap()), &full);
        dg.copy_from_slice(&x.to_le_bytes());
    }
    for (a, &sb) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *a ^= full[sb as usize];
    }
}

/// Fused multiply-accumulate of several sources into one destination:
/// `acc ^= Σᵢ coefᵢ · srcᵢ`, element-wise over GF(2⁸), on the probed
/// tier. XOR accumulation is exact and order-free, so the result is
/// byte-identical to applying [`gf_axpy`] once per source — but the
/// tiers with a two-source kernel halve the destination's memory traffic,
/// which is where a K×K Reed–Solomon decode's per-source loop saturates.
///
/// # Panics
/// Panics if any source's length differs from `acc`'s.
#[inline]
pub fn gf_axpy_multi(acc: &mut [u8], srcs: &[(u8, &[u8])]) {
    simd::gf_axpy_multi_at(simd::level(), acc, srcs)
}

/// Scalar reference for the fused multiply-accumulate: the sources
/// applied one at a time with the byte-at-a-time loop — exactly the
/// structure the pre-kernel decoder had.
pub fn gf_axpy_multi_scalar(acc: &mut [u8], srcs: &[(u8, &[u8])]) {
    for &(coef, src) in srcs {
        gf_axpy_scalar(acc, coef, src);
    }
}

/// In-place multiply of every byte of `block` by field scalar `x`, on
/// the probed tier.
#[inline]
pub fn gf_scale(block: &mut [u8], x: u8) {
    simd::gf_scale_at(simd::level(), block, x)
}

/// Scalar reference in-place scale.
pub fn gf_scale_scalar(block: &mut [u8], x: u8) {
    if x == 1 {
        return;
    }
    if x == 0 {
        block.fill(0);
        return;
    }
    let t = gf::tables();
    let lx = t.log[x as usize] as usize;
    for b in block.iter_mut() {
        if *b != 0 {
            *b = t.exp[t.log[*b as usize] as usize + lx];
        }
    }
}

/// Portable-tier in-place scale for `x` ∉ {0, 1} (the caller
/// special-cases those): the expanded split-nibble table over 8-byte
/// groups, per-byte table lookups on the tail.
pub(crate) fn gf_scale_portable(block: &mut [u8], x: u8) {
    let full = NibbleTables::new(x).expand();
    let mut d = block.chunks_exact_mut(8);
    for dg in &mut d {
        let x = mul8(u64::from_le_bytes(dg.as_ref().try_into().unwrap()), &full);
        dg.copy_from_slice(&x.to_le_bytes());
    }
    for b in d.into_remainder().iter_mut() {
        *b = full[*b as usize];
    }
}

// ---------------------------------------------------------------------------
// CRC32C block digest
// ---------------------------------------------------------------------------

/// The reflected CRC32C (Castagnoli) polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// 256-entry lookup table, one byte of input per step. Built in a `const`
/// fn, so the reference carries no init-time or locking cost.
const CRC32C_TABLE: [u32; 256] = crc32c_table();

const fn crc32c_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32C digest of `data` (full init/finalize in one call), on the
/// probed tier.
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    simd::crc32c_at(simd::level(), data)
}

/// Table-driven CRC32C reference, one byte per step. Each step depends on
/// the last, so the loop is serial by construction. This is the oracle
/// the hardware tiers are tested against, and what the tiers without a
/// CRC instruction run.
pub fn crc32c_scalar(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Block pooling
// ---------------------------------------------------------------------------

/// Free-list of equal-sized blocks, so a request loop recycles its segment
/// buffers instead of reallocating them every trial.
///
/// The counters make memory discipline testable: after a warm-up pass,
/// a loop that truly recycles shows `fresh_allocations()` frozen while
/// `reuses()` climbs, and a decode path that secretly copied blocks would
/// need allocations the pool never saw. `outstanding_blocks()` tracks
/// checked-out-minus-returned, so a completed access can assert it leaked
/// nothing.
///
/// Threading model: the free list needs `&mut self`, so a pool is owned
/// by exactly one thread at a time — the parallel encode/trial paths give
/// each worker its *own* pool and [`BlockPool::absorb`] merges the
/// workers' free lists and counters back into a parent afterwards. The
/// counters themselves are atomic ([`AtomicU64`]/[`AtomicI64`]), so the
/// accounting stays exact across the absorb (no read-modify-write races
/// on shared references) and read-only probes work through `&self` even
/// while another handle's counters are being merged in.
#[derive(Debug, Default)]
pub struct BlockPool {
    block_len: usize,
    free: Vec<Block>,
    fresh: AtomicU64,
    reused: AtomicU64,
    /// Blocks checked out minus blocks returned. Signed: adopting a
    /// foreign buffer via [`BlockPool::put`] counts as a return without a
    /// checkout, which is legitimate (the read path adopts the decoder's
    /// buffers) and must not wrap.
    outstanding: AtomicI64,
}

impl BlockPool {
    /// A pool of `block_len`-byte blocks.
    pub fn new(block_len: usize) -> Self {
        BlockPool {
            block_len,
            free: Vec::new(),
            fresh: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            outstanding: AtomicI64::new(0),
        }
    }

    /// The block size this pool serves.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// A zeroed block, recycled from the free list when possible.
    pub fn get(&mut self) -> Block {
        let mut b = self.get_scratch();
        b.fill(0);
        b
    }

    /// A block with unspecified contents — for callers that overwrite it
    /// entirely (e.g. reading from a backend), skipping the memset.
    pub fn get_scratch(&mut self) -> Block {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        match self.free.pop() {
            Some(b) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0u8; self.block_len]
            }
        }
    }

    /// Return a block to the free list.
    ///
    /// # Panics
    /// Panics if the block's length does not match the pool's.
    pub fn put(&mut self, block: Block) {
        assert_eq!(block.len(), self.block_len, "pooled block length mismatch");
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.free.push(block);
    }

    /// Return every block of an iterator to the free list.
    pub fn put_all(&mut self, blocks: impl IntoIterator<Item = Block>) {
        for b in blocks {
            self.put(b);
        }
    }

    /// Account `blocks` checked-out buffers whose *ownership moved* to an
    /// external consumer (e.g. a storage backend that keeps the
    /// allocation as the stored block): outstanding drops as if they had
    /// been returned, but the buffers never rejoin the free list. This is
    /// what lets a zero-copy write path assert
    /// [`BlockPool::outstanding_blocks`]` == 0` after every outcome —
    /// a buffer is either back in a pool or durably owned elsewhere,
    /// never in limbo.
    pub fn mark_consumed(&self, blocks: u64) {
        self.outstanding.fetch_sub(blocks as i64, Ordering::Relaxed);
    }

    /// Merge another pool (typically a per-worker pool from a parallel
    /// section) into this one: its free blocks join this free list and
    /// its counters fold in, so system-wide accounting stays exact no
    /// matter how many workers allocated.
    ///
    /// # Panics
    /// Panics if the pools serve different block sizes.
    pub fn absorb(&mut self, other: BlockPool) {
        assert_eq!(
            other.block_len, self.block_len,
            "absorbing a pool of a different block size"
        );
        self.free.extend(other.free);
        self.fresh
            .fetch_add(other.fresh.load(Ordering::Relaxed), Ordering::Relaxed);
        self.reused
            .fetch_add(other.reused.load(Ordering::Relaxed), Ordering::Relaxed);
        self.outstanding
            .fetch_add(other.outstanding.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Blocks newly allocated (not served from the free list).
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Blocks served from the free list.
    pub fn reuses(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Total bytes this pool has ever allocated — the byte-allocation
    /// counter zero-copy tests assert against.
    pub fn allocated_bytes(&self) -> u64 {
        self.fresh_allocations() * self.block_len as u64
    }

    /// Blocks checked out and not yet returned (negative if the pool
    /// adopted more foreign buffers than it handed out). A completed
    /// access that recycles everything leaves this at zero.
    pub fn outstanding_blocks(&self) -> i64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Bytes checked out and not yet returned — zero at the end of a
    /// leak-free access.
    pub fn outstanding_bytes(&self) -> i64 {
        self.outstanding_blocks() * self.block_len as i64
    }

    /// Blocks currently idle in the free list.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive check of the chunk product against the log/exp tables:
    /// every (coefficient, byte) pair, via a 32-byte chunk.
    #[test]
    fn chunk_product_matches_tables_exhaustively() {
        for c in 0..=255u8 {
            if c < 2 {
                continue; // axpy special-cases 0 and 1 before the table path
            }
            let full = NibbleTables::new(c).expand();
            for b0 in 0..=255u8 {
                let bytes = mul8(u64::from_le_bytes([b0; 8]), &full).to_le_bytes();
                let expect = gf::mul(c, b0);
                assert!(
                    bytes.iter().all(|&x| x == expect),
                    "c={c} b={b0}: got {:#x}, want {expect:#x}",
                    bytes[0]
                );
            }
        }
    }

    #[test]
    fn nibble_tables_match_mul() {
        for c in [0u8, 1, 2, 3, 0x53, 0x80, 0xFF] {
            let nt = NibbleTables::new(c);
            for b in 0..=255u8 {
                assert_eq!(nt.mul(b), gf::mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn wide_xor_rejects_unequal_lengths() {
        let mut a = vec![0u8; 8];
        xor_into_wide(&mut a, &[0u8; 9]);
    }

    #[test]
    fn pool_recycles_and_counts() {
        let mut pool = BlockPool::new(16);
        let a = pool.get();
        let b = pool.get();
        assert_eq!(pool.fresh_allocations(), 2);
        assert_eq!(pool.allocated_bytes(), 32);
        assert_eq!(pool.outstanding_blocks(), 2);
        assert_eq!(pool.outstanding_bytes(), 32);
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.outstanding_blocks(), 0);
        let c = pool.get();
        assert!(
            c.iter().all(|&x| x == 0),
            "recycled blocks come back zeroed"
        );
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.fresh_allocations(), 2, "no fresh alloc on reuse");
        pool.put(c);
        pool.put_all((0..2).map(|_| vec![0u8; 16]));
        assert_eq!(pool.available(), 4);
        // Adopting foreign buffers counts as returns without checkouts.
        assert_eq!(pool.outstanding_blocks(), -2);
    }

    #[test]
    fn pool_mark_consumed_accounts_ownership_transfer() {
        // A write path draws buffers and hands them to the backend for
        // keeps: outstanding must settle to zero without the buffers ever
        // coming back to the free list.
        let mut pool = BlockPool::new(16);
        let a = pool.get_scratch();
        let b = pool.get_scratch();
        assert_eq!(pool.outstanding_blocks(), 2);
        drop((a, b)); // ownership notionally moved to the backend
        pool.mark_consumed(2);
        assert_eq!(pool.outstanding_blocks(), 0);
        assert_eq!(pool.available(), 0, "consumed buffers never rejoin");
    }

    #[test]
    fn pool_absorb_merges_blocks_and_counters() {
        let mut parent = BlockPool::new(8);
        let p = parent.get();
        let mut worker = BlockPool::new(8);
        let w1 = worker.get_scratch();
        let w2 = worker.get_scratch();
        worker.put(w1);
        worker.put(w2);
        let w3 = worker.get(); // reuse
        worker.put(w3);
        parent.absorb(worker);
        assert_eq!(parent.fresh_allocations(), 3, "1 parent + 2 worker");
        assert_eq!(parent.reuses(), 1);
        assert_eq!(parent.available(), 2, "worker's free list joins");
        assert_eq!(parent.outstanding_blocks(), 1, "only `p` is still out");
        parent.put(p);
        assert_eq!(parent.outstanding_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "different block size")]
    fn pool_absorb_rejects_size_mismatch() {
        BlockPool::new(8).absorb(BlockPool::new(16));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pool_rejects_foreign_sizes() {
        BlockPool::new(8).put(vec![0u8; 9]);
    }
}
