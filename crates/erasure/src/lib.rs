#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Erasure-coding library for RobuSTore.
//!
//! RobuSTore's first subsidiary thesis (paper §1.3) is that erasure codes
//! can be designed to deliver high encoding/decoding throughput. This crate
//! implements the codes the paper analyses and the one it selects:
//!
//! * [`lt`] — **Luby Transform codes with the paper's storage-oriented
//!   improvements** (§5.2.3): guaranteed decodability by graph checking,
//!   uniform coverage of original blocks via pseudo-random permutation
//!   selection, lazy-XOR peeling decoding, and word-at-a-time XOR kernels.
//!   This is the code RobuSTore uses.
//! * [`rs`] — Reed–Solomon codes over GF(2⁸) (Vandermonde construction),
//!   the *optimal-code* baseline whose quadratic coding cost motivates the
//!   choice of LT codes (Table 5-1, §5.2.1).
//! * [`parity`] — single-parity codes (RAID-5 style), the simplest erasure
//!   code (§2.2.2).
//! * [`raptor`] — Raptor codes (§2.2.3): a sparse parity pre-code
//!   concatenated with LT, decoded by joint peeling — the "more efficient
//!   erasure codes" extension of §7.3.
//! * [`tornado`] — Tornado codes (§2.2.3): cascaded sparse bipartite
//!   graphs terminated by Reed–Solomon, the fixed-rate ancestor of LT.
//! * [`replication`] — plain replication treated as a degenerate erasure
//!   code, the layout used by the RRAID-S/RRAID-A baselines.
//! * [`soliton`] — the ideal and robust Soliton degree distributions.
//! * [`analysis`] — the Appendix-A reassembly-probability analysis behind
//!   Figure 4-1 (replication vs erasure-coded redundancy).
//! * [`block`] — the shared block representation and XOR helpers.
//! * [`kernels`] — the hot-loop substrate every code runs on: GF(256)
//!   multiply-accumulate, scale, wide XOR and the CRC32C block digest
//!   (SSE4.2 `crc32` on the top x86_64 tiers), dispatched to the best tier
//!   the CPU supports, with byte-identical scalar reference kernels as
//!   the test oracle, plus [`BlockPool`] buffer recycling.
//! * [`simd`] — the tiers themselves and the probe that picks one, once
//!   per process: GFNI › AVX-512VBMI › AVX2 › SSSE3 on x86_64, NEON on
//!   aarch64, safe-Rust portable loops anywhere else. The only module
//!   with `unsafe` in it; the crate denies it everywhere else.
//!
//! Terminology follows §2.2.1: a *data segment* of K *blocks* is encoded
//! into N *coded blocks*; `D = N/K − 1` is the degree of data redundancy and
//! the *reception overhead* ε is such that (1+ε)K received blocks suffice to
//! decode.
//!
//! # Example: encode, lose most blocks, decode
//!
//! ```
//! use robustore_erasure::{LtCode, LtDecoder, LtParams};
//!
//! // A segment of K = 8 blocks, coded at 3x redundancy (N = 32).
//! let data: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 1024]).collect();
//! let code = LtCode::plan(8, 32, LtParams::default(), 42)?;
//! let coded = code.encode(&data)?;
//!
//! // Blocks arrive in arbitrary order; feed them until the decoder
//! // completes — typically well before all 32 have arrived. The decoder
//! // takes ownership: no copies are made on receive.
//! let mut decoder = LtDecoder::new(&code, 1024);
//! let mut used = 0;
//! for (j, block) in coded.into_iter().enumerate().rev() {
//!     used += 1;
//!     if decoder.receive(j, block) {
//!         break;
//!     }
//! }
//! assert!(used < 32);
//! assert_eq!(decoder.into_data().unwrap(), data);
//! # Ok::<(), robustore_erasure::CodingError>(())
//! ```

pub mod analysis;
pub mod block;
pub mod kernels;
pub mod lt;
pub mod parity;
pub mod raptor;
pub mod replication;
pub mod rs;
#[allow(unsafe_code)] // wraps the CPU intrinsics; see the module docs
pub mod simd;
pub mod soliton;
pub mod tornado;

pub use block::{xor_into, Block};
pub use kernels::{simd_available, BlockPool};
pub use lt::{LtCode, LtDecoder, LtParams, SymbolDecoder};
pub use raptor::RaptorCode;
pub use rs::ReedSolomon;
pub use soliton::RobustSoliton;
pub use tornado::TornadoCode;

/// Errors produced by the coding implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// The supplied blocks do not all have the same length.
    UnequalBlockLengths,
    /// Fewer blocks were supplied than the code needs to decode.
    NotEnoughBlocks {
        /// Blocks supplied.
        got: usize,
        /// Minimum required by the code (K for optimal codes).
        need: usize,
    },
    /// The supplied blocks were insufficient to decode (near-optimal codes
    /// can fail even with ≥ K blocks).
    DecodeFailed,
    /// A block index was out of range for the code.
    InvalidBlockIndex(usize),
    /// A parameter was out of range (e.g. K = 0, N < K, RS with N > 255).
    InvalidParameters(String),
    /// The same block index was supplied more than once.
    DuplicateBlockIndex(usize),
}

impl std::fmt::Display for CodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodingError::UnequalBlockLengths => write!(f, "blocks have unequal lengths"),
            CodingError::NotEnoughBlocks { got, need } => {
                write!(f, "not enough blocks to decode: got {got}, need {need}")
            }
            CodingError::DecodeFailed => write!(f, "decoding failed with the supplied blocks"),
            CodingError::InvalidBlockIndex(i) => write!(f, "invalid block index {i}"),
            CodingError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            CodingError::DuplicateBlockIndex(i) => write!(f, "duplicate block index {i}"),
        }
    }
}

impl std::error::Error for CodingError {}
