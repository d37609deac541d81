//! Luby Transform codes with RobuSTore's storage-oriented improvements.
//!
//! The paper selects LT codes for RobuSTore (§5.2.1) because they are
//! rateless, use a single level of bipartite XOR structure, and pipeline
//! with I/O. Stock LT codes are optimised for communication, so §5.2.3
//! adapts them for storage:
//!
//! 1. **Guaranteed decodability** — the writer generates the coding graph
//!    *first*, checks by peeling (no data XORs) that the N-block prefix
//!    decodes, and regenerates until it does. We additionally repair a
//!    stubborn graph by converting unused coded blocks into degree-1 copies
//!    of still-uncovered originals, which bounds generation time while
//!    keeping the guarantee absolute.
//! 2. **Uniform coverage** — instead of choosing each coded block's
//!    neighbours independently at random (which leaves some originals
//!    under-covered), neighbours are consumed from successive random
//!    permutations of the originals, so original-block degrees differ by at
//!    most one per permutation round ("pseudo-random selection").
//! 3. **Lazy XOR decoding** — block XORs happen only when a coded block
//!    actually resolves an original ([`LtDecoder`]), never to produce
//!    intermediate values.
//! 4. **Wide XOR kernels** — see [`crate::kernels`]: 32-byte-chunk loops
//!    with a byte-at-a-time scalar reference for differential testing.
//!
//! [`SymbolDecoder`] runs the same peeling on indices only; the simulator
//! uses it to find how many blocks an access needs (reception overhead)
//! without touching data.

mod decoder;
mod greedy;
mod peel;

pub use decoder::LtDecoder;
pub use greedy::GreedyDecoder;
pub use peel::{blocks_needed, SymbolDecoder};

use rand::seq::SliceRandom;

use crate::soliton::RobustSoliton;
use crate::{xor_into, Block, CodingError};
use robustore_simkit::SeedSequence;

/// Tunable parameters of the LT code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtParams {
    /// Degree-distribution parameter C: larger C ⇒ more low-degree coded
    /// blocks ⇒ less CPU, more reception overhead (Figures 5-1/5-2).
    pub c: f64,
    /// Degree-distribution parameter δ: smaller δ ⇒ denser coverage ⇒ less
    /// reception overhead, more CPU.
    pub delta: f64,
    /// How many fresh graphs to try before falling back to graph repair.
    pub max_graph_attempts: usize,
}

impl Default for LtParams {
    /// The paper's simulation configuration (§6.2.5): C = 1.0, δ = 0.5,
    /// giving ≈0.5 reception overhead at K = 1024.
    fn default() -> Self {
        LtParams {
            c: 1.0,
            delta: 0.5,
            max_graph_attempts: 20,
        }
    }
}

impl LtParams {
    /// The paper's recommended client configuration (§5.2.4): C = 1.0,
    /// δ = 0.1.
    pub fn recommended() -> Self {
        LtParams {
            c: 1.0,
            delta: 0.1,
            ..Default::default()
        }
    }

    /// The store's rule for new files with `k` originals: put the robust
    /// Soliton's spike on degree 3.
    ///
    /// The paper's C = 1, δ = 0.5 were tuned at K = 1024. At the K this
    /// store writes (2–256) they put the spike k/R on degree 2, so coded
    /// blocks cover the originals thinly: a quiescent read decodes after
    /// ≈ 1.42 K blocks, and 3-of-8 disk losses leave many codes
    /// rank-deficient. With δ = 0.9, C = √K / (3.5 · ln(K/δ)) makes
    /// R = K/3.5, which lands the spike on degree 3 at every K. C never
    /// drops below 0.5; under K ≈ 50 that floor leaves the spike on
    /// degree 2, but δ = 0.9 still decodes sooner and survives more
    /// losses than the default at K ≥ 24 and K ≤ 4. For K = 5–23 no
    /// (C, δ) tried beats the default on every column of `xp lt-sweep`
    /// (`results/lt-sweep.txt`), so those K keep it.
    pub fn for_k(k: usize) -> Self {
        const DELTA: f64 = 0.9;
        if (5..24).contains(&k) {
            return Self::default();
        }
        let kf = k as f64;
        LtParams {
            c: (kf.sqrt() / (3.5 * (kf / DELTA).ln())).max(0.5),
            delta: DELTA,
            ..Default::default()
        }
    }
}

/// A planned LT code instance: K originals, N coded blocks, and the coding
/// graph, guaranteed decodable from the full set of N blocks.
#[derive(Debug, Clone)]
pub struct LtCode {
    k: usize,
    n: usize,
    params: LtParams,
    seed: u64,
    /// Adjacency in CSR form: coded block `j` has neighbours
    /// `adjacency[offsets[j]..offsets[j+1]]` (distinct original ids).
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
    /// Graph-generation diagnostics.
    attempts: usize,
    repairs: usize,
}

impl LtCode {
    /// Plan a decodable LT code for `k` originals and `n ≥ k` coded blocks.
    ///
    /// Deterministic in (`k`, `n`, `params`, `seed`): the writer and every
    /// reader reconstruct the identical graph from the metadata tuple, so
    /// the graph itself never needs to be stored.
    pub fn plan(k: usize, n: usize, params: LtParams, seed: u64) -> Result<Self, CodingError> {
        if k == 0 {
            return Err(CodingError::InvalidParameters("K must be positive".into()));
        }
        if n < k {
            return Err(CodingError::InvalidParameters(format!(
                "N ({n}) must be at least K ({k}) for guaranteed decodability"
            )));
        }
        let soliton = RobustSoliton::new(k, params.c, params.delta);
        let seq = SeedSequence::new(seed);

        for attempt in 0..params.max_graph_attempts.max(1) {
            let (offsets, adjacency) = generate_graph(k, n, &soliton, &seq, attempt as u64);
            let mut code = LtCode {
                k,
                n,
                params,
                seed,
                offsets,
                adjacency,
                attempts: attempt + 1,
                repairs: 0,
            };
            let (decodable, missing, unused) = {
                let mut probe = SymbolDecoder::new(&code);
                let mut done = false;
                for j in 0..n {
                    if probe.receive(j) {
                        done = true;
                        break;
                    }
                }
                let missing: Vec<u32> = (0..k)
                    .filter(|&i| !probe.is_original_decoded(i))
                    .map(|i| i as u32)
                    .collect();
                let unused: Vec<usize> = (0..n).filter(|&j| !probe.was_used(j)).collect();
                (done, missing, unused)
            };
            if decodable {
                return Ok(code);
            }
            if attempt + 1 == params.max_graph_attempts.max(1) {
                // Last attempt: repair instead of failing. Convert coded
                // blocks the peel never used into degree-1 blocks covering
                // the still-missing originals.
                code.repair(&missing, &unused);
                debug_assert!(code.check_decodable());
                return Ok(code);
            }
        }
        unreachable!("loop always returns on the final attempt")
    }

    /// Plan a *stock* LT code: neighbours drawn independently uniformly
    /// at random (Luby's original construction) with **no decodability
    /// check, no uniform coverage, no repair**. This is the ablation
    /// baseline for the §5.2.3 improvements: unlike [`LtCode::plan`], the
    /// resulting graph may fail to decode even from all N blocks — exactly
    /// the storage-unfriendly behaviour the paper's improvements remove.
    pub fn plan_stock(
        k: usize,
        n: usize,
        params: LtParams,
        seed: u64,
    ) -> Result<Self, CodingError> {
        if k == 0 {
            return Err(CodingError::InvalidParameters("K must be positive".into()));
        }
        if n == 0 {
            return Err(CodingError::InvalidParameters("N must be positive".into()));
        }
        let soliton = RobustSoliton::new(k, params.c, params.delta);
        let seq = SeedSequence::new(seed);
        let mut deg_rng = seq.fork("stock-degree", 0);
        let mut pick_rng = seq.fork("stock-pick", 0);

        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency: Vec<u32> = Vec::with_capacity(n * 6);
        offsets.push(0u32);
        let mut scratch: Vec<u32> = Vec::with_capacity(16);
        for _ in 0..n {
            let d = soliton.sample(&mut deg_rng);
            scratch.clear();
            while scratch.len() < d {
                let cand = rand::Rng::gen_range(&mut pick_rng, 0..k as u32);
                if !scratch.contains(&cand) {
                    scratch.push(cand);
                }
            }
            scratch.sort_unstable();
            adjacency.extend_from_slice(&scratch);
            offsets.push(adjacency.len() as u32);
        }
        Ok(LtCode {
            k,
            n,
            params,
            seed,
            offsets,
            adjacency,
            attempts: 1,
            repairs: 0,
        })
    }

    /// Number of original blocks K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of coded blocks N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Degree of data redundancy D = N/K − 1.
    pub fn redundancy(&self) -> f64 {
        self.n as f64 / self.k as f64 - 1.0
    }

    /// The code's parameters.
    pub fn params(&self) -> LtParams {
        self.params
    }

    /// The seed the graph derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Graph generation attempts used (≥ 1).
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Coded blocks rewritten by graph repair (0 in the common case).
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Neighbours (original-block ids) of coded block `j`.
    #[inline]
    pub fn neighbors(&self, j: usize) -> &[u32] {
        let lo = self.offsets[j] as usize;
        let hi = self.offsets[j + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Degree of coded block `j`.
    #[inline]
    pub fn degree(&self, j: usize) -> usize {
        (self.offsets[j + 1] - self.offsets[j]) as usize
    }

    /// Total number of edges in the coding graph.
    pub fn edge_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Mean degree of original blocks (paper: ≈ 20 at K=1024, N=4096; used
    /// by the update-access cost argument in §4.3.4).
    pub fn mean_original_degree(&self) -> f64 {
        self.adjacency.len() as f64 / self.k as f64
    }

    /// Coded blocks incident to original `i` — the blocks an update to
    /// original `i` must rewrite (§4.3.4).
    pub fn blocks_touching(&self, original: usize) -> Vec<usize> {
        assert!(original < self.k, "original id out of range");
        (0..self.n)
            .filter(|&j| self.neighbors(j).contains(&(original as u32)))
            .collect()
    }

    /// Encode `data` (K equal-length blocks) into all N coded blocks.
    pub fn encode(&self, data: &[Block]) -> Result<Vec<Block>, CodingError> {
        self.validate_data(data)?;
        Ok((0..self.n).map(|j| self.encode_block(data, j)).collect())
    }

    /// Encode just coded block `j` — the rateless/streaming entry point
    /// used by speculative writes, which encode only as many blocks as the
    /// disks actually absorb (§4.1.1).
    pub fn encode_block(&self, data: &[Block], j: usize) -> Block {
        let mut acc = vec![0u8; data[0].len()];
        self.encode_block_into(data, j, &mut acc);
        acc
    }

    /// Encode coded block `j` into a caller-supplied buffer (typically a
    /// recycled [`crate::kernels::BlockPool`] block), so a request loop
    /// encodes without allocating.
    ///
    /// # Panics
    /// Panics if `out` is not exactly one data-block long.
    pub fn encode_block_into(&self, data: &[Block], j: usize, out: &mut [u8]) {
        assert_eq!(out.len(), data[0].len(), "output buffer length mismatch");
        // Start from a copy of the first neighbour rather than zeroing
        // and XORing it in: one pass over `out` fewer per block.
        let (&first, rest) = self
            .neighbors(j)
            .split_first()
            .expect("every coded block has a neighbour");
        out.copy_from_slice(&data[first as usize]);
        for &i in rest {
            xor_into(out, &data[i as usize]);
        }
    }

    /// Convenience: decode from `(coded_index, block)` pairs in one call,
    /// consuming the blocks — decoding happens in the received buffers,
    /// copy-free. For incremental decoding use [`LtDecoder`] directly.
    pub fn decode(&self, received: Vec<(usize, Block)>) -> Result<Vec<Block>, CodingError> {
        if received.is_empty() {
            return Err(CodingError::NotEnoughBlocks {
                got: 0,
                need: self.k,
            });
        }
        let len = received[0].1.len();
        if received.iter().any(|(_, b)| b.len() != len) {
            return Err(CodingError::UnequalBlockLengths);
        }
        let mut dec = LtDecoder::new(self, len);
        for (j, b) in received {
            if j >= self.n {
                return Err(CodingError::InvalidBlockIndex(j));
            }
            if dec.receive(j, b) {
                return Ok(dec.into_data().expect("decoder reported completion"));
            }
        }
        // Peel stalled with everything received: fall back to Gaussian
        // elimination before giving up (see [`LtDecoder::solve`]).
        if dec.solve() {
            return Ok(dec.into_data().expect("solver reported completion"));
        }
        Err(CodingError::DecodeFailed)
    }

    fn validate_data(&self, data: &[Block]) -> Result<(), CodingError> {
        if data.len() != self.k {
            return Err(CodingError::InvalidParameters(format!(
                "expected {} data blocks, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].len();
        if data.iter().any(|b| b.len() != len) {
            return Err(CodingError::UnequalBlockLengths);
        }
        Ok(())
    }

    /// Replace unused coded blocks with degree-1 covers of undecoded
    /// originals, making the full graph decodable (see module docs).
    fn repair(&mut self, missing: &[u32], unused: &[usize]) {
        if missing.is_empty() {
            return;
        }
        assert!(
            unused.len() >= missing.len(),
            "peeling invariant: unused ({}) >= missing ({}) when N >= K",
            unused.len(),
            missing.len()
        );
        // Rebuild CSR with the replacements.
        let replacements: std::collections::HashMap<usize, u32> = unused
            .iter()
            .copied()
            .zip(missing.iter().copied())
            .collect();
        self.repairs = replacements.len();
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut adjacency = Vec::with_capacity(self.adjacency.len());
        offsets.push(0u32);
        for j in 0..self.n {
            if let Some(&orig) = replacements.get(&j) {
                adjacency.push(orig);
            } else {
                adjacency.extend_from_slice(self.neighbors(j));
            }
            offsets.push(adjacency.len() as u32);
        }
        self.offsets = offsets;
        self.adjacency = adjacency;
    }

    /// Full decodability check by index peeling (used in tests/debug).
    pub fn check_decodable(&self) -> bool {
        let mut probe = SymbolDecoder::new(self);
        for j in 0..self.n {
            if probe.receive(j) {
                return true;
            }
        }
        false
    }
}

/// Generate one candidate coding graph in CSR form.
///
/// Degrees come from the robust Soliton distribution; neighbours are
/// consumed from successive random permutations of the originals (the
/// uniform-coverage improvement). A coded block whose span crosses a
/// permutation boundary skips duplicates, so neighbour sets stay distinct.
fn generate_graph(
    k: usize,
    n: usize,
    soliton: &RobustSoliton,
    seq: &SeedSequence,
    attempt: u64,
) -> (Vec<u32>, Vec<u32>) {
    let mut deg_rng = seq.fork("lt-degree", attempt);
    let mut perm_rng = seq.fork("lt-perm", attempt);

    let mut perm: Vec<u32> = (0..k as u32).collect();
    perm.shuffle(&mut perm_rng);
    let mut cursor = 0usize;

    let mut offsets = Vec::with_capacity(n + 1);
    let mut adjacency: Vec<u32> = Vec::with_capacity(n * 6);
    offsets.push(0u32);

    let mut scratch: Vec<u32> = Vec::with_capacity(16);
    for _ in 0..n {
        let d = soliton.sample(&mut deg_rng);
        scratch.clear();
        while scratch.len() < d {
            if cursor == k {
                perm.shuffle(&mut perm_rng);
                cursor = 0;
            }
            let cand = perm[cursor];
            cursor += 1;
            // Duplicates only possible across a permutation boundary.
            if !scratch.contains(&cand) {
                scratch.push(cand);
            }
        }
        scratch.sort_unstable();
        adjacency.extend_from_slice(&scratch);
        offsets.push(adjacency.len() as u32);
    }
    (offsets, adjacency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use robustore_simkit::SeedSequence;

    fn make_data(k: usize, len: usize) -> Vec<Block> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + 1) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn plan_is_deterministic() {
        let a = LtCode::plan(64, 256, LtParams::default(), 99).unwrap();
        let b = LtCode::plan(64, 256, LtParams::default(), 99).unwrap();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.adjacency, b.adjacency);
        let c = LtCode::plan(64, 256, LtParams::default(), 100).unwrap();
        assert_ne!(a.adjacency, c.adjacency);
    }

    #[test]
    fn planned_graph_is_decodable() {
        for seed in 0..10 {
            let code = LtCode::plan(128, 192, LtParams::default(), seed).unwrap();
            assert!(code.check_decodable(), "seed {seed}");
        }
    }

    #[test]
    fn tight_n_equals_k_still_decodable_via_repair() {
        // N = K gives stock LT codes a near-zero decode probability; the
        // guarantee must come from repair.
        for seed in 0..5 {
            let code = LtCode::plan(64, 64, LtParams::default(), seed).unwrap();
            assert!(code.check_decodable(), "seed {seed}");
        }
    }

    #[test]
    fn roundtrip_all_blocks() {
        let code = LtCode::plan(32, 128, LtParams::default(), 7).unwrap();
        let data = make_data(32, 64);
        let coded = code.encode(&data).unwrap();
        let rx: Vec<_> = coded.into_iter().enumerate().collect();
        assert_eq!(code.decode(rx).unwrap(), data);
    }

    #[test]
    fn roundtrip_random_subset() {
        let code = LtCode::plan(64, 256, LtParams::default(), 11).unwrap();
        let data = make_data(64, 32);
        let mut coded: Vec<Option<Block>> =
            code.encode(&data).unwrap().into_iter().map(Some).collect();
        let mut order: Vec<usize> = (0..code.n()).collect();
        let mut rng = SeedSequence::new(5).fork("order", 0);
        order.shuffle(&mut rng);
        // Shuffled arrival, blocks moved (not cloned) into the decode call.
        let rx: Vec<_> = order
            .iter()
            .map(|&j| (j, coded[j].take().unwrap()))
            .collect();
        assert_eq!(code.decode(rx).unwrap(), data);
    }

    #[test]
    fn decode_uses_only_a_prefix() {
        // With 4x redundancy, decoding should complete well before all
        // blocks are consumed — this is the whole point of RobuSTore.
        let code = LtCode::plan(128, 512, LtParams::default(), 13).unwrap();
        let data = make_data(128, 16);
        let coded = code.encode(&data).unwrap();
        let mut order: Vec<usize> = (0..code.n()).collect();
        let mut rng = SeedSequence::new(6).fork("order", 0);
        order.shuffle(&mut rng);

        let mut coded: Vec<Option<Block>> = coded.into_iter().map(Some).collect();
        let mut dec = LtDecoder::new(&code, 16);
        let mut used = 0;
        for &j in &order {
            used += 1;
            if dec.receive(j, coded[j].take().unwrap()) {
                break;
            }
        }
        assert!(dec.is_complete());
        assert!(
            used < code.n(),
            "decode should not need every block (used {used} of {})",
            code.n()
        );
        // Reception overhead should be well under 100% for K=128.
        assert!(
            (used as f64) < 2.0 * code.k() as f64,
            "reception overhead too high: {used} blocks for K={}",
            code.k()
        );
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn encode_block_matches_bulk_encode() {
        let code = LtCode::plan(16, 48, LtParams::default(), 3).unwrap();
        let data = make_data(16, 24);
        let bulk = code.encode(&data).unwrap();
        let mut scratch = vec![0xAAu8; 24]; // dirty: encode_into must clear it
        for (j, block) in bulk.iter().enumerate() {
            assert_eq!(&code.encode_block(&data, j), block, "block {j}");
            code.encode_block_into(&data, j, &mut scratch);
            assert_eq!(&scratch, block, "encode_block_into block {j}");
        }
    }

    #[test]
    fn for_k_puts_the_spike_on_degree_three() {
        for k in [2usize, 4, 24, 50, 64, 256, 512, 1024, 4096] {
            let p = LtParams::for_k(k);
            assert_eq!(p.delta, 0.9, "K = {k}");
            assert!(p.c >= 0.5, "K = {k}: C {}", p.c);
            let kf = k as f64;
            let spike = kf / (p.c * (kf / p.delta).ln() * kf.sqrt());
            if p.c > 0.5 {
                assert!((3.0..4.0).contains(&spike), "K = {k}: spike {spike}");
            }
        }
        for k in 5..24 {
            assert_eq!(LtParams::for_k(k), LtParams::default(), "K = {k}");
        }
        // Every K the store writes plans on the first attempt.
        for k in [2usize, 24, 64, 256] {
            let code = LtCode::plan(k, 3 * k, LtParams::for_k(k), 1).unwrap();
            assert_eq!((code.attempts(), code.repairs()), (1, 0), "K = {k}");
        }
    }

    #[test]
    fn copy_first_encode_matches_the_fill_then_xor_reference() {
        let code = LtCode::plan(256, 768, LtParams::for_k(256), 5).unwrap();
        let data = make_data(256, 100);
        let reference = |j: usize| {
            let mut acc = vec![0u8; 100];
            for &i in code.neighbors(j) {
                for (a, b) in acc.iter_mut().zip(&data[i as usize]) {
                    *a ^= b;
                }
            }
            acc
        };
        let mut covered = [false; 3];
        let mut out = vec![0x5Au8; 100];
        for j in 0..code.n() {
            let class = match code.degree(j) {
                1 => 0,
                2 => 1,
                d if d >= 8 => 2,
                _ => continue,
            };
            covered[class] = true;
            code.encode_block_into(&data, j, &mut out);
            assert_eq!(out, reference(j), "block {j}, degree {}", code.degree(j));
        }
        assert_eq!(covered, [true; 3], "degrees 1, 2 and >= 8 all exercised");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn encode_block_into_rejects_wrong_buffer() {
        let code = LtCode::plan(4, 8, LtParams::default(), 3).unwrap();
        let data = make_data(4, 16);
        code.encode_block_into(&data, 0, &mut [0u8; 15]);
    }

    #[test]
    fn uniform_coverage_property() {
        // The §5.2.3 improvement: original degrees are near-uniform. Check
        // max-min spread is small relative to the mean.
        let code = LtCode::plan(256, 1024, LtParams::default(), 21).unwrap();
        let mut deg = vec![0usize; 256];
        for j in 0..code.n() {
            for &i in code.neighbors(j) {
                deg[i as usize] += 1;
            }
        }
        let min = *deg.iter().min().unwrap();
        let max = *deg.iter().max().unwrap();
        let mean = code.mean_original_degree();
        assert!(min > 0, "every original must be covered");
        assert!(
            (max - min) as f64 <= mean.max(4.0),
            "coverage spread too wide: min {min}, max {max}, mean {mean:.1}"
        );
    }

    #[test]
    fn neighbors_are_sorted_distinct() {
        let code = LtCode::plan(64, 256, LtParams::default(), 17).unwrap();
        for j in 0..code.n() {
            let nb = code.neighbors(j);
            assert!(!nb.is_empty());
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "block {j}: {nb:?}");
            assert!(nb.iter().all(|&i| (i as usize) < code.k()));
        }
    }

    #[test]
    fn blocks_touching_inverts_neighbors() {
        let code = LtCode::plan(16, 64, LtParams::default(), 23).unwrap();
        for orig in 0..code.k() {
            for j in code.blocks_touching(orig) {
                assert!(code.neighbors(j).contains(&(orig as u32)));
            }
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LtCode::plan(0, 10, LtParams::default(), 1).is_err());
        assert!(LtCode::plan(10, 5, LtParams::default(), 1).is_err());
    }

    #[test]
    fn decode_failed_with_too_few_blocks() {
        let code = LtCode::plan(32, 128, LtParams::default(), 31).unwrap();
        let data = make_data(32, 8);
        let coded = code.encode(&data).unwrap();
        // Only 10 blocks cannot cover 32 originals.
        let rx: Vec<_> = coded.into_iter().enumerate().take(10).collect();
        assert_eq!(code.decode(rx), Err(CodingError::DecodeFailed));
    }

    #[test]
    fn stock_plan_lacks_the_guarantees() {
        // Stock graphs at N = K are almost never decodable, and original
        // coverage is uneven — the reasons §5.2.3 exists. Improved plans
        // of the same shape always decode.
        let mut stock_failures = 0;
        for seed in 0..20 {
            let stock = LtCode::plan_stock(64, 64, LtParams::default(), seed).unwrap();
            if !stock.check_decodable() {
                stock_failures += 1;
            }
            let improved = LtCode::plan(64, 64, LtParams::default(), seed).unwrap();
            assert!(improved.check_decodable(), "seed {seed}");
        }
        assert!(
            stock_failures > 10,
            "stock LT at N=K should usually fail ({stock_failures}/20 failed)"
        );
    }

    #[test]
    fn stock_plan_decodes_with_ample_redundancy() {
        // With 3x blocks, stock graphs usually decode — the communication
        // setting they were designed for.
        let mut ok = 0;
        for seed in 0..40 {
            let stock = LtCode::plan_stock(64, 192, LtParams::default(), seed).unwrap();
            if stock.check_decodable() {
                ok += 1;
            }
        }
        assert!(
            ok >= 30,
            "stock LT with 3x blocks should usually decode ({ok}/40)"
        );
    }

    #[test]
    fn update_cost_is_fraction_of_total() {
        // §4.3.4: updating one original touches ~mean_original_degree coded
        // blocks, a small fraction of N.
        let code = LtCode::plan(256, 1024, LtParams::default(), 41).unwrap();
        let touched = code.blocks_touching(0).len();
        assert!(touched >= 1);
        assert!(
            (touched as f64) < code.n() as f64 * 0.1,
            "update to one original should touch <10% of coded blocks, touched {touched}"
        );
    }
}
