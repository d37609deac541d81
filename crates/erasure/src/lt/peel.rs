//! Index-only peeling decoder.
//!
//! Runs the LT belief-propagation (peeling) process on block *indices*
//! without touching data — the only LT path that deliberately bypasses the
//! data kernels in [`crate::kernels`], because it moves no bytes at all.
//! Three users:
//!
//! * `LtCode::plan` — the §5.2.3 decodability check before any data XOR;
//! * the simulator — a virtual client feeds arriving block ids in and stops
//!   the access the moment decoding would complete, yielding the per-trial
//!   reception overhead exactly as the paper measures it (§6.2.5,
//!   "Erasure Coding");
//! * Figure 5-2 — `edges_used` counts the XORs a real decode would perform.
//!
//! [`SymbolDecoder::solvable`] finishes a stalled peel by GF(2) rank, so
//! `xp lt-sweep` can count which block losses leave a code undecodable.

use super::decoder::lowest_set;
use super::LtCode;

/// Peeling state over coded-block indices.
pub struct SymbolDecoder<'a> {
    code: &'a LtCode,
    /// Whether each original is decoded.
    original_decoded: Vec<bool>,
    /// For each *received, unresolved* coded block: number of undecoded
    /// neighbours remaining. `u32::MAX` marks not-yet-received.
    remaining: Vec<u32>,
    /// Whether a received coded block was consumed to decode an original.
    used: Vec<bool>,
    /// incidence[i] = received coded blocks that contain original i and are
    /// still unresolved.
    incidence: Vec<Vec<u32>>,
    decoded_count: usize,
    received_count: usize,
    edges_used: usize,
}

impl<'a> SymbolDecoder<'a> {
    /// Fresh decoder state for `code`.
    pub fn new(code: &'a LtCode) -> Self {
        SymbolDecoder {
            code,
            original_decoded: vec![false; code.k()],
            remaining: vec![u32::MAX; code.n()],
            used: vec![false; code.n()],
            incidence: vec![Vec::new(); code.k()],
            decoded_count: 0,
            received_count: 0,
            edges_used: 0,
        }
    }

    /// Feed the arrival of coded block `j`. Returns `true` once all K
    /// originals are decodable. Duplicate arrivals are ignored.
    pub fn receive(&mut self, j: usize) -> bool {
        assert!(j < self.code.n(), "coded index out of range");
        if self.is_complete() {
            return true;
        }
        if self.remaining[j] != u32::MAX {
            return false; // duplicate
        }
        self.received_count += 1;
        let mut undecoded = 0u32;
        for &i in self.code.neighbors(j) {
            if !self.original_decoded[i as usize] {
                undecoded += 1;
                self.incidence[i as usize].push(j as u32);
            }
        }
        self.remaining[j] = undecoded;
        if undecoded == 0 {
            // Everything it covers is already known; it contributes nothing.
            return self.is_complete();
        }
        if undecoded == 1 {
            self.resolve_from(j);
        }
        self.is_complete()
    }

    /// Ripple: coded block `j` has exactly one undecoded neighbour; decode
    /// it, then cascade.
    fn resolve_from(&mut self, start: usize) {
        let mut worklist = vec![start as u32];
        while let Some(j) = worklist.pop() {
            let j = j as usize;
            if self.remaining[j] != 1 {
                continue; // already cascaded past it
            }
            // Find its single undecoded neighbour.
            let target = self
                .code
                .neighbors(j)
                .iter()
                .copied()
                .find(|&i| !self.original_decoded[i as usize])
                .expect("remaining == 1 implies one undecoded neighbour");
            // A real decode XORs the coded block with its degree-1 decoded
            // neighbours: degree edges touched in total.
            self.edges_used += self.code.degree(j);
            self.used[j] = true;
            self.remaining[j] = 0;
            self.original_decoded[target as usize] = true;
            self.decoded_count += 1;
            // Newly decoded original reduces the remaining count of every
            // unresolved coded block containing it.
            let incident = std::mem::take(&mut self.incidence[target as usize]);
            for &other in &incident {
                let o = other as usize;
                if self.remaining[o] != u32::MAX && self.remaining[o] > 0 {
                    self.remaining[o] -= 1;
                    if self.remaining[o] == 1 {
                        worklist.push(other);
                    }
                }
            }
        }
    }

    /// True when every original block is decodable from what arrived.
    pub fn is_complete(&self) -> bool {
        self.decoded_count == self.code.k()
    }

    /// How many distinct coded blocks have arrived.
    pub fn received(&self) -> usize {
        self.received_count
    }

    /// How many originals are decoded so far.
    pub fn decoded(&self) -> usize {
        self.decoded_count
    }

    /// Whether original `i` is decoded.
    pub fn is_original_decoded(&self, i: usize) -> bool {
        self.original_decoded[i]
    }

    /// Whether received coded block `j` was consumed by the peel.
    pub fn was_used(&self, j: usize) -> bool {
        self.used[j]
    }

    /// Total graph edges touched by the (lazy) decode so far — the XOR-cost
    /// proxy plotted in Figure 5-2.
    pub fn edges_used(&self) -> usize {
        self.edges_used
    }

    /// Reception overhead so far: received/K − 1 (meaningful on completion).
    pub fn reception_overhead(&self) -> f64 {
        self.received_count as f64 / self.code.k() as f64 - 1.0
    }

    /// True when the received blocks determine every original: at once
    /// if the peel completed, else by GF(2) elimination over the blocks
    /// the peel left unresolved — the index-only twin of
    /// [`super::LtDecoder::solve`]. `false` means no decoder can recover
    /// the originals from what arrived (the file is lost, not just slow).
    pub fn solvable(&self) -> bool {
        if self.is_complete() {
            return true;
        }
        let mut col_of = vec![usize::MAX; self.code.k()];
        let mut unknowns = 0;
        for (col, &done) in col_of.iter_mut().zip(&self.original_decoded) {
            if !done {
                *col = unknowns;
                unknowns += 1;
            }
        }
        let words = unknowns.div_ceil(64);
        let mut pivots: Vec<Option<Vec<u64>>> = vec![None; unknowns];
        let mut rank = 0;
        for j in 0..self.code.n() {
            if self.remaining[j] == u32::MAX || self.remaining[j] == 0 {
                continue; // not received, or resolved by the peel
            }
            let mut bits = vec![0u64; words];
            for &i in self.code.neighbors(j) {
                let c = col_of[i as usize];
                if c != usize::MAX {
                    bits[c / 64] ^= 1u64 << (c % 64);
                }
            }
            while let Some(c) = lowest_set(&bits) {
                let Some(pivot) = &pivots[c] else {
                    pivots[c] = Some(bits);
                    rank += 1;
                    break;
                };
                for (b, p) in bits.iter_mut().zip(pivot) {
                    *b ^= p;
                }
            }
            if rank == unknowns {
                return true;
            }
        }
        false
    }
}

/// Feed blocks in `order` until decoding completes; returns
/// `(blocks_needed, edges_used)`, or `None` if the order never completes.
pub fn blocks_needed(
    code: &LtCode,
    order: impl IntoIterator<Item = usize>,
) -> Option<(usize, usize)> {
    let mut dec = SymbolDecoder::new(code);
    for j in order {
        if dec.receive(j) {
            return Some((dec.received(), dec.edges_used()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lt::LtParams;
    use rand::seq::SliceRandom;
    use robustore_simkit::SeedSequence;

    fn code(k: usize, n: usize, seed: u64) -> LtCode {
        LtCode::plan(k, n, LtParams::default(), seed).unwrap()
    }

    #[test]
    fn completes_in_graph_order() {
        let c = code(64, 256, 1);
        let got = blocks_needed(&c, 0..c.n());
        assert!(got.is_some());
        let (needed, edges) = got.unwrap();
        assert!(needed >= c.k());
        assert!(edges >= c.k()); // at least one edge per original
    }

    #[test]
    fn completes_in_random_order_with_sane_overhead() {
        let c = code(256, 1024, 2);
        let mut rng = SeedSequence::new(77).fork("order", 0);
        let mut overheads = Vec::new();
        for t in 0..20 {
            let mut order: Vec<usize> = (0..c.n()).collect();
            order.shuffle(&mut rng);
            let (needed, _) = blocks_needed(&c, order).unwrap_or_else(|| panic!("trial {t}"));
            overheads.push(needed as f64 / c.k() as f64 - 1.0);
        }
        let mean: f64 = overheads.iter().sum::<f64>() / overheads.len() as f64;
        // Paper: ≈0.5 at K=1024 with C=1, δ=0.5; smaller K runs higher but
        // must stay well under 1.5.
        assert!(
            (0.05..1.2).contains(&mean),
            "mean reception overhead {mean}"
        );
    }

    #[test]
    fn duplicates_do_not_count() {
        let c = code(16, 64, 3);
        let mut dec = SymbolDecoder::new(&c);
        dec.receive(0);
        dec.receive(0);
        dec.receive(0);
        assert_eq!(dec.received(), 1);
    }

    #[test]
    fn receive_after_complete_is_stable() {
        let c = code(16, 64, 4);
        let mut dec = SymbolDecoder::new(&c);
        let mut done_at = None;
        for j in 0..c.n() {
            if dec.receive(j) {
                done_at = Some(dec.received());
                break;
            }
        }
        let done_at = done_at.expect("full set must decode");
        assert!(dec.receive(0));
        assert_eq!(dec.received(), done_at, "post-completion arrivals ignored");
    }

    #[test]
    fn progress_counters_monotone() {
        let c = code(32, 128, 5);
        let mut dec = SymbolDecoder::new(&c);
        let mut last_decoded = 0;
        for j in 0..c.n() {
            dec.receive(j);
            assert!(dec.decoded() >= last_decoded);
            last_decoded = dec.decoded();
            if dec.is_complete() {
                break;
            }
        }
        assert!(dec.is_complete());
        assert_eq!(dec.decoded(), c.k());
    }

    #[test]
    fn solvable_agrees_with_the_data_decoders_elimination() {
        // Random survivor sets around the rank threshold: the index-only
        // verdict must match what `LtDecoder::solve` achieves on bytes,
        // with stalled-but-full-rank peels among the cases.
        let (k, n) = (30, 75);
        let (mut stalled_solvable, mut lost) = (0, 0);
        for seed in 0..40u64 {
            let c = code(k, n, seed);
            let coded = c.encode(&vec![vec![seed as u8; 4]; k]).unwrap();
            for pattern in 0..10u64 {
                let mut rng = SeedSequence::new(seed).fork("drop", pattern);
                let mut survivors: Vec<usize> = (0..n).collect();
                survivors.shuffle(&mut rng);
                survivors.truncate(n - 25 - pattern as usize);
                let mut probe = SymbolDecoder::new(&c);
                let mut dec = crate::lt::LtDecoder::new(&c, 4);
                let mut peeled = false;
                for &j in &survivors {
                    probe.receive(j);
                    peeled |= dec.receive(j, coded[j].clone());
                }
                let solved = peeled || dec.solve();
                assert_eq!(probe.solvable(), solved, "seed {seed} pattern {pattern}");
                stalled_solvable += usize::from(solved && !probe.is_complete());
                lost += usize::from(!solved);
            }
        }
        assert!(
            stalled_solvable > 0 && lost > 0,
            "{stalled_solvable} / {lost}"
        );
    }

    #[test]
    fn insufficient_blocks_never_complete() {
        let c = code(64, 256, 6);
        // Fewer than K blocks can never decode K originals.
        assert!(blocks_needed(&c, 0..c.k() - 1).is_none());
    }
}
