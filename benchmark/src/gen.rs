//! Seeded input generation: payloads, operation order, Poisson arrivals.
//!
//! Everything the program under test receives derives from `--seed`
//! through [`SeedSequence`]; the same seed gives the same inputs.

use robustore_simkit::rng::{exponential, uniform01};
use robustore_simkit::SeedSequence;

/// FNV-1a over 64-bit little-endian words (tail bytes one at a time):
/// enough to catch any wrong byte, an eighth of the byte-wise cost.
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// A generated payload with the digest every read-back is checked against.
pub struct Payload {
    pub bytes: Vec<u8>,
    pub digest: u64,
}

/// `count` incompressible payloads of `len` bytes from stream `label`.
pub fn payloads(seq: &SeedSequence, label: &str, count: usize, len: usize) -> Vec<Payload> {
    (0..count)
        .map(|i| {
            // SplitMix64 keyed by the stream seed: 8 bytes per step.
            let mut state = seq.seed_for(label, i as u64);
            let mut bytes = Vec::with_capacity(len + 8);
            while bytes.len() < len {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                bytes.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
            }
            bytes.truncate(len);
            let digest = digest(&bytes);
            Payload { bytes, digest }
        })
        .collect()
}

/// One open-loop access: when it is due and which file it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arrival {
    pub due_us: u64,
    pub file: u32,
}

/// Poisson arrivals at `rate` per second over `[0, horizon_s)`, each
/// reading a file drawn uniformly from `files`.
pub fn arrivals(
    seq: &SeedSequence,
    label: &str,
    rate: f64,
    horizon_s: f64,
    files: u32,
) -> Vec<Arrival> {
    let mut gaps = seq.fork(label, 0);
    let mut picks = seq.fork(label, 1);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        at += exponential(&mut gaps, 1e6 / rate);
        if at >= horizon_s * 1e6 {
            return out;
        }
        out.push(Arrival {
            due_us: at as u64,
            file: (uniform01(&mut picks) * files as f64) as u32,
        });
    }
}

/// Cut a schedule into hand-over batches of `min..=max` accesses, ending
/// a batch early at the first inter-arrival gap of at least `gap_us`: the
/// previous batch has then almost always drained before the next one is
/// due, so the hand-over itself adds no delay. Returns end indices.
pub fn batch_ends(schedule: &[Arrival], min: usize, max: usize, gap_us: u64) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut start = 0;
    while start < schedule.len() {
        let hard = (start + max).min(schedule.len());
        let end = (start + min..hard)
            .find(|&i| schedule[i].due_us - schedule[i - 1].due_us >= gap_us)
            .unwrap_or(hard);
        ends.push(end);
        start = end;
    }
    ends
}

/// One operation of the small-files mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixOp {
    Read,
    Create,
    Overwrite,
    Delete,
}

/// The seeded small-files operation stream of one thread: 50 % read,
/// 20 % create, 10 % overwrite, 20 % delete, each with a uniform draw
/// the caller maps onto its live (or free) keys and its payload pool.
pub struct MixStream {
    rng: robustore_simkit::SimRng,
}

impl MixStream {
    pub fn new(seq: &SeedSequence, thread: usize) -> Self {
        MixStream {
            rng: seq.fork("mix", thread as u64),
        }
    }

    /// Next `(op, key draw, payload draw)`, draws uniform in `[0, 1)`.
    pub fn next_op(&mut self) -> (MixOp, f64, f64) {
        let op = match uniform01(&mut self.rng) {
            x if x < 0.5 => MixOp::Read,
            x if x < 0.7 => MixOp::Create,
            x if x < 0.8 => MixOp::Overwrite,
            _ => MixOp::Delete,
        };
        (op, uniform01(&mut self.rng), uniform01(&mut self.rng))
    }
}

/// Hash of everything a seed determines for the open-loop and mixed
/// workloads (self-test: same seed, same inputs; other seed, other inputs).
pub fn input_fingerprint(seed: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let seq = SeedSequence::new(seed);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    arrivals(&seq, "arrivals", 150.0, 4.0, 16).hash(&mut h);
    let mut mix = MixStream::new(&seq, 0);
    for _ in 0..4096 {
        let (op, key, payload) = mix.next_op();
        (op, key.to_bits(), payload.to_bits()).hash(&mut h);
    }
    payloads(&seq, "payload", 2, 4096)
        .iter()
        .for_each(|p| p.digest.hash(&mut h));
    h.finish()
}
