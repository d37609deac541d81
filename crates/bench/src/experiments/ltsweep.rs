//! `xp lt-sweep`: how the robust Soliton's (C, δ) shape the codes the
//! store writes, at the K its files have.
//!
//! Index-only: every column comes from peeling and GF(2) rank over the
//! coding graph, with no bytes moved. Each code is laid out the way the
//! store lays out a file over 8 equal disks at N = 3K — the paired fill,
//! [`Placement::coded_weighted`] — and measured four ways:
//!
//! * **decode point** — blocks a peeling decode needs, as a multiple of
//!   K, when the blocks arrive in a quiescent read's order (the static
//!   schedule, as `tests/layout_coverage.rs` reads);
//! * **mean degree** — mean coded-block degree, the XORs a write does per
//!   block;
//! * **random loss** — codes left rank-deficient after losing a random
//!   25 % or 28 % of their blocks ([`LOSS_PATTERNS`] patterns per code);
//! * **disk loss** — codes left rank-deficient by every 2-of-8 and 3-of-8
//!   set of lost disks.
//!
//! Code seeds are `1..=codes` for every (C, δ), and the loss patterns
//! depend on the seed alone, so rows of one K compare paired.
//! [`LtParams::for_k`] was chosen from this table.

use rand::seq::SliceRandom;
use robustore_erasure::lt::{blocks_needed, LtCode, SymbolDecoder};
use robustore_erasure::LtParams;
use robustore_schemes::placement::Placement;
use robustore_schemes::{AdaptiveReadPolicy, WaveSlot};
use robustore_simkit::report::Table;
use robustore_simkit::SeedSequence;

/// Disks each code spreads over.
pub const DISKS: usize = 8;
/// Random loss patterns drawn per code and loss fraction.
pub const LOSS_PATTERNS: u64 = 16;
/// Random loss fractions: a quarter of the blocks, and the 28 % a
/// `chaos_read` scrub round loses.
pub const LOSS_FRACTIONS: [f64; 2] = [0.25, 0.28];
/// Codes per row in a full run.
pub const CODES: u64 = 300;

/// One (K, C, δ) row, over `codes` code seeds.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The degree distribution's parameters.
    pub params: LtParams,
    /// Mean peeling decode point in the quiescent read order, × K.
    pub decode_mean: f64,
    /// 99th percentile of the decode point, × K.
    pub decode_p99: f64,
    /// Mean coded-block degree.
    pub mean_degree: f64,
    /// Undecodable after each of [`LOSS_FRACTIONS`], out of
    /// `codes · LOSS_PATTERNS`.
    pub lost_random: [usize; 2],
    /// Undecodable after every 2-of-8 and every 3-of-8 disk loss, out of
    /// `codes · 28` and `codes · 56`.
    pub lost_disks: [usize; 2],
}

impl SweepRow {
    /// The loss columns, in table order.
    pub fn losses(&self) -> [usize; 4] {
        [
            self.lost_random[0],
            self.lost_random[1],
            self.lost_disks[0],
            self.lost_disks[1],
        ]
    }
}

/// Coded ids in the order a quiescent read over equal disks receives them.
fn read_order(p: &Placement) -> Vec<usize> {
    let slots: Vec<WaveSlot> = p
        .per_disk
        .iter()
        .enumerate()
        .map(|(disk, ids)| WaveSlot {
            disk,
            blocks: ids.len(),
            nominal_micros: 1000.0,
            availability: 0.99,
        })
        .collect();
    AdaptiveReadPolicy::static_schedule(&slots)
        .order
        .into_iter()
        .map(|(slot, idx)| p.per_disk[slot][idx].semantic as usize)
        .collect()
}

/// Every `lost`-of-[`DISKS`] set, as a bitmask over the slots.
fn disk_sets(lost: u32) -> Vec<u32> {
    (0u32..1 << DISKS)
        .filter(|m| m.count_ones() == lost)
        .collect()
}

fn solvable(code: &LtCode, survivors: impl IntoIterator<Item = usize>) -> bool {
    let mut dec = SymbolDecoder::new(code);
    for j in survivors {
        if dec.receive(j) {
            return true;
        }
    }
    dec.solvable()
}

/// Measure `params` at `k` over code seeds `1..=codes`.
pub fn measure(k: usize, params: LtParams, codes: u64) -> SweepRow {
    let n = 3 * k;
    let placement = Placement::coded_weighted(k, n, &[1.0; DISKS]);
    let order = read_order(&placement);
    let disk_of: Vec<usize> = {
        let mut d = vec![0; n];
        for (slot, ids) in placement.per_disk.iter().enumerate() {
            for b in ids {
                d[b.semantic as usize] = slot;
            }
        }
        d
    };
    let disk_losses = [disk_sets(2), disk_sets(3)];

    let mut points = Vec::with_capacity(codes as usize);
    let mut degree_sum = 0.0;
    let mut lost_random = [0; 2];
    let mut lost_disks = [0; 2];
    for seed in 1..=codes {
        let code = LtCode::plan(k, n, params, seed).expect("N >= K plans");
        let (needed, _) = blocks_needed(&code, order.iter().copied()).expect("all N decode");
        points.push(needed as f64 / k as f64);
        degree_sum += code.edge_count() as f64 / n as f64;

        let seq = SeedSequence::new(seed);
        for (f, &fraction) in LOSS_FRACTIONS.iter().enumerate() {
            let keep = n - (fraction * n as f64).round() as usize;
            for pattern in 0..LOSS_PATTERNS {
                let mut ids: Vec<usize> = (0..n).collect();
                ids.shuffle(&mut seq.fork("lt-sweep-loss", (f as u64) << 32 | pattern));
                lost_random[f] += usize::from(!solvable(&code, ids[..keep].iter().copied()));
            }
        }
        for (lost, sets) in lost_disks.iter_mut().zip(&disk_losses) {
            for &set in sets {
                let alive = (0..n).filter(|&j| set >> disk_of[j] & 1 == 0);
                *lost += usize::from(!solvable(&code, alive));
            }
        }
    }
    points.sort_by(f64::total_cmp);
    let p99 = points[((points.len() as f64 * 0.99).ceil() as usize).max(1) - 1];
    SweepRow {
        params,
        decode_mean: points.iter().sum::<f64>() / points.len() as f64,
        decode_p99: p99,
        mean_degree: degree_sum / codes as f64,
        lost_random,
        lost_disks,
    }
}

/// The K the sweep prints: the store's small-file and default-file
/// sizes, and the paper's K = 512 and 1024 where the default is tuned.
const SWEEP_K: [usize; 16] = [
    2, 4, 8, 12, 16, 24, 32, 44, 64, 96, 128, 192, 256, 384, 512, 1024,
];

/// Alternatives printed beside the default and the rule.
const GRID: [(f64, f64); 5] = [(0.5, 0.5), (0.5, 0.9), (0.8, 0.9), (1.0, 0.9), (1.5, 0.9)];

/// `xp lt-sweep`: the per-(K, C, δ) table.
pub fn lt_sweep(trials: u64) -> String {
    let codes = if trials <= 1 { 10 } else { CODES };
    let mut table = Table::new(
        format!(
            "LT degree distribution by K: {codes} codes per row, N = 3K on {DISKS} equal disks (paired fill)"
        ),
        &[
            "K",
            "C",
            "delta",
            "rule",
            "decode mean (xK)",
            "decode p99 (xK)",
            "mean degree",
            "lost 25%",
            "lost 28%",
            "lost 2-of-8",
            "lost 3-of-8",
        ],
    );
    for k in SWEEP_K {
        let rule = LtParams::for_k(k);
        let mut candidates = if rule == LtParams::default() {
            vec![(rule, "default = for_k")]
        } else {
            vec![(LtParams::default(), "default"), (rule, "for_k")]
        };
        for (c, delta) in GRID {
            let p = LtParams {
                c,
                delta,
                ..Default::default()
            };
            if candidates.iter().all(|(q, _)| *q != p) {
                candidates.push((p, ""));
            }
        }
        for (params, label) in candidates {
            let r = measure(k, params, codes);
            table.row(vec![
                k.to_string(),
                format!("{:.3}", params.c),
                format!("{:.2}", params.delta),
                label.to_string(),
                format!("{:.3}", r.decode_mean),
                format!("{:.2}", r.decode_p99),
                format!("{:.2}", r.mean_degree),
                format!("{}/{}", r.lost_random[0], codes * LOSS_PATTERNS),
                format!("{}/{}", r.lost_random[1], codes * LOSS_PATTERNS),
                format!("{}/{}", r.lost_disks[0], codes * 28),
                format!("{}/{}", r.lost_disks[1], codes * 56),
            ]);
        }
    }
    let mut out = table.render();
    out.push_str(
        "\nDecode points peel in a quiescent read's arrival order; loss columns count codes \
         whose surviving blocks are rank-deficient over GF(2) (no decoder recovers them). \
         Code seeds 1..=codes in every row, so rows of one K are paired.\n",
    );
    out
}
