//! Coding experiments: Table 5-1, Figure 4-1, Figures 5-1/5-2/5-3, and
//! the kernel benchmark behind them (`bench-coding`).

use std::time::Instant;

use rand::seq::SliceRandom;
use robustore_erasure::analysis::{
    coded_reassembly_cdf, lt_reassembly_mc, mean_blocks_needed, replication_reassembly_cdf,
};
use robustore_erasure::lt::{blocks_needed, LtCode, LtDecoder};
use robustore_erasure::simd::{self, SimdLevel};
use robustore_erasure::{kernels, LtParams, ReedSolomon};
use robustore_simkit::report::Table;
use robustore_simkit::{OnlineStats, SeedSequence};

use crate::{write_rows, Cell, MASTER_SEED};

/// Table 5-1: Reed–Solomon encode/decode bandwidth for 16 MB of data at
/// K ∈ {4, 8, 16, 32}, N = 2K. The paper's numbers (2.4 GHz Xeon) show
/// bandwidth ∝ 1/K; the absolute level depends on the host CPU.
pub fn table5_1(_trials: u64) -> String {
    let mut table = Table::new(
        "Table 5-1: Reed-Solomon coding bandwidth, 16 MB data (paper: 2.4 GHz Xeon)",
        &["K", "N", "encode (MB/s)", "decode (MB/s)"],
    );
    const DATA: usize = 16 << 20;
    for k in [4usize, 8, 16, 32] {
        let n = 2 * k;
        let rs = ReedSolomon::new(k, n).expect("valid parameters");
        let block = DATA / k;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..block).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();

        // Wall-clock best-of-3: single timings on a shared host jitter
        // enough to scramble the K ordering the table exists to show.
        let (mut enc_bw, mut dec_bw) = (0f64, 0f64);
        for rep in 0..3 {
            let t = Instant::now();
            let coded = rs.encode(&data).expect("encode");
            enc_bw = enc_bw.max(DATA as f64 / t.elapsed().as_secs_f64() / 1e6);

            // Decode from the last K blocks (forces a real matrix solve).
            let rx: Vec<_> = (k..2 * k).map(|i| (i, coded[i].clone())).collect();
            let t = Instant::now();
            let decoded = rs.decode(&rx).expect("decode");
            dec_bw = dec_bw.max(DATA as f64 / t.elapsed().as_secs_f64() / 1e6);
            if rep == 0 {
                assert_eq!(decoded, data);
            }
        }

        table.row(vec![
            k.to_string(),
            n.to_string(),
            format!("{enc_bw:.1}"),
            format!("{dec_bw:.1}"),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nShape check: bandwidth should fall ~2x per K doubling (cost quadratic in K).\n",
    );
    out
}

/// The five kernel operations `bench-coding` times one at a time.
#[derive(Clone, Copy)]
enum KernelOp {
    Xor,
    Axpy,
    AxpyMulti,
    Scale,
    Crc32c,
}

impl KernelOp {
    const ALL: [(KernelOp, &'static str); 5] = [
        (KernelOp::Xor, "xor_into"),
        (KernelOp::Axpy, "gf_axpy"),
        (KernelOp::AxpyMulti, "gf_axpy_multi"),
        (KernelOp::Scale, "gf_scale"),
        (KernelOp::Crc32c, "crc32c"),
    ];

    /// Run the operation once on the scalar reference (`None`) or pinned
    /// to a tier; the single-source ops use `srcs[0]`, and CRC32C digests
    /// it (through `black_box`, so a pure digest of unchanged bytes is
    /// recomputed every call).
    fn run(self, kernel: Option<SimdLevel>, acc: &mut [u8], srcs: &[(u8, &[u8])]) {
        use std::hint::black_box;
        let (coef, src) = srcs[0];
        match (self, kernel) {
            (KernelOp::Crc32c, None) => {
                black_box(kernels::crc32c_scalar(black_box(src)));
            }
            (KernelOp::Crc32c, Some(t)) => {
                black_box(simd::crc32c_at(t, black_box(src)));
            }
            (KernelOp::Xor, None) => kernels::xor_into_scalar(acc, src),
            (KernelOp::Xor, Some(t)) => simd::xor_into_at(t, acc, src),
            (KernelOp::Axpy, None) => kernels::gf_axpy_scalar(acc, coef, src),
            (KernelOp::Axpy, Some(t)) => simd::gf_axpy_at(t, acc, coef, src),
            (KernelOp::AxpyMulti, None) => kernels::gf_axpy_multi_scalar(acc, srcs),
            (KernelOp::AxpyMulti, Some(t)) => simd::gf_axpy_multi_at(t, acc, srcs),
            (KernelOp::Scale, None) => kernels::gf_scale_scalar(acc, coef),
            (KernelOp::Scale, Some(t)) => simd::gf_scale_at(t, acc, coef),
        }
    }
}

/// Kernel benchmark, in two parts on identical inputs. (a) What the
/// ladder is made of: each kernel operation (`gf_axpy_multi` over K=32
/// sources; `crc32c` digesting one block) on a small and a large block,
/// for the scalar reference and every tier this host supports, pinned
/// through the `*_at` entry points.
/// (b) What the codes get from it: RS and LT encode/decode bandwidth on
/// the tier the dispatchers picked. Writes machine-readable rows to
/// `BENCH_coding.json` — `{kernel, op, bytes, mbps, host}` for (a),
/// `{kernel, code, k, encode_mbps, decode_mbps, host}` for (b) — alongside
/// the rendered tables, so the numbers in `EXPERIMENTS.md` are backed by
/// same-host data. `--quick` (or `--trials 1`) shrinks the data sizes for
/// CI smoke runs.
pub fn bench_coding(trials: u64) -> String {
    use robustore_erasure::{Block, BlockPool};

    let quick = trials <= 1;
    // Wall-clock best-of: the host is shared, so single timings jitter by
    // ±15%; five reps reliably capture the uncontended rate.
    let reps = trials.clamp(1, 5);
    let rs_bytes: usize = if quick { 2 << 20 } else { 16 << 20 };
    let lt_block: usize = if quick { 4 << 10 } else { 64 << 10 };
    let op_lens: [usize; 2] = if quick {
        [4 << 10, 32 << 10]
    } else {
        [64 << 10, 512 << 10]
    };
    // Source bytes pushed through an operation per timing.
    let op_bytes: usize = if quick { 1 << 20 } else { 16 << 20 };
    const MULTI_SOURCES: usize = 32;
    let seq = SeedSequence::new(MASTER_SEED ^ 0xBE7C);

    // (b) Whole-code rows, on the tier every caller of the codes gets.
    // Measured first: RS encode clones multi-MB blocks inside its timed
    // region, and run after the per-operation section it reads up to 40%
    // lower (K=4: ~590 vs ~900-1100 MB/s here) for the state that section
    // leaves the allocator in — nothing to do with the kernels.
    struct CodeRow {
        code: &'static str,
        k: usize,
        encode_mbps: f64,
        decode_mbps: f64,
    }
    let dispatched = format!("{:?}", kernels::active_kernel());
    let mut code_rows: Vec<CodeRow> = Vec::new();

    // Reed–Solomon: dense GF(256) arithmetic — the axpy/scale kernels.
    for k in [4usize, 8, 16, 32] {
        let n = 2 * k;
        let rs = ReedSolomon::new(k, n).expect("valid parameters");
        let block = rs_bytes / k;
        let data: Vec<Block> = (0..k)
            .map(|i| (0..block).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let mb = rs_bytes as f64 / 1e6;
        let (mut enc, mut dec) = (0f64, 0f64);
        for rep in 0..reps {
            let t = Instant::now();
            let coded = rs.encode(&data).expect("encode");
            enc = enc.max(mb / t.elapsed().as_secs_f64());
            // Decode from the last K blocks (forces a real matrix solve).
            let rx: Vec<_> = (k..2 * k).map(|i| (i, coded[i].clone())).collect();
            let t = Instant::now();
            let decoded = rs.decode(&rx).expect("decode");
            dec = dec.max(mb / t.elapsed().as_secs_f64());
            if rep == 0 {
                assert_eq!(decoded, data);
            }
        }
        code_rows.push(CodeRow {
            code: "rs",
            k,
            encode_mbps: enc,
            decode_mbps: dec,
        });
    }

    // LT: pure XOR — the wide-XOR kernel. Coded buffers come from a
    // BlockPool and every one returns to it, so reps after the first
    // are allocation-free (the zero-copy receive path end to end).
    for k in [128usize, 256, 512, 1024] {
        let n = 3 * k;
        let code = LtCode::plan(k, n, LtParams::default(), seq.seed_for("lt-plan", k as u64))
            .expect("valid parameters");
        let data: Vec<Block> = (0..k)
            .map(|i| (0..lt_block).map(|j| ((i + j * 13) % 256) as u8).collect())
            .collect();
        let mb = (k * lt_block) as f64 / 1e6;
        let mut pool = BlockPool::new(lt_block);
        let (mut enc, mut dec) = (0f64, 0f64);
        for rep in 0..reps {
            let t = Instant::now();
            let mut coded: Vec<Option<Block>> = (0..n)
                .map(|j| {
                    let mut b = pool.get_scratch();
                    code.encode_block_into(&data, j, &mut b);
                    Some(b)
                })
                .collect();
            enc = enc.max(mb / t.elapsed().as_secs_f64());

            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("lt-order", (k as u64) << 8 | rep));
            let t = Instant::now();
            let mut ltdec = LtDecoder::new(&code, lt_block);
            for &j in &order {
                if ltdec.receive(j, coded[j].take().unwrap()) {
                    break;
                }
            }
            dec = dec.max(mb / t.elapsed().as_secs_f64());
            assert!(ltdec.is_complete());
            pool.put_all(ltdec.drain_spares());
            pool.put_all(coded.into_iter().flatten()); // never-fed blocks
            let decoded = ltdec.into_data().expect("complete");
            if rep == 0 {
                assert_eq!(decoded, data);
            }
            pool.put_all(decoded);
        }
        code_rows.push(CodeRow {
            code: "lt",
            k,
            encode_mbps: enc,
            decode_mbps: dec,
        });
    }

    // (a) Per-operation rows. The kernels are measured back-to-back
    // *within* each configuration, not in separate sweeps: host speed
    // drifts on a minutes scale (this is a shared machine), and a ratio of
    // two measurements taken minutes apart reflects the drift, not the
    // code. A tier the CPU lacks has no row; absence from
    // BENCH_coding.json means "not measurable here", never "measured at
    // zero".
    struct OpRow<'a> {
        kernel: &'a str,
        op: &'static str,
        bytes: usize,
        mbps: f64,
    }
    let kernel_list: Vec<(Option<SimdLevel>, String)> = std::iter::once((None, "scalar".into()))
        .chain(
            SimdLevel::ALL
                .into_iter()
                .filter(|&t| simd::tier_supported(t))
                .map(|t| (Some(t), format!("{t:?}"))),
        )
        .collect();
    let mut op_rows: Vec<OpRow> = Vec::new();
    for len in op_lens {
        let sources: Vec<Block> = (0..MULTI_SOURCES)
            .map(|i| (0..len).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        // Coefficients outside {0, 1}: those are special-cased to no-op
        // and XOR, which is not what the GF rows are about.
        let srcs: Vec<(u8, &[u8])> = sources
            .iter()
            .enumerate()
            .map(|(i, s)| ((2 + 7 * i) as u8, s.as_slice()))
            .collect();
        let mut acc: Block = (0..len).map(|j| ((j * 13 + 5) % 256) as u8).collect();
        for (op, op_name) in KernelOp::ALL {
            // MB/s counts source bytes consumed, so a 32-source fused call
            // is comparable with 32 single-source ones.
            let per_call = match op {
                KernelOp::AxpyMulti => MULTI_SOURCES * len,
                _ => len,
            };
            let calls = (op_bytes / per_call).max(1);
            for (kernel, kname) in &kernel_list {
                let mut best = 0f64;
                for _ in 0..reps {
                    let t = Instant::now();
                    for _ in 0..calls {
                        op.run(*kernel, std::hint::black_box(&mut acc), &srcs);
                    }
                    best = best.max((calls * per_call) as f64 / 1e6 / t.elapsed().as_secs_f64());
                }
                op_rows.push(OpRow {
                    kernel: kname,
                    op: op_name,
                    bytes: len,
                    mbps: best,
                });
            }
        }
    }

    let host = crate::host();
    let json_rows: Vec<crate::Row> = op_rows
        .iter()
        .map(|r| {
            vec![
                ("kernel", Cell::Str(r.kernel)),
                ("op", Cell::Str(r.op)),
                ("bytes", Cell::Int(r.bytes as i64)),
                ("mbps", Cell::Fixed1(r.mbps)),
            ]
        })
        .chain(code_rows.iter().map(|r| {
            vec![
                ("kernel", Cell::Str(&dispatched)),
                ("code", Cell::Str(r.code)),
                ("k", Cell::Int(r.k as i64)),
                ("encode_mbps", Cell::Fixed1(r.encode_mbps)),
                ("decode_mbps", Cell::Fixed1(r.decode_mbps)),
            ]
        }))
        .collect();
    let json_note = write_rows("BENCH_coding.json", quick, Some(&host), &json_rows);

    // One line per (operation, block size), one column per kernel.
    let mut header: Vec<&str> = vec!["op", "block (KB)"];
    header.extend(kernel_list.iter().map(|(_, name)| name.as_str()));
    let mut ops_table = Table::new(
        format!(
            "Kernel benchmark: per-operation MB/s of source bytes, scalar reference and every supported tier ({host}; gf_axpy_multi over {MULTI_SOURCES} sources)"
        ),
        &header,
    );
    for per_config in op_rows.chunks(kernel_list.len()) {
        let mut cells = vec![
            per_config[0].op.to_string(),
            (per_config[0].bytes >> 10).to_string(),
        ];
        cells.extend(per_config.iter().map(|r| format!("{:.0}", r.mbps)));
        ops_table.row(cells);
    }
    let mut out = ops_table.render();

    let mut codes_table = Table::new(
        format!(
            "Coding bandwidth on the dispatched tier ({} MB RS / {} KB LT blocks)",
            rs_bytes >> 20,
            lt_block >> 10
        ),
        &["code", "K", "kernel", "encode (MB/s)", "decode (MB/s)"],
    );
    for r in &code_rows {
        codes_table.row(vec![
            r.code.into(),
            r.k.to_string(),
            dispatched.clone(),
            format!("{:.0}", r.encode_mbps),
            format!("{:.0}", r.decode_mbps),
        ]);
    }
    out.push('\n');
    out.push_str(&codes_table.render());
    out.push_str(&format!("\n{json_note}\n"));
    out
}

/// Figure 4-1: cumulative probability of reassembling K=1024 originals
/// from the first M of 4096 stored blocks — plain replication (exact DP),
/// the idealised degree-5 erasure code (exact occupancy chain), and real
/// LT codes (Monte Carlo over graphs and orders).
pub fn fig4_1(trials: u64) -> String {
    const K: usize = 1024;
    const STORED: usize = 4 * K;
    let replication = replication_reassembly_cdf(K, 4);
    let coded = coded_reassembly_cdf(K, 5, STORED);
    let lt = lt_reassembly_mc(K, STORED, LtParams::default(), trials as usize, MASTER_SEED);

    let mut table = Table::new(
        "Figure 4-1: P(reassembly) after M of 4096 blocks, K=1024",
        &[
            "M",
            "replication (4 copies)",
            "ideal coded (degree 5)",
            "LT codes (measured)",
        ],
    );
    for m in (1280..=3584).step_by(256) {
        table.row(vec![
            m.to_string(),
            format!("{:.4}", replication[m]),
            format!("{:.4}", coded[m]),
            format!("{:.4}", lt[m]),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nmean blocks needed: replication {:.0}, ideal coded {:.0}, LT {:.0}  (paper: ~3K vs ~1.5K)\n",
        mean_blocks_needed(&replication),
        mean_blocks_needed(&coded),
        mean_blocks_needed(&lt),
    ));
    out
}

/// Survey of every implemented erasure code (§5.2.1's comparison, widened
/// to the full Chapter-2 palette): coding bandwidth and the blocks needed
/// to reconstruct under random arrivals, measured on real data.
pub fn coding_survey(trials: u64) -> String {
    use robustore_erasure::{RaptorCode, TornadoCode};

    let k = 64usize;
    let block = 64 << 10; // 4 MB of data
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..block).map(|j| ((i * 11 + j) % 256) as u8).collect())
        .collect();
    let seq = SeedSequence::new(MASTER_SEED ^ 0xC0DE);
    let reps = trials.clamp(1, 5);

    let mut table = Table::new(
        "Coding survey: 4 MB data, K=64 blocks (rates differ by design)",
        &[
            "code",
            "N",
            "encode (MB/s)",
            "blocks to decode (of N, random order)",
        ],
    );

    // Helper to time encoding.
    let mb = (k * block) as f64 / 1e6;
    let time_encode = |f: &mut dyn FnMut() -> usize| -> (f64, usize) {
        let t = Instant::now();
        let n = f();
        (mb / t.elapsed().as_secs_f64(), n)
    };

    // Reed–Solomon (optimal, any K of N).
    {
        let rs = ReedSolomon::new(k, 2 * k).unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = rs.encode(&data).unwrap();
            coded.len()
        });
        table.row(vec![
            "Reed-Solomon".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{k} (optimal)"),
        ]);
    }
    // Improved LT.
    {
        let code = LtCode::plan(k, 4 * k, LtParams::default(), seq.seed_for("lt", 0)).unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = code.encode(&data).unwrap();
            coded.len()
        });
        let mut needed = OnlineStats::new();
        for t in 0..reps {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("lt-order", t));
            let (used, _) = blocks_needed(&code, order).unwrap();
            needed.push(used as f64);
        }
        table.row(vec![
            "LT (improved)".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{:.0}", needed.mean()),
        ]);
    }
    // Raptor.
    {
        let code = RaptorCode::plan(
            k,
            4 * k,
            0.1,
            LtParams::default(),
            seq.seed_for("raptor", 0),
        )
        .unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = code.encode(&data).unwrap();
            coded.len()
        });
        // Find blocks-needed by bisection over prefix length of a random order.
        let mut needed = OnlineStats::new();
        for t in 0..reps {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("raptor-order", t));
            let mut used = n;
            for take in k..=n {
                let rx: Vec<_> = order[..take]
                    .iter()
                    .map(|&j| (j, coded[j].clone()))
                    .collect();
                if code.decode(&rx).is_ok() {
                    used = take;
                    break;
                }
            }
            needed.push(used as f64);
        }
        table.row(vec![
            "Raptor".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{:.0}", needed.mean()),
        ]);
    }
    // Tornado (fixed rate 1-beta = 0.5).
    {
        let code = TornadoCode::new(k, 0.5, seq.seed_for("tornado", 0)).unwrap();
        let mut coded = Vec::new();
        let (bw, n) = time_encode(&mut || {
            coded = code.encode(&data).unwrap();
            coded.len()
        });
        let mut needed = OnlineStats::new();
        for t in 0..reps {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut seq.fork("tornado-order", t));
            let mut used = n;
            for take in k..=n {
                let rx: Vec<_> = order[..take]
                    .iter()
                    .map(|&j| (j, coded[j].clone()))
                    .collect();
                if code.decode(&rx).is_ok() {
                    used = take;
                    break;
                }
            }
            needed.push(used as f64);
        }
        table.row(vec![
            "Tornado".into(),
            n.to_string(),
            format!("{bw:.0}"),
            format!("{:.0}", needed.mean()),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\n§5.2.1's trade-offs on display: RS is reception-optimal but slow and rate-capped; \
         the XOR-graph codes encode at memory speed and pay 20-60% reception overhead; \
         Tornado is fixed-rate while LT/Raptor are rateless.\n",
    );
    out
}

/// The (C, δ) grid swept in Figures 5-1/5-2.
const C_GRID: [f64; 4] = [0.1, 0.5, 1.0, 2.0];
const DELTA_GRID: [f64; 4] = [0.01, 0.1, 0.5, 0.9];

fn lt_grid_stats(
    k: usize,
    c: f64,
    delta: f64,
    trials: u64,
    seq: &SeedSequence,
) -> (OnlineStats, OnlineStats) {
    let params = LtParams {
        c,
        delta,
        ..Default::default()
    };
    let n = 3 * k; // ample blocks so decoding always completes
    let mut overhead = OnlineStats::new();
    let mut edges = OnlineStats::new();
    let mut order: Vec<usize> = (0..n).collect();
    for t in 0..trials {
        let code = LtCode::plan(k, n, params, seq.seed_for("plan", t)).expect("valid params");
        let mut rng = seq.fork("order", t);
        order.shuffle(&mut rng);
        let (needed, e) = blocks_needed(&code, order.iter().copied()).expect("full set decodes");
        overhead.push(needed as f64 / k as f64 - 1.0);
        edges.push(e as f64);
    }
    (overhead, edges)
}

/// Figure 5-1: mean LT reception overhead and its relative standard
/// deviation across the (C, δ) grid for K ∈ {128, 512, 1024}.
pub fn fig5_1(trials: u64) -> String {
    let seq = SeedSequence::new(MASTER_SEED ^ 0x51);
    let mut table = Table::new(
        "Figure 5-1: LT reception overhead (mean / relative stdev)",
        &["K", "C", "delta", "overhead", "rel stdev"],
    );
    for k in [128usize, 512, 1024] {
        for &c in &C_GRID {
            for &d in &DELTA_GRID {
                let (oh, _) =
                    lt_grid_stats(k, c, d, trials, &seq.subsequence("cell", (k as u64) << 8));
                table.row(vec![
                    k.to_string(),
                    format!("{c}"),
                    format!("{d}"),
                    format!("{:.3}", oh.mean()),
                    format!("{:.3}", oh.relative_stdev()),
                ]);
            }
        }
    }
    let mut out = table.render();
    out.push_str("\nPaper: good (C, delta) settings reach overhead 0.3-0.5; e.g. K=1024, C=1, delta=0.1 -> ~0.5.\n");
    out
}

/// Figure 5-2: mean edges used during decoding (XOR-cost proxy) and its
/// relative stdev, K = 1024.
pub fn fig5_2(trials: u64) -> String {
    let seq = SeedSequence::new(MASTER_SEED ^ 0x52);
    let k = 1024usize;
    let mut table = Table::new(
        "Figure 5-2: edges used in LT decoding, K=1024 (mean / relative stdev)",
        &["C", "delta", "edges", "edges/K", "rel stdev"],
    );
    for &c in &C_GRID {
        for &d in &DELTA_GRID {
            let (_, edges) = lt_grid_stats(
                k,
                c,
                d,
                trials,
                &seq.subsequence("cell", (c * 100.0) as u64),
            );
            table.row(vec![
                format!("{c}"),
                format!("{d}"),
                format!("{:.0}", edges.mean()),
                format!("{:.1}", edges.mean() / k as f64),
                format!("{:.3}", edges.relative_stdev()),
            ]);
        }
    }
    let mut out = table.render();
    out.push_str(
        "\nPaper: small delta / large C cost fewer edges (less CPU) but more reception overhead.\n",
    );
    out
}

/// Figure 5-3: actual decoding bandwidth (wall clock, real block data)
/// and reception overhead for representative (C, δ) points, K = 1024.
pub fn fig5_3(trials: u64) -> String {
    let seq = SeedSequence::new(MASTER_SEED ^ 0x53);
    let k = 1024usize;
    let block = 64 << 10; // 64 MB decoded per measurement
    let mut table = Table::new(
        "Figure 5-3: LT decoding bandwidth vs reception overhead, K=1024, 64 MB data",
        &["C", "delta", "decode (MB/s)", "reception overhead"],
    );
    for (c, d) in [(0.5, 0.5), (1.0, 0.5), (1.0, 0.1), (2.0, 0.1), (2.0, 0.01)] {
        let params = LtParams {
            c,
            delta: d,
            ..Default::default()
        };
        let n = 3 * k;
        let mut bw = OnlineStats::new();
        let mut oh = OnlineStats::new();
        let reps = trials.clamp(1, 5); // wall-clock measurement; few reps suffice
        for t in 0..reps {
            let code = LtCode::plan(k, n, params, seq.seed_for("plan", t)).expect("params");
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..block).map(|j| ((i + j) % 256) as u8).collect())
                .collect();
            let coded = code.encode(&data).expect("encode");
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = seq.fork("order", t);
            order.shuffle(&mut rng);

            let start = Instant::now();
            let mut dec = LtDecoder::new(&code, block);
            let mut used = 0usize;
            for &j in &order {
                used += 1;
                if dec.receive(j, coded[j].clone()) {
                    break;
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            assert!(dec.is_complete());
            bw.push((k * block) as f64 / elapsed / 1e6);
            oh.push(used as f64 / k as f64 - 1.0);
        }
        table.row(vec![
            format!("{c}"),
            format!("{d}"),
            format!("{:.0}", bw.mean()),
            format!("{:.2}", oh.mean()),
        ]);
    }
    let mut out = table.render();
    out.push_str("\nPaper (2.8 GHz Opteron): ~394 MB/s at C=1, delta=0.1 with ~0.5 overhead; ~550 MB/s at C=2, delta=0.01.\n");
    out
}
