//! Differential tests pinning every kernel tier to the scalar reference.
//!
//! The acceptance bar for a tier is *bit identity* with the byte-at-a-time
//! reference on randomized inputs — coefficients, lengths (including tails
//! that are not multiples of any vector width), and alignments (slices
//! taken at arbitrary offsets into larger buffers). Each family below runs
//! its cases on every tier the host supports — the portable one included —
//! through the `*_at` entry points, so what a test compared is what its
//! source says, whatever tier the dispatchers happen to pick here. Every
//! case is seeded and therefore reproducible.

use std::sync::OnceLock;

use rand::{Rng, RngCore};
use robustore_erasure::kernels::{
    crc32c, crc32c_scalar, gf, gf_axpy, gf_axpy_multi_scalar, gf_axpy_scalar, gf_scale,
    gf_scale_scalar, xor_into, xor_into_scalar,
};
use robustore_erasure::simd::{
    crc32c_at, gf_axpy_at, gf_axpy_multi_at, gf_scale_at, level, tier_supported, xor_into_at,
    SimdLevel,
};
use robustore_erasure::ReedSolomon;
use robustore_simkit::SeedSequence;

/// The tiers this host can run. The first call reports them straight to
/// stderr, past libtest's capture, so a CI log says which tiers its runner
/// covered (GitHub runners differ in AVX-512/GFNI).
fn supported_tiers() -> &'static [SimdLevel] {
    static TIERS: OnceLock<Vec<SimdLevel>> = OnceLock::new();
    TIERS.get_or_init(|| {
        use std::io::Write;
        let tiers: Vec<SimdLevel> = SimdLevel::ALL
            .into_iter()
            .filter(|&t| tier_supported(t))
            .collect();
        let line = format!("kernel tiers: probed {:?}, exercising {tiers:?}\n", level());
        let _ = std::io::stderr().write_all(line.as_bytes());
        tiers
    })
}

/// Case generator: a (dst, src, coefficient) triple where both operands
/// are unaligned slices of random length into larger random buffers.
struct Case {
    dst_buf: Vec<u8>,
    src_buf: Vec<u8>,
    dst_off: usize,
    src_off: usize,
    len: usize,
    coef: u8,
}

impl Case {
    fn random(rng: &mut impl Rng, round: usize) -> Case {
        // Cycle through length regimes so short tails, chunk boundaries,
        // and multi-chunk bodies all appear many times.
        let len: usize = match round % 4 {
            0 => rng.gen_range(0usize..40),     // tail-only and boundary
            1 => 32 * rng.gen_range(0usize..5), // exact chunk multiples
            2 => 32 * rng.gen_range(0usize..5) + rng.gen_range(1usize..32), // body+tail
            _ => rng.gen_range(0usize..600),    // anything
        };
        let dst_off = rng.gen_range(0..32);
        let src_off = rng.gen_range(0..32);
        let mut dst_buf = vec![0u8; dst_off + len];
        let mut src_buf = vec![0u8; src_off + len];
        rng.fill_bytes(&mut dst_buf);
        rng.fill_bytes(&mut src_buf);
        Case {
            dst_buf,
            src_buf,
            dst_off,
            src_off,
            len,
            coef: rng.gen(),
        }
    }

    /// A case of exactly `len` bytes at any offset within a cache line.
    /// Draws the coefficient before the buffers, as the large-case test
    /// always has, so seed 0xA8 still yields the cases it always did.
    fn large(rng: &mut impl Rng, len: usize) -> Case {
        let dst_off = rng.gen_range(0..64);
        let src_off = rng.gen_range(0..64);
        let coef: u8 = rng.gen();
        let mut dst_buf = vec![0u8; dst_off + len];
        let mut src_buf = vec![0u8; src_off + len];
        rng.fill_bytes(&mut dst_buf);
        rng.fill_bytes(&mut src_buf);
        Case {
            dst_buf,
            src_buf,
            dst_off,
            src_off,
            len,
            coef,
        }
    }

    fn dst(&self) -> Vec<u8> {
        self.dst_buf[self.dst_off..].to_vec()
    }

    fn src(&self) -> &[u8] {
        &self.src_buf[self.src_off..]
    }
}

#[test]
fn axpy_matches_scalar_on_500_random_cases_per_tier() {
    for &tier in supported_tiers() {
        let mut rng = SeedSequence::new(0xA1).fork("axpy", 0);
        for round in 0..500 {
            let case = Case::random(&mut rng, round);
            let mut a = case.dst();
            let mut b = case.dst();
            gf_axpy_at(tier, &mut a, case.coef, case.src());
            gf_axpy_scalar(&mut b, case.coef, case.src());
            assert_eq!(
                a, b,
                "{tier:?} round {round}: len={} coef={} offs=({},{})",
                case.len, case.coef, case.dst_off, case.src_off
            );
        }
    }
}

#[test]
fn xor_matches_scalar_on_300_random_cases_per_tier() {
    for &tier in supported_tiers() {
        let mut rng = SeedSequence::new(0xA2).fork("xor", 0);
        for round in 0..300 {
            let case = Case::random(&mut rng, round);
            let mut a = case.dst();
            let mut b = case.dst();
            xor_into_at(tier, &mut a, case.src());
            xor_into_scalar(&mut b, case.src());
            assert_eq!(
                a, b,
                "{tier:?} round {round}: len={} offs=({},{})",
                case.len, case.dst_off, case.src_off
            );
        }
    }
}

#[test]
fn fused_axpy_matches_scalar_on_300_random_cases_per_tier() {
    for &tier in supported_tiers() {
        let mut rng = SeedSequence::new(0xA5).fork("multi", 0);
        for round in 0..300 {
            let case = Case::random(&mut rng, round);
            // 0..6 extra sources beyond the case's own, same length, with
            // coefficients that include zeros (the fused path skips them).
            let extra: Vec<(u8, Vec<u8>)> = (0..rng.gen_range(0usize..6))
                .map(|_| {
                    let mut s = vec![0u8; case.len];
                    rng.fill_bytes(&mut s);
                    (rng.gen::<u8>() & rng.gen::<u8>(), s)
                })
                .collect();
            let mut srcs: Vec<(u8, &[u8])> = vec![(case.coef, case.src())];
            srcs.extend(extra.iter().map(|(c, s)| (*c, s.as_slice())));
            let mut a = case.dst();
            let mut b = case.dst();
            gf_axpy_multi_at(tier, &mut a, &srcs);
            gf_axpy_multi_scalar(&mut b, &srcs);
            assert_eq!(
                a,
                b,
                "{tier:?} round {round}: len={} sources={} coef0={}",
                case.len,
                srcs.len(),
                case.coef
            );
        }
    }
}

#[test]
fn scale_matches_scalar_on_300_random_cases_per_tier() {
    for &tier in supported_tiers() {
        let mut rng = SeedSequence::new(0xA3).fork("scale", 0);
        for round in 0..300 {
            let case = Case::random(&mut rng, round);
            let mut a = case.dst();
            let mut b = case.dst();
            gf_scale_at(tier, &mut a, case.coef);
            gf_scale_scalar(&mut b, case.coef);
            assert_eq!(
                a, b,
                "{tier:?} round {round}: len={} coef={} off={}",
                case.len, case.coef, case.dst_off
            );
        }
    }
}

/// Large lengths — 1–3 KiB bodies, then 32–40 KiB blocks, at every
/// alignment with odd tails — through the plain dispatchers (`None`)
/// *and* pinned to each supported tier: covers the unrolled main loops,
/// their remainder loops and the dispatch itself. The three ops chain on
/// one buffer, so each also sees the others' output.
#[test]
fn large_unaligned_cases_match_scalar_dispatched_and_per_tier() {
    let mut rng = SeedSequence::new(0xA8).fork("large", 0);
    let mut cases: Vec<Case> = (0..40)
        .map(|_| {
            let len = rng.gen_range(1024usize..3072);
            Case::large(&mut rng, len)
        })
        .collect();
    let mut rng = SeedSequence::new(0xA6).fork("pair", 0);
    cases.extend((0..40).map(|_| {
        let len = 32 * 1024 - 20 + rng.gen_range(0usize..64) + 1024 * rng.gen_range(0usize..8);
        Case::large(&mut rng, len)
    }));
    let routes: Vec<Option<SimdLevel>> = std::iter::once(None)
        .chain(supported_tiers().iter().copied().map(Some))
        .collect();

    for (round, case) in cases.iter().enumerate() {
        let (len, coef, src) = (case.len, case.coef, case.src());
        for &route in &routes {
            let mut a = case.dst();
            let mut b = case.dst();

            match route {
                None => gf_axpy(&mut a, coef, src),
                Some(tier) => gf_axpy_at(tier, &mut a, coef, src),
            }
            gf_axpy_scalar(&mut b, coef, src);
            assert_eq!(a, b, "{route:?} axpy round {round}: len={len} coef={coef}");

            match route {
                None => xor_into(&mut a, src),
                Some(tier) => xor_into_at(tier, &mut a, src),
            }
            xor_into_scalar(&mut b, src);
            assert_eq!(a, b, "{route:?} xor round {round}: len={len}");

            match route {
                None => gf_scale(&mut a, coef),
                Some(tier) => gf_scale_at(tier, &mut a, coef),
            }
            gf_scale_scalar(&mut b, coef);
            assert_eq!(a, b, "{route:?} scale round {round}: len={len} coef={coef}");
        }
    }
}

/// Every length from 0 to 4 KiB at every offset into a cache line, so
/// each word-count/tail split meets each misalignment, then 40 block-sized
/// 32–40 KiB cases at random offsets: each tier's digest equals the
/// table's.
#[test]
fn crc32c_random_cases_per_tier() {
    let mut rng = SeedSequence::new(0xA9).fork("crc32c", 0);
    let mut buf = vec![0u8; 64 + 4096];
    rng.fill_bytes(&mut buf);
    for len in 0..=4096 {
        for off in 0..64 {
            let data = &buf[off..off + len];
            let want = crc32c_scalar(data);
            for &tier in supported_tiers() {
                assert_eq!(crc32c_at(tier, data), want, "{tier:?} len={len} off={off}");
            }
        }
    }
    for round in 0..40 {
        let len = 32 * 1024 + rng.gen_range(0usize..=8 * 1024);
        let case = Case::large(&mut rng, len);
        let data = case.src();
        let want = crc32c_scalar(data);
        assert_eq!(crc32c(data), want, "dispatched round {round}: len={len}");
        for &tier in supported_tiers() {
            assert_eq!(
                crc32c_at(tier, data),
                want,
                "{tier:?} round {round}: len={len}"
            );
        }
    }
}

/// RFC 3720 §B.4's CRC32C test vectors, on the reference, the dispatcher
/// and every supported tier. Stored block digests and WAL frames are
/// these values; no tier may change them.
#[test]
fn crc32c_rfc3720_vectors_per_tier() {
    let ascending: Vec<u8> = (0u8..32).collect();
    let descending: Vec<u8> = (0u8..32).rev().collect();
    let vectors: [(&[u8], u32); 5] = [
        (b"", 0),
        (&[0u8; 32], 0x8A91_36AA),
        (&[0xFFu8; 32], 0x62A8_AB43),
        (&ascending, 0x46DD_794E),
        (&descending, 0x113F_DB5C),
    ];
    for (data, want) in vectors {
        assert_eq!(crc32c_scalar(data), want, "scalar {data:02x?}");
        assert_eq!(crc32c(data), want, "dispatched {data:02x?}");
        for &tier in supported_tiers() {
            assert_eq!(crc32c_at(tier, data), want, "{tier:?} {data:02x?}");
        }
    }
}

/// The experiment-level check that no kernel can change what a code
/// computes: every RS code word equals a Horner evaluation done here one
/// byte at a time with `gf::mul` — no kernel call — and decoding from the
/// last K blocks returns the data.
#[test]
fn rs_code_words_match_bytewise_oracle() {
    let mut rng = SeedSequence::new(0xA4).fork("rs", 0);
    for round in 0..40 {
        let k = rng.gen_range(1..12);
        let n = k + rng.gen_range(1..=k);
        let len = rng.gen_range(1..100);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect();
        let rs = ReedSolomon::new(k, n).unwrap();
        let coded = rs.encode(&data).unwrap();

        // Code word j is the polynomial with the data blocks as
        // coefficients, evaluated per byte at α^j for the generator α.
        for (j, word) in coded.iter().enumerate() {
            let x = gf::tables().exp[j];
            let expect: Vec<u8> = (0..len)
                .map(|b| data.iter().rev().fold(0u8, |acc, d| gf::mul(acc, x) ^ d[b]))
                .collect();
            assert_eq!(word, &expect, "round {round}: code word {j} of K={k} N={n}");
        }

        // Decode from the last K blocks (all parity-heavy subsets work).
        let rx: Vec<_> = (n - k..n).map(|i| (i, coded[i].clone())).collect();
        assert_eq!(rs.decode(&rx).unwrap(), data, "round {round}: round-trip");
    }
}
