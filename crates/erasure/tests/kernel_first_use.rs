//! First use of the kernel dispatchers under contention.
//!
//! The tier is probed lazily, by whichever dispatcher call comes first
//! (`OnceLock` in `simd::level`). This file is its own test binary with a
//! single test so that the eight threads below really are the process's
//! first callers: released together by a barrier, they race the probe and
//! every one of them must still match the scalar reference.

use std::sync::Barrier;

use rand::{Rng, RngCore};
use robustore_erasure::kernels::{
    crc32c, crc32c_scalar, gf_axpy, gf_axpy_multi, gf_axpy_multi_scalar, gf_axpy_scalar, gf_scale,
    gf_scale_scalar, xor_into, xor_into_scalar,
};
use robustore_simkit::SeedSequence;

#[test]
fn eight_threads_racing_the_first_dispatch_all_match_scalar() {
    let seq = SeedSequence::new(0xA7);
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let (seq, start) = (&seq, &start);
            scope.spawn(move || {
                let mut rng = seq.fork("first-use", t);
                let len = 32 * 1024 + rng.gen_range(0usize..100);
                let coef: u8 = rng.gen_range(2..=255);
                let mut src = vec![0u8; len];
                let mut a = vec![0u8; len];
                rng.fill_bytes(&mut src);
                rng.fill_bytes(&mut a);
                let mut b = a.clone();
                let srcs: [(u8, &[u8]); 3] = [(coef, &src), (0, &src), (coef ^ 1, &src)];

                // Each thread opens with a different dispatcher, so the
                // probe is raced from all five entry points.
                start.wait();
                for op in (0..5).map(|i| (i + t) % 5) {
                    match op {
                        0 => {
                            xor_into(&mut a, &src);
                            xor_into_scalar(&mut b, &src);
                        }
                        1 => {
                            gf_axpy(&mut a, coef, &src);
                            gf_axpy_scalar(&mut b, coef, &src);
                        }
                        2 => {
                            gf_axpy_multi(&mut a, &srcs);
                            gf_axpy_multi_scalar(&mut b, &srcs);
                        }
                        3 => {
                            gf_scale(&mut a, coef);
                            gf_scale_scalar(&mut b, coef);
                        }
                        _ => assert_eq!(crc32c(&a), crc32c_scalar(&b), "thread {t} crc32c"),
                    }
                    assert_eq!(a, b, "thread {t} op {op}: len={len} coef={coef}");
                }
            });
        }
    });
}
