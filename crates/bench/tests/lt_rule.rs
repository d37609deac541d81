//! The store's LT rule, [`LtParams::for_k`], against the paper's default
//! (C = 1, δ = 0.5) at K sampled over [2, 1024]: every 8 up to 256, then
//! 384, 512, 768 and 1024, plus the K = 2 of the smallest files.
//!
//! Seeded and index-only, over the same 300 code seeds and loss patterns
//! as `xp lt-sweep` ([`measure`]). At every sampled K the rule's mean and
//! p99 decode point and each of its four loss counts must be no worse
//! than the default's; at K = 64 and 256, the two benchmarked file sizes,
//! its mean decode point must be at least 10 % lower.
//!
//! A release test (about a minute on two cores); debug builds skip it.

use robustore_bench::experiments::ltsweep::{measure, SweepRow, CODES};
use robustore_erasure::LtParams;

fn sampled_k() -> Vec<usize> {
    let mut ks = vec![2];
    ks.extend((8..=256).step_by(8));
    ks.extend([384, 512, 768, 1024]);
    ks
}

fn describe(r: &SweepRow) -> String {
    format!(
        "C {:.3} δ {:.2}: decode {:.3}/{:.2} losses {:?}",
        r.params.c,
        r.params.delta,
        r.decode_mean,
        r.decode_p99,
        r.losses()
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn for_k_is_no_worse_than_the_default_at_every_sampled_k() {
    for k in sampled_k() {
        let rule = LtParams::for_k(k);
        if rule == LtParams::default() {
            println!("K = {k:4}: default");
            continue;
        }
        let (base, got) = std::thread::scope(|s| {
            let base = s.spawn(|| measure(k, LtParams::default(), CODES));
            let got = measure(k, rule, CODES);
            (base.join().expect("default sweep"), got)
        });
        println!(
            "K = {k:4}: {} (default {})",
            describe(&got),
            describe(&base)
        );
        assert!(
            got.decode_mean <= base.decode_mean && got.decode_p99 <= base.decode_p99,
            "K = {k}: decodes later than the default: {} vs {}",
            describe(&got),
            describe(&base)
        );
        for (column, (g, b)) in got.losses().into_iter().zip(base.losses()).enumerate() {
            assert!(
                g <= b,
                "K = {k}: loss column {column} {g} > default {b}: {}",
                describe(&got)
            );
        }
        if k == 64 || k == 256 {
            assert!(
                got.decode_mean <= 0.9 * base.decode_mean,
                "K = {k}: mean decode {:.3} is not 10 % below the default's {:.3}",
                got.decode_mean,
                base.decode_mean
            );
        }
    }
}
