//! The seed decides the inputs: operation order, arrival offsets, payloads.

use robustore_benchmark::workloads::{BULK_CPU, DISK_BOUND};
use robustore_benchmark::{gen, probes};
use robustore_simkit::SeedSequence;

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
    assert_eq!(gen::input_fingerprint(1), gen::input_fingerprint(1));
    assert_ne!(gen::input_fingerprint(1), gen::input_fingerprint(2));
}

#[test]
fn arrivals_are_increasing_at_the_asked_rate_and_batches_cover_them() {
    let schedule = gen::arrivals(&SeedSequence::new(7), "arrivals", 150.0, 20.0, 16);
    assert!(schedule.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    assert!(schedule
        .iter()
        .all(|a| a.file < 16 && a.due_us < 20_000_000));
    let rate = schedule.len() as f64 / 20.0;
    assert!((135.0..165.0).contains(&rate), "rate {rate}");
    let ends = gen::batch_ends(&schedule, 128, 256, 20_000);
    assert_eq!(*ends.last().unwrap(), schedule.len());
    let mut start = 0;
    for &end in &ends {
        assert!(end > start && end - start <= 256);
        start = end;
    }
}

/// The coding probe plans its measured code from the seed alone, so the
/// reception overhead of that code's graph repeats exactly.
#[test]
fn the_same_seed_gives_the_coding_probe_the_same_code_graph() {
    for cfg in [&BULK_CPU, &DISK_BOUND] {
        let overhead = |seed: u64| {
            let seq = SeedSequence::new(seed);
            let payload = &gen::payloads(&seq, "payload", 1, cfg.object_bytes)[0];
            let mut out = Vec::new();
            probes::erasure(cfg, &seq, payload, &mut out);
            let found = out.iter().find(|m| m.0 == "erasure.reception_overhead");
            found.expect("the probe reports it").1
        };
        let first = overhead(1);
        assert!(first > 0.0 && first < 2.0, "{}: {first}", cfg.name);
        assert_eq!(first.to_bits(), overhead(1).to_bits(), "{}", cfg.name);
    }
}
