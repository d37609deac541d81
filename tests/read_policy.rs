//! Property and differential tests for the read wave policy
//! (`SystemConfig::read_policy`).
//!
//! The wave scheduler ([`AdaptiveReadPolicy`]) decides *order* and
//! *pacing* of speculative block requests — never their content — so its
//! contract splits cleanly in two:
//!
//! * **Schedule properties** (proptest): every schedule is a permutation
//!   of the plan's stored blocks (no invented or dropped requests, so a
//!   wave can only touch the plan's own disks), an empty load map
//!   degenerates to the static schedule bit for bit, a quiescent load
//!   map preserves the static *order*, the first wave respects the
//!   planner's availability-class mixing rule, and scheduling is a pure
//!   function of its inputs.
//! * **Policy differential** (seeded faults): under identical damage —
//!   lost blocks, bit rot, an offline-disk window — the adaptive policy
//!   decodes byte-identical data to the static policy, one access at a
//!   time, batched, and open-loop paced. Only decoded bytes are compared
//!   here; `tests/ring_chaos.rs` pins the committed state under both
//!   policies.

use proptest::prelude::*;
use robustore::core::{AccessMode, Client, QosOptions, ReadPolicy, Scrubber, System, SystemConfig};
use robustore::schemes::{AdaptiveReadPolicy, DiskLoad, DiskLoadMap, WaveSlot};
use robustore::simkit::SeedSequence;

/// Deterministic random scheduling case: up to 8 disks, each holding up
/// to 12 blocks, with varied nominal speeds, availabilities drawn from
/// two bands, and a load map mixing idle and backlogged disks.
fn gen_case(seed: u64) -> (Vec<WaveSlot>, usize, DiskLoadMap) {
    let mut rng = SeedSequence::new(seed).fork("case", 0);
    let mut next = || rand::Rng::gen::<u64>(&mut rng);
    let ndisks = 2 + (next() % 7) as usize;
    let slots: Vec<WaveSlot> = (0..ndisks)
        .map(|d| WaveSlot {
            disk: d,
            blocks: (next() % 13) as usize,
            nominal_micros: 50.0 + (next() % 1000) as f64,
            availability: if next() % 2 == 0 { 0.99 } else { 0.90 },
        })
        .collect();
    let total: usize = slots.iter().map(|s| s.blocks).sum();
    let k = 1 + (next() % (total.max(1) as u64 * 2)) as usize;
    let loads: Vec<DiskLoad> = (0..ndisks)
        .map(|_| DiskLoad {
            queued: next() % 20,
            in_flight: next() % 3,
            ewma_service_micros: (next() % 4000) as f64,
        })
        .collect();
    (slots, k, DiskLoadMap::from_loads(loads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every adaptive schedule requests each stored block exactly once
    /// and nothing else — so a wave can only ever touch the plan's own
    /// disks — with a sane wave structure.
    #[test]
    fn adaptive_order_is_a_permutation_of_the_plan(seed in any::<u64>()) {
        let (slots, k, load) = gen_case(seed);
        let sched = AdaptiveReadPolicy::default().schedule(&slots, k, &load);
        let total: usize = slots.iter().map(|s| s.blocks).sum();
        let mut seen = sched.order.clone();
        seen.sort_unstable();
        let mut expect = Vec::new();
        for (s, ws) in slots.iter().enumerate() {
            for idx in 0..ws.blocks {
                expect.push((s, idx));
            }
        }
        prop_assert_eq!(seen, expect, "order is not a permutation of the plan");
        prop_assert!(sched.first_wave <= total);
        prop_assert!(total == 0 || sched.first_wave >= 1);
        prop_assert!(sched.topup >= 1);
        if sched.first_wave == total {
            prop_assert_eq!(sched.deadline_micros, None);
        }
    }

    /// An empty load map — no ring, no telemetry — degenerates to the
    /// static schedule exactly: same order, everything in one wave, no
    /// deadline.
    #[test]
    fn empty_load_map_degenerates_to_static(seed in any::<u64>()) {
        let (slots, k, _) = gen_case(seed);
        let adaptive = AdaptiveReadPolicy::default()
            .schedule(&slots, k, &DiskLoadMap::empty());
        prop_assert_eq!(adaptive, AdaptiveReadPolicy::static_schedule(&slots));
    }

    /// A *present but quiescent* load map (all zeros, uniform
    /// availability so the mixing rule is a no-op) preserves the static
    /// order: the ring's telemetry only changes behaviour once it has
    /// observed real load. This is the invariant that lets the adaptive
    /// policy ship default-on without perturbing idle-system replays.
    #[test]
    fn quiescent_load_map_preserves_static_order(seed in any::<u64>()) {
        let (mut slots, k, _) = gen_case(seed);
        for s in &mut slots {
            s.availability = 0.99;
        }
        let quiet = DiskLoadMap::from_loads(vec![DiskLoad::default(); slots.len()]);
        let adaptive = AdaptiveReadPolicy::default().schedule(&slots, k, &quiet);
        let oracle = AdaptiveReadPolicy::static_schedule(&slots);
        prop_assert_eq!(adaptive.order, oracle.order);
    }

    /// The planner's mixing rule holds on the first wave: whenever both
    /// availability classes (median split over block-holding slots) hold
    /// blocks and the wave has room for two entries, the wave touches
    /// both classes.
    #[test]
    fn first_wave_mixes_availability_classes(seed in any::<u64>()) {
        let (slots, k, load) = gen_case(seed);
        let sched = AdaptiveReadPolicy::default().schedule(&slots, k, &load);
        if sched.first_wave < 2 {
            return Ok(());
        }
        let mut avails: Vec<f64> = slots
            .iter()
            .filter(|s| s.blocks > 0)
            .map(|s| s.availability)
            .collect();
        if avails.len() < 2 {
            return Ok(());
        }
        avails.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = avails[avails.len() / 2];
        let is_high = |slot: usize| slots[slot].availability >= median;
        for class_high in [false, true] {
            let exists = slots
                .iter()
                .enumerate()
                .any(|(i, s)| s.blocks > 0 && is_high(i) == class_high);
            if exists {
                prop_assert!(
                    sched.order[..sched.first_wave]
                        .iter()
                        .any(|&(s, _)| is_high(s) == class_high),
                    "first wave missing availability class high={class_high}"
                );
            }
        }
    }

    /// Scheduling is a pure function: the same slots, k, and load map
    /// produce the identical schedule.
    #[test]
    fn schedule_is_deterministic(seed in any::<u64>()) {
        let (slots, k, load) = gen_case(seed);
        let policy = AdaptiveReadPolicy::default();
        prop_assert_eq!(
            policy.schedule(&slots, k, &load),
            policy.schedule(&slots, k, &load)
        );
    }
}

// ---------------------------------------------------------------------
// Seeded-fault differential: adaptive vs static, decoded bytes only.
// ---------------------------------------------------------------------

const DISKS: usize = 8;

fn policy_system(policy: ReadPolicy) -> System {
    System::with_backend(
        Box::new(robustore::core::InMemoryBackend::new(
            (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect(),
        )),
        SystemConfig {
            block_bytes: 4 << 10,
            read_policy: policy,
            ..Default::default()
        },
    )
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + salt as usize) % 256) as u8)
        .collect()
}

/// One full run under one policy: write, damage, read singly, scrub,
/// read as a paced batch. Returns every decoded byte vector in a fixed
/// order.
fn faulted_decodes(policy: ReadPolicy, fault_seed: u64) -> Vec<Vec<u8>> {
    let sys = policy_system(policy);
    let client = Client::connect(&sys, sys.register_user());
    let names = ["alpha", "beta", "gamma"];
    for (i, name) in names.iter().enumerate() {
        let mut h = client
            .open(name, AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client
            .write(&mut h, &payload(120_000 + 20_000 * i, i as u8 + 7))
            .unwrap();
        client.close(h).unwrap();
    }

    let seq = SeedSequence::new(fault_seed);
    sys.lose_blocks(2, 0.5, &seq.subsequence("lose", 0));
    sys.corrupt_blocks(5, 0.4, &seq.subsequence("rot", 0));
    sys.set_disk_offline(1, true);

    let mut decoded = Vec::new();
    // Degraded reads, one access at a time (this also seeds the ring's
    // EWMA estimators with real service times, so the batched pass below
    // exercises a genuinely non-quiescent adaptive schedule).
    for name in &names {
        let h = client
            .open(name, AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        decoded.push(client.read(&h).unwrap());
        client.close(h).unwrap();
    }
    sys.set_disk_offline(1, false);
    let sweep = Scrubber::new(&client).sweep();
    assert!(sweep.failed.is_empty(), "scrub failed: {:?}", sweep.failed);

    // Post-repair reads as one open-loop paced batch through the wave
    // scheduler (two accesses per file, staggered arrivals).
    let handles: Vec<_> = (0..2 * names.len())
        .map(|a| {
            client
                .open(
                    names[a % names.len()],
                    AccessMode::Read,
                    QosOptions::best_effort(),
                )
                .unwrap()
        })
        .collect();
    let handle_refs: Vec<_> = handles.iter().collect();
    let arrivals: Vec<u64> = (0..handle_refs.len() as u64).map(|a| a * 500).collect();
    let mut batch: Vec<Option<Vec<u8>>> = vec![None; handle_refs.len()];
    client.read_many_with(&handle_refs, Some(&arrivals), |i, r| {
        batch[i] = Some(r.expect("paced degraded read").0);
    });
    for h in handles {
        client.close(h).unwrap();
    }
    decoded.extend(batch.into_iter().map(|b| b.expect("every access resolved")));
    assert_eq!(sys.pool_outstanding_bytes(), 0, "reads leaked pool buffers");
    decoded
}

#[test]
fn adaptive_and_static_decode_identical_bytes_under_seeded_faults() {
    for fault_seed in [0xB0u64, 0xB1, 0xB2] {
        let adaptive = faulted_decodes(ReadPolicy::adaptive(), fault_seed);
        let static_ring = faulted_decodes(ReadPolicy::Static, fault_seed);
        // Ground truth first: every decode round-tripped the payloads.
        for run in [&adaptive, &static_ring] {
            for (i, _) in ["alpha", "beta", "gamma"].iter().enumerate() {
                let want = payload(120_000 + 20_000 * i, i as u8 + 7);
                assert_eq!(run[i], want, "degraded decode wrong (seed {fault_seed:#x})");
                assert_eq!(run[3 + i], want, "post-scrub decode wrong");
                assert_eq!(run[6 + i], want, "post-scrub batch decode wrong");
            }
        }
        assert_eq!(
            adaptive, static_ring,
            "adaptive policy decoded different bytes (seed {fault_seed:#x})"
        );
    }
}
