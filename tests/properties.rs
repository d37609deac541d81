//! Property-based tests over the public coding and placement APIs.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use robustore::core::{placement_weight, speculative_placement, SustainedSpeed};
use robustore::erasure::lt::{LtCode, LtDecoder};
use robustore::erasure::parity::ParityCode;
use robustore::erasure::replication::Replication;
use robustore::erasure::{LtParams, ReedSolomon};
use robustore::schemes::placement::Placement;
use robustore::simkit::SeedSequence;
use std::time::Duration;

/// A disk's ring estimator after one of the states a placement must
/// handle: 0 = too few samples, 1 = zero-duration samples, 2 = a disk
/// 1000x slower than registered, 3 = one keeping up with it.
fn estimator(state: u8, registered: f64) -> SustainedSpeed {
    let s = SustainedSpeed::default();
    let (samples, secs) = match state {
        0 => (3, 0.001),
        1 => (8, 0.0),
        2 => (8, 1000.0 * 4096.0 / registered),
        _ => (8, 4096.0 / registered / 2.0),
    };
    for _ in 0..samples {
        s.record(4096, Duration::from_secs_f64(secs));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LT codes: any planned graph decodes the original data from a
    /// random arrival order, for arbitrary data contents.
    #[test]
    fn lt_roundtrip_random_order(
        k in 4usize..48,
        extra in 1usize..4,
        len in 1usize..96,
        seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let n = k * (1 + extra);
        let data: Vec<Vec<u8>> = {
            let mut rng = SeedSequence::new(data_seed).fork("data", 0);
            (0..k).map(|_| (0..len).map(|_| rand::Rng::gen(&mut rng)).collect()).collect()
        };
        let code = LtCode::plan(k, n, LtParams::default(), seed).unwrap();
        let coded = code.encode(&data).unwrap();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SeedSequence::new(seed ^ 0x5A5A).fork("order", 0);
        order.shuffle(&mut rng);
        let rx: Vec<_> = order.iter().map(|&j| (j, coded[j].clone())).collect();
        prop_assert_eq!(code.decode(rx).unwrap(), data);
    }

    /// LT codes under block loss: drop a random subset of the coded
    /// blocks and feed the survivors in random order; the incremental
    /// decoder completes after roughly (1+ε)·K receptions — comfortably
    /// below the stored supply even with a quarter of it destroyed — and
    /// round-trips the data exactly.
    /// This is the property the degraded read path (lost sectors, failed
    /// disks) leans on.
    #[test]
    fn lt_decodes_after_dropping_random_blocks(
        k in 16usize..64,
        extra in 2usize..4,
        len in 1usize..96,
        seed in any::<u64>(),
        drop_seed in any::<u64>(),
    ) {
        let n = k * (1 + extra);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((i * 37 + j * 11 + seed as usize) % 256) as u8).collect())
            .collect();
        let code = LtCode::plan(k, n, LtParams::default(), seed).unwrap();
        let coded = code.encode(&data).unwrap();

        // Lose a quarter of the coded blocks outright, then receive the
        // survivors in random arrival order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SeedSequence::new(drop_seed).fork("drop", 0);
        order.shuffle(&mut rng);
        let survivors = &order[n / 4..];

        let mut dec = LtDecoder::new(&code, len);
        let mut needed = 0usize;
        for &j in survivors {
            needed += 1;
            if dec.receive(j, coded[j].clone()) {
                break;
            }
        }
        prop_assert!(
            needed <= 5 * k / 2,
            "decode took {} receptions for K={} (ε={:.2})",
            needed, k, needed as f64 / k as f64 - 1.0
        );
        prop_assert_eq!(dec.into_data().expect("decode complete"), data);
    }

    /// Reed-Solomon: any K-subset of coded blocks decodes.
    #[test]
    fn rs_any_subset_decodes(
        k in 1usize..12,
        extra in 1usize..12,
        len in 1usize..64,
        data in any::<u64>(),
        pick_seed in any::<u64>(),
    ) {
        let n = k + extra;
        prop_assume!(n <= 255);
        let blocks: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((data as usize + i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let rs = ReedSolomon::new(k, n).unwrap();
        let coded = rs.encode(&blocks).unwrap();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = SeedSequence::new(pick_seed).fork("pick", 0);
        idx.shuffle(&mut rng);
        let rx: Vec<_> = idx[..k].iter().map(|&i| (i, coded[i].clone())).collect();
        prop_assert_eq!(rs.decode(&rx).unwrap(), blocks);
    }

    /// Parity codes recover any single lost data block.
    #[test]
    fn parity_recovers_single_loss(
        k in 1usize..10,
        len in 1usize..64,
        lost in 0usize..10,
    ) {
        prop_assume!(lost < k);
        let blocks: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((i * 13 + j) % 256) as u8).collect())
            .collect();
        let pc = ParityCode::new(k).unwrap();
        let coded = pc.encode(&blocks).unwrap();
        let rx: Vec<_> = (0..=k).filter(|&i| i != lost).map(|i| (i, coded[i].clone())).collect();
        prop_assert_eq!(pc.decode(&rx).unwrap(), blocks);
    }

    /// Replication decodes iff every original is covered.
    #[test]
    fn replication_coverage_is_necessary_and_sufficient(
        k in 1usize..16,
        copies in 1usize..4,
        subset_seed in any::<u64>(),
    ) {
        let r = Replication::new(k, copies).unwrap();
        let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; 8]).collect();
        let coded = r.encode(&blocks).unwrap();
        let mut idx: Vec<usize> = (0..r.n()).collect();
        let mut rng = SeedSequence::new(subset_seed).fork("s", 0);
        idx.shuffle(&mut rng);
        let take = idx.len() / 2 + 1;
        let rx: Vec<_> = idx[..take].iter().map(|&i| (i, coded[i].clone())).collect();
        let covered: std::collections::HashSet<usize> =
            idx[..take].iter().map(|&i| r.original_of(i)).collect();
        match r.decode(&rx) {
            Ok(decoded) => {
                prop_assert_eq!(covered.len(), k);
                prop_assert_eq!(decoded, blocks);
            }
            Err(_) => prop_assert!(covered.len() < k),
        }
    }

    /// Placements conserve blocks: every constructor stores exactly what
    /// was asked, each coded semantic exactly once.
    #[test]
    fn placements_conserve_blocks(
        k in 1usize..64,
        disks in 1usize..16,
        extra in 0usize..3,
    ) {
        let n = k * (1 + extra);
        let p = Placement::coded_balanced(k, n, disks);
        prop_assert_eq!(p.total_blocks(), n);
        prop_assert!(p.copy_counts().values().all(|&c| c == 1));

        let p = Placement::raid0(k, disks);
        prop_assert_eq!(p.total_blocks(), k);

        let p = Placement::rraid(k, n.max(k), disks);
        prop_assert_eq!(p.total_blocks(), n.max(k));
        let counts = p.copy_counts();
        for i in 0..k as u32 {
            prop_assert!(counts[&i] >= 1, "original {} uncovered", i);
        }
    }

    /// Weighted placement apportions proportionally (largest remainder):
    /// every disk gets within one block of its exact quota.
    #[test]
    fn weighted_placement_is_proportional(
        n in 1usize..300,
        weights in proptest::collection::vec(0.0f64..100.0, 1..12),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 1e-9);
        let p = Placement::coded_weighted(4, n, &weights);
        prop_assert_eq!(p.total_blocks(), n);
        let total: f64 = weights.iter().sum();
        for (d, w) in weights.iter().enumerate() {
            let quota = w / total * n as f64;
            let got = p.per_disk[d].len() as f64;
            prop_assert!(
                (got - quota).abs() <= 1.0,
                "disk {} got {} for quota {:.2}", d, got, quota
            );
        }
    }

    /// A write's measured placement: weights stay finite and positive;
    /// a disk with no estimate, or one keeping up, leaves the registered
    /// apportionment exactly as it was; and no disk holds more than the
    /// larger of its registered count and N − ⌈1.5 K⌉, so the layout
    /// minus its fullest slot still holds a decode's worth unless the
    /// registered layout already put more there.
    #[test]
    fn measured_placement_keeps_registered_layouts_and_a_decodes_worth(
        k in 1usize..64,
        extra in 0usize..4,
        disks in proptest::collection::vec((1e6f64..100e6, 0u8..4), 1..12),
    ) {
        let n = k * (1 + extra) + extra;
        let registered: Vec<f64> = disks.iter().map(|&(r, _)| r).collect();
        let sustained: Vec<Option<f64>> = disks
            .iter()
            .map(|&(r, state)| estimator(state, r).estimate())
            .collect();
        for (&r, &s) in registered.iter().zip(&sustained) {
            let w = placement_weight(r, s);
            prop_assert!(w.is_finite() && w > 0.0, "weight {} for {} / {:?}", w, r, s);
        }
        let counts = |p: &Placement| p.per_disk.iter().map(Vec::len).collect::<Vec<_>>();
        let nominal = counts(&Placement::coded_weighted(k, n, &registered));
        let p = speculative_placement(k, n, &registered, &sustained);
        let got = counts(&p);
        prop_assert_eq!(got.iter().sum::<usize>(), n);
        let mut ids: Vec<u32> = p.per_disk.iter().flatten().map(|b| b.semantic).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        if disks.iter().all(|&(_, state)| state != 2) {
            prop_assert_eq!(&got, &nominal);
        }
        let need = (1.5 * k as f64).ceil() as usize;
        for (d, &c) in got.iter().enumerate() {
            prop_assert!(
                c <= nominal[d].max(n.saturating_sub(need)),
                "disk {} holds {} of {}: registered {}, need {}", d, c, n, nominal[d], need
            );
        }
        let fullest = got.iter().enumerate().max_by_key(|&(_, &c)| c).map(|(d, _)| d).unwrap();
        prop_assert!(n - got[fullest] >= need || got[fullest] <= nominal[fullest]);
    }
}
