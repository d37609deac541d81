//! Coverage and durability of the coded layout's id fill.
//!
//! The LT graph draws each coded block's neighbours from successive
//! permutations of the originals, so a run of consecutive coded ids covers
//! every original evenly. `Placement::coded_weighted` gives each disk one
//! run of ids, as earlier versions did, but stores every other disk's run
//! in descending order: neighbouring disks then read outward from their
//! shared boundary, and a read's blocks form 4 runs over 8 disks instead
//! of 8. These tests pin what that buys and what it must not cost:
//!
//! * **Coverage** (seeded, index-only): the peeling decode point in the
//!   quiescent read order, for the paired fill and for the disk-by-disk
//!   fill earlier versions wrote (ids `0..N` ascending slot after slot),
//!   over fixed code seeds at K ∈ {16, 64, 256}.
//! * **Durability**: both fills give every disk the same set of ids, so
//!   any set of lost disks leaves the same survivors. (A fill that gives
//!   each disk two shorter runs decodes sooner but loses 2–3× as many
//!   files to a 3-of-8 disk loss; DESIGN §3d.)
//! * **End to end**: fresh K = 64 files read on quiescent in-memory disks
//!   fetch fewer blocks than they did under the disk-by-disk fill, and
//!   fewer again with the store's degree distribution for K = 64
//!   (`LtParams::for_k`); the coverage test above keeps the paper's
//!   default, because it pins the fill, not the code.
//!
//! Run under `--release` in CI; the index-only decodes move no bytes, so
//! a debug run takes a few seconds too.

use robustore::core::{AccessMode, Client, InMemoryBackend, QosOptions, System, SystemConfig};
use robustore::erasure::lt::blocks_needed;
use robustore::erasure::{LtCode, LtParams};
use robustore::schemes::placement::{apportion, Placement};
use robustore::schemes::{AdaptiveReadPolicy, WaveSlot};

const DISKS: usize = 8;

/// The fill every version before the two-tier one wrote: the same
/// per-disk counts, ids `0..N` slot after slot.
fn disk_by_disk(k: usize, n: usize) -> Placement {
    let mut next = 0u32;
    let lists = apportion(n, &[1.0; DISKS])
        .into_iter()
        .map(|c| {
            next += c as u32;
            (next - c as u32..next).collect()
        })
        .collect();
    Placement::from_lists(k, lists)
}

/// Coded ids in the order a quiescent read over equal disks receives
/// them: the static schedule, which the adaptive one matches with no
/// backlog.
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

/// Mean blocks to decode, as a multiple of K, over `codes` code seeds in
/// `p`'s quiescent read order.
fn mean_decode_point(p: &Placement, codes: u64) -> f64 {
    let (k, n) = (p.k, p.total_blocks());
    let order = read_order(p);
    let needed: usize = (1..=codes)
        .map(|seed| {
            let code = LtCode::plan(k, n, LtParams::default(), seed).expect("plan");
            blocks_needed(&code, order.iter().copied())
                .expect("all N decode")
                .0
        })
        .sum();
    needed as f64 / (codes as usize * k) as f64
}

fn id_sets(p: &Placement) -> Vec<Vec<u32>> {
    p.per_disk
        .iter()
        .map(|d| {
            let mut ids: Vec<u32> = d.iter().map(|b| b.semantic).collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

#[test]
fn placement_pairs_decode_sooner_from_the_same_disk_sets() {
    for (k, codes) in [(16, 600), (64, 600), (256, 200)] {
        let n = 3 * k;
        let paired = Placement::coded_weighted(k, n, &[1.0; DISKS]);
        let flat = disk_by_disk(k, n);
        assert_eq!(id_sets(&paired), id_sets(&flat), "K = {k}");
        let (got, before) = (
            mean_decode_point(&paired, codes),
            mean_decode_point(&flat, codes),
        );
        println!("K = {k}: decode at {got:.3} K (disk by disk {before:.3} K)");
        assert!(got < before, "K = {k}: the paired fill must decode sooner");
    }
}

#[test]
fn fresh_reads_on_quiescent_disks_fetch_fewer_blocks() {
    const K: usize = 64;
    const FILES: usize = 80;
    let block = 4usize << 10;
    let sys = System::with_backend(
        Box::new(InMemoryBackend::uniform(DISKS, 10e6)),
        SystemConfig {
            block_bytes: block as u64,
            ..Default::default()
        },
    );
    let client = Client::connect(&sys, sys.register_user());
    let qos = QosOptions::best_effort()
        .with_redundancy(2.0)
        .with_num_disks(DISKS);
    let payload = |i: usize| -> Vec<u8> {
        (0..K * block)
            .map(|b| ((b * 131 + i * 7) % 251) as u8)
            .collect()
    };
    for i in 0..FILES {
        let mut h = client
            .open(&format!("f{i}"), AccessMode::Write, qos.clone())
            .unwrap();
        client.write(&mut h, &payload(i)).unwrap();
        client.close(h).unwrap();
    }
    let (mut fetched, mut one_wave) = (0, 0);
    for i in 0..FILES {
        let h = client
            .open(&format!("f{i}"), AccessMode::Read, qos.clone())
            .unwrap();
        let (data, report) = client.read_with_report(&h).unwrap();
        client.close(h).unwrap();
        assert_eq!(data, payload(i));
        fetched += report.blocks_fetched;
        one_wave += usize::from(report.waves == 1);
    }
    let mean = fetched as f64 / (FILES * K) as f64;
    println!("mean blocks fetched {mean:.3} K; one wave on {one_wave} of {FILES} reads");
    // The disk-by-disk fill fetched 1.494 K here, in one wave on 48 of
    // the 80 reads; the paired fill fetched 1.387 K, in one wave on 64,
    // with the paper's C = 1, δ = 0.5. `LtParams::for_k(64)` puts the
    // degree distribution's spike on degree 3, and the same reads fetch
    // 1.262 K, in one wave on 77.
    assert!(mean <= 1.32, "mean blocks fetched {mean:.3} K");
    assert!(one_wave >= 72, "one wave on {one_wave} of {FILES}");
}
