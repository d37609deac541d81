//! Chaos suite for the self-healing read path.
//!
//! Every test drives a real [`System`] through a [`ChaosBackend`] armed
//! with deterministic, seeded read faults ([`ReadFaultPlan`]) and asserts
//! the integrity contract of the read path:
//!
//! * **transient errors** are retried within the bounded budget and never
//!   cost data;
//! * **silent corruption** (flipped bytes, torn reads) is caught by
//!   checksum verification and demoted to a missing block the redundancy
//!   absorbs — the returned bytes are always correct or the read errors;
//! * **read-repair** re-encodes the damage from the decoded data and puts
//!   it back, so the next read finds a healthy file — in place, or, when
//!   the home disk refuses, relocated: committed for a sole reader, rolled
//!   back beside a second one;
//! * the **scrubber** restores files to their full redundancy target
//!   before latent faults accumulate past decodability;
//! * every exit path — success, decode failure, hard I/O error — returns
//!   all buffers to the shared pool (`pool_outstanding_bytes() == 0`).
//!
//! Reads are speculative: a request already queued when the decoder
//! completes may still be serviced, and its result discarded, before the
//! cancel reaches it. The report counts only what the decoder consumed,
//! so a *consumable* fault budget can be drawn down by reads the report
//! never mentions. Tests that compare injected-fault counters with the
//! report therefore pin [`ReadPolicy::Static`] (each disk then services
//! the file's blocks in one fixed submission order) and spend the whole
//! budget before the decode point by construction; each says how.

mod common;

use common::check_committed_state;
use robustore::core::{
    AccessMode, ChaosBackend, Client, FaultSwitch, InMemoryBackend, QosOptions, ReadPolicy,
    ReadReport, Scrubber, StoreError, System, SystemConfig,
};
use robustore::simkit::{ReadFaultPlan, ReadFaultScenario, SeedSequence};

const DISKS: usize = 8;

fn chaos_system_with(read_policy: ReadPolicy, read_repair: bool) -> (System, FaultSwitch) {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect();
    let (backend, switch) = ChaosBackend::new(InMemoryBackend::new(speeds));
    let sys = System::with_backend(
        Box::new(backend),
        SystemConfig {
            block_bytes: 4 << 10,
            read_policy,
            read_repair,
            ..Default::default()
        },
    );
    (sys, switch)
}

fn chaos_system() -> (System, FaultSwitch) {
    chaos_system_with(ReadPolicy::default(), true)
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + salt as usize) % 256) as u8)
        .collect()
}

fn put(client: &Client, name: &str, data: &[u8]) {
    let mut h = client
        .open(name, AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, data).unwrap();
    client.close(h).unwrap();
}

fn read_with_report(sys: &System, client: &Client, name: &str) -> (Vec<u8>, ReadReport) {
    let h = client
        .open(name, AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let got = client.read_with_report(&h).unwrap();
    client.close(h).unwrap();
    assert_eq!(sys.pool_outstanding_bytes(), 0, "read leaked pool buffers");
    got
}

#[test]
fn transient_faults_are_retried_not_fatal() {
    let (sys, switch) = chaos_system_with(ReadPolicy::Static, true);
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(150_000, 1);
    put(&client, "flaky", &data);

    // Two disks hiccup for a couple of reads each — well within the
    // default 3-attempt budget, so no block is lost.
    switch.transient_reads(1, 2);
    switch.transient_reads(4, 2);
    let (got, rr) = read_with_report(&sys, &client, "flaky");
    assert_eq!(got, data);
    assert!(rr.transient_retries > 0, "retry policy never engaged");
    assert_eq!(rr.blocks_missing, 0, "transients within budget cost data");
    assert_eq!(rr.blocks_corrupt, 0);
    // Exact, not `>=`: each budget is spent inside the disk's *first*
    // read (fail, fail, succeed), and in the static schedule every
    // disk's first block is among the first 22 requests — the slowest
    // disk delivers one block in the time the other seven deliver 21 —
    // while the decoder needs K = 37, so no budget outlives the decode
    // point for a speculative read to find.
    assert_eq!(switch.injected_read_faults().0, rr.transient_retries);
}

#[test]
fn exhausted_retries_demote_to_missing_and_read_survives() {
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(150_000, 2);
    put(&client, "stubborn", &data);

    // A large transient budget on one disk outlasts the 3-attempt policy
    // on every block it serves; redundancy absorbs the loss.
    switch.transient_reads(2, 1_000);
    let (got, rr) = read_with_report(&sys, &client, "stubborn");
    assert_eq!(got, data);
    assert!(
        rr.blocks_missing > 0,
        "spent budgets must demote to missing"
    );
    assert!(rr.transient_retries >= 2 * rr.blocks_missing as u64);
}

#[test]
fn corruption_is_detected_and_never_returned() {
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(200_000, 3);
    put(&client, "rotten", &data);

    // The next reads of two disks come back with a flipped byte; another
    // tears reads in half. Without checksums this read returns garbage.
    switch.corrupt_reads(0, 4);
    switch.corrupt_reads(5, 4);
    switch.torn_reads(6, 3);
    let (got, rr) = read_with_report(&sys, &client, "rotten");
    assert_eq!(got, data, "corrupt blocks reached the decoder");
    assert!(rr.blocks_corrupt > 0, "verification never fired");
    assert_eq!(rr.blocks_unverified, 0, "fresh writes are fully digested");
    let (_, corrupt, torn) = switch.injected_read_faults();
    assert!(corrupt > 0 && torn > 0);
}

#[test]
fn read_repair_restores_damage_for_the_next_read() {
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(200_000, 4);
    put(&client, "healme", &data);

    // Really destroy blocks at rest (not switch-injected): lose some and
    // rot some, on separate disks.
    let seq = SeedSequence::new(77);
    let lost = sys.lose_blocks(3, 0.6, &seq);
    let rotted = sys.corrupt_blocks(6, 0.6, &seq);
    assert!(!lost.is_empty() && !rotted.is_empty());

    let (got, rr) = read_with_report(&sys, &client, "healme");
    assert_eq!(got, data);
    assert!(
        rr.blocks_missing > 0 || rr.blocks_corrupt > 0,
        "damage was never observed"
    );
    assert!(rr.blocks_repaired > 0, "read-repair never engaged");

    // The next read finds a healthy file: repaired blocks are back in
    // place and verify (repair keeps the original checksums).
    let (again, rr2) = read_with_report(&sys, &client, "healme");
    assert_eq!(again, data);
    assert_eq!(rr2.blocks_missing, 0, "repair did not stick");
    assert_eq!(rr2.blocks_corrupt, 0);
    let _ = switch;
}

/// A file with bit rot on a disk that refuses writes: read-repair cannot
/// rewrite the damage in place, so it relocates it.
fn rot_on_a_refusing_disk() -> (System, FaultSwitch, Client, Vec<u8>, usize) {
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(200_000, 9);
    put(&client, "moved", &data);
    let home = sys.export_meta("moved").unwrap().layout[0].0;
    let rotted = sys.corrupt_blocks(home, 0.5, &SeedSequence::new(0xD15C));
    assert!(!rotted.is_empty());
    switch.refuse_disk(home);
    (sys, switch, client, data, rotted.len())
}

#[test]
fn read_repair_relocation_commits_for_a_sole_reader() {
    let (sys, switch, client, data, rotted) = rot_on_a_refusing_disk();
    let before = sys.export_meta("moved").unwrap();
    let (home, block) = (before.layout[0].0, before.coding.block_bytes);
    let (home_used, used) = (sys.disk_used(home), sys.total_used());

    let (got, rr) = read_with_report(&sys, &client, "moved");
    assert_eq!(got, data);
    assert_eq!(
        rr.blocks_repaired, rotted,
        "the whole damage set, relocated"
    );
    let after = sys.export_meta("moved").unwrap();
    assert_eq!(after.version, before.version + 1, "the layout moved");
    assert_eq!(after.layout[0].1.len(), before.layout[0].1.len() - rotted);
    assert_eq!(
        sys.disk_used(home),
        home_used - rotted as u64 * block,
        "the stale home copies were collected"
    );
    assert_eq!(sys.total_used(), used, "one new copy per stale one");

    let (again, rr2) = read_with_report(&sys, &client, "moved");
    assert_eq!(again, data);
    assert_eq!((rr2.blocks_missing, rr2.blocks_corrupt), (0, 0));
    switch.clear();
    check_committed_state(&sys);
}

#[test]
fn read_repair_relocation_rolls_back_beside_a_second_reader() {
    let (sys, switch, client, data, _) = rot_on_a_refusing_disk();
    let before = sys.export_meta("moved").unwrap();
    let used: Vec<u64> = (0..DISKS).map(|d| sys.disk_used(d)).collect();

    // Another reader holds the file, so the repairing read cannot take
    // the writer lock a layout commit needs.
    let other = client
        .open("moved", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let (got, rr) = read_with_report(&sys, &client, "moved");
    client.close(other).unwrap();
    assert_eq!(got, data);
    assert_eq!(rr.blocks_repaired, 0, "nothing restored in place");
    assert_eq!(sys.export_meta("moved").unwrap().layout, before.layout);
    let after: Vec<u64> = (0..DISKS).map(|d| sys.disk_used(d)).collect();
    assert_eq!(after, used, "relocated copies were left behind");
    switch.clear();
    check_committed_state(&sys);
}

#[test]
fn scrubber_restores_full_redundancy_unscrubbed_store_decays() {
    // The headline robustness claim, in miniature: under repeated seeded
    // loss + bit rot, a scrubbed store keeps serving reads while an
    // identical unscrubbed control decays past decodability.
    let seq = SeedSequence::new(0xA5);
    let data = payload(180_000, 5);

    let run = |scrubbed: bool| -> (usize, usize) {
        // The control's self-healing is fully off (no scrubber AND no
        // read-repair): the read-repair audit restores the *entire*
        // damage set on any read that trips over damage, so a store
        // that merely keeps reading never decays — only a store with no
        // healer at all demonstrates the decay the scrubber prevents.
        let (sys, _switch) = chaos_system_with(ReadPolicy::default(), scrubbed);
        let client = Client::connect(&sys, sys.register_user());
        put(&client, "wear", &data);
        let mut ok_rounds = 0;
        let mut failed_rounds = 0;
        for round in 0..6u64 {
            for disk in 0..DISKS {
                let sub = seq.subsequence("wear-round", round * DISKS as u64 + disk as u64);
                sys.lose_blocks(disk, 0.18, &sub);
                sys.corrupt_blocks(disk, 0.10, &sub);
            }
            if scrubbed {
                let sweep = Scrubber::new(&client).sweep();
                assert!(sweep.failed.is_empty(), "scrub failed: {:?}", sweep.failed);
            }
            let h = client
                .open("wear", AccessMode::Read, QosOptions::best_effort())
                .unwrap();
            match client.read(&h) {
                Ok(got) => {
                    assert_eq!(got, data, "a served read must be correct");
                    ok_rounds += 1;
                }
                Err(_) => failed_rounds += 1,
            }
            client.close(h).unwrap();
            assert_eq!(sys.pool_outstanding_bytes(), 0);
        }
        if scrubbed {
            // The sweep ends each round at the full redundancy target.
            let meta = sys.export_meta("wear").unwrap();
            assert_eq!(meta.stored_blocks(), meta.coding.n);
            assert_eq!(meta.checksums.len(), meta.coding.n);
        }
        (ok_rounds, failed_rounds)
    };

    let (scrub_ok, scrub_failed) = run(true);
    assert_eq!(scrub_ok, 6, "scrubbed store dropped reads");
    assert_eq!(scrub_failed, 0);
    let (_control_ok, control_failed) = run(false);
    assert!(
        control_failed > 0,
        "control never decayed — the fault load is too weak to prove scrubbing matters"
    );
}

#[test]
fn seeded_read_chaos_replays_bit_identically() {
    // The injected-fault counters replay exactly (not merely `>=` what
    // the report shows) because every budget is spent before the decode
    // point: under the static schedule the slowest disk's third read —
    // the last one any budget covers — is at most the 71st request (the
    // other seven disks deliver 68 blocks meanwhile), and the decoder
    // cannot finish before K = 98 blocks are in. Speculative reads past
    // the decode point find nothing left to consume, so their timing
    // cannot show. Of the report, everything the decode point determines
    // is compared; `blocks_deferred` (how far submission had run ahead
    // when the decoder finished) is wall-clock and left out.
    let run = |seed: u64| {
        let (sys, switch) = chaos_system_with(ReadPolicy::Static, true);
        let client = Client::connect(&sys, sys.register_user());
        put(&client, "replay", &payload(400_000, 6));
        let meta = sys.export_meta("replay").unwrap();
        assert!(meta.coding.k >= 98 && meta.layout.iter().all(|(_, ids)| ids.len() >= 3));
        let plan = ReadFaultPlan::generate(
            &ReadFaultScenario::Mixed {
                transient: 2,
                corrupt: 2,
                torn: 1,
                reads: 3,
            },
            DISKS,
            &SeedSequence::new(seed),
        );
        switch.apply_read(&plan);
        let (got, rr) = read_with_report(&sys, &client, "replay");
        let decode_point = (
            (rr.blocks_fetched, rr.blocks_cancelled, rr.transient_retries),
            (rr.blocks_missing, rr.blocks_corrupt, rr.blocks_unverified),
            rr.blocks_repaired,
        );
        (got, decode_point, switch.injected_read_faults())
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed must replay bit-identically");
    assert_eq!(a.2, (6, 6, 3), "every armed budget was spent");
    let c = run(100);
    assert_eq!(a.0, c.0, "data is correct under any seed");
}

#[test]
fn hard_read_fault_aborts_without_leaking_pool_buffers() {
    // Regression: the old read path returned early on a hard error and
    // dropped the borrowed buffer pool on the floor, so every later read
    // re-allocated from scratch.
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(150_000, 7);
    put(&client, "leaky", &data);

    // Warm the pool with one clean read.
    let _ = read_with_report(&sys, &client, "leaky");
    let (fresh_before, _) = sys.pool_stats();

    // Fastest disk is consumed first by the arrival-order merge, so the
    // hard fault fires early with many buffers checked out.
    switch.fail_reads_hard(DISKS - 1);
    let h = client
        .open("leaky", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let err = client.read(&h).unwrap_err();
    assert!(matches!(err, StoreError::DiskFault { .. }), "{err:?}");
    client.close(h).unwrap();
    assert_eq!(
        sys.pool_outstanding_bytes(),
        0,
        "failed read leaked pool buffers"
    );
    switch.clear();

    // The warm pool survived the failure: a follow-up read runs on its
    // buffers. Not `fresh_after == fresh_before`: how many requests are
    // in flight at a read's peak is wall-clock, so a later read may top
    // the pool up by a few buffers — where a lost pool would cost a full
    // read's worth (`fresh_before`) again.
    let (got, _) = read_with_report(&sys, &client, "leaky");
    assert_eq!(got, data);
    let (fresh_after, reuses) = sys.pool_stats();
    assert!(
        fresh_after - fresh_before < fresh_before / 2,
        "pool was lost in the failed read: {fresh_before} -> {fresh_after} fresh allocations"
    );
    assert!(reuses >= fresh_before, "the follow-up read ran on the pool");
}

#[test]
fn legacy_metadata_without_checksums_reads_unverified() {
    // Forward-compat: files whose metadata predates checksums still read,
    // but the report flags every block as unverified — and one scrub
    // upgrades them to fully verified.
    let (sys, _switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(120_000, 8);
    put(&client, "vintage", &data);

    let mut meta = sys.export_meta("vintage").unwrap();
    assert!(!meta.checksums.is_empty());
    meta.checksums.clear(); // what a v2-era sidecar restores to
    sys.import_meta(meta).unwrap();

    let (got, rr) = read_with_report(&sys, &client, "vintage");
    assert_eq!(got, data);
    assert_eq!(rr.blocks_unverified, rr.blocks_fetched);
    assert_eq!(rr.blocks_corrupt, 0);

    let report = client.scrub("vintage").unwrap();
    assert_eq!(report.blocks_unverified, report.blocks_unverified.max(1));
    assert!(report.checksums_added > 0, "scrub must add digests");
    let (got2, rr2) = read_with_report(&sys, &client, "vintage");
    assert_eq!(got2, data);
    assert_eq!(rr2.blocks_unverified, 0, "scrub left blocks unverifiable");
}
