//! Concurrent-access chaos suite for the sharded backend.
//!
//! Every test drives one shared [`System`] (sharded per-disk backend,
//! group commit on) from several OS threads at once, through a
//! [`ChaosBackend`] armed with deterministic, seeded fault plans. The
//! contract under test is the concurrent extension of the chaos_write
//! suite:
//!
//! * **per-access atomicity** — every access independently commits or
//!   rolls back; a neighbour's fault never corrupts an unrelated file;
//! * **no orphans** — after the storm, on-disk bytes account exactly for
//!   the committed versions (aborted accesses leave nothing behind);
//! * **no interference** — the committed state is byte-identical whether
//!   group commit batches writes or not, and replays identically for the
//!   same seed;
//! * **pool accounting** — `pool_outstanding_bytes() == 0` once every
//!   thread is done.
//!
//! Once the threads are joined and the faults cleared, every schedule
//! ends in [`common::check_committed_state`].
//!
//! Accesses pin their layout (`QosOptions::with_pinned_disks`) so the
//! plan is a pure function of the request: dynamic disk selection reads
//! live usage and would make committed layouts depend on thread
//! interleaving, which is exactly what these tests must rule out.

mod common;

use common::check_committed_state;
use robustore::core::{
    AccessMode, ChaosBackend, Client, FaultSwitch, InMemoryBackend, PublicKey, QosOptions,
    Scrubber, StoreError, System, SystemConfig,
};
use robustore::simkit::{
    ReadFaultPlan, ReadFaultScenario, SeedSequence, WriteFaultPlan, WriteFaultScenario,
};

const DISKS: usize = 8;
const FILES: usize = 4;
const FILE_BYTES: usize = 60_000;

fn chaos_system(group_commit: usize) -> (System, FaultSwitch) {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect();
    let (backend, switch) = ChaosBackend::new(InMemoryBackend::new(speeds));
    let sys = System::with_backend(
        Box::new(backend),
        SystemConfig {
            block_bytes: 4 << 10,
            // Every concurrent access asks for all 8 disks; the default
            // per-disk capacity of a lightly loaded store would refuse
            // some of them and couple layouts to interleaving.
            admission_capacity: 64,
            group_commit,
            ..Default::default()
        },
    );
    assert!(sys.is_sharded(), "chaos backend should shard");
    (sys, switch)
}

/// Pinned layout + fixed redundancy: the committed shape of every file
/// is independent of what the other threads are doing.
fn pinned_qos() -> QosOptions {
    QosOptions::best_effort()
        .with_pinned_disks((0..DISKS).collect())
        .with_redundancy(2.0)
}

fn payload(file: usize, version: u8) -> Vec<u8> {
    (0..FILE_BYTES)
        .map(|i| ((i * 131 + file * 29 + version as usize * 47) % 256) as u8)
        .collect()
}

fn name(file: usize) -> String {
    format!("cc-{file}")
}

fn used_snapshot(sys: &System) -> Vec<u64> {
    (0..DISKS).map(|d| sys.disk_used(d)).collect()
}

/// Serial pre-create of version 1 of every file: file ids — and with
/// them layouts and generation keys — never depend on interleaving.
fn precreate(client: &Client) {
    for f in 0..FILES {
        let mut h = client
            .open(&name(f), AccessMode::Write, pinned_qos())
            .unwrap();
        client.write(&mut h, &payload(f, 1)).unwrap();
        client.close(h).unwrap();
    }
}

fn read_back(client: &Client, file: usize) -> Vec<u8> {
    let h = client
        .open(&name(file), AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let got = client.read(&h).unwrap();
    client.close(h).unwrap();
    got
}

/// Overwrite `file` with `version` from a worker thread, releasing the
/// lock in both outcomes, and return the write's verdict.
fn overwrite(sys: &System, owner: PublicKey, file: usize, version: u8) -> Result<(), StoreError> {
    let client = Client::connect(sys, owner);
    let mut h = client.open(&name(file), AccessMode::Write, pinned_qos())?;
    let outcome = client.write(&mut h, &payload(file, version)).map(|_| ());
    client.close(h)?;
    outcome
}

/// One writer thread per file, no faults: all commit, committed state is
/// byte-identical with group commit on and off.
#[test]
fn concurrent_writers_commit_disjoint_files() {
    let run = |group_commit: usize| {
        let (sys, _switch) = chaos_system(group_commit);
        let owner = sys.register_user();
        let client = Client::connect(&sys, owner);
        precreate(&client);
        std::thread::scope(|scope| {
            for f in 0..FILES {
                let sys = sys.clone();
                scope.spawn(move || overwrite(&sys, owner, f, 2).unwrap());
            }
        });
        let committed = check_committed_state(&sys);
        for f in 0..FILES {
            assert_eq!(committed[&name(f)], payload(f, 2), "file {f} corrupted");
        }
        used_snapshot(&sys)
    };
    let unbatched = run(1);
    let batched = run(8);
    assert_eq!(
        unbatched, batched,
        "group commit changed committed on-disk state"
    );
}

/// A seeded mid-write hard fault under four concurrent overwrites: each
/// access independently commits (new version readable) or rolls back
/// (old version bit-identical), and the store holds no orphaned blocks
/// either way.
#[test]
fn mid_write_failure_rolls_back_only_the_unlucky_accesses() {
    let (sys, switch) = chaos_system(8);
    let owner = sys.register_user();
    let client = Client::connect(&sys, owner);
    precreate(&client);
    let snapshot = used_snapshot(&sys);

    let seq = SeedSequence::new(4242);
    let plan = WriteFaultPlan::generate(
        &WriteFaultScenario::MidWriteFailure { after: 6 },
        DISKS,
        &seq,
    );
    switch.apply(&plan);

    let outcomes: Vec<Result<(), StoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FILES)
            .map(|f| {
                let sys = sys.clone();
                scope.spawn(move || overwrite(&sys, owner, f, 2))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    switch.clear();

    // The dead disk saw 4 accesses wanting ~6 blocks each but accepted
    // only 6 in total, so someone must have hit it after it died.
    assert!(
        outcomes.iter().any(|o| o.is_err()),
        "fault never fired: {outcomes:?}"
    );
    for (f, outcome) in outcomes.iter().enumerate() {
        let expect = match outcome {
            Ok(()) => payload(f, 2),
            Err(e) => {
                assert!(matches!(e, StoreError::DiskFault { .. }), "file {f}: {e:?}");
                payload(f, 1)
            }
        };
        assert_eq!(
            read_back(&client, f),
            expect,
            "file {f} is neither the old nor the new version"
        );
    }
    // Commit and rollback leave identical byte counts here (same size,
    // same pinned layout), so any deviation is an orphan or a lost block.
    assert_eq!(
        used_snapshot(&sys),
        snapshot,
        "aborted accesses left orphans or destroyed committed blocks"
    );
    check_committed_state(&sys);
}

/// Seeded refusing disks under concurrency: refusals are stateless, so
/// every access commits with its displaced blocks rerouted, the refused
/// disks drain to zero bytes, and the committed state replays
/// identically for the same seed — even though four threads raced. The
/// one part left to the race is which disk each displaced block lands
/// on: relocation picks the least-loaded disk by live ring backlog, so
/// it is checked for what it must be — every displaced id appended once
/// to a disk that took the write, every planned id kept in plan order.
#[test]
fn refusing_disks_concurrent_state_replays_identically() {
    let run = |seed: u64, group_commit: usize| {
        let (sys, switch) = chaos_system(group_commit);
        let owner = sys.register_user();
        let client = Client::connect(&sys, owner);
        precreate(&client);
        // Same size, same pinned disks: version 1's layout is the plan
        // every overwrite starts from.
        let planned: Vec<_> = (0..FILES)
            .map(|f| sys.export_meta(&name(f)).unwrap().layout)
            .collect();

        let seq = SeedSequence::new(seed);
        let plan =
            WriteFaultPlan::generate(&WriteFaultScenario::RefusingDisks { n: 2 }, DISKS, &seq);
        let refused: Vec<usize> = plan.faults.iter().map(|f| f.disk).collect();
        switch.apply(&plan);
        std::thread::scope(|scope| {
            for f in 0..FILES {
                let sys = sys.clone();
                scope.spawn(move || overwrite(&sys, owner, f, 2).unwrap());
            }
        });
        switch.clear();

        let mut state = Vec::new();
        for (f, planned) in planned.iter().enumerate() {
            assert_eq!(read_back(&client, f), payload(f, 2), "file {f} corrupted");
            let meta = sys.export_meta(&name(f)).unwrap();
            assert_eq!(meta.layout.len(), planned.len());
            let (mut displaced, mut appended): (Vec<u32>, Vec<u32>) = Default::default();
            let mut kept = Vec::new();
            for ((disk, plan), (d, ids)) in planned.iter().zip(&meta.layout) {
                assert_eq!(disk, d, "file {f}: slot order changed");
                let keep: &[u32] = if refused.contains(disk) {
                    displaced.extend(plan);
                    &[]
                } else {
                    plan
                };
                assert!(
                    ids.starts_with(keep),
                    "file {f}: disk {disk} lost a planned id"
                );
                appended.extend(&ids[keep.len()..]);
                kept.push((*disk, keep.to_vec()));
            }
            displaced.sort_unstable();
            appended.sort_unstable();
            assert_eq!(appended, displaced, "file {f}: each displaced id, once");
            let mut odd: Vec<u32> = meta.odd_keys.iter().copied().collect();
            odd.sort_unstable();
            state.push((kept, odd));
        }
        for &d in &refused {
            assert_eq!(
                sys.disk_used(d),
                0,
                "refused disk {d} still holds bytes after GC"
            );
        }
        check_committed_state(&sys);
        (refused, state, sys.total_used())
    };
    let a = run(77, 8);
    let b = run(77, 8);
    assert_eq!(a, b, "same seed diverged across concurrent runs");
    let c = run(77, 1);
    assert_eq!(a, c, "group commit changed the committed state");
    let d = run(78, 8);
    assert_ne!(a.0, d.0, "different seeds should refuse different disks");
}

/// The full storm: writers overwriting, readers decoding, a scrubber
/// sweeping — all concurrently, with seeded read faults (transient +
/// corrupt + torn) armed the whole time. Every read must decode to a
/// committed version, lock conflicts are the only tolerated refusal,
/// and the pool balances to zero at the end.
#[test]
fn concurrent_read_write_scrub_stress() {
    const ROUNDS: u8 = 3;
    let (sys, switch) = chaos_system(8);
    let owner = sys.register_user();
    let client = Client::connect(&sys, owner);
    precreate(&client);

    let seq = SeedSequence::new(9091);
    let plan = ReadFaultPlan::generate(
        &ReadFaultScenario::Mixed {
            transient: 1,
            corrupt: 1,
            torn: 1,
            reads: 200,
        },
        DISKS,
        &seq,
    );
    switch.apply_read(&plan);

    let retry_open = |client: &Client, file: usize, mode: AccessMode| loop {
        match client.open(&name(file), mode, pinned_qos()) {
            Ok(h) => return h,
            Err(StoreError::LockConflict(_)) => std::thread::yield_now(),
            Err(e) => panic!("open {} for {mode:?}: {e:?}", name(file)),
        }
    };

    std::thread::scope(|scope| {
        // Two writers, two files each, ROUNDS overwrites per file.
        for w in 0..2usize {
            let sys = sys.clone();
            let retry_open = &retry_open;
            scope.spawn(move || {
                let c = Client::connect(&sys, owner);
                for version in 2..=(1 + ROUNDS) {
                    for f in (w..FILES).step_by(2) {
                        let mut h = retry_open(&c, f, AccessMode::Write);
                        c.write(&mut h, &payload(f, version)).unwrap();
                        c.close(h).unwrap();
                    }
                }
            });
        }
        // Two readers: every successful open must decode to *some*
        // committed version of that file, faults notwithstanding.
        for r in 0..2usize {
            let sys = sys.clone();
            let retry_open = &retry_open;
            scope.spawn(move || {
                let c = Client::connect(&sys, owner);
                for round in 0..ROUNDS {
                    for f in 0..FILES {
                        let h = retry_open(&c, f, AccessMode::Read);
                        let got = c.read(&h).unwrap();
                        c.close(h).unwrap();
                        assert!(
                            (1..=1 + ROUNDS).any(|v| got == payload(f, v)),
                            "reader {r} round {round}: file {f} decoded to no \
                             committed version"
                        );
                    }
                }
            });
        }
        // One scrubber sweeping throughout; only lock conflicts with the
        // writers are acceptable per-file failures.
        {
            let sys = sys.clone();
            scope.spawn(move || {
                let c = Client::connect(&sys, owner);
                let scrubber = Scrubber::new(&c);
                for _ in 0..ROUNDS {
                    let report = scrubber.sweep();
                    for (file, err) in &report.failed {
                        assert!(
                            matches!(err, StoreError::LockConflict(_)),
                            "scrub of {file} failed with {err:?}"
                        );
                    }
                }
            });
        }
    });
    switch.clear();

    // Quiesced: every file decodes to its final version and the pool
    // accounts for every byte that moved during the storm.
    let committed = check_committed_state(&sys);
    for f in 0..FILES {
        assert_eq!(
            committed[&name(f)],
            payload(f, 1 + ROUNDS),
            "file {f} lost its final committed version"
        );
    }
    let (transient, corrupt, torn) = switch.injected_read_faults();
    assert!(
        transient + corrupt + torn > 0,
        "the storm never actually exercised a read fault"
    );
}
