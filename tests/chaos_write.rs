//! Chaos suite for the crash-consistent write path.
//!
//! Every test drives a real [`System`] through a [`ChaosBackend`] armed
//! with deterministic, seeded write faults ([`WriteFaultPlan`]) and then
//! asserts the commit-or-rollback contract of the overwrite protocol:
//!
//! * **commit** — the new version is fully readable and the old one is
//!   garbage-collected, or
//! * **rollback** — the access errors, the *previous* version is still
//!   bit-identical and readable, and no partially written block survives
//!   anywhere (backend byte counts return to their pre-access snapshot).
//!
//! In both outcomes the shared buffer pool must account for every byte
//! (`pool_outstanding_bytes() == 0`), and every test ends in
//! [`common::check_committed_state`]: each committed block present and
//! checksummed, each disk holding exactly its committed blocks.

mod common;

use common::check_committed_state;
use robustore::core::{
    AccessMode, ChaosBackend, Client, FaultSwitch, InMemoryBackend, QosOptions, StoreError, System,
    SystemConfig,
};
use robustore::simkit::{SeedSequence, WriteFaultPlan, WriteFaultScenario};

const DISKS: usize = 8;

fn chaos_system() -> (System, FaultSwitch) {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect();
    let (backend, switch) = ChaosBackend::new(InMemoryBackend::new(speeds));
    let sys = System::with_backend(
        Box::new(backend),
        SystemConfig {
            block_bytes: 4 << 10,
            ..Default::default()
        },
    );
    (sys, switch)
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + salt as usize) % 256) as u8)
        .collect()
}

fn used_snapshot(sys: &System) -> Vec<u64> {
    (0..DISKS).map(|d| sys.disk_used(d)).collect()
}

/// Write `data` as `name`, asserting success, and return the handle-free
/// system state to build on.
fn put(sys: &System, client: &Client, name: &str, data: &[u8]) {
    let mut h = client
        .open(name, AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, data).unwrap();
    client.close(h).unwrap();
    let _ = sys; // signature keeps call sites symmetric with read_back
}

fn read_back(sys: &System, client: &Client, name: &str) -> Vec<u8> {
    let h = client
        .open(name, AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let got = client.read(&h).unwrap();
    client.close(h).unwrap();
    assert_eq!(sys.pool_outstanding_bytes(), 0, "read leaked pool buffers");
    got
}

#[test]
fn failed_overwrite_preserves_previous_version() {
    // THE data-loss regression: an overwrite that dies mid-write must
    // leave the committed version untouched. Before the commit protocol,
    // the old generation was deleted *first*, so this exact sequence
    // destroyed the only copy.
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let v1 = payload(150_000, 1);
    put(&sys, &client, "precious", &v1);
    let snapshot = used_snapshot(&sys);

    // Disk 2 accepts three more blocks, then fails hard mid-access.
    switch.fail_disk_after(2, 3);
    let v2 = payload(180_000, 2);
    let mut h = client
        .open("precious", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    let err = client.write(&mut h, &v2).unwrap_err();
    assert!(matches!(err, StoreError::DiskFault { disk: 2 }), "{err:?}");
    client.close(h).unwrap();
    switch.clear();

    // Rollback: previous version bit-identical, zero orphans.
    assert_eq!(read_back(&sys, &client, "precious"), v1);
    assert_eq!(
        used_snapshot(&sys),
        snapshot,
        "aborted overwrite changed on-disk state"
    );
    assert_eq!(sys.pool_outstanding_bytes(), 0);

    // And the retry (fault cleared) commits normally.
    let mut h = client
        .open("precious", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, &v2).unwrap();
    client.close(h).unwrap();
    assert_eq!(check_committed_state(&sys)["precious"], v2);
}

#[test]
fn failed_first_write_leaves_no_orphans() {
    // The storage-leak regression: an error partway through a *first*
    // write used to return with every already-written block stranded on
    // the disks (no metadata referenced them, nothing ever deleted them).
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    switch.fail_disk_after(5, 2);

    let mut h = client
        .open("fresh", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    let err = client.write(&mut h, &payload(120_000, 3)).unwrap_err();
    assert!(matches!(err, StoreError::DiskFault { disk: 5 }));
    client.close(h).unwrap();

    assert_eq!(sys.total_used(), 0, "aborted first write left orphans");
    let (_, writes) = sys.backend_stats();
    assert!(writes > 0, "the fault fired mid-access, not before it");
    assert!(check_committed_state(&sys).is_empty());
}

#[test]
fn refusing_disks_reroute_without_reencoding() {
    // Refusals are routine for a rateless write: the displaced blocks move
    // to healthy disks (reusing their already-encoded bytes) and the
    // access commits. The refused disks must hold zero bytes.
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let seq = SeedSequence::new(77);
    let plan = WriteFaultPlan::generate(&WriteFaultScenario::RefusingDisks { n: 3 }, DISKS, &seq);
    switch.apply(&plan);

    let data = payload(200_000, 4);
    let mut h = client
        .open("routed", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, &data).unwrap();
    let meta = h.meta().unwrap().clone();
    client.close(h).unwrap();

    for fault in &plan.faults {
        assert_eq!(
            sys.disk_used(fault.disk),
            0,
            "refused disk {} holds data",
            fault.disk
        );
        let ids = meta
            .layout
            .iter()
            .find(|(d, _)| *d == fault.disk)
            .map(|(_, ids)| ids.len())
            .unwrap_or(0);
        assert_eq!(ids, 0, "layout still assigns blocks to a refused disk");
    }
    // Every planned block landed somewhere: commit is complete.
    assert_eq!(
        sys.total_used(),
        meta.stored_blocks() as u64 * meta.coding.block_bytes
    );
    switch.clear();
    assert_eq!(check_committed_state(&sys)["routed"], data);
}

#[test]
fn all_disks_refusing_fails_cleanly() {
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let seq = SeedSequence::new(5);
    let plan = WriteFaultPlan::generate(&WriteFaultScenario::AllRefuse, DISKS, &seq);
    assert_eq!(plan.faults.len(), DISKS);
    switch.apply(&plan);

    let mut h = client
        .open("nowhere", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    let err = client.write(&mut h, &payload(90_000, 5)).unwrap_err();
    assert!(
        matches!(err, StoreError::InsufficientDisks { .. }),
        "{err:?}"
    );
    client.close(h).unwrap();
    assert_eq!(sys.total_used(), 0);
    assert!(check_committed_state(&sys).is_empty());
}

#[test]
fn failed_update_preserves_committed_version() {
    // Updates are copy-on-write too: a mid-update hard fault rolls back
    // the flipped-parity blocks and the committed content stays intact.
    let (sys, switch) = chaos_system();
    let client = Client::connect(&sys, sys.register_user());
    let base = payload(160_000, 6);
    put(&sys, &client, "doc", &base);
    let snapshot = used_snapshot(&sys);

    // Recompute the update's dirty coded blocks from the committed coding
    // spec, and arm the disk holding the *last* of them with a budget of
    // its earlier dirty writes — so the fault fires on the final dirty
    // write, after real partial progress that rollback must undo.
    let meta = sys.export_meta("doc").unwrap();
    let spec = meta.coding.clone();
    let code =
        robustore::erasure::lt::LtCode::plan(spec.k, spec.n, spec.params, spec.seed).unwrap();
    let first = (10_000u64 / spec.block_bytes) as usize;
    let last = ((10_000u64 + 4_000 - 1) / spec.block_bytes) as usize;
    let mut dirty: Vec<u32> = (first..=last)
        .flat_map(|o| code.blocks_touching(o))
        .map(|j| j as u32)
        .collect();
    dirty.sort_unstable();
    dirty.dedup();
    assert!(dirty.len() > 1, "patch must dirty several coded blocks");
    let disk_of = |id: u32| {
        meta.layout
            .iter()
            .find(|(_, ids)| ids.contains(&id))
            .map(|(d, _)| *d)
            .expect("dirty block is in the layout")
    };
    let target = disk_of(*dirty.last().unwrap());
    let budget = dirty[..dirty.len() - 1]
        .iter()
        .filter(|&&id| disk_of(id) == target)
        .count() as u64;
    switch.fail_disk_after(target, budget);

    let mut h = client
        .open("doc", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    let err = client
        .update(&mut h, 10_000, &vec![0xEE; 4_000])
        .unwrap_err();
    assert!(
        matches!(err, StoreError::DiskFault { disk } if disk == target),
        "{err:?}"
    );
    client.close(h).unwrap();
    switch.clear();

    assert_eq!(read_back(&sys, &client, "doc"), base);
    assert_eq!(used_snapshot(&sys), snapshot);

    // Cleared fault: the same update commits, old blocks GC'd.
    let mut h = client
        .open("doc", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.update(&mut h, 10_000, &vec![0xEE; 4_000]).unwrap();
    client.close(h).unwrap();
    let mut want = base;
    want[10_000..14_000].copy_from_slice(&vec![0xEE; 4_000]);
    assert_eq!(read_back(&sys, &client, "doc"), want);
    assert_eq!(
        used_snapshot(&sys),
        snapshot,
        "update changed the stored block count"
    );
    assert_eq!(check_committed_state(&sys)["doc"], want);
}

#[test]
fn seeded_fault_plans_replay_identically() {
    // The whole suite is reproducible end to end: the same seed produces
    // the same fault schedule, the same aborted access, and the same
    // final on-disk state.
    let run = |seed: u64| {
        let (sys, switch) = chaos_system();
        let client = Client::connect(&sys, sys.register_user());
        let data = payload(130_000, 7);
        put(&sys, &client, "replay", &data);
        let seq = SeedSequence::new(seed);
        let plan = WriteFaultPlan::generate(
            &WriteFaultScenario::MidWriteFailure { after: 4 },
            DISKS,
            &seq,
        );
        switch.apply(&plan);
        let mut h = client
            .open("replay", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        let outcome = client.write(&mut h, &payload(130_000, 8)).map(|_| ());
        client.close(h).unwrap();
        switch.clear();
        let got = check_committed_state(&sys).remove("replay").unwrap();
        (plan, outcome, used_snapshot(&sys), got)
    };
    let (plan_a, out_a, used_a, got_a) = run(99);
    let (plan_b, out_b, used_b, got_b) = run(99);
    assert_eq!(plan_a.faults.len(), plan_b.faults.len());
    for (a, b) in plan_a.faults.iter().zip(&plan_b.faults) {
        assert_eq!(a.disk, b.disk);
    }
    assert_eq!(out_a.is_ok(), out_b.is_ok());
    assert_eq!(used_a, used_b, "replay diverged in on-disk state");
    assert_eq!(got_a, got_b, "replay diverged in readable content");

    let (plan_c, _, _, _) = run(100);
    let same = plan_a
        .faults
        .iter()
        .zip(&plan_c.faults)
        .all(|(a, c)| a.disk == c.disk);
    assert!(
        plan_a.faults.len() != plan_c.faults.len() || !same,
        "different seeds should move the fault"
    );
}
