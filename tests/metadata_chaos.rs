//! Chaos suite for the durable metadata plane.
//!
//! Every test drives a real [`System`] whose namespace lives in the
//! WAL-backed, quorum-replicated metastore, arms deterministic seeded
//! metadata faults ([`MetaFaultPlan`]) against the shard replicas, and
//! asserts the plane's durability contract:
//!
//! * **crash mid-commit** (a torn log append) recovers to a consistent
//!   pre- or post-commit namespace — never a torn record, never a
//!   half-applied file;
//! * **minority replica loss** costs zero committed files and keeps the
//!   namespace writable; revived replicas are read-repaired back into
//!   agreement;
//! * **bit rot in a log tail** is truncated at the first bad frame and
//!   quorum read-repair re-converges the replica — repeated recovery is
//!   idempotent (second pass drops zero bytes);
//! * the durable plane is **observationally identical** to the
//!   in-memory reference server (`MetadataServer`), call for call, over
//!   the same operation sequence — errors included;
//! * a **failed delete** (metadata quorum lost) leaves the file intact:
//!   the namespace commit comes before the block GC;
//! * a **file-backed** plane survives a full process restart with the
//!   namespace and the file-id floor intact.

use std::collections::BTreeMap;

use robustore::core::metadata::CodingSpec;
use robustore::core::{
    AccessMode, Client, FileMeta, InMemoryBackend, MemReplica, MetadataServer, Metastore,
    MetastoreConfig, QosOptions, StoreError, System, SystemConfig,
};
use robustore::erasure::LtParams;
use robustore::simkit::{MetaFaultKind, MetaFaultPlan, MetaFaultScenario, SeedSequence};

const DISKS: usize = 8;

/// A system whose metadata plane is the durable metastore with the given
/// shard/replica shape (in-memory replicas: quorum-replicated and
/// chaos-injectable, no disk I/O).
fn durable_system(shards: usize, replicas: usize) -> System {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 20e6 + i as f64 * 5e6).collect();
    System::new(
        InMemoryBackend::new(speeds),
        SystemConfig {
            block_bytes: 4 << 10,
            metastore: MetastoreConfig {
                shards,
                replicas,
                ..MetastoreConfig::default()
            },
            ..Default::default()
        },
    )
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + salt as usize * 29) % 256) as u8)
        .collect()
}

fn put(client: &Client, name: &str, data: &[u8]) {
    let mut h = client
        .open(name, AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, data).unwrap();
    client.close(h).unwrap();
}

fn get(client: &Client, name: &str) -> Vec<u8> {
    let h = client
        .open(name, AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let data = client.read(&h).unwrap();
    client.close(h).unwrap();
    data
}

/// Clone out every shard's replica handles so faults can be armed and
/// replicas revived without holding the metadata lock.
fn replica_handles(sys: &System) -> Vec<Vec<MemReplica>> {
    sys.with_metastore(|m| {
        (0..m.shard_count())
            .map(|s| {
                (0..m.replica_count())
                    .map(|r| m.mem_replica(s, r).expect("in-memory replica").clone())
                    .collect()
            })
            .collect()
    })
}

/// Arm every fault in `plan` against the cloned replica handles.
fn apply_plan(handles: &[Vec<MemReplica>], plan: &MetaFaultPlan) {
    for f in &plan.faults {
        let replica = &handles[f.shard][f.replica];
        match f.kind {
            MetaFaultKind::ReplicaDown => replica.set_down(true),
            MetaFaultKind::TornAppend { keep } => replica.arm_torn_append(keep),
            MetaFaultKind::CorruptTail { bytes } => replica.corrupt_tail(bytes),
        }
    }
}

/// The full namespace as (name -> meta), straight off the plane.
fn namespace(sys: &System) -> BTreeMap<String, FileMeta> {
    sys.with_metastore(|m| {
        m.list()
            .into_iter()
            .map(|n| {
                let meta = m.stat(&n).expect("listed file must stat").clone();
                (n, meta)
            })
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Crash mid-commit: atomicity of the commit record
// ---------------------------------------------------------------------------

/// A torn append on a minority of replicas mid-commit must leave the
/// namespace in exactly the pre- or post-commit state after recovery —
/// never a torn or partial record — across many seeds.
#[test]
fn crash_mid_commit_recovers_pre_or_post_never_torn() {
    for seed in 0..8u64 {
        let seq = SeedSequence::new(seed);
        let sys = durable_system(4, 3);
        let client = Client::connect(&sys, sys.register_user());

        // A committed base namespace that must survive whatever happens.
        for i in 0..12 {
            put(&client, &format!("base-{i}"), &payload(6 << 10, i as u8));
        }
        let base = namespace(&sys);

        // Tear the next append (the commit record) on replicas of the
        // victim's shard. Seeds alternate between a survivable single
        // tear (commit succeeds on the remaining majority) and a
        // two-replica tear (commit loses quorum and fails) — recovery
        // must be consistent either way.
        let victim = format!("victim-{seed}");
        let shard = sys.with_metastore(|m| m.shard_of(&victim));
        let handles = replica_handles(&sys);
        let tears = 1 + (seed as usize % 2);
        // Draw the torn byte count from the seeded plan machinery so
        // every seed tears at a different offset inside the frame.
        let plan = MetaFaultPlan::generate(
            &MetaFaultScenario::CrashMidCommit {
                shards: 1,
                keep: 3 + seed as usize * 7,
            },
            1,
            3,
            &seq,
        );
        let keep = match plan.faults[0].kind {
            MetaFaultKind::TornAppend { keep } => keep,
            _ => unreachable!(),
        };
        for replica in handles[shard].iter().take(tears) {
            replica.arm_torn_append(keep);
        }

        let mut h = client
            .open(&victim, AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        let commit = client.write(&mut h, &payload(6 << 10, 0xEE));
        drop(h);
        if tears == 1 {
            commit.as_ref().expect("single torn replica keeps quorum");
        } else {
            match commit {
                Err(StoreError::MetaQuorumLost { .. }) => {}
                other => panic!("two torn replicas must lose quorum, got {other:?}"),
            }
        }

        // Crash: discard all volatile metadata state, replay the logs.
        let reports = sys.recover_metadata().unwrap();
        let after = namespace(&sys);

        // Every base file survives, bit for bit.
        for (name, meta) in &base {
            assert_eq!(
                after.get(name),
                Some(meta),
                "seed {seed}: base file {name} damaged by mid-commit crash"
            );
        }
        // The victim is atomically absent or atomically complete.
        match after.get(&victim) {
            None => assert!(commit.is_err(), "seed {seed}: committed file vanished"),
            Some(meta) => {
                assert_eq!(meta.name, victim);
                assert!(meta.coding.k > 0 && meta.coding.n >= meta.coding.k);
                assert_eq!(meta.size_bytes, (6 << 10) as u64);
            }
        }
        assert_eq!(
            after.len(),
            base.len() + after.contains_key(&victim) as usize
        );
        // The torn tail was detected and dropped somewhere.
        let dropped: u64 = reports.iter().map(|r| r.torn_bytes_dropped).sum();
        assert!(
            dropped > 0,
            "seed {seed}: torn append left no trace to drop"
        );
    }
}

// ---------------------------------------------------------------------------
// Minority replica loss: zero namespace loss, then read-repair
// ---------------------------------------------------------------------------

/// Losing a strict minority of every shard's replicas loses zero files,
/// keeps the namespace writable, and revived replicas are repaired.
#[test]
fn minority_replica_loss_loses_zero_files() {
    let seq = SeedSequence::new(7);
    let sys = durable_system(4, 3);
    let client = Client::connect(&sys, sys.register_user());

    let mut contents = BTreeMap::new();
    for i in 0..24 {
        let name = format!("file-{i:03}");
        let data = payload(5 << 10, i as u8);
        put(&client, &name, &data);
        contents.insert(name, data);
    }
    let before = namespace(&sys);

    // Down a strict minority of every shard (the plan clamps below
    // quorum no matter how greedy the scenario).
    let handles = replica_handles(&sys);
    let plan = MetaFaultPlan::generate(
        &MetaFaultScenario::MinorityLoss {
            per_replica_losses: 99,
        },
        4,
        3,
        &seq,
    );
    apply_plan(&handles, &plan);
    for shard in 0..4 {
        assert_eq!(plan.downed(shard), 1, "3 replicas -> at most 1 may fall");
    }

    // The namespace stays fully readable and writable on the majority.
    for (name, data) in &contents {
        assert_eq!(&get(&client, name), data, "{name} lost with minority down");
    }
    put(&client, "written-degraded", &payload(4 << 10, 0xDD));

    // Crash-recover while the minority is still down: every committed
    // file must come back from the surviving majority.
    let reports = sys.recover_metadata().unwrap();
    for r in &reports {
        assert_eq!(r.replicas_available, 2, "shard {} quorum shape", r.shard);
    }
    let after = namespace(&sys);
    for (name, meta) in &before {
        assert_eq!(after.get(name), Some(meta), "{name} lost in recovery");
    }
    assert!(after.contains_key("written-degraded"));

    // Revive the minority; recovery read-repairs it back into the fold.
    for row in &handles {
        for replica in row {
            replica.set_down(false);
        }
    }
    let healed = sys.recover_metadata().unwrap();
    let repaired: usize = healed.iter().map(|r| r.replicas_repaired).sum();
    assert!(repaired > 0, "revived laggards must be read-repaired");
    assert_eq!(
        namespace(&sys),
        after,
        "healing must not change the namespace"
    );
    // A fully-healed plane recovers clean: nothing to repair, no torn
    // bytes, all replicas present.
    for r in sys.recover_metadata().unwrap() {
        assert_eq!(r.replicas_available, 3);
        assert_eq!(r.torn_bytes_dropped, 0);
    }
}

// ---------------------------------------------------------------------------
// Corrupted log tail: truncation + convergence
// ---------------------------------------------------------------------------

/// Bit rot in one replica's log tail per shard is truncated at the first
/// bad frame; quorum carries the namespace and read-repair re-converges
/// the rotten replica, so a second recovery drops zero bytes.
#[test]
fn corrupt_log_tail_truncated_and_converges() {
    let seq = SeedSequence::new(11);
    let sys = durable_system(4, 3);
    let client = Client::connect(&sys, sys.register_user());

    for i in 0..24 {
        put(&client, &format!("file-{i:03}"), &payload(5 << 10, i as u8));
    }
    let before = namespace(&sys);

    let handles = replica_handles(&sys);
    let plan = MetaFaultPlan::generate(
        &MetaFaultScenario::TailRot {
            shards: 99,
            bytes: 13,
        },
        4,
        3,
        &seq,
    );
    assert_eq!(plan.faults.len(), 4, "one rotten replica on every shard");
    apply_plan(&handles, &plan);

    let reports = sys.recover_metadata().unwrap();
    let dropped: u64 = reports.iter().map(|r| r.torn_bytes_dropped).sum();
    let repaired: usize = reports.iter().map(|r| r.replicas_repaired).sum();
    assert!(dropped > 0, "tail rot must be detected and truncated");
    assert!(repaired > 0, "rotten replicas must be read-repaired");
    assert_eq!(namespace(&sys), before, "quorum must carry the namespace");

    // Convergence: read-repair already rewrote the divergent replicas,
    // so recovering again finds a clean, agreeing replica set.
    for r in sys.recover_metadata().unwrap() {
        assert_eq!(
            r.torn_bytes_dropped, 0,
            "shard {} did not converge",
            r.shard
        );
        assert_eq!(r.replicas_available, 3);
    }
    assert_eq!(namespace(&sys), before);
}

/// The combined storm — minority down, a torn append, and a rotten tail
/// on every shard at once — is survivable by construction: committed
/// files never disappear, and the plane heals once replicas return.
#[test]
fn fault_storm_is_survivable() {
    let seq = SeedSequence::new(3);
    let sys = durable_system(2, 5);
    let client = Client::connect(&sys, sys.register_user());

    for i in 0..16 {
        put(&client, &format!("file-{i:03}"), &payload(4 << 10, i as u8));
    }
    let before = namespace(&sys);

    let handles = replica_handles(&sys);
    let plan = MetaFaultPlan::generate(
        &MetaFaultScenario::Storm {
            per_replica_losses: 2,
            keep: 6,
            bytes: 9,
        },
        2,
        5,
        &seq,
    );
    apply_plan(&handles, &plan);

    // Writes during the storm may lose quorum (2 down + 1 torn leaves
    // exactly 2 of the needed 3 acks) — that is allowed; what is not
    // allowed is damaging committed state.
    for i in 0..4 {
        let name = format!("storm-{i}");
        let mut h = client
            .open(&name, AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        let _ = client.write(&mut h, &payload(4 << 10, 0xA0 + i));
        drop(h);
    }

    let reports = sys.recover_metadata().unwrap();
    for r in &reports {
        assert_eq!(r.replicas_available, 3, "5 replicas minus 2 down");
    }
    let after = namespace(&sys);
    for (name, meta) in &before {
        assert_eq!(after.get(name), Some(meta), "{name} lost in the storm");
    }

    // Heal and verify convergence.
    for row in &handles {
        for replica in row {
            replica.set_down(false);
        }
    }
    sys.recover_metadata().unwrap();
    for r in sys.recover_metadata().unwrap() {
        assert_eq!(r.replicas_available, 5);
        assert_eq!(r.torn_bytes_dropped, 0);
    }
    let healed = namespace(&sys);
    for name in before.keys() {
        assert!(healed.contains_key(name), "{name} lost after healing");
    }
}

// ---------------------------------------------------------------------------
// Differential: durable plane vs the in-memory reference server
// ---------------------------------------------------------------------------

/// The durable plane must answer every call exactly as the in-memory
/// reference server does over a mixed open/commit/remove/close/stat/list
/// sequence — lock conflicts, `StaleHandle` and `NotFound` included —
/// and a fault-free crash-recovery cycle on the durable side must be
/// invisible.
#[test]
fn durable_plane_matches_reference_server_call_for_call() {
    let mut durable = Metastore::new(MetastoreConfig {
        shards: 4,
        replicas: 3,
        ..MetastoreConfig::default()
    })
    .unwrap();
    let mut reference = MetadataServer::new();

    let file_meta = |name: &str, file_id: u64, version: u64| FileMeta {
        name: name.into(),
        file_id,
        size_bytes: 3 << 10,
        coding: CodingSpec {
            k: 3,
            n: 9,
            block_bytes: 1 << 10,
            params: LtParams::default(),
            seed: file_id ^ version,
        },
        layout: vec![(0, vec![0, 1, 2]), (1, vec![3, 4, 5]), (2, vec![6, 7, 8])],
        odd_keys: [version as u32 % 9].into_iter().collect(),
        checksums: (0..9).map(|id| (id, id ^ version as u32)).collect(),
        owner: 7,
        version,
    };

    // Handles the sequence holds open, released (on both) at the end.
    let mut held: Vec<(String, AccessMode)> = Vec::new();
    // Every error the durable plane returned (each was compared).
    let mut errors: Vec<StoreError> = Vec::new();
    let mut rng = SeedSequence::new(0xD1FF).fork("ops", 0);
    for step in 0..400u64 {
        let draw = rand::Rng::gen::<u64>(&mut rng);
        let name = format!("file-{}", draw % 6);
        match (draw >> 8) % 8 {
            // Open for write (conflicts when a handle is already held),
            // commit a new version, close.
            0 | 3 | 5 => {
                let d = durable.open(&name, AccessMode::Write);
                assert_eq!(
                    d,
                    reference.open(&name, AccessMode::Write),
                    "{step}: open W"
                );
                errors.extend(d.as_ref().err().cloned());
                if let Ok(old) = d {
                    let (file_id, version) = match &old {
                        Some(m) => (m.file_id, m.version + 1),
                        None => {
                            let id = durable.allocate_file_id().unwrap();
                            assert_eq!(id, reference.allocate_file_id(), "{step}: id");
                            (id, 1)
                        }
                    };
                    let meta = file_meta(&name, file_id, version);
                    assert_eq!(
                        durable.commit(meta.clone()),
                        reference.commit(meta),
                        "{step}: commit"
                    );
                    durable.close(&name, AccessMode::Write);
                    reference.close(&name, AccessMode::Write);
                }
            }
            // Open for read and keep the handle, so later writers and
            // removers run into it.
            1 => {
                let d = durable.open(&name, AccessMode::Read);
                assert_eq!(d, reference.open(&name, AccessMode::Read), "{step}: open R");
                errors.extend(d.as_ref().err().cloned());
                if d.is_ok() {
                    held.push((name, AccessMode::Read));
                }
            }
            // Remove under the writer lock (NotFound for an absent file).
            2 => {
                let d = durable.open(&name, AccessMode::Write);
                assert_eq!(
                    d,
                    reference.open(&name, AccessMode::Write),
                    "{step}: open W"
                );
                if d.is_ok() {
                    let removed = durable.remove(&name);
                    assert_eq!(removed, reference.remove(&name), "{step}: remove");
                    errors.extend(removed.err());
                    durable.close(&name, AccessMode::Write);
                    reference.close(&name, AccessMode::Write);
                }
            }
            // Commit and remove without holding the lock: StaleHandle.
            4 => {
                let meta = file_meta(&name, 999, step);
                let d = durable.commit(meta.clone());
                assert_eq!(d, reference.commit(meta), "{step}: unlocked commit");
                errors.extend(d.err());
                assert_eq!(
                    durable.remove(&name),
                    reference.remove(&name),
                    "{step}: unlocked remove"
                );
            }
            // Release the oldest held handle.
            6 => {
                if !held.is_empty() {
                    let (name, mode) = held.remove(0);
                    durable.close(&name, mode);
                    reference.close(&name, mode);
                }
            }
            // Status queries.
            _ => {
                assert_eq!(durable.stat(&name), reference.stat(&name), "{step}: stat");
                assert_eq!(
                    durable.exists(&name),
                    reference.exists(&name),
                    "{step}: exists"
                );
                assert_eq!(durable.list(), reference.list(), "{step}: list");
            }
        }
    }
    for (name, mode) in held {
        durable.close(&name, mode);
        reference.close(&name, mode);
    }
    let names = reference.list();
    assert!(!names.is_empty(), "the sequence left files to compare");
    assert_eq!(durable.list(), names);
    for (kind, seen) in [
        (
            "LockConflict",
            errors
                .iter()
                .any(|e| matches!(e, StoreError::LockConflict(_))),
        ),
        ("StaleHandle", errors.contains(&StoreError::StaleHandle)),
        (
            "NotFound",
            errors.iter().any(|e| matches!(e, StoreError::NotFound(_))),
        ),
    ] {
        assert!(seen, "the sequence never produced a {kind} to compare");
    }

    // A fault-free crash-recovery cycle must be invisible.
    durable.crash_and_recover().unwrap();
    assert_eq!(durable.list(), names);
    for name in &names {
        assert_eq!(
            durable.stat(name),
            reference.stat(name),
            "{name} after recovery"
        );
    }
}

// ---------------------------------------------------------------------------
// Failed delete: commit-then-GC
// ---------------------------------------------------------------------------

/// Regression: `delete` used to remove every coded block and only then
/// the namespace entry — so a delete that failed on metadata quorum
/// returned `Err` and left a listed file with zero blocks. The remove is
/// the commit point now; the block GC follows it.
#[test]
fn failed_delete_leaves_the_file_intact() {
    let sys = durable_system(2, 3);
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(20 << 10, 0x3C);
    put(&client, "keep", &data);
    let used = sys.total_used();

    // Majority of every shard down: the remove cannot reach quorum.
    let handles = replica_handles(&sys);
    for row in &handles {
        for replica in row.iter().take(2) {
            replica.set_down(true);
        }
    }
    match client.delete("keep") {
        Err(StoreError::MetaQuorumLost { .. }) => {}
        other => panic!("delete without metadata quorum must fail, got {other:?}"),
    }
    for row in &handles {
        for replica in row {
            replica.set_down(false);
        }
    }
    assert_eq!(sys.list_files(), ["keep"]);
    assert_eq!(sys.total_used(), used, "a failed delete removed blocks");
    assert_eq!(
        get(&client, "keep"),
        data,
        "a failed delete destroyed the file"
    );

    // With quorum back the same delete goes through and frees everything.
    client.delete("keep").unwrap();
    assert!(sys.list_files().is_empty());
    assert_eq!(sys.total_used(), 0);
}

// ---------------------------------------------------------------------------
// File-backed restart
// ---------------------------------------------------------------------------

/// A file-backed plane survives a full process restart: the namespace
/// replays from the on-disk logs and the file-id floor guarantees no id
/// is ever reissued across the crash.
#[test]
fn file_backed_plane_survives_restart() {
    let dir = std::env::temp_dir().join(format!("rbst-metachaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = MetastoreConfig {
        shards: 2,
        replicas: 3,
        dir: Some(dir.clone()),
        ..MetastoreConfig::default()
    };

    let make = |cfg: MetastoreConfig| {
        let speeds: Vec<f64> = (0..DISKS).map(|i| 20e6 + i as f64 * 5e6).collect();
        System::new(
            InMemoryBackend::new(speeds),
            SystemConfig {
                block_bytes: 4 << 10,
                metastore: cfg,
                ..Default::default()
            },
        )
    };

    let (before, max_id) = {
        let sys = make(config.clone());
        let client = Client::connect(&sys, sys.register_user());
        for i in 0..10 {
            put(&client, &format!("disk-{i}"), &payload(4 << 10, i as u8));
        }
        client.delete("disk-3").unwrap();
        let ns = namespace(&sys);
        let max_id = ns.values().map(|m| m.file_id).max().unwrap();
        (ns, max_id)
        // Drop = the process dies; only <dir> survives.
    };

    let sys = make(config);
    assert_eq!(
        namespace(&sys),
        before,
        "restart must replay the namespace from the WALs"
    );
    // Ids never march backwards across a crash: a new file's id clears
    // everything allocated in the previous life.
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "after-restart", &payload(4 << 10, 0x5A));
    let new_id = sys.with_metastore(|m| m.stat("after-restart").unwrap().file_id);
    assert!(
        new_id > max_id,
        "file id {new_id} reissued at or below pre-crash max {max_id}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Stale locks across recovery
// ---------------------------------------------------------------------------

/// Locks are volatile: a crash takes every lock holder with it, so
/// recovery rebuilds the table empty and a file a dead writer held is
/// immediately writable again.
#[test]
fn recovery_reclaims_dead_writers_locks() {
    let sys = durable_system(2, 3);
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "held", &payload(4 << 10, 1));

    // A writer opens the file and then "crashes" (handle leaked, never
    // closed). The lock is live, so a second writer bounces.
    let h = client
        .open("held", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    match client.open("held", AccessMode::Write, QosOptions::best_effort()) {
        Err(StoreError::LockConflict(_)) => {}
        Err(other) => panic!("expected lock conflict, got {other:?}"),
        Ok(_) => panic!("expected lock conflict, got a handle"),
    }
    std::mem::forget(h);

    sys.recover_metadata().unwrap();
    // The dead writer's lock did not survive the crash.
    let h2 = client
        .open("held", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.close(h2).unwrap();
}
