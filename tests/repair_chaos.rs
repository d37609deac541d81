//! Chaos suite for the prioritised, rate-limited repair service.
//!
//! The repair service turns the per-file scrub into a store-wide control
//! loop: a risk queue ordered by health-weighted surviving margin, a
//! token-bucket byte budget charged before every repair submission, and
//! background ring priority so repair I/O yields to foreground queues.
//! These tests pin the semantics under seeded damage and real
//! concurrency:
//!
//! * **the risk queue ranks damage and disk health** — fewest surviving
//!   blocks first, and a file whose survivors sit on flaky disks ranks
//!   riskier than an equally-present file on healthy ones;
//! * **a file deleted mid-sweep is skipped, not failed** — the scrubber
//!   must not retry a ghost forever (regression: `NotFound` used to land
//!   in `failed`);
//! * **the budget holds under load** — repair racing foreground reads
//!   never charges more than `rate · elapsed + burst` bytes, commits or
//!   rolls back cleanly (no orphan blocks: stored bytes equal exactly
//!   the metadata-reachable block set), and loses no decodability;
//! * **repair restores full strength across decay rounds** — seeded
//!   per-file loss each round, and every round ends with every file
//!   bit-correct and back to its full `n`-block target;
//! * **restored blocks go home** — a scrub rewrites at-rest loss on the
//!   disks it was lost from, so the layout and every disk's byte count
//!   come back exactly as written;
//! * **sweep reports feed the repair backlog** — a file the sweep could
//!   not finish (lock-busy, refused restores) is enqueued and healed by
//!   a later backlog pass that probes only the suspects, and the
//!   continuous `scrub_tick` schedule converges without any on-demand
//!   store-wide survey.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};

use common::check_committed_state;
use robustore::core::{
    AccessMode, Client, InMemoryBackend, QosOptions, RepairService, ScrubOptions, Scrubber, System,
    SystemConfig, TokenBucket,
};
use robustore::diskmodel::DiskHealth;
use robustore::simkit::SeedSequence;

const DISKS: usize = 8;
const BLOCK: u64 = 4 << 10;

fn system() -> System {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect();
    System::with_backend(
        Box::new(InMemoryBackend::new(speeds)),
        SystemConfig {
            block_bytes: BLOCK,
            read_repair: false,
            ..Default::default()
        },
    )
}

fn payload(len: usize, tag: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + tag * 101) % 255) as u8)
        .collect()
}

fn put(client: &Client, name: &str, data: &[u8]) {
    let mut h = client
        .open(
            name,
            AccessMode::Write,
            QosOptions::best_effort().with_redundancy(3.0),
        )
        .unwrap();
    client.write(&mut h, data).unwrap();
    client.close(h).unwrap();
}

fn read_back(client: &Client, name: &str) -> Vec<u8> {
    let h = client
        .open(name, AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let got = client.read(&h).unwrap();
    client.close(h).unwrap();
    got
}

/// Metadata-reachable stored bytes: every block the committed layouts
/// claim that answers a presence probe. Equal to the backend's byte
/// count exactly when no orphan blocks exist.
fn reachable_bytes(sys: &System) -> u64 {
    sys.list_files()
        .iter()
        .map(|name| {
            let meta = sys.export_meta(name).unwrap();
            meta.layout
                .iter()
                .flat_map(|(d, ids)| ids.iter().map(move |&id| (*d, id)))
                .filter(|&(d, id)| sys.probe_block(d, meta.block_key(id)))
                .count() as u64
                * BLOCK
        })
        .sum()
}

#[test]
fn risk_queue_orders_by_damage_and_disk_health() {
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "heavy", &payload(60_000, 1));
    put(&client, "light", &payload(60_000, 2));
    put(&client, "clean", &payload(60_000, 3));

    let seq = SeedSequence::new(0x715C);
    let heavy_lost = sys.lose_file_blocks("heavy", 0.5, &seq.subsequence("loss", 0));
    let light_lost = sys.lose_file_blocks("light", 0.15, &seq.subsequence("loss", 1));
    assert!(heavy_lost > light_lost, "seeded damage must be graded");

    let service = RepairService::new(Client::connect(&sys, client.identity()));
    let queue = service.risk_queue();
    let names: Vec<&str> = queue.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        ["heavy", "light", "clean"],
        "risk queue must order fewest-surviving-first"
    );
    assert!(queue[0].margin < queue[1].margin);
    assert!(queue[1].margin < queue[2].margin);
    assert_eq!(queue[2].present, queue[2].target, "clean file is full");

    // Health weighting: marking every disk flaky halves every present
    // block's weight, so "clean" — still physically intact — now ranks
    // with a smaller margin than a half-weight store can justify.
    let clean_margin_healthy = queue[2].margin;
    for d in 0..DISKS {
        service.set_disk_health(d, DiskHealth::Flaky);
    }
    let reweighted = service.risk_queue();
    let clean = reweighted.iter().find(|e| e.name == "clean").unwrap();
    assert!(
        clean.margin < clean_margin_healthy,
        "flaky disks must cut the weighted margin ({} !< {clean_margin_healthy})",
        clean.margin
    );
    // Failed disks zero their blocks out entirely.
    for d in 0..DISKS {
        service.set_disk_health(d, DiskHealth::Failed);
    }
    for e in service.risk_queue() {
        assert_eq!(
            e.margin,
            -(e.k as f64),
            "all-failed disks must weight every block to zero"
        );
    }
}

#[test]
fn sweep_skips_files_deleted_mid_sweep() {
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "keep-a", &payload(40_000, 4));
    put(&client, "condemned", &payload(40_000, 5));
    put(&client, "keep-b", &payload(40_000, 6));

    // The sweep plan is the listing *before* the delete — exactly the
    // mid-sweep race: by the time the scrubber reaches "condemned", the
    // file is gone.
    let plan = {
        let mut names = sys.list_files();
        names.sort();
        names
    };
    assert!(plan.contains(&"condemned".to_string()));
    client.delete("condemned").unwrap();

    let report = Scrubber::new(&client).sweep_names(&plan, &ScrubOptions::default());
    assert_eq!(
        report.skipped,
        vec!["condemned".to_string()],
        "a deleted file is a skip, not damage"
    );
    assert!(
        report.failed.is_empty(),
        "regression: NotFound must not be recorded as a failure (would retry forever): {:?}",
        report.failed
    );
    assert_eq!(report.scrubbed.len(), 2);

    // And the race under real concurrency: a deleter thread racing the
    // sweep must only ever produce scrubbed or skipped outcomes.
    put(&client, "condemned", &payload(40_000, 5));
    let deleter_sys = sys.clone();
    let identity = client.identity();
    std::thread::scope(|scope| {
        let deleter = scope.spawn(move || {
            let dc = Client::connect(&deleter_sys, identity);
            // Retry: the sweep may hold the file's lock mid-scrub.
            loop {
                match dc.delete("condemned") {
                    Ok(()) => break,
                    Err(_) => std::thread::yield_now(),
                }
            }
        });
        for _ in 0..20 {
            let r = Scrubber::new(&client).sweep_with(&ScrubOptions::default());
            for (name, err) in &r.failed {
                assert!(
                    name != "condemned",
                    "concurrent delete surfaced as failure: {err}"
                );
            }
        }
        deleter.join().unwrap();
    });
    let report = Scrubber::new(&client).sweep();
    assert!(report.failed.is_empty());
    assert!(!report.scrubbed.iter().any(|r| r.file == "condemned"));
}

#[test]
fn rate_limited_repair_under_foreground_load_holds_budget_and_state() {
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    let hot = payload(80_000, 7);
    put(&client, "hot", &hot);
    for f in 0..4 {
        put(&client, &format!("cold-{f}"), &payload(80_000, 10 + f));
    }
    let seq = SeedSequence::new(0xBEEF);
    for f in 0..4u64 {
        sys.lose_file_blocks(&format!("cold-{f}"), 0.3, &seq.subsequence("loss", f));
    }

    // Generous enough to finish in test time, tight enough that the
    // ceiling invariant is a real constraint (scrubbing 4 files reads
    // ~4.6 MB).
    let rate = 64e6;
    let burst = 256 * 1024;
    let stop = AtomicBool::new(false);
    let identity = client.identity();
    let service = RepairService::new(Client::connect(&sys, identity)).with_rate(rate, burst);

    std::thread::scope(|scope| {
        let repair = scope.spawn(|| {
            let mut cycles = 0u32;
            let mut reports = Vec::new();
            while !stop.load(Ordering::Relaxed) && cycles < 50 {
                reports.push(service.run_cycle(usize::MAX));
                cycles += 1;
            }
            reports
        });
        // Foreground reads hammer the hot file the whole time the repair
        // service works the cold set.
        for _ in 0..30 {
            assert_eq!(read_back(&client, "hot"), hot, "foreground read corrupted");
        }
        stop.store(true, Ordering::Relaxed);
        let reports = repair.join().unwrap();
        let bucket = service.bucket().expect("rate-limited service has a bucket");
        assert!(
            bucket.consumed() as f64 <= bucket.budget_ceiling(),
            "token bucket exceeded: {} > {:.0}",
            bucket.consumed(),
            bucket.budget_ceiling()
        );
        let restored: usize = reports.iter().map(|r| r.blocks_restored).sum();
        assert!(restored > 0, "seeded damage must force restores");
        assert!(
            reports.iter().all(|r| r.failed.is_empty()),
            "no repair cycle may fail: {:?}",
            reports
                .iter()
                .flat_map(|r| r.failed.clone())
                .collect::<Vec<_>>()
        );
        // Charges account for at least the restored payload.
        assert!(bucket.consumed() >= (restored as u64) * BLOCK);
    });

    // Quiesced: a final cycle tops everything up, then the store must be
    // exactly consistent — every file decodable and bit-correct, every
    // file at full strength, and not one orphan byte (commit-or-rollback
    // means stored bytes == metadata-reachable bytes).
    service.run_cycle(usize::MAX);
    assert_eq!(read_back(&client, "hot"), hot);
    for f in 0..4 {
        assert_eq!(
            read_back(&client, &format!("cold-{f}")),
            payload(80_000, 10 + f),
            "cold-{f} lost decodability"
        );
    }
    for e in service.risk_queue() {
        assert_eq!(e.present, e.target, "{} not at full strength", e.name);
    }
    assert_eq!(
        sys.total_used(),
        reachable_bytes(&sys),
        "orphan blocks: backend stores bytes no layout reaches"
    );
    assert_eq!(sys.pool_outstanding_bytes(), 0);
}

#[test]
fn repair_service_survives_repeated_decay_rounds() {
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    for f in 0..3 {
        put(&client, &format!("file-{f}"), &payload(60_000, 20 + f));
    }
    let service = RepairService::new(Client::connect(&sys, client.identity()));
    let seq = SeedSequence::new(0xDECA);
    for round in 0..5u64 {
        for f in 0..3u64 {
            sys.lose_file_blocks(
                &format!("file-{f}"),
                0.35,
                &seq.subsequence("decay", round * 3 + f),
            );
        }
        let report = service.run_cycle(usize::MAX);
        assert!(
            report.failed.is_empty(),
            "round {round} failed: {:?}",
            report.failed
        );
        assert!(report.blocks_restored > 0, "round {round} restored nothing");
        // Zero decodability loss, every round, hard-asserted.
        for f in 0..3 {
            assert_eq!(
                read_back(&client, &format!("file-{f}")),
                payload(60_000, 20 + f),
                "file-{f} lost data in round {round}"
            );
        }
        for e in service.risk_queue() {
            assert_eq!(
                e.present, e.target,
                "round {round}: {} not restored to full strength",
                e.name
            );
        }
    }
    assert_eq!(sys.total_used(), reachable_bytes(&sys), "orphan blocks");
    assert_eq!(sys.pool_outstanding_bytes(), 0);
}

#[test]
fn unthrottled_bucket_charges_are_exact() {
    // The accounting side of the budget: an unlimited bucket still
    // counts every byte the scrub path charges, fetch and restore both.
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "f", &payload(40_000, 9));
    let meta = sys.export_meta("f").unwrap();
    let stored: usize = meta.layout.iter().map(|(_, ids)| ids.len()).sum();
    let seq = SeedSequence::new(0xACC7);
    let lost = sys.lose_file_blocks("f", 0.25, &seq.subsequence("loss", 0));
    assert!(lost > 0);

    let bucket = TokenBucket::new(0.0, 0);
    let opts = ScrubOptions {
        throttle: Some(&bucket),
        background: true,
    };
    let report = client.scrub_with("f", &opts).unwrap();
    assert_eq!(report.blocks_restored, lost);
    // Fetch charges one block per *stored* id (missing reads still paid
    // for the attempt), restores one per absent id.
    assert_eq!(
        bucket.consumed(),
        (stored as u64) * BLOCK + (lost as u64) * BLOCK,
        "scrub charged a different byte count than it moved"
    );
}

#[test]
fn scrub_restores_at_rest_loss_to_its_home() {
    // Lost blocks go back where they were: each disk's share of a file
    // is proportional to its speed (§5.3.2), and a scrub that parked
    // restored blocks on whichever disks held fewest would erode that
    // layout every time it ran. Slot for slot and byte for byte, the
    // store comes back as written.
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "home", &payload(120_000, 50));
    put(&client, "bystander", &payload(60_000, 51));
    let before = sys.export_meta("home").unwrap();
    let used: Vec<u64> = (0..DISKS).map(|d| sys.disk_used(d)).collect();
    let lost = sys.lose_file_blocks("home", 0.3, &SeedSequence::new(0x4E3E));
    assert!(lost > 0);

    let report = client.scrub("home").unwrap();
    assert_eq!(
        (report.blocks_missing, report.blocks_restored),
        (lost, lost)
    );
    assert_eq!(
        sys.export_meta("home").unwrap().layout,
        before.layout,
        "scrub moved restored blocks off their homes"
    );
    let after: Vec<u64> = (0..DISKS).map(|d| sys.disk_used(d)).collect();
    assert_eq!(after, used, "per-disk bytes differ from before the loss");
    check_committed_state(&sys);
}

#[test]
fn sweep_reports_feed_the_repair_backlog() {
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    put(&client, "busy", &payload(60_000, 30));
    put(&client, "hurt", &payload(60_000, 31));
    put(&client, "fine", &payload(60_000, 32));

    // Both "busy" and "hurt" are damaged, but "busy" is also
    // write-locked: the sweep heals "hurt" in place and must hand
    // "busy" to the repair backlog instead of failing it.
    let seq = SeedSequence::new(0xFEED);
    assert!(sys.lose_file_blocks("busy", 0.3, &seq.subsequence("loss", 0)) > 0);
    assert!(sys.lose_file_blocks("hurt", 0.3, &seq.subsequence("loss", 1)) > 0);
    let held = client
        .open("busy", AccessMode::Write, QosOptions::best_effort())
        .unwrap();

    let service = RepairService::new(Client::connect(&sys, client.identity()));
    let sweep = Scrubber::new(&client).sweep();
    assert_eq!(
        sweep.skipped,
        vec!["busy".to_string()],
        "lock-busy file must be a skip, not a failure"
    );
    assert!(sweep.failed.is_empty(), "failed: {:?}", sweep.failed);
    assert_eq!(
        service.enqueue_sweep(&sweep),
        1,
        "only the skip rides into the backlog"
    );
    assert_eq!(service.pending(), vec!["busy".to_string()]);

    // Still locked: the backlog pass re-queues it instead of failing.
    let r = service.run_enqueued(usize::MAX);
    assert_eq!((r.repaired, r.skipped), (0, 1));
    assert!(r.failed.is_empty());
    assert_eq!(service.pending(), vec!["busy".to_string()]);

    // Lock released: the next backlog pass repairs it by probing only
    // the enqueued file — no store-wide survey.
    client.close(held).unwrap();
    let r = service.run_enqueued(usize::MAX);
    assert_eq!(r.surveyed, 1, "backlog pass surveys only enqueued files");
    assert_eq!(r.repaired, 1);
    assert!(r.blocks_restored > 0);
    assert!(service.pending().is_empty());
    assert_eq!(read_back(&client, "busy"), payload(60_000, 30));
    for e in service.risk_queue() {
        assert_eq!(e.present, e.target, "{} not at full strength", e.name);
    }
}

#[test]
fn continuous_scrub_ticks_converge_without_on_demand_surveys() {
    let sys = system();
    let client = Client::connect(&sys, sys.register_user());
    for f in 0..3 {
        put(&client, &format!("tick-{f}"), &payload(50_000, 40 + f));
    }
    let service = RepairService::new(Client::connect(&sys, client.identity()));
    let seq = SeedSequence::new(0x71CC);
    for f in 0..3u64 {
        sys.lose_file_blocks(&format!("tick-{f}"), 0.35, &seq.subsequence("decay", f));
    }

    // Tick 1: a writer holds tick-1, so the sweep skips it and the tick
    // enqueues it for later instead of dropping it on the floor.
    let held = client
        .open("tick-1", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    let t1 = service.scrub_tick(usize::MAX);
    assert_eq!(
        t1.backlog.surveyed, 0,
        "nothing queued before the first tick"
    );
    assert_eq!(t1.sweep.skipped, vec!["tick-1".to_string()]);
    assert!(t1.sweep.failed.is_empty());
    assert_eq!(t1.enqueued_for_next, 1);
    client.close(held).unwrap();

    // Tick 2: the backlog pass heals tick-1 before the sweep even runs,
    // and the schedule quiesces — nothing left for tick 3.
    let t2 = service.scrub_tick(usize::MAX);
    assert_eq!(t2.backlog.repaired, 1);
    assert!(t2.backlog.blocks_restored > 0);
    assert_eq!(t2.enqueued_for_next, 0);
    assert!(service.pending().is_empty());
    for f in 0..3 {
        assert_eq!(
            read_back(&client, &format!("tick-{f}")),
            payload(50_000, 40 + f),
            "tick-{f} lost data"
        );
    }
    for e in service.risk_queue() {
        assert_eq!(e.present, e.target, "{} not at full strength", e.name);
    }
}
