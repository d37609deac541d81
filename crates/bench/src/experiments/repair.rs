//! Repair experiment (`repair`): eager vs rate-limited repair under
//! concurrent foreground load, plus the predicted-MTTDL table.
//!
//! The question the repair service exists to answer: repair traffic is
//! necessary for durability, but it competes with foreground reads for
//! the same disks — so *how* you schedule it decides whether users
//! notice. Three variants share one device model (uniform per-disk
//! service delay, so queueing is real), one seeded decay schedule on a
//! set of **cold** files, and one Poisson arrival sample path of
//! foreground reads against a disjoint set of **hot** files (disjoint so
//! file try-locks never collide — contention is purely for disk time):
//!
//! * `none` — no repair at all: the foreground baseline.
//! * `eager` — a repair loop sweeping the cold set continuously at
//!   foreground ring priority with no throttle: every scrub read and
//!   restore write interleaves FIFO with user I/O.
//! * `ratelimited` — the same loop through [`RepairService`]: background
//!   ring priority (serviced only when no foreground op is queued) and a
//!   token-bucket byte budget charged before every submission.
//!
//! Foreground p99 per variant lands in `BENCH_repair.json`
//! ([`crate::SectionRow`]), alongside repair throughput, bytes charged, and
//! the durability table: per-block failure rate λ calibrated from the
//! decay schedule ([`robustore_simkit::durability::lambda_from_decay`]),
//! repair rate μ from the token-bucket budget, and predicted MTTDL for
//! replication vs RS vs LT at equal (3×) storage overhead, with and
//! without repair.
//!
//! Non-quick runs hard-assert the headline: zero decodability loss on
//! the cold set across every decay round under both repair variants,
//! rate-limited foreground median within [`RL_P50_FACTOR`]× the
//! no-repair baseline, eager median above [`EAGER_P50_FACTOR`]×
//! baseline (the bars ride the medians because p99 tails on a shared
//! host are scheduler noise; p99s are still reported), and the token
//! bucket's `consumed ≤ rate·elapsed + burst` invariant.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use robustore_core::{
    AccessMode, Client, DiskShard, InMemoryBackend, QosOptions, RefusedWrite, RepairService,
    StorageBackend, StoreError, System, SystemConfig,
};
use robustore_simkit::durability::{compare_at_overhead, lambda_from_decay};
use robustore_simkit::report::Table;
use robustore_simkit::rng::exponential;
use robustore_simkit::{LogHistogram, SeedSequence};

use crate::{write_section_rows, SectionRow as Row, MASTER_SEED};

const DISKS: usize = 8;
/// Rate-limited foreground median latency must stay within this factor
/// of the no-repair baseline.
pub const RL_P50_FACTOR: f64 = 1.5;
/// Eager repair must inflate the foreground median beyond this factor
/// of the baseline (otherwise the A/B demonstrates nothing).
pub const EAGER_P50_FACTOR: f64 = 1.2;

#[derive(Default)]
struct RepairSide {
    scrubs: u64,
    restored: u64,
    failures: u64,
    bytes_charged: u64,
    budget_ceiling: f64,
}

struct VariantResult {
    hist: LogHistogram,
    repair: RepairSide,
    window_secs: f64,
}

/// Run the repair experiment. `--quick` (or `--trials 1`) shrinks file
/// and access counts and skips the acceptance assertions.
pub fn repair(trials: u64) -> String {
    let quick = trials <= 1;

    let read_delay = Duration::from_micros(if quick { 120 } else { 300 });
    let block_bytes: usize = 16 << 10;
    let file_bytes: usize = 128 << 10; // k = 8 source blocks
    let k = file_bytes / block_bytes;
    let blocks_per_access = (k as f64 * 1.5).ceil();
    let capacity = DISKS as f64 / read_delay.as_secs_f64();

    let hot_files = if quick { 2usize } else { 4 };
    let cold_files = if quick { 4usize } else { 8 };
    let accesses = if quick { 40usize } else { 240 };
    let rounds = if quick { 1u64 } else { 3 };
    let rho = 0.7;
    // Low-grade enough that even the unrepaired baseline stays
    // decodable over the measured rounds (its damage accumulates), yet
    // enough damage that the repaired variants restore a meaningful
    // block count every round.
    let loss_per_round = 0.12;
    // Rate-limited budget: ~3 MB/s with 4 blocks of burst — a few
    // percent of one disk's bandwidth.
    let rl_rate = 3e6;
    let rl_burst = (4 * block_bytes) as u64;

    let payload = |f: usize| -> Vec<u8> {
        (0..file_bytes)
            .map(|i| ((i * 37 + f * 149) % 251) as u8)
            .collect()
    };
    let hot_name = |f: usize| format!("hot-{f}");
    let cold_name = |f: usize| format!("cold-{f}");

    let seq = SeedSequence::new(MASTER_SEED ^ 0x4E9A);

    // Shared Poisson arrival offsets: every variant faces the identical
    // foreground sample path, so the comparison is paired.
    let lambda_acc = rho * capacity / blocks_per_access;
    let mean_gap_us = 1e6 / lambda_acc;
    let arrivals_for = |round: u64| -> Vec<u64> {
        let mut rng = seq.fork("arrivals", round);
        let mut at = 0f64;
        (0..accesses)
            .map(|_| {
                at += exponential(&mut rng, mean_gap_us);
                at as u64
            })
            .collect()
    };

    enum Mode {
        None,
        Eager,
        RateLimited,
    }

    let run_variant = |mode: &Mode| -> VariantResult {
        let sys = System::with_backend(
            Box::new(DelayBackend::new(
                InMemoryBackend::uniform(DISKS, 50e6),
                read_delay,
            )),
            SystemConfig {
                block_bytes: block_bytes as u64,
                read_repair: false, // the repair service is the only healer
                ..Default::default()
            },
        );
        let client = Client::connect(&sys, sys.register_user());
        let qos = QosOptions::best_effort().with_redundancy(3.0);
        for f in 0..hot_files {
            let mut h = client
                .open(&hot_name(f), AccessMode::Write, qos.clone())
                .expect("open hot for write");
            client.write(&mut h, &payload(f)).expect("write hot");
            client.close(h).expect("close hot");
        }
        for f in 0..cold_files {
            let mut h = client
                .open(&cold_name(f), AccessMode::Write, qos.clone())
                .expect("open cold for write");
            client
                .write(&mut h, &payload(hot_files + f))
                .expect("write cold");
            client.close(h).expect("close cold");
        }
        let n_target = sys.export_meta(&cold_name(0)).expect("meta").coding.n;

        let mut hist = LogHistogram::new();
        let mut repair_side = RepairSide::default();
        let mut window_total = 0f64;
        for round in 0..rounds {
            // Seeded decay on the cold set only: the hot set stays
            // clean so the baseline's reads measure pure queueing.
            for f in 0..cold_files {
                let sub = seq.subsequence("decay", round * cold_files as u64 + f as u64);
                sys.lose_file_blocks(&cold_name(f), loss_per_round, &sub);
            }
            let arrivals = arrivals_for(round);
            let stop = AtomicBool::new(false);
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                let repair_thread = match mode {
                    Mode::None => None,
                    _ => Some(scope.spawn(|| {
                        // Repair acts with the owner's identity — it
                        // opens files for writing to commit layouts.
                        let rc = Client::connect(&sys, client.identity());
                        let service = match mode {
                            Mode::Eager => RepairService::new(rc).eager(),
                            _ => RepairService::new(rc).with_rate(rl_rate, rl_burst),
                        };
                        let mut side = RepairSide::default();
                        while !stop.load(Ordering::Relaxed) {
                            // The risk queue ranks the whole store; the
                            // loop repairs the cold set most-at-risk
                            // first (hot files are busy with readers).
                            for entry in service.risk_queue() {
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                if !entry.name.starts_with("cold-") {
                                    continue;
                                }
                                match service.repair_file(&entry.name) {
                                    Ok(r) => {
                                        side.scrubs += 1;
                                        side.restored += r.blocks_restored as u64;
                                    }
                                    Err(e) => {
                                        if side.failures == 0 {
                                            eprintln!("repair_file({}): {e}", entry.name);
                                        }
                                        side.failures += 1;
                                    }
                                }
                            }
                            // Polling cadence between sweep passes: the
                            // service is a poller, not a spin loop —
                            // surveys must not contend for shard locks
                            // at CPU speed.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        if let Some(b) = service.bucket() {
                            side.bytes_charged = b.consumed();
                            side.budget_ceiling = b.budget_ceiling();
                            assert!(
                                side.bytes_charged as f64 <= side.budget_ceiling,
                                "token bucket exceeded: {} charged vs ceiling {:.0}",
                                side.bytes_charged,
                                side.budget_ceiling
                            );
                        }
                        side
                    })),
                };
                let handles: Vec<_> = (0..accesses)
                    .map(|a| {
                        client
                            .open(
                                &hot_name(a % hot_files),
                                AccessMode::Read,
                                QosOptions::best_effort(),
                            )
                            .expect("open hot for read")
                    })
                    .collect();
                let handle_refs: Vec<_> = handles.iter().collect();
                client.read_many_with(&handle_refs, Some(&arrivals), |i, r| {
                    let (bytes, _) = r.expect("foreground read");
                    let done = t0.elapsed().as_micros() as u64;
                    hist.record(done.saturating_sub(arrivals[i]));
                    assert_eq!(bytes, payload(i % hot_files), "foreground read corrupted");
                });
                for h in handles {
                    client.close(h).expect("close hot read");
                }
                stop.store(true, Ordering::Relaxed);
                if let Some(t) = repair_thread {
                    let side = t.join().expect("repair thread");
                    repair_side.scrubs += side.scrubs;
                    repair_side.restored += side.restored;
                    repair_side.failures += side.failures;
                    repair_side.bytes_charged += side.bytes_charged;
                    repair_side.budget_ceiling += side.budget_ceiling;
                }
            });
            window_total += t0.elapsed().as_secs_f64();
            assert_eq!(sys.pool_outstanding_bytes(), 0, "round leaked buffers");

            // End of round, repair quiesced: every cold file must still
            // decode bit-correct — zero decodability loss under decay.
            // The repaired variants are then topped back to full
            // strength so each round faces fresh damage from the same
            // starting point.
            for f in 0..cold_files {
                let h = client
                    .open(&cold_name(f), AccessMode::Read, QosOptions::best_effort())
                    .expect("open cold for read");
                let got = client.read(&h).expect("cold file must stay decodable");
                assert_eq!(got, payload(hot_files + f), "cold file decoded wrong bytes");
                client.close(h).expect("close cold read");
            }
            if !matches!(mode, Mode::None) {
                for f in 0..cold_files {
                    client.scrub(&cold_name(f)).expect("quiesced top-up scrub");
                    let meta = sys.export_meta(&cold_name(f)).expect("meta");
                    let present: usize = meta
                        .layout
                        .iter()
                        .map(|(d, ids)| {
                            ids.iter()
                                .filter(|&&id| sys.probe_block(*d, meta.block_key(id)))
                                .count()
                        })
                        .sum();
                    assert_eq!(
                        present, n_target,
                        "cold-{f} not restored to full strength after round {round}"
                    );
                }
            }
        }
        VariantResult {
            hist,
            repair: repair_side,
            window_secs: window_total / rounds as f64,
        }
    };

    let base = run_variant(&Mode::None);
    let eager = run_variant(&Mode::Eager);
    let rl = run_variant(&Mode::RateLimited);

    // Durability table: λ calibrated from the decay schedule (fraction
    // per round over the measured round window), μ from the repair
    // budget in blocks/second.
    let lambda = lambda_from_decay(loss_per_round, base.window_secs.max(1e-3));
    let mu_rl = rl_rate / block_bytes as f64;
    let mut rows: Vec<Row> = Vec::new();
    for (variant, r) in [("none", &base), ("eager", &eager), ("ratelimited", &rl)] {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
            rows.push(Row {
                section: "repair-foreground-latency",
                config: format!("{variant} {tag}"),
                threads: accesses,
                value: r.hist.percentile(q) as f64,
                unit: "us",
            });
        }
        rows.push(Row {
            section: "repair-restored",
            config: variant.to_string(),
            threads: accesses,
            value: r.repair.restored as f64,
            unit: "blocks",
        });
        rows.push(Row {
            section: "repair-scrubs",
            config: variant.to_string(),
            threads: accesses,
            value: r.repair.scrubs as f64,
            unit: "files",
        });
        rows.push(Row {
            section: "repair-bytes-charged",
            config: variant.to_string(),
            threads: accesses,
            value: r.repair.bytes_charged as f64,
            unit: "bytes",
        });
    }
    for (mu, label) in [(0.0, "no-repair"), (mu_rl, "budgeted-repair")] {
        for est in compare_at_overhead(k, 3, lambda, mu, 0.2) {
            rows.push(Row {
                section: "repair-mttdl",
                config: format!("{} {label}", est.scheme),
                threads: est.threshold,
                value: est.mttdl_secs,
                unit: "s",
            });
        }
    }

    let base_p99 = base.hist.percentile(0.99) as f64;
    let eager_p99 = eager.hist.percentile(0.99) as f64;
    let rl_p99 = rl.hist.percentile(0.99) as f64;
    let base_p50 = base.hist.percentile(0.5) as f64;
    let eager_p50 = eager.hist.percentile(0.5) as f64;
    let rl_p50 = rl.hist.percentile(0.5) as f64;
    if !quick {
        assert_eq!(
            eager.repair.failures + rl.repair.failures,
            0,
            "a repair-cycle scrub failed: damage outran the margin"
        );
        // The acceptance bars ride the medians: on a shared host the
        // p99 tail is kernel-scheduler noise (one bad preemption moves
        // it), while the pooled-round median is stable run to run. p99s
        // are still reported per variant.
        assert!(
            rl_p50 <= RL_P50_FACTOR * base_p50,
            "rate-limited repair inflated foreground p50 {rl_p50:.0}us past \
             {RL_P50_FACTOR}x the {base_p50:.0}us baseline"
        );
        assert!(
            eager_p50 >= EAGER_P50_FACTOR * base_p50,
            "eager repair p50 {eager_p50:.0}us did not measurably exceed the \
             {base_p50:.0}us baseline — the A/B shows nothing"
        );
    }

    // --- Report ---------------------------------------------------------
    let host = crate::host();
    let json_note = write_section_rows("BENCH_repair.json", quick, &host, &rows);

    let mut table = Table::new(
        format!(
            "Repair under load: eager vs rate-limited repair racing \
             {accesses} foreground reads/round at rho={rho:.2} \
             ({rounds} decay rounds, {}% cold-block loss/round, {host})",
            (loss_per_round * 100.0) as u32
        ),
        &["section", "config", "threads", "value", "unit"],
    );
    for r in &rows {
        table.row(vec![
            r.section.into(),
            r.config.clone(),
            r.threads.to_string(),
            if r.section == "repair-mttdl" {
                format!("{:.3e}", r.value)
            } else {
                format!("{:.1}", r.value)
            },
            r.unit.into(),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nForeground p50: baseline {base_p50:.0}us, eager {eager_p50:.0}us \
         ({:.2}x), rate-limited {rl_p50:.0}us ({:.2}x).\n\
         Foreground p99: baseline {base_p99:.0}us, eager {eager_p99:.0}us \
         ({:.2}x), rate-limited {rl_p99:.0}us ({:.2}x).\n\
         Rate-limited repair charged {} bytes against a {:.1} MB/s budget \
         (ceiling invariant asserted); every cold file decoded bit-correct \
         after every decay round under both repair variants.\n{json_note}\n",
        eager_p50 / base_p50.max(1.0),
        rl_p50 / base_p50.max(1.0),
        eager_p99 / base_p99.max(1.0),
        rl_p99 / base_p99.max(1.0),
        rl.repair.bytes_charged,
        rl_rate / 1e6,
    ));
    out
}

/// An [`InMemoryBackend`] whose block reads sleep a uniform per-disk
/// amount, so disk time is a real contended resource and repair traffic
/// queues against foreground reads. Presence probes skip the sleep —
/// the risk survey is a metadata-speed scan.
struct DelayBackend {
    inner: InMemoryBackend,
    read_delay: Duration,
}

impl DelayBackend {
    fn new(inner: InMemoryBackend, read_delay: Duration) -> Self {
        DelayBackend { inner, read_delay }
    }
}

impl StorageBackend for DelayBackend {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(disk, block, data)
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        std::thread::sleep(self.read_delay);
        self.inner.read_block(disk, block)
    }

    fn read_block_into(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        std::thread::sleep(self.read_delay);
        self.inner.read_block_into(disk, block, buf)
    }

    fn has_block(&self, disk: usize, block: u64) -> bool {
        self.inner.has_block(disk, block)
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(disk, block)
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.inner.disk_speed(disk)
    }

    fn disk_used(&self, disk: usize) -> u64 {
        self.inner.disk_used(disk)
    }

    fn count_read(&mut self) {
        self.inner.count_read()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }

    fn commit_batch(
        &mut self,
        disk: usize,
        batch: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<(), RefusedWrite>> {
        self.inner.commit_batch(disk, batch)
    }

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let delay = self.read_delay;
        self.inner.try_shard().map(|shards| {
            shards
                .into_iter()
                .map(|inner| {
                    Box::new(DelayShard {
                        inner,
                        read_delay: delay,
                    }) as Box<dyn DiskShard>
                })
                .collect()
        })
    }
}

/// Per-disk shard of a [`DelayBackend`]: the read sleep runs under the
/// shard lock, so one disk stays serial while the ring's workers
/// overlap across disks.
struct DelayShard {
    inner: Box<dyn DiskShard>,
    read_delay: Duration,
}

impl DiskShard for DelayShard {
    fn disk_id(&self) -> usize {
        self.inner.disk_id()
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(block, data)
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        self.inner.commit_batch(batch)
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        std::thread::sleep(self.read_delay);
        self.inner.read_block_into(block, buf)
    }

    fn has_block(&self, block: u64) -> bool {
        self.inner.has_block(block)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(block)
    }

    fn speed(&self) -> f64 {
        self.inner.speed()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn count_read(&mut self) {
        self.inner.count_read()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}
