//! Tail-latency harness (`tail`): open-loop Poisson reads against the
//! I/O ring, static vs queue-aware adaptive wave policy.
//!
//! The setup is the one the adaptive policy exists for: disks whose
//! *nominal* speeds are identical but whose *actual* service times are
//! not — one straggler disk is an order of magnitude slower than its
//! registered speed suggests, the way a remote filer degrades under
//! someone else's load. The static policy cannot see this: its virtual
//! arrival order round-robins over all disks, completions are consumed
//! in tag order, and every access's decode point waits behind the
//! straggler's queue (head-of-line blocking). The adaptive policy reads
//! the same nominal speeds but also the live [`robustore_core::DiskLoadMap`]
//! — EWMA service latency and queue backlog — so it orders the
//! straggler's blocks last and decodes from the fast disks' first wave.
//!
//! The harness is **open-loop**: arrivals are a Poisson process whose
//! rate sweeps 50–95% of measured aggregate service capacity, submitted
//! as microsecond offsets to [`robustore_core::Client::read_many_with`] — so
//! queueing delay compounds instead of being absorbed by a closed
//! loop's back-pressure (the coordinated-omission trap). Per-access
//! latencies go into an HDR-style [`LogHistogram`]; p50/p99/p999 per
//! (utilisation, policy), serviced-block counts, and mean wave counts
//! go to `BENCH_tail.json` — schema
//! `{section, config, threads, value, unit, host}`, matching
//! `BENCH_pipeline.json`.
//!
//! Decoded bytes are asserted byte-identical between the two policies
//! at every utilisation (FNV digests per access): the policy may move
//! wall-clock, never data. Non-quick runs also assert the headline
//! claim — adaptive p99 ≤ 0.75× static p99 at ≥90% utilisation.

use std::time::{Duration, Instant};

use robustore_core::{
    AccessMode, Client, DiskShard, InMemoryBackend, QosOptions, ReadPolicy, RefusedWrite,
    StorageBackend, StoreError, System, SystemConfig,
};
use robustore_simkit::report::Table;
use robustore_simkit::rng::exponential;
use robustore_simkit::{LogHistogram, SeedSequence};

use crate::MASTER_SEED;

const DISKS: usize = 8;
const STRAGGLER: usize = 2;

struct Row {
    section: &'static str,
    config: String,
    threads: usize,
    value: f64,
    unit: &'static str,
}

/// One policy run at one utilisation: latency histogram, per-access
/// decoded digests (arrival order), backend block reads serviced, and
/// the mean wave count per access.
struct RunResult {
    hist: LogHistogram,
    digests: Vec<u64>,
    serviced: u64,
    mean_waves: f64,
    mean_deferred: f64,
}

/// Run the tail-latency experiment. `--quick` (or `--trials 1`) shrinks
/// delays, access counts, and the utilisation sweep for CI smoke runs.
pub fn tail(trials: u64) -> String {
    let quick = trials <= 1;

    // Device model: uniform nominal speeds (the planner and the static
    // policy see identical disks) but heterogeneous real service — the
    // straggler only shows up in wall-clock, never in metadata.
    let fast_delay = Duration::from_micros(if quick { 120 } else { 300 });
    let slow_delay = Duration::from_micros(if quick { 900 } else { 2_400 });
    let delay_of = |disk: usize| {
        if disk == STRAGGLER {
            slow_delay
        } else {
            fast_delay
        }
    };
    // Aggregate service capacity in blocks/s, straggler included.
    let capacity: f64 = (0..DISKS).map(|d| 1.0 / delay_of(d).as_secs_f64()).sum();

    let block_bytes: usize = 16 << 10;
    let file_bytes: usize = 256 << 10; // k = 16 source blocks
    let k = file_bytes / block_bytes;
    // Mean blocks an access must service before decoding: k plus the LT
    // reception overhead the first wave is sized for.
    let blocks_per_access = (k as f64 * 1.5).ceil();

    let files = if quick { 8usize } else { 16 };
    let accesses = if quick { 24usize } else { 240 };
    let rhos: &[f64] = if quick {
        &[0.6, 0.9]
    } else {
        &[0.5, 0.7, 0.9, 0.95]
    };

    let payload = |f: usize| -> Vec<u8> {
        (0..file_bytes)
            .map(|i| ((i * 31 + f * 131) % 251) as u8)
            .collect()
    };

    let seq = SeedSequence::new(MASTER_SEED ^ 0x7A11);
    let mut rows: Vec<Row> = Vec::new();

    // One run: fresh system, same committed files, warmup to populate
    // the EWMA estimators, then the paced open-loop batch.
    let run = |policy: ReadPolicy, arrivals: &[u64]| -> RunResult {
        let sys = System::with_backend(
            Box::new(HeteroDelayBackend::new(
                InMemoryBackend::uniform(DISKS, 50e6),
                (0..DISKS).map(delay_of).collect(),
            )),
            SystemConfig {
                block_bytes: block_bytes as u64,
                encode_threads: 1,
                pipeline_depth: 4,
                read_policy: policy,
                ..Default::default()
            },
        );
        let client = Client::connect(&sys, sys.register_user());
        let qos = QosOptions::best_effort().with_redundancy(3.0);
        for f in 0..files {
            let mut h = client
                .open(&format!("tail-{f}"), AccessMode::Write, qos.clone())
                .expect("open for write");
            client.write(&mut h, &payload(f)).expect("write");
            client.close(h).expect("close");
        }

        // Warmup: one unpaced read of every file. Quiescent adaptive
        // degenerates to the static order here, which touches every
        // disk — exactly what seeds each disk's EWMA with its real
        // service time. Excluded from the histogram.
        let warm: Vec<_> = (0..files)
            .map(|f| {
                client
                    .open(
                        &format!("tail-{f}"),
                        AccessMode::Read,
                        QosOptions::best_effort(),
                    )
                    .expect("open warmup")
            })
            .collect();
        let warm_refs: Vec<_> = warm.iter().collect();
        for r in client.read_many(&warm_refs) {
            r.expect("warmup read");
        }
        for h in warm {
            client.close(h).expect("close warmup");
        }

        // The measured batch: `accesses` handles round-robin over the
        // files, paced by the shared Poisson offsets.
        let handles: Vec<_> = (0..accesses)
            .map(|a| {
                client
                    .open(
                        &format!("tail-{}", a % files),
                        AccessMode::Read,
                        QosOptions::best_effort(),
                    )
                    .expect("open for read")
            })
            .collect();
        let handle_refs: Vec<_> = handles.iter().collect();
        let mut hist = LogHistogram::new();
        let mut digests = vec![0u64; accesses];
        let mut waves_total = 0u64;
        let mut deferred_total = 0u64;
        let serviced_before = sys.backend_stats().0;
        let t0 = Instant::now();
        client.read_many_with(&handle_refs, Some(arrivals), |i, r| {
            let (bytes, report) = r.expect("paced read");
            let done = t0.elapsed().as_micros() as u64;
            hist.record(done.saturating_sub(arrivals[i]));
            digests[i] = fnv(&bytes);
            waves_total += report.waves as u64;
            deferred_total += report.blocks_deferred as u64;
        });
        let serviced = sys.backend_stats().0 - serviced_before;
        for h in handles {
            client.close(h).expect("close");
        }
        assert_eq!(sys.pool_outstanding_bytes(), 0, "paced reads leaked");
        assert_eq!(hist.count(), accesses as u64);
        for (a, d) in digests.iter().enumerate() {
            assert_eq!(
                *d,
                fnv(&payload(a % files)),
                "access {a} decoded wrong bytes"
            );
        }
        RunResult {
            hist,
            digests,
            serviced,
            mean_waves: waves_total as f64 / accesses as f64,
            mean_deferred: deferred_total as f64 / accesses as f64,
        }
    };

    let mut headline: Vec<(f64, f64, f64)> = Vec::new(); // (rho, static p99, adaptive p99)
    for (ri, &rho) in rhos.iter().enumerate() {
        // Shared arrival offsets: both policies face the identical
        // Poisson sample path, so the comparison is paired.
        let lambda = rho * capacity / blocks_per_access; // accesses/s
        let mean_gap_us = 1e6 / lambda;
        let mut rng = seq.fork("arrivals", ri as u64);
        let mut at = 0f64;
        let arrivals: Vec<u64> = (0..accesses)
            .map(|_| {
                at += exponential(&mut rng, mean_gap_us);
                at as u64
            })
            .collect();

        let stat = run(ReadPolicy::Static, &arrivals);
        let adap = run(ReadPolicy::adaptive(), &arrivals);
        assert_eq!(
            stat.digests, adap.digests,
            "adaptive decoded different bytes than static at rho={rho}"
        );

        for (policy, r) in [("static", &stat), ("adaptive", &adap)] {
            for (q, tag) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
                rows.push(Row {
                    section: "tail-latency",
                    config: format!("rho={rho:.2} {policy} {tag}"),
                    threads: accesses,
                    value: r.hist.percentile(q) as f64,
                    unit: "us",
                });
            }
            rows.push(Row {
                section: "tail-serviced",
                config: format!("rho={rho:.2} {policy}"),
                threads: accesses,
                value: r.serviced as f64,
                unit: "blocks",
            });
            rows.push(Row {
                section: "tail-waves",
                config: format!("rho={rho:.2} {policy}"),
                threads: accesses,
                value: r.mean_waves,
                unit: "waves",
            });
            rows.push(Row {
                section: "tail-deferred",
                config: format!("rho={rho:.2} {policy}"),
                threads: accesses,
                value: r.mean_deferred,
                unit: "blocks",
            });
        }
        headline.push((
            rho,
            stat.hist.percentile(0.99) as f64,
            adap.hist.percentile(0.99) as f64,
        ));
    }

    if !quick {
        // The acceptance bar: with decoded bytes already asserted
        // identical, the adaptive policy must cut the p99 tail by at
        // least 25% wherever the system runs at ≥90% utilisation.
        for &(rho, sp99, ap99) in &headline {
            if rho >= 0.9 {
                assert!(
                    ap99 <= sp99,
                    "adaptive p99 {ap99:.0}us above static {sp99:.0}us at rho={rho}"
                );
                assert!(
                    ap99 <= 0.75 * sp99,
                    "adaptive p99 {ap99:.0}us did not clear 0.75x static \
                     {sp99:.0}us at rho={rho}"
                );
            }
        }
    }

    // --- Report ---------------------------------------------------------
    let host = format!(
        "{}-{}-{}threads",
        std::env::consts::ARCH,
        std::env::consts::OS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"section\": \"{}\", \"config\": \"{}\", \"threads\": {}, \
             \"value\": {:.2}, \"unit\": \"{}\", \"host\": \"{}\"}}{}\n",
            r.section,
            r.config,
            r.threads,
            r.value,
            r.unit,
            host,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    let json_note = match std::fs::write("BENCH_tail.json", &json) {
        Ok(()) => "rows written to BENCH_tail.json".to_string(),
        Err(e) => format!("could not write BENCH_tail.json: {e}"),
    };

    let mut table = Table::new(
        format!(
            "Open-loop tail latency: static vs adaptive read policy \
             ({accesses} accesses, straggler disk {STRAGGLER} at \
             {}us vs {}us, {host})",
            slow_delay.as_micros(),
            fast_delay.as_micros()
        ),
        &["section", "config", "accesses", "value", "unit"],
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
    out.push_str("\np99 static / adaptive by utilisation:\n");
    for &(rho, sp99, ap99) in &headline {
        out.push_str(&format!(
            "  rho={rho:.2}: static {sp99:.0}us, adaptive {ap99:.0}us \
             ({:.2}x)\n",
            sp99 / ap99.max(1.0)
        ));
    }
    out.push_str(&format!(
        "Decoded bytes are asserted identical under both policies at every \
         utilisation; the policy moves wall-clock only.\n{json_note}\n"
    ));
    out
}

/// An [`InMemoryBackend`] whose block reads sleep a **per-disk** amount —
/// the straggler model. Nominal `disk_speed` stays uniform, so the
/// slowdown is invisible to the planner and the static policy; only the
/// ring's live telemetry can see it.
struct HeteroDelayBackend {
    inner: InMemoryBackend,
    read_delays: Vec<Duration>,
}

impl HeteroDelayBackend {
    fn new(inner: InMemoryBackend, read_delays: Vec<Duration>) -> Self {
        assert_eq!(inner.num_disks(), read_delays.len());
        HeteroDelayBackend { inner, read_delays }
    }
}

impl StorageBackend for HeteroDelayBackend {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(disk, block, data)
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        std::thread::sleep(self.read_delays[disk]);
        self.inner.read_block(disk, block)
    }

    fn read_block_into(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        std::thread::sleep(self.read_delays[disk]);
        self.inner.read_block_into(disk, block, buf)
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
        let delays = self.read_delays.clone();
        self.inner.try_shard().map(|shards| {
            shards
                .into_iter()
                .map(|inner| {
                    let read_delay = delays[inner.disk_id()];
                    Box::new(HeteroDelayShard { inner, read_delay }) as Box<dyn DiskShard>
                })
                .collect()
        })
    }
}

/// Per-disk shard of a [`HeteroDelayBackend`]: each shard carries its own
/// read sleep, under the shard lock, so one disk stays serial while the
/// ring's workers overlap across disks.
struct HeteroDelayShard {
    inner: Box<dyn DiskShard>,
    read_delay: Duration,
}

impl DiskShard for HeteroDelayShard {
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

/// Tiny FNV-1a digest — enough to compare decoded payloads across runs
/// without holding every copy.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}
