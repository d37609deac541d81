//! Prioritised, rate-limited repair: the control loop that turns the
//! per-file scrub ([`crate::client::Client::scrub_with`]) into a
//! store-wide service.
//!
//! Three pieces compose here:
//!
//! * [`TokenBucket`] — a wall-clock MB/s budget charged per block of
//!   repair I/O. Tokens are charged *before* an op may be submitted, so
//!   repair traffic can never burst past `rate · elapsed + burst` bytes
//!   no matter how deep the submission window is.
//! * [`ScrubOptions`] — the knobs the repair service threads into the
//!   scrub path: the throttle, and background scheduling class on ring
//!   submissions (repair ops wait behind every queued foreground op —
//!   see [`crate::ring::Priority`]). Where restored blocks land is not a
//!   knob: every restore rewrites in place at the home disk and moves
//!   only what the home refuses, to the least-loaded disk by
//!   [`crate::ring::IoRing::load_map`] — the one restore path read-repair
//!   also takes.
//! * [`RepairService`] — the risk queue: every file is surveyed with
//!   presence probes (no disk traffic), scored by its surviving
//!   redundancy margin weighted by per-disk health, and repaired
//!   most-at-risk-first under the budget.
//!
//! The service also keeps a **backlog** fed by the scrubber
//! ([`RepairService::enqueue_sweep`]): files a sweep left short of full
//! strength — lock-busy skips, refused restores, damage past the decode
//! margin — queue up and are retried by [`RepairService::run_enqueued`],
//! which probes only the suspects instead of re-surveying the namespace.
//! [`RepairService::scrub_tick`] chains the two into a continuous
//! schedule: retry the backlog, sweep, enqueue the residue for next tick.
//!
//! The risk score follows the liquid-repair observation that not all
//! missing blocks are equally urgent: a file with `k + 10` survivors on
//! healthy disks can wait; a file with `k + 1` survivors where two of
//! those live on a flaky disk cannot. The weighted margin
//! `Σ weight(health(disk)) − k` over the file's *present* blocks orders
//! the queue ascending, so the files closest to unrecoverable are
//! repaired first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use robustore_diskmodel::DiskHealth;

use crate::client::Client;
use crate::error::StoreError;
use crate::scrub::{ScrubReport, Scrubber, SweepReport};

/// A wall-clock token bucket metering repair I/O in bytes.
///
/// `acquire` blocks the caller until the requested bytes fit under the
/// budget; tokens refill continuously at `rate` bytes/second up to
/// `burst` bytes of slack. A request larger than the burst is admitted
/// once the bucket is full and drives the balance negative, so the
/// long-run rate still holds. The hard invariant (asserted by the chaos
/// suite) is:
///
/// ```text
/// consumed() ≤ rate · elapsed + burst
/// ```
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    started: Instant,
    consumed: AtomicU64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` bytes/second with `burst` bytes of
    /// slack (the bucket starts full). A non-positive `rate` means
    /// unlimited: `acquire` never blocks but still counts.
    pub fn new(rate: f64, burst: u64) -> Self {
        let now = Instant::now();
        TokenBucket {
            rate,
            burst: burst as f64,
            started: now,
            consumed: AtomicU64::new(0),
            state: Mutex::new(BucketState {
                tokens: burst as f64,
                last: now,
            }),
        }
    }

    /// Convenience constructor: `mb_per_sec` megabytes/second with one
    /// second of burst slack.
    pub fn per_mb(mb_per_sec: f64) -> Self {
        let rate = mb_per_sec * 1e6;
        TokenBucket::new(rate, rate.max(1.0) as u64)
    }

    /// Block until `bytes` tokens are available, then take them.
    pub fn acquire(&self, bytes: u64) {
        self.consumed.fetch_add(bytes, Ordering::Relaxed);
        if self.rate <= 0.0 {
            return;
        }
        // A request larger than the bucket is admitted at full-bucket
        // (balance goes negative), so oversize blocks don't deadlock.
        let need = (bytes as f64).min(self.burst);
        loop {
            let wait = {
                let mut st = self.state.lock();
                let now = Instant::now();
                let dt = now.duration_since(st.last).as_secs_f64();
                st.last = now;
                st.tokens = (st.tokens + dt * self.rate).min(self.burst);
                if st.tokens >= need {
                    st.tokens -= bytes as f64;
                    return;
                }
                Duration::from_secs_f64((need - st.tokens) / self.rate)
            };
            std::thread::sleep(wait);
        }
    }

    /// Total bytes acquired since construction.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Refill rate in bytes/second (non-positive = unlimited).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Burst slack in bytes.
    pub fn burst(&self) -> u64 {
        self.burst as u64
    }

    /// Seconds since the bucket was created (for checking the consumed
    /// invariant externally).
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The byte ceiling the invariant permits *right now*.
    pub fn budget_ceiling(&self) -> f64 {
        if self.rate <= 0.0 {
            f64::INFINITY
        } else {
            self.rate * self.elapsed_secs() + self.burst
        }
    }
}

/// Repair-service controls threaded through the scrub path
/// ([`Client::scrub_with`]). The default reproduces a plain
/// [`Client::scrub`]: no throttle, foreground class.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScrubOptions<'a> {
    /// Charge each block of repair I/O against this budget before
    /// submission (blocking until tokens are available).
    pub throttle: Option<&'a TokenBucket>,
    /// Submit repair I/O at background priority on the ring: every
    /// queued foreground op is serviced first.
    pub background: bool,
}

/// Health weight a present block contributes to its file's survival
/// margin: a block on a failed disk is already gone, one on a flaky
/// disk is half a block, degraded costs a quarter.
pub fn health_weight(health: DiskHealth) -> f64 {
    match health {
        DiskHealth::Healthy => 1.0,
        DiskHealth::Degraded => 0.75,
        DiskHealth::Flaky => 0.5,
        DiskHealth::Failed => 0.0,
    }
}

/// One file's position in the risk queue.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskEntry {
    /// File name.
    pub name: String,
    /// Health-weighted surviving redundancy above `k`:
    /// `Σ weight(health(disk)) − k` over present blocks. Negative means
    /// the file is (pessimistically) unrecoverable if the weighting is
    /// taken at face value.
    pub margin: f64,
    /// Blocks that answered the presence probe.
    pub present: usize,
    /// The file's full redundancy target `n`.
    pub target: usize,
    /// Decode threshold `k`.
    pub k: usize,
}

/// What one [`RepairService::run_cycle`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairRunReport {
    /// Files surveyed for the risk queue.
    pub surveyed: usize,
    /// Files scrubbed this cycle (damaged, most-at-risk-first).
    pub repaired: usize,
    /// Coded blocks restored across all scrubs.
    pub blocks_restored: usize,
    /// Files that vanished between survey and scrub (deleted mid-cycle
    /// — skipped, not an error).
    pub skipped: usize,
    /// Files whose scrub failed (name, error text) — e.g. decode
    /// failure when damage exceeded the margin.
    pub failed: Vec<(String, String)>,
    /// Bytes charged against the throttle this cycle (0 without one).
    pub bytes_charged: u64,
}

/// The store-wide repair loop: survey → rank → scrub under budget.
///
/// Disk health defaults to [`DiskHealth::Healthy`]; a monitoring layer
/// (or a test) feeds observations in via [`RepairService::set_disk_health`].
pub struct RepairService {
    client: Client,
    bucket: Option<TokenBucket>,
    health: Mutex<BTreeMap<usize, DiskHealth>>,
    background: bool,
    /// Files earlier sweeps could not fully restore, awaiting the next
    /// [`RepairService::run_enqueued`] pass (deduplicated, name-ordered).
    pending: Mutex<BTreeSet<String>>,
}

/// What one [`RepairService::scrub_tick`] of the continuous schedule did.
#[derive(Debug, Clone, Default)]
pub struct ScrubTickReport {
    /// The backlog pass: files enqueued by earlier ticks, retried first.
    pub backlog: RepairRunReport,
    /// The store-wide sweep that followed.
    pub sweep: SweepReport,
    /// Files this tick's sweep left short of full strength, enqueued for
    /// the next tick.
    pub enqueued_for_next: usize,
}

impl RepairService {
    /// A repair service over `client`'s store: background class, no
    /// rate limit.
    pub fn new(client: Client) -> Self {
        RepairService {
            client,
            bucket: None,
            health: Mutex::new(BTreeMap::new()),
            background: true,
            pending: Mutex::new(BTreeSet::new()),
        }
    }

    /// Cap repair I/O at `rate` bytes/second with `burst` bytes slack.
    pub fn with_rate(mut self, rate: f64, burst: u64) -> Self {
        self.bucket = Some(TokenBucket::new(rate, burst));
        self
    }

    /// Submit repair I/O at foreground priority (eager repair — the
    /// behaviour the `xp repair` experiment measures against).
    pub fn eager(mut self) -> Self {
        self.background = false;
        self
    }

    /// The throttle, if one was configured (for invariant checks).
    pub fn bucket(&self) -> Option<&TokenBucket> {
        self.bucket.as_ref()
    }

    /// Record a health observation for `disk` (affects risk ranking
    /// only — the data path is untouched).
    pub fn set_disk_health(&self, disk: usize, health: DiskHealth) {
        self.health.lock().insert(disk, health);
    }

    /// The controls every scrub this service runs takes.
    fn scrub_options(&self) -> ScrubOptions<'_> {
        ScrubOptions {
            throttle: self.bucket.as_ref(),
            background: self.background,
        }
    }

    fn disk_weight(&self, disk: usize) -> f64 {
        health_weight(
            self.health
                .lock()
                .get(&disk)
                .copied()
                .unwrap_or(DiskHealth::Healthy),
        )
    }

    /// Survey every file with presence probes and rank by weighted
    /// margin, most-at-risk first (ties break by name, so the order is
    /// deterministic). Probes touch no disk counters and consume no
    /// injected-fault budgets.
    pub fn risk_queue(&self) -> Vec<RiskEntry> {
        self.rank_names(self.client.system().list_files())
    }

    /// Survey and rank only `names` — the enqueued-backlog variant of
    /// [`RepairService::risk_queue`]: probing a handful of known-suspect
    /// files instead of the whole namespace.
    fn rank_names(&self, names: Vec<String>) -> Vec<RiskEntry> {
        let system = self.client.system();
        let mut entries = Vec::new();
        for name in names {
            let Some(meta) = system.export_meta(&name) else {
                continue; // deleted mid-survey
            };
            let mut present = 0usize;
            let mut weighted = 0.0f64;
            for (disk, ids) in &meta.layout {
                let w = self.disk_weight(*disk);
                for &id in ids {
                    if system.probe_block(*disk, meta.block_key(id)) {
                        present += 1;
                        weighted += w;
                    }
                }
            }
            entries.push(RiskEntry {
                name,
                margin: weighted - meta.coding.k as f64,
                present,
                target: meta.coding.n,
                k: meta.coding.k,
            });
        }
        entries.sort_by(|a, b| {
            a.margin
                .partial_cmp(&b.margin)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        entries
    }

    /// One repair cycle: survey, then scrub the damaged files
    /// most-at-risk-first, at most `max_files` of them (`usize::MAX`
    /// for all). A file counts as damaged when its presence probes find
    /// fewer than `n` blocks, or any of its disks is reported
    /// non-healthy.
    pub fn run_cycle(&self, max_files: usize) -> RepairRunReport {
        let queue = self.risk_queue();
        let charged_before = self.bucket.as_ref().map_or(0, |b| b.consumed());
        let mut report = RepairRunReport {
            surveyed: queue.len(),
            ..RepairRunReport::default()
        };
        let opts = self.scrub_options();
        for entry in queue {
            if report.repaired + report.failed.len() >= max_files {
                break;
            }
            let degraded = entry.margin < (entry.target - entry.k) as f64;
            if entry.present == entry.target && !degraded {
                continue; // fully redundant on healthy disks
            }
            match self.client.scrub_with(&entry.name, &opts) {
                Ok(scrub) => {
                    report.blocks_restored += scrub.blocks_restored;
                    report.repaired += 1;
                }
                // Deleted between survey and scrub: not an error.
                Err(StoreError::NotFound(_)) => report.skipped += 1,
                Err(e) => report.failed.push((entry.name, e.to_string())),
            }
        }
        report.bytes_charged = self
            .bucket
            .as_ref()
            .map_or(0, |b| b.consumed() - charged_before);
        report
    }

    /// Scrub a single named file under this service's options (used by
    /// experiments that drive the queue themselves).
    pub fn repair_file(&self, name: &str) -> Result<ScrubReport, StoreError> {
        self.client.scrub_with(name, &self.scrub_options())
    }

    /// Queue a file for the next [`RepairService::run_enqueued`] pass.
    /// Idempotent: the backlog is a set.
    pub fn enqueue(&self, name: impl Into<String>) {
        self.pending.lock().insert(name.into());
    }

    /// Feed the backlog from a sweep: every file the sweep left short of
    /// full strength is enqueued — failures (damage past the margin may
    /// heal when a disk returns), skips (lock-busy or ghost; a ghost is
    /// dropped by the next pass's survey), and files restored to fewer
    /// than their target blocks (disks refused writes). Returns how many
    /// files the backlog gained.
    pub fn enqueue_sweep(&self, sweep: &SweepReport) -> usize {
        let mut pending = self.pending.lock();
        let before = pending.len();
        for (name, _) in &sweep.failed {
            pending.insert(name.clone());
        }
        for name in &sweep.skipped {
            pending.insert(name.clone());
        }
        for r in &sweep.scrubbed {
            if r.blocks_stored_after < r.blocks_target {
                pending.insert(r.file.clone());
            }
        }
        pending.len() - before
    }

    /// The current backlog, name-ordered (for observability and tests).
    pub fn pending(&self) -> Vec<String> {
        self.pending.lock().iter().cloned().collect()
    }

    /// Drain the backlog: survey *only* the enqueued files, rank them
    /// most-at-risk-first, and scrub the damaged ones under the budget —
    /// at most `max_files` of them. Files beyond `max_files` and files
    /// still lock-busy stay queued for the next pass; files found fully
    /// healthy, deleted, or repaired leave the queue; a scrub that fails
    /// outright (damage past the decode margin) also leaves the queue —
    /// it is re-enqueued only if a later sweep still sees it short.
    pub fn run_enqueued(&self, max_files: usize) -> RepairRunReport {
        let names: Vec<String> = std::mem::take(&mut *self.pending.lock())
            .into_iter()
            .collect();
        let queue = self.rank_names(names);
        let charged_before = self.bucket.as_ref().map_or(0, |b| b.consumed());
        let mut report = RepairRunReport {
            surveyed: queue.len(),
            ..RepairRunReport::default()
        };
        let opts = self.scrub_options();
        for entry in queue {
            if report.repaired + report.failed.len() >= max_files {
                self.pending.lock().insert(entry.name); // next pass
                continue;
            }
            let degraded = entry.margin < (entry.target - entry.k) as f64;
            if entry.present == entry.target && !degraded {
                continue; // healed since it was enqueued
            }
            match self.client.scrub_with(&entry.name, &opts) {
                Ok(scrub) => {
                    report.blocks_restored += scrub.blocks_restored;
                    report.repaired += 1;
                    if scrub.blocks_stored_after < scrub.blocks_target {
                        self.pending.lock().insert(entry.name); // still short
                    }
                }
                Err(StoreError::NotFound(_)) => report.skipped += 1,
                Err(StoreError::LockConflict(_)) => {
                    report.skipped += 1;
                    self.pending.lock().insert(entry.name); // busy: retry
                }
                Err(e) => report.failed.push((entry.name, e.to_string())),
            }
        }
        report.bytes_charged = self
            .bucket
            .as_ref()
            .map_or(0, |b| b.consumed() - charged_before);
        report
    }

    /// One tick of the continuous scrub schedule: retry the backlog
    /// first (files earlier ticks left short — at most `max_backlog` of
    /// them), then sweep the whole store under this service's options
    /// and enqueue whatever the sweep could not fully restore for the
    /// next tick. Run on a timer, this replaces on-demand surveys with a
    /// standing scrub-feeds-repair loop.
    pub fn scrub_tick(&self, max_backlog: usize) -> ScrubTickReport {
        let backlog = self.run_enqueued(max_backlog);
        let opts = self.scrub_options();
        let sweep = Scrubber::new(&self.client).sweep_with(&opts);
        let enqueued_for_next = self.enqueue_sweep(&sweep);
        ScrubTickReport {
            backlog,
            sweep,
            enqueued_for_next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_long_run_rate() {
        // 1 MB/s with a 10 KB burst: acquiring 60 KB must take at least
        // (60 KB − 10 KB burst) / 1 MB/s = 50 ms of wall clock.
        let bucket = TokenBucket::new(1e6, 10_000);
        let t0 = Instant::now();
        for _ in 0..6 {
            bucket.acquire(10_000);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(
            elapsed >= 0.045,
            "60KB through a 1MB/s bucket took only {elapsed:.3}s"
        );
        assert_eq!(bucket.consumed(), 60_000);
        assert!(bucket.consumed() as f64 <= bucket.budget_ceiling() + 1.0);
    }

    #[test]
    fn token_bucket_oversize_acquire_does_not_deadlock() {
        // A request bigger than the burst is admitted at full bucket and
        // drives the balance negative — the next acquire pays it back.
        let bucket = TokenBucket::new(1e8, 1_000);
        let t0 = Instant::now();
        bucket.acquire(5_000);
        bucket.acquire(1_000);
        assert!(t0.elapsed().as_secs_f64() < 5.0);
        assert_eq!(bucket.consumed(), 6_000);
    }

    #[test]
    fn unlimited_bucket_never_blocks() {
        let bucket = TokenBucket::new(0.0, 0);
        let t0 = Instant::now();
        bucket.acquire(u64::MAX / 4);
        bucket.acquire(u64::MAX / 4);
        assert!(t0.elapsed().as_secs_f64() < 1.0);
        assert_eq!(bucket.consumed(), u64::MAX / 4 * 2);
    }

    #[test]
    fn health_weights_are_ordered() {
        assert!(health_weight(DiskHealth::Healthy) > health_weight(DiskHealth::Degraded));
        assert!(health_weight(DiskHealth::Degraded) > health_weight(DiskHealth::Flaky));
        assert!(health_weight(DiskHealth::Flaky) > health_weight(DiskHealth::Failed));
        assert_eq!(health_weight(DiskHealth::Failed), 0.0);
    }
}
