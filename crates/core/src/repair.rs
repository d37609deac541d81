//! Store-wide repair: the one loop that turns the per-file scrub
//! ([`Client::scrub`]) into a prioritised, rate-limited service.
//!
//! A read heals nothing itself: one that decodes despite missing or
//! corrupt blocks returns at its decode point and puts its file on the
//! system's repair backlog ([`crate::SystemConfig::read_repair`]), so no
//! repair I/O — and no slow disk it would wait on — sits on a reader's
//! critical path. Repair drains that backlog and hunts the rest. Every
//! per-file pass reads *all* stored blocks (no early cancel), verifies
//! checksums, decodes, re-encodes whatever is missing or corrupt, and
//! puts it back — in place on its home disk, so the file keeps its
//! speed-proportional layout, and on the least-loaded disk that takes it
//! only when the home refuses. Each file returns to its full target of N
//! coded blocks before latent faults accumulate past the code's
//! decodability margin. A scrub is also the upgrade path for legacy
//! metadata: a file written before checksums existed comes out with a
//! complete digest map.
//!
//! Three pieces compose here:
//!
//! * [`TokenBucket`] — a wall-clock MB/s budget charged per block of
//!   repair I/O. Tokens are charged *before* an op may be submitted, so
//!   repair traffic can never burst past `rate · elapsed + burst` bytes
//!   no matter how deep the submission window is.
//! * `ScrubOptions` — what the service threads into the scrub path: the
//!   throttle, and the ring class of its submissions (background repair
//!   waits behind every queued foreground op — see
//!   [`crate::ring::Priority`]).
//! * [`RepairService`] — one loop, fed three ways. A full
//!   [`sweep`](RepairService::sweep) scrubs every listed file (bit rot is
//!   invisible to presence probes); a [`run_cycle`](RepairService::run_cycle)
//!   surveys the store with presence probes, ranks files by surviving
//!   redundancy margin weighted by per-disk health, and scrubs the damaged
//!   ones most-at-risk-first; a [`run_enqueued`](RepairService::run_enqueued)
//!   pass ranks the backlog the same way and scrubs every name on it that
//!   still exists — each is suspect by construction, and the bit rot a
//!   read found is invisible to presence probes. The backlog belongs to
//!   the [`crate::System`], so every service on a system shares it; the
//!   system's owner drains it (there is no repair thread: a scrub holds
//!   the writer lock, and a worker racing the owner's next delete or
//!   overwrite would turn client ops into lock conflicts). Every pass
//!   applies one cap and one requeue rule: a file goes back on the
//!   backlog when it was lock-busy, beyond the cap, or restored short of
//!   N; a ghost, a failed decode and a healthy file leave (the next sweep
//!   or survey revisits a failure anyway).
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

/// A wall-clock token bucket metering repair I/O in bytes.
///
/// `acquire` blocks the caller until the requested bytes fit under the
/// budget; tokens refill continuously at `rate` bytes/second up to
/// `burst` bytes of slack. Bytes count as consumed when they are
/// admitted, so for requests no larger than `burst` the invariant
/// (asserted by the chaos suite) holds at every instant:
///
/// ```text
/// consumed() ≤ rate · elapsed + burst
/// ```
///
/// A request larger than the burst is admitted once the bucket is full
/// and drives the balance negative, by design: it cannot deadlock, and
/// the long-run rate still holds, but it may overshoot the ceiling.
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

    /// Block until `bytes` tokens are available, then take them.
    pub fn acquire(&self, bytes: u64) {
        if self.rate > 0.0 {
            self.admit(bytes);
        }
        self.consumed.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Wait until the bucket admits `bytes`, then debit them.
    fn admit(&self, bytes: u64) {
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

    /// Total bytes admitted since construction.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Refill rate in bytes/second (non-positive = unlimited).
    pub fn rate(&self) -> f64 {
        self.rate
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
pub(crate) struct ScrubOptions<'a> {
    /// Charge each block of repair I/O against this budget before
    /// submission (blocking until tokens are available).
    pub throttle: Option<&'a TokenBucket>,
    /// Submit repair I/O at background priority on the ring: every
    /// queued foreground op is serviced first.
    pub background: bool,
}

/// What one per-file scrub pass found and fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// File name.
    pub file: String,
    /// N — the coded-block count the file is restored towards.
    pub blocks_target: usize,
    /// Stored blocks that read back and passed their recorded checksum.
    pub blocks_verified: usize,
    /// Stored blocks that read back but had no recorded checksum (legacy
    /// metadata); audited against a re-encode and given digests.
    pub blocks_unverified: usize,
    /// Stored blocks whose bytes failed verification (silent corruption).
    pub blocks_corrupt: usize,
    /// Stored blocks that would not read back at all (lost sectors,
    /// offline disks, spent retry budgets).
    pub blocks_missing: usize,
    /// Blocks re-encoded from the decoded data and put back on disk — in
    /// place, or relocated where the home disk refused.
    pub blocks_restored: usize,
    /// Blocks the committed layout stores after the pass (≤ target; less
    /// only when disks refused restore writes).
    pub blocks_stored_after: usize,
    /// Checksum entries the pass added to the file's metadata (legacy
    /// upgrade plus restored blocks).
    pub checksums_added: usize,
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

impl RiskEntry {
    /// Whether the file needs a scrub: its presence probes found fewer
    /// than `n` blocks, or any of its blocks sits on a non-healthy disk.
    fn is_damaged(&self) -> bool {
        self.present != self.target || self.margin < (self.target - self.k) as f64
    }
}

/// What one pass of the repair loop did — a [`RepairService::sweep`],
/// [`RepairService::run_cycle`] or [`RepairService::run_enqueued`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairRunReport {
    /// Files the pass considered: listed for a sweep, surveyed for a
    /// risk cycle or backlog pass.
    pub surveyed: usize,
    /// Per-file outcomes for files that scrubbed cleanly, in pass order.
    pub scrubbed: Vec<ScrubReport>,
    /// Files skipped, not failed: deleted since they were listed, or
    /// lock-busy (another client holds the file open). Transient
    /// conditions, not damage — retrying a ghost forever would wedge the
    /// loop, and a busy file goes back on the backlog.
    pub skipped: Vec<String>,
    /// Files whose scrub failed (typically: damage already past the
    /// code's decodability margin), with the error.
    pub failed: Vec<(String, StoreError)>,
    /// Bytes charged against the throttle this pass (0 without one).
    pub bytes_charged: u64,
}

impl RepairRunReport {
    /// Files scrubbed this pass.
    pub fn repaired(&self) -> usize {
        self.scrubbed.len()
    }

    /// Coded blocks restored across the pass.
    pub fn blocks_restored(&self) -> usize {
        self.scrubbed.iter().map(|r| r.blocks_restored).sum()
    }
}

/// The store-wide repair loop: sweep or survey → rank → scrub under
/// budget, with the system's backlog of files reads found damaged and
/// earlier passes left short.
///
/// Disk health defaults to [`DiskHealth::Healthy`]; a monitoring layer
/// (or a test) feeds observations in via [`RepairService::set_disk_health`].
pub struct RepairService {
    client: Client,
    bucket: Option<TokenBucket>,
    health: Mutex<BTreeMap<usize, DiskHealth>>,
    background: bool,
}

impl RepairService {
    /// A repair service acting with `client`'s identity (it can only
    /// scrub files that identity may open for writing): background
    /// class, no rate limit.
    pub fn new(client: Client) -> Self {
        RepairService {
            client,
            bucket: None,
            health: Mutex::new(BTreeMap::new()),
            background: true,
        }
    }

    /// Cap repair I/O at `rate` bytes/second with `burst` bytes slack.
    pub fn with_rate(mut self, rate: f64, burst: u64) -> Self {
        self.bucket = Some(TokenBucket::new(rate, burst));
        self
    }

    /// Submit repair I/O at foreground priority (eager repair — the
    /// behaviour of a plain [`Client::scrub`], and what the `xp repair`
    /// experiment measures against).
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

    /// Survey and rank only `names` — the backlog variant of
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

    /// Scrub every file in the store, in listing order, continuing past
    /// per-file failures — one undecodable file must not stop the sweep
    /// from saving the rest. Unfiltered: bit rot is invisible to presence
    /// probes, so only reading every block finds it.
    pub fn sweep(&self) -> RepairRunReport {
        let names = self.client.system().list_files();
        self.scrub_names(names.len(), names, usize::MAX)
    }

    /// One repair cycle: survey, then scrub the damaged files
    /// most-at-risk-first, at most `max_files` of them (`usize::MAX`
    /// for all). A file counts as damaged when its presence probes find
    /// fewer than `n` blocks, or any of its disks is reported
    /// non-healthy.
    pub fn run_cycle(&self, max_files: usize) -> RepairRunReport {
        let queue = self.risk_queue();
        let surveyed = queue.len();
        let damaged = queue.into_iter().filter(RiskEntry::is_damaged);
        self.scrub_names(surveyed, damaged.map(|e| e.name), max_files)
    }

    /// Drain the system's backlog: survey *only* the enqueued files, rank
    /// them most-at-risk-first, and scrub every one that still exists —
    /// at most `max_files` of them. Unfiltered by the probes: a name is
    /// on the backlog because a read or an earlier pass found it
    /// damaged, and a read's bit rot leaves every block present. Deleted
    /// files leave the queue; the rest follow the loop's requeue rule.
    pub fn run_enqueued(&self, max_files: usize) -> RepairRunReport {
        let names = std::mem::take(&mut *self.backlog().lock());
        let queue = self.rank_names(names.into_iter().collect());
        self.scrub_names(queue.len(), queue.into_iter().map(|e| e.name), max_files)
    }

    /// The one repair loop every pass runs: scrub `names` in order under
    /// this service's options, at most `max_files` of them (skips do not
    /// count). A file deleted since it was listed, or lock-busy, is a
    /// skip. A file goes back on the backlog when it was lock-busy,
    /// beyond the cap, or restored short of its target; a ghost, a failed
    /// decode and a healthy file leave.
    fn scrub_names(
        &self,
        surveyed: usize,
        names: impl IntoIterator<Item = String>,
        max_files: usize,
    ) -> RepairRunReport {
        let charged_before = self.bucket.as_ref().map_or(0, |b| b.consumed());
        let mut report = RepairRunReport {
            surveyed,
            ..RepairRunReport::default()
        };
        let later = |name: String| {
            self.backlog().lock().insert(name);
        };
        let opts = self.scrub_options();
        for name in names {
            if report.scrubbed.len() + report.failed.len() >= max_files {
                later(name);
                continue;
            }
            match self.client.scrub_with(&name, &opts) {
                Ok(scrub) => {
                    if scrub.blocks_stored_after < scrub.blocks_target {
                        later(name); // still short
                    }
                    report.scrubbed.push(scrub);
                }
                Err(StoreError::NotFound(_)) => report.skipped.push(name),
                Err(StoreError::LockConflict(_)) => {
                    report.skipped.push(name.clone());
                    later(name);
                }
                Err(e) => report.failed.push((name, e)),
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

    /// The system's backlog — shared by every service on the system.
    fn backlog(&self) -> &Mutex<BTreeSet<String>> {
        self.client.system().repair_backlog()
    }

    /// Queue a file for the next [`RepairService::run_enqueued`] pass.
    /// Idempotent: the backlog is a set.
    pub fn enqueue(&self, name: impl Into<String>) {
        self.backlog().lock().insert(name.into());
    }

    /// The system's current backlog, name-ordered (for observability and
    /// tests).
    pub fn pending(&self) -> Vec<String> {
        self.backlog().lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;
    use crate::client::{System, SystemConfig};
    use crate::metadata::AccessMode;
    use crate::qos::QosOptions;

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
    fn token_bucket_counts_bytes_only_once_admitted() {
        // 10 KB/s with a 10 KB burst: the first acquire drains the
        // bucket, the second waits about a second for a refill. While it
        // waits, its bytes are not consumed yet, so the ceiling holds.
        let bucket = TokenBucket::new(10_000.0, 10_000);
        bucket.acquire(10_000);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| bucket.acquire(10_000));
            std::thread::sleep(Duration::from_millis(150));
            let consumed = bucket.consumed();
            assert!(
                consumed as f64 <= bucket.budget_ceiling(),
                "a blocked acquire was counted early: {consumed} > {:.0}",
                bucket.budget_ceiling()
            );
            waiter.join().unwrap();
        });
        assert_eq!(bucket.consumed(), 20_000);
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

    #[test]
    fn stale_listing_skips_a_deleted_file() {
        // The loop fed the listing from *before* a delete — the mid-sweep
        // race, made deterministic: by the time the loop reaches
        // "condemned", the file is gone.
        let sys = System::new(
            InMemoryBackend::new((0..8).map(|i| 10e6 + i as f64 * 6e6).collect()),
            SystemConfig {
                block_bytes: 4 << 10,
                read_repair: false,
                ..Default::default()
            },
        );
        let client = Client::connect(&sys, sys.register_user());
        for (tag, name) in ["keep-a", "condemned", "keep-b"].into_iter().enumerate() {
            let mut h = client
                .open(name, AccessMode::Write, QosOptions::best_effort())
                .unwrap();
            client.write(&mut h, &vec![tag as u8 + 1; 40_000]).unwrap();
            client.close(h).unwrap();
        }
        let plan = sys.list_files();
        assert!(plan.contains(&"condemned".to_string()));
        client.delete("condemned").unwrap();

        let service = RepairService::new(client).eager();
        let report = service.scrub_names(plan.len(), plan, usize::MAX);
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
        assert_eq!(report.repaired(), 2);
        assert!(service.pending().is_empty(), "a ghost leaves the backlog");
    }
}
