//! Background scrubbing: proactive verification and redundancy repair.
//!
//! A read only heals the damage it happens to trip over; the scrubber
//! hunts. [`Scrubber::sweep`] walks every file the metadata server knows
//! about and runs [`crate::Client::scrub`] on each: read *all* stored
//! blocks (no early cancel), verify checksums, decode, re-encode whatever
//! is missing or corrupt, and put it back through the restore path
//! read-repair also takes — in place on its home disk, so the file keeps
//! its speed-proportional layout, and on the least-loaded disk that takes
//! it only when the home refuses. Each file returns to its full target of
//! N coded blocks before latent faults accumulate past the code's
//! decodability margin.
//!
//! Scrubbing is also the upgrade path for legacy metadata: a file written
//! before checksums existed comes out of a scrub with a complete digest
//! map, so every later read verifies end to end.

use crate::client::Client;
use crate::error::StoreError;
use crate::repair::ScrubOptions;

/// What one per-file scrub pass found and fixed.
#[derive(Debug, Clone)]
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

/// Sweeps a whole store, file by file.
pub struct Scrubber<'a> {
    client: &'a Client,
}

/// Result of a store-wide sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per-file outcomes for files that scrubbed cleanly.
    pub scrubbed: Vec<ScrubReport>,
    /// Files the scrubber could not repair (typically: damage already
    /// past the code's decodability margin), with the error.
    pub failed: Vec<(String, StoreError)>,
    /// Files that vanished between the listing and their scrub (a
    /// concurrent delete) or were lock-busy under a concurrent writer.
    /// Transient conditions, not damage — they are *not* failures:
    /// retrying a ghost forever would wedge the sweep, and a busy file
    /// is simply revisited by the next sweep.
    pub skipped: Vec<String>,
}

impl SweepReport {
    /// Total blocks restored across the sweep.
    pub fn blocks_restored(&self) -> usize {
        self.scrubbed.iter().map(|r| r.blocks_restored).sum()
    }
}

impl<'a> Scrubber<'a> {
    /// A scrubber acting with `client`'s identity (it can only scrub
    /// files that identity may open for writing).
    pub fn new(client: &'a Client) -> Self {
        Scrubber { client }
    }

    /// Scrub every file in the store, continuing past per-file failures —
    /// one undecodable file must not stop the sweep from saving the rest.
    pub fn sweep(&self) -> SweepReport {
        self.sweep_with(&ScrubOptions::default())
    }

    /// [`Scrubber::sweep`] with repair-service controls (throttle,
    /// background class) threaded into every per-file scrub.
    pub fn sweep_with(&self, opts: &ScrubOptions<'_>) -> SweepReport {
        self.sweep_names(&self.client.system().list_files(), opts)
    }

    /// Sweep a caller-chosen set of files (e.g. a repair service's risk
    /// queue). A file deleted between listing and scrub is recorded in
    /// [`SweepReport::skipped`], not treated as a failure.
    pub fn sweep_names(&self, names: &[String], opts: &ScrubOptions<'_>) -> SweepReport {
        let mut report = SweepReport::default();
        for name in names {
            match self.client.scrub_with(name, opts) {
                Ok(r) => report.scrubbed.push(r),
                Err(StoreError::NotFound(_)) | Err(StoreError::LockConflict(_)) => {
                    report.skipped.push(name.clone())
                }
                Err(e) => report.failed.push((name.clone(), e)),
            }
        }
        report
    }
}
