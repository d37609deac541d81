//! Sharded backend dispatch: per-disk locks and group commit.
//!
//! RobuSTore's premise is that erasure-coded accesses fan out over many
//! *independent* disks, so the client must not serialise them behind one
//! backend-wide lock. [`ShardedBackend`] is the submission layer that
//! makes the independence real: it splits a [`StorageBackend`] into
//! per-disk [`DiskShard`]s (via [`StorageBackend::try_shard`]), puts each
//! shard behind its own mutex, and routes every `write_block` /
//! `read_block_into` / `delete_block` by disk id. Two accesses touching
//! different disks — or different blocks of the same access — only
//! contend when they land on the same disk at the same instant, which is
//! exactly the per-disk-queue regime the paper's analysis models.
//!
//! Per-disk shards are the only block-I/O path: a backend that cannot
//! shard (`try_shard() == None`, the trait default) is refused, and
//! [`crate::System::try_with_backend`] reports it as
//! [`StoreError::Io`].
//!
//! Group commit rides on the same seam: [`ShardedBackend::commit_batch`]
//! hands a run of consecutive same-disk writes to the shard in one lock
//! acquisition ([`DiskShard::commit_batch`]), amortising the per-dispatch
//! cost (lock traffic here; on the durable
//! [`FileBackend`](crate::file_backend::FileBackend), the one directory
//! fsync that makes the whole batch's new block files durable). The
//! batch contract keeps failure semantics identical to unbatched writes:
//! entries are processed in order and the batch stops at the first hard
//! fault, so the commit protocol's rollback sees the same world either
//! way.

use std::ops::DerefMut;

use parking_lot::Mutex;
use robustore_simkit::SeedSequence;

use crate::backend::{DiskShard, RefusedWrite, StorageBackend};
use crate::error::StoreError;

/// The submission layer over a storage backend split into per-disk shards.
///
/// All methods take `&self`: locking is internal, per disk and
/// per-operation, so concurrent client accesses interleave at block
/// granularity instead of excluding each other for whole accesses.
/// Per-disk nominal speeds are cached at construction (they are static),
/// so layout planning reads them without touching any lock.
pub struct ShardedBackend {
    shards: Vec<Mutex<Box<dyn DiskShard>>>,
    speeds: Vec<f64>,
}

impl ShardedBackend {
    /// Split `backend` into per-disk shards ([`StorageBackend::try_shard`]).
    /// Panics when the backend cannot shard, or when `sharded` is false:
    /// the argument is kept only so the benchmark harness's compiled calls
    /// keep building, and dispatch is always per disk.
    pub fn new(backend: Box<dyn StorageBackend + Send>, sharded: bool) -> Self {
        assert!(
            sharded,
            "`sharded` must be true: the argument exists only for the benchmark harness's compiled surface"
        );
        Self::try_new(backend).expect("backend must split into per-disk shards")
    }

    /// [`ShardedBackend::new`]'s fallible form: a backend that cannot
    /// shard is an [`StoreError::Io`].
    pub(crate) fn try_new(mut backend: Box<dyn StorageBackend + Send>) -> Result<Self, StoreError> {
        let speeds: Vec<f64> = (0..backend.num_disks())
            .map(|d| backend.disk_speed(d))
            .collect();
        let shards = backend.try_shard().ok_or_else(|| {
            StoreError::Io("backend cannot split into per-disk shards (try_shard)".into())
        })?;
        assert_eq!(shards.len(), speeds.len(), "one shard per disk");
        Ok(ShardedBackend {
            shards: shards.into_iter().map(Mutex::new).collect(),
            speeds,
        })
    }

    /// Lock disk `disk`'s shard (`None` for an unknown disk).
    fn shard(&self, disk: usize) -> Option<impl DerefMut<Target = Box<dyn DiskShard>> + '_> {
        self.shards.get(disk).map(|s| s.lock())
    }

    /// Hold disk `disk`'s shard lock until the guard drops: an op a ring
    /// worker starts on it meanwhile stays in service.
    #[cfg(test)]
    pub(crate) fn hold(&self, disk: usize) -> impl Sized + '_ {
        self.shards[disk].lock()
    }

    /// Number of disks.
    pub fn num_disks(&self) -> usize {
        self.speeds.len()
    }

    /// Nominal bandwidth of a disk, bytes/second (lock-free: cached).
    pub fn disk_speed(&self, disk: usize) -> f64 {
        self.speeds[disk]
    }

    /// Store `data` as block `block` of disk `disk`.
    pub fn write_block(&self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        match self.shard(disk) {
            Some(mut shard) => shard.write_block(block, data),
            None => Err(RefusedWrite::new(
                StoreError::MissingBlock { disk, block },
                data,
            )),
        }
    }

    /// Group commit: write a batch of consecutive same-disk blocks under
    /// one lock acquisition. Stops at the first hard fault (the result
    /// vector may be shorter than the batch); refusals are per-entry.
    pub fn commit_batch(
        &self,
        disk: usize,
        batch: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<(), RefusedWrite>> {
        match self.shard(disk) {
            Some(mut shard) => shard.commit_batch(batch),
            None => batch
                .into_iter()
                .map(|(block, data)| {
                    Err(RefusedWrite::new(
                        StoreError::MissingBlock { disk, block },
                        data,
                    ))
                })
                .collect(),
        }
    }

    /// Fetch block `block` of disk `disk` into `buf`.
    pub fn read_block_into(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.shard(disk)
            .ok_or(StoreError::MissingBlock { disk, block })?
            .read_block_into(block, buf)
    }
    /// Fetch a block with the shared bounded-retry policy: transient
    /// faults retry up to `max_attempts` total attempts, calling
    /// `backoff(attempt)` before each retry (the caller supplies the
    /// sleep — plain exponential on the ring workers). A successful read is counted against the disk
    /// here, so retry accounting and per-disk read counters cannot drift
    /// between callers.
    /// Returns the final result and the number of retries performed;
    /// exhausted retries surface the last `TransientIo` error.
    pub fn read_block_retry(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
        max_attempts: u32,
        mut backoff: impl FnMut(u32),
    ) -> (Result<(), StoreError>, u64) {
        let max_attempts = max_attempts.max(1);
        let mut attempt = 0u32;
        let mut retries = 0u64;
        let result = loop {
            match self.read_block_into(disk, block, buf) {
                Ok(()) => {
                    self.count_read(disk);
                    break Ok(());
                }
                Err(err @ StoreError::TransientIo { .. }) => {
                    attempt += 1;
                    if attempt >= max_attempts {
                        break Err(err);
                    }
                    retries += 1;
                    backoff(attempt);
                }
                Err(err) => break Err(err),
            }
        };
        (result, retries)
    }

    /// Presence probe: does `disk` currently hold a readable copy of
    /// `block`? Not a read — counters and injected-fault budgets are
    /// untouched (see [`DiskShard::has_block`]).
    pub fn has_block(&self, disk: usize, block: u64) -> bool {
        self.shard(disk).is_some_and(|s| s.has_block(block))
    }

    /// Remove a block.
    pub fn delete_block(&self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.shard(disk)
            .ok_or(StoreError::MissingBlock { disk, block })?
            .delete_block(block)
    }

    /// Bytes currently stored on a disk.
    pub fn disk_used(&self, disk: usize) -> u64 {
        self.shard(disk).map_or(0, |s| s.used())
    }

    /// Account one block read on `disk`.
    pub fn count_read(&self, disk: usize) {
        if let Some(mut shard) = self.shard(disk) {
            shard.count_read();
        }
    }

    /// Blocks read so far, summed across disks.
    pub fn reads(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().reads()).sum()
    }

    /// Blocks written so far, summed across disks.
    pub fn writes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().writes()).sum()
    }

    /// Failure injection: take a disk offline or bring it back.
    pub fn set_offline(&self, disk: usize, offline: bool) {
        if let Some(mut shard) = self.shard(disk) {
            shard.set_offline(offline);
        }
    }

    /// Fault injection: seeded random block loss on one disk.
    pub fn drop_random_blocks(&self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.shard(disk)
            .map_or_else(Vec::new, |mut s| s.drop_random_blocks(fraction, seq))
    }

    /// Fault injection: seeded at-rest bit rot on one disk.
    pub fn corrupt_random_blocks(
        &self,
        disk: usize,
        fraction: f64,
        seq: &SeedSequence,
    ) -> Vec<u64> {
        self.shard(disk)
            .map_or_else(Vec::new, |mut s| s.corrupt_random_blocks(fraction, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;

    fn sharded(n: usize) -> ShardedBackend {
        ShardedBackend::new(Box::new(InMemoryBackend::uniform(n, 10e6)), true)
    }

    #[test]
    fn routes_by_disk() {
        let b = sharded(3);
        b.write_block(0, 1, vec![1; 4]).unwrap();
        b.write_block(2, 9, vec![2; 8]).unwrap();
        let mut buf = Vec::new();
        b.read_block_into(2, 9, &mut buf).unwrap();
        assert_eq!(buf, vec![2; 8]);
        assert_eq!(b.disk_used(0), 4);
        assert_eq!(b.disk_used(1), 0);
        assert_eq!(b.disk_used(2), 8);
        assert_eq!(b.writes(), 2);
        b.delete_block(0, 1).unwrap();
        assert_eq!(b.disk_used(0), 0);
        assert!(matches!(
            b.read_block_into(0, 1, &mut buf),
            Err(StoreError::MissingBlock { .. })
        ));
    }

    #[test]
    fn speeds_are_cached_per_disk() {
        assert_eq!(sharded(4).num_disks(), 4);
        assert_eq!(sharded(2).disk_speed(1), 10e6);
    }

    #[test]
    #[should_panic(expected = "benchmark harness")]
    fn unsharded_dispatch_is_refused() {
        ShardedBackend::new(Box::new(InMemoryBackend::uniform(2, 10e6)), false);
    }

    #[test]
    fn invalid_disks_refuse_gracefully() {
        let b = sharded(1);
        assert!(b.write_block(7, 0, vec![0]).is_err());
        let mut buf = Vec::new();
        assert!(b.read_block_into(7, 0, &mut buf).is_err());
        assert!(b.delete_block(7, 0).is_err());
        assert_eq!(b.disk_used(7), 0);
        let results = b.commit_batch(7, vec![(0, vec![1]), (1, vec![2])]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_err()));
    }

    #[test]
    fn commit_batch_matches_sequential_writes() {
        let b = sharded(2);
        let results = b.commit_batch(1, vec![(10, vec![1; 3]), (11, vec![2; 5])]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(b.disk_used(1), 8);
        let mut buf = Vec::new();
        b.read_block_into(1, 11, &mut buf).unwrap();
        assert_eq!(buf, vec![2; 5]);
    }

    #[test]
    fn offline_shard_refuses_io() {
        let b = sharded(2);
        b.set_offline(0, true);
        assert!(b.write_block(0, 1, vec![1]).is_err());
        b.write_block(1, 1, vec![1]).unwrap();
        b.set_offline(0, false);
        b.write_block(0, 1, vec![1]).unwrap();
    }

    #[test]
    fn count_read_sums_across_shards() {
        let b = sharded(3);
        b.count_read(0);
        b.count_read(2);
        b.count_read(2);
        assert_eq!(b.reads(), 3);
    }

    #[test]
    fn seeded_fault_victims_are_pinned() {
        // The shard forks the per-disk `"block-loss"` / `"bit-rot"` rng
        // streams; these victim lists were recorded before the
        // single-lock dispatch mode was removed, so the seeded streams
        // provably did not move.
        let b = sharded(2);
        for key in 0..64u64 {
            b.write_block(0, key, vec![key as u8; 16]).unwrap();
        }
        let seq = SeedSequence::new(11);
        assert_eq!(
            b.drop_random_blocks(0, 0.3, &seq),
            [5, 9, 10, 11, 23, 25, 27, 28, 37, 42, 43, 46, 52, 54, 57, 59]
        );
        assert_eq!(
            b.corrupt_random_blocks(0, 0.4, &seq),
            [2, 3, 7, 18, 20, 22, 24, 30, 31, 32, 35, 38, 39, 41, 45, 47, 48, 50, 51, 58, 60, 63]
        );
    }
}
