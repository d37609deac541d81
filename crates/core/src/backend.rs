//! Storage-server data plane.
//!
//! The framework's clients speak to storage servers at block granularity
//! (§4.2: "Storage Servers provide data storage at block level"). The
//! [`StorageBackend`] trait abstracts that data plane; the in-memory
//! implementation stands in for the remote filers, with a per-disk
//! *speed* used to emulate the arrival order speculative reads exploit
//! and counters for the bytes a cancellation saves.
//!
//! The system runs every block operation on a per-disk [`DiskShard`]
//! (see `crate::sharded`). The in-tree backends — in-memory, file and
//! chaos — therefore implement each block operation once, on their
//! shard type, and their [`StorageBackend`] impls only route by disk id
//! (one shared `route_by_disk!` expansion).

use std::collections::HashMap;

use robustore_simkit::rng::uniform01;
use robustore_simkit::SeedSequence;

use crate::error::StoreError;

/// A refused or failed block write: the error plus the owned payload,
/// handed back so the caller can redirect the *same bytes* to another
/// disk (the rateless routing of §4.1.1) without re-encoding, or recycle
/// the allocation. The buffer is only consumed by a write that succeeds.
#[derive(Debug)]
pub struct RefusedWrite {
    /// Why the write did not happen.
    pub error: StoreError,
    /// The unconsumed payload, exactly as submitted.
    pub data: Vec<u8>,
}

impl RefusedWrite {
    /// Bundle an error with the returned payload.
    pub fn new(error: StoreError, data: Vec<u8>) -> Self {
        RefusedWrite { error, data }
    }
}

impl From<RefusedWrite> for StoreError {
    fn from(r: RefusedWrite) -> Self {
        r.error
    }
}

/// One disk's slice of a sharded backend: the same block-level
/// operations as [`StorageBackend`], scoped to a single disk so every
/// shard can sit behind its own lock and accesses to *different* disks
/// proceed concurrently (see `crate::sharded::ShardedBackend`, which
/// routes by disk id).
///
/// A shard knows its global disk id ([`DiskShard::disk_id`]) so wrappers
/// keyed by disk — fault switches, shared counters — keep working after
/// the split.
pub trait DiskShard: Send {
    /// The global disk id this shard serves.
    fn disk_id(&self) -> usize;

    /// Store `data` under key `block`. On failure the buffer comes back
    /// inside [`RefusedWrite`], exactly as in
    /// [`StorageBackend::write_block`].
    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite>;

    /// Group commit: write `batch` in submission order under one dispatch
    /// (one lock acquisition, one simulated queue flush), returning one
    /// result per processed entry.
    ///
    /// The default loops [`DiskShard::write_block`] and **stops at the
    /// first hard fault** (any error other than the refusal shape
    /// [`StoreError::MissingBlock`]), so the returned vector may be
    /// shorter than the batch — unprocessed tail entries were never
    /// attempted, exactly as if they had been submitted one at a time
    /// after an aborting fault. Refusals are per-entry and do not stop
    /// the batch.
    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        let mut out = Vec::with_capacity(batch.len());
        for (block, data) in batch {
            let result = self.write_block(block, data);
            let hard =
                matches!(&result, Err(rw) if !matches!(rw.error, StoreError::MissingBlock { .. }));
            out.push(result);
            if hard {
                break;
            }
        }
        out
    }

    /// Fetch block `block` into a caller-provided buffer.
    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError>;

    /// Presence probe: does this shard currently hold a readable copy of
    /// `block`? Cheap risk assessment for the repair service — it must
    /// not count as a read or consume injected-fault budgets (fault
    /// wrappers delegate straight to the wrapped store). The default
    /// attempts a full read into scratch, which is correct but not cheap;
    /// stores with an index should override it.
    fn has_block(&self, block: u64) -> bool {
        let mut scratch = Vec::new();
        self.read_block_into(block, &mut scratch).is_ok()
    }

    /// Remove a block.
    fn delete_block(&mut self, block: u64) -> Result<(), StoreError>;

    /// Nominal bandwidth, bytes/second.
    fn speed(&self) -> f64;

    /// Bytes currently stored.
    fn used(&self) -> u64;

    /// Account one block read (mirrors [`StorageBackend::count_read`]).
    fn count_read(&mut self) {}

    /// Blocks read through this shard so far.
    fn reads(&self) -> u64 {
        0
    }

    /// Blocks written through this shard so far.
    fn writes(&self) -> u64 {
        0
    }

    /// Failure injection: take the disk offline or bring it back.
    fn set_offline(&mut self, _offline: bool) {}

    /// Fault injection: lose stored blocks with probability `fraction`
    /// (see [`StorageBackend::drop_random_blocks`]; same seeded streams,
    /// so a sharded backend loses the same victims as an unsharded one).
    fn drop_random_blocks(&mut self, _fraction: f64, _seq: &SeedSequence) -> Vec<u64> {
        Vec::new()
    }

    /// Fault injection: flip one byte in stored blocks with probability
    /// `fraction` (see [`StorageBackend::corrupt_random_blocks`]).
    fn corrupt_random_blocks(&mut self, _fraction: f64, _seq: &SeedSequence) -> Vec<u64> {
        Vec::new()
    }
}

/// Block-granular storage under the client.
pub trait StorageBackend {
    /// Number of disks in the system.
    fn num_disks(&self) -> usize;

    /// Store `data` as block `block` of disk `disk`. On failure the
    /// buffer comes back inside [`RefusedWrite`] — ownership transfers to
    /// the backend only on success.
    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite>;

    /// Fetch block `block` of disk `disk`.
    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError>;

    /// Fetch block `block` of disk `disk` into a caller-provided buffer
    /// (e.g. one recycled from a `BlockPool`), avoiding a fresh
    /// allocation per read. The buffer is resized to the block's length.
    /// The default delegates to [`StorageBackend::read_block`]; backends
    /// that can copy in place should override it.
    fn read_block_into(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        *buf = self.read_block(disk, block)?;
        Ok(())
    }

    /// Group commit: write `batch` to `disk` in submission order under
    /// one dispatch. Same contract as [`DiskShard::commit_batch`]: the
    /// default loops [`StorageBackend::write_block`] and stops at the
    /// first hard (non-refusal) fault, so the result vector may be
    /// shorter than the batch.
    fn commit_batch(
        &mut self,
        disk: usize,
        batch: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<(), RefusedWrite>> {
        let mut out = Vec::with_capacity(batch.len());
        for (block, data) in batch {
            let result = self.write_block(disk, block, data);
            let hard =
                matches!(&result, Err(rw) if !matches!(rw.error, StoreError::MissingBlock { .. }));
            out.push(result);
            if hard {
                break;
            }
        }
        out
    }

    /// Split this backend into independent per-disk shards, consuming its
    /// guts: each [`DiskShard`] owns one disk's state and can be locked
    /// separately, so accesses touching different disks never serialise
    /// on one big lock. Per-disk shards are the system's only block-I/O
    /// path: a backend returning `None` (the default) is refused by
    /// [`crate::System::try_with_backend`]. After a successful split the
    /// husk must not be used for I/O.
    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        None
    }

    /// Presence probe: same contract as [`DiskShard::has_block`], scoped
    /// by disk id.
    fn has_block(&self, disk: usize, block: u64) -> bool {
        let mut scratch = Vec::new();
        self.read_block_into(disk, block, &mut scratch).is_ok()
    }

    /// Remove a block (updates delete obsolete coded blocks, §4.3.4).
    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError>;

    /// Nominal bandwidth of a disk, bytes/second — what the metadata
    /// server reports as "expected performance".
    fn disk_speed(&self, disk: usize) -> f64;

    /// Bytes currently stored on a disk.
    fn disk_used(&self, disk: usize) -> u64;

    /// Account one block read (reads go through `&self`, so the client
    /// reports them explicitly).
    fn count_read(&mut self) {}

    /// Blocks read so far (speculative-access accounting).
    fn reads(&self) -> u64 {
        0
    }

    /// Blocks written so far.
    fn writes(&self) -> u64 {
        0
    }

    /// Failure injection: take a disk offline or bring it back. Backends
    /// without failure support may ignore this.
    fn set_offline(&mut self, _disk: usize, _offline: bool) {}

    /// Fault injection: silently lose each stored block of `disk` with
    /// probability `fraction` (latent sector errors rather than a whole
    /// outage), deterministically from `seq`. Returns the lost block
    /// keys; backends without loss support lose nothing.
    fn drop_random_blocks(
        &mut self,
        _disk: usize,
        _fraction: f64,
        _seq: &SeedSequence,
    ) -> Vec<u64> {
        Vec::new()
    }

    /// Fault injection: silently flip one byte in each stored block of
    /// `disk` with probability `fraction` (at-rest bit rot — the block
    /// still reads, but with wrong bytes only checksum verification can
    /// catch), deterministically from `seq`. Returns the corrupted block
    /// keys in ascending order; backends without corruption support
    /// corrupt nothing.
    fn corrupt_random_blocks(
        &mut self,
        _disk: usize,
        _fraction: f64,
        _seq: &SeedSequence,
    ) -> Vec<u64> {
        Vec::new()
    }
}

/// Implements [`StorageBackend`] for a backend made of per-disk shards:
/// `$backend` has `shards: Vec<S>` (`S: DiskShard`, indexed by disk id)
/// and `reads: u64`. Every call routes to its disk's shard, where the
/// block operation is implemented; an unknown disk refuses like a missing
/// block. `reads` counts only the disk-less [`StorageBackend::count_read`].
macro_rules! route_by_disk {
    ($backend:ty) => {
        const _: () = {
            use robustore_simkit::SeedSequence;
            use $crate::backend::{DiskShard, RefusedWrite, StorageBackend};
            use $crate::error::StoreError;

            impl StorageBackend for $backend {
                fn num_disks(&self) -> usize {
                    self.shards.len()
                }

                fn write_block(
                    &mut self,
                    disk: usize,
                    block: u64,
                    data: Vec<u8>,
                ) -> Result<(), RefusedWrite> {
                    match self.shards.get_mut(disk) {
                        Some(shard) => shard.write_block(block, data),
                        None => Err(RefusedWrite::new(
                            StoreError::MissingBlock { disk, block },
                            data,
                        )),
                    }
                }

                fn commit_batch(
                    &mut self,
                    disk: usize,
                    batch: Vec<(u64, Vec<u8>)>,
                ) -> Vec<Result<(), RefusedWrite>> {
                    match self.shards.get_mut(disk) {
                        Some(shard) => shard.commit_batch(batch),
                        None => batch
                            .into_iter()
                            .map(|(block, data)| {
                                let error = StoreError::MissingBlock { disk, block };
                                Err(RefusedWrite::new(error, data))
                            })
                            .collect(),
                    }
                }

                fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
                    let mut buf = Vec::new();
                    self.read_block_into(disk, block, &mut buf)?;
                    Ok(buf)
                }

                fn read_block_into(
                    &self,
                    disk: usize,
                    block: u64,
                    buf: &mut Vec<u8>,
                ) -> Result<(), StoreError> {
                    let shard = self.shards.get(disk);
                    shard
                        .ok_or(StoreError::MissingBlock { disk, block })?
                        .read_block_into(block, buf)
                }

                fn has_block(&self, disk: usize, block: u64) -> bool {
                    self.shards.get(disk).is_some_and(|s| s.has_block(block))
                }

                fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
                    let shard = self.shards.get_mut(disk);
                    shard
                        .ok_or(StoreError::MissingBlock { disk, block })?
                        .delete_block(block)
                }

                fn disk_speed(&self, disk: usize) -> f64 {
                    self.shards[disk].speed()
                }

                fn disk_used(&self, disk: usize) -> u64 {
                    self.shards.get(disk).map_or(0, |s| s.used())
                }

                fn count_read(&mut self) {
                    self.reads += 1;
                }

                fn reads(&self) -> u64 {
                    self.reads
                }

                fn writes(&self) -> u64 {
                    self.shards.iter().map(|s| s.writes()).sum()
                }

                fn set_offline(&mut self, disk: usize, offline: bool) {
                    if let Some(shard) = self.shards.get_mut(disk) {
                        shard.set_offline(offline);
                    }
                }

                fn drop_random_blocks(
                    &mut self,
                    disk: usize,
                    fraction: f64,
                    seq: &SeedSequence,
                ) -> Vec<u64> {
                    let shard = self.shards.get_mut(disk);
                    shard.map_or_else(Vec::new, |s| s.drop_random_blocks(fraction, seq))
                }

                fn corrupt_random_blocks(
                    &mut self,
                    disk: usize,
                    fraction: f64,
                    seq: &SeedSequence,
                ) -> Vec<u64> {
                    let shard = self.shards.get_mut(disk);
                    shard.map_or_else(Vec::new, |s| s.corrupt_random_blocks(fraction, seq))
                }

                fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
                    let shards = self.shards.drain(..);
                    Some(shards.map(|s| Box::new(s) as Box<dyn DiskShard>).collect())
                }
            }
        };
    };
}
pub(crate) use route_by_disk;

/// In-memory backend: one block map per disk plus a nominal speed.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    shards: Vec<MemDisk>,
    /// Blocks read (speculative access may read more than needed).
    reads: u64,
}

route_by_disk!(InMemoryBackend);

/// One in-memory disk: the shard [`InMemoryBackend`] is made of.
#[derive(Debug)]
struct MemDisk {
    /// Global disk id — for error values and the seeded fault streams.
    disk: usize,
    blocks: HashMap<u64, Vec<u8>>,
    speed: f64,
    used: u64,
    /// Stored blocks survive an outage; only I/O is refused.
    offline: bool,
    reads: u64,
    writes: u64,
}

impl DiskShard for MemDisk {
    fn disk_id(&self) -> usize {
        self.disk
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        if self.offline {
            let disk = self.disk;
            return Err(RefusedWrite::new(
                StoreError::MissingBlock { disk, block },
                data,
            ));
        }
        self.used += data.len() as u64;
        if let Some(old) = self.blocks.insert(block, data) {
            self.used -= old.len() as u64;
        }
        self.writes += 1;
        Ok(())
    }

    /// Copies into `buf` in place — no allocation when its capacity
    /// already covers the block (the pooled-buffer fast path).
    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        let data = if self.offline {
            None
        } else {
            self.blocks.get(&block)
        }
        .ok_or(StoreError::MissingBlock {
            disk: self.disk,
            block,
        })?;
        buf.clear();
        buf.extend_from_slice(data);
        Ok(())
    }

    fn has_block(&self, block: u64) -> bool {
        !self.offline && self.blocks.contains_key(&block)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        match self.blocks.remove(&block) {
            Some(old) => {
                self.used -= old.len() as u64;
                Ok(())
            }
            None => Err(StoreError::MissingBlock {
                disk: self.disk,
                block,
            }),
        }
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn count_read(&mut self) {
        self.reads += 1;
    }

    fn reads(&self) -> u64 {
        self.reads
    }

    fn writes(&self) -> u64 {
        self.writes
    }

    fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// Reads of a lost block report [`StoreError::MissingBlock`], which
    /// the client's degraded-read path skips over. The victims depend
    /// only on the disk's contents, `fraction`, and `seq` (drawn from
    /// the dedicated `"block-loss"` stream); lost keys come back in
    /// ascending order.
    fn drop_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let mut rng = seq.fork("block-loss", self.disk as u64);
        let mut keys: Vec<u64> = self.blocks.keys().copied().collect();
        keys.sort_unstable(); // HashMap order is not deterministic; draws must be
        let mut lost = Vec::new();
        for key in keys {
            if uniform01(&mut rng) < fraction {
                let data = self.blocks.remove(&key).expect("key just listed");
                self.used -= data.len() as u64;
                lost.push(key);
            }
        }
        lost
    }

    /// Bit rot: victims keep their length and keep reading successfully,
    /// but one byte is flipped — indistinguishable from a good block
    /// without the stored checksum. Victims depend only on the disk's
    /// contents, `fraction`, and `seq` (dedicated `"bit-rot"` stream).
    fn corrupt_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let mut rng = seq.fork("bit-rot", self.disk as u64);
        let mut keys: Vec<u64> = self.blocks.keys().copied().collect();
        keys.sort_unstable();
        let mut rotted = Vec::new();
        for key in keys {
            if uniform01(&mut rng) < fraction {
                let data = self.blocks.get_mut(&key).expect("key just listed");
                if !data.is_empty() {
                    let pos = (uniform01(&mut rng) * data.len() as f64) as usize;
                    let last = data.len() - 1;
                    data[pos.min(last)] ^= 0x40;
                    rotted.push(key);
                }
            }
        }
        rotted
    }
}

impl InMemoryBackend {
    /// A backend with the given per-disk nominal speeds (bytes/second).
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty(), "need at least one disk");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        InMemoryBackend {
            shards: speeds
                .into_iter()
                .enumerate()
                .map(|(disk, speed)| MemDisk {
                    disk,
                    blocks: HashMap::new(),
                    speed,
                    used: 0,
                    offline: false,
                    reads: 0,
                    writes: 0,
                })
                .collect(),
            reads: 0,
        }
    }

    /// A uniform backend of `n` disks at `speed` bytes/second.
    pub fn uniform(n: usize, speed: f64) -> Self {
        InMemoryBackend::new(vec![speed; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_delete_roundtrip() {
        let mut b = InMemoryBackend::uniform(2, 10e6);
        b.write_block(0, 7, vec![1, 2, 3]).unwrap();
        assert_eq!(b.read_block(0, 7).unwrap(), vec![1, 2, 3]);
        assert_eq!(b.disk_used(0), 3);
        b.delete_block(0, 7).unwrap();
        assert!(matches!(
            b.read_block(0, 7),
            Err(StoreError::MissingBlock { .. })
        ));
        assert_eq!(b.disk_used(0), 0);
    }

    #[test]
    fn overwrite_adjusts_usage() {
        let mut b = InMemoryBackend::uniform(1, 10e6);
        b.write_block(0, 1, vec![0; 100]).unwrap();
        b.write_block(0, 1, vec![0; 40]).unwrap();
        assert_eq!(b.disk_used(0), 40);
        assert_eq!(b.writes(), 2);
    }

    #[test]
    fn read_into_reuses_capacity() {
        let mut b = InMemoryBackend::uniform(1, 10e6);
        b.write_block(0, 3, vec![9, 8, 7]).unwrap();
        let mut buf = Vec::with_capacity(16);
        let ptr = buf.as_ptr();
        b.read_block_into(0, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![9, 8, 7]);
        assert_eq!(buf.as_ptr(), ptr, "capacity sufficed; no reallocation");
        assert!(matches!(
            b.read_block_into(0, 99, &mut buf),
            Err(StoreError::MissingBlock { .. })
        ));
    }

    #[test]
    fn invalid_disk_errors() {
        let mut b = InMemoryBackend::uniform(1, 10e6);
        assert!(b.write_block(5, 0, vec![]).is_err());
        assert!(b.read_block(5, 0).is_err());
        assert!(b.delete_block(0, 99).is_err());
    }

    #[test]
    fn speeds_vary() {
        let b = InMemoryBackend::new(vec![1e6, 50e6]);
        assert_eq!(b.disk_speed(0), 1e6);
        assert_eq!(b.disk_speed(1), 50e6);
        assert_eq!(b.num_disks(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_panics() {
        InMemoryBackend::new(vec![0.0]);
    }

    fn loaded_backend() -> InMemoryBackend {
        let mut b = InMemoryBackend::uniform(2, 10e6);
        for key in 0..64 {
            b.write_block(0, key, vec![key as u8; 16]).unwrap();
        }
        b
    }

    #[test]
    fn block_loss_is_deterministic() {
        let seq = SeedSequence::new(11);
        let lost_a = loaded_backend().drop_random_blocks(0, 0.3, &seq);
        let lost_b = loaded_backend().drop_random_blocks(0, 0.3, &seq);
        assert_eq!(lost_a, lost_b);
        assert!(!lost_a.is_empty() && lost_a.len() < 64, "p=0.3 over 64");
        assert!(lost_a.windows(2).all(|w| w[0] < w[1]), "ascending keys");
        let other_seed = loaded_backend().drop_random_blocks(0, 0.3, &SeedSequence::new(12));
        assert_ne!(lost_a, other_seed);
    }

    #[test]
    fn lost_blocks_read_as_missing_and_free_space() {
        let mut b = loaded_backend();
        let used_before = b.disk_used(0);
        let lost = b.drop_random_blocks(0, 0.5, &SeedSequence::new(7));
        assert_eq!(b.disk_used(0), used_before - 16 * lost.len() as u64);
        for &key in &lost {
            assert!(matches!(
                b.read_block(0, key),
                Err(StoreError::MissingBlock { .. })
            ));
        }
        // Untouched disk and fraction edge cases.
        assert!(b
            .drop_random_blocks(1, 0.5, &SeedSequence::new(7))
            .is_empty());
        assert!(loaded_backend()
            .drop_random_blocks(0, 0.0, &SeedSequence::new(7))
            .is_empty());
        assert_eq!(
            loaded_backend()
                .drop_random_blocks(0, 1.0, &SeedSequence::new(7))
                .len(),
            64
        );
    }

    #[test]
    fn bit_rot_is_deterministic_and_silent() {
        let seq = SeedSequence::new(21);
        let rot_a = loaded_backend().corrupt_random_blocks(0, 0.3, &seq);
        let rot_b = loaded_backend().corrupt_random_blocks(0, 0.3, &seq);
        assert_eq!(rot_a, rot_b);
        assert!(!rot_a.is_empty() && rot_a.len() < 64);
        assert!(rot_a.windows(2).all(|w| w[0] < w[1]), "ascending keys");

        let mut b = loaded_backend();
        let used_before = b.disk_used(0);
        let rotted = b.corrupt_random_blocks(0, 0.3, &seq);
        // Silent: same usage, same length, reads still succeed — but the
        // bytes differ from the originals.
        assert_eq!(b.disk_used(0), used_before);
        for &key in &rotted {
            let data = b.read_block(0, key).unwrap();
            assert_eq!(data.len(), 16);
            assert_ne!(data, vec![key as u8; 16], "block {key} not corrupted");
        }
        // Non-victims are untouched.
        for key in (0..64).filter(|k| !rotted.contains(k)) {
            assert_eq!(b.read_block(0, key).unwrap(), vec![key as u8; 16]);
        }
        assert_ne!(
            rot_a,
            loaded_backend().corrupt_random_blocks(0, 0.3, &SeedSequence::new(22))
        );
    }
}
