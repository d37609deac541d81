//! Filesystem-backed storage backend.
//!
//! [`FileBackend`] persists coded blocks as files under a root directory —
//! one subdirectory per simulated disk, one file per block — so a
//! RobuSTore [`crate::System`] can survive process restarts. It is the
//! "real system implementation" seed of §7.3: the same client, metadata,
//! and coding stack, with durable block storage underneath.
//!
//! Layout: `<root>/disk-<id>/<block-key-hex>.blk`, plus a `speeds` file
//! recording the per-disk nominal bandwidths so a reopened store plans the
//! same way. Each block operation is implemented once, on the per-disk
//! `FileShard`; the [`StorageBackend`] impl routes by disk id. A write
//! counts only once its block file is synced, and each group commit ends
//! with one fsync of the disk directory, so the metadata commit that
//! follows never names a block the device does not hold.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::backend::{DiskShard, RefusedWrite, StorageBackend};
use crate::error::StoreError;

/// Block storage rooted in a directory.
#[derive(Debug)]
pub struct FileBackend {
    shards: Vec<FileShard>,
    reads: u64,
}

fn io_err(disk: usize, block: u64) -> StoreError {
    StoreError::MissingBlock { disk, block }
}

fn fs_err(path: &Path, why: impl std::fmt::Display) -> StoreError {
    StoreError::Io(format!("{}: {why}", path.display()))
}

/// A usable speed list: at least one disk, every speed positive and finite.
fn check_speeds(speeds: &[f64]) -> Result<(), String> {
    match speeds.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
        _ if speeds.is_empty() => Err("no disks listed".into()),
        Some(s) => Err(format!("disk speed {s} is not a positive bandwidth")),
        None => Ok(()),
    }
}

impl FileBackend {
    /// Create a store at `root` with the given per-disk speeds, or reopen
    /// an existing one (in which case the recorded speeds are loaded and
    /// `speeds` must match in count).
    pub fn open(root: impl AsRef<Path>, speeds: Vec<f64>) -> Result<Self, StoreError> {
        let root = root.as_ref();
        check_speeds(&speeds).map_err(|why| fs_err(root, why))?;
        let path = root.join("speeds");
        if !path.exists() {
            std::fs::create_dir_all(root).map_err(|e| fs_err(root, e))?;
            let text: String = speeds.iter().map(|s| format!("{s}\n")).collect();
            std::fs::write(&path, text).map_err(|e| fs_err(&path, e))?;
        }
        let store = Self::reopen(root)?;
        if store.shards.len() != speeds.len() {
            return Err(StoreError::AccessDenied(format!(
                "store at {} has {} disks, asked for {}",
                root.display(),
                store.shards.len(),
                speeds.len()
            )));
        }
        Ok(store)
    }

    /// Reopen an existing store with the speeds it recorded. A missing,
    /// unparsable, empty or non-positive `speeds` file is an error.
    pub fn reopen(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref();
        let path = root.join("speeds");
        let text = std::fs::read_to_string(&path).map_err(|e| fs_err(&path, e))?;
        let speeds = text
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("unparsable speed {t:?}")))
            .collect::<Result<Vec<f64>, _>>()
            .and_then(|speeds| check_speeds(&speeds).map(|()| speeds))
            .map_err(|why| fs_err(&path, why))?;
        let shards = speeds
            .into_iter()
            .enumerate()
            .map(|(disk, speed)| {
                let dir = root.join(format!("disk-{disk}"));
                std::fs::create_dir_all(&dir).map_err(|e| fs_err(&dir, e))?;
                Ok(FileShard {
                    dir,
                    disk,
                    speed,
                    offline: false,
                    reads: 0,
                    writes: 0,
                })
            })
            .collect::<Result<_, StoreError>>()?;
        Ok(FileBackend { shards, reads: 0 })
    }
}

impl StorageBackend for FileBackend {
    fn num_disks(&self) -> usize {
        self.shards.len()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.commit_batch(disk, vec![(block, data)]).remove(0)
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
                .map(|(block, data)| Err(RefusedWrite::new(io_err(disk, block), data)))
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
        let shard = self.shards.get(disk).ok_or(io_err(disk, block))?;
        shard.read_block_into(block, buf)
    }

    fn has_block(&self, disk: usize, block: u64) -> bool {
        self.shards.get(disk).is_some_and(|s| s.has_block(block))
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        let shard = self.shards.get_mut(disk).ok_or(io_err(disk, block))?;
        shard.delete_block(block)
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.shards[disk].speed
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
        self.shards.iter().map(|s| s.writes).sum()
    }

    fn set_offline(&mut self, disk: usize, offline: bool) {
        if let Some(shard) = self.shards.get_mut(disk) {
            shard.offline = offline;
        }
    }

    fn corrupt_random_blocks(
        &mut self,
        disk: usize,
        fraction: f64,
        seq: &robustore_simkit::SeedSequence,
    ) -> Vec<u64> {
        let shard = self.shards.get_mut(disk);
        shard.map_or_else(Vec::new, |s| s.corrupt_random_blocks(fraction, seq))
    }

    /// Shards never touch each other's directories, so per-disk locking
    /// is safe on a shared root; the `speeds` file is read-only after open.
    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let shards = self.shards.drain(..);
        Some(shards.map(|s| Box::new(s) as Box<dyn DiskShard>).collect())
    }
}

/// One disk directory of a [`FileBackend`].
#[derive(Debug)]
struct FileShard {
    /// `<root>/disk-<id>`.
    dir: PathBuf,
    disk: usize,
    speed: f64,
    offline: bool,
    reads: u64,
    writes: u64,
}

impl FileShard {
    fn block_path(&self, block: u64) -> PathBuf {
        self.dir.join(format!("{block:016x}.blk"))
    }

    /// Write one block file and sync its bytes to the device.
    fn put(&self, block: u64, data: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::File::create(self.block_path(block))?;
        f.write_all(data)?;
        f.sync_data()
    }
}

impl DiskShard for FileShard {
    fn disk_id(&self) -> usize {
        self.disk
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.commit_batch(vec![(block, data)]).remove(0)
    }

    /// Durable group commit: each block file is synced, then one fsync of
    /// the disk directory makes the group's new names durable. Every
    /// failure is a refusal that hands the bytes back for rerouting, so
    /// the result vector is always full length.
    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        let landed: Vec<(u64, Vec<u8>, bool)> = batch
            .into_iter()
            .map(|(block, data)| {
                let ok = !self.offline && self.put(block, &data).is_ok();
                (block, data, ok)
            })
            .collect();
        let synced = landed.iter().any(|&(_, _, ok)| ok)
            && std::fs::File::open(&self.dir)
                .and_then(|d| d.sync_all())
                .is_ok();
        let disk = self.disk;
        landed
            .into_iter()
            .map(|(block, data, ok)| {
                if !(ok && synced) {
                    return Err(RefusedWrite::new(io_err(disk, block), data));
                }
                self.writes += 1;
                Ok(())
            })
            .collect()
    }

    /// Streams the file into `buf` (cleared first), reusing its capacity
    /// instead of allocating a fresh vector per block.
    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        use std::io::Read as _;
        if self.offline {
            return Err(io_err(self.disk, block));
        }
        let mut f =
            std::fs::File::open(self.block_path(block)).map_err(|_| io_err(self.disk, block))?;
        buf.clear();
        f.read_to_end(buf).map_err(|_| io_err(self.disk, block))?;
        Ok(())
    }

    fn has_block(&self, block: u64) -> bool {
        !self.offline && self.block_path(block).is_file()
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        std::fs::remove_file(self.block_path(block)).map_err(|_| io_err(self.disk, block))
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn used(&self) -> u64 {
        let entries = std::fs::read_dir(&self.dir).into_iter().flatten();
        let sizes = entries.filter_map(|e| Some(e.ok()?.metadata().ok()?.len()));
        sizes.sum()
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

    /// At-rest bit rot on a durable store: flips one byte in each victim
    /// block file in place (length and readability preserved). Victims
    /// depend only on the disk's contents, `fraction`, and `seq` — the
    /// same `fork("bit-rot", disk)` stream as the in-memory backend.
    fn corrupt_random_blocks(
        &mut self,
        fraction: f64,
        seq: &robustore_simkit::SeedSequence,
    ) -> Vec<u64> {
        use robustore_simkit::rng::uniform01;
        assert!((0.0..=1.0).contains(&fraction), "fraction in 0..=1");
        let entries = std::fs::read_dir(&self.dir).into_iter().flatten();
        let mut keys: Vec<u64> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                u64::from_str_radix(name.strip_suffix(".blk")?, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        let mut rng = seq.fork("bit-rot", self.disk as u64);
        let mut rotted = Vec::new();
        for key in keys {
            if uniform01(&mut rng) < fraction {
                let path = self.block_path(key);
                let Ok(mut data) = std::fs::read(&path) else {
                    continue;
                };
                if data.is_empty() {
                    continue;
                }
                let pos = (uniform01(&mut rng) * data.len() as f64) as usize;
                let last = data.len() - 1;
                data[pos.min(last)] ^= 0x40;
                if std::fs::write(&path, &data).is_ok() {
                    rotted.push(key);
                }
            }
        }
        rotted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let unique = format!(
            "robustore-test-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        );
        std::env::temp_dir().join(unique)
    }

    #[test]
    fn roundtrip_and_usage() {
        let root = temp_root("rt");
        let mut b = FileBackend::open(&root, vec![10e6, 20e6]).unwrap();
        b.write_block(0, 7, vec![1, 2, 3]).unwrap();
        b.write_block(1, 8, vec![9; 100]).unwrap();
        assert_eq!(b.read_block(0, 7).unwrap(), vec![1, 2, 3]);
        let mut buf = Vec::new();
        b.read_block_into(0, 7, &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(b.disk_used(1), 100);
        b.delete_block(0, 7).unwrap();
        assert!(b.read_block(0, 7).is_err());
        assert_eq!(b.writes(), 2);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn commit_batch_lands_every_entry_and_routes_by_disk() {
        let root = temp_root("batch");
        let mut b = FileBackend::open(&root, vec![10e6, 10e6]).unwrap();
        let results = b.commit_batch(1, vec![(1, vec![1; 3]), (2, vec![2; 5])]);
        assert!(results.iter().all(|r| r.is_ok()) && results.len() == 2);
        assert_eq!(b.disk_used(1), 8);
        assert_eq!(b.disk_used(0), 0);
        assert_eq!(b.writes(), 2);
        // An unknown disk refuses every entry and hands the bytes back.
        let refused = b.commit_batch(9, vec![(3, vec![7; 4])]);
        assert!(matches!(&refused[..], [Err(rw)] if rw.data == vec![7; 4]));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn reopen_preserves_blocks_and_speeds() {
        let root = temp_root("reopen");
        {
            let mut b = FileBackend::open(&root, vec![10e6, 40e6]).unwrap();
            b.write_block(1, 42, vec![5, 6, 7]).unwrap();
        }
        let b = FileBackend::open(&root, vec![0.1, 0.1]).unwrap(); // placeholder speeds
        assert_eq!(b.disk_speed(1), 40e6, "recorded speeds win on reopen");
        assert_eq!(b.read_block(1, 42).unwrap(), vec![5, 6, 7]);
        let b = FileBackend::reopen(&root).unwrap();
        assert_eq!(b.num_disks(), 2);
        assert_eq!(b.disk_speed(1), 40e6);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn reopen_with_wrong_disk_count_fails() {
        let root = temp_root("count");
        FileBackend::open(&root, vec![1e6, 1e6]).unwrap();
        assert!(FileBackend::open(&root, vec![1e6]).is_err());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn bad_speeds_are_errors_not_panics() {
        let root = temp_root("speeds");
        assert!(FileBackend::open(&root, vec![]).is_err());
        assert!(FileBackend::open(&root, vec![1e6, 0.0]).is_err());
        assert!(FileBackend::reopen(&root).is_err(), "no store yet");
        FileBackend::open(&root, vec![1e6, 1e6]).unwrap();
        for damaged in ["", "0\n", "1e6\nfast\n", "-5\n", "NaN\n"] {
            std::fs::write(root.join("speeds"), damaged).unwrap();
            assert!(
                matches!(FileBackend::reopen(&root), Err(StoreError::Io(_))),
                "{damaged:?}"
            );
        }
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn bit_rot_flips_bytes_in_place() {
        use robustore_simkit::SeedSequence;
        let root = temp_root("rot");
        let mut b = FileBackend::open(&root, vec![10e6]).unwrap();
        for key in 0..32u64 {
            b.write_block(0, key, vec![key as u8; 16]).unwrap();
        }
        let seq = SeedSequence::new(13);
        let rotted = b.corrupt_random_blocks(0, 0.5, &seq);
        assert!(!rotted.is_empty() && rotted.len() < 32);
        assert!(rotted.windows(2).all(|w| w[0] < w[1]));
        for &key in &rotted {
            let data = b.read_block(0, key).unwrap();
            assert_eq!(data.len(), 16, "rot must not change length");
            assert_ne!(data, vec![key as u8; 16]);
        }
        for key in (0..32).filter(|k| !rotted.contains(k)) {
            assert_eq!(b.read_block(0, key).unwrap(), vec![key as u8; 16]);
        }
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn offline_disk_rejects_io() {
        let root = temp_root("offline");
        let mut b = FileBackend::open(&root, vec![10e6]).unwrap();
        b.write_block(0, 1, vec![1]).unwrap();
        b.set_offline(0, true);
        assert!(b.read_block(0, 1).is_err());
        assert!(b.write_block(0, 2, vec![2]).is_err());
        b.set_offline(0, false);
        assert_eq!(b.read_block(0, 1).unwrap(), vec![1]);
        std::fs::remove_dir_all(root).ok();
    }
}
