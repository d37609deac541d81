//! The durable, replicated metadata plane.
//!
//! The paper's erasure-coded data path survives disk loss, corruption,
//! and decay, but the seed architecture kept every [`FileMeta`] in one
//! in-memory map — a process crash lost the entire namespace. This
//! module is the durable trunk: the namespace is **hash-sharded** by
//! file-name key across [`MetaShard`]s, each shard is an append-only
//! **write-ahead log** of CRC32C-framed records replicated across R
//! devices with **majority-quorum** acknowledgement on commit, and
//! recovery replays the log (truncating torn tails), elects the
//! longest-prefix replica, and **read-repairs** the rest. Periodic
//! snapshot+compaction bounds replay time and log size; a chunked
//! durable file-id floor makes allocation crash-safe. See [`shard`] for
//! the quorum and recovery rules, [`wal`] for framing and replica
//! devices, [`record`] for the record codec.
//!
//! [`Metastore`] is the metadata server of §4.2: an open/commit/close
//! surface over the shards. The metadata chaos suite drives it side by
//! side with an in-memory reference server (test support, plain maps)
//! and requires identical results call for call. File locks are volatile
//! by design — recovery reclaims them all conservatively (a pre-crash
//! handle's commits are refused anyway) — and the disk registry is
//! volatile with logged usage hints.

pub mod record;
pub mod shard;
pub mod wal;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use crate::error::StoreError;
use crate::locks::LockTable;
use crate::metadata::{AccessMode, DiskInfo, FileMeta};

use record::MetaRecord;
pub use shard::{MetaShard, RecoveryReport};
pub use wal::{FileReplica, MemReplica, ReplicaStore};

/// File ids are made durable in chunks of this size: one `IdFloor`
/// record burns the next chunk, so a crash can never reissue an id
/// whose orphaned blocks may still sit on a backend disk.
pub const ID_CHUNK: u64 = 1024;

/// Configuration of the durable metadata plane.
#[derive(Debug, Clone, PartialEq)]
pub struct MetastoreConfig {
    /// Number of namespace shards (hash of the file name selects one).
    pub shards: usize,
    /// Replicas per shard; commits need a majority of acks.
    pub replicas: usize,
    /// Baseline records between snapshots; the effective trigger is
    /// `max(snapshot_every, shard image size)` so compaction amortises
    /// to O(1) per record at any namespace size. A shard also compacts
    /// once its log holds as many bytes as its last snapshot (at least
    /// 64 KiB), which bounds the log when records are large.
    pub snapshot_every: usize,
    /// Root directory for file-backed replicas
    /// (`<dir>/shard-<s>/replica-<r>/`). `None` keeps replicas in
    /// memory — still quorum-replicated and chaos-injectable, the
    /// default for tests and simulation.
    pub dir: Option<PathBuf>,
    /// Stale-lock lease length in epochs (see [`crate::locks`]).
    pub lock_lease_epochs: u64,
}

impl Default for MetastoreConfig {
    fn default() -> Self {
        MetastoreConfig {
            shards: 8,
            replicas: 3,
            snapshot_every: 1024,
            dir: None,
            lock_lease_epochs: crate::locks::DEFAULT_LOCK_LEASE_EPOCHS,
        }
    }
}

/// FNV-1a over the file name; stable across runs so a name always lands
/// on the same shard.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build every metadata shard over its replica set: opened under
/// `config.dir` when file-backed, else fresh handles onto the in-memory
/// devices `mems` (indexed `[shard][replica]`).
fn open_shards(
    config: &MetastoreConfig,
    mems: &[Vec<MemReplica>],
) -> Result<Vec<MetaShard>, StoreError> {
    (0..config.shards.max(1))
        .map(|s| {
            let stores: Vec<Arc<dyn ReplicaStore>> = match &config.dir {
                Some(dir) => (0..config.replicas.max(1))
                    .map(|r| {
                        let path = dir.join(format!("shard-{s}")).join(format!("replica-{r}"));
                        Ok(Arc::new(FileReplica::open(path)?) as Arc<dyn ReplicaStore>)
                    })
                    .collect::<Result<_, StoreError>>()?,
                None => mems[s]
                    .iter()
                    .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                    .collect(),
            };
            Ok(MetaShard::new(s, stores, config.snapshot_every))
        })
        .collect()
}

/// The durable metadata plane: sharded, WAL-backed, quorum-replicated.
pub struct Metastore {
    config: MetastoreConfig,
    shards: Vec<MetaShard>,
    /// Chaos handles onto the in-memory replica devices, indexed
    /// `[shard][replica]`. Empty when file-backed.
    mem_replicas: Vec<Vec<MemReplica>>,
    disks: Vec<DiskInfo>,
    locks: LockTable,
    /// Last issued file id (volatile cursor; the durable floor is ahead
    /// of it).
    next_file_id: u64,
    /// Ids `<= id_floor` are durably burned.
    id_floor: u64,
}

impl Metastore {
    /// Stand up the plane and run initial recovery (a boot over
    /// existing durable replicas loads their state; fresh replicas
    /// recover to empty).
    pub fn new(config: MetastoreConfig) -> Result<Self, StoreError> {
        let mem_replicas: Vec<Vec<MemReplica>> = match config.dir {
            Some(_) => Vec::new(),
            None => (0..config.shards.max(1))
                .map(|s| {
                    (0..config.replicas.max(1))
                        .map(|r| MemReplica::new(format!("shard-{s}/replica-{r}")))
                        .collect()
                })
                .collect(),
        };
        let shards = open_shards(&config, &mem_replicas)?;
        let mut locks = LockTable::new();
        locks.set_lease_epochs(config.lock_lease_epochs);
        let mut store = Metastore {
            config,
            shards,
            mem_replicas,
            disks: Vec::new(),
            locks,
            next_file_id: 0,
            id_floor: 0,
        };
        store.recover()?;
        Ok(store)
    }

    /// The configuration this plane was built with.
    pub fn config(&self) -> &MetastoreConfig {
        &self.config
    }

    /// Which shard owns `name`.
    pub fn shard_of(&self, name: &str) -> usize {
        (name_hash(name) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Replicas per shard.
    pub fn replica_count(&self) -> usize {
        self.config.replicas.max(1)
    }

    /// Chaos handle onto an in-memory replica device (`None` when
    /// file-backed or out of range). Tests use this to take replicas
    /// down, tear appends, and rot log tails.
    pub fn mem_replica(&self, shard: usize, replica: usize) -> Option<&MemReplica> {
        self.mem_replicas.get(shard)?.get(replica)
    }

    /// Register a storage server/disk. The registry is volatile —
    /// servers re-register when they join after a restart — but usage
    /// updates are logged as hints (see [`Metastore::update_disk`]).
    pub fn register_disk(&mut self, info: DiskInfo) {
        assert_eq!(info.id, self.disks.len(), "register disks in id order");
        self.disks.push(info);
    }

    /// Current disk registry snapshot.
    pub fn disks(&self) -> &[DiskInfo] {
        &self.disks
    }

    /// Update dynamic information for a disk. The registry update is
    /// authoritative; a `DiskUpdate` record is logged **best-effort**
    /// (spread across shards by disk id) so recovery can re-seed usage
    /// without a full backend survey — losing the hint must never fail
    /// a data write that already committed.
    pub fn update_disk(&mut self, id: usize, used_bytes: u64, load: f64) {
        let d = &mut self.disks[id];
        d.used_bytes = used_bytes;
        d.load = load.clamp(0.0, 1.0);
        let s = id % self.shards.len();
        let _ = self.shards[s].commit_record(MetaRecord::DiskUpdate {
            id,
            used_bytes,
            load: load.clamp(0.0, 1.0),
        });
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        let s = self.shard_of(name);
        self.shards[s].image().contains_key(name)
    }

    /// Acquire the lock for `mode` and return the file's metadata
    /// (`None` for a write to a new file). Stale locks from crashed
    /// holders are reclaimed (see [`crate::locks`]).
    pub fn open(&mut self, name: &str, mode: AccessMode) -> Result<Option<FileMeta>, StoreError> {
        let s = self.shard_of(name);
        if mode == AccessMode::Read && !self.shards[s].image().contains_key(name) {
            return Err(StoreError::NotFound(name.to_string()));
        }
        self.locks.acquire(name, mode)?;
        Ok(self.shards[s].image().get(name).cloned())
    }

    /// Release the lock taken by [`Metastore::open`].
    pub fn close(&mut self, name: &str, mode: AccessMode) {
        self.locks.release(name, mode);
    }

    /// Advance the stale-lock reclaim epoch.
    pub fn begin_lock_epoch(&mut self) -> u64 {
        self.locks.begin_epoch()
    }

    /// Locks reclaimed from presumed-crashed holders so far (recovery's
    /// conservative clear counts).
    pub fn locks_reclaimed(&self) -> u64 {
        self.locks.reclaimed()
    }

    /// Try to upgrade a sole-reader lock to the writer lock
    /// (read-repair's commit window).
    pub fn try_upgrade(&mut self, name: &str) -> bool {
        self.locks.try_upgrade(name)
    }

    /// Downgrade the writer lock back to a single reader.
    pub fn downgrade(&mut self, name: &str) {
        self.locks.downgrade(name)
    }

    /// Raise the durable id floor to at least `floor` (one `IdFloor`
    /// record on shard 0).
    fn ensure_id_floor(&mut self, floor: u64) -> Result<(), StoreError> {
        if floor <= self.id_floor {
            return Ok(());
        }
        self.shards[0].commit_record(MetaRecord::IdFloor(floor))?;
        self.id_floor = floor;
        Ok(())
    }

    /// Allocate a file id for a new file. Ids are burned durably in
    /// [`ID_CHUNK`]-sized chunks: at most one log record per chunk, and
    /// a crash-recovered plane resumes past the whole burned chunk —
    /// an id handed to a writer that crashed pre-commit is never
    /// reissued (its orphaned blocks can be swept, not collided with).
    pub fn allocate_file_id(&mut self) -> Result<u64, StoreError> {
        if self.next_file_id + 1 > self.id_floor {
            self.ensure_id_floor(self.next_file_id + ID_CHUNK)?;
        }
        self.next_file_id += 1;
        Ok(self.next_file_id)
    }

    /// Commit metadata after a write/update: requires the writer lock,
    /// then appends one atomic `Commit` record under quorum. On
    /// [`StoreError::MetaQuorumLost`] the namespace is unchanged and
    /// the caller's write is not committed.
    pub fn commit(&mut self, meta: FileMeta) -> Result<(), StoreError> {
        if !self.locks.holds_writer(&meta.name) {
            return Err(StoreError::StaleHandle);
        }
        let s = self.shard_of(&meta.name);
        self.shards[s].commit_record(MetaRecord::Commit(meta))
    }

    /// Remove a file (requires the writer lock); one `Remove` record
    /// under quorum.
    pub fn remove(&mut self, name: &str) -> Result<FileMeta, StoreError> {
        if !self.locks.holds_writer(name) {
            return Err(StoreError::StaleHandle);
        }
        let s = self.shard_of(name);
        let old = self.shards[s]
            .image()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        self.shards[s].commit_record(MetaRecord::Remove(name.to_string()))?;
        Ok(old)
    }

    /// Look up without locking (status queries).
    pub fn stat(&self, name: &str) -> Option<&FileMeta> {
        let s = self.shard_of(name);
        self.shards[s].image().get(name)
    }

    /// All known file names, sorted (directory listing across shards).
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.image().keys().cloned())
            .collect();
        names.sort();
        names
    }

    /// Bootstrap: commit metadata restored from outside the plane,
    /// bypassing locks, and keep the durable id floor ahead of the
    /// restored id. The product's one caller is the CLI's one-shot import
    /// of legacy sidecar files (through [`crate::System::import_meta`]);
    /// tests and benchmarks use it to seed an image.
    pub fn restore(&mut self, meta: FileMeta) -> Result<(), StoreError> {
        self.next_file_id = self.next_file_id.max(meta.file_id);
        if meta.file_id > self.id_floor {
            self.ensure_id_floor(meta.file_id + ID_CHUNK)?;
        }
        let s = self.shard_of(&meta.name);
        self.shards[s].commit_record(MetaRecord::Commit(meta))
    }

    /// Rebuild every shard from its replicas: replay logs (torn tails
    /// truncated), elect winners, read-repair laggards; clear all locks
    /// conservatively and resume id allocation past the durable floor.
    /// This is both the boot path and the crash-recovery path — callers
    /// simulate a crash by discarding the in-memory plane and calling
    /// this on a fresh one over the same replicas.
    pub fn recover(&mut self) -> Result<Vec<RecoveryReport>, StoreError> {
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            reports.push(shard.recover()?);
        }
        self.locks.clear();
        // Resume allocation past the durable floor, and past any
        // restored id the floor might predate (belt and braces).
        let max_file_id = self
            .shards
            .iter()
            .flat_map(|s| s.image().values().map(|m| m.file_id))
            .max()
            .unwrap_or(0);
        self.id_floor = self.shards.iter().map(|s| s.id_floor()).max().unwrap_or(0);
        self.next_file_id = self.id_floor.max(max_file_id);
        // Re-seed the volatile disk registry from logged hints.
        let mut hints: HashMap<usize, (u64, f64)> = HashMap::new();
        for shard in &self.shards {
            for (&id, &hint) in shard.disk_updates() {
                hints.insert(id, hint);
            }
        }
        for d in &mut self.disks {
            if let Some(&(used, load)) = hints.get(&d.id) {
                d.used_bytes = used;
                d.load = load.clamp(0.0, 1.0);
            }
        }
        Ok(reports)
    }

    /// Simulate a process crash: drop every piece of volatile state
    /// (images, locks, id cursor) and recover from the replicas alone.
    /// Returns the per-shard recovery reports.
    pub fn crash_and_recover(&mut self) -> Result<Vec<RecoveryReport>, StoreError> {
        self.shards = open_shards(&self.config, &self.mem_replicas)?;
        self.next_file_id = 0;
        self.id_floor = 0;
        self.recover()
    }

    /// Total files across all shard images.
    pub fn file_count(&self) -> usize {
        self.shards.iter().map(|s| s.image().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use robustore_erasure::LtParams;

    use super::*;
    use crate::metadata::CodingSpec;

    fn meta(name: &str, file_id: u64, version: u64) -> FileMeta {
        FileMeta {
            name: name.into(),
            file_id,
            size_bytes: 4096,
            coding: CodingSpec {
                k: 4,
                n: 12,
                block_bytes: 1024,
                params: LtParams::default(),
                seed: 7,
            },
            layout: vec![(0, vec![0, 1, 2])],
            odd_keys: BTreeSet::new(),
            checksums: BTreeMap::new(),
            owner: 1,
            version,
        }
    }

    fn small() -> Metastore {
        Metastore::new(MetastoreConfig {
            shards: 4,
            replicas: 3,
            snapshot_every: 64,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn lifecycle_mirrors_memory_plane() {
        let mut m = small();
        assert!(m.open("f", AccessMode::Write).unwrap().is_none());
        let id = m.allocate_file_id().unwrap();
        m.commit(meta("f", id, 1)).unwrap();
        m.close("f", AccessMode::Write);
        let got = m.open("f", AccessMode::Read).unwrap().unwrap();
        assert_eq!(got.file_id, id);
        m.close("f", AccessMode::Read);
        assert_eq!(m.list(), vec!["f".to_string()]);
        assert!(m.exists("f"));
        assert_eq!(m.stat("f").unwrap().version, 1);
    }

    #[test]
    fn commit_requires_writer_lock() {
        let mut m = small();
        assert!(matches!(
            m.commit(meta("f", 1, 1)),
            Err(StoreError::StaleHandle)
        ));
    }

    #[test]
    fn namespace_survives_crash() {
        let mut m = small();
        for i in 0..50u64 {
            let name = format!("file-{i}");
            m.open(&name, AccessMode::Write).unwrap();
            let id = m.allocate_file_id().unwrap();
            m.commit(meta(&name, id, 1)).unwrap();
            m.close(&name, AccessMode::Write);
        }
        let before = m.list();
        let reports = m.crash_and_recover().unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(m.list(), before, "zero files lost across the crash");
    }

    #[test]
    fn ids_never_reissued_across_crash() {
        let mut m = small();
        m.open("f", AccessMode::Write).unwrap();
        let id = m.allocate_file_id().unwrap();
        m.commit(meta("f", id, 1)).unwrap();
        // Crash with the lock held and more ids handed out but
        // uncommitted.
        let orphan1 = m.allocate_file_id().unwrap();
        let orphan2 = m.allocate_file_id().unwrap();
        m.crash_and_recover().unwrap();
        // Lock was reclaimed conservatively.
        m.open("f", AccessMode::Write).unwrap();
        let fresh = m.allocate_file_id().unwrap();
        assert!(
            fresh > orphan1 && fresh > orphan2,
            "burned ids {orphan1},{orphan2} must not be reissued (got {fresh})"
        );
    }

    #[test]
    fn locks_cleared_on_recovery() {
        let mut m = small();
        m.open("wedged", AccessMode::Write).unwrap();
        m.crash_and_recover().unwrap();
        assert!(m.locks_reclaimed() >= 1);
        m.open("wedged", AccessMode::Write).unwrap();
    }

    #[test]
    fn quorum_loss_fails_commit_without_corruption() {
        let mut m = small();
        m.open("f", AccessMode::Write).unwrap();
        let id = m.allocate_file_id().unwrap();
        let shard = m.shard_of("f");
        // Take a majority of the owning shard's replicas down.
        m.mem_replica(shard, 0).unwrap().set_down(true);
        m.mem_replica(shard, 1).unwrap().set_down(true);
        assert!(matches!(
            m.commit(meta("f", id, 1)),
            Err(StoreError::MetaQuorumLost { .. })
        ));
        assert!(!m.exists("f"));
        // Revive and retry: the plane heals.
        m.mem_replica(shard, 0).unwrap().set_down(false);
        m.mem_replica(shard, 1).unwrap().set_down(false);
        m.commit(meta("f", id, 1)).unwrap();
        assert!(m.exists("f"));
    }

    #[test]
    fn disk_hints_reseed_registry_after_crash() {
        let mut m = small();
        m.register_disk(DiskInfo {
            id: 0,
            capacity_bytes: 1 << 30,
            used_bytes: 0,
            expected_bandwidth: 10e6,
            load: 0.0,
            availability: 0.99,
        });
        m.update_disk(0, 12_345, 0.5);
        m.crash_and_recover().unwrap();
        // Registry is volatile: the system re-registers disks at boot;
        // here the same object still has them, and the logged hint
        // restores usage.
        assert_eq!(m.disks()[0].used_bytes, 12_345);
        assert!((m.disks()[0].load - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sharding_is_stable_and_spread() {
        let m = small();
        let mut used = BTreeSet::new();
        for i in 0..64 {
            let name = format!("file-{i}");
            let s = m.shard_of(&name);
            assert_eq!(s, m.shard_of(&name), "stable");
            used.insert(s);
        }
        assert!(used.len() >= 3, "64 names should touch most of 4 shards");
    }

    #[test]
    fn file_backed_plane_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "rbst-metastore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = MetastoreConfig {
            shards: 2,
            replicas: 3,
            snapshot_every: 8,
            dir: Some(dir.clone()),
            ..Default::default()
        };
        {
            let mut m = Metastore::new(config.clone()).unwrap();
            for i in 0..20u64 {
                let name = format!("durable-{i}");
                m.open(&name, AccessMode::Write).unwrap();
                let id = m.allocate_file_id().unwrap();
                m.commit(meta(&name, id, 1)).unwrap();
                m.close(&name, AccessMode::Write);
            }
            // Process "crashes" here: no clean shutdown.
        }
        let m = Metastore::new(config).unwrap();
        assert_eq!(m.file_count(), 20, "namespace survived process restart");
        assert!(m.exists("durable-19"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
