//! One metadata shard: a replicated, snapshotting, crash-recoverable
//! log of [`MetaRecord`]s and the namespace image it materialises.
//!
//! ## Quorum rules
//!
//! A shard owns `R` replicas and requires `⌈(R+1)/2⌉` acknowledged
//! appends for a commit to succeed. On fewer acks the in-memory image
//! is left untouched and the caller gets
//! [`StoreError::MetaQuorumLost`] — the write did *not* happen. The
//! LSN of the failed attempt is burned (never reissued), because a
//! minority of replicas may have durably persisted the record; reusing
//! the LSN for a different record would let two distinct records claim
//! the same slot. A burned record on a surviving minority replica can
//! resurface as committed at the next recovery if that replica wins the
//! election — exactly the semantics of a write that was in flight at
//! the crash, and the caller was told it failed *to reach quorum*, not
//! that it was annihilated.
//!
//! ## Recovery invariants
//!
//! [`MetaShard::recover`] requires a majority of replicas readable.
//! Per replica it loads the snapshot (if any), replays the log's clean
//! prefix (stopping at the first torn/corrupt frame — WAL framing), and
//! skips records already folded into the snapshot (LSN-gated idempotent
//! replay). The replica with the highest `(applied_lsn, record_count)`
//! wins; its state becomes the shard image, and every readable replica
//! is read-repaired to it (snapshot install + log truncate), which also
//! discards torn tails. Because every record is complete — a `Commit`
//! carries the file's entire new metadata — any replayed prefix is a
//! consistent namespace: each file wholly pre- or wholly post- any
//! given commit, never torn.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::error::StoreError;
use crate::metadata::FileMeta;

use super::record::{decode_record, decode_snapshot, encode_record, encode_snapshot, MetaRecord};
use super::wal::{frame, scan_frames, ReplicaStore};

/// A shard compacts once its log holds this many bytes, or as many as
/// its last snapshot if that is larger.
const LOG_BYTES_FLOOR: usize = 64 << 10;

/// What one shard recovery did (surfaced in chaos tests and
/// `xp metadata` output).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Shard index.
    pub shard: usize,
    /// Replicas that were readable.
    pub replicas_available: usize,
    /// Replicas whose state diverged from the winner and were repaired.
    pub replicas_repaired: usize,
    /// Bytes of torn/corrupt log tail discarded across replicas.
    pub torn_bytes_dropped: u64,
    /// Log records replayed on the winning replica (post-snapshot).
    pub records_replayed: usize,
    /// The shard's LSN after recovery.
    pub applied_lsn: u64,
    /// Files in the shard image after recovery.
    pub files: usize,
}

/// Per-replica state reconstructed during recovery.
struct Candidate {
    files: HashMap<String, FileMeta>,
    disk_updates: BTreeMap<usize, (u64, f64)>,
    applied_lsn: u64,
    id_floor: u64,
    records: usize,
    /// Bytes of log tail that failed framing or decoding.
    torn_bytes: u64,
}

/// A metadata shard.
pub struct MetaShard {
    id: usize,
    replicas: Vec<Arc<dyn ReplicaStore>>,
    quorum: usize,
    image: HashMap<String, FileMeta>,
    /// Latest disk-update record per disk id (volatile hint; see
    /// [`MetaShard::disk_updates`]).
    disk_updates: BTreeMap<usize, (u64, f64)>,
    /// LSN of the last *attempted* record (applied or burned).
    next_lsn: u64,
    /// Highest id floor this shard has logged/replayed.
    id_floor: u64,
    records_since_snapshot: usize,
    /// Framed bytes appended to the log since the last snapshot.
    log_bytes: usize,
    /// Size of the last snapshot installed (0 before the first).
    snapshot_bytes: usize,
    snapshot_every: usize,
}

impl MetaShard {
    /// A fresh shard over `replicas` (majority quorum).
    pub fn new(id: usize, replicas: Vec<Arc<dyn ReplicaStore>>, snapshot_every: usize) -> Self {
        assert!(!replicas.is_empty(), "shard needs at least one replica");
        let quorum = replicas.len() / 2 + 1;
        MetaShard {
            id,
            replicas,
            quorum,
            image: HashMap::new(),
            disk_updates: BTreeMap::new(),
            next_lsn: 0,
            id_floor: 0,
            records_since_snapshot: 0,
            log_bytes: 0,
            snapshot_bytes: 0,
            snapshot_every: snapshot_every.max(1),
        }
    }

    /// Shard index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Acks required for a commit.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// The materialised namespace image (hash-ordered: point lookups
    /// stay O(1) with one or two cache misses however large the
    /// namespace grows; listings sort at the caller).
    pub fn image(&self) -> &HashMap<String, FileMeta> {
        &self.image
    }

    /// Highest durable file-id floor seen by this shard.
    pub fn id_floor(&self) -> u64 {
        self.id_floor
    }

    /// Latest `(used_bytes, load)` per disk id from replayed
    /// disk-update records — a best-effort hint for re-seeding the
    /// volatile disk registry after recovery.
    pub fn disk_updates(&self) -> &BTreeMap<usize, (u64, f64)> {
        &self.disk_updates
    }

    fn apply(
        image: &mut HashMap<String, FileMeta>,
        disk_updates: &mut BTreeMap<usize, (u64, f64)>,
        id_floor: &mut u64,
        rec: MetaRecord,
    ) {
        match rec {
            MetaRecord::Commit(meta) => {
                image.insert(meta.name.clone(), meta);
            }
            MetaRecord::Remove(name) => {
                image.remove(&name);
            }
            MetaRecord::DiskUpdate {
                id,
                used_bytes,
                load,
            } => {
                disk_updates.insert(id, (used_bytes, load));
            }
            MetaRecord::IdFloor(floor) => {
                *id_floor = (*id_floor).max(floor);
            }
        }
    }

    /// Durably commit `rec`: append the framed record to every replica,
    /// require majority acks, then apply it to the image. On quorum
    /// loss the image is unchanged and the LSN burned (see module docs).
    pub fn commit_record(&mut self, rec: MetaRecord) -> Result<(), StoreError> {
        let lsn = self.next_lsn + 1;
        self.next_lsn = lsn;
        let bytes = frame(&encode_record(lsn, &rec));
        let mut acks = 0usize;
        for r in &self.replicas {
            if r.append_log(&bytes).is_ok() {
                acks += 1;
            }
        }
        if acks < self.quorum {
            return Err(StoreError::MetaQuorumLost {
                shard: self.id,
                acks,
                need: self.quorum,
            });
        }
        Self::apply(
            &mut self.image,
            &mut self.disk_updates,
            &mut self.id_floor,
            rec,
        );
        self.records_since_snapshot += 1;
        self.log_bytes += bytes.len();
        self.maybe_compact();
        Ok(())
    }

    /// Snapshot + truncate when the log has outgrown the image, counted
    /// two ways. In records, after `max(snapshot_every, image_size)`: at
    /// small namespaces it compacts every `snapshot_every` records, at
    /// large ones the snapshot cost (O(image)) amortises to O(1) per
    /// record — per-op latency stays flat as the file count grows. In
    /// bytes, once the log holds `max(LOG_BYTES_FLOOR, last snapshot)`:
    /// the same amortisation per byte, and a bound on each replica's log
    /// when records are large. A 768-block file's record is ~9 KiB, so
    /// counting records alone let every replica's log grow to ~10 MiB
    /// between snapshots, reallocating as it doubled in the committing
    /// thread's heap — churn that pushed a reader's large result buffers
    /// onto fresh pages mid-run.
    fn maybe_compact(&mut self) {
        let records = self.records_since_snapshot >= self.snapshot_every.max(self.image.len());
        let bytes = self.log_bytes >= LOG_BYTES_FLOOR.max(self.snapshot_bytes);
        if records || bytes {
            self.compact();
        }
    }

    /// Force a snapshot+truncate on every reachable replica. A replica
    /// that fails mid-compaction keeps its old snapshot and log —
    /// replay is LSN-gated, so an already-snapshotted record lingering
    /// in a log is skipped, never double-applied.
    pub fn compact(&mut self) {
        let snap = Arc::new(encode_snapshot(self.next_lsn, self.id_floor, &self.image));
        for r in &self.replicas {
            if r.install_snapshot(snap.clone()).is_ok() {
                let _ = r.truncate_log(0);
            }
        }
        self.records_since_snapshot = 0;
        self.log_bytes = 0;
        self.snapshot_bytes = snap.len();
    }

    /// Reconstruct one replica's state. `None` if the replica is
    /// unreadable (down).
    fn read_candidate(&self, replica: &Arc<dyn ReplicaStore>) -> Option<Candidate> {
        let snap_bytes = replica.read_snapshot().ok()?;
        let log = replica.read_log().ok()?;
        let mut files = HashMap::new();
        let mut disk_updates = BTreeMap::new();
        let mut applied_lsn = 0u64;
        let mut id_floor = 0u64;
        // A malformed snapshot (torn install on a crashed pre-rename
        // filesystem, chaos corruption) is treated as absent: the log
        // may still be complete, and read-repair will reinstall.
        if let Some((lsn, floor, metas)) = snap_bytes.as_deref().and_then(|b| decode_snapshot(b)) {
            applied_lsn = lsn;
            id_floor = floor;
            for m in metas {
                files.insert(m.name.clone(), m);
            }
        }
        let (payloads, clean_prefix) = scan_frames(&log);
        let mut torn_bytes = (log.len() - clean_prefix) as u64;
        let mut records = 0usize;
        for payload in payloads {
            let Some((lsn, rec)) = decode_record(payload) else {
                // Framing passed but the payload is malformed: treat as
                // the start of a bad tail and stop, like a torn frame.
                torn_bytes += (super::wal::FRAME_HEADER + payload.len()) as u64;
                break;
            };
            if lsn <= applied_lsn {
                continue; // already folded into the snapshot
            }
            Self::apply(&mut files, &mut disk_updates, &mut id_floor, rec);
            applied_lsn = lsn;
            records += 1;
        }
        Some(Candidate {
            files,
            disk_updates,
            applied_lsn,
            id_floor,
            records,
            torn_bytes,
        })
    }

    /// Rebuild the shard image from its replicas after a crash (or on
    /// first boot over durable replicas). Requires a readable majority;
    /// see the module docs for the election and read-repair rules.
    pub fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        let candidates: Vec<(usize, Option<Candidate>)> = self
            .replicas
            .iter()
            .map(|r| self.read_candidate(r))
            .enumerate()
            .collect();
        let available = candidates.iter().filter(|(_, c)| c.is_some()).count();
        if available < self.quorum {
            return Err(StoreError::MetaQuorumLost {
                shard: self.id,
                acks: available,
                need: self.quorum,
            });
        }
        // Election: highest (applied_lsn, record_count), lowest index
        // breaking ties — deterministic across recoveries.
        let winner_idx = candidates
            .iter()
            .filter_map(|(i, c)| c.as_ref().map(|c| (c.applied_lsn, c.records, *i)))
            .max_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.cmp(&a.2)))
            .map(|(_, _, i)| i)
            .expect("available >= quorum >= 1");
        let torn_bytes_dropped: u64 = candidates
            .iter()
            .filter_map(|(_, c)| c.as_ref().map(|c| c.torn_bytes))
            .sum();
        let mut repaired = 0usize;
        let winner = candidates
            .into_iter()
            .find_map(|(i, c)| (i == winner_idx).then_some(c).flatten())
            .expect("winner candidate present");

        self.image = winner.files;
        self.disk_updates = winner.disk_updates;
        self.next_lsn = winner.applied_lsn;
        self.id_floor = winner.id_floor;
        self.records_since_snapshot = 0;
        self.log_bytes = 0;

        // Read-repair: install the winner state everywhere reachable
        // and drop every log — laggards converge, torn tails vanish.
        let snap = Arc::new(encode_snapshot(self.next_lsn, self.id_floor, &self.image));
        self.snapshot_bytes = snap.len();
        for (i, r) in self.replicas.iter().enumerate() {
            if r.install_snapshot(snap.clone()).is_ok() {
                let _ = r.truncate_log(0);
                if i != winner_idx {
                    repaired += 1;
                }
            }
        }

        Ok(RecoveryReport {
            shard: self.id,
            replicas_available: available,
            replicas_repaired: repaired,
            torn_bytes_dropped,
            records_replayed: winner.records,
            applied_lsn: self.next_lsn,
            files: self.image.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use robustore_erasure::LtParams;

    use super::super::wal::MemReplica;
    use super::*;
    use crate::metadata::CodingSpec;

    fn meta(name: &str, version: u64) -> FileMeta {
        FileMeta {
            name: name.into(),
            file_id: 1,
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

    fn shard_with(n: usize, snapshot_every: usize) -> (MetaShard, Vec<MemReplica>) {
        let mems: Vec<MemReplica> = (0..n).map(|i| MemReplica::new(format!("r{i}"))).collect();
        let replicas: Vec<Arc<dyn ReplicaStore>> = mems
            .iter()
            .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
            .collect();
        (MetaShard::new(0, replicas, snapshot_every), mems)
    }

    #[test]
    fn commit_survives_minority_down() {
        let (mut s, mems) = shard_with(3, 1024);
        mems[2].set_down(true);
        s.commit_record(MetaRecord::Commit(meta("f", 1))).unwrap();
        assert_eq!(s.image().len(), 1);
    }

    #[test]
    fn commit_fails_on_majority_down_and_image_unchanged() {
        let (mut s, mems) = shard_with(3, 1024);
        mems[1].set_down(true);
        mems[2].set_down(true);
        let err = s
            .commit_record(MetaRecord::Commit(meta("f", 1)))
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::MetaQuorumLost {
                acks: 1,
                need: 2,
                ..
            }
        ));
        assert!(s.image().is_empty());
        // The burned LSN is never reissued: revive the cluster and
        // commit — recovery must not confuse the two records.
        mems[1].set_down(false);
        mems[2].set_down(false);
        s.commit_record(MetaRecord::Commit(meta("g", 1))).unwrap();
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        let report = fresh.recover().unwrap();
        // Replica 0 holds both the burned record (lsn 1) and the real
        // one (lsn 2) and wins the election: the burned record
        // resurfaces as committed — documented in-flight-write
        // semantics, and the namespace is consistent.
        assert_eq!(report.applied_lsn, 2);
        assert!(fresh.image().contains_key("g"));
    }

    #[test]
    fn recovery_replays_and_truncates_torn_tail() {
        let (mut s, mems) = shard_with(3, 1024);
        for v in 1..=5 {
            s.commit_record(MetaRecord::Commit(meta("f", v))).unwrap();
        }
        // Corrupt one replica's tail: its candidate stops early.
        mems[0].corrupt_tail(4);
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        let report = fresh.recover().unwrap();
        assert_eq!(report.replicas_available, 3);
        assert!(report.torn_bytes_dropped >= 4);
        assert_eq!(fresh.image()["f"].version, 5, "healthy replicas win");
        // All replicas converged: recover again, nothing torn.
        let mut again = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        let r2 = again.recover().unwrap();
        assert_eq!(r2.torn_bytes_dropped, 0);
        assert_eq!(again.image()["f"].version, 5);
    }

    #[test]
    fn snapshot_bounds_replay() {
        let (mut s, mems) = shard_with(3, 4);
        for v in 1..=20 {
            s.commit_record(MetaRecord::Commit(meta("f", v))).unwrap();
        }
        // Logs have been truncated by compaction: recovery replays only
        // the post-snapshot suffix.
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            4,
        );
        let report = fresh.recover().unwrap();
        assert!(report.records_replayed < 20, "snapshot folded the bulk");
        assert_eq!(fresh.image()["f"].version, 20);
        assert_eq!(report.applied_lsn, 20);
    }

    #[test]
    fn large_records_compact_by_log_bytes() {
        // 1024 ids with digests: one record is ~9 KiB, so counting
        // records alone would let the log reach ~9 MiB between snapshots.
        let (mut s, mems) = shard_with(3, 1024);
        let mut big = meta("f", 1);
        big.layout = vec![(0, (0..1024).collect())];
        big.checksums = (0..1024).map(|id| (id, id)).collect();
        for v in 1..=64 {
            big.version = v;
            s.commit_record(MetaRecord::Commit(big.clone())).unwrap();
        }
        for m in &mems {
            assert!(
                m.log_len() < 2 * LOG_BYTES_FLOOR,
                "log {} bytes",
                m.log_len()
            );
        }
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        fresh.recover().unwrap();
        assert_eq!(fresh.image()["f"].version, 64);
    }

    #[test]
    fn recovery_requires_majority() {
        let (mut s, mems) = shard_with(3, 1024);
        s.commit_record(MetaRecord::Commit(meta("f", 1))).unwrap();
        mems[0].set_down(true);
        mems[1].set_down(true);
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        assert!(matches!(
            fresh.recover(),
            Err(StoreError::MetaQuorumLost {
                acks: 1,
                need: 2,
                ..
            })
        ));
    }

    #[test]
    fn minority_loss_loses_nothing() {
        let (mut s, mems) = shard_with(3, 8);
        for v in 1..=50 {
            s.commit_record(MetaRecord::Commit(meta(&format!("f{}", v % 7), v)))
                .unwrap();
        }
        let mut expect: Vec<String> = s.image().keys().cloned().collect();
        expect.sort();
        mems[1].set_down(true);
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            8,
        );
        let report = fresh.recover().unwrap();
        assert_eq!(report.replicas_available, 2);
        let mut got: Vec<String> = fresh.image().keys().cloned().collect();
        got.sort();
        assert_eq!(got, expect, "zero files lost with a minority down");
    }

    #[test]
    fn id_floor_survives_recovery() {
        let (mut s, mems) = shard_with(3, 1024);
        s.commit_record(MetaRecord::IdFloor(2048)).unwrap();
        s.commit_record(MetaRecord::Commit(meta("f", 1))).unwrap();
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        fresh.recover().unwrap();
        assert_eq!(fresh.id_floor(), 2048);
    }

    #[test]
    fn torn_append_mid_commit_is_pre_or_post_never_torn() {
        let (mut s, mems) = shard_with(3, 1024);
        s.commit_record(MetaRecord::Commit(meta("f", 1))).unwrap();
        // The next append to replica 0 tears mid-frame (crash while
        // writing); the other two replicas ack, so the commit succeeds.
        mems[0].arm_torn_append(5);
        s.commit_record(MetaRecord::Commit(meta("f", 2))).unwrap();
        let mut fresh = MetaShard::new(
            0,
            mems.iter()
                .map(|m| Arc::new(m.clone()) as Arc<dyn ReplicaStore>)
                .collect(),
            1024,
        );
        let report = fresh.recover().unwrap();
        assert!(report.torn_bytes_dropped > 0);
        // Quorum acked → the commit is durable: post-state, version 2.
        assert_eq!(fresh.image()["f"].version, 2);
    }
}
