//! CRC32C-framed write-ahead log and the replica storage devices.
//!
//! The log is a byte stream of frames: `[len: u32 LE][crc: u32 LE]
//! [payload: len bytes]`, where `crc = crc32c(payload)`. A frame is
//! valid only if the whole header fits, the whole payload fits, and the
//! checksum matches — so a crash mid-append (a *torn* frame) or bit rot
//! in the tail makes the frame invalid, and [`scan_frames`] stops at the
//! first bad frame, returning the clean prefix. Everything after that
//! point is discarded by recovery: an unframed record never committed.
//!
//! Replicas are abstracted behind [`ReplicaStore`] so the same shard
//! logic runs over in-memory devices (fast; the chaos substrate's
//! favourite victim) and real files (crash durability across process
//! restarts). Each replica holds one log blob and at most one snapshot
//! blob.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::StoreError;
use crate::integrity::crc32c;

/// Frame header size: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// Wrap `payload` in a `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Walk `log`, yielding each valid frame's payload. Stops at the first
/// frame whose header is short, whose payload is short, or whose CRC
/// mismatches. Returns the payloads of the clean prefix and the byte
/// length of that prefix (the truncation point for read-repair).
pub fn scan_frames(log: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER <= log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(log[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + FRAME_HEADER;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > log.len() {
            break;
        }
        let payload = &log[start..end];
        if crc32c(payload) != crc {
            break;
        }
        payloads.push(payload);
        pos = end;
    }
    (payloads, pos)
}

/// One replica's durable storage: an append-only log blob plus at most
/// one snapshot blob. Implementations must make `append_log` atomic
/// with respect to `read_log` (no torn concurrent reads), but need not
/// make it atomic with respect to crashes — torn tails are the WAL
/// framing's job to detect.
pub trait ReplicaStore: Send + Sync {
    /// Append `bytes` to the log. Errors if the replica is down.
    fn append_log(&self, bytes: &[u8]) -> Result<(), StoreError>;
    /// The full log contents.
    fn read_log(&self) -> Result<Vec<u8>, StoreError>;
    /// Truncate the log to `len` bytes (read-repair discarding a torn
    /// or divergent tail).
    fn truncate_log(&self, len: usize) -> Result<(), StoreError>;
    /// The current snapshot blob, if one has been installed.
    fn read_snapshot(&self) -> Result<Option<Arc<Vec<u8>>>, StoreError>;
    /// Atomically replace the snapshot blob. The blob arrives shared so
    /// an in-memory replica can retain it without copying — compaction
    /// encodes one snapshot and hands the same buffer to every replica.
    fn install_snapshot(&self, bytes: Arc<Vec<u8>>) -> Result<(), StoreError>;
    /// Human-readable identity for diagnostics.
    fn describe(&self) -> String;
}

/// In-memory replica device with chaos hooks: it can be marked down
/// (every call errors), armed to tear the *next* append (keep a random
/// prefix of the frame — the classic crash-mid-write), or have its
/// current log tail corrupted in place (bit rot).
#[derive(Clone)]
pub struct MemReplica {
    inner: Arc<Mutex<MemReplicaState>>,
    name: String,
}

struct MemReplicaState {
    log: Vec<u8>,
    snapshot: Option<Arc<Vec<u8>>>,
    down: bool,
    /// If set, the next append keeps only this many bytes of the frame.
    torn_next: Option<usize>,
}

impl MemReplica {
    /// A fresh, empty, healthy replica.
    pub fn new(name: impl Into<String>) -> Self {
        MemReplica {
            inner: Arc::new(Mutex::new(MemReplicaState {
                log: Vec::new(),
                snapshot: None,
                down: false,
                torn_next: None,
            })),
            name: name.into(),
        }
    }

    /// Mark the replica down (`true`) or back up (`false`). Down
    /// replicas fail every operation; their state is preserved and
    /// becomes visible again on revival — the "lost minority rejoins"
    /// scenario.
    pub fn set_down(&self, down: bool) {
        self.inner.lock().down = down;
    }

    /// Whether the replica is currently down.
    pub fn is_down(&self) -> bool {
        self.inner.lock().down
    }

    /// Arm a torn append: the next `append_log` persists only `keep`
    /// bytes of the frame (then reports failure, as a crashed writer
    /// would have).
    pub fn arm_torn_append(&self, keep: usize) {
        self.inner.lock().torn_next = Some(keep);
    }

    /// Corrupt `n` bytes at the current end of the log by flipping bits
    /// (seeded bit rot in the tail). No-op on an empty log.
    pub fn corrupt_tail(&self, n: usize) {
        let mut s = self.inner.lock();
        let len = s.log.len();
        let start = len.saturating_sub(n.max(1));
        for b in &mut s.log[start..len] {
            *b ^= 0xA5;
        }
    }

    /// Current log length in bytes (test observability).
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }
}

impl ReplicaStore for MemReplica {
    fn append_log(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut s = self.inner.lock();
        if s.down {
            return Err(StoreError::MetaReplicaDown(self.name.clone()));
        }
        if let Some(keep) = s.torn_next.take() {
            let keep = keep.min(bytes.len());
            s.log.extend_from_slice(&bytes[..keep]);
            return Err(StoreError::MetaReplicaDown(format!(
                "{} (torn append)",
                self.name
            )));
        }
        s.log.extend_from_slice(bytes);
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>, StoreError> {
        let s = self.inner.lock();
        if s.down {
            return Err(StoreError::MetaReplicaDown(self.name.clone()));
        }
        Ok(s.log.clone())
    }

    fn truncate_log(&self, len: usize) -> Result<(), StoreError> {
        let mut s = self.inner.lock();
        if s.down {
            return Err(StoreError::MetaReplicaDown(self.name.clone()));
        }
        s.log.truncate(len);
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Arc<Vec<u8>>>, StoreError> {
        let s = self.inner.lock();
        if s.down {
            return Err(StoreError::MetaReplicaDown(self.name.clone()));
        }
        Ok(s.snapshot.clone())
    }

    fn install_snapshot(&self, bytes: Arc<Vec<u8>>) -> Result<(), StoreError> {
        let mut s = self.inner.lock();
        if s.down {
            return Err(StoreError::MetaReplicaDown(self.name.clone()));
        }
        s.snapshot = Some(bytes);
        Ok(())
    }

    fn describe(&self) -> String {
        self.name.clone()
    }
}

/// File-backed replica: `<dir>/wal.log` (append) and `<dir>/snap.bin`
/// (installed via write-to-temp + rename, so a crash mid-install leaves
/// the old snapshot intact). Every mutation is synced before it returns,
/// directory entries included.
pub struct FileReplica {
    dir: PathBuf,
    /// Serialises appends/truncates against concurrent readers.
    guard: Mutex<()>,
}

impl FileReplica {
    /// Open (creating the directory if needed) a replica rooted at `dir`.
    pub fn open(dir: PathBuf) -> Result<Self, StoreError> {
        fs::create_dir_all(&dir).map_err(|e| StoreError::Io(format!("{}: {e}", dir.display())))?;
        Ok(FileReplica {
            dir,
            guard: Mutex::new(()),
        })
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn snap_path(&self) -> PathBuf {
        self.dir.join("snap.bin")
    }

    /// Make the directory's entries durable: a file created or renamed
    /// into it survives power loss only once the directory is synced.
    fn sync_dir(&self) -> Result<(), StoreError> {
        fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| StoreError::Io(format!("{}: {e}", self.dir.display())))
    }
}

impl ReplicaStore for FileReplica {
    fn append_log(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let _g = self.guard.lock();
        let created = !self.log_path().exists();
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path())
            .map_err(|e| StoreError::Io(e.to_string()))?;
        f.write_all(bytes)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        f.sync_data().map_err(|e| StoreError::Io(e.to_string()))?;
        if created {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>, StoreError> {
        let _g = self.guard.lock();
        match fs::File::open(self.log_path()) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)
                    .map_err(|e| StoreError::Io(e.to_string()))?;
                Ok(buf)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn truncate_log(&self, len: usize) -> Result<(), StoreError> {
        let _g = self.guard.lock();
        match fs::OpenOptions::new().write(true).open(self.log_path()) {
            Ok(f) => {
                f.set_len(len as u64)
                    .map_err(|e| StoreError::Io(e.to_string()))?;
                f.sync_data().map_err(|e| StoreError::Io(e.to_string()))?;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && len == 0 => Ok(()),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn read_snapshot(&self) -> Result<Option<Arc<Vec<u8>>>, StoreError> {
        let _g = self.guard.lock();
        match fs::read(self.snap_path()) {
            Ok(buf) => Ok(Some(Arc::new(buf))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    /// The bytes reach the disk before the rename, and the rename before
    /// this returns. Recovery installs a snapshot and then truncates the
    /// log it covers (a synced truncation), so a snapshot still in the page
    /// cache when power fails would leave the truncated log behind with
    /// neither the old snapshot nor the new one. Killing the process cannot
    /// show this: the page cache outlives it, which is why process-kill
    /// tests pass either way.
    fn install_snapshot(&self, bytes: Arc<Vec<u8>>) -> Result<(), StoreError> {
        let _g = self.guard.lock();
        let tmp = self.dir.join("snap.tmp");
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes.as_slice()).map_err(io)?;
        f.sync_all().map_err(io)?;
        fs::rename(&tmp, self.snap_path()).map_err(io)?;
        self.sync_dir()
    }

    fn describe(&self) -> String {
        self.dir.display().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_stops_at_torn_frame() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(b"one"));
        log.extend_from_slice(&frame(b"two"));
        let clean_len = log.len();
        let torn = frame(b"three");
        log.extend_from_slice(&torn[..torn.len() - 2]);
        let (payloads, prefix) = scan_frames(&log);
        assert_eq!(payloads, vec![b"one".as_slice(), b"two".as_slice()]);
        assert_eq!(prefix, clean_len);
    }

    #[test]
    fn scan_stops_at_crc_mismatch() {
        let mut log = frame(b"good");
        let clean_len = log.len();
        let mut bad = frame(b"evil");
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        log.extend_from_slice(&bad);
        log.extend_from_slice(&frame(b"after"));
        let (payloads, prefix) = scan_frames(&log);
        // Everything after the first bad frame is dead, even if later
        // frames would individually check out.
        assert_eq!(payloads, vec![b"good".as_slice()]);
        assert_eq!(prefix, clean_len);
    }

    #[test]
    fn scan_handles_absurd_length_header() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&[0u8; 16]);
        let (payloads, prefix) = scan_frames(&log);
        assert!(payloads.is_empty());
        assert_eq!(prefix, 0);
    }

    #[test]
    fn mem_replica_torn_append_keeps_prefix() {
        let r = MemReplica::new("r0");
        r.append_log(&frame(b"committed")).unwrap();
        let clean = r.log_len();
        r.arm_torn_append(3);
        assert!(r.append_log(&frame(b"torn")).is_err());
        assert_eq!(r.log_len(), clean + 3);
        let log = r.read_log().unwrap();
        let (payloads, prefix) = scan_frames(&log);
        assert_eq!(payloads.len(), 1);
        assert_eq!(prefix, clean);
    }

    #[test]
    fn file_replica_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "rbst-walrep-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let r = FileReplica::open(dir.clone()).unwrap();
        r.append_log(&frame(b"alpha")).unwrap();
        r.append_log(&frame(b"beta")).unwrap();
        let log = r.read_log().unwrap();
        let (payloads, prefix) = scan_frames(&log);
        assert_eq!(payloads, vec![b"alpha".as_slice(), b"beta".as_slice()]);
        // Truncate back to the first frame.
        let first = frame(b"alpha").len();
        r.truncate_log(first).unwrap();
        let truncated = r.read_log().unwrap();
        let (payloads, _) = scan_frames(&truncated);
        assert_eq!(payloads, vec![b"alpha".as_slice()]);
        assert_eq!(prefix, log.len());
        // Snapshot install + re-read, including across a reopen.
        assert!(r.read_snapshot().unwrap().is_none());
        r.install_snapshot(Arc::new(b"snap!".to_vec())).unwrap();
        assert_eq!(
            r.read_snapshot().unwrap().as_deref().map(|v| v.as_slice()),
            Some(b"snap!".as_slice())
        );
        drop(r);
        let r2 = FileReplica::open(dir.clone()).unwrap();
        assert_eq!(
            r2.read_snapshot().unwrap().as_deref().map(|v| v.as_slice()),
            Some(b"snap!".as_slice())
        );
        let reopened = r2.read_log().unwrap();
        let (payloads, _) = scan_frames(&reopened);
        assert_eq!(payloads, vec![b"alpha".as_slice()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
