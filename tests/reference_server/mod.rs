//! The in-memory reference metadata server: plain maps and a
//! [`LockTable`], with the same open / commit / remove / close / stat /
//! list surface as the durable [`Metastore`](robustore::core::Metastore).
//! `metadata_chaos` drives both side by side, call for call, and requires
//! identical results; the unit tests below pin the reference's own lock
//! and lifecycle semantics.

use std::collections::HashMap;

use robustore::core::{AccessMode, DiskInfo, FileMeta, LockTable, StoreError};

/// The in-memory reference metadata server.
#[derive(Debug, Default)]
pub struct MetadataServer {
    files: HashMap<String, FileMeta>,
    disks: Vec<DiskInfo>,
    locks: LockTable,
    next_file_id: u64,
}

impl MetadataServer {
    /// An empty metadata server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a storage server/disk (done when servers join, §4.2).
    pub fn register_disk(&mut self, info: DiskInfo) {
        assert_eq!(info.id, self.disks.len(), "register disks in id order");
        self.disks.push(info);
    }

    /// Current disk registry snapshot.
    pub fn disks(&self) -> &[DiskInfo] {
        &self.disks
    }

    /// Update dynamic information for a disk (load, usage) — fed by client
    /// accesses and periodic queries (§4.2).
    pub fn update_disk(&mut self, id: usize, used_bytes: u64, load: f64) {
        let d = &mut self.disks[id];
        d.used_bytes = used_bytes;
        d.load = load.clamp(0.0, 1.0);
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Acquire the lock for `mode` and return the file's metadata
    /// (`None` metadata for a write to a new file).
    pub fn open(&mut self, name: &str, mode: AccessMode) -> Result<Option<FileMeta>, StoreError> {
        if mode == AccessMode::Read && !self.files.contains_key(name) {
            return Err(StoreError::NotFound(name.to_string()));
        }
        self.locks.acquire(name, mode)?;
        Ok(self.files.get(name).cloned())
    }

    /// Release the lock taken by `open`.
    pub fn close(&mut self, name: &str, mode: AccessMode) {
        self.locks.release(name, mode);
    }

    /// Allocate a file id for a new file.
    pub fn allocate_file_id(&mut self) -> u64 {
        self.next_file_id += 1;
        self.next_file_id
    }

    /// Commit metadata after a write/update (the client "registers the
    /// data structure and location", §4.3.2). Requires the writer lock.
    pub fn commit(&mut self, meta: FileMeta) -> Result<(), StoreError> {
        if !self.locks.holds_writer(&meta.name) {
            return Err(StoreError::StaleHandle);
        }
        self.files.insert(meta.name.clone(), meta);
        Ok(())
    }

    /// Remove a file's metadata (requires the writer lock).
    pub fn remove(&mut self, name: &str) -> Result<FileMeta, StoreError> {
        if !self.locks.holds_writer(name) {
            return Err(StoreError::StaleHandle);
        }
        self.files
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// Look up without locking (status queries).
    pub fn stat(&self, name: &str) -> Option<&FileMeta> {
        self.files.get(name)
    }

    /// All known file names (directory listing).
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.keys().cloned().collect();
        names.sort();
        names
    }
}

mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use robustore::core::CodingSpec;
    use robustore::erasure::LtParams;

    use super::*;

    fn disk(id: usize) -> DiskInfo {
        DiskInfo {
            id,
            capacity_bytes: 1 << 40,
            used_bytes: 0,
            expected_bandwidth: 20e6,
            load: 0.0,
            availability: 0.99,
        }
    }

    fn meta(name: &str, file_id: u64) -> FileMeta {
        FileMeta {
            name: name.into(),
            file_id,
            size_bytes: 1 << 20,
            coding: CodingSpec {
                k: 16,
                n: 64,
                block_bytes: 64 << 10,
                params: LtParams::default(),
                seed: 1,
            },
            layout: vec![(0, vec![0, 1]), (1, vec![2, 3])],
            odd_keys: BTreeSet::new(),
            checksums: BTreeMap::new(),
            owner: 42,
            version: 1,
        }
    }

    #[test]
    fn registry_and_update() {
        let mut m = MetadataServer::new();
        m.register_disk(disk(0));
        m.register_disk(disk(1));
        m.update_disk(1, 100, 0.5);
        assert_eq!(m.disks()[1].used_bytes, 100);
        assert_eq!(m.disks()[1].load, 0.5);
        assert_eq!(m.disks()[0].free_bytes(), 1 << 40);
    }

    #[test]
    fn read_of_missing_file_fails() {
        let mut m = MetadataServer::new();
        assert!(matches!(
            m.open("nope", AccessMode::Read),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn write_then_read_lifecycle() {
        let mut m = MetadataServer::new();
        assert!(m.open("f", AccessMode::Write).unwrap().is_none());
        let id = m.allocate_file_id();
        m.commit(meta("f", id)).unwrap();
        m.close("f", AccessMode::Write);

        let got = m.open("f", AccessMode::Read).unwrap().unwrap();
        assert_eq!(got.file_id, id);
        assert_eq!(got.stored_blocks(), 4);
        m.close("f", AccessMode::Read);
    }

    #[test]
    fn lock_semantics() {
        let mut m = MetadataServer::new();
        m.open("f", AccessMode::Write).unwrap();
        m.commit(meta("f", 1)).unwrap();
        m.close("f", AccessMode::Write);

        // Multiple readers OK.
        m.open("f", AccessMode::Read).unwrap();
        m.open("f", AccessMode::Read).unwrap();
        // Writer blocked while readers hold.
        assert!(matches!(
            m.open("f", AccessMode::Write),
            Err(StoreError::LockConflict(_))
        ));
        m.close("f", AccessMode::Read);
        m.close("f", AccessMode::Read);
        // Now writer proceeds; readers blocked.
        m.open("f", AccessMode::Write).unwrap();
        assert!(matches!(
            m.open("f", AccessMode::Read),
            Err(StoreError::LockConflict(_))
        ));
        m.close("f", AccessMode::Write);
    }

    #[test]
    fn commit_requires_writer_lock() {
        let mut m = MetadataServer::new();
        assert!(matches!(
            m.commit(meta("f", 1)),
            Err(StoreError::StaleHandle)
        ));
    }

    #[test]
    #[should_panic(expected = "unbalanced close")]
    fn unbalanced_close_panics() {
        let mut m = MetadataServer::new();
        m.close("f", AccessMode::Read);
    }
}
