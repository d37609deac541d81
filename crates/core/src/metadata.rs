//! What the metadata server (§4.2) records.
//!
//! The server maintains *data information* (name, size, location, coding
//! algorithm and parameters, owner, locks) and *storage-server
//! information* (capacity, expected performance, recent load,
//! availability). Clients query it on open, and register data structure
//! and location on write/close. This module holds that vocabulary —
//! [`FileMeta`], [`CodingSpec`], [`DiskInfo`], [`AccessMode`] and the
//! block-key scheme [`gen_key`]; the server itself is the durable
//! [`crate::metastore::Metastore`], the centralised variant the paper
//! recommends for moderate scale ("a well-designed metadata server can
//! support a large-scale system").

use std::collections::{BTreeMap, BTreeSet};

use robustore_erasure::LtParams;

use crate::credentials::PublicKey;

/// How a file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Shared read.
    Read,
    /// Exclusive write (create or replace/update).
    Write,
}

/// Storage-server information kept per disk.
#[derive(Debug, Clone)]
pub struct DiskInfo {
    /// Disk id (backend index).
    pub id: usize,
    /// Raw capacity, bytes.
    pub capacity_bytes: u64,
    /// Bytes in use (updated on writes).
    pub used_bytes: u64,
    /// Expected sustained bandwidth, bytes/second.
    pub expected_bandwidth: f64,
    /// Recent load in [0, 1] (0 = idle).
    pub load: f64,
    /// Availability estimate in [0, 1] (§5.3.1 recommends mixing classes).
    pub availability: f64,
}

impl DiskInfo {
    /// Free capacity, bytes.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }
}

/// Erasure-coding description stored with each file; enough for any
/// client to regenerate the identical coding graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingSpec {
    /// Original block count K.
    pub k: usize,
    /// Coded block count N.
    pub n: usize,
    /// Block size, bytes.
    pub block_bytes: u64,
    /// LT parameters.
    pub params: LtParams,
    /// Graph seed.
    pub seed: u64,
}

/// Per-file metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// File name (namespace key).
    pub name: String,
    /// Metadata-server-assigned id; block keys derive from it.
    pub file_id: u64,
    /// Logical size in bytes (unpadded).
    pub size_bytes: u64,
    /// Coding description.
    pub coding: CodingSpec,
    /// Layout: for each used disk, the coded-block ids it stores
    /// (block key = [`gen_key`]).
    pub layout: Vec<(usize, Vec<u32>)>,
    /// Coded-block ids currently stored under the *odd* generation key.
    ///
    /// Overwrites and updates are copy-on-write: the new generation of a
    /// coded block lands under the opposite-parity key of the old one, the
    /// metadata commit flips the recorded parity atomically, and only then
    /// is the old key garbage-collected. Since at most two generations of
    /// a block ever coexist, one parity bit per block suffices.
    pub odd_keys: BTreeSet<u32>,
    /// CRC32C digest of each stored coded block's bytes, keyed by coded
    /// id ([`crate::integrity::crc32c`]). Verified on every block read;
    /// a mismatch demotes the block to missing. Checksums are over the
    /// *coded* bytes, so they are generation-independent (both parity
    /// keys of a block hold identical content when intact). An empty map
    /// marks a legacy (pre-integrity) file: its blocks read as
    /// `unverified` until a scrub populates the digests.
    pub checksums: BTreeMap<u32, u32>,
    /// Owner identity.
    pub owner: PublicKey,
    /// Bumped on every committed write/update.
    pub version: u64,
}

/// Backend block key of coded block `coded` of file `file_id`, in the
/// generation of parity `odd`. The two generation keys of a block differ
/// only in bit 32, and keys of distinct files never collide.
pub fn gen_key(file_id: u64, coded: u32, odd: bool) -> u64 {
    (file_id << 33) | ((odd as u64) << 32) | coded as u64
}

impl FileMeta {
    /// Backend block key of coded block `coded_id` in the *committed*
    /// generation.
    pub fn block_key(&self, coded_id: u32) -> u64 {
        gen_key(self.file_id, coded_id, self.odd_keys.contains(&coded_id))
    }

    /// Total coded blocks across the layout.
    pub fn stored_blocks(&self) -> usize {
        self.layout.iter().map(|(_, b)| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn block_keys_are_distinct_per_file() {
        let a = meta("a", 1);
        let b = meta("b", 2);
        assert_ne!(a.block_key(0), b.block_key(0));
        assert_eq!(a.block_key(5), (1 << 33) | 5);
    }

    #[test]
    fn generation_keys_differ_only_in_parity() {
        let mut m = meta("a", 3);
        let even = m.block_key(7);
        m.odd_keys.insert(7);
        let odd = m.block_key(7);
        assert_ne!(even, odd);
        assert_eq!(even ^ odd, 1 << 32, "parity flips exactly bit 32");
        assert_eq!(even, gen_key(3, 7, false));
        assert_eq!(odd, gen_key(3, 7, true));
        assert_eq!(m.block_key(8), gen_key(3, 8, false), "other ids untouched");
    }
}
