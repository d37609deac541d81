//! Shared oracle for the chaos and differential suites.

use std::collections::BTreeMap;

use robustore::core::{AccessMode, Client, QosOptions, System};

/// Check everything an outside observer can hold a quiesced [`System`]
/// to, through public `System`/`Client` calls only — an oracle that
/// shares no code with the data path it checks:
///
/// * every id of every committed layout is present on its disk under
///   its committed key, with a CRC32C on record;
/// * each disk holds exactly its committed blocks — zero orphans, zero
///   leaks;
/// * every live file reads back;
/// * no pool buffer is still checked out.
///
/// Returns each live file's decoded bytes, for suites that keep a model
/// of the expected contents.
pub fn check_committed_state(sys: &System) -> BTreeMap<String, Vec<u8>> {
    let mut expect_used = vec![0u64; sys.num_disks()];
    let mut contents = BTreeMap::new();
    for name in sys.list_files() {
        let meta = sys.export_meta(&name).expect("listed file has metadata");
        for (disk, ids) in &meta.layout {
            for &id in ids {
                assert!(
                    sys.probe_block(*disk, meta.block_key(id)),
                    "{name}: committed block {id} is absent from disk {disk}"
                );
                assert!(
                    meta.checksums.contains_key(&id),
                    "{name}: committed block {id} has no recorded checksum"
                );
            }
            expect_used[*disk] += ids.len() as u64 * meta.coding.block_bytes;
        }
        let client = Client::connect(sys, meta.owner);
        let h = client
            .open(&name, AccessMode::Read, QosOptions::best_effort())
            .expect("committed file opens");
        let bytes = client.read(&h).expect("committed file reads back");
        client.close(h).expect("close");
        assert_eq!(bytes.len() as u64, meta.size_bytes, "{name}: short read");
        contents.insert(name, bytes);
    }
    // After the reads, so a read-repair they triggered is accounted too.
    let used: Vec<u64> = (0..sys.num_disks()).map(|d| sys.disk_used(d)).collect();
    assert_eq!(
        used, expect_used,
        "per-disk bytes differ from the committed layouts (orphans or lost blocks)"
    );
    assert_eq!(sys.pool_outstanding_bytes(), 0, "leaked pool buffers");
    contents
}
