//! End-to-end tests of the RobuSTore framework API across crates:
//! client ↔ metadata ↔ planner ↔ admission ↔ erasure coding ↔ backend.

use std::sync::Arc;

use robustore::core::{
    AccessMode, Client, CredentialChain, FileBackend, InMemoryBackend, QosOptions, RefusedWrite,
    Rights, StorageBackend, StoreError, System, SystemConfig,
};

fn system(disks: usize) -> System {
    let speeds: Vec<f64> = (0..disks).map(|i| 8e6 + (i as f64) * 7e6).collect();
    System::new(
        InMemoryBackend::new(speeds),
        SystemConfig {
            block_bytes: 16 << 10,
            ..Default::default()
        },
    )
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + salt as usize) % 256) as u8)
        .collect()
}

#[test]
fn many_files_roundtrip() {
    let sys = system(12);
    let user = sys.register_user();
    let client = Client::connect(&sys, user);
    let files: Vec<(String, Vec<u8>)> = (0..10)
        .map(|i| {
            (
                format!("data/file-{i}"),
                payload(30_000 + i * 7_000, i as u8),
            )
        })
        .collect();

    for (name, data) in &files {
        let mut h = client
            .open(name, AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, data).unwrap();
        client.close(h).unwrap();
    }
    for (name, data) in &files {
        let h = client
            .open(name, AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        assert_eq!(&client.read(&h).unwrap(), data, "{name}");
        client.close(h).unwrap();
    }
}

#[test]
fn concurrent_readers_across_threads() {
    let sys = system(8);
    let user = sys.register_user();
    let writer = Client::connect(&sys, user);
    let data = Arc::new(payload(200_000, 3));
    let mut h = writer
        .open("shared", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    writer.write(&mut h, &data).unwrap();
    writer.close(h).unwrap();

    // Many clients (same owner identity) read concurrently from threads;
    // the reader/writer lock admits them all and every copy matches.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let sys = sys.clone();
            let data = Arc::clone(&data);
            scope.spawn(move || {
                let reader = Client::connect(&sys, user);
                let h = reader
                    .open("shared", AccessMode::Read, QosOptions::best_effort())
                    .expect("shared read lock");
                assert_eq!(reader.read(&h).unwrap(), *data);
                reader.close(h).unwrap();
            });
        }
    });

    // With all readers gone, the writer lock is available again.
    let owner = Client::connect(&sys, user);
    let h = owner
        .open("shared", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    owner.close(h).unwrap();
}

#[test]
fn two_level_delegation_end_to_end() {
    // Figure C-1's scenario across the whole stack: admin → alice → bob.
    let sys = system(8);
    let admin = sys.register_user();
    let alice = sys.register_user();
    let bob = sys.register_user();

    let admin_client = Client::connect(&sys, admin);
    let data = payload(64_000, 9);
    let mut h = admin_client
        .open(
            "robustore_dir",
            AccessMode::Write,
            QosOptions::best_effort(),
        )
        .unwrap();
    admin_client.write(&mut h, &data).unwrap();
    admin_client.close(h).unwrap();

    // Admin delegates RW to Alice; Alice delegates R to Bob.
    let l1 = sys
        .issue_credential(admin, alice, Rights::R | Rights::W, "robustore_dir", 1_000)
        .unwrap();
    let l2 = sys
        .issue_credential(alice, bob, Rights::R, "robustore_dir", 1_000)
        .unwrap();
    let chain = CredentialChain(vec![l1.clone(), l2]);

    let bob_client = Client::connect(&sys, bob);
    let h = bob_client
        .open_with_chain(
            "robustore_dir",
            AccessMode::Read,
            QosOptions::best_effort(),
            &chain,
        )
        .unwrap();
    assert_eq!(bob_client.read(&h).unwrap(), data);
    bob_client.close(h).unwrap();

    // Bob cannot write through an R-only tail link.
    assert!(matches!(
        bob_client.open_with_chain(
            "robustore_dir",
            AccessMode::Write,
            QosOptions::best_effort(),
            &chain
        ),
        Err(StoreError::AccessDenied(_))
    ));

    // Alice herself can write with her single-link chain.
    let alice_client = Client::connect(&sys, alice);
    let chain1 = CredentialChain(vec![l1]);
    let mut h = alice_client
        .open_with_chain(
            "robustore_dir",
            AccessMode::Write,
            QosOptions::best_effort(),
            &chain1,
        )
        .unwrap();
    alice_client.write(&mut h, &payload(32_000, 11)).unwrap();
    alice_client.close(h).unwrap();
}

#[test]
fn qos_disk_count_is_respected() {
    let sys = system(16);
    let user = sys.register_user();
    let client = Client::connect(&sys, user);
    let mut h = client
        .open(
            "narrow",
            AccessMode::Write,
            QosOptions::best_effort()
                .with_num_disks(4)
                .with_redundancy(2.0),
        )
        .unwrap();
    client.write(&mut h, &payload(100_000, 1)).unwrap();
    let meta = h.meta().unwrap().clone();
    client.close(h).unwrap();
    let used: Vec<usize> = meta
        .layout
        .iter()
        .filter(|(_, ids)| !ids.is_empty())
        .map(|(d, _)| *d)
        .collect();
    assert!(used.len() <= 4, "QoS asked for 4 disks, used {used:?}");
    let k = meta.coding.k as f64;
    let n = meta.coding.n as f64;
    assert!((n / k - 3.0).abs() < 0.1, "redundancy 2.0 → N = 3K");
}

#[test]
fn write_report_counts_only_disks_that_got_a_block() {
    // K = 2, N = 6 over 8 equal disks: the apportionment leaves two of
    // the eight admitted disks without a block.
    let sys = System::new(
        InMemoryBackend::uniform(8, 20e6),
        SystemConfig {
            block_bytes: 16 << 10,
            ..Default::default()
        },
    );
    let client = Client::connect(&sys, sys.register_user());
    let qos = QosOptions::best_effort()
        .with_redundancy(2.0)
        .with_pinned_disks((0..8).collect());
    let mut h = client.open("small", AccessMode::Write, qos).unwrap();
    let report = client.write(&mut h, &payload(32 << 10, 3)).unwrap();
    let meta = h.meta().unwrap().clone();
    client.close(h).unwrap();
    assert_eq!(report.blocks_written, 6);
    let holding = meta.layout.iter().filter(|(_, ids)| !ids.is_empty());
    assert_eq!(holding.count(), 6);
    assert_eq!(report.disks, 6, "disks that received no block were counted");
}

#[test]
fn updates_preserve_unpatched_bytes_across_many_patches() {
    let sys = system(8);
    let user = sys.register_user();
    let client = Client::connect(&sys, user);
    let mut expect = payload(128_000, 5);
    let mut h = client
        .open("patchy", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, &expect).unwrap();

    for (i, (off, len)) in [
        (0usize, 100usize),
        (50_000, 3_000),
        (127_000, 1_000),
        (16_384, 16_384),
    ]
    .into_iter()
    .enumerate()
    {
        let patch: Vec<u8> = (0..len).map(|j| ((i * 37 + j) % 256) as u8).collect();
        client.update(&mut h, off as u64, &patch).unwrap();
        expect[off..off + len].copy_from_slice(&patch);
    }
    client.close(h).unwrap();

    let h = client
        .open("patchy", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), expect);
    client.close(h).unwrap();
}

#[test]
fn degraded_read_survives_offline_disks() {
    // §4.1.3: lose servers after the write; redundancy absorbs it.
    let sys = system(8);
    let user = sys.register_user();
    let client = Client::connect(&sys, user);
    let data = payload(160_000, 7);
    let mut h = client
        .open(
            "resilient",
            AccessMode::Write,
            QosOptions::best_effort().with_redundancy(3.0),
        )
        .unwrap();
    client.write(&mut h, &data).unwrap();
    client.close(h).unwrap();

    // Take two of eight disks offline.
    sys.set_disk_offline(0, true);
    sys.set_disk_offline(3, true);
    let h = client
        .open("resilient", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data, "degraded read");
    client.close(h).unwrap();

    // Take too many offline: the read reports failure instead of wrong data.
    for d in 0..7 {
        sys.set_disk_offline(d, true);
    }
    let h = client
        .open("resilient", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert!(client.read(&h).is_err(), "insufficient blocks must error");
    client.close(h).unwrap();

    // Recovery: bring the disks back and the data is intact.
    for d in 0..8 {
        sys.set_disk_offline(d, false);
    }
    let h = client
        .open("resilient", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data);
    client.close(h).unwrap();
}

#[test]
fn rateless_write_routes_around_offline_disk() {
    let sys = system(8);
    let user = sys.register_user();
    let client = Client::connect(&sys, user);
    sys.set_disk_offline(2, true);
    let data = payload(120_000, 9);
    let mut h = client
        .open(
            "writable",
            AccessMode::Write,
            QosOptions::best_effort().with_redundancy(2.0),
        )
        .unwrap();
    client.write(&mut h, &data).unwrap();
    let meta = h.meta().unwrap().clone();
    client.close(h).unwrap();
    // No blocks landed on the dead disk; total block count is preserved.
    let on_dead: usize = meta
        .layout
        .iter()
        .filter(|(d, _)| *d == 2)
        .map(|(_, ids)| ids.len())
        .sum();
    assert_eq!(on_dead, 0);
    assert_eq!(meta.stored_blocks(), meta.coding.n);
    // And the data reads back (dead disk still down).
    let h = client
        .open("writable", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data);
    client.close(h).unwrap();
}

#[test]
fn out_of_range_update_rejected() {
    let sys = system(8);
    let user = sys.register_user();
    let client = Client::connect(&sys, user);
    let mut h = client
        .open("f", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    client.write(&mut h, &payload(10_000, 1)).unwrap();
    assert!(matches!(
        client.update(&mut h, 9_990, &[0u8; 100]),
        Err(StoreError::OutOfRange)
    ));
    client.close(h).unwrap();
}

#[test]
fn paced_batch_with_mixed_block_sizes_and_a_stale_handle() {
    // One system writes one block size, so the store is built in two
    // lives over one directory (as the CLI reopens a store): 4 KiB blocks
    // first, then 16 KiB with the first life's metadata imported.
    let dir = std::env::temp_dir().join(format!("rbst-mixed-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = |block_bytes: u64| {
        let speeds: Vec<f64> = (0..8).map(|i| 8e6 + (i as f64) * 7e6).collect();
        System::with_backend(
            Box::new(FileBackend::open(&dir, speeds).unwrap()),
            SystemConfig {
                block_bytes,
                ..Default::default()
            },
        )
    };
    let put = |client: &Client, name: &str, data: &[u8]| {
        let mut h = client
            .open(name, AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, data).unwrap();
        client.close(h).unwrap();
    };
    let files = [
        ("small-a", payload(50_000, 1)),
        ("big-a", payload(90_000, 2)),
        ("small-b", payload(70_000, 3)),
        ("big-b", payload(120_000, 4)),
    ];

    let first_life = {
        let sys = open(4 << 10);
        let client = Client::connect(&sys, sys.register_user());
        for (name, data) in files.iter().filter(|(n, _)| n.starts_with("small")) {
            put(&client, name, data);
        }
        ["small-a", "small-b"].map(|n| sys.export_meta(n).unwrap())
    };
    let sys = open(16 << 10);
    let me = sys.register_user();
    for mut meta in first_life {
        meta.owner = me;
        sys.import_meta(meta).unwrap();
    }
    let client = Client::connect(&sys, me);
    for (name, data) in files.iter().filter(|(n, _)| n.starts_with("big")) {
        put(&client, name, data);
    }

    // Handle order interleaves the two block sizes around a handle with
    // nothing to read: a write handle to a file never written.
    let mut handles: Vec<_> = files
        .iter()
        .map(|(name, _)| {
            client
                .open(name, AccessMode::Read, QosOptions::best_effort())
                .unwrap()
        })
        .collect();
    let stale_at = 2;
    handles.insert(
        stale_at,
        client
            .open(
                "never-written",
                AccessMode::Write,
                QosOptions::best_effort(),
            )
            .unwrap(),
    );
    let block_sizes: Vec<u64> = handles
        .iter()
        .filter_map(|h| h.meta().map(|m| m.coding.block_bytes))
        .collect();
    assert_eq!(block_sizes, [4 << 10, 16 << 10, 4 << 10, 16 << 10]);

    let refs: Vec<_> = handles.iter().collect();
    let arrivals: Vec<u64> = (0..refs.len() as u64).map(|i| i * 400).collect();
    let mut results: Vec<Option<Result<Vec<u8>, StoreError>>> = vec![None; refs.len()];
    client.read_many_with(&refs, Some(&arrivals), |i, r| {
        assert!(results[i].is_none(), "handle {i} resolved twice");
        results[i] = Some(r.map(|(data, _)| data));
    });

    // One result per handle, at the handle's own index.
    let mut expected: Vec<Result<Vec<u8>, StoreError>> =
        files.iter().map(|(_, data)| Ok(data.clone())).collect();
    expected.insert(stale_at, Err(StoreError::StaleHandle));
    let results: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("every handle resolved"))
        .collect();
    assert_eq!(results, expected);
    assert_eq!(
        sys.pool_outstanding_bytes(),
        0,
        "the batch leaked pool buffers"
    );

    for h in handles {
        client.close(h).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An [`InMemoryBackend`] behind a forwarding-only wrapper that leaves
/// `try_shard` at the trait default: it cannot split into per-disk
/// shards.
struct Unsharded(InMemoryBackend);

impl StorageBackend for Unsharded {
    fn num_disks(&self) -> usize {
        self.0.num_disks()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.0.write_block(disk, block, data)
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        self.0.read_block(disk, block)
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.0.delete_block(disk, block)
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.0.disk_speed(disk)
    }

    fn disk_used(&self, disk: usize) -> u64 {
        self.0.disk_used(disk)
    }
}

/// Block I/O runs only on per-disk shards: a backend that cannot shard is
/// refused with an error, not a panic and not a single-lock fallback.
#[test]
fn system_refuses_a_backend_that_cannot_shard() {
    let backend = Unsharded(InMemoryBackend::uniform(4, 10e6));
    let refused = System::try_with_backend(Box::new(backend), SystemConfig::default());
    assert!(matches!(refused, Err(StoreError::Io(_))));
}
