//! Chaos suite for the async I/O ring.
//!
//! The ring runs backend service on per-disk workers: submissions queue,
//! workers coalesce cross-access write runs into one group-commit
//! dispatch, and speculative reads are revoked in the queue once the
//! decoder has enough. These tests pin the semantics that keep all of
//! that invisible to committed state:
//!
//! * **cancellation reclaims disk time without mutating anything** — a
//!   speculative read services strictly fewer block reads than the file
//!   stores, returns every buffer, and leaves stored bytes untouched;
//! * **write aborts roll back**: a disk that hard-faults mid-access
//!   surfaces as `DiskFault`, no orphan bytes or metadata survive, and a
//!   retry after the fault clears commits normally;
//! * **cross-access group commit respects per-disk submission order** —
//!   pinned with a gated shard that holds the first dispatch in service
//!   while writes from several accesses queue behind it, then observes
//!   one coalesced batch in submission order (and that a cancelled
//!   access's queued writes never reach the backend at all);
//! * **seeded replay is identical under either wave policy** through
//!   persistent damage (lost blocks, bit rot, an offline-disk window):
//!   decoded bytes, layouts, and per-disk byte counts all match, run to
//!   run and Static to Adaptive. Budgeted fault switches are
//!   deliberately absent here — the ring may service a few
//!   already-queued ops past the decode point, so *consumable* fault
//!   budgets are timing-sensitive (see `tests/chaos_read.rs`, which pins
//!   what holds for those counters).
//!
//! Every test that drives a [`System`] ends in
//! [`common::check_committed_state`].

mod common;

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

use common::check_committed_state;
use robustore::core::{
    AccessMode, ChaosBackend, Client, CompletionKind, DiskShard, InMemoryBackend, IoRing,
    QosOptions, ReadPolicy, RefusedWrite, RingConfig, Scrubber, ShardedBackend, StorageBackend,
    StoreError, SubmitOp, System, SystemConfig, WriteOutcome,
};
use robustore::simkit::SeedSequence;

const DISKS: usize = 8;

fn speeds() -> Vec<f64> {
    (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect()
}

fn ring_system() -> System {
    System::with_backend(
        Box::new(InMemoryBackend::new(speeds())),
        SystemConfig {
            block_bytes: 4 << 10,
            ..Default::default()
        },
    )
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + salt as usize) % 256) as u8)
        .collect()
}

fn put(client: &Client, name: &str, data: &[u8], qos: QosOptions) {
    let mut h = client.open(name, AccessMode::Write, qos).unwrap();
    client.write(&mut h, data).unwrap();
    client.close(h).unwrap();
}

#[test]
fn cancelled_reads_save_disk_ops_and_never_mutate() {
    let sys = ring_system();
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(150_000, 1);
    // 3× redundancy: the file stores far more blocks than a decode
    // needs, so revocation has real disk time to reclaim.
    put(
        &client,
        "spec",
        &data,
        QosOptions::best_effort().with_redundancy(3.0),
    );
    let stored = sys.export_meta("spec").unwrap().stored_blocks();
    let (reads0, writes0) = sys.backend_stats();
    let used0 = sys.total_used();

    let h = client
        .open("spec", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let (got, rr) = client.read_with_report(&h).unwrap();
    client.close(h).unwrap();
    assert_eq!(got, data);

    let (reads1, writes1) = sys.backend_stats();
    let serviced = (reads1 - reads0) as usize;
    assert!(
        serviced < stored,
        "cancellation reclaimed nothing: {serviced} reads serviced, {stored} stored"
    );
    assert!(rr.blocks_cancelled > 0, "no requests were revoked");
    assert!(
        rr.blocks_fetched <= serviced,
        "decoder consumed blocks the backend never served"
    );
    // Cancelled and drained ops must not mutate anything.
    assert_eq!(writes1, writes0, "a speculative read issued writes");
    assert_eq!(
        sys.total_used(),
        used0,
        "a speculative read changed stored bytes"
    );
    assert_eq!(sys.pool_outstanding_bytes(), 0, "read leaked pool buffers");

    // And the file is untouched: a second read returns identical bytes.
    let h = client
        .open("spec", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data);
    client.close(h).unwrap();
    assert_eq!(check_committed_state(&sys)["spec"], data);
}

#[test]
fn ring_write_abort_rolls_back_and_retry_succeeds() {
    let (backend, switch) = ChaosBackend::new(InMemoryBackend::new(speeds()));
    let sys = System::with_backend(
        Box::new(backend),
        SystemConfig {
            block_bytes: 4 << 10,
            ..Default::default()
        },
    );
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(160_000, 2);

    // Disk 3 accepts two blocks, then hard-faults. Completions are
    // consumed in submission order, so the surfaced error is the first
    // fault — deterministically disk 3.
    switch.fail_disk_after(3, 2);
    let mut h = client
        .open("fresh", AccessMode::Write, QosOptions::best_effort())
        .unwrap();
    let err = client.write(&mut h, &data).unwrap_err();
    assert!(matches!(err, StoreError::DiskFault { disk: 3 }), "{err:?}");
    client.close(h).unwrap();

    // Full rollback: in-flight completions drained, every committed
    // block deleted, no metadata, no leaked buffers.
    assert_eq!(sys.total_used(), 0, "aborted ring write left orphans");
    assert!(
        sys.export_meta("fresh").is_none(),
        "aborted write left metadata"
    );
    assert_eq!(sys.pool_outstanding_bytes(), 0);

    // The retry (fault cleared) commits normally.
    switch.clear();
    put(&client, "fresh", &data, QosOptions::best_effort());
    let h = client
        .open("fresh", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data);
    client.close(h).unwrap();
    assert_eq!(check_committed_state(&sys)["fresh"], data);
}

/// Blocks the first commit dispatch in service while later submissions
/// queue, so the coalescing decision behind it is deterministic.
struct Gate {
    held: Mutex<bool>,
    released: Condvar,
    entered: Mutex<usize>,
    entry: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            held: Mutex::new(true),
            released: Condvar::new(),
            entered: Mutex::new(0),
            entry: Condvar::new(),
        })
    }

    /// Called by the shard at dispatch entry: count the entry, then park
    /// until the test releases the gate.
    fn enter_and_wait(&self) {
        *self.entered.lock().unwrap() += 1;
        self.entry.notify_all();
        let mut held = self.held.lock().unwrap();
        while *held {
            held = self.released.wait(held).unwrap();
        }
    }

    fn wait_entered(&self, n: usize) {
        let mut e = self.entered.lock().unwrap();
        while *e < n {
            e = self.entry.wait(e).unwrap();
        }
    }

    fn release(&self) {
        *self.held.lock().unwrap() = false;
        self.released.notify_all();
    }
}

/// A [`DiskShard`] that records the keys of every commit dispatch and
/// parks each dispatch on the shared [`Gate`].
struct GateShard {
    inner: Box<dyn DiskShard>,
    gate: Arc<Gate>,
    log: Arc<Mutex<Vec<Vec<u64>>>>,
}

impl DiskShard for GateShard {
    fn disk_id(&self) -> usize {
        self.inner.disk_id()
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(block, data)
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        self.gate.enter_and_wait();
        self.log
            .lock()
            .unwrap()
            .push(batch.iter().map(|(k, _)| *k).collect());
        self.inner.commit_batch(batch)
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        self.inner.read_block_into(block, buf)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(block)
    }

    fn speed(&self) -> f64 {
        self.inner.speed()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn count_read(&mut self) {
        self.inner.count_read()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

/// Single-disk backend whose shard is a [`GateShard`].
struct GateBackend {
    inner: InMemoryBackend,
    gate: Arc<Gate>,
    log: Arc<Mutex<Vec<Vec<u64>>>>,
}

impl StorageBackend for GateBackend {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.inner.write_block(disk, block, data)
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        self.inner.read_block(disk, block)
    }

    fn delete_block(&mut self, disk: usize, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(disk, block)
    }

    fn disk_speed(&self, disk: usize) -> f64 {
        self.inner.disk_speed(disk)
    }

    fn disk_used(&self, disk: usize) -> u64 {
        self.inner.disk_used(disk)
    }

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let gate = self.gate.clone();
        let log = self.log.clone();
        self.inner.try_shard().map(|shards| {
            shards
                .into_iter()
                .map(|inner| {
                    Box::new(GateShard {
                        inner,
                        gate: gate.clone(),
                        log: log.clone(),
                    }) as Box<dyn DiskShard>
                })
                .collect()
        })
    }
}

#[test]
fn cross_access_batches_respect_submission_order_and_cancel_revokes_queued_writes() {
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let backend = GateBackend {
        inner: InMemoryBackend::new(vec![50e6]),
        gate: gate.clone(),
        log: log.clone(),
    };
    let sharded = Arc::new(ShardedBackend::new(Box::new(backend), true));
    assert!(sharded.is_sharded());
    let ring = IoRing::start(
        sharded.clone(),
        RingConfig {
            group_commit: 8,
            read_attempts: 3,
            backoff_micros: 50,
        },
    );
    let (tx_keep, rx_keep) = mpsc::channel();
    let (tx_gone, rx_gone) = mpsc::channel();
    let block = vec![0xC3u8; 64];

    // Access 1's first write enters service alone and parks on the gate.
    let w = |key| SubmitOp::Write {
        key,
        data: block.clone(),
    };
    ring.submit(0, 1, 0, w(10), &tx_keep);
    gate.wait_entered(1);

    // While the disk is busy, writes from three accesses queue behind it
    // in submission order — interleaved on purpose.
    ring.submit(0, 1, 1, w(11), &tx_keep);
    ring.submit(0, 2, 0, w(20), &tx_gone);
    ring.submit(0, 3, 0, w(30), &tx_keep);
    ring.submit(0, 2, 1, w(21), &tx_gone);

    // Access 2 cancels before service: its queued writes come back
    // unserviced with the payload intact.
    ring.cancel(2);
    for _ in 0..2 {
        let c = rx_gone.recv().unwrap();
        assert_eq!(c.access, 2);
        assert!(
            matches!(c.kind, CompletionKind::Cancelled { buf: Some(ref b) } if b.len() == 64),
            "cancelled write lost its payload"
        );
    }

    gate.release();
    for _ in 0..3 {
        let c = rx_keep.recv().unwrap();
        assert!(
            matches!(c.kind, CompletionKind::Write(WriteOutcome::Done)),
            "surviving write failed"
        );
    }
    drop(ring); // joins the worker; queues are fully drained

    // Exactly two dispatches: the gated single, then ONE coalesced batch
    // carrying accesses 1 and 3 in submission order — with access 2's
    // keys absent (the backend never saw them).
    let dispatches = log.lock().unwrap().clone();
    assert_eq!(
        dispatches,
        vec![vec![10], vec![11, 30]],
        "cross-access coalescing or ordering broke"
    );
    assert_eq!(sharded.writes(), 3);
    assert_eq!(sharded.disk_used(0), 3 * 64);
}

#[test]
fn seeded_persistent_faults_replay_identically_under_either_policy() {
    // Decoded bytes, committed layouts, and per-disk byte counts must be
    // identical run to run AND under either wave policy, through damage,
    // an offline window, and a scrub sweep. Persistent faults only — see
    // the module doc for why budgeted fault switches are excluded.
    //
    // The adaptive policy may legally reorder the speculative-read
    // prefix on a wall-clock EWMA hiccup, so which damaged blocks a read
    // *observes* is schedule-dependent. Read-repair canonicalises: it
    // audits every stored id the read didn't verify before committing,
    // so the committed set is the full damage set in every run and the
    // schedule moves wall-clock only. Static and Adaptive are two
    // independent schedules over the same damage; each must also match
    // its own replay (completion timing differs between runs).
    let alpha = payload(200_000, 11);
    let beta = payload(140_000, 12);
    let run = |read_policy: ReadPolicy| {
        let sys = System::with_backend(
            Box::new(InMemoryBackend::new(speeds())),
            SystemConfig {
                block_bytes: 4 << 10,
                read_policy,
                ..Default::default()
            },
        );
        let client = Client::connect(&sys, sys.register_user());
        put(&client, "alpha", &alpha, QosOptions::best_effort());
        put(&client, "beta", &beta, QosOptions::best_effort());

        let seq = SeedSequence::new(0xB0);
        sys.lose_blocks(2, 0.5, &seq.subsequence("lose", 0));
        sys.corrupt_blocks(5, 0.4, &seq.subsequence("rot", 0));
        sys.set_disk_offline(1, true);

        let mut decoded = Vec::new();
        for name in ["alpha", "beta"] {
            let h = client
                .open(name, AccessMode::Read, QosOptions::best_effort())
                .unwrap();
            decoded.push(client.read(&h).unwrap());
            client.close(h).unwrap();
        }
        sys.set_disk_offline(1, false);
        let sweep = Scrubber::new(&client).sweep();
        assert!(sweep.failed.is_empty(), "scrub failed: {:?}", sweep.failed);
        let healed = check_committed_state(&sys);
        decoded.push(healed["alpha"].clone());
        decoded.push(healed["beta"].clone());

        let mut state = String::new();
        for name in sys.list_files() {
            let meta = sys.export_meta(&name).unwrap();
            let mut odd: Vec<u32> = meta.odd_keys.iter().copied().collect();
            odd.sort_unstable();
            state += &format!(
                "{name} layout={:?} odd={odd:?} checksums={};",
                meta.layout,
                meta.checksums.len()
            );
        }
        let used: Vec<u64> = (0..DISKS).map(|d| sys.disk_used(d)).collect();
        (decoded, used, state)
    };

    let ring_static = run(ReadPolicy::Static);
    let ring_adaptive = run(ReadPolicy::adaptive());
    assert_eq!(
        ring_static.0,
        [&alpha, &beta, &alpha, &beta].map(Vec::clone),
        "decoded bytes differ from the payloads"
    );
    assert_eq!(
        ring_adaptive, ring_static,
        "adaptive wave policy changed committed state, not just wall-clock"
    );
    assert_eq!(
        run(ReadPolicy::Static),
        ring_static,
        "static replay diverged"
    );
    assert_eq!(
        run(ReadPolicy::adaptive()),
        ring_adaptive,
        "adaptive replay diverged"
    );
}
