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
//! * **multi-block accesses fan out across their disks** — with one
//!   disk's I/O held at the gate, a write, and the reads and rewrites of
//!   the scrub that repairs a degraded read's damage, still reach every
//!   other layout disk; and each disk's write sequence is the
//!   slot-by-slot one, so what lands where does not depend on the
//!   interleaving;
//! * **a degraded read stays on its own access** — it writes nothing and
//!   reads nothing beyond the blocks it submitted; it only queues its
//!   file on the repair backlog;
//! * **every block read and write rides the ring** — including the
//!   blocks a write or a scrub relocates because their disk refused
//!   them;
//! * **seeded replay is identical under either wave policy** through
//!   persistent damage (lost blocks, bit rot, an offline-disk window) and
//!   the repair that drains what the reads queued:
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

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use common::check_committed_state;
use robustore::core::{
    AccessMode, ChaosBackend, Client, CompletionKind, DiskShard, FileMeta, InMemoryBackend, IoRing,
    QosOptions, ReadPolicy, RefusedWrite, RepairService, RingConfig, ShardedBackend,
    StorageBackend, StoreError, SubmitOp, System, SystemConfig, WriteOutcome,
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

/// One block I/O a tapped shard was asked to do: its disk, whether it
/// writes, its keys (one for a read, the batch for a commit dispatch),
/// and the name of the thread that did it.
#[derive(Debug, Clone)]
struct Io {
    disk: usize,
    write: bool,
    keys: Vec<u64>,
    thread: String,
}

/// Parks the I/Os it matches in service until the test releases it, so
/// whatever queues or proceeds behind them is deterministic.
struct Gate {
    parks: Box<dyn Fn(&Io) -> bool + Send + Sync>,
    held: Mutex<bool>,
    released: Condvar,
    /// Disk of every I/O that parked, in arrival order.
    entered: Mutex<Vec<usize>>,
    entry: Condvar,
}

impl Gate {
    /// A closed gate parking every I/O `parks` matches.
    fn new(parks: impl Fn(&Io) -> bool + Send + Sync + 'static) -> Arc<Gate> {
        Arc::new(Gate {
            parks: Box::new(parks),
            held: Mutex::new(true),
            released: Condvar::new(),
            entered: Mutex::new(Vec::new()),
            entry: Condvar::new(),
        })
    }

    /// Called by the shard at dispatch entry: if the I/O matches, record
    /// the entry, then park until the test releases the gate.
    fn pass(&self, io: &Io) {
        if !(self.parks)(io) {
            return;
        }
        self.entered.lock().unwrap().push(io.disk);
        self.entry.notify_all();
        let mut held = self.held.lock().unwrap();
        while *held {
            held = self.released.wait(held).unwrap();
        }
    }

    /// The disks of the first `n` parked I/Os, once that many arrived.
    fn wait_entered(&self, n: usize) -> Vec<usize> {
        let mut e = self.entered.lock().unwrap();
        while e.len() < n {
            e = self.entry.wait(e).unwrap();
        }
        e.clone()
    }

    fn release(&self) {
        *self.held.lock().unwrap() = false;
        self.released.notify_all();
    }
}

/// What the tapped shards share: the gates every I/O passes, and the
/// log of every I/O in dispatch order (logged before it may park).
struct Tap {
    gates: Vec<Arc<Gate>>,
    log: Mutex<Vec<Io>>,
}

impl Tap {
    fn new(gates: Vec<Arc<Gate>>) -> Arc<Tap> {
        Arc::new(Tap {
            gates,
            log: Mutex::default(),
        })
    }

    fn see(&self, io: Io) {
        self.log.lock().unwrap().push(io.clone());
        for gate in &self.gates {
            gate.pass(&io);
        }
    }

    fn log(&self) -> Vec<Io> {
        self.log.lock().unwrap().clone()
    }

    /// Poll the log until `done` holds, for at most `secs` seconds.
    fn wait_until(&self, secs: u64, done: impl Fn(&[Io]) -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !done(&self.log.lock().unwrap()) {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Each disk's write keys, in the order the disk took them.
    fn writes_per_disk(&self, disks: usize) -> Vec<Vec<u64>> {
        let mut per_disk = vec![Vec::new(); disks];
        for io in self.log().into_iter().filter(|io| io.write) {
            per_disk[io.disk].extend(io.keys);
        }
        per_disk
    }
}

/// A [`DiskShard`] that shows every block I/O to the shared [`Tap`]
/// before doing it.
struct GateShard {
    inner: Box<dyn DiskShard>,
    tap: Arc<Tap>,
}

impl GateShard {
    fn see(&self, write: bool, keys: Vec<u64>) {
        let disk = self.inner.disk_id();
        let thread = std::thread::current().name().unwrap_or("").to_string();
        self.tap.see(Io {
            disk,
            write,
            keys,
            thread,
        });
    }
}

impl DiskShard for GateShard {
    fn disk_id(&self) -> usize {
        self.inner.disk_id()
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        self.see(true, vec![block]);
        self.inner.write_block(block, data)
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        self.see(true, batch.iter().map(|(k, _)| *k).collect());
        self.inner.commit_batch(batch)
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        self.see(false, vec![block]);
        self.inner.read_block_into(block, buf)
    }

    fn has_block(&self, block: u64) -> bool {
        self.inner.has_block(block)
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(block)
    }

    fn drop_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.drop_random_blocks(fraction, seq)
    }

    fn set_offline(&mut self, offline: bool) {
        self.inner.set_offline(offline)
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

/// An in-memory backend whose shards are [`GateShard`]s on one [`Tap`].
struct GateBackend {
    inner: InMemoryBackend,
    tap: Arc<Tap>,
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
        let tap = &self.tap;
        self.inner.try_shard().map(|shards| {
            shards
                .into_iter()
                .map(|inner| {
                    Box::new(GateShard {
                        inner,
                        tap: tap.clone(),
                    }) as Box<dyn DiskShard>
                })
                .collect()
        })
    }
}

/// A ring-backed system over disks of these speeds, every block I/O
/// shown to `tap`.
fn tapped_system(speeds: Vec<f64>, tap: &Arc<Tap>, read_policy: ReadPolicy) -> System {
    System::with_backend(
        Box::new(GateBackend {
            inner: InMemoryBackend::new(speeds),
            tap: tap.clone(),
        }),
        SystemConfig {
            block_bytes: 4 << 10,
            read_policy,
            ..Default::default()
        },
    )
}

#[test]
fn cross_access_batches_respect_submission_order_and_cancel_revokes_queued_writes() {
    let gate = Gate::new(|io| io.write);
    let tap = Tap::new(vec![gate.clone()]);
    let backend = GateBackend {
        inner: InMemoryBackend::new(vec![50e6]),
        tap: tap.clone(),
    };
    let sharded = Arc::new(ShardedBackend::new(Box::new(backend), true));
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
            matches!(c.kind, CompletionKind::Cancelled { ref buf } if buf.len() == 64),
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
    let dispatches: Vec<Vec<u64>> = tap.log().into_iter().map(|io| io.keys).collect();
    assert_eq!(
        dispatches,
        vec![vec![10], vec![11, 30]],
        "cross-access coalescing or ordering broke"
    );
    assert_eq!(sharded.writes(), 3);
    assert_eq!(sharded.disk_used(0), 3 * 64);
}

/// Every disk of the system, pinned in order (equal shares on equal disks).
fn all_disks(redundancy: f64) -> QosOptions {
    QosOptions::best_effort()
        .with_redundancy(redundancy)
        .with_pinned_disks((0..DISKS).collect())
}

#[test]
fn a_held_disk_does_not_stall_the_rest_of_a_write() {
    // Hold whichever disk a write dispatches to first. The write's window
    // is interleaved across its disks, so every other layout disk still
    // takes writes while that one is stuck — a slot-by-slot walk would
    // fill the whole window on the held disk and stall there.
    let first = OnceLock::new();
    let gate = Gate::new(move |io| io.write && *first.get_or_init(|| io.disk) == io.disk);
    let tap = Tap::new(vec![gate.clone()]);
    let sys = tapped_system(vec![20e6; DISKS], &tap, ReadPolicy::default());
    let user = sys.register_user();
    let data = payload(64 * 4096, 21); // K = 64, N = 192: 24 blocks per disk
    let writer = {
        let (sys, data) = (sys.clone(), data.clone());
        std::thread::spawn(move || put(&Client::connect(&sys, user), "wide", &data, all_disks(2.0)))
    };
    let held = gate.wait_entered(1)[0];
    let fanned_out = tap.wait_until(10, |log| {
        (0..DISKS).all(|d| log.iter().any(|io| io.write && io.disk == d))
    });
    gate.release();
    writer.join().unwrap();
    assert!(
        fanned_out,
        "with disk {held} held, the write never reached every other disk"
    );

    let meta = sys.export_meta("wide").unwrap();
    assert_eq!(meta.layout.len(), DISKS);
    assert!(
        meta.layout.iter().all(|(_, ids)| ids.len() > 16),
        "every slot outlasts the 16-deep write window"
    );
    assert_eq!(check_committed_state(&sys)["wide"], data);
}

#[test]
fn per_disk_write_sequence_follows_the_layout() {
    // Interleaving changes only the order *across* disks. Each disk takes
    // a write's blocks in slot order, and an update's in id order — the
    // sequences a slot-by-slot walk issues — so fault budgets, group
    // commits and committed state are what they always were.
    let tap = Tap::new(Vec::new());
    let sys = tapped_system(speeds(), &tap, ReadPolicy::default());
    let client = Client::connect(&sys, sys.register_user());
    let mut h = client
        .open("seq", AccessMode::Write, all_disks(2.0))
        .unwrap();
    let expect = |meta: &FileMeta, ids: &dyn Fn(&[u32]) -> Vec<u32>| -> Vec<Vec<u64>> {
        let mut per_disk = vec![Vec::new(); DISKS];
        for (disk, slot) in &meta.layout {
            per_disk[*disk] = ids(slot).iter().map(|&id| meta.block_key(id)).collect();
        }
        per_disk
    };
    let mut seen = vec![Vec::new(); DISKS];
    let mut step = |what: &str, want: Vec<Vec<u64>>| {
        let all = tap.writes_per_disk(DISKS);
        for (d, keys) in all.iter().enumerate() {
            assert_eq!(keys[seen[d].len()..], want[d], "{what}: disk {d}");
        }
        seen = all;
    };

    client.write(&mut h, &payload(200_000, 31)).unwrap();
    let v1 = h.meta().unwrap().clone();
    assert!(v1.layout.iter().all(|(_, ids)| !ids.is_empty()));
    step("write", expect(&v1, &|slot| slot.to_vec()));

    client.write(&mut h, &payload(260_000, 32)).unwrap();
    let v2 = h.meta().unwrap().clone();
    step("overwrite", expect(&v2, &|slot| slot.to_vec()));

    client.update(&mut h, 9_000, &[0x5Au8; 12_000]).unwrap();
    let v3 = h.meta().unwrap().clone();
    let dirty: Vec<u32> = v2
        .odd_keys
        .symmetric_difference(&v3.odd_keys)
        .copied()
        .collect();
    assert!(dirty.len() > 1);
    step(
        "update",
        expect(&v3, &|slot| {
            let mut ids: Vec<u32> = slot
                .iter()
                .copied()
                .filter(|id| dirty.contains(id))
                .collect();
            ids.sort_unstable();
            ids
        }),
    );
    client.close(h).unwrap();
    check_committed_state(&sys);
}

#[test]
fn a_held_disk_does_not_stall_read_repair_audit_or_rewrites() {
    // A degraded read queues its file; the drain scrubs it: it reads every
    // block, then rewrites the damage in place. Both passes are
    // interleaved across the file's disks on the ring: holding one disk's
    // late reads, then its rewrites, must not keep the other disks from
    // theirs. Slot 0 is held — where a walk that reads and rewrites one
    // block at a time, layout order, id order, gets stuck first.
    let audit_target: Arc<OnceLock<(usize, BTreeSet<u64>)>> = Arc::default();
    let rewrite_target: Arc<OnceLock<usize>> = Arc::default();
    let audit_gate = {
        let target = audit_target.clone();
        Gate::new(move |io| {
            !io.write
                && target
                    .get()
                    .is_some_and(|(d, late)| io.disk == *d && late.contains(&io.keys[0]))
        })
    };
    let rewrite_gate = {
        let target = rewrite_target.clone();
        Gate::new(move |io| io.write && target.get() == Some(&io.disk))
    };
    let tap = Tap::new(vec![audit_gate.clone(), rewrite_gate.clone()]);
    let sys = tapped_system(vec![20e6; DISKS], &tap, ReadPolicy::Static);
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(16 * 4096, 41); // K = 16, N = 128: 16 blocks per disk
    put(&client, "healed", &data, all_disks(7.0));
    let meta = sys.export_meta("healed").unwrap();
    let late: Vec<BTreeSet<u64>> = meta
        .layout
        .iter()
        .map(|(_, ids)| ids[12..].iter().map(|&id| meta.block_key(id)).collect())
        .collect();
    let seq = SeedSequence::new(0x5EED);
    let lost: Vec<usize> = (0..DISKS)
        .map(|d| {
            sys.lose_blocks(d, 0.3, &seq.subsequence("lose", d as u64))
                .len()
        })
        .collect();
    assert!(
        lost.iter().all(|&n| n > 0),
        "every disk has damage: {lost:?}"
    );

    // The read, ungated, only queues the file.
    let h = client
        .open("healed", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data);
    client.close(h).unwrap();
    let service = RepairService::new(Client::connect(&sys, client.identity()));
    assert_eq!(service.pending(), ["healed"]);

    let held = meta.layout[0].0;
    audit_target.set((held, late[0].clone())).unwrap();
    rewrite_target.set(held).unwrap();
    let mark = tap.log().len();
    let drain = std::thread::spawn(move || service.run_enqueued(usize::MAX));
    let audited = tap.wait_until(10, |log| {
        (0..DISKS).all(|slot| {
            log[mark..]
                .iter()
                .any(|io| !io.write && late[slot].contains(&io.keys[0]))
        })
    });
    audit_gate.release();
    let rewritten = tap.wait_until(10, |log| {
        (0..DISKS).all(|d| log[mark..].iter().any(|io| io.write && io.disk == d))
    });
    rewrite_gate.release();
    let report = drain.join().unwrap();
    assert!(
        audited,
        "with disk {held}'s reads held, the other disks' reads never ran"
    );
    assert!(
        rewritten,
        "with disk {held}'s rewrites held, the other disks' never ran"
    );
    let lost: usize = lost.iter().sum();
    assert_eq!(
        report.blocks_restored(),
        lost,
        "the whole damage set, restored in place"
    );
    assert_eq!(sys.pool_outstanding_bytes(), 0, "scrub leaked pool buffers");
    assert_eq!(check_committed_state(&sys)["healed"], data);
}

#[test]
fn a_degraded_read_writes_nothing_and_reads_only_its_own_access() {
    // Read-repair is off the reader's critical path: a read that decodes
    // despite damage returns at its decode point. On the tap it issues
    // no block write, and no block read beyond the ones it submitted —
    // each of its own file's blocks at most once — and it leaves its
    // file on the repair backlog.
    let tap = Tap::new(Vec::new());
    let sys = tapped_system(speeds(), &tap, ReadPolicy::Static);
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(32 * 4096, 61);
    put(&client, "queued", &data, all_disks(2.0));
    let meta = sys.export_meta("queued").unwrap();
    let seq = SeedSequence::new(0xDE6);
    let lost: usize = (0..DISKS)
        .map(|d| {
            sys.lose_blocks(d, 0.3, &seq.subsequence("lose", d as u64))
                .len()
        })
        .sum();
    assert!(lost > 0);

    let mark = tap.log().len();
    let h = client
        .open("queued", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    let (got, report) = client.read_with_report(&h).unwrap();
    client.close(h).unwrap();
    assert_eq!(got, data);
    assert!(report.blocks_missing > 0, "the read met no damage");

    let log = tap.log().split_off(mark);
    let writes: Vec<&Io> = log.iter().filter(|io| io.write).collect();
    assert!(writes.is_empty(), "a degraded read wrote: {writes:?}");
    let stored: BTreeSet<u64> = meta
        .layout
        .iter()
        .flat_map(|(_, ids)| ids.iter().map(|&id| meta.block_key(id)))
        .collect();
    let mut read = BTreeSet::new();
    for io in &log {
        assert!(stored.contains(&io.keys[0]), "read a foreign block");
        assert!(read.insert(io.keys[0]), "read block {} twice", io.keys[0]);
    }
    let submitted = meta.stored_blocks() - report.blocks_deferred;
    assert!(
        read.len() <= submitted,
        "{} block reads for {submitted} submitted",
        read.len()
    );
    assert_eq!(report.blocks_repaired, 0);
    let service = RepairService::new(Client::connect(&sys, client.identity()));
    assert_eq!(service.pending(), ["queued"], "the damage was not queued");
    assert_eq!(service.run_enqueued(usize::MAX).blocks_restored(), lost);
    assert_eq!(check_committed_state(&sys)["queued"], data);
}

#[test]
fn every_block_read_and_write_rides_the_ring() {
    // Blocks put back where a disk refused them — a write's displaced
    // share, a scrub's relocations — go through the ring
    // like every other block I/O, so its queues, load map and group
    // commits see all of the traffic. The tap records which thread did
    // each backend read and write; every one must be a ring worker.
    let tap = Tap::new(Vec::new());
    let sys = tapped_system(vec![20e6; DISKS], &tap, ReadPolicy::default());
    let client = Client::connect(&sys, sys.register_user());
    let data = payload(32 * 4096, 51);
    let ids_on = |name: &str, disk: usize| {
        let meta = sys.export_meta(name).unwrap();
        meta.layout
            .iter()
            .filter(|(d, _)| *d == disk)
            .map(|(_, ids)| ids.len())
            .sum::<usize>()
    };

    // A write with one refusing disk: its share moves to the others.
    sys.set_disk_offline(3, true);
    put(&client, "routed", &data, all_disks(2.0));
    sys.set_disk_offline(3, false);
    assert_eq!(ids_on("routed", 3), 0, "the refused share was relocated");

    // A degraded read whose home disk refuses the rewrites of the drain
    // that repairs it: relocation.
    put(&client, "repaired", &data, all_disks(2.0));
    let homed = ids_on("repaired", 5);
    sys.set_disk_offline(5, true);
    let h = client
        .open("repaired", AccessMode::Read, QosOptions::best_effort())
        .unwrap();
    assert_eq!(client.read(&h).unwrap(), data);
    client.close(h).unwrap();
    let drain = RepairService::new(Client::connect(&sys, client.identity()))
        .eager()
        .run_enqueued(usize::MAX);
    sys.set_disk_offline(5, false);
    assert_eq!(drain.blocks_restored(), homed, "disk 5's share, relocated");
    assert_eq!(ids_on("repaired", 5), 0);

    // A scrub with a disk offline: its share is restored elsewhere.
    let homed = ids_on("routed", 6);
    sys.set_disk_offline(6, true);
    let scrub = client.scrub("routed").unwrap();
    sys.set_disk_offline(6, false);
    assert_eq!(scrub.blocks_restored, homed, "disk 6's share, relocated");
    assert_eq!(ids_on("routed", 6), 0);

    let off_ring: Vec<Io> = tap
        .log()
        .into_iter()
        .filter(|io| !io.thread.starts_with("io-ring-"))
        .collect();
    assert!(
        off_ring.is_empty(),
        "{} block I/Os ran off the ring, first {:?}",
        off_ring.len(),
        off_ring.first()
    );
    let committed = check_committed_state(&sys);
    assert_eq!(
        (&committed["routed"], &committed["repaired"]),
        (&data, &data)
    );
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
    // *observes* is schedule-dependent. Read-repair is canonical by
    // construction: a read only queues its file, and the drain is a full
    // scrub, so the committed set is the full damage set in every run and
    // the schedule moves wall-clock only. Static and Adaptive are two
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
        let drain = RepairService::new(Client::connect(&sys, client.identity()))
            .eager()
            .run_enqueued(usize::MAX);
        assert_eq!(drain.repaired(), 2, "the reads queued both files");
        assert!(drain.failed.is_empty(), "drain failed: {:?}", drain.failed);
        sys.set_disk_offline(1, false);
        let sweep = RepairService::new(Client::connect(&sys, client.identity()))
            .eager()
            .sweep();
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
