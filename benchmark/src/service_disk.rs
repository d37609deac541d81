//! `ServiceDisk`: a backend shim that gives each disk a service time and
//! counts what the disks were asked to do.
//!
//! A disk serves one dispatch at a time. A write dispatch of `b` blocks
//! costs `write_dispatch + b × write_block`; a block read costs
//! `read_block`. Service intervals lie on the model's timeline: a sleep
//! wakes late (here by about a tenth of a millisecond, more on a busy
//! host), and a disk that is asked again within [`TURNAROUND`] of handing
//! back a result starts the next interval where the last one was due to
//! end plus the caller's turnaround, so a disk that is kept busy serves at
//! exactly the modelled rate whatever the host's timers do.
//! Deletes, probes and fault injection cost nothing. Every method of
//! [`StorageBackend`] and [`DiskShard`] is forwarded, so faults injected
//! through the shim reach the store underneath.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use robustore_core::{DiskShard, RefusedWrite, StorageBackend, StoreError};
use robustore_simkit::SeedSequence;

use crate::trace::Tracer;

/// A disk asked again this soon after it handed back a result was never
/// idle: the caller had the next request queued (a ring worker takes a few
/// microseconds to pick it; a worker woken from idle takes longer).
const TURNAROUND: Duration = Duration::from_micros(100);

/// One disk's service times.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskModel {
    pub write_dispatch: Duration,
    pub write_block: Duration,
    pub read_block: Duration,
}

/// What one disk was asked to do. Reads are counted per serviced
/// request (`read_dispatches`) and per block actually returned.
#[derive(Debug, Default)]
pub struct DiskCounters {
    pub read_dispatches: AtomicU64,
    pub read_blocks: AtomicU64,
    pub write_dispatches: AtomicU64,
    pub write_blocks: AtomicU64,
    pub read_busy_ns: AtomicU64,
    pub write_busy_ns: AtomicU64,
}

/// A point-in-time copy of every disk's counters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub read_dispatches: Vec<u64>,
    pub read_blocks: Vec<u64>,
    pub write_dispatches: Vec<u64>,
    pub write_blocks: Vec<u64>,
    pub read_busy_ns: Vec<u64>,
    pub write_busy_ns: Vec<u64>,
}

impl Snapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Snapshot {
            read_dispatches: sub(&self.read_dispatches, &earlier.read_dispatches),
            read_blocks: sub(&self.read_blocks, &earlier.read_blocks),
            write_dispatches: sub(&self.write_dispatches, &earlier.write_dispatches),
            write_blocks: sub(&self.write_blocks, &earlier.write_blocks),
            read_busy_ns: sub(&self.read_busy_ns, &earlier.read_busy_ns),
            write_busy_ns: sub(&self.write_busy_ns, &earlier.write_busy_ns),
        }
    }
}

/// The harness's handle on the disks after the backend has moved into
/// the `System`: models, counters, and the tracer service spans go to.
pub struct Disks {
    pub models: Vec<DiskModel>,
    counters: Vec<DiskCounters>,
    /// Per disk: when its last service interval was due to end and when
    /// the result was really handed back. Held across the service, which
    /// is what makes a disk serve one dispatch at a time.
    clocks: Vec<Mutex<Option<(Instant, Instant)>>>,
    tracer: Option<Arc<Tracer>>,
}

impl Disks {
    pub fn snapshot(&self) -> Snapshot {
        let col = |f: fn(&DiskCounters) -> &AtomicU64| {
            self.counters.iter().map(|c| f(c).load(Relaxed)).collect()
        };
        Snapshot {
            read_dispatches: col(|c| &c.read_dispatches),
            read_blocks: col(|c| &c.read_blocks),
            write_dispatches: col(|c| &c.write_dispatches),
            write_blocks: col(|c| &c.write_blocks),
            read_busy_ns: col(|c| &c.read_busy_ns),
            write_busy_ns: col(|c| &c.write_busy_ns),
        }
    }

    /// Run `op` as one dispatch on `disk`, holding the caller (and so the
    /// disk) for the modelled service time, and account it.
    fn serve<R>(
        &self,
        disk: usize,
        key: u64,
        write_blocks: Option<usize>,
        op: impl FnOnce() -> (R, usize),
    ) -> R {
        let model = &self.models[disk];
        let mut clock = self.clocks[disk].lock().expect("no service panicked");
        let begun = Instant::now();
        let (result, blocks_done) = op();
        let cost = match write_blocks {
            Some(b) => model.write_dispatch + model.write_block * b as u32,
            None => model.read_block,
        };
        let start = match *clock {
            Some((due, handed_back)) if begun.duration_since(handed_back) <= TURNAROUND => {
                due + begun.duration_since(handed_back)
            }
            _ => begun,
        };
        let due = start + cost;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let ended = Instant::now();
        *clock = Some((due, ended));
        drop(clock);
        let busy = (ended - begun).as_nanos() as u64;
        let c = &self.counters[disk];
        let name = if write_blocks.is_some() {
            c.write_dispatches.fetch_add(1, Relaxed);
            c.write_blocks.fetch_add(blocks_done as u64, Relaxed);
            c.write_busy_ns.fetch_add(busy, Relaxed);
            "disk.write"
        } else {
            c.read_dispatches.fetch_add(1, Relaxed);
            c.read_blocks.fetch_add(blocks_done as u64, Relaxed);
            c.read_busy_ns.fetch_add(busy, Relaxed);
            "disk.read"
        };
        if let Some(tracer) = &self.tracer {
            tracer.disk(name, key, begun, ended);
        }
        result
    }
}

/// A single-block result with the number of blocks it moved.
fn counted<T, E>(r: Result<T, E>) -> (Result<T, E>, usize) {
    let done = r.is_ok() as usize;
    (r, done)
}

fn landed(results: &[Result<(), RefusedWrite>]) -> usize {
    results.iter().filter(|r| r.is_ok()).count()
}

/// The shim over a whole backend. `System` shards it at once
/// ([`StorageBackend::try_shard`]), so in a running system the per-disk
/// [`ServiceShard`]s do the work; the whole-backend methods apply the
/// same service model for callers that use the backend unsharded.
pub struct ServiceDisk {
    inner: Box<dyn StorageBackend + Send>,
    disks: Arc<Disks>,
}

impl ServiceDisk {
    /// Wrap `inner`, one model per disk. Returns the shim and the
    /// harness's handle on its counters.
    pub fn new(
        inner: Box<dyn StorageBackend + Send>,
        models: Vec<DiskModel>,
        tracer: Option<Arc<Tracer>>,
    ) -> (Self, Arc<Disks>) {
        assert_eq!(inner.num_disks(), models.len(), "one model per disk");
        let disks = Arc::new(Disks {
            counters: models.iter().map(|_| DiskCounters::default()).collect(),
            clocks: models.iter().map(|_| Mutex::new(None)).collect(),
            models,
            tracer,
        });
        (
            ServiceDisk {
                inner,
                disks: disks.clone(),
            },
            disks,
        )
    }
}

impl StorageBackend for ServiceDisk {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn write_block(&mut self, disk: usize, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        let inner = &mut self.inner;
        self.disks.serve(disk, block, Some(1), || {
            counted(inner.write_block(disk, block, data))
        })
    }

    fn read_block(&self, disk: usize, block: u64) -> Result<Vec<u8>, StoreError> {
        self.disks.serve(disk, block, None, || {
            counted(self.inner.read_block(disk, block))
        })
    }

    fn read_block_into(
        &self,
        disk: usize,
        block: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.disks.serve(disk, block, None, || {
            counted(self.inner.read_block_into(disk, block, buf))
        })
    }

    fn commit_batch(
        &mut self,
        disk: usize,
        batch: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<(), RefusedWrite>> {
        let inner = &mut self.inner;
        let (first, len) = (batch.first().map_or(0, |b| b.0), batch.len());
        self.disks.serve(disk, first, Some(len), || {
            let r = inner.commit_batch(disk, batch);
            let done = landed(&r);
            (r, done)
        })
    }

    fn try_shard(&mut self) -> Option<Vec<Box<dyn DiskShard>>> {
        let disks = self.disks.clone();
        self.inner.try_shard().map(|shards| {
            shards
                .into_iter()
                .map(|inner| {
                    Box::new(ServiceShard {
                        inner,
                        disks: disks.clone(),
                    }) as Box<dyn DiskShard>
                })
                .collect()
        })
    }

    fn has_block(&self, disk: usize, block: u64) -> bool {
        self.inner.has_block(disk, block)
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

    fn count_read(&mut self) {
        self.inner.count_read()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }

    fn set_offline(&mut self, disk: usize, offline: bool) {
        self.inner.set_offline(disk, offline)
    }

    fn drop_random_blocks(&mut self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.drop_random_blocks(disk, fraction, seq)
    }

    fn corrupt_random_blocks(
        &mut self,
        disk: usize,
        fraction: f64,
        seq: &SeedSequence,
    ) -> Vec<u64> {
        self.inner.corrupt_random_blocks(disk, fraction, seq)
    }
}

/// One disk of a sharded [`ServiceDisk`].
pub struct ServiceShard {
    inner: Box<dyn DiskShard>,
    disks: Arc<Disks>,
}

impl DiskShard for ServiceShard {
    fn disk_id(&self) -> usize {
        self.inner.disk_id()
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        let inner = &mut self.inner;
        self.disks.serve(inner.disk_id(), block, Some(1), || {
            counted(inner.write_block(block, data))
        })
    }

    fn commit_batch(&mut self, batch: Vec<(u64, Vec<u8>)>) -> Vec<Result<(), RefusedWrite>> {
        let inner = &mut self.inner;
        let (first, len) = (batch.first().map_or(0, |b| b.0), batch.len());
        self.disks.serve(inner.disk_id(), first, Some(len), || {
            let r = inner.commit_batch(batch);
            let done = landed(&r);
            (r, done)
        })
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        self.disks.serve(self.inner.disk_id(), block, None, || {
            counted(self.inner.read_block_into(block, buf))
        })
    }

    fn has_block(&self, block: u64) -> bool {
        self.inner.has_block(block)
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

    fn set_offline(&mut self, offline: bool) {
        self.inner.set_offline(offline)
    }

    fn drop_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.drop_random_blocks(fraction, seq)
    }

    fn corrupt_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.corrupt_random_blocks(fraction, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustore_core::{AccessMode, Client, InMemoryBackend, QosOptions, System, SystemConfig};

    fn system(models: Vec<DiskModel>) -> (System, Arc<Disks>) {
        let inner = Box::new(InMemoryBackend::uniform(models.len(), 50e6));
        let (shim, disks) = ServiceDisk::new(inner, models, None);
        let config = SystemConfig {
            block_bytes: 4 << 10,
            ..Default::default()
        };
        (System::with_backend(Box::new(shim), config), disks)
    }

    /// Block loss, bit rot and an outage injected through the shim all
    /// reach the store underneath: a read observes each of them.
    #[test]
    fn faults_injected_through_the_shim_are_observed_by_a_read() {
        let (sys, disks) = system(vec![DiskModel::default(); 8]);
        let client = Client::connect(&sys, sys.register_user());
        let payload = vec![0x5A; 64 << 10];
        let qos = QosOptions::best_effort()
            .with_redundancy(2.0)
            .with_num_disks(8);
        let mut h = client.open("f", AccessMode::Write, qos).unwrap();
        client.write(&mut h, &payload).unwrap();
        client.close(h).unwrap();
        let stored = sys.export_meta("f").unwrap();
        let per_disk = stored.layout[0].1.len();
        let key_on = |slot: usize| stored.block_key(stored.layout[slot].1[0]);
        assert!(
            sys.probe_block(stored.layout[0].0, key_on(0)),
            "has_block forwards"
        );

        // A whole disk each, so the read is certain to run into all three.
        let seq = SeedSequence::new(3);
        assert_eq!(
            sys.lose_blocks(0, 1.0, &seq).len(),
            per_disk,
            "drop forwards"
        );
        assert_eq!(
            sys.corrupt_blocks(1, 1.0, &seq).len(),
            per_disk,
            "rot forwards"
        );
        sys.set_disk_offline(2, true);
        assert!(!sys.probe_block(0, key_on(0)) && !sys.probe_block(2, key_on(2)));

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let (bytes, report) = client.read_with_report(&h).unwrap();
        client.close(h).unwrap();
        assert_eq!(bytes, payload);
        assert!(
            report.blocks_missing > 0,
            "lost and offline blocks read as missing"
        );
        assert!(
            report.blocks_corrupt > 0,
            "rotted blocks fail their checksum"
        );
        let s = disks.snapshot();
        assert!(s.read_blocks.iter().sum::<u64>() >= stored.coding.k as u64);
        assert_eq!(
            s.read_blocks[0] + s.read_blocks[2],
            0,
            "nothing left to serve there"
        );
        assert!(s.write_blocks.iter().sum::<u64>() >= stored.coding.n as u64);
    }

    #[test]
    fn a_write_batch_costs_one_dispatch_plus_its_blocks() {
        let model = DiskModel {
            write_dispatch: Duration::from_millis(3),
            write_block: Duration::from_millis(1),
            read_block: Duration::from_millis(2),
        };
        let inner = Box::new(InMemoryBackend::uniform(1, 50e6));
        let (mut shim, disks) = ServiceDisk::new(inner, vec![model], None);
        let mut shards = shim.try_shard().unwrap();
        let begun = Instant::now();
        let batch = (0..4).map(|k| (k, vec![1u8; 16])).collect();
        assert_eq!(landed(&shards[0].commit_batch(batch)), 4);
        assert!(begun.elapsed() >= Duration::from_millis(7));
        let mut buf = Vec::new();
        shards[0].read_block_into(2, &mut buf).unwrap();
        assert!(shards[0].read_block_into(99, &mut buf).is_err());
        // Back to back, so the three intervals abut on the model's
        // timeline however late each sleep woke.
        assert!(begun.elapsed() >= Duration::from_millis(11));
        let s = disks.snapshot();
        assert_eq!((s.write_dispatches[0], s.write_blocks[0]), (1, 4));
        assert_eq!((s.read_dispatches[0], s.read_blocks[0]), (2, 1));
        assert!(s.write_busy_ns[0] >= 7_000_000);
        assert!(s.write_busy_ns[0] + s.read_busy_ns[0] >= 11_000_000);
    }
}
