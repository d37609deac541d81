//! The four workloads and the generic pieces they are assembled from.
//!
//! Every workload is: set-up (build the `System`, populate, warm up), a
//! *main* phase with the workload's own shape, a *complement* phase of
//! closed-loop write → lose 25 % → degraded read → delete cycles on the
//! same system (so that every workload measures every kind of operation),
//! and an epilogue that checks nothing leaked. Every read is compared
//! with the payload that was written.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use robustore_core::{
    AccessMode, Client, FileHandle, FileMeta, InMemoryBackend, QosOptions, ReadReport, StoreError,
    System, SystemConfig,
};
use robustore_erasure::{LtCode, LtDecoder};
use robustore_simkit::SeedSequence;

use crate::gen::{self, Arrival, MixOp, MixStream, Payload};
use crate::service_disk::{DiskModel, Disks, ServiceDisk, Snapshot};
use crate::trace::{Ctx, Tracer};

pub const DISKS: usize = 8;
/// Degree of redundancy of every object: N = (1 + 2.0) K coded blocks.
pub const REDUNDANCY: f64 = 2.0;
/// Share of a file's blocks dropped before a degraded read.
pub const LOSS: f64 = 0.25;
/// The hidden straggler of `straggler-read`.
pub const STRAGGLER: usize = 2;
/// Share of `--seconds` given to the main phase when a complement phase
/// follows it.
const MAIN_SHARE: f64 = 0.8;
/// Degraded reads a run may skip as undecodable before it fails: this
/// share of those it tried, or `FREE_SKIPS` if that is more. Calibrated
/// rate: 3 to 6 per 1000 at K = 16 to 256 (README, rules).
pub const MAX_SKIP_SHARE: f64 = 0.02;
const FREE_SKIPS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop: write → read → lose → degraded read → delete.
    FullCycles,
    /// Closed loop, two threads with a role each: thread 0 cycles write →
    /// delete, thread 1 reads resident objects.
    WriterReader,
    /// Open loop: Poisson reads of resident files at `rate`.
    OpenLoop,
    /// Closed loop: 50/20/10/20 read/create/overwrite/delete mix.
    Mix,
}

/// The frozen constants of one workload (calibration in README.md).
#[derive(Debug)]
pub struct Cfg {
    pub name: &'static str,
    pub shape: Shape,
    pub threads: usize,
    pub block_bytes: usize,
    /// Object size of the main phase.
    pub object_bytes: usize,
    /// Object size of the complement cycles (large enough that losing a
    /// quarter of the blocks never makes an object undecodable).
    pub complement_bytes: usize,
    /// Nominal bandwidth every disk is registered with, bytes/s.
    pub nominal_speed: f64,
    pub fast: DiskModel,
    /// Model of disk [`STRAGGLER`], when it differs.
    pub slow: Option<DiskModel>,
    /// Windows the main phase is cut into for per-window medians.
    pub windows: usize,
    /// Files written in set-up and kept for the whole run.
    pub resident: usize,
    /// Open-loop arrival rate, accesses/s.
    pub rate: f64,
    /// Warm-up work per thread: cycles, accesses or mixed ops.
    pub warmup: usize,
    /// The end-to-end metric `harness.trace_overhead_ratio` compares.
    pub headline: &'static str,
    /// Let only one generator thread read at a time; a read's clock runs
    /// while it waits its turn. README, known artefacts: overlapping
    /// readers make the store's buffer pool grow without bound, and the
    /// tail latency then grows with the run's length.
    pub one_reader: bool,
}

const fn ms(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

const ZERO_DELAY: DiskModel = DiskModel {
    write_dispatch: Duration::ZERO,
    write_block: Duration::ZERO,
    read_block: Duration::ZERO,
};

pub static BULK_CPU: Cfg = Cfg {
    name: "bulk-cpu",
    shape: Shape::FullCycles,
    threads: 1,
    block_bytes: 64 << 10,
    object_bytes: 16 << 20,
    complement_bytes: 16 << 20,
    nominal_speed: 50e6,
    fast: ZERO_DELAY,
    slow: None,
    windows: 5,
    resident: 0,
    rate: 0.0,
    warmup: 2,
    headline: "write_MBps",
    one_reader: false,
};

pub static DISK_BOUND: Cfg = Cfg {
    name: "disk-bound",
    shape: Shape::WriterReader,
    threads: 2,
    block_bytes: 64 << 10,
    object_bytes: 4 << 20,
    complement_bytes: 4 << 20,
    // Registered truthfully: a 64 KiB block read takes 2 ms.
    nominal_speed: 32.768e6,
    fast: DiskModel {
        write_dispatch: ms(1),
        write_block: ms(1),
        read_block: ms(2),
    },
    slow: None,
    windows: 5,
    resident: 4,
    rate: 0.0,
    warmup: 2,
    headline: "write_MBps",
    one_reader: false,
};

pub static STRAGGLER_READ: Cfg = Cfg {
    name: "straggler-read",
    shape: Shape::OpenLoop,
    threads: 1,
    block_bytes: 16 << 10,
    object_bytes: 256 << 10,
    complement_bytes: 256 << 10,
    // Every disk claims 1 ms per 16 KiB block; disk 2 takes 8.
    nominal_speed: 16.384e6,
    fast: DiskModel {
        write_dispatch: Duration::ZERO,
        write_block: ms(1),
        read_block: ms(1),
    },
    slow: Some(DiskModel {
        write_dispatch: Duration::ZERO,
        write_block: ms(8),
        read_block: ms(8),
    }),
    // The host stalls for several hundred milliseconds now and then, and
    // the backlog of such a stall spoils the tail of whichever window it
    // falls in; about 330 accesses each, so a p95 has 16 beyond it.
    windows: 10,
    resident: 16,
    rate: 150.0,
    warmup: 100,
    headline: "read_p50_ms",
    one_reader: false,
};

pub static SMALL_FILES: Cfg = Cfg {
    name: "small-files",
    shape: Shape::Mix,
    threads: 2,
    block_bytes: 16 << 10,
    object_bytes: 32 << 10,
    complement_bytes: 256 << 10,
    nominal_speed: 50e6,
    fast: ZERO_DELAY,
    slow: None,
    windows: 5,
    resident: 20_000,
    rate: 0.0,
    warmup: 500,
    headline: "ops_per_s",
    one_reader: true,
};

pub static ALL: [&Cfg; 4] = [&BULK_CPU, &DISK_BOUND, &STRAGGLER_READ, &SMALL_FILES];

pub fn by_name(name: &str) -> Option<&'static Cfg> {
    ALL.into_iter().find(|c| c.name == name)
}

impl Cfg {
    pub fn models(&self) -> Vec<DiskModel> {
        (0..DISKS)
            .map(|d| match self.slow {
                Some(slow) if d == STRAGGLER => slow,
                _ => self.fast,
            })
            .collect()
    }

    /// Source blocks K of a main-phase object.
    pub fn k(&self) -> usize {
        self.object_bytes.div_ceil(self.block_bytes)
    }

    /// Coded blocks N stored for K source blocks (the client's rounding).
    pub fn n(&self) -> usize {
        ((1.0 + REDUNDANCY) * self.k() as f64).round() as usize
    }

    fn has_complement(&self) -> bool {
        self.shape != Shape::FullCycles
    }

    /// Files `res-<i>` written in set-up and kept for the whole run.
    fn resident_files(&self) -> usize {
        match self.shape {
            Shape::Mix => 0, // its residents are the threads' live keys
            _ => self.resident,
        }
    }
}

pub fn qos() -> QosOptions {
    QosOptions::best_effort()
        .with_redundancy(REDUNDANCY)
        .with_num_disks(DISKS)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Read,
    Degraded,
    Delete,
}

/// One completed operation. `start_ns` is the due time for open-loop
/// accesses; both are offsets from the start of the timed run.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub kind: Kind,
    pub thread: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// Sums over the `ReadReport`s of one kind of read.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadAgg {
    pub reads: u64,
    pub k: u64,
    pub stored: u64,
    pub fetched: u64,
    pub cancelled: u64,
    pub deferred: u64,
    pub waves: u64,
    pub missing: u64,
    pub repaired: u64,
}

impl ReadAgg {
    fn add(&mut self, k: usize, stored: usize, r: &ReadReport) {
        self.reads += 1;
        self.k += k as u64;
        self.stored += stored as u64;
        self.fetched += r.blocks_fetched as u64;
        self.cancelled += r.blocks_cancelled as u64;
        self.deferred += r.blocks_deferred as u64;
        self.waves += r.waves as u64;
        self.missing += r.blocks_missing as u64;
        self.repaired += r.blocks_repaired as u64;
    }

    fn merge(&mut self, o: &ReadAgg) {
        self.reads += o.reads;
        self.k += o.k;
        self.stored += o.stored;
        self.fetched += o.fetched;
        self.cancelled += o.cancelled;
        self.deferred += o.deferred;
        self.waves += o.waves;
        self.missing += o.missing;
        self.repaired += o.repaired;
    }
}

/// What one generator thread did.
#[derive(Debug, Default)]
pub struct Tally {
    pub log: Vec<OpRec>,
    pub attempted: u64,
    pub failed: u64,
    pub intact: ReadAgg,
    pub degraded: ReadAgg,
    /// Objects a 25 % loss left undecodable: no degraded read was tried.
    pub degraded_skipped: u64,
    /// How late each open-loop access was handed to the store, µs.
    pub late_us: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, mut o: Tally) {
        self.log.append(&mut o.log);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.intact.merge(&o.intact);
        self.degraded.merge(&o.degraded);
        self.degraded_skipped += o.degraded_skipped;
        self.late_us.append(&mut o.late_us);
    }
}

/// The keys of one small-files thread: which exist (with the payload
/// they hold) and which are free.
#[derive(Debug, Default)]
pub struct Keys {
    live: Vec<(u32, u16)>,
    free: Vec<u32>,
}

/// A set-up system and everything the phases need.
pub struct State {
    pub cfg: &'static Cfg,
    pub seq: SeedSequence,
    pub system: System,
    pub disks: Arc<Disks>,
    pub tracer: Option<Arc<Tracer>>,
    /// One client per generator thread.
    pub clients: Vec<Client>,
    /// Payloads of main-phase objects.
    pub pool: Vec<Payload>,
    /// Payloads of complement-phase objects.
    pub complement_pool: Vec<Payload>,
    /// Open-loop workload: read handles of the resident files, kept open.
    handles: Vec<FileHandle>,
    /// Small-files: per-thread key state.
    keys: Vec<Keys>,
    /// Held across a read when the workload allows one reader at a time.
    read_gate: Mutex<()>,
}

fn time_span<R>(
    tr: Option<&Tracer>,
    parent: Option<Ctx>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.leaf(parent, name, f),
        None => f(),
    }
}

/// One generator thread: a client, a clock and a tally.
struct Gen<'a> {
    cfg: &'static Cfg,
    system: &'a System,
    client: &'a Client,
    tracer: Option<&'a Tracer>,
    read_gate: Option<&'a Mutex<()>>,
    thread: usize,
    t0: Instant,
    tally: Tally,
}

impl<'a> Gen<'a> {
    fn new(st: &'a State, thread: usize, t0: Instant) -> Self {
        Gen {
            cfg: st.cfg,
            system: &st.system,
            client: &st.clients[thread],
            tracer: st.tracer.as_deref(),
            read_gate: st.cfg.one_reader.then_some(&st.read_gate),
            thread,
            t0,
            tally: Tally::default(),
        }
    }

    fn record(&mut self, kind: Kind, start: Instant, end: Instant, bytes: usize, ok: bool) {
        self.tally.attempted += 1;
        if !ok {
            self.tally.failed += 1;
            return;
        }
        self.tally.log.push(OpRec {
            kind,
            thread: self.thread as u8,
            start_ns: (start - self.t0).as_nanos() as u64,
            end_ns: (end - self.t0).as_nanos() as u64,
            bytes: bytes as u64,
        });
    }

    /// `open(Write) + write + close`, timed as one operation.
    fn write(&mut self, parent: Option<Ctx>, name: &str, payload: &Payload) -> bool {
        let tr = self.tracer;
        let op = tr.map(|t| t.begin(parent));
        let ctx = op.map(|o| o.ctx);
        let start = Instant::now();
        let mut file_id = 0;
        let result = time_span(tr, ctx, "client.open", || {
            self.client.open(name, AccessMode::Write, qos())
        })
        .and_then(|mut h| {
            let written = time_span(tr, ctx, "client.write", || {
                self.client.write(&mut h, &payload.bytes)
            });
            file_id = h.meta().map_or(0, |m| m.file_id);
            let closed = time_span(tr, ctx, "client.close", || self.client.close(h));
            written.and(closed)
        });
        let end = Instant::now();
        if let (Some(t), Some(op)) = (tr, op) {
            t.end(op, "op.write", file_id);
        }
        if let Err(e) = &result {
            eprintln!("write {name} failed: {e:?}");
        }
        self.record(Kind::Write, start, end, payload.bytes.len(), result.is_ok());
        result.is_ok()
    }

    /// `open(Read) + read + close`, timed as one operation; the bytes
    /// are then compared with `payload` outside the timed interval.
    fn read(&mut self, parent: Option<Ctx>, name: &str, payload: &Payload, kind: Kind) -> bool {
        let tr = self.tracer;
        let (op_name, call_name) = match kind {
            Kind::Read => ("op.read", "client.read"),
            _ => ("op.degraded_read", "client.read_degraded"),
        };
        let op = tr.map(|t| t.begin(parent));
        let ctx = op.map(|o| o.ctx);
        let start = Instant::now();
        let one_reader = self.read_gate.map(|gate| {
            time_span(tr, ctx, "harness.read_gate", || {
                gate.lock().expect("no reader panicked")
            })
        });
        let mut shape = (0, 0, 0);
        let result = time_span(tr, ctx, "client.open", || {
            self.client
                .open(name, AccessMode::Read, QosOptions::best_effort())
        })
        .and_then(|h| {
            if let Some(m) = h.meta() {
                shape = (m.file_id, m.coding.k, m.stored_blocks());
            }
            let read = time_span(tr, ctx, call_name, || self.client.read_with_report(&h));
            let closed = time_span(tr, ctx, "client.close", || self.client.close(h));
            closed.and(read)
        });
        drop(one_reader);
        let end = Instant::now();
        if let (Some(t), Some(op)) = (tr, op) {
            t.end(op, op_name, shape.0);
        }
        let ok = match &result {
            Ok((bytes, report)) => {
                let agg = if kind == Kind::Read {
                    &mut self.tally.intact
                } else {
                    &mut self.tally.degraded
                };
                agg.add(shape.1, shape.2, report);
                let same = time_span(
                    tr.filter(|_| parent.is_some()),
                    parent,
                    "harness.verify",
                    || gen::digest(bytes) == payload.digest,
                );
                if !same {
                    eprintln!("read {name} returned wrong bytes");
                }
                same
            }
            Err(e) => {
                eprintln!("read {name} failed: {e:?}");
                false
            }
        };
        self.record(kind, start, end, payload.bytes.len(), ok);
        ok
    }

    fn delete(&mut self, parent: Option<Ctx>, name: &str) -> bool {
        let tr = self.tracer;
        let op = tr.map(|t| t.begin(parent));
        let start = Instant::now();
        let result = time_span(tr, op.map(|o| o.ctx), "client.delete", || {
            self.client.delete(name)
        });
        let end = Instant::now();
        if let (Some(t), Some(op)) = (tr, op) {
            t.end(op, "op.delete", 0);
        }
        if let Err(e) = &result {
            eprintln!("delete {name} failed: {e:?}");
        }
        self.record(Kind::Delete, start, end, 0, result.is_ok());
        result.is_ok()
    }

    /// Closed-loop cycles until `until`: write, optionally read, optionally
    /// lose [`LOSS`] of the blocks and (if the object survived) read
    /// again, delete. At least one cycle runs.
    fn cycles(
        &mut self,
        seq: &SeedSequence,
        pool: &[Payload],
        prefix: &str,
        until: Instant,
        intact: bool,
        degraded: bool,
    ) {
        for i in 0.. {
            let root = self.tracer.map(|t| t.begin(None));
            let ctx = root.map(|r| r.ctx);
            let name = format!("{prefix}-{}-{i}", self.thread);
            let payload = &pool[i % pool.len()];
            if self.write(ctx, &name, payload) {
                if intact {
                    self.read(ctx, &name, payload, Kind::Read);
                }
                if degraded {
                    let loss = seq.subsequence(prefix, (self.thread * 1_000_000 + i) as u64);
                    let readable = time_span(self.tracer, ctx, "harness.lose", || {
                        self.system.lose_file_blocks(&name, LOSS, &loss);
                        still_decodable(self.system, &name)
                    });
                    if readable {
                        self.read(ctx, &name, payload, Kind::Degraded);
                    } else {
                        self.tally.degraded_skipped += 1;
                    }
                }
                self.delete(ctx, &name);
            }
            if let (Some(t), Some(root)) = (self.tracer, root) {
                t.end(root, "cycle", 0);
            }
            if Instant::now() >= until {
                return;
            }
        }
    }
}

impl<'a> Gen<'a> {
    /// Closed-loop reads of the resident files, one after another, until
    /// `until` or (`rounds`) that many times each.
    fn resident_reads(&mut self, pool: &[Payload], rounds: Option<usize>, until: Instant) {
        let files = self.cfg.resident_files();
        for i in 0.. {
            if rounds.map_or_else(|| Instant::now() >= until, |r| i >= r * files) {
                return;
            }
            let f = i % files;
            self.read(None, &format!("res-{f}"), &pool[f % pool.len()], Kind::Read);
        }
    }
}

/// Whether the blocks `name` still has on the disks span its data. A
/// random quarter of an LT-coded object's blocks is, a few times in a
/// thousand, more than the code survives (most often some source block
/// is then in no surviving coded block); that is data loss, not a
/// degraded read, and the caller skips the read and counts the skip.
/// Decided from block presence alone, by a dry-run decode over one-byte
/// blocks. The dry run uses the decoder under test, so [`run`] fails a
/// run that skips more than [`MAX_SKIP_SHARE`] of its degraded reads: a
/// decoder that lost capability cannot hide as fewer samples.
pub fn still_decodable(system: &System, name: &str) -> bool {
    let Some(meta) = system.export_meta(name) else {
        return false;
    };
    let spec = &meta.coding;
    let Ok(code) = LtCode::plan(spec.k, spec.n, spec.params, spec.seed) else {
        return false;
    };
    let mut decoder = LtDecoder::new(&code, 1);
    for (disk, ids) in &meta.layout {
        for &id in ids {
            if system.probe_block(*disk, meta.block_key(id)) {
                decoder.receive(id as usize, vec![0]);
            }
        }
    }
    decoder.is_complete() || decoder.solve()
}

fn key_name(thread: usize, key: u32) -> String {
    format!("sf-{thread}-{key}")
}

impl<'a> Gen<'a> {
    /// `ops` operations of the small-files mix (`None`: until `until`).
    fn mix(
        &mut self,
        stream: &mut MixStream,
        keys: &mut Keys,
        pool: &[Payload],
        ops: Option<usize>,
        until: Instant,
    ) {
        let floor = keys.live.len() / 2;
        for done in 0.. {
            if ops.map_or_else(|| Instant::now() >= until, |n| done >= n) {
                return;
            }
            let (mut op, key_draw, payload_draw) = stream.next_op();
            // Keep the namespace inside its key space: with no free key a
            // create becomes a delete, with too few live keys the reverse.
            if op == MixOp::Create && keys.free.is_empty() {
                op = MixOp::Delete;
            } else if op == MixOp::Delete && keys.live.len() <= floor {
                op = MixOp::Create;
            }
            let fresh = (payload_draw * pool.len() as f64) as u16;
            match op {
                MixOp::Create => {
                    let key = keys
                        .free
                        .swap_remove((key_draw * keys.free.len() as f64) as usize);
                    if self.write(None, &key_name(self.thread, key), &pool[fresh as usize]) {
                        keys.live.push((key, fresh));
                    } else {
                        keys.free.push(key);
                    }
                }
                MixOp::Read | MixOp::Overwrite | MixOp::Delete => {
                    let slot = (key_draw * keys.live.len() as f64) as usize;
                    let (key, held) = keys.live[slot];
                    let name = key_name(self.thread, key);
                    match op {
                        MixOp::Read => {
                            self.read(None, &name, &pool[held as usize], Kind::Read);
                        }
                        MixOp::Overwrite => {
                            if self.write(None, &name, &pool[fresh as usize]) {
                                keys.live[slot].1 = fresh;
                            }
                        }
                        _ => {
                            if self.delete(None, &name) {
                                keys.live.swap_remove(slot);
                                keys.free.push(key);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Open-loop reads: hand `schedule` (due times relative to `self.t0`)
    /// to the store in batches, time each access from its due time.
    fn open_loop(&mut self, handles: &[FileHandle], pool: &[Payload], schedule: &[Arrival]) {
        let k = self.cfg.k();
        let mut start = 0;
        for end in gen::batch_ends(schedule, 128, 256, 20_000) {
            let batch = &schedule[start..end];
            start = end;
            let refs: Vec<&FileHandle> = batch.iter().map(|a| &handles[a.file as usize]).collect();
            let root = self.tracer.map(|t| t.begin(None));
            let handover = Instant::now();
            let since_t0 = (handover - self.t0).as_micros() as u64;
            let offsets: Vec<u64> = batch
                .iter()
                .map(|a| a.due_us.saturating_sub(since_t0))
                .collect();
            self.tally.late_us.extend(
                batch
                    .iter()
                    .map(|a| since_t0.saturating_sub(a.due_us) as f64),
            );
            let mut results = Vec::with_capacity(batch.len());
            self.client.read_many_with(&refs, Some(&offsets), |i, r| {
                let done = Instant::now();
                let report = r.map(|(bytes, report)| {
                    (
                        report,
                        gen::digest(&bytes) == pool[batch[i].file as usize].digest,
                    )
                });
                results.push((i, done, report));
            });
            for (i, done, report) in results {
                let due = self.t0 + Duration::from_micros(batch[i].due_us);
                let done = done.max(due);
                let ok = match &report {
                    Ok((report, same)) => {
                        self.tally.intact.add(k, self.cfg.n(), report);
                        if !same {
                            eprintln!("open-loop read returned wrong bytes");
                        }
                        *same
                    }
                    Err(e) => {
                        eprintln!("open-loop read failed: {e:?}");
                        false
                    }
                };
                if let (Some(t), Some(root)) = (self.tracer, root) {
                    let file_id = refs[i].meta().map_or(0, |m| m.file_id);
                    t.span_at(Some(root.ctx), "client.read", due, done, file_id);
                }
                self.record(Kind::Read, due, done, self.cfg.object_bytes, ok);
            }
            if let (Some(t), Some(root)) = (self.tracer, root) {
                t.end(root, "client.read_many", 0);
            }
        }
    }
}

/// Write `payload` as `name`, outside any timing; returns its metadata.
pub fn put(client: &Client, name: &str, payload: &Payload) -> Result<FileMeta, StoreError> {
    let mut h = client.open(name, AccessMode::Write, qos())?;
    let written = client.write(&mut h, &payload.bytes);
    let meta = h.meta().cloned();
    client.close(h)?;
    written.and(meta.ok_or(StoreError::StaleHandle))
}

/// Build the system, populate it and warm it up.
pub fn setup(cfg: &'static Cfg, seed: u64, tracer: Option<Arc<Tracer>>) -> State {
    let seq = SeedSequence::new(seed);
    let inner = Box::new(InMemoryBackend::uniform(DISKS, cfg.nominal_speed));
    let (shim, disks) = ServiceDisk::new(inner, cfg.models(), tracer.clone());
    // Only the block size is set: everything else is the store's default.
    let config = SystemConfig {
        block_bytes: cfg.block_bytes as u64,
        ..Default::default()
    };
    let system = System::with_backend(Box::new(shim), config);
    let clients = (0..cfg.threads)
        .map(|_| Client::connect(&system, system.register_user()))
        .collect();
    let pool_len = match cfg.shape {
        Shape::OpenLoop => cfg.resident,
        Shape::Mix => 64,
        _ => 4,
    };
    let mut st = State {
        cfg,
        seq,
        pool: gen::payloads(&seq, "payload", pool_len, cfg.object_bytes),
        complement_pool: if cfg.has_complement() {
            gen::payloads(&seq, "complement", 4, cfg.complement_bytes)
        } else {
            Vec::new()
        },
        system,
        disks,
        tracer: None, // set-up is never traced
        clients,
        handles: Vec::new(),
        keys: Vec::new(),
        read_gate: Mutex::new(()),
    };
    let t0 = Instant::now();
    let far = t0 + Duration::from_secs(3600);
    // The residents belong to the client that reads them: the last one.
    for f in 0..cfg.resident_files() {
        let payload = &st.pool[f % st.pool.len()];
        put(&st.clients[cfg.threads - 1], &format!("res-{f}"), payload).expect("resident write");
    }
    let warm_cycles = |g: &mut Gen| {
        for i in 0..cfg.warmup {
            let name = format!("warm-{}-{i}", g.thread);
            let payload = &st.pool[i % st.pool.len()];
            g.write(None, &name, payload);
            g.read(None, &name, payload, Kind::Read);
            g.delete(None, &name);
        }
    };
    let warm = match cfg.shape {
        Shape::FullCycles => run_threads(&st, t0, |g, _| warm_cycles(g)),
        Shape::WriterReader => run_threads(&st, t0, |g, _| match g.thread {
            0 => warm_cycles(g),
            _ => g.resident_reads(&st.pool, Some(cfg.warmup), far),
        }),
        Shape::OpenLoop => {
            // Read each resident file once (fills the buffer pool and
            // seeds every disk's service-time estimate), then a stretch
            // of paced traffic that is thrown away.
            st.handles = (0..cfg.resident)
                .map(|f| {
                    st.clients[0]
                        .open(
                            &format!("res-{f}"),
                            AccessMode::Read,
                            QosOptions::best_effort(),
                        )
                        .expect("resident open")
                })
                .collect();
            let all: Vec<&FileHandle> = st.handles.iter().collect();
            for r in st.clients[0].read_many(&all) {
                r.expect("resident read");
            }
            let horizon = cfg.warmup as f64 / cfg.rate;
            let schedule = gen::arrivals(
                &st.seq,
                "warm-arrivals",
                cfg.rate,
                horizon,
                cfg.resident as u32,
            );
            run_threads(&st, Instant::now(), |g, _| {
                g.open_loop(&st.handles, &st.pool, &schedule)
            })
        }
        Shape::Mix => {
            let per_thread = cfg.resident / cfg.threads;
            let mut keys: Vec<Keys> = (0..cfg.threads)
                .map(|_| Keys {
                    live: Vec::new(),
                    free: (0..(per_thread + per_thread / 2) as u32).collect(),
                })
                .collect();
            let tally = run_threads_with(&st, t0, &mut keys, |g, keys| {
                for i in 0..per_thread {
                    let key = keys.free.pop().expect("key space holds the residents");
                    let held = (i % st.pool.len()) as u16;
                    if g.write(None, &key_name(g.thread, key), &st.pool[held as usize]) {
                        keys.live.push((key, held));
                    }
                }
                let mut stream = MixStream::new(&st.seq.subsequence("warm-mix", 0), g.thread);
                g.mix(&mut stream, keys, &st.pool, Some(cfg.warmup), far);
            });
            st.keys = keys;
            tally
        }
    };
    assert_eq!(warm.failed, 0, "set-up operations must not fail");
    st.tracer = tracer;
    st
}

/// Run `body` on every generator thread and merge the tallies.
fn run_threads<'a>(
    st: &'a State,
    t0: Instant,
    body: impl Fn(&mut Gen<'a>, &mut ()) + Sync,
) -> Tally {
    let mut units = vec![(); st.cfg.threads];
    run_threads_with(st, t0, &mut units, body)
}

fn run_threads_with<'a, T: Send>(
    st: &'a State,
    t0: Instant,
    per_thread: &mut [T],
    body: impl Fn(&mut Gen<'a>, &mut T) + Sync,
) -> Tally {
    let body = &body;
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = per_thread
            .iter_mut()
            .enumerate()
            .map(|(thread, own)| {
                s.spawn(move || {
                    let mut g = Gen::new(st, thread, t0);
                    body(&mut g, own);
                    g.tally
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("generator thread panicked"));
        }
    });
    total
}

/// One timed phase: what happened in it, when, and what the disks did.
#[derive(Debug)]
pub struct Phase {
    pub tally: Tally,
    pub start_ns: u64,
    /// When the last operation had ended (closed-loop threads finish the
    /// operation in progress at the deadline).
    pub end_ns: u64,
    pub windows: usize,
    pub disk: Snapshot,
}

/// A timed run: the main phase, the complement phase if the workload has
/// one, and the end-of-run checks.
#[derive(Debug)]
pub struct Run {
    pub main: Phase,
    pub complement: Option<Phase>,
    pub stored_per_user_byte: f64,
    /// Failed end-of-run checks (leaked buffers, orphan blocks, too many
    /// undecodable objects).
    pub check_failures: u64,
    /// Degraded reads skipped as undecodable ÷ degraded reads wanted.
    pub degraded_skipped_share: f64,
    pub pool_reuse_ratio: f64,
    /// Read buffers the store's pool allocated during the run, MB/s.
    pub pool_fresh_mbps: f64,
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.main.tally.attempted + self.complement.as_ref().map_or(0, |c| c.tally.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.main.tally.failed
            + self.complement.as_ref().map_or(0, |c| c.tally.failed)
            + self.check_failures
    }
}

/// The main phase at the workload's own rate.
pub fn main_phase(st: &mut State, t0: Instant, secs: f64) -> Phase {
    let rate = st.cfg.rate;
    main_phase_at(st, t0, secs, rate)
}

/// The main phase, open-loop workloads at `rate` accesses/s.
pub fn main_phase_at(st: &mut State, t0: Instant, secs: f64, rate: f64) -> Phase {
    let cfg = st.cfg;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let before = st.disks.snapshot();
    let tally = match cfg.shape {
        Shape::FullCycles => run_threads(st, t0, |g, _| {
            g.cycles(&st.seq, &st.pool, "obj", until, true, true)
        }),
        Shape::WriterReader => run_threads(st, t0, |g, _| match g.thread {
            0 => g.cycles(&st.seq, &st.pool, "obj", until, false, false),
            _ => g.resident_reads(&st.pool, None, until),
        }),
        Shape::OpenLoop => {
            let lead = (start - t0).as_micros() as u64;
            let mut schedule = gen::arrivals(&st.seq, "arrivals", rate, secs, cfg.resident as u32);
            schedule.iter_mut().for_each(|a| a.due_us += lead);
            run_threads(st, t0, |g, _| g.open_loop(&st.handles, &st.pool, &schedule))
        }
        Shape::Mix => {
            let mut keys = std::mem::take(&mut st.keys);
            let tally = run_threads_with(st, t0, &mut keys, |g, keys| {
                let mut stream = MixStream::new(&st.seq, g.thread);
                g.mix(&mut stream, keys, &st.pool, None, until);
            });
            st.keys = keys;
            tally
        }
    };
    Phase {
        tally,
        start_ns: (start - t0).as_nanos() as u64,
        end_ns: (Instant::now().max(until) - t0).as_nanos() as u64,
        windows: cfg.windows,
        disk: st.disks.snapshot().since(&before),
    }
}

/// Closed-loop write → lose → degraded read → delete cycles on every
/// thread that writes in the main phase (every thread of an open loop).
pub fn complement_phase(st: &State, t0: Instant, secs: f64) -> Phase {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let before = st.disks.snapshot();
    let tally = run_threads(st, t0, |g, _| match (st.cfg.shape, g.thread) {
        // Two threads on one cycle drift in and out of step (README,
        // known artefacts), so the reader sits this phase out.
        (Shape::WriterReader, 1) => {}
        _ => g.cycles(&st.seq, &st.complement_pool, "cmp", until, false, true),
    });
    Phase {
        tally,
        start_ns: (start - t0).as_nanos() as u64,
        end_ns: (Instant::now().max(until) - t0).as_nanos() as u64,
        windows: 1,
        disk: st.disks.snapshot().since(&before),
    }
}

/// Bytes the live files should occupy on the disks, and their user bytes.
fn live_bytes(st: &State, extra: &str) -> (u64, u64) {
    let mut names: Vec<String> = vec![extra.to_string()];
    names.extend((0..st.cfg.resident_files()).map(|f| format!("res-{f}")));
    for (thread, keys) in st.keys.iter().enumerate() {
        names.extend(keys.live.iter().map(|&(key, _)| key_name(thread, key)));
    }
    names
        .iter()
        .filter_map(|n| st.system.export_meta(n))
        .fold((0, 0), |(stored, user), m| {
            (
                stored + m.stored_blocks() as u64 * m.coding.block_bytes,
                user + m.size_bytes,
            )
        })
}

/// A whole timed run of `secs` seconds on a set-up system.
pub fn run(st: &mut State, secs: f64) -> Run {
    let t0 = Instant::now();
    let fresh_before = st.system.pool_stats().0;
    let (main_secs, complement_secs) = if st.cfg.has_complement() {
        (secs * MAIN_SHARE, secs * (1.0 - MAIN_SHARE))
    } else {
        (secs, 0.0)
    };
    let main = main_phase(st, t0, main_secs);
    let complement = st
        .cfg
        .has_complement()
        .then(|| complement_phase(st, t0, complement_secs));

    // Epilogue: with one more object live, the disks must hold exactly
    // the blocks of the live files; the object reads back; once it is
    // deleted they hold exactly the residents; no read buffer is out.
    let mut check_failures = 0;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("end-of-run check failed: {what}");
            check_failures += 1;
        }
    };
    let payload = &st.pool[0];
    let stored_per_user_byte = {
        let mut g = Gen::new(st, 0, t0);
        g.tracer = None;
        check(g.write(None, "epilogue", payload), "epilogue write");
        let (stored, user) = live_bytes(st, "epilogue");
        let used = st.system.total_used();
        check(
            used == stored,
            "orphan or missing blocks while an object is live",
        );
        check(
            g.read(None, "epilogue", payload, Kind::Read),
            "epilogue read",
        );
        check(g.delete(None, "epilogue"), "epilogue delete");
        used as f64 / user as f64
    };
    check(
        st.system.total_used() == live_bytes(st, "epilogue").0,
        "orphan blocks after the run",
    );
    check(
        st.system.pool_outstanding_bytes() == 0,
        "read buffers still checked out",
    );
    let (fresh, reused) = st.system.pool_stats();
    let pool_fresh_mbps = ((fresh - fresh_before) * st.cfg.block_bytes as u64) as f64
        / 1e6
        / t0.elapsed().as_secs_f64();
    let phases = [Some(&main), complement.as_ref()];
    let tallies = || phases.iter().flatten().map(|p| &p.tally);
    let skipped: u64 = tallies().map(|t| t.degraded_skipped).sum();
    let wanted = skipped + tallies().map(|t| t.degraded.reads).sum::<u64>();
    check(
        skipped <= FREE_SKIPS.max((wanted as f64 * MAX_SKIP_SHARE) as u64),
        "too many objects undecodable after a 25 % loss",
    );
    Run {
        degraded_skipped_share: skipped as f64 / wanted.max(1) as f64,
        main,
        complement,
        stored_per_user_byte,
        check_failures,
        pool_reuse_ratio: reused as f64 / (fresh + reused).max(1) as f64,
        pool_fresh_mbps,
    }
}
