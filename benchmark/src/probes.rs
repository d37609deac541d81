//! Per-layer probes: each metric times calls into one layer's public
//! functions from outside, or reads a public report or counter.
//!
//! Probes that depend on object shape (coding, wave scheduling, queueing,
//! scrub, the layer replays) run at the workload's own block size, K, N
//! and disk model; the rest (metadata plane, sharded backend, ring
//! hand-off, reactor scaling, load sweep) are fixed-size.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use robustore_core::{
    crc32c, default_group_commit, gen_key, AccessMode, Client, CodingSpec, CompletionKind,
    DiskInfo, DiskLoad, DiskLoadMap, FileHandle, FileMeta, InMemoryBackend, IoRing, LayoutPlanner,
    Metastore, MetastoreConfig, QosOptions, ReadPolicy, RingConfig, ShardedBackend, SubmitOp,
    System, SystemConfig, WaveSlot,
};
use robustore_erasure::{Block, LtCode, LtDecoder, LtParams, SymbolDecoder};
use robustore_schemes::Placement;
use robustore_simkit::rng::uniform01;
use robustore_simkit::SeedSequence;

use crate::gen::{self, Payload};
use crate::service_disk::ServiceDisk;
use crate::stats::{median, percentile};
use crate::trace::{Ctx, Tracer};
use crate::workloads::{self, qos, Cfg, Kind, State, DISKS, LOSS, STRAGGLER_READ};

/// Files in the metadata image the metastore probes run against.
const META_IMAGE_FILES: usize = 20_000;
/// Block size of the fixed-size backend and ring probes.
const PROBE_BLOCK: usize = 64 << 10;

pub type Metrics = Vec<(&'static str, f64)>;

/// Mean seconds per call of `f`, calling it until `budget` is spent.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        if start.elapsed() >= budget {
            return start.elapsed().as_secs_f64() / calls as f64;
        }
    }
}

const SLICE: Duration = Duration::from_millis(60);

fn split(payload: &Payload, block: usize) -> Vec<Block> {
    payload
        .bytes
        .chunks(block)
        .map(|c| {
            let mut b = c.to_vec();
            b.resize(block, 0);
            b
        })
        .collect()
}

/// An equal-weight layout of N coded blocks over the disks: the coded ids
/// in the order a quiescent read requests them (round-robin over the
/// disks), and the disk of each id.
fn layout(k: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
    let per_disk = Placement::coded_weighted(k, n, &[1.0; DISKS]).per_disk;
    let depth = per_disk.iter().map(Vec::len).max().unwrap_or(0);
    let order = (0..depth)
        .flat_map(|idx| {
            per_disk
                .iter()
                .filter_map(move |d| d.get(idx).map(|b| b.semantic as usize))
        })
        .collect();
    let mut disk_of = vec![0; n];
    for (d, blocks) in per_disk.iter().enumerate() {
        for b in blocks {
            disk_of[b.semantic as usize] = d;
        }
    }
    (order, disk_of)
}

/// Feed `blocks` to a decoder until it completes (Gaussian elimination
/// as the fallback) and take the data out. Returns the decoder's
/// reception overhead.
fn decode(code: &LtCode, block: usize, blocks: impl IntoIterator<Item = (usize, Block)>) -> f64 {
    let mut decoder = LtDecoder::new(code, block);
    for (j, data) in blocks {
        if decoder.receive(j, data) {
            break;
        }
    }
    assert!(
        decoder.is_complete() || decoder.solve(),
        "probe decode must succeed"
    );
    let overhead = decoder.reception_overhead();
    std::hint::black_box(decoder.into_data().expect("complete"));
    overhead
}

/// The coding layer at the workload's (K, N, block). The measured code is
/// planned from `seq` alone, so the code graph — and with it
/// `erasure.reception_overhead` — is the same on every run of a seed.
pub fn erasure(cfg: &Cfg, seq: &SeedSequence, payload: &Payload, out: &mut Metrics) {
    let (k, n, block) = (cfg.k(), cfg.n(), cfg.block_bytes);
    let params = LtParams::default();
    let user_mb = payload.bytes.len() as f64 / 1e6;
    let seed = seq.seed_for("lt-plan", 0);
    // Timed over a run of other seeds: the cost depends on the graph drawn.
    let mut other = seed;
    let plan_s = per_call(SLICE, || {
        other = other.wrapping_add(1);
        std::hint::black_box(LtCode::plan(k, n, params, other).expect("plannable"));
    });
    let code = LtCode::plan(k, n, params, seed).expect("plannable");
    let data = split(payload, block);
    let encode_s = per_call(2 * SLICE, || {
        std::hint::black_box(code.encode(&data).expect("encodes"));
    });
    let coded = code.encode(&data).expect("encodes");
    let (order, _) = layout(k, n);
    // The first seeded loss pattern the code survives (a dry run over
    // one-byte blocks decides): at K = 2 one pattern in fifteen is fatal.
    let withheld = (0..)
        .map(|attempt| {
            let mut loss = seq.fork("probe-loss", attempt);
            (0..n)
                .map(|_| uniform01(&mut loss) < LOSS)
                .collect::<Vec<bool>>()
        })
        .find(|withheld| {
            let mut dry = LtDecoder::new(&code, 1);
            for &j in order.iter().filter(|&&j| !withheld[j]) {
                dry.receive(j, vec![0]);
            }
            dry.is_complete() || dry.solve()
        })
        .expect("some loss pattern is survivable");
    let mut intact = Vec::new();
    let mut degraded = Vec::new();
    let mut overhead = 0.0;
    let start = Instant::now();
    while intact.is_empty() || start.elapsed() < 4 * SLICE {
        for (withhold, times) in [(false, &mut intact), (true, &mut degraded)] {
            let arriving: Vec<(usize, Block)> = order
                .iter()
                .filter(|&&j| !(withhold && withheld[j]))
                .map(|&j| (j, coded[j].clone()))
                .collect();
            let begun = Instant::now();
            let eps = decode(&code, block, arriving);
            times.push(begun.elapsed().as_secs_f64());
            if !withhold {
                overhead = eps;
            }
        }
    }
    out.push(("erasure.lt_plan_us", plan_s * 1e6));
    out.push(("erasure.lt_encode_MBps", user_mb / encode_s));
    out.push(("erasure.lt_decode_MBps", user_mb / median(&mut intact)));
    out.push((
        "erasure.degraded_decode_MBps",
        user_mb / median(&mut degraded),
    ));
    out.push(("erasure.reception_overhead", overhead));
    let buf = vec![0xA5u8; PROBE_BLOCK];
    let crc_s = per_call(SLICE, || {
        std::hint::black_box(crc32c(std::hint::black_box(&buf)));
    });
    out.push(("integrity.crc32c_GBps", PROBE_BLOCK as f64 / 1e9 / crc_s));
}

fn disk_infos(speed: f64) -> Vec<DiskInfo> {
    (0..DISKS)
        .map(|id| DiskInfo {
            id,
            capacity_bytes: 1 << 40,
            used_bytes: 0,
            expected_bandwidth: speed,
            load: 0.0,
            availability: if id % 2 == 0 { 0.999 } else { 0.95 },
        })
        .collect()
}

fn planning(cfg: &Cfg, out: &mut Metrics) {
    let planner = LayoutPlanner::default();
    let infos = disk_infos(cfg.nominal_speed);
    let plan_s = per_call(SLICE, || {
        std::hint::black_box(planner.plan(&qos(), &infos).expect("plans"));
    });
    out.push(("planner.plan_us", plan_s * 1e6));
    let nominal = cfg.block_bytes as f64 / cfg.nominal_speed * 1e6;
    let per_disk = Placement::coded_weighted(cfg.k(), cfg.n(), &[1.0; DISKS]).per_disk;
    let slots: Vec<WaveSlot> = per_disk
        .iter()
        .enumerate()
        .map(|(disk, blocks)| WaveSlot {
            disk,
            blocks: blocks.len(),
            nominal_micros: nominal,
            availability: if disk % 2 == 0 { 0.999 } else { 0.95 },
        })
        .collect();
    let load = DiskLoadMap::from_loads(
        (0..DISKS)
            .map(|d| DiskLoad {
                queued: (d % 3) as u64,
                in_flight: 1,
                ewma_service_micros: nominal * (1.0 + d as f64 / 4.0),
            })
            .collect(),
    );
    let policy = ReadPolicy::default();
    let schedule_s = per_call(SLICE, || {
        std::hint::black_box(policy.schedule(&slots, cfg.k(), &load));
    });
    out.push(("adaptive.schedule_us", schedule_s * 1e6));
}

/// `open(Read) + close` on an existing file of the workload's system:
/// credential check, lock, stat. Then the same loop on two threads.
fn open_close(st: &State, out: &mut Metrics) {
    let client = &st.clients[0];
    let second = Client::connect(&st.system, client.identity());
    for name in ["probe-open-0", "probe-open-1"] {
        put(client, name, &st.pool[0]);
    }
    let spin = |client: &Client, name: &str| {
        let mut calls = 0u64;
        let secs = per_call(2 * SLICE, || {
            let h = client
                .open(name, AccessMode::Read, QosOptions::best_effort())
                .expect("opens");
            client.close(h).expect("closes");
            calls += 1;
        });
        (secs, calls)
    };
    let (alone_s, _) = spin(client, "probe-open-0");
    let paired = std::thread::scope(|s| {
        let other = s.spawn(|| spin(&second, "probe-open-1"));
        let mine = spin(client, "probe-open-0");
        1.0 / mine.0 + 1.0 / other.join().expect("probe thread").0
    });
    out.push(("client.open_close_us", alone_s * 1e6));
    out.push(("client.open_close_scaling.t2", paired * alone_s));
    for name in ["probe-open-0", "probe-open-1"] {
        client.delete(name).expect("probe delete");
    }
}

fn put(client: &Client, name: &str, payload: &Payload) -> FileMeta {
    workloads::put(client, name, payload).expect("probe write")
}

fn zero_delay_system(block: usize) -> System {
    System::new(
        InMemoryBackend::uniform(DISKS, 50e6),
        SystemConfig {
            block_bytes: block as u64,
            ..Default::default()
        },
    )
}

/// The metadata plane on an image of [`META_IMAGE_FILES`] two-block
/// files. In-memory replicas: no flush policy is involved. The
/// file-backed configuration is used for byte counts only (a sandbox
/// fsync says nothing about a device).
fn metastore(seq: &SeedSequence, scratch: &std::path::Path, out: &mut Metrics) {
    let sys = zero_delay_system(16 << 10);
    let client = Client::connect(&sys, sys.register_user());
    let template = put(
        &client,
        "template",
        &gen::payloads(seq, "meta", 1, 32 << 10)[0],
    );
    let named = |i: usize| FileMeta {
        name: format!("img-{i}"),
        file_id: i as u64 + 1,
        ..template.clone()
    };
    let mut store = Metastore::new(MetastoreConfig::default()).expect("in-memory plane");
    for i in 0..META_IMAGE_FILES {
        store.restore(named(i)).expect("image commit");
    }
    let (mut commits, mut removes) = (Vec::new(), Vec::new());
    for i in 0..512 {
        let meta = named(META_IMAGE_FILES + i);
        let name = meta.name.clone();
        store.open(&name, AccessMode::Write).expect("lock");
        let start = Instant::now();
        store.commit(meta).expect("commit");
        commits.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        store.remove(&name).expect("remove");
        removes.push(start.elapsed().as_secs_f64() * 1e6);
        store.close(&name, AccessMode::Write);
    }
    let names: Vec<String> = (0..META_IMAGE_FILES).map(|i| format!("img-{i}")).collect();
    let mut at = 0;
    let stat_s = per_call(SLICE, || {
        at = (at + 1) % names.len();
        std::hint::black_box(store.stat(&names[at]));
    });
    let start = Instant::now();
    store.crash_and_recover().expect("recovers");
    let recover_s = start.elapsed().as_secs_f64();
    assert_eq!(
        store.file_count(),
        META_IMAGE_FILES,
        "recovery kept the image"
    );
    out.push(("metastore.commit_us_p50", median(&mut commits)));
    out.push(("metastore.remove_us_p50", median(&mut removes)));
    out.push(("metastore.stat_ns", stat_s * 1e9));
    out.push((
        "metastore.recover_files_per_s",
        META_IMAGE_FILES as f64 / recover_s,
    ));

    let dir = scratch.join("wal");
    let mut durable = Metastore::new(MetastoreConfig {
        dir: Some(dir.clone()),
        ..Default::default()
    })
    .expect("file-backed plane");
    durable.restore(named(0)).expect("first commit"); // burns the id chunk once
    let before = dir_bytes(&dir);
    let commits = 64;
    for i in 1..=commits {
        durable.restore(named(i)).expect("file-backed commit");
    }
    out.push((
        "metastore.wal_bytes_per_commit",
        (dir_bytes(&dir) - before) as f64 / commits as f64,
    ));
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn ring_config() -> RingConfig {
    RingConfig {
        group_commit: default_group_commit(),
        read_attempts: 3,
        backoff_micros: 0,
    }
}

/// The sharded backend and the ring over zero-delay disks, 64 KiB blocks.
fn backend_and_ring(out: &mut Metrics) {
    let backend = Arc::new(ShardedBackend::new(
        Box::new(InMemoryBackend::uniform(DISKS, 50e6)),
        true,
    ));
    let blocks =
        |count: usize| -> Vec<Vec<u8>> { (0..count).map(|i| vec![i as u8; PROBE_BLOCK]).collect() };
    let count = 256;
    let fresh = blocks(count);
    let start = Instant::now();
    for (i, data) in fresh.into_iter().enumerate() {
        backend
            .write_block(i % DISKS, i as u64, data)
            .expect("writes");
    }
    let write_s = start.elapsed().as_secs_f64();
    let mut buf = Vec::with_capacity(PROBE_BLOCK);
    let start = Instant::now();
    for i in 0..count {
        backend
            .read_block_into(i % DISKS, i as u64, &mut buf)
            .expect("reads");
    }
    let read_s = start.elapsed().as_secs_f64();
    let batches: Vec<Vec<(u64, Vec<u8>)>> = (0..count / 8)
        .map(|b| {
            (0..8)
                .map(|i| ((1000 + b * 8 + i) as u64, vec![b as u8; PROBE_BLOCK]))
                .collect()
        })
        .collect();
    let start = Instant::now();
    for (b, batch) in batches.into_iter().enumerate() {
        assert!(backend
            .commit_batch(b % DISKS, batch)
            .iter()
            .all(Result::is_ok));
    }
    let batch_s = start.elapsed().as_secs_f64();
    out.push(("sharded.write_block_us", write_s / count as f64 * 1e6));
    out.push(("sharded.read_block_into_us", read_s / count as f64 * 1e6));
    out.push((
        "sharded.commit_batch_us_per_block",
        batch_s / count as f64 * 1e6,
    ));

    let ring = IoRing::start(backend.clone(), ring_config());
    let (tx, rx) = mpsc::channel();
    let mut trips = Vec::new();
    let mut buf = vec![0u8; PROBE_BLOCK];
    for i in 0..1000u64 {
        let start = Instant::now();
        ring.submit(
            (i % DISKS as u64) as usize,
            1,
            i,
            SubmitOp::Read { key: i % 8, buf },
            &tx,
        );
        let done = rx.recv().expect("completion");
        trips.push(start.elapsed().as_secs_f64() * 1e6);
        buf = match done.kind {
            CompletionKind::Read { buf, .. } => buf,
            other => panic!("read completed as {other:?}"),
        };
    }
    out.push(("ring.roundtrip_us_p50", median(&mut trips)));
    let ops = 768;
    let payloads = blocks(ops);
    let start = Instant::now();
    for (i, data) in payloads.into_iter().enumerate() {
        ring.submit(
            i % DISKS,
            2,
            i as u64,
            SubmitOp::Write {
                key: 5000 + i as u64,
                data,
            },
            &tx,
        );
    }
    (0..ops).for_each(|_| drop(rx.recv().expect("completion")));
    out.push((
        "ring.write_blocks_per_s",
        ops as f64 / start.elapsed().as_secs_f64(),
    ));
    let bufs = blocks(ops);
    let start = Instant::now();
    for (i, buf) in bufs.into_iter().enumerate() {
        ring.submit(
            i % DISKS,
            3,
            i as u64,
            SubmitOp::Read {
                key: 5000 + i as u64,
                buf,
            },
            &tx,
        );
    }
    (0..ops).for_each(|_| drop(rx.recv().expect("completion")));
    out.push((
        "ring.read_blocks_per_s",
        ops as f64 / start.elapsed().as_secs_f64(),
    ));
}

/// Concurrent block reads one workload keeps in the ring: a read window
/// of 2 × disks per reader (`straggler-read`: rate × latency × blocks).
fn ring_depth(cfg: &Cfg) -> usize {
    match cfg.shape {
        workloads::Shape::OpenLoop => 24,
        workloads::Shape::WriterReader => 2 * DISKS,
        _ => 2 * DISKS * cfg.threads,
    }
}

/// A ring over service disks with the workload's model, outside any
/// `System`: the rig the queueing probe and the layer replays run on.
struct Rig {
    ring: IoRing,
    tx: mpsc::Sender<robustore_core::Completion>,
    rx: mpsc::Receiver<robustore_core::Completion>,
}

impl Rig {
    fn new(cfg: &Cfg, tracer: Option<Arc<Tracer>>) -> Rig {
        let inner = Box::new(InMemoryBackend::uniform(DISKS, cfg.nominal_speed));
        let (shim, _) = ServiceDisk::new(inner, cfg.models(), tracer);
        let backend = Arc::new(ShardedBackend::new(Box::new(shim), true));
        let (tx, rx) = mpsc::channel();
        Rig {
            ring: IoRing::start(backend, ring_config()),
            tx,
            rx,
        }
    }

    /// Submit every `(disk, op)` at once and wait for all completions;
    /// returns them with their completion times.
    fn run(&self, ops: Vec<(usize, SubmitOp)>) -> Vec<(Instant, robustore_core::Completion)> {
        let count = ops.len();
        for (tag, (disk, op)) in ops.into_iter().enumerate() {
            self.ring.submit(disk, 9, tag as u64, op, &self.tx);
        }
        (0..count)
            .map(|_| {
                let c = self.rx.recv().expect("completion");
                (Instant::now(), c)
            })
            .collect()
    }
}

/// Direct ring use at the workload's depth: how long a read waits behind
/// the others of its burst (completion − submit − its own service time).
fn queue_wait(cfg: &Cfg, rig: &Rig, out: &mut Metrics) {
    let depth = ring_depth(cfg);
    let models = cfg.models();
    let writes = (0..depth)
        .map(|i| {
            (
                i % DISKS,
                SubmitOp::Write {
                    key: i as u64,
                    data: vec![1; cfg.block_bytes],
                },
            )
        })
        .collect();
    rig.run(writes);
    let mut waits = Vec::new();
    for _ in 0..5 {
        let reads = (0..depth)
            .map(|i| {
                (
                    i % DISKS,
                    SubmitOp::Read {
                        key: i as u64,
                        buf: Vec::with_capacity(cfg.block_bytes),
                    },
                )
            })
            .collect();
        let start = Instant::now();
        for (done, c) in rig.run(reads) {
            let service = models[c.disk].read_block.as_secs_f64();
            waits.push(((done - start).as_secs_f64() - service).max(0.0) * 1e3);
        }
    }
    out.push(("ring.queue_wait_ms_p50", median(&mut waits)));
}

/// Restore a workload object with a quarter of its blocks lost (the
/// first loss pattern, by seed, that leaves it decodable).
fn scrub(st: &State, out: &mut Metrics) {
    let client = &st.clients[0];
    let payload = st.complement_pool.first().unwrap_or(&st.pool[0]);
    let mut mbps = f64::NAN;
    for attempt in 0..8 {
        put(client, "probe-scrub", payload);
        let lost = st.system.lose_file_blocks(
            "probe-scrub",
            LOSS,
            &st.seq.subsequence("probe-scrub", attempt),
        );
        if workloads::still_decodable(&st.system, "probe-scrub") {
            let start = Instant::now();
            let report = client
                .scrub("probe-scrub")
                .expect("scrub of a decodable object succeeds");
            let secs = start.elapsed().as_secs_f64();
            if report.blocks_restored == lost {
                mbps = (lost * st.cfg.block_bytes) as f64 / 1e6 / secs;
            } else {
                eprintln!(
                    "scrub restored {} of {lost} lost blocks",
                    report.blocks_restored
                );
            }
        }
        client.delete("probe-scrub").expect("probe delete");
        if mbps.is_finite() {
            break;
        }
    }
    out.push(("repair.scrub_MBps", mbps));
}

/// Per-access cost of one `read_many_with` call of 1024 accesses ÷ of
/// 256, all due at once on zero-delay disks: 1.0 means the reactor's
/// per-event cost does not grow with the batch.
fn reactor_scaling(seq: &SeedSequence, out: &mut Metrics) {
    let sys = zero_delay_system(16 << 10);
    let client = Client::connect(&sys, sys.register_user());
    let payloads = gen::payloads(seq, "reactor", 16, 32 << 10);
    let handles: Vec<FileHandle> = payloads
        .iter()
        .enumerate()
        .map(|(f, p)| {
            put(&client, &format!("r-{f}"), p);
            client
                .open(
                    &format!("r-{f}"),
                    AccessMode::Read,
                    QosOptions::best_effort(),
                )
                .expect("opens")
        })
        .collect();
    let per_access = |batch: usize| {
        let refs: Vec<&FileHandle> = (0..batch).map(|i| &handles[i % handles.len()]).collect();
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                client.read_many_with(&refs, None, |i, r| {
                    let (bytes, _) = r.expect("reads");
                    assert_eq!(gen::digest(&bytes), payloads[i % handles.len()].digest);
                });
                start.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
        median(&mut samples)
    };
    let small = per_access(256);
    out.push(("client.reactor_batch_scaling", per_access(1024) / small));
}

/// `straggler-read` for `secs` at half and at one and a half times its
/// rate: how the tail bends with load, and whether a backlog grows.
fn load_sweep(seed: u64, secs: f64, out: &mut Metrics) {
    let mut st = workloads::setup(&STRAGGLER_READ, seed, None);
    let mut sweep = |rate: f64| {
        let t0 = Instant::now();
        let phase = workloads::main_phase_at(&mut st, t0, secs, rate);
        let mut reads: Vec<(u64, f64)> = phase
            .tally
            .log
            .iter()
            .filter(|op| op.kind == Kind::Read)
            .map(|op| (op.start_ns, (op.end_ns - op.start_ns) as f64 / 1e6))
            .collect();
        reads.sort_by_key(|r| r.0);
        let third = reads.len() / 3;
        let p50 = |part: &[(u64, f64)]| median(&mut part.iter().map(|r| r.1).collect::<Vec<_>>());
        let growth = p50(&reads[reads.len() - third..]) / p50(&reads[..third]);
        let p99 = percentile(&mut reads.iter().map(|r| r.1).collect::<Vec<_>>(), 0.99);
        assert_eq!(phase.tally.failed, 0, "sweep reads must not fail");
        (p99, growth)
    };
    out.push(("client.read_p99_ms.r75", sweep(STRAGGLER_READ.rate * 0.5).0));
    let (p99, growth) = sweep(STRAGGLER_READ.rate * 1.5);
    out.push(("client.read_p99_ms.r225", p99));
    out.push(("client.backlog_growth.r225", growth));
}

/// Time `f` as layer span `name` and add its duration to `sum`.
fn layer<R>(
    tracer: &Tracer,
    root: Ctx,
    sum: &mut f64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let begun = Instant::now();
    let r = tracer.leaf(Some(root), name, f);
    *sum += begun.elapsed().as_secs_f64();
    r
}

/// Replay one object's write and then its read as a sequence of layer
/// calls, one after another: plan, LT plan, encode, checksum, ring
/// writes, metadata commit; LT plan, ring reads, checksum, decode.
/// Returns the summed layer time of each, seconds.
fn replay(cfg: &Cfg, rig: &Rig, tracer: &Tracer, payload: &Payload, file_id: u64) -> (f64, f64) {
    let (k, n, block) = (cfg.k(), cfg.n(), cfg.block_bytes);
    let params = LtParams::default();
    let (order, disk_of) = layout(k, n);
    let planner = LayoutPlanner::default();
    let infos = disk_infos(cfg.nominal_speed);
    let mut store = Metastore::new(MetastoreConfig::default()).expect("in-memory plane");
    let owner = zero_delay_system(block).register_user();
    let key = |j: usize| gen_key(file_id, j as u32, false);

    let root = tracer.begin(None);
    let mut write_s = 0.0;
    layer(tracer, root.ctx, &mut write_s, "layer.planner.plan", || {
        std::hint::black_box(planner.plan(&qos(), &infos).expect("plans"));
    });
    let code = layer(
        tracer,
        root.ctx,
        &mut write_s,
        "layer.erasure.lt_plan",
        || LtCode::plan(k, n, params, file_id).expect("plannable"),
    );
    let coded = layer(
        tracer,
        root.ctx,
        &mut write_s,
        "layer.erasure.encode",
        || code.encode(&split(payload, block)).expect("encodes"),
    );
    let checksums = layer(
        tracer,
        root.ctx,
        &mut write_s,
        "layer.integrity.crc32c",
        || {
            coded
                .iter()
                .enumerate()
                .map(|(j, b)| (j as u32, crc32c(b)))
                .collect()
        },
    );
    layer(tracer, root.ctx, &mut write_s, "layer.ring.write", || {
        let writes = coded.into_iter().enumerate();
        rig.run(
            writes
                .map(|(j, data)| (disk_of[j], SubmitOp::Write { key: key(j), data }))
                .collect(),
        );
    });
    let meta = FileMeta {
        name: "replay".into(),
        file_id,
        size_bytes: payload.bytes.len() as u64,
        coding: CodingSpec {
            k,
            n,
            block_bytes: block as u64,
            params,
            seed: file_id,
        },
        layout: (0..DISKS)
            .map(|d| {
                (
                    d,
                    (0..n as u32)
                        .filter(|&j| disk_of[j as usize] == d)
                        .collect(),
                )
            })
            .collect(),
        odd_keys: Default::default(),
        checksums,
        owner,
        version: 1,
    };
    store.open("replay", AccessMode::Write).expect("lock");
    layer(
        tracer,
        root.ctx,
        &mut write_s,
        "layer.metastore.commit",
        || store.commit(meta).expect("commit"),
    );
    tracer.end(root, "replay.write", file_id);

    // How many blocks, in nominal order, this object's decoder needs.
    let mut dry = SymbolDecoder::new(&code);
    let needed = order
        .iter()
        .position(|&j| dry.receive(j))
        .map_or(n, |at| at + 1);

    let root = tracer.begin(None);
    let mut read_s = 0.0;
    let code = layer(
        tracer,
        root.ctx,
        &mut read_s,
        "layer.erasure.lt_plan",
        || LtCode::plan(k, n, params, file_id).expect("plannable"),
    );
    let fetched = layer(tracer, root.ctx, &mut read_s, "layer.ring.read", || {
        let reads = order[..needed].iter();
        rig.run(
            reads
                .map(|&j| {
                    (
                        disk_of[j],
                        SubmitOp::Read {
                            key: key(j),
                            buf: Vec::with_capacity(block),
                        },
                    )
                })
                .collect(),
        )
    });
    let mut arrived: Vec<(u64, Block)> = fetched
        .into_iter()
        .map(|(_, c)| match c.kind {
            CompletionKind::Read {
                buf,
                result: Ok(()),
                ..
            } => (c.tag, buf),
            other => panic!("replay read completed as {other:?}"),
        })
        .collect();
    arrived.sort_by_key(|&(tag, _)| tag);
    layer(
        tracer,
        root.ctx,
        &mut read_s,
        "layer.integrity.crc32c",
        || {
            for (_, b) in &arrived {
                std::hint::black_box(crc32c(b));
            }
        },
    );
    layer(
        tracer,
        root.ctx,
        &mut read_s,
        "layer.erasure.decode",
        || {
            decode(
                &code,
                block,
                arrived.into_iter().map(|(tag, b)| (order[tag as usize], b)),
            )
        },
    );
    tracer.end(root, "replay.read", file_id);
    (write_s, read_s)
}

/// Every probe of one traced run, then the layer replays. Returns the
/// median summed layer time of a replayed write and read, seconds.
pub fn all(
    st: &State,
    seed: u64,
    secs: f64,
    tracer: &Arc<Tracer>,
    scratch: &std::path::Path,
    out: &mut Metrics,
) -> (f64, f64) {
    let cfg = st.cfg;
    let seq = SeedSequence::new(seed);
    erasure(cfg, &seq, &st.pool[0], out);
    planning(cfg, out);
    open_close(st, out);
    metastore(&seq, scratch, out);
    backend_and_ring(out);
    let rig = Rig::new(cfg, Some(tracer.clone()));
    queue_wait(cfg, &rig, out);
    scrub(st, out);
    reactor_scaling(&seq, out);
    load_sweep(seed, secs * 0.1, out);

    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while writes.len() < 3 || start.elapsed() < Duration::from_secs_f64(secs * 0.04) {
        let i = writes.len();
        let (w, r) = replay(
            cfg,
            &rig,
            tracer,
            &st.pool[i % st.pool.len()],
            1_000_000 + i as u64,
        );
        writes.push(w);
        reads.push(r);
    }
    (median(&mut writes), median(&mut reads))
}
