//! Async per-disk submission/completion ring.
//!
//! PR 7 gave every disk its own lock; this module gives every disk its
//! own *queue*. An [`IoRing`] spawns one worker thread per disk of a
//! [`ShardedBackend`]; clients push [`SubmitOp`]s tagged with an access
//! id and a per-access sequence tag, and receive [`Completion`]s on a
//! channel they own. One client thread can therefore keep many accesses
//! in flight at once — the per-disk-FIFO-queue regime of the MDS-queue
//! model — instead of burning a thread per access on blocking calls.
//!
//! Four properties define the ring's semantics:
//!
//! * **Cross-access group commit.** A worker popping a write from its
//!   queue also pops the contiguous run of queued writes behind it — from
//!   *any* access — up to the configured batch cap, and lands the run in
//!   one [`ShardedBackend::commit_batch`] dispatch. Per-access submission
//!   order is preserved (the queue is FIFO and batches never reorder), so
//!   failure semantics match unbatched writes.
//! * **Speculative-read cancellation.** [`IoRing::cancel`] revokes every
//!   op of one access that is still *queued*; each revoked op completes
//!   as [`CompletionKind::Cancelled`] with its buffer handed back, and
//!   the disk never services it. Ops already being serviced run to
//!   completion — their completions must be drained and discarded by the
//!   caller. This makes the paper's "cancel redundant requests on decode
//!   success" policy reclaim real disk time instead of just wall clock.
//! * **Exactly one completion per submission.** Every submitted op
//!   produces exactly one [`Completion`] — serviced or cancelled — so a
//!   reactor can drive `received == submitted` without timeouts. Workers
//!   drain their queues before honouring shutdown.
//! * **Two scheduling classes.** Each disk keeps a foreground and a
//!   background FIFO ([`Priority`]); background (repair/scrub) ops are
//!   serviced only when no foreground op is queued, so a deep repair
//!   backlog can never starve serving traffic. Background queue depth is
//!   excluded from [`IoRing::load_map`]'s `queued` for the same reason.
//!
//! Workers run the shared bounded read-retry helper
//! ([`ShardedBackend::read_block_retry`]), so per-disk fault budgets are
//! consumed in each disk's service (= submission) order and a successful
//! read is counted exactly once.
//!
//! Every access that consumes its completions *in submission order* with
//! a bounded number in flight runs on one state machine, [`Reorder`]: the
//! speculative read reactor keeps one per access over a channel its
//! accesses share, and [`OrderedWindow`] — writes, updates, scrub
//! fetches, the restore path's in-place rewrites — wraps one
//! with a channel of its own. Block deletes do not use the ring: they
//! are garbage collection, called on the shards directly.
//!
//! Each worker also exports live load telemetry — queue depth, in-flight
//! count, and an EWMA of per-op service time — behind the lock-free
//! [`IoRing::load_map`] snapshot, which feeds the queue-aware
//! [`robustore_schemes::AdaptiveReadPolicy`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use robustore_schemes::{DiskLoad, DiskLoadMap};

use crate::error::StoreError;
use crate::sharded::ShardedBackend;

/// Tuning knobs for an [`IoRing`], snapshotted from `SystemConfig`.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Max writes coalesced into one `commit_batch` dispatch (min 1).
    pub group_commit: usize,
    /// Read attempts per op (>= 1); transient faults retry up to this.
    pub read_attempts: u32,
    /// Base backoff before a read retry, doubled per attempt. Plain
    /// exponential, no jitter: workers stay seed-free.
    pub backoff_micros: u64,
}

/// One block operation submitted to a disk queue.
#[derive(Debug)]
pub enum SubmitOp {
    /// Fetch a block into `buf` (recycled scratch; handed back in the
    /// completion, including on cancellation).
    Read {
        /// Backend block key.
        key: u64,
        /// Scratch buffer the worker reads into.
        buf: Vec<u8>,
    },
    /// Store `data` as block `key`. Contiguous queued writes are
    /// coalesced across accesses into one group-commit dispatch.
    Write {
        /// Backend block key.
        key: u64,
        /// Encoded block payload.
        data: Vec<u8>,
    },
}

/// Outcome of one write within a (possibly batched) commit dispatch.
#[derive(Debug)]
pub enum WriteOutcome {
    /// The block landed.
    Done,
    /// The disk refused the write (admission/offline); the payload is
    /// handed back for redirecting without re-encoding.
    Refused {
        /// The refusal error (a `MissingBlock`-class soft failure).
        error: StoreError,
        /// The unconsumed block payload.
        data: Vec<u8>,
    },
    /// A hard mid-I/O fault consumed the block.
    Fault(StoreError),
    /// A hard fault earlier in the same batch aborted this entry before
    /// the disk looked at it (batches stop at the first hard fault).
    Aborted {
        /// The disk whose batch aborted.
        disk: usize,
    },
}

/// What happened to one submitted op.
#[derive(Debug)]
pub enum CompletionKind {
    /// A read was serviced (successfully or not).
    Read {
        /// `Ok` iff `buf` now holds the block bytes.
        result: Result<(), StoreError>,
        /// The scratch buffer handed back (contents valid only on `Ok`).
        buf: Vec<u8>,
        /// Transient-fault retries the worker performed for this op.
        retries: u64,
    },
    /// A write was serviced (possibly as part of a cross-access batch).
    Write(WriteOutcome),
    /// The op was revoked by [`IoRing::cancel`] before the disk serviced
    /// it; its buffer or payload is handed back.
    Cancelled {
        /// A read's scratch or a write's payload, to recycle.
        buf: Vec<u8>,
    },
}

/// A completion event, delivered on the channel the submitter provided.
#[derive(Debug)]
pub struct Completion {
    /// Access id the op was tagged with.
    pub access: u64,
    /// Per-access sequence tag the op was tagged with.
    pub tag: u64,
    /// Disk the op was queued on.
    pub disk: usize,
    /// What happened.
    pub kind: CompletionKind,
}

/// Scheduling class for a submitted op. Foreground ops (client reads and
/// writes) always overtake queued background ops (repair/scrub traffic) on
/// the same disk, so a deep repair backlog can never starve serving
/// traffic. Within a class the queue stays strictly FIFO, preserving the
/// per-access ordering the group-commit contract relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Client-facing traffic; serviced first. The default.
    #[default]
    Foreground,
    /// Repair/scrub traffic; serviced only when no foreground op is
    /// queued. An op already being serviced is never preempted.
    Background,
}

struct Entry {
    access: u64,
    tag: u64,
    op: SubmitOp,
    done: Sender<Completion>,
}

struct QueueState {
    /// Foreground FIFO — drained before `background` is looked at.
    entries: VecDeque<Entry>,
    /// Background FIFO (repair traffic).
    background: VecDeque<Entry>,
    shutdown: bool,
}

struct DiskQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl DiskQueue {
    fn new() -> Self {
        DiskQueue {
            state: Mutex::new(QueueState {
                entries: VecDeque::new(),
                background: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }
}

/// EWMA smoothing factor for per-op service time. Small enough to ride
/// out one-off hiccups, large enough that a few completions reveal a
/// straggling disk.
const EWMA_ALPHA: f64 = 0.2;

/// Live load counters for one disk, updated lock-free around queue and
/// service events. `queued`/`in_flight` are multi-writer counters;
/// `ewma_bits` (an `f64` as bits) has a single writer — the disk's
/// worker — so plain relaxed load/store suffices.
#[derive(Debug, Default)]
struct DiskStat {
    /// Foreground queue depth. Background entries are tracked separately
    /// (`bg_queued`) and excluded here: they never delay a newly queued
    /// foreground op, so counting them would inflate the adaptive read
    /// policy's completion estimates.
    queued: AtomicU64,
    bg_queued: AtomicU64,
    in_flight: AtomicU64,
    ewma_bits: AtomicU64,
    /// Whether `ewma_bits` holds a real sample yet. A plain `old == 0.0`
    /// sentinel is wrong: a genuine 0µs sample (sub-µs in-memory op)
    /// would make the *next* sample re-seed the EWMA with full weight,
    /// discarding history.
    ewma_seeded: AtomicU64,
}

impl DiskStat {
    fn snapshot(&self) -> DiskLoad {
        DiskLoad {
            queued: self.queued.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            ewma_service_micros: f64::from_bits(self.ewma_bits.load(Ordering::Relaxed)),
        }
    }

    fn queued_for(&self, priority: Priority) -> &AtomicU64 {
        match priority {
            Priority::Foreground => &self.queued,
            Priority::Background => &self.bg_queued,
        }
    }

    /// Fold a measured per-op service time (µs) into the EWMA. Worker
    /// thread only (the seeded flag and bits are single-writer).
    fn record_service(&self, micros: f64) {
        let new = if self.ewma_seeded.swap(1, Ordering::Relaxed) == 0 {
            micros
        } else {
            let old = f64::from_bits(self.ewma_bits.load(Ordering::Relaxed));
            EWMA_ALPHA * micros + (1.0 - EWMA_ALPHA) * old
        };
        self.ewma_bits.store(new.to_bits(), Ordering::Relaxed);
    }
}

/// The reactor front-end: per-disk submission queues over a
/// [`ShardedBackend`], serviced by one worker thread per disk.
pub struct IoRing {
    queues: Arc<Vec<DiskQueue>>,
    stats: Arc<Vec<DiskStat>>,
    backend: Arc<ShardedBackend>,
    config: RingConfig,
    workers: Vec<JoinHandle<()>>,
}

impl IoRing {
    /// Start one worker per disk of `backend`.
    pub fn start(backend: Arc<ShardedBackend>, config: RingConfig) -> Self {
        let queues: Arc<Vec<DiskQueue>> =
            Arc::new((0..backend.num_disks()).map(|_| DiskQueue::new()).collect());
        let stats: Arc<Vec<DiskStat>> = Arc::new(
            (0..backend.num_disks())
                .map(|_| DiskStat::default())
                .collect(),
        );
        let workers = (0..backend.num_disks())
            .map(|disk| {
                let queues = queues.clone();
                let stats = stats.clone();
                let backend = backend.clone();
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("io-ring-{disk}"))
                    .spawn(move || {
                        worker_loop(disk, &queues[disk], &stats[disk], &backend, &config)
                    })
                    .expect("spawn io-ring worker")
            })
            .collect();
        IoRing {
            queues,
            stats,
            backend,
            config,
            workers,
        }
    }

    /// Snapshot every disk's live load — queue depth, in-flight count,
    /// EWMA service latency — for the queue-aware read policy. Lock-free:
    /// three relaxed atomic loads per disk.
    pub fn load_map(&self) -> DiskLoadMap {
        DiskLoadMap::from_loads(self.stats.iter().map(DiskStat::snapshot).collect())
    }

    /// Queue `op` on `disk` for access `access` with per-access sequence
    /// tag `tag`; the completion is sent to `done`. A disk id past the
    /// end of the backend is serviced inline on the caller thread (the
    /// `ShardedBackend` turns it into a graceful refusal), so submitters
    /// need no bounds checks. Equivalent to [`IoRing::submit_with`] at
    /// [`Priority::Foreground`].
    pub fn submit(
        &self,
        disk: usize,
        access: u64,
        tag: u64,
        op: SubmitOp,
        done: &Sender<Completion>,
    ) {
        self.submit_with(disk, access, tag, op, Priority::Foreground, done);
    }

    /// [`IoRing::submit`] with an explicit scheduling class. Background
    /// ops wait behind every queued foreground op on the same disk.
    pub fn submit_with(
        &self,
        disk: usize,
        access: u64,
        tag: u64,
        op: SubmitOp,
        priority: Priority,
        done: &Sender<Completion>,
    ) {
        match self.queues.get(disk) {
            Some(queue) => {
                let mut state = queue.state.lock().unwrap();
                let entry = Entry {
                    access,
                    tag,
                    op,
                    done: done.clone(),
                };
                match priority {
                    Priority::Foreground => state.entries.push_back(entry),
                    Priority::Background => state.background.push_back(entry),
                }
                self.stats[disk]
                    .queued_for(priority)
                    .fetch_add(1, Ordering::Relaxed);
                drop(state);
                queue.ready.notify_one();
            }
            None => {
                let kind = service_op(disk, op, &self.backend, &self.config);
                let _ = done.send(Completion {
                    access,
                    tag,
                    disk,
                    kind,
                });
            }
        }
    }

    /// Background (repair-class) queue depth per disk. Telemetry for the
    /// repair service and its tests; not part of [`IoRing::load_map`]
    /// because background ops never delay foreground completions.
    pub fn background_backlog(&self) -> Vec<u64> {
        self.stats
            .iter()
            .map(|s| s.bg_queued.load(Ordering::Relaxed))
            .collect()
    }

    /// Revoke every still-queued op of `access` on every disk. Each
    /// revoked op completes as [`CompletionKind::Cancelled`] with its
    /// buffer handed back; ops a worker has already started run to
    /// completion and must be drained by the caller.
    pub fn cancel(&self, access: u64) {
        for (disk, queue) in self.queues.iter().enumerate() {
            let removed: Vec<Entry> = {
                let mut state = queue.state.lock().unwrap();
                let state = &mut *state;
                let mut removed = Vec::new();
                for (priority, queue_of) in [
                    (Priority::Foreground, &mut state.entries),
                    (Priority::Background, &mut state.background),
                ] {
                    let mut keep = VecDeque::with_capacity(queue_of.len());
                    let before = removed.len();
                    for entry in queue_of.drain(..) {
                        if entry.access == access {
                            removed.push(entry);
                        } else {
                            keep.push_back(entry);
                        }
                    }
                    *queue_of = keep;
                    self.stats[disk]
                        .queued_for(priority)
                        .fetch_sub((removed.len() - before) as u64, Ordering::Relaxed);
                }
                removed
            };
            for entry in removed {
                let (SubmitOp::Read { buf, .. } | SubmitOp::Write { data: buf, .. }) = entry.op;
                let _ = entry.done.send(Completion {
                    access: entry.access,
                    tag: entry.tag,
                    disk,
                    kind: CompletionKind::Cancelled { buf },
                });
            }
        }
    }
}

/// Handler an [`OrderedWindow`] feeds completions to: `(tag, kind)` in
/// strict tag (= submission) order. An error stops the access.
pub(crate) type OnCompletion<'h> = dyn FnMut(u64, CompletionKind) -> Result<(), StoreError> + 'h;

/// One access's reorder state over the ring: ops are tagged in
/// submission order, at most `window` are in flight, and completions are
/// handed back strictly in tag order — so the caller's bookkeeping sees a
/// deterministic sequence whatever order the disks finish in. It owns no
/// channel, so accesses that share one can each keep their own.
pub(crate) struct Reorder {
    window: usize,
    /// Target disk per tag; `disks.len()` ops have been submitted.
    disks: Vec<usize>,
    /// Tags `0..next` have been handed back, in order.
    next: usize,
    /// Completions received so far (handed back or parked).
    received: usize,
    /// Out-of-order completions parked until `next` reaches their tag.
    parked: BTreeMap<u64, CompletionKind>,
}

impl Reorder {
    pub(crate) fn new(window: usize) -> Self {
        Reorder {
            window: window.max(1),
            disks: Vec::new(),
            next: 0,
            received: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Ops submitted so far, which is also the next op's tag.
    pub(crate) fn submitted(&self) -> usize {
        self.disks.len()
    }

    /// Fewer than `window` submitted ops are not yet handed back.
    pub(crate) fn has_room(&self) -> bool {
        self.submitted() - self.next < self.window
    }

    /// Some submitted op has not completed yet.
    pub(crate) fn outstanding(&self) -> bool {
        self.received < self.submitted()
    }

    /// Record an op submitted to `disk`; returns its tag.
    pub(crate) fn push(&mut self, disk: usize) -> u64 {
        self.disks.push(disk);
        self.submitted() as u64 - 1
    }

    /// Take in one of this access's completions.
    pub(crate) fn receive(&mut self, c: Completion) {
        self.received += 1;
        self.parked.insert(c.tag, c.kind);
    }

    /// The next completion in tag order, once it has arrived.
    pub(crate) fn pop(&mut self) -> Option<(u64, CompletionKind)> {
        let kind = self.parked.remove(&(self.next as u64))?;
        self.next += 1;
        Some((self.next as u64 - 1, kind))
    }

    /// The error for an op that will never complete: its disk's worker
    /// dropped it, which is a storage server failing mid-I/O.
    fn lost(&self) -> StoreError {
        StoreError::DiskFault {
            disk: self.disks.get(self.next).copied().unwrap_or(0),
        }
    }
}

/// A [`Reorder`] over a channel of its own, with blocking submission:
/// one access, one window.
///
/// A completion channel that closes with ops still outstanding (the
/// worker servicing them died) surfaces as [`StoreError::DiskFault`] on
/// the lost op's disk instead of a hang or a panic; the caller then runs
/// its normal rollback via [`OrderedWindow::abort`].
pub(crate) struct OrderedWindow<'a> {
    ring: &'a IoRing,
    access: u64,
    priority: Priority,
    /// `None` once submission is over ([`OrderedWindow::finish`] /
    /// [`OrderedWindow::abort`]): with the window's own sender gone, a
    /// lost op closes the channel instead of blocking the drain forever.
    tx: Option<Sender<Completion>>,
    rx: Receiver<Completion>,
    order: Reorder,
}

impl<'a> OrderedWindow<'a> {
    pub(crate) fn new(ring: &'a IoRing, access: u64, priority: Priority, window: usize) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        OrderedWindow {
            ring,
            access,
            priority,
            tx: Some(tx),
            rx,
            order: Reorder::new(window),
        }
    }

    /// Submit one op, first handing completions to `handle` until fewer
    /// than `window` ops are in flight.
    pub(crate) fn submit(
        &mut self,
        disk: usize,
        op: SubmitOp,
        handle: &mut OnCompletion<'_>,
    ) -> Result<(), StoreError> {
        while !self.order.has_room() {
            self.pump(handle)?;
        }
        // `None` only after `finish`: refuse rather than queue an op whose
        // completion nobody will harvest.
        let Some(tx) = self.tx.as_ref() else {
            return Err(self.order.lost());
        };
        let tag = self.order.push(disk);
        self.ring
            .submit_with(disk, self.access, tag, op, self.priority, tx);
        Ok(())
    }

    /// Receive one completion, then hand every in-order one to `handle`.
    fn pump(&mut self, handle: &mut OnCompletion<'_>) -> Result<(), StoreError> {
        let c = self.rx.recv().map_err(|_| self.order.lost())?;
        self.order.receive(c);
        while let Some((tag, kind)) = self.order.pop() {
            handle(tag, kind)?;
        }
        Ok(())
    }

    /// Submission is over: hand every outstanding completion to `handle`.
    pub(crate) fn finish(&mut self, handle: &mut OnCompletion<'_>) -> Result<(), StoreError> {
        self.tx = None;
        while self.order.outstanding() {
            self.pump(handle)?;
        }
        Ok(())
    }

    /// The access failed: revoke everything still queued, drain every
    /// outstanding completion, and return the ones the handler never saw
    /// — so the caller can roll back writes that landed anyway and
    /// recycle buffers.
    pub(crate) fn abort(mut self) -> Vec<(u64, CompletionKind)> {
        self.tx = None;
        self.ring.cancel(self.access);
        while self.order.outstanding() {
            let Ok(c) = self.rx.recv() else { break };
            self.order.receive(c);
        }
        self.order.parked.into_iter().collect()
    }
}

impl Drop for IoRing {
    fn drop(&mut self) {
        for queue in self.queues.iter() {
            let mut state = queue.state.lock().unwrap();
            state.shutdown = true;
            drop(state);
            queue.ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Worker main loop: pop ops (coalescing contiguous write runs across
/// accesses), service them *outside* the queue lock, and deliver exactly
/// one completion per op. Pending entries are drained before shutdown is
/// honoured.
fn worker_loop(
    disk: usize,
    queue: &DiskQueue,
    stat: &DiskStat,
    backend: &ShardedBackend,
    config: &RingConfig,
) {
    let batch_cap = config.group_commit.max(1);
    loop {
        let (popped, priority): (Vec<Entry>, Priority) = {
            let mut state = queue.state.lock().unwrap();
            loop {
                if !state.entries.is_empty() || !state.background.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = queue.ready.wait(state).unwrap();
            }
            // Strict priority: the background queue is looked at only
            // when no foreground op is queued. Write runs coalesce within
            // one class so a batch never smuggles background writes ahead
            // of foreground ones.
            let priority = if state.entries.is_empty() {
                Priority::Background
            } else {
                Priority::Foreground
            };
            let class_queue = match priority {
                Priority::Foreground => &mut state.entries,
                Priority::Background => &mut state.background,
            };
            let popped = if matches!(
                class_queue.front().map(|e| &e.op),
                Some(SubmitOp::Write { .. })
            ) {
                // Cross-access group commit: take the contiguous run of
                // queued writes, whatever access they came from.
                let mut batch = Vec::new();
                while batch.len() < batch_cap
                    && matches!(
                        class_queue.front().map(|e| &e.op),
                        Some(SubmitOp::Write { .. })
                    )
                {
                    batch.push(class_queue.pop_front().unwrap());
                }
                batch
            } else {
                vec![class_queue.pop_front().unwrap()]
            };
            (popped, priority)
        };
        let n = popped.len() as u64;
        stat.queued_for(priority).fetch_sub(n, Ordering::Relaxed);
        stat.in_flight.fetch_add(n, Ordering::Relaxed);
        // The stat updates below happen *before* the completion sends, so
        // a submitter that has drained all its completions observes its
        // own ops fully retired from the load map — a quiescent reactor
        // never sees ghost in-flight residue from its previous access.
        if matches!(popped.first().map(|e| &e.op), Some(SubmitOp::Write { .. })) {
            service_write_batch(disk, popped, stat, backend);
        } else {
            for entry in popped {
                let begun = std::time::Instant::now();
                let kind = service_op(disk, entry.op, backend, config);
                stat.record_service(begun.elapsed().as_secs_f64() * 1e6);
                stat.in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = entry.done.send(Completion {
                    access: entry.access,
                    tag: entry.tag,
                    disk,
                    kind,
                });
            }
        }
    }
}

/// Land a run of writes in one `commit_batch` dispatch and fan the
/// per-entry outcomes back out to their submitters. The batch contract
/// (entries in order, stop at the first hard fault) means a result
/// vector shorter than the batch marks the tail entries as aborted.
fn service_write_batch(
    disk: usize,
    entries: Vec<Entry>,
    stat: &DiskStat,
    backend: &ShardedBackend,
) {
    let n = entries.len() as u64;
    let mut meta = Vec::with_capacity(entries.len());
    let mut batch = Vec::with_capacity(entries.len());
    for entry in entries {
        let Entry {
            access,
            tag,
            op,
            done,
        } = entry;
        let SubmitOp::Write { key, data } = op else {
            unreachable!("write batch holds only writes");
        };
        meta.push((access, tag, done));
        batch.push((key, data));
    }
    let begun = std::time::Instant::now();
    let results = backend.commit_batch(disk, batch);
    // One EWMA sample per op (the batch's wall time split evenly), folded
    // before the sends for the same reason as the read path.
    stat.record_service(begun.elapsed().as_secs_f64() * 1e6 / n as f64);
    stat.in_flight.fetch_sub(n, Ordering::Relaxed);
    let mut results = results.into_iter();
    for (access, tag, done) in meta {
        let outcome = match results.next() {
            Some(Ok(())) => WriteOutcome::Done,
            Some(Err(rw)) => refusal_outcome(rw),
            None => WriteOutcome::Aborted { disk },
        };
        let _ = done.send(Completion {
            access,
            tag,
            disk,
            kind: CompletionKind::Write(outcome),
        });
    }
}

/// Service one op on the calling thread, with the bounded read retry.
fn service_op(
    disk: usize,
    op: SubmitOp,
    backend: &ShardedBackend,
    config: &RingConfig,
) -> CompletionKind {
    match op {
        SubmitOp::Read { key, mut buf } => {
            let (result, retries) =
                backend.read_block_retry(disk, key, &mut buf, config.read_attempts, |attempt| {
                    if config.backoff_micros > 0 {
                        let us = config.backoff_micros << (attempt - 1);
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                });
            CompletionKind::Read {
                result,
                buf,
                retries,
            }
        }
        SubmitOp::Write { key, data } => {
            let outcome = match backend.write_block(disk, key, data) {
                Ok(()) => WriteOutcome::Done,
                Err(rw) => refusal_outcome(rw),
            };
            CompletionKind::Write(outcome)
        }
    }
}

/// Classify a failed write: refusals hand the payload back, hard faults
/// consume it.
fn refusal_outcome(rw: crate::backend::RefusedWrite) -> WriteOutcome {
    match rw.error {
        StoreError::MissingBlock { .. } => WriteOutcome::Refused {
            error: rw.error,
            data: rw.data,
        },
        error => WriteOutcome::Fault(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;
    use std::sync::mpsc;

    fn ring(disks: usize) -> IoRing {
        let backend = Arc::new(ShardedBackend::new(
            Box::new(InMemoryBackend::uniform(disks, 10e6)),
            true,
        ));
        IoRing::start(
            backend,
            RingConfig {
                group_commit: 4,
                read_attempts: 3,
                backoff_micros: 0,
            },
        )
    }

    #[test]
    fn ring_write_read_delete_roundtrip() {
        let r = ring(2);
        let (tx, rx) = mpsc::channel();
        r.submit(
            1,
            7,
            0,
            SubmitOp::Write {
                key: 42,
                data: vec![9; 16],
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert_eq!((c.access, c.tag, c.disk), (7, 0, 1));
        assert!(matches!(c.kind, CompletionKind::Write(WriteOutcome::Done)));

        r.submit(
            1,
            7,
            1,
            SubmitOp::Read {
                key: 42,
                buf: Vec::new(),
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        match c.kind {
            CompletionKind::Read {
                result,
                buf,
                retries,
            } => {
                result.unwrap();
                assert_eq!(buf, vec![9; 16]);
                assert_eq!(retries, 0);
            }
            other => panic!("unexpected completion {other:?}"),
        }

        // Deletes are garbage collection, called on the shard directly.
        r.backend.delete_block(1, 42).unwrap();

        r.submit(
            1,
            7,
            3,
            SubmitOp::Read {
                key: 42,
                buf: Vec::new(),
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.kind,
            CompletionKind::Read {
                result: Err(StoreError::MissingBlock { .. }),
                ..
            }
        ));
    }

    #[test]
    fn ring_out_of_range_disk_refuses_inline() {
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        r.submit(
            9,
            1,
            0,
            SubmitOp::Write {
                key: 0,
                data: vec![1],
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.kind,
            CompletionKind::Write(WriteOutcome::Refused { .. })
        ));
        r.submit(
            9,
            1,
            1,
            SubmitOp::Read {
                key: 0,
                buf: Vec::new(),
            },
            &tx,
        );
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.kind,
            CompletionKind::Read { result: Err(_), .. }
        ));
    }

    #[test]
    fn ring_cancel_hands_buffers_back() {
        // Queue ops on an offline-free ring but cancel before servicing
        // can be guaranteed racy; instead cancel an access whose ops are
        // behind a long queue on one disk by submitting from this thread
        // and cancelling immediately — any op the worker already took
        // completes as a real completion, the rest come back Cancelled.
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..64u64 {
            r.submit(
                0,
                5,
                tag,
                SubmitOp::Read {
                    key: tag,
                    buf: Vec::new(),
                },
                &tx,
            );
        }
        r.cancel(5);
        let mut cancelled = 0;
        let mut serviced = 0;
        for _ in 0..64 {
            match rx.recv().unwrap().kind {
                CompletionKind::Cancelled { .. } => cancelled += 1,
                CompletionKind::Read { .. } => serviced += 1,
                other => panic!("unexpected completion {other:?}"),
            }
        }
        assert_eq!(cancelled + serviced, 64);
        // Exactly one completion each: the channel must now be empty.
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn ring_cancel_leaves_other_accesses_queued() {
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..8u64 {
            let access = if tag % 2 == 0 { 1 } else { 2 };
            let op = SubmitOp::Read {
                key: 1000 + tag,
                buf: Vec::new(),
            };
            r.submit(0, access, tag, op, &tx);
        }
        r.cancel(1);
        let mut outcomes = Vec::new();
        for _ in 0..8 {
            let c = rx.recv().unwrap();
            outcomes.push((c.access, matches!(c.kind, CompletionKind::Cancelled { .. })));
        }
        // Every access-2 op was serviced, never cancelled.
        assert!(outcomes
            .iter()
            .all(|&(access, cancelled)| access == 1 || !cancelled));
    }

    #[test]
    fn ring_load_map_tracks_service_and_drains() {
        let r = ring(2);
        let (tx, rx) = mpsc::channel();
        for tag in 0..16u64 {
            r.submit(
                0,
                1,
                tag,
                SubmitOp::Write {
                    key: tag,
                    data: vec![1; 32],
                },
                &tx,
            );
        }
        for _ in 0..16 {
            rx.recv().unwrap();
        }
        // Give the worker a beat to finish its post-send accounting.
        for _ in 0..100 {
            let l = r.load_map();
            let d0 = *l.get(0).unwrap();
            if d0.queued == 0 && d0.in_flight == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let l = r.load_map();
        assert!(!l.is_empty());
        let d0 = *l.get(0).unwrap();
        assert_eq!(d0.queued, 0, "all ops drained");
        assert_eq!(d0.in_flight, 0);
        assert!(
            d0.ewma_service_micros > 0.0,
            "serviced ops leave an EWMA sample"
        );
        let d1 = *l.get(1).unwrap();
        assert_eq!(
            d1.ewma_service_micros, 0.0,
            "idle disk has no service sample"
        );
        assert!(l.get(2).is_none());
    }

    #[test]
    fn ewma_zero_sample_does_not_reseed() {
        // Regression: a genuine 0µs sample used to store 0.0, which the
        // next sample mistook for "unseeded" and re-seeded the EWMA with
        // full weight, discarding history.
        let s = DiskStat::default();
        s.record_service(100.0);
        s.record_service(0.0); // sub-µs in-memory op rounds down to zero
        s.record_service(1000.0);
        let e = s.snapshot().ewma_service_micros;
        // 100 → 0.2·0 + 0.8·100 = 80 → 0.2·1000 + 0.8·80 = 264. The buggy
        // sentinel would have re-seeded to 1000.
        assert!((e - 264.0).abs() < 1e-9, "ewma {e} should be 264");
    }

    #[test]
    fn ring_background_ops_wait_for_foreground() {
        // Park the single worker on a slow foreground op (a read that
        // fails transiently twice, so the worker really sleeps its retry
        // backoff — a plain missing-key read is not retried and returns
        // at once, letting the worker reach the background queue early),
        // queue background reads of absent keys and *then* foreground
        // ones behind it (each serviced at once as missing), and check
        // that strict priority services every foreground op first anyway.
        let (chaos, switch) = crate::chaos::ChaosBackend::new(InMemoryBackend::uniform(1, 10e6));
        switch.transient_reads(0, 2);
        let backend = Arc::new(ShardedBackend::new(Box::new(chaos), true));
        let r = IoRing::start(
            backend,
            RingConfig {
                group_commit: 4,
                read_attempts: 3,
                backoff_micros: 20_000, // ~60ms parked on the first read
            },
        );
        let (tx, rx) = mpsc::channel();
        r.submit(
            0,
            9,
            0,
            SubmitOp::Read {
                key: 777,
                buf: Vec::new(),
            },
            &tx,
        );
        for tag in 0..4u64 {
            r.submit_with(
                0,
                2,
                tag,
                SubmitOp::Read {
                    key: 100 + tag,
                    buf: Vec::new(),
                },
                Priority::Background,
                &tx,
            );
        }
        assert_eq!(r.background_backlog(), vec![4]);
        for tag in 0..4u64 {
            let op = SubmitOp::Read {
                key: 200 + tag,
                buf: Vec::new(),
            };
            r.submit(0, 1, tag, op, &tx);
        }
        let mut order = Vec::new();
        for _ in 0..9 {
            let c = rx.recv().unwrap();
            if c.access != 9 {
                order.push(c.access);
            }
        }
        assert_eq!(order, vec![1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(r.background_backlog(), vec![0]);
    }

    #[test]
    fn ring_cancel_revokes_background_ops_too() {
        let r = ring(1);
        let (tx, rx) = mpsc::channel();
        for tag in 0..32u64 {
            r.submit_with(
                0,
                5,
                tag,
                SubmitOp::Read {
                    key: tag,
                    buf: Vec::new(),
                },
                Priority::Background,
                &tx,
            );
        }
        r.cancel(5);
        let (mut cancelled, mut serviced) = (0, 0);
        for _ in 0..32 {
            match rx.recv().unwrap().kind {
                CompletionKind::Cancelled { .. } => cancelled += 1,
                CompletionKind::Read { .. } => serviced += 1,
                other => panic!("unexpected completion {other:?}"),
            }
        }
        assert_eq!(cancelled + serviced, 32);
        assert_eq!(r.background_backlog(), vec![0]);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn ordered_window_delivers_in_submission_order_within_the_bound() {
        let r = ring(4);
        let mut w = OrderedWindow::new(&r, 3, Priority::Foreground, 4);
        let mut seen = Vec::new();
        let mut max_in_flight = 0;
        for tag in 0..32u64 {
            let mut on = |t: u64, kind: CompletionKind| {
                assert!(matches!(kind, CompletionKind::Write(WriteOutcome::Done)));
                seen.push(t);
                Ok(())
            };
            let op = SubmitOp::Write {
                key: tag,
                data: vec![tag as u8; 8],
            };
            w.submit((tag % 4) as usize, op, &mut on).unwrap();
            max_in_flight = max_in_flight.max(w.order.submitted() - w.order.next);
        }
        w.finish(&mut |t, _| {
            seen.push(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (0..32).collect::<Vec<u64>>());
        assert!(max_in_flight <= 4, "window overrun: {max_in_flight}");
        assert!(w.abort().is_empty(), "nothing left to drain");
    }

    #[test]
    fn ordered_window_reports_a_closed_channel_as_a_disk_fault() {
        let r = ring(2);
        let mut w = OrderedWindow::new(&r, 4, Priority::Foreground, 4);
        // An op whose worker died holding it: submitted to disk 1, its
        // sender dropped without a completion.
        w.order.push(1);
        // `finish` releases the window's own sender — the last one — so
        // the wait sees a closed channel instead of blocking forever.
        let err = w.finish(&mut |_, _| Ok(())).unwrap_err();
        assert_eq!(err, StoreError::DiskFault { disk: 1 });
        // The rollback drain terminates too, with nothing to hand back.
        assert!(w.abort().is_empty());
    }

    #[test]
    fn reorder_states_sharing_a_channel_each_hand_back_their_own_in_order() {
        // Two accesses over one channel, their completions interleaved and
        // out of tag order, as the read reactor sees them.
        let (tx, rx) = mpsc::channel();
        let mut states = [Reorder::new(8), Reorder::new(8)];
        for (disk, st) in states.iter_mut().enumerate() {
            for _ in 0..4 {
                st.push(disk);
            }
        }
        let arrivals = [
            (1, 2),
            (0, 3),
            (1, 0),
            (0, 1),
            (0, 0),
            (1, 3),
            (0, 2),
            (1, 1),
        ];
        for (access, tag) in arrivals {
            let buf = vec![access as u8, tag as u8];
            let kind = CompletionKind::Cancelled { buf };
            let disk = access as usize;
            tx.send(Completion {
                access,
                tag,
                disk,
                kind,
            })
            .unwrap();
        }
        drop(tx);
        let mut left = [4, 4];
        let mut seen: [Vec<u64>; 2] = Default::default();
        for c in rx {
            let a = c.access as usize;
            assert!(states[a].outstanding());
            states[a].receive(c);
            left[a] -= 1;
            assert_eq!(states[a].outstanding(), left[a] > 0);
            while let Some((tag, kind)) = states[a].pop() {
                let CompletionKind::Cancelled { buf } = kind else {
                    unreachable!("only cancellations were sent");
                };
                assert_eq!(buf, vec![a as u8, tag as u8], "another access's completion");
                seen[a].push(tag);
            }
        }
        assert_eq!(seen, [vec![0, 1, 2, 3], vec![0, 1, 2, 3]]);
        assert!(states.iter().all(|st| st.parked.is_empty()));
    }

    #[test]
    fn ring_batches_contiguous_writes() {
        let backend = Arc::new(ShardedBackend::new(
            Box::new(InMemoryBackend::uniform(1, 10e6)),
            true,
        ));
        let r = IoRing::start(
            backend.clone(),
            RingConfig {
                group_commit: 4,
                read_attempts: 1,
                backoff_micros: 0,
            },
        );
        let (tx, rx) = mpsc::channel();
        for tag in 0..12u64 {
            r.submit(
                0,
                tag % 3, // three interleaved accesses share the batch
                tag,
                SubmitOp::Write {
                    key: tag,
                    data: vec![tag as u8; 8],
                },
                &tx,
            );
        }
        for _ in 0..12 {
            let c = rx.recv().unwrap();
            assert!(matches!(c.kind, CompletionKind::Write(WriteOutcome::Done)));
        }
        drop(r);
        // All 12 blocks landed despite batching across accesses.
        assert_eq!(backend.disk_used(0), 12 * 8);
        assert_eq!(backend.writes(), 12);
    }
}
