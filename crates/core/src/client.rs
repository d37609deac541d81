//! The RobuSTore client and its access procedures (§4.3).
//!
//! Clients do the heavy lifting in RobuSTore (Figure 4-3): they query the
//! metadata server, plan the layout, encode and decode on their own CPU
//! ("end-to-end" placement of coding, §4.2), and drive speculative access.
//! [`System`] bundles the shared services — metadata server, storage
//! backend, per-server admission controllers, key authority — behind
//! locks, so multiple clients can share one store.
//!
//! The speculative behaviours are realised with real data movement:
//!
//! * **write** (§4.3.2) — rateless LT encoding; more blocks flow to faster
//!   disks (blocks ∝ disk bandwidth, the §5.3.2 layout; a disk's
//!   registered bandwidth is halved per doubling its ring measures it
//!   short of that), stopping at
//!   N = (1+D)·K committed blocks. Overwrites are crash-consistent: the
//!   new generation lands under fresh (opposite-parity) keys while a
//!   bounded pipeline overlaps encoding with disk I/O, the metadata
//!   commit switches versions atomically, and only then is the old
//!   generation garbage-collected (on error, the new one is instead).
//! * **read** (§4.3.3) — block requests queue on the per-disk I/O ring in
//!   the wave policy's schedule (nominally: per-disk streams merged by
//!   virtual arrival time); the incremental decoder stops the access the
//!   moment it completes, and the still-queued requests are cancelled —
//!   the backend's read counter shows the savings.
//! * **update** (§4.3.4) — only the coded blocks whose coding-graph
//!   neighbourhood intersects the changed originals are regenerated.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use robustore_erasure::lt::{LtCode, LtDecoder};
use robustore_erasure::{Block, BlockPool, LtParams};
use robustore_schemes::WaveSlot;
use robustore_simkit::rng::uniform01;
use robustore_simkit::SeedSequence;

use crate::admission::AdmissionController;
use crate::backend::{InMemoryBackend, StorageBackend};
use crate::credentials::{CredentialChain, KeyAuthority, PublicKey, Rights};
use crate::error::StoreError;
use crate::integrity::crc32c;
use crate::metadata::{gen_key, AccessMode, CodingSpec, DiskInfo, FileMeta};
use crate::metastore::{Metastore, MetastoreConfig, RecoveryReport};
use crate::planner::{speculative_placement, LayoutPlanner, ReadPolicy};
use crate::qos::QosOptions;
use crate::repair::{ScrubOptions, ScrubReport};
use crate::ring::{
    Completion, CompletionKind, IoRing, OrderedWindow, Priority, Reorder, RingConfig, SubmitOp,
    WriteOutcome,
};
use crate::sharded::ShardedBackend;

/// System-wide configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Coding block size, bytes (1 MB is the paper's sweet spot; small
    /// values keep tests fast).
    pub block_bytes: u64,
    /// LT parameters used for new files.
    pub lt: LtParams,
    /// Concurrent accesses each storage server admits (§5.4).
    pub admission_capacity: usize,
    /// Application domain stamped into credentials.
    pub app_domain: String,
    /// Bounded retry policy for transiently failing block reads.
    pub read_retry: ReadRetry,
    /// Queue damage discovered by a read: when a read decodes despite
    /// missing or corrupt blocks, it returns at once and puts the file on
    /// the system's repair backlog, which the next
    /// [`crate::repair::RepairService::run_enqueued`] pass scrubs. The
    /// read itself does no repair I/O and takes no file lock for it.
    /// `false`: reads heal nothing.
    pub read_repair: bool,
    /// Group commit: how many consecutive same-disk writes a ring worker
    /// may coalesce — across accesses — into one shard-lock acquisition
    /// ([`crate::backend::DiskShard::commit_batch`]). `0` or `1`
    /// disables batching. The backend sees every write in the same
    /// per-disk order at any setting, so committed state is
    /// byte-identical.
    pub group_commit: usize,
    /// How reads schedule their speculative block requests:
    /// [`ReadPolicy::Adaptive`] (the default) sizes staged waves from the
    /// decoder's expected need and orders them by live per-disk load
    /// ([`IoRing::load_map`]); [`ReadPolicy::Static`] requests every
    /// stored block up front in nominal arrival order — the paper's
    /// policy. Decoded bytes are identical under either policy; only
    /// disk pressure and tail latency differ.
    pub read_policy: ReadPolicy,
    /// The durable metadata plane (see [`crate::metastore`]): the
    /// namespace hash-sharded across WAL-backed, quorum-replicated
    /// shards with crash recovery, so every metadata commit is a
    /// replicated log append. The default keeps the replicas in memory;
    /// set a `dir` for file-backed replicas that survive process
    /// restarts.
    pub metastore: MetastoreConfig,
}

/// Bounded retry-with-backoff for transient read errors
/// ([`StoreError::TransientIo`]). Hard errors (missing block, checksum
/// mismatch) are never retried — they skip straight to the degraded-read
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRetry {
    /// Total attempts per block (first try included); once spent, the
    /// block is demoted to missing. Minimum 1.
    pub attempts: u32,
    /// Base backoff before the second attempt, microseconds; doubles per
    /// further attempt (plain exponential — the ring workers that sleep
    /// it stay seed-free). `0` disables sleeping entirely (simulated
    /// backends fail and recover instantly — tests stay fast).
    pub backoff_micros: u64,
}

impl Default for ReadRetry {
    fn default() -> Self {
        ReadRetry {
            attempts: 3,
            backoff_micros: 0,
        }
    }
}

/// Encode worker count: the host's parallelism, capped at 8 — segment
/// encode is memory-bandwidth-bound well before that on most hosts.
/// Resolved once per [`System`] (the lookup reads cgroup files on Linux).
fn default_encode_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Default group-commit bound: up to 8 consecutive same-disk writes per
/// shard-lock acquisition — enough to amortise dispatch costs without
/// starving concurrent accesses of the shard.
pub fn default_group_commit() -> usize {
    8
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            block_bytes: 1 << 20,
            lt: LtParams::default(),
            admission_capacity: 4,
            app_domain: "RobuSTore".into(),
            read_retry: ReadRetry::default(),
            read_repair: true,
            group_commit: default_group_commit(),
            read_policy: ReadPolicy::default(),
            metastore: MetastoreConfig::default(),
        }
    }
}

struct SystemInner {
    config: SystemConfig,
    meta: Mutex<Metastore>,
    /// The sharded submission layer: locking is per disk and *internal*,
    /// so accesses touching different disks never exclude each other
    /// here. Shared with the ring workers, hence the `Arc`.
    backend: Arc<ShardedBackend>,
    /// The async submission/completion ring over `backend`: the one data
    /// path every access's block I/O takes.
    ring: IoRing,
    /// Encode workers a write/update spawns once its encode work reaches
    /// [`PARALLEL_ENCODE_MIN_BYTES`] (coded blocks are independent,
    /// §7.3's parallel-coding direction); smaller ones encode inline.
    /// Committed state is byte-identical at any count.
    encode_workers: usize,
    admission: Mutex<Vec<AdmissionController>>,
    authority: Mutex<KeyAuthority>,
    /// Recycled read buffers shared across accesses (one size at a time;
    /// dropped and replaced if a file with a different block size is read).
    pool: Mutex<Option<BlockPool>>,
    clock: AtomicU64,
    next_access: AtomicU64,
    /// The store-wide repair backlog: files a read found damaged, or a
    /// repair pass left unfinished, awaiting the next
    /// [`crate::repair::RepairService::run_enqueued`] pass (deduplicated,
    /// name-ordered). Bounded by live files: a delete takes its name out.
    repair_backlog: Mutex<BTreeSet<String>>,
}

/// A shared RobuSTore deployment: metadata, storage, admission, keys.
#[derive(Clone)]
pub struct System {
    inner: Arc<SystemInner>,
}

impl System {
    /// Stand up a system over an in-memory backend, registering every disk
    /// with the metadata server.
    pub fn new(backend: InMemoryBackend, config: SystemConfig) -> Self {
        Self::with_backend(Box::new(backend), config)
    }

    /// Stand up a system over any [`StorageBackend`]. Panics if the
    /// backend cannot shard or the metadata replicas cannot be opened;
    /// [`System::try_with_backend`] is the fallible form.
    pub fn with_backend(backend: Box<dyn StorageBackend + Send>, config: SystemConfig) -> Self {
        Self::try_with_backend(backend, config)
            .expect("backend must shard and metastore replicas must be openable")
    }

    /// Stand up a system over any [`StorageBackend`] (e.g. the durable
    /// [`crate::file_backend::FileBackend`]), recovering the metadata
    /// plane from its replicas. Fails with [`StoreError::Io`] when the
    /// backend cannot split into per-disk shards
    /// ([`StorageBackend::try_shard`] — block I/O runs only on shards), and
    /// when file-backed replicas under [`MetastoreConfig::dir`] cannot be
    /// opened or recovered.
    pub fn try_with_backend(
        backend: Box<dyn StorageBackend + Send>,
        config: SystemConfig,
    ) -> Result<Self, StoreError> {
        let backend = Arc::new(ShardedBackend::try_new(backend)?);
        let mut meta = Metastore::new(config.metastore.clone())?;
        let admission = (0..backend.num_disks())
            .map(|_| AdmissionController::new(config.admission_capacity))
            .collect();
        for id in 0..backend.num_disks() {
            meta.register_disk(DiskInfo {
                id,
                capacity_bytes: 1 << 40,
                used_bytes: 0,
                expected_bandwidth: backend.disk_speed(id),
                load: 0.0,
                // Alternate availability classes so the planner's mixing
                // policy has something to mix.
                availability: if id % 2 == 0 { 0.999 } else { 0.95 },
            });
        }
        let ring = IoRing::start(
            backend.clone(),
            RingConfig {
                group_commit: config.group_commit,
                read_attempts: config.read_retry.attempts,
                backoff_micros: config.read_retry.backoff_micros,
            },
        );
        Ok(System {
            inner: Arc::new(SystemInner {
                config,
                meta: Mutex::new(meta),
                backend,
                ring,
                encode_workers: default_encode_workers(),
                admission: Mutex::new(admission),
                authority: Mutex::new(KeyAuthority::new()),
                pool: Mutex::new(None),
                clock: AtomicU64::new(0),
                next_access: AtomicU64::new(0),
                repair_backlog: Mutex::new(BTreeSet::new()),
            }),
        })
    }

    /// System configuration.
    pub fn config(&self) -> SystemConfig {
        self.inner.config.clone()
    }

    /// Create an identity (keypair) in this system's key authority.
    pub fn register_user(&self) -> PublicKey {
        self.inner.authority.lock().generate()
    }

    /// Issue a delegation credential (see [`crate::credentials`]).
    pub fn issue_credential(
        &self,
        authorizer: PublicKey,
        licensee: PublicKey,
        rights: Rights,
        file: &str,
        valid_until: u64,
    ) -> Result<crate::credentials::Credential, StoreError> {
        let handle = self
            .inner
            .meta
            .lock()
            .stat(file)
            .map(|m| m.file_id)
            .ok_or_else(|| StoreError::NotFound(file.to_string()))?;
        self.inner
            .authority
            .lock()
            .issue(
                authorizer,
                licensee,
                crate::credentials::Conditions {
                    app_domain: self.inner.config.app_domain.clone(),
                    handle,
                    rights,
                    valid_from: 0,
                    valid_until,
                },
            )
            .map(Ok)
            .unwrap_or_else(|e| Err(StoreError::AccessDenied(e)))
    }

    /// Current logical time (credential validity).
    pub fn now(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Advance logical time.
    pub fn advance_clock(&self, by: u64) {
        self.inner.clock.fetch_add(by, Ordering::Relaxed);
    }

    /// Backend traffic counters `(block_reads, block_writes)`.
    pub fn backend_stats(&self) -> (u64, u64) {
        let b = &self.inner.backend;
        (b.reads(), b.writes())
    }

    /// Bytes stored on one disk (backend accounting; orphan detection in
    /// the crash-consistency tests).
    pub fn disk_used(&self, disk: usize) -> u64 {
        self.inner.backend.disk_used(disk)
    }

    /// Bytes stored across every disk.
    pub fn total_used(&self) -> u64 {
        let b = &self.inner.backend;
        (0..b.num_disks()).map(|d| b.disk_used(d)).sum()
    }

    /// Number of disks in the backend.
    pub fn num_disks(&self) -> usize {
        self.inner.backend.num_disks()
    }

    /// Presence probe: does `disk` currently hold a readable copy of
    /// block key `key`? Not a read — counters and injected-fault budgets
    /// are untouched. The repair service's risk assessment runs on this,
    /// so surveying a large store costs no disk traffic.
    pub fn probe_block(&self, disk: usize, key: u64) -> bool {
        self.inner.backend.has_block(disk, key)
    }

    /// Live per-disk load snapshot from the I/O ring.
    pub fn load_map(&self) -> robustore_schemes::DiskLoadMap {
        self.inner.ring.load_map()
    }

    /// Read-buffer pool counters `(fresh_allocations, reuses)` — the
    /// byte-allocation evidence that repeated reads recycle buffers
    /// instead of allocating (zeros before the first read).
    pub fn pool_stats(&self) -> (u64, u64) {
        match self.inner.pool.lock().as_ref() {
            Some(p) => (p.fresh_allocations(), p.reuses()),
            None => (0, 0),
        }
    }

    /// Bytes checked out of the read-buffer pool and not yet returned.
    /// Zero whenever no access is in flight — every completed read puts
    /// every buffer back (asserted by tests, including concurrent reads).
    pub fn pool_outstanding_bytes(&self) -> i64 {
        self.inner
            .pool
            .lock()
            .as_ref()
            .map_or(0, |p| p.outstanding_bytes())
    }

    /// Hold an admission slot on `disk` out-of-band (used by examples and
    /// tests to emulate competing tenants).
    pub fn occupy_admission(&self, disk: usize, token: u64) -> bool {
        self.inner.admission.lock()[disk].request(token)
    }

    /// Release an out-of-band admission slot.
    pub fn release_admission(&self, disk: usize, token: u64) -> bool {
        self.inner.admission.lock()[disk].release(token)
    }

    /// Failure injection: take a disk offline or bring it back. Reads
    /// degrade gracefully (redundancy permitting); writes route around.
    pub fn set_disk_offline(&self, disk: usize, offline: bool) {
        self.inner.backend.set_offline(disk, offline);
    }

    /// Fault injection: deterministically lose each of `disk`'s stored
    /// blocks with probability `fraction` (latent sector errors, seeded
    /// by `seq`). Reads degrade gracefully: missing coded blocks are
    /// skipped and redundancy absorbs the loss up to its margin.
    /// Returns the lost block keys.
    pub fn lose_blocks(&self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.backend.drop_random_blocks(disk, fraction, seq)
    }

    /// Fault injection: silently flip one byte in each of `disk`'s stored
    /// blocks with probability `fraction` (at-rest bit rot, seeded by
    /// `seq`). The backend still serves the block — only checksum
    /// verification can tell. Returns the corrupted block keys.
    pub fn corrupt_blocks(&self, disk: usize, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner
            .backend
            .corrupt_random_blocks(disk, fraction, seq)
    }

    /// Fault injection, file-scoped: deterministically delete each of
    /// `name`'s stored blocks with probability `fraction` (seeded by
    /// `seq`), leaving every other file untouched. Metadata is not
    /// told — the damage is latent until a read, scrub, or repair-risk
    /// survey trips over it. Returns the number of blocks dropped.
    pub fn lose_file_blocks(&self, name: &str, fraction: f64, seq: &SeedSequence) -> usize {
        let Some(meta) = self.export_meta(name) else {
            return 0;
        };
        let mut rng = seq.fork("file-loss", meta.file_id);
        let mut dropped = 0;
        for (disk, ids) in &meta.layout {
            for &id in ids {
                if uniform01(&mut rng) < fraction
                    && self
                        .inner
                        .backend
                        .delete_block(*disk, meta.block_key(id))
                        .is_ok()
                {
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Snapshot a file's committed metadata.
    pub fn export_meta(&self, name: &str) -> Option<FileMeta> {
        self.inner.meta.lock().stat(name).cloned()
    }

    /// Commit metadata taken from outside the metastore, bypassing locks
    /// (see [`Metastore::restore`]). The product's one caller is the CLI's
    /// one-shot import of legacy sidecar files; tests use it to seed a
    /// system with hand-edited metadata. This is a quorum commit and can
    /// fail.
    pub fn import_meta(&self, meta: FileMeta) -> Result<(), StoreError> {
        self.inner.meta.lock().restore(meta)
    }

    /// List the files the metadata server knows about.
    pub fn list_files(&self) -> Vec<String> {
        self.inner.meta.lock().list()
    }

    /// Run `f` against the metadata plane ([`Metastore`]) — chaos hooks,
    /// forced compaction, replica handles.
    pub fn with_metastore<R>(&self, f: impl FnOnce(&mut Metastore) -> R) -> R {
        f(&mut self.inner.meta.lock())
    }

    /// Crash-recover the metadata plane: discard all volatile metadata
    /// state (namespace images, locks, id cursor) and rebuild it from
    /// the shard replicas — log replay with torn-tail truncation, winner
    /// election, read-repair.
    pub fn recover_metadata(&self) -> Result<Vec<RecoveryReport>, StoreError> {
        self.inner.meta.lock().crash_and_recover()
    }

    /// Borrow the recycled read-buffer pool for one access; every fetched
    /// buffer returns to it (decoded or spare), so repeated reads are
    /// allocation-free after the first. A pool of another block size is
    /// taken and dropped, and a fresh one started.
    fn borrow_pool(&self, block_len: usize) -> BlockPool {
        match self.inner.pool.lock().take() {
            Some(p) if p.block_len() == block_len => p,
            _ => BlockPool::new(block_len),
        }
    }

    /// Hand a borrowed pool back — on *every* exit, so buffers and
    /// counters never leak. Concurrent accesses each run on their own
    /// pool (the lock is never held across I/O); merging instead of
    /// overwriting keeps every buffer and every counter exact no matter
    /// how many overlapped.
    fn return_pool(&self, pool: BlockPool) {
        let mut slot = self.inner.pool.lock();
        match slot.as_mut() {
            Some(existing) if existing.block_len() == pool.block_len() => existing.absorb(pool),
            _ => *slot = Some(pool),
        }
    }

    fn next_access_id(&self) -> u64 {
        self.inner.next_access.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The store-wide repair backlog every
    /// [`crate::repair::RepairService`] on this system shares.
    pub(crate) fn repair_backlog(&self) -> &Mutex<BTreeSet<String>> {
        &self.inner.repair_backlog
    }
}

/// An open file.
pub struct FileHandle {
    name: String,
    mode: AccessMode,
    qos: QosOptions,
    meta: Option<FileMeta>,
    closed: bool,
}

impl FileHandle {
    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Open mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Metadata snapshot (absent for a brand-new file before its first
    /// write).
    pub fn meta(&self) -> Option<&FileMeta> {
        self.meta.as_ref()
    }
}

/// Report of a completed write.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Coded blocks committed (N).
    pub blocks_written: usize,
    /// Redundancy degree used.
    pub redundancy: f64,
    /// Disks used: the layout's disks that received a block.
    pub disks: usize,
}

/// Report of a completed read.
#[derive(Debug, Clone)]
pub struct ReadReport {
    /// Blocks actually fetched (delivered to the decoder) before it
    /// completed.
    pub blocks_fetched: usize,
    /// Stored blocks the decoder did not take: stored − fetched. Besides
    /// requests revoked by the cancel, this counts blocks found missing or
    /// corrupt, blocks never requested (`blocks_deferred`), and reads
    /// that completed after the decode point and were discarded.
    pub blocks_cancelled: usize,
    /// Reception overhead: fetched/K − 1.
    pub reception_overhead: f64,
    /// Transient read errors absorbed by the retry policy (each retried
    /// attempt counts one).
    pub transient_retries: u64,
    /// Blocks skipped as missing (lost sectors, offline disks, or a
    /// retry budget spent on a transiently failing disk).
    pub blocks_missing: usize,
    /// Blocks fetched but discarded for failing verification (checksum
    /// mismatch or short read) — silent corruption demoted to missing.
    pub blocks_corrupt: usize,
    /// Blocks delivered without verification because the file's metadata
    /// carries no checksum for them (legacy, pre-integrity files).
    pub blocks_unverified: usize,
    /// Always 0: a read repairs nothing itself. A read that finds damage
    /// queues its file on the repair backlog instead (see
    /// [`SystemConfig::read_repair`]); the scrub that drains it reports
    /// what it restored. Kept for source compatibility.
    pub blocks_repaired: usize,
    /// Blocks never requested: the decoder finished before their wave
    /// came up, or before the bounded submission window reached them.
    /// Unlike cancelled blocks these never entered a disk queue at all.
    /// How far submission had run ahead at the decode point is
    /// wall-clock, so this can differ between identical runs.
    pub blocks_deferred: usize,
    /// Submission waves issued (1 = the first wave sufficed; each stall
    /// or deadline-budget extension adds one). Always 1 under the static
    /// policy.
    pub waves: usize,
}

/// Report of an update.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Original blocks the patch touched.
    pub originals_changed: usize,
    /// Coded blocks regenerated and rewritten.
    pub coded_rewritten: usize,
    /// Fraction of all stored blocks rewritten (§4.3.4: ≈0.5 % for a
    /// one-block change at K=1024, N=4096).
    pub fraction_rewritten: f64,
}

/// One result slot per requested handle, filled as accesses resolve.
type ReadSlots = Vec<Option<Result<(Vec<u8>, ReadReport), StoreError>>>;

/// A RobuSTore client bound to one identity.
pub struct Client {
    system: System,
    identity: PublicKey,
    planner: LayoutPlanner,
}

impl Client {
    /// Connect to `system` as `identity`.
    pub fn connect(system: &System, identity: PublicKey) -> Self {
        Client {
            system: system.clone(),
            identity,
            planner: LayoutPlanner::default(),
        }
    }

    /// The client's identity.
    pub fn identity(&self) -> PublicKey {
        self.identity
    }

    /// The system this client is connected to.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// `open(filename, access_type, qos)` — Appendix B. Owners open their
    /// own files directly; everyone else needs [`Client::open_with_chain`].
    pub fn open(
        &self,
        name: &str,
        mode: AccessMode,
        qos: QosOptions,
    ) -> Result<FileHandle, StoreError> {
        self.open_inner(name, mode, qos, None)
    }

    /// Open with a credential chain delegating access from the file owner.
    pub fn open_with_chain(
        &self,
        name: &str,
        mode: AccessMode,
        qos: QosOptions,
        chain: &CredentialChain,
    ) -> Result<FileHandle, StoreError> {
        self.open_inner(name, mode, qos, Some(chain))
    }

    fn open_inner(
        &self,
        name: &str,
        mode: AccessMode,
        qos: QosOptions,
        chain: Option<&CredentialChain>,
    ) -> Result<FileHandle, StoreError> {
        qos.validate().map_err(StoreError::AccessDenied)?;
        let mut meta_srv = self.system.inner.meta.lock();
        let meta = meta_srv.open(name, mode)?;
        // Authorisation: owners pass; others must present a chain.
        if let Some(m) = &meta {
            if m.owner != self.identity {
                let needed = match mode {
                    AccessMode::Read => Rights::R,
                    AccessMode::Write => Rights::W,
                };
                let ok = match chain {
                    Some(c) => self
                        .system
                        .inner
                        .authority
                        .lock()
                        .validate_chain(
                            c,
                            m.owner,
                            self.identity,
                            needed,
                            m.file_id,
                            &self.system.inner.config.app_domain,
                            self.system.now(),
                        )
                        .map_err(StoreError::AccessDenied),
                    None => Err(StoreError::AccessDenied(
                        "not the owner and no credential chain presented".into(),
                    )),
                };
                if let Err(e) = ok {
                    meta_srv.close(name, mode);
                    return Err(e);
                }
            }
        }
        Ok(FileHandle {
            name: name.to_string(),
            mode,
            qos,
            meta,
            closed: false,
        })
    }

    /// `write(fdescriptor, data)` — §4.3.2: plan layout, encode, spread
    /// coded blocks (more to faster disks — by registered speed, halved
    /// for a disk the ring measures well short of it), commit metadata.
    pub fn write(&self, handle: &mut FileHandle, data: &[u8]) -> Result<WriteReport, StoreError> {
        if handle.mode != AccessMode::Write || handle.closed {
            return Err(StoreError::WrongMode);
        }
        if data.is_empty() {
            return Err(StoreError::OutOfRange);
        }
        let block_bytes = self.system.inner.config.block_bytes as usize;
        let k = data.len().div_ceil(block_bytes);
        let blocks = split_blocks(data, block_bytes, k);

        // Plan disks + redundancy from the registry.
        let plan = {
            let meta_srv = self.system.inner.meta.lock();
            self.planner.plan(&handle.qos, meta_srv.disks())?
        };

        // Admission per selected storage server (§5.4): refused disks are
        // dropped; the access proceeds if at least one server admits.
        let access_id = self.system.next_access_id();
        let admitted: Vec<usize> = {
            let mut adm = self.system.inner.admission.lock();
            plan.disks
                .iter()
                .copied()
                .filter(|&d| adm[d].request(access_id))
                .collect()
        };
        if admitted.is_empty() {
            return Err(StoreError::AdmissionDenied {
                disk: *plan.disks.first().expect("plan has disks"),
            });
        }

        let result = self.write_admitted(
            handle,
            &blocks,
            data.len() as u64,
            &admitted,
            plan.redundancy,
        );

        // Release admission regardless of outcome.
        let mut adm = self.system.inner.admission.lock();
        for &d in &admitted {
            adm[d].release(access_id);
        }
        result
    }

    fn write_admitted(
        &self,
        handle: &mut FileHandle,
        blocks: &[Vec<u8>],
        size_bytes: u64,
        disks: &[usize],
        redundancy: f64,
    ) -> Result<WriteReport, StoreError> {
        let k = blocks.len();
        let n = (((1.0 + redundancy) * k as f64).round() as usize).max(k);
        let (file_id, version) = {
            let mut meta_srv = self.system.inner.meta.lock();
            match &handle.meta {
                Some(m) => (m.file_id, m.version + 1),
                None => (meta_srv.allocate_file_id()?, 1),
            }
        };
        let seed = file_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version);
        let params = self.system.inner.config.lt;
        let code = LtCode::plan(k, n, params, seed)?;

        let backend = &self.system.inner.backend;
        let ring = &self.system.inner.ring;
        // Speculative spreading: block counts proportional to disk speed —
        // the registered speed, halved per whole doubling the ring
        // measures a disk's sustained speed short of it.
        let registered: Vec<f64> = disks.iter().map(|&d| backend.disk_speed(d)).collect();
        let sustained: Vec<Option<f64>> = disks.iter().map(|&d| ring.sustained_speed(d)).collect();
        let placement = speculative_placement(k, n, &registered, &sustained);

        let layout: Vec<(usize, Vec<u32>)> = disks
            .iter()
            .enumerate()
            .map(|(slot, &d)| {
                (
                    d,
                    placement.per_disk[slot]
                        .iter()
                        .map(|b| b.semantic)
                        .collect(),
                )
            })
            .collect();

        // Copy-on-write overwrite: every new-generation block lands under
        // the key of *opposite* parity to the old generation's, so the
        // previous version stays intact (and readable) until the metadata
        // commit. Ids the old generation does not store default to even.
        let old = handle.meta.clone();
        let new_odd: BTreeSet<u32> = match &old {
            Some(old) => {
                let old_stored: HashSet<u32> = old
                    .layout
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                layout
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .filter(|id| old_stored.contains(id) && !old.odd_keys.contains(id))
                    .collect()
            }
            None => BTreeSet::new(),
        };

        let mut meta = FileMeta {
            name: handle.name.clone(),
            file_id,
            size_bytes,
            coding: CodingSpec {
                k,
                n,
                block_bytes: self.system.inner.config.block_bytes,
                params,
                seed,
            },
            layout,
            odd_keys: new_odd.clone(),
            checksums: BTreeMap::new(),
            owner: old.as_ref().map(|m| m.owner).unwrap_or(self.identity),
            version,
        };

        // Every planned write, interleaved across the layout's disks —
        // the order the in-order pipeline writer issues them, so the
        // window keeps all of the file's disks writing at once and the
        // backend sees the same per-disk sequence at every thread count.
        // The starting slot rotates by file id (deterministic):
        // concurrent accesses to different files begin on different disks
        // instead of convoying on the same shard. Per-slot id order is
        // unchanged, so the committed layout depends on neither the
        // interleaving nor the rotation.
        let jobs = disk_interleaved(&meta.layout, file_id as usize);
        let job_ids: Vec<u32> = jobs.iter().map(|&(_, coded)| coded).collect();

        {
            // Writes the commit protocol must undo if this access aborts.
            let mut written: Vec<(usize, u64)> = Vec::new();
            // Blocks a disk refused, with their encoded bytes — relocated
            // below without re-encoding. Rateless writing routes around
            // refusing disks (§4.1.1); anything worse aborts the access.
            let mut displaced: BTreeMap<u32, (Option<usize>, Block)> = BTreeMap::new();
            let key_of = |coded: u32| gen_key(file_id, coded, new_odd.contains(&coded));
            let checksums = self.encode_and_write(
                &code,
                blocks,
                &job_ids,
                &|idx| {
                    let (disk, coded) = jobs[idx];
                    (disk, key_of(coded))
                },
                &mut written,
                &mut |idx, _refusal, data| {
                    let (disk, coded) = jobs[idx];
                    displaced.insert(coded, (Some(disk), data));
                    Ok(())
                },
            )?;
            if !displaced.is_empty() {
                // Each layout slot keeps the ids that landed; the refused
                // ones move to the disks that took writes, and the access
                // fails if any finds no disk.
                for (_, ids) in meta.layout.iter_mut() {
                    ids.retain(|id| !displaced.contains_key(id));
                }
                let landed: Vec<usize> = meta
                    .layout
                    .iter()
                    .filter(|(_, ids)| !ids.is_empty())
                    .map(|(disk, _)| *disk)
                    .collect();
                let unplaced = self.relocate(
                    &mut meta.layout,
                    displaced,
                    &key_of,
                    &landed,
                    Priority::Foreground,
                    &mut written,
                );
                if unplaced > 0 {
                    delete_blocks(backend, &written);
                    return Err(StoreError::InsufficientDisks { got: 0, need: 1 });
                }
            }
            meta.checksums = checksums;
            // Commit point: the metadata switch-over makes the new
            // generation the file. Until here the old version was intact;
            // from here the new one is.
            let mut meta_srv = self.system.inner.meta.lock();
            if let Err(e) = meta_srv.commit(meta.clone()) {
                delete_blocks(backend, &written);
                return Err(e);
            }
            // Garbage-collect the superseded generation (its keys differ
            // from every new one by the parity bit, so nothing just
            // written is touched).
            if let Some(old) = &old {
                delete_blocks(backend, &stored_keys(old));
            }
            // Feed fresh usage back to the registry (§4.2: dynamic storage
            // information comes from client accesses).
            for &d in disks {
                let used = backend.disk_used(d);
                let load = { self.system.inner.admission.lock()[d].load() };
                meta_srv.update_disk(d, used, load);
            }
        }
        // Disks that hold a block: an admitted disk can get none.
        let used = meta
            .layout
            .iter()
            .filter(|(_, ids)| !ids.is_empty())
            .count();
        handle.meta = Some(meta);
        Ok(WriteReport {
            blocks_written: n,
            redundancy,
            disks: used,
        })
    }

    /// The write leg shared by `write` and `update`: encode the coded
    /// blocks `ids` and stream each to `target(idx) = (disk, key)` through
    /// the ring, overlapping encode with disk I/O. This is where an access
    /// picks its encode worker count: [`encode_threads`] keeps a write
    /// whose encode work is below [`PARALLEL_ENCODE_MIN_BYTES`] on the
    /// calling thread, and gives a larger one the system's encode workers.
    /// The ring workers coalesce the writes — and any concurrent access's —
    /// into cross-access group commits; outcomes are consumed strictly in
    /// `ids` order. Each landed write goes to `written`; a disk's refusal
    /// goes to `on_refused(idx, error, data)` (reroute, or fail the
    /// access), anything worse fails the access.
    /// Returns the digest of every coded block, taken once as it leaves
    /// the encoder — end-to-end integrity, whatever disk it lands on.
    ///
    /// On failure the access is rolled back before returning: still-queued
    /// writes are revoked and everything in `written` — including writes
    /// that landed after the failure — is deleted.
    fn encode_and_write(
        &self,
        code: &LtCode,
        blocks: &[Vec<u8>],
        ids: &[u32],
        target: &dyn Fn(usize) -> (usize, u64),
        written: &mut Vec<(usize, u64)>,
        on_refused: &mut dyn FnMut(usize, StoreError, Block) -> Result<(), StoreError>,
    ) -> Result<BTreeMap<u32, u32>, StoreError> {
        let inner = &self.system.inner;
        // The window stays small on purpose — callers hand over `ids`
        // interleaved across their disks (`disk_interleaved`), so 16 in
        // flight is about two writes per disk of a layout: every disk
        // stays busy, an abort has little to roll back, and reads running
        // beside the writer are not queued behind a deep write backlog.
        // It bounds ops not yet completed, so one slow block at the head
        // does not idle the other disks while it lands.
        let block_len = blocks.first().map_or(0, Vec::len);
        let threads = encode_threads(ids.len(), block_len, inner.encode_workers);
        let window = (2 * inner.config.group_commit.max(1))
            .max(2 * threads)
            .max(4);
        let mut writer = OrderedWindow::new(
            &inner.ring,
            self.system.next_access_id(),
            Priority::Foreground,
            window,
        );
        let mut checksums = BTreeMap::new();
        let mut on_write = |tag: u64, kind: CompletionKind| {
            let CompletionKind::Write(outcome) = kind else {
                unreachable!("write access got {kind:?}");
            };
            match outcome {
                WriteOutcome::Done => {
                    written.push(target(tag as usize));
                    Ok(())
                }
                WriteOutcome::Refused { error, data } => on_refused(tag as usize, error, data),
                WriteOutcome::Fault(e) => Err(e),
                WriteOutcome::Aborted { disk } => Err(StoreError::DiskFault { disk }),
            }
        };
        let result = encode_write_pipelined(code, blocks, ids, threads, |idx, coded, data| {
            let (disk, key) = target(idx);
            checksums.insert(coded, crc32c(&data));
            writer.submit(disk, SubmitOp::Write { key, data }, &mut on_write)
        })
        .and_then(|()| writer.finish(&mut on_write));
        if result.is_err() {
            for (tag, kind) in writer.abort() {
                if matches!(kind, CompletionKind::Write(WriteOutcome::Done)) {
                    written.push(target(tag as usize));
                }
            }
            delete_blocks(&inner.backend, written);
        }
        result.map(|()| checksums)
    }

    /// `read(fdescriptor, ...)` — §4.3.3: request everything, decode from
    /// the early arrivals, cancel the rest.
    pub fn read(&self, handle: &FileHandle) -> Result<Vec<u8>, StoreError> {
        self.read_with_report(handle).map(|(d, _)| d)
    }

    /// Read returning the speculative-access accounting.
    pub fn read_with_report(
        &self,
        handle: &FileHandle,
    ) -> Result<(Vec<u8>, ReadReport), StoreError> {
        self.read_many(&[handle])
            .pop()
            .expect("one result per handle")
    }

    /// Read several files at once from one client thread. Every access is
    /// kept in flight simultaneously: block requests stream into the
    /// per-disk queues in each file's wave schedule, completions are
    /// consumed in per-access order, and the moment an access decodes,
    /// its still-queued requests are revoked before the disks service
    /// them. Results come back in handle order; each access succeeds or
    /// fails independently.
    pub fn read_many(
        &self,
        handles: &[&FileHandle],
    ) -> Vec<Result<(Vec<u8>, ReadReport), StoreError>> {
        let mut results: ReadSlots = (0..handles.len()).map(|_| None).collect();
        self.read_many_with(handles, None, |i, r| results[i] = Some(r));
        results
            .into_iter()
            .map(|r| r.expect("every handle resolved"))
            .collect()
    }

    /// Streaming form of [`Client::read_many`]: each access's result is
    /// handed to `sink(handle_index, result)` the moment it resolves and
    /// its buffers are recycled immediately, so a batch of hundreds of
    /// accesses never holds more than the in-flight decoders' data in
    /// memory. `arrivals` optionally paces the batch open-loop: entry `i`
    /// is the offset in microseconds from the call's start before access
    /// `i` submits its first request (the tail-latency harness feeds
    /// Poisson offsets here; `None` starts everything at once). Offsets
    /// pace submission only — completions of early accesses are serviced
    /// while later ones wait. Accesses with different block sizes are
    /// driven as separate sequential reactor batches; open-loop pacing is
    /// only meaningful within one batch.
    pub fn read_many_with(
        &self,
        handles: &[&FileHandle],
        arrivals: Option<&[u64]>,
        mut sink: impl FnMut(usize, Result<(Vec<u8>, ReadReport), StoreError>),
    ) {
        let t0 = std::time::Instant::now();
        let arrival_of = |i: usize| arrivals.map_or(0, |offs| offs.get(i).copied().unwrap_or(0));
        // Group valid handles by block size: the buffer pool holds one
        // size at a time, so each group runs as one reactor batch.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, h) in handles.iter().enumerate() {
            match h.meta.as_ref() {
                Some(m) if !h.closed => {
                    groups
                        .entry(m.coding.block_bytes as usize)
                        .or_default()
                        .push(i);
                }
                _ => sink(i, Err(StoreError::StaleHandle)),
            }
        }
        for (block_len, idxs) in groups {
            let mut pool = self.system.borrow_pool(block_len);
            let jobs: Vec<(usize, &FileMeta, u64)> = idxs
                .iter()
                .map(|&i| {
                    (
                        i,
                        handles[i].meta.as_ref().expect("validated above"),
                        arrival_of(i),
                    )
                })
                .collect();
            self.ring_read_batch(&jobs, block_len, t0, &mut pool, &mut sink);
            self.system.return_pool(pool);
        }
    }

    /// The ring read reactor: drive a batch of same-block-size accesses
    /// to completion over the per-disk queues. Per access, requests are
    /// submitted in the wave policy's schedule with a bounded window, and
    /// completions are consumed strictly in tag order via a reorder
    /// buffer — so the decoder sees a deterministic block sequence and
    /// the decode point (hence the committed state and the report
    /// counters) depends only on the schedule, never on completion
    /// timing. Under [`ReadPolicy::Static`] — or adaptive with quiescent
    /// telemetry — the schedule is the nominal arrival order and the
    /// whole file is one wave. Under load, adaptive accesses submit a first
    /// wave of `⌈k·(1+ε)⌉` blocks and extend by `topup` entries whenever
    /// their outstanding completions run dry before decode (stall) or
    /// the deadline budget slips. On decode success the access's queued
    /// ops are revoked ([`IoRing::cancel`]); completions for ops the
    /// disks had already started are drained and their buffers recycled.
    /// Each job is `(handle_index, meta, arrival_micros)`; results go to
    /// `sink(handle_index, result)` as accesses resolve.
    fn ring_read_batch(
        &self,
        jobs: &[(usize, &FileMeta, u64)],
        block_len: usize,
        t0: std::time::Instant,
        pool: &mut BlockPool,
        sink: &mut impl FnMut(usize, Result<(Vec<u8>, ReadReport), StoreError>),
    ) {
        use std::time::{Duration, Instant};
        let ring = &self.system.inner.ring;
        let backend = &self.system.inner.backend;
        let policy = self.system.inner.config.read_policy;
        // Disk availabilities for the wave policy's mixing rule, indexed
        // by disk id (one registry lock per batch).
        let avail: Vec<f64> = {
            let meta_srv = self.system.inner.meta.lock();
            let mut avail = vec![1.0; backend.num_disks()];
            for d in meta_srv.disks() {
                if let Some(slot) = avail.get_mut(d.id) {
                    *slot = d.availability;
                }
            }
            avail
        };

        /// Per-access reactor state.
        struct ReadState<'m> {
            meta: &'m FileMeta,
            decoder: LtDecoder<'m>,
            /// `(slot, idx)` per tag — the wave policy's fetch schedule
            /// (empty until the access activates at its arrival time).
            order: Vec<(usize, usize)>,
            access: u64,
            /// Submission and reorder state of the reads `order` names.
            tags: Reorder,
            /// Submission bound: entries of `order` released so far (the
            /// first wave, plus one top-up per extension).
            limit: usize,
            /// Entries added per top-up extension.
            topup: usize,
            /// Deadline budget between extensions (`None` = no timer).
            deadline: Option<Duration>,
            /// Next deadline slip, re-armed on each extension.
            deadline_at: Option<Instant>,
            /// When this access may submit its first wave.
            arrival_at: Instant,
            started: bool,
            waves: usize,
            fetched: usize,
            retries: u64,
            missing: usize,
            corrupt: usize,
            unverified: usize,
            done_decoding: bool,
            fatal: Option<StoreError>,
        }

        impl ReadState<'_> {
            /// All released work is done but the decoder isn't: extend.
            fn stalled(&self) -> bool {
                self.started
                    && self.fatal.is_none()
                    && !self.done_decoding
                    && !self.tags.outstanding()
                    && self.tags.submitted() == self.limit
                    && self.limit < self.order.len()
            }

            /// Every outstanding completion drained and the access's fate
            /// decided — ready to finalize and emit.
            fn resolved(&self) -> bool {
                self.started
                    && !self.tags.outstanding()
                    && (self.done_decoding
                        || self.fatal.is_some()
                        || self.tags.submitted() == self.order.len())
            }

            /// Release the next top-up wave and re-arm the deadline.
            fn extend(&mut self, now: Instant) {
                self.limit = (self.limit + self.topup).min(self.order.len());
                self.waves += 1;
                self.deadline_at = if self.limit < self.order.len() {
                    self.deadline.map(|d| now + d)
                } else {
                    None
                };
            }
        }

        /// Submit until the window is full (or the access is resolved).
        fn top_up(
            st: &mut ReadState<'_>,
            ring: &IoRing,
            tx: &std::sync::mpsc::Sender<Completion>,
            pool: &mut BlockPool,
        ) {
            while st.fatal.is_none()
                && !st.done_decoding
                && st.tags.submitted() < st.limit
                && st.tags.has_room()
            {
                let (slot, idx) = st.order[st.tags.submitted()];
                let (disk, ids) = &st.meta.layout[slot];
                let key = st.meta.block_key(ids[idx]);
                let tag = st.tags.push(*disk);
                let buf = pool.get_scratch();
                ring.submit(*disk, st.access, tag, SubmitOp::Read { key, buf }, tx);
            }
        }

        /// Handle the completion for `tag` (already the next in order).
        fn process(
            st: &mut ReadState<'_>,
            tag: usize,
            kind: CompletionKind,
            block_len: usize,
            pool: &mut BlockPool,
            ring: &IoRing,
        ) {
            if st.done_decoding || st.fatal.is_some() {
                // Drained mode: the access already resolved; completions
                // for ops the cancel couldn't revoke (or parked behind the
                // resolution point) just hand their buffers back.
                match kind {
                    CompletionKind::Read { buf, .. } | CompletionKind::Cancelled { buf } => {
                        recycle(pool, buf, block_len)
                    }
                    other => unreachable!("read access got {other:?}"),
                }
                return;
            }
            let (slot, idx) = st.order[tag];
            let coded = st.meta.layout[slot].1[idx];
            match kind {
                CompletionKind::Read {
                    result,
                    buf,
                    retries,
                } => {
                    st.retries += retries;
                    match result {
                        Ok(()) => {
                            // Integrity gate: silent corruption is demoted
                            // to missing; digest-less blocks pass, counted.
                            let accepted = match check_block(st.meta, coded, &buf, block_len) {
                                BlockCheck::Verified => true,
                                BlockCheck::Unverified => {
                                    st.unverified += 1;
                                    true
                                }
                                BlockCheck::Corrupt => {
                                    st.corrupt += 1;
                                    false
                                }
                            };
                            if accepted {
                                st.fetched += 1;
                                if st.decoder.receive(coded as usize, buf) {
                                    // Decode complete: revoke everything
                                    // still queued before a disk gets to
                                    // service it — this is where the
                                    // cancellation policy reclaims real
                                    // disk time.
                                    st.done_decoding = true;
                                    ring.cancel(st.access);
                                }
                            } else {
                                recycle(pool, buf, block_len);
                            }
                        }
                        // Degraded read: the worker spent the retry
                        // budget (transient) or the block is gone
                        // (offline server, lost sector) — a block that
                        // never arrives; the redundancy absorbs it
                        // (§4.1.3).
                        Err(StoreError::TransientIo { .. })
                        | Err(StoreError::MissingBlock { .. }) => {
                            st.missing += 1;
                            recycle(pool, buf, block_len);
                        }
                        Err(e) => {
                            recycle(pool, buf, block_len);
                            st.fatal = Some(e);
                            ring.cancel(st.access);
                        }
                    }
                }
                // Cancels are only issued after done/fatal, so a tag below
                // the resolution point always carries a real completion;
                // recycle defensively all the same.
                CompletionKind::Cancelled { buf } => recycle(pool, buf, block_len),
                other => unreachable!("read access got {other:?}"),
            }
        }

        // Codes live outside the states so the decoders can borrow them.
        let mut codes: Vec<Option<LtCode>> = Vec::with_capacity(jobs.len());
        for &(i, meta, _) in jobs {
            let spec = &meta.coding;
            match LtCode::plan(spec.k, spec.n, spec.params, spec.seed) {
                Ok(c) => codes.push(Some(c)),
                Err(e) => {
                    sink(i, Err(e.into()));
                    codes.push(None);
                }
            }
        }
        // One state slot per job (None = plan error, already emitted, or
        // finalized); the schedule is computed lazily at each access's
        // arrival time so it sees the freshest telemetry.
        let mut states: Vec<Option<ReadState>> = Vec::with_capacity(jobs.len());
        let mut by_access: BTreeMap<u64, usize> = BTreeMap::new();
        for (si, &(_, meta, arrival_micros)) in jobs.iter().enumerate() {
            let Some(code) = codes[si].as_ref() else {
                states.push(None);
                continue;
            };
            let access = self.system.next_access_id();
            by_access.insert(access, si);
            states.push(Some(ReadState {
                meta,
                decoder: LtDecoder::new(code, block_len),
                order: Vec::new(),
                access,
                // Small enough that an access never submits far past its
                // decode point (cancellation savings), large enough to
                // keep every disk of the layout busy.
                tags: Reorder::new((2 * meta.layout.len()).max(8)),
                limit: 0,
                topup: 0,
                deadline: None,
                deadline_at: None,
                arrival_at: t0 + Duration::from_micros(arrival_micros),
                started: false,
                waves: 0,
                fetched: 0,
                retries: 0,
                missing: 0,
                corrupt: 0,
                unverified: 0,
                done_decoding: false,
                fatal: None,
            }));
        }

        // The reactor proper: one channel fans every disk's completions
        // back in; each completion advances its access (in tag order) and
        // tops its window back up. Every submitted op yields exactly one
        // completion — serviced or cancelled — so draining needs no
        // timeouts; timers exist only for arrival pacing and deadline
        // budgets. Accesses finalize (and emit) the moment they resolve.
        let (tx, rx) = std::sync::mpsc::channel();
        loop {
            let now = Instant::now();
            for si in 0..states.len() {
                let Some(st) = states[si].as_mut() else {
                    continue;
                };
                // Activate due arrivals: snapshot the live load and build
                // the wave schedule.
                if !st.started && now >= st.arrival_at {
                    let sched = policy.schedule(
                        &wave_slots(st.meta, backend, &avail),
                        st.meta.coding.k,
                        &ring.load_map(),
                    );
                    st.order = sched.order;
                    st.limit = sched.first_wave;
                    st.topup = sched.topup.max(1);
                    st.deadline = sched.deadline_micros.map(Duration::from_micros);
                    st.deadline_at = st.deadline.map(|d| now + d);
                    st.started = true;
                    st.waves = 1;
                    top_up(st, ring, &tx, pool);
                }
                if !st.started {
                    continue;
                }
                if st.done_decoding || st.fatal.is_some() {
                    st.deadline_at = None;
                } else if st.deadline_at.is_some_and(|at| now >= at) && st.limit < st.order.len() {
                    // Deadline budget slipped: release the next wave even
                    // though completions are still trickling in.
                    st.extend(now);
                    top_up(st, ring, &tx, pool);
                }
                if st.stalled() {
                    // Released work ran dry before decode (faulty or
                    // deferred blocks): release the next wave now.
                    st.extend(now);
                    top_up(st, ring, &tx, pool);
                }
                if st.resolved() {
                    // Finalize, emit and free the state (buffers recycle
                    // now, not at batch end — bounded memory for huge
                    // batches).
                    let st = states[si].take().expect("checked above");
                    let i = jobs[si].0;
                    let ReadState {
                        meta,
                        mut decoder,
                        order,
                        tags,
                        waves,
                        fetched,
                        retries,
                        missing,
                        corrupt,
                        unverified,
                        fatal,
                        ..
                    } = st;
                    let r = match fatal {
                        Some(e) => {
                            pool.put_all(decoder.drain_all());
                            Err(e)
                        }
                        None => decode(decoder, pool).map(|blocks| {
                            // Read-repair: queue the damage, do not fix it
                            // here — the repair is a scrub, which reads and
                            // rewrites on disks this access never waited
                            // for. The read returns at its decode point.
                            if self.system.inner.config.read_repair && missing + corrupt > 0 {
                                self.system
                                    .repair_backlog()
                                    .lock()
                                    .insert(meta.name.clone());
                            }
                            let mut out = Vec::with_capacity(meta.size_bytes as usize);
                            for b in blocks {
                                out.extend_from_slice(&b);
                                pool.put(b);
                            }
                            out.truncate(meta.size_bytes as usize);
                            let report = ReadReport {
                                blocks_fetched: fetched,
                                blocks_cancelled: meta.stored_blocks().saturating_sub(fetched),
                                reception_overhead: fetched as f64 / meta.coding.k as f64 - 1.0,
                                transient_retries: retries,
                                blocks_missing: missing,
                                blocks_corrupt: corrupt,
                                blocks_unverified: unverified,
                                blocks_repaired: 0,
                                blocks_deferred: order.len() - tags.submitted(),
                                waves: waves.max(1),
                            };
                            (out, report)
                        }),
                    };
                    sink(i, r);
                }
            }
            if states.iter().all(Option::is_none) {
                break;
            }
            // Wait for the next event: a completion, the next arrival, or
            // the earliest deadline.
            let outstanding = states.iter().flatten().any(|st| st.tags.outstanding());
            let timer: Option<Instant> = states
                .iter()
                .flatten()
                .filter_map(|st| {
                    if st.started {
                        st.deadline_at
                    } else {
                        Some(st.arrival_at)
                    }
                })
                .min();
            let c = if outstanding {
                match timer {
                    Some(at) => {
                        let wait = at.saturating_duration_since(Instant::now());
                        match rx.recv_timeout(wait) {
                            Ok(c) => Some(c),
                            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                            Err(e) => unreachable!("ring workers outlive the accesses: {e}"),
                        }
                    }
                    None => Some(rx.recv().expect("ring workers outlive the accesses")),
                }
            } else {
                let at = timer.expect("unresolved access with no work has a timer");
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                None
            };
            if let Some(c) = c {
                let si = by_access[&c.access];
                let st = states[si]
                    .as_mut()
                    .expect("resolved accesses have no completions left");
                st.tags.receive(c);
                while let Some((tag, kind)) = st.tags.pop() {
                    process(st, tag as usize, kind, block_len, pool, ring);
                }
                top_up(st, ring, &tx, pool);
            }
        }
    }

    /// Put a scrubbed file's damaged blocks back; its last step,
    /// [`Client::relocate`], is also a write's re-homing. An id in
    /// `damaged` has the disk of its layout slot as its home, or no home
    /// if the layout does not store it.
    ///
    /// 1. **Rewrite in place**: re-encode each damaged id from `blocks` and
    ///    rewrite it at its home under its committed key. Coded bytes are
    ///    a deterministic function of content, so this needs no metadata
    ///    change.
    /// 2. **Relocate** what the home refused, and the homeless ids.
    ///
    /// The rewrites run through one bounded in-order window on the ring,
    /// fanned out across the layout's disks (`disk_interleaved`), in the
    /// class `opts` asks for, the throttle charged per block before
    /// submission. A hard fault gives up on that id, which leaves the
    /// layout.
    fn restore(
        &self,
        meta: &FileMeta,
        code: &LtCode,
        blocks: &[Block],
        damaged: BTreeSet<u32>,
        opts: &ScrubOptions<'_>,
    ) -> Restored {
        let block_len = meta.coding.block_bytes as usize;
        let priority = repair_priority(opts);
        let window = (2 * meta.layout.len()).max(8);
        let rot = meta.file_id as usize;
        let rewrites = disk_interleaved(&layout_subset(&meta.layout, &damaged), rot);
        let mut in_place: BTreeSet<u32> = BTreeSet::new();
        // id → (the home that refused it or none, its bytes).
        let mut homeless: BTreeMap<u32, (Option<usize>, Block)> = BTreeMap::new();
        let mut on_write = |tag: u64, kind: CompletionKind| {
            let (disk, id) = rewrites[tag as usize];
            match kind {
                CompletionKind::Write(WriteOutcome::Done) => {
                    in_place.insert(id);
                }
                CompletionKind::Write(WriteOutcome::Refused { data, .. }) => {
                    homeless.insert(id, (Some(disk), data));
                }
                _ => {} // hard failure: give up on this id
            }
            Ok(())
        };
        let mut put = OrderedWindow::new(
            &self.system.inner.ring,
            self.system.next_access_id(),
            priority,
            window,
        );
        let rewritten = rewrites
            .iter()
            .try_for_each(|&(disk, id)| {
                charge(opts, block_len);
                let (key, data) = (meta.block_key(id), code.encode_block(blocks, id as usize));
                put.submit(disk, SubmitOp::Write { key, data }, &mut on_write)
            })
            .and_then(|()| put.finish(&mut on_write));
        if rewritten.is_err() {
            // A lost worker: what landed stays, the rest is given up.
            for (tag, kind) in put.abort() {
                if matches!(kind, CompletionKind::Write(WriteOutcome::Done)) {
                    in_place.insert(rewrites[tag as usize].1);
                }
            }
        }

        let homed: BTreeSet<u32> = rewrites.iter().map(|&(_, id)| id).collect();
        for &id in damaged.difference(&homed) {
            charge(opts, block_len);
            homeless.insert(id, (None, code.encode_block(blocks, id as usize)));
        }
        let mut layout = meta.layout.clone();
        for (_, ids) in layout.iter_mut() {
            ids.retain(|id| !damaged.contains(id) || in_place.contains(id));
        }
        let mut relocated = Vec::new();
        let disks: Vec<usize> = (0..self.system.num_disks()).collect();
        let key_of = |id| meta.block_key(id);
        self.relocate(
            &mut layout,
            homeless,
            &key_of,
            &disks,
            priority,
            &mut relocated,
        );
        let stale = rewrites
            .iter()
            .filter(|(_, id)| !in_place.contains(id))
            .map(|&(disk, id)| (disk, meta.block_key(id)))
            .collect();
        Restored {
            layout,
            in_place: in_place.len(),
            relocated,
            stale,
        }
    }

    /// Relocation, serially in id order, one block at a time through the
    /// ring at `priority`: each `homeless` block goes to the first of
    /// `candidates` (its home excluded) that takes it, ordered by live ring
    /// backlog ([`IoRing::load_map`]), then the file's block count on the
    /// disk per `layout`, then disk id — on a quiescent ring, a pure
    /// function of the layout. A refusal hands the bytes back for the next
    /// candidate; a hard fault or a lost worker gives up on the id. A
    /// placed id joins its disk's slot in `layout` (a new slot if the file
    /// had none there) and its write joins `written`. Returns how many ids
    /// found no disk.
    fn relocate(
        &self,
        layout: &mut Vec<(usize, Vec<u32>)>,
        homeless: BTreeMap<u32, (Option<usize>, Block)>,
        key_of: &dyn Fn(u32) -> u64,
        candidates: &[usize],
        priority: Priority,
        written: &mut Vec<(usize, u64)>,
    ) -> usize {
        let ring = &self.system.inner.ring;
        let access = self.system.next_access_id();
        let mut count = vec![0usize; self.system.num_disks()];
        for (disk, ids) in layout.iter() {
            count[*disk] += ids.len();
        }
        let mut unplaced = 0;
        for (id, (home, mut data)) in homeless {
            let key = key_of(id);
            let load = ring.load_map();
            let mut order: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&d| Some(d) != home)
                .collect();
            order.sort_by_key(|&d| (load.get(d).map_or(0, |l| l.backlog()), count[d], d));
            let mut placed = None;
            for disk in order {
                // A channel per attempt, its sender dropped once the op is
                // queued: a lost worker closes it instead of hanging here.
                let (tx, rx) = std::sync::mpsc::channel();
                let op = SubmitOp::Write { key, data };
                ring.submit_with(disk, access, 0, op, priority, &tx);
                drop(tx);
                match rx.recv().map(|c| c.kind) {
                    Ok(CompletionKind::Write(WriteOutcome::Done)) => {
                        placed = Some(disk);
                        break;
                    }
                    Ok(CompletionKind::Write(WriteOutcome::Refused { data: back, .. })) => {
                        data = back
                    }
                    _ => break,
                }
            }
            let Some(disk) = placed else {
                unplaced += 1;
                continue;
            };
            count[disk] += 1;
            written.push((disk, key));
            match layout.iter_mut().find(|(d, _)| *d == disk) {
                Some((_, ids)) => ids.push(id),
                None => layout.push((disk, vec![id])),
            }
        }
        unplaced
    }

    /// Read every `(disk, id)` of `jobs` — all of them, no cancellation —
    /// through one bounded in-order window in the class `opts` asks for,
    /// into scratch from `pool`, charging the throttle before each
    /// submission; the ring worker runs the bounded transient retry and
    /// counts the read. `ingest(id, read_ok, buf)` sees each block in job
    /// order and hands the buffer back for recycling unless it keeps it.
    /// On error every outstanding buffer is recycled before returning.
    fn fetch_blocks(
        &self,
        meta: &FileMeta,
        jobs: &[(usize, u32)],
        window: usize,
        pool: &mut BlockPool,
        opts: &ScrubOptions<'_>,
        ingest: &mut dyn FnMut(u32, bool, Block) -> Option<Block>,
    ) -> Result<(), StoreError> {
        let block_len = meta.coding.block_bytes as usize;
        // The handler recycles into the pool the submit loop draws
        // scratch from; the two never run at the same instant.
        let pool = std::cell::RefCell::new(pool);
        let mut fetch = OrderedWindow::new(
            &self.system.inner.ring,
            self.system.next_access_id(),
            repair_priority(opts),
            window,
        );
        let mut on_read = |tag: u64, kind: CompletionKind| {
            let CompletionKind::Read { result, buf, .. } = kind else {
                unreachable!("a fetch submits only reads");
            };
            if let Some(buf) = ingest(jobs[tag as usize].1, result.is_ok(), buf) {
                recycle(&mut pool.borrow_mut(), buf, block_len);
            }
            Ok(())
        };
        let fetched = jobs
            .iter()
            .try_for_each(|&(disk, id)| {
                charge(opts, block_len);
                let buf = pool.borrow_mut().get_scratch();
                let key = meta.block_key(id);
                fetch.submit(disk, SubmitOp::Read { key, buf }, &mut on_read)
            })
            .and_then(|()| fetch.finish(&mut on_read));
        if fetched.is_err() {
            for (_, kind) in fetch.abort() {
                if let CompletionKind::Read { buf, .. } | CompletionKind::Cancelled { buf } = kind {
                    recycle(&mut pool.borrow_mut(), buf, block_len);
                }
            }
        }
        fetched
    }

    /// Update `patch.len()` bytes at `offset` — §4.3.4: regenerate only
    /// the coded blocks touching the changed originals.
    pub fn update(
        &self,
        handle: &mut FileHandle,
        offset: u64,
        patch: &[u8],
    ) -> Result<UpdateReport, StoreError> {
        if handle.mode != AccessMode::Write || handle.closed {
            return Err(StoreError::WrongMode);
        }
        let meta = handle.meta.clone().ok_or(StoreError::StaleHandle)?;
        if patch.is_empty() || offset + patch.len() as u64 > meta.size_bytes {
            return Err(StoreError::OutOfRange);
        }
        let spec = meta.coding.clone();
        let code = LtCode::plan(spec.k, spec.n, spec.params, spec.seed)?;

        // Current content, patched.
        let (mut data, _) = self.read_with_report(handle)?;
        data[offset as usize..offset as usize + patch.len()].copy_from_slice(patch);
        let blocks = split_blocks(&data, spec.block_bytes as usize, spec.k);

        // Originals covered by the patch → coded blocks to regenerate.
        let first = (offset / spec.block_bytes) as usize;
        let last = ((offset + patch.len() as u64 - 1) / spec.block_bytes) as usize;
        let dirty_coded: BTreeSet<u32> = (first..=last)
            .flat_map(|orig| code.blocks_touching(orig))
            .map(|j| j as u32)
            .collect();

        // The rewrites, grouped by slot and interleaved across the disks
        // like a write's (each disk still takes its dirty ids in id order).
        let jobs = disk_interleaved(
            &layout_subset(&meta.layout, &dirty_coded),
            meta.file_id as usize,
        );
        let job_ids: Vec<u32> = jobs.iter().map(|&(_, coded)| coded).collect();
        if job_ids.len() < dirty_coded.len() {
            let stored: HashSet<u32> = job_ids.iter().copied().collect();
            let coded = dirty_coded.iter().find(|id| !stored.contains(id));
            return Err(StoreError::MissingBlock {
                disk: usize::MAX,
                block: coded.map_or(0, |&c| c as u64),
            });
        }
        // Copy-on-write in place: each regenerated block lands under the
        // opposite-parity key of its current one, so the committed version
        // stays readable until the metadata commit flips the parities.
        let mut new_odd = meta.odd_keys.clone();
        for &id in &dirty_coded {
            if !new_odd.remove(&id) {
                new_odd.insert(id);
            }
        }
        let mut new_meta = meta.clone();
        new_meta.version += 1;
        new_meta.odd_keys = new_odd.clone();
        {
            let backend = &self.system.inner.backend;
            let mut written: Vec<(usize, u64)> = Vec::new();
            // Regenerated blocks are independent too — the same bounded
            // encode/write pipeline as the write path. An update has no
            // rateless slack (each block's disk is fixed by the layout),
            // so *any* write failure, a refusal included, aborts and
            // rolls back.
            let fresh = self.encode_and_write(
                &code,
                &blocks,
                &job_ids,
                &|idx| {
                    let (disk, coded) = jobs[idx];
                    (disk, gen_key(meta.file_id, coded, new_odd.contains(&coded)))
                },
                &mut written,
                &mut |_, refusal, _| Err(refusal),
            )?;
            // Regenerated blocks get fresh digests; untouched ones keep
            // theirs (legacy files may have partial maps — that's fine).
            new_meta.checksums.extend(fresh);
            // Commit point, then garbage-collect the superseded blocks.
            if let Err(e) = self.system.inner.meta.lock().commit(new_meta.clone()) {
                delete_blocks(backend, &written);
                return Err(e);
            }
            let superseded: Vec<(usize, u64)> = jobs
                .iter()
                .map(|&(disk, id)| (disk, meta.block_key(id)))
                .collect();
            delete_blocks(backend, &superseded);
        }
        handle.meta = Some(new_meta);

        Ok(UpdateReport {
            originals_changed: last - first + 1,
            coded_rewritten: dirty_coded.len(),
            fraction_rewritten: dirty_coded.len() as f64 / spec.n as f64,
        })
    }

    /// Delete a file: drop its metadata, then remove its coded blocks from
    /// every disk. Requires owner (or W-granting chain via an already-open
    /// write handle path); takes the writer lock internally.
    pub fn delete(&self, name: &str) -> Result<(), StoreError> {
        let handle = self.open(name, AccessMode::Write, QosOptions::best_effort())?;
        let result = (|| {
            let meta = handle
                .meta
                .as_ref()
                .ok_or_else(|| StoreError::NotFound(name.into()))?;
            // Commit point first, as in write/update: once the namespace
            // entry is gone the file is deleted, and a failed remove
            // (metadata quorum lost) leaves every block in place and the
            // file readable.
            self.system.inner.meta.lock().remove(name)?;
            // A deleted file needs no repair: the backlog stays bounded by
            // live files.
            self.system.repair_backlog().lock().remove(name);
            // Then garbage-collect the blocks.
            delete_blocks(&self.system.inner.backend, &stored_keys(meta));
            Ok(())
        })();
        self.close(handle)?;
        result
    }

    /// Verify and restore one file to full strength — the per-file pass
    /// of store-wide repair (see [`crate::repair::RepairService`] for the
    /// sweep over a whole store).
    ///
    /// Unlike a read, a scrub visits *every* stored block (no early
    /// cancel): it verifies checksums disk by disk, decodes the file, and
    /// hands everything the code can generate but the disks do not
    /// demonstrably hold to the restore path (`Client::restore`) —
    /// damaged blocks are rewritten in place at their home disks, which
    /// keeps the speed-proportional layout; ids a home refuses, or that
    /// no disk stores, go to the least-loaded disk that takes them. It
    /// always commits metadata carrying a complete checksum map, so a
    /// legacy, pre-checksum file comes out fully verifiable.
    ///
    /// Legacy blocks with no recorded digest are fed to the decoder
    /// optimistically and audited afterwards against a re-encode of the
    /// decoded data; a mismatch means corruption reached the decoder, so
    /// the scrub fails with `DecodeFailed` rather than commit anything
    /// derived from it.
    pub fn scrub(&self, name: &str) -> Result<ScrubReport, StoreError> {
        self.scrub_with(name, &ScrubOptions::default())
    }

    /// [`Client::scrub`] with repair-service controls: an optional
    /// token-bucket throttle charged per block of repair I/O, and
    /// background scheduling class on its ring submissions (so repair
    /// traffic waits behind every queued foreground op). The default
    /// options reproduce [`Client::scrub`] exactly.
    pub(crate) fn scrub_with(
        &self,
        name: &str,
        opts: &ScrubOptions<'_>,
    ) -> Result<ScrubReport, StoreError> {
        let handle = self.open(name, AccessMode::Write, QosOptions::best_effort())?;
        let result = match handle.meta.as_ref() {
            Some(meta) => {
                let mut pool = self.system.borrow_pool(meta.coding.block_bytes as usize);
                let result = self.scrub_inner(meta, &mut pool, opts);
                self.system.return_pool(pool);
                result
            }
            None => Err(StoreError::NotFound(name.into())),
        };
        self.close(handle)?;
        result
    }

    fn scrub_inner(
        &self,
        meta: &FileMeta,
        pool: &mut BlockPool,
        opts: &ScrubOptions<'_>,
    ) -> Result<ScrubReport, StoreError> {
        let spec = &meta.coding;
        let code = &LtCode::plan(spec.k, spec.n, spec.params, spec.seed)?;
        let block_len = spec.block_bytes as usize;
        let mut decoder = LtDecoder::new(code, block_len);
        let mut verified: BTreeSet<u32> = BTreeSet::new();
        // Readable blocks not covered by the checksum map: id → CRC of the
        // bytes actually read, audited against a re-encode after decode.
        let mut legacy: BTreeMap<u32, u32> = BTreeMap::new();
        let (mut corrupt, mut missing) = (0usize, 0usize);
        let mut complete = false;
        // A scrub visits *every* stored block (no cancellation), but the
        // requests stream through the per-disk queues with a bounded
        // window, interleaved across the file's disks so all of them
        // service it in parallel. The throttle paces *submission*: tokens
        // are charged before an op may enter the queue, so repair I/O
        // never bursts past the budget no matter how deep the window is.
        let fetched = self.fetch_blocks(
            meta,
            &disk_interleaved(&meta.layout, meta.file_id as usize),
            (4 * meta.layout.len()).max(16),
            pool,
            opts,
            &mut |id, read_ok, buf| {
                if !read_ok {
                    missing += 1;
                    return Some(buf);
                }
                match check_block(meta, id, &buf, block_len) {
                    BlockCheck::Verified => {
                        verified.insert(id);
                    }
                    BlockCheck::Unverified => {
                        legacy.insert(id, crc32c(&buf));
                    }
                    BlockCheck::Corrupt => {
                        corrupt += 1;
                        return Some(buf);
                    }
                }
                // The decoder keeps accepted blocks until it completes.
                if complete {
                    return Some(buf);
                }
                complete = decoder.receive(id as usize, buf);
                None
            },
        );
        if let Err(e) = fetched {
            pool.put_all(decoder.drain_all());
            return Err(e);
        }
        let blocks = decode(decoder, pool)?;
        // Audit the optimistically-accepted legacy blocks now that the
        // decoded data is in hand: their bytes must equal the re-encode.
        for (&id, &crc_read) in &legacy {
            if crc32c(&code.encode_block(&blocks, id as usize)) != crc_read {
                pool.put_all(blocks);
                return Err(StoreError::Coding(
                    robustore_erasure::CodingError::DecodeFailed,
                ));
            }
        }

        // Everything the code can generate, minus what is demonstrably
        // good on disk, is restored — back to the full target of N coded
        // blocks (this also heals blocks a write-time refusal dropped).
        let damaged = (0..spec.n as u32)
            .filter(|id| !verified.contains(id) && !legacy.contains_key(id))
            .collect();
        let Restored {
            layout,
            in_place,
            relocated,
            stale,
        } = self.restore(meta, code, &blocks, damaged, opts);
        // A complete digest map: the recorded digests, the audited legacy
        // ones, and fresh ones for restored ids that had neither.
        let checksums: BTreeMap<u32, u32> = layout
            .iter()
            .flat_map(|(_, ids)| ids)
            .map(|&id| {
                let known = meta.checksums.get(&id).or(legacy.get(&id)).copied();
                let digest =
                    known.unwrap_or_else(|| crc32c(&code.encode_block(&blocks, id as usize)));
                (id, digest)
            })
            .collect();
        pool.put_all(blocks);
        let report = ScrubReport {
            file: meta.name.clone(),
            blocks_target: spec.n,
            blocks_verified: verified.len(),
            blocks_unverified: legacy.len(),
            blocks_corrupt: corrupt,
            blocks_missing: missing,
            blocks_restored: in_place + relocated.len(),
            blocks_stored_after: layout.iter().map(|(_, ids)| ids.len()).sum(),
            checksums_added: checksums.len().saturating_sub(meta.checksums.len()),
        };
        let mut new_meta = meta.clone();
        new_meta.version += 1;
        new_meta.layout = layout;
        new_meta.checksums = checksums;
        let backend = &self.system.inner.backend;
        if let Err(e) = self.system.inner.meta.lock().commit(new_meta) {
            delete_blocks(backend, &relocated);
            return Err(e);
        }
        // Copies left at a home their id no longer lives on are garbage
        // now — including a block that was only unreadable, not gone,
        // when the scrub looked.
        delete_blocks(backend, &stale);
        Ok(report)
    }

    /// `close(fdescriptor)` — release locks; metadata was committed by
    /// write/update.
    pub fn close(&self, mut handle: FileHandle) -> Result<(), StoreError> {
        if handle.closed {
            return Err(StoreError::StaleHandle);
        }
        handle.closed = true;
        self.system
            .inner
            .meta
            .lock()
            .close(&handle.name, handle.mode);
        Ok(())
    }
}

/// Describe a file's layout to the wave scheduler: one [`WaveSlot`] per
/// layout entry, with the nominal per-block service time from the disk's
/// catalogued speed. `avail` maps disk id → availability (the adaptive
/// policy's class-mixing rule; unlisted disks count as always available).
fn wave_slots(meta: &FileMeta, backend: &ShardedBackend, avail: &[f64]) -> Vec<WaveSlot> {
    meta.layout
        .iter()
        .map(|(d, ids)| WaveSlot {
            disk: *d,
            blocks: ids.len(),
            nominal_micros: meta.coding.block_bytes as f64 / backend.disk_speed(*d) * 1e6,
            availability: avail.get(*d).copied().unwrap_or(1.0),
        })
        .collect()
}

/// Every `(disk, id)` of `layout`, interleaved across its disks: round `r`
/// visits the `r`-th id of every slot, starting at slot `rot` (mod the
/// slot count; callers pass the file id, so concurrent accesses to
/// different files start on different disks). A bounded in-order window
/// over this order keeps every disk of the layout busy at once — the
/// fork-join the paper's accesses are — instead of filling up on one disk
/// and walking the layout disk by disk. Each disk still sees its slot's
/// ids in slot order, so the backend's per-disk sequence (fault budgets,
/// group commits, what lands where) is the same as a slot-by-slot walk's.
fn disk_interleaved(layout: &[(usize, Vec<u32>)], rot: usize) -> Vec<(usize, u32)> {
    let slots = layout.len();
    let rot = rot % slots.max(1);
    let rounds = layout.iter().map(|(_, ids)| ids.len()).max().unwrap_or(0);
    let mut order = Vec::with_capacity(layout.iter().map(|(_, ids)| ids.len()).sum());
    for r in 0..rounds {
        for i in 0..slots {
            let (disk, ids) = &layout[(i + rot) % slots];
            if let Some(&id) = ids.get(r) {
                order.push((*disk, id));
            }
        }
    }
    order
}

/// The subset `ids` of `layout`, slot by slot, each slot's share in
/// ascending id order — the per-disk sequence an id-ordered walk issues.
fn layout_subset(layout: &[(usize, Vec<u32>)], ids: &BTreeSet<u32>) -> Vec<(usize, Vec<u32>)> {
    layout
        .iter()
        .map(|(disk, slot_ids)| {
            let mut mine: Vec<u32> = slot_ids
                .iter()
                .copied()
                .filter(|id| ids.contains(id))
                .collect();
            mine.sort_unstable();
            (*disk, mine)
        })
        .collect()
}

/// What a fetched block's bytes say about it.
enum BlockCheck {
    /// Full length, and it matches its recorded digest.
    Verified,
    /// Full length, but the metadata records no digest (a legacy file).
    Unverified,
    /// Short (a torn read) or failing its digest: silent corruption.
    Corrupt,
}

/// The one integrity check of a fetched block — the read's gate and the
/// scrub's fetch both take its verdict.
fn check_block(meta: &FileMeta, id: u32, buf: &[u8], block_len: usize) -> BlockCheck {
    if buf.len() != block_len {
        return BlockCheck::Corrupt;
    }
    match meta.checksums.get(&id) {
        Some(&want) if crc32c(buf) == want => BlockCheck::Verified,
        Some(_) => BlockCheck::Corrupt,
        None => BlockCheck::Unverified,
    }
}

/// What [`Client::restore`] put back, for the scrub's commit.
struct Restored {
    /// The file's layout with every damaged id where it now lives — in
    /// place, relocated, or (given up on) gone.
    layout: Vec<(usize, Vec<u32>)>,
    /// Ids rewritten in place at their home disks.
    in_place: usize,
    /// Writes to a new location — undone if the commit fails.
    relocated: Vec<(usize, u64)>,
    /// Copies at homes their ids no longer live on — garbage once the
    /// scrub commits.
    stale: Vec<(usize, u64)>,
}

/// The ring class repair I/O under `opts` runs in.
fn repair_priority(opts: &ScrubOptions<'_>) -> Priority {
    if opts.background {
        Priority::Background
    } else {
        Priority::Foreground
    }
}

/// Charge one block of repair I/O to `opts`' throttle, if it has one.
fn charge(opts: &ScrubOptions<'_>, block_len: usize) {
    if let Some(bucket) = opts.throttle {
        bucket.acquire(block_len as u64);
    }
}

/// Hand a fetched (or never-serviced) read buffer back to the pool at
/// full block length, whatever the disk left in it.
fn recycle(pool: &mut BlockPool, mut buf: Vec<u8>, block_len: usize) {
    buf.clear();
    buf.resize(block_len, 0);
    pool.put(buf);
}

/// Finish a decode once every fetchable block is in: the peel, then the
/// Gaussian-elimination fallback — the survivors may still span the data
/// (see `LtDecoder::solve`), so only rank deficiency fails. Every buffer
/// the decoder holds beyond the data goes back to `pool`.
fn decode(mut decoder: LtDecoder<'_>, pool: &mut BlockPool) -> Result<Vec<Block>, StoreError> {
    let spent = if decoder.solve() {
        decoder.drain_spares()
    } else {
        decoder.drain_all()
    };
    pool.put_all(spent);
    decoder.into_data().ok_or(StoreError::Coding(
        robustore_erasure::CodingError::DecodeFailed,
    ))
}

/// Garbage-collect blocks directly on their shards: a superseded
/// generation, a deleted file, or what an aborted access put down. Delete
/// failures are ignored — the block either never landed or is gone.
fn delete_blocks(backend: &ShardedBackend, blocks: &[(usize, u64)]) {
    for &(disk, key) in blocks {
        let _ = backend.delete_block(disk, key);
    }
}

/// The `(disk, key)` of every block `meta`'s layout stores.
fn stored_keys(meta: &FileMeta) -> Vec<(usize, u64)> {
    meta.layout
        .iter()
        .flat_map(|(disk, ids)| ids.iter().map(move |&id| (*disk, meta.block_key(id))))
        .collect()
}

/// Encode work (coded ids × block bytes) at or above which a write or
/// update spawns its encode workers; below it the blocks are encoded
/// inline on the writer's thread.
///
/// Measured as `encode_write_pipelined` at 1 worker against 2 workers
/// (`min(cores, 8)` on a 2-core Xeon with GFNI), with the consumer taking
/// each block's CRC32C; each point is the median of 21–85 timed calls,
/// taken in three passes. At 64 KiB blocks the spawned pipeline ran at
/// 0.73–1.05× inline's speed at 768 KiB–1.25 MiB of work (below 1 in 9
/// of 12 runs), 0.98–1.16× at 1.5 MiB, and 1.02–1.35× from 1.75 to
/// 8 MiB bar three noisy points. The bound sits at that crossover. At 4 and 16 KiB blocks the spawned
/// pipeline lost at every size up to 8 MiB, so there the bound errs
/// towards spawning.
pub const PARALLEL_ENCODE_MIN_BYTES: usize = 1536 << 10;

/// How many encode workers a write of `ids` coded blocks of `block_bytes`
/// each runs, given the system's `workers`: one — inline, no spawn — when
/// there is a single id or the work is below [`PARALLEL_ENCODE_MIN_BYTES`],
/// otherwise all of them.
pub fn encode_threads(ids: usize, block_bytes: usize, workers: usize) -> usize {
    if ids < 2 || ids.saturating_mul(block_bytes) < PARALLEL_ENCODE_MIN_BYTES {
        1
    } else {
        workers
    }
}

/// Encode the coded blocks named by `ids` on up to `threads` workers and
/// feed each encoded block to `consume` **in `ids` order**, overlapping
/// encode (CPU) with whatever `consume` does (ring submission) — the
/// bounded producer/consumer pipeline of the write path.
///
/// Workers claim indices from a shared counter and may run at most
/// `2 * threads` blocks ahead of the consumer (the reordering window
/// doubles as backpressure, so memory stays bounded at that many blocks).
/// The consumer runs on the calling thread and takes blocks strictly by
/// index, so `consume` observes the exact sequence a sequential
/// `encode_block` loop would produce — byte-identical at every thread
/// count, which is why two hosts with different core counts commit
/// identical state. With one worker or a single id there is nothing to
/// overlap and the blocks are encoded inline, without spawning; the write
/// path asks for one worker whenever [`encode_threads`] finds the work too
/// small to pay for a spawn.
///
/// An error from `consume` stops the pipeline: workers drain promptly
/// (in-flight buffers are dropped) and the error is returned.
fn encode_write_pipelined<F>(
    code: &LtCode,
    blocks: &[Vec<u8>],
    ids: &[u32],
    threads: usize,
    mut consume: F,
) -> Result<(), StoreError>
where
    F: FnMut(usize, u32, Block) -> Result<(), StoreError>,
{
    let threads = threads.clamp(1, ids.len().max(1));
    if threads == 1 {
        for (i, &coded) in ids.iter().enumerate() {
            consume(i, coded, code.encode_block(blocks, coded as usize))?;
        }
        return Ok(());
    }
    let depth = 2 * threads;
    let block_len = blocks.first().map_or(0, |b| b.len());

    struct Shared {
        /// Encoded blocks parked until the consumer reaches their index.
        slots: Vec<Option<Block>>,
        /// Next index the consumer will take; workers stay < cursor+depth.
        cursor: usize,
        /// Abort flag (consumer error): workers drain without depositing.
        stop: bool,
    }
    let shared = Mutex::new(Shared {
        slots: vec![None; ids.len()],
        cursor: 0,
        stop: false,
    });
    let ready = Condvar::new(); // worker → consumer: a slot was filled
    let space = Condvar::new(); // consumer → workers: the window advanced
    let next = AtomicUsize::new(0);

    let mut result: Result<(), StoreError> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut pool = BlockPool::new(block_len);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ids.len() {
                        break;
                    }
                    {
                        let mut s = shared.lock();
                        while !s.stop && i >= s.cursor + depth {
                            space.wait(&mut s);
                        }
                        if s.stop {
                            break;
                        }
                    }
                    let mut buf = pool.get_scratch();
                    code.encode_block_into(blocks, ids[i] as usize, &mut buf);
                    pool.mark_consumed(1); // ownership moves to the consumer
                    let mut s = shared.lock();
                    if s.stop {
                        break;
                    }
                    s.slots[i] = Some(buf);
                    ready.notify_all();
                }
            });
        }
        let mut s = shared.lock();
        for (i, &coded) in ids.iter().enumerate() {
            let data = loop {
                if let Some(d) = s.slots[i].take() {
                    break d;
                }
                ready.wait(&mut s);
            };
            // Open the window before the (slow) consume call, so workers
            // encode the next blocks while this one is being written.
            s.cursor = i + 1;
            space.notify_all();
            drop(s);
            if let Err(e) = consume(i, coded, data) {
                result = Err(e);
                shared.lock().stop = true;
                space.notify_all();
                break;
            }
            s = shared.lock();
        }
        // Scope exit joins the workers; with `stop` set they bail out.
    });
    result
}

/// Split `data` into exactly `k` blocks of `block_bytes`, zero-padding the
/// tail.
fn split_blocks(data: &[u8], block_bytes: usize, k: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let start = i * block_bytes;
        let end = ((i + 1) * block_bytes).min(data.len());
        let mut b = if start < data.len() {
            data[start..end].to_vec()
        } else {
            Vec::new()
        };
        b.resize(block_bytes, 0);
        out.push(b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_system() -> System {
        // 8 disks with a 5x speed spread; 4 KB blocks keep tests quick.
        let speeds: Vec<f64> = (0..8).map(|i| 10e6 + i as f64 * 6e6).collect();
        System::new(
            InMemoryBackend::new(speeds),
            SystemConfig {
                block_bytes: 4 << 10,
                ..Default::default()
            },
        )
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let sys = test_system();
        let alice = sys.register_user();
        let client = Client::connect(&sys, alice);
        let data = payload(100_000);

        let mut h = client
            .open("genome.dat", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        let report = client.write(&mut h, &data).unwrap();
        assert!(report.blocks_written > report.disks);
        client.close(h).unwrap();

        let h = client
            .open("genome.dat", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let (got, rr) = client.read_with_report(&h).unwrap();
        assert_eq!(got, data);
        assert!(rr.blocks_cancelled > 0, "speculative read must cancel some");
        client.close(h).unwrap();
    }

    #[test]
    fn repeated_reads_recycle_buffers() {
        // The shared BlockPool's counters prove the fetch→decode path
        // runs on recycled buffers. What one read holds at once is
        // bounded by design — the blocks its decoder keeps plus its
        // in-flight window — and every buffer goes back to the pool, so
        // however far any read happens to speculate (wall-clock), the
        // pool never allocates more than that bound across many reads.
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(120_000);
        let mut h = client
            .open("pooled", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &data).unwrap();
        let window = (2 * h.meta().unwrap().layout.len()).max(8);
        client.close(h).unwrap();

        assert_eq!(sys.pool_stats(), (0, 0), "no reads yet");
        let h = client
            .open("pooled", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let (mut most_kept, mut fetched) = (0, 0);
        for _ in 0..4 {
            let (got, rr) = client.read_with_report(&h).unwrap();
            assert_eq!(got, data);
            most_kept = most_kept.max(rr.blocks_fetched);
            fetched += rr.blocks_fetched as u64;
        }
        client.close(h).unwrap();
        let (fresh, reuses) = sys.pool_stats();
        assert!(fresh > 0, "reads draw their buffers from the pool");
        assert!(
            fresh <= (most_kept + window) as u64,
            "{fresh} fresh buffers over 4 reads, but one read holds at most \
             {most_kept} decoder blocks + a {window}-deep window (hidden copy otherwise)"
        );
        assert!(
            fresh + reuses >= fetched,
            "every fetched block came through the pool"
        );
        assert_eq!(sys.pool_outstanding_bytes(), 0, "pool must balance");
    }

    #[test]
    fn pipelined_encode_hands_consume_the_sequential_sequence() {
        // The thread count enters the write path here and nowhere else:
        // at any count `consume` must see exactly what a sequential
        // `encode_block` loop produces, in `ids` order — so hosts with
        // different core counts commit identical state.
        let blocks = split_blocks(&payload(64 * 512), 512, 64);
        let code = LtCode::plan(64, 192, LtParams::default(), 7).unwrap();
        let many: Vec<u32> = (0..192).rev().step_by(3).collect();
        for ids in [&many[..], &many[..1], &[]] {
            let expect: Vec<(usize, u32, Block)> = ids
                .iter()
                .enumerate()
                .map(|(i, &j)| (i, j, code.encode_block(&blocks, j as usize)))
                .collect();
            for threads in [1, 2, 3, 4, 16, ids.len() + 5] {
                let mut got = Vec::new();
                encode_write_pipelined(&code, &blocks, ids, threads, |i, j, data| {
                    got.push((i, j, data));
                    Ok(())
                })
                .unwrap();
                assert_eq!(got, expect, "threads={threads} ids={}", ids.len());
            }
        }
    }

    #[test]
    fn parallel_reads_return_every_buffer() {
        // Concurrent readers each borrow (or create) a pool; merging on
        // return keeps accounting exact: when the dust settles, zero
        // bytes are still checked out and fresh+reused covers every get.
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(150_000);
        let mut h = client
            .open("shared", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sys = sys.clone();
                let data = &data;
                scope.spawn(move || {
                    let c = Client::connect(&sys, u);
                    for _ in 0..3 {
                        let h = c
                            .open("shared", AccessMode::Read, QosOptions::best_effort())
                            .unwrap();
                        assert_eq!(&c.read(&h).unwrap(), data);
                        c.close(h).unwrap();
                    }
                });
            }
        });
        assert_eq!(
            sys.pool_outstanding_bytes(),
            0,
            "a completed parallel read leaked pool buffers"
        );
        let (fresh, reuses) = sys.pool_stats();
        assert!(fresh > 0, "reads allocated through the pool");
        assert!(reuses > 0, "repeated reads recycled buffers");
    }

    #[test]
    fn speculative_read_fetches_fraction_of_stored() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(400_000); // ~98 blocks at 4 KB

        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        let wr = client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let (_, rr) = client.read_with_report(&h).unwrap();
        client.close(h).unwrap();
        // With 3x redundancy, roughly (1+ε)K of 4K blocks are fetched.
        assert!(
            rr.blocks_fetched < wr.blocks_written * 2 / 3,
            "fetched {} of {}",
            rr.blocks_fetched,
            wr.blocks_written
        );
        assert!(rr.reception_overhead < 1.2);
    }

    #[test]
    fn degraded_read_survives_seeded_block_loss() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(200_000);

        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        client.write(&mut h, &data).unwrap();
        client.close(h).unwrap();

        // Deterministically lose a third of every disk's blocks: the
        // same seed loses the same blocks, and 3x redundancy absorbs it.
        let seq = SeedSequence::new(21);
        let mut lost = 0;
        for disk in 0..8 {
            lost += sys.lose_blocks(disk, 0.33, &seq).len();
        }
        assert!(lost > 0, "p=0.33 must lose something");

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        assert_eq!(client.read(&h).unwrap(), data);
        client.close(h).unwrap();
    }

    #[test]
    fn update_rewrites_small_fraction() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let data = payload(256 << 10); // 64 originals

        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        client.write(&mut h, &data).unwrap();
        // Patch 100 bytes inside one original block.
        let patch = vec![0xAB; 100];
        let rep = client.update(&mut h, 5000, &patch).unwrap();
        assert_eq!(rep.originals_changed, 1);
        assert!(
            rep.fraction_rewritten < 0.25,
            "one-block update rewrote {:.1}% of coded blocks",
            rep.fraction_rewritten * 100.0
        );
        client.close(h).unwrap();

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let got = client.read(&h).unwrap();
        client.close(h).unwrap();
        let mut expect = data;
        expect[5000..5100].copy_from_slice(&patch);
        assert_eq!(got, expect);
    }

    #[test]
    fn locks_exclude_concurrent_writers() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &payload(10_000)).unwrap();
        assert!(matches!(
            client.open("f", AccessMode::Write, QosOptions::best_effort()),
            Err(StoreError::LockConflict(_))
        ));
        client.close(h).unwrap();
        let h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.close(h).unwrap();
    }

    #[test]
    fn non_owner_needs_credentials() {
        let sys = test_system();
        let alice = sys.register_user();
        let bob = sys.register_user();
        let a = Client::connect(&sys, alice);
        let b = Client::connect(&sys, bob);

        let mut h = a
            .open("private", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        a.write(&mut h, &payload(20_000)).unwrap();
        a.close(h).unwrap();

        // Bob without credentials: denied.
        assert!(matches!(
            b.open("private", AccessMode::Read, QosOptions::best_effort()),
            Err(StoreError::AccessDenied(_))
        ));

        // Alice delegates read to Bob.
        let cred = sys
            .issue_credential(alice, bob, Rights::R, "private", 1_000)
            .unwrap();
        let chain = CredentialChain(vec![cred]);
        let h = b
            .open_with_chain(
                "private",
                AccessMode::Read,
                QosOptions::best_effort(),
                &chain,
            )
            .unwrap();
        assert_eq!(b.read(&h).unwrap(), payload(20_000));
        b.close(h).unwrap();

        // Read credential does not grant write.
        assert!(matches!(
            b.open_with_chain(
                "private",
                AccessMode::Write,
                QosOptions::best_effort(),
                &chain
            ),
            Err(StoreError::AccessDenied(_))
        ));

        // Expired credential is rejected.
        sys.advance_clock(2_000);
        assert!(matches!(
            b.open_with_chain(
                "private",
                AccessMode::Read,
                QosOptions::best_effort(),
                &chain
            ),
            Err(StoreError::AccessDenied(_))
        ));
    }

    #[test]
    fn admission_denial_when_servers_full() {
        let speeds = vec![20e6; 2];
        let sys = System::new(
            InMemoryBackend::new(speeds),
            SystemConfig {
                block_bytes: 4 << 10,
                admission_capacity: 1,
                ..Default::default()
            },
        );
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        // Outside tenants hold the only slot on both servers.
        assert!(sys.occupy_admission(0, 999));
        assert!(sys.occupy_admission(1, 999));
        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        assert!(matches!(
            client.write(&mut h, &payload(10_000)),
            Err(StoreError::AdmissionDenied { .. })
        ));
        // Tenants leave; the write proceeds.
        sys.release_admission(0, 999);
        sys.release_admission(1, 999);
        client.write(&mut h, &payload(10_000)).unwrap();
        client.close(h).unwrap();
    }

    #[test]
    fn rewrite_replaces_old_generation() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let v1 = payload(50_000);
        let v2: Vec<u8> = payload(80_000).iter().map(|b| b ^ 0xFF).collect();

        let mut h = client
            .open("f", AccessMode::Write, QosOptions::best_effort())
            .unwrap();
        client.write(&mut h, &v1).unwrap();
        client.write(&mut h, &v2).unwrap();
        let meta = h.meta().unwrap().clone();
        client.close(h).unwrap();

        // The old generation was garbage-collected after the commit: the
        // backend holds exactly the committed blocks, nothing more.
        let committed_bytes = meta.stored_blocks() as u64 * meta.coding.block_bytes;
        assert_eq!(
            sys.total_used(),
            committed_bytes,
            "overwrite left orphaned blocks behind"
        );

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        assert_eq!(client.read(&h).unwrap(), v2);
        client.close(h).unwrap();
    }

    #[test]
    fn write_overwrite_update_read_back_the_expected_bytes() {
        let data = payload(300_000);
        let v2: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(2.0),
            )
            .unwrap();
        client.write(&mut h, &data).unwrap();
        client.write(&mut h, &v2).unwrap();
        client.update(&mut h, 7_000, &vec![0x11u8; 3_000]).unwrap();
        client.close(h).unwrap();

        let h = client
            .open("f", AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let got = client.read(&h).unwrap();
        client.close(h).unwrap();
        let mut expect = v2;
        expect[7_000..10_000].copy_from_slice(&[0x11u8; 3_000]);
        assert_eq!(got, expect);
    }

    #[test]
    fn pipeline_stops_and_rolls_back_on_write_error() {
        // A hard mid-write fault aborts the access; the pipeline must
        // drain its workers, delete the partial new generation, and leave
        // the pool/backed accounting clean (no leaked or orphaned blocks).
        // The small write encodes inline; the large one is above the
        // inline bound, so on a multi-core host its encode workers are
        // running when the fault lands.
        use crate::chaos::ChaosBackend;
        for (len, spawns) in [(200_000, false), (1_000_000, true)] {
            let speeds: Vec<f64> = (0..8).map(|i| 10e6 + i as f64 * 6e6).collect();
            let (backend, switch) = ChaosBackend::new(InMemoryBackend::new(speeds));
            let sys = System::with_backend(
                Box::new(backend),
                SystemConfig {
                    block_bytes: 4 << 10,
                    ..Default::default()
                },
            );
            let u = sys.register_user();
            let client = Client::connect(&sys, u);
            switch.fail_disk_after(3, 5);
            let mut h = client
                .open("f", AccessMode::Write, QosOptions::best_effort())
                .unwrap();
            let err = client.write(&mut h, &payload(len)).unwrap_err();
            assert!(matches!(err, StoreError::DiskFault { disk: 3 }), "{err:?}");
            // `>=`, not `==`: a write already queued behind the faulted one on
            // disk 3 may still be serviced (and fault again) before the abort
            // revokes it. The rollback below stays exact regardless.
            assert!(switch.injected_hard_faults() >= 1);
            assert_eq!(sys.total_used(), 0, "aborted write left orphans");
            assert!(h.meta().is_none(), "nothing was committed");
            // The system stays usable once the fault clears.
            switch.clear();
            client.write(&mut h, &payload(len)).unwrap();
            let meta = h.meta().unwrap();
            let threads = encode_threads(meta.stored_blocks(), meta.coding.block_bytes as usize, 2);
            assert_eq!(threads > 1, spawns, "{len} bytes: {threads} encode threads");
            client.close(h).unwrap();
        }
    }

    #[test]
    fn pipeline_spawns_encode_workers_only_at_the_inline_bound() {
        let bound = PARALLEL_ENCODE_MIN_BYTES;
        for workers in [1, 2, 8] {
            // Below the bound: inline at any worker count.
            assert_eq!(encode_threads(2, bound / 2 - 1, workers), 1);
            assert_eq!(encode_threads(bound / 4096 - 1, 4096, workers), 1);
            assert_eq!(encode_threads(0, 64 << 10, workers), 1);
            // At or above it: every worker.
            assert_eq!(encode_threads(bound / 4096, 4096, workers), workers);
            assert_eq!(encode_threads(2, bound / 2, workers), workers);
            assert_eq!(encode_threads(768, 64 << 10, workers), workers);
            // A single id has nothing to overlap, however large.
            assert_eq!(encode_threads(1, bound, workers), 1);
            assert_eq!(encode_threads(1, 4 * bound, workers), 1);
        }
        // The benchmark's shapes: small-files (6 × 16 KiB) and
        // straggler-read (768 KiB) writes stay inline; disk-bound
        // (192 × 64 KiB) and bulk-cpu (768 × 64 KiB) spawn.
        assert_eq!(encode_threads(6, 16 << 10, 2), 1);
        assert_eq!(encode_threads(48, 16 << 10, 2), 1);
        assert_eq!(encode_threads(192, 64 << 10, 2), 2);
        assert_eq!(encode_threads(768, 64 << 10, 2), 2);
    }

    #[test]
    fn faster_disks_get_more_blocks() {
        let sys = test_system(); // speeds 10..52 MB/s
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        let mut h = client
            .open(
                "f",
                AccessMode::Write,
                QosOptions::best_effort().with_redundancy(3.0),
            )
            .unwrap();
        client.write(&mut h, &payload(200_000)).unwrap();
        let meta = h.meta().unwrap().clone();
        client.close(h).unwrap();
        let mut by_disk: Vec<(usize, usize)> =
            meta.layout.iter().map(|(d, ids)| (*d, ids.len())).collect();
        by_disk.sort();
        // Disk 7 (fastest) stores more than disk 0 (slowest).
        let slow = by_disk
            .iter()
            .find(|(d, _)| *d == 0)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        let fast = by_disk
            .iter()
            .find(|(d, _)| *d == 7)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(fast > slow, "fast {fast} vs slow {slow}: {by_disk:?}");
    }

    #[test]
    fn read_of_missing_file_fails() {
        let sys = test_system();
        let u = sys.register_user();
        let client = Client::connect(&sys, u);
        assert!(matches!(
            client.open("ghost", AccessMode::Read, QosOptions::best_effort()),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn disk_interleaved_fans_out_and_keeps_each_disks_order() {
        // Uneven slots (a weighted layout), an empty slot, ids out of
        // order within a slot (a re-homed block), disks not in slot order.
        let layout: Vec<(usize, Vec<u32>)> = vec![
            (5, vec![0, 1, 2, 3]),
            (2, vec![]),
            (7, vec![4, 5, 40]),
            (0, vec![9, 6, 7, 8, 10, 11]),
        ];
        let base = disk_interleaved(&layout, 0);
        assert_eq!(
            base,
            [
                (5, 0),
                (7, 4),
                (0, 9),
                (5, 1),
                (7, 5),
                (0, 6),
                (5, 2),
                (7, 40),
                (0, 7),
                (5, 3),
                (0, 8),
                (0, 10),
                (0, 11)
            ]
        );
        for rot in 0..2 * layout.len() {
            let order = disk_interleaved(&layout, rot);
            // A permutation of the layout's (disk, id) pairs.
            let mut got = order.clone();
            got.sort_unstable();
            let mut want: Vec<(usize, u32)> = layout
                .iter()
                .flat_map(|(d, ids)| ids.iter().map(move |&id| (*d, id)))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "rot={rot}");
            // Each disk sees its slot's ids in slot order.
            for (disk, ids) in &layout {
                let seen: Vec<u32> = order
                    .iter()
                    .filter(|(d, _)| d == disk)
                    .map(|&(_, id)| id)
                    .collect();
                assert_eq!(&seen, ids, "rot={rot} disk={disk}");
            }
            // The first round touches every non-empty slot, from slot
            // `rot` on; rotation changes nothing else.
            let first: Vec<usize> = order[..3].iter().map(|&(d, _)| d).collect();
            let start = (0..layout.len())
                .map(|i| (i + rot) % layout.len())
                .filter(|&s| !layout[s].1.is_empty())
                .map(|s| layout[s].0)
                .collect::<Vec<_>>();
            assert_eq!(first, start, "rot={rot}");
            let rotated: Vec<(usize, Vec<u32>)> = (0..layout.len())
                .map(|i| layout[(i + rot) % layout.len()].clone())
                .collect();
            assert_eq!(order, disk_interleaved(&rotated, 0), "rot={rot}");
        }
        assert!(disk_interleaved(&[], 3).is_empty());
    }

    #[test]
    fn split_blocks_pads_tail() {
        let blocks = split_blocks(&[1, 2, 3, 4, 5], 2, 3);
        assert_eq!(blocks, vec![vec![1, 2], vec![3, 4], vec![5, 0]]);
    }
}
