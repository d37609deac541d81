#![warn(missing_docs)]
// The CPU intrinsics (CRC32C included) live in `robustore_erasure::simd`.
#![forbid(unsafe_code)]

//! The RobuSTore distributed-filesystem framework (Chapter 4).
//!
//! This crate realises the system framework of Figure 4-3: **clients**
//! perform metadata access, layout planning, encoding/decoding, and
//! speculative access; a **metadata server** tracks data and
//! storage-server information and file locks; **storage servers** store
//! erasure-coded blocks behind per-server admission control.
//!
//! * [`client`] — the access interface of §4.3: `open` / `read` / `write`
//!   / `update` / `close`, with speculative access and request
//!   cancellation, over a pluggable [`backend::StorageBackend`].
//! * [`metadata`] — the metadata server: file metadata (location, coding
//!   algorithm and parameters, owner), storage-server registry, and
//!   reader/writer file locks.
//! * [`planner`] — the layout planner and access scheduler (§5.3): disk
//!   selection by load/space/availability, disk-count and redundancy
//!   sizing.
//! * [`admission`] — capacity-based admission control (§5.4).
//! * [`credentials`] — credential-chain access control (Appendix C).
//! * [`qos`] — the QoS options of the `open` call (Appendix B).
//! * [`backend`] — storage-server data plane; an in-memory implementation
//!   with per-disk speeds stands in for remote filers.
//! * [`sharded`] — the sharded submission layer: per-disk locks, routing
//!   by disk id, and group commit, so concurrent accesses to different
//!   disks proceed in parallel (the per-disk-queue regime of §5).
//! * [`ring`] — the async per-disk submission/completion ring, the one
//!   data path of every access: one worker per disk services queued ops,
//!   coalescing writes across accesses into one group-commit dispatch,
//!   and speculative reads are cancelled in the queue once decode
//!   succeeds.
//! * [`chaos`] — a fault-injecting backend wrapper driven by seeded
//!   write- and read-fault plans, for crash-consistency and
//!   degraded-read testing.
//! * [`integrity`] — CRC32C block checksums: every coded block is
//!   digested at write time and verified on every read, demoting silent
//!   corruption to a missing block the redundancy absorbs. The digest
//!   runs on the erasure crate's kernel ladder.
//! * [`scrub`] — background scrubbing: sweep files, verify every stored
//!   block, and restore each file to its full redundancy target through
//!   the restore path read-repair shares — rewrite in place at the home
//!   disk, relocate only what the home refuses.
//! * [`metastore`] — the durable metadata plane: the namespace
//!   hash-sharded across WAL-backed shards, each replicated with
//!   majority-quorum commits, crash recovery with torn-tail truncation
//!   and read-repair, and snapshot+compaction to bound replay
//!   (`SystemConfig::metastore`). The in-memory [`metadata`] server is
//!   the reference implementation its differential test compares against.
//! * [`locks`] — reader/writer file locks with epoch-based stale-lock
//!   reclaim, shared by the metastore and the reference server.
//! * [`repair`] — the prioritised, rate-limited repair service over the
//!   scrubber: a risk queue ordering files most-at-risk-first (weighted
//!   by disk health), a token-bucket MB/s budget on repair I/O, and a
//!   background scheduling class on ring submissions.
//!
//! Everything is deterministic and synchronous: the crate models the
//! *control* architecture with real coding and real data movement, while
//! the timing behaviour of the architecture is quantified separately by
//! `robustore-schemes`.
//!
//! # Example: store and retrieve an object
//!
//! ```
//! use robustore_core::{
//!     AccessMode, Client, InMemoryBackend, QosOptions, System, SystemConfig,
//! };
//!
//! let system = System::new(
//!     InMemoryBackend::new((0..8).map(|i| 10e6 + i as f64 * 5e6).collect()),
//!     SystemConfig { block_bytes: 16 << 10, ..Default::default() },
//! );
//! let client = Client::connect(&system, system.register_user());
//!
//! let payload = vec![0xAB; 100_000];
//! let mut h = client.open(
//!     "demo",
//!     AccessMode::Write,
//!     QosOptions::best_effort().with_redundancy(3.0),
//! )?;
//! client.write(&mut h, &payload)?;
//! client.close(h)?;
//!
//! let h = client.open("demo", AccessMode::Read, QosOptions::best_effort())?;
//! assert_eq!(client.read(&h)?, payload);
//! client.close(h)?;
//! # Ok::<(), robustore_core::StoreError>(())
//! ```

pub mod admission;
pub mod backend;
pub mod chaos;
pub mod client;
pub mod credentials;
pub mod error;
pub mod file_backend;
pub mod integrity;
pub mod locks;
pub mod metadata;
pub mod metastore;
pub mod planner;
pub mod qos;
pub mod repair;
pub mod ring;
pub mod scrub;
pub mod sharded;

pub use admission::{AdmissionController, PriorityAdmissionController, PriorityDecision};
pub use backend::{DiskShard, InMemoryBackend, RefusedWrite, StorageBackend};
pub use chaos::{ChaosBackend, FaultSwitch};
pub use client::{
    default_group_commit, Client, FileHandle, ReadReport, ReadRetry, System, SystemConfig,
    UpdateReport, WriteReport,
};
pub use credentials::{Credential, CredentialChain, KeyAuthority, PublicKey, Rights};
pub use error::StoreError;
pub use file_backend::FileBackend;
pub use integrity::crc32c;
pub use locks::LockTable;
pub use metadata::{gen_key, AccessMode, CodingSpec, DiskInfo, FileMeta, MetadataServer};
pub use metastore::{MemReplica, MetaShard, Metastore, MetastoreConfig, RecoveryReport};
pub use planner::{LayoutPlanner, ReadPolicy};
// The wave-policy vocabulary lives in `robustore-schemes` (pure
// bookkeeping, like the RRAID-A planner); re-exported here because
// `SystemConfig::read_policy` and `IoRing::load_map` speak it.
pub use qos::QosOptions;
pub use repair::{
    health_weight, RepairRunReport, RepairService, RiskEntry, ScrubOptions, ScrubTickReport,
    TokenBucket,
};
pub use ring::{Completion, CompletionKind, IoRing, Priority, RingConfig, SubmitOp, WriteOutcome};
pub use robustore_schemes::{AdaptiveReadPolicy, DiskLoad, DiskLoadMap, WaveSchedule, WaveSlot};
pub use scrub::{ScrubReport, Scrubber, SweepReport};
pub use sharded::ShardedBackend;
