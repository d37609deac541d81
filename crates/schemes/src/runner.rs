//! Trial orchestration: build a cluster, select disks, place data, run the
//! engine, repeat.
//!
//! Each trial draws fresh per-disk layouts, background intervals, disk
//! selection, and LT graphs from its own seed subsequence — the paper's
//! per-access randomisation (§6.2.5: "in each access, disks are randomly
//! selected"; "the data in each access has a random intra-disk layout"),
//! which is what produces the latency variation the robustness metric
//! measures.

use rand::seq::SliceRandom;
use robustore_cluster::Cluster;
use robustore_erasure::lt::LtCode;
use robustore_simkit::{FaultPlan, SeedSequence};

use crate::adaptive::AdaptivePlanner;
use crate::config::{AccessConfig, AccessKind, SchemeKind, Striping};
use crate::engine::{Engine, WriteResult};
use crate::outcome::{AccessOutcome, TrialStats};
use crate::placement::Placement;
use crate::tracker::ReadTracker;

/// Choose `count` distinct disks from the pool, in random order.
pub(crate) fn select_disks(pool: usize, count: usize, seq: &SeedSequence) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..pool).collect();
    let mut rng = seq.fork("disk-select", 0);
    ids.shuffle(&mut rng);
    ids.truncate(count);
    ids
}

/// Balanced placement for the scheme.
fn balanced_placement(cfg: &AccessConfig) -> Placement {
    let k = cfg.k();
    let h = cfg.num_disks;
    match cfg.scheme {
        SchemeKind::Raid0 => Placement::raid0(k, h),
        SchemeKind::RraidS | SchemeKind::RraidA => Placement::rraid(k, cfg.n(), h),
        SchemeKind::RobuStore => Placement::coded_balanced(k, cfg.n(), h),
    }
}

fn build_cluster(cfg: &AccessConfig, seq: &SeedSequence) -> Cluster {
    Cluster::build(cfg.cluster.clone(), cfg.layout, cfg.background, seq)
}

/// Run one read against an existing cluster with the given disk selection
/// and placement. The caller controls cluster lifetime, so consecutive
/// reads can share filer caches (the Figure 6-35/36 experiment).
pub fn read_on_cluster(
    cfg: &AccessConfig,
    cluster: &mut Cluster,
    disks: &[usize],
    placement: &Placement,
    seq: &SeedSequence,
) -> AccessOutcome {
    // The LT plan is owned here and borrowed by the tracker.
    let code: Option<LtCode> = match cfg.scheme {
        SchemeKind::RobuStore => Some(
            LtCode::plan(
                placement.k,
                placement.total_blocks(),
                cfg.lt,
                seq.seed_for("lt-plan", 0),
            )
            .expect("valid LT parameters"),
        ),
        _ => None,
    };
    let tracker = match &code {
        Some(c) => ReadTracker::lt(c),
        None => ReadTracker::coverage(placement.k),
    };
    let adaptive = (cfg.scheme == SchemeKind::RraidA)
        .then(|| AdaptivePlanner::new(placement.k, cfg.num_disks));
    let faults = FaultPlan::generate(&cfg.faults, disks.len(), seq);
    let engine = Engine::new(cfg, cluster, disks, placement, faults);
    engine.run_read(tracker, adaptive)
}

/// Run one read over a freshly built cluster with the given placement.
fn run_read_once(cfg: &AccessConfig, placement: &Placement, seq: &SeedSequence) -> AccessOutcome {
    let mut cluster = build_cluster(cfg, &seq.subsequence("cluster", 0));
    let disks = select_disks(cluster.num_disks(), cfg.num_disks, seq);
    read_on_cluster(cfg, &mut cluster, &disks, placement, seq)
}

/// Run the same read twice on one cluster — cold then warm — so the
/// second pass can hit whatever the filer caches retained (Figures
/// 6-35/6-36). Without caches the two passes are statistically identical.
pub fn run_read_cold_warm(
    cfg: &AccessConfig,
    seq: &SeedSequence,
) -> (AccessOutcome, AccessOutcome) {
    cfg.validate().expect("invalid access config");
    let placement = balanced_placement(cfg);
    let mut cluster = build_cluster(cfg, &seq.subsequence("cluster", 0));
    let disks = select_disks(cluster.num_disks(), cfg.num_disks, seq);
    let cold = read_on_cluster(
        cfg,
        &mut cluster,
        &disks,
        &placement,
        &seq.subsequence("cold", 0),
    );
    let warm = read_on_cluster(
        cfg,
        &mut cluster,
        &disks,
        &placement,
        &seq.subsequence("warm", 0),
    );
    (cold, warm)
}

/// Run one write against an existing cluster. `seq` seeds the write's
/// fault schedule (and nothing else — the write itself is deterministic
/// given the cluster and disk selection).
pub fn write_on_cluster(
    cfg: &AccessConfig,
    cluster: &mut Cluster,
    disks: &[usize],
    seq: &SeedSequence,
) -> WriteResult {
    let placement = balanced_placement(cfg);
    let faults = FaultPlan::generate(&cfg.faults, disks.len(), seq);
    let engine = Engine::new(cfg, cluster, disks, &placement, faults);
    engine.run_write(cfg.n())
}

/// Run one write over a freshly built cluster. Returns metrics plus the
/// committed layout.
fn run_write_once(cfg: &AccessConfig, seq: &SeedSequence) -> WriteResult {
    let mut cluster = build_cluster(cfg, &seq.subsequence("cluster", 0));
    let disks = select_disks(cluster.num_disks(), cfg.num_disks, seq);
    write_on_cluster(cfg, &mut cluster, &disks, seq)
}

/// Run a §6.2.4-style access *sequence* — mixed reads and writes from one
/// client session against a single cluster (filer caches persist across
/// the sequence; each access selects its own random disks). Reads access
/// balanced layouts of previously-written-sized segments; `ReadAfterWrite`
/// entries are not meaningful inside a sequence and are treated as reads.
pub fn run_sequence(
    cfg: &AccessConfig,
    ops: &[AccessKind],
    seq: &SeedSequence,
) -> Vec<AccessOutcome> {
    cfg.validate().expect("invalid access config");
    let mut cluster = build_cluster(cfg, &seq.subsequence("cluster", 0));
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let op_seq = seq.subsequence("op", i as u64);
        let disks = select_disks(cluster.num_disks(), cfg.num_disks, &op_seq);
        let outcome = match op {
            AccessKind::Write => {
                let mut c = cfg.clone();
                c.kind = AccessKind::Write;
                write_on_cluster(&c, &mut cluster, &disks, &op_seq).outcome
            }
            AccessKind::Read | AccessKind::ReadAfterWrite => {
                let mut c = cfg.clone();
                c.kind = AccessKind::Read;
                let placement = balanced_placement(&c);
                read_on_cluster(&c, &mut cluster, &disks, &placement, &op_seq)
            }
        };
        out.push(outcome);
    }
    out
}

/// Turn a speculative write's committed block lists into a read placement,
/// renumbering the (symbolic, symmetric) coded ids to 0..total.
fn committed_placement(k: usize, committed: &[Vec<u32>]) -> Placement {
    let mut next = 0u32;
    let lists: Vec<Vec<u32>> = committed
        .iter()
        .map(|slot| {
            slot.iter()
                .map(|_| {
                    let id = next;
                    next += 1;
                    id
                })
                .collect()
        })
        .collect();
    Placement::from_lists(k, lists)
}

/// Run a single access described by `cfg`, deterministically from `seq`.
///
/// * `Read` — balanced striping (RobuSTore with `Striping::Unbalanced`
///   first simulates the speculative write that produces the skew).
/// * `Write` — returns the write's metrics.
/// * `ReadAfterWrite` — RobuSTore writes speculatively, then reads the
///   committed (unbalanced) layout over an *independently drawn* cluster —
///   the paper's assumption that disk performance changes between write
///   and read. The baselines write uniformly, so their read-after-write
///   equals a balanced read.
pub fn run_access(cfg: &AccessConfig, seq: &SeedSequence) -> AccessOutcome {
    cfg.validate().expect("invalid access config");
    let unbalanced_read = cfg.scheme == SchemeKind::RobuStore
        && (cfg.kind == AccessKind::ReadAfterWrite
            || (cfg.kind == AccessKind::Read && cfg.striping == Striping::Unbalanced));
    match cfg.kind {
        AccessKind::Write => run_write_once(cfg, &seq.subsequence("write", 0)).outcome,
        AccessKind::Read | AccessKind::ReadAfterWrite => {
            if unbalanced_read {
                let write_cfg = AccessConfig {
                    kind: AccessKind::Write,
                    ..cfg.clone()
                };
                let wr = run_write_once(&write_cfg, &seq.subsequence("write", 0));
                if wr.outcome.failed {
                    return wr.outcome;
                }
                let placement = committed_placement(cfg.k(), &wr.committed_per_slot);
                run_read_once(cfg, &placement, &seq.subsequence("read", 0))
            } else {
                let placement = balanced_placement(cfg);
                run_read_once(cfg, &placement, &seq.subsequence("read", 0))
            }
        }
    }
}

/// Run `trials` independent accesses and aggregate the metrics. Trials run
/// in parallel across OS threads (one per available core, capped by the
/// trial count); results are deterministic in (`cfg`, `trials`,
/// `master_seed`) regardless of thread count — see
/// [`run_trials_threaded`] for why.
pub fn run_trials(cfg: &AccessConfig, trials: u64, master_seed: u64) -> TrialStats {
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    run_trials_threaded(cfg, trials, master_seed, n_threads)
}

/// [`run_trials`] with an explicit worker-thread count (1 = sequential).
///
/// Determinism is by construction, not by luck:
/// * every trial draws from its own label-indexed seed subsequence
///   (`root.subsequence("trial", i)`), so a trial's randomness depends
///   only on (`master_seed`, trial index) — never on which thread ran it
///   or in what order;
/// * each trial writes its outcome into a preassigned slot, and the
///   aggregation folds the slots in index order — [`TrialStats`]'s
///   floating-point accumulations see the exact same operand sequence at
///   any thread count, so the aggregate is *byte-identical*, not merely
///   statistically equal (pinned by a regression test).
pub fn run_trials_threaded(
    cfg: &AccessConfig,
    trials: u64,
    master_seed: u64,
    threads: usize,
) -> TrialStats {
    let root = SeedSequence::new(master_seed);
    // Cap the fan-out at the machine's real parallelism: trials are CPU
    // bound, so threads beyond the core count only add scheduler churn
    // (on a 1-core host, 2 workers ran *slower* than 1). Determinism is
    // unaffected — trial seeds and slots are indexed, not thread-owned.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let n_threads = threads.max(1).min(hw).min(trials.max(1) as usize);
    let mut outcomes: Vec<Option<AccessOutcome>> = vec![None; trials as usize];
    let chunk = trials.div_ceil(n_threads as u64).max(1);
    std::thread::scope(|scope| {
        for (tid, slice) in outcomes.chunks_mut(chunk as usize).enumerate() {
            let cfg = &*cfg;
            scope.spawn(move || {
                let base = tid as u64 * chunk;
                for (i, slot) in slice.iter_mut().enumerate() {
                    let seq = root.subsequence("trial", base + i as u64);
                    *slot = Some(run_access(cfg, &seq));
                }
            });
        }
    });
    let mut stats = TrialStats::new();
    for o in outcomes.into_iter().flatten() {
        stats.push(&o);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustore_simkit::SimDuration;

    /// A small, fast configuration: 64 MB over 8 disks.
    fn small(scheme: SchemeKind) -> AccessConfig {
        let mut cfg = AccessConfig::default().with_scheme(scheme).with_disks(8);
        cfg.data_bytes = 64 << 20;
        cfg.cluster.num_disks = 16;
        cfg
    }

    #[test]
    fn read_completes_for_every_scheme() {
        for scheme in SchemeKind::ALL {
            let cfg = small(scheme);
            let o = run_access(&cfg, &SeedSequence::new(7));
            assert!(o.latency > SimDuration::ZERO, "{scheme:?}");
            assert!(o.bandwidth() > 0.0, "{scheme:?}");
            assert!(
                o.network_bytes >= o.data_bytes,
                "{scheme:?}: must move at least the data"
            );
        }
    }

    #[test]
    fn write_completes_for_every_scheme() {
        for scheme in SchemeKind::ALL {
            let cfg = small(scheme).with_kind(AccessKind::Write);
            let o = run_access(&cfg, &SeedSequence::new(8));
            assert!(o.bandwidth() > 0.0, "{scheme:?}");
            // Writes move ≥ (1+D)·data for redundant schemes, ≥ data for RAID-0.
            if scheme.uses_redundancy() {
                assert!(
                    o.io_overhead() >= 2.9,
                    "{scheme:?}: 3x redundancy write overhead, got {}",
                    o.io_overhead()
                );
            }
        }
    }

    #[test]
    fn read_after_write_completes() {
        for scheme in [SchemeKind::RobuStore, SchemeKind::RraidA] {
            let cfg = small(scheme).with_kind(AccessKind::ReadAfterWrite);
            let o = run_access(&cfg, &SeedSequence::new(9));
            assert!(o.bandwidth() > 0.0, "{scheme:?}");
        }
    }

    #[test]
    fn run_access_is_deterministic() {
        let cfg = small(SchemeKind::RobuStore);
        let a = run_access(&cfg, &SeedSequence::new(10));
        let b = run_access(&cfg, &SeedSequence::new(10));
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.network_bytes, b.network_bytes);
    }

    /// Multi-threaded trial fan-out must aggregate *byte-identically* to
    /// the single-threaded run: every float compared by bit pattern, every
    /// counter exactly — at several thread counts, including ones that
    /// split the trials into ragged chunks.
    #[test]
    fn trial_fanout_is_byte_identical_across_thread_counts() {
        let cfg = small(SchemeKind::RobuStore);
        let trials = 6;
        let base = run_trials_threaded(&cfg, trials, 42, 1);
        for threads in [2usize, 3, 4, 16] {
            let par = run_trials_threaded(&cfg, trials, 42, threads);
            let pairs = [
                (base.bandwidth.mean(), par.bandwidth.mean(), "bw mean"),
                (base.bandwidth.stdev(), par.bandwidth.stdev(), "bw stdev"),
                (base.latency.mean(), par.latency.mean(), "lat mean"),
                (base.latency.stdev(), par.latency.stdev(), "lat stdev"),
                (
                    base.io_overhead.mean(),
                    par.io_overhead.mean(),
                    "io overhead",
                ),
                (
                    base.reception_overhead.mean(),
                    par.reception_overhead.mean(),
                    "reception",
                ),
            ];
            for (a, b, what) in pairs {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what} diverges at {threads} threads: {a} vs {b}"
                );
            }
            assert_eq!(base.failures, par.failures, "threads={threads}");
            assert_eq!(
                base.served_requests, par.served_requests,
                "threads={threads}"
            );
            assert_eq!(
                base.cancelled_requests, par.cancelled_requests,
                "threads={threads}"
            );
            assert_eq!(base.trials(), par.trials(), "threads={threads}");
        }
    }

    #[test]
    fn trials_differ_across_seeds() {
        let cfg = small(SchemeKind::RobuStore);
        let a = run_access(&cfg, &SeedSequence::new(1).subsequence("trial", 0));
        let b = run_access(&cfg, &SeedSequence::new(1).subsequence("trial", 1));
        assert_ne!(
            a.latency, b.latency,
            "independent trials should not coincide exactly"
        );
    }

    #[test]
    fn run_trials_aggregates_and_is_thread_invariant() {
        let cfg = small(SchemeKind::Raid0);
        let s = run_trials(&cfg, 6, 42);
        assert_eq!(s.trials(), 6);
        assert!(s.mean_bandwidth_mbps() > 0.0);
        // Determinism: re-running yields the identical aggregate.
        let s2 = run_trials(&cfg, 6, 42);
        assert_eq!(s.bandwidth.mean(), s2.bandwidth.mean());
        assert_eq!(s.latency.stdev(), s2.latency.stdev());
    }

    #[test]
    fn robustore_beats_raid0_on_heterogeneous_reads() {
        // The paper's headline (Figure 6-6): with heterogeneous layouts
        // and enough disks, RobuSTore's bandwidth is a large multiple of
        // RAID-0's. Small version: 64 MB over 8 of 16 disks, 5 trials.
        let robusto = run_trials(&small(SchemeKind::RobuStore), 5, 77);
        let raid0 = run_trials(&small(SchemeKind::Raid0), 5, 77);
        let ratio = robusto.mean_bandwidth_mbps() / raid0.mean_bandwidth_mbps();
        assert!(
            ratio > 2.0,
            "RobuSTore {:.1} MB/s vs RAID-0 {:.1} MB/s (ratio {ratio:.2})",
            robusto.mean_bandwidth_mbps(),
            raid0.mean_bandwidth_mbps()
        );
    }

    #[test]
    fn robustore_read_overhead_is_moderate() {
        // LT reception overhead runs high at this test's small K = 64
        // (the paper's 40–50% figure is for K = 1024, checked in the
        // integration suite); it must still stay far below RRAID-S's
        // ~200%, i.e. well under the 3x stored redundancy.
        let o = run_access(&small(SchemeKind::RobuStore), &SeedSequence::new(13));
        assert!(
            o.io_overhead() < 1.8,
            "RobuSTore I/O overhead too high: {}",
            o.io_overhead()
        );
        assert!(o.reception_overhead > 0.0);
    }

    #[test]
    fn warm_read_benefits_from_filer_cache() {
        let mut cfg = small(SchemeKind::Raid0);
        cfg.cluster.cache_bytes = Some(256 << 20); // plenty for 64 MB
        let (cold, warm) = run_read_cold_warm(&cfg, &SeedSequence::new(21));
        assert!(warm.cache_hit_blocks > 0, "second pass must hit the cache");
        assert!(
            warm.latency < cold.latency,
            "cached read should be faster: cold {} vs warm {}",
            cold.latency,
            warm.latency
        );
        // Without a cache the two passes perform equivalently.
        let mut nocache = small(SchemeKind::Raid0);
        nocache.cluster.cache_bytes = None;
        let (c2, w2) = run_read_cold_warm(&nocache, &SeedSequence::new(21));
        assert_eq!(w2.cache_hit_blocks, 0);
        let ratio = w2.latency.as_secs_f64() / c2.latency.as_secs_f64();
        assert!((0.5..2.0).contains(&ratio), "uncached passes comparable");
    }

    #[test]
    fn single_disk_accesses_complete() {
        // Degenerate parallelism: one disk serves everything.
        for scheme in SchemeKind::ALL {
            let mut cfg = small(scheme).with_disks(1);
            cfg.data_bytes = 8 << 20;
            let o = run_access(&cfg, &SeedSequence::new(51));
            assert!(!o.failed, "{scheme:?}");
            assert!(o.bandwidth() > 0.0, "{scheme:?}");
            let w = run_access(&cfg.with_kind(AccessKind::Write), &SeedSequence::new(52));
            assert!(!w.failed);
        }
    }

    #[test]
    fn one_block_segment_roundtrips() {
        // K = 1: the smallest possible code word.
        for scheme in SchemeKind::ALL {
            let mut cfg = small(scheme).with_disks(4);
            cfg.data_bytes = 1 << 20;
            cfg.block_bytes = 1 << 20;
            let o = run_access(&cfg, &SeedSequence::new(53));
            assert!(!o.failed, "{scheme:?}");
            assert!(o.blocks_at_completion >= 1, "{scheme:?}");
        }
    }

    #[test]
    fn zero_rtt_is_legal() {
        let mut cfg = small(SchemeKind::RobuStore);
        cfg.cluster.rtt = SimDuration::ZERO;
        let o = run_access(&cfg, &SeedSequence::new(54));
        assert!(!o.failed);
        assert!(o.bandwidth() > 0.0);
    }

    #[test]
    fn mixed_sequences_complete_and_benefit_from_caches() {
        // A read-write-read-read session (§6.2.4's mixed sequences) on one
        // cluster with filer caches: later reads of same-shaped segments
        // run at least as fast as the cold one on average.
        let mut cfg = small(SchemeKind::RobuStore);
        cfg.cluster.cache_bytes = Some(512 << 20);
        let ops = [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Read,
            AccessKind::Read,
        ];
        let outcomes = run_sequence(&cfg, &ops, &SeedSequence::new(41));
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(!o.failed, "op {i}");
            assert!(o.bandwidth() > 0.0, "op {i}");
        }
        // Determinism holds for sequences too.
        let again = run_sequence(&cfg, &ops, &SeedSequence::new(41));
        assert_eq!(outcomes[3].latency, again[3].latency);
    }

    #[test]
    fn erasure_coding_survives_disk_failures_raid0_does_not() {
        // §4.1.3: redundancy lets RobuSTore ride through dead servers.
        let mut robusto = small(SchemeKind::RobuStore);
        robusto.failed_disks = 2; // 2 of 8 disks down, 3x redundancy
        let o = run_access(&robusto, &SeedSequence::new(31));
        assert!(!o.failed, "RobuSTore should survive 2/8 failures");
        assert!(o.bandwidth() > 0.0);

        let mut raid0 = small(SchemeKind::Raid0);
        raid0.failed_disks = 1;
        let o = run_access(&raid0, &SeedSequence::new(32));
        assert!(o.failed, "RAID-0 cannot survive any failure");

        // Replication survives while a surviving copy exists for every
        // block: 4 copies rotated over 8 disks tolerate 2 adjacent losses.
        let mut rraid = small(SchemeKind::RraidS);
        rraid.failed_disks = 2;
        let o = run_access(&rraid, &SeedSequence::new(33));
        assert!(!o.failed, "RRAID-S should survive 2/8 failures at 4 copies");
    }

    #[test]
    fn failed_writes_are_reported() {
        // Uniform-striping writes need every disk; a dead one fails the
        // write. Speculative writing shifts the blocks to live disks.
        let mut rraid = small(SchemeKind::RraidS).with_kind(AccessKind::Write);
        rraid.failed_disks = 1;
        let o = run_access(&rraid, &SeedSequence::new(34));
        assert!(o.failed, "uniform write to a dead disk must fail");

        let mut robusto = small(SchemeKind::RobuStore).with_kind(AccessKind::Write);
        robusto.failed_disks = 2;
        let o = run_access(&robusto, &SeedSequence::new(35));
        assert!(!o.failed, "speculative write routes around dead disks");
    }

    #[test]
    fn trial_stats_count_failures() {
        let mut cfg = small(SchemeKind::Raid0);
        cfg.failed_disks = 1;
        let s = run_trials(&cfg, 4, 36);
        assert_eq!(s.failures, 4);
        assert_eq!(s.trials(), 0);
    }

    #[test]
    fn raid0_has_near_zero_read_overhead() {
        let o = run_access(&small(SchemeKind::Raid0), &SeedSequence::new(14));
        assert!(
            o.io_overhead().abs() < 0.01,
            "RAID-0 reads exactly the data: {}",
            o.io_overhead()
        );
    }
}
