//! Layout planning and access scheduling (§5.3).
//!
//! The planner turns a QoS request plus the metadata server's disk
//! registry into an access plan:
//!
//! * **Disk count** (§5.3.1): at least target-bandwidth ÷ average disk
//!   bandwidth ("if the average remote disk bandwidth is 20 MBps … we
//!   need about 64 disks to saturate a 10 Gbps client").
//! * **Disk selection** (§5.3.1): lightly-loaded disks first, preferring
//!   free space, while *mixing* availability classes rather than taking
//!   only the most-available disks.
//! * **Redundancy** (§5.3.2): D = (1+ε)·(peak disk bandwidth / average
//!   disk bandwidth) − 1, the ratio that leaves every disk enough blocks
//!   to stream for the whole read.
//! * **Speculative spreading** (§5.3.2, [`speculative_placement`]): a
//!   write gives each disk coded blocks in proportion to its speed — the
//!   registered speed, halved for every whole doubling the disk's ring
//!   measures it short of that — so a slow disk never sets the write's
//!   latency.

use robustore_schemes::placement::Placement;
use robustore_schemes::{AdaptiveReadPolicy, DiskLoadMap, WaveSchedule, WaveSlot};

use crate::error::StoreError;
use crate::metadata::DiskInfo;
use crate::qos::QosOptions;

/// How the client schedules speculative block requests on a read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadPolicy {
    /// The paper's 2007 policy: request every stored block up front in
    /// nominal arrival order, cancel leftovers on decode. Byte-identical
    /// data to the adaptive policy at maximal disk pressure, and a
    /// timing-independent schedule for tests.
    Static,
    /// Queue-aware staged waves sized from the decoder's expected need
    /// and ordered by live per-disk completion estimates.
    Adaptive(AdaptiveReadPolicy),
}

impl Default for ReadPolicy {
    fn default() -> Self {
        ReadPolicy::Adaptive(AdaptiveReadPolicy::default())
    }
}

impl ReadPolicy {
    /// The default adaptive policy.
    pub fn adaptive() -> Self {
        Self::default()
    }

    /// Build the submission schedule for one access: `slots` describe the
    /// file's layout, `k` is the decoder's block need, `load` the live
    /// ring telemetry. Static policy — and adaptive with no telemetry —
    /// yield the request-everything schedule in nominal arrival order.
    pub fn schedule(&self, slots: &[WaveSlot], k: usize, load: &DiskLoadMap) -> WaveSchedule {
        match self {
            ReadPolicy::Static => AdaptiveReadPolicy::static_schedule(slots),
            ReadPolicy::Adaptive(policy) => policy.schedule(slots, k, load),
        }
    }
}

/// The output of planning: which disks, how much redundancy.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Selected disk ids, in scheduling order.
    pub disks: Vec<usize>,
    /// Degree of data redundancy D.
    pub redundancy: f64,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct LayoutPlanner {
    /// Expected LT reception overhead ε (≈0.5 for the default parameters).
    pub reception_overhead: f64,
    /// Default client bandwidth target when QoS does not set one
    /// (10 Gb/s).
    pub default_target_bandwidth: f64,
    /// Disks with load above this are considered heavily loaded and
    /// avoided while enough lighter disks exist.
    pub load_threshold: f64,
    /// Bounds on planned redundancy.
    pub min_redundancy: f64,
    /// Upper bound on planned redundancy.
    pub max_redundancy: f64,
}

impl Default for LayoutPlanner {
    fn default() -> Self {
        LayoutPlanner {
            reception_overhead: 0.5,
            default_target_bandwidth: 1.25e9,
            load_threshold: 0.7,
            min_redundancy: 1.0,
            max_redundancy: 9.0,
        }
    }
}

impl LayoutPlanner {
    /// Produce a plan for an access over `disks` satisfying `qos`.
    pub fn plan(&self, qos: &QosOptions, disks: &[DiskInfo]) -> Result<Plan, StoreError> {
        qos.validate().map_err(StoreError::AccessDenied)?;
        if disks.is_empty() {
            return Err(StoreError::InsufficientDisks { got: 0, need: 1 });
        }
        // Pinned layout: the plan is a pure function of the request — no
        // load or usage reads, so concurrent accesses always plan the
        // same disks regardless of interleaving.
        if let Some(pinned) = &qos.pinned_disks {
            if let Some(&bad) = pinned.iter().find(|&&d| d >= disks.len()) {
                return Err(StoreError::MissingBlock {
                    disk: bad,
                    block: 0,
                });
            }
            let redundancy = qos
                .redundancy
                .unwrap_or_else(|| self.redundancy_for(disks, pinned));
            return Ok(Plan {
                disks: pinned.clone(),
                redundancy,
            });
        }
        let avg_bw = disks.iter().map(|d| d.expected_bandwidth).sum::<f64>() / disks.len() as f64;
        let target = qos
            .target_bandwidth
            .unwrap_or(self.default_target_bandwidth);
        let wanted = qos
            .num_disks
            .unwrap_or(((target / avg_bw).ceil() as usize).max(1));
        let count = wanted.min(disks.len());

        let selected = self.select(disks, count);
        if selected.len() < count.min(2).min(disks.len()) {
            return Err(StoreError::InsufficientDisks {
                got: selected.len(),
                need: count,
            });
        }

        let redundancy = qos
            .redundancy
            .unwrap_or_else(|| self.redundancy_for(disks, &selected));

        Ok(Plan {
            disks: selected,
            redundancy,
        })
    }

    /// §5.3.2 redundancy sizing over a chosen selection:
    /// D = (1+ε)·(peak/average) − 1, clamped to the configured bounds.
    fn redundancy_for(&self, disks: &[DiskInfo], selected: &[usize]) -> f64 {
        let sel_avg = selected
            .iter()
            .map(|&i| disks[i].expected_bandwidth)
            .sum::<f64>()
            / selected.len() as f64;
        let peak = selected
            .iter()
            .map(|&i| disks[i].expected_bandwidth)
            .fold(0.0f64, f64::max);
        ((1.0 + self.reception_overhead) * peak / sel_avg - 1.0)
            .clamp(self.min_redundancy, self.max_redundancy)
    }

    /// §5.3.1 selection: score by (light load, free space), then
    /// interleave high- and low-availability candidates so failures don't
    /// correlate.
    fn select(&self, disks: &[DiskInfo], count: usize) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..disks.len()).collect();
        // Lightly loaded first; free space breaks ties (descending).
        candidates.sort_by(|&a, &b| {
            let da = &disks[a];
            let db = &disks[b];
            let la = (da.load > self.load_threshold) as u8;
            let lb = (db.load > self.load_threshold) as u8;
            la.cmp(&lb)
                .then(da.load.partial_cmp(&db.load).expect("finite load"))
                .then(db.free_bytes().cmp(&da.free_bytes()))
                .then(a.cmp(&b))
        });
        let pool = &candidates[..candidates.len()];
        // Mix availability classes: split the scored pool at the median
        // availability and interleave.
        let median = {
            let mut av: Vec<f64> = pool.iter().map(|&i| disks[i].availability).collect();
            av.sort_by(|x, y| x.partial_cmp(y).expect("finite availability"));
            av[av.len() / 2]
        };
        let (high, low): (Vec<usize>, Vec<usize>) =
            pool.iter().partition(|&&i| disks[i].availability >= median);
        let mut out = Vec::with_capacity(count);
        let mut hi = high.into_iter();
        let mut lo = low.into_iter();
        while out.len() < count {
            match (hi.next(), lo.next()) {
                (Some(h), Some(l)) => {
                    out.push(h);
                    if out.len() < count {
                        out.push(l);
                    }
                }
                (Some(h), None) => out.push(h),
                (None, Some(l)) => out.push(l),
                (None, None) => break,
            }
        }
        out
    }
}

/// A write's placement weight for a disk registered at `registered`
/// bytes/s whose ring measures `sustained`
/// ([`crate::ring::SustainedSpeed`]): `registered ÷ 2^h`, where `h` is
/// the whole number of doublings `sustained` falls short of
/// `registered`. A disk that keeps up with its registered speed, or has
/// no estimate yet, keeps its registered weight bit for bit, and jitter
/// of less than 2× moves nothing.
pub fn placement_weight(registered: f64, sustained: Option<f64>) -> f64 {
    match sustained {
        Some(measured) if measured < registered => {
            let halvings = (registered / measured).log2().floor();
            registered / 2f64.powi(halvings as i32)
        }
        _ => registered,
    }
}

/// Coded blocks beyond K, as a fraction of K, that [`speculative_placement`]
/// keeps off the fullest disk: a decode's worth, (1 + margin)·K, must
/// survive losing it. Equal to the adaptive read policy's default first
/// wave today, but named apart so that the first wave can be sized per K
/// without moving layouts.
pub const DURABILITY_MARGIN: f64 = 0.5;

/// The layout of a write of `k` originals as `n` coded blocks over disks
/// registered at `registered` bytes/s, whose rings measure `sustained`:
/// [`Placement::coded_weighted`] by [`placement_weight`]. With no disk
/// measured short by 2× or more this is the registered apportionment,
/// bit for bit.
///
/// Durability cap: no disk holds more than the larger of what its
/// registered weight gives it and N − ⌈(1 + [`DURABILITY_MARGIN`])·K⌉ —
/// the store's estimate of what a decode needs. So losing the fullest
/// disk still leaves a decode's worth, unless the registered layout
/// already put that much there. Surplus goes to the other disks by weight.
pub fn speculative_placement(
    k: usize,
    n: usize,
    registered: &[f64],
    sustained: &[Option<f64>],
) -> Placement {
    let weights: Vec<f64> = registered
        .iter()
        .zip(sustained)
        .map(|(&r, &s)| placement_weight(r, s))
        .collect();
    let measured = Placement::coded_weighted(k, n, &weights);
    if weights == registered {
        return measured;
    }
    let spare = n.saturating_sub(((1.0 + DURABILITY_MARGIN) * k as f64).ceil() as usize);
    let cap: Vec<usize> = Placement::coded_weighted(k, n, registered)
        .per_disk
        .iter()
        .map(|ids| ids.len().max(spare))
        .collect();
    let mut counts: Vec<usize> = measured.per_disk.iter().map(Vec::len).collect();
    // Each round caps the disks over their cap and spreads the surplus
    // over the disks still under theirs; a capped disk takes nothing
    // more, so this ends within one round per disk. The caps sum to at
    // least `n`, so some disk always has room.
    loop {
        let surplus: usize = counts
            .iter()
            .zip(&cap)
            .map(|(&c, &m)| c.saturating_sub(m))
            .sum();
        if surplus == 0 {
            break;
        }
        let room: Vec<f64> = (0..counts.len())
            .map(|d| if counts[d] < cap[d] { weights[d] } else { 0.0 })
            .collect();
        for (c, &m) in counts.iter_mut().zip(&cap) {
            *c = (*c).min(m);
        }
        let extra = Placement::coded_weighted(k, surplus, &room);
        for (c, ids) in counts.iter_mut().zip(&extra.per_disk) {
            *c += ids.len();
        }
    }
    // The same fill as `coded_weighted`: ids in order, disk by disk.
    let mut next = 0u32;
    let lists = counts
        .iter()
        .map(|&c| {
            next += c as u32;
            (next - c as u32..next).collect()
        })
        .collect();
    Placement::from_lists(k, lists)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(id: usize, bw: f64, load: f64, avail: f64) -> DiskInfo {
        DiskInfo {
            id,
            capacity_bytes: 1 << 40,
            used_bytes: 0,
            expected_bandwidth: bw,
            load,
            availability: avail,
        }
    }

    fn pool() -> Vec<DiskInfo> {
        (0..16)
            .map(|i| {
                disk(
                    i,
                    10e6 + (i as f64) * 5e6,
                    (i % 4) as f64 * 0.25,
                    if i % 2 == 0 { 0.999 } else { 0.9 },
                )
            })
            .collect()
    }

    #[test]
    fn durability_margin_is_the_default_first_wave() {
        // Pinned until the first wave is sized per K: moving either one
        // alone changes write layouts or read waves.
        assert_eq!(
            DURABILITY_MARGIN,
            AdaptiveReadPolicy::default().first_wave_overhead
        );
    }

    #[test]
    fn disk_count_follows_target_bandwidth() {
        let p = LayoutPlanner::default();
        // avg bw = 47.5 MB/s; 475 MB/s target → 10 disks.
        let plan = p
            .plan(
                &QosOptions::best_effort().with_target_bandwidth(475e6),
                &pool(),
            )
            .unwrap();
        assert_eq!(plan.disks.len(), 10);
    }

    #[test]
    fn explicit_disk_count_wins() {
        let p = LayoutPlanner::default();
        let plan = p
            .plan(&QosOptions::best_effort().with_num_disks(5), &pool())
            .unwrap();
        assert_eq!(plan.disks.len(), 5);
    }

    #[test]
    fn count_clamped_to_pool() {
        let p = LayoutPlanner::default();
        let plan = p.plan(&QosOptions::best_effort(), &pool()).unwrap();
        assert_eq!(plan.disks.len(), 16, "10Gb/s target wants more than 16");
    }

    #[test]
    fn lightly_loaded_disks_preferred() {
        let p = LayoutPlanner::default();
        let mut disks = pool();
        // Make disk 3 idle and disk 0 saturated.
        disks[3].load = 0.0;
        disks[0].load = 0.95;
        let plan = p
            .plan(&QosOptions::best_effort().with_num_disks(8), &disks)
            .unwrap();
        assert!(plan.disks.contains(&3));
        assert!(
            !plan.disks.contains(&0),
            "saturated disk picked over idle ones: {:?}",
            plan.disks
        );
    }

    #[test]
    fn availability_classes_are_mixed() {
        let p = LayoutPlanner::default();
        let plan = p
            .plan(&QosOptions::best_effort().with_num_disks(8), &pool())
            .unwrap();
        let high = plan
            .disks
            .iter()
            .filter(|&&i| pool()[i].availability >= 0.999)
            .count();
        assert!(
            (2..=6).contains(&high),
            "selection should mix availability classes, high={high}"
        );
    }

    #[test]
    fn redundancy_from_peak_over_average() {
        let p = LayoutPlanner::default();
        // Two speeds: avg 30, peak 55 → D = 1.5·(55/32.5)−1 ≈ 1.54.
        let disks: Vec<DiskInfo> = (0..8)
            .map(|i| disk(i, if i < 4 { 10e6 } else { 55e6 }, 0.0, 0.99))
            .collect();
        let plan = p
            .plan(&QosOptions::best_effort().with_num_disks(8), &disks)
            .unwrap();
        let expected = 1.5 * 55.0 / 32.5 - 1.0;
        assert!(
            (plan.redundancy - expected).abs() < 1e-9,
            "got {}, expected {expected}",
            plan.redundancy
        );
    }

    #[test]
    fn redundancy_clamped_and_overridable() {
        let p = LayoutPlanner::default();
        // Homogeneous speeds → formula gives 0.5, clamped to min 1.0.
        let disks: Vec<DiskInfo> = (0..4).map(|i| disk(i, 20e6, 0.0, 0.99)).collect();
        let plan = p
            .plan(&QosOptions::best_effort().with_num_disks(4), &disks)
            .unwrap();
        assert_eq!(plan.redundancy, 1.0);
        let plan = p
            .plan(
                &QosOptions::best_effort()
                    .with_num_disks(4)
                    .with_redundancy(3.0),
                &disks,
            )
            .unwrap();
        assert_eq!(plan.redundancy, 3.0);
    }

    #[test]
    fn pinned_disks_bypass_dynamic_selection() {
        let p = LayoutPlanner::default();
        let mut disks = pool();
        // Saturate a pinned disk: dynamic selection would avoid it, the
        // pin keeps it — the plan must not depend on live load.
        disks[2].load = 0.95;
        let plan = p
            .plan(
                &QosOptions::best_effort().with_pinned_disks(vec![2, 5, 7]),
                &disks,
            )
            .unwrap();
        assert_eq!(plan.disks, vec![2, 5, 7], "pin order preserved");
        // Redundancy still sized from the pinned selection's spread.
        let sel: Vec<f64> = [2usize, 5, 7]
            .iter()
            .map(|&i| disks[i].expected_bandwidth)
            .collect();
        let avg = sel.iter().sum::<f64>() / 3.0;
        let peak = sel.iter().fold(0.0f64, |a, &b| a.max(b));
        let expected = (1.5 * peak / avg - 1.0).clamp(1.0, 9.0);
        assert!((plan.redundancy - expected).abs() < 1e-9);
        // Out-of-range pins error instead of planning nonsense.
        assert!(p
            .plan(
                &QosOptions::best_effort().with_pinned_disks(vec![99]),
                &disks
            )
            .is_err());
    }

    #[test]
    fn measured_weights_halve_per_doubling_short() {
        assert_eq!(placement_weight(16e6, None), 16e6);
        assert_eq!(placement_weight(16e6, Some(40e6)), 16e6);
        assert_eq!(placement_weight(16e6, Some(8.1e6)), 16e6, "under 2x short");
        assert_eq!(placement_weight(16e6, Some(2.0e6)), 2e6);
        assert_eq!(placement_weight(16e6, Some(1.9e6)), 2e6);
    }

    #[test]
    fn one_slow_disk_gets_its_quantised_share() {
        let registered = vec![16.384e6; 8];
        let mut sustained = vec![Some(16e6); 8];
        sustained[2] = Some(2.0e6);
        let p = speculative_placement(16, 48, &registered, &sustained);
        let counts: Vec<usize> = p.per_disk.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![7, 7, 1, 7, 7, 7, 6, 6]);
        // Unmeasured, or keeping up: the registered layout.
        let p = speculative_placement(16, 48, &registered, &[None; 8]);
        assert!(p.per_disk.iter().all(|ids| ids.len() == 6));
    }

    #[test]
    fn durability_cap_binds_when_most_disks_are_slow() {
        // Seven of eight disks measure 8x slow: by weight the healthy one
        // would take 26 of 48, and losing it would leave 22 < 24 = 1.5 K.
        let registered = vec![16.384e6; 8];
        let mut sustained = vec![Some(2.0e6); 8];
        sustained[0] = None;
        let p = speculative_placement(16, 48, &registered, &sustained);
        let counts: Vec<usize> = p.per_disk.iter().map(Vec::len).collect();
        assert_eq!(counts.iter().sum::<usize>(), 48);
        assert_eq!(counts[0], 24, "capped at N - ceil(1.5 K)");
        // Ids run 0..N in disk order, as `coded_weighted` fills them.
        let ids: Vec<u32> = p.per_disk.iter().flatten().map(|b| b.semantic).collect();
        assert_eq!(ids, (0..48).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_pool_errors() {
        let p = LayoutPlanner::default();
        assert!(matches!(
            p.plan(&QosOptions::best_effort(), &[]),
            Err(StoreError::InsufficientDisks { .. })
        ));
    }
}
