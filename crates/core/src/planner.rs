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
    fn empty_pool_errors() {
        let p = LayoutPlanner::default();
        assert!(matches!(
            p.plan(&QosOptions::best_effort(), &[]),
            Err(StoreError::InsufficientDisks { .. })
        ));
    }
}
