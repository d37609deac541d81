//! QoS options for `open` (Appendix B).
//!
//! The open call carries performance requirements; the layout planner
//! turns them into a disk count and a redundancy degree. Unset fields fall back to planner defaults derived from the
//! cluster's measured characteristics.

/// Quality-of-service options attached to an `open`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QosOptions {
    /// Target aggregate access bandwidth, bytes/second. Drives the disk
    /// count: H ≥ target / average-disk-bandwidth (§5.3.1).
    pub target_bandwidth: Option<f64>,
    /// Explicit degree of data redundancy D; otherwise the planner sizes it
    /// from disk-performance spread (§5.3.2).
    pub redundancy: Option<f64>,
    /// Explicit disk count; overrides the bandwidth-derived count.
    pub num_disks: Option<usize>,
    /// Pin the layout to exactly these disks, bypassing dynamic
    /// load/space/availability selection. Dynamic selection reads live
    /// usage, so under concurrent accesses the chosen disks depend on
    /// interleaving; pinning makes the plan a pure function of the
    /// request — what the concurrency benchmarks and differential tests
    /// need for byte-identical committed state across thread counts.
    pub pinned_disks: Option<Vec<usize>>,
}

impl QosOptions {
    /// No requirements: planner defaults throughout.
    pub fn best_effort() -> Self {
        QosOptions::default()
    }

    /// Request a target bandwidth.
    pub fn with_target_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.target_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Request an explicit redundancy degree.
    pub fn with_redundancy(mut self, d: f64) -> Self {
        self.redundancy = Some(d);
        self
    }

    /// Request an explicit disk count.
    pub fn with_num_disks(mut self, h: usize) -> Self {
        self.num_disks = Some(h);
        self
    }

    /// Pin the layout to exactly these disks (in this order).
    pub fn with_pinned_disks(mut self, disks: Vec<usize>) -> Self {
        self.pinned_disks = Some(disks);
        self
    }

    /// Basic consistency checks.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(b) = self.target_bandwidth {
            if b <= 0.0 {
                return Err("target bandwidth must be positive".into());
            }
        }
        if let Some(d) = self.redundancy {
            if d < 0.0 {
                return Err("redundancy cannot be negative".into());
            }
        }
        if self.num_disks == Some(0) {
            return Err("disk count must be positive".into());
        }
        if let Some(pinned) = &self.pinned_disks {
            if pinned.is_empty() {
                return Err("pinned disk list cannot be empty".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let q = QosOptions::best_effort()
            .with_target_bandwidth(1.2e9)
            .with_redundancy(3.0)
            .with_num_disks(64);
        assert_eq!(q.target_bandwidth, Some(1.2e9));
        assert_eq!(q.redundancy, Some(3.0));
        assert_eq!(q.num_disks, Some(64));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn validation() {
        assert!(QosOptions::best_effort().validate().is_ok());
        assert!(QosOptions::default()
            .with_target_bandwidth(-1.0)
            .validate()
            .is_err());
        assert!(QosOptions::default()
            .with_redundancy(-0.1)
            .validate()
            .is_err());
        assert!(QosOptions::default().with_num_disks(0).validate().is_err());
        assert!(QosOptions::default()
            .with_pinned_disks(vec![])
            .validate()
            .is_err());
        assert!(QosOptions::default()
            .with_pinned_disks(vec![0, 3])
            .validate()
            .is_ok());
    }
}
