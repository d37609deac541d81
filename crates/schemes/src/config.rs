//! Access configuration.
//!
//! The paper sweeps one knob at a time from a fixed baseline (§6.2.5): a
//! 1 GB access over 64 disks, 1 ms RTT, 1 MB blocks, 3× data redundancy
//! (RAID-0 always 1×), heterogeneous in-disk layout, no competitive load,
//! no filer cache, 100 trials. `AccessConfig::default()` is that baseline.

use robustore_cluster::{BackgroundPolicy, ClusterConfig, LayoutPolicy};
use robustore_erasure::LtParams;
use robustore_simkit::FaultScenario;

/// Which storage scheme performs the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Plain striping, zero redundancy, parallel read-all.
    Raid0,
    /// Rotated replication + speculative access.
    RraidS,
    /// Rotated replication + adaptive multi-round access.
    RraidA,
    /// LT erasure coding + speculative access (the paper's system).
    RobuStore,
}

impl SchemeKind {
    /// All four schemes in the paper's presentation order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Raid0,
        SchemeKind::RraidS,
        SchemeKind::RraidA,
        SchemeKind::RobuStore,
    ];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Raid0 => "RAID-0",
            SchemeKind::RraidS => "RRAID-S",
            SchemeKind::RraidA => "RRAID-A",
            SchemeKind::RobuStore => "RobuSTore",
        }
    }

    /// Whether the scheme stores redundant data at all.
    pub fn uses_redundancy(&self) -> bool {
        !matches!(self, SchemeKind::Raid0)
    }
}

/// Read, write, or the read-after-write composition of §6.3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A fresh read of balanced-striped data.
    Read,
    /// A write (speculative for RobuSTore, uniform for the others).
    Write,
    /// A write followed by an independent read of the resulting layout —
    /// unbalanced striping for RobuSTore, balanced for the baselines.
    ReadAfterWrite,
}

/// How RobuSTore coded blocks are striped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Striping {
    /// Round-robin, equal counts per disk.
    Balanced,
    /// Proportional to observed per-disk write bandwidth (what speculative
    /// writing produces).
    Unbalanced,
}

/// Full description of one access experiment.
#[derive(Debug, Clone)]
pub struct AccessConfig {
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// Read / write / read-after-write.
    pub kind: AccessKind,
    /// Original data size in bytes.
    pub data_bytes: u64,
    /// Coding/striping block size in bytes.
    pub block_bytes: u64,
    /// Disks selected for the access (chosen at random from the pool).
    pub num_disks: usize,
    /// Degree of data redundancy D = N/K − 1 (ignored by RAID-0).
    pub redundancy: f64,
    /// LT coding parameters (RobuSTore only).
    pub lt: LtParams,
    /// Decode bandwidth charged for the pipelined LT decode tail,
    /// bytes/second (§6.2.5: 500 MB/s).
    pub decode_bandwidth: f64,
    /// RobuSTore striping mode for plain reads. (`ReadAfterWrite` derives
    /// the layout from the simulated write instead.)
    pub striping: Striping,
    /// Cluster shape, RTT, cache, metadata overhead.
    pub cluster: ClusterConfig,
    /// Per-disk layout policy.
    pub layout: LayoutPolicy,
    /// Competitive workload policy.
    pub background: BackgroundPolicy,
    /// Whether reads cancel outstanding requests on completion (§5.3.3).
    /// Disabling this is the cancellation ablation: every requested block
    /// is then read and shipped, and I/O overhead balloons to the full
    /// stored redundancy.
    pub read_cancellation: bool,
    /// Failure injection: this many of the selected disks are down for
    /// the whole access — their servers never respond to requests,
    /// writes, or cancels. Erasure-coded redundancy should ride through
    /// up to its margin (§4.1.3); RAID-0 cannot survive even one.
    pub failed_disks: usize,
    /// Dynamic fault injection: a scenario expanded per trial into a
    /// deterministic schedule of mid-access slowdowns, failures, flaky
    /// windows, or load bursts (unlike `failed_disks`, which is a
    /// static from-the-start outage). The schedule depends only on
    /// (scenario, seed), so every scheme sees identical faults.
    pub faults: FaultScenario,
}

impl Default for AccessConfig {
    fn default() -> Self {
        AccessConfig {
            scheme: SchemeKind::RobuStore,
            kind: AccessKind::Read,
            data_bytes: 1 << 30,
            block_bytes: 1 << 20,
            num_disks: 64,
            redundancy: 3.0,
            lt: LtParams::default(),
            decode_bandwidth: 500e6,
            striping: Striping::Balanced,
            cluster: ClusterConfig::default(),
            layout: LayoutPolicy::Heterogeneous,
            background: BackgroundPolicy::None,
            read_cancellation: true,
            failed_disks: 0,
            faults: FaultScenario::None,
        }
    }
}

impl AccessConfig {
    /// Number of original blocks K.
    pub fn k(&self) -> usize {
        (self.data_bytes.div_ceil(self.block_bytes)) as usize
    }

    /// Number of stored blocks N for this scheme: K for RAID-0,
    /// ⌈(1+D)·K⌉ otherwise.
    pub fn n(&self) -> usize {
        if self.scheme.uses_redundancy() {
            ((1.0 + self.redundancy) * self.k() as f64).round() as usize
        } else {
            self.k()
        }
    }

    /// Replica count for the RRAID schemes: 1+D rounded to at least 1.
    /// (The paper's RRAID layout "allows arbitrary redundancy"; we realise
    /// fractional redundancy by giving the first `frac·K` originals one
    /// extra copy.)
    pub fn full_replicas(&self) -> usize {
        ((1.0 + self.redundancy).floor() as usize).max(1)
    }

    /// Baseline variants used throughout the harness.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Set the access kind.
    pub fn with_kind(mut self, kind: AccessKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the number of selected disks.
    pub fn with_disks(mut self, n: usize) -> Self {
        self.num_disks = n;
        self
    }

    /// Set the redundancy degree.
    pub fn with_redundancy(mut self, d: f64) -> Self {
        self.redundancy = d;
        self
    }

    /// Set the fault-injection scenario.
    pub fn with_faults(mut self, faults: FaultScenario) -> Self {
        self.faults = faults;
        self
    }

    /// Sanity checks before running.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        if self.data_bytes == 0 || self.block_bytes == 0 {
            return Err("data and block sizes must be positive".into());
        }
        if self.block_bytes > self.data_bytes {
            return Err("block larger than data".into());
        }
        if self.num_disks == 0 || self.num_disks > self.cluster.num_disks {
            return Err(format!(
                "num_disks {} out of range 1..={}",
                self.num_disks, self.cluster.num_disks
            ));
        }
        if self.redundancy < 0.0 {
            return Err("redundancy cannot be negative".into());
        }
        if self.decode_bandwidth <= 0.0 {
            return Err("decode bandwidth must be positive".into());
        }
        if self.failed_disks >= self.num_disks {
            return Err("cannot fail every selected disk".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = AccessConfig::default();
        assert_eq!(c.k(), 1024);
        assert_eq!(c.n(), 4096);
        assert_eq!(c.num_disks, 64);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn raid0_ignores_redundancy() {
        let c = AccessConfig::default().with_scheme(SchemeKind::Raid0);
        assert_eq!(c.n(), c.k());
    }

    #[test]
    fn replica_counts() {
        let c = AccessConfig::default().with_redundancy(3.0);
        assert_eq!(c.full_replicas(), 4);
        let c = c.with_redundancy(0.0);
        assert_eq!(c.full_replicas(), 1);
        let c = c.with_redundancy(1.4);
        assert_eq!(c.full_replicas(), 2);
    }

    #[test]
    fn validation() {
        assert!(AccessConfig::default().with_disks(0).validate().is_err());
        assert!(AccessConfig::default().with_disks(129).validate().is_err());
        assert!(AccessConfig::default()
            .with_redundancy(-1.0)
            .validate()
            .is_err());
        let mut c = AccessConfig::default();
        c.block_bytes = c.data_bytes * 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_scenario_defaults_to_none() {
        let c = AccessConfig::default();
        assert!(c.faults.is_none());
        let c = c.with_faults(FaultScenario::one_slow_disk(8.0));
        assert_eq!(c.faults.name(), "one_slow_disk");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SchemeKind::RobuStore.name(), "RobuSTore");
        assert_eq!(SchemeKind::ALL.len(), 4);
        assert!(!SchemeKind::Raid0.uses_redundancy());
        assert!(SchemeKind::RraidS.uses_redundancy());
    }
}
