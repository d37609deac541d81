//! Fault injection over any [`StorageBackend`] that shards.
//!
//! [`ChaosBackend`] splits a real backend into its per-disk shards and
//! interposes on each shard's `write_block` and `read_block_into`
//! according to a [`FaultSwitch`] the test arms from outside — including
//! *mid-access*, because the switch is a shared handle while the wrapped
//! backend is owned by the [`crate::System`]. Interception lives once, on
//! the shard; the backend's own [`StorageBackend`] ops route to its
//! shards by disk id, exactly as the system's per-disk dispatch does.
//!
//! Write-path fault shapes:
//!
//! * **Refusal** — the disk declines the block (admission revoked, filer
//!   unreachable). Surfaced as [`StoreError::MissingBlock`], which the
//!   rateless write path routes around by redirecting the block to
//!   another disk.
//! * **Hard fault after a write budget** — the disk accepts `n` more
//!   writes and then fails mid-I/O. Surfaced as
//!   [`StoreError::DiskFault`], which aborts the access and exercises
//!   the commit protocol's rollback.
//!
//! Read-path fault shapes (the self-healing read's chaos diet):
//!
//! * **Transient error** — the next `n` reads of a disk fail with
//!   [`StoreError::TransientIo`]; the retry policy rides it out.
//! * **Corruption** — the next `n` reads return with one byte flipped;
//!   only checksum verification catches it.
//! * **Torn read** — the next `n` reads come back truncated to half
//!   length; length/checksum verification demotes them to missing.
//! * **Hard read fault** — every read of the disk fails with
//!   [`StoreError::DiskFault`] (non-transient, non-retryable), for
//!   testing that fatal errors abort without leaking resources.
//!
//! Deterministic schedules come from [`robustore_simkit::WriteFaultPlan`]
//! via [`FaultSwitch::apply`] and [`robustore_simkit::ReadFaultPlan`] via
//! [`FaultSwitch::apply_read`], so chaos suites replay bit-identically
//! from a seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use robustore_simkit::{
    ReadFaultKind, ReadFaultPlan, SeedSequence, WriteFaultKind, WriteFaultPlan,
};

use crate::backend::{route_by_disk, DiskShard, RefusedWrite, StorageBackend};
use crate::error::StoreError;

#[derive(Debug, Default)]
struct SwitchState {
    /// Disks refusing every write.
    refuse: BTreeSet<usize>,
    /// Disks with a remaining write budget; at zero the next write faults.
    fail_after: BTreeMap<usize, u64>,
    /// Hard faults actually delivered (budget exhausted).
    hard_faults: u64,
    /// Per-disk remaining transiently-failing reads.
    transient_reads: BTreeMap<usize, u64>,
    /// Per-disk remaining silently-corrupted reads.
    corrupt_reads: BTreeMap<usize, u64>,
    /// Per-disk remaining torn (truncated) reads.
    torn_reads: BTreeMap<usize, u64>,
    /// Disks whose every read fails hard (non-retryable).
    read_fail_hard: BTreeSet<usize>,
    /// Read faults actually delivered, by kind.
    injected_transients: u64,
    injected_corruptions: u64,
    injected_torn: u64,
}

/// What the switch decided to do to one read.
enum ReadFate {
    /// Fail before touching the inner backend.
    Error(StoreError),
    /// Read normally, then flip one byte.
    Corrupt,
    /// Read normally, then truncate the buffer to half length.
    Tear,
}

/// Shared control handle for a [`ChaosBackend`].
///
/// Cloneable; the test keeps one clone while the wrapped backend (owning
/// the other) sits inside the system, so faults can be armed and cleared
/// between — or during — accesses.
#[derive(Debug, Clone, Default)]
pub struct FaultSwitch {
    state: Arc<Mutex<SwitchState>>,
}

impl FaultSwitch {
    /// A switch with no faults armed.
    pub fn new() -> Self {
        FaultSwitch::default()
    }

    /// Make `disk` refuse every subsequent write.
    pub fn refuse_disk(&self, disk: usize) {
        self.state.lock().unwrap().refuse.insert(disk);
    }

    /// Let `disk` accept `writes` more blocks, then fail hard.
    pub fn fail_disk_after(&self, disk: usize, writes: u64) {
        self.state.lock().unwrap().fail_after.insert(disk, writes);
    }

    /// Arm every fault of a seeded [`WriteFaultPlan`].
    pub fn apply(&self, plan: &WriteFaultPlan) {
        let mut s = self.state.lock().unwrap();
        for fault in &plan.faults {
            match fault.kind {
                WriteFaultKind::Refuse => {
                    s.refuse.insert(fault.disk);
                }
                WriteFaultKind::FailAfter { writes } => {
                    s.fail_after.insert(fault.disk, writes);
                }
            }
        }
    }

    /// The next `reads` block reads of `disk` fail with
    /// [`StoreError::TransientIo`]; the block stays intact underneath.
    pub fn transient_reads(&self, disk: usize, reads: u64) {
        self.state
            .lock()
            .unwrap()
            .transient_reads
            .insert(disk, reads);
    }

    /// The next `reads` block reads of `disk` return with one byte
    /// flipped (silent corruption).
    pub fn corrupt_reads(&self, disk: usize, reads: u64) {
        self.state.lock().unwrap().corrupt_reads.insert(disk, reads);
    }

    /// The next `reads` block reads of `disk` come back truncated to
    /// half length (torn read).
    pub fn torn_reads(&self, disk: usize, reads: u64) {
        self.state.lock().unwrap().torn_reads.insert(disk, reads);
    }

    /// Every read of `disk` fails hard ([`StoreError::DiskFault`]) until
    /// cleared — a non-retryable failure.
    pub fn fail_reads_hard(&self, disk: usize) {
        self.state.lock().unwrap().read_fail_hard.insert(disk);
    }

    /// Arm every fault of a seeded [`ReadFaultPlan`].
    pub fn apply_read(&self, plan: &ReadFaultPlan) {
        let mut s = self.state.lock().unwrap();
        for fault in &plan.faults {
            match fault.kind {
                ReadFaultKind::Transient { reads } => {
                    s.transient_reads.insert(fault.disk, reads);
                }
                ReadFaultKind::Corrupt { reads } => {
                    s.corrupt_reads.insert(fault.disk, reads);
                }
                ReadFaultKind::Torn { reads } => {
                    s.torn_reads.insert(fault.disk, reads);
                }
            }
        }
    }

    /// Disarm everything (delivered-fault counts are preserved).
    pub fn clear(&self) {
        let mut s = self.state.lock().unwrap();
        s.refuse.clear();
        s.fail_after.clear();
        s.transient_reads.clear();
        s.corrupt_reads.clear();
        s.torn_reads.clear();
        s.read_fail_hard.clear();
    }

    /// Hard faults delivered so far (budget-exhausted writes).
    pub fn injected_hard_faults(&self) -> u64 {
        self.state.lock().unwrap().hard_faults
    }

    /// Read faults delivered so far, as (transient, corrupt, torn).
    pub fn injected_read_faults(&self) -> (u64, u64, u64) {
        let s = self.state.lock().unwrap();
        (
            s.injected_transients,
            s.injected_corruptions,
            s.injected_torn,
        )
    }

    /// Decide the fate of one write. `None` = let it through.
    fn intercept(&self, disk: usize, block: u64) -> Option<StoreError> {
        let mut s = self.state.lock().unwrap();
        if s.refuse.contains(&disk) {
            return Some(StoreError::MissingBlock { disk, block });
        }
        if let Some(budget) = s.fail_after.get_mut(&disk) {
            if *budget == 0 {
                s.hard_faults += 1;
                return Some(StoreError::DiskFault { disk });
            }
            *budget -= 1;
        }
        None
    }

    /// Decide the fate of one read. `None` = let it through untouched.
    /// Budgeted fault kinds decrement on delivery; a disk armed with
    /// several kinds delivers them in transient → corrupt → torn order.
    fn intercept_read(&self, disk: usize) -> Option<ReadFate> {
        let mut s = self.state.lock().unwrap();
        if s.read_fail_hard.contains(&disk) {
            return Some(ReadFate::Error(StoreError::DiskFault { disk }));
        }
        if let Some(budget) = s.transient_reads.get_mut(&disk) {
            if *budget > 0 {
                *budget -= 1;
                s.injected_transients += 1;
                return Some(ReadFate::Error(StoreError::TransientIo { disk }));
            }
        }
        if let Some(budget) = s.corrupt_reads.get_mut(&disk) {
            if *budget > 0 {
                *budget -= 1;
                s.injected_corruptions += 1;
                return Some(ReadFate::Corrupt);
            }
        }
        if let Some(budget) = s.torn_reads.get_mut(&disk) {
            if *budget > 0 {
                *budget -= 1;
                s.injected_torn += 1;
                return Some(ReadFate::Tear);
            }
        }
        None
    }
}

/// A [`StorageBackend`] that injects write and read faults per its
/// [`FaultSwitch`].
///
/// Deletes and accounting delegate untouched to the wrapped shards;
/// `write_block` and the block-read methods are interposed.
pub struct ChaosBackend {
    shards: Vec<ChaosShard>,
    reads: u64,
}

route_by_disk!(ChaosBackend);

impl ChaosBackend {
    /// Shard `inner` and wrap every shard, returning the backend and its
    /// control handle. Panics if `inner` cannot shard.
    pub fn new(mut inner: impl StorageBackend) -> (Self, FaultSwitch) {
        // Every shard interposes with a clone of the *same* switch: fault
        // budgets live in the shared switch state, so arming, clearing,
        // and fault accounting keep working mid-access no matter which
        // shard the access touches — and a per-disk budget drains
        // identically whether the writes arrive one at a time or through
        // a group-commit batch (the default [`DiskShard::commit_batch`]
        // funnels every entry through the intercepting `write_block` and
        // stops at the first hard fault).
        let switch = FaultSwitch::new();
        let shards = inner
            .try_shard()
            .expect("chaos injection wraps a backend that shards");
        let shards = shards
            .into_iter()
            .map(|inner| ChaosShard {
                inner,
                switch: switch.clone(),
            })
            .collect();
        (ChaosBackend { shards, reads: 0 }, switch)
    }
}

/// One fault-injecting disk shard, sharing its backend's [`FaultSwitch`].
struct ChaosShard {
    inner: Box<dyn DiskShard>,
    switch: FaultSwitch,
}

impl DiskShard for ChaosShard {
    fn disk_id(&self) -> usize {
        self.inner.disk_id()
    }

    fn write_block(&mut self, block: u64, data: Vec<u8>) -> Result<(), RefusedWrite> {
        if let Some(error) = self.switch.intercept(self.inner.disk_id(), block) {
            return Err(RefusedWrite::new(error, data));
        }
        self.inner.write_block(block, data)
    }

    fn read_block_into(&self, block: u64, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        let fate = self.switch.intercept_read(self.inner.disk_id());
        if let Some(ReadFate::Error(e)) = fate {
            return Err(e);
        }
        self.inner.read_block_into(block, buf)?;
        match fate {
            Some(ReadFate::Corrupt) => {
                if let Some(byte) = buf.first_mut() {
                    *byte ^= 0xFF;
                }
            }
            Some(ReadFate::Tear) => buf.truncate(buf.len() / 2),
            _ => {}
        }
        Ok(())
    }

    fn delete_block(&mut self, block: u64) -> Result<(), StoreError> {
        self.inner.delete_block(block)
    }

    /// Presence probes are not reads: they bypass the switch so risk
    /// assessment never drains armed fault budgets.
    fn has_block(&self, block: u64) -> bool {
        self.inner.has_block(block)
    }

    fn speed(&self) -> f64 {
        self.inner.speed()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn count_read(&mut self) {
        self.inner.count_read();
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }

    fn set_offline(&mut self, offline: bool) {
        self.inner.set_offline(offline);
    }

    fn drop_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.drop_random_blocks(fraction, seq)
    }

    fn corrupt_random_blocks(&mut self, fraction: f64, seq: &SeedSequence) -> Vec<u64> {
        self.inner.corrupt_random_blocks(fraction, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;

    #[test]
    fn refusal_returns_buffer_and_routes_as_missing() {
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(2, 10e6));
        switch.refuse_disk(0);
        let err = b.write_block(0, 1, vec![7; 8]).unwrap_err();
        assert!(matches!(
            err.error,
            StoreError::MissingBlock { disk: 0, .. }
        ));
        assert_eq!(err.data, vec![7; 8], "payload handed back intact");
        b.write_block(1, 1, vec![7; 8]).unwrap();
        assert_eq!(b.disk_used(0), 0);
        assert_eq!(b.disk_used(1), 8);
        assert_eq!(switch.injected_hard_faults(), 0);
    }

    #[test]
    fn fail_after_budget_then_hard_fault() {
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(1, 10e6));
        switch.fail_disk_after(0, 2);
        b.write_block(0, 1, vec![1]).unwrap();
        b.write_block(0, 2, vec![2]).unwrap();
        let err = b.write_block(0, 3, vec![3]).unwrap_err();
        assert!(matches!(err.error, StoreError::DiskFault { disk: 0 }));
        assert_eq!(err.data, vec![3]);
        assert_eq!(switch.injected_hard_faults(), 1);
        // Reads of committed blocks still succeed: the fault is I/O-side.
        assert_eq!(b.read_block(0, 1).unwrap(), vec![1]);
    }

    #[test]
    fn clear_disarms_but_keeps_count() {
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(1, 10e6));
        switch.fail_disk_after(0, 0);
        assert!(b.write_block(0, 1, vec![1]).is_err());
        switch.clear();
        b.write_block(0, 1, vec![1]).unwrap();
        assert_eq!(switch.injected_hard_faults(), 1);
    }

    #[test]
    fn apply_arms_a_seeded_plan() {
        use robustore_simkit::WriteFaultScenario;
        let seq = SeedSequence::new(42);
        let plan = WriteFaultPlan::generate(&WriteFaultScenario::RefusingDisks { n: 2 }, 4, &seq);
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(4, 10e6));
        switch.apply(&plan);
        let refused: Vec<usize> = (0..4)
            .filter(|&d| b.write_block(d, 0, vec![0]).is_err())
            .collect();
        assert_eq!(refused.len(), 2);
        assert_eq!(
            refused,
            plan.faults.iter().map(|f| f.disk).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transient_reads_exhaust_then_succeed() {
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(1, 10e6));
        b.write_block(0, 5, vec![3; 8]).unwrap();
        switch.transient_reads(0, 2);
        let mut buf = Vec::new();
        assert!(matches!(
            b.read_block_into(0, 5, &mut buf),
            Err(StoreError::TransientIo { disk: 0 })
        ));
        assert!(matches!(
            b.read_block_into(0, 5, &mut buf),
            Err(StoreError::TransientIo { disk: 0 })
        ));
        b.read_block_into(0, 5, &mut buf).unwrap();
        assert_eq!(buf, vec![3; 8], "block intact after transients");
        assert_eq!(switch.injected_read_faults(), (2, 0, 0));
    }

    #[test]
    fn corrupt_and_torn_reads_mutate_the_buffer() {
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(1, 10e6));
        b.write_block(0, 1, vec![0xAA; 8]).unwrap();
        switch.corrupt_reads(0, 1);
        let got = b.read_block(0, 1).unwrap();
        assert_eq!(got.len(), 8);
        assert_ne!(got, vec![0xAA; 8], "first byte flipped");
        assert_eq!(&got[1..], &[0xAA; 7][..]);
        // Budget spent: next read is clean.
        assert_eq!(b.read_block(0, 1).unwrap(), vec![0xAA; 8]);

        switch.torn_reads(0, 1);
        let torn = b.read_block(0, 1).unwrap();
        assert_eq!(torn, vec![0xAA; 4], "torn read returns half the block");
        assert_eq!(b.read_block(0, 1).unwrap(), vec![0xAA; 8]);
        assert_eq!(switch.injected_read_faults(), (0, 1, 1));
    }

    #[test]
    fn hard_read_faults_until_cleared() {
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(1, 10e6));
        b.write_block(0, 1, vec![1]).unwrap();
        switch.fail_reads_hard(0);
        assert!(matches!(
            b.read_block(0, 1),
            Err(StoreError::DiskFault { disk: 0 })
        ));
        switch.clear();
        assert_eq!(b.read_block(0, 1).unwrap(), vec![1]);
    }

    #[test]
    fn apply_read_arms_a_seeded_plan() {
        use robustore_simkit::ReadFaultScenario;
        let seq = SeedSequence::new(9);
        let plan = ReadFaultPlan::generate(
            &ReadFaultScenario::TransientDisks { n: 2, reads: 1 },
            4,
            &seq,
        );
        let (mut b, switch) = ChaosBackend::new(InMemoryBackend::uniform(4, 10e6));
        for d in 0..4 {
            b.write_block(d, 0, vec![d as u8]).unwrap();
        }
        switch.apply_read(&plan);
        let failing: Vec<usize> = (0..4).filter(|&d| b.read_block(d, 0).is_err()).collect();
        assert_eq!(
            failing,
            plan.faults.iter().map(|f| f.disk).collect::<Vec<_>>()
        );
        // Budgets spent: everything reads clean now.
        assert!((0..4).all(|d| b.read_block(d, 0).is_ok()));
    }
}
