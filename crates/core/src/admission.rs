//! Capacity-based admission control (§5.4).
//!
//! Each storage server grants access through an admission controller:
//! "with CAC, new flows are indiscriminately admitted until capacity is
//! exhausted (First Come First Admitted). New flows are not admitted until
//! capacity is available." Capacity here is concurrent large accesses —
//! the paper's point is that interleaving many large streams on one
//! rotating disk destroys total throughput, so the controller bounds
//! concurrency rather than bytes.

use std::collections::HashSet;

/// First-come-first-admitted controller for one storage server.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    capacity: usize,
    active: HashSet<u64>,
    admitted_total: u64,
    refused_total: u64,
}

impl AdmissionController {
    /// A controller admitting at most `capacity` concurrent accesses.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        AdmissionController {
            capacity,
            active: HashSet::new(),
            admitted_total: 0,
            refused_total: 0,
        }
    }

    /// Request admission for `access`. Idempotent for an already-admitted
    /// access. Returns whether the access may proceed.
    pub fn request(&mut self, access: u64) -> bool {
        if self.active.contains(&access) {
            return true;
        }
        if self.active.len() < self.capacity {
            self.active.insert(access);
            self.admitted_total += 1;
            true
        } else {
            self.refused_total += 1;
            false
        }
    }

    /// Release a previously admitted access; `false` if it was not active.
    pub fn release(&mut self, access: u64) -> bool {
        self.active.remove(&access)
    }

    /// Currently admitted accesses.
    pub fn in_use(&self) -> usize {
        self.active.len()
    }

    /// Lifetime admissions.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Lifetime refusals.
    pub fn refused_total(&self) -> u64 {
        self.refused_total
    }

    /// Load estimate in [0, 1] for the metadata server's registry.
    pub fn load(&self) -> f64 {
        self.active.len() as f64 / self.capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_capacity() {
        let mut a = AdmissionController::new(2);
        assert!(a.request(1));
        assert!(a.request(2));
        assert!(!a.request(3), "capacity exhausted");
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.refused_total(), 1);
    }

    #[test]
    fn release_frees_a_slot_fcfa() {
        let mut a = AdmissionController::new(1);
        assert!(a.request(1));
        assert!(!a.request(2));
        assert!(a.release(1));
        assert!(a.request(2), "slot reusable after release");
        assert!(!a.release(1), "double release is a no-op");
    }

    #[test]
    fn request_is_idempotent() {
        let mut a = AdmissionController::new(1);
        assert!(a.request(7));
        assert!(a.request(7));
        assert_eq!(a.in_use(), 1);
        assert_eq!(a.admitted_total(), 1);
    }

    #[test]
    fn load_reflects_occupancy() {
        let mut a = AdmissionController::new(4);
        a.request(1);
        a.request(2);
        assert!((a.load() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        AdmissionController::new(0);
    }
}
