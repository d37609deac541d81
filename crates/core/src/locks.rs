//! Reader/writer file locks with epoch-based stale-lock reclaim.
//!
//! The metadata plane — the durable [`crate::metastore::Metastore`], and
//! the in-memory reference server its chaos suite compares it against —
//! hands out per-file locks on `open` and expects a balanced `close`. A
//! client that crashes between the two used to leave its `LockState`
//! held forever, wedging the file for every later writer. The fix is
//! lease-style: every acquisition (and
//! every reader joining an existing read lock) stamps the lock with the
//! table's current *epoch*. A supervising layer calls
//! [`LockTable::begin_epoch`] on its own schedule (a heartbeat round, a
//! scrub cycle); any lock whose stamp has fallen `lease_epochs` behind is
//! presumed orphaned by a crashed holder and is silently reclaimed by the
//! next conflicting `open`. Holders that are alive refresh their stamp
//! whenever they touch the lock, so a legitimate long reader is only ever
//! reclaimed if the supervisor advances epochs faster than the holder
//! does work — the lease length is the supervisor's promise, not ours.
//!
//! With no `begin_epoch` calls the epoch never moves and behaviour is
//! exactly the pre-reclaim semantics: locks live until closed.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::metadata::AccessMode;

/// Default lease length: a lock survives the epoch it was stamped in and
/// the next one, and is reclaimable from the second advance on.
pub const DEFAULT_LOCK_LEASE_EPOCHS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Readers(usize),
    Writer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LockEntry {
    kind: LockKind,
    /// Epoch of the most recent acquisition or refresh.
    stamp: u64,
}

/// The lock table: file name → lock state, plus the reclaim epoch.
#[derive(Debug, Clone)]
pub struct LockTable {
    locks: HashMap<String, LockEntry>,
    epoch: u64,
    lease_epochs: u64,
    reclaimed: u64,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable {
            locks: HashMap::new(),
            epoch: 0,
            lease_epochs: DEFAULT_LOCK_LEASE_EPOCHS,
            reclaimed: 0,
        }
    }
}

impl LockTable {
    /// An empty table at epoch 0 with the default lease.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Override the lease length (epochs a lock may lag before it is
    /// presumed orphaned). Minimum 1: a lock is never reclaimable in the
    /// epoch that stamped it.
    pub fn set_lease_epochs(&mut self, lease: u64) {
        self.lease_epochs = lease.max(1);
    }

    /// Advance the reclaim epoch. Returns the new epoch.
    pub fn begin_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Locks reclaimed from presumed-crashed holders so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Currently held (non-stale) locks.
    pub fn held(&self) -> usize {
        self.locks.values().filter(|e| !self.is_stale(e)).count()
    }

    fn is_stale(&self, entry: &LockEntry) -> bool {
        self.epoch.saturating_sub(entry.stamp) >= self.lease_epochs
    }

    /// Take the lock for `mode`, reclaiming a stale entry if one is in
    /// the way. A live reader joining refreshes the stamp.
    pub fn acquire(&mut self, name: &str, mode: AccessMode) -> Result<(), StoreError> {
        let state = match self.locks.get(name) {
            Some(e) if self.is_stale(e) => {
                self.reclaimed += 1;
                None
            }
            s => s.copied(),
        };
        let kind = match (mode, state.map(|e| e.kind)) {
            (AccessMode::Read, None) => LockKind::Readers(1),
            (AccessMode::Read, Some(LockKind::Readers(n))) => LockKind::Readers(n + 1),
            (AccessMode::Read, Some(LockKind::Writer)) => {
                return Err(StoreError::LockConflict(name.to_string()))
            }
            (AccessMode::Write, None) => LockKind::Writer,
            (AccessMode::Write, Some(_)) => return Err(StoreError::LockConflict(name.to_string())),
        };
        self.locks.insert(
            name.to_string(),
            LockEntry {
                kind,
                stamp: self.epoch,
            },
        );
        Ok(())
    }

    /// Release the lock taken by [`LockTable::acquire`]. Panics on an
    /// unbalanced close — that is a caller bug, not a runtime condition.
    /// A holder whose lock was reclaimed and *not* reacquired closes into
    /// the unbalanced panic like any other ghost; one that closes after a
    /// successor reacquired releases the successor's lock — the ABA
    /// hazard of advancing epochs faster than live holders heartbeat.
    /// The lease length is the supervisor's tool for keeping that window
    /// acceptable.
    pub fn release(&mut self, name: &str, mode: AccessMode) {
        let state = self.locks.get(name).copied();
        match (mode, state.map(|e| e.kind)) {
            (AccessMode::Read, Some(LockKind::Readers(1))) => {
                self.locks.remove(name);
            }
            (AccessMode::Read, Some(LockKind::Readers(n))) if n > 1 => {
                let stamp = state.expect("entry present").stamp;
                self.locks.insert(
                    name.to_string(),
                    LockEntry {
                        kind: LockKind::Readers(n - 1),
                        stamp,
                    },
                );
            }
            (AccessMode::Write, Some(LockKind::Writer)) => {
                self.locks.remove(name);
            }
            (m, s) => panic!("unbalanced close: mode {m:?}, lock state {s:?}"),
        }
    }

    /// Whether `name` is write-locked (commit/remove gate). A stale
    /// writer no longer counts.
    pub fn holds_writer(&self, name: &str) -> bool {
        matches!(
            self.locks.get(name),
            Some(e) if e.kind == LockKind::Writer && !self.is_stale(e)
        )
    }

    /// Upgrade a sole-reader lock to the writer lock (read-repair's
    /// commit window). `false` (lock untouched) with other readers, a
    /// writer, or no lock. A stale entry counts as no lock.
    pub fn try_upgrade(&mut self, name: &str) -> bool {
        match self.locks.get(name) {
            Some(e) if e.kind == LockKind::Readers(1) && !self.is_stale(e) => {
                self.locks.insert(
                    name.to_string(),
                    LockEntry {
                        kind: LockKind::Writer,
                        stamp: self.epoch,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// Downgrade the writer lock back to a single reader, undoing
    /// [`LockTable::try_upgrade`].
    pub fn downgrade(&mut self, name: &str) {
        match self.locks.get(name) {
            Some(e) if e.kind == LockKind::Writer => {
                self.locks.insert(
                    name.to_string(),
                    LockEntry {
                        kind: LockKind::Readers(1),
                        stamp: self.epoch,
                    },
                );
            }
            s => panic!("downgrade without writer lock: {s:?}"),
        }
    }

    /// Drop every lock. Recovery uses this: a rebuilt metadata plane
    /// cannot tell live holders from crashed ones, so it reclaims
    /// conservatively — every pre-crash lock belonged to a handle that
    /// cannot legally touch the recovered image (its commits would be
    /// refused anyway), and live clients re-open.
    pub fn clear(&mut self) {
        self.reclaimed += self.locks.len() as u64;
        self.locks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_writer_is_reclaimed_after_lease() {
        let mut t = LockTable::new();
        t.acquire("f", AccessMode::Write).unwrap();
        // Same epoch: conflict.
        assert!(t.acquire("f", AccessMode::Write).is_err());
        t.begin_epoch();
        // One epoch behind: still within the default 2-epoch lease.
        assert!(t.acquire("f", AccessMode::Write).is_err());
        t.begin_epoch();
        // Two behind: presumed crashed, reclaimed.
        t.acquire("f", AccessMode::Write).unwrap();
        assert_eq!(t.reclaimed(), 1);
    }

    #[test]
    fn live_reader_refreshes_stamp() {
        let mut t = LockTable::new();
        t.acquire("f", AccessMode::Read).unwrap();
        t.begin_epoch();
        // A second reader joining refreshes the shared stamp.
        t.acquire("f", AccessMode::Read).unwrap();
        t.begin_epoch();
        // Stamp is 1 epoch behind: lock still held against a writer.
        assert!(t.acquire("f", AccessMode::Write).is_err());
        t.release("f", AccessMode::Read);
        t.release("f", AccessMode::Read);
        t.acquire("f", AccessMode::Write).unwrap();
    }

    #[test]
    fn successor_reclaims_and_holds() {
        let mut t = LockTable::new();
        t.acquire("f", AccessMode::Write).unwrap();
        t.begin_epoch();
        t.begin_epoch();
        // Successor reclaims the orphan and takes a fresh writer lock
        // stamped at the current epoch.
        t.acquire("f", AccessMode::Write).unwrap();
        assert!(t.holds_writer("f"));
        assert_eq!(t.reclaimed(), 1);
    }

    #[test]
    fn held_ignores_stale_entries() {
        let mut t = LockTable::new();
        t.acquire("a", AccessMode::Read).unwrap();
        t.acquire("b", AccessMode::Write).unwrap();
        assert_eq!(t.held(), 2);
        t.begin_epoch();
        t.begin_epoch();
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn clear_counts_as_reclaim() {
        let mut t = LockTable::new();
        t.acquire("a", AccessMode::Read).unwrap();
        t.acquire("b", AccessMode::Write).unwrap();
        t.clear();
        assert_eq!(t.reclaimed(), 2);
        t.acquire("a", AccessMode::Write).unwrap();
        t.acquire("b", AccessMode::Write).unwrap();
    }

    #[test]
    fn upgrade_respects_staleness() {
        let mut t = LockTable::new();
        t.acquire("f", AccessMode::Read).unwrap();
        t.begin_epoch();
        t.begin_epoch();
        // The read lock is stale: upgrading it would hand a crashed
        // reader's ghost a writer lock.
        assert!(!t.try_upgrade("f"));
    }
}
