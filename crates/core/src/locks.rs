//! Reader/writer file locks.
//!
//! The metadata plane — the durable [`crate::metastore::Metastore`], and
//! the in-memory reference server its chaos suite compares it against —
//! hands out per-file locks on `open` and expects a balanced `close`.
//! Locks live until closed. A client that crashes between the two leaves
//! its lock held until the metadata plane recovers: recovery cannot tell
//! live holders from crashed ones, so it reclaims every lock
//! conservatively ([`LockTable::clear`]) and live clients re-open.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::metadata::AccessMode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Readers(usize),
    Writer,
}

/// The lock table: file name → lock state, plus the reclaim count.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: HashMap<String, LockKind>,
    reclaimed: u64,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Locks reclaimed by recovery's [`LockTable::clear`] so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Take the lock for `mode`: readers share, a writer is exclusive.
    pub fn acquire(&mut self, name: &str, mode: AccessMode) -> Result<(), StoreError> {
        let kind = match (mode, self.locks.get(name)) {
            (AccessMode::Read, None) => LockKind::Readers(1),
            (AccessMode::Read, Some(LockKind::Readers(n))) => LockKind::Readers(n + 1),
            (AccessMode::Read, Some(LockKind::Writer)) => {
                return Err(StoreError::LockConflict(name.to_string()))
            }
            (AccessMode::Write, None) => LockKind::Writer,
            (AccessMode::Write, Some(_)) => return Err(StoreError::LockConflict(name.to_string())),
        };
        self.locks.insert(name.to_string(), kind);
        Ok(())
    }

    /// Release the lock taken by [`LockTable::acquire`]. Panics on an
    /// unbalanced close — that is a caller bug, not a runtime condition.
    pub fn release(&mut self, name: &str, mode: AccessMode) {
        match (mode, self.locks.get(name).copied()) {
            (AccessMode::Read, Some(LockKind::Readers(1))) => {
                self.locks.remove(name);
            }
            (AccessMode::Read, Some(LockKind::Readers(n))) if n > 1 => {
                self.locks
                    .insert(name.to_string(), LockKind::Readers(n - 1));
            }
            (AccessMode::Write, Some(LockKind::Writer)) => {
                self.locks.remove(name);
            }
            (m, s) => panic!("unbalanced close: mode {m:?}, lock state {s:?}"),
        }
    }

    /// Whether `name` is write-locked (commit/remove gate).
    pub fn holds_writer(&self, name: &str) -> bool {
        self.locks.get(name) == Some(&LockKind::Writer)
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
    fn clear_counts_as_reclaim() {
        let mut t = LockTable::new();
        t.acquire("a", AccessMode::Read).unwrap();
        t.acquire("b", AccessMode::Write).unwrap();
        t.clear();
        assert_eq!(t.reclaimed(), 2);
        t.acquire("a", AccessMode::Write).unwrap();
        t.acquire("b", AccessMode::Write).unwrap();
    }
}
