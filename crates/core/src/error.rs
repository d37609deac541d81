//! Error type for the RobuSTore framework.

use robustore_erasure::CodingError;

/// Errors surfaced by the client API and its supporting services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named file does not exist.
    NotFound(String),
    /// The file already exists (exclusive create).
    AlreadyExists(String),
    /// The file is locked in a conflicting mode.
    LockConflict(String),
    /// The handle was opened for a different access type.
    WrongMode,
    /// The handle is stale (file closed or metadata changed underneath).
    StaleHandle,
    /// A storage server refused the access (admission control).
    AdmissionDenied {
        /// The refusing server/disk.
        disk: usize,
    },
    /// Too few disks admitted/available to satisfy the plan.
    InsufficientDisks {
        /// Disks obtained.
        got: usize,
        /// Disks required by the plan.
        need: usize,
    },
    /// A disk had no copy of a requested block.
    MissingBlock {
        /// The disk queried.
        disk: usize,
        /// The block id.
        block: u64,
    },
    /// A storage server failed mid-I/O (hard media/controller error, real
    /// or injected). Unlike [`StoreError::MissingBlock`], which a rateless
    /// write routes around, this aborts the access — the commit protocol
    /// rolls the new generation back.
    DiskFault {
        /// The failing disk.
        disk: usize,
    },
    /// A storage server failed a read with a *transient* error (timeout,
    /// controller reset): the block is intact and a bounded retry
    /// ([`crate::ReadRetry`]) is expected to succeed. After the retry
    /// budget is exhausted the reader demotes the block to missing.
    TransientIo {
        /// The disk whose read transiently failed.
        disk: usize,
    },
    /// Erasure coding failed.
    Coding(CodingError),
    /// Access control rejected the credential chain.
    AccessDenied(String),
    /// Offset/length out of the file's range.
    OutOfRange,
    /// A metadata replica is down or failed mid-operation (real or
    /// injected). One replica failing is routine — quorum absorbs it;
    /// this surfaces only from direct replica access.
    MetaReplicaDown(String),
    /// A metadata shard could not reach a majority of its replicas, so
    /// a commit cannot be made durable. The namespace image is left
    /// unchanged; the caller's write is *not* committed.
    MetaQuorumLost {
        /// The shard that lost quorum.
        shard: usize,
        /// Replica acks obtained.
        acks: usize,
        /// Acks required for majority.
        need: usize,
    },
    /// A filesystem-level error from durable storage: a metadata
    /// replica, or a block store's own files (its `speeds` file, its disk
    /// directories) missing, unreadable or malformed.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(n) => write!(f, "file not found: {n}"),
            StoreError::AlreadyExists(n) => write!(f, "file already exists: {n}"),
            StoreError::LockConflict(n) => write!(f, "file lock conflict: {n}"),
            StoreError::WrongMode => write!(f, "handle opened for a different access type"),
            StoreError::StaleHandle => write!(f, "stale file handle"),
            StoreError::AdmissionDenied { disk } => {
                write!(f, "admission denied by storage server of disk {disk}")
            }
            StoreError::InsufficientDisks { got, need } => {
                write!(f, "insufficient disks: got {got}, need {need}")
            }
            StoreError::MissingBlock { disk, block } => {
                write!(f, "disk {disk} has no block {block}")
            }
            StoreError::DiskFault { disk } => {
                write!(f, "disk {disk} failed mid-I/O")
            }
            StoreError::TransientIo { disk } => {
                write!(f, "disk {disk} read failed transiently")
            }
            StoreError::Coding(e) => write!(f, "coding error: {e}"),
            StoreError::AccessDenied(why) => write!(f, "access denied: {why}"),
            StoreError::OutOfRange => write!(f, "offset/length out of range"),
            StoreError::MetaReplicaDown(who) => {
                write!(f, "metadata replica down: {who}")
            }
            StoreError::MetaQuorumLost { shard, acks, need } => {
                write!(
                    f,
                    "metadata shard {shard} lost quorum: {acks} of {need} required acks"
                )
            }
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Coding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodingError> for StoreError {
    fn from(e: CodingError) -> Self {
        StoreError::Coding(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StoreError::NotFound("x".into()).to_string(),
            "file not found: x"
        );
        assert_eq!(
            StoreError::InsufficientDisks { got: 3, need: 8 }.to_string(),
            "insufficient disks: got 3, need 8"
        );
        assert_eq!(
            StoreError::DiskFault { disk: 2 }.to_string(),
            "disk 2 failed mid-I/O"
        );
        assert_eq!(
            StoreError::TransientIo { disk: 4 }.to_string(),
            "disk 4 read failed transiently"
        );
    }

    #[test]
    fn coding_error_converts_and_sources() {
        use std::error::Error;
        let e: StoreError = CodingError::DecodeFailed.into();
        assert!(matches!(e, StoreError::Coding(_)));
        assert!(e.source().is_some());
        assert!(StoreError::WrongMode.source().is_none());
    }
}
