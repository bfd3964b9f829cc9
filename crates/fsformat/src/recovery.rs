//! The recovery hand-off payload ("metadata downloading", §3.2).
//!
//! After the shadow re-executes the recorded operation sequence, it
//! emits a [`RecoveryDelta`]: every reconstructed block image plus the
//! rebuilt descriptor table. The rebooted base absorbs the delta into
//! its caches, marked dirty, and resumes — without re-executing the
//! error-triggering sequence itself.

use rae_vfs::{Fd, InodeNo, OpenFlags};
use std::sync::Arc;

/// One reconstructed open descriptor.
///
/// Descriptor numbers are preserved exactly (they are visible to the
/// application); the opening path is carried along because the base
/// tracks it for diagnostics and fault-trigger contexts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredFd {
    /// The descriptor number the application already holds.
    pub fd: Fd,
    /// Inode the descriptor refers to.
    pub ino: InodeNo,
    /// Original open flags (access mode and append mode survive).
    pub flags: OpenFlags,
    /// Path the descriptor was opened with.
    pub path: String,
}

/// The full output of a shadow recovery, absorbed by the base. Block
/// images are shared with the shadow that produced them (a warm
/// standby keeps its overlay), so building a delta copies no block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryDelta {
    /// Reconstructed metadata block images (inode table, bitmaps,
    /// directory blocks, indirect blocks, superblock). Absorbed as
    /// dirty *metadata* pages: they reach the disk only via the
    /// journal.
    pub meta_blocks: Vec<(u64, Arc<[u8]>)>,
    /// Reconstructed file-content blocks. Absorbed as dirty *data*
    /// pages (write-back path).
    pub data_blocks: Vec<(u64, Arc<[u8]>)>,
    /// The rebuilt descriptor table.
    pub fd_entries: Vec<RecoveredFd>,
}

impl RecoveryDelta {
    /// Total number of block images in the delta.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.meta_blocks.len() + self.data_blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_count_sums_classes() {
        let delta = RecoveryDelta {
            meta_blocks: vec![(1, vec![0u8; 4096].into()), (2, vec![0u8; 4096].into())],
            data_blocks: vec![(9, vec![1u8; 4096].into())],
            fd_entries: vec![RecoveredFd {
                fd: Fd(3),
                ino: InodeNo(5),
                flags: OpenFlags::RDWR,
                path: "/f".into(),
            }],
        };
        assert_eq!(delta.block_count(), 3);
    }

    #[test]
    fn default_is_empty() {
        let delta = RecoveryDelta::default();
        assert_eq!(delta.block_count(), 0);
        assert!(delta.fd_entries.is_empty());
    }
}
