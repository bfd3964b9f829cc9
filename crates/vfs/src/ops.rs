//! Recorded operations: the execution trace RAE keeps between the
//! application-visible state and the on-disk state.
//!
//! The base filesystem executes operations; RAE records each mutating
//! operation together with its outcome ([`OpRecord`]). When the base hits
//! a runtime error, the retained records are exactly the operations whose
//! effects are visible to applications but not yet durable — the shadow
//! re-executes them to reconstruct that state.

use crate::error::FsError;
use crate::types::{Fd, InodeNo, OpenFlags, SetAttr};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of an operation, used for statistics, fault-trigger matching,
/// and workload accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variant names mirror the syscall vocabulary
pub enum OpKind {
    Create,
    Open,
    Close,
    Read,
    Write,
    Truncate,
    SetAttr,
    Fsync,
    Sync,
    Mkdir,
    Rmdir,
    Unlink,
    Rename,
    Link,
    Symlink,
    Readlink,
    Stat,
    Fstat,
    Readdir,
    Statfs,
    Mount,
    RestoreFd,
}

impl OpKind {
    /// All kinds, in a stable order (used by stats tables).
    pub const ALL: [OpKind; 22] = [
        OpKind::Create,
        OpKind::Open,
        OpKind::Close,
        OpKind::Read,
        OpKind::Write,
        OpKind::Truncate,
        OpKind::SetAttr,
        OpKind::Fsync,
        OpKind::Sync,
        OpKind::Mkdir,
        OpKind::Rmdir,
        OpKind::Unlink,
        OpKind::Rename,
        OpKind::Link,
        OpKind::Symlink,
        OpKind::Readlink,
        OpKind::Stat,
        OpKind::Fstat,
        OpKind::Readdir,
        OpKind::Statfs,
        OpKind::Mount,
        OpKind::RestoreFd,
    ];

    /// Stable wire code (index into [`OpKind::ALL`]) — the opcode
    /// vocabulary of the `rae-server` network protocol.
    #[must_use]
    pub fn code(self) -> u8 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(0) as u8
    }

    /// Decode a wire code (`None` for unknown opcodes, so servers can
    /// reject malformed frames instead of panicking).
    #[must_use]
    pub fn from_code(code: u8) -> Option<OpKind> {
        Self::ALL.get(code as usize).copied()
    }

    /// Stable lowercase name (used in reports and trigger specs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Truncate => "truncate",
            OpKind::SetAttr => "setattr",
            OpKind::Fsync => "fsync",
            OpKind::Sync => "sync",
            OpKind::Mkdir => "mkdir",
            OpKind::Rmdir => "rmdir",
            OpKind::Unlink => "unlink",
            OpKind::Rename => "rename",
            OpKind::Link => "link",
            OpKind::Symlink => "symlink",
            OpKind::Readlink => "readlink",
            OpKind::Stat => "stat",
            OpKind::Fstat => "fstat",
            OpKind::Readdir => "readdir",
            OpKind::Statfs => "statfs",
            OpKind::Mount => "mount",
            OpKind::RestoreFd => "restorefd",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An immutable, cheaply-cloneable byte buffer for write payloads.
///
/// A write payload lives long past the `write` call that produced it:
/// the operation log retains it until the persistence barrier, the warm
/// standby receives its own copy of the record on the publish path, and
/// cold replay clones the retained records once more. Backing the
/// payload with an `Arc<[u8]>` makes every one of those copies a
/// refcount bump on one shared allocation instead of a multi-kilobyte
/// `memcpy`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bytes(std::sync::Arc<[u8]>);

impl Bytes {
    /// Length of the payload in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload as a plain byte slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(v.into())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes(std::sync::Arc::from(v))
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Bytes {
        Bytes(std::sync::Arc::from(&v[..]))
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.0[..] == other.0[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.0[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.0[..] == other[..]
    }
}

/// A recordable filesystem operation with owned arguments.
///
/// Only *state-mutating* operations appear in the RAE operation log
/// (`Read`/`Stat`/… never change essential state and are not recorded),
/// but the enum covers the mutating vocabulary completely, including
/// `Fsync`/`Sync`, which the shadow skips and the base re-executes after
/// hand-off.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsOp {
    /// `open` with `CREATE` semantics (the path may be created).
    Create {
        /// Absolute path of the file.
        path: String,
        /// Flags; must include [`OpenFlags::CREATE`].
        flags: OpenFlags,
    },
    /// `open` of an existing file.
    Open {
        /// Absolute path of the file.
        path: String,
        /// Flags; must not include [`OpenFlags::CREATE`].
        flags: OpenFlags,
    },
    /// Close a descriptor.
    Close {
        /// The descriptor to close.
        fd: Fd,
    },
    /// Write `data` at `offset` through a descriptor.
    Write {
        /// Target descriptor.
        fd: Fd,
        /// Byte offset (ignored when the descriptor is in append mode).
        offset: u64,
        /// Payload; retained so the shadow can re-execute the write.
        /// Shared ([`Bytes`]) because the log, the standby publish
        /// path, and replay all hold copies of the same record.
        data: Bytes,
    },
    /// Truncate (or extend with zeroes) the file behind a descriptor.
    Truncate {
        /// Target descriptor.
        fd: Fd,
        /// New size in bytes.
        size: u64,
    },
    /// Set attributes on a path.
    SetAttr {
        /// Target path.
        path: String,
        /// Attributes to change.
        attr: SetAttr,
    },
    /// Flush a file's buffered state to disk.
    Fsync {
        /// Target descriptor.
        fd: Fd,
    },
    /// Flush all buffered state to disk.
    Sync,
    /// Create a directory.
    Mkdir {
        /// Absolute path of the new directory.
        path: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Absolute path of the directory.
        path: String,
    },
    /// Remove a file's directory entry (and the file at nlink 0).
    Unlink {
        /// Absolute path of the file.
        path: String,
    },
    /// Rename a file or directory, replacing a compatible target.
    Rename {
        /// Existing path.
        from: String,
        /// New path.
        to: String,
    },
    /// Create a hard link to an existing file.
    Link {
        /// Path of the existing file (must not be a directory).
        existing: String,
        /// Path of the new link.
        new: String,
    },
    /// Create a symbolic link containing `target`.
    Symlink {
        /// Link contents (not resolved by this stack).
        target: String,
        /// Path of the new symlink.
        linkpath: String,
    },
    /// Synthetic record: re-establish a descriptor whose `open` became
    /// durable before the persistence barrier while the descriptor is
    /// still live. Produced by the RAE operation log when trimming
    /// (never issued by applications); the shadow restores the
    /// descriptor from the recorded inode — by-path replay would be
    /// wrong if the path was later renamed.
    RestoreFd {
        /// The descriptor to restore.
        fd: Fd,
        /// Inode it refers to (from the recorded open outcome).
        ino: InodeNo,
        /// Original open flags (creation/truncation flags stripped —
        /// their effects are already durable).
        flags: OpenFlags,
        /// Path at open time (diagnostics and refinement checking;
        /// may be stale).
        path: String,
    },
}

impl FsOp {
    /// The kind of this operation.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            FsOp::Create { .. } => OpKind::Create,
            FsOp::Open { .. } => OpKind::Open,
            FsOp::Close { .. } => OpKind::Close,
            FsOp::Write { .. } => OpKind::Write,
            FsOp::Truncate { .. } => OpKind::Truncate,
            FsOp::SetAttr { .. } => OpKind::SetAttr,
            FsOp::Fsync { .. } => OpKind::Fsync,
            FsOp::Sync => OpKind::Sync,
            FsOp::Mkdir { .. } => OpKind::Mkdir,
            FsOp::Rmdir { .. } => OpKind::Rmdir,
            FsOp::Unlink { .. } => OpKind::Unlink,
            FsOp::Rename { .. } => OpKind::Rename,
            FsOp::Link { .. } => OpKind::Link,
            FsOp::Symlink { .. } => OpKind::Symlink,
            FsOp::RestoreFd { .. } => OpKind::RestoreFd,
        }
    }

    /// Whether the operation can change essential state (metadata, file
    /// contents, or the descriptor table). All `FsOp` variants do; the
    /// method exists so trace tooling can assert it uniformly.
    #[must_use]
    pub fn mutates_state(&self) -> bool {
        true
    }

    /// Whether the operation persists state (the `sync` family), which
    /// the shadow never executes (it does not write to the device).
    #[must_use]
    pub fn is_sync_family(&self) -> bool {
        matches!(self, FsOp::Fsync { .. } | FsOp::Sync)
    }
}

impl fmt::Display for FsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsOp::Create { path, flags } => write!(f, "create({path}, {flags})"),
            FsOp::Open { path, flags } => write!(f, "open({path}, {flags})"),
            FsOp::Close { fd } => write!(f, "close({fd})"),
            FsOp::Write { fd, offset, data } => {
                write!(f, "write({fd}, off={offset}, len={})", data.len())
            }
            FsOp::Truncate { fd, size } => write!(f, "truncate({fd}, {size})"),
            FsOp::SetAttr { path, attr } => write!(f, "setattr({path}, {attr:?})"),
            FsOp::Fsync { fd } => write!(f, "fsync({fd})"),
            FsOp::Sync => write!(f, "sync()"),
            FsOp::Mkdir { path } => write!(f, "mkdir({path})"),
            FsOp::Rmdir { path } => write!(f, "rmdir({path})"),
            FsOp::Unlink { path } => write!(f, "unlink({path})"),
            FsOp::Rename { from, to } => write!(f, "rename({from} -> {to})"),
            FsOp::Link { existing, new } => write!(f, "link({existing} -> {new})"),
            FsOp::Symlink { target, linkpath } => write!(f, "symlink({linkpath} => {target})"),
            FsOp::RestoreFd { fd, ino, .. } => write!(f, "restorefd({fd} -> {ino})"),
        }
    }
}

/// The recorded outcome of an operation.
///
/// Outcomes capture the *policy decisions* the base made that are visible
/// to the application — in particular allocated descriptor and inode
/// numbers. In constrained mode the shadow validates these decisions
/// instead of making its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// The operation is in flight: issued to the base, result not yet
    /// seen by the application. At most one record is pending at a time
    /// per logical client thread.
    Pending,
    /// Completed without a value.
    Unit,
    /// Completed `open`/`create`.
    Opened {
        /// The allocated descriptor.
        fd: Fd,
        /// Inode the descriptor refers to.
        ino: InodeNo,
        /// Whether a new file was created (vs opening an existing one).
        created: bool,
    },
    /// Completed `write`.
    Written {
        /// Bytes accepted.
        n: usize,
    },
    /// Completed with a *specified* error (e.g. `ENOENT`), which was
    /// returned to the application. The shadow skips these records.
    Failed(FsError),
}

impl OpOutcome {
    /// Whether the record is still pending (in-flight).
    #[must_use]
    pub fn is_pending(&self) -> bool {
        matches!(self, OpOutcome::Pending)
    }

    /// Whether the operation completed successfully (not pending, not a
    /// specified error).
    #[must_use]
    pub fn is_success(&self) -> bool {
        !matches!(self, OpOutcome::Pending | OpOutcome::Failed(_))
    }
}

/// One entry of the RAE operation log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Monotonic sequence number assigned at record time.
    pub seq: u64,
    /// The operation as issued by the application.
    pub op: FsOp,
    /// The outcome observed from the base filesystem.
    pub outcome: OpOutcome,
}

impl OpRecord {
    /// Create a new, pending record.
    #[must_use]
    pub fn new(seq: u64, op: FsOp) -> OpRecord {
        OpRecord {
            seq,
            op,
            outcome: OpOutcome::Pending,
        }
    }

    /// Mark the record completed with `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if the record already has a non-pending outcome; a record
    /// completes exactly once.
    pub fn complete(&mut self, outcome: OpOutcome) {
        assert!(
            self.outcome.is_pending(),
            "operation record {} completed twice",
            self.seq
        );
        assert!(!outcome.is_pending(), "cannot complete with Pending");
        self.outcome = outcome;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::OpenFlags;

    fn sample_ops() -> Vec<FsOp> {
        vec![
            FsOp::Create {
                path: "/f".into(),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
            },
            FsOp::Open {
                path: "/f".into(),
                flags: OpenFlags::RDONLY,
            },
            FsOp::Close { fd: Fd(3) },
            FsOp::Write {
                fd: Fd(3),
                offset: 0,
                data: vec![1, 2, 3].into(),
            },
            FsOp::Truncate {
                fd: Fd(3),
                size: 10,
            },
            FsOp::SetAttr {
                path: "/f".into(),
                attr: SetAttr {
                    size: Some(4),
                    mtime: None,
                },
            },
            FsOp::Fsync { fd: Fd(3) },
            FsOp::Sync,
            FsOp::Mkdir { path: "/d".into() },
            FsOp::Rmdir { path: "/d".into() },
            FsOp::Unlink { path: "/f".into() },
            FsOp::Rename {
                from: "/a".into(),
                to: "/b".into(),
            },
            FsOp::Link {
                existing: "/f".into(),
                new: "/g".into(),
            },
            FsOp::Symlink {
                target: "/f".into(),
                linkpath: "/s".into(),
            },
        ]
    }

    #[test]
    fn kinds_are_distinct_and_named() {
        let ops = sample_ops();
        let kinds: std::collections::HashSet<_> = ops.iter().map(|o| o.kind()).collect();
        assert_eq!(kinds.len(), ops.len());
        for k in OpKind::ALL {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn wire_codes_round_trip() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(OpKind::from_code(OpKind::ALL.len() as u8), None);
        assert_eq!(OpKind::from_code(255), None);
    }

    #[test]
    fn sync_family_detection() {
        assert!(FsOp::Sync.is_sync_family());
        assert!(FsOp::Fsync { fd: Fd(1) }.is_sync_family());
        assert!(!FsOp::Mkdir { path: "/d".into() }.is_sync_family());
    }

    #[test]
    fn record_completes_once() {
        let mut rec = OpRecord::new(1, FsOp::Sync);
        assert!(rec.outcome.is_pending());
        rec.complete(OpOutcome::Unit);
        assert!(rec.outcome.is_success());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut rec = OpRecord::new(1, FsOp::Sync);
        rec.complete(OpOutcome::Unit);
        rec.complete(OpOutcome::Unit);
    }

    #[test]
    fn failed_outcome_is_not_success() {
        let out = OpOutcome::Failed(FsError::NotFound);
        assert!(!out.is_success());
        assert!(!out.is_pending());
    }

    #[test]
    fn records_serialize_roundtrip() {
        // Traces are persisted as reports; the codec must round-trip.
        for op in sample_ops() {
            let mut rec = OpRecord::new(42, op);
            rec.complete(OpOutcome::Opened {
                fd: Fd(5),
                ino: InodeNo(17),
                created: true,
            });
            let json = serde_json_like(&rec);
            assert!(json.contains("42"));
        }
    }

    // serde_json is not in the dependency set; exercise Serialize via the
    // Debug-stable bincode-free path: serde's derive is compile-checked by
    // this helper taking a Serialize bound.
    fn serde_json_like<T: serde::Serialize + std::fmt::Debug>(v: &T) -> String {
        format!("{v:?}")
    }
}
