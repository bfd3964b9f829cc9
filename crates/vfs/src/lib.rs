//! Shared API surface for the RAE (Robust Alternative Execution) stack.
//!
//! This crate defines everything the *base* filesystem, the *shadow*
//! filesystem, the executable specification, and the RAE runtime agree on:
//!
//! * [`FsError`] / [`FsResult`] — the POSIX-flavoured error model,
//!   extended with the runtime-error categories the paper cares about
//!   (detected bugs, corruption, failed invariant checks);
//! * [`FileSystem`] — the object-safe operation vocabulary (a
//!   syscall-like API: `open`/`read`/`write`/`mkdir`/`rename`/…);
//! * [`FsOp`], [`OpOutcome`], [`OpRecord`] — the *recorded operation
//!   sequence*: the execution trace RAE maintains between the
//!   application-visible state and the on-disk state, which the shadow
//!   re-executes during recovery;
//! * small strong types ([`InodeNo`], [`Fd`], [`OpenFlags`], …).
//!
//! # Example
//!
//! ```
//! use rae_vfs::{FsOp, OpenFlags, OpRecord, OpOutcome};
//!
//! let op = FsOp::Create {
//!     path: "/a/b".to_string(),
//!     flags: OpenFlags::RDWR | OpenFlags::CREATE,
//! };
//! assert!(op.mutates_state());
//! let rec = OpRecord::new(7, op);
//! assert_eq!(rec.seq, 7);
//! assert!(matches!(rec.outcome, OpOutcome::Pending));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fs;
mod ops;
pub mod slot;
mod stats;
mod types;

pub use error::{FsError, FsResult};
pub use fs::{split_parent, split_path, FileSystem, FsStatus};
pub use ops::{Bytes, FsOp, OpKind, OpOutcome, OpRecord};
pub use stats::OpCounters;
pub use types::{
    DirEntry, Fd, FileStat, FileType, FsGeometryInfo, InodeNo, OpenFlags, SetAttr, FIRST_FD,
    MAX_FILE_SIZE, MAX_LINKS, MAX_NAME_LEN, MAX_OPEN_FILES, ROOT_INO,
};
