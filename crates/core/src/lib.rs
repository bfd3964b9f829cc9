//! Robust Alternative Execution (RAE) — masking filesystem runtime
//! errors through a shadow filesystem.
//!
//! This crate is the paper's primary contribution: it pairs the
//! performance-oriented [`rae_basefs::BaseFs`] with the
//! simple-but-checked [`rae_shadowfs::ShadowFs`], recording the
//! operation sequence between the application's view and the on-disk
//! state, and — when the base hits a runtime error (a detected bug, a
//! caught panic, or a WARN under a strict policy) —
//!
//! 1. performs a **contained reboot** of the base (discard all
//!    in-memory state; recover the trusted on-disk state via journal
//!    replay),
//! 2. launches the **shadow**, which re-executes the recorded sequence
//!    in *constrained* mode (cross-checking recorded outcomes) and the
//!    in-flight operation in *autonomous* mode,
//! 3. **hands the reconstructed metadata and descriptor table back**
//!    to the base ("metadata downloading"), and resumes.
//!
//! Applications observe nothing but latency: descriptor numbers, inode
//! numbers, and all completed effects survive.
//!
//! # Quickstart
//!
//! ```
//! use rae::{RaeConfig, RaeFs};
//! use rae_blockdev::{BlockDevice, MemDisk};
//! use rae_fsformat::{mkfs, MkfsParams};
//! use rae_vfs::{FileSystem, OpenFlags};
//! use std::sync::Arc;
//!
//! # fn main() -> rae_vfs::FsResult<()> {
//! let dev = Arc::new(MemDisk::new(4096));
//! mkfs(dev.as_ref(), MkfsParams::default())?;
//! let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, RaeConfig::default())?;
//!
//! fs.mkdir("/data")?;
//! let fd = fs.open("/data/file", OpenFlags::RDWR | OpenFlags::CREATE)?;
//! fs.write(fd, 0, b"resilient")?;
//! assert_eq!(fs.read(fd, 0, 9)?, b"resilient");
//! fs.close(fd)?;
//! fs.unmount()?;
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the full architecture and the per-experiment
//! index, and `EXPERIMENTS.md` for the reproduction results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod oplog;
mod raefs;
#[cfg(test)]
mod raefs_tests;
mod report;

pub use oplog::OpLog;
pub use rae_blockdev::{RetryPolicy, RetryStats};
pub use rae_standby::{StandbyOpts, StandbyStatus};
pub use raefs::{RaeConfig, RaeFs, RecoveryMode, MAX_CONSECUTIVE_RECOVERIES};
pub use report::{LadderRung, RaeStats, RecoveryReport, RecoveryTrigger, RungFailure};
