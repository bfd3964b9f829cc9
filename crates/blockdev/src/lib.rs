//! Block-device substrate for the RAE shadow-filesystem stack.
//!
//! The paper's experiments depend on the *interface* and *fault surface*
//! of storage, not on physical media, so this crate provides:
//!
//! * [`BlockDevice`] — the synchronous, internally-synchronized block
//!   interface both filesystems are built on (4 KiB blocks);
//! * [`MemDisk`] — an in-memory disk with whole-image snapshot/restore
//!   (the workhorse for tests and benchmarks);
//! * [`FileDisk`] — a file-backed disk for persistent images;
//! * [`FaultyDisk`] — a wrapper injecting device-level faults: targeted
//!   or probabilistic read/write/flush errors, silent bit corruption,
//!   per-op latency, write cut-off for crash emulation, and
//!   phase-scoped plans that arm only while recovery runs;
//! * [`RetryDisk`] — a wrapper absorbing transient-class errors with a
//!   deterministic, seeded exponential backoff and a bounded attempt
//!   budget (the recovery ladder's retry rung);
//! * [`StatsDisk`] — a transparent I/O accounting wrapper;
//! * [`TrackedDisk`] — the RAE mount's device meter (every request into
//!   telemetry) and written-block set (one atomic bit per block), which
//!   is all the warm standby's recovery resync needs to know about the
//!   live device; its [`TrackedDisk::snapshot`] is a [`FrozenView`], the
//!   device as of one moment, copied a block at a time before the base
//!   overwrites it (copy-before-write) or when the view first reads it,
//!   so each block crosses the device at most once for it (the warm
//!   standby's shadow reads through one, and so does a cold recovery
//!   rung's whole pass over the image);
//! * [`WritebackQueue`] — a blk-mq-flavoured multi-queue asynchronous
//!   write-back engine the base filesystem's page cache evicts through;
//! * [`TapeDisk`] — an in-memory disk recording every read, write (with
//!   its image) and flush in order, and [`crash`] — the crash-state
//!   explorer over its tape: every image a crash between two flushes can
//!   leave, as a copy-on-write [`crash::CrashImage`] to mount and check.
//!
//! # Example
//!
//! ```
//! use rae_blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
//!
//! # fn main() -> rae_vfs::FsResult<()> {
//! let disk = MemDisk::new(128);
//! let mut block = vec![0u8; BLOCK_SIZE];
//! block[0] = 0xAB;
//! disk.write_block(7, &block)?;
//!
//! let mut back = vec![0u8; BLOCK_SIZE];
//! disk.read_block(7, &mut back)?;
//! assert_eq!(back[0], 0xAB);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
mod device;
mod faulty;
mod file;
mod frozen;
mod mem;
mod queue;
mod retry;
mod stats;
mod tape;
mod tracked;

pub use device::{zeroed_block, BlockDevice, Extent, IoPhase, BLOCK_SIZE};
pub use faulty::{
    AccessRule, CorruptRule, DiskFaultPlan, FaultEvent, FaultTarget, FaultyDisk, TriggerMode,
    WriteCutMode,
};
pub use file::FileDisk;
pub use frozen::FrozenView;
pub use mem::MemDisk;
pub use queue::{QueueConfig, WritebackQueue};
pub use retry::{classify_error, ErrorClass, RetryDisk, RetryPolicy, RetryStats};
pub use stats::{DiskCounters, StatsDisk};
pub use tape::{TapeDisk, TapeEntry};
pub use tracked::TrackedDisk;
