//! The performance-oriented *base* filesystem.
//!
//! This is the complex, cache-heavy, write-back, journaled filesystem
//! the paper's shadow protects (the ext4 stand-in). It implements the
//! shared on-disk ABI from [`rae_fsformat`] and the canonical API
//! semantics of `rae_fsmodel`, but gets there the performance-oriented
//! way:
//!
//! * a write-back **page cache** over all blocks, draining dirty data
//!   pages through a blk-mq-flavoured asynchronous
//!   [`rae_blockdev::WritebackQueue`];
//! * an **inode cache** and a **dentry cache** so hot paths never touch
//!   the device;
//! * bitmap **allocators** with rotating hints;
//! * a JBD-style **metadata journal** (ordered mode: data is flushed
//!   before the transaction commits), with commit on `fsync`/`sync` and
//!   checkpoint-on-full;
//! * **fault hooks** ([`rae_faults::Site`]) at the realistic bug sites,
//!   so experiments can plant the paper's bug classes inside real code
//!   paths.
//!
//! # RAE integration surface
//!
//! The RAE runtime drives three extra entry points (§3.2 of the paper):
//!
//! * [`BaseFs::contained_reboot`] — discard *all* in-memory state
//!   (caches, descriptors, allocators) and rebuild from the trusted
//!   on-disk state, replaying the journal; applications stay alive;
//! * [`BaseFs::absorb_recovery`] — "metadata downloading": accept the
//!   shadow's reconstructed block images and descriptor table into the
//!   caches, marked dirty, exactly as if the base had produced them;
//! * [`BaseFs::persisted_seq`] / [`BaseFs::note_op_seq`] — the
//!   persistence barrier that tells the RAE operation log which records
//!   are durable and can be discarded.
//!
//! `crash()` + `mount()` provide the *baseline* recovery path (lose
//! everything since the last commit) that experiment E4 compares
//! against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod dentry;
mod fdtable;
mod fs;
#[cfg(test)]
mod fs_tests;
mod icache;
mod jmgr;
#[cfg(test)]
mod journal_order_tests;
mod lru;
mod pagecache;
#[cfg(test)]
mod stress_tests;
#[cfg(test)]
mod support_tests;

pub use fs::{BaseFs, BaseFsConfig, BaseFsStats, OpSequencer};
pub use pagecache::PageClass;
