//! The *shadow* filesystem: the simplest possible yet equivalent
//! implementation of the base filesystem (§3 of the paper).
//!
//! Design rules, straight from the paper:
//!
//! * **Simple**: strictly single-threaded; no dentry cache (every
//!   lookup walks from the root inode and scans directory entries); no
//!   inode or block caches; synchronous device reads. The shadow keeps
//!   nothing between an operation and the bytes it validates: every
//!   block it wants, it asks its device for, and decodes and checks
//!   again. What the *device* is, is the caller's business — a cold
//!   recovery rung hands it a [`rae_blockdev::FrozenView`], a fill-once
//!   snapshot under which each block crosses the real device once per
//!   rung. That is below the shadow and invisible to it: no
//!   invalidation, no coherence logic, no second code path here.
//! * **Never writes to the device**: every mutation lands in an
//!   in-memory *overlay* of block images. Completed sync operations are
//!   already on disk (they are the shadow's input); incomplete sync
//!   operations are delegated back to the base. The overlay becomes the
//!   [`rae_fsformat::RecoveryDelta`] the base absorbs. (Under a
//!   `FrozenView` the rule is enforced, not assumed: a write through the
//!   view is an error.)
//! * **Extensive runtime checks**: every structure is validated on
//!   load, every allocation is cross-checked against the bitmaps, and
//!   an optional full image validation (the verified-FSCK analog) runs
//!   before the shadow trusts an image — and hands the superblock and
//!   bitmaps it validated to the load, which does not read them again.
//!   Checks are countable ([`ShadowFs::checks_performed`]) and
//!   switchable ([`ShadowOpts::paranoid_checks`]) for the E5 ablation.
//! * **Executable-spec refinement**: with
//!   [`ShadowOpts::refinement_check`] enabled, the shadow mirrors its
//!   starting state into the abstract model ([`rae_fsmodel::ModelFs`])
//!   and cross-checks every operation against it — the practical
//!   stand-in for the Verus proof (see DESIGN.md substitutions).
//!
//! Two execution modes drive recovery (§3.2):
//!
//! * **constrained** ([`ShadowFs::replay_constrained`]) re-executes
//!   *completed* operations, cross-checking each recorded outcome and
//!   validating the base's inode-number choices instead of allocating
//!   its own;
//! * **autonomous** ([`ShadowFs::execute_autonomous`]) executes
//!   *in-flight* operations, making its own policy decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod ops;
mod replay;
mod shadow;
#[cfg(test)]
mod tests;

pub use adapter::ShadowAsPrimary;
pub use replay::{Discrepancy, ReadReply, ReadRequest, ReplayReport, ResyncReport};
pub use shadow::{ShadowFs, ShadowOpts};
