//! `rae-standby`: the warm-standby shadow subsystem.
//!
//! A cold RAE recovery pays O(retained log): load a fresh shadow, then
//! replay every retained completed record. The warm standby moves that
//! replay off the critical path — a background thread keeps a live
//! [`rae_shadowfs::ShadowFs`] continuously caught up as operations
//! complete, so recovery only drains the in-flight tail:
//! O(in-flight). See [`standby`] for the protocol, back-pressure and
//! divergence fallback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod standby;

pub use standby::{
    HandoverState, PendingHandover, Publish, StandbyOpts, StandbyStatus, WarmStandby,
    CHANNEL_CAPACITY,
};
