//! Fault injection for the base filesystem.
//!
//! The paper's bug study (Table 1) classifies filesystem bugs along two
//! axes: **determinism** (deterministic / non-deterministic) and
//! **consequence** (crash / WARN / no-crash / unknown). This crate
//! expresses injectable bugs in exactly those terms:
//!
//! * a [`Trigger`] decides *when* a bug fires — deterministic triggers
//!   match operation patterns (path, offset, N-th invocation);
//!   non-deterministic triggers fire with seeded probability;
//! * an [`Effect`] decides *what happens* — a detected error return
//!   (`DetectedBug`), a panic (the crash class; the RAE runtime catches
//!   it), a WARN event (logged, execution continues), or a silent wrong
//!   result (the no-crash class: data corruption detectable only by
//!   cross-checking, as in experiment E6).
//!
//! The base filesystem calls [`FaultRegistry::check`] at realistic code
//! sites ([`Site`]); an armed bug whose trigger matches produces a
//! [`FaultAction`] the base then *executes* — the injection framework
//! never bypasses the base's own code paths.
//!
//! # Example
//!
//! ```
//! use rae_faults::{BugSpec, Effect, FaultRegistry, OpContext, Site, Trigger};
//! use rae_vfs::OpKind;
//!
//! let reg = FaultRegistry::new();
//! reg.arm(BugSpec::new(7, "rename-crash", Site::Rename, Trigger::PathContains("victim".into()), Effect::Panic));
//!
//! let ctx = OpContext::new(OpKind::Rename, Site::Rename).with_path("/dir/victim");
//! assert!(reg.check(&ctx).is_some());
//! assert_eq!(reg.fired(7), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod registry;
mod spec;

pub use corpus::standard_bug_corpus;
pub use registry::{FaultAction, FaultRegistry};
pub use spec::{BugSpec, Effect, OpContext, Site, Trigger};
