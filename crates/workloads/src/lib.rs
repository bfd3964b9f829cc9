//! Workload generation, script execution, and differential testing.
//!
//! Three consumers drive this crate:
//!
//! * the **reproduction harness** (`reproduce` E2, E4, E6) and the
//!   recovery test suites need seeded, reproducible operation streams
//!   with realistic mixes ([`Profile`]: varmail-style metadata churn,
//!   fileserver, webserver, sequential/random I/O);
//! * the **differential tester** (§4.3 of the paper: "The testing phase
//!   uses the base as a reference filesystem to test the shadow by
//!   running a large volume of workloads and monitoring for
//!   discrepancies") needs the *same* script applied to two
//!   [`rae_vfs::FileSystem`] implementations with normalized, comparable
//!   results ([`run_script`], [`compare_outcomes`]);
//! * the **server load generator** ([`start_load`], behind `raefs
//!   loadgen`) drives remote tenants over sockets and measures the
//!   client-observed unavailability window across a fault; `raebench`
//!   reuses its volume population and [`Zipf`] sampler.
//!
//! Scripts are deterministic functions of `(profile, seed, length)`;
//! they are regenerated rather than persisted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod differential;
mod loadgen;
mod script;

pub use differential::{compare_outcomes, diff_trees, dump_tree, Divergence, TreeNode};
pub use loadgen::{
    percentile, populate_volumes, run_load, start_load, unavailability_window, volume_file_path,
    LoadGenConfig, LoadReport, LoadRun, VolumeLoad, Zipf,
};
pub use script::{generate_script, run_script, Profile, ScriptOp, ScriptOutcome, StepResult};
