//! Workload generation, script execution, and differential testing.
//!
//! Two consumers drive this crate:
//!
//! * the **benchmark harness** (experiments E1–E3) needs seeded,
//!   reproducible operation streams with realistic mixes
//!   ([`Profile`]: varmail-style metadata churn, fileserver,
//!   webserver, sequential/random I/O);
//! * the **differential tester** (§4.3 of the paper: "The testing phase
//!   uses the base as a reference filesystem to test the shadow by
//!   running a large volume of workloads and monitoring for
//!   discrepancies") needs the *same* script applied to two
//!   [`rae_vfs::FileSystem`] implementations with normalized, comparable
//!   results ([`run_script`], [`compare_outcomes`]).
//!
//! Scripts are deterministic functions of `(profile, seed, length)`;
//! they are regenerated rather than persisted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod differential;
mod loadgen;
mod script;

pub use concurrent::{
    populate_read_set, read_set_path, run_reader_mix, MixReport, ReadMix, ReadMixConfig,
};
pub use differential::{compare_outcomes, diff_trees, dump_tree, Divergence, TreeNode};
pub use loadgen::{
    percentile, populate_volumes, run_load, start_load, unavailability_window, volume_file_path,
    LoadGenConfig, LoadReport, LoadRun, VolumeLoad, Zipf,
};
pub use script::{generate_script, run_script, Profile, ScriptOp, ScriptOutcome, StepResult};
