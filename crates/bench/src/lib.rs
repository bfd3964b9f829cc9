//! Benchmark and reproduction harness.
//!
//! One module per experiment (see DESIGN.md §5 for the index):
//!
//! | id | what | paper artifact |
//! |----|------|----------------|
//! | T1/F1 | bug study | Table 1, Figure 1 |
//! | E1 | base vs shadow common-case throughput | "slow-but-correct" claim |
//! | E2 | RAE recording/detection tax | "high performance in the common case" |
//! | E3 | recovery latency vs log length | §4.3 recovery-time question |
//! | E4 | availability under injected bugs, RAE vs baselines | §1/§2 availability claim |
//! | E5 | cost of the shadow's check battery | "extensive runtime checks" |
//! | E6 | differential testing finds silent bugs | §4.3 post-error testing tool |
//! | E7 | crafted-image robustness | §2.1 bypass-FSCK attack class |
//! | E8 | faults while recovery runs (nested-fault campaign) | §4.3 robustness of recovery |
//! | E9 | observed latency across a masked fault, telemetry tax | "high performance in the common case" |
//! | trust | trusted vs base lines of code | §4.3 "quantify the code we trust" |
//!
//! `cargo run -p rae-bench --bin reproduce [--fast] [all|table1|fig1|e1..e9|trust]`
//! regenerates everything and prints the tables EXPERIMENTS.md records.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;

pub use harness::{fresh_device, mount_base, mount_rae, populate_small_tree};
