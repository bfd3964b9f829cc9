//! Regenerate every table and figure.
//!
//! ```text
//! cargo run --release -p rae-bench --bin reproduce -- [--fast] [--smoke] [targets...]
//! targets: all (default) | table1 | fig1 | e1 | e2 | e3 | e4 | e5 | e6 | e7 | e8 | e9 | trust
//!
//! Each target reproduces one of the paper's tables or claims once, on
//! the code being built. Performance comparisons — warm against cold
//! recovery, latency tails, read and write scaling, server traffic,
//! per-layer attribution — are `raebench` run on two commits.
//! `--smoke` shrinks the e8 nested-fault campaign to its CI subset and
//! the e9 tail-latency run to its CI size.
//! ```

use rae_bench::experiments::{self, Scale};

fn main() {
    rae_faults::quiet_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if fast { Scale::fast() } else { Scale::full() };
    let mut targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if targets.is_empty() {
        targets.push("all");
    }

    for target in targets {
        let output = match target {
            "all" => experiments::run_all(scale),
            "table1" | "t1" => experiments::table1(),
            "fig1" | "f1" => experiments::figure1(),
            "e1" => experiments::e1_base_vs_shadow(scale),
            "e2" => experiments::e2_rae_overhead(scale),
            "e3" => experiments::e3_recovery_latency(scale),
            "e4" => experiments::e4_availability(scale),
            "e5" => experiments::e5_check_cost(scale),
            "e6" => experiments::e6_differential(scale),
            "e7" => experiments::e7_crafted_images(),
            "e8" => experiments::e8_recovery_resilience(smoke),
            "e9" => experiments::e9_tail_latency(scale, smoke),
            "trust" => experiments::trust_accounting(),
            other => {
                eprintln!("unknown target '{other}' (use all|table1|fig1|e1..e9|trust)");
                std::process::exit(2);
            }
        };
        println!("{output}");
    }
}
