//! Regenerate every table and figure.
//!
//! ```text
//! cargo run --release -p rae-bench --bin reproduce -- [--fast] [--smoke] [targets...]
//! targets: all (default) | table1 | fig1 | e1 | e2 | e3 | e3b | e4 | e4b | e4c | e5 | e6 | e7 | e8 | e9 | trust
//!
//! `e4` runs availability plus the read-scaling sweep (e4c); both
//! sub-targets can also be requested on their own. `e4c` runs one
//! thread ladder per mix on the code being built; a before/after
//! comparison is `raebench` run on two commits, which is also where
//! server traffic, write scaling and per-layer attribution are
//! measured. `--smoke` shrinks the e8 nested-fault campaign to its CI
//! subset and the e9 tail-latency run to its CI size.
//! ```

use rae_bench::experiments::{self, Scale};

fn main() {
    rae_bench::harness::quiet_injected_panics();
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
            "e3b" => experiments::e3b_warm_recovery(scale),
            "e4" => {
                let mut out = experiments::e4_availability(scale);
                out.push('\n');
                out.push_str(&experiments::e4c_read_scaling(scale));
                out
            }
            "e4b" => experiments::e4b_latency_tail(scale),
            "e4c" => experiments::e4c_read_scaling(scale),
            "e5" => experiments::e5_check_cost(scale),
            "e6" => experiments::e6_differential(scale),
            "e7" => experiments::e7_crafted_images(),
            "e8" => experiments::e8_recovery_resilience(smoke),
            "e9" => experiments::e9_tail_latency(scale, smoke),
            "trust" => experiments::trust_accounting(),
            other => {
                eprintln!(
                    "unknown target '{other}' (use all|table1|fig1|e1..e9|e3b|e4b|e4c|trust)"
                );
                std::process::exit(2);
            }
        };
        println!("{output}");
    }
}
