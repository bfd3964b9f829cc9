//! `raebench`: the repository's benchmark. One command runs every
//! workload, verifies its outputs, and prints every metric by name.
//!
//! ```text
//! raebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the
//!     result object the benchmark driver reads
//! raebench [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//!          [--repeat <N>] [--out <file>]
//!     every workload, each in a fresh child process of this binary;
//!     prints one row per workload, and with --repeat the spread of
//!     every end-to-end metric against its bound
//! ```
//!
//! See `README.md` in the package directory for what is measured and why.

mod calibrate;
mod layers;
mod load;
mod metrics;
mod oracle;
mod rig;
mod run;
mod spans;
mod stats;
mod stream;
#[cfg(test)]
mod tests;

use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Seed and timed-phase length used when the flags are absent (the
/// length is `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SEED: u64 = 20_240_708;
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("raebench: {e}");
            return ExitCode::from(2);
        }
    };
    // injected bugs that fire as panics are caught and masked by RAE;
    // keep their backtraces off stderr
    rae_server::quiet_injected_panics();
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => all_workloads(&args),
    }
}

fn cfg_of(args: &Args) -> run::Cfg {
    let scale = if args.smoke { 0.01 } else { 1.0 };
    run::Cfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS * scale),
        trace: args.trace,
        scale,
    }
}

fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = stream::spec(name) else {
        let names: Vec<&str> = stream::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "raebench: no workload {name}; there are {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = run::run(spec, &cfg_of(args));
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# WRONG: {problem}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `metric -> value` of one child run, parsed back from its result line.
type Row = BTreeMap<String, f64>;

/// Pull `"name": {"value": v, ...}` pairs out of a result line. The
/// line is this program's own output, so the shape is known.
fn parse_result(line: &str) -> Option<(bool, Row)> {
    let correct = line.contains("\"correct\": true");
    let metrics = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut row = Row::new();
    for part in metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = part[0].rsplit('"').next()?;
        let value = part[1].split([',', '}']).next()?.trim();
        row.insert(name.to_string(), value.parse().ok()?);
    }
    Some((correct, row))
}

fn run_child(name: &str, args: &Args) -> Result<Row, String> {
    let cfg = cfg_of(args);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let (correct, row) = stdout
        .lines()
        .last()
        .and_then(parse_result)
        .ok_or_else(|| format!("{name}: child printed no result"))?;
    if !correct || !output.status.success() {
        return Err(format!(
            "{name}: outputs were wrong (see the WRONG lines above)"
        ));
    }
    Ok(row)
}

fn all_workloads(args: &Args) -> ExitCode {
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    // sets[workload][metric] = one value per repeat
    let mut sets: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    for round in 0..args.repeat {
        for spec in &stream::SPECS {
            println!("# --- set {} of {}: {}", round + 1, args.repeat, spec.name);
            let row = match run_child(spec.name, args) {
                Ok(row) => row,
                Err(e) => {
                    eprintln!("raebench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (metric, _) in &names {
                let Some(&v) = row.get(*metric) else {
                    eprintln!("raebench: {} did not report {metric}", spec.name);
                    return ExitCode::FAILURE;
                };
                sets.entry(spec.name)
                    .or_default()
                    .entry(metric)
                    .or_default()
                    .push(v);
            }
        }
    }

    let mut table = String::new();
    for (metric, unit) in &names {
        table += &format!("{:<40}", format!("{metric} [{unit}]"));
        for spec in &stream::SPECS {
            table += &format!(" {:>14.4}", stats::median(&sets[spec.name][metric]));
        }
        table.push('\n');
    }
    let header: String = stream::SPECS
        .iter()
        .map(|s| format!(" {:>14}", s.name))
        .collect();
    println!("{:<40}{header}\n{table}", "metric (median)");

    let mut within_bounds = true;
    if args.repeat >= 2 && !args.trace {
        // the driver's rule from four sets up (distance between the
        // quartiles); with fewer there are no quartiles to take
        let quartile_rule = args.repeat >= 4;
        println!(
            "spread over {} sets, {} / median",
            args.repeat,
            if quartile_rule { "IQR" } else { "(max - min)" }
        );
        for (metric, _, _, bound) in END_TO_END {
            let mut line = format!("{:<40}", format!("{metric} (bound {bound})"));
            for spec in &stream::SPECS {
                let v = &sets[spec.name][metric];
                let (low, high) = if quartile_rule {
                    stats::quartiles(v)
                } else {
                    (
                        v.iter().copied().fold(f64::MAX, f64::min),
                        v.iter().copied().fold(f64::MIN, f64::max),
                    )
                };
                let spread = (high - low) / stats::median(v);
                let over = spread > bound;
                within_bounds &= !over;
                // the driver's target for a steady benchmark is a third
                // of the bound
                let mark = if over {
                    "!"
                } else if spread > bound / 3.0 {
                    "~"
                } else {
                    ""
                };
                line += &format!(" {:>14}", format!("{spread:.3}{mark}"));
            }
            println!("{line}");
        }
        println!("~ wider than a third of the metric's bound (unsteady), ! wider than the bound");
    }

    if let Some(path) = &args.out {
        let mut json = String::from("{\n");
        for (w, spec) in stream::SPECS.iter().enumerate() {
            json += &format!("  \"{}\": {{", spec.name);
            for (m, (metric, unit)) in names.iter().enumerate() {
                let v = &sets[spec.name][metric];
                let values: Vec<String> = v.iter().map(f64::to_string).collect();
                json += &format!(
                    "{}\"{metric}\": {{\"unit\": \"{unit}\", \"median\": {}, \"values\": [{}]}}",
                    if m == 0 { "" } else { ", " },
                    stats::median(v),
                    values.join(", ")
                );
            }
            json += if w + 1 == stream::SPECS.len() {
                "}\n"
            } else {
                "},\n"
            };
        }
        json += "}\n";
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("raebench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if within_bounds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
