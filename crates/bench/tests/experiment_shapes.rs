//! The experiments must keep producing the paper's *shapes* — these
//! tests run the fast-scale harness and assert the direction of every
//! result (who wins, what is zero, what is rejected).

use rae_bench::experiments::{self, Scale};

#[test]
fn table1_matches_paper_exactly() {
    let out = experiments::table1();
    assert!(out.contains("matches paper Table 1 exactly: true"), "{out}");
}

#[test]
fn figure1_has_eleven_years_summing_to_165() {
    let out = experiments::figure1();
    assert_eq!(out.lines().count(), 2 + 11, "{out}");
    let total: u64 = out
        .lines()
        .skip(2)
        .map(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|t| t.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(total, 165, "{out}");
}

#[test]
fn e1_base_beats_shadow() {
    let out = experiments::e1_base_vs_shadow(Scale::fast());
    for line in out.lines().filter(|l| l.starts_with("read-mostly")) {
        let speedup: f64 = line
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(speedup > 2.0, "base must clearly win: {line}");
    }
}

#[test]
fn e3_recovery_time_grows_with_log_length() {
    let out = experiments::e3_recovery_latency(Scale::fast());
    let times: Vec<f64> = out
        .lines()
        .filter(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
        .collect();
    assert!(times.len() >= 3, "{out}");
    assert!(
        times.last().unwrap() > times.first().unwrap(),
        "recovery time must grow with the log: {out}"
    );
}

#[test]
fn e4_rae_masks_everything() {
    rae_faults::quiet_injected_panics();
    let out = experiments::e4_availability(Scale::fast());
    let rae_line = out.lines().find(|l| l.starts_with("rae")).unwrap();
    let fields: Vec<&str> = rae_line.split_whitespace().collect();
    let app_errors: u64 = fields[2].parse().unwrap();
    let recoveries: u64 = fields[3].parse().unwrap();
    assert_eq!(app_errors, 0, "RAE leaked runtime errors: {out}");
    assert!(recoveries > 0, "campaign never triggered: {out}");

    let cr_line = out
        .lines()
        .find(|l| l.starts_with("crash-remount"))
        .unwrap();
    let cr_ok: u64 = cr_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let rae_ok: u64 = fields[1].parse().unwrap();
    assert!(rae_ok > cr_ok, "RAE must complete more ops: {out}");
}

#[test]
fn e5_more_checks_cost_more() {
    let out = experiments::e5_check_cost(Scale::fast());
    let checks: Vec<u64> = out
        .lines()
        .filter(|l| l.starts_with("minimal") || l.starts_with("paranoid"))
        .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
        .collect();
    assert_eq!(checks.len(), 4, "{out}");
    assert!(
        checks.windows(2).all(|w| w[0] <= w[1]),
        "check counts must be monotone across configs: {out}"
    );
    assert!(checks[3] > checks[0], "{out}");
}

#[test]
fn e6_control_is_clean_and_planted_bug_is_caught() {
    let out = experiments::e6_differential(Scale::fast());
    let control = out.lines().find(|l| l.starts_with("(control")).unwrap();
    assert!(control.contains("clean"), "{out}");
    let planted = out
        .lines()
        .find(|l| l.starts_with("always-silent-write"))
        .unwrap();
    assert!(planted.trim_end().ends_with("yes"), "{out}");
}

#[test]
fn e7_shadow_rejects_every_crafted_image() {
    let out = experiments::e7_crafted_images();
    let case_lines: Vec<&str> = out
        .lines()
        .filter(|l| l.contains("rejected") || l.contains("ACCEPTED"))
        .collect();
    assert_eq!(case_lines.len(), 10, "{out}");
    for line in case_lines {
        assert!(line.contains("rejected cleanly"), "shadow accepted: {line}");
    }
}

#[test]
fn e8_every_scenario_reaches_a_terminal_state() {
    rae_faults::quiet_injected_panics();
    let out = experiments::e8_recovery_resilience(true);
    assert!(out.contains("0 unexpected"), "{out}");
    // the control recovers on the first (cold) rung
    let control = out.lines().find(|l| l.starts_with("control")).unwrap();
    assert!(control.contains("recovered"), "{out}");
    assert!(control.contains(" cold "), "{out}");
    // every one-shot (transient) nested fault must be fully absorbed
    for line in out
        .lines()
        .filter(|l| l.contains("-once") || l.contains("dev-read-twice"))
    {
        assert!(
            line.contains("recovered"),
            "transient fault not absorbed: {line}\n{out}"
        );
    }
    // persistent replay faults sacrifice mutations, not the whole mount
    let deg = out
        .lines()
        .find(|l| l.starts_with("detected-replay-always"))
        .unwrap();
    assert!(deg.contains("degraded"), "{out}");
    assert!(deg.contains("cold>cold_retry"), "ladder order: {out}");
    // a persistent device fault takes even the degrade reboot down
    let off = out
        .lines()
        .find(|l| l.starts_with("dev-read-always"))
        .unwrap();
    assert!(off.contains("offline"), "{out}");
    assert!(
        off.contains("cold>cold_retry>degraded"),
        "ladder order: {out}"
    );
}

#[test]
fn e9_windows_split_around_the_recovery() {
    rae_faults::quiet_injected_panics();
    let out = experiments::e9_tail_latency(Scale::fast(), true);
    assert!(out.contains("rung=cold"), "{out}");
    let field = |window: &str, idx: usize| -> f64 {
        out.lines()
            .find(|l| l.starts_with(window))
            .and_then(|l| l.split_whitespace().nth(idx))
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("missing {window} row: {out}"))
    };
    // the triggering op pays the recovery; the quiet windows do not
    assert!(field("during", 1) >= 1.0, "{out}");
    assert!(field("during", 5) > field("before", 5), "{out}");
    assert!(
        field("before", 1) > 100.0 && field("after", 1) > 100.0,
        "{out}"
    );
    assert!(out.contains("wrote BENCH_tail_latency.json"), "{out}");
    let json = std::fs::read_to_string("BENCH_tail_latency.json").unwrap();
    for key in [
        "\"experiment\": \"e9_tail_latency\"",
        "\"windows\"",
        "\"p999_us\"",
        "\"overhead\"",
        "\"within_budget\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
