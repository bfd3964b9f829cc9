//! Unit tests of the benchmark's own arithmetic, and a smoke run of
//! every workload through the same code the full run uses.

use crate::load::{stall_window, FileEnt, Probe};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::oracle::{check_durable, promised_by_fsync, Promise};
use crate::run::{run, Cfg};
use crate::spans::{self_times, Span};
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::stream::{generate_all, populate_fill, stream_hash, Op, Spec, SPECS};
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::MemDisk;
use rae_fsformat::{mkfs, MkfsParams};
use rae_vfs::{FileSystem, OpenFlags};
use std::sync::Arc;

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for spec in &SPECS {
        let a = stream_hash(&generate_all(spec, 7, 4096));
        let b = stream_hash(&generate_all(spec, 7, 4096));
        let c = stream_hash(&generate_all(spec, 8, 4096));
        assert_eq!(a, b, "{}: same seed must give the same stream", spec.name);
        assert_ne!(a, c, "{}: another seed must give another stream", spec.name);
    }
}

#[test]
fn churn_stream_is_whole_cycles_on_the_probe_grid() {
    let spec = crate::stream::spec("fault-cold").unwrap();
    let churn = &generate_all(spec, 1, 4096)[0];
    assert_eq!(churn.len() % crate::stream::CHURN_CYCLE, 0);
    // a fault is armed just before a probe operation and must fire in
    // it: probes have to land on the cycle's create
    assert_eq!(spec.probe_every % crate::stream::CHURN_CYCLE, 0);
    assert!(matches!(churn[0], crate::stream::Op::Create { .. }));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100).unwrap().0, "p90");
    assert_eq!(tail_percentile(999).unwrap().0, "p90");
    assert_eq!(tail_percentile(1000).unwrap().0, "p99");
    assert_eq!(tail_percentile(9_999).unwrap().0, "p99");
    assert_eq!(tail_percentile(10_000).unwrap().0, "p99.9");
    assert_eq!(tail_percentile(100_000).unwrap().0, "p99.99");
    assert_eq!(tail_percentile(50_000_000).unwrap().0, "p99.99");
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u32> = (1..=100).collect();
    assert_eq!(percentile(&v, 50, 100), 50);
    assert_eq!(percentile(&v, 99, 100), 99);
    assert_eq!(percentile(&[42u64], 999, 1000), 42);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(median(&v), 5.5);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        op_id: if parent == 0 { id } else { parent },
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_only_the_callers_own_device_spans() {
    let spans = [
        // an operation of 1000 ns with two device reads on its own
        // thread (one running past the operation's end, clipped)
        span(1, 0, "basefs.op", 0, 1000),
        span(10, 1, "blockdev.read", 100, 300),
        span(11, 1, "blockdev.read", 900, 1100),
        // a write-back worker's write during the same interval: no
        // parent, so not on this operation's critical path
        span(12, 0, "blockdev.write", 200, 800),
        // a second operation with overlapping children (counted once)
        span(2, 0, "basefs.op", 2000, 2500),
        span(20, 2, "blockdev.read", 2100, 2300),
        span(21, 2, "blockdev.read", 2200, 2400),
    ];
    let by_name = self_times(&spans);
    // 1000 - (200 + 100) and 500 - 300
    assert_eq!(by_name["basefs.op"], (2, 700 + 200));
    assert_eq!(by_name["blockdev.read"], (4, 200 + 200 + 200 + 200));
    assert_eq!(by_name["blockdev.write"], (1, 600));
}

#[test]
fn stall_window_spans_the_stall_across_threads() {
    // thread A's previous reply came at 100; its faulting operation is
    // issued at 110 and answered, after the recovery, at 1000
    let probe = Probe {
        before_ns: 100,
        done_ns: 1000,
    };
    // thread B had an operation in flight that completed at 150, was
    // then shut out, and got its next reply at 990, just before A did:
    // neither reply hides the stall between them
    assert_eq!(stall_window(probe, &[&[150, 990]]), 840);
    // B shut out to the end: the stall runs until A's own reply
    assert_eq!(stall_window(probe, &[&[150]]), 850);
    // nobody else around: A's own gap
    assert_eq!(stall_window(probe, &[]), 900);
    // B served all through the recovery: A's own stall is not
    // unavailability of the filesystem
    let served: Vec<u64> = (0..90).map(|i| 105 + 10 * i).collect();
    assert_eq!(stall_window(probe, &[&served]), 10);
    // replies outside the probe's span (earlier probes, later ones) and
    // a third thread are handled
    assert_eq!(
        stall_window(probe, &[&[5, 50, 150, 1200], &[400, 2000]]),
        600
    );
}

#[test]
fn only_acknowledged_fsyncs_promise_anything() {
    let spec = Spec {
        files: 2,
        file_blocks: 2,
        ..*crate::stream::spec("fs-write-sync").unwrap()
    };
    let stream = vec![
        Op::Write {
            file: 0,
            block: 1,
            fill: 9,
        },
        // extends past a hole at block 2
        Op::Write {
            file: 1,
            block: 3,
            fill: 7,
        },
        Op::Fsync { file: 1 },
        Op::Write {
            file: 1,
            block: 0,
            fill: 5,
        },
        // beyond where the thread stopped
        Op::Fsync { file: 0 },
    ];
    let promised = promised_by_fsync(&spec, &[stream], &[4]);
    let want = [
        Promise {
            blocks: vec![populate_fill(0, 0), populate_fill(0, 1)],
            later: vec![(1, 9)],
            covered: 0,
        },
        Promise {
            blocks: vec![populate_fill(1, 0), populate_fill(1, 1), 0, 7],
            later: vec![(0, 5)],
            covered: 1,
        },
    ];
    assert_eq!(promised, [want.to_vec()]);
}

#[test]
fn durability_check_holds_a_snapshot_to_the_promises() {
    let raw = Arc::new(MemDisk::new(2048));
    let params = MkfsParams {
        total_blocks: 2048,
        inode_count: 64,
        journal_blocks: 64,
    };
    mkfs(raw.as_ref(), params).unwrap();
    let fs = BaseFs::mount(Arc::clone(&raw) as _, BaseFsConfig::default()).unwrap();
    let path = "/f".to_string();
    let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
    fs.write(fd, 0, &[3; 4096]).unwrap();
    fs.fsync(fd).unwrap();
    fs.write(fd, 0, &[4; 4096]).unwrap(); // never fsynced
    let snapshot = || Arc::new(MemDisk::clone_of(raw.as_ref()).unwrap());
    let tables = [vec![FileEnt { vol: 0, fd, path }]];
    let promise = |fill, later: &[(u16, u8)]| {
        [vec![Promise {
            blocks: vec![fill],
            later: later.to_vec(),
            covered: 1,
        }]]
    };
    // the fsynced bytes, or the later write's: either may be there
    assert_eq!(
        check_durable(snapshot(), &tables, &promise(3, &[(0, 4)])),
        Ok(1)
    );
    // bytes nobody wrote, and a file shorter than what was fsynced
    assert!(check_durable(snapshot(), &tables, &promise(9, &[])).is_err());
    let two_blocks = [vec![Promise {
        blocks: vec![3, 3],
        ..Promise::default()
    }]];
    assert!(check_durable(snapshot(), &tables, &two_blocks).is_err());
}

#[test]
fn result_line_round_trips() {
    let mut out = Outcome {
        attempted: 12,
        ..Outcome::default()
    };
    out.end_to_end("ops_per_s", 1234.5);
    out.end_to_end("setup_s", 0.25);
    let line = out.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
    let (correct, row) = crate::parse_result(&line).unwrap();
    assert!(correct);
    assert_eq!(row["ops_per_s"], 1234.5);
    assert_eq!(row["setup_s"], 0.25);
    assert_eq!(row.len(), 2);
    out.problems.push("fsck: 1 error".to_string());
    assert!(!crate::parse_result(&out.to_json()).unwrap().0);
}

/// `BENCHMARK.json` at the repository root is the contract the driver
/// reads; it must name exactly the workloads and metrics of this code.
#[test]
fn benchmark_json_names_this_benchmark() {
    let json = include_str!("../../BENCHMARK.json");
    for spec in &SPECS {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
        assert!(json.contains(&entry), "missing or different: {entry}");
        assert!(spec.why.len() <= 200, "{}: why is too long", spec.name);
    }
    assert_eq!(json.matches("\"why\":").count(), SPECS.len());
    for (name, unit, better, bound) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
        assert!(bound <= 0.25);
    }
    for (name, unit, better) in PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
    assert_eq!(
        json.matches("\"better\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}

/// Every workload, untraced and traced, at smoke size: outputs must be
/// correct and every named metric present, finite and, end to end,
/// above zero (the driver accepts no metric that can be 0).
#[test]
fn smoke_runs_all_six_workloads() {
    rae_server::quiet_injected_panics();
    for spec in &SPECS {
        for trace in [false, true] {
            let cfg = Cfg {
                seed: 11,
                seconds: 0.08,
                trace,
                scale: 0.01,
            };
            let out = run(spec, &cfg);
            assert!(
                out.correct() && out.failed == 0 && out.attempted > 0,
                "{} trace={trace}: {:#?}",
                spec.name,
                out.problems
            );
            if trace {
                for (name, _, _) in PER_LAYER {
                    let v = out
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: no {name}", spec.name));
                    assert!(v.is_finite(), "{}: {name} = {v}", spec.name);
                }
                assert_eq!(out.metrics.len(), PER_LAYER.len());
            } else {
                for (name, _, _, _) in END_TO_END {
                    let v = out
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: no {name}", spec.name));
                    assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", spec.name);
                }
                assert_eq!(out.metrics.len(), END_TO_END.len());
            }
        }
    }
}
