//! Top-level tool dispatch (`mkfs`/`fsck`/`info`/`corrupt`/`exec`).

use crate::commands::Session;
use rae_blockdev::{BlockDevice, FileDisk};
use rae_fsformat::{fsck, mkfs, CraftedImage, MkfsParams, Superblock};
use rae_vfs::FsError;
use std::fmt;
use std::sync::Arc;

/// Tool-level failures.
#[derive(Debug)]
pub enum ToolError {
    /// Bad arguments.
    Usage(String),
    /// Filesystem or device failure.
    Fs(FsError),
    /// The check found problems (fsck's non-zero exit).
    Dirty(String),
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::Usage(m) => write!(f, "usage: {m}"),
            ToolError::Fs(e) => write!(f, "{e}"),
            ToolError::Dirty(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ToolError {}

impl From<FsError> for ToolError {
    fn from(e: FsError) -> ToolError {
        ToolError::Fs(e)
    }
}

const USAGE: &str = "raefs <command> ...
  mkfs <image> [--blocks N] [--inodes N] [--journal N]
  fsck <image>
  info <image>
  corrupt <image> <case|list>
  exec <image> '<cmd>; <cmd>; ...'
  standby <image> ['<cmd>; ...']
  serve <addr> [--volumes N] [--blocks N] [--workers N] [--duration SECS]
  loadgen <addr> [--connections N] [--clients N] [--ops N] [--write-pct N]
                 [--mix read_heavy|mixed_10r90w|mixed_50r50w|write_heavy] [--inject-fault]
  metrics <addr> [--json] [--watch SECS]";

fn parse_flag(args: &[String], name: &str, default: u64) -> Result<u64, ToolError> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ToolError::Usage(format!("{name} needs a number"))),
        None => Ok(default),
    }
}

/// Run the tool with `argv[1..]`; returns the text to print.
///
/// # Errors
///
/// [`ToolError`] for bad usage, filesystem failures, or a dirty fsck.
pub fn run_tool(args: &[String]) -> Result<String, ToolError> {
    let Some(cmd) = args.first() else {
        return Err(ToolError::Usage(USAGE.into()));
    };
    let image = args.get(1).ok_or_else(|| ToolError::Usage(USAGE.into()))?;

    match cmd.as_str() {
        "mkfs" => {
            let blocks = parse_flag(args, "--blocks", 4096)?;
            let inodes = parse_flag(args, "--inodes", 1024)?;
            let journal = parse_flag(args, "--journal", 256)?;
            let dev = FileDisk::create(image, blocks)?;
            let geo = mkfs(
                &dev,
                MkfsParams {
                    total_blocks: blocks,
                    inode_count: u32::try_from(inodes)
                        .map_err(|_| ToolError::Usage("--inodes too large".into()))?,
                    journal_blocks: journal,
                },
            )?;
            Ok(format!(
                "created {image}: {} blocks ({} data), {} inodes, {}-block journal",
                geo.total_blocks, geo.data_blocks, geo.inode_count, geo.journal_blocks
            ))
        }
        "fsck" => {
            let dev = FileDisk::open(image)?;
            let report = fsck(&dev)?;
            if report.is_clean() {
                Ok(format!("{image}: {report}"))
            } else {
                Err(ToolError::Dirty(format!("{image}: {report}")))
            }
        }
        "info" => {
            let dev = FileDisk::open(image)?;
            let sb = Superblock::read_from(&dev)?;
            let g = sb.geometry;
            Ok(format!(
                "{image}:\n  total blocks   {}\n  data blocks    {} (start {})\n  \
                 inodes         {} ({} free)\n  free blocks    {}\n  journal        {} blocks @ {}\n  \
                 state          {:?} (mounted {} times)",
                g.total_blocks,
                g.data_blocks,
                g.data_start,
                g.inode_count,
                sb.free_inodes,
                sb.free_blocks,
                g.journal_blocks,
                g.journal_start,
                sb.mount_state,
                sb.mount_count,
            ))
        }
        "corrupt" => {
            let case_name = args
                .get(2)
                .ok_or_else(|| ToolError::Usage("corrupt <image> <case|list>".into()))?;
            let dev = FileDisk::open(image)?;
            let corpus = CraftedImage::standard_corpus(&dev)?;
            if case_name == "list" {
                let names: Vec<&str> = corpus.iter().map(|c| c.name).collect();
                return Ok(names.join("\n"));
            }
            let case = corpus.iter().find(|c| c.name == case_name).ok_or_else(|| {
                ToolError::Usage(format!("unknown case '{case_name}' (try 'list')"))
            })?;
            rae_fsformat::apply_corruption(&dev, &case.corruption)?;
            dev.flush()?;
            Ok(format!("applied '{}' to {image}", case.name))
        }
        "exec" => {
            let script = args
                .get(2)
                .ok_or_else(|| ToolError::Usage("exec <image> '<cmd>; ...'".into()))?;
            let dev: Arc<dyn BlockDevice> = Arc::new(FileDisk::open(image)?);
            let mut session = Session::mount(dev)?;
            let mut out = String::new();
            for line in script.split(';') {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match session.run(line) {
                    Ok(text) if text.is_empty() => {}
                    Ok(text) => {
                        out.push_str(&text);
                        if !text.ends_with('\n') {
                            out.push('\n');
                        }
                    }
                    Err(e) => {
                        out.push_str(&format!("{line}: {e}\n"));
                    }
                }
            }
            session.unmount()?;
            Ok(out)
        }
        "standby" => {
            let dev: Arc<dyn BlockDevice> = Arc::new(FileDisk::open(image)?);
            let mut session = Session::mount_with(dev, rae::StandbyOpts { enabled: true })?;
            let mut out = String::new();
            if let Some(script) = args.get(2) {
                for line in script.split(';') {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match session.run(line) {
                        Ok(text) if text.is_empty() => {}
                        Ok(text) => {
                            out.push_str(&text);
                            if !text.ends_with('\n') {
                                out.push('\n');
                            }
                        }
                        Err(e) => {
                            out.push_str(&format!("{line}: {e}\n"));
                        }
                    }
                }
            }
            // let the apply thread drain so the reported lag reflects a
            // quiesced image rather than the race of the moment
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while session.fs().stats().standby_lag > 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let status = session.run("standby").map_err(|e| match e {
                crate::commands::CommandError::Fs(e) => ToolError::Fs(e),
                crate::commands::CommandError::Usage(m) => ToolError::Usage(m),
            })?;
            out.push_str(&status);
            out.push('\n');
            session.unmount()?;
            Ok(out)
        }
        "serve" => run_serve(image, args),
        "loadgen" => run_loadgen(image, args),
        "metrics" => run_metrics(image, args),
        other => Err(ToolError::Usage(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    }
}

/// `serve <addr>`: host a multi-tenant storage server until SIGINT
/// (or `--duration` seconds, for scripted runs), then drain and
/// unmount every volume. Volumes are in-memory and named `vol0..N`.
fn run_serve(addr: &str, args: &[String]) -> Result<String, ToolError> {
    let volumes = parse_flag(args, "--volumes", 4)?;
    let blocks = parse_flag(args, "--blocks", 4096)?;
    let workers = parse_flag(args, "--workers", 16)?;
    let duration = parse_flag(args, "--duration", 0)?;

    rae_server::quiet_injected_panics();
    let manager = Arc::new(rae_server::VolumeManager::new());
    for i in 0..volumes {
        let spec = rae_server::VolumeSpec {
            name: format!("vol{i}"),
            blocks: u32::try_from(blocks)
                .map_err(|_| ToolError::Usage("--blocks too large".into()))?,
            ..rae_server::VolumeSpec::default()
        };
        manager.create(&spec)?;
    }
    let config = rae_server::ServerConfig {
        workers: workers.clamp(1, 256) as usize,
        queue: (workers.clamp(1, 256) as usize) * 2,
    };
    let server = rae_server::Server::bind(addr, Arc::clone(&manager), &config)
        .map_err(|e| ToolError::Usage(format!("bind {addr}: {e}")))?;
    let local = server.local_addr();
    let sigint = rae_server::sigint_installed();
    eprintln!(
        "raefs-server listening on {local} ({volumes} volumes, {} workers){}",
        config.workers,
        if sigint { ", ^C to stop" } else { "" }
    );

    let deadline = (duration > 0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_secs(duration));
    loop {
        if rae_server::sigint_triggered() {
            eprintln!("raefs-server: SIGINT, draining");
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = server.shutdown()?;
    Ok(format!(
        "served {} requests over {} connections; unmounted {} volumes ({})",
        report.requests,
        report.connections,
        report.volumes_unmounted,
        if report.all_clean { "clean" } else { "dirty" }
    ))
}

/// `loadgen <addr>`: hammer a running server with Zipf-skewed
/// multi-tenant traffic over every volume it exports and print the
/// per-tenant latency/error breakdown. With `--inject-fault`, a panic
/// is armed in the first volume's path-lookup at ~30% progress and
/// the client-observed unavailability window is reported.
fn run_loadgen(addr: &str, args: &[String]) -> Result<String, ToolError> {
    let connections = parse_flag(args, "--connections", 8)?;
    let clients = parse_flag(args, "--clients", 16)?;
    let ops = parse_flag(args, "--ops", 50)?;
    let mut write_pct = parse_flag(args, "--write-pct", 30)?;
    // --mix is a named preset over the same knob; it wins over an
    // explicit --write-pct so scripts can layer the two safely
    if let Some(i) = args.iter().position(|a| a == "--mix") {
        let mix = args
            .get(i + 1)
            .ok_or_else(|| ToolError::Usage("--mix needs a name".to_string()))?;
        write_pct = match mix.as_str() {
            "read_heavy" => 10,
            "mixed_10r90w" => 90,
            "mixed_50r50w" => 50,
            "write_heavy" => 100,
            other => {
                return Err(ToolError::Usage(format!(
                    "--mix: unknown mix '{other}' (read_heavy, mixed_10r90w, \
                     mixed_50r50w, write_heavy)"
                )))
            }
        };
    }
    let inject = args.iter().any(|a| a == "--inject-fault");

    let to_usage = |e: rae_server::ClientError| ToolError::Usage(format!("{addr}: {e}"));
    let mut admin = rae_server::Client::connect(addr)
        .map_err(|e| ToolError::Usage(format!("connect {addr}: {e}")))?;
    let listed = admin.list_volumes().map_err(to_usage)?;
    if listed.is_empty() {
        return Err(ToolError::Usage(format!(
            "{addr} exports no volumes (start the server with --volumes N)"
        )));
    }
    let cfg = rae_workloads::LoadGenConfig {
        addr: addr.to_string(),
        volumes: listed.iter().map(|v| v.id).collect(),
        connections: connections.clamp(1, 1024) as usize,
        clients_per_connection: clients.clamp(1, 1024) as usize,
        ops_per_client: ops.clamp(1, 1_000_000) as usize,
        write_pct: write_pct.min(100) as u32,
        trace: true,
        ..rae_workloads::LoadGenConfig::default()
    };
    let fds = rae_workloads::populate_volumes(&cfg).map_err(to_usage)?;
    let run = rae_workloads::start_load(&cfg, &fds, std::time::Instant::now()).map_err(to_usage)?;

    // wire codes: Site::ALL[1] = PathLookup, effect 1 = Panic
    let mut fault_ns = None;
    if inject {
        while run.progress() < 0.3 {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        let at = run.now_ns();
        admin
            .inject_fault(cfg.volumes[0], 1, 1, 1)
            .map_err(to_usage)?;
        fault_ns = Some(at);
    }
    let report = run.join();

    let mut out = format!(
        "{} ops in {:.2}s ({:.0} ops/s), {} errors, {} refusals, {} transport errors\n",
        report.total_ops,
        report.elapsed.as_secs_f64(),
        report.ops_per_sec(),
        report.total_errors,
        report.total_refusals,
        report.total_io_errors,
    );
    for (v, info) in report.per_volume.iter().zip(&listed) {
        out.push_str(&format!(
            "  {:<8} ops {:>7}  p50 {:>7}us  p99 {:>7}us  p999 {:>7}us  max {:>7}us  err {} refused {}\n",
            info.name,
            v.ops,
            v.p50_ns / 1000,
            v.p99_ns / 1000,
            v.p999_ns / 1000,
            v.max_ns / 1000,
            v.errors,
            v.refusals,
        ));
    }
    if let Some(at) = fault_ns {
        let faulted = &report.per_volume[0];
        match rae_workloads::unavailability_window(&faulted.timeline, at) {
            Some(w) if report.total_errors == 0 => {
                out.push_str(&format!(
                    "injected panic@path_lookup on {} masked; client-observed \
                     unavailability {:.2} ms\n",
                    listed[0].name,
                    w as f64 / 1e6
                ));
            }
            _ => {
                return Err(ToolError::Dirty(format!(
                    "injected fault was NOT masked ({} errors)\n{out}",
                    report.total_errors
                )));
            }
        }
    }
    Ok(out)
}

/// `metrics <addr>`: scrape a running server's per-tenant metrics
/// plane — Prometheus text by default, the JSON mirror with `--json`.
/// `--watch SECS` re-scrapes on that period until SIGINT (or a broken
/// connection), separating refreshes with a form-feed marker line.
fn run_metrics(addr: &str, args: &[String]) -> Result<String, ToolError> {
    let json = args.iter().any(|a| a == "--json");
    let watch = parse_flag(args, "--watch", 0)?;
    let mut client = rae_server::Client::connect(addr)
        .map_err(|e| ToolError::Usage(format!("connect {addr}: {e}")))?;
    let to_usage = |e: rae_server::ClientError| ToolError::Usage(format!("{addr}: {e}"));
    if watch == 0 {
        return client.scrape(json).map_err(to_usage);
    }
    let _ = rae_server::sigint_installed();
    let mut last = String::new();
    while !rae_server::sigint_triggered() {
        match client.scrape(json) {
            Ok(text) => {
                println!("--- {addr} ---");
                print!("{text}");
                last = text;
            }
            Err(rae_server::ClientError::Io(_)) => break,
            Err(e) => return Err(to_usage(e)),
        }
        std::thread::sleep(std::time::Duration::from_secs(watch.clamp(1, 3600)));
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_image(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("raefs-cli-{}-{name}.img", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn run(args: &[&str]) -> Result<String, ToolError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        run_tool(&owned)
    }

    #[test]
    fn mkfs_exec_fsck_lifecycle() {
        let img = tmp_image("life");
        let out = run(&[
            "mkfs",
            &img,
            "--blocks",
            "2048",
            "--inodes",
            "256",
            "--journal",
            "64",
        ])
        .unwrap();
        assert!(out.contains("created"), "{out}");

        let out = run(&["exec", &img, "mkdir /a; write /a/f persistent data; tree"]).unwrap();
        assert!(out.contains("wrote 15 bytes"), "{out}");
        assert!(out.contains("a/"), "{out}");

        // state persisted in the file image across invocations
        let out = run(&["exec", &img, "cat /a/f"]).unwrap();
        assert!(out.contains("persistent data"), "{out}");

        let out = run(&["fsck", &img]).unwrap();
        assert!(out.contains("clean"), "{out}");

        let out = run(&["info", &img]).unwrap();
        assert!(out.contains("total blocks   2048"), "{out}");

        std::fs::remove_file(&img).unwrap();
    }

    #[test]
    fn corrupt_then_fsck_fails() {
        let img = tmp_image("corrupt");
        run(&["mkfs", &img]).unwrap();
        run(&["exec", &img, "mkdir /d; write /d/f x"]).unwrap();
        let list = run(&["corrupt", &img, "list"]).unwrap();
        assert!(list.contains("inode-bitrot"), "{list}");
        run(&["corrupt", &img, "inode-bitrot"]).unwrap();
        let err = run(&["fsck", &img]).unwrap_err();
        assert!(matches!(err, ToolError::Dirty(_)), "{err}");
        std::fs::remove_file(&img).unwrap();
    }

    #[test]
    fn exec_reports_per_command_errors_and_continues() {
        let img = tmp_image("errors");
        run(&["mkfs", &img]).unwrap();
        let out = run(&["exec", &img, "cat /missing; mkdir /ok; ls /"]).unwrap();
        assert!(out.contains("errno 2"), "{out}");
        assert!(out.contains("ok"), "{out}");
        std::fs::remove_file(&img).unwrap();
    }

    #[test]
    fn standby_subcommand_runs_warm_and_reports_status() {
        let img = tmp_image("standby");
        run(&["mkfs", &img]).unwrap();
        let out = run(&["standby", &img, "mkdir /w; write /w/f warm; cat /w/f"]).unwrap();
        assert!(out.contains("warm"), "{out}");
        assert!(out.contains("active=true"), "{out}");
        assert!(out.contains("lag=0"), "{out}");
        // the image is clean and readable cold afterwards
        let out = run(&["exec", &img, "cat /w/f; standby"]).unwrap();
        assert!(out.contains("warm"), "{out}");
        assert!(out.contains("active=false"), "{out}");
        run(&["fsck", &img]).unwrap();
        std::fs::remove_file(&img).unwrap();
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(ToolError::Usage(_))));
        assert!(matches!(run(&["mkfs"]), Err(ToolError::Usage(_))));
        assert!(matches!(run(&["bogus", "x"]), Err(ToolError::Usage(_))));
        assert!(matches!(
            run(&["loadgen", "127.0.0.1:1"]),
            Err(ToolError::Usage(_))
        ));
        // bad --mix names are rejected before any connection attempt
        match run(&["loadgen", "127.0.0.1:1", "--mix", "bogus"]) {
            Err(ToolError::Usage(msg)) => assert!(msg.contains("unknown mix"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_then_loadgen_round_trip() {
        // fixed port derived from the pid: unique enough for CI, and
        // `serve` must know its address before binding
        let port = 21000 + (std::process::id() % 20000) as u16;
        let addr = format!("127.0.0.1:{port}");
        let serve_addr = addr.clone();
        let server = std::thread::spawn(move || {
            run(&[
                "serve",
                &serve_addr,
                "--volumes",
                "2",
                "--blocks",
                "2048",
                "--workers",
                "4",
                "--duration",
                "6",
            ])
        });
        // wait until the listener answers
        let mut up = false;
        for _ in 0..200 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(up, "server never came up on {addr}");

        let out = run(&[
            "loadgen",
            &addr,
            "--connections",
            "2",
            "--clients",
            "4",
            "--ops",
            "20",
            "--mix",
            "mixed_50r50w",
        ])
        .unwrap();
        assert!(out.contains("ops/s"), "{out}");
        assert!(out.contains("0 errors"), "{out}");
        assert!(out.contains("vol0") && out.contains("vol1"), "{out}");

        // second run re-populates the same working set and injects a
        // panic mid-traffic; the server must mask it
        let out = run(&[
            "loadgen",
            &addr,
            "--connections",
            "2",
            "--clients",
            "4",
            "--ops",
            "40",
            "--inject-fault",
        ])
        .unwrap();
        assert!(out.contains("masked"), "{out}");
        assert!(out.contains("unavailability"), "{out}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("unmounted 2 volumes (clean)"), "{summary}");
    }
}
