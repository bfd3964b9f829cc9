//! The filesystem command interpreter shared by `exec` and `shell`.

use rae::{RaeConfig, RaeFs, StandbyOpts};
use rae_blockdev::BlockDevice;
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_vfs::{FileSystem, FileType, FsError, OpenFlags};
use std::fmt;
use std::sync::Arc;

/// Interpreter errors (distinct from filesystem errors so the shell can
/// keep running after a typo).
#[derive(Debug)]
pub enum CommandError {
    /// The command or its arguments were malformed.
    Usage(String),
    /// The filesystem refused the operation.
    Fs(FsError),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Usage(msg) => write!(f, "usage: {msg}"),
            CommandError::Fs(e) => write!(f, "error: {e} (errno {})", e.errno()),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<FsError> for CommandError {
    fn from(e: FsError) -> CommandError {
        CommandError::Fs(e)
    }
}

/// One mounted session: a RAE filesystem plus its fault registry for
/// the `inject` command.
pub struct Session {
    fs: RaeFs,
    faults: FaultRegistry,
    next_bug_id: u32,
    /// Trace ids minted per command line, starting at 1: command N
    /// carries trace id N, so `timeline --trace N` replays exactly the
    /// flight-recorder events command N caused.
    next_trace_id: u64,
}

/// Clears the thread's trace context on every exit path out of
/// [`Session::run`] (including `?` early returns).
struct TraceScope;

impl Drop for TraceScope {
    fn drop(&mut self) {
        rae_telemetry::clear_current_trace();
    }
}

impl Session {
    /// Mount a RAE session over `dev`.
    ///
    /// # Errors
    ///
    /// Mount failures.
    pub fn mount(dev: Arc<dyn BlockDevice>) -> Result<Session, FsError> {
        Session::mount_with(dev, StandbyOpts::default())
    }

    /// Mount a RAE session with an explicit warm-standby configuration
    /// (`raefs standby` uses this to turn the standby on).
    ///
    /// # Errors
    ///
    /// Mount failures.
    pub fn mount_with(dev: Arc<dyn BlockDevice>, standby: StandbyOpts) -> Result<Session, FsError> {
        let faults = FaultRegistry::new();
        let config = RaeConfig {
            base: rae_basefs::BaseFsConfig {
                faults: faults.clone(),
                ..rae_basefs::BaseFsConfig::default()
            },
            standby,
            ..RaeConfig::default()
        };
        Ok(Session {
            fs: RaeFs::mount(dev, config)?,
            faults,
            next_bug_id: 9000,
            next_trace_id: 1,
        })
    }

    /// Unmount cleanly.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn unmount(self) -> Result<(), FsError> {
        self.fs.unmount()
    }

    /// The wrapped filesystem (tests).
    #[must_use]
    pub fn fs(&self) -> &RaeFs {
        &self.fs
    }

    /// Execute one command line; returns its printable output.
    ///
    /// # Errors
    ///
    /// [`CommandError`] on bad syntax or filesystem errors. The session
    /// stays usable either way.
    pub fn run(&mut self, line: &str) -> Result<String, CommandError> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        rae_telemetry::set_current_trace(self.next_trace_id);
        self.next_trace_id += 1;
        let _trace = TraceScope;
        match cmd {
            "help" => Ok(HELP.to_string()),
            "ls" => self.ls(args.first().copied().unwrap_or("/")),
            "tree" => self.tree(),
            "mkdir" => {
                let p = one(&args, "mkdir <path>")?;
                self.fs.mkdir(p)?;
                Ok(String::new())
            }
            "rmdir" => {
                let p = one(&args, "rmdir <path>")?;
                self.fs.rmdir(p)?;
                Ok(String::new())
            }
            "write" | "append" => {
                if args.len() < 2 {
                    return Err(CommandError::Usage(format!("{cmd} <path> <text>")));
                }
                let path = args[0];
                let text = line
                    .splitn(3, char::is_whitespace)
                    .nth(2)
                    .unwrap_or_default();
                let mut flags = OpenFlags::RDWR | OpenFlags::CREATE;
                if cmd == "append" {
                    flags |= OpenFlags::APPEND;
                }
                let fd = self.fs.open(path, flags)?;
                // offset 0: append mode writes at EOF regardless
                let n = self.fs.write(fd, 0, text.as_bytes())?;
                self.fs.close(fd)?;
                Ok(format!("wrote {n} bytes"))
            }
            "cat" => {
                let p = one(&args, "cat <path>")?;
                let st = self.fs.stat(p)?;
                let fd = self.fs.open(p, OpenFlags::RDONLY)?;
                let data = self.fs.read(fd, 0, st.size as usize)?;
                self.fs.close(fd)?;
                Ok(String::from_utf8_lossy(&data).into_owned())
            }
            "rm" => {
                let p = one(&args, "rm <path>")?;
                self.fs.unlink(p)?;
                Ok(String::new())
            }
            "mv" => {
                let (a, b) = two(&args, "mv <from> <to>")?;
                self.fs.rename(a, b)?;
                Ok(String::new())
            }
            "ln" => {
                let (a, b) = two(&args, "ln <existing> <new>")?;
                self.fs.link(a, b)?;
                Ok(String::new())
            }
            "symlink" => {
                let (t, l) = two(&args, "symlink <target> <linkpath>")?;
                self.fs.symlink(t, l)?;
                Ok(String::new())
            }
            "readlink" => {
                let p = one(&args, "readlink <path>")?;
                Ok(self.fs.readlink(p)?)
            }
            "stat" => {
                let p = one(&args, "stat <path>")?;
                let st = self.fs.stat(p)?;
                Ok(format!(
                    "{} {} size={} nlink={} blocks={} ino={}",
                    p, st.ftype, st.size, st.nlink, st.blocks, st.ino
                ))
            }
            "statfs" => {
                let info = self.fs.statfs()?;
                Ok(format!(
                    "blocks: {}/{} free, inodes: {}/{} free",
                    info.free_blocks, info.total_blocks, info.free_inodes, info.total_inodes
                ))
            }
            "sync" => {
                self.fs.sync()?;
                Ok(String::new())
            }
            "inject" => self.inject(&args),
            "stats" => {
                if args.first() == Some(&"--json") {
                    return Ok(self.stats_json());
                }
                let s = self.fs.stats();
                Ok(format!(
                    "status={:?} detected={} panics={} recoveries={} failures={} masked={} \
                     recovery_time={:.2}ms log_len={} trimmed={} degraded={} \
                     reads_served_in_recovery={}",
                    self.fs.status(),
                    s.detected_errors,
                    s.panics_caught,
                    s.recoveries,
                    s.recovery_failures,
                    s.ops_masked,
                    s.recovery_time_ns as f64 / 1e6,
                    s.log_len,
                    s.log_trimmed,
                    s.degraded,
                    s.reads_served_in_recovery
                ))
            }
            "ladder" => {
                let s = self.fs.stats();
                let mut out = format!(
                    "rungs: warm={} cold={} cold_retry={} degraded={} offline={}\n\
                     rung time: warm={:.2}ms cold={:.2}ms cold_retry={:.2}ms degraded={:.2}ms\n\
                     device retry: retries={} absorbed={} exhausted={}\n",
                    s.ladder_warm,
                    s.ladder_cold,
                    s.ladder_cold_retry,
                    s.ladder_degraded,
                    s.recovery_failures,
                    s.rung_warm_time_ns as f64 / 1e6,
                    s.rung_cold_time_ns as f64 / 1e6,
                    s.rung_cold_retry_time_ns as f64 / 1e6,
                    s.rung_degraded_time_ns as f64 / 1e6,
                    s.device_retries,
                    s.device_faults_absorbed,
                    s.device_retries_exhausted
                );
                match self.fs.last_recovery_report() {
                    Some(r) => {
                        let failed: Vec<String> = r
                            .failed_rungs
                            .iter()
                            .map(|f| f.rung.as_str().to_string())
                            .collect();
                        out.push_str(&format!(
                            "last recovery: rung={} failed_rungs=[{}] rung_time={:.2}ms total={:.2}ms \
                             shadow_device_reads={} shadow_device_requests={} shadow_memo_hits={} \
                             resync_candidates={} resync_pinned={} resync_pruned={} \
                             reads_served={}",
                            r.rung.as_str(),
                            failed.join(">"),
                            r.rung_time.as_secs_f64() * 1e3,
                            r.duration.as_secs_f64() * 1e3,
                            r.shadow_device_reads,
                            r.shadow_device_requests,
                            r.shadow_memo_hits,
                            r.resync_candidates,
                            r.resync_pinned,
                            r.resync_pruned,
                            r.reads_served
                        ));
                        for f in &r.failed_rungs {
                            out.push_str(&format!(
                                "\n  failed {}: {:.2}ms ({})",
                                f.rung.as_str(),
                                f.duration.as_secs_f64() * 1e3,
                                f.error
                            ));
                        }
                    }
                    None => out.push_str("last recovery: none"),
                }
                Ok(out)
            }
            "timeline" => {
                let (events, dropped) = self.fs.telemetry().timeline();
                if let Some(i) = args.iter().position(|&a| a == "--trace") {
                    let id: u64 = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| CommandError::Usage("timeline --trace <id>".into()))?;
                    Ok(rae_telemetry::render_trace_timeline(&events, dropped, id))
                } else {
                    Ok(rae_telemetry::render_timeline(&events, dropped))
                }
            }
            "top" => Ok(self.fs.telemetry().snapshot().render_table()),
            "standby" => {
                let s = self.fs.stats();
                Ok(format!(
                    "active={} degraded={} completed_seq={} applied_seq={} \
                     lag={} divergences={} publish_waits={} snapshot_blocks={} \
                     snapshot_captures={}",
                    s.standby_active,
                    s.standby_degraded,
                    s.standby_completed_seq,
                    s.standby_applied_seq,
                    s.standby_lag,
                    s.standby_divergences,
                    s.standby_publish_waits,
                    s.standby_snapshot_blocks,
                    s.standby_snapshot_captures
                ))
            }
            "audit" => {
                let report = self.fs.audit()?;
                if report.is_clean() {
                    Ok(format!(
                        "audit clean: {} records re-executed, {} skipped",
                        report.executed,
                        report.skipped_errors + report.skipped_sync
                    ))
                } else {
                    let mut out = format!("{} discrepancies:\n", report.discrepancies.len());
                    for d in &report.discrepancies {
                        out.push_str(&format!(
                            "  seq {} {}: expected {}, got {}\n",
                            d.seq, d.what, d.expected, d.got
                        ));
                    }
                    Ok(out)
                }
            }
            "readers" => {
                if args.len() != 3 {
                    return Err(CommandError::Usage(
                        "readers <threads> <ops> <path>".to_string(),
                    ));
                }
                let threads: usize = args[0]
                    .parse()
                    .map_err(|_| CommandError::Usage("readers: bad thread count".to_string()))?;
                let ops: usize = args[1]
                    .parse()
                    .map_err(|_| CommandError::Usage("readers: bad op count".to_string()))?;
                if threads == 0 || threads > 64 {
                    return Err(CommandError::Usage(
                        "readers: thread count must be 1..=64".to_string(),
                    ));
                }
                self.readers(threads, ops, args[2])
            }
            "writers" => {
                if args.len() != 3 {
                    return Err(CommandError::Usage(
                        "writers <threads> <ops> <path>".to_string(),
                    ));
                }
                let threads: usize = args[0]
                    .parse()
                    .map_err(|_| CommandError::Usage("writers: bad thread count".to_string()))?;
                let ops: usize = args[1]
                    .parse()
                    .map_err(|_| CommandError::Usage("writers: bad op count".to_string()))?;
                if threads == 0 || threads > 64 {
                    return Err(CommandError::Usage(
                        "writers: thread count must be 1..=64".to_string(),
                    ));
                }
                self.writers(threads, ops, args[2])
            }
            other => Err(CommandError::Usage(format!(
                "unknown command '{other}' (try 'help')"
            ))),
        }
    }

    /// `stats --json`: the full runtime counter set, rendered in the
    /// same volume-keyed shape as the server's `ServerStats` admin op
    /// so dashboards parse one format. A shell session has exactly one
    /// (implicit) volume, keyed `"default"`.
    fn stats_json(&self) -> String {
        rae_server::volumes_stats_json(&[(
            "default",
            &self.fs,
            rae_server::TenantCounters::default(),
        )])
    }

    /// `readers <threads> <ops> <path>`: hammer one file with N
    /// concurrent reader threads (the read fast path demo — readers
    /// share the recovery gate and the base lock, so throughput scales
    /// with available cores instead of serializing).
    fn readers(&self, threads: usize, ops: usize, path: &str) -> Result<String, CommandError> {
        let st = self.fs.stat(path)?;
        let fd = self.fs.open(path, OpenFlags::RDONLY)?;
        let chunk = (st.size as usize).clamp(1, 1024);
        let span = (st.size).saturating_sub(chunk as u64).max(1);
        let start = std::time::Instant::now();
        let result: Result<u64, FsError> = std::thread::scope(|s| {
            let fs = &self.fs;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || -> Result<u64, FsError> {
                        // xorshift per-thread stream: cheap, seedable
                        let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                        for _ in 0..ops {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            fs.read(fd, x % span, chunk)?;
                        }
                        Ok(ops as u64)
                    })
                })
                .collect();
            let mut total = 0u64;
            for h in handles {
                total += h.join().expect("reader thread panicked")?;
            }
            Ok(total)
        });
        let elapsed = start.elapsed();
        self.fs.close(fd)?;
        let total = result?;
        let ops_per_sec = total as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        Ok(format!(
            "{total} reads by {threads} threads in {:.2}ms ({ops_per_sec:.0} ops/s)",
            elapsed.as_secs_f64() * 1e3
        ))
    }

    /// `writers <threads> <ops> <path>`: hammer one file with N
    /// concurrent writer threads (the sharded write path demo — writers
    /// to the same inode still serialize on its stripe, and an fsync
    /// whose writes a concurrent commit's cut covered commits nothing).
    fn writers(&self, threads: usize, ops: usize, path: &str) -> Result<String, CommandError> {
        let st = self.fs.stat(path)?;
        let fd = self.fs.open(path, OpenFlags::RDWR)?;
        let chunk = (st.size as usize).clamp(1, 1024);
        let span = (st.size).saturating_sub(chunk as u64).max(1);
        let start = std::time::Instant::now();
        let result: Result<u64, FsError> = std::thread::scope(|s| {
            let fs = &self.fs;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || -> Result<u64, FsError> {
                        // xorshift per-thread stream: cheap, seedable
                        let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                        let mut buf = vec![0u8; chunk];
                        for _ in 0..ops {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            buf.fill(x as u8);
                            fs.write(fd, x % span, &buf)?;
                        }
                        Ok(ops as u64)
                    })
                })
                .collect();
            let mut total = 0u64;
            for h in handles {
                total += h.join().expect("writer thread panicked")?;
            }
            Ok(total)
        });
        let elapsed = start.elapsed();
        self.fs.close(fd)?;
        let total = result?;
        let ops_per_sec = total as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        Ok(format!(
            "{total} writes by {threads} threads in {:.2}ms ({ops_per_sec:.0} ops/s)",
            elapsed.as_secs_f64() * 1e3
        ))
    }

    fn ls(&self, path: &str) -> Result<String, CommandError> {
        let mut entries = self.fs.readdir(path)?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        for e in entries {
            let tag = match e.ftype {
                FileType::Directory => "d",
                FileType::Regular => "-",
                FileType::Symlink => "l",
            };
            out.push_str(&format!("{tag} {} {}\n", e.ino, e.name));
        }
        Ok(out)
    }

    fn tree(&self) -> Result<String, CommandError> {
        let mut out = String::from("/\n");
        self.tree_walk("/", 1, &mut out)?;
        Ok(out)
    }

    fn tree_walk(&self, dir: &str, depth: usize, out: &mut String) -> Result<(), CommandError> {
        let mut entries = self.fs.readdir(dir)?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            let suffix = match e.ftype {
                FileType::Directory => "/",
                FileType::Symlink => "@",
                FileType::Regular => "",
            };
            out.push_str(&format!("{}{}{}\n", "  ".repeat(depth), e.name, suffix));
            if e.ftype == FileType::Directory {
                self.tree_walk(&path, depth + 1, out)?;
            }
        }
        Ok(())
    }

    fn inject(&mut self, args: &[&str]) -> Result<String, CommandError> {
        let usage = "inject <site> <nth> <effect>  \
                     (site: rename|alloc|write|lookup|dirmod|readdir|commit\
                     |reboot|replay|absorb, nth: 0 = every visit, \
                     effect: error|panic|warn|silent|scribble)";
        if args.len() != 3 {
            return Err(CommandError::Usage(usage.into()));
        }
        let site = match args[0] {
            "rename" => Site::Rename,
            "alloc" => Site::Alloc,
            "write" => Site::Write,
            "lookup" => Site::PathLookup,
            "dirmod" => Site::DirModify,
            "readdir" => Site::Readdir,
            "commit" => Site::JournalCommit,
            "reboot" => Site::RecoveryReboot,
            "replay" => Site::RecoveryReplay,
            "absorb" => Site::RecoveryAbsorb,
            _ => return Err(CommandError::Usage(usage.into())),
        };
        let nth: u64 = args[1]
            .parse()
            .map_err(|_| CommandError::Usage(usage.into()))?;
        let effect = match args[2] {
            "error" => Effect::DetectedError,
            "panic" => Effect::Panic,
            "warn" => Effect::Warn,
            "silent" => Effect::SilentWrongResult,
            "scribble" => Effect::CorruptMetadata,
            _ => return Err(CommandError::Usage(usage.into())),
        };
        let id = self.next_bug_id;
        self.next_bug_id += 1;
        let (trigger, when) = if nth == 0 {
            (Trigger::Always, "fires on every visit".to_string())
        } else {
            (Trigger::NthMatch(nth), format!("fires on match {nth}"))
        };
        self.faults.arm(BugSpec::new(
            id,
            format!("shell-injected-{id}"),
            site,
            trigger,
            effect,
        ));
        Ok(format!("armed bug #{id} at {site:?} ({when})"))
    }
}

fn one<'a>(args: &[&'a str], usage: &str) -> Result<&'a str, CommandError> {
    if args.len() == 1 {
        Ok(args[0])
    } else {
        Err(CommandError::Usage(usage.to_string()))
    }
}

fn two<'a>(args: &[&'a str], usage: &str) -> Result<(&'a str, &'a str), CommandError> {
    if args.len() == 2 {
        Ok((args[0], args[1]))
    } else {
        Err(CommandError::Usage(usage.to_string()))
    }
}

const HELP: &str = "commands:
  ls [path]                 list a directory
  tree                      print the whole tree
  mkdir <p> | rmdir <p>     create / remove a directory
  write <p> <text>          create/overwrite a file
  append <p> <text>         append to a file
  cat <p> | rm <p>          read / unlink a file
  mv <a> <b> | ln <a> <b>   rename / hard-link
  symlink <target> <link>   create a symlink
  readlink <p> | stat <p>   inspect
  statfs | sync             filesystem-wide
  inject <site> <n> <eff>   arm a bug (RAE will mask it; n=0 -> always)
  stats [--json]            RAE runtime introspection (--json for scripts)
  audit                     on-demand shadow cross-check
  ladder                    recovery-ladder rungs, per-rung timings, retries
  standby                   warm-standby watermarks and lag
  timeline [--trace <id>]   flight-recorder dump (filtered to one trace)
  top                       latency histograms per op class and I/O phase
  readers <n> <ops> <p>     concurrent read throughput demo
  writers <n> <ops> <p>     concurrent write throughput demo
";

#[cfg(test)]
mod tests {
    use super::*;
    use rae_blockdev::MemDisk;
    use rae_fsformat::{mkfs, MkfsParams};

    fn session() -> Session {
        let dev = Arc::new(MemDisk::new(4096));
        mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
        Session::mount(dev as Arc<dyn BlockDevice>).unwrap()
    }

    #[test]
    fn readers_command_reports_throughput() {
        let mut s = session();
        s.run("write /hot some reasonably sized payload for reads")
            .unwrap();
        let out = s.run("readers 4 50 /hot").unwrap();
        assert!(out.contains("200 reads by 4 threads"), "got: {out}");
        assert!(s.run("readers 0 50 /hot").is_err(), "zero threads rejected");
        assert!(s.run("readers 4 50").is_err(), "missing path rejected");
        // the descriptor used by the workload is closed again
        assert!(s.run("stats").unwrap().contains("detected=0"));
    }

    #[test]
    fn writers_command_reports_throughput() {
        let mut s = session();
        s.run("write /hot some reasonably sized payload for writes")
            .unwrap();
        let out = s.run("writers 4 50 /hot").unwrap();
        assert!(out.contains("200 writes by 4 threads"), "got: {out}");
        assert!(s.run("writers 0 50 /hot").is_err(), "zero threads rejected");
        assert!(s.run("writers 4 50").is_err(), "missing path rejected");
        // the descriptor used by the workload is closed again
        assert!(s.run("stats").unwrap().contains("detected=0"));
    }

    #[test]
    fn basic_command_flow() {
        let mut s = session();
        s.run("mkdir /docs").unwrap();
        assert_eq!(
            s.run("write /docs/a.txt hello world").unwrap(),
            "wrote 11 bytes"
        );
        assert_eq!(s.run("cat /docs/a.txt").unwrap(), "hello world");
        let ls = s.run("ls /docs").unwrap();
        assert!(ls.contains("a.txt"));
        s.run("mv /docs/a.txt /docs/b.txt").unwrap();
        assert!(s.run("cat /docs/a.txt").is_err());
        assert_eq!(s.run("cat /docs/b.txt").unwrap(), "hello world");
        let tree = s.run("tree").unwrap();
        assert!(tree.contains("docs/"));
        assert!(tree.contains("b.txt"));
        s.run("rm /docs/b.txt").unwrap();
        s.run("rmdir /docs").unwrap();
    }

    #[test]
    fn links_and_stat() {
        let mut s = session();
        s.run("write /f data").unwrap();
        s.run("ln /f /g").unwrap();
        let st = s.run("stat /f").unwrap();
        assert!(st.contains("nlink=2"), "{st}");
        s.run("symlink /f /s").unwrap();
        assert_eq!(s.run("readlink /s").unwrap(), "/f");
        let sf = s.run("statfs").unwrap();
        assert!(sf.contains("free"));
    }

    #[test]
    fn inject_and_mask_via_shell() {
        let mut s = session();
        let msg = s.run("inject rename 1 panic").unwrap();
        assert!(msg.contains("armed"));
        s.run("write /a x").unwrap();
        // the rename panics in the base; RAE masks it; the shell sees
        // a normal success
        rae_faults::quiet_injected_panics();
        s.run("mv /a /b").unwrap();
        assert_eq!(s.run("cat /b").unwrap(), "x");
        let stats = s.run("stats").unwrap();
        assert!(stats.contains("recoveries=1"), "{stats}");
        let audit = s.run("audit").unwrap();
        assert!(audit.contains("audit clean"), "{audit}");
        let ladder = s.run("ladder").unwrap();
        assert!(ladder.contains("cold=1"), "{ladder}");
        assert!(ladder.contains("rung=cold failed_rungs=[]"), "{ladder}");
        // the cold rung's read-once view: distinct blocks and hits
        assert!(ladder.contains("shadow_device_reads="), "{ladder}");
        assert!(!ladder.contains("shadow_device_requests=0"), "{ladder}");
        assert!(!ladder.contains("shadow_memo_hits=0"), "{ladder}");
        let json = s.run("stats --json").unwrap();
        assert!(
            json.contains("\"last_recovery\": {\"rung\": \"cold\""),
            "{json}"
        );
        assert!(json.contains("\"shadow_device_requests\""), "{json}");
        assert!(json.contains("\"shadow_memo_hits\""), "{json}");
    }

    #[test]
    fn timeline_trace_filter_isolates_one_command() {
        let mut s = session();
        // command trace ids are minted 1, 2, 3, … per line: the masked
        // fault below happens inside command 3 (the mv)
        s.run("write /f data").unwrap();
        s.run("inject rename 1 error").unwrap();
        s.run("mv /f /g").unwrap();

        let traced = s.run("timeline --trace 3").unwrap();
        assert!(traced.starts_with("trace 3:"), "{traced}");
        assert!(traced.contains("error detected"), "{traced}");
        assert!(traced.contains("recovery done"), "{traced}");
        // the quiet command before the fault recorded nothing
        let quiet = s.run("timeline --trace 1").unwrap();
        assert!(quiet.contains("no retained events for trace 1"), "{quiet}");
        // the full dump still shows the same incident
        let full = s.run("timeline").unwrap();
        assert!(full.contains("error detected"), "{full}");
        assert!(s.run("timeline --trace").is_err(), "missing id rejected");
    }

    #[test]
    fn ladder_command_reports_degraded_read_only() {
        let mut s = session();
        s.run("write /keep data").unwrap();
        s.run("sync").unwrap();
        // a replay-site poison kills every shadow-backed rung; the
        // degrade reboot still works, so the mount lands read-only
        s.run("inject replay 0 error").unwrap();
        s.run("inject dirmod 1 error").unwrap();
        let err = s.run("mkdir /boom").unwrap_err();
        assert!(err.to_string().contains("errno 30"), "{err}");
        let stats = s.run("stats").unwrap();
        assert!(stats.contains("status=Degraded"), "{stats}");
        assert!(stats.contains("degraded=true"), "{stats}");
        let ladder = s.run("ladder").unwrap();
        assert!(ladder.contains("degraded=1"), "{ladder}");
        assert!(
            ladder.contains("rung=degraded failed_rungs=[cold>cold_retry]"),
            "{ladder}"
        );
        // path reads still answer (cat would need a descriptor, and
        // descriptor allocation counts as a mutation); mutations refuse
        let st = s.run("stat /keep").unwrap();
        assert!(st.contains("size=4"), "{st}");
        assert!(s.run("ls /").unwrap().contains("keep"));
        assert!(s.run("write /nope x").is_err());
    }

    #[test]
    fn errors_keep_the_session_alive() {
        let mut s = session();
        assert!(matches!(
            s.run("cat /missing"),
            Err(CommandError::Fs(FsError::NotFound))
        ));
        assert!(matches!(s.run("frobnicate"), Err(CommandError::Usage(_))));
        assert!(matches!(s.run("mkdir"), Err(CommandError::Usage(_))));
        s.run("mkdir /still-works").unwrap();
    }

    #[test]
    fn standby_command_reports_watermarks_and_warm_recovery() {
        let dev = Arc::new(MemDisk::new(4096));
        mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
        let mut s = Session::mount_with(dev as Arc<dyn BlockDevice>, StandbyOpts { enabled: true })
            .unwrap();
        s.run("mkdir /d").unwrap();
        s.run("write /d/f warm data").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while s.fs().stats().standby_lag > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "standby never caught up"
            );
            std::thread::yield_now();
        }
        let out = s.run("standby").unwrap();
        assert!(out.contains("active=true"), "{out}");
        assert!(out.contains("lag=0"), "{out}");
        // the frozen view holds what the standby read and what the base
        // overwrote, not the device
        let count = |out: &str, key: &str| -> u64 {
            let at = out.find(key).unwrap_or_else(|| panic!("{key} in {out}")) + key.len();
            out[at..].split(' ').next().unwrap().parse().unwrap()
        };
        let held = count(&out, "snapshot_blocks=");
        assert!(0 < held && held < 4096, "{out}");
        assert!(count(&out, "snapshot_captures=") <= held, "{out}");

        // a masked panic now recovers through the warm standby and the
        // standby respawns for the next fault
        s.run("inject rename 1 panic").unwrap();
        rae_faults::quiet_injected_panics();
        s.run("mv /d/f /d/g").unwrap();
        assert_eq!(s.run("cat /d/g").unwrap(), "warm data");
        let stats = s.run("stats").unwrap();
        assert!(stats.contains("recoveries=1"), "{stats}");
        // no other reader ran while the gate was held
        assert!(stats.contains("reads_served_in_recovery=0"), "{stats}");
        let out = s.run("standby").unwrap();
        assert!(out.contains("active=true"), "{out}");
        assert!(out.contains("degraded=false"), "{out}");
        // the warm rung's resync: it had candidates, and decided them
        // without reading the live device
        let ladder = s.run("ladder").unwrap();
        assert!(ladder.contains("rung=warm"), "{ladder}");
        assert!(ladder.contains("shadow_device_reads=0 "), "{ladder}");
        assert!(ladder.contains("resync_candidates="), "{ladder}");
        assert!(!ladder.contains("resync_candidates=0"), "{ladder}");
        assert!(ladder.contains("reads_served=0"), "{ladder}");
        let out = s.run("standby").unwrap();
        assert!(
            count(&out, "snapshot_blocks=") > 0,
            "resumed over the view: {out}"
        );
        let json = s.run("stats --json").unwrap();
        assert!(json.contains("\"snapshot_blocks\": "), "{json}");
        assert!(json.contains("\"snapshot_captures\": "), "{json}");
        assert!(json.contains("\"resync_pruned\""), "{json}");
        assert!(json.contains("\"reads_served\": 0"), "{json}");
        assert!(json.contains("\"reads_served_in_recovery\": 0"), "{json}");
    }

    /// The mount's device meter times every device request into
    /// telemetry: journal commits move their records as extents, so the
    /// write requests come out fewer than the blocks written.
    #[test]
    fn stats_json_reports_device_extents() {
        let dev = Arc::new(MemDisk::new(4096));
        mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
        let mut s = Session::mount_with(dev as Arc<dyn BlockDevice>, StandbyOpts { enabled: true })
            .unwrap();
        for i in 0..4 {
            s.run(&format!("write /f{i} payload")).unwrap();
            s.run("sync").unwrap();
        }
        let json = s.run("stats --json").unwrap();
        let field = |after: &str, key: &str| -> u64 {
            let at = json
                .find(after)
                .unwrap_or_else(|| panic!("{after} in {json}"));
            let rest = &json[at..];
            let v = &rest[rest.find(key).unwrap() + key.len()..];
            v[..v.find(|c: char| !c.is_ascii_digit()).unwrap()]
                .parse()
                .unwrap()
        };
        let requests = field("\"write\": {", "\"requests\": ");
        let blocks = field("\"write\": {", "\"blocks\": ");
        assert!(0 < requests && requests < blocks, "{json}");
        assert!(field("\"journal_commit\"", "\"count\": ") >= 4, "{json}");
    }

    #[test]
    fn cold_session_reports_inactive_standby() {
        let mut s = session();
        let out = s.run("standby").unwrap();
        assert!(out.contains("active=false"), "{out}");
        assert!(
            out.contains("snapshot_blocks=0 snapshot_captures=0"),
            "{out}"
        );
        assert!(s.run("help").unwrap().contains("standby"));
    }

    #[test]
    fn stats_json_renders_full_counter_set() {
        let mut s = session();
        s.run("mkdir /d").unwrap();
        let out = s.run("stats --json").unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        for key in [
            "\"volumes\"",
            "\"default\"",
            "\"status\"",
            "\"recoveries\"",
            "\"rung_cold_time_ns\"",
            "\"standby\"",
            "\"last_recovery\": null",
            "\"journal_commit\"",
            "\"device_io\"",
            "\"degraded\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // balanced braces is a cheap well-formedness check with the
        // vendored serde stubbed out
        let opens = out.matches('{').count();
        assert_eq!(opens, out.matches('}').count(), "{out}");
    }

    #[test]
    fn timeline_and_top_after_masked_fault() {
        let mut s = session();
        let out = s.run("timeline").unwrap();
        assert!(out.contains("flight recorder empty"), "{out}");

        s.run("write /f data").unwrap();
        s.run("inject rename 1 error").unwrap();
        s.run("mv /f /g").unwrap();
        let out = s.run("timeline").unwrap();
        assert!(out.contains("error detected"), "{out}");
        assert!(out.contains("recovery started"), "{out}");
        assert!(out.contains("recovery done"), "{out}");

        let top = s.run("top").unwrap();
        assert!(top.contains("telemetry on"), "{top}");
        assert!(top.contains("op/create"), "{top}");
        assert!(top.contains("p99_us"), "{top}");

        // the ladder view now carries the per-rung time breakdown
        let ladder = s.run("ladder").unwrap();
        assert!(ladder.contains("rung time:"), "{ladder}");
        assert!(ladder.contains("rung_time="), "{ladder}");
    }

    #[test]
    fn append_appends() {
        let mut s = session();
        s.run("write /log line1").unwrap();
        s.run("append /log +line2").unwrap();
        assert_eq!(s.run("cat /log").unwrap(), "line1+line2");
    }
}
