//! The closed-loop load threads: executors that turn a generated
//! [`Op`] into a call at one boundary, and the timing loop around them.
//!
//! Nothing in the timed phase allocates or does I/O on the harness
//! side: samples go into a buffer preallocated (and pre-touched, so
//! `peak_rss_mb` does not depend on how many operations completed) at
//! set-up, write payloads come from a per-thread scratch block, and
//! wire requests are rebuilt in place.

use crate::spans::{self, Span, OP_SPAN_CAP};
use crate::stream::{Op, CHURN_CYCLE, CHURN_SLOTS, IO_BYTES, SMALL_BYTES};
use rae_server::{Client, FsOp as WireOp, Reply, Request, Response, Volume};
use rae_vfs::{Fd, FileSystem, OpenFlags};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples kept per thread. Every operation is timed; a thread stores
/// every `Spec::sample_every`-th latency, which is what lets the buffer
/// span the whole timed phase of the fastest workload. Should a thread
/// fill it all the same, later operations still count toward
/// `ops_per_s` and just leave no sample.
pub const SAMPLE_CAP: usize = 1 << 20;

/// One entry of a thread's file table.
#[derive(Debug, Clone)]
pub struct FileEnt {
    /// Index of the filesystem (in-process) or wire volume id (server).
    pub vol: u32,
    pub fd: Fd,
    pub path: String,
}

/// The churn thread's precomputed names: `first[slot]` is created and
/// renamed to `second[slot]`, which is unlinked.
pub struct ChurnNames {
    pub first: Vec<String>,
    pub second: Vec<String>,
}

impl ChurnNames {
    pub fn new(dir: &str) -> ChurnNames {
        ChurnNames {
            first: (0..CHURN_SLOTS).map(|i| format!("{dir}/c{i:04}")).collect(),
            second: (0..CHURN_SLOTS).map(|i| format!("{dir}/d{i:04}")).collect(),
        }
    }
}

/// Executes operations through the `FileSystem` trait: the `RaeFs` and
/// `BaseFs` boundaries, the no-op calibration target, and the model
/// replay of the oracle all go through here.
pub struct FsExec<'a> {
    pub fss: &'a [&'a dyn FileSystem],
    pub files: &'a [FileEnt],
    pub churn: &'a ChurnNames,
    /// Reads must return the populated fill byte (static file sets).
    pub verify_reads: bool,
    block: Vec<u8>,
    churn_fd: Fd,
}

impl<'a> FsExec<'a> {
    pub fn new(
        fss: &'a [&'a dyn FileSystem],
        files: &'a [FileEnt],
        churn: &'a ChurnNames,
        verify_reads: bool,
    ) -> FsExec<'a> {
        FsExec {
            fss,
            files,
            churn,
            verify_reads,
            block: vec![0; IO_BYTES],
            churn_fd: Fd(0),
        }
    }

    /// Run one operation; `false` if it failed, was refused, or
    /// returned the wrong bytes.
    pub fn exec(&mut self, op: Op) -> bool {
        let fs0 = self.fss[0];
        match op {
            Op::Read { file, block } => {
                let f = &self.files[file as usize];
                match self.fss[f.vol as usize].read(
                    f.fd,
                    u64::from(block) * IO_BYTES as u64,
                    IO_BYTES,
                ) {
                    Ok(data) if self.verify_reads => {
                        let want = crate::stream::populate_fill(file as usize, block as usize);
                        data.len() == IO_BYTES && data[0] == want && data[IO_BYTES - 1] == want
                    }
                    Ok(data) => data.len() == IO_BYTES,
                    Err(_) => false,
                }
            }
            Op::Stat { file } => {
                let f = &self.files[file as usize];
                self.fss[f.vol as usize].stat(&f.path).is_ok()
            }
            Op::Write { file, block, fill } => {
                let f = &self.files[file as usize];
                self.block.fill(fill);
                self.fss[f.vol as usize]
                    .write(f.fd, u64::from(block) * IO_BYTES as u64, &self.block)
                    .is_ok_and(|n| n == IO_BYTES)
            }
            Op::Fsync { file } => {
                let f = &self.files[file as usize];
                self.fss[f.vol as usize].fsync(f.fd).is_ok()
            }
            Op::Create { slot } => {
                match fs0.open(
                    &self.churn.first[slot as usize],
                    OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::EXCL,
                ) {
                    Ok(fd) => {
                        self.churn_fd = fd;
                        true
                    }
                    Err(_) => false,
                }
            }
            Op::WriteSmall { fill } => {
                self.block[..SMALL_BYTES].fill(fill);
                fs0.write(self.churn_fd, 0, &self.block[..SMALL_BYTES])
                    .is_ok_and(|n| n == SMALL_BYTES)
            }
            Op::Close => fs0.close(self.churn_fd).is_ok(),
            Op::Rename { slot } => fs0
                .rename(
                    &self.churn.first[slot as usize],
                    &self.churn.second[slot as usize],
                )
                .is_ok(),
            Op::Unlink { slot } => fs0.unlink(&self.churn.second[slot as usize]).is_ok(),
        }
    }
}

/// The two server-side boundaries of `srv-mixed`.
pub enum WireTarget {
    /// A full round trip over loopback TCP.
    Call(Client),
    /// `Volume::apply` on the server's own volumes, skipping the wire
    /// and the worker pool (indexed by wire volume id).
    Apply(Vec<Arc<Volume>>),
}

/// Executes `srv-mixed` operations as wire requests, rebuilt in place.
pub struct WireExec<'a> {
    pub target: WireTarget,
    pub files: &'a [FileEnt],
    read: Request,
    write: Request,
    stat: Request,
    fsync: Request,
}

impl<'a> WireExec<'a> {
    pub fn new(target: WireTarget, files: &'a [FileEnt]) -> WireExec<'a> {
        let fs = |op| Request::Fs { volume: 0, op };
        WireExec {
            target,
            files,
            read: fs(WireOp::Read {
                fd: Fd(0),
                offset: 0,
                len: IO_BYTES as u32,
            }),
            write: fs(WireOp::Write {
                fd: Fd(0),
                offset: 0,
                data: vec![0; IO_BYTES],
            }),
            stat: fs(WireOp::Stat {
                path: String::with_capacity(32),
            }),
            fsync: fs(WireOp::Fsync { fd: Fd(0) }),
        }
    }

    pub fn exec(&mut self, op: Op) -> bool {
        let (req, f) = match op {
            Op::Read { file, .. } => (&mut self.read, &self.files[file as usize]),
            Op::Write { file, .. } => (&mut self.write, &self.files[file as usize]),
            Op::Stat { file } => (&mut self.stat, &self.files[file as usize]),
            Op::Fsync { file } => (&mut self.fsync, &self.files[file as usize]),
            _ => unreachable!("srv-mixed generates no churn operations"),
        };
        let Request::Fs { volume, op: wire } = &mut *req else {
            unreachable!("all templates are Fs requests")
        };
        *volume = f.vol;
        match (wire, op) {
            (WireOp::Read { fd, offset, .. }, Op::Read { block, .. }) => {
                *fd = f.fd;
                *offset = u64::from(block) * IO_BYTES as u64;
            }
            (WireOp::Write { fd, offset, data }, Op::Write { block, fill, .. }) => {
                *fd = f.fd;
                *offset = u64::from(block) * IO_BYTES as u64;
                data.fill(fill);
            }
            (WireOp::Stat { path }, _) => path.clone_from(&f.path),
            (WireOp::Fsync { fd }, _) => *fd = f.fd,
            _ => unreachable!("template matches its operation"),
        }
        let req = &*req;
        let reply = match &mut self.target {
            WireTarget::Call(client) => match client.call(req) {
                Ok(Response::Ok(reply)) => reply,
                _ => return false,
            },
            WireTarget::Apply(volumes) => {
                let Request::Fs { volume, op } = req else {
                    unreachable!("all templates are Fs requests")
                };
                match volumes[*volume as usize].apply(op) {
                    Ok(reply) => reply,
                    Err(_) => return false,
                }
            }
        };
        match (op, reply) {
            (Op::Read { .. }, Reply::Data(d)) => d.len() == IO_BYTES,
            (Op::Write { .. }, Reply::Written(n)) => n as usize == IO_BYTES,
            (Op::Stat { .. }, Reply::Stat(_)) | (Op::Fsync { .. }, Reply::Unit) => true,
            _ => false,
        }
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub lat_ns: u32,
    pub kind: u8,
}

/// What the load threads of one phase tell each other: whether thread 0
/// has finished the phase and, on the fault workloads (`Drive::windows`),
/// every thread's latest completion time (ns since the run epoch, one
/// cache line per thread) and whether thread 0 is inside a probe
/// operation right now.
pub struct Board {
    last_done: Vec<Slot>,
    probing: AtomicBool,
    over: AtomicBool,
}

#[repr(align(64))]
struct Slot(AtomicU64);

impl Board {
    /// A board for a phase starting `start_ns` after the run epoch.
    pub fn new(threads: usize, start_ns: u64) -> Board {
        Board {
            last_done: (0..threads)
                .map(|_| Slot(AtomicU64::new(start_ns)))
                .collect(),
            probing: AtomicBool::new(false),
            over: AtomicBool::new(false),
        }
    }

    fn latest(&self) -> u64 {
        self.last_done
            .iter()
            .map(|s| s.0.load(Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// One probe operation of thread 0.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The latest completion by any thread when the probe was issued.
    pub before_ns: u64,
    /// When the probe operation completed.
    pub done_ns: u64,
}

/// The client-observed unavailability window of one probe: the longest
/// time, from the last reply anybody received before the probe
/// operation was issued until the probe operation's own reply, during
/// which *no* client thread received a reply. `during` holds, per other
/// thread, the (ascending) completion times it logged while a probe was
/// in flight.
///
/// Around an injected fault this is the gap between the last completion
/// before the stall and the first after it, as in
/// `rae_workloads::unavailability_window`, made robust at both ends: an
/// operation that was in flight when the fault hit and completed a
/// moment later, or a blocked reader that is released a moment before
/// the faulting operation returns, only trims the window by that
/// moment. A thread that keeps being served through a recovery drives
/// the window toward zero.
pub fn stall_window(probe: Probe, during: &[&[u64]]) -> u64 {
    let mut replies = vec![probe.before_ns, probe.done_ns];
    for done in during {
        let from = done.partition_point(|&t| t <= probe.before_ns);
        let to = done.partition_point(|&t| t < probe.done_ns);
        replies.extend_from_slice(&done[from..to.max(from)]);
    }
    replies.sort_unstable();
    replies.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

/// What one load thread measured in one phase.
pub struct ThreadLog {
    pub samples: Vec<Sample>,
    /// Samples actually written (`<= samples.len()`).
    pub kept: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Sum of per-operation latencies.
    pub busy_ns: u64,
    /// Device time spent on this thread while inside operations.
    pub dev_ns: u64,
    /// This thread's probe operations (thread 0 only).
    pub probes: Vec<Probe>,
    /// Completion times logged while another thread's probe was in
    /// flight, the `during` input of [`stall_window`].
    pub during: Vec<u64>,
}

impl ThreadLog {
    /// Preallocate and touch every page of the sample buffer.
    pub fn with_capacity(cap: usize) -> ThreadLog {
        ThreadLog {
            samples: vec![Sample { lat_ns: 1, kind: 0 }; cap],
            kept: 0,
            attempted: 0,
            failed: 0,
            busy_ns: 0,
            dev_ns: 0,
            probes: Vec::with_capacity(1 << 16),
            during: Vec::with_capacity(1 << 18),
        }
    }

    /// The window of every probe of `logs[0]`, ascending.
    pub fn windows(logs: &[ThreadLog]) -> Vec<u64> {
        let during: Vec<&[u64]> = logs[1..].iter().map(|l| l.during.as_slice()).collect();
        let mut windows: Vec<u64> = logs[0]
            .probes
            .iter()
            .map(|&p| stall_window(p, &during))
            .collect();
        windows.sort_unstable();
        windows
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Ops(u64),
    Deadline(Instant),
}

/// Hook around every `probe_every`-th operation of a thread: called
/// with `true` just before the operation is issued (outside its timing)
/// and with `false` right after it returns.
pub type ProbeHook<'a> = &'a mut dyn FnMut(bool, u64);

/// Everything `drive` needs besides the executor.
pub struct Drive<'a> {
    pub stream: &'a [Op],
    /// Running index of the first operation (phases continue the stream).
    pub first: u64,
    pub until: Until,
    pub epoch: Instant,
    /// This thread's index on `board`.
    pub thread: usize,
    pub board: &'a Board,
    /// Store the latency of every this-many-th operation.
    pub sample_every: u64,
    /// Pause between a reply and the next request (the fault
    /// workloads' reader); `None` for a tight closed loop.
    pub think: Option<Duration>,
    /// Keep what [`stall_window`] needs: completion times on `board`,
    /// probes, and completions during another thread's probe. Only the
    /// fault workloads do; elsewhere the loop carries none of it.
    pub windows: bool,
    /// 0 = never probe.
    pub probe_every: u64,
    pub probe: Option<ProbeHook<'a>>,
    /// Name under which operation spans are recorded (traced runs).
    pub span: Option<&'static str>,
}

/// The closed loop: issue, wait, record, repeat. Returns the running
/// index after the last operation and the spans recorded.
pub fn drive(
    mut d: Drive<'_>,
    log: &mut ThreadLog,
    mut exec: impl FnMut(Op) -> bool,
) -> (u64, Vec<Span>) {
    let churn = matches!(d.stream.first(), Some(Op::Create { .. }));
    let len = d.stream.len() as u64;
    let mut spans = Vec::with_capacity(if d.span.is_some() { OP_SPAN_CAP } else { 0 });
    let dev0 = spans::thread_dev_ns();
    let mut i = d.first;
    loop {
        let op = d.stream[(i % len) as usize];
        let probing = d.probe_every != 0 && i.is_multiple_of(d.probe_every);
        let mut before_ns = 0;
        if probing {
            if let Some(hook) = d.probe.as_mut() {
                hook(true, i);
            }
            before_ns = d.board.latest();
            d.board.probing.store(true, Relaxed);
        }
        let span_id = match d.span {
            Some(_) if spans.len() < OP_SPAN_CAP => ((d.thread as u64 + 1) << 40) | (i + 1),
            _ => 0,
        };
        spans::set_current_op(span_id);
        let t0 = Instant::now();
        let ok = exec(op);
        let t1 = Instant::now();
        let lat = (t1 - t0).as_nanos() as u64;
        let end_ns = (t1 - d.epoch).as_nanos() as u64;
        if probing {
            d.board.probing.store(false, Relaxed);
            log.probes.push(Probe {
                before_ns,
                done_ns: end_ns,
            });
            if let Some(hook) = d.probe.as_mut() {
                hook(false, i);
            }
        } else if d.windows
            && d.board.probing.load(Relaxed)
            && log.during.len() < log.during.capacity()
        {
            log.during.push(end_ns);
        }
        if d.windows {
            d.board.last_done[d.thread].0.store(end_ns, Relaxed);
        }
        if span_id != 0 {
            spans.push(Span {
                id: span_id,
                parent: 0,
                op_id: span_id,
                name: d.span.expect("span id implies a span name"),
                start_ns: end_ns - lat,
                end_ns,
            });
        }
        if i.is_multiple_of(d.sample_every) && log.kept < log.samples.len() {
            log.samples[log.kept] = Sample {
                lat_ns: u32::try_from(lat).unwrap_or(u32::MAX),
                kind: op.kind(),
            };
            log.kept += 1;
        }
        log.attempted += 1;
        log.failed += u64::from(!ok);
        log.busy_ns += lat;
        i += 1;
        if let Some(pause) = d.think {
            std::thread::sleep(pause);
        }
        // the churn thread only stops between cycles, so it never
        // leaves a descriptor open or a name behind
        if churn && !i.is_multiple_of(CHURN_CYCLE as u64) {
            continue;
        }
        match d.until {
            Until::Ops(n) if i - d.first >= n => break,
            Until::Deadline(at) if t1 >= at => break,
            // thread 0 ends the phase for everyone, so a paced thread
            // does not drag an operation-counted warm-up out
            _ if d.board.over.load(Relaxed) => break,
            _ => {}
        }
    }
    if d.thread == 0 {
        d.board.over.store(true, Relaxed);
    }
    spans::set_current_op(0);
    log.dev_ns += spans::thread_dev_ns() - dev0;
    (i, spans)
}
