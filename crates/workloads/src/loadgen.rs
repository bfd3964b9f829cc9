//! Socket-level load generator for the multi-tenant [`rae_server`].
//!
//! Where a script drives an in-process `FileSystem` directly, this
//! module simulates a *fleet of remote tenants*: N
//! connection threads each multiplex many logical clients over one
//! socket, issuing a configurable read/write mix against the server's
//! volumes with Zipfian file popularity (a few hot files absorb most
//! of the traffic — the skew the paper's hot-storage setting assumes).
//!
//! Every operation's latency and completion time are recorded against
//! a shared epoch, so the caller can inject a fault mid-run and later
//! compute the *client-observed unavailability window*: the gap
//! between the last success before the fault and the first success
//! after it ([`unavailability_window`]).

use rae_server::{Client, ClientError};
use rae_telemetry::TraceCtx;
use rae_vfs::Fd;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Volume ids to spread load over (logical clients are assigned
    /// round-robin).
    pub volumes: Vec<u32>,
    /// Number of real TCP connections (one thread each).
    pub connections: usize,
    /// Logical clients multiplexed per connection; total concurrent
    /// clients = `connections * clients_per_connection`.
    pub clients_per_connection: usize,
    /// Operations each logical client performs.
    pub ops_per_client: usize,
    /// Percentage of operations that are writes (0–100); the rest are
    /// reads salted with a small stat/readdir fraction.
    pub write_pct: u32,
    /// Zipf exponent for file popularity (0 = uniform, ~1 = classic
    /// web-object skew).
    pub zipf_exponent: f64,
    /// Files populated per volume.
    pub files_per_volume: usize,
    /// Size of each populated file in bytes.
    pub file_size: usize,
    /// Bytes per read/write operation.
    pub read_size: usize,
    /// RNG seed; per-connection streams derive deterministically.
    pub seed: u64,
    /// Stamp a fresh v2 trace context on every operation (after
    /// per-connection version negotiation; a v1 server silently gets
    /// plain frames). Trace ids are deterministic:
    /// `(connection+1) << 40 | op-sequence`.
    pub trace: bool,
}

impl Default for LoadGenConfig {
    fn default() -> LoadGenConfig {
        LoadGenConfig {
            addr: String::new(),
            volumes: Vec::new(),
            connections: 8,
            clients_per_connection: 16,
            ops_per_client: 50,
            write_pct: 30,
            zipf_exponent: 0.99,
            files_per_volume: 32,
            file_size: 16 * 1024,
            read_size: 1024,
            seed: 0x10AD,
            trace: false,
        }
    }
}

/// Zipfian sampler over ranks `0..n` via a precomputed CDF scaled to
/// `u64`, sampled with a single `partition_point` — no float work on
/// the hot path and no external distribution crate.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<u64>,
}

impl Zipf {
    /// Build the sampler for `n` ranks with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        // scale into u64 with headroom so the running sum cannot overflow
        let scale = (u64::MAX / 2) as f64 / total;
        let mut acc = 0.0f64;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w;
                (acc * scale) as u64
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let top = *self.cdf.last().expect("non-empty cdf");
        let r = rng.gen_range(0..top);
        self.cdf
            .partition_point(|&c| c <= r)
            .min(self.cdf.len() - 1)
    }
}

/// Path of populated file `i` on a volume.
#[must_use]
pub fn volume_file_path(i: usize) -> String {
    format!("/data/f{i:04}")
}

/// Populate every volume in `cfg.volumes` with its working set over
/// the wire and return, per volume, the open descriptors for its
/// files. Descriptors are volume-scoped on the server, so every
/// connection can use them; they also survive server-side recoveries
/// (RAE reconstructs descriptor tables).
///
/// # Errors
///
/// Connection or filesystem errors during population.
pub fn populate_volumes(cfg: &LoadGenConfig) -> Result<Vec<(u32, Vec<Fd>)>, ClientError> {
    let mut client = Client::connect(cfg.addr.as_str())?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.volumes.len());
    for &vol in &cfg.volumes {
        match client.mkdir(vol, "/data") {
            // re-population over a previous run's working set is fine
            Ok(()) | Err(ClientError::Fs(rae_vfs::FsError::Exists)) => {}
            Err(e) => return Err(e),
        }
        let mut fds = Vec::with_capacity(cfg.files_per_volume);
        for i in 0..cfg.files_per_volume {
            let fd = client.open(
                vol,
                &volume_file_path(i),
                rae_vfs::OpenFlags::RDWR | rae_vfs::OpenFlags::CREATE,
            )?;
            let mut data = vec![0u8; cfg.file_size];
            rng.fill(&mut data[..]);
            let mut off = 0usize;
            while off < data.len() {
                let end = (off + 8192).min(data.len());
                client.write(vol, fd, off as u64, &data[off..end])?;
                off = end;
            }
            fds.push(fd);
        }
        client.sync(vol)?;
        out.push((vol, fds));
    }
    Ok(out)
}

/// One completed operation against one volume.
struct OpSample {
    /// Index into `cfg.volumes`.
    vol_idx: usize,
    /// Completion time, nanoseconds since the run epoch.
    at_ns: u64,
    /// Wire round-trip latency in nanoseconds.
    latency_ns: u64,
    outcome: OpOutcome,
}

enum OpOutcome {
    Ok,
    /// Filesystem-level error (server stayed up).
    FsError,
    /// Quota / shutdown / busy refusal.
    Refused,
    /// Transport failure (connection dropped mid-run).
    IoError,
}

/// Aggregated per-volume view of a finished run.
#[derive(Debug, Clone)]
pub struct VolumeLoad {
    /// The volume id.
    pub volume: u32,
    /// Operations attempted against this volume.
    pub ops: u64,
    /// Filesystem-level errors observed.
    pub errors: u64,
    /// Service refusals (quota, shutdown, busy).
    pub refusals: u64,
    /// Transport errors.
    pub io_errors: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// 99.9th percentile latency.
    pub p999_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
    /// `(completion ns since epoch, success)` for every operation,
    /// sorted by time — input to [`unavailability_window`].
    pub timeline: Vec<(u64, bool)>,
}

/// Result of a completed load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock duration of the traffic phase.
    pub elapsed: Duration,
    /// Total operations attempted.
    pub total_ops: u64,
    /// Total filesystem errors.
    pub total_errors: u64,
    /// Total service refusals.
    pub total_refusals: u64,
    /// Total transport errors.
    pub total_io_errors: u64,
    /// Per-volume breakdown, ordered as `cfg.volumes`.
    pub per_volume: Vec<VolumeLoad>,
}

impl LoadReport {
    /// Aggregate operations per second over the run.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_ops as f64 / secs
    }
}

/// An in-flight load run: poll [`LoadRun::progress`] to coordinate
/// mid-traffic events (fault injection), then [`LoadRun::join`].
pub struct LoadRun {
    handles: Vec<JoinHandle<Vec<OpSample>>>,
    done: Arc<AtomicU64>,
    total_ops: u64,
    volumes: Vec<u32>,
    epoch: Instant,
    started: Instant,
}

impl LoadRun {
    /// Fraction of planned operations completed so far (0.0–1.0).
    #[must_use]
    pub fn progress(&self) -> f64 {
        if self.total_ops == 0 {
            return 1.0;
        }
        self.done.load(Ordering::Relaxed) as f64 / self.total_ops as f64
    }

    /// Nanoseconds elapsed on the shared epoch clock — use the same
    /// value to timestamp externally injected events.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wait for every connection thread and aggregate the report.
    ///
    /// # Panics
    ///
    /// Panics if a connection thread itself panicked.
    #[must_use]
    pub fn join(self) -> LoadReport {
        let mut samples: Vec<OpSample> = Vec::new();
        for h in self.handles {
            samples.extend(h.join().expect("loadgen connection thread panicked"));
        }
        let elapsed = self.started.elapsed();
        let mut per_volume = Vec::with_capacity(self.volumes.len());
        for (idx, &volume) in self.volumes.iter().enumerate() {
            let mut lat: Vec<u64> = Vec::new();
            let mut timeline: Vec<(u64, bool)> = Vec::new();
            let (mut ops, mut errors, mut refusals, mut io_errors) = (0u64, 0u64, 0u64, 0u64);
            for s in samples.iter().filter(|s| s.vol_idx == idx) {
                ops += 1;
                let ok = matches!(s.outcome, OpOutcome::Ok);
                match s.outcome {
                    OpOutcome::Ok => lat.push(s.latency_ns),
                    OpOutcome::FsError => errors += 1,
                    OpOutcome::Refused => refusals += 1,
                    OpOutcome::IoError => io_errors += 1,
                }
                timeline.push((s.at_ns, ok));
            }
            timeline.sort_unstable();
            lat.sort_unstable();
            per_volume.push(VolumeLoad {
                volume,
                ops,
                errors,
                refusals,
                io_errors,
                p50_ns: percentile(&lat, 500),
                p99_ns: percentile(&lat, 990),
                p999_ns: percentile(&lat, 999),
                max_ns: lat.last().copied().unwrap_or(0),
                timeline,
            });
        }
        LoadReport {
            elapsed,
            total_ops: per_volume.iter().map(|v| v.ops).sum(),
            total_errors: per_volume.iter().map(|v| v.errors).sum(),
            total_refusals: per_volume.iter().map(|v| v.refusals).sum(),
            total_io_errors: per_volume.iter().map(|v| v.io_errors).sum(),
            per_volume,
        }
    }
}

/// Value at permille `p` of an ascending-sorted latency list
/// (nearest-rank; 0 for an empty list).
#[must_use]
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 - 1) * permille / 1000;
    sorted[rank as usize]
}

/// Client-observed unavailability window around a fault injected at
/// `fault_ns` (epoch nanoseconds): the gap between the last success
/// at or before the fault and the first success after it. `None` if
/// the timeline has no success on one side (the volume never came
/// back, or the fault predates all traffic).
#[must_use]
pub fn unavailability_window(timeline: &[(u64, bool)], fault_ns: u64) -> Option<u64> {
    let last_before = timeline
        .iter()
        .filter(|(t, ok)| *ok && *t <= fault_ns)
        .map(|(t, _)| *t)
        .max();
    let first_after = timeline
        .iter()
        .filter(|(t, ok)| *ok && *t > fault_ns)
        .map(|(t, _)| *t)
        .min();
    match (last_before, first_after) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    }
}

/// Start the traffic phase: `cfg.connections` threads, each
/// multiplexing `cfg.clients_per_connection` logical clients
/// round-robin so per-client streams interleave like independent
/// tenants rather than running back-to-back.
///
/// `fds` is the per-volume descriptor working set from
/// [`populate_volumes`]; `epoch` is the shared clock origin.
///
/// # Errors
///
/// Returns the first connection error (no threads are left running on
/// failure).
pub fn start_load(
    cfg: &LoadGenConfig,
    fds: &[(u32, Vec<Fd>)],
    epoch: Instant,
) -> Result<LoadRun, ClientError> {
    assert_eq!(fds.len(), cfg.volumes.len(), "fds must match cfg.volumes");
    let total_ops = (cfg.connections * cfg.clients_per_connection * cfg.ops_per_client) as u64;
    let done = Arc::new(AtomicU64::new(0));
    let zipf = Zipf::new(cfg.files_per_volume.max(1), cfg.zipf_exponent);
    let fds: Arc<Vec<Vec<Fd>>> = Arc::new(fds.iter().map(|(_, f)| f.clone()).collect());

    // connect everything up-front so a bad address fails fast instead
    // of inside worker threads
    let mut clients = Vec::with_capacity(cfg.connections);
    for _ in 0..cfg.connections {
        let mut client = Client::connect(cfg.addr.as_str())?;
        if cfg.trace {
            client.negotiate()?;
        }
        clients.push(client);
    }

    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.connections);
    for (conn_idx, client) in clients.into_iter().enumerate() {
        let cfg = cfg.clone();
        let zipf = zipf.clone();
        let fds = Arc::clone(&fds);
        let done = Arc::clone(&done);
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn_idx as u64 + 1);
        handles.push(
            std::thread::Builder::new()
                .name(format!("rae-loadgen-{conn_idx}"))
                .spawn(move || {
                    connection_stream(client, &cfg, conn_idx, &zipf, &fds, seed, epoch, &done)
                })
                .expect("spawn loadgen thread"),
        );
    }
    Ok(LoadRun {
        handles,
        done,
        total_ops,
        volumes: cfg.volumes.clone(),
        epoch,
        started,
    })
}

/// Convenience wrapper: populate, run to completion, join.
///
/// # Errors
///
/// Population or connection errors.
pub fn run_load(cfg: &LoadGenConfig) -> Result<LoadReport, ClientError> {
    let fds = populate_volumes(cfg)?;
    let run = start_load(cfg, &fds, Instant::now())?;
    Ok(run.join())
}

/// The per-connection traffic loop. Logical clients take turns op by
/// op; each owns a deterministic RNG stream and a fixed volume
/// assignment (`(conn_idx * cpc + c) % volumes`).
#[allow(clippy::too_many_arguments)]
fn connection_stream(
    mut client: Client,
    cfg: &LoadGenConfig,
    conn_idx: usize,
    zipf: &Zipf,
    fds: &[Vec<Fd>],
    seed: u64,
    epoch: Instant,
    done: &AtomicU64,
) -> Vec<OpSample> {
    let cpc = cfg.clients_per_connection.max(1);
    let mut rngs: Vec<SmallRng> = (0..cpc)
        .map(|c| SmallRng::seed_from_u64(seed.wrapping_add((c as u64) << 32)))
        .collect();
    let mut samples = Vec::with_capacity(cpc * cfg.ops_per_client);
    let span = cfg.file_size.saturating_sub(cfg.read_size).max(1) as u64;
    let mut broken = false;
    let mut op_seq: u64 = 0;
    for round in 0..cfg.ops_per_client {
        for (c, rng) in rngs.iter_mut().enumerate() {
            let vol_idx = (conn_idx * cpc + c) % cfg.volumes.len().max(1);
            let volume = cfg.volumes[vol_idx];
            let file = zipf.sample(rng).min(fds[vol_idx].len().saturating_sub(1));
            let fd = fds[vol_idx][file];
            let off = rng.gen_range(0..span);
            let roll = rng.gen_range(0..100u32);
            if cfg.trace {
                op_seq += 1;
                client.set_trace(Some(TraceCtx {
                    trace_id: ((conn_idx as u64 + 1) << 40) | op_seq,
                    span: 0,
                }));
            }
            let t0 = Instant::now();
            let result: Result<(), ClientError> = if broken {
                // connection died earlier this stream; report the rest
                // as transport failures without hammering the socket
                Err(ClientError::Protocol("connection abandoned"))
            } else if roll < cfg.write_pct {
                let buf = vec![(round as u8).wrapping_add(c as u8); cfg.read_size];
                client.write(volume, fd, off, &buf).map(|_| ())
            } else if roll >= 98 {
                client.readdir(volume, "/data").map(|_| ())
            } else if roll >= 93 {
                client.stat(volume, &volume_file_path(file)).map(|_| ())
            } else if roll >= 91 {
                // a small fsync fraction keeps the journal/commit path
                // exercised so attribution layers beyond the cache show up
                client.fsync(volume, fd).map(|_| ())
            } else {
                client
                    .read(volume, fd, off, cfg.read_size as u32)
                    .map(|_| ())
            };
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let at_ns = epoch.elapsed().as_nanos() as u64;
            let outcome = match result {
                Ok(()) => OpOutcome::Ok,
                Err(e) if e.is_service_refusal() => OpOutcome::Refused,
                Err(ClientError::Fs(_)) => OpOutcome::FsError,
                Err(_) => {
                    // try one reconnect; if that fails the stream is done
                    if !broken {
                        match Client::connect(cfg.addr.as_str()) {
                            Ok(mut fresh) => {
                                if cfg.trace && fresh.negotiate().is_err() {
                                    broken = true;
                                }
                                client = fresh;
                            }
                            Err(_) => broken = true,
                        }
                    }
                    OpOutcome::IoError
                }
            };
            samples.push(OpSample {
                vol_idx,
                at_ns,
                latency_ns,
                outcome,
            });
            done.fetch_add(1, Ordering::Relaxed);
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(64, 1.0);
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let xs: Vec<usize> = (0..1000).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..1000).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        let hot = xs.iter().filter(|&&x| x == 0).count();
        let cold = xs.iter().filter(|&&x| x == 63).count();
        assert!(hot > 100, "rank 0 should dominate, got {hot}");
        assert!(hot > 10 * cold.max(1), "skew too weak: {hot} vs {cold}");
        assert!(xs.iter().all(|&x| x < 64));
    }

    #[test]
    fn zipf_exponent_zero_is_roughly_uniform() {
        let z = Zipf::new(8, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (600..1400).contains(&c),
                "rank {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 500), 50);
        assert_eq!(percentile(&xs, 990), 99);
        assert_eq!(percentile(&xs, 999), 99);
        assert_eq!(percentile(&xs, 1000), 100);
        assert_eq!(percentile(&[], 500), 0);
        assert_eq!(percentile(&[42], 999), 42);
    }

    #[test]
    fn unavailability_window_brackets_the_fault() {
        let timeline = [
            (100, true),
            (200, true),
            (250, false),
            (300, false),
            (900, true),
            (950, true),
        ];
        assert_eq!(unavailability_window(&timeline, 220), Some(700));
        // fault exactly on a success timestamp: that success counts as "before"
        assert_eq!(unavailability_window(&timeline, 200), Some(700));
        // no success after the fault
        assert_eq!(unavailability_window(&timeline, 960), None);
        // no success before the fault
        assert_eq!(unavailability_window(&timeline, 50), None);
        assert_eq!(unavailability_window(&[], 100), None);
    }
}
