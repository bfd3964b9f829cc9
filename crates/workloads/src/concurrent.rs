//! Multi-threaded reader workloads for the concurrent read fast path.
//!
//! The single-threaded scripts in [`crate::script`] exercise semantic
//! coverage; this module exercises *scaling*. A [`ReadMixConfig`]
//! describes a seeded per-thread stream of read-only operations (reads,
//! stats, readdirs) over a pre-populated file set, optionally salted
//! with a controlled fraction of writes (the 90:10 mixed workload).
//! [`run_reader_mix`] drives N threads against any `FileSystem + Sync`
//! and reports aggregate throughput, so the same generator measures the
//! base filesystem directly, the full RAE stack, and the sequential
//! model oracle.

use rae_vfs::{Fd, FileSystem, FsResult, OpenFlags};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The operation mix a reader thread draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// Reads over a file set small enough to stay cache-resident.
    ReadHit,
    /// Reads spread over a file set larger than the page cache, so a
    /// controlled fraction of operations miss and touch the device.
    ReadMiss,
    /// 90% reads / 10% writes (writes still serialize; the test is
    /// whether readers keep scaling around them).
    Mixed90R10W,
}

impl ReadMix {
    /// Stable lowercase label for reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReadMix::ReadHit => "read_hit",
            ReadMix::ReadMiss => "read_miss",
            ReadMix::Mixed90R10W => "mixed_90r10w",
        }
    }
}

/// Configuration for [`populate_read_set`] + [`run_reader_mix`].
#[derive(Debug, Clone, Copy)]
pub struct ReadMixConfig {
    /// Number of files in the shared read set.
    pub nfiles: usize,
    /// Size of each file in bytes.
    pub file_size: usize,
    /// Bytes per read operation.
    pub read_size: usize,
    /// Operations each thread performs.
    pub ops_per_thread: usize,
    /// RNG seed (per-thread streams derive from it deterministically).
    pub seed: u64,
    /// The operation mix.
    pub mix: ReadMix,
}

impl Default for ReadMixConfig {
    fn default() -> ReadMixConfig {
        ReadMixConfig {
            nfiles: 32,
            file_size: 16 * 1024,
            read_size: 1024,
            ops_per_thread: 2000,
            seed: 0x5EED,
            mix: ReadMix::ReadHit,
        }
    }
}

/// Aggregate result of a [`run_reader_mix`] run.
#[derive(Debug, Clone, Copy)]
pub struct MixReport {
    /// Total operations completed across all threads.
    pub ops: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written (mixed workloads only).
    pub bytes_written: u64,
    /// Wall-clock duration of the threaded phase.
    pub elapsed: Duration,
}

impl MixReport {
    /// Operations per second over the wall-clock window.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / secs
    }
}

/// Path of file `i` in the shared read set.
#[must_use]
pub fn read_set_path(i: usize) -> String {
    format!("/readset/f{i:04}")
}

/// Create `/readset` and populate `cfg.nfiles` files of `cfg.file_size`
/// seeded bytes each, then sync. Returns the per-file contents so an
/// oracle can cross-check what readers observe.
///
/// # Errors
///
/// Any filesystem error during population.
pub fn populate_read_set(fs: &dyn FileSystem, cfg: &ReadMixConfig) -> FsResult<Vec<Vec<u8>>> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    fs.mkdir("/readset")?;
    let mut contents = Vec::with_capacity(cfg.nfiles);
    for i in 0..cfg.nfiles {
        let path = read_set_path(i);
        let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
        let mut data = vec![0u8; cfg.file_size];
        rng.fill(&mut data[..]);
        let mut off = 0u64;
        // write in <=8 KiB chunks so block allocation interleaves
        while (off as usize) < data.len() {
            let end = (off as usize + 8192).min(data.len());
            fs.write(fd, off, &data[off as usize..end])?;
            off = end as u64;
        }
        fs.close(fd)?;
        contents.push(data);
    }
    fs.sync()?;
    Ok(contents)
}

/// One deterministic reader stream: `ops` operations drawn from `mix`
/// against the shared read set, using pre-opened descriptors in `fds`
/// (one per file, opened read-write for the mixed workload).
fn reader_stream(
    fs: &dyn FileSystem,
    cfg: &ReadMixConfig,
    fds: &[Fd],
    thread_seed: u64,
    read_bytes: &AtomicU64,
    written_bytes: &AtomicU64,
) -> FsResult<u64> {
    let mut rng = SmallRng::seed_from_u64(thread_seed);
    let mut ops = 0u64;
    let span = cfg.file_size.saturating_sub(cfg.read_size).max(1) as u64;
    for _ in 0..cfg.ops_per_thread {
        let fi = rng.gen_range(0..cfg.nfiles);
        let off = rng.gen_range(0..span);
        let is_write = matches!(cfg.mix, ReadMix::Mixed90R10W) && rng.gen_range(0..10) == 0;
        if is_write {
            let buf = vec![rng.gen::<u8>(); cfg.read_size];
            let n = fs.write(fds[fi], off, &buf)?;
            written_bytes.fetch_add(n as u64, Ordering::Relaxed);
        } else {
            match rng.gen_range(0..100u32) {
                0..=89 => {
                    let data = fs.read(fds[fi], off, cfg.read_size)?;
                    read_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                }
                90..=97 => {
                    let _ = fs.stat(&read_set_path(fi))?;
                }
                _ => {
                    let _ = fs.readdir("/readset")?;
                }
            }
        }
        ops += 1;
    }
    Ok(ops)
}

/// Run `threads` concurrent reader streams over a populated read set
/// and report aggregate throughput.
///
/// Descriptors are opened before and closed after the timed window, so
/// the measurement covers only the read mix itself.
///
/// # Errors
///
/// Any filesystem error from any thread (the first one wins).
///
/// # Panics
///
/// Panics if a reader thread itself panics.
pub fn run_reader_mix<F>(fs: &Arc<F>, cfg: &ReadMixConfig, threads: usize) -> FsResult<MixReport>
where
    F: FileSystem + Send + Sync + 'static,
{
    let flags = if matches!(cfg.mix, ReadMix::Mixed90R10W) {
        OpenFlags::RDWR
    } else {
        OpenFlags::RDONLY
    };
    let mut fds = Vec::with_capacity(cfg.nfiles);
    for i in 0..cfg.nfiles {
        fds.push(fs.open(&read_set_path(i), flags)?);
    }
    let fds = Arc::new(fds);
    let read_bytes = Arc::new(AtomicU64::new(0));
    let written_bytes = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let fs = Arc::clone(fs);
        let fds = Arc::clone(&fds);
        let rb = Arc::clone(&read_bytes);
        let wb = Arc::clone(&written_bytes);
        let cfg = *cfg;
        let thread_seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t as u64);
        handles.push(std::thread::spawn(move || {
            reader_stream(fs.as_ref(), &cfg, &fds, thread_seed, &rb, &wb)
        }));
    }
    let mut ops = 0u64;
    let mut first_err = None;
    for h in handles {
        match h.join().expect("reader thread panicked") {
            Ok(n) => ops += n,
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let elapsed = start.elapsed();
    for fd in fds.iter() {
        let _ = fs.close(*fd);
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(MixReport {
        ops,
        bytes_read: read_bytes.load(Ordering::Relaxed),
        bytes_written: written_bytes.load(Ordering::Relaxed),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_fsmodel::ModelFs;

    fn small_cfg(mix: ReadMix) -> ReadMixConfig {
        ReadMixConfig {
            nfiles: 6,
            file_size: 4096,
            read_size: 512,
            ops_per_thread: 150,
            seed: 7,
            mix,
        }
    }

    #[test]
    fn populate_then_read_hit_mix_runs() {
        let fs = Arc::new(ModelFs::new());
        let cfg = small_cfg(ReadMix::ReadHit);
        let contents = populate_read_set(fs.as_ref(), &cfg).unwrap();
        assert_eq!(contents.len(), cfg.nfiles);
        let report = run_reader_mix(&fs, &cfg, 4).unwrap();
        assert_eq!(report.ops, 4 * cfg.ops_per_thread as u64);
        assert!(report.bytes_read > 0);
        assert_eq!(report.bytes_written, 0);
        assert!(report.ops_per_sec() > 0.0);
    }

    #[test]
    fn mixed_mix_writes_some_bytes() {
        let fs = Arc::new(ModelFs::new());
        let cfg = small_cfg(ReadMix::Mixed90R10W);
        populate_read_set(fs.as_ref(), &cfg).unwrap();
        let report = run_reader_mix(&fs, &cfg, 2).unwrap();
        assert!(report.bytes_written > 0, "10% of the mix is writes");
    }

    #[test]
    fn populate_is_deterministic_per_seed() {
        let a = Arc::new(ModelFs::new());
        let b = Arc::new(ModelFs::new());
        let cfg = small_cfg(ReadMix::ReadHit);
        let ca = populate_read_set(a.as_ref(), &cfg).unwrap();
        let cb = populate_read_set(b.as_ref(), &cfg).unwrap();
        assert_eq!(ca, cb);
        let mut other = cfg;
        other.seed = 8;
        let cc = populate_read_set(Arc::new(ModelFs::new()).as_ref(), &other).unwrap();
        assert_ne!(ca, cc);
    }

    #[test]
    fn reads_observe_populated_content() {
        let fs = Arc::new(ModelFs::new());
        let cfg = small_cfg(ReadMix::ReadHit);
        let contents = populate_read_set(fs.as_ref(), &cfg).unwrap();
        for (i, want) in contents.iter().enumerate() {
            let fd = fs.open(&read_set_path(i), OpenFlags::RDONLY).unwrap();
            let got = fs.read(fd, 0, cfg.file_size).unwrap();
            assert_eq!(&got, want);
            fs.close(fd).unwrap();
        }
    }
}
