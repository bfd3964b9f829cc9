//! Shared harness utilities for benches and the reproduce binary.

use rae::{RaeConfig, RaeFs};
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk};
use rae_faults::FaultRegistry;
use rae_fsformat::{mkfs, MkfsParams};
use rae_vfs::{FileSystem, FsResult, OpenFlags};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default experiment geometry: 64 MiB (16384 blocks), 4096 inodes.
#[must_use]
pub fn experiment_params() -> MkfsParams {
    MkfsParams {
        total_blocks: 16384,
        inode_count: 4096,
        journal_blocks: 512,
    }
}

/// A formatted `mkfs`-ed in-memory device.
#[must_use]
pub fn fresh_device() -> Arc<MemDisk> {
    let dev = Arc::new(MemDisk::new(16384));
    mkfs(dev.as_ref(), experiment_params()).expect("mkfs");
    dev
}

/// A formatted device wrapped with per-op latency, modelling an NVMe
/// SSD (8 µs 4K reads, 16 µs writes). The latency is what separates
/// cached from uncached designs in E1/E2.
#[must_use]
pub fn fresh_latency_device() -> Arc<FaultyDisk<MemDisk>> {
    let mem = MemDisk::new(16384);
    mkfs(&mem, experiment_params()).expect("mkfs");
    let plan = DiskFaultPlan::new()
        .read_latency_ns(8_000)
        .write_latency_ns(16_000);
    Arc::new(FaultyDisk::with_plan(mem, plan))
}

/// Mount a base filesystem with `faults`.
#[must_use]
pub fn mount_base(dev: Arc<dyn BlockDevice>, faults: FaultRegistry) -> BaseFs {
    BaseFs::mount(
        dev,
        BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
    )
    .expect("mount base")
}

/// Mount a RAE filesystem with `config`.
#[must_use]
pub fn mount_rae(dev: Arc<dyn BlockDevice>, config: RaeConfig) -> RaeFs {
    RaeFs::mount(dev, config).expect("mount rae")
}

/// Populate a small tree (a few dirs/files) so crafted-image and
/// recovery experiments have structure to corrupt/recover.
///
/// # Errors
///
/// Filesystem errors.
pub fn populate_small_tree(fs: &dyn FileSystem) -> FsResult<()> {
    fs.mkdir("/docs")?;
    fs.mkdir("/docs/a")?;
    for i in 0..5 {
        let fd = fs.open(
            &format!("/docs/file{i}"),
            OpenFlags::RDWR | OpenFlags::CREATE,
        )?;
        fs.write(fd, 0, format!("contents of file {i}").as_bytes())?;
        fs.close(fd)?;
    }
    fs.symlink("/docs/file0", "/docs/link")?;
    fs.link("/docs/file1", "/docs/a/hard")?;
    fs.sync()?;
    Ok(())
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// ops/second, guarded against zero durations.
#[must_use]
pub fn ops_per_sec(ops: usize, d: Duration) -> f64 {
    ops as f64 / d.as_secs_f64().max(1e-9)
}
