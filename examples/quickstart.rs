//! Quickstart: mount a RAE filesystem, use it like any filesystem,
//! plant a kernel-crash-class bug, and watch RAE mask it.
//!
//! ```text
//! cargo run -p rae --example quickstart
//! ```

use rae::{RaeConfig, RaeFs};
use rae_basefs::BaseFsConfig;
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{mkfs, MkfsParams};
use rae_vfs::{FileSystem, FsResult, OpenFlags};
use std::sync::Arc;

fn main() -> FsResult<()> {
    // injected panics are caught by RAE; keep stderr clean
    rae_faults::quiet_injected_panics();

    // 1. make a filesystem on an in-memory device
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default())?;

    // 2. plant a deterministic kernel-crash-class bug in the base:
    //    renaming anything whose path contains "reports" panics
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        42,
        "rename-null-deref",
        Site::Rename,
        Trigger::PathContains("reports".into()),
        Effect::Panic,
    ));

    // 3. mount with RAE protection
    let fs = RaeFs::mount(
        dev as Arc<dyn BlockDevice>,
        RaeConfig {
            base: BaseFsConfig {
                faults,
                ..BaseFsConfig::default()
            },
            ..RaeConfig::default()
        },
    )?;

    // 4. ordinary work
    fs.mkdir("/home")?;
    let fd = fs.open("/home/reports.txt", OpenFlags::RDWR | OpenFlags::CREATE)?;
    fs.write(fd, 0, b"quarterly numbers")?;

    // 5. this rename panics inside the base filesystem — RAE performs a
    //    contained reboot, replays the recorded operations on the
    //    verified shadow, hands the state back, and the call just works
    fs.rename("/home/reports.txt", "/home/reports-final.txt")?;

    // 6. nothing was lost; even the open descriptor still works
    let data = fs.read(fd, 0, 64)?;
    println!(
        "file content after masked crash: {:?}",
        String::from_utf8_lossy(&data)
    );
    println!(
        "new path exists: {}",
        fs.stat("/home/reports-final.txt").is_ok()
    );

    let stats = fs.stats();
    println!(
        "panics caught: {}, recoveries: {}, ops masked: {}, recovery time: {:.2} ms",
        stats.panics_caught,
        stats.recoveries,
        stats.ops_masked,
        stats.recovery_time_ns as f64 / 1e6
    );
    for report in fs.recovery_reports() {
        println!(
            "recovery: trigger={:?}, replayed {} records, restored {} descriptors, {} shadow checks",
            report.trigger, report.records_replayed, report.fds_restored, report.shadow_checks
        );
    }

    fs.close(fd)?;
    fs.unmount()?;
    println!("unmounted cleanly");
    Ok(())
}
