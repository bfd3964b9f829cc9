//! Crash-consistency integration: the journal must make every
//! crash/remount land on a consistent image with all synced state
//! present. A synced workload is recorded on a [`TapeDisk`], and every
//! state a crash between its flushes can leave ([`crash::crash_states`])
//! is mounted and checked.

use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::crash::{self, CrashImage};
use rae_blockdev::{BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk, TapeDisk, TapeEntry};
use rae_faults::FaultRegistry;
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_vfs::{FileSystem, FsError, OpenFlags};
use std::sync::Arc;

fn params() -> MkfsParams {
    MkfsParams {
        total_blocks: 8192,
        inode_count: 2048,
        journal_blocks: 128,
    }
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

/// Files the workload writes, a sync after every tenth.
const FILES: usize = 60;

/// Bytes of file `i`, every one of them `i`.
const FILE_BYTES: usize = 3000;

fn file(i: usize) -> String {
    format!("/d{}/f{i}", i % 5)
}

/// Run the workload on a tape over a fresh image and crash. Returns the
/// image the tape starts from, the tape, and per sync the files it made
/// durable and the flush epoch from which they are: a crash state of
/// that epoch or a later one holds every write of the epochs before.
fn record_workload() -> (Vec<u8>, Vec<TapeEntry>, Vec<(usize, usize)>) {
    let mem = MemDisk::new(8192);
    mkfs(&mem, params()).unwrap();
    let pre = mem.snapshot();
    let dev = Arc::new(TapeDisk::from_image(&pre));
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    let mut marks = Vec::new();
    for i in 0..FILES {
        if i < 5 {
            fs.mkdir(&format!("/d{i}")).unwrap();
        }
        let fd = fs.open(&file(i), rw_create()).unwrap();
        fs.write(fd, 0, &[i as u8; FILE_BYTES]).unwrap();
        fs.close(fd).unwrap();
        if i % 10 == 9 {
            fs.sync().unwrap();
            marks.push((i + 1, dev.mark()));
        }
    }
    fs.crash();
    let tape = dev.since(0);
    let durable = marks
        .into_iter()
        .map(|(files, mark)| {
            let flushes = tape[..mark].iter().filter(|e| **e == TapeEntry::Flush);
            (files, flushes.count())
        })
        .collect();
    (pre, tape, durable)
}

/// Mount one crash state, read every file, unmount and `fsck`: each file
/// present holds nothing or exactly its own bytes, the first `synced`
/// are all present with theirs, and the image checks clean.
fn check_state(dev: Arc<CrashImage>, synced: usize) -> Result<(), String> {
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default())
        .map_err(|e| format!("mount: {e}"))?;
    for i in 0..FILES {
        let path = file(i);
        let size = match fs.stat(&path) {
            Ok(st) => st.size as usize,
            Err(FsError::NotFound) if i >= synced => continue,
            Err(e) => return Err(format!("{path} (synced: {}): {e}", i < synced)),
        };
        let fd = fs
            .open(&path, OpenFlags::RDONLY)
            .map_err(|e| format!("{path}: {e}"))?;
        let got = fs.read(fd, 0, size).map_err(|e| format!("{path}: {e}"))?;
        fs.close(fd).map_err(|e| format!("{path}: {e}"))?;
        let own = got.len() == FILE_BYTES && got.iter().all(|&b| b == i as u8);
        // an unsynced file may have lost its data, never gained another's
        let emptied = got.is_empty() && i >= synced;
        if !(own || emptied) {
            return Err(format!(
                "{path} (synced: {}) holds {} bytes, not its own",
                i < synced,
                got.len()
            ));
        }
    }
    fs.unmount().map_err(|e| format!("unmount: {e}"))?;
    let report = fsck(dev.as_ref()).map_err(|e| format!("fsck: {e}"))?;
    if !report.is_clean() {
        return Err(format!("fsck: {report}"));
    }
    Ok(())
}

#[test]
fn crash_epoch_synced_workload_every_state_recovers() {
    let (pre, tape, durable) = record_workload();
    assert_eq!(durable.len(), FILES / 10);
    let base = Arc::new(MemDisk::from_image(&pre));
    let epochs = crash::epochs(&tape);
    let states = crash::crash_states(&epochs, 0);
    let bad: Vec<String> = states
        .iter()
        .filter_map(|state| {
            let synced = durable
                .iter()
                .filter(|&&(_, epoch)| epoch <= state.epoch)
                .map(|&(files, _)| files)
                .max()
                .unwrap_or(0);
            let dev = Arc::new(CrashImage::new(Arc::clone(&base), &epochs, state));
            check_state(dev, synced)
                .err()
                .map(|why| format!("{state:?}: {why}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "{} of {} crash states are bad; the first: {}",
        bad.len(),
        states.len(),
        bad[0]
    );
}

#[test]
fn double_crash_replay_is_idempotent() {
    let mem = MemDisk::new(8192);
    mkfs(&mem, params()).unwrap();
    let dev = Arc::new(mem);
    {
        let fs =
            BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
        fs.mkdir("/committed").unwrap();
        fs.sync().unwrap();
        fs.crash();
    }
    // first remount replays; crash immediately again
    {
        let fs =
            BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
        assert!(fs.stat("/committed").is_ok());
        fs.crash();
    }
    // second remount must still see the same state
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    assert!(fs.stat("/committed").is_ok());
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

#[test]
fn rae_handles_transient_device_write_errors_at_sync() {
    use rae::{RaeConfig, RaeFs};
    // a transient write error in the journal region surfaces at
    // sync/commit; RAE recovers instead of failing the application
    let mem = MemDisk::new(8192);
    mkfs(&mem, params()).unwrap();
    let plan = DiskFaultPlan::new().fail_writes(
        rae_blockdev::FaultTarget::Range { start: 1, end: 129 }, // journal
        rae_blockdev::TriggerMode::Nth(3),
    );
    let dev = Arc::new(FaultyDisk::with_plan(mem, plan));
    let fs = RaeFs::mount(
        dev.clone() as Arc<dyn BlockDevice>,
        RaeConfig {
            base: BaseFsConfig {
                faults: FaultRegistry::new(),
                ..BaseFsConfig::default()
            },
            ..RaeConfig::default()
        },
    )
    .unwrap();
    fs.mkdir("/a").unwrap();
    fs.sync().unwrap(); // journal write #3 fails -> runtime error -> recovery + re-issue
    assert!(fs.stats().recoveries >= 1, "{:?}", fs.stats());
    assert!(fs.stat("/a").is_ok());

    // after recovery, durability still holds across a crash
    fs.mkdir("/b").unwrap();
    fs.sync().unwrap();
    drop(fs);
    let fs2 = BaseFs::mount(dev as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    assert!(fs2.stat("/a").is_ok());
    assert!(fs2.stat("/b").is_ok());
}
