//! The untimed output check that follows every workload: the image
//! must pass `fsck`, and the final tree and file contents must equal a
//! `ModelFs` replay of exactly the operations the load threads ran.
//! Threads own disjoint subtrees (and `srv-mixed` connections disjoint
//! volumes), so that result does not depend on how they interleaved.

use crate::load::{ChurnNames, FileEnt, FsExec};
use crate::rig::{populate, Rig};
use crate::stream::{Kind, Op, Spec, IO_BYTES, SRV_VOLS_PER_CONN};
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, MemDisk};
use rae_fsformat::fsck;
use rae_fsmodel::ModelFs;
use rae_vfs::{FileSystem, OpenFlags};
use rae_workloads::{diff_trees, dump_tree, volume_file_path, TreeNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

type Tree = BTreeMap<String, TreeNode>;

fn mutates(op: Op) -> bool {
    !matches!(op, Op::Read { .. } | Op::Stat { .. } | Op::Fsync { .. })
}

/// The expected final tree of every volume: populate models exactly as
/// the rig was populated, then replay operations `0..ends[t]` of each
/// thread's (cycled) stream.
pub fn expected_trees(
    spec: &Spec,
    nvols: usize,
    streams: &[Vec<Op>],
    ends: &[u64],
) -> Result<Vec<Tree>, String> {
    let models: Vec<ModelFs> = (0..nvols).map(|_| ModelFs::new()).collect();
    let fss: Vec<&dyn FileSystem> = models.iter().map(|m| m as &dyn FileSystem).collect();
    let tables = populate(spec, &fss).map_err(|e| format!("model populate: {e}"))?;
    replay(&fss, &tables, streams, ends)?;
    models
        .iter()
        .map(|m| dump_tree(m).map_err(|e| format!("model dump: {e}")))
        .collect()
}

fn replay(
    fss: &[&dyn FileSystem],
    tables: &[Vec<FileEnt>],
    streams: &[Vec<Op>],
    ends: &[u64],
) -> Result<(), String> {
    let churn = ChurnNames::new("/churn");
    for (t, stream) in streams.iter().enumerate() {
        let mut exec = FsExec::new(fss, &tables[t], &churn, false);
        let len = stream.len() as u64;
        for i in 0..ends[t] {
            let op = stream[(i % len) as usize];
            if !mutates(op) {
                continue;
            }
            if !exec.exec(op) {
                return Err(format!("model refused thread {t} op {i}: {op:?}"));
            }
        }
    }
    Ok(())
}

/// `srv-mixed`: the server was populated by
/// `rae_workloads::populate_volumes`, which fills files from one
/// `SmallRng` stream in volume order; rebuild those bytes, then replay
/// each connection's stream on the volumes it owns.
pub fn expected_server_trees(
    spec: &Spec,
    nvols: usize,
    populate_seed: u64,
    streams: &[Vec<Op>],
    ends: &[u64],
) -> Result<Vec<Tree>, String> {
    let models: Vec<ModelFs> = (0..nvols).map(|_| ModelFs::new()).collect();
    let mut rng = SmallRng::seed_from_u64(populate_seed);
    let mut entries = Vec::with_capacity(nvols);
    for (vol, m) in models.iter().enumerate() {
        let e = |e| format!("model populate: {e}");
        m.mkdir("/data").map_err(e)?;
        let mut files = Vec::with_capacity(spec.files);
        for i in 0..spec.files {
            let mut data = vec![0u8; spec.file_blocks * IO_BYTES];
            rng.fill(&mut data[..]);
            let path = volume_file_path(i);
            let fd = m
                .open(&path, OpenFlags::RDWR | OpenFlags::CREATE)
                .map_err(e)?;
            m.write(fd, 0, &data).map_err(e)?;
            files.push(FileEnt {
                vol: vol as u32,
                fd,
                path,
            });
        }
        entries.push(files);
    }
    let tables: Vec<Vec<FileEnt>> = entries
        .chunks(SRV_VOLS_PER_CONN)
        .map(|vols| vols.concat())
        .collect();
    let fss: Vec<&dyn FileSystem> = models.iter().map(|m| m as &dyn FileSystem).collect();
    replay(&fss, &tables, streams, ends)?;
    models
        .iter()
        .map(|m| dump_tree(m).map_err(|e| format!("model dump: {e}")))
        .collect()
}

/// What the check of one volume image found.
pub struct ImageCheck {
    pub problems: Vec<String>,
    pub fsck_ms: f64,
}

/// Mount the image and compare its tree with `expected`; with
/// `unmounted` (the image was cleanly unmounted, so no journal replay
/// is pending) `fsck` it first.
pub fn check_image(dev: Arc<dyn BlockDevice>, expected: &Tree, unmounted: bool) -> ImageCheck {
    let mut problems = Vec::new();
    let t0 = Instant::now();
    if unmounted {
        match fsck(dev.as_ref()) {
            Ok(report) if report.is_clean() => {}
            Ok(report) => problems.push(format!(
                "fsck: {} error(s), first: {}",
                report.errors.len(),
                report.errors[0]
            )),
            Err(e) => problems.push(format!("fsck failed: {e}")),
        }
    }
    let fsck_ms = t0.elapsed().as_secs_f64() * 1e3;
    // unmount again afterwards: callers go on to time recovery tooling
    // on the image, which wants it clean
    let dumped = BaseFs::mount(dev, BaseFsConfig::default()).and_then(|fs| {
        let tree = dump_tree(&fs)?;
        fs.unmount()?;
        Ok(tree)
    });
    match dumped {
        Ok(tree) => {
            let diffs = diff_trees(expected, &tree);
            problems.extend(diffs.iter().take(5).map(|d| format!("tree: {d}")));
            if diffs.len() > 5 {
                problems.push(format!("tree: ... {} differences in all", diffs.len()));
            }
        }
        Err(e) => problems.push(format!("mount/dump of final image failed: {e}")),
    }
    ImageCheck { problems, fsck_ms }
}

/// What the acknowledged fsyncs of `fs-write-sync` promise about one
/// file once the power is cut.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Promise {
    /// The fill byte of every block as of the file's last acknowledged
    /// fsync (0 = a hole left by an extending write).
    pub blocks: Vec<u8>,
    /// `(block, fill)` of the writes after that fsync: each may or may
    /// not have reached the device.
    pub later: Vec<(u16, u8)>,
    /// Writes the file's fsyncs covered.
    pub covered: u64,
}

/// Walk operations `0..ends[t]` of each thread's (cycled) stream and
/// work out, per thread and file, what `fsync` has promised. The
/// populated contents count as promised: populate ends with `sync`.
pub fn promised_by_fsync(spec: &Spec, streams: &[Vec<Op>], ends: &[u64]) -> Vec<Vec<Promise>> {
    let mut all = Vec::with_capacity(streams.len());
    for (stream, &end) in streams.iter().zip(ends) {
        let mut files: Vec<Promise> = (0..spec.files)
            .map(|f| Promise {
                blocks: (0..spec.file_blocks)
                    .map(|b| crate::stream::populate_fill(f, b))
                    .collect(),
                ..Promise::default()
            })
            .collect();
        let len = stream.len() as u64;
        for i in 0..end {
            match stream[(i % len) as usize] {
                Op::Write { file, block, fill } => files[file as usize].later.push((block, fill)),
                Op::Fsync { file } => {
                    let p = &mut files[file as usize];
                    p.covered += p.later.len() as u64;
                    for (block, fill) in p.later.drain(..) {
                        let block = block as usize;
                        if p.blocks.len() <= block {
                            p.blocks.resize(block + 1, 0);
                        }
                        p.blocks[block] = fill;
                    }
                }
                _ => {}
            }
        }
        all.push(files);
    }
    all
}

/// Mount `snapshot` (which replays its journal) and read every file
/// back: each block a promise covers must hold the promised bytes or
/// those of a later write to the same block. Returns the number of
/// writes the promises covered.
pub fn check_durable(
    snapshot: Arc<MemDisk>,
    tables: &[Vec<FileEnt>],
    promised: &[Vec<Promise>],
) -> Result<u64, String> {
    let fs = BaseFs::mount(snapshot, BaseFsConfig::default())
        .map_err(|e| format!("mount of the snapshot failed: {e}"))?;
    let mut covered = 0;
    for (table, files) in tables.iter().zip(promised) {
        for (ent, promise) in table.iter().zip(files) {
            let path = &ent.path;
            let e = |e| format!("{path}: {e}");
            let fd = fs.open(path, OpenFlags::RDONLY).map_err(e)?;
            let data = fs.read(fd, 0, promise.blocks.len() * IO_BYTES).map_err(e)?;
            fs.close(fd).map_err(e)?;
            if data.len() != promise.blocks.len() * IO_BYTES {
                return Err(format!(
                    "{path}: {} bytes on the snapshot, {} blocks were fsynced",
                    data.len(),
                    promise.blocks.len()
                ));
            }
            for (b, (have, &want)) in data.chunks(IO_BYTES).zip(&promise.blocks).enumerate() {
                let holds = |fill: u8| have.iter().all(|&x| x == fill);
                let later = promise.later.iter().filter(|w| w.0 as usize == b);
                if !holds(want) && !later.into_iter().any(|w| holds(w.1)) {
                    return Err(format!(
                        "{path} block {b}: starts with {:#04x}, fsynced as {want:#04x}",
                        have[0]
                    ));
                }
            }
            covered += promise.covered;
        }
    }
    Ok(covered)
}

/// Outcome of the oracle over a whole in-process rig.
pub struct Verdict {
    pub problems: Vec<String>,
    pub fsck_ms: f64,
    /// `fs-write-sync` only: writes that an acknowledged fsync of their
    /// file covered, all read back from a device snapshot taken right
    /// after the timed phase with unflushed write-back discarded.
    pub durable_writes: u64,
}

/// Unmount the rig and check every volume; on `fs-write-sync` first
/// run the durability check. Returns the bare images too, for callers
/// that time recovery tooling on them.
pub fn verify_rig(
    rig: Rig,
    spec: &Spec,
    streams: &[Vec<Op>],
    ends: &[u64],
) -> (Verdict, Vec<Arc<MemDisk>>) {
    let mut problems = Vec::new();
    let mut durable_writes = 0;
    let expected = match expected_trees(spec, rig.vols.len(), streams, ends) {
        Ok(found) => found,
        Err(e) => {
            let raws = rig.vols.iter().map(|v| Arc::clone(&v.raw)).collect();
            let verdict = Verdict {
                problems: vec![e],
                fsck_ms: 0.0,
                durable_writes,
            };
            return (verdict, raws);
        }
    };
    if spec.kind == Kind::WriteSync {
        // first thing after the timed phase, with nothing flushed on
        // the oracle's behalf: copy the bare device under the live
        // mount (dirty cache pages and queued write-back never reach
        // the copy) and hold the copy alone to what the workload's own
        // acknowledged fsyncs promised
        match MemDisk::clone_of(rig.vols[0].raw.as_ref()) {
            Ok(snapshot) => {
                let promised = promised_by_fsync(spec, streams, ends);
                match check_durable(Arc::new(snapshot), &rig.tables, &promised) {
                    Ok(writes) => durable_writes = writes,
                    Err(e) => problems.push(format!("durability: {e}")),
                }
            }
            Err(e) => problems.push(format!("device snapshot failed: {e}")),
        }
    }
    let mut fsck_ms = 0.0;
    let mut raws = Vec::with_capacity(rig.vols.len());
    for (vol, want) in rig.vols.into_iter().zip(&expected) {
        if let Err(e) = vol.mount.unmount() {
            problems.push(format!("unmount failed: {e}"));
        }
        let check = check_image(Arc::clone(&vol.raw) as Arc<dyn BlockDevice>, want, true);
        fsck_ms += check.fsck_ms;
        problems.extend(check.problems);
        raws.push(vol.raw);
    }
    let verdict = Verdict {
        problems,
        fsck_ms,
        durable_writes,
    };
    (verdict, raws)
}
