//! Journal write-order tests: every crash cut inside a commit's and a
//! replay's extent requests, every crash state the flush epochs of a
//! commit, a checkpointing commit and a replay allow (the crash-state
//! explorer), the failure paths of a commit's combined data + record
//! batch, and the write-ahead rule under a commit that stalls while
//! readers evict.

use crate::fs::{BaseFs, BaseFsConfig};
use rae_blockdev::crash::{self, CrashImage, Epoch};
use rae_blockdev::{
    BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk, StatsDisk, TapeDisk, TapeEntry, WriteCutMode,
    BLOCK_SIZE,
};
use rae_fsformat::journal::{self, decode_descriptor, is_commit};
use rae_fsformat::{fsck, mkfs, MkfsParams, Superblock};
use rae_vfs::{FileSystem, FileType, FsResult, OpenFlags};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};

/// Path → `None` for a directory, the contents for anything else.
type Tree = BTreeMap<String, Option<Vec<u8>>>;

fn tree(fs: &dyn FileSystem) -> Tree {
    let mut out = Tree::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for e in fs.readdir(&dir).unwrap() {
            let path = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            if e.ftype == FileType::Directory {
                stack.push(path.clone());
                out.insert(path, None);
            } else {
                let size = fs.stat(&path).unwrap().size as usize;
                let fd = fs.open(&path, OpenFlags::RDONLY).unwrap();
                out.insert(path, Some(fs.read(fd, 0, size).unwrap()));
                fs.close(fd).unwrap();
            }
        }
    }
    out
}

fn mount(dev: Arc<dyn BlockDevice>) -> BaseFs {
    BaseFs::mount(dev, BaseFsConfig::default()).unwrap()
}

/// Mount `image` (replaying its journal), return its tree, and check
/// that the unmounted result is `fsck`-clean.
fn recovered_tree(image: &[u8], what: &str) -> Tree {
    recovered_tree_on(Arc::new(MemDisk::from_image(image)), what)
}

/// [`recovered_tree`] of the image on `dev`.
fn recovered_tree_on(dev: Arc<dyn BlockDevice>, what: &str) -> Tree {
    let fs = BaseFs::mount(Arc::clone(&dev), BaseFsConfig::default())
        .unwrap_or_else(|e| panic!("{what}: mount failed: {e}"));
    let t = tree(&fs);
    fs.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "{what}: {report}");
    t
}

/// One transaction's worth of new metadata in several blocks (inode
/// table, both bitmaps, two directories, the superblock) plus data.
/// Everything it writes lands in blocks that were free, so a crash that
/// cuts its data writes leaves the old tree intact.
fn transaction(fs: &dyn FileSystem, round: u8) -> FsResult<()> {
    transaction_ops(fs, round)?;
    fs.sync()
}

/// The mutations of [`transaction`], without its sync.
fn transaction_ops(fs: &dyn FileSystem, round: u8) -> FsResult<()> {
    let dir = format!("/t{round}");
    fs.mkdir(&dir)?;
    for i in 0..3u8 {
        let fd = fs.open(&format!("{dir}/f{i}"), OpenFlags::RDWR | OpenFlags::CREATE)?;
        fs.write(fd, 0, &vec![round.wrapping_mul(16) + i; 2 * BLOCK_SIZE])?;
        fs.close(fd)?;
    }
    Ok(())
}

/// `/base` with one file.
fn base_program(fs: &dyn FileSystem) {
    fs.mkdir("/base").unwrap();
    let fd = fs
        .open("/base/keep", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    fs.write(fd, 0, b"kept across every cut").unwrap();
    fs.close(fd).unwrap();
}

/// A formatted image holding [`base_program`]'s tree, unmounted clean.
fn base_image() -> Vec<u8> {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    base_program(&fs);
    fs.unmount().unwrap();
    dev.snapshot()
}

/// Mount `image` behind a device that silently drops every write after
/// the first `cut` blocks, run `txn`, crash, and return what reached
/// the device.
fn crash_after(image: &[u8], cut: u64, txn: fn(&dyn FileSystem) -> FsResult<()>) -> Vec<u8> {
    let plan = DiskFaultPlan::new().cut_writes_after(cut, WriteCutMode::SilentDrop);
    let dev = Arc::new(FaultyDisk::with_plan(MemDisk::from_image(image), plan));
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    txn(&fs).unwrap();
    fs.crash();
    dev.inner().snapshot()
}

/// Run `txn` once uncut over `pre_image`, then crash it at every write
/// cut from before the mount's first write to past the commit block:
/// each crashed image must mount, replay and check clean, with the old
/// tree until the commit block — the last write — lands and the new
/// one, data and all, from then on. Returns the uncut run's write
/// requests and blocks for `txn` alone.
fn every_cut_is_pre_or_post(
    pre_image: &[u8],
    txn: fn(&dyn FileSystem) -> FsResult<()>,
) -> (u64, u64) {
    let pre = recovered_tree(pre_image, "pre");
    let counted = Arc::new(StatsDisk::new(MemDisk::from_image(pre_image)));
    let fs = mount(Arc::clone(&counted) as Arc<dyn BlockDevice>);
    let before = counted.counters();
    txn(&fs).unwrap();
    let after = counted.counters();
    fs.crash();
    let total = after.writes;
    let post = recovered_tree(&counted.inner().snapshot(), "post");
    assert_ne!(pre, post);

    let mut flipped_at = None;
    for cut in 0..=total + 1 {
        let got = recovered_tree(&crash_after(pre_image, cut, txn), &format!("cut {cut}"));
        if got == post {
            flipped_at.get_or_insert(cut);
        } else {
            assert_eq!(
                got, pre,
                "cut {cut}: neither the pre- nor the post-transaction tree"
            );
            assert!(flipped_at.is_none(), "cut {cut}: the old tree came back");
        }
    }
    assert_eq!(
        flipped_at,
        Some(total),
        "the transaction is durable exactly when its commit block, the last write, lands"
    );
    (
        after.write_requests - before.write_requests,
        after.writes - before.writes,
    )
}

#[test]
fn extent_commit_survives_every_cut() {
    let (requests, blocks) = every_cut_is_pre_or_post(&base_image(), |fs| transaction(fs, 1));
    assert!(
        requests < blocks,
        "the commit moved some blocks as an extent: {requests} requests, {blocks} blocks"
    );
}

/// Holes to scatter new data into.
const HOLES: u8 = 8;

/// A clean image whose free data blocks are fragmented: `2 * HOLES`
/// one-block files were written, and every other one removed.
fn fragmented_image() -> Vec<u8> {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    fs.mkdir("/frag").unwrap();
    for i in 0..2 * HOLES {
        let path = format!("/frag/f{i:02}");
        let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
        fs.write(fd, 0, &[i; BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
    }
    fs.sync().unwrap();
    for i in (0..2 * HOLES).step_by(2) {
        fs.unlink(&format!("/frag/f{i:02}")).unwrap();
    }
    fs.unmount().unwrap();
    dev.snapshot()
}

/// One fsync of a new block in each hole: its data goes out as
/// one-block extents, in the batch of its journal record.
fn scattered_fsync(fs: &dyn FileSystem) -> FsResult<()> {
    let mut last = None;
    for i in 0..HOLES {
        let fd = fs.open(&format!("/frag/n{i}"), OpenFlags::RDWR | OpenFlags::CREATE)?;
        fs.write(fd, 0, &[0xA0 + i; BLOCK_SIZE])?;
        last = Some(fd);
    }
    fs.fsync(last.expect("at least one file"))
}

#[test]
fn extent_fsync_of_scattered_data_survives_every_cut() {
    let (requests, _) = every_cut_is_pre_or_post(&fragmented_image(), scattered_fsync);
    // one request per hole, then the record and the commit block
    assert!(
        requests >= u64::from(HOLES) + 2,
        "the data went out scattered: {requests} requests"
    );
}

/// Every way a commit's data + record batch can fail — a write fault
/// among the data blocks, a write fault inside the record, a failed
/// flush at the barrier, a write fault on the commit block — fails the
/// whole commit: the sync returns `Err`, the device holds no committed
/// transaction, and every data and metadata page the commit took is
/// dirty again, so the next sync writes it all and the crashed image
/// holds the model's tree.
#[test]
fn extent_commit_failure_anywhere_redirties_and_the_next_sync_lands() {
    use crate::pagecache::PageClass;
    use rae_blockdev::{FaultTarget, TriggerMode};
    let pre = base_image();
    let geo = Superblock::read_from(&MemDisk::from_image(&pre))
        .unwrap()
        .geometry;
    let model = rae_fsmodel::ModelFs::new();
    base_program(&model);
    transaction(&model, 1).unwrap();
    let want = tree(&model);

    for strike in ["data", "record", "barrier", "commit block"] {
        let dev = Arc::new(FaultyDisk::new(MemDisk::from_image(&pre)));
        let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
        transaction_ops(&fs, 1).unwrap();
        let pages = fs.page_cache();
        let data = pages.dirty_blocks(PageClass::Data);
        let meta = pages.dirty_blocks(PageClass::Meta);
        assert!(data.len() > 1 && !meta.is_empty());
        // the record sits at the journal's first slot: the descriptor,
        // an image per dirty metadata page and the superblock's
        let record = geo.journal_start + 1..geo.journal_start + 3 + meta.len() as u64;
        let plan = DiskFaultPlan::new();
        dev.set_plan(match strike {
            "data" => plan.fail_writes(
                FaultTarget::Range {
                    start: geo.data_start,
                    end: geo.total_blocks,
                },
                TriggerMode::Nth(2),
            ),
            "record" => plan.fail_writes(
                FaultTarget::Range {
                    start: record.start,
                    end: record.end,
                },
                TriggerMode::Nth(3),
            ),
            "barrier" => plan.fail_flushes(TriggerMode::Nth(1)),
            _ => plan.fail_writes(FaultTarget::Block(record.end), TriggerMode::Nth(1)),
        });
        assert!(fs.sync().is_err(), "{strike}: the commit failed");
        assert_eq!(dev.injected_faults(), 1, "{strike}");
        let on_disk = MemDisk::from_image(&dev.inner().snapshot());
        if matches!(strike, "barrier" | "commit block") {
            // struck after the whole record landed
            let mut desc = vec![0; BLOCK_SIZE];
            on_disk.read_block(record.start, &mut desc).unwrap();
            let (_, tags) = decode_descriptor(&desc).unwrap().expect("the descriptor");
            assert_eq!(record.start + 1 + tags.len() as u64, record.end);
        }
        assert_eq!(
            journal::replay(&on_disk, &geo).unwrap().transactions,
            0,
            "{strike}: no commit block"
        );
        assert_eq!(pages.dirty_blocks(PageClass::Data), data, "{strike}");
        assert_eq!(pages.dirty_blocks(PageClass::Meta), meta, "{strike}");

        dev.clear_plan();
        fs.sync().unwrap();
        fs.crash();
        let got = recovered_tree(&dev.inner().snapshot(), strike);
        assert_eq!(got, want, "{strike}");
    }
}

/// Three committed, never-checkpointed transactions in the journal of
/// [`base_image`], its geometry, and the tree its replay yields.
fn journaled_image() -> (Vec<u8>, rae_fsformat::Geometry, Tree) {
    let dev = Arc::new(MemDisk::from_image(&base_image()));
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    for round in 1..=3 {
        transaction(&fs, round).unwrap();
    }
    fs.crash();
    let journaled = dev.snapshot();
    let geo = Superblock::read_from(dev.as_ref()).unwrap().geometry;
    let post = recovered_tree(&journaled, "uncut replay");
    (journaled, geo, post)
}

#[test]
fn extent_replay_survives_every_cut() {
    let (journaled, geo, post) = journaled_image();
    let counted = StatsDisk::new(MemDisk::from_image(&journaled));
    let report = journal::replay(&counted, &geo).unwrap();
    assert_eq!(report.transactions, 3);
    let c = counted.counters();
    assert!(
        c.write_requests < c.writes && c.read_requests < c.reads,
        "replay moves runs, not blocks: {c:?}"
    );

    // a replay cut anywhere — inside the home runs, between them and the
    // reset, inside the reset — leaves a journal that replays to the
    // same tree
    for cut in 0..=c.writes + 1 {
        let plan = DiskFaultPlan::new().cut_writes_after(cut, WriteCutMode::SilentDrop);
        let dying = FaultyDisk::with_plan(MemDisk::from_image(&journaled), plan);
        journal::replay(&dying, &geo).unwrap();
        let got = recovered_tree(&dying.inner().snapshot(), &format!("replay cut {cut}"));
        assert_eq!(got, post, "replay cut {cut}");
    }
}

// ----------------------------------------------------------------------
// Crash-state explorer: every subset of every flush epoch
// ----------------------------------------------------------------------

/// The journal commit blocks among `epochs`' writes, as (epoch, index).
/// Each must be alone in its flush epoch, and its whole record — the
/// descriptor and every image — must have been written in earlier
/// epochs: the flush in front of the commit block follows the record.
fn commit_blocks(geo: &rae_fsformat::Geometry, epochs: &[Epoch]) -> Vec<(usize, usize)> {
    let journal = geo.journal_start..geo.journal_start + geo.journal_blocks;
    // commit block -> (seq, descriptor block, the descriptor's epoch)
    let mut awaited = std::collections::HashMap::new();
    let mut written_in = std::collections::HashMap::new();
    let mut out = Vec::new();
    for (k, epoch) in epochs.iter().enumerate() {
        for (i, (bno, img)) in epoch.iter().enumerate() {
            if journal.contains(bno) {
                if let Ok(Some((seq, tags))) = decode_descriptor(img) {
                    awaited.insert(bno + 1 + tags.len() as u64, (seq, *bno, k));
                } else if let Some(&(seq, desc, desc_k)) = awaited.get(bno) {
                    if is_commit(img, seq) {
                        assert_eq!(epoch.len(), 1, "commit block {bno} shares epoch {k}");
                        for b in desc..*bno {
                            assert!(
                                written_in.get(&b).is_some_and(|&w| desc_k <= w && w < k),
                                "record block {b} is not behind the flush before commit block {bno}"
                            );
                        }
                        out.push((k, i));
                    }
                }
            }
            written_in.insert(*bno, k);
        }
    }
    out
}

/// Explore every crash state of `tape`, recorded over a device that held
/// `pre` when the tape starts ([`crash::crash_states`]): each must mount,
/// replay and check clean, with the tree `trees[j]`, where `j` counts
/// the journal commit blocks among its writes — nothing of a transaction
/// before its commit block lands, all of it, data included, once it has.
/// Returns the flush epochs' sizes.
fn explore(pre: &[u8], tape: &[TapeEntry], trees: &[Tree]) -> Vec<usize> {
    let base = Arc::new(MemDisk::from_image(pre));
    let geo = Superblock::read_from(base.as_ref()).unwrap().geometry;
    let epochs = crash::epochs(tape);
    let commits = commit_blocks(&geo, &epochs);
    assert_eq!(commits.len() + 1, trees.len(), "one tree per commit block");
    let states = crash::crash_states(&epochs, 0);
    for state in &states {
        let landed = commits
            .iter()
            .filter(|&&(k, i)| k < state.epoch || k == state.epoch && state.kept.contains(&i))
            .count();
        let dev = Arc::new(CrashImage::new(Arc::clone(&base), &epochs, state));
        let what = format!("{state:?}");
        let (got, want) = (recovered_tree_on(dev, &what), &trees[landed]);
        let differ: std::collections::BTreeSet<&String> = got
            .keys()
            .chain(want.keys())
            .filter(|p| got.get(*p) != want.get(*p))
            .collect();
        assert!(
            differ.is_empty(),
            "{what}: {landed} commit blocks landed, so tree {landed} of {} was due; \
             got tree {:?}, differing at {differ:?}",
            trees.len(),
            trees.iter().position(|t| *t == got)
        );
    }
    epochs.iter().map(Vec::len).collect()
}

/// Mount `pre` over a tape, run `txn`, crash, and explore the tape:
/// every state is the old tree or, from the commit block on, the new.
/// Returns the epochs' sizes.
fn explore_txn(pre: &[u8], txn: fn(&dyn FileSystem) -> FsResult<()>) -> Vec<usize> {
    let dev = Arc::new(TapeDisk::from_image(pre));
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    let before = tree(&fs);
    txn(&fs).unwrap();
    let after = tree(&fs);
    fs.crash();
    explore(pre, &dev.since(0), &[before, after])
}

#[test]
fn crash_epoch_scattered_fsync() {
    let sizes = explore_txn(&fragmented_image(), scattered_fsync);
    // one hole per file, the record and its commit block among them; the
    // combined batch is too large to enumerate whole
    assert!(
        sizes.iter().any(|&n| n > crash::EXHAUSTIVE_WRITES),
        "{sizes:?}"
    );
}

#[test]
fn crash_epoch_transaction() {
    explore_txn(&base_image(), |fs| transaction(fs, 1));
}

#[test]
fn crash_epoch_auto_checkpoint() {
    let dev = Arc::new(TapeDisk::from_image(&base_image()));
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    for round in 1..=64 {
        let (pre, mark, before) = (dev.snapshot(), dev.mark(), tree(&fs));
        let checkpoints = fs.stats().journal_checkpoints;
        transaction(&fs, round).unwrap();
        if fs.stats().journal_checkpoints > checkpoints {
            // the commit that filled the journal wrote every pending home
            // and reset the journal before its own record
            let after = tree(&fs);
            fs.crash();
            let sizes = explore(&pre, &dev.since(mark), &[before, after]);
            assert!(sizes.len() >= 4, "homes, reset, record, commit: {sizes:?}");
            return;
        }
    }
    panic!("the journal never filled");
}

#[test]
fn crash_epoch_replay() {
    let (journaled, geo, post) = journaled_image();
    let dev = TapeDisk::from_image(&journaled);
    assert_eq!(journal::replay(&dev, &geo).unwrap().transactions, 3);
    // a crash anywhere inside recovery replays to the same tree
    explore(&journaled, &dev.since(0), &[post]);
}

/// What a [`StallDisk`] saw, in order.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    /// A journal descriptor: its sequence number and home blocks.
    Descriptor(u64, Vec<u64>),
    /// A journal commit block.
    Commit,
    /// A write outside the journal.
    Home(u64),
}

/// Records the write order and, once armed, parks the first journal
/// descriptor write until released.
struct StallDisk {
    inner: MemDisk,
    journal: std::ops::Range<u64>,
    seen: Mutex<Vec<Seen>>,
    armed: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl BlockDevice for StallDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.inner.read_block(bno, buf)
    }
    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        let seen = if !self.journal.contains(&bno) {
            Some(Seen::Home(bno))
        } else if let Ok(Some((seq, tags))) = decode_descriptor(buf) {
            if let Some((stalled, release)) = self.armed.lock().unwrap().take() {
                stalled.send(()).unwrap();
                release.recv().unwrap();
            }
            Some(Seen::Descriptor(
                seq,
                tags.iter().map(|t| t.target).collect(),
            ))
        } else {
            let last_seq = self
                .seen
                .lock()
                .unwrap()
                .iter()
                .rev()
                .find_map(|s| match s {
                    Seen::Descriptor(seq, _) => Some(*seq),
                    _ => None,
                });
            last_seq
                .filter(|&seq| is_commit(buf, seq))
                .map(|_| Seen::Commit)
        };
        self.inner.write_block(bno, buf)?;
        self.seen.lock().unwrap().extend(seen);
        Ok(())
    }
    fn flush(&self) -> FsResult<()> {
        self.inner.flush()
    }
}

/// Regression test for the write-ahead race at commit: readers take no
/// transaction lock, so a reader's eviction can run while a commit is
/// in flight. No home write of a block the transaction journals may
/// reach the device before that transaction's commit block.
#[test]
fn commit_pins_journaled_pages_until_the_commit_block() {
    let inner = MemDisk::new(4096);
    let geo = mkfs(&inner, MkfsParams::default()).unwrap();
    let dev = Arc::new(StallDisk {
        inner,
        journal: geo.journal_start..geo.journal_start + geo.journal_blocks,
        seen: Mutex::new(Vec::new()),
        armed: Mutex::new(None),
    });
    let fs = BaseFs::mount(
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        BaseFsConfig {
            page_cache_blocks: 16,
            ..BaseFsConfig::default()
        },
    )
    .unwrap();
    // files for the reader, on disk and open before the commit starts
    let mut fds = Vec::new();
    for i in 0..48u8 {
        let fd = fs
            .open(&format!("/r{i}"), OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        fs.write(fd, 0, &[i; BLOCK_SIZE]).unwrap();
        fds.push(fd);
    }
    fs.checkpoint().unwrap();
    // the transaction under test: fresh metadata in the cache
    fs.mkdir("/m").unwrap();
    fs.mkdir("/m/n").unwrap();

    let (stalled_tx, stalled_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    *dev.armed.lock().unwrap() = Some((stalled_tx, release_rx));
    dev.seen.lock().unwrap().clear();
    std::thread::scope(|s| {
        let committer = s.spawn(|| fs.sync());
        stalled_rx.recv().unwrap();
        // the commit is parked inside its record write: read enough
        // to evict every unpinned page. An eviction's home write is
        // queued, not awaited, so give the write-back workers time to
        // write any before the commit resumes — the pause only decides
        // how surely a regression shows, never whether a correct run
        // passes.
        for (i, &fd) in fds.iter().enumerate() {
            assert_eq!(fs.read(fd, 0, 1).unwrap(), [i as u8]);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        release_tx.send(()).unwrap();
        committer.join().unwrap().unwrap();
    });

    let seen = dev.seen.lock().unwrap().clone();
    let d = seen
        .iter()
        .position(|s| matches!(s, Seen::Descriptor(..)))
        .expect("the commit wrote a descriptor");
    let Seen::Descriptor(_, targets) = &seen[d] else {
        unreachable!()
    };
    let c = d + seen[d..]
        .iter()
        .position(|s| *s == Seen::Commit)
        .expect("the commit wrote its commit block");
    let early: Vec<&Seen> = seen[..c]
        .iter()
        .filter(|s| matches!(s, Seen::Home(b) if targets.contains(b)))
        .collect();
    assert!(
        early.is_empty(),
        "journaled blocks written home before the commit block: {early:?} (targets {targets:?})"
    );
    assert!(fs.stats().cache.evictions > 0, "the reader evicted");
    for fd in fds {
        fs.close(fd).unwrap();
    }
    fs.unmount().unwrap();
}
