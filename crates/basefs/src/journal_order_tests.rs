//! Journal write-order tests: every crash state the flush epochs of a
//! commit, a scattered fsync, a checkpointing commit and a replay allow
//! (the crash-state explorer), with the extent shape of their requests,
//! the failure paths of a commit's combined data + record batch, the
//! write-ahead rule under a commit that stalls while readers evict, and
//! the commit rule: which callers a commit's cut covers, a failed or
//! panicking commit with a caller queued behind it, and the crash
//! states of two committers.

use crate::fs::{BaseFs, BaseFsConfig};
use crate::support_tests::{parked, Park, ParkDisk};
use rae_blockdev::crash::{self, CrashImage, Epoch};
use rae_blockdev::{
    BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk, StatsDisk, TapeDisk, TapeEntry, BLOCK_SIZE,
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
/// Returns the epochs' sizes and `txn`'s own write requests and blocks.
fn explore_txn(pre: &[u8], txn: fn(&dyn FileSystem) -> FsResult<()>) -> (Vec<usize>, u64, u64) {
    let dev = Arc::new(StatsDisk::new(TapeDisk::from_image(pre)));
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    let before = tree(&fs);
    let c0 = dev.counters();
    txn(&fs).unwrap();
    let c1 = dev.counters();
    let after = tree(&fs);
    fs.crash();
    let sizes = explore(pre, &dev.inner().since(0), &[before, after]);
    (
        sizes,
        c1.write_requests - c0.write_requests,
        c1.writes - c0.writes,
    )
}

#[test]
fn crash_epoch_scattered_fsync() {
    let (sizes, requests, _) = explore_txn(&fragmented_image(), scattered_fsync);
    // one hole per file, the record and its commit block among them; the
    // combined batch is too large to enumerate whole
    assert!(
        sizes.iter().any(|&n| n > crash::EXHAUSTIVE_WRITES),
        "{sizes:?}"
    );
    // one request per hole, then the record and the commit block
    assert!(
        requests >= u64::from(HOLES) + 2,
        "the data went out scattered: {requests} requests"
    );
}

#[test]
fn crash_epoch_transaction() {
    let (_, requests, blocks) = explore_txn(&base_image(), |fs| transaction(fs, 1));
    assert!(
        requests < blocks,
        "the commit moved some blocks as an extent: {requests} requests, {blocks} blocks"
    );
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
    let dev = StatsDisk::new(TapeDisk::from_image(&journaled));
    assert_eq!(journal::replay(&dev, &geo).unwrap().transactions, 3);
    let c = dev.counters();
    assert!(
        c.write_requests < c.writes && c.read_requests < c.reads,
        "replay moves runs, not blocks: {c:?}"
    );
    // a crash anywhere inside recovery — inside the home runs, between
    // them and the reset, inside the reset — replays to the same tree
    explore(&journaled, &dev.inner().since(0), &[post]);
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

// ----------------------------------------------------------------------
// The commit rule: an fsync returns once a durable commit's cut covers it
// ----------------------------------------------------------------------

/// Wait until `n` callers are inside the commit path with their cuts
/// read.
fn await_committers(fs: &BaseFs, n: u64) {
    let t0 = std::time::Instant::now();
    while fs.committers() < n {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "{n} committers never queued"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Create `path` holding a block and a half of `fill`; the descriptor
/// stays open.
fn put(fs: &dyn FileSystem, path: &str, fill: u8) -> rae_vfs::Fd {
    let fd = fs.open(path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
    fs.write(fd, 0, &[fill; BLOCK_SIZE + BLOCK_SIZE / 2])
        .unwrap();
    fd
}

/// `/a` and `/b` written and `/base/m` made on a mount of [`base_image`]
/// over a [`ParkDisk`], with both files' fsyncs queued while the mkdir
/// is parked in a device read under the transaction lock: each caller
/// read its cut before any commit's cut. Returns what each fsync did.
fn fsyncs_queued_behind_a_mutation(
    fs: &BaseFs,
    dev: &ParkDisk,
) -> [std::thread::Result<FsResult<()>>; 2] {
    let (fa, fb) = (put(fs, "/a", 1), put(fs, "/b", 2));
    let (signal, release) = dev.arm(Park::Read);
    std::thread::scope(|s| {
        let m = s.spawn(|| fs.mkdir("/base/m"));
        parked(&signal, "the mkdir's directory read");
        let a = s.spawn(|| fs.fsync(fa));
        let b = s.spawn(|| fs.fsync(fb));
        await_committers(fs, 2);
        release.send(()).unwrap();
        m.join().unwrap().unwrap();
        [a.join(), b.join()]
    })
}

/// Two fsyncs queued before any cut cost one commit: the caller that
/// finds a durable cut taken after it arrived returns with no commit of
/// its own, and the crashed image holds both writes.
#[test]
fn commit_rule_callers_queued_before_a_cut_share_its_commit() {
    let mem = Arc::new(MemDisk::from_image(&base_image()));
    let dev = ParkDisk::new(Arc::clone(&mem) as Arc<dyn BlockDevice>);
    let telemetry = rae_telemetry::Telemetry::new();
    let fs = BaseFs::mount(
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        BaseFsConfig {
            telemetry: Some(Arc::clone(&telemetry)),
            ..BaseFsConfig::default()
        },
    )
    .unwrap();
    let commits = fs.stats().journal_commits;
    for r in fsyncs_queued_behind_a_mutation(&fs, &dev) {
        r.unwrap().unwrap();
    }
    assert_eq!(fs.stats().journal_commits - commits, 1, "two fsyncs");
    // an empty commit journals nothing, so count the commits the fsyncs
    // made: one, its cut taken with both callers inside
    let batch = telemetry.snapshot().commit_batch;
    assert_eq!((batch.count, batch.sum), (1, 2), "{batch:?}");
    let want = tree(&fs);
    assert!(want.contains_key("/a") && want.contains_key("/b"));
    fs.crash();
    assert_eq!(recovered_tree(&mem.snapshot(), "crashed"), want);
}

/// `/a` written and fsynced, its commit parked at its first flush (the
/// cut is taken); meanwhile a second caller writes `/b`, which waits
/// for the commit, and fsyncs. Both fsyncs return.
fn fsync_after_a_parked_cut(fs: &BaseFs, dev: &ParkDisk) {
    let fa = put(fs, "/a", 1);
    let (signal, release) = dev.arm(Park::Flush);
    std::thread::scope(|s| {
        let a = s.spawn(|| fs.fsync(fa));
        parked(&signal, "the commit's flush");
        let b = s.spawn(|| {
            let fb = put(fs, "/b", 2);
            fs.fsync(fb)
        });
        release.send(()).unwrap();
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
    });
}

/// A caller that reads its cut after a commit's cut commits again: that
/// commit, though durable when the caller asks, does not hold the
/// caller's write, and a crash afterwards must.
#[test]
fn commit_rule_a_caller_after_a_cut_commits_again() {
    let mem = Arc::new(MemDisk::from_image(&base_image()));
    let dev = ParkDisk::new(Arc::clone(&mem) as Arc<dyn BlockDevice>);
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    let commits = fs.stats().journal_commits;
    fsync_after_a_parked_cut(&fs, &dev);
    assert_eq!(fs.stats().journal_commits - commits, 2);
    let want = tree(&fs);
    fs.crash();
    let got = recovered_tree(&mem.snapshot(), "crashed");
    assert_eq!(got.get("/b"), want.get("/b"), "the second write");
    assert_eq!(got, want);
}

/// A commit whose flush fails errs for its own caller only: the other
/// caller, queued before that commit's cut, finds no durable cut
/// covering it, commits what the failure re-dirtied, and returns `Ok`;
/// the crashed image holds both writes.
#[test]
fn commit_rule_a_failed_commit_errs_only_for_its_own_caller() {
    use rae_blockdev::TriggerMode;
    let faulty = Arc::new(FaultyDisk::new(MemDisk::from_image(&base_image())));
    let dev = ParkDisk::new(Arc::clone(&faulty) as Arc<dyn BlockDevice>);
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    let commits = fs.stats().journal_commits;
    faulty.set_plan(DiskFaultPlan::new().fail_flushes(TriggerMode::Nth(1)));
    let results = fsyncs_queued_behind_a_mutation(&fs, &dev).map(|r| r.unwrap());
    assert_eq!(faulty.injected_faults(), 1);
    assert_eq!(
        results.iter().filter(|r| r.is_err()).count(),
        1,
        "only the failed commit's caller errs: {results:?}"
    );
    assert_eq!(fs.stats().journal_commits - commits, 1);
    let want = tree(&fs);
    assert!(want.contains_key("/a") && want.contains_key("/b"));
    fs.crash();
    assert_eq!(recovered_tree(&faulty.inner().snapshot(), "crashed"), want);
}

/// A commit that panics unwinds its own caller only: the caller queued
/// behind it neither hangs nor inherits the panic, and commits.
#[test]
fn commit_rule_a_panicking_commit_leaves_its_queue_running() {
    use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        700,
        "commit-panic",
        Site::JournalCommit,
        Trigger::NthMatch(1),
        Effect::Panic,
    ));
    let mem = Arc::new(MemDisk::from_image(&base_image()));
    let dev = ParkDisk::new(Arc::clone(&mem) as Arc<dyn BlockDevice>);
    let fs = BaseFs::mount(
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        BaseFsConfig {
            faults: faults.clone(),
            ..BaseFsConfig::default()
        },
    )
    .unwrap();
    let commits = fs.stats().journal_commits;
    let results = fsyncs_queued_behind_a_mutation(&fs, &dev);
    assert_eq!(faults.fired(700), 1);
    assert_eq!(
        results.iter().filter(|r| r.is_err()).count(),
        1,
        "one commit panicked"
    );
    for r in results.into_iter().flatten() {
        r.unwrap();
    }
    assert_eq!(fs.stats().journal_commits - commits, 1);
    let want = tree(&fs);
    fs.crash();
    assert_eq!(recovered_tree(&mem.snapshot(), "crashed"), want);
}

/// Every crash state of two committers, the second after the first's
/// cut ([`fsync_after_a_parked_cut`]), replays to the tree before either
/// commit, after the first's, or after both, by the commit blocks landed.
#[test]
fn crash_epoch_two_committers() {
    let pre = base_image();
    let model = rae_fsmodel::ModelFs::new();
    base_program(&model);
    let mut trees = vec![tree(&model)];
    for (path, fill) in [("/a", 1), ("/b", 2)] {
        put(&model, path, fill);
        trees.push(tree(&model));
    }
    let tape = Arc::new(TapeDisk::from_image(&pre));
    let dev = ParkDisk::new(Arc::clone(&tape) as Arc<dyn BlockDevice>);
    let fs = mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    assert_eq!(tree(&fs), trees[0]);
    fsync_after_a_parked_cut(&fs, &dev);
    fs.crash();
    explore(&pre, &tape.since(0), &trees);
}
