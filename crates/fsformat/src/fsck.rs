//! The full structural checker — the paper's "verified FSCK" analog.
//!
//! §4.3: "to ensure the shadow is robust against crashes given a crafted
//! filesystem image and call sequence, the input image must be
//! guaranteed to be valid, essentially requiring a verified version of
//! the filesystem checker." [`fsck`] is that checker: it never panics on
//! arbitrary bytes, and it validates every cross-structure invariant of
//! the format. The shadow runs it (at configurable depth) before
//! trusting an image; experiments E7 feed it the crafted-image corpus.

use crate::bitmap::Bitmap;
use crate::dirent::DirBlock;
use crate::inode::{inodes_in_table_block, DiskInode, PTRS_PER_BLOCK};
use crate::layout::Geometry;
use crate::superblock::{MountState, Superblock};
use crate::wire::get_u64;
use rae_blockdev::{BlockDevice, BLOCK_SIZE};
use rae_vfs::{FileType, FsResult, InodeNo, ROOT_INO};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::Range;

/// One inconsistency found by [`fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckError {
    /// The superblock failed validation; no further checking possible.
    Superblock(String),
    /// An inode record failed decoding or structural validation.
    BadInode {
        /// The inode.
        ino: InodeNo,
        /// What failed.
        detail: String,
    },
    /// A directory block failed validation.
    BadDirent {
        /// The owning directory.
        dir: InodeNo,
        /// What failed.
        detail: String,
    },
    /// A directory entry points at an unallocated or out-of-range inode.
    DanglingEntry {
        /// The owning directory.
        dir: InodeNo,
        /// Entry name.
        name: String,
        /// The bogus target.
        target: InodeNo,
    },
    /// A directory entry's recorded type disagrees with the inode.
    TypeMismatch {
        /// The owning directory.
        dir: InodeNo,
        /// Entry name.
        name: String,
        /// The target inode.
        target: InodeNo,
    },
    /// A block is referenced by more than one owner.
    DoubleAlloc {
        /// The block.
        bno: u64,
        /// Two of its owners.
        owners: (InodeNo, InodeNo),
    },
    /// A directory is referenced by more than one entry (hard-linked
    /// directory) or a directory cycle exists.
    DirLoop {
        /// The multiply-referenced directory.
        ino: InodeNo,
    },
    /// Data bitmap disagrees with actual block usage.
    DataBitmapMismatch {
        /// The block.
        bno: u64,
        /// Bit state in the bitmap.
        marked: bool,
        /// Whether some inode actually uses it.
        used: bool,
    },
    /// Inode bitmap disagrees with the inode table.
    InodeBitmapMismatch {
        /// The inode.
        ino: InodeNo,
        /// Bit state in the bitmap.
        marked: bool,
        /// Whether the table slot is populated.
        used: bool,
    },
    /// An allocated inode is not reachable from the root.
    Unreachable {
        /// The orphan.
        ino: InodeNo,
    },
    /// An inode's recorded link count is wrong.
    LinkCount {
        /// The inode.
        ino: InodeNo,
        /// Count in the inode.
        recorded: u32,
        /// Count derived from the directory tree.
        actual: u32,
    },
    /// An inode's recorded block count is wrong.
    BlockCount {
        /// The inode.
        ino: InodeNo,
        /// Count in the inode.
        recorded: u32,
        /// Count derived from its pointers.
        actual: u32,
    },
    /// A directory's size field is not consistent with its blocks.
    DirSize {
        /// The directory.
        ino: InodeNo,
        /// Its size field.
        size: u64,
    },
    /// Superblock free counters disagree with the bitmaps.
    FreeCount {
        /// `"inodes"` or `"blocks"`.
        kind: &'static str,
        /// Superblock value.
        superblock: u64,
        /// Bitmap-derived value.
        actual: u64,
    },
    /// The root inode is missing or not a directory.
    BadRoot(String),
}

impl fmt::Display for FsckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsckError::Superblock(d) => write!(f, "superblock: {d}"),
            FsckError::BadInode { ino, detail } => write!(f, "{ino}: {detail}"),
            FsckError::BadDirent { dir, detail } => write!(f, "dir {dir}: {detail}"),
            FsckError::DanglingEntry { dir, name, target } => {
                write!(f, "dir {dir}: entry '{name}' -> unallocated {target}")
            }
            FsckError::TypeMismatch { dir, name, target } => {
                write!(f, "dir {dir}: entry '{name}' type disagrees with {target}")
            }
            FsckError::DoubleAlloc { bno, owners } => {
                write!(f, "block {bno} owned by both {} and {}", owners.0, owners.1)
            }
            FsckError::DirLoop { ino } => write!(f, "directory {ino} multiply referenced"),
            FsckError::DataBitmapMismatch { bno, marked, used } => write!(
                f,
                "data bitmap: block {bno} marked={marked} but used={used}"
            ),
            FsckError::InodeBitmapMismatch { ino, marked, used } => write!(
                f,
                "inode bitmap: {ino} marked={marked} but table populated={used}"
            ),
            FsckError::Unreachable { ino } => write!(f, "{ino} unreachable from root"),
            FsckError::LinkCount {
                ino,
                recorded,
                actual,
            } => {
                write!(f, "{ino}: link count {recorded}, tree says {actual}")
            }
            FsckError::BlockCount {
                ino,
                recorded,
                actual,
            } => {
                write!(f, "{ino}: block count {recorded}, pointers say {actual}")
            }
            FsckError::DirSize { ino, size } => {
                write!(f, "dir {ino}: size {size} not consistent with its blocks")
            }
            FsckError::FreeCount {
                kind,
                superblock,
                actual,
            } => {
                write!(
                    f,
                    "superblock free {kind} = {superblock}, bitmap says {actual}"
                )
            }
            FsckError::BadRoot(d) => write!(f, "root: {d}"),
        }
    }
}

/// The result of a check pass.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// All inconsistencies found, in discovery order.
    pub errors: Vec<FsckError>,
    /// Allocated inodes examined.
    pub inodes_checked: u64,
    /// Directory entries examined.
    pub entries_checked: u64,
    /// Data blocks accounted to owners.
    pub blocks_accounted: u64,
}

impl FsckReport {
    /// Whether the image is fully consistent.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "clean ({} inodes, {} entries, {} blocks)",
                self.inodes_checked, self.entries_checked, self.blocks_accounted
            )
        } else {
            writeln!(f, "{} error(s):", self.errors.len())?;
            for e in &self.errors {
                writeln!(f, "  {e}")?;
            }
            Ok(())
        }
    }
}

/// What [`fsck_keeping_meta`] loaded and validated on its way: the
/// superblock and both bitmaps. A caller that goes on to use the image
/// (the shadow's load) takes these instead of reading them again.
#[derive(Debug, Clone)]
pub struct LoadedMeta {
    /// The validated superblock.
    pub superblock: Superblock,
    /// The inode bitmap.
    pub inode_bitmap: Bitmap,
    /// The data bitmap.
    pub data_bitmap: Bitmap,
}

/// Most workers a scan pass fans out to, whatever the core count.
const MAX_SCAN_WORKERS: usize = 8;
/// Longest extent one pass-2 worker reads in one request (1 MiB of
/// inode table: a 4096-inode table is one extent per worker).
const MAX_SCAN_EXTENT: usize = 256;
/// Below this many inode-table blocks (pass 2) or inodes with a pointer
/// block (the block-map pass) per worker, starting a thread costs more
/// than the device reads it would overlap.
const MIN_READS_PER_WORKER: usize = 16;

/// Worker budget of one check: the core count, clamped.
fn scan_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_SCAN_WORKERS)
}

/// Run `scan` over `0..items` split into contiguous ranges — at most
/// `budget` of them, each at least `min_per_worker` long — on scoped
/// threads (the last range on the calling thread), and return the
/// results in range order, so concatenating them reproduces what one
/// serial scan of `0..items` would have produced.
fn fan_out<T: Send>(
    items: usize,
    min_per_worker: usize,
    budget: usize,
    scan: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let workers = budget.min(items.div_ceil(min_per_worker)).max(1);
    let per = items.div_ceil(workers);
    let range = |w: usize| (w * per).min(items)..((w + 1) * per).min(items);
    std::thread::scope(|s| {
        let scan = &scan;
        let spawned: Vec<_> = (0..workers - 1)
            .map(|w| {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || scan(range(w)))
                    .map_err(|_| w)
            })
            .collect();
        let last = scan(range(workers - 1));
        spawned
            .into_iter()
            .map(|worker| match worker {
                Ok(h) => h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
                // the thread could not be started (this runs inside a
                // recovery, possibly on a struggling machine): scan its
                // range here instead
                Err(w) => scan(range(w)),
            })
            .chain(std::iter::once(last))
            .collect()
    })
}

/// What pass 2 finds in a range of the inode table: the valid inodes
/// and the errors, both in inode order.
type TableScan = (Vec<(InodeNo, DiskInode)>, Vec<FsckError>);

/// Pass 2 over inode-table blocks `blocks`: the range read as extents
/// of at most [`MAX_SCAN_EXTENT`] blocks, one device request each, and
/// every inode decoded from them.
///
/// A device error names no block, so an extent that fails is read
/// again block by block to find the unreadable one, which is reported
/// against its own inodes only. For a fault that repeats (a bad block)
/// that is exactly the report of a scan of one-block reads. A fault
/// that does not repeat on the re-read cannot be pinned on a block:
/// the check fails with the extent's error, as a pointer-block read
/// error fails it, and absorbing it is left to a retrying device. The
/// re-read does decide the blocks up to the failing one a second time,
/// so a one-shot corruption among them reads clean.
fn scan_inode_table<D: BlockDevice + ?Sized>(
    dev: &D,
    geo: &Geometry,
    blocks: Range<usize>,
) -> FsResult<TableScan> {
    let mut inodes = Vec::new();
    let mut errors = Vec::new();
    let mut decode = |index: usize, read: FsResult<()>, block: &[u8]| {
        for (ino, decoded) in inodes_in_table_block(geo, index as u64, block) {
            let checked = read.clone().and(decoded).and_then(|slot| {
                slot.map(|inode| inode.validate(geo).map(|()| inode))
                    .transpose()
            });
            match checked {
                Ok(Some(inode)) => inodes.push((ino, inode)),
                Ok(None) => {}
                Err(e) => errors.push(FsckError::BadInode {
                    ino,
                    detail: e.to_string(),
                }),
            }
        }
    };
    let mut extent = vec![0u8; blocks.len().min(MAX_SCAN_EXTENT) * BLOCK_SIZE];
    for first in blocks.clone().step_by(MAX_SCAN_EXTENT) {
        let indices = first..(first + MAX_SCAN_EXTENT).min(blocks.end);
        let images = &mut extent[..indices.len() * BLOCK_SIZE];
        let mut bufs: Vec<&mut [u8]> = images.chunks_exact_mut(BLOCK_SIZE).collect();
        let Err(failed) = dev.read_blocks(geo.inode_table_start + first as u64, &mut bufs) else {
            for (index, block) in indices.zip(images.chunks_exact(BLOCK_SIZE)) {
                decode(index, Ok(()), block);
            }
            continue;
        };
        let mut pinned = false;
        for (index, block) in indices.zip(images.chunks_exact_mut(BLOCK_SIZE)) {
            let read = dev.read_block(geo.inode_table_start + index as u64, block);
            if read.is_err() {
                // reported against every inode of the block; the zeroed
                // image only supplies their numbers
                block.fill(0);
                pinned = true;
            }
            decode(index, read, block);
        }
        if !pinned {
            return Err(failed);
        }
    }
    Ok((inodes, errors))
}

/// What one inode's pointer tree says, from a single read of each of
/// its indirect blocks.
struct BlockMap {
    /// Every block charged to the inode's block count: data blocks
    /// plus the indirect blocks themselves, in pointer order.
    owned: Vec<u64>,
    /// Pointers that leave the data region, in pointer order.
    errors: Vec<FsckError>,
    /// Directories only: the data block of each file block within
    /// `0..size`, in file order (holes as 0).
    dir_blocks: Vec<u64>,
}

fn read_ptrs<D: BlockDevice + ?Sized>(dev: &D, bno: u64) -> FsResult<Vec<u64>> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    dev.read_block(bno, &mut buf)?;
    Ok((0..PTRS_PER_BLOCK).map(|s| get_u64(&buf, s * 8)).collect())
}

/// Walk `inode`'s pointer tree once.
fn map_blocks<D: BlockDevice + ?Sized>(
    dev: &D,
    geo: &Geometry,
    ino: InodeNo,
    inode: &DiskInode,
) -> FsResult<BlockMap> {
    let mut owned = Vec::new();
    let mut errors = Vec::new();
    // charge `bno` to the inode; true when it is a data block (so, if
    // it is an indirect block, one that may be read)
    let mut claim = |bno: u64| {
        if bno == 0 {
            return false;
        }
        if geo.is_data_block(bno) {
            owned.push(bno);
            true
        } else {
            errors.push(FsckError::BadInode {
                ino,
                detail: format!("pointer to non-data block {bno}"),
            });
            false
        }
    };
    // directories also need their blocks in file order for the tree
    // walk: `logical` grows one pointer table at a time (an absent
    // table reads as holes) until it covers the directory's size
    let wanted = if inode.ftype == FileType::Directory {
        usize::try_from(inode.size.div_ceil(BLOCK_SIZE as u64)).unwrap_or(usize::MAX)
    } else {
        0
    };
    let mut logical: Vec<u64> = Vec::new();
    let cover = |logical: &mut Vec<u64>, table: Option<&[u64]>| {
        if logical.len() < wanted {
            match table {
                Some(t) => logical.extend_from_slice(t),
                None => logical.resize(logical.len() + PTRS_PER_BLOCK, 0),
            }
        }
    };

    for &p in &inode.direct {
        claim(p);
    }
    cover(&mut logical, Some(&inode.direct));
    let single = if claim(inode.indirect) {
        let table = read_ptrs(dev, inode.indirect)?;
        for &p in &table {
            claim(p);
        }
        Some(table)
    } else {
        None
    };
    cover(&mut logical, single.as_deref());
    if claim(inode.dindirect) {
        for l1p in read_ptrs(dev, inode.dindirect)? {
            let leaf = if claim(l1p) {
                let table = read_ptrs(dev, l1p)?;
                for &p in &table {
                    claim(p);
                }
                Some(table)
            } else {
                None
            };
            cover(&mut logical, leaf.as_deref());
        }
    }
    logical.resize(wanted, 0);
    Ok(BlockMap {
        owned,
        errors,
        dir_blocks: logical,
    })
}

/// Run the full structural check over `dev`.
///
/// Never panics on arbitrary images; every defect is reported as an
/// [`FsckError`]. Read-only, and read-once: each inode-table block,
/// indirect block and directory block is fetched a single time (only a
/// block that two owners both claim — itself a reported defect — can be
/// fetched once per claim). The two passes that do the bulk of the
/// reading, the inode-table scan and the block-map pass, fan out over
/// scoped worker threads by block / inode range and are merged in
/// inode order, so the report does not depend on the worker count.
///
/// # Errors
///
/// Only device I/O failures; *format* problems are reported in the
/// [`FsckReport`], not as `Err`.
pub fn fsck<D: BlockDevice + ?Sized>(dev: &D) -> FsResult<FsckReport> {
    Ok(fsck_keeping_meta(dev)?.0)
}

/// [`fsck`], also handing back the superblock and bitmaps it loaded
/// (`None` when the check stopped before they were all valid).
///
/// # Errors
///
/// As [`fsck`].
pub fn fsck_keeping_meta<D: BlockDevice + ?Sized>(
    dev: &D,
) -> FsResult<(FsckReport, Option<LoadedMeta>)> {
    check(dev, scan_workers())
}

fn check<D: BlockDevice + ?Sized>(
    dev: &D,
    workers: usize,
) -> FsResult<(FsckReport, Option<LoadedMeta>)> {
    let mut report = FsckReport::default();

    // Phase 0: superblock.
    let sb = match Superblock::read_from(dev) {
        Ok(sb) => sb,
        Err(e) => {
            report.errors.push(FsckError::Superblock(e.to_string()));
            return Ok((report, None));
        }
    };
    let geo = sb.geometry;
    if geo.total_blocks > dev.block_count() {
        report.errors.push(FsckError::Superblock(format!(
            "filesystem claims {} blocks but device has {}",
            geo.total_blocks,
            dev.block_count()
        )));
        return Ok((report, None));
    }

    // Phase 1: bitmaps.
    let ibm = match Bitmap::load(
        dev,
        geo.inode_bitmap_start,
        geo.inode_bitmap_blocks,
        u64::from(geo.inode_count),
    ) {
        Ok(b) => b,
        Err(e) => {
            report
                .errors
                .push(FsckError::Superblock(format!("inode bitmap: {e}")));
            return Ok((report, None));
        }
    };
    let dbm = match Bitmap::load(
        dev,
        geo.data_bitmap_start,
        geo.data_bitmap_blocks,
        geo.data_blocks,
    ) {
        Ok(b) => b,
        Err(e) => {
            report
                .errors
                .push(FsckError::Superblock(format!("data bitmap: {e}")));
            return Ok((report, None));
        }
    };

    let meta = LoadedMeta {
        superblock: sb,
        inode_bitmap: ibm,
        data_bitmap: dbm,
    };
    let report = check_structure(dev, &meta, workers, report)?;
    Ok((report, Some(meta)))
}

/// Phases 2–9: everything checked against a valid superblock and
/// loaded bitmaps.
fn check_structure<D: BlockDevice + ?Sized>(
    dev: &D,
    meta: &LoadedMeta,
    workers: usize,
    mut report: FsckReport,
) -> FsResult<FsckReport> {
    let (sb, ibm, dbm) = (&meta.superblock, &meta.inode_bitmap, &meta.data_bitmap);
    let geo = sb.geometry;

    // Phase 2: inode table scan, block-wise and in parallel.
    let mut inodes: BTreeMap<InodeNo, DiskInode> = BTreeMap::new();
    let table_blocks = usize::try_from(geo.inode_table_blocks).unwrap_or(usize::MAX);
    for part in fan_out(table_blocks, MIN_READS_PER_WORKER, workers, |blocks| {
        scan_inode_table(dev, &geo, blocks)
    }) {
        let (valid, errors) = part?;
        inodes.extend(valid);
        report.errors.extend(errors);
    }
    report.inodes_checked = inodes.len() as u64;

    // Phase 3: inode bitmap vs table, against a dense populated set
    // (pass 2 only yields inodes below `inode_count`).
    let mut populated = vec![false; geo.inode_count as usize];
    for ino in inodes.keys() {
        populated[ino.0 as usize] = true;
    }
    for (raw, &used) in (0..geo.inode_count).zip(&populated).skip(1) {
        let ino = InodeNo(raw);
        let marked = ibm.test(u64::from(raw)).unwrap_or(false);
        if marked != used {
            report
                .errors
                .push(FsckError::InodeBitmapMismatch { ino, marked, used });
        }
    }

    // Phase 4: root.
    match inodes.get(&ROOT_INO) {
        Some(i) if i.ftype == FileType::Directory => {}
        Some(_) => report
            .errors
            .push(FsckError::BadRoot("not a directory".into())),
        None => {
            report.errors.push(FsckError::BadRoot("missing".into()));
            return Ok(report);
        }
    }

    // Block-map pass: every indirect block is read here, once, in
    // parallel over the inodes that have one. The directory walk
    // (phase 5) takes its block lists from the maps and the ownership
    // checks (phase 7) their owned sets, so neither reads a pointer
    // block again. An inode with only direct pointers is mapped here,
    // without a read, so an image without indirect blocks starts no
    // thread.
    let (indirect, direct): (Vec<_>, Vec<_>) = inodes
        .iter()
        .partition(|(_, i)| i.indirect != 0 || i.dindirect != 0);
    let mut maps: BTreeMap<InodeNo, BlockMap> = BTreeMap::new();
    for part in fan_out(indirect.len(), MIN_READS_PER_WORKER, workers, |range| {
        indirect[range]
            .iter()
            .map(|&(&ino, inode)| Ok((ino, map_blocks(dev, &geo, ino, inode)?)))
            .collect::<FsResult<Vec<_>>>()
    }) {
        maps.extend(part?);
    }
    for (&ino, inode) in direct {
        maps.insert(ino, map_blocks(dev, &geo, ino, inode)?);
    }

    // Phase 5: directory tree walk from the root.
    let mut name_refs: BTreeMap<InodeNo, u32> = BTreeMap::new(); // dirent references
    let mut subdirs: BTreeMap<InodeNo, u32> = BTreeMap::new(); // child dirs per dir
    let mut visited: BTreeSet<InodeNo> = BTreeSet::new();
    let mut queue = VecDeque::from([ROOT_INO]);
    visited.insert(ROOT_INO);

    while let Some(dir) = queue.pop_front() {
        let inode = inodes[&dir];
        if !inode.size.is_multiple_of(BLOCK_SIZE as u64) {
            report.errors.push(FsckError::DirSize {
                ino: dir,
                size: inode.size,
            });
        }
        for &bno in &maps[&dir].dir_blocks {
            if bno == 0 {
                report.errors.push(FsckError::DirSize {
                    ino: dir,
                    size: inode.size,
                });
                continue;
            }
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(bno, &mut buf)?;
            let db = match DirBlock::from_bytes(buf) {
                Ok(db) => db,
                Err(e) => {
                    report.errors.push(FsckError::BadDirent {
                        dir,
                        detail: e.to_string(),
                    });
                    continue;
                }
            };
            for rec in db.records() {
                report.entries_checked += 1;
                let target = rec.ino;
                let Some(child) = (if target.0 < geo.inode_count {
                    inodes.get(&target)
                } else {
                    None
                }) else {
                    report.errors.push(FsckError::DanglingEntry {
                        dir,
                        name: rec.name.clone(),
                        target,
                    });
                    continue;
                };
                if child.ftype != rec.ftype {
                    report.errors.push(FsckError::TypeMismatch {
                        dir,
                        name: rec.name.clone(),
                        target,
                    });
                }
                *name_refs.entry(target).or_insert(0) += 1;
                if child.ftype == FileType::Directory {
                    *subdirs.entry(dir).or_insert(0) += 1;
                    if !visited.insert(target) {
                        report.errors.push(FsckError::DirLoop { ino: target });
                    } else {
                        queue.push_back(target);
                    }
                }
            }
        }
    }

    // Phase 6: reachability + link counts.
    for (&ino, inode) in &inodes {
        if inode.ftype == FileType::Directory {
            if !visited.contains(&ino) {
                report.errors.push(FsckError::Unreachable { ino });
                continue;
            }
            let expected = 2 + subdirs.get(&ino).copied().unwrap_or(0);
            if u32::from(inode.links) != expected {
                report.errors.push(FsckError::LinkCount {
                    ino,
                    recorded: u32::from(inode.links),
                    actual: expected,
                });
            }
            if ino != ROOT_INO && name_refs.get(&ino).copied().unwrap_or(0) != 1 {
                report.errors.push(FsckError::DirLoop { ino });
            }
        } else {
            let refs = name_refs.get(&ino).copied().unwrap_or(0);
            if refs == 0 {
                report.errors.push(FsckError::Unreachable { ino });
            } else if u32::from(inode.links) != refs {
                report.errors.push(FsckError::LinkCount {
                    ino,
                    recorded: u32::from(inode.links),
                    actual: refs,
                });
            }
        }
    }

    // Phase 7: block ownership, double allocation, block counts — the
    // block maps merged in inode order into a dense owner per data
    // block (`claim` keeps data blocks only).
    let mut owner: Vec<Option<InodeNo>> = vec![None; geo.data_blocks as usize];
    for (ino, map) in maps {
        report.errors.extend(map.errors);
        let recorded = inodes[&ino].blocks;
        if map.owned.len() as u32 != recorded {
            report.errors.push(FsckError::BlockCount {
                ino,
                recorded,
                actual: map.owned.len() as u32,
            });
        }
        for bno in map.owned {
            report.blocks_accounted += 1;
            let slot = &mut owner[(bno - geo.data_start) as usize];
            match *slot {
                Some(prev) => report.errors.push(FsckError::DoubleAlloc {
                    bno,
                    owners: (prev, ino),
                }),
                None => *slot = Some(ino),
            }
        }
    }

    // Phase 8: data bitmap vs ownership, one dense pass.
    for (idx, slot) in (0..).zip(&owner) {
        let bno = geo.data_block(idx);
        let marked = dbm.test(idx).unwrap_or(false);
        let used = slot.is_some();
        if marked != used {
            report
                .errors
                .push(FsckError::DataBitmapMismatch { bno, marked, used });
        }
    }

    // Phase 9: free counters (only meaningful on a clean filesystem;
    // a dirty one may have committed-but-uncheckpointed counters).
    if sb.mount_state == MountState::Clean {
        let actual_free_inodes = u64::from(geo.inode_count) - ibm.count_set();
        if u64::from(sb.free_inodes) != actual_free_inodes {
            report.errors.push(FsckError::FreeCount {
                kind: "inodes",
                superblock: u64::from(sb.free_inodes),
                actual: actual_free_inodes,
            });
        }
        let actual_free_blocks = dbm.count_clear();
        if sb.free_blocks != actual_free_blocks {
            report.errors.push(FsckError::FreeCount {
                kind: "blocks",
                superblock: sb.free_blocks,
                actual: actual_free_blocks,
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::{read_inode, write_inode, NDIRECT};
    use crate::mkfs::{mkfs, MkfsParams};
    use rae_blockdev::{MemDisk, TapeDisk};
    use std::sync::Arc;

    fn fresh() -> (MemDisk, Geometry) {
        let dev = MemDisk::new(4096);
        let geo = mkfs(&dev, MkfsParams::default()).unwrap();
        (dev, geo)
    }

    /// Build a tiny valid tree by hand: /dir, /dir/file (1 block).
    fn build_tree(dev: &MemDisk, geo: &Geometry) {
        let dir_ino = InodeNo(2);
        let file_ino = InodeNo(3);
        let root_dirblk = geo.data_start;
        let dir_dirblk = geo.data_start + 1;
        let file_blk = geo.data_start + 2;

        // root: one block containing "dir"
        let mut root = DiskInode::new(FileType::Directory, 0);
        root.links = 3; // 2 + one subdir
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_dirblk;
        root.blocks = 1;
        write_inode(dev, geo, ROOT_INO, Some(&root)).unwrap();
        let mut db = DirBlock::empty();
        db.try_insert("dir", dir_ino, FileType::Directory).unwrap();
        dev.write_block(root_dirblk, db.as_bytes()).unwrap();

        // dir: one block containing "file"
        let mut dir = DiskInode::new(FileType::Directory, 0);
        dir.size = BLOCK_SIZE as u64;
        dir.direct[0] = dir_dirblk;
        dir.blocks = 1;
        write_inode(dev, geo, dir_ino, Some(&dir)).unwrap();
        let mut db = DirBlock::empty();
        db.try_insert("file", file_ino, FileType::Regular).unwrap();
        dev.write_block(dir_dirblk, db.as_bytes()).unwrap();

        // file: one data block
        let mut file = DiskInode::new(FileType::Regular, 0);
        file.size = 100;
        file.direct[0] = file_blk;
        file.blocks = 1;
        write_inode(dev, geo, file_ino, Some(&file)).unwrap();

        // bitmaps + superblock counters
        let mut ibm = Bitmap::load(
            dev,
            geo.inode_bitmap_start,
            geo.inode_bitmap_blocks,
            u64::from(geo.inode_count),
        )
        .unwrap();
        ibm.set(2).unwrap();
        ibm.set(3).unwrap();
        ibm.store(dev, geo.inode_bitmap_start).unwrap();
        let mut dbm = Bitmap::load(
            dev,
            geo.data_bitmap_start,
            geo.data_bitmap_blocks,
            geo.data_blocks,
        )
        .unwrap();
        for b in [root_dirblk, dir_dirblk, file_blk] {
            dbm.set(geo.data_index(b).unwrap()).unwrap();
        }
        dbm.store(dev, geo.data_bitmap_start).unwrap();
        let mut sb = Superblock::read_from(dev).unwrap();
        sb.free_inodes -= 2;
        sb.free_blocks -= 3;
        sb.write_to(dev).unwrap();
    }

    #[test]
    fn fresh_image_is_clean() {
        let (dev, _) = fresh();
        let report = fsck(&dev).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.inodes_checked, 1); // root only
    }

    #[test]
    fn hand_built_tree_is_clean() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        let report = fsck(&dev).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.inodes_checked, 3);
        assert_eq!(report.entries_checked, 2);
        assert_eq!(report.blocks_accounted, 3);
    }

    #[test]
    fn detects_garbage_superblock() {
        let dev = MemDisk::new(64);
        let report = fsck(&dev).unwrap();
        assert!(matches!(report.errors[0], FsckError::Superblock(_)));
    }

    #[test]
    fn detects_dangling_entry() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        // point "file" at an unallocated inode
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(geo.data_start + 1, &mut buf).unwrap();
        let mut db = DirBlock::from_bytes(buf).unwrap();
        db.remove("file");
        db.try_insert("file", InodeNo(99), FileType::Regular)
            .unwrap();
        dev.write_block(geo.data_start + 1, db.as_bytes()).unwrap();

        let report = fsck(&dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::DanglingEntry { .. })),
            "{report}"
        );
        // and the now-orphaned file inode + bitmap drift are also flagged
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::Unreachable { ino } if *ino == InodeNo(3))));
    }

    #[test]
    fn detects_wrong_link_count() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        let mut file = read_inode(&dev, &geo, InodeNo(3)).unwrap().unwrap();
        file.links = 5;
        write_inode(&dev, &geo, InodeNo(3), Some(&file)).unwrap();
        let report = fsck(&dev).unwrap();
        assert!(report.errors.iter().any(
            |e| matches!(e, FsckError::LinkCount { ino, recorded: 5, actual: 1 } if *ino == InodeNo(3))
        ), "{report}");
    }

    #[test]
    fn detects_double_allocation() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        // make the file share the dir's dirent block
        let mut file = read_inode(&dev, &geo, InodeNo(3)).unwrap().unwrap();
        file.direct[1] = geo.data_start + 1;
        file.blocks = 2;
        write_inode(&dev, &geo, InodeNo(3), Some(&file)).unwrap();
        let report = fsck(&dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::DoubleAlloc { .. })),
            "{report}"
        );
    }

    #[test]
    fn detects_bitmap_mismatches() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        // mark a random free data block as used
        let mut dbm = Bitmap::load(
            &dev,
            geo.data_bitmap_start,
            geo.data_bitmap_blocks,
            geo.data_blocks,
        )
        .unwrap();
        dbm.set(50).unwrap();
        dbm.store(&dev, geo.data_bitmap_start).unwrap();
        let report = fsck(&dev).unwrap();
        assert!(
            report.errors.iter().any(|e| matches!(
                e,
                FsckError::DataBitmapMismatch {
                    marked: true,
                    used: false,
                    ..
                }
            )),
            "{report}"
        );
        // free-count drift is also caught
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::FreeCount { kind: "blocks", .. })));
    }

    #[test]
    fn detects_unreachable_directory() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        // remove the "dir" entry from root but keep the inode allocated
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(geo.data_start, &mut buf).unwrap();
        let mut db = DirBlock::from_bytes(buf).unwrap();
        db.remove("dir");
        dev.write_block(geo.data_start, db.as_bytes()).unwrap();

        let report = fsck(&dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::Unreachable { ino } if *ino == InodeNo(2))),
            "{report}"
        );
    }

    #[test]
    fn detects_type_mismatch() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(geo.data_start + 1, &mut buf).unwrap();
        let mut db = DirBlock::from_bytes(buf).unwrap();
        db.remove("file");
        db.try_insert("file", InodeNo(3), FileType::Symlink)
            .unwrap();
        dev.write_block(geo.data_start + 1, db.as_bytes()).unwrap();
        let report = fsck(&dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::TypeMismatch { .. })),
            "{report}"
        );
    }

    #[test]
    fn detects_wrong_block_count() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        let mut file = read_inode(&dev, &geo, InodeNo(3)).unwrap().unwrap();
        file.blocks = 9;
        write_inode(&dev, &geo, InodeNo(3), Some(&file)).unwrap();
        let report = fsck(&dev).unwrap();
        assert!(
            report.errors.iter().any(|e| matches!(
                e,
                FsckError::BlockCount {
                    recorded: 9,
                    actual: 1,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn detects_corrupt_inode_record() {
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        let (bno, off) = geo.inode_location(InodeNo(3)).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(bno, &mut buf).unwrap();
        buf[off + 9] ^= 0xFF; // smash the size field; checksum breaks
        dev.write_block(bno, &buf).unwrap();
        let report = fsck(&dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::BadInode { ino, .. } if *ino == InodeNo(3))),
            "{report}"
        );
    }

    // ------------------------------------------------------------------
    // Wide image: inodes across seven inode-table blocks, single- and
    // double-indirect files, a directory with an indirect block — the
    // shapes the block-wise scan and the block-map pass partition.
    // ------------------------------------------------------------------

    const WIDE_LAST_FILE: u32 = 100;
    const WIDE_SPARSE: u32 = 40;
    const WIDE_BIGDIR: InodeNo = InodeNo(101);

    fn write_ptrs(dev: &MemDisk, bno: u64, ptrs: &[(usize, u64)]) {
        let mut buf = vec![0u8; BLOCK_SIZE];
        for &(slot, p) in ptrs {
            crate::wire::put_u64(&mut buf, slot * 8, p);
        }
        dev.write_block(bno, &buf).unwrap();
    }

    /// `/dir/f003`..`/dir/f100` (every third with an indirect block,
    /// one sparse through its double-indirect block) and `/big`, a
    /// 13-block directory. Returns the data blocks in use.
    fn build_wide(dev: &MemDisk, geo: &Geometry) -> Vec<u64> {
        let mut next = geo.data_start;
        let mut take = || {
            next += 1;
            next - 1
        };
        let dir_ino = InodeNo(2);

        let root_blk = take();
        let mut root = DiskInode::new(FileType::Directory, 0);
        root.links = 4; // 2 + dir + big
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_blk;
        root.blocks = 1;
        write_inode(dev, geo, ROOT_INO, Some(&root)).unwrap();
        let mut db = DirBlock::empty();
        db.try_insert("dir", dir_ino, FileType::Directory).unwrap();
        db.try_insert("big", WIDE_BIGDIR, FileType::Directory)
            .unwrap();
        dev.write_block(root_blk, db.as_bytes()).unwrap();

        let mut dir_blocks = vec![DirBlock::empty()];
        for raw in 3..=WIDE_LAST_FILE {
            let name = format!("f{raw:03}");
            if !dir_blocks
                .last_mut()
                .unwrap()
                .try_insert(&name, InodeNo(raw), FileType::Regular)
                .unwrap()
            {
                let mut fresh = DirBlock::empty();
                assert!(fresh
                    .try_insert(&name, InodeNo(raw), FileType::Regular)
                    .unwrap());
                dir_blocks.push(fresh);
            }
            let mut file = DiskInode::new(FileType::Regular, 0);
            if raw == WIDE_SPARSE {
                // direct[0], then a hole up to one block behind the
                // double-indirect tree
                file.direct[0] = take();
                file.dindirect = take();
                let (l1, data) = (take(), take());
                write_ptrs(dev, file.dindirect, &[(0, l1)]);
                write_ptrs(dev, l1, &[(5, data)]);
                file.size = ((NDIRECT + PTRS_PER_BLOCK + 6) * BLOCK_SIZE) as u64;
                file.blocks = 4;
            } else if raw % 3 == 0 {
                for d in file.direct.iter_mut() {
                    *d = take();
                }
                file.indirect = take();
                let (a, b) = (take(), take());
                write_ptrs(dev, file.indirect, &[(0, a), (1, b)]);
                file.size = ((NDIRECT + 2) * BLOCK_SIZE) as u64;
                file.blocks = NDIRECT as u32 + 3;
            } else {
                file.direct[0] = take();
                file.size = 100;
                file.blocks = 1;
            }
            write_inode(dev, geo, InodeNo(raw), Some(&file)).unwrap();
        }
        let mut dir = DiskInode::new(FileType::Directory, 0);
        dir.size = (dir_blocks.len() * BLOCK_SIZE) as u64;
        dir.blocks = dir_blocks.len() as u32;
        for (i, db) in dir_blocks.iter().enumerate() {
            dir.direct[i] = take();
            dev.write_block(dir.direct[i], db.as_bytes()).unwrap();
        }
        write_inode(dev, geo, dir_ino, Some(&dir)).unwrap();

        // /big: 12 direct directory blocks plus one behind an indirect
        let mut big = DiskInode::new(FileType::Directory, 0);
        for d in big.direct.iter_mut() {
            *d = take();
            dev.write_block(*d, DirBlock::empty().as_bytes()).unwrap();
        }
        big.indirect = take();
        let last = take();
        dev.write_block(last, DirBlock::empty().as_bytes()).unwrap();
        write_ptrs(dev, big.indirect, &[(0, last)]);
        big.size = ((NDIRECT + 1) * BLOCK_SIZE) as u64;
        big.blocks = NDIRECT as u32 + 2;
        write_inode(dev, geo, WIDE_BIGDIR, Some(&big)).unwrap();

        let used: Vec<u64> = (geo.data_start..next).collect();
        let mut ibm = Bitmap::new(u64::from(geo.inode_count));
        ibm.set(0).unwrap(); // the reserved null inode
        for raw in 1..=WIDE_BIGDIR.0 {
            ibm.set(u64::from(raw)).unwrap();
        }
        ibm.store(dev, geo.inode_bitmap_start).unwrap();
        let mut dbm = Bitmap::new(geo.data_blocks);
        for &b in &used {
            dbm.set(geo.data_index(b).unwrap()).unwrap();
        }
        dbm.store(dev, geo.data_bitmap_start).unwrap();
        let mut sb = Superblock::read_from(dev).unwrap();
        sb.free_inodes = geo.inode_count - ibm.count_set() as u32;
        sb.free_blocks = dbm.count_clear();
        sb.write_to(dev).unwrap();
        used
    }

    #[test]
    fn wide_image_is_clean() {
        let (dev, geo) = fresh();
        let used = build_wide(&dev, &geo);
        let report = fsck(&dev).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.inodes_checked, 101);
        assert_eq!(report.entries_checked, 100);
        assert_eq!(report.blocks_accounted, used.len() as u64);
    }

    /// Defects spread over every pass and several inode-table blocks.
    fn damage_wide(dev: &MemDisk, geo: &Geometry) {
        let edit = |raw: u32, f: &dyn Fn(&mut DiskInode)| {
            let mut inode = read_inode(dev, geo, InodeNo(raw)).unwrap().unwrap();
            f(&mut inode);
            write_inode(dev, geo, InodeNo(raw), Some(&inode)).unwrap();
        };
        // pass 2: a rotten record in table block 0, a zero link count in block 4
        let (bno, off) = geo.inode_location(InodeNo(5)).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(bno, &mut buf).unwrap();
        buf[off + 9] ^= 0xFF;
        dev.write_block(bno, &buf).unwrap();
        edit(70, &|i| i.links = 0);
        // pass 3: populated in the table, free in the bitmap
        let mut ibm = Bitmap::load(
            dev,
            geo.inode_bitmap_start,
            geo.inode_bitmap_blocks,
            u64::from(geo.inode_count),
        )
        .unwrap();
        ibm.clear(88).unwrap();
        ibm.store(dev, geo.inode_bitmap_start).unwrap();
        // pass 6: a wrong link count
        edit(20, &|i| i.links = 3);
        // pass 7: an indirect slot aimed at metadata, a wrong block
        // count, and two files sharing a block
        let ind = read_inode(dev, geo, InodeNo(33)).unwrap().unwrap().indirect;
        dev.read_block(ind, &mut buf).unwrap();
        crate::wire::put_u64(&mut buf, 8, geo.inode_bitmap_start);
        dev.write_block(ind, &buf).unwrap();
        edit(34, &|i| i.blocks = 7);
        let shared = read_inode(dev, geo, InodeNo(10)).unwrap().unwrap().direct[0];
        edit(50, &|i| i.direct[0] = shared);
        let shared = read_inode(dev, geo, InodeNo(66)).unwrap().unwrap().indirect;
        edit(97, &|i| i.direct[0] = shared);
    }

    /// `(inodes_checked, entries_checked, blocks_accounted, errors)`
    /// of the damaged wide image, recorded from the serial checker
    /// this one replaced: same variants, same order, same counters.
    fn wide_golden() -> (u64, u64, u64, Vec<FsckError>) {
        use FsckError as E;
        let bad = |raw: u32, detail: &str| E::BadInode {
            ino: InodeNo(raw),
            detail: detail.into(),
        };
        let ibm = |raw: u32, marked: bool| E::InodeBitmapMismatch {
            ino: InodeNo(raw),
            marked,
            used: !marked,
        };
        let dangling = |raw: u32| E::DanglingEntry {
            dir: InodeNo(2),
            name: format!("f{raw:03}"),
            target: InodeNo(raw),
        };
        let leaked = |bno: u64| E::DataBitmapMismatch {
            bno,
            marked: true,
            used: false,
        };
        let errors = vec![
            bad(
                5,
                "corrupted structure: inode: inode checksum mismatch (ino5)",
            ),
            bad(
                70,
                "corrupted structure: inode: allocated inode has zero link count",
            ),
            ibm(5, true),
            ibm(70, true),
            ibm(88, false),
            dangling(5),
            dangling(70),
            E::LinkCount {
                ino: InodeNo(20),
                recorded: 3,
                actual: 1,
            },
            bad(33, "pointer to non-data block 257"),
            E::BlockCount {
                ino: InodeNo(33),
                recorded: 15,
                actual: 14,
            },
            E::BlockCount {
                ino: InodeNo(34),
                recorded: 7,
                actual: 1,
            },
            E::DoubleAlloc {
                bno: 373,
                owners: (InodeNo(10), InodeNo(50)),
            },
            E::DoubleAlloc {
                bno: 696,
                owners: (InodeNo(66), InodeNo(97)),
            },
            leaked(340),
            leaked(508),
            leaked(598),
            leaked(716),
            leaked(869),
            E::FreeCount {
                kind: "inodes",
                superblock: 922,
                actual: 923,
            },
        ];
        (99, 100, 576, errors)
    }

    #[test]
    fn report_is_the_serial_checkers_whatever_the_worker_count() {
        let (dev, geo) = fresh();
        build_wide(&dev, &geo);
        damage_wide(&dev, &geo);
        assert_matches_wide_golden(&dev, wide_golden());
    }

    /// Check `dev` at 1, 2, 3 and 8 workers against `golden`.
    fn assert_matches_wide_golden<D: BlockDevice>(
        dev: &D,
        (inodes, entries, blocks, errors): (u64, u64, u64, Vec<FsckError>),
    ) {
        // 64 table blocks and 35 inodes with a pointer block: budgets
        // 2, 3 and 8 really do split both passes (4 table-scan workers
        // at most, 3 block-map)
        for workers in [1, 2, 3, 8] {
            assert_matches_wide_golden_at(dev, workers, (inodes, entries, blocks, errors.clone()));
        }
    }

    /// Check `dev` at `workers` workers against `golden`.
    fn assert_matches_wide_golden_at<D: BlockDevice>(
        dev: &D,
        workers: usize,
        (inodes, entries, blocks, errors): (u64, u64, u64, Vec<FsckError>),
    ) {
        let (report, meta) = check(dev, workers).unwrap();
        assert_eq!(report.errors, errors, "{workers} worker(s)");
        assert_eq!(
            (
                report.inodes_checked,
                report.entries_checked,
                report.blocks_accounted
            ),
            (inodes, entries, blocks),
            "{workers} worker(s)"
        );
        assert!(meta.is_some());
    }

    /// `BadInode` for each inode of table block `index` (16 inodes per
    /// block), read as the injected error at device block `bno`.
    fn unreadable(index: u32, bno: u64) -> impl Iterator<Item = FsckError> {
        let detail = rae_vfs::FsError::IoFailed {
            detail: format!("injected read error at block {bno}"),
        }
        .to_string();
        (index * 16..(index + 1) * 16).map(move |raw| FsckError::BadInode {
            ino: InodeNo(raw),
            detail: detail.clone(),
        })
    }

    /// The damaged wide image's report with table block 10 (inodes
    /// 160..176, all free) unreadable: only block 10's own inodes are
    /// reported, after the rest of pass 2's findings.
    fn wide_golden_with_block_10_unreadable(geo: &Geometry) -> (u64, u64, u64, Vec<FsckError>) {
        let (inodes, entries, blocks, mut errors) = wide_golden();
        errors.splice(2..2, unreadable(10, geo.inode_table_start + 10));
        (inodes, entries, blocks, errors)
    }

    // Table block 10 lies inside the first worker's extent at every
    // budget below, and after block 1 (inodes 16..32) in it.

    #[test]
    fn extent_read_unreadable_table_block_is_reported_as_the_per_block_scan_does() {
        use rae_blockdev::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
        let (dev, geo) = fresh();
        build_wide(&dev, &geo);
        damage_wide(&dev, &geo);
        // the extent fails, the worker reads it again block by block,
        // and block 10 fails again
        let bad = geo.inode_table_start + 10;
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(bad), TriggerMode::Always);
        assert_matches_wide_golden(
            &FaultyDisk::with_plan(dev, plan),
            wide_golden_with_block_10_unreadable(&geo),
        );
    }

    #[test]
    fn extent_read_one_shot_table_fault_fails_the_check_for_a_retrying_device_to_absorb() {
        use rae_blockdev::{
            DiskFaultPlan, FaultTarget, FaultyDisk, RetryDisk, RetryPolicy, TriggerMode,
        };
        let (dev, geo) = fresh();
        build_wide(&dev, &geo);
        damage_wide(&dev, &geo);
        let bad = geo.inode_table_start + 10;
        let once = || DiskFaultPlan::new().fail_reads(FaultTarget::Block(bad), TriggerMode::Nth(1));
        let faulty = Arc::new(FaultyDisk::with_plan(dev, once()));
        // the fault does not repeat on the block-by-block re-read, so no
        // block can be blamed: the check fails with the device's error
        // instead of coming back clean with the fault swallowed
        for workers in [1, 2, 3, 8] {
            faulty.set_plan(once());
            match check(faulty.as_ref(), workers) {
                Err(rae_vfs::FsError::IoFailed { detail }) => {
                    assert_eq!(detail, format!("injected read error at block {bad}"));
                }
                other => panic!("{workers} worker(s): {other:?}"),
            }
        }
        // a retrying device re-issues the extent and counts the fault;
        // the check sees a clean read
        let retry = RetryDisk::with_policy(
            Arc::clone(&faulty),
            RetryPolicy {
                max_attempts: 4,
                base_backoff_ns: 1,
                max_backoff_ns: 8,
                seed: 0,
            },
        );
        for (k, workers) in [1, 2, 3, 8].into_iter().enumerate() {
            faulty.set_plan(once());
            assert_matches_wide_golden_at(&retry, workers, wide_golden());
            assert_eq!(retry.stats().absorbed, k as u64 + 1, "{workers} worker(s)");
        }
    }

    #[test]
    fn extent_read_corrupt_table_read_is_reported_as_the_per_block_scan_does() {
        use rae_blockdev::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
        let (dev, geo) = fresh();
        build_wide(&dev, &geo);
        damage_wide(&dev, &geo);
        // a one-shot bit flip in inode 20's record (table block 1)
        let (bno, off) = geo.inode_location(InodeNo(20)).unwrap();
        let flip = (off + 9, 3);
        // oracle: the same image with the bit flipped on the device, so
        // every scan reads it flipped
        let flipped = MemDisk::new(dev.block_count());
        let mut buf = vec![0u8; BLOCK_SIZE];
        for b in 0..dev.block_count() {
            dev.read_block(b, &mut buf).unwrap();
            if b == bno {
                buf[flip.0] ^= 1 << flip.1;
            }
            flipped.write_block(b, &buf).unwrap();
        }
        let (oracle, _) = check(&flipped, 1).unwrap();
        assert!(
            oracle.errors.len() > wide_golden().3.len(),
            "{:?}",
            oracle.errors
        );
        let golden = || {
            (
                oracle.inodes_checked,
                oracle.entries_checked,
                oracle.blocks_accounted,
                oracle.errors.clone(),
            )
        };
        let corrupt_once = || {
            DiskFaultPlan::new().corrupt_reads(
                FaultTarget::Block(bno),
                flip.0,
                flip.1,
                TriggerMode::Nth(1),
            )
        };
        let faulty = FaultyDisk::with_plan(dev, corrupt_once());
        // an extent that reads decides each block once, in order: the
        // one-shot corruption is kept, as a one-block read keeps it
        for workers in [1, 2, 3, 8] {
            faulty.set_plan(corrupt_once());
            assert_matches_wide_golden_at(&faulty, workers, golden());
        }
        // an extent that fails at block 10 is re-read from its first
        // block, and the re-read decides block 1 again: the spent
        // one-shot corruption reads clean, so the report is the
        // unreadable block's alone
        let bad = geo.inode_table_start + 10;
        for workers in [1, 2, 3, 8] {
            faulty
                .set_plan(corrupt_once().fail_reads(FaultTarget::Block(bad), TriggerMode::Always));
            assert_matches_wide_golden_at(
                &faulty,
                workers,
                wide_golden_with_block_10_unreadable(&geo),
            );
        }
    }

    #[test]
    fn extent_read_table_longer_than_one_extent_per_worker() {
        use rae_blockdev::{DiskFaultPlan, FaultTarget, FaultyDisk, StatsDisk, TriggerMode};
        // 300 table blocks: one worker reads 256, then a short 44 into
        // the same buffer
        let dev = MemDisk::new(4096);
        let geo = mkfs(
            &dev,
            MkfsParams {
                inode_count: 300 * 16,
                ..MkfsParams::default()
            },
        )
        .unwrap();
        assert_eq!(geo.inode_table_blocks, 300);
        // /far is inode 4320, in table block 270 of the short extent
        let far = InodeNo(270 * 16);
        let (root_blk, far_blk) = (geo.data_start, geo.data_start + 1);
        let mut root = DiskInode::new(FileType::Directory, 0);
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_blk;
        root.blocks = 1;
        write_inode(&dev, &geo, ROOT_INO, Some(&root)).unwrap();
        let mut db = DirBlock::empty();
        db.try_insert("far", far, FileType::Regular).unwrap();
        dev.write_block(root_blk, db.as_bytes()).unwrap();
        let mut file = DiskInode::new(FileType::Regular, 0);
        file.size = 100;
        file.direct[0] = far_blk;
        file.blocks = 1;
        write_inode(&dev, &geo, far, Some(&file)).unwrap();
        let mut ibm = Bitmap::load(
            &dev,
            geo.inode_bitmap_start,
            geo.inode_bitmap_blocks,
            u64::from(geo.inode_count),
        )
        .unwrap();
        ibm.set(u64::from(far.0)).unwrap();
        ibm.store(&dev, geo.inode_bitmap_start).unwrap();
        let mut dbm = Bitmap::load(
            &dev,
            geo.data_bitmap_start,
            geo.data_bitmap_blocks,
            geo.data_blocks,
        )
        .unwrap();
        for b in [root_blk, far_blk] {
            dbm.set(geo.data_index(b).unwrap()).unwrap();
        }
        dbm.store(&dev, geo.data_bitmap_start).unwrap();
        let mut sb = Superblock::read_from(&dev).unwrap();
        sb.free_inodes -= 1;
        sb.free_blocks -= 2;
        sb.write_to(&dev).unwrap();

        // clean: /far is decoded from the second extent
        let dev = Arc::new(dev);
        let counted = StatsDisk::new(Arc::clone(&dev));
        let (report, _) = check(&counted, 1).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            (
                report.inodes_checked,
                report.entries_checked,
                report.blocks_accounted
            ),
            (2, 1, 2)
        );
        // the superblock, each bitmap, two table extents, the root's
        // directory block
        assert_eq!(counted.counters().read_requests, 6);

        // an unreadable block 290 in the second extent: the first
        // extent decodes as read, the second is re-read block by block
        // and /far is still decoded from its own block
        let bad = geo.inode_table_start + 290;
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(bad), TriggerMode::Always);
        let faulty = FaultyDisk::with_plan(dev, plan);
        for workers in [1, 2] {
            let (report, _) = check(&faulty, workers).unwrap();
            assert_eq!(
                report.errors,
                unreadable(290, bad).collect::<Vec<_>>(),
                "{workers} worker(s)"
            );
            assert_eq!(
                (report.inodes_checked, report.entries_checked),
                (2, 1),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn fan_out_covers_every_item_once_in_order() {
        for (items, min, budget) in [(0, 4, 8), (1, 4, 8), (17, 4, 3), (64, 16, 8), (5, 1, 8)] {
            let parts = fan_out(items, min, budget, |r| r.collect::<Vec<usize>>());
            assert!(parts.len() <= budget);
            assert_eq!(parts.concat(), (0..items).collect::<Vec<_>>());
        }
    }

    /// The blocks `fsck` reads more than once on `dev`'s image, as a
    /// tape under the checker records them.
    fn repeated_reads(dev: &MemDisk) -> Vec<u64> {
        let tape = TapeDisk::from_image(&dev.snapshot());
        let _ = fsck(&tape).unwrap();
        let mut reads = tape.reads_since(0);
        assert!(!reads.is_empty());
        reads.sort_unstable();
        let mut twice: Vec<u64> = reads
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect();
        twice.dedup();
        twice
    }

    #[test]
    fn no_block_is_read_twice() {
        let (dev, geo) = fresh();
        build_wide(&dev, &geo);
        assert_eq!(repeated_reads(&dev), [], "clean wide image");

        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        let corpus = crate::CraftedImage::standard_corpus(&dev).unwrap();
        for case in corpus {
            let crafted = MemDisk::from_image(&dev.snapshot());
            crate::apply_corruption(&crafted, &case.corruption).unwrap();
            assert_eq!(repeated_reads(&crafted), [], "{}", case.name);
        }
    }

    #[test]
    fn unreadable_table_block_is_reported_per_inode() {
        use rae_blockdev::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
        let (dev, geo) = fresh();
        build_tree(&dev, &geo);
        // the second table block: inodes 16..32, none of them allocated
        let plan = DiskFaultPlan::new().fail_reads(
            FaultTarget::Block(geo.inode_table_start + 1),
            TriggerMode::Always,
        );
        let report = fsck(&FaultyDisk::with_plan(dev, plan)).unwrap();
        let bad: Vec<u32> = report
            .errors
            .iter()
            .filter_map(|e| match e {
                FsckError::BadInode { ino, .. } => Some(ino.0),
                _ => None,
            })
            .collect();
        assert_eq!(bad, (16..32).collect::<Vec<_>>(), "{report}");
        assert_eq!(report.inodes_checked, 3);
    }
}
