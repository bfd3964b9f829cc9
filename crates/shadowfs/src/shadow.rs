//! Core shadow state: overlay, checked block/inode/bitmap plumbing.

use rae_blockdev::{BlockDevice, BLOCK_SIZE};
use rae_fsformat::bitmap::Bitmap;
use rae_fsformat::inode::{DiskInode, INODE_SIZE};
use rae_fsformat::{fsck_keeping_meta, Geometry, LoadedMeta, Superblock};
use rae_fsmodel::ModelFs;
use rae_vfs::{Fd, FileType, FsError, FsResult, InodeNo, OpenFlags, ROOT_INO};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Read and validate the superblock and both bitmaps of `dev`.
fn read_meta(dev: &dyn BlockDevice) -> FsResult<LoadedMeta> {
    let superblock = Superblock::read_from(dev)?;
    let geo = superblock.geometry;
    Ok(LoadedMeta {
        superblock,
        inode_bitmap: Bitmap::load(
            dev,
            geo.inode_bitmap_start,
            geo.inode_bitmap_blocks,
            u64::from(geo.inode_count),
        )?,
        data_bitmap: Bitmap::load(
            dev,
            geo.data_bitmap_start,
            geo.data_bitmap_blocks,
            geo.data_blocks,
        )?,
    })
}

/// Options controlling the shadow's check battery.
#[derive(Debug, Clone, Copy)]
pub struct ShadowOpts {
    /// Run the full structural checker (verified-FSCK analog) before
    /// trusting the image at load time.
    pub validate_image: bool,
    /// Enable the extended per-operation invariant checks (the E5
    /// ablation switch). Structural parse validation is always on —
    /// it is how the shadow avoids crashing on garbage.
    pub paranoid_checks: bool,
    /// Mirror the starting state into [`ModelFs`] and cross-check every
    /// operation against it (executable-spec refinement).
    pub refinement_check: bool,
}

impl Default for ShadowOpts {
    fn default() -> ShadowOpts {
        ShadowOpts {
            validate_image: true,
            paranoid_checks: true,
            refinement_check: false,
        }
    }
}

/// Whether an overlay block is metadata or file data (decides how the
/// base absorbs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    Meta,
    Data,
}

/// One open descriptor in the shadow's reconstructed table.
#[derive(Debug, Clone)]
pub(crate) struct ShadowFd {
    pub(crate) ino: InodeNo,
    pub(crate) flags: OpenFlags,
    pub(crate) path: String,
}

/// The shadow filesystem. See the crate docs for the design rules.
pub struct ShadowFs {
    pub(crate) dev: Arc<dyn BlockDevice>,
    pub(crate) geo: Geometry,
    /// The never-write rule: all mutations live here. Images are
    /// shared, so forking the shadow and handing its overlay to the
    /// base move references, not blocks; a block is copied only when
    /// one holder patches it while another still has it.
    pub(crate) overlay: HashMap<u64, (Arc<[u8]>, BlockKind)>,
    pub(crate) ibm: Bitmap,
    pub(crate) dbm: Bitmap,
    pub(crate) free_inodes: u32,
    pub(crate) free_blocks: u64,
    pub(crate) fds: BTreeMap<Fd, ShadowFd>,
    pub(crate) clock: u64,
    pub(crate) opts: ShadowOpts,
    pub(crate) checks: u64,
    pub(crate) model: Option<ModelFs>,
}

impl std::fmt::Debug for ShadowFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowFs")
            .field("overlay_blocks", &self.overlay.len())
            .field("checks", &self.checks)
            .finish()
    }
}

impl ShadowFs {
    /// Load the shadow from the on-disk state of `dev`.
    ///
    /// With [`ShadowOpts::validate_image`] the full structural checker
    /// runs first and a dirty image is rejected — the shadow never
    /// executes on state it has not validated.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] / [`FsError::CheckFailed`] when
    /// validation fails; device errors.
    pub fn load(dev: Arc<dyn BlockDevice>, opts: ShadowOpts) -> FsResult<ShadowFs> {
        let meta = if opts.validate_image {
            let (report, meta) = fsck_keeping_meta(dev.as_ref())?;
            if !report.is_clean() {
                return Err(FsError::CheckFailed {
                    check: "image-validation".to_string(),
                    detail: format!(
                        "{} structural error(s): {}",
                        report.errors.len(),
                        report.errors[0]
                    ),
                });
            }
            // the checker just read and validated the superblock and
            // both bitmaps: take them rather than read them again
            meta.expect("a clean report is past the superblock and bitmap phases")
        } else {
            read_meta(dev.as_ref())?
        };
        let geo = meta.superblock.geometry;
        let (ibm, dbm) = (meta.inode_bitmap, meta.data_bitmap);
        let free_inodes =
            u32::try_from(u64::from(geo.inode_count) - ibm.count_set()).map_err(|_| {
                FsError::Corrupted {
                    detail: "inode bitmap overflow".to_string(),
                }
            })?;
        let free_blocks = dbm.count_clear();

        let mut shadow = ShadowFs {
            dev,
            geo,
            overlay: HashMap::new(),
            ibm,
            dbm,
            free_inodes,
            free_blocks,
            fds: BTreeMap::new(),
            clock: 0,
            opts,
            checks: if opts.validate_image { 1 } else { 0 },
            model: None,
        };
        if opts.refinement_check {
            shadow.model = Some(shadow.build_model()?);
        }
        Ok(shadow)
    }

    /// Runtime checks performed so far (image validation counts as
    /// one; every invariant check counts individually).
    #[must_use]
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// The filesystem geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// The block ranges (`[start, end)` each) this shadow will never
    /// read from its device: the journal, which it never reads, and
    /// every data block free in its bitmap now. It reads a data block
    /// only while the block is allocated, and an allocation puts a
    /// zero-filled image in the overlay first, which a resync drops only
    /// once the block is free again (DESIGN §4i). The warm standby
    /// excludes these from its frozen view right after the load.
    #[must_use]
    pub fn never_read(&self) -> Vec<(u64, u64)> {
        let geo = self.geo;
        std::iter::once((geo.journal_start, geo.journal_start + geo.journal_blocks))
            .chain(
                self.dbm
                    .clear_runs()
                    .map(|(s, e)| (geo.data_block(s), geo.data_block(e))),
            )
            .collect()
    }

    /// Number of blocks modified in the overlay.
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// An independent copy sharing the (immutable) backing device
    /// handle and, until either side patches one, the overlay's block
    /// images. The RAE runtime forks the handed-over warm
    /// shadow at the end of a warm recovery: one copy is consumed for
    /// the metadata download, the other resumes as the next standby —
    /// re-arming without an O(device) snapshot or a backlog replay.
    #[must_use]
    pub fn fork(&self) -> ShadowFs {
        ShadowFs {
            dev: Arc::clone(&self.dev),
            geo: self.geo,
            overlay: self.overlay.clone(),
            ibm: self.ibm.clone(),
            dbm: self.dbm.clone(),
            free_inodes: self.free_inodes,
            free_blocks: self.free_blocks,
            fds: self.fds.clone(),
            clock: self.clock,
            opts: self.opts,
            checks: self.checks,
            model: self.model.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Checks
    // ------------------------------------------------------------------

    pub(crate) fn check(
        &mut self,
        cond: bool,
        name: &str,
        detail: impl FnOnce() -> String,
    ) -> FsResult<()> {
        self.checks += 1;
        if cond {
            Ok(())
        } else {
            Err(FsError::CheckFailed {
                check: name.to_string(),
                detail: detail(),
            })
        }
    }

    /// Extended checks only run in paranoid mode (E5 ablation switch).
    pub(crate) fn pcheck(
        &mut self,
        cond: impl FnOnce(&Self) -> bool,
        name: &str,
        detail: &str,
    ) -> FsResult<()> {
        if !self.opts.paranoid_checks {
            return Ok(());
        }
        self.checks += 1;
        if cond(self) {
            Ok(())
        } else {
            Err(FsError::CheckFailed {
                check: name.to_string(),
                detail: detail.to_string(),
            })
        }
    }

    // ------------------------------------------------------------------
    // Block plumbing (overlay first, device second; writes never reach
    // the device)
    // ------------------------------------------------------------------

    pub(crate) fn read_block(&mut self, bno: u64) -> FsResult<Vec<u8>> {
        let total = self.geo.total_blocks;
        self.check(bno < total, "block.in_range", move || {
            format!("read of block {bno} beyond {total}")
        })?;
        if let Some((img, _)) = self.overlay.get(&bno) {
            return Ok(img.to_vec());
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev.read_block(bno, &mut buf)?;
        Ok(buf)
    }

    /// The checks every write passes, whichever way the image gets
    /// into the overlay.
    fn check_write_target(&mut self, bno: u64) -> FsResult<()> {
        self.check(bno != 0, "block.not_superblock", || {
            "write aimed at the superblock".to_string()
        })?;
        let total = self.geo.total_blocks;
        self.check(bno < total, "block.in_range", move || {
            format!("write of block {bno} beyond {total}")
        })
    }

    pub(crate) fn write_block(
        &mut self,
        bno: u64,
        img: impl Into<Arc<[u8]>>,
        kind: BlockKind,
    ) -> FsResult<()> {
        let img: Arc<[u8]> = img.into();
        self.check_write_target(bno)?;
        self.check(img.len() == BLOCK_SIZE, "block.image_size", || {
            format!("block image of {} bytes", img.len())
        })?;
        self.overlay.insert(bno, (img, kind));
        Ok(())
    }

    pub(crate) fn update_block(
        &mut self,
        bno: u64,
        offset: usize,
        bytes: &[u8],
        kind: BlockKind,
    ) -> FsResult<()> {
        self.check(
            offset + bytes.len() <= BLOCK_SIZE,
            "block.update_bounds",
            || {
                format!(
                    "update [{offset}, {}) crosses block end",
                    offset + bytes.len()
                )
            },
        )?;
        if self.overlay.contains_key(&bno) {
            self.check_write_target(bno)?;
            // already ours: patch in place (`make_mut` copies first
            // only while a fork or a delta still shares the image)
            let (img, k) = self.overlay.get_mut(&bno).expect("checked above");
            Arc::make_mut(img)[offset..offset + bytes.len()].copy_from_slice(bytes);
            *k = kind;
            return Ok(());
        }
        let mut img = self.read_block(bno)?;
        img[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.write_block(bno, img, kind)
    }

    // ------------------------------------------------------------------
    // Inodes
    // ------------------------------------------------------------------

    pub(crate) fn load_inode_opt(&mut self, ino: InodeNo) -> FsResult<Option<DiskInode>> {
        let (bno, off) = self.geo.inode_location(ino)?;
        let blk = self.read_block(bno)?;
        let decoded = DiskInode::decode(&blk[off..off + INODE_SIZE])?;
        if let Some(inode) = &decoded {
            // cross-structure checks on every load
            inode.validate(&self.geo)?;
            self.checks += 1;
            let allocated = self.ibm.test(u64::from(ino.0))?;
            self.check(allocated, "inode.bitmap_allocated", || {
                format!("{ino} populated in table but free in bitmap")
            })?;
        }
        Ok(decoded)
    }

    pub(crate) fn load_inode(&mut self, ino: InodeNo) -> FsResult<DiskInode> {
        self.load_inode_opt(ino)?
            .ok_or_else(|| FsError::CheckFailed {
                check: "inode.present".to_string(),
                detail: format!("{ino} referenced but not allocated"),
            })
    }

    pub(crate) fn store_inode(&mut self, ino: InodeNo, inode: &DiskInode) -> FsResult<()> {
        if self.opts.paranoid_checks {
            self.checks += 1;
            inode.validate(&self.geo)?;
        }
        let (bno, off) = self.geo.inode_location(ino)?;
        self.update_block(bno, off, &inode.encode(), BlockKind::Meta)
    }

    pub(crate) fn clear_inode(&mut self, ino: InodeNo) -> FsResult<()> {
        let (bno, off) = self.geo.inode_location(ino)?;
        self.update_block(bno, off, &[0u8; INODE_SIZE], BlockKind::Meta)
    }

    // ------------------------------------------------------------------
    // Allocation (no hints: simplest policy, lowest free)
    // ------------------------------------------------------------------

    fn flush_ibm_block(&mut self, bit: u64) -> FsResult<()> {
        let blk = Bitmap::block_containing(bit);
        let img: Arc<[u8]> = self.ibm.block_image(blk).into();
        self.write_block(self.geo.inode_bitmap_start + blk, img, BlockKind::Meta)
    }

    fn flush_dbm_block(&mut self, bit: u64) -> FsResult<()> {
        let blk = Bitmap::block_containing(bit);
        let img: Arc<[u8]> = self.dbm.block_image(blk).into();
        self.write_block(self.geo.data_bitmap_start + blk, img, BlockKind::Meta)
    }

    /// Allocate an inode. With `wanted` (constrained mode) the base's
    /// choice is *validated* rather than replaced; `Err(CheckFailed)`
    /// if it is not usable.
    pub(crate) fn alloc_ino(&mut self, wanted: Option<InodeNo>) -> FsResult<InodeNo> {
        let bit = match wanted {
            Some(ino) => {
                let free = !self.ibm.test(u64::from(ino.0))?;
                self.check(free, "alloc.ino_usable", || {
                    format!("base allocated {ino} but it is already in use")
                })?;
                u64::from(ino.0)
            }
            None => {
                if self.free_inodes == 0 {
                    return Err(FsError::NoInodes);
                }
                self.ibm.find_free_from(0).ok_or(FsError::NoInodes)?
            }
        };
        self.check(bit != 0, "alloc.ino_not_null", || {
            "allocator produced the reserved null inode".to_string()
        })?;
        self.ibm.set(bit)?;
        self.free_inodes -= 1;
        self.flush_ibm_block(bit)?;
        // paranoid: the counter must track the bitmap exactly
        self.pcheck(
            |s| s.ibm.count_set() + u64::from(s.free_inodes) == u64::from(s.geo.inode_count),
            "alloc.ino_accounting",
            "free-inode counter diverged from the bitmap",
        )?;
        Ok(InodeNo(u32::try_from(bit).expect("inode numbers fit u32")))
    }

    pub(crate) fn free_ino(&mut self, ino: InodeNo) -> FsResult<()> {
        let was_set = self.ibm.clear(u64::from(ino.0))?;
        self.check(was_set, "free.ino_was_allocated", || {
            format!("double free of {ino}")
        })?;
        self.free_inodes += 1;
        self.flush_ibm_block(u64::from(ino.0))
    }

    /// Allocate a data block (lowest free), zero-filled in the overlay.
    pub(crate) fn alloc_block(&mut self, kind: BlockKind) -> FsResult<u64> {
        if self.free_blocks == 0 {
            return Err(FsError::NoSpace);
        }
        let bit = self.dbm.find_free_from(0).ok_or(FsError::NoSpace)?;
        self.dbm.set(bit)?;
        self.free_blocks -= 1;
        self.flush_dbm_block(bit)?;
        self.pcheck(
            |s| s.dbm.count_clear() == s.free_blocks,
            "alloc.block_accounting",
            "free-block counter diverged from the bitmap",
        )?;
        let bno = self.geo.data_block(bit);
        self.write_block(bno, vec![0u8; BLOCK_SIZE], kind)?;
        Ok(bno)
    }

    pub(crate) fn free_block(&mut self, bno: u64) -> FsResult<()> {
        let bit = self.geo.data_index(bno)?;
        let was_set = self.dbm.clear(bit)?;
        self.check(was_set, "free.block_was_allocated", || {
            format!("double free of block {bno}")
        })?;
        self.free_blocks += 1;
        self.flush_dbm_block(bit)
    }

    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    // ------------------------------------------------------------------
    // Refinement model
    // ------------------------------------------------------------------

    /// Build a model mirroring the shadow's current tree (used when
    /// refinement checking is on).
    pub(crate) fn build_model(&mut self) -> FsResult<ModelFs> {
        use rae_vfs::FileSystem;
        let model = ModelFs::new();
        // walk the tree directly (the shadow cannot hand out &dyn
        // FileSystem of itself while borrowed mutably)
        let mut stack = vec![(String::from("/"), ROOT_INO)];
        let mut seen: HashMap<InodeNo, String> = HashMap::new();
        while let Some((dir_path, dir_ino)) = stack.pop() {
            let entries = self.list_dir(dir_ino)?;
            for (name, ino, ftype) in entries {
                let path = if dir_path == "/" {
                    format!("/{name}")
                } else {
                    format!("{dir_path}/{name}")
                };
                match ftype {
                    FileType::Directory => {
                        model.mkdir(&path)?;
                        stack.push((path, ino));
                    }
                    FileType::Symlink => {
                        let target = self.read_symlink(ino)?;
                        model.symlink(&target, &path)?;
                    }
                    FileType::Regular => {
                        if let Some(first) = seen.get(&ino) {
                            model.link(first, &path)?;
                            continue;
                        }
                        let data = self.read_file_all(ino)?;
                        let fd = model.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
                        if !data.is_empty() {
                            model.write(fd, 0, &data)?;
                        }
                        let inode = self.load_inode(ino)?;
                        if inode.size > data.len() as u64 {
                            model.truncate(fd, inode.size)?;
                        }
                        model.close(fd)?;
                        seen.insert(ino, path);
                    }
                }
            }
        }
        Ok(model)
    }
}
