//! Crafted (adversarially corrupted) image construction.
//!
//! §2.1 of the paper: "a user mounts a crafted disk image and issues
//! operations to trigger a null-pointer dereference or use-after-free in
//! the kernel; such images can bypass FSCK". This module produces that
//! attack corpus for our format: targeted corruptions, some with *valid
//! checksums* (semantic lies that a checksum cannot catch), applied to
//! otherwise-valid images. Experiment E7 feeds them to an unchecked
//! mount path and to the shadow's validated load.

use crate::bitmap::Bitmap;
use crate::crc::crc32c_excluding;
use crate::inode::{read_inode, write_inode, INODE_SIZE};
use crate::superblock::Superblock;
use crate::wire::{get_u16, put_u16, put_u32, put_u64};
use rae_blockdev::{BlockDevice, BLOCK_SIZE};
use rae_vfs::{FsError, FsResult, InodeNo, ROOT_INO};

/// A targeted corruption to apply to a valid image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Smash the superblock magic (detected by any validating reader).
    SuperblockMagic,
    /// Rewrite the superblock with an inconsistent region layout but a
    /// *valid checksum* — only semantic validation catches it.
    SuperblockGeometryLie,
    /// Overstate the free-block counter, checksum fixed.
    SuperblockFreeCountLie,
    /// Flip a byte inside an inode record (checksum breaks).
    InodeBitrot {
        /// Target inode.
        ino: InodeNo,
    },
    /// Re-encode an inode with a block pointer aimed at the metadata
    /// region (valid checksum; a naive filesystem would scribble over
    /// its own bitmaps when writing through it).
    InodePointerIntoMetadata {
        /// Target inode.
        ino: InodeNo,
    },
    /// Re-encode an inode claiming an enormous size (valid checksum; a
    /// naive reader allocates or loops on it).
    InodeSizeLie {
        /// Target inode.
        ino: InodeNo,
        /// The claimed size.
        size: u64,
    },
    /// Re-encode an inode with link count zero (valid checksum).
    InodeZeroLinks {
        /// Target inode.
        ino: InodeNo,
    },
    /// Corrupt a directory block's record chain (`rec_len` walks off the
    /// block — the classic out-of-bounds-index trigger).
    DirentRecLenOverflow {
        /// The directory data block to corrupt.
        bno: u64,
    },
    /// Point a directory entry at an out-of-range inode number.
    DirentDanglingTarget {
        /// The directory data block to corrupt.
        bno: u64,
        /// Bogus inode number to write.
        target: u32,
    },
    /// Clear the data-bitmap bit of an in-use block (lets an allocator
    /// hand the block out twice — silent cross-link corruption later).
    BitmapClearInUse {
        /// Data-region index of the block.
        index: u64,
    },
}

impl Corruption {
    /// Short stable identifier used in experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Corruption::SuperblockMagic => "sb-magic",
            Corruption::SuperblockGeometryLie => "sb-geometry-lie",
            Corruption::SuperblockFreeCountLie => "sb-freecount-lie",
            Corruption::InodeBitrot { .. } => "inode-bitrot",
            Corruption::InodePointerIntoMetadata { .. } => "inode-ptr-metadata",
            Corruption::InodeSizeLie { .. } => "inode-size-lie",
            Corruption::InodeZeroLinks { .. } => "inode-zero-links",
            Corruption::DirentRecLenOverflow { .. } => "dirent-reclen-overflow",
            Corruption::DirentDanglingTarget { .. } => "dirent-dangling",
            Corruption::BitmapClearInUse { .. } => "bitmap-clear-inuse",
        }
    }
}

/// Apply one corruption to the image on `dev`.
///
/// # Errors
///
/// Device errors; [`FsError::InvalidArgument`] when the target named by
/// the corruption does not exist on this image (e.g. a free inode).
pub fn apply_corruption<D: BlockDevice + ?Sized>(dev: &D, c: &Corruption) -> FsResult<()> {
    match c {
        Corruption::SuperblockMagic => {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(0, &mut buf)?;
            buf[0] ^= 0xFF;
            dev.write_block(0, &buf)
        }
        Corruption::SuperblockGeometryLie => {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(0, &mut buf)?;
            // data_start is at offset 88 (see superblock.rs layout)
            let lied = crate::wire::get_u64(&buf, 88) + 1;
            put_u64(&mut buf, 88, lied);
            let crc = crc32c_excluding(&buf[..128], 124);
            put_u32(&mut buf, 124, crc);
            dev.write_block(0, &buf)
        }
        Corruption::SuperblockFreeCountLie => {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(0, &mut buf)?;
            let total = crate::wire::get_u64(&buf, 96); // data_blocks
            put_u64(&mut buf, 108, total + 100); // free_blocks
            let crc = crc32c_excluding(&buf[..128], 124);
            put_u32(&mut buf, 124, crc);
            dev.write_block(0, &buf)
        }
        Corruption::InodeBitrot { ino } => {
            let sb = Superblock::read_from(dev)?;
            let (bno, off) = sb.geometry.inode_location(*ino)?;
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(bno, &mut buf)?;
            if buf[off..off + INODE_SIZE].iter().all(|&b| b == 0) {
                return Err(FsError::InvalidArgument);
            }
            buf[off + 8] ^= 0x40; // inside the size field
            dev.write_block(bno, &buf)
        }
        Corruption::InodePointerIntoMetadata { ino } => {
            let sb = Superblock::read_from(dev)?;
            let mut inode = read_inode(dev, &sb.geometry, *ino)?.ok_or(FsError::InvalidArgument)?;
            inode.direct[0] = sb.geometry.inode_bitmap_start; // metadata!
            if inode.blocks == 0 {
                inode.blocks = 1;
            }
            if inode.size == 0 {
                inode.size = 10;
            }
            write_inode(dev, &sb.geometry, *ino, Some(&inode))
        }
        Corruption::InodeSizeLie { ino, size } => {
            let sb = Superblock::read_from(dev)?;
            let mut inode = read_inode(dev, &sb.geometry, *ino)?.ok_or(FsError::InvalidArgument)?;
            inode.size = *size;
            write_inode(dev, &sb.geometry, *ino, Some(&inode))
        }
        Corruption::InodeZeroLinks { ino } => {
            let sb = Superblock::read_from(dev)?;
            let mut inode = read_inode(dev, &sb.geometry, *ino)?.ok_or(FsError::InvalidArgument)?;
            inode.links = 0;
            write_inode(dev, &sb.geometry, *ino, Some(&inode))
        }
        Corruption::DirentRecLenOverflow { bno } => {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(*bno, &mut buf)?;
            // stretch the first record past the block end
            let cur = get_u16(&buf, 4);
            put_u16(&mut buf, 4, cur.wrapping_add(BLOCK_SIZE as u16));
            dev.write_block(*bno, &buf)
        }
        Corruption::DirentDanglingTarget { bno, target } => {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(*bno, &mut buf)?;
            // first used record's ino field; if the first record is
            // free, walk to a used one
            let mut off = 0usize;
            loop {
                if off + 8 > BLOCK_SIZE {
                    return Err(FsError::InvalidArgument);
                }
                let ino = crate::wire::get_u32(&buf, off);
                let rec_len = get_u16(&buf, off + 4) as usize;
                if ino != 0 {
                    put_u32(&mut buf, off, *target);
                    break;
                }
                if rec_len == 0 {
                    return Err(FsError::InvalidArgument);
                }
                off += rec_len;
            }
            dev.write_block(*bno, &buf)
        }
        Corruption::BitmapClearInUse { index } => {
            let sb = Superblock::read_from(dev)?;
            let g = sb.geometry;
            let mut dbm = Bitmap::load(
                dev,
                g.data_bitmap_start,
                g.data_bitmap_blocks,
                g.data_blocks,
            )?;
            if !dbm.clear(*index)? {
                return Err(FsError::InvalidArgument);
            }
            dbm.store(dev, g.data_bitmap_start)
        }
    }
}

/// A named crafted-image case for the E7 corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CraftedCase {
    /// Stable case name.
    pub name: &'static str,
    /// The corruption to apply.
    pub corruption: Corruption,
}

/// Marker type grouping the crafted-image helpers (for discoverability
/// via `rae_fsformat::CraftedImage::standard_corpus`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CraftedImage;

impl CraftedImage {
    /// The standard corpus of crafted-image cases for an image that has
    /// at least the root directory populated with one entry (so that a
    /// directory data block and inode 2 exist).
    ///
    /// # Errors
    ///
    /// Device errors, or [`FsError::InvalidArgument`] if the image lacks
    /// the expected minimal population.
    pub fn standard_corpus<D: BlockDevice + ?Sized>(dev: &D) -> FsResult<Vec<CraftedCase>> {
        let sb = Superblock::read_from(dev)?;
        let root = read_inode(dev, &sb.geometry, ROOT_INO)?.ok_or(FsError::InvalidArgument)?;
        let root_block = root.direct[0];
        if root_block == 0 {
            return Err(FsError::InvalidArgument);
        }
        Ok(vec![
            CraftedCase {
                name: "sb-magic",
                corruption: Corruption::SuperblockMagic,
            },
            CraftedCase {
                name: "sb-geometry-lie",
                corruption: Corruption::SuperblockGeometryLie,
            },
            CraftedCase {
                name: "sb-freecount-lie",
                corruption: Corruption::SuperblockFreeCountLie,
            },
            CraftedCase {
                name: "inode-bitrot",
                corruption: Corruption::InodeBitrot { ino: InodeNo(2) },
            },
            CraftedCase {
                name: "inode-ptr-metadata",
                corruption: Corruption::InodePointerIntoMetadata { ino: InodeNo(2) },
            },
            CraftedCase {
                name: "inode-size-lie",
                corruption: Corruption::InodeSizeLie {
                    ino: InodeNo(2),
                    size: 1 << 40,
                },
            },
            CraftedCase {
                name: "inode-zero-links",
                corruption: Corruption::InodeZeroLinks { ino: InodeNo(2) },
            },
            CraftedCase {
                name: "dirent-reclen-overflow",
                corruption: Corruption::DirentRecLenOverflow { bno: root_block },
            },
            CraftedCase {
                name: "dirent-dangling",
                corruption: Corruption::DirentDanglingTarget {
                    bno: root_block,
                    target: 0xFFFF,
                },
            },
            CraftedCase {
                name: "bitmap-clear-inuse",
                corruption: Corruption::BitmapClearInUse {
                    index: sb.geometry.data_index(root_block)?,
                },
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirent::DirBlock;
    use crate::fsck::fsck;
    use crate::inode::DiskInode;
    use crate::mkfs::{mkfs, MkfsParams};
    use rae_blockdev::MemDisk;
    use rae_vfs::FileType;

    /// mkfs + add one file "/f" so every corpus target exists.
    fn populated() -> MemDisk {
        let dev = MemDisk::new(4096);
        let geo = mkfs(&dev, MkfsParams::default()).unwrap();

        let file_ino = InodeNo(2);
        let root_block = geo.data_start;

        let mut root = read_inode(&dev, &geo, ROOT_INO).unwrap().unwrap();
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_block;
        root.blocks = 1;
        write_inode(&dev, &geo, ROOT_INO, Some(&root)).unwrap();

        let mut db = DirBlock::empty();
        db.try_insert("f", file_ino, FileType::Regular).unwrap();
        dev.write_block(root_block, db.as_bytes()).unwrap();

        let file = DiskInode::new(FileType::Regular, 0);
        write_inode(&dev, &geo, file_ino, Some(&file)).unwrap();

        let mut ibm = Bitmap::load(
            &dev,
            geo.inode_bitmap_start,
            geo.inode_bitmap_blocks,
            u64::from(geo.inode_count),
        )
        .unwrap();
        ibm.set(2).unwrap();
        ibm.store(&dev, geo.inode_bitmap_start).unwrap();
        let mut dbm = Bitmap::load(
            &dev,
            geo.data_bitmap_start,
            geo.data_bitmap_blocks,
            geo.data_blocks,
        )
        .unwrap();
        dbm.set(0).unwrap();
        dbm.store(&dev, geo.data_bitmap_start).unwrap();

        let mut sb = Superblock::read_from(&dev).unwrap();
        sb.free_inodes -= 1;
        sb.free_blocks -= 1;
        sb.write_to(&dev).unwrap();
        dev
    }

    #[test]
    fn baseline_image_is_clean() {
        let dev = populated();
        assert!(fsck(&dev).unwrap().is_clean());
    }

    #[test]
    fn every_corpus_case_applies_and_is_caught_by_fsck() {
        let baseline = populated();
        let corpus = CraftedImage::standard_corpus(&baseline).unwrap();
        assert_eq!(corpus.len(), 10);

        for case in corpus {
            let dev = MemDisk::from_image(&baseline.snapshot());
            apply_corruption(&dev, &case.corruption)
                .unwrap_or_else(|e| panic!("{} failed to apply: {e}", case.name));
            let report = fsck(&dev).unwrap();
            assert!(
                !report.is_clean(),
                "{}: corruption survived fsck undetected",
                case.name
            );
        }
    }

    /// Per case: `(inodes, entries, blocks)` counters and the `Debug`
    /// rendering of `errors`, recorded from the serial, inode-at-a-time
    /// checker before the block-wise parallel one replaced it.
    const CORPUS_GOLDEN: [(&str, (u64, u64, u64), &str); 10] = [
        (
            "sb-magic",
            (0, 0, 0),
            r#"[Superblock("corrupted structure: superblock: bad superblock magic")]"#,
        ),
        (
            "sb-geometry-lie",
            (0, 0, 0),
            r#"[Superblock("corrupted structure: superblock: superblock region layout is inconsistent")]"#,
        ),
        (
            "sb-freecount-lie",
            (0, 0, 0),
            r#"[Superblock("corrupted structure: superblock: free block count exceeds data block count")]"#,
        ),
        (
            "inode-bitrot",
            (1, 1, 1),
            r#"[BadInode { ino: InodeNo(2), detail: "corrupted structure: inode: inode checksum mismatch (ino2)" }, InodeBitmapMismatch { ino: InodeNo(2), marked: true, used: false }, DanglingEntry { dir: InodeNo(1), name: "f", target: InodeNo(2) }]"#,
        ),
        (
            "inode-ptr-metadata",
            (1, 1, 1),
            r#"[BadInode { ino: InodeNo(2), detail: "corrupted structure: inode: block pointer outside data region" }, InodeBitmapMismatch { ino: InodeNo(2), marked: true, used: false }, DanglingEntry { dir: InodeNo(1), name: "f", target: InodeNo(2) }]"#,
        ),
        (
            "inode-size-lie",
            (1, 1, 1),
            r#"[BadInode { ino: InodeNo(2), detail: "corrupted structure: inode: size exceeds format maximum" }, InodeBitmapMismatch { ino: InodeNo(2), marked: true, used: false }, DanglingEntry { dir: InodeNo(1), name: "f", target: InodeNo(2) }]"#,
        ),
        (
            "inode-zero-links",
            (1, 1, 1),
            r#"[BadInode { ino: InodeNo(2), detail: "corrupted structure: inode: allocated inode has zero link count" }, InodeBitmapMismatch { ino: InodeNo(2), marked: true, used: false }, DanglingEntry { dir: InodeNo(1), name: "f", target: InodeNo(2) }]"#,
        ),
        (
            "dirent-reclen-overflow",
            (2, 0, 1),
            r#"[BadDirent { dir: InodeNo(1), detail: "corrupted structure: dirent: bad record length" }, Unreachable { ino: InodeNo(2) }]"#,
        ),
        (
            "dirent-dangling",
            (2, 1, 1),
            r#"[DanglingEntry { dir: InodeNo(1), name: "f", target: InodeNo(65535) }, Unreachable { ino: InodeNo(2) }]"#,
        ),
        (
            "bitmap-clear-inuse",
            (2, 1, 1),
            r#"[DataBitmapMismatch { bno: 323, marked: false, used: true }, FreeCount { kind: "blocks", superblock: 3772, actual: 3773 }]"#,
        ),
    ];

    #[test]
    fn corpus_reports_match_the_recorded_golden() {
        let baseline = populated();
        let corpus = CraftedImage::standard_corpus(&baseline).unwrap();
        for (case, (name, counters, errors)) in corpus.iter().zip(CORPUS_GOLDEN) {
            assert_eq!(case.name, name);
            let dev = MemDisk::from_image(&baseline.snapshot());
            apply_corruption(&dev, &case.corruption).unwrap();
            let report = fsck(&dev).unwrap();
            assert_eq!(format!("{:?}", report.errors), errors, "{name}");
            assert_eq!(
                (
                    report.inodes_checked,
                    report.entries_checked,
                    report.blocks_accounted
                ),
                counters,
                "{name}"
            );
        }
    }

    #[test]
    fn geometry_lie_keeps_valid_checksum() {
        let dev = populated();
        apply_corruption(&dev, &Corruption::SuperblockGeometryLie).unwrap();
        // raw checksum still verifies...
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut buf).unwrap();
        let crc = crate::wire::get_u32(&buf, 124);
        assert_eq!(crc, crc32c_excluding(&buf[..128], 124));
        // ...but semantic validation rejects it
        assert!(Superblock::decode(&buf).is_err());
    }

    #[test]
    fn corruption_targets_must_exist() {
        let dev = MemDisk::new(4096);
        mkfs(&dev, MkfsParams::default()).unwrap();
        // inode 5 is free: semantic corruptions on it are invalid
        assert_eq!(
            apply_corruption(&dev, &Corruption::InodeZeroLinks { ino: InodeNo(5) }),
            Err(FsError::InvalidArgument)
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Corruption::SuperblockMagic.name(), "sb-magic");
        assert_eq!(
            Corruption::InodeSizeLie {
                ino: InodeNo(2),
                size: 0
            }
            .name(),
            "inode-size-lie"
        );
    }
}
