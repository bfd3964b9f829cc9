//! On-disk inodes: 256-byte records, 16 per inode-table block.

use crate::crc::crc32c_excluding;
use crate::layout::Geometry;
use crate::wire::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use rae_blockdev::{BlockDevice, BLOCK_SIZE};
use rae_vfs::{FileType, FsError, FsResult, InodeNo};

/// Encoded inode size in bytes.
pub const INODE_SIZE: usize = 256;

/// Inodes per inode-table block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;

/// Number of direct block pointers per inode.
pub const NDIRECT: usize = 12;

/// Block pointers per indirect block (u64 entries).
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 8;

/// Maximum file size supported by the pointer scheme, in bytes.
#[must_use]
pub fn max_file_size() -> u64 {
    ((NDIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK) as u64) * BLOCK_SIZE as u64
}

const OFF_MODE: usize = 0;
const OFF_LINKS: usize = 2;
const OFF_FLAGS: usize = 4;
const OFF_SIZE: usize = 8;
const OFF_ATIME: usize = 16;
const OFF_MTIME: usize = 24;
const OFF_CTIME: usize = 32;
const OFF_GEN: usize = 40;
const OFF_BLOCKS: usize = 44;
const OFF_DIRECT: usize = 48;
const OFF_INDIRECT: usize = 144;
const OFF_DINDIRECT: usize = 152;
const OFF_CRC: usize = 160;
const ENCODED_LEN: usize = 164;

/// A decoded on-disk inode.
///
/// A *free* inode slot is all-zero on disk and is represented as
/// `None` by [`DiskInode::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskInode {
    /// File type.
    pub ftype: FileType,
    /// Hard link count (for directories: 2 + number of subdirectories).
    pub links: u16,
    /// Feature flags (must currently be zero).
    pub flags: u32,
    /// File size in bytes. May exceed `blocks * 4096` (sparse files:
    /// null pointers inside the size range read as zeroes).
    pub size: u64,
    /// Access time (logical clock).
    pub atime: u64,
    /// Modification time (logical clock).
    pub mtime: u64,
    /// Change time (logical clock).
    pub ctime: u64,
    /// Generation number, bumped on each reuse of the inode number.
    pub generation: u32,
    /// Allocated data blocks (including indirect blocks themselves).
    pub blocks: u32,
    /// Direct block pointers (0 = hole / unallocated).
    pub direct: [u64; NDIRECT],
    /// Single-indirect block pointer (0 = none).
    pub indirect: u64,
    /// Double-indirect block pointer (0 = none).
    pub dindirect: u64,
}

impl DiskInode {
    /// A fresh inode of the given type with link count 1 (2 for
    /// directories, counting the implicit self-reference).
    #[must_use]
    pub fn new(ftype: FileType, now: u64) -> DiskInode {
        DiskInode {
            ftype,
            links: if ftype == FileType::Directory { 2 } else { 1 },
            flags: 0,
            size: 0,
            atime: now,
            mtime: now,
            ctime: now,
            generation: 0,
            blocks: 0,
            direct: [0; NDIRECT],
            indirect: 0,
            dindirect: 0,
        }
    }

    /// Encode into a 256-byte record.
    #[must_use]
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut buf = [0u8; INODE_SIZE];
        let mode = u16::from(self.ftype.as_u8()) << 12;
        put_u16(&mut buf, OFF_MODE, mode);
        put_u16(&mut buf, OFF_LINKS, self.links);
        put_u32(&mut buf, OFF_FLAGS, self.flags);
        put_u64(&mut buf, OFF_SIZE, self.size);
        put_u64(&mut buf, OFF_ATIME, self.atime);
        put_u64(&mut buf, OFF_MTIME, self.mtime);
        put_u64(&mut buf, OFF_CTIME, self.ctime);
        put_u32(&mut buf, OFF_GEN, self.generation);
        put_u32(&mut buf, OFF_BLOCKS, self.blocks);
        for (i, &p) in self.direct.iter().enumerate() {
            put_u64(&mut buf, OFF_DIRECT + i * 8, p);
        }
        put_u64(&mut buf, OFF_INDIRECT, self.indirect);
        put_u64(&mut buf, OFF_DINDIRECT, self.dindirect);
        let crc = crc32c_excluding(&buf[..ENCODED_LEN], OFF_CRC);
        put_u32(&mut buf, OFF_CRC, crc);
        buf
    }

    /// Decode a 256-byte record; `None` for a free (all-zero) slot.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on checksum mismatch, invalid mode,
    /// nonzero flags, or nonzero padding.
    pub fn decode(buf: &[u8]) -> FsResult<Option<DiskInode>> {
        if buf.len() != INODE_SIZE {
            return Err(corrupt("inode record has wrong length"));
        }
        if buf == [0u8; INODE_SIZE] {
            return Ok(None);
        }
        if buf[ENCODED_LEN..].iter().any(|&b| b != 0) {
            return Err(corrupt("nonzero padding in inode record"));
        }
        let stored_crc = get_u32(buf, OFF_CRC);
        let computed = crc32c_excluding(&buf[..ENCODED_LEN], OFF_CRC);
        if stored_crc != computed {
            return Err(corrupt("inode checksum mismatch"));
        }
        let mode = get_u16(buf, OFF_MODE);
        if mode & 0x0FFF != 0 {
            return Err(corrupt("unsupported mode bits"));
        }
        let ftype = FileType::from_u8((mode >> 12) as u8)
            .ok_or_else(|| corrupt("invalid file type in mode"))?;
        let flags = get_u32(buf, OFF_FLAGS);
        if flags != 0 {
            return Err(corrupt("unknown inode flags"));
        }
        let mut direct = [0u64; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = get_u64(buf, OFF_DIRECT + i * 8);
        }
        Ok(Some(DiskInode {
            ftype,
            links: get_u16(buf, OFF_LINKS),
            flags,
            size: get_u64(buf, OFF_SIZE),
            atime: get_u64(buf, OFF_ATIME),
            mtime: get_u64(buf, OFF_MTIME),
            ctime: get_u64(buf, OFF_CTIME),
            generation: get_u32(buf, OFF_GEN),
            blocks: get_u32(buf, OFF_BLOCKS),
            direct,
            indirect: get_u64(buf, OFF_INDIRECT),
            dindirect: get_u64(buf, OFF_DINDIRECT),
        }))
    }

    /// Structural validation against the filesystem geometry: pointer
    /// ranges, size limits, link-count sanity. (Cross-structure checks —
    /// bitmap consistency, double use — are `fsck`'s job.)
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] describing the first violated property.
    pub fn validate(&self, geo: &Geometry) -> FsResult<()> {
        if self.links == 0 {
            return Err(corrupt("allocated inode has zero link count"));
        }
        if self.size > max_file_size() {
            return Err(corrupt("size exceeds format maximum"));
        }
        if self.ftype == FileType::Symlink && self.size > BLOCK_SIZE as u64 {
            return Err(corrupt("symlink target longer than one block"));
        }
        for &p in self.direct.iter().chain([&self.indirect, &self.dindirect]) {
            if p != 0 && !geo.is_data_block(p) {
                return Err(corrupt("block pointer outside data region"));
            }
        }
        let max_possible =
            (NDIRECT + 1 + PTRS_PER_BLOCK + 1 + PTRS_PER_BLOCK * (PTRS_PER_BLOCK + 1)) as u64;
        if u64::from(self.blocks) > max_possible {
            return Err(corrupt("block count exceeds pointer capacity"));
        }
        Ok(())
    }
}

/// Where the pointer for file-block `idx` lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPtrLoc {
    /// `direct[slot]` in the inode itself.
    Direct(usize),
    /// Slot within the single-indirect block.
    Indirect {
        /// Pointer index inside the indirect block.
        slot: usize,
    },
    /// Two-level lookup through the double-indirect block.
    DoubleIndirect {
        /// Pointer index inside the double-indirect block (level 1).
        l1: usize,
        /// Pointer index inside the level-1 block (level 2).
        l2: usize,
    },
}

/// Map a file block index to its pointer location.
///
/// Both filesystems use this single definition, so their on-disk block
/// mapping can never diverge.
///
/// # Errors
///
/// [`FsError::FileTooBig`] past the addressing limit.
pub fn locate_block(idx: u64) -> FsResult<BlockPtrLoc> {
    let idx = idx as usize;
    if idx < NDIRECT {
        return Ok(BlockPtrLoc::Direct(idx));
    }
    let idx = idx - NDIRECT;
    if idx < PTRS_PER_BLOCK {
        return Ok(BlockPtrLoc::Indirect { slot: idx });
    }
    let idx = idx - PTRS_PER_BLOCK;
    if idx < PTRS_PER_BLOCK * PTRS_PER_BLOCK {
        return Ok(BlockPtrLoc::DoubleIndirect {
            l1: idx / PTRS_PER_BLOCK,
            l2: idx % PTRS_PER_BLOCK,
        });
    }
    Err(FsError::FileTooBig)
}

/// Read inode `ino` from the inode table of `dev`.
///
/// # Errors
///
/// Device errors, range errors, or decode failures.
pub fn read_inode<D: BlockDevice + ?Sized>(
    dev: &D,
    geo: &Geometry,
    ino: InodeNo,
) -> FsResult<Option<DiskInode>> {
    let (bno, off) = geo.inode_location(ino)?;
    let mut buf = vec![0u8; BLOCK_SIZE];
    dev.read_block(bno, &mut buf)?;
    DiskInode::decode(&buf[off..off + INODE_SIZE]).map_err(|e| annotate(e, ino))
}

/// Decode every inode record of one inode-table block image: block
/// `table_index` of the table (0-based), already read into `block`.
/// Yields each slot that names a real inode — the reserved null inode
/// and slots past `inode_count` in the last block are skipped — with
/// exactly what [`read_inode`] would return for it, so a whole-table
/// scan decodes from block images it read in bulk (`fsck` reads the
/// table as extents) instead of making one device read per inode.
pub fn inodes_in_table_block<'a>(
    geo: &Geometry,
    table_index: u64,
    block: &'a [u8],
) -> impl Iterator<Item = (InodeNo, FsResult<Option<DiskInode>>)> + 'a {
    let first = table_index * INODES_PER_BLOCK as u64;
    let inode_count = u64::from(geo.inode_count);
    block
        .chunks_exact(INODE_SIZE)
        .enumerate()
        .filter_map(move |(slot, record)| {
            let raw = first + slot as u64;
            if raw == 0 || raw >= inode_count {
                return None;
            }
            let ino = InodeNo(raw as u32); // < inode_count, a u32
            Some((ino, DiskInode::decode(record).map_err(|e| annotate(e, ino))))
        })
}

/// Write inode `ino` (or `None` to free the slot) into the inode table
/// of `dev` via read-modify-write.
///
/// # Errors
///
/// Device errors or range errors.
pub fn write_inode<D: BlockDevice + ?Sized>(
    dev: &D,
    geo: &Geometry,
    ino: InodeNo,
    inode: Option<&DiskInode>,
) -> FsResult<()> {
    let (bno, off) = geo.inode_location(ino)?;
    let mut buf = vec![0u8; BLOCK_SIZE];
    dev.read_block(bno, &mut buf)?;
    match inode {
        Some(i) => buf[off..off + INODE_SIZE].copy_from_slice(&i.encode()),
        None => buf[off..off + INODE_SIZE].fill(0),
    }
    dev.write_block(bno, &buf)
}

fn corrupt(msg: &str) -> FsError {
    FsError::Corrupted {
        detail: format!("inode: {msg}"),
    }
}

fn annotate(e: FsError, ino: InodeNo) -> FsError {
    match e {
        FsError::Corrupted { detail } => FsError::Corrupted {
            detail: format!("{detail} ({ino})"),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::compute(4096, 1024, 256).unwrap()
    }

    #[test]
    fn sixteen_inodes_per_block() {
        assert_eq!(INODES_PER_BLOCK, 16);
        assert_eq!(PTRS_PER_BLOCK, 512);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut ino = DiskInode::new(FileType::Regular, 42);
        ino.size = 123_456;
        ino.direct[0] = geo().data_start;
        ino.direct[11] = geo().data_start + 7;
        ino.indirect = geo().data_start + 8;
        ino.blocks = 3;
        ino.generation = 9;
        let buf = ino.encode();
        assert_eq!(DiskInode::decode(&buf).unwrap(), Some(ino));
    }

    #[test]
    fn free_slot_decodes_to_none() {
        assert_eq!(DiskInode::decode(&[0u8; INODE_SIZE]).unwrap(), None);
    }

    #[test]
    fn bit_flips_detected() {
        let ino = DiskInode::new(FileType::Directory, 1);
        let clean = ino.encode();
        for byte in [0, 9, 50, 150, 161] {
            let mut buf = clean;
            buf[byte] ^= 0x10;
            assert!(
                DiskInode::decode(&buf).is_err(),
                "flip at byte {byte} survived"
            );
        }
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut buf = DiskInode::new(FileType::Regular, 0).encode();
        buf[200] = 1;
        assert!(DiskInode::decode(&buf).is_err());
    }

    #[test]
    fn validate_catches_bad_pointers() {
        let g = geo();
        let mut ino = DiskInode::new(FileType::Regular, 0);
        ino.direct[3] = 5; // inside metadata region
        assert!(ino.validate(&g).is_err());
        ino.direct[3] = g.total_blocks; // past the device
        assert!(ino.validate(&g).is_err());
        ino.direct[3] = g.data_start;
        assert!(ino.validate(&g).is_ok());
    }

    #[test]
    fn validate_catches_zero_links_and_giant_sizes() {
        let g = geo();
        let mut ino = DiskInode::new(FileType::Regular, 0);
        ino.links = 0;
        assert!(ino.validate(&g).is_err());
        ino.links = 1;
        ino.size = max_file_size() + 1;
        assert!(ino.validate(&g).is_err());
    }

    #[test]
    fn validate_limits_symlink_size() {
        let g = geo();
        let mut ino = DiskInode::new(FileType::Symlink, 0);
        ino.size = BLOCK_SIZE as u64 + 1;
        assert!(ino.validate(&g).is_err());
        ino.size = 100;
        assert!(ino.validate(&g).is_ok());
    }

    #[test]
    fn locate_block_tiers() {
        assert_eq!(locate_block(0).unwrap(), BlockPtrLoc::Direct(0));
        assert_eq!(locate_block(11).unwrap(), BlockPtrLoc::Direct(11));
        assert_eq!(locate_block(12).unwrap(), BlockPtrLoc::Indirect { slot: 0 });
        assert_eq!(
            locate_block(12 + 511).unwrap(),
            BlockPtrLoc::Indirect { slot: 511 }
        );
        assert_eq!(
            locate_block(12 + 512).unwrap(),
            BlockPtrLoc::DoubleIndirect { l1: 0, l2: 0 }
        );
        assert_eq!(
            locate_block(12 + 512 + 512 * 512 - 1).unwrap(),
            BlockPtrLoc::DoubleIndirect { l1: 511, l2: 511 }
        );
        assert_eq!(locate_block(12 + 512 + 512 * 512), Err(FsError::FileTooBig));
    }

    #[test]
    fn max_file_size_matches_locate_block_limit() {
        let max_blocks = max_file_size() / BLOCK_SIZE as u64;
        assert!(locate_block(max_blocks - 1).is_ok());
        assert!(locate_block(max_blocks).is_err());
    }

    #[test]
    fn device_read_write_roundtrip() {
        use rae_blockdev::MemDisk;
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        let ino_no = InodeNo(17);
        assert_eq!(read_inode(&dev, &g, ino_no).unwrap(), None);

        let mut ino = DiskInode::new(FileType::Regular, 5);
        ino.size = 999;
        write_inode(&dev, &g, ino_no, Some(&ino)).unwrap();
        assert_eq!(read_inode(&dev, &g, ino_no).unwrap(), Some(ino));

        // neighbours in the same table block must be untouched
        assert_eq!(read_inode(&dev, &g, InodeNo(16)).unwrap(), None);
        assert_eq!(read_inode(&dev, &g, InodeNo(18)).unwrap(), None);

        write_inode(&dev, &g, ino_no, None).unwrap();
        assert_eq!(read_inode(&dev, &g, ino_no).unwrap(), None);
    }

    #[test]
    fn new_directory_has_two_links() {
        assert_eq!(DiskInode::new(FileType::Directory, 0).links, 2);
        assert_eq!(DiskInode::new(FileType::Regular, 0).links, 1);
    }
}

#[cfg(test)]
mod spec_consistency {
    #[test]
    fn format_max_file_size_equals_spec_constant() {
        assert_eq!(super::max_file_size(), rae_vfs::MAX_FILE_SIZE);
    }
}
