//! The shared on-disk format — the ABI both the base and the shadow
//! filesystem implement.
//!
//! The paper's central compatibility requirement is that the shadow
//! adheres to *the same API and on-disk formats* as the base it
//! enhances, and §4.1 argues a documented, checked format is itself a
//! reliability win ("we hope that the implementation of a
//! formally-verified shadow filesystem can serve as an ABI"). This crate
//! is that ABI: every structure has an explicit byte layout, a checksum,
//! and a validator.
//!
//! Layout (4 KiB blocks, all offsets recorded in the superblock):
//!
//! ```text
//! [0] superblock
//! [1 .. 1+J)              journal (header block + record area)
//! [ibm .. ibm+IBB)        inode bitmap
//! [dbm .. dbm+DBB)        data bitmap (bit i <=> block data_start+i)
//! [itb .. itb+ITB)        inode table (16 inodes of 256 B per block)
//! [data_start .. total)   data blocks
//! ```
//!
//! Modules:
//!
//! * [`crc`] — CRC32C, used by every on-disk structure;
//! * [`layout`] — geometry computation ([`Geometry`]);
//! * [`superblock`] — [`Superblock`] codec + validation;
//! * [`inode`] — [`DiskInode`] codec + validation (256 B, 12 direct +
//!   1 indirect + 1 double-indirect pointers);
//! * [`dirent`] — ext2-style variable-length directory entry blocks;
//! * [`bitmap`] — allocation bitmaps;
//! * [`journal`] — physical metadata journal records, scan and replay;
//! * [`mkfs`](fn@mkfs) — filesystem creation;
//! * [`fsck`](fn@fsck) — the full structural checker (the "verified FSCK"
//!   analog from §4.3 of the paper);
//! * [`crafted`] — the adversarial crafted-image builder used by the
//!   robustness experiments (§2.1's bypass-FSCK attack class).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod crafted;
pub mod crc;
pub mod dirent;
pub mod fsck;
pub mod inode;
pub mod journal;
pub mod layout;
pub mod mkfs;
pub mod recovery;
pub mod superblock;
mod wire;

pub use crafted::{apply_corruption, Corruption, CraftedCase, CraftedImage};
pub use fsck::{fsck, fsck_keeping_meta, FsckError, FsckReport, LoadedMeta};
pub use inode::{
    locate_block, max_file_size, read_inode, write_inode, BlockPtrLoc, DiskInode, INODES_PER_BLOCK,
    INODE_SIZE, NDIRECT, PTRS_PER_BLOCK,
};
pub use layout::Geometry;
pub use mkfs::{mkfs, MkfsParams};
pub use recovery::{RecoveredFd, RecoveryDelta};
pub use superblock::{MountState, Superblock, SUPERBLOCK_MAGIC};
