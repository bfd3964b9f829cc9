//! File-backed block device.

use crate::device::{
    check_batch, check_buf, check_extent, check_range, BlockDevice, Extent, BLOCK_SIZE,
};
use rae_vfs::{FsError, FsResult};
use std::fs::{File, OpenOptions};
use std::path::Path;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// A block device backed by a host file, using positional I/O.
///
/// Used for persistent images (e.g. saving a crafted image produced by
/// the image builder, or benchmarking against a real backing file).
#[derive(Debug)]
pub struct FileDisk {
    file: File,
    block_count: u64,
}

impl FileDisk {
    /// Create (or truncate) a backing file sized for `block_count` blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::IoFailed`] on host I/O failure.
    pub fn create<P: AsRef<Path>>(path: P, block_count: u64) -> FsResult<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(host_err)?;
        file.set_len(block_count * BLOCK_SIZE as u64)
            .map_err(host_err)?;
        Ok(FileDisk { file, block_count })
    }

    /// Open an existing backing file; its size must be a positive
    /// multiple of [`BLOCK_SIZE`].
    ///
    /// # Errors
    ///
    /// [`FsError::IoFailed`] on host I/O failure or a misshapen file.
    pub fn open<P: AsRef<Path>>(path: P) -> FsResult<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(host_err)?;
        let len = file.metadata().map_err(host_err)?.len();
        if len == 0 || len % BLOCK_SIZE as u64 != 0 {
            return Err(FsError::IoFailed {
                detail: format!(
                    "backing file length {len} is not a positive multiple of {BLOCK_SIZE}"
                ),
            });
        }
        Ok(FileDisk {
            file,
            block_count: len / BLOCK_SIZE as u64,
        })
    }
}

fn host_err(e: std::io::Error) -> FsError {
    FsError::IoFailed {
        detail: format!("host file error: {e}"),
    }
}

impl BlockDevice for FileDisk {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count)?;
        self.file
            .read_exact_at(buf, bno * BLOCK_SIZE as u64)
            .map_err(host_err)
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count)?;
        self.file
            .write_all_at(buf, bno * BLOCK_SIZE as u64)
            .map_err(host_err)
    }

    // One positional transfer per extent; the bounce buffer costs a
    // memcpy, far less than the system calls it saves.
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        check_extent(start, bufs.iter().map(|b| b.len()), self.block_count)?;
        let mut run = vec![0u8; bufs.len() * BLOCK_SIZE];
        self.file
            .read_exact_at(&mut run, start * BLOCK_SIZE as u64)
            .map_err(host_err)?;
        for (buf, block) in bufs.iter_mut().zip(run.chunks_exact(BLOCK_SIZE)) {
            buf.copy_from_slice(block);
        }
        Ok(())
    }

    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        check_batch(extents, self.block_count)?;
        for e in extents.iter().filter(|e| !e.is_empty()) {
            self.file
                .write_all_at(&e.bufs.concat(), e.start * BLOCK_SIZE as u64)
                .map_err(host_err)?;
        }
        Ok(())
    }

    fn flush(&self) -> FsResult<()> {
        self.file.sync_data().map_err(host_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rae-filedisk-{}-{name}.img", std::process::id()));
        p
    }

    #[test]
    fn create_write_read_reopen() {
        let path = tmp_path("rw");
        {
            let d = FileDisk::create(&path, 8).unwrap();
            assert_eq!(d.block_count(), 8);
            let mut b = vec![0u8; BLOCK_SIZE];
            b[5] = 99;
            d.write_block(3, &b).unwrap();
            d.flush().unwrap();
        }
        {
            let d = FileDisk::open(&path).unwrap();
            assert_eq!(d.block_count(), 8);
            let mut r = vec![0u8; BLOCK_SIZE];
            d.read_block(3, &mut r).unwrap();
            assert_eq!(r[5], 99);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn extent_roundtrip() {
        let path = tmp_path("extent");
        let d = FileDisk::create(&path, 8).unwrap();
        let (a, b) = (vec![3u8; BLOCK_SIZE], vec![4u8; BLOCK_SIZE]);
        let batch = [
            Extent {
                start: 1,
                bufs: &[&b[..]],
            },
            Extent {
                start: 6,
                bufs: &[&a[..], &b[..]],
            },
        ];
        d.write_blocks(&batch).unwrap();
        let (mut x, mut y) = (vec![0u8; BLOCK_SIZE], vec![0u8; BLOCK_SIZE]);
        d.read_blocks(6, &mut [&mut x[..], &mut y[..]]).unwrap();
        assert_eq!((&x, &y), (&a, &b));
        d.read_block(1, &mut x).unwrap();
        assert_eq!(x, b);
        assert!(d
            .write_blocks(&[Extent {
                start: 7,
                bufs: &[&a[..], &a[..]]
            }])
            .is_err());
        drop(d);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_misshapen_file() {
        let path = tmp_path("shape");
        std::fs::write(&path, b"not a multiple of 4096").unwrap();
        assert!(FileDisk::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let path = tmp_path("range");
        let d = FileDisk::create(&path, 2).unwrap();
        let b = vec![0u8; BLOCK_SIZE];
        assert!(d.write_block(2, &b).is_err());
        drop(d);
        std::fs::remove_file(&path).unwrap();
    }
}
