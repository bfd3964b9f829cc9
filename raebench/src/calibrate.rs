//! What the timing loop itself costs.

use crate::load::{drive, Board, ChurnNames, Drive, FileEnt, FsExec, ThreadLog, Until};
use crate::stream::{table_len, Op, SPECS};
use rae_vfs::{
    DirEntry, Fd, FileStat, FileSystem, FsError, FsGeometryInfo, FsResult, OpenFlags, SetAttr,
};
use std::time::Instant;

/// A `FileSystem` that does nothing: what remains when the timing loop
/// runs against it is the harness itself (two `Instant::now` calls, the
/// dispatch, the sample store).
struct NullFs;

impl FileSystem for NullFs {
    fn open(&self, _: &str, _: OpenFlags) -> FsResult<Fd> {
        Ok(Fd(3))
    }
    fn close(&self, _: Fd) -> FsResult<()> {
        Ok(())
    }
    fn read(&self, _: Fd, _: u64, _: usize) -> FsResult<Vec<u8>> {
        Ok(Vec::new())
    }
    fn write(&self, _: Fd, _: u64, data: &[u8]) -> FsResult<usize> {
        Ok(data.len())
    }
    fn truncate(&self, _: Fd, _: u64) -> FsResult<()> {
        Ok(())
    }
    fn setattr(&self, _: &str, _: SetAttr) -> FsResult<()> {
        Ok(())
    }
    fn fsync(&self, _: Fd) -> FsResult<()> {
        Ok(())
    }
    fn sync(&self) -> FsResult<()> {
        Ok(())
    }
    fn mkdir(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn rmdir(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn unlink(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn rename(&self, _: &str, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn link(&self, _: &str, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn symlink(&self, _: &str, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn readlink(&self, _: &str) -> FsResult<String> {
        Ok(String::new())
    }
    fn stat(&self, _: &str) -> FsResult<FileStat> {
        Err(FsError::NotFound)
    }
    fn fstat(&self, _: Fd) -> FsResult<FileStat> {
        Err(FsError::NotFound)
    }
    fn readdir(&self, _: &str) -> FsResult<Vec<DirEntry>> {
        Ok(Vec::new())
    }
    fn statfs(&self) -> FsResult<FsGeometryInfo> {
        Err(FsError::NotFound)
    }
}

/// `bench.harness_ns_per_op`: mean time per operation of the load loop
/// driving `stream` against [`NullFs`]. That much of every latency the
/// benchmark reports is the benchmark.
pub fn harness_ns_per_op(stream: &[Op]) -> f64 {
    const OPS: u64 = 200_000;
    let null = NullFs;
    let fss: [&dyn FileSystem; 1] = [&null];
    let files: Vec<FileEnt> = (0..SPECS.iter().map(table_len).max().unwrap_or(0))
        .map(|i| FileEnt {
            vol: 0,
            fd: Fd(3),
            path: format!("/f{i}"),
        })
        .collect();
    let churn = ChurnNames::new("/churn");
    let mut exec = FsExec::new(&fss, &files, &churn, false);
    let mut log = ThreadLog::with_capacity(OPS as usize);
    let d = Drive {
        stream,
        first: 0,
        until: Until::Ops(OPS),
        epoch: Instant::now(),
        thread: 0,
        board: &Board::new(1, 0),
        sample_every: 1,
        think: None,
        windows: false,
        probe_every: 0,
        probe: None,
        span: None,
    };
    drive(d, &mut log, |op| {
        // the null filesystem returns no bytes, so the executor's length
        // check fails: irrelevant here, only the time is read
        exec.exec(op)
    });
    log.busy_ns as f64 / log.attempted as f64
}
