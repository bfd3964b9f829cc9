//! The journal manager: running-transaction commit and checkpointing.
//!
//! Write-ahead rule: dirty metadata reaches the disk *only* as journal
//! records; the home locations are rewritten at checkpoint time.
//! Ordered mode: the caller flushes file data before calling
//! [`JournalMgr::commit`], so committed metadata never references
//! unwritten data.
//!
//! The journal is append-only and resets at each checkpoint (see
//! `rae_fsformat::journal` for the format rationale).
//!
//! A transaction's record costs two write requests and two barriers:
//! descriptor + images go to the device as **one** extent request at the
//! record base, then a flush, then the commit block, then a flush. The
//! blocks inside one request are not ordered against each other, and
//! they need not be: until the first flush returns, nothing of the
//! record is promised, and replay discards a record whose commit block
//! or any image CRC is missing. Checkpoint writes its sorted home images
//! as one batch, one extent per run of consecutive blocks.

use rae_blockdev::{BlockDevice, Extent};
use rae_fsformat::journal::{self, TxnTag, MAX_TXN_BLOCKS};
use rae_fsformat::{crc::crc32c, Geometry};
use rae_telemetry::{SpanLayer, Telemetry};
use rae_vfs::{FsError, FsResult};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
pub(crate) struct JournalMgr {
    geo: Geometry,
    next_seq: u64,
    /// Next free block, relative to the journal region start (block 0
    /// is the header).
    write_ptr: u64,
    /// Committed-but-not-checkpointed home images (latest per block).
    pending: HashMap<u64, Vec<u8>>,
    commits: u64,
    checkpoints: u64,
    telemetry: Option<Arc<Telemetry>>,
}

impl JournalMgr {
    /// Set up after a mount-time replay left the journal empty with
    /// `next_seq` as its base sequence.
    pub(crate) fn new(geo: Geometry, next_seq: u64) -> JournalMgr {
        JournalMgr {
            geo,
            next_seq,
            write_ptr: 1,
            pending: HashMap::new(),
            commits: 0,
            checkpoints: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry handle: commits record their wall-clock
    /// duration (descriptor + data + both flush barriers).
    pub(crate) fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    fn capacity(&self) -> u64 {
        self.geo.journal_blocks - 1
    }

    fn max_chunk(&self) -> usize {
        // descriptor + data + commit must fit the record area
        let by_region = self.capacity().saturating_sub(2);
        (MAX_TXN_BLOCKS as u64).min(by_region).max(1) as usize
    }

    /// Number of committed transactions so far.
    pub(crate) fn commits(&self) -> u64 {
        self.commits
    }

    /// Number of checkpoints so far.
    pub(crate) fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Commit a set of metadata images. Ordered-mode contract: the
    /// caller has already flushed file data. On return the images are
    /// durable (recoverable by replay), and the value says whether the
    /// journal filled up and was checkpointed on the way — every image
    /// committed before this call is then at its home location.
    pub(crate) fn commit<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &D,
        images: Vec<(u64, Vec<u8>)>,
    ) -> FsResult<bool> {
        if images.is_empty() {
            return Ok(false);
        }
        let t0 = self.telemetry.as_ref().and_then(|t| t.layer_clock());
        let result = self.commit_inner(dev, images);
        if let Some(t) = self.telemetry.as_ref() {
            t.layer_observed(SpanLayer::JournalIo, t0);
        }
        result
    }

    fn commit_inner<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &D,
        images: Vec<(u64, Vec<u8>)>,
    ) -> FsResult<bool> {
        let chunk_size = self.max_chunk();
        let mut images = images.into_iter();
        let mut checkpointed = false;
        loop {
            let chunk: Vec<(u64, Vec<u8>)> = images.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                return Ok(checkpointed);
            }
            let needed = chunk.len() as u64 + 2;
            if self.write_ptr + needed > self.geo.journal_blocks {
                self.checkpoint(dev)?;
                checkpointed = true;
            }
            if self.write_ptr + needed > self.geo.journal_blocks {
                return Err(FsError::Internal {
                    detail: format!(
                        "transaction of {} blocks cannot fit a {}-block journal",
                        chunk.len(),
                        self.geo.journal_blocks
                    ),
                });
            }
            let seq = self.next_seq;
            let tags: Vec<TxnTag> = chunk
                .iter()
                .map(|(bno, img)| TxnTag {
                    target: *bno,
                    crc: crc32c(img),
                })
                .collect();
            let base = self.geo.journal_start + self.write_ptr;
            let descriptor = journal::encode_descriptor(seq, &tags);
            let record: Vec<&[u8]> = std::iter::once(descriptor.as_slice())
                .chain(chunk.iter().map(|(_, img)| img.as_slice()))
                .collect();
            dev.write_blocks(&[Extent {
                start: base,
                bufs: &record,
            }])?;
            // all record content durable before the commit block
            dev.flush()?;
            dev.write_block(base + 1 + chunk.len() as u64, &journal::encode_commit(seq))?;
            dev.flush()?;

            self.write_ptr += needed;
            self.next_seq += 1;
            self.commits += 1;
            // durable: the images themselves become the pending homes
            self.pending.extend(chunk);
        }
    }

    /// Write all committed images home, then reset the journal.
    pub(crate) fn checkpoint<D: BlockDevice + ?Sized>(&mut self, dev: &D) -> FsResult<()> {
        if self.pending.is_empty() && self.write_ptr == 1 {
            return Ok(());
        }
        let mut homes: Vec<(u64, &[u8])> = self
            .pending
            .iter()
            .map(|(&bno, img)| (bno, img.as_slice()))
            .collect();
        homes.sort_unstable_by_key(|&(bno, _)| bno);
        journal::write_homes(dev, homes)?;
        dev.flush()?;
        journal::reset(dev, &self.geo, self.next_seq)?;
        self.pending.clear();
        self.write_ptr = 1;
        self.checkpoints += 1;
        Ok(())
    }

    /// Forget the committed-but-not-checkpointed image for `bno`.
    ///
    /// Must be called when a block is freed. Once a block is back on
    /// the free list it can be reallocated — possibly as a *data*
    /// block, whose contents bypass the journal in ordered mode — and a
    /// stale pending metadata image would silently overwrite the new
    /// contents at the next checkpoint. Dropping the entry at free time
    /// closes that reuse hazard.
    pub(crate) fn drop_pending(&mut self, bno: u64) {
        self.pending.remove(&bno);
    }

    /// Blocks with committed-but-not-checkpointed images (tests).
    #[cfg(test)]
    pub(crate) fn pending_blocks(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
    use rae_fsformat::{mkfs, MkfsParams};

    fn setup() -> (MemDisk, Geometry, JournalMgr) {
        let dev = MemDisk::new(4096);
        let geo = mkfs(&dev, MkfsParams::default()).unwrap();
        let mgr = JournalMgr::new(geo, 0);
        (dev, geo, mgr)
    }

    fn img(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn committed_images_replay_after_crash() {
        let (dev, geo, mut mgr) = setup();
        let target = geo.data_start + 5;
        mgr.commit(&dev, vec![(target, img(0xAB))]).unwrap();

        // crash before checkpoint: home location still stale
        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0);

        // replay applies it
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 1);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0xAB);
    }

    #[test]
    fn checkpoint_writes_home_and_empties_journal() {
        let (dev, geo, mut mgr) = setup();
        let target = geo.data_start + 9;
        mgr.commit(&dev, vec![(target, img(0x77))]).unwrap();
        mgr.checkpoint(&dev).unwrap();
        assert_eq!(mgr.pending_blocks(), 0);

        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0x77);
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 0, "journal empty after checkpoint");
        assert_eq!(report.next_seq, 1, "sequence survives the reset");
    }

    #[test]
    fn multiple_commits_replay_in_order() {
        let (dev, geo, mut mgr) = setup();
        let target = geo.data_start;
        mgr.commit(&dev, vec![(target, img(1))]).unwrap();
        mgr.commit(&dev, vec![(target, img(2))]).unwrap();
        mgr.commit(&dev, vec![(target, img(3))]).unwrap();
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 3);
        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 3, "last committed image wins");
    }

    #[test]
    fn auto_checkpoint_when_journal_fills() {
        let (dev, geo, mut mgr) = setup();
        // each commit consumes 3 blocks of the 255-block record area
        let mut expected_fill = 0u8;
        for i in 0..200u64 {
            expected_fill = (i % 250) as u8 + 1;
            mgr.commit(&dev, vec![(geo.data_start + 1, img(expected_fill))])
                .unwrap();
        }
        assert!(mgr.checkpoints() > 0, "journal wrapped via checkpoint");
        // final state must still be recoverable
        journal::replay(&dev, &geo).unwrap();
        let mut raw = img(0);
        dev.read_block(geo.data_start + 1, &mut raw).unwrap();
        assert_eq!(raw[0], expected_fill);
    }

    #[test]
    fn oversized_commit_splits_into_transactions() {
        let (dev, geo, mut mgr) = setup();
        // journal record area is 255 blocks; 300 images must split
        let images: Vec<(u64, Vec<u8>)> = (0..300)
            .map(|i| (geo.data_start + 10 + i, img((i % 251) as u8)))
            .collect();
        mgr.commit(&dev, images).unwrap();
        journal::replay(&dev, &geo).unwrap();
        let mut raw = img(0);
        dev.read_block(geo.data_start + 10 + 299, &mut raw).unwrap();
        assert_eq!(raw[0], (299 % 251) as u8);
    }

    #[test]
    fn extent_commit_is_two_write_requests_and_two_flushes() {
        use rae_blockdev::StatsDisk;
        let dev = StatsDisk::new(MemDisk::new(4096));
        let geo = mkfs(&dev, MkfsParams::default()).unwrap();
        let mut mgr = JournalMgr::new(geo, 0);
        dev.reset();
        let images: Vec<(u64, Vec<u8>)> = (0..7).map(|i| (geo.data_start + i, img(1))).collect();
        mgr.commit(&dev, images).unwrap();
        let c = dev.counters();
        assert_eq!((c.write_requests, c.writes, c.flushes), (2, 9, 2));

        // the checkpoint writes the seven consecutive homes as one run,
        // then resets the journal with one more request
        dev.reset();
        mgr.checkpoint(&dev).unwrap();
        let c = dev.counters();
        assert_eq!((c.write_requests, c.writes), (2, 7 + 2));
    }

    #[test]
    fn extent_checkpoint_writes_scattered_homes_as_one_batch() {
        /// Counts write batches (not requests) on the way to a MemDisk.
        struct Batches(MemDisk, std::sync::Mutex<Vec<usize>>);
        impl BlockDevice for Batches {
            fn block_count(&self) -> u64 {
                self.0.block_count()
            }
            fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
                self.0.read_block(bno, buf)
            }
            fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
                self.write_blocks(&[Extent {
                    start: bno,
                    bufs: &[buf],
                }])
            }
            fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
                self.1.lock().unwrap().push(extents.len());
                self.0.write_blocks(extents)
            }
            fn flush(&self) -> FsResult<()> {
                self.0.flush()
            }
        }
        let dev = Batches(MemDisk::new(4096), std::sync::Mutex::default());
        let geo = mkfs(&dev, MkfsParams::default()).unwrap();
        let mut mgr = JournalMgr::new(geo, 0);
        let homes = [3, 4, 9, 20, 21, 22, 40].map(|i| geo.data_start + i);
        mgr.commit(&dev, homes.iter().map(|&b| (b, img(b as u8))).collect())
            .unwrap();
        dev.1.lock().unwrap().clear();
        mgr.checkpoint(&dev).unwrap();
        // four runs in one batch, then the journal reset
        assert_eq!(*dev.1.lock().unwrap(), [4, 1]);
        for b in homes {
            let mut raw = img(0);
            dev.read_block(b, &mut raw).unwrap();
            assert_eq!(raw[0], b as u8);
        }
    }

    #[test]
    fn empty_commit_is_free() {
        let (dev, _geo, mut mgr) = setup();
        mgr.commit(&dev, vec![]).unwrap();
        assert_eq!(mgr.commits(), 0);
    }

    #[test]
    fn drop_pending_prevents_stale_checkpoint_overwrite() {
        let (dev, geo, mut mgr) = setup();
        let target = geo.data_start + 3;
        mgr.commit(&dev, vec![(target, img(0xEE))]).unwrap();
        assert_eq!(mgr.pending_blocks(), 1);

        // the block is freed and reused as file data, which reaches its
        // home location directly (ordered mode)
        mgr.drop_pending(target);
        assert_eq!(mgr.pending_blocks(), 0);
        dev.write_block(target, &img(0x42)).unwrap();

        mgr.checkpoint(&dev).unwrap();
        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0x42, "checkpoint must not resurrect a freed image");
    }

    #[test]
    fn torn_commit_is_discarded_by_replay() {
        let (dev, geo, mut mgr) = setup();
        let t1 = geo.data_start + 1;
        mgr.commit(&dev, vec![(t1, img(0x11))]).unwrap();

        // hand-write a descriptor for the *next* seq without a commit
        // block (simulating a crash mid-commit)
        let tags = [TxnTag {
            target: t1,
            crc: crc32c(&img(0x22)),
        }];
        let base = geo.journal_start + mgr.write_ptr;
        dev.write_block(base, &journal::encode_descriptor(mgr.next_seq, &tags))
            .unwrap();
        dev.write_block(base + 1, &img(0x22)).unwrap();

        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 1, "only the complete txn applied");
        let mut raw = img(0);
        dev.read_block(t1, &mut raw).unwrap();
        assert_eq!(raw[0], 0x11);
    }
}
