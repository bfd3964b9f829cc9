//! The journal manager: running-transaction commit and checkpointing.
//!
//! Write-ahead rule: dirty metadata reaches the disk *only* as journal
//! records; the home locations are rewritten at checkpoint time.
//! Ordered mode: the caller hands [`JournalMgr::commit`] the file data
//! with the metadata, and the data is on stable storage before the
//! commit block is written, so committed metadata never references
//! unwritten data.
//!
//! The journal is append-only and resets at each checkpoint (see
//! `rae_fsformat::journal` for the format rationale).
//!
//! A commit is two write batches and two barriers: the data extents and
//! the record (descriptor + images, **one** extent at the record base)
//! go to the device as one batch, then the caller's barrier (the
//! write-back queue's drain and a device flush), then the commit block,
//! then a flush. The blocks inside one batch are not ordered against
//! each other, and they need not be: until the barrier returns, nothing
//! of the record is promised, and replay discards a record whose commit
//! block or any image CRC is missing — only the barrier in front of the
//! commit block has to order anything (jbd2 submits ordered data and
//! journal blocks the same way). A transaction too large for one record
//! splits; later chunks carry no data and pay record → flush → commit →
//! flush. Checkpoint writes its sorted home images as one batch, one
//! extent per run of consecutive blocks.

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

    /// Attach a telemetry handle: commits that journal something record
    /// their wall-clock duration (the data + record batch, both
    /// barriers, the commit block).
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

    /// Commit a set of metadata images with the file `data` they may
    /// reference (ordered mode). The data extents travel in the batch of
    /// the first record, and `barrier` runs in place of the flush in
    /// front of that record's commit block: it must put every write
    /// issued so far on stable storage, the data the caller wrote before
    /// this call included. With no images there is nothing to journal,
    /// and the data batch and the barrier are the whole commit. On
    /// return the images are durable (recoverable by replay), and the
    /// value says whether the journal filled up and was checkpointed on
    /// the way — every image committed before this call is then at its
    /// home location. On error nothing of this call is promised.
    pub(crate) fn commit<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &D,
        data: &[Extent<'_>],
        images: Vec<(u64, Vec<u8>)>,
        barrier: impl FnOnce() -> FsResult<()>,
    ) -> FsResult<bool> {
        if images.is_empty() {
            if !data.is_empty() {
                dev.write_blocks(data)?;
            }
            barrier()?;
            return Ok(false);
        }
        let t0 = self.telemetry.as_ref().and_then(|t| t.layer_clock());
        let result = self.commit_inner(dev, data, images, barrier);
        if let Some(t) = self.telemetry.as_ref() {
            t.layer_observed(SpanLayer::JournalIo, t0);
        }
        result
    }

    fn commit_inner<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &D,
        data: &[Extent<'_>],
        images: Vec<(u64, Vec<u8>)>,
        barrier: impl FnOnce() -> FsResult<()>,
    ) -> FsResult<bool> {
        let chunk_size = self.max_chunk();
        let mut images = images.into_iter();
        let mut checkpointed = false;
        let mut first = Some((data, barrier));
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
            let record = Extent {
                start: base,
                bufs: &record,
            };
            // the data and all record content durable before the commit
            // block
            if let Some((data, barrier)) = first.take() {
                let batch: Vec<Extent<'_>> = data.iter().copied().chain([record]).collect();
                dev.write_blocks(&batch)?;
                barrier()?;
            } else {
                dev.write_blocks(&[record])?;
                dev.flush()?;
            }
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
        mgr.commit(&dev, &[], vec![(target, img(0xAB))], || dev.flush())
            .unwrap();

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
        mgr.commit(&dev, &[], vec![(target, img(0x77))], || dev.flush())
            .unwrap();
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
        mgr.commit(&dev, &[], vec![(target, img(1))], || dev.flush())
            .unwrap();
        mgr.commit(&dev, &[], vec![(target, img(2))], || dev.flush())
            .unwrap();
        mgr.commit(&dev, &[], vec![(target, img(3))], || dev.flush())
            .unwrap();
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
            mgr.commit(
                &dev,
                &[],
                vec![(geo.data_start + 1, img(expected_fill))],
                || dev.flush(),
            )
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
        mgr.commit(&dev, &[], images, || dev.flush()).unwrap();
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
        mgr.commit(&dev, &[], images, || dev.flush()).unwrap();
        let c = dev.counters();
        assert_eq!((c.write_requests, c.writes, c.flushes), (2, 9, 2));

        // the checkpoint writes the seven consecutive homes as one run,
        // then resets the journal with one more request
        dev.reset();
        mgr.checkpoint(&dev).unwrap();
        let c = dev.counters();
        assert_eq!((c.write_requests, c.writes), (2, 7 + 2));
    }

    /// A request batch (by extent count) or a flush, as the device saw it.
    #[derive(Debug, PartialEq)]
    enum Io {
        Batch(usize),
        Flush,
    }

    /// Logs write batches and flushes on the way to a MemDisk.
    struct Batches(MemDisk, std::sync::Mutex<Vec<Io>>);

    impl Batches {
        fn new() -> Batches {
            Batches(MemDisk::new(4096), std::sync::Mutex::default())
        }
        fn take(&self) -> Vec<Io> {
            std::mem::take(&mut *self.1.lock().unwrap())
        }
    }

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
            self.1.lock().unwrap().push(Io::Batch(extents.len()));
            self.0.write_blocks(extents)
        }
        fn flush(&self) -> FsResult<()> {
            self.1.lock().unwrap().push(Io::Flush);
            self.0.flush()
        }
    }

    #[test]
    fn extent_checkpoint_writes_scattered_homes_as_one_batch() {
        let dev = Batches::new();
        let geo = mkfs(&dev, MkfsParams::default()).unwrap();
        let mut mgr = JournalMgr::new(geo, 0);
        let homes = [3, 4, 9, 20, 21, 22, 40].map(|i| geo.data_start + i);
        mgr.commit(
            &dev,
            &[],
            homes.iter().map(|&b| (b, img(b as u8))).collect(),
            || dev.flush(),
        )
        .unwrap();
        dev.take();
        mgr.checkpoint(&dev).unwrap();
        // four runs in one batch, then the journal reset
        assert_eq!(
            dev.take(),
            [Io::Batch(4), Io::Flush, Io::Batch(1), Io::Flush]
        );
        for b in homes {
            let mut raw = img(0);
            dev.read_block(b, &mut raw).unwrap();
            assert_eq!(raw[0], b as u8);
        }
    }

    #[test]
    fn extent_commit_with_data_is_two_batches_and_two_flushes() {
        let dev = Batches::new();
        // room for two full-size records, so a split needs no checkpoint
        let params = MkfsParams {
            journal_blocks: 1024,
            ..MkfsParams::default()
        };
        let geo = mkfs(&dev, params).unwrap();
        let mut mgr = JournalMgr::new(geo, 0);
        let data = [img(0xD1), img(0xD2), img(0xD3)];
        let bufs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let bnos = [100, 101, 200].map(|i| geo.data_start + i);
        let extents = Extent::runs(&bnos, &bufs);
        let images = |n: u64, fill: u8| -> Vec<(u64, Vec<u8>)> {
            (0..n)
                .map(|i| (geo.data_start + 500 + i, img(fill)))
                .collect()
        };
        dev.take();

        // the two data extents and the record in one batch, the barrier,
        // the commit block, a flush
        mgr.commit(&dev, &extents, images(3, 7), || dev.flush())
            .unwrap();
        assert_eq!(
            dev.take(),
            [Io::Batch(3), Io::Flush, Io::Batch(1), Io::Flush]
        );
        for (&b, d) in bnos.iter().zip(&data) {
            let mut raw = img(0);
            dev.read_block(b, &mut raw).unwrap();
            assert_eq!(raw, *d);
        }
        assert_eq!(journal::replay(&dev, &geo).unwrap().transactions, 1);
        dev.take();

        // too large for one record: only the first chunk carries the data
        let mut mgr = JournalMgr::new(geo, 1);
        mgr.commit(&dev, &extents, images(300, 8), || dev.flush())
            .unwrap();
        assert_eq!(
            dev.take(),
            [
                Io::Batch(3),
                Io::Flush,
                Io::Batch(1),
                Io::Flush,
                Io::Batch(1),
                Io::Flush,
                Io::Batch(1),
                Io::Flush
            ]
        );

        // nothing to journal: the data batch and the barrier are the commit
        mgr.commit(&dev, &extents, vec![], || dev.flush()).unwrap();
        assert_eq!(dev.take(), [Io::Batch(2), Io::Flush]);
        assert_eq!(mgr.commits(), 2);
    }

    #[test]
    fn empty_commit_is_free() {
        let (dev, _geo, mut mgr) = setup();
        mgr.commit(&dev, &[], vec![], || dev.flush()).unwrap();
        assert_eq!(mgr.commits(), 0);
    }

    #[test]
    fn drop_pending_prevents_stale_checkpoint_overwrite() {
        let (dev, geo, mut mgr) = setup();
        let target = geo.data_start + 3;
        mgr.commit(&dev, &[], vec![(target, img(0xEE))], || dev.flush())
            .unwrap();
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
        mgr.commit(&dev, &[], vec![(t1, img(0x11))], || dev.flush())
            .unwrap();

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
