//! The physical metadata journal: record formats, scan, and replay.
//!
//! The journal occupies `geometry.journal_blocks` blocks starting at
//! `geometry.journal_start`. Block 0 of the region is the *journal
//! header* (magic + base sequence number). Transactions are appended
//! from block 1:
//!
//! ```text
//! [descriptor: seq, tags(target bno + data CRC)] [data image]* [commit: seq]
//! ```
//!
//! The log is append-only; when it fills up, the owner checkpoints
//! (writes all journaled blocks home) and resets the header with a new
//! base sequence. (JBD2 wraps circularly instead; the reset-on-
//! checkpoint simplification preserves the recovery semantics the
//! paper's contained reboot relies on and is recorded in DESIGN.md.)
//!
//! [`replay`] is deliberately conservative: it applies only transactions
//! whose descriptor, every data-block checksum, and commit record all
//! validate, and stops at the first gap — exactly the "recover from
//! known on-disk state" step of a contained reboot.

use crate::crc::{crc32c, crc32c_excluding};
use crate::layout::Geometry;
use crate::wire::{get_u32, get_u64, put_u32, put_u64};
use rae_blockdev::{BlockDevice, Extent, BLOCK_SIZE};
use rae_vfs::{FsError, FsResult};
use std::collections::BTreeMap;

/// Magic of the journal header block ("RAEH").
pub const JOURNAL_HEADER_MAGIC: u32 = 0x5241_4548;
/// Magic of a descriptor block ("RAED").
pub const JOURNAL_DESC_MAGIC: u32 = 0x5241_4544;
/// Magic of a commit block ("RAEC").
pub const JOURNAL_COMMIT_MAGIC: u32 = 0x5241_4543;

/// Maximum data blocks in one transaction (fits one descriptor block).
pub const MAX_TXN_BLOCKS: usize = 256;

const HDR_OFF_MAGIC: usize = 0;
const HDR_OFF_BASE_SEQ: usize = 4;
const HDR_OFF_CRC: usize = 12;
const HDR_LEN: usize = 16;

const DESC_OFF_MAGIC: usize = 0;
const DESC_OFF_SEQ: usize = 4;
const DESC_OFF_NTAGS: usize = 12;
const DESC_OFF_TAGS: usize = 16;
const TAG_LEN: usize = 12; // target u64 + crc u32

const COMMIT_OFF_MAGIC: usize = 0;
const COMMIT_OFF_SEQ: usize = 4;
const COMMIT_OFF_CRC: usize = 12;
const COMMIT_LEN: usize = 16;

/// One journaled block: where it belongs and the checksum of its image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnTag {
    /// Home location of the journaled block.
    pub target: u64,
    /// CRC32C of the journaled image.
    pub crc: u32,
}

/// Encode the journal header block.
#[must_use]
pub fn encode_header(base_seq: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    put_u32(&mut buf, HDR_OFF_MAGIC, JOURNAL_HEADER_MAGIC);
    put_u64(&mut buf, HDR_OFF_BASE_SEQ, base_seq);
    let crc = crc32c_excluding(&buf[..HDR_LEN], HDR_OFF_CRC);
    put_u32(&mut buf, HDR_OFF_CRC, crc);
    buf
}

/// Decode and validate the journal header block.
///
/// # Errors
///
/// [`FsError::Corrupted`] on bad magic or checksum.
pub fn decode_header(buf: &[u8]) -> FsResult<u64> {
    if buf.len() != BLOCK_SIZE || get_u32(buf, HDR_OFF_MAGIC) != JOURNAL_HEADER_MAGIC {
        return Err(corrupt("bad journal header magic"));
    }
    if get_u32(buf, HDR_OFF_CRC) != crc32c_excluding(&buf[..HDR_LEN], HDR_OFF_CRC) {
        return Err(corrupt("journal header checksum mismatch"));
    }
    Ok(get_u64(buf, HDR_OFF_BASE_SEQ))
}

/// Encode a descriptor block for transaction `seq` covering `tags`.
///
/// # Panics
///
/// Panics if `tags` is empty or exceeds [`MAX_TXN_BLOCKS`] (caller bug:
/// transaction sizing is the journal owner's invariant).
#[must_use]
pub fn encode_descriptor(seq: u64, tags: &[TxnTag]) -> Vec<u8> {
    assert!(!tags.is_empty() && tags.len() <= MAX_TXN_BLOCKS);
    let mut buf = vec![0u8; BLOCK_SIZE];
    put_u32(&mut buf, DESC_OFF_MAGIC, JOURNAL_DESC_MAGIC);
    put_u64(&mut buf, DESC_OFF_SEQ, seq);
    put_u32(&mut buf, DESC_OFF_NTAGS, tags.len() as u32);
    for (i, t) in tags.iter().enumerate() {
        let off = DESC_OFF_TAGS + i * TAG_LEN;
        put_u64(&mut buf, off, t.target);
        put_u32(&mut buf, off + 8, t.crc);
    }
    let crc_at = DESC_OFF_TAGS + tags.len() * TAG_LEN;
    let crc = crc32c(&buf[..crc_at]);
    put_u32(&mut buf, crc_at, crc);
    buf
}

/// Decode a descriptor block: `Ok(Some((seq, tags)))` for a valid
/// descriptor, `Ok(None)` for a block that is not a descriptor at all
/// (end of log), `Err` for a block that *claims* to be a descriptor but
/// fails validation.
///
/// # Errors
///
/// [`FsError::Corrupted`] for tag counts out of range or checksum
/// mismatches.
pub fn decode_descriptor(buf: &[u8]) -> FsResult<Option<(u64, Vec<TxnTag>)>> {
    if buf.len() != BLOCK_SIZE || get_u32(buf, DESC_OFF_MAGIC) != JOURNAL_DESC_MAGIC {
        return Ok(None);
    }
    let ntags = get_u32(buf, DESC_OFF_NTAGS) as usize;
    if ntags == 0 || ntags > MAX_TXN_BLOCKS {
        return Err(corrupt("descriptor tag count out of range"));
    }
    let crc_at = DESC_OFF_TAGS + ntags * TAG_LEN;
    if get_u32(buf, crc_at) != crc32c(&buf[..crc_at]) {
        return Err(corrupt("descriptor checksum mismatch"));
    }
    let seq = get_u64(buf, DESC_OFF_SEQ);
    let mut tags = Vec::with_capacity(ntags);
    for i in 0..ntags {
        let off = DESC_OFF_TAGS + i * TAG_LEN;
        tags.push(TxnTag {
            target: get_u64(buf, off),
            crc: get_u32(buf, off + 8),
        });
    }
    Ok(Some((seq, tags)))
}

/// Encode a commit block for transaction `seq`.
#[must_use]
pub fn encode_commit(seq: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    put_u32(&mut buf, COMMIT_OFF_MAGIC, JOURNAL_COMMIT_MAGIC);
    put_u64(&mut buf, COMMIT_OFF_SEQ, seq);
    let crc = crc32c_excluding(&buf[..COMMIT_LEN], COMMIT_OFF_CRC);
    put_u32(&mut buf, COMMIT_OFF_CRC, crc);
    buf
}

/// Whether `buf` is a valid commit block for `seq`.
#[must_use]
pub fn is_commit(buf: &[u8], seq: u64) -> bool {
    buf.len() == BLOCK_SIZE
        && get_u32(buf, COMMIT_OFF_MAGIC) == JOURNAL_COMMIT_MAGIC
        && get_u64(buf, COMMIT_OFF_SEQ) == seq
        && get_u32(buf, COMMIT_OFF_CRC) == crc32c_excluding(&buf[..COMMIT_LEN], COMMIT_OFF_CRC)
}

/// Write a fresh (empty) journal with the given base sequence.
///
/// # Errors
///
/// Device errors.
pub fn reset<D: BlockDevice + ?Sized>(dev: &D, geo: &Geometry, base_seq: u64) -> FsResult<()> {
    let header = encode_header(base_seq);
    // Invalidate the first record slot so stale descriptors from a
    // previous epoch cannot be replayed; it travels with the header.
    let blank = [0u8; BLOCK_SIZE];
    let slots = if geo.journal_blocks > 1 { 2 } else { 1 };
    dev.write_blocks(&[Extent {
        start: geo.journal_start,
        bufs: &[&header[..], &blank][..slots],
    }])?;
    dev.flush()
}

/// Write `homes` — images in ascending, distinct block order — to their
/// home locations as one batch, one extent per maximal run of
/// consecutive blocks. No flush: the caller places the barrier.
///
/// # Errors
///
/// Device errors.
pub fn write_homes<'a, D: BlockDevice + ?Sized>(
    dev: &D,
    homes: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> FsResult<()> {
    let (bnos, images): (Vec<u64>, Vec<&[u8]>) = homes.into_iter().unzip();
    dev.write_blocks(&Extent::runs(&bnos, &images))
}

/// Outcome of a journal replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Committed transactions applied.
    pub transactions: u64,
    /// Block images the applied transactions carried. Images of one
    /// target are coalesced (the last wins), so the device sees at most
    /// this many home writes, usually far fewer.
    pub blocks: u64,
    /// Sequence number the journal was reset to.
    pub next_seq: u64,
}

/// Scan the journal and apply every fully-committed transaction, then
/// reset the journal. Idempotent: replaying twice applies the same
/// images, and the final reset empties the log.
///
/// The scan reads ahead: the header comes with the first descriptor,
/// and each record — the images and commit block its descriptor
/// announces — comes with the block after it, the next descriptor, so
/// `T` transactions cost `1 + T` read requests. (A descriptor's address
/// is known before its content; only its content says how long the
/// record is.) The blocks are read, and a fault-injecting device decides
/// them, in the order a scan of one request per descriptor and one per
/// record reads them; the look-ahead adds one block only after a torn
/// record, where that scan would have stopped. A device error on that
/// block fails the replay like any other read error, before anything is
/// written.
///
/// The scan only *collects* images; each target block is then written
/// home once, with the image of the last committed transaction that
/// journaled it (a run of small transactions rewrites the same bitmap
/// and inode-table blocks over and over, and only the last image of each
/// survives anyway), in one batch of one extent per run of consecutive
/// targets ([`write_homes`]). Nothing is written before the scan is
/// over, and the journal is reset only after the home writes are
/// flushed, so a crash anywhere in between leaves the log intact and a
/// second replay produces the same image.
///
/// Uncommitted or torn tails (bad descriptor, bad data CRC, missing
/// commit, sequence gap) terminate the scan silently — that is the
/// crash-consistency contract.
///
/// # Errors
///
/// Device errors; [`FsError::Corrupted`] if the journal header itself is
/// invalid, or a committed transaction targets a block outside the
/// device or inside the journal/superblock region (never legal, so it
/// is corruption rather than a torn tail).
pub fn replay<D: BlockDevice + ?Sized>(dev: &D, geo: &Geometry) -> FsResult<ReplayReport> {
    let first = geo.journal_start + 1;
    let end = geo.journal_start + geo.journal_blocks;
    // `next` is the block at `cursor`, read with what came before it;
    // `None` once the cursor has reached the journal's end
    let mut hdr = read_run(dev, geo.journal_start, 1 + usize::from(first < end))?;
    let mut next = hdr.split_off(1).pop();
    let base_seq = decode_header(&hdr[0])?;

    let mut cursor = first;
    let mut expected_seq = base_seq;
    let mut report = ReplayReport::default();
    // target -> image of the latest committed transaction naming it
    let mut home: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

    while let Some(desc) = next.take() {
        let (seq, tags) = match decode_descriptor(&desc) {
            Ok(Some(d)) => d,
            Ok(None) | Err(_) => break, // end of log or torn descriptor
        };
        if seq != expected_seq {
            break; // stale record from a previous journal epoch
        }
        // full transaction must fit before the journal end
        let data_start = cursor + 1;
        let commit_at = data_start + tags.len() as u64;
        if commit_at >= end {
            break;
        }
        // the descriptor names the rest of the record: images, commit
        // block and the next descriptor arrive in one request
        let len = tags.len() + 1;
        let mut record = read_run(dev, data_start, len + usize::from(commit_at + 1 < end))?;
        next = record.split_off(len).pop();
        let commit = record.pop().expect("the record ends with its commit block");
        // every data block must match its tag CRC (a mismatch is a torn
        // tail), and the commit must have made it
        let intact = tags
            .iter()
            .zip(&record)
            .all(|(tag, img)| crc32c(img) == tag.crc);
        if !intact || !is_commit(&commit, seq) {
            break; // uncommitted tail: discard
        }
        // The transaction is committed: targets must be legal.
        for tag in &tags {
            let in_journal = tag.target >= geo.journal_start && tag.target < end;
            if tag.target >= geo.total_blocks || in_journal {
                return Err(corrupt("committed transaction targets an illegal block"));
            }
        }
        report.blocks += tags.len() as u64;
        // a later image of a target replaces the earlier
        home.extend(tags.iter().map(|t| t.target).zip(record));
        report.transactions += 1;
        expected_seq += 1;
        cursor = commit_at + 1;
    }

    write_homes(dev, home.iter().map(|(&bno, img)| (bno, img.as_slice())))?;
    dev.flush()?;
    reset(dev, geo, expected_seq)?;
    report.next_seq = expected_seq;
    Ok(report)
}

/// Read the `len` blocks at `start` in one request.
fn read_run<D: BlockDevice + ?Sized>(dev: &D, start: u64, len: usize) -> FsResult<Vec<Vec<u8>>> {
    let mut blocks = vec![vec![0u8; BLOCK_SIZE]; len];
    let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(Vec::as_mut_slice).collect();
    dev.read_blocks(start, &mut bufs)?;
    Ok(blocks)
}

fn corrupt(msg: &str) -> FsError {
    FsError::Corrupted {
        detail: format!("journal: {msg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_blockdev::MemDisk;

    fn geo() -> Geometry {
        Geometry::compute(4096, 1024, 64).unwrap()
    }

    /// Hand-write a transaction into the journal at `slot` (region block
    /// index, 1-based past the header).
    fn write_txn(dev: &MemDisk, g: &Geometry, slot: u64, seq: u64, writes: &[(u64, u8)]) -> u64 {
        let tags: Vec<TxnTag> = writes
            .iter()
            .map(|&(target, fill)| TxnTag {
                target,
                crc: crc32c(&vec![fill; BLOCK_SIZE]),
            })
            .collect();
        let images: Vec<Vec<u8>> = writes
            .iter()
            .map(|&(_, fill)| vec![fill; BLOCK_SIZE])
            .collect();
        let (descriptor, commit) = (encode_descriptor(seq, &tags), encode_commit(seq));
        let record: Vec<&[u8]> = std::iter::once(&descriptor)
            .chain(&images)
            .chain(std::iter::once(&commit))
            .map(Vec::as_slice)
            .collect();
        dev.write_blocks(&[Extent {
            start: g.journal_start + slot,
            bufs: &record,
        }])
        .unwrap();
        slot + record.len() as u64
    }

    #[test]
    fn header_roundtrip() {
        let buf = encode_header(42);
        assert_eq!(decode_header(&buf).unwrap(), 42);
        let mut bad = buf.clone();
        bad[5] ^= 1;
        assert!(decode_header(&bad).is_err());
    }

    #[test]
    fn descriptor_roundtrip() {
        let tags = vec![
            TxnTag {
                target: 100,
                crc: 7,
            },
            TxnTag {
                target: 200,
                crc: 8,
            },
        ];
        let buf = encode_descriptor(9, &tags);
        assert_eq!(decode_descriptor(&buf).unwrap(), Some((9, tags)));
        assert_eq!(decode_descriptor(&vec![0u8; BLOCK_SIZE]).unwrap(), None);
    }

    #[test]
    fn commit_recognition() {
        let buf = encode_commit(5);
        assert!(is_commit(&buf, 5));
        assert!(!is_commit(&buf, 6));
        let mut bad = buf.clone();
        bad[8] ^= 1;
        assert!(!is_commit(&bad, 5));
    }

    #[test]
    fn replay_applies_committed_transactions_in_order() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 10).unwrap();

        let target = g.data_start + 3;
        let next = write_txn(&dev, &g, 1, 10, &[(target, 0xAA)]);
        write_txn(&dev, &g, next, 11, &[(target, 0xBB), (target + 1, 0xCC)]);

        let report = replay(&dev, &g).unwrap();
        assert_eq!(report.transactions, 2);
        assert_eq!(report.blocks, 3);
        assert_eq!(report.next_seq, 12);

        let mut r = vec![0u8; BLOCK_SIZE];
        dev.read_block(target, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0xBB), "later txn wins");
        dev.read_block(target + 1, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0xCC));
    }

    #[test]
    fn replay_stops_at_missing_commit() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 0).unwrap();

        let target = g.data_start;
        // descriptor + data, but no commit (simulated crash mid-commit)
        let tags = [TxnTag {
            target,
            crc: crc32c(&vec![1u8; BLOCK_SIZE]),
        }];
        dev.write_block(g.journal_start + 1, &encode_descriptor(0, &tags))
            .unwrap();
        dev.write_block(g.journal_start + 2, &vec![1u8; BLOCK_SIZE])
            .unwrap();

        let report = replay(&dev, &g).unwrap();
        assert_eq!(report.transactions, 0);
        let mut r = vec![0u8; BLOCK_SIZE];
        dev.read_block(target, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0), "uncommitted txn not applied");
    }

    #[test]
    fn replay_stops_at_torn_data_block() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 0).unwrap();

        let target = g.data_start;
        let tags = [TxnTag {
            target,
            crc: crc32c(&vec![1u8; BLOCK_SIZE]),
        }];
        dev.write_block(g.journal_start + 1, &encode_descriptor(0, &tags))
            .unwrap();
        dev.write_block(g.journal_start + 2, &vec![2u8; BLOCK_SIZE])
            .unwrap(); // wrong content
        dev.write_block(g.journal_start + 3, &encode_commit(0))
            .unwrap();

        let report = replay(&dev, &g).unwrap();
        assert_eq!(report.transactions, 0, "CRC mismatch discards txn");
    }

    #[test]
    fn replay_ignores_stale_sequence_numbers() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 5).unwrap();
        // a leftover transaction from an earlier epoch (seq 4)
        write_txn(&dev, &g, 1, 4, &[(g.data_start, 0x77)]);
        let report = replay(&dev, &g).unwrap();
        assert_eq!(report.transactions, 0);
    }

    #[test]
    fn replay_is_idempotent() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 0).unwrap();
        write_txn(&dev, &g, 1, 0, &[(g.data_start + 9, 0x5A)]);

        let r1 = replay(&dev, &g).unwrap();
        assert_eq!(r1.transactions, 1);
        let r2 = replay(&dev, &g).unwrap();
        assert_eq!(r2.transactions, 0, "reset emptied the log");

        let mut r = vec![0u8; BLOCK_SIZE];
        dev.read_block(g.data_start + 9, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn replay_writes_each_target_home_once_with_its_last_image() {
        use rae_blockdev::StatsDisk;
        let g = geo();
        let dev = StatsDisk::new(MemDisk::new(g.total_blocks));
        reset(&dev, &g, 0).unwrap();
        let (a, b) = (g.data_start + 3, g.data_start + 4);
        let mut slot = 1;
        for (seq, fill) in [0x11u8, 0x22, 0x33].into_iter().enumerate() {
            slot = write_txn(
                dev.inner(),
                &g,
                slot,
                seq as u64,
                &[(a, fill), (b, fill + 1)],
            );
        }
        dev.reset();

        let report = replay(&dev, &g).unwrap();
        assert_eq!(report.transactions, 3);
        assert_eq!(report.blocks, 6, "images applied, not device writes");
        // two home writes plus the journal reset's header and first slot
        assert_eq!(dev.counters().writes, 2 + 2);
        let mut r = vec![0u8; BLOCK_SIZE];
        dev.read_block(a, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0x33), "last image wins");
        dev.read_block(b, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0x34));
    }

    #[test]
    fn crash_between_home_writes_and_reset_replays_to_the_same_image() {
        use rae_blockdev::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
        let g = geo();
        let (a, b) = (g.data_start + 3, g.data_start + 4);
        let journaled = |dev: &MemDisk| {
            reset(dev, &g, 0).unwrap();
            let next = write_txn(dev, &g, 1, 0, &[(a, 0x11), (b, 0x12)]);
            write_txn(dev, &g, next, 1, &[(a, 0x21)]);
        };
        let uninterrupted = MemDisk::new(g.total_blocks);
        journaled(&uninterrupted);
        replay(&uninterrupted, &g).unwrap();

        // the reset's header write fails: every home write has landed,
        // the journal has not been touched
        let crashed = MemDisk::new(g.total_blocks);
        journaled(&crashed);
        let plan = DiskFaultPlan::new()
            .fail_writes(FaultTarget::Block(g.journal_start), TriggerMode::Always);
        let dying = FaultyDisk::with_plan(crashed, plan);
        assert!(replay(&dying, &g).is_err());
        let crashed = MemDisk::from_image(&dying.inner().snapshot());

        let again = replay(&crashed, &g).unwrap();
        assert_eq!(again.transactions, 2, "the journal survived the crash");
        assert_eq!(crashed.snapshot(), uninterrupted.snapshot());
    }

    /// Journal `count` one-image transactions from slot 1, seq 0 on.
    fn journal_run(dev: &MemDisk, g: &Geometry, count: u64) -> u64 {
        reset(dev, g, 0).unwrap();
        (0..count).fold(1, |slot, seq| {
            write_txn(dev, g, slot, seq, &[(g.data_start + seq, seq as u8 + 1)])
        })
    }

    #[test]
    fn extent_read_replay_reads_each_record_with_the_next_descriptor() {
        use rae_blockdev::StatsDisk;
        let g = geo();
        for count in [0, 1, 5] {
            let dev = StatsDisk::new(MemDisk::new(g.total_blocks));
            journal_run(dev.inner(), &g, count);
            dev.reset();
            let report = replay(&dev, &g).unwrap();
            assert_eq!(report.transactions, count);
            // the header with the first descriptor, then one request per
            // record, each ending in the block that stops or continues
            // the scan
            assert_eq!(dev.counters().read_requests, 1 + count, "{count} txn(s)");
            assert_eq!(dev.counters().reads, 2 + 3 * count, "{count} txn(s)");
        }
    }

    #[test]
    fn extent_read_replay_applies_a_record_ending_on_the_journals_last_block() {
        use rae_blockdev::StatsDisk;
        let g = geo();
        let dev = StatsDisk::new(MemDisk::new(g.total_blocks));
        reset(dev.inner(), &g, 0).unwrap();
        // slots 1..=32, then 33..=63: the second commit block is the
        // journal's last, so its record has no look-ahead block
        let fill = |from: u64, n: u64| -> Vec<(u64, u8)> {
            (from..from + n)
                .map(|i| (g.data_start + i, i as u8 + 1))
                .collect()
        };
        let next = write_txn(dev.inner(), &g, 1, 0, &fill(0, 30));
        assert_eq!(
            write_txn(dev.inner(), &g, next, 1, &fill(30, 29)),
            g.journal_blocks
        );
        dev.reset();
        let report = replay(&dev, &g).unwrap();
        assert_eq!((report.transactions, report.blocks), (2, 59));
        assert_eq!(dev.counters().read_requests, 3);
        let mut r = vec![0u8; BLOCK_SIZE];
        dev.read_block(g.data_start + 58, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 59), "the last record was applied");
    }

    #[test]
    fn extent_read_replay_stops_at_a_torn_descriptor_read_ahead() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        let torn_at = journal_run(&dev, &g, 2);
        // a descriptor for seq 2 whose checksum does not hold, then a
        // well-formed seq 3 behind it that must stay unapplied
        let mut torn = encode_descriptor(
            2,
            &[TxnTag {
                target: g.data_start + 9,
                crc: crc32c(&vec![9u8; BLOCK_SIZE]),
            }],
        );
        torn[DESC_OFF_TAGS] ^= 1;
        dev.write_block(g.journal_start + torn_at, &torn).unwrap();
        write_txn(&dev, &g, torn_at + 1, 3, &[(g.data_start + 9, 9)]);
        let report = replay(&dev, &g).unwrap();
        assert_eq!((report.transactions, report.next_seq), (2, 2));
        let mut r = vec![0u8; BLOCK_SIZE];
        dev.read_block(g.data_start + 9, &mut r).unwrap();
        assert!(
            r.iter().all(|&b| b == 0),
            "nothing past the torn descriptor"
        );
    }

    #[test]
    fn replay_rejects_committed_txn_with_illegal_target() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 0).unwrap();
        // committed transaction aimed at the journal itself
        write_txn(&dev, &g, 1, 0, &[(g.journal_start + 1, 0xEE)]);
        assert!(matches!(replay(&dev, &g), Err(FsError::Corrupted { .. })));
    }

    #[test]
    fn replay_requires_valid_header() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        // no header written at all
        assert!(replay(&dev, &g).is_err());
    }

    #[test]
    fn reset_clears_first_slot() {
        let g = geo();
        let dev = MemDisk::new(g.total_blocks);
        reset(&dev, &g, 0).unwrap();
        write_txn(&dev, &g, 1, 0, &[(g.data_start, 1)]);
        reset(&dev, &g, 1).unwrap();
        let report = replay(&dev, &g).unwrap();
        assert_eq!(report.transactions, 0, "old descriptor invalidated");
    }
}
