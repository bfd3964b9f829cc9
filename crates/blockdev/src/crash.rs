//! Crash-state exploration over a [`crate::TapeDisk`]'s tape.
//!
//! Only a flush orders writes (see [`BlockDevice::write_blocks`]), so a
//! crash can leave any *subset* of the writes issued since the last
//! completed flush on the device, on top of everything flushed before.
//! The tape splits into *flush epochs* — the writes between two flushes
//! — and a crash state is a prefix of whole epochs plus a subset of the
//! next one. [`crash_states`] enumerates them: every subset of an epoch
//! of up to [`EXHAUSTIVE_WRITES`] writes; above that, every prefix,
//! every suffix, every single-write omission and [`SAMPLED_SUBSETS`]
//! seeded subsets. [`CrashImage`] materialises one state as a mountable
//! copy-on-write device, so a candidate costs what it writes and not a
//! copy of the disk.

use crate::device::{check_buf, check_range, BlockDevice};
use crate::mem::MemDisk;
use crate::tape::TapeEntry;
use parking_lot::RwLock;
use rae_vfs::FsResult;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Epochs of at most this many writes are explored exhaustively
/// (`2^12` = 4096 subsets).
pub const EXHAUSTIVE_WRITES: usize = 12;

/// Seeded random subsets explored per epoch above [`EXHAUSTIVE_WRITES`].
pub const SAMPLED_SUBSETS: usize = 1024;

/// The writes between two flushes, in tape order: block and image.
pub type Epoch = Vec<(u64, Arc<[u8]>)>;

/// Split tape entries into flush epochs (reads dropped). The last epoch
/// holds the writes after the last flush, and is empty if there are
/// none.
#[must_use]
pub fn epochs(tape: &[TapeEntry]) -> Vec<Epoch> {
    let mut out = vec![Epoch::new()];
    for e in tape {
        match e {
            TapeEntry::Read(_) => {}
            TapeEntry::Write(bno, img) => out
                .last_mut()
                .expect("never empty")
                .push((*bno, Arc::clone(img))),
            TapeEntry::Flush => out.push(Epoch::new()),
        }
    }
    out
}

/// The subsets of an epoch of `n` writes that [`crash_states`] visits,
/// each as ascending write indices, with no subset twice: all `2^n` of
/// them for `n <=` [`EXHAUSTIVE_WRITES`]; otherwise every
/// prefix, every suffix, every single-write omission and
/// [`SAMPLED_SUBSETS`] subsets drawn from `seed`, each write kept with
/// probability ½.
#[must_use]
pub fn epoch_subsets(n: usize, seed: u64) -> Vec<Vec<usize>> {
    if n <= EXHAUSTIVE_WRITES {
        return (0..1usize << n)
            .map(|mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
    }
    let mut out: BTreeSet<Vec<usize>> = BTreeSet::new();
    for cut in 0..=n {
        out.insert((0..cut).collect());
        out.insert((cut..n).collect());
    }
    for skip in 0..n {
        out.insert((0..n).filter(|&i| i != skip).collect());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..SAMPLED_SUBSETS {
        out.insert((0..n).filter(|_| rng.gen_bool(0.5)).collect());
    }
    out.into_iter().collect()
}

/// One crash state: every write of the epochs before `epoch` landed,
/// and of epoch `epoch` exactly the writes `kept` (indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashState {
    /// The epoch the crash cut.
    pub epoch: usize,
    /// The writes of that epoch that landed, ascending.
    pub kept: Vec<usize>,
}

/// Every crash state of `epochs`, epoch by epoch ([`epoch_subsets`],
/// epoch `k` drawn from `seed + k`). A whole epoch is the next one's
/// empty subset, so it is listed only for the last.
#[must_use]
pub fn crash_states(epochs: &[Epoch], seed: u64) -> Vec<CrashState> {
    let mut out = Vec::new();
    for (k, epoch) in epochs.iter().enumerate() {
        let last = k + 1 == epochs.len();
        out.extend(
            epoch_subsets(epoch.len(), seed.wrapping_add(k as u64))
                .into_iter()
                .filter(|kept| last || kept.len() < epoch.len())
                .map(|kept| CrashState { epoch: k, kept }),
        );
    }
    out
}

/// A device holding one crash state: a shared base image with the
/// state's writes on top. Reads see the overlay first; writes (a mount
/// replaying its journal, say) go to the overlay and never to the base.
#[derive(Debug)]
pub struct CrashImage {
    base: Arc<MemDisk>,
    over: RwLock<HashMap<u64, Box<[u8]>>>,
}

impl CrashImage {
    /// `base` — the device before the tape — with `state`'s writes of
    /// `epochs` applied in tape order.
    #[must_use]
    pub fn new(base: Arc<MemDisk>, epochs: &[Epoch], state: &CrashState) -> CrashImage {
        let landed = epochs[..state.epoch]
            .iter()
            .flatten()
            .chain(state.kept.iter().map(|&i| &epochs[state.epoch][i]));
        let over = landed
            .map(|(bno, img)| (*bno, Box::from(&img[..])))
            .collect();
        CrashImage {
            base,
            over: RwLock::new(over),
        }
    }
}

impl BlockDevice for CrashImage {
    fn block_count(&self) -> u64 {
        self.base.block_count()
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        match self.over.read().get(&bno) {
            Some(img) => {
                check_buf(buf.len())?;
                buf.copy_from_slice(img);
                Ok(())
            }
            None => self.base.read_block(bno, buf),
        }
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count())?;
        self.over.write().insert(bno, Box::from(buf));
        Ok(())
    }

    fn flush(&self) -> FsResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::tape::TapeDisk;

    #[test]
    fn crash_epoch_small_epochs_are_exhaustive() {
        for n in [0, 1, 5, EXHAUSTIVE_WRITES] {
            let subsets = epoch_subsets(n, 1);
            assert_eq!(subsets.len(), 1 << n);
            let distinct: BTreeSet<_> = subsets.iter().collect();
            assert_eq!(distinct.len(), subsets.len());
        }
    }

    #[test]
    fn crash_epoch_large_epochs_keep_every_cut_and_omission() {
        let n = 20;
        let subsets = epoch_subsets(n, 7);
        let has = |s: Vec<usize>| subsets.contains(&s);
        for cut in 0..=n {
            assert!(has((0..cut).collect()), "prefix {cut}");
            assert!(has((cut..n).collect()), "suffix {cut}");
        }
        for skip in 0..n {
            assert!(has((0..n).filter(|&i| i != skip).collect()), "omit {skip}");
        }
        // plus about SAMPLED_SUBSETS drawn ones (of 2^20, few collide),
        // the same for the same seed
        assert!(subsets.len() > SAMPLED_SUBSETS + 2 * n, "{}", subsets.len());
        assert_eq!(subsets, epoch_subsets(n, 7));
        assert_ne!(subsets, epoch_subsets(n, 8));
    }

    #[test]
    fn crash_epoch_images_apply_earlier_epochs_and_the_kept_writes() {
        let block = |fill: u8| vec![fill; BLOCK_SIZE];
        let tape = TapeDisk::new(8);
        tape.write_block(1, &block(1)).unwrap();
        tape.write_block(2, &block(2)).unwrap();
        tape.flush().unwrap();
        tape.write_block(1, &block(3)).unwrap();
        tape.write_block(4, &block(4)).unwrap();
        let epochs = epochs(&tape.since(0));
        assert_eq!(epochs.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2]);

        // epoch 0: 3 proper subsets; epoch 1 (the last): all 4
        let states = crash_states(&epochs, 0);
        assert_eq!(states.len(), 3 + 4);

        let base = Arc::new(MemDisk::new(8));
        let state = CrashState {
            epoch: 1,
            kept: vec![1],
        };
        let img = CrashImage::new(Arc::clone(&base), &epochs, &state);
        let read = |dev: &dyn BlockDevice, bno| {
            let mut buf = block(0xFF);
            dev.read_block(bno, &mut buf).unwrap();
            buf[0]
        };
        assert_eq!([1, 2, 4].map(|b| read(&img, b)), [1, 2, 4]);
        // a mount's writes stay in the candidate
        img.write_block(5, &block(5)).unwrap();
        assert_eq!((read(&img, 5), read(base.as_ref(), 5)), (5, 0));
        assert!(img.write_block(8, &block(5)).is_err());
    }
}
