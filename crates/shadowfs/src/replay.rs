//! Constrained and autonomous execution of recorded operation
//! sequences, cross-checking, and the recovery delta.

use crate::shadow::{BlockKind, ShadowFs};
use rae_blockdev::BLOCK_SIZE;
use rae_fsformat::{fsck, RecoveredFd, RecoveryDelta};
use rae_vfs::{FileSystem, FsError, FsOp, FsResult, OpOutcome, OpRecord};
use serde::{Deserialize, Serialize};

/// A read-only operation the shadow can serve on behalf of an
/// application whose read was in flight when the base failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadRequest {
    /// `read(fd, offset, len)`.
    Read {
        /// Open descriptor.
        fd: rae_vfs::Fd,
        /// Byte offset.
        offset: u64,
        /// Maximum bytes.
        len: usize,
    },
    /// `stat(path)`.
    Stat {
        /// Target path.
        path: String,
    },
    /// `fstat(fd)`.
    Fstat {
        /// Open descriptor.
        fd: rae_vfs::Fd,
    },
    /// `readdir(path)`.
    Readdir {
        /// Target directory.
        path: String,
    },
    /// `readlink(path)`.
    Readlink {
        /// Target symlink.
        path: String,
    },
    /// `statfs()`.
    Statfs,
}

/// The answer to a [`ReadRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadReply {
    /// Bytes from `read`.
    Data(Vec<u8>),
    /// Metadata from `stat`/`fstat`.
    Stat(rae_vfs::FileStat),
    /// Entries from `readdir`.
    Entries(Vec<rae_vfs::DirEntry>),
    /// Target from `readlink`.
    Target(String),
    /// Geometry from `statfs`.
    Info(rae_vfs::FsGeometryInfo),
}

/// A disagreement between the shadow's execution and the recorded
/// outcome of the base (§4.3: "Disagreements between the base and
/// shadow indicate bugs in the base or missing conditions in the
/// shadow … reporting the discrepancies is necessary").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Discrepancy {
    /// Sequence number of the disagreeing record.
    pub seq: u64,
    /// What was compared.
    pub what: String,
    /// The base's recorded outcome.
    pub expected: String,
    /// What the shadow produced.
    pub got: String,
}

/// Summary of a constrained replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Records re-executed.
    pub executed: u64,
    /// Records skipped because the base had returned a specified error.
    pub skipped_errors: u64,
    /// `fsync`/`sync` records skipped (delegated back to the base).
    pub skipped_sync: u64,
    /// All cross-check disagreements.
    pub discrepancies: Vec<Discrepancy>,
}

impl ReplayReport {
    /// Whether the replay fully agreed with the recorded outcomes.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// What one [`ShadowFs::resync_against`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResyncReport {
    /// Distinct blocks considered: the overlay plus the written blocks
    /// outside it (block 0, the journal and out-of-range numbers
    /// excluded).
    pub candidates: usize,
    /// Written blocks the shadow never touched, pinned into the overlay
    /// with the snapshot's content.
    pub pinned: usize,
    /// Free data-region blocks dropped from the overlay or passed over
    /// in the written set.
    pub pruned: usize,
}

/// Read-only view of device + overlay, for running the structural
/// checker over the shadow's reconstructed state.
struct OverlayView<'a> {
    shadow: &'a ShadowFs,
}

impl rae_blockdev::BlockDevice for OverlayView<'_> {
    fn block_count(&self) -> u64 {
        self.shadow.dev.block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        if let Some((img, _)) = self.shadow.overlay.get(&bno) {
            if buf.len() != BLOCK_SIZE {
                return Err(FsError::Internal {
                    detail: "overlay read with misshapen buffer".to_string(),
                });
            }
            buf.copy_from_slice(img);
            Ok(())
        } else {
            self.shadow.dev.read_block(bno, buf)
        }
    }
    fn write_block(&self, _bno: u64, _buf: &[u8]) -> FsResult<()> {
        Err(FsError::Internal {
            detail: "the shadow never writes to the device".to_string(),
        })
    }
    fn flush(&self) -> FsResult<()> {
        Ok(())
    }
}

impl ShadowFs {
    fn note(
        report: &mut ReplayReport,
        seq: u64,
        what: &str,
        expected: impl std::fmt::Display,
        got: impl std::fmt::Display,
    ) {
        report.discrepancies.push(Discrepancy {
            seq,
            what: what.to_string(),
            expected: expected.to_string(),
            got: got.to_string(),
        });
    }

    /// Re-execute `op` against the refinement model (when enabled) and
    /// report result mismatches.
    fn refine(
        &mut self,
        seq: u64,
        op: &FsOp,
        shadow_result: &FsResult<OpOutcome>,
        report: &mut ReplayReport,
    ) {
        let Some(model) = self.model.take() else {
            return;
        };
        let model_result: FsResult<OpOutcome> = match op {
            FsOp::Create { path, flags } | FsOp::Open { path, flags } => {
                model.open(path, *flags).map(|fd| OpOutcome::Opened {
                    fd,
                    ino: rae_vfs::InodeNo(0), // model inos are not comparable
                    created: false,
                })
            }
            FsOp::RestoreFd {
                fd, flags, path, ..
            } => {
                // a stale path (renamed before the barrier) is legal;
                // disable refinement rather than mis-restore
                if model.restore_fd(*fd, path, *flags).is_err() {
                    Self::note(
                        report,
                        seq,
                        "refinement.restore_fd",
                        "restorable path",
                        format!("stale path {path}; refinement disabled"),
                    );
                    return; // model dropped
                }
                Ok(OpOutcome::Unit)
            }
            FsOp::Close { fd } => model.close(*fd).map(|()| OpOutcome::Unit),
            FsOp::Write { fd, offset, data } => model
                .write(*fd, *offset, data)
                .map(|n| OpOutcome::Written { n }),
            FsOp::Truncate { fd, size } => model.truncate(*fd, *size).map(|()| OpOutcome::Unit),
            FsOp::SetAttr { path, attr } => model.setattr(path, *attr).map(|()| OpOutcome::Unit),
            FsOp::Fsync { fd } => model.fsync(*fd).map(|()| OpOutcome::Unit),
            FsOp::Sync => model.sync().map(|()| OpOutcome::Unit),
            FsOp::Mkdir { path } => model.mkdir(path).map(|()| OpOutcome::Unit),
            FsOp::Rmdir { path } => model.rmdir(path).map(|()| OpOutcome::Unit),
            FsOp::Unlink { path } => model.unlink(path).map(|()| OpOutcome::Unit),
            FsOp::Rename { from, to } => model.rename(from, to).map(|()| OpOutcome::Unit),
            FsOp::Link { existing, new } => model.link(existing, new).map(|()| OpOutcome::Unit),
            FsOp::Symlink { target, linkpath } => {
                model.symlink(target, linkpath).map(|()| OpOutcome::Unit)
            }
        };
        self.checks += 1;
        match (shadow_result, &model_result) {
            (Ok(s), Ok(m)) => {
                let agree = match (s, m) {
                    (OpOutcome::Opened { fd: sf, .. }, OpOutcome::Opened { fd: mf, .. }) => {
                        sf == mf
                    }
                    (OpOutcome::Written { n: sn }, OpOutcome::Written { n: mn }) => sn == mn,
                    _ => true,
                };
                if !agree {
                    Self::note(
                        report,
                        seq,
                        "refinement.outcome",
                        format!("{m:?}"),
                        format!("{s:?}"),
                    );
                }
            }
            (Err(se), Err(me)) => {
                if se != me && se.is_specified() && me.is_specified() {
                    Self::note(report, seq, "refinement.error", me, se);
                }
            }
            (Ok(_), Err(me)) => Self::note(report, seq, "refinement.divergence", me, "success"),
            (Err(se), Ok(_)) => Self::note(report, seq, "refinement.divergence", "success", se),
        }
        self.model = Some(model);
    }

    /// Execute one operation. `wanted` injects the base's recorded
    /// allocation decisions in constrained mode.
    fn execute(&mut self, op: &FsOp, wanted_ino: Option<rae_vfs::InodeNo>) -> FsResult<OpOutcome> {
        match op {
            FsOp::Create { path, flags } | FsOp::Open { path, flags } => self
                .op_open(path, *flags, wanted_ino)
                .map(|(fd, ino, created)| OpOutcome::Opened { fd, ino, created }),
            FsOp::RestoreFd {
                fd,
                ino,
                flags,
                path,
            } => self
                .op_restore_fd(*fd, *ino, *flags, path)
                .map(|()| OpOutcome::Opened {
                    fd: *fd,
                    ino: *ino,
                    created: false,
                }),
            FsOp::Close { fd } => self.op_close(*fd).map(|()| OpOutcome::Unit),
            FsOp::Write { fd, offset, data } => self
                .op_write(*fd, *offset, data)
                .map(|n| OpOutcome::Written { n }),
            FsOp::Truncate { fd, size } => self.op_truncate(*fd, *size).map(|()| OpOutcome::Unit),
            FsOp::SetAttr { path, attr } => self.op_setattr(path, *attr).map(|()| OpOutcome::Unit),
            FsOp::Fsync { .. } | FsOp::Sync => Ok(OpOutcome::Unit), // never executed here
            FsOp::Mkdir { path } => self.op_mkdir(path, wanted_ino).map(|_| OpOutcome::Unit),
            FsOp::Rmdir { path } => self.op_rmdir(path).map(|()| OpOutcome::Unit),
            FsOp::Unlink { path } => self.op_unlink(path).map(|()| OpOutcome::Unit),
            FsOp::Rename { from, to } => self.op_rename(from, to).map(|()| OpOutcome::Unit),
            FsOp::Link { existing, new } => self.op_link(existing, new).map(|()| OpOutcome::Unit),
            FsOp::Symlink { target, linkpath } => self
                .op_symlink(target, linkpath, wanted_ino)
                .map(|_| OpOutcome::Unit),
        }
    }

    /// Apply one completed record to the shadow — the single step of
    /// constrained mode, shared by cold replay ([`replay_constrained`])
    /// and the warm standby's continuous background apply. Pending
    /// records are noted as discrepancies, `Failed`/sync-family records
    /// are counted and skipped, and every executed record is
    /// cross-checked against the base's recorded outcome.
    ///
    /// # Errors
    ///
    /// Only the shadow's own runtime errors (fatal for the caller's
    /// replay or standby).
    ///
    /// [`replay_constrained`]: ShadowFs::replay_constrained
    pub fn apply_record(&mut self, rec: &OpRecord, report: &mut ReplayReport) -> FsResult<()> {
        match &rec.outcome {
            OpOutcome::Pending => {
                // in-flight records belong to autonomous mode
                Self::note(
                    report,
                    rec.seq,
                    "record.pending",
                    "completed record",
                    "pending record",
                );
                return Ok(());
            }
            OpOutcome::Failed(_) => {
                report.skipped_errors += 1;
                return Ok(());
            }
            _ => {}
        }
        if rec.op.is_sync_family() {
            report.skipped_sync += 1;
            return Ok(());
        }
        // constrained mode validates the base's inode allocation
        let wanted_ino = match (&rec.op, &rec.outcome) {
            (
                FsOp::Create { .. } | FsOp::Open { .. },
                OpOutcome::Opened {
                    ino, created: true, ..
                },
            ) => Some(*ino),
            (FsOp::Mkdir { .. } | FsOp::Symlink { .. }, _) => None, // base did not record the ino
            _ => None,
        };

        let result = self.execute(&rec.op, wanted_ino);
        self.refine(rec.seq, &rec.op, &result, report);
        match result {
            Ok(outcome) => {
                report.executed += 1;
                self.checks += 1;
                match (&rec.outcome, &outcome) {
                    (
                        OpOutcome::Opened {
                            fd: ef,
                            ino: ei,
                            created: ec,
                        },
                        OpOutcome::Opened {
                            fd: gf,
                            ino: gi,
                            created: gc,
                        },
                    ) => {
                        if ef != gf {
                            Self::note(report, rec.seq, "outcome.fd", ef, gf);
                        }
                        if ei != gi {
                            Self::note(report, rec.seq, "outcome.ino", ei, gi);
                        }
                        if ec != gc {
                            Self::note(report, rec.seq, "outcome.created", ec, gc);
                        }
                    }
                    (OpOutcome::Written { n: en }, OpOutcome::Written { n: gn }) => {
                        if en != gn {
                            Self::note(report, rec.seq, "outcome.written", en, gn);
                        }
                    }
                    (OpOutcome::Unit, OpOutcome::Unit) => {}
                    (expected, got) => {
                        Self::note(
                            report,
                            rec.seq,
                            "outcome.shape",
                            format!("{expected:?}"),
                            format!("{got:?}"),
                        );
                    }
                }
                Ok(())
            }
            Err(e) if e.is_specified() => {
                // the base succeeded; the shadow refused — a real
                // disagreement (bug in the base or missing shadow
                // condition)
                Self::note(
                    report,
                    rec.seq,
                    "outcome.success",
                    format!("{:?}", rec.outcome),
                    e,
                );
                Ok(())
            }
            Err(e) => Err(e), // shadow runtime error: fatal
        }
    }

    /// Constrained mode (§3.2): re-execute completed records,
    /// cross-checking each against the base's recorded outcome and
    /// validating the base's allocation decisions.
    ///
    /// Discrepancies are reported, never fatal — whether to continue on
    /// a dirty report is the RAE runtime's policy decision. Runtime
    /// errors *inside the shadow* (failed checks, corruption) are
    /// fatal: recovery cannot proceed on an untrustworthy substrate.
    ///
    /// # Errors
    ///
    /// Only the shadow's own runtime errors.
    pub fn replay_constrained(&mut self, records: &[OpRecord]) -> FsResult<ReplayReport> {
        let mut report = ReplayReport::default();
        for rec in records {
            self.apply_record(rec, &mut report)?;
        }
        if self.opts.paranoid_checks {
            self.verify_consistency()?;
        }
        Ok(report)
    }

    /// Make the overlay the whole difference between this shadow's
    /// merged view and the live image the base wrote since the
    /// snapshot, so that the eventual delta ([`ShadowFs::into_delta`])
    /// replaces the live image with the shadow's self-consistent one.
    /// `written_since_base` must hold **every** block the base wrote to
    /// the live device since this shadow's snapshot was taken or last
    /// resynced (see `TrackedDisk` in `rae-blockdev`).
    ///
    /// A warm-standby shadow executes against a private frozen
    /// snapshot, so by recovery time its image and the live device
    /// belong to different block lineages: the live image may hold the
    /// base's own placement of operations the shadow placed elsewhere,
    /// and absorbing only the shadow's written blocks would splice two
    /// layouts into one image. The merged view (snapshot + overlay)
    /// *is* the image the base must adopt, so nothing has to be read
    /// from the live device to decide. For every block in overlay ∪
    /// `written_since_base`:
    ///
    /// * a data-region block that is free in the shadow's bitmap is
    ///   dropped from the overlay and left out of the delta — both
    ///   filesystems zero-fill a block when they allocate it and
    ///   neither reads a free one, so whatever the live device holds
    ///   there is dead;
    /// * any other overlay block stays as it is;
    /// * any other written block the shadow never touched is pinned
    ///   into the overlay with the snapshot's content, reverting the
    ///   base's divergent write on absorb.
    ///
    /// A block in neither set is byte-identical in the snapshot and on
    /// the live device, or free in the shadow's bitmap: the snapshot
    /// was a copy of the device, every later device write is in the
    /// tracked set, and a block dropped here re-enters the overlay
    /// (zero-filled) before the shadow can use it again.
    ///
    /// Block 0 (the base rebuilds its superblock from the bitmaps) and
    /// the journal region (the rebooted base's journal is already
    /// consistent with its manager state) are left untouched. Only
    /// sound when the live device is quiesced and this shadow has
    /// applied every completed operation — i.e. at recovery handover,
    /// after the contained reboot.
    ///
    /// # Errors
    ///
    /// Snapshot read errors.
    pub fn resync_against(&mut self, written_since_base: &[u64]) -> FsResult<ResyncReport> {
        let geo = self.geo;
        let dbm = &self.dbm;
        let dead = |bno: u64| geo.is_data_block(bno) && dbm.test(bno - geo.data_start) == Ok(false);
        let journal = geo.journal_start..geo.journal_start + geo.journal_blocks;
        let mut report = ResyncReport {
            candidates: self.overlay.len(),
            ..ResyncReport::default()
        };
        let mut pins = Vec::new();
        for &bno in written_since_base {
            if bno == 0
                || journal.contains(&bno)
                || bno >= geo.total_blocks
                || self.overlay.contains_key(&bno)
            {
                continue;
            }
            report.candidates += 1;
            if dead(bno) {
                report.pruned += 1;
            } else {
                pins.push(bno);
            }
        }
        let before = self.overlay.len();
        self.overlay.retain(|&bno, _| !dead(bno));
        report.pruned += before - self.overlay.len();
        report.pinned = pins.len();
        for bno in pins {
            let mut img = vec![0u8; BLOCK_SIZE];
            self.dev.read_block(bno, &mut img)?;
            // the shadow never touched this block, so only its address
            // says how the base should cache the revert
            let kind = if bno >= geo.data_start {
                BlockKind::Data
            } else {
                BlockKind::Meta
            };
            self.overlay.insert(bno, (img.into(), kind));
        }
        Ok(report)
    }

    /// Autonomous mode (§3.2): execute an in-flight operation, making
    /// policy decisions (inode numbers, block placement) independently.
    /// `sync`-family operations are not executed (the shadow never
    /// writes); the RAE runtime re-issues them on the rebooted base.
    ///
    /// Specified errors become part of the outcome (they are what the
    /// application will see); shadow runtime errors are fatal.
    ///
    /// # Errors
    ///
    /// Only the shadow's own runtime errors.
    pub fn execute_autonomous(&mut self, op: &FsOp) -> FsResult<OpOutcome> {
        match self.execute(op, None) {
            Ok(outcome) => Ok(outcome),
            Err(e) if e.is_specified() => Ok(OpOutcome::Failed(e)),
            Err(e) => Err(e),
        }
    }

    /// Refresh the superblock image in the overlay so its free counters
    /// match the reconstructed bitmaps. This never touches the device —
    /// it is part of the metadata the shadow produces for the base.
    fn sync_superblock_overlay(&mut self) -> FsResult<()> {
        let mut raw = vec![0u8; BLOCK_SIZE];
        // read the current (device) superblock, not the overlay: the
        // shadow never modified it through write_block
        self.dev.read_block(0, &mut raw)?;
        let mut sb = rae_fsformat::Superblock::decode(&raw)?;
        sb.free_inodes = self.free_inodes;
        sb.free_blocks = self.free_blocks;
        self.overlay
            .insert(0, (sb.encode().into(), BlockKind::Meta));
        Ok(())
    }

    /// Run the full structural checker over the reconstructed state
    /// (device + overlay) — the shadow's post-execution self-check.
    ///
    /// # Errors
    ///
    /// [`FsError::CheckFailed`] when the reconstructed image is not
    /// fully consistent.
    pub fn verify_consistency(&mut self) -> FsResult<()> {
        self.checks += 1;
        self.sync_superblock_overlay()?;
        let report = fsck(&OverlayView { shadow: self })?;
        if report.is_clean() {
            Ok(())
        } else {
            Err(FsError::CheckFailed {
                check: "post-recovery-fsck".to_string(),
                detail: format!(
                    "{} error(s), first: {}",
                    report.errors.len(),
                    report.errors[0]
                ),
            })
        }
    }

    /// Serve a read-only operation from the reconstructed state.
    /// Autonomous-mode support for in-flight *reads*: the application's
    /// pending `read`/`stat`/`readdir`/… completes through the shadow
    /// exactly like a pending mutation does.
    ///
    /// # Errors
    ///
    /// Specified errors (the application's answer) or shadow runtime
    /// errors (fatal for the recovery).
    pub fn serve_read(&mut self, op: &ReadRequest) -> FsResult<ReadReply> {
        match op {
            ReadRequest::Read { fd, offset, len } => {
                self.op_read(*fd, *offset, *len).map(ReadReply::Data)
            }
            ReadRequest::Stat { path } => self.op_stat(path).map(ReadReply::Stat),
            ReadRequest::Fstat { fd } => self.op_fstat(*fd).map(ReadReply::Stat),
            ReadRequest::Readdir { path } => self.op_readdir(path).map(ReadReply::Entries),
            ReadRequest::Readlink { path } => self.op_readlink(path).map(ReadReply::Target),
            ReadRequest::Statfs => self.op_statfs().map(ReadReply::Info),
        }
    }

    /// Consume the shadow, producing the hand-off payload for the base.
    #[must_use]
    pub fn into_delta(mut self) -> RecoveryDelta {
        // best effort: ship a counter-consistent superblock image (the
        // base rebuilds its own from the bitmaps and skips block 0)
        let _ = self.sync_superblock_overlay();
        let mut meta = Vec::new();
        let mut data = Vec::new();
        for (bno, (img, kind)) in self.overlay {
            match kind {
                BlockKind::Meta => meta.push((bno, img)),
                BlockKind::Data => data.push((bno, img)),
            }
        }
        meta.sort_by_key(|(b, _)| *b);
        data.sort_by_key(|(b, _)| *b);
        RecoveryDelta {
            meta_blocks: meta,
            data_blocks: data,
            fd_entries: self
                .fds
                .into_iter()
                .map(|(fd, e)| RecoveredFd {
                    fd,
                    ino: e.ino,
                    flags: e.flags,
                    path: e.path,
                })
                .collect(),
        }
    }
}
