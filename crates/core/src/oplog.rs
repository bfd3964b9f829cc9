//! The RAE operation log.
//!
//! The log records every mutating operation between the application's
//! view and the on-disk state — "an execution trace that records the
//! order that operations were handled" (§3.2). Records are discarded at
//! persistence barriers, with one twist: an `open` whose descriptor is
//! still live (or whose `close` is not itself durable yet) must survive
//! the barrier — the descriptor table is application-visible state — so
//! it is rewritten into a synthetic [`FsOp::RestoreFd`] record that
//! restores the descriptor *by inode* rather than replaying the open by
//! path: the path may have been renamed between the open and the
//! barrier.

use rae_vfs::{Fd, FsOp, OpOutcome, OpRecord};
use std::collections::HashMap;
use std::collections::VecDeque;

/// The operation log. Not thread-safe by itself; the RAE runtime
/// serializes mutating operations around it.
#[derive(Debug, Default)]
pub struct OpLog {
    records: VecDeque<OpRecord>,
    next_seq: u64,
    /// fd -> seq of the record that currently establishes it.
    live_opens: HashMap<Fd, u64>,
    /// open seq -> close seq, for opens whose close is not durable yet.
    closed_pairs: HashMap<u64, u64>,
    trimmed_total: u64,
    /// Highest barrier a full trim pass has processed.
    last_barrier: u64,
}

impl OpLog {
    /// An empty log starting at sequence 1.
    #[must_use]
    pub fn new() -> OpLog {
        OpLog {
            next_seq: 1,
            ..OpLog::default()
        }
    }

    /// Index of record `seq`, if retained. Records stay strictly
    /// seq-ascending across appends and trims (trim drains in order and
    /// rewrites in place), so lookups binary-search instead of scanning
    /// the whole retained log.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let idx = self.records.partition_point(|r| r.seq < seq);
        (idx < self.records.len() && self.records[idx].seq == seq).then_some(idx)
    }

    /// Borrow the full record for `seq` (outcome included) — the
    /// standby publish path clones from here after completion.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in the log.
    #[must_use]
    pub fn record_of(&self, seq: u64) -> &OpRecord {
        let idx = self.index_of(seq).expect("record_of on unknown record");
        &self.records[idx]
    }

    /// Append a pending record; returns its sequence number.
    pub fn append(&mut self, op: FsOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push_back(OpRecord::new(seq, op));
        seq
    }

    /// Append an already-completed record in one step — the sequence
    /// assignment point for concurrent mutations, which sequence *after*
    /// the base applied them (the outcome is known by then) rather than
    /// before dispatch. Returns the sequence number.
    pub fn append_completed(&mut self, op: FsOp, outcome: OpOutcome) -> u64 {
        let seq = self.append(op);
        self.complete(seq, outcome);
        seq
    }

    fn track_outcome(&mut self, seq: u64, closed_fd: Option<Fd>, outcome: &OpOutcome) {
        match outcome {
            OpOutcome::Opened { fd, .. } => {
                self.live_opens.insert(*fd, seq);
            }
            OpOutcome::Unit => {
                if let Some(fd) = closed_fd {
                    if let Some(open_seq) = self.live_opens.remove(&fd) {
                        self.closed_pairs.insert(open_seq, seq);
                    }
                }
            }
            _ => {}
        }
    }

    fn closed_fd(op: &FsOp) -> Option<Fd> {
        match op {
            FsOp::Close { fd } => Some(*fd),
            _ => None,
        }
    }

    /// Complete the record for `seq` and update descriptor liveness.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is unknown or already completed (runtime
    /// invariant: exactly one in-flight record at a time).
    pub fn complete(&mut self, seq: u64, outcome: OpOutcome) {
        let idx = self.index_of(seq).expect("completing an unknown record");
        let rec = &mut self.records[idx];
        let closed_fd = Self::closed_fd(&rec.op);
        rec.complete(outcome.clone());
        self.track_outcome(seq, closed_fd, &outcome);
    }

    /// Complete a previously pending record through the recovery path
    /// (same bookkeeping as [`OpLog::complete`], but tolerant of the
    /// record having been dropped).
    pub fn resolve_pending(&mut self, seq: u64, outcome: OpOutcome) {
        let Some(idx) = self.index_of(seq) else {
            return;
        };
        let rec = &mut self.records[idx];
        if !rec.outcome.is_pending() {
            return;
        }
        let closed_fd = Self::closed_fd(&rec.op);
        rec.complete(outcome.clone());
        self.track_outcome(seq, closed_fd, &outcome);
    }

    /// Discard every record made durable by the barrier. Opens whose
    /// descriptor is live — or whose close is not itself durable — are
    /// rewritten into `RestoreFd` records (see module docs).
    pub fn trim(&mut self, persisted_seq: u64) {
        // Fast path — trim runs after *every* mutating operation, so it
        // must be ~O(1) between barriers. A full pass is needed only
        // when the barrier advanced (retained RestoreFd records may
        // become droppable) or a durable non-RestoreFd record exists.
        // Records at the head with seq <= barrier are exactly the
        // retained RestoreFds (bounded by the number of open files).
        let new_barrier = persisted_seq > self.last_barrier;
        let has_trimmable = self
            .records
            .iter()
            .take_while(|r| r.seq <= persisted_seq)
            .any(|r| !matches!(r.op, FsOp::RestoreFd { .. }));
        if !new_barrier && !has_trimmable {
            return;
        }
        self.last_barrier = self.last_barrier.max(persisted_seq);
        let mut kept = VecDeque::with_capacity(self.records.len());
        for rec in self.records.drain(..) {
            if rec.seq > persisted_seq || rec.outcome.is_pending() {
                kept.push_back(rec);
                continue;
            }
            let retained: Option<OpRecord> = match (&rec.op, &rec.outcome) {
                (
                    FsOp::Create { path, flags } | FsOp::Open { path, flags },
                    OpOutcome::Opened { fd, ino, .. },
                ) => {
                    let keep = Self::fd_record_must_survive(
                        &self.live_opens,
                        &mut self.closed_pairs,
                        *fd,
                        rec.seq,
                        persisted_seq,
                    );
                    keep.then(|| OpRecord {
                        seq: rec.seq,
                        op: FsOp::RestoreFd {
                            fd: *fd,
                            ino: *ino,
                            flags: flags.without_creation(),
                            path: path.clone(),
                        },
                        outcome: OpOutcome::Opened {
                            fd: *fd,
                            ino: *ino,
                            created: false,
                        },
                    })
                }
                (FsOp::RestoreFd { fd, .. }, _) => Self::fd_record_must_survive(
                    &self.live_opens,
                    &mut self.closed_pairs,
                    *fd,
                    rec.seq,
                    persisted_seq,
                )
                .then_some(rec),
                _ => None,
            };
            match retained {
                Some(r) => kept.push_back(r),
                None => self.trimmed_total += 1,
            }
        }
        self.records = kept;
    }

    /// Whether the open-type record `(fd, seq)` must survive a barrier
    /// at `persisted_seq`.
    fn fd_record_must_survive(
        live: &HashMap<Fd, u64>,
        closed: &mut HashMap<u64, u64>,
        fd: Fd,
        seq: u64,
        persisted_seq: u64,
    ) -> bool {
        if live.get(&fd) == Some(&seq) {
            return true; // descriptor still open
        }
        match closed.get(&seq) {
            Some(&close_seq) if close_seq <= persisted_seq => {
                closed.remove(&seq);
                false // open and close both durable
            }
            Some(_) => true, // close still replayable: fd must exist
            None => false,   // superseded record (e.g. failed open)
        }
    }

    /// The completed records, in order, plus the pending record if one
    /// exists (the in-flight operation).
    #[must_use]
    pub fn for_recovery(&self) -> (Vec<OpRecord>, Option<OpRecord>) {
        let mut completed = Vec::with_capacity(self.records.len());
        let mut pending = None;
        for rec in &self.records {
            if rec.outcome.is_pending() {
                debug_assert!(pending.is_none(), "two in-flight records");
                pending = Some(rec.clone());
            } else {
                completed.push(rec.clone());
            }
        }
        (completed, pending)
    }

    /// Remove a just-appended successful barrier record. Its own commit
    /// made everything at or below it durable, so the record counts as
    /// discarded-at-a-barrier in [`OpLog::trimmed_total`], exactly as
    /// if it had been appended before the commit and trimmed after.
    pub fn drop_barrier(&mut self, seq: u64) {
        let before = self.records.len();
        self.records.retain(|r| r.seq != seq);
        self.trimmed_total += (before - self.records.len()) as u64;
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records discarded at barriers so far.
    #[must_use]
    pub fn trimmed_total(&self) -> u64 {
        self.trimmed_total
    }

    /// Forget everything (crash-remount baseline).
    pub fn clear(&mut self) {
        self.records.clear();
        self.live_opens.clear();
        self.closed_pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_vfs::{FsError, InodeNo, OpenFlags};

    fn rw_create() -> OpenFlags {
        OpenFlags::RDWR | OpenFlags::CREATE
    }

    fn opened(fd: u32, ino: u32, created: bool) -> OpOutcome {
        OpOutcome::Opened {
            fd: Fd(fd),
            ino: InodeNo(ino),
            created,
        }
    }

    #[test]
    fn append_complete_roundtrip() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Mkdir { path: "/d".into() });
        assert_eq!(s1, 1);
        log.complete(s1, OpOutcome::Unit);
        let (completed, pending) = log.for_recovery();
        assert_eq!(completed.len(), 1);
        assert!(pending.is_none());
    }

    #[test]
    fn pending_record_reported_separately() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Mkdir { path: "/a".into() });
        log.complete(s1, OpOutcome::Unit);
        let s2 = log.append(FsOp::Mkdir { path: "/b".into() });
        let (completed, pending) = log.for_recovery();
        assert_eq!(completed.len(), 1);
        assert_eq!(pending.unwrap().seq, s2);
    }

    #[test]
    fn trim_drops_durable_records() {
        let mut log = OpLog::new();
        for i in 0..5 {
            let s = log.append(FsOp::Mkdir {
                path: format!("/d{i}"),
            });
            log.complete(s, OpOutcome::Unit);
        }
        log.trim(3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.trimmed_total(), 3);
        let (completed, _) = log.for_recovery();
        assert_eq!(completed[0].seq, 4);
    }

    #[test]
    fn live_open_becomes_restorefd_at_barrier() {
        let mut log = OpLog::new();
        let s = log.append(FsOp::Create {
            path: "/f".into(),
            flags: rw_create() | OpenFlags::TRUNC,
        });
        log.complete(s, opened(3, 7, true));
        log.trim(s);
        assert_eq!(log.len(), 1, "open retained past the barrier");
        let (completed, _) = log.for_recovery();
        match &completed[0].op {
            FsOp::RestoreFd {
                fd,
                ino,
                flags,
                path,
            } => {
                assert_eq!(*fd, Fd(3));
                assert_eq!(*ino, InodeNo(7));
                assert_eq!(path, "/f");
                assert!(!flags.creates(), "creation flags stripped");
                assert!(!flags.contains(OpenFlags::TRUNC));
                assert!(flags.writable(), "access mode survives");
            }
            other => panic!("expected RestoreFd, got {other:?}"),
        }
        assert!(matches!(
            completed[0].outcome,
            OpOutcome::Opened { created: false, .. }
        ));
    }

    #[test]
    fn closed_fd_open_is_dropped_at_barrier() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Create {
            path: "/f".into(),
            flags: rw_create(),
        });
        log.complete(s1, opened(3, 7, true));
        let s2 = log.append(FsOp::Close { fd: Fd(3) });
        log.complete(s2, OpOutcome::Unit);
        log.trim(s2);
        assert!(log.is_empty(), "open+close both durable: nothing retained");
    }

    #[test]
    fn open_survives_until_its_close_is_durable() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Create {
            path: "/f".into(),
            flags: rw_create(),
        });
        log.complete(s1, opened(3, 7, true));
        let s2 = log.append(FsOp::Close { fd: Fd(3) });
        log.complete(s2, OpOutcome::Unit);

        // barrier covers the open but not the close: replaying the
        // close requires the descriptor, so the open must be retained
        log.trim(s1);
        let (completed, _) = log.for_recovery();
        assert_eq!(completed.len(), 2);
        assert!(matches!(completed[0].op, FsOp::RestoreFd { .. }));
        assert!(matches!(completed[1].op, FsOp::Close { .. }));

        log.trim(s2);
        assert!(log.is_empty());
    }

    #[test]
    fn restorefd_rule_applies_transitively() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Create {
            path: "/f".into(),
            flags: rw_create(),
        });
        log.complete(s1, opened(3, 7, true));
        log.trim(s1); // -> RestoreFd
                      // two more barriers while the fd stays open
        log.trim(s1);
        log.trim(s1);
        assert_eq!(log.len(), 1);
        let s2 = log.append(FsOp::Close { fd: Fd(3) });
        log.complete(s2, OpOutcome::Unit);
        log.trim(s1); // close not durable: RestoreFd + Close retained
        assert_eq!(log.len(), 2);
        log.trim(s2);
        assert!(log.is_empty());
    }

    #[test]
    fn fd_reuse_keeps_only_latest_open() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Create {
            path: "/a".into(),
            flags: rw_create(),
        });
        log.complete(s1, opened(3, 7, true));
        let s2 = log.append(FsOp::Close { fd: Fd(3) });
        log.complete(s2, OpOutcome::Unit);
        let s3 = log.append(FsOp::Create {
            path: "/b".into(),
            flags: rw_create(),
        });
        log.complete(s3, opened(3, 8, true)); // fd 3 reused
        log.trim(s3);
        let (completed, _) = log.for_recovery();
        assert_eq!(completed.len(), 1);
        match &completed[0].op {
            FsOp::RestoreFd { ino, .. } => assert_eq!(*ino, InodeNo(8)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fd_reuse_with_partial_barrier_retains_old_pair() {
        let mut log = OpLog::new();
        let s1 = log.append(FsOp::Create {
            path: "/a".into(),
            flags: rw_create(),
        });
        log.complete(s1, opened(3, 7, true));
        let s2 = log.append(FsOp::Close { fd: Fd(3) });
        log.complete(s2, OpOutcome::Unit);
        let s3 = log.append(FsOp::Create {
            path: "/b".into(),
            flags: rw_create(),
        });
        log.complete(s3, opened(3, 8, true));

        // barrier covers only the first open: its close at s2 is not
        // durable, so the old open is retained for the close replay
        log.trim(s1);
        let (completed, _) = log.for_recovery();
        assert_eq!(completed.len(), 3);
        assert!(matches!(&completed[0].op, FsOp::RestoreFd { ino, .. } if *ino == InodeNo(7)));
        assert!(matches!(completed[1].op, FsOp::Close { .. }));
        assert!(matches!(completed[2].op, FsOp::Create { .. }));
    }

    #[test]
    fn failed_records_trim_normally() {
        let mut log = OpLog::new();
        let s = log.append(FsOp::Unlink {
            path: "/gone".into(),
        });
        log.complete(s, OpOutcome::Failed(FsError::NotFound));
        log.trim(s);
        assert!(log.is_empty());
    }

    #[test]
    fn resolve_pending_completes_inflight() {
        let mut log = OpLog::new();
        let s = log.append(FsOp::Create {
            path: "/f".into(),
            flags: rw_create(),
        });
        log.resolve_pending(s, opened(3, 9, true));
        let (completed, pending) = log.for_recovery();
        assert!(pending.is_none());
        assert_eq!(completed.len(), 1);
        // fd liveness updated through the resolution path too
        log.trim(s);
        assert_eq!(log.len(), 1, "restored as RestoreFd");
    }

    #[test]
    fn clear_forgets_everything() {
        let mut log = OpLog::new();
        let s = log.append(FsOp::Mkdir { path: "/d".into() });
        log.complete(s, OpOutcome::Unit);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn seq_lookup_survives_trims() {
        // The binary-searched lookups rely on the retained log staying
        // strictly seq-ascending across trims and RestoreFd rewrites.
        let mut log = OpLog::new();
        let open_seq = log.append(FsOp::Create {
            path: "/f".into(),
            flags: rw_create(),
        });
        log.complete(open_seq, opened(3, 2, true));
        let mk1 = log.append(FsOp::Mkdir { path: "/a".into() });
        log.complete(mk1, OpOutcome::Unit);
        log.trim(mk1); // drops /a, rewrites the live open into RestoreFd
        let mk2 = log.append(FsOp::Mkdir { path: "/b".into() });
        log.complete(mk2, OpOutcome::Unit);

        assert!(matches!(log.record_of(open_seq).op, FsOp::RestoreFd { .. }));
        assert_eq!(log.record_of(mk2).seq, mk2);
        assert!(matches!(log.record_of(mk2).op, FsOp::Mkdir { .. }));
        // resolve_pending on a trimmed seq is a tolerated no-op
        log.resolve_pending(mk1, OpOutcome::Unit);
        // completing on top of a trimmed gap still finds the right record
        let mk3 = log.append(FsOp::Mkdir { path: "/c".into() });
        log.complete(mk3, OpOutcome::Unit);
        assert_eq!(log.record_of(mk3).outcome, OpOutcome::Unit);
    }
}
