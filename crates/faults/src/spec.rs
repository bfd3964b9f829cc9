//! Bug specifications: sites, triggers, effects.

use rae_vfs::OpKind;
use serde::{Deserialize, Serialize};

/// Code sites in the base filesystem where fault hooks are placed.
///
/// These mirror where real ext4-class bugs live (per the paper's study):
/// input sanitization at the API boundary, path lookup, directory
/// modification, allocators, the write path, journal commit, and
/// crafted-image parsing at mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Site {
    /// Operation entry (argument sanitization bugs).
    ApiEntry,
    /// Path resolution / dentry-cache interaction.
    PathLookup,
    /// Directory entry insertion/removal.
    DirModify,
    /// Inode or block allocation.
    Alloc,
    /// The data write path.
    Write,
    /// Truncate / block freeing.
    Truncate,
    /// Journal transaction commit.
    JournalCommit,
    /// Directory listing.
    Readdir,
    /// Rename-specific logic (classically bug-rich).
    Rename,
    /// On-disk structure parsing at mount time (crafted images).
    MountImage,
    /// The contained reboot inside RAE recovery (cache reset + journal
    /// replay). Faults here model recovery tooling failing while the
    /// system is already degraded.
    RecoveryReboot,
    /// The shadow's constrained replay inside RAE recovery.
    RecoveryReplay,
    /// The metadata download (absorb) phase inside RAE recovery.
    RecoveryAbsorb,
}

impl Site {
    /// All sites, in a stable order.
    pub const ALL: [Site; 13] = [
        Site::ApiEntry,
        Site::PathLookup,
        Site::DirModify,
        Site::Alloc,
        Site::Write,
        Site::Truncate,
        Site::JournalCommit,
        Site::Readdir,
        Site::Rename,
        Site::MountImage,
        Site::RecoveryReboot,
        Site::RecoveryReplay,
        Site::RecoveryAbsorb,
    ];
}

/// When an armed bug fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Trigger {
    /// On every matching site visit.
    Always,
    /// Exactly once, on the N-th matching visit (1-based).
    NthMatch(u64),
    /// On every N-th matching visit.
    EveryNth(u64),
    /// When the operation's primary or secondary path contains the
    /// needle.
    PathContains(String),
    /// When the operation kind matches.
    OpIs(OpKind),
    /// When the operation offset is at or above the threshold.
    OffsetAtLeast(u64),
    /// When the payload length is at or above the threshold.
    LenAtLeast(usize),
    /// Fires with probability `p` per matching visit (seeded —
    /// *non-deterministic* in the paper's classification, reproducible
    /// in tests).
    Random {
        /// Firing probability in `[0, 1]`.
        p: f64,
    },
    /// All sub-triggers must match (counting applies to the
    /// conjunction).
    All(Vec<Trigger>),
}

impl Trigger {
    /// Whether the trigger is deterministic in the paper's sense: given
    /// the same operation sequence it fires at the same points.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        match self {
            Trigger::Random { .. } => false,
            Trigger::All(ts) => ts.iter().all(Trigger::is_deterministic),
            _ => true,
        }
    }
}

/// What happens when a bug fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effect {
    /// The base detects the problem and surfaces
    /// [`rae_vfs::FsError::DetectedBug`] — the cleanest runtime error.
    DetectedError,
    /// The base panics (kernel-crash class). The RAE runtime catches
    /// the unwind at the API boundary.
    Panic,
    /// A `WARN_ON`-style event: recorded, execution continues. RAE
    /// policy decides whether WARN triggers recovery.
    Warn,
    /// The operation silently produces a wrong result (bit-flipped
    /// write payload). Undetectable without cross-checking.
    SilentWrongResult,
    /// The bug scribbles over an in-memory *metadata* page (the
    /// memory-corruption class). Nothing fails at the buggy operation;
    /// the base's validate-on-commit check catches it at the next
    /// persistence point — the paper's fault-model assumption that
    /// "errors are detected before being persisted to disk".
    CorruptMetadata,
}

/// A fully-specified injectable bug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BugSpec {
    /// Unique identifier (appears in `FsError::DetectedBug`).
    pub id: u32,
    /// Human-readable name for reports.
    pub name: String,
    /// Hook site the bug lives at.
    pub site: Site,
    /// Firing condition.
    pub trigger: Trigger,
    /// Consequence.
    pub effect: Effect,
}

impl BugSpec {
    /// Create a spec.
    #[must_use]
    pub fn new(
        id: u32,
        name: impl Into<String>,
        site: Site,
        trigger: Trigger,
        effect: Effect,
    ) -> BugSpec {
        BugSpec {
            id,
            name: name.into(),
            site,
            trigger,
            effect,
        }
    }

    /// Whether the bug is deterministic (derived from its trigger).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.trigger.is_deterministic()
    }
}

/// The operation context the base passes to fault hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpContext<'a> {
    /// Operation kind.
    pub kind: OpKind,
    /// The site being visited.
    pub site: Site,
    /// Primary path, when the operation has one.
    pub path: Option<&'a str>,
    /// Secondary path (rename target, link name).
    pub path2: Option<&'a str>,
    /// Byte offset, for I/O operations.
    pub offset: Option<u64>,
    /// Payload length, for I/O operations.
    pub len: Option<usize>,
}

impl<'a> OpContext<'a> {
    /// A context with only kind and site.
    #[must_use]
    pub fn new(kind: OpKind, site: Site) -> OpContext<'a> {
        OpContext {
            kind,
            site,
            path: None,
            path2: None,
            offset: None,
            len: None,
        }
    }

    /// Attach the primary path.
    #[must_use]
    pub fn with_path(mut self, path: &'a str) -> OpContext<'a> {
        self.path = Some(path);
        self
    }

    /// Attach the secondary path.
    #[must_use]
    pub fn with_path2(mut self, path: &'a str) -> OpContext<'a> {
        self.path2 = Some(path);
        self
    }

    /// Attach offset and length.
    #[must_use]
    pub fn with_io(mut self, offset: u64, len: usize) -> OpContext<'a> {
        self.offset = Some(offset);
        self.len = Some(len);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_classification() {
        assert!(Trigger::Always.is_deterministic());
        assert!(Trigger::NthMatch(3).is_deterministic());
        assert!(Trigger::PathContains("x".into()).is_deterministic());
        assert!(!Trigger::Random { p: 0.5 }.is_deterministic());
        assert!(Trigger::All(vec![Trigger::Always, Trigger::NthMatch(1)]).is_deterministic());
        assert!(
            !Trigger::All(vec![Trigger::Always, Trigger::Random { p: 0.1 }]).is_deterministic()
        );
    }

    #[test]
    fn bugspec_carries_determinism() {
        let det = BugSpec::new(1, "d", Site::Write, Trigger::Always, Effect::Panic);
        assert!(det.is_deterministic());
        let nondet = BugSpec::new(
            2,
            "n",
            Site::Write,
            Trigger::Random { p: 0.1 },
            Effect::Warn,
        );
        assert!(!nondet.is_deterministic());
    }

    #[test]
    fn context_builders() {
        let ctx = OpContext::new(OpKind::Write, Site::Write)
            .with_path("/a")
            .with_io(100, 4096);
        assert_eq!(ctx.path, Some("/a"));
        assert_eq!(ctx.offset, Some(100));
        assert_eq!(ctx.len, Some(4096));
    }
}
