//! The runtime fault registry consulted by the base's hooks.

use crate::spec::{BugSpec, Effect, OpContext, Trigger};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What the base must do at a hook where a bug fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return [`rae_vfs::FsError::DetectedBug`] with this id.
    FailDetected {
        /// Bug id.
        bug_id: u32,
    },
    /// Panic with a message naming this bug.
    Panic {
        /// Bug id.
        bug_id: u32,
    },
    /// Record a WARN event and continue.
    Warn {
        /// Bug id.
        bug_id: u32,
    },
    /// Corrupt the operation's payload/result silently.
    CorruptSilently {
        /// Bug id.
        bug_id: u32,
    },
    /// Scribble over an in-memory metadata page.
    CorruptMetadata {
        /// Bug id.
        bug_id: u32,
    },
}

impl FaultAction {
    /// The id of the bug that produced this action.
    #[must_use]
    pub fn bug_id(self) -> u32 {
        match self {
            FaultAction::FailDetected { bug_id }
            | FaultAction::Panic { bug_id }
            | FaultAction::Warn { bug_id }
            | FaultAction::CorruptSilently { bug_id }
            | FaultAction::CorruptMetadata { bug_id } => bug_id,
        }
    }
}

#[derive(Debug)]
struct Armed {
    spec: BugSpec,
    matches: u64,
    fires: u64,
}

#[derive(Debug)]
struct Inner {
    armed: Vec<Armed>,
    rng: SmallRng,
    /// WARNs fired since creation, and how many of them
    /// [`FaultRegistry::take_warnings`] has already returned.
    warn_count: u64,
    warn_taken: u64,
}

/// Thread-safe registry of armed bugs; cloneable handle.
///
/// The base filesystem holds one and calls [`FaultRegistry::check`] at
/// each [`crate::Site`]; tests and experiment harnesses arm/disarm bugs
/// and inspect fire counts.
#[derive(Debug, Clone, Default)]
pub struct FaultRegistry {
    inner: Arc<Mutex<Option<Inner>>>,
}

impl FaultRegistry {
    /// An empty registry (seed 0).
    #[must_use]
    pub fn new() -> FaultRegistry {
        FaultRegistry::with_seed(0)
    }

    /// An empty registry with an explicit seed for `Random` triggers.
    #[must_use]
    pub fn with_seed(seed: u64) -> FaultRegistry {
        FaultRegistry {
            inner: Arc::new(Mutex::new(Some(Inner {
                armed: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                warn_count: 0,
                warn_taken: 0,
            }))),
        }
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut guard = self.inner.lock();
        f(guard.as_mut().expect("registry inner always present"))
    }

    /// Arm a bug. Re-arming an id replaces the old spec and resets its
    /// counters.
    pub fn arm(&self, spec: BugSpec) {
        self.with_inner(|inner| {
            inner.armed.retain(|a| a.spec.id != spec.id);
            inner.armed.push(Armed {
                spec,
                matches: 0,
                fires: 0,
            });
        });
    }

    /// Disarm a bug by id; `true` if it was armed.
    pub fn disarm(&self, id: u32) -> bool {
        self.with_inner(|inner| {
            let before = inner.armed.len();
            inner.armed.retain(|a| a.spec.id != id);
            inner.armed.len() != before
        })
    }

    /// Disarm everything.
    pub fn clear(&self) {
        self.with_inner(|inner| inner.armed.clear());
    }

    /// Number of currently armed bugs.
    #[must_use]
    pub fn armed_count(&self) -> usize {
        self.with_inner(|inner| inner.armed.len())
    }

    /// How many times bug `id` has fired.
    #[must_use]
    pub fn fired(&self, id: u32) -> u64 {
        self.with_inner(|inner| {
            inner
                .armed
                .iter()
                .find(|a| a.spec.id == id)
                .map_or(0, |a| a.fires)
        })
    }

    /// Total fires across all armed bugs.
    #[must_use]
    pub fn total_fired(&self) -> u64 {
        self.with_inner(|inner| inner.armed.iter().map(|a| a.fires).sum())
    }

    /// How many WARNs fired since the previous call (or since
    /// creation).
    #[must_use]
    pub fn take_warnings(&self) -> u64 {
        self.with_inner(|inner| {
            let fresh = inner.warn_count - inner.warn_taken;
            inner.warn_taken = inner.warn_count;
            fresh
        })
    }

    /// Number of WARNs fired since creation (not reset by
    /// [`FaultRegistry::take_warnings`]).
    #[must_use]
    pub fn warn_count(&self) -> u64 {
        self.with_inner(|inner| inner.warn_count)
    }

    fn trigger_matches(trigger: &Trigger, ctx: &OpContext<'_>, rng: &mut SmallRng) -> bool {
        match trigger {
            Trigger::Always | Trigger::NthMatch(_) | Trigger::EveryNth(_) => true,
            Trigger::PathContains(needle) => {
                ctx.path.is_some_and(|p| p.contains(needle.as_str()))
                    || ctx.path2.is_some_and(|p| p.contains(needle.as_str()))
            }
            Trigger::OpIs(kind) => ctx.kind == *kind,
            Trigger::OffsetAtLeast(t) => ctx.offset.is_some_and(|o| o >= *t),
            Trigger::LenAtLeast(t) => ctx.len.is_some_and(|l| l >= *t),
            Trigger::Random { p } => rng.gen_bool(p.clamp(0.0, 1.0)),
            Trigger::All(ts) => ts.iter().all(|t| Self::trigger_matches(t, ctx, rng)),
        }
    }

    /// Consult the registry at a hook. Returns the action of the first
    /// armed bug (in arming order) whose site and trigger match.
    ///
    /// WARN effects are counted here (and still returned, so the base
    /// can trace them).
    #[must_use]
    pub fn check(&self, ctx: &OpContext<'_>) -> Option<FaultAction> {
        self.with_inner(|inner| {
            let Inner {
                armed,
                rng,
                warn_count,
                ..
            } = inner;
            for a in armed.iter_mut() {
                if a.spec.site != ctx.site {
                    continue;
                }
                if !Self::trigger_matches(&a.spec.trigger, ctx, rng) {
                    continue;
                }
                a.matches += 1;
                // counting triggers gate on the match counter
                let fires = match &a.spec.trigger {
                    Trigger::NthMatch(n) => a.matches == *n,
                    Trigger::EveryNth(n) => *n > 0 && a.matches % n == 0,
                    Trigger::All(ts) => {
                        // a counting sub-trigger gates the conjunction
                        let mut ok = true;
                        for t in ts {
                            match t {
                                Trigger::NthMatch(n) => ok &= a.matches == *n,
                                Trigger::EveryNth(n) => ok &= *n > 0 && a.matches % n == 0,
                                _ => {}
                            }
                        }
                        ok
                    }
                    _ => true,
                };
                if !fires {
                    continue;
                }
                a.fires += 1;
                let bug_id = a.spec.id;
                let action = match a.spec.effect {
                    Effect::DetectedError => FaultAction::FailDetected { bug_id },
                    Effect::Panic => FaultAction::Panic { bug_id },
                    Effect::Warn => {
                        *warn_count += 1;
                        FaultAction::Warn { bug_id }
                    }
                    Effect::SilentWrongResult => FaultAction::CorruptSilently { bug_id },
                    Effect::CorruptMetadata => FaultAction::CorruptMetadata { bug_id },
                };
                return Some(action);
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Site;
    use rae_vfs::OpKind;

    fn ctx<'a>(site: Site) -> OpContext<'a> {
        OpContext::new(OpKind::Write, site)
    }

    #[test]
    fn empty_registry_never_fires() {
        let reg = FaultRegistry::new();
        assert_eq!(reg.check(&ctx(Site::Write)), None);
        assert_eq!(reg.total_fired(), 0);
    }

    #[test]
    fn site_mismatch_does_not_fire() {
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            1,
            "b",
            Site::Rename,
            Trigger::Always,
            Effect::Panic,
        ));
        assert_eq!(reg.check(&ctx(Site::Write)), None);
        assert_eq!(
            reg.check(&ctx(Site::Rename)),
            Some(FaultAction::Panic { bug_id: 1 })
        );
    }

    #[test]
    fn nth_match_fires_exactly_once() {
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            2,
            "b",
            Site::Alloc,
            Trigger::NthMatch(3),
            Effect::DetectedError,
        ));
        assert_eq!(reg.check(&ctx(Site::Alloc)), None);
        assert_eq!(reg.check(&ctx(Site::Alloc)), None);
        assert_eq!(
            reg.check(&ctx(Site::Alloc)),
            Some(FaultAction::FailDetected { bug_id: 2 })
        );
        assert_eq!(reg.check(&ctx(Site::Alloc)), None);
        assert_eq!(reg.fired(2), 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            3,
            "b",
            Site::Write,
            Trigger::EveryNth(2),
            Effect::Warn,
        ));
        let fired: Vec<bool> = (0..6)
            .map(|_| reg.check(&ctx(Site::Write)).is_some())
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
        assert_eq!(reg.warn_count(), 3);
    }

    #[test]
    fn path_trigger_matches_either_path() {
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            4,
            "b",
            Site::Rename,
            Trigger::PathContains("boom".into()),
            Effect::Panic,
        ));
        let clean = OpContext::new(OpKind::Rename, Site::Rename)
            .with_path("/a")
            .with_path2("/b");
        assert_eq!(reg.check(&clean), None);
        let hit = OpContext::new(OpKind::Rename, Site::Rename)
            .with_path("/a")
            .with_path2("/dir/boom");
        assert!(reg.check(&hit).is_some());
    }

    #[test]
    fn conjunction_with_counter() {
        // fires on the 2nd write to a matching path only
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            5,
            "b",
            Site::Write,
            Trigger::All(vec![
                Trigger::PathContains("db".into()),
                Trigger::NthMatch(2),
            ]),
            Effect::DetectedError,
        ));
        let hit = OpContext::new(OpKind::Write, Site::Write).with_path("/db/file");
        let miss = OpContext::new(OpKind::Write, Site::Write).with_path("/other");
        assert_eq!(reg.check(&miss), None);
        assert_eq!(reg.check(&hit), None); // 1st match
        assert_eq!(reg.check(&miss), None); // doesn't count
        assert!(reg.check(&hit).is_some()); // 2nd match fires
    }

    #[test]
    fn random_trigger_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let reg = FaultRegistry::with_seed(seed);
            reg.arm(BugSpec::new(
                6,
                "b",
                Site::Write,
                Trigger::Random { p: 0.3 },
                Effect::Warn,
            ));
            (0..32)
                .map(|_| reg.check(&ctx(Site::Write)).is_some())
                .collect()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn warnings_are_counted_and_taken() {
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            7,
            "w",
            Site::Readdir,
            Trigger::Always,
            Effect::Warn,
        ));
        let _ = reg.check(&ctx(Site::Readdir));
        let _ = reg.check(&ctx(Site::Readdir));
        assert_eq!(reg.take_warnings(), 2);
        assert_eq!(reg.take_warnings(), 0);
        let _ = reg.check(&ctx(Site::Readdir));
        assert_eq!(reg.take_warnings(), 1, "only the ones since the last take");
        assert_eq!(reg.warn_count(), 3, "cumulative count survives taking");
    }

    #[test]
    fn rearm_resets_counters() {
        let reg = FaultRegistry::new();
        let spec = BugSpec::new(8, "b", Site::Alloc, Trigger::NthMatch(1), Effect::Panic);
        reg.arm(spec.clone());
        assert!(reg.check(&ctx(Site::Alloc)).is_some());
        reg.arm(spec);
        assert!(
            reg.check(&ctx(Site::Alloc)).is_some(),
            "counter reset on re-arm"
        );
    }

    #[test]
    fn disarm_and_clear() {
        let reg = FaultRegistry::new();
        reg.arm(BugSpec::new(
            9,
            "b",
            Site::Write,
            Trigger::Always,
            Effect::Panic,
        ));
        assert!(reg.disarm(9));
        assert!(!reg.disarm(9));
        assert_eq!(reg.check(&ctx(Site::Write)), None);
        reg.arm(BugSpec::new(
            10,
            "b",
            Site::Write,
            Trigger::Always,
            Effect::Panic,
        ));
        reg.clear();
        assert_eq!(reg.armed_count(), 0);
    }

    #[test]
    fn clones_share_state() {
        let reg = FaultRegistry::new();
        let clone = reg.clone();
        clone.arm(BugSpec::new(
            11,
            "b",
            Site::Write,
            Trigger::Always,
            Effect::Warn,
        ));
        assert_eq!(reg.armed_count(), 1);
        let _ = reg.check(&ctx(Site::Write));
        assert_eq!(clone.fired(11), 1);
    }
}
