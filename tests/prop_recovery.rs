//! Property-based end-to-end tests: for random operation scripts and
//! random fault points, RAE-recovered state must equal the executable
//! specification's state, and images must stay fsck-clean, crash
//! states sampled from a script's tape among them.

use proptest::prelude::*;
use rae::{RaeConfig, RaeFs};
use rae_basefs::BaseFsConfig;
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_fsmodel::ModelFs;
use rae_shadowfs::{ShadowAsPrimary, ShadowOpts};
use rae_workloads::{
    compare_outcomes, diff_trees, dump_tree, generate_script, run_script, Profile,
};
use std::sync::Arc;

fn fresh_dev() -> Arc<MemDisk> {
    let dev = Arc::new(MemDisk::new(16384));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 16384,
            inode_count: 4096,
            journal_blocks: 512,
        },
    )
    .unwrap();
    dev
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 40,
        .. ProptestConfig::default()
    })]

    /// The shadow (as primary) refines the spec for arbitrary scripts.
    #[test]
    fn shadow_refines_spec(seed in 0u64..5000, steps in 50usize..400) {
        let script = generate_script(Profile::Chaos, seed, steps);
        let model = ModelFs::new();
        let shadow = ShadowAsPrimary::load(
            fresh_dev() as Arc<dyn BlockDevice>,
            ShadowOpts { validate_image: false, ..ShadowOpts::default() },
        ).unwrap();
        let expected = run_script(&model, &script);
        let actual = run_script(&shadow, &script);
        let div = compare_outcomes(&expected, &actual);
        prop_assert!(div.is_empty(), "step {}: {:?} vs {:?} (op {:?})",
            div[0].step, div[0].a, div[0].b, script[div[0].step]);
    }

    /// The base refines the spec for arbitrary scripts, and the image
    /// passes fsck after unmount.
    #[test]
    fn base_refines_spec_and_stays_consistent(seed in 0u64..5000, steps in 50usize..400) {
        let script = generate_script(Profile::Chaos, seed, steps);
        let model = ModelFs::new();
        let dev = fresh_dev();
        let base = rae_basefs::BaseFs::mount(
            dev.clone() as Arc<dyn BlockDevice>,
            BaseFsConfig::default(),
        ).unwrap();
        let expected = run_script(&model, &script);
        let actual = run_script(&base, &script);
        let div = compare_outcomes(&expected, &actual);
        prop_assert!(div.is_empty(), "step {}: {:?} vs {:?} (op {:?})",
            div[0].step, div[0].a, div[0].b, script[div[0].step]);
        base.unmount().unwrap();
        let report = fsck(dev.as_ref()).unwrap();
        prop_assert!(report.is_clean(), "{report}");
    }

    /// With a detected-error bug planted at a random point, the RAE
    /// filesystem still produces exactly the spec's observable results.
    #[test]
    fn rae_masks_random_fault_points(
        seed in 0u64..2000,
        steps in 60usize..250,
        fault_at in 1u64..120,
        site_pick in 0usize..4,
        effect_pick in 0usize..2,
    ) {
        rae_faults::quiet_injected_panics();
        let script = generate_script(Profile::Chaos, seed, steps);
        let model = ModelFs::new();
        let expected = run_script(&model, &script);

        let site = [Site::Alloc, Site::Write, Site::DirModify, Site::PathLookup][site_pick];
        let effect = [Effect::DetectedError, Effect::Panic][effect_pick];
        let faults = FaultRegistry::new();
        faults.arm(BugSpec::new(1, "prop-bug", site, Trigger::NthMatch(fault_at), effect));

        let dev = fresh_dev();
        let fs = RaeFs::mount(
            dev.clone() as Arc<dyn BlockDevice>,
            RaeConfig {
                base: BaseFsConfig { faults: faults.clone(), ..BaseFsConfig::default() },
                shadow: ShadowOpts { validate_image: false, ..ShadowOpts::default() },
                ..RaeConfig::default()
            },
        ).unwrap();
        let actual = run_script(&fs, &script);
        let div = compare_outcomes(&expected, &actual);
        prop_assert!(div.is_empty(),
            "fired={} recoveries={} step {}: {:?} vs {:?} (op {:?})",
            faults.fired(1), fs.stats().recoveries,
            div[0].step, div[0].a, div[0].b, script[div[0].step]);
        prop_assert_eq!(fs.stats().recovery_failures, 0);

        // trees agree and the image is consistent
        let t_expected = dump_tree(&model).unwrap();
        let t_actual = dump_tree(&fs).unwrap();
        let diffs = diff_trees(&t_expected, &t_actual);
        prop_assert!(diffs.is_empty(), "{:?}", diffs);
        fs.unmount().unwrap();
        let report = fsck(dev.as_ref()).unwrap();
        prop_assert!(report.is_clean(), "{report}");
    }

    /// Crash anywhere: record the script on a tape, take one of the
    /// crash states between its flushes ([`crash::crash_states`]) and
    /// remount it: the image is always fsck-consistent (crash-safety
    /// property of the journal). A script's tape has tens of thousands
    /// of states, so this samples them; the integration test
    /// `crash_epoch_synced_workload_every_state_recovers` enumerates a
    /// smaller workload's.
    #[test]
    fn crash_anywhere_is_recoverable(seed in 0u64..2000, pick in 0usize..1 << 20) {
        use rae_blockdev::crash::{self, CrashImage};
        use rae_blockdev::TapeDisk;
        let mem = MemDisk::new(8192);
        mkfs(&mem, MkfsParams { total_blocks: 8192, inode_count: 2048, journal_blocks: 128 }).unwrap();
        let pre = mem.snapshot();
        let dev = Arc::new(TapeDisk::from_image(&pre));
        let base = rae_basefs::BaseFs::mount(
            dev.clone() as Arc<dyn BlockDevice>,
            BaseFsConfig::default(),
        ).unwrap();
        let script = generate_script(Profile::Varmail, seed, 150);
        let _ = run_script(&base, &script);
        base.crash();

        let epochs = crash::epochs(&dev.since(0));
        let states = crash::crash_states(&epochs, seed);
        let state = &states[pick % states.len()];
        let survivor = Arc::new(CrashImage::new(Arc::new(MemDisk::from_image(&pre)), &epochs, state));
        let fs2 = rae_basefs::BaseFs::mount(
            survivor.clone() as Arc<dyn BlockDevice>,
            BaseFsConfig::default(),
        ).unwrap();
        fs2.unmount().unwrap();
        let report = fsck(survivor.as_ref()).unwrap();
        prop_assert!(report.is_clean(), "{state:?} of {}: {report}", states.len());
    }
}
