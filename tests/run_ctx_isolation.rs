//! Two run contexts in one process must not see each other: a sampled
//! cell executed under a bare context (no journal, no checkpoint store)
//! writes nothing under another context's run directory or store, and
//! its profile totals and recovery tallies land in its own context only.
//! A context's sampling spec reaches every cell that carries none.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dmdc::core::cache::{default_fingerprint, CellCache, CheckpointStore};
use dmdc::core::experiments::PolicyKind;
use dmdc::core::faults::FaultPlan;
use dmdc::core::journal::RunJournal;
use dmdc::core::runner::{Engine, RunCtx, RunSpec};
use dmdc::ooo::{CoreConfig, SampleSpec, SimOptions};
use dmdc::workloads::{int_suite, Scale};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn is_empty_or_absent(dir: &Path) -> bool {
    std::fs::read_dir(dir).map_or(true, |mut entries| entries.next().is_none())
}

#[test]
fn bare_ctx_sampled_cell_touches_nothing_of_another_ctx() {
    let root = scratch("dmdc-run-ctx-isolation");
    let store_dir = root.join("store");
    let journal = RunJournal::create(
        &root.join("runs"),
        "other",
        &default_fingerprint(),
        &["suite".to_string()],
    )
    .expect("journal opens");
    let other = RunCtx {
        journal: Some(Arc::new(journal)),
        checkpoints: Some(Arc::new(CheckpointStore::new(&store_dir))),
        profile: true,
        ..RunCtx::default()
    };
    let run_dir = other.journal.as_ref().unwrap().run_dir().to_path_buf();

    // Every cell's first attempt panics, so the bare ctx records a retry.
    let bare = RunCtx {
        jobs: 1,
        profile: true,
        faults: Some(Arc::new(FaultPlan::parse("panic=1").unwrap())),
        ..RunCtx::default()
    };
    let workloads = [int_suite(Scale::Default).remove(6)]; // histo
    let spec = RunSpec {
        opts: SimOptions {
            sampling: SampleSpec {
                windows: 4,
                window_insts: 1_000,
                warmup_insts: 1_000,
            },
            ..SimOptions::default()
        },
        ..RunSpec::new(0, &CoreConfig::config2(), PolicyKind::DmdcGlobal)
    };
    let cell = Engine::with_ctx(&workloads, bare.clone())
        .try_run_cell(&spec)
        .expect("the retry recovers the cell");
    assert!(cell.stats.is_sampled(), "sampling must engage");

    assert!(
        !run_dir.join("samples").exists(),
        "a bare ctx must not keep sampled envelopes under another ctx's run dir"
    );
    assert!(
        is_empty_or_absent(&store_dir),
        "a bare ctx must not write another ctx's checkpoint store"
    );
    assert_eq!(other.checkpoints.as_ref().unwrap().counters().stores, 0);

    let mine = bare.take_profile_totals();
    assert_eq!(mine.sampled_cells, 1, "the bare ctx profiled its cell");
    assert!(mine.runs > 0);
    let theirs = other.take_profile_totals();
    assert_eq!((theirs.runs, theirs.sampled_cells), (0, 0));

    assert_eq!(bare.recovery().retries, 1);
    assert!(
        !other.recovery().any(),
        "no fault leaked into the other ctx"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ctx_sampling_applies_to_specs_that_carry_none() {
    let root = scratch("dmdc-run-ctx-sampling");
    let cache = Arc::new(CellCache::new(&root));
    let sampling = SampleSpec {
        windows: 4,
        window_insts: 1_000,
        warmup_insts: 1_000,
    };
    let workloads = [int_suite(Scale::Default).remove(6)]; // histo
    let plain = RunSpec::new(0, &CoreConfig::config2(), PolicyKind::DmdcGlobal);
    let sampled_ctx = RunCtx {
        jobs: 1,
        cache: Some(cache.clone()),
        sampling,
        ..RunCtx::default()
    };
    let cell = Engine::with_ctx(&workloads, sampled_ctx)
        .try_run_cell(&plain)
        .expect("cell runs");
    assert!(
        cell.stats.is_sampled(),
        "the ctx's sampling spec must apply"
    );

    // The cell was keyed as sampled: the same cell spelled out with its
    // own spec, under an exact ctx, is a cache hit.
    let exact_ctx = RunCtx {
        jobs: 1,
        cache: Some(cache.clone()),
        ..RunCtx::default()
    };
    let explicit = RunSpec {
        opts: SimOptions {
            sampling,
            ..SimOptions::default()
        },
        ..plain
    };
    let again = Engine::with_ctx(&workloads, exact_ctx)
        .try_run_cell(&explicit)
        .expect("cell replays");
    assert_eq!(again.stats, cell.stats);
    assert_eq!(cache.counters().hits, 1);
    let _ = std::fs::remove_dir_all(&root);
}
