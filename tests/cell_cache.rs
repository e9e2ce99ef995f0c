//! Cache-correctness tests for the persistent cell cache: warm lookups
//! must return exactly what the cold run computed, editing one workload
//! must invalidate exactly that workload's cells, and bumping the
//! simulator fingerprint must invalidate everything.
//!
//! Each test uses its own directory under the workspace `target/` so
//! runs are hermetic and `cargo clean` clears them.

use std::path::PathBuf;
use std::sync::Arc;

use dmdc::core::cache::CellCache;
use dmdc::core::experiments::PolicyKind;
use dmdc::core::runner::{Engine, RunCtx, RunSpec};
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{int_suite, Scale, SyntheticKernel, Workload};

/// A fresh, empty cache directory under `target/`.
fn cache_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two workloads: a synthetic kernel (whose program bytes the tests can
/// vary without renaming it) and one suite kernel.
fn suite(seed: u32) -> Vec<Workload> {
    vec![
        SyntheticKernel::new(300).seed(seed).build(),
        int_suite(Scale::Smoke).remove(0),
    ]
}

fn specs() -> Vec<RunSpec> {
    (0..2)
        .map(|w| RunSpec::new(w, &CoreConfig::config2(), PolicyKind::DmdcGlobal))
        .collect()
}

fn run(workloads: &[Workload], cache: &Arc<CellCache>) -> Vec<dmdc::core::CellResult> {
    let ctx = RunCtx {
        cache: Some(Arc::clone(cache)),
        ..RunCtx::default()
    };
    let engine = Engine::with_ctx(workloads, ctx);
    specs().iter().map(|s| engine.run_cell(s)).collect()
}

#[test]
fn warm_cells_are_verbatim_and_counted() {
    let dir = cache_dir("dmdc-cache-test-warm");
    let cold_cache = Arc::new(CellCache::new(&dir));
    let workloads = suite(271_828);
    let cold = run(&workloads, &cold_cache);
    let c = cold_cache.counters();
    assert_eq!((c.hits, c.misses, c.stores), (0, 2, 2));

    let warm_cache = Arc::new(CellCache::new(&dir));
    let warm = run(&workloads, &warm_cache);
    let c = warm_cache.counters();
    assert_eq!((c.hits, c.misses, c.stores), (2, 0, 0));
    assert_eq!(cold, warm, "cached cells must round-trip verbatim");
}

#[test]
fn editing_one_workload_invalidates_only_its_cells() {
    let dir = cache_dir("dmdc-cache-test-edit");
    run(&suite(271_828), &Arc::new(CellCache::new(&dir)));

    // Same workload names, but the synthetic kernel's program now differs
    // (different LCG seed constant): its cell must re-run, the untouched
    // suite kernel's cell must still hit.
    let edited_cache = Arc::new(CellCache::new(&dir));
    run(&suite(314_159), &edited_cache);
    let c = edited_cache.counters();
    assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));
}

#[test]
fn bumping_the_fingerprint_invalidates_everything() {
    let dir = cache_dir("dmdc-cache-test-fp");
    let workloads = suite(271_828);
    run(&workloads, &Arc::new(CellCache::new(&dir)));

    let bumped = Arc::new(CellCache::with_fingerprint(&dir, "dmdc-test-vNext"));
    run(&workloads, &bumped);
    let c = bumped.counters();
    assert_eq!((c.hits, c.misses, c.stores), (0, 2, 2));
}

#[test]
fn corrupt_records_degrade_to_misses() {
    let dir = cache_dir("dmdc-cache-test-corrupt");
    let workloads = suite(271_828);
    let cold = run(&workloads, &Arc::new(CellCache::new(&dir)));

    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::write(entry.unwrap().path(), "not a cell record").unwrap();
    }
    let cache = Arc::new(CellCache::new(&dir));
    let reran = run(&workloads, &cache);
    let c = cache.counters();
    assert_eq!((c.hits, c.misses, c.stores), (0, 2, 2));
    assert_eq!(cold, reran, "re-simulated cells must match the originals");
}
