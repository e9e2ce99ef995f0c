//! Library-level single-flight coalescing through the engine: two
//! threads racing the *same* cell over a shared cache and flight table
//! must perform exactly one simulation — one thread leads and stores,
//! the other waits and replays the stored cell.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dmdc::core::cache::CellCache;
use dmdc::core::experiments::PolicyKind;
use dmdc::core::flight::SingleFlight;
use dmdc::core::runner::{Engine, RunCtx, RunSpec};
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{Scale, SyntheticKernel, Workload};

fn cache_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload() -> Workload {
    // Default scale: enough simulated work (~8x smoke) that the second
    // thread reliably arrives while the first is still simulating.
    SyntheticKernel::new(20_000 * Scale::Default.factor())
        .branch_noise(true)
        .build()
}

#[test]
fn racing_threads_coalesce_to_one_simulation() {
    let dir = cache_dir("dmdc-single-flight-test");
    let cache = Arc::new(CellCache::new(&dir));
    let flight = Arc::new(SingleFlight::new());

    let run = {
        let cache = Arc::clone(&cache);
        let flight = Arc::clone(&flight);
        move || {
            let workloads = [workload()];
            let ctx = RunCtx {
                jobs: 1,
                cache: Some(cache),
                flight: Some(flight),
                ..RunCtx::default()
            };
            let engine = Engine::with_ctx(&workloads, ctx);
            let spec = RunSpec::new(0, &CoreConfig::config2(), PolicyKind::DmdcGlobal);
            engine.try_run_cell(&spec).expect("cell runs clean")
        }
    };

    // Start the leader, then wait until it owns the flight (its cache
    // miss and join have happened) before releasing the follower.
    let leader = std::thread::spawn(run.clone());
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while flight.counters().led == 0 {
        assert!(std::time::Instant::now() < deadline, "leader never joined");
        std::thread::sleep(Duration::from_millis(1));
    }
    let follower = std::thread::spawn(run);

    let a = leader.join().unwrap();
    let b = follower.join().unwrap();

    // Both threads observed the identical verified cell...
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.stats.export_values(), b.stats.export_values());

    // ...but only one simulation happened: one leader, one coalesced
    // wait, one store. The follower's post-wait lookup replays the
    // leader's stored cell (at least one hit; the follower may also have
    // missed once before joining the flight).
    let fc = flight.counters();
    assert_eq!((fc.led, fc.coalesced), (1, 1), "one leader, one waiter");
    let cc = cache.counters();
    assert_eq!(cc.stores, 1, "exactly one simulation stored the cell");
    assert!(cc.hits >= 1, "the follower replayed the stored cell");
    assert_eq!(flight.waiting(), 0, "nobody left blocked");

    let _ = std::fs::remove_dir_all(&dir);
}
