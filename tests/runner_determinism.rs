//! The parallel runner must be invisible in the output: any figure or
//! table rendered with `--jobs N` must be byte-identical to the serial
//! (`--jobs 1`) rendering, and the emulator oracle must be consulted
//! once per distinct workload regardless of how many cells share it.
//!
//! The worker count is a per-run-context setting, so each rendering
//! below states its own and nothing here touches process-wide state.

use dmdc::core::experiments::{self, PolicyKind};
use dmdc::core::runner::{Engine, RunCtx, RunSpec};
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{fp_suite, int_suite, Scale, Workload};

/// A tiny two-workload set (one INT, one FP) so the test stays fast.
fn mini() -> Vec<Workload> {
    vec![
        int_suite(Scale::Smoke).remove(6),
        fp_suite(Scale::Smoke).remove(1),
    ]
}

/// Renders registry experiment `id` over `workloads` on `jobs` workers:
/// the registry's own plan and reducer, with the workload set swapped.
fn render(id: &str, workloads: &[Workload], jobs: usize) -> String {
    let exp = experiments::find_experiment(id).expect("registry id");
    let mut plan = exp.plan(Scale::Smoke);
    plan.workloads = workloads.to_vec();
    let ctx = RunCtx {
        jobs,
        ..RunCtx::default()
    };
    let cells = Engine::with_ctx(&plan.workloads, ctx).run_all(&plan.specs());
    exp.reduce(&cells).text()
}

#[test]
fn rendered_tables_are_byte_identical_at_any_job_count() {
    let workloads = mini();
    let config = CoreConfig::config2();

    let serial_fig2 = render("fig2", &workloads, 1);
    let serial_table2 = render("table2", &workloads, 1);

    let parallel_fig2 = render("fig2", &workloads, 4);
    let parallel_table2 = render("table2", &workloads, 4);

    assert_eq!(
        serial_fig2, parallel_fig2,
        "fig2 must not depend on the worker count"
    );
    assert_eq!(
        serial_table2, parallel_table2,
        "table2 must not depend on the worker count"
    );

    // The engine the regenerators use is the same one exposed directly;
    // confirm the oracle dedupes across policies sharing a workload.
    let specs: Vec<RunSpec> = (0..workloads.len())
        .flat_map(|i| {
            [
                RunSpec::new(i, &config, PolicyKind::Baseline),
                RunSpec::new(i, &config, PolicyKind::DmdcGlobal),
                RunSpec::new(i, &config, PolicyKind::DmdcLocal),
            ]
        })
        .collect();
    let engine = Engine::with_ctx(
        &workloads,
        RunCtx {
            jobs: 4,
            ..RunCtx::default()
        },
    );
    let runs = engine.run_all(&specs);
    assert_eq!(runs.len(), specs.len());
    let (hits, misses) = engine.oracle_stats();
    assert_eq!(
        misses,
        workloads.len() as u64,
        "one emulation per distinct workload"
    );
    assert_eq!(
        hits,
        (specs.len() - workloads.len()) as u64,
        "every other cell hit the cache"
    );
}
