//! Shared plumbing for the table/figure regeneration benches.
//!
//! Every bench target in `benches/` does two things:
//!
//! 1. regenerates its paper table/figure — [`regen`] drives the
//!    experiment registry by id — at the scale selected by the
//!    `DMDC_SCALE` environment variable (`smoke`, `default`, `large`) and
//!    prints it, so `cargo bench` output can be compared against the paper;
//! 2. runs a small Criterion measurement of simulator throughput for the
//!    policy under test, so performance regressions in the simulator
//!    itself are visible.

use criterion::Criterion;
use dmdc_core::experiments::{find_experiment, run_experiment, run_workload, PolicyKind};
use dmdc_core::runner::RunCtx;
use dmdc_ooo::{CoreConfig, SimOptions};
use dmdc_workloads::{Scale, SyntheticKernel};

/// Reads `DMDC_SCALE` (`smoke` | `default` | `large`), defaulting to
/// [`Scale::Default`].
pub fn scale_from_env() -> Scale {
    match std::env::var("DMDC_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "smoke" => Scale::Smoke,
        "large" => Scale::Large,
        _ => Scale::Default,
    }
}

/// Regenerates one registry experiment at the `DMDC_SCALE` scale and
/// prints its text report to stdout — the regeneration half every bench
/// main shares with `dmdc experiment <id>`.
///
/// # Panics
///
/// Panics on an unknown experiment id (a bench wired to a missing
/// registry entry is a build defect, not a runtime condition).
pub fn regen(id: &str) {
    let exp = find_experiment(id).unwrap_or_else(|| panic!("unknown experiment `{id}`"));
    let ctx = RunCtx::default();
    print!("{}", run_experiment(exp, scale_from_env(), &ctx).text());
}

/// Registers a Criterion benchmark simulating a small synthetic kernel
/// under `kind` on config 2.
pub fn bench_policy_throughput(c: &mut Criterion, name: &str, kind: PolicyKind) {
    let workload = SyntheticKernel::new(2_000).branch_noise(true).build();
    let config = CoreConfig::config2();
    c.bench_function(name, |b| {
        b.iter(|| {
            let run = run_workload(&workload, &config, &kind, SimOptions::default());
            std::hint::black_box(run.stats.cycles)
        })
    });
}

/// Standard tail for a bench main: runs the Criterion measurement with a
/// small sample count (each iteration is a whole simulation).
pub fn finish(c: Criterion) {
    c.final_summary();
}

/// A Criterion instance tuned for whole-simulation iterations.
pub fn criterion() -> Criterion {
    Criterion::default().sample_size(10).configure_from_args()
}
