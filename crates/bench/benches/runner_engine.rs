//! End-to-end benchmark of the parallel experiment engine.
//!
//! Runs the same cell matrix (a small suite × three policies) through the
//! engine at `jobs = 1` and at the machine's available parallelism, so the
//! scaling of the worker pool — and the effect of the shared emulator
//! oracle — is measurable from `cargo bench`. On a single-core host the
//! two configurations should be within noise of each other; the oracle
//! savings show up in both.

use criterion::Criterion;
use dmdc_bench::{criterion, finish};
use dmdc_core::experiments::PolicyKind;
use dmdc_core::runner::{Engine, RunCtx, RunSpec};
use dmdc_ooo::CoreConfig;
use dmdc_workloads::{fp_suite, int_suite, Scale, Workload};

fn mini_suite() -> Vec<Workload> {
    vec![
        int_suite(Scale::Smoke).remove(6),
        fp_suite(Scale::Smoke).remove(1),
    ]
}

fn specs(workloads: &[Workload], config: &CoreConfig) -> Vec<RunSpec> {
    (0..workloads.len())
        .flat_map(|i| {
            [
                RunSpec::new(i, config, PolicyKind::Baseline),
                RunSpec::new(i, config, PolicyKind::DmdcGlobal),
                RunSpec::new(i, config, PolicyKind::DmdcLocal),
            ]
        })
        .collect()
}

/// A bare context (no cache, journal or faults) with `jobs` workers, so
/// every iteration simulates.
fn ctx(jobs: usize) -> RunCtx {
    RunCtx {
        jobs,
        ..RunCtx::default()
    }
}

fn bench_engine(c: &mut Criterion, name: &str, jobs: usize) {
    let workloads = mini_suite();
    let config = CoreConfig::config2();
    let cells = specs(&workloads, &config);
    c.bench_function(name, |b| {
        b.iter(|| {
            let engine = Engine::with_ctx(&workloads, ctx(jobs));
            let runs = engine.run_all(&cells);
            std::hint::black_box(runs.len())
        })
    });
}

fn main() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("runner engine bench: 6-cell matrix, host parallelism {parallelism}");

    let mut c = criterion();
    bench_engine(&mut c, "runner/jobs1", 1);
    if parallelism > 1 {
        bench_engine(&mut c, &format!("runner/jobs{parallelism}"), parallelism);
    }

    // The oracle cache in isolation: fresh engine (cold, one emulation per
    // workload) each iteration vs a warm engine shared across iterations.
    let workloads = mini_suite();
    let config = CoreConfig::config2();
    let cells = specs(&workloads, &config);
    let warm = Engine::with_ctx(&workloads, ctx(1));
    warm.run_all(&cells);
    c.bench_function("runner/oracle-warm", |b| {
        b.iter(|| std::hint::black_box(warm.run_all(&cells).len()))
    });
    finish(c);
}
