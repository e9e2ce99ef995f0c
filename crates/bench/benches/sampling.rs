//! PR6 sampling engine: exact vs sampled wall-clock on the two hottest
//! registry experiments — fig2 (the YLA sweep, the widest matrix) and
//! table6 (invalidation-rate slowdowns, paired baseline runs). Each
//! estimate regenerates the experiment cold (the bench's run context
//! carries no cell cache), so the ratio is the honest end-to-end speedup
//! sampling buys. Headline numbers are recorded in `BENCH_pr6.json`.
//!
//! PR7 adds the fast-forward-only pair: one workload's full dynamic
//! instruction stream emulated by `Emulator::step` versus the
//! block-compiled `Emulator::run_silent`, isolating the silent-run
//! engine the sampled driver now fast-forwards through (recorded in
//! `BENCH_pr7.json`).
//!
//! `DMDC_SCALE=smoke cargo bench --bench sampling` for a quick pass; the
//! default scale matches the other bench targets.

use criterion::Criterion;
use dmdc_bench::{criterion, finish, scale_from_env};
use dmdc_core::experiments::{find_experiment, run_experiment};
use dmdc_core::runner::RunCtx;
use dmdc_isa::{BlockCode, Emulator};
use dmdc_ooo::SampleSpec;
use dmdc_workloads::{full_suite, Workload};

/// The fast-forward engines head to head, outside the sampling driver:
/// the same program run to halt through `step()` and through the block
/// interpreter. Their ratio is the pure fast-forward speedup.
fn bench_fast_forward(c: &mut Criterion, w: &Workload) {
    c.bench_function(&format!("fast-forward/{}-step", w.name), |b| {
        b.iter(|| {
            let mut emu = Emulator::new(&w.program);
            while !emu.halted() {
                emu.step().expect("workload halts cleanly");
            }
            std::hint::black_box(emu.retired())
        })
    });
    c.bench_function(&format!("fast-forward/{}-blocks", w.name), |b| {
        b.iter(|| {
            let code = BlockCode::compile(&w.program);
            let mut emu = Emulator::new(&w.program);
            emu.run_silent(&code, u64::MAX)
                .expect("workload halts cleanly");
            std::hint::black_box(emu.retired())
        })
    });
}

fn main() {
    let scale = scale_from_env();
    // Whole-experiment iterations: three samples keep the exact side of
    // the default scale under a minute while still exposing variance.
    let mut c = criterion().sample_size(3);
    for id in ["fig2", "table6"] {
        let exp = find_experiment(id).expect("registry id");
        for (mode, sampling) in [
            ("exact", SampleSpec::EXACT),
            ("sampled", SampleSpec::standard()),
        ] {
            let ctx = RunCtx {
                sampling,
                ..RunCtx::default()
            };
            c.bench_function(&format!("sampling/{id}-{mode}"), |b| {
                b.iter(|| std::hint::black_box(run_experiment(exp, scale, &ctx)))
            });
        }
    }
    let histo = full_suite(scale)
        .into_iter()
        .find(|w| w.name == "histo")
        .expect("histo is in the suite");
    bench_fast_forward(&mut c, &histo);
    finish(c);
}
