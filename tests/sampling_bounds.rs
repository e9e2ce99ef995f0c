//! Statistical regression bounds for the sampling engine: regenerating
//! fig2 and table6 in sampled mode must (a) attach a 95% confidence
//! half-width to every estimate and (b) keep the exact value inside it.
//!
//! Everything here is deterministic — the sampled layout, the warming
//! rules and the window simulations are pure functions of the inputs —
//! so these bounds either always hold or never do; a failure means a
//! change to the sampling engine (or the workloads) moved an estimate
//! outside its own error bar.
//!
//! The whole comparison lives in ONE test function: the typed `*_on`
//! regenerators take their sampling mode from the process-default run
//! context (`runner::set_default_sampling`), and parallel test threads
//! must not race on it.

use dmdc::core::experiments::{fig2_on, table6_on, Fig2, Table6};
use dmdc::core::runner::set_default_sampling;
use dmdc::ooo::{CoreConfig, SampleSpec};
use dmdc::workloads::{full_suite, Scale};

/// Rounding slack on top of each reported half-width: the CIs ride the
/// all-u64 stats export as Q32.32 fixed point.
const EPS: f64 = 1e-6;

const RATES: [f64; 4] = [0.0, 1.0, 10.0, 100.0];

fn fig2_pair(scale: Scale) -> (Fig2, Fig2) {
    let config = CoreConfig::config2();
    set_default_sampling(SampleSpec::EXACT);
    let exact = fig2_on(&full_suite(scale), &config);
    set_default_sampling(SampleSpec::standard());
    let sampled = fig2_on(&full_suite(scale), &config);
    set_default_sampling(SampleSpec::EXACT);
    (exact, sampled)
}

fn table6_pair(scale: Scale) -> (Table6, Table6) {
    let config = CoreConfig::config2();
    set_default_sampling(SampleSpec::EXACT);
    let exact = table6_on(&full_suite(scale), &config, &RATES);
    set_default_sampling(SampleSpec::standard());
    let sampled = table6_on(&full_suite(scale), &config, &RATES);
    set_default_sampling(SampleSpec::EXACT);
    (exact, sampled)
}

fn check_fig2(scale: Scale) {
    let (exact, sampled) = fig2_pair(scale);
    assert_eq!(exact.rows.len(), sampled.rows.len());
    for (e, s) in exact.rows.iter().zip(&sampled.rows) {
        assert_eq!(
            (e.interleave, e.regs, e.group),
            (s.interleave, s.regs, s.group)
        );
        let ci = s.filtered.ci.unwrap_or_else(|| {
            panic!(
                "{scale:?} fig2 {}/{}x {}: sampled estimate must carry a CI",
                e.interleave, e.regs, e.group
            )
        });
        let err = (s.filtered.mean - e.filtered.mean).abs();
        assert!(
            err <= ci + EPS,
            "{scale:?} fig2 {}/{}x {}: sampled {:.4} vs exact {:.4}, |err| {err:.4} > ci {ci:.4}",
            e.interleave,
            e.regs,
            e.group,
            s.filtered.mean,
            e.filtered.mean,
        );
    }
}

fn check_table6(scale: Scale) {
    let (exact, sampled) = table6_pair(scale);
    assert_eq!(exact.rows.len(), sampled.rows.len());
    for (e, s) in exact.rows.iter().zip(&sampled.rows) {
        assert_eq!((e.group, e.rate), (s.group, s.rate));
        let ci = s.slowdown_ci.unwrap_or_else(|| {
            panic!(
                "{scale:?} table6 {} @{}: sampled slowdown must carry a CI",
                e.group, e.rate
            )
        });
        let err = (s.slowdown - e.slowdown).abs();
        assert!(
            err <= ci + EPS,
            "{scale:?} table6 {} @{}: sampled slowdown {:.4} vs exact {:.4}, |err| {err:.4} > ci {ci:.4}",
            e.group,
            e.rate,
            s.slowdown,
            e.slowdown,
        );
    }
}

#[test]
fn sampled_estimates_bracket_exact_at_smoke_and_default() {
    for scale in [Scale::Smoke, Scale::Default] {
        check_fig2(scale);
        check_table6(scale);
    }
}
