//! The declarative experiment pipeline: **plan → run → reduce → emit**.
//!
//! Every paper artifact (Figs. 2–5, Tables 2–6, the ablations) is an
//! [`Experiment`]: a registry entry that *plans* a flat matrix of
//! independent [`RunSpec`] cells at a [`Scale`], has them *run* by the
//! parallel [`Engine`](crate::runner::Engine) — which verifies each cell
//! against the functional emulator and serves unchanged cells from the
//! persistent content-addressed [cell cache](crate::cache) — and then
//! *reduces* the uniform [`CellResult`] records to a typed table,
//! *emitted* as text, JSON or CSV through [`Report`].
//!
//! The `*_on` variants take an explicit workload slice so tests (and
//! impatient users) can run reduced sets; the registry entries plan the
//! full suite at the requested scale. Both funnel through the same
//! variant lists and reducers, so `dmdc experiment fig2` and
//! [`fig2_on`] cannot drift apart.
//!
//! Cells run concurrently across a worker pool, results come back in
//! spec order, and the emulator's reference state is computed once per
//! workload and shared by every cell (see [`crate::runner`]). Output is
//! byte-identical at any worker count, with or without the cache.

use dmdc_energy::StructureGeometry;
use dmdc_isa::Emulator;
use dmdc_ooo::{BaselinePolicy, CoreConfig, MemDepPolicy, SimOptions, Simulator};
use dmdc_workloads::{Group, Scale, Workload};

use crate::cell::{CellError, CellFailure, FailureKind};
use crate::report::{GroupStat, Report};
use crate::runner::{Engine, RunCtx, RunSpec};
use crate::{BloomPolicy, CheckingQueuePolicy, DmdcConfig, DmdcPolicy, Interleave, YlaPolicy};

mod defs;

pub use crate::cell::CellResult;
pub use defs::*;

/// Backwards-compatible alias: a "run" is one verified cell.
pub type Run = CellResult;

/// Which dependence-checking design to instantiate for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Conventional CAM load queue.
    Baseline,
    /// Conventional design with POWER4-style coherence searches.
    BaselineCoherent,
    /// YLA filtering in front of the CAM LQ.
    Yla {
        /// Register count.
        regs: u32,
        /// Quad-word (`false`) or cache-line (`true`) interleaving.
        line_interleaved: bool,
    },
    /// Bloom-filter search filtering (\[18\]).
    Bloom {
        /// Filter entries.
        entries: u32,
    },
    /// DMDC with the global end-check register.
    DmdcGlobal,
    /// DMDC with local (per-store) windows.
    DmdcLocal,
    /// Global DMDC with INV-bit coherence support.
    DmdcCoherent,
    /// Global DMDC with the safe-load optimization disabled (ablation).
    DmdcNoSafeLoads,
    /// DMDC with the associative checking queue instead of the table.
    CheckingQueue {
        /// Queue entries.
        entries: u32,
    },
}

impl PolicyKind {
    /// Builds the policy for a machine configuration.
    pub fn build(&self, config: &CoreConfig) -> Box<dyn MemDepPolicy> {
        match *self {
            PolicyKind::Baseline => Box::new(BaselinePolicy::new()),
            PolicyKind::BaselineCoherent => {
                Box::new(BaselinePolicy::with_coherence(config.l2.line_bytes))
            }
            PolicyKind::Yla {
                regs,
                line_interleaved,
            } => {
                let il = if line_interleaved {
                    Interleave::CacheLine(config.l2.line_bytes)
                } else {
                    Interleave::QuadWord
                };
                Box::new(YlaPolicy::new(regs, il))
            }
            PolicyKind::Bloom { entries } => Box::new(BloomPolicy::new(entries)),
            PolicyKind::DmdcGlobal => Box::new(DmdcPolicy::new(DmdcConfig::global(config))),
            PolicyKind::DmdcLocal => Box::new(DmdcPolicy::new(DmdcConfig::local(config))),
            PolicyKind::DmdcCoherent => {
                Box::new(DmdcPolicy::new(DmdcConfig::global(config).with_coherence()))
            }
            PolicyKind::DmdcNoSafeLoads => Box::new(DmdcPolicy::new(
                DmdcConfig::global(config).without_safe_loads(),
            )),
            PolicyKind::CheckingQueue { entries } => {
                Box::new(CheckingQueuePolicy::new(config, entries))
            }
        }
    }

    /// Stable CLI/repro-file token (`dmdc run --policy <token>`); parsed
    /// back by [`PolicyKind::parse_token`].
    pub fn token(&self) -> String {
        match self {
            PolicyKind::Baseline => "baseline".to_string(),
            PolicyKind::BaselineCoherent => "baseline-coherent".to_string(),
            PolicyKind::Yla {
                regs,
                line_interleaved,
            } => {
                if *line_interleaved {
                    format!("yla-line-{regs}")
                } else {
                    format!("yla-{regs}")
                }
            }
            PolicyKind::Bloom { entries } => format!("bloom-{entries}"),
            PolicyKind::DmdcGlobal => "dmdc-global".to_string(),
            PolicyKind::DmdcLocal => "dmdc-local".to_string(),
            PolicyKind::DmdcCoherent => "dmdc-coherent".to_string(),
            PolicyKind::DmdcNoSafeLoads => "dmdc-no-safe-loads".to_string(),
            PolicyKind::CheckingQueue { entries } => format!("queue-{entries}"),
        }
    }

    /// Parses a [`PolicyKind::token`] (plus the `dmdc` alias for
    /// `dmdc-global`).
    pub fn parse_token(name: &str) -> Result<PolicyKind, String> {
        Ok(match name {
            "baseline" => PolicyKind::Baseline,
            "baseline-coherent" => PolicyKind::BaselineCoherent,
            "dmdc-global" | "dmdc" => PolicyKind::DmdcGlobal,
            "dmdc-local" => PolicyKind::DmdcLocal,
            "dmdc-coherent" => PolicyKind::DmdcCoherent,
            "dmdc-no-safe-loads" => PolicyKind::DmdcNoSafeLoads,
            other => {
                if let Some(regs) = other.strip_prefix("yla-line-") {
                    let regs: u32 = regs
                        .parse()
                        .map_err(|_| format!("bad YLA count in `{other}`"))?;
                    PolicyKind::Yla {
                        regs,
                        line_interleaved: true,
                    }
                } else if let Some(regs) = other.strip_prefix("yla-") {
                    let regs: u32 = regs
                        .parse()
                        .map_err(|_| format!("bad YLA count in `{other}`"))?;
                    PolicyKind::Yla {
                        regs,
                        line_interleaved: false,
                    }
                } else if let Some(entries) = other.strip_prefix("bloom-") {
                    let entries: u32 = entries
                        .parse()
                        .map_err(|_| format!("bad bloom size in `{other}`"))?;
                    PolicyKind::Bloom { entries }
                } else if let Some(entries) = other.strip_prefix("queue-") {
                    let entries: u32 = entries
                        .parse()
                        .map_err(|_| format!("bad queue size in `{other}`"))?;
                    PolicyKind::CheckingQueue { entries }
                } else {
                    return Err(format!("unknown policy `{other}` (see `dmdc list`)"));
                }
            }
        })
    }

    /// The energy-model geometry matching this design.
    pub fn geometry(&self, config: &CoreConfig) -> StructureGeometry {
        match *self {
            PolicyKind::Baseline | PolicyKind::BaselineCoherent => {
                StructureGeometry::conventional(config)
            }
            PolicyKind::Yla { regs, .. } => StructureGeometry::yla_filtered(config, regs),
            PolicyKind::Bloom { entries } => StructureGeometry::bloom_filtered(config, entries),
            PolicyKind::DmdcGlobal | PolicyKind::DmdcLocal | PolicyKind::DmdcNoSafeLoads => {
                StructureGeometry::dmdc(config, 8)
            }
            PolicyKind::DmdcCoherent => StructureGeometry::dmdc(config, 16),
            PolicyKind::CheckingQueue { entries } => {
                StructureGeometry::checking_queue(config, entries, 8)
            }
        }
    }
}

/// One machine/policy/options combination to run every workload under —
/// one column of an experiment's cell matrix.
pub type Variant = (CoreConfig, PolicyKind, SimOptions);

/// An experiment's planned cell matrix: every workload crossed with every
/// variant. The flat spec list is variant-major (all workloads under
/// variant 0, then variant 1, ...), matching the chunk layout reducers
/// consume.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload set (one oracle emulation each, shared across
    /// variants).
    pub workloads: Vec<Workload>,
    /// The variants, in output order.
    pub variants: Vec<Variant>,
}

impl Plan {
    /// Plans `variants` over `workloads`.
    pub fn matrix(workloads: Vec<Workload>, variants: Vec<Variant>) -> Plan {
        Plan {
            workloads,
            variants,
        }
    }

    /// Total number of cells (`workloads × variants`).
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.variants.len()
    }

    /// The flat, variant-major spec list.
    pub fn specs(&self) -> Vec<RunSpec> {
        self.variants
            .iter()
            .flat_map(|(config, kind, opts)| {
                (0..self.workloads.len()).map(move |i| RunSpec {
                    workload: i,
                    config: config.clone(),
                    policy: kind.clone(),
                    opts: *opts,
                })
            })
            .collect()
    }
}

/// One paper artifact as a registry entry: plans its cell matrix at a
/// scale and reduces the resulting cells to a [`Report`].
///
/// `reduce` is a pure function of the cells (plus the entry's own
/// constants), so cells may come from live simulation, the parallel
/// worker pool or the persistent cell cache interchangeably.
pub trait Experiment: Sync {
    /// Stable registry id (`"fig2"`, `"table6"`, `"ablation-queue"`, ...).
    fn id(&self) -> &'static str;

    /// Which paper table/figure/section this regenerates.
    fn paper_ref(&self) -> &'static str;

    /// The full cell matrix at `scale`.
    fn plan(&self, scale: Scale) -> Plan;

    /// Reduces cells (flat, in [`Plan::specs`] order) to the rendered
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not have the planned matrix shape.
    fn reduce(&self, cells: &[CellResult]) -> Report;
}

/// Every paper artifact, in the order `dmdc experiment all` prints them.
pub fn registry() -> &'static [&'static dyn Experiment] {
    &[
        &Fig2Exp,
        &Fig3Exp,
        &Fig4Exp,
        &Fig5Exp,
        &Table2Exp,
        &Table3Exp,
        &Table4Exp,
        &Table5Exp,
        &Table6Exp,
        &MulticoreExp,
        &CheckingQueueAblationExp,
        &TableSizeAblationExp,
        &SafeLoadAblationExp,
        &SqFilterAblationExp,
        &YlaEnergyExp,
    ]
}

/// The ablation subset (the historical `dmdc experiment ablations`
/// output, in order).
pub const ABLATION_IDS: [&str; 5] = [
    "ablation-queue",
    "ablation-table-size",
    "ablation-safe-loads",
    "ablation-sq-filter",
    "yla-energy",
];

/// Looks up a registry entry by id.
pub fn find_experiment(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

/// Runs one registry experiment end to end (plan → run → reduce) at the
/// given scale under `ctx` (worker count, sampling spec, cell cache,
/// journal, retry policy).
///
/// Cells that exhaust their retries are quarantined: the returned
/// [`Report`] then carries the structured [`CellFailure`] records instead
/// of the reduced tables (a partial matrix cannot be reduced honestly),
/// and the process lives on to run the remaining experiments.
pub fn run_experiment(exp: &dyn Experiment, scale: Scale, ctx: &RunCtx) -> Report {
    let (cells, failures) = execute_plan(&exp.plan(scale), ctx);
    if failures.is_empty() {
        let cells: Vec<CellResult> = cells
            .into_iter()
            .map(|c| c.expect("no failures, so every cell is present"))
            .collect();
        exp.reduce(&cells)
    } else {
        let mut report = Report::new(exp.id());
        for f in failures {
            report.push_failure(f);
        }
        report
    }
}

/// Executes a plan's cells through one engine, logging the engine's
/// sharing counters to stderr (stdout stays reserved for the tables).
/// Failed cells come back as `None` slots plus their [`CellFailure`]s.
fn execute_plan(plan: &Plan, ctx: &RunCtx) -> (Vec<Option<CellResult>>, Vec<CellFailure>) {
    let engine = Engine::with_ctx(&plan.workloads, ctx.clone());
    let specs = plan.specs();
    let (cells, failures) = engine.run_all_recovered(&specs);
    log_engine(&engine, specs.len());
    (cells, failures)
}

fn log_engine(engine: &Engine<'_>, cells: usize) {
    let (hits, misses) = engine.oracle_stats();
    eprintln!(
        "[runner] jobs={} cells={cells} oracle: {misses} emulations, {hits} cache hits",
        engine.jobs(),
    );
    if let Some(c) = engine.cache_counters() {
        eprintln!(
            "[cache] cells: {} hits, {} misses, {} stored",
            c.hits, c.misses, c.stores
        );
    }
}

/// One verified simulation cell. See [`CellResult`]; this free function
/// is the single execution funnel both the serial path and the engine's
/// workers use.
///
/// Every way the cell can go wrong — a simulator error, a workload the
/// oracle cannot verify, an architectural-state divergence, an auditor
/// violation — comes back as a structured [`CellError`] instead of a
/// panic, so the engine's fault-tolerant layer can retry or quarantine
/// the cell without killing the process.
pub(crate) fn execute_verified(
    ctx: &RunCtx,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    mut opts: SimOptions,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    if ctx.profile {
        opts.profile = true;
    }
    if opts.sampling.enabled() {
        return crate::sampling::execute_sampled(ctx, workload, config, policy_kind, opts, oracle);
    }
    execute_exact(ctx, workload, config, policy_kind, opts, oracle)
}

/// The exact (every-instruction) execution path: one detailed simulation,
/// verified against the emulator reference when it halts. Also the
/// sampling engine's fallback for populations too small to sample.
pub(crate) fn execute_exact(
    ctx: &RunCtx,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    let policy = policy_kind.build(config);
    let mut sim = Simulator::new(&workload.program, config.clone(), policy);
    let result = sim.run(opts).map_err(|e| {
        CellError::new(
            FailureKind::SimError,
            format!(
                "{} under {policy_kind:?} on {}: {e}",
                workload.name, config.name
            ),
        )
    })?;
    if result.halted {
        let (expected, _retired) =
            oracle().map_err(|e| CellError::new(FailureKind::OracleMustHalt, e))?;
        if result.checksum != expected {
            return Err(CellError::new(
                FailureKind::StateDivergence,
                format!(
                    "golden-state mismatch: {} under {policy_kind:?} on {}: simulated {:#x}, emulator {expected:#x}",
                    workload.name, config.name, result.checksum
                ),
            ));
        }
    }
    if let Some(audit) = &result.audit {
        if !audit.is_clean() {
            return Err(CellError::new(
                FailureKind::Audit,
                format!(
                    "invariant auditor: {} under {policy_kind:?} on {}:\n{}",
                    workload.name,
                    config.name,
                    audit.render()
                ),
            ));
        }
    }
    if let Some(profile) = &result.profile {
        ctx.record_profile(profile, &result.stats);
    }
    Ok(CellResult {
        workload: workload.name.to_string(),
        group: workload.group,
        stats: result.stats,
    })
}

/// Runs `workload` under `policy_kind` on `config`, verifying the final
/// architectural state against the functional emulator when the run halts.
///
/// This is the standalone single-run entry point (correctness tests,
/// examples) under a bare [`RunCtx`]: nothing cached, journaled or
/// profiled. Experiments instead batch their cells through
/// [`crate::runner::Engine`], which memoizes the emulator oracle across
/// cells and consults the cell cache; here each call emulates afresh.
///
/// # Panics
///
/// Panics if the simulation's architectural state diverges from the
/// emulator — a standalone caller has nowhere to surface a structured
/// failure, so this stays fatal. The engine's
/// [`try_run_cell`](crate::runner::Engine::try_run_cell) path returns the
/// same condition as a [`CellFailure`](crate::cell::CellFailure) instead.
pub fn run_workload(
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
) -> CellResult {
    run_workload_in(&RunCtx::default(), workload, config, policy_kind, opts)
}

/// [`run_workload`] under `ctx` (CLI `dmdc run --sampled`): sampled runs
/// restore checkpoints from its store and keep their partial-progress
/// envelope under its journal; with profiling on, the run's profile
/// lands in its sink.
///
/// # Panics
///
/// As [`run_workload`].
pub fn run_workload_in(
    ctx: &RunCtx,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
) -> CellResult {
    execute_verified(ctx, workload, config, policy_kind, opts, || {
        let mut emu = Emulator::new(&workload.program);
        let retired = emu
            .run(u64::MAX)
            .map_err(|e| format!("{} must halt under emulation: {e}", workload.name))?;
        Ok((emu.state_checksum(), retired))
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Aggregates `f` over the cells of one suite group.
pub(crate) fn group_stat<F: Fn(&CellResult) -> f64>(
    cells: &[CellResult],
    group: Group,
    f: F,
) -> GroupStat {
    let vals: Vec<f64> = cells.iter().filter(|r| r.group == group).map(f).collect();
    GroupStat::of(&vals)
}

/// Like [`group_stat`], but also propagates per-cell sampling CIs: `ci`
/// extracts the 95% half-width the sampling engine attached to a sampled
/// cell (exact cells return `None` and contribute zero uncertainty). The
/// group stat carries a CI iff at least one cell was sampled, so exact
/// runs render byte-identically to before.
pub(crate) fn group_stat_ci<F, C>(cells: &[CellResult], group: Group, f: F, ci: C) -> GroupStat
where
    F: Fn(&CellResult) -> f64,
    C: Fn(&CellResult) -> Option<f64>,
{
    let picked: Vec<&CellResult> = cells.iter().filter(|r| r.group == group).collect();
    let vals: Vec<f64> = picked.iter().map(|r| f(r)).collect();
    let cis: Vec<Option<f64>> = picked.iter().map(|r| ci(r)).collect();
    GroupStat::of_ci(&vals, &cis)
}

/// Runs every workload under each variant through one shared engine,
/// returning one chunk of cells per variant, each in workload order. The
/// `_on` experiment functions use this; registry entries go through
/// [`run_experiment`], which executes the identical matrix as one flat
/// plan.
///
/// # Panics
///
/// Panics if any cell is quarantined — the typed `*_on` entry points
/// return bare tables with nowhere to surface structured failures.
pub(crate) fn run_matrix(workloads: &[Workload], variants: &[Variant]) -> Vec<Vec<CellResult>> {
    let ctx = crate::runner::default_ctx();
    let plan = Plan::matrix(workloads.to_vec(), variants.to_vec());
    let (cells, failures) = execute_plan(&plan, &ctx);
    if let Some(f) = failures.first() {
        panic!(
            "cell {} quarantined after {} attempts: [{}] {}",
            f.workload, f.attempts, f.kind, f.detail
        );
    }
    let cells: Vec<CellResult> = cells
        .into_iter()
        .map(|c| c.expect("no failures, so every cell is present"))
        .collect();
    chunk_by_variants(&cells, variants.len())
}

/// Splits a flat, variant-major cell list into per-variant chunks.
///
/// # Panics
///
/// Panics if `cells` does not divide evenly into `n_variants` chunks.
pub(crate) fn chunk_by_variants(cells: &[CellResult], n_variants: usize) -> Vec<Vec<CellResult>> {
    assert!(n_variants > 0, "an experiment needs at least one variant");
    assert_eq!(
        cells.len() % n_variants,
        0,
        "{} cells do not form a {n_variants}-variant matrix",
        cells.len()
    );
    let per = cells.len() / n_variants;
    cells.chunks(per).map(<[CellResult]>::to_vec).collect()
}
