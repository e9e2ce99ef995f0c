//! Traced in-process driver for the benchmark in `perfbench/`.
//!
//! ```text
//! perfbench-trace facts
//! perfbench-trace <workload> --cache-dir DIR --out FILE [--profile] [--hit-rerun] [--layers]
//! ```
//!
//! Runs one benchmark workload (the full sampled suite) through the
//! library's public entry points (the suite plan, `Engine::try_run_cell` on
//! at most two threads, the suite table, `Report::text`) and records a span
//! around every call: name, start, end, parent span, run id and thread.
//! `--layers` then replays the same inputs through each layer's public
//! functions (oracle emulation, block compile, fast-forward, checkpoint
//! capture, encode, decode, store I/O, detailed windows, cell-cache I/O),
//! also under spans. Spans and work counters stay in memory and are
//! written as one JSON document at the end; `perfbench/run.py` turns them
//! into metrics. The program itself carries no tracing.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dmdc_core::cache::{workload_digest, CacheCounters, CellCache, CheckpointStore};
use dmdc_core::experiments::PolicyKind;
use dmdc_core::report::{fmt, Report, Table};
use dmdc_core::runner::{self, Engine, ProfileTotals, RunSpec};
use dmdc_core::sampling::{Checkpoint, Layout, Warmer};
use dmdc_core::{CellFailure, CellResult};
use dmdc_isa::{BlockCode, Emulator};
use dmdc_ooo::{CoreConfig, SampleSpec, SimOptions, Simulator, PROFILE_STAGE_NAMES};
use dmdc_workloads::{full_suite, Scale, Workload};

/// Worker threads, as in the timed `dmdc ... --jobs 2` invocations.
const JOBS: usize = 2;

/// The sampling engine's functional-warming horizon (instructions before
/// each checkpoint that train the shadow caches and predictors). Mirrors
/// the private constant in `dmdc_core::sampling`; it is also part of the
/// checkpoint store's key description.
const WARM_HORIZON: u64 = 65_536;

/// One benchmark workload, as the timed run invokes it.
#[derive(Clone, Copy, PartialEq)]
enum Bench {
    /// `dmdc suite --policy dmdc-global --scale full --jobs 2`, cold.
    SuiteCold,
    /// `dmdc suite --policy yla-8 --scale full --jobs 2` over a
    /// checkpoint store seeded by `SuiteCold`.
    SuiteCkptWarm,
}

impl Bench {
    fn parse(name: &str) -> Option<Bench> {
        match name {
            "suite-full-cold" => Some(Bench::SuiteCold),
            "suite-full-ckpt-warm" => Some(Bench::SuiteCkptWarm),
            _ => None,
        }
    }

    fn policy(self) -> PolicyKind {
        let token = match self {
            Bench::SuiteCkptWarm => "yla-8",
            _ => "dmdc-global",
        };
        PolicyKind::parse_token(token).expect("registry policy token")
    }
}

/// One recorded span. `work` carries the span's unit count where it has
/// one (instructions emulated, bytes encoded, cell index).
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    run: &'static str,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
    work: u64,
}

/// In-memory span log shared by the worker threads.
struct Tracer {
    t0: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn span<R>(&self, at: At, name: &'static str, f: impl FnOnce(At) -> R) -> R {
        self.span_work(at, name, |child| (f(child), 0))
    }

    /// Runs `f` inside a span named `name` whose parent is `at.parent`;
    /// `f` receives the position of its own children and returns its
    /// result plus the span's work count.
    fn span_work<R>(&self, at: At, name: &'static str, f: impl FnOnce(At) -> (R, u64)) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now();
        let (r, work) = f(At {
            parent: Some(id),
            ..at
        });
        let end_ns = self.now();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent: at.parent,
            name,
            run: at.run,
            thread: at.thread,
            start_ns,
            end_ns,
            work,
        });
        r
    }
}

/// Where a new span goes: its parent, run id and thread lane.
#[derive(Clone, Copy)]
struct At {
    parent: Option<usize>,
    run: &'static str,
    thread: usize,
}

impl At {
    fn root(run: &'static str) -> At {
        At {
            parent: None,
            run,
            thread: 0,
        }
    }

    fn on_thread(self, thread: usize) -> At {
        At { thread, ..self }
    }
}

/// What one traced drive of a workload produced.
struct Drive {
    workloads: Vec<Workload>,
    specs: Vec<RunSpec>,
    cells: Vec<Option<CellResult>>,
    failures: usize,
    text: String,
    oracle: (u64, u64),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let first = args.first().ok_or("usage: perfbench-trace facts | <workload> --cache-dir DIR --out FILE [--profile] [--hit-rerun] [--layers]")?;
    if first == "facts" {
        println!(
            "{{\"sim_fingerprint\": {}, \"policy_fingerprint\": {}, \"available_parallelism\": {}}}",
            quote(dmdc_ooo::SIM_FINGERPRINT),
            quote(dmdc_core::cache::POLICY_FINGERPRINT),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        return Ok(());
    }
    let bench = Bench::parse(first).ok_or_else(|| format!("unknown workload `{first}`"))?;
    let mut cache_dir = None;
    let mut out = None;
    let (mut profile, mut hit_rerun, mut layers) = (false, false, false);
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => cache_dir = it.next().map(PathBuf::from),
            "--out" => out = it.next().map(PathBuf::from),
            "--profile" => profile = true,
            "--hit-rerun" => hit_rerun = true,
            "--layers" => layers = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let cache_dir = cache_dir.ok_or("--cache-dir is required")?;
    let out = out.ok_or("--out is required")?;

    runner::set_default_sampling(SampleSpec::standard());
    runner::set_profile(profile);
    let (cells_cache, store) = install_cache(&cache_dir);

    let tr = Tracer::new();
    let base = drive(bench, &tr, "drive");
    let totals = runner::take_profile_totals();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "\"workload\": {},", quote(first));
    let _ = writeln!(json, "\"jobs\": {JOBS},");
    let _ = writeln!(json, "\"report\": {},", quote(&base.text));
    let mut counters: Vec<(String, u64)> = vec![
        ("cells".into(), base.specs.len() as u64),
        ("failures".into(), base.failures as u64),
        ("oracle_hits".into(), base.oracle.0),
        ("oracle_misses".into(), base.oracle.1),
    ];
    push_cache("cell", cells_cache.counters(), &mut counters);
    push_cache("ckpt", store.counters(), &mut counters);
    let (exact_committed, exact_cycles) = base
        .cells
        .iter()
        .flatten()
        .filter(|c| !c.stats.is_sampled())
        .fold((0, 0), |(n, c), cell| {
            (n + cell.stats.committed, c + cell.stats.cycles)
        });
    counters.push(("exact_committed".into(), exact_committed));
    counters.push(("exact_cycles".into(), exact_cycles));
    if profile {
        push_totals(&totals, &mut counters);
    }

    if hit_rerun {
        // Fresh handles so the counters cover the rerun alone.
        let (c, s) = install_cache(&cache_dir);
        let again = drive(bench, &tr, "hit-rerun");
        push_cache("rerun_cell", c.counters(), &mut counters);
        push_cache("rerun_ckpt", s.counters(), &mut counters);
        counters.push((
            "rerun_report_differs".into(),
            u64::from(again.text != base.text),
        ));
        runner::take_profile_totals();
    }

    if layers {
        let scratch = cache_dir.with_file_name("perfbench-layers");
        let _ = std::fs::remove_dir_all(&scratch);
        let replay = replay_layers(bench, &tr, &base, &cache_dir, &scratch)?;
        counters.extend(replay);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    json.push_str("\"counters\": {");
    for (i, (k, v)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}{}: {v}", quote(k));
    }
    json.push_str("},\n\"spans\": [\n");
    let spans = tr.spans.into_inner().expect("span log poisoned");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            json,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"run\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}{sep}",
            s.id,
            quote(s.name),
            quote(s.run),
            s.thread,
            s.start_ns,
            s.end_ns,
            s.work,
        );
    }
    json.push_str("]\n}\n");
    std::fs::write(&out, json).map_err(|e| format!("writing {}: {e}", out.display()))
}

/// Installs the process-wide cell cache and checkpoint store the way the
/// CLI does, both rooted at `dir`.
fn install_cache(dir: &Path) -> (Arc<CellCache>, Arc<CheckpointStore>) {
    let cells = Arc::new(CellCache::new(dir));
    let store = Arc::new(CheckpointStore::new(dir));
    runner::set_global_cell_cache(Some(cells.clone()));
    runner::set_global_checkpoint_store(Some(store.clone()));
    (cells, store)
}

/// Plans, runs, reduces and renders one workload under a root span.
fn drive(bench: Bench, tr: &Tracer, run: &'static str) -> Drive {
    tr.span(At::root(run), "drive", |at| {
        let (workloads, specs) = tr.span(at, "experiments.plan", |_| plan(bench));
        let engine = Engine::with_jobs(&workloads, JOBS);
        let results = tr.span(at, "runner.pool", |pool| {
            run_pool(&engine, &specs, tr, pool)
        });
        let oracle = engine.oracle_stats();
        let report = tr.span(at, "experiments.reduce", |_| {
            reduce(bench, &workloads, &results)
        });
        let text = tr.span(at, "report.render", |_| report.text());
        let failures = results.iter().filter(|r| r.is_err()).count();
        let cells = results.into_iter().map(Result::ok).collect();
        drop(engine);
        Drive {
            workloads,
            specs,
            cells,
            failures,
            text,
            oracle,
        }
    })
}

/// The full suite and one spec per workload, as `dmdc suite` plans them.
fn plan(bench: Bench) -> (Vec<Workload>, Vec<RunSpec>) {
    let suite = full_suite(Scale::Full);
    let config = CoreConfig::config2();
    let specs = (0..suite.len())
        .map(|i| RunSpec::new(i, &config, bench.policy()))
        .collect();
    (suite, specs)
}

/// Runs every spec through `Engine::try_run_cell` on `JOBS` threads that
/// pull cells in spec order, one span per cell.
fn run_pool(
    engine: &Engine<'_>,
    specs: &[RunSpec],
    tr: &Tracer,
    pool: At,
) -> Vec<Result<CellResult, CellFailure>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CellResult, CellFailure>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for lane in 1..=JOBS.min(specs.len()) {
            let (next, slots) = (&next, &slots);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let r = tr.span_work(pool.on_thread(lane), "runner.cell", |_| {
                    (engine.try_run_cell(spec), i as u64)
                });
                *slots[i].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every cell ran")
        })
        .collect()
}

/// Builds the workload's report from its cells: the same table
/// `dmdc suite` prints.
fn reduce(
    bench: Bench,
    workloads: &[Workload],
    results: &[Result<CellResult, CellFailure>],
) -> Report {
    let failures: Vec<CellFailure> = results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    let config = CoreConfig::config2();
    let mut t = Table::new(format!(
        "suite under {:?} on {}",
        bench.policy(),
        config.name
    ));
    t.headers([
        "workload",
        "group",
        "IPC",
        "replays/1M",
        "safe stores",
        "safe loads",
    ]);
    for (w, r) in workloads.iter().zip(results) {
        let Ok(r) = r else { continue };
        let s = &r.stats;
        let row = if s.is_sampled() {
            let sp = &s.sampling;
            [
                fmt::f2_ci(s.ipc(), sp.ipc_ci()),
                fmt::f1_ci(
                    s.per_million(s.policy.replays.total()),
                    sp.replays_per_m_ci(),
                ),
                fmt::pct_ci(s.policy.store_filter_rate(), sp.filter_rate_ci()),
                fmt::pct_ci(s.policy.safe_load_rate(), sp.safe_load_rate_ci()),
            ]
        } else {
            [
                fmt::f2(s.ipc()),
                fmt::f1(s.per_million(s.policy.replays.total())),
                fmt::pct(s.policy.store_filter_rate()),
                fmt::pct(s.policy.safe_load_rate()),
            ]
        };
        let [ipc, replays, stores, loads] = row;
        t.row([
            w.name.to_string(),
            w.group.to_string(),
            ipc,
            replays,
            stores,
            loads,
        ]);
    }
    let mut report = Report::single("suite", t);
    for f in failures {
        report.push_failure(f);
    }
    report
}

/// Replays the drive's inputs through each layer's public functions,
/// single-threaded, one span per call. Returns the replay's work counters.
fn replay_layers(
    bench: Bench,
    tr: &Tracer,
    drive: &Drive,
    cache_dir: &Path,
    scratch: &Path,
) -> Result<Vec<(String, u64)>, String> {
    let config = CoreConfig::config2();
    let spec = SampleSpec::standard();
    let policy = bench.policy();
    let stored = CheckpointStore::new(cache_dir);
    let scratch_store = CheckpointStore::new(scratch);
    let scratch_cells = CellCache::new(scratch);
    let mut c = ReplayCounters::default();
    tr.span(At::root("layers"), "layers", |at| -> Result<(), String> {
        // Cell-cache I/O over the drive's own cells.
        for (spec_i, cell) in drive.specs.iter().zip(&drive.cells) {
            let Some(cell) = cell else { continue };
            let w = &drive.workloads[spec_i.workload];
            let key = scratch_cells.key(workload_digest(w), &spec_i.desc());
            tr.span(at, "cache.cell_store", |_| scratch_cells.store(key, cell));
            let back = tr.span(at, "cache.cell_load", |_| scratch_cells.load(key, w.name));
            c.cell_load_misses += u64::from(back.is_none());
        }
        for w in &drive.workloads {
            let code = tr.span(at, "isa.compile", |_| BlockCode::compile(&w.program));
            let population = tr.span_work(at, "oracle.run_silent", |_| {
                let mut emu = Emulator::new(&w.program);
                let ok = emu.run_silent(&code, u64::MAX).is_ok();
                ((ok, emu.retired()), emu.retired())
            });
            let (true, population) = population else {
                return Err(format!("{} does not halt under emulation", w.name));
            };
            c.oracle_insts += population;
            let Some(layout) = Layout::plan(&spec, population) else {
                continue;
            };
            let digest = workload_digest(w);
            let desc = format!("{config:?}|{spec:?}|pop {population}|horizon {WARM_HORIZON}");
            let mut emu = Emulator::new(&w.program);
            let mut warm = Warmer::new(&config);
            for i in 0..layout.windows {
                let window = i as u32;
                let ck = if bench == Bench::SuiteCkptWarm {
                    let key = stored.key(digest, &desc, window);
                    tr.span(at, "cache.ckpt_load", |_| stored.load(key, w.name, window))
                        .ok_or_else(|| {
                            format!("{} window {i}: checkpoint not in the store", w.name)
                        })?
                } else {
                    let target = layout.checkpoint_at(i);
                    let silent_until = target.saturating_sub(WARM_HORIZON);
                    if emu.retired() < silent_until {
                        let n = silent_until - emu.retired();
                        c.ff_insts += n;
                        tr.span_work(at, "isa.ff_silent", |_| {
                            (emu.run_silent(&code, silent_until).map(|_| ()), n)
                        })
                        .map_err(|e| format!("{} fast-forward: {e}", w.name))?;
                    }
                    let n = target - emu.retired();
                    c.ff_insts += n;
                    tr.span_work(at, "isa.ff_observed", |_| {
                        (emu.run_observed(&code, target, &mut warm), n)
                    })
                    .map_err(|e| format!("{} fast-forward: {e}", w.name))?;
                    tr.span(at, "sampling.ckpt_capture", |_| {
                        Checkpoint::capture(window, &emu, &warm)
                    })
                };
                let text = tr.span_work(at, "cache.ckpt_encode", |_| {
                    let t = ck.encode();
                    let n = t.len() as u64;
                    (t, n)
                });
                c.ckpt_bytes += text.len() as u64;
                let back = tr.span(at, "cache.ckpt_decode", |_| {
                    Checkpoint::decode(&mut text.lines())
                });
                c.ckpt_roundtrip_mismatches += u64::from(back.as_ref() != Some(&ck));
                // Both store directions on every checkpoint: the cold suite
                // stores and loads it back, the warm one loaded it from the
                // seeded store above and stores it here.
                let key = scratch_store.key(digest, &desc, window);
                tr.span(at, "cache.ckpt_store", |_| {
                    scratch_store.store(key, w.name, &ck)
                });
                if bench == Bench::SuiteCold {
                    let back = tr.span(at, "cache.ckpt_load", |_| {
                        scratch_store.load(key, w.name, window)
                    });
                    c.ckpt_roundtrip_mismatches += u64::from(back.as_ref() != Some(&ck));
                }
                let (all, measured) = tr.span_work(at, "sampling.window", |_| {
                    let r = run_window(w, &config, &policy, spec, &layout, &ck);
                    let committed = r.as_ref().map_or(0, |(all, _)| all.0);
                    (r, committed)
                })?;
                c.windows += 1;
                c.window_all_committed += all.0;
                c.window_all_cycles += all.1;
                c.window_committed += measured.0;
                c.window_cycles += measured.1;
            }
        }
        Ok(())
    })?;
    Ok(c.into_vec())
}

#[derive(Default)]
struct ReplayCounters {
    oracle_insts: u64,
    ff_insts: u64,
    windows: u64,
    window_all_committed: u64,
    window_all_cycles: u64,
    window_committed: u64,
    window_cycles: u64,
    ckpt_bytes: u64,
    ckpt_roundtrip_mismatches: u64,
    cell_load_misses: u64,
}

impl ReplayCounters {
    fn into_vec(self) -> Vec<(String, u64)> {
        [
            ("layers_oracle_insts", self.oracle_insts),
            ("layers_ff_insts", self.ff_insts),
            ("layers_windows", self.windows),
            ("layers_window_all_committed", self.window_all_committed),
            ("layers_window_all_cycles", self.window_all_cycles),
            ("layers_window_committed", self.window_committed),
            ("layers_window_cycles", self.window_cycles),
            ("layers_ckpt_bytes", self.ckpt_bytes),
            (
                "layers_ckpt_roundtrip_mismatches",
                self.ckpt_roundtrip_mismatches,
            ),
            ("layers_cell_load_misses", self.cell_load_misses),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// `(committed, cycles)` of a detailed simulation span.
type Commits = (u64, u64);

/// One detailed window from `ck` on a fresh simulator: a discarded warmup
/// run, then a resume over the measured span — the calls the sampling
/// engine makes per window. Returns the whole window's and the measured
/// span's counts.
fn run_window(
    w: &Workload,
    config: &CoreConfig,
    policy: &PolicyKind,
    spec: SampleSpec,
    layout: &Layout,
    ck: &Checkpoint,
) -> Result<(Commits, Commits), String> {
    let (hier, bpred, btb) = ck
        .warm_state(config)
        .ok_or_else(|| format!("{} window {}: warm state does not fit", w.name, ck.window))?;
    let fp_regs = ck.fp_bits.map(f64::from_bits);
    let mut sim = Simulator::new(&w.program, config.clone(), policy.build(config));
    sim.restore_checkpoint(ck.pc, &ck.int_regs, &fp_regs, ck.memory(), hier, bpred, btb);
    let mut opts = SimOptions {
        sampling: spec,
        audit: false,
        collect_commit_log: false,
        trace_capacity: 0,
        max_commits: Some(layout.warmup),
        ..SimOptions::default()
    };
    let err = |e| format!("{} window {}: {e}", w.name, ck.window);
    let a = sim.run(opts).map_err(err)?;
    opts.max_commits = Some(layout.warmup + layout.measure);
    let b = sim.resume(opts).map_err(err)?;
    Ok((
        (b.stats.committed, b.stats.cycles),
        (
            b.stats.committed - a.stats.committed,
            b.stats.cycles - a.stats.cycles,
        ),
    ))
}

fn push_cache(prefix: &str, c: CacheCounters, out: &mut Vec<(String, u64)>) {
    for (k, v) in [
        ("hits", c.hits),
        ("misses", c.misses),
        ("stores", c.stores),
        ("corrupt", c.corrupt),
    ] {
        out.push((format!("{prefix}_{k}"), v));
    }
}

fn push_totals(t: &ProfileTotals, out: &mut Vec<(String, u64)>) {
    for (k, v) in [
        ("profile_runs", t.runs),
        ("simulated_cycles", t.simulated_cycles),
        ("executed_cycles", t.executed_cycles),
        ("skipped_cycles", t.skipped_cycles),
        ("fast_forwards", t.fast_forwards),
        ("ff_insts", t.ff_insts),
        ("ff_blocks", t.ff_blocks),
        ("ff_fallback_steps", t.ff_fallback_steps),
        ("ckpt_shared", t.ckpt_shared),
        ("window_cycles", t.window_cycles),
        ("window_committed", t.window_committed),
        ("sampled_cells", t.sampled_cells),
        ("ff_nanos", t.ff_nanos),
        ("compile_nanos", t.compile_nanos),
        ("window_nanos", t.window_nanos),
    ] {
        out.push((k.to_string(), v));
    }
    for (i, name) in PROFILE_STAGE_NAMES.iter().enumerate() {
        out.push((format!("stage_nanos_{name}"), t.stage_nanos[i]));
        out.push((format!("stage_active_{name}"), t.stage_active_cycles[i]));
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
