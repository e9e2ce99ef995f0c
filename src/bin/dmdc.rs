//! `dmdc` — command-line front end for the reproduction.
//!
//! ```text
//! dmdc list                                   # workloads, policies, experiments
//! dmdc run --workload histo --policy dmdc-global [--config 2] [--trace 64]
//! dmdc run --workload synthetic --policy baseline --inval-rate 10
//! dmdc suite --policy dmdc-global [--scale smoke|default|large]
//! dmdc experiment <id>|ablations|all [--format text|json|csv] [--no-cache]
//! dmdc asm path/to/program.s                  # assemble + emulate a file
//! dmdc serve [--addr 127.0.0.1:8181] [--state-dir DIR] [--quota N]
//! dmdc submit --workload histo --policy dmdc-global [--wait]
//! dmdc status [--job job-1]                   # poll the daemon
//! dmdc metrics                                # service counters
//! ```
//!
//! `suite` and `experiment` consult the persistent content-addressed cell
//! cache under `target/dmdc-cache/` by default: a repeated invocation
//! replays previously verified cells instead of re-simulating them.
//! `--no-cache` disables the cache for one invocation; editing a workload,
//! a config or the simulator invalidates the affected cells automatically
//! (see DESIGN.md §9).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dmdc::core::cache::{default_cache_dir, default_fingerprint, CellCache, CheckpointStore};
use dmdc::core::experiments::{self, PolicyKind};
use dmdc::core::faults::FaultPlan;
use dmdc::core::fuzz::{self, FuzzOptions};
use dmdc::core::journal::{default_runs_dir, RunJournal};
use dmdc::core::recovery;
use dmdc::core::report::{fmt, OutputFormat, Report, Table};
use dmdc::core::runner::{Engine, RunCtx, RunSpec};
use dmdc::core::service::{self, http, jobs, json, ServeOptions};
use dmdc::isa::{Assembler, Emulator};
use dmdc::ooo::{run_multicore, CoreConfig, MultiCoreOptions, SampleSpec, SimOptions, Simulator};
use dmdc::workloads::{full_suite, Scale, SyntheticKernel, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `dmdc help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{}", usage());
            Ok(())
        }
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..], None),
        Some("suite") => cmd_suite(&args[1..], None),
        Some("experiment") => cmd_experiment(&args[1..], None),
        Some("asm") => cmd_asm(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn usage() -> String {
    "dmdc — DMDC (MICRO 2006) reproduction driver

USAGE:
  dmdc list
  dmdc run --workload <name> --policy <name> [--config 1|2|3]
           [--scale smoke|default|large|full] [--inval-rate R] [--trace N]
           [--profile] [--sampled|--exact] [--run-id ID]
           [--inval-model injected|coherent] [--cores N] [--seed N]
  dmdc run --resume <run-id>
  dmdc suite --policy <name> [--config N] [--scale S] [--jobs N]
           [--format text|json|csv] [--no-cache] [--profile]
           [--run-id ID] [--retries N] [--cell-timeout MS] [--sampled|--exact]
  dmdc experiment <id|ablations|all> [--scale S] [--jobs N]
           [--format text|json|csv] [--no-cache] [--profile]
           [--run-id ID] [--retries N] [--cell-timeout MS] [--sampled|--exact]
  dmdc asm <file.s>
  dmdc fuzz [--seed N] [--budget N] [--policy <name>] [--config N]
           [--out DIR] [--threads N]
  dmdc fuzz --replay <file.repro>
  dmdc serve [--addr 127.0.0.1:8181] [--state-dir DIR] [--quota N]
           [--paused] [--jobs N]
  dmdc submit [--addr A] --workload <name> --policy <name> [--config N]
           [--scale S] [--inval-rate R] [--sampled] [--priority 0..255]
           [--client NAME] [--wait [--max-wait SECS]]
  dmdc submit [--addr A] --experiment <id> [--scale S] [--priority P]
           [--client NAME] [--wait [--max-wait SECS]]
  dmdc status [--addr A] [--job <id>]
  dmdc metrics [--addr A]

`dmdc run --inval-model coherent` races N copies (--cores, default 2) of
the workload on shared memory behind MESI-coherent private L1s: the
invalidations the policy sees are the other cores' write misses, not the
Bernoulli injector (--inval-rate, the `injected` default that all
experiments and golden outputs use). Coherent mode needs a
coherence-capable policy (baseline-coherent or dmdc-coherent), is
exact-only, and --seed varies the deterministic core interleaving.

`dmdc fuzz` tortures the policies with seeded random kernels under the
invariant auditor (differential against the in-order emulator). A run is
fully determined by --seed. On failure the kernel is delta-debugged to a
minimal reproducer written to <out>/<seed>.repro (default
target/dmdc-fuzz/), which --replay re-executes exactly. --policy may be
repeated or comma-separated; the default set covers each enforcement
mechanism (baseline CAM, YLA filter, DMDC global/local, checking queue).
--threads N (2..=8) switches to multi-core torture: N kernels race on
the shared fuzz region under the coherence auditor, failures cover
coherence violations and run-to-run divergence too, the shrinker reduces
every thread's stream, and the default policies narrow to the two
coherent builds.

`dmdc list` enumerates the experiment registry (fig2..fig5,
table2..table6, multicore, the ablations). `all` runs every registry
entry in order; `ablations` runs the five ablation studies.

Worker count for suite/experiment: --jobs N, else the DMDC_JOBS
environment variable, else the machine's available parallelism. Output
is byte-identical at any job count.

suite/experiment cache verified cells under target/dmdc-cache/ keyed on
the workload bytes, the run parameters and the simulator fingerprint;
warm reruns replay instead of re-simulating. --no-cache opts out.

Sampling: --scale full (paper-scale, only tractable sampled) defaults to
SMARTS-style sampled simulation — functional fast-forward with cache and
branch-predictor warming, periodic checkpoints, short detailed windows,
population estimates with 95% confidence intervals (reported as
`value ±ci` in every emitter). --sampled opts any scale in; --exact is
the escape hatch forcing full detailed simulation at any scale. Sampled
and exact runs never share cache or journal entries, and a sampled
run with --run-id checkpoints windows so `dmdc run --resume` continues
mid-cell after a crash.

`dmdc serve` runs the registry as a long-lived HTTP/JSON daemon: clients
POST jobs (one cell or a whole experiment), poll their status, and fetch
the finished report — the same documents `--format json` prints. Jobs
queue by --priority (higher first, FIFO within a priority); identical
in-flight submissions coalesce onto one job; each client may hold at
most --quota queued+running jobs (excess submissions get a structured
429). Accepted jobs and finished results persist as sealed envelopes
under --state-dir (default target/dmdc-serve/), so a killed daemon
restarts with its unfinished queue intact and reproduces the same
results. SIGTERM (or POST /shutdown) drains the queue gracefully.
`dmdc submit/status/metrics` are the matching client commands; they
read --addr or the DMDC_ADDR environment variable (default
127.0.0.1:8181). `submit --wait` polls until the result is ready and
prints it.

--profile reports a per-stage host-time breakdown, the event-horizon
loop's skipped-cycle counters, the cell-cache hit/miss/integrity totals,
journal replay counters and the recovery ledger (for suite/experiment:
aggregated over all runs, printed to stderr so stdout stays
byte-identical).

Fault tolerance: each cell runs under panic isolation; a panicking or
timed-out cell (--cell-timeout, wall-clock milliseconds per cell) is
retried --retries times (default 1) with bounded backoff, then
quarantined as a structured failure in the report (nonzero exit, partial
tables). --run-id ID checkpoints completed cells to
target/dmdc-runs/ID/journal; after a crash, `dmdc run --resume ID`
replays the finished cells and re-runs only the missing ones, producing
byte-identical output. --inject-faults SPEC (e.g.
'seed=1,panic=2,hang=3,hang-ms=200,corrupt=2,truncate=2,worker-panic=1,
kill-after=4') deterministically injects faults to exercise these paths.
"
    .to_string()
}

/// Flags [`engine_ctx`] and the `parse_*` helpers read on behalf of every
/// engine-backed command (`run`, `suite`, `experiment`).
const ENGINE_FLAGS: &str =
    "scale sampled exact profile no-cache retries cell-timeout inject-faults run-id";

/// Parses `--key value` pairs for subcommand `cmd`; a `--flag` followed by
/// another flag (or by nothing) is boolean and stored as `"true"`. Returns
/// an error for stray non-flag arguments and for any key outside
/// `allowed` (the groups of keys `cmd` reads), so a typo fails loudly
/// instead of silently running with the default. Each `allowed` entry is
/// a space-separated list of keys.
fn parse_flags(
    cmd: &str,
    allowed: &[&str],
    args: &[String],
) -> Result<std::collections::HashMap<String, String>, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
        if !allowed
            .iter()
            .any(|g| g.split_whitespace().any(|k| k == key))
        {
            return Err(format!("unknown {cmd} flag `--{key}`"));
        }
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse_token(name)
}

fn parse_config(flags: &std::collections::HashMap<String, String>) -> Result<CoreConfig, String> {
    match flags.get("config").map(String::as_str).unwrap_or("2") {
        "1" => Ok(CoreConfig::config1()),
        "2" => Ok(CoreConfig::config2()),
        "3" => Ok(CoreConfig::config3()),
        other => Err(format!("unknown config `{other}` (1, 2 or 3)")),
    }
}

/// Prints the ctx's accumulated profile totals — plus the cell cache's
/// hit/miss/integrity counters, the journal's replay counters and the
/// recovery ledger when present — to stderr, keeping stdout
/// byte-identical with and without `--profile`.
fn report_profile(ctx: &RunCtx) {
    if ctx.profile {
        eprint!("{}", ctx.take_profile_totals().render());
        if let Some(cache) = &ctx.cache {
            let c = cache.counters();
            eprintln!(
                "[profile] cell cache: {} hits, {} misses, {} stored, {} corrupt, {} quarantined ({})",
                c.hits,
                c.misses,
                c.stores,
                c.corrupt,
                c.quarantined,
                cache.dir().display(),
            );
        }
        if let Some(store) = &ctx.checkpoints {
            let c = store.counters();
            eprintln!(
                "[profile] checkpoint store: {} hits, {} misses, {} stored, {} corrupt, {} quarantined ({})",
                c.hits,
                c.misses,
                c.stores,
                c.corrupt,
                c.quarantined,
                store.dir().display(),
            );
        }
        if let Some(journal) = &ctx.journal {
            let c = journal.counters();
            eprintln!(
                "[profile] journal '{}': {} replayed, {} recorded, {} dropped ({})",
                journal.run_id(),
                c.replayed,
                c.recorded,
                c.dropped,
                journal.run_dir().display(),
            );
        }
        eprintln!("{}", recovery::render(&ctx.recovery()));
    }
}

/// The context an engine-backed command (`run`, `suite`, `experiment`)
/// runs under, built from its flags: `--jobs`, `--profile`, the cell
/// cache and checkpoint store under `target/dmdc-cache/` (unless
/// `--no-cache`), `--retries`, `--cell-timeout` (milliseconds),
/// `--inject-faults`, the sampling mode, and a crash-safe journal under
/// `target/dmdc-runs/<run-id>/` when `--run-id` was given — or the
/// journal `dmdc run --resume` reopened, which stays in place.
fn engine_ctx(
    command: &str,
    args: &[String],
    flags: &std::collections::HashMap<String, String>,
    scale: Scale,
    resumed: Option<Arc<RunJournal>>,
) -> Result<RunCtx, String> {
    let mut ctx = RunCtx {
        profile: flags.contains_key("profile"),
        ..RunCtx::default()
    };
    apply_execution_flags(flags, &mut ctx)?;
    if !flags.contains_key("no-cache") {
        ctx.cache = Some(Arc::new(CellCache::new(default_cache_dir())));
        ctx.checkpoints = Some(Arc::new(CheckpointStore::new(default_cache_dir())));
    }
    ctx.sampling = sampling_spec(flags, scale)?;
    ctx.journal = match (resumed, flags.get("run-id")) {
        (Some(journal), _) => Some(journal),
        (None, Some(run_id)) => {
            let mut argv = vec![command.to_string()];
            argv.extend(args.iter().cloned());
            let journal =
                RunJournal::create(&default_runs_dir(), run_id, &default_fingerprint(), &argv)?;
            Some(Arc::new(journal))
        }
        (None, None) => None,
    };
    Ok(ctx)
}

/// Applies `--jobs`, `--retries`, `--cell-timeout` (milliseconds) and
/// `--inject-faults` to `ctx`.
fn apply_execution_flags(
    flags: &std::collections::HashMap<String, String>,
    ctx: &mut RunCtx,
) -> Result<(), String> {
    if let Some(n) = flags.get("jobs") {
        ctx.jobs = n
            .parse()
            .map_err(|_| "bad --jobs (want a positive integer)")?;
        if ctx.jobs == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
    }
    if let Some(n) = flags.get("retries") {
        ctx.retries = n
            .parse()
            .map_err(|_| "bad --retries (want a non-negative integer)")?;
    }
    if let Some(ms) = flags.get("cell-timeout") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "bad --cell-timeout (want milliseconds)")?;
        if ms == 0 {
            return Err("--cell-timeout must be at least 1 millisecond".to_string());
        }
        ctx.cell_timeout = Some(Duration::from_millis(ms));
    }
    if let Some(spec) = flags.get("inject-faults") {
        ctx.faults = Some(Arc::new(FaultPlan::parse(spec)?));
    }
    Ok(())
}

/// `dmdc run --resume <run-id>`: reopen the interrupted run's journal,
/// verify the fingerprint, and re-run its recorded command line under
/// that journal. Completed cells replay from the journal; only missing
/// cells simulate. Any recorded `--inject-faults` plan is dropped — the
/// fault plan that killed the run must not kill the resume.
fn cmd_resume(run_id: &str) -> Result<(), String> {
    let (journal, argv) = RunJournal::resume(&default_runs_dir(), run_id, &default_fingerprint())?;
    eprintln!(
        "resuming run '{run_id}': {} completed cells on record",
        journal.preexisting_len()
    );
    let journal = Some(Arc::new(journal));
    let mut replay = Vec::with_capacity(argv.len());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--inject-faults" {
            if let Some(v) = it.next() {
                if v.starts_with("--") {
                    replay.push(v); // boolean form: keep the next flag
                }
            }
            continue;
        }
        replay.push(a);
    }
    match replay.first().map(String::as_str) {
        Some("run") => cmd_run(&replay[1..], journal),
        Some("suite") => cmd_suite(&replay[1..], journal),
        Some("experiment") => cmd_experiment(&replay[1..], journal),
        _ => Err(format!("run '{run_id}' recorded no resumable command")),
    }
}

/// Parses `--format` (text, json or csv; text when absent).
fn parse_format(flags: &std::collections::HashMap<String, String>) -> Result<OutputFormat, String> {
    flags
        .get("format")
        .map(String::as_str)
        .unwrap_or("text")
        .parse()
}

fn parse_scale(flags: &std::collections::HashMap<String, String>) -> Result<Scale, String> {
    match flags.get("scale").map(String::as_str).unwrap_or("default") {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale `{other}`")),
    }
}

/// Resolves the sampling mode from `--sampled` / `--exact` and the scale:
/// paper-scale (`--scale full`) runs sample by default because exact
/// simulation at that size is intractable; every other scale stays exact
/// unless `--sampled` asks otherwise.
fn sampling_spec(
    flags: &std::collections::HashMap<String, String>,
    scale: Scale,
) -> Result<SampleSpec, String> {
    if flags.contains_key("exact") && flags.contains_key("sampled") {
        return Err("--exact and --sampled are mutually exclusive".to_string());
    }
    let on = if flags.contains_key("exact") {
        false
    } else {
        flags.contains_key("sampled") || scale == Scale::Full
    };
    Ok(if on {
        SampleSpec::standard()
    } else {
        SampleSpec::EXACT
    })
}

fn find_workload(name: &str, scale: Scale) -> Result<Workload, String> {
    if name == "synthetic" {
        return Ok(SyntheticKernel::new(20_000 * scale.factor())
            .branch_noise(true)
            .build());
    }
    full_suite(scale)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `dmdc list`)"))
}

fn cmd_list() {
    println!("workloads (INT): hash sort list crc bitcnt strmatch histo");
    println!("workloads (FP):  mm saxpy stencil fir nbody mc tri");
    println!("                 synthetic (parameterizable kernel)");
    println!();
    println!("policies: baseline baseline-coherent yla-<N> bloom-<N>");
    println!("          dmdc-global dmdc-local dmdc-coherent dmdc-no-safe-loads queue-<N>");
    println!();
    println!("configs:  1 (ROB 128)  2 (ROB 256, default)  3 (ROB 512)");
    println!("scales:   smoke default large full (full samples by default)");
    println!();
    println!("experiments (dmdc experiment <id> [--scale S] [--format text|json|csv]):");
    for exp in experiments::registry() {
        // The matrix shape is scale-independent: scale changes iteration
        // counts inside each workload, not the workload × variant cross.
        let cells = exp.plan(Scale::Smoke).cell_count();
        println!(
            "  {:<20} {:<32} {:>4} cells/scale",
            exp.id(),
            exp.paper_ref(),
            cells
        );
    }
    println!("  groups: ablations (the five ablation studies), all (every entry above)");
}

fn cmd_run(args: &[String], resumed: Option<Arc<RunJournal>>) -> Result<(), String> {
    let flags = parse_flags(
        "run",
        &[
            ENGINE_FLAGS,
            "resume workload policy config inval-rate trace max-commits inval-model cores seed",
        ],
        args,
    )?;
    if let Some(run_id) = flags.get("resume") {
        return cmd_resume(run_id);
    }
    let workload_name = flags.get("workload").ok_or("--workload is required")?;
    let policy = parse_policy(flags.get("policy").ok_or("--policy is required")?)?;
    let config = parse_config(&flags)?;
    let scale = parse_scale(&flags)?;
    let spec = sampling_spec(&flags, scale)?;
    let workload = find_workload(workload_name, scale)?;

    let mut opts = SimOptions::default();
    if let Some(rate) = flags.get("inval-rate") {
        opts.inval_per_kcycle = rate.parse().map_err(|_| "bad --inval-rate")?;
    }
    if let Some(n) = flags.get("trace") {
        opts.trace_capacity = n.parse().map_err(|_| "bad --trace")?;
    }
    if let Some(n) = flags.get("max-commits") {
        opts.max_commits = Some(n.parse().map_err(|_| "bad --max-commits")?);
    }
    opts.profile = flags.contains_key("profile");

    // `--inval-model` picks where invalidations come from: `injected`
    // (the default — the single-core Bernoulli injector, byte-identical
    // to every previous release) or `coherent` (a real N-core MESI run
    // where the *other cores'* write misses deliver them).
    match flags.get("inval-model").map(String::as_str) {
        None | Some("injected") => {
            if flags.contains_key("cores") {
                return Err("--cores needs --inval-model coherent".to_string());
            }
        }
        Some("coherent") => {
            if spec.enabled() {
                return Err("--inval-model coherent is exact-only (drop --sampled)".to_string());
            }
            if opts.inval_per_kcycle != 0.0 {
                return Err(
                    "--inval-rate is the injected model; it cannot combine with \
                     --inval-model coherent"
                        .to_string(),
                );
            }
            if opts.trace_capacity > 0 || opts.max_commits.is_some() {
                return Err(
                    "--trace/--max-commits are single-core flags (drop --inval-model coherent)"
                        .to_string(),
                );
            }
            return cmd_run_coherent(&workload, &policy, &config, &flags);
        }
        Some(other) => {
            return Err(format!(
                "unknown --inval-model `{other}` (injected or coherent)"
            ));
        }
    }

    if spec.enabled() {
        if opts.trace_capacity > 0 {
            return Err("--trace needs an exact run (add --exact)".to_string());
        }
        if opts.max_commits.is_some() {
            return Err("--max-commits needs an exact run (add --exact)".to_string());
        }
        opts.sampling = spec;
        // Single sampled runs bypass the engine (no cell cache lookups),
        // but the sampling driver itself consults the ctx's checkpoint
        // store — so repeat runs skip the fast-forward.
        let ctx = engine_ctx("run", args, &flags, scale, resumed)?;
        let cell = experiments::run_workload_in(&ctx, &workload, &config, &policy, opts);
        print_run_stats(&workload, &policy, &config, &cell.stats);
        report_profile(&ctx);
        return Ok(());
    }

    // Drive the simulator directly so the trace is accessible afterwards.
    let mut sim = Simulator::new(&workload.program, config.clone(), policy.build(&config));
    let result = sim.run(opts).map_err(|e| e.to_string())?;
    if opts.trace_capacity > 0 {
        println!("{}", sim.trace().render());
    }

    let s = &result.stats;
    print_run_stats(&workload, &policy, &config, s);
    if let Some(profile) = &result.profile {
        print!("{}", profile.render(s));
    }
    Ok(())
}

/// `dmdc run --inval-model coherent`: N copies of the workload race on
/// shared memory behind MESI-coherent private L1s, so the invalidations
/// reaching the policy are organic cross-core write misses instead of
/// Bernoulli noise.
fn cmd_run_coherent(
    workload: &Workload,
    policy: &PolicyKind,
    config: &CoreConfig,
    flags: &std::collections::HashMap<String, String>,
) -> Result<(), String> {
    if !matches!(
        policy,
        PolicyKind::BaselineCoherent | PolicyKind::DmdcCoherent
    ) {
        return Err(format!(
            "policy {} is built without coherence support; use baseline-coherent \
             or dmdc-coherent with --inval-model coherent",
            policy.token()
        ));
    }
    let cores: usize = match flags.get("cores") {
        Some(n) => n.parse().map_err(|_| "bad --cores")?,
        None => 2,
    };
    if !(2..=8).contains(&cores) {
        return Err("--cores must be 2..=8".to_string());
    }
    let seed: u64 = match flags.get("seed") {
        Some(n) => n.parse().map_err(|_| "bad --seed")?,
        None => 1,
    };
    let programs: Vec<&dmdc::isa::Program> = (0..cores).map(|_| &workload.program).collect();
    let policies = (0..cores).map(|_| policy.build(config)).collect();
    let mc_opts = MultiCoreOptions {
        seed,
        audit: true,
        ..MultiCoreOptions::default()
    };
    let r = run_multicore(&programs, config, policies, &mc_opts).map_err(|e| e.to_string())?;
    if !r.coherence_violations.is_empty() {
        return Err(format!(
            "coherence violations:\n{}",
            r.coherence_violations.join("\n")
        ));
    }
    println!(
        "workload {} under {policy:?} on {}, {cores} cores (coherent invalidations, seed {seed})",
        workload.name, config.name
    );
    println!("  driver cycles {:>12}", r.cycles);
    println!(
        "  bus           {:>12}  reads / {} readX / {} upgrades / {} writebacks",
        r.bus.bus_reads, r.bus.bus_read_x, r.bus.bus_upgrades, r.bus.writebacks
    );
    println!(
        "  invals        {:>12}  delivered ({:.1} / 1k cycles)",
        r.bus.invals_sent,
        r.invals_per_kcycle()
    );
    println!(
        "  L2            {:>12}  hits / {} misses",
        r.shared_l2.hits, r.shared_l2.misses
    );
    println!("  mem checksum  {:#018x}", r.mem_checksum);
    for (i, core) in r.cores.iter().enumerate() {
        let s = &core.result.stats;
        println!(
            "  core {i}: {} cycles, {} committed (IPC {:.2}), {} replays \
             ({} coherence), {} invalidations",
            s.cycles,
            s.committed,
            s.ipc(),
            s.replay_squashes,
            s.policy.replays.coherence,
            s.policy.invalidations
        );
        if let Some(audit) = &core.result.audit {
            if !audit.is_clean() {
                return Err(format!("core {i} audit:\n{}", audit.render()));
            }
        }
    }
    Ok(())
}

/// The shared `dmdc run` stat block. Sampled runs append the sampling
/// summary (windows, population, estimates with 95% CIs); exact output is
/// byte-identical to what this command always printed.
fn print_run_stats(
    workload: &Workload,
    policy: &PolicyKind,
    config: &CoreConfig,
    s: &dmdc::ooo::SimStats,
) {
    println!(
        "workload {} under {policy:?} on {}",
        workload.name, config.name
    );
    println!("  cycles        {:>12}", s.cycles);
    println!("  committed     {:>12}  (IPC {:.2})", s.committed, s.ipc());
    println!("  loads/stores  {:>12}  / {}", s.loads, s.stores);
    println!("  mispredicts   {:>12}", s.mispredicts);
    println!(
        "  replays       {:>12}  ({:.1} false / 1M)",
        s.replay_squashes,
        s.per_million(s.policy.replays.false_total())
    );
    println!(
        "  safe stores   {:>12}",
        fmt::pct(s.policy.store_filter_rate())
    );
    println!(
        "  safe loads    {:>12}",
        fmt::pct(s.policy.safe_load_rate())
    );
    println!("  LQ searches   {:>12}", s.energy.lq_cam_searches);
    println!("  L1D miss rate {:>12}", fmt::pct(s.l1d.miss_rate()));
    if s.policy.invalidations > 0 {
        println!("  invalidations {:>12}", s.policy.invalidations);
    }
    if s.is_sampled() {
        let sp = &s.sampling;
        println!(
            "  sampled       {:>12}  windows over {} retired insts ({} measured)",
            sp.windows, sp.population, sp.sampled_committed
        );
        println!(
            "  estimates     IPC {}, replays/1M {}, safe stores {}, safe loads {}",
            fmt::f2_ci(sp.ipc_mean(), sp.ipc_ci()),
            fmt::f1_ci(sp.replays_per_m_mean(), sp.replays_per_m_ci()),
            fmt::pct_ci(sp.filter_rate_mean(), sp.filter_rate_ci()),
            fmt::pct_ci(sp.safe_load_rate_mean(), sp.safe_load_rate_ci()),
        );
    }
}

fn cmd_suite(args: &[String], resumed: Option<Arc<RunJournal>>) -> Result<(), String> {
    let flags = parse_flags("suite", &[ENGINE_FLAGS, "policy config format jobs"], args)?;
    let policy = parse_policy(
        flags
            .get("policy")
            .map(String::as_str)
            .unwrap_or("dmdc-global"),
    )?;
    let config = parse_config(&flags)?;
    let scale = parse_scale(&flags)?;
    let format = parse_format(&flags)?;
    let ctx = engine_ctx("suite", args, &flags, scale, resumed)?;
    let mut t = Table::new(format!("suite under {policy:?} on {}", config.name));
    t.headers([
        "workload",
        "group",
        "IPC",
        "replays/1M",
        "safe stores",
        "safe loads",
    ]);
    let suite = full_suite(scale);
    let specs: Vec<RunSpec> = (0..suite.len())
        .map(|i| RunSpec::new(i, &config, policy.clone()))
        .collect();
    let (runs, failures) = Engine::with_ctx(&suite, ctx.clone()).run_all_recovered(&specs);
    for (w, r) in suite.iter().zip(&runs) {
        let Some(r) = r else { continue };
        let s = &r.stats;
        // Sampled cells show each estimate with its 95% half-width; exact
        // cells render byte-identically to before.
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
    let quarantined = failures.len();
    let mut report = Report::single("suite", t);
    for f in failures {
        report.push_failure(f);
    }
    print!("{}", report.emit(format));
    report_profile(&ctx);
    if quarantined > 0 {
        return Err(format!(
            "{quarantined} cell(s) quarantined; the report is partial"
        ));
    }
    Ok(())
}

fn cmd_experiment(args: &[String], resumed: Option<Arc<RunJournal>>) -> Result<(), String> {
    let which = args
        .first()
        .ok_or("which experiment? (see `dmdc list`: fig2..fig5, table2..table6, ablations, all)")?;
    let flags = parse_flags("experiment", &[ENGINE_FLAGS, "format jobs"], &args[1..])?;
    let scale = parse_scale(&flags)?;
    let format = parse_format(&flags)?;
    let ctx = engine_ctx("experiment", args, &flags, scale, resumed)?;
    let ids: Vec<&str> = match which.as_str() {
        "all" => experiments::registry().iter().map(|e| e.id()).collect(),
        "ablations" => experiments::ABLATION_IDS.to_vec(),
        one => vec![one],
    };
    let mut quarantined = 0;
    for id in ids {
        let exp = experiments::find_experiment(id)
            .ok_or_else(|| format!("unknown experiment `{id}` (see `dmdc list`)"))?;
        let report = experiments::run_experiment(exp, scale, &ctx);
        quarantined += report.failures().len();
        print!("{}", report.emit(format));
    }
    report_profile(&ctx);
    if quarantined > 0 {
        return Err(format!(
            "{quarantined} cell(s) quarantined; the report is partial"
        ));
    }
    Ok(())
}

/// `dmdc fuzz`: parses its own flags (unlike [`parse_flags`], `--policy`
/// may repeat), then either replays a repro file or runs the fuzz loop.
/// Exits nonzero whenever a failure is (still) reproducible, so CI can
/// gate on it and upload the repro artifact.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut opts = FuzzOptions::new(1);
    let mut policies: Vec<PolicyKind> = Vec::new();
    let mut replay_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        match key {
            "seed" => opts.seed = value.parse().map_err(|_| "bad --seed")?,
            "budget" => opts.budget = value.parse().map_err(|_| "bad --budget")?,
            "policy" => {
                for tok in value.split(',') {
                    policies.push(parse_policy(tok.trim())?);
                }
            }
            "config" => match value.as_str() {
                "1" | "2" | "3" => opts.config = value,
                other => return Err(format!("unknown config `{other}` (1, 2 or 3)")),
            },
            "out" => opts.out_dir = std::path::PathBuf::from(value),
            "replay" => replay_path = Some(value),
            "threads" => {
                let n: usize = value.parse().map_err(|_| "bad --threads")?;
                if !(1..=8).contains(&n) {
                    return Err("--threads must be 1..=8".to_string());
                }
                opts.threads = n;
            }
            other => return Err(format!("unknown fuzz flag `--{other}`")),
        }
    }

    if let Some(path) = replay_path {
        let (repro, failure) = fuzz::replay_file(std::path::Path::new(&path))?;
        let threads_note = if repro.extra.is_empty() {
            String::new()
        } else {
            format!(" x {} threads", 1 + repro.extra.len())
        };
        println!(
            "replaying {path}: {} ops x {} iters{threads_note}, policy {}, config {}",
            repro.kernel.ops.len(),
            repro.kernel.iters,
            repro.policy,
            repro.config
        );
        return match failure {
            Some(f) => {
                println!("reproduced [{}]:\n{}", f.kind, f.detail);
                Err(format!("repro still fails with `{}`", f.kind))
            }
            None => {
                println!("clean: the recorded `{}` no longer reproduces", repro.kind);
                Ok(())
            }
        };
    }

    if !policies.is_empty() {
        opts.policies = policies;
    } else if opts.threads > 1 {
        // Multi-core torture delivers real invalidations, so the default
        // policy set narrows to the two coherence-capable builds.
        opts.policies = FuzzOptions::mt_policies();
    }
    let outcome = fuzz::fuzz(&opts)?;
    match outcome.failure {
        Some(repro) => {
            println!("{}", repro.render());
            if let Some(p) = &outcome.repro_path {
                println!("repro written to {}", p.display());
            }
            Err(format!(
                "seed {} failed with `{}` after {} cases (kernel {} shrunk to {} ops)",
                opts.seed,
                repro.kind,
                outcome.cases,
                repro.index,
                repro.kernel.ops.len()
            ))
        }
        None => {
            let threads_note = if opts.threads > 1 {
                format!(" x {} threads", opts.threads)
            } else {
                String::new()
            };
            println!(
                "fuzz: seed {}, {} cases clean ({} kernels x {} policies{threads_note})",
                opts.seed,
                outcome.cases,
                opts.budget,
                opts.policies.len()
            );
            Ok(())
        }
    }
}

/// `dmdc serve`: run the long-lived simulation daemon (see the usage
/// text and `dmdc::core::service` for the wire contract).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        "serve",
        &["jobs retries cell-timeout inject-faults addr state-dir quota paused"],
        args,
    )?;
    let mut ctx = RunCtx::default();
    apply_execution_flags(&flags, &mut ctx)?;
    let mut opts = ServeOptions::default();
    if let Some(addr) = flags.get("addr") {
        opts.addr = addr.clone();
    }
    if let Some(dir) = flags.get("state-dir") {
        opts.state_dir = std::path::PathBuf::from(dir);
    }
    if let Some(quota) = flags.get("quota") {
        opts.quota = quota
            .parse()
            .map_err(|_| "bad --quota (want a positive integer)")?;
        if opts.quota == 0 {
            return Err("--quota must be at least 1".to_string());
        }
    }
    opts.paused = flags.contains_key("paused");
    service::serve(&opts, ctx)
}

/// The daemon address for the client subcommands: `--addr`, else the
/// `DMDC_ADDR` environment variable, else the default port.
fn server_addr(flags: &std::collections::HashMap<String, String>) -> String {
    flags
        .get("addr")
        .cloned()
        .or_else(|| std::env::var("DMDC_ADDR").ok())
        .unwrap_or_else(|| "127.0.0.1:8181".to_string())
}

/// `dmdc submit`: build the submission document from the same flags
/// `dmdc run`/`experiment` take, POST it, print the server's reply (and
/// with `--wait`, poll until the result is ready and print that).
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        "submit",
        &[
            "addr scale experiment workload policy config inval-rate",
            "sampled priority client wait max-wait",
        ],
        args,
    )?;
    let addr = server_addr(&flags);
    let scale = parse_scale(&flags)?;
    let mut body = if let Some(id) = flags.get("experiment") {
        format!(
            "{{\"kind\": \"experiment\", \"id\": \"{}\", \"scale\": \"{}\"",
            json::escape(id),
            jobs::scale_token(scale)
        )
    } else {
        let workload = flags
            .get("workload")
            .ok_or("--workload or --experiment is required")?;
        let policy = parse_policy(flags.get("policy").ok_or("--policy is required")?)?;
        let config = flags.get("config").map(String::as_str).unwrap_or("2");
        if !matches!(config, "1" | "2" | "3") {
            return Err(format!("unknown config `{config}` (1, 2 or 3)"));
        }
        let inval_rate: f64 = match flags.get("inval-rate") {
            None => 0.0,
            Some(r) => r.parse().map_err(|_| "bad --inval-rate")?,
        };
        format!(
            "{{\"kind\": \"cell\", \"workload\": \"{}\", \"policy\": \"{}\", \
             \"config\": {config}, \"scale\": \"{}\", \"inval_rate\": {inval_rate}, \
             \"sampled\": {}",
            json::escape(workload),
            json::escape(&policy.token()),
            jobs::scale_token(scale),
            flags.contains_key("sampled")
        )
    };
    if let Some(priority) = flags.get("priority") {
        let p: u16 = priority.parse().map_err(|_| "bad --priority (0..=255)")?;
        if p > 255 {
            return Err("--priority must be 0..=255".to_string());
        }
        body.push_str(&format!(", \"priority\": {p}"));
    }
    if let Some(client) = flags.get("client") {
        body.push_str(&format!(", \"client\": \"{}\"", json::escape(client)));
    }
    body.push('}');

    // With `--wait` the whole interaction runs under one deadline
    // (`--max-wait`, seconds): connection refused/reset retries with
    // jittered exponential backoff instead of failing on the first
    // blip, and a job that is still pending at the deadline ends with a
    // clear terminal error rather than polling forever.
    let wait = flags.contains_key("wait");
    let max_wait = Duration::from_secs(match flags.get("max-wait") {
        Some(s) => {
            if !wait {
                return Err("--max-wait needs --wait".to_string());
            }
            let s: u64 = s.parse().map_err(|_| "bad --max-wait (want seconds)")?;
            if s == 0 {
                return Err("--max-wait must be at least 1 second".to_string());
            }
            s
        }
        None => 600,
    });
    let deadline = std::time::Instant::now() + max_wait;
    let remaining = |label: &str| -> Result<Duration, String> {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return Err(format!("{label} after --max-wait {max_wait:?}; giving up"));
        }
        Ok(left)
    };

    let (status, reply) = if wait {
        http::request_with_retry(&addr, "POST", "/jobs", Some(&body), max_wait)?
    } else {
        http::request(&addr, "POST", "/jobs", Some(&body))?
    };
    if status != 200 {
        return Err(format!("server {addr} returned {status}: {}", reply.trim()));
    }
    print!("{reply}");
    if !wait {
        return Ok(());
    }
    let doc = json::parse(&reply)?;
    let id = doc
        .get("id")
        .and_then(|v| v.as_str())
        .ok_or("server reply has no job id")?
        .to_string();
    loop {
        let left = remaining(&format!("job {id} still pending"))?;
        let (status, payload) =
            http::request_with_retry(&addr, "GET", &format!("/jobs/{id}/result"), None, left)?;
        match status {
            202 => std::thread::sleep(Duration::from_millis(200)),
            200 => {
                print!("{payload}");
                return Ok(());
            }
            500 => {
                print!("{payload}");
                return Err(format!("job {id} failed"));
            }
            other => {
                return Err(format!(
                    "server {addr} returned {other}: {}",
                    payload.trim()
                ))
            }
        }
    }
}

/// `dmdc status`: one job's status document (`--job`), or every job.
fn cmd_status(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("status", &["addr job"], args)?;
    let addr = server_addr(&flags);
    let path = match flags.get("job") {
        Some(id) => format!("/jobs/{id}"),
        None => "/jobs".to_string(),
    };
    let (status, reply) = http::request(&addr, "GET", &path, None)?;
    print!("{reply}");
    if status != 200 {
        return Err(format!("server {addr} returned {status}"));
    }
    Ok(())
}

/// `dmdc metrics`: the daemon's service/cache/single-flight counters.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("metrics", &["addr"], args)?;
    let addr = server_addr(&flags);
    let (status, reply) = http::request(&addr, "GET", "/metrics", None)?;
    print!("{reply}");
    if status != 200 {
        return Err(format!("server {addr} returned {status}"));
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("asm needs a file path")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = Assembler::new()
        .assemble_named(path, &src)
        .map_err(|e| format!("{path}:{e}"))?;
    let mut emu = Emulator::new(&program);
    let retired = emu.run(500_000_000).map_err(|e| e.to_string())?;
    println!("{path}: {retired} instructions retired");
    println!(
        "  x28 = {} ({:#x})",
        emu.int_reg(28) as i64,
        emu.int_reg(28)
    );
    println!("  f28 = {}", emu.fp_reg(28));
    println!("  state checksum = {:#018x}", emu.state_checksum());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> = ["--workload", "histo", "--config", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("run", &["workload config"], &args).unwrap();
        assert_eq!(f["workload"], "histo");
        assert_eq!(f["config"], "2");
        assert!(parse_flags("run", &["workload"], &["stray".to_string()]).is_err());
        // A key the command does not read is a typo, never a silent no-op.
        let typo: Vec<String> = ["--jbos", "2", "--no-cahce"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_flags("suite", &[ENGINE_FLAGS, "jobs"], &typo).unwrap_err(),
            "unknown suite flag `--jbos`"
        );
        for cmd in [cmd_run, cmd_suite] {
            let err = cmd(&typo, None).unwrap_err();
            assert!(err.contains("flag `--jbos`"), "{err}");
        }
        for cmd in [cmd_serve, cmd_submit, cmd_status, cmd_metrics] {
            let err = cmd(&typo).unwrap_err();
            assert!(err.contains("flag `--jbos`"), "{err}");
        }
        let err = cmd_experiment(&["fig2".to_string(), "--distrib".to_string()], None).unwrap_err();
        assert_eq!(err, "unknown experiment flag `--distrib`");
    }

    #[test]
    fn flags_parse_booleans() {
        let args: Vec<String> = ["--profile", "--jobs", "4", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("suite", &[ENGINE_FLAGS, "jobs trace"], &args).unwrap();
        assert_eq!(f["profile"], "true");
        assert_eq!(f["jobs"], "4");
        assert_eq!(f["trace"], "true");
    }

    #[test]
    fn policies_parse() {
        assert_eq!(parse_policy("baseline").unwrap(), PolicyKind::Baseline);
        assert_eq!(parse_policy("dmdc").unwrap(), PolicyKind::DmdcGlobal);
        assert_eq!(
            parse_policy("yla-8").unwrap(),
            PolicyKind::Yla {
                regs: 8,
                line_interleaved: false
            }
        );
        assert_eq!(
            parse_policy("bloom-256").unwrap(),
            PolicyKind::Bloom { entries: 256 }
        );
        assert_eq!(
            parse_policy("queue-16").unwrap(),
            PolicyKind::CheckingQueue { entries: 16 }
        );
        assert!(parse_policy("nonsense").is_err());
    }

    #[test]
    fn workloads_resolve() {
        assert!(find_workload("histo", Scale::Smoke).is_ok());
        assert!(find_workload("synthetic", Scale::Smoke).is_ok());
        assert!(find_workload("nope", Scale::Smoke).is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["bogus".to_string()]).is_err());
        assert!(usage().contains("dmdc fuzz"), "help covers fuzz");
        assert!(usage().contains("--replay"), "help covers replay");
    }

    fn fuzz_args(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fuzz_flags_reject_garbage() {
        assert!(cmd_fuzz(&fuzz_args(&["--seed", "banana"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--budget", "-3"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--config", "9"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--policy", "nonsense"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--warble"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["stray"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--replay", "/no/such/file.repro"])).is_err());
    }

    #[test]
    fn fuzz_small_clean_run_and_policy_lists() {
        // Two kernels, two policies via both spellings of --policy; must
        // come back clean (real policies under the auditor).
        let out = std::env::temp_dir().join("dmdc-fuzz-cli-test");
        assert!(cmd_fuzz(&fuzz_args(&[
            "--seed",
            "3",
            "--budget",
            "2",
            "--policy",
            "baseline,dmdc-global",
            "--policy",
            "dmdc-local",
            "--out",
            out.to_str().unwrap(),
        ]))
        .is_ok());
        let _ = std::fs::remove_dir_all(&out);
    }
}
