//! Job model, durable queue state and execution for `dmdc serve`.
//!
//! A **job** is one unit of simulation work a client submitted over
//! HTTP: either a single (workload, policy, config) cell or a whole
//! registry experiment. The [`JobManager`] owns the complete lifecycle:
//!
//! * **submit** — parse and validate the request, account it against the
//!   client's quota, coalesce it onto an identical in-flight job if one
//!   exists (single-flight at the job level; see below), persist a
//!   sealed `jobs/<id>.job` envelope, and enqueue;
//! * **dispatch** — a worker pops jobs in priority order (FIFO within a
//!   priority) and executes them through the ordinary
//!   [`Engine`](crate::runner::Engine) under the manager's
//!   [`RunCtx`], which carries the daemon's cell cache and
//!   [`SingleFlight`](crate::flight::SingleFlight) table;
//! * **complete** — the rendered report (the same JSON the CLI's
//!   `--format json` emits) is persisted as a sealed
//!   `results/<id>.result` envelope before the job is marked done, so a
//!   crash can never lose a finished result;
//! * **recover** — on restart, every job envelope without a matching
//!   result envelope is re-enqueued in id order. Execution is
//!   deterministic and ids are sequential, so a killed-and-restarted
//!   daemon produces byte-identical results for the same submissions.
//!
//! **Coalescing invariant:** two submissions are *identical* iff their
//! canonical descriptions — simulator fingerprint ‖ workload ‖ full spec
//! — hash to the same key. While a job for a key is queued or running,
//! identical submissions return the *same job id* instead of new work;
//! the `jobs_coalesced` counter counts exactly those merged submissions,
//! so N concurrent identical submissions perform 1 simulation and count
//! N−1 coalesces. Once the job completes, the key is released — a later
//! identical submission becomes a new job (and is answered from the cell
//! cache rather than re-simulated).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use dmdc_ooo::{CoreConfig, SampleSpec, SimOptions};
use dmdc_workloads::{full_suite, Scale, SyntheticKernel, Workload};

use crate::cache::{self, Fnv64};
use crate::experiments::{self, PolicyKind};
use crate::queue::JobQueue;
use crate::report::{fmt, Report, Table};
use crate::runner::{Engine, RunCtx, RunSpec};
use crate::service::json::{self, Json};

/// What one job simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One (workload, policy, config) cell.
    Cell {
        /// Workload name (`histo`, `saxpy`, `synthetic`, ...).
        workload: String,
        /// Dependence-checking design.
        policy: PolicyKind,
        /// Machine configuration (1, 2 or 3).
        config: u8,
        /// Workload scale.
        scale: Scale,
        /// Injected invalidations per kilocycle (0 = none).
        inval_rate: f64,
        /// SMARTS-style sampled simulation instead of exact.
        sampled: bool,
    },
    /// A whole registry experiment.
    Experiment {
        /// Registry id (`fig2`, `table6`, ...).
        id: String,
        /// Workload scale.
        scale: Scale,
    },
}

/// Stable scale token (`smoke`/`default`/`large`/`full`).
pub fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Default => "default",
        Scale::Large => "large",
        Scale::Full => "full",
    }
}

/// Parses a [`scale_token`].
pub fn parse_scale(token: &str) -> Result<Scale, String> {
    match token {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale `{other}`")),
    }
}

impl JobSpec {
    /// The canonical one-line description the coalescing key hashes.
    /// Everything that can influence the result appears here; the
    /// simulator fingerprint joins at hash time (see [`JobSpec::key`]).
    pub fn canonical(&self) -> String {
        match self {
            JobSpec::Cell {
                workload,
                policy,
                config,
                scale,
                inval_rate,
                sampled,
            } => format!(
                "cell workload={workload} policy={} config={config} scale={} inval={inval_rate} sampled={sampled}",
                policy.token(),
                scale_token(*scale),
            ),
            JobSpec::Experiment { id, scale } => {
                format!("experiment id={id} scale={}", scale_token(*scale))
            }
        }
    }

    /// The single-flight coalescing key: fingerprint ‖ canonical spec.
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(cache::default_fingerprint().as_bytes());
        h.write(b"\0");
        h.write(self.canonical().as_bytes());
        h.finish()
    }

    /// The spec as a JSON object (the `spec` member of job documents).
    pub fn to_json(&self) -> String {
        match self {
            JobSpec::Cell {
                workload,
                policy,
                config,
                scale,
                inval_rate,
                sampled,
            } => format!(
                "{{\"kind\": \"cell\", \"workload\": \"{}\", \"policy\": \"{}\", \
                 \"config\": {config}, \"scale\": \"{}\", \"inval_rate\": {inval_rate}, \
                 \"sampled\": {sampled}}}",
                json::escape(workload),
                json::escape(&policy.token()),
                scale_token(*scale),
            ),
            JobSpec::Experiment { id, scale } => format!(
                "{{\"kind\": \"experiment\", \"id\": \"{}\", \"scale\": \"{}\"}}",
                json::escape(id),
                scale_token(*scale),
            ),
        }
    }

    /// Parses and validates a spec object (the body of `POST /jobs`, or
    /// the `spec` member of a persisted job document).
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind` (cell or experiment)")?;
        let scale = parse_scale(
            doc.get("scale")
                .map(|s| s.as_str().ok_or("`scale` must be a string"))
                .transpose()?
                .unwrap_or("smoke"),
        )?;
        match kind {
            "cell" => {
                let workload = doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("cell jobs need a `workload`")?
                    .to_string();
                if !workload_exists(&workload) {
                    return Err(format!("unknown workload `{workload}`"));
                }
                let policy = PolicyKind::parse_token(
                    doc.get("policy")
                        .and_then(Json::as_str)
                        .ok_or("cell jobs need a `policy`")?,
                )?;
                let config = match doc.get("config") {
                    None => 2,
                    Some(v) => match v.as_u64() {
                        Some(c @ 1..=3) => c as u8,
                        _ => return Err("`config` must be 1, 2 or 3".to_string()),
                    },
                };
                let inval_rate = match doc.get("inval_rate") {
                    None => 0.0,
                    Some(v) => v
                        .as_f64()
                        .filter(|r| r.is_finite() && *r >= 0.0)
                        .ok_or("`inval_rate` must be a non-negative number")?,
                };
                let sampled = match doc.get("sampled") {
                    None => false,
                    Some(v) => v.as_bool().ok_or("`sampled` must be a boolean")?,
                };
                Ok(JobSpec::Cell {
                    workload,
                    policy,
                    config,
                    scale,
                    inval_rate,
                    sampled,
                })
            }
            "experiment" => {
                let id = doc
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("experiment jobs need an `id`")?
                    .to_string();
                if experiments::find_experiment(&id).is_none() {
                    return Err(format!("unknown experiment `{id}` (see `dmdc list`)"));
                }
                Ok(JobSpec::Experiment { id, scale })
            }
            other => Err(format!("unknown job kind `{other}` (cell or experiment)")),
        }
    }
}

/// Whether `name` resolves to a runnable workload. Checked against the
/// smoke-scale suite: the name set is scale-independent, and smoke-scale
/// construction is cheap.
fn workload_exists(name: &str) -> bool {
    name == "synthetic" || full_suite(Scale::Smoke).iter().any(|w| w.name == name)
}

/// Materializes the workload for a cell job (mirrors the CLI's
/// resolution, including the parameterized `synthetic` kernel).
fn build_workload(name: &str, scale: Scale) -> Result<Workload, String> {
    if name == "synthetic" {
        return Ok(SyntheticKernel::new(20_000 * scale.factor())
            .branch_noise(true)
            .build());
    }
    full_suite(scale)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

fn build_config(config: u8) -> CoreConfig {
    match config {
        1 => CoreConfig::config1(),
        3 => CoreConfig::config3(),
        _ => CoreConfig::config2(),
    }
}

/// Executes one job under `ctx` to its result payload — the exact JSON
/// document the CLI's `--format json` emitters produce for the same
/// work. `Err` is a human-readable failure (quarantined cells, unknown
/// ids) that becomes a `failed` job, never a dead daemon.
pub fn execute(spec: &JobSpec, ctx: &RunCtx) -> Result<String, String> {
    match spec {
        JobSpec::Cell {
            workload,
            policy,
            config,
            scale,
            inval_rate,
            sampled,
        } => {
            let w = build_workload(workload, *scale)?;
            let core = build_config(*config);
            // The sampling mode is set on the spec itself, never through
            // the ctx default: the daemon is long-lived and concurrent,
            // and `RunSpec::opts` is what cache and journal keys hash.
            let opts = SimOptions {
                inval_per_kcycle: *inval_rate,
                sampling: if *sampled {
                    SampleSpec::standard()
                } else {
                    SampleSpec::EXACT
                },
                ..SimOptions::default()
            };
            let workloads = [w];
            let engine = Engine::with_ctx(&workloads, ctx.clone());
            let spec = RunSpec {
                workload: 0,
                config: core.clone(),
                policy: policy.clone(),
                opts,
            };
            let cell = engine
                .try_run_cell(&spec)
                .map_err(|f| format!("[{}] {}", f.kind, f.detail))?;
            let mut t = Table::new(format!(
                "cell {} under {policy:?} on {}",
                workloads[0].name, core.name
            ));
            t.headers([
                "workload",
                "group",
                "IPC",
                "replays/1M",
                "safe stores",
                "safe loads",
            ]);
            let s = &cell.stats;
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
                cell.workload.clone(),
                cell.group.to_string(),
                ipc,
                replays,
                stores,
                loads,
            ]);
            Ok(Report::single("cell", t).json())
        }
        JobSpec::Experiment { id, scale } => {
            let exp = experiments::find_experiment(id)
                .ok_or_else(|| format!("unknown experiment `{id}`"))?;
            let report = experiments::run_experiment(exp, *scale, ctx);
            if report.has_failures() {
                return Err(format!(
                    "{} cell(s) quarantined; report: {}",
                    report.failures().len(),
                    report.json()
                ));
            }
            Ok(report.json())
        }
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// Being executed right now.
    Running,
    /// Finished; the result envelope holds the report.
    Done,
    /// Finished unsuccessfully; the result envelope holds the error.
    Failed,
}

impl JobState {
    /// Stable wire token.
    pub fn token(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    priority: u8,
    client: String,
    state: JobState,
    key: u64,
    ticket: Option<u64>,
}

/// The outcome of one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// A new job was enqueued.
    Created(String),
    /// An identical job was already in flight; this submission merged
    /// onto it (the returned id is the in-flight job's).
    Coalesced(String),
    /// The client is at its in-flight quota; nothing was enqueued.
    OverQuota {
        /// The rejected client.
        client: String,
        /// The client's current in-flight (queued + running) job count.
        active: usize,
        /// The configured per-client limit.
        limit: usize,
    },
}

/// Monotonic service counters (all since daemon start; persisted state
/// contributes through `recovered`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Submissions that created a new job.
    pub submitted: u64,
    /// Submissions merged onto an identical in-flight job.
    pub coalesced: u64,
    /// Submissions rejected for quota.
    pub rejected: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that finished with a failure.
    pub failed: u64,
    /// Jobs re-enqueued from a previous daemon life at startup.
    pub recovered: u64,
}

#[derive(Debug, Default)]
struct Inner {
    queue: JobQueue<String>,
    jobs: HashMap<String, JobRecord>,
    active_by_key: HashMap<u64, String>,
    active_per_client: HashMap<String, usize>,
    next_id: u64,
    paused: bool,
    draining: bool,
    running: Option<String>,
}

/// The daemon's job table: durable, quota-accounted, coalescing. See the
/// module docs for the lifecycle.
pub struct JobManager {
    dir: PathBuf,
    quota: usize,
    ctx: RunCtx,
    inner: Mutex<Inner>,
    work: Condvar,
    submitted: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    recovered: AtomicU64,
}

impl JobManager {
    /// Opens (creating if needed) the job state under `dir`: sealed job
    /// envelopes in `dir/jobs/`, sealed result envelopes in
    /// `dir/results/`. `quota` is the per-client in-flight job limit;
    /// every job executes under `ctx`.
    pub fn new(dir: impl Into<PathBuf>, quota: usize, ctx: RunCtx) -> Result<JobManager, String> {
        let dir = dir.into();
        for sub in ["jobs", "results"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| format!("{}: {e}", dir.join(sub).display()))?;
        }
        Ok(JobManager {
            dir,
            quota: quota.max(1),
            ctx,
            inner: Mutex::new(Inner {
                next_id: 1,
                ..Inner::default()
            }),
            work: Condvar::new(),
            submitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
        })
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The context every job executes under.
    pub fn ctx(&self) -> &RunCtx {
        &self.ctx
    }

    fn job_path(&self, id: &str) -> PathBuf {
        self.dir.join("jobs").join(format!("{id}.job"))
    }

    fn result_path(&self, id: &str) -> PathBuf {
        self.dir.join("results").join(format!("{id}.result"))
    }

    /// Replays the previous daemon life's job state: every persisted job
    /// is reloaded; jobs without a result envelope are re-enqueued **in
    /// id order** with their recorded priorities, so a restarted daemon
    /// executes them in the same order the original would have. Returns
    /// the number of re-enqueued jobs.
    pub fn recover(&self) -> usize {
        let jobs_dir = self.dir.join("jobs");
        let mut entries: Vec<(u64, String)> = Vec::new();
        if let Ok(read) = std::fs::read_dir(&jobs_dir) {
            for entry in read.flatten() {
                let name = entry.file_name();
                let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".job")) else {
                    continue;
                };
                let Some(seq) = id.strip_prefix("job-").and_then(|n| n.parse().ok()) else {
                    continue;
                };
                entries.push((seq, id.to_string()));
            }
        }
        entries.sort_unstable();
        let mut requeued = 0;
        let mut inner = self.lock();
        for (seq, id) in entries {
            let Some(record) = self.load_job_record(&id) else {
                continue; // corrupt envelope: skip, never crash the daemon
            };
            inner.next_id = inner.next_id.max(seq + 1);
            let finished = self.load_result(&id);
            let mut record = record;
            match finished {
                Some((state, _)) => {
                    record.state = state;
                    inner.jobs.insert(id, record);
                }
                None => {
                    record.state = JobState::Queued;
                    let ticket = inner.queue.push(record.priority, id.clone());
                    record.ticket = Some(ticket);
                    inner.active_by_key.insert(record.key, id.clone());
                    *inner
                        .active_per_client
                        .entry(record.client.clone())
                        .or_insert(0) += 1;
                    inner.jobs.insert(id, record);
                    requeued += 1;
                }
            }
        }
        drop(inner);
        self.recovered.fetch_add(requeued as u64, Ordering::Relaxed);
        if requeued > 0 {
            self.work.notify_all();
        }
        requeued
    }

    fn load_job_record(&self, id: &str) -> Option<JobRecord> {
        let text = std::fs::read_to_string(self.job_path(id)).ok()?;
        let body = cache::unseal(&text).ok()?;
        let doc = json::parse(body).ok()?;
        let spec = JobSpec::from_json(doc.get("spec")?).ok()?;
        let priority = doc.get("priority")?.as_u64()? as u8;
        let client = doc.get("client")?.as_str()?.to_string();
        let key = spec.key();
        Some(JobRecord {
            spec,
            priority,
            client,
            state: JobState::Queued,
            key,
            ticket: None,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Submits one parsed request. The sealed job envelope is on disk
    /// before the job becomes visible in the queue, so an accepted job
    /// survives any crash.
    pub fn submit(
        &self,
        spec: JobSpec,
        priority: u8,
        client: &str,
    ) -> Result<SubmitOutcome, String> {
        let key = spec.key();
        let mut inner = self.lock();
        if inner.draining {
            return Err("daemon is draining; not accepting jobs".to_string());
        }
        if let Some(id) = inner.active_by_key.get(&key) {
            let id = id.clone();
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok(SubmitOutcome::Coalesced(id));
        }
        let active = inner.active_per_client.get(client).copied().unwrap_or(0);
        if active >= self.quota {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Ok(SubmitOutcome::OverQuota {
                client: client.to_string(),
                active,
                limit: self.quota,
            });
        }
        let id = format!("job-{}", inner.next_id);
        inner.next_id += 1;
        let body = format!(
            "{{\"id\": \"{}\", \"client\": \"{}\", \"priority\": {priority}, \"spec\": {}}}",
            json::escape(&id),
            json::escape(client),
            spec.to_json()
        );
        if !cache::write_sealed(&self.job_path(&id), &body) {
            return Err(format!("could not persist job envelope for {id}"));
        }
        let ticket = inner.queue.push(priority, id.clone());
        inner.active_by_key.insert(key, id.clone());
        *inner
            .active_per_client
            .entry(client.to_string())
            .or_insert(0) += 1;
        inner.jobs.insert(
            id.clone(),
            JobRecord {
                spec,
                priority,
                client: client.to_string(),
                state: JobState::Queued,
                key,
                ticket: Some(ticket),
            },
        );
        drop(inner);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.work.notify_all();
        Ok(SubmitOutcome::Created(id))
    }

    /// Blocks until a job is available (or the manager is draining and
    /// empty, returning `None`). The returned job is marked running.
    pub fn next_job(&self) -> Option<(String, JobSpec)> {
        let mut inner = self.lock();
        loop {
            if !inner.paused {
                if let Some((_, id)) = inner.queue.pop() {
                    inner.running = Some(id.clone());
                    let record = inner.jobs.get_mut(&id).expect("queued job is tracked");
                    record.state = JobState::Running;
                    record.ticket = None;
                    return Some((id, record.spec.clone()));
                }
                if inner.draining {
                    return None;
                }
            } else if inner.draining {
                // Draining overrides a paused queue: finish the work.
                inner.paused = false;
                continue;
            }
            let (guard, _) = self
                .work
                .wait_timeout(inner, Duration::from_millis(100))
                .map(|(g, t)| (g, t.timed_out()))
                .unwrap_or_else(|poisoned| {
                    let (g, t) = poisoned.into_inner();
                    (g, t.timed_out())
                });
            inner = guard;
        }
    }

    /// Records a finished job: the sealed result envelope lands on disk
    /// first, then the job flips to done/failed and its key and quota
    /// slot are released.
    pub fn complete(&self, id: &str, outcome: Result<String, String>) {
        let (state, payload) = match outcome {
            Ok(report) => (JobState::Done, report),
            Err(error) => (
                JobState::Failed,
                format!("{{\"error\": \"{}\"}}\n", json::escape(&error)),
            ),
        };
        let body = format!("dmdc-result v1\nstate {}\n{payload}", state.token());
        cache::write_sealed(&self.result_path(id), &body);
        let mut inner = self.lock();
        if inner.running.as_deref() == Some(id) {
            inner.running = None;
        }
        if let Some(record) = inner.jobs.get_mut(id) {
            record.state = state;
            let key = record.key;
            let client = record.client.clone();
            inner.active_by_key.remove(&key);
            if let Some(n) = inner.active_per_client.get_mut(&client) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    inner.active_per_client.remove(&client);
                }
            }
        }
        drop(inner);
        match state {
            JobState::Done => self.completed.fetch_add(1, Ordering::Relaxed),
            _ => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        self.work.notify_all();
    }

    /// Pauses or resumes dispatch. Paused, submissions still enqueue;
    /// nothing pops. (The black-box tests use this to make coalescing
    /// and quota behavior deterministic.)
    pub fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.work.notify_all();
    }

    /// Whether dispatch is paused.
    pub fn paused(&self) -> bool {
        self.lock().paused
    }

    /// Switches to drain mode: no new submissions, the queue keeps
    /// popping (even if paused) until empty, then [`JobManager::next_job`]
    /// returns `None`.
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        inner.paused = false;
        drop(inner);
        self.work.notify_all();
    }

    /// Whether drain mode is active.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Number of queued (not yet running) jobs.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Ids of all tracked jobs, in numeric id order.
    pub fn job_ids(&self) -> Vec<String> {
        let inner = self.lock();
        let mut ids: Vec<(u64, String)> = inner
            .jobs
            .keys()
            .filter_map(|id| {
                id.strip_prefix("job-")
                    .and_then(|n| n.parse().ok())
                    .map(|seq| (seq, id.clone()))
            })
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// The status document for one job, or `None` if unknown.
    pub fn status_json(&self, id: &str) -> Option<String> {
        let inner = self.lock();
        let record = inner.jobs.get(id)?;
        Some(format!(
            "{{\"id\": \"{}\", \"state\": \"{}\", \"priority\": {}, \"client\": \"{}\", \
             \"spec\": {}}}\n",
            json::escape(id),
            record.state.token(),
            record.priority,
            json::escape(&record.client),
            record.spec.to_json()
        ))
    }

    /// The state of one job, or `None` if unknown.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.lock().jobs.get(id).map(|r| r.state)
    }

    /// A finished job's persisted result: `(state, payload)`, where the
    /// payload is the byte-exact stored document (a report for done jobs,
    /// an error document for failed ones). `None` while unfinished or if
    /// the envelope is missing/corrupt.
    pub fn load_result(&self, id: &str) -> Option<(JobState, String)> {
        let text = std::fs::read_to_string(self.result_path(id)).ok()?;
        let body = cache::unseal(&text).ok()?;
        let rest = body.strip_prefix("dmdc-result v1\n")?;
        let (state_line, payload) = rest.split_once('\n')?;
        let state = match state_line.strip_prefix("state ")? {
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        };
        Some((state, payload.to_string()))
    }

    /// A snapshot of the service counters.
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            submitted: self.submitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &str) -> JobSpec {
        JobSpec::Cell {
            workload: workload.to_string(),
            policy: PolicyKind::DmdcGlobal,
            config: 2,
            scale: Scale::Smoke,
            inval_rate: 0.0,
            sampled: false,
        }
    }

    fn manager(tag: &str, quota: usize) -> (JobManager, PathBuf) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("dmdc-jobs-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        (
            JobManager::new(&dir, quota, RunCtx::default()).unwrap(),
            dir,
        )
    }

    #[test]
    fn spec_json_roundtrip() {
        for s in [
            spec("histo"),
            JobSpec::Cell {
                workload: "synthetic".to_string(),
                policy: PolicyKind::Yla {
                    regs: 8,
                    line_interleaved: true,
                },
                config: 3,
                scale: Scale::Default,
                inval_rate: 2.5,
                sampled: true,
            },
            JobSpec::Experiment {
                id: "fig2".to_string(),
                scale: Scale::Smoke,
            },
        ] {
            let doc = json::parse(&s.to_json()).unwrap();
            assert_eq!(JobSpec::from_json(&doc).unwrap(), s);
        }
    }

    #[test]
    fn submission_validation_rejects_garbage() {
        for bad in [
            r#"{"kind": "cell"}"#,
            r#"{"kind": "cell", "workload": "nope", "policy": "baseline"}"#,
            r#"{"kind": "cell", "workload": "histo", "policy": "bogus"}"#,
            r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "config": 9}"#,
            r#"{"kind": "experiment", "id": "not-an-experiment"}"#,
            r#"{"kind": "mystery"}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(
                JobSpec::from_json(&doc).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn identical_inflight_submissions_coalesce() {
        let (m, dir) = manager("coalesce", 16);
        let a = m.submit(spec("histo"), 100, "alice").unwrap();
        let SubmitOutcome::Created(id) = a else {
            panic!("first submission creates");
        };
        for _ in 0..3 {
            assert_eq!(
                m.submit(spec("histo"), 100, "bob").unwrap(),
                SubmitOutcome::Coalesced(id.clone())
            );
        }
        // A different spec is a new job.
        assert!(matches!(
            m.submit(spec("saxpy"), 100, "bob").unwrap(),
            SubmitOutcome::Created(_)
        ));
        let c = m.counters();
        assert_eq!((c.submitted, c.coalesced), (2, 3));
        // Completion releases the key: the next identical submission is new.
        m.set_paused(true);
        m.complete(&id, Ok("{}\n".to_string()));
        assert!(matches!(
            m.submit(spec("histo"), 100, "carol").unwrap(),
            SubmitOutcome::Created(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_limits_inflight_jobs_per_client() {
        let (m, dir) = manager("quota", 2);
        assert!(matches!(
            m.submit(spec("histo"), 100, "alice").unwrap(),
            SubmitOutcome::Created(_)
        ));
        assert!(matches!(
            m.submit(spec("saxpy"), 100, "alice").unwrap(),
            SubmitOutcome::Created(_)
        ));
        match m.submit(spec("crc"), 100, "alice").unwrap() {
            SubmitOutcome::OverQuota {
                client,
                active,
                limit,
            } => {
                assert_eq!((client.as_str(), active, limit), ("alice", 2, 2));
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // Another client is unaffected.
        assert!(matches!(
            m.submit(spec("crc"), 100, "bob").unwrap(),
            SubmitOutcome::Created(_)
        ));
        // Completing one of alice's jobs frees a slot. (A fresh spec —
        // `crc` would coalesce onto bob's in-flight job.)
        m.complete("job-1", Ok("{}\n".to_string()));
        assert!(matches!(
            m.submit(spec("mm"), 100, "alice").unwrap(),
            SubmitOutcome::Created(_)
        ));
        assert_eq!(m.counters().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn priority_orders_dispatch_fifo_within() {
        let (m, dir) = manager("priority", 16);
        m.set_paused(true);
        m.submit(spec("histo"), 10, "c").unwrap(); // job-1
        m.submit(spec("saxpy"), 200, "c").unwrap(); // job-2
        m.submit(spec("crc"), 10, "c").unwrap(); // job-3
        m.set_paused(false);
        let order: Vec<String> = (0..3).map(|_| m.next_job().unwrap().0).collect();
        assert_eq!(order, ["job-2", "job-1", "job-3"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_requeues_unfinished_jobs_in_id_order() {
        let (m, dir) = manager("recover", 16);
        m.set_paused(true);
        m.submit(spec("histo"), 100, "alice").unwrap(); // job-1
        m.submit(spec("saxpy"), 100, "alice").unwrap(); // job-2
        m.submit(spec("crc"), 100, "bob").unwrap(); // job-3
        m.complete("job-2", Ok("{\"x\": 1}\n".to_string()));
        drop(m);
        // A fresh manager over the same state dir: job-2 is done on disk,
        // job-1 and job-3 come back queued, in id order.
        let m2 = JobManager::new(&dir, 16, RunCtx::default()).unwrap();
        m2.set_paused(true);
        assert_eq!(m2.recover(), 2);
        assert_eq!(m2.counters().recovered, 2);
        assert_eq!(m2.state("job-2"), Some(JobState::Done));
        assert_eq!(
            m2.load_result("job-2"),
            Some((JobState::Done, "{\"x\": 1}\n".to_string()))
        );
        // Next ids continue after the recovered ones.
        let SubmitOutcome::Created(id) = m2.submit(spec("mm"), 100, "bob").unwrap() else {
            panic!("new job after recovery");
        };
        assert_eq!(id, "job-4");
        m2.set_paused(false);
        assert_eq!(m2.next_job().unwrap().0, "job-1");
        assert_eq!(m2.next_job().unwrap().0, "job-3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jobs_store_error_documents() {
        let (m, dir) = manager("failed", 16);
        m.submit(spec("histo"), 100, "c").unwrap();
        m.complete("job-1", Err("it broke".to_string()));
        let (state, payload) = m.load_result("job-1").unwrap();
        assert_eq!(state, JobState::Failed);
        let doc = json::parse(&payload).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("it broke"));
        assert_eq!(m.state("job-1"), Some(JobState::Failed));
        assert_eq!(m.counters().failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_job_executes_to_report_json() {
        let s = spec("histo");
        let payload = execute(&s, &RunCtx::default()).unwrap();
        let doc = json::parse(&payload).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("cell"));
        let tables = doc.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("histo"));
    }
}
