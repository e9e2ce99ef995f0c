//! `dmdc serve` — the long-running simulation service.
//!
//! The daemon turns the experiment registry into a queryable HTTP/JSON
//! service: clients POST jobs (a single cell or a whole experiment),
//! poll their status, and fetch the finished report — the exact same
//! JSON documents the CLI's `--format json` emitters print. Everything
//! is std-only: the wire layer is the hand-rolled [`http`] module, the
//! documents go through the hand-rolled [`json`] parser, in the same
//! offline-shim spirit as the repo's proptest and criterion stand-ins.
//!
//! Layering:
//!
//! * [`json`] — a strict recursive-descent JSON parser + escaper;
//! * [`http`] — minimal HTTP/1.1 framing, server and client halves;
//! * [`jobs`] — the job model: spec parsing, quota accounting,
//!   job-level coalescing, sealed-envelope persistence, recovery, and
//!   execution through the ordinary [`Engine`](crate::runner::Engine);
//! * this module — the daemon itself: socket loop, routing, dispatcher
//!   thread, graceful drain on SIGTERM/`POST /shutdown`.
//!
//! Duplicate suppression happens twice, deliberately at two layers:
//! identical *submissions* merge onto one queued job here (see
//! [`jobs::JobManager::submit`]), and identical *cells* racing inside
//! the engine merge onto one simulation through the daemon context's
//! [`SingleFlight`](crate::flight::SingleFlight) table. The first keeps
//! the queue and quota honest; the second protects even unrelated jobs
//! that happen to share cells.
//!
//! # Routes
//!
//! | Method, path            | Meaning                                       |
//! |-------------------------|-----------------------------------------------|
//! | `GET /health`           | liveness probe                                |
//! | `POST /jobs`            | submit a job (see [`jobs::JobSpec`])          |
//! | `GET /jobs`             | list all tracked jobs                         |
//! | `GET /jobs/<id>`        | one job's status document                     |
//! | `GET /jobs/<id>/result` | the stored result (202 while pending)         |
//! | `GET /metrics`          | service + cache + single-flight counters      |
//! | `POST /queue/pause`     | stop dispatching (submissions still enqueue)  |
//! | `POST /queue/resume`    | resume dispatching                            |
//! | `POST /shutdown`        | graceful drain, then exit                     |
//!
//! Status codes are part of the contract: 202 pending result, 404
//! unknown id, 405 wrong method, 408 stalled client (read deadline),
//! 409 draining, 413 oversized headers/body, 429 over quota, 500
//! failed job / internal error.

pub mod http;
pub mod jobs;
pub mod json;

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::CellCache;
use crate::flight::SingleFlight;
use crate::runner::RunCtx;
use crate::service::jobs::{JobManager, JobSpec, JobState, SubmitOutcome};

/// Process-wide stop flag: set by SIGTERM/SIGINT or `POST /shutdown`,
/// polled by the accept loop. A static because signal handlers can't
/// carry state.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Configuration for one [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (printed at boot).
    pub addr: String,
    /// Root for durable state: `jobs/`, `results/` and the cell `cache/`.
    pub state_dir: PathBuf,
    /// Per-client in-flight (queued + running) job limit.
    pub quota: usize,
    /// Boot with the dispatcher paused (tests use this to stage
    /// deterministic queue states before anything runs).
    pub paused: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("target/dmdc-serve"),
            quota: 16,
            paused: false,
        }
    }
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_term as extern "C" fn(i32) as usize); // SIGTERM
        signal(2, on_term as extern "C" fn(i32) as usize); // SIGINT
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Runs the daemon until a graceful shutdown completes. Every job runs
/// under `ctx`, completed with a cell cache (under `state_dir/cache`,
/// unless `ctx` carries one) and a single-flight table shared by all
/// jobs. Recovers any unfinished jobs from a previous life, prints the
/// bound address, and serves until SIGTERM/SIGINT or `POST /shutdown`
/// drains the queue.
pub fn serve(opts: &ServeOptions, mut ctx: RunCtx) -> Result<(), String> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();

    ctx.cache
        .get_or_insert_with(|| Arc::new(CellCache::new(opts.state_dir.join("cache"))));
    ctx.flight
        .get_or_insert_with(|| Arc::new(SingleFlight::new()));

    let manager = Arc::new(JobManager::new(&opts.state_dir, opts.quota, ctx)?);
    manager.set_paused(opts.paused);
    let recovered = manager.recover();

    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("{}: {e}", opts.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    println!("dmdc serve: listening on {addr}");
    println!(
        "dmdc serve: state dir {} ({recovered} job(s) recovered)",
        opts.state_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // One dispatcher: jobs run strictly one at a time in queue order
    // (each job is internally parallel through the engine's worker pool),
    // which is what makes killed-and-restarted runs byte-identical.
    let dispatcher = {
        let manager = Arc::clone(&manager);
        std::thread::spawn(move || {
            while let Some((id, spec)) = manager.next_job() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    jobs::execute(&spec, manager.ctx())
                }))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".to_string());
                    Err(format!("panic: {msg}"))
                });
                manager.complete(&id, outcome);
            }
        })
    };

    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let manager = Arc::clone(&manager);
                handlers.push(std::thread::spawn(move || handle(stream, &manager)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept: {e}")),
        }
        handlers.retain(|h| !h.is_finished());
    }

    // Graceful drain: stop accepting, finish every queued job, persist
    // every result, then exit.
    manager.begin_drain();
    for h in handlers {
        let _ = h.join();
    }
    dispatcher.join().map_err(|_| "dispatcher panicked")?;
    println!("dmdc serve: drained, exiting");
    Ok(())
}

/// Serves one connection: read a request, route it, write one response.
/// The per-connection read deadline plus the size caps in
/// [`http::read_request`] mean one slow, stalled or oversized client
/// costs a handler thread at most 30 seconds, answered with a structured
/// 408/413/400 — it can never pin the accept loop.
fn handle(mut stream: TcpStream, manager: &JobManager) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            http::respond(&mut stream, e.status(), &error_body(e.message()));
            return;
        }
    };
    let (status, body) = route(&request, manager);
    http::respond(&mut stream, status, &body);
}

fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", json::escape(message))
}

/// Routes one request to its `(status, body)`. Public so tests can pin
/// the wire contract without sockets.
pub fn route(request: &http::Request, manager: &JobManager) -> (u16, String) {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/health") => (200, "{\"ok\": true}\n".to_string()),
        ("POST", "/jobs") => submit(request, manager),
        ("GET", "/jobs") => list_jobs(manager),
        ("GET", "/metrics") => (200, metrics_json(manager)),
        ("POST", "/queue/pause") => {
            manager.set_paused(true);
            (200, "{\"paused\": true}\n".to_string())
        }
        ("POST", "/queue/resume") => {
            manager.set_paused(false);
            (200, "{\"paused\": false}\n".to_string())
        }
        ("POST", "/shutdown") => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            (200, "{\"draining\": true}\n".to_string())
        }
        ("GET", _) if path.starts_with("/jobs/") => job_route(path, manager),
        (_, "/health" | "/jobs" | "/metrics" | "/queue/pause" | "/queue/resume" | "/shutdown") => {
            (405, error_body(&format!("{method} not allowed on {path}")))
        }
        (_, _) if path.starts_with("/jobs/") => {
            (405, error_body(&format!("{method} not allowed on {path}")))
        }
        _ => (404, error_body(&format!("no route for {path}"))),
    }
}

/// `POST /jobs`: parse, validate, submit, answer with the job id.
fn submit(request: &http::Request, manager: &JobManager) -> (u16, String) {
    let doc = match json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => return (400, error_body(&format!("bad JSON: {e}"))),
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(e) => return (400, error_body(&e)),
    };
    let priority = match doc.get("priority") {
        None => 100,
        Some(v) => match v.as_u64() {
            Some(p @ 0..=255) => p as u8,
            _ => return (400, error_body("`priority` must be an integer in 0..=255")),
        },
    };
    let client = match doc.get("client") {
        None => "anonymous",
        Some(v) => match v.as_str() {
            Some(c) if !c.is_empty() => c,
            _ => return (400, error_body("`client` must be a non-empty string")),
        },
    };
    match manager.submit(spec, priority, client) {
        Ok(SubmitOutcome::Created(id)) => (
            200,
            format!(
                "{{\"id\": \"{}\", \"state\": \"queued\", \"coalesced\": false}}\n",
                json::escape(&id)
            ),
        ),
        Ok(SubmitOutcome::Coalesced(id)) => {
            let state = manager.state(&id).map(|s| s.token()).unwrap_or("queued");
            (
                200,
                format!(
                    "{{\"id\": \"{}\", \"state\": \"{state}\", \"coalesced\": true}}\n",
                    json::escape(&id)
                ),
            )
        }
        Ok(SubmitOutcome::OverQuota {
            client,
            active,
            limit,
        }) => (
            429,
            format!(
                "{{\"error\": \"quota exceeded\", \"client\": \"{}\", \
                 \"active\": {active}, \"limit\": {limit}}}\n",
                json::escape(&client)
            ),
        ),
        Err(e) if e.contains("draining") => (409, error_body(&e)),
        Err(e) => (500, error_body(&e)),
    }
}

/// `GET /jobs`: every tracked job's status document, in id order.
fn list_jobs(manager: &JobManager) -> (u16, String) {
    let mut out = String::from("{\"jobs\": [");
    for (i, id) in manager.job_ids().iter().enumerate() {
        let Some(status) = manager.status_json(id) else {
            continue;
        };
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(status.trim_end());
    }
    out.push_str("]}\n");
    (200, out)
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/result`.
fn job_route(path: &str, manager: &JobManager) -> (u16, String) {
    let rest = &path["/jobs/".len()..];
    if let Some(id) = rest.strip_suffix("/result") {
        return match manager.state(id) {
            None => (404, error_body(&format!("unknown job `{id}`"))),
            Some(JobState::Queued | JobState::Running) => {
                (202, manager.status_json(id).unwrap_or_default())
            }
            Some(JobState::Done | JobState::Failed) => match manager.load_result(id) {
                Some((JobState::Done, payload)) => (200, payload),
                Some((_, payload)) => (500, payload),
                None => (500, error_body("result envelope missing or corrupt")),
            },
        };
    }
    match manager.status_json(rest) {
        Some(status) => (200, status),
        None => (404, error_body(&format!("unknown job `{rest}`"))),
    }
}

/// `GET /metrics`: service, queue, cache and single-flight counters in
/// one document.
fn metrics_json(manager: &JobManager) -> String {
    let c = manager.counters();
    let mut out = format!(
        "{{\"jobs\": {{\"submitted\": {}, \"coalesced\": {}, \"rejected\": {}, \
         \"completed\": {}, \"failed\": {}, \"recovered\": {}, \"queue_depth\": {}, \
         \"paused\": {}}}",
        c.submitted,
        c.coalesced,
        c.rejected,
        c.completed,
        c.failed,
        c.recovered,
        manager.queue_depth(),
        manager.paused()
    );
    let ctx = manager.ctx();
    if let Some(cache) = &ctx.cache {
        let cc = cache.counters();
        out.push_str(&format!(
            ", \"cache\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}, \
             \"corrupt\": {}, \"quarantined\": {}}}",
            cc.hits, cc.misses, cc.stores, cc.corrupt, cc.quarantined
        ));
    }
    if let Some(flight) = &ctx.flight {
        let fc = flight.counters();
        out.push_str(&format!(
            ", \"flight\": {{\"led\": {}, \"coalesced\": {}, \"waiting\": {}}}",
            fc.led,
            fc.coalesced,
            flight.waiting()
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PolicyKind;
    use dmdc_workloads::Scale;

    fn manager(tag: &str) -> (JobManager, PathBuf) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("dmdc-serve-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        (JobManager::new(&dir, 4, RunCtx::default()).unwrap(), dir)
    }

    fn post_jobs(manager: &JobManager, body: &str) -> (u16, String) {
        route(
            &http::Request {
                method: "POST".to_string(),
                path: "/jobs".to_string(),
                body: body.to_string(),
            },
            manager,
        )
    }

    fn get(manager: &JobManager, path: &str) -> (u16, String) {
        route(
            &http::Request {
                method: "GET".to_string(),
                path: path.to_string(),
                body: String::new(),
            },
            manager,
        )
    }

    #[test]
    fn submit_poll_fetch_through_the_router() {
        let (m, dir) = manager("router");
        m.set_paused(true);
        let (status, body) = post_jobs(
            &m,
            r#"{"kind": "cell", "workload": "histo", "policy": "dmdc-global", "client": "t"}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("job-1"));
        assert_eq!(doc.get("coalesced").unwrap().as_bool(), Some(false));

        // Pending result polls as 202 with the status document.
        let (status, body) = get(&m, "/jobs/job-1/result");
        assert_eq!(status, 202);
        assert!(body.contains("\"state\": \"queued\""));

        // Identical submission coalesces onto the same id.
        let (status, body) = post_jobs(
            &m,
            r#"{"kind": "cell", "workload": "histo", "policy": "dmdc-global", "client": "u"}"#,
        );
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("job-1"));
        assert_eq!(doc.get("coalesced").unwrap().as_bool(), Some(true));

        // Complete it; the result route now returns the stored payload.
        m.complete("job-1", Ok("{\"report\": 1}\n".to_string()));
        let (status, body) = get(&m, "/jobs/job-1/result");
        assert_eq!((status, body.as_str()), (200, "{\"report\": 1}\n"));

        // Unknown ids are 404, wrong methods 405, unknown routes 404.
        assert_eq!(get(&m, "/jobs/job-99").0, 404);
        assert_eq!(get(&m, "/jobs/job-99/result").0, 404);
        assert_eq!(post_jobs(&m, "{}").0, 400);
        assert_eq!(
            route(
                &http::Request {
                    method: "DELETE".to_string(),
                    path: "/jobs".to_string(),
                    body: String::new(),
                },
                &m,
            )
            .0,
            405
        );
        assert_eq!(get(&m, "/nope").0, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_rejection_is_a_structured_429() {
        let (m, dir) = manager("quota429");
        m.set_paused(true);
        let body = |w: &str| {
            format!(
                "{{\"kind\": \"cell\", \"workload\": \"{w}\", \
                 \"policy\": \"baseline\", \"client\": \"greedy\"}}"
            )
        };
        for w in ["histo", "saxpy", "crc", "mm"] {
            assert_eq!(post_jobs(&m, &body(w)).0, 200);
        }
        let (status, reply) = post_jobs(&m, &body("fir"));
        assert_eq!(status, 429);
        let doc = json::parse(&reply).unwrap();
        assert_eq!(doc.get("client").unwrap().as_str(), Some("greedy"));
        assert_eq!(doc.get("active").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("limit").unwrap().as_u64(), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_document_parses_and_counts() {
        let (m, dir) = manager("metrics");
        m.set_paused(true);
        let spec = JobSpec::Cell {
            workload: "histo".to_string(),
            policy: PolicyKind::Baseline,
            config: 2,
            scale: Scale::Smoke,
            inval_rate: 0.0,
            sampled: false,
        };
        m.submit(spec.clone(), 100, "c").unwrap();
        m.submit(spec, 100, "c").unwrap(); // coalesces
        let doc = json::parse(&metrics_json(&m)).unwrap();
        let jobs = doc.get("jobs").unwrap();
        assert_eq!(jobs.get("submitted").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("coalesced").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("queue_depth").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("paused").unwrap().as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
