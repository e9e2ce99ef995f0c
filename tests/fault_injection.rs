//! Fault-injection regression tests: every recovery path — cell-panic
//! retry, quarantine after exhausted retries, hang/watchdog timeout,
//! worker-thread death, cache corruption — is exercised deterministically
//! through the CLI's `--inject-faults` plan, and each must end with the
//! exact bytes a fault-free run produces (or, for quarantine, with the
//! structured failure table and a nonzero exit).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dmdc(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmdc"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn dmdc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SUITE: &[&str] = &[
    "suite",
    "--scale",
    "smoke",
    "--policy",
    "dmdc-global",
    "--jobs",
    "2",
    "--no-cache",
];

fn suite_with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = SUITE.to_vec();
    args.extend(extra);
    args
}

/// Parses `"<n> <label>"` out of the `--profile` recovery line, e.g. the
/// `3` from `... recovery: 3 retries, 0 cell failures, ...`.
fn recovery_field(err: &str, label: &str) -> u64 {
    let line = err
        .lines()
        .find(|l| l.contains("[profile] recovery:"))
        .unwrap_or_else(|| panic!("no recovery line in stderr:\n{err}"));
    let idx = line
        .find(label)
        .unwrap_or_else(|| panic!("no `{label}` field in `{line}`"));
    line[..idx]
        .trim_end()
        .rsplit(' ')
        .next()
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("unparsable `{label}` in `{line}`"))
}

#[test]
fn injected_panics_are_retried_to_an_identical_report() {
    let wd = workdir("dmdc-fault-panic-wd");
    let clean = dmdc(&wd, SUITE);
    assert!(clean.status.success(), "{}", stderr(&clean));

    // panic=1 selects every workload; the panic fires on attempt 0 only,
    // so the default single retry recovers each cell.
    let faulted = dmdc(
        &wd,
        &suite_with(&["--inject-faults", "seed=1,panic=1", "--profile"]),
    );
    assert!(
        faulted.status.success(),
        "injected panics must be survived: {}",
        stderr(&faulted)
    );
    assert_eq!(
        stdout(&faulted),
        stdout(&clean),
        "recovered run must emit identical bytes"
    );
    let err = stderr(&faulted);
    assert!(
        recovery_field(&err, "retries") > 0,
        "retries recorded:\n{err}"
    );
    assert_eq!(recovery_field(&err, "cell failures"), 0, "{err}");
}

#[test]
fn exhausted_retries_quarantine_with_a_structured_report() {
    let wd = workdir("dmdc-fault-quarantine-wd");
    // panic-attempts=99 outlasts any sane retry budget: every attempt of
    // every cell panics, so every cell quarantines.
    let out = dmdc(
        &wd,
        &suite_with(&[
            "--inject-faults",
            "seed=1,panic=1,panic-attempts=99",
            "--retries",
            "1",
        ]),
    );
    assert!(!out.status.success(), "a partial report must exit nonzero");
    let text = stdout(&out);
    assert!(
        text.contains("== quarantined cells =="),
        "failure table missing:\n{text}"
    );
    assert!(text.contains("panic"), "failure kind missing:\n{text}");
    assert!(
        text.contains("injected fault: cell panic"),
        "failure detail missing:\n{text}"
    );
    assert!(
        stderr(&out).contains("quarantined"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn hung_cells_hit_the_watchdog_and_recover() {
    let wd = workdir("dmdc-fault-hang-wd");
    let clean = dmdc(&wd, SUITE);
    assert!(clean.status.success(), "{}", stderr(&clean));

    // Every cell's first attempt sleeps well past the watchdog; the
    // retry (no hang on attempt 1) completes normally. The watchdog is
    // generous because the retry attempt — a real debug-build simulation
    // under parallel load — must finish inside it.
    let faulted = dmdc(
        &wd,
        &suite_with(&[
            "--inject-faults",
            "seed=1,hang=1,hang-ms=20000",
            "--cell-timeout",
            "3000",
            "--profile",
        ]),
    );
    assert!(
        faulted.status.success(),
        "hangs must be survived: {}",
        stderr(&faulted)
    );
    assert_eq!(stdout(&faulted), stdout(&clean));
    let err = stderr(&faulted);
    assert!(recovery_field(&err, "retries") > 0, "{err}");
    assert_eq!(recovery_field(&err, "cell failures"), 0, "{err}");
}

#[test]
fn a_dead_worker_degrades_to_serial_not_to_failure() {
    let wd = workdir("dmdc-fault-worker-wd");
    let clean = dmdc(&wd, SUITE);
    assert!(clean.status.success(), "{}", stderr(&clean));

    let faulted = dmdc(
        &wd,
        &suite_with(&[
            "--jobs",
            "4",
            "--inject-faults",
            "worker-panic=1",
            "--profile",
        ]),
    );
    assert!(
        faulted.status.success(),
        "a dead worker must not fail the run: {}",
        stderr(&faulted)
    );
    assert_eq!(stdout(&faulted), stdout(&clean));
    let err = stderr(&faulted);
    assert_eq!(recovery_field(&err, "workers lost"), 1, "{err}");
    assert_eq!(recovery_field(&err, "cell failures"), 0, "{err}");
}

#[test]
fn corrupted_cache_entries_are_quarantined_and_regenerated() {
    let wd = workdir("dmdc-fault-cache-wd");
    // First run: the cache fills, then every freshly written entry gets a
    // byte flipped (corruption lands after the in-memory result is used,
    // so this run's output is already correct).
    let seeding = dmdc(
        &wd,
        &[
            "suite",
            "--scale",
            "smoke",
            "--policy",
            "dmdc-global",
            "--jobs",
            "2",
            "--inject-faults",
            "corrupt=1",
        ],
    );
    assert!(seeding.status.success(), "{}", stderr(&seeding));

    // Second run, no faults: every lookup must detect the damage,
    // quarantine the entry, re-simulate, and emit identical bytes.
    let recovered = dmdc(
        &wd,
        &[
            "suite",
            "--scale",
            "smoke",
            "--policy",
            "dmdc-global",
            "--jobs",
            "2",
            "--profile",
        ],
    );
    assert!(recovered.status.success(), "{}", stderr(&recovered));
    assert_eq!(stdout(&recovered), stdout(&seeding));
    let err = stderr(&recovered);
    assert!(recovery_field(&err, "cache quarantined") > 0, "{err}");
    assert!(
        err.contains("corrupt"),
        "profile cache line must carry integrity counters: {err}"
    );
    let quarantine = wd.join("target/dmdc-cache/quarantine");
    assert!(
        std::fs::read_dir(&quarantine)
            .map(|d| d.count())
            .unwrap_or(0)
            > 0,
        "damaged entries preserved for inspection"
    );

    // Third run: the regenerated entries are trusted again (pure hits,
    // nothing quarantined).
    let warm = dmdc(
        &wd,
        &[
            "suite",
            "--scale",
            "smoke",
            "--policy",
            "dmdc-global",
            "--jobs",
            "2",
            "--profile",
        ],
    );
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(stdout(&warm), stdout(&seeding));
    assert_eq!(recovery_field(&stderr(&warm), "cache quarantined"), 0);
}

#[test]
fn truncated_journal_entries_are_dropped_on_resume() {
    let wd = workdir("dmdc-fault-truncate-wd");
    let clean = dmdc(&wd, SUITE);
    assert!(clean.status.success(), "{}", stderr(&clean));

    // Journal every cell, tearing every second checkpoint, then abort.
    let crashed = dmdc(
        &wd,
        &suite_with(&[
            "--run-id",
            "torn-entries",
            "--inject-faults",
            "truncate=2,kill-after=6",
        ]),
    );
    assert!(!crashed.status.success());

    // Resume: torn entries are dropped (and re-simulated), intact ones
    // replay; the report is still byte-identical.
    let resumed = dmdc(&wd, &["run", "--resume", "torn-entries", "--profile"]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    assert_eq!(stdout(&resumed), stdout(&clean));
}

#[test]
fn fuzz_replay_fails_gracefully_on_bad_repro_files() {
    let wd = workdir("dmdc-fault-replay-wd");

    // Missing file: clean error, nonzero exit.
    let missing = dmdc(&wd, &["fuzz", "--replay", "no/such/file.repro"]);
    assert!(!missing.status.success());
    assert!(
        stderr(&missing).contains("cannot read"),
        "stderr: {}",
        stderr(&missing)
    );

    // Syntactically corrupt file: clean parse error, nonzero exit.
    let garbage = wd.join("garbage.repro");
    std::fs::write(&garbage, "seed 1\nwarble warble\n").unwrap();
    let corrupt = dmdc(&wd, &["fuzz", "--replay", garbage.to_str().unwrap()]);
    assert!(!corrupt.status.success());
    assert!(
        stderr(&corrupt).contains("error:"),
        "stderr: {}",
        stderr(&corrupt)
    );

    // Parseable but degenerate kernel: whatever happens inside the
    // simulator is caught and reported — the process itself never dies.
    let degenerate = wd.join("degenerate.repro");
    std::fs::write(
        &degenerate,
        "policy dmdc-global\nconfig 2\nfailure panic\niters 0\nop alu\n",
    )
    .unwrap();
    let replayed = dmdc(&wd, &["fuzz", "--replay", degenerate.to_str().unwrap()]);
    // Clean replay (exit 0) or a reported reproduction (exit 1 with the
    // structured message) are both acceptable; an abort is not.
    assert!(
        replayed.status.code().is_some(),
        "replay must exit, not die on a signal"
    );
    assert!(
        stdout(&replayed).contains("replaying"),
        "stdout: {}",
        stdout(&replayed)
    );
}

/// Fault keys and suite flags nobody reads are rejected up front, naming
/// the offender, rather than silently running a fault-free suite.
#[test]
fn unknown_fault_keys_and_flags_are_rejected() {
    let wd = workdir("dmdc-fault-unknown-keys-wd");
    for (extra, offender) in [
        (
            &["--inject-faults", "seed=1,worker-kill-after=1"][..],
            "worker-kill-after",
        ),
        (&["--inject-faults", "seed=1,warble=3"][..], "warble"),
        (&["--distrib"][..], "--distrib"),
    ] {
        let out = dmdc(&wd, &suite_with(extra));
        assert!(!out.status.success(), "{extra:?} must be rejected");
        assert!(
            stderr(&out).contains(offender),
            "rejection must name `{offender}`: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "nothing may run: {}", stdout(&out));
    }
}
