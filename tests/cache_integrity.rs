//! Cache-integrity matrix: every class of on-disk damage — truncation,
//! a bit-flipped body, a lying checksum, a foreign or version-mismatched
//! header, a stale (checksum-valid but undeserializable) record — must be
//! detected before deserialization, quarantined to `quarantine/` under
//! the cache root, counted, and transparently regenerated. A damaged
//! entry is never silently deserialized and never consulted twice.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use dmdc::core::cache::{seal, unseal, CellCache};
use dmdc::core::experiments::PolicyKind;
use dmdc::core::runner::{Engine, RunCtx, RunSpec};
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{SyntheticKernel, Workload};

/// A fresh, empty cache directory under `target/`.
fn cache_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workloads() -> Vec<Workload> {
    vec![SyntheticKernel::new(300).seed(99).build()]
}

fn spec() -> RunSpec {
    RunSpec::new(0, &CoreConfig::config2(), PolicyKind::DmdcGlobal)
}

fn run(workloads: &[Workload], cache: &Arc<CellCache>) -> dmdc::core::CellResult {
    let ctx = RunCtx {
        jobs: 1,
        cache: Some(Arc::clone(cache)),
        ..RunCtx::default()
    };
    Engine::with_ctx(workloads, ctx).run_cell(&spec())
}

/// The single `.cell` file a one-cell run leaves behind.
fn the_entry(dir: &Path) -> PathBuf {
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    assert_eq!(cells.len(), 1, "expected exactly one cache entry");
    cells.pop().unwrap()
}

/// Damages the entry with `damage`, then proves the next run (a) does not
/// trust it, (b) moves it to `quarantine/`, (c) regenerates a cell equal
/// to the original, and (d) leaves a fresh, loadable entry behind.
fn damaged_entry_is_quarantined_and_regenerated(test: &str, damage: impl FnOnce(&Path) -> Vec<u8>) {
    let dir = cache_dir(&format!("dmdc-cache-integrity-{test}"));
    let ws = workloads();
    let original = run(&ws, &Arc::new(CellCache::new(&dir)));
    let entry = the_entry(&dir);
    let bytes = damage(&entry);
    std::fs::write(&entry, bytes).unwrap();

    let cache = Arc::new(CellCache::new(&dir));
    let regenerated = run(&ws, &cache);
    assert_eq!(regenerated, original, "{test}: regenerated cell must match");
    let c = cache.counters();
    assert_eq!(
        (c.hits, c.misses, c.stores, c.corrupt, c.quarantined),
        (0, 1, 1, 1, 1),
        "{test}: counters"
    );
    let quarantined: Vec<_> = std::fs::read_dir(cache.quarantine_dir())
        .unwrap_or_else(|e| panic!("{test}: no quarantine dir: {e}"))
        .flatten()
        .collect();
    assert_eq!(quarantined.len(), 1, "{test}: damaged file preserved");

    // The regenerated entry is trusted again: a third run is a pure hit.
    let warm = Arc::new(CellCache::new(&dir));
    assert_eq!(run(&ws, &warm), original);
    let c = warm.counters();
    assert_eq!((c.hits, c.corrupt), (1, 0), "{test}: warm after repair");
}

#[test]
fn truncated_entry() {
    damaged_entry_is_quarantined_and_regenerated("truncated", |p| {
        let bytes = std::fs::read(p).unwrap();
        bytes[..bytes.len() / 2].to_vec()
    });
}

#[test]
fn bit_flipped_body() {
    damaged_entry_is_quarantined_and_regenerated("bitflip", |p| {
        let mut bytes = std::fs::read(p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        bytes
    });
}

#[test]
fn checksum_mismatch_in_header() {
    damaged_entry_is_quarantined_and_regenerated("checksum", |p| {
        let text = std::fs::read_to_string(p).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        // Rewrite the header's checksum field to a lie; body untouched.
        let mut words: Vec<String> = header.split(' ').map(str::to_string).collect();
        let last = words.last_mut().unwrap();
        *last = format!("{:016x}", u64::from_str_radix(last, 16).unwrap() ^ 1);
        format!("{}\n{body}", words.join(" ")).into_bytes()
    });
}

#[test]
fn version_header_mismatch() {
    damaged_entry_is_quarantined_and_regenerated("version", |p| {
        std::fs::read_to_string(p)
            .unwrap()
            .replacen("dmdc-seal v1", "dmdc-seal v9", 1)
            .into_bytes()
    });
}

#[test]
fn foreign_file() {
    damaged_entry_is_quarantined_and_regenerated("foreign", |_| {
        b"this was never a sealed cell record".to_vec()
    });
}

#[test]
fn stale_record_with_valid_seal() {
    // A perfectly sealed envelope around a record the current schema
    // cannot parse: integrity passes, deserialization must still refuse.
    damaged_entry_is_quarantined_and_regenerated("stale", |_| {
        seal("dmdc-cell v0 3\nworkload synthetic\n1 2 3\n").into_bytes()
    });
}

// ---------------------------------------------------------------------
// Checkpoint-store integrity: the sampled fast-forward checkpoints under
// `checkpoints/` are held to the same discipline, proven end to end
// against the real binary (the store is installed by the CLI).

fn dmdc(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmdc"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn dmdc")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "dmdc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `[profile] checkpoint store: ...` line from a `--profile` run.
fn store_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|l| l.starts_with("[profile] checkpoint store:"))
        .unwrap_or_else(|| {
            panic!(
                "no checkpoint-store profile line in: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
        .to_string()
}

const SAMPLED_HISTO: &[&str] = &[
    "run",
    "--workload",
    "histo",
    "--policy",
    "dmdc-global",
    "--scale",
    "default",
    "--sampled",
    "--profile",
];

#[test]
fn damaged_checkpoints_are_quarantined_and_regenerated() {
    let wd = cache_dir("dmdc-ckpt-integrity-wd");
    std::fs::create_dir_all(&wd).unwrap();
    const RUN: &[&str] = SAMPLED_HISTO;

    // Cold: every window misses, fast-forwards, and seals a checkpoint.
    let cold = dmdc(&wd, RUN);
    let reference = stdout(&cold);
    assert!(
        store_line(&cold).contains("0 hits, 24 misses, 24 stored, 0 corrupt"),
        "cold run must populate the store, got: {}",
        store_line(&cold)
    );
    let ckpt_dir = wd.join("target/dmdc-cache/checkpoints");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 24, "one sealed checkpoint per window");

    // Damage three entries three different ways.
    let truncated = std::fs::read(&entries[0]).unwrap();
    std::fs::write(&entries[0], &truncated[..truncated.len() / 2]).unwrap();
    let mut flipped = std::fs::read(&entries[1]).unwrap();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x04;
    std::fs::write(&entries[1], flipped).unwrap();
    std::fs::write(&entries[2], b"this was never a sealed checkpoint").unwrap();

    // The damaged windows degrade to misses: quarantined, re-fast-forwarded
    // and re-sealed, with the report still byte-identical.
    let repair = dmdc(&wd, RUN);
    assert_eq!(stdout(&repair), reference, "repair run drifted");
    assert!(
        store_line(&repair).contains("21 hits, 3 misses, 3 stored, 3 corrupt, 3 quarantined"),
        "want quarantine-and-regenerate counters, got: {}",
        store_line(&repair)
    );
    // Each missed window fast-forwards from the nearest hit before it,
    // exactly as far as when every hit restored the master emulator.
    assert!(
        String::from_utf8_lossy(&repair.stderr).contains(" 30735 insts fast-forwarded"),
        "repair run fast-forwarded a different span: {}",
        String::from_utf8_lossy(&repair.stderr)
    );
    let quarantined = std::fs::read_dir(ckpt_dir.join("quarantine"))
        .expect("quarantine dir exists")
        .flatten()
        .count();
    assert_eq!(
        quarantined, 3,
        "damaged checkpoints preserved for post-mortem"
    );

    // The regenerated entries are trusted again: a third run is all hits.
    let warm = dmdc(&wd, RUN);
    assert_eq!(stdout(&warm), reference, "warm run drifted");
    assert!(
        store_line(&warm).contains("24 hits, 0 misses, 0 stored, 0 corrupt"),
        "repaired store must serve every window, got: {}",
        store_line(&warm)
    );
}

/// Re-seals the body of the envelope at `path` after `edit`.
fn reseal(path: &Path, edit: impl FnOnce(&str) -> String) {
    let text = std::fs::read_to_string(path).unwrap();
    let body = unseal(&text).expect("a sealed envelope");
    std::fs::write(path, seal(&edit(body))).unwrap();
}

/// Rewrites a version-2 body in the version-1 format: `magic` names the
/// format line, whose version goes back to 1, and every `v*n` run token
/// is spelled out as `n` plain words, as version 1 wrote them.
fn as_v1(body: &str, magic: &str) -> String {
    let mut out = String::new();
    for line in body.lines() {
        let line = match line.strip_prefix(&format!("{magic} v2")) {
            Some(rest) => format!("{magic} v1{rest}"),
            None => line.to_string(),
        };
        let words: Vec<&str> = line
            .split(' ')
            .flat_map(|token| match token.split_once('*') {
                Some((v, n)) => vec![v; n.parse().unwrap()],
                None => vec![token],
            })
            .collect();
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    out
}

/// A working directory whose checkpoint store a cold sampled run has
/// filled; returns it with the run's report and the sorted entries.
fn seeded_store(name: &str) -> (PathBuf, String, Vec<PathBuf>) {
    let wd = cache_dir(name);
    std::fs::create_dir_all(&wd).unwrap();
    let reference = stdout(&dmdc(&wd, SAMPLED_HISTO));
    let mut entries: Vec<PathBuf> = std::fs::read_dir(wd.join("target/dmdc-cache/checkpoints"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 24, "one sealed checkpoint per window");
    (wd, reference, entries)
}

/// Runs over a store holding one bad entry: the entry is quarantined and
/// regenerated with the report unchanged, and the next run is all hits.
fn bad_entry_regenerates_once(wd: &Path, reference: &str) {
    let repair = dmdc(wd, SAMPLED_HISTO);
    assert_eq!(stdout(&repair), reference, "repair run drifted");
    assert!(
        store_line(&repair).contains("23 hits, 1 misses, 1 stored, 1 corrupt, 1 quarantined"),
        "want quarantine-and-regenerate counters, got: {}",
        store_line(&repair)
    );
    let warm = dmdc(wd, SAMPLED_HISTO);
    assert_eq!(stdout(&warm), reference, "warm run drifted");
    assert!(
        store_line(&warm).contains("24 hits, 0 misses, 0 stored, 0 corrupt"),
        "repaired store must serve every window, got: {}",
        store_line(&warm)
    );
}

#[test]
fn oversized_run_in_sealed_checkpoint_is_quarantined() {
    // A seal that verifies around a body whose run count would expand to
    // 2^40 words: the decoder must refuse it rather than allocate.
    let (wd, reference, entries) = seeded_store("dmdc-ckpt-oversized-run-wd");
    reseal(&entries[5], |body| {
        let (head, _btb) = body.rsplit_once("btb ").unwrap();
        format!("{head}btb 0*1099511627776\n")
    });
    bad_entry_regenerates_once(&wd, &reference);
}

#[test]
fn version_1_checkpoint_is_quarantined_and_regenerated() {
    let (wd, reference, entries) = seeded_store("dmdc-ckpt-v1-wd");
    reseal(&entries[7], |body| as_v1(body, "dmdc-ckpt"));
    bad_entry_regenerates_once(&wd, &reference);
}

#[test]
fn version_1_sample_envelope_is_ignored_on_resume() {
    let wd = cache_dir("dmdc-sample-v1-wd");
    std::fs::create_dir_all(&wd).unwrap();
    let reference = stdout(&dmdc(&wd, SAMPLED_HISTO));

    // Killed after 6 of its 24 partial-progress envelopes.
    let mut crash = SAMPLED_HISTO.to_vec();
    crash.extend(["--run-id", "v1-kill", "--inject-faults", "kill-after=6"]);
    assert!(
        !dmdc(&wd, &crash).status.success(),
        "the run must be killed"
    );
    let samples = dmdc::core::sampling::sample_envelope_dir(&wd.join("target/dmdc-runs/v1-kill"));
    let envelopes: Vec<PathBuf> = std::fs::read_dir(&samples)
        .expect("samples dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(envelopes.len(), 1, "one partial-progress envelope");
    reseal(&envelopes[0], |body| as_v1(body, "dmdc-sample"));

    // The old envelope is not trusted: the cell starts over and still
    // reproduces the uninterrupted report.
    let resumed = dmdc(&wd, &["run", "--resume", "v1-kill"]);
    assert_eq!(stdout(&resumed), reference, "resumed run drifted");
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        err.contains(" 0 cells resumed"),
        "a version-1 envelope must be ignored, got: {err}"
    );
}
