//! Crash-safe run journal: checkpoint/resume for experiment runs.
//!
//! A long `dmdc suite` run that dies — OOM kill, power loss, ^C — should
//! not cost the cells it already finished. When journaling is on, the
//! engine checkpoints every completed cell into
//! `target/dmdc-runs/<run-id>/journal/<key>.entry`, each wrapped in the
//! same checksummed [`seal`](crate::cache::seal) envelope the cell cache
//! uses and written atomically (tmp + rename), so a crash mid-write can
//! only ever lose the cell in flight, never corrupt a completed one.
//! A sealed `manifest` beside the journal records the run's command line
//! and simulator fingerprint.
//!
//! `dmdc run --resume <run-id>` reopens the journal, verifies that the
//! binary's fingerprint still matches the manifest (a rebuilt simulator
//! must not splice stale numbers into a fresh run), re-dispatches the
//! recorded command line and replays every journaled cell instead of
//! re-simulating it — the resumed report is byte-identical to what the
//! uninterrupted run would have produced.
//!
//! Two deliberate asymmetries versus the [cache](crate::cache):
//!
//! * **replay consults only keys that existed when the journal was
//!   opened.** Cells completed *during* this run are recorded but never
//!   read back, so a fresh (non-resumed) run behaves — in counters and in
//!   output — exactly as if journaling were off.
//! * **the journal is scoped to one run id**, not content-shared across
//!   runs; it is a crash record, not a dedup layer. Sharing is the
//!   cache's job.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{unseal, write_sealed, Fnv64};
use crate::cell::CellResult;

/// First line of the sealed manifest body.
const MANIFEST_MAGIC: &str = "dmdc-manifest v1";

/// The default root for per-run journals, `target/dmdc-runs/` under the
/// current working directory (next to build artifacts, like the cache).
pub fn default_runs_dir() -> PathBuf {
    PathBuf::from("target").join("dmdc-runs")
}

/// Replay/record/drop counters of one [`RunJournal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalCounters {
    /// Cells served from the journal on resume (simulation skipped).
    pub replayed: u64,
    /// Cells checkpointed during this run.
    pub recorded: u64,
    /// Journaled entries rejected on replay (corrupt, truncated, stale)
    /// and deleted; the cell re-simulates.
    pub dropped: u64,
}

/// A crash-safe, per-run checkpoint log of completed cells.
#[derive(Debug)]
pub struct RunJournal {
    run_id: String,
    run_dir: PathBuf,
    journal_dir: PathBuf,
    fingerprint: String,
    /// Keys present on disk when the journal was opened — the only keys
    /// [`RunJournal::replay`] will serve, so a fresh run never reads its
    /// own writes back.
    preexisting: HashSet<u64>,
    replayed: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl RunJournal {
    /// Starts journaling a fresh run: creates
    /// `<runs_dir>/<run_id>/journal/` and writes the sealed manifest
    /// recording `argv` and `fingerprint`. If the run id already has a
    /// journal (a crashed run being re-launched by id rather than via
    /// `--resume`), its completed cells are picked up for replay.
    pub fn create(
        runs_dir: &Path,
        run_id: &str,
        fingerprint: &str,
        argv: &[String],
    ) -> Result<RunJournal, String> {
        let run_dir = runs_dir.join(run_id);
        let journal_dir = run_dir.join("journal");
        std::fs::create_dir_all(&journal_dir)
            .map_err(|e| format!("cannot create journal {}: {e}", journal_dir.display()))?;
        let manifest = manifest_body(fingerprint, argv);
        let path = run_dir.join("manifest");
        if !write_sealed(&path, &manifest) {
            return Err(format!("cannot write manifest {}", path.display()));
        }
        Ok(RunJournal::open(run_id, run_dir, journal_dir, fingerprint))
    }

    /// Reopens the journal of an interrupted run and returns it together
    /// with the recorded command line, ready to re-dispatch. Fails with a
    /// clear message if the run id is unknown, the manifest is corrupt,
    /// or the binary's fingerprint no longer matches the one the run was
    /// started under.
    pub fn resume(
        runs_dir: &Path,
        run_id: &str,
        fingerprint: &str,
    ) -> Result<(RunJournal, Vec<String>), String> {
        let run_dir = runs_dir.join(run_id);
        let path = run_dir.join("manifest");
        let text = std::fs::read_to_string(&path).map_err(|_| {
            format!(
                "no journal for run '{run_id}' under {} (nothing to resume)",
                runs_dir.display()
            )
        })?;
        let body = unseal(&text)
            .map_err(|e| format!("manifest of run '{run_id}' is damaged ({})", e.label()))?;
        let (recorded_fp, argv) = parse_manifest(body)
            .ok_or_else(|| format!("manifest of run '{run_id}' is malformed"))?;
        if recorded_fp != fingerprint {
            return Err(format!(
                "run '{run_id}' was produced by simulator fingerprint '{recorded_fp}', \
                 but this binary is '{fingerprint}'; its journal cannot be trusted — \
                 re-run from scratch"
            ));
        }
        let journal_dir = run_dir.join("journal");
        let journal = RunJournal::open(run_id, run_dir, journal_dir, fingerprint);
        Ok((journal, argv))
    }

    fn open(run_id: &str, run_dir: PathBuf, journal_dir: PathBuf, fingerprint: &str) -> RunJournal {
        let mut preexisting = HashSet::new();
        if let Ok(entries) = std::fs::read_dir(&journal_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(hex) = name
                    .to_str()
                    .and_then(|n| n.strip_suffix(".entry"))
                    .filter(|h| h.len() == 16)
                {
                    if let Ok(key) = u64::from_str_radix(hex, 16) {
                        preexisting.insert(key);
                    }
                }
            }
        }
        RunJournal {
            run_id: run_id.to_string(),
            run_dir,
            journal_dir,
            fingerprint: fingerprint.to_string(),
            preexisting,
            replayed: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The run's identifier.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The run's directory (`<runs_dir>/<run_id>`).
    pub fn run_dir(&self) -> &Path {
        &self.run_dir
    }

    /// How many completed cells the journal held when it was opened.
    pub fn preexisting_len(&self) -> usize {
        self.preexisting.len()
    }

    /// The cell key for a (workload digest, spec description) pair —
    /// the same formula as [`CellCache::key`](crate::cache::CellCache::key),
    /// so a journal and a cache opened under the same fingerprint agree
    /// on cell identity.
    pub fn key(&self, workload_digest: u64, spec_desc: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.fingerprint.as_bytes());
        h.write_u64(workload_digest);
        h.write(spec_desc.as_bytes());
        h.finish()
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.journal_dir.join(format!("{key:016x}.entry"))
    }

    /// Replays a cell checkpointed by the interrupted run. Only keys that
    /// were on disk when this journal was opened are served; an entry
    /// that fails integrity or schema verification is deleted (the crash
    /// may have landed mid-write before the rename barrier existed, or
    /// the file rotted) and the cell re-simulates.
    pub fn replay(&self, key: u64, expected_workload: &str) -> Option<CellResult> {
        if !self.preexisting.contains(&key) {
            return None;
        }
        let path = self.path_of(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let cell = match unseal(&text) {
            Ok(body) => {
                CellResult::from_record(body).filter(|cell| cell.workload == expected_workload)
            }
            Err(_) => None,
        };
        match cell {
            Some(cell) => {
                self.replayed.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Checkpoints a completed cell, sealed and via tmp + rename, and
    /// returns the written entry's path. A key already served by replay
    /// is not rewritten. I/O failures are swallowed (`None`) — a journal
    /// that cannot write costs resume coverage, never a wrong result.
    pub fn record(&self, key: u64, cell: &CellResult) -> Option<PathBuf> {
        if self.preexisting.contains(&key) {
            return None;
        }
        let path = self.path_of(key);
        write_sealed(&path, &cell.to_record()).then(|| {
            self.recorded.fetch_add(1, Ordering::Relaxed);
            path
        })
    }

    /// Counters since this journal handle was opened.
    pub fn counters(&self) -> JournalCounters {
        JournalCounters {
            replayed: self.replayed.load(Ordering::Relaxed),
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Renders the manifest body: fingerprint plus one `arg` line per
/// command-line argument.
fn manifest_body(fingerprint: &str, argv: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{MANIFEST_MAGIC}");
    let _ = writeln!(out, "fingerprint {fingerprint}");
    for arg in argv {
        // Newlines in argv would corrupt the line-oriented format; no
        // dmdc flag value can legitimately contain one.
        let _ = writeln!(out, "arg {}", arg.replace('\n', " "));
    }
    out
}

/// Parses a manifest body back into `(fingerprint, argv)`.
fn parse_manifest(body: &str) -> Option<(String, Vec<String>)> {
    let mut lines = body.lines();
    if lines.next()? != MANIFEST_MAGIC {
        return None;
    }
    let fingerprint = lines.next()?.strip_prefix("fingerprint ")?.to_string();
    let mut argv = Vec::new();
    for line in lines {
        argv.push(line.strip_prefix("arg ")?.to_string());
    }
    Some((fingerprint, argv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdc_ooo::SimStats;
    use dmdc_workloads::Group;

    fn sample_cell(workload: &str) -> CellResult {
        let values: Vec<u64> = (1..=SimStats::EXPORT_LEN as u64).collect();
        CellResult {
            workload: workload.to_string(),
            group: Group::Int,
            stats: SimStats::from_export_values(&values).unwrap(),
        }
    }

    fn temp_runs_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dmdc-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_roundtrips() {
        let argv = vec![
            "suite".to_string(),
            "--scale".to_string(),
            "smoke".to_string(),
        ];
        let body = manifest_body("fp-x", &argv);
        assert_eq!(parse_manifest(&body), Some(("fp-x".to_string(), argv)));
        assert!(parse_manifest("garbage").is_none());
    }

    #[test]
    fn fresh_run_records_but_never_replays_its_own_writes() {
        let runs = temp_runs_dir("fresh");
        let j = RunJournal::create(&runs, "r1", "fp", &["suite".to_string()]).unwrap();
        let cell = sample_cell("histo");
        let key = j.key(7, "spec");
        j.record(key, &cell);
        assert_eq!(j.replay(key, "histo"), None, "own writes must not replay");
        assert_eq!(
            j.counters(),
            JournalCounters {
                replayed: 0,
                recorded: 1,
                dropped: 0
            }
        );
        let _ = std::fs::remove_dir_all(&runs);
    }

    #[test]
    fn reopened_journal_replays_and_drops_damage() {
        let runs = temp_runs_dir("reopen");
        let argv = vec!["suite".to_string()];
        let first = RunJournal::create(&runs, "r1", "fp", &argv).unwrap();
        let good = sample_cell("histo");
        let bad = sample_cell("saxpy");
        let (good_key, bad_key) = (first.key(1, "a"), first.key(2, "b"));
        first.record(good_key, &good);
        first.record(bad_key, &bad);
        // Corrupt the second entry on disk, as a crash or bit rot would.
        let bad_path = runs
            .join("r1/journal")
            .join(format!("{bad_key:016x}.entry"));
        std::fs::write(&bad_path, "torn").unwrap();
        drop(first);

        let (second, stored_argv) = RunJournal::resume(&runs, "r1", "fp").unwrap();
        assert_eq!(stored_argv, argv);
        assert_eq!(second.preexisting_len(), 2);
        assert_eq!(second.replay(good_key, "histo"), Some(good));
        assert_eq!(second.replay(bad_key, "saxpy"), None);
        assert!(!bad_path.exists(), "damaged entry is deleted");
        let c = second.counters();
        assert_eq!((c.replayed, c.dropped), (1, 1));

        // Fingerprint mismatch refuses to resume.
        let err = RunJournal::resume(&runs, "r1", "other-fp").unwrap_err();
        assert!(err.contains("fingerprint"), "unexpected error: {err}");
        // Unknown run id refuses with a clear message.
        let err = RunJournal::resume(&runs, "nope", "fp").unwrap_err();
        assert!(err.contains("nothing to resume"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&runs);
    }
}
