//! Deterministic fault injection for exercising the recovery layer.
//!
//! The crash-safety machinery — retries, quarantine, journal resume,
//! cache integrity — is exactly the kind of code that silently rots
//! because nothing exercises it in an ordinary run. This module plants
//! hooks at the fault sites (cell attempts, cache writes, journal writes,
//! worker threads) that are only reached when the run carries a
//! [`FaultPlan`], and inject *deterministic* failures when it does:
//!
//! * **cell panics / hangs** — selected by a seeded hash of the workload
//!   name, so the same plan always breaks the same cells regardless of
//!   scheduling, and by default only on a cell's first attempt, so a
//!   retry demonstrably recovers it;
//! * **cache corruption** — every Nth freshly written cache entry gets a
//!   byte flipped in place, simulating bit rot the next lookup must
//!   quarantine;
//! * **journal truncation** — every Nth checkpoint is cut in half,
//!   simulating a crash landing mid-entry before atomic writes existed;
//! * **kill-after** — the process calls [`std::process::abort`] after N
//!   journal checkpoints, a reproducible stand-in for SIGKILL in
//!   crash/resume tests.
//!
//! Plans are spelled as compact `key=value` strings (see
//! [`FaultPlan::parse`]) so the CLI (`dmdc ... --inject-faults ...`), CI
//! smoke jobs and integration tests all share one vocabulary. A plan
//! rides in its run's [`RunCtx`](crate::runner::RunCtx); production runs
//! carry none, and the hooks are then never called.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cache::Fnv64;

/// A deterministic fault-injection schedule. All periods default to 0
/// (= never fire).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Perturbs which workloads are selected for panics/hangs.
    pub seed: u64,
    /// Panic in 1-in-`panic_period` workloads' cells.
    pub panic_period: u64,
    /// Panic on attempts `< panic_attempts` of a selected cell
    /// (default 1: first attempt only, so a retry recovers it; set it
    /// above the retry budget to force quarantine).
    pub panic_attempts: u32,
    /// Hang in 1-in-`hang_period` workloads' cells (first attempt only).
    pub hang_period: u64,
    /// How long an injected hang sleeps, in milliseconds.
    pub hang_ms: u64,
    /// Flip a byte in every Nth freshly written cache entry.
    pub corrupt_period: u64,
    /// Truncate every Nth journal checkpoint.
    pub truncate_period: u64,
    /// Panic one worker thread outside the per-cell isolation, forcing
    /// the serial-degradation path.
    pub worker_panic: bool,
    /// Abort the process after this many journal checkpoints (0 = off).
    pub kill_after: u64,

    cache_writes: AtomicU64,
    journal_writes: AtomicU64,
    worker_fired: AtomicBool,
}

impl FaultPlan {
    /// Parses a plan from a compact `key=value[,key=value...]` spec:
    ///
    /// ```text
    /// seed=7,panic=2,panic-attempts=9,hang=3,hang-ms=200,
    /// corrupt=2,truncate=2,worker-panic=1,kill-after=4
    /// ```
    ///
    /// Unknown keys are rejected so a typo cannot silently disable the
    /// fault it meant to inject.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            panic_attempts: 1,
            hang_ms: 1_000,
            ..FaultPlan::default()
        };
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec '{part}' is not key=value"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("fault spec '{part}': '{value}' is not a number"))?;
            match key {
                "seed" => plan.seed = n,
                "panic" => plan.panic_period = n,
                "panic-attempts" => plan.panic_attempts = n as u32,
                "hang" => plan.hang_period = n,
                "hang-ms" => plan.hang_ms = n,
                "corrupt" => plan.corrupt_period = n,
                "truncate" => plan.truncate_period = n,
                "worker-panic" => plan.worker_panic = n != 0,
                "kill-after" => plan.kill_after = n,
                _ => return Err(format!("unknown fault key '{key}'")),
            }
        }
        Ok(plan)
    }

    /// Whether a workload is selected for a fault class: a pure seeded
    /// hash, so the choice is independent of scheduling order.
    fn selects(&self, period: u64, workload: &str, class: &str) -> bool {
        if period == 0 {
            return false;
        }
        let mut h = Fnv64::new();
        h.write_u64(self.seed);
        h.write(workload.as_bytes());
        h.write(class.as_bytes());
        h.finish().is_multiple_of(period)
    }

    /// Hook: start of one isolated cell attempt. May panic or sleep.
    pub(crate) fn on_cell_attempt(&self, workload: &str, attempt: u32) {
        if self.selects(self.panic_period, workload, "panic") && attempt < self.panic_attempts {
            panic!("injected fault: cell panic (workload {workload}, attempt {attempt})");
        }
        if self.selects(self.hang_period, workload, "hang") && attempt == 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.hang_ms));
        }
    }

    /// Hook: a worker is about to claim cell `index`. Panics outside the
    /// per-cell isolation exactly once per plan, killing the worker thread.
    pub(crate) fn on_worker_cell(&self, index: usize) {
        if self.worker_panic && !self.worker_fired.swap(true, Ordering::Relaxed) {
            panic!("injected fault: worker death at cell {index}");
        }
    }

    /// Hook: a sealed cache or checkpoint-store entry was just renamed
    /// into place. With `corrupt=N`, every Nth entry gets one byte
    /// flipped, preserving length (a checksum-mismatch quarantine, not a
    /// truncation).
    pub(crate) fn on_cache_entry_written(&self, path: &Path) {
        if self.corrupt_period == 0 {
            return;
        }
        let n = self.cache_writes.fetch_add(1, Ordering::Relaxed);
        if (n + self.seed).is_multiple_of(self.corrupt_period) {
            if let Ok(mut bytes) = std::fs::read(path) {
                if let Some(b) = bytes.last_mut() {
                    *b ^= 0x01;
                    let _ = std::fs::write(path, bytes);
                }
            }
        }
    }

    /// Hook: a journal checkpoint (or sampled partial-progress envelope)
    /// was just written. Every Nth entry is cut in half (a torn write),
    /// and after `kill_after` checkpoints the process aborts — the
    /// reproducible SIGKILL crash/resume tests lean on.
    pub(crate) fn on_journal_entry_written(&self, path: &Path) {
        let n = self.journal_writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.truncate_period > 0 && (n - 1 + self.seed).is_multiple_of(self.truncate_period) {
            if let Ok(bytes) = std::fs::read(path) {
                let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
            }
        }
        if self.kill_after > 0 && n >= self.kill_after {
            eprintln!("injected fault: aborting after {n} journal checkpoints");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_full_spec_and_rejects_typos() {
        let plan = FaultPlan::parse(
            "seed=7,panic=2,panic-attempts=9,hang=3,hang-ms=200,corrupt=2,truncate=2,\
             worker-panic=1,kill-after=4",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_period, 2);
        assert_eq!(plan.panic_attempts, 9);
        assert_eq!(plan.hang_period, 3);
        assert_eq!(plan.hang_ms, 200);
        assert_eq!(plan.corrupt_period, 2);
        assert_eq!(plan.truncate_period, 2);
        assert!(plan.worker_panic);
        assert_eq!(plan.kill_after, 4);
        assert!(FaultPlan::parse("panics=1").is_err());
        for key in [
            "worker-kill-after",
            "drop-heartbeats",
            "stale-claim",
            "partial-upload",
        ] {
            let err = FaultPlan::parse(&format!("{key}=1")).unwrap_err();
            assert_eq!(err, format!("unknown fault key '{key}'"));
        }
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=x").is_err());
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1,panic=2").unwrap();
        let b = FaultPlan::parse("seed=1,panic=2").unwrap();
        for w in ["histo", "saxpy", "bfs", "mcf"] {
            assert_eq!(
                a.selects(a.panic_period, w, "panic"),
                b.selects(b.panic_period, w, "panic")
            );
        }
        // With period 1 every workload is selected.
        let all = FaultPlan::parse("panic=1").unwrap();
        assert!(all.selects(all.panic_period, "histo", "panic"));
        // Period 0 selects nothing.
        let none = FaultPlan::default();
        assert!(!none.selects(none.panic_period, "histo", "panic"));
    }
}
