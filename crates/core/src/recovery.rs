//! Recovery ledger: how many faults a run survived — a retried panic, a
//! quarantined cell, a quarantined cache entry, a dropped journal
//! record, a lost worker thread, a resumed cell.
//!
//! The ledger is the observability half of the fault-tolerant execution
//! layer: `--profile` prints the counters, the fault-injection tests
//! assert that every injected fault shows up in exactly the expected
//! counter, and CI's kill/resume job checks the resume counters. Most
//! classes are already counted where they happen — the cell cache and
//! checkpoint store count their corrupt entries, the journal its dropped
//! and replayed ones — so the run context keeps tallies only for the
//! rest and [`RunCtx::recovery`](crate::runner::RunCtx::recovery) sums
//! the two into [`RecoveryCounters`].

use std::sync::atomic::AtomicU64;

/// The faults no store counts for itself, tallied per run context.
#[derive(Debug, Default)]
pub(crate) struct Tallies {
    /// Cell attempts retried after a panic, timeout or error.
    pub retries: AtomicU64,
    /// Cells quarantined as structured failures after exhausting retries.
    pub cell_failures: AtomicU64,
    /// Worker threads lost (work continued serially).
    pub workers_lost: AtomicU64,
    /// Sampled cells resumed from a partial-progress envelope.
    pub sampled_resumes: AtomicU64,
}

/// Totals per fault class for one run context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Cell attempts retried after a panic, timeout or error.
    pub retries: u64,
    /// Cells quarantined as structured failures after exhausting retries.
    pub cell_failures: u64,
    /// Cache and checkpoint-store entries quarantined for failing
    /// integrity checks.
    pub cache_quarantined: u64,
    /// Journal entries dropped as torn/corrupt on resume.
    pub journal_dropped: u64,
    /// Worker threads lost (work continued serially).
    pub workers_lost: u64,
    /// Cells replayed from a resumed run's journal, plus sampled cells
    /// resumed mid-way from their partial-progress envelopes.
    pub cells_resumed: u64,
}

impl RecoveryCounters {
    /// Whether any fault was survived at all.
    pub fn any(&self) -> bool {
        *self != RecoveryCounters::default()
    }
}

/// Renders the counters as the `--profile` recovery line.
pub fn render(c: &RecoveryCounters) -> String {
    format!(
        "[profile] recovery: {} retries, {} cell failures, {} cache quarantined, {} journal dropped, {} workers lost, {} cells resumed",
        c.retries,
        c.cell_failures,
        c.cache_quarantined,
        c.journal_dropped,
        c.workers_lost,
        c.cells_resumed,
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use crate::cache::CellCache;
    use crate::runner::RunCtx;

    #[test]
    fn recording_tallies_and_drains() {
        let dir = std::env::temp_dir().join(format!("dmdc-recovery-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(CellCache::new(&dir));
        let ctx = RunCtx {
            cache: Some(Arc::clone(&cache)),
            ..RunCtx::default()
        };
        ctx.sink.recovery.retries.fetch_add(1, Ordering::Relaxed);
        // A damaged entry is quarantined on lookup and counted once.
        std::fs::create_dir_all(&dir).unwrap();
        let key = cache.key(1, "spec");
        std::fs::write(
            dir.join(format!("{key:016x}.cell")),
            "not a sealed envelope",
        )
        .unwrap();
        assert!(cache.load(key, "histo").is_none());
        let c = ctx.recovery();
        assert_eq!(c.retries, 1);
        assert_eq!(c.cache_quarantined, 1);
        assert!(c.any());
        assert!(
            !RunCtx::default().recovery().any(),
            "a fresh ctx starts clean"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
