//! Persistent content-addressed cache of verified experiment cells.
//!
//! Re-running `dmdc suite` or `dmdc experiment` repeats mostly identical
//! simulations: the cell matrix is deterministic, and a cell's entire
//! output — its [`CellResult`] — is a pure function of the run
//! specification, the workload's program bytes and the simulator's
//! semantics. This module keys each cell on exactly those three inputs:
//!
//! ```text
//! key = fnv64( fingerprint ‖ workload digest ‖ RunSpec description )
//! ```
//!
//! * **fingerprint** — [`dmdc_ooo::SIM_FINGERPRINT`] combined with this
//!   crate's [`POLICY_FINGERPRINT`]; bumped by hand whenever a change
//!   alters any number a simulation reports. Bumping invalidates every
//!   cached cell at once.
//! * **workload digest** — [`workload_digest`]: the workload's name,
//!   group, entry point, encoded instruction words and initial data
//!   segments. Editing one byte of one kernel invalidates exactly that
//!   kernel's cells.
//! * **RunSpec description** — the `Debug` rendering of the cell's
//!   [`CoreConfig`](dmdc_ooo::CoreConfig),
//!   [`PolicyKind`](crate::experiments::PolicyKind) and
//!   [`SimOptions`](dmdc_ooo::SimOptions), which spells out every field
//!   value; any config/policy/option change moves the key.
//!
//! Cells are stored one file per key (`<key>.cell`), each wrapped in the
//! checksummed [`seal`] envelope — a format-version header plus an fnv64
//! content checksum — around the versioned [`CellResult::to_record`]
//! body. Writes go through a temporary file plus rename, so concurrent
//! processes never observe a torn record. On load the envelope is
//! verified first: a truncated, bit-flipped, checksum-mismatched or
//! version-mismatched file is **quarantined** to `quarantine/` under the
//! cache root (never silently deserialized), counted in
//! [`CacheCounters`] (which the [recovery ledger](crate::recovery)
//! reads), and the cell transparently regenerated. Hits skip both the simulation and
//! its emulator-oracle verification — the cache stores only verified
//! results.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dmdc_isa::encode;
use dmdc_workloads::Workload;

use crate::cell::CellResult;
use crate::sampling::Checkpoint;

/// Version tag of the dependence-policy implementations in this crate
/// (DMDC, YLA, bloom, checking queue). Bump together with semantic
/// changes here, as [`dmdc_ooo::SIM_FINGERPRINT`] is bumped for the
/// substrate.
pub const POLICY_FINGERPRINT: &str = "dmdc-core-v1";

/// The combined simulator fingerprint cache keys incorporate by default.
pub fn default_fingerprint() -> String {
    format!("{}+{}", dmdc_ooo::SIM_FINGERPRINT, POLICY_FINGERPRINT)
}

/// The default on-disk location, `target/dmdc-cache/` under the current
/// working directory (the cache lives next to build artifacts: `cargo
/// clean` clears both).
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target").join("dmdc-cache")
}

/// Streaming 64-bit FNV-1a. Deterministic across processes and builds —
/// unlike `std`'s `DefaultHasher`, whose algorithm is unspecified — which
/// is what makes the keys stable enough to persist.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Folds bytes into the running hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the running hash.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.write(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Format-version header line of the sealed on-disk envelope. Bumping the
/// version invalidates (quarantines) every previously written file.
const SEAL_MAGIC: &str = "dmdc-seal v1";

/// Why a sealed record failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// No recognizable seal header (foreign or pre-integrity file).
    Header,
    /// Seal header present but with a different format version.
    Version,
    /// Body shorter or longer than the header declares (truncation).
    Length,
    /// fnv64 of the body disagrees with the header (bit rot).
    Checksum,
}

impl IntegrityError {
    /// Stable label used in quarantine records and test assertions.
    pub fn label(&self) -> &'static str {
        match self {
            IntegrityError::Header => "bad-header",
            IntegrityError::Version => "version-mismatch",
            IntegrityError::Length => "truncated",
            IntegrityError::Checksum => "checksum-mismatch",
        }
    }
}

/// Wraps `body` in the checksummed envelope persisted records use:
///
/// ```text
/// dmdc-seal v1 <body-bytes> <fnv64-of-body, 16 hex digits>
/// <body>
/// ```
pub fn seal(body: &str) -> String {
    let mut h = Fnv64::new();
    h.write(body.as_bytes());
    format!("{SEAL_MAGIC} {} {:016x}\n{body}", body.len(), h.finish())
}

/// Verifies a [`seal`]ed envelope and returns the body. Every failure
/// mode is classified so callers can report *why* a file was rejected.
pub fn unseal(text: &str) -> Result<&str, IntegrityError> {
    let (header, body) = text.split_once('\n').ok_or(IntegrityError::Header)?;
    let rest = match header.strip_prefix(SEAL_MAGIC) {
        Some(rest) => rest,
        None => {
            // Distinguish "other seal version" from "not a seal at all".
            return Err(if header.starts_with("dmdc-seal ") {
                IntegrityError::Version
            } else {
                IntegrityError::Header
            });
        }
    };
    let mut words = rest.split_whitespace();
    let len: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or(IntegrityError::Header)?;
    let sum = words
        .next()
        .and_then(|w| u64::from_str_radix(w, 16).ok())
        .ok_or(IntegrityError::Header)?;
    if words.next().is_some() {
        return Err(IntegrityError::Header);
    }
    if body.len() != len {
        return Err(IntegrityError::Length);
    }
    let mut h = Fnv64::new();
    h.write(body.as_bytes());
    if h.finish() != sum {
        return Err(IntegrityError::Checksum);
    }
    Ok(body)
}

/// Writes `body` to `path` sealed and atomically: the envelope goes to a
/// sibling temporary file first and is renamed into place, so no reader
/// (or crash) ever observes a torn record. Returns `false` on I/O errors
/// (the temp file is cleaned up best-effort).
pub fn write_sealed(path: &Path, body: &str) -> bool {
    let Some(dir) = path.parent() else {
        return false;
    };
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let tmp = dir.join(format!("{name}.tmp.{:x}", tmp_tag()));
    if std::fs::write(&tmp, seal(body)).is_ok() && std::fs::rename(&tmp, path).is_ok() {
        true
    } else {
        let _ = std::fs::remove_file(&tmp);
        false
    }
}

/// A tag making a temporary file name unique among concurrent writers of
/// the same path: the process id in the high half, a process-wide write
/// sequence in the low half, so neither two processes nor two threads of
/// one process (say, two policies' cells fast-forwarding the same
/// checkpoint at once) ever share a temporary file.
fn tmp_tag() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
    (std::process::id() as u64) << 32 | seq
}

/// Content digest of a workload: name, group, entry point, encoded text
/// and initial data segments. Two workloads digest equal iff the
/// simulator would see identical programs under identical labels.
pub fn workload_digest(w: &Workload) -> u64 {
    let mut h = Fnv64::new();
    h.write(w.name.as_bytes());
    h.write(format!("{:?}", w.group).as_bytes());
    h.write_u64(w.program.entry() as u64);
    h.write_u64(w.program.insts().len() as u64);
    for &inst in w.program.insts() {
        h.write(&encode(inst).to_le_bytes());
    }
    h.write_u64(w.program.data_segments().len() as u64);
    for (base, bytes) in w.program.data_segments() {
        h.write_u64(base.0);
        h.write_u64(bytes.len() as u64);
        h.write(bytes);
    }
    h.finish()
}

/// Hit/miss/store/integrity counters of one [`CellCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from disk (simulation skipped).
    pub hits: u64,
    /// Lookups that found no usable record.
    pub misses: u64,
    /// Freshly simulated cells persisted.
    pub stores: u64,
    /// Entries that failed integrity or schema verification (each also
    /// counts as a miss — the cell regenerates).
    pub corrupt: u64,
    /// Rejected entries successfully moved to `quarantine/` (the rest
    /// were deleted when the move failed).
    pub quarantined: u64,
}

/// A content-addressed, persistent store of verified [`CellResult`]s.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    fingerprint: String,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
}

impl CellCache {
    /// A cache rooted at `dir` with the default simulator fingerprint.
    pub fn new(dir: impl Into<PathBuf>) -> CellCache {
        CellCache::with_fingerprint(dir, default_fingerprint())
    }

    /// A cache rooted at `dir` keying on an explicit fingerprint (tests
    /// use this to prove that bumping the fingerprint re-runs every cell).
    pub fn with_fingerprint(dir: impl Into<PathBuf>, fingerprint: impl Into<String>) -> CellCache {
        CellCache {
            dir: dir.into(),
            fingerprint: fingerprint.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cell key for a (workload digest, spec description) pair.
    pub fn key(&self, workload_digest: u64, spec_desc: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.fingerprint.as_bytes());
        h.write_u64(workload_digest);
        h.write(spec_desc.as_bytes());
        h.finish()
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cell"))
    }

    /// Where rejected entries are preserved for post-mortem inspection.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Moves a rejected entry aside (best-effort: falls back to deleting
    /// it so a broken file can never be consulted twice) and counts the
    /// rejection.
    fn quarantine(&self, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        if quarantine_into(&self.quarantine_dir(), path) {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up a cell. The sealed envelope is verified before any
    /// deserialization; corrupt, truncated, version-mismatched or stale
    /// (schema/workload-mismatched) entries are quarantined and degrade
    /// to misses, so the cell regenerates. `expected_workload` guards
    /// against the astronomically unlikely key collision (and mislabeled
    /// files placed by hand).
    pub fn load(&self, key: u64, expected_workload: &str) -> Option<CellResult> {
        let path = self.path_of(key);
        let loaded = match std::fs::read_to_string(&path) {
            Err(_) => None, // absent (or unreadable): a plain miss
            Ok(text) => {
                // A damaged envelope, or a checksum-valid but
                // undeserializable body: a stale schema or a mislabeled
                // record.
                let cell = unseal(&text).ok().and_then(|body| {
                    CellResult::from_record(body).filter(|cell| cell.workload == expected_workload)
                });
                if cell.is_none() {
                    self.quarantine(&path);
                }
                cell
            }
        };
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Persists a freshly computed cell, sealed and via tmp+rename, and
    /// returns the written entry's path. I/O failures are swallowed
    /// (`None`): a cache that cannot write (read-only checkout, full
    /// disk) costs a re-simulation later, never a wrong result now.
    pub fn store(&self, key: u64, cell: &CellResult) -> Option<PathBuf> {
        std::fs::create_dir_all(&self.dir).ok()?;
        let path = self.path_of(key);
        write_sealed(&path, &cell.to_record()).then(|| {
            self.stores.fetch_add(1, Ordering::Relaxed);
            path
        })
    }

    /// Counters since this cache handle was created.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Shared quarantine mechanics: move the rejected file into `qdir`
/// (best-effort — delete it when the move fails, so a broken file can
/// never be consulted twice). Returns whether the move succeeded.
fn quarantine_into(qdir: &Path, path: &Path) -> bool {
    let moved = std::fs::create_dir_all(qdir).is_ok()
        && path
            .file_name()
            .is_some_and(|name| std::fs::rename(path, qdir.join(name)).is_ok());
    if !moved {
        let _ = std::fs::remove_file(path);
    }
    moved
}

/// Format-version line of a persisted sampling checkpoint body. Bumping
/// it quarantines every previously stored checkpoint at once. Version 2
/// writes runs of equal words as `v*n` tokens (see `sampling::join`).
const CKPT_MAGIC: &str = "dmdc-ckpt v2";

/// A content-addressed, persistent store of sampling [`Checkpoint`]s —
/// the warm-run counterpart of [`CellCache`].
///
/// A sampled cell's checkpoints are a pure function of the simulator
/// fingerprint, the workload's program bytes, the core config, the
/// [`SampleSpec`](dmdc_ooo::SampleSpec) placement and the warming
/// horizon — notably **not** of the dependence policy under test, whose
/// structures a detailed window builds from scratch after the restore.
/// The store keys on exactly those inputs (the caller passes them
/// pre-rendered as `sample_desc`) plus the window index:
///
/// ```text
/// key = fnv64( fingerprint ‖ workload digest ‖ sample_desc ‖ window )
/// ```
///
/// Excluding the policy from the key is what makes checkpoints shareable:
/// within one cold suite run, the first policy to fast-forward a workload
/// populates the store and every other policy's cells restore from it. On
/// a fully warm run no fast-forward happens at all.
///
/// Files live under `checkpoints/` beside the cell cache, one per key
/// (`<key>.ckpt`), wrapped in the same [`seal`] envelope and held to the
/// same discipline: verify before deserializing, quarantine anything
/// damaged or stale to `checkpoints/quarantine/`, and regenerate
/// transparently (the fast-forward simply runs).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: String,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
}

impl CheckpointStore {
    /// A store under `root` (the cache root — checkpoints live in its
    /// `checkpoints/` subdirectory) with the default fingerprint.
    pub fn new(root: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore::with_fingerprint(root, default_fingerprint())
    }

    /// A store under `root` keying on an explicit fingerprint (tests use
    /// this to prove a fingerprint bump re-runs every fast-forward).
    pub fn with_fingerprint(
        root: impl Into<PathBuf>,
        fingerprint: impl Into<String>,
    ) -> CheckpointStore {
        CheckpointStore {
            dir: root.into().join("checkpoints"),
            fingerprint: fingerprint.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The store's directory (`<cache-root>/checkpoints`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The key for one window's checkpoint. `sample_desc` must render
    /// every input the checkpoint depends on besides the program: core
    /// config, sampling spec, population and warming horizon.
    pub fn key(&self, workload_digest: u64, sample_desc: &str, window: u32) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.fingerprint.as_bytes());
        h.write_u64(workload_digest);
        h.write(sample_desc.as_bytes());
        h.write_u64(window as u64);
        h.finish()
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.ckpt"))
    }

    /// Where rejected checkpoints are preserved for post-mortem
    /// inspection.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    fn quarantine(&self, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        if quarantine_into(&self.quarantine_dir(), path) {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up window `window`'s checkpoint. The sealed envelope is
    /// verified before any deserialization; damaged or stale entries
    /// (wrong magic, wrong workload, undecodable body, window mismatch)
    /// are quarantined and degrade to misses, so the fast-forward simply
    /// re-runs.
    pub fn load(&self, key: u64, expected_workload: &str, window: u32) -> Option<Checkpoint> {
        let path = self.path_of(key);
        let loaded = match std::fs::read_to_string(&path) {
            Err(_) => None, // absent (or unreadable): a plain miss
            Ok(text) => {
                let ck = unseal(&text)
                    .ok()
                    .and_then(|body| decode_checkpoint_body(body, expected_workload, window));
                if ck.is_none() {
                    self.quarantine(&path);
                }
                ck
            }
        };
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Persists a freshly captured checkpoint, sealed and via tmp+rename,
    /// and returns the written entry's path. I/O failures are swallowed
    /// (`None`): a store that cannot write costs a re-fast-forward later,
    /// never a wrong result now.
    pub fn store(&self, key: u64, workload: &str, checkpoint: &Checkpoint) -> Option<PathBuf> {
        std::fs::create_dir_all(&self.dir).ok()?;
        let body = format!("{CKPT_MAGIC}\nworkload {workload}\n{}", checkpoint.encode());
        let path = self.path_of(key);
        write_sealed(&path, &body).then(|| {
            self.stores.fetch_add(1, Ordering::Relaxed);
            path
        })
    }

    /// Counters since this store handle was created.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Parses a stored checkpoint body: magic line, `workload <name>` guard,
/// then [`Checkpoint::encode`] output, with the window index required to
/// match and no trailing lines tolerated.
fn decode_checkpoint_body(body: &str, expected_workload: &str, window: u32) -> Option<Checkpoint> {
    let mut lines = body.lines();
    if lines.next()? != CKPT_MAGIC {
        return None;
    }
    if lines.next()?.strip_prefix("workload ")? != expected_workload {
        return None;
    }
    let ck = Checkpoint::decode(&mut lines)?;
    if ck.window != window || lines.next().is_some() {
        return None;
    }
    Some(ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdc_workloads::{int_suite, Scale};

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // Reference value: FNV-1a 64 of "hello" is fixed by the algorithm.
        let mut h = Fnv64::new();
        h.write(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
        let mut ab = Fnv64::new();
        ab.write(b"ab");
        let mut ba = Fnv64::new();
        ba.write(b"ba");
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn workload_digest_tracks_content() {
        let a = int_suite(Scale::Smoke).remove(0);
        let b = int_suite(Scale::Smoke).remove(0);
        assert_eq!(workload_digest(&a), workload_digest(&b));
        let bigger = int_suite(Scale::Default).remove(0);
        assert_ne!(workload_digest(&a), workload_digest(&bigger));
    }

    #[test]
    fn seal_roundtrips_and_classifies_damage() {
        let body = "workload histo\n1 2 3\n";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed), Ok(body));
        // Truncation: body shorter than declared.
        let truncated = &sealed[..sealed.len() - 3];
        assert_eq!(unseal(truncated), Err(IntegrityError::Length));
        // Bit flip in the body: length intact, checksum off.
        let flipped = sealed.replace("histo", "hists");
        assert_eq!(unseal(&flipped), Err(IntegrityError::Checksum));
        // Foreign file and other seal versions.
        assert_eq!(unseal("not a seal\nbody"), Err(IntegrityError::Header));
        assert_eq!(
            unseal(&sealed.replace("dmdc-seal v1", "dmdc-seal v9")),
            Err(IntegrityError::Version)
        );
        assert_eq!(unseal(""), Err(IntegrityError::Header));
    }

    #[test]
    fn tmp_tags_differ_between_threads_of_one_process() {
        let tags = || (0..100).map(|_| tmp_tag()).collect::<Vec<_>>();
        let other = std::thread::spawn(tags);
        let mut all = tags();
        all.extend(other.join().unwrap());
        assert!(all.iter().all(|t| t >> 32 == std::process::id() as u64));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "two writers of one path shared a temp name");
    }

    #[test]
    fn keys_separate_fingerprints_and_specs() {
        let c1 = CellCache::with_fingerprint("target/unused", "fp-a");
        let c2 = CellCache::with_fingerprint("target/unused", "fp-b");
        assert_ne!(c1.key(7, "spec"), c2.key(7, "spec"));
        assert_ne!(c1.key(7, "spec"), c1.key(7, "other-spec"));
        assert_ne!(c1.key(7, "spec"), c1.key(8, "spec"));
    }
}
