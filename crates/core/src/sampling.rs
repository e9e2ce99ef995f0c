//! The statistical-sampling execution engine (SMARTS-style).
//!
//! An exact cell simulates every dynamic instruction in detail. A sampled
//! cell instead:
//!
//! 1. resolves the **population size** `N` (the workload's dynamic
//!    instruction count) from the memoized emulator oracle;
//! 2. **fast-forwards** through the functional emulator, warming a
//!    shadow cache hierarchy, branch predictor and BTB along the way;
//! 3. takes `k` evenly spaced [`Checkpoint`]s — architectural state plus
//!    the functionally warmed structures — and from each runs a short
//!    **detailed window** on a fresh [`Simulator`]: a discarded warmup
//!    prefix that trains the out-of-order structures after the restore,
//!    then a measured suffix;
//! 4. verifies every window's final architectural state against an
//!    emulator replay of the same instruction span (the sampled analogue
//!    of the exact path's end-of-run checksum);
//! 5. **reduces** the per-window deltas into population-scaled counters
//!    plus mean ± 95% confidence intervals (Student-t over the window
//!    means) for the headline rates, carried in
//!    [`SamplingStats`](dmdc_ooo::SamplingStats).
//!
//! Sampled runs are **crash-resumable**: after each checkpoint capture the
//! in-progress state (completed window deltas + the checkpoint itself)
//! is serialized through the same sealed-envelope format as the journal,
//! under `<run>/samples/<key>.ckpt`. A killed run restores the emulator
//! and warm structures from that envelope and continues; the final cell
//! is byte-identical to an uninterrupted run because every window derives
//! deterministically from its checkpoint.
//!
//! Fast-forward itself runs through [`BlockCode`] — the program
//! pre-decoded into straight-line blocks, executed silently with
//! bit-identical architectural results — and checkpoints persist beyond
//! the run in the content-addressed
//! [`CheckpointStore`](crate::cache::CheckpointStore): keyed on
//! everything the checkpoint depends on *except* the policy (which the
//! detailed windows rebuild from scratch), so policies share checkpoints
//! within a cold run and a warm run fast-forwards nothing at all.
//!
//! Determinism contract: the master fast-forward, the window placement,
//! the warming rules and the window simulations are all pure functions of
//! `(workload, config, policy, options)` — a sampled cell, like an exact
//! one, is content-addressable. The sampling spec is part of
//! [`SimOptions`], so sampled and exact cells can never share a cache or
//! journal key.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dmdc_isa::{BlockCode, Emulator, Inst, Program, Retired, SilentObserver, SparseMemory};
use dmdc_ooo::{
    to_q32, BranchPredictor, Btb, CoreConfig, MemoryHierarchy, SampleSpec, SamplingStats, SimError,
    SimOptions, SimStats, Simulator,
};
use dmdc_types::Addr;
use dmdc_workloads::Workload;

use crate::cache::{workload_digest, write_sealed, Fnv64};
use crate::cell::{CellError, CellResult, FailureKind};
use crate::experiments::PolicyKind;
use crate::runner::{lock, RunCtx, SamplingSample};

/// Magic + version line of the persisted partial-progress envelope.
/// Version 2 writes runs of equal words as `v*n` tokens (see [`join`]);
/// an envelope of another version is ignored and the cell starts over.
const SAMPLE_MAGIC: &str = "dmdc-sample v2";

/// Bytes per memory page (must match `SparseMemory`'s page geometry:
/// 4 KiB pages).
const PAGE_BYTES: u64 = 4096;

/// Functional-warming horizon: how many retired instructions before each
/// checkpoint warm the shadow cache hierarchy / branch predictor. The
/// stretch before the horizon is pure emulation — cache and predictor
/// history older than this contributes almost nothing to a short window,
/// and skipping it is where sampling's speedup over exact simulation
/// comes from. Must stay a compile-time constant: it is part of the
/// deterministic warming rule that fresh and resumed runs share.
const WARM_HORIZON: u64 = 65_536;

/// One resumable snapshot of mid-program state: the functional
/// architectural state plus the functionally warmed microarchitectural
/// structures, captured just before a detailed window starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Index of the detailed window this checkpoint precedes.
    pub window: u32,
    /// Program counter (instruction index) at the checkpoint.
    pub pc: u32,
    /// Instructions retired before the checkpoint.
    pub retired: u64,
    /// The 32 integer registers.
    pub int_regs: [u64; 32],
    /// The 32 FP registers, as raw bit patterns (exact round-trip).
    pub fp_bits: [u64; 32],
    /// The touched memory pages: `(page base address, words)` where
    /// `words` holds `(word index, value)` pairs — word 0 always (so a
    /// restore re-materializes every touched page, preserving the
    /// invalidation footprint), other words only when nonzero.
    pub pages: Vec<(u64, Vec<(u32, u64)>)>,
    /// Exported L1I/L1D/L2 cache state (see `Cache::export_state`).
    pub l1i: Vec<u64>,
    /// Exported L1D state.
    pub l1d: Vec<u64>,
    /// Exported unified-L2 state.
    pub l2: Vec<u64>,
    /// Exported branch-predictor state.
    pub bpred: Vec<u64>,
    /// Exported BTB state.
    pub btb: Vec<u64>,
}

impl Checkpoint {
    /// Captures the master fast-forward state as a checkpoint for window
    /// `window`.
    pub fn capture(window: u32, emu: &Emulator<'_>, warm: &Warmer) -> Checkpoint {
        let mem = emu.memory();
        let mut pages = Vec::new();
        for base in mem.touched_pages() {
            let bytes = mem.page_bytes(base).expect("touched page exists");
            let mut words = Vec::new();
            for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                if i == 0 || v != 0 {
                    words.push((i as u32, v));
                }
            }
            pages.push((base.0, words));
        }
        let mut fp_bits = [0u64; 32];
        for (slot, v) in fp_bits.iter_mut().zip(emu.fp_regs()) {
            *slot = v.to_bits();
        }
        Checkpoint {
            window,
            pc: emu.pc(),
            retired: emu.retired(),
            int_regs: *emu.int_regs(),
            fp_bits,
            pages,
            l1i: warm.hier.l1i.export_state(),
            l1d: warm.hier.l1d.export_state(),
            l2: warm.hier.l2.export_state(),
            bpred: warm.bpred.export_state(),
            btb: warm.btb.export_state(),
        }
    }

    /// Rebuilds the memory image. Each page is assembled in a local
    /// buffer and installed with one bulk write — this runs twice per
    /// detailed window (simulator restore + reference replay), so the
    /// word-at-a-time path would cost real milliseconds per cell.
    pub fn memory(&self) -> SparseMemory {
        let mut mem = SparseMemory::new();
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        for (base, words) in &self.pages {
            buf.fill(0);
            for &(i, v) in words {
                buf[8 * i as usize..8 * (i as usize + 1)].copy_from_slice(&v.to_le_bytes());
            }
            // Bulk-writing the whole page materializes it even when all
            // words are zero, preserving the captured footprint exactly.
            mem.write_bytes(Addr(*base), &buf);
        }
        mem
    }

    /// Rebuilds a functional emulator positioned at the checkpoint.
    pub fn restore_emulator<'p>(&self, program: &'p Program) -> Emulator<'p> {
        let mut fp_regs = [0.0f64; 32];
        for (slot, &bits) in fp_regs.iter_mut().zip(&self.fp_bits) {
            *slot = f64::from_bits(bits);
        }
        Emulator::restore(
            program,
            self.pc,
            self.int_regs,
            fp_regs,
            self.memory(),
            self.retired,
        )
    }

    /// Rebuilds the warmed cache hierarchy, branch predictor and BTB for
    /// `config`. `None` if the exported words do not fit the config's
    /// geometry (a foreign or corrupt checkpoint).
    pub fn warm_state(
        &self,
        config: &CoreConfig,
    ) -> Option<(MemoryHierarchy, BranchPredictor, Btb)> {
        let mut hier = MemoryHierarchy::new(config);
        hier.l1i.import_state(&self.l1i)?;
        hier.l1d.import_state(&self.l1d)?;
        hier.l2.import_state(&self.l2)?;
        let mut bpred = BranchPredictor::new(
            config.bimodal_entries,
            config.gshare_entries,
            config.gshare_history_bits,
            config.meta_entries,
        );
        bpred.import_state(&self.bpred)?;
        let mut btb = Btb::new(config.btb_entries);
        btb.import_state(&self.btb)?;
        Some((hier, bpred, btb))
    }

    /// Serializes to the text body the sealed envelope wraps.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "window {}", self.window);
        let _ = writeln!(out, "pc {}", self.pc);
        let _ = writeln!(out, "retired {}", self.retired);
        let _ = writeln!(out, "ints {}", join(&self.int_regs));
        let _ = writeln!(out, "fps {}", join(&self.fp_bits));
        for (base, words) in &self.pages {
            let _ = write!(out, "page {base}");
            for (i, v) in words {
                let _ = write!(out, " {i}:{v}");
            }
            out.push('\n');
        }
        for (tag, words) in [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("l2", &self.l2),
            ("bpred", &self.bpred),
            ("btb", &self.btb),
        ] {
            let _ = writeln!(out, "{tag} {}", join(words));
        }
        out
    }

    /// Approximate in-memory footprint, used by the in-process memo's
    /// byte-cap eviction. Counts the dominant heap payloads (page words
    /// and exported microarchitectural words) plus a fixed allowance for
    /// the register files and struct header; exactness is irrelevant — a
    /// consistent estimate is all FIFO eviction needs.
    pub fn approx_bytes(&self) -> usize {
        let page_words: usize = self.pages.iter().map(|(_, w)| w.len()).sum();
        let uarch_words =
            self.l1i.len() + self.l1d.len() + self.l2.len() + self.bpred.len() + self.btb.len();
        // Page entries are (u32, u64) pairs ≈ 16 bytes each with padding.
        16 * page_words + 8 * uarch_words + 8 * 64 + 256
    }

    /// Parses [`Checkpoint::encode`] output from an iterator of lines
    /// (shared with the partial-progress envelope, whose header precedes
    /// the checkpoint). Returns `None` on any malformation.
    pub fn decode<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Option<Checkpoint> {
        let window = lines.next()?.strip_prefix("window ")?.parse().ok()?;
        let pc = lines.next()?.strip_prefix("pc ")?.parse().ok()?;
        let retired = lines.next()?.strip_prefix("retired ")?.parse().ok()?;
        let int_regs = parse_array(lines.next()?.strip_prefix("ints ")?)?;
        let fp_bits = parse_array(lines.next()?.strip_prefix("fps ")?)?;
        let mut pages = Vec::new();
        let mut rest = None;
        for line in lines.by_ref() {
            match line.strip_prefix("page ") {
                Some(body) => {
                    let mut parts = body.split(' ');
                    let base: u64 = parts.next()?.parse().ok()?;
                    let mut words = Vec::new();
                    for pair in parts {
                        let (i, v) = pair.split_once(':')?;
                        words.push((i.parse().ok()?, v.parse().ok()?));
                    }
                    pages.push((base, words));
                }
                None => {
                    rest = Some(line);
                    break;
                }
            }
        }
        let tagged = |tag: &str, line: Option<&str>| -> Option<Vec<u64>> {
            parse_words(line?.strip_prefix(tag)?.strip_prefix(' ').unwrap_or(""))
        };
        let l1i = tagged("l1i", rest)?;
        let l1d = tagged("l1d", lines.next())?;
        let l2 = tagged("l2", lines.next())?;
        let bpred = tagged("bpred", lines.next())?;
        let btb = tagged("btb", lines.next())?;
        Some(Checkpoint {
            window,
            pc,
            retired,
            int_regs,
            fp_bits,
            pages,
            l1i,
            l1d,
            l2,
            bpred,
            btb,
        })
    }
}

/// Upper bound on the words one encoded line may expand to. The largest
/// vector any [`CoreConfig`] preset exports is the L2 image, 3 + 2 × 8 192
/// = 16 387 words (every preset shares the cache, predictor and BTB
/// geometry); the cap leaves 4× margin, so a corrupt `v*n` count is
/// rejected before it can request a huge allocation.
const MAX_LINE_WORDS: usize = 1 << 16;

/// Encodes a word vector as space-separated decimal tokens, writing every
/// maximal run of two or more equal words as one `v*n` token (cold cache
/// tags, zeroed LRU stamps and empty BTB entries are long runs).
fn join(words: &[u64]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mut rest = words;
    while let Some(&w) = rest.first() {
        let run = rest.iter().take_while(|&&x| x == w).count();
        if !s.is_empty() {
            s.push(' ');
        }
        let _ = if run >= 2 {
            write!(s, "{w}*{run}")
        } else {
            write!(s, "{w}")
        };
        rest = &rest[run..];
    }
    s
}

/// Inverse of [`join`]. `None` on a malformed token, a run count below 2,
/// or a line expanding past [`MAX_LINE_WORDS`].
fn parse_words(body: &str) -> Option<Vec<u64>> {
    let mut words = Vec::new();
    if body.is_empty() {
        return Some(words);
    }
    for token in body.split(' ') {
        let (value, run) = match token.split_once('*') {
            Some((value, run)) => (value, run.parse().ok().filter(|&n: &usize| n >= 2)?),
            None => (token, 1),
        };
        let value: u64 = value.parse().ok()?;
        if run > MAX_LINE_WORDS - words.len() {
            return None;
        }
        words.resize(words.len() + run, value);
    }
    Some(words)
}

fn parse_array(body: &str) -> Option<[u64; 32]> {
    let words = parse_words(body)?;
    words.try_into().ok()
}

// ---------------------------------------------------------------------
// In-process checkpoint memo: the RAM tier above the persistent
// `CheckpointStore`. Checkpoints are policy-independent (see the key
// derivation in `execute_sampled`), so within one run context the first cell
// to fast-forward a (workload, config, sampling) stream publishes its
// checkpoints here and every other policy's cells restore instead of
// re-emulating — even under `--no-cache`, which only disables the *disk*
// tiers. Purely an accelerator: entries are exact `Checkpoint` values, a
// miss (or an evicted entry) just re-runs the fast-forward, and the memo
// dies with its run context, so crash resume never depends on it.

/// FIFO-evicted memo cap. Full-suite runs need well under this; the cap
/// only guards pathological long-lived processes.
const MEMO_CAP_BYTES: usize = 256 << 20;

/// The memo itself, one per run context
/// ([`RunSink`](crate::runner::RunSink)).
#[derive(Default)]
pub(crate) struct CkptMemo {
    map: HashMap<u64, Arc<Checkpoint>>,
    order: VecDeque<u64>,
    bytes: usize,
}

impl CkptMemo {
    /// The memo key: the persistent store's key derivation minus the
    /// build fingerprint (meaningless within a single process).
    fn key(workload_digest: u64, sample_desc: &str, window: u32) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(workload_digest);
        h.write(sample_desc.as_bytes());
        h.write_u64(window as u64);
        h.finish()
    }

    fn load(&self, key: u64) -> Option<Arc<Checkpoint>> {
        self.map.get(&key).cloned()
    }

    fn publish(&mut self, key: u64, ck: Arc<Checkpoint>) {
        if self.map.contains_key(&key) {
            return;
        }
        self.bytes += ck.approx_bytes();
        self.map.insert(key, ck);
        self.order.push_back(key);
        while self.bytes > MEMO_CAP_BYTES {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(ck) = self.map.remove(&old) {
                self.bytes = self.bytes.saturating_sub(ck.approx_bytes());
            }
        }
    }
}

/// The shadow structures warmed along the functional fast-forward, so a
/// window's detailed simulation starts from trained caches and predictors
/// instead of cold ones. The warming rules are deliberately simple (every
/// retired instruction touches the I-cache; conditional branches train
/// the predictor with their actual outcome; indirect jumps seed the BTB)
/// — what matters is that they are deterministic and applied identically
/// on fresh and resumed runs.
pub struct Warmer {
    hier: MemoryHierarchy,
    bpred: BranchPredictor,
    btb: Btb,
}

impl Warmer {
    /// Cold structures for `config`.
    pub fn new(config: &CoreConfig) -> Warmer {
        Warmer {
            hier: MemoryHierarchy::new(config),
            bpred: BranchPredictor::new(
                config.bimodal_entries,
                config.gshare_entries,
                config.gshare_history_bits,
                config.meta_entries,
            ),
            btb: Btb::new(config.btb_entries),
        }
    }

    /// Warmed structures restored from a checkpoint (for resume).
    fn restore(ck: &Checkpoint, config: &CoreConfig) -> Option<Warmer> {
        let (hier, bpred, btb) = ck.warm_state(config)?;
        Some(Warmer { hier, bpred, btb })
    }

    /// Folds one retired instruction into the warm state. Delegates to
    /// the [`SilentObserver`] hooks so this path and the block-compiled
    /// [`Emulator::run_observed`] warming path share one set of rules.
    pub fn observe(&mut self, r: &Retired) {
        SilentObserver::retire(self, r.pc);
        if let Some(span) = r.mem {
            SilentObserver::mem(self, span.addr);
        }
        match r.inst {
            Inst::Branch { .. } => SilentObserver::branch(self, r.pc, r.taken.unwrap_or(false)),
            Inst::Jalr { .. } => SilentObserver::jalr(self, r.pc, r.next_pc),
            _ => {}
        }
    }
}

impl SilentObserver for Warmer {
    #[inline]
    fn retire(&mut self, pc: u32) {
        self.hier.inst_access(Program::text_addr(pc));
    }

    #[inline]
    fn mem(&mut self, addr: Addr) {
        self.hier.data_access(addr);
    }

    #[inline]
    fn branch(&mut self, pc: u32, taken: bool) {
        let (_, snapshot) = self.bpred.predict(pc);
        self.bpred.speculate(pc, taken);
        self.bpred.update(pc, taken, snapshot);
    }

    #[inline]
    fn jalr(&mut self, pc: u32, next_pc: u32) {
        self.btb.insert(pc, next_pc);
    }
}

/// The resolved window placement for one sampled cell: `windows` disjoint
/// detailed spans carved out of a population of `N` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Effective window count (≤ the spec's, shrunk to fit small
    /// populations).
    pub windows: u64,
    /// Instructions between window starts (`population / windows`).
    pub period: u64,
    /// Detailed-warmup instructions per window (≥ 1).
    pub warmup: u64,
    /// Measured instructions per window.
    pub measure: u64,
}

impl Layout {
    /// Places `spec`'s windows over a population of `population`
    /// instructions. The window count shrinks so every window (warmup +
    /// measurement) fits in half its period; `None` means the population
    /// is too small to sample honestly (fewer than two windows fit) and
    /// the cell should run exactly instead.
    pub fn plan(spec: &SampleSpec, population: u64) -> Option<Layout> {
        if spec.window_insts == 0 {
            return None;
        }
        let warmup = u64::from(spec.warmup_insts).max(1);
        let measure = u64::from(spec.window_insts);
        let per_window = warmup + measure;
        let max_windows = population / (2 * per_window);
        let windows = u64::from(spec.windows).min(max_windows);
        if windows < 2 {
            return None;
        }
        Some(Layout {
            windows,
            period: population / windows,
            warmup,
            measure,
        })
    }

    /// Where window `i`'s checkpoint is taken (instructions retired). The
    /// measured span starts `warmup` instructions later, centred in the
    /// window's period, and always ends before the next period boundary.
    pub fn checkpoint_at(&self, i: u64) -> u64 {
        i * self.period + self.period / 2 - self.warmup
    }
}

/// Executes one cell under the sampling engine. Called from the verified
/// execution funnel when the spec's options ask for sampling; cells whose
/// population is too small fall back to the exact path (still keyed as
/// sampled cells, so the fallback is itself deterministic and cacheable).
pub(crate) fn execute_sampled(
    ctx: &RunCtx,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    let (expected, population) =
        oracle().map_err(|e| CellError::new(FailureKind::OracleMustHalt, e))?;
    let Some(layout) = Layout::plan(&opts.sampling, population) else {
        return crate::experiments::execute_exact(ctx, workload, config, policy_kind, opts, || {
            Ok((expected, population))
        });
    };

    let digest = workload_digest(workload);

    // Partial-progress envelope (crash resume): locate it under the run
    // journal, keyed exactly like the cell itself.
    let envelope = ctx.journal.as_ref().map(|journal| {
        let desc = format!("{config:?}|{policy_kind:?}|{opts:?}");
        let key = journal.key(digest, &desc);
        journal
            .run_dir()
            .join("samples")
            .join(format!("{key:016x}.ckpt"))
    });

    // Shared checkpoint key: checkpoints are a pure function of the
    // program, config, sampling layout and warming horizon — notably NOT
    // of the policy under test — so the description deliberately omits
    // the policy. Within one cold run the first policy's cells populate
    // the run's memo (and the ctx's store, if any) and every other
    // policy restores from it; a warm run restores everything and
    // fast-forwards nothing.
    let sample_desc = format!(
        "{config:?}|{:?}|pop {population}|horizon {WARM_HORIZON}",
        opts.sampling
    );
    let store = ctx.checkpoints.as_ref();

    // Pre-decode the program once per cell; every fast-forward stretch
    // below executes through the compiled blocks.
    let t_compile = Instant::now();
    let code = BlockCode::compile(&workload.program);
    let compile_nanos = t_compile.elapsed().as_nanos() as u64;

    let mut deltas: Vec<Vec<u64>> = Vec::new();
    let mut pending: Option<Checkpoint> = None;
    let mut emu = Emulator::new(&workload.program);
    let mut warm = Warmer::new(config);
    if let Some(path) = &envelope {
        if let Some(partial) = load_partial(path, &opts.sampling, population) {
            if let Some(w) = Warmer::restore(&partial.checkpoint, config) {
                emu = partial.checkpoint.restore_emulator(&workload.program);
                warm = w;
                deltas = partial.deltas;
                pending = Some(partial.checkpoint);
                ctx.sink
                    .recovery
                    .sampled_resumes
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // A memo or store hit does not move the master emulator and warm
    // structures: only a window that misses needs them, so a hit just
    // remembers its checkpoint here and the next miss restores from it —
    // the same state a restore at the hit would have produced, paid for
    // once per miss instead of once per hit.
    let mut behind: Option<Arc<Checkpoint>> = None;
    let fitted = |ck: &Checkpoint| {
        ck.warm_state(config).ok_or_else(|| {
            CellError::new(
                FailureKind::SimError,
                format!(
                    "{}: checkpoint warm state does not fit {}",
                    workload.name, config.name
                ),
            )
        })
    };

    let mut ff_insts = 0u64;
    let mut ff_nanos = 0u64;
    let mut ff_blocks = 0u64;
    let mut ff_fallback_steps = 0u64;
    let mut ckpt_shared = 0u64;
    let mut window_nanos = 0u64;
    let first = deltas.len() as u64;
    for i in first..layout.windows {
        let (checkpoint, state) = match pending.take() {
            Some(ck) => {
                let state = fitted(&ck)?;
                (Arc::new(ck), state)
            }
            None => {
                // In-process memo first (see `CkptMemo`): a hit means an
                // earlier cell in this process — typically the same
                // workload under a different policy — already produced
                // this window's checkpoint. The shared store next. A hit
                // whose warm state does not fit the config counts as a
                // miss.
                let mkey = CkptMemo::key(digest, &sample_desc, i as u32);
                let with_state =
                    |ck: Arc<Checkpoint>| ck.warm_state(config).map(|state| (ck, state));
                let memoed = lock(&ctx.sink.memo).load(mkey).and_then(with_state);
                let hit = match memoed {
                    Some(hit) => {
                        ckpt_shared += 1;
                        Some(hit)
                    }
                    None => store
                        .and_then(|s| {
                            let key = s.key(digest, &sample_desc, i as u32);
                            s.load(key, workload.name, i as u32)
                        })
                        .and_then(|ck| with_state(Arc::new(ck)))
                        .inspect(|(ck, _)| lock(&ctx.sink.memo).publish(mkey, Arc::clone(ck))),
                };
                let (ck, state) = match hit {
                    Some((ck, state)) => {
                        behind = Some(Arc::clone(&ck));
                        (ck, state)
                    }
                    None => {
                        if let Some(ck) = behind.take() {
                            emu = ck.restore_emulator(&workload.program);
                            warm = Warmer::restore(&ck, config)
                                .expect("a hit's warm state was checked against the config");
                        }
                        let target = layout.checkpoint_at(i);
                        let t0 = Instant::now();
                        // Warming horizon: only the last `WARM_HORIZON`
                        // retired instructions before a checkpoint warm the
                        // shadow structures; the stretch before that
                        // emulates silently through the compiled blocks.
                        // The rule is a pure function of position, so a
                        // resumed run (which restarts the master emulator
                        // at the previous checkpoint) reproduces the same
                        // warm state exactly.
                        let silent_until = target.saturating_sub(WARM_HORIZON);
                        let ff_err = |e| {
                            CellError::new(
                                FailureKind::SimError,
                                format!("{} fast-forward failed: {e}", workload.name),
                            )
                        };
                        if emu.retired() < silent_until {
                            ff_insts += silent_until - emu.retired();
                            let stats = emu.run_silent(&code, silent_until).map_err(ff_err)?;
                            ff_blocks += stats.blocks;
                            ff_fallback_steps += stats.fallback_steps;
                        }
                        // The warmed stretch runs through the observed
                        // block executor — same events as a step()+observe
                        // loop, none of the per-step `Retired` overhead.
                        ff_insts += target - emu.retired();
                        emu.run_observed(&code, target, &mut warm).map_err(ff_err)?;
                        ff_nanos += t0.elapsed().as_nanos() as u64;
                        let ck = Arc::new(Checkpoint::capture(i as u32, &emu, &warm));
                        if let Some(s) = store {
                            let key = s.key(digest, &sample_desc, i as u32);
                            let written = s.store(key, workload.name, &ck);
                            if let (Some(plan), Some(path)) = (&ctx.faults, written) {
                                plan.on_cache_entry_written(&path);
                            }
                        }
                        lock(&ctx.sink.memo).publish(mkey, Arc::clone(&ck));
                        let state = fitted(&ck)?;
                        (ck, state)
                    }
                };
                if let Some(path) = &envelope {
                    if persist_partial(path, &opts.sampling, population, &deltas, &ck) {
                        if let Some(plan) = &ctx.faults {
                            plan.on_journal_entry_written(path);
                        }
                    }
                }
                (ck, state)
            }
        };
        let t0 = Instant::now();
        let delta = run_window(
            ctx,
            workload,
            config,
            policy_kind,
            opts,
            &layout,
            &checkpoint,
            state,
        )?;
        window_nanos += t0.elapsed().as_nanos() as u64;
        deltas.push(delta);
    }
    if let Some(path) = &envelope {
        let _ = std::fs::remove_file(path);
    }
    if ctx.profile {
        // Export order puts cycles first and committed second (see
        // `SimStats::export_values`), so the per-window deltas carry the
        // per-mode cycle counters directly.
        ctx.record_sampling(SamplingSample {
            ff_insts,
            ff_nanos,
            compile_nanos,
            ff_blocks,
            ff_fallback_steps,
            ckpt_shared,
            window_nanos,
            window_cycles: deltas.iter().map(|d| d[0]).sum(),
            window_committed: deltas.iter().map(|d| d[1]).sum(),
        });
    }
    reduce(workload, &layout, population, &deltas).ok_or_else(|| {
        CellError::new(
            FailureKind::SimError,
            format!("{}: sampled windows measured nothing", workload.name),
        )
    })
}

/// Runs one detailed window from `checkpoint`: a fresh simulator seeded
/// with the checkpoint state (its warm structures already rebuilt by
/// [`Checkpoint::warm_state`]) runs the discarded warmup, then resumes for
/// the measured span; the returned delta is the element-wise difference
/// of the two phases' exported stats (absolute warm offsets cancel). The
/// window's final architectural state is verified against a functional
/// replay of the same instruction span.
#[allow(clippy::too_many_arguments)]
fn run_window(
    ctx: &RunCtx,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
    layout: &Layout,
    checkpoint: &Checkpoint,
    (hier, bpred, btb): (MemoryHierarchy, BranchPredictor, Btb),
) -> Result<Vec<u64>, CellError> {
    let mut fp_regs = [0.0f64; 32];
    for (slot, &bits) in fp_regs.iter_mut().zip(&checkpoint.fp_bits) {
        *slot = f64::from_bits(bits);
    }
    let mut sim = Simulator::new(&workload.program, config.clone(), policy_kind.build(config));
    sim.restore_checkpoint(
        checkpoint.pc,
        &checkpoint.int_regs,
        &fp_regs,
        checkpoint.memory(),
        hier,
        bpred,
        btb,
    );
    let mut wopts = opts;
    // The auditor's lockstep emulator starts at the program entry, so it
    // cannot audit a mid-program restore; windows also never collect
    // traces or commit logs (the deltas are the product).
    wopts.audit = false;
    wopts.collect_commit_log = false;
    wopts.trace_capacity = 0;
    wopts.max_commits = Some(layout.warmup);
    let sim_err = |e: SimError| {
        CellError::new(
            FailureKind::SimError,
            format!(
                "{} window {} under {policy_kind:?} on {}: {e}",
                workload.name, checkpoint.window, config.name
            ),
        )
    };
    let a = sim.run(wopts).map_err(sim_err)?;
    if a.halted {
        return Err(CellError::new(
            FailureKind::SimError,
            format!(
                "{} window {}: warmup ran into halt (bad layout)",
                workload.name, checkpoint.window
            ),
        ));
    }
    let base = a.stats.export_values();
    wopts.max_commits = Some(layout.warmup + layout.measure);
    let b = sim.resume(wopts).map_err(sim_err)?;
    let mut reference = checkpoint.restore_emulator(&workload.program);
    reference.run_for(b.stats.committed).map_err(|e| {
        CellError::new(
            FailureKind::SimError,
            format!(
                "{} window {} reference replay failed: {e}",
                workload.name, checkpoint.window
            ),
        )
    })?;
    if reference.state_checksum() != b.checksum {
        return Err(CellError::new(
            FailureKind::StateDivergence,
            format!(
                "sampled-window state mismatch: {} window {} under {policy_kind:?} on {}: simulated {:#x}, emulator {:#x}",
                workload.name,
                checkpoint.window,
                config.name,
                b.checksum,
                reference.state_checksum()
            ),
        ));
    }
    if let Some(profile) = &b.profile {
        ctx.record_profile(profile, &b.stats);
    }
    Ok(b.stats
        .export_values()
        .iter()
        .zip(&base)
        .map(|(after, before)| after.wrapping_sub(*before))
        .collect())
}

/// Reduces the per-window deltas into the cell's population estimate:
/// counters scale by `population / measured-instructions`, the headline
/// rates carry Student-t 95% confidence intervals over the window means.
fn reduce(
    workload: &Workload,
    layout: &Layout,
    population: u64,
    deltas: &[Vec<u64>],
) -> Option<CellResult> {
    let mut sums = vec![0u64; SimStats::EXPORT_LEN];
    for delta in deltas {
        for (sum, v) in sums.iter_mut().zip(delta) {
            *sum = sum.wrapping_add(*v);
        }
    }
    let measured = SimStats::from_export_values(&sums)?.committed;
    if measured == 0 {
        return None;
    }
    let scaled: Vec<u64> = sums
        .iter()
        .map(|&v| ((v as u128 * population as u128) / measured as u128) as u64)
        .collect();
    let mut stats = SimStats::from_export_values(&scaled)?;
    let windows: Vec<SimStats> = deltas
        .iter()
        .filter_map(|d| SimStats::from_export_values(d))
        .collect();
    let ipc = mean_ci(&windows, |w| w.ipc());
    // Replay counts are Poisson-rare: the between-window t-interval is
    // floored by the rule-of-three upper bound, so "no replays observed"
    // never claims certainty that the true rate is zero.
    let replays = {
        let (mean, ci) = mean_ci(&windows, |w| w.per_million(w.replay_squashes));
        (mean, ci.max(3.0e6 / measured as f64))
    };
    let filter = ratio_ci(&windows, |w| {
        (
            w.policy.safe_stores as f64,
            (w.policy.safe_stores + w.policy.unsafe_stores) as f64,
        )
    });
    let safe = ratio_ci(&windows, |w| {
        (
            w.policy.safe_loads as f64,
            (w.policy.safe_loads + w.policy.unsafe_loads) as f64,
        )
    });
    stats.sampling = SamplingStats {
        windows: layout.windows,
        population,
        sampled_committed: measured,
        ipc_mean_q: to_q32(ipc.0),
        ipc_ci_q: to_q32(ipc.1),
        replays_per_m_mean_q: to_q32(replays.0),
        replays_per_m_ci_q: to_q32(replays.1),
        filter_rate_mean_q: to_q32(filter.0),
        filter_rate_ci_q: to_q32(filter.1),
        safe_load_rate_mean_q: to_q32(safe.0),
        safe_load_rate_ci_q: to_q32(safe.1),
    };
    Some(CellResult {
        workload: workload.name.to_string(),
        group: workload.group,
        stats,
    })
}

/// Ratio estimate `ΣA/ΣB` over the windows with a delta-method 95%
/// half-width — the estimator for rates whose denominator is an *event
/// count* (store resolutions, load issues) rather than a per-window
/// constant. A plain mean of per-window rates would count an event-free
/// window as "rate 0" and drift away from the ratio of scaled totals the
/// cell actually reports; this estimator is centered on that ratio.
///
/// When no window observed a single denominator event the rate is
/// unidentified, and the half-width is 1.0 — the whole range of a
/// bounded rate — rather than a confident 0. With events observed, the
/// half-width is floored at `1/√(ΣB)`, the worst-case binomial bound on
/// a proportion estimated from ΣB trials: windows that all agree (e.g.
/// every one saw rate 1.0) have zero between-window variance, but a few
/// hundred Bernoulli trials still cannot pin the rate down tighter than
/// that — and evenly spaced windows can systematically miss event
/// clusters the between-window variance knows nothing about.
fn ratio_ci(windows: &[SimStats], parts: impl Fn(&SimStats) -> (f64, f64)) -> (f64, f64) {
    let ab: Vec<(f64, f64)> = windows.iter().map(parts).collect();
    let k = ab.len();
    let total_b: f64 = ab.iter().map(|(_, b)| b).sum();
    if total_b == 0.0 {
        return (0.0, 1.0);
    }
    let ratio = ab.iter().map(|(a, _)| a).sum::<f64>() / total_b;
    if k < 2 {
        return (ratio, 0.0);
    }
    // Delta method: var(R) ≈ Σ(A_w − R·B_w)² / (B̄²·k·(k−1)) with B̄ the
    // mean denominator per window.
    let mean_b = total_b / k as f64;
    let ss: f64 = ab
        .iter()
        .map(|(a, b)| {
            let r = a - ratio * b;
            r * r
        })
        .sum();
    let var = ss / (mean_b * mean_b * k as f64 * (k - 1) as f64);
    let ci = (t95(k - 1) * var.sqrt()).max(1.0 / total_b.sqrt());
    (ratio, ci.min(1.0))
}

/// Sample mean and 95% confidence half-width of `metric` over the windows.
fn mean_ci(windows: &[SimStats], metric: impl Fn(&SimStats) -> f64) -> (f64, f64) {
    let samples: Vec<f64> = windows.iter().map(metric).collect();
    let k = samples.len();
    if k == 0 {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / k as f64;
    if k < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (k - 1) as f64;
    let se = (var / k as f64).sqrt();
    (mean, t95(k - 1) * se)
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (normal approximation past 30).
fn t95(df: usize) -> f64 {
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        T[0]
    } else if df <= T.len() {
        T[df - 1]
    } else {
        1.96
    }
}

/// The deserialized partial-progress envelope: deltas of the windows
/// completed before the crash plus the checkpoint for the next one.
struct Partial {
    deltas: Vec<Vec<u64>>,
    checkpoint: Checkpoint,
}

/// Writes the partial-progress envelope (sealed, atomic tmp + rename)
/// after each checkpoint capture; returns whether it landed (the caller
/// then notifies the fault-injection hook, so kill-after faults can land
/// mid-cell in crash tests).
fn persist_partial(
    path: &std::path::Path,
    spec: &SampleSpec,
    population: u64,
    deltas: &[Vec<u64>],
    checkpoint: &Checkpoint,
) -> bool {
    use std::fmt::Write as _;
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut body = String::new();
    let _ = writeln!(body, "{SAMPLE_MAGIC} {}", SimStats::EXPORT_LEN);
    let _ = writeln!(
        body,
        "spec {} {} {}",
        spec.windows, spec.window_insts, spec.warmup_insts
    );
    let _ = writeln!(body, "population {population}");
    let _ = writeln!(body, "done {}", deltas.len());
    for delta in deltas {
        let _ = writeln!(body, "delta {}", join(delta));
    }
    body.push_str(&checkpoint.encode());
    write_sealed(path, &body)
}

/// Loads and validates a partial-progress envelope; any mismatch (seal,
/// schema, spec, population, window-count consistency) degrades to a
/// fresh start, never an error.
fn load_partial(path: &std::path::Path, spec: &SampleSpec, population: u64) -> Option<Partial> {
    let text = std::fs::read_to_string(path).ok()?;
    let body = crate::cache::unseal(&text).ok()?;
    let mut lines = body.lines();
    let export_len: usize = lines
        .next()?
        .strip_prefix(SAMPLE_MAGIC)?
        .trim()
        .parse()
        .ok()?;
    if export_len != SimStats::EXPORT_LEN {
        return None;
    }
    let spec_line = lines.next()?.strip_prefix("spec ")?;
    let fields: Vec<u32> = spec_line
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields != [spec.windows, spec.window_insts, spec.warmup_insts] {
        return None;
    }
    let pop: u64 = lines.next()?.strip_prefix("population ")?.parse().ok()?;
    if pop != population {
        return None;
    }
    let done: usize = lines.next()?.strip_prefix("done ")?.parse().ok()?;
    let mut deltas = Vec::with_capacity(done);
    for _ in 0..done {
        let delta = parse_words(lines.next()?.strip_prefix("delta ")?)?;
        if delta.len() != SimStats::EXPORT_LEN {
            return None;
        }
        deltas.push(delta);
    }
    let checkpoint = Checkpoint::decode(&mut lines)?;
    if checkpoint.window as usize != done || lines.next().is_some() {
        return None;
    }
    Some(Partial { deltas, checkpoint })
}

/// The path a sampled cell's partial-progress envelope lives at inside a
/// run directory (exposed for tests).
pub fn sample_envelope_dir(run_dir: &std::path::Path) -> PathBuf {
    run_dir.join("samples")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdc_workloads::{int_suite, Scale};

    fn warm_checkpoint(insts: u64) -> (Workload, Checkpoint) {
        let w = int_suite(Scale::Smoke).remove(0);
        let config = CoreConfig::config2();
        let mut emu = Emulator::new(&w.program);
        let mut warm = Warmer::new(&config);
        while emu.retired() < insts {
            let r = emu.step().expect("steps");
            warm.observe(&r);
        }
        let ck = Checkpoint::capture(3, &emu, &warm);
        (w, ck)
    }

    #[test]
    fn checkpoint_encode_decode_roundtrips() {
        let (_w, ck) = warm_checkpoint(5_000);
        let text = ck.encode();
        let back = Checkpoint::decode(&mut text.lines()).expect("decodes");
        assert_eq!(back, ck);
    }

    #[test]
    fn run_length_codec_roundtrips_run_boundaries() {
        for (words, text) in [
            (vec![], ""),
            (vec![9; 100], "9*100"),
            (vec![0, 0, 0, 1, 2], "0*3 1 2"),
            (vec![1, 2, u64::MAX, u64::MAX], "1 2 18446744073709551615*2"),
            (vec![4, 4, 5, 6, 6, 7], "4*2 5 6*2 7"),
            (vec![1, 2, 1, 2, 1], "1 2 1 2 1"),
        ] {
            assert_eq!(join(&words), text, "encoding of {words:?}");
            let back = parse_words(text).expect("decodes");
            assert_eq!(back, words, "round trip of {text:?}");
            assert_eq!(join(&back), text, "re-encoding of {text:?}");
        }
    }

    #[test]
    fn run_length_codec_rejects_bad_counts() {
        // An oversized count must be refused before anything is
        // allocated: a 2^40-word resize would abort the test process.
        for text in [
            "7*0",
            "7*1",
            "7*abc",
            "7*",
            "*3",
            "7*2*2",
            "0*1099511627776",
            &format!("0*{}", MAX_LINE_WORDS + 1),
            &format!("1 0*{MAX_LINE_WORDS}"),
        ] {
            assert_eq!(parse_words(text), None, "{text:?} must be rejected");
        }
        let full = parse_words(&format!("0*{MAX_LINE_WORDS}")).expect("the cap itself fits");
        assert_eq!(full.len(), MAX_LINE_WORDS);
    }

    #[test]
    fn word_cap_covers_every_preset_with_margin() {
        for config in CoreConfig::all() {
            let warm = Warmer::new(&config);
            let largest = [
                warm.hier.l1i.export_state().len(),
                warm.hier.l1d.export_state().len(),
                warm.hier.l2.export_state().len(),
                warm.bpred.export_state().len(),
                warm.btb.export_state().len(),
            ]
            .into_iter()
            .max()
            .unwrap();
            assert!(
                2 * largest <= MAX_LINE_WORDS,
                "{}: a {largest}-word image leaves the cap no margin",
                config.name
            );
        }
    }

    #[test]
    fn cold_checkpoint_encodes_under_2_kib() {
        let w = int_suite(Scale::Smoke).remove(0);
        let emu = Emulator::new(&w.program);
        let warm = Warmer::new(&CoreConfig::config2());
        let ck = Checkpoint::capture(0, &emu, &warm);
        let text = ck.encode();
        assert!(
            text.len() < 2048,
            "a cold checkpoint encodes to {} bytes",
            text.len()
        );
        assert_eq!(Checkpoint::decode(&mut text.lines()), Some(ck));
    }

    #[test]
    fn restored_emulator_continues_identically() {
        let (w, ck) = warm_checkpoint(2_000);
        // The pristine emulator, stepped past the checkpoint.
        let mut straight = Emulator::new(&w.program);
        while straight.retired() < 2_500 {
            straight.step().unwrap();
        }
        let mut resumed = ck.restore_emulator(&w.program);
        assert_eq!(resumed.retired(), 2_000);
        while resumed.retired() < 2_500 {
            resumed.step().unwrap();
        }
        assert_eq!(resumed.state_checksum(), straight.state_checksum());
        assert_eq!(resumed.pc(), straight.pc());
    }

    #[test]
    fn checkpoint_store_roundtrips_and_keys_invalidate() {
        use crate::cache::CheckpointStore;
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/dmdc-ckpt-store-unit-test");
        let _ = std::fs::remove_dir_all(&root);
        let (w, ck) = warm_checkpoint(2_000);
        let digest = workload_digest(&w);
        let store = CheckpointStore::with_fingerprint(&root, "fp-a");
        let key = store.key(digest, "desc", ck.window);

        assert!(store.load(key, w.name, ck.window).is_none(), "cold miss");
        store.store(key, w.name, &ck);
        assert_eq!(
            store.load(key, w.name, ck.window).as_ref(),
            Some(&ck),
            "stored checkpoint must round-trip exactly"
        );
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));

        // Any keyed input moving moves the key: workload content,
        // sampling description (config/spec/population/horizon), window
        // index and the simulator fingerprint.
        assert_ne!(key, store.key(digest ^ 1, "desc", ck.window));
        assert_ne!(key, store.key(digest, "other-desc", ck.window));
        assert_ne!(key, store.key(digest, "desc", ck.window + 1));
        let bumped = CheckpointStore::with_fingerprint(&root, "fp-b");
        assert_ne!(key, bumped.key(digest, "desc", ck.window));

        // A checkpoint stored under a colliding key for a *different*
        // workload or window is stale: quarantined, never returned.
        assert!(store.load(key, "some-other-workload", ck.window).is_none());
        let c = store.counters();
        assert_eq!(c.corrupt, 1, "workload mismatch quarantines");
        assert!(
            store.load(key, w.name, ck.window).is_none(),
            "the quarantined file must be gone"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn layout_windows_fit_inside_population() {
        let spec = SampleSpec {
            windows: 24,
            window_insts: 1_500,
            warmup_insts: 1_500,
        };
        let layout = Layout::plan(&spec, 1_000_000).expect("fits");
        assert_eq!(layout.windows, 24);
        for i in 0..layout.windows {
            let ck = layout.checkpoint_at(i);
            let end = ck + layout.warmup + layout.measure;
            assert!(end <= 1_000_000, "window {i} spills past the population");
            if i > 0 {
                assert!(
                    ck >= layout.checkpoint_at(i - 1) + layout.warmup + layout.measure,
                    "window {i} overlaps its predecessor"
                );
            }
        }
    }

    #[test]
    fn layout_shrinks_or_rejects_small_populations() {
        let spec = SampleSpec {
            windows: 24,
            window_insts: 1_000,
            warmup_insts: 1_000,
        };
        let shrunk = Layout::plan(&spec, 20_000).expect("a few windows fit");
        assert!(shrunk.windows >= 2 && shrunk.windows < 24);
        assert!(Layout::plan(&spec, 7_000).is_none(), "too small to sample");
        let degenerate = SampleSpec {
            windows: 8,
            window_insts: 0,
            warmup_insts: 100,
        };
        assert!(Layout::plan(&degenerate, 1_000_000).is_none());
    }

    #[test]
    fn sampled_cell_estimates_exact_ipc() {
        let w = int_suite(Scale::Default).remove(6); // histo: large population
        let config = CoreConfig::config2();
        let exact = crate::experiments::run_workload(
            &w,
            &config,
            &crate::experiments::PolicyKind::DmdcGlobal,
            SimOptions::default(),
        );
        let opts = SimOptions {
            sampling: SampleSpec {
                windows: 12,
                window_insts: 1_000,
                warmup_insts: 1_000,
            },
            ..SimOptions::default()
        };
        let sampled = crate::experiments::run_workload(
            &w,
            &config,
            &crate::experiments::PolicyKind::DmdcGlobal,
            opts,
        );
        let s = sampled.stats.sampling;
        assert!(sampled.stats.is_sampled(), "sampling must engage");
        assert_eq!(s.windows, 12);
        assert_eq!(s.population, exact.stats.committed);
        assert!(
            sampled.stats.committed.abs_diff(exact.stats.committed) <= 12,
            "scaled commits ({}) must approximate the population ({})",
            sampled.stats.committed,
            exact.stats.committed
        );
        assert!(s.ipc_ci() > 0.0, "a multi-window run must report a CI");
        let err = (s.ipc_mean() - exact.stats.ipc()).abs();
        assert!(
            err <= s.ipc_ci().max(0.15 * exact.stats.ipc()),
            "sampled IPC {} ± {} too far from exact {}",
            s.ipc_mean(),
            s.ipc_ci(),
            exact.stats.ipc()
        );
    }

    #[test]
    fn t_table_is_monotone_toward_the_normal() {
        let mut prev = f64::INFINITY;
        for df in 1..=40 {
            let t = t95(df);
            assert!(t <= prev, "t must not increase with df");
            assert!(t >= 1.9);
            prev = t;
        }
    }
}
