#!/usr/bin/env python3
"""Benchmark of the dmdc reproduction: the full sampled suite, cold and
over a warm checkpoint store, timed end to end as `dmdc` child processes,
plus a traced in-process run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload suite-full-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40     # every workload, interleaved
    python3 perfbench/run.py --write-expected                # regenerate expected outputs

`--trace 0` times the `dmdc` command (wall, CPU and peak RSS of each child,
from wait4) and reports the end-to-end metrics; `--trace 1` also drives the
workload in-process through `perfbench-trace` and reports per-layer
metrics. Every run byte-compares each report against its expected file and
checks that the work counters repeat exactly; a mismatch counts as a failed
operation. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
WORK = TARGET / "perfbench"
DMDC = TARGET / "release" / "dmdc"
TRACER = TARGET / "release" / "perfbench-trace"
JOBS = "2"
CHILD_TIMEOUT_S = 150
# Each run measures at least this many timed repeats, and at most this
# many, whatever --seconds says.
MIN_REPEATS = 5
MAX_REPEATS = 400
# Set-ups per run for workloads whose set-up is not repeated per timed
# invocation (the checkpoint-warm store seeding).
SEEDINGS = 3

COLD_SUITE = ["suite", "--policy", "dmdc-global", "--scale", "full", "--jobs", JOBS]
WARM_SUITE = ["suite", "--policy", "yla-8", "--scale", "full", "--jobs", JOBS]

WORKLOADS = {
    "suite-full-cold": {
        "argv": COLD_SUITE,
        "expected": BENCH_DIR / "expected" / "suite-full-cold.txt",
        "seeded_store": False,
    },
    "suite-full-ckpt-warm": {
        "argv": WARM_SUITE,
        "expected": BENCH_DIR / "expected" / "suite-full-ckpt-warm.txt",
        "seeded_store": True,
    },
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing inputs)."""


# ---------------------------------------------------------------- children


class Child:
    """One finished child process: wall time, rusage, exit code, output."""

    def __init__(self, argv, cwd, tag):
        out_path = WORK / "logs" / f"{tag}.out"
        err_path = WORK / "logs" / f"{tag}.err"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps this child alone and returns its own rusage
                # (RUSAGE_CHILDREN's ru_maxrss is a running maximum over
                # every child ever reaped, not a per-run value).
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()


_child_seq = [0]


def run_child(argv, cwd, what):
    _child_seq[0] += 1
    return Child(argv, cwd, f"{_child_seq[0]:04d}-{what}")


# ------------------------------------------------------------------ checks


def output_matches(actual: bytes, expected_path: Path) -> bool:
    """The output gate: the report must equal its expected file byte for
    byte."""
    return actual == expected_path.read_bytes()


def counter_drift(reference: dict, counters: dict) -> list:
    """Names of counters whose values differ from `reference` (a counter
    present on only one side also drifts)."""
    keys = sorted(set(reference) | set(counters))
    return [k for k in keys if reference.get(k) != counters.get(k)]


# The simulation work a speed-only change must leave identical, checked
# against perfbench/expected/<workload>.counters.json on every run: the
# instructions fast-forwarded, oracle emulations, detailed cycles, window
# cycles and commits, and checkpoint-store hits and misses. Host-side
# counters (event-horizon skips, compiled blocks, in-memory restores,
# stored bytes) are reported but not checked: an optimisation may move them.
WORK_COUNTERS = (
    "ff_insts", "oracle_misses", "simulated_cycles", "window_committed",
    "window_cycles", "ckpt_hits", "ckpt_misses",
)
# The traced run also counts the oracle's instructions and every commit of
# the detailed simulation (exact cells and whole sampling windows).
TRACED_WORK_COUNTERS = WORK_COUNTERS + (
    "exact_committed", "layers_oracle_insts", "layers_window_all_committed", "layers_windows",
)


def work_counters(counters: dict, names=WORK_COUNTERS) -> dict:
    return {k: counters[k] for k in names if k in counters}


PROFILE_PATTERNS = [
    (r"\[profile\] (\d+) runs: (\d+) cycles simulated, (\d+) executed, (\d+) skipped .* in (\d+) fast-forwards",
     ["profile_runs", "simulated_cycles", "executed_cycles", "skipped_cycles", "fast_forwards"]),
    (r"\[profile\] sampling: (\d+) cells, (\d+) insts fast-forwarded, (\d+) committed in detailed windows \((\d+) cycles\)",
     ["sampled_cells", "ff_insts", "window_committed", "window_cycles"]),
    (r"\[profile\] sampling: fast-forward ran (\d+) compiled blocks \+ (\d+) single-step fallbacks; .*; (\d+) in-memory checkpoint restores",
     ["ff_blocks", "ff_fallback_steps", "ckpt_shared"]),
    (r"\[profile\] cell cache: (\d+) hits, (\d+) misses, (\d+) stored, (\d+) corrupt",
     ["cell_hits", "cell_misses", "cell_stores", "cell_corrupt"]),
    (r"\[profile\] checkpoint store: (\d+) hits, (\d+) misses, (\d+) stored, (\d+) corrupt",
     ["ckpt_hits", "ckpt_misses", "ckpt_stores", "ckpt_corrupt"]),
    (r"\[runner\] jobs=\d+ cells=(\d+) oracle: (\d+) emulations, (\d+) cache hits",
     ["cells", "oracle_misses", "oracle_hits"]),
]


def parse_profile(stderr: str) -> dict:
    """Deterministic work counters from `dmdc ... --profile` stderr."""
    counters = {}
    for pattern, names in PROFILE_PATTERNS:
        m = re.search(pattern, stderr)
        if m:
            counters.update(zip(names, map(int, m.groups())))
    return counters


# ------------------------------------------------------------------- setup


def build():
    """Builds `dmdc` and `perfbench-trace` from the checkout's sources."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not the repository root (no Cargo.toml / crates)")
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "dmdc"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH_DIR / "tracer" / "Cargo.toml")],
    ):
        log = WORK / "build.log"
        with open(log, "wb") as out:
            code = subprocess.run(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT).returncode
        if code != 0:
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
            raise BenchError(f"build failed: {' '.join(argv)}")


def host_facts():
    facts = {"nproc": os.cpu_count(), "commit": None}
    try:
        facts["rustc"] = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        facts["rustc"] = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        facts["commit"] = r.stdout.strip() or None
    # A checkout without git history is identified by its sources instead.
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    sources += sorted(p for d in ("crates", "src") for p in (ROOT / d).rglob("*") if p.is_file())
    for p in sources:
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    facts["source_sha256"] = digest.hexdigest()
    r = subprocess.run([str(TRACER), "facts"], capture_output=True, text=True)
    if r.returncode == 0:
        facts.update(json.loads(r.stdout))
    return facts


class Workload:
    """One workload's run directory: `dmdc` runs with it as the working
    directory, so its caches live in `<dir>/target/dmdc-cache`."""

    def __init__(self, name):
        self.name = name
        self.spec = WORKLOADS[name]
        self.dir = WORK / "run" / name
        self.cache = self.dir / "target" / "dmdc-cache"
        self.expected = self.spec["expected"]
        if not self.expected.is_file():
            raise BenchError(f"missing expected report {self.expected}")
        self.counters_path = BENCH_DIR / "expected" / f"{name}.counters.json"

    def expected_counters(self, kind):
        """The committed work counters of the `untraced` or `traced` run."""
        if not self.counters_path.is_file():
            raise BenchError(f"missing expected work counters {self.counters_path}")
        return json.loads(self.counters_path.read_text())[kind]

    def setup(self):
        """The untimed preparation: empty the cache directory, and for the
        checkpoint-warm workload seed the store with the cold suite.
        Returns (seconds, ok)."""
        start = time.perf_counter()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        ok = True
        if self.spec["seeded_store"]:
            seed = run_child([str(DMDC)] + COLD_SUITE, self.dir, f"{self.name}-seed")
            ok = seed.code == 0 and output_matches(seed.stdout, WORKLOADS["suite-full-cold"]["expected"])
        return time.perf_counter() - start, ok

    def reset_cells(self):
        """Between timed checkpoint-warm repeats: drop the cell records the
        previous repeat wrote, keeping the seeded checkpoint store."""
        if self.cache.is_dir():
            for f in self.cache.glob("*.cell"):
                f.unlink()

    def timed(self, extra=()):
        child = run_child([str(DMDC)] + self.spec["argv"] + list(extra), self.dir, self.name)
        child.ok = (
            child.code == 0
            and output_matches(child.stdout, self.expected)
            and b"quarantined cells" not in child.stdout
        )
        return child


# ----------------------------------------------------------------- measure


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def measure(names, seconds, rng, tallies):
    """Interleaved timed repeats of every workload in `names`, in a
    seed-ordered sequence per round, for `seconds` of wall time. Returns
    the workloads and {workload: {"runs": [Child], "setups": [s]}}."""
    loads = {n: Workload(n) for n in names}
    out = {n: {"runs": [], "setups": []} for n in names}
    # Seeded rounds at which the checkpoint-warm store is (re-)seeded; the
    # first round always seeds.
    reseed_at = {0} | set(rng.sample(range(1, 2 * MIN_REPEATS), SEEDINGS - 1))
    start = time.perf_counter()
    rnd = 0
    while rnd < MAX_REPEATS and (rnd < MIN_REPEATS or time.perf_counter() - start < seconds):
        order = list(names)
        rng.shuffle(order)
        for n in order:
            w = loads[n]
            if not w.spec["seeded_store"] or rnd in reseed_at:
                s, ok = w.setup()
                out[n]["setups"].append(s)
                tallies[n].add(ok, f"{n}: set-up failed")
                if not ok:
                    continue
            else:
                w.reset_cells()
            child = w.timed()
            out[n]["runs"].append(child)
            tallies[n].add(child.ok, f"{n}: timed run {len(out[n]['runs'])} exit {child.code} or wrong output")
        rnd += 1
    return loads, out


def check_counters(w: Workload, kind, counters, tally):
    """Work counters must equal the committed expected ones exactly, on
    every run and seed."""
    names = TRACED_WORK_COUNTERS if kind == "traced" else WORK_COUNTERS
    drift = counter_drift(w.expected_counters(kind), work_counters(counters, names))
    tally.add(not drift, f"{w.name}: {kind} work counters differ from {w.counters_path.name}: {drift}")


def counters_run(w: Workload, tally):
    """One untimed `--profile` invocation and its counters (all of them;
    callers check the work counters)."""
    _, ok = w.setup()
    child = w.timed(["--profile"])
    tally.add(ok and child.ok, f"{w.name}: profiled run failed or wrong output")
    return parse_profile(child.stderr.decode(errors="replace"))


def quantile_summary(xs):
    """Median, plus the highest percentile with at least ten samples beyond
    it (None below 20 samples) and the sample count."""
    n = len(xs)
    med = statistics.median(xs)
    p = int(100 * (n - 10) / n) if n >= 20 else 0
    tail = statistics.quantiles(xs, n=100, method="inclusive")[p - 1] if p >= 50 else None
    return {"median": med, "tail_pct": p if tail is not None else None, "tail": tail, "n": n}


def e2e_metrics(runs, setups):
    good = [r for r in runs if r.ok] or runs
    series = {
        "wall_s": [r.wall_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
        "setup_s": setups,
    }
    return {k: quantile_summary(v) for k, v in series.items() if v}


# ------------------------------------------------------------------ traced


def trace_once(w: Workload, flags, tag):
    out = WORK / "logs" / f"trace-{tag}.json"
    child = run_child(
        [str(TRACER), w.name, "--cache-dir", str(w.cache), "--out", str(out)] + flags, w.dir, f"trace-{tag}"
    )
    if child.code != 0:
        return child, None
    doc = json.loads(out.read_text())
    # Self time: a span's duration minus the part its children cover.
    children = {}
    for sp in doc["spans"]:
        children.setdefault(sp["parent"], []).append((sp["start_ns"], sp["end_ns"]))
    for sp in doc["spans"]:
        sp["self_ns"] = sp["end_ns"] - sp["start_ns"] - union_len(children.get(sp["id"], []))
    return child, doc


def union_len(intervals):
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def span_sum(spans, name):
    """Total self time of the spans called `name`, in seconds."""
    return sum(s["self_ns"] for s in spans if s["name"] == name) / 1e9


def work_sum(spans, name):
    return sum(s["work"] for s in spans if s["name"] == name)


def per_ns(spans, name):
    work = work_sum(spans, name)
    return span_sum(spans, name) * 1e9 / work if work else 0.0


LAYER_SPANS = ("experiments.plan", "runner.cell", "experiments.reduce", "report.render")


def drive_numbers(doc, untraced_wall):
    spans = [s for s in doc["spans"] if s["run"] == "drive"]
    root = next(s for s in spans if s["name"] == "drive")
    cells = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == "runner.cell"]
    pool = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "runner.pool") / 1e9
    layered = union_len([(s["start_ns"], s["end_ns"]) for s in spans if s["name"] in LAYER_SPANS]) / 1e9
    rerun = [s for s in doc["spans"] if s["run"] == "hit-rerun" and s["name"] == "drive"]
    return {
        "runner.cell_s.p50": statistics.median(cells),
        "runner.cell_s.max": max(cells),
        "runner.pool_idle_s": int(JOBS) * pool - sum(cells),
        "experiments.plan_s": span_sum(spans, "experiments.plan"),
        "experiments.reduce_s": span_sum(spans, "experiments.reduce"),
        "report.render_s": span_sum(spans, "report.render"),
        "cache.cell_hit_run_s": (rerun[0]["end_ns"] - rerun[0]["start_ns"]) / 1e9 if rerun else 0.0,
        # The drive itself starts from a cold cell cache; its hits are the
        # hit rerun's.
        "cache.cell_hits": doc["counters"].get("rerun_cell_hits", 0),
        "trace.coverage": layered / untraced_wall,
        "trace.overhead": (root["end_ns"] - root["start_ns"]) / 1e9 / untraced_wall - 1.0,
    }


def layer_numbers(doc):
    c = doc["counters"]
    spans = [s for s in doc["spans"] if s["run"] == "layers"]
    committed = c["exact_committed"] + c["layers_window_all_committed"]
    stage_names = ("fetch", "dispatch", "issue", "writeback", "commit")
    stage_ns = sum(c[f"stage_nanos_{n}"] for n in stage_names)
    m = {
        "runner.oracle_emulations": c["oracle_misses"],
        "oracle.s": span_sum(spans, "oracle.run_silent"),
        "oracle.insts": work_sum(spans, "oracle.run_silent"),
        "oracle.ns_per_inst": per_ns(spans, "oracle.run_silent"),
        "isa.compile_s": span_sum(spans, "isa.compile"),
        "isa.ff_silent_ns_per_inst": per_ns(spans, "isa.ff_silent"),
        "isa.ff_observed_ns_per_inst": per_ns(spans, "isa.ff_observed"),
        "sampling.ff_insts": c["ff_insts"],
        "sampling.windows": c["layers_windows"],
        "sampling.ckpt_capture_s": span_sum(spans, "sampling.ckpt_capture"),
        "sampling.window_s": span_sum(spans, "sampling.window"),
        "sampling.window_committed": c["window_committed"],
        "sampling.window_cycles": c["window_cycles"],
        "cache.ckpt_encode_s": span_sum(spans, "cache.ckpt_encode"),
        "cache.ckpt_decode_s": span_sum(spans, "cache.ckpt_decode"),
        "cache.ckpt_bytes": c["layers_ckpt_bytes"],
        "cache.ckpt_store_s": span_sum(spans, "cache.ckpt_store"),
        "cache.ckpt_load_s": span_sum(spans, "cache.ckpt_load"),
        "cache.ckpt_hits": c["ckpt_hits"],
        "cache.ckpt_misses": c["ckpt_misses"],
        "cache.cell_store_s": span_sum(spans, "cache.cell_store"),
        "cache.cell_load_s": span_sum(spans, "cache.cell_load"),
        "cache.cell_misses": c["cell_misses"],
        "ooo.ns_per_committed": stage_ns / committed if committed else 0.0,
        "ooo.ns_per_cycle": stage_ns / c["simulated_cycles"] if c["simulated_cycles"] else 0.0,
        "ooo.cycles": c["simulated_cycles"],
        "ooo.committed": committed,
        "ooo.skipped_cycle_frac": c["skipped_cycles"] / c["simulated_cycles"] if c["simulated_cycles"] else 0.0,
    }
    for n in stage_names:
        m[f"ooo.stage_s.{n}"] = c[f"stage_nanos_{n}"] / 1e9
    return m


def layer_checks(w: Workload, doc, cli_counters):
    """Cross-checks that the traced run did the untraced run's work, and
    that the layer replay reproduced the drive's counters."""
    c = doc["counters"]
    problems = []
    shared = [k for k in WORK_COUNTERS if k in cli_counters]
    drift = [k for k in shared if c.get(k) != cli_counters[k]]
    if drift:
        problems.append(f"traced counters differ from the untraced run: {drift}")
    if c["failures"] or c["layers_ckpt_roundtrip_mismatches"] or c["layers_cell_load_misses"]:
        problems.append("failed cells, checkpoint round-trip mismatches or cell-cache load misses")
    expect = {
        "layers_ff_insts": c["ff_insts"],
        "layers_windows": c["profile_runs"],
        "layers_window_all_cycles": c["simulated_cycles"],
        "layers_window_committed": c["window_committed"],
        "layers_window_cycles": c["window_cycles"],
    }
    bad = [k for k, v in expect.items() if c[k] != v]
    if bad:
        problems.append(f"layer replay disagrees with the drive: {bad}")
    return problems


def traced_run(w: Workload, seconds, rng, tally):
    """Interleaves untraced timed runs with traced drives (seed-ordered),
    then one profiled drive plus the layer replay."""
    untraced, drives = [], []
    start = time.perf_counter()
    reps = 0
    while reps < 2 or (time.perf_counter() - start < 0.75 * seconds and reps < MAX_REPEATS):
        for kind in rng.sample(["untraced", "traced"], 2):
            _, ok = w.setup()
            if kind == "untraced":
                child = w.timed()
                untraced.append(child)
                tally.add(ok and child.ok, f"{w.name}: untraced run failed")
            else:
                child, doc = trace_once(w, ["--hit-rerun"], f"{w.name}-{reps}")
                good = ok and doc is not None and output_matches(doc["report"].encode(), w.expected)
                if good and doc["counters"].get("rerun_cell_hits", doc["counters"]["cells"]) != doc["counters"]["cells"]:
                    good = False
                if good and doc["counters"].get("rerun_report_differs", 0):
                    good = False
                tally.add(good, f"{w.name}: traced drive failed or wrong output")
                if good:
                    drives.append(doc)
        reps += 1
    cli_counters = counters_run(w, tally)
    check_counters(w, "untraced", cli_counters, tally)
    _, ok = w.setup()
    _, doc = trace_once(w, ["--profile", "--layers"], f"{w.name}-layers")
    problems = ["profiled traced run failed"] if doc is None else layer_checks(w, doc, cli_counters)
    if doc is not None and not output_matches(doc["report"].encode(), w.expected):
        problems.append("profiled traced report differs from the expected report")
    tally.add(ok and not problems, f"{w.name}: {problems}")
    if doc is not None:
        check_counters(w, "traced", doc["counters"], tally)
    good = [r.wall_s for r in untraced if r.ok]
    if not good or not drives or doc is None:
        return {}
    untraced_wall = statistics.median(good)
    per_drive = [drive_numbers(d, untraced_wall) for d in drives]
    metrics = {k: statistics.median(d[k] for d in per_drive) for k in per_drive[0]}
    metrics.update(layer_numbers(doc))
    applicable, unused = applicable_metrics(w.name, metrics)
    tally.add(not unused, f"{w.name}: layer metrics read 0 on a layer the workload uses: {unused}")
    return applicable


def applicable_metrics(name, metrics):
    """The per-layer metrics of the layers workload `name` uses, in
    PER_LAYER order, and the names of any among them that read 0 (a layer
    the traced run failed to reach)."""
    applicable = {k: metrics[k] for k in PER_LAYER if k in APPLIES[name]}
    return applicable, [k for k, v in applicable.items() if v == 0]


# -------------------------------------------------------------------- main


def metric_json(value, unit):
    return {"value": value, "unit": unit}


# Every per-layer metric `--trace 1` prints, with its unit.
PER_LAYER = {
    "runner.cell_s.p50": "s", "runner.cell_s.max": "s", "runner.pool_idle_s": "s",
    "runner.oracle_emulations": "count",
    "oracle.s": "s", "oracle.insts": "count", "oracle.ns_per_inst": "ns",
    "isa.compile_s": "s", "isa.ff_silent_ns_per_inst": "ns", "isa.ff_observed_ns_per_inst": "ns",
    "sampling.ff_insts": "count", "sampling.windows": "count", "sampling.ckpt_capture_s": "s",
    "sampling.window_s": "s",
    "sampling.window_committed": "count", "sampling.window_cycles": "count",
    "cache.ckpt_encode_s": "s", "cache.ckpt_decode_s": "s", "cache.ckpt_bytes": "bytes",
    "cache.ckpt_store_s": "s", "cache.ckpt_load_s": "s", "cache.ckpt_hits": "count",
    "cache.ckpt_misses": "count", "cache.cell_store_s": "s", "cache.cell_load_s": "s",
    "cache.cell_hits": "count", "cache.cell_misses": "count", "cache.cell_hit_run_s": "s",
    "ooo.ns_per_committed": "ns", "ooo.ns_per_cycle": "ns", "ooo.cycles": "count",
    "ooo.committed": "count", "ooo.skipped_cycle_frac": "frac",
    "ooo.stage_s.fetch": "s", "ooo.stage_s.dispatch": "s", "ooo.stage_s.issue": "s",
    "ooo.stage_s.writeback": "s", "ooo.stage_s.commit": "s",
    "experiments.plan_s": "s", "experiments.reduce_s": "s", "report.render_s": "s",
    "trace.coverage": "frac", "trace.overhead": "frac",
}

# The per-layer metrics of the JSON result, BENCHMARK.json's `per_layer`:
# those of the layers both workloads use. Each plans the suite, runs its
# cells with their oracle emulations (block-compiled), simulates detailed
# windows from checkpoints that the layer replay encodes, decodes, stores
# and loads, uses the cell cache, reduces and renders.
REPORTED = {
    "runner.cell_s.p50", "runner.cell_s.max", "runner.pool_idle_s", "runner.oracle_emulations",
    "oracle.s", "oracle.insts", "oracle.ns_per_inst", "isa.compile_s",
    "sampling.windows", "sampling.window_s", "sampling.window_committed", "sampling.window_cycles",
    "cache.ckpt_encode_s", "cache.ckpt_decode_s", "cache.ckpt_bytes", "cache.ckpt_store_s",
    "cache.ckpt_load_s", "cache.cell_store_s", "cache.cell_load_s", "cache.cell_hits",
    "cache.cell_misses", "cache.cell_hit_run_s",
    "ooo.ns_per_committed", "ooo.ns_per_cycle", "ooo.cycles", "ooo.committed",
    "ooo.skipped_cycle_frac", "ooo.stage_s.fetch", "ooo.stage_s.dispatch", "ooo.stage_s.issue",
    "ooo.stage_s.writeback", "ooo.stage_s.commit",
    "experiments.plan_s", "experiments.reduce_s", "report.render_s",
    "trace.coverage", "trace.overhead",
}
# Which per-layer metrics apply to which workload: `--trace 1` prints these,
# and each must read nonzero. Those outside REPORTED read 0 on the other
# workload, so they are printed but left out of the JSON result.
APPLIES = {
    # Fast-forwards to, captures and misses every checkpoint.
    "suite-full-cold": REPORTED | {
        "isa.ff_silent_ns_per_inst", "isa.ff_observed_ns_per_inst", "sampling.ff_insts",
        "sampling.ckpt_capture_s", "cache.ckpt_misses",
    },
    # Finds every checkpoint in the seeded store.
    "suite-full-ckpt-warm": REPORTED | {"cache.ckpt_hits"},
}


def print_e2e(name, summary, tally):
    for metric, s in summary.items():
        tail = f"p{s['tail_pct']} {s['tail']:.4f}" if s["tail"] is not None else "no tail percentile (n<20)"
        print(f"{name:22} {metric:12} median {s['median']:.4f} {E2E_UNITS[metric]:3} {tail}  n={s['n']}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{name:22} {'failed_frac':12} {frac:.4f} frac ({tally.failed}/{tally.attempted})")


def save_result(tag, doc):
    path = WORK / "results" / f"{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def cmd_workload(args):
    rng = random.Random(args.seed)
    tally = Tally()
    facts = host_facts()
    w = Workload(args.workload)
    samples = {}
    if args.trace:
        metrics = traced_run(w, args.seconds, rng, tally)
        for k in metrics:
            print(f"{args.workload:22} {k:28} {metrics[k]:.6g} {PER_LAYER[k]}")
        out = {k: metric_json(metrics[k], PER_LAYER[k]) for k in PER_LAYER if k in metrics and k in REPORTED}
    else:
        _, res = measure([args.workload], args.seconds, rng, {args.workload: tally})
        r = res[args.workload]
        counters = counters_run(w, tally)
        check_counters(w, "untraced", counters, tally)
        summary = e2e_metrics(r["runs"], r["setups"])
        print_e2e(args.workload, summary, tally)
        print("counters " + json.dumps(counters, sort_keys=True))
        out = {k: metric_json(s["median"], E2E_UNITS[k]) for k, s in summary.items()}
        samples = {
            "wall_s": [c.wall_s for c in r["runs"]],
            "cpu_s": [c.cpu_s for c in r["runs"]],
            "peak_rss_mb": [c.peak_rss_mb for c in r["runs"]],
            "setup_s": r["setups"],
        }
    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print("host " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and bool(out),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if out else max(tally.failed, 1),
        "metrics": out,
    }
    save_result(f"{args.workload}-seed{args.seed}-trace{int(args.trace)}", dict(result, host=facts, samples=samples))
    print(json.dumps(result))
    return 0


def cmd_all(args):
    """Every workload, interleaved round by round in seed order; prints the
    five end-to-end metrics of each."""
    rng = random.Random(args.seed)
    facts = host_facts()
    tallies = {n: Tally() for n in WORKLOADS}
    loads, res = measure(list(WORKLOADS), args.seconds, rng, tallies)
    for n, t in tallies.items():
        check_counters(loads[n], "untraced", counters_run(loads[n], t), t)
        print_e2e(n, e2e_metrics(res[n]["runs"], res[n]["setups"]), t)
        for note in t.notes:
            print(f"FAILED: {note}", file=sys.stderr)
    print("host " + json.dumps(facts, sort_keys=True))
    return 0 if all(t.failed == 0 for t in tallies.values()) else 1


def cmd_write_expected(_args):
    """Regenerates the expected outputs with the current build: the suite
    reports (the cold dmdc-global suite, and the yla-8 suite from a cold
    cache, which must equal the yla-8 suite over a warm checkpoint store),
    then every workload's work counters, untraced and traced, which must
    agree with each other."""
    d = WORK / "run" / "expected"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    cold = run_child([str(DMDC)] + COLD_SUITE, d, "expected-cold")
    yla_cold = run_child([str(DMDC)] + WARM_SUITE + ["--no-cache"], d, "expected-yla-cold")
    yla_warm = run_child([str(DMDC)] + WARM_SUITE, d, "expected-yla-warm")
    if cold.code or yla_cold.code or yla_warm.code:
        raise BenchError("a suite run failed")
    if yla_cold.stdout != yla_warm.stdout:
        raise BenchError("checkpoint-warm yla-8 report differs from the cold one")
    (BENCH_DIR / "expected").mkdir(exist_ok=True)
    WORKLOADS["suite-full-cold"]["expected"].write_bytes(cold.stdout)
    WORKLOADS["suite-full-ckpt-warm"]["expected"].write_bytes(yla_cold.stdout)
    print("wrote expected/suite-full-cold.txt and expected/suite-full-ckpt-warm.txt")
    for name in WORKLOADS:
        w = Workload(name)
        tally = Tally()
        untraced = counters_run(w, tally)
        _, ok = w.setup()
        _, doc = trace_once(w, ["--profile", "--layers"], f"{name}-expected")
        if not ok or doc is None or tally.failed:
            raise BenchError(f"{name}: a counting run failed")
        problems = layer_checks(w, doc, untraced)
        if not output_matches(doc["report"].encode(), w.expected):
            problems.append("traced report differs from the expected report")
        if problems:
            raise BenchError(f"{name}: {problems}")
        expected = {
            "untraced": work_counters(untraced),
            "traced": work_counters(doc["counters"], TRACED_WORK_COUNTERS),
        }
        w.counters_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote expected/{w.counters_path.name}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, interleaved")
    ap.add_argument("--write-expected", action="store_true", help="regenerate the expected reports and work counters")
    args = ap.parse_args(argv)
    # A terminated benchmark still stops and reaps its current child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if args.write_expected:
            return cmd_write_expected(args)
        if args.all:
            return cmd_all(args)
        if not args.workload:
            ap.error("--workload, --all or --write-expected is required")
        return cmd_workload(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
