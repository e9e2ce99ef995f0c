#!/usr/bin/env python3
"""Repeatability check and baseline writer for the benchmark.

Runs BENCHMARK.json's command on each workload once per seed, then prints,
for every end-to-end metric, the median and quartiles of the per-run values
and their spread ((q3 - q1) / median, as statistics.quantiles(n=4) gives the
quartiles) next to a third of the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME] [--out FILE]

`--out` writes the per-run results and summaries as JSON (the baseline in
perfbench/baseline.json was written this way). Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            runs.append({"seed": seed, "result": result, "host": host})
            print(f"{name} seed {seed}: " + json.dumps(result and {k: v["value"] for k, v in result["metrics"].items()}), flush=True)
        summary = {}
        good = [r["result"] for r in runs if r["result"]]
        for metric in (good[0]["metrics"] if good else {}):
            xs = [r["metrics"][metric]["value"] for r in good]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            mark = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"{name:22} {metric:12} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} spread {spread:.4f}"
                  + (f" (bound/3 {bound / 3:.4f})" if bound else "") + mark)
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
