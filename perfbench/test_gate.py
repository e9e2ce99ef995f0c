#!/usr/bin/env python3
"""Tests of the benchmark's own checks. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: they exercise the output gate, the work-counter check,
the profile parser and the per-layer metric selection on files and text
alone.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


class OutputGate(unittest.TestCase):
    def expected_files(self):
        files = [w["expected"] for w in bench.WORKLOADS.values()]
        return [f for f in files if f.is_file()]

    def test_identical_report_passes(self):
        for path in self.expected_files():
            self.assertTrue(bench.output_matches(path.read_bytes(), path), path)

    def test_one_changed_byte_fails(self):
        files = self.expected_files()
        self.assertGreaterEqual(len(files), 2, "expected reports are missing")
        for path in files:
            good = path.read_bytes()
            for at in (0, len(good) // 2, len(good) - 1):
                bad = bytearray(good)
                bad[at] ^= 0x01
                self.assertFalse(bench.output_matches(bytes(bad), path), f"{path} byte {at}")

    def test_truncated_or_extended_report_fails(self):
        for path in self.expected_files():
            good = path.read_bytes()
            self.assertFalse(bench.output_matches(good[:-1], path))
            self.assertFalse(bench.output_matches(good + b"\n", path))

    def test_a_failed_check_counts_as_failed(self):
        tally = bench.Tally()
        with tempfile.TemporaryDirectory() as d:
            expected = Path(d) / "expected.txt"
            expected.write_bytes(b"ipc 2.33\n")
            tally.add(bench.output_matches(b"ipc 2.33\n", expected), "same")
            tally.add(bench.output_matches(b"ipc 2.34\n", expected), "one byte off")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.notes, ["one byte off"])


class Counters(unittest.TestCase):
    STDERR = (
        "[profile] 336 runs: 425900 cycles simulated, 409218 executed, 16682 skipped (3.9%) in 12886 fast-forwards\n"
        "[profile] sampling: 14 cells, 118279454 insts fast-forwarded, 504000 committed in detailed windows "
        "(210287 cycles); host time 845.46 ms fast-forward, 921.92 ms detailed windows\n"
        "[profile] sampling: fast-forward ran 29639534 compiled blocks + 910 single-step fallbacks; "
        "block compile 0.05 ms; 0 in-memory checkpoint restores\n"
        "[profile] cell cache: 0 hits, 14 misses, 14 stored, 0 corrupt, 0 quarantined (target/dmdc-cache)\n"
        "[profile] checkpoint store: 0 hits, 336 misses, 336 stored, 0 corrupt, 0 quarantined (x)\n"
    )

    def test_profile_counters_parse_without_timings(self):
        c = bench.parse_profile(self.STDERR)
        self.assertEqual(c["ff_insts"], 118279454)
        self.assertEqual(c["simulated_cycles"], 425900)
        self.assertEqual((c["ckpt_hits"], c["ckpt_misses"]), (0, 336))
        self.assertEqual(c["ckpt_shared"], 0)
        self.assertNotIn("ff_nanos", c)

    def test_drift_is_reported_by_name(self):
        ref = bench.parse_profile(self.STDERR)
        self.assertEqual(bench.counter_drift(ref, dict(ref)), [])
        moved = dict(ref, ff_insts=ref["ff_insts"] + 1)
        self.assertEqual(bench.counter_drift(ref, moved), ["ff_insts"])
        missing = {k: v for k, v in ref.items() if k != "window_cycles"}
        self.assertEqual(bench.counter_drift(ref, missing), ["window_cycles"])

    def test_expected_counters_are_committed_for_every_workload(self):
        for name in bench.WORKLOADS:
            w = bench.Workload(name)
            untraced, traced = w.expected_counters("untraced"), w.expected_counters("traced")
            self.assertTrue(untraced and set(untraced) <= set(bench.WORK_COUNTERS), name)
            self.assertTrue(set(traced) <= set(bench.TRACED_WORK_COUNTERS), name)
            self.assertIn("layers_oracle_insts", traced, name)

    def check(self, counters):
        tally = bench.Tally()
        bench.check_counters(bench.Workload("suite-full-cold"), "untraced", counters, tally)
        return tally.failed

    def test_simulation_work_must_match_the_expected_counters(self):
        ref = bench.parse_profile(self.STDERR)
        self.assertEqual(self.check(ref), 0)
        self.assertEqual(self.check(dict(ref, ff_insts=ref["ff_insts"] - 1)), 1)
        self.assertEqual(self.check(dict(ref, ckpt_hits=1)), 1)

    def test_host_side_counters_may_move(self):
        ref = bench.parse_profile(self.STDERR)
        moved = dict(ref, skipped_cycles=0, executed_cycles=ref["simulated_cycles"],
                     ff_blocks=1, ff_fallback_steps=0, ckpt_shared=5)
        self.assertEqual(self.check(moved), 0)


class LayerMetrics(unittest.TestCase):
    def test_only_the_layers_a_workload_uses_are_printed(self):
        every = {k: 1.0 for k in bench.PER_LAYER}
        cold, _ = bench.applicable_metrics("suite-full-cold", every)
        warm, _ = bench.applicable_metrics("suite-full-ckpt-warm", every)
        self.assertIn("sampling.ff_insts", cold)
        self.assertNotIn("sampling.ff_insts", warm)
        self.assertIn("cache.ckpt_hits", warm)
        self.assertNotIn("cache.ckpt_hits", cold)
        self.assertEqual(set(cold) | set(warm), set(bench.PER_LAYER))
        self.assertEqual(set(cold) & set(warm), bench.REPORTED)

    def test_the_result_holds_the_manifest_per_layer_metrics(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        manifest = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(manifest, {k: bench.PER_LAYER[k] for k in bench.REPORTED})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(bench.WORKLOADS))

    def test_a_used_layer_reading_zero_is_flagged(self):
        metrics = dict({k: 1.0 for k in bench.PER_LAYER}, **{"oracle.s": 0.0, "cache.ckpt_hits": 0.0})
        _, zero = bench.applicable_metrics("suite-full-cold", metrics)
        self.assertEqual(zero, ["oracle.s"])


class Summary(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        s = bench.quantile_summary([float(i) for i in range(40)])
        self.assertEqual((s["n"], s["tail_pct"]), (40, 75))
        self.assertEqual(bench.quantile_summary([1.0] * 12)["tail"], None)


if __name__ == "__main__":
    unittest.main()
