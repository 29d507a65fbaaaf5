#!/usr/bin/env python3
"""Unit tests for the sweep driver (scripts/sweep.py).

Covers the pure aggregation layer against the committed fixture cells in
scripts/fixtures/sweep/ — real per-cell bench_sweep output, so the tests
break if the C++ entry naming and the Python grid model drift apart —
plus synthetic inputs for the failure paths (duplicate entries, missing
cells, schema mismatches). The process-spawning `run` subcommand is
exercised end-to-end by CI's sweep-smoke job, not here.

With `--bench PATH` (bench_sweep's binary), it also checks that a sweep
whose JSON report cannot be written exits nonzero; without it those
cases are skipped.

Stdlib only; runs under ctest as `sweep_selftest`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sweep  # noqa: E402

FIXTURES = HERE / "fixtures" / "sweep"
CELLS = ["restricted:uniform:0", "greedy-random:transpose:1"]
CELL_FILES = [
    FIXTURES / "cell_restricted_uniform_p0.json",
    FIXTURES / "cell_greedy-random_transpose_p1.json",
]


class GridModelTest(unittest.TestCase):
    def test_full_grid_is_16_cells(self):
        grid = sweep.full_grid()
        self.assertEqual(len(grid), 16)
        self.assertEqual(len(set(grid)), 16)
        self.assertIn("restricted:uniform:0", grid)
        self.assertIn("greedy-random:bit-reversal:1", grid)

    def test_cell_key_matches_bench_naming(self):
        self.assertEqual(sweep.cell_key("restricted:uniform:0"),
                         "restricted_uniform_p0")
        self.assertEqual(sweep.cell_key("greedy-random:bit-reversal:1"),
                         "greedy-random_bitrev_p1")

    def test_expected_entries_per_cell(self):
        names = sweep.expected_entries(["restricted:hotspot:1"])
        self.assertEqual(len(names), 11)  # 1 saturation + 10 load points
        self.assertIn("restricted_hotspot_p1_saturation", names)
        self.assertIn("restricted_hotspot_p1_load010", names)
        self.assertIn("restricted_hotspot_p1_load100", names)


class MergeTest(unittest.TestCase):
    def test_merge_fixture_cells(self):
        merged, problems = sweep.merge(CELL_FILES)
        self.assertEqual(problems, [])
        self.assertEqual(merged["schema"], sweep.SCHEMA)
        self.assertEqual(set(merged["entries"]),
                         sweep.expected_entries(CELLS))

    def test_merge_rejects_duplicates(self):
        merged, problems = sweep.merge([CELL_FILES[0], CELL_FILES[0]])
        self.assertEqual(len(problems), 11)  # every entry collides
        self.assertTrue(all("duplicate entry" in p for p in problems))
        # First occurrence wins; nothing is silently overwritten.
        self.assertEqual(len(merged["entries"]), 11)

    def test_load_rejects_wrong_schema(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = pathlib.Path(tmp) / "bad.json"
            bad.write_text(json.dumps({"schema": "other", "entries": {}}))
            with self.assertRaises(SystemExit):
                sweep.load(bad)

    def test_write_round_trips(self):
        merged, _ = sweep.merge(CELL_FILES)
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "merged.json"
            sweep.write_json(merged, out)
            self.assertEqual(sweep.load(out)["entries"], merged["entries"])


class CoverageTest(unittest.TestCase):
    def test_fixture_cells_cover_themselves(self):
        merged, _ = sweep.merge(CELL_FILES)
        self.assertEqual(sweep.check_coverage(merged, CELLS), [])

    def test_missing_cell_is_detected(self):
        merged, _ = sweep.merge([CELL_FILES[0]])
        problems = sweep.check_coverage(merged, CELLS)
        self.assertEqual(len(problems), 1)
        self.assertIn("greedy-random_transpose_p1_saturation", problems[0])

    def test_missing_load_point_is_detected(self):
        merged, _ = sweep.merge([CELL_FILES[0]])
        del merged["entries"]["restricted_uniform_p0_load050"]
        problems = sweep.check_coverage(merged, [CELLS[0]])
        self.assertEqual(len(problems), 1)
        self.assertIn("load050", problems[0])

    def test_dead_cell_needs_no_curve(self):
        data = {
            "schema": sweep.SCHEMA,
            "entries": {
                "restricted_uniform_p0_saturation": {
                    "saturation_rate": 0.0,
                    "converged": 0,
                }
            },
        }
        self.assertEqual(sweep.check_coverage(data, [CELLS[0]]), [])


class ExtractTest(unittest.TestCase):
    def test_extracts_saturation_points_from_fixtures(self):
        merged, _ = sweep.merge(CELL_FILES)
        points = sweep.extract_points(merged)
        self.assertEqual([p["cell"] for p in points],
                         ["greedy-random_transpose_p1",
                          "restricted_uniform_p0"])
        for p in points:
            self.assertGreater(p["saturation_rate"], 0.0)
            self.assertGreater(p["throughput"], 0.0)
            self.assertEqual(p["converged"], 1)
            # The probed point delivers in the same ballpark it admits.
            self.assertLess(abs(p["throughput"] - p["saturation_rate"]),
                            0.5 * p["saturation_rate"])

    def test_extract_cli_writes_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            merged, _ = sweep.merge(CELL_FILES)
            artifact = pathlib.Path(tmp) / "a.json"
            sweep.write_json(merged, artifact)
            csv_path = pathlib.Path(tmp) / "points.csv"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = sweep.main(
                    ["extract", str(artifact), "--csv", str(csv_path)]
                )
            self.assertEqual(rc, 0)
            lines = csv_path.read_text().strip().splitlines()
            self.assertEqual(
                lines[0],
                "cell,saturation_rate,throughput,mean_latency,converged",
            )
            self.assertEqual(len(lines), 3)  # header + 2 cells

    def test_check_cli_on_subset(self):
        with tempfile.TemporaryDirectory() as tmp:
            merged, _ = sweep.merge(CELL_FILES)
            artifact = pathlib.Path(tmp) / "a.json"
            sweep.write_json(merged, artifact)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = sweep.main(
                    ["check", str(artifact), "--cells", ",".join(CELLS)]
                )
            self.assertEqual(rc, 0)
            # The same artifact does NOT cover the full 16-cell grid.
            stderr = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = sweep.main(["check", str(artifact)])
            self.assertEqual(rc, 1)


BENCH = None  # bench_sweep binary, from --bench


class JsonWriteFailureTest(unittest.TestCase):
    """A report that does not reach its file fails the sweep."""

    def setUp(self):
        if BENCH is None:
            self.skipTest("needs --bench PATH to bench_sweep")

    def run_cell(self, out):
        return subprocess.run(
            [BENCH, "--cell", CELLS[0], "--out", str(out)],
            capture_output=True, text=True, timeout=120)

    def test_missing_directory_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = self.run_cell(pathlib.Path(tmp) / "missing" / "a.json")
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("cannot open", proc.stderr)

    def test_full_device_exits_nonzero(self):
        full = pathlib.Path("/dev/full")
        if not (full.exists() and stat.S_ISCHR(os.stat(full).st_mode)):
            self.skipTest("/dev/full is not a character device here")
        proc = self.run_cell(full)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("failed writing", proc.stderr)


if __name__ == "__main__":
    if "--bench" in sys.argv:
        at = sys.argv.index("--bench")
        BENCH = sys.argv[at + 1]
        del sys.argv[at:at + 2]
    unittest.main(verbosity=2)
