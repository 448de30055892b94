"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They touch nothing under src/: wrong results are planted in the harness's
own comparisons.
"""
import json
import os
import re
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import child  # noqa: E402
import cli_session  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import wittburnside as wb  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    MAP = json.load(_fh)


def _tmpdir():
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_tmp"))


def _wrong(vec):
    """The same vector with its first component moved by one."""
    comps = list(vec.components)
    comps[0] = comps[0] + 1
    return vec.with_components(comps)


class Inputs(unittest.TestCase):
    def test_seed_decides_the_mix_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.digest(workloads.generate(name, 7))
            self.assertEqual(a, workloads.digest(workloads.generate(name, 7)))
            self.assertNotEqual(a, workloads.digest(workloads.generate(name, 8)))

    def test_seed_decides_the_cli_inputs(self):
        tmp = _tmpdir()
        try:
            a = cli_session.write_inputs(7, os.path.join(tmp, "a"))
            self.assertEqual(a, cli_session.write_inputs(7, os.path.join(tmp, "b")))
            self.assertNotEqual(a, cli_session.write_inputs(8, os.path.join(tmp, "c")))
        finally:
            shutil.rmtree(tmp)

    def test_labels_match_the_library(self):
        for name, labels in workloads.LABELS.items():
            base, _, label = name.partition(".")
            G = wb.build_group(base)
            if label:
                G = wb.subgroup_group(G, wb.subgroup_classes(G).index_of_label(label))
            self.assertEqual(tuple(wb.subgroup_classes(G).labels()), labels, name)


class Metrics(unittest.TestCase):
    def test_names(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))

    def test_every_layer_metric_names_what_it_should_move(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        loads = {w["name"] for w in BENCH["workloads"]}
        for m in BENCH["per_layer"]:
            name = m["name"]
            layer = name if name in MAP["moves"] else name.rsplit(".", 1)[0]
            self.assertIn(layer, MAP["moves"], name)
            self.assertTrue(MAP["moves"][layer], name)
            for entry in MAP["moves"][layer]:
                self.assertIn(entry["metric"], e2e, name)
                self.assertIn(entry["workload"], loads, name)

    def test_layer_metrics_are_the_ones_the_trace_reports(self):
        spans_data = {"names": [spans.ROOT_LAYER], "layers": [spans.ROOT_LAYER], "fid": [0],
                      "start": [0.0], "end": [1.0], "parent": [-1], "hits": {},
                      "first_s": {}, "terms": 0}
        out, wall, total = spans.layer_metrics(spans_data)
        cli_only = {"cli.spawn_ms", "cli.import_ms", "cli.hit_ms_p50", "cli.nocache_ms_p50",
                    "cli.miss_ms_p50", "cli.cache_hits", "cli.cache_misses",
                    "cli.cache_bytes_written", "trace.wall_s", "trace.overhead_frac"}
        self.assertEqual(set(out) | cli_only, {m["name"] for m in BENCH["per_layer"]})
        self.assertEqual((wall, total), (1.0, 1.0))


class Spans(unittest.TestCase):
    def test_self_times_add_up(self):
        data = {"names": ["bench", "wg_op", "derive_universal"],
                "layers": ["bench", "burnside.witt_op", "burnside.derive"],
                "fid": [0, 1, 2, 1], "start": [0.0, 1.0, 1.5, 5.0],
                "end": [10.0, 3.0, 2.0, 6.0], "parent": [-1, 0, 1, 0],
                "hits": {}, "first_s": {}, "terms": 0}
        out, wall, total = spans.layer_metrics(data)
        self.assertEqual(out["burnside.witt_op.calls"], 2)
        self.assertAlmostEqual(out["burnside.witt_op.self_s"], 2.5)
        self.assertAlmostEqual(out["bench.self_s"], 7.0)
        self.assertAlmostEqual(total, wall)

    def test_a_span_outside_its_parent_is_refused(self):
        data = {"names": ["bench", "wg_op"], "layers": ["bench", "burnside.witt_op"],
                "fid": [0, 1], "start": [0.0, 9.0], "end": [10.0, 11.0], "parent": [-1, 0],
                "hits": {}, "first_s": {}, "terms": 0}
        with self.assertRaises(ValueError):
            spans.aggregate(data)


class Calibration(unittest.TestCase):
    def test_norm_scales_by_the_loop_and_skips_marks(self):
        cal = calib.Calibrator()
        # marks at 0-1, 5-6 and 9-10 s; the loop ran at NOMINAL_S, then 2x slower
        cal.starts, cal.ends = [0.0, 5.0, 9.0], [1.0, 6.0, 10.0]
        cal.loops = [calib.NOMINAL_S, calib.NOMINAL_S, 3 * calib.NOMINAL_S]
        self.assertAlmostEqual(cal.norm(1.0, 5.0), 4.0)
        self.assertAlmostEqual(cal.norm(6.0, 9.0), 1.5)
        self.assertAlmostEqual(cal.norm(2.0, 8.0), 3.0 + 1.0)


class Checker(unittest.TestCase):
    """A wrong result planted in the harness's comparison must be counted."""

    SPECS = [
        ("witt.prod", "S3", "Z", None, None, None),
        ("necklace.sum", "C6", "Z/8", None, None, None),
        ("ghost.aperiodic", "C6", "Q", None, None, None),
        ("teichmuller", "S3", "Q", None, None, None),
        ("res_nr", "S3", "Q", None, None, 1),
        ("cyc.witt.prod", "1..8", "ZPoly(x,y)", None, None, None),
        ("cyc.frobenius", "div12", "Z", None, 2, None),
        ("q.witt.sum", "div6", "Q[q]", "q", None, None),
        ("q.verschiebung", "div12", "Q", 2, 3, None),
    ]

    def _specs(self):
        draw = workloads.Draw("selftest", 1)
        return [{"key": list(k), "args": [draw.vector(k[2], workloads._size(k))
                                          for _ in range(workloads._arity(k[0]))]}
                for k in self.SPECS]

    def test_true_results_pass_and_planted_ones_fail(self):
        session = workloads.Session(wb)
        for spec in self._specs():
            out = session.run(spec)
            self.assertTrue(session.check(spec, out), spec["key"])
            self.assertFalse(session.check(spec, _wrong(out)), spec["key"])

    def test_planted_result_counts_in_fail_frac(self):
        session = workloads.Session(wb)
        specs = self._specs()
        data = {"first": specs[:2], "rounds": [specs[2:]]}
        t = child._timed(session, data, 0.0, 2, None)
        failed, _, _ = child._check(session, workloads, data, t)
        self.assertEqual(failed, 0)
        t["results"][(0, 0)] = _wrong(t["results"][(0, 0)])
        failed, _, examples = child._check(session, workloads, data, t)
        self.assertEqual(failed, t["runs"][(0, 0)])
        self.assertEqual(failed, 2)

    def test_planted_cli_output_is_counted(self):
        tmp = _tmpdir()
        try:
            inputs = os.path.join(tmp, "in")
            cli_session.write_inputs(3, inputs)
            argv = ["ghost", os.path.join(inputs, "r0_w_D6_a.json")]
            x = cli_session._Expect(wb)._vector(argv[1])
            doc = {"schema_version": 1, "group": "D6", "flavor": "Ghost", "ring": "Z",
                   "components": [c.format() for c in wb.wg_ghost(x).components],
                   "labels": list(workloads.LABELS["D6"])}
            rec = {"round": 0, "kind": "nocache", "argv": argv, "code": 0, "new_files": 0,
                   "out": os.path.join(tmp, "out.json")}
            with open(rec["out"], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.assertEqual(cli_session.check([rec], wb), {})
            doc["components"][0] = str(int(doc["components"][0]) + 1)
            with open(rec["out"], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.assertEqual(list(cli_session.check([rec], wb)), [0])
            # a cache hit must print the bytes of the miss before it
            miss = dict(rec, kind="miss", new_files=1, out=os.path.join(tmp, "miss.json"))
            with open(miss["out"], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
            same = dict(rec, kind="same")
            self.assertIn(1, cli_session.check([miss, same], wb))
        finally:
            shutil.rmtree(tmp)


class Contract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = {m["name"] for m in BENCH["end_to_end"]}
        self.assertIn("setup_s", names)
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)
        for w in BENCH["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", w["name"]))


if __name__ == "__main__":
    unittest.main()
