"""Tests of the benchmark's own code: the output checker and the metrics.

Run from the repository root:

    python3 -m pytest perfbench/tests      (or: python3 -m unittest discover perfbench/tests)

fixtures/ holds real `qrelay` outputs; cases.json lists the flags that made
each one, so they can be regenerated with `python -m qrelay.cli`.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")


def _read(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def _cases():
    return {c["name"]: c for c in json.loads(_read("cases.json"))}


def _run(case, stdout=None, output=None):
    stdout = _read(case["name"] + ".stdout") if stdout is None else stdout
    if output is None and case["output"]:
        output = _read(case["output"])
    return check.check(case["check"], case["expect"], stdout, output)


def _perturb_number(text, pattern, factor):
    """Scale the first number captured by ``pattern`` in ``text``."""
    m = re.search(pattern, text)
    value = float(m.group(1))
    return text[:m.start(1)] + repr(value * factor) + text[m.end(1):]


class AcceptsRealOutputs(unittest.TestCase):
    def test_every_fixture_passes(self):
        for name, case in _cases().items():
            with self.subTest(name):
                res = _run(case)
                self.assertEqual(res.failures, [])
                self.assertLess(res.max_dev, check.TOL)

    def test_every_check_kind_is_covered(self):
        kinds = {c["check"] for c in _cases().values()}
        for make in workloads.WORKLOADS.values():
            for launch in make(random.Random(0)):
                self.assertIn(launch.check, kinds)


class RejectsTamperedOutputs(unittest.TestCase):
    def assertRejected(self, res, fragment):
        self.assertFalse(res.ok)
        self.assertTrue(any(fragment in f for f in res.failures),
                        res.failures)

    def test_perturbed_csv_value(self):
        case = _cases()["throughput_sweep"]
        lines = _read("throughput_sweep.csv").splitlines(keepends=True)
        row = lines[4].split(",")
        row[5] = repr(float(row[5]) * (1 + 1e-7))      # s_exact_n4
        lines[4] = ",".join(row)
        self.assertRejected(_run(case, output="".join(lines)),
                            "row 2 (alpha_x=")

    def test_perturbed_json_report_value(self):
        case = _cases()["snr_sweep"]
        rep = json.loads(_read("snr_sweep.json"))
        rep["rows"][2][6] = "%.17e" % (float(rep["rows"][2][6]) * 1.001)
        self.assertRejected(_run(case, output=json.dumps(rep)), "row 2")

    def test_perturbed_cutoff(self):
        case = _cases()["throughput_sweep"]
        text = _perturb_number(_read("throughput_sweep.csv"),
                               r'"4": (\d+\.\d+)', 1.0001)
        self.assertRejected(_run(case, output=text), "cutoff_alpha_x[4]")

    def test_perturbed_key_fraction(self):
        case = _cases()["throughput_sweep"]
        lines = _read("throughput_sweep.csv").splitlines(keepends=True)
        row = lines[3].split(",")
        row[3] = repr(float(row[3]) + 1e-6)             # t_n_n0
        lines[3] = ",".join(row)
        self.assertRejected(_run(case, output="".join(lines)), "t_n")

    def test_optimize_numeric_noise_above_analytic(self):
        case = _cases()["optimize_1"]
        rep = json.loads(_read("optimize_1.json"))
        rep["noise_numeric"] = rep["noise_analytic"] * 1.01
        self.assertRejected(_run(case, output=json.dumps(rep)),
                            "exceeds analytic")

    def test_optimize_moved_analytic_position(self):
        case = _cases()["optimize_64"]
        rep = json.loads(_read("optimize_64.json"))
        rep["analytic_positions_km"][10] += 1e-3
        self.assertRejected(_run(case, output=json.dumps(rep)),
                            "analytic_positions_km[10]")

    def test_sample_exact_value(self):
        case = _cases()["sample_4"]
        rep = json.loads(_read("sample_4.json"))
        rep["exact"]["p_n"] *= 1 + 1e-6
        self.assertRejected(_run(case, output=json.dumps(rep)), "exact p_n")

    def test_sample_estimate_far_from_exact(self):
        case = _cases()["sample_4"]
        rep = json.loads(_read("sample_4.json"))
        s = rep["sampled"]
        shift = int(8 * math.sqrt(s["signal_count"]))
        s["signal_count"] += shift
        s["state_counts"]["signal"] += shift
        s["state_counts"]["no_gate"] -= shift
        s["p_s"] = s["signal_count"] / rep["config"]["trials"]
        self.assertRejected(_run(case, output=json.dumps(rep)),
                            "sampled p_s: z =")

    def test_sample_small_count_tail(self):
        case = _cases()["sample_1"]
        rep = json.loads(_read("sample_1.json"))
        trials = rep["config"]["trials"]
        for events, ok in ((0, True), (4, True), (25, False)):
            rep["sampled"]["noise_events"] = events
            rep["sampled"]["p_n"] = events / trials
            res = _run(case, output=json.dumps(rep))
            self.assertEqual(res.ok, ok, (events, res.failures))

    def test_flipped_ok(self):
        case = _cases()["verify_input"]
        rep = json.loads(_read("verify_input.json"))
        rep["ok"] = False
        self.assertRejected(_run(case, output=json.dumps(rep)), "ok = False")

    def test_flipped_device_check(self):
        case = _cases()["verify_input"]
        rep = json.loads(_read("verify_input.json"))
        rep["checks"][3]["ok"] = False
        self.assertRejected(_run(case, output=json.dumps(rep)),
                            "6/7 device checks passed")

    def test_failed_summary_line(self):
        case = _cases()["verify_input"]
        text = _read("verify_input.stdout").replace(
            "PASS verify-circuit (7/7", "FAIL verify-circuit (6/7")
        self.assertRejected(_run(case, stdout=text), "expected PASS 7/7")

    def test_unreadable_output(self):
        case = _cases()["optimize_1"]
        self.assertRejected(_run(case, output="not json"), "unreadable")


class Reference(unittest.TestCase):
    def test_closed_form_matches_slot_propagation(self):
        """Two-product form against a direct four-event propagation."""
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(0, 12)
            x, eta = rng.uniform(0, 400), rng.uniform(0.1, 1.0)
            pd = 10 ** rng.uniform(-9, -2.5)
            pos = sorted(rng.uniform(0, x) for _ in range(n))
            sig, rnd, emp = 1.0, 0.0, 0.0
            pts = [0.0, *pos, x]
            for k, (a, b) in enumerate(zip(pts, pts[1:])):
                t = math.exp(-0.05 * (b - a))
                emp += (1 - t) * (sig + rnd)
                sig, rnd = t * sig, t * rnd
                if k < n:      # a relay: gate, false gate, or veto
                    sig, rnd = eta * sig, eta * rnd + 2 * pd * (sig + rnd + emp)
                    emp = 0.0
            alive = sig + rnd + emp
            p_s, p_n, _ = check.closed_form(x, n, eta, pd, positions=pos)
            self.assertAlmostEqual(p_s / sig, 1.0, delta=1e-12)
            self.assertAlmostEqual(p_n / (rnd + 2 * pd * alive), 1.0,
                                   delta=1e-12)

    def test_placement_pattern(self):
        delta = math.log(2) / 0.05
        pos = check.placement(100.0, 1)
        self.assertAlmostEqual(pos[0], (100.0 - delta) / 2, places=12)
        self.assertEqual(check.placement(10.0, 3), [0.0, 0.0, 0.0])


class Metrics(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics(self):
        with open(os.path.join(os.path.dirname(BENCH),
                               "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(layers.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(layers.PER_LAYER))
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         workloads.WHY)
        self.assertEqual(set(workloads.WHY), set(workloads.WORKLOADS))

    def test_span_metrics_self_time_and_ancestry(self):
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0, 0],
            ["throughput.cutoff_alpha_x", 1.0, 4.0, 0, 0, 0],
            ["chain.run_chain", 1.5, 2.0, 1, 3, 0],
            ["analytics.optimal_positions", 1.6, 1.7, 2, 0, 0],
            ["chain.run_chain", 5.0, 6.0, 0, 2, 0],
            ["reports.render", 7.0, 8.0, 0, 4, 1000],
        ]
        m = layers.span_metrics([{"launch": 1, "spans": spans}])
        self.assertAlmostEqual(m["cli.main.self_s"], 10.0 - 3.0 - 1.0 - 1.0)
        self.assertAlmostEqual(m["chain.run_chain.self_s"], 0.4 + 1.0)
        self.assertAlmostEqual(m["throughput.cutoff_alpha_x.self_s"], 2.5)
        self.assertEqual(m["chain.run_chain.calls"], 2)
        self.assertEqual(m["chain.relay_steps"], 5)
        self.assertEqual(m["throughput.bisection_evals"], 1)
        self.assertEqual((m["reports.rows"], m["reports.bytes_out"]),
                         (4, 1000))
        self.assertEqual(m["fockspace.apply_transform.calls"], 0)
        per_layer = {name for name, _ in layers.PER_LAYER}
        self.assertLessEqual(set(m), per_layer)

    def test_import_stages(self):
        def line(self_us, depth, name):
            return f"import time: {self_us:>9} | {0:>10} | {'  ' * depth}{name}"
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            line(100, 0, "encodings"),
            line(50, 5, "re"),
            line(400, 4, "numpy"),
            line(200, 3, "scipy"),
            line(30, 3, "numpy.testing"),
            line(300, 2, "scipy.optimize"),
            line(70, 2, "argparse"),
            line(10, 1, "qrelay"),
            line(5, 0, "qrelay.cli"),
        ])
        got = layers.import_stages(text)
        self.assertAlmostEqual(got["import.numpy_s"], 450e-6)
        self.assertAlmostEqual(got["import.scipy_s"], 530e-6)
        self.assertAlmostEqual(got["import.qrelay_s"], 85e-6)


if __name__ == "__main__":
    unittest.main()
