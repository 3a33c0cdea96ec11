import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrelay
from qrelay import cli
from qrelay.reports import (CurveReport, read_csv, read_json, render_csv,
                            render_json, render_payload, write_csv,
                            write_json, write_payload)


def small_report():
    return CurveReport(
        columns=("x", "y"),
        rows=((0.0, 1.0), (0.5, math.inf), (1.0, math.nan)),
        metadata={"artifact": "demo", "note": "fixture"})


def test_curve_report_validation():
    rep = small_report()
    assert rep.column("y")[0] == 1.0
    assert math.isnan(rep.column("y")[2])
    with pytest.raises(ValueError):
        rep.column("z")
    with pytest.raises(ValueError):
        CurveReport(columns=("x", "y"), rows=((1.0,),), metadata={})


def test_csv_round_trip(tmp_path):
    rep = small_report()
    path = tmp_path / "curve.csv"
    write_csv(rep, path)
    text = path.read_text()
    assert text.startswith("# {")
    assert text == render_csv(rep)
    back = read_csv(path)
    assert back.columns == rep.columns
    assert back.metadata == rep.metadata
    assert back.rows[0] == rep.rows[0]
    assert math.isinf(back.rows[1][1])
    assert math.isnan(back.rows[2][1])
    # serialization is reproducible byte for byte
    second = tmp_path / "curve2.csv"
    write_csv(back, second)
    assert second.read_text() == text


def test_json_round_trip(tmp_path):
    rep = small_report()
    path = tmp_path / "curve.json"
    write_json(rep, path)
    back = read_json(path)
    assert back.columns == rep.columns
    assert back.metadata == rep.metadata
    assert back.rows[0][1] == 1.0
    assert path.read_text() == render_json(rep)
    payload = json.loads(path.read_text())
    assert payload["columns"] == ["x", "y"]


def test_full_precision_survives():
    vals = (1.388794386496402, 2.322114366426e-06, 5.0e4)
    rep = CurveReport(columns=("a", "b", "c"), rows=(vals,), metadata={})
    parsed = [float(t) for t in
              render_csv(rep).splitlines()[2].split(",")]
    assert tuple(parsed) == vals


@pytest.mark.parametrize("render", [render_csv, render_json])
def test_non_finite_metadata_does_not_render(render):
    rep = CurveReport(columns=("x",), rows=((1.0,),),
                      metadata={"cutoff": math.nan})
    with pytest.raises(ValueError):
        render(rep)


def run_cli(args):
    return cli.main(list(args))


def test_cli_snr_single_point(tmp_path, capsys):
    out = tmp_path / "snr.csv"
    code = run_cli(["snr", "--n-relays", "0", "--alpha-x", "0",
                    "--output", str(out)])
    assert code == 0
    rep = read_csv(out)
    row = dict(zip(rep.columns, rep.rows[0]))
    assert row["alpha_x"] == 0.0
    assert row["s_analytic_n0"] == pytest.approx(5e4)
    assert row["s_exact_n0"] == pytest.approx(5e4, rel=1e-4)
    assert rep.metadata["artifact"].startswith("qrelay")
    assert rep.metadata["command"] == "snr"


def test_cli_snr_multi_relay_columns(tmp_path):
    out = tmp_path / "snr.csv"
    code = run_cli(["snr", "--n-relays", "0,2", "--alpha-x-min", "1",
                    "--alpha-x-max", "5", "--steps", "3",
                    "--output", str(out)])
    assert code == 0
    rep = read_csv(out)
    assert "s_exact_n2" in rep.columns
    assert "q_b_n2" in rep.columns
    assert "rel_dev_n0" in rep.columns
    assert len(rep.rows) == 3
    assert rep.column("alpha_x") == [1.0, 3.0, 5.0]


def test_cli_same_invocation_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["snr", "--n-relays", "1", "--alpha-x-min", "0",
            "--alpha-x-max", "10", "--steps", "5"]
    assert run_cli(argv + ["--output", str(a)]) == 0
    assert run_cli(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_circuit(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify-circuit", "--trials", "3", "--seed", "7",
                    "--output", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS success_probability" in text
    assert "PASS corrected_fidelity" in text
    assert "PASS feed_forward_table" in text
    assert "FAIL" not in text
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["vacuum_rejected"]["ok"] is True
    assert len(by_name) == 7


def test_cli_verify_circuit_diagnostic_and_input(capsys):
    # the last two would overflow and underflow a norm taken from squares
    for qubit in ("0.6,0.8", "1e200,1e200", "1e-200,1e-200"):
        code = run_cli(["verify-circuit", "--trials", "2", "--seed", "3",
                        f"--input={qubit}", "--diagnostic", "d2-on-mode-1"])
        text = capsys.readouterr().out
        assert code == 0, qubit
        assert "DIAG" in text
        assert "success probability 0.500000000000" in text
        assert "PASS verify-circuit (7/7 checks)" in text


def test_cli_optimize(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = run_cli(["optimize", "--distance-km", "100", "--n-relays", "1",
                    "--output", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "43.0685" in text
    payload = json.loads(out.read_text())
    assert payload["analytic_positions_km"][0] == pytest.approx(
        43.06852819440055, abs=1e-6)
    assert payload["numeric_positions_km"][0] == pytest.approx(
        43.06852819440055, abs=1e-3)


def test_cli_sample_reproducible(tmp_path, capsys):
    argv = ["sample", "--alpha-x", "2", "--n-relays", "1",
            "--trials", "20000", "--seed", "11"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "p_s" in first and "z" in first


def test_cli_sample_distance_form(capsys):
    code = run_cli(["sample", "--distance-km", "40", "--trials", "5000",
                    "--seed", "4"])
    assert code == 0
    assert "p_n" in capsys.readouterr().out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ends=st.lists(st.floats(0.0, allow_infinity=False), min_size=2,
                    max_size=2, unique=True),
       steps=st.integers(2, 300))
@example(ends=[0.0, 5e-324], steps=5)      # the step underflows to 0
@example(ends=[0.0, 1.7e308], steps=7)
def test_grid_is_np_linspace_bit_for_bit(ends, steps):
    # every (lo, hi, steps) the CLI accepts: finite 0 <= lo < hi, steps >= 2
    lo, hi = sorted(ends)
    args = argparse.Namespace(config=None, alpha_x=None, alpha_x_min=lo,
                              alpha_x_max=hi, steps=steps)
    got = cli._grid(cli._Params(args))
    # near the largest double, linspace overflows the point it then sets
    # to hi
    with np.errstate(over="ignore"):
        want = np.linspace(lo, hi, steps)
    assert [v.hex() for v in got] == [float(v).hex() for v in want]


def test_cli_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pd": 1e-4, "steps": 4,
                               "alpha_x_min": 0.0, "alpha_x_max": 6.0}))
    out = tmp_path / "snr.csv"
    code = run_cli(["snr", "--config", str(cfg), "--n-relays", "0",
                    "--steps", "3", "--output", str(out)])
    assert code == 0
    rep = read_csv(out)
    # flag wins over file, file wins over default
    assert len(rep.rows) == 3
    assert rep.metadata["parameters"]["grid"] == [0.0, 6.0, 3]
    assert rep.metadata["parameters"]["pd"] == 1e-4
    assert rep.column("s_analytic_n0")[0] == pytest.approx(5e3)


def test_cli_config_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"no_such_option": 1}))
    assert run_cli(["snr", "--config", str(bad_key)]) == 2
    assert "no_such_option" in capsys.readouterr().err

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{\"pd\": }")
    assert run_cli(["snr", "--config", str(bad_json)]) == 2
    err = capsys.readouterr().err
    assert "line" in err

    missing = tmp_path / "absent.json"
    assert run_cli(["snr", "--config", str(missing)]) == 2
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert run_cli(["sample", "--alpha-x", "2", "--trials", "0",
                    "--seed", "1"]) == 2
    capsys.readouterr()
    assert run_cli(["sample", "--alpha-x", "2", "--trials", "100"]) == 2
    capsys.readouterr()
    assert run_cli(["snr", "--alpha-x-min", "0", "--alpha-x-max", "10",
                    "--steps", "1"]) == 2
    capsys.readouterr()
    assert run_cli(["snr", "--alpha-x-min", "5", "--alpha-x-max", "1"]) == 2
    capsys.readouterr()
    assert run_cli(["optimize", "--n-relays", "1"]) == 2
    capsys.readouterr()
    assert run_cli(["sample", "--alpha-x", "2", "--distance-km", "10",
                    "--trials", "10", "--seed", "1"]) == 2
    capsys.readouterr()


def test_cli_throughput(tmp_path):
    out = tmp_path / "tn.csv"
    code = run_cli(["throughput", "--n-relays", "0,1",
                    "--alpha-x-min", "0", "--alpha-x-max", "12",
                    "--steps", "4", "--output", str(out)])
    assert code == 0
    rep = read_csv(out)
    assert "t_n_n0" in rep.columns and "t_n_scaled_n1" in rep.columns
    assert rep.column("t_n_n0")[0] > 0.99
    cutoffs = rep.metadata["parameters"]["cutoff_alpha_x"]
    assert cutoffs["0"] == pytest.approx(9.4553, abs=1e-3)


def test_cli_throughput_without_dark_counts(tmp_path):
    out = tmp_path / "tn.csv"
    code = run_cli(["throughput", "--pd", "0", "--steps", "5",
                    "--n-relays", "0,1", "--output", str(out)])
    assert code == 0
    rep = read_csv(out)
    assert rep.metadata["parameters"]["cutoff_alpha_x"] == {"0": "inf",
                                                           "1": "inf"}
    for n in (0, 1):
        assert all(v == math.inf for v in rep.column(f"s_exact_n{n}"))
        assert all(v == 1.0 for v in rep.column(f"t_n_n{n}"))


def test_cli_json_format(tmp_path):
    out = tmp_path / "snr.json"
    code = run_cli(["snr", "--n-relays", "0", "--alpha-x", "1",
                    "--format", "json", "--output", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep.column("s_analytic_n0")[0] == pytest.approx(
        5e4 * math.exp(-1.0))


def test_cli_stdout_output(capsys):
    code = run_cli(["snr", "--n-relays", "0", "--alpha-x", "0"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# {")
    assert "alpha_x" in text.splitlines()[1]


@pytest.mark.parametrize("args", [
    ["throughput", "--f-ec", "nan"],
    ["throughput", "--f-ec", "inf"],
    ["snr", "--alpha-x", "inf"],
    ["snr", "--alpha-x", "nan"],
    ["snr", "--alpha-x-max", "inf"],
    ["optimize", "--distance-km", "inf", "--n-relays", "1"],
    ["sample", "--alpha-x", "nan", "--trials", "10", "--seed", "1"],
    ["verify-circuit", "--input", "nan,1"],
], ids=["f-ec-nan", "f-ec-inf", "alpha-x-inf", "alpha-x-nan",
        "alpha-x-max-inf", "distance-inf", "sample-alpha-x-nan",
        "input-nan"])
def test_cli_rejects_non_finite_inputs(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""


def _no_constants(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_command_payloads_are_strict_json(tmp_path, capsys):
    # no dark counts: every snr is infinite, which strict JSON cannot hold
    # as a number, so it is spelled "inf" like the table values
    out = tmp_path / "sample.json"
    assert run_cli(["sample", "--alpha-x", "5", "--n-relays", "2",
                    "--trials", "1000", "--seed", "1", "--pd", "0",
                    "--output", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(), parse_constant=_no_constants)
    assert payload["exact"]["snr"] == "inf"
    assert payload["sampled"]["snr"] == "inf"
    assert payload["exact"]["q_b"] == 0.0
    assert out.read_text().endswith("}\n")


def test_render_payload_strict_and_unchanged_when_finite(tmp_path):
    payload = {"b": [1.5, math.inf, -math.inf], "a": {"x": math.nan, "n": 3,
                                                     "ok": True}}
    back = json.loads(render_payload(payload), parse_constant=_no_constants)
    assert back == {"a": {"n": 3, "ok": True, "x": "nan"},
                    "b": [1.5, "inf", "-inf"]}
    finite = {"z": (0.1, 2), "a": {"k": 1e-300, "s": "text"}}
    want = json.dumps(finite, sort_keys=True, indent=2) + "\n"
    assert render_payload(finite) == want
    write_payload(finite, tmp_path / "p.json")
    assert (tmp_path / "p.json").read_text() == want


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrelay.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import qrelay, qrelay.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"
