import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrelay
from qrelay import cli
from qrelay.reports import (CurveReport, read_csv, read_json, render_csv,
                            render_json, render_payload)

DATA = Path(__file__).parent / "data"


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


def write(text, path):
    """Write a report as every command does, through cli._write."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli._write(text, {"output": str(path)})
    assert out.getvalue() == f"wrote {path}\n"


def test_csv_round_trip(tmp_path):
    rep = small_report()
    path = tmp_path / "curve.csv"
    write(render_csv(rep), path)
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
    write(render_csv(back), second)
    assert second.read_text() == text


def test_json_round_trip(tmp_path):
    rep = small_report()
    path = tmp_path / "curve.json"
    write(render_json(rep), path)
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


@pytest.mark.parametrize("flag, message", [
    ("--diagnostic=foo", "unknown diagnostic 'foo'; known: d2-on-mode-1"),
    ("--input=1,2,3", "--input wants 'alpha,beta', got '1,2,3'"),
    ("--input=x,1", "--input components must be numbers"),
    ("--input=0,0", "qubit amplitudes are both zero"),
    ("--input=nan,1", "qubit amplitudes must be finite"),
    ("--input=1,-infj", "qubit amplitudes must be finite"),
])
def test_cli_verify_circuit_checks_flags_before_the_suite(flag, message,
                                                          monkeypatch,
                                                          capsys):
    # a bad --diagnostic or --input is refused before the suite runs, with
    # the messages and exit code it had after it
    from qrelay import circuit

    def forbidden(*args, **kwargs):
        raise AssertionError("the suite ran before the flags were checked")

    monkeypatch.setattr(circuit, "device_checks", forbidden)
    assert run_cli(["verify-circuit", "--trials", "200000", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")


def test_cli_verify_circuit_refuses_channel_flags(tmp_path, capsys):
    # the device suite reads no channel setting, so it takes no flag for
    # one; a config file's channel keys are ignored, as every unused key is
    for flag in ("--pd", "--eta", "--atten-per-km"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify-circuit", "--trials", "3", flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    cfg = tmp_path / "channel.json"
    cfg.write_text(json.dumps({"pd": 5, "eta": 2, "atten_per_km": -1}))
    assert run_cli(["verify-circuit", "--trials", "3", "--config",
                    str(cfg)]) == 0
    assert "PASS verify-circuit (7/7 checks)" in capsys.readouterr().out


def test_cli_verify_circuit_matches_its_golden(tmp_path, capsys):
    # the golden was written by the device path that built Fock states for
    # every probe; the 2-vector path reproduces its bytes
    out = tmp_path / "verify.json"
    assert run_cli(["verify-circuit", "--trials", "2000", "--seed", "5",
                    "--input=0.6,0.8j", "--output", str(out)]) == 0
    stdout = (DATA / "verify_trials2000_seed5.stdout").read_text()
    assert capsys.readouterr().out == stdout + f"wrote {out}\n"
    assert out.read_bytes() == \
        (DATA / "verify_trials2000_seed5.json").read_bytes()


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
    # rounding dips of the search never displace the exact optimum
    out = tmp_path / "opt3.json"
    assert run_cli(["optimize", "--distance-km", "300", "--n-relays", "3",
                    "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["numeric_positions_km"] == payload["analytic_positions_km"]
    assert payload["noise_numeric"] == payload["noise_analytic"]


def test_cli_optimize_reports_ln_p_n(tmp_path, capsys):
    # p_n underflows to 0 on a long chain; the report carries ln p_n, the
    # values stdout prints, and spells -inf at p_d = 0 as table values are
    out = tmp_path / "opt.json"
    assert run_cli(["optimize", "--distance-km", "1032", "--n-relays", "1000",
                    "--output", str(out)]) == 0
    text = capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["noise_analytic"] == payload["noise_numeric"] == 0.0
    logs = payload["log_noise_analytic"], payload["log_noise_numeric"]
    assert all(-750.0 < v < -745.0 for v in logs)
    assert (f"ln p_n: analytic = {logs[0]:.12f}, numeric = {logs[1]:.12f}"
            in text)
    assert run_cli(["optimize", "--distance-km", "300", "--n-relays", "3",
                    "--pd", "0", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["log_noise_analytic"] == payload["log_noise_numeric"] \
        == "-inf"


def test_cli_sample_reproducible(tmp_path, capsys):
    argv = ["sample", "--alpha-x", "2", "--n-relays", "1",
            "--trials", "20000", "--seed", "11"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "p_s" in first and "z" in first


def test_cli_sample_without_sampled_variance(capsys):
    # no dark counts: every sampled slot has zero noise, so p_n has no
    # standard error and no z-score, and the command says so instead of
    # printing NaN
    code = run_cli(["sample", "--alpha-x", "5", "--trials", "1000",
                    "--seed", "1", "--pd", "0"])
    text = capsys.readouterr().out
    assert code == 0
    assert "z(p_n) = n/a (no sampled variance)" in text
    assert "z(p_s) = " in text and "nan" not in text.lower()


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
    params = {"alpha_x": None, "alpha_x_min": lo, "alpha_x_max": hi,
              "steps": steps}
    got = cli._grid(params)
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

    # chunk_size is not a config key
    chunked = tmp_path / "chunked.json"
    chunked.write_text(json.dumps({"trials": 100, "chunk_size": 10}))
    assert run_cli(["sample", "--alpha-x", "2", "--seed", "1",
                    "--config", str(chunked)]) == 2
    assert "chunk_size" in capsys.readouterr().err
    for trials in (2.5, True):
        cfg = tmp_path / "trials.json"
        cfg.write_text(json.dumps({"trials": trials}))
        assert run_cli(["sample", "--alpha-x", "2", "--seed", "1",
                        "--config", str(cfg)]) == 2
        assert "n_trials" in capsys.readouterr().err
    # integer parameters are never truncated: a float, a bool or other
    # text is a configuration error
    for argv, data, name in (
            (["verify-circuit"], {"trials": 2.5, "seed": 1.7}, "trials"),
            (["verify-circuit"], {"seed": 1.7}, "seed"),
            (["verify-circuit"], {"trials": True}, "trials"),
            (["sample", "--alpha-x", "2", "--trials", "100"], {"seed": 1.7},
             "seed"),
            (["sample", "--alpha-x", "2", "--trials", "100"],
             {"seed": "one"}, "seed"),
            (["snr"], {"n_relays": [2.5], "steps": 2.5}, "n_relays"),
            (["snr", "--n-relays", "2"], {"steps": 2.5}, "steps"),
            (["snr", "--n-relays", "2"], {"steps": "3.0"}, "steps"),
            (["snr"], {"n_relays": [True]}, "n_relays"),
            (["snr"], {"n_relays": 1.0}, "n_relays"),
            (["throughput"], {"n_relays": "1,2.5"}, "n_relays"),
            (["optimize", "--distance-km", "10"], {"n_relays": 2.5},
             "n_relays")):
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps(data))
        assert run_cli(argv + ["--config", str(cfg)]) == 2, (argv, data)
        err = capsys.readouterr().err
        assert "must be an integer" in err and name in err, err
    # integral values still work, as JSON numbers and as text
    cfg = tmp_path / "ints.json"
    cfg.write_text(json.dumps({"n_relays": [0, "2"], "steps": 3}))
    assert run_cli(["snr", "--alpha-x-max", "4", "--config", str(cfg)]) == 0
    assert "s_exact_n2" in capsys.readouterr().out


@pytest.mark.parametrize("argv, data, name", [
    # an int once reached open() as a file descriptor: the table went to
    # stdout, which was then closed
    (["snr", "--n-relays", "0", "--alpha-x", "1"], {"output": 1}, "output"),
    (["optimize", "--distance-km", "100", "--n-relays", "1"],
     {"output": True}, "output"),
    (["verify-circuit", "--trials", "2"], {"input": 1}, "input"),
    (["verify-circuit", "--trials", "2"], {"diagnostic": 1}, "diagnostic"),
    (["snr", "--n-relays", "0"], {"format": ["csv"]}, "format"),
    # a bool once read as a number: eta = 1.0, alpha_x = 0
    (["snr", "--n-relays", "0", "--alpha-x", "1"], {"pd": 0, "eta": True},
     "eta"),
    (["snr", "--n-relays", "0"], {"alpha_x": False}, "alpha_x"),
    (["sample", "--alpha-x", "2", "--trials", "10", "--seed", "1"],
     {"pd": False}, "pd"),
    (["throughput", "--n-relays", "0"], {"f_ec": "1.1x"}, "f_ec"),
    (["optimize", "--n-relays", "1"], {"distance_km": 10**400},
     "distance_km"),
])
def test_cli_config_values_of_the_wrong_type(argv, data, name, tmp_path,
                                            capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(data))
    assert run_cli(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {name} must be")


def test_cli_integer_text_in_a_config(tmp_path, capsys):
    # integral text is an integer setting for every command that takes it;
    # sample once refused the trials verify-circuit accepted
    cfg = tmp_path / "text.json"
    cfg.write_text(json.dumps({"trials": "1000", "seed": "3"}))
    assert run_cli(["sample", "--alpha-x", "2", "--config", str(cfg)]) == 0
    assert "trials = 1000, seed = 3" in capsys.readouterr().out
    assert run_cli(["verify-circuit", "--config", str(cfg)]) == 0
    assert "PASS verify-circuit (7/7 checks)" in capsys.readouterr().out
    # a JSON null is an absent key: the flag or the default applies
    cfg.write_text(json.dumps({"trials": None, "pd": None}))
    assert run_cli(["sample", "--alpha-x", "2", "--trials", "1000",
                    "--seed", "3", "--config", str(cfg)]) == 0
    assert "p_dark = 1e-05, trials = 1000" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_help_shows_every_default(command, monkeypatch, capsys):
    # one option per entry: wide enough that argparse wraps no help line
    monkeypatch.setenv("COLUMNS", "400")
    with pytest.raises(SystemExit):
        run_cli([command, "--help"])
    text = capsys.readouterr().out
    entries = {entry.split()[0]: " ".join(entry.split())
               for entry in re.split(r"\n  (?=--)", text)[1:]}
    _, _, defaults = cli._COMMANDS[command]
    assert set(entries) == {"--config", *(f"--{key.replace('_', '-')}"
                                          for key in defaults)}
    for key, default in defaults.items():
        entry = entries[f"--{key.replace('_', '-')}"]
        if default is cli.REQUIRED:
            assert entry.endswith("(required)"), entry
        elif default is None:
            assert "(default" not in entry and "(required)" not in entry
        else:
            assert entry.endswith(f"(default {default})"), entry
    # spelled out, so that a default and its help cannot drift together
    spelled = {"snr": "--n-relays N_RELAYS relay counts",
               "verify-circuit": "(default 20260815)",
               "sample": "(default 0)", "optimize": "(required)",
               "throughput": "error-correction inefficiency (default 1.16)"}
    assert spelled[command] in " ".join(text.split())


@pytest.mark.parametrize("argv, stem", [
    (["sample", "--alpha-x", "5", "--n-relays", "4", "--trials", "20000000",
      "--seed", "5"], "sample_ax5_n4_trials20000000_seed5"),
    (["optimize", "--distance-km", "2000", "--n-relays", "64"],
     "optimize_2000km_n64"),
])
def test_cli_sample_and_optimize_match_their_goldens(argv, stem, tmp_path,
                                                     capsys):
    # both goldens were written before the settings table replaced the
    # per-flag parsing; sample's blocks now come from dataclasses.asdict
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--output", str(out)]) == 0
    stdout = (DATA / f"{stem}.stdout").read_text()
    assert capsys.readouterr().out == stdout + f"wrote {out}\n"
    if (DATA / f"{stem}.json").exists():
        assert out.read_bytes() == (DATA / f"{stem}.json").read_bytes()


def test_cli_usage_errors(capsys):
    assert run_cli(["sample", "--alpha-x", "2", "--trials", "0",
                    "--seed", "1"]) == 2
    capsys.readouterr()
    assert run_cli(["sample", "--alpha-x", "2", "--trials", "100"]) == 2
    capsys.readouterr()
    assert run_cli(["sample", "--alpha-x", "2", "--trials", str(2**63),
                    "--seed", "1"]) == 2
    assert "n_trials" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--alpha-x", "2", "--trials", "100",
                 "--seed", "1", "--chunk-size", "10"])
    assert exc.value.code == 2
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
    for relays in ("1.5", "two", "1,-2"):
        assert run_cli(["snr", "--n-relays", relays]) == 2
        assert "n_relays" in capsys.readouterr().err
    assert run_cli(["verify-circuit", "--input", "0,0"]) == 2
    assert "zero" in capsys.readouterr().err


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
    # past alpha_x ~ 745 e^(-alpha_x) underflows, yet the closed form keeps
    # s = inf and q_b = 0 there
    code = run_cli(["throughput", "--pd", "0", "--alpha-x-max", "1600",
                    "--steps", "5", "--n-relays", "0,1", "--output", str(out)])
    assert code == 0
    rep = read_csv(out)
    for n in (0, 1):
        assert all(v == math.inf for v in rep.column(f"s_exact_n{n}"))
        assert all(v == 0.0 for v in rep.column(f"q_b_n{n}"))
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
    # as a number, so it is spelled "inf" like the table values; 1e6 slots
    # make sure some signal is sampled (mean 1,684), or the sampled snr
    # would be 0/0
    out = tmp_path / "sample.json"
    assert run_cli(["sample", "--alpha-x", "5", "--n-relays", "2",
                    "--trials", "1000000", "--seed", "1", "--pd", "0",
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
    write(render_payload(finite), tmp_path / "p.json")
    assert (tmp_path / "p.json").read_text() == want


def _fresh_python(code: str, *args: str) -> str:
    """Run code in a new interpreter that imports this package; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrelay.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          check=True).stdout


def test_import_does_not_load_scipy():
    out = _fresh_python(
        "import qrelay, qrelay.cli, sys; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_sweep_commands_do_not_load_numpy(tmp_path):
    # the sweeps are pure Python, so a snr/throughput/optimize process never
    # pays numpy's import
    code = """if True:
        import sys
        import qrelay, qrelay.cli
        loaded = ["import"] if "numpy" in sys.modules else []
        out = sys.argv[1]
        for argv in (["snr", "--steps", "20", "--format", "json"],
                     ["throughput", "--steps", "20"],
                     ["optimize", "--distance-km", "300", "--n-relays", "3"]):
            assert qrelay.cli.main(argv + ["--output", out]) == 0, argv
            if "numpy" in sys.modules:
                loaded.append(argv[0])
        print("loaded numpy:", loaded)
    """
    out = _fresh_python(code, str(tmp_path / "report"))
    assert out.splitlines()[-1] == "loaded numpy: []"


def test_device_layers_do_not_load_numpy(tmp_path):
    # fockspace and circuit are pure Python: importing them, and a whole
    # verify-circuit run, leave numpy unloaded
    code = """if True:
        import sys
        import qrelay.circuit, qrelay.fockspace
        loaded = ["import"] if "numpy" in sys.modules else []
        import qrelay.cli
        argv = ["verify-circuit", "--trials", "3", "--input=0.6,0.8j",
                "--diagnostic", "d2-on-mode-1", "--output", sys.argv[1]]
        assert qrelay.cli.main(argv) == 0
        if "numpy" in sys.modules:
            loaded.append(argv[0])
        print("loaded numpy:", loaded)
    """
    out = _fresh_python(code, str(tmp_path / "verify.json"))
    assert out.splitlines()[-1] == "loaded numpy: []"


def test_sampler_does_not_load_numpy(tmp_path):
    # the Monte Carlo sampler is pure Python too, so with the two tests above
    # no command of the package loads numpy
    code = """if True:
        import sys
        import qrelay.chain
        loaded = ["import"] if "numpy" in sys.modules else []
        import qrelay.cli
        argv = ["sample", "--alpha-x", "5", "--n-relays", "4",
                "--trials", "20000000", "--seed", "7", "--output", sys.argv[1]]
        assert qrelay.cli.main(argv) == 0
        if "numpy" in sys.modules:
            loaded.append(argv[0])
        print("loaded numpy:", loaded)
    """
    out = _fresh_python(code, str(tmp_path / "sample.json"))
    assert out.splitlines()[-1] == "loaded numpy: []"


def test_import_loads_no_layer():
    out = _fresh_python(
        "import qrelay, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('qrelay.')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv, absent", [
    (["verify-circuit", "--trials", "3", "--input=0.6,0.8j",
      "--diagnostic", "d2-on-mode-1"], {"chain", "throughput"}),
    (["snr", "--steps", "20", "--format", "json"],
     {"chain", "circuit", "fockspace"}),
    (["throughput", "--steps", "20"], {"chain", "circuit", "fockspace"}),
    (["sample", "--alpha-x", "5", "--n-relays", "4", "--trials", "1000",
      "--seed", "7"], {"throughput", "circuit", "fockspace"}),
    (["optimize", "--distance-km", "300", "--n-relays", "3"],
     {"throughput", "circuit", "fockspace"}),
], ids=["verify-circuit", "snr", "throughput", "sample", "optimize"])
def test_each_command_loads_only_its_layers(argv, absent, tmp_path):
    # a process imports the layers its command uses and no other: each one
    # skipped is import and compile time a user does not wait for
    code = """if True:
        import sys
        import qrelay.cli
        assert qrelay.cli.main(sys.argv[2:] + ["--output", sys.argv[1]]) == 0
        print(sorted(m.split(".")[1] for m in sys.modules
                     if m.startswith("qrelay.")))
    """
    out = _fresh_python(code, str(tmp_path / "report"), *argv)
    loaded = set(eval(out.splitlines()[-1]))
    assert loaded & absent == set(), argv[0]
    assert "cli" in loaded


def test_cli_verify_circuit_seed_contract(capsys):
    # a seed is a non-negative integer, and fixes the output byte for byte
    for seed in ("-1", "-20260815"):
        assert run_cli(["verify-circuit", "--trials", "2", "--seed",
                        seed]) == 2
        assert "seed" in capsys.readouterr().err
    texts = []
    for _ in range(2):
        assert run_cli(["verify-circuit", "--trials", "50", "--seed", "5",
                        "--input=0.6,0.8j"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_cli_sample_seed_contract(capsys):
    # Random(-1) would repeat the stream of Random(1), so a negative seed is
    # refused, not aliased
    for seed in ("-1", "-20260815"):
        assert run_cli(["sample", "--alpha-x", "2", "--trials", "100",
                        "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err
    texts = []
    for seed in ("1", "1", "2"):
        assert run_cli(["sample", "--alpha-x", "2", "--n-relays", "2",
                        "--trials", "1000000", "--seed", seed]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] != texts[2]


def test_cli_long_chains(tmp_path, capsys):
    # N/(N+1) alpha x past 709 once overflowed the first-order SNR, and a
    # cutoff past alpha x = 200 once failed the throughput metadata
    out = tmp_path / "snr.json"
    assert run_cli(["snr", "--n-relays", "1,64", "--steps", "3",
                    "--alpha-x-max", "1e4", "--format", "json",
                    "--output", str(out)]) == 0
    rep = read_json(out)
    for n in (1, 64):
        assert all(math.isfinite(v) for v in rep.column(f"s_analytic_n{n}"))
        # S_1 underflows there; rel_dev is taken from logs and stays finite
        assert all(math.isfinite(v) for v in rep.column(f"rel_dev_n{n}"))
    assert rep.column("s_analytic_n64")[-1] > 0.0
    # without dark counts both SNRs are inf and do not deviate
    assert run_cli(["snr", "--pd", "0", "--steps", "5", "--format", "json",
                    "--output", str(out)]) == 0
    rep = read_json(out)
    for n in (0, 1, 2, 4, 8, 16):
        assert rep.column(f"rel_dev_n{n}") == [0.0] * 5
    out = tmp_path / "tp.csv"
    assert run_cli(["throughput", "--n-relays", "48,64", "--steps", "3",
                    "--output", str(out)]) == 0
    cutoffs = read_csv(out).metadata["parameters"]["cutoff_alpha_x"]
    assert cutoffs["48"] == pytest.approx(233.8, abs=0.1)
    assert cutoffs["64"] == pytest.approx(291.5, abs=0.1)
    capsys.readouterr()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ns=st.lists(st.integers(0, 64), min_size=1, max_size=3),
       alpha_x_max=st.floats(1e-3, 1e4), eta=st.floats(0.01, 0.98),
       p_dark=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)))
@example(ns=[1, 64], alpha_x_max=1e4, eta=0.5, p_dark=1e-5)
@example(ns=[0, 1], alpha_x_max=1600.0, eta=0.5, p_dark=0.0)
def test_sweeps_exit_0_with_no_nan(ns, alpha_x_max, eta, p_dark):
    # every column of snr and throughput is finite or a documented inf, on
    # long chains, far grids and without dark counts
    for command in ("snr", "throughput"):
        argv = [command, "--n-relays", ",".join(map(str, ns)), "--steps", "4",
                "--alpha-x-max", repr(alpha_x_max), "--eta", repr(eta),
                "--pd", repr(p_dark), "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        payload = json.loads(out.getvalue())
        assert not any(math.isnan(float(v)) for row in payload["rows"]
                       for v in row), argv
        cutoffs = payload["metadata"]["parameters"].get("cutoff_alpha_x", {})
        assert not any(math.isnan(float(c)) for c in cutoffs.values()), argv


_OBJECTIVE = re.compile(r"^noise objective ln p_n: analytic = (\S+), "
                        r"numeric = (\S+)$", re.M)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(0, 1000), alpha_x=st.floats(0.0, 1e4),
       eta=st.floats(0.01, 0.98),
       p_dark=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)))
@example(n=1000, alpha_x=51.6, eta=0.5, p_dark=1e-5)
def test_optimize_and_exact_sample_exit_0_with_no_nan(tmp_path_factory, n,
                                                      alpha_x, eta, p_dark):
    # long chains, far ranges and no dark counts: optimize compares two
    # objective values that are not both 0 (they are ln p_n, -inf without
    # dark counts) and writes no NaN; sample's exact block holds no NaN.
    # The sampled block can hold the 0/0 of a run in which every slot is
    # vetoed, which is what the sampled counts say, so it is not checked
    out = tmp_path_factory.mktemp("reports") / "report.json"
    channel = ["--eta", repr(eta), "--pd", repr(p_dark), "--output", str(out)]
    if n:
        text = io.StringIO()
        argv = ["optimize", "--distance-km", repr(alpha_x / 0.05),
                "--n-relays", str(n), *channel]
        with contextlib.redirect_stdout(text):
            assert cli.main(argv) == 0, argv
        objective = _OBJECTIVE.search(text.getvalue())
        assert objective, text.getvalue()
        values = [float(v) for v in objective.groups()]
        assert not any(math.isnan(v) for v in values), argv
        assert values != [0.0, 0.0], argv
        payload = out.read_text()
        assert "nan" not in text.getvalue() + payload, argv
    argv = ["sample", "--alpha-x", repr(alpha_x), "--n-relays", str(n),
            "--trials", "1000000", "--seed", "5", *channel]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    exact = json.loads(out.read_text())["exact"]
    assert not any(math.isnan(float(v)) for v in exact.values()), argv


def test_every_public_name_resolves():
    for name in qrelay.__all__:
        assert getattr(qrelay, name) is not None, name
    namespace = {}
    exec("from qrelay import *", namespace)
    assert set(qrelay.__all__) <= set(namespace)
    assert namespace["qnd_measure"] is qrelay.circuit.qnd_measure
    assert namespace["ModeBasis"] is qrelay.fockspace.ModeBasis
    with pytest.raises(AttributeError):
        qrelay.no_such_name


class _ClosedPipe:
    """A stdout whose reader is gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["snr", "--steps", "5"],
    ["optimize", "--distance-km", "300", "--n-relays", "3"],
], ids=["report", "print"])
def test_cli_broken_pipe_is_not_a_config_error(argv, tmp_path, monkeypatch,
                                               capsys):
    # `qrelay snr | head` closes stdout early: exit 128 + SIGPIPE quietly,
    # and leave stdout on devnull so the interpreter's last flush is harmless
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert cli.main(argv) == 141
        os.write(fd, b"after the pipe closed")
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def _old_value(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return "%.17e" % v


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            2.2250738585072009e-308, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=st.integers(1, 40).flatmap(lambda ncols: st.tuples(
           st.lists(st.text(max_size=4), min_size=ncols, max_size=ncols),
           st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)),
                             min_size=ncols, max_size=ncols), max_size=6))),
       metadata=st.dictionaries(st.text(max_size=4), st.one_of(
           st.integers(), st.floats(allow_nan=False, allow_infinity=False),
           st.text(max_size=4), st.lists(st.integers(), max_size=3)),
           max_size=3))
@example(table=(["x"], []), metadata={})
@example(table=(["x", "y"], [_SPECIAL[:2], _SPECIAL[2:4], _SPECIAL[4:6]]),
         metadata={"artifact": "demo"})
def test_row_writers_match_the_per_value_encoding(table, metadata):
    # each writer formats a row with one template; the bytes must be those
    # of formatting every value alone and encoding with json/join
    columns, rows = table
    rep = CurveReport(tuple(columns), tuple(map(tuple, rows)), metadata)
    values = [[_old_value(v) for v in r] for r in rep.rows]
    payload = {"metadata": rep.metadata, "columns": list(rep.columns),
               "rows": values}
    assert render_json(rep) == json.dumps(payload, sort_keys=True,
                                          indent=2) + "\n"
    lines = ["# " + json.dumps(rep.metadata, sort_keys=True),
             ",".join(rep.columns)] + [",".join(v) for v in values]
    assert render_csv(rep) == "\n".join(lines) + "\n"
