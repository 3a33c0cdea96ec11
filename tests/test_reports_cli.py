import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrelay
from qrelay import cli
from qrelay.analytics import ChainConfig, optimal_positions
from qrelay.chain import run_chain
from qrelay.reports import render_csv, render_json, render_payload
from qrelay.throughput import F_EC

from oracles import (Table, clamped_rel_dev_allowance, column,
                     decimal_first_order_snr, decimal_log_noise,
                     decimal_rel_dev_reference, decimal_snr_reference,
                     read_report)


def small_report():
    return Table(columns=("x", "y"),
                 rows=((0.0, 1.0), (0.5, math.inf), (1.0, math.nan)),
                 metadata={"artifact": "demo", "note": "fixture"})


@pytest.mark.parametrize("render", [render_csv, render_json])
def test_renderers_check_each_row_with_its_template(render):
    # a row's '%' template refuses a ragged row and a cell that is not a
    # number; a list row renders as the same tuple row does
    for rows in (((1.0,),), ((1.0, 2.0, 3.0),), ((1.0, "inf"),),
                 ((1.0, None),)):
        with pytest.raises(TypeError):
            render(Table(("x", "y"), rows, {}))
    as_tuples = render(Table(("x", "y"), ((1, 2.5), (math.inf, -0.0)), {}))
    assert render(Table(("x", "y"), [[1, 2.5], [math.inf, -0.0]], {})) \
        == as_tuples


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
    back = read_report(path)
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
    back = read_report(path)
    assert back.columns == rep.columns
    assert back.metadata == rep.metadata
    assert back.rows[0][1] == 1.0
    assert path.read_text() == render_json(rep)
    payload = json.loads(path.read_text())
    assert payload["columns"] == ["x", "y"]


def test_full_precision_survives():
    vals = (1.388794386496402, 2.322114366426e-06, 5.0e4)
    rep = Table(columns=("a", "b", "c"), rows=(vals,), metadata={})
    parsed = [float(t) for t in
              render_csv(rep).splitlines()[2].split(",")]
    assert tuple(parsed) == vals


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_metadata_is_spelled_as_payloads_spell_it(value):
    # table metadata follows render_payload's one rule: "nan", "inf" and
    # "-inf", never the NaN/Infinity tokens, at any depth
    metadata = {"cutoff": value, "grid": [0.0, value, 3],
                "cutoffs": {"0": value}}
    spelled = json.loads(render_payload(metadata))
    assert spelled["cutoff"] == "%.17e" % value
    rep = Table(columns=("x",), rows=((1.0,),), metadata=metadata)
    text = render_json(rep)
    assert json.loads(text)["metadata"] == spelled
    head = render_payload({"metadata": metadata, "columns": ["x"],
                           "rows": []})
    assert text.startswith(head[:-len("[]\n}\n")])
    meta_line = render_csv(rep).splitlines()[0]
    assert meta_line == "# " + json.dumps(spelled, sort_keys=True)
    for text in (text, meta_line):
        assert "NaN" not in text and "Infinity" not in text


def run_cli(args):
    return cli.main(list(args))


def test_cli_snr_single_point(tmp_path, capsys):
    out = tmp_path / "snr.csv"
    code = run_cli(["snr", "--n-relays", "0", "--alpha-x", "0",
                    "--output", str(out)])
    assert code == 0
    rep = read_report(out)
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
    rep = read_report(out)
    assert "s_exact_n2" in rep.columns
    assert "q_b_n2" in rep.columns
    assert "rel_dev_n0" in rep.columns
    assert len(rep.rows) == 3
    assert column(rep, "alpha_x") == [1.0, 3.0, 5.0]


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
    # the report records the flags that fix its random probes
    assert (payload["trials"], payload["seed"]) == (3, 7)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["vacuum_rejected"]["ok"] is True
    assert len(by_name) == 7


def test_cli_verify_circuit_diagnostic_and_input(capsys):
    # the next two would overflow and underflow a norm taken from squares;
    # the last has a finite amplitude whose modulus overflows a double
    for qubit in ("0.6,0.8", "1e200,1e200", "1e-200,1e-200",
                  "1.7e308+1.7e308j,0"):
        code = run_cli(["verify-circuit", "--trials", "2", "--seed", "3",
                        f"--input={qubit}", "--diagnostic", "d2-on-mode-1"])
        text = capsys.readouterr().out
        assert code == 0, qubit
        assert "DIAG" in text
        assert "success probability 0.5\n" in text
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


def test_cli_invariant_violation_exits_1(monkeypatch, capsys):
    # a device that breaks its contract is an invariant failure (exit 1),
    # not a configuration error, and writes no report
    from qrelay import circuit
    from qrelay.errors import ContractViolationError

    def broken():
        raise ContractViolationError("outcome (F,S) is fixed by neither "
                                     "sign choice")

    monkeypatch.setattr(circuit, "device_operators", broken)
    assert run_cli(["verify-circuit", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invariant violation: outcome (F,S) is fixed by "
                            "neither sign choice\n")


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


@pytest.mark.parametrize("argv", [
    ["verify-circuit", "--trials", "3", "--diagnostic", "d2-on-mode-1"],
    ["snr", "--steps", "3"],
    ["optimize", "--distance-km", "100", "--n-relays", "2"],
    ["throughput", "--steps", "3"],
    ["sample", "--alpha-x", "5", "--trials", "1000", "--seed", "1"]],
    ids=lambda argv: argv[0])
def test_an_unwritable_output_prints_nothing(argv, tmp_path, capsys):
    # the report is written before the first stdout line: optimize, sample
    # and verify-circuit once printed their whole payload and then exited 2
    missing = tmp_path / "missing" / "report.json"
    assert run_cli(argv + ["--output", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: [Errno 2]")
    assert not missing.parent.exists()


def test_optimize_warns_first_and_says_wrote_last(tmp_path, monkeypatch,
                                                  capsys):
    # a search that misses the closed form: the WARNING heads stdout and
    # "wrote PATH" ends it, both only once the report is on disk
    from qrelay import chain

    monkeypatch.setattr(chain, "search_positions",
                        lambda config: (1.0,) * config.n_relays)
    argv = ["optimize", "--distance-km", "100", "--n-relays", "2"]
    assert run_cli(argv + ["--output", str(tmp_path / "no" / "r.json")]) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "r.json"
    assert run_cli(argv + ["--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "WARNING: placements disagree beyond 0.0001 km"
    assert lines[-1] == f"wrote {out}"
    assert json.loads(out.read_text())["agree_within_tolerance"] is False


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
    assert (f"log_noise_analytic: {logs[0]:.12g}\n"
            f"log_noise_numeric: {logs[1]:.12g}\n") in text
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
    z = text.splitlines()[-1]
    assert z.startswith("z: {p_s = ") and z.endswith(", p_n = n/a}")
    assert "nan" not in text.lower()


def test_cli_sample_distance_form(capsys):
    code = run_cli(["sample", "--distance-km", "40", "--trials", "5000",
                    "--seed", "4"])
    assert code == 0
    assert "p_n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, want", [
    (["snr", "--steps", "3"], 1),
    (["throughput", "--steps", "3"], 1),
    (["optimize", "--distance-km", "300", "--n-relays", "3"], 1),
    (["sample", "--distance-km", "40", "--trials", "100", "--seed", "4"], 1),
    # the zero-length chain and the one at_alpha_x gives
    (["sample", "--alpha-x", "2", "--trials", "100", "--seed", "4"], 2),
], ids=["snr", "throughput", "optimize", "sample-distance",
        "sample-alpha-x"])
def test_each_launch_builds_its_chain_once(argv, want, monkeypatch, capsys):
    # a command builds one ChainConfig per chain, whatever its relay counts,
    # and no function rebuilds the config it is given
    built = []
    new = ChainConfig.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ChainConfig, "__new__", counted)
    assert run_cli(argv) == 0
    assert len(built) == want, built


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
    rep = read_report(out)
    # flag wins over file, file wins over default
    assert len(rep.rows) == 3
    assert rep.metadata["parameters"]["grid"] == [0.0, 6.0, 3]
    assert rep.metadata["parameters"]["pd"] == 1e-4
    assert column(rep, "s_analytic_n0")[0] == pytest.approx(5e3)


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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p_dark=st.floats(0.0, sys.float_info.min, exclude_min=True,
                        exclude_max=True))
@example(p_dark=5e-324)
@example(p_dark=1e-318)
def test_cli_refuses_a_subnormal_pd(tmp_path_factory, p_dark):
    # p_dark is 0 or a normal double, from --pd and from the config key
    # "pd" alike: every command that takes it exits 2 with nothing on
    # stdout and a stderr that names p_dark
    cfg = tmp_path_factory.mktemp("pd") / "pd.json"
    cfg.write_text(json.dumps({"pd": p_dark}))
    want = (f"configuration error: nonzero p_dark must be a number in "
            f"[{sys.float_info.min!r}, 0.5), got {p_dark!r}\n")
    for argv in (["snr", "--n-relays", "0,1", "--steps", "3"],
                 ["throughput", "--n-relays", "0,1", "--steps", "3"],
                 ["optimize", "--distance-km", "100", "--n-relays", "2"],
                 ["sample", "--alpha-x", "5", "--trials", "10", "--seed",
                  "1"]):
        for source in (["--pd", repr(p_dark)], ["--config", str(cfg)]):
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                assert cli.main(argv + source) == 2, argv + source
            assert (out.getvalue(), err.getvalue()) == ("", want), source


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
    assert "pd = 1e-05, alpha_x = 2, trials = 1000" in capsys.readouterr().out


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


def test_cli_defaults_are_the_library_defaults():
    # the parser is built without loading analytics or throughput, so the
    # channel's, sample's relay count and f_ec's defaults are written again
    # in cli: this fails when one side is edited alone
    chain = {name: param.default for name, param
             in inspect.signature(ChainConfig).parameters.items()}
    assert cli._CHANNEL["pd"] == chain["p_dark"]
    assert cli._CHANNEL["eta"] == chain["eta"]
    assert cli._CHANNEL["atten_per_km"] == chain["atten_per_km"]
    assert cli._COMMANDS["sample"][2]["n_relays"] == chain["n_relays"] == 0
    assert cli._COMMANDS["throughput"][2]["f_ec"] == F_EC


def _spelled(value) -> str:
    """A report value as stdout should print it: a real at %.12g."""
    real = isinstance(value, float) or value in ("inf", "-inf", "nan")
    return "%.12g" % float(value) if real else str(value)


def _leaves(block: dict):
    for key, value in block.items():
        yield from (_leaves(value) if isinstance(value, dict)
                    else [(key, _spelled(value))])


@pytest.mark.parametrize("argv", [
    ["sample", "--alpha-x", "5", "--n-relays", "4", "--trials", "20000000",
     "--seed", "5"],
    ["optimize", "--distance-km", "2000", "--n-relays", "64"],
    # alpha x = 1e308; no dark counts, so ln p_n = -inf and the z line
    # reads n/a for p_n; a chain of 811 relays
    ["sample", "--distance-km", "1e307", "--atten-per-km", "10",
     "--n-relays", "0", "--pd", "0.2", "--trials", "10", "--seed", "1"],
    ["sample", "--pd", "0", "--alpha-x", "5", "--n-relays", "4", "--trials",
     "20000000", "--seed", "5"],
    ["optimize", "--distance-km", "0", "--n-relays", "811", "--eta",
     "4.9162761621739796e-256", "--pd", "0.02441167864678435"],
])
def test_cli_sample_and_optimize_print_their_payload(argv, tmp_path, capsys):
    # stdout prints the report's payload, a line per key and every real at
    # %.12g of the report's value; sample adds its z-scores, which the
    # report does not hold. The byte corpus holds each command's bytes
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--output", str(out)]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines.pop() == f"wrote {out}"
    printed = dict(line.split(": ", 1) for line in lines)
    payload = json.loads(out.read_text())
    assert set(printed) - set(payload) == ({"z"} if argv[0] == "sample"
                                           else set())
    for key, value in payload.items():
        if isinstance(value, dict):
            pairs = re.findall(r"(\w+) = ([^,{}]+)", printed[key])
            assert dict(pairs) == dict(_leaves(value)), key
            assert len(pairs) == len(list(_leaves(value))), key
        elif isinstance(value, list):
            assert printed[key] == " ".join(map(_spelled, value)), key
        else:
            assert printed[key] == _spelled(value), key


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
    rep = read_report(out)
    assert "t_n_n0" in rep.columns and "t_n_scaled_n1" in rep.columns
    assert column(rep, "t_n_n0")[0] > 0.99
    cutoffs = rep.metadata["parameters"]["cutoff_alpha_x"]
    assert cutoffs["0"] == pytest.approx(9.4553, abs=1e-3)


def test_cli_throughput_without_dark_counts(tmp_path):
    out = tmp_path / "tn.csv"
    code = run_cli(["throughput", "--pd", "0", "--steps", "5",
                    "--n-relays", "0,1", "--output", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep.metadata["parameters"]["cutoff_alpha_x"] == {"0": "inf",
                                                           "1": "inf"}
    for n in (0, 1):
        assert all(v == math.inf for v in column(rep, f"s_exact_n{n}"))
        assert all(v == 1.0 for v in column(rep, f"t_n_n{n}"))
    # past alpha_x ~ 745 e^(-alpha_x) underflows, yet the closed form keeps
    # s = inf and q_b = 0 there
    code = run_cli(["throughput", "--pd", "0", "--alpha-x-max", "1600",
                    "--steps", "5", "--n-relays", "0,1", "--output", str(out)])
    assert code == 0
    rep = read_report(out)
    for n in (0, 1):
        assert all(v == math.inf for v in column(rep, f"s_exact_n{n}"))
        assert all(v == 0.0 for v in column(rep, f"q_b_n{n}"))
        assert all(v == 1.0 for v in column(rep, f"t_n_n{n}"))


def test_cli_json_format(tmp_path):
    out = tmp_path / "snr.json"
    code = run_cli(["snr", "--n-relays", "0", "--alpha-x", "1",
                    "--format", "json", "--output", str(out)])
    assert code == 0
    rep = read_report(out)
    assert column(rep, "s_analytic_n0")[0] == pytest.approx(
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
    # each factor finite, their product alpha x = inf
    ["optimize", "--distance-km", "1e308", "--atten-per-km", "10",
     "--n-relays", "1"],
], ids=["f-ec-nan", "f-ec-inf", "alpha-x-inf", "alpha-x-nan",
        "alpha-x-max-inf", "distance-inf", "sample-alpha-x-nan",
        "input-nan", "alpha-x-overflow"])
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
    # make sure some signal is sampled (mean 1,684), or the run would be
    # refused
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


def test_import_loads_no_layer():
    # nor numpy or scipy, which no layer imports either
    out = _fresh_python(
        "import qrelay, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('qrelay.'))); "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    assert out.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("argv, absent", [
    (["verify-circuit", "--trials", "3", "--input=0.6,0.8j",
      "--diagnostic", "d2-on-mode-1"], {"analytics", "chain", "throughput"}),
    (["snr", "--steps", "20", "--format", "json"],
     {"chain", "circuit", "fockspace"}),
    (["throughput", "--steps", "20"], {"chain", "circuit", "fockspace"}),
    (["sample", "--alpha-x", "5", "--n-relays", "4", "--trials", "100000",
      "--seed", "7"], {"throughput", "circuit", "fockspace"}),
    (["optimize", "--distance-km", "300", "--n-relays", "3"],
     {"throughput", "circuit", "fockspace"}),
], ids=["verify-circuit", "snr", "throughput", "sample", "optimize"])
def test_each_command_loads_only_its_layers(argv, absent, tmp_path):
    # a process imports the layers its command uses and no other: each one
    # skipped is import and compile time a user does not wait for. Every
    # layer is pure Python, so no command loads numpy or scipy either
    code = """if True:
        import sys
        import qrelay.cli
        assert qrelay.cli.main(sys.argv[2:] + ["--output", sys.argv[1]]) == 0
        print(sorted(m.split(".")[1] for m in sys.modules
                     if m.startswith("qrelay.")))
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
    """
    out = _fresh_python(code, str(tmp_path / "report"), *argv)
    layers, libraries = out.splitlines()[-2:]
    loaded = set(eval(layers))
    assert loaded & absent == set(), argv[0]
    assert "cli" in loaded
    assert libraries == "[]", argv[0]


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
    rep = read_report(out)
    for n in (1, 64):
        assert all(math.isfinite(v) for v in column(rep, f"s_analytic_n{n}"))
        # S_1 underflows there; rel_dev is taken from logs and stays finite
        assert all(math.isfinite(v) for v in column(rep, f"rel_dev_n{n}"))
    assert column(rep, "s_analytic_n64")[-1] > 0.0
    # without dark counts both SNRs are inf and do not deviate
    assert run_cli(["snr", "--pd", "0", "--steps", "5", "--format", "json",
                    "--output", str(out)]) == 0
    rep = read_report(out)
    for n in (0, 1, 2, 4, 8, 16):
        assert column(rep, f"rel_dev_n{n}") == [0.0] * 5
    out = tmp_path / "tp.csv"
    assert run_cli(["throughput", "--n-relays", "48,64", "--steps", "3",
                    "--output", str(out)]) == 0
    cutoffs = read_report(out).metadata["parameters"]["cutoff_alpha_x"]
    assert cutoffs["48"] == pytest.approx(233.8, abs=0.1)
    assert cutoffs["64"] == pytest.approx(291.5, abs=0.1)
    capsys.readouterr()


@pytest.mark.parametrize("n, eta, p_dark, alpha_x", [
    (64, 0.6505715085313096, sys.float_info.min, 0.0),
    (1, 0.5, sys.float_info.min, 0.1)], ids=["n64", "n1"])
def test_snr_at_the_least_normal_p_dark(n, eta, p_dark, alpha_x, tmp_path):
    # 1/(2 p_dark) = 2.2e307 is the largest S_1 the domain holds, on the
    # clamped branch. At a subnormal p_dark (now refused) it overflowed:
    # s_analytic read inf and the clamped rel_dev inf/inf = nan, with exit 0
    out = tmp_path / "snr.json"
    assert run_cli(["snr", "--pd", repr(p_dark), "--eta", repr(eta),
                    "--n-relays", str(n), "--alpha-x", repr(alpha_x),
                    "--format", "json", "--output", str(out)]) == 0
    (ax, s_1, s, _q_b, dev), = read_report(out).rows
    want_s_1 = decimal_first_order_snr(ax, n, eta, p_dark)
    with localcontext() as ctx:
        ctx.prec = 60
        want_dev = abs(decimal_snr_reference(ax, n, eta, p_dark) / want_s_1
                       - 1)
    assert s_1 == pytest.approx(float(want_s_1), rel=1e-14)
    assert s == pytest.approx(float(decimal_snr_reference(ax, n, eta, p_dark)),
                              rel=1e-14)
    assert dev == pytest.approx(float(want_dev), rel=1e-12)


# rel_dev, relative to its true value, within REL_DEV_BOUND machine
# epsilons times y = (alpha_x - N ln eta)/(N+1), whose rounding it inherits,
# plus one step of the subnormal grid, the most a value below the normal
# range keeps: 4 times the largest ratio measured over 12,000 random points
# of test_chain_grid's whole domain, 1.8
REL_DEV_BOUND = 8


def assert_rel_dev_close(dev, want, y, where):
    allowed = (Decimal(REL_DEV_BOUND * sys.float_info.epsilon * max(1.0, y))
               * want + Decimal(math.ulp(0.0)))
    assert abs(Decimal(dev) - want) <= allowed, (where, dev, want)


@pytest.mark.parametrize("argv, want", [
    (["--pd", "1e-20", "--n-relays", "4", "--alpha-x", "10"], 5.146038e-19),
    (["--pd", "1e-300", "--eta", "0.99", "--n-relays", "4", "--alpha-x",
      "0.1"], 4.113748e-300)], ids=["pd1e-20", "pd1e-300"])
def test_snr_rel_dev_at_small_u(argv, want, tmp_path):
    # rel_dev was |expm1(ln (N+1) + ln u - ln expm1(K))|, whose logs near
    # -45 and -690 put an absolute floor under it: these wrote 7.1e-15 and
    # 1.1e-13. It is now ln r = -N w/2 + the small parts of
    # ln(expm1(x)/x), each to full relative precision
    out = tmp_path / "snr.json"
    assert run_cli(["snr", *argv, "--format", "json", "--output",
                    str(out)]) == 0
    rep = read_report(out)
    (ax, _, _, _, dev), = rep.rows
    params = rep.metadata["parameters"]
    n, eta, p_dark = params["n_relays"][0], params["eta"], params["pd"]
    assert dev == pytest.approx(want, rel=1e-6)
    assert_rel_dev_close(dev, decimal_rel_dev_reference(ax, n, eta, p_dark),
                         (ax - n * math.log(eta)) / (n + 1), argv)


@pytest.mark.parametrize("p_dark", [sys.float_info.min, 1e-300])
def test_snr_rel_dev_at_the_least_k(p_dark, tmp_path):
    # K = ln(1 + 1/S) >= log1p(2 p_dark) is least at the least normal
    # p_dark. Below it (now refused), K kept few digits on the subnormal
    # grid, and rel_dev read its log: 1.55e-6, 5.3e-4 and 2.7e-3 at
    # alpha_x = 10 and p_dark = 5e-324, and 4.5e-11 at N = 0 and 1e-318,
    # where S = S_1. The grid holds clamped points (alpha_x < ln 2) and
    # interior ones, and rel_dev is held relative to its true value on
    # both, within the same REL_DEV_BOUND epsilons (clamped, see
    # oracles.clamped_rel_dev_allowance); S is finite, below 1/(2 p_dark)
    out = tmp_path / "snr.json"
    assert run_cli(["snr", "--pd", repr(p_dark), "--n-relays", "0,1,4",
                    "--alpha-x-min", "0", "--alpha-x-max", "10", "--steps",
                    "21", "--format", "json", "--output", str(out)]) == 0
    rep = read_report(out)
    for n in (0, 1, 4):
        for ax, s_1, s, dev in zip(
                column(rep, "alpha_x"), column(rep, f"s_analytic_n{n}"),
                column(rep, f"s_exact_n{n}"), column(rep, f"rel_dev_n{n}")):
            want_s = decimal_snr_reference(ax, n, 0.5, p_dark)
            assert s == pytest.approx(float(want_s), rel=1e-14), (n, ax)
            assert max(s, s_1) <= 0.5 / p_dark, (n, ax)
            if n and ax <= math.log(2.0):
                want_dev, allowed = clamped_rel_dev_allowance(
                    ax, n, 0.5, p_dark, REL_DEV_BOUND)
                assert abs(Decimal(dev) - want_dev) <= allowed, (n, ax)
            else:
                assert_rel_dev_close(
                    dev, decimal_rel_dev_reference(ax, n, 0.5, p_dark),
                    (ax + n * math.log(2.0)) / (n + 1), (n, ax))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ns=st.lists(st.integers(0, 64), min_size=1, max_size=3),
       alpha_x_max=st.floats(1e-3, 1e4), eta=st.floats(0.01, 0.98),
       p_dark=st.one_of(st.just(0.0),
                        st.floats(0.0, 1e-2, allow_subnormal=False)))
@example(ns=[1, 64], alpha_x_max=1e4, eta=0.5, p_dark=1e-5)
@example(ns=[0, 1], alpha_x_max=1600.0, eta=0.5, p_dark=0.0)
# the least normal p_dark, where 1/(2 p_dark) is 2.2e307: at a subnormal
# one (now refused) it overflowed, and the clamped rel_dev was inf/inf
@example(ns=[64], alpha_x_max=1.0, eta=0.6505715085313096,
         p_dark=sys.float_info.min)
@example(ns=[1], alpha_x_max=0.3, eta=0.5, p_dark=sys.float_info.min)
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


_OBJECTIVE = re.compile(r"^log_noise_analytic: (\S+)\n"
                        r"log_noise_numeric: (\S+)$", re.M)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(0, 1000), alpha_x=st.floats(0.0, 1e4),
       eta=st.floats(0.01, 0.98),
       p_dark=st.one_of(st.just(0.0),
                        st.floats(0.0, 1e-2, allow_subnormal=False)))
@example(n=1000, alpha_x=51.6, eta=0.5, p_dark=1e-5)
def test_optimize_and_exact_sample_exit_0_with_no_nan(tmp_path_factory, n,
                                                      alpha_x, eta, p_dark):
    # long chains, far ranges and no dark counts: optimize compares two
    # objective values that are not both 0 (they are ln p_n, -inf without
    # dark counts) and writes no NaN; sample's exact and sampled blocks hold
    # no NaN. A sampled run with no detection, whose ratios would be 0/0,
    # exits 2 and writes no report; its exact statistics still hold no NaN
    out = tmp_path_factory.mktemp("reports") / "report.json"
    channel = ["--eta", repr(eta), "--pd", repr(p_dark)]
    if n:
        text = io.StringIO()
        argv = ["optimize", "--distance-km", repr(alpha_x / 0.05),
                "--n-relays", str(n), *channel, "--output", str(out)]
        with contextlib.redirect_stdout(text):
            assert cli.main(argv) == 0, argv
        objective = _OBJECTIVE.search(text.getvalue())
        assert objective, text.getvalue()
        values = [float(v) for v in objective.groups()]
        assert not any(math.isnan(v) for v in values), argv
        assert values != [0.0, 0.0], argv
        payload = out.read_text()
        assert "nan" not in text.getvalue() + payload, argv
    out = out.with_name("sample.json")
    argv = ["sample", "--alpha-x", repr(alpha_x), "--n-relays", str(n),
            "--trials", "1000000", "--seed", "5", *channel, "--output",
            str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        assert "no sampled slot was detected" in err.getvalue(), argv
        assert not out.exists(), argv
        exact = run_chain(ChainConfig(0.0, 0.05, n, eta, p_dark)
                          .at_alpha_x(alpha_x))._asdict()
        blocks = [exact]
    else:
        assert code == 0, argv
        payload = json.loads(out.read_text())
        blocks = [payload["exact"], payload["sampled"]]
    for block in blocks:
        assert not any(math.isnan(float(v)) for k, v in block.items()
                       if k != "state_counts"), argv


def test_cli_sample_refuses_a_run_with_no_detection(tmp_path, capsys):
    # every one of the 1000 slots is vetoed on this chain, so the sampled
    # snr and q_b would be 0/0
    out = tmp_path / "r.json"
    assert run_cli(["sample", "--alpha-x", "51.6", "--n-relays", "1000",
                    "--trials", "1000", "--seed", "1",
                    "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: no sampled slot was detected (all 1000 slots "
        "were vetoed), so the sampled snr and q_b would be 0/0; raise "
        "--trials\n")
    assert captured.out == ""
    assert not out.exists()


def test_cli_sample_reports_ln_p_n_where_p_n_underflows(tmp_path, capsys):
    # at the least normal p_dark, p_n = p_s expm1(K) = 1.1e-18 * 1.3e-301
    # is subnormal, while K is a normal double; the exact block's log_p_s
    # and log_p_n keep every digit of both, here against the Decimal
    # ln p_s and decimal_log_noise. 9e18 slots see about 10 signal detections
    out = tmp_path / "r.json"
    assert run_cli(["sample", "--alpha-x", "40", "--n-relays", "2", "--pd",
                    repr(sys.float_info.min), "--trials", str(9 * 10**18),
                    "--seed", "1", "--output", str(out)]) == 0
    exact = json.loads(out.read_text())["exact"]
    assert 0.0 < exact["p_n"] < sys.float_info.min < exact["p_s"]
    config = ChainConfig(0.0, 0.05, 2, 0.5,
                         sys.float_info.min).at_alpha_x(40.0)
    log_p_n = decimal_log_noise(config, optimal_positions(config))
    with localcontext() as ctx:
        ctx.prec = 60
        log_p_s = 2 * Decimal(0.5).ln() - Decimal(config.alpha_x)
    assert exact["log_p_s"] == pytest.approx(float(log_p_s), rel=1e-15)
    assert exact["log_p_n"] == pytest.approx(float(log_p_n), rel=1e-14)
    assert (f"log_p_s = {exact['log_p_s']:.12g}, log_p_n = "
            f"{exact['log_p_n']:.12g}}}\n") in capsys.readouterr().out


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
    rep = Table(tuple(columns), tuple(map(tuple, rows)), metadata)
    values = [[_old_value(v) for v in r] for r in rep.rows]
    payload = {"metadata": rep.metadata, "columns": list(rep.columns),
               "rows": values}
    assert render_json(rep) == json.dumps(payload, sort_keys=True,
                                          indent=2) + "\n"
    lines = ["# " + json.dumps(rep.metadata, sort_keys=True),
             ",".join(rep.columns)] + [",".join(v) for v in values]
    assert render_csv(rep) == "\n".join(lines) + "\n"
