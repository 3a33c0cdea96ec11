"""Regenerate tests/data/byte_corpus.json, the byte record of every command.

Each case is one `qrelay` argv, run in-process through cli.main in an empty
working directory, so that a report written with `--output report.json`
names the same relative path on every run. A case may also carry a config
object, which is written there as config.json before the run, for its argv
to name with `--config config.json`. A case records the exit code, stdout,
stderr and the report file's bytes; a text longer than INLINE bytes is
kept as its sha256 and length. test_byte_corpus.py reruns every case and
compares.

Run it from the repository root, only when a change is meant to move
bytes, and list each changed case in CHANGES.md; it prints the id of
every case whose record differs from the committed corpus, with the
fields that differ (`changed: 77-sample (stdout)`; a new case reads
`(new)`, a dropped one `(removed)`):

    PYTHONPATH=src python tests/make_byte_corpus.py

With --check it writes nothing, prints the same ids, and exits 1 if any
case moved; the CI byte-corpus job runs it so on every Python it
supports. pytest never runs the script.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).parent / "data" / "byte_corpus.json"

# texts above this many bytes are stored as a digest
INLINE = 4096

_SWEEP_AX = "60.000000"     # one draw of the sweep workload's grid end

CONFIG = "config.json"      # a case's config file, beside its report


def _cases() -> list[tuple[list[str], object]]:
    """Every case as (argv, config), config None where there is none."""
    cases = [
        # the benchmark workloads' flags (perfbench/workloads.py)
        ["snr", "--n-relays", "0,1,2,4,8,16,32,64", "--steps", "1000",
         "--alpha-x-max", _SWEEP_AX, "--format", "json",
         "--output", "report.json"],
        ["throughput", "--n-relays", "0,1,2,3,4,5,6,7,8", "--steps", "1000",
         "--alpha-x-max", _SWEEP_AX, "--output", "report.csv"],
        ["optimize", "--distance-km", "2000", "--n-relays", "64",
         "--output", "report.json"],
        ["verify-circuit", "--trials", "2000", "--seed", "5",
         "--input=0.6,0.8j", "--output", "report.json"],
        ["sample", "--alpha-x", "5", "--n-relays", "4", "--trials",
         "20000000", "--seed", "5", "--output", "report.json"],
        # the flags of the step kernel's tolerance references (tests/data)
        ["snr", "--n-relays", "0,1,2,4,8,16,32,64", "--steps", "50",
         "--format", "json", "--output", "report.json"],
        ["throughput", "--n-relays", "0,1,2,3,4,5,6,7,8", "--steps", "50",
         "--output", "report.csv"],
        ["optimize", "--distance-km", "300", "--n-relays", "3",
         "--output", "report.json"],
        # defaults, in CSV and in JSON
        ["snr"], ["snr", "--format", "json"],
        ["throughput"], ["throughput", "--format", "json"],
        ["verify-circuit"],
    ]
    # no dark counts and a small normal p_dark, over clamped and interior
    # points; a subnormal p_dark, down to the least double, exits 2
    for pd in ("0", "1e-300", "1e-318", "5e-324"):
        cases += [
            ["snr", "--pd", pd, "--n-relays", "0,1,4,64", "--steps", "21",
             "--alpha-x-max", "10", "--format", "json"],
            ["throughput", "--pd", pd, "--n-relays", "0,1,4", "--steps", "21",
             "--alpha-x-max", "10"],
            ["optimize", "--pd", pd, "--distance-km", "300", "--n-relays",
             "3"],
            ["sample", "--pd", pd, "--alpha-x", "5", "--n-relays", "4",
             "--trials", "20000000", "--seed", "5"],
        ]
    cases += [
        # eta = 1e-300: the clamped branch reaches alpha x = 690.8
        ["snr", "--eta", "1e-300", "--n-relays", "0,1,2", "--steps", "21",
         "--alpha-x-max", "1000", "--format", "json"],
        ["throughput", "--eta", "1e-300", "--n-relays", "0,1,2", "--steps",
         "21", "--alpha-x-max", "1000"],
        ["sample", "--eta", "1e-300", "--alpha-x", "1", "--n-relays", "1",
         "--trials", "1000000", "--seed", "2"],
        # long chains and far grids
        ["snr", "--n-relays", "0,1,64,1000", "--steps", "41",
         "--alpha-x-max", "1e4", "--format", "json"],
        ["throughput", "--n-relays", "0,1,64,1000", "--steps", "41",
         "--alpha-x-max", "1e4"],
        ["optimize", "--distance-km", "1032", "--n-relays", "1000"],
        ["sample", "--alpha-x", "1e4", "--n-relays", "1", "--trials",
         "9000000000000000000", "--seed", "1"],
        # p_dark near 1/2, where p_n exceeds 1
        ["snr", "--pd", "0.495", "--eta", "0.01", "--n-relays", "0,1,4",
         "--steps", "11", "--alpha-x-max", "10"],
        ["throughput", "--pd", "0.495", "--eta", "0.01", "--n-relays",
         "0,1,4", "--steps", "11", "--alpha-x-max", "10"],
        ["sample", "--pd", "0.495", "--eta", "0.01", "--alpha-x", "1",
         "--n-relays", "1", "--trials", "1000000", "--seed", "3"],
        # a sample with no detection is refused
        ["sample", "--alpha-x", "51.6", "--n-relays", "1000", "--trials",
         "1000", "--seed", "1", "--output", "report.json"],
        # small u, where rel_dev is a small number
        ["snr", "--pd", "1e-20", "--n-relays", "4", "--alpha-x", "10"],
        ["snr", "--pd", "1e-300", "--eta", "0.99", "--n-relays", "4",
         "--alpha-x", "0.1"],
        # a configuration error (exit 2) per command
        ["snr", "--eta", "1.5"],
        ["throughput", "--steps", "1"],
        ["optimize", "--distance-km", "100", "--n-relays", "0"],
        ["sample", "--alpha-x", "5"],
        ["verify-circuit", "--trials", "0"],
        # a long clamped chain whose noise exponent sums 812 large terms
        ["optimize", "--distance-km", "0", "--n-relays", "811", "--eta",
         "4.9162761621739796e-256", "--pd", "0.02441167864678435"],
        # a single alpha x outside its domain
        ["snr", "--alpha-x", "-1"],
        ["throughput", "--alpha-x", "nan"],
        # an input qubit outside its domain: not finite, or the zero vector
        ["verify-circuit", "--trials", "1", "--input=nan,1"],
        ["verify-circuit", "--trials", "1", "--input=0,0"],
        ["verify-circuit", "--trials", "1", "--input=inf,0"],
        # ln p_s from the segments, against alpha x: a million slots see
        # no detection, a billion do, and the report keeps every digit
        ["sample", "--distance-km", "300", "--n-relays", "3", "--trials",
         "1000000", "--seed", "4"],
        ["sample", "--distance-km", "300", "--n-relays", "3", "--trials",
         "1000000000", "--seed", "4", "--output", "report.json"],
        # a short chain: every relay clamped to the transmitter
        ["optimize", "--distance-km", "5", "--n-relays", "3"],
        # the clamped rel_dev close to the clamp edge, where S and S_1 agree
        # to ten digits
        ["snr", "--n-relays", "673", "--eta", "0.7595298071364913", "--pd",
         "4.8639012522493653e-20", "--alpha-x", "0.27450416626345975"],
        # the throughput cutoff on each branch of its inverse: clamped
        # (N = 2 at p_dark = 0.02, N = 1 at 0.035), interior, 0, and long
        # chains far past alpha x = 200
        ["throughput", "--pd", "0.02", "--n-relays", "0,1,2,4", "--steps",
         "5", "--alpha-x-max", "3"],
        ["throughput", "--pd", "0.035", "--n-relays", "1,2", "--steps", "5",
         "--alpha-x-max", "1"],
        ["throughput", "--n-relays", "64,1000", "--steps", "5",
         "--alpha-x-max", "2000"],
        # a key-fraction root below e = 1e-12, at f_ec above 2.4e10
        ["throughput", "--f-ec", "3e10", "--pd", "1e-15", "--n-relays",
         "0,1", "--steps", "3", "--alpha-x-max", "10"],
        # integer refusals: a relay count, seeds and trial counts
        ["snr", "--n-relays", "-1"],
        ["sample", "--alpha-x", "5", "--trials", "10", "--seed", "-1"],
        ["verify-circuit", "--trials", "2", "--seed", "-1"],
        ["sample", "--alpha-x", "5", "--trials", "0", "--seed", "1"],
        # an empty relay list, a list where one count is taken, and a
        # negative grid start
        ["snr", "--n-relays", ","],
        ["optimize", "--distance-km", "100", "--n-relays", "1,2"],
        ["snr", "--alpha-x-min", "-1"],
        # real refusals: each end of the relay domain, eta + 2 p_dark > 1,
        # the attenuation, the distance, f_ec, the grid's ends, and an
        # attenuation length alpha x that overflows a double
        ["snr", "--pd", "0.5"],
        ["snr", "--eta", "0.9", "--pd", "0.1"],
        ["snr", "--atten-per-km", "0"],
        ["optimize", "--distance-km", "-1", "--n-relays", "1"],
        ["throughput", "--f-ec", "0.5"],
        ["snr", "--alpha-x-max", "inf"],
        ["snr", "--alpha-x-min", "5", "--alpha-x-max", "5"],
        ["optimize", "--distance-km", "1e308", "--atten-per-km", "10",
         "--n-relays", "1"],
        # ln p_n where the dark counts outweigh the signal, ln 0.16 and
        # ln 0.4, and an alpha x whose distance alpha x/alpha overflows
        ["optimize", "--distance-km", "1e14", "--atten-per-km", "10",
         "--n-relays", "1", "--pd", "0.2"],
        ["sample", "--distance-km", "1e307", "--atten-per-km", "10",
         "--n-relays", "0", "--pd", "0.2", "--trials", "10", "--seed", "1"],
        ["sample", "--alpha-x", "1e308", "--n-relays", "2", "--trials", "10",
         "--seed", "1"],
        # a diagnostic beside a real input qubit
        ["verify-circuit", "--trials", "1", "--input", "0.6,0.8",
         "--diagnostic", "d2-on-mode-1"],
        # sample takes exactly one of --alpha-x and --distance-km
        ["sample", "--alpha-x", "5", "--distance-km", "100", "--trials", "10",
         "--seed", "1"],
        ["sample", "--trials", "10", "--seed", "1"],
        # the parsers' refusals: a real, an integer, a choice and a qubit
        ["snr", "--pd", "abc"],
        ["snr", "--steps", "3.0"],
        ["snr", "--format", "xml"],
        ["verify-circuit", "--input", "1,2,3"],
        ["verify-circuit", "--input", "a,b"],
    ]
    cases = [(argv, None) for argv in cases]
    # a config file: relay-list text, an integer for a real, a value its
    # flag overrides, a null that counts as absent and a key the command
    # does not take; then a bool
    cases += [
        (["snr", "--config", CONFIG, "--steps", "3"],
         {"n_relays": "0,2", "alpha_x_max": 10, "steps": 50, "pd": None,
          "trials": 5}),
        (["snr", "--config", CONFIG], {"pd": True}),
    ]
    # a subnormal eta, where 2 p_dark/eta would overflow, exits 2
    cases += [([cmd, "--eta", "1e-310", "--pd", "0.01", "--n-relays", "1",
                "--alpha-x", "0.5"], None) for cmd in ("snr", "throughput")]
    # a config file that is JSON but not an object
    cases += [(["snr", "--config", CONFIG], [1, 2])]
    # a relay count given twice
    cases += [(["snr", "--n-relays", "0,0", "--alpha-x", "5"], None),
              (["throughput", "--n-relays", "1,1", "--steps", "3",
                "--alpha-x-max", "10"], None)]
    # ln p_n on long chains whose p_n underflows: 101 ln(2e-5) at 1e22 km,
    # and a p_dark of 3.7e-215 at 6.25e15 km
    cases += [(["optimize", "--distance-km", "1e22", "--n-relays", "100",
                "--output", "report.json"], None),
              (["optimize", "--distance-km", "6.25e15", "--n-relays", "64",
                "--pd", "3.7e-215", "--output", "report.json"], None)]
    # launches past the bounds, refused before they allocate: a sweep
    # table of more than cli.MAX_CELLS cells, with 6 relay counts and with
    # 2, and more than cli.MAX_PLACED_RELAYS relays to place
    cases += [(["snr", "--steps", "100000000000000000000", "--alpha-x-max",
                "5"], None),
              (["throughput", "--n-relays", "0,1", "--steps", "222223"],
               None),
              (["optimize", "--distance-km", "100", "--n-relays",
                "1000000000"], None),
              (["sample", "--alpha-x", "5", "--n-relays", "100001",
                "--trials", "10", "--seed", "1"], None)]
    return cases


def _record(text: str):
    """A text as it is stored: itself, or its digest when long."""
    if len(text.encode()) <= INLINE:
        return text
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_case(argv: list[str], config=None) -> dict:
    """Run one argv through cli.main in a fresh directory, with config, if
    given, written there as CONFIG first, and record it."""
    from qrelay import cli

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        if config is not None:
            Path(work, CONFIG).write_text(json.dumps(config))
        os.chdir(work)
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            reports = sorted(p for p in Path(work).iterdir()
                             if p.name != CONFIG)
            report = reports[0].read_bytes().decode() if reports else None
        finally:
            os.chdir(here)
    assert len(reports) <= 1, reports
    record = {"argv": argv, "exit": code, "stdout": _record(out.getvalue()),
              "stderr": _record(err.getvalue()),
              "report": None if report is None else _record(report)}
    if config is not None:
        record["config"] = config
    return record


def case_id(i: int, case: dict) -> str:
    """A case's name in test_byte_corpus.py: its index and command."""
    return f"{i:02d}-{case['argv'][0]}"


def _moved_fields(old: list[dict], i: int, case: dict) -> str:
    """The fields of case that differ from the committed record i."""
    if i >= len(old):
        return "new"
    return ", ".join(key for key in dict.fromkeys([*case, *old[i]])
                     if case.get(key) != old[i].get(key))


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed corpus and write "
                             "nothing; exit 1 if any case moved")
    check = parser.parse_args(args).check
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    cases = [run_case(argv, config) for argv, config in _cases()]
    moved = [f"{case_id(i, case)} ({_moved_fields(old, i, case)})"
             for i, case in enumerate(cases)
             if i >= len(old) or old[i] != case]
    moved += [f"{case_id(i, case)} (removed)"
              for i, case in enumerate(old[len(cases):], len(cases))]
    for name in moved:
        print(f"changed: {name}")
    if check:
        print(f"{len(moved)} of {len(cases)} cases moved")
        return 1 if moved else 0
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
