"""The package's lower layers import only downward, and every public name
is used outside the tests.

analytics sits at the bottom and imports nothing of the package, fockspace
imports only errors, and circuit builds on fockspace alone; outside the
package, every module imports only the standard library, and not
dataclasses, whose import loads inspect, ast, dis and tokenize into every
command. Every import counts, including one deferred inside a function body.
Within chain, the Monte Carlo sampler does not call the exact model it
checks, and within circuit a device run applies the cached Kraus operators
without rerunning the Fock engine. The terms of the noise exponent are
taken in one kernel, analytics._noise_kernel, the one place that scales
below the normal range; only analytics and chain read it, and each chain a
command reports is evaluated once.
"""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qrelay

ALLOWED = {
    "fockspace": {"errors"},
    "analytics": set(),
    "circuit": {"fockspace", "errors"},
}


def relative_imports(module: str) -> set[str]:
    source = Path(qrelay.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:     # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_lower_layers_import_only_downward(module):
    assert relative_imports(module) <= ALLOWED[module]


MODULES = sorted(p.stem for p in Path(qrelay.__file__).parent.glob("*.py"))


def absolute_imports(module: str) -> set[str]:
    """Top-level names of the modules that module imports from outside."""
    source = Path(qrelay.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", MODULES)
def test_modules_import_only_the_standard_library(module):
    # the package has no runtime dependency: no module imports anything
    # outside the standard library, not even inside a function body
    assert absolute_imports(module) <= sys.stdlib_module_names


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_dataclasses(module):
    assert "dataclasses" not in absolute_imports(module)


def names_read(module: str) -> set[str]:
    """The names a module reads, as a Name, an Attribute or an imported
    name, outside the top-level definition of the same name."""
    source = Path(qrelay.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for stmt in ast.parse(source).body:
        inner = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                inner.add(node.id)
            elif isinstance(node, ast.Attribute):
                inner.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                inner.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            inner.discard(stmt.name)
        found |= inner
    return found


def test_every_public_name_is_used_outside_the_tests():
    # a public name stays only if the program reads it, the README names it
    # or an acceptance criterion (a paper result) checks it; the references
    # only tests use live in tests/oracles.py
    read = set().union(*(names_read(m) for m in MODULES if m != "__init__"))
    here = Path(__file__).parent
    text = ((here.parent / "README.md").read_text()
            + (here / "test_acceptance.py").read_text())
    unused = [name for name in qrelay.__all__ if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []


@pytest.mark.parametrize("argv", [
    ["snr"], ["throughput"], ["optimize", "--distance-km", "100",
                              "--n-relays", "2"],
    ["sample", "--alpha-x", "5", "--n-relays", "1", "--trials", "100000",
     "--seed", "1"],
    ["verify-circuit", "--trials", "3"]], ids=lambda argv: argv[0])
def test_commands_load_neither_dataclasses_nor_inspect(argv, tmp_path):
    # in a fresh interpreter, without site's start-up hooks (-S), which are
    # the machine's and may load anything
    probe = ("import sys\n"
             "from qrelay import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(code, sorted({'dataclasses', 'inspect'}"
             " & set(sys.modules)))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(qrelay.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv,
         "--output", str(tmp_path / "report")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []", (done.stdout, done.stderr)


def test_replace_checks_the_new_record():
    # _replace rebuilds through the checking constructor; the stock
    # namedtuple _replace goes through _make, which would skip the checks
    from qrelay.analytics import ChainConfig
    from qrelay.fockspace import LinearModeTransform, ModeBasis
    from qrelay.reports import CurveReport
    from qrelay.throughput import EcPaParams

    table = CurveReport(("a", "b"), ((1.0, 2.0),))
    transform = LinearModeTransform(ModeBasis(("0",)),
                                    ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="n_relays"):
        ChainConfig(100.0, n_relays=1)._replace(n_relays=-1)
    with pytest.raises(ValueError, match="f_ec"):
        EcPaParams()._replace(f_ec=0.5)
    with pytest.raises(ValueError, match="row of width 1"):
        table._replace(rows=((1.0,),))
    with pytest.raises(ValueError, match="not unitary"):
        transform._replace(matrix=((2.0, 0.0), (0.0, 1.0)))
    assert table._replace(rows=((3.0, 4.0),)) == (("a", "b"), ((3.0, 4.0),),
                                                 {})


def test_cli_imports_layers_only_at_command_level():
    # cli imports analytics, chain, throughput and circuit inside the
    # functions that use them, never at module level, so verify-circuit
    # loads no chain layer; each of these runs once per command or curve,
    # none once per grid point
    tree = ast.parse(Path(qrelay.__file__).with_name("cli.py").read_text())
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level}
    assert top == {None, "errors", "reports"}     # None: from . import x
    placed = {}     # function -> what it imports, nested functions included
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.module:
                    placed.setdefault(fn.name, set()).add(node.module)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    placed.setdefault(fn.name, set()).update(
                        alias.name for alias in node.names)
    assert placed == {"_relays": {"analytics"}, "_chain": {"analytics"},
                      "cmd_snr": {"analytics"},
                      "cmd_throughput": {"throughput"},
                      "cmd_optimize": {"analytics", "chain"},
                      "cmd_sample": {"chain"},
                      "cmd_verify_circuit": {"circuit"}}


def test_no_option_chooses_among_alternatives_no_command_uses():
    # the relay is one device feeding one key-fraction model, and linear
    # optics conserves photon number, so no Fock basis or device function
    # takes a photon cap; relay positions are an argument of the functions
    # that take them, not a config field
    from inspect import signature

    from qrelay import circuit
    from qrelay.analytics import ChainConfig
    from qrelay.fockspace import ModeBasis
    from qrelay.throughput import EcPaParams, key_fraction

    assert ChainConfig._fields == ("distance_km", "atten_per_km", "n_relays",
                                   "eta", "p_dark")
    assert not hasattr(ChainConfig, "with_positions")
    assert EcPaParams._fields == ("f_ec",)
    assert "clamp" not in signature(key_fraction).parameters
    assert list(signature(ModeBasis).parameters) == ["spatial_labels"]
    assert not hasattr(ModeBasis(("0",)), "photon_cap")
    for name in ("encoder_basis", "build_encoder_state", "encoder_postselect",
                 "device_operators", "_kraus_outcomes", "qnd_measure",
                 "vacuum_gate_probability", "multiphoton_gate_probability"):
        params = signature(getattr(circuit, name)).parameters
        assert "photon_cap" not in params, name


def scale_sites(module: str) -> list[tuple[str, int]]:
    """Where a module writes a power-of-two scale 2.0 ** k or reads
    float_info.min, the smallest normal double: (what, line)."""
    source = Path(qrelay.__file__).with_name(f"{module}.py").read_text()
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant)
                and node.left.value == 2 and isinstance(node.left.value,
                                                        float)):
            found.append(("2.0 ** k", node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr == "min"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "float_info"):
            found.append(("float_info.min", node.lineno))
    return found


def test_only_the_noise_kernel_scales_below_the_normal_range():
    # a scale or a smallest-normal test anywhere else would be a second
    # place that handles the subnormal range: every other function reads
    # the kernel's scaled pair
    tree = ast.parse(Path(qrelay.__file__).with_name("analytics.py")
                     .read_text())
    kernel, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "_noise_kernel"]
    inside = range(kernel.lineno, kernel.end_lineno + 1)
    outside = [(module, what, line) for module in MODULES
               for what, line in scale_sites(module)
               if not (module == "analytics" and line in inside)]
    assert outside == []
    assert {what for what, _ in scale_sites("analytics")} == {
        "2.0 ** k", "float_info.min"}


def test_sampler_is_independent_of_the_exact_model(monkeypatch):
    # sample_chain draws from the event rules alone, so it stays a check on
    # the closed form, not a rerun of it
    from qrelay import analytics, chain

    def forbidden(*args, **kwargs):
        raise AssertionError("the sampler reached the exact model")

    for name in ("run_chain", "_noise_terms", "_noise_kernel"):
        monkeypatch.setattr(chain, name, forbidden)
    monkeypatch.setattr(analytics, "_noise_kernel", forbidden)
    cfg = analytics.ChainConfig(distance_km=60.0, n_relays=3, p_dark=1e-3)
    got = chain.sample_chain(cfg, 10_000, seed=1)
    assert sum(got.state_counts.values()) == 10_000


def test_optimize_and_sample_evaluate_each_chain_once(monkeypatch, capsys):
    # a report's p_n and ln p_n come from one ReceiverReport per placement:
    # optimize evaluates its two placements (the search returning the
    # closed form here) and sample its one chain, each exactly once
    from qrelay import chain, cli

    run_chain, noise_terms = chain.run_chain, chain._noise_terms
    runs, evaluations = [], []

    def counted_run(*args, **kwargs):
        runs.append(args)
        return run_chain(*args, **kwargs)

    def counted_terms(*args):
        evaluations.append(args)
        return noise_terms(*args)

    monkeypatch.setattr(chain, "run_chain", counted_run)
    monkeypatch.setattr(chain, "_noise_terms", counted_terms)
    monkeypatch.setattr(chain, "search_positions", chain.optimal_positions)
    for argv, want in (
            (["optimize", "--distance-km", "300", "--n-relays", "3"], 2),
            (["sample", "--alpha-x", "5", "--n-relays", "4", "--trials",
              "1000000", "--seed", "1"], 1)):
        runs.clear()
        evaluations.clear()
        assert cli.main(argv) == 0
        assert len(runs) == len(evaluations) == want, argv
    capsys.readouterr()


def test_chain_curve_calls_terms_only_at_clamped_points(monkeypatch):
    # an interior point is one term, taken by the kernel's term directly;
    # only a clamped point sums a relay's term and the receiver's
    from qrelay import analytics

    kernel, calls = analytics._noise_kernel, []

    def counting(p_dark, eta):
        terms, *rest = kernel(p_dark, eta)

        def counted(ys, n_relays=0):
            calls.append(tuple(ys))
            return terms(ys, n_relays)
        return (counted, *rest)

    monkeypatch.setattr(analytics, "_noise_kernel", counting)
    grid = [0.0, 0.3, math.log(2.0), 0.7, 10.0, 800.0]
    for n, want in ((4, [(0.0, 0.0), (0.0, 0.3), (0.0, math.log(2.0))]),
                    (0, [])):
        calls.clear()
        analytics._chain_curve(grid, n, 0.5, 1e-5)
        assert calls == want, n


def test_only_analytics_and_chain_name_the_noise_kernel():
    # the optimal chain's closed form, forward and inverse, lives in
    # analytics; chain reads the kernel for any positions, and every other
    # layer goes through analytics' curves and their inverse
    assert [m for m in MODULES if "_noise_kernel" in names_read(m)] == [
        "analytics", "chain"]


def test_throughput_curve_scales_nothing_at_a_normal_p_dark(monkeypatch):
    # S_1 is written by _snr_curve alone: a throughput sweep at a normal
    # p_dark, interior and clamped points alike, makes no scaling call
    from qrelay import analytics, throughput

    ldexp, calls = analytics._ldexp, []

    def counted(*args):
        calls.append(args)
        return ldexp(*args)

    monkeypatch.setattr(analytics, "_ldexp", counted)
    grid = [0.0, 0.3, math.log(2.0), 10.0, 800.0, 1e4]
    for n in (0, 1, 4, 64):
        points = throughput.throughput_curve(
            analytics.ChainConfig(1.0, n_relays=n), grid)
        assert len(points) == len(grid)
    assert calls == []


def test_qnd_measure_runs_no_fock_engine(monkeypatch):
    # once its four Kraus operators are built, a device run is four 2x2
    # products: the per-input path never reaches the Fock engine
    import numpy as np

    from qrelay import circuit

    circuit.device_operators()

    def forbidden(*args, **kwargs):
        raise AssertionError("qnd_measure reached the Fock engine")

    for name in ("_run_device", "apply_transform", "product"):
        monkeypatch.setattr(circuit, name, forbidden)
    rng = np.random.default_rng(20261018)
    for _ in range(50):
        v = rng.standard_normal(4)
        rep = circuit.qnd_measure(complex(v[0], v[1]), complex(v[2], v[3]))
        assert len(rep.outcomes) == 4
        for o in rep.outcomes:
            assert abs(o.probability - 0.125) <= 1e-12


def test_derive_feed_forward_table_runs_no_fock_engine(monkeypatch):
    # the sign rule is read off the cached Kraus operators: the table needs
    # no probe run of the engine
    from qrelay import circuit

    circuit.device_operators()

    def forbidden(*args, **kwargs):
        raise AssertionError("derive_feed_forward_table reached the engine")

    for name in ("_run_device", "apply_transform", "product", "make_qubit"):
        monkeypatch.setattr(circuit, name, forbidden)
    assert circuit.derive_feed_forward_table() == {
        ("F", "F"): False, ("S", "S"): False,
        ("F", "S"): True, ("S", "F"): True}


def test_device_checks_returns_the_seven_records():
    from qrelay import circuit

    checks = circuit.device_checks(3, 7)
    assert [c["name"] for c in checks] == [
        "success_probability", "corrected_fidelity", "outcome_probabilities",
        "feed_forward_table", "vacuum_rejected", "two_photon_rejected",
        "encoder_branches"]
    assert all(c["ok"] is True for c in checks)
    assert "over 7 inputs" in checks[0]["detail"]
    for trials in (0, -1, True, 2.5, "3"):
        with pytest.raises(ValueError):
            circuit.device_checks(trials, 7)
    for seed in (-1, True, 2.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            circuit.device_checks(3, seed)
