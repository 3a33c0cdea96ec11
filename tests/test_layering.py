"""The package's lower layers import only downward, and every public name
is used outside the tests.

errors, which holds the exception types and the two input rules, check_int
and check_real, is the module every layer may import: analytics sits at the bottom and imports
only errors, as fockspace does, and circuit builds on fockspace alone;
outside the package, every module imports only the standard library, and not
dataclasses, whose import loads inspect, ast, dis and tokenize into every
command. Every import counts, including one deferred inside a function body.
Within chain, the Monte Carlo sampler does not call the exact model it
checks, and within circuit a device run applies the cached Kraus operators
without rerunning the Fock engine. The terms of the noise exponent are
taken in one kernel, analytics._term and _terms, and no value is carried
at a power-of-two scale, as p_dark is 0 or a normal double; only analytics
reads the kernel, chain reads the closed form at given segments
(analytics._chain_at_segments) and no other private analytics name, and
each chain a command reports is evaluated once. The layers that compute
report values add floats with math.fsum, never the builtin sum, whose
rounding changed in Python 3.12.
"""

import ast
import math
import re
import sys
from pathlib import Path

import pytest

import qrelay

from oracles import fresh_python

ALLOWED = {
    "fockspace": {"errors"},
    "analytics": {"errors"},
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
    return names_read_in(Path(qrelay.__file__).with_name(f"{module}.py"))


def names_read_in(path: Path) -> set[str]:
    """names_read of any Python file."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
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


def readme_code(text: str) -> str:
    """The README's fenced code blocks and inline code spans, without its
    prose, where a word such as "vacuum" names no function."""
    fence = re.compile(r"^```.*?^```", re.S | re.M)
    prose = fence.sub("", text)
    return "\n".join(fence.findall(text) + re.findall(r"`[^`]+`", prose))


def test_every_public_name_is_used_outside_the_tests():
    # a public name stays only if the program reads it, the README names it
    # as code or an acceptance criterion (a paper result) reads it in its
    # code, not in a message; the references only tests use live in
    # tests/oracles.py
    here = Path(__file__).parent
    read = set().union(*(names_read(m) for m in MODULES if m != "__init__"),
                       names_read_in(here / "test_acceptance.py"))
    code = readme_code((here.parent / "README.md").read_text())
    unused = [name for name in qrelay.__all__ if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", code)]
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
    out = fresh_python(probe, *argv, "--output", str(tmp_path / "report"),
                       no_site=True)
    assert out.splitlines()[-1] == "0 []", out


def test_replace_checks_the_new_record():
    # _replace rebuilds through the checking constructor; the stock
    # namedtuple _replace goes through _make, which would skip the checks
    from qrelay.analytics import ChainConfig
    from qrelay.fockspace import LinearModeTransform, ModeBasis

    transform = LinearModeTransform(ModeBasis(("0",)),
                                    ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="n_relays"):
        ChainConfig(100.0, n_relays=1)._replace(n_relays=-1)
    with pytest.raises(ValueError, match="not unitary"):
        transform._replace(matrix=((2.0, 0.0), (0.0, 1.0)))


def _integer_entry_point(entry: str):
    """(call, name, lo, hi) of a public function that takes an integer:
    call(value) passes value as that argument, the others valid."""
    from qrelay.analytics import ChainConfig, snr_n_relays
    from qrelay.chain import sample_chain
    from qrelay.circuit import device_checks, gate_probability

    from qrelay.throughput import cutoff_alpha_x, throughput_curve

    cfg = ChainConfig(100.0)
    return {
        "ChainConfig": (lambda v: ChainConfig(100.0, n_relays=v),
                        "n_relays", 0, None),
        "snr_n_relays": (lambda v: snr_n_relays(5.0, v, 0.5, 1e-5),
                         "n_relays", 0, None),
        "throughput_curve": (lambda v: throughput_curve([5.0], v, 0.5, 1e-5),
                             "n_relays", 0, None),
        "cutoff_alpha_x": (lambda v: cutoff_alpha_x(v, 0.5, 1e-5),
                           "n_relays", 0, None),
        "sample_chain.n_trials": (lambda v: sample_chain(cfg, v, 1),
                                  "n_trials", 1, 2**63 - 1),
        "sample_chain.seed": (lambda v: sample_chain(cfg, 10, v),
                              "seed", 0, None),
        "device_checks.trials": (lambda v: device_checks(v, 1),
                                 "trials", 1, None),
        "device_checks.seed": (lambda v: device_checks(1, v), "seed", 0, None),
        "gate_probability": (gate_probability, "n_input", 0, None),
    }[entry]


@pytest.mark.parametrize("entry, value", [
    (entry, value)
    for entry in ("ChainConfig", "snr_n_relays", "throughput_curve",
                  "cutoff_alpha_x", "sample_chain.n_trials",
                  "sample_chain.seed", "device_checks.trials",
                  "device_checks.seed", "gate_probability")
    for value in (True, 1.0, "2", None, -1)
] + [("sample_chain.n_trials", 2**63)], ids=repr)
def test_every_integer_argument_is_checked_by_the_one_rule(entry, value):
    # errors.check_int is the one integer rule: a bool, a float, a string
    # or None is refused, as is a value below lo or above hi, with one
    # message form that names the argument
    call, name, lo, hi = _integer_entry_point(entry)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == (f"{name} must be an integer {bound}, "
                              f"got {value!r}")


def test_the_integer_rule_is_written_once():
    # only errors.check_int asks isinstance(value, bool); every layer
    # calls it
    sites = [module for module in MODULES
             for node in ast.walk(ast.parse(Path(qrelay.__file__)
                                            .with_name(f"{module}.py")
                                            .read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "isinstance"
             and getattr(node.args[1], "id", None) == "bool"]
    assert sites == ["errors"]


# every real argument of the public entry points: its name in the refusal
# and its interval, as errors.check_real writes it
_REAL_ARGUMENTS = {
    "ChainConfig.distance_km": ("distance_km", "[0, inf)"),
    "ChainConfig.atten_per_km": ("atten_per_km", "(0, inf)"),
    "ChainConfig.eta": ("eta", "(0, 1]"),
    "ChainConfig.p_dark": ("p_dark", "[0, 0.5)"),
    "ChainConfig.at_alpha_x": ("alpha_x", "[0, inf)"),
    "noise_single_relay.x1_km": ("x1_km", "[0, inf)"),
    "noise_single_relay.x2_km": ("x2_km", "[0, inf)"),
    "snr_n_relays.alpha_x": ("alpha_x", "[0, inf)"),
    "snr_n_relays.eta": ("eta", "(0, 1]"),
    "snr_n_relays.p_dark": ("p_dark", "[0, 0.5)"),
    "snr_n_relays.alpha_x, N = 0": ("alpha_x", "[0, inf)"),
    "snr_n_relays.p_dark, N = 0": ("p_dark", "[0, 0.5)"),
    "snr_exact.alpha_x": ("alpha_x", "[0, inf)"),
    "snr_exact.eta": ("eta", "(0, 1]"),
    "snr_exact.p_dark": ("p_dark", "[0, 0.5)"),
    "qber_from_snr": ("s", "[0, inf]"),
    "solve_range_alpha_x.eta": ("eta", "(0, 1]"),
    "solve_range_alpha_x.p_dark": ("p_dark", "[0, 0.5)"),
    "solve_range_alpha_x.s_target": ("s_target", "(0, inf)"),
    "raw_rate.clock_hz": ("clock_hz", "[0, inf)"),
    "raw_rate.alpha_x": ("alpha_x", "[0, inf)"),
    "binary_entropy": ("e", "[0, 1]"),
    "key_fraction": ("e", "[0, 0.5]"),
    "key_fraction.f_ec": ("f_ec", "[1, inf)"),
    "key_fraction_cutoff": ("f_ec", "[1, inf)"),
    "snr_cutoff": ("f_ec", "[1, inf)"),
    "throughput_curve.alpha_x": ("alpha_x", "[0, inf)"),
    "throughput_curve.eta": ("eta", "(0, 1]"),
    "throughput_curve.p_dark": ("p_dark", "[0, 0.5)"),
    "throughput_curve.f_ec": ("f_ec", "[1, inf)"),
    "cutoff_alpha_x.eta": ("eta", "(0, 1]"),
    "cutoff_alpha_x.p_dark": ("p_dark", "[0, 0.5)"),
    "cutoff_alpha_x.f_ec": ("f_ec", "[1, inf)"),
}


def _real_entry_point(entry: str):
    """call(value), which passes value as the entry's real argument and
    valid values as the others."""
    from qrelay.analytics import (ChainConfig, noise_single_relay,
                                  qber_from_snr, raw_rate, snr_exact,
                                  snr_n_relays, solve_range_alpha_x)
    from qrelay.throughput import (binary_entropy, cutoff_alpha_x,
                                   key_fraction, key_fraction_cutoff,
                                   snr_cutoff, throughput_curve)

    one_relay = ChainConfig(100.0, n_relays=1)
    return {
        "ChainConfig.distance_km": ChainConfig,
        "ChainConfig.atten_per_km": lambda v: ChainConfig(100.0, v),
        "ChainConfig.eta": lambda v: ChainConfig(100.0, eta=v),
        "ChainConfig.p_dark": lambda v: ChainConfig(100.0, p_dark=v),
        "ChainConfig.at_alpha_x": ChainConfig(100.0).at_alpha_x,
        "noise_single_relay.x1_km": lambda v: noise_single_relay(v, 60.0,
                                                                 one_relay),
        "noise_single_relay.x2_km": lambda v: noise_single_relay(40.0, v,
                                                                 one_relay),
        "snr_n_relays.alpha_x": lambda v: snr_n_relays(v, 1, 0.5, 1e-5),
        "snr_n_relays.eta": lambda v: snr_n_relays(5.0, 1, v, 1e-5),
        "snr_n_relays.p_dark": lambda v: snr_n_relays(5.0, 1, 0.5, v),
        # direct transmission, S_0
        "snr_n_relays.alpha_x, N = 0": lambda v: snr_n_relays(v, 0, 0.5,
                                                               1e-5),
        "snr_n_relays.p_dark, N = 0": lambda v: snr_n_relays(5.0, 0, 0.5, v),
        "snr_exact.alpha_x": lambda v: snr_exact(v, 1, 0.5, 1e-5),
        "snr_exact.eta": lambda v: snr_exact(5.0, 1, v, 1e-5),
        "snr_exact.p_dark": lambda v: snr_exact(5.0, 1, 0.5, v),
        "qber_from_snr": qber_from_snr,
        "solve_range_alpha_x.eta": lambda v: solve_range_alpha_x(1, v, 1e-5,
                                                                 10.0),
        "solve_range_alpha_x.p_dark": lambda v: solve_range_alpha_x(1, 0.5, v,
                                                                    10.0),
        "solve_range_alpha_x.s_target": lambda v: solve_range_alpha_x(
            1, 0.5, 1e-5, v),
        "raw_rate.clock_hz": lambda v: raw_rate(v, 10.0),
        "raw_rate.alpha_x": lambda v: raw_rate(1e9, v),
        "binary_entropy": binary_entropy,
        "key_fraction": key_fraction,
        "key_fraction.f_ec": lambda v: key_fraction(0.05, v),
        "key_fraction_cutoff": key_fraction_cutoff,
        "snr_cutoff": snr_cutoff,
        "throughput_curve.alpha_x": lambda v: throughput_curve([v], 1, 0.5,
                                                               1e-5),
        "throughput_curve.eta": lambda v: throughput_curve([5.0], 1, v, 1e-5),
        "throughput_curve.p_dark": lambda v: throughput_curve([5.0], 1, 0.5,
                                                              v),
        # checked before the grid, which here is refused as well
        "throughput_curve.f_ec": lambda v: throughput_curve([math.nan], 1,
                                                            0.5, 1e-5, v),
        "cutoff_alpha_x.eta": lambda v: cutoff_alpha_x(1, v, 1e-5),
        "cutoff_alpha_x.p_dark": lambda v: cutoff_alpha_x(1, 0.5, v),
        "cutoff_alpha_x.f_ec": lambda v: cutoff_alpha_x(1, 0.5, 1e-5, v),
    }[entry]


def _past_the_ends(interval: str) -> list[float]:
    """The double next outside each end of the interval: the end itself
    where it is open, none past a closed inf."""
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    out = [lo if interval[0] == "(" else math.nextafter(lo, -math.inf)]
    if interval[-1] == ")":
        out.append(hi)
    elif hi < math.inf:
        out.append(math.nextafter(hi, math.inf))
    return out


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, interval) in _REAL_ARGUMENTS.items()
    for value in (True, "1.0", None, math.nan, *_past_the_ends(interval))],
    ids=repr)
def test_every_real_argument_is_checked_by_the_one_rule(entry, value):
    # errors.check_real is the one real rule: a bool, a string, None, NaN
    # and a value past either end of the interval are refused, with one
    # message form that names the argument and its interval
    name, interval = _REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError) as err:
        _real_entry_point(entry)(value)
    assert str(err.value) == (f"{name} must be a number in {interval}, "
                              f"got {value!r}")


def test_the_real_rule_takes_ints_and_refuses_what_no_double_holds():
    from qrelay.analytics import ChainConfig

    # an int is a number, compared as its double
    assert ChainConfig(100, 1).alpha_x == 100.0
    big = 10**400
    with pytest.raises(ValueError) as err:
        ChainConfig(big)
    assert str(err.value) == (f"distance_km must be a number in [0, inf), "
                              f"got {big!r}")
    # each factor is finite, their product alpha x is not
    with pytest.raises(ValueError) as err:
        ChainConfig(1e308, 10.0)
    assert str(err.value) == "alpha_x must be a number in [0, inf), got inf"
    # an alpha x in its domain whose distance alpha x/alpha overflows is
    # refused in the values that were given, not in that distance
    with pytest.raises(ValueError) as err:
        ChainConfig(0.0).at_alpha_x(1e308)
    assert str(err.value) == ("alpha_x = 1e+308 at atten_per_km = 0.05 puts "
                              "the distance past the double range")


# a refusal's words that bound one value: an interval, a one-sided bound,
# or finiteness joined to one
_BOUND_WORDS = re.compile(r"must be (a number in|in |finite and|nonnegative)"
                          r"|needs \w+ in |[<>]=? ?-?\d")


def test_the_real_rule_is_written_once():
    # only errors.check_real words an interval in a refusal, and
    # errors.check_int a bound, in a string raised with the error; every
    # other refusal names no bound of one value
    sites = [module for module in MODULES
             for node in ast.walk(ast.parse(Path(qrelay.__file__)
                                            .with_name(f"{module}.py")
                                            .read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _BOUND_WORDS.search("".join(
                 part.value for part in ast.walk(node.exc)
                 if isinstance(part, ast.Constant)
                 and isinstance(part.value, str)))]
    assert sites == ["errors"]


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
    assert placed == {"_chain": {"analytics"},
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
    from qrelay.throughput import key_fraction

    assert ChainConfig._fields == ("distance_km", "atten_per_km", "n_relays",
                                   "eta", "p_dark")
    assert not hasattr(ChainConfig, "with_positions")
    assert list(signature(key_fraction).parameters) == ["e", "f_ec"]
    assert list(signature(ModeBasis).parameters) == ["spatial_labels"]
    assert not hasattr(ModeBasis(("0",)), "photon_cap")
    for name in ("_readout", "_herald", "encoder_postselect",
                 "device_operators", "_kraus_outcomes", "qnd_measure",
                 "gate_probability"):
        params = signature(getattr(circuit, name)).parameters
        assert "photon_cap" not in params, name


def test_the_alpha_x_functions_take_the_relay_parameters():
    # a chain at a given alpha x is fixed by (N, eta, p_dark): the throughput
    # functions take those three, in the order of analytics' curves, and
    # never a ChainConfig
    from inspect import signature

    from qrelay.throughput import cutoff_alpha_x, throughput_curve

    assert list(signature(throughput_curve).parameters) == [
        "alpha_x_values", "n_relays", "eta", "p_dark", "f_ec"]
    assert list(signature(cutoff_alpha_x).parameters) == [
        "n_relays", "eta", "p_dark", "f_ec"]
    assert "ChainConfig" not in names_read("throughput")


def test_nothing_scales_below_the_normal_range():
    # p_dark is 0 or a normal double, so every term of the noise exponent
    # is a normal double or 0: no module takes a power-of-two scale 2^-e,
    # by math.ldexp and math.frexp or by a power 2.0 ** k
    calls = [(module, name) for module in MODULES
             for name in ("ldexp", "frexp") if name in names_read(module)]
    assert calls == []
    powers = [(module, node.lineno) for module in MODULES
              for node in ast.walk(ast.parse(
                  Path(qrelay.__file__).with_name(f"{module}.py").read_text()))
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Constant)
              and node.left.value == 2 and isinstance(node.left.value, float)]
    assert powers == []


@pytest.mark.parametrize("module", ["analytics", "chain", "throughput"])
def test_report_layers_call_no_builtin_sum(module):
    # sum of floats is compensated from Python 3.12 on, so a report digit
    # taken through it would depend on the interpreter; math.fsum rounds
    # once on every version
    tree = ast.parse(Path(qrelay.__file__).with_name(f"{module}.py")
                     .read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == []


def test_sampler_is_independent_of_the_exact_model(monkeypatch):
    # sample_chain draws from the event rules alone, so it stays a check on
    # the closed form, not a rerun of it
    from qrelay import analytics, chain

    def forbidden(*args, **kwargs):
        raise AssertionError("the sampler reached the exact model")

    for name in ("run_chain", "_chain_at_segments"):
        monkeypatch.setattr(chain, name, forbidden)
    for name in ("_chain_at_segments", "_terms", "_term"):
        monkeypatch.setattr(analytics, name, forbidden)
    cfg = analytics.ChainConfig(distance_km=60.0, n_relays=3, p_dark=1e-3)
    got = chain.sample_chain(cfg, 10_000, seed=1)
    assert sum(got.state_counts.values()) == 10_000


def test_optimize_and_sample_evaluate_each_chain_once(monkeypatch, capsys):
    # a report's p_n and ln p_n come from one ReceiverReport per placement:
    # optimize evaluates its two placements (the search returning the
    # closed form here) and sample its one chain, each exactly once
    from qrelay import chain, cli

    run_chain, closed_form = chain.run_chain, chain._chain_at_segments
    runs, evaluations = [], []

    def counted_run(*args, **kwargs):
        runs.append(args)
        return run_chain(*args, **kwargs)

    def counted_form(*args):
        evaluations.append(args)
        return closed_form(*args)

    monkeypatch.setattr(chain, "run_chain", counted_run)
    monkeypatch.setattr(chain, "_chain_at_segments", counted_form)
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
    # an interior point is one term, taken by the kernel's _term directly;
    # only a clamped point sums a relay's term and the receiver's
    from qrelay import analytics

    terms, calls = analytics._terms, []

    def counted(ys, *args):
        calls.append(tuple(ys))
        return terms(ys, *args)

    monkeypatch.setattr(analytics, "_terms", counted)
    grid = [0.0, 0.3, math.log(2.0), 0.7, 10.0, 800.0]
    for n, want in ((4, [(0.0, 0.0), (0.0, 0.3), (0.0, math.log(2.0))]),
                    (0, [])):
        calls.clear()
        analytics._chain_curve(grid, n, 0.5, 1e-5)
        assert calls == want, n


@pytest.mark.parametrize("name", ["_term", "_terms", "_snr_from_k",
                                  "_log_expm1"])
def test_only_analytics_names_the_noise_kernel(name):
    # the exact chain's closed form, at any positions, at the optimum and
    # inverted, lives in analytics: no other module takes a term of the
    # noise exponent or reads S off it
    assert [m for m in MODULES if name in names_read(m)] == ["analytics"]


def test_chain_imports_only_the_closed_form_from_analytics_privates():
    # run_chain and search_positions read the closed form at given segments
    # through one private name, so a change to the relay rule is an edit
    # to analytics and to the sampler, not to a second statement of it
    source = Path(qrelay.__file__).with_name("chain.py").read_text()
    private = {alias.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               and node.module == "analytics"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_chain_at_segments"}


def test_qnd_measure_runs_no_fock_engine(monkeypatch):
    # once its four Kraus operators are built, a device run is four 2x2
    # products: the per-input path never reaches the Fock engine, nor
    # builds a Fock state for its outputs
    import numpy as np

    from qrelay import circuit

    circuit.device_operators()

    def forbidden(*args, **kwargs):
        raise AssertionError("qnd_measure reached the Fock engine")

    for name in ("_herald", "apply_transform", "product", "make_qubit"):
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

    for name in ("_herald", "apply_transform", "product", "make_qubit"):
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
