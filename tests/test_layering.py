"""The package's lower layers import only downward.

analytics sits at the bottom and imports nothing of the package, fockspace
imports only errors, and circuit builds on fockspace alone; outside the
package, every module imports only the standard library. Every import
counts, including one deferred inside a function body. Within chain,
the Monte Carlo sampler does not call the exact model it checks, and within
circuit a device run applies the cached Kraus operators without rerunning the
Fock engine.
"""

import ast
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


@pytest.mark.parametrize("module", MODULES)
def test_modules_import_only_the_standard_library(module):
    # the package has no runtime dependency: no module imports anything
    # outside the standard library, not even inside a function body
    source = Path(qrelay.__file__).with_name(f"{module}.py").read_text()
    outside = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside.update(n.split(".")[0] for n in names
                       if n.split(".")[0] not in sys.stdlib_module_names)
    assert not outside


def test_cli_imports_layers_only_at_command_level():
    # cli imports chain, throughput and circuit inside the cmd_* functions
    # that use them, which run once per process; an import in a per-point
    # helper such as _snr_point would run once per grid point
    tree = ast.parse(Path(qrelay.__file__).with_name("cli.py").read_text())
    placed = {}     # function -> what it imports, nested functions included
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.module:
                    placed.setdefault(fn.name, set()).add(node.module)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    placed.setdefault(fn.name, set()).update(
                        alias.name for alias in node.names)
    assert all(name.startswith("cmd_") for name in placed), placed
    assert placed == {"cmd_throughput": {"throughput"},
                      "cmd_optimize": {"chain"}, "cmd_sample": {"chain"},
                      "cmd_verify_circuit": {"circuit"}}


def test_sampler_is_independent_of_the_exact_model(monkeypatch):
    # sample_chain draws from the event rules alone, so it stays a check on
    # the closed form, not a rerun of it
    from qrelay import analytics, chain

    def forbidden(*args, **kwargs):
        raise AssertionError("the sampler reached the exact model")

    for name in ("run_chain", "_noise_terms", "_noise_exponent",
                 "_receiver_counts"):
        monkeypatch.setattr(chain, name, forbidden)
    monkeypatch.setattr(analytics, "_receiver_counts", forbidden)
    cfg = analytics.ChainConfig(distance_km=60.0, n_relays=3, p_dark=1e-3)
    got = chain.sample_chain(cfg, 10_000, seed=1)
    assert sum(got.state_counts.values()) == 10_000


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
