"""The chain's closed form against the step maps and an independent oracle.

run_chain (any positions) and snr_exact (the optimal pattern over a grid of
attenuation lengths) evaluate the closed form in analytics. The step maps
composed by propagate_chain and read out by receiver_detect are the
reference, and the stochastic-matrix products of tests/oracles.py are
independent of both. All three must agree to REL_BOUND * max(1, alpha_x)
relative, and an exact zero, inf or nan of one must be exactly that in the
others. The factor alpha_x is the conditioning of e^(-alpha_x): the paths
round the exponents of the segment transmissions differently (snr_exact
works in attenuation lengths, the others from km), and an absolute error in
an exponent is a relative one in the result.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrelay import cli
from qrelay.analytics import (ChainConfig, optimal_positions, qber_from_snr,
                              snr_exact)
from qrelay.chain import propagate_chain, receiver_detect, run_chain
from qrelay.reports import read_csv

from oracles import markov_chain_reference

DATA = Path(__file__).parent / "data"

# Four times the largest deviation / max(1, alpha_x) measured over every
# comparison in this file: 1.017e-15, on run_chain's snr at alpha_x <= 1
REL_BOUND = 4.07e-15
# below the smallest normal double, relative precision is not defined
_FLOOR = sys.float_info.min


def deviation(got, want):
    """Relative deviation of got from want, inf where they cannot agree.

    Exact zeros, infinities and nans must match exactly; otherwise the
    difference is taken relative to the larger magnitude, floored at the
    smallest normal double.
    """
    got, want = float(got), float(want)
    if math.isnan(got) or math.isnan(want):
        return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
    if got == want:
        return 0.0
    if 0.0 in (got, want) or math.isinf(got) or math.isinf(want):
        return math.inf
    return abs(got - want) / max(abs(got), abs(want), _FLOOR)


def assert_close(got, want, alpha_x, where):
    dev = deviation(got, want)
    assert dev <= REL_BOUND * max(1.0, alpha_x), (where, got, want, dev)


def step_report(cfg, positions=None):
    """Receiver statistics from the step maps, one state per step."""
    return receiver_detect(propagate_chain(cfg, positions), cfg.p_dark)


def assert_reports_close(got, want, alpha_x, where):
    for f in ("p_s", "p_n"):
        assert_close(getattr(got, f), getattr(want, f), alpha_x, (where, f))
    # the ratios inherit the inputs' precision, lost below the normal range
    if all(getattr(want, f) == 0.0 or getattr(want, f) >= _FLOOR
           for f in ("p_s", "p_n")):
        for f in ("snr", "q_b"):
            assert_close(getattr(got, f), getattr(want, f), alpha_x,
                         (where, f))


def assert_oracle_close(cfg, positions, want, where):
    ref = markov_chain_reference(cfg.distance_km, cfg.atten_per_km, cfg.eta,
                                 cfg.p_dark, positions)
    for f in ("p_s", "p_n"):
        assert_close(ref[f], getattr(want, f), cfg.alpha_x,
                     ("oracle", where, f))


@st.composite
def chains(draw):
    p_dark = draw(st.floats(0.0, 1e-2))
    eta = draw(st.floats(0.01, 1.0))
    assume(eta + 2.0 * p_dark <= 1.0)
    return ChainConfig(distance_km=0.0,
                       atten_per_km=draw(st.floats(0.01, 1.0)),
                       n_relays=draw(st.integers(0, 20)),
                       eta=eta, p_dark=p_dark)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=chains(),
       extra=st.lists(st.floats(0.0, 800.0), max_size=12),
       frac=st.floats(0.0, 1.0))
def test_closed_form_agrees_with_step_maps_and_oracle(cfg, extra, frac):
    # 0, the clamped region alpha_x <= ln(1/eta) and its edge, then anything
    # up to where exp(-alpha_x) underflows
    edge = -math.log(cfg.eta)
    for ax in [0.0, frac * edge, edge] + extra:
        point = cfg.at_alpha_x(ax)
        want = step_report(point)
        assert_reports_close(run_chain(point), want, ax, ("run_chain", ax))
        pattern = snr_exact(ax, cfg.n_relays, cfg.eta, cfg.p_dark)
        assert_reports_close(
            type(want)(want.p_s, want.p_n, pattern, qber_from_snr(pattern)),
            want, ax, ("snr_exact", ax))
        assert_oracle_close(point, optimal_positions(point), want, ax)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=chains(), distance=st.floats(0.0, 2000.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20))
def test_run_chain_at_explicit_positions_within_bound(cfg, distance, fracs):
    n = cfg.n_relays
    positions = sorted(distance * f for f in fracs[:n])
    point = ChainConfig(distance, cfg.atten_per_km, n, cfg.eta, cfg.p_dark)
    want = step_report(point, positions)
    assert_reports_close(run_chain(point, positions), want, point.alpha_x,
                         ("run_chain", positions))
    assert_oracle_close(point, positions, want, positions)


@pytest.mark.parametrize("eta, p_dark", [(0.5, 1e-5), (0.9, 1e-3),
                                         (1.0, 0.0)])
def test_grid_agrees_with_markov_oracle(eta, p_dark):
    for n in (0, 1, 2, 5, 13, 20):
        cfg = ChainConfig(distance_km=0.0, atten_per_km=0.2, n_relays=n,
                          eta=eta, p_dark=p_dark)
        for ax in np.linspace(0.0, 80.0, 41).tolist():
            point = cfg.at_alpha_x(ax)
            want = markov_chain_reference(point.distance_km, 0.2, eta, p_dark,
                                          optimal_positions(point))
            got = run_chain(point)
            for f in ("p_s", "p_n"):
                assert_close(getattr(got, f), want[f], ax, ("oracle", n, f))
            snr = want["p_s"] / want["p_n"] if p_dark else math.inf
            assert_close(snr_exact(ax, n, eta, p_dark), snr, ax,
                         ("snr_exact", n, "snr"))


def test_grid_contract():
    # the pattern evaluator is run_chain on the chain rescaled to alpha_x,
    # whatever distance the config carries
    cfg = ChainConfig(distance_km=123.0, n_relays=2)
    for ax in (0.0, 0.5, 5.0, 6.15):
        assert_close(snr_exact(ax, 2, cfg.eta, cfg.p_dark),
                     run_chain(cfg.at_alpha_x(ax)).snr, ax, ("snr_exact", ax))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            snr_exact(bad, 2, 0.5, 1e-5)
    for n, eta, p_dark in ((-1, 0.5, 1e-5), (2.5, 0.5, 1e-5),
                           (True, 0.5, 1e-5), (2, 0.0, 1e-5), (2, 0.5, 0.5),
                           (2, 0.999, 0.01)):
        with pytest.raises(ValueError):
            snr_exact(1.0, n, eta, p_dark)
    placed = cfg.with_positions((10.0, 20.0))
    with pytest.raises(ValueError):
        placed.at_alpha_x(1.0)


def test_grid_non_finite_ratio_rules():
    # no dark counts: only the signal can click; beyond exp underflow
    # nothing can, and snr and q_b become nan as in receiver_detect
    cfg = ChainConfig(distance_km=0.0, n_relays=1, p_dark=0.0)
    for ax, snr in ((1.0, math.inf), (1600.0, math.nan)):
        point = cfg.at_alpha_x(ax)
        got, want = run_chain(point), step_report(point)
        assert_reports_close(got, want, ax, ("run_chain", ax))
        assert deviation(snr_exact(ax, 1, 0.5, 0.0), snr) == 0.0
    assert run_chain(cfg.at_alpha_x(1.0)).q_b == 0.0
    rep = run_chain(cfg.at_alpha_x(1600.0))
    assert rep.p_s == 0.0 and rep.p_n == 0.0 and math.isnan(rep.q_b)
    # with dark counts, a segment of transmission 0 (N = 1, 3) or an S_N
    # that underflows (N = 20) leaves only false gates: no 0 * inf nan, no
    # overflow, and the step maps' noise
    for n, ax in ((1, 1600.0), (3, 3200.0), (20, 1600.0)):
        point = ChainConfig(0.0, n_relays=n, p_dark=1e-5).at_alpha_x(ax)
        got = run_chain(point)
        assert_reports_close(got, step_report(point), ax, ("run_chain", n))
        assert got.p_s == 0.0 and got.p_n > 0.0
        assert got.snr == 0.0 and got.q_b == 0.5
        assert snr_exact(ax, n, 0.5, 1e-5) == 0.0
    # one relay behind a dead segment: a false gate, then a dark count
    assert run_chain(ChainConfig(0.0, n_relays=1).at_alpha_x(1600.0)).p_n \
        == pytest.approx(4e-10, rel=1e-12)


def _values(path):
    if path.suffix == ".csv":
        rep = read_csv(path)
        return rep.metadata, rep.columns, rep.rows
    payload = json.loads(path.read_text())
    if "rows" in payload:
        return payload["metadata"], payload["columns"], payload["rows"]
    return payload, None, None


@pytest.mark.parametrize("golden, argv", [
    ("snr_n0-64_steps50.json",
     ["snr", "--n-relays", "0,1,2,4,8,16,32,64", "--steps", "50",
      "--format", "json"]),
    ("throughput_n0-8_steps50.csv",
     ["throughput", "--n-relays", "0,1,2,3,4,5,6,7,8", "--steps", "50"]),
    ("optimize_300km_n3.json",
     ["optimize", "--distance-km", "300", "--n-relays", "3"]),
])
def test_reports_match_goldens_value_by_value(golden, argv, tmp_path, capsys):
    # the goldens were written by the step kernel the closed form replaced;
    # they are compared, not rewritten
    out = tmp_path / golden
    assert cli.main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    meta, columns, rows = _values(out)
    want_meta, want_columns, want_rows = _values(DATA / golden)
    if rows is None:
        # optimize: analytic positions exact, the numeric ones within the
        # command's own agreement tolerance, the noise values in the bound
        x = meta["config"]["distance_km"]
        alpha_x = x * meta["config"]["atten_per_km"]
        for key in ("noise_analytic", "noise_numeric"):
            assert_close(meta.pop(key), want_meta.pop(key), alpha_x,
                         ("golden", key))
        for got, want in zip(meta.pop("numeric_positions_km"),
                             want_meta.pop("numeric_positions_km")):
            assert abs(got - want) <= 1e-6 * max(1.0, x)
        assert meta == want_meta
        return
    cutoffs = meta["parameters"].pop("cutoff_alpha_x", {})
    want_cutoffs = want_meta["parameters"].pop("cutoff_alpha_x", {})
    assert cutoffs.keys() == want_cutoffs.keys()
    for n, cut in cutoffs.items():
        assert abs(cut - want_cutoffs[n]) <= 1e-9, n
    assert meta == want_meta and columns == want_columns
    assert len(rows) == len(want_rows)
    for row, want_row in zip(rows, want_rows):
        alpha_x = float(want_row[0])
        for col, got, want in zip(columns, row, want_row):
            got, want = float(got), float(want)
            if col.startswith(("rel_dev", "t_n")):
                # differences of nearly equal numbers, so held absolutely
                assert (math.isnan(got) and math.isnan(want)
                        or abs(got - want) <= REL_BOUND * max(1.0, alpha_x)
                        ), ("golden", col, alpha_x, got, want)
            else:
                assert_close(got, want, alpha_x, ("golden", col))
