"""The whole-grid chain against its step-by-step and independent references.

run_chain_grid and the float kernel behind run_chain replace a loop that
built one ChannelEventState per step. The reference here composes the public
step maps exactly as that loop did; results must match it bit for bit, and
must match the stochastic-matrix oracle to 1e-12 relative.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrelay import cli
from qrelay.analytics import ChainConfig, optimal_positions
from qrelay.chain import (apply_relay, initial_state, propagate_chain,
                          propagate_segment, receiver_detect, run_chain,
                          run_chain_grid)

from oracles import markov_chain_reference

DATA = Path(__file__).parent / "data"


def reference_state(cfg, positions=None):
    """Slot state from the public maps, one ChannelEventState per step."""
    if positions is None:
        positions = optimal_positions(cfg)
    pts = (0.0,) + tuple(float(p) for p in positions) + (cfg.distance_km,)
    state = initial_state()
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        state = propagate_segment(state, cfg.atten_per_km * max(b - a, 0.0))
        if i < cfg.n_relays:
            state = apply_relay(state, cfg)
    return state


def reference_report(cfg, positions=None):
    return receiver_detect(reference_state(cfg, positions), cfg.p_dark)


def same_bits(a, b):
    """Equal as IEEE doubles, sign of zero included; any nan equals nan."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


FIELDS = ("p_s", "p_n", "snr", "q_b")


def assert_report_bits(got, want, where):
    for f in FIELDS:
        assert same_bits(getattr(got, f), getattr(want, f)), \
            (where, f, getattr(got, f), getattr(want, f))


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
def test_grid_and_float_kernel_equal_step_by_step_bit_for_bit(cfg, extra,
                                                              frac):
    # 0, the clamped region alpha_x <= ln(1/eta) and its edge, then anything
    # up to where exp(-alpha_x) underflows
    edge = -math.log(cfg.eta)
    grid = [0.0, frac * edge, edge] + extra
    rep = run_chain_grid(cfg, grid)
    for i, ax in enumerate(grid):
        point = cfg.at_alpha_x(ax)
        want = reference_report(point)
        got = type(want)(*(getattr(rep, f)[i] for f in FIELDS))
        assert_report_bits(got, want, ("grid", ax))
        assert_report_bits(run_chain(point), want, ("run_chain", ax))
        state, ref = propagate_chain(point), reference_state(point)
        for f in ("p_sig", "p_rnd", "p_empty", "p_nogate"):
            assert same_bits(getattr(state, f), getattr(ref, f)), (ax, f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=chains(), distance=st.floats(0.0, 2000.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20))
def test_run_chain_at_explicit_positions_bit_for_bit(cfg, distance, fracs):
    n = cfg.n_relays
    positions = sorted(distance * f for f in fracs[:n])
    point = ChainConfig(distance, cfg.atten_per_km, n, cfg.eta, cfg.p_dark)
    assert_report_bits(run_chain(point, positions),
                       reference_report(point, positions), positions)


@pytest.mark.parametrize("eta, p_dark", [(0.5, 1e-5), (0.9, 1e-3),
                                         (1.0, 0.0)])
def test_grid_agrees_with_markov_oracle(eta, p_dark):
    grid = np.linspace(0.0, 80.0, 41)
    for n in (0, 1, 2, 5, 13, 20):
        cfg = ChainConfig(distance_km=0.0, atten_per_km=0.2, n_relays=n,
                          eta=eta, p_dark=p_dark)
        rep = run_chain_grid(cfg, grid)
        for i, ax in enumerate(grid):
            point = cfg.at_alpha_x(float(ax))
            want = markov_chain_reference(point.distance_km, 0.2, eta, p_dark,
                                          optimal_positions(point))
            single = run_chain(point)
            for got in (rep.p_s[i], single.p_s):
                assert got == pytest.approx(want["p_s"], rel=1e-12, abs=0.0)
            for got in (rep.p_n[i], single.p_n):
                assert got == pytest.approx(want["p_n"], rel=1e-12, abs=0.0)


def test_grid_contract():
    cfg = ChainConfig(distance_km=123.0, n_relays=2)
    rep = run_chain_grid(cfg, [])
    assert all(getattr(rep, f).shape == (0,) for f in FIELDS)
    # the configured distance is ignored: each point is rescaled
    rep = run_chain_grid(cfg, [5.0, 6.15])
    assert rep.p_n[1] == run_chain(cfg.at_alpha_x(6.15)).p_n
    for bad in ([-1.0], [math.nan], [math.inf], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            run_chain_grid(cfg, bad)
    placed = cfg.with_positions((10.0, 20.0))
    with pytest.raises(ValueError):
        run_chain_grid(placed, [1.0])
    with pytest.raises(ValueError):
        placed.at_alpha_x(1.0)


def test_grid_non_finite_ratio_rules():
    # no dark counts: only the signal can click; beyond exp underflow
    # nothing can, and snr and q_b become nan as in receiver_detect
    cfg = ChainConfig(distance_km=0.0, n_relays=1, p_dark=0.0)
    rep = run_chain_grid(cfg, [1.0, 1600.0])
    assert math.isinf(rep.snr[0]) and rep.q_b[0] == 0.0
    assert rep.p_s[1] == 0.0 and rep.p_n[1] == 0.0
    assert math.isnan(rep.snr[1]) and math.isnan(rep.q_b[1])


@pytest.mark.parametrize("golden, argv", [
    ("snr_n0-64_steps50.json",
     ["snr", "--n-relays", "0,1,2,4,8,16,32,64", "--steps", "50",
      "--format", "json"]),
    ("throughput_n0-8_steps50.csv",
     ["throughput", "--n-relays", "0,1,2,3,4,5,6,7,8", "--steps", "50"]),
    ("optimize_300km_n3.json",
     ["optimize", "--distance-km", "300", "--n-relays", "3"]),
])
def test_reports_match_goldens_byte_for_byte(golden, argv, tmp_path, capsys):
    # goldens were written by the per-point implementation before the grid
    # kernel replaced it
    out = tmp_path / golden
    assert cli.main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()
