import math

import numpy as np
import pytest
from scipy import stats

from qrelay.analytics import ChainConfig, qber_from_snr, snr_exact
from qrelay.chain import run_chain
from qrelay.throughput import (F_EC, ThroughputPoint, _tau, binary_entropy,
                               cutoff_alpha_x, key_fraction,
                               key_fraction_cutoff, throughput_curve)


def normalized_throughput(s):
    """Key bits per detected slot for a receiver seeing SNR s, the t_n of
    throughput_curve."""
    return key_fraction(qber_from_snr(s))


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for e in (0.01, 0.11, 0.3, 0.49):
        want = stats.entropy([e, 1.0 - e], base=2)
        assert binary_entropy(e) == pytest.approx(want, rel=1e-12)
        assert binary_entropy(e) == pytest.approx(binary_entropy(1.0 - e))
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_f_ec_default():
    # f_ec is a number with one default, 1.16; each function's refusals are
    # in test_layering's real-argument table
    assert F_EC == 1.16
    assert key_fraction(0.05) == key_fraction(0.05, 1.16)
    assert key_fraction_cutoff() == key_fraction_cutoff(1.16)
    assert throughput_curve([5.0], 2, 0.5, 1e-5) \
        == throughput_curve([5.0], 2, 0.5, 1e-5, 1.16)
    assert cutoff_alpha_x(2, 0.5, 1e-5) == cutoff_alpha_x(2, 0.5, 1e-5, 1.16)


def test_key_fraction_endpoints():
    assert key_fraction(0.0) == 1.0
    # deep in the error regime the unclamped fraction goes negative
    raw = _tau(0.25, 1.16)
    assert raw == pytest.approx(-0.7484375464301981, abs=1e-6)
    assert key_fraction(0.25) == 0.0
    with pytest.raises(ValueError):
        key_fraction(-0.01)
    with pytest.raises(ValueError):
        key_fraction(0.51)


def test_key_fraction_formula():
    for e in (0.01, 0.05, 0.09):
        want = (1.0 - 1.16 * binary_entropy(e)
                - math.log2(1.0 + 4.0 * e - 4.0 * e * e))
        assert key_fraction(e, 1.16) == pytest.approx(want, rel=1e-12)
    # key fraction falls monotonically with the error rate
    grid = np.linspace(0.0, 0.10, 60)
    vals = [_tau(float(e), 1.16) for e in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_key_fraction_cutoff():
    e_star = key_fraction_cutoff()
    assert e_star == pytest.approx(0.10175520191401302, abs=1e-6)
    assert _tau(e_star - 1e-6, F_EC) > 0
    assert _tau(e_star + 1e-6, F_EC) < 0
    # ideal error correction tolerates more errors
    assert key_fraction_cutoff(1.0) > e_star


@pytest.mark.parametrize("f_ec", [1.0, 1.16, 1.5, 2.5e10, 1e12, 1e300])
def test_key_fraction_cutoff_is_bisected_to_adjacent_doubles(f_ec,
                                                             monkeypatch):
    # the unclamped key fraction is positive at e* and not at the next
    # double up. At f_ec = 1.16 the bisection to 1e-12 stopped at
    # 0.10175520191401302, 1.4e-12 past the sign change; past f_ec = 2.4e10
    # the root lies below 1e-12, so the bracket starts at e = 0, and even
    # a root near 1e-303 takes at most 1,072 halvings of [0, 0.25]
    from qrelay import throughput

    calls = []
    monkeypatch.setattr(throughput, "_tau",
                        lambda e, f: calls.append(e) or _tau(e, f))
    e_star = key_fraction_cutoff(f_ec)
    assert _tau(e_star, f_ec) > 0.0 >= _tau(math.nextafter(e_star, 1.0),
                                            f_ec)
    assert len(calls) <= 1072


def test_snr_cutoff():
    # the cutoff SNR S* = 1/(2 e*) - 1 at which cutoff_alpha_x inverts
    s_star = 0.5 / key_fraction_cutoff() - 1.0
    assert s_star == pytest.approx(3.9137537009903323, rel=1e-6)
    assert normalized_throughput(s_star * 1.001) > 0
    assert normalized_throughput(s_star * 0.999) == 0.0
    # the cutoff is exactly where QBER hits the key-fraction zero
    assert 0.5 / (1.0 + s_star) == pytest.approx(key_fraction_cutoff(),
                                                 abs=1e-9)


def test_normalized_throughput():
    assert normalized_throughput(math.inf) == 1.0
    assert normalized_throughput(0.0) == 0.0
    grid = np.logspace(0.7, 5, 50)
    vals = [normalized_throughput(float(s)) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999


def test_throughput_curve_shape():
    grid = np.linspace(0.0, 20.0, 81)
    pts = throughput_curve(grid, 0, 0.5, 1e-5)
    assert all(isinstance(p, ThroughputPoint) for p in pts)
    assert len(pts) == len(grid) and grid[0] == 0.0
    assert pts[0].t_n > 0.99
    cut = cutoff_alpha_x(0, 0.5, 1e-5)
    for ax, p in zip(grid, pts):
        if ax > cut + 1e-9:
            assert p.t_n == 0.0
        if ax < cut - 1e-9:
            assert p.t_n > 0.0
    # no relays: scaled and unscaled coincide
    assert all(p.t_n_scaled == p.t_n for p in pts)


def test_throughput_curve_relay_scaling():
    pts = throughput_curve([4.0, 8.0, 12.0], 2, 0.5, 1e-5)
    for p in pts:
        assert p.t_n_scaled == pytest.approx(0.25 * p.t_n, rel=1e-12)
    # the chain SNR at a grid point is the exact chain's at that distance
    probe = ChainConfig(distance_km=8.0 / 0.05, n_relays=2)
    rep = run_chain(probe)
    assert pts[1].s == pytest.approx(rep.snr, rel=1e-12)
    assert pts[1].q_b == pytest.approx(rep.q_b, rel=1e-12)


def test_cutoff_alpha_x_values():
    want = {0: 9.455281345071853, 1: 16.714116348521202,
            2: 23.4504, 3: 29.8471}
    got = {}
    for n, w in want.items():
        got[n] = cutoff_alpha_x(n, 0.5, 1e-5)
        assert got[n] == pytest.approx(w, abs=1e-3)
    # relays extend the usable range, with diminishing returns per relay
    cuts = [got[n] for n in (0, 1, 2, 3)]
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    gaps = [b - a for a, b in zip(cuts, cuts[1:])]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_cutoff_alpha_x_degenerate():
    # dark rate so high the link never clears the SNR threshold
    assert cutoff_alpha_x(0, 0.5, 0.2) == 0.0
    # no dark counts: no noise reaches the receiver, the SNR is infinite at
    # every length, and the key fraction never reaches zero
    for n in (0, 1, 3):
        assert cutoff_alpha_x(n, 0.5, 0.0) == math.inf
        cfg = ChainConfig(0.0, n_relays=n, p_dark=0.0).at_alpha_x(200.0)
        assert run_chain(cfg).snr == math.inf


def test_cutoff_is_a_threshold_of_the_exact_chain():
    cut = cutoff_alpha_x(1, 0.5, 1e-5)
    s_star = 0.5 / key_fraction_cutoff() - 1.0
    kms = cut / 0.05
    just_inside = run_chain(ChainConfig(distance_km=kms * (1 - 1e-6),
                                        n_relays=1))
    just_outside = run_chain(ChainConfig(distance_km=kms * (1 + 1e-6),
                                         n_relays=1))
    assert just_inside.snr > s_star > just_outside.snr


def test_cutoff_alpha_x_of_long_chains():
    # past the old first bracket of 200 (N = 48 cuts off near 234, N = 64
    # near 291, N = 1000 near 1740), and on the clamped branch (N = 1,
    # p_dark = 0.035 cuts off below ln 2), the result brackets the cutoff SNR
    s_star = 0.5 / key_fraction_cutoff() - 1.0
    for n, p_dark, want in ((48, 1e-5, 233.8), (64, 1e-5, 291.5),
                            (1000, 1e-5, 1740.0), (1, 0.035, 0.3698)):
        cut = cutoff_alpha_x(n, 0.5, p_dark)
        assert cut == pytest.approx(want, abs=0.1)
        assert (snr_exact(cut - 1e-6, n, 0.5, p_dark) > s_star
                > snr_exact(cut + 1e-6, n, 0.5, p_dark))
    assert cutoff_alpha_x(1, 0.5, 0.035) < math.log(2.0)
