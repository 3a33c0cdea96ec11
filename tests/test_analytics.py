import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qrelay.analytics import (ChainConfig, noise_single_relay,
                              optimal_position_single, optimal_positions,
                              qber_from_snr, range_enhancement, raw_rate,
                              snr_exact, snr_n_relays, snr_no_relay,
                              solve_range_alpha_x)
from qrelay.chain import chain_noise, search_positions

from oracles import coordinate_descent, decimal_noise_ratio


def test_chain_config_validation():
    cfg = ChainConfig(distance_km=100.0)
    assert cfg.alpha_x == pytest.approx(5.0)
    assert cfg.eta == 0.5 and cfg.p_dark == 1e-5 and cfg.n_relays == 0
    with pytest.raises(ValueError):
        ChainConfig(distance_km=-1.0)
    with pytest.raises(ValueError):
        ChainConfig(distance_km=10.0, atten_per_km=-0.05)
    # the relay domain: 0 < eta <= 1, 0 <= p_dark < 1/2, eta + 2 p_dark <= 1
    for eta, p_dark in ((0.0, 1e-5), (1.2, 1e-5), (0.5, 0.5), (0.5, -1e-9),
                        (0.999, 0.01), (math.nan, 1e-5), (0.5, math.nan)):
        with pytest.raises(ValueError):
            ChainConfig(distance_km=10.0, eta=eta, p_dark=p_dark)
    edge = ChainConfig(distance_km=10.0, eta=1.0, p_dark=0.0)
    assert (edge.eta, edge.p_dark) == (1.0, 0.0)
    with pytest.raises(ValueError):
        ChainConfig(distance_km=10.0, n_relays=-1)
    with pytest.raises(ValueError):
        ChainConfig(distance_km=10.0, n_relays=1, positions_km=(11.0,))
    with pytest.raises(ValueError):
        ChainConfig(distance_km=10.0, n_relays=2, positions_km=(6.0, 4.0))
    with pytest.raises(ValueError):
        ChainConfig(distance_km=10.0, n_relays=2, positions_km=(4.0,))
    for bad in ({"distance_km": math.nan}, {"distance_km": math.inf},
                {"atten_per_km": math.nan}, {"atten_per_km": math.inf},
                {"n_relays": True}, {"n_relays": False}, {"n_relays": 2.5},
                {"n_relays": 1, "positions_km": (math.nan,)}):
        with pytest.raises(ValueError):
            ChainConfig(**{"distance_km": 10.0, **bad})
    two = ChainConfig(distance_km=10.0, n_relays=2, positions_km=(4.0, 4.0))
    assert two.positions_km == (4.0, 4.0)
    moved = two.with_positions((3.0, 7.0))
    assert moved.positions_km == (3.0, 7.0)
    assert two.positions_km == (4.0, 4.0)


def test_qber_from_snr():
    assert qber_from_snr(math.inf) == 0.0
    assert qber_from_snr(0.0) == 0.5
    assert qber_from_snr(1.0) == 0.25
    with pytest.raises(ValueError):
        qber_from_snr(-0.5)
    # strictly decreasing, image inside (0, 1/2]
    grid = np.logspace(-3, 6, 40)
    vals = [qber_from_snr(s) for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 0.5 for v in vals)


def test_snr_no_relay():
    assert snr_no_relay(1e-5, 0.0) == pytest.approx(5e4)
    assert snr_no_relay(1e-5, 10.0) == pytest.approx(5e4 * math.exp(-10.0))
    assert math.isinf(snr_no_relay(0.0, 3.0))
    for p_dark, alpha_x in ((-1e-5, 1.0), (0.5, 1.0), (math.nan, 1.0),
                            (1e-5, -1.0), (1e-5, math.inf)):
        with pytest.raises(ValueError):
            snr_no_relay(p_dark, alpha_x)


def test_snr_n_relays_reduces_to_no_relay():
    for ax in (0.0, 1.0, 5.0, 17.3):
        assert snr_n_relays(ax, 0, 0.5, 1e-5) == snr_no_relay(1e-5, ax)
    # a nonnegative int N (check_n_relays) and the relay domain of
    # check_relay: 0 < eta <= 1, 0 <= p_dark < 1/2, eta + 2 p_dark <= 1
    for n, eta, p_dark in ((-1, 0.5, 1e-5), (2.5, 0.5, 1e-5),
                           (True, 0.5, 1e-5), (1, 0.0, 1e-5), (1, 1.2, 1e-5),
                           (1, 0.5, 0.5), (0, 0.5, 0.5), (1, 0.5, -1e-9),
                           (1, 0.999, 0.01), (1, math.nan, 1e-5)):
        with pytest.raises(ValueError):
            snr_n_relays(1.0, n, eta, p_dark)


def _snr_n_relays_reference(ax, n, eta, p_dark):
    # eta^(N/(N+1)) e^(-alpha x/(N+1)) / (2 p_d (N+1)) to 50 digits, at the
    # exact values of the float arguments
    with localcontext() as ctx:
        ctx.prec = 50
        m = Decimal(n + 1)
        value = ((Decimal(eta).ln() * Decimal(n) / m).exp()
                 * (-Decimal(ax) / m).exp() / (2 * Decimal(p_dark) * m))
        return value


def test_snr_n_relays_matches_a_high_precision_reference():
    worst = 0.0
    for n in (0, 1, 2, 4, 8, 16, 32, 64):
        for i in range(241):
            ax = 60.0 * i / 240
            want = _snr_n_relays_reference(ax, n, 0.5, 1e-5)
            got = snr_n_relays(ax, n, 0.5, 1e-5)
            worst = max(worst, float(abs(Decimal(got) - want) / want))
    assert worst < 4e-15


def test_snr_n_relays_is_finite_on_long_chains():
    # e^(alpha x N/(N+1)) alone would overflow past alpha x ~ 709 (N+1)/N
    for n in (1, 64):
        for ax in (800.0, 1e3, 1e4):
            s = snr_n_relays(ax, n, 0.5, 1e-5)
            assert math.isfinite(s) and s >= 0.0
            # e^y amplifies the rounding of y = alpha x/(N+1) by y
            want = _snr_n_relays_reference(ax, n, 0.5, 1e-5)
            tol = (ax / (n + 1) + 8) * sys.float_info.epsilon
            if want > Decimal(sys.float_info.min):
                assert abs(Decimal(s) - want) <= Decimal(tol) * want
    assert snr_n_relays(800.0, 64, 0.5, 0.0) == math.inf
    for ax in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            snr_n_relays(ax, 64, 0.5, 1e-5)


def test_snr_single_relay_closed_form():
    # S_1 = sqrt(eta) e^{-alpha x / 2} / (4 p_dark)
    for ax in (0.1, 2.0, 10.0, 30.0):
        want = math.sqrt(0.5) * math.exp(-ax / 2) / (4e-5)
        assert snr_n_relays(ax, 1, 0.5, 1e-5) == pytest.approx(want,
                                                               rel=1e-13)


def test_snr_gain_examples():
    # one relay at alpha x = 10 beats direct by about 52.4x
    s0 = snr_no_relay(1e-5, 10.0)
    s1 = snr_n_relays(10.0, 1, 0.5, 1e-5)
    assert s1 / s0 == pytest.approx(math.exp(5.0) / (2 * math.sqrt(2)),
                                    rel=1e-12)
    assert s1 / s0 == pytest.approx(52.4, abs=0.1)
    # two relays at alpha x = 15
    s2 = snr_n_relays(15.0, 2, 0.5, 1e-5)
    gain = s2 / snr_no_relay(1e-5, 15.0)
    assert gain == pytest.approx(math.exp(10.0) / (3 * 0.5 ** (-2 / 3)),
                                 rel=1e-12)
    assert gain == pytest.approx(4625, rel=1e-3)


def test_noise_single_relay():
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    a = cfg.atten_per_km
    pn = noise_single_relay(40.0, 60.0, cfg)
    want = 2e-5 * (0.5 * math.exp(-a * 40) + math.exp(-a * 60))
    assert pn == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        noise_single_relay(40.0, 59.0, cfg)
    # first-order formula tracks the exact chain to O(p_dark)
    exact = chain_noise(cfg, (40.0,))
    assert pn == pytest.approx(exact, rel=1e-3)


def test_optimal_position_single():
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    x1 = optimal_position_single(cfg)
    assert x1 == pytest.approx(43.06852819440055, abs=1e-12)
    assert x1 == pytest.approx(0.5 * (100.0 + math.log(0.5) / 0.05))
    # lossless relay sits at the midpoint
    even = ChainConfig(distance_km=100.0, n_relays=1, eta=1.0, p_dark=0.0)
    assert optimal_position_single(even) == pytest.approx(50.0)
    # short link: the relay clamps to the transmitter
    short = ChainConfig(distance_km=10.0, n_relays=1)
    assert optimal_position_single(short) == 0.0


def test_optimal_position_single_agrees_with_numeric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = float(rng.uniform(20.0, 400.0))
        eta = float(rng.uniform(0.3, 0.9))
        cfg = ChainConfig(distance_km=x, n_relays=1, eta=eta, p_dark=1e-5)
        analytic = optimal_position_single(cfg)
        numeric = coordinate_descent(
            cfg, lambda p: noise_single_relay(p[0], x - p[0], cfg))[0]
        assert abs(numeric - analytic) <= 1e-6 * max(1.0, x)


def test_optimal_positions_layout():
    cfg = ChainConfig(distance_km=100.0, n_relays=3)
    pos = optimal_positions(cfg)
    assert pos == pytest.approx(
        (21.534264097200273, 43.068528194400546, 64.60279229160082),
        abs=1e-9)
    # equal interior spacing d, final segment d + delta
    delta = -math.log(cfg.eta) / cfg.atten_per_km
    d = (100.0 - delta) / 4
    assert pos[0] == pytest.approx(d)
    assert pos[1] - pos[0] == pytest.approx(d)
    assert pos[2] - pos[1] == pytest.approx(d)
    assert 100.0 - pos[2] == pytest.approx(d + delta)
    # lossless relays divide the span evenly
    even = optimal_positions(ChainConfig(distance_km=100.0, n_relays=4,
                                         eta=1.0, p_dark=0.0))
    assert even == pytest.approx((20.0, 40.0, 60.0, 80.0))
    # all relays clamp to zero when the link is shorter than delta
    clamped = optimal_positions(ChainConfig(distance_km=10.0, n_relays=2))
    assert clamped == (0.0, 0.0)
    # n = 1 consistency with the dedicated solver
    one = ChainConfig(distance_km=123.0, n_relays=1, eta=0.4)
    assert optimal_positions(one)[0] == pytest.approx(
        optimal_position_single(one), abs=1e-12)
    assert optimal_positions(ChainConfig(distance_km=50.0)) == ()


def test_optimal_positions_refined_close_to_closed_form():
    cfg = ChainConfig(distance_km=150.0, n_relays=2)
    base = optimal_positions(cfg)
    fine = coordinate_descent(cfg, lambda p: chain_noise(cfg, p))
    for b, f in zip(base, fine):
        assert abs(b - f) <= 1e-3 * 150.0
    assert chain_noise(cfg, fine) <= chain_noise(cfg, base) * (1 + 1e-12)


def test_numeric_optimum_multi_start():
    # different starting layouts must land on the same minimum
    for n in (2, 4):
        cfg = ChainConfig(distance_km=200.0, n_relays=n)
        x = cfg.distance_km
        objective = lambda p: chain_noise(cfg, p)
        uniform = tuple(x * (i + 1) / (n + 1) for i in range(n))
        jitter = tuple(min(x, max(0.0, u + ((-1) ** i) * 0.07 * x))
                       for i, u in enumerate(uniform))
        sols = [coordinate_descent(cfg, objective, x0=s)
                for s in (None, uniform, jitter)]
        vals = [objective(s) for s in sols]
        for s in sols[1:]:
            assert max(abs(a - b) for a, b in zip(s, sols[0])) <= 1e-5 * x
        assert max(vals) - min(vals) <= 1e-9 * min(vals)


def test_numeric_optimum_matches_closed_form_spacing():
    cfg = ChainConfig(distance_km=200.0, n_relays=3)
    got = coordinate_descent(cfg, lambda p: chain_noise(cfg, p))
    want = optimal_positions(cfg)
    # first-order placement is already within a small fraction of the span
    for g, w in zip(got, want):
        assert abs(g - w) <= 5e-3 * cfg.distance_km


def test_perturbed_placement_increases_noise():
    for n in (1, 2, 3):
        cfg = ChainConfig(distance_km=180.0, n_relays=n)
        objective = lambda p: chain_noise(cfg, p)
        best = coordinate_descent(cfg, objective)
        base = objective(best)
        for k in range(n):
            for sign in (-1.0, 1.0):
                moved = list(best)
                moved[k] = min(cfg.distance_km,
                               max(0.0, moved[k] * (1 + 0.01 * sign)))
                assert objective(tuple(moved)) > base
        # and the spec-level guarantee: within one percent of the optimum
        closed = optimal_positions(cfg)
        assert objective(closed) <= base * 1.01


@st.composite
def dark_chains(draw, max_relays=64):
    """A chain with dark counts at an interior or a clamped length."""
    p_dark = draw(st.floats(1e-9, 1e-2))
    eta = draw(st.floats(0.05, 1.0))
    assume(eta + 2.0 * p_dark <= 1.0)
    atten = draw(st.floats(0.01, 1.0))
    delta = -math.log(eta) / atten
    if draw(st.booleans()):
        x = delta + draw(st.floats(0.0, 60.0)) / atten
    else:
        x = draw(st.floats(0.0, 1.0)) * delta
    return ChainConfig(x, atten, draw(st.integers(1, max_relays)), eta, p_dark)


def lower_by_ulps(cfg, positions, base):
    """How many ulps of base the noise at positions lies below base."""
    return (base - chain_noise(cfg, tuple(positions))) / math.ulp(base)


def assert_no_lower(cfg, positions, best, base, where):
    """The noise at positions is not below the optimum's: within 4 ulps of
    base in floats, or else in 60-digit arithmetic, where the float dip
    would be rounding in the sum of N + 1 segment terms."""
    if lower_by_ulps(cfg, positions, base) > 4.0:
        assert (decimal_noise_ratio(cfg, positions)
                >= decimal_noise_ratio(cfg, best)), where


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=dark_chains())
# 5 ulps lower in floats at relays 21-36, higher by 1.3e-31 in K exactly
@example(cfg=ChainConfig(0.18623545611519096, 1.0, 40, 0.830078125,
                         0.009765625))
def test_optimal_positions_is_exactly_optimal_under_moves(cfg):
    # relative moves of 1e-6 and 1e-3 of the span, clipped to the
    # neighbours; far smaller ones only probe rounding
    best = optimal_positions(cfg)
    base = chain_noise(cfg, best)
    n, x = cfg.n_relays, cfg.distance_km
    for i in range(n):
        lo = best[i - 1] if i > 0 else 0.0
        hi = best[i + 1] if i < n - 1 else x
        for step in (1e-6 * x, -1e-6 * x, 1e-3 * x, -1e-3 * x):
            moved = list(best)
            moved[i] = min(max(best[i] + step, lo), hi)
            assert_no_lower(cfg, moved, best, base, (i, step))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cfg=dark_chains(max_relays=6),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_optimal_positions_is_exactly_optimal_under_descent(cfg, fracs):
    # a converged descent, so up to 6 relays; with 64 a coordinate descent
    # stops far from any optimum within a test's time, and the moves above
    # cover that range
    best = optimal_positions(cfg)
    base = chain_noise(cfg, best)
    start = sorted(f * cfg.distance_km for f in fracs[:cfg.n_relays])
    found = coordinate_descent(cfg, lambda p: chain_noise(cfg, p), x0=start)
    assert_no_lower(cfg, found, best, base, found)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=dark_chains(),
       alpha_xs=st.lists(st.floats(0.0, 200.0), min_size=2, max_size=20))
def test_snr_exact_does_not_increase_with_alpha_x(cfg, alpha_xs):
    # cutoff_alpha_x inverts the closed form, which needs this to be the
    # only crossing of the cutoff SNR
    s = [snr_exact(ax, cfg.n_relays, cfg.eta, cfg.p_dark)
         for ax in sorted(alpha_xs)]
    assert all(b <= a for a, b in zip(s, s[1:])), s


def test_search_positions_keeps_the_closed_form_unless_lower():
    assert search_positions(ChainConfig(distance_km=50.0)) == ()
    for x, n in ((300.0, 3), (100.0, 1), (10.0, 5), (2000.0, 64)):
        cfg = ChainConfig(distance_km=x, n_relays=n)
        best = optimal_positions(cfg)
        found = search_positions(cfg)
        assert len(found) == n
        assert (found == best
                or chain_noise(cfg, found) < chain_noise(cfg, best))
        assert max(abs(a - b) for a, b in zip(found, best)) <= 1e-6 * x


def test_search_positions_ignores_rounding_dips():
    # the closed form is the exact optimum; the search replaces it only for
    # a drop beyond rounding, so on any chain it returns the closed form
    rng = random.Random(20261018)
    for _ in range(40):
        cfg = ChainConfig(distance_km=rng.uniform(0.0, 3000.0),
                          n_relays=rng.randint(1, 64),
                          eta=rng.uniform(0.05, 0.95),
                          p_dark=10 ** rng.uniform(-9, -2))
        assert search_positions(cfg) == optimal_positions(cfg), cfg


def test_solve_range_alpha_x():
    assert solve_range_alpha_x(0, 0.5, 1e-5, 1.0) == pytest.approx(
        10.819778284410283, abs=1e-12)
    assert solve_range_alpha_x(1, 0.5, 1e-5, 1.0) == pytest.approx(
        19.56011502714073, abs=1e-12)
    # the returned range actually achieves the target SNR
    for n in (0, 1, 3):
        ax = solve_range_alpha_x(n, 0.5, 1e-5, 2.0)
        assert snr_n_relays(ax, n, 0.5, 1e-5) == pytest.approx(2.0, rel=1e-12)
    # no positive range exists when even alpha x = 0 misses the target
    with pytest.raises(ValueError):
        solve_range_alpha_x(0, 0.5, 0.3, 10.0)
    with pytest.raises(ValueError):
        solve_range_alpha_x(0, 0.5, 1e-5, 0.0)
    for n in (2.5, True, -1):
        with pytest.raises(ValueError, match="n_relays"):
            solve_range_alpha_x(n, 0.5, 1e-5, 1.0)


def test_range_enhancement():
    r = range_enhancement(1, 0.5, 1e-5, 1.0)
    assert r.approx == pytest.approx(1.8193820026016112, abs=1e-12)
    assert r.exact == pytest.approx(1.8078110764361957, abs=1e-12)
    assert abs(r.approx - r.exact) / r.exact < 0.05
    none = range_enhancement(0, 0.5, 1e-5, 1.0)
    assert none.approx == 1.0 and none.exact == 1.0
    for n in (2.5, True, -1):
        with pytest.raises(ValueError, match="n_relays"):
            range_enhancement(n, 0.5, 1e-5, 1.0)


def test_range_enhancement_envelope():
    # closed-form envelope vs exact ratio stays under five percent whenever
    # p_dark * s_target <= 1e-4 and n <= 8
    for pd, s in ((1e-5, 1.0), (1e-6, 10.0), (1e-4, 1.0), (1e-7, 1e3)):
        for n in (1, 2, 4, 8):
            r = range_enhancement(n, 0.5, pd, s)
            assert abs(r.approx - r.exact) / r.exact < 0.05


def test_raw_rate():
    assert raw_rate(1e11, 0.0) == pytest.approx(1e11)
    assert raw_rate(1e11, 25.0) == pytest.approx(1.388794386496402, rel=1e-12)
    with pytest.raises(ValueError):
        raw_rate(-1.0, 1.0)


def test_relay_gain_crossover():
    # at short range the relay overhead dominates; the crossover range grows
    # with the number of relays
    for n in (1, 2, 4):
        assert snr_n_relays(0.0, n, 0.5, 1e-5) < snr_no_relay(1e-5, 0.0)

    def crossover(n):
        lo, hi = 0.0, 80.0
        f = lambda ax: (snr_n_relays(ax, n, 0.5, 1e-5)
                        - snr_no_relay(1e-5, ax))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    xs = [crossover(n) for n in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(xs, xs[1:]))

