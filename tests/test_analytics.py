import math
import random
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qrelay.analytics import (ChainConfig, _expm1_excess, check_relay,
                              noise_single_relay, optimal_positions,
                              qber_from_snr,
                              range_enhancement, raw_rate, snr_exact,
                              snr_n_relays, snr_no_relay, solve_range_alpha_x)
from qrelay.chain import run_chain, search_positions

from oracles import (coordinate_descent, decimal_first_order_snr,
                     decimal_noise_ratio)


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
    for bad in ({"distance_km": math.nan}, {"distance_km": math.inf},
                {"atten_per_km": math.nan}, {"atten_per_km": math.inf},
                {"n_relays": True}, {"n_relays": False}, {"n_relays": 2.5}):
        with pytest.raises(ValueError):
            ChainConfig(**{"distance_km": 10.0, **bad})
    # relay positions are checked where they are used, not in the config
    one, two = (ChainConfig(distance_km=10.0, n_relays=n) for n in (1, 2))
    for cfg, positions in ((one, (11.0,)), (two, (6.0, 4.0)), (two, (4.0,)),
                           (one, (math.nan,))):
        with pytest.raises(ValueError):
            run_chain(cfg, positions)
    for positions in ((4.0, 4.0), (3.0, 7.0)):     # a repeat is legal
        assert run_chain(two, positions).p_s == pytest.approx(
            0.25 * math.exp(-0.5), rel=1e-14)


# p_dark or eta between 0 and the least normal double, both ends open
_SUBNORMAL = st.floats(0.0, sys.float_info.min, exclude_min=True,
                       exclude_max=True)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(p_dark=_SUBNORMAL)
@example(p_dark=5e-324)
@example(p_dark=1e-318)
@example(p_dark=math.nextafter(sys.float_info.min, 0.0))
def test_every_entry_point_refuses_a_subnormal_p_dark(p_dark):
    # p_dark is 0 or a normal double: below the normal range 1/(2 p_dark)
    # overflows, and the kernel would need a second, scaled path
    message = re.escape(f"nonzero p_dark must be a number in "
                        f"[{sys.float_info.min!r}, 0.5), got {p_dark!r}")
    for call in (lambda: ChainConfig(10.0, p_dark=p_dark),
                 lambda: check_relay(0.5, p_dark),
                 lambda: snr_no_relay(p_dark, 1.0),
                 lambda: snr_n_relays(1.0, 2, 0.5, p_dark),
                 lambda: snr_exact(1.0, 2, 0.5, p_dark),
                 lambda: solve_range_alpha_x(1, 0.5, p_dark, 1.0),
                 lambda: range_enhancement(1, 0.5, p_dark, 1.0)):
        with pytest.raises(ValueError, match=message):
            call()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(eta=_SUBNORMAL)
@example(eta=5e-324)
@example(eta=1e-310)
@example(eta=math.nextafter(sys.float_info.min, 0.0))
def test_every_entry_point_refuses_a_subnormal_eta(eta):
    # eta is a normal double: below the normal range 2 p_dark/eta
    # overflows, and snr_exact(0.5, 1, 1e-310, 0.01) read 0.0 where the
    # exact value is 4.84e-309
    message = re.escape(f"eta must be a number in "
                        f"[{sys.float_info.min!r}, 1], got {eta!r}")
    for call in (lambda: ChainConfig(10.0, eta=eta),
                 lambda: check_relay(eta, 0.01),
                 lambda: snr_n_relays(1.0, 2, eta, 0.01),
                 lambda: snr_exact(0.5, 1, eta, 0.01),
                 lambda: solve_range_alpha_x(1, eta, 0.01, 1.0),
                 lambda: range_enhancement(1, eta, 0.01, 1.0)):
        with pytest.raises(ValueError, match=message):
            call()
    # the least normal eta is in the domain, with 2 p_dark/eta finite:
    # against decimal_snr_reference's 60 digits
    assert snr_exact(0.5, 1, sys.float_info.min, 0.01) == pytest.approx(
        1.0770227237791589077e-306, rel=1e-12)


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


def test_snr_n_relays_matches_a_high_precision_reference():
    worst = 0.0
    for n in (0, 1, 2, 4, 8, 16, 32, 64):
        for i in range(241):
            ax = 60.0 * i / 240
            want = decimal_first_order_snr(ax, n, 0.5, 1e-5)
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
            want = decimal_first_order_snr(ax, n, 0.5, 1e-5)
            tol = (ax / (n + 1) + 8) * sys.float_info.epsilon
            if want > Decimal(sys.float_info.min):
                assert abs(Decimal(s) - want) <= Decimal(tol) * want
    assert snr_n_relays(800.0, 64, 0.5, 0.0) == math.inf
    for ax in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            snr_n_relays(ax, 64, 0.5, 1e-5)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 64),
       eta=st.one_of(st.floats(0.01, 1.0), _log_uniform(1e-300, 1.0)),
       p_dark=_log_uniform(sys.float_info.min, 0.2),
       y=st.floats(690.0, 1460.0))
# one 51 and one 111 ulps low, when S_1 came from exp(-(ln 2 p_d + y))
@example(n=0, eta=1.0, p_dark=0.3, y=708.0)
@example(n=0, eta=0.5, p_dark=0.2, y=708.0)
def test_first_order_snr_keeps_its_digits_past_e_minus_708(n, eta, p_dark,
                                                            y):
    # S_1 = e^-y/(2 p_d (N+1)) around and past y + ln(N+1) = 708, where
    # e^-y/(N+1) leaves the normal range, against 60 digits: within 4 ulps
    # at N = 0 and 1, where alpha x/(N+1) and N/(N+1) are exact, and past
    # N = 1 also within twice what S_1 inherits from their rounding, which
    # e^-y scales by y
    m, in_domain = n + 1, eta + 2.0 * p_dark <= 1.0
    alpha_x = y * m + n * math.log(eta)
    assume(alpha_x >= 0.0 and (n == 0 or in_domain))
    want = decimal_first_order_snr(alpha_x, n, eta, p_dark)
    allowed = 4 * Decimal(math.ulp(float(want)))
    if n > 1:
        allowed += Decimal(sys.float_info.epsilon * y) * want
    # S_0 takes no eta
    got = [snr_no_relay(p_dark, alpha_x)] if n == 0 else []
    if in_domain:
        got.append(snr_n_relays(alpha_x, n, eta, p_dark))
    for s in got:
        assert abs(Decimal(s) - want) <= allowed, (s, float(want))


def _decimal_expm1_excess(x):
    """expm1(x) - x to 60 digits, from the float's exact value: the
    difference cancels about twice as many digits as x has leading zeros,
    so those are added to the working precision."""
    with localcontext() as ctx:
        d = Decimal(x)
        ctx.prec = 60 + 2 * max(0, -d.adjusted())
        excess = d.exp() - 1 - d
    with localcontext() as ctx:
        ctx.prec = 60
        return +excess


# h(x) = expm1(x) - x, the clamped rel_dev's gap term, within H_BOUND
# epsilons of its size plus one step of the subnormal grid. 6 is four
# times the largest error, 1.46 epsilons, measured over 80,000 draws of x
# in [ln(5e-324), 0] (half uniform, half log-uniform in |x| from 1e-160).
# Written as math.expm1(x) - x, h loses every digit at small |x|
H_BOUND = 6


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.one_of(st.floats(math.log(5e-324), 0.0),
                   _log_uniform(1e-300, 744.0).map(lambda v: -v)))
# 0; h = x^2/2 below the double range; -1; and the clamped branch's
# least d = alpha x + ln eta, ln eta >= ln(5e-324)
@example(x=-0.0)
@example(x=-1e-300)
@example(x=-1.0)
@example(x=-744.4)
def test_expm1_excess_keeps_its_digits(x):
    want = _decimal_expm1_excess(x)
    got = _expm1_excess(x)
    allowed = (Decimal(H_BOUND * sys.float_info.epsilon) * want
               + Decimal(math.ulp(0.0)))
    assert abs(Decimal(got) - want) <= allowed, (x, got, float(want))


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
    # the one-relay formula refuses any other relay count
    for n in (0, 2):
        with pytest.raises(ValueError) as err:
            noise_single_relay(40.0, 60.0, cfg._replace(n_relays=n))
        assert str(err.value) == (f"n_relays must be an integer in [1, 1], "
                                  f"got {n}")
    # first-order formula tracks the exact chain to O(p_dark)
    exact = run_chain(cfg, (40.0,)).p_n
    assert pn == pytest.approx(exact, rel=1e-3)


def test_optimal_position_of_one_relay():
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    x1, = optimal_positions(cfg)
    assert x1 == pytest.approx(43.06852819440055, abs=1e-12)
    assert x1 == pytest.approx(0.5 * (100.0 + math.log(0.5) / 0.05))
    # lossless relay sits at the midpoint
    even = ChainConfig(distance_km=100.0, n_relays=1, eta=1.0, p_dark=0.0)
    assert optimal_positions(even)[0] == pytest.approx(50.0)
    # short link: the relay clamps to the transmitter
    short = ChainConfig(distance_km=10.0, n_relays=1)
    assert optimal_positions(short) == (0.0,)


def test_optimal_position_of_one_relay_agrees_with_numeric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = float(rng.uniform(20.0, 400.0))
        eta = float(rng.uniform(0.3, 0.9))
        cfg = ChainConfig(distance_km=x, n_relays=1, eta=eta, p_dark=1e-5)
        analytic = optimal_positions(cfg)[0]
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
    assert optimal_positions(ChainConfig(distance_km=50.0)) == ()


def test_optimal_positions_refined_close_to_closed_form():
    cfg = ChainConfig(distance_km=150.0, n_relays=2)
    base = optimal_positions(cfg)
    fine = coordinate_descent(cfg, lambda p: run_chain(cfg, p).p_n)
    for b, f in zip(base, fine):
        assert abs(b - f) <= 1e-3 * 150.0
    assert (run_chain(cfg, fine).p_n
            <= run_chain(cfg, base).p_n * (1 + 1e-12))


def test_numeric_optimum_multi_start():
    # different starting layouts must land on the same minimum
    for n in (2, 4):
        cfg = ChainConfig(distance_km=200.0, n_relays=n)
        x = cfg.distance_km
        objective = lambda p: run_chain(cfg, p).p_n
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
    got = coordinate_descent(cfg, lambda p: run_chain(cfg, p).p_n)
    want = optimal_positions(cfg)
    # first-order placement is already within a small fraction of the span
    for g, w in zip(got, want):
        assert abs(g - w) <= 5e-3 * cfg.distance_km


def test_perturbed_placement_increases_noise():
    for n in (1, 2, 3):
        cfg = ChainConfig(distance_km=180.0, n_relays=n)
        objective = lambda p: run_chain(cfg, p).p_n
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
    return (base - run_chain(cfg, tuple(positions)).p_n) / math.ulp(base)


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
    base = run_chain(cfg, best).p_n
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
    base = run_chain(cfg, best).p_n
    start = sorted(f * cfg.distance_km for f in fracs[:cfg.n_relays])
    found = coordinate_descent(cfg, lambda p: run_chain(cfg, p).p_n,
                               x0=start)
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
                or run_chain(cfg, found).p_n < run_chain(cfg, best).p_n)
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


def test_range_survives_a_subnormal_dark_count_product():
    # p_dark s_target is subnormal (at a normal p_dark), where the product
    # form underflowed: the logs are sums of the factors' logs, against
    # 40-digit values
    assert solve_range_alpha_x(0, 0.5, 1e-300, 1e-20) == pytest.approx(
        736.1340825775346736061, rel=1e-15)
    assert solve_range_alpha_x(1, 0.5, 1e-300, 1e-20) == pytest.approx(
        1470.188723613389511284, rel=1e-15)
    assert range_enhancement(0, 0.5, 1e-300, 5e-24) == (1.0, 1.0)
    r = range_enhancement(3, 0.5, 1e-300, 5e-24)
    assert r.approx == pytest.approx(3.989757750068571684614, rel=1e-15)
    assert r.exact == pytest.approx(3.989748204482031600163, rel=1e-15)
    # still no range without dark counts, nor where even alpha x = 0 misses
    for p_dark, s_target in ((0.0, 1.0), (0.1, 10.0)):
        with pytest.raises(ValueError, match="no positive finite range"):
            solve_range_alpha_x(0, 0.5, p_dark, s_target)


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


def _noise_closing_the_span(x1_km):
    # noise_single_relay with the second leg closing its 100 km span, so
    # that only the first leg's domain is at stake
    return noise_single_relay(x1_km, 100.0 - x1_km,
                              ChainConfig(100.0, n_relays=1))


def _rescaled(alpha_x):
    return ChainConfig(100.0).at_alpha_x(alpha_x)


# every public analytics entry point with its parameters, called at these
# in-domain values with one parameter replaced by each value outside it
_IN_DOMAIN = {"alpha_x": 10.0, "n_relays": 1, "eta": 0.5, "p_dark": 1e-5,
              "s_target": 10.0, "clock_hz": 1e9, "s": 3.0, "x1_km": 40.0,
              "distance_km": 100.0, "atten_per_km": 0.05}
_OUTSIDE = {
    "alpha_x": (math.nan, math.inf, -math.inf, -1.0),
    "n_relays": (math.nan, math.inf, -1, 1.5, True),
    "eta": (math.nan, math.inf, -math.inf, -1.0, 0.0, 2.0),
    "p_dark": (math.nan, math.inf, -math.inf, -1.0, 0.5),
    "s_target": (math.nan, math.inf, -math.inf, -1.0, 0.0),
    "clock_hz": (math.nan, math.inf, -math.inf, -1.0),
    "s": (math.nan, -math.inf, -1.0),       # S = inf is Q_B = 0
    "x1_km": (math.nan, math.inf, -math.inf, -1.0),
    "distance_km": (math.nan, math.inf, -math.inf, -1.0),
    "atten_per_km": (math.nan, math.inf, -math.inf, -1.0, 0.0),
}
_ENTRY_POINTS = (
    (ChainConfig, ("distance_km", "atten_per_km", "n_relays", "eta",
                   "p_dark")),
    (_rescaled, ("alpha_x",)),
    (qber_from_snr, ("s",)),
    (snr_no_relay, ("p_dark", "alpha_x")),
    (snr_n_relays, ("alpha_x", "n_relays", "eta", "p_dark")),
    (snr_exact, ("alpha_x", "n_relays", "eta", "p_dark")),
    (_noise_closing_the_span, ("x1_km",)),
    (solve_range_alpha_x, ("n_relays", "eta", "p_dark", "s_target")),
    (range_enhancement, ("n_relays", "eta", "p_dark", "s_target")),
    (raw_rate, ("clock_hz", "alpha_x")),
)
_OUT_OF_DOMAIN_CALLS = [
    (entry, tuple(value if p == name else _IN_DOMAIN[p] for p in params))
    for entry, params in _ENTRY_POINTS
    for name in params for value in _OUTSIDE[name]] + [
    # in the relay domain's complement only through eta + 2 p_dark > 1
    (solve_range_alpha_x, (1, 0.5, 0.7, 0.1)),
]


@pytest.mark.parametrize("entry, args", _OUT_OF_DOMAIN_CALLS, ids=[
    f"{entry.__name__}{args!r}" for entry, args in _OUT_OF_DOMAIN_CALLS])
def test_every_entry_point_rejects_inputs_outside_its_domain(entry, args):
    with pytest.raises(ValueError):
        entry(*args)


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

