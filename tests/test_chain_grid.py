"""The chain's closed form against the event rules of an independent oracle.

run_chain (any positions) and snr_exact (the optimal pattern over a grid of
attenuation lengths) evaluate the closed form in analytics. The reference is
markov_chain_reference in tests/oracles.py, which applies the paper's event
rules one segment and one relay at a time. They must agree to
REL_BOUND * max(1, alpha_x) relative, and an exact zero, inf or nan of one
must be exactly that in the others. The factor alpha_x is the conditioning
of e^(-alpha_x): the paths round the exponents of the segment transmissions
differently (snr_exact works in attenuation lengths, the others from km),
and an absolute error in an exponent is a relative one in the result. The
closed form takes snr and q_b from the noise exponent K, which conditions
them as FORM_BOUND's comment says.
"""

import json
import math
import random
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qrelay import cli
from qrelay.analytics import (ChainConfig, _alpha_x_at_snr, _snr_curve,
                              optimal_positions, qber_from_snr, snr_exact,
                              snr_n_relays, solve_range_alpha_x)
from qrelay.chain import run_chain

from oracles import (clamped_rel_dev_allowance, decimal_first_order_snr,
                     decimal_log_noise, decimal_noise_excess,
                     decimal_rel_dev_reference,
                     decimal_snr_reference, inverse_conditioning,
                     log_uniform, markov_chain_reference, read_report)

DATA = Path(__file__).parent / "data"

# Four times the largest deviation / max(1, alpha_x) measured over every
# comparison in this file: 1.017e-15, on run_chain's snr at alpha_x <= 1
REL_BOUND = 4.07e-15
# Four times the largest deviation / max(1, alpha_x, K) of snr_exact from the
# Decimal product form over 5,000 derandomized examples of
# test_binomial_form_matches_the_decimal_product_form: 5.13e-15, at a
# subnormal p_dark (now refused), where 2 p_dark/eta itself rounded on the
# subnormal grid.
# K = ln(1 + 1/S) is the conditioning of S = 1/expm1(K): an absolute error
# in K is a relative one in S, and the clamped branch reaches K ~ 66
FORM_BOUND = 2.05e-14
# below the smallest normal double, relative precision is not defined
_FLOOR = sys.float_info.min


def deviation(got, want):
    """Relative deviation of got from want, inf where they cannot agree.

    Infinities and nans must match exactly, and so must a zero against a
    normal double; otherwise the difference is taken relative to the larger
    magnitude, floored at the smallest normal double. Below that floor two
    products of the same factors, multiplied in another order, can round
    to 0 and to the least subnormal, so there a zero is held to the floor.
    """
    got, want = float(got), float(want)
    if math.isnan(got) or math.isnan(want):
        return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
    if got == want:
        return 0.0
    if (math.isinf(got) or math.isinf(want)
            or 0.0 in (got, want) and max(abs(got), abs(want)) >= _FLOOR):
        return math.inf
    return abs(got - want) / max(abs(got), abs(want), _FLOOR)


def assert_close(got, want, alpha_x, where):
    dev = deviation(got, want)
    assert dev <= REL_BOUND * max(1.0, alpha_x), (where, got, want, dev)


def assert_decimal_close(got, want, alpha_x, where, bound=REL_BOUND):
    """got against a Decimal reference, relative above _FLOOR as deviation."""
    if math.isinf(got) or want.is_infinite():
        dev = 0.0 if got == float(want) else math.inf
    else:
        dev = float(abs(Decimal(got) - want) / max(want, Decimal(_FLOOR)))
    assert dev <= bound * max(1.0, alpha_x), (where, got, want, dev)


def assert_reports_close(got, want, alpha_x, p_dark, where):
    for f in ("p_s", "p_n"):
        assert_close(getattr(got, f), getattr(want, f), alpha_x, (where, f))
    # the ratios inherit the inputs' precision, lost below the normal range.
    # p_n is exactly 0 only without dark counts; with them, p_n and p_s
    # reach 0 by underflow, where the reference's ratio is inf, 0 or 0/0
    # and run_chain takes its own from the noise exponent
    if want.p_s >= _FLOOR and (want.p_n >= _FLOOR or p_dark == 0.0):
        # S = 1/expm1(K): an absolute error in K is a relative one in S
        k = math.log1p(want.p_n / want.p_s)
        for f in ("snr", "q_b"):
            assert_close(getattr(got, f), getattr(want, f), max(alpha_x, k),
                         (where, f))


@st.composite
def chains(draw):
    p_dark = draw(st.floats(0.0, 1e-2, allow_subnormal=False))
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
# p_n underflows to 0 at p_dark = 2.2e-308 while S = 5.8e290 is a double
@example(cfg=ChainConfig(0.0, 1.0, 1, 1.0, 2.2250738585072014e-308),
         extra=[75.0], frac=0.0)
# K = 12.1 at alpha_x = 0 conditions the closed form's snr
@example(cfg=ChainConfig(0.0, 1.0, 11, 0.01, 0.01), extra=[], frac=0.0)
# the least p_dark behind relays of eta < 1, and tiny ones where p_s and
# p_n underflow: at subnormal p_darks (now refused) 2 p_dark/eta kept few
# digits, and run_chain's snr was 6.9e-13, 9.6% and 8.6% off here
@example(cfg=ChainConfig(0.0, 1.0, 1, 0.875, sys.float_info.min),
         extra=[52.0], frac=0.0)
@example(cfg=ChainConfig(0.0, 1.0, 7, 0.7472325776902766, 1e-300),
         extra=[449.3483011721543], frac=0.0)
@example(cfg=ChainConfig(0.0, 1.0, 9, 0.8841418054231867, 1e-300),
         extra=[633.2093188401786], frac=0.0)
def test_closed_form_agrees_with_step_maps_and_oracle(cfg, extra, frac):
    # 0, the clamped region alpha_x <= ln(1/eta) and its edge, then anything
    # up to where exp(-alpha_x) underflows
    edge = -math.log(cfg.eta)
    for ax in [0.0, frac * edge, edge] + extra:
        point = cfg.at_alpha_x(ax)
        want = markov_chain_reference(point)
        assert_reports_close(run_chain(point), want, ax, cfg.p_dark,
                             ("run_chain", ax))
        pattern = snr_exact(ax, cfg.n_relays, cfg.eta, cfg.p_dark)
        if 0.0 in (want.p_s, want.p_n):
            # the reference's p_s = (eta t)^(N+1), or p_n with it, underflows
            # to 0 while S may still be a double; the product form in
            # Decimal does not underflow
            assert_decimal_close(pattern, decimal_snr_reference(
                ax, cfg.n_relays, cfg.eta, cfg.p_dark), ax, ("snr_exact", ax))
            # and run_chain's ratio, from its noise exponent, is that S
            k = math.log1p(1.0 / pattern) if pattern > 0.0 else ax
            assert_close(run_chain(point).snr, pattern, max(ax, k),
                         ("run_chain snr", ax))
        else:
            assert_reports_close(want._replace(snr=pattern,
                                               q_b=qber_from_snr(pattern)),
                                 want, ax, cfg.p_dark, ("snr_exact", ax))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 64), eta=st.floats(0.01, 1.0),
       p_dark=st.floats(0.0, 1e-2, allow_subnormal=False),
       frac=st.floats(0.0, 1.0), far=st.floats(0.0, 800.0))
# the least p_dark, on the clamped branch and in the interior: at
# p_dark = 3.1e-311 (now refused) N relay terms each rounded on the
# subnormal grid put the first 2.08e-14 off, and u the second 2.30e-14
@example(n=64, eta=0.6505715085313096, p_dark=sys.float_info.min, frac=0.0,
         far=0.0)
@example(n=64, eta=0.6505715085313096, p_dark=sys.float_info.min, frac=0.0,
         far=0.5)
def test_binomial_form_matches_the_decimal_product_form(n, eta, p_dark, frac,
                                                        far):
    # the interior, N = 0, and the clamped branch alpha_x <= ln(1/eta) with
    # its edge, against 60 digits of the product form
    assume(eta + 2.0 * p_dark <= 1.0)
    edge = -math.log(eta)
    for ax in (0.0, frac * edge, edge, far):
        want = decimal_snr_reference(ax, n, eta, p_dark)
        k = float((1 + 1 / want).ln()) if 0 < want < math.inf else 0.0
        assert_decimal_close(snr_exact(ax, n, eta, p_dark), want,
                             max(ax, k), (n, eta, p_dark, ax),
                             bound=FORM_BOUND)


# The whole domain: p_dark = 0 or log-uniform down to the least normal
# double, eta down to 1e-300, N <= 1000 and alpha_x up to 1e5
_DOMAIN = {"n": st.integers(0, 1000),
           "eta": st.one_of(st.floats(0.01, 1.0), log_uniform(1e-300, 1.0)),
           "p_dark": st.one_of(st.just(0.0),
                               log_uniform(sys.float_info.min, 0.49)),
           "alpha_x": st.one_of(st.floats(0.0, 1e5), log_uniform(1e-3, 1e5))}

# Each value against its Decimal reference, within DOMAIN_BOUND machine
# epsilons times its conditioning, relative to the reference, plus one step
# of the subnormal grid, the most a value below the normal range keeps.
# The conditioning is the size of the exponent whose rounding the value
# inherits: alpha_x/(N+1) or ln(1/eta) in S_1; alpha_x + N ln(1/eta)/(N+1)
# or K in S and K; y = (alpha_x - N ln eta)/(N+1) in the interior rel_dev.
# 8 is four times the largest ratio, 1.96 on S_1, measured over 12,000
# random points of this domain. The clamped rel_dev is held relative to its
# size too, within CLAMPED_BOUND machine epsilons plus what it inherits from
# the rounding of ln eta (see oracles.clamped_rel_dev_allowance): 8 is
# nearly three times the largest ratio, 2.81, measured over 13,479 random
# points of the clamped branch (N <= 1000, eta down to 1e-300, p_dark down
# to 5e-324, a quarter of them on the clamp edge); a seeded redraw of as
# many points, with h(x) = expm1(x) - x taken as x expm1(g(x)), read 2.20
DOMAIN_BOUND = 8
CLAMPED_BOUND = 8


def assert_domain_close(got, want, cond, where):
    if math.isinf(got) or want.is_infinite():
        assert got == float(want), (where, got, want)
        return
    err = abs(Decimal(got) - want)
    allowed = (Decimal(DOMAIN_BOUND * sys.float_info.epsilon * cond) * want
               + Decimal(math.ulp(0.0)))
    assert err <= allowed, (where, got, want, float(err / max(
        want, Decimal(math.ulp(0.0)))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frac=st.floats(0.0, 1.0), **_DOMAIN)
# `qrelay snr --pd 1e-20 --n-relays 4 --alpha-x 10` wrote rel_dev 7.1e-15
# for 5.146e-19, and `--pd 1e-300 --eta 0.99 --n-relays 4 --alpha-x 0.1`
# 1.1e-13 for 4.114e-300: the difference of two logs has an absolute floor
@example(n=4, eta=0.5, p_dark=1e-20, alpha_x=10.0, frac=0.0)
@example(n=4, eta=0.99, p_dark=1e-300, alpha_x=0.1, frac=0.0)
def test_snr_columns_over_the_whole_domain(n, eta, p_dark, alpha_x, frac):
    # s_analytic, s_exact and rel_dev as `qrelay snr` writes them, at a
    # drawn point and at one on the clamped branch, alpha_x <= ln(1/eta)
    assume(eta + 2.0 * p_dark <= 1.0)
    m, ln_eta = n + 1, -math.log(eta)
    for ax in (alpha_x, frac * ln_eta):
        (s_1, s, _, dev), = _snr_curve([ax], n, eta, p_dark)
        where = (n, eta, p_dark, ax)
        assert_domain_close(s_1, decimal_first_order_snr(ax, n, eta, p_dark),
                            max(1.0, ax / m, ln_eta), ("s_analytic", where))
        want = decimal_snr_reference(ax, n, eta, p_dark)
        k = float((1 + 1 / want).ln()) if 0 < want < math.inf else 0.0
        assert_domain_close(s, want, max(1.0, ax + n * ln_eta / m, k),
                            ("s_exact", where))
        if n and ax <= ln_eta:
            assert_clamped_close(dev, *where)
        else:
            assert_domain_close(dev, decimal_rel_dev_reference(ax, n, eta,
                                                               p_dark),
                                max(1.0, (ax + n * ln_eta) / m),
                                ("rel_dev", where))


def assert_clamped_close(dev, n, eta, p_dark, ax):
    want, allowed = clamped_rel_dev_allowance(ax, n, eta, p_dark,
                                              CLAMPED_BOUND)
    assert abs(Decimal(dev) - want) <= allowed, (
        "clamped rel_dev", (n, eta, p_dark, ax), dev, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frac=st.floats(0.0, 1.0), n=st.integers(1, 1000),
       eta=_DOMAIN["eta"], p_dark=_DOMAIN["p_dark"])
# `qrelay snr --n-relays 673 --eta 0.7595298071364913 --pd
# 4.8639012522493653e-20 --alpha-x 0.27450416626345975` wrote rel_dev
# 2.2529350523432567e-10 for 2.2529356509456671e-10, 2.7e-7 off: S and S_1
# agree to ten digits there, and their difference kept the rest
@example(frac=0.9979947854455621, n=673, eta=0.7595298071364913,
         p_dark=4.8639012522493653e-20)
@example(frac=1.0, n=4, eta=0.5, p_dark=1e-5)
@example(frac=0.5, n=1, eta=1e-300, p_dark=sys.float_info.min)
def test_clamped_rel_dev_is_held_relative_to_its_size(frac, n, eta, p_dark):
    # on the clamped branch, alpha_x <= ln(1/eta), rel_dev is -expm1 of
    # ln r = -f(d) - D, each part to full relative precision, so it keeps
    # its digits up to the clamp edge, where it falls to N u/2
    assume(eta + 2.0 * p_dark <= 1.0)
    ax = frac * -math.log(eta)
    (_, _, _, dev), = _snr_curve([ax], n, eta, p_dark)
    assert_clamped_close(dev, n, eta, p_dark, ax)


# The inverse at a target SNR within INVERSE_BOUND machine epsilons of its
# conditioning (oracles.inverse_conditioning): 8 is four times the largest
# ratio, 2.0, measured over 1,974 random targets (N <= 1000, eta down to
# 1e-300, p_dark down to 5e-324; half drawn from 1e-3 to 1e8, half the SNR
# of a point on the clamped branch or just past its edge)
INVERSE_BOUND = 8


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=log_uniform(1e-3, 1e8), frac=st.floats(0.0, 1.0),
       n=_DOMAIN["n"], eta=_DOMAIN["eta"], p_dark=_DOMAIN["p_dark"])
# the throughput cutoff on its clamped branch (N = 2, p_dark = 0.02) and
# at N = 1000
@example(s=3.9137537009903323, frac=0.0, n=2, eta=0.5, p_dark=0.02)
@example(s=3.9137537009903323, frac=0.5, n=1000, eta=0.5, p_dark=1e-5)
@example(s=1e8, frac=1.0, n=1000, eta=1e-300, p_dark=sys.float_info.min)
# the float K(0) one ulp below K* though the decimal S(0) is below the
# target: the inverse returns alpha x = 10.0358, where K is 0.9 K* epsilons
# above K*, and the allowance linearized there reached down to 0.94
@example(s=1.0, frac=0.0, n=33, eta=math.exp(-43.0), p_dark=math.exp(-44.0))
# targets below 2^-1024, where 1/S overflows, so K* is log1p(S) - ln S;
# at the subnormal one K*/(N+1) = 744 is past expm1's range
@example(s=5e-309, frac=0.0, n=0, eta=0.5, p_dark=1e-5)
@example(s=5e-309, frac=0.0, n=1, eta=0.5, p_dark=1e-5)
@example(s=5e-324, frac=0.0, n=0, eta=0.5, p_dark=1e-5)
def test_alpha_x_at_snr_brackets_the_target(s, frac, n, eta, p_dark):
    # at a drawn SNR and at the SNR of the point alpha x = frac ln(1/eta),
    # on the clamped branch where N >= 1: at alpha x -/+ the allowance the
    # decimal S brackets the target, and where the bracket reaches 0 (or
    # the inverse returns 0) K(0) is K* within as many epsilons. On the
    # clamped branch K = N L + log1p(x), x = 2 p_dark e^(alpha x), whose
    # slope x/(1 + x) shrinks e-fold per unit step down in alpha x, so a
    # step linearized at the returned point can overshoot the root: there
    # the allowance, the step times that slope, is compared in K
    assume(eta + 2.0 * p_dark <= 1.0)
    if p_dark == 0.0:
        assert _alpha_x_at_snr(s, n, eta, p_dark) == math.inf
        return
    clamped = float(decimal_snr_reference(frac * -math.log(eta), n, eta,
                                          p_dark))
    tol = Decimal(INVERSE_BOUND * sys.float_info.epsilon)
    for target in (s, clamped):
        if not 0.0 < target < math.inf:
            continue
        ax = _alpha_x_at_snr(target, n, eta, p_dark)
        where = (target, n, eta, p_dark, ax)
        # with dark counts every target > 0 has a finite range
        assert ax < math.inf, where
        step = INVERSE_BOUND * sys.float_info.epsilon * inverse_conditioning(
            ax, target, n, eta, p_dark)
        want = Decimal(target)
        k_star = (1 + 1 / want).ln()
        if n and 0.0 < ax <= -math.log(eta):
            x = 2.0 * p_dark * math.exp(ax)
            k_at = (1 + 1 / decimal_snr_reference(ax, n, eta, p_dark)).ln()
            assert abs(k_at - k_star) <= Decimal(step * x / (1.0 + x)), where
            continue
        # no range in this domain reaches 1e6; a wider bracket says nothing
        if ax + step < 1e6:
            assert decimal_snr_reference(ax + step, n, eta, p_dark) <= want, \
                where
        if ax - step > 0.0:
            assert decimal_snr_reference(ax - step, n, eta, p_dark) >= want, \
                where
        else:
            k_0 = (1 + 1 / decimal_snr_reference(0.0, n, eta, p_dark)).ln()
            assert (k_0 >= k_star * (1 - tol) if ax == 0.0
                    else k_0 <= k_star * (1 + tol)), where


# The first-order inverse, solve_range_alpha_x, alpha x = (N+1) (-ln(N+1)
# - ln S - ln(2 p_dark)) + N ln eta, adds logs each rounded once, so its
# absolute error is a few epsilons of the sum of their sizes, and ln S_1
# moves by 1/(N+1) of it: |d ln S_1/d alpha x| = 1/(N+1). So at the
# returned alpha x, ln(S_1/S) is held to FIRST_ORDER_BOUND epsilons of
# first_order_conditioning. 6 is four times the largest ratio, 1.49,
# measured over 20,000 random draws of this domain with S down to 5e-324
FIRST_ORDER_BOUND = 6


def first_order_conditioning(n, eta, p_dark, s):
    """The sizes of the logs in the first-order range, over N + 1."""
    m = n + 1
    return (m * (math.log(m) + abs(math.log(s)) + abs(math.log(2.0 * p_dark)))
            + n * abs(math.log(eta))) / m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=log_uniform(5e-324, 1e8), n=_DOMAIN["n"], eta=_DOMAIN["eta"],
       p_dark=_DOMAIN["p_dark"])
# criterion 05's ranges, a subnormal p_dark s_target, and the far corner
@example(s=1.0, n=1, eta=0.5, p_dark=1e-5)
@example(s=1e-20, n=1, eta=0.5, p_dark=1e-300)
@example(s=5e-324, n=1000, eta=1e-300, p_dark=sys.float_info.min)
def test_first_order_range_hits_the_target(s, n, eta, p_dark):
    # at the returned alpha x the decimal first-order SNR is the target
    # within the bound; where the range is refused, there is no dark count
    # or alpha x = 0 already misses the target within as much
    assume(eta + 2.0 * p_dark <= 1.0)
    if p_dark == 0.0:
        with pytest.raises(ValueError, match="no positive finite range"):
            solve_range_alpha_x(n, eta, p_dark, s)
        return
    tol = Decimal(FIRST_ORDER_BOUND * sys.float_info.epsilon
                  * first_order_conditioning(n, eta, p_dark, s))
    try:
        ax = solve_range_alpha_x(n, eta, p_dark, s)
    except ValueError as err:
        assert str(err).startswith("no positive finite range"), err
        s_0 = decimal_first_order_snr(0.0, n, eta, p_dark)
        assert (s_0 / Decimal(s)).ln() <= tol, (s, n, eta, p_dark, s_0)
        return
    got = decimal_first_order_snr(ax, n, eta, p_dark)
    assert abs((got / Decimal(s)).ln()) <= tol, (s, n, eta, p_dark, ax, got)


# ln p_n against decimal_log_noise within LOG_NOISE_BOUND machine epsilons
# of max(N + 1, |ln p_n|), wherever p_n is. The kernel sums the logs of the
# N + 2 factors of p_n, each factor rounded once or twice, each log with its
# rest, so the sum is rounded once; no term grows with alpha_x, as in
# ln p_s + ln expm1(K) (-alpha x against +alpha x). 2.7 is nearly three
# times the largest ratio over 3,000 derandomized examples each of
# test_chain_at_random_positions_over_the_whole_domain (0.97, at N = 0 and
# ln p_n = -0.41) and test_log_p_n_over_the_whole_domain (0.89)
LOG_NOISE_BOUND = 2.7


def assert_log_p_n_close(got, want, n, where):
    assert abs(Decimal(got) - want) <= Decimal(
        LOG_NOISE_BOUND * sys.float_info.epsilon
        * max(n + 1, abs(float(want)))
    ), (where, got, float(want))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), **_DOMAIN)
def test_chain_at_random_positions_over_the_whole_domain(n, eta, p_dark,
                                                         alpha_x, seed):
    # run_chain's ln p_n and snr at random relay positions against
    # p_n/p_s in Decimal. K sums N + 1 terms, rounding N times, so S's
    # conditioning is its exponent's times N + 1
    assume(eta + 2.0 * p_dark <= 1.0)
    rng = random.Random(seed)
    positions = sorted(rng.uniform(0.0, alpha_x) for _ in range(n))
    cfg = ChainConfig(alpha_x, 1.0, n, eta, p_dark)
    got = run_chain(cfg, positions)
    if p_dark == 0.0:
        assert got.snr == math.inf
        assert got.log_p_n == -math.inf
        return
    with localcontext() as ctx:
        ctx.prec = 40
        excess = decimal_noise_excess(cfg, positions)
        k = float((1 + excess).ln())
    cond = (n + 1) * max(1.0, alpha_x, n * -math.log(eta), k)
    assert_domain_close(got.snr, 1 / excess, cond, ("snr", seed))
    assert_log_p_n_close(got.log_p_n, decimal_log_noise(cfg, positions), n,
                         ("ln p_n", seed))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=_DOMAIN["n"], eta=_DOMAIN["eta"],
       p_dark=log_uniform(sys.float_info.min, 0.49),
       distance_km=st.one_of(st.floats(0.0, 1e5), log_uniform(1e-3, 1e300)),
       atten=st.sampled_from([0.05, 1.0, 10.0]),
       seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
# `qrelay optimize --n-relays 100` wrote ln p_n = -1024.0 at 1e20 km, 65536.0
# at 1e22 km and 0.0 at 1e300 km for 101 ln(2e-5) = -1092.7976067254385
@example(n=100, eta=0.5, p_dark=1e-5, distance_km=1e20, atten=0.05,
         seed=None)
@example(n=100, eta=0.5, p_dark=1e-5, distance_km=1e22, atten=0.05,
         seed=None)
@example(n=100, eta=0.5, p_dark=1e-5, distance_km=1e300, atten=0.05,
         seed=None)
# -32048.5625 for -32048.530474578132
@example(n=64, eta=0.5, p_dark=3.7e-215, distance_km=6.25e15, atten=0.05,
         seed=None)
# a clamped chain whose p_n is below the normal range: -2448.8045000527054,
# about 200 ulps off -2448.8045000526145
@example(n=811, eta=4.9162761621739796e-256, p_dark=0.02441167864678435,
         distance_km=0.0, atten=0.05, seed=None)
def test_log_p_n_over_the_whole_domain(n, eta, p_dark, distance_km, atten,
                                       seed):
    # at the optimum (seed None) or at random positions, alpha x up to
    # 1e301: the bound does not grow with it
    assume(eta + 2.0 * p_dark <= 1.0)
    cfg = ChainConfig(distance_km, atten, n, eta, p_dark)
    positions = (optimal_positions(cfg) if seed is None else sorted(
        random.Random(seed).uniform(0.0, distance_km) for _ in range(n)))
    assert_log_p_n_close(run_chain(cfg, positions).log_p_n,
                         decimal_log_noise(cfg, positions), n, (cfg, seed))


def test_log_p_n_keeps_its_digits_in_the_normal_range():
    # where p_n is a normal double and the noise outweighs the signal,
    # ln p_n keeps its digits: ln p_s + ln expm1(K), whose terms cancel
    # there, was 7,614 ulps off at N = 2, eta = 4.8e-103
    rng, checked = random.Random(20261020), 0
    while checked < 300:
        n = rng.choice([0, 1, 2, 3, 4, 8, 16, 64, 200])
        eta = 10 ** rng.uniform(-3, 0) * rng.choice([1, 1, 1e-100])
        p_dark = min(10 ** rng.uniform(-20, math.log10(0.499)),
                     (1 - eta) / 2)
        atten = rng.choice([0.05, 0.2, 10.0])
        alpha_x = 10 ** rng.uniform(-2, 3.7)
        cfg = ChainConfig(alpha_x / atten, atten, n, eta, p_dark)
        positions = (optimal_positions(cfg) if rng.random() < 0.5 else
                     sorted(rng.uniform(0, cfg.distance_km) for _ in range(n)))
        got = run_chain(cfg, positions)
        if got.p_n < _FLOOR:
            continue
        checked += 1
        assert_log_p_n_close(got.log_p_n, decimal_log_noise(cfg, positions),
                             n, (cfg, positions))


def test_log_p_n_sums_many_large_terms_exactly():
    # `qrelay optimize --distance-km 0 --n-relays 811 --eta
    # 4.9162761621739796e-256 --pd 0.02441167864678435` printed ln p_n =
    # -2448.804500057071 while K was summed left to right: 812 terms near
    # 3, 4.5e-9 off the 40-digit value. Summed exactly, K keeps ln p_n within
    # one rounding of N ln eta, 1.06e-10
    n, eta = 811, 4.9162761621739796e-256
    cfg = ChainConfig(0.0, 0.05, n, eta, 0.02441167864678435)
    want = float(decimal_log_noise(cfg, (0.0,) * n))
    got = run_chain(cfg).log_p_n
    assert abs(got - want) <= sys.float_info.epsilon * n * -math.log(eta), (
        got, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(frac=st.floats(0.0, 1.0), n=_DOMAIN["n"], eta=_DOMAIN["eta"],
       p_dark=log_uniform(sys.float_info.min, 0.49),
       alpha_x=_DOMAIN["alpha_x"])
# the largest S the domain holds, 1/expm1(log1p(2 p_dark)), and a long
# chain of the least p_dark
@example(frac=0.0, n=0, eta=1.0, p_dark=sys.float_info.min, alpha_x=0.0)
@example(frac=0.5, n=64, eta=0.6505715085313096, p_dark=sys.float_info.min,
         alpha_x=1e5)
def test_every_snr_is_finite_at_a_normal_p_dark(frac, n, eta, p_dark,
                                                alpha_x):
    # p_dark normal puts K >= log1p(2 p_dark), so S <= 1/(2 p_dark) and
    # S_1 <= 0.5/p_dark are finite, as is every column of `qrelay snr`:
    # inf means only that there are no dark counts
    from qrelay.throughput import throughput_curve

    assume(eta + 2.0 * p_dark <= 1.0)
    grid = [0.0, frac * -math.log(eta), alpha_x]
    config = ChainConfig(0.0, 1.0, n, eta, p_dark)
    snrs = [snr_n_relays(ax, 0, eta, p_dark) for ax in grid]
    for row in _snr_curve(grid, n, eta, p_dark):
        assert all(map(math.isfinite, row)), (grid, row)
        snrs += row[:2]
    snrs += [point.s for point in throughput_curve(grid, n, eta, p_dark)]
    snrs += [run_chain(config.at_alpha_x(ax)).snr for ax in grid]
    assert all(0.0 <= s <= 0.5 / p_dark for s in snrs), (grid, snrs)


# alpha_x = 0; the clamped branch up to its edge ln(1/eta), past exp's range
# at eta = 1e-305; the interior; and y = (alpha_x - N ln eta)/(N+1) >= 700,
# where u leaves exp's range
_CURVE_GRID = [0.0, 1e-300, 0.1, 0.5, math.log(2.0), 0.7, 1.0, 10.0, 40.0,
               699.0, 700.0, 800.0, 2800.0, 1e4, 1e5]


@pytest.mark.parametrize("n, eta, p_dark", [
    (0, 0.5, 1e-5), (1, 0.5, 1e-5), (4, 0.3, 1e-3), (16, 0.99999, 1e-6),
    (64, 0.6505715085313096, sys.float_info.min), (3, 0.5, 0.0),
    (5, 1.0, 0.0), (1000, 0.01, 4e-3), (2, 1e-305, 1e-6), (0, 0.5, 1e-300)])
def test_curve_forms_match_the_scalar_functions_bit_for_bit(n, eta, p_dark):
    # each formula is written once: the per-curve forms behind snr and
    # throughput give, point by point, the bits of the public functions, and
    # at N = 0 the curve's S_1 is S_0, the same at the least normal eta
    from qrelay.throughput import key_fraction, throughput_curve

    def bits(*values):
        return [float(v).hex() for v in values]

    for ax, snr_row, point in zip(
            _CURVE_GRID, _snr_curve(_CURVE_GRID, n, eta, p_dark),
            throughput_curve(_CURVE_GRID, n, eta, p_dark, 1.2)):
        s_1, s = snr_n_relays(ax, n, eta, p_dark), snr_exact(ax, n, eta,
                                                             p_dark)
        q_b = qber_from_snr(s)
        t_n = key_fraction(q_b, 1.2)
        assert bits(*snr_row[:3]) == bits(s_1, s, q_b), (ax, snr_row)
        if n == 0:
            assert bits(snr_n_relays(ax, 0, sys.float_info.min,
                                     p_dark)) == bits(s_1), ax
        assert bits(*point) == bits(s, q_b, t_n, eta ** n * t_n), (
            ax, point)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_first_order_gap_is_the_binomial_tail(n):
    # S_1/S_exact - 1 = ((1+u)^(N+1) - 1 - (N+1) u)/((N+1) u), the tail
    # sum_{k>=2} C(N+1, k) u^k/((N+1) u); its first term N u/2 is
    # N/(2 (N+1) S_1), the p_d^2 law of acceptance criterion 04
    eta = 0.5
    for p_dark in (1e-7, 1e-5, 1e-3):
        for ax in (1.0, 10.0, 40.0, 100.0):
            with localcontext() as ctx:
                ctx.prec = 60
                u = (2 * Decimal(p_dark) / Decimal(eta)
                     * ((Decimal(ax) + Decimal(eta).ln()) / (n + 1)).exp())
                tail = sum(math.comb(n + 1, k) * u ** k
                           for k in range(2, n + 2)) / ((n + 1) * u)
                first = n * u / 2
            s_1 = snr_n_relays(ax, n, eta, p_dark)
            gap = s_1 / snr_exact(ax, n, eta, p_dark) - 1.0
            # the ratio of two values each within REL_BOUND max(1, alpha_x)
            assert abs(gap - float(tail)) \
                <= (1.0 + float(tail)) * 2 * REL_BOUND * max(1.0, ax)
            assert float(first) == pytest.approx(n / (2 * (n + 1) * s_1),
                                                 rel=4 * REL_BOUND * ax)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=chains(), distance=st.floats(0.0, 2000.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20))
def test_run_chain_at_explicit_positions_within_bound(cfg, distance, fracs):
    n = cfg.n_relays
    positions = sorted(distance * f for f in fracs[:n])
    point = ChainConfig(distance, cfg.atten_per_km, n, cfg.eta, cfg.p_dark)
    want = markov_chain_reference(point, positions)
    assert_reports_close(run_chain(point, positions), want, point.alpha_x,
                         cfg.p_dark, ("run_chain", positions))


@pytest.mark.parametrize("eta, p_dark", [(0.5, 1e-5), (0.9, 1e-3),
                                         (1.0, 0.0)])
def test_grid_agrees_with_markov_oracle(eta, p_dark):
    for n in (0, 1, 2, 5, 13, 20):
        cfg = ChainConfig(distance_km=0.0, atten_per_km=0.2, n_relays=n,
                          eta=eta, p_dark=p_dark)
        for ax in np.linspace(0.0, 80.0, 41).tolist():
            point = cfg.at_alpha_x(ax)
            want = markov_chain_reference(point)
            got = run_chain(point)
            for f in ("p_s", "p_n"):
                assert_close(getattr(got, f), getattr(want, f), ax,
                             ("oracle", n, f))
            snr = want.p_s / want.p_n if p_dark else math.inf
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


def test_grid_non_finite_ratio_rules():
    # no dark counts: only the signal can click. Beyond exp underflow p_s
    # and p_n are both 0, and the reference's ratio becomes nan; the
    # closed form has p_n exactly 0 and p_s positive however far, so
    # run_chain's SNR, like snr_exact's, stays inf and its q_b 0
    cfg = ChainConfig(distance_km=0.0, n_relays=1, p_dark=0.0)
    for ax in (1.0, 1600.0):
        point = cfg.at_alpha_x(ax)
        got, want = run_chain(point), markov_chain_reference(point)
        assert_reports_close(got, want, ax, 0.0, ("run_chain", ax))
        assert got.snr == snr_exact(ax, 1, 0.5, 0.0) == math.inf
        assert got.q_b == 0.0
    assert math.isnan(markov_chain_reference(cfg.at_alpha_x(1600.0)).snr)
    rep = run_chain(cfg.at_alpha_x(1600.0))
    assert rep.p_s == 0.0 and rep.p_n == 0.0
    # with dark counts, a segment of transmission 0 (N = 1, 3) or an S_N
    # that underflows (N = 20) leaves only false gates: no 0 * inf nan, no
    # overflow, and the reference's noise
    for n, ax in ((1, 1600.0), (3, 3200.0), (20, 1600.0)):
        point = ChainConfig(0.0, n_relays=n, p_dark=1e-5).at_alpha_x(ax)
        got = run_chain(point)
        assert_reports_close(got, markov_chain_reference(point), ax, 1e-5,
                             ("run_chain", n))
        assert got.p_s == 0.0 and got.p_n > 0.0
        assert got.snr == 0.0 and got.q_b == 0.5
        assert snr_exact(ax, n, 0.5, 1e-5) == 0.0
    # one relay behind a dead segment: a false gate, then a dark count
    assert run_chain(ChainConfig(0.0, n_relays=1).at_alpha_x(1600.0)).p_n \
        == pytest.approx(4e-10, rel=1e-12)


def _values(path):
    if path.suffix == ".csv":
        rep = read_report(path)
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
        for key in ("log_noise_analytic", "log_noise_numeric"):
            # an absolute error in ln p_n is a relative one in p_n
            got, want = meta.pop(key), want_meta.pop(key)
            assert abs(got - want) <= REL_BOUND * max(1.0, alpha_x), (
                "golden", key, got, want)
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
