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
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qrelay import cli
from qrelay.analytics import (ChainConfig, qber_from_snr, snr_exact,
                              snr_n_relays)
from qrelay.chain import run_chain
from qrelay.reports import read_csv

from oracles import decimal_snr_reference, markov_chain_reference

DATA = Path(__file__).parent / "data"

# Four times the largest deviation / max(1, alpha_x) measured over every
# comparison in this file: 1.017e-15, on run_chain's snr at alpha_x <= 1
REL_BOUND = 4.07e-15
# Four times the largest deviation / max(1, alpha_x, K) of snr_exact from the
# Decimal product form over 5,000 derandomized examples of
# test_binomial_form_matches_the_decimal_product_form: 5.13e-15, at a
# subnormal p_dark, where 2 p_dark/eta itself rounds on the subnormal grid.
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
# p_n underflows to 0 at p_dark = 2.2e-308 while S = 5.8e290 is a double
@example(cfg=ChainConfig(0.0, 1.0, 1, 1.0, 2.2250738585072014e-308),
         extra=[75.0], frac=0.0)
# K = 12.1 at alpha_x = 0 conditions the closed form's snr
@example(cfg=ChainConfig(0.0, 1.0, 11, 0.01, 0.01), extra=[], frac=0.0)
# 2 p_dark/eta on the subnormal grid keeps few digits, none at 5e-324:
# run_chain's snr was 6.9e-13, 9.6% and 8.6% off the product form here
@example(cfg=ChainConfig(0.0, 1.0, 1, 0.875, 2.2250738585e-313),
         extra=[52.0], frac=0.0)
@example(cfg=ChainConfig(0.0, 1.0, 7, 0.7472325776902766, 5e-324),
         extra=[449.3483011721543], frac=0.0)
@example(cfg=ChainConfig(0.0, 1.0, 9, 0.8841418054231867, 1e-323),
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
       p_dark=st.floats(0.0, 1e-2), frac=st.floats(0.0, 1.0),
       far=st.floats(0.0, 800.0))
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
    placed = cfg.with_positions((10.0, 20.0))
    with pytest.raises(ValueError):
        placed.at_alpha_x(1.0)


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
