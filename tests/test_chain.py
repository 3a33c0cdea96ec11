import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrelay.analytics import (ChainConfig, optimal_positions, snr_exact,
                              snr_n_relays)
from qrelay.chain import _binomial, run_chain, sample_chain, search_positions
from qrelay.circuit import gate_probability

from oracles import (TRANSMITTED, apply_relay, decimal_log_noise,
                     markov_chain_reference, propagate_segment,
                     receiver_detect)

# The oracle's event rules act on slot states (p_sig, p_rnd, p_empty,
# p_nogate); the first tests pin the rules themselves, the rest check the
# package against them


def test_propagate_segment():
    st = propagate_segment(TRANSMITTED, 1.0)
    assert st[0] == pytest.approx(math.exp(-1))
    assert st[2] == pytest.approx(1 - math.exp(-1))
    assert st[1] == 0.0 and st[3] == 0.0
    # zero length is the identity
    assert propagate_segment(st, 0.0) == st
    # semigroup: two segments compose additively
    two = propagate_segment(propagate_segment(TRANSMITTED, 0.7), 0.5)
    one = propagate_segment(TRANSMITTED, 1.2)
    assert two[0] == pytest.approx(one[0], rel=1e-15)
    # vetoed mass is untouched by fiber
    vetoed = (0.0, 0.0, 0.0, 1.0)
    assert propagate_segment(vetoed, 3.0) == vetoed


def test_apply_relay_weights():
    out = apply_relay(TRANSMITTED, 0.5, 1e-5)
    assert out[0] == pytest.approx(0.5, abs=1e-15)
    assert out[1] == pytest.approx(2e-5, abs=1e-18)
    assert out[2] == 0.0
    # dark-count-free relay on a fresh slot: (eta, 0, 0, 1 - eta)
    assert apply_relay(TRANSMITTED, 0.5, 0.0) == (0.5, 0.0, 0.0, 0.5)
    # an empty gated slot false-gates with probability 2 p_dark
    out = apply_relay((0.0, 0.0, 1.0, 0.0), 0.5, 1e-5)
    assert out[1] == pytest.approx(2e-5, abs=1e-18)
    assert out[3] == pytest.approx(1 - 2e-5, abs=1e-15)
    # generic state, exact bookkeeping
    out = apply_relay((0.4, 0.1, 0.3, 0.2), 0.5, 1e-5)
    assert out[0] == pytest.approx(0.5 * 0.4, abs=1e-15)
    assert out[1] == pytest.approx(0.5 * 0.1 + 2e-5 * 0.8, abs=1e-15)
    assert out[2] == 0.0


def test_apply_relay_matches_single_slot_device_map():
    # a slot holding a photon with probability p1, else empty and gated:
    # the relay passes eta*p1, false-gates 2*p_dark, and vetoes the rest
    for p1 in (1.0, 0.6, 0.5, 0.4, 0.0):
        out = apply_relay((p1, 0.0, 1.0 - p1, 0.0), 0.5, 1e-5)
        assert out[0] == pytest.approx(0.5 * p1, abs=1e-15)
        assert out[1] == pytest.approx(2e-5, abs=1e-18)
        assert out[2] == 0.0
        assert out[3] == pytest.approx(1.0 - 0.5 * p1 - 2e-5, abs=1e-15)
    # without dark counts the rule equals the simulated device: a photon
    # passes with the device's gate probability, vacuum never gates
    for p1 in (1.0, 0.6, 0.0):
        out = apply_relay((p1, 0.0, 1.0 - p1, 0.0), gate_probability(1), 0.0)
        assert out[0] == pytest.approx(p1 * gate_probability(1), abs=1e-15)
        assert out[1] == pytest.approx(
            (1.0 - p1) * gate_probability(0), abs=1e-15)
    # the same holds for the rule that commands run: one relay at the
    # transmitter, then fiber of transmission t to the receiver
    t = math.exp(-0.5)
    device = ChainConfig(10.0, n_relays=1, eta=gate_probability(1),
                         p_dark=0.0)
    rep = run_chain(device, (0.0,))
    assert rep.p_s == pytest.approx(gate_probability(1) * t, abs=1e-15)
    assert rep.p_n == pytest.approx(gate_probability(0), abs=1e-15)
    n = 10**12
    got = sample_chain(device, n, seed=4, positions_km=(0.0,))
    assert got.noise_events == got.state_counts["random"] == 0
    assert abs(got.p_s - rep.p_s) < 4.0 * math.sqrt(
        rep.p_s * (1.0 - rep.p_s) / n)
    # with dark counts the sampler draws the law of the same rule
    noisy = ChainConfig(10.0, n_relays=1, eta=0.5, p_dark=1e-5)
    z_s, z_n, chi2 = sampled_law(noisy, n, seed=4, positions_km=(0.0,))
    assert abs(z_s) < 4.0
    assert abs(z_n) < 4.0
    assert chi2 < 26.1


def test_transition_maps_exactly_stochastic():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        st = tuple(map(float, rng.dirichlet(np.ones(4))))
        seg = propagate_segment(st, float(rng.uniform(0, 3)))
        rel = apply_relay(st, 0.5, 1e-4)
        for out in (seg, rel):
            assert abs(sum(out) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       alpha_x=st.floats(0.0, 800.0), eta=st.floats(1e-3, 1.0),
       p_dark=st.floats(0.0, 0.5, exclude_max=True))
def test_step_maps_keep_states_stochastic(weights, alpha_x, eta, p_dark):
    assume(sum(weights) > 0.0 and eta + 2.0 * p_dark <= 1.0)
    total = math.fsum(weights)
    state = tuple(w / total for w in weights)
    # in [0, 1] and summing to 1 within rounding
    for out in (propagate_segment(state, alpha_x),
                apply_relay(state, eta, p_dark)):
        assert all(0.0 <= v <= 1.0 + 1e-15 for v in out), out
        assert abs(math.fsum(out) - 1.0) <= 1e-15, out


def test_receiver_detect():
    p_s, p_n, snr, q_b = receiver_detect(TRANSMITTED, 1e-5)
    assert p_s == 1.0
    assert p_n == pytest.approx(2e-5, abs=1e-18)
    assert snr == pytest.approx(5e4)
    assert q_b == pytest.approx(0.5 * p_n / (p_n + p_s))
    # fully vetoed chain: nothing can click
    p_s, p_n, snr, q_b = receiver_detect((0.0, 0.0, 0.0, 1.0), 1e-5)
    assert p_s == 0.0 and p_n == 0.0
    assert math.isnan(snr) and math.isnan(q_b)
    # pure spurious photon: noise 1 + 2 p_dark, QBER near 1/2
    _, p_n, _, q_b = receiver_detect((0.0, 1.0, 0.0, 0.0), 1e-5)
    assert p_n == pytest.approx(1 + 2e-5)
    assert q_b == pytest.approx(0.5)
    # noise-free sentinel
    assert math.isinf(receiver_detect(TRANSMITTED, 0.0)[2])


def test_run_chain_matches_markov_reference():
    rng = np.random.default_rng(23)
    for n in (0, 1, 2, 3, 5):
        for _ in range(4):
            x = float(rng.uniform(10, 300))
            pos = sorted(float(rng.uniform(0, x)) for _ in range(n))
            cfg = ChainConfig(distance_km=x, atten_per_km=0.05, n_relays=n,
                              eta=0.5, p_dark=1e-5)
            got = run_chain(cfg, pos)
            want = markov_chain_reference(cfg, pos)
            assert got.p_s == pytest.approx(want.p_s, rel=1e-13, abs=1e-300)
            assert got.p_n == pytest.approx(want.p_n, rel=1e-13, abs=1e-300)


def test_run_chain_against_first_order_formula():
    # moderate range: exact propagation within a fraction of a percent of the
    # first-order curve, far tighter than the 5 percent acceptance band
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    rep = run_chain(cfg)
    s_formula = snr_n_relays(cfg.alpha_x, 1, cfg.eta, cfg.p_dark)
    assert rep.snr == pytest.approx(s_formula, rel=1e-3)
    # no-relay chain recovers the direct-transmission SNR to O(p_dark)
    cfg0 = ChainConfig(distance_km=100.0)
    rep0 = run_chain(cfg0)
    assert rep0.snr == pytest.approx(snr_n_relays(5.0, 0, 0.5, 1e-5),
                                     rel=1e-10)


def test_position_sources_and_overrides():
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    default = run_chain(cfg)
    explicit = run_chain(cfg, positions_km=(43.06852819440055,))
    assert default.p_n == pytest.approx(explicit.p_n, rel=1e-12)
    worse = run_chain(cfg, positions_km=(10.0,))
    assert worse.p_n > default.p_n
    with pytest.raises(ValueError):
        run_chain(cfg, positions_km=(10.0, 20.0))
    with pytest.raises(ValueError):
        run_chain(cfg._replace(n_relays=2),
                  positions_km=(50.0, 20.0))


@pytest.mark.parametrize("position", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_are_refused(position):
    # every function that takes explicit positions checks them, finiteness
    # included: a nan once gave p_s = p_n = snr = nan, and the sampler died
    # converting it
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    for call in (lambda pos: run_chain(cfg, pos),
                 lambda pos: sample_chain(cfg, 1000, 1, pos)):
        with pytest.raises(ValueError, match="non-decreasing"):
            call([position])


def test_degenerate_chains():
    # zero distance with relays stacked at the transmitter
    cfg = ChainConfig(distance_km=0.0, n_relays=2)
    rep = run_chain(cfg)
    assert rep.p_s == pytest.approx(0.25, abs=1e-12)
    assert rep.snr > 0
    # relay exactly at the receiver end
    end = run_chain(ChainConfig(distance_km=50.0, n_relays=1), (50.0,))
    assert end.p_s == pytest.approx(0.5 * math.exp(-2.5), rel=1e-12)


def test_nogate_mass_is_monotone():
    cfg = ChainConfig(distance_km=200.0, n_relays=4)
    positions = optimal_positions(cfg)
    state = TRANSMITTED
    last = 0.0
    pts = (0.0,) + positions + (200.0,)
    for i in range(len(pts) - 1):
        state = propagate_segment(state, 0.05 * (pts[i + 1] - pts[i]))
        assert state[3] >= last
        last = state[3]
        if i < 4:
            state = apply_relay(state, cfg.eta, cfg.p_dark)
            assert state[3] >= last
            last = state[3]


def test_gate_suppression_beyond_crossover():
    # past the crossover range, a relay strictly reduces receiver noise
    long = ChainConfig(distance_km=400.0, n_relays=0)
    with_relay = ChainConfig(distance_km=400.0, n_relays=1)
    assert run_chain(with_relay).p_n < run_chain(long).p_n
    # and strictly increases it at very short range
    short0 = ChainConfig(distance_km=1.0, n_relays=0)
    short1 = ChainConfig(distance_km=1.0, n_relays=1)
    assert run_chain(short1).snr < run_chain(short0).snr


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(0, 64), eta=st.floats(0.05, 1.0),
       p_dark=st.floats(1e-9, 1e-2), atten=st.floats(0.01, 1.0),
       alpha_xs=st.lists(st.floats(0.0, 200.0), min_size=2, max_size=20))
def test_run_chain_does_not_increase_with_distance(n, eta, p_dark, atten,
                                                    alpha_xs):
    # at the optimal placement, interior and clamped; p_n may rise by
    # rounding only
    assume(eta + 2.0 * p_dark <= 1.0)
    reps = [run_chain(ChainConfig(ax / atten, atten, n, eta, p_dark))
            for ax in sorted(alpha_xs)]
    for near, far in zip(reps, reps[1:]):
        assert far.p_s <= near.p_s, (near, far)
        assert far.p_n <= near.p_n * (1.0 + 1e-13), (near, far)


def test_sample_chain_deterministic():
    cfg = ChainConfig(distance_km=60.0, n_relays=1)
    a = sample_chain(cfg, 50_000, seed=321)
    b = sample_chain(cfg, 50_000, seed=321)
    assert a == b
    c = sample_chain(cfg, 50_000, seed=322)
    assert c != a
    # the record holds results only; its inputs are the caller's
    assert not {"n_trials", "seed"} & set(a._fields)
    assert sum(a.state_counts.values()) == 50_000
    assert a.signal_count == round(a.p_s * 50_000)


def test_sample_chain_agrees_with_exact():
    # raised dark rate so noise events actually occur at this scale
    cfg = ChainConfig(distance_km=40.0, n_relays=1, p_dark=1e-3)
    n = 400_000
    exact = run_chain(cfg)
    got = sample_chain(cfg, n, seed=2026)
    z_s = (got.p_s - exact.p_s) / math.sqrt(exact.p_s * (1 - exact.p_s) / n)
    z_n = (got.p_n - exact.p_n) / math.sqrt(exact.p_n * (1 - exact.p_n) / n)
    assert abs(z_s) < 4.0
    assert abs(z_n) < 4.0


def test_sample_chain_state_histogram_unbiased():
    # chi-squared of the sampled slot-state histogram against the exact
    # distribution; 3 degrees of freedom, 26.1 is the 1e-5 tail
    cfg = ChainConfig(distance_km=30.0, n_relays=2, p_dark=1e-3)
    n = 300_000
    expected = dict(zip(("signal", "random", "empty", "no_gate"),
                        markov_chain_reference(cfg).state))
    got = sample_chain(cfg, n, seed=77)
    chi2 = sum((got.state_counts[k] - n * p) ** 2 / (n * p)
               for k, p in expected.items() if p > 0)
    assert chi2 < 26.1


def sampled_law(cfg, n, seed, positions_km=None):
    """z(p_s), z(p_n) and the 4-state chi-squared of one draw of n slots."""
    exact = markov_chain_reference(cfg, positions_km)
    probs = dict(zip(("signal", "random", "empty", "no_gate"), exact.state))
    # per-slot noise count: spurious photon plus dark count, each 0 or 1
    var_n = (exact.p_n + 2.0 * probs["random"] * 2.0 * cfg.p_dark
             - exact.p_n ** 2)
    got = sample_chain(cfg, n, seed=seed, positions_km=positions_km)
    z_s = (got.p_s - exact.p_s) / math.sqrt(exact.p_s * (1 - exact.p_s) / n)
    z_n = (got.p_n - exact.p_n) / math.sqrt(var_n / n)
    chi2 = sum((got.state_counts[k] - n * p) ** 2 / (n * p)
               for k, p in probs.items())
    return z_s, z_n, chi2


def test_sample_chain_law_over_many_seeds():
    # 400 seeds x 1e5 slots: each z is standard normal and each chi-squared
    # has 3 degrees of freedom, so the means have standard errors 0.05 and
    # sqrt(6/400) = 0.12
    cfg = ChainConfig(distance_km=30.0, n_relays=2, p_dark=1e-3)
    z_s, z_n, chi2 = np.array([sampled_law(cfg, 100_000, seed)
                               for seed in range(400)]).T
    assert abs(z_s.mean()) < 0.25
    assert abs(z_n.mean()) < 0.25
    assert 2.5 <= chi2.mean() <= 3.5


@pytest.mark.parametrize("cfg, positions", [
    (ChainConfig(distance_km=30.0, n_relays=3, eta=0.9, p_dark=0.05), None),
    (ChainConfig(distance_km=50.0, n_relays=2, eta=0.5, p_dark=0.1),
     (5.0, 30.0)),
], ids=["eta-plus-2pd-is-1", "explicit-positions"])
def test_sample_chain_exact_law_at_a_high_dark_rate(cfg, positions):
    # 1e12 slots cost no more than one: standard errors near 1e-6 of each
    # value resolve every dark-count term of the event rules
    z_s, z_n, chi2 = sampled_law(cfg, 10**12, seed=12, positions_km=positions)
    assert abs(z_s) < 4.0
    assert abs(z_n) < 4.0
    assert chi2 < 26.1


def test_sample_chain_edge_cases():
    cfg = ChainConfig(distance_km=10.0)
    one = sample_chain(cfg, 1, seed=9)
    assert one.p_s in (0.0, 1.0)
    assert sum(one.state_counts.values()) == 1
    # numpy's binomial would truncate 2.5 to 2 and overflow at 2**63
    for bad in (0, -1, 2**63, True, False, 2.5, 10.0, "10", None):
        with pytest.raises(ValueError, match="n_trials"):
            sample_chain(cfg, bad, seed=9)
    top = sample_chain(cfg, 2**63 - 1, seed=9)
    assert sum(top.state_counts.values()) == 2**63 - 1


@pytest.mark.parametrize("cfg, positions", [
    (ChainConfig(distance_km=30.0, n_relays=3, eta=0.9, p_dark=0.05), None),
    (ChainConfig(distance_km=30.0, n_relays=3, eta=1.0, p_dark=0.0), None),
    (ChainConfig(distance_km=30.0, n_relays=2, p_dark=0.0), None),
    (ChainConfig(distance_km=10.0, n_relays=3), (0.0, 0.0, 10.0)),
    (ChainConfig(distance_km=0.0, n_relays=2), None),
], ids=["eta-plus-2pd-is-1", "eta-1-pd-0", "pd-0", "zero-length-segments",
        "zero-distance"])
@pytest.mark.parametrize("n_trials", [1, 100_000])
def test_sample_chain_relay_domain_edges(cfg, positions, n_trials):
    # at eta = 0.9, p_dark = 0.05 the veto share 1 - eta - 2 p_dark rounds
    # to -2.8e-17
    got = sample_chain(cfg, n_trials, seed=3, positions_km=positions)
    assert sum(got.state_counts.values()) == n_trials
    assert all(type(v) is int for v in got.state_counts.values())
    assert got.signal_count == got.state_counts["signal"]
    if cfg.p_dark == 0.0:
        assert got.noise_events == got.state_counts["random"] == 0


def test_sample_chain_seed_contract():
    # random.Random(-1) repeats the stream of Random(1), so only a
    # non-negative int seeds the sampler
    cfg = ChainConfig(distance_km=10.0)
    for seed in (-1, True, 2.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            sample_chain(cfg, 100, seed=seed)
    assert sum(sample_chain(cfg, 100, seed=0).state_counts.values()) == 100


# (n, p) at each branch of _binomial: the geometric gaps (mean below 10),
# BTRS, both reflected for p > 1/2, and n = 2**63 - 1 at a tiny p and at
# p near 1/2
BINOMIAL_POINTS = [
    (50, 0.1), (40, 0.95), (2**63 - 1, 1e-18),
    (30, 0.4), (1000, 0.3), (2 * 10**7, 0.0067), (10**12, 2e-5),
    (100, 0.8), (2**63 - 1, 3e-12), (2**63 - 1, 0.49),
]


@pytest.mark.parametrize("i", range(len(BINOMIAL_POINTS)),
                         ids=[f"n={n}-p={p}" for n, p in BINOMIAL_POINTS])
def test_binomial_matches_scipy_binom(i):
    # 60,000 draws (seed i) binned at the reference's mean + sigma z_j for
    # the 19 inner 5% normal quantiles z_j; each point must pass the
    # chi-squared test at the 0.1% significance level. scipy's binom cdf,
    # an incomplete beta, returns nan and 0 or 1 near the mean at n = 2**63
    # - 1 and p = 0.49, so there the reference is the normal law with a
    # continuity correction, which is off the binomial cdf by about
    # (1 - 2p)/(6 sigma), 1e-12
    n, p = BINOMIAL_POINTS[i]
    rng = random.Random(i)
    draws = [_binomial(rng, n, p) for _ in range(60_000)]
    assert all(type(k) is int and 0 <= k <= n for k in draws)
    mean, var = stats.binom.stats(n, p)
    sigma = math.sqrt(var)
    edges = sorted({math.floor(mean + sigma * z)
                    for z in stats.norm.ppf(np.arange(1, 20) / 20)})
    if var > 1e17:
        cdf = stats.norm.cdf((np.array(edges, float) + 0.5 - mean) / sigma)
    else:
        cdf = stats.binom.cdf(edges, n, p)
    expected = np.diff(np.concatenate([[0.0], cdf, [1.0]])) * len(draws)
    # bin j holds the draws in (edges[j - 1], edges[j]]
    observed = np.bincount(
        [np.searchsorted(np.array(edges, object), k) for k in draws],
        minlength=len(expected))
    assert observed[expected == 0].sum() == 0
    seen = expected > 0
    chi2 = ((observed[seen] - expected[seen]) ** 2 / expected[seen]).sum()
    assert stats.chi2.sf(chi2, seen.sum() - 1) >= 1e-3, (n, p, chi2)
    assert abs(sum(draws) / len(draws) - mean) < 5 * sigma / len(draws) ** 0.5


def test_binomial_exact_edges():
    rng = random.Random(1)
    for n in (0, 1, 7, 2**63 - 1):
        assert _binomial(rng, n, 0.0) == 0
        assert _binomial(rng, n, 1.0) == n
    for p in (0.0, 1e-300, 0.3, 0.5, 0.9, 1.0):
        assert _binomial(rng, 0, p) == 0


class ZeroFirst(random.Random):
    """A random.Random whose first random() is 0.0, which random() may
    return once in 2**53 draws; every later draw is the seeded stream's."""

    def __init__(self, seed):
        super().__init__(seed)
        self.zero_next = True

    def random(self):
        if self.zero_next:
            self.zero_next = False
            return 0.0
        return super().random()


def test_binomial_at_a_zero_draw():
    # BTRS puts u = 0.0 - 0.5 on the hat's edge, where it has no mass, and
    # draws again: the zero costs one draw of the stream and no more
    for n, p in ((10**6, 0.3), (2**63 - 1, 1e-9)):
        assert _binomial(ZeroFirst(7), n, p) == _binomial(random.Random(7),
                                                          n, p)
    # Devroye's geometric gap at u = 0 is infinite, past the n trials: no
    # success, where the stream without the zero draws 13
    assert _binomial(random.Random(0), 1000, 0.009) == 13
    assert _binomial(ZeroFirst(0), 1000, 0.009) == 0


def test_run_chain_matches_snr_exact_on_long_chains():
    # p_s and p_n underflow together on long chains (S_N = prod eta t_j
    # falls below the double range); snr and q_b come from the noise
    # exponent K = ln(1 + p_n/p_s), which does not, and match snr_exact
    # wherever it is finite. An absolute error in K or in a segment's
    # exponent is a relative one in S: the bound is four times the largest
    # deviation / max(1, alpha_x, K) over this grid, 1.47e-14, at N = 1000
    # and alpha_x = 0.1, where K sums 1001 terms
    cfg = ChainConfig(0.0, n_relays=1000).at_alpha_x(51.6)
    rep = run_chain(cfg)
    assert rep.p_s == rep.p_n == 0.0
    assert rep.snr == pytest.approx(23.2406615013134, rel=1e-12)
    for n in (1, 64, 1000):
        for p_dark in (1e-5, 1e-2, 1e-300):
            for ax in (0.1, 51.6, 700.0, 1740.0, 1e4):
                s = snr_exact(ax, n, 0.5, p_dark)
                point = ChainConfig(0.0, n_relays=n,
                                    p_dark=p_dark).at_alpha_x(ax)
                got = run_chain(point)
                k = math.log1p(1.0 / s) if s > 0.0 else ax
                bound = 5.9e-14 * max(1.0, ax, k)
                assert got.snr == pytest.approx(s, rel=bound, abs=0.0), (
                    n, p_dark, ax)
                assert got.q_b == pytest.approx(0.5 / (1.0 + s), rel=bound)
                # the placement search compares values that are not 0
                assert math.isfinite(
                    run_chain(point, optimal_positions(point)).log_p_n)
    # the closed form stays the optimum of a 1000-relay chain
    assert search_positions(cfg) == optimal_positions(cfg)


_LEAST = sys.float_info.min     # the least p_dark > 0 in the domain


@pytest.mark.parametrize("cfg, positions", [
    (ChainConfig(0.0, 0.05, 4, 0.5, _LEAST).at_alpha_x(5.0), None),
    (ChainConfig(0.0, 0.05, 1, 0.5, _LEAST).at_alpha_x(0.3), None),
    (ChainConfig(0.0, 0.05, 0, 0.5, _LEAST).at_alpha_x(10.0), None),
    (ChainConfig(1200.0, 0.05, 2, 0.5, _LEAST), (20.0, 1180.0)),
    (ChainConfig(0.0, 0.05, 64, 0.65, 1e-300).at_alpha_x(40.0), None)],
    ids=["n4", "clamped", "n0", "mixed", "n64"])
def test_log_p_n_at_the_least_normal_p_dark(cfg, positions):
    # p_n is near or past the normal range's edge, and the factors of p_n
    # are near 2 p_dark, ln(1 - e^-K) near ln K. At a subnormal
    # p_dark, which is refused, `qrelay sample --alpha-x 5 --n-relays 4
    # --pd 5e-324` printed ln p_n = -748.405998153851, p_n 5% low. "mixed"
    # holds one long segment between two short ones
    positions = optimal_positions(cfg) if positions is None else positions
    want = decimal_log_noise(cfg, positions)
    assert run_chain(cfg, positions).log_p_n == pytest.approx(float(want),
                                                              rel=1e-15)


@pytest.mark.parametrize("alpha_x", [1e3, 1e10, 1e15])
@pytest.mark.parametrize("n, want", [(0, math.log(0.4)),
                                     (1, math.log(0.16))], ids=["n0", "n1"])
def test_log_p_n_where_dark_counts_outweigh_the_signal(n, want, alpha_x):
    # no photon outlives a segment this long, so p_n = (2 p_dark)^(N+1).
    # Taken as ln p_s + ln expm1(K), two logs near -alpha x and +alpha x,
    # ln p_n was 1.3e-14 off at alpha x = 1e3, 4.5e-7 at 1e10 and 0.04 at
    # 1e15, where `qrelay optimize --distance-km 1e14 --atten-per-km 10
    # --n-relays 1 --pd 0.2` printed -2.000000000000
    cfg = ChainConfig(0.0, 10.0, n, 0.5, 0.2).at_alpha_x(alpha_x)
    assert run_chain(cfg).log_p_n == pytest.approx(want, rel=0.0, abs=1e-15)


def test_run_chain_rounds_the_relay_terms_alike_on_every_python():
    # the builtin sum of floats is compensated from Python 3.12 on, so the
    # relay terms' sum L moved p_n by 3 ulps between interpreters at the
    # benchmark's optimize chain (corpus case 02); math.fsum rounds it once
    # everywhere. The 60-digit value is 2.4304321664330354e-65, 9 ulps up
    report = run_chain(ChainConfig(2000.0, 0.05, 64, 0.5, 1e-5))
    assert report.p_n == 2.4304321664330316e-65


def test_log_p_s_rounds_alpha_x_once():
    # p_s = eta^N e^(-alpha x) does not depend on the relay positions, so
    # ln p_s = N ln eta - alpha x rounds ln eta, its product with N, alpha x
    # and the difference once each: within 2 ulps of the value. Summed from
    # the N + 1 rounded segment exponents it was 118 ulps off at this chain
    cfg = ChainConfig(16388.613538359885, 0.05, 989, 0.9600183510983514, 1e-5)
    with localcontext() as ctx:
        ctx.prec = 50
        want = (cfg.n_relays * Decimal(cfg.eta).ln()
                - Decimal(cfg.atten_per_km) * Decimal(cfg.distance_km))
    spread = tuple(cfg.distance_km * i / 990 for i in range(1, 990))
    for positions in (None, spread, (0.0,) * 989):
        got = run_chain(cfg, positions).log_p_s
        assert abs(Decimal(got) - want) <= 2 * Decimal(math.ulp(got)), (
            positions is None, got, float(want))


def test_sample_chain_stderr_definitions():
    cfg = ChainConfig(distance_km=20.0, p_dark=1e-3)
    got = sample_chain(cfg, 100_000, seed=55)
    assert got.stderr_p_s == pytest.approx(
        math.sqrt(got.p_s * (1 - got.p_s) / 100_000))
    # noise variance accounts for double events (spurious photon + dark)
    assert got.stderr_p_n > 0
    assert got.noise_events >= 0
