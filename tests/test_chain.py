import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrelay.analytics import ChainConfig, optimal_positions, snr_n_relays
from qrelay.chain import (ChannelEventState, apply_relay, chain_noise,
                          initial_state, propagate_chain, propagate_segment,
                          receiver_detect, run_chain, sample_chain)
from qrelay.circuit import (measured_relay_efficiency,
                            multiphoton_gate_probability,
                            vacuum_gate_probability)

from oracles import markov_chain_reference


def random_event_state(rng) -> ChannelEventState:
    v = rng.dirichlet(np.ones(4))
    return ChannelEventState(*map(float, v))


def test_event_state_validation():
    with pytest.raises(ValueError):
        ChannelEventState(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        ChannelEventState(0.4, 0.4, 0.4, 0.4)
    # a tiny negative from float cancellation is clipped, not fatal
    st = ChannelEventState(1.0 + 5e-14, -5e-14, 0.0, 0.0)
    assert st.p_rnd == 0.0
    assert initial_state() == ChannelEventState(1.0, 0.0, 0.0, 0.0)
    assert initial_state().p_alive == 1.0


def test_propagate_segment():
    st = propagate_segment(initial_state(), 1.0)
    assert st.p_sig == pytest.approx(math.exp(-1))
    assert st.p_empty == pytest.approx(1 - math.exp(-1))
    assert st.p_rnd == 0.0 and st.p_nogate == 0.0
    # zero length is the identity
    assert propagate_segment(st, 0.0) == st
    # semigroup: two segments compose additively
    two = propagate_segment(propagate_segment(initial_state(), 0.7), 0.5)
    one = propagate_segment(initial_state(), 1.2)
    assert two.p_sig == pytest.approx(one.p_sig, rel=1e-15)
    with pytest.raises(ValueError):
        propagate_segment(st, -0.1)
    # vetoed mass is untouched by fiber
    vetoed = ChannelEventState(0.0, 0.0, 0.0, 1.0)
    assert propagate_segment(vetoed, 3.0) == vetoed


def test_apply_relay_weights():
    params = ChainConfig(distance_km=1.0, eta=0.5, p_dark=1e-5)
    out = apply_relay(initial_state(), params)
    assert out.p_sig == pytest.approx(0.5, abs=1e-15)
    assert out.p_rnd == pytest.approx(2e-5, abs=1e-18)
    assert out.p_empty == 0.0
    # dark-count-free relay on a fresh slot: (eta, 0, 0, 1 - eta)
    clean = apply_relay(initial_state(),
                        ChainConfig(distance_km=1.0, eta=0.5, p_dark=0.0))
    assert (clean.p_sig, clean.p_rnd, clean.p_empty, clean.p_nogate) == \
        (0.5, 0.0, 0.0, 0.5)
    # an empty gated slot false-gates with probability 2 p_dark
    empty = ChannelEventState(0.0, 0.0, 1.0, 0.0)
    out = apply_relay(empty, params)
    assert out.p_rnd == pytest.approx(2e-5, abs=1e-18)
    assert out.p_nogate == pytest.approx(1 - 2e-5, abs=1e-15)
    # generic state, exact bookkeeping
    st = ChannelEventState(0.4, 0.1, 0.3, 0.2)
    out = apply_relay(st, params)
    assert out.p_sig == pytest.approx(0.5 * 0.4, abs=1e-15)
    assert out.p_rnd == pytest.approx(0.5 * 0.1 + 2e-5 * 0.8, abs=1e-15)
    assert out.p_empty == 0.0


def test_apply_relay_matches_single_slot_device_map():
    # a slot holding a photon with probability p1, else empty and gated:
    # the relay passes eta*p1, false-gates 2*p_dark, and vetoes the rest
    cfg = ChainConfig(distance_km=1.0, eta=0.5, p_dark=1e-5)
    for p1 in (1.0, 0.6, 0.5, 0.4, 0.0):
        out = apply_relay(ChannelEventState(p1, 0.0, 1.0 - p1, 0.0), cfg)
        assert out.p_sig == pytest.approx(0.5 * p1, abs=1e-15)
        assert out.p_rnd == pytest.approx(2e-5, abs=1e-18)
        assert out.p_empty == 0.0
        assert out.p_nogate == pytest.approx(1.0 - 0.5 * p1 - 2e-5,
                                             abs=1e-15)
    # without dark counts the map equals the simulated device: a photon
    # passes with the device's gate probability, vacuum never gates
    device = ChainConfig(distance_km=1.0, eta=measured_relay_efficiency(),
                         p_dark=0.0)
    for p1 in (1.0, 0.6, 0.0):
        out = apply_relay(ChannelEventState(p1, 0.0, 1.0 - p1, 0.0), device)
        assert out.p_sig == pytest.approx(
            p1 * multiphoton_gate_probability(1, 0.6, 0.8), abs=1e-15)
        assert out.p_rnd == pytest.approx(
            (1.0 - p1) * vacuum_gate_probability(), abs=1e-15)


def test_transition_maps_exactly_stochastic():
    rng = np.random.default_rng(17)
    params = ChainConfig(distance_km=1.0, eta=0.5, p_dark=1e-4)
    for _ in range(1000):
        st = random_event_state(rng)
        seg = propagate_segment(st, float(rng.uniform(0, 3)))
        rel = apply_relay(st, params)
        for out in (seg, rel):
            total = out.p_sig + out.p_rnd + out.p_empty + out.p_nogate
            assert abs(total - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       alpha_x=st.floats(0.0, 800.0), eta=st.floats(1e-3, 1.0),
       p_dark=st.floats(0.0, 0.5, exclude_max=True))
def test_step_maps_keep_states_stochastic(weights, alpha_x, eta, p_dark):
    assume(sum(weights) > 0.0 and eta + 2.0 * p_dark <= 1.0)
    total = math.fsum(weights)
    state = ChannelEventState(*(w / total for w in weights))
    relay = ChainConfig(distance_km=1.0, eta=eta, p_dark=p_dark)
    # in [0, 1] and summing to 1 within rounding, far inside the 1e-12 the
    # state's own check allows
    for out in (propagate_segment(state, alpha_x), apply_relay(state, relay)):
        values = (out.p_sig, out.p_rnd, out.p_empty, out.p_nogate)
        assert all(0.0 <= v <= 1.0 + 1e-15 for v in values), values
        assert abs(math.fsum(values) - 1.0) <= 1e-15, values


def test_receiver_detect():
    rep = receiver_detect(initial_state(), 1e-5)
    assert rep.p_s == 1.0
    assert rep.p_n == pytest.approx(2e-5, abs=1e-18)
    assert rep.snr == pytest.approx(5e4)
    assert rep.q_b == pytest.approx(0.5 * rep.p_n / (rep.p_n + rep.p_s))
    # fully vetoed chain: nothing can click
    dead = receiver_detect(ChannelEventState(0, 0, 0, 1), 1e-5)
    assert dead.p_s == 0.0 and dead.p_n == 0.0
    assert math.isnan(dead.snr) and math.isnan(dead.q_b)
    # pure spurious photon: noise 1 + 2 p_dark, QBER near 1/2
    spur = receiver_detect(ChannelEventState(0, 1, 0, 0), 1e-5)
    assert spur.p_n == pytest.approx(1 + 2e-5)
    assert spur.q_b == pytest.approx(0.5)
    # noise-free sentinel
    clean = receiver_detect(initial_state(), 0.0)
    assert math.isinf(clean.snr)
    with pytest.raises(ValueError):
        receiver_detect(initial_state(), -0.1)


def test_run_chain_matches_markov_reference():
    rng = np.random.default_rng(23)
    for n in (0, 1, 2, 3, 5):
        for _ in range(4):
            x = float(rng.uniform(10, 300))
            pos = sorted(float(rng.uniform(0, x)) for _ in range(n))
            cfg = ChainConfig(distance_km=x, atten_per_km=0.05, n_relays=n,
                              eta=0.5, p_dark=1e-5, positions_km=tuple(pos))
            got = run_chain(cfg)
            want = markov_chain_reference(x, 0.05, 0.5, 1e-5, pos)
            assert got.p_s == pytest.approx(want["p_s"], rel=1e-13, abs=1e-300)
            assert got.p_n == pytest.approx(want["p_n"], rel=1e-13, abs=1e-300)


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
    via_config = run_chain(dataclasses.replace(cfg, positions_km=(10.0,)))
    assert via_config.p_n == pytest.approx(worse.p_n, rel=1e-15)
    with pytest.raises(ValueError):
        run_chain(cfg, positions_km=(10.0, 20.0))
    with pytest.raises(ValueError):
        run_chain(dataclasses.replace(cfg, n_relays=2),
                  positions_km=(50.0, 20.0))


def test_degenerate_chains():
    # zero distance with relays stacked at the transmitter
    cfg = ChainConfig(distance_km=0.0, n_relays=2)
    rep = run_chain(cfg)
    assert rep.p_s == pytest.approx(0.25, abs=1e-12)
    assert rep.snr > 0
    # relay exactly at the receiver end
    end = run_chain(ChainConfig(distance_km=50.0, n_relays=1,
                                positions_km=(50.0,)))
    assert end.p_s == pytest.approx(0.5 * math.exp(-2.5), rel=1e-12)


def test_nogate_mass_is_monotone():
    cfg = ChainConfig(distance_km=200.0, n_relays=4)
    positions = optimal_positions(cfg)
    state = initial_state()
    last = 0.0
    pts = (0.0,) + positions + (200.0,)
    for i in range(len(pts) - 1):
        state = propagate_segment(state, 0.05 * (pts[i + 1] - pts[i]))
        assert state.p_nogate >= last
        last = state.p_nogate
        if i < 4:
            state = apply_relay(state, cfg)
            assert state.p_nogate >= last
            last = state.p_nogate


def test_gate_suppression_beyond_crossover():
    # past the crossover range, a relay strictly reduces receiver noise
    long = ChainConfig(distance_km=400.0, n_relays=0)
    with_relay = ChainConfig(distance_km=400.0, n_relays=1)
    assert run_chain(with_relay).p_n < run_chain(long).p_n
    # and strictly increases it at very short range
    short0 = ChainConfig(distance_km=1.0, n_relays=0)
    short1 = ChainConfig(distance_km=1.0, n_relays=1)
    assert run_chain(short1).snr < run_chain(short0).snr


def test_chain_noise_is_the_optimization_objective():
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    assert chain_noise(cfg, (43.0,)) == run_chain(cfg, (43.0,)).p_n


def test_sample_chain_deterministic():
    cfg = ChainConfig(distance_km=60.0, n_relays=1)
    a = sample_chain(cfg, 50_000, seed=321)
    b = sample_chain(cfg, 50_000, seed=321)
    assert a == b
    c = sample_chain(cfg, 50_000, seed=322)
    assert c != a
    assert a.n_trials == 50_000 and a.seed == 321
    assert sum(a.state_counts.values()) == 50_000
    assert a.signal_count == round(a.p_s * a.n_trials)


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
    # chunked run is also a valid draw, just a different stream
    chunked = sample_chain(cfg, n, seed=2026, chunk_size=37_000)
    z_c = (chunked.p_s - exact.p_s) / math.sqrt(exact.p_s * (1 - exact.p_s) / n)
    assert abs(z_c) < 4.0


def test_sample_chain_state_histogram_unbiased():
    # chi-squared of the sampled slot-state histogram against the exact
    # distribution; 3 degrees of freedom, 26.1 is the 1e-5 tail
    cfg = ChainConfig(distance_km=30.0, n_relays=2, p_dark=1e-3)
    n = 300_000
    final = propagate_chain(cfg)
    expected = {"signal": final.p_sig, "random": final.p_rnd,
                "empty": final.p_empty, "no_gate": final.p_nogate}
    got = sample_chain(cfg, n, seed=77)
    chi2 = sum((got.state_counts[k] - n * p) ** 2 / (n * p)
               for k, p in expected.items() if p > 0)
    assert chi2 < 26.1


def test_sample_chain_edge_cases():
    cfg = ChainConfig(distance_km=10.0)
    one = sample_chain(cfg, 1, seed=9)
    assert one.p_s in (0.0, 1.0)
    assert one.n_trials == 1
    with pytest.raises(ValueError):
        sample_chain(cfg, 0, seed=9)
    with pytest.raises(ValueError):
        sample_chain(cfg, 10, seed=9, chunk_size=0)


def test_sample_chain_stderr_definitions():
    cfg = ChainConfig(distance_km=20.0, p_dark=1e-3)
    got = sample_chain(cfg, 100_000, seed=55)
    assert got.stderr_p_s == pytest.approx(
        math.sqrt(got.p_s * (1 - got.p_s) / got.n_trials))
    # noise variance accounts for double events (spurious photon + dark)
    assert got.stderr_p_n > 0
    assert got.noise_events >= 0
