import math

import numpy as np
import pytest

from qrelay.analytics import ChainConfig, check_relay
from qrelay.chain import ChannelEventState, apply_relay
from qrelay.circuit import (ENCODER_SPATIAL, build_encoder_state,
                            derive_feed_forward_table, encoder_basis,
                            encoder_postselect, feed_forward_sign,
                            measured_relay_efficiency,
                            multiphoton_gate_probability, qnd_measure,
                            vacuum_gate_probability)
from qrelay.errors import ContractViolationError
from qrelay.fockspace import H, V, make_qubit, product

from oracles import dense_apply

SQ2 = 1 / math.sqrt(2)


def random_qubits(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.standard_normal(4)
        out.append((complex(v[0], v[1]), complex(v[2], v[3])))
    return out


def test_encoder_state_structure():
    # after the beam splitter the four terms are: two accepted ones with one
    # photon in mode b, and two rejected ones with zero or two photons there
    a, b = 0.6, 0.8
    st = build_encoder_state(a, b)
    r = 1 / math.sqrt(2)
    assert st.amplitude({("1", H): 1, ("2", H): 1, ("b", H): 1}) == pytest.approx(a * r)
    assert st.amplitude({("1", V): 1, ("2", V): 1, ("b", V): 1}) == pytest.approx(b * r)
    assert st.amplitude({("1", V): 1, ("2", H): 1, ("2", V): 1}) == pytest.approx(a * r)
    assert st.amplitude({("1", H): 1, ("b", H): 1, ("b", V): 1}) == pytest.approx(b * r)
    assert len(st.amps) == 4
    basis = st.basis
    bh, bv = basis.spatial_indices("b")
    for cfg in st.amps:
        assert cfg[bh] + cfg[bv] in (0, 1, 2)


def test_encoder_postselect_branches():
    a, b = 0.6, 0.8
    branches = encoder_postselect(a, b)
    assert sorted(ch for ch, _, _ in branches) == ["F", "S"]
    basis = encoder_basis()
    for ch, prob, cond in branches:
        assert prob == pytest.approx(0.25, abs=1e-12)
        sign = 1.0 if ch == "F" else -1.0
        got_hh = cond.amplitude({("1", H): 1, ("2", H): 1})
        got_vv = cond.amplitude({("1", V): 1, ("2", V): 1})
        assert got_hh == pytest.approx(a, abs=1e-12)
        assert got_vv == pytest.approx(sign * b, abs=1e-12)
        assert len(cond.amps) == 2


def test_encoder_postselect_complex_qubit():
    a, b = 0.48 + 0.36j, 0.8j
    branches = encoder_postselect(a, b)
    for ch, prob, cond in branches:
        assert prob == pytest.approx(0.25, abs=1e-12)
        sign = 1.0 if ch == "F" else -1.0
        assert cond.amplitude({("1", H): 1, ("2", H): 1}) == pytest.approx(a, abs=1e-12)
        assert cond.amplitude({("1", V): 1, ("2", V): 1}) == pytest.approx(sign * b, abs=1e-12)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.inf),
                                         (complex(0.6, math.nan), 0.8)])
def test_qnd_measure_rejects_non_finite_input(alpha, beta):
    with pytest.raises(ValueError) as info:
        qnd_measure(alpha, beta)
    assert not isinstance(info.value, ContractViolationError)


def test_qnd_measure_outcomes():
    # the last two would overflow and underflow a norm taken from squares
    for a, b in [(1.0, 0.0), (0.0, 1.0), (SQ2, SQ2), (0.6, 0.8j),
                 (1e200, 1e200), (1e-200, 1e-200)] + random_qubits(10, 99):
        rep = qnd_measure(a, b)
        assert rep.success_probability == pytest.approx(0.5, abs=1e-12)
        assert len(rep.outcomes) == 4
        seen = set()
        for o in rep.outcomes:
            assert o.probability == pytest.approx(0.125, abs=1e-12)
            assert o.fidelity == pytest.approx(1.0, abs=1e-12)
            assert o.flipped == (o.channel_d2 != o.channel_db)
            seen.add((o.channel_d2, o.channel_db))
        assert seen == {("F", "F"), ("F", "S"), ("S", "F"), ("S", "S")}


def test_outcome_statistics_are_input_independent():
    # the gate statistics leak nothing about the qubit: all four joint
    # outcomes stay at exactly 1/8 whatever (alpha, beta) is
    for a, b in random_qubits(6, 5):
        rep = qnd_measure(a, b)
        for o in rep.outcomes:
            assert o.probability == pytest.approx(0.125, abs=1e-12)


def test_feed_forward_table():
    table = derive_feed_forward_table()
    assert table == {("F", "F"): False, ("S", "S"): False,
                     ("F", "S"): True, ("S", "F"): True}


def test_feed_forward_sign_involution():
    basis = encoder_basis()
    st = make_qubit(basis, 0.6, 0.8j, "1")
    flipped = feed_forward_sign(st, "1")
    assert flipped.amplitude({("1", V): 1}) == pytest.approx(-0.8j)
    again = feed_forward_sign(flipped, "1")
    assert again.fidelity(st) == pytest.approx(1.0, abs=1e-15)


def test_outcome_lookup():
    rep = qnd_measure(SQ2, SQ2)
    o = rep.outcome("S", "F")
    assert o.flipped
    with pytest.raises(KeyError):
        rep.outcome("F", "X")


def test_vacuum_gate_probability_exactly_zero():
    assert vacuum_gate_probability() == 0.0


def test_diagnostic_variant_false_gates_on_vacuum():
    # moving the second detector package onto the output mode makes the Bell
    # pair itself trigger coincidences half the time with no input at all
    assert vacuum_gate_probability(d2_spatial="1") == pytest.approx(0.5, abs=1e-12)


def test_multiphoton_gate_probabilities():
    assert multiphoton_gate_probability(0) == 0.0
    assert multiphoton_gate_probability(1, 0.6, 0.8) == pytest.approx(0.5, abs=1e-12)
    assert multiphoton_gate_probability(2) == 0.0
    assert multiphoton_gate_probability(2, 0.6, 0.8) == 0.0
    assert multiphoton_gate_probability(3, photon_cap=5) == 0.0
    with pytest.raises(ValueError):
        multiphoton_gate_probability(3)  # cap 4 cannot hold 3 + ancilla pair
    with pytest.raises(ValueError):
        multiphoton_gate_probability(-1)


def test_measured_relay_efficiency():
    assert measured_relay_efficiency() == pytest.approx(0.5, abs=1e-12)


def test_device_pipeline_against_dense_oracle():
    # the full encoder circuit (joint input through PBS + readout rotations)
    # reproduced with the permanent-based dense reference
    from qrelay.circuit import _device_transform
    from qrelay.fockspace import apply_transform, make_bell_phi_plus

    basis = encoder_basis()
    joint = product(make_qubit(basis, 0.6, 0.8j, "0"),
                    make_bell_phi_plus(basis, "a", "1"))
    t = _device_transform(basis)
    got = apply_transform(joint, t)
    want = dense_apply(t.matrix, joint.amps)
    for cfg in set(got.amps) | set(want):
        assert got.amps.get(cfg, 0j) == pytest.approx(want.get(cfg, 0j),
                                                      abs=1e-12)


def test_channel_params_validation():
    # the relay channel defaults to the device's measured efficiency and a
    # 1e-5 dark-count probability, both inside the relay domain
    cfg = ChainConfig(distance_km=1.0)
    assert cfg.eta == 0.5 and cfg.p_dark == 1e-5
    assert cfg.eta == pytest.approx(measured_relay_efficiency(), abs=1e-12)
    check_relay(measured_relay_efficiency(), cfg.p_dark)
    for eta, p_dark in ((0.0, 1e-5), (1.2, 1e-5), (0.5, 0.5), (0.999, 0.01)):
        with pytest.raises(ValueError):
            check_relay(eta, p_dark)


def test_ideal_relay_map():
    # the lossless device: eta = 1/2 and no dark counts, exactly
    ideal = ChainConfig(distance_km=1.0, eta=0.5, p_dark=0.0)
    st = apply_relay(ChannelEventState(1.0, 0.0, 0.0, 0.0), ideal)
    assert (st.p_sig, st.p_rnd, st.p_empty, st.p_nogate) == (0.5, 0.0, 0.0, 0.5)
    st = apply_relay(ChannelEventState(0.4, 0.0, 0.6, 0.0), ideal)
    assert (st.p_sig, st.p_rnd, st.p_empty, st.p_nogate) == (0.2, 0.0, 0.0, 0.8)
    # a photon probability p1 = 1.5 makes no slot state to relay
    with pytest.raises(ValueError):
        apply_relay(ChannelEventState(1.5, 0.0, -0.5, 0.0), ideal)


def test_noisy_relay_map_weights():
    params = ChainConfig(distance_km=1.0, eta=0.5, p_dark=1e-5)
    st = apply_relay(ChannelEventState(1.0, 0.0, 0.0, 0.0), params)
    assert st.p_sig == pytest.approx(0.5, abs=1e-15)
    assert st.p_rnd == pytest.approx(2e-5, abs=1e-18)
    assert st.p_empty == 0.0
    total = st.p_sig + st.p_rnd + st.p_empty + st.p_nogate
    assert total == pytest.approx(1.0, abs=1e-15)
    # linear in the photon probability
    st2 = apply_relay(ChannelEventState(0.5, 0.0, 0.5, 0.0), params)
    assert st2.p_sig == pytest.approx(0.25, abs=1e-15)
    assert st2.p_rnd == pytest.approx(2e-5, abs=1e-18)


def test_basis_labels_exported():
    assert ENCODER_SPATIAL == ("0", "a", "1", "2", "b")
    assert encoder_basis().photon_cap == 4
