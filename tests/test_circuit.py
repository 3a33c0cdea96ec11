import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import qrelay
from qrelay.analytics import ChainConfig, check_relay
from qrelay.chain import run_chain, sample_chain
from qrelay import circuit
from qrelay.circuit import (ENCODER_SPATIAL, _kraus_outcomes, _run_device,
                            build_encoder_state, derive_feed_forward_table,
                            device_checks, device_operators, encoder_basis,
                            encoder_postselect, feed_forward_sign,
                            measured_relay_efficiency,
                            multiphoton_gate_probability, qnd_measure,
                            vacuum_gate_probability)
from qrelay.errors import ContractViolationError
from qrelay.fockspace import H, V, make_qubit, product

from oracles import TRANSMITTED, apply_relay, dense_apply

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


def engine_outputs(alpha, beta):
    """(outcome, sqrt(p) * cond on mode 1 as an (H, V) pair) per accepted
    outcome, straight from the Fock engine."""
    basis = encoder_basis()
    hi, vi = basis.spatial_indices("1")
    out = []
    for ch2, chb, prob, cond in _run_device(make_qubit(basis, alpha, beta, "0")):
        assert all(sum(cfg) == 1 and cfg[hi] + cfg[vi] == 1 for cfg in cond.amps)
        r = math.sqrt(prob)
        out.append(((ch2, chb), (r * cond.amplitude({("1", H): 1}),
                                 r * cond.amplitude({("1", V): 1}))))
    return out


def test_device_operators_match_the_engine():
    # K_o v = sqrt(p) cond for every outcome: the device is linear in the
    # input amplitudes, extreme magnitudes included
    ops = device_operators()
    worst = 0.0
    for a, b in random_qubits(1000, 20261018) + [(1e200, 1e200),
                                                  (1e-200, 1e-200)]:
        norm = math.hypot(abs(a), abs(b))
        v = np.array([a / norm, b / norm])
        want = engine_outputs(a, b)
        assert [key for key, _w in want] == [(c2, cb) for c2, cb, _k in ops]
        for (_key, w), (_c2, _cb, k) in zip(want, ops):
            worst = max(worst, float(np.abs(k @ v - np.array(w)).max()))
    assert worst <= 1e-15


def test_device_operators_sum_to_half_the_identity():
    # sum_o K_o^dagger K_o = I/2: success probability 1/2 for every input
    total = sum(np.asarray(k).conj().T @ np.asarray(k)
                for _c2, _cb, k in device_operators())
    assert np.abs(total - np.eye(2) / 2).max() <= 1e-15


def test_corrected_operators_are_a_phase_times_identity():
    # after the feed-forward sign, each outcome is e^{i phi}/sqrt(8) I: unit
    # fidelity and probability 1/8 for every input
    flip = np.diag([1.0, -1.0])
    for ch2, chb, k in device_operators():
        k = np.asarray(k)
        kc = flip @ k if ch2 != chb else k
        phase = kc[0, 0] / abs(kc[0, 0])
        assert np.abs(kc - phase * np.eye(2) / math.sqrt(8)).max() <= 1e-15


def test_qnd_measure_keeps_the_engine_outcome_order():
    basis = encoder_basis()
    for a, b in [(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0)] + random_qubits(5, 3):
        engine = [(c2, cb) for c2, cb, _p, _c in
                  _run_device(make_qubit(basis, a, b, "0"))]
        rep = qnd_measure(a, b)
        assert [(o.channel_d2, o.channel_db) for o in rep.outcomes] == engine


def test_kraus_outcomes_match_the_fock_states_bit_for_bit():
    # the 2-vector helper reads the exact floats of the Fock states it no
    # longer builds: |K v|^2, and the fidelity of make_qubit's output state
    # with make_qubit's reference, extreme magnitudes included
    basis = encoder_basis()
    ops = device_operators()
    for a, b in random_qubits(300, 20261018) + [
            (1, 0), (0, 1j), (1e-300, 1e-300j), (1e300, 1)]:
        reference = make_qubit(basis, a, b, "1")
        norm = math.hypot(abs(complex(a)), abs(complex(b)))
        v_h, v_v = complex(a) / norm, complex(b) / norm
        rep = qnd_measure(a, b)
        helper = _kraus_outcomes(a, b)
        assert len(rep.outcomes) == len(helper) == len(ops) == 4
        for o, (ch2, chb, prob, flip, w, fid), (_c2, _cb, k) in zip(
                rep.outcomes, helper, ops):
            k_v = [row[0] * v_h + row[1] * v_v for row in k]
            assert (o.channel_d2, o.channel_db, o.flipped) == (ch2, chb, flip)
            assert o.probability == prob \
                == abs(k_v[0]) ** 2 + abs(k_v[1]) ** 2
            assert o.fidelity == fid == o.output.fidelity(reference)
            assert w == (k_v[0], -k_v[1] if flip else k_v[1])


def test_device_checks_reads_what_qnd_measure_reports(monkeypatch):
    # the suite runs the helper on the same probe stream as before, and its
    # worst cases are those of a qnd_measure loop over that stream
    trials, seed = 400, 20261018
    gauss = random.Random(seed).gauss
    stream = [(1.0, 0.0), (0.0, 1.0), (SQ2, SQ2), (0.6, 0.8j)] + [
        (complex(gauss(0.0, 1.0), gauss(0.0, 1.0)),
         complex(gauss(0.0, 1.0), gauss(0.0, 1.0))) for _ in range(trials)]
    worst_succ = worst_fid = 0.0
    for a, b in stream:
        rep = qnd_measure(a, b)
        worst_succ = max(worst_succ, abs(rep.success_probability - 0.5))
        for o in rep.outcomes:
            worst_fid = max(worst_fid, abs(o.fidelity - 1.0))
    seen = []
    helper = circuit._kraus_outcomes

    def recorded(alpha, beta, *args):
        seen.append((alpha, beta))
        return helper(alpha, beta, *args)

    monkeypatch.setattr(circuit, "_kraus_outcomes", recorded)
    checks = device_checks(trials, seed)
    # then the one qnd_measure run of outcome_probabilities
    assert seen == stream + [(SQ2, SQ2)]
    assert checks[0]["detail"].startswith(
        f"max |P - 1/2| = {worst_succ:.3e} over {len(stream)} inputs,")
    assert checks[1]["detail"].startswith(f"max |F - 1| = {worst_fid:.3e} ")


def test_device_operators_are_cached_read_only_and_lazy():
    ops = device_operators()
    assert device_operators() is ops
    assert len(ops) == 4
    for _c2, _cb, k in ops:
        # a 2x2 tuple of tuples of complex: immutable, so safe to share
        assert isinstance(k, tuple) and len(k) == 2
        for row in k:
            assert isinstance(row, tuple) and len(row) == 2
            assert all(type(u) is complex for u in row)
    # nothing is built when the package and the CLI are imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrelay.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import qrelay.cli, qrelay.circuit as c; print(len(c._OPERATORS))"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "0"


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
    assert apply_relay(TRANSMITTED, 0.5, 0.0) == (0.5, 0.0, 0.0, 0.5)
    assert apply_relay((0.4, 0.0, 0.6, 0.0), 0.5, 0.0) == (0.2, 0.0, 0.0, 0.8)
    # the chain that commands run: one relay at the transmitter, then fiber
    # of transmission t, and no noise click at all
    ideal = ChainConfig(10.0, n_relays=1, eta=0.5, p_dark=0.0,
                        positions_km=(0.0,))
    rep = run_chain(ideal)
    assert rep.p_s == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
    assert rep.p_n == 0.0
    got = sample_chain(ideal, 10**6, seed=3)
    assert got.noise_events == got.state_counts["random"] == 0


def test_noisy_relay_map_weights():
    out = apply_relay(TRANSMITTED, 0.5, 1e-5)
    assert out[0] == pytest.approx(0.5, abs=1e-15)
    assert out[1] == pytest.approx(2e-5, abs=1e-18)
    assert out[2] == 0.0
    assert sum(out) == pytest.approx(1.0, abs=1e-15)
    # linear in the photon probability
    out = apply_relay((0.5, 0.0, 0.5, 0.0), 0.5, 1e-5)
    assert out[0] == pytest.approx(0.25, abs=1e-15)
    assert out[1] == pytest.approx(2e-5, abs=1e-18)
    # in the chain that commands run, the relay at the transmitter gates the
    # photon with eta and false-gates the slot with 2 p_dark, a spurious
    # photon the fiber keeps with t; the receiver adds 2 p_dark per live slot
    t = math.exp(-0.5)
    noisy = ChainConfig(10.0, n_relays=1, eta=0.5, p_dark=1e-5,
                        positions_km=(0.0,))
    rep = run_chain(noisy)
    assert rep.p_s == pytest.approx(0.5 * t, abs=1e-15)
    assert rep.p_n == pytest.approx(2e-5 * t + 2e-5 * (0.5 + 2e-5),
                                    abs=1e-18)


def test_basis_labels_exported():
    assert ENCODER_SPATIAL == ("0", "a", "1", "2", "b")
    assert encoder_basis().photon_cap == 4


def test_encoder_basis_is_one_instance_per_cap():
    assert encoder_basis() is encoder_basis()
    assert encoder_basis(3) is encoder_basis(3)
    assert encoder_basis(3).photon_cap == 3
