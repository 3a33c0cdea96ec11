import cmath
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
from qrelay.circuit import (BASIS, _herald, _kraus_outcomes, _sign_flip,
                            derive_feed_forward_table, device_checks,
                            device_operators,
                            encoder_postselect, measured_relay_efficiency,
                            multiphoton_gate_probability, qnd_measure,
                            vacuum_gate_probability)
from qrelay.errors import ContractViolationError
from qrelay.fockspace import (H, V, apply_transform, basis_rotate_fs,
                              make_bell_phi_plus, make_qubit, pbs_hv,
                              product)

from oracles import (TRANSMITTED, amplitude, apply_relay, dense_apply,
                     fidelity)

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
    st = apply_transform(product(make_qubit(BASIS, a, b, "0"),
                                 make_bell_phi_plus(BASIS, "a", "1")),
                         pbs_hv(BASIS, ("0", "a"), ("2", "b")))
    r = 1 / math.sqrt(2)
    assert amplitude(st, {("1", H): 1, ("2", H): 1, ("b", H): 1}) == pytest.approx(a * r)
    assert amplitude(st, {("1", V): 1, ("2", V): 1, ("b", V): 1}) == pytest.approx(b * r)
    assert amplitude(st, {("1", V): 1, ("2", H): 1, ("2", V): 1}) == pytest.approx(a * r)
    assert amplitude(st, {("1", H): 1, ("b", H): 1, ("b", V): 1}) == pytest.approx(b * r)
    assert len(st.amps) == 4
    basis = st.basis
    bh, bv = basis.spatial_indices("b")
    for cfg in st.amps:
        assert cfg[bh] + cfg[bv] in (0, 1, 2)


def test_encoder_postselect_branches():
    a, b = 0.6, 0.8
    branches = encoder_postselect(a, b)
    assert sorted(ch for ch, _, _ in branches) == ["F", "S"]
    for ch, prob, cond in branches:
        assert prob == pytest.approx(0.25, abs=1e-12)
        sign = 1.0 if ch == "F" else -1.0
        got_hh = amplitude(cond, {("1", H): 1, ("2", H): 1})
        got_vv = amplitude(cond, {("1", V): 1, ("2", V): 1})
        assert got_hh == pytest.approx(a, abs=1e-12)
        assert got_vv == pytest.approx(sign * b, abs=1e-12)
        assert len(cond.amps) == 2


def test_encoder_postselect_complex_qubit():
    a, b = 0.48 + 0.36j, 0.8j
    branches = encoder_postselect(a, b)
    for ch, prob, cond in branches:
        assert prob == pytest.approx(0.25, abs=1e-12)
        sign = 1.0 if ch == "F" else -1.0
        assert amplitude(cond, {("1", H): 1, ("2", H): 1}) == pytest.approx(a, abs=1e-12)
        assert amplitude(cond, {("1", V): 1, ("2", V): 1}) == pytest.approx(sign * b, abs=1e-12)


def herald_device(alpha, beta):
    # the device's heralded run on the Fock engine, both packages read out
    return _herald(make_qubit(BASIS, alpha, beta, "0"), "2", "b")


@pytest.mark.parametrize("run", [qnd_measure, encoder_postselect,
                                 herald_device],
                         ids=["qnd_measure", "encoder_postselect",
                              "herald_device"])
@pytest.mark.parametrize("alpha, beta, message", [
    (math.nan, 1.0, "must be finite"), (1.0, math.inf, "must be finite"),
    (complex(0.6, math.nan), 0.8, "must be finite"),
    (0.0, 0.0, "both zero")])
def test_device_runs_reject_a_qubit_outside_the_domain(run, alpha, beta,
                                                       message):
    # one qubit rule for the Kraus path and the Fock engine alike: a
    # configuration error, not a norm contract violation further down
    with pytest.raises(ValueError, match=message) as info:
        run(alpha, beta)
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
    hi, vi = BASIS.spatial_indices("1")
    out = []
    qubit = make_qubit(BASIS, alpha, beta, "0")
    for ch2, chb, prob, cond in _herald(qubit, "2", "b"):
        assert all(sum(cfg) == 1 and cfg[hi] + cfg[vi] == 1 for cfg in cond.amps)
        r = math.sqrt(prob)
        out.append(((ch2, chb), (r * amplitude(cond, {("1", H): 1}),
                                 r * amplitude(cond, {("1", V): 1}))))
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
        assert [key for key, _w in want] == [(c2, cb) for c2, cb, *_ in ops]
        for (_key, w), (_c2, _cb, k, _f) in zip(want, ops):
            worst = max(worst, float(np.abs(k @ v - np.array(w)).max()))
    assert worst <= 1e-15


def test_device_operators_sum_to_half_the_identity():
    # sum_o K_o^dagger K_o = I/2: success probability 1/2 for every input
    total = sum(np.asarray(k).conj().T @ np.asarray(k)
                for _c2, _cb, k, _f in device_operators())
    assert np.abs(total - np.eye(2) / 2).max() <= 1e-15


def test_corrected_operators_are_a_phase_times_identity():
    # after the feed-forward sign, each outcome is e^{i phi}/sqrt(8) I: unit
    # fidelity and probability 1/8 for every input. The sign read off each
    # operator is the mixed-parity rule (F with S)
    flip = np.diag([1.0, -1.0])
    for ch2, chb, k, flipped in device_operators():
        assert flipped == (ch2 != chb)
        k = np.asarray(k)
        kc = flip @ k if ch2 != chb else k
        phase = kc[0, 0] / abs(kc[0, 0])
        assert np.abs(kc - phase * np.eye(2) / math.sqrt(8)).max() <= 1e-15


def test_qnd_measure_keeps_the_engine_outcome_order():
    for a, b in [(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0)] + random_qubits(5, 3):
        engine = [(c2, cb) for c2, cb, _p, _c in
                  _herald(make_qubit(BASIS, a, b, "0"), "2", "b")]
        rep = qnd_measure(a, b)
        assert [(o.channel_d2, o.channel_db) for o in rep.outcomes] == engine


def test_kraus_outcomes_match_the_fock_states_bit_for_bit():
    # the 2-vector helper reads the exact floats of the Fock states it does
    # not build: |K v|^2, the amplitudes make_qubit stores for the corrected
    # K v in mode 1, and that state's fidelity with make_qubit's reference,
    # extreme magnitudes included; qnd_measure's records are its rows
    ops = device_operators()
    for a, b in random_qubits(300, 20261018) + [
            (1, 0), (0, 1j), (1e-300, 1e-300j), (1e300, 1)]:
        reference = make_qubit(BASIS, a, b, "1")
        norm = math.hypot(abs(complex(a)), abs(complex(b)))
        v_h, v_v = complex(a) / norm, complex(b) / norm
        rep = qnd_measure(a, b)
        helper = _kraus_outcomes(a, b)
        assert len(rep.outcomes) == len(helper) == len(ops) == 4
        assert list(rep.outcomes) == helper
        for (ch2, chb, prob, flip, out, fid), (c2, cb, k, f) in zip(helper,
                                                                   ops):
            k_v = [row[0] * v_h + row[1] * v_v for row in k]
            output = make_qubit(BASIS, k_v[0], -k_v[1] if f else k_v[1], "1")
            assert (ch2, chb, flip) == (c2, cb, f)
            assert prob == abs(k_v[0]) ** 2 + abs(k_v[1]) ** 2
            assert out == (amplitude(output, {("1", H): 1}),
                           amplitude(output, {("1", V): 1}))
            assert fid == fidelity(output, reference)


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
    for _c2, _cb, k, flipped in ops:
        assert type(flipped) is bool
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
         "import qrelay.cli, qrelay.circuit as c; "
         "print(c.device_operators.cache_info().currsize)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "0"


def test_device_operators_refuse_an_outcome_off_mode_1(monkeypatch):
    # each accepted outcome must leave one photon in output mode 1: a
    # heralded run that leaves it in mode 0 breaks the device's contract
    stray = make_qubit(BASIS, 1.0, 0.0, "0")
    monkeypatch.setattr(circuit, "_herald",
                        lambda state, *packages: [("F", "F", 0.25, stray)])
    device_operators.cache_clear()
    try:
        with pytest.raises(ContractViolationError,
                           match="not one photon in mode 1"):
            device_operators()
    finally:
        device_operators.cache_clear()


def test_feed_forward_table():
    table = derive_feed_forward_table()
    assert table == {("F", "F"): False, ("S", "S"): False,
                     ("F", "S"): True, ("S", "F"): True}


def test_sign_flip_reads_the_operator_or_breaks_the_contract():
    c = cmath.exp(0.3j) / math.sqrt(8)
    assert _sign_flip("F", "F", ((c, 0j), (0j, c))) is False
    assert _sign_flip("F", "S", ((c, 0j), (0j, -c))) is True
    # no sign choice fixes a relative phase of i, an off-diagonal entry or
    # the zero operator
    for k in (((c, 0j), (0j, 1j * c)), ((c, 1e-6 * c), (0j, c)),
              ((c, 0j), (1e-6 * c, -c)), ((0j, 0j), (0j, 0j))):
        with pytest.raises(ContractViolationError, match="neither sign"):
            _sign_flip("S", "F", k)


def test_outcome_lookup():
    # one outcome per joint channel pair, found by its channels
    rep = qnd_measure(SQ2, SQ2)
    by_channels = {(o.channel_d2, o.channel_db): o for o in rep.outcomes}
    assert len(by_channels) == 4
    assert by_channels["S", "F"].flipped
    assert ("F", "X") not in by_channels


def test_vacuum_gate_probability_exactly_zero():
    assert vacuum_gate_probability() == 0.0


def test_diagnostic_variant_false_gates_on_vacuum():
    # moving the second detector package onto the output mode makes the Bell
    # pair itself trigger coincidences half the time with no input at all
    assert vacuum_gate_probability(d2_spatial="1") == pytest.approx(0.5, abs=1e-12)


def test_multiphoton_gate_probabilities():
    assert multiphoton_gate_probability(0) == 0.0
    assert multiphoton_gate_probability(1) == pytest.approx(0.5, abs=1e-12)
    # photon number is conserved, so any pulse fits the one basis; the gate
    # never reads polarization, so the pulse has none to give
    for n in range(2, 9):
        assert multiphoton_gate_probability(n) == 0.0
    # a count is a non-negative int, as every count in the package: a bool
    # is not one photon, and a float or a string is refused by name
    for bad in (-1, True, False, 1.0, 1.5, "2", None):
        with pytest.raises(ValueError, match="n_input"):
            multiphoton_gate_probability(bad)


def test_measured_relay_efficiency():
    assert measured_relay_efficiency() == pytest.approx(0.5, abs=1e-12)


def test_device_doubles_are_pinned_bit_for_bit():
    # the reports print these at %.12g, %.6f or %.3e, where an ulp move
    # would not show: each literal is the exact double, and repr keeps the
    # sign of every zero
    plus, minus = "(0.3535533905932737+0j)", "(-0.3535533905932737+0j)"
    for ch2, chb, k, _flip in device_operators():
        # the minus sign sits on the mixed-parity (F with S) outcomes
        assert repr(k) == (f"(({plus}, 0j), "
                           f"(0j, {minus if ch2 != chb else plus}))")
    branches = encoder_postselect(0.6, 0.8j)
    assert [p for _ch, p, _c in branches] == [0.24999999999999994] * 2
    assert vacuum_gate_probability("1") == 0.4999999999999998
    assert multiphoton_gate_probability(1) == 0.4999999999999998


def test_device_pipeline_against_dense_oracle():
    # the full encoder circuit (joint input through PBS + readout rotations)
    # reproduced with the permanent-based dense reference
    joint = product(make_qubit(BASIS, 0.6, 0.8j, "0"),
                    make_bell_phi_plus(BASIS, "a", "1"))
    t = circuit._readout("2", "b")
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
    ideal = ChainConfig(10.0, n_relays=1, eta=0.5, p_dark=0.0)
    rep = run_chain(ideal, (0.0,))
    assert rep.p_s == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
    assert rep.p_n == 0.0
    got = sample_chain(ideal, 10**6, seed=3, positions_km=(0.0,))
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
    noisy = ChainConfig(10.0, n_relays=1, eta=0.5, p_dark=1e-5)
    rep = run_chain(noisy, (0.0,))
    assert rep.p_s == pytest.approx(0.5 * t, abs=1e-15)
    assert rep.p_n == pytest.approx(2e-5 * t + 2e-5 * (0.5 + 2e-5),
                                    abs=1e-18)


def test_basis_labels_exported():
    assert BASIS.spatial == ("0", "a", "1", "2", "b")


@pytest.mark.parametrize("packages", [("b",), ("2", "b"), ("1", "b")],
                         ids=["encoder", "device", "diagnostic"])
def test_readout_is_the_pbs_then_each_package_rotation(packages):
    # each package tuple the device reads out is one cached transform, the
    # PBS composed with each package's F/S rotation: on the device's input
    # it gives the state of the same circuit applied a step at a time
    t = circuit._readout(*packages)
    assert circuit._readout(*packages) is t
    joint = product(make_qubit(BASIS, 0.6, 0.8j, "0"),
                    make_bell_phi_plus(BASIS, "a", "1"))
    want = apply_transform(joint, pbs_hv(BASIS, ("0", "a"), ("2", "b")))
    for spatial in packages:
        want = apply_transform(want, basis_rotate_fs(BASIS, spatial))
    got = apply_transform(joint, t)
    assert got.amps and set(got.amps) == set(want.amps)
    for cfg, amp in want.amps.items():
        assert got.amps[cfg] == pytest.approx(amp, abs=1e-12)


def test_encoder_basis_is_one_instance():
    # one basis instance for every device run and transform
    assert encoder_postselect(0.6, 0.8)[0][2].basis is BASIS
    assert _herald(make_qubit(BASIS, 1, 0, "0"), "2", "b")[0][3].basis is BASIS
    assert circuit._readout("1", "b").basis is BASIS
