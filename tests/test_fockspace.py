import math

import numpy as np
import pytest

from qrelay.errors import ContractViolationError
from qrelay.fockspace import (H, V, BasisMode, DetectionPattern,
                              LinearModeTransform, ModeBasis, PhotonicState,
                              apply_transform, basis_rotate_fs,
                              enumerate_outcomes, fock_state,
                              identity_transform, make_bell_phi_plus,
                              make_qubit, measure_pattern, pbs_hv, product,
                              vacuum)

from oracles import configs_up_to, dense_apply, haar_unitary


def small_basis(cap=3):
    return ModeBasis(("p", "q", "r"), photon_cap=cap)


def random_state(basis, rng, n_photons=3, n_terms=4):
    amps = {}
    for _ in range(n_terms):
        cfg = [0] * basis.size
        for _ in range(n_photons):
            cfg[rng.integers(basis.size)] += 1
        amps[tuple(cfg)] = complex(rng.standard_normal(), rng.standard_normal())
    return PhotonicState(basis, amps).normalized()


def test_basis_ordering_and_lookup():
    b = small_basis()
    assert b.size == 6
    assert b.modes[0] == BasisMode("p", H)
    assert b.modes[1] == BasisMode("p", V)
    assert b.mode_index(("q", V)) == 3
    assert b.spatial_indices("r") == (4, 5)
    with pytest.raises(ValueError):
        b.mode_index(("nope", H))
    with pytest.raises(ValueError):
        ModeBasis(("p", "p"))
    with pytest.raises(ValueError):
        ModeBasis(("p",), photon_cap=0)


def test_state_validation():
    b = small_basis()
    with pytest.raises(ValueError):
        PhotonicState(b, {(1, 0): 1.0})            # wrong length
    with pytest.raises(ValueError):
        PhotonicState(b, {(-1, 0, 0, 0, 0, 1): 1.0})
    with pytest.raises(ContractViolationError):
        PhotonicState(b, {(2, 2, 0, 0, 0, 0): 1.0})  # above the cap
    # zero amplitudes are dropped on construction
    st = PhotonicState(b, {(1, 0, 0, 0, 0, 0): 0.0})
    assert st.is_zero


def test_vacuum_fock_and_amplitude():
    b = small_basis()
    v = vacuum(b)
    assert v.norm() == 1.0
    assert v.total_photons() == 0
    f = fock_state(b, {("p", H): 2, ("q", V): 1})
    assert f.amplitude({("p", H): 2, ("q", V): 1}) == 1.0
    assert f.amplitude({("p", H): 1}) == 0j
    assert f.total_photons() == 3


def test_make_qubit_normalizes_and_records_factor():
    b = small_basis()
    q = make_qubit(b, 3.0, 4.0j, "q")
    assert math.isclose(q.norm(), 1.0, abs_tol=1e-15)
    assert q.amplitude({("q", H): 1}) == pytest.approx(0.6)
    assert q.amplitude({("q", V): 1}) == pytest.approx(0.8j)
    with pytest.raises(ValueError):
        make_qubit(b, 0, 0, "q")


def test_bell_pair_amplitudes():
    b = small_basis()
    bell = make_bell_phi_plus(b, "p", "r")
    r = 1 / math.sqrt(2)
    assert bell.amplitude({("p", H): 1, ("r", H): 1}) == pytest.approx(r)
    assert bell.amplitude({("p", V): 1, ("r", V): 1}) == pytest.approx(r)
    assert math.isclose(bell.norm(), 1.0, abs_tol=1e-15)


def test_product_tensor_and_bosonic_factors():
    b = small_basis()
    one = fock_state(b, {("p", H): 1})
    # same mode twice: creation polynomial gives sqrt(2)|2>
    two = product(one, one)
    assert two.amplitude({("p", H): 2}) == pytest.approx(math.sqrt(2))
    # disjoint modes: plain tensor product
    pq = product(one, fock_state(b, {("q", V): 1}))
    assert pq.amplitude({("p", H): 1, ("q", V): 1}) == pytest.approx(1.0)
    with pytest.raises(ContractViolationError):
        product(two, two)  # 4 photons in one mode, cap 3


def test_transform_requires_unitary():
    b = small_basis()
    bad = np.eye(b.size, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ContractViolationError):
        LinearModeTransform(b, bad)
    with pytest.raises(ValueError):
        LinearModeTransform(b, np.eye(3, dtype=complex))


def test_identity_compose_inverse():
    b = small_basis()
    rng = np.random.default_rng(11)
    u = LinearModeTransform(b, haar_unitary(b.size, rng))
    st = random_state(b, rng)
    same = apply_transform(st, identity_transform(b))
    assert same.fidelity(st) == pytest.approx(1.0, abs=1e-12)
    # u then u^-1 is the identity
    back = apply_transform(apply_transform(st, u), u.inverse())
    assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)
    # composition equals sequential application
    w = LinearModeTransform(b, haar_unitary(b.size, rng))
    ab = apply_transform(st, u.then(w))
    seq = apply_transform(apply_transform(st, u), w)
    for cfg in set(ab.amps) | set(seq.amps):
        assert ab.amps.get(cfg, 0j) == pytest.approx(seq.amps.get(cfg, 0j),
                                                     abs=1e-12)


def test_rotation_is_involution():
    b = small_basis()
    rot = basis_rotate_fs(b, "q")
    assert np.allclose(np.asarray(rot.matrix) @ rot.matrix, np.eye(b.size))
    # H photon reads out as (F + S)/sqrt(2)
    st = apply_transform(fock_state(b, {("q", H): 1}), rot)
    r = 1 / math.sqrt(2)
    assert st.amplitude({("q", H): 1}) == pytest.approx(r)
    assert st.amplitude({("q", V): 1}) == pytest.approx(r)


def test_pbs_routing():
    b = ModeBasis(("i1", "i2", "o1", "o2"), photon_cap=3)
    t = pbs_hv(b, ("i1", "i2"), ("o1", "o2"))
    # H transmits: first input -> first output; V reflects to the other port
    cases = [
        ({("i1", H): 1}, {("o1", H): 1}),
        ({("i1", V): 1}, {("o2", V): 1}),
        ({("i2", H): 1}, {("o2", H): 1}),
        ({("i2", V): 1}, {("o1", V): 1}),
    ]
    for occ_in, occ_out in cases:
        out = apply_transform(fock_state(b, occ_in), t)
        assert out.amplitude(occ_out) == pytest.approx(1.0)
        assert len(out.amps) == 1
    # two-photon pulse routes coherently with no extra factors
    out = apply_transform(fock_state(b, {("i1", H): 2}), t)
    assert out.amplitude({("o1", H): 2}) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pbs_hv(b, ("i1", "i2"), ("o1", "i1"))


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(7)
    b = small_basis()
    for _ in range(100):
        st = random_state(b, rng, n_photons=int(rng.integers(1, 4)))
        u = LinearModeTransform(b, haar_unitary(b.size, rng))
        out = apply_transform(st, u)
        assert abs(out.norm() - 1.0) <= 1e-12
        assert out.total_photons() == st.total_photons()


def test_sparse_engine_matches_dense_oracle_spot():
    rng = np.random.default_rng(13)
    b = small_basis()
    transforms = [
        LinearModeTransform(b, haar_unitary(b.size, rng)),
        basis_rotate_fs(b, "p"),
        basis_rotate_fs(b, "r").then(
            LinearModeTransform(b, haar_unitary(b.size, rng))),
    ]
    for t in transforms:
        for _ in range(5):
            st = random_state(b, rng, n_photons=int(rng.integers(0, 4)))
            got = apply_transform(st, t)
            want = dense_apply(t.matrix, st.amps)
            keys = set(got.amps) | set(want)
            for cfg in keys:
                assert got.amps.get(cfg, 0j) == pytest.approx(
                    want.get(cfg, 0j), abs=1e-12)


def test_measure_pattern():
    b = small_basis()
    q = make_qubit(b, 0.6, 0.8, "p")
    modes = [("p", H), ("p", V)]
    prob, cond = measure_pattern(q, modes, {("p", H): 1})
    assert prob == pytest.approx(0.36)
    assert cond.amplitude({}) == pytest.approx(1.0)   # measured modes emptied
    prob0, cond0 = measure_pattern(q, modes, {("p", H): 2})
    assert prob0 == 0.0 and cond0.is_zero
    # pattern naming an unmeasured mode is an error
    with pytest.raises(ValueError):
        measure_pattern(q, modes, {("q", H): 1})
    # unnormalized input violates the precondition
    with pytest.raises(ContractViolationError):
        measure_pattern(PhotonicState(b, {(1, 0, 0, 0, 0, 0): 0.5}), modes, {})


def test_enumerate_outcomes_completeness():
    rng = np.random.default_rng(3)
    b = small_basis()
    st = random_state(b, rng, n_photons=2, n_terms=6)
    modes = [("p", H), ("p", V), ("q", H)]
    outcomes = enumerate_outcomes(st, modes)
    assert math.isclose(sum(p for _, p, _ in outcomes), 1.0, abs_tol=1e-12)
    for pattern, p, cond in outcomes:
        assert p > 0
        assert abs(cond.norm() - 1.0) <= 1e-12
        assert pattern.total <= 2
    # deterministic ordering by count tuples
    keys = [tuple(n for _, n in pat.counts) for pat, _, _ in outcomes]
    assert keys == sorted(keys)
    # single qubit measured in its own mode: |alpha|^2 and |beta|^2
    q = make_qubit(b, 0.6, 0.8, "q")
    out = enumerate_outcomes(q, [("q", H), ("q", V)])
    # count tuple (0,1) = the V outcome sorts first
    assert [round(p, 12) for _, p, _ in out] == [0.64, 0.36]
    assert out[0][0].count(("q", V)) == 1
    vac = enumerate_outcomes(vacuum(b), [("p", H)])
    assert len(vac) == 1 and vac[0][1] == pytest.approx(1.0)


def _bits(state):
    return [(cfg, a.real.hex(), a.imag.hex()) for cfg, a in state.amps.items()]


@pytest.mark.parametrize("d2", ["2", "1"])
def test_enumerate_outcomes_equals_measure_pattern_bit_for_bit(d2):
    # the device readout on random qubits, with the second detector package
    # in place (mode 2) or moved onto the output mode (mode 1), and random
    # multi-photon states: every triple is measure_pattern's, bit for bit
    basis = ModeBasis(("0", "a", "1", "2", "b"), photon_cap=4)
    readout = (pbs_hv(basis, ("0", "a"), ("2", "b"))
               .then(basis_rotate_fs(basis, "b"))
               .then(basis_rotate_fs(basis, d2)))
    modes = [(d2, H), (d2, V), ("b", H), ("b", V)]
    rng = np.random.default_rng(11)
    states = []
    for _ in range(30):
        alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        states.append(apply_transform(
            product(make_qubit(basis, alpha, beta, "0"),
                    make_bell_phi_plus(basis, "a", "1")), readout))
    states += [random_state(basis, rng, n_photons=3, n_terms=12)
               for _ in range(10)]
    for st in states:
        outcomes = enumerate_outcomes(st, modes)
        assert outcomes
        for pattern, prob, cond in outcomes:
            want_prob, want = measure_pattern(st, modes, pattern)
            assert prob == want_prob
            assert _bits(cond) == _bits(want)
    with pytest.raises(ValueError, match="duplicate"):
        enumerate_outcomes(states[0], [("b", H), ("b", H)])


def test_detection_pattern_helpers():
    b = small_basis()
    pat = DetectionPattern.from_dict(b, {("q", H): 2, ("p", V): 1})
    assert pat.count(("q", H)) == 2
    assert pat.count(("r", H)) == 0
    assert pat.total == 3
    assert pat.as_dict()[BasisMode("p", V)] == 1


def test_overlap_and_prune():
    b = small_basis()
    s1 = make_qubit(b, 1, 0, "p")
    s2 = make_qubit(b, 0.6, 0.8, "p")
    assert s1.overlap(s2) == pytest.approx(0.6)
    assert s2.fidelity(s2) == pytest.approx(1.0)
    dusty = PhotonicState(b, {(1, 0, 0, 0, 0, 0): 1.0,
                              (0, 1, 0, 0, 0, 0): 1e-16})
    assert len(dusty.prune().amps) == 1


def test_oracle_configs_enumeration():
    # the dense oracle's enumeration: C(6+k-1, k) configs per total k
    counts = {}
    for cfg in configs_up_to(6, 3):
        counts[sum(cfg)] = counts.get(sum(cfg), 0) + 1
    assert counts == {0: 1, 1: 6, 2: 21, 3: 56}
