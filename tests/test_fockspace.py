import math

import numpy as np
import pytest

from qrelay.errors import ContractViolationError
from qrelay.fockspace import (H, V, BasisMode, LinearModeTransform,
                              ModeBasis, PhotonicState, apply_transform,
                              basis_rotate_fs, enumerate_outcomes,
                              make_bell_phi_plus, make_qubit, pbs_hv, product)

from oracles import (amplitude, configs_up_to, dense_apply, fidelity,
                     haar_unitary, measure_pattern, occupation, overlap)


def small_basis():
    return ModeBasis(("p", "q", "r"))


def fock(basis, occupations):
    """The number state with the given {mode: count} occupations."""
    return PhotonicState(basis, {occupation(basis, occupations): 1.0})


def random_state(basis, rng, n_photons=3, n_terms=4):
    amps = {}
    for _ in range(n_terms):
        cfg = [0] * basis.size
        for _ in range(n_photons):
            cfg[rng.integers(basis.size)] += 1
        amps[tuple(cfg)] = complex(rng.standard_normal(), rng.standard_normal())
    n = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return PhotonicState(basis, {cfg: a / n for cfg, a in amps.items()})


def test_basis_ordering_and_lookup():
    b = small_basis()
    assert b.size == 6
    assert b.modes[0] == BasisMode("p", H)
    assert b.modes[1] == BasisMode("p", V)
    assert b.mode_index(("q", V)) == 3
    assert b.spatial_indices("r") == (4, 5)
    with pytest.raises(ValueError):
        b.mode_index(("nope", H))
    with pytest.raises(ValueError, match="unknown spatial mode 'nope'"):
        b.spatial_indices("nope")
    with pytest.raises(ValueError):
        ModeBasis(("p", "p"))
    # equal bases built apart hash equal, as __eq__ and __hash__ must agree
    assert hash(small_basis()) == hash(b) and small_basis() == b


def test_state_validation():
    b = small_basis()
    with pytest.raises(ValueError):
        PhotonicState(b, {(1, 0): 1.0})            # wrong length
    with pytest.raises(ValueError):
        PhotonicState(b, {(-1, 0, 0, 0, 0, 1): 1.0})
    # zero amplitudes are dropped on construction
    st = PhotonicState(b, {(1, 0, 0, 0, 0, 0): 0.0})
    assert st.amps == {}


def test_vacuum_fock_and_amplitude():
    b = small_basis()
    v = fock(b, {})
    assert v.norm() == 1.0
    assert v.amps == {(0,) * b.size: 1.0}
    f = fock(b, {("p", H): 2, ("q", V): 1})
    assert amplitude(f, {("p", H): 2, ("q", V): 1}) == 1.0
    assert amplitude(f, {("p", H): 1}) == 0j


def test_make_qubit_normalizes_and_records_factor():
    b = small_basis()
    q = make_qubit(b, 3.0, 4.0j, "q")
    assert math.isclose(q.norm(), 1.0, abs_tol=1e-15)
    assert amplitude(q, {("q", H): 1}) == pytest.approx(0.6)
    assert amplitude(q, {("q", V): 1}) == pytest.approx(0.8j)
    # finite amplitudes whose moduli overflow a double still normalize
    big = make_qubit(b, complex(1.7e308, 1.7e308), 1.7e308, "q")
    assert math.isclose(big.norm(), 1.0, abs_tol=1e-15)
    assert amplitude(big, {("q", V): 1}) == pytest.approx(1 / math.sqrt(3))
    with pytest.raises(ValueError, match="both zero"):
        make_qubit(b, 0, 0, "q")
    for alpha, beta in ((math.nan, 1.0), (math.inf, 0.0),
                        (1.0, complex(0.0, math.nan))):
        with pytest.raises(ValueError, match="must be finite"):
            make_qubit(b, alpha, beta, "q")


def test_bell_pair_amplitudes():
    b = small_basis()
    bell = make_bell_phi_plus(b, "p", "r")
    r = 1 / math.sqrt(2)
    assert amplitude(bell, {("p", H): 1, ("r", H): 1}) == pytest.approx(r)
    assert amplitude(bell, {("p", V): 1, ("r", V): 1}) == pytest.approx(r)
    assert math.isclose(bell.norm(), 1.0, abs_tol=1e-15)


def test_product_tensor_and_bosonic_factors():
    b = small_basis()
    one = fock(b, {("p", H): 1})
    # same mode twice: creation polynomial gives sqrt(2)|2>
    two = product(one, one)
    assert amplitude(two, {("p", H): 2}) == pytest.approx(math.sqrt(2))
    # disjoint modes: plain tensor product
    pq = product(one, fock(b, {("q", V): 1}))
    assert amplitude(pq, {("p", H): 1, ("q", V): 1}) == pytest.approx(1.0)
    # (a^dagger)^4 |0> = sqrt(4!) |4>
    assert amplitude(product(two, two), {("p", H): 4}) == pytest.approx(
        math.sqrt(24))


def test_transform_requires_unitary():
    b = small_basis()
    bad = np.eye(b.size, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ContractViolationError):
        LinearModeTransform(b, bad)
    with pytest.raises(ValueError):
        LinearModeTransform(b, np.eye(3, dtype=complex))
    for rows in ([[None] * b.size] * b.size, list(range(b.size))):
        with pytest.raises(ValueError, match="nested sequence of numbers"):
            LinearModeTransform(b, rows)


def test_different_bases_are_refused():
    b, other = small_basis(), ModeBasis(("p", "q"))
    one = fock(b, {("p", H): 1})
    t = basis_rotate_fs(b, "p")
    with pytest.raises(ValueError, match="different bases"):
        product(one, fock(other, {("p", H): 1}))
    with pytest.raises(ValueError, match="different bases"):
        t.then(basis_rotate_fs(other, "p"))
    with pytest.raises(ValueError, match="different bases"):
        apply_transform(fock(other, {}), t)


def test_identity_compose_inverse():
    b = small_basis()
    rng = np.random.default_rng(11)
    u = LinearModeTransform(b, haar_unitary(b.size, rng))
    st = random_state(b, rng)
    same = apply_transform(st, LinearModeTransform(b, np.eye(b.size)))
    assert fidelity(same, st) == pytest.approx(1.0, abs=1e-12)
    # u then u^-1 = u^dagger is the identity
    back = apply_transform(apply_transform(st, u),
                           LinearModeTransform(b, np.conj(u.matrix).T))
    assert fidelity(back, st) == pytest.approx(1.0, abs=1e-12)
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
    st = apply_transform(fock(b, {("q", H): 1}), rot)
    r = 1 / math.sqrt(2)
    assert amplitude(st, {("q", H): 1}) == pytest.approx(r)
    assert amplitude(st, {("q", V): 1}) == pytest.approx(r)


def test_pbs_routing():
    b = ModeBasis(("i1", "i2", "o1", "o2"))
    t = pbs_hv(b, ("i1", "i2"), ("o1", "o2"))
    # H transmits: first input -> first output; V reflects to the other port
    cases = [
        ({("i1", H): 1}, {("o1", H): 1}),
        ({("i1", V): 1}, {("o2", V): 1}),
        ({("i2", H): 1}, {("o2", H): 1}),
        ({("i2", V): 1}, {("o1", V): 1}),
    ]
    for occ_in, occ_out in cases:
        out = apply_transform(fock(b, occ_in), t)
        assert amplitude(out, occ_out) == pytest.approx(1.0)
        assert len(out.amps) == 1
    # two-photon pulse routes coherently with no extra factors
    out = apply_transform(fock(b, {("i1", H): 2}), t)
    assert amplitude(out, {("o1", H): 2}) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pbs_hv(b, ("i1", "i2"), ("o1", "i1"))


def test_norm_and_photon_number_preserved_on_random_circuits():
    # a linear transform conserves photon number, so states of any photon
    # count pass with no cutoff: every output term keeps its input's count
    rng = np.random.default_rng(7)
    b = small_basis()
    for _ in range(100):
        n = int(rng.integers(1, 7))
        st = random_state(b, rng, n_photons=n)
        u = LinearModeTransform(b, haar_unitary(b.size, rng))
        out = apply_transform(st, u)
        assert abs(out.norm() - 1.0) <= 1e-12
        assert out.amps and all(sum(c) == n for c in out.amps)


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


def test_enumerate_outcomes_empties_the_measured_modes():
    b = small_basis()
    q = make_qubit(b, 0.6, 0.8, "p")
    modes = [("p", H), ("p", V)]
    outcomes = enumerate_outcomes(q, modes)
    # the V count sorts first; no pattern of probability 0 is listed
    assert [pattern for pattern, _, _ in outcomes] == [
        {BasisMode("p", H): 0, BasisMode("p", V): 1},
        {BasisMode("p", H): 1, BasisMode("p", V): 0}]
    _, prob, cond = outcomes[1]
    assert prob == pytest.approx(0.36)
    assert amplitude(cond, {}) == pytest.approx(1.0)  # measured modes emptied
    # unnormalized input violates the precondition, and so does a NaN norm
    for amp in (0.5, math.nan):
        with pytest.raises(ContractViolationError):
            enumerate_outcomes(PhotonicState(b, {(1, 0, 0, 0, 0, 0): amp}),
                               modes)


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
        assert sum(pattern.values()) <= 2
        assert list(pattern) == [BasisMode(*m) for m in modes]
    # deterministic ordering by count tuples
    keys = [tuple(pat.values()) for pat, _, _ in outcomes]
    assert keys == sorted(keys)
    # single qubit measured in its own mode: |alpha|^2 and |beta|^2
    q = make_qubit(b, 0.6, 0.8, "q")
    out = enumerate_outcomes(q, [("q", H), ("q", V)])
    # count tuple (0,1) = the V outcome sorts first
    assert [round(p, 12) for _, p, _ in out] == [0.64, 0.36]
    assert out[0][0][("q", V)] == 1
    vac = enumerate_outcomes(fock(b, {}), [("p", H)])
    assert len(vac) == 1 and vac[0][1] == pytest.approx(1.0)


def _bits(state):
    return [(cfg, a.real.hex(), a.imag.hex()) for cfg, a in state.amps.items()]


@pytest.mark.parametrize("d2", ["2", "1"])
def test_enumerate_outcomes_equals_measure_pattern_bit_for_bit(d2):
    # the device readout on random qubits, with the second detector package
    # in place (mode 2) or moved onto the output mode (mode 1), and random
    # multi-photon states: every triple is measure_pattern's, bit for bit
    basis = ModeBasis(("0", "a", "1", "2", "b"))
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


def test_overlap_and_prune():
    b = small_basis()
    s1 = make_qubit(b, 1, 0, "p")
    s2 = make_qubit(b, 0.6, 0.8, "p")
    assert overlap(s1, s2) == pytest.approx(0.6)
    assert fidelity(s2, s2) == pytest.approx(1.0)
    # a transform's result keeps only amplitudes above PRUNE_TOL = 1e-14
    dusty = PhotonicState(b, {(1, 0, 0, 0, 0, 0): 1.0,
                              (0, 1, 0, 0, 0, 0): 1e-16,
                              (0, 0, 1, 0, 0, 0): 1e-13})
    identity = LinearModeTransform(b, np.eye(b.size))
    assert apply_transform(dusty, identity).amps == {
        (1, 0, 0, 0, 0, 0): 1.0, (0, 0, 1, 0, 0, 0): 1e-13}


def test_oracle_configs_enumeration():
    # the dense oracle's enumeration: C(6+k-1, k) configs per total k
    counts = {}
    for cfg in configs_up_to(6, 3):
        counts[sum(cfg)] = counts.get(sum(cfg), 0) + 1
    assert counts == {0: 1, 1: 6, 2: 21, 3: 56}
