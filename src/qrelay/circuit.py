"""Nondestructive photon-presence measurement built from linear optics.

The device interferes an incoming polarization qubit (spatial mode 0) with one
half of a Bell pair (modes a, 1) on a polarizing beam splitter whose outputs
(modes 2, b) are read out in the diagonal F/S basis. A coincidence of exactly
one photon in each detector package signals "photon present" and leaves the
qubit, up to a known sign correction, in mode 1 without having measured its
polarization.

Every device run uses one Fock basis, capped at four photons: the ancilla
pair plus up to two input photons, enough for the single-photon runs and the
two-photon rejection. Only multiphoton_gate_probability takes a higher cap.

Linear optics with post-selection is linear in the input amplitudes, so each
accepted outcome is a 2x2 Kraus operator from the input qubit to mode 1.
qnd_measure and the device checks apply the four cached operators of
device_operators, built from two Fock-engine runs on |H> and |V>, to the
input's 2-vector; the diagnostics, the feed-forward table and the encoder
projection run the engine itself. Like fockspace, the module is pure Python:
each operator is a 2x2 tuple of complex.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from typing import NamedTuple, Optional

from .errors import ContractViolationError
from .fockspace import (
    H,
    V,
    ModeBasis,
    PhotonicState,
    apply_transform,
    basis_rotate_fs,
    enumerate_outcomes,
    make_bell_phi_plus,
    make_qubit,
    pbs_hv,
    product,
    vacuum,
)

ENCODER_SPATIAL = ("0", "a", "1", "2", "b")

# detector channel labels after the F/S readout rotation: the H slot of a
# rotated mode counts F photons, the V slot counts S photons
F_CHANNEL = "F"
S_CHANNEL = "S"


@functools.cache
def encoder_basis(photon_cap: int = 4) -> ModeBasis:
    """The fixed five-spatial-mode basis used by the device.

    Device runs use the default cap of 4; multiphoton_gate_probability asks
    for more. One shared instance per photon cap; no caller mutates a
    ModeBasis.
    """
    return ModeBasis(ENCODER_SPATIAL, photon_cap=photon_cap)


@functools.cache
def _device_transform(basis: ModeBasis, d2_spatial: str = "2"):
    """PBS from (0, a) into (2, b), then F/S readout on b and on the second
    detector package's mode (mode 2 normally, mode 1 for the diagnostic).

    Built once per (basis, d2_spatial); a transform is immutable.
    """
    t = pbs_hv(basis, ("0", "a"), ("2", "b"))
    t = t.then(basis_rotate_fs(basis, "b"))
    return t.then(basis_rotate_fs(basis, d2_spatial))


def build_encoder_state(alpha, beta) -> PhotonicState:
    """Qubit plus Bell pair after the PBS, before any readout rotation.

    Four terms: the two accepted ones keep one photon in mode b, the two
    rejected ones put zero or two photons there.
    """
    basis = encoder_basis()
    joint = product(make_qubit(basis, alpha, beta, "0"),
                    make_bell_phi_plus(basis, "a", "1"))
    return apply_transform(joint, pbs_hv(basis, ("0", "a"), ("2", "b")))


def _package_modes(spatial: str):
    return [(spatial, H), (spatial, V)]


def _one_and_only_one(pattern: dict, spatial: str) -> Optional[str]:
    """Channel label if the package saw exactly one photon, else None."""
    f = pattern[(spatial, H)]
    s = pattern[(spatial, V)]
    if f + s != 1:
        return None
    return F_CHANNEL if f == 1 else S_CHANNEL


class PackageOutcome(NamedTuple):
    """One accepted joint detector outcome of the device."""

    channel_d2: str
    channel_db: str
    probability: float
    flipped: bool                 # sign correction applied by feed-forward
    output: PhotonicState         # corrected single-photon state in mode 1
    fidelity: float               # against the input qubit


class QndReport(NamedTuple):
    outcomes: tuple[PackageOutcome, ...]
    success_probability: float


def feed_forward_sign(state: PhotonicState, spatial: str = "1") -> PhotonicState:
    """Sign correction: phase (-1) per V photon in the given spatial mode.

    Negates the beta component of a qubit there, and the VV component of a
    two-qubit correlated state. Applying it twice is the identity.
    """
    _, vi = state.basis.spatial_indices(spatial)
    return PhotonicState(state.basis,
                         {c: a * (-1) ** c[vi] for c, a in state.amps.items()})


def encoder_postselect(alpha, beta):
    """Heralded Bell-state encoding: read out mode b only.

    Returns a list of (channel, probability, conditional) for the one-photon
    outcomes in the b package. Each branch has probability 1/4 and leaves
    modes 1 and 2 in (alpha|HH> +/- beta|VV>) up to normalization.
    """
    basis = encoder_basis()
    st = apply_transform(build_encoder_state(alpha, beta),
                         basis_rotate_fs(basis, "b"))
    branches = []
    for pattern, prob, cond in enumerate_outcomes(st, _package_modes("b")):
        ch = _one_and_only_one(pattern, "b")
        if ch is not None:
            branches.append((ch, prob, cond))
    return branches


def _run_device(input_state: PhotonicState, d2_spatial: str = "2"):
    """Interfere with the ancilla pair and enumerate joint package outcomes."""
    basis = input_state.basis
    joint = product(input_state, make_bell_phi_plus(basis, "a", "1"))
    st = apply_transform(joint, _device_transform(basis, d2_spatial))
    measured = _package_modes(d2_spatial) + _package_modes("b")
    accepted = []
    for pattern, prob, cond in enumerate_outcomes(st, measured):
        ch2 = _one_and_only_one(pattern, d2_spatial)
        chb = _one_and_only_one(pattern, "b")
        if ch2 is not None and chb is not None:
            accepted.append((ch2, chb, prob, cond))
    return accepted


# a 2x2 operator over (H, V) as its two rows
Kraus = tuple[tuple[complex, complex], tuple[complex, complex]]


@functools.cache
def device_operators() -> tuple[tuple[str, str, Kraus], ...]:
    """The device's accepted outcomes as (channel_d2, channel_db, K) triples.

    The device is linear in the input amplitudes, so outcome o maps the
    normalized qubit v = (alpha, beta) in mode 0 to the unnormalized mode-1
    state K_o v = sqrt(p) * cond, with K_o a 2x2 matrix over (H, V)
    (operator-sum form). Two _run_device runs, on |H> and |V>, give the
    columns of every K_o. Built on the first call and cached, each K_o an
    immutable tuple of rows; the outcomes keep _run_device's order.
    """
    basis = encoder_basis()
    out_h, out_v = basis.spatial_indices("1")
    ops: dict[tuple[str, str], list[list[complex]]] = {}
    for col, (alpha, beta) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        qubit = make_qubit(basis, alpha, beta, "0")
        for ch2, chb, prob, cond in _run_device(qubit):
            k = ops.setdefault((ch2, chb), [[0j, 0j], [0j, 0j]])
            for cfg, amp in cond.amps.items():
                if sum(cfg) != 1 or cfg[out_h] + cfg[out_v] != 1:
                    raise ContractViolationError(
                        f"outcome ({ch2},{chb}) leaves {cfg}, not one photon "
                        f"in mode 1")
                k[0 if cfg[out_h] else 1][col] = math.sqrt(prob) * amp
    return tuple((ch2, chb, (tuple(k[0]), tuple(k[1])))
                 for (ch2, chb), k in ops.items())


def _kraus_outcomes(alpha, beta) -> list[tuple]:
    """The four cached Kraus operators applied to the qubit's 2-vector.

    Returns (channel_d2, channel_db, probability, flipped, (w_H, w_V),
    fidelity) per accepted outcome, in device_operators' order: w = K v on
    the normalized input v with the feed-forward sign applied, |w|^2, and
    the fidelity of w normalized by hypot with v. That is the arithmetic of
    make_qubit and PhotonicState.fidelity, so every value is bit for bit the
    states' value, with no state built. Non-finite amplitudes and the zero
    vector are a ValueError.
    """
    alpha, beta = complex(alpha), complex(beta)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"qubit amplitudes must be finite, got "
                         f"({alpha}, {beta})")
    norm = math.hypot(abs(alpha), abs(beta))
    if norm == 0:
        raise ValueError("qubit amplitudes are both zero")
    a, b = alpha / norm, beta / norm
    outcomes = []
    for ch2, chb, ((k00, k01), (k10, k11)) in device_operators():
        w_h, w_v = k00 * a + k01 * b, k10 * a + k11 * b
        prob = abs(w_h) ** 2 + abs(w_v) ** 2
        # the feed-forward sign correction, as feed_forward_sign applies it
        flip = ch2 != chb
        if flip:
            w_v = -w_v
        m = math.hypot(abs(w_h), abs(w_v))
        fid = abs((w_h / m).conjugate() * a + (w_v / m).conjugate() * b) ** 2
        outcomes.append((ch2, chb, prob, flip, (w_h, w_v), fid))
    return outcomes


def qnd_measure(alpha, beta) -> QndReport:
    """Device run on a single-photon qubit, through its Kraus operators.

    Applies the four cached operators of device_operators (built from two
    Fock-engine runs) to the normalized input: each accepted outcome (one and
    only one photon in each detector package) has probability |K v|^2 and
    leaves K v normalized in mode 1. Applies the enumerated feed-forward sign
    rule and reports every accepted outcome, in _run_device's order, with its
    corrected output state and fidelity. Success probability is exactly 1/2
    with each of the four joint outcomes at 1/8. Non-finite amplitudes are a
    configuration error (ValueError), not a contract violation, as is the
    zero vector.
    """
    basis = encoder_basis()
    outcomes = []
    total = 0.0
    for ch2, chb, prob, flip, (w_h, w_v), fid in _kraus_outcomes(alpha, beta):
        outcomes.append(PackageOutcome(
            channel_d2=ch2, channel_db=chb, probability=prob, flipped=flip,
            output=make_qubit(basis, w_h, w_v, "1"), fidelity=fid))
        total += prob
    return QndReport(outcomes=tuple(outcomes), success_probability=total)


def derive_feed_forward_table(probe=(0.6, 0.8j)) -> dict[tuple[str, str], bool]:
    """Which joint outcomes need the sign correction, found by enumeration.

    Probes the device with an asymmetric qubit and marks an outcome as
    flipped when the raw conditional state needs feed_forward_sign to reach
    unit fidelity with the input. The result flips exactly the mixed-parity
    outcomes (F with S).
    """
    alpha, beta = probe
    basis = encoder_basis()
    reference = make_qubit(basis, alpha, beta, "1")
    table = {}
    for ch2, chb, _prob, cond in _run_device(make_qubit(basis, alpha, beta, "0")):
        fid_raw = cond.fidelity(reference)
        fid_flip = feed_forward_sign(cond, "1").fidelity(reference)
        if not (math.isclose(fid_raw, 1.0, abs_tol=1e-9)
                ^ math.isclose(fid_flip, 1.0, abs_tol=1e-9)):
            raise ContractViolationError(
                f"outcome ({ch2},{chb}) is fixed by neither or both sign choices")
        table[(ch2, chb)] = fid_flip > fid_raw
    return table


def vacuum_gate_probability(d2_spatial: str = "2") -> float:
    """Probability of a (false) gate with no input photon.

    Exactly zero for the real device. Relocating the second detector package
    onto the output mode (d2_spatial="1") is a diagnostic that shows why that
    placement would false-gate on vacuum with probability 1/2.
    """
    return float(sum(prob for *_ch, prob, _c in
                     _run_device(vacuum(encoder_basis()), d2_spatial)))


def multiphoton_gate_probability(n_input: int, alpha=1.0, beta=0.0,
                                 photon_cap: int = 4) -> float:
    """Gate probability for an n-photon polarized input pulse.

    Any input with two or more photons is rejected outright: with the Bell
    photon parked in mode 1, n + 1 >= 3 photons reach the two detector
    packages and can never satisfy the joint one-and-only-one condition.
    """
    if n_input < 0:
        raise ValueError("photon number must be nonnegative")
    if n_input + 2 > photon_cap:
        raise ValueError(
            f"{n_input} input photons plus the ancilla pair exceeds the "
            f"photon cap {photon_cap}")
    basis = encoder_basis(photon_cap)
    if n_input == 0:
        st = vacuum(basis)
    else:
        st = make_qubit(basis, alpha, beta, "0")
        for _ in range(n_input - 1):
            st = product(st, make_qubit(basis, alpha, beta, "0"))
        st = st.normalized()
    return float(sum(prob for *_ch, prob, _c in _run_device(st)))


def measured_relay_efficiency() -> float:
    """Device pass probability taken from the circuit simulation itself.

    Chain and formula layers can source their efficiency parameter from here
    instead of hand-entering 1/2.
    """
    return qnd_measure(1 / math.sqrt(2), 1 / math.sqrt(2)).success_probability


def device_checks(trials: int, seed: int) -> list[dict]:
    """The device invariant suite behind `qrelay verify-circuit`.

    Applies the Kraus operators to four fixed qubits and to `trials` random
    ones, each from four normals drawn from random.Random(seed), as
    qnd_measure does but on the 2-vectors alone; checks two exact
    identities of the Kraus operators (sum of K^dagger K = I/2, each
    sign-corrected K a phase times I/sqrt(8)), and runs the Fock engine for
    the feed-forward table, the vacuum and two-photon rejections and the
    encoder branches. Returns the seven checks as {"name", "ok", "detail"}
    records, in a fixed order. `trials` must be an integer >= 1 and `seed` a
    non-negative integer (ValueError otherwise).
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def probes():
        # drawn one at a time, not held in a list
        yield from ((1.0, 0.0), (0.0, 1.0),
                    (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8j))
        gauss = random.Random(seed).gauss
        for _ in range(trials):
            yield (complex(gauss(0.0, 1.0), gauss(0.0, 1.0)),
                   complex(gauss(0.0, 1.0), gauss(0.0, 1.0)))

    n_inputs = 0
    worst_succ = 0.0
    worst_fid = 0.0
    for a, b in probes():
        n_inputs += 1
        total = 0.0     # summed as qnd_measure sums its success probability
        for *_ch, prob, _flip, _w, fid in _kraus_outcomes(a, b):
            total += prob
            worst_fid = max(worst_fid, abs(fid - 1.0))
        worst_succ = max(worst_succ, abs(total - 0.5))
    ops = device_operators()
    # (K^dagger K)[i][j] = conj(K[0][i]) K[0][j] + conj(K[1][i]) K[1][j],
    # summed over the outcomes
    completeness = max(
        abs(sum(k[0][i].conjugate() * k[0][j] + k[1][i].conjugate() * k[1][j]
                for *_ch, k in ops) - (0.5 if i == j else 0.0))
        for i in (0, 1) for j in (0, 1))
    worst_op = 0.0
    for ch2, chb, (row_h, row_v) in ops:
        if ch2 != chb:      # the feed-forward sign on (H, V)
            row_v = tuple(-u for u in row_v)
        phase = row_h[0] / abs(row_h[0])
        target = phase / math.sqrt(8)
        worst_op = max(worst_op, abs(row_h[0] - target), abs(row_h[1]),
                       abs(row_v[0]), abs(row_v[1] - target))
    check("success_probability", worst_succ <= 1e-12 and completeness <= 1e-12,
          f"max |P - 1/2| = {worst_succ:.3e} over {n_inputs} inputs, "
          f"|sum K^dagger K - I/2| = {completeness:.3e}")
    check("corrected_fidelity", worst_fid <= 1e-12 and worst_op <= 1e-12,
          f"max |F - 1| = {worst_fid:.3e} over all accepted outcomes, "
          f"max |corrected K - phase I/sqrt(8)| = {worst_op:.3e}")

    rep = qnd_measure(1 / math.sqrt(2), 1 / math.sqrt(2))
    probs = sorted(o.probability for o in rep.outcomes)
    check("outcome_probabilities",
          len(probs) == 4 and all(abs(p - 0.125) <= 1e-12 for p in probs),
          f"accepted outcome probabilities {['%.6f' % p for p in probs]}")

    table = derive_feed_forward_table()
    expected = {("F", "F"): False, ("S", "S"): False,
                ("F", "S"): True, ("S", "F"): True}
    check("feed_forward_table", table == expected,
          f"flip table {sorted(table.items())}")

    p_vac = vacuum_gate_probability()
    check("vacuum_rejected", p_vac == 0.0, f"vacuum gate probability {p_vac!r}")
    p_two = multiphoton_gate_probability(2)
    check("two_photon_rejected", p_two == 0.0,
          f"two-photon gate probability {p_two!r}")

    branches = encoder_postselect(0.6, 0.8)
    bp = sorted(p for _ch, p, _c in branches)
    check("encoder_branches",
          len(bp) == 2 and all(abs(p - 0.25) <= 1e-12 for p in bp),
          f"heralded branch probabilities {['%.6f' % p for p in bp]}")
    return checks
