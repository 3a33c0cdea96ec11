"""Nondestructive photon-presence measurement built from linear optics.

The device interferes an incoming polarization qubit (spatial mode 0) with one
half of a Bell pair (modes a, 1) on a polarizing beam splitter whose outputs
(modes 2, b) are read out in the diagonal F/S basis. A coincidence of exactly
one photon in each detector package signals "photon present" and leaves the
qubit, up to a known sign correction, in mode 1 without having measured its
polarization.

The device lives on one five-mode basis, BASIS, and one function runs it
on the Fock engine, _herald: the input in mode 0 with the Bell pair, through
the PBS and each detector package's F/S readout, kept where every package
saw one and only one photon. The Kraus operators, the gate probabilities,
the diagnostic and the encoder projection are each a heralded run. The
device is linear in the input amplitudes, so each accepted outcome is a 2x2
Kraus operator from the input qubit to mode 1: qnd_measure and the device
checks apply the four cached operators of device_operators to the input's
2-vector and read each outcome's feed-forward sign off its operator. Like
fockspace, the module is pure Python.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

from .errors import ContractViolationError, check_int
from .fockspace import (
    H,
    V,
    ModeBasis,
    PhotonicState,
    _unit_qubit,
    apply_transform,
    basis_rotate_fs,
    enumerate_outcomes,
    make_bell_phi_plus,
    make_qubit,
    pbs_hv,
    product,
)

# the device's five spatial modes: input 0, Bell pair (a, 1), PBS outputs
# (2, b); one shared instance, since no caller mutates a ModeBasis
BASIS = ModeBasis(("0", "a", "1", "2", "b"))


@functools.cache
def _readout(*packages: str):
    """PBS from (0, a) into (2, b), then the F/S readout of each package's
    mode; built once per package tuple, as a transform is immutable."""
    t = pbs_hv(BASIS, ("0", "a"), ("2", "b"))
    for spatial in packages:
        t = t.then(basis_rotate_fs(BASIS, spatial))
    return t


def _herald(state: PhotonicState, *packages: str) -> list[tuple]:
    """The device's heralded run on an input state in mode 0: with the Bell
    pair (a, 1), through _readout(*packages), kept where every package saw
    one and only one photon (its H slot counts F photons, its V slot S).
    Returns (channel per package..., probability, conditional) per kept
    pattern, in enumerate_outcomes' order."""
    joint = product(state, make_bell_phi_plus(BASIS, "a", "1"))
    st = apply_transform(joint, _readout(*packages))
    measured = [(spatial, pol) for spatial in packages for pol in (H, V)]
    heralded = []
    for pattern, prob, cond in enumerate_outcomes(st, measured):
        counts = [(pattern[(p, H)], pattern[(p, V)]) for p in packages]
        if all(f + s == 1 for f, s in counts):
            channels = ("F" if f else "S" for f, _s in counts)
            heralded.append((*channels, prob, cond))
    return heralded


class PackageOutcome(NamedTuple):
    """One accepted joint detector outcome of the device."""

    channel_d2: str
    channel_db: str
    probability: float
    flipped: bool                 # sign correction applied by feed-forward
    output: tuple[complex, complex]  # normalized corrected mode-1 (H, V)
    fidelity: float               # against the input qubit


class QndReport(NamedTuple):
    outcomes: tuple[PackageOutcome, ...]
    success_probability: float


def encoder_postselect(alpha, beta):
    """Heralded Bell-state encoding: the device read out on package b alone.

    Returns a list of (channel, probability, conditional) for the one-photon
    outcomes in the b package. Each branch has probability 1/4 and leaves
    modes 1 and 2 in (alpha|HH> +/- beta|VV>) up to normalization.
    """
    return _herald(make_qubit(BASIS, alpha, beta, "0"), "b")


# a 2x2 operator over (H, V) as its two rows
Kraus = tuple[tuple[complex, complex], tuple[complex, complex]]


def _sign_flip(ch2: str, chb: str, k: Kraus) -> bool:
    """The feed-forward sign of outcome (ch2, chb), read off its operator.

    K must be a phase times diag(1, 1) or diag(1, -1), each entry within
    1e-9 of |K_HH|; the outcome is flipped (its V amplitude negated) in the
    -1 case. An operator that neither sign choice fixes breaks the device
    contract.
    """
    (k00, k01), (k10, k11) = k
    tol = 1e-9 * abs(k00)
    if k00 and abs(k01) <= tol and abs(k10) <= tol:
        for flip in (False, True):
            if abs(k11 - (-k00 if flip else k00)) <= tol:
                return flip
    raise ContractViolationError(
        f"outcome ({ch2},{chb}) is fixed by neither sign choice")


@functools.cache
def device_operators() -> tuple[tuple[str, str, Kraus, bool], ...]:
    """The device's accepted outcomes as (channel_d2, channel_db, K,
    flipped) records.

    The device is linear in the input amplitudes, so outcome o maps the
    normalized qubit v = (alpha, beta) in mode 0 to the unnormalized mode-1
    state K_o v = sqrt(p) * cond, with K_o a 2x2 matrix over (H, V)
    (operator-sum form). Two heralded runs, on |H> and |V>, give the
    columns of every K_o, and flipped is its feed-forward sign (_sign_flip).
    Built on the first call and cached, each K_o an immutable tuple of rows;
    the outcomes keep _herald's order.
    """
    out_h, out_v = BASIS.spatial_indices("1")
    ops: dict[tuple[str, str], list[list[complex]]] = {}
    for col, (alpha, beta) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        qubit = make_qubit(BASIS, alpha, beta, "0")
        for ch2, chb, prob, cond in _herald(qubit, "2", "b"):
            k = ops.setdefault((ch2, chb), [[0j, 0j], [0j, 0j]])
            for cfg, amp in cond.amps.items():
                if sum(cfg) != 1 or cfg[out_h] + cfg[out_v] != 1:
                    raise ContractViolationError(
                        f"outcome ({ch2},{chb}) leaves {cfg}, not one photon "
                        f"in mode 1")
                k[0 if cfg[out_h] else 1][col] = math.sqrt(prob) * amp
    kraus = {key: (tuple(k[0]), tuple(k[1])) for key, k in ops.items()}
    return tuple((ch2, chb, k, _sign_flip(ch2, chb, k))
                 for (ch2, chb), k in kraus.items())


def _kraus_outcomes(alpha, beta) -> list[tuple]:
    """The four cached Kraus operators applied to the qubit's 2-vector.

    Returns PackageOutcome's six fields as a plain tuple per accepted
    outcome, in device_operators' order: w = K v on the normalized input v
    with its outcome's feed-forward sign applied, the probability |w|^2,
    the output w normalized by hypot, and the fidelity of that output with
    v, the package's one fidelity. v and the output are make_qubit's
    normalization, _unit_qubit, and the fidelity is |<output|input>|^2 of
    the two mode-1 states, H term first, so every value is bit for bit the
    states' value, with no state built. Non-finite amplitudes and the zero
    vector are a ValueError.
    """
    a, b = _unit_qubit(alpha, beta)
    outcomes = []
    for ch2, chb, ((k00, k01), (k10, k11)), flip in device_operators():
        w_h, w_v = k00 * a + k01 * b, k10 * a + k11 * b
        prob = abs(w_h) ** 2 + abs(w_v) ** 2
        if flip:
            w_v = -w_v
        m = math.hypot(abs(w_h), abs(w_v))
        out_h, out_v = w_h / m, w_v / m
        fid = abs(out_h.conjugate() * a + out_v.conjugate() * b) ** 2
        outcomes.append((ch2, chb, prob, flip, (out_h, out_v), fid))
    return outcomes


def qnd_measure(alpha, beta) -> QndReport:
    """Device run on a single-photon qubit, through its Kraus operators.

    Applies the four cached operators of device_operators (built from two
    heralded runs) to the normalized input: each accepted outcome (one and
    only one photon in each detector package) has probability |K v|^2 and
    leaves K v normalized in mode 1. Applies each outcome's feed-forward
    sign, read off its K, and reports every accepted outcome, in
    _herald's order, with its corrected output pair and fidelity
    (_kraus_outcomes' rows, wrapped). Success probability is exactly 1/2
    with each of the four joint outcomes at 1/8. Non-finite amplitudes are a
    configuration error (ValueError), not a contract violation, as is the
    zero vector.
    """
    outcomes = tuple(map(PackageOutcome._make, _kraus_outcomes(alpha, beta)))
    return QndReport(outcomes=outcomes, success_probability=sum(
        o.probability for o in outcomes))


def derive_feed_forward_table() -> dict[tuple[str, str], bool]:
    """Which joint outcomes need the sign correction: the flips that
    device_operators reads off the Kraus operators, with no engine run of
    its own. device_checks compares it with the mixed-parity (F with S)
    outcomes that the physics predicts.
    """
    return {(ch2, chb): flip for ch2, chb, _k, flip in device_operators()}


def _gate_probability(n_input: int, d2_spatial: str = "2") -> float:
    """Summed accepted probability of an n-photon H pulse in mode 0, the
    basis's first mode; the device never reads polarization."""
    pulse = PhotonicState(BASIS, {(n_input,) + (0,) * (BASIS.size - 1): 1.0})
    return float(sum(prob for *_ch, prob, _c in
                     _herald(pulse, d2_spatial, "b")))


def vacuum_gate_probability(d2_spatial: str = "2") -> float:
    """Probability of a (false) gate with no input photon.

    Exactly zero for the real device. Relocating the second detector package
    onto the output mode (d2_spatial="1") is a diagnostic that shows why that
    placement would false-gate on vacuum with probability 1/2.
    """
    return _gate_probability(0, d2_spatial)


def multiphoton_gate_probability(n_input: int) -> float:
    """Gate probability of an n-photon input pulse, whatever its polarization.

    Any input with two or more photons is rejected outright: with the Bell
    photon parked in mode 1, n + 1 >= 3 photons reach the two detector
    packages and can never satisfy the joint one-and-only-one condition.
    n_input must be a non-negative integer (ValueError otherwise).
    """
    check_int(n_input, "n_input")
    return _gate_probability(n_input)


def measured_relay_efficiency() -> float:
    """Device pass probability, 1/2, taken from the circuit simulation: the
    success probability of the diagonal qubit. No layer reads it; the chain
    layer hand-enters eta = 0.5, and the tests tie that value to this one.
    """
    return qnd_measure(1 / math.sqrt(2), 1 / math.sqrt(2)).success_probability


def device_checks(trials: int, seed: int) -> list[dict]:
    """The device invariant suite behind `qrelay verify-circuit`.

    Applies the Kraus operators to four fixed qubits and to `trials` random
    ones, each from four normals drawn from random.Random(seed), as
    qnd_measure does but on the 2-vectors alone; checks two exact
    identities of the Kraus operators (sum of K^dagger K = I/2, each
    sign-corrected K a phase times I/sqrt(8)), compares the derived
    feed-forward table with the expected one, and runs the Fock engine for
    the vacuum and two-photon rejections and the encoder branches. Returns
    the seven checks as {"name", "ok", "detail"} records, in a fixed order.
    `trials` must be an integer >= 1 and `seed` a non-negative integer
    (ValueError otherwise).
    """
    check_int(trials, "trials", 1)
    check_int(seed, "seed")
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
        for _c2, _cb, prob, _flip, _w, fid in _kraus_outcomes(a, b):
            total += prob
            worst_fid = max(worst_fid, abs(fid - 1.0))
        worst_succ = max(worst_succ, abs(total - 0.5))
    ops = device_operators()
    # (K^dagger K)[i][j] = conj(K[0][i]) K[0][j] + conj(K[1][i]) K[1][j],
    # summed over the outcomes
    completeness = max(
        abs(sum(k[0][i].conjugate() * k[0][j] + k[1][i].conjugate() * k[1][j]
                for _c2, _cb, k, _f in ops) - (0.5 if i == j else 0.0))
        for i in (0, 1) for j in (0, 1))
    worst_op = 0.0
    for _c2, _cb, (row_h, row_v), flip in ops:
        if flip:            # the feed-forward sign on (H, V)
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
    # the physics expectation: a mixed-parity coincidence flips the sign
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
