"""Sparse Fock-state simulator for polarization-resolved optical modes.

States are sparse maps from occupation configurations to complex amplitudes.
Every spatial mode carries two basis modes (horizontal H and vertical V
polarization), and linear-optics elements act by rewriting creation operators,
so multi-photon bookkeeping (the sqrt(n!) factors) is handled exactly. A
linear transform conserves photon number and a state stores only the
configurations it occupies, so no photon-number cutoff is needed; a
transform's result drops amplitudes of magnitude PRUNE_TOL or less.

The module is pure Python: a transform is a tuple of row tuples of complex,
and at the device's ten basis modes plain loops beat an array library's
per-call overhead.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .errors import ContractViolationError

H = "H"
V = "V"

# amplitudes at or below this magnitude are dropped after a transform
PRUNE_TOL = 1e-14

# tolerance for "the input state must be normalized" preconditions
NORM_TOL = 1e-9


class BasisMode(NamedTuple):
    """One polarization channel of one spatial mode."""

    spatial: str
    pol: str


class ModeBasis:
    """Fixed ordered set of basis modes for a circuit.

    The order is (spatial_0, H), (spatial_0, V), (spatial_1, H), ... and every
    occupation configuration is a tuple of photon counts in exactly this order.
    index, from BasisMode to position, is the one lookup of that order.
    """

    def __init__(self, spatial_labels: Iterable[str]):
        labels = tuple(str(s) for s in spatial_labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate spatial labels: {labels}")
        self.spatial = labels
        self.modes = tuple(BasisMode(s, p) for s in labels for p in (H, V))
        self.index = {m: i for i, m in enumerate(self.modes)}
        self.size = len(self.modes)

    def mode_index(self, mode) -> int:
        m = BasisMode(*mode)
        if m not in self.index:
            raise ValueError(f"unknown mode {m} for basis {self.spatial}")
        return self.index[m]

    def spatial_indices(self, spatial: str) -> tuple[int, int]:
        """Indices of the (H, V) pair of one spatial mode."""
        try:
            return (self.index[BasisMode(spatial, H)],
                    self.index[BasisMode(spatial, V)])
        except KeyError:
            raise ValueError(f"unknown spatial mode {spatial!r} for basis "
                             f"{self.spatial}") from None

    def __eq__(self, other):
        return isinstance(other, ModeBasis) and self.modes == other.modes

    # defined beside __eq__, which would otherwise make the class unhashable
    def __hash__(self):
        return hash(self.modes)


class PhotonicState:
    """Sparse complex-amplitude state over a ModeBasis.

    ``amps`` maps occupation tuples (length basis.size) to amplitudes. The
    object is treated as immutable; operations return new states.
    """

    def __init__(self, basis: ModeBasis, amps: Mapping[tuple, complex]):
        self.basis = basis
        size = basis.size
        clean = {}
        for cfg, amp in amps.items():
            cfg = tuple(map(int, cfg))
            if len(cfg) != size:
                raise ValueError(f"config length {len(cfg)} != basis size {size}")
            if min(cfg, default=0) < 0:
                raise ValueError(f"negative occupation in {cfg}")
            a = complex(amp)
            if a != 0:
                clean[cfg] = clean.get(cfg, 0j) + a
        self.amps = clean

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))


def _unit_qubit(alpha, beta) -> tuple[complex, complex]:
    """The amplitude pair (alpha, beta) divided by hypot(|alpha|, |beta|).

    Non-finite amplitudes and the zero vector are a ValueError. Finite
    amplitudes whose norm leaves the double range are first divided by 4,
    which is exact there and brings the norm below 2^1024.
    """
    alpha, beta = complex(alpha), complex(beta)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"qubit amplitudes must be finite, got "
                         f"({alpha}, {beta})")
    try:
        n = math.hypot(abs(alpha), abs(beta))
    except OverflowError:           # abs() of a complex past the range
        n = math.inf
    if n == math.inf:
        alpha, beta = alpha / 4.0, beta / 4.0
        n = math.hypot(abs(alpha), abs(beta))
    if n == 0:
        raise ValueError("qubit amplitudes are both zero")
    return alpha / n, beta / n


def make_qubit(basis: ModeBasis, alpha, beta, spatial: str) -> PhotonicState:
    """Single-photon polarization qubit alpha|H> + beta|V> in one spatial mode.

    The amplitude pair is normalized by _unit_qubit, which rejects
    non-finite amplitudes and the zero vector.
    """
    hi, vi = basis.spatial_indices(spatial)
    base = [0] * basis.size
    amps = {}
    for idx, amp in zip((hi, vi), _unit_qubit(alpha, beta)):
        if amp != 0:
            cfg = list(base)
            cfg[idx] = 1
            amps[tuple(cfg)] = amp
    return PhotonicState(basis, amps)


def make_bell_phi_plus(basis: ModeBasis, spatial_1: str, spatial_2: str) -> PhotonicState:
    """Polarization Bell pair (|HH> + |VV>)/sqrt(2) across two spatial modes."""
    h1, v1 = basis.spatial_indices(spatial_1)
    h2, v2 = basis.spatial_indices(spatial_2)
    r = 1 / math.sqrt(2)
    amps = {}
    for a, b in ((h1, h2), (v1, v2)):
        cfg = [0] * basis.size
        cfg[a] += 1
        cfg[b] += 1
        amps[tuple(cfg)] = r
    return PhotonicState(basis, amps)


def product(s1: PhotonicState, s2: PhotonicState) -> PhotonicState:
    """Product of two states as creation-operator polynomials.

    For states occupying disjoint modes this is the ordinary tensor product.
    Overlapping occupations pick up the bosonic sqrt-binomial factors, so e.g.
    |1> * |1> on one mode gives sqrt(2)|2>.
    """
    if s1.basis != s2.basis:
        raise ValueError("states live on different bases")
    out = {}
    for c1, a1 in s1.amps.items():
        for c2, a2 in s2.amps.items():
            cfg = tuple(x + y for x, y in zip(c1, c2))
            w = 1.0
            for x, y in zip(c1, c2):
                if x and y:
                    w *= math.comb(x + y, x)
            amp = a1 * a2 * math.sqrt(w)
            out[cfg] = out.get(cfg, 0j) + amp
    return PhotonicState(s1.basis, out)


Matrix = tuple[tuple[complex, ...], ...]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _adjoint(m: Matrix) -> Matrix:
    return tuple(tuple(u.conjugate() for u in col) for col in zip(*m))


class LinearModeTransform(namedtuple("LinearModeTransform",
                                     ("basis", "matrix"))):
    """Unitary rewriting of creation operators over a ModeBasis.

    Column j of ``matrix`` is the image of input basis mode j: the operator
    for mode j maps to sum_i matrix[i][j] * (operator for mode i). Any square
    nested sequence (an ndarray too) is accepted and stored as a tuple of row
    tuples of complex. Validated unitary to 1e-12 at construction.
    """

    __slots__ = ()

    def __new__(cls, basis: ModeBasis, matrix):
        size = basis.size
        try:
            m = tuple(tuple(map(complex, row)) for row in matrix)
        except TypeError as exc:
            raise ValueError(f"matrix must be a square nested sequence of "
                             f"numbers: {exc}") from None
        if len(m) != size or any(len(row) != size for row in m):
            raise ValueError(f"matrix row lengths {[len(row) for row in m]} "
                             f"are not {size} rows of {size}")
        dev = max((abs(u - (1.0 if i == j else 0.0))
                   for i, row in enumerate(_matmul(m, _adjoint(m)))
                   for j, u in enumerate(row)), default=0.0)
        if dev > 1e-12:
            raise ContractViolationError(f"transform is not unitary (deviation {dev:.3e})")
        return super().__new__(cls, basis, m)

    def _replace(self, **changes) -> "LinearModeTransform":
        """A copy with some fields changed, checked as a new transform is."""
        return LinearModeTransform(**{**self._asdict(), **changes})

    def then(self, later: "LinearModeTransform") -> "LinearModeTransform":
        """Composite transform: self first, then ``later``."""
        if self.basis != later.basis:
            raise ValueError("transforms live on different bases")
        return LinearModeTransform(self.basis, _matmul(later.matrix, self.matrix))


def pbs_hv(basis: ModeBasis, in_pair: tuple[str, str],
           out_pair: tuple[str, str]) -> LinearModeTransform:
    """Polarizing beam splitter between two spatial mode pairs.

    Convention: H transmits (first input goes to first output), V reflects
    (first input goes to second output) with zero reflection phase. The four
    spatial labels must be distinct; the reverse direction is completed as the
    inverse permutation so the transform stays unitary on the full basis.
    Polarization is never mixed.
    """
    i1, i2 = in_pair
    o1, o2 = out_pair
    if len({i1, i2, o1, o2}) != 4:
        raise ValueError("PBS needs four distinct spatial labels")
    (i1h, i1v), (i2h, i2v), (o1h, o1v), (o2h, o2v) = (
        basis.spatial_indices(s) for s in (i1, i2, o1, o2))
    mapping = {i1h: o1h, i1v: o2v, i2h: o2h, i2v: o1v}
    for src, dst in list(mapping.items()):
        mapping.setdefault(dst, src)
    m = [[0j] * basis.size for _ in range(basis.size)]
    for src in range(basis.size):
        m[mapping.get(src, src)][src] = 1 + 0j
    return LinearModeTransform(basis, m)


def basis_rotate_fs(basis: ModeBasis, spatial: str) -> LinearModeTransform:
    """Rotate one spatial mode's readout into the diagonal F/S basis.

    F = (H + V)/sqrt(2) and S = (H - V)/sqrt(2). After the rotation the mode's
    H slot counts F photons and its V slot counts S photons. The rotation is
    its own inverse.
    """
    hi, vi = basis.spatial_indices(spatial)
    m = [[1 + 0j if i == j else 0j for j in range(basis.size)]
         for i in range(basis.size)]
    r = 1 / math.sqrt(2)
    m[hi][hi] = r
    m[hi][vi] = r
    m[vi][hi] = r
    m[vi][vi] = -r
    return LinearModeTransform(basis, m)


def apply_transform(state: PhotonicState, t: LinearModeTransform) -> PhotonicState:
    """Apply a linear mode transform by exact creation-operator expansion."""
    if state.basis != t.basis:
        raise ValueError("state and transform live on different bases")
    size = state.basis.size
    # nonzero entries per column; exact zeros are skipped so permutations and
    # block rotations expand without float dust
    cols = [[(i, u) for i, u in enumerate(col) if u != 0]
            for col in zip(*t.matrix)]
    out: dict[tuple, complex] = {}
    for cfg, amp in state.amps.items():
        denom = math.prod(math.factorial(n) for n in cfg)
        # poly: monomial occupation tuple -> coefficient
        poly = {(0,) * size: amp / math.sqrt(denom)}
        for j, n in enumerate(cfg):
            for _ in range(n):
                nxt: dict[tuple, complex] = {}
                for mono, coef in poly.items():
                    for i, u in cols[j]:
                        key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                        nxt[key] = nxt.get(key, 0j) + coef * u
                poly = nxt
        for mono, coef in poly.items():
            w = coef * math.sqrt(math.prod(math.factorial(n) for n in mono))
            out[mono] = out.get(mono, 0j) + w
    return PhotonicState(state.basis, {c: a for c, a in out.items()
                                       if abs(a) > PRUNE_TOL})


def enumerate_outcomes(state: PhotonicState, measured_modes: Iterable,
                       ) -> list[tuple[dict, float, PhotonicState]]:
    """All detection patterns on the measured modes with nonzero probability.

    Returns (pattern, probability, conditional) triples sorted by the count
    tuple, so the order is deterministic. A pattern is a {BasisMode: count}
    dict over every measured mode, in basis order; the conditional has the
    measured modes emptied. Probabilities sum to 1. One pass over the terms
    groups them by pattern, accumulating in term order, so each triple
    equals, bit for bit, the one-pattern projection measure_pattern of
    tests/oracles.py. The input must be normalized.
    """
    if not abs(state.norm() - 1.0) <= NORM_TOL:     # NaN fails too
        raise ContractViolationError(
            f"state norm {state.norm():.12f} is not 1 within {NORM_TOL}")
    basis = state.basis
    modes = sorted((BasisMode(*m) for m in measured_modes),
                   key=lambda m: basis.mode_index(m))
    idxs = [basis.mode_index(m) for m in modes]
    if len(set(idxs)) != len(idxs):
        raise ValueError("duplicate measured modes")
    measured = set(idxs)
    # count tuple -> (probability, reduced configuration -> amplitude)
    groups: dict[tuple, tuple[float, dict]] = {}
    for cfg, amp in state.amps.items():
        key = tuple(cfg[i] for i in idxs)
        prob, kept = groups.get(key, (0.0, {}))
        reduced = tuple(0 if i in measured else n for i, n in enumerate(cfg))
        kept[reduced] = kept.get(reduced, 0j) + amp
        groups[key] = (prob + abs(amp) ** 2, kept)
    out = []
    for key in sorted(groups):
        prob, kept = groups[key]
        if prob > 0.0:
            r = math.sqrt(prob)
            out.append((dict(zip(modes, key)), prob,
                        PhotonicState(basis, {c: a / r
                                              for c, a in kept.items()})))
    return out
