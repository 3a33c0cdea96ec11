"""Exact slot-by-slot propagation through a relay chain.

A clock slot is tracked as a probability vector over four exclusive events:
the slot still carries the original signal photon, it carries a randomly
polarized spurious photon, it is empty but every relay so far has gated it,
or some relay has already vetoed it. All orders of dark-count events are kept,
so these probabilities are exact for the model, not first-order expansions.
One kernel propagates a single chain on floats, or a whole grid of
attenuation lengths at once on arrays, with the same result per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytics import (ChainConfig, check_p_dark, check_relay,
                        optimal_positions)

_SUM_TOL = 1e-12
_LO, _HI = -_SUM_TOL, 1.0 + _SUM_TOL
_EVENTS = ("p_sig", "p_rnd", "p_empty", "p_nogate")


def _checked(sig, rnd, empty, nogate) -> list:
    """The four event probabilities after ChannelEventState's invariants.

    Each value must lie in [0, 1] up to the sum tolerance; a value in
    [-tol, 0) from float cancellation is clamped to 0; the clamped values
    must sum to 1 within the tolerance. Works on floats and on equal-length
    1-D arrays (checked as a whole); raises ValueError on a violation.
    """
    state = [sig, rnd, empty, nogate]
    for k, v in enumerate(state):
        if isinstance(v, np.ndarray):
            bad = (v < _LO) | (v > _HI)
            if bad.any():
                raise ValueError(f"{_EVENTS[k]} = {v[bad][0]} outside [0, 1]")
            state[k] = np.where(v < 0.0, 0.0, v)
        elif v < 0.0 or v > _HI:
            if v < _LO or v > _HI:
                raise ValueError(f"{_EVENTS[k]} = {v} outside [0, 1]")
            state[k] = 0.0
    total = state[0] + state[1] + state[2] + state[3]
    off = abs(total - 1.0) > _SUM_TOL
    if isinstance(off, np.ndarray):
        if off.any():
            raise ValueError(f"event probabilities sum to "
                             f"{float(total[off][0])!r}, not 1")
    elif off:
        raise ValueError(f"event probabilities sum to {total!r}, not 1")
    return state


@dataclass(frozen=True)
class ChannelEventState:
    """Distribution of one clock slot over the four channel events.

    p_sig: original photon still present and so far always gated through.
    p_rnd: a spurious (randomly polarized) photon occupies the slot.
    p_empty: no photon, but no relay has vetoed the slot yet.
    p_nogate: some relay failed to gate; the slot is discarded downstream.
    """

    p_sig: float
    p_rnd: float
    p_empty: float
    p_nogate: float

    def __post_init__(self):
        values = _checked(self.p_sig, self.p_rnd, self.p_empty, self.p_nogate)
        for name, v in zip(_EVENTS, values):
            object.__setattr__(self, name, v)

    @property
    def p_alive(self) -> float:
        """Probability the slot has not been vetoed yet."""
        return self.p_sig + self.p_rnd + self.p_empty


def initial_state() -> ChannelEventState:
    """Slot state at the transmitter: signal photon present with certainty."""
    return ChannelEventState(1.0, 0.0, 0.0, 0.0)


def propagate_segment(state: ChannelEventState,
                      alpha_x_segment: float) -> ChannelEventState:
    """Fiber segment of dimensionless length alpha*dx: survival t = e^(-a dx).

    Lost photons leave the slot empty but still gated; classical gate signals
    do not attenuate. Zero length is the identity, and consecutive segments
    compose additively in alpha*dx.
    """
    if alpha_x_segment < 0:
        raise ValueError(f"segment alpha*dx must be >= 0, "
                         f"got {alpha_x_segment}")
    t = math.exp(-alpha_x_segment)
    lost = (1.0 - t) * (state.p_sig + state.p_rnd)
    return ChannelEventState(t * state.p_sig, t * state.p_rnd,
                             state.p_empty + lost, state.p_nogate)


def apply_relay(state: ChannelEventState,
                config: ChainConfig) -> ChannelEventState:
    """One relay station: gate-and-pass efficiency eta, false gates 2*p_dark.

    The relay parameters are the ChainConfig's eta and p_dark; nothing else
    of it is read. An incoming photon is gated through with probability eta.
    Independently of what the slot holds, the two detectors that fire the
    gate can dark count, producing a false gate with probability 2*p_dark
    per live slot; a false gate launches a randomly polarized photon. Slots
    gated neither way are vetoed and stay vetoed. The map is exactly
    stochastic.
    """
    eta, p_dark = float(config.eta), float(config.p_dark)
    check_relay(eta, p_dark)
    pd2 = 2.0 * p_dark
    sig = eta * state.p_sig
    rnd = eta * state.p_rnd + pd2 * state.p_alive
    nogate = (state.p_nogate
              + (1.0 - eta - pd2) * (state.p_sig + state.p_rnd)
              + (1.0 - pd2) * state.p_empty)
    return ChannelEventState(sig, rnd, 0.0, nogate)


@dataclass(frozen=True)
class ReceiverReport:
    """Detection probabilities per transmitted slot, conditioned on nothing.

    p_s and p_n are per-slot probabilities of a signal detection and of a
    noise detection (spurious photon or receiver dark count in a gated slot).
    snr is their ratio; q_b = p_n / (2 (p_n + p_s)) since random polarization
    errs half the time. A fully vetoed chain yields nan for snr and q_b.
    Fields are floats, or 1-D arrays over the grid from run_chain_grid.
    """

    p_s: float
    p_n: float
    snr: float
    q_b: float


def _snr_qb(p_s: float, p_n: float) -> tuple[float, float]:
    """(snr, q_b) from signal and noise detection probabilities.

    snr = p_s / p_n, inf when only the signal can click, nan when nothing
    can; q_b = p_n / (2 (p_n + p_s)), nan when nothing can click.
    """
    if p_n > 0.0:
        snr = p_s / p_n
    elif p_s > 0.0:
        snr = math.inf
    else:
        snr = math.nan
    denom = p_n + p_s
    q_b = 0.5 * p_n / denom if denom > 0.0 else math.nan
    return snr, q_b


# the same rule element by element over arrays (object results)
_snr_qb_elementwise = np.frompyfunc(_snr_qb, 2, 2)


def _detect(sig, rnd, empty, p_dark: float) -> ReceiverReport:
    """Receiver statistics of a slot state given as floats or arrays."""
    p_n = rnd + 2.0 * p_dark * (sig + rnd + empty)
    if isinstance(p_n, np.ndarray):
        # a subnormal p_n overflows p_s/p_n to inf, silently as on floats
        with np.errstate(over="ignore"):
            snr, q_b = (v.astype(float)
                        for v in _snr_qb_elementwise(sig, p_n))
    else:
        snr, q_b = _snr_qb(sig, p_n)
    return ReceiverReport(sig, p_n, snr, q_b)


def receiver_detect(state: ChannelEventState, p_dark: float) -> ReceiverReport:
    """Terminal detection on a slot state, with receiver dark rate p_dark."""
    check_p_dark(p_dark)
    return _detect(state.p_sig, state.p_rnd, state.p_empty, p_dark)


def _propagate(ts, eta: float, p_dark: float):
    """Slot state after fiber segments of transmissions ts, relays between.

    The operations and their order are those of propagate_segment and
    apply_relay, and every step keeps ChannelEventState's invariants, so a
    float run equals the step-by-step composition bit for bit. ts holds
    floats, or equal-length 1-D arrays that run one chain per element.
    Returns (p_sig, p_rnd, p_empty, p_nogate).
    """
    eta, p_dark = float(eta), float(p_dark)
    check_relay(eta, p_dark)
    pd2 = 2.0 * p_dark
    gate_fail, false_gate_miss = 1.0 - eta - pd2, 1.0 - pd2
    sig, rnd, empty, nogate = 1.0, 0.0, 0.0, 0.0
    for i, t in enumerate(ts):
        lost = (1.0 - t) * (sig + rnd)
        sig, rnd, empty, nogate = _checked(t * sig, t * rnd, empty + lost,
                                           nogate)
        if i < len(ts) - 1:
            sig, rnd, empty, nogate = _checked(
                eta * sig, eta * rnd + pd2 * (sig + rnd + empty), 0.0,
                nogate + gate_fail * (sig + rnd) + false_gate_miss * empty)
    return sig, rnd, empty, nogate


def _segment_lengths(config: ChainConfig,
                     positions_km: Optional[Sequence[float]]) -> list[float]:
    if positions_km is None:
        positions_km = (config.positions_km if config.positions_km is not None
                        else optimal_positions(config))
    positions_km = tuple(float(p) for p in positions_km)
    if len(positions_km) != config.n_relays:
        raise ValueError(f"{len(positions_km)} positions for "
                         f"{config.n_relays} relays")
    pts = (0.0,) + positions_km + (config.distance_km,)
    lengths = []
    for a, b in zip(pts, pts[1:]):
        seg = b - a
        if seg < -1e-12:
            raise ValueError(f"positions must be non-decreasing within "
                             f"[0, {config.distance_km}], got {positions_km}")
        lengths.append(max(seg, 0.0))
    return lengths


def _transmissions(config: ChainConfig,
                   positions_km: Optional[Sequence[float]]) -> list[float]:
    return [math.exp(-(config.atten_per_km * seg))
            for seg in _segment_lengths(config, positions_km)]


def propagate_chain(config: ChainConfig,
                    positions_km: Optional[Sequence[float]] = None
                    ) -> ChannelEventState:
    """Exact slot state at the receiver input for the configured chain.

    Positions come from the explicit argument, else the config, else the
    analytic optimum. Segments alternate with relays; the receiver detector
    itself is not applied here.
    """
    return ChannelEventState(*_propagate(_transmissions(config, positions_km),
                                         config.eta, config.p_dark))


def run_chain(config: ChainConfig,
              positions_km: Optional[Sequence[float]] = None) -> ReceiverReport:
    """Exact receiver statistics for the configured chain."""
    sig, rnd, empty, _ = _propagate(_transmissions(config, positions_km),
                                    config.eta, config.p_dark)
    return _detect(sig, rnd, empty, config.p_dark)


def run_chain_grid(config: ChainConfig,
                   alpha_x_values: Sequence[float]) -> ReceiverReport:
    """Exact receiver statistics at every attenuation length of a grid.

    Each point rescales the configured chain to distance alpha_x/alpha with
    the relays at optimal_positions, as config.at_alpha_x does; the
    configured distance is ignored and explicit positions are rejected. The
    whole grid runs through the chain at once, and element i equals
    run_chain(config.at_alpha_x(alpha_x_values[i])) bit for bit. Returns a
    ReceiverReport of 1-D arrays.
    """
    if config.positions_km is not None:
        raise ValueError("a chain rescaled to alpha_x places its relays "
                         "itself; the config must not carry positions_km")
    ax = np.array(alpha_x_values, dtype=float)
    if ax.ndim != 1:
        raise ValueError(f"alpha_x values must be 1-D, got shape {ax.shape}")
    if not np.isfinite(ax).all() or (ax < 0).any():
        bad = ax[~(np.isfinite(ax) & (ax >= 0))][0]
        raise ValueError(f"alpha_x must be finite and >= 0, got {bad}")
    atten, n = config.atten_per_km, config.n_relays
    x = ax / atten
    # optimal_positions and _segment_lengths, elementwise
    pts = [0.0]
    if n:
        delta = -math.log(config.eta) / atten
        d = (x - delta) / (n + 1)
        clamped = x <= delta
        pts += [np.where(clamped, 0.0, i * d) for i in range(1, n + 1)]
    pts.append(x)
    # libm exp per element: np.exp can differ from it by an ulp
    ts = [np.array([math.exp(-v)
                    for v in (atten * np.maximum(b - a, 0.0)).tolist()])
          for a, b in zip(pts, pts[1:])]
    sig, rnd, empty, _ = _propagate(ts, config.eta, config.p_dark)
    return _detect(sig, rnd, empty, config.p_dark)


def chain_noise(config: ChainConfig, positions_km: Sequence[float]) -> float:
    """Receiver noise probability as a function of relay positions.

    The objective minimized by relay placement; signal probability does not
    depend on the positions, so minimizing noise maximizes SNR.
    """
    return run_chain(config, positions_km).p_n


# int8 slot states for the vectorized sampler
_SIG, _RND, _EMPTY, _NOGATE = 0, 1, 2, 3


@dataclass(frozen=True)
class SampledReport:
    """Monte Carlo estimate of the receiver statistics.

    Counts are over n_trials transmitted slots. noise_events counts receiver
    noise detections; a slot can contribute two (spurious photon plus a dark
    count), which the standard errors account for. state_counts histograms
    the slot state just before the receiver.
    """

    p_s: float
    p_n: float
    snr: float
    q_b: float
    n_trials: int
    seed: int
    signal_count: int
    noise_events: int
    stderr_p_s: float
    stderr_p_n: float
    state_counts: dict = field(default_factory=dict)


def sample_chain(config: ChainConfig, n_trials: int, seed: int,
                 positions_km: Optional[Sequence[float]] = None,
                 chunk_size: int = 1_000_000) -> SampledReport:
    """Simulate n_trials slots through the chain and tally detections.

    Slots are processed in fixed-size chunks, each driven by its own child
    of SeedSequence(seed), so results depend only on (config, n_trials, seed,
    chunk_size) and not on execution order. The per-slot kernel matches
    propagate_segment/apply_relay/receiver_detect event for event, so the
    estimates are unbiased for the exact run_chain values.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    trans = _transmissions(config, positions_km)
    eta, pd2 = config.eta, 2.0 * config.p_dark

    n_chunks = (n_trials + chunk_size - 1) // chunk_size
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    signal_count = 0
    noise_c1 = 0    # slots with exactly one noise detection
    noise_c2 = 0    # slots with two (spurious photon and a dark count)
    state_hist = np.zeros(4, dtype=np.int64)

    for ci in range(n_chunks):
        m = min(chunk_size, n_trials - ci * chunk_size)
        rng = np.random.default_rng(children[ci])
        states = np.zeros(m, dtype=np.int8)
        for i, t in enumerate(trans):
            if t < 1.0:
                u = rng.random(m)
                photon = states <= _RND
                states[photon & (u >= t)] = _EMPTY
            if i < config.n_relays:
                u = rng.random(m)
                out = np.full(m, _NOGATE, dtype=np.int8)
                sig = states == _SIG
                rnd = states == _RND
                emp = states == _EMPTY
                out[sig & (u < eta)] = _SIG
                out[sig & (u >= eta) & (u < eta + pd2)] = _RND
                out[rnd & (u < eta + pd2)] = _RND
                out[emp & (u < pd2)] = _RND
                states = out
        state_hist += np.bincount(states, minlength=4)
        u = rng.random(m)
        dark = (states != _NOGATE) & (u < pd2)
        noise = (states == _RND).astype(np.int64) + dark
        signal_count += int((states == _SIG).sum())
        noise_c1 += int((noise == 1).sum())
        noise_c2 += int((noise == 2).sum())

    n = n_trials
    p_s = signal_count / n
    noise_events = noise_c1 + 2 * noise_c2
    p_n = noise_events / n
    # sample variance of the per-slot noise count (values 0, 1, 2)
    second_moment = (noise_c1 + 4 * noise_c2) / n
    var_n = max(second_moment - p_n * p_n, 0.0)
    stderr_p_s = math.sqrt(p_s * (1.0 - p_s) / n)
    stderr_p_n = math.sqrt(var_n / n)
    snr, q_b = _snr_qb(p_s, p_n)
    names = ("signal", "random", "empty", "no_gate")
    return SampledReport(
        p_s=p_s, p_n=p_n, snr=snr, q_b=q_b, n_trials=n, seed=seed,
        signal_count=signal_count, noise_events=noise_events,
        stderr_p_s=stderr_p_s, stderr_p_n=stderr_p_n,
        state_counts={k: int(v) for k, v in zip(names, state_hist)})
