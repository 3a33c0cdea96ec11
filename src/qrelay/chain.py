"""Exact slot-by-slot propagation through a relay chain.

A clock slot is tracked as a probability vector over four exclusive events:
the slot still carries the original signal photon, it carries a randomly
polarized spurious photon, it is empty but every relay so far has gated it,
or some relay has already vetoed it. All orders of dark-count events are kept,
so these probabilities are exact for the model, not first-order expansions.
The step maps (propagate_segment, apply_relay, receiver_detect) compose into
propagate_chain, the reference; run_chain evaluates the same chain through
its closed form in analytics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytics import (ChainConfig, _receiver_counts, _snr_qb, check_p_dark,
                        check_relay, optimal_positions)

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ChannelEventState:
    """Distribution of one clock slot over the four channel events.

    p_sig: original photon still present and so far always gated through.
    p_rnd: a spurious (randomly polarized) photon occupies the slot.
    p_empty: no photon, but no relay has vetoed the slot yet.
    p_nogate: some relay failed to gate; the slot is discarded downstream.
    Each lies in [0, 1] and they sum to 1, within _SUM_TOL; a value in
    [-_SUM_TOL, 0) from float cancellation is clamped to 0.
    """

    p_sig: float
    p_rnd: float
    p_empty: float
    p_nogate: float

    def __post_init__(self):
        total = 0.0
        for name in ("p_sig", "p_rnd", "p_empty", "p_nogate"):
            v = getattr(self, name)
            if not -_SUM_TOL <= v <= 1.0 + _SUM_TOL:
                raise ValueError(f"{name} = {v} outside [0, 1]")
            if v < 0.0:
                object.__setattr__(self, name, 0.0)
            total += getattr(self, name)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"event probabilities sum to {total!r}, not 1")

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
    """

    p_s: float
    p_n: float
    snr: float
    q_b: float


def receiver_detect(state: ChannelEventState, p_dark: float) -> ReceiverReport:
    """Terminal detection on a slot state, with receiver dark rate p_dark."""
    check_p_dark(p_dark)
    p_n = state.p_rnd + 2.0 * p_dark * state.p_alive
    return ReceiverReport(state.p_sig, p_n, *_snr_qb(state.p_sig, p_n))


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
    analytic optimum. Fiber segments alternate with relays, applied one step
    map at a time; the receiver detector itself is not applied here.
    """
    state = initial_state()
    for i, seg in enumerate(_segment_lengths(config, positions_km)):
        state = propagate_segment(state, config.atten_per_km * seg)
        if i < config.n_relays:
            state = apply_relay(state, config)
    return state


def run_chain(config: ChainConfig,
              positions_km: Optional[Sequence[float]] = None) -> ReceiverReport:
    """Exact receiver statistics for the configured chain, in closed form.

    Positions are resolved as in propagate_chain, whose step maps followed
    by receiver_detect give the same report up to rounding.
    """
    *relay_ts, t_last = _transmissions(config, positions_km)
    eta, pd2 = config.eta, 2.0 * config.p_dark
    c = pd2 / eta
    big_l = (sum(math.log1p(c / t) for t in relay_ts) if all(relay_ts)
             else math.inf)
    p_s, p_n = _receiver_counts(math.prod(eta * t for t in relay_ts),
                                math.prod(eta * t + pd2 for t in relay_ts),
                                big_l, t_last, config.p_dark)
    return ReceiverReport(p_s, p_n, *_snr_qb(p_s, p_n))


def chain_noise(config: ChainConfig, positions_km: Sequence[float]) -> float:
    """Receiver noise probability as a function of relay positions.

    The objective minimized by relay placement; signal probability does not
    depend on the positions, so minimizing noise maximizes SNR.
    """
    return run_chain(config, positions_km).p_n


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def search_positions(config: ChainConfig) -> tuple[float, ...]:
    """Relay positions from a numeric search, a check on the closed form.

    Golden-section search for the lowest chain_noise over the common length
    d in [0, x/N] of the first N segments (relay i at i*d), down to a bracket
    of 1e-12 x. Replaces optimal_positions only if strictly lower.
    """
    best = optimal_positions(config)
    n, x = config.n_relays, config.distance_km
    if n == 0:
        return best

    def place(d):
        return tuple(min(i * d, x) for i in range(1, n + 1))

    def f(d):
        return chain_noise(config, place(d))

    lo, hi = 0.0, x / n
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > max(1e-13, 1e-12 * x):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - _INV_PHI * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INV_PHI * (hi - lo)
            fb = f(b)
    found = place(a if fa <= fb else b)
    return found if min(fa, fb) < chain_noise(config, best) else best


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
