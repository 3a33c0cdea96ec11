"""Exact receiver statistics of a relay chain, and a seeded sampler of it.

A clock slot is in one of four exclusive events: it still carries the
original signal photon, it carries a randomly polarized spurious photon, it
is empty but every relay so far has gated it, or some relay has already
vetoed it. A fiber segment of transmission t = e^(-alpha dx) keeps each
photon with probability t and empties the slot otherwise. A relay gates a
photon through with probability eta, and the two detectors that fire its
gate dark count on every live slot, a false gate with probability 2 p_dark
that launches a spurious photon; a slot gated neither way is vetoed and
stays vetoed. On the live masses (sig, rnd, emp) one relay is

    (sig, rnd, emp) -> (eta sig, eta rnd + 2 p_dark (sig + rnd + emp), 0).

The receiver counts the signal photon, a spurious photon, and a dark count
(2 p_dark) in every live slot. run_chain evaluates this chain through its
closed form in analytics, keeping all orders of dark-count events, so its
probabilities are exact for the model, not first-order expansions.
sample_chain is the seeded Monte Carlo check: it draws how many of n slots
land in each event, step by step, from the same rules, in O(N) draws
whatever n is.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .analytics import (_EXP_MAX, ChainConfig, _log_expm1, _receiver_counts,
                        _snr_from_k, _softplus, optimal_positions,
                        qber_from_snr)

_MAX_TRIALS = 2**63 - 1     # the --trials range; _binomial is tested up to it


def _snr_qb(p_s: float, p_n: float) -> tuple[float, float]:
    """(snr, q_b) = (p_s/p_n, p_n/(2 (p_n + p_s))); nan, nan if both are 0."""
    if p_n + p_s == 0.0:
        return math.nan, math.nan
    return p_s / p_n if p_n > 0.0 else math.inf, 0.5 * p_n / (p_n + p_s)


@dataclass(frozen=True)
class ReceiverReport:
    """Detection statistics per transmitted slot, conditioned on nothing.

    p_s is the per-slot probability of a signal detection. p_n is the
    expected count of noise clicks per slot, not a probability: a live slot
    adds a receiver dark count (2 p_dark) to a spurious photon, so a slot
    holding both counts two. snr is their ratio; q_b = p_n / (2 (p_n + p_s))
    since random polarization errs half the time. A fully vetoed chain
    yields nan for snr and q_b.
    """

    p_s: float
    p_n: float
    snr: float
    q_b: float


def _segment_lengths(config: ChainConfig,
                     positions_km: Optional[Sequence[float]]) -> list[float]:
    """Segment lengths between the relays, which sit at the explicit
    positions (checked by ChainConfig), else the config's, else the optimum.
    """
    if positions_km is not None:
        positions_km = config.with_positions(positions_km).positions_km
    elif config.positions_km is not None:
        positions_km = config.positions_km
    else:
        positions_km = optimal_positions(config)
    pts = (0.0, *positions_km, config.distance_km)
    # ChainConfig lets positions step back by up to 1e-12 km: no segment < 0
    return [max(b - a, 0.0) for a, b in zip(pts, pts[1:])]


def _transmissions(config: ChainConfig,
                   positions_km: Optional[Sequence[float]]) -> list[float]:
    return [math.exp(-(config.atten_per_km * seg))
            for seg in _segment_lengths(config, positions_km)]


def _noise_terms(config: ChainConfig, positions_km: Optional[Sequence[float]]
                 ) -> tuple[list[float], list[float]]:
    """The segments' alpha dx_j and the terms ln(1 + c_j/t_j) of K.

    t_j = e^(-alpha dx_j) is a segment's transmission and c_j is
    2 p_dark/eta at a relay and 2 p_dark at the receiver, so that
    1 + p_n/p_s = prod_j (1 + c_j/t_j) and the noise exponent
    K = ln(1 + p_n/p_s) is the sum of the terms. Where t_j leaves exp's
    range a term is taken from ln c_j + alpha dx_j.
    """
    ys = [config.atten_per_km * seg
          for seg in _segment_lengths(config, positions_km)]
    if config.p_dark == 0.0:
        return ys, [0.0] * len(ys)
    pd2 = 2.0 * config.p_dark
    # on the subnormal grid 2 p_dark/eta keeps few digits (none at 5e-324),
    # so there c_j and t_j are both scaled by 2^64, exactly
    scale = 2.0**64 if pd2 / config.eta < sys.float_info.min else 1.0
    cs = [pd2 * scale / config.eta] * config.n_relays + [pd2 * scale]
    return ys, [math.log1p(c / (math.exp(-y) * scale)) if y < _EXP_MAX
                else _softplus(math.log(c) - math.log(scale) + y)
                for c, y in zip(cs, ys)]


def _noise_exponent(config: ChainConfig,
                    positions_km: Optional[Sequence[float]]) -> float:
    """K = ln(1 + p_n/p_s), which relay placement minimizes.

    p_s does not depend on the positions, so K rises with the noise; it
    neither underflows nor overflows where p_s and p_n do.
    """
    return sum(_noise_terms(config, positions_km)[1])


def run_chain(config: ChainConfig,
              positions_km: Optional[Sequence[float]] = None) -> ReceiverReport:
    """Exact receiver statistics for the configured chain, in closed form.

    The relays sit at the explicit positions, else the config's, else the
    analytic optimum. Each relay maps the live masses (sig, rnd, emp) to
    (eta sig, eta rnd + 2 p_dark (sig + rnd + emp), 0), each segment keeps
    a photon with its transmission t_j, and the receiver adds 2 p_dark per
    live slot; _receiver_counts evaluates their composition. snr and
    q_b are taken from the noise exponent K, as snr_exact takes them, so
    they stay finite where p_s and p_n underflow together on long chains,
    and inf and 0 without dark counts.
    """
    ys, terms = _noise_terms(config, positions_km)
    *relay_ts, t_last = [math.exp(-y) for y in ys]
    eta, pd2 = config.eta, 2.0 * config.p_dark
    big_l = sum(terms[:-1])
    p_s, p_n = _receiver_counts(math.prod(eta * t for t in relay_ts),
                                math.prod(eta * t + pd2 for t in relay_ts),
                                big_l, t_last, config.p_dark)
    snr = _snr_from_k(big_l + terms[-1])
    return ReceiverReport(p_s, p_n, snr, qber_from_snr(snr))


def chain_noise(config: ChainConfig, positions_km: Sequence[float]) -> float:
    """Receiver noise probability as a function of relay positions.

    Signal probability does not depend on the positions, so less noise is
    a higher SNR. It underflows to 0 on long chains; log_chain_noise and
    the exponent that search_positions minimizes do not.
    """
    return run_chain(config, positions_km).p_n


def log_chain_noise(config: ChainConfig,
                    positions_km: Sequence[float]) -> float:
    """ln p_n at the given positions, finite wherever p_dark > 0.

    ln p_n = ln p_s + ln expm1(K) with ln p_s = N ln eta - alpha x taken
    segment by segment; -inf without dark counts.
    """
    ys, terms = _noise_terms(config, positions_km)
    return (config.n_relays * math.log(config.eta) - sum(ys)
            + _log_expm1(sum(terms)))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# relative drop of the noise exponent per segment that search_positions
# needs before it replaces the closed-form placement
SEARCH_MARGIN = 16 * sys.float_info.epsilon


def search_positions(config: ChainConfig) -> tuple[float, ...]:
    """Relay positions from a numeric search, a check on the closed form.

    Golden-section search for the lowest noise exponent K (see run_chain)
    over the common length d in [0, x/N] of the first N segments (relay i
    at i*d), down to a bracket of 1e-12 x. K rises with the noise and stays
    a double where p_n underflows, so long chains are compared too. Replaces
    optimal_positions only if its K is lower by more than SEARCH_MARGIN
    (N+1) relative, 16 (N+1) machine epsilons: about twelve times the
    largest dip that rounding alone gave over 1,200 random chains (N <= 64,
    x <= 3000 km), so a rounding dip never displaces the exact optimum.
    """
    best = optimal_positions(config)
    n, x = config.n_relays, config.distance_km
    if n == 0:
        return best

    def place(d):
        return tuple(min(i * d, x) for i in range(1, n + 1))

    def f(d):
        return _noise_exponent(config, place(d))

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
    floor = _noise_exponent(config, best) * (1.0 - SEARCH_MARGIN * (n + 1))
    return found if min(fa, fb) < floor else best


# ln k! - [(k + 1/2) ln(k + 1) - (k + 1) + ln(2 pi)/2], tabulated below 10
_STIRLING_TABLE = tuple(math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1)
                        + (k + 1) - 0.5 * math.log(2.0 * math.pi)
                        for k in range(10))


def _stirling_tail(k: int) -> float:
    """The remainder of Stirling's series for ln k!, within 1e-13 past 9."""
    if k < 10:
        return _STIRLING_TABLE[k]
    r = 1.0 / (k + 1)
    r2 = r * r
    return (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 / 1680))) * r


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Bin(n, p) draw for an int n >= 0 and p in [0, 1].

    p > 1/2 is drawn as n - Bin(n, 1 - p), which is exact in floats. Below
    a mean of 10, Devroye's geometric gaps count the successes one by one;
    above it, Hormann's BTRS transformed rejection takes about 1.2 tries.
    Its acceptance test writes ln f(k)/f(m), f the pmf and m its mode, as
    Stirling differences whose log1p and log arguments are ratios of exact
    integers, so it keeps an absolute error near 1e-16 (k - m) at any n up
    to 2**63 - 1, where differences of lgamma would lose 65,536 to rounding.
    The centre n p + 1/2 of the hat is split into an exact integer part and
    a fraction for the same reason.
    """
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n == 0 or p == 0.0:
        return 0
    if n * p < 10.0:
        c, x, y = math.log1p(-p), 0, 0
        while True:     # x successes in the first y trials; the gap to
            u = rng.random()    # the next is floor(g) + 1, inf at u = 0
            g = math.log(u) / c if u else math.inf
            if g >= n - y:
                return x
            y += math.floor(g) + 1
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    vr = 0.92 - 4.2 / b
    num, den = p.as_integer_ratio()
    centre, rem = divmod(n * num, den)      # n p = centre + rem/den exactly
    shift = rem / den + 0.5
    m = (n + 1) * num // den                # the mode, floor((n + 1) p)
    log_odds = math.log(p) - math.log1p(-p)
    h = _stirling_tail(m) + _stirling_tail(n - m)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:   # random() gave 0.0: the hat has no mass there
            continue
        k = centre + math.floor((2.0 * a / us + b) * u + shift)
        if not 0 <= k <= n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:      # the squeeze
            return k
        v *= alpha / (a / (us * us) + b)
        if v == 0.0 or math.log(v) <= (
                h - _stirling_tail(k) - _stirling_tail(n - k)
                + (m + 0.5) * math.log1p((m - k) / (k + 1))
                + (n - m + 0.5) * math.log1p((k - m) / (n - k + 1))
                + (m - k) * (math.log((k + 1) / (n - k + 1)) - log_odds)):
            return k


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
                 positions_km: Optional[Sequence[float]] = None
                 ) -> SampledReport:
    """Simulate n_trials slots through the chain and tally detections.

    Slots are independent, so the counts (sig, rnd, emp, nog) of slots in
    each event are drawn step by step, multinomially given the counts before:
    a segment of transmission t keeps Bin(sig, t) signal and Bin(rnd, t)
    spurious photons and empties the rest; a relay splits sig over gated
    (eta), false-gated into rnd (2 p_dark) and vetoed, keeps Bin(rnd, eta +
    2 p_dark) spurious photons, turns Bin(emp, 2 p_dark) empty slots into rnd
    and vetoes everything else. At the receiver Bin(rnd, 2 p_dark) slots add
    a dark count to their spurious photon and Bin(sig + emp, 2 p_dark) have
    a single one. Written from these event rules rather than the closed
    form, the draw is an independent check on run_chain; results depend
    only on (config, n_trials, seed, positions). The draws come from
    random.Random(seed), and a seed must be a non-negative int, since
    Random(-1) repeats the stream of Random(1).
    """
    if (isinstance(n_trials, bool) or not isinstance(n_trials, int)
            or not 1 <= n_trials <= _MAX_TRIALS):
        raise ValueError(f"n_trials must be an integer in [1, 2**63 - 1], "
                         f"got {n_trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = random.Random(seed)
    eta, pd2 = config.eta, 2.0 * config.p_dark
    # a relay splits sig three ways: gated, then false-gated among the rest
    # with probability 2 p_dark/(1 - eta), which rounds past 1 where
    # eta + 2 p_dark = 1, and vetoed
    p_false = min(pd2 / (1.0 - eta), 1.0) if eta < 1.0 else 0.0

    def draw(n, p):
        return _binomial(rng, n, p)

    sig, rnd, emp, nog = n_trials, 0, 0, 0
    for i, t in enumerate(_transmissions(config, positions_km)):
        kept_sig, kept_rnd = draw(sig, t), draw(rnd, t)
        emp += sig - kept_sig + rnd - kept_rnd
        sig, rnd = kept_sig, kept_rnd
        if i < config.n_relays:
            gated = draw(sig, eta)
            false_gated = draw(sig - gated, p_false)
            kept_rnd, opened = draw(rnd, eta + pd2), draw(emp, pd2)
            nog += (sig - gated - false_gated + rnd - kept_rnd
                    + emp - opened)
            sig, rnd, emp = gated, false_gated + kept_rnd + opened, 0
    two_noise = draw(rnd, pd2)     # a spurious photon and a dark count
    one_noise = rnd - two_noise + draw(sig + emp, pd2)

    n = n_trials
    p_s = sig / n
    noise_events = one_noise + 2 * two_noise
    p_n = noise_events / n
    # sample variance of the per-slot noise count (values 0, 1, 2)
    second_moment = (one_noise + 4 * two_noise) / n
    var_n = max(second_moment - p_n * p_n, 0.0)
    stderr_p_s = math.sqrt(p_s * (1.0 - p_s) / n)
    stderr_p_n = math.sqrt(var_n / n)
    snr, q_b = _snr_qb(p_s, p_n)
    return SampledReport(
        p_s=p_s, p_n=p_n, snr=snr, q_b=q_b, n_trials=n, seed=seed,
        signal_count=sig, noise_events=noise_events,
        stderr_p_s=stderr_p_s, stderr_p_n=stderr_p_n,
        state_counts={"signal": sig, "random": rnd, "empty": emp,
                      "no_gate": nog})
