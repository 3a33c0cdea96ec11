"""Closed-form signal-to-noise and placement formulas for relay chains.

Everything here works in the dimensionless attenuation length alpha*x where
convenient; configs carry physical distances in km. This module holds the
first-order analytic forms, the exact chain's closed form (which the chain
module evaluates at any relay positions) and the relay placement, uniform
spacing with a longer final segment, clamped to the transmitter end at short
range, which is the exact optimum.

At that placement the exact chain is one binomial. In the interior
(alpha x > ln(1/eta), or N = 0), with u = (2 p_dark/eta) e^((alpha x +
ln eta)/(N+1)), S = 1/((1 + u)^(N+1) - 1) and the paper's first-order SNR is
exactly S_1 = 1/((N+1) u): the gap is the binomial tail. Clamped (every relay
at the transmitter), 1/S = (1 + 2 p_dark/eta)^N (1 + 2 p_dark e^(alpha x)) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


def check_p_dark(p_dark: float) -> None:
    """Reject a per-detector dark-count probability outside [0, 1/2)."""
    if not 0.0 <= p_dark < 0.5:
        raise ValueError(f"p_dark must be in [0, 0.5), got {p_dark}")


def check_relay(eta: float, p_dark: float) -> None:
    """Reject relay parameters outside the domain of the relay map.

    A relay gates a photon through with probability eta in (0, 1] and false
    gates with probability 2*p_dark; both together must stay a probability,
    eta + 2*p_dark <= 1. NaN fails every comparison and is rejected.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    check_p_dark(p_dark)
    if eta + 2.0 * p_dark > 1.0:
        raise ValueError("eta + 2*p_dark exceeds 1")


def check_n_relays(n_relays: int) -> None:
    """Reject a relay count that is not a nonnegative int (bools included)."""
    if (isinstance(n_relays, bool) or not isinstance(n_relays, int)
            or n_relays < 0):
        raise ValueError(f"n_relays must be a nonnegative integer, "
                         f"got {n_relays!r}")


@dataclass(frozen=True)
class ChainConfig:
    """End-to-end channel description.

    positions_km, when given, lists relay locations measured from the
    transmitter; they must be non-decreasing and inside [0, distance_km]
    (zero-length segments are legal and occur in degenerate sweeps). When
    absent, operations that need positions use optimal_positions().
    """

    distance_km: float
    atten_per_km: float = 0.05
    n_relays: int = 0
    eta: float = 0.5
    p_dark: float = 1e-5
    positions_km: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if not math.isfinite(self.distance_km) or self.distance_km < 0:
            raise ValueError(f"distance_km must be finite and >= 0, "
                             f"got {self.distance_km}")
        if not math.isfinite(self.atten_per_km) or self.atten_per_km <= 0:
            raise ValueError(f"atten_per_km must be finite and > 0, "
                             f"got {self.atten_per_km}")
        check_n_relays(self.n_relays)
        check_relay(self.eta, self.p_dark)
        if self.positions_km is not None:
            pos = tuple(float(p) for p in self.positions_km)
            object.__setattr__(self, "positions_km", pos)
            if len(pos) != self.n_relays:
                raise ValueError(f"{len(pos)} positions for {self.n_relays} relays")
            lo = 0.0
            for p in pos:
                if (not math.isfinite(p) or p < lo - 1e-12
                        or p > self.distance_km + 1e-12):
                    raise ValueError(f"relay positions must be non-decreasing "
                                     f"within [0, {self.distance_km}], got {pos}")
                lo = p

    @property
    def alpha_x(self) -> float:
        return self.atten_per_km * self.distance_km

    def with_positions(self, positions_km: Sequence[float]) -> "ChainConfig":
        return ChainConfig(self.distance_km, self.atten_per_km, self.n_relays,
                           self.eta, self.p_dark, tuple(positions_km))

    def at_alpha_x(self, alpha_x: float) -> "ChainConfig":
        """The same chain rescaled to attenuation length alpha_x.

        The distance becomes alpha_x/alpha and the relays go to their
        optimal positions, so a config with explicit positions is rejected.
        """
        if self.positions_km is not None:
            raise ValueError("a chain rescaled to alpha_x places its relays "
                             "itself; the config must not carry positions_km")
        return ChainConfig(alpha_x / self.atten_per_km, self.atten_per_km,
                           self.n_relays, self.eta, self.p_dark)


def qber_from_snr(s: float) -> float:
    """Bit error rate of a receiver seeing signal-to-noise ratio S.

    Noise photons are randomly polarized, so half of them land in the wrong
    detector: Q_B = 1 / (2 (1 + S)). S = 0 gives 1/2, S -> inf gives 0.
    """
    if math.isinf(s):
        return 0.0
    if s < 0:
        raise ValueError(f"snr must be nonnegative, got {s}")
    return 0.5 / (1.0 + s)


def snr_no_relay(p_dark: float, alpha_x: float) -> float:
    """Direct-transmission SNR: half the inverse dark rate times e^(-alpha x).

    p_dark = 0 returns math.inf as a noise-free sentinel.
    """
    check_p_dark(p_dark)
    if not 0.0 <= alpha_x < math.inf:
        raise ValueError(f"alpha_x must be finite and >= 0, got {alpha_x}")
    if p_dark == 0.0:
        return math.inf
    return 0.5 / p_dark * math.exp(-alpha_x)


def snr_n_relays(alpha_x: float, n_relays: int, eta: float, p_dark: float) -> float:
    """First-order SNR with n optimally placed relays, S_1 = 1/((N+1) u).

    S_N = S_0 * (1/(N+1)) * eta^(N/(N+1)) * e^(alpha x N/(N+1)), evaluated
    as (1/(2 p_d)) * eta^(N/(N+1)) * e^(-alpha x/(N+1)) / (N+1), so no factor
    overflows at any finite alpha x. At N = 0 this is exactly snr_no_relay.
    It assumes the interior optimum, alpha x > ln(1/eta); below that the
    relays are clamped to the transmitter and the first-order SNR of that
    placement differs from this formula: at eta = 0.5 by up to 5.7% (N = 1,
    alpha x = 0), falling with N to 1.1% at N = 16.
    """
    check_n_relays(n_relays)
    check_relay(eta, p_dark)
    if math.isinf(snr_no_relay(p_dark, alpha_x)):   # checks alpha_x; p_d = 0
        return math.inf
    m = n_relays + 1
    return 0.5 / p_dark * (eta ** (n_relays / m) * math.exp(-alpha_x / m) / m)


def noise_single_relay(x1_km: float, x2_km: float, config: ChainConfig) -> float:
    """First-order noise rate with one relay: 2 P_d (eta e^(-a x1) + e^(-a x2)).

    The two legs must add up to the configured total distance.
    """
    if abs(x1_km + x2_km - config.distance_km) > 1e-9 * max(1.0, config.distance_km):
        raise ValueError(f"legs {x1_km} + {x2_km} do not add up to "
                         f"{config.distance_km}")
    a = config.atten_per_km
    return 2.0 * config.p_dark * (config.eta * math.exp(-a * x1_km)
                                  + math.exp(-a * x2_km))


def optimal_position_single(config: ChainConfig) -> float:
    """Noise-minimizing location of a single relay.

    The stationary point of noise_single_relay is x1 = (x + ln(eta)/alpha)/2,
    biased toward the transmitter because a spurious photon born at the relay
    still has to survive the second leg. Clamped into [0, x].
    """
    x = config.distance_km
    raw = 0.5 * (x + math.log(config.eta) / config.atten_per_km)
    return min(max(raw, 0.0), x)


def optimal_positions(config: ChainConfig) -> tuple[float, ...]:
    """Noise-minimizing relay locations for the configured chain.

    Interior optimum: the first N segments share one length d and the final
    segment is longer by ln(1/eta)/alpha, so the last relay sits at distance
    (x - N ln(eta)/alpha)/(N + 1) from the receiver. When the channel is
    shorter than ln(1/eta)/alpha that pattern would need negative segments;
    the constrained optimum then parks every relay at the transmitter end.

    The pattern is the exact optimum of the all-orders chain, not only of the
    first-order noise: p_s does not depend on the positions, and the exact
    noise (see snr_exact) is convex in the first N segment lengths, so they
    are equal, and its derivative in their common length vanishes exactly
    where the last segment's transmission is eta times theirs.
    """
    n = config.n_relays
    if n == 0:
        return ()
    x = config.distance_km
    delta = -math.log(config.eta) / config.atten_per_km
    if x <= delta:
        return (0.0,) * n
    d = (x - delta) / (n + 1)
    return tuple(i * d for i in range(1, n + 1))


def _receiver_counts(s_n: float, alive: float, big_l: float, t_last: float,
                     p_dark: float) -> tuple[float, float]:
    """Receiver (p_s, p_n) of a relay chain, in closed form.

    After each relay a live slot holds a photon. With t_j the transmission
    of segment j and c = 2 p_dark/eta, s_n = S_N = prod_{j<=N} eta t_j,
    big_l = L = sum_{j<=N} log1p(c/t_j) (inf for a t_j of 0), and the live
    mass alive = S_N e^L = prod_{j<=N} (eta t_j + 2 p_dark):
        p_s = S_N t_last,    p_n = S_N (t_last expm1(L) + 2 p_dark e^L).
    S_N expm1(L) = alive - S_N is read off the products once L >= 1, where
    the difference no longer cancels and e^L may overflow.
    """
    spurious = s_n * math.expm1(big_l) if big_l < 1.0 else alive - s_n
    return s_n * t_last, t_last * spurious + 2.0 * p_dark * alive


# math.exp and math.expm1 overflow past about 709.78
_EXP_MAX = 700.0


def _softplus(z: float) -> float:
    """ln(1 + e^z) at any finite z."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _log_expm1(k: float) -> float:
    """ln(e^k - 1) for k >= 0, -inf at 0 and finite past exp's range."""
    if k >= _EXP_MAX:
        return k + math.log1p(-math.exp(-k))
    return math.log(math.expm1(k)) if k > 0.0 else -math.inf


def _snr_from_k(k: float) -> float:
    """S = 1/expm1(K) of a chain whose noise exponent is K = ln(1 + 1/S)."""
    if k == 0.0:    # no noise reaches the receiver
        return math.inf
    return 1.0 / math.expm1(k) if k < _EXP_MAX else math.exp(-k)


def _chain_at(alpha_x: float, n_relays: int, eta: float,
              p_dark: float) -> tuple[float, float, Optional[float]]:
    """(S, K, ln u) of the optimal chain, K = ln(1 + 1/S) in the binomial form.

    ln u is None on the clamped branch and -inf without dark counts, where
    K = 0. Only alpha_x is checked; the callers check (eta, p_dark, N).
    """
    if not 0.0 <= alpha_x < math.inf:
        raise ValueError(f"alpha_x must be finite and >= 0, got {alpha_x}")
    if p_dark == 0.0:
        return math.inf, 0.0, -math.inf
    n, log_eta = n_relays, math.log(eta)
    if n and alpha_x <= -log_eta:   # N relays of t = 1, then the bare fiber
        k = (n * math.log1p(2.0 * p_dark / eta)
             + _chain_at(alpha_x, 0, eta, p_dark)[1])
        log_u = None
    else:
        y = (alpha_x - n * log_eta) / (n + 1)       # u = 2 p_dark e^y
        log_u = math.log(2.0 * p_dark) + y
        if y < _EXP_MAX:    # u itself is a double, one rounding from exact
            k = (n + 1) * math.log1p(2.0 * p_dark * math.exp(y))
        else:
            k = (n + 1) * _softplus(log_u)
    # k = 0 where u is below the double range: no noise reaches the receiver
    return _snr_from_k(k), k, log_u


def snr_exact(alpha_x: float, n_relays: int, eta: float,
              p_dark: float) -> float:
    """Exact (all-orders) SNR at the optimal placement; inf if p_dark = 0."""
    check_n_relays(n_relays)
    check_relay(eta, p_dark)
    return _chain_at(alpha_x, n_relays, eta, p_dark)[0]


def solve_range_alpha_x(n_relays: int, eta: float, p_dark: float,
                        s_target: float) -> float:
    """Attenuation length at which the N-relay SNR equals s_target.

    Inverts the first-order SNR expression including its factor-2 terms.
    """
    check_n_relays(n_relays)
    if p_dark <= 0 or s_target <= 0:
        raise ValueError("p_dark and s_target must be positive")
    r = n_relays / (n_relays + 1)
    arg = 2.0 * p_dark * s_target * (n_relays + 1) * eta ** (-r)
    if arg >= 1.0:
        raise ValueError(
            f"no positive range: 2*p_dark*s_target*(N+1)*eta^(-N/(N+1)) = "
            f"{arg:.3g} >= 1")
    return -(n_relays + 1) * math.log(arg)


@dataclass(frozen=True)
class RangeEnhancement:
    approx: float
    exact: float


def range_enhancement(n_relays: int, eta: float, p_dark: float,
                      s_target: float) -> RangeEnhancement:
    """Range gain of an N-relay chain over direct transmission at fixed SNR.

    approx: R = (N+1) ln[(N+1) eta^(-N/(N+1)) P_d S] / ln[P_d S], the compact
    published form that drops the factor-2 terms. exact: the same ratio with
    both ranges solved from the full first-order expressions. Both need the
    log arguments below 1, otherwise the requested SNR is unreachable.
    """
    check_n_relays(n_relays)
    if p_dark <= 0 or s_target <= 0:
        raise ValueError("p_dark and s_target must be positive")
    ps = p_dark * s_target
    if ps >= 1.0:
        raise ValueError(f"p_dark * s_target must be < 1, got {ps}")
    r = n_relays / (n_relays + 1)
    arg = (n_relays + 1) * eta ** (-r) * ps
    if arg >= 1.0:
        raise ValueError(f"approximate form out of domain: argument {arg:.3g} >= 1")
    approx = (n_relays + 1) * math.log(arg) / math.log(ps)
    exact = (solve_range_alpha_x(n_relays, eta, p_dark, s_target)
             / solve_range_alpha_x(0, eta, p_dark, s_target))
    return RangeEnhancement(approx=approx, exact=exact)


def raw_rate(clock_hz: float, alpha_x: float) -> float:
    """Photon arrival rate after fiber attenuation: clock * e^(-alpha x).

    Relays do not change this; they only suppress which slots are accepted.
    """
    if clock_hz < 0:
        raise ValueError(f"clock_hz must be >= 0, got {clock_hz}")
    if alpha_x < 0:
        raise ValueError(f"alpha_x must be >= 0, got {alpha_x}")
    return clock_hz * math.exp(-alpha_x)
