"""Closed-form signal-to-noise and placement formulas for relay chains.

Everything here works in the dimensionless attenuation length alpha*x where
convenient; configs carry physical distances in km. The exact event-by-event
propagation lives in the chain module; this module holds the first-order
analytic forms and the relay placement results (uniform spacing with a longer
final segment, clamped to the transmitter end at short range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import ConvergenceError


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
        if (isinstance(self.n_relays, bool) or not isinstance(self.n_relays, int)
                or self.n_relays < 0):
            raise ValueError(f"n_relays must be a nonnegative integer, got {self.n_relays}")
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
    if p_dark < 0:
        raise ValueError(f"p_dark must be >= 0, got {p_dark}")
    if alpha_x < 0:
        raise ValueError(f"alpha_x must be >= 0, got {alpha_x}")
    if p_dark == 0.0:
        return math.inf
    return 0.5 / p_dark * math.exp(-alpha_x)


def snr_n_relays(alpha_x: float, n_relays: int, eta: float, p_dark: float) -> float:
    """First-order SNR with n optimally placed relays.

    S_N = S_0 * (1/(N+1)) * eta^(N/(N+1)) * e^(alpha x N/(N+1)). At N = 0 the
    bracket is exactly 1, and at N = 1 it reduces to the single-relay closed
    form; both are algebraic identities, not approximations.

    The closed form assumes the interior optimum, alpha x > ln(1/eta). On a
    shorter channel optimal_positions parks every relay at the transmitter,
    and the first-order SNR of that placement differs from this formula: at
    eta = 0.5 by up to 5.7% (N = 1, alpha x = 0), falling with N to 3.3% at
    N = 4 and 1.1% at N = 16.
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    s0 = snr_no_relay(p_dark, alpha_x)
    r = n_relays / (n_relays + 1)
    bracket = (1.0 / (n_relays + 1)) * eta ** r * math.exp(alpha_x * r)
    return s0 * bracket


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
    optimize_positions_numeric starts from this pattern to polish it against
    an exact noise objective.
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


# fminbound's rounded epsilon, kept so iterates match its reference exactly
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_brent(f: Callable[[float], float], a: float, b: float,
                   xatol: float, maxfun: int = 500) -> tuple[float, float]:
    """Minimize f on [a, b] by Brent's golden-section + parabolic search.

    The classic bounded (fminbound) iteration, in the operation order of
    scipy.optimize.minimize_scalar(method="bounded"), so every iterate and
    the returned (x, f(x)) match it bit for bit. Stops when the bracket
    shrinks below xatol plus a relative term, or after maxfun calls of f.
    Expects finite bounds with a <= b.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _sign_or_one(v: float) -> float:
    """+1.0 or -1.0 by the sign of v, with 0 (either sign) mapping to +1.0."""
    return 1.0 if v == 0 else math.copysign(1.0, v)


def optimize_positions_numeric(config: ChainConfig,
                               objective: Callable[[Sequence[float]], float],
                               x0: Optional[Sequence[float]] = None,
                               obj_tol: float = 1e-10,
                               max_sweeps: int = 500) -> tuple[float, ...]:
    """Coordinate-descent minimization of a noise objective over positions.

    Each sweep line-searches every relay position inside the interval pinned
    by its neighbours (bounded Brent). Stops when a full sweep improves the
    objective by less than obj_tol relative; deterministic for a given config
    and start. Raises ConvergenceError, carrying the best point found, if the
    sweep budget runs out.
    """
    n = config.n_relays
    if n == 0:
        return ()
    x = config.distance_km
    pos = list(optimal_positions(config) if x0 is None else x0)
    if len(pos) != n:
        raise ValueError(f"start point has {len(pos)} positions for {n} relays")
    best = objective(pos)
    xatol = max(1e-13, 1e-12 * x)
    for _sweep in range(max_sweeps):
        previous = best
        for i in range(n):
            lo = pos[i - 1] if i > 0 else 0.0
            hi = pos[i + 1] if i < n - 1 else x
            if hi - lo <= 2 * xatol:
                continue
            xi, fi = _bounded_brent(
                lambda v: objective(pos[:i] + [v] + pos[i + 1:]),
                lo, hi, xatol)
            if fi < best:
                pos[i] = xi
                best = fi
        # relative stop: noise objectives span many decades, so an absolute
        # threshold would quit coordinate sweeps while still percent-level off
        if previous - best <= obj_tol * abs(best):
            return tuple(pos)
    raise ConvergenceError(
        f"placement search did not converge in {max_sweeps} sweeps",
        best_positions=tuple(pos), best_value=best)


def solve_range_alpha_x(n_relays: int, eta: float, p_dark: float,
                        s_target: float) -> float:
    """Attenuation length at which the N-relay SNR equals s_target.

    Inverts the first-order SNR expression including its factor-2 terms.
    """
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
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
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
