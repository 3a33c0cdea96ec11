"""Closed-form signal-to-noise and placement formulas for relay chains.

Everything here works in the dimensionless attenuation length alpha*x where
convenient; configs carry physical distances in km. This module holds the
first-order analytic forms, the exact chain's closed form at any relay
positions (_chain_at_segments) and the relay placement, uniform spacing
with a longer final segment, clamped to the transmitter end at short
range, which is the exact optimum. Every entry point checks its inputs by
errors.check_int and check_real (`eta must be a number in (0, 1], got 1.5`),
and check_relay adds the one joint condition, eta + 2 p_dark <= 1. p_dark
is 0, no dark counts, or a normal double: with 2 p_dark normal, S <=
1/(2 p_dark) is finite, so inf means only that no dark counts reach the
receiver. eta is a normal double too, so 2 p_dark/eta < 4.5e307 is finite.

At that placement the exact chain is one binomial. In the interior
(alpha x > ln(1/eta), or N = 0), with u = (2 p_dark/eta) e^((alpha x +
ln eta)/(N+1)), S = 1/((1 + u)^(N+1) - 1) and the paper's first-order SNR is
exactly S_1 = 1/((N+1) u): the gap is the binomial tail. Clamped (every relay
at the transmitter), 1/S = (1 + 2 p_dark/eta)^N (1 + 2 p_dark e^(alpha x)) - 1.
Each range at a target S is one inverse of u, alpha x = (N+1) (ln u -
ln(2 p_dark)) + N ln eta (_alpha_x_at_u): the first-order range
(solve_range_alpha_x) at u_1 = 1/((N+1) S), the all-orders one
(_alpha_x_at_snr, behind throughput's cutoffs) at u = expm1(log1p(1/S)/(N+1)).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple, Sequence

from .errors import check_int, check_real


def check_relay(eta: float, p_dark: float) -> None:
    """Reject relay parameters outside the domain of the relay map.

    A relay gates a photon through with probability eta in (0, 1], a normal
    double (below the normal range 2*p_dark/eta overflows), and false gates
    with probability 2*p_dark, p_dark 0 or in [float_info.min, 1/2) per
    detector (below the normal range 1/(2 p_dark) overflows); both
    together must stay a probability, eta + 2*p_dark <= 1.
    """
    check_real(eta, "eta", 0, 1, "(]")
    check_real(eta, "eta", sys.float_info.min, 1, "[]")
    check_real(p_dark, "p_dark", 0, 0.5)
    if p_dark:
        check_real(p_dark, "nonzero p_dark", sys.float_info.min, 0.5)
    if eta + 2.0 * p_dark > 1.0:
        raise ValueError("eta + 2*p_dark exceeds 1")


class ChainConfig(namedtuple("ChainConfig", (
        "distance_km", "atten_per_km", "n_relays", "eta", "p_dark"))):
    """End-to-end channel description, checked at construction.

    Fields: distance_km, atten_per_km (0.05), n_relays (0), eta (0.5) and
    p_dark (1e-5). Relay positions are not part of the config: functions
    that take positions get them as an argument, else use
    optimal_positions().
    """

    __slots__ = ()

    def __new__(cls, distance_km: float, atten_per_km: float = 0.05,
                n_relays: int = 0, eta: float = 0.5, p_dark: float = 1e-5):
        check_real(distance_km, "distance_km")
        check_real(atten_per_km, "atten_per_km", ends="()")
        check_real(atten_per_km * distance_km, "alpha_x")
        check_int(n_relays, "n_relays")
        check_relay(eta, p_dark)
        return super().__new__(cls, distance_km, atten_per_km, n_relays, eta,
                               p_dark)

    def _replace(self, **changes) -> "ChainConfig":
        """A copy with some fields changed, checked as a new config is."""
        return ChainConfig(**{**self._asdict(), **changes})

    @property
    def alpha_x(self) -> float:
        return self.atten_per_km * self.distance_km

    def at_alpha_x(self, alpha_x: float) -> "ChainConfig":
        """The same chain at the distance alpha_x/alpha, so at attenuation
        length alpha (alpha_x/alpha): for some alpha_x that is a neighbouring
        double (60.392 is 60.391999999999996 at alpha = 0.05)."""
        check_real(alpha_x, "alpha_x")
        alpha = self.atten_per_km
        if (x := alpha_x / alpha) == math.inf:
            raise ValueError(f"alpha_x = {alpha_x!r} at atten_per_km = "
                             f"{alpha!r} puts the distance past the double "
                             f"range")
        return ChainConfig(x, alpha, self.n_relays, self.eta, self.p_dark)


def qber_from_snr(s: float) -> float:
    """Bit error rate of a receiver seeing signal-to-noise ratio S.

    Noise photons are randomly polarized, so half of them land in the wrong
    detector: Q_B = 1 / (2 (1 + S)). S = 0 gives 1/2, S -> inf gives 0.
    """
    check_real(s, "s", ends="[]")
    return 0.5 / (1.0 + s)


def snr_n_relays(alpha_x: float, n_relays: int, eta: float, p_dark: float) -> float:
    """First-order SNR with n optimally placed relays, S_1 = 1/((N+1) u).

    S_N = S_0 * (1/(N+1)) * eta^(N/(N+1)) * e^(alpha x N/(N+1)), evaluated
    as (1/(2 p_d)) * eta^(N/(N+1)) * e^(-alpha x/(N+1)) / (N+1), with
    e^-708 split off and applied last where that product leaves the normal
    range. N = 0 gives direct transmission, S_0 = e^(-alpha x)/(2 p_d)
    (math.inf at p_d = 0), where eta does not enter: any eta with
    eta + 2 p_d <= 1 returns the same double.
    It assumes the interior optimum, alpha x > ln(1/eta); below that the
    relays are clamped to the transmitter and the first-order SNR of that
    placement differs from this formula: at eta = 0.5 by up to 5.7% (N = 1,
    alpha x = 0), falling with N to 1.1% at N = 16.
    """
    check_int(n_relays, "n_relays")
    check_relay(eta, p_dark)
    return _snr_curve((alpha_x,), n_relays, eta, p_dark)[0][0]


def noise_single_relay(x1_km: float, x2_km: float, config: ChainConfig) -> float:
    """First-order noise rate with one relay: 2 P_d (eta e^(-a x1) + e^(-a x2)).

    The config has one relay, and optimal_positions(config)[0] minimizes
    this over x1; the legs are finite distances >= 0 adding up to its length.
    """
    check_int(config.n_relays, "n_relays", 1, 1)
    a = config.atten_per_km
    check_real(x1_km, "x1_km")
    check_real(x2_km, "x2_km")
    if abs(x1_km + x2_km - config.distance_km) > 1e-9 * max(1.0, config.distance_km):
        raise ValueError(f"legs {x1_km} + {x2_km} do not add up to "
                         f"{config.distance_km}")
    return 2.0 * config.p_dark * (config.eta * math.exp(-a * x1_km)
                                  + math.exp(-a * x2_km))


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


# math.exp and math.expm1 overflow past about 709.78, and math.exp(-x)
# leaves the normal range past 708.39
_EXP_MAX, _EXP_NORMAL = 700.0, 708.0


def _term(y: float, c: float) -> float:
    """The term ln(1 + c e^y) of the noise exponent K = ln(1 + p_n/p_s) of
    a segment of attenuation length y, c = 2 p_dark on the last segment
    and 2 p_dark/eta on a relay's: log1p of c e^y, rounded once as
    c exp(y); softplus(ln c + y) past exp's range."""
    # c = 0: no dark counts
    v = c and (math.inf if y >= _EXP_MAX else c * math.exp(y))
    if v < math.inf:
        return math.log1p(v)
    z = math.log(c) + y     # softplus: ln(1 + e^z)
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _terms(ys: Sequence[float], n_relays: int, eta: float,
           p_dark: float) -> tuple[list[float], float]:
    """The terms of segments of attenuation lengths ys, the first n_relays
    of them relays', and K, their correctly rounded sum (math.fsum)."""
    pd2 = 2.0 * p_dark
    terms = [_term(y, pd2 / eta if j < n_relays else pd2)
             for j, y in enumerate(ys)]
    return terms, math.fsum(terms)


def _log_expm1(k: float) -> float:
    """ln(e^K - 1) of K >= 0, -inf at 0 and finite past exp's range."""
    if k >= _EXP_MAX:
        return k + math.log1p(-math.exp(-k))
    return math.log(math.expm1(k)) if k > 0.0 else -math.inf


def _snr_from_k(k: float) -> float:
    """S = 1/expm1(K) of a chain whose noise exponent is K = ln(1 + 1/S)."""
    if k == 0.0:    # no noise reaches the receiver
        return math.inf
    return 1.0 / math.expm1(k) if k < _EXP_MAX else math.exp(-k)


def _chain_at_segments(config: ChainConfig, ys: Sequence[float]) -> tuple:
    """(p_s, p_n, S, q_b, ln p_s, ln p_n, K) of the exact chain whose N + 1
    segments have attenuation lengths ys, y_j = alpha dx_j.

    A relay maps (sig, rnd, emp) as the chain module states, so with
    t_j = e^(-y_j), c = 2 p_dark/eta, S_N = prod_{j<=N} eta t_j and
    L = sum_{j<=N} log1p(c/t_j) (inf for a t_j of 0), the live mass after
    the last relay is S_N e^L = prod_{j<=N} (eta t_j + 2 p_dark), and
        p_s = S_N t_last,    p_n = S_N (t_last expm1(L) + 2 p_dark e^L).
    S_N expm1(L) is read off the products as S_N e^L - S_N once L >= 1,
    where the difference no longer cancels and e^L may overflow. S and q_b
    come from the noise exponent K = ln(1 + p_n/p_s), the fsum of the
    segments' terms (_terms), as snr_exact's do, so they stay finite where
    p_s and p_n underflow on long chains (S = inf, q_b = 0 without dark
    counts). So do the logs: ln p_s = N ln eta - alpha x, whatever the
    positions, and, by one rule at every size of p_n, as p_n = (p_s + p_n)
    (1 - e^-K) and p_s + p_n is the live mass times t_last + 2 p_dark,
        ln p_n = sum_{j<=N} ln(eta t_j + 2 p_dark) + ln(t_last + 2 p_dark)
                 + ln(-expm1(-K))
    (-inf without dark counts). No term is above ln(1 + 2 p_dark), so none
    cancels another. Each log h = ln f comes with its rest ln(f e^-h) ~
    f/e^h - 1, exact but for exp's rounding (every factor is about 2 p_dark
    or more, so e^h is a normal double), and the fsum is rounded once:
    ln p_n keeps its digits relative to max(N + 1, |ln p_n|), which is the
    factors' own rounding. This form was kept over the two it replaced,
    each right on one side of the normal range: ln of the double p_n loses
    digits below it and is -inf where p_n underflows, and ln p_s +
    ln expm1(K) puts -alpha x against +alpha x where S << 1 (65536.0 for
    -1092.8 at alpha x = 5e20).
    """
    eta, pd2 = config.eta, 2.0 * config.p_dark
    terms, k = _terms(ys, config.n_relays, eta, config.p_dark)
    *relay_ts, t_last = [math.exp(-y) for y in ys]
    s_n = math.prod(eta * t for t in relay_ts)
    factors = [eta * t + pd2 for t in relay_ts]
    alive = math.prod(factors)
    big_l = math.fsum(terms[:-1])
    spurious = s_n * math.expm1(big_l) if big_l < 1.0 else alive - s_n
    p_s, p_n = s_n * t_last, t_last * spurious + pd2 * alive
    snr = _snr_from_k(k)
    log_p_s = config.n_relays * math.log(eta) - config.alpha_x
    log_p_n = math.fsum(
        part for f in [*factors, t_last + pd2, -math.expm1(-k)]
        for h in (math.log(f),) for part in (h, f / math.exp(h) - 1.0)
    ) if pd2 else -math.inf
    return p_s, p_n, snr, qber_from_snr(snr), log_p_s, log_p_n, k


def _log_sinhc(z: float) -> float:
    """ln(sinh(z)/z) for z >= 0, to full relative precision: up to z = 1 the
    log1p of (sinh(z) - z)/z = z^2/3! + z^4/5! + ..., terms falling 20-fold.
    """
    if z > 1.0:
        return _log_expm1(2.0 * z) - math.log(2.0 * z) - z
    zz = z * z
    term, total, i = zz / 6.0, 0.0, 3
    while total + term != total:
        total += term
        i += 2
        term *= zz / ((i - 1) * i)
    return math.log1p(total)


def _expm1_excess(x: float) -> float:
    """h(x) = expm1(x) - x for x <= 0 to full relative precision, as
    x expm1(g(x)) with g(x) = ln(expm1(x)/x) = x/2 + _log_sinhc(-x/2)."""
    return x * math.expm1(x / 2 + _log_sinhc(-x / 2))


def _chain_curve(alpha_xs: Sequence[float], n_relays: int, eta: float,
                 p_dark: float) -> list[tuple]:
    """(S, q_b, K, w) of the exact optimal chain at each alpha_x, its
    constants taken once per curve, q_b = 1/(2 (1 + S)) its QBER and
    K = ln(1 + 1/S) its noise exponent; in the interior each segment's
    term is w = log1p(u), u = 2 p_dark e^y, y = (alpha x - N ln eta)/(N+1);
    clamped, w is a relay's, log1p(2 p_dark/eta). Only the alpha_xs are
    checked; the callers check (eta, p_dark, N)."""
    n, m, log_eta = n_relays, n_relays + 1, math.log(eta)
    out = []
    for alpha_x in alpha_xs:
        check_real(alpha_x, "alpha_x")
        if n and alpha_x <= -log_eta:   # N relays of t = 1, then bare fiber
            (relay, last), _ = _terms((0.0, alpha_x), 1, eta, p_dark)
            k, w = n * relay + last, relay
        else:
            w = _term((alpha_x - n * log_eta) / m, 2.0 * p_dark)
            k = m * w
        out.append((snr := _snr_from_k(k), 0.5 / (1.0 + snr), k, w))
    return out


def _alpha_x_at_u(log_u: float, n_relays: int, eta: float,
                  p_dark: float) -> float:
    """The one inverse of the optimal chain's segment variable: alpha x =
    (N+1) (ln u - ln(2 p_dark)) + N ln eta, where u = 2 p_dark e^((alpha x
    - N ln eta)/(N+1)), from log_u = ln u. The all-orders range asks for u
    = expm1(K*/(N+1)) (_alpha_x_at_snr), the first-order one for u_1 =
    1/((N+1) S) (solve_range_alpha_x). math.inf without dark counts, where
    ln(2 p_dark) = -inf."""
    return ((n_relays + 1) * (log_u - math.log(2.0 * p_dark))
            + n_relays * math.log(eta) if p_dark else math.inf)


def _alpha_x_at_snr(s_target: float, n_relays: int, eta: float,
                    p_dark: float) -> float:
    """alpha x at which the optimal chain's S falls to s_target > 0, its one
    crossing: _chain_curve inverted at K* = ln(1 + 1/s_target), log1p(1/S)
    or, where 1/S overflows, log1p(S) - ln S, reading K(0) and a relay's
    term L off it. Interior: _alpha_x_at_u at u = expm1(K*/(N+1)), the
    all-orders u; clamped, the bare last segment alone (_alpha_x_at_u at
    N = 0) takes K* - N L. ln u is _log_expm1's, finite past exp's range.
    0 where S(0) <= s_target, math.inf without dark counts; the callers
    check (eta, p_dark, N)."""
    inv = 1.0 / s_target
    k_star = (math.log1p(inv) if inv < math.inf
              else math.log1p(s_target) - math.log(s_target))
    (_, _, k_0, relay), = _chain_curve((0.0,), n_relays, eta, p_dark)
    if k_0 >= k_star:
        return 0.0
    alpha_x = _alpha_x_at_u(_log_expm1(k_star / (n_relays + 1)),
                            n_relays, eta, p_dark)
    if n_relays and alpha_x <= -math.log(eta):
        # K* > K(0) = N L + log1p(2 p_dark), so u is > 2 p_dark
        alpha_x = _alpha_x_at_u(_log_expm1(k_star - n_relays * relay), 0, eta,
                                p_dark)
    return alpha_x


def _snr_curve(alpha_xs: Sequence[float], n_relays: int, eta: float,
               p_dark: float) -> list[tuple[float, float, float, float]]:
    """(S_1, S, q_b, rel_dev) of the optimal chain at each alpha_x: the
    first-order and exact SNR, the QBER at S and rel_dev = |S/S_1 - 1|.

    S_1 = e^-y/(2 p_dark (N+1)) is written here alone, as the product
    s_0 eta^(N/(N+1)) e^-t/(N+1), t = alpha x/(N+1), s_0 = 1/(2 p_dark).
    Where e^-y/(N+1) leaves the normal range, e^-t = e^(708 - t) e^-708
    and the small factor comes last. S, K and w are _chain_curve's, as is
    q_b. In the interior S/S_1 = r = (N+1) u/expm1(K), with w = log1p(u)
    and K = (N+1) w, so with g(x) = ln(expm1(x)/x) = x/2 +
    _log_sinhc(|x|/2), ln r = g(w) - g(K) = -N w/2 + _log_sinhc(w/2) -
    _log_sinhc(K/2):
    rel_dev = |expm1(ln r)| keeps its digits however small u is. Clamped
    (alpha x <= ln(1/eta), N >= 1), S_1 is another placement's: with
    d = alpha x + ln eta <= 0, c = 2 p_dark/eta and L = log1p(c),
    r = (N+1) c e^(d/(N+1))/expm1(K) and ln r = -f(d) - D.
    The placements' gap f(d) = ln(1 + expm1(d)/(N+1)) - d/(N+1) >= 0 is
    h(d)/(N+1) - h(ln(1 + expm1(d)/(N+1))), h(x) = expm1(x) - x =
    x expm1(g(x)) (_expm1_excess), so no digit cancels at small d; the
    O(c) rest D = ln(expm1(K)/(c (N + e^d))) >= 0 is
    log1p((N expm1(g(N L) - g(L)) + e^d expm1(N L))/(N + e^d)).
    Past K = 700, ln r < -100: rel_dev is 1 in doubles. Only the alpha_xs
    are checked; the callers check (eta, p_dark, N).
    """
    n, m, log_eta = n_relays, n_relays + 1, math.log(eta)
    n_log_eta, log_m, gain = n * log_eta, math.log(m), eta ** (n / m)
    s_0 = 0.5 / p_dark if p_dark else math.inf
    small = math.exp(-_EXP_NORMAL)
    points = []
    for alpha_x, (s_ex, q_b, k, w) in zip(
            alpha_xs, _chain_curve(alpha_xs, n_relays, eta, p_dark)):
        y, t = (alpha_x - n_log_eta) / m, alpha_x / m
        if not p_dark:      # no dark counts: S_1 = inf
            s_an = math.inf
        elif y + log_m >= _EXP_NORMAL:
            s_an = s_0 * (gain * math.exp(_EXP_NORMAL - t) / m) * small
        else:
            s_an = s_0 * (gain * math.exp(-t) / m)
        if k == 0.0:    # no noise: S = inf, and S_1 = inf or all but
            dev = 0.0
        elif not n or alpha_x > -log_eta:
            half = w / 2
            dev = abs(math.expm1(-n * w / 2 + _log_sinhc(half)
                                 - _log_sinhc(m * half)))
        elif k < _EXP_MAX:
            d, big_l = alpha_x + log_eta, w
            n_l, e_d = n * big_l, math.exp(d)
            g_gap = ((n - 1) * big_l / 2 + _log_sinhc(n_l / 2)
                     - _log_sinhc(big_l / 2))
            dev = abs(math.expm1(
                _expm1_excess(math.log1p(math.expm1(d) / m))
                - _expm1_excess(d) / m - math.log1p(
                    (n * math.expm1(g_gap) + e_d * math.expm1(n_l))
                    / (n + e_d))))
        else:
            dev = 1.0
        points.append((s_an, s_ex, q_b, dev))
    return points


def snr_exact(alpha_x: float, n_relays: int, eta: float,
              p_dark: float) -> float:
    """Exact (all-orders) SNR at the optimal placement; inf if p_dark = 0."""
    check_int(n_relays, "n_relays")
    check_relay(eta, p_dark)
    return _chain_curve((alpha_x,), n_relays, eta, p_dark)[0][0]


def solve_range_alpha_x(n_relays: int, eta: float, p_dark: float,
                        s_target: float) -> float:
    """Attenuation length at which the N-relay first-order SNR equals
    s_target: S_1 = 1/((N+1) u), so _alpha_x_at_u at u_1 = 1/((N+1) S),
    ln u_1 = -ln(N+1) - ln S. The logs are of the factors, so a subnormal
    p_dark s_target still has a range. The range must be positive and
    finite: not without dark counts, nor where even alpha x = 0 misses the
    target.
    """
    check_int(n_relays, "n_relays")
    check_relay(eta, p_dark)
    check_real(s_target, "s_target", ends="()")
    alpha_x = _alpha_x_at_u(-math.log(n_relays + 1) - math.log(s_target),
                            n_relays, eta, p_dark)
    if not 0.0 < alpha_x < math.inf:
        raise ValueError(
            f"no positive finite range: S_1 = s_target solves to "
            f"alpha_x = {alpha_x:.3g}")
    return alpha_x


class RangeEnhancement(NamedTuple):
    approx: float
    first_order: float


def range_enhancement(n_relays: int, eta: float, p_dark: float,
                      s_target: float) -> RangeEnhancement:
    """Range gain of an N-relay chain over direct transmission at fixed SNR.

    approx: R = (N+1) ln[(N+1) eta^(-N/(N+1)) P_d S] / ln[P_d S], the compact
    published form that drops the factor-2 terms, its logs taken as sums
    of the factors' logs. first_order: the same ratio with both ranges
    solved from the full first-order expressions, solve_range_alpha_x's
    inverse at u_1 = 1/((N+1) S), which refuses a range that is not
    positive: a positive one puts the compact form's two log arguments
    below 1/2.
    """
    first_order = (solve_range_alpha_x(n_relays, eta, p_dark, s_target)
                   / solve_range_alpha_x(0, eta, p_dark, s_target))
    m = n_relays + 1
    lps = math.log(p_dark) + math.log(s_target)
    approx = m * (math.log(m) - n_relays / m * math.log(eta) + lps) / lps
    return RangeEnhancement(approx=approx, first_order=first_order)


def raw_rate(clock_hz: float, alpha_x: float) -> float:
    """Photon arrival rate after fiber attenuation: clock * e^(-alpha x).

    Relays do not change this; they only suppress which slots are accepted.
    """
    check_real(clock_hz, "clock_hz")
    check_real(alpha_x, "alpha_x")
    return clock_hz * math.exp(-alpha_x)
