"""Secure-key throughput of a relay chain feeding a BB84 receiver.

The key fraction per accepted bit is 1 - f_ec h(e) - log2(1 + 4e - 4e^2) for
single-photon BB84 with error correction working at f_ec times the Shannon
limit, clamped at zero; it is the one key-fraction model, and f_ec its one
parameter. Normalized throughput multiplies nothing in: it is the
key fraction evaluated at the chain's exact bit error rate, i.e. key bits per
gated-and-detected slot. An alternative normalization per transmitted slot
folds in the relay gating passes (a factor eta per relay); both are reported.
The chain's SNR is the exact curve of analytics' closed form, and the
cutoff range where the key fraction reaches zero is analytics' all-orders
inverse of it at the cutoff SNR S* = 1/(2 e*) - 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .analytics import _alpha_x_at_snr, _chain_curve, check_relay
from .errors import check_int, check_real

# the one key-fraction formula here (_tau), as the throughput report names it
MODEL = "single-photon-bb84"
# the default of its one parameter, the error-correction inefficiency f_ec
F_EC = 1.16


def binary_entropy(e: float) -> float:
    """Shannon entropy h(e) in bits; defined on [0, 1] with h(0) = h(1) = 0."""
    check_real(e, "e", 0, 1, "[]")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def _tau(e: float, f_ec: float) -> float:
    """The key fraction before clamping; negative past the cutoff."""
    return 1.0 - f_ec * binary_entropy(e) \
        - math.log2(1.0 + 4.0 * e - 4.0 * e * e)


def key_fraction(e: float, f_ec: float = F_EC) -> float:
    """Secret bits per sifted bit at error rate e, clamped at zero.

    Accepts e in [0, 0.5]; beyond that the sifted channel is worse than
    guessing.
    """
    check_real(e, "e", 0, 0.5, "[]")
    check_real(f_ec, "f_ec", 1)
    return max(_tau(e, f_ec), 0.0)


def key_fraction_cutoff(f_ec: float = F_EC) -> float:
    """Error rate e* at which the key fraction hits zero, by bisection.

    The unclamped expression tau is exactly 1 at e = 0 and, for every
    f_ec >= 1 (checked here), negative at e = 0.25, so [0, 0.25]
    brackets the root; bisection to adjacent doubles returns a double e*
    with tau(e*) > 0 >= tau(next double up). Within a few ulps of the root
    tau may change sign more than once, so e* need not be the last double
    at which it is positive. This is the one search here: cutoff_alpha_x
    takes the cutoff SNR S* = 1/(2 e*) - 1 from it and inverts the chain's
    all-orders SNR there in closed form.
    """
    check_real(f_ec, "f_ec", 1)
    lo, hi = 0.0, 0.25
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _tau(mid, f_ec) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


class ThroughputPoint(NamedTuple):
    """One attenuation-length sample of a throughput sweep, at the grid
    value of its index: t_n is per detected slot; t_n_scaled additionally
    charges the eta of each relay's gate, giving key bits per slot that
    survived every gate.
    """

    s: float
    q_b: float
    t_n: float
    t_n_scaled: float


def throughput_curve(alpha_x_values: Sequence[float], n_relays: int,
                     eta: float, p_dark: float,
                     f_ec: float = F_EC) -> list[ThroughputPoint]:
    """Exact-chain throughput at each attenuation length in the grid.

    Each grid point is the optimally placed chain at its exact SNR
    (analytics' exact curve, with no first-order SNR) and its QBER, which
    is in [0, 1/2], the domain key_fraction checks.
    """
    check_int(n_relays, "n_relays")
    check_relay(eta, p_dark)
    check_real(f_ec, "f_ec", 1)
    scale = eta ** n_relays
    points = []
    for s, q_b, _k, _w in _chain_curve(alpha_x_values, n_relays, eta, p_dark):
        t_n = max(_tau(q_b, f_ec), 0.0)
        points.append(ThroughputPoint(s, q_b, t_n, scale * t_n))
    return points


def cutoff_alpha_x(n_relays: int, eta: float, p_dark: float,
                   f_ec: float = F_EC) -> float:
    """Attenuation length at which the chain's key fraction reaches zero:
    analytics' all-orders inverse of the optimal chain's SNR at the cutoff
    SNR S* = 1/(2 e*) - 1, e* = key_fraction_cutoff(f_ec), that is at u =
    expm1(log1p(1/S*)/(N+1)); 0 when S(0) <= S*, math.inf without dark
    counts (S = inf)."""
    check_int(n_relays, "n_relays")
    check_relay(eta, p_dark)
    return _alpha_x_at_snr(0.5 / key_fraction_cutoff(f_ec) - 1.0, n_relays,
                           eta, p_dark)
