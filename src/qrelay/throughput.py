"""Secure-key throughput of a relay chain feeding a BB84 receiver.

The key fraction per accepted bit is 1 - f_ec h(e) - log2(1 + 4e - 4e^2) for
single-photon BB84 with error correction working at f_ec times the Shannon
limit, clamped at zero; it is the one key-fraction model, and f_ec its one
parameter. Normalized throughput multiplies nothing in: it is the
key fraction evaluated at the chain's exact bit error rate, i.e. key bits per
gated-and-detected slot. An alternative normalization per transmitted slot
folds in the relay gating passes (a factor eta per relay); both are reported.
The chain's SNR is the exact curve of analytics' closed form, and the
cutoff range where the key fraction reaches zero is analytics' inverse of it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

from .analytics import (ChainConfig, _alpha_x_at_snr, _chain_curve,
                        qber_from_snr)

# the one key-fraction formula here (_tau), as the throughput report names it
MODEL = "single-photon-bb84"


def binary_entropy(e: float) -> float:
    """Shannon entropy h(e) in bits; defined on [0, 1] with h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"binary_entropy needs e in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


class EcPaParams(namedtuple("EcPaParams", ("f_ec",))):
    """Error-correction / privacy-amplification parameters.

    f_ec (1.16) is the error-correction inefficiency (1 = Shannon limit),
    checked at construction.
    """

    __slots__ = ()

    def __new__(cls, f_ec: float = 1.16):
        if not math.isfinite(f_ec) or f_ec < 1.0:
            raise ValueError(f"f_ec must be finite and >= 1, got {f_ec}")
        return super().__new__(cls, f_ec)

    def _replace(self, **changes) -> "EcPaParams":
        """A copy with some fields changed, checked as new parameters are."""
        return EcPaParams(**{**self._asdict(), **changes})


def _tau(e: float, params: EcPaParams) -> float:
    """The key fraction before clamping; negative past the cutoff."""
    return 1.0 - params.f_ec * binary_entropy(e) \
        - math.log2(1.0 + 4.0 * e - 4.0 * e * e)


def key_fraction(e: float, params: Optional[EcPaParams] = None) -> float:
    """Secret bits per sifted bit at error rate e, clamped at zero.

    Accepts e in [0, 0.5]; beyond that the sifted channel is worse than
    guessing.
    """
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"key_fraction needs e in [0, 0.5], got {e}")
    return max(_tau(e, params or EcPaParams()), 0.0)


def key_fraction_cutoff(params: Optional[EcPaParams] = None) -> float:
    """Error rate e* at which the key fraction hits zero, by bisection.

    The unclamped expression is positive at e = 0 and strictly negative by
    e = 0.25, so the root is bracketed; bisection to adjacent doubles
    returns the last e at which it is positive. This is the one search
    here: cutoff_alpha_x takes S* = 1/(2 e*) - 1 from it and then inverts
    the chain's SNR in closed form.
    """
    params = params or EcPaParams()
    f = lambda e: _tau(e, params)
    lo, hi = 1e-12, 0.25
    if f(lo) <= 0.0 or f(hi) >= 0.0:
        raise ValueError("key fraction does not change sign on (0, 0.25)")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def snr_cutoff(params: Optional[EcPaParams] = None) -> float:
    """Minimum SNR for a nonzero key fraction: S* = 1/(2 e*) - 1."""
    return 0.5 / key_fraction_cutoff(params) - 1.0


class ThroughputPoint(NamedTuple):
    """One attenuation-length sample of a throughput sweep.

    t_n is per detected slot; t_n_scaled additionally charges the eta of each
    relay's gate, giving key bits per slot that survived every gate.
    """

    alpha_x: float
    s: float
    q_b: float
    t_n: float
    t_n_scaled: float


def throughput_curve(config: ChainConfig, alpha_x_values: Sequence[float],
                     params: Optional[EcPaParams] = None
                     ) -> list[ThroughputPoint]:
    """Exact-chain throughput at each attenuation length in the grid.

    Each grid point is the chain config.at_alpha_x gives, optimally placed,
    at its exact SNR (analytics' exact curve, with no first-order SNR) and
    its QBER, which is in [0, 1/2], the domain key_fraction checks.
    """
    params = params or EcPaParams()
    scale = config.eta ** config.n_relays
    points = []
    for alpha_x, (s, *_) in zip(alpha_x_values, _chain_curve(
            alpha_x_values, config.n_relays, config.eta, config.p_dark)):
        q_b = qber_from_snr(s)
        t_n = max(_tau(q_b, params), 0.0)
        points.append(ThroughputPoint(alpha_x, s, q_b, t_n, scale * t_n))
    return points


def cutoff_alpha_x(config: ChainConfig,
                   params: Optional[EcPaParams] = None) -> float:
    """Attenuation length at which the chain's key fraction reaches zero:
    analytics' inverse of the optimal chain's SNR at the cutoff SNR S*, 0
    when S(0) <= S*, math.inf without dark counts (S = inf)."""
    return _alpha_x_at_snr(snr_cutoff(params), config.n_relays, config.eta,
                           config.p_dark)
