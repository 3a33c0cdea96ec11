"""Secure-key throughput of a relay chain feeding a BB84 receiver.

The key fraction per accepted bit is 1 - f_ec h(e) - log2(1 + 4e - 4e^2) for
single-photon BB84 with error correction working at f_ec times the Shannon
limit, clamped at zero. Normalized throughput multiplies nothing in: it is the
key fraction evaluated at the chain's exact bit error rate, i.e. key bits per
gated-and-detected slot. An alternative normalization per transmitted slot
folds in the relay gating passes (a factor eta per relay); both are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .analytics import ChainConfig, qber_from_snr, snr_exact

_SINGLE_PHOTON_BB84 = "single-photon-bb84"


def binary_entropy(e: float) -> float:
    """Shannon entropy h(e) in bits; defined on [0, 1] with h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"binary_entropy needs e in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


@dataclass(frozen=True)
class EcPaParams:
    """Error-correction / privacy-amplification model parameters.

    f_ec is the error-correction inefficiency (1 = Shannon limit). model
    selects the key-fraction formula; only "single-photon-bb84" is built in,
    and unknown identifiers are rejected so new models must be registered in
    _MODELS explicitly.
    """

    f_ec: float = 1.16
    model: str = _SINGLE_PHOTON_BB84

    def __post_init__(self):
        if not math.isfinite(self.f_ec) or self.f_ec < 1.0:
            raise ValueError(f"f_ec must be finite and >= 1, got {self.f_ec}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown throughput model {self.model!r}; "
                             f"known: {sorted(_MODELS)}")


def _tau_single_photon_bb84(e: float, params: EcPaParams) -> float:
    return 1.0 - params.f_ec * binary_entropy(e) \
        - math.log2(1.0 + 4.0 * e - 4.0 * e * e)


_MODELS = {_SINGLE_PHOTON_BB84: _tau_single_photon_bb84}


def key_fraction(e: float, params: Optional[EcPaParams] = None,
                 clamp: bool = True) -> float:
    """Secret bits per sifted bit at error rate e, clamped at zero.

    Accepts e in [0, 0.5]; beyond that the sifted channel is worse than
    guessing. clamp=False exposes the raw (possibly negative) expression,
    which is what the cutoff solver roots.
    """
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"key_fraction needs e in [0, 0.5], got {e}")
    if params is None:
        params = EcPaParams()
    tau = _MODELS[params.model](e, params)
    return max(tau, 0.0) if clamp else tau


def key_fraction_cutoff(params: Optional[EcPaParams] = None) -> float:
    """Error rate at which the key fraction hits zero.

    The unclamped expression is positive at e = 0 and strictly negative by
    e = 0.25, so the root is bracketed; bisection to 1e-12.
    """
    if params is None:
        params = EcPaParams()
    f = lambda e: key_fraction(e, params, clamp=False)
    lo, hi = 1e-12, 0.25
    if f(lo) <= 0.0 or f(hi) >= 0.0:
        raise ValueError("key fraction does not change sign on (0, 0.25)")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def snr_cutoff(params: Optional[EcPaParams] = None) -> float:
    """Minimum SNR for a nonzero key fraction: S* = 1/(2 e*) - 1."""
    e_star = key_fraction_cutoff(params)
    return 0.5 / e_star - 1.0


def normalized_throughput(s: float, params: Optional[EcPaParams] = None) -> float:
    """Key bits per detected slot for a receiver seeing SNR s."""
    return key_fraction(qber_from_snr(s), params)


@dataclass(frozen=True)
class ThroughputPoint:
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

    Each grid point rescales the configured chain to distance alpha_x/alpha
    with optimally placed relays, as config.at_alpha_x does, so a config
    with explicit positions is rejected. The SNR comes from snr_exact, and
    the key fraction is evaluated at its bit error rate.
    """
    config.at_alpha_x(0.0)     # rejects explicit positions
    if params is None:
        params = EcPaParams()
    scale = config.eta ** config.n_relays
    points = []
    for ax in alpha_x_values:
        s = snr_exact(ax, config.n_relays, config.eta, config.p_dark)
        q_b = qber_from_snr(s)
        t_n = key_fraction(q_b, params)
        points.append(ThroughputPoint(alpha_x=ax, s=s, q_b=q_b,
                                      t_n=t_n, t_n_scaled=scale * t_n))
    return points


def cutoff_alpha_x(config: ChainConfig, params: Optional[EcPaParams] = None,
                   hi: float = 200.0) -> float:
    """Attenuation length at which the chain's key fraction reaches zero.

    Bisects snr_exact, the chain rescaled as in throughput_curve, against the
    cutoff SNR; the chain SNR is strictly decreasing in distance for fixed N
    with optimal placement. Without dark counts (p_dark = 0) no noise reaches
    the receiver, the SNR is infinite at every length, and the cutoff is
    math.inf.
    """
    if config.p_dark == 0.0:
        return math.inf
    config.at_alpha_x(0.0)     # rejects explicit positions
    if params is None:
        params = EcPaParams()
    s_star = snr_cutoff(params)

    def s_at(ax: float) -> float:
        return snr_exact(ax, config.n_relays, config.eta, config.p_dark)

    if s_at(0.0) <= s_star:
        return 0.0
    if s_at(hi) >= s_star:
        raise ValueError(f"key fraction still positive at alpha_x = {hi}")
    lo_ax, hi_ax = 0.0, hi
    while hi_ax - lo_ax > 1e-9:
        mid = 0.5 * (lo_ax + hi_ax)
        if s_at(mid) > s_star:
            lo_ax = mid
        else:
            hi_ax = mid
    return 0.5 * (lo_ax + hi_ax)
