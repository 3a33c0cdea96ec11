"""Secure-key throughput of a relay chain feeding a BB84 receiver.

The key fraction per accepted bit is 1 - f_ec h(e) - log2(1 + 4e - 4e^2) for
single-photon BB84 with error correction working at f_ec times the Shannon
limit, clamped at zero. Normalized throughput multiplies nothing in: it is the
key fraction evaluated at the chain's exact bit error rate, i.e. key bits per
gated-and-detected slot. An alternative normalization per transmitted slot
folds in the relay gating passes (a factor eta per relay); both are reported.
The chain's SNR is the binomial closed form of analytics, and the cutoff
range where the key fraction reaches zero is that form inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .analytics import ChainConfig, _chain_at, qber_from_snr

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

    Each grid point is the chain config.at_alpha_x gives, optimally placed
    (explicit positions are rejected), at snr_exact's SNR and its QBER.
    """
    config.at_alpha_x(0.0)     # rejects explicit positions
    if params is None:
        params = EcPaParams()
    n, eta, p_dark = config.n_relays, config.eta, config.p_dark
    scale = eta ** n
    points = []
    for ax in alpha_x_values:
        s = _chain_at(ax, n, eta, p_dark)[0]
        q_b = qber_from_snr(s)
        t_n = key_fraction(q_b, params)
        points.append(ThroughputPoint(alpha_x=ax, s=s, q_b=q_b,
                                      t_n=t_n, t_n_scaled=scale * t_n))
    return points


def cutoff_alpha_x(config: ChainConfig,
                   params: Optional[EcPaParams] = None) -> float:
    """Attenuation length at which the chain's key fraction reaches zero.

    snr_exact's binomial inverted at K* = log1p(1/S*), S* the cutoff SNR: in
    the interior u* = expm1(K*/(N+1)) is 2 p_dark e^((alpha x - N ln eta)/
    (N+1)), as _chain_at writes u; clamped, (1+c)^N (1 + 2 p_dark e^(alpha x))
    = e^(K*) with c = 2 p_dark/eta. The SNR falls strictly with alpha x, so
    this is its one crossing of S*; 0 when S(0) <= S*, math.inf without dark
    counts (S = inf).
    """
    if config.p_dark == 0.0:
        return math.inf
    config.at_alpha_x(0.0)     # rejects explicit positions
    n, eta, pd2 = config.n_relays, config.eta, 2.0 * config.p_dark
    k_star = math.log1p(1.0 / snr_cutoff(params))
    if _chain_at(0.0, n, eta, config.p_dark)[1] >= k_star:
        return 0.0
    log_pd2, log_eta = math.log(pd2), math.log(eta)
    alpha_x = ((n + 1) * (math.log(math.expm1(k_star / (n + 1))) - log_pd2)
               + n * log_eta)
    if n and alpha_x <= -log_eta:
        # K* > K(0) = N log1p(c) + log1p(2 p_dark), so the log is of > 2 p_dark
        alpha_x = (math.log(math.expm1(k_star - n * math.log1p(pd2 / eta)))
                   - log_pd2)
    return alpha_x
