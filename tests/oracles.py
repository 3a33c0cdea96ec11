"""Independent brute-force references the tests compare the package against.

Nothing here reuses the package's evolution code paths: transforms are applied
via matrix permanents over dense occupation enumerations, chains one event
rule at a time on a plain 4-tuple slot state, and relay placements are
searched by a coordinate descent over scipy's bounded line search. The chain's
SNR at the optimal placement, and the noise of any placement, are also
evaluated in 60-digit decimal arithmetic from the product form, where no
double underflows.
"""

import itertools
import math
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np


def permanent(mat) -> complex:
    """Naive permanent by permutation sum; fine for the <= 4x4 cases here."""
    m = np.asarray(mat, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0j
        for i, j in enumerate(perm):
            p *= m[i, j]
        total += p
    return total


def configs_with_total(n_modes: int, total: int):
    """All occupation tuples of length n_modes summing to exactly total."""
    if n_modes == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in configs_with_total(n_modes - 1, total - c):
            yield (c,) + rest


def configs_up_to(n_modes: int, max_total: int):
    for total in range(max_total + 1):
        yield from configs_with_total(n_modes, total)


def dense_amplitude(matrix, cfg_in, cfg_out) -> complex:
    """<cfg_out| U |cfg_in> for a mode transform with column convention.

    Standard permanent formula: rows of the submatrix repeat per output
    occupation, columns per input occupation, normalized by sqrt of the
    factorial products.
    """
    if sum(cfg_in) != sum(cfg_out):
        return 0j
    rows = [i for i, c in enumerate(cfg_out) for _ in range(c)]
    cols = [j for j, c in enumerate(cfg_in) for _ in range(c)]
    m = np.asarray(matrix, dtype=complex)
    sub = m[np.ix_(rows, cols)]
    norm = math.sqrt(math.prod(math.factorial(c) for c in cfg_in)
                     * math.prod(math.factorial(c) for c in cfg_out))
    return permanent(sub) / norm


def dense_apply(matrix, amps: dict) -> dict:
    """Push a config->amplitude map through the transform by brute force."""
    n_modes = len(next(iter(amps)))
    out = {}
    for cfg_in, a in amps.items():
        for cfg_out in configs_with_total(n_modes, sum(cfg_in)):
            w = a * dense_amplitude(matrix, cfg_in, cfg_out)
            if w != 0:
                out[cfg_out] = out.get(cfg_out, 0j) + w
    return {c: a for c, a in out.items() if abs(a) > 1e-300}


def haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


# The chain's event rules on a slot state (p_sig, p_rnd, p_empty, p_nogate):
# the original photon, a spurious one, an empty slot that every relay so far
# has gated, and a vetoed slot. Each rule is one step of the paper's relay.

TRANSMITTED = (1.0, 0.0, 0.0, 0.0)


def propagate_segment(state, alpha_dx):
    """A fiber segment: each photon survives with t = e^(-alpha dx), and a
    lost one leaves the slot empty but gated; gate signals do not fade."""
    sig, rnd, empty, nogate = state
    t = math.exp(-alpha_dx)
    return (t * sig, t * rnd, empty + (1.0 - t) * (sig + rnd), nogate)


def apply_relay(state, eta, p_dark):
    """A relay: a photon gates through with probability eta, and on every
    live slot a false gate (2 p_dark) launches a spurious photon; a slot
    gated neither way is vetoed for good."""
    sig, rnd, empty, nogate = state
    pd2 = 2.0 * p_dark
    alive = sig + rnd + empty
    nogate = nogate + (1.0 - eta - pd2) * (sig + rnd) + (1.0 - pd2) * empty
    # 1 - eta - 2 p_dark rounds to -2.8e-17 at eta = 0.9, p_dark = 0.05
    return (eta * sig, eta * rnd + pd2 * alive, 0.0, max(nogate, 0.0))


def receiver_detect(state, p_dark):
    """(p_s, p_n, snr, q_b) at the receiver: the signal photon clicks, and a
    spurious photon and a dark count (2 p_dark per live slot) each add a
    noise click. nan, nan where nothing can click."""
    sig, rnd, empty, _ = state
    p_n = rnd + 2.0 * p_dark * (sig + rnd + empty)
    if sig + p_n == 0.0:
        return sig, p_n, math.nan, math.nan
    return (sig, p_n, sig / p_n if p_n > 0.0 else math.inf,
            0.5 * p_n / (p_n + sig))


class ChainReference(NamedTuple):
    p_s: float
    p_n: float
    snr: float
    q_b: float
    state: tuple     # the slot state at the receiver input


def markov_chain_reference(config, positions_km=None) -> ChainReference:
    """The chain's receiver statistics, one event rule at a time.

    The relays sit at the explicit positions, else the config's, else the
    analytic optimum; segments alternate with relays, and the receiver
    reads the last state.
    """
    if positions_km is None:
        positions_km = config.positions_km
    if positions_km is None:
        from qrelay.analytics import optimal_positions
        positions_km = optimal_positions(config)
    pts = (0.0, *positions_km, config.distance_km)
    state = TRANSMITTED
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        # positions may step back by rounding: no segment < 0
        state = propagate_segment(state, config.atten_per_km * max(b - a, 0.0))
        if i < config.n_relays:
            state = apply_relay(state, config.eta, config.p_dark)
    return ChainReference(*receiver_detect(state, config.p_dark), state)


def decimal_snr_reference(alpha_x, n_relays, eta, p_dark, digits=60):
    """SNR at the optimal placement from the product form, as a Decimal.

    N segments of transmission t = e^(-(alpha x - ln(1/eta))/(N+1)) and a
    last one of eta t, or every relay at the transmitter (t = 1) when
    alpha x <= ln(1/eta). With e^L = prod (1 + 2 p_dark/(eta t_j)) and S_N
    cancelled, S = t_last / (t_last (e^L - 1) + 2 p_dark e^L). The float
    arguments are taken at their exact values; p_dark = 0 gives Infinity.
    e^L - 1 cancels about as many digits as 2 p_dark/(eta t) >= 2 p_dark has
    leading zeros, so those are added to the working precision.
    """
    ax, eta, pd2 = Decimal(alpha_x), Decimal(eta), 2 * Decimal(p_dark)
    if pd2 == 0:
        return Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = digits + max(0, -pd2.adjusted())
        delta = -eta.ln()
        if n_relays == 0 or ax <= delta:
            t, t_last = Decimal(1), (-ax).exp()
        else:
            t = (-(ax - delta) / (n_relays + 1)).exp()
            t_last = eta * t
        e_l = (1 + pd2 / (eta * t)) ** n_relays
        s = t_last / (t_last * (e_l - 1) + pd2 * e_l)
    with localcontext() as ctx:
        ctx.prec = digits
        return +s


def decimal_noise_ratio(config, positions_km, digits=60):
    """1 + p_n/p_s = prod_j (1 + c_j/t_j) at the given positions, a Decimal.

    t_j = e^(-alpha dx_j) over the exact differences of the float positions,
    c_j = 2 p_dark/eta at a relay and 2 p_dark at the receiver. p_s does not
    depend on the positions, so this orders placements as p_n does, with no
    rounding of the segment terms.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        pd2 = 2 * Decimal(config.p_dark)
        c_relay = pd2 / Decimal(config.eta)
        pts = [Decimal(0), *map(Decimal, positions_km),
               Decimal(config.distance_km)]
        ratio = Decimal(1)
        for j, (a, b) in enumerate(zip(pts, pts[1:])):
            c = c_relay if j < config.n_relays else pd2
            ratio *= 1 + c * (Decimal(config.atten_per_km) * (b - a)).exp()
        return ratio


def coordinate_descent(config, objective, x0=None, obj_tol=1e-10,
                       max_sweeps=500):
    """Minimize objective(positions) by coordinate descent over the relays.

    Each sweep line-searches every position inside the interval pinned by
    its neighbours with scipy's bounded minimize_scalar, and keeps a move
    only if it lowers the objective. Stops when a sweep improves it by less
    than obj_tol relative, or after max_sweeps; returns the best positions.
    Starts from x0, else from the analytic placement.
    """
    from scipy.optimize import minimize_scalar

    from qrelay.analytics import optimal_positions

    n, x = config.n_relays, config.distance_km
    pos = list(optimal_positions(config) if x0 is None else x0)
    best = objective(pos)
    xatol = max(1e-13, 1e-12 * x)
    for _sweep in range(max_sweeps):
        previous = best
        for i in range(n):
            lo = pos[i - 1] if i > 0 else 0.0
            hi = pos[i + 1] if i < n - 1 else x
            if hi - lo <= 2 * xatol:
                continue
            res = minimize_scalar(
                lambda v: objective(pos[:i] + [v] + pos[i + 1:]),
                bounds=(lo, hi), method="bounded", options={"xatol": xatol})
            if res.fun < best:
                pos[i] = float(res.x)
                best = float(res.fun)
        if previous - best <= obj_tol * abs(best):
            break
    return tuple(pos)
