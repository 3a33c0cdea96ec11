"""Independent brute-force references the tests compare the package against.

Nothing here reuses the package's evolution code paths: transforms are applied
via matrix permanents over dense occupation enumerations, chains via explicit
4x4 stochastic transfer matrices, and relay placements are searched by a
coordinate descent over scipy's bounded line search.
"""

import itertools
import math

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


# 4x4 transfer-matrix chain reference; state vector order matches
# (p_sig, p_rnd, p_empty, p_nogate)

def _segment_matrix(alpha_x: float) -> np.ndarray:
    t = math.exp(-alpha_x)
    return np.array([
        [t, 0.0, 0.0, 0.0],
        [0.0, t, 0.0, 0.0],
        [1.0 - t, 1.0 - t, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _relay_matrix(eta: float, p_dark: float) -> np.ndarray:
    pd2 = 2.0 * p_dark
    return np.array([
        [eta, 0.0, 0.0, 0.0],
        [pd2, eta + pd2, pd2, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0 - eta - pd2, 1.0 - eta - pd2, 1.0 - pd2, 1.0],
    ])


def markov_chain_reference(distance_km, atten_per_km, eta, p_dark,
                           positions_km) -> dict:
    """Receiver p_s/p_n by explicit stochastic matrix products."""
    pts = [0.0] + list(positions_km) + [distance_km]
    v = np.array([1.0, 0.0, 0.0, 0.0])
    for i in range(len(pts) - 1):
        v = _segment_matrix(atten_per_km * (pts[i + 1] - pts[i])) @ v
        if i < len(positions_km):
            v = _relay_matrix(eta, p_dark) @ v
    p_s = v[0]
    alive = v[0] + v[1] + v[2]
    p_n = v[1] + 2.0 * p_dark * alive
    return {"p_s": float(p_s), "p_n": float(p_n), "state": v}


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
