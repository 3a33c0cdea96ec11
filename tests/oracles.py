"""Independent brute-force references the tests compare the package against.

Nothing here reuses the package's evolution code paths: transforms are applied
via matrix permanents over dense occupation enumerations, a detection pattern
is projected one pattern at a time, chains one event rule at a time on a
plain 4-tuple slot state, and relay placements are searched by a coordinate
descent over scipy's bounded line search. The chain's SNR at the optimal
placement, and the noise of any placement, are also evaluated in 60-digit
decimal arithmetic from the product form, where no double underflows. The
small readers at the end look up one amplitude of a state, take the
overlap and fidelity of two states, and read a written report back; after
them come the helpers several test files share: seeded random qubits, a
log-uniform float strategy and a fresh-interpreter runner.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

import qrelay
from qrelay.fockspace import PhotonicState


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


def measure_pattern(state, measured_modes, pattern):
    """Project onto one photon-count pattern {mode: count} over the measured
    modes; a measured mode absent from the pattern holds zero photons.

    Returns (probability, conditional), the conditional with the measured
    modes emptied, or the zero state where the probability vanishes. The
    reference for enumerate_outcomes, which groups every pattern in one pass
    and must give each pattern's triple bit for bit.
    """
    basis = state.basis
    idxs = sorted(basis.mode_index(m) for m in measured_modes)
    want = {basis.mode_index(m): n for m, n in pattern.items()}
    kept = {}
    prob = 0.0
    for cfg, amp in state.amps.items():
        if all(cfg[i] == want.get(i, 0) for i in idxs):
            prob += abs(amp) ** 2
            reduced = tuple(0 if i in idxs else n for i, n in enumerate(cfg))
            kept[reduced] = kept.get(reduced, 0j) + amp
    if prob == 0.0:
        return 0.0, PhotonicState(basis, {})
    r = math.sqrt(prob)
    return prob, PhotonicState(basis, {c: a / r for c, a in kept.items()})


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

    The relays sit at the explicit positions, else at the analytic optimum;
    segments alternate with relays, and the receiver reads the last state.
    """
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


def decimal_first_order_snr(alpha_x, n_relays, eta, p_dark, digits=60):
    """S_1 = eta^(N/(N+1)) e^(-alpha x/(N+1))/(2 p_dark (N+1)), a Decimal
    (Infinity at p_dark = 0), from the float arguments' exact values."""
    if p_dark == 0.0:
        return Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = digits
        m = n_relays + 1
        return (((Decimal(eta).ln() * n_relays - Decimal(alpha_x)) / m).exp()
                / (2 * Decimal(p_dark) * m))


def decimal_rel_dev_reference(alpha_x, n_relays, eta, p_dark, digits=60):
    """rel_dev = |S/S_1 - 1| at the optimal placement, as a Decimal.

    In the interior (alpha x > ln(1/eta), or N = 0), S/S_1 = (N+1) u/
    ((1 + u)^(N+1) - 1) with u = (2 p_dark/eta) e^((alpha x + ln eta)/(N+1))
    taken in Decimal: (1 + u)^(N+1) - 1 cancels |log10 u| digits and the
    ratio's difference from 1 as many again, so 2 |log10 u| are added to
    the working precision. 60 digits of decimal_snr_reference alone read
    S/S_1 - 1 = 1e-60 at p_dark = 1e-300, where it is 4.1e-300. Clamped,
    S_1 is the interior formula at another placement, and the two SNRs are
    taken to as many extra digits as p_dark has leading zeros.
    """
    if p_dark == 0.0 or n_relays == 0:     # N = 0: S = 1/u = S_1 exactly
        return Decimal(0)
    m = n_relays + 1
    log10_u = (math.log(2.0 * p_dark / eta)
               + (alpha_x + math.log(eta)) / m) / math.log(10.0)
    prec = digits + 2 * max(0, math.ceil(-log10_u))
    with localcontext() as ctx:
        ctx.prec = prec
        ax, delta = Decimal(alpha_x), -Decimal(eta).ln()
        if ax <= delta:
            ratio = (decimal_snr_reference(alpha_x, n_relays, eta, p_dark, prec)
                     / decimal_first_order_snr(alpha_x, n_relays, eta, p_dark,
                                               prec))
        else:
            u = 2 * Decimal(p_dark) / Decimal(eta) * ((ax - delta) / m).exp()
            ratio = m * u / ((1 + u) ** m - 1)
        dev = abs(ratio - 1)
    with localcontext() as ctx:
        ctx.prec = digits
        return +dev


def clamped_rel_dev_allowance(alpha_x, n_relays, eta, p_dark, bound):
    """(want, allowed): decimal_rel_dev_reference on the clamped branch
    (alpha x <= ln(1/eta)) and the error allowed a float evaluation of it.

    A float d = alpha x + ln eta carries an absolute error of up to
    |ln eta| epsilons from the rounding of ln eta, which moves rel_dev by
    what no evaluation from that d can take back: near the clamp edge,
    where rel_dev is about N d^2/(2 (N+1)^2), a relative 2 |ln eta|/|d|
    epsilons. allowed is bound epsilons of want, plus how far the reference
    moves when alpha x moves by bound such errors, plus one step of the
    subnormal grid.
    """
    want = decimal_rel_dev_reference(alpha_x, n_relays, eta, p_dark)
    step = bound * sys.float_info.epsilon * -math.log(eta)
    moved = decimal_rel_dev_reference(
        alpha_x - step if alpha_x >= step else alpha_x + step, n_relays, eta,
        p_dark)
    return want, (Decimal(bound * sys.float_info.epsilon) * want
                  + abs(moved - want) + Decimal(math.ulp(0.0)))


def inverse_conditioning(alpha_x, s_target, n_relays, eta, p_dark):
    """How far, in epsilons, a float alpha x at which the optimal chain's S
    equals s_target may sit from the exact one, per rounding.

    The inverse adds logs of size up to alpha x + N ln(1/eta) +
    (N+1) ln(1/(2 p_dark)), each rounded once, and alpha x moves by
    K* (1 + x)/x when K* = ln(1 + 1/s_target) moves by one part in K*:
    dK/d(alpha x) = x/(1 + x), with x = u = 2 p_dark e^((alpha x -
    N ln eta)/(N+1)) in the interior and 2 p_dark e^(alpha x) on the
    clamped branch. 1/x is capped below the double range, and K* is
    -ln(s_target) where 1/s_target overflows.
    """
    m, ln_eta, ln_pd2 = n_relays + 1, math.log(eta), math.log(2.0 * p_dark)
    y = (alpha_x if n_relays and alpha_x <= -ln_eta
         else (alpha_x - n_relays * ln_eta) / m)
    inv = 1.0 / s_target
    k_star = math.log1p(inv) if inv < math.inf else -math.log(s_target)
    return (alpha_x - n_relays * ln_eta - m * ln_pd2
            + k_star * (1.0 + math.exp(min(-(ln_pd2 + y), 700.0))))


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


def _decimal_log1p(x):
    """ln(1 + x) of a Decimal x >= 0 to the context's relative precision."""
    if x >= Decimal("1e-3"):
        return (1 + x).ln()
    total, power, k = Decimal(0), x, 1
    while total + power / k != total:   # x - x^2/2 + x^3/3 - ...
        total += power / k
        power *= -x
        k += 1
    return total


def _decimal_expm1(k):
    """e^k - 1 of a Decimal k >= 0 to the context's relative precision."""
    if k >= Decimal("1e-3"):
        return k.exp() - 1
    total, term, i = Decimal(0), k, 1
    while total + term != total:        # k + k^2/2! + k^3/3! + ...
        total += term
        i += 1
        term *= k / i
    return total


# Past this attenuation length a segment's e^y nears the default Decimal
# context's range (e^(2.3e6) is 10^999,999); beyond it e^-y is below
# 10^-430,000, far under any working precision
_DECIMAL_EXP_MAX = 10**6


def _decimal_log1p_exp(c, ln_c, y):
    """ln(1 + c e^y) of Decimals c > 0 and y >= 0, to the context's relative
    precision: log1p of c e^y, or ln c + y where e^y would pass the range
    (with c >= 2 p_dark >= 4.4e-308, 1 is then below 10^-430,000 of c e^y)."""
    if y < _DECIMAL_EXP_MAX:
        return _decimal_log1p(c * y.exp())
    return ln_c + y


def _decimal_log_expm1(k):
    """ln(e^k - 1) of a Decimal k >= 0 (-Infinity at 0), to the context's
    relative precision, with no e^k past the range: k itself there, as
    ln(1 - e^-k) is below 10^-430,000."""
    return _decimal_expm1(k).ln() if k < _DECIMAL_EXP_MAX else k


def _decimal_noise_exponent(config, positions_km):
    """K = sum_j ln(1 + c_j e^(y_j)) at the given positions, a Decimal to the
    context's precision, 0 without dark counts: y_j = alpha dx_j over the
    exact differences of the float positions, c_j = 2 p_dark/eta at a relay
    and 2 p_dark at the receiver, each ln c_j taken once."""
    pd2 = 2 * Decimal(config.p_dark)
    if not pd2:
        return Decimal(0)
    c_relay = pd2 / Decimal(config.eta)
    relay, last = (c_relay, c_relay.ln()), (pd2, pd2.ln())
    pts = [Decimal(0), *map(Decimal, positions_km),
           Decimal(config.distance_km)]
    return sum(_decimal_log1p_exp(*(relay if j < config.n_relays else last),
                                  Decimal(config.atten_per_km) * (b - a))
               for j, (a, b) in enumerate(zip(pts, pts[1:])))


def decimal_noise_excess(config, positions_km, digits=40):
    """p_n/p_s = prod_j (1 + c_j/t_j) - 1 at the given positions, a Decimal.

    The quantity decimal_noise_ratio gives minus 1, taken as expm1 of the
    sum of log1p(c_j/t_j), each by its series where small, so that it keeps
    `digits` relative digits however small 2 p_dark is: the product form
    needs as many extra digits as 2 p_dark has leading zeros, in every
    segment's exp (about 1.8 s at N = 1000 and p_dark = 1e-300).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        return _decimal_expm1(_decimal_noise_exponent(config, positions_km))


def decimal_log_noise(config, positions_km, digits=40):
    """ln p_n = N ln eta - alpha x + ln(p_n/p_s) at the given positions, a
    Decimal to `digits` places after the point, from the float arguments'
    exact values, with ln(p_n/p_s) = ln(e^K - 1) of the noise exponent K,
    neither e^y nor e^K taken past Decimal's range. The two terms cancel
    where the noise outweighs the signal, so the working precision adds the
    integer digits of ln p_s; -Infinity without dark counts.
    """
    size = abs(config.n_relays * math.log(config.eta) - config.alpha_x)
    with localcontext() as ctx:
        ctx.prec = digits + len(f"{size:.0f}")
        log_p_s = (config.n_relays * Decimal(config.eta).ln()
                   - Decimal(config.atten_per_km) * Decimal(config.distance_km))
        return log_p_s + _decimal_log_expm1(
            _decimal_noise_exponent(config, positions_km))


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


def occupation(basis, occupations) -> tuple:
    """The occupation tuple of {mode: count}, every other mode empty."""
    cfg = [0] * basis.size
    for mode, n in occupations.items():
        cfg[basis.mode_index(mode)] = n
    return tuple(cfg)


def amplitude(state, occupations) -> complex:
    """The state's amplitude on the configuration {mode: count}."""
    return state.amps.get(occupation(state.basis, occupations), 0j)


def overlap(bra, ket) -> complex:
    """<bra|ket> of two states on one basis, summed over the smaller
    state's configurations."""
    if bra.basis != ket.basis:
        raise ValueError("states live on different bases")
    small, big = (bra.amps, ket.amps) if len(bra.amps) < len(ket.amps) \
        else (ket.amps, bra.amps)
    acc = 0j
    for cfg, a in small.items():
        b = big.get(cfg)
        if b is not None:
            # conjugating bra's amplitude
            if small is bra.amps:
                acc += a.conjugate() * b
            else:
                acc += b.conjugate() * a
    return acc


def fidelity(bra, ket) -> float:
    """|<bra|ket>|^2 for normalized states."""
    return abs(overlap(bra, ket)) ** 2


class Table(NamedTuple):
    """A table's labels, rows and metadata: read_report returns one, and
    the renderers take one as they take the command line's tables."""
    columns: tuple
    rows: tuple
    metadata: dict


def read_report(path) -> Table:
    """A table report as render_csv or render_json wrote it, read back,
    every value (spelled "nan"/"inf" in either format) as a float."""
    text = Path(path).read_text()
    if text.startswith("{"):
        payload = json.loads(text)
        columns, rows, metadata = (payload["columns"], payload["rows"],
                                   payload["metadata"])
    else:
        meta, header, *lines = text.splitlines()
        columns, rows, metadata = (header.split(","),
                                   [r.split(",") for r in lines],
                                   json.loads(meta[len("# "):]))
    return Table(tuple(columns), tuple(tuple(map(float, r)) for r in rows),
                 metadata)


def column(report, name) -> list:
    """One named column of a table read back by read_report."""
    i = report.columns.index(name)
    return [row[i] for row in report.rows]


def random_qubits(n, seed):
    """n unnormalized qubits (alpha, beta), each part standard normal."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.standard_normal(4)
        out.append((complex(v[0], v[1]), complex(v[2], v[3])))
    return out


def log_uniform(lo, hi):
    """Floats in [lo, hi] drawn uniform in their log."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _package_env() -> dict:
    """This environment, with this package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrelay.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fresh_python(code: str, *args: str, no_site: bool = False) -> str:
    """Run code in a new interpreter that imports this package, with -S
    where no_site (without site's start-up hooks, which are the machine's
    and may load anything); its stdout. A failed run raises."""
    flags = ["-S"] if no_site else []
    return subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True, env=_package_env(),
                          check=True, timeout=120).stdout


def limited_cli(*argv: str, limit_mb: int = 768):
    """Run `python -m qrelay.cli argv` in a new interpreter whose address
    space (RLIMIT_AS) is capped at limit_mb, so that a launch that
    allocates without bound fails there with MemoryError, exit 1, rather
    than taking the machine's memory; its CompletedProcess."""
    import resource

    cap = limit_mb << 20
    return subprocess.run(
        [sys.executable, "-m", "qrelay.cli", *argv], capture_output=True,
        text=True, env=_package_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
