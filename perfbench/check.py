"""Independent output checker for the benchmark's `qrelay` launches.

Standard library only; it never imports `qrelay`. Exact chain statistics are
recomputed from the two-product closed form of the four-event slot model,
with the documented optimal-placement pattern:

    alive after relay k    P_k = prod_{j<=k} (eta t_j + 2 p_d)
    signal after relay k   S_k = prod_{j<=k} eta t_j
    spurious after relay k R_k = eta t_k R_{k-1} + 2 p_d P_{k-1}
    at the receiver        p_s = S_N t_{N+1},  p_n = t_{N+1} R_N + 2 p_d P_N

Every compared number must match within ``TOL`` (1e-9) as a relative error,
or as an absolute one for quantities that live in [0, 1] and may be near zero
(key fractions, relative deviations, positions in km). The largest deviation
seen is reported, ungated, as ``check.max_rel_err``. Monte Carlo estimates are
gated at six standard errors (an equally rare Poisson tail for small counts).
"""

from __future__ import annotations

import json
import math
import re
from typing import Optional, Sequence

TOL = 1e-9
Z_MAX = 6.0
TAIL_MIN = 1e-9          # one-sided tail probability of a 6-sigma normal

ETA = 0.5
PD = 1e-5
ATTEN = 0.05
F_EC = 1.16
MODEL = "single-photon-bb84"
DEVICE_CHECKS = {"success_probability", "corrected_fidelity",
                 "outcome_probabilities", "feed_forward_table",
                 "vacuum_rejected", "two_photon_rejected", "encoder_branches"}


# ---------------------------------------------------------------- reference

def placement(x: float, n: int, eta: float = ETA,
              atten: float = ATTEN) -> list[float]:
    """Optimal relay pattern: N equal segments, the last longer by ln(1/eta)/alpha."""
    if n == 0:
        return []
    delta = -math.log(eta) / atten
    if x <= delta:
        return [0.0] * n
    d = (x - delta) / (n + 1)
    return [i * d for i in range(1, n + 1)]


def closed_form(x: float, n: int, eta: float = ETA, pd: float = PD,
                atten: float = ATTEN,
                positions: Optional[Sequence[float]] = None
                ) -> tuple[float, float, float]:
    """(p_s, p_n, spurious part of p_n) for a chain of length x km."""
    pos = placement(x, n, eta, atten) if positions is None else positions
    pts = [0.0, *pos, x]
    t = [math.exp(-atten * max(b - a, 0.0)) for a, b in zip(pts, pts[1:])]
    pd2 = 2.0 * pd
    alive, sig, rnd = 1.0, 1.0, 0.0
    for k in range(n):
        rnd = eta * t[k] * rnd + pd2 * alive
        alive *= eta * t[k] + pd2
        sig *= eta * t[k]
    return sig * t[n], t[n] * rnd + pd2 * alive, t[n] * rnd


def snr_qb(p_s: float, p_n: float) -> tuple[float, float]:
    return p_s / p_n, 0.5 * p_n / (p_n + p_s)


def first_order_snr(ax: float, n: int, eta: float = ETA,
                    pd: float = PD) -> float:
    """S_N = (1/(2 p_d)) e^(-ax) (1/(N+1)) eta^(N/(N+1)) e^(ax N/(N+1))."""
    r = n / (n + 1)
    return 0.5 / pd * math.exp(-ax) / (n + 1) * eta ** r * math.exp(ax * r)


def _h(e: float) -> float:
    if e <= 0.0 or e >= 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def key_fraction_raw(e: float, f_ec: float = F_EC) -> float:
    """Single-photon BB84: 1 - f h(e) - log2(1 + 4e - 4e^2), unclamped."""
    return 1.0 - f_ec * _h(e) - math.log2(1.0 + 4.0 * e - 4.0 * e * e)


def snr_star(f_ec: float = F_EC) -> float:
    """Cutoff SNR S* = 1/(2 e*) - 1, with e* the root of the key fraction."""
    lo, hi = 1e-12, 0.25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if key_fraction_raw(mid, f_ec) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 / (0.5 * (lo + hi)) - 1.0


def chain_snr(ax: float, n: int) -> float:
    p_s, p_n, _ = closed_form(ax / ATTEN, n)
    return p_s / p_n


def cutoff_ax(n: int, s_star: float, hi: float = 200.0) -> float:
    if chain_snr(0.0, n) <= s_star:
        return 0.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chain_snr(mid, n) > s_star:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _poisson_tails(k: int, mu: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Poisson(mu), mu > 0."""
    def pmf(i):
        return math.exp(i * math.log(mu) - mu - math.lgamma(i + 1))
    lower = sum(pmf(i) for i in range(k + 1))
    upper = sum(pmf(i) for i in range(k, k + 1000))
    return lower, upper


# ------------------------------------------------------------------ checker

class Result:
    """Outcome of checking one launch: failures and the largest deviation."""

    def __init__(self):
        self.failures: list[str] = []
        self.max_dev = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def expect(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.fail(msg)
        return cond

    def close(self, what: str, got: float, ref: float,
              floor: float = 0.0) -> None:
        """Gate |got - ref| / max(|ref|, floor) at TOL and track the maximum."""
        if not (isinstance(got, (int, float)) and math.isfinite(got)):
            self.fail(f"{what}: non-finite value {got!r} (reference {ref!r})")
            return
        dev = abs(got - ref) / max(abs(ref), floor) if got != ref else 0.0
        self.max_dev = max(self.max_dev, dev)
        if dev > TOL:
            self.fail(f"{what}: got {got!r}, reference {ref!r}, "
                      f"deviation {dev:.3e} > {TOL:g}")

    def z_test(self, what: str, est: float, ref: float, var: float,
               trials: int) -> None:
        """Gate a sampled mean against the reference at Z_MAX sigma."""
        z = (est - ref) / math.sqrt(var / trials)
        mu = ref * trials
        if mu >= 30.0:
            self.expect(abs(z) <= Z_MAX, f"{what}: z = {z:+.3f} beyond "
                        f"{Z_MAX} (sampled {est!r}, exact {ref!r})")
            return
        k = round(est * trials)
        lower, upper = _poisson_tails(k, mu)
        self.expect(min(lower, upper) >= TAIL_MIN,
                    f"{what}: {k} events against mean {mu:.4g}, tail "
                    f"probability {min(lower, upper):.3e} < {TAIL_MIN:g} "
                    f"(z = {z:+.3f})")


def _table_csv(text: str) -> tuple[dict, list[str], list[list[float]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# "):
        raise ValueError("CSV report has no '# ' metadata line")
    meta = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    return meta, columns, rows


def _table_json(text: str) -> tuple[dict, list[str], list[list[float]]]:
    payload = json.loads(text)
    rows = [[float(v) for v in row] for row in payload["rows"]]
    return payload["metadata"], payload["columns"], rows


def _check_table_header(res: Result, meta: dict, columns: list[str],
                        rows: list, command: str, expect: dict,
                        per_n: Sequence[str]) -> bool:
    params = meta.get("parameters", {})
    ns = expect["n_relays"]
    lo, hi, steps = expect["grid"]
    res.expect(meta.get("command") == command,
               f"metadata command {meta.get('command')!r} != {command!r}")
    for key, ref in (("eta", ETA), ("pd", PD), ("atten_per_km", ATTEN),
                     ("n_relays", ns), ("grid", [lo, hi, steps])):
        res.expect(params.get(key) == ref,
                   f"metadata {key} = {params.get(key)!r}, expected {ref!r}")
    want = ["alpha_x"] + [f"{c}_n{n}" for n in ns for c in per_n]
    ok = res.expect(columns == want, f"columns {columns[:6]}... differ from "
                    f"the expected {want[:6]}...")
    return res.expect(len(rows) == steps,
                      f"{len(rows)} rows, expected {steps}") and ok


def _grid_point(res: Result, i: int, ax: float, expect: dict) -> None:
    lo, hi, steps = expect["grid"]
    res.close(f"alpha_x[{i}]", ax, lo + (hi - lo) * i / (steps - 1), floor=1.0)


def check_snr(text: str, expect: dict, res: Result) -> None:
    meta, columns, rows = _table_json(text)
    per_n = ("s_analytic", "s_exact", "q_b", "rel_dev")
    if not _check_table_header(res, meta, columns, rows, "snr", expect, per_n):
        return
    for i, row in enumerate(rows):
        ax = row[0]
        _grid_point(res, i, ax, expect)
        for j, n in enumerate(expect["n_relays"]):
            s_an, s_ex, q_b, rel_dev = row[1 + 4 * j: 5 + 4 * j]
            where = f"row {i} (alpha_x={ax!r}) N={n}"
            s_ref, q_ref = snr_qb(*closed_form(ax / ATTEN, n)[:2])
            an_ref = first_order_snr(ax, n)
            res.close(f"{where} s_exact", s_ex, s_ref)
            res.close(f"{where} q_b", q_b, q_ref)
            res.close(f"{where} s_analytic", s_an, an_ref)
            res.close(f"{where} rel_dev", rel_dev,
                      abs(s_ref - an_ref) / an_ref, floor=1.0)


def check_throughput(text: str, expect: dict, res: Result) -> None:
    meta, columns, rows = _table_csv(text)
    per_n = ("s_exact", "q_b", "t_n", "t_n_scaled")
    if not _check_table_header(res, meta, columns, rows, "throughput",
                               expect, per_n):
        return
    params = meta["parameters"]
    res.expect(params.get("f_ec") == F_EC and params.get("model") == MODEL,
               f"metadata f_ec/model = {params.get('f_ec')!r}/"
               f"{params.get('model')!r}")
    for i, row in enumerate(rows):
        ax = row[0]
        _grid_point(res, i, ax, expect)
        for j, n in enumerate(expect["n_relays"]):
            s_ex, q_b, t_n, t_scaled = row[1 + 4 * j: 5 + 4 * j]
            where = f"row {i} (alpha_x={ax!r}) N={n}"
            s_ref, q_ref = snr_qb(*closed_form(ax / ATTEN, n)[:2])
            res.close(f"{where} s_exact", s_ex, s_ref)
            res.close(f"{where} q_b", q_b, q_ref)
            t_ref = max(key_fraction_raw(q_b), 0.0)
            res.close(f"{where} t_n", t_n, t_ref, floor=1.0)
            res.close(f"{where} t_n_scaled", t_scaled, ETA ** n * t_ref,
                      floor=1.0)
    cutoffs = params.get("cutoff_alpha_x", {})
    s_star = snr_star()
    for n in expect["n_relays"]:
        c = cutoffs.get(str(n))
        if not res.expect(isinstance(c, (int, float)) and math.isfinite(c),
                          f"cutoff_alpha_x[{n}] = {c!r} is not a number"):
            continue
        res.close(f"cutoff_alpha_x[{n}]", c, cutoff_ax(n, s_star), floor=1.0)
        if c == 0.0:
            res.expect(chain_snr(0.0, n) <= s_star,
                       f"cutoff_alpha_x[{n}] = 0 but reference SNR at 0 is "
                       f"{chain_snr(0.0, n)!r} > S* = {s_star!r}")
            continue
        before, after = chain_snr(c - 1e-8, n), chain_snr(c + 1e-8, n)
        res.expect(before > s_star > after,
                   f"cutoff_alpha_x[{n}] = {c!r}: reference SNR "
                   f"{before!r} .. {after!r} does not bracket S* = {s_star!r}")


def check_optimize(text: str, expect: dict, res: Result) -> None:
    rep = json.loads(text)
    x, n = expect["distance_km"], expect["n_relays"]
    cfg = rep["config"]
    for key, ref in (("distance_km", x), ("n_relays", n), ("eta", ETA),
                     ("pd", PD), ("atten_per_km", ATTEN)):
        res.expect(cfg.get(key) == ref,
                   f"config {key} = {cfg.get(key)!r}, expected {ref!r}")
    analytic, numeric = rep["analytic_positions_km"], rep["numeric_positions_km"]
    if not res.expect(len(analytic) == n and len(numeric) == n,
                      f"{len(analytic)}/{len(numeric)} positions for N={n}"):
        return
    for i, (got, ref) in enumerate(zip(analytic, placement(x, n))):
        res.close(f"analytic_positions_km[{i}]", got, ref, floor=1.0)
    res.expect(all(0.0 <= a <= b <= x for a, b in
                   zip([0.0, *numeric], [*numeric, x])),
               f"numeric positions not ordered within [0, {x}]: {numeric}")
    f_an, f_num = rep["noise_analytic"], rep["noise_numeric"]
    res.close("noise_analytic", f_an, closed_form(x, n, positions=analytic)[1])
    res.close("noise_numeric", f_num, closed_form(x, n, positions=numeric)[1])
    res.expect(f_num <= f_an, f"numeric noise {f_num!r} exceeds analytic "
               f"noise {f_an!r}")
    res.expect(rep.get("agree_within_tolerance") is True,
               f"agree_within_tolerance = {rep.get('agree_within_tolerance')!r}")


def check_sample(text: str, expect: dict, res: Result) -> None:
    rep = json.loads(text)
    cfg, exact, sampled = rep["config"], rep["exact"], rep["sampled"]
    n, trials = expect["n_relays"], expect["trials"]
    for key, ref in (("n_relays", n), ("trials", trials),
                     ("seed", expect["seed"]), ("eta", ETA), ("pd", PD),
                     ("atten_per_km", ATTEN)):
        res.expect(cfg.get(key) == ref,
                   f"config {key} = {cfg.get(key)!r}, expected {ref!r}")
    res.close("config alpha_x", cfg["alpha_x"], expect["alpha_x"])
    x = cfg["distance_km"]
    res.close("config distance_km", x, expect["alpha_x"] / ATTEN)
    p_s, p_n, rnd = closed_form(x, n)
    snr, q_b = snr_qb(p_s, p_n)
    for key, ref in (("p_s", p_s), ("p_n", p_n), ("snr", snr), ("q_b", q_b)):
        res.close(f"exact {key}", exact[key], ref)
    counts = sampled["state_counts"]
    res.expect(sum(counts.values()) == trials,
               f"state_counts {counts} do not sum to {trials}")
    res.expect(counts.get("signal") == sampled["signal_count"],
               f"signal_count {sampled['signal_count']} != state_counts "
               f"signal {counts.get('signal')}")
    res.close("sampled p_s", sampled["p_s"], sampled["signal_count"] / trials)
    res.close("sampled p_n", sampled["p_n"], sampled["noise_events"] / trials)
    # per-slot noise count c = spurious photon + receiver dark count, each
    # 0/1: E[c^2] = p_n + 2 P(both)
    var_n = p_n + 2.0 * rnd * 2.0 * PD - p_n * p_n
    res.z_test("sampled p_s", sampled["p_s"], p_s, p_s * (1.0 - p_s), trials)
    res.z_test("sampled p_n", sampled["p_n"], p_n, var_n, trials)


_SUMMARY = re.compile(r"^(PASS|FAIL) verify-circuit \((\d+)/(\d+) checks\)$",
                      re.M)
_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\w+): (.*)$", re.M)


def _device_inputs(detail: str) -> Optional[int]:
    m = re.search(r"over (\d+) inputs", detail)
    return int(m.group(1)) if m else None


def check_verify_stdout(stdout: str, expect: dict, res: Result) -> None:
    m = _SUMMARY.search(stdout)
    if not res.expect(m is not None, "no 'verify-circuit (k/n checks)' line"):
        return
    res.expect(m.group(1) == "PASS" and m.group(2) == m.group(3) == "7",
               f"device summary {m.group(0)!r}, expected PASS 7/7")
    lines = {name: (status, detail) for status, name, detail
             in _CHECK_LINE.findall(stdout)}
    res.expect(set(lines) == DEVICE_CHECKS,
               f"device checks {sorted(lines)} != {sorted(DEVICE_CHECKS)}")
    status = {k: v[0] for k, v in lines.items()}
    res.expect(all(s == "PASS" for s in status.values()),
               f"device check status {status}")
    detail = lines.get("success_probability", ("", ""))[1]
    res.expect(_device_inputs(detail) == expect["trials"] + 4,
               f"success_probability ran over {_device_inputs(detail)} "
               f"inputs, expected {expect['trials'] + 4}")


def check_verify_json(text: str, stdout: str, expect: dict,
                      res: Result) -> None:
    rep = json.loads(text)
    checks = rep.get("checks", [])
    res.expect(rep.get("command") == "verify-circuit",
               f"command {rep.get('command')!r}")
    res.expect(rep.get("ok") is True, f"ok = {rep.get('ok')!r}")
    failed = [c.get("name") for c in checks if c.get("ok") is not True]
    res.expect(len(checks) == 7 and not failed,
               f"{len(checks) - len(failed)}/{len(checks)} device checks "
               f"passed, failing: {failed}")
    res.expect({c.get("name") for c in checks} == DEVICE_CHECKS,
               f"device checks {sorted(c.get('name') for c in checks)}")
    for c in checks:
        if c.get("name") == "success_probability":
            got = _device_inputs(c.get("detail", ""))
            res.expect(got == expect["trials"] + 4, f"success_probability "
                       f"ran over {got} inputs, expected "
                       f"{expect['trials'] + 4}")
    check_verify_stdout(stdout, expect, res)
    m = re.search(r"success probability (\S+)", stdout)
    if res.expect(m is not None, f"no detail for --input {expect['input']}"):
        res.close("input success probability", float(m.group(1)), 0.5)
    outcomes = re.findall(r"p = (\S+), flip = \w+, fidelity = (\S+)", stdout)
    res.expect(len(outcomes) == 4, f"{len(outcomes)} accepted outcomes "
               f"for the input qubit, expected 4")
    for i, (p, fid) in enumerate(outcomes):
        res.close(f"input outcome {i} probability", float(p),
                  0.125)
        res.close(f"input outcome {i} fidelity", float(fid), 1.0)


def check(kind: str, expect: dict, stdout: str,
          output: Optional[str]) -> Result:
    """Check one launch from its stdout and, when it wrote one, its file."""
    res = Result()
    try:
        if kind == "verify_json":
            check_verify_json(output, stdout, expect, res)
        elif kind == "snr_json":
            check_snr(output, expect, res)
        elif kind == "throughput_csv":
            check_throughput(output, expect, res)
        elif kind == "optimize_json":
            check_optimize(output, expect, res)
        elif kind == "sample_json":
            check_sample(output, expect, res)
        else:
            raise ValueError(f"unknown check {kind!r}")
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        res.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return res
