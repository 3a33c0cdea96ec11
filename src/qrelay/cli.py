"""Command-line interface: circuit verification, sweeps, placement, sampling.

Subcommands: verify-circuit, snr, optimize, throughput, sample. Parameters
come from built-in defaults, then an optional JSON config file (--config),
then explicit flags, in increasing precedence. Every command is deterministic
for a fixed flag set (including --seed); reports carry their full parameter
provenance and never embed timestamps.

Exit codes: 0 success, 1 invariant/contract failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analytics import (ChainConfig, optimal_positions, qber_from_snr,
                        snr_exact, snr_n_relays)
from .chain import chain_noise, run_chain, sample_chain, search_positions
from .errors import ContractViolationError
from .reports import (CurveReport, render_csv, render_json, write_csv,
                      write_json, write_payload)
from .throughput import EcPaParams, cutoff_alpha_x, throughput_curve

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2

_DEFAULTS = {
    "pd": 1e-5,
    "eta": 0.5,
    "atten_per_km": 0.05,
    "alpha_x_min": 0.0,
    "alpha_x_max": 40.0,
    "steps": 100,
    "f_ec": 1.16,
    "format": "csv",
}

_CONFIG_KEYS = {
    "pd", "eta", "atten_per_km", "n_relays", "distance_km", "alpha_x",
    "alpha_x_min", "alpha_x_max", "steps", "seed", "trials", "chunk_size",
    "f_ec", "format", "output", "input", "diagnostic",
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object of key/value "
                         f"pairs")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}; "
                         f"known keys: {sorted(_CONFIG_KEYS)}")
    return data


class _Params:
    """Layered parameter lookup: flags over config file over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _load_config_file(args.config) if args.config else {}

    def get(self, key: str, default=None):
        v = getattr(self.args, key, None)
        if v is not None:
            return v
        if key in self.file:
            return self.file[key]
        if key in _DEFAULTS:
            return _DEFAULTS[key]
        return default

    def require(self, key: str, flag: str):
        v = self.get(key)
        if v is None:
            raise ValueError(f"{flag} is required for this command")
        return v


def _parse_n_list(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [t for t in str(value).replace(",", " ").split() if t]
    out = []
    for item in items:
        n = int(item)
        if n < 0:
            raise ValueError(f"n_relays entries must be >= 0, got {n}")
        out.append(n)
    if not out:
        raise ValueError("n_relays list is empty")
    return out


def _single_n(params: _Params, default: Optional[int] = None) -> int:
    v = params.get("n_relays", default)
    if v is None:
        raise ValueError("--n-relays is required for this command")
    ns = _parse_n_list(v)
    if len(ns) != 1:
        raise ValueError(f"this command takes a single relay count, got {ns}")
    return ns[0]


def _grid(params: _Params) -> list[float]:
    ax = params.get("alpha_x")
    if ax is not None:
        ax = float(ax)
        if not math.isfinite(ax) or ax < 0:
            raise ValueError(f"alpha_x must be finite and >= 0, got {ax}")
        return [ax]
    lo = float(params.get("alpha_x_min"))
    hi = float(params.get("alpha_x_max"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"alpha_x range must be finite, got [{lo}, {hi}]")
    steps = int(params.get("steps"))
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not lo < hi:
        raise ValueError(f"alpha_x_min must be < alpha_x_max, got [{lo}, {hi}]")
    if lo < 0:
        raise ValueError(f"alpha_x_min must be >= 0, got {lo}")
    # np.linspace's points: a step that underflows to 0 is scaled last
    step = (hi - lo) / (steps - 1)
    return [lo + (i * step if step else i / (steps - 1) * (hi - lo))
            for i in range(steps - 1)] + [hi]


def _channel(params: _Params) -> tuple[float, float, float]:
    eta = float(params.get("eta"))
    pd = float(params.get("pd"))
    atten = float(params.get("atten_per_km"))
    ChainConfig(distance_km=0.0, atten_per_km=atten, eta=eta, p_dark=pd)
    return eta, pd, atten


def _metadata(command: str, params: dict) -> dict:
    return {"artifact": f"qrelay {__version__}", "command": command,
            "parameters": params}


def _emit_report(report: CurveReport, params: _Params) -> None:
    fmt = str(params.get("format"))
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    output = params.get("output")
    if output:
        (write_csv if fmt == "csv" else write_json)(report, output)
        print(f"wrote {output}")
    else:
        text = render_csv(report) if fmt == "csv" else render_json(report)
        sys.stdout.write(text)


def cmd_snr(args: argparse.Namespace) -> int:
    """Sweep analytic and exact SNR over attenuation length for each N."""
    params = _Params(args)
    eta, pd, atten = _channel(params)
    ns = _parse_n_list(params.get("n_relays", "0,1,2,4,8,16"))
    grid = _grid(params)
    columns = ["alpha_x"]
    for n in ns:
        columns += [f"s_analytic_n{n}", f"s_exact_n{n}", f"q_b_n{n}",
                    f"rel_dev_n{n}"]
    rows = []
    for ax in grid:
        row = [ax]
        for n in ns:
            s_an = snr_n_relays(ax, n, eta, pd)
            s_ex = snr_exact(ax, n, eta, pd)
            dev = abs(s_ex - s_an) / s_an if s_an > 0 else math.nan
            row += [s_an, s_ex, qber_from_snr(s_ex), dev]
        rows.append(tuple(row))
    meta = _metadata("snr", {
        "eta": eta, "pd": pd, "atten_per_km": atten, "n_relays": ns,
        "grid": [grid[0], grid[-1], len(grid)]})
    _emit_report(CurveReport(tuple(columns), tuple(rows), meta), params)
    return EXIT_OK


def cmd_throughput(args: argparse.Namespace) -> int:
    """Sweep normalized throughput over attenuation length for each N."""
    params = _Params(args)
    eta, pd, atten = _channel(params)
    ns = _parse_n_list(params.get("n_relays", "0,1,2,3"))
    grid = _grid(params)
    ec = EcPaParams(f_ec=float(params.get("f_ec")))
    configs = [ChainConfig(distance_km=0.0, atten_per_km=atten, n_relays=n,
                           eta=eta, p_dark=pd) for n in ns]
    columns = ["alpha_x"]
    for n in ns:
        columns += [f"s_exact_n{n}", f"q_b_n{n}", f"t_n_n{n}",
                    f"t_n_scaled_n{n}"]
    curves = [throughput_curve(cfg, grid, ec) for cfg in configs]
    rows = []
    for j, ax in enumerate(grid):
        row = [ax]
        for curve in curves:
            p = curve[j]
            row += [p.s, p.q_b, p.t_n, p.t_n_scaled]
        rows.append(tuple(row))
    # an unbounded cutoff (no dark counts) is spelled as table values are
    cutoffs = {str(cfg.n_relays): cutoff_alpha_x(cfg, ec) for cfg in configs}
    cutoffs = {n: c if math.isfinite(c) else "inf" for n, c in cutoffs.items()}
    meta = _metadata("throughput", {
        "eta": eta, "pd": pd, "atten_per_km": atten, "n_relays": ns,
        "f_ec": ec.f_ec, "model": ec.model,
        "grid": [grid[0], grid[-1], len(grid)],
        "cutoff_alpha_x": cutoffs})
    _emit_report(CurveReport(tuple(columns), tuple(rows), meta), params)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    """Compare closed-form relay placement with a numeric search."""
    params = _Params(args)
    eta, pd, atten = _channel(params)
    n = _single_n(params)
    if n < 1:
        raise ValueError("optimize needs n_relays >= 1")
    x = float(params.require("distance_km", "--distance-km"))
    config = ChainConfig(distance_km=x, atten_per_km=atten, n_relays=n,
                         eta=eta, p_dark=pd)
    analytic = optimal_positions(config)
    numeric = search_positions(config)
    f_analytic = chain_noise(config, analytic)
    f_numeric = chain_noise(config, numeric)
    tol = 1e-6 * max(1.0, x)
    agree = all(abs(a - b) <= tol for a, b in zip(analytic, numeric))
    print(f"chain: x = {x} km, alpha = {atten} /km, N = {n}, "
          f"eta = {eta}, p_dark = {pd}")
    print("analytic positions_km: "
          + " ".join(f"{p:.6f}" for p in analytic))
    print("numeric  positions_km: "
          + " ".join(f"{p:.6f}" for p in numeric))
    print(f"noise objective: analytic = {f_analytic:.12e}, "
          f"numeric = {f_numeric:.12e}")
    if not agree:
        print(f"WARNING: placements disagree beyond {tol:g} km")
    output = params.get("output")
    if output:
        payload = {
            "config": {"distance_km": x, "atten_per_km": atten,
                       "n_relays": n, "eta": eta, "pd": pd},
            "analytic_positions_km": list(analytic),
            "numeric_positions_km": list(numeric),
            "noise_analytic": f_analytic,
            "noise_numeric": f_numeric,
            "agree_within_tolerance": agree,
        }
        write_payload(payload, output)
        print(f"wrote {output}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    """Monte Carlo the chain and print the estimate beside the exact value."""
    params = _Params(args)
    eta, pd, atten = _channel(params)
    n = _single_n(params, default=0)
    trials = int(params.require("trials", "--trials"))
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    seed = int(params.require("seed", "--seed"))
    ax = params.get("alpha_x")
    x = params.get("distance_km")
    if ax is not None and x is not None:
        raise ValueError("give either --alpha-x or --distance-km, not both")
    if ax is not None:
        x = float(ax) / atten
    elif x is None:
        raise ValueError("--alpha-x or --distance-km is required")
    config = ChainConfig(distance_km=float(x), atten_per_km=atten, n_relays=n,
                         eta=eta, p_dark=pd)
    chunk = int(params.get("chunk_size", 1_000_000))
    exact = run_chain(config)
    sampled = sample_chain(config, trials, seed, chunk_size=chunk)
    print(f"chain: alpha_x = {config.alpha_x:.6f}, N = {n}, eta = {eta}, "
          f"p_dark = {pd}, trials = {trials}, seed = {seed}")
    print(f"exact    p_s = {exact.p_s:.9e}    p_n = {exact.p_n:.9e}")
    print(f"sampled  p_s = {sampled.p_s:.9e} +- {sampled.stderr_p_s:.3e}"
          f"    p_n = {sampled.p_n:.9e} +- {sampled.stderr_p_n:.3e}")
    for name, est, ref, err in (("p_s", sampled.p_s, exact.p_s,
                                 sampled.stderr_p_s),
                                ("p_n", sampled.p_n, exact.p_n,
                                 sampled.stderr_p_n)):
        z = (est - ref) / err if err > 0 else math.nan
        print(f"z({name}) = {z:+.3f}")
    print("slot states: " + " ".join(f"{k}={v}"
                                     for k, v in sampled.state_counts.items()))
    output = params.get("output")
    if output:
        payload = {
            "config": {"alpha_x": config.alpha_x, "distance_km": float(x),
                       "atten_per_km": atten, "n_relays": n, "eta": eta,
                       "pd": pd, "trials": trials, "seed": seed,
                       "chunk_size": chunk},
            "exact": {"p_s": exact.p_s, "p_n": exact.p_n,
                      "snr": exact.snr, "q_b": exact.q_b},
            "sampled": {"p_s": sampled.p_s, "p_n": sampled.p_n,
                        "snr": sampled.snr, "q_b": sampled.q_b,
                        "stderr_p_s": sampled.stderr_p_s,
                        "stderr_p_n": sampled.stderr_p_n,
                        "signal_count": sampled.signal_count,
                        "noise_events": sampled.noise_events,
                        "state_counts": sampled.state_counts},
        }
        write_payload(payload, output)
        print(f"wrote {output}")
    return EXIT_OK


def _parse_qubit(text: str) -> tuple[complex, complex]:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--input wants 'alpha,beta', got {text!r}")
    try:
        a, b = complex(parts[0]), complex(parts[1])
    except ValueError as exc:
        raise ValueError(f"--input components must be numbers: {exc}") from exc
    if math.hypot(abs(a), abs(b)) == 0:
        raise ValueError("--input must not be the zero vector")
    return a, b


def cmd_verify_circuit(args: argparse.Namespace) -> int:
    """Run the device invariant suite and report PASS/FAIL per check."""
    from . import circuit

    params = _Params(args)
    trials = int(params.get("trials", 20))
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    seed = int(params.get("seed", 20260815))
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    rng = np.random.default_rng(seed)
    qubits = [(1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)),
              (0.6, 0.8j)]
    while len(qubits) < trials + 4:
        v = rng.standard_normal(4)
        qubits.append((complex(v[0], v[1]), complex(v[2], v[3])))

    worst_succ = 0.0
    worst_fid = 0.0
    for a, b in qubits:
        rep = circuit.qnd_measure(a, b)
        worst_succ = max(worst_succ, abs(rep.success_probability - 0.5))
        for o in rep.outcomes:
            worst_fid = max(worst_fid, abs(o.fidelity - 1.0))
    check("success_probability", worst_succ <= 1e-12,
          f"max |P - 1/2| = {worst_succ:.3e} over {len(qubits)} inputs")
    check("corrected_fidelity", worst_fid <= 1e-12,
          f"max |F - 1| = {worst_fid:.3e} over all accepted outcomes")

    rep = circuit.qnd_measure(1 / math.sqrt(2), 1 / math.sqrt(2))
    probs = sorted(o.probability for o in rep.outcomes)
    check("outcome_probabilities",
          len(probs) == 4 and all(abs(p - 0.125) <= 1e-12 for p in probs),
          f"accepted outcome probabilities {['%.6f' % p for p in probs]}")

    table = circuit.derive_feed_forward_table()
    expected = {("F", "F"): False, ("S", "S"): False,
                ("F", "S"): True, ("S", "F"): True}
    check("feed_forward_table", table == expected,
          f"flip table {sorted(table.items())}")

    p_vac = circuit.vacuum_gate_probability()
    check("vacuum_rejected", p_vac == 0.0, f"vacuum gate probability {p_vac!r}")
    p_two = circuit.multiphoton_gate_probability(2)
    check("two_photon_rejected", p_two == 0.0,
          f"two-photon gate probability {p_two!r}")

    branches = circuit.encoder_postselect(0.6, 0.8)
    bp = sorted(p for _ch, p, _c in branches)
    check("encoder_branches",
          len(bp) == 2 and all(abs(p - 0.25) <= 1e-12 for p in bp),
          f"heralded branch probabilities {['%.6f' % p for p in bp]}")

    if params.get("diagnostic"):
        mode = str(params.get("diagnostic"))
        if mode != "d2-on-mode-1":
            raise ValueError(f"unknown diagnostic {mode!r}; "
                             f"known: d2-on-mode-1")
        p_diag = circuit.vacuum_gate_probability(d2_spatial="1")
        print(f"DIAG diagnostic d2-on-mode-1: vacuum false-gate probability "
              f"= {p_diag:.6f} (nonzero by construction)")

    if params.get("input"):
        a, b = _parse_qubit(str(params.get("input")))
        rep = circuit.qnd_measure(a, b)
        print(f"input qubit ({a}, {b}) normalized; "
              f"success probability {rep.success_probability:.12f}")
        for o in rep.outcomes:
            print(f"  outcome D2={o.channel_d2} Db={o.channel_db}: "
                  f"p = {o.probability:.12f}, flip = {o.flipped}, "
                  f"fidelity = {o.fidelity:.12f}")

    all_ok = all(c["ok"] for c in checks)
    for c in checks:
        print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"{'PASS' if all_ok else 'FAIL'} verify-circuit "
          f"({sum(c['ok'] for c in checks)}/{len(checks)} checks)")
    output = params.get("output")
    if output:
        write_payload({"artifact": f"qrelay {__version__}",
                       "command": "verify-circuit", "ok": all_ok,
                       "checks": checks}, output)
        print(f"wrote {output}")
    return EXIT_OK if all_ok else EXIT_INVARIANT


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH",
                   help="JSON config file; flags override its values")
    p.add_argument("--pd", type=float, help="dark-count probability per "
                   "detector per slot (default 1e-5)")
    p.add_argument("--eta", type=float,
                   help="relay pass efficiency (default 0.5)")
    p.add_argument("--atten-per-km", dest="atten_per_km", type=float,
                   help="fiber attenuation coefficient alpha (default 0.05)")
    p.add_argument("--output", metavar="PATH", help="write the report here "
                   "instead of (or in addition to) stdout")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-x-min", dest="alpha_x_min", type=float,
                   help="grid start (default 0)")
    p.add_argument("--alpha-x-max", dest="alpha_x_max", type=float,
                   help="grid end (default 40)")
    p.add_argument("--steps", type=int, help="grid point count (default 100)")
    p.add_argument("--alpha-x", dest="alpha_x", type=float,
                   help="evaluate a single attenuation length instead of "
                   "a grid")
    p.add_argument("--format", choices=("csv", "json"),
                   help="report format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelay",
        description="Gate-heralded relay chains for single-photon links: "
                    "exact event propagation, closed-form placement and SNR, "
                    "secure-key throughput, and a verified device simulation.")
    parser.add_argument("--version", action="version",
                        version=f"qrelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-circuit",
                       help="run the device invariant suite")
    _add_common(p)
    p.add_argument("--trials", type=int,
                   help="number of random probe qubits (default 20)")
    p.add_argument("--seed", type=int, help="seed for the probe qubits")
    p.add_argument("--input", help="alpha,beta qubit to report in detail")
    p.add_argument("--diagnostic", metavar="NAME",
                   help="also run a named diagnostic (d2-on-mode-1)")
    p.set_defaults(func=cmd_verify_circuit)

    p = sub.add_parser("snr", help="analytic vs exact SNR sweep")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--n-relays", dest="n_relays",
                   help="comma-separated relay counts "
                   "(default 0,1,2,4,8,16)")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("optimize", help="relay placement for one chain")
    _add_common(p)
    p.add_argument("--distance-km", dest="distance_km", type=float,
                   help="total channel length")
    p.add_argument("--n-relays", dest="n_relays",
                   help="relay count (single integer)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("throughput", help="secure-key throughput sweep")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--n-relays", dest="n_relays",
                   help="comma-separated relay counts (default 0,1,2,3)")
    p.add_argument("--f-ec", dest="f_ec", type=float,
                   help="error-correction inefficiency (default 1.16)")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("sample", help="Monte Carlo check against the exact "
                       "propagation")
    _add_common(p)
    p.add_argument("--alpha-x", dest="alpha_x", type=float,
                   help="attenuation length (alternative to --distance-km)")
    p.add_argument("--distance-km", dest="distance_km", type=float,
                   help="total channel length")
    p.add_argument("--n-relays", dest="n_relays",
                   help="relay count (single integer, default 0)")
    p.add_argument("--trials", type=int, help="number of slots to simulate")
    p.add_argument("--seed", type=int, help="RNG seed (required)")
    p.add_argument("--chunk-size", dest="chunk_size", type=int,
                   help="slots per RNG chunk (default 1000000)")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
