"""Command-line interface: circuit verification, sweeps, placement, sampling.

Subcommands: verify-circuit, snr, optimize, throughput, sample. Parameters
come from built-in defaults, then an optional JSON config file (--config),
then explicit flags, in increasing precedence. Every command is deterministic
for a fixed flag set (including --seed); reports carry their full parameter
provenance and never embed timestamps.

Exit codes: 0 success, 1 invariant/contract failure, 2 configuration error,
141 (128 + SIGPIPE) when the reader of stdout closed it early, as `| head`
does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from . import __version__
from .analytics import (ChainConfig, _chain_at, _log_expm1, check_n_relays,
                        optimal_positions, qber_from_snr, snr_n_relays)
from .errors import ContractViolationError
from .reports import CurveReport, render_csv, render_json, render_payload

# chain, throughput and circuit are imported in the cmd_* functions that use
# them, once per run, so no command loads (or compiles) a layer it never
# calls. Never import in a per-point helper such as _snr_point.

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_BROKEN_PIPE = 128 + 13     # SIGPIPE

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
    "alpha_x_min", "alpha_x_max", "steps", "seed", "trials", "f_ec",
    "format", "output", "input", "diagnostic",
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

    def require(self, key: str, flag: str, default=None):
        v = self.get(key, default)
        if v is None:
            raise ValueError(f"{flag} is required for this command")
        return v


def _integer(value, name: str) -> int:
    """An int or its text from a flag; a bool, 2.5 or other text is refused."""
    if isinstance(value, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", value):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _parse_n_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        items = list(value)
    elif isinstance(value, str):
        items = [t for t in value.replace(",", " ").split() if t]
    else:
        items = [value]
    out = [_integer(item, "n_relays entries") for item in items]
    for n in out:
        check_n_relays(n)
    if not out:
        raise ValueError("n_relays list is empty")
    return out


def _single_n(params: _Params, default: Optional[int] = None) -> int:
    ns = _parse_n_list(params.require("n_relays", "--n-relays", default))
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
    steps = _integer(params.get("steps"), "steps")
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


def _write(text: str, params: _Params) -> bool:
    """Write text to --output, if one is given, and say so."""
    output = params.get("output")
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {output}")
    return bool(output)


def _emit_sweep(command: str, fields: Sequence[str], curves: list,
                grid: list[float], parameters: dict, params: _Params) -> None:
    """Report a row per grid point: alpha_x, then each (N, curve)'s fields."""
    fmt = str(params.get("format"))
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    parameters["grid"] = [grid[0], grid[-1], len(grid)]
    report = CurveReport(
        ("alpha_x", *(f"{f}_n{n}" for n, _ in curves for f in fields)),
        tuple((ax, *(v for _, curve in curves for v in curve[i]))
              for i, ax in enumerate(grid)),
        {"artifact": f"qrelay {__version__}", "command": command,
         "parameters": parameters})
    text = (render_csv if fmt == "csv" else render_json)(report)
    if not _write(text, params):
        sys.stdout.write(text)


def _snr_point(ax: float, n: int, eta: float, pd: float) -> tuple:
    """(s_analytic, s_exact, q_b, rel_dev) of one chain at alpha_x.

    rel_dev takes S_exact/S_1 = (N+1) u/expm1(K) from logs in the interior,
    finite past the double range; clamped, S_1 is another placement's curve.
    """
    s_an = snr_n_relays(ax, n, eta, pd)
    s_ex, k, log_u = _chain_at(ax, n, eta, pd)
    if k == 0.0:    # no noise: S_exact = inf, and S_1 = inf or all but
        dev = 0.0
    elif log_u is None:
        dev = abs(s_ex - s_an) / s_an if s_ex != s_an else 0.0
    else:
        dev = abs(math.expm1(math.log(n + 1) + log_u - _log_expm1(k)))
    return s_an, s_ex, qber_from_snr(s_ex), dev


def cmd_snr(args: argparse.Namespace) -> int:
    """Sweep analytic and exact SNR over attenuation length for each N."""
    params = _Params(args)
    eta, pd, atten = _channel(params)
    ns = _parse_n_list(params.get("n_relays", "0,1,2,4,8,16"))
    grid = _grid(params)
    curves = [(n, [_snr_point(ax, n, eta, pd) for ax in grid]) for n in ns]
    _emit_sweep("snr", ("s_analytic", "s_exact", "q_b", "rel_dev"), curves,
                grid, {"eta": eta, "pd": pd, "atten_per_km": atten,
                       "n_relays": ns}, params)
    return EXIT_OK


def cmd_throughput(args: argparse.Namespace) -> int:
    """Sweep normalized throughput over attenuation length for each N."""
    from .throughput import EcPaParams, cutoff_alpha_x, throughput_curve

    params = _Params(args)
    eta, pd, atten = _channel(params)
    ns = _parse_n_list(params.get("n_relays", "0,1,2,3"))
    grid = _grid(params)
    ec = EcPaParams(f_ec=float(params.get("f_ec")))
    configs = [ChainConfig(distance_km=0.0, atten_per_km=atten, n_relays=n,
                           eta=eta, p_dark=pd) for n in ns]
    curves = [(cfg.n_relays, [(p.s, p.q_b, p.t_n, p.t_n_scaled)
                              for p in throughput_curve(cfg, grid, ec)])
              for cfg in configs]
    # an unbounded cutoff (no dark counts) is spelled as table values are
    cutoffs = {str(cfg.n_relays): cutoff_alpha_x(cfg, ec) for cfg in configs}
    cutoffs = {n: c if math.isfinite(c) else "inf" for n, c in cutoffs.items()}
    _emit_sweep("throughput", ("s_exact", "q_b", "t_n", "t_n_scaled"),
                curves, grid, {"eta": eta, "pd": pd, "atten_per_km": atten,
                               "n_relays": ns, "f_ec": ec.f_ec,
                               "model": ec.model, "cutoff_alpha_x": cutoffs},
                params)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    """Compare closed-form relay placement with a numeric search."""
    from .chain import chain_noise, log_chain_noise, search_positions

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
    # in logs, which stay apart where p_n underflows to 0 on long chains
    log_analytic = log_chain_noise(config, analytic)
    log_numeric = log_chain_noise(config, numeric)
    tol = 1e-6 * max(1.0, x)
    agree = all(abs(a - b) <= tol for a, b in zip(analytic, numeric))
    print(f"chain: x = {x} km, alpha = {atten} /km, N = {n}, "
          f"eta = {eta}, p_dark = {pd}")
    for label, pos in (("analytic", analytic), ("numeric ", numeric)):
        print(f"{label} positions_km: " + " ".join(f"{p:.6f}" for p in pos))
    print(f"noise objective ln p_n: analytic = {log_analytic:.12f}, "
          f"numeric = {log_numeric:.12f}")
    if not agree:
        print(f"WARNING: placements disagree beyond {tol:g} km")
    _write(render_payload({
        "config": {"distance_km": x, "atten_per_km": atten, "n_relays": n,
                   "eta": eta, "pd": pd},
        "analytic_positions_km": list(analytic),
        "numeric_positions_km": list(numeric),
        "noise_analytic": f_analytic,
        "noise_numeric": f_numeric,
        "log_noise_analytic": log_analytic,
        "log_noise_numeric": log_numeric,
        "agree_within_tolerance": agree,
    }), params)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    """Monte Carlo the chain and print the estimate beside the exact value."""
    from .chain import run_chain, sample_chain

    params = _Params(args)
    eta, pd, atten = _channel(params)
    n = _single_n(params, default=0)
    trials = params.require("trials", "--trials")
    seed = _integer(params.require("seed", "--seed"), "seed")
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
    exact = run_chain(config)
    sampled = sample_chain(config, trials, seed)
    print(f"chain: alpha_x = {config.alpha_x:.6f}, N = {n}, eta = {eta}, "
          f"p_dark = {pd}, trials = {trials}, seed = {seed}")
    print(f"exact    p_s = {exact.p_s:.9e}    p_n = {exact.p_n:.9e}")
    print(f"sampled  p_s = {sampled.p_s:.9e} +- {sampled.stderr_p_s:.3e}"
          f"    p_n = {sampled.p_n:.9e} +- {sampled.stderr_p_n:.3e}")
    for name in ("p_s", "p_n"):
        err = getattr(sampled, f"stderr_{name}")
        if err > 0:
            z = (getattr(sampled, name) - getattr(exact, name)) / err
            print(f"z({name}) = {z:+.3f}")
        else:   # all draws alike, say p_n at p_d = 0: no z-score to give
            print(f"z({name}) = n/a (no sampled variance)")
    print("slot states: " + " ".join(f"{k}={v}"
                                     for k, v in sampled.state_counts.items()))
    _write(render_payload({
        "config": {"alpha_x": config.alpha_x, "distance_km": float(x),
                   "atten_per_km": atten, "n_relays": n, "eta": eta,
                   "pd": pd, "trials": trials, "seed": seed},
        "exact": {"p_s": exact.p_s, "p_n": exact.p_n,
                  "snr": exact.snr, "q_b": exact.q_b},
        "sampled": {"p_s": sampled.p_s, "p_n": sampled.p_n,
                    "snr": sampled.snr, "q_b": sampled.q_b,
                    "stderr_p_s": sampled.stderr_p_s,
                    "stderr_p_n": sampled.stderr_p_n,
                    "signal_count": sampled.signal_count,
                    "noise_events": sampled.noise_events,
                    "state_counts": sampled.state_counts},
    }), params)
    return EXIT_OK


def _parse_qubit(text: str) -> tuple[complex, complex]:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--input wants 'alpha,beta', got {text!r}")
    try:
        a, b = complex(parts[0]), complex(parts[1])
    except ValueError as exc:
        raise ValueError(f"--input components must be numbers: {exc}") from exc
    return a, b


def cmd_verify_circuit(args: argparse.Namespace) -> int:
    """Run the device invariant suite and report PASS/FAIL per check."""
    from . import circuit

    params = _Params(args)
    trials = _integer(params.get("trials", 20), "trials")
    seed = _integer(params.get("seed", 20260815), "seed")
    # every flag is refused before the suite runs: the input qubit's own run
    # raises the finite and nonzero errors
    mode = params.get("diagnostic")
    if mode and mode != "d2-on-mode-1":
        raise ValueError(f"unknown diagnostic {mode!r}; known: d2-on-mode-1")
    rep = None
    if params.get("input"):
        a, b = _parse_qubit(str(params.get("input")))
        rep = circuit.qnd_measure(a, b)
    checks = circuit.device_checks(trials, seed)

    if mode:
        p_diag = circuit.vacuum_gate_probability(d2_spatial="1")
        print(f"DIAG diagnostic d2-on-mode-1: vacuum false-gate probability "
              f"= {p_diag:.6f} (nonzero by construction)")

    if rep is not None:
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
    _write(render_payload({"artifact": f"qrelay {__version__}",
                           "command": "verify-circuit", "ok": all_ok,
                           "checks": checks}), params)
    return EXIT_OK if all_ok else EXIT_INVARIANT


def _flag(p: argparse.ArgumentParser, dest: str, help: str, **kw) -> None:
    """Add the option --<dest with dashes>, stored under dest."""
    p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help, **kw)


def _add_common(p: argparse.ArgumentParser) -> None:
    _flag(p, "config", "JSON config file; flags override its values",
          metavar="PATH")
    _flag(p, "pd", "dark-count probability per detector per slot "
          "(default 1e-5)", type=float)
    _flag(p, "eta", "relay pass efficiency (default 0.5)", type=float)
    _flag(p, "atten_per_km", "fiber attenuation coefficient alpha "
          "(default 0.05)", type=float)
    _flag(p, "output", "write the report here instead of (or in addition "
          "to) stdout", metavar="PATH")


def _add_grid(p: argparse.ArgumentParser) -> None:
    _flag(p, "alpha_x_min", "grid start (default 0)", type=float)
    _flag(p, "alpha_x_max", "grid end (default 40)", type=float)
    _flag(p, "steps", "grid point count (default 100)", type=int)
    _flag(p, "alpha_x", "evaluate a single attenuation length instead of a "
          "grid", type=float)
    _flag(p, "format", "report format (default csv)", choices=("csv", "json"))


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
    _flag(p, "trials", "number of random probe qubits (default 20)", type=int)
    _flag(p, "seed", "seed for the probe qubits", type=int)
    _flag(p, "input", "alpha,beta qubit to report in detail")
    _flag(p, "diagnostic", "also run a named diagnostic (d2-on-mode-1)",
          metavar="NAME")
    p.set_defaults(func=cmd_verify_circuit)

    p = sub.add_parser("snr", help="analytic vs exact SNR sweep")
    _add_common(p)
    _add_grid(p)
    _flag(p, "n_relays", "comma-separated relay counts (default 0,1,2,4,8,16)")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("optimize", help="relay placement for one chain")
    _add_common(p)
    _flag(p, "distance_km", "total channel length", type=float)
    _flag(p, "n_relays", "relay count (single integer)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("throughput", help="secure-key throughput sweep")
    _add_common(p)
    _add_grid(p)
    _flag(p, "n_relays", "comma-separated relay counts (default 0,1,2,3)")
    _flag(p, "f_ec", "error-correction inefficiency (default 1.16)",
          type=float)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("sample", help="Monte Carlo check against the exact "
                       "chain, drawing the slot counts of each event")
    _add_common(p)
    _flag(p, "alpha_x", "attenuation length (alternative to --distance-km)",
          type=float)
    _flag(p, "distance_km", "total channel length", type=float)
    _flag(p, "n_relays", "relay count (single integer, default 0)")
    _flag(p, "trials", "number of slots to simulate, 1 to 2**63 - 1; the cost "
          "does not grow with it", type=int)
    _flag(p, "seed", "RNG seed (required)", type=int)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point it at devnull so that the
        # interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ContractViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
