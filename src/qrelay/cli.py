"""Command-line interface: circuit verification, sweeps, placement, sampling.

Subcommands: verify-circuit, snr, optimize, throughput, sample. Parameters
come from built-in defaults, then an optional JSON config file (--config),
then explicit flags, in increasing precedence, each read once by its key's
parser in _KEYS; _COMMANDS lists each command's keys and defaults. Every
command is deterministic for a fixed flag set (including --seed); reports
carry their full parameter provenance and never embed timestamps.

Exit codes: 0 success, 1 invariant/contract failure, 2 configuration error,
141 (128 + SIGPIPE) when the reader of stdout closed it early, as `| head`
does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
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


# Each parser reads a flag's text or a JSON config value, named `name` in
# its errors; the layers check domains (eta <= 1, ...) where values are used.

def _real(value, name: str) -> float:
    """A number or its text; a bool is refused."""
    try:
        if type(value) in (int, float, str):     # not bool, whose type is bool
            return float(value)
    except (ValueError, OverflowError):     # OverflowError: an int past 1e308
        pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _integer(value, name: str) -> int:
    """An int or its text; a bool, 2.5 or "3.0" is refused, never truncated."""
    try:
        if type(value) in (int, str):     # not bool, whose type is bool
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _relays(value, name: str) -> list[int]:
    """Relay counts from a list, an int, or text split at commas or spaces."""
    items = (value.replace(",", " ").split() if isinstance(value, str)
             else value if isinstance(value, list) else [value])
    out = [_integer(item, f"{name} entries") for item in items]
    for n in out:
        check_n_relays(n)
    if not out:
        raise ValueError(f"{name} list is empty")
    return out


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _choice(*known: str):
    """A parser that accepts only the strings in known."""
    def parse(value, name: str) -> str:
        if _text(value, name) not in known:
            raise ValueError(f"unknown {name} {value!r}; "
                             f"known: {', '.join(known)}")
        return value
    return parse


def _qubit(value, name: str) -> tuple[complex, complex]:
    parts = [t.strip() for t in _text(value, name).split(",")]
    if len(parts) != 2:
        raise ValueError(f"--input wants 'alpha,beta', got {value!r}")
    try:
        return complex(parts[0]), complex(parts[1])
    except ValueError as exc:
        raise ValueError(f"--input components must be numbers: {exc}") from exc


# Every setting: (parser, help). These are also the config file's keys.
_KEYS = {
    "pd": (_real, "dark-count probability per detector per slot"),
    "eta": (_real, "relay pass efficiency"),
    "atten_per_km": (_real, "fiber attenuation coefficient alpha"),
    "output": (_text, "write the report to this file"),
    "alpha_x_min": (_real, "grid start"),
    "alpha_x_max": (_real, "grid end"),
    "steps": (_integer, "grid point count"),
    "alpha_x": (_real, "a single attenuation length alpha x"),
    "format": (_choice("csv", "json"), "report format"),
    "n_relays": (_relays, "relay counts, comma-separated (optimize and "
                          "sample take one)"),
    "distance_km": (_real, "total channel length"),
    "f_ec": (_real, "error-correction inefficiency"),
    # named as chain.sample_chain names the count in its own range error
    "trials": (lambda value, name: _integer(value, "n_trials"),
               "probe qubits, or slots to simulate (1 to 2**63 - 1)"),
    "seed": (_integer, "RNG seed, a non-negative integer"),
    "input": (_qubit, "alpha,beta qubit to report in detail"),
    "diagnostic": (_choice("d2-on-mode-1"), "also run a named diagnostic"),
}

REQUIRED = object()     # a _COMMANDS default: the value must be given


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
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}; "
                         f"known keys: {sorted(_KEYS)}")
    return data


def _settings(args: argparse.Namespace, defaults: dict) -> dict:
    """A command's keys, each parsed from its flag, else the config file
    (null counts as absent), else its default; other file keys are ignored."""
    file = _load_config_file(args.config) if args.config else {}
    params = {}
    for key, default in defaults.items():
        for value in (getattr(args, key), file.get(key), default):
            if value is not None:
                break
        if value is REQUIRED:
            raise ValueError(f"--{key.replace('_', '-')} is required for "
                             f"this command")
        params[key] = None if value is None else _KEYS[key][0](value, key)
    return params


def _single_n(params: dict) -> int:
    ns = params["n_relays"]
    if len(ns) != 1:
        raise ValueError(f"this command takes a single relay count, got {ns}")
    return ns[0]


def _grid(params: dict) -> list[float]:
    ax = params["alpha_x"]
    if ax is not None:
        if not math.isfinite(ax) or ax < 0:
            raise ValueError(f"alpha_x must be finite and >= 0, got {ax}")
        return [ax]
    lo, hi = params["alpha_x_min"], params["alpha_x_max"]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"alpha_x range must be finite, got [{lo}, {hi}]")
    steps = params["steps"]
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


def _chain(params: dict, n_relays: int = 0) -> ChainConfig:
    """A zero-length chain, which validates the channel settings."""
    return ChainConfig(0.0, params["atten_per_km"], n_relays, params["eta"],
                       params["pd"])


def _write(text: str, params: dict) -> bool:
    """Write text to --output, if one is given, and say so."""
    output = params["output"]
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {output}")
    return bool(output)


def _emit_sweep(command: str, fields: Sequence[str], curves: list,
                grid: list[float], extra: dict, params: dict) -> None:
    """Report a row per grid point: alpha_x, then each (N, curve)'s fields."""
    parameters = {key: params[key]
                  for key in ("eta", "pd", "atten_per_km", "n_relays")}
    parameters.update(extra, grid=[grid[0], grid[-1], len(grid)])
    report = CurveReport(
        ("alpha_x", *(f"{f}_n{n}" for n, _ in curves for f in fields)),
        tuple((ax, *(v for _, curve in curves for v in curve[i]))
              for i, ax in enumerate(grid)),
        {"artifact": f"qrelay {__version__}", "command": command,
         "parameters": parameters})
    text = (render_csv if params["format"] == "csv" else render_json)(report)
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


def cmd_snr(params: dict) -> int:
    """Sweep analytic and exact SNR over attenuation length for each N."""
    _chain(params)
    eta, pd = params["eta"], params["pd"]
    grid = _grid(params)
    curves = [(n, [_snr_point(ax, n, eta, pd) for ax in grid])
              for n in params["n_relays"]]
    _emit_sweep("snr", ("s_analytic", "s_exact", "q_b", "rel_dev"), curves,
                grid, {}, params)
    return EXIT_OK


def cmd_throughput(params: dict) -> int:
    """Sweep normalized throughput over attenuation length for each N."""
    from .throughput import EcPaParams, cutoff_alpha_x, throughput_curve

    configs = [_chain(params, n) for n in params["n_relays"]]
    grid = _grid(params)
    ec = EcPaParams(f_ec=params["f_ec"])
    curves = [(cfg.n_relays, [(p.s, p.q_b, p.t_n, p.t_n_scaled)
                              for p in throughput_curve(cfg, grid, ec)])
              for cfg in configs]
    # an unbounded cutoff (no dark counts) is spelled as table values are
    cutoffs = {str(cfg.n_relays): cutoff_alpha_x(cfg, ec) for cfg in configs}
    cutoffs = {n: c if math.isfinite(c) else "inf" for n, c in cutoffs.items()}
    _emit_sweep("throughput", ("s_exact", "q_b", "t_n", "t_n_scaled"),
                curves, grid, {"f_ec": ec.f_ec, "model": ec.model,
                               "cutoff_alpha_x": cutoffs}, params)
    return EXIT_OK


def cmd_optimize(params: dict) -> int:
    """Compare closed-form relay placement with a numeric search."""
    from .chain import chain_noise, log_chain_noise, search_positions

    n = _single_n(params)
    if n < 1:
        raise ValueError("optimize needs n_relays >= 1")
    config = replace(_chain(params, n), distance_km=params["distance_km"])
    x, atten = config.distance_km, config.atten_per_km
    eta, pd = config.eta, config.p_dark
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


def cmd_sample(params: dict) -> int:
    """Monte Carlo the chain and print the estimate beside the exact value."""
    from .chain import run_chain, sample_chain

    n, trials, seed = _single_n(params), params["trials"], params["seed"]
    ax, x = params["alpha_x"], params["distance_km"]
    if (ax is None) == (x is None):
        raise ValueError("give one of --alpha-x and --distance-km")
    base = _chain(params, n)
    config = base.at_alpha_x(ax) if x is None else replace(base, distance_km=x)
    exact = run_chain(config)
    sampled = sample_chain(config, trials, seed)
    print(f"chain: alpha_x = {config.alpha_x:.6f}, N = {n}, "
          f"eta = {config.eta}, p_dark = {config.p_dark}, trials = {trials}, "
          f"seed = {seed}")
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
        "config": {"alpha_x": config.alpha_x, "n_relays": n, "trials": trials,
                   "distance_km": config.distance_km, "seed": seed,
                   "atten_per_km": config.atten_per_km, "eta": config.eta,
                   "pd": config.p_dark},
        "exact": asdict(exact),
        # n_trials and seed are reported once, in config
        "sampled": {k: v for k, v in asdict(sampled).items()
                    if k not in ("n_trials", "seed")},
    }), params)
    return EXIT_OK


def cmd_verify_circuit(params: dict) -> int:
    """Run the device invariant suite and report PASS/FAIL per check."""
    from . import circuit

    # every flag was parsed before the suite runs: the input qubit's own run
    # raises the finite and nonzero errors
    mode, qubit = params["diagnostic"], params["input"]
    rep = None if qubit is None else circuit.qnd_measure(*qubit)
    checks = circuit.device_checks(params["trials"], params["seed"])

    if mode:
        p_diag = circuit.vacuum_gate_probability(d2_spatial="1")
        print(f"DIAG diagnostic d2-on-mode-1: vacuum false-gate probability "
              f"= {p_diag:.6f} (nonzero by construction)")

    if rep is not None:
        print(f"input qubit ({qubit[0]}, {qubit[1]}) normalized; "
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


_CHANNEL = {"pd": 1e-5, "eta": 0.5, "atten_per_km": 0.05, "output": None}
_GRID = {"alpha_x_min": 0.0, "alpha_x_max": 40.0, "steps": 100,
         "alpha_x": None, "format": "csv"}

# Every command: (function, help, {key: default, None or REQUIRED}), its
# flags in help order
_COMMANDS = {
    "verify-circuit": (cmd_verify_circuit, "run the device invariant suite", {
        "output": None, "trials": 20, "seed": 20260815, "input": None,
        "diagnostic": None}),
    "snr": (cmd_snr, "analytic vs exact SNR sweep", {
        **_CHANNEL, "n_relays": "0,1,2,4,8,16", **_GRID}),
    "optimize": (cmd_optimize, "relay placement for one chain", {
        **_CHANNEL, "distance_km": REQUIRED, "n_relays": REQUIRED}),
    "throughput": (cmd_throughput, "secure-key throughput sweep", {
        **_CHANNEL, "n_relays": "0,1,2,3", **_GRID, "f_ec": 1.16}),
    "sample": (cmd_sample, "Monte Carlo check against the exact chain", {
        **_CHANNEL, "alpha_x": None, "distance_km": None, "n_relays": 0,
        "trials": REQUIRED, "seed": REQUIRED}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelay",
        description="Gate-heralded relay chains for single-photon links: "
                    "exact event propagation, closed-form placement and SNR, "
                    "secure-key throughput, and a verified device simulation.")
    parser.add_argument("--version", action="version",
                        version=f"qrelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file; flags override its values")
        for key, default in defaults.items():
            note = ("" if default is None else " (required)"
                    if default is REQUIRED else f" (default {default})")
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=_KEYS[key][1] + note)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    func, _, defaults = _COMMANDS[args.command]
    try:
        code = func(_settings(args, defaults))
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
