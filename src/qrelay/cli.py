"""Command-line interface: circuit verification, sweeps, placement, sampling.

Subcommands: verify-circuit, snr, optimize, throughput, sample. Parameters
come from built-in defaults, then an optional JSON config file (--config),
then explicit flags, in increasing precedence, each read once by its key's
parser in _KEYS; _COMMANDS lists each command's keys and defaults. Every
command is deterministic for a fixed flag set (including --seed); reports
carry their full parameter provenance and no timestamps; verify-circuit's
--input and --diagnostic lines go to stdout only. optimize and sample print
their payload a line per key, each real to 12 significant digits (_show),
as verify-circuit prints its reals; the report keeps every digit.

Exit codes: 0 success, 1 invariant/contract failure, 2 configuration error,
141 (128 + SIGPIPE) when the reader of stdout closed it early, as `| head`
does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import __version__
from .errors import ContractViolationError, check_int, check_real
from .reports import render_csv, render_json, render_payload

# analytics, chain, throughput and circuit are imported in the functions that
# use them, so no command loads (or compiles) a layer it never calls:
# verify-circuit loads neither analytics nor chain. Never import in a helper
# that runs once per grid point.

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_BROKEN_PIPE = 128 + 13     # SIGPIPE


# Each parser reads a flag's text or a JSON config value, named `name` in
# its errors; the layers check domains by errors' check_int and check_real.

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
        check_int(n, name)
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
    "pd": (_real, "dark-count probability per detector per slot: 0, or "
                  "a normal double in [2.2250738585072014e-308, 0.5)"),
    "eta": (_real, "relay pass efficiency: a normal double in "
                   "[2.2250738585072014e-308, 1]"),
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
    if ax is not None:      # checked, as every grid point is, by the curves
        return [ax]
    lo, hi = params["alpha_x_min"], params["alpha_x_max"]
    steps = params["steps"]
    check_real(lo, "alpha_x_min")
    check_real(hi, "alpha_x_max")
    check_int(steps, "steps", 2)
    if not lo < hi:
        raise ValueError(f"alpha_x_min must be < alpha_x_max, got [{lo}, {hi}]")
    # np.linspace's points: a step that underflows to 0 is scaled last
    step = (hi - lo) / (steps - 1)
    return [lo + (i * step if step else i / (steps - 1) * (hi - lo))
            for i in range(steps - 1)] + [hi]


def _chain(params: dict, n_relays: int = 0, distance_km: float = 0.0):
    """The chain's ChainConfig, which validates the channel settings."""
    from .analytics import ChainConfig

    return ChainConfig(distance_km, params["atten_per_km"], n_relays,
                       params["eta"], params["pd"])


def _config_block(config) -> dict:
    """A report's config block: the ChainConfig's fields under their keys."""
    return {("pd" if key == "p_dark" else key): value
            for key, value in config._asdict().items()}


def _show(obj) -> str:
    """A payload value on stdout: a real to 12 significant digits."""
    if isinstance(obj, float):
        return "%.12g" % obj
    if isinstance(obj, list):
        return " ".join(map(_show, obj))
    if isinstance(obj, dict):
        return "{%s}" % ", ".join(f"{k} = {_show(v)}" for k, v in obj.items())
    return str(obj)


def _report(payload: dict, params: dict, *head: str, **extra) -> None:
    """Write payload to --output, then print head and payload and extra, a
    line per key."""
    lines = [f"{key}: {_show(value)}"
             for key, value in {**payload, **extra}.items()]
    _write(render_payload(payload), params, [*head, *lines])


def _write(text: str, params: dict, lines: Sequence[str] = ()) -> bool:
    """Write text to --output, if one is given, then print lines, and last
    say so: a path that cannot be written prints nothing."""
    output = params["output"]
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
        lines = [*lines, f"wrote {output}"]
    for line in lines:
        print(line)
    return bool(output)


def _emit_sweep(command: str, fields: Sequence[str], curves: list,
                grid: list[float], extra: dict, params: dict) -> None:
    """Report a row per grid point: alpha_x, then each (N, curve)'s fields."""
    parameters = {key: params[key]
                  for key in ("eta", "pd", "atten_per_km", "n_relays")}
    parameters.update(extra, grid=[grid[0], grid[-1], len(grid)])
    table = SimpleNamespace(
        columns=("alpha_x", *(f"{f}_n{n}" for n, _ in curves for f in fields)),
        rows=[(ax, *itertools.chain.from_iterable(points))
              for ax, *points in zip(grid, *(curve for _, curve in curves))],
        metadata={"artifact": f"qrelay {__version__}", "command": command,
                  "parameters": parameters})
    text = (render_csv if params["format"] == "csv" else render_json)(table)
    if not _write(text, params):
        sys.stdout.write(text)


def cmd_snr(params: dict) -> int:
    """Sweep analytic and exact SNR over attenuation length for each N."""
    from .analytics import _snr_curve

    _chain(params)
    eta, pd = params["eta"], params["pd"]
    grid = _grid(params)
    curves = [(n, _snr_curve(grid, n, eta, pd)) for n in params["n_relays"]]
    _emit_sweep("snr", ("s_analytic", "s_exact", "q_b", "rel_dev"), curves,
                grid, {}, params)
    return EXIT_OK


def cmd_throughput(params: dict) -> int:
    """Sweep normalized throughput over attenuation length for each N."""
    from .throughput import MODEL, cutoff_alpha_x, throughput_curve

    _chain(params)
    eta, pd, ns = params["eta"], params["pd"], params["n_relays"]
    grid = _grid(params)
    f_ec = params["f_ec"]
    curves = [(n, throughput_curve(grid, n, eta, pd, f_ec)) for n in ns]
    # an unbounded cutoff (no dark counts) reads "inf" in the report
    cutoffs = {str(n): cutoff_alpha_x(n, eta, pd, f_ec) for n in ns}
    _emit_sweep("throughput", ("s_exact", "q_b", "t_n", "t_n_scaled"),
                curves, grid, {"f_ec": f_ec, "model": MODEL,
                               "cutoff_alpha_x": cutoffs}, params)
    return EXIT_OK


def cmd_optimize(params: dict) -> int:
    """Compare closed-form relay placement with a numeric search."""
    from .analytics import optimal_positions
    from .chain import run_chain, search_positions

    n = _single_n(params)
    check_int(n, "n_relays", 1)
    config = _chain(params, n, params["distance_km"])
    analytic = optimal_positions(config)
    numeric = search_positions(config)
    at_analytic = run_chain(config, analytic)
    at_numeric = run_chain(config, numeric)
    tol = 1e-6 * max(1.0, config.distance_km)
    agree = all(abs(a - b) <= tol for a, b in zip(analytic, numeric))
    warning = () if agree else (
        f"WARNING: placements disagree beyond {_show(tol)} km",)
    _report({
        "config": _config_block(config),
        "analytic_positions_km": list(analytic),
        "numeric_positions_km": list(numeric),
        "noise_analytic": at_analytic.p_n,
        "noise_numeric": at_numeric.p_n,
        "log_noise_analytic": at_analytic.log_p_n,
        "log_noise_numeric": at_numeric.log_p_n,
        "agree_within_tolerance": agree,
    }, params, *warning)
    return EXIT_OK


def cmd_sample(params: dict) -> int:
    """Monte Carlo the chain and print the estimate beside the exact value."""
    from .chain import run_chain, sample_chain

    n, trials, seed = _single_n(params), params["trials"], params["seed"]
    ax, x = params["alpha_x"], params["distance_km"]
    if (ax is None) == (x is None):
        raise ValueError("give one of --alpha-x and --distance-km")
    config = (_chain(params, n).at_alpha_x(ax) if x is None
              else _chain(params, n, x))
    exact = run_chain(config)
    sampled = sample_chain(config, trials, seed)
    if sampled.p_s + sampled.p_n == 0.0:    # its snr and q_b would be 0/0
        vetoed = sampled.state_counts["no_gate"]
        fate = (f"all {trials} slots were vetoed" if vetoed == trials else
                f"{vetoed} of the {trials} slots were vetoed and the rest "
                f"reached the receiver undetected")
        raise ValueError(f"no sampled slot was detected ({fate}), so the "
                         f"sampled snr and q_b would be 0/0; raise --trials")
    # all draws alike, say p_n at p_d = 0, leave no z-score to give
    z = {k: (getattr(sampled, k) - getattr(exact, k)) / err if err else "n/a"
         for k, err in (("p_s", sampled.stderr_p_s),
                        ("p_n", sampled.stderr_p_n))}
    _report({
        "config": {**_config_block(config), "alpha_x": config.alpha_x,
                   "trials": trials, "seed": seed},
        "exact": exact._asdict(),
        "sampled": sampled._asdict(),
    }, params, z=z)
    return EXIT_OK


def cmd_verify_circuit(params: dict) -> int:
    """Run the device invariant suite and report PASS/FAIL per check."""
    from . import circuit

    # every flag was parsed before the suite runs: the input qubit's own run
    # raises the finite and nonzero errors
    mode, qubit = params["diagnostic"], params["input"]
    rep = None if qubit is None else circuit.qnd_measure(*qubit)
    checks = circuit.device_checks(params["trials"], params["seed"])

    lines = []
    if mode:
        p_diag = circuit.vacuum_gate_probability(d2_spatial="1")
        lines.append(f"DIAG diagnostic d2-on-mode-1: vacuum false-gate "
                     f"probability = {_show(p_diag)} (nonzero by "
                     f"construction)")

    if rep is not None:
        lines.append(f"input qubit ({qubit[0]}, {qubit[1]}) normalized; "
                     f"success probability {_show(rep.success_probability)}")
        lines += [f"  outcome D2={o.channel_d2} Db={o.channel_db}: "
                  f"p = {_show(o.probability)}, flip = {o.flipped}, "
                  f"fidelity = {_show(o.fidelity)}" for o in rep.outcomes]

    all_ok = all(c["ok"] for c in checks)
    lines += [f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}"
              for c in checks]
    lines.append(f"{'PASS' if all_ok else 'FAIL'} verify-circuit "
                 f"({sum(c['ok'] for c in checks)}/{len(checks)} checks)")
    _write(render_payload({"artifact": f"qrelay {__version__}",
                           "command": "verify-circuit", "ok": all_ok,
                           "checks": checks, "trials": params["trials"],
                           "seed": params["seed"]}), params, lines)
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
