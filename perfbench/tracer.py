"""Run one `qrelay` command with spans around the calls into each layer.

    python perfbench/tracer.py SPANS_PATH LAUNCH_ID -- <qrelay arguments>

The tracer imports `qrelay.cli`, then rebinds each traced public function
wherever a `qrelay` module binds it (for example `cli.run_chain`,
`throughput.run_chain` and `chain.run_chain`), so calls are timed from outside
the program and the program itself is unchanged. Spans are kept in memory and
written as JSON when the command returns:

    {"launch": id, "import_s": t, "spans": [[name, start, end, parent, a, b]]}

``parent`` is the index of the enclosing span (-1 for the root, `cli.main`),
and ``a``/``b`` are per-call counts read from arguments and results.

The per-relay kernels `propagate_segment` and `apply_relay` are deliberately
not wrapped: sweeps call them over 10^5 times, so wrapping them would distort
the run. Relay steps are counted from each `run_chain` config instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_T0 = time.perf_counter()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# module -> {function: counter(args, kwargs, result) -> (a, b)}
TRACED = {
    "fockspace": {
        "apply_transform": lambda a, k, r: (len(_arg(a, k, 0, "state").amps),
                                            len(r.amps)),
        "enumerate_outcomes": lambda a, k, r: (len(r), 0),
        "measure_pattern": None,
    },
    "circuit": {
        "qnd_measure": lambda a, k, r: (len(r.outcomes), 0),
    },
    "chain": {
        "run_chain": lambda a, k, r: (_arg(a, k, 0, "config").n_relays, 0),
        "chain_noise": None,
        "sample_chain": lambda a, k, r: (_arg(a, k, 1, "n_trials"), 0),
    },
    "analytics": {
        "snr_n_relays": None,
        "optimal_positions": None,
        "optimize_positions_numeric": None,
    },
    "throughput": {
        "cutoff_alpha_x": None,
        "key_fraction": None,
    },
    "reports": {
        "render_csv": lambda a, k, r: (len(_arg(a, k, 0, "report").rows),
                                       len(r.encode())),
        "render_json": lambda a, k, r: (len(_arg(a, k, 0, "report").rows),
                                        len(r.encode())),
    },
}

# both renderers are one stage of the reports layer
_SPAN_NAME = {"render_csv": "render", "render_json": "render"}


class Tracer:
    """Span recorder; ``spans`` rows are [name, start, end, parent, a, b]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4], rec[5] = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded `qrelay` module.

        A module or function that no longer exists is skipped, so its
        metrics read zero instead of the traced run failing.
        """
        for mod_name in TRACED:
            try:
                importlib.import_module(f"qrelay.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in sys.modules.items()
                   if n == "qrelay" or n.startswith("qrelay.")]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules.get(f"qrelay.{mod_name}")
            for fname, counter in funcs.items():
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                span = f"{mod_name}.{_SPAN_NAME.get(fname, fname)}"
                wrapper = self.wrap(span, orig, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)


def main() -> int:
    spans_path, launch_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_PATH LAUNCH_ID -- ARGS...")
    import qrelay.cli
    import_s = time.perf_counter() - _T0
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", qrelay.cli.main, None)(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"launch": int(launch_id), "import_s": import_s,
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
