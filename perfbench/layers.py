"""Per-layer metrics: self times and counts from spans, import stages.

Layers are the `qrelay` modules. A span's self time is its duration minus the
durations of its direct children; spans are properly nested because each
launch is one thread.
"""

from __future__ import annotations

import re
from collections import defaultdict

from workloads import COMMANDS

END_TO_END = (
    ("wall_s", "s"),
    ("wall_s_p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

IMPORT_PACKAGES = ("numpy", "scipy", "qrelay")

PER_LAYER = (
    *((f"import.{p}_s", "s") for p in IMPORT_PACKAGES),
    ("fockspace.apply_transform.calls", "count"),
    ("fockspace.apply_transform.self_s", "s"),
    ("fockspace.terms_in", "count"),
    ("fockspace.terms_out", "count"),
    ("fockspace.enumerate_outcomes.self_s", "s"),
    ("fockspace.measure_pattern.calls", "count"),
    ("fockspace.measure_pattern.self_s", "s"),
    ("fockspace.patterns", "count"),
    ("circuit.qnd_measure.calls", "count"),
    ("circuit.qnd_measure.self_s", "s"),
    ("circuit.accepted_outcomes", "count"),
    ("circuit.accept_ratio", "ratio"),
    ("chain.run_chain.calls", "count"),
    ("chain.run_chain.self_s", "s"),
    ("chain.relay_steps", "count"),
    ("chain.sample_chain.self_s", "s"),
    ("chain.slots", "count"),
    ("chain.slots_per_s", "1/s"),
    ("analytics.snr_n_relays.self_s", "s"),
    ("analytics.optimal_positions.calls", "count"),
    ("analytics.optimal_positions.self_s", "s"),
    ("analytics.optimize_positions_numeric.self_s", "s"),
    ("analytics.objective_evals", "count"),
    ("throughput.cutoff_alpha_x.self_s", "s"),
    ("throughput.bisection_evals", "count"),
    ("throughput.key_fraction.calls", "count"),
    ("reports.render.self_s", "s"),
    ("reports.bytes_out", "bytes"),
    ("reports.rows", "count"),
    ("cli.main.self_s", "s"),
    *((f"cli.{c}.wall_s", "s") for c in COMMANDS),
    ("trace.overhead_s", "s"),
    ("check.max_rel_err", "ratio"),
    ("fail_frac", "ratio"),
)


def span_metrics(launches: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced pass from its launches' span files."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    count_a = defaultdict(int)
    count_b = defaultdict(int)
    objective_evals = bisection_evals = patterns_in_device = 0
    for launch in launches:
        spans = launch["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _a, _b in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, a, b) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
            count_a[name] += a
            count_b[name] += b
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if name == "chain.chain_noise" and \
                    "analytics.optimize_positions_numeric" in ancestors:
                objective_evals += 1
            elif name == "chain.run_chain" and \
                    "throughput.cutoff_alpha_x" in ancestors:
                bisection_evals += 1
            elif name == "fockspace.enumerate_outcomes" and \
                    "circuit.qnd_measure" in ancestors:
                patterns_in_device += a
    m = {}
    for name, _unit in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls[span]
        elif stat == "self_s":
            m[name] = self_s[span]
    m["fockspace.terms_in"] = count_a["fockspace.apply_transform"]
    m["fockspace.terms_out"] = count_b["fockspace.apply_transform"]
    m["fockspace.patterns"] = count_a["fockspace.enumerate_outcomes"]
    accepted = count_a["circuit.qnd_measure"]
    m["circuit.accepted_outcomes"] = accepted
    m["circuit.accept_ratio"] = (accepted / patterns_in_device
                                 if patterns_in_device else 0.0)
    m["chain.relay_steps"] = count_a["chain.run_chain"]
    slots = count_a["chain.sample_chain"]
    sample_s = self_s["chain.sample_chain"]
    m["chain.slots"] = slots
    m["chain.slots_per_s"] = slots / sample_s if sample_s > 0 else 0.0
    m["analytics.objective_evals"] = objective_evals
    m["throughput.bisection_evals"] = bisection_evals
    m["reports.rows"] = count_a["reports.render"]
    m["reports.bytes_out"] = count_b["reports.render"]
    return m


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def import_stages(stderr_text: str) -> dict[str, float]:
    """Seconds of import time charged to numpy, scipy and qrelay.

    Parses ``python -X importtime`` output. A top-level package import
    (``numpy``, ``scipy``, ``qrelay``) and everything it pulls in is charged
    to that package; any other module goes to the outermost of them that
    pulled it in. So numpy_s is what ``import numpy`` costs wherever it
    happens, scipy_s what scipy adds (numpy submodules it loads included),
    and qrelay_s the package's own modules plus the standard library they
    need. Lines arrive in completion order, children before their parent.
    """
    pending: dict[int, list] = defaultdict(list)
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, indent, name = int(m.group(1)), len(m.group(3)), m.group(4)
        depth = (indent - 1) // 2
        node = (name, self_us, pending.pop(depth + 1, []))
        pending[depth].append(node)
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    stack = [(node, None) for nodes in pending.values() for node in nodes]
    while stack:
        (name, self_us, children), owner = stack.pop()
        top = name.split(".")[0]
        if top in totals and (name == top or owner in (None, "qrelay")):
            owner = top
        if owner is not None:
            totals[owner] += self_us
        stack.extend((child, owner) for child in children)
    return {f"import.{p}_s": totals[p] * 1e-6 for p in IMPORT_PACKAGES}
