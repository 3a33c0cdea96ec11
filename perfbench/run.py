"""Cold-process benchmark of the `qrelay` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/qrelay``; it needs only
the standard library, plus numpy and scipy for the program under test.

Load comes from one closed loop: each `python -m qrelay.cli <cmd>` is a fresh
process, started only when the previous one has ended, so a run measures what
a user waits for, interpreter and import included. A pass is one workload's
command sequence (see workloads.py); passes repeat until ``--seconds`` have
gone by. Every launch's output is checked by check.py outside the timed
region; a launch that exits non-zero or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics:
  wall_s       mean wall time of one pass, summed over its launches
  wall_s_p90   90th percentile of the same pass walls
  setup_s      median wall of a fresh `python -c "import qrelay.cli"`,
               taken once before every pass
  peak_rss_mb  median over passes of the largest child max-RSS (os.wait4)

``--trace 1`` prints the per-layer metrics (layers.PER_LAYER). It makes
separate `python -X importtime` launches for the import stages, then
alternates untraced passes with traced passes of the same inputs; a traced
launch runs through tracer.py, which times calls into each module from
outside the program. Layer metrics are medians over the traced passes, and
trace.overhead_s is the traced minus the untraced mean pass wall.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A readable table goes to stderr, and a record of the run
(seeds, generated flags, environment, per-launch walls and the sha256 of each
launch's output) is written under .perfbench_run/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import check
import layers
from workloads import COMMANDS, WHY, WORKLOADS

WORK_DIR = ".perfbench_run"
LAUNCH_TIMEOUT_S = 150.0
MIN_SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "tracer.py")


class SetupError(RuntimeError):
    """The benchmark cannot measure: no source tree, or set-up failed."""


class Runner:
    """Starts launches one at a time and keeps the run's tallies."""

    def __init__(self, root: str, tag: str):
        self.root = root
        self.work = os.path.join(WORK_DIR, tag)
        shutil.rmtree(os.path.join(root, self.work), ignore_errors=True)
        os.makedirs(os.path.join(root, self.work))
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self.launch_seq = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def spawn(self, args: list[str], name: str) -> dict:
        """Run ``python <args>`` to completion; stdout/stderr go to files."""
        out, err = self.path(name + ".stdout"), self.path(name + ".stderr")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rc": proc.returncode,
                "maxrss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "stdout": out, "stderr": err}

    def setup_launch(self, args: list[str], name: str) -> dict:
        r = self.spawn(args, name)
        if r["rc"] != 0:
            raise SetupError(f"`python {' '.join(args)}` exited {r['rc']}: "
                             f"{_tail(r['stderr'])}")
        return r

    def check_source(self) -> str:
        """Untimed warm-up launch; it also proves which qrelay is measured."""
        r = self.setup_launch(
            ["-c", "import qrelay.cli, sys; sys.stdout.write(qrelay.__file__)"],
            "source")
        with open(r["stdout"]) as fh:
            path = os.path.realpath(fh.read())
        src = os.path.realpath(os.path.join(self.root, "src")) + os.sep
        if not path.startswith(src):
            raise SetupError(f"qrelay imports from {path}, not from {src}")
        return path

    def setup_wall(self) -> float:
        return self.setup_launch(["-c", "import qrelay.cli"], "setup")["wall_s"]

    def import_stages(self) -> dict[str, float]:
        r = self.setup_launch(["-X", "importtime", "-c", "import qrelay.cli"],
                              "importtime")
        with open(r["stderr"]) as fh:
            return layers.import_stages(fh.read())

    def run_pass(self, launches, index: int, traced: bool) -> dict:
        """One pass; checks and digests happen after each launch's timing."""
        rec = {"pass": index, "traced": traced, "wall_s": 0.0,
               "peak_rss_mb": 0.0, "cpu_s": 0.0, "launches": []}
        if traced:
            rec["spans"] = []
        for j, launch in enumerate(launches):
            name = f"p{index}{'t' if traced else 'u'}{j}"
            out_path = self.path(name + launch.output) if launch.output else None
            args = launch.args(out_path)
            spans_path = self.path(name + ".spans")
            if traced:
                self.launch_seq += 1
                cmd = [TRACER, spans_path, str(self.launch_seq), "--", *args]
            else:
                cmd = ["-m", "qrelay.cli", *args]
            r = self.spawn(cmd, name)
            rec["wall_s"] += r["wall_s"]
            rec["cpu_s"] += r["cpu_s"]
            rec["peak_rss_mb"] = max(rec["peak_rss_mb"], r["maxrss_mb"])
            # ---- outside the timed region from here on
            stdout = _read(r["stdout"])
            output = _read(out_path) if out_path else None
            if r["rc"] != 0:
                failures = [f"exit code {r['rc']}: {_tail(r['stderr'])}"]
            else:
                res = check.check(launch.check, launch.expect,
                                  stdout.decode(errors="replace"),
                                  output and output.decode(errors="replace"))
                failures = res.failures
                self.max_dev = max(self.max_dev, res.max_dev)
            if traced:
                if os.path.exists(spans_path):
                    with open(spans_path) as fh:
                        rec["spans"].append(json.load(fh))
                else:
                    failures.append("tracer wrote no spans")
            digest = hashlib.sha256(stdout if output is None
                                    else output).hexdigest()
            self.attempted += 1
            if failures:
                self.failed += 1
                print(f"FAIL {launch.cmd} (pass {index}, "
                      f"{'traced' if traced else 'untraced'}): "
                      + "; ".join(failures[:5]), file=sys.stderr)
            rec["launches"].append({
                "cmd": launch.cmd, "argv": args, "wall_s": r["wall_s"],
                "rc": r["rc"], "maxrss_mb": r["maxrss_mb"],
                "cpu_s": r["cpu_s"], "sha256": digest,
                "failures": failures[:20]})
            for p in (r["stdout"], r["stderr"], spans_path, out_path):
                if p and os.path.exists(p):
                    os.remove(p)
        return rec


def _read(path: str):
    """File contents as bytes, or None when the file was never written."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _tail(path: str, n: int = 400) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-n:].strip()


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _repeat_until(deadline: float, step) -> None:
    """Call ``step`` at least once, and again while another call would end
    before ``deadline``, judging by how long the last call took."""
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def measure_end_to_end(runner: Runner, workload: str, seed: int,
                       seconds: float) -> tuple[dict, dict]:
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    setup, passes = [], []

    def step():
        setup.append(runner.setup_wall())
        passes.append(runner.run_pass(WORKLOADS[workload](rng), len(passes),
                                      traced=False))
    _repeat_until(deadline, step)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.setup_wall())
    walls = [p["wall_s"] for p in passes]
    # A run holds only a handful of multi-second passes, and on a shared
    # host their walls drift together for seconds at a time; over such runs
    # the mean varies less from run to run than the median does.
    metrics = {
        "wall_s": statistics.fmean(walls),
        "wall_s_p90": _p90(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, {"passes": passes, "setup_walls_s": setup}


def measure_layers(runner: Runner, workload: str, seed: int,
                   seconds: float) -> tuple[dict, dict]:
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    stages = [runner.import_stages() for _ in range(IMPORT_SAMPLES)]
    untraced, traced = [], []

    def step():
        launches = WORKLOADS[workload](rng)
        u = runner.run_pass(launches, len(untraced), traced=False)
        t = runner.run_pass(launches, len(traced), traced=True)
        for lu, lt in zip(u["launches"], t["launches"]):
            if lu["sha256"] != lt["sha256"] and not (lu["failures"]
                                                     or lt["failures"]):
                runner.failed += 1
                lt["failures"].append("traced output differs from untraced")
                print(f"FAIL {lt['cmd']}: traced output differs from "
                      f"untraced", file=sys.stderr)
        untraced.append(u)
        traced.append(t)
    _repeat_until(deadline, step)
    metrics = {k: statistics.median(s[k] for s in stages) for k in stages[0]}
    per_pass = [layers.span_metrics(t.pop("spans")) for t in traced]
    for key in per_pass[0]:
        metrics[key] = statistics.median(p[key] for p in per_pass)
    for cmd in COMMANDS:
        walls = [sum(l["wall_s"] for l in u["launches"] if l["cmd"] == cmd)
                 for u in untraced]
        metrics[f"cli.{cmd}.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = (
        statistics.fmean(t["wall_s"] for t in traced)
        - statistics.fmean(u["wall_s"] for u in untraced))
    metrics["check.max_rel_err"] = runner.max_dev
    metrics["fail_frac"] = runner.failed / runner.attempted
    return metrics, {"passes": untraced + traced, "import_stages": stages}


def environment(root: str) -> dict:
    """What the numbers depend on besides the code: versions, cores, BLAS."""
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "executable": sys.executable,
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _terminate(signum, _frame):
    # unwinds through Runner.spawn, which kills and reaps the running launch
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qrelay", "cli.py")):
        print("error: run from a checkout root holding src/qrelay/cli.py",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(root, tag)
    try:
        source = runner.check_source()
        if args.trace:
            metrics, detail = measure_layers(runner, args.workload, args.seed,
                                             args.seconds)
            names = layers.PER_LAYER
        else:
            metrics, detail = measure_end_to_end(runner, args.workload,
                                                 args.seed, args.seconds)
            names = layers.END_TO_END
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(root, runner.work), ignore_errors=True)

    env = environment(root)
    passes = detail["passes"]
    cpu_per_wall = statistics.median(p["cpu_s"] / p["wall_s"] for p in passes)
    record = {"workload": args.workload, "why": WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "qrelay_source": source, "environment": env,
              "cpu_per_wall": cpu_per_wall, "metrics": metrics, **detail}
    record_path = os.path.join(root, WORK_DIR, tag + ".json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{runner.attempted} launches, {runner.failed} failed; "
          f"child CPU/wall {cpu_per_wall:.2f} on {env['cpus_usable']} CPUs, "
          f"BLAS env {env['blas_threads_env']}", file=sys.stderr)
    for name, unit in names:
        print(f"  {name:<46} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"record: {os.path.relpath(record_path, root)}", file=sys.stderr)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
