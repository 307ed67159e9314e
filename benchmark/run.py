#!/usr/bin/env python3
"""Benchmark of the moexp explain CLI on seeded synthetic workloads.

Run from the repository root:

    python3 benchmark/run.py --workload erdos-c4-docs --seed 1 --seconds 55 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 55

``--trace 0`` generates the workload with ``moexp.synth``, draws one target
list from the seed and runs ``python -m moexp.cli explain --jobs 1`` children
on it, one after another, until about ``--seconds`` have passed. Between
children it times a 0.1 s batch of set-ups and a 0.1 s batch of the fixed
``probe_time`` work. It reports

- ``nodes_per_s``: targets over the median of the children's wall times,
  spawn to exit;
- ``setup_s``: median time of one ``io.load_graph`` + ``io.load_model`` on
  the workload's files, over the batches;
- ``peak_rss_mb``: median of each child's own peak RSS.

Both timings are given at the reference host speed: multiplied (for
``setup_s``, divided) by the run's median probe time over
``PROBE_REFERENCE_MS``. The shared host this was developed on runs 1.4x
faster or slower for minutes at a time, which moved raw figures of the same
code by more than the 25 % bound between sets of runs; ``BASELINE.md`` has
the measurements. The run record keeps the unscaled figures and every child
time. The process and its children are pinned to one CPU, so the probe
samples the CPU the children run on.

``--trace 1`` explains the same targets in this process through
``moexp.cli.main``, alternating plain passes and passes under
``tracing.Tracer``, and reports the per-layer metrics plus the share of
each pipeline stage.

Every document is checked (``checks.py``); nodes that fail count in
``failed``. The last line of stdout is the JSON result; the lines before it
give the run record, each metric by name with its unit, ``failed_frac``
and the document digest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Children are killed once a run reaches this age, so it ends within 180 s.
RUN_LIMIT_S = 165.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Counted before ``main`` pins the process to one CPU.
NPROC = len(os.sched_getaffinity(0))
END_TO_END = (("nodes_per_s", "nodes/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


# Median ``probe_time`` of the development host in its usual state;
# ``run_untraced`` reports timings at this host speed.
PROBE_REFERENCE_MS = 8.0


def batch_time(step, min_seconds: float) -> float:
    """Mean time of ``step`` over a batch of calls lasting ``min_seconds``.

    The host's speed flips within about 0.1 s (see ``BASELINE.md``), so one
    short call reads either mode; a batch reads the run's mix of them.
    """
    calls = 0
    start = perf_counter()
    while not calls or perf_counter() - start < min_seconds:
        step()
        calls += 1
    return (perf_counter() - start) / calls


@functools.cache
def _probe_input():
    import numpy as np

    rng = np.random.default_rng(20211129)
    features = rng.standard_normal((300, 8))
    adjacency = [sorted(rng.choice(300, size=4, replace=False).tolist()) for _ in range(300)]
    text = json.dumps({"features": features.tolist(), "adjacency": adjacency})
    return text, rng.standard_normal((8, 8))


def _probe_step() -> None:
    import numpy as np

    text, weights = _probe_input()
    data = json.loads(text)
    features = np.asarray(data["features"], dtype=float)
    agg = np.zeros_like(features)
    for v, nbrs in enumerate(data["adjacency"]):
        acc = features[v].copy()
        for u in nbrs:
            acc = acc + features[u]
        agg[v] = acc
    out = np.maximum(agg @ weights, 0.0)
    json.dumps([[round(x, 9) for x in row] for row in out.tolist()])
    sum(i * i % 7 for i in range(20000))


def probe_time(min_seconds: float) -> float:
    """Seconds per step of a fixed seeded mix of the kinds of work explain does.

    A step parses a small graph from JSON, sums neighbour feature rows in a
    Python loop of small NumPy ops, applies a weight matrix, dumps the result
    as JSON and runs a plain integer loop, in about 8 ms. It is the
    benchmark's own code, so a change to the program cannot move it; only
    the host's speed can.
    """
    _probe_input()
    return batch_time(_probe_step, min_seconds)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Inputs:
    """The generated graph and weights of one workload, in the work directory."""

    def __init__(self, workload, seed: int):
        from moexp import io
        from moexp.synth import synth_graph

        self.dir = WORK / f"{workload.name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        start = perf_counter()
        self.graph, model = synth_graph(workload.kind, workload.params, seed)
        self.synth_s = perf_counter() - start
        # Relative paths: the manifests embed them, and the digest must not
        # depend on where the checkout lives.
        self.graph_path = os.path.relpath(self.dir / "graph.json", ROOT)
        self.weights_path = os.path.relpath(self.dir / "weights.json", ROOT)
        io.save_graph(self.graph, self.graph_path)
        io.save_model(model, self.weights_path)

    def explain_args(self, workload, targets, out_dir) -> list:
        return [
            "explain",
            "--graph", self.graph_path,
            "--weights", self.weights_path,
            "--targets", ",".join(str(t) for t in targets),
            "-D", "2",
            *workload.flags,
            "--jobs", "1",
            "--out", os.path.relpath(out_dir, ROOT),
        ]


def setup_time(inputs: Inputs, min_seconds: float) -> float:
    """Seconds per ``load_graph`` + ``load_model`` on the workload's files.

    The benchmark's own objects are frozen out of the garbage collector
    while sampling, so a load pays for collecting what it allocates, as in
    a fresh explain process, and not for this process's heap.
    """
    from moexp import io

    def load():
        io.load_graph(inputs.graph_path)
        io.load_model(inputs.weights_path)

    gc.collect()
    gc.freeze()
    try:
        return batch_time(load, min_seconds)
    finally:
        gc.unfreeze()


def run_child(args: list, timeout: float, log_path: Path):
    """Run one explain child; return (wall s, own peak RSS MiB, exit code)."""
    env = dict(os.environ)
    env.pop("MOEXP_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "moexp.cli", *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Tally:
    """Document checks across the explain passes of one run.

    Every pass explains the same targets from the same inputs, so every
    pass must write the same bytes, apart from ``generated_at``.
    """

    def __init__(self, method: str, targets: list):
        self.method = method
        self.targets = targets
        self.attempted = 0
        self.failed = 0
        self.exit_codes_ok = True
        self.digests = []
        self.bytes = 0

    def check(self, out_dir: Path, exit_code: int) -> None:
        from checks import check_documents

        problems, digest, size = check_documents(str(out_dir), self.targets, self.method)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += len(self.targets)
        self.failed += len(problems)
        self.bytes += size
        self.exit_codes_ok &= exit_code == 0
        self.digests.append(digest)
        for target, reason in list(problems.items())[:3]:
            print(f"node {target}: {reason}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.exit_codes_ok and len(set(self.digests)) == 1

    def digest(self) -> str:
        if len(set(self.digests)) == 1:
            return self.digests[0]
        return "differs between passes: " + ",".join(sorted(set(self.digests)))


def keep_going(started: float, seconds: float, walls: list, deadline: float) -> bool:
    """Another pass if none ran yet, or if a median pass still fits."""
    if not walls:
        return True
    guess = statistics.median(walls)
    now = perf_counter()
    return now - started + guess <= seconds and now + guess < deadline


def run_untraced(workload, seed: int, seconds: float, deadline: float):
    """Explain children on one seeded target list until ``seconds`` pass."""
    from workloads import draw_targets

    inputs = Inputs(workload, seed)
    targets = draw_targets(workload, inputs.graph, seed)
    tally = Tally(workload.method, targets)
    probe = [probe_time(0.1) for _ in range(3)]
    setup = [setup_time(inputs, 0.1) for _ in range(3)]
    walls, rss = [], []
    started = perf_counter()
    while keep_going(started, seconds, walls, deadline):
        out = inputs.dir / f"out-{len(walls)}"
        wall, peak, code = run_child(
            inputs.explain_args(workload, targets, out),
            deadline - perf_counter(),
            inputs.dir / f"child-{len(walls)}.log",
        )
        if code != 0:
            print(f"child {len(walls)}: explain exited {code}", file=sys.stderr)
        tally.check(out, code)
        walls.append(wall)
        rss.append(peak)
        # Sampled between children, so they see the same host states.
        probe.append(probe_time(0.1))
        setup.append(setup_time(inputs, 0.1))
    nodes_per_s = len(targets) / statistics.median(walls)
    setup_s = statistics.median(setup)
    # Host speed over the run, as the probe's time against its reference.
    slowdown = statistics.median(probe) * 1e3 / PROBE_REFERENCE_MS
    metrics = {
        "nodes_per_s": nodes_per_s * slowdown,
        "setup_s": setup_s / slowdown,
        "peak_rss_mb": statistics.median(rss),
    }
    info = {
        "child_wall_s": walls,
        "nodes_per_s_unscaled": nodes_per_s,
        "setup_s_unscaled": setup_s,
        "host_probe_ms": statistics.median(probe) * 1e3,
        "batches": len(probe),
        "doc_kib_per_node": tally.bytes / 1024 / tally.attempted,
    }
    return inputs, targets, tally, metrics, info


def run_traced(workload, seed: int, seconds: float, deadline: float):
    """Alternate plain and traced in-process passes until ``seconds`` pass."""
    from moexp import cli
    from tracing import Tracer, layer_metrics, stage_shares
    from workloads import draw_targets

    inputs = Inputs(workload, seed)
    targets = draw_targets(workload, inputs.graph, seed)
    tally = Tally(workload.method, targets)
    tracer = Tracer()
    probe = [probe_time(0.1) for _ in range(3)]
    plain, traced, walls = [], [], []
    started = perf_counter()
    while keep_going(started, seconds, walls, deadline):
        # Alternate which pass goes first so warm-up does not bias the overhead.
        order = (False, True) if len(walls) % 2 == 0 else (True, False)
        pair_start = perf_counter()
        for with_trace in order:
            out = inputs.dir / f"{'traced' if with_trace else 'plain'}-{len(walls)}"
            args = inputs.explain_args(workload, targets, out)
            with tracer if with_trace else contextlib.nullcontext():
                start = perf_counter()
                code = cli.main(args)
                (traced if with_trace else plain).append(perf_counter() - start)
            tally.check(out, code)
        walls.append(perf_counter() - pair_start)
    nodes = len(targets) * len(traced)
    metrics = layer_metrics(tracer, nodes, statistics.median(plain), statistics.median(traced))
    info = {
        "plain_s": plain,
        "traced_s": traced,
        "absent": tracer.absent,
        "host_probe_ms": statistics.median(probe) * 1e3,
    }
    return inputs, targets, tally, metrics, info, stage_shares(tracer)


def run_workload(workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run one workload, print its record and metrics, return the result object."""
    import numpy

    if trace:
        from tracing import PER_LAYER

        inputs, targets, tally, values, info, shares = run_traced(workload, seed, seconds, deadline)
        units = {name: (unit, moves) for name, unit, _, moves in PER_LAYER}
    else:
        inputs, targets, tally, values, info = run_untraced(workload, seed, seconds, deadline)
        units = {name: (unit, None) for name, unit in END_TO_END}
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "synth_s": inputs.synth_s,
        "targets": targets,
        **info,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in values.items():
        unit, moves = units[name]
        print(f"{name} = {value:.6g} {unit}" + (f"    [moves {moves}]" if moves else ""))
    if trace:
        for stage, share in shares.items():
            print(f"stage {stage:<13} {share:7.1%}")
        for name in info["absent"]:
            print(f"absent layer function: {name}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac = {failed_frac:.6g} ratio ({tally.failed} of {tally.attempted} nodes)")
    print(f"digest {tally.digest()}  (documents without generated_at)")
    shutil.rmtree(inputs.dir, ignore_errors=True)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moexp" / "cli.py").is_file():
        print(f"error: no moexp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    os.chdir(ROOT)
    # One CPU for this process and every explain child, so the probe and
    # setup batches between children sample the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        deadline = perf_counter() + RUN_LIMIT_S
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    if len(names) == 1:
        print(json.dumps(results[names[0]], sort_keys=True))
        return 0
    if not args.trace:
        print(f"{'workload':<16}{'nodes_per_s':>13}{'setup_s':>10}{'peak_rss_mb':>13}{'failed_frac':>13}")
        for name, res in results.items():
            m = res["metrics"]
            print(
                f"{name:<16}{m['nodes_per_s']['value']:>13.4g}{m['setup_s']['value']:>10.4g}"
                f"{m['peak_rss_mb']['value']:>13.4g}{res['failed'] / res['attempted']:>13.4g}"
            )
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
