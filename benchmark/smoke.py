#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in a few seconds.

Run from the repository root: ``python3 benchmark/smoke.py``. It runs a
tiny planted-motif workload through the untraced and the traced path and
checks that

- every metric of ``BENCHMARK.json`` prints by name with its unit, and the
  workloads and metrics there match the code;
- both paths check out with no failed node and give the same documents;
- every function the tracer wrapped is restored afterwards;
- a layer function that does not exist is reported absent, not a crash.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from time import perf_counter

import run
import tracing
from workloads import SMOKE, WORKLOADS


def module_state() -> dict:
    """Identity of every attribute of the moexp modules and their classes."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "moexp" or name.startswith("moexp."):
            for key, value in list(vars(module).items()):
                state[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        state[(name, key, attr)] = id(member)
    return state


def main() -> int:
    failures = []

    def check(ok: bool, what: str):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)
    import moexp.cli  # noqa: F401  (loads every layer module before the snapshot)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        all(w["name"] in WORKLOADS and w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"]),
        "BENCHMARK.json workloads are defined in workloads.py",
    )
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end metrics match run.py",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [(n, u, b) for n, u, b, _ in tracing.PER_LAYER],
        "BENCHMARK.json per_layer metrics match tracing.py",
    )

    deadline = perf_counter() + run.RUN_LIMIT_S
    for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            result = run.run_workload(SMOKE, 3, 1.0, trace, deadline)
        lines = out.getvalue().splitlines()
        label = "traced" if trace else "untraced"
        check(result["correct"] and result["failed"] == 0, f"{label}: every document passes its checks")
        check(
            {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in metrics},
            f"{label}: result carries every metric with its unit",
        )
        printed = all(
            any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines)
            for m in metrics
        )
        check(printed, f"{label}: every metric prints by name with its unit")

    before = module_state()
    _, _, plain, *_ = run.run_untraced(SMOKE, 3, 1.0, deadline)
    _, _, traced, *_ = run.run_traced(SMOKE, 3, 1.0, deadline)
    check(module_state() == before, "wrapped functions are restored after the traced run")
    check(set(plain.digests) == set(traced.digests), "untraced and traced paths give the same document digest")

    spans = tracing.SPANS
    tracing.SPANS = spans + (("moexp.graph", "no_such_function", "graph.gone"),)
    try:
        _, _, tally, _, info, _ = run.run_traced(SMOKE, 3, 1.0, deadline)
        check(
            info["absent"] == ["moexp.graph.no_such_function"] and tally.correct,
            "a missing layer function is reported absent and the traced run completes",
        )
    finally:
        tracing.SPANS = spans
    check(module_state() == before, "wrapped functions are restored after an absent layer")
    shutil.rmtree(run.WORK, ignore_errors=True)

    print("smoke: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
