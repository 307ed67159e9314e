#!/usr/bin/env python3
"""Fail unless every benchmark workload still writes the same documents.

Runs ``benchmark/run.py --workload all --seed 3 --seconds 1`` and compares
the document digest it prints for each workload (a hash of the explain
documents without ``generated_at``) with the digest recorded below. A
change that keeps the digests writes the same bytes as the code they were
recorded from. Run from the repository root:

    python3 scripts/check_digests.py
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "benchmark/run.py", "--workload", "all", "--seed", "3", "--seconds", "1"]
EXPECTED = {
    "erdos-c4-docs": "74064d63253402c1054968d3af841e75f5651bb8bf18bc0f00cfc5ed81131f3f",
    "erdos-c5-score": "d7709fac4952f64c1a876b1e6ea9011980df584d99a1ff3dacf224d3a62c5e56",
    "erdos-gradfd": "96e53d827673e9049df656ab324c859f567cbdeb1208b9a73f269a52b6e02686",
    "star-hub-exh": "7b64d92ec1717eb1efcee8a529f487eb918e1a79bba512fbec6b01bd4019d5d3",
}


def printed_digests(output: str) -> dict:
    """Workload name -> digest, from the ``== name`` and ``digest`` lines of a run."""
    found, name = {}, None
    for line in output.splitlines():
        if line.startswith("== "):
            name = line[3:].strip()
        elif (match := re.match(r"digest (\S+)", line)) and name is not None:
            found[name] = match.group(1)
    return found


def main() -> int:
    proc = subprocess.run(COMMAND, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        print(f"error: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    found = printed_digests(proc.stdout)
    bad = 0
    for name, want in EXPECTED.items():
        got = found.get(name, "missing")
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got}" + ("" if ok else f" (expected {want})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
