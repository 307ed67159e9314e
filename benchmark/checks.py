"""Checks on the node documents that an explain run writes.

A document fails when it is missing, is not JSON, carries an ``error`` key,
has ``rank_sum != sim_rank + cf_rank``, is off the Pareto front under
``pareto-rank``, or has a ``full_distribution`` that is not finite or does
not sum to 1 within 1e-12. The digest hashes the raw bytes of every
document with the ``generated_at`` value blanked, so byte-identity between
two versions of the program shows as equal digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os


def _problem(doc, target: int, method: str) -> str | None:
    if not isinstance(doc, dict):
        return "not an object"
    if doc.get("node") != target:
        return f"node field {doc.get('node')!r}"
    if "error" in doc:
        return f"error document: {doc['error']}"
    dist = doc.get("full_distribution")
    if not isinstance(dist, list) or not dist:
        return "full_distribution missing"
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in dist):
        return "full_distribution not finite"
    if abs(math.fsum(dist) - 1.0) > 1e-12:
        return f"full_distribution sums to {math.fsum(dist)!r}"
    ranks = (doc.get("rank_sum"), doc.get("sim_rank"), doc.get("cf_rank"))
    if ranks[0] is not None and not (all(isinstance(r, int) for r in ranks) and ranks[0] == ranks[1] + ranks[2]):
        return "rank_sum != sim_rank + cf_rank"
    if method == "pareto-rank" and doc.get("on_front") is not True:
        return "selected pair not on the Pareto front"
    return None


def check_documents(out_dir: str, targets, method: str):
    """Check one batch; return ``(problems, digest, total_bytes)``.

    ``problems`` maps each failing target to the reason.
    """
    problems = {}
    digest = hashlib.sha256()
    total = 0
    for target in targets:
        path = os.path.join(out_dir, f"node_{target}.json")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            problems[target] = "no document"
            continue
        total += len(raw)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            problems[target] = f"not JSON: {exc}"
            continue
        manifest = doc.get("manifest") if isinstance(doc, dict) else None
        stamp = manifest.get("generated_at") if isinstance(manifest, dict) else None
        if isinstance(stamp, str):
            raw = raw.replace(json.dumps(stamp).encode(), b'""', 1)
        digest.update(raw)
        reason = _problem(doc, target, method)
        if reason is not None:
            problems[target] = reason
    return problems, digest.hexdigest(), total
