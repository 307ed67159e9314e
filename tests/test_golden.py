"""Byte identity of explain documents against committed goldens.

Every ``--method``, with and without ``--exhaustive-cf``, runs on the two
fixtures and on a seeded planted-motif graph. Each case's documents are
compared byte for byte with ``tests/golden/<graph>/<method>[-exhaustive-cf].txt``
after the only run-dependent fields are blanked: ``generated_at`` and the
input paths (the input hashes stay). A change that keeps the goldens passing
writes the same documents as the code the goldens were made with.

Regenerate the inputs and goldens, from the repository root, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import re
import sys

import numpy as np
import pytest

from moexp.cli import main
from moexp.pipeline import METHODS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"

FIXTURES = ROOT / "fixtures"

# name -> (graph, weights, targets); each graph's edge weights are
# ``INPUTS / f"{name}_edge_weights.json"``.
GRAPHS = {
    "chain4": (FIXTURES / "chain4.json", FIXTURES / "chain4_weights.json", "all-test"),
    "triangle": (FIXTURES / "triangle.json", FIXTURES / "triangle_weights.json", "all-test"),
    "motif": (INPUTS / "motif.json", INPUTS / "motif_weights.json", "0,2,5"),
}
CASES = [(g, m, ex) for g in GRAPHS for m in METHODS for ex in (False, True)]
SEED = 7
_BLANK = re.compile(r'("(?:generated_at|path)": )"[^"\n]*"')


def golden_path(graph: str, method: str, exhaustive: bool) -> pathlib.Path:
    return GOLDEN / graph / f"{method}{'-exhaustive-cf' if exhaustive else ''}.txt"


def run_case(graph: str, method: str, exhaustive: bool, out_dir) -> str:
    """Run one explain case and return its normalized documents as one text."""
    g, w, targets = GRAPHS[graph]
    ew = INPUTS / f"{graph}_edge_weights.json"
    argv = ["explain", "--graph", str(g), "--weights", str(w), "--out", str(out_dir),
            "--targets", targets, "--method", method, "--seed", str(SEED), "--edge-weights", str(ew)]
    if exhaustive:
        argv.append("--exhaustive-cf")
    assert main(argv) == 0
    files = sorted(pathlib.Path(out_dir).glob("node_*.json"), key=lambda p: int(p.stem[5:]))
    return "".join(f"=== {p.name}\n" + _BLANK.sub(r'\1""', p.read_text()) for p in files)


def make_inputs() -> None:
    """Write the seeded planted-motif pair and one seeded edge-weight file per graph."""
    from moexp.io import load_graph, save_edge_weights, save_graph, save_model
    from moexp.synth import synth_graph

    graph, model = synth_graph("planted-motif", {}, SEED)
    save_graph(graph, INPUTS / "motif.json")
    save_model(model, INPUTS / "motif_weights.json")
    for name, (g, _, _) in GRAPHS.items():
        values = np.random.default_rng(SEED).random(load_graph(g).edge_count)
        save_edge_weights({eid: float(v) for eid, v in enumerate(values)}, INPUTS / f"{name}_edge_weights.json")


@pytest.mark.parametrize("graph,method,exhaustive", CASES)
def test_documents_match_golden(graph, method, exhaustive, tmp_path, monkeypatch):
    monkeypatch.delenv("MOEXP_SEED", raising=False)
    expected = golden_path(graph, method, exhaustive).read_text()
    assert run_case(graph, method, exhaustive, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    INPUTS.mkdir(parents=True, exist_ok=True)
    make_inputs()
    for case in CASES:
        path = golden_path(*case)
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            path.write_text(run_case(*case, tmp))
    print(f"wrote {len(CASES)} goldens under {GOLDEN}", file=sys.stderr)
