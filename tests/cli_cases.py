"""The CLI's failure cases, one row each, run by ``tests/test_cli_cases.py``.

``{name}`` in a row's ``argv`` (split as a shell would) and ``err`` is the
path ``name`` in the run's temp dir, where ``dirs`` are made and ``files``
written first: the bytes given, or a copy of the file given. stderr must
equal ``err`` (``match`` "whole"), start with it and be one line
("prefix"), or end with it ("suffix"). ``exists`` and ``absent`` name paths
in the temp dir, and no ``.tmp-*.part`` file may be left in it.
"""

import pathlib
from dataclasses import dataclass, field

from moexp import METHODS

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


@dataclass(frozen=True)
class Case:
    id: str
    argv: str
    status: int
    err: str
    match: str = "whole"
    files: dict = field(default_factory=dict)
    dirs: tuple = ()
    exists: tuple = ()
    absent: tuple = ()


CHAIN = {"g.json": FIXTURES / "chain4.json", "w.json": FIXTURES / "chain4_weights.json"}
MOTIF = {"g.json": INPUTS / "motif.json", "w.json": INPUTS / "motif_weights.json"}
NOT_JSON = {"truncated": b'{"nodes": [', "not-utf-8": b"\xff\xfe", "nested": b"[" * 200_000}
INPUT_FLAGS = {"--graph": "{g.json}", "--weights": "{w.json}", "--edge-weights": "{e.json}"}
CSV = {
    "enumerate": "enumerate --graph {g.json}",
    "shapley": "shapley --graph {g.json} --weights {w.json}",
    # A message sweep needs two feature dimensions, which chain4 has not.
    "robustness": "robustness --graph {g.json} --weights {w.json} --mode weights",
}

CASES = [
    # robustness reads no edge weights: one error for the run, before the (missing) inputs are read.
    Case("robustness-external-weights", "robustness --graph {none.json} --weights {none.json} --method external-weights"
         " --out {sweep.csv}", 1, "error: method external-weights needs edge weights, which robustness does not read\n",
         absent=("sweep.csv",)),
    # A sweep strength out of range: one error for the run, before the (missing) inputs are read.
    *(Case(f"robustness-{flag[2:]}={value}", "robustness --graph {none.json} --weights {none.json} "
           f"{flag} {value} --out {{sweep.csv}}", 1, f"error: {flag} must be finite and non-negative, got {value}\n",
           absent=("sweep.csv",))
      for flag in ("--magnitude", "--max-distance") for value in ("-1.0", "inf", "nan")),
    *(Case(command + "-seed", CSV[command] + " --targets 2 --out {out.csv} --seed 1", 2,
           "moexp: error: unrecognized arguments: --seed 1\n", "suffix", absent=("out.csv",))
      for command in ("enumerate", "shapley")),
    # A node that fails is reported and counted; the CSV holds the rows of the others.
    *(Case(command + "-missing-target", CSV[command] + " --targets 2,9 --out {out.csv}", 1,
           "node 9: ValueError: target node missing: 9\n1 of 2 nodes failed\n", files=CHAIN, exists=("out.csv",))
      for command in ("enumerate", "shapley", "robustness")),
    # explain writes an error document for the missing node and counts it.
    Case("explain-missing-target", "explain --graph {g.json} --weights {w.json} --targets 1,9 --out {out}", 1,
         "node 9: ValueError: target node missing: 9\n1 of 2 nodes failed\n", files=CHAIN,
         exists=("out/node_1.json", "out/node_9.json")),
    # A node document that cannot be written fails its node alone, and so does its error document;
    # stderr names the random .part file.
    *(Case(f"explain-unwritable-document-jobs-{jobs}", "explain --graph {g.json} --weights {w.json} --targets 0,1,2,3"
           f" --keep-going --jobs {jobs} --out {{out}}", 0, "1 of 4 nodes failed\n", "suffix", CHAIN,
           ("out/node_1.json",), exists=("out/node_0.json", "out/node_2.json", "out/node_3.json"))
      for jobs in (1, 2)),
    # A CSV that cannot be written is one error for the run.
    Case("enumerate-unwritable-out", "enumerate --graph {g.json} --targets 2 --out {out.csv}", 1,
         "error: [Errno 21] Is a directory: ", "prefix", CHAIN, ("out.csv",)),
    # An input that is not JSON fails the run and is named, whatever its role.
    *(Case(f"explain-{flag[2:]}-{name}", "explain --method external-weights --targets 2 --out {out} "
           + " ".join(f"{f} {path}" for f, path in {**INPUT_FLAGS, flag: "'{bad input.json}'"}.items()), 1,
           "error: {bad input.json}: not a JSON document: ", "prefix",
           {**CHAIN, "e.json": INPUTS / "chain4_edge_weights.json", "bad input.json": content}, absent=("out",))
      for flag in INPUT_FLAGS for name, content in NOT_JSON.items()),
    *(Case(f"enumerate-graph-{name}", "enumerate --graph {g.json} --targets 0 --out {out.csv}", 1,
           "error: {g.json}: not a JSON document: ", "prefix", {"g.json": content}, absent=("out.csv",))
      for name, content in NOT_JSON.items()),
    # An --edge-weights file is read whatever the method, since the manifest records it.
    *(Case(f"explain-{method}-empty-edge-weights", "explain --method " + method + " --targets 0 --out {out} "
           + " ".join(f"{f} {path}" for f, path in INPUT_FLAGS.items()), 1,
           "error: {e.json}: not a JSON document: ", "prefix", {**MOTIF, "e.json": b""}, absent=("out",))
      for method in METHODS),
    # A synth parameter that is no number, a bad count, or draws features that are not finite: no file is written.
    *(Case(f"synth-{kind}-{params.replace(' ', '-')}", f"synth --kind {kind} --seed 42"
           + "".join(f" --param {p}" for p in params.split()) + " --out-graph {g.json} --out-weights {w.json}", 1,
           f"error: {message}\n", absent=("g.json", "w.json"))
      for kind, params, message in [
          ("chain", "scale=inf", "scale must be finite, got inf"),
          ("star", "noise=nan", "noise must be finite, got nan"),
          ("erdos", "nodes=5 noise=1e308", "drawn features overflow: noise or scale too large for finite features"),
          ("chain", "nodes=3.5", "nodes must be an integer, got 3.5"),
          ("chain", "classes=0", "chain needs at least 2 classes (classes=0)"),
          ("star", "leaves=2.7", "leaves must be an integer, got 2.7"),
          ("erdos", "nodes=abc", "nodes must be an integer, got 'abc'"),
          ("erdos", "p=abc", "p must be a number, got 'abc'"),
          ("erdos", "noise=abc", "noise must be a number, got 'abc'"),
          ("chain", "noise=abc", "noise must be a number, got 'abc'"),
          ("chain", "scale=x", "scale must be a number, got 'x'"),
          ("erdos", "p=1.5", "p must lie in [0, 1]"),
      ]),
]
