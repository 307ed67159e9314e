"""Help, usage and argument errors of the ``moexp`` command, against a golden.

``cli.main`` builds the arguments of the one command it runs. Each case's
exit status, stdout and stderr (``COLUMNS=80``) are compared with
``tests/golden/usage.json``, recorded on the Python version it names.
argparse lays its texts out differently in some versions, so on another
version each case is compared with the parser that carries every
command's arguments instead.

Regenerate the golden, from the repository root, with::

    PYTHONPATH=src python tests/test_usage.py
"""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from moexp import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "usage.json"
ROOT = GOLDEN.parent.parent.parent

_INPUTS = ["--graph", "g.json", "--weights", "w.json", "--out", "out"]
CASES = [
    ["-h"],
    ["--help", "explain"],
    *([command, "-h"] for command in ("explain", "enumerate", "shapley", "robustness", "synth")),
    [],
    ["--bogus"],
    ["bogus"],
    ["explain"],
    ["enumerate", "--graph", "g.json"],
    ["explain", *_INPUTS, "--bogus"],
    ["explain", *_INPUTS, "--method", "nope"],
    ["explain", *_INPUTS, "-C", "x"],
    ["shapley", *_INPUTS, "--epsilon"],
    ["robustness", *_INPUTS, "--mode", "nope"],
    ["synth", "--kind", "nope", "--out-graph", "g.json", "--out-weights", "w.json"],
    ["synth", "--out-graph", "g.json"],
    ["enumerate", "--graph", "g.json", "--out", "e.csv", "--weights", "w.json"],
]


def run_usage(argv, parse=None) -> dict:
    """Status, stdout and stderr of ``cli.main(argv)``, or of ``parse(argv)``
    (a parser's ``parse_args``); every case stops in the parser."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = (parse or cli.main)(list(argv))
        except SystemExit as exc:
            status = exc.code
    return {"argv": list(argv), "status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _version() -> str:
    return "%d.%d" % sys.version_info[:2]


@pytest.fixture
def golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    return json.loads(GOLDEN.read_text())


def test_golden_lists_every_case(golden):
    assert [case["argv"] for case in golden["cases"]] == CASES


def test_help_gives_the_package_summary():
    # The summary is the project description of pyproject.toml, as a sentence.
    project = (ROOT / "pyproject.toml").read_text()
    description = re.search(r'^description = "(.*)"$', project, re.MULTILINE).group(1)
    assert cli.build_parser().description == description + "."


def run_without_docstrings(argv) -> subprocess.CompletedProcess:
    """``python -OO`` with ``argv``, the package importable from its source."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-OO", *argv], env=env, capture_output=True, text=True, timeout=120)


def test_commands_run_without_docstrings(tmp_path):
    # python -OO strips docstrings, the package's summary among them.
    fixtures = ROOT / "fixtures"
    argv = ["explain", "--graph", str(fixtures / "chain4.json"), "--weights", str(fixtures / "chain4_weights.json")]
    proc = run_without_docstrings(["-m", "moexp.cli", *argv, "--targets", "2", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "node_2.json").is_file()


@pytest.mark.parametrize("script", ["run_demo.py", "run_robustness.py"])
def test_scripts_run_without_docstrings(script):
    # Each script's description is its docstring's first line.
    proc = run_without_docstrings([str(ROOT / "scripts" / script), "-h"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(argv) or "(none)" for argv in CASES])
def test_usage_matches_golden(index, golden):
    result = run_usage(CASES[index])
    assert result["status"] in (0, 2)
    if golden["python"] == _version():
        assert result == golden["cases"][index]
    else:
        assert result == run_usage(CASES[index], cli.build_parser().parse_args)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = [run_usage(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps({"python": _version(), "cases": cases}, indent=2) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
