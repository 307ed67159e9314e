"""Every row of ``cli_cases.CASES``, run through ``cli.main`` in-process and as
a child ``python -m moexp.cli``, each in a fresh temp dir with every warning
an error. The child runs the package this module imported: ``src/`` from a
checkout, the installed copy after ``pip install .``."""

import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest

import moexp
from moexp.cli import main

from cli_cases import CASES

PACKAGE_ROOT = str(pathlib.Path(moexp.__file__).resolve().parent.parent)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
@pytest.mark.parametrize("mode", ["in-process", "child"])
def test_cli_case(mode, case, tmp_path, capsys):
    def resolve(text):
        return re.sub(r"\{([^}]+)\}", lambda m: str(tmp_path / m.group(1)), text)

    for name in case.dirs:
        (tmp_path / name).mkdir(parents=True)
    for name, content in case.files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.read_bytes())
    argv = [resolve(arg) for arg in shlex.split(case.argv)]
    if mode == "child":
        # The demo step's warning guard: an EncodingWarning or a ResourceWarning fails the run.
        env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT, PYTHONWARNINGS="error", PYTHONWARNDEFAULTENCODING="1")
        command = [sys.executable, "-m", "moexp.cli", *argv]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
        status, err = proc.returncode, proc.stderr
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                status = exc.code
        err = capsys.readouterr().err
    want = resolve(case.err)
    assert status == case.status, err
    if case.match == "prefix":
        assert err.startswith(want) and err.count("\n") == 1, err
    elif case.match == "suffix":
        assert err.endswith(want), err
    else:
        assert err == want
    assert [p for p in case.exists if not (tmp_path / p).exists()] == []
    assert [p for p in case.absent if (tmp_path / p).exists()] == []
    assert list(tmp_path.rglob(".tmp-*.part")) == []
