"""Golden CLI transcripts: stdout bytes, exit code and stderr of each case
in tests/golden/index.json must match what tests/golden/record.py wrote."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fqpoints.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(INDEX))
def test_transcript_is_unchanged(name):
    case = INDEX[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert err.getvalue() == case["stderr"]
    assert out.getvalue().encode() == (GOLDEN / f"{name}.out").read_bytes()
