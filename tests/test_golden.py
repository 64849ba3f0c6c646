"""Golden CLI transcripts: stdout bytes, exit code and stderr of each case
in tests/golden/index.json must match what tests/golden/record.py wrote."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())

_spec = importlib.util.spec_from_file_location("golden_record",
                                               GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("name", sorted(INDEX))
def test_transcript_is_unchanged(name):
    case = INDEX[name]
    code, out, err = record.run(case["argv"])
    assert code == case["exit"]
    assert err == case["stderr"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
