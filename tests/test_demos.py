"""Demo transcripts: each script in demos/, run in-process as `__main__`,
prints exactly the stdout that tests/golden/record.py recorded for it."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_record",
                                               GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

SCRIPTS = sorted(record.DEMO_SOURCES.glob("*.py"))


def test_every_demo_has_a_transcript():
    recorded = sorted(p.stem for p in record.DEMO_OUTPUTS.glob("*.out"))
    assert recorded == [s.stem for s in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.stem)
def test_demo_output_is_unchanged(script):
    out = record.run_demo(script)
    assert out.encode() == (record.DEMO_OUTPUTS / f"{script.stem}.out").read_bytes()
