"""The CLI transcript: every pinned invocation prints exactly what it printed
when the transcript was taken.

``tests/cli_transcript.json`` holds argv, exit code, stdout and stderr of
each call, and the numpy version it was taken with.  Each call is replayed
in-process through ``extropy.cli.main`` and compared byte for byte, and
every pinned stderr keeps the README's contract: empty on exit 0, one JSON
error document of the exit code's type on exit 2 or 3.  The
file is regenerated only by ``scripts/cli_transcript.py --write``, so a
change that moves a digit shows as a diff of the file.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli

TRANSCRIPT = json.loads(
    (Path(__file__).resolve().parent / "cli_transcript.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", TRANSCRIPT["calls"], ids=lambda e: e["name"])
def test_cli_call_is_byte_identical(entry):
    code, out, err = run_cli(*entry["argv"])
    context = f"pinned with numpy {TRANSCRIPT['numpy']}, running {np.__version__}"
    assert code == entry["exit"], context
    assert out == entry["stdout"], context
    assert err == entry["stderr"], context


@pytest.mark.parametrize("entry", TRANSCRIPT["calls"], ids=lambda e: e["name"])
def test_stderr_is_empty_or_one_error_document(entry):
    if entry["exit"] == 0:
        assert entry["stderr"] == ""
        return
    kind = {2: "validation", 3: "numerical"}[entry["exit"]]
    assert entry["stderr"].endswith("}\n") and entry["stderr"].count("\n") == 1
    doc = json.loads(entry["stderr"])
    assert list(doc) == ["error"]
    assert set(doc["error"]) == {"type", "class", "message"}
    assert doc["error"]["type"] == kind
