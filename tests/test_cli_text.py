"""The CLI's help, usage and argument-error text, byte for byte.

``golden/cli_text.json`` holds, per case, the argv and the exact exit
code, stdout and stderr of ``main(argv)``: top-level and per-subcommand
help, the invalid-choice and unrecognized-argument errors (top-level usage
with every subcommand), a subparser's own usage error, two successful
calls, and calls where an argument after the first subcommand names
another (only the first is dispatched to).  argparse wraps its text to ``COLUMNS`` and words it differently
from one Python minor version to the next, so the cases are run at the
recorded width and only under the recorded version.
"""

import json
import sys
from pathlib import Path

import pytest

from crosscap.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_text.json").read_text())


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN["python"],
    reason=f"text recorded with Python {GOLDEN['python']}'s argparse",
)
@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_cli_text(name, capsys, monkeypatch):
    case = GOLDEN["cases"][name]
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
