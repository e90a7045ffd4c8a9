"""The README's library quick tour, run as a doctest."""

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    # only the ">>>" block of the tour's fence: the closing ``` would
    # otherwise be read as expected output
    text = README.read_text(encoding="utf-8")
    fence = re.compile(r"## Library quick tour\n\n```python\n(.*?)^```", re.S | re.M)
    match = fence.search(text)
    assert match, "README.md has no Library quick tour fence"
    lineno = text.count("\n", 0, match.start(1))
    test = doctest.DocTestParser().get_doctest(
        match.group(1), {}, "Library quick tour", str(README), lineno
    )
    out = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=out.write)
    assert result.attempted >= 10
    assert result.failed == 0, out.getvalue()
