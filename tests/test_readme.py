"""README's Library example runs, and prints what its comments say; the
sizes README states are the constants in src.

The python block under "## Library" runs as it stands.  Each print line that
carries a "# ..." comment must print that comment's leading words: the
comment is the printed line itself, or the printed line followed by a
remark, as in "# 1/4 True (exact Fractions)"."""

import contextlib
import io
import re
from pathlib import Path

from bellbox import cli, experiments

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_code() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_say():
    code = _library_code()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    # each print writes one line, so the k-th line printed is the k-th print's
    assert len(printed) == len(prints)
    checked = 0
    for line, text in zip(prints, printed):
        comment = re.search(r"\)\s+#\s*(.*)$", line)
        if comment is None:
            continue
        checked += 1
        words = comment.group(1)
        assert words == text or words.startswith(text + " "), (line, text)
    assert checked


# each size README states, as it writes it, and the constant it states
SIZES = {
    "8192": experiments._BLOCK_ROWS,
    "65,536": cli._WRITE_BYTES,
    "131,072": cli._RENDER_ROWS,
    "4,000,000": experiments.MAX_SWEEP_POINTS,
    "10,000,000": experiments.MAX_SAMPLES,
}


def test_readme_sizes_are_the_constants():
    text = README.read_text()
    for written, constant in SIZES.items():
        assert written in text
        assert int(written.replace(",", "")) == constant, written
