"""The README's "Library use" block runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_block_prints_what_its_comments_say():
    """Each print line of the block carries its output as a comment; a
    comment ending in "..." gives the start of the output."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [line.partition("#")[2].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert expected[0] == "optimal 2953.8" and expected[2] == "3749.0 2755.0 2.136..."
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want
