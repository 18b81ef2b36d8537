"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_commented_outputs():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    commented = [(got, line.split("#", 1)[1].strip())
                 for got, line in zip(printed, calls) if "#" in line]
    assert [want for _, want in commented] == [
        "[0.108 0.349 0.543]", "[-0.8124+0.5769j  0.1013-0.3404j]", "FixedPoint"]
    for got, want in commented:
        assert got == want
