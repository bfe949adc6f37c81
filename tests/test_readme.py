"""README's Library example runs against the current API.

The example is the first ``python`` block under the "## Library" heading;
it is run as written, so a renamed or removed name it uses fails here.
"""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, f"{README}:Library", "exec"), {})
    lines = printed.getvalue().splitlines()
    # one line per sweep, k = 0..max_iterations, each "k sup-error"
    assert [int(line.split()[0]) for line in lines] == list(range(7))
    assert all(float(line.split()[1]) >= 0.0 for line in lines)
