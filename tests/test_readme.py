"""The README's quick example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_reads_what_its_comments_say():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # Each line commented with a number computes that number, to 1e-15.
    stated = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        number = re.match(r"\s*([-+]?[0-9][0-9.e+-]*)", comment)
        if number:
            value, expected = eval(code, namespace), float(number.group(1))
            assert abs(value - expected) <= 1e-15 * abs(expected), line
            stated += 1
    assert stated == 2
    t = namespace["t"]
    assert abs(namespace["eval_polarized"](t) - 5.0) <= 1e-15 * 5.0
    assert abs(namespace["capacity"](t).value - 9.0) <= 1e-15 * 9.0
