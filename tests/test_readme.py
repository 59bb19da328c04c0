"""The README's library example runs against the current API, and every
expression commented with a Fraction literal evaluates to it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FRACTION_LITERAL = re.compile(r"Fraction\(-?\d+, \d+\)")


def _library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example():
    namespace = {}
    checked = 0
    for line in _library_example().splitlines():
        code, _, comment = line.partition("#")
        literal = FRACTION_LITERAL.match(comment.strip())
        if literal:
            assert eval(code, namespace) == eval(literal.group(), namespace), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
