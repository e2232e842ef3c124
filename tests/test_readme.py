"""README's Library example runs as written and gives the results its
comments claim, and README lists exactly the names ``l2lab`` exports.

Each line of the code block is run in turn.  A line that is a bare
expression with a comment states its result: the comment must match the
value's ``repr``, with ``...`` standing for any text.
"""

import ast
import re
from pathlib import Path

import l2lab

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    namespace = {}
    checked = []
    for line in _library_block().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        stmt = ast.parse(code).body[0]
        if isinstance(stmt, ast.Expr) and comment.strip():
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            pattern = ".*".join(map(re.escape, comment.strip().split("...")))
            assert re.fullmatch(pattern, repr(value)), (code, repr(value))
            checked.append(code.strip())
        else:
            exec(compile(code, "README", "exec"), namespace)
    assert checked == ["lat.length, len(lat), sorted(lat.covers)",
                       "is_length_two(ps, lat)", 'classify_extension(a)["case"]']


def test_readme_lists_the_exports():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("`l2lab` exports:", 1)[1].split("Everything in", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(l2lab.__all__)
