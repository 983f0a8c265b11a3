"""Rules the library's source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

LIBRARY = sorted((Path(__file__).parents[1] / "src" / "orbitfl").glob("*.py"))


# python -O strips assert statements, and every test runs again under -O, so
# an invariant the library checks must raise on its own to hold there too.
def test_the_library_has_no_assert_statement():
    assert {"sim.py", "protocol.py"} <= {path.name for path in LIBRARY}
    found = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
