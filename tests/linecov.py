"""Print each statement of src/krrdeteq/*.py that no tier-1 test executes, then the counts.

It runs the tier-1 suite in this interpreter under ``conftest.executed_lines``. A statement counts by its first line;
docstrings and the statements outside function bodies, which run at import, are left out. Child interpreters are not
traced, so a line that only a subprocess runs is listed: the JSON branch of ``emit_results``, for one, runs only in the
goldens' child interpreter.

    PYTHONPATH=src python tests/linecov.py [pytest arguments]   # from the repository root
"""

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from conftest import SRC, executed_lines  # noqa: E402


def statements(path):
    """line -> statement, for the statements in function bodies, docstrings left out."""
    found = {}
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                if isinstance(node, ast.stmt) and node is not func and not docstring:
                    found.setdefault(node.lineno, node)
    return found


if __name__ == "__main__":
    seen = executed_lines(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
    missed = [(path.name, line, node) for path in sorted(SRC.glob("*.py")) for line, node in sorted(statements(path).items())
              if (str(path), line) not in seen]
    for name, line, node in missed:
        print(f"{name}:{line}: {ast.unparse(node).splitlines()[0]}")
    print(f"{len(missed)} statements not executed, {sum(isinstance(node, ast.Raise) for *_, node in missed)} of them raise")
