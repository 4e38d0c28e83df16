"""The public surface matches the README, and the library carries no dead imports."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import eufinterp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eufinterp"


def readme_library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_exports_are_the_readme_library_names():
    listed = re.findall(r"^\* `(\w+)", readme_library_section(), re.MULTILINE)
    assert sorted(eufinterp.__all__) == sorted(listed)
    assert all(hasattr(eufinterp, name) for name in eufinterp.__all__)


def test_readme_example_prints_the_documented_interpolant():
    code = readme_library_section().split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if "print(" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_library_modules_import_nothing_unused():
    assert unused_imports("import os\nfrom re import sub, match\nmatch\n") == {"os", "sub"}
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}
