"""Every name a module exports is used by the package itself, not only by tests.

A name counts as used when it appears on a line of some module under
src/isotropy (the package __init__ excluded) other than its own def or
class line and its __all__ entry.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "isotropy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
LINES = [line for path in MODULES for line in path.read_text(encoding="utf-8").splitlines()]


def exported(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def used(name: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"\s*((def|class)\s+{re.escape(name)}\b|[\"']{re.escape(name)}[\"'],?\s*$)")
    return any(word.search(line) and not own.match(line) for line in LINES)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_exported_names_are_used_by_the_package(module):
    assert [name for name in exported(module) if not used(name)] == []
