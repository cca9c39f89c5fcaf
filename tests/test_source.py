"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import flagcoh

SOURCES = sorted(Path(flagcoh.__file__).parent.glob("*.py"))


def test_no_assert_in_package_source() -> None:
    # asserts vanish under python -O; validation must raise explicitly
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
