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


# the integer-only hot path: root-system build, the Dynkin neighbours, the
# root-chain pass, the chamber walk, the copairing, the root-to-weight
# conversion, the parabolic partition and the lowest-weight derivation
INTEGER_ONLY = {
    "_cartan_matrix",
    "_positive_root_closure",
    "_dynkin_neighbours",
    "build_root_system",
    "_root_pairings",
    "classify",
    "to_dominant",
    "weyl_dim",
    "_derive_lowest_weights",
    "copairing",
    "root_to_weight_coords",
    "_weight_coords",
    "_build_parabolic_data",
}


def test_hot_path_never_references_fraction() -> None:
    seen = set()
    found = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(fn, ast.FunctionDef) and fn.name in INTEGER_ONLY:
                seen.add(fn.name)
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if (isinstance(node, ast.Name) and node.id == "Fraction")
                    or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                ]
    assert seen == INTEGER_ONLY
    assert found == []
