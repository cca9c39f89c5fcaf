"""Checks on the package source itself."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import flagcoh

PACKAGE = Path(flagcoh.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_in_package_source() -> None:
    # asserts vanish under python -O; validation must raise explicitly
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the integer-only hot path: root-system build, the Dynkin neighbours, the
# root-chain pass, the pairwise Weyl product, the Weyl dimension, the chamber
# walk, the root-to-weight conversion, the parabolic partition, the packed-weight
# unpacking and the lowest-weight derivation
INTEGER_ONLY = {
    "_cartan_matrix",
    "_positive_root_closure",
    "_unpack",
    "_dynkin_neighbours",
    "build_root_system",
    "_root_pairings",
    "_pairwise_prod",
    "classify",
    "to_dominant",
    "weyl_dim",
    "_derive_lowest_weights",
    "root_to_weight_coords",
    "_build_parabolic_data",
}


def test_hot_path_never_references_fraction() -> None:
    seen = set()
    found = []
    for path in SOURCES:
        for fn in ast.walk(_parse(path)):
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


# the per-query path: it builds its values with Weight._of and Root._of,
# from values already checked, and never re-validates them
PER_QUERY = {
    "__add__",
    "__sub__",
    "__neg__",
    "__rmul__",
    "to_dominant",
    "bwb_cohomology",
    "weyl_dim",
    "root_to_weight_coords",
    "h0_twisted_cotangent",
}
VALIDATING = {"Weight", "Root", "LieType", "fundamental_weight"}


def _per_query_functions():
    """(module file, function) for every PER_QUERY function; the operators are those of Weight."""
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and node.name in PER_QUERY:
                yield path, node
            elif isinstance(node, ast.ClassDef) and node.name == "Weight":
                yield from ((path, fn) for fn in node.body if isinstance(fn, ast.FunctionDef) and fn.name in PER_QUERY)


def test_per_query_path_never_calls_a_validating_constructor() -> None:
    seen = set()
    found = []
    for path, fn in _per_query_functions():
        seen.add(fn.name)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in VALIDATING:
                found.append(f"{path.name}:{node.lineno} {name}( in {fn.name}")
    assert seen == PER_QUERY
    assert found == []


def test_cli_import_leaves_fractions_and_csv_out() -> None:
    # no module imports fractions, which pulls in decimal (test_no_module_imports_fractions);
    # only CSV output needs csv, only a JSON string that needs escaping needs json, and
    # dataclasses pulls in inspect, ast and dis
    unwanted = "{'fractions', 'decimal', 'csv', 'json', 'dataclasses'}"
    code = f"import sys, flagcoh.cli; print(sorted({unwanted} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _exit_codes_and_modules_loaded(runs: list[list[str]]) -> str:
    """What a fresh interpreter reports after ``cli.run`` of each argv: (exit codes, json, fractions, decimal loaded)."""
    code = (
        "import sys, flagcoh.cli as cli\n"
        f"codes = [cli.run(argv) for argv in {runs!r}]\n"
        "sys.stderr.write(repr((codes, *(m in sys.modules for m in ('json', 'fractions', 'decimal')))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stderr


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_leaves_json_out(fmt) -> None:
    # the report writer is json.dumps' bytes without json; only a string that needs escaping loads it.
    # Rank 4 includes the golden check of (C3, 3), a Weyl dimension of A2, so no sweep loads fractions
    runs = [["verify", "--sweep", sweep, "--max-rank", "4", "--format", fmt] for sweep in ("lungo", "studiopesi")]
    assert _exit_codes_and_modules_loaded(runs) == "([0, 0], False, False, False)"


QUERY_RUNS = [
    ["info", "E", "8"],
    ["parabolic", "F", "4", "--node", "4"],
    ["bwb", "A", "2", "--weight=-1,0"],
    ["bwb", "A", "1", "--weight=-3"],
    ["dim", "E", "7", "--weight", "1,0,0,0,0,0,0"],
    ["h0-cotangent", "B", "4", "--node", "2", "--twist", "1"],
    ["sigma", "F", "4", "--node", "4", "--degree", "3"],
    ["macaulay", "B", "2", "--node", "1", "--degree", "3", "--twist", "3"],
]


def test_query_json_leaves_json_out() -> None:
    # the query commands write JSON through the report writer, so they do not load json, nor fractions
    runs = [[*argv, "--format", "json"] for argv in QUERY_RUNS]
    assert _exit_codes_and_modules_loaded(runs) == f"({[0] * len(runs)}, False, False, False)"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of every module a source imports, at any depth of the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses() -> None:
    # the records are slotted classes on rootsys._Record; dataclasses costs every process its import
    assert [path.name for path in SOURCES if "dataclasses" in _imported_modules(_parse(path))] == []


def _json_imports(node: ast.AST) -> set[int]:
    """Line numbers of the imports of json or a json submodule, at any depth under ``node``."""
    imports = (n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom)))
    return {n.lineno for n in imports if "json" in _imported_modules(n)}


def test_one_value_equality_and_one_json_writer() -> None:
    # records compare by value through rootsys._Value alone, and all JSON comes from verify's
    # writer: nothing calls json.dumps, and only _json_str imports json, to escape a string
    equality = []
    stray_json = []
    for path in SOURCES:
        tree = _parse(path)
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                equality += [
                    f"{node.name}.{fn.name}"
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and fn.name in ("__eq__", "__hash__")
                ]
            elif isinstance(node, ast.FunctionDef) and node.name == "_json_str":
                allowed |= _json_imports(node)
            elif isinstance(node, ast.Attribute) and node.attr == "dumps":
                stray_json.append(f"{path.name}:{node.lineno} .dumps")
        stray_json += [f"{path.name}:{line} json import" for line in sorted(_json_imports(tree) - allowed)]
    assert sorted(equality) == ["_Value.__eq__", "_Value.__hash__"]
    assert stray_json == []


def test_one_record_constructor() -> None:
    # _Record binds every record's fields; only the records that check their input, and the
    # per-query CohomologyTable, write their own __init__, and no record sets its slots by _set
    bases = {}
    own_init = []
    set_names = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                if any(isinstance(fn, ast.FunctionDef) and fn.name == "__init__" for fn in node.body):
                    own_init.append(node.name)
            if "_set" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                set_names.append(f"{path.name}:{node.lineno}")

    def is_record(name: str) -> bool:
        return name == "_Record" or any(is_record(b) for b in bases.get(name, ()))

    records = {n for n in bases if is_record(n)} - {"_Record"}
    assert {"RootSystem", "ParabolicData", "CaseResult", "Report"} <= records
    assert sorted(records.intersection(own_init)) == ["CohomologyTable", "LieType", "Root", "Weight"]
    assert set_names == []


def test_no_module_imports_fractions() -> None:
    # every Weyl product is an integer: no module imports fractions or decimal, or names Fraction
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        if (isinstance(node, (ast.Import, ast.ImportFrom)) and {"fractions", "decimal"} & _imported_modules(node))
        or (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert found == []


# the engine records whose every field must be read, each with the one function that builds them
BUILDERS = {"RootSystem": "build_root_system", "ParabolicData": "_build_parabolic_data"}
# their stored fields: each fact once, so nothing another stored value gives (the roots as Root
# objects, delta, the type of a pair or its depth) is stored; those are views built on each read
STORED_ROOT_SYSTEM = (
    "lie_type", "cartan", "scaled_symmetrizer", "root_chain", "weyl_denominator",
    "neighbours", "packed_weights", "coord_table",
)
STORED_PARABOLIC_DATA = ("node", "lowest_weights", "dim_y", "fano_index", "root_system")


def test_every_record_field_is_read_outside_its_builder() -> None:
    # a field that only its builder touches is dead weight: each must be read, as an attribute of that
    # name, by some other function under src/flagcoh, so that a field nobody reads cannot come back unseen
    fields = {}
    readers: dict[str, set[str]] = {}
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and node.name in BUILDERS:
                assigns = [s for s in node.body if isinstance(s, ast.Assign)]
                (slots,) = [s.value for s in assigns if s.targets[0].id == "__slots__"]
                fields[node.name] = ast.literal_eval(slots)
            elif isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                        readers.setdefault(sub.attr, set()).add(node.name)
    assert fields.keys() == BUILDERS.keys()
    assert fields == {"RootSystem": STORED_ROOT_SYSTEM, "ParabolicData": STORED_PARABOLIC_DATA}
    unread = [
        f"{cls}.{name}"
        for cls, names in fields.items()
        for name in names
        if not readers.get(name, set()) - {BUILDERS[cls]}
    ]
    assert unread == []


def _nested(value: object):
    """``value`` and everything inside it through tuples; a record is not opened."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _nested(item)


def test_built_records_store_no_root_or_weight() -> None:
    # the roots are stored once, as coord_table: a built RootSystem holds no Root or Weight anywhere in its
    # slots, and a ParabolicData none but the lowest weights it derived
    points = (flagcoh.Root, flagcoh.Weight)
    for t in flagcoh.all_lie_types(8):
        rs = flagcoh.root_system(t.family, t.rank)
        assert not any(isinstance(v, points) for value in rs._fields() for v in _nested(value))
        for r in range(1, t.rank + 1):
            pd = flagcoh.parabolic_data(rs, r)
            held = {name for name in pd.__slots__ for v in _nested(getattr(pd, name)) if isinstance(v, points)}
            assert held == (set() if pd.lowest_weights is None else {"lowest_weights"})
            assert not any(isinstance(getattr(pd, name), points) for name in pd.__slots__)


# the packed layout of the root closure: digit width, weight offset and the string-length digit
PACKED_LAYOUT = {"_WIDTH", "_OFFSET", "_P_DIGIT"}


def _names_referenced(node: ast.AST) -> set[str]:
    """The names a node reads, imports or binds: a Name, an attribute, or the names of an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name for alias in node.names}
    return set()


def test_only_rootsys_knows_the_packed_layout() -> None:
    # other modules read packed values through rootsys._unpack, never through the layout constants
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        if path.name != "rootsys.py"
        for node in ast.walk(_parse(path))
        for name in sorted(_names_referenced(node) & PACKED_LAYOUT)
    ]
    assert found == []
    rootsys_names = set().union(*map(_names_referenced, ast.walk(_parse(PACKAGE / "rootsys.py"))))
    assert PACKED_LAYOUT <= rootsys_names


# calls on the collector and on process exit: gc.freeze only at the end of cli.main, the others nowhere
COLLECTOR_CALLS = {"gc.freeze", "gc.disable", "gc.set_threshold", "os._exit"}


def _collector_calls(node: ast.AST) -> set[str]:
    """``module.name`` for a COLLECTOR_CALLS attribute read (``gc.freeze``) or import (``from gc import freeze``)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = {f"{node.value.id}.{node.attr}"}
    elif isinstance(node, ast.ImportFrom):
        names = {f"{node.module}.{alias.name}" for alias in node.names}
    else:
        names = set()
    return names & COLLECTOR_CALLS


def test_only_the_command_line_freezes_the_heap() -> None:
    # cli.main freezes the heap as its process ends; cli.run and the library keep the caller's
    # collector, and nothing switches it off, retunes it or skips the exit handlers
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(_parse(path))
        for name in sorted(_collector_calls(node))
    ]
    (main,) = [fn for fn in _parse(PACKAGE / "cli.py").body if isinstance(fn, ast.FunctionDef) and fn.name == "main"]
    in_main = [f"cli.py:{node.lineno} {name}" for node in ast.walk(main) for name in sorted(_collector_calls(node))]
    assert found == in_main
    assert [entry.split()[1] for entry in in_main] == ["gc.freeze"]


def test_engine_modules_leave_the_wire_format_to_the_front_end() -> None:
    # every JSON shape lives in verify and cli
    for name in ("rootsys.py", "bwb.py", "parabolic.py"):
        tree = _parse(PACKAGE / name)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "to_json_dict" not in defined, name
        assert "json" not in _imported_modules(tree), name


# every public name of the package, so that unused API cannot grow back unseen
PUBLIC_NAMES = [
    "CaseResult",
    "CohomologyTable",
    "ConfigError",
    "Family",
    "LieType",
    "MAX_RANK",
    "MacaulayStatus",
    "ParabolicData",
    "Report",
    "Root",
    "RootSystem",
    "UnsupportedPairError",
    "Weight",
    "all_lie_types",
    "build_root_system",
    "bwb_cohomology",
    "check_lemma_studiopesi",
    "check_theorem_lungo",
    "classify",
    "classify_cotangent_twist_weights",
    "emit_report",
    "fundamental_weight",
    "h0_twisted_cotangent",
    "konno_lowest_weights",
    "konno_pairs",
    "macaulay_exceptions",
    "parabolic_data",
    "root_system",
    "root_to_weight_coords",
    "sigma",
    "to_dominant",
    "weyl_dim",
]


def test_public_names_are_the_listed_ones() -> None:
    names = set()
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(n for n in names if not n.startswith("_")) == PUBLIC_NAMES
    assert all(hasattr(flagcoh, n) for n in PUBLIC_NAMES)
