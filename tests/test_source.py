"""Checks on the package source itself."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

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


# the integer-only hot path: root-system build (the Cartan matrix with the
# Dynkin neighbours), the root-chain pass, the packed root columns and their
# pairings, the pairwise Weyl product, the Weyl dimension, the chamber walk
# and its w0 shortcut (the opposition involution), the parabolic partition,
# the packed-weight unpacking and the lowest-weight derivation
INTEGER_ONLY = {
    "_cartan_matrix",
    "_opposition",
    "_positive_root_closure",
    "_unpack",
    "build_root_system",
    "_assemble",
    "_levi_slice",
    "_root_pairings",
    "_root_columns",
    "_weyl_pairings",
    "_pairwise_prod",
    "classify",
    "to_dominant",
    "weyl_dim",
    "_derive_lowest_weights",
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


# the per-query path: it builds its values with Weight._of, from values
# already checked, and never re-validates them
PER_QUERY = {
    "__add__",
    "__sub__",
    "__neg__",
    "__rmul__",
    "to_dominant",
    "bwb_cohomology",
    "weyl_dim",
    "h0_twisted_cotangent",
}
VALIDATING = {"Weight", "LieType", "fundamental_weight"}


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
    # the query commands write JSON through the one JSON writer, _writer, so they do not load json, nor fractions
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
    # records compare by value through rootsys._Record alone, save RootSystem, which assigns itself
    # identity; all JSON comes from the one writer, _writer: nothing calls json.dumps, and only
    # _json_str imports json, to escape a string
    equality = []
    stray_json = []
    for path in SOURCES:
        tree = _parse(path)
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        bound = [(stmt.name, "def")]
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):  # to a name, or inside a tuple
                        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                        bound = [(n.id, "=") for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
                    else:
                        bound = []
                    equality += [f"{node.name}.{name} {kind}" for name, kind in bound if name in ("__eq__", "__hash__")]
            elif isinstance(node, ast.FunctionDef) and node.name == "_json_str":
                allowed |= _json_imports(node)
            elif isinstance(node, ast.Attribute) and node.attr == "dumps":
                stray_json.append(f"{path.name}:{node.lineno} .dumps")
        stray_json += [f"{path.name}:{line} json import" for line in sorted(_json_imports(tree) - allowed)]
    assert sorted(equality) == [
        "RootSystem.__eq__ =", "RootSystem.__hash__ =", "_Record.__eq__ def", "_Record.__hash__ def",
    ]
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
    assert sorted(records.intersection(own_init)) == ["CohomologyTable", "LieType", "Weight"]
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
# their stored fields: each fact once, so nothing another stored value gives (the roots as tuples,
# delta, the type of a pair or its depth) is stored; those are views built on each read
STORED_ROOT_SYSTEM = (
    "lie_type", "cartan", "symmetrizer", "root_chain", "weyl_denominator",
    "neighbours", "packed_weights", "coord_table", "root_columns",
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
    # the roots are stored once, as coord_table: a built RootSystem holds no Weight anywhere in its
    # slots, and a ParabolicData none but the lowest weights it derived
    for t in flagcoh.all_lie_types(8):
        rs = flagcoh.root_system(t.family, t.rank)
        assert not any(isinstance(v, flagcoh.Weight) for value in rs._fields() for v in _nested(value))
        for r in range(1, t.rank + 1):
            pd = flagcoh.parabolic_data(rs, r)
            held = {name for name in pd.__slots__ for v in _nested(getattr(pd, name)) if isinstance(v, flagcoh.Weight)}
            assert held == (set() if pd.lowest_weights is None else {"lowest_weights"})
            assert not any(isinstance(getattr(pd, name), flagcoh.Weight) for name in pd.__slots__)


# the packed layouts: the root closure's digit width, weight offset and string-length digit, and the
# largest digit of a root column
PACKED_LAYOUT = {"_WIDTH", "_OFFSET", "_P_DIGIT", "_COLUMN_DIGIT"}


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
    # other modules read packed values through rootsys._unpack and rootsys._weyl_pairings, never through the
    # layout constants
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


def test_only_rootsys_names_the_root_system_cache() -> None:
    # which root systems a memo may keep is decided in rootsys alone, by the instance root_system shares
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "rootsys.py"
        for node in ast.walk(_parse(path))
        if "_CACHE" in _names_referenced(node)
    ]
    assert found == []


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
    # every JSON shape lives in the front end: the writer _writer, verify's reports and cli's queries
    for name in ("rootsys.py", "bwb.py", "parabolic.py"):
        tree = _parse(PACKAGE / name)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "to_json_dict" not in defined, name
        assert "json" not in _imported_modules(tree), name


def test_oracles_import_no_package_module() -> None:
    # the test oracles stay independent of the engine they check: tests/oracles.py imports no flagcoh module,
    # at any depth, and no module by a relative or a dynamic import
    tree = _parse(Path(__file__).parent / "oracles.py")
    assert "flagcoh" not in _imported_modules(tree)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level] == []
    assert {"import_module", "__import__", "flagcoh"}.isdisjoint(set().union(*map(_names_referenced, ast.walk(tree))))


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
    "sigma",
    "to_dominant",
    "weyl_dim",
]


def test_public_names_are_the_listed_ones() -> None:
    # the package defines MAX_RANK and reads every other public name off its lazy name -> module table;
    # the engine modules are attributes of the package but not public names
    names = set(flagcoh._HOME)
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


# wrong values of every kind, the library twin of test_cli's argv grammar; each is made afresh, as an
# iterator is read once
WRONG = {
    "none": lambda: None,
    "float": lambda: 2.0,
    "bool": lambda: True,
    "str": lambda: "X",
    "dict": lambda: {0: 0},
    "set": lambda: {0},
    "mapping proxy": lambda: MappingProxyType({0: 0}),
    "iterator": lambda: iter((0,)),
    "tuple": lambda: (1, 0),
    "list": lambda: [1, 0],
    "root system": lambda: flagcoh.root_system("B", 3),
    "parabolic data": lambda: flagcoh.parabolic_data(flagcoh.root_system("B", 3), 2),
    "case result": lambda: flagcoh.CaseResult("B", 2, 1, 2, 3, 3, True),
    "cohomology table": lambda: flagcoh.bwb_cohomology(flagcoh.root_system("B", 3), flagcoh.Weight((1, 0, 0))),
    "lie type": lambda: flagcoh.LieType("B", 3),
    "weight": lambda: flagcoh.Weight((1, 0, 0)),
    "report": lambda: flagcoh.Report("s", "v", {}),
    # not a record, yet it has the fields that the records' readers read, the numeric ones floats
    "impostor": lambda: SimpleNamespace(
        fw_coords=(0.5, -1.0, 2.0), cartan=((2.0, -1.0, 0.0),) * 3, lowest_weights=(), dim_y=2.5, fano_index=1.0,
        cases=(), summary={}, params={}, sweep="s", version="v",
    ),
    "negative int": lambda: -1,
    "large int": lambda: 10**6,
}
# the public names that check no argument: the error classes, and the records only the engine builds
UNCHECKED = {"CaseResult", "CohomologyTable", "ConfigError", "MAX_RANK", "ParabolicData", "Report", "RootSystem",
             "UnsupportedPairError"}


def _library_contract() -> dict[str, list[tuple[object, tuple[str, ...], set[str]]]]:
    """Per public callable, its arguments of one valid call: each value, the names a TypeError may give the
    argument, and the WRONG kinds the argument accepts (the grammar's record where that record is valid)."""
    rs = flagcoh.root_system("B", 3)
    pd = flagcoh.parabolic_data(rs, 2)
    w = flagcoh.Weight((1, 0, 0))
    twisted = 2 * flagcoh.fundamental_weight(3, 2) - flagcoh.konno_lowest_weights(pd)[0]
    rs_arg, pd_arg = (rs, ("rs",), {"root system"}), (pd, ("pd",), {"parabolic data"})
    return {
        "Family": [("B", (), set())],
        "MacaulayStatus": [("no-exception", (), set())],
        "LieType": [("B", ("family",), set()), (3, ("rank",), set())],
        "Weight": [((1, 0, 0), ("fw_coords", "coordinates"), {"tuple", "list", "iterator"})],
        "all_lie_types": [(3, ("max_rank",), set())],
        "build_root_system": [(flagcoh.LieType("B", 3), ("t",), {"lie type"})],
        "fundamental_weight": [(3, ("rank",), set()), (1, ("node",), set())],
        "root_system": [("B", ("family",), set()), (3, ("rank",), set())],
        "bwb_cohomology": [rs_arg, (w, ("lam",), {"weight"})],
        "classify": [rs_arg, (w, ("v",), {"weight"})],
        "to_dominant": [rs_arg, (w, ("v",), {"weight"})],
        "weyl_dim": [rs_arg, (w, ("lam",), {"weight"})],
        "classify_cotangent_twist_weights": [
            rs_arg, (2, ("node",), set()), (2, ("twist a",), set()), (twisted, ("twisted_weight",), {"weight"}),
        ],
        "h0_twisted_cotangent": [pd_arg, (2, ("twist a",), {"large int"})],
        "konno_lowest_weights": [pd_arg],
        "konno_pairs": [(3, ("max_rank",), set())],
        "macaulay_exceptions": [
            pd_arg, (3, ("hypersurface degree d",), {"large int"}), (1, ("twist a",), {"large int"}),
        ],
        "parabolic_data": [rs_arg, (2, ("node",), set())],
        "sigma": [pd_arg, (3, ("hypersurface degree d",), {"large int"})],
        "check_lemma_studiopesi": [(2, ("max_rank",), set()), ((1,), ("twists", "each twist"), set())],
        "check_theorem_lungo": [(2, ("max_rank",), set())],
        "emit_report": [(flagcoh.Report("s", "v", {}), ("report",), {"report"}), ("json", (), set())],
    }


def test_library_contract_over_a_value_grammar() -> None:
    # every public callable, given one wrong argument at a time, raises TypeError, ValueError, ConfigError or
    # UnsupportedPairError, never AttributeError, and a TypeError names the argument as its message does
    contract = _library_contract()
    assert sorted([*contract, *UNCHECKED]) == PUBLIC_NAMES
    failures = []
    for name, args in contract.items():
        for k, (_, names, accepted) in enumerate(args):
            for kind, make in WRONG.items():
                if kind in accepted:
                    continue
                call = [value for value, _, _ in args]
                call[k] = make()
                try:
                    getattr(flagcoh, name)(*call)
                except TypeError as exc:
                    if not str(exc).startswith(tuple(f"{n} must be " for n in names)):
                        failures.append(f"{name} argument {k} given {kind}: {exc!r}")
                except (ValueError, flagcoh.UnsupportedPairError):
                    pass
                except Exception as exc:
                    failures.append(f"{name} argument {k} given {kind}: {exc!r}")
                else:
                    failures.append(f"{name} argument {k} given {kind}: accepted")
    assert failures == []


# one row per refusal of an int argument out of range or of a weight of the wrong length, every other argument
# valid: the call, on B3 and its node-2 pair, the class it raises and its whole message
REFUSALS = {
    "h0 twist 0": (lambda rs, pd: flagcoh.h0_twisted_cotangent(pd, 0), ValueError, "twist a must be >= 1, got 0"),
    "sigma d 2": (lambda rs, pd: flagcoh.sigma(pd, 2), ValueError, "hypersurface degree d must be >= 3, got 2"),
    "macaulay d 2": (
        lambda rs, pd: flagcoh.macaulay_exceptions(pd, 2, 0), ValueError, "hypersurface degree d must be >= 3, got 2"
    ),
    "macaulay a -1": (
        lambda rs, pd: flagcoh.macaulay_exceptions(pd, 3, -1), ValueError, "twist a must be >= 0, got -1"
    ),
    "konno_pairs 0": (lambda rs, pd: flagcoh.konno_pairs(0), ValueError, "max_rank must be >= 1, got 0"),
    "all_lie_types 0": (lambda rs, pd: flagcoh.all_lie_types(0), ValueError, "max_rank must be >= 1, got 0"),
    "konno_pairs 101": (
        lambda rs, pd: flagcoh.konno_pairs(101), flagcoh.ConfigError, "max_rank must be <= 100, got 101"
    ),
    "lungo 1": (lambda rs, pd: flagcoh.check_theorem_lungo(1), ValueError, "max_rank must be >= 2, got 1"),
    "studiopesi 1": (lambda rs, pd: flagcoh.check_lemma_studiopesi(1), ValueError, "max_rank must be >= 2, got 1"),
    "to_dominant short": (
        lambda rs, pd: flagcoh.to_dominant(rs, flagcoh.Weight((1, 1))), ValueError, "expected 3 coordinates, got 2"
    ),
    "weyl_dim short": (
        lambda rs, pd: flagcoh.weyl_dim(rs, flagcoh.Weight((1, 1))), ValueError, "expected 3 coordinates, got 2"
    ),
}


@pytest.mark.parametrize("call, cls, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_gives_its_class_and_whole_message(call, cls, message) -> None:
    rs = flagcoh.root_system("B", 3)
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as caught:
        call(rs, flagcoh.parabolic_data(rs, 2))
    assert caught.type is cls


# records, in a fresh interpreter, the package files that run: an audit hook on the exec event, which
# importlib raises for each module it runs and runpy for __main__
_RAN = """
import os, sys
ran = []

def _hook(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.path.basename(os.path.dirname(path)) == "flagcoh":
        ran.append(os.path.basename(path)[:-3])

sys.addaudithook(_hook)
"""

# imports flagcoh afresh and prints what the package promises its callers, bench/tracing.py among them
PACKAGE_CONTRACT = _RAN + """
import importlib, json
import flagcoh
engine = ("rootsys", "bwb", "parabolic", "verify")
facts = {"ran on import": list(ran)}
facts["registered"] = [m for m in engine if sys.modules[f"flagcoh.{m}"] is getattr(flagcoh, m)]
try:
    flagcoh.no_such_name
except AttributeError as exc:
    facts["missing"] = str(exc)
star = {}
exec("from flagcoh import *", star)
facts["star"] = sorted(set(star) - {"__builtins__"})
facts["dir covers"] = set(star) - {"__builtins__"} <= set(dir(flagcoh))
facts["max rank"] = flagcoh.MAX_RANK is flagcoh.rootsys.MAX_RANK
from flagcoh.rootsys import ConfigError
from flagcoh.parabolic import UnsupportedPairError
import flagcoh.cli as cli
facts["one class"] = [
    len({id(c) for c in paths})
    for paths in (
        (ConfigError, flagcoh.ConfigError, flagcoh.bwb.ConfigError, flagcoh.parabolic.ConfigError,
         flagcoh.verify.ConfigError, importlib.import_module("flagcoh.rootsys").ConfigError),
        (UnsupportedPairError, flagcoh.UnsupportedPairError, cli.parabolic.UnsupportedPairError,
         importlib.import_module("flagcoh.parabolic").UnsupportedPairError),
    )
]
facts["loaded once"] = sorted(ran) == sorted(set(ran))
before = len(ran)
importlib.reload(flagcoh)  # runs __init__ again, and keeps the modules
facts["reload keeps"] = ConfigError is flagcoh.rootsys.ConfigError and ran[before:] == ["__init__"]
print(json.dumps(facts))
"""


def test_package_contract() -> None:
    # import flagcoh runs no engine module, yet all four sit in sys.modules as package attributes
    out = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", PACKAGE_CONTRACT],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "ran on import": ["__init__"],
        "registered": ["rootsys", "bwb", "parabolic", "verify"],
        "missing": "module 'flagcoh' has no attribute 'no_such_name'",
        "star": PUBLIC_NAMES,
        "dir covers": True,
        "max rank": True,
        "one class": [1, 1],
        "reload keeps": True,
        "loaded once": True,
    }


# runs one argv as ``python -m flagcoh`` would and prints the package files that ran, in order
COMMAND_RUN = _RAN + """
import runpy
sys.argv = ["flagcoh", *ARGV]
try:
    runpy.run_module("flagcoh", run_name="__main__")
except SystemExit:
    pass
sys.stderr.write("\\n" + " ".join(ran))
"""

FRONT_END = {"__init__", "__main__", "cli"}
# each command and the modules it runs besides the front end; the JSON writer only where JSON is written
LOAD_SETS = [
    (["--version"], set()),
    (["--help"], set()),
    (["info", "E", "8", "--format", "xml"], set()),
    (["info", "E", "8"], {"rootsys"}),
    (["info", "E", "8", "--format", "json"], {"_writer", "rootsys"}),
    (["dim", "E", "7", "--weight", "1,0,0,0,0,0,0"], {"rootsys", "bwb"}),
    (["bwb", "A", "2", "--weight=-1,0"], {"rootsys", "bwb"}),
    (["parabolic", "F", "4", "--node", "4"], {"rootsys", "bwb", "parabolic"}),
    (
        ["h0-cotangent", "B", "4", "--node", "2", "--twist", "1", "--format", "json"],
        {"_writer", "rootsys", "bwb", "parabolic"},
    ),
    (["verify", "--sweep", "lungo", "--max-rank", "3"], {"_writer", "rootsys", "bwb", "parabolic", "verify"}),
]


@pytest.mark.parametrize("argv, modules", LOAD_SETS, ids=[" ".join(argv) for argv, _ in LOAD_SETS])
def test_each_command_runs_only_the_modules_it_uses(argv, modules) -> None:
    code = COMMAND_RUN.replace("ARGV", repr(argv))
    out = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr  # the command's own exit is caught in the child
    ran = out.stderr.rsplit("\n", 1)[-1].split()
    assert len(ran) == len(set(ran)), ran
    assert set(ran) == FRONT_END | modules
