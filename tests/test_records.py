"""The public records: repr, equality, hashing, immutability and constructor defaults."""

from __future__ import annotations

import copy
import pickle
import re
from types import MappingProxyType

import pytest

from flagcoh import (
    CaseResult,
    CohomologyTable,
    Family,
    LieType,
    ParabolicData,
    Report,
    RootSystem,
    Weight,
    bwb_cohomology,
    parabolic_data,
    root_system,
)
from flagcoh.rootsys import _Record, build_root_system


def _case(**changes) -> CaseResult:
    fields = dict(family="B", rank=2, node=1, twist=2, h0=10, dim_y=3, passed=True)
    fields.update(changes)
    return CaseResult(**fields)


def test_reprs_are_the_dataclass_ones() -> None:
    rs = root_system("B", 2)
    assert repr(LieType("b", 3)) == "LieType(family=<Family.B: 'B'>, rank=3)"
    assert repr(Weight((1, -2))) == "Weight(fw_coords=(1, -2))"
    assert repr(rs) == (
        "RootSystem(lie_type=LieType(family=<Family.B: 'B'>, rank=2), cartan=((2, -1), (-2, 2)), "
        "symmetrizer=(2, 1), positive_roots=((0, 1), (1, 0), (1, 1), (1, 2)), "
        "weyl_vector=Weight(fw_coords=(1, 1)))"
    )
    assert repr(CohomologyTable()) == "CohomologyTable(degree=None, dominant_weight=None, dimension=None)"
    assert repr(bwb_cohomology(rs, Weight((1, 1)))) == (
        "CohomologyTable(degree=0, dominant_weight=Weight(fw_coords=(1, 1)), dimension=16)"
    )
    assert repr(parabolic_data(rs, 1)) == (
        "ParabolicData(lie_type=LieType(family=<Family.B: 'B'>, rank=2), node=1, dim_y=3, fano_index=3)"
    )
    case = _case()
    assert repr(case) == (
        "CaseResult(family='B', rank=2, node=1, twist=2, h0=10, dim_y=3, passed=True, witness=(), annotations=())"
    )
    assert repr(_case(witness=({"a": 1},), annotations=("x",))).endswith(
        "passed=True, witness=({'a': 1},), annotations=('x',))"
    )
    assert repr(Report(sweep="lungo", version="0.1.0", params={"a": 1})) == (
        "Report(sweep='lungo', version='0.1.0', cases=())"
    )
    assert repr(Report("lungo", "0.1.0", {"a": 1}, (case,))) == (
        f"Report(sweep='lungo', version='0.1.0', cases=({case!r},))"
    )


def test_value_records_compare_and_hash_by_their_fields() -> None:
    pairs = [
        (LieType("b", 3), LieType(Family.B, 3), LieType(Family.B, 4)),
        (Weight((1, -2)), Weight([1, -2]), Weight((1, 2))),
        (CohomologyTable(), CohomologyTable(None, None, None), CohomologyTable(0, Weight((0,)), 1)),
        (CohomologyTable(0, Weight((1, 1)), 16), bwb_cohomology(root_system("B", 2), Weight((1, 1))),
         CohomologyTable(0, Weight((1, 1)), 15)),
        (_case(), _case(), _case(passed=False)),
        (_case(annotations=("x",)), _case(annotations=("x",)), _case()),
    ]
    for a, same, other in pairs:
        assert a == same and not a != same
        assert hash(a) == hash(same)
        assert a != other and not a == other
    assert Report("s", "v", {"a": 1}) == Report("s", "v", {"a": 1}, ())
    assert Report("s", "v", {"a": 1}) != Report("s", "v", {"a": 2})
    assert Report("s", "v", {}, (_case(),)) != Report("s", "v", {})
    # a dict field is unhashable, as the field tuple holding it is
    for unhashable in (Report("s", "v", {}), _case(witness=({"a": 1},))):
        with pytest.raises(TypeError):
            hash(unhashable)


class _Twin(_Record):
    """A value record with Weight's one field, so that only the class tells the two apart."""

    __slots__ = ("fw_coords",)


def test_records_of_different_classes_never_compare_equal() -> None:
    assert Weight((1,)) != _Twin((1,))
    assert _Twin((1,)) != Weight((1,))
    assert not Weight((1,)) == _Twin((1,))
    assert Weight((1,)) != (1,) and _Twin((1,)) != (1,)
    assert LieType("A", 1) != ("A", 1)
    assert CohomologyTable() != (None, None, None)
    assert len({Weight((1,)), _Twin((1,))}) == 2


def test_root_systems_compare_by_identity_and_parabolic_data_by_value() -> None:
    rs = root_system("B", 3)
    fresh = build_root_system(LieType("B", 3))
    assert repr(rs) == repr(fresh)
    assert rs == rs and rs != fresh
    assert hash(rs) == object.__hash__(rs) and len({rs, fresh}) == 2
    pd = parabolic_data(rs, 1)
    twin = ParabolicData(
        node=pd.node,
        lowest_weights=pd.lowest_weights,
        dim_y=pd.dim_y,
        fano_index=pd.fano_index,
        root_system=pd.root_system,
    )
    assert repr(twin) == repr(pd)
    assert pd is parabolic_data(rs, 1) and twin is not pd
    assert pd == twin and not pd != twin
    assert hash(pd) == hash(twin) and len({pd, twin}) == 1
    # the root system is a field like any other, and held by identity
    assert parabolic_data(fresh, 1) != pd and repr(parabolic_data(fresh, 1)) == repr(pd)


def _records() -> list:
    rs = root_system("B", 2)
    return [
        (LieType("A", 2), "rank"),
        (Weight((1, 0)), "fw_coords"),
        (rs, "weyl_denominator"),
        (CohomologyTable(), "degree"),
        (parabolic_data(rs, 1), "dim_y"),
        (_case(), "passed"),
        (Report("s", "v", {}), "cases"),
    ]


@pytest.mark.parametrize("record, name", _records(), ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_records_refuse_assignment_deletion_and_new_attributes(record, name) -> None:
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")
    assert repr(record) == before


def test_records_copy_and_pickle() -> None:
    rs = root_system("B", 2)
    values = [
        LieType("b", 3),
        Weight((1, -2)),
        bwb_cohomology(rs, Weight((1, 1))),
        _case(witness=({"a": 1},), annotations=("x",)),
        Report("s", "v", {"a": 1}, (_case(),)),
    ]
    for record in values:
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
    # the shared instance comes back as itself, a directly built one as a new instance with equal fields
    for twin in (copy.copy(rs), copy.deepcopy(rs), pickle.loads(pickle.dumps(rs))):
        assert twin is rs
    direct = build_root_system(LieType("B", 2))
    for twin in (copy.copy(direct), copy.deepcopy(direct), pickle.loads(pickle.dumps(direct))):
        assert twin is not direct and twin is not rs and repr(twin) == repr(direct)
        assert twin._fields() == direct._fields()
    # so a record holding the shared instance round-trips equal
    pd = parabolic_data(rs, 1)
    for twin in (copy.copy(pd), copy.deepcopy(pd), pickle.loads(pickle.dumps(pd))):
        assert twin == pd and repr(twin) == repr(pd) and twin.root_system is rs
        assert dict(twin.levels) == dict(pd.levels) and isinstance(twin.levels, MappingProxyType)


def test_constructor_keywords_and_defaults() -> None:
    empty = CohomologyTable()
    assert (empty.degree, empty.dominant_weight, empty.dimension) == (None, None, None)
    assert empty.vanishes
    table = CohomologyTable(degree=1, dominant_weight=Weight((2,)), dimension=3)
    assert (table.degree, table.dominant_weight, table.dimension, table.vanishes) == (1, Weight((2,)), 3, False)
    assert LieType(family="C", rank=3) == LieType("C", 3)
    assert Weight(fw_coords=[2]).fw_coords == (2,)
    case = _case()
    assert case.witness == () and case.annotations == ()
    assert case == _case(witness=(), annotations=())
    report = Report(sweep="lungo", version="0.1.0", params={"max_rank": 3})
    assert report.cases == () and report == Report("lungo", "0.1.0", {"max_rank": 3}, cases=())
    assert report.summary == {"total": 0, "passed": 0, "failed": 0}


def _values_and_defaults(cls: type) -> tuple[tuple, dict]:
    """A value for every field of ``cls``, in order, and the defaults the class declares."""
    rs = root_system("B", 2)
    return {
        RootSystem: (rs._fields(), {}),
        ParabolicData: (parabolic_data(rs, 1)._fields(), {}),
        CaseResult: (("B", 2, 1, 2, 10, 3, True, ({"a": 1},), ("x",)), {"witness": (), "annotations": ()}),
        Report: (("s", "v", {"a": 1}, (_case(),)), {"cases": ()}),
    }[cls]


CONSTRUCTED = pytest.mark.parametrize("cls", [RootSystem, ParabolicData, CaseResult, Report], ids=lambda c: c.__name__)


@CONSTRUCTED
def test_one_constructor_binds_positions_keywords_and_defaults(cls) -> None:
    values, defaults = _values_and_defaults(cls)
    names = cls.__slots__
    named = dict(zip(names, values))
    half = len(values) // 2
    for record in (cls(*values), cls(**named), cls(*values[:half], **dict(zip(names[half:], values[half:])))):
        assert type(record) is cls and record._fields() == values
    if cls in (CaseResult, Report):  # value records
        assert cls(*values) == cls(**named)
    # the defaulted fields come last, so they may be left out by position or by keyword
    required = len(names) - len(defaults)
    assert names[required:] == tuple(defaults)
    with_defaults = values[:required] + tuple(defaults.values())
    assert cls(*values[:required])._fields() == with_defaults
    assert cls(**{n: named[n] for n in names[:required]})._fields() == with_defaults


@CONSTRUCTED
def test_one_constructor_refuses_bad_fields_naming_the_class(cls) -> None:
    values, defaults = _values_and_defaults(cls)
    name, names = cls.__name__, cls.__slots__
    required = len(names) - len(defaults)
    last = names[required - 1]
    for call, message in [
        (lambda: cls(*values[: required - 1]), f"{name}() missing field {last!r}"),
        (lambda: cls(**{n: v for n, v in zip(names, values) if n != last}), f"{name}() missing field {last!r}"),
        (lambda: cls(*values, extra=1), f"{name}() got an unexpected field 'extra'"),
        (lambda: cls(*values[:1], **dict(zip(names, values))), f"{name}() got multiple values for field {names[0]!r}"),
        (lambda: cls(*values, None), f"{name}() takes {len(names)} fields but {len(names) + 1} were given"),
    ]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()
