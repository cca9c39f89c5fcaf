"""Tests for the verification sweeps and report emission."""

from __future__ import annotations

import csv
import io
import json
import re

import pytest

import flagcoh
import flagcoh.cli as cli
from flagcoh import verify
from flagcoh.parabolic import ParabolicData, konno_pairs
from flagcoh.verify import (
    CaseResult,
    Report,
    check_lemma_studiopesi,
    check_theorem_lungo,
    emit_report,
)

from oracles import find_table_row, konno_table_rows


# ---------------------------------------------------------------------------
# twist-2 sweep


def test_lungo_rank8_all_pass() -> None:
    rep = check_theorem_lungo(8)
    assert rep.sweep == "lungo"
    assert rep.version == flagcoh.__version__
    assert rep.summary["failed"] == 0
    assert rep.summary["total"] == rep.summary["passed"] == len(rep.cases) == 139
    assert rep.all_passed


def test_lungo_case_invariant_and_ordering() -> None:
    rep = check_theorem_lungo(8)
    for c in rep.cases:
        assert c.twist == 2
        assert c.dim_y >= 3
        assert c.passed == (c.h0 >= c.dim_y)
    keys = [c.sort_key() for c in rep.cases]
    assert keys == sorted(keys)


def test_lungo_skips_only_small_pairs() -> None:
    swept = {(c.family, c.rank, c.node) for c in check_theorem_lungo(8).cases}
    supported = {
        (pd.lie_type.family.value, pd.lie_type.rank, pd.node) for pd in konno_pairs(8)
    }
    assert supported - swept == {("A", 1, 1), ("A", 2, 1), ("A", 2, 2)}


def test_lungo_spot_cases() -> None:
    by_key = {(c.family, c.rank, c.node): c for c in check_theorem_lungo(8).cases}
    f4 = by_key[("F", 4, 4)]
    assert f4.h0 == 325 and f4.dim_y == 15
    assert [w["dim"] for w in f4.witness] == ["273", "52"]
    assert "golden: exact value 325" in f4.annotations
    q3 = by_key[("B", 2, 1)]
    assert q3.h0 == 10 and q3.dim_y == 3  # binomial(5, 2)
    assert "degree-3 exception" in q3.annotations
    assert "golden: quadric binomial" in q3.annotations
    d32 = by_key[("D", 3, 2)]
    assert "degree-3 exception" in d32.annotations
    c55 = by_key[("C", 5, 5)]
    assert c55.dim_y == 15 and c55.h0 > 15
    assert "golden: restricted product equality" in c55.annotations


def test_lungo_sweep_completeness_rank8() -> None:
    """Every row of the paper's table is exercised by at least one sweep case."""
    rep = check_theorem_lungo(8)
    hit_rows = set()
    for c in rep.cases:
        pairs = [pd for pd in konno_pairs(c.rank) if pd.lie_type.rank == c.rank]
        for pd in pairs:
            if pd.lie_type.family.value == c.family and pd.node == c.node:
                row = find_table_row(c.family, c.rank, c.node)
                assert row is not None
                hit_rows.add(id(row))
    assert len(hit_rows) == len(konno_table_rows())


def test_lungo_rejects_small_rank() -> None:
    with pytest.raises(ValueError):
        check_theorem_lungo(1)


def test_lungo_max_rank_must_be_an_int() -> None:
    # 2.0 used to fail inside range(); True was reported as "must be >= 2"
    for bad in (2.0, 3.5, True, "3"):
        with pytest.raises(TypeError):
            check_theorem_lungo(bad)


# ---------------------------------------------------------------------------
# classification sweep


def test_studiopesi_rank8_zero_mismatches() -> None:
    rep = check_lemma_studiopesi(8, (1, 2, 3))
    assert rep.sweep == "studiopesi"
    assert rep.summary == {"total": 426, "passed": 426, "failed": 0}
    assert len(rep.cases) == 3 * len(konno_pairs(8))


def test_studiopesi_witness_structure() -> None:
    rep = check_lemma_studiopesi(4, (1, 2))
    for c in rep.cases:
        assert c.twist in (1, 2)
        assert len(c.witness) >= 1
        for w in c.witness:
            assert set(w) == {"level", "fw_coords", "expected", "actual"}
            assert w["expected"] == w["actual"]
            if c.twist >= 2:
                assert w["actual"] == "regular:0"
    # at twist 1 a singular entry appears for every pair (the level-1 piece)
    for c in rep.cases:
        if c.twist == 1:
            assert any(w["actual"] == "singular" for w in c.witness)


def test_studiopesi_twist_one_h0_matches_surviving_pieces() -> None:
    rep = check_lemma_studiopesi(6, (1,))
    for c in rep.cases:
        survivors = sum(1 for w in c.witness if w["actual"] == "regular:0")
        if survivors == 0:
            assert c.h0 == 0
        else:
            assert c.h0 >= survivors  # each surviving piece has dim >= 1


def test_studiopesi_parameter_validation() -> None:
    with pytest.raises(ValueError):
        check_lemma_studiopesi(8, ())
    with pytest.raises(ValueError):
        check_lemma_studiopesi(8, (0,))
    with pytest.raises(ValueError):
        check_lemma_studiopesi(8, (2, -1))
    with pytest.raises(ValueError):
        check_lemma_studiopesi(1, (1,))
    for bad in (2.9, 2.0, True):
        with pytest.raises(TypeError):
            check_lemma_studiopesi(3, (1, bad))
    for bad in (None, 3):
        with pytest.raises(TypeError, match=f"^twists must be an iterable of ints, got {bad!r}$"):
            check_lemma_studiopesi(3, bad)
    for bad in (2.0, 3.5, True, "3"):
        with pytest.raises(TypeError):
            check_lemma_studiopesi(bad, (1,))


def test_studiopesi_twists_from_a_generator() -> None:
    from_generator = check_lemma_studiopesi(3, (a for a in (1, 2)))
    assert emit_report(from_generator) == emit_report(check_lemma_studiopesi(3, (1, 2)))
    assert from_generator.params["twists"] == [1, 2]


def test_studiopesi_twists_normalized() -> None:
    rep = check_lemma_studiopesi(3, (3, 1, 3, 2))
    assert rep.params["twists"] == [1, 2, 3]
    twists = sorted({c.twist for c in rep.cases})
    assert twists == [1, 2, 3]


# ---------------------------------------------------------------------------
# failure paths: a case that goes wrong fails alone and never aborts the sweep


def _key(pd) -> tuple[str, int, int]:
    return (pd.lie_type.family.value, pd.lie_type.rank, pd.node)


def _raise_at(monkeypatch, key, twist) -> None:
    real = verify.h0_twisted_cotangent

    def h0(pd, a):
        if _key(pd) == key and a == twist:
            raise ArithmeticError("synthetic failure")
        return real(pd, a)

    monkeypatch.setattr(verify, "h0_twisted_cotangent", h0)


@pytest.mark.parametrize(
    "sweep, twist",
    [(lambda: check_theorem_lungo(4), 2), (lambda: check_lemma_studiopesi(4, (1, 2)), 2)],
    ids=["lungo", "studiopesi"],
)
def test_sweep_error_fails_only_its_case(sweep, twist, monkeypatch) -> None:
    clean = sweep().cases
    _raise_at(monkeypatch, ("B", 2, 1), twist)
    broken = sweep().cases
    assert [c.sort_key() for c in broken] == [c.sort_key() for c in clean]
    for before, after in zip(clean, broken):
        if after.sort_key() != ("B", 2, 1, twist):
            assert after == before
            continue
        assert not after.passed and after.h0 == 0 and after.witness == ()
        assert after.annotations == ("degree-3 exception", "error: synthetic failure")


def test_studiopesi_vanishing_piece_is_a_mismatch(monkeypatch) -> None:
    real = verify.h0_twisted_cotangent

    def h0(pd, a):
        total, pieces = real(pd, a)
        if _key(pd) == ("F", 4, 4) and a == 2:
            pieces = ((pieces[0][0], None, 0),) + pieces[1:]
        return total, pieces

    monkeypatch.setattr(verify, "h0_twisted_cotangent", h0)
    rep = check_lemma_studiopesi(4, (1, 2))
    assert rep.summary["failed"] == 1
    (case,) = [c for c in rep.cases if not c.passed]
    assert case.sort_key() == ("F", 4, 4, 2)
    assert case.annotations == ("1 classification mismatches",)
    assert [(w["expected"], w["actual"]) for w in case.witness] == [
        ("regular:0", "singular"),
        ("regular:0", "regular:0"),
    ]


def _lungo_fails_alone(monkeypatch, name, wrap, key) -> CaseResult:
    """Rebind ``verify.<name>`` to ``wrap`` of itself; only ``key`` at twist 2 may fail."""
    clean = check_theorem_lungo(4)
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    broken = check_theorem_lungo(4)
    assert broken.summary["failed"] == 1
    assert [c.sort_key() for c in broken.cases] == [c.sort_key() for c in clean.cases]
    for before, after in zip(clean.cases, broken.cases):
        if after.sort_key() != (*key, 2):
            assert after == before
    (case,) = [c for c in broken.cases if not c.passed]
    assert case.sort_key() == (*key, 2)
    return case


def _h0_changed_at(key, change):
    def wrap(real):
        def h0(pd, a):
            total, pieces = real(pd, a)
            return change(total, pieces) if _key(pd) == key else (total, pieces)

        return h0

    return wrap


def test_lungo_quadric_total_is_a_golden_mismatch(monkeypatch) -> None:
    wrap = _h0_changed_at(("B", 3, 1), lambda total, pieces: (total + 1, pieces))
    case = _lungo_fails_alone(monkeypatch, "h0_twisted_cotangent", wrap, ("B", 3, 1))
    assert case.annotations == ("golden: quadric binomial", "golden value mismatch: h0 22 != 21")


def test_lungo_f4_breakdown_is_a_golden_mismatch(monkeypatch) -> None:
    # the total stays 325, so only the breakdown can fail the case
    wrap = _h0_changed_at(("F", 4, 4), lambda total, pieces: (total, ((1, pieces[0][1], 274),) + pieces[1:]))
    case = _lungo_fails_alone(monkeypatch, "h0_twisted_cotangent", wrap, ("F", 4, 4))
    assert case.h0 == 325
    assert case.annotations == (
        "golden: exact value 325",
        "golden value mismatch: h0 325, breakdown [274, 52]",
    )


def test_lungo_c3_restricted_product_is_a_golden_mismatch(monkeypatch) -> None:
    # the restricted product of (C3, 3) is the Weyl dimension of 2 omega_2 for A2
    def wrap(real):
        def dim(rs, lam):
            value = real(rs, lam)
            return value + 1 if str(rs.lie_type) == "A2" else value

        return dim

    case = _lungo_fails_alone(monkeypatch, "weyl_dim", wrap, ("C", 3, 3))
    assert case.annotations == (
        "golden: restricted product equality",
        "golden value mismatch: restricted product 7 != 6",
    )


def test_lungo_c3_dim_y_off_the_closed_form_is_a_golden_mismatch(monkeypatch) -> None:
    # dim Y and the restricted product both read 7, so they agree and only
    # dim Y = l(l+1)/2 fails; the note must name that equation
    def wrap(real):
        dim = verify.weyl_dim
        monkeypatch.setattr(verify, "weyl_dim", lambda rs, lam: dim(rs, lam) + (1 if str(rs.lie_type) == "A2" else 0))

        def raised(pd):
            return ParabolicData(
                node=pd.node,
                lowest_weights=pd.lowest_weights,
                dim_y=pd.dim_y + 1,
                fano_index=pd.fano_index,
                root_system=pd.root_system,
            )

        def pairs(max_rank):
            return [raised(pd) if _key(pd) == ("C", 3, 3) else pd for pd in real(max_rank)]

        return pairs

    case = _lungo_fails_alone(monkeypatch, "konno_pairs", wrap, ("C", 3, 3))
    assert case.dim_y == 7
    assert case.annotations == (
        "golden: restricted product equality",
        "golden value mismatch: dim Y 7 != l(l+1)/2 = 6",
    )


def test_lungo_h0_below_dim_y_fails(monkeypatch) -> None:
    # Gr(2, 5) has no golden value: only h0 >= dim Y can fail it
    wrap = _h0_changed_at(("A", 4, 2), lambda total, pieces: (5, pieces))
    case = _lungo_fails_alone(monkeypatch, "h0_twisted_cotangent", wrap, ("A", 4, 2))
    assert (case.h0, case.dim_y, case.annotations) == (5, 6, ())


def test_verify_exits_1_when_a_case_fails(monkeypatch, capsys) -> None:
    _raise_at(monkeypatch, ("B", 2, 1), 2)
    assert cli.run(["verify", "--sweep", "lungo", "--max-rank", "3"]) == 1
    assert "FAIL B2 node 1 twist 2" in capsys.readouterr().out
    assert cli.run(["verify", "--sweep", "studiopesi", "--max-rank", "3"]) == 1
    assert "error: synthetic failure" in capsys.readouterr().out
    monkeypatch.undo()
    real = verify.h0_twisted_cotangent

    def vanishing(pd, a):
        total, pieces = real(pd, a)
        return total, tuple((level, None, 0) for level, _, _ in pieces)

    monkeypatch.setattr(verify, "h0_twisted_cotangent", vanishing)
    assert cli.run(["verify", "--sweep", "studiopesi", "--max-rank", "3", "--twist", "2"]) == 1
    assert "classification mismatches" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# emission


def test_reports_byte_identical_across_runs() -> None:
    a = emit_report(check_theorem_lungo(8), "json")
    b = emit_report(check_theorem_lungo(8), "json")
    assert a == b
    x = emit_report(check_lemma_studiopesi(6, (1, 2)), "csv")
    y = emit_report(check_lemma_studiopesi(6, (1, 2)), "csv")
    assert x == y


def test_json_schema() -> None:
    payload = json.loads(emit_report(check_theorem_lungo(4), "json"))
    assert set(payload) == {"sweep", "version", "params", "cases", "summary"}
    assert payload["sweep"] == "lungo"
    assert payload["params"]["max_rank"] == 4
    s = payload["summary"]
    assert s["total"] == s["passed"] + s["failed"] == len(payload["cases"])
    for case in payload["cases"]:
        assert set(case) == {
            "family", "rank", "node", "twist", "h0", "dim_y", "passed", "witness", "annotations",
        }
        assert isinstance(case["h0"], str)
        int(case["h0"])  # decimal string
        assert isinstance(case["passed"], bool)


def _reference_json(report: Report) -> dict:
    """The report as the dict the JSON bytes encode, built field by field: ``h0`` a string, ``summary`` last."""
    passed = sum(1 for c in report.cases if c.passed)
    return {
        "sweep": report.sweep,
        "version": report.version,
        "params": report.params,
        "cases": [
            {
                "family": c.family,
                "rank": c.rank,
                "node": c.node,
                "twist": c.twist,
                "h0": str(c.h0),
                "dim_y": c.dim_y,
                "passed": c.passed,
                "witness": [dict(w) for w in c.witness],
                "annotations": list(c.annotations),
            }
            for c in report.cases
        ],
        "summary": {"total": len(report.cases), "passed": passed, "failed": len(report.cases) - passed},
    }


def _assert_writer_matches_oracle(value) -> None:
    """A report's bytes from ``emit_report``, or a query object's from ``_json``, are ``json.dumps``'."""
    if isinstance(value, Report):
        assert emit_report(value, "json") == (json.dumps(_reference_json(value), indent=2) + "\n").encode()
    else:
        assert verify._json(value, "") == json.dumps(value, indent=2)


def _query_object(*argv: str) -> dict:
    """The object a query command hands to the JSON writer."""
    return cli._query(cli._build_parser().parse_args(argv))[0]


def _one_case_report(params: dict, witness: tuple = (), annotations: tuple = (), h0: int = 3) -> Report:
    case = CaseResult("B", 2, 1, 2, h0, 3, True, witness=witness, annotations=annotations)
    return Report("lungo", "0", params, (case, CaseResult("F", 4, 4, 2, 0, 15, False)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: check_theorem_lungo(6),
        lambda: check_lemma_studiopesi(6, (1, 2, 3)),
        lambda: Report("lungo", "0", {}, ()),
        lambda: _one_case_report(
            {"max_rank": 3, "nested": {"list": [1, [2, {}], [], None, True], "flags": [True, 0], "empty": {}}}
        ),
        lambda: _one_case_report({}, witness=({"level": 1, "fw_coords": None, "dim": "0"},)),
        lambda: _one_case_report({"twists": []}, h0=10**30, annotations=("a", "b")),
        lambda: _one_case_report(
            {'q"uote': "back\\slash"},
            witness=({"s": "del\x7f line\u2028 astral\U0001d11e tab\t", "fw_coords": [-1, 0, 2]},),
            annotations=("", "\u00e9", '"'),
        ),
        lambda: _query_object("bwb", "A", "2", "--weight=-1,0"),
        lambda: _query_object("parabolic", "E", "8", "--node", "4"),
        lambda: _query_object("h0-cotangent", "B", "4", "--node", "2", "--twist", "1"),
        lambda: _query_object("info", "E", "8"),
    ],
    ids=[
        "lungo-6", "studiopesi-6", "empty", "nested-params", "fw-coords-none", "big-h0", "escapes",
        "query-bwb-vanishing", "query-parabolic-levels", "query-h0-null-piece", "query-info-cartan",
    ],
)
def test_json_writer_matches_json_dumps(make) -> None:
    _assert_writer_matches_oracle(make())


@pytest.mark.parametrize("key", [1, True, None, (1, 2)], ids=["int", "bool", "none", "tuple"])
def test_json_writer_refuses_a_key_that_is_not_a_str(key) -> None:
    # the writer names the key, as it names an unsupported value, instead of failing on a str method
    with pytest.raises(TypeError, match=f"^keys and labels must be str, got {re.escape(repr(key))}$"):
        emit_report(Report("s", "v", {key: 2}), "json")
    with pytest.raises(TypeError, match=f"^keys and labels must be str, got {re.escape(repr(key))}$"):
        verify._json({"a": {key: 2}}, "")


def test_json_writer_matches_json_dumps_on_any_text() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.lists(st.text(), max_size=3), st.text(), st.text(), st.text())
    def check(annotations, key, value, sweep) -> None:
        witness = ({"level": 1, key: value, "fw_coords": [0, 1]},)
        report = _one_case_report({key: [value]}, witness=witness, annotations=tuple(annotations))
        _assert_writer_matches_oracle(Report(sweep, value, report.params, report.cases))

    check()


def test_csv_schema() -> None:
    raw = emit_report(check_theorem_lungo(4), "csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(raw)))
    assert rows[0] == ["family", "rank", "node", "twist", "h0", "dim_y", "passed", "annotations"]
    body = rows[1:]
    assert len(body) == len(check_theorem_lungo(4).cases)
    for row in body:
        assert len(row) == 8
        int(row[4])  # h0 decimal string
        assert row[6] in ("true", "false")


def test_empty_report_valid() -> None:
    empty = Report(sweep="lungo", version=flagcoh.__version__, params={}, cases=())
    payload = json.loads(emit_report(empty, "json"))
    assert payload["cases"] == []
    assert payload["summary"] == {"total": 0, "passed": 0, "failed": 0}
    raw = emit_report(empty, "csv").decode("utf-8")
    assert raw.splitlines() == ["family,rank,node,twist,h0,dim_y,passed,annotations"]


def test_single_case_csv_row() -> None:
    one = Report(
        sweep="lungo",
        version="0",
        params={},
        cases=(
            CaseResult(
                family="F", rank=4, node=4, twist=2, h0=325, dim_y=15,
                passed=True, witness=(), annotations=("golden: exact value 325",),
            ),
        ),
    )
    raw = emit_report(one, "csv").decode("utf-8").splitlines()
    assert raw[1] == "F,4,4,2,325,15,true,golden: exact value 325"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_report_refuses_what_is_not_a_report(fmt) -> None:
    # None, or a Report's fields as a tuple: a TypeError naming the argument, not an AttributeError
    for bad in (None, ("lungo", "0", {}, ())):
        with pytest.raises(TypeError, match=f"^{re.escape(f'report must be a Report, got {bad!r}')}$"):
            emit_report(bad, fmt)


def test_emit_unknown_format() -> None:
    rep = Report(sweep="lungo", version="0", params={}, cases=())
    with pytest.raises(ValueError):
        emit_report(rep, "xml")
