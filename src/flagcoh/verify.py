"""Verification sweeps over the supported pairs (g, alpha_r).

Two sweeps are provided.  ``check_theorem_lungo`` computes
h^0(Y, Omega^1_Y(2)) for every supported pair with dim Y >= 3 up to a rank
cap and checks h0 >= dim Y, together with golden subcases where the value
has a closed form (quadric binomial, the restricted-product equality on
Lagrangian Grassmannians, read as the integer Weyl dimension of
2 omega_{l-1} on A_{l-1}, the exact value 325 for (F4, node 4)).
``check_lemma_studiopesi`` replays the classification of the twisted
lowest weights: for twist a = 1 the pieces with node coefficient 2 must be
singular and those with coefficient 1 regular of index 0; for a >= 2
everything is regular of index 0.  The class is read off the pieces of
``h0_twisted_cotangent``, one call per case: a vanishing piece is
singular, any other is regular of index 0.  That is exact, because a
piece vanishes precisely when its shifted weight is singular, and a
regular piece outside degree 0 makes ``h0_twisted_cotangent`` raise, which
fails the case.

Both sweeps build their cases in ``_sweep``.  Failures never raise: each
case carries a passed flag, its witness breakdown, and annotations;
reports are deterministic (fixed ordering, no timestamps) so identical
runs are byte-identical.  The JSON reports are written through ``_writer``,
the package's one JSON writer, which the query commands share.
"""

from __future__ import annotations

import io
from typing import Iterable

from . import __version__
from ._writer import _json, _json_str, pieces_json
from .bwb import weyl_dim
from .parabolic import ParabolicData, h0_twisted_cotangent, konno_pairs
from .rootsys import ConfigError, Family, _check_max_rank, _Record, _require_int, fundamental_weight, root_system

# Pairs excluded from the degree-3 statement of the main theorem: the
# three-dimensional quadric and the three-dimensional spinor variety.
_DEGREE_THREE_EXCEPTIONS = {("B", 2, 1), ("D", 3, 2)}


class CaseResult(_Record):
    """One sweep case.

    Fields, in order: ``family`` (a letter), ``rank``, ``node``, ``twist``, ``h0``, ``dim_y``, ``passed``,
    ``witness`` (the per-level evidence dicts) and ``annotations``; the last two default to ().
    """

    __slots__ = ("family", "rank", "node", "twist", "h0", "dim_y", "passed", "witness", "annotations")
    _defaults = {"witness": (), "annotations": ()}

    def sort_key(self) -> tuple[str, int, int, int]:
        return (self.family, self.rank, self.node, self.twist)


class Report(_Record):
    """Sweep output, with summary counts; fields ``sweep``, ``version``, ``params`` and ``cases`` (default ())."""

    __slots__ = ("sweep", "version", "params", "cases")
    _shown = ("sweep", "version", "cases")
    _defaults = {"cases": ()}

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.cases if c.passed)
        return {"total": len(self.cases), "passed": passed, "failed": len(self.cases) - passed}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _base_annotations(pd: ParabolicData) -> list[str]:
    key = (pd.lie_type.family.value, pd.lie_type.rank, pd.node)
    return ["degree-3 exception"] if key in _DEGREE_THREE_EXCEPTIONS else []


def _is_quadric(pd: ParabolicData) -> bool:
    f = pd.lie_type.family
    return pd.node == 1 and f in (Family.B, Family.D)


def _golden_checks(pd: ParabolicData, total: int, pieces) -> tuple[bool, list[str]]:
    """Closed-form subcases of the twist-2 sweep; returns (ok, annotations)."""
    f, l, r = pd.lie_type.family, pd.lie_type.rank, pd.node
    notes: list[str] = []
    ok = True
    if _is_quadric(pd):
        n = pd.dim_y
        expected = (n + 2) * (n + 1) // 2
        notes.append("golden: quadric binomial")
        if total != expected:
            ok = False
            notes.append(f"golden value mismatch: h0 {total} != {expected}")
    elif f is Family.C and r == l:
        # The proof bounds h0 from below by the Weyl product restricted to the Levi roots (n_l = 0), which equals
        # dim Y = l(l+1)/2 exactly.  They are the roots of A_{l-1}, all short, where 2 lambda_{l-1} is 2 omega_{l-1}.
        restricted = weyl_dim(root_system(Family.A, l - 1), 2 * fundamental_weight(l - 1, l - 1))
        notes.append("golden: restricted product equality")
        if restricted != pd.dim_y:
            ok = False
            notes.append(f"golden value mismatch: restricted product {restricted} != {pd.dim_y}")
        if pd.dim_y != l * (l + 1) // 2:
            ok = False
            notes.append(f"golden value mismatch: dim Y {pd.dim_y} != l(l+1)/2 = {l * (l + 1) // 2}")
    elif (f, l, r) == (Family.F, 4, 4):
        notes.append("golden: exact value 325")
        if total != 325 or [d for _, _, d in pieces] != [273, 52]:
            ok = False
            notes.append(f"golden value mismatch: h0 {total}, breakdown {[d for _, _, d in pieces]}")
    return ok, notes


def _sweep(name: str, params: dict, inputs, evaluate) -> Report:
    """One case per (pd, a) input, sorted; ``evaluate`` returns (h0, witness, passed, notes)."""
    cases = []
    for pd, a in inputs:
        annotations = _base_annotations(pd)
        try:
            total, witness, passed, notes = evaluate(pd, a)
            annotations.extend(notes)
        except Exception as exc:  # failures become report entries, never aborts
            total, witness, passed = 0, (), False
            annotations.append(f"error: {exc}")
        t = pd.lie_type
        # positional: by keyword, _Record.__init__ took about 3 us more a case (5.3-6.0 against 2.6-2.9 us)
        cases.append(
            CaseResult(t.family.value, t.rank, pd.node, a, total, pd.dim_y, passed, tuple(witness), tuple(annotations))
        )
    cases.sort(key=CaseResult.sort_key)
    return Report(sweep=name, version=__version__, params=params, cases=tuple(cases))


def _lungo_case(pd: ParabolicData, a: int) -> tuple[int, list[dict], bool, list[str]]:
    total, pieces = h0_twisted_cotangent(pd, a)
    golden_ok, notes = _golden_checks(pd, total, pieces)
    return total, pieces_json(pieces), total >= pd.dim_y and golden_ok, notes


def check_theorem_lungo(max_rank: int = 8) -> Report:
    """Twist-2 section sweep: h0(Y, Omega^1_Y(2)) >= dim Y over all pairs.

    Covers every supported pair with rank <= max_rank and dim Y >= 3;
    equality counts as a pass.  Golden subcases additionally pin the exact
    values where a closed form exists.
    """
    _check_max_rank(max_rank, 2)
    inputs = [(pd, 2) for pd in konno_pairs(max_rank) if pd.dim_y >= 3]
    return _sweep("lungo", {"max_rank": max_rank, "twist": 2, "min_dim_y": 3}, inputs, _lungo_case)


def _studiopesi_case(pd: ParabolicData, a: int) -> tuple[int, list[dict], bool, list[str]]:
    total, pieces = h0_twisted_cotangent(pd, a)
    witness = []
    for (level, mu, _dim), w in zip(pieces, pd.lowest_weights):
        # a piece vanishes exactly when its shifted weight is singular; a regular
        # one outside degree 0 has already raised in h0_twisted_cotangent
        witness.append(
            {
                "level": level,
                "fw_coords": list(w.fw_coords),
                "expected": "singular" if a == 1 and w.fw_coords[pd.node - 1] == 2 else "regular:0",
                "actual": "singular" if mu is None else "regular:0",
            }
        )
    mismatches = sum(1 for w in witness if w["expected"] != w["actual"])
    notes = [f"{mismatches} classification mismatches"] if mismatches else []
    return total, witness, mismatches == 0, notes


def check_lemma_studiopesi(
    max_rank: int = 8,
    twists: Iterable[int] = (1, 2, 3),
) -> Report:
    """Classification sweep over every supported pair and listed twist.

    For each lowest weight the predicted class (singular exactly when the
    node coefficient is 2 and a = 1, regular of index 0 otherwise) is
    compared against the class read off the h0 piece; a case passes when
    every weight matches.
    """
    _check_max_rank(max_rank, 2)
    # one pass over the input, so that a generator is read once; the set
    # comes after the type check, so that (1, True) is refused, not {1}
    try:
        twists = tuple(twists)
    except TypeError:
        raise TypeError(f"twists must be an iterable of ints, got {twists!r}") from None
    for a in twists:
        _require_int("each twist", a)
    twists = sorted(set(twists))
    if not twists:
        raise ValueError("twists must be nonempty")
    if twists[0] < 1:
        raise ValueError(f"twists must all be >= 1, got {twists[0]}")
    inputs = [(pd, a) for pd in konno_pairs(max_rank) for a in twists]
    return _sweep("studiopesi", {"max_rank": max_rank, "twists": list(twists)}, inputs, _studiopesi_case)


_CSV_HEADER = ["family", "rank", "node", "twist", "h0", "dim_y", "passed", "annotations"]


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report as canonical JSON, CSV or text bytes (deterministic).

    The JSON bytes are ``json.dumps(d, indent=2)`` plus a newline, where ``d`` holds the report's
    fields with ``h0`` as a string and ``summary`` last; they are written here without building
    ``d`` or loading ``json``.  The text form is the summary and one line per failed case.
    """
    if not isinstance(report, Report):
        raise TypeError(f"report must be a Report, got {report!r}")
    cases = report.cases
    if fmt == "text":
        s = report.summary
        params = " ".join(f"{k}={v}" for k, v in report.params.items())
        lines = [
            f"sweep {report.sweep} ({params})",
            f"total {s['total']}  passed {s['passed']}  failed {s['failed']}",
        ]
        lines += [
            f"FAIL {c.family}{c.rank} node {c.node} twist {c.twist}: "
            f"h0 {c.h0}, dim Y {c.dim_y} ({'; '.join(c.annotations)})"
            for c in cases
            if not c.passed
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        rows = ",\n".join(
            f'    {{\n      "family": {_json_str(c.family)},\n      "rank": {c.rank},\n      "node": {c.node},\n'
            f'      "twist": {c.twist},\n      "h0": "{c.h0}",\n      "dim_y": {c.dim_y},\n'
            f'      "passed": {"true" if c.passed else "false"},\n      "witness": {_json(c.witness, "      ")},\n'
            f'      "annotations": {_json(c.annotations, "      ")}\n    }}'
            for c in cases
        )
        rows = f"[\n{rows}\n  ]" if rows else "[]"
        return (
            f'{{\n  "sweep": {_json_str(report.sweep)},\n  "version": {_json_str(report.version)},\n'
            f'  "params": {_json(report.params, "  ")},\n  "cases": {rows},\n'
            f'  "summary": {_json(report.summary, "  ")}\n}}\n'
        ).encode("utf-8")
    if fmt == "csv":
        import csv  # imported here so that JSON and text output do not pay for it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for c in cases:
            writer.writerow(
                [
                    c.family,
                    c.rank,
                    c.node,
                    c.twist,
                    str(c.h0),
                    c.dim_y,
                    "true" if c.passed else "false",
                    "; ".join(c.annotations),
                ]
            )
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
