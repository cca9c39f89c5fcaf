"""Acceptance gate: every shipped criterion, one test each, with timing
where the criterion states a budget.

Criterion 2 is recorded honestly: the claimed equality
h0(Y, Omega^1_Y(2)) = l(l+1)/2 on (C_l, node l) is false for the full
section space (the value strictly exceeds it for every l >= 3, already at
l = 3 where h0 = 90 and l(l+1)/2 = 6).  What does hold, and what the
twist-2 inequality actually consumes, is that the Weyl dimension product
restricted to the Levi roots {n_l = 0} equals l(l+1)/2 = dim Y exactly,
with every discarded factor > 1.  The literal test therefore fails by
design and the companion substance test pins the true statement.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product as iproduct
from time import perf_counter

import pytest

from conftest import record
from flagcoh.bwb import (
    bwb_cohomology,
    classify,
    to_dominant,
    weyl_dim,
)
from flagcoh.parabolic import (
    MacaulayStatus,
    UnsupportedPairError,
    h0_twisted_cotangent,
    konno_lowest_weights,
    macaulay_exceptions,
    parabolic_data,
    sigma,
)
from flagcoh.rootsys import (
    Weight,
    _unpack,
    all_lie_types,
    fundamental_weight,
    root_system,
)
from flagcoh.verify import check_lemma_studiopesi, check_theorem_lungo

from oracles import binomial, root_weights, weyl_product


def pd_of(family: str, rank: int, node: int):
    return parabolic_data(root_system(family, rank), node)


# ---------------------------------------------------------------------------
# C1: (F4, node 4), a = 2


def test_criterion_1_f4_breakdown() -> None:
    t0 = perf_counter()
    pd = pd_of("F", 4, 4)
    total, pieces = h0_twisted_cotangent(pd, 2)
    elapsed = perf_counter() - t0
    dims = [dim for _, _, dim in pieces]
    ok = total == 325 and dims == [273, 52] and pd.dim_y == 15 and elapsed < 1.0
    record(1, ok, f"h0 {total}, breakdown {dims}, dim Y {pd.dim_y}, {elapsed:.3f}s")
    assert ok


# ---------------------------------------------------------------------------
# C2: (C_l, node l), a = 2


@lru_cache(maxsize=1)
def _lagrangian_data() -> tuple[dict, float]:
    t0 = perf_counter()
    values = {l: h0_twisted_cotangent(pd_of("C", l, l), 2)[0] for l in range(3, 11)}
    return values, perf_counter() - t0


def test_criterion_2_literal_value() -> None:
    """Claimed: h0 equals l(l+1)/2 for l = 3..10.  Fails by design; see the
    module docstring and test_criterion_2_substance_restricted_product."""
    values, elapsed = _lagrangian_data()
    claimed = {l: l * (l + 1) // 2 for l in range(3, 11)}
    ok = values == claimed and elapsed < 5.0
    record(
        2,
        ok,
        "claimed equality h0 == l(l+1)/2 is false for the full section space "
        f"(e.g. l=3: h0 {values[3]} vs {claimed[3]}); the Levi-restricted Weyl "
        "product does equal l(l+1)/2 = dim Y (substance test passes)",
    )
    assert ok, (
        f"h0(Omega^1(2)) on (C_l, node l) computed {values}, claimed {claimed}. "
        "The equality holds for the Weyl product restricted to the Levi roots "
        "{n_l = 0} (which equals dim Y = l(l+1)/2 and is the lower bound the "
        "twist-2 inequality needs), not for the full section space: every "
        "factor dropped from the full product is > 1, so h0 > dim Y strictly."
    )


def test_criterion_2_substance_restricted_product() -> None:
    """What is true and load-bearing: the restricted product equals dim Y."""
    values, elapsed = _lagrangian_data()
    for l in range(3, 11):
        rs = root_system("C", l)
        pd = parabolic_data(rs, l)
        lam = 2 * fundamental_weight(l, l - 1)
        levi = [n for n in rs.positive_roots if n[l - 1] == 0]
        assert weyl_product(rs.cartan, lam.fw_coords, levi) == pd.dim_y == l * (l + 1) // 2
        # the Levi roots are the roots of A_{l-1}, and 2 lambda_{l-1} restricts to 2 omega_{l-1}
        assert weyl_dim(root_system("A", l - 1), 2 * fundamental_weight(l - 1, l - 1)) == pd.dim_y
        assert values[l] > pd.dim_y
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# C3: quadrics at a = 2


def test_criterion_3_quadric_binomials() -> None:
    ok = True
    for l in range(2, 11):
        ok = ok and h0_twisted_cotangent(pd_of("B", l, 1), 2)[0] == binomial(2 * l + 1, 2)
    for l in range(4, 11):
        ok = ok and h0_twisted_cotangent(pd_of("D", l, 1), 2)[0] == binomial(2 * l, 2)
    record(3, ok, "binomial(N+2, 2) on B_l (l=2..10) and D_l (l=4..10) quadrics")
    assert ok


# ---------------------------------------------------------------------------
# C4: orthogonal Grassmannians at a = 1


def test_criterion_4_twist_one_binomials() -> None:
    ok = True
    for l in range(5, 11):
        for r in range(4, l):
            ok = ok and h0_twisted_cotangent(pd_of("B", l, r), 1)[0] == binomial(2 * l + 1, r - 2)
    for l in range(6, 11):
        for r in range(4, l - 1):
            ok = ok and h0_twisted_cotangent(pd_of("D", l, r), 1)[0] == binomial(2 * l, r - 2)
    record(4, ok, "binomial(2l+1, r-2) on B_l and binomial(2l, r-2) on D_l at a=1")
    assert ok


# ---------------------------------------------------------------------------
# C5: twist-2 sweep at rank 8


def test_criterion_5_lungo_sweep() -> None:
    t0 = perf_counter()
    rep = check_theorem_lungo(8)
    elapsed = perf_counter() - t0
    s = rep.summary
    ok = s["failed"] == 0 and s["total"] == 139 and elapsed < 60.0
    record(5, ok, f"{s['total']} cases, {s['failed']} failures, {elapsed:.2f}s")
    assert ok, s


# ---------------------------------------------------------------------------
# C6: classification sweep at rank 8


def test_criterion_6_studiopesi_sweep() -> None:
    rep = check_lemma_studiopesi(8, (1, 2, 3))
    s = rep.summary
    ok = s["failed"] == 0 and s["total"] == 426
    record(6, ok, f"{s['total']} cases, {s['failed']} mismatches, twists 1-3")
    assert ok, s


# ---------------------------------------------------------------------------
# C7: property suites


_REPRESENTATIVE_TYPES = [
    ("A", 8), ("B", 8), ("C", 8), ("D", 8),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]

_CLASSICAL_COUNTS = {
    ("A", 8): 36, ("B", 8): 64, ("C", 8): 64, ("D", 8): 56,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6,
}


def _check_root_counts() -> bool:
    return all(
        len(root_system(f, l).positive_roots) == n
        for (f, l), n in _CLASSICAL_COUNTS.items()
    )


def _check_delta_identity() -> bool:
    for f, l in _REPRESENTATIVE_TYPES:
        rs = root_system(f, l)
        total = tuple(map(sum, zip(*rs.positive_roots)))
        # the positive roots sum to 2 delta; A is invertible, so weight coordinates decide it
        if root_weights(rs.cartan, [total]) != [(2,) * rs.rank]:
            return False
        # and so do the weights the engine stores for them
        if _unpack(sum(rs.packed_weights), rs.rank, len(rs.packed_weights)) != (2,) * rs.rank:
            return False
    return True


def _check_weyl_integrality() -> bool:
    rng = random.Random(20260815)
    for f, l in _REPRESENTATIVE_TYPES:
        rs = root_system(f, l)
        for _ in range(1000):
            lam = Weight(tuple(rng.randrange(0, 4) for _ in range(rs.rank)))
            if weyl_dim(rs, lam) < 1:
                return False
    return True


def _check_classify_agreement() -> bool:
    for t in all_lie_types(4):
        rs = root_system(t.family, t.rank)
        for coords in iproduct(range(-3, 4), repeat=rs.rank):
            v = Weight(coords)
            index = classify(rs, v)
            res = to_dominant(rs, v)
            if (index is None) != (res is None):
                return False
            if res is not None and index != res[0]:
                return False
    return True


def _check_a1_line_bundles() -> bool:
    rs = root_system("A", 1)
    for a in range(-6, 7):
        table = bwb_cohomology(rs, Weight((a,)))
        if a >= 0:
            good = (not table.vanishes and table.degree == 0
                    and table.dimension == a + 1)
        elif a == -1:
            good = table.vanishes
        else:
            good = (not table.vanishes and table.degree == 1
                    and table.dimension == -a - 1)
        if not good:
            return False
    return True


def _check_projective_cotangent() -> bool:
    return all(
        h0_twisted_cotangent(pd_of("A", n, 1), 2)[0] == n * (n + 1) // 2
        for n in range(1, 7)
    )


def _check_purity() -> bool:
    for t in all_lie_types(8):
        rs = root_system(t.family, t.rank)
        for r in range(1, t.rank + 1):
            pd = parabolic_data(rs, r)  # purity asserted internally
            nilradical = [n for roots in pd.levels.values() for n in roots]
            total = tuple(map(sum, zip(*root_weights(rs.cartan, nilradical))))
            expected = pd.fano_index * fundamental_weight(rs.rank, r)
            if total != expected.fw_coords:
                return False
    return True


def _check_table_validity() -> bool:
    seen = 0
    for t in all_lie_types(8):
        rs = root_system(t.family, t.rank)
        for r in range(1, t.rank + 1):
            pd = parabolic_data(rs, r)
            try:
                weights = konno_lowest_weights(pd)
            except UnsupportedPairError:
                continue
            seen += 1
            # w is the weight coordinates of a root of its level; A is invertible, so of one root only
            for (level, roots), w in zip(pd.levels.items(), weights):
                if w.fw_coords not in root_weights(rs.cartan, roots):
                    return False
    return seen == 142


def test_criterion_7_property_suites() -> None:
    checks = {
        "root counts": _check_root_counts(),
        "delta identity": _check_delta_identity(),
        "weyl integrality x1000": _check_weyl_integrality(),
        "classify agreement [-3,3]": _check_classify_agreement(),
        "A1 line bundles": _check_a1_line_bundles(),
        "projective cotangent": _check_projective_cotangent(),
        "purity": _check_purity(),
        "table validity": _check_table_validity(),
    }
    ok = all(checks.values())
    record(7, ok, ", ".join(k for k in checks) if ok else f"failing: {[k for k, v in checks.items() if not v]}")
    assert ok, checks


# ---------------------------------------------------------------------------
# C8: sigma and exception lookups


def test_criterion_8_sigma_and_macaulay() -> None:
    q3 = pd_of("B", 2, 1)
    f44 = pd_of("F", 4, 4)
    a42 = pd_of("A", 4, 2)
    ok = (
        macaulay_exceptions(q3, 3, 3) is MacaulayStatus.SURJECTIVITY_FAILS
        and macaulay_exceptions(f44, 5, 4) is MacaulayStatus.INJECTIVITY_FAILS
        and macaulay_exceptions(a42, 4, 2) is MacaulayStatus.NO_EXCEPTION
        and sigma(q3, 3) == 6
        and all(sigma(f44, d) == 16 * d - 22 for d in range(3, 8))
        and sigma(pd_of("D", 3, 2), 3) == 4
    )
    record(8, ok, "Q3 (3,3) surjectivity; (F4,4) (d,d-1) injectivity; (A4,2) none; sigma spots")
    assert ok


# ---------------------------------------------------------------------------
# C9: CLI determinism


def test_criterion_9_cli_determinism() -> None:
    args = [
        sys.executable, "-m", "flagcoh",
        "verify", "--sweep", "lungo", "--max-rank", "8", "--format", "json",
    ]
    first = subprocess.run(args, capture_output=True, timeout=300)
    second = subprocess.run(args, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and json.loads(first.stdout)["summary"]["failed"] == 0
    )
    record(9, ok, f"two runs, {len(first.stdout)} bytes each, byte-identical")
    assert ok
