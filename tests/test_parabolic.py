"""Tests for the parabolic data, the derived lowest weights, h0 sums,
and the sigma / duality-exception lookups.

Two oracles check the lowest weight of each graded piece: the paper's
table (``oracles.table_lowest_weights``) and the Lie-theoretic
characterization, the unique level-i root beta such that beta - alpha_j
is not a root for every Levi node j.  The engine derives its weights by
the second rule, so the table is what makes the comparison independent.
"""

from __future__ import annotations

import json
import random
import re
from types import MappingProxyType

import pytest

import flagcoh.cli as cli
from flagcoh import parabolic, rootsys
from flagcoh.bwb import bwb_cohomology, classify_cotangent_twist_weights, weyl_dim
from flagcoh.parabolic import (
    MacaulayStatus,
    UnsupportedPairError,
    _canonical_form,
    h0_twisted_cotangent,
    konno_lowest_weights,
    konno_pairs,
    macaulay_exceptions,
    parabolic_data,
    sigma,
)
from flagcoh.rootsys import (
    MAX_RANK,
    ConfigError,
    LieType,
    RootSystem,
    Weight,
    all_lie_types,
    build_root_system,
    fundamental_weight,
    root_system,
)

from oracles import (
    binomial,
    epsilon_weyl_dim,
    euler_characteristic_cotangent_projective_space,
    euler_characteristic_cotangent_quadric,
    h0_cotangent_projective_space,
    h0_cotangent_quadric,
    konno_table_rows,
    parabolic_gradings,
    root_weights,
    table_lowest_weights,
)


def pd_of(family: str, rank: int, node: int):
    return parabolic_data(root_system(family, rank), node)


def all_pairs(max_rank: int = 8):
    for t in all_lie_types(max_rank):
        rs = root_system(t.family, t.rank)
        for r in range(1, t.rank + 1):
            yield parabolic_data(rs, r)


# ---------------------------------------------------------------------------
# partition, dim Y, Fano index


def test_node_out_of_range() -> None:
    rs = root_system("A", 3)
    with pytest.raises(ConfigError):
        parabolic_data(rs, 0)
    with pytest.raises(ConfigError):
        parabolic_data(rs, 4)


def test_node_must_be_an_int(capsys) -> None:
    # True == 1 and hashes like it: accepted, it would share the memo entry of node 1
    rs = root_system("A", 3)
    lam2 = fundamental_weight(3, 2)
    for bad in (True, 1.0, 2.5, "1"):
        with pytest.raises(TypeError):
            parabolic_data(rs, bad)
        with pytest.raises(TypeError):
            fundamental_weight(3, bad)
        with pytest.raises(TypeError):
            classify_cotangent_twist_weights(rs, bad, 1, -lam2)
        with pytest.raises(TypeError):
            classify_cotangent_twist_weights(rs, 2, bad, -lam2)
    assert cli.run(["parabolic", "A", "3", "--node", "1", "--format", "json"]) == 0
    assert type(json.loads(capsys.readouterr().out)["node"]) is int
    # the same calls with plain ints go through
    assert classify_cotangent_twist_weights(rs, 2, 1, -lam2) is None


def test_partition_and_purity_all_pairs() -> None:
    for pd in all_pairs(8):
        positive, levels = pd.root_system.positive_roots, pd.levels  # views built on each read, so read once
        # the Levi roots are the positive roots outside the levels
        nilradical = {n for roots in levels.values() for n in roots}
        levi = [n for n in positive if n not in nilradical]
        assert len(levi) + pd.dim_y == len(positive)
        assert sum(len(v) for v in levels.values()) == pd.dim_y
        assert all(n[pd.node - 1] == 0 for n in levi)
        for level, roots in levels.items():
            assert level >= 1
            assert all(n[pd.node - 1] == level for n in roots)
        assert pd.fano_index >= 1
        # Fano index bound, with equality exactly for projective space.
        assert pd.fano_index <= pd.dim_y + 1


@pytest.mark.parametrize("t", all_lie_types(8), ids=str)
def test_grading_matches_the_reflection_oracle(t: LieType) -> None:
    # every pair, omitted ones included: the levels, read off the root system's coordinate table, and
    # dim Y, the depth and k(Y) against the Weyl-orbit roots and the invariant form
    rs = root_system(t.family, t.rank)
    for r, (levels, k) in enumerate(parabolic_gradings(rs.cartan), 1):
        pd = parabolic_data(rs, r)
        assert {i: sorted(roots) for i, roots in pd.levels.items()} == levels
        assert (pd.dim_y, pd.depth, pd.fano_index) == (sum(map(len, levels.values())), max(levels), k)


def _classical_dim_and_index(family: str, l: int, r: int) -> tuple[int, int]:
    """dim Y and k(Y) of the (isotropic) Grassmannian at node r of a classical type."""
    if family == "A":
        return r * (l + 1 - r), l + 1
    if family == "B":
        return r * (4 * l - 3 * r + 1) // 2, 2 * l - r if r < l else 2 * l
    if family == "C":
        return 2 * r * (l - r) + r * (r + 1) // 2, 2 * l - r + 1
    if r <= l - 2:
        return 2 * r * (l - r) + r * (r - 1) // 2, 2 * l - r - 1
    return binomial(l, 2), 2 * l - 2  # the spinor variety, at node l - 1 or l


@pytest.mark.parametrize("family", "ABCD")
def test_parabolic_data_at_every_node_of_max_rank(family) -> None:
    # the nilradical sums of B100 and C100 run over up to 6700 of 10000 roots
    l = MAX_RANK
    rs = root_system(family, l)
    for r in range(1, l + 1):
        pd = parabolic_data(rs, r)
        assert (pd.dim_y, pd.fano_index) == _classical_dim_and_index(family, l, r)
        assert pd.fano_index <= pd.dim_y + 1


def test_derived_levels_group_the_roots_in_root_order() -> None:
    for pd in all_pairs(12):
        grouped: dict[int, list] = {}
        for n in pd.root_system.positive_roots:
            if n[pd.node - 1]:
                grouped.setdefault(n[pd.node - 1], []).append(n)
        levels = pd.levels
        assert isinstance(levels, MappingProxyType)
        assert list(levels.items()) == [(i, tuple(grouped[i])) for i in sorted(grouped)]
        assert pd.depth == max(levels)
        assert sum(map(len, levels.values())) == pd.dim_y


def test_grassmannian_dim() -> None:
    for l, r in [(4, 2), (5, 2), (5, 3), (7, 4), (1, 1), (8, 8)]:
        assert pd_of("A", l, r).dim_y == r * (l + 1 - r)


def test_classical_dim_closed_forms() -> None:
    for l in range(2, 9):
        for r in range(1, l + 1):
            assert pd_of("B", l, r).dim_y == r * (4 * l - 3 * r + 1) // 2
    for l in range(3, 9):
        for r in range(1, l + 1):
            # 2r(l-r) + r(r+1)/2, also valid at the endpoints r = 1, l
            assert pd_of("C", l, r).dim_y == 2 * r * (l - r) + r * (r + 1) // 2
    for l in range(4, 9):
        for r in range(1, l - 1):
            assert pd_of("D", l, r).dim_y == 2 * r * (l - r) + r * (r - 1) // 2
        for r in (l - 1, l):
            assert pd_of("D", l, r).dim_y == binomial(l, 2)


def test_exceptional_dims_frozen() -> None:
    assert [pd_of("E", 6, r).dim_y for r in range(1, 7)] == [16, 21, 25, 29, 25, 16]
    assert [pd_of("E", 7, r).dim_y for r in range(1, 8)] == [33, 42, 47, 53, 50, 42, 27]
    assert [pd_of("E", 8, r).dim_y for r in range(1, 9)] == [78, 92, 98, 106, 104, 97, 83, 57]
    assert [pd_of("F", 4, r).dim_y for r in range(1, 5)] == [15, 20, 20, 15]
    assert [pd_of("G", 2, r).dim_y for r in range(1, 3)] == [5, 5]


def test_fano_index_spot_values() -> None:
    # projective spaces and Grassmannians: k = l + 1
    for l in range(1, 9):
        for r in range(1, l + 1):
            assert pd_of("A", l, r).fano_index == l + 1
    # quadrics: k = N
    for l in range(2, 9):
        assert pd_of("B", l, 1).fano_index == 2 * l - 1
    for l in range(3, 9):
        assert pd_of("D", l, 1).fano_index == 2 * l - 2
    # Lagrangian Grassmannian LG(l): k = l + 1
    for l in range(3, 9):
        assert pd_of("C", l, l).fano_index == l + 1
    # spinor varieties: k = 2l - 2
    for l in range(4, 9):
        assert pd_of("D", l, l - 1).fano_index == 2 * l - 2
    assert pd_of("F", 4, 4).fano_index == 11
    assert pd_of("E", 7, 7).fano_index == 18
    assert pd_of("E", 6, 1).fano_index == 12
    assert pd_of("G", 2, 2).fano_index == 3


def is_projective_space(family: str, l: int, r: int) -> bool:
    return (family, r) in (("A", 1), ("A", l), ("C", 1)) or (family, l, r) in (
        ("B", 2, 2), ("D", 3, 2), ("D", 3, 3),
    )


def is_quadric(family: str, l: int, r: int) -> bool:
    return (family, r) in (("B", 1), ("D", 1)) or (family, l, r) in (
        ("A", 3, 2), ("D", 4, 3), ("D", 4, 4), ("B", 3, 3), ("G", 2, 1),
    )


def test_kobayashi_ochiai_on_every_presentation() -> None:
    # k(Y) <= dim Y + 1, with equality exactly on P^n and k(Y) = dim Y exactly
    # on quadrics (Kobayashi-Ochiai, J. Math. Kyoto Univ. 13, 1973); the
    # presentations are listed by hand, omitted pairs included
    for pd in all_pairs(12):
        key = (pd.lie_type.family.value, pd.lie_type.rank, pd.node)
        assert pd.fano_index <= pd.dim_y + 1
        assert (pd.fano_index == pd.dim_y + 1) == is_projective_space(*key), key
        assert (pd.fano_index == pd.dim_y) == is_quadric(*key), key


def test_json_round_shape(capsys) -> None:
    assert cli.run(["parabolic", "F", "4", "--node", "4", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["family"] == "F" and d["rank"] == 4 and d["node"] == 4
    assert d["dim_y"] == 15 and d["k"] == 11
    assert set(d["levels"]) == {"1", "2"}
    assert all(
        isinstance(c, int) for roots in d["levels"].values() for r in roots for c in r
    )
    assert sum(len(v) for v in d["levels"].values()) == 15


# ---------------------------------------------------------------------------
# the lowest weights of the graded pieces


def lowest_weights_by_levi_action(rs, r):
    """Independent recomputation: level-i roots killed by every Levi lowering."""
    positive = rs.positive_roots
    pos = set(positive)
    out: dict[int, list[tuple[int, ...]]] = {}
    for n in positive:
        level = n[r - 1]
        if level == 0:
            continue
        lowest = True
        for j in range(rs.rank):
            if j == r - 1:
                continue
            down = tuple(n[k] - (1 if k == j else 0) for k in range(rs.rank))
            if down in pos:
                lowest = False
                break
        if lowest:
            out.setdefault(level, []).extend(root_weights(rs.cartan, [n]))
    return out


def test_table_matches_levi_lowest_weights_everywhere() -> None:
    """Paper table == Levi-action recomputation == engine, on every pair."""
    checked = {8: 0, 14: 0}
    for pd in all_pairs(14):
        t = pd.lie_type
        table = table_lowest_weights(t.family.value, t.rank, pd.node, pd.root_system.cartan)
        if table is None:
            with pytest.raises(UnsupportedPairError):
                konno_lowest_weights(pd)
            continue
        for cap in checked:
            checked[cap] += t.rank <= cap
        truth = lowest_weights_by_levi_action(pd.root_system, pd.node)
        # each graded piece is irreducible: exactly one lowest weight
        assert {lv: len(v) for lv, v in truth.items()} == {lv: 1 for lv in truth}
        assert sorted(truth) == list(range(1, pd.depth + 1))
        levi = [truth[lv][0] for lv in sorted(truth)]
        weights = konno_lowest_weights(pd)
        assert tuple(pd.levels) == tuple(sorted(truth))
        assert table == levi == [w.fw_coords for w in weights]
    assert checked == {8: 142, 14: 400}


def test_table_levels_cover_grading() -> None:
    for pd in all_pairs(8):
        try:
            weights = konno_lowest_weights(pd)
        except UnsupportedPairError:
            continue
        assert tuple(pd.levels) == tuple(range(1, pd.depth + 1))
        assert len(weights) == pd.depth


def test_lambda_zero_convention_at_node_two() -> None:
    # the second-level entry lambda_r - lambda_{r-2} degenerates to lambda_2
    for family, l in [("B", 4), ("B", 6), ("D", 5), ("D", 6)]:
        pd = pd_of(family, l, 2)
        assert konno_lowest_weights(pd)[1] == fundamental_weight(l, 2)
    with pytest.raises(ConfigError, match=r"^node 4 out of range 0\.\.3$"):
        fundamental_weight(3, 4)


def test_supported_pair_count_rank_8() -> None:
    pairs = konno_pairs(8)
    assert len(pairs) == 142
    seen = {(pd.lie_type.family.value, pd.lie_type.rank, pd.node) for pd in pairs}
    assert len(seen) == 142
    for family, l, r in [("B", 3, 3), ("C", 4, 1), ("D", 4, 4), ("E", 6, 5), ("E", 6, 6), ("G", 2, 1)]:
        assert (family, l, r) not in seen


def test_konno_pairs_builds_no_omitted_pair(monkeypatch) -> None:
    # an omitted pair is dropped before parabolic_data builds it
    built = []
    real = parabolic._build_parabolic_data

    def spy(rs, r):
        built.append((rs.lie_type, r))
        return real(rs, r)

    monkeypatch.setattr(parabolic, "_PARABOLIC", {})
    monkeypatch.setattr(parabolic, "_build_parabolic_data", spy)
    pairs = konno_pairs(8)
    assert built == [(pd.lie_type, pd.node) for pd in pairs]
    assert all(_canonical_form(t, r) is None for t, r in built)
    assert pairs == [pd for pd in all_pairs(8) if pd.lowest_weights is not None]


def test_konno_pairs_runs_the_closure_once_per_family(monkeypatch) -> None:
    # each family's top rank comes from the closure, and every rank below it is sliced from the shared instance
    # one rank up; a rank with nothing cached above it, or above a directly built instance, runs the closure
    closed = []
    real = rootsys._positive_root_closure

    def spy(cartan):
        closed.append(cartan)
        return real(cartan)

    monkeypatch.setattr(rootsys, "_CACHE", {})
    monkeypatch.setattr(parabolic, "_PARABOLIC", {})
    monkeypatch.setattr(rootsys, "_positive_root_closure", spy)
    pairs = konno_pairs(16)
    tops = [LieType(f, l) for f, l in [("A", 16), ("B", 16), ("C", 16), ("D", 16), ("E", 8), ("F", 4), ("G", 2)]]
    assert sorted(closed) == sorted(rootsys._cartan_matrix(t)[0] for t in tops)
    types = all_lie_types(16)
    assert len(types) == 64 and set(rootsys._CACHE) == {(t.family, t.rank) for t in types}
    for t in types:
        rs = rootsys._CACHE[(t.family, t.rank)]
        assert rs.lie_type == t and rs._fields() == build_root_system(t)._fields(), t
    expected = [(t, r) for t in types for r in range(1, t.rank + 1) if _canonical_form(t, r) is None]
    assert [(pd.lie_type, pd.node) for pd in pairs] == expected
    assert all(pd.root_system is rootsys._CACHE[(pd.lie_type.family, pd.lie_type.rank)] for pd in pairs)
    # nothing cached one rank up: the closure; the rank below a cached one: a slice
    del closed[:]
    root_system("D", 20)
    sliced = root_system("D", 19)
    assert closed == [rootsys._cartan_matrix(LieType("D", 20))[0]]
    assert sliced._fields() == build_root_system(LieType("D", 19))._fields()
    # a directly built instance is neither filed nor sliced
    direct = build_root_system(LieType("C", 25))
    del closed[:]
    root_system("C", 24)
    assert closed == [rootsys._cartan_matrix(LieType("C", 24))[0]]
    assert not any(rs is direct for rs in rootsys._CACHE.values())


def test_parabolic_data_keeps_the_root_system_it_is_given() -> None:
    # the memo is keyed on the root system, so a fresh one is never handed the shared one's record
    shared = parabolic_data(root_system("B", 3), 1)
    fresh = build_root_system(LieType("B", 3))
    pd = parabolic_data(fresh, 1)
    assert pd.root_system is fresh and shared.root_system is root_system("B", 3)
    again = parabolic_data(fresh, 1)
    assert again.root_system is fresh
    assert (again.dim_y, again.fano_index, again.lowest_weights) == (pd.dim_y, pd.fano_index, pd.lowest_weights)
    assert (pd.dim_y, pd.fano_index, pd.lowest_weights) == (shared.dim_y, shared.fano_index, shared.lowest_weights)


def test_only_the_shared_root_systems_are_memoized() -> None:
    # a root system built directly is not filed in the memo, which would keep it alive for good
    shared = root_system("B", 6)
    assert parabolic_data(shared, 2) is parabolic_data(shared, 2)
    size = len(parabolic._PARABOLIC)
    for _ in range(3):
        fresh = build_root_system(LieType("B", 6))
        assert parabolic_data(fresh, 2).root_system is fresh
    assert len(parabolic._PARABOLIC) == size
    assert parabolic_data(shared, 2) is parabolic_data(shared, 2)


@pytest.mark.parametrize("t", [LieType("B", 6), LieType("E", 8)], ids=str)
def test_directly_built_root_systems_give_equal_records(t: LieType) -> None:
    # records compare by value, so two calls on one direct instance agree without the memo keeping it alive
    shared = [parabolic_data(root_system(t.family, t.rank), r) for r in range(1, t.rank + 1)]
    fresh = build_root_system(t)
    sizes = len(rootsys._CACHE), len(parabolic._PARABOLIC)
    for r, memoized in enumerate(shared, 1):
        pd, again = parabolic_data(fresh, r), parabolic_data(fresh, r)
        assert pd == again and hash(pd) == hash(again)
        assert pd.root_system is fresh and again.root_system is fresh
        assert pd != memoized  # the same fields but the root system, held by identity
    assert (len(rootsys._CACHE), len(parabolic._PARABOLIC)) == sizes
    # equal records are equal pairs: the (A3, 1)/(A3, 3) and triality twins stay apart by node
    assert len(set(konno_pairs(8))) == 142


def _tampered(rs, **fields):
    """A RootSystem built by keyword from the fields of ``rs``, some of them replaced."""
    return RootSystem(**{**dict(zip(RootSystem.__slots__, rs._fields())), **fields})


def test_parabolic_build_checks_raise_their_messages() -> None:
    # Gr(2, 4) at (A3, node 2): nilradical (0,1,0), (1,1,0), (0,1,1), (1,1,1), lowest weight alpha_2
    rs = root_system("A", 3)
    coords = rs.positive_roots
    a2, a12, hi = coords.index((0, 1, 0)), coords.index((1, 1, 0)), coords.index((1, 1, 1))
    node1, node2 = 1 << 32, 1 << 16  # one unit in the packed weight digit of node 1, of node 2

    def build(shift: dict[int, int]):
        weights = [w + shift.get(k, 0) for k, w in enumerate(rs.packed_weights)]
        return parabolic._build_parabolic_data(_tampered(rs, packed_weights=tuple(weights)), 2)

    assert build({}).lowest_weights == (Weight((-1, 2, -1)),)
    cases = [
        ({a12: node1}, "sum of nilradical roots is not a multiple of lambda_2: coordinate 1 is 1"),
        ({a12: -4 * node2}, "Fano index 0 at node 2 is not positive"),
        ({a2: node2}, "lowest weight (-1, 3, -1) of (A3, node 2) has node coefficient 3"),
        ({a2: 2 * node1, a12: -2 * node1}, "2*lambda_2 - (1, 2, -1) is not dominant with 0 at node 2"),
    ]
    for shift, message in cases:
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            build(shift)
    # a level missing below the depth: levels 1 and 3, each with a valid lowest weight
    column = [0] * len(coords)
    column[a2], column[hi] = 1, 3
    weights = list(rs.packed_weights)
    weights[hi] = weights[a2]
    gapped = _tampered(rs, packed_weights=tuple(weights))
    with pytest.raises(ArithmeticError, match=f"^{re.escape('levels (1, 3) of (A3, node 2) do not cover 1..3')}$"):
        parabolic._derive_lowest_weights(gapped, 2, column, [1, 3])


def test_konno_pairs_checks_max_rank_before_it_builds() -> None:
    # above the cap it would build every type up to rank 100; it refuses, as the sweeps do, before building any
    built = dict(rootsys._CACHE), dict(parabolic._PARABOLIC)
    with pytest.raises(ConfigError, match=f"^max_rank must be <= {MAX_RANK}, got {MAX_RANK + 1}$"):
        konno_pairs(MAX_RANK + 1)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^max_rank must be >= 1, got {bad}$"):
            konno_pairs(bad)
    assert (rootsys._CACHE, parabolic._PARABOLIC) == built


def test_parabolic_data_is_shared_and_read_only() -> None:
    rs = root_system("E", 7)
    pd = parabolic_data(rs, 2)
    assert parabolic_data(rs, 2) is pd
    assert all(a is b for a, b in zip(konno_pairs(8), konno_pairs(8)))
    assert isinstance(pd.levels, MappingProxyType)
    with pytest.raises(TypeError):
        pd.levels[1] = ()
    with pytest.raises(TypeError):
        del pd.levels[1]
    with pytest.raises(AttributeError, match="cannot assign to field 'levels'"):
        pd.levels = {}


@pytest.mark.parametrize(
    "family,l,r,canonical",
    [
        ("B", 3, 3, "(D4, node 3)"),
        ("B", 2, 2, "(D3, node 2)"),
        ("C", 4, 1, "(A7, node 1)"),
        ("D", 5, 5, "(D5, node 4)"),
        ("E", 6, 5, "(E6, node 3)"),
        ("E", 6, 6, "(E6, node 1)"),
        ("G", 2, 1, "(B3, node 1)"),
    ],
)
def test_unsupported_pairs_name_canonical_form(family, l, r, canonical) -> None:
    # the pair builds, but derives no lowest weights: (G2, node 1) would
    # fail the node coefficient check
    pd = pd_of(family, l, r)
    assert pd.lowest_weights is None
    with pytest.raises(UnsupportedPairError) as err:
        konno_lowest_weights(pd)
    assert str(err.value) == (
        f"pair ({family}{l}, node {r}) is not in the lowest-weight table; "
        f"it is isomorphic to the listed pair {canonical}"
    )
    with pytest.raises(UnsupportedPairError) as err:
        macaulay_exceptions(pd, 3, 1)
    assert str(err.value) == (
        f"pair ({family}{l}, node {r}) is not in the duality-exception table; "
        f"it is isomorphic to the listed pair {canonical}"
    )


def h0_from_levi_pieces(pd, a: int) -> tuple[int, list[int]]:
    """Sum over the Levi-action pieces: (h0, degrees of the non-vanishing pieces)."""
    rs, r = pd.root_system, pd.node
    lam_r = fundamental_weight(rs.rank, r)
    h0, degrees = 0, []
    for _level, (w,) in sorted(lowest_weights_by_levi_action(rs, r).items()):
        table = bwb_cohomology(rs, a * lam_r - Weight(w))
        if not table.vanishes:
            degrees.append(table.degree)
            h0 += table.dimension if table.degree == 0 else 0
    return h0, degrees


def test_omitted_pairs_match_canonical_twin_except_g2_node_1() -> None:
    """Summing the derived pieces of an omitted pair reproduces its
    canonical twin everywhere except at (G2, node 1)."""
    omitted = [pd for pd in all_pairs(9) if _canonical_form(pd.lie_type, pd.node) is not None]
    assert len(omitted) == 25
    disagree = set()
    for pd in omitted:
        twin = pd_of(*_canonical_form(pd.lie_type, pd.node))
        for a in (1, 2, 3):
            h0, degrees = h0_from_levi_pieces(pd, a)
            same = (pd.dim_y, pd.fano_index, h0) == (
                twin.dim_y, twin.fano_index, h0_twisted_cotangent(twin, a)[0]
            )
            if not same or any(degrees):
                disagree.add((pd.lie_type.family.value, pd.lie_type.rank, pd.node))
    assert disagree == {("G", 2, 1)}


def test_g2_node_1_summed_pieces_are_wrong() -> None:
    # Q^5 = (B3, node 1) has no twisted 1-forms at a = 1; the G2 pieces
    # claim one section and also leave a piece in degree 1.
    h0, degrees = h0_from_levi_pieces(pd_of("G", 2, 1), 1)
    assert h0 == 1 and 1 in degrees
    assert h0_twisted_cotangent(pd_of("B", 3, 1), 1)[0] == 0


def test_grading_depth_frozen_values() -> None:
    # depth equals the marked coefficient of the highest root
    assert pd_of("G", 2, 2).depth == 2  # fixes the arrow convention
    assert pd_of("G", 2, 1).depth == 3
    assert [pd_of("F", 4, r).depth for r in range(1, 5)] == [2, 3, 4, 2]
    assert [pd_of("E", 6, r).depth for r in range(1, 7)] == [1, 2, 2, 3, 2, 1]
    assert [pd_of("E", 7, r).depth for r in range(1, 8)] == [2, 2, 3, 4, 3, 2, 1]
    assert [pd_of("E", 8, r).depth for r in range(1, 9)] == [2, 3, 4, 6, 5, 4, 3, 2]
    for l in range(2, 8):
        assert pd_of("A", l, 2).depth == 1
        assert pd_of("B", l, 1).depth == 1
    for l in range(4, 8):
        assert pd_of("C", l, 2).depth == 2
        assert pd_of("D", l, 2).depth == 2


def test_table_rows_raw_access() -> None:
    rows = konno_table_rows()
    assert rows is konno_table_rows()  # parsed once
    assert all({"family", "min_rank", "node_min", "node_max", "weights"} <= set(r) for r in rows)
    assert any(r["family"] == "G" for r in rows)


# ---------------------------------------------------------------------------
# twisted cotangent sections


def test_h0_f4_node4_breakdown() -> None:
    pd = pd_of("F", 4, 4)
    total, pieces = h0_twisted_cotangent(pd, 2)
    assert total == 325
    assert [(level, dim) for level, _, dim in pieces] == [(1, 273), (2, 52)]
    assert pieces[0][1] == fundamental_weight(4, 3)
    assert pieces[1][1] == fundamental_weight(4, 1)
    assert total > pd.dim_y == 15


def test_h0_quadrics_binomial() -> None:
    # h0(Omega^1(2)) on Q^N equals binomial(N + 2, 2)
    for l in range(2, 11):
        pd = pd_of("B", l, 1)
        n = 2 * l - 1
        assert h0_twisted_cotangent(pd, 2)[0] == binomial(n + 2, 2)
        assert h0_twisted_cotangent(pd, 1)[0] == 0
    for l in range(3, 11):
        pd = pd_of("D", l, 1)
        n = 2 * l - 2
        assert h0_twisted_cotangent(pd, 2)[0] == binomial(n + 2, 2)
        assert h0_twisted_cotangent(pd, 1)[0] == 0


def test_h0_orthogonal_grassmannians_twist_one() -> None:
    for l in range(3, 11):
        for r in range(2, l):
            assert h0_twisted_cotangent(pd_of("B", l, r), 1)[0] == binomial(2 * l + 1, r - 2)
    for l in range(4, 11):
        for r in range(2, l - 1):
            assert h0_twisted_cotangent(pd_of("D", l, r), 1)[0] == binomial(2 * l, r - 2)


def test_h0_lagrangian_grassmannian() -> None:
    # (C_l, node l), a = 2: the single piece shifts to 2*lambda_{l-1}
    for l in range(3, 9):
        pd = pd_of("C", l, l)
        total, pieces = h0_twisted_cotangent(pd, 2)
        lam = tuple(2 if j == l - 2 else 0 for j in range(l))
        assert pieces[0][1] is not None and pieces[0][1].fw_coords == lam
        assert total == weyl_dim(pd.root_system, pieces[0][1])
        assert total > pd.dim_y == l * (l + 1) // 2
    # cross-check the l = 3 value against the epsilon-coordinate oracle
    assert h0_twisted_cotangent(pd_of("C", 3, 3), 2)[0] == epsilon_weyl_dim("C", 3, (0, 2, 0)) == 90


def test_h0_g2_adjoint() -> None:
    pd = pd_of("G", 2, 2)
    assert h0_twisted_cotangent(pd, 1)[0] == 1  # the contact form
    total, pieces = h0_twisted_cotangent(pd, 2)
    assert total == 91
    assert [(level, dim) for level, _, dim in pieces] == [(1, 77), (2, 14)]


def test_h0_adjoint_varieties_twist_one() -> None:
    # adjoint varieties carry exactly a one-dimensional space of twisted
    # 1-forms at a = 1 (the contact structure); the piece sits at top level
    for family, l, r in [("F", 4, 1), ("E", 7, 1), ("E", 8, 8), ("G", 2, 2)]:
        total, pieces = h0_twisted_cotangent(pd_of(family, l, r), 1)
        assert total == 1
        assert pieces[-1][2] == 1


def test_h0_lemma_conformance() -> None:
    """At a = 1 the pieces with node coefficient 2 vanish and those with
    coefficient 1 survive; at a >= 2 nothing vanishes."""
    for pd in konno_pairs(6):
        weights = konno_lowest_weights(pd)
        r = pd.node
        total1, pieces1 = h0_twisted_cotangent(pd, 1)
        for w, (level, mu, dim) in zip(weights, pieces1):
            c = w.fw_coords[r - 1]
            assert c in (1, 2)
            if c == 2:
                assert mu is None and dim == 0
            else:
                assert mu is not None and dim >= 1
        for a in (2, 3):
            total, pieces = h0_twisted_cotangent(pd, a)
            assert all(dim >= 1 for _, _, dim in pieces)
            assert total == sum(dim for _, _, dim in pieces)


# Closed forms that share no code with the engine, on every small case and
# on seeded samples up to rank 30.


def test_h0_projective_space_matches_bott_formula() -> None:
    rng = random.Random(61)
    cases = [(n, a) for n in range(1, 12) for a in range(1, 7)]
    cases += [(rng.randint(12, 30), rng.randint(1, 10)) for _ in range(24)]
    for n, a in cases:
        assert h0_twisted_cotangent(pd_of("A", n, 1), a)[0] == h0_cotangent_projective_space(n, a), (n, a)


def test_h0_quadric_matches_closed_form() -> None:
    rng = random.Random(62)
    cases = [("B", l, a) for l in range(2, 9) for a in range(1, 9)]
    cases += [("D", l, a) for l in range(4, 9) for a in range(1, 9)]
    cases += [(rng.choice("BD"), rng.randint(9, 30), rng.randint(1, 10)) for _ in range(24)]
    for family, l, a in cases:
        n = 2 * l - 1 if family == "B" else 2 * l - 2
        assert h0_twisted_cotangent(pd_of(family, l, 1), a)[0] == h0_cotangent_quadric(n, a), (family, l, a)


# every presentation of P^N (A_l at its end nodes) and of Q^N (node 1 of B_l and D_l) to rank 8, with N
EULER_CASES = (
    [("A", l, r, l, euler_characteristic_cotangent_projective_space) for l in range(1, 9) for r in sorted({1, l})]
    + [("B", l, 1, 2 * l - 1, euler_characteristic_cotangent_quadric) for l in range(2, 9)]
    + [("D", l, 1, 2 * l - 2, euler_characteristic_cotangent_quadric) for l in range(3, 9)]
)


@pytest.mark.parametrize("family, l, r, n, closed_form", EULER_CASES, ids=[f"{c[0]}{c[1]}/{c[2]}" for c in EULER_CASES])
def test_euler_characteristic_matches_closed_form(family, l, r, n, closed_form) -> None:
    # chi is additive along the filtration of Omega^1_Y by its graded pieces, so chi(Omega^1_Y(a)) is the sum of
    # the signed BWB values (-1)^degree * dim at a*lambda_r - w over the lowest weights w, at every twist a,
    # including the twists a < 1 that h0_twisted_cotangent refuses
    rs = root_system(family, l)
    weights = konno_lowest_weights(parabolic_data(rs, r))
    for a in range(-8, 9):
        chi = 0
        for w in weights:
            table = bwb_cohomology(rs, a * fundamental_weight(l, r) - w)
            if not table.vanishes:
                chi += (-1) ** table.degree * table.dimension
        assert chi == closed_form(n, a), (a, chi)


def test_h0_grassmannian_duality() -> None:
    # Gr(r, l + 1) and Gr(l + 1 - r, l + 1) are the same variety
    rng = random.Random(63)
    cases = [(l, r, a) for l in range(1, 13) for r in range(1, l + 1) for a in range(1, 6)]
    for _ in range(24):
        l = rng.randint(13, 30)
        cases.append((l, rng.randint(1, l), rng.randint(1, 8)))
    for l, r, a in cases:
        dual = h0_twisted_cotangent(pd_of("A", l, l + 1 - r), a)[0]
        assert h0_twisted_cotangent(pd_of("A", l, r), a)[0] == dual, (l, r, a)


def test_h0_d4_triality() -> None:
    # (D4, node 1) and (D4, node 3) are both the six-dimensional quadric;
    # konno_pairs lists both presentations, and they must agree
    q1, q3 = pd_of("D", 4, 1), pd_of("D", 4, 3)
    assert {q1, q3} <= set(konno_pairs(4))
    assert (q1.dim_y, q1.fano_index) == (q3.dim_y, q3.fano_index) == (6, 6)
    for a in (1, 2, 3):
        assert h0_twisted_cotangent(q1, a)[0] == h0_twisted_cotangent(q3, a)[0] == h0_cotangent_quadric(6, a)


def test_h0_rejects_bad_twist() -> None:
    pd = pd_of("A", 3, 1)
    with pytest.raises(ValueError):
        h0_twisted_cotangent(pd, 0)
    with pytest.raises(ValueError):
        h0_twisted_cotangent(pd, -2)
    for bad in (2.9, 2.0, True, "2"):
        with pytest.raises(TypeError):
            h0_twisted_cotangent(pd, bad)


def test_h0_unsupported_pair_propagates() -> None:
    with pytest.raises(UnsupportedPairError):
        h0_twisted_cotangent(pd_of("G", 2, 1), 2)


def test_h0_calls_konno_lowest_weights_through_the_module(monkeypatch) -> None:
    # the benchmark tracer rebinds flagcoh.parabolic.konno_lowest_weights and
    # counts its calls per pair; h0_twisted_cotangent must look it up there
    calls = []
    real = parabolic.konno_lowest_weights

    def spy(pd):
        calls.append((pd.lie_type, pd.node))
        return real(pd)

    monkeypatch.setattr(parabolic, "konno_lowest_weights", spy)
    pd = pd_of("F", 4, 4)
    assert h0_twisted_cotangent(pd, 2)[0] == 325
    assert calls == [(pd.lie_type, 4)]


# ---------------------------------------------------------------------------
# sigma and the duality-pairing exceptions


def test_sigma_spot_values() -> None:
    assert sigma(pd_of("B", 2, 1), 3) == 6
    for d in range(3, 8):
        assert sigma(pd_of("F", 4, 4), d) == 16 * d - 22
        for l in range(1, 7):
            assert sigma(pd_of("A", l, 1), d) == (l + 1) * (d - 2)
    assert sigma(pd_of("D", 3, 2), 3) == 4


def test_sigma_rejects_low_degree() -> None:
    pd = pd_of("B", 2, 1)
    with pytest.raises(ValueError):
        sigma(pd, 2)
    with pytest.raises(ValueError):
        sigma(pd, 0)
    for bad in (3.5, 4.0, True, "3"):
        with pytest.raises(TypeError):
            sigma(pd, bad)


def test_sigma_positive_whenever_bound_holds() -> None:
    for pd in all_pairs(8):
        if pd.dim_y >= 2:
            assert sigma(pd, 3) > 0


def test_macaulay_q3_surjectivity_precedence() -> None:
    q3 = pd_of("B", 2, 1)
    assert macaulay_exceptions(q3, 3, 3) is MacaulayStatus.SURJECTIVITY_FAILS
    assert macaulay_exceptions(q3, 3, 2) is MacaulayStatus.INJECTIVITY_FAILS
    assert macaulay_exceptions(q3, 3, 1) is MacaulayStatus.INJECTIVITY_FAILS  # (d, d-2)
    assert macaulay_exceptions(q3, 4, 4) is MacaulayStatus.INJECTIVITY_FAILS
    assert macaulay_exceptions(q3, 5, 2) is MacaulayStatus.NO_EXCEPTION


def test_macaulay_quadric_family() -> None:
    for pd in (pd_of("B", 4, 1), pd_of("D", 5, 1)):
        for d in range(3, 9):
            assert macaulay_exceptions(pd, d, d - 2) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 3, 2) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 3, 3) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 4, 4) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 5, 4) is MacaulayStatus.NO_EXCEPTION


def test_macaulay_isotropic_rows() -> None:
    for pd in (pd_of("C", 3, 2), pd_of("F", 4, 4)):
        for d in range(3, 9):
            assert macaulay_exceptions(pd, d, d - 1) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 3, 3) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 4, 2) is MacaulayStatus.NO_EXCEPTION
    for l in (4, 6):
        pd = pd_of("C", l, 2)
        for d in range(3, 9):
            assert macaulay_exceptions(pd, d, d - 1) is MacaulayStatus.INJECTIVITY_FAILS
        # unlike C3, (3,3) = (d, d) is not listed for higher rank
        assert macaulay_exceptions(pd, 4, 4) is MacaulayStatus.NO_EXCEPTION


def test_macaulay_veronese_rows() -> None:
    for pd in (pd_of("A", 5, 2), pd_of("E", 6, 1)):
        assert macaulay_exceptions(pd, 3, 3) is MacaulayStatus.INJECTIVITY_FAILS
        assert macaulay_exceptions(pd, 4, 3) is MacaulayStatus.NO_EXCEPTION
        assert macaulay_exceptions(pd, 3, 2) is MacaulayStatus.NO_EXCEPTION


def test_macaulay_generic_no_exception() -> None:
    assert macaulay_exceptions(pd_of("A", 4, 2), 4, 2) is MacaulayStatus.NO_EXCEPTION
    assert macaulay_exceptions(pd_of("E", 8, 4), 3, 3) is MacaulayStatus.NO_EXCEPTION
    assert macaulay_exceptions(pd_of("G", 2, 2), 5, 4) is MacaulayStatus.NO_EXCEPTION
    # below the standing degree hypothesis the lookup refuses, as sigma does
    with pytest.raises(ValueError, match="hypersurface degree d must be >= 3"):
        macaulay_exceptions(pd_of("B", 4, 1), 2, 0)
    with pytest.raises(ValueError, match="twist a must be >= 0"):
        macaulay_exceptions(pd_of("B", 4, 1), 3, -1)


def test_macaulay_rejects_non_int_arguments() -> None:
    pd = pd_of("B", 2, 1)
    for d, a in ((3.0, 3), (3, 3.0), (True, 1), (3, True), (3.5, 2), (2.0, 0)):
        with pytest.raises(TypeError):
            macaulay_exceptions(pd, d, a)


# Isomorphic varieties that the lowest-weight table lists under two
# presentations, every one up to rank 8.
LISTED_TWINS = [
    # Gr(r, l+1) = Gr(l+1-r, l+1) under the flip of the A_l diagram
    *((("A", l, r), ("A", l, l + 1 - r)) for l in range(2, 9) for r in range((l + 1) // 2 + 1, l + 1)),
    (("D", 3, 2), ("A", 3, 1)),  # A3 = D3: both are P^3
    (("A", 3, 2), ("D", 3, 1)),  # A3 = D3: Gr(2, 4) is the quadric Q^4
    (("D", 4, 3), ("D", 4, 1)),  # triality: both are the quadric Q^6
]
# the listed twins whose variety has a row in the exception table
WITH_EXCEPTIONS = {("A", 5, 2), ("D", 3, 1), ("D", 4, 1)}


@pytest.mark.parametrize("twin, listed", LISTED_TWINS, ids=lambda p: "".join(map(str, p)))
def test_macaulay_same_answer_on_listed_twins(twin, listed) -> None:
    grid = [(d, a) for d in range(3, 9) for a in range(0, 9)]
    expected = [macaulay_exceptions(pd_of(*listed), d, a) for d, a in grid]
    assert [macaulay_exceptions(pd_of(*twin), d, a) for d, a in grid] == expected
    assert (MacaulayStatus.INJECTIVITY_FAILS in expected) == (listed in WITH_EXCEPTIONS)


def test_macaulay_refuses_omitted_pairs() -> None:
    omitted = [pd for pd in all_pairs(8) if pd.lowest_weights is None]
    assert len(omitted) == 22
    for pd in omitted:
        tf, tl, tr = _canonical_form(pd.lie_type, pd.node)
        for d in range(3, 9):
            for a in range(0, 9):
                with pytest.raises(UnsupportedPairError, match=rf"listed pair \({tf}{tl}, node {tr}\)"):
                    macaulay_exceptions(pd, d, a)
    # the listed twins answer: the Cayley plane at (3, 3), the quadric Q^5 at a = d - 2
    assert macaulay_exceptions(pd_of("E", 6, 1), 3, 3) is MacaulayStatus.INJECTIVITY_FAILS
    assert macaulay_exceptions(pd_of("B", 3, 1), 5, 3) is MacaulayStatus.INJECTIVITY_FAILS


# ---------------------------------------------------------------------------
# duality and vanishing theorems: the Fano index, the chamber walk, weyl_dim
# and the lowest weights checked against one another, on every pair up to
# rank 8 and on seeded samples up to rank 30


def sampled_pairs() -> list:
    """Four seeded nodes of each of A-D at ranks 12, 16 and 30, omitted pairs included."""
    rng = random.Random(64)
    out = []
    for l in (12, 16, 30):
        for family in "ABCD":
            rs = root_system(family, l)
            out += [parabolic_data(rs, r) for r in sorted(rng.sample(range(1, l + 1), 4))]
    return out


def test_serre_duality_and_kodaira_vanishing_for_line_bundles() -> None:
    # K_Y = O(-k): H^N(O(-k-a)) is dual to H^0(O(a)), and O(-a) is acyclic for 0 < a < k
    for pd in [*all_pairs(8), *sampled_pairs()]:
        rs, k = pd.root_system, pd.fano_index
        lam = fundamental_weight(rs.rank, pd.node)
        for a in range(3):
            table = bwb_cohomology(rs, -(k + a) * lam)
            assert (table.degree, table.dimension) == (pd.dim_y, weyl_dim(rs, a * lam))
        for a in range(1, k):
            assert bwb_cohomology(rs, -a * lam).vanishes


def test_picard_rank_one_h11_is_one() -> None:
    # H^1(Y, Omega^1_Y) = C: exactly one graded piece has cohomology at twist 0
    listed = [pd for pd in sampled_pairs() if pd.lowest_weights is not None]
    assert len(listed) > 40
    for pd in konno_pairs(8) + listed:
        tables = [bwb_cohomology(pd.root_system, -w) for w in pd.lowest_weights]
        assert [(t.degree, t.dimension) for t in tables if not t.vanishes] == [(1, 1)]


def test_akizuki_nakano_on_hermitian_symmetric_pairs() -> None:
    # at depth 1 Omega^1_Y is irreducible, so BWB on its one piece is all of
    # H^q(Y, Omega^1_Y(-a)), which vanishes for q < dim Y - 1 and a >= 1
    depth_one = [pd for pd in konno_pairs(8) if pd.depth == 1]
    assert depth_one
    for pd in depth_one:
        rs = pd.root_system
        lam = fundamental_weight(rs.rank, pd.node)
        (w,) = pd.lowest_weights
        for a in range(1, 6):
            table = bwb_cohomology(rs, -a * lam - w)
            assert table.vanishes or table.degree >= pd.dim_y - 1


def test_observed_per_piece_akizuki_nakano_on_deeper_pairs() -> None:
    # an observed property, not a theorem: at depth > 1 Omega^1_Y is only
    # filtered by its graded pieces, so a piece with cohomology below degree
    # dim Y - 1 would not contradict Akizuki-Nakano; on these pairs none has
    checks = 0
    for pd in konno_pairs(8):
        if pd.depth == 1:
            continue
        rs = pd.root_system
        lam = fundamental_weight(rs.rank, pd.node)
        for w in pd.lowest_weights:
            for a in range(1, 6):
                table = bwb_cohomology(rs, -a * lam - w)
                assert table.vanishes or table.degree >= pd.dim_y - 1, (str(pd.lie_type), pd.node, a)
                checks += 1
    assert checks == 895
