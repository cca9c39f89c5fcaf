"""Root-system construction, pairings, and basis conversions."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

from flagcoh import rootsys
from flagcoh.parabolic import _canonical_form, konno_lowest_weights, parabolic_data
from flagcoh.rootsys import (
    ConfigError,
    Family,
    LieType,
    Root,
    Weight,
    all_lie_types,
    fundamental_weight,
    root_system,
    root_to_weight_coords,
)

from oracles import (
    classical_positive_root_count,
    coroots_from_cartan,
    epsilon_positive_roots,
    invariant_form,
    lowest_roots,
    positive_roots_by_reflection,
    symmetrizer_from_cartan,
)

ALL_TYPES_8 = all_lie_types(8)


def test_rank_bounds():
    too_big = rootsys.MAX_RANK + 1
    for fam, bad in [
        ("A", 0), ("B", 1), ("C", 2), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4),
        ("A", too_big), ("B", too_big), ("C", too_big), ("D", too_big),
    ]:
        with pytest.raises(ConfigError):
            LieType(Family(fam), bad)
    # boundary cases that must construct
    for fam, ok in [
        ("A", 1), ("B", 2), ("C", 3), ("D", 3), ("E", 6), ("F", 4), ("G", 2), ("D", rootsys.MAX_RANK),
    ]:
        assert LieType(Family(fam), ok).rank == ok
    assert max(t.rank for t in all_lie_types(10**6)) == rootsys.MAX_RANK


def test_rank_must_be_an_int():
    # True == 1 and hashes like it: accepted, it would share the cache entry of A1
    for bad in [True, 3.0, 2.5, "3"]:
        with pytest.raises(TypeError):
            LieType(Family.A, bad)
        with pytest.raises(TypeError):
            root_system("A", bad)
        for node in (0, 1):
            with pytest.raises(TypeError):
                fundamental_weight(bad, node)
        with pytest.raises(TypeError):
            all_lie_types(bad)
    assert str(root_system("A", 1).lie_type) == "A1"
    # a rank below 1 is refused, not read as the empty weight
    for rank in (0, -3):
        for node in (0, 1, -2):
            with pytest.raises(ConfigError):
                fundamental_weight(rank, node)
    # and a rank above the cap before its weight is allocated, as LieType refuses it
    for node in (0, 1):
        with pytest.raises(ConfigError, match=f"rank {rootsys.MAX_RANK + 1} out of bounds 1..{rootsys.MAX_RANK}"):
            fundamental_weight(rootsys.MAX_RANK + 1, node)
    top = fundamental_weight(rootsys.MAX_RANK, rootsys.MAX_RANK)
    assert top.fw_coords == (0,) * (rootsys.MAX_RANK - 1) + (1,)


def test_family_must_be_a_known_letter_or_a_family():
    # neither is passed through str(): None would become 'NONE' and 1 would become '1'
    for bad in (None, 1, b"B", ("B",)):
        with pytest.raises(TypeError, match="family must be a str or a Family"):
            LieType(bad, 3)
        with pytest.raises(TypeError, match="family must be a str or a Family"):
            root_system(bad, 3)
    for bad in ("X", "q", "", "BB", "Family.B"):
        with pytest.raises(ConfigError, match=f"unknown family {bad!r}, expected one of A, B, C, D, E, F, G"):
            LieType(bad, 3)
        with pytest.raises(ConfigError, match="expected one of A, B, C, D, E, F, G"):
            root_system(bad, 3)
    assert LieType("b", 3) == LieType(Family.B, 3) and LieType("b", 3).family is Family.B
    assert root_system("b", 3) is root_system(Family.B, 3)


# the root closure at every scale: at MAX_RANK, B and C have 10000 roots, the most of any supported type
CLOSURE_SCALES = ALL_TYPES_8 + [LieType(Family(f), rank) for rank in (30, rootsys.MAX_RANK) for f in "ABCD"]


@pytest.mark.parametrize("t", CLOSURE_SCALES, ids=str)
def test_positive_root_counts(t: LieType):
    rs = root_system(t.family, t.rank)
    assert len(rs.positive_roots) == classical_positive_root_count(t.family.value, t.rank)


def test_a2_closure_by_hand():
    rs = root_system("A", 2)
    assert {r.sr_coords for r in rs.positive_roots} == {(1, 0), (0, 1), (1, 1)}


def test_g2_closure():
    rs = root_system("G", 2)
    assert len(rs.positive_roots) == 6
    assert [r.sr_coords for r in rs.positive_roots].count((3, 2)) == 1
    # highest root converts to the second fundamental weight
    assert root_to_weight_coords(rs, Root((3, 2))) == Weight((0, 1))


@pytest.mark.parametrize(
    "t",
    [t for t in CLOSURE_SCALES if t.family in (Family.A, Family.B, Family.C, Family.D)],
    ids=str,
)
def test_classical_root_sets_match_epsilon_model(t: LieType):
    rs = root_system(t.family, t.rank)
    assert {r.sr_coords for r in rs.positive_roots} == epsilon_positive_roots(t.family.value, t.rank)


@pytest.mark.parametrize(
    "t", ALL_TYPES_8 + [LieType(Family(f), rank) for rank in (16, 30, rootsys.MAX_RANK) for f in "ABCD"], ids=str
)
def test_coordinate_table_rows_and_columns(t: LieType):
    # root k's row of the table is its coordinates, and node j's strided column is n_j of every root, in root order
    rs = root_system(t.family, t.rank)
    rank, table = t.rank, rs.coord_table
    coords = [r.sr_coords for r in rs.positive_roots]
    assert type(table) is bytes and len(table) == rank * len(coords)
    assert [tuple(table[k * rank : (k + 1) * rank]) for k in range(len(coords))] == coords
    assert [tuple(table[j::rank]) for j in range(rank)] == list(zip(*coords))


@pytest.mark.parametrize("t", CLOSURE_SCALES, ids=str)
def test_closure_at_every_scale(t: LieType):
    rs = root_system(t.family, t.rank)
    rank, roots = t.rank, rs.positive_roots  # a view built on each read, so read once
    coords = [r.sr_coords for r in roots]
    assert coords == sorted(coords, key=lambda n: (sum(n), n))
    # a root as one int, a byte per node, node 0 first: alpha_j is 256^(rank - 1 - j)
    keys = [int.from_bytes(bytes(n), "big") for n in coords]
    units = [1 << 8 * (rank - 1 - j) for j in range(rank)]
    for k, (key, (parent, i)) in enumerate(zip(keys, rs.root_chain)):
        if parent < 0:
            assert key == units[i]
        else:
            assert parent < k and keys[parent] + units[i] == key
    weights = [root_to_weight_coords(rs, root).fw_coords for root in roots]
    assert [rootsys._unpack(w, rank) for w in rs.packed_weights] == weights
    # at every node, the lowest weights are the roots that no simple root but alpha_r lowers, one per level,
    # found by membership in the oracle's root set; an omitted pair has none
    if t.family in (Family.A, Family.B, Family.C, Family.D):
        oracle = epsilon_positive_roots(t.family.value, rank)
    else:
        oracle = positive_roots_by_reflection(rs.cartan)
    # m = A n, m_j = sum_i a_ji n_i, from the nonzero entries a_ji of each column i
    columns = [[(j, row[i]) for j, row in enumerate(rs.cartan) if row[i]] for i in range(rank)]

    def weight(n: tuple[int, ...]) -> Weight:
        m = [0] * rank
        for i, c in enumerate(n):
            if c:
                for j, a in columns[i]:
                    m[j] += a * c
        return Weight(m)

    for r, candidates in enumerate(lowest_roots(oracle), 1):
        assert [n[r - 1] for n in candidates] == list(range(1, len(candidates) + 1))  # one per level, ascending
        expected = tuple(map(weight, candidates))
        pd = parabolic_data(rs, r)
        if _canonical_form(t, r):
            assert pd.lowest_weights is None
        else:
            assert konno_lowest_weights(pd) == expected


@pytest.mark.parametrize("t", ALL_TYPES_8, ids=str)
def test_cartan_invariants(t: LieType):
    rs = root_system(t.family, t.rank)
    n = t.rank
    for i in range(n):
        assert rs.cartan[i][i] == 2
        assert rs.scaled_symmetrizer[i] in (6, 3, 2)
        for j in range(n):
            if i != j:
                assert rs.cartan[i][j] in (0, -1, -2, -3)
            assert rs.scaled_symmetrizer[i] * rs.cartan[i][j] == rs.scaled_symmetrizer[j] * rs.cartan[j][i]


@pytest.mark.parametrize("t", ALL_TYPES_8 + [LieType(Family(f), 30) for f in "ABCD"], ids=str)
def test_dynkin_neighbours_match_cartan(t: LieType):
    rs = root_system(t.family, t.rank)
    n = t.rank
    assert rs.neighbours == tuple(
        tuple((j, rs.cartan[j][k]) for j in range(n) if j != k and rs.cartan[j][k] != 0) for k in range(n)
    )
    edges = {frozenset((j, k)) for k in range(n) for j, _ in rs.neighbours[k]}
    # a simple type's Dynkin diagram is a tree with branch nodes of degree 3 at most
    assert len(edges) == n - 1
    assert max(len(nb) for nb in rs.neighbours) <= 3
    assert "neighbours" not in repr(rs)


@pytest.mark.parametrize(
    "t",
    all_lie_types(12) + [LieType(Family(f), 30) for f in "ABCD"],
    ids=str,
)
def test_symmetrizer_and_coroots_match_cartan_oracle(t: LieType):
    # the engine keeps no coroots; test_bwb's chain-pass test pairs weights with the oracle's
    rs = root_system(t.family, t.rank)
    assert tuple(Fraction(x, 6) for x in rs.scaled_symmetrizer) == symmetrizer_from_cartan(rs.cartan)


@pytest.mark.parametrize("t", ALL_TYPES_8 + [LieType(Family(f), 30) for f in "ABCD"], ids=str)
def test_root_to_weight_coords_matches_dense_product(t: LieType):
    rs = root_system(t.family, t.rank)
    rng = random.Random(f"A n {t}")
    samples = [[rng.choice((-3, -1, 0, 0, 1, 2, 5)) for _ in range(t.rank)] for _ in range(40)]
    for n in samples + [list(r.sr_coords) for r in rs.positive_roots]:
        dense = tuple(sum(a * c for a, c in zip(row, n)) for row in rs.cartan)
        assert root_to_weight_coords(rs, Root(n)) == Weight(dense)


def test_inconsistent_diagram_raises(monkeypatch):
    # 6 (alpha_1, alpha_2) = -max(6, 4) = -6 is not a multiple of D_2 = 4
    monkeypatch.setattr(rootsys, "_diagram", lambda t: ([6, 4], [(0, 1)]))
    with pytest.raises(ArithmeticError, match="-6/4"):
        rootsys.build_root_system(LieType(Family.A, 2))
    # -max(12, 3) / 3 = -4 is not a Cartan entry
    monkeypatch.setattr(rootsys, "_diagram", lambda t: ([12, 3], [(0, 1)]))
    with pytest.raises(ArithmeticError, match="-12/3"):
        rootsys.build_root_system(LieType(Family.A, 2))


def test_cartan_matrices_spot():
    assert root_system("G", 2).cartan == ((2, -3), (-1, 2))
    assert root_system("F", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    assert root_system("B", 3).cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert root_system("C", 3).cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


def _simple_roots(rank: int) -> list[tuple[int, ...]]:
    """alpha_1, ..., alpha_l in simple-root coordinates."""
    return [tuple(int(j == i) for j in range(rank)) for i in range(rank)]


def _copairing(cartan, w: Weight, n: tuple[int, ...]) -> int:
    """<w, beta^vee> for a root beta = n, from the oracle's coroot."""
    (coroot,) = coroots_from_cartan(cartan, [n])
    return sum(m * c for m, c in zip(w.fw_coords, coroot))


def test_pairing_examples():
    rs = root_system("A", 2)
    assert invariant_form(rs.cartan, rs.weyl_vector.fw_coords, (1, 1)) == 2
    # (lambda_i, alpha_j) = delta_ij d_j
    for t in [LieType(Family.B, 4), LieType(Family.C, 4), LieType(Family.F, 4), LieType(Family.G, 2)]:
        rs = root_system(t.family, t.rank)
        for i in range(1, t.rank + 1):
            for j, alpha in enumerate(_simple_roots(t.rank), start=1):
                expect = Fraction(rs.scaled_symmetrizer[j - 1], 6) if i == j else 0
                assert invariant_form(rs.cartan, fundamental_weight(t.rank, i).fw_coords, alpha) == expect


def test_pairing_delta_vs_half_sum():
    # (delta, theta) computed directly equals (1/2) sum over positive alpha of (alpha, theta)
    rs = root_system("G", 2)
    theta = (3, 2)
    direct = invariant_form(rs.cartan, rs.weyl_vector.fw_coords, theta)
    half_sum = sum(
        (invariant_form(rs.cartan, root_to_weight_coords(rs, a).fw_coords, theta) for a in rs.positive_roots),
        Fraction(0),
    ) / 2
    assert direct == half_sum


def test_copairing_examples():
    for t in [LieType(Family.A, 3), LieType(Family.C, 3), LieType(Family.G, 2)]:
        rs = root_system(t.family, t.rank)
        for i, alpha in enumerate(_simple_roots(t.rank), start=1):
            assert _copairing(rs.cartan, rs.weyl_vector, alpha) == 1
            for j in range(1, t.rank + 1):
                assert _copairing(rs.cartan, fundamental_weight(t.rank, j), alpha) == (1 if i == j else 0)
    rs = root_system("A", 2)
    assert _copairing(rs.cartan, root_to_weight_coords(rs, Root((1, 0))), (0, 1)) == -1


@pytest.mark.parametrize("t", ALL_TYPES_8, ids=str)
def test_delta_double_identity(t: LieType):
    # the sum of the positive roots is 2 delta; the Cartan matrix is invertible,
    # so comparing weight coordinates compares the roots themselves
    rs = root_system(t.family, t.rank)
    total = [0] * t.rank
    for r in rs.positive_roots:
        for j, n in enumerate(r.sr_coords):
            total[j] += n
    assert root_to_weight_coords(rs, Root(total)) == 2 * rs.weyl_vector
    for alpha in _simple_roots(t.rank):
        assert _copairing(rs.cartan, rs.weyl_vector, alpha) == 1


@pytest.mark.parametrize("t", ALL_TYPES_8, ids=str)
def test_conversion_round_trip(t: LieType):
    # A is invertible, so every root, positive or negative, comes back from its weight coordinates
    rs = root_system(t.family, t.rank)
    positive = rs.positive_roots
    roots = list(positive) + [Root(tuple(-c for c in r.sr_coords)) for r in positive]
    back = {root_to_weight_coords(rs, r): r for r in roots}
    assert len(back) == len(roots)


def test_conversion_spot_values():
    rs = root_system("A", 2)
    assert root_to_weight_coords(rs, Root((1, 0))) == Weight((2, -1))
    assert root_to_weight_coords(rs, Root((0, 0))) == Weight((0, 0))
    rs1 = root_system("A", 1)
    assert root_to_weight_coords(rs1, Root((1,))) == 2 * fundamental_weight(1, 1)
    # 2 delta of F4 in the simple-root basis: every coordinate positive
    rsf = root_system("F", 4)
    assert root_to_weight_coords(rsf, Root((16, 30, 42, 22))) == 2 * rsf.weyl_vector


def test_pairing_symmetry_on_roots():
    for t in [LieType(Family.B, 4), LieType(Family.C, 4), LieType(Family.F, 4), LieType(Family.G, 2), LieType(Family.E, 6)]:
        rs = root_system(t.family, t.rank)
        roots = rs.positive_roots
        for b in roots:
            wb = root_to_weight_coords(rs, b).fw_coords
            for g in roots:
                wg = root_to_weight_coords(rs, g).fw_coords
                assert invariant_form(rs.cartan, wb, g.sr_coords) == invariant_form(rs.cartan, wg, b.sr_coords)


@pytest.mark.parametrize("cls", [Weight, Root])
def test_coordinates_must_be_ints(cls):
    for bad in [(1.7, 2), (1.0, 0), (0.5,), (1, Fraction(5, 2)), (Fraction(2), 0), (True, 0), (True,), (1, False)]:
        with pytest.raises(TypeError):
            cls(bad)
    from_list = cls([1, -2, 3])
    assert from_list == cls((1, -2, 3))
    assert type(from_list.sr_coords if cls is Root else from_list.fw_coords) is tuple
    hash(from_list)
    with pytest.raises(TypeError):
        cls([1, 2.0])
    name = "sr_coords" if cls is Root else "fw_coords"
    for bad in (None, 5):
        with pytest.raises(TypeError, match=f"^{name} must be an iterable of ints, got {bad!r}$"):
            cls(bad)


# unordered containers: a dict would give its keys as coordinates, a set its hash order
UNORDERED = {
    "dict": {1: 2},
    "set": {1, 0},
    "frozenset": frozenset({1, 0}),
    "dict-subclass": Counter({1: 2}),
    "keys-view": {1: 2}.keys(),
    "items-view": {1: 2}.items(),
    "mappingproxy": MappingProxyType({1: 2}),
}


@pytest.mark.parametrize("container", UNORDERED.values(), ids=UNORDERED.keys())
@pytest.mark.parametrize("cls, name", [(Weight, "fw_coords"), (Root, "sr_coords")], ids=["Weight", "Root"])
def test_unordered_coordinates_are_refused(cls, name, container):
    with pytest.raises(TypeError, match=f"^{name} must be an ordered iterable of ints, got "):
        cls(container)


def test_weight_arithmetic_keeps_int_check():
    with pytest.raises(TypeError):
        Fraction(1, 2) * Weight((2, 4))
    # a bool or a float scalar is refused, not read as 1, 0 or truncated
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError):
            bad * Weight((1, 2))
    assert 3 * Weight((1, -1)) == Weight((3, -3))


def test_root_system_hit_keeps_the_type_check():
    # a hit looks the arguments up as given; True == 1 and hash(1.0) == hash(1)
    # must still not reach the entry of A1
    root_system("A", 1)
    for _ in range(2):
        for bad in (True, 1.0):
            with pytest.raises(TypeError):
                root_system("A", bad)
        with pytest.raises(ValueError):
            root_system(" A", 3)
    assert root_system("a", 3) is root_system("A", 3) is root_system(Family.A, 3)
    assert root_system(Family.B, 3) is root_system("b", 3)


def test_weight_arithmetic_refuses_other_operands():
    w = Weight((1, 2))
    for other in (Root((1, 0)), (1, 2), 1):
        with pytest.raises(TypeError):
            w + other
        with pytest.raises(TypeError):
            w - other
    with pytest.raises(ValueError, match="length mismatch"):
        w + Weight((1, 2, 3))
    with pytest.raises(ValueError, match="length mismatch"):
        w - Weight((1,))


def test_length_validation():
    rs = root_system("A", 3)
    with pytest.raises(ValueError):
        root_to_weight_coords(rs, Root((1, 0)))
    with pytest.raises(ValueError):
        root_to_weight_coords(rs, Root((1, 0, 0, 0)))


def test_all_lie_types_enumeration():
    assert len(ALL_TYPES_8) == 32
    assert ALL_TYPES_8 == sorted(ALL_TYPES_8, key=lambda t: (t.family.value, t.rank))
    assert root_system("F", 4) is root_system("F", 4)
