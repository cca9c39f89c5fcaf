"""Weight classification, Weyl dimensions, and cohomology tables."""

from __future__ import annotations

import itertools
import json
import math
import random
import re

import pytest

import flagcoh.bwb
import flagcoh.cli as cli
from flagcoh.bwb import (
    CohomologyTable,
    bwb_cohomology,
    classify,
    classify_cotangent_twist_weights,
    to_dominant,
    weyl_dim,
)
from flagcoh.parabolic import (
    h0_twisted_cotangent,
    konno_lowest_weights,
    macaulay_exceptions,
    parabolic_data,
    sigma,
)
from flagcoh.rootsys import (
    Family,
    LieType,
    RootSystem,
    Weight,
    _pairwise_prod,
    _root_pairings,
    _weyl_pairings,
    all_lie_types,
    build_root_system,
    fundamental_weight,
    root_system,
)

from oracles import (
    binomial,
    cartan_oracle,
    dominant_by_highest_reflection,
    epsilon_weyl_dim,
    root_weights,
    symmetrizer_from_cartan,
    type_a_weyl_dim,
    weyl_product,
)

RANK_LE_4 = [t for t in all_lie_types(4)]
KERNEL_TYPES = all_lie_types(8) + [LieType(Family(f), 30) for f in "ABCD"]


@pytest.mark.parametrize("t", KERNEL_TYPES, ids=str)
def test_chain_pass_matches_coroot_oracle(t: LieType):
    # classify reads the chamber walk and weyl_dim, at these small weights, the packed root columns; the oracle
    # pairs with coroots directly
    rs = root_system(t.family, t.rank)
    roots, coroots = cartan_oracle(rs.cartan)
    rng = random.Random(f"chain pass {t}")
    for k in range(40):
        m = [rng.randint(-3, 3) for _ in range(t.rank)]
        if k % 2:
            # a Weyl image of a regular dominant weight: regular, of any index
            m = [rng.randint(1, 3) for _ in range(t.rank)]
            for _ in range(rng.randrange(3 * t.rank)):
                j = rng.randrange(t.rank)
                c = m[j]
                m = [x - c * row[j] for x, row in zip(m, rs.cartan)]
        pairings = [sum(a * b for a, b in zip(m, c)) for c in coroots]
        expected = None if 0 in pairings else sum(1 for x in pairings if x < 0)
        assert classify(rs, Weight(m)) == expected
    for _ in range(10):
        m = tuple(rng.randint(0, 3) for _ in range(t.rank))
        assert weyl_dim(rs, Weight(m)) == weyl_product(rs.cartan, m, roots)


@pytest.mark.parametrize("t", KERNEL_TYPES, ids=str)
def test_chain_tables_match_cartan_oracle(t: LieType):
    rs = root_system(t.family, t.rank)
    roots, _ = cartan_oracle(rs.cartan)
    # the oracle's d rescaled to put the short roots at 1, where every d_j is an integer;
    # (delta, alpha) = sum_j n_j d_j, since (lambda_i, alpha_j) = delta_ij d_j
    oracle = symmetrizer_from_cartan(rs.cartan)
    d = [x / min(oracle) for x in oracle]
    assert all(x.denominator == 1 for x in d)
    assert rs.weyl_denominator == math.prod(sum(x * y for x, y in zip(n, d)) for n in roots)
    assert set(rs.positive_roots) == set(roots)


def test_classify_delta():
    for t in all_lie_types(6):
        rs = root_system(t.family, t.rank)
        # exactly the int 0: compare results with `is None`, since index 0 is falsy
        index = classify(rs, rs.weyl_vector)
        assert type(index) is int and index == 0
        assert classify(rs, -rs.weyl_vector) == len(rs.positive_roots)


def test_classify_lemma_singular_shape():
    # -alpha_r + lambda_r + delta is singular for every node of a few types
    for fam, l in [("A", 3), ("B", 4), ("F", 4), ("G", 2)]:
        rs = root_system(fam, l)
        for r in range(1, l + 1):
            (alpha_r,) = root_weights(rs.cartan, [tuple(int(j == r) for j in range(1, l + 1))])
            v = fundamental_weight(l, r) - Weight(alpha_r) + rs.weyl_vector
            assert classify(rs, v) is None


def test_to_dominant_spot():
    for fam, l in [("A", 2), ("C", 3), ("G", 2)]:
        rs = root_system(fam, l)
        assert to_dominant(rs, rs.weyl_vector) == (0, rs.weyl_vector)
        for i in range(1, l + 1):
            # s_i(delta) = delta - alpha_i
            (alpha_i,) = root_weights(rs.cartan, [tuple(int(j == i) for j in range(1, l + 1))])
            assert to_dominant(rs, rs.weyl_vector - Weight(alpha_i)) == (1, rs.weyl_vector)
    rs1 = root_system("A", 1)
    assert to_dominant(rs1, Weight((-1,))) == (1, Weight((1,)))
    assert to_dominant(rs1, Weight((0,))) is None


@pytest.mark.parametrize("t", RANK_LE_4, ids=str)
def test_classify_to_dominant_agreement_exhaustive(t: LieType):
    rs = root_system(t.family, t.rank)
    for coords in itertools.product(range(-3, 4), repeat=t.rank):
        v = Weight(coords)
        index = classify(rs, v)
        low = to_dominant(rs, v)
        high = dominant_by_highest_reflection(rs.cartan, coords)
        if index is None:
            assert low is None and high is None
        else:
            assert low is not None and high is not None
            assert low[0] == index == high[0]
            assert low[1].fw_coords == high[1]  # dominant representative is strategy-independent
            assert low[1].is_dominant()



def _reflect(cartan, k: int, m: list[int]) -> list[int]:
    """s_k on fundamental-weight coordinates: m - m_k (column k of the Cartan matrix)."""
    c = m[k]
    return [x - c * cartan[j][k] for j, x in enumerate(m)]


LARGE_RANK_TYPES = [LieType(Family(f), 30) for f in "ABCD"] + [
    LieType(Family.E, 8),
    LieType(Family.F, 4),
    LieType(Family.G, 2),
]


@pytest.mark.parametrize("t", LARGE_RANK_TYPES, ids=str)
def test_to_dominant_matches_oracle_at_large_rank(t: LieType):
    rs = root_system(t.family, t.rank)
    n = t.rank
    n_pos = len(rs.positive_roots)
    rng = random.Random(f"to_dominant {t}")
    weights = []
    for _ in range(8):
        # wall: a zero coordinate carried off the simple walls by a few reflections
        m = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(n)]
        m[rng.randrange(n)] = 0
        for _ in range(rng.randint(0, 6)):
            m = _reflect(rs.cartan, rng.randrange(n), m)
        weights.append(("wall", tuple(m)))
        # antidominant: -(mu + delta) with mu dominant
        weights.append(("antidominant", tuple(-1 - rng.randint(0, 3) for _ in range(n))))
        weights.append(("random", tuple(rng.randint(-4, 4) for _ in range(n))))
        weights.append(("random", tuple(rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(n))))
    weights.append(("antidominant", tuple([-1] * n)))
    for kind, coords in weights:
        v = Weight(coords)
        got = to_dominant(rs, v)
        expect = dominant_by_highest_reflection(rs.cartan, coords)
        if expect is None:
            assert got is None, (kind, coords)
            assert classify(rs, v) is None
            continue
        assert kind != "wall", coords
        assert got is not None, (kind, coords)
        assert (got[0], got[1].fw_coords) == expect
        assert got[0] == classify(rs, v)
        if kind == "antidominant":
            assert got[0] == n_pos
    assert to_dominant(rs, -rs.weyl_vector) == (n_pos, rs.weyl_vector)


# sigma = -w0 is not the identity on A, odd D and E6 (in all_lie_types(8)); A29, A30, D29 and D31 reach it at
# large rank, odd and even
ANTIDOMINANT_TYPES = all_lie_types(8) + [LieType(Family(f), l) for f, l in (("A", 29), ("A", 30), ("D", 29), ("D", 31))]


@pytest.mark.parametrize("t", ANTIDOMINANT_TYPES, ids=str)
def test_antidominant_weights_match_the_oracle(t: LieType):
    # -(1, 2, ..., l) is antidominant with distinct coordinates, so the oracle's walk shows where each node goes;
    # the engine answers it through w0 with no walk, in degree |Phi+|
    rs = root_system(t.family, t.rank)
    coords = tuple(-(i + 1) for i in range(t.rank))
    steps, dominant = dominant_by_highest_reflection(rs.cartan, coords)
    assert steps == len(rs.root_chain)
    assert to_dominant(rs, Weight(coords)) == (steps, Weight(dominant))
    assert classify(rs, Weight(coords)) == steps


def test_to_dominant_step_bound_and_length():
    rs = root_system("A", 2)
    # the affine A1 Cartan matrix: s_1 and s_2 generate an infinite group, so the walk never ends
    affine = RootSystem(
        lie_type=rs.lie_type,
        cartan=((2, -2), (-2, 2)),
        symmetrizer=rs.symmetrizer,
        root_chain=rs.root_chain,
        weyl_denominator=rs.weyl_denominator,
        neighbours=(((1, -2),), ((0, -2),)),
        packed_weights=rs.packed_weights,
        coord_table=rs.coord_table,
        root_columns=rs.root_columns,
    )
    for walk in (to_dominant, classify):
        with pytest.raises(ArithmeticError, match="after \\|Phi\\+\\| = 3 reflections"):
            walk(affine, Weight((-1, 1)))
    for bad in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            to_dominant(rs, Weight(bad))


@pytest.mark.parametrize(
    "call",
    [
        lambda rs, c: bwb_cohomology(rs, Weight(c)),
        lambda rs, c: to_dominant(rs, Weight(c)),
        lambda rs, c: weyl_dim(rs, Weight(c)),
        lambda rs, c: classify_cotangent_twist_weights(rs, 1, 1, Weight(c)),
    ],
    ids=[
        "bwb_cohomology", "to_dominant", "weyl_dim", "classify_cotangent_twist_weights",
    ],
)
@pytest.mark.parametrize("coords", [(1,), (1, 1, 1)], ids=["short", "long"])
def test_wrong_length_names_the_rank(call, coords):
    # one message for every entry point that takes coordinates, whatever it computes first
    with pytest.raises(ValueError, match=f"^expected 2 coordinates, got {len(coords)}$"):
        call(root_system("A", 2), coords)


@pytest.mark.parametrize(
    "call,expected",
    [
        (bwb_cohomology, "lam must be a Weight"),
        (to_dominant, "v must be a Weight"),
        (weyl_dim, "lam must be a Weight"),
        (lambda rs, x: classify_cotangent_twist_weights(rs, 1, 1, x), "twisted_weight must be a Weight"),
    ],
    ids=[
        "bwb_cohomology", "to_dominant", "weyl_dim", "classify_cotangent_twist_weights",
    ],
)
@pytest.mark.parametrize("given", ["tuple", "list", "other record"])
def test_non_record_arguments_name_the_argument(call, expected, given):
    # a tuple, a list, or the other record type: a TypeError naming the argument, not an AttributeError
    bad = {"tuple": (1, 0), "list": [1, 0], "other record": LieType("A", 2)}[given]
    with pytest.raises(TypeError, match=f"^{re.escape(f'{expected}, got {bad!r}')}$"):
        call(root_system("A", 2), bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda rs: bwb_cohomology(rs, Weight((1, 0))),
        lambda rs: to_dominant(rs, Weight((1, 0))),
        lambda rs: weyl_dim(rs, Weight((1, 0))),
        lambda rs: classify_cotangent_twist_weights(rs, 1, 1, Weight((1, 0))),
    ],
    ids=[
        "bwb_cohomology", "to_dominant", "weyl_dim", "classify_cotangent_twist_weights",
    ],
)
@pytest.mark.parametrize("given", ["none", "lie type", "parabolic data"])
def test_non_root_system_names_the_argument(call, given):
    # a LieType has a rank but no Cartan matrix: refused with parabolic_data's message, not an AttributeError
    bad = {"none": None, "lie type": LieType("A", 2), "parabolic data": parabolic_data(root_system("A", 2), 1)}[given]
    with pytest.raises(TypeError, match=f"^{re.escape(f'rs must be a RootSystem, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda bad: h0_twisted_cotangent(bad, 1), "pd must be a ParabolicData"),
        (konno_lowest_weights, "pd must be a ParabolicData"),
        (lambda bad: sigma(bad, 3), "pd must be a ParabolicData"),
        (lambda bad: macaulay_exceptions(bad, 3, 1), "pd must be a ParabolicData"),
        (lambda bad: parabolic_data(bad, 1), "rs must be a RootSystem"),
    ],
    ids=["h0_twisted_cotangent", "konno_lowest_weights", "sigma", "macaulay_exceptions", "parabolic_data"],
)
@pytest.mark.parametrize("given", ["tuple", "list", "other record", "lie type"])
def test_non_record_parabolic_arguments_name_the_argument(call, expected, given):
    # the records of the parabolic entry points: a TypeError naming the argument, not an AttributeError
    rs = root_system("A", 2)
    other = parabolic_data(rs, 1) if expected.endswith("RootSystem") else rs
    bad = {"tuple": (1, 0), "list": [1, 0], "other record": other, "lie type": LieType("A", 2)}[given]
    with pytest.raises(TypeError, match=f"^{re.escape(f'{expected}, got {bad!r}')}$"):
        call(bad)


def test_bwb_cohomology_calls_to_dominant_through_the_module(monkeypatch):
    # outside-in tracing rebinds flagcoh.bwb.to_dominant and counts reflections
    # from its result, so bwb_cohomology must look the walk up there
    calls = []

    def spy(rs, v):
        calls.append(v)
        return to_dominant(rs, v)

    monkeypatch.setattr(flagcoh.bwb, "to_dominant", spy)
    rs = root_system("B", 3)
    lam = Weight((-5, 1, 2))
    table = bwb_cohomology(rs, lam)
    assert calls == [lam + rs.weyl_vector]
    assert (table.degree, table.dominant_weight) == (3, Weight((1, 0, 0)))


def test_weyl_dim_trivial_and_f4():
    for t in all_lie_types(6):
        rs = root_system(t.family, t.rank)
        assert weyl_dim(rs, Weight((0,) * t.rank)) == 1
    rs = root_system("F", 4)
    lam = 2 * fundamental_weight(4, 4) - Weight(*root_weights(rs.cartan, [(0, 0, 0, 1)]))
    assert lam == fundamental_weight(4, 3)
    assert weyl_dim(rs, lam) == 273
    assert weyl_dim(rs, fundamental_weight(4, 1)) == 52
    assert weyl_dim(rs, fundamental_weight(4, 4)) == 26
    assert weyl_dim(rs, fundamental_weight(4, 2)) == 1274


def test_weyl_dim_exceptional_classics():
    cases = [
        ("G", 2, (1, 0), 7),
        ("G", 2, (0, 1), 14),
        ("G", 2, (2, 0), 27),
        ("G", 2, (3, 0), 77),
        ("E", 6, (1, 0, 0, 0, 0, 0), 27),
        ("E", 6, (0, 1, 0, 0, 0, 0), 78),
        ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
        ("E", 7, (1, 0, 0, 0, 0, 0, 0), 133),
        ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ]
    for fam, l, coords, expect in cases:
        assert weyl_dim(root_system(fam, l), Weight(coords)) == expect


def test_weyl_dim_type_a_binomials():
    for l in range(1, 9):
        rs = root_system("A", l)
        for r in range(1, l + 1):
            assert weyl_dim(rs, fundamental_weight(l, r)) == binomial(l + 1, r)


def test_weyl_dim_type_a_against_partition_oracle():
    rng = random.Random(7)
    for l in range(1, 7):
        rs = root_system("A", l)
        for _ in range(50):
            coords = tuple(rng.randint(0, 4) for _ in range(l))
            assert weyl_dim(rs, Weight(coords)) == type_a_weyl_dim(l, coords)


@pytest.mark.parametrize("fam", ["B", "C", "D"])
def test_weyl_dim_against_epsilon_oracle(fam):
    rng = random.Random(11)
    lo = 2 if fam == "B" else 3
    for l in range(lo, 7):
        rs = root_system(fam, l)
        for _ in range(40):
            coords = tuple(rng.randint(0, 3) for _ in range(l))
            assert weyl_dim(rs, Weight(coords)) == epsilon_weyl_dim(fam, l, coords)


# |Phi+| from 132 to 900, odd and even, on both sides of the pairwise product's leaf length
# (192): B14 and A21 run one level and the rank-30 types two or three; A21 and A-D 30 meet odd lengths
WIDE_TYPES = [
    LieType(Family(f), l)
    for f, l in [("A", 16), ("A", 17), ("B", 12), ("B", 13), ("C", 12), ("D", 12), ("B", 14), ("A", 21)]
    + [(f, 30) for f in "ABCD"]
]
# F4 and G2, whose symmetrizers are the only ones not constant on all nodes but one, and E6-E8
EXCEPTIONAL_TYPES = [LieType(Family.E, l) for l in (6, 7, 8)] + [LieType(Family.F, 4), LieType(Family.G, 2)]


def _weyl_dim_oracle(t: LieType, coords: tuple[int, ...]) -> int:
    if t.family is Family.A:
        return type_a_weyl_dim(t.rank, coords)
    if t in EXCEPTIONAL_TYPES:
        # pairs with the oracle's coroots, so it reads no symmetrizer
        cartan = root_system(t.family, t.rank).cartan
        product = weyl_product(cartan, coords, cartan_oracle(cartan)[0])
        assert product.denominator == 1
        return int(product)
    return epsilon_weyl_dim(str(t.family), t.rank, coords)


@pytest.mark.parametrize("t", WIDE_TYPES + EXCEPTIONAL_TYPES, ids=str)
def test_wide_weyl_products_match_the_oracles(t: LieType):
    # weyl_dim at seeded dominant weights, one of them near 10^30 at rank 30 and in the exceptional types,
    # and bwb_cohomology at a regular weight in another chamber with the same dominant weight
    rs = root_system(t.family, t.rank)
    rng = random.Random(f"wide {t}")
    weights = [tuple(rng.randint(0, 3) for _ in range(t.rank)) for _ in range(3)]
    if t.rank == 30 or t in EXCEPTIONAL_TYPES:
        weights.append(tuple(10**30 + rng.randint(0, 10**6) for _ in range(t.rank)))
    for coords in weights:
        expected = _weyl_dim_oracle(t, coords)
        assert weyl_dim(rs, Weight(coords)) == expected
        # lam + delta moved off the dominant chamber by 40 simple reflections from the Cartan matrix
        v = [c + 1 for c in coords]
        for _ in range(40):
            k = rng.randrange(t.rank)
            v = [v[j] - v[k] * rs.cartan[j][k] for j in range(t.rank)]
        if min(v) > 0:
            # the walk came back to the dominant chamber, as it can in the 12-element Weyl group of G2
            v = [v[j] - v[0] * rs.cartan[j][0] for j in range(t.rank)]
        steps, dominant = dominant_by_highest_reflection(rs.cartan, tuple(v))
        assert steps > 0 and dominant == tuple(c + 1 for c in coords)
        table = bwb_cohomology(rs, Weight(tuple(c - 1 for c in v)))
        assert (table.degree, table.dominant_weight, table.dimension) == (steps, Weight(coords), expected)
        # the antidominant image lam = -mu - 2 delta: lam + delta = -(mu + delta) has degree |Phi+|, and its
        # dominant weight is the highest weight of the dual module, which has the same dimension
        anti = tuple(-c - 1 for c in coords)
        steps, dominant = dominant_by_highest_reflection(rs.cartan, anti)
        assert steps == len(rs.root_chain)
        table = bwb_cohomology(rs, Weight(tuple(c - 1 for c in anti)))
        dual = Weight(tuple(c - 1 for c in dominant))
        assert (table.degree, table.dominant_weight, table.dimension) == (steps, dual, expected)


@pytest.mark.parametrize("t", KERNEL_TYPES + [LieType(Family(f), 100) for f in "ABCD"], ids=str)
def test_packed_pairings_match_the_chain_pass(t: LieType):
    # a digit of the packed pairings is at most (max(m) + 1) max_k s_k(delta); up to 0xFFFF they are read off
    # the root columns, past it the chain pass gives them.  Either way they are the chain pass's pairings, so
    # weyl_dim forms the same product; it is formed up to rank 30, where it costs little
    rs = root_system(t.family, t.rank)
    rank = t.rank
    edge = 0xFFFF // max(_root_pairings(rs.root_chain, rs.symmetrizer, (0,) * rank)) - 1
    rng = random.Random(f"packed {t}")
    weights = []
    for size in (1, 1, 2, 2):
        m = [0] * rank
        for j in rng.sample(range(rank), min(size, rank)):
            m[j] = rng.randint(1, 3)
        weights.append(tuple(m))
    weights += [tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(2)]
    weights += [(edge,) * rank, (edge + 1,) * rank]
    roots = cartan_oracle(rs.cartan)[0] if rank <= 8 else None
    for m in weights:
        chain = _root_pairings(rs.root_chain, rs.symmetrizer, m)
        pairings = _weyl_pairings(rs, m)
        assert isinstance(pairings, memoryview) == (max(m) <= edge)
        assert sorted(pairings) == sorted(chain)
        if rank <= 30:
            dim = weyl_dim(rs, Weight(m))
            assert _pairwise_prod(pairings) == _pairwise_prod(chain) == dim * rs.weyl_denominator
            assert roots is None or dim == weyl_product(rs.cartan, m, roots)


@pytest.mark.parametrize("t", KERNEL_TYPES + [LieType(Family(f), 100) for f in "ABCD"], ids=str)
def test_delta_digits_are_the_chain_pass_at_delta(t: LieType):
    # the build reads the denominator off DELTA, the sum of the root columns; the chain pass at lam = 0 stays the
    # reference: digit k of DELTA, counted from the least significant, is s_k(delta), and the largest is the bound
    rs = root_system(t.family, t.rank)
    columns, delta, top = rs.root_columns
    chain = _root_pairings(rs.root_chain, rs.symmetrizer, (0,) * t.rank)
    assert sum(columns) == delta and delta >> 16 * len(chain) == 0
    assert [delta >> 16 * k & 0xFFFF for k in range(len(chain))] == chain
    assert top == max(chain)
    assert rs.weyl_denominator == _pairwise_prod(chain)


@pytest.mark.parametrize("t", [LieType(Family.B, 6), LieType(Family.E, 8)], ids=str)
def test_direct_root_systems_read_their_stored_columns(t: LieType, monkeypatch):
    # a root system built directly carries its root columns: weyl_dim answers as on the shared instance, builds no
    # column per query, and files nothing in a memo, which would keep the instance alive for good
    shared = root_system(t.family, t.rank)
    direct = build_root_system(t)
    rng = random.Random(f"direct {t}")
    weights = [Weight(tuple(rng.randint(0, 3) for _ in range(t.rank))) for _ in range(4)]
    answers = [weyl_dim(shared, lam) for lam in weights]
    h0 = h0_twisted_cotangent(parabolic_data(shared, 1), 2)
    sizes = len(flagcoh.rootsys._CACHE), len(flagcoh.parabolic._PARABOLIC)
    calls = []
    build = flagcoh.rootsys._root_columns
    monkeypatch.setattr(flagcoh.rootsys, "_root_columns", lambda *args: calls.append(args) or build(*args))
    for _ in range(3):
        assert [weyl_dim(direct, lam) for lam in weights] == answers
        assert h0_twisted_cotangent(parabolic_data(direct, 1), 2) == h0
    assert calls == []
    assert (len(flagcoh.rootsys._CACHE), len(flagcoh.parabolic._PARABOLIC)) == sizes


@pytest.mark.parametrize("t", [LieType(Family.A, 2), LieType(Family.B, 12)], ids=str)
def test_weyl_product_exact_check(t: LieType):
    # a denominator off by a factor 7: the quotient is not an integer, and the exact check
    # names the dominant weight, whether weyl_dim or bwb_cohomology reached the product
    rs = root_system(t.family, t.rank)
    fields = {name: getattr(rs, name) for name in RootSystem.__slots__}
    fake = RootSystem(**{**fields, "weyl_denominator": 7 * rs.weyl_denominator})
    lam1 = (1,) + (0,) * (t.rank - 1)
    dim = _weyl_dim_oracle(t, lam1)
    num = dim * rs.weyl_denominator
    message = f"^{re.escape(f'Weyl product {num}/{7 * rs.weyl_denominator} at {lam1} is not a positive integer')}$"
    # lam1 + delta reflected at node 1, less delta: degree 1, dominant weight lam1
    off = (-3, 2) + (0,) * (t.rank - 2)
    for call, coords in ((weyl_dim, lam1), (bwb_cohomology, lam1), (bwb_cohomology, off)):
        with pytest.raises(ArithmeticError, match=message):
            call(fake, Weight(coords))
    assert bwb_cohomology(rs, Weight(off)) == CohomologyTable(1, Weight(lam1), dim)


def test_weyl_dim_rejects_non_dominant():
    rs = root_system("B", 3)
    with pytest.raises(ValueError):
        weyl_dim(rs, Weight((1, -1, 0)))


# restricted Weyl products come from the engine-free oracles.weyl_product; the tests keep their ids


def test_partial_weyl_product():
    rs = root_system("C", 5)
    lam = 2 * fundamental_weight(5, 2)
    roots = rs.positive_roots
    assert weyl_product(rs.cartan, lam.fw_coords, []) == 1
    assert weyl_product(rs.cartan, lam.fw_coords, roots) == weyl_dim(rs, lam)
    # the subset of roots avoiding the long simple root, for the 2 lambda_{r-1}
    # bundle weight at r = 3: closed form [(l+1)l...(l-r+3)/r!][l(l-1)...(l-r+2)/(r-1)!]
    subset_a = [n for n in roots if n[-1] == 0]
    assert weyl_product(rs.cartan, lam.fw_coords, subset_a) == 50
    with pytest.raises(ValueError, match=r"^weight \(0, -2, 0, 0, 0\) is not dominant$"):
        weyl_dim(rs, Weight((0, -2, 0, 0, 0)))


@pytest.mark.parametrize("t", all_lie_types(8), ids=str)
def test_partial_weyl_product_levi_and_nilradical_split_weyl_dim(t: LieType):
    # the Levi roots (node coefficient 0) and the levels partition the positive
    # roots at every node, omitted pairs included, so their restricted products
    # multiply to the Weyl dimension
    rs = root_system(t.family, t.rank)
    rng = random.Random(f"partial product {t}")
    weights = [(0,) * t.rank] + [tuple(rng.randint(0, 3) for _ in range(t.rank)) for _ in range(3)]
    for r in range(1, t.rank + 1):
        pd = parabolic_data(rs, r)
        levi = [n for n in rs.positive_roots if n[r - 1] == 0]
        nilradical = [n for level in pd.levels.values() for n in level]
        for m in weights:
            product = weyl_product(rs.cartan, m, levi) * weyl_product(rs.cartan, m, nilradical)
            assert product == weyl_dim(rs, Weight(m))


def test_partial_weyl_product_monotone():
    # every factor <lam + delta, beta^vee> / <delta, beta^vee> of a dominant lam is >= 1
    rng = random.Random(3)
    for fam, l in [("B", 4), ("C", 4), ("F", 4)]:
        rs = root_system(fam, l)
        lam = Weight(tuple(rng.randint(0, 3) for _ in range(l)))
        roots = rs.positive_roots
        small = roots[: len(roots) // 2]
        assert weyl_product(rs.cartan, lam.fw_coords, small) <= weyl_product(rs.cartan, lam.fw_coords, roots)
        assert weyl_product(rs.cartan, lam.fw_coords, roots) <= weyl_dim(rs, lam)


def test_restricted_product_equals_dim_y_for_c_last_node():
    # at r = l the bundle weight is 2 lambda_{l-1}; restricted to roots with
    # n_l = 0 the Weyl product collapses to l(l+1)/2, the dimension of the
    # Lagrangian Grassmannian itself.  Those roots are the roots of A_{l-1}, all
    # short, and 2 lambda_{l-1} restricts to 2 omega_{l-1}, so the restricted
    # product is a Weyl dimension of A_{l-1}, which the lungo sweep reads
    for l in (*range(3, 9), 12, 16, 30):
        rs = root_system("C", l)
        lam = 2 * fundamental_weight(l, l - 1)
        levi = weyl_dim(root_system("A", l - 1), 2 * fundamental_weight(l - 1, l - 1))
        assert levi == l * (l + 1) // 2
        assert weyl_dim(rs, lam) > levi  # full product is strictly bigger
        if l <= 16:
            subset_a = [n for n in rs.positive_roots if n[-1] == 0]
            assert weyl_product(rs.cartan, lam.fw_coords, subset_a) == levi


@pytest.mark.parametrize("t", all_lie_types(8), ids=str)
def test_signed_weyl_polynomial_matches_bwb(t: LieType):
    # the Weyl polynomial over all positive roots is 0 exactly when the cohomology vanishes,
    # and otherwise (-1)^degree times its dimension, by Bott's theorem
    rs = root_system(t.family, t.rank)
    roots, _ = cartan_oracle(rs.cartan)  # the Weyl-orbit roots of positive_roots_by_reflection
    rng = random.Random(f"signed weyl polynomial {t}")
    for _ in range(40):
        m = tuple(rng.randint(-6, 4) for _ in range(t.rank))
        table = bwb_cohomology(rs, Weight(m))
        expected = 0 if table.vanishes else (-1) ** table.degree * table.dimension
        assert weyl_product(rs.cartan, m, roots) == expected


def test_bwb_projective_line():
    rs = root_system("A", 1)
    for a in range(-6, 7):
        table = bwb_cohomology(rs, Weight((a,)))
        if a >= 0:
            assert table == CohomologyTable(0, Weight((a,)), a + 1)
        elif a == -1:
            assert table == CohomologyTable()
            assert table.vanishes
        else:
            assert not table.vanishes
            assert table.degree == 1
            assert table.dimension == -a - 1


def test_vanishing_result_is_the_empty_frozen_table():
    rs = root_system("B", 3)
    for _ in range(2):
        table = bwb_cohomology(rs, Weight((-1, 0, 0)))
        assert table == CohomologyTable()
        assert table.vanishes
        for name in ("degree", "dominant_weight", "dimension"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(table, name, 1)


def _plain_ints(coords) -> bool:
    return all(type(c) is int for c in coords)


def test_engine_builds_plain_int_coordinates():
    # engine values are built without a re-check, so their coordinates are checked here
    rng = random.Random(15)
    for t in all_lie_types(8):
        rs = root_system(t.family, t.rank)
        l = t.rank
        assert _plain_ints(rs.weyl_vector.fw_coords)
        for n in rs.positive_roots:
            assert _plain_ints(n)
        assert all(_plain_ints(flagcoh.rootsys._unpack(w, l)) for w in rs.packed_weights)
        for i in range(l + 1):
            lam = fundamental_weight(l, i)
            for w in (lam, lam + rs.weyl_vector, lam - rs.weyl_vector, -lam, 3 * lam):
                assert _plain_ints(w.fw_coords)
        for _ in range(20):
            lam = Weight(tuple(rng.randint(-4, 3) for _ in range(l)))
            walked = to_dominant(rs, lam)
            if walked is not None:
                assert type(walked[0]) is int and _plain_ints(walked[1].fw_coords)
            table = bwb_cohomology(rs, lam)
            if not table.vanishes:
                assert type(table.degree) is int and type(table.dimension) is int
                assert _plain_ints(table.dominant_weight.fw_coords)
        for r in range(1, l + 1):
            pd = parabolic_data(rs, r)
            if pd.lowest_weights is None:
                continue
            assert all(_plain_ints(w.fw_coords) for w in konno_lowest_weights(pd))
            for a in (1, 2, 3):
                total, pieces = h0_twisted_cotangent(pd, a)
                assert type(total) is int
                for _, mu, dim in pieces:
                    assert type(dim) is int
                    assert mu is None or _plain_ints(mu.fw_coords)


def test_bwb_f4_example():
    rs = root_system("F", 4)
    lam = 2 * fundamental_weight(4, 4) - Weight(*root_weights(rs.cartan, [(0, 0, 0, 1)]))
    table = bwb_cohomology(rs, lam)
    assert (table.vanishes, table.degree, table.dimension) == (False, 0, 273)


def test_bwb_projective_space_cotangent():
    # h0 of the cotangent bundle twisted by 2 on projective n-space
    for n in range(1, 7):
        rs = root_system("A", n)
        lam = 2 * fundamental_weight(n, 1) - Weight(*root_weights(rs.cartan, [(1,) + (0,) * (n - 1)]))
        table = bwb_cohomology(rs, lam)
        assert (table.vanishes, table.degree) == (False, 0)
        assert table.dimension == n * (n + 1) // 2


def test_bwb_degree_bound_and_consistency(capsys):
    rng = random.Random(23)
    shapes = set()
    for fam, l in [("A", 4), ("B", 3), ("D", 4), ("G", 2)]:
        rs = root_system(fam, l)
        for k in range(200):
            lam = Weight(tuple(rng.randint(-4, 4) for _ in range(l)))
            table = bwb_cohomology(rs, lam)
            index = classify(rs, lam + rs.weyl_vector)
            if table.vanishes:
                assert index is None
                expected = {"vanishes": True, "degree": None, "mu_fw_coords": None, "dim": None}
            else:
                assert table.degree == index <= len(rs.positive_roots)
                assert table.dominant_weight.is_dominant()
                assert table.dimension == weyl_dim(rs, table.dominant_weight)
                expected = {
                    "vanishes": False,
                    "degree": table.degree,
                    "mu_fw_coords": list(table.dominant_weight.fw_coords),
                    "dim": str(table.dimension),
                }
            # the command line's JSON form, on a sample: each run costs a parser build
            if k < 10:
                weight = ",".join(map(str, lam.fw_coords))
                assert cli.run(["bwb", fam, str(l), f"--weight={weight}", "--format", "json"]) == 0
                assert json.loads(capsys.readouterr().out) == expected
                shapes.add(table.vanishes)
    assert shapes == {False, True}


def test_classify_cotangent_twist_weights_shapes():
    rs = root_system("F", 4)
    lam4 = fundamental_weight(4, 4)
    alpha4 = Weight(*root_weights(rs.cartan, [(0, 0, 0, 1)]))
    # shape 1: -alpha_r + a lambda_r
    assert classify_cotangent_twist_weights(rs, 4, 1, lam4 - alpha4) is None
    for a in (2, 3, 4):
        assert classify_cotangent_twist_weights(rs, 4, a, a * lam4 - alpha4) == 0
    # shape 3: -2 lambda_r + lambda' + a lambda_r with lambda' = lambda_1
    lam1 = fundamental_weight(4, 1)
    assert classify_cotangent_twist_weights(rs, 4, 1, lam1 - lam4) is None
    for a in (2, 3):
        assert classify_cotangent_twist_weights(rs, 4, a, (a - 2) * lam4 + lam1) == 0
    # shape 2: -lambda_r + lambda' + a lambda_r always regular of index 0
    for fam, l, r, lamp in [("B", 4, 3, fundamental_weight(4, 1)), ("G", 2, 2, Weight((0, 0)))]:
        rsx = root_system(fam, l)
        lr = fundamental_weight(l, r)
        for a in (1, 2, 3):
            w = (a - 1) * lr + lamp
            assert classify_cotangent_twist_weights(rsx, r, a, w) == 0


def test_classify_cotangent_twist_weights_validation():
    rs = root_system("B", 3)
    lam2 = fundamental_weight(3, 2)
    with pytest.raises(ValueError):
        classify_cotangent_twist_weights(rs, 2, 0, -lam2)  # twist below 1
    with pytest.raises(ValueError):
        # r-coordinate of w - a lambda_r is 0, not -1 or -2
        classify_cotangent_twist_weights(rs, 2, 1, lam2)

