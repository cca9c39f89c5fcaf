"""Picard-rank-one parabolic data for a pair (g, alpha_r).

Deleting node r from the Dynkin diagram of g defines a maximal parabolic
subgroup P and a homogeneous variety Y = G/P with Pic(Y) generated by the
ample line bundle O(1) attached to lambda_r.  This module computes the
induced structures in exact arithmetic:

* the partition of the positive roots by the coefficient n_r of alpha_r
  (Levi part n_r = 0, nilradical n_r > 0) and the grading of the
  nilradical by that coefficient;
* dim Y and the Fano index k(Y), read off from the sum of the nilradical
  roots, which is a multiple of lambda_r exactly;
* the lowest weights of the graded pieces of the cotangent module (the
  level-i root that no Levi simple root lowers, the level's first root in
  root order), kept on the one memoized record per pair;
* h^0(Y, Omega^1_Y(a)) for a >= 1 as the sum of the Borel-Weil-Bott
  dimensions of the graded pieces;
* sigma(d) = (dim Y + 1) d - 2 k(Y) and the static lookup of the pairs
  (d, a) where the duality pairing of the pseudo-Jacobi ring fails to be
  injective or surjective.

Pairs isomorphic to a listed pair (for instance (D_l, node l) versus
(D_l, node l-1)) still get their partition, dim Y and k(Y), but no lowest
weights and no exception lookup: asking for either raises an error naming
the canonical form; remapping silently would hide node-numbering
mistakes.  The refusal is also needed for correctness: summing graded
pieces is valid only when G is the full automorphism group of Y, which
fails exactly for (B_l, l), (C_l, 1) and (G2, 1) (Demazure, Invent.
Math. 39, 1977).  At (G2, 1) the pieces give a wrong h^0 and an H^1 that
the quadric (B3, 1) does not have.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional

from .bwb import bwb_cohomology
from .rootsys import (
    ConfigError,
    Family,
    LieType,
    RootSystem,
    Weight,
    _Record,
    _memo,
    _rank_of,
    _require_int,
    _unpack,
    all_lie_types,
    root_system,
)


class UnsupportedPairError(LookupError):
    """Raised for pairs (g, alpha_r) omitted in favour of an isomorphic listed pair."""


class MacaulayStatus(Enum):
    """Outcome of the duality-pairing exception lookup for a pair (d, a)."""

    NO_EXCEPTION = "no-exception"
    INJECTIVITY_FAILS = "injectivity-fails"
    SURJECTIVITY_FAILS = "surjectivity-fails"


class ParabolicData(_Record):
    """Root-theoretic data of Y = G/P for the maximal parabolic at ``node``.

    Fields, in order: ``node``, ``lowest_weights``, ``dim_y``, ``fano_index``
    and ``root_system``; ``lie_type`` is the root system's.  ``levels`` and
    ``depth`` are derived on each read from the node's column of
    ``root_system.coord_table``: the nilradical roots (coefficient of
    alpha_r positive; the others are the Levi roots), as rows of ints,
    grouped by that coefficient, in root order, as a read-only mapping, and
    the largest level.  Records compare by value, their ``root_system`` by
    identity, as every record but ``RootSystem`` does.  The levels are
    exactly 1..depth whenever ``lowest_weights`` is set, and
    ``lowest_weights[i - 1]`` is the lowest weight of the cotangent piece at
    level i; it is None for a pair omitted in favour of an isomorphic listed
    pair.  ``dim_y`` is the number of nilradical roots and ``fano_index``
    the k with K_Y = O(-k).
    """

    __slots__ = ("node", "lowest_weights", "dim_y", "fano_index", "root_system")
    _shown = ("lie_type", "node", "dim_y", "fano_index")

    @property
    def lie_type(self) -> LieType:
        return self.root_system.lie_type

    @property
    def depth(self) -> int:
        return max(self.root_system.coord_table[self.node - 1 :: self.root_system.rank])

    @property
    def levels(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        """The nilradical rows of ``coord_table`` by their coefficient at the node, levels ascending, in root order."""
        rs = self.root_system
        nil = [(c, row) for c, row in zip(rs.coord_table[self.node - 1 :: rs.rank], rs.positive_roots) if c]
        return MappingProxyType({c: tuple([r for level, r in nil if level == c]) for c in range(1, self.depth + 1)})


_PARABOLIC: dict[tuple[RootSystem, int], ParabolicData] = {}


def parabolic_data(rs: RootSystem, r: int) -> ParabolicData:
    """Partition the positive roots at node ``r`` and extract dim Y, k(Y) and the lowest weights.

    Results are memoized per node for the instances ``root_system`` shares, and
    shared between callers; the record's ``root_system`` is always ``rs``.  Any
    other root system gets a new, equal record per call, so the memo never keeps
    it alive; the memo is only a cache, as records compare by value.
    """
    _require_int("node", r)
    rank = _rank_of(rs)
    if not 1 <= r <= rank:
        raise ConfigError(f"node {r} out of range 1..{rank}")
    pd = _PARABOLIC.get((rs, r))
    if pd is None:
        pd = _memo(_PARABOLIC, rs, (rs, r), _build_parabolic_data(rs, r))
    return pd


def _build_parabolic_data(rs: RootSystem, r: int) -> ParabolicData:
    # the node coefficient n_r of every positive root, in root order, one strided slice; nonzero on the nilradical
    column = rs.coord_table[r - 1 :: rs.rank]
    dim_y = len(column) - column.count(0)
    levels = sorted(set(column) - {0})  # the grading of the nilradical, depth last
    # the sum of the nilradical roots, summed packed and unpacked once, is k lambda_r
    total = _unpack(sum(compress(rs.packed_weights, column)), rs.rank, dim_y)
    for j, c in enumerate(total):
        if c and j != r - 1:
            raise ArithmeticError(f"sum of nilradical roots is not a multiple of lambda_{r}: coordinate {j + 1} is {c}")
    k = total[r - 1]
    if k <= 0:
        raise ArithmeticError(f"Fano index {k} at node {r} is not positive")
    lowest = None if _canonical_form(rs.lie_type, r) else _derive_lowest_weights(rs, r, column, levels)
    return ParabolicData(r, lowest, dim_y, k, rs)


def _derive_lowest_weights(rs: RootSystem, r: int, column: bytes, levels: list[int]) -> tuple[Weight, ...]:
    """One weight per level: the lowest weight of the level's piece, its first root in root order.

    ``column`` is the node's column of ``rs.coord_table`` and ``levels`` its
    distinct nonzero values, ascending.  The level-c piece is an irreducible
    Levi module (Kostant, Ann. Math. 74, 1961), so each of its roots is its
    lowest weight plus Levi simple roots: the lowest weight is the level's
    one root of least height, and the roots are in (height, coords) order.
    Each weight w must have node coefficient c in {1, 2} with c*lambda_r - w
    dominant and zero at r, and the levels must be exactly 1..depth.
    """
    t = rs.lie_type
    weights: list[Weight] = []
    for level in levels:
        w = _unpack(rs.packed_weights[column.index(level)], rs.rank)
        c = w[r - 1]
        if c not in (1, 2):
            raise ArithmeticError(f"lowest weight {w} of ({t}, node {r}) has node coefficient {c}")
        # c*lambda_r - w is 0 at node r, as c = w_r, and -w_j at every other node j
        if max(w[: r - 1] + w[r:], default=0) > 0:
            raise ArithmeticError(f"{c}*lambda_{r} - {w} is not dominant with 0 at node {r}")
        weights.append(Weight._of(w))
    if levels[-1] != len(levels):  # distinct and ascending, so they are 1..depth exactly when depth is their count
        raise ArithmeticError(f"levels {tuple(levels)} of ({t}, node {r}) do not cover 1..{levels[-1]}")
    return tuple(weights)


def _canonical_form(t: LieType, r: int) -> Optional[tuple[str, int, int]]:
    """The listed pair isomorphic to an omitted (t, r), as (family, rank, node)."""
    f, l = t.family, t.rank
    if f is Family.B and r == l:
        return ("D", l + 1, l)
    if f is Family.C and r == 1:
        return ("A", 2 * l - 1, 1)
    if f is Family.D and r == l:
        return ("D", l, l - 1)
    if f is Family.E and l == 6 and r == 5:
        return ("E", 6, 3)
    if f is Family.E and l == 6 and r == 6:
        return ("E", 6, 1)
    if f is Family.G and r == 1:
        return ("B", 3, 1)
    return None


def konno_lowest_weights(pd: ParabolicData) -> tuple[Weight, ...]:
    """Lowest weights of the graded pieces of the cotangent module of ``pd``, in level order.

    The level-i piece is irreducible under the Levi factor, and its lowest
    weight is the unique level-i root that no Levi simple root lowers
    (Kostant, Ann. Math. 74, 1961); ``parabolic_data`` derives and checks
    them.  Raises UnsupportedPairError for pairs omitted in favour of an
    isomorphic listed pair.
    """
    return _listed_weights(pd, "lowest-weight")


def _listed_weights(pd: ParabolicData, table: str) -> tuple[Weight, ...]:
    """The lowest weights of ``pd``; a pair omitted from ``table`` is refused, naming its canonical form."""
    if not isinstance(pd, ParabolicData):
        raise TypeError(f"pd must be a ParabolicData, got {pd!r}")
    weights = pd.lowest_weights
    if weights is None:
        tf, tl, tr = _canonical_form(pd.lie_type, pd.node)
        raise UnsupportedPairError(
            f"pair ({pd.lie_type}, node {pd.node}) is not in the {table} table; "
            f"it is isomorphic to the listed pair ({tf}{tl}, node {tr})"
        )
    return weights


def h0_twisted_cotangent(pd: ParabolicData, a: int) -> tuple[int, tuple[tuple[int, Optional[Weight], int], ...]]:
    """h^0(Y, Omega^1_Y(a)) with its per-level breakdown, for a >= 1.

    For each graded piece with lowest weight w the sections of the twisted
    piece are the Borel-Weil-Bott cohomology of the weight a*lambda_r - w;
    pieces whose shifted weight is singular contribute 0 and are reported
    with a ``None`` representative.  A piece concentrated in positive
    degree would contradict the classification of these twists and is an
    internal error.
    """
    _require_int("twist a", a, 1)
    weights = konno_lowest_weights(pd)
    rs = pd.root_system
    node = pd.node - 1
    pieces: list[tuple[int, Optional[Weight], int]] = []
    total = 0
    for level, w in enumerate(weights, 1):
        # a lambda_r - w: negate w, then add a at node r
        m = [-c for c in w.fw_coords]
        m[node] += a
        table = bwb_cohomology(rs, Weight._of(tuple(m)))
        if table.vanishes:
            pieces.append((level, None, 0))
            continue
        if table.degree != 0:
            raise ArithmeticError(
                f"piece at level {level} concentrated in degree {table.degree}; "
                "twisted cotangent pieces never sit in positive degree"
            )
        pieces.append((level, table.dominant_weight, table.dimension))
        total += table.dimension
    return total, tuple(pieces)


def sigma(pd: ParabolicData, d: int) -> int:
    """sigma = (N + 1) d - 2 k(Y) with N = dim Y, for hypersurface degree d >= 3."""
    _require_int("hypersurface degree d", d, 3)
    if not isinstance(pd, ParabolicData):
        raise TypeError(f"pd must be a ParabolicData, got {pd!r}")
    return (pd.dim_y + 1) * d - 2 * pd.fano_index


def macaulay_exceptions(pd: ParabolicData, d: int, a: int) -> MacaulayStatus:
    """Look up (Y, d, a) in the static exception table of the duality pairing.

    The generic statement is that multiplication into degree sigma induces
    a pairing R_a x R_{sigma-a} -> R_sigma which is injective on the left
    factor and surjective onto the dual; the finitely many exceptions are
    recorded here verbatim.  Surjectivity fails only for the
    three-dimensional quadric with (d, a) = (3, 3), and that case is
    reported as such rather than as its simultaneous injectivity failure.
    The degree must be d >= 3, as for ``sigma``, and the twist a >= 0.

    Every presentation of a variety gets the same answer: the quadric rows
    are keyed by k(Y) = dim Y, which holds exactly on quadrics
    (Kobayashi-Ochiai, J. Math. Kyoto Univ. 13, 1973), the other rows
    name every listed presentation, and an omitted pair raises
    UnsupportedPairError naming its canonical form.
    """
    _require_int("hypersurface degree d", d, 3)
    _require_int("twist a", a, 0)
    _listed_weights(pd, "duality-exception")
    if pd.fano_index == pd.dim_y:  # a quadric
        if pd.dim_y == 3 and (d, a) == (3, 3):
            return MacaulayStatus.SURJECTIVITY_FAILS
        if a == d - 2 or (d, a) in ((3, 2), (3, 3), (4, 4)):
            return MacaulayStatus.INJECTIVITY_FAILS
    f, l, r = pd.lie_type.family, pd.lie_type.rank, pd.node
    # Gr(2, 6) = Gr(4, 6) under the flip of the A5 diagram, and the Cayley plane
    if (f, l, r) in ((Family.A, 5, 2), (Family.A, 5, 4), (Family.E, 6, 1)):
        if (d, a) == (3, 3):
            return MacaulayStatus.INJECTIVITY_FAILS
    if (f, l, r) in ((Family.C, 3, 2), (Family.F, 4, 4)):
        if a == d - 1 or (d, a) == (3, 3):
            return MacaulayStatus.INJECTIVITY_FAILS
    if f is Family.C and l >= 4 and r == 2:
        if a == d - 1:
            return MacaulayStatus.INJECTIVITY_FAILS
    return MacaulayStatus.NO_EXCEPTION


def konno_pairs(max_rank: int) -> list[ParabolicData]:
    """All supported pairs, for every type up to ``max_rank`` (1 to ``MAX_RANK``, checked before any is built).

    Only the pairs that the lowest-weight table files under an isomorphic
    twin are skipped; other isomorphic presentations stay, for instance
    (A3, 1) and (A3, 3), both P^3, or (D4, 1) and (D4, 3), both the
    six-dimensional quadric by triality.

    The root systems are the shared instances of ``root_system``, requested
    from each family's top rank down: the closure builds the top one, and
    each lower rank is sliced from the instance one rank up.
    """
    types = all_lie_types(max_rank)
    systems = [root_system(t.family, t.rank) for t in reversed(types)][::-1]
    out: list[ParabolicData] = []
    for t, rs in zip(types, systems):
        # an omitted pair is dropped before it is built
        out += [parabolic_data(rs, r) for r in range(1, t.rank + 1) if _canonical_form(t, r) is None]
    return out
