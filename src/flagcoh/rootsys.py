"""Exact root-system arithmetic for the simple Lie types.

Conventions, fixed once for the whole package:

* Bourbaki node numbering for all families.  In particular the E-series
  branch node is node 2 (attached to node 4), B_l has the short root at
  node l, C_l has the long root at node l, F4 has long roots at nodes 1, 2
  and short roots at nodes 3, 4, and G2 has the short root at node 1.
* The Cartan matrix is a_ij = 2(alpha_i, alpha_j) / (alpha_i, alpha_i).
* The invariant form is normalized so long roots have squared length 2;
  the symmetrizer d_i = (alpha_i, alpha_i) / 2 then lies in {1, 1/2, 1/3}.
* On a Dynkin edge (i, j) the longer root sees the shorter one as -1, so
  (alpha_i, alpha_j) = -max(d_i, d_j): a diagram is its d and its edges.
* Roots are stored by integer coordinates in the simple-root basis
  (``sr_coords``), weights by integer coordinates in the fundamental-weight
  basis (``fw_coords``).  The two bases are related by m = A n, that is
  m_j = sum_i a_ji n_i.

Everything is exact and there is no floating point.  Root-system
construction, classification and the Weyl products use integers only, and
no module imports ``fractions``: the symmetrizer is carried scaled by 6
(``scaled_symmetrizer``, D_i = 6 d_i in {6, 3, 2}).

The records (``LieType``, ``Root``, ``Weight`` and ``RootSystem`` here,
``CohomologyTable``, ``ParabolicData``, ``CaseResult`` and ``Report``
elsewhere) are slotted classes on ``_Record``: immutable, closed to new
attributes, with a ``Name(field=value, ...)`` repr.  ``_Record`` has the one
constructor: values bind to ``__slots__`` in order, by position or keyword,
a class's ``_defaults`` fill the fields a caller may leave out, and a
missing, unknown or repeated field or a value too many is a TypeError
naming the class.  Only a record that checks its input (``LieType``,
``Root``, ``Weight``) or is built per query (``CohomologyTable``, whose
hand-set fields are faster) has its own.  ``RootSystem`` and
``ParabolicData`` compare by identity.  The others subclass ``_Value``,
the one value equality: by field tuple, never equal to another class.

Validation happens once, at the boundary.  The public constructors
``LieType``, ``Weight`` and ``Root`` and the public entry points check
what they are given: a bool, float or Fraction rank or coordinate, a
mapping or set of coordinates, or a family that is neither a str nor a ``Family``,
is a TypeError, never coerced, and an unknown family letter, a bad rank or
a bad node is a ConfigError.  Engine arithmetic (the ``Weight`` operators, the chamber
walk, basis conversion, the root-system build) derives its values from
values already checked and builds them with the private trusted
constructors ``Weight._of`` and ``Root._of``, which do not re-check.

A ``RootSystem`` stores no ``Root`` or ``Weight``: it keeps, as plain ints,
the roots and what the root closure learns on the way:

* ``root_chain[k] = (parent, i)``: root k is root ``parent`` plus
  alpha_i, or alpha_i itself when ``parent`` is -1.  Parents come first
  in the root order, so s_k(v) = 6 (v, beta_k) = sum_j n_j m_j D_j of a
  weight v = sum_j m_j lambda_j follows for every root in one pass, one
  addition each: s(beta + alpha_i) = s(beta) + m_i D_i.  The sign of
  s_k is the sign of <v, beta_k^vee>, since (beta_k, beta_k) > 0.
* ``weyl_denominator = prod_k s_k(delta)``, the denominator of the Weyl
  dimension formula in this scaling, from the pass ``_root_pairings``,
  multiplied pairwise by ``_pairwise_prod``, as ``bwb.weyl_dim`` is.
* ``packed_weights[k]``: the weight coordinates m of beta_k as one int, a
  16-bit digit m_i + 3 per node, node 0 most significant.  As |m_i| <= 3,
  a digit of a sum of N <= MAX_RANK^2 roots is at most 6 N < 2^16; only
  ``_unpack`` and ``_node_multiple``, in this module, read digits back,
  less 3 per root summed.

The closure packs the coordinates n too, 8-bit digits of at most 6, so
numeric order within a height is coordinate order.  ``coord_table`` joins
their bytes, node 0 first: root k's row n is ``[k*rank:(k+1)*rank]``, and
node j's column, n_j of every root in root order, is the slice ``[j::rank]``.
It packs the string-down lengths p as digits p_i + 2^15 + 2: a digit of
p - m is 2^15 + p_i - m_i - 1, so one subtract-and-mask per root finds
every i with p_i > m_i.

It also keeps, read off the Cartan matrix once, the Dynkin graph as
``neighbours[k]``: the pairs (j, a_jk) with j != k and a_jk != 0.  The
simple reflection s_k changes m_k to -m_k and m_j to m_j - m_k a_jk for
these j only, so one reflection costs the degree of node k, at most 3.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping, Set
from enum import Enum
from operator import add, mul, neg, sub
from typing import Iterable, Sequence


class ConfigError(ValueError):
    """Invalid family/rank/node combination."""


class Family(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"

    def __str__(self) -> str:
        return self.value


# Largest rank accepted for the unbounded families A-D, so that a typo
# cannot hang the command line: on a 2-vCPU VM with Python 3.11 building
# A100 takes 0.03-0.04 s and B100, C100 or D100 0.065-0.085 s, and the cost
# grows with about the cube of the rank.
MAX_RANK = 100

# Inclusive rank bounds per family (D3 is allowed; C2 and D2 are not,
# they duplicate B2 and A1 x A1).
_RANK_BOUNDS = {
    Family.A: (1, MAX_RANK),
    Family.B: (2, MAX_RANK),
    Family.C: (3, MAX_RANK),
    Family.D: (3, MAX_RANK),
    Family.E: (6, 8),
    Family.F: (4, 4),
    Family.G: (2, 2),
}


class _Record:
    """Base of the immutable records; its one constructor sets each of the ``__slots__`` once, in order."""

    __slots__ = ()
    _shown: tuple[str, ...] = ()  # the names the repr shows; () shows every field
    _defaults: dict[str, object] = {}  # values of the fields a caller may leave out

    def __init__(self, *values: object, **named: object) -> None:
        cls, names = type(self).__qualname__, self.__slots__
        if len(values) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(values)} were given")
        for name in names[len(values):]:
            if name not in named and name not in self._defaults:
                raise TypeError(f"{cls}() missing field {name!r}")
            values += (named.pop(name) if name in named else self._defaults[name],)
        for name in named:
            problem = "multiple values for" if name in names else "an unexpected"
            raise TypeError(f"{cls}() got {problem} field {name!r}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle would restore the slots by setattr, which is refused; rebuild through __init__
        return type(self), self._fields()

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown or self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class _Value(_Record):
    """The one value equality: compare and hash by the field tuple; another class gets NotImplemented."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class LieType(_Value):
    __slots__ = ("family", "rank")

    def __init__(self, family: Family | str, rank: int) -> None:
        if not isinstance(family, Family):
            if not isinstance(family, str):
                raise TypeError(f"family must be a str or a Family, got {family!r}")
            try:
                family = Family(family.upper())
            except ValueError:
                raise ConfigError(f"unknown family {family!r}, expected one of A, B, C, D, E, F, G") from None
        _require_int("rank", rank)
        lo, hi = _RANK_BOUNDS[family]
        if not lo <= rank <= hi:
            raise ConfigError(f"rank {rank} out of bounds {lo}..{hi} for family {family}")
        _Record.__init__(self, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _require_int(name: str, value: object) -> None:
    """TypeError unless ``value`` is exactly an int: a bool or a float is refused, not coerced."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


def _int_coords(name: str, coords: Iterable[int]) -> tuple[int, ...]:
    """The coordinates as a tuple; anything but an ordered iterable (no mapping or set) of plain ints is a TypeError."""
    if type(coords) is not tuple and isinstance(coords, (Mapping, Set)):
        raise TypeError(f"{name} must be an ordered iterable of ints, got {coords!r}")
    try:
        out = tuple(coords)
    except TypeError:
        raise TypeError(f"{name} must be an iterable of ints, got {coords!r}") from None
    for c in out:
        if type(c) is not int:
            raise TypeError(f"coordinates must be ints, got {c!r}")
    return out


class Root(_Value):
    """Element of the root lattice; integer coefficients n_i over the simple roots."""

    __slots__ = ("sr_coords",)

    def __init__(self, sr_coords: Iterable[int]) -> None:
        object.__setattr__(self, "sr_coords", _int_coords("sr_coords", sr_coords))

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> "Root":
        """A root from a tuple of ints the engine derived from checked values; no re-check."""
        r = object.__new__(cls)
        object.__setattr__(r, "sr_coords", coords)
        return r


class Weight(_Value):
    """Element of the weight lattice; integer coefficients m_i over the fundamental weights."""

    __slots__ = ("fw_coords",)

    def __init__(self, fw_coords: Iterable[int]) -> None:
        object.__setattr__(self, "fw_coords", _int_coords("fw_coords", fw_coords))

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> "Weight":
        """A weight from a tuple of ints the engine derived from checked values; no re-check."""
        w = object.__new__(cls)
        object.__setattr__(w, "fw_coords", coords)
        return w

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if len(self.fw_coords) != len(other.fw_coords):
            raise ValueError("weight length mismatch")
        return Weight._of(tuple(map(add, self.fw_coords, other.fw_coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if len(self.fw_coords) != len(other.fw_coords):
            raise ValueError("weight length mismatch")
        return Weight._of(tuple(map(sub, self.fw_coords, other.fw_coords)))

    def __neg__(self) -> "Weight":
        return Weight._of(tuple(map(neg, self.fw_coords)))

    def __rmul__(self, k: int) -> "Weight":
        _require_int("scalar", k)
        return Weight._of(tuple(map(k.__mul__, self.fw_coords)))

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fw_coords)


def fundamental_weight(rank: int, i: int) -> Weight:
    """lambda_i, 1-based; i = 0 gives the zero weight (lambda_0 := 0 convention)."""
    _require_int("rank", rank)
    _require_int("node", i)
    if not 1 <= rank <= MAX_RANK:
        raise ConfigError(f"rank {rank} out of bounds 1..{MAX_RANK}")
    if not 0 <= i <= rank:
        raise ConfigError(f"node {i} out of range 0..{rank}")
    return Weight._of(tuple(1 if j == i - 1 else 0 for j in range(rank)))


def _diagram(t: LieType) -> tuple[list[int], list[tuple[int, int]]]:
    """Scaled symmetrizer D_i = 6 d_i and the Dynkin edges (i, j), 0-based.

    No inner product is listed: 6 (alpha_i, alpha_j) = -max(D_i, D_j) on an edge.
    """
    l = t.rank
    chain = [(i, i + 1) for i in range(l - 1)]
    if t.family is Family.A:
        return [6] * l, chain
    if t.family is Family.B:
        return [6] * (l - 1) + [3], chain
    if t.family is Family.C:
        return [3] * (l - 1) + [6], chain
    if t.family is Family.D:
        return [6] * l, chain[:-1] + [(l - 3, l - 1)]
    if t.family is Family.E:
        return [6] * l, [(0, 2), (1, 3)] + chain[2:]
    if t.family is Family.F:
        return [6, 6, 3, 3], chain
    return [2, 6], chain  # G2


def _cartan_matrix(t: LieType) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Cartan matrix a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) and the scaled symmetrizer."""
    d, edges = _diagram(t)
    l = t.rank
    rows = [[2 if a == b else 0 for b in range(l)] for a in range(l)]
    for i, j in edges:
        v = -max(d[i], d[j])
        for a, b in ((i, j), (j, i)):
            q, r = divmod(v, d[a])
            if r or q not in (0, -1, -2, -3):
                raise ArithmeticError(
                    f"{t}: Cartan entry {v}/{d[a]} at ({a + 1}, {b + 1}) is not one of 0, -1, -2, -3"
                )
            rows[a][b] = q
    return tuple(tuple(row) for row in rows), d


# the packed layout of the root closure, described in the module docstring
_WIDTH = 16
_OFFSET = 3
_P_DIGIT = (1 << (_WIDTH - 1)) + _OFFSET - 1


def _positive_root_closure(cartan: Sequence[Sequence[int]]) -> list[tuple[int, int, tuple[int, int]]]:
    """Enumerate positive roots from the simple ones by root-string closure.

    For a root beta and a simple root alpha_i, the alpha_i-string through
    beta runs from beta - p alpha_i to beta + q alpha_i with
    p - q = <beta, alpha_i^vee> = m_i, so beta + alpha_i is a root iff
    p - m_i > 0.  Processing by height guarantees the downward part of
    every string is already known: p_i(beta + alpha_i) = 1 + p_i(beta),
    and p_i of a root is 0 unless some root of the previous height reaches
    it along alpha_i.  The weight coordinates follow the same steps,
    m(beta + alpha_i) = m(beta) + column i of A.

    Returns, sorted by (height, coords), one tuple per root: its packed
    coords and weight coordinates and the (parent index, node) of the first
    step that reached it ((-1, i) for alpha_i).
    """
    rank = len(cartan)
    shifts = [_WIDTH * (rank - 1 - i) for i in range(rank)]
    ones = sum(1 << s for s in shifts)
    guard, no_p = ones << (_WIDTH - 1), _P_DIGIT * ones
    # per node, under the top bit of its digit: i, alpha_i, column i of A, the p digit and its step up
    steps = {}
    frontier: dict[int, list] = {}
    for i, s in enumerate(shifts):
        unit = 1 << 8 * (rank - 1 - i)
        column = sum(row[i] << t for row, t in zip(cartan, shifts))
        steps[1 << (s + _WIDTH - 1)] = (i, unit, column, ((1 << _WIDTH) - 1) << s, (1 - _P_DIGIT) << s)
        frontier[unit] = [_OFFSET * ones + column, no_p, (-1, i)]
    roots: list[tuple[int, int, tuple[int, int]]] = []
    while frontier:
        nxt: dict[int, list] = {}
        for n in sorted(frontier):
            m, p, link = frontier[n]
            k = len(roots)
            roots.append((n, m, link))
            up = (p - m) & guard
            while up:
                bit = up & -up
                up ^= bit
                i, unit, column, digit, step = steps[bit]
                entry = nxt.get(n + unit)
                if entry is None:
                    entry = nxt[n + unit] = [m + column, no_p, (k, i)]
                entry[1] += (p & digit) + step
        frontier = nxt
    return roots


def _unpack(packed: int, rank: int, count: int = 1) -> tuple[int, ...]:
    """The weight coordinates of a sum of ``count`` packed weights, node 0 first; H is a _WIDTH-bit digit."""
    return tuple([c - _OFFSET * count for c in struct.unpack(f">{rank}H", packed.to_bytes(_WIDTH // 8 * rank, "big"))])


def _node_multiple(packed: int, rank: int, i: int, count: int) -> int | None:
    """k when a sum of ``count`` packed weights is k lambda_{i+1}, by one comparison; else None."""
    shift = _WIDTH * (rank - 1 - i)
    k = (packed >> shift & (1 << _WIDTH) - 1) - _OFFSET * count
    ones = ((1 << _WIDTH * rank) - 1) // ((1 << _WIDTH) - 1)  # a 1 in every digit
    return k if packed == _OFFSET * count * ones + (k << shift) else None


class RootSystem(_Record):
    """Immutable root-system data with precomputed pairing tables.

    Fields, in order: ``lie_type``, ``cartan`` (rows), ``scaled_symmetrizer``
    (the D_i) and, left out of the repr and described in the module
    docstring, ``root_chain``, ``weyl_denominator``, ``neighbours``,
    ``packed_weights`` and ``coord_table``.  ``neighbours`` lists, per node
    k, the Dynkin neighbours j of k with their Cartan entries a_jk, the only
    coordinates besides m_k that s_k changes.  ``coord_table`` is the one
    copy of the roots, in (height, coords) order: root k is the row
    ``[k*rank:(k+1)*rank]``, node j the column ``[j::rank]``.  The repr
    also shows two views built on each read, ``positive_roots`` (a ``Root``
    per row) and ``weyl_vector`` (delta).  ``root_system`` shares one
    instance per type; they compare by identity.
    """

    __slots__ = (
        "lie_type", "cartan", "scaled_symmetrizer", "root_chain", "weyl_denominator",
        "neighbours", "packed_weights", "coord_table",
    )
    _shown = ("lie_type", "cartan", "scaled_symmetrizer", "positive_roots", "weyl_vector")

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(map(Root._of, zip(*[iter(self.coord_table)] * self.rank)))  # rank bytes a row, in root order

    @property
    def weyl_vector(self) -> Weight:
        return Weight._of((1,) * self.rank)


def _dynkin_neighbours(cartan: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node k, the pairs (j, a_jk) with j != k and a_jk != 0, in node order."""
    rank = len(cartan)
    return tuple(
        tuple((j, cartan[j][k]) for j in range(rank) if j != k and cartan[j][k]) for k in range(rank)
    )


def _root_pairings(root_chain: Sequence[tuple[int, int]], d: Sequence[int], m: Sequence[int]) -> list[int]:
    """s_k = 6 (v, beta_k) for every positive root, in root order, one addition each; d is the scaled symmetrizer."""
    inc = [c * di for c, di in zip(m, d)]
    s: list[int] = []
    for parent, i in root_chain:
        s.append(inc[i] if parent < 0 else s[parent] + inc[i])
    return s


# The pairwise levels stop at this many factors, and math.prod multiplies the rest in
# turn.  Any leaf from 128 to 256 takes 15-40% off the product at B20 and at rank 30, but
# with 128 the 132-144 factors of A16, B12, C12 and D12 took 10-20% longer; with 192 they did not.
_PROD_LEAF = 192


def _pairwise_prod(s: list[int]) -> int:
    """The exact product of s, multiplying neighbours pairwise while more than _PROD_LEAF factors remain.

    Operands of like size keep each multiplication balanced, where one
    running product multiplies a large int by one small factor per step.
    """
    while len(s) > _PROD_LEAF:
        s = [*map(mul, s[::2], s[1::2]), *s[len(s) & ~1:]]
    return math.prod(s)


def build_root_system(t: LieType) -> RootSystem:
    cartan, d = _cartan_matrix(t)
    packed, weights, root_chain = zip(*_positive_root_closure(cartan))
    table = b"".join([n.to_bytes(t.rank, "big") for n in packed])  # each root's coordinates n, node 0 first
    return RootSystem(  # the fields in __slots__ order
        t, cartan, tuple(d), root_chain, _pairwise_prod(_root_pairings(root_chain, d, (1,) * t.rank)),
        _dynkin_neighbours(cartan), weights, table,
    )


# One instance per type, filed under (Family, rank) and under every
# (family, rank) a caller has spelled it with, such as ("b", 3).
_CACHE: dict[tuple[Family | str, int], RootSystem] = {}


def root_system(family: Family | str, rank: int) -> RootSystem:
    """Cached constructor; root systems are immutable so sharing is safe.

    A hit is one dict lookup on the arguments as given.  It is tried only
    for a plain int rank and a str or Family family: True == 1 and
    hash(1.0) == hash(1), so a bool or float rank would otherwise hit the
    entry of rank 1.  Anything else, and every miss, goes through LieType.
    """
    key = (family, rank)
    trusted = type(rank) is int and (type(family) is str or type(family) is Family)
    if trusted:
        rs = _CACHE.get(key)
        if rs is not None:
            return rs
    t = LieType(family, rank)
    rs = _CACHE.get((t.family, t.rank))
    if rs is None:
        rs = _CACHE[(t.family, t.rank)] = build_root_system(t)
    if trusted:
        _CACHE[key] = rs
    return rs


def _rank_of(rs: RootSystem) -> int:
    """The rank of rs, one Cartan row per node; a TypeError for anything else (a LieType has no Cartan matrix)."""
    try:
        return len(rs.cartan)
    except AttributeError:
        raise TypeError(f"rs must be a RootSystem, got {rs!r}") from None


def _check_len(rs: RootSystem, coords: Sequence[int]) -> int:
    rank = _rank_of(rs)  # the rank of rs, returned once coords has one entry per node
    if len(coords) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(coords)}")
    return rank


def root_to_weight_coords(rs: RootSystem, r: Root) -> Weight:
    """The weight coordinates m = A n of a root-lattice vector, read off the Dynkin graph.

    m_j = 2 n_j + sum a_ji n_i over the Dynkin neighbours i of j.
    """
    try:
        n = r.sr_coords
    except AttributeError:
        raise TypeError(f"r must be a Root, got {r!r}") from None
    _check_len(rs, n)
    m = [2 * c for c in n]
    for i, c in enumerate(n):
        if c:
            for j, a in rs.neighbours[i]:
                m[j] += a * c
    return Weight._of(tuple(m))


def all_lie_types(max_rank: int) -> list[LieType]:
    """Every valid LieType with rank <= max_rank, ordered by (family, rank)."""
    _require_int("max_rank", max_rank)
    out: list[LieType] = []
    for fam in Family:
        lo, hi = _RANK_BOUNDS[fam]
        for l in range(lo, min(hi, max_rank) + 1):
            out.append(LieType(fam, l))
    return out
