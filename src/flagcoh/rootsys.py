"""Exact root-system arithmetic for the simple Lie types.

Conventions, fixed once for the whole package:

* Bourbaki node numbering for all families.  In particular the E-series
  branch node is node 2 (attached to node 4), B_l has the short root at
  node l, C_l has the long root at node l, F4 has long roots at nodes 1, 2
  and short roots at nodes 3, 4, and G2 has the short root at node 1.
* The Cartan matrix is a_ij = 2(alpha_i, alpha_j) / (alpha_i, alpha_i).
* The invariant form is normalized so short roots have squared length 2;
  the symmetrizer d_i = (alpha_i, alpha_i) / 2 then lies in {1, 2, 3}.
* On a Dynkin edge (i, j) the longer root sees the shorter one as -1, so
  (alpha_i, alpha_j) = -max(d_i, d_j): a diagram is its d and its edges.
* A root is a row of ``coord_table``, its integer coordinates n over the
  simple roots; a ``Weight`` holds integer coordinates m over the
  fundamental weights (``fw_coords``).  The two bases are related by
  m = A n, that is m_j = sum_i a_ji n_i.

Everything is exact and there is no floating point.  Root-system
construction, classification and the Weyl products use integers only, and
no module imports ``fractions``: at this normalization the symmetrizer
and every pairing (v, beta) of a weight with a root are integers.

The records (``LieType``, ``Weight`` and ``RootSystem`` here,
``CohomologyTable``, ``ParabolicData``, ``CaseResult`` and ``Report``
elsewhere) are slotted classes on ``_Record``: immutable, closed to new
attributes, with a ``Name(field=value, ...)`` repr.  ``_Record`` has the one
constructor: values bind to ``__slots__`` in order, by position or keyword,
a class's ``_defaults`` fill the fields a caller may leave out, and a
missing, unknown or repeated field or a value too many is a TypeError
naming the class.  Only a record that checks its input (``LieType``,
``Weight``) or is built per query (``CohomologyTable``, whose
hand-set fields are faster) has its own.  ``_Record`` also has the one
equality: by field tuple, never equal to another class.  ``RootSystem``
alone compares by identity, as its fields are costly to hash; so a
``ParabolicData`` compares by value, its ``root_system`` by identity.  A
copy or a pickle of the instance ``root_system`` shares restores that
instance, so a record holding it copies equal.

``root_system`` shares one instance per type.  On a miss it slices the
shared instance of the same family one rank up when that is cached, and
runs the root closure otherwise.  Removing node 1 of B, C or D, or node l
of A or E, from the Dynkin diagram leaves the type one rank down (Bourbaki,
Ch. VI), whose roots are the rows of ``coord_table`` that are 0 at that
node; ``_levi_slice`` keeps them and rebuilds only the Cartan data, the
root columns and the Weyl denominator.  ``konno_pairs`` asks for each
family's types from the top rank down, so a sweep runs the closure once
per family.  ``build_root_system`` always runs the closure and never reads
or fills the cache, so the tests hold every shared instance to it.

Validation happens once, at the boundary.  The public constructors
``LieType`` and ``Weight`` and the public entry points check what they are
given: a bool, float or Fraction rank or coordinate, a mapping or set of
coordinates, or a family that is neither a str nor a ``Family``, is a
TypeError, never coerced, and an unknown family letter, a bad rank or a bad
node is a ConfigError.  Each rule is written once, here: ``_require_int``
(an exact int, at least ``least`` when given), ``_weight_coords`` (a
``Weight`` with one coordinate per node of a ``RootSystem``),
``_check_max_rank`` (the rank cap of a sweep) and ``_memo`` (a memo keeps
only the instances ``root_system`` shares).  Engine arithmetic (the
``Weight`` operators, the chamber walk, the views of a ``RootSystem``)
derives its values from values already checked and builds its weights with
the private trusted constructor ``Weight._of``, which does not re-check.

A ``RootSystem`` stores no ``Weight``: it keeps, as plain ints,
the roots and what the root closure learns on the way:

* ``root_chain[k] = (parent, i)``: root k is root ``parent`` plus
  alpha_i, or alpha_i itself when ``parent`` is -1.  The simple roots come
  first, alpha_rank first, and each later root after its parent, so the
  pairings s_k(v) = (v, beta_k) = sum_j n_j m_j d_j of v = sum_j m_j lambda_j
  follow in one pass: s(beta + alpha_i) = s(beta) + m_i d_i.  The sign of
  s_k is the sign of <v, beta_k^vee>, since (beta_k, beta_k) > 0.
* ``packed_weights[k]``: the weight coordinates m of beta_k as one int, a
  16-bit digit m_i + 3 per node, node 0 most significant.  As |m_i| <= 3,
  a digit of a sum of N <= MAX_RANK^2 roots is at most 6 N < 2^16; only
  ``_unpack``, in this module, reads digits back, less 3 per root summed.

The closure packs the coordinates n too, 8-bit digits of at most 6, so
numeric order within a height is coordinate order.  ``coord_table`` joins
their bytes, node 0 first: root k's row n is ``[k*rank:(k+1)*rank]``, and
node j's column, n_j of every root in root order, is the slice ``[j::rank]``.
It packs the string-down lengths p as digits p_i + 2^15 + 2: a digit of
p - m is 2^15 + p_i - m_i - 1, so one subtract-and-mask per root finds
every i with p_i > m_i.

It also keeps the Dynkin graph as ``neighbours[k]``: the pairs (j, a_jk)
with j != k and a_jk != 0, filled in from the diagram's edges as the Cartan
entries are.  The simple reflection s_k changes m_k to -m_k and m_j to
m_j - m_k a_jk for these j only, so one reflection costs the degree of node
k, at most 3.

The Weyl products read ``root_columns``, built from ``coord_table``:

* node j's root column, d_j n_j(beta_k) with one 16-bit digit per root k;
  DELTA, their sum, whose digits are s_k(delta); and DELTA's largest digit
  (396 at most, at rank 100).  The pairings of lam + delta, lam dominant,
  are the digits of DELTA + sum m_j COL_j: no term is negative, so no digit
  carries while (max(m) + 1) max_k s_k(delta) <= ``_COLUMN_DIGIT``, and a
  wider weight takes the chain pass ``_root_pairings``.
* ``weyl_denominator = prod_k s_k(delta)``, the denominator of the Weyl
  dimension formula at this normalization: DELTA's digits, multiplied
  pairwise by ``_pairwise_prod``, as ``bwb.weyl_dim``'s numerator is.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Mapping, Set
from enum import Enum
from itertools import islice
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from . import MAX_RANK  # defined in the package, so that the command line reads it without this module


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

    def __eq__(self, other: object) -> bool:
        # the one value equality: by the field tuple; another class gets NotImplemented
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

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


class LieType(_Record):
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


def _require_int(name: str, value: object, least: int | None = None) -> None:
    """TypeError unless ``value`` is exactly an int, never coercing a bool or a float; ValueError below ``least``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


class Weight(_Record):
    """Element of the weight lattice; integer coefficients m_i over the fundamental weights."""

    __slots__ = ("fw_coords",)

    def __init__(self, fw_coords: Iterable[int]) -> None:
        # anything but an ordered iterable (no mapping or set) of plain ints is a TypeError
        if type(fw_coords) is not tuple and isinstance(fw_coords, (Mapping, Set)):
            raise TypeError(f"fw_coords must be an ordered iterable of ints, got {fw_coords!r}")
        try:
            coords = tuple(fw_coords)
        except TypeError:
            raise TypeError(f"fw_coords must be an iterable of ints, got {fw_coords!r}") from None
        for c in coords:
            if type(c) is not int:
                raise TypeError(f"coordinates must be ints, got {c!r}")
        object.__setattr__(self, "fw_coords", coords)

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
        return min(self.fw_coords, default=0) >= 0


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
    """Symmetrizer d_i = (alpha_i, alpha_i) / 2, 1 at the short roots, and the Dynkin edges (i, j), 0-based.

    No inner product is listed: (alpha_i, alpha_j) = -max(d_i, d_j) on an edge.
    """
    l = t.rank
    chain = [(i, i + 1) for i in range(l - 1)]
    if t.family is Family.A:
        return [1] * l, chain
    if t.family is Family.B:
        return [2] * (l - 1) + [1], chain
    if t.family is Family.C:
        return [1] * (l - 1) + [2], chain
    if t.family is Family.D:
        return [1] * l, chain[:-1] + [(l - 3, l - 1)]
    if t.family is Family.E:
        return [1] * l, [(0, 2), (1, 3)] + chain[2:]
    if t.family is Family.F:
        return [2, 2, 1, 1], chain
    return [1, 3], chain  # G2


def _opposition(t: LieType) -> Sequence[int]:
    """sigma = -w0 on the nodes, 0-based, -w0 lambda_i = lambda_sigma(i): the identity but on A, odd D and E6 (Bourbaki)."""
    l = t.rank
    if t.family is Family.A:
        return range(l - 1, -1, -1)
    if t.family is Family.D and l % 2:
        return [*range(l - 2), l - 1, l - 2]
    return [5, 1, 4, 3, 2, 0] if t.family is Family.E and l == 6 else range(l)


def _cartan_matrix(t: LieType) -> tuple[tuple[tuple[int, ...], ...], list[int], tuple[tuple[tuple[int, int], ...], ...]]:
    """Cartan matrix a_ij = (alpha_i, alpha_j) / d_i, the symmetrizer d and, per node k, its neighbours (j, a_jk)."""
    d, edges = _diagram(t)
    rows = [[2 if a == b else 0 for b in range(t.rank)] for a in range(t.rank)]
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(t.rank)]
    for i, j in edges:
        v = -max(d[i], d[j])
        for a, b in ((i, j), (j, i)):
            q, r = divmod(v, d[a])
            if r or q not in (0, -1, -2, -3):
                raise ArithmeticError(
                    f"{t}: Cartan entry {v}/{d[a]} at ({a + 1}, {b + 1}) is not one of 0, -1, -2, -3"
                )
            rows[a][b] = q
            neighbours[b].append((a, q))
    return tuple(tuple(row) for row in rows), d, tuple(map(tuple, neighbours))


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
    step that reached it.  The first rank tuples are the simple roots,
    alpha_rank first, linked (-1, i); every later link has a parent >= 0.
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


class RootSystem(_Record):
    """Immutable root-system data with precomputed pairing tables.

    Fields, in order: ``lie_type``, ``cartan`` (rows), ``symmetrizer``
    (the d_i) and, left out of the repr and described in the module
    docstring, ``root_chain``, ``weyl_denominator``, ``neighbours``,
    ``packed_weights``, ``coord_table`` and ``root_columns``.
    ``neighbours`` lists, per node k, the Dynkin neighbours j of k with
    their Cartan entries a_jk, the only coordinates besides m_k that s_k
    changes.  ``coord_table`` is the one copy of the roots, in (height,
    coords) order: root k is the row ``[k*rank:(k+1)*rank]``, node j the
    column ``[j::rank]``.  The repr also shows two views built on each
    read, ``positive_roots`` (the rows, as tuples of ints) and
    ``weyl_vector`` (delta).  ``root_system`` shares one instance per type;
    root systems alone among the records compare by identity, and a copy
    or pickle of the shared instance is that instance.
    """

    __slots__ = (
        "lie_type", "cartan", "symmetrizer", "root_chain", "weyl_denominator",
        "neighbours", "packed_weights", "coord_table", "root_columns",
    )
    _shown = ("lie_type", "cartan", "symmetrizer", "positive_roots", "weyl_vector")
    # by identity: hashing the field tuple takes 7-10 us at E8 and 85-95 us at B30 against about 0.1 us,
    # and parabolic_data hashes its root system on every call, through the _PARABOLIC key
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self) -> tuple:
        # the shared instance comes back as the shared instance, so a record holding it copies equal
        if _shared(self):
            return root_system, (self.lie_type.family, self.rank)
        return _Record.__reduce__(self)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*[iter(self.coord_table)] * self.rank))  # rank bytes a row, in root order

    @property
    def weyl_vector(self) -> Weight:
        return Weight._of((1,) * self.rank)


def _root_pairings(root_chain: Sequence[tuple[int, int]], d: Sequence[int], m: Sequence[int]) -> list[int]:
    """s_k = (lam + delta, beta_k), root order, lam = sum_j m_j lambda_j; the simple roots, alpha_rank first, seed s."""
    inc = [(c + 1) * di for c, di in zip(m, d)]
    s = inc[::-1]
    for parent, i in islice(root_chain, len(inc), None):
        s.append(s[parent] + inc[i])
    return s


_COLUMN_DIGIT = 0xFFFF  # the largest digit of a root column, read back as memoryview format "H"


def _digits(packed: int, size: int) -> memoryview:
    """The ``size`` 16-bit digits of a sum of root columns, root order on a little-endian machine, else reversed."""
    return memoryview(packed.to_bytes(2 * size, sys.byteorder)).cast("H")


def _root_columns(coord_table: bytes, d: Sequence[int]) -> tuple[tuple[int, ...], int, int]:
    """The root column of every node, their sum DELTA and DELTA's largest digit, max_k s_k(delta)."""
    rank, size = len(d), len(coord_table) // len(d)
    buf = bytearray(2 * size)
    columns = []
    for j, dj in enumerate(d):
        buf[0::2] = coord_table[j::rank]  # the low byte of each digit; n_j <= 6
        columns.append(dj * int.from_bytes(buf, "little"))
    delta = sum(columns)
    return tuple(columns), delta, max(_digits(delta, size))


def _weyl_pairings(rs: RootSystem, m: Sequence[int]) -> Sequence[int]:
    """s_k = (lam + delta, beta_k), lam dominant, off the root columns, or the chain pass if a digit could carry.

    The digits come back in root order, reversed on a big-endian machine, which no product minds.
    """
    columns, acc, top = rs.root_columns
    if (max(m) + 1) * top > _COLUMN_DIGIT:
        return _root_pairings(rs.root_chain, rs.symmetrizer, m)
    for c, column in zip(m, columns):
        if c:
            acc += c * column
    return _digits(acc, len(rs.root_chain))


# Pairwise levels stop at this many factors; math.prod multiplies the rest.  On a 2-vCPU VM any leaf from 32
# to 256 took 35-45% off math.prod alone at rank 30; one under 144 slowed the 120-144 factors of E8, A16, B12.
_PROD_LEAF = 192


def _pairwise_prod(s: Sequence[int]) -> int:
    """The exact product of s, multiplying neighbours pairwise while more than _PROD_LEAF factors remain.

    Operands of like size keep each multiplication balanced, where one
    running product multiplies a large int by one small factor per step.
    """
    while len(s) > _PROD_LEAF:
        s = [*map(mul, s[::2], s[1::2]), *s[len(s) & ~1:]]
    return math.prod(s)


def build_root_system(t: LieType) -> RootSystem:
    """The root system of ``t``, by the root closure; it never reads or fills the cache of ``root_system``."""
    if not isinstance(t, LieType):
        raise TypeError(f"t must be a LieType, got {t!r}")
    cartan, d, neighbours = _cartan_matrix(t)
    packed, weights, root_chain = zip(*_positive_root_closure(cartan))
    table = b"".join([n.to_bytes(t.rank, "big") for n in packed])  # each root's coordinates n, node 0 first
    return _assemble(t, cartan, d, neighbours, root_chain, weights, table)


def _assemble(
    t: LieType,
    cartan: tuple[tuple[int, ...], ...],
    d: Sequence[int],
    neighbours: tuple[tuple[tuple[int, int], ...], ...],
    root_chain: Sequence[tuple[int, int]],
    weights: tuple[int, ...],
    table: bytes,
) -> RootSystem:
    """The root system from its stored roots; the root columns and the Weyl denominator are built from ``table``."""
    columns, delta, top = _root_columns(table, d)
    return RootSystem(  # the fields in __slots__ order
        t, cartan, tuple(d), root_chain, _pairwise_prod(_digits(delta, len(root_chain))),
        neighbours, weights, table, (columns, delta, top),
    )


def _levi_slice(rs: RootSystem) -> RootSystem:
    """The root system one rank down: the Levi subsystem of ``rs`` without node 1 of B, C, D or node l of A, E.

    What is left is B, C, D, A or E of rank l - 1 in Bourbaki numbering,
    the same as ``build_root_system`` gives, field for field.  Its roots are
    the rows of ``coord_table`` that are 0 at the dropped node, in the same
    (height, coords) order, less that byte.  The parent of a kept root along
    ``root_chain`` is kept too, so each link is renumbered.  A weight
    coordinate m_j = sum_i a_ji n_i of a kept root reads no dropped n_i, so
    each packed weight loses the dropped node's 16-bit digit, the most
    significant for node 1 and the least for node l.
    """
    t, rank = rs.lie_type, rs.rank
    sub = LieType(t.family, rank - 1)
    cartan, d, neighbours = _cartan_matrix(sub)
    first = 1 if t.family in (Family.B, Family.C, Family.D) else 0  # node 1 goes, else node l; kept nodes start here
    table, chain, weights = rs.coord_table, rs.root_chain, rs.packed_weights
    kept = [k for k, n in enumerate(table[0 if first else rank - 1 :: rank]) if not n]
    index = dict(zip(kept, range(len(kept))))
    index[-1] = -1
    table = b"".join([table[k * rank + first : (k + 1) * rank - 1 + first] for k in kept])
    if first:
        mask = (1 << _WIDTH * (rank - 1)) - 1
        weights = tuple([weights[k] & mask for k in kept])
    else:
        weights = tuple([weights[k] >> _WIDTH for k in kept])
    chain = tuple([(index[p], i - first) for p, i in map(chain.__getitem__, kept)])
    return _assemble(sub, cartan, d, neighbours, chain, weights, table)


# One instance per type, filed under (Family, rank) and under every
# (family, rank) a caller has spelled it with, such as ("b", 3).
_CACHE: dict[tuple[Family | str, int], RootSystem] = {}


def root_system(family: Family | str, rank: int) -> RootSystem:
    """Cached constructor; root systems are immutable so sharing is safe.

    A hit is one dict lookup on the arguments as given.  It is tried only
    for a plain int rank and a str or Family family: True == 1 and
    hash(1.0) == hash(1), so a bool or float rank would otherwise hit the
    entry of rank 1.  Anything else, and every miss, goes through LieType.
    A miss slices the shared instance of the same family one rank up when
    that is cached (``_levi_slice``), and runs the closure otherwise; either
    way the instance equals ``build_root_system``'s field for field.
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
        above = _CACHE.get((t.family, t.rank + 1))
        rs = _CACHE[(t.family, t.rank)] = build_root_system(t) if above is None else _levi_slice(above)
    if trusted:
        _CACHE[key] = rs
    return rs


def _shared(rs: RootSystem) -> bool:
    """Whether ``rs`` is the instance ``root_system`` shares for its type."""
    return _CACHE.get((rs.lie_type.family, rs.rank)) is rs


def _memo(memo: dict, rs: RootSystem, key: object, value: object) -> object:
    """``value``, filed in ``memo`` under ``key`` when ``rs`` is the instance ``root_system`` shares.

    A root system built directly is never kept alive by a memo.
    """
    if _shared(rs):
        memo[key] = value
    return value


def _rank_of(rs: RootSystem) -> int:
    """The rank of rs, one Cartan row per node; a TypeError for anything but a RootSystem."""
    if not isinstance(rs, RootSystem):
        raise TypeError(f"rs must be a RootSystem, got {rs!r}")
    return len(rs.cartan)


def _weight_coords(rs: RootSystem, name: str, v: Weight) -> tuple[int, ...]:
    """The coordinates of the weight ``v``, one per node of ``rs``: checks v, then rs, then the length."""
    if not isinstance(v, Weight):
        raise TypeError(f"{name} must be a Weight, got {v!r}")
    m = v.fw_coords
    rank = _rank_of(rs)
    if len(m) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(m)}")
    return m


def _check_max_rank(max_rank: int, least: int = 1) -> None:
    """The one rank cap of every sweep: ``least <= max_rank <= MAX_RANK``, checked in that order."""
    _require_int("max_rank", max_rank, least)
    if max_rank > MAX_RANK:
        raise ConfigError(f"max_rank must be <= {MAX_RANK}, got {max_rank}")


def all_lie_types(max_rank: int) -> list[LieType]:
    """Every valid LieType with rank <= max_rank, ordered by (family, rank); 1 <= max_rank <= MAX_RANK."""
    _check_max_rank(max_rank)
    out: list[LieType] = []
    for fam in Family:
        lo, hi = _RANK_BOUNDS[fam]
        for l in range(lo, min(hi, max_rank) + 1):
            out.append(LieType(fam, l))
    return out
