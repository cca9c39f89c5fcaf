"""Weight classification and Borel-Weil-Bott cohomology with exact arithmetic.

A weight v is singular when (v, alpha) = 0 for some positive root alpha,
and regular with index p when it is not singular and exactly p positive
roots pair negatively with it.  For an irreducible homogeneous bundle with
lowest weight -lambda, all cohomology vanishes when lambda + delta is
singular; otherwise it is concentrated in degree p = index(lambda + delta)
with dimension given by the Weyl formula at the dominant representative.

Classification is the chamber walk ``to_dominant``: the number of simple
reflections that make a regular weight dominant is its index.  The Weyl
products read the scaled pairings s_k(v) = 6 (v, beta_k) of a weight with
every positive root, from one integer pass along the root chain
(``rootsys._root_pairings``), and the Weyl dimension of lam is
prod s_k(lam + delta) / prod s_k(delta), the denominator read at delta.
``weyl_dim`` multiplies the factors s_k(lam + delta) pairwise
(``rootsys._pairwise_prod``) once more than a fixed number of them
remain, rather than growing one running product a factor at a time, and
divides once: every Weyl product here is an integer.
"""

from __future__ import annotations

from .rootsys import (
    ConfigError,
    RootSystem,
    Weight,
    _check_len,
    _pairwise_prod,
    _rank_of,
    _require_int,
    _root_pairings,
    _Value,
)


class CohomologyTable(_Value):
    """All cohomology of one irreducible bundle: nothing (``degree`` None), or one group."""

    __slots__ = ("degree", "dominant_weight", "dimension")

    def __init__(
        self, degree: int | None = None, dominant_weight: Weight | None = None, dimension: int | None = None
    ) -> None:
        # one per regular bwb_cohomology answer, so the fields are set by hand: on one CPU of a 2-vCPU
        # VM a construction took 0.7-1.1 us, and 1.4-1.5 us positional or 2.2-2.4 us by keyword
        # through _Record.__init__, against a query-mix op_p50_s of 7.8 us
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dominant_weight", dominant_weight)
        object.__setattr__(self, "dimension", dimension)

    @property
    def vanishes(self) -> bool:
        return self.degree is None


# the one result of every vanishing computation; immutable, so safe to share
_VANISHES = CohomologyTable()


def to_dominant(rs: RootSystem, v: Weight) -> tuple[int, Weight] | None:
    """Reflect v into the dominant chamber, or None when v is singular.

    Reflects at the lowest node with negative coordinate until all
    coordinates are positive; any zero coordinate along the way means the
    vector is fixed by that simple reflection, hence orthogonal to a root,
    hence singular.  For regular v the number of reflections equals the
    index of v.

    A reflection s_k turns m_k = c < 0 into -c > 0 and changes only the
    Dynkin neighbours j of k, by -c a_jk, so only they can become zero.
    Every node below k was positive before the step, so the next node to
    reflect is the lowest neighbour below k that went negative, or else the
    first negative node above k.  The walk costs O(index x max degree)
    after an O(rank) entry check, not O(index x rank).
    """
    try:
        m = list(v.fw_coords)
    except AttributeError:
        raise TypeError(f"v must be a Weight, got {v!r}") from None
    rank = _check_len(rs, m)
    if 0 in m:
        return None
    neighbours = rs.neighbours
    limit = len(rs.root_chain)
    steps = 0
    k = 0
    while True:
        while k < rank and m[k] > 0:
            k += 1
        if k == rank:
            return steps, Weight._of(tuple(m))
        steps += 1
        if steps > limit:
            raise ArithmeticError(f"{v.fw_coords} is not dominant after |Phi+| = {limit} reflections")
        c = m[k]
        m[k] = -c
        low = k
        for j, a in neighbours[k]:
            x = m[j] - c * a
            if x == 0:
                return None
            m[j] = x
            if x < 0 and j < low:
                low = j
        k = low


def classify(rs: RootSystem, v: Weight) -> int | None:
    """The index of v, the step count of ``to_dominant`` (looked up through the module), or None when singular.

    It raises what the walk raises, the ArithmeticError of its |Phi+| step bound included.
    """
    result = to_dominant(rs, v)
    return None if result is None else result[0]


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Weyl dimension formula, exact: prod (lam+delta, a) / (delta, a) over positive roots a."""
    try:
        m = lam.fw_coords
    except AttributeError:
        raise TypeError(f"lam must be a Weight, got {lam!r}") from None
    _check_len(rs, m)
    if not lam.is_dominant():
        raise ValueError(f"weight {m} is not dominant")
    num = _pairwise_prod(_root_pairings(rs.root_chain, rs.scaled_symmetrizer, [c + 1 for c in m]))
    q, r = divmod(num, rs.weyl_denominator)
    if r or q <= 0:
        raise ArithmeticError(f"Weyl product {num}/{rs.weyl_denominator} at {m} is not a positive integer")
    return q


def bwb_cohomology(rs: RootSystem, lam: Weight) -> CohomologyTable:
    """Cohomology of the irreducible bundle with lowest weight -lam."""
    try:
        m = lam.fw_coords
    except AttributeError:
        raise TypeError(f"lam must be a Weight, got {lam!r}") from None
    # lam + delta from the coordinates, delta = (1, ..., 1); to_dominant checks the length
    result = to_dominant(rs, Weight._of(tuple([c + 1 for c in m])))
    if result is None:
        return _VANISHES
    steps, dom = result
    mu = Weight._of(tuple([c - 1 for c in dom.fw_coords]))
    return CohomologyTable(steps, mu, weyl_dim(rs, mu))


def classify_cotangent_twist_weights(rs: RootSystem, r: int, a: int, twisted_weight: Weight) -> int | None:
    """The index of twisted_weight + delta (None when singular) after validating its twisted shape.

    ``twisted_weight`` is the already-shifted input a*lambda_r - w for a
    lowest weight w of a graded cotangent piece.  The admissible shapes at
    node r, twist a, are
      (1)  -alpha_r + a lambda_r
      (2)  -lambda_r + lambda' + a lambda_r
      (3)  -2 lambda_r + lambda' + a lambda_r
    with lambda' a weight whose r-th coordinate is 0.  Shape (1) is the
    special case of (3) with lambda' = 2 lambda_r - alpha_r.
    """
    _require_int("node", r)
    _require_int("twist a", a)
    rank = _rank_of(rs)
    if not 1 <= r <= rank:
        raise ConfigError(f"node {r} out of range 1..{rank}")
    if a < 1:
        raise ValueError(f"twist a must be >= 1, got {a}")
    try:
        m = twisted_weight.fw_coords
    except AttributeError:
        raise TypeError(f"twisted_weight must be a Weight, got {twisted_weight!r}") from None
    _check_len(rs, m)
    # s = twisted_weight - a lambda_r has s_r = m_r - a, and lambda' = s - s_r lambda_r has r-th coordinate 0
    if m[r - 1] - a not in (-1, -2):
        raise ValueError(f"{m} at node {r}, twist {a} matches none of the admissible shapes")
    return classify(rs, twisted_weight + rs.weyl_vector)
