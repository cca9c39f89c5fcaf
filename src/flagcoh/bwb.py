"""Weight classification and Borel-Weil-Bott cohomology with exact arithmetic.

A weight v is singular when (v, alpha) = 0 for some positive root alpha,
and regular with index p when it is not singular and exactly p positive
roots pair negatively with it.  For an irreducible homogeneous bundle with
lowest weight -lambda, all cohomology vanishes when lambda + delta is
singular; otherwise it is concentrated in degree p = index(lambda + delta)
with dimension given by the Weyl formula at the dominant representative.

Signs of (v, alpha) agree with signs of the copairing <v, alpha>, so all
classification runs on integer dot products against precomputed coroots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rootsys import (
    ConfigError,
    Root,
    RootSystem,
    Weight,
    fundamental_weight,
    root_to_weight_coords,
    simple_root,
)


@dataclass(frozen=True)
class WeightClass:
    """Singular (index None) or regular with a non-negative index."""

    index: int | None

    @property
    def singular(self) -> bool:
        return self.index is None

    def __str__(self) -> str:
        return "Singular" if self.singular else f"Regular({self.index})"


SINGULAR = WeightClass(None)


@dataclass(frozen=True)
class CohomologyTable:
    """All cohomology of one irreducible bundle: nothing, or one group."""

    vanishes: bool
    degree: int | None = None
    dominant_weight: Weight | None = None
    dimension: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "vanishes": self.vanishes,
            "degree": self.degree,
            "mu_fw_coords": None if self.dominant_weight is None else list(self.dominant_weight.fw_coords),
            "dim": None if self.dimension is None else str(self.dimension),
        }


def classify(rs: RootSystem, v: Weight) -> WeightClass:
    """Singular iff orthogonal to some positive root, else count negative pairings."""
    m = v.fw_coords
    if len(m) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(m)}")
    negatives = 0
    for coroot in rs.coroots:
        s = sum(a * b for a, b in zip(m, coroot))
        if s == 0:
            return SINGULAR
        if s < 0:
            negatives += 1
    return WeightClass(negatives)


def to_dominant(rs: RootSystem, v: Weight) -> tuple[int, Weight] | None:
    """Reflect v into the dominant chamber, or None when v is singular.

    Reflects at the lowest node with negative coordinate until all
    coordinates are positive; any zero coordinate along the way means the
    vector is fixed by that simple reflection, hence orthogonal to a root,
    hence singular.  For regular v the number of reflections equals the
    index of v.
    """
    m = list(v.fw_coords)
    if len(m) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(m)}")
    steps = 0
    limit = len(rs.positive_roots)
    while True:
        if any(c == 0 for c in m):
            return None
        negs = [j for j, c in enumerate(m) if c < 0]
        if not negs:
            return steps, Weight(tuple(m))
        k = negs[0]
        c = m[k]
        m = [m[j] - c * rs.cartan[j][k] for j in range(rs.rank)]
        steps += 1
        if steps > limit:
            raise ArithmeticError(f"{v.fw_coords} is not dominant after |Phi+| = {limit} reflections")


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Weyl dimension formula, exact: prod <lam+delta, a^vee> / <delta, a^vee>."""
    m = lam.fw_coords
    if len(m) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(m)}")
    if not lam.is_dominant():
        raise ValueError(f"weight {m} is not dominant")
    shifted = [c + 1 for c in m]
    num = 1
    den = 1
    for coroot in rs.coroots:
        num *= sum(a * b for a, b in zip(shifted, coroot))
        den *= sum(coroot)
    q, r = divmod(num, den)
    if r or q <= 0:
        raise ArithmeticError(f"Weyl product {num}/{den} at {m} is not a positive integer")
    return q


def partial_weyl_product(rs: RootSystem, lam: Weight, subset: Iterable[Root]) -> Fraction:
    """The Weyl product restricted to a subset of the positive roots."""
    m = lam.fw_coords
    if len(m) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(m)}")
    if not lam.is_dominant():
        raise ValueError(f"weight {m} is not dominant")
    shifted = [c + 1 for c in m]
    out = Fraction(1)
    for r in subset:
        idx = rs.root_index.get(r.sr_coords)
        if idx is None:
            raise ValueError(f"{r.sr_coords} is not a positive root of {rs.lie_type}")
        coroot = rs.coroots[idx]
        out *= Fraction(sum(a * b for a, b in zip(shifted, coroot)), sum(coroot))
    return out


def bwb_cohomology(rs: RootSystem, lam: Weight) -> CohomologyTable:
    """Cohomology of the irreducible bundle with lowest weight -lam."""
    v = lam + rs.weyl_vector
    result = to_dominant(rs, v)
    if result is None:
        return CohomologyTable(vanishes=True)
    steps, dom = result
    mu = dom - rs.weyl_vector
    return CohomologyTable(
        vanishes=False,
        degree=steps,
        dominant_weight=mu,
        dimension=weyl_dim(rs, mu),
    )


def classify_cotangent_twist_weights(rs: RootSystem, r: int, a: int, twisted_weight: Weight) -> WeightClass:
    """Classify twisted_weight + delta after validating its twisted shape.

    ``twisted_weight`` is the already-shifted input a*lambda_r - w for a
    lowest weight w of a graded cotangent piece.  The admissible shapes at
    node r, twist a, are
      (1)  -alpha_r + a lambda_r
      (2)  -lambda_r + lambda' + a lambda_r
      (3)  -2 lambda_r + lambda' + a lambda_r
    with lambda' a weight whose r-th coordinate is 0.  Shape (1) is the
    special case of (3) with lambda' = 2 lambda_r - alpha_r.
    """
    if not 1 <= r <= rs.rank:
        raise ConfigError(f"node {r} out of range 1..{rs.rank}")
    if a < 1:
        raise ValueError(f"twist a must be >= 1, got {a}")
    s = twisted_weight - a * fundamental_weight(rs.rank, r)
    sr = s.fw_coords[r - 1]
    if sr not in (-1, -2):
        raise ValueError(
            f"{twisted_weight.fw_coords} at node {r}, twist {a} matches none of the admissible shapes"
        )
    # lambda' = s + (-sr) lambda_r has r-th coordinate 0 by construction
    return classify(rs, twisted_weight + rs.weyl_vector)


def shape_of_table_weight(rs: RootSystem, r: int, w: Weight) -> int:
    """Shape number (1, 2 or 3) of an untwisted lowest weight w from the table."""
    if w == root_to_weight_coords(rs, simple_root(rs, r)):
        return 1
    c = w.fw_coords[r - 1]
    if c == 1:
        return 2
    if c == 2:
        return 3
    raise ValueError(f"{w.fw_coords} is not an admissible lowest-weight shape at node {r}")
