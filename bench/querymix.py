"""Inputs of the query-mix workload, generated without the engine.

A fixed universe of queries is drawn once from ``UNIVERSE_SEED``; the
answer to every universe query is pinned in ``pins.json``.  A workload
seed picks one pass of the stream from the universe with the mix given by
``CLASSES``, so every seed gets a different stream whose answers are all
pinned.  Everything here is closed-form Lie theory written for the
benchmark: it shares no code with ``flagcoh`` and never imports it.

A query is a tuple:

* ``("bwb", shape, family, rank, lam)``: cohomology of the bundle with
  lowest weight ``-lam``.  ``shape`` says how ``lam + delta`` was drawn:
  ``wall`` (some coordinate is 0, so it is singular), ``antidominant``
  (``lam + delta = -(mu + delta)`` with ``mu`` dominant, regular of index
  ``|Phi+|``) or ``random`` (coordinates in +-1..4, any class);
* ``("dim", family, rank, lam)``: Weyl dimension of a dominant weight;
* ``("h0", family, rank, node, twist)``: ``h^0(Y, Omega^1_Y(twist))`` on a
  pair the engine supports.
"""

from __future__ import annotations

import hashlib
import json
import random

UNIVERSE_SEED = 201206375
TWISTS = range(1, 7)
BIG_RANKS = (12, 16, 30)

# Query classes with, per pool type, the number of universe entries and
# the number of stream slots in one pass.  Fixing the per-type counts makes
# every seed's stream the same mix of classes and types; the seed picks
# which entries fill the slots and their order.  Per pass: 14/24 bwb
# (58%), 6/24 weyl_dim (25%), 4/24 h0 (17%).
CLASSES = {
    "bwb-wall": (10, 5),
    "bwb-antidominant": (4, 2),
    "bwb-random": (14, 7),
    "dim": (12, 6),
    "h0": (8, 4),
}


def small_types() -> list[tuple[str, int]]:
    """Every simple type of rank <= 8, in (family, rank) order."""
    bounds = {"A": (1, 8), "B": (2, 8), "C": (3, 8), "D": (3, 8), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    return [(f, l) for f, (lo, hi) in bounds.items() for l in range(lo, hi + 1)]


def pool_types() -> list[tuple[str, int]]:
    """The root systems the query-mix driver builds during set-up."""
    return small_types() + [(f, l) for f in "ABCD" for l in BIG_RANKS]


def supported_nodes(family: str, rank: int) -> list[int]:
    """Nodes of the lowest-weight table; isomorphic twins are omitted there."""
    omitted = {"B": {rank}, "C": {1}, "D": {rank}, "E": {5, 6} if rank == 6 else set(), "G": {1}}
    return [r for r in range(1, rank + 1) if r not in omitted.get(family, set())]


def n_positive(family: str, rank: int) -> int:
    """|Phi+|, the number of positive roots."""
    l = rank
    return {"A": l * (l + 1) // 2, "B": l * l, "C": l * l, "D": l * (l - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(l), "F": 24, "G": 6}[family]


def dim_g(family: str, rank: int) -> int:
    """Dimension of the Lie algebra: rank + 2 |Phi+|."""
    return rank + 2 * n_positive(family, rank)


def adjoint_weight(family: str, rank: int) -> tuple[int, ...]:
    """Highest root in fundamental-weight coordinates (Bourbaki numbering)."""
    l = rank
    m = [0] * l
    if family == "A":
        m[0] += 1
        m[l - 1] += 1
    elif family == "B":
        m[1] = 2 if l == 2 else 1
    elif family == "C":
        m[0] = 2
    elif family == "D":
        if l == 3:
            m[1] = m[2] = 1
        else:
            m[1] = 1
    elif family == "E":
        m[{6: 1, 7: 0, 8: 7}[l]] = 1
    elif family == "F":
        m[0] = 1
    else:
        m[1] = 1
    return tuple(m)


def first_fundamental_dim(family: str, rank: int) -> int:
    """dim V(lambda_1) for the classical families: l+1, 2l+1, 2l, 2l."""
    return {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[family]


def quadric_dim(family: str, rank: int) -> int:
    """dim Y of the quadric (B_l, node 1) or (D_l, node 1)."""
    return 2 * rank - 1 if family == "B" else 2 * rank - 2


def _bwb_query(rng: random.Random, shape: str, family: str, rank: int) -> tuple:
    if shape == "antidominant":
        mu = [rng.choice((0, 0, 0, 1, 2)) for _ in range(rank)]
        lam = tuple(-c - 2 for c in mu)
    else:
        shifted = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(rank)]
        if shape == "wall":
            for _ in range(rng.randint(1, 2)):
                shifted[rng.randrange(rank)] = 0
        lam = tuple(c - 1 for c in shifted)
    return ("bwb", shape, family, rank, lam)


def _query(rng: random.Random, cls: str, family: str, rank: int) -> tuple:
    if cls.startswith("bwb-"):
        return _bwb_query(rng, cls[4:], family, rank)
    if cls == "dim":
        return ("dim", family, rank, tuple(rng.choice((0, 0, 0, 0, 1, 2, 3)) for _ in range(rank)))
    return ("h0", family, rank, rng.choice(supported_nodes(family, rank)), rng.choice(TWISTS))


def query_class(q: tuple) -> str:
    return f"bwb-{q[1]}" if q[0] == "bwb" else q[0]


def universe() -> list[tuple]:
    """The fixed query universe, grouped by pool type and query class."""
    rng = random.Random(UNIVERSE_SEED)
    return [_query(rng, cls, family, rank)
            for family, rank in pool_types()
            for cls, (entries, _) in CLASSES.items()
            for _ in range(entries)]


def universe_digest(queries: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(queries).encode()).hexdigest()


def stream(seed: int, queries: list[tuple]) -> list[int]:
    """Universe indices of one pass of the query stream for a workload seed."""
    buckets: dict[tuple, list[int]] = {}
    for i, q in enumerate(queries):
        family, rank = (q[2], q[3]) if q[0] == "bwb" else (q[1], q[2])
        buckets.setdefault((query_class(q), family, rank), []).append(i)
    rng = random.Random(seed)
    picks = [i for (cls, _, _), bucket in sorted(buckets.items())
             for i in rng.sample(bucket, CLASSES[cls][1])]
    rng.shuffle(picks)
    return picks


def answer_hash(answer: str) -> str:
    return hashlib.sha256(answer.encode()).hexdigest()[:16]


def stream_digest(hashes) -> str:
    """Digest of a stream's answers, from their per-query hashes in order."""
    return hashlib.sha256("".join(hashes).encode()).hexdigest()
