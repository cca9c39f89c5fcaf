"""Independent oracles used by the test suite.

Everything here is derived from classical closed forms, from the
epsilon-coordinate realizations of the classical root systems, from the
Cartan matrix alone, or from the paper's table of lowest weights
(``data/konno_table.json``), on purpose sharing no code with the
package's reflection-string closure, root chain, Weyl chamber walk,
coroots, Weyl product and lowest-weight derivation.
"""

from __future__ import annotations

import json
import re
import struct
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import mul
from pathlib import Path


def classical_positive_root_count(family: str, l: int) -> int:
    if family == "A":
        return l * (l + 1) // 2
    if family in ("B", "C"):
        return l * l
    if family == "D":
        return l * (l - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(family, l)]


def _interval(l: int, lo: int, hi: int, value: int = 1) -> list[int]:
    """Coefficient vector with `value` on simple roots lo..hi (1-based, inclusive)."""
    return [value if lo <= k <= hi else 0 for k in range(1, l + 1)]


def _vadd(*vs: list[int]) -> tuple[int, ...]:
    return tuple(sum(col) for col in zip(*vs))


@lru_cache(maxsize=None)
def epsilon_positive_roots(family: str, l: int) -> frozenset[tuple[int, ...]]:
    """Positive roots in simple-root coordinates via the epsilon-basis interval formulas."""
    roots: set[tuple[int, ...]] = set()
    if family == "A":
        for i in range(1, l + 1):
            for j in range(i + 1, l + 2):
                roots.add(tuple(_interval(l, i, j - 1)))
    elif family == "B":
        # alpha_k = e_k - e_{k+1} for k < l, alpha_l = e_l
        for i in range(1, l + 1):
            roots.add(tuple(_interval(l, i, l)))  # e_i
            for j in range(i + 1, l + 1):
                roots.add(tuple(_interval(l, i, j - 1)))  # e_i - e_j
                roots.add(_vadd(_interval(l, i, j - 1), _interval(l, j, l, 2)))  # e_i + e_j
    elif family == "C":
        # alpha_k = e_k - e_{k+1} for k < l, alpha_l = 2 e_l
        for i in range(1, l + 1):
            roots.add(_vadd(_interval(l, i, l - 1, 2), _interval(l, l, l)))  # 2 e_i
            for j in range(i + 1, l + 1):
                roots.add(tuple(_interval(l, i, j - 1)))  # e_i - e_j
                roots.add(
                    _vadd(_interval(l, i, j - 1), _interval(l, j, l - 1, 2), _interval(l, l, l))
                )  # e_i + e_j
    elif family == "D":
        # alpha_k = e_k - e_{k+1} for k < l, alpha_l = e_{l-1} + e_l
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                roots.add(tuple(_interval(l, i, j - 1)))  # e_i - e_j
            if i < l:
                roots.add(_vadd(_interval(l, i, l - 2), _interval(l, l, l)))  # e_i + e_l
            for j in range(i + 1, l):
                roots.add(
                    _vadd(_interval(l, i, j - 1), _interval(l, j, l - 2, 2), _interval(l, l - 1, l))
                )  # e_i + e_j, j < l
    else:
        raise ValueError(family)
    return frozenset(roots)


def _eps_weight(family: str, l: int, fw: tuple[int, ...]) -> list[Fraction]:
    """Fundamental-weight coordinates -> epsilon coordinates (classical families)."""
    eps = [Fraction(0)] * l
    for k, m in enumerate(fw, start=1):
        if m == 0:
            continue
        if family == "B":
            if k < l:
                for t in range(k):
                    eps[t] += m
            else:
                for t in range(l):
                    eps[t] += Fraction(m, 2)
        elif family == "C":
            for t in range(k):
                eps[t] += m
        elif family == "D":
            if k <= l - 2:
                for t in range(k):
                    eps[t] += m
            elif k == l - 1:
                for t in range(l - 1):
                    eps[t] += Fraction(m, 2)
                eps[l - 1] -= Fraction(m, 2)
            else:
                for t in range(l):
                    eps[t] += Fraction(m, 2)
        else:
            raise ValueError(family)
    return eps


def _eps_positive_roots_eps_coords(family: str, l: int) -> list[dict[int, int]]:
    """Positive roots in epsilon coordinates, each as its nonzero entries {index: value}."""
    out: list[dict[int, int]] = []
    for i in range(l):
        for j in range(i + 1, l):
            out.append({i: 1, j: -1})
            out.append({i: 1, j: 1})
        if family == "B":
            out.append({i: 1})
        elif family == "C":
            out.append({i: 2})
    return out


def _eps_delta(family: str, l: int) -> list[Fraction]:
    if family == "B":
        return [Fraction(2 * (l - k) + 1, 2) for k in range(1, l + 1)]
    if family == "C":
        return [Fraction(l - k + 1) for k in range(1, l + 1)]
    if family == "D":
        return [Fraction(l - k) for k in range(1, l + 1)]
    raise ValueError(family)


def _doubled(v: list[Fraction]) -> list[int]:
    """2 v as ints; epsilon coordinates of weights are integers or half-integers."""
    out = [2 * x for x in v]
    assert all(x.denominator == 1 for x in out)
    return [x.numerator for x in out]


def epsilon_weyl_dim(family: str, l: int, fw: tuple[int, ...]) -> int:
    """Weyl dimension via epsilon-coordinate dot products (B, C, D families).

    The coordinates are doubled, so every dot product is an integer and each
    factor (lam + delta, alpha) / (delta, alpha) keeps its value.
    """
    lam = _doubled(_eps_weight(family, l, fw))
    delta = _doubled(_eps_delta(family, l))
    num = den = 1
    for alpha in _eps_positive_roots_eps_coords(family, l):
        num *= sum((lam[i] + delta[i]) * c for i, c in alpha.items())
        den *= sum(delta[i] * c for i, c in alpha.items())
    q, r = divmod(num, den)
    assert r == 0
    return q


def type_a_weyl_dim(l: int, fw: tuple[int, ...]) -> int:
    """Weyl dimension for A_l from the partition form of the Weyl formula."""
    p = [0] * (l + 1)
    for i in range(l - 1, -1, -1):
        p[i] = p[i + 1] + fw[i]
    dim = Fraction(1)
    for i in range(l + 1):
        for j in range(i + 1, l + 1):
            dim *= Fraction(p[i] - p[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


def binomial(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


# ---------------------------------------------------------------------------
# closed forms for h^0(Y, Omega^1_Y(a)) on projective spaces and quadrics


def h0_cotangent_projective_space(n: int, a: int) -> int:
    """h^0(P^n, Omega^1(a)) = (a - 1) C(n + a - 1, a), and 0 for a <= 0.

    Bott, Ann. Math. 66, 1957.
    """
    return (a - 1) * binomial(n + a - 1, a) if a > 0 else 0


def h0_structure_sheaf_quadric(n: int, b: int) -> int:
    """h^0(Q^n, O(b)) for the quadric Q^n in P^(n+1): forms of degree b modulo the quadric."""
    return binomial(n + 1 + b, b) - binomial(n + b - 1, b - 2)


def h0_cotangent_quadric(n: int, a: int) -> int:
    """h^0(Q^n, Omega^1(a)), from the Euler and conormal sequences.

    Restricting Omega_P(a) from P = P^(n+1) to Q adds H^1(P, Omega_P(a - 2)),
    which is one-dimensional exactly at a = 2, and the conormal sequence
    0 -> O_Q(a - 2) -> Omega_P|Q(a) -> Omega_Q(a) -> 0 removes
    h^0(O_Q(a - 2)); all the H^1 terms of O on P and Q vanish.
    """
    return (
        h0_cotangent_projective_space(n + 1, a)
        - h0_cotangent_projective_space(n + 1, a - 2)
        + (a == 2)
        - h0_structure_sheaf_quadric(n, a - 2)
    )


def binomial_polynomial(x: int, k: int) -> int:
    """C(x, k) = x (x - 1) ... (x - k + 1) / k! as a polynomial in x, so at a negative x too."""
    return prod(range(x - k + 1, x + 1)) // factorial(k)


def euler_characteristic_cotangent_projective_space(n: int, a: int) -> int:
    """chi(P^n, Omega^1(a)) = (n + 1) C(n + a - 1, n) - C(n + a, n), at every integer a.

    From the Euler sequence 0 -> Omega^1 -> O(-1)^(n+1) -> O -> 0 twisted by
    a, with chi(P^n, O(b)) = C(n + b, n) as a polynomial in b.
    """
    return (n + 1) * binomial_polynomial(n + a - 1, n) - binomial_polynomial(n + a, n)


def euler_characteristic_cotangent_quadric(n: int, a: int) -> int:
    """chi(Q^n, Omega^1(a)) for the quadric Q^n in P = P^(n+1), at every integer a.

    The Euler sequence restricted to Q gives (n + 2) chi_Q(a - 1) - chi_Q(a)
    for Omega_P|Q(a), and the conormal sequence
    0 -> O_Q(a - 2) -> Omega_P|Q(a) -> Omega_Q(a) -> 0 removes chi_Q(a - 2),
    where chi_Q(b) = chi(P, O(b)) - chi(P, O(b - 2)).
    """

    def chi_q(b: int) -> int:
        return binomial_polynomial(n + 1 + b, n + 1) - binomial_polynomial(n - 1 + b, n + 1)

    return (n + 2) * chi_q(a - 1) - chi_q(a) - chi_q(a - 2)


# ---------------------------------------------------------------------------
# the paper's table of lowest weights


_TABLE_PATH = Path(__file__).parent / "data" / "konno_table.json"
_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?(alpha|lambda)\[(r(?:-[12])?|\d+)\]")


@lru_cache(maxsize=None)
def konno_table_rows() -> list[dict]:
    """Raw rows of the paper's lowest-weight table (parsed once)."""
    payload = json.loads(_TABLE_PATH.read_text(encoding="utf-8"))
    if payload["version"] != 1:
        raise ValueError(f"unknown table version {payload['version']!r}")
    return payload["rows"]


def _node_bound(value, rank: int) -> int:
    if isinstance(value, int):
        return value
    offsets = {"l": 0, "l-1": 1, "l-2": 2}
    if value not in offsets:
        raise ValueError(f"bad node bound {value!r} in the table")
    return rank - offsets[value]


def find_table_row(family: str, rank: int, node: int) -> dict | None:
    """The table row listing (family, rank, node), or None if it is omitted."""
    for row in konno_table_rows():
        if row["family"] != family or rank < row["min_rank"]:
            continue
        if "max_rank" in row and rank > row["max_rank"]:
            continue
        if _node_bound(row["node_min"], rank) <= node <= _node_bound(row["node_max"], rank):
            return row
    return None


def instantiate_table_weight(expr: str, cartan, r: int) -> tuple[int, ...]:
    """Fundamental-weight coordinates of a table expression at node ``r``.

    ``alpha[i]`` is column i of the Cartan matrix; ``lambda[0]`` is 0.
    """
    rank = len(cartan)
    total = [0] * rank
    text = expr.replace(" ", "")
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise ValueError(f"malformed weight expression {expr!r}")
        sign, coeff, kind, idx = m.groups()
        i = {"r": r, "r-1": r - 1, "r-2": r - 2}[idx] if idx.startswith("r") else int(idx)
        k = (-1 if sign == "-" else 1) * (int(coeff) if coeff else 1)
        if i > 0:
            for j in range(rank):
                total[j] += k * (cartan[j][i - 1] if kind == "alpha" else int(j == i - 1))
        pos = m.end()
    return tuple(total)


def table_lowest_weights(family: str, rank: int, node: int, cartan) -> list[tuple[int, ...]] | None:
    """The listed weights of (family, rank, node) in table order, or None."""
    row = find_table_row(family, rank, node)
    if row is None:
        return None
    return [instantiate_table_weight(expr, cartan, node) for expr in row["weights"]]


# ---------------------------------------------------------------------------
# Weights of roots, the Weyl-chamber walk and coroots from the Cartan matrix alone


def root_weights(cartan, roots) -> list[tuple[int, ...]]:
    """The weight coordinates m = A n of each root-lattice vector n, m_j = sum_i a_ji n_i.

    This is the product over the Cartan rows; each coordinate n_i adds
    n_i times column i, read once as its nonzero entries.
    """
    rank = len(cartan)
    columns = [[(j, cartan[j][i]) for j in range(rank) if cartan[j][i]] for i in range(rank)]
    out = []
    for n in roots:
        m = [0] * rank
        for i, c in enumerate(n):
            if c:
                for j, a in columns[i]:
                    m[j] += a * c
        out.append(tuple(m))
    return out


def dominant_by_highest_reflection(cartan, coords: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Reflect at the highest node with negative coordinate until dominant.

    Returns (reflections, dominant coordinates), or None as soon as a
    coordinate is 0 (the vector is fixed by a simple reflection).
    """
    rank = len(cartan)
    m = list(coords)
    steps = 0
    while 0 not in m:
        negative = [j for j in range(rank) if m[j] < 0]
        if not negative:
            return steps, tuple(m)
        k = negative[-1]
        c = m[k]
        # sigma_k(m) = m - m_k alpha_k, and alpha_k is column k of the Cartan matrix
        m = [m[j] - c * cartan[j][k] for j in range(rank)]
        steps += 1
    return None


def symmetrizer_from_cartan(cartan) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i) / 2 from d_i a_ij = d_j a_ji, long roots at 1.

    Propagates d_j = d_i a_ij / a_ji along the edges of the Dynkin diagram
    from node 1, then rescales so the largest value is 1.
    """
    rank = len(cartan)
    d: list[Fraction | None] = [Fraction(1)] + [None] * (rank - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if j != i and cartan[i][j] and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                stack.append(j)
    top = max(d)
    return tuple(x / top for x in d)


def invariant_form(cartan, fw: tuple[int, ...], sr: tuple[int, ...]) -> Fraction:
    """(w, beta) = sum_j m_j n_j d_j for a weight m and a root-lattice vector n.

    The fundamental weights are dual to the simple coroots, so
    (lambda_i, alpha_j) = delta_ij d_j with d from ``symmetrizer_from_cartan``.
    """
    if not len(fw) == len(sr) == len(cartan):
        raise ValueError(f"expected {len(cartan)} coordinates, got {len(fw)} and {len(sr)}")
    d = symmetrizer_from_cartan(cartan)
    return sum((m * n * x for m, n, x in zip(fw, sr, d)), Fraction(0))


def coroots_from_cartan(cartan, roots) -> list[tuple[int, ...]]:
    """Coroot coordinates n_j d_j / d_alpha of each root n over the simple coroots."""
    d = symmetrizer_from_cartan(cartan)
    rank = len(cartan)
    out = []
    for n in roots:
        # (alpha, alpha) = sum_ij n_i n_j (alpha_i, alpha_j), with (alpha_i, alpha_j) = d_i a_ij
        d_alpha = sum(n[i] * d[i] * sum(cartan[i][j] * n[j] for j in range(rank)) for i in range(rank)) / 2
        coroot = [n[j] * d[j] / d_alpha for j in range(rank)]
        assert all(c.denominator == 1 for c in coroot)
        out.append(tuple(int(c) for c in coroot))
    return out


def positive_roots_by_reflection(cartan) -> list[tuple[int, ...]]:
    """Positive roots as the Weyl-group orbit of the simple roots, kept where positive.

    Every root is conjugate to a simple one.  In simple-root coordinates
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, with
    <beta, alpha_i^vee> = sum_j a_ij n_j.
    """
    rank = len(cartan)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    stack = list(simple)
    while stack:
        n = stack.pop()
        for i in range(rank):
            c = sum(cartan[i][j] * n[j] for j in range(rank))
            if c:
                image = n[:i] + (n[i] - c,) + n[i + 1 :]
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return sorted(n for n in seen if min(n) >= 0)


@lru_cache(maxsize=None)
def cartan_oracle(cartan) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Positive roots (``positive_roots_by_reflection``) and their coroots of a Cartan matrix given as tuples."""
    roots = positive_roots_by_reflection(cartan)
    return roots, coroots_from_cartan(cartan, roots)


def weyl_product(cartan, fw: tuple[int, ...], roots) -> Fraction:
    """prod <fw + delta, beta^vee> / <delta, beta^vee> over the given positive roots beta.

    Over all positive roots it is Weyl's dimension formula at a dominant fw,
    and at any fw it is 0 exactly when fw + delta is singular, otherwise
    (-1)^p times the dimension at the dominant representative, p the number
    of negative pairings: the Weyl group permutes the roots up to sign.
    """
    coroot = dict(zip(*cartan_oracle(cartan)))
    num = den = 1
    for n in roots:
        c = coroot[tuple(n)]
        num *= sum((m + 1) * x for m, x in zip(fw, c))
        den *= sum(c)
    return Fraction(num, den)


def parabolic_gradings(cartan) -> list[tuple[dict[int, list[tuple[int, ...]]], Fraction]]:
    """Per node r, the nilradical of the maximal parabolic by level, and the Fano index k(Y).

    Level i holds the positive roots (``positive_roots_by_reflection``) whose
    coefficient of alpha_r is i > 0.  With 2 rho_n the sum of those roots,
    k(Y) = <2 rho_n, alpha_r^vee> = 2 (alpha_r, 2 rho_n) / (alpha_r, alpha_r),
    each pairing an ``invariant_form``, as alpha_r has weight coordinates
    a_jr, column r of the Cartan matrix.  2 rho_n is orthogonal to every
    other simple root; a pair where it is not raises.
    """
    rank = len(cartan)
    roots = positive_roots_by_reflection(cartan)
    alphas = [(tuple(row[i] for row in cartan), tuple(int(j == i) for j in range(rank))) for i in range(rank)]
    out = []
    for r in range(rank):
        levels: dict[int, list[tuple[int, ...]]] = {}
        for n in roots:
            if n[r]:
                levels.setdefault(n[r], []).append(n)
        two_rho_n = tuple(map(sum, zip(*(n for level in levels.values() for n in level))))
        pairings = [2 * invariant_form(cartan, m, two_rho_n) / invariant_form(cartan, m, e) for m, e in alphas]
        if any(pairings[:r] + pairings[r + 1 :]):
            raise ArithmeticError(f"node {r + 1}: the nilradical sum pairs to {pairings}")
        out.append((dict(sorted(levels.items())), pairings[r]))
    return out


def lowest_roots(roots) -> list[list[tuple[int, ...]]]:
    """Per node i, the positive roots that no simple root but alpha_i lowers, in (height, coords) order.

    A root beta is listed at i when beta - alpha_j is a root for no j != i
    and n_i > 0; a simple root alpha_i is listed at i alone.
    """
    ordered = sorted(roots, key=lambda n: (sum(n), n))
    rank = len(ordered[0])
    # a root as one int, a byte per node, node 0 first: alpha_j is 256^(rank - 1 - j)
    units = [1 << 8 * (rank - 1 - j) for j in range(rank)]
    keys = [int.from_bytes(bytes(n), "big") for n in ordered]
    position = set(keys)
    out: list[list[tuple[int, ...]]] = [[] for _ in range(rank)]
    for n, key in zip(ordered, keys):
        lowered = [j for j, c in enumerate(n) if c and key - units[j] in position]
        if len(lowered) <= 1:
            # no simple root lowers a simple root alpha_i, whose one nonzero coordinate is n_i = 1
            out[lowered[0] if lowered else n.index(1)].append(n)
    return out


# ---------------------------------------------------------------------------
# Levi slices: the stored fields of a root system without one end node


def levi_slice(family: str, cartan, symmetrizer, root_chain, neighbours, packed_weights, coord_table) -> dict:
    """The stored fields of the Levi subsystem without node 1 of B, C or D, or node l of A, E7 or E8.

    What is left is B_{l-1}, C_{l-1}, D_{l-1}, A_{l-1}, E6 or E7.  Its roots
    are the rows of ``coord_table`` that are 0 at the dropped node, in the
    same (height, coords) order, less that byte.  A Levi root's parent along
    ``root_chain`` is a Levi root too, so each link is the same link with
    root and node renumbered.  A weight coordinate m_j = sum_i a_ji n_i of a
    Levi root reads no dropped n_i, so each packed weight loses one 16-bit
    digit, node 0 most significant.  The Cartan matrix, the symmetrizer and
    the Dynkin neighbours lose the node.  The pairings (delta, beta) =
    sum_j n_j d_j over the kept rows give the Weyl denominator, their
    product, and with the columns d_j n_j the root columns: one 16-bit
    digit per kept root, the first root least significant, then their sum
    DELTA and its largest digit.
    """
    rank = len(cartan)
    drop = 0 if family in "BCD" else rank - 1
    keep = [j for j in range(rank) if j != drop]
    node = {j: new for new, j in enumerate(keep)}
    rows = [coord_table[k * rank : (k + 1) * rank] for k in range(len(root_chain))]
    kept = [k for k, row in enumerate(rows) if row[drop] == 0]
    index = {k: new for new, k in enumerate(kept)}
    low = 16 * (rank - 1 - drop)  # the bits of the digits after the dropped one
    pairings = [sum(map(mul, rows[k], symmetrizer)) for k in kept]
    columns = tuple(digits16([symmetrizer[j] * rows[k][j] for k in kept]) for j in keep)
    return {
        "cartan": tuple(tuple(cartan[a][b] for b in keep) for a in keep),
        "symmetrizer": tuple(symmetrizer[j] for j in keep),
        "root_chain": tuple((-1 if p < 0 else index[p], node[i]) for p, i in (root_chain[k] for k in kept)),
        "weyl_denominator": prod(pairings),
        "neighbours": tuple(tuple((node[j], a) for j, a in neighbours[k] if j != drop) for k in keep),
        "packed_weights": tuple(
            packed_weights[k] >> (low + 16) << low | packed_weights[k] & ((1 << low) - 1) for k in kept
        ),
        "coord_table": b"".join(rows[k][:drop] + rows[k][drop + 1 :] for k in kept),
        "root_columns": (columns, digits16(pairings), max(pairings)),
    }


def digits16(values: list[int]) -> int:
    """``values`` as one int, a 16-bit digit each, the first least significant."""
    return int.from_bytes(struct.pack(f"<{len(values)}H", *values), "little")
