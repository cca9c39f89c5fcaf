"""Command-line front end.

Weights are always entered in fundamental-weight coordinates, as a
comma-separated list with one integer per node, e.g. ``--weight 0,1,0``.
Results go to standard output (or ``--out``); diagnostics go to standard
error.  Each query command returns its JSON object and its text form,
``verify`` returns its report bytes, and ``run`` writes every result as
bytes through the one emit path ``_emit``.  Exit codes: 0 success / all
cases passed, 1 sweep failures, 2 usage or configuration errors, including
an ``--out`` that cannot be written.

``main`` is the process entry point: it lifts the int/str digit limit, and
after ``run`` returns it freezes the heap so that the interpreter's exit-time
collections skip every object the process built.  ``run`` is the in-process
entry point and leaves the caller's digit limit and collector alone.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from typing import Optional, Sequence

from . import __version__
from .bwb import bwb_cohomology, weyl_dim
from .parabolic import (
    UnsupportedPairError,
    h0_twisted_cotangent,
    macaulay_exceptions,
    parabolic_data,
    sigma,
)
from .rootsys import MAX_RANK, Weight, root_system
from .verify import _json, check_lemma_studiopesi, check_theorem_lungo, emit_report, pieces_json

__all__ = ["main", "run"]


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _strict_int(text: str) -> int:
    """An integer written as plain ASCII digits with an optional sign.

    ``int`` alone would also read ``1_0`` as 10 and the Arabic-Indic digit
    one as 1.
    """
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer of ASCII digits, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcoh",
        description=(
            "Exact root-system and Borel-Weil-Bott computations on "
            "Picard-rank-one homogeneous varieties. Weights are given in "
            "fundamental-weight coordinates (comma-separated integers)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--out")
    weight = argparse.ArgumentParser(add_help=False)
    weight.add_argument(
        "--weight",
        required=True,
        help="fundamental-weight coordinates, e.g. 0,1,0; write --weight=-1,0 for a leading negative",
    )

    def add_pair(p: argparse.ArgumentParser, node: bool = False) -> None:
        p.add_argument("family", help="family letter A-G")
        p.add_argument("rank", type=_strict_int, help="rank of the root system")
        if node:
            p.add_argument("--node", type=_strict_int, required=True, help="marked node r (1-based)")

    p = sub.add_parser("info", help="root-system summary: counts and Cartan matrix", parents=[output])
    add_pair(p)

    p = sub.add_parser("parabolic", help="parabolic data at a node: partition, dim Y, k(Y)", parents=[output])
    add_pair(p, node=True)

    p = sub.add_parser(
        "bwb", help="cohomology table of the irreducible bundle for a weight", parents=[output, weight]
    )
    add_pair(p)

    p = sub.add_parser("dim", help="Weyl dimension of a dominant weight", parents=[output, weight])
    add_pair(p)

    p = sub.add_parser(
        "h0-cotangent", help="sections of the twisted cotangent bundle on G/P", parents=[output]
    )
    add_pair(p, node=True)
    p.add_argument("--twist", type=_strict_int, required=True, help="twist a >= 1")

    p = sub.add_parser("sigma", help="socle degree sigma = (N+1)d - 2k(Y)", parents=[output])
    add_pair(p, node=True)
    p.add_argument("--degree", type=_strict_int, required=True, help="hypersurface degree d >= 3")

    p = sub.add_parser("macaulay", help="duality-pairing exception lookup for (d, a)", parents=[output])
    add_pair(p, node=True)
    p.add_argument("--degree", type=_strict_int, required=True, help="hypersurface degree d >= 3")
    p.add_argument("--twist", type=_strict_int, required=True, help="twist a >= 0")

    p = sub.add_parser("verify", help="run a verification sweep and emit a report")
    p.add_argument("--sweep", choices=("lungo", "studiopesi"), required=True)
    p.add_argument("--max-rank", type=_strict_int, default=8, help=f"largest rank swept, 2 to {MAX_RANK}")
    p.add_argument(
        "--twist",
        type=_strict_int,
        action="append",
        help="twist for the studiopesi sweep; repeatable (default 1 2 3)",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out")
    return parser


def _parse_weight(text: str, rank: int) -> Weight:
    try:
        coords = tuple(_strict_int(part.strip()) for part in text.split(","))
    except (argparse.ArgumentTypeError, ValueError):
        raise ValueError(f"--weight expects comma-separated integers, got {text!r}")
    if len(coords) != rank:
        raise ValueError(f"--weight needs {rank} coordinates, got {len(coords)}")
    return Weight(coords)


def _emit(data: bytes, out: Optional[str]) -> None:
    """The one place output is written: to standard output or to ``--out``."""
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


# Each query command returns its JSON object and its text form; run picks one.


def _info(args: argparse.Namespace) -> tuple[dict, str]:
    rs = root_system(args.family, args.rank)
    data = {
        "family": rs.lie_type.family.value,
        "rank": rs.rank,
        "positive_roots": len(rs.root_chain),  # one link per positive root
        "cartan": [list(row) for row in rs.cartan],
    }
    lines = [
        f"type {rs.lie_type}",
        f"rank {rs.rank}",
        f"positive roots {data['positive_roots']}",
        "Cartan matrix:",
    ]
    lines += ["  " + " ".join(f"{v:2d}" for v in row) for row in rs.cartan]
    return data, "\n".join(lines) + "\n"


def _parabolic(args: argparse.Namespace) -> tuple[dict, str]:
    pd = parabolic_data(root_system(args.family, args.rank), args.node)
    levels = pd.levels
    data = {
        "family": pd.lie_type.family.value,
        "rank": pd.lie_type.rank,
        "node": pd.node,
        "dim_y": pd.dim_y,
        "k": pd.fano_index,
        "levels": {str(i): [list(r.sr_coords) for r in roots] for i, roots in levels.items()},
    }
    counts = " ".join(f"{i}:{len(roots)}" for i, roots in levels.items())
    lines = [
        f"pair ({pd.lie_type}, node {pd.node})",
        f"dim Y {pd.dim_y}",
        f"Fano index {pd.fano_index}",
        f"levels {counts}",
    ]
    return data, "\n".join(lines) + "\n"


def _bwb(args: argparse.Namespace) -> tuple[dict, str]:
    rs = root_system(args.family, args.rank)
    table = bwb_cohomology(rs, _parse_weight(args.weight, rs.rank))
    if table.vanishes:
        data = {"vanishes": True, "degree": None, "mu_fw_coords": None, "dim": None}
        return data, "all cohomology vanishes\n"
    mu = table.dominant_weight.fw_coords
    data = {"vanishes": False, "degree": table.degree, "mu_fw_coords": list(mu), "dim": str(table.dimension)}
    return data, f"degree {table.degree}\ndominant weight {mu}\ndim {table.dimension}\n"


def _dim(args: argparse.Namespace) -> tuple[dict, str]:
    rs = root_system(args.family, args.rank)
    value = weyl_dim(rs, _parse_weight(args.weight, rs.rank))
    return {"dim": str(value)}, f"{value}\n"


def _h0(args: argparse.Namespace) -> tuple[dict, str]:
    pd = parabolic_data(root_system(args.family, args.rank), args.node)
    total, pieces = h0_twisted_cotangent(pd, args.twist)
    data = {
        "family": pd.lie_type.family.value,
        "rank": pd.lie_type.rank,
        "node": args.node,
        "twist": args.twist,
        "total": str(total),
        "pieces": pieces_json(pieces),
    }
    lines = [
        f"pair ({pd.lie_type}, node {args.node}), twist {args.twist}",
        f"total {total}",
        "breakdown " + " + ".join(str(dim) for _, _, dim in pieces),
    ]
    return data, "\n".join(lines) + "\n"


def _sigma(args: argparse.Namespace) -> tuple[dict, str]:
    pd = parabolic_data(root_system(args.family, args.rank), args.node)
    value = sigma(pd, args.degree)
    return {"dim_y": pd.dim_y, "k": pd.fano_index, "degree": args.degree, "sigma": value}, f"sigma {value}\n"


def _macaulay(args: argparse.Namespace) -> tuple[dict, str]:
    pd = parabolic_data(root_system(args.family, args.rank), args.node)
    status = macaulay_exceptions(pd, args.degree, args.twist)
    return {"degree": args.degree, "twist": args.twist, "status": status.value}, f"{status.value}\n"


_QUERIES = {
    "info": _info,
    "parabolic": _parabolic,
    "bwb": _bwb,
    "dim": _dim,
    "h0-cotangent": _h0,
    "sigma": _sigma,
    "macaulay": _macaulay,
}


def _verify(args: argparse.Namespace) -> tuple[bytes, int]:
    if args.sweep == "lungo":
        if args.twist:
            raise ValueError("--twist applies to the studiopesi sweep only")
        report = check_theorem_lungo(args.max_rank)
    else:
        twists = tuple(args.twist) if args.twist else (1, 2, 3)
        report = check_lemma_studiopesi(args.max_rank, twists)
    return emit_report(report, args.format), 0 if report.all_passed else 1


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        if args.command == "verify":
            data, code = _verify(args)
        else:
            obj, text = _QUERIES[args.command](args)
            if args.format == "json":
                text = _json(obj, "") + "\n"
            data, code = text.encode("utf-8"), 0
        _emit(data, args.out)
        return code
    except (UnsupportedPairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # exact answers can exceed Python's 4300-digit limit on int <-> str; lift it for this process only
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    code = run(sys.argv[1:])
    # the process ends here, so the collector's exit-time passes have nothing left to reclaim;
    # freezing moves every live object out of their walk (run alone never freezes its caller's heap)
    gc.freeze()
    sys.exit(code)
