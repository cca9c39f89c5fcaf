"""Tests for the command-line interface.

Flagship paths run as real subprocesses (module execution, stdout bytes,
exit codes); the remaining handlers are exercised in-process through
``run`` for speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

import flagcoh.cli as cli
from flagcoh.bwb import bwb_cohomology, weyl_dim
from flagcoh.rootsys import Weight, root_system
from flagcoh.verify import CaseResult, Report, check_theorem_lungo


def invoke(*argv: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-m", "flagcoh", *argv],
        capture_output=True,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# subprocess round trips


def test_info_f4_subprocess() -> None:
    proc = invoke("info", "F", "4")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "positive roots 24" in out
    assert "Cartan matrix:" in out


def test_h0_cotangent_f4_subprocess() -> None:
    proc = invoke("h0-cotangent", "F", "4", "--node", "4", "--twist", "2")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "total 325" in out
    assert "breakdown 273 + 52" in out
    assert proc.stderr == b""


def test_verify_lungo_json_byte_identical_runs() -> None:
    args = ("verify", "--sweep", "lungo", "--max-rank", "8", "--format", "json")
    first = invoke(*args)
    second = invoke(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == 139


def test_optimized_mode_keeps_reports_and_checks() -> None:
    # python -O strips assert statements; validation must not depend on them
    args = ("verify", "--sweep", "studiopesi", "--max-rank", "6", "--format", "json")
    plain, optimized = invoke(*args), invoke(*args, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    proc = invoke("h0-cotangent", "G", "2", "--node", "1", "--twist", "1", flags=("-O",))
    assert proc.returncode == 2
    assert b"isomorphic to the listed pair (B3, node 1)" in proc.stderr


def test_unknown_subcommand_exits_2() -> None:
    proc = invoke("frobnicate")
    assert proc.returncode == 2
    assert b"invalid choice" in proc.stderr


def test_missing_required_flag_exits_2() -> None:
    proc = invoke("h0-cotangent", "F", "4", "--twist", "2")
    assert proc.returncode == 2


def test_unsupported_pair_exits_2() -> None:
    proc = invoke("h0-cotangent", "G", "2", "--node", "1", "--twist", "2")
    assert proc.returncode == 2
    assert b"isomorphic to the listed pair (B3, node 1)" in proc.stderr
    assert proc.stdout == b""


@pytest.fixture
def unlimited_int_digits():
    """Lift Python's 4300-digit limit on int <-> str while a test writes and reads exact answers."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


BIG = 10**60


def test_dim_prints_answers_past_the_digit_limit(unlimited_int_digits) -> None:
    # a 27,901-digit dimension; the command line prints it in full, as the library computes it
    proc = invoke("dim", "A", "30", "--weight", ",".join([str(BIG)] * 30))
    assert proc.returncode == 0, proc.stderr
    expected = weyl_dim(root_system("A", 30), Weight((BIG,) * 30))
    assert len(str(expected)) > 4300
    assert proc.stdout == f"{expected}\n".encode()


def test_bwb_json_prints_answers_past_the_digit_limit(unlimited_int_digits) -> None:
    coords = (-BIG,) + (BIG,) * 29
    proc = invoke("bwb", "A", "30", "--weight=" + ",".join(map(str, coords)), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    table = bwb_cohomology(root_system("A", 30), Weight(coords))
    assert table.degree == 1 and len(str(table.dimension)) > 4300
    assert json.loads(proc.stdout) == {
        "vanishes": False,
        "degree": 1,
        "mu_fw_coords": list(table.dominant_weight.fw_coords),
        "dim": str(table.dimension),
    }


def test_dim_reads_weights_past_the_digit_limit(unlimited_int_digits) -> None:
    proc = invoke("dim", "A", "1", "--weight", "1" + "0" * 5000)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{weyl_dim(root_system('A', 1), Weight((10**5000,)))}\n".encode()


# ---------------------------------------------------------------------------
# in-process handlers


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str digit limit")
def test_run_keeps_the_interpreters_digit_limit(capsys) -> None:
    # only main, the command-line process, lifts the limit; an in-process caller keeps its own
    limit = sys.get_int_max_str_digits()
    assert cli.run(["dim", "A", "1", "--weight", "1"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert sys.get_int_max_str_digits() == limit


def test_dim_text_and_json(capsys) -> None:
    assert cli.run(["dim", "G", "2", "--weight", "3,0"]) == 0
    assert capsys.readouterr().out == "77\n"
    assert cli.run(["dim", "G", "2", "--weight", "3,0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim": "77"}


def test_dim_rejects_non_dominant(capsys) -> None:
    assert cli.run(["dim", "A", "2", "--weight", "1,-1"]) == 2
    err = capsys.readouterr().err
    assert "not dominant" in err


def test_bwb_text_vanishing_and_regular(capsys) -> None:
    assert cli.run(["bwb", "A", "1", "--weight", "-1"]) == 0
    assert "vanishes" in capsys.readouterr().out
    assert cli.run(["bwb", "F", "4", "--weight", "0,0,1,0"]) == 0
    out = capsys.readouterr().out
    assert "degree 0" in out and "dim 273" in out


def test_bwb_json_schema(capsys) -> None:
    # negative leading coordinates need the --weight= form under argparse
    assert cli.run(["bwb", "A", "3", "--weight=-2,0,0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"vanishes", "degree", "mu_fw_coords", "dim"}


def test_weight_length_mismatch(capsys) -> None:
    assert cli.run(["bwb", "A", "2", "--weight", "1,2,3"]) == 2
    assert "needs 2 coordinates" in capsys.readouterr().err


def test_weight_non_integer(capsys) -> None:
    assert cli.run(["bwb", "A", "2", "--weight", "1,x"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


# int() alone reads "1_0" as 10 and the Arabic-Indic digit one "\u0661" as 1
@pytest.mark.parametrize("weight", ["1_0,0", "\u0661,0", "1,0x1", "1,+-1", "1,2.0", "1,"])
def test_weight_needs_ascii_digits(weight, capsys) -> None:
    assert cli.run(["bwb", "A", "2", f"--weight={weight}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --weight expects comma-separated integers") and err.count("\n") == 1


def test_weight_accepts_signs_and_spaces(capsys) -> None:
    assert cli.run(["bwb", "A", "2", "--weight=+1, -4"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["bwb", "A", "2", "--weight=1,-4"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("degree 2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "A", "1_0"],
        ["info", "A", "\u0661"],
        ["info", "A", "3.0"],
        ["parabolic", "A", "3", "--node", "\u0661"],
        ["h0-cotangent", "A", "3", "--node", "1", "--twist", "2_0"],
        ["sigma", "A", "3", "--node", "1", "--degree", "0x3"],
        ["macaulay", "A", "3", "--node", "1", "--degree", "3", "--twist", "3.0"],
        ["verify", "--sweep", "lungo", "--max-rank", "1_0"],
        ["verify", "--sweep", "studiopesi", "--twist", "\u0662"],
    ],
    ids=lambda argv: argv[0],
)
def test_integer_options_need_ascii_digits(argv, capsys) -> None:
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        line for line in err.splitlines() if "expected an integer of ASCII digits" in line
    ]
    assert err.count("error:") == 1


# Integers of the right syntax outside their domain: one error line, exit 2.
OUT_OF_DOMAIN = [
    ["info", "A", "0"],
    ["parabolic", "A", "3", "--node", "0"],
    ["h0-cotangent", "A", "3", "--node", "1", "--twist", "0"],
    ["sigma", "A", "3", "--node", "1", "--degree", "2"],
    ["macaulay", "A", "3", "--node", "1", "--degree", "2", "--twist", "1"],
    ["macaulay", "B", "2", "--node", "1", "--degree=-4", "--twist=0"],
    ["macaulay", "B", "2", "--node", "1", "--degree=3", "--twist=-7"],
    ["verify", "--sweep", "lungo", "--max-rank", "1"],
    ["verify", "--sweep", "studiopesi", "--max-rank", "3", "--twist", "0"],
]


@pytest.mark.parametrize("argv", OUT_OF_DOMAIN, ids=" ".join)
def test_out_of_domain_integers_exit_2(argv, capsys) -> None:
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.count("error:") == 1


def test_parabolic_json(capsys) -> None:
    assert cli.run(["parabolic", "F", "4", "--node", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_y"] == 15 and payload["k"] == 11
    assert set(payload["levels"]) == {"1", "2"}


def test_parabolic_bad_node(capsys) -> None:
    assert cli.run(["parabolic", "F", "4", "--node", "5"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_bad_family_exits_2(capsys) -> None:
    assert cli.run(["info", "Q", "3"]) == 2
    assert capsys.readouterr() == ("", "error: unknown family 'Q', expected one of A, B, C, D, E, F, G\n")
    assert cli.run(["info", "E", "9"]) == 2
    capsys.readouterr()
    assert cli.run(["info", "b", "3"]) == 0
    assert capsys.readouterr().out.startswith("type B3\n")


def test_sigma_and_macaulay(capsys) -> None:
    assert cli.run(["sigma", "B", "2", "--node", "1", "--degree", "3"]) == 0
    assert capsys.readouterr().out == "sigma 6\n"
    assert cli.run(["sigma", "B", "2", "--node", "1", "--degree", "2"]) == 2
    capsys.readouterr()
    assert cli.run(["macaulay", "B", "2", "--node", "1", "--degree", "3", "--twist", "3"]) == 0
    assert capsys.readouterr().out == "surjectivity-fails\n"
    assert cli.run(["macaulay", "F", "4", "--node", "4", "--degree", "5", "--twist", "4"]) == 0
    assert capsys.readouterr().out == "injectivity-fails\n"
    assert cli.run(["macaulay", "A", "4", "--node", "2", "--degree", "4", "--twist", "2"]) == 0
    assert capsys.readouterr().out == "no-exception\n"
    assert cli.run([
        "macaulay", "A", "4", "--node", "2", "--degree", "4", "--twist", "2",
        "--format", "json",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "no-exception"


def test_macaulay_twins(capsys) -> None:
    # the Grassmannian Gr(4, 6) answers as its listed twin Gr(2, 6)
    assert cli.run(["macaulay", "A", "5", "--node", "4", "--degree", "3", "--twist", "3"]) == 0
    assert capsys.readouterr().out == "injectivity-fails\n"
    # omitted pairs are refused and named after their listed twin
    for argv, twin in (
        (["E", "6", "--node", "6"], "(E6, node 1)"),
        (["G", "2", "--node", "1"], "(B3, node 1)"),
    ):
        assert cli.run(["macaulay", *argv, "--degree", "3", "--twist", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"isomorphic to the listed pair {twin}" in captured.err


def test_verify_text_summary(capsys) -> None:
    assert cli.run(["verify", "--sweep", "lungo", "--max-rank", "4"]) == 0
    out = capsys.readouterr().out
    assert "sweep lungo" in out
    assert "failed 0" in out


def test_verify_twist_with_lungo_rejected(capsys) -> None:
    assert cli.run(["verify", "--sweep", "lungo", "--twist", "2"]) == 2
    assert "studiopesi" in capsys.readouterr().err


def test_verify_studiopesi_custom_twists(tmp_path) -> None:
    out = tmp_path / "rep.json"
    code = cli.run([
        "verify", "--sweep", "studiopesi", "--max-rank", "3",
        "--twist", "2", "--twist", "5", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["twists"] == [2, 5]
    assert payload["summary"]["failed"] == 0


def test_verify_csv_to_file(tmp_path) -> None:
    out = tmp_path / "rep.csv"
    code = cli.run([
        "verify", "--sweep", "lungo", "--max-rank", "4", "--format", "csv",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,rank,node,twist,h0,dim_y,passed,annotations"
    assert len(lines) >= 10


# sha256 of the text, CSV and JSON report bytes of two rank-6 sweeps
VERIFY_OUTPUT_PINS = {
    ("studiopesi", "json"): "89e49e2c3a05b65ea8bfb5a60b36f19766e6d32431f68678251e25d00b9987d1",
    ("studiopesi", "text"): "6a701667a9df0ed52b0f48e8835decd6ba5aaf84fdb47cde9e2d49a9a322ed57",
    ("studiopesi", "csv"): "fcf9ad773763531596c435eb4c935349f47bed2f8f2db1f27b364abd5c1270cb",
    ("lungo", "text"): "d58e22216dfed9de3e1bb51322f1204d24043b2c5307238f79c4227a4630c57a",
    ("lungo", "csv"): "1b8ee92eaf66ebeedcdf729336976bfb8de23f60e063280bc657213a123a22cb",
    ("lungo", "json"): "aace22584552d19d5bc0a9dddf6b49ce1b764290268fa1bdd680fdde37f81b39",
}


@pytest.mark.parametrize("sweep,fmt", sorted(VERIFY_OUTPUT_PINS))
def test_verify_output_bytes_pinned(sweep, fmt, capsysbinary) -> None:
    argv = ["verify", "--sweep", sweep, "--max-rank", "6", "--format", fmt]
    assert cli.run(argv) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == VERIFY_OUTPUT_PINS[sweep, fmt]


def test_verify_out_file_subprocess(tmp_path) -> None:
    # the report file is complete when the process exits with its heap frozen
    path = tmp_path / "report.json"
    proc = invoke("verify", "--sweep", "studiopesi", "--max-rank", "6", "--format", "json", "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_OUTPUT_PINS["studiopesi", "json"]


def test_out_flag_for_query(tmp_path, capsys) -> None:
    path = tmp_path / "info.json"
    assert cli.run(["info", "G", "2", "--format", "json", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["positive_roots"] == 6


def test_unwritable_out_exits_2(tmp_path, capsys) -> None:
    missing = str(tmp_path / "no-such-dir" / "x")
    assert cli.run(["info", "A", "3", "--out", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "no-such-dir" in err
    for fmt in ("text", "json"):
        argv = ["verify", "--sweep", "lungo", "--max-rank", "2", "--format", fmt, "--out", missing]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_exit_1_on_failures(monkeypatch, capsys) -> None:
    failing = Report(
        sweep="lungo",
        version="0",
        params={"max_rank": 2},
        cases=(
            CaseResult(
                family="A", rank=2, node=1, twist=2, h0=1, dim_y=2,
                passed=False, witness=(), annotations=("golden value mismatch: synthetic",),
            ),
        ),
    )
    monkeypatch.setattr(cli, "check_theorem_lungo", lambda max_rank: failing)
    assert cli.run(["verify", "--sweep", "lungo", "--max-rank", "2"]) == 1
    out = capsys.readouterr().out
    assert "failed 1" in out
    assert "FAIL A2 node 1" in out


def test_verify_has_no_jobs_option(capsys) -> None:
    assert cli.run(["verify", "--sweep", "lungo", "--max-rank", "2", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_rank_above_cap_exits_2_quickly(capsys) -> None:
    # before the cap, `info A 200` ran for more than 20 s
    for argv in (["info", "A", "200"], ["verify", "--sweep", "lungo", "--max-rank", "200"]):
        start = time.perf_counter()
        assert cli.run(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "200" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "G", "2"],
        ["parabolic", "F", "4", "--node", "4"],
        ["bwb", "B", "3", "--weight=-2,0,1"],
        ["dim", "E", "6", "--weight", "1,0,0,0,0,0"],
        ["h0-cotangent", "F", "4", "--node", "4", "--twist", "2"],
        ["sigma", "F", "4", "--node", "4", "--degree", "3"],
        ["macaulay", "B", "2", "--node", "1", "--degree", "3", "--twist", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_query_commands_share_format_and_out(argv, tmp_path, capsys) -> None:
    for fmt in ("text", "json"):
        assert cli.run([*argv, "--format", fmt]) == 0
        printed = capsys.readouterr().out
        path = tmp_path / f"{argv[0]}.{fmt}"
        assert cli.run([*argv, "--format", fmt, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == printed
        if fmt == "json":
            json.loads(printed)
    assert cli.run([*argv, "--format", "csv"]) == 2


# The exact bytes of each query command, text and json, on one input each.
QUERY_OUTPUT_PINS = {
    "info": (
        ["info", "G", "2"],
        "type G2\nrank 2\npositive roots 6\nCartan matrix:\n   2 -3\n  -1  2\n",
        """{
  "family": "G",
  "rank": 2,
  "positive_roots": 6,
  "cartan": [
    [
      2,
      -3
    ],
    [
      -1,
      2
    ]
  ]
}
""",
    ),
    "parabolic": (
        ["parabolic", "B", "2", "--node", "1"],
        "pair (B2, node 1)\ndim Y 3\nFano index 3\nlevels 1:3\n",
        """{
  "family": "B",
  "rank": 2,
  "node": 1,
  "dim_y": 3,
  "k": 3,
  "levels": {
    "1": [
      [
        1,
        0
      ],
      [
        1,
        1
      ],
      [
        1,
        2
      ]
    ]
  }
}
""",
    ),
    # depth 2: the root order inside each level and the derived levels show
    "parabolic-depth-2": (
        ["parabolic", "F", "4", "--node", "4"],
        "pair (F4, node 4)\ndim Y 15\nFano index 11\nlevels 1:8 2:7\n",
        """{
  "family": "F",
  "rank": 4,
  "node": 4,
  "dim_y": 15,
  "k": 11,
  "levels": {
    "1": [
      [
        0,
        0,
        0,
        1
      ],
      [
        0,
        0,
        1,
        1
      ],
      [
        0,
        1,
        1,
        1
      ],
      [
        0,
        1,
        2,
        1
      ],
      [
        1,
        1,
        1,
        1
      ],
      [
        1,
        1,
        2,
        1
      ],
      [
        1,
        2,
        2,
        1
      ],
      [
        1,
        2,
        3,
        1
      ]
    ],
    "2": [
      [
        0,
        1,
        2,
        2
      ],
      [
        1,
        1,
        2,
        2
      ],
      [
        1,
        2,
        2,
        2
      ],
      [
        1,
        2,
        3,
        2
      ],
      [
        1,
        2,
        4,
        2
      ],
      [
        1,
        3,
        4,
        2
      ],
      [
        2,
        3,
        4,
        2
      ]
    ]
  }
}
""",
    ),
    "bwb": (
        ["bwb", "A", "2", "--weight=1,-4"],
        "degree 2\ndominant weight (0, 1)\ndim 3\n",
        """{
  "vanishes": false,
  "degree": 2,
  "mu_fw_coords": [
    0,
    1
  ],
  "dim": "3"
}
""",
    ),
    "bwb-vanishing": (
        ["bwb", "A", "1", "--weight=-1"],
        "all cohomology vanishes\n",
        """{
  "vanishes": true,
  "degree": null,
  "mu_fw_coords": null,
  "dim": null
}
""",
    ),
    "dim": (
        ["dim", "E", "6", "--weight", "1,0,0,0,0,0"],
        "27\n",
        '{\n  "dim": "27"\n}\n',
    ),
    "h0-cotangent": (
        ["h0-cotangent", "B", "3", "--node", "2", "--twist", "1"],
        "pair (B3, node 2), twist 1\ntotal 1\nbreakdown 0 + 1\n",
        """{
  "family": "B",
  "rank": 3,
  "node": 2,
  "twist": 1,
  "total": "1",
  "pieces": [
    {
      "level": 1,
      "fw_coords": null,
      "dim": "0"
    },
    {
      "level": 2,
      "fw_coords": [
        0,
        0,
        0
      ],
      "dim": "1"
    }
  ]
}
""",
    ),
    "sigma": (
        ["sigma", "F", "4", "--node", "4", "--degree", "3"],
        "sigma 26\n",
        '{\n  "dim_y": 15,\n  "k": 11,\n  "degree": 3,\n  "sigma": 26\n}\n',
    ),
    "macaulay": (
        ["macaulay", "B", "2", "--node", "1", "--degree", "3", "--twist", "3"],
        "surjectivity-fails\n",
        '{\n  "degree": 3,\n  "twist": 3,\n  "status": "surjectivity-fails"\n}\n',
    ),
}


@pytest.mark.parametrize("command", sorted(QUERY_OUTPUT_PINS))
def test_query_output_bytes_pinned(command, capsysbinary) -> None:
    argv, text, as_json = QUERY_OUTPUT_PINS[command]
    for fmt, expected in (("text", text), ("json", as_json)):
        assert cli.run([*argv, "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == expected.encode("utf-8")


def test_parabolic_depth_6_json_pinned(capsysbinary) -> None:
    # E8 at node 4 has six levels and 106 nilradical roots; sha256 of its JSON bytes
    assert cli.run(["parabolic", "E", "8", "--node", "4", "--format", "json"]) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == "5f512480b119ffd1907738df0388d9eb46dd8bca74ccbea6b283d0f281f319d7"


def test_h0_cotangent_pieces_match_lungo_witness(capsys) -> None:
    argv = ["h0-cotangent", "F", "4", "--node", "4", "--twist", "2", "--format", "json"]
    assert cli.run(argv) == 0
    pieces = json.loads(capsys.readouterr().out)["pieces"]
    (f4,) = [c for c in check_theorem_lungo(4).cases if (c.family, c.rank, c.node) == ("F", 4, 4)]
    assert pieces == list(f4.witness)
    assert [p["dim"] for p in pieces] == ["273", "52"]


def test_help_exits_0() -> None:
    proc = invoke("--help")
    assert proc.returncode == 0
    assert b"info" in proc.stdout and b"verify" in proc.stdout


# ---------------------------------------------------------------------------
# the exit-time freeze: cli.main only, never cli.run or an import


def test_run_leaves_the_callers_collector_alone(capsys) -> None:
    before = gc.get_freeze_count()
    assert cli.run(["verify", "--sweep", "lungo", "--max-rank", "4"]) == 0
    assert gc.get_freeze_count() == before
    assert "failed 0" in capsys.readouterr().out


# a fresh interpreter that runs cli.main and reports, from an atexit hook, whether the heap is frozen
MAIN_WITH_EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count() > 0}\\n'))\n"
    "from flagcoh.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["info", "F", "4"], 0),
        (["dim", "E", "7", "--weight", "1,0,0,0,0,0,0", "--format", "json"], 0),
        (["h0-cotangent", "G", "2", "--node", "1", "--twist", "2"], 2),
        (["frobnicate"], 2),
    ],
    ids=["info", "dim-json", "unsupported-pair", "usage-error"],
)
def test_main_freezes_the_heap_before_exit(argv, code, capsysbinary) -> None:
    proc = subprocess.run([sys.executable, "-c", MAIN_WITH_EXIT_PROBE, *argv], capture_output=True, timeout=120)
    assert proc.returncode == code
    assert proc.stderr.endswith(b"frozen True\n")
    assert cli.run(argv) == code
    assert proc.stdout == capsysbinary.readouterr().out


def test_importing_main_module_runs_nothing() -> None:
    code = "import gc, sys, flagcoh.__main__\nif gc.get_freeze_count():\n    sys.exit('frozen')\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


# ---------------------------------------------------------------------------
# the command-line contract over a grammar of argument lists

# valid (family, rank) pairs, and values that are wrong in syntax or in domain
TYPES = [("A", 1), ("A", 3), ("B", 2), ("b", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]
BAD_FAMILIES = ["Q", "", "AB", "1", "é"]
BAD_RANKS = ["0", "-1", "101", "10" * 20, "3.0", "1_0", "٣", "x", ""]
BAD_INTS = ["0", "-2", "9", "1.5", "x", "", "10" * 10]
BAD_WEIGHTS = ["1,x", "1.0,2", ",", "", "١,0"]


COMMANDS = ["info", "parabolic", "bwb", "dim", "h0-cotangent", "sigma", "macaulay", "verify", "frob"]


def _cli_argv(st, tmp_path, command: str):
    """A strategy for argv lists of one subcommand; each part is valid seven times in eight, else a bad
    family, rank, node, twist, weight, format or ``--out`` path (a missing directory, a directory)."""

    @st.composite
    def argv(draw):
        def pick(good, bad):
            return draw(st.sampled_from(good if draw(st.integers(0, 7)) < 7 else bad))

        if command == "verify":
            sweep = pick(["lungo", "studiopesi"], ["other", ""])
            args = [command, "--sweep", sweep, f"--max-rank={pick(['2', '3', '4'], BAD_RANKS)}"]
            if sweep != "lungo" and draw(st.booleans()):
                args += [f"--twist={pick(['1', '2', '3'], BAD_INTS)}" for _ in range(draw(st.integers(1, 2)))]
            formats, bad_formats = [None, "text", "json", "csv"], ["xml", ""]
        else:
            family, rank = draw(st.sampled_from(TYPES))
            args = [command, pick([family], BAD_FAMILIES), pick([str(rank)], BAD_RANKS)]
            # a required --node or --weight is left out one time in eight: times pick([1], [0])
            if command in ("parabolic", "h0-cotangent", "sigma", "macaulay"):
                args += [f"--node={pick([str(r) for r in range(1, rank + 1)], BAD_INTS)}"] * pick([1], [0])
            if command in ("bwb", "dim"):
                size = rank + pick([0], [1, -1])
                coords = draw(st.lists(st.integers(-12, 12) | st.just(10**30), min_size=size, max_size=size))
                args += [f"--weight={pick([','.join(map(str, coords))], BAD_WEIGHTS)}"] * pick([1], [0])
            if command in ("sigma", "macaulay"):
                args.append(f"--degree={pick(['3', '4'], BAD_INTS)}")
            if command in ("h0-cotangent", "macaulay"):
                args.append(f"--twist={pick(['1', '2', '3'], BAD_INTS)}")
            formats, bad_formats = [None, "text", "json"], ["csv", "xml", ""]
        fmt = pick(formats, bad_formats)
        args += [] if fmt is None else [f"--format={fmt}"]
        out = pick([None, str(tmp_path / "out.txt")], [str(tmp_path / "no-such-dir" / "out.txt"), str(tmp_path)])
        return args if out is None else [*args, f"--out={out}"]

    return argv()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_contract_over_an_argv_grammar(command, tmp_path) -> None:
    # every argument list exits 0 or 2; exit 2 prints exactly one error line; nothing prints a traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_cli_argv(st, tmp_path, command))
    def check(argv) -> None:
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        text = err.getvalue()
        assert code in (0, 2), (argv, code, text)
        assert "Traceback" not in text, argv
        if code == 2:
            assert [line for line in text.splitlines() if "error:" in line] == [text.splitlines()[-1]], (argv, text)
        else:
            assert text == "", (argv, text)

    check()
