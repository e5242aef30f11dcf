"""End-to-end runs of the command line interface."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cubicspan.cli import build_parser, main
from cubicspan.field import make_extension
from cubicspan.harness import ExperimentConfig, random_smooth_surface
from cubicspan.reduction import family_tag
from cubicspan.surface import fermat_cubic, zero_points

README = Path(__file__).resolve().parent.parent / "README.md"

FAMILY_ALIASES = ["S", "S_M", "Sprime", "Sprime_M", "S'_M"]

#: the extra arguments each surface subcommand needs on a family surface
#: reduced mod 7; (1 : -1 : 0 : 0) lies on both families
SURFACE_COMMANDS = {
    "lines": [],
    "classify": ["--point", "1,6,0,0"],
    "span": ["--seed-point", "1,6,0,0"],
    "hs": [],
}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- informational commands ---------------------------------------------


def test_lines_on_fermat(capsys):
    code, doc = run_json(capsys, ["lines", "--p", "13"])
    assert code == 0
    assert doc["count"] == 27
    assert doc["q"] == 13
    assert len(doc["lines"]) == 27
    assert all(len(line) == 2 and len(line[0]) == 4 for line in doc["lines"])


def test_lines_char2_example_split_over_f64(capsys):
    code, doc = run_json(capsys, ["lines", "--example64", "--extension", "6"])
    assert code == 0
    assert doc["count"] == 27
    assert doc["q"] == 64


def test_lines_human_output(capsys):
    code = main(["lines", "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("27 lines over GF(7)")


def test_classify_fermat_coordinate_points(capsys):
    code, doc = run_json(
        capsys,
        ["classify", "--p", "13", "--point", "1,12,0,0", "--point", "0,0,1,12"],
    )
    assert code == 0
    for row in doc["points"]:
        assert row["kind"] == "eckardt"
        assert row["ternary"] is True
        assert row["lines_through"] == 3


#: SHA-256 of the stdout of `classify --json` with one --point per rational
#: point, recorded while classify_point still built the tangent-plane section
CLASSIFY_DIGESTS = [
    (
        ["--p", "5"],
        lambda: fermat_cubic(make_extension(5, 1)),
        "76f4c29fee5167d58c52b529c31d727c60809f1a66d8d3f8e632280250cedc50",
    ),
    (
        ["--p", "2", "--k", "2", "--random", "--seed", "2"],
        lambda: random_smooth_surface(make_extension(2, 2), 2),
        "296780827731a79ab50497385b93cc6688cb241f93a3a2870f618b30c87cf161",
    ),
]


@pytest.mark.parametrize("argv, make_form, digest", CLASSIFY_DIGESTS, ids=["fermat-gf5", "gf4-s2"])
def test_classify_every_point_is_pinned(capsys, argv, make_form, digest):
    points = []
    for coords in zero_points(make_form()):
        points += ["--point", ",".join(map(str, coords))]
    assert main(["classify", *argv, *points, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_classify_rejects_short_point(capsys):
    code = main(["classify", "--p", "13", "--point", "1,2,3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "field_args, point",
    [(["--p", "2", "--k", "4"], "1,20,0,0"), (["--p", "13"], "1,25,0,0"), (["--p", "13"], "1,-1,0,0")],
    ids=["gf16-too-large", "gf13-too-large", "gf13-negative"],
)
def test_classify_rejects_coordinates_that_are_not_field_codes(capsys, field_args, point):
    code = main(["classify", *field_args, "--point", point])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "is not a code in GF(" in captured.err
    assert captured.out == ""


def test_classify_rejects_a_point_off_the_surface(capsys):
    code = main(["classify", "--p", "13", "--point", "1,0,0,0"])
    assert code == 2
    assert capsys.readouterr().err == "error: ProjPoint(1, 0, 0, 0) is not on the surface\n"


def test_span_trace_from_eckardt_seeds(capsys):
    code, doc = run_json(
        capsys,
        ["span", "--p", "13", "--seed-point", "1,12,0,0", "--seed-point", "0,1,12,0"],
    )
    assert code == 0
    assert doc["added_per_round"] == [2, 1]
    assert doc["size"] == 3
    assert doc["surface_size"] == 261
    assert doc["spans_surface"] is False


def test_span_singleton_spans_surface(capsys):
    code, doc = run_json(
        capsys, ["span", "--p", "13", "--seed-point", "1,12,1,12"]
    )
    assert code == 0
    assert doc["spans_surface"] is True
    assert doc["size"] == 261
    assert doc["added_per_round"][0] == 1
    assert sum(doc["added_per_round"]) == 261


def test_span_needs_seeds_or_skew_check(capsys):
    code = main(["span", "--p", "13"])
    assert code == 2
    assert "seed-point" in capsys.readouterr().err


@pytest.mark.parametrize("argv, point", [
    (["span", "--p", "3"], "(1, 0, 0, 2)"),
    (["hs", "--p", "3"], "(1, 0, 0, 2)"),
    (["span", "--family", "Sprime_M", "--M", "7", "--p", "7"], "(0, 0, 0, 1)"),
    (["hs", "--family", "S_M", "--M", "31", "--p", "2"], "(0, 0, 1, 1)"),
], ids=["span-fermat", "hs-fermat", "span-Sprime_M", "hs-S_M"])
def test_span_and_hs_name_the_first_singular_rational_point(capsys, argv, point):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: gradient vanishes at ProjPoint{point}\n"


def test_span_skew_check_passes_on_fermat(capsys):
    code, doc = run_json(capsys, ["span", "--p", "13", "--skew-check"])
    assert code == 0
    assert doc["all_span"] is True
    assert doc["points_checked"] == 24
    assert doc["failures"] == []


def test_hs_document_keys(capsys):
    code, doc = run_json(capsys, ["hs", "--p", "13"])
    assert code == 0
    assert doc == {
        "points": 261,
        "relations": 27437,
        "invariant_factors": [],
        "h0_rank": 0,
        "h0_dim_mod2": 0,
        "h0_dim_mod3": 0,
    }


def test_module_entry_point_runs_from_a_checkout():
    src = README.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "cubicspan", "hs", "--p", "13", "--json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["points"] == 261


def test_pic_quotient_mod2(capsys):
    code, doc = run_json(capsys, ["pic", "--p", "31", "--mod", "2"])
    assert code == 0
    assert doc["dim"] == 2
    assert doc["classes"] == 4
    assert len(doc["representatives"]) == 4
    assert doc["representatives"][0] == [1, 0, 6]


def test_pic_rejects_bad_hypothesis(capsys):
    code = main(["pic", "--p", "5", "--mod", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # 2 is not a cube mod 193
    assert main(["pic", "--p", "193", "--mod", "2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "p,n,digest",
    [
        (193, 3, "5dbac2279143a64ee355b65a58b463816f8a8d1ea02c0dc55ae94ff1d102b6b8"),
        (157, 2, "841066c1cdb19af8d061eb5f5b4cd455a08c8c6b49a50c6501d058cd4463d5e3"),
    ],
)
def test_pic_document_is_pinned(capsys, p, n, digest):
    # SHA-256 of the stdout recorded with third points computed by the
    # pencil construction; 157 is the largest p < 200 with 2 a cube
    assert main(["pic", "--p", str(p), "--mod", str(n), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# -- reduction commands -------------------------------------------------


def test_reduce_document(capsys, tmp_path):
    out = tmp_path / "psi.json"
    code, doc = run_json(
        capsys,
        [
            "reduce",
            "--family", "S_M",
            "--M", "31",
            "--p", "31",
            "--height", "10",
            "--out", str(out),
        ],
    )
    assert code == 0
    assert doc["count"] == 146
    rows = doc["reductions"]
    assert all(set(r) == {"point", "p", "phi", "psi_class"} for r in rows)
    assert all(r["p"] == 31 for r in rows)
    assert all(0 <= r["psi_class"] < 4 for r in rows)
    bad = [r for r in rows if r["phi"] == "bad"]
    assert bad and all(r["point"][:3] == [0, 0, 0] for r in bad)
    good = [r for r in rows if r["phi"] != "bad"]
    assert all(len(r["phi"]) == 3 for r in good)
    assert json.loads(out.read_text()) == doc


def test_reduce_rejects_non_dividing_prime(capsys):
    code = main(
        ["reduce", "--family", "S_M", "--M", "31", "--p", "7", "--height", "5"]
    )
    assert code == 2


def test_reduce_rejects_m_zero(capsys):
    # M = 0 is the singular cone x^3 + y^3 + z^3 = 0
    code = main(
        ["reduce", "--family", "S_M", "--M", "0", "--p", "31", "--height", "3"]
    )
    assert code == 2
    assert "M = 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,m,digest",
    [
        ("S_M", 31, "c977f93a621deaca8042b8180d89b2e59a63b11ffd103a187f8f06f5a2e04e21"),
        ("Sprime_M", 93, "f589a9501f657318ba58af6420da31f03379a9cd8ed7cb2dbd46f065d011d7a2"),
    ],
)
def test_reduce_document_is_pinned(capsys, family, m, digest):
    # SHA-256 of the stdout recorded before reductions were shared per residue
    argv = ["reduce", "--family", family, "--M", str(m), "--p", "31", "--height", "60", "--json"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rank_bound_document(capsys):
    code, doc = run_json(
        capsys,
        ["rank-bound", "--family", "S_M", "--primes", "31", "--height", "10"],
    )
    assert code == 0
    assert doc["achieved_dim"] == 2
    assert doc["target_dim"] == 2
    assert doc["M"] == 31
    assert doc["mod"] == 2


def test_rank_bound_wcubed_family(capsys):
    code, doc = run_json(
        capsys,
        ["rank-bound", "--family", "Sprime_M", "--primes", "31", "--height", "20"],
    )
    assert code == 0
    assert doc["M"] == 93
    assert doc["mod"] == 3
    assert doc["achieved_dim"] == 2


@pytest.mark.parametrize("alias", FAMILY_ALIASES)
@pytest.mark.parametrize("command", sorted(SURFACE_COMMANDS))
def test_surface_commands_accept_every_family_alias(capsys, command, alias):
    def run(family):
        argv = [command, "--p", "7", "--M", "31", "--family", family]
        return run_json(capsys, argv + SURFACE_COMMANDS[command])

    code, doc = run(alias)
    assert code == 0
    assert run(family_tag(alias)) == (0, doc)


#: one run per subcommand without --json, and the first line it prints
HUMAN_RUNS = {
    "lines": (["--p", "7"], "27 lines over GF(7)"),
    "classify": (
        ["--p", "13", "--point", "1,12,1,12"],
        "(1, 12, 1, 12): hyperbolic, ternary, 2 lines through it over the closure",
    ),
    "span": (
        ["--p", "13", "--skew-check"],
        "skew singleton spans: 24 checked, 4 Eckardt skipped, all span",
    ),
    "hs": (["--p", "7"], "99 points, 4811 relations"),
    "pic": (["--p", "31", "--mod", "2"], "Pic0(C_31)/2: dimension 2, 4 classes"),
    "reduce": (
        ["--family", "S_M", "--M", "31", "--p", "31", "--height", "10"],
        "146 points of height <= 10 reduced at p = 31",
    ),
    "rank-bound": (
        ["--family", "S_M", "--primes", "31", "--height", "10"],
        "S_M with M = 31: rank of the reduction image is 2 of 2 (146 points, height 10)",
    ),
    "verify": (
        ["--suite", "pic", "--pic-limit", "13"],
        "suite pic: 3 passed, 0 failed, 0 skipped",
    ),
    "scan": (["--p", "7", "--count", "2"], "2 smooth surfaces over GF(7)"),
}


def test_human_runs_cover_every_subcommand():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(HUMAN_RUNS) == set(commands.choices)


@pytest.mark.parametrize("command", sorted(HUMAN_RUNS))
def test_every_subcommand_prints_its_human_summary(capsys, command):
    args, first_line = HUMAN_RUNS[command]
    assert main([command, *args]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line


#: (argv, expected stdout) of each README block that opens with $ cubicspan
README_TRANSCRIPTS = [
    (shlex.split(command), output)
    for command, output in re.findall(r"```\n\$ cubicspan (.*?)\n(.*?)```", README.read_text(), re.S)
]


def _mask_timings(text: str) -> str:
    return re.sub(r"\(\d+\.\d+s\)", "(0.00s)", text)


def test_readme_has_three_transcripts():
    assert [argv[0] for argv, _ in README_TRANSCRIPTS] == ["hs", "span", "verify"]


@pytest.mark.parametrize("argv, expected", README_TRANSCRIPTS, ids=[a[0] for a, _ in README_TRANSCRIPTS])
def test_readme_transcript_replays(capsys, argv, expected):
    assert main(argv) == 0
    assert _mask_timings(capsys.readouterr().out) == _mask_timings(expected)


def test_readme_command_table_parses():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    rows = [line for line in block.splitlines() if line.startswith("cubicspan ")]
    assert len(rows) == 9
    parser = build_parser()
    for row in rows:
        command, description = re.split(r"\s{2,}", row, maxsplit=1)
        assert description
        parser.parse_args(shlex.split(command)[1:])


def test_unknown_family_is_usage_error(capsys):
    code = main(["rank-bound", "--family", "T_M", "--primes", "31"])
    assert code == 2


# -- verify and scan ----------------------------------------------------


def test_verify_pic_suite(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run_json(
        capsys,
        ["verify", "--suite", "pic", "--pic-limit", "13", "--out", str(out)],
    )
    assert code == 0
    assert doc["passed"] is True
    assert [r["name"] for r in doc["results"]] == [
        "pic/quotient_mod2",
        "pic/quotient_mod3",
        "pic/two_division",
    ]
    saved = json.loads(out.read_text())
    assert saved["suite"] == "pic"


def test_verify_reduction_suite_human(capsys):
    code = main(
        ["verify", "--suite", "reduction", "--height", "6", "--pair-cap", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "suite reduction:" in out
    assert "reduction/rank_bound: pass" in out


def test_verify_reduction_suite_on_sprime_skips_rank_bound(capsys):
    # the default --M 31 is not the 3*prod(p) = 93 the rank bound uses
    code, doc = run_json(
        capsys, ["verify", "--suite", "reduction", "--family", "Sprime_M"]
    )
    assert code == 0
    by_name = {r["name"]: r for r in doc["results"]}
    assert by_name["reduction/rank_bound"]["status"] == "skip"
    assert "M = 3*prod(p) = 93, not M = 31" in by_name["reduction/rank_bound"]["reason"]
    assert doc["counts"]["fail"] == 0


def test_verify_check_selection(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify",
            "--suite", "pic",
            "--pic-limit", "13",
            "--check", "pic/two_division",
        ],
    )
    assert code == 0
    by_name = {r["name"]: r for r in doc["results"]}
    assert by_name["pic/two_division"]["status"] == "pass"
    assert by_name["pic/quotient_mod3"]["status"] == "skip"


def test_verify_attempts_reaches_the_sampler(capsys):
    # seed 4 over GF(7) draws its first smooth surface on the second trial
    argv = ["verify", "--suite", "hs", "--surface", "random", "--p", "7", "--seed", "4"]
    code, doc = run_json(capsys, argv + ["--attempts", "2"])
    assert code == 0
    assert doc["config"]["attempts"] == 2
    assert doc["counts"]["fail"] == 0
    assert main(argv + ["--attempts", "1"]) == 2
    assert "in 1 attempts" in capsys.readouterr().err


def test_verify_has_one_option_per_config_field():
    parser = build_parser()
    args = parser.parse_args(["verify", "--suite", "all"])
    defaults = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    assert ExperimentConfig(**defaults) == ExperimentConfig()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["verify", "--suite", "hs", "--surface", "bogus"])
    assert exc.value.code == 2


def test_scan_samples_are_deterministic(capsys):
    code, first = run_json(capsys, ["scan", "--p", "7", "--count", "2", "--seed", "4"])
    assert code == 0
    code, second = run_json(capsys, ["scan", "--p", "7", "--count", "2", "--seed", "4"])
    assert code == 0
    assert first == second
    assert first["q"] == 7
    assert [s["seed"] for s in first["samples"]] == [4, 5]
    for sample in first["samples"]:
        assert sample["points"] > 0
        assert sample["lines"] >= 0


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_required_option_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["pic", "--p", "31"])
    assert exc.value.code == 2
