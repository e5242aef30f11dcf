"""Config plumbing, seeded sampling, and the verification suites."""

import hashlib
import json
import random
import sys

import pytest

from cubicspan.errors import BudgetExceeded, FamilyMismatch
from cubicspan.field import make_extension
from cubicspan.harness import (
    CheckResult,
    ExperimentConfig,
    VerificationReport,
    random_cubic_form,
    random_smooth_surface,
    run_suite,
    suite_checks,
    surface_for_config,
)
from cubicspan.span import SpanTable
from cubicspan.surface import (
    is_smooth,
    lines_on_surface,
    surface_with_27_lines_over_f64,
)

from oracles import groebner_smooth, singular_witness


# -- configs ------------------------------------------------------------


def test_config_roundtrip():
    config = ExperimentConfig(seed=7, p=17, height=25, checks=("pic/two_division",))
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.p == 13
    assert config.surface == "fermat"
    assert config.family == "S_M"


def test_config_normalizes_family_alias():
    assert ExperimentConfig(family="S'_M", m=93).family == "Sprime_M"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"p": 9},
        {"k": 0},
        {"surface": "torus"},
        {"m": 0},
        {"height": 0},
        {"pair_cap": 0},
        {"pic_limit": 1},
        {"attempts": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_rejects_unknown_family():
    with pytest.raises(FamilyMismatch):
        ExperimentConfig(family="T_M")


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"seed": 1, "flavor": "mint"})


def test_check_result_validation():
    with pytest.raises(ValueError, match="unknown status"):
        CheckResult("x", "maybe", 0.0)
    with pytest.raises(ValueError, match="witness"):
        CheckResult("x", "fail", 0.0)
    with pytest.raises(ValueError, match="reason"):
        CheckResult("x", "skip", 0.0)
    assert CheckResult("x", "fail", 0.0, {"bad": 1}).detail == {"bad": 1}


# -- seeded sampling ----------------------------------------------------


def test_sampler_is_deterministic():
    f13 = make_extension(13, 1)
    first = random_smooth_surface(f13, 1)
    second = random_smooth_surface(f13, 1)
    assert first == second
    assert first.coeffs[(0, 0, 0, 3)] == 6
    assert first.coeffs[(0, 0, 1, 2)] == 6
    assert first.coeffs[(0, 0, 3, 0)] == 7


def test_sampler_varies_with_seed():
    f13 = make_extension(13, 1)
    forms = {random_smooth_surface(f13, seed) for seed in range(6)}
    assert len(forms) == 6


def test_sampled_surfaces_are_smooth():
    f7 = make_extension(7, 1)
    for seed in range(100):
        form = random_smooth_surface(f7, seed)
        assert is_smooth(form)


def test_smooth_cubics_exist_over_f2():
    f2 = make_extension(2, 1)
    form = random_smooth_surface(f2, 1)
    assert form.field.q == 2
    assert is_smooth(form)


def test_sampler_budget_exhaustion():
    f2 = make_extension(2, 1)
    with pytest.raises(BudgetExceeded, match="attempts"):
        random_smooth_surface(f2, 0, attempts=1)


def test_sampler_field_size_limit():
    f257 = make_extension(257, 1)
    with pytest.raises(BudgetExceeded, match="limit"):
        random_smooth_surface(f257, 1)


def test_sampler_rejects_a_draw_singular_over_gf125():
    # the second GF(5) draw of seed 87 is singular at a point of degree 3,
    # which neither a rational point nor a rational line carries
    f5 = make_extension(5, 1)
    rng = random.Random(87)
    draws = [random_cubic_form(f5, rng) for _ in range(5)]
    assert is_smooth(draws[1]) is False
    assert singular_witness(draws[1]) is None
    lifted = draws[1].embed(make_extension(5, 3))
    assert lifted.evaluate((1, 29, 74, 37)) == 0
    assert lifted.gradient((1, 29, 74, 37)) == (0, 0, 0, 0)
    form = random_smooth_surface(f5, 87)
    assert form == draws[4]
    assert groebner_smooth(form)


def test_sampler_rejects_a_draw_singular_beyond_gf64():
    f8 = make_extension(2, 3)
    rng = random.Random(105)
    draws = [random_cubic_form(f8, rng) for _ in range(3)]
    assert not is_smooth(draws[1])
    assert not groebner_smooth(draws[1])
    assert random_smooth_surface(f8, 105) == draws[2]


def test_surface_for_config_choices():
    fermat = surface_for_config(ExperimentConfig())
    assert fermat.coeffs == {m: 1 for m in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3))}
    example = surface_for_config(ExperimentConfig(surface="example64"))
    assert example == surface_with_27_lines_over_f64()
    sampled = surface_for_config(ExperimentConfig(surface="random", p=7, seed=4))
    assert sampled.field.q == 7
    assert len(lines_on_surface(sampled)) == 1


# -- suite runs ---------------------------------------------------------


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("topology")


def test_pic_suite_passes():
    report = run_suite("pic", ExperimentConfig(pic_limit=31))
    assert report.passed
    assert [r.name for r in report.results] == [
        "pic/quotient_mod2",
        "pic/quotient_mod3",
        "pic/two_division",
    ]
    by_name = {r.name: r for r in report.results}
    assert by_name["pic/quotient_mod3"].detail["dims"] == {"7": 2, "13": 2, "19": 2, "31": 2}
    assert by_name["pic/quotient_mod2"].detail["dims"] == {"31": 2}
    splits = by_name["pic/two_division"].detail["splits"]
    assert splits["31"] is True
    assert splits["7"] is False


def test_reduction_suite_passes_and_sees_both_branches():
    report = run_suite("reduction", ExperimentConfig(height=10, pair_cap=20))
    assert report.passed
    by_name = {r.name: r for r in report.results}
    branches = by_name["reduction/line_relations"].detail["branches"]
    assert branches["transverse"] > 0
    assert branches["contained"] > 0
    assert by_name["reduction/rank_bound"].detail["achieved_dim"] == 2
    assert by_name["reduction/curve_coverage"].detail["coverage"]["31"]["hit"] > 0


def test_machinery_value_error_in_line_relations_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("machinery fault")

    monkeypatch.setattr("cubicspan.harness.verify_line_relation", broken)
    config = ExperimentConfig(height=6, pair_cap=10, checks=("reduction/line_relations",))
    with pytest.raises(ValueError, match="machinery fault"):
        run_suite("reduction", config)


@pytest.mark.parametrize("family, m", [("Sprime", 217), ("S_M", 93)])
def test_rank_bound_off_convention_is_skipped(family, m):
    config = ExperimentConfig(family=family, m=m, height=6, pair_cap=10)
    report = run_suite("reduction", config)
    by_name = {r.name: r for r in report.results}
    rank = by_name["reduction/rank_bound"]
    assert rank.status == "skip"
    convention = "3*prod(p)" if family == "Sprime" else "prod(p)"
    assert f"M = {convention}" in rank.reason
    assert f"not M = {m}" in rank.reason


def test_machinery_error_in_rank_bound_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("machinery fault")

    monkeypatch.setattr("cubicspan.harness.rank_lower_bound", broken)
    config = ExperimentConfig(height=6, pair_cap=10, checks=("reduction/rank_bound",))
    with pytest.raises(ValueError, match="machinery fault"):
        run_suite("reduction", config)


def test_default_reduction_suite_report_is_pinned():
    report = run_suite("reduction")
    by_name = {r.name: r for r in report.results}
    assert by_name["reduction/line_relations"].detail == {
        "branches": {"contained": 8, "transverse": 211},
        "checked": 219,
        "points_used": 40,
        "skipped": 561,
    }
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == "dc3d9dabe391cc11455ca2b99a504dbfff4677919c18c858f1d3938f9282db7a"


def test_full_verify_report_is_pinned():
    # every suite on the default config, compared byte for byte
    digest = hashlib.sha256(run_suite("all").canonical_json().encode()).hexdigest()
    assert digest == "7e5db5563b2e61746596b3740400d8cb50cef4961deb2e9fc9fb29d1bc863b09"


def test_reduction_suite_wcubed_family():
    config = ExperimentConfig(family="Sprime_M", m=93, height=20, pair_cap=12)
    report = run_suite("reduction", config)
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert by_name["reduction/line_relations"].detail["branches"]["contained"] == 0
    assert by_name["reduction/rank_bound"].detail["primes"] == [31]


def test_span_suite_on_fermat():
    report = run_suite("span", ExperimentConfig())
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert by_name["span/skew_singleton"].detail["points_checked"] == 24
    assert by_name["span/skew_singleton"].detail["eckardt_skipped"] == 4
    assert by_name["span/span_lemmas"].status == "pass"


def test_span_suite_skips_without_lines():
    config = ExperimentConfig(surface="random", p=7, seed=0)
    report = run_suite("span", config)
    assert report.passed
    for result in report.results:
        assert result.status == "skip"
        assert result.reason


def test_hs_suite_on_fermat():
    report = run_suite("hs", ExperimentConfig())
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert by_name["hs/torsion_shape"].detail == {
        "h0_free_rank": 0,
        "invariant_factors": [],
        "skew_pair": True,
    }
    assert by_name["hs/generator_bound"].detail["r"] == 1
    assert by_name["hs/generator_bound"].detail["generates"] is True


def test_hs_suite_builds_one_presentation(monkeypatch):
    import cubicspan.hsgroup as hsgroup

    built = []
    init = hsgroup.ZPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hsgroup.ZPresentation, "__init__", counting)
    report = run_suite("hs", ExperimentConfig(p=5))
    assert report.passed
    assert len(built) == 1


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name under every name the package binds to it; each
    call appends one entry to the returned list."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("cubicspan"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.mark.parametrize("suite", ["span", "hs"])
def test_suite_scans_lines_once_and_takes_each_pencil_at_most_once(suite, monkeypatch):
    import cubicspan.surface as surface

    n = sum(1 for _ in surface.zero_points(surface_for_config(ExperimentConfig())))
    scans = _count_calls(monkeypatch, surface, "lines_on_surface")
    pencils = []
    take = SpanTable._pencil

    def counting(self, i):
        pencils.append(i)
        return take(self, i)

    monkeypatch.setattr(SpanTable, "_pencil", counting)
    assert run_suite(suite, ExperimentConfig()).passed
    assert len(scans) == 1  # so one table
    assert len(set(pencils)) == len(pencils) <= n
    if suite == "hs":
        assert len(pencils) < n


def test_geometry_suite_on_char2_example():
    report = run_suite("geometry", ExperimentConfig())
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert by_name["geometry/line_count"].detail == {"expected": 27, "found": 27}
    assert by_name["geometry/eckardt_census"].detail == {"expected": 13, "found": 13}
    assert by_name["geometry/eckardt_distribution"].detail["found"] == {"1": 24, "5": 3}
    assert by_name["geometry/incidence"].status == "pass"


def test_all_suite_merges_sorted():
    config = ExperimentConfig(pic_limit=7, checks=("pic/quotient_mod3",))
    names = [name for name, _ in suite_checks("all", config)]
    assert names == sorted(names)
    assert "geometry/line_count" in names
    assert "reduction/rank_bound" in names
    assert "span/span_lemmas" in names


def test_check_selection_skips_the_rest():
    config = ExperimentConfig(pic_limit=13, checks=("pic/two_division",))
    report = run_suite("pic", config)
    by_name = {r.name: r for r in report.results}
    assert by_name["pic/two_division"].status == "pass"
    assert by_name["pic/quotient_mod2"].status == "skip"
    assert by_name["pic/quotient_mod2"].reason == "deselected in config"
    assert by_name["pic/quotient_mod3"].status == "skip"


# -- reports ------------------------------------------------------------


def test_report_json_is_byte_stable():
    config = ExperimentConfig(pic_limit=13)
    first = run_suite("pic", config).canonical_json()
    second = run_suite("pic", config).canonical_json()
    assert first == second
    payload = json.loads(first)
    assert all(r["seconds"] == 0.0 for r in payload["results"])


def test_report_timing_is_recorded():
    report = run_suite("pic", ExperimentConfig(pic_limit=13))
    assert all(r.seconds >= 0.0 for r in report.results)
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert payload["counts"] == {"pass": 3, "fail": 0, "skip": 0}


def test_report_persists_to_disk(tmp_path):
    target = tmp_path / "pic_report.json"
    report = run_suite("pic", ExperimentConfig(pic_limit=13), out=target)
    assert target.exists()
    payload = json.loads(target.read_text())
    assert payload["suite"] == "pic"
    assert payload["config"]["pic_limit"] == 13
    assert payload["results"][0]["name"] == "pic/quotient_mod2"
    assert report.passed


def test_failing_check_reports_witness():
    report = VerificationReport(
        "demo",
        ExperimentConfig(),
        (CheckResult("demo/broken", "fail", 0.1, {"witness": [1, 2, 3]}),),
    )
    assert not report.passed
    assert report.counts["fail"] == 1
    payload = json.loads(report.to_json())
    assert payload["results"][0]["detail"]["witness"] == [1, 2, 3]
