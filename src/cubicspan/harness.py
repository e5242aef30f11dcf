"""Experiment orchestration: seeded sampling, suites, JSON reports.

Everything downstream of a fixed ExperimentConfig is deterministic.  The
only randomness source is ``random.Random`` (the Mersenne Twister), seeded
with the integer from the config and consumed exclusively through
``randrange``, so the same config reproduces the same surfaces and the
same report on any platform.  Reports serialize to pretty-printed JSON
with sorted keys; the canonical form zeroes the wall-clock fields so that
a byte-for-byte hash comparison sees only the mathematical content.

Suites bundle the verification checks by subject:

    geometry    the char-2 surface with 27 lines over GF(64)
    span        secant-tangent spans on the configured surface
    hs          the class group of sums on the configured surface
    pic         degree-0 class quotients of the plane cubic fibers
    reduction   specialization of line cycles on the integer families
    all         every suite above, merged

Checks run sequentially and the merged report is sorted by check name,
so concurrency never enters the output.  A failing check always embeds
the witness needed to replay the failure by hand; a skipped check always
says why it was skipped.  Errors in the machinery itself propagate.
"""

from __future__ import annotations

import json
import logging
import random
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Union

from .errors import (
    BudgetExceeded,
    ConfigurationAbsent,
    EqualPoints,
    HypothesisFailed,
    IdenticallyZero,
    LineOnSurface,
    NotFullyRational,
    NoTernaryPoint,
)
from .field import ExtField, factorize, is_prime, make_extension
from .hsgroup import ZPresentation, ternary_bound_check
from .planecubic import is_cube, pic_mod, two_division_check
from .projgeo import planes_through_line, skew
from .reduction import (
    family_tag,
    good_parametrization,
    point_search,
    rank_lower_bound,
    reduction_coverage,
    verify_line_relation,
)
from .span import SpanTable, verify_skew_singleton_span, verify_span_lemmas
from .surface import (
    MONOMIALS,
    CubicForm,
    eckardt_points,
    fermat_cubic,
    is_smooth,
    lines_on_surface,
    surface_with_27_lines_over_f64,
)

log = logging.getLogger(__name__)

SUITE_NAMES = ("geometry", "span", "hs", "pic", "reduction", "all")

#: surfaces the span and hs suites know how to build from a config
SURFACE_CHOICES = ("fermat", "example64", "random")


@dataclass(frozen=True)
class ExperimentConfig:
    """Seed, field, family, and budgets for one reproducible experiment.

    checks, when non-empty, restricts a suite to the named checks; the
    deselected ones still appear in the report as skips so that the
    report shape is a function of the suite alone.
    """

    seed: int = 1
    p: int = 13
    k: int = 1
    surface: str = "fermat"
    family: str = "S_M"
    m: int = 31
    height: int = 10
    pair_cap: int = 40
    pic_limit: int = 31
    attempts: int = 200
    checks: tuple[str, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError("extension degree must be positive")
        if self.surface not in SURFACE_CHOICES:
            raise ValueError(f"unknown surface choice {self.surface!r}")
        object.__setattr__(self, "family", family_tag(self.family))
        if self.m < 1:
            raise ValueError("M must be positive")
        if self.height < 1 or self.pair_cap < 1 or self.pic_limit < 2:
            raise ValueError("budgets must be positive")
        if self.attempts < 1:
            raise ValueError("attempts must be positive")
        object.__setattr__(self, "checks", tuple(self.checks))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["checks"] = list(self.checks)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        payload = dict(data)
        if "checks" in payload:
            payload["checks"] = tuple(payload["checks"])
        return cls(**payload)


@dataclass(frozen=True)
class CheckResult:
    """One named check: status, wall-clock seconds, and its payload.

    A fail must carry enough detail to replay the counterexample; a skip
    must say why it did not run.  Pass payloads hold the measured values
    the check compared.
    """

    name: str
    status: str
    seconds: float
    detail: dict = field(default_factory=dict)
    reason: Optional[str] = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "fail" and not self.detail:
            raise ValueError(f"fail without witness payload in {self.name!r}")
        if self.status == "skip" and not self.reason:
            raise ValueError(f"skip without reason in {self.name!r}")

    def to_dict(self, canonical: bool = False) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "seconds": 0.0 if canonical else round(self.seconds, 6),
            "detail": self.detail,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class VerificationReport:
    """All check results of one suite run, sorted by check name."""

    suite: str
    config: ExperimentConfig
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_dict(self, canonical: bool = False) -> dict:
        return {
            "suite": self.suite,
            "config": self.config.to_dict(),
            "passed": self.passed,
            "counts": self.counts,
            "results": [r.to_dict(canonical) for r in self.results],
        }

    def to_json(self, canonical: bool = False) -> str:
        return json.dumps(self.to_dict(canonical), indent=2, sort_keys=True)

    def canonical_json(self) -> str:
        """The byte-stable serialization: timing zeroed, keys sorted."""
        return self.to_json(canonical=True)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path


# -- seeded surface sampling --------------------------------------------


def random_cubic_form(field_: ExtField, rng: random.Random) -> CubicForm:
    """One uniformly drawn nonzero cubic form, 20 coefficients in code order."""
    while True:
        coeffs = {mono: rng.randrange(field_.q) for mono in MONOMIALS}
        try:
            return CubicForm(field_, coeffs)
        except IdenticallyZero:
            continue


def random_smooth_surface(field_: ExtField, seed: int, attempts: int = 200) -> CubicForm:
    """Rejection-sample coefficient vectors until the surface is smooth.

    Each draw is decided by the rank certificate of surface.is_smooth
    alone, so a rejected draw costs one Macaulay-matrix rank and no point
    scan.  Deterministic under the seed: the sampler is random.Random(seed)
    and every draw is a randrange call, one per monomial in the fixed
    descending order.  The acceptance rate goes to the debug log.  Over a
    field above the flat-table limit the certificate raises BudgetExceeded.
    """
    rng = random.Random(seed)
    for trial in range(1, attempts + 1):
        form = random_cubic_form(field_, rng)
        if is_smooth(form):
            log.debug(
                "smooth surface over GF(%d) on trial %d of %d (seed %d)",
                field_.q, trial, attempts, seed,
            )
            return form
    raise BudgetExceeded(
        f"no smooth surface over GF({field_.q}) in {attempts} attempts (seed {seed})"
    )


def surface_for_config(config: ExperimentConfig) -> CubicForm:
    """The surface a config's span and hs suites operate on."""
    if config.surface == "example64":
        return surface_with_27_lines_over_f64()
    field_ = make_extension(config.p, config.k)
    if config.surface == "fermat":
        return fermat_cubic(field_)
    return random_smooth_surface(field_, config.seed, attempts=config.attempts)


# -- the geometry suite: the fixed char-2 example -----------------------


def _plane_of(line, other):
    """The covector of the plane spanned by two meeting lines."""
    for pl in planes_through_line(line):
        if pl.contains(other.rows[0]) and pl.contains(other.rows[1]):
            return pl.covector
    raise ValueError("lines do not span a plane")


def _geometry_checks(config: ExperimentConfig) -> list[tuple[str, Callable]]:
    state: dict = {}

    def lines():
        if "lines" not in state:
            form = surface_with_27_lines_over_f64()
            split = lines_on_surface(form, extension=6)
            state["lines"] = split
            state["lifted"] = form.embed(split[0].field) if split else form
        return state["lines"]

    def eckardt():
        if "eckardt" not in state:
            lines()
            state["eckardt"] = eckardt_points(state["lifted"])
        return state["eckardt"]

    def check_line_count():
        found = lines()
        detail = {"expected": 27, "found": len(found)}
        return ("pass" if len(found) == 27 else "fail"), detail, None

    def check_incidence():
        found = lines()
        bad = []
        for i, line in enumerate(found):
            met = [other for j, other in enumerate(found) if j != i and not skew(line, other)]
            by_plane: dict = {}
            for other in met:
                by_plane.setdefault(_plane_of(line, other), []).append(other)
            pairing = sorted(len(v) for v in by_plane.values())
            if len(met) != 10 or pairing != [2, 2, 2, 2, 2]:
                bad.append(
                    {
                        "line": [list(r) for r in line.rows],
                        "meets": len(met),
                        "coplanar_groups": pairing,
                    }
                )
        detail = {"lines": len(found), "expected_meets": 10, "expected_pairs": 5}
        if bad:
            detail["violations"] = bad
            return "fail", detail, None
        return "pass", detail, None

    def check_eckardt_census():
        eck = eckardt()
        detail = {"expected": 13, "found": len(eck)}
        if len(eck) != 13:
            detail["points"] = [list(p.coords) for p in eck]
            return "fail", detail, None
        return "pass", detail, None

    def check_eckardt_distribution():
        eck = set(eckardt())
        histogram: dict = {}
        for line in lines():
            n = sum(1 for p in line.points() if p in eck)
            histogram[n] = histogram.get(n, 0) + 1
        detail = {
            "expected": {"1": 24, "5": 3},
            "found": {str(k): v for k, v in sorted(histogram.items())},
        }
        ok = histogram == {1: 24, 5: 3}
        return ("pass" if ok else "fail"), detail, None

    return [
        ("eckardt_census", check_eckardt_census),
        ("eckardt_distribution", check_eckardt_distribution),
        ("incidence", check_incidence),
        ("line_count", check_line_count),
    ]


# -- the span suite -----------------------------------------------------


def _span_checks(config: ExperimentConfig) -> list[tuple[str, Callable]]:
    state: dict = {}

    def table():
        if "table" not in state:
            state["table"] = SpanTable(surface_for_config(config))
        return state["table"]

    def check_skew_singleton():
        tab = table()
        try:
            report = verify_skew_singleton_span(tab.form, table=tab)
        except ConfigurationAbsent as absent:
            return "skip", {}, str(absent)
        detail = {
            "points_checked": report.points_checked,
            "eckardt_skipped": report.eckardt_skipped,
        }
        if not report.all_span:
            detail["failures"] = [list(p.coords) for p in report.failures]
            return "fail", detail, None
        return "pass", detail, None

    def check_span_lemmas():
        tab = table()
        try:
            report = verify_span_lemmas(tab.form, table=tab)
        except (ConfigurationAbsent, HypothesisFailed) as absent:
            return "skip", {}, str(absent)
        detail = {
            "line_in_point_span_checked": report.line_in_point_span_checked,
            "skew_line_span_checked": report.skew_line_span_checked,
            "skew_union_checked": report.skew_union_checked,
        }
        if not report.all_passed:
            detail["counterexample"] = report.counterexample
            return "fail", detail, None
        return "pass", detail, None

    return [
        ("skew_singleton", check_skew_singleton),
        ("span_lemmas", check_span_lemmas),
    ]


# -- the hs suite -------------------------------------------------------


def _hs_checks(config: ExperimentConfig) -> list[tuple[str, Callable]]:
    state: dict = {}

    def presentation():
        if "presentation" not in state:
            state["presentation"] = ZPresentation(surface_for_config(config))
        return state["presentation"]

    def check_torsion():
        pres = presentation()
        st = pres.structure
        if not pres.table.lines:
            return "skip", {}, "the surface has no rational line"
        detail = {
            "h0_free_rank": st.h0_free_rank,
            "invariant_factors": list(st.invariant_factors),
        }
        if not st.h0_order_divides_two:
            return "fail", detail, None
        has_skew = next(pres.table.skew_pairs(), None) is not None
        detail["skew_pair"] = has_skew
        if has_skew and not st.h0_trivial:
            return "fail", detail, None
        return "pass", detail, None

    def check_bound():
        pres = presentation()
        try:
            report = ternary_bound_check(pres.form, presentation=pres)
        except NoTernaryPoint as missing:
            return "skip", {}, str(missing)
        detail = {
            "h0_dim_mod2": report.h0_dim_mod2,
            "h0_dim_mod3": report.h0_dim_mod3,
            "r": report.r,
            "generates": report.generates_h0,
        }
        if report.bound_consistent is False or not report.generates_h0:
            detail["base_point"] = list(report.ternary_point.coords)
            return "fail", detail, None
        return "pass", detail, None

    return [
        ("generator_bound", check_bound),
        ("torsion_shape", check_torsion),
    ]


# -- the pic suite ------------------------------------------------------


def _pic_primes(limit: int) -> list[int]:
    return [p for p in range(5, limit + 1) if is_prime(p) and p != 3]


def _pic_checks(config: ExperimentConfig) -> list[tuple[str, Callable]]:
    limit = config.pic_limit

    def check_quotient(n: int, wanted: Callable[[int], bool]):
        """Pic0/n has dimension 2 and n^2 classes at each wanted p = 1 mod 3."""
        dims = {}
        bad = []
        for p in _pic_primes(limit):
            if p % 3 != 1 or not wanted(p):
                continue
            quo = pic_mod(p, n)
            dims[str(p)] = quo.dim
            if quo.dim != 2 or len(quo.reps) != n * n:
                bad.append({"p": p, "dim": quo.dim, "classes": len(quo.reps)})
        detail = {"expected_dim": 2, "dims": dims}
        if bad:
            detail["violations"] = bad
            return "fail", detail, None
        return "pass", detail, None

    def check_two_division():
        table = {}
        bad = []
        for p in _pic_primes(limit):
            if p == 2:
                continue
            splits = two_division_check(p)
            both = p % 3 == 1 and is_cube(p, 2)
            table[str(p)] = splits
            if splits != both:
                bad.append({"p": p, "splits": splits, "conditions": both})
        detail = {"splits": table}
        if bad:
            detail["violations"] = bad
            return "fail", detail, None
        return "pass", detail, None

    return [
        ("quotient_mod2", lambda: check_quotient(2, lambda p: is_cube(p, 2))),
        ("quotient_mod3", lambda: check_quotient(3, lambda p: True)),
        ("two_division", check_two_division),
    ]


# -- the reduction suite ------------------------------------------------


def _reduction_primes(m: int) -> list[int]:
    """The prime divisors of M other than 3, ascending."""
    return [p for p, _ in factorize(m) if p != 3]


def _reduction_checks(config: ExperimentConfig) -> list[tuple[str, Callable]]:
    family = config.family
    m = config.m
    state: dict = {}

    def points():
        if "points" not in state:
            state["points"] = point_search(family, m, config.height)
        return state["points"]

    def check_relations():
        pts = points()[: config.pair_cap]
        primes = _reduction_primes(m)
        checked = 0
        skipped = 0
        branches = {"transverse": 0, "contained": 0}
        failures = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                try:
                    param = good_parametrization(pts[i].coords, pts[j].coords)
                except EqualPoints:
                    skipped += 1
                    continue
                for p in primes:
                    try:
                        report = verify_line_relation(param, family, m, p)
                    except (NotFullyRational, LineOnSurface):
                        skipped += 1
                        continue
                    checked += 1
                    branches[report.branch] += 1
                    if not report.relation_holds:
                        failures.append(
                            {
                                "u": list(param.u),
                                "v": list(param.v),
                                "p": p,
                                "cycle": [list(pt.coords) for pt in report.points],
                            }
                        )
        detail = {
            "checked": checked,
            "skipped": skipped,
            "branches": branches,
            "points_used": len(pts),
        }
        if failures:
            detail["failures"] = failures
            return "fail", detail, None
        if checked == 0:
            return "skip", {}, "no fully rational line cycle at this height"
        return "pass", detail, None

    def check_rank_bound():
        primes = _reduction_primes(m)
        pts = points()
        try:
            report = rank_lower_bound(family, primes, pts, m=m)
        except HypothesisFailed as off_convention:
            return "skip", {}, str(off_convention)
        detail = {
            "achieved_dim": report.achieved_dim,
            "target_dim": report.target_dim,
            "points_used": report.points_used,
            "primes": list(report.primes),
        }
        if report.achieved_dim < 1:
            detail["height"] = config.height
            return "fail", detail, None
        return "pass", detail, None

    def check_coverage():
        primes = _reduction_primes(m)
        per_prime = {}
        empty = []
        for p in primes:
            cov = reduction_coverage(points(), p)
            per_prime[str(p)] = {"hit": cov.hit, "classes": cov.total}
            if cov.hit == 0:
                empty.append(p)
        detail = {"coverage": per_prime}
        if empty:
            detail["empty_primes"] = empty
            return "fail", detail, None
        return "pass", detail, None

    return [
        ("curve_coverage", check_coverage),
        ("line_relations", check_relations),
        ("rank_bound", check_rank_bound),
    ]


# -- the runner ---------------------------------------------------------


_SUITES = {
    "geometry": _geometry_checks,
    "span": _span_checks,
    "hs": _hs_checks,
    "pic": _pic_checks,
    "reduction": _reduction_checks,
}


def suite_checks(name: str, config: ExperimentConfig) -> list[tuple[str, Callable]]:
    """The (check name, thunk) list of a suite, names prefixed and sorted."""
    if name == "all":
        merged = []
        for suite in ("geometry", "hs", "pic", "reduction", "span"):
            merged.extend(suite_checks(suite, config))
        return sorted(merged, key=lambda pair: pair[0])
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    pairs = [(f"{name}/{check}", thunk) for check, thunk in _SUITES[name](config)]
    return sorted(pairs, key=lambda pair: pair[0])


def run_suite(
    name: str,
    config: Optional[ExperimentConfig] = None,
    out: Optional[Union[str, Path]] = None,
) -> VerificationReport:
    """Run one suite of checks and return (and optionally save) the report.

    Checks deselected by config.checks are reported as skips, keeping the
    report shape a function of the suite alone.  Exceptions raised by the
    machinery propagate; only domain preconditions produce skips.
    """
    if config is None:
        config = ExperimentConfig()
    results = []
    for check_name, thunk in suite_checks(name, config):
        if config.checks and check_name not in config.checks:
            results.append(
                CheckResult(check_name, "skip", 0.0, reason="deselected in config")
            )
            continue
        start = time.perf_counter()
        status, detail, reason = thunk()
        elapsed = time.perf_counter() - start
        results.append(CheckResult(check_name, status, elapsed, detail, reason))
        log.info("%s: %s (%.3fs)", check_name, status, elapsed)
    report = VerificationReport(name, config, tuple(results))
    if out is not None:
        report.save(out)
    return report
