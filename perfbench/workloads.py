"""The four benchmark workloads, built from the package's acceptance claims.

Each workload is a function ``setup(seed)`` that does everything a user
pays for once (imports are already done, inputs are generated, lazy
caches are filled) and returns the order in which a timed pass runs its
items.  An item is a key, one or more parts (thunks that do the timed
work; an item of several parts appears once per part in the order, and
its latency is the sum of its parts), and a ``summarize`` function that
turns the output (a list of outputs, for several parts) into

* ``invariant``: output that does not depend on the workload seed (counts,
  group invariants, report flags), compared with the recorded digest on
  every seed;
* ``exact``: the seed-specific output (coefficients, table entries, point
  coordinates), compared with the recorded digest only for recorded seeds;
* ``problems``: a list of failed exact checks the benchmark recomputes
  itself from the output (a sampled ``pair_third`` entry is a surface
  point on its secant, a closure is idempotent, ...), run on every seed.

How the seed varies the inputs, per workload:

* ``surfaces``: it picks the sampler seeds of ``random_smooth_surface``.
  The cost of one draw hardly depends on the draw (the smoothness scan
  visits every point of the extension either way), so seeds stay
  comparable.  The GF(64) example surface is the same on every seed.
* ``span-build`` and ``span-replay``: the surfaces are the acceptance
  stock, and the seed applies a monomial change
  of coordinates (a permutation of x0..x3 and a scaling of each by a unit).
  The result is an isomorphic surface with new coefficients, new points in
  a new order and a new table, but with exactly as many points, lines,
  contained secants and tangent entries.  Drawing new surfaces instead
  would change the point count, and with it the table cost, by up to 2x.
  Monomial changes keep sparse forms sparse, so the Fermat surfaces cost
  the same on every seed.
* ``reduce``: the integer inputs are fixed; the seed picks the sampled
  triples of the curve group-law check.

Seed 0 applies no change of coordinates and uses sampler seeds 0.., so it
reproduces the acceptance stock.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

from cubicspan.field import is_prime, make_extension
from cubicspan.harness import random_smooth_surface
from cubicspan.hsgroup import hs_structure, ternary_bound_check
from cubicspan.planecubic import (
    base_point,
    curve_points,
    group_add,
    group_neg,
    group_structure,
    is_cube,
    pic_mod,
    two_division_check,
)
from cubicspan.projgeo import line_through, planes_through_line, skew
from cubicspan.reduction import (
    form_value,
    good_parametrization,
    point_search,
    rank_lower_bound,
    reduction_coverage,
    verify_line_relation,
)
from cubicspan.span import (
    SpanTable,
    span_closure,
    verify_skew_singleton_span,
    verify_span_lemmas,
)
from cubicspan.surface import (
    CubicForm,
    eckardt_points,
    fermat_cubic,
    lines_on_surface,
    surface_with_27_lines_over_f64,
)

DEFAULT_SEED = 0

#: (p, k) -> number of sampler draws per pass in the surfaces workload;
#: GF(9) gets one draw because its smoothness scan over GF(81) costs as
#: much as the other draws together
SURFACE_DRAWS = {(2, 2): 3, (5, 1): 3, (7, 1): 3, (2, 3): 3, (3, 2): 1}

#: is_smooth's default point budget: it scans GF(q^j) while q^(3j) fits
SMOOTH_SCAN_POINTS = 600_000

#: one criterion-3 skew-stock surface per field, then the criterion-4
#: one-line stock over GF(7) and GF(13): ((p, k), sampler seed)
TABLE_STOCK = (
    ((13, 1), 6),
    ((2, 4), 2),
    ((17, 1), 5),
    ((19, 1), 6),
    ((5, 2), 3),
    ((7, 1), 4),
    ((13, 1), 0),
)

#: the one-line surface whose H0 must be 2-torsion (criterion 4)
ONE_LINE = ((7, 1), 4)

#: the possible numbers of rational lines on a smooth cubic surface
LINE_COUNTS = {0, 1, 2, 3, 5, 7, 9, 15, 27}

#: sampled table entries checked per table and pass
TABLE_SAMPLES = 48

#: random subsets per criterion-9 closure check, as in the acceptance gate
CLOSURE_SUBSETS = 10

#: primes of the criterion-9 group-law check, one item per prime, and the
#: triples sampled per prime.  A reduce pass is too long to repeat within a
#: run, so its median item must come from a group of similar items: the ten
#: group-law items (about 0.2 s each) are the shortest items of a pass.
#: Each runs in one part before every other sub-task and one at the end, so
#: its latency adds up moments from the whole pass; a single 0.2 s sample
#: would catch the machine either fast or slow
GROUP_LAW_PRIMES = tuple(p for p in range(2, 32) if is_prime(p) and p != 3)
GROUP_LAW_TRIPLES = 800

#: points of the height-200 S_M search whose secants the criterion-7 sweep
#: uses; the acceptance gate's prefix reaches both reduction branches
S31_POINT_PREFIX = 60


class Item:
    """One timed unit of a pass: its ``parts`` are timed, ``summarize`` is not."""

    __slots__ = ("key", "parts", "summarize")

    def __init__(self, key, parts, summarize):
        self.key = key
        self.parts = tuple(parts)
        self.summarize = summarize


def digest(data) -> str:
    """sha256 of the canonical JSON of a summary."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(text.encode()).hexdigest()


def _hash_coords(points) -> str:
    """sha256 of ``repr([pt.coords for pt in points])``, hashed point by point
    so that the check never holds the whole text in memory."""
    h = hashlib.sha256(b"[")
    for i, pt in enumerate(points):
        if i:
            h.update(b", ")
        h.update(repr(pt.coords).encode())
    h.update(b"]")
    return h.hexdigest()


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


def change_coordinates(form: CubicForm, seed: int, label: str) -> CubicForm:
    """The form pulled back along a seeded monomial change of coordinates.

    x_perm[j] = scale_j * y_j, with the permutation and the unit scales
    drawn from the seed; the default seed keeps the form as it is.
    """
    if seed == DEFAULT_SEED:
        return form
    rng = _rng(seed, label)
    q = form.field.q
    perm = rng.sample(range(4), 4)
    vectors = []
    for j in range(4):
        vec = [0, 0, 0, 0]
        vec[perm[j]] = rng.randrange(1, q) if q > 2 else 1
        vectors.append(tuple(vec))
    return CubicForm(form.field, form.restrict_to_plane(vectors))


def _on_surface(form: CubicForm, coords) -> bool:
    return form.evaluate(coords) == 0


def _line_contained(form: CubicForm, line) -> bool:
    # a cubic vanishing at four points of a line contains it
    return all(_on_surface(form, pt.coords) for pt in line.points()[:4])


def _field_label(p: int, k: int) -> str:
    return f"GF({p ** k})"


# -- surfaces -------------------------------------------------------------


def _common_plane(line, other):
    for plane in planes_through_line(line):
        if plane.contains(other.rows[0]) and plane.contains(other.rows[1]):
            return plane.covector
    return None


def _surfaces(seed: int) -> list[Item]:
    items = []
    for (p, k), draws in SURFACE_DRAWS.items():
        field = make_extension(p, k)
        _warm_extensions(field)
        for j in range(draws):
            sampler_seed = seed * draws + j
            items.append(_draw_item(field, sampler_seed))

    # a change of coordinates would move the cost of the GF(64) census by
    # a third (classify_point depends on where the pivots fall), so the
    # example surface is the same on every seed
    example = surface_with_27_lines_over_f64()
    # the census check needs the split lines; computing them here keeps the
    # two items independent of each other
    reference_lines = lines_on_surface(example, extension=6)
    lifted = example.embed(reference_lines[0].field)

    def split():
        return lines_on_surface(example, extension=6)

    def summarize_split(lines):
        problems = []
        meets = []
        pairing = []
        for i, line in enumerate(lines):
            if not _line_contained(lifted, line):
                problems.append(f"split line {i} is not on the surface")
            met = [o for j, o in enumerate(lines) if j != i and not skew(line, o)]
            meets.append(len(met))
            by_plane = Counter(_common_plane(line, o) for o in met)
            pairing.append(sorted(by_plane.values()))
        if len(lines) != 27:
            problems.append(f"{len(lines)} lines over GF(64), expected 27")
        if any(m != 10 for m in meets) or any(pr != [2] * 5 for pr in pairing):
            problems.append("a split line does not meet ten others in five coplanar pairs")
        invariant = {"lines": len(lines), "meets": sorted(meets), "pairing": sorted(pairing)}
        exact = [line.rows for line in lines]
        return invariant, exact, problems

    def census():
        return eckardt_points(lifted)

    def summarize_census(points):
        problems = []
        per_line = Counter(
            sum(1 for pt in points if line.contains(pt)) for line in reference_lines
        )
        for pt in points:
            if not _on_surface(lifted, pt.coords):
                problems.append(f"Eckardt point {pt.coords} is not on the surface")
        if len(points) != 13 or per_line != Counter({1: 24, 5: 3}):
            problems.append(f"Eckardt census {len(points)}, per line {dict(per_line)}")
        invariant = {"eckardt": len(points), "per_line": sorted(per_line.items())}
        return invariant, [pt.coords for pt in points], problems

    items.append(Item("split/GF(64)", [split], summarize_split))
    items.append(Item("eckardt/GF(64)", [census], summarize_census))
    return items


def _warm_extensions(field) -> None:
    """Fill the caches the smoothness scan fills on first use: the fields
    GF(q^j) it scans, their log tables, and the embeddings into them."""
    form = fermat_cubic(field)
    for j in (1, 2, 3):
        ext = make_extension(field.p, field.k * j)
        if ext.q ** 3 > SMOOTH_SCAN_POINTS:
            break
        ext.mul(1, 1)
        form.embed(ext)


def _draw_item(field, sampler_seed: int) -> Item:
    def run():
        form = random_smooth_surface(field, sampler_seed)
        return form, lines_on_surface(form), eckardt_points(form)

    def summarize(out):
        form, lines, eck = out
        problems = []
        if len(lines) not in LINE_COUNTS:
            problems.append(f"{len(lines)} rational lines is not a possible count")
        for line in lines:
            if not _line_contained(form, line):
                problems.append(f"line {line.rows} is not on the surface")
        for pt in eck:
            if not _on_surface(form, pt.coords) or not any(form.gradient(pt.coords)):
                problems.append(f"Eckardt point {pt.coords} is not a smooth surface point")
        # the sampler seed fixes the draw, so the whole output is compared
        # under the seed-specific key
        invariant = {
            "coeffs": form.to_dict()["coeffs"],
            "lines": len(lines),
            "eckardt": len(eck),
        }
        return invariant, None, problems

    return Item(f"draw/{field!r}/s{sampler_seed}", [run], summarize)


# -- span-build and span-replay -----------------------------------------


def _stock_form(p: int, k: int, sampler_seed, seed: int) -> CubicForm:
    field = make_extension(p, k)
    form = (
        fermat_cubic(field)
        if sampler_seed == "fermat"
        else random_smooth_surface(field, sampler_seed)
    )
    return change_coordinates(form, seed, f"{p}^{k}/{sampler_seed}")


def _table_summary(form: CubicForm, table: SpanTable, rng: random.Random):
    """Invariant counts, exact entries and sampled checks of one table."""
    f = form.field
    n = len(table.points)
    pair = table.pair_third
    contained = (pair.count(-1) - n) // 2
    tangent_lengths = Counter(len(t) for t in table.tangent_thirds)
    invariant = {
        "points": n,
        "contained_secants": contained,
        "tangent_entries": sum(len(t) for t in table.tangent_thirds),
        "tangent_lengths": sorted(tangent_lengths.items()),
    }
    exact = {
        "points": _hash_coords(table.points),
        "pair_third": hashlib.sha256(pair.tobytes()).hexdigest(),
        "tangent_thirds": hashlib.sha256(repr(table.tangent_thirds).encode()).hexdigest(),
    }
    problems = []
    pts = table.points
    for _ in range(TABLE_SAMPLES if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = pair[i * n + j]
        line = line_through(pts[i], pts[j])
        if k < 0:
            if not _line_contained(form, line):
                problems.append(f"pair ({i}, {j}) marked contained, line is not")
        elif not (_on_surface(form, pts[k].coords) and line.contains(pts[k])):
            problems.append(f"pair_third[{i}, {j}] = {k} is not on the secant")
    for _ in range(TABLE_SAMPLES if n else 0):
        i = rng.randrange(n)
        grad = form.gradient(pts[i].coords)
        for k in table.tangent_thirds[i][:3]:
            pairing = 0
            for a, b in zip(grad, pts[k].coords):
                pairing = f.add(pairing, f.mul(a, b))
            if pairing != 0:
                problems.append(f"tangent third {k} of {i} is off the tangent plane")
    return invariant, exact, problems


def _span_build(seed: int) -> list[Item]:
    items = []
    for (p, k), sampler_seed in TABLE_STOCK:
        form = _stock_form(p, k, sampler_seed, seed)
        key = f"table/{_field_label(p, k)}/s{sampler_seed}"

        def summarize(table, form=form, key=key):
            return _table_summary(form, table, _rng(seed, key))

        items.append(Item(key, [lambda form=form: SpanTable(form)], summarize))
    return items


def _span_replay(seed: int) -> list[Item]:
    surfaces = {}
    for label, (p, k), sampler_seed in (
        ("fermat13", (13, 1), "fermat"),
        ("fermat19", (19, 1), "fermat"),
        ("oneline7", ONE_LINE[0], ONE_LINE[1]),
    ):
        form = _stock_form(p, k, sampler_seed, seed)
        table = SpanTable(form)
        surfaces[label] = (form, table, lines_on_surface(form))

    # one item per surface: the replay of everything the claims check on it
    subsets = _closure_subsets(len(surfaces["fermat13"][1].points), _rng(seed, "closure"))
    items = []
    for label, skew_pair in (("fermat13", True), ("fermat19", True), ("oneline7", False)):
        form, table, lines = surfaces[label]
        steps = []
        if skew_pair:
            steps.append((
                "skew_singleton",
                lambda form=form, table=table: verify_skew_singleton_span(form, table=table),
                _summarize_skew,
            ))
            steps.append((
                "span_lemmas",
                lambda form=form, table=table: verify_span_lemmas(form, table=table),
                _summarize_lemmas,
            ))
        steps.append((
            "hs",
            lambda form=form, table=table, lines=lines: (
                hs_structure(form, table=table, lines=lines),
                ternary_bound_check(form, table=table),
            ),
            lambda out, lines=lines, trivial=skew_pair: _summarize_hs(out, lines, trivial),
        ))
        if label == "fermat13":
            steps.append((
                "closure",
                lambda form=form, table=table: _closure_checks(form, table, subsets),
                _summarize_closures,
            ))
        items.append(_replay_item(f"replay/{label}", steps))
    return items


def _replay_item(key: str, steps) -> Item:
    """Several (name, call, summarize) steps on one surface, timed as one item."""

    def run():
        return [call() for _, call, _ in steps]

    def summarize(outputs):
        invariant, exact, problems = {}, {}, []
        for (name, _, summarize_step), out in zip(steps, outputs):
            invariant[name], exact[name], found = summarize_step(out)
            problems.extend(f"{name}: {msg}" for msg in found)
        return invariant, exact, problems

    return Item(key, [run], summarize)


def _summarize_skew(report):
    problems = [] if report.all_span and not report.failures else ["a singleton does not span"]
    if report.points_checked == 0:
        problems.append("no point was checked")
    invariant = {"all_span": report.all_span, "failures": len(report.failures)}
    exact = {
        "points_checked": report.points_checked,
        "eckardt_skipped": report.eckardt_skipped,
        "pair": [line.rows for line in report.pair],
    }
    return invariant, exact, problems


def _summarize_lemmas(report):
    invariant = {
        "line_in_point_span": report.line_in_point_span,
        "line_in_point_span_checked": report.line_in_point_span_checked,
        "skew_line_span": report.skew_line_span,
        "skew_line_span_checked": report.skew_line_span_checked,
        "skew_union_spans_surface": report.skew_union_spans_surface,
        "skew_union_checked": report.skew_union_checked,
    }
    problems = [] if report.all_passed else [f"span lemma failed: {report.counterexample}"]
    return invariant, None, problems


def _summarize_hs(out, lines, skew_expected):
    structure, bound = out
    problems = []
    if skew_expected and not structure.h0_trivial:
        problems.append("H0 is not trivial next to a skew pair")
    if not structure.h0_order_divides_two:
        problems.append("H0 has an element of order other than 1 or 2")
    if bound.r is None or bound.r < max(structure.h0_dim_mod2, structure.h0_dim_mod3):
        problems.append(f"generator count {bound.r} below the H0 dimensions")
    if not bound.generates_h0:
        problems.append("the difference classes do not generate H0")
    invariant = {
        "points": structure.points,
        "classes": structure.classes,
        "relations": structure.relations,
        "h0_free_rank": structure.h0_free_rank,
        "invariant_factors": list(structure.invariant_factors),
        "h0_dim_mod2": structure.h0_dim_mod2,
        "h0_dim_mod3": structure.h0_dim_mod3,
        "two_torsion_dim": structure.two_torsion_dim,
        "r": bound.r,
        "bound_consistent": bound.bound_consistent,
        "generating_set_size": bound.generating_set_size,
        "generates_h0": bound.generates_h0,
        "lines": len(lines),
    }
    return invariant, {"ternary_point": bound.ternary_point.coords}, problems


def _closure_subsets(n: int, rng: random.Random):
    out = []
    for _ in range(CLOSURE_SUBSETS):
        big = rng.sample(range(n), rng.randrange(1, 5))
        small = rng.sample(big, rng.randrange(1, len(big) + 1))
        out.append((small, big))
    return out


def _closure_checks(form, table, subsets):
    pts = table.points
    out = []
    for small, big in subsets:
        closure_small = span_closure(form, [pts[i] for i in small], table=table)
        closure_big = span_closure(form, [pts[i] for i in big], table=table)
        again = span_closure(form, list(closure_small.points), table=table)
        out.append((closure_small, closure_big, again))
    return out


def _summarize_closures(results):
    problems = []
    for small, big, again in results:
        if not small.points <= big.points:
            problems.append("closure is not monotone")
        if again.points != small.points or again.rounds != 0:
            problems.append("closure is not idempotent")
    invariant = {"checks": len(results)}
    exact = [(len(s.points), len(b.points), s.rounds, s.lines_examined) for s, b, _ in results]
    return invariant, exact, problems


# -- reduce -----------------------------------------------------------------


def _reduce(seed: int) -> list[Item]:
    for p in range(5, 201):
        if is_prime(p):
            curve_points(p)
    for p in GROUP_LAW_PRIMES:
        group_structure(p)
    # fills the cached Pic0(C_31)/2 and its coordinate table
    rank_lower_bound("S_M", [31], [])
    rng = _rng(seed, "group-law")
    triples = {
        p: [tuple(rng.choice(curve_points(p)) for _ in range(3))
            for _ in range(GROUP_LAW_TRIPLES)]
        for p in GROUP_LAW_PRIMES
    }
    shared: dict = {}

    def search():
        # drop the previous pass's points first, so that the peak resident
        # set holds one search and does not grow with the number of passes
        shared.clear()
        shared["points"] = point_search("S_M", 31, 500)
        return shared["points"]

    def summarize_search(points):
        problems = []
        sample = _rng(seed, "search").sample(points, min(200, len(points)))
        for pt in sample:
            if form_value("S_M", 31, pt.coords) != 0:
                problems.append(f"{pt.coords} is not on S_31")
        on_line = sum(1 for pt in points if pt.coords[0] + pt.coords[1] == 0 and pt.coords[2] == 0)
        invariant = {"points": len(points), "on_contained_line": on_line}
        return invariant, _hash_coords(points), problems

    def coverage():
        return reduction_coverage(shared["points"], 31)

    def summarize_coverage(cov):
        problems = [] if 0 < cov.hit <= cov.total else [f"coverage {cov.hit}/{cov.total}"]
        if cov.total - cov.hit != len(cov.missed):
            problems.append("missed points do not match the coverage count")
        return {"hit": cov.hit, "total": cov.total}, None, problems

    def rank():
        return rank_lower_bound("S_M", [31], shared["points"])

    def summarize_rank(report):
        problems = []
        if not 1 <= report.achieved_dim <= report.target_dim == 2:
            problems.append(f"rank bound {report.achieved_dim} of {report.target_dim}")
        invariant = {
            "achieved_dim": report.achieved_dim,
            "target_dim": report.target_dim,
            "points_used": report.points_used,
        }
        return invariant, None, problems

    subtasks = [
        Item("point_search/S_M/31/500", [search], summarize_search),
        Item("coverage/S_M/31/500", [coverage], summarize_coverage),
        Item("rank_bound/S_M/31/500", [rank], summarize_rank),
        Item("secant_cycles/S_M/31/200",
             [lambda: _secant_cycle_sweep("S_M", 31, 31, 200, S31_POINT_PREFIX)],
             _summarize_sweep),
        Item("secant_cycles/Sprime_M/93/200",
             [lambda: _secant_cycle_sweep("Sprime_M", 93, 31, 200, None)],
             _summarize_sweep),
        Item("pic_sweep/200", [_pic_sweep], _summarize_pic),
    ]
    rounds = len(subtasks) + 1
    group_law = [
        Item(
            f"group_law/{p}",
            [lambda chunk=picks[r::rounds]: _group_law(chunk) for r in range(rounds)],
            lambda failures: _summarize_group_law(sum(failures)),
        )
        for p, picks in triples.items()
    ]
    order = []
    for r in range(rounds):
        order.extend(group_law)
        order.extend(subtasks[r:r + 1])
    return order


def _secant_cycle_sweep(family, m, p, height, prefix):
    points = point_search(family, m, height)
    if prefix is not None:
        points = points[:prefix]
    params = {}
    for a, b in combinations(points, 2):
        par = good_parametrization(a.coords, b.coords)
        params.setdefault((par.u, par.v), par)
    branches = Counter()
    failures = []
    on_surface = 0
    for par in params.values():
        try:
            report = verify_line_relation(par, family, m, p)
        except ValueError:
            # the secant lies on the surface; it cuts out no cycle
            on_surface += 1
            continue
        branches[report.branch] += 1
        if not report.relation_holds:
            failures.append((par.u, par.v))
    return len(params), branches, on_surface, failures


def _summarize_sweep(out):
    total, branches, on_surface, failures = out
    problems = [f"{len(failures)} cycle relations fail"] if failures else []
    if not branches["transverse"] or not branches["contained"]:
        problems.append(f"a reduction branch is not exercised: {dict(branches)}")
    invariant = {
        "lines": total,
        "branches": sorted(branches.items()),
        "on_surface": on_surface,
        "failures": len(failures),
    }
    return invariant, None, problems


def _pic_sweep():
    rows = []
    for p in (n for n in range(5, 201) if is_prime(n)):
        row = [p]
        if p % 3 == 1:
            for n in ((3, 2) if is_cube(p, 2) else (3,)):
                quotient = pic_mod(p, n)
                covered = {
                    quotient.coordinates(quotient.class_of(pt)) for pt in curve_points(p)
                }
                row.append((n, quotient.dim, len(covered)))
        row.append(two_division_check(p))
        rows.append(row)
    return rows


def _summarize_pic(rows):
    problems = []
    for row in rows:
        p, splits = row[0], row[-1]
        for n, dim, covered in row[1:-1]:
            if dim != 2 or covered != n * n:
                problems.append(f"Pic0/{n} at {p}: dim {dim}, {covered} classes covered")
        if splits != (p % 3 == 1 and is_cube(p, 2)):
            problems.append(f"4x^3 - 27 splitting at {p} disagrees with the conditions")
    return {"rows": rows}, None, problems


def _group_law(triples):
    """Sampled triples of one curve that break a group axiom."""
    origin = base_point(triples[0][0].p)
    failures = 0
    for a, b, c in triples:
        ab = group_add(a, b)
        if (
            group_add(a, origin) != a
            or group_add(a, group_neg(a)) != origin
            or ab != group_add(b, a)
            or group_add(ab, c) != group_add(a, group_add(b, c))
        ):
            failures += 1
    return failures


def _summarize_group_law(failures):
    problems = [f"{failures} sampled triples break a group axiom"] if failures else []
    return {"failures": failures}, None, problems


WORKLOADS = {
    "surfaces": _surfaces,
    "span-build": _span_build,
    "span-replay": _span_replay,
    "reduce": _reduce,
}
