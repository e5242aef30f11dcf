"""Command line front end.

Every subcommand accepts --json to print a machine-readable document
(pretty-printed, sorted keys) instead of the human summary.  Exit codes:
0 when everything asked for passed or was merely informational, 1 when a
verification found a failure, 2 for usage errors, including domain
preconditions the arguments do not satisfy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .errors import CubicspanError
from .field import make_extension
from .harness import (
    SUITE_NAMES,
    SURFACE_CHOICES,
    ExperimentConfig,
    random_smooth_surface,
    run_suite,
)
from .hsgroup import hs_structure
from .planecubic import pic_mod
from .projgeo import ProjPoint, skew
from .reduction import (
    family_tag,
    point_search,
    rank_bound_m,
    rank_lower_bound,
    reduce_to_curve,
    reduction_class,
)
from .span import SpanTable, span_closure, verify_skew_singleton_span
from .surface import (
    FAMILIES,
    CubicForm,
    classify_point,
    fermat_cubic,
    lines_on_surface,
    surface_with_27_lines_over_f64,
    zero_points,
)


def _parse_coords(text: str, length: int = 4) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != length:
        raise ValueError(f"expected {length} comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _add_surface_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=13, help="field characteristic")
    sub.add_argument("--k", type=int, default=1, help="extension degree over the prime field")
    which = sub.add_mutually_exclusive_group()
    which.add_argument("--fermat", action="store_true", help="the Fermat cubic (default)")
    which.add_argument(
        "--example64", action="store_true", help="the char-2 surface split over GF(64)"
    )
    which.add_argument(
        "--random", action="store_true", help="a seeded random smooth surface"
    )
    which.add_argument(
        "--family", help="integer family S_M or Sprime_M, reduced into the field"
    )
    sub.add_argument("--M", type=int, default=31, help="family coefficient M")
    sub.add_argument("--seed", type=int, default=1, help="seed for --random")


#: verify flags whose spelling is not the config field name
_CONFIG_FLAGS = {"m": "--M", "checks": "--check"}


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    """One option per ExperimentConfig field, defaulting to the field's default."""
    for f in fields(ExperimentConfig):
        flag = _CONFIG_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
        if f.name == "checks":
            # argparse copies a list default before appending to it
            sub.add_argument(
                flag, dest=f.name, action="append", default=[],
                help="restrict to this check (repeatable)",
            )
        else:
            sub.add_argument(
                flag, dest=f.name, type=type(f.default), default=f.default,
                choices=SURFACE_CHOICES if f.name == "surface" else None,
            )


def _surface_from_args(args) -> CubicForm:
    if args.example64:
        return surface_with_27_lines_over_f64()
    field = make_extension(args.p, args.k)
    if args.random:
        return random_smooth_surface(field, args.seed)
    if args.family:
        return CubicForm.from_family(args.family, args.M).reduce_mod(field)
    return fermat_cubic(field)


def _emit(document: dict, as_json: bool, human) -> None:
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        human()


# -- subcommand handlers ------------------------------------------------


def _cmd_lines(args) -> int:
    form = _surface_from_args(args)
    lines = lines_on_surface(form, extension=args.extension)
    q = lines[0].field.q if lines else form.field.q ** args.extension
    document = {
        "q": q,
        "count": len(lines),
        "lines": [[list(r) for r in line.rows] for line in lines],
    }

    def human():
        print(f"{len(lines)} lines over GF({q})")
        for line in lines:
            print(f"  {line.rows[0]} , {line.rows[1]}")

    _emit(document, args.json, human)
    return 0


def _cmd_classify(args) -> int:
    form = _surface_from_args(args)
    rows = []
    for text in args.point:
        coords = _parse_coords(text)
        point = ProjPoint(form.field, coords)
        cls = classify_point(form, point)
        rows.append(
            {
                "point": list(point.coords),
                "kind": cls.kind.value,
                "ternary": cls.ternary,
                "lines_through": cls.line_count,
            }
        )
    document = {"points": rows}

    def human():
        for row in rows:
            extra = "ternary" if row["ternary"] else "non-ternary"
            print(
                f"{tuple(row['point'])}: {row['kind']}, {extra}, "
                f"{row['lines_through']} lines through it over the closure"
            )

    _emit(document, args.json, human)
    return 0


def _cmd_span(args) -> int:
    form = _surface_from_args(args)
    table = SpanTable(form)
    if args.skew_check:
        report = verify_skew_singleton_span(form, table=table)
        document = {
            "points_checked": report.points_checked,
            "eckardt_skipped": report.eckardt_skipped,
            "all_span": report.all_span,
            "failures": [list(p.coords) for p in report.failures],
        }

        def human():
            print(
                f"skew singleton spans: {report.points_checked} checked, "
                f"{report.eckardt_skipped} Eckardt skipped, "
                f"{'all span' if report.all_span else 'FAILURES'}"
            )
            for p in report.failures:
                print(f"  failure at {p.coords}")

        _emit(document, args.json, human)
        return 0 if report.all_span else 1

    if not args.seed_point:
        raise ValueError("span needs --seed-point (or --skew-check)")
    seeds = [ProjPoint(form.field, _parse_coords(t)) for t in args.seed_point]
    state = span_closure(form, seeds, table=table)
    document = {
        "seeds": [list(p.coords) for p in seeds],
        "added_per_round": list(state.added_per_round),
        "rounds": state.rounds,
        "size": len(state.points),
        "surface_size": state.surface_size,
        "spans_surface": state.spans_surface,
    }

    def human():
        print(f"closure of {len(seeds)} seed(s) on {state.surface_size} surface points")
        total = 0
        for i, added in enumerate(state.added_per_round):
            total += added
            label = "seeds" if i == 0 else "round " + str(i)
            print(f"  {label}: +{added} (total {total})")
        verdict = "spans the surface" if state.spans_surface else "proper subset"
        print(f"  {verdict}: {len(state.points)} of {state.surface_size}")

    _emit(document, args.json, human)
    return 0


def _cmd_hs(args) -> int:
    form = _surface_from_args(args)
    structure = hs_structure(form)
    document = {
        "points": structure.points,
        "relations": structure.relations,
        "invariant_factors": list(structure.invariant_factors),
        "h0_rank": structure.h0_free_rank,
        "h0_dim_mod2": structure.h0_dim_mod2,
        "h0_dim_mod3": structure.h0_dim_mod3,
    }

    def human():
        print(f"{structure.points} points, {structure.relations} relations")
        factors = ", ".join(map(str, structure.invariant_factors)) or "none"
        print(f"H0: free rank {structure.h0_free_rank}, torsion factors {factors}")
        print(
            f"dim H0/2H0 = {structure.h0_dim_mod2}, "
            f"dim H0/3H0 = {structure.h0_dim_mod3}"
        )

    _emit(document, args.json, human)
    return 0


def _cmd_pic(args) -> int:
    quotient = pic_mod(args.p, args.mod)
    document = {
        "p": args.p,
        "mod": args.mod,
        "dim": quotient.dim,
        "classes": len(quotient.reps),
        "representatives": [list(rep.coords) for rep in quotient.reps],
    }

    def human():
        print(
            f"Pic0(C_{args.p})/{args.mod}: dimension {quotient.dim}, "
            f"{len(quotient.reps)} classes"
        )
        for rep in quotient.reps:
            print(f"  {rep.coords}")

    _emit(document, args.json, human)
    return 0


def _cmd_reduce(args) -> int:
    family = family_tag(args.family)
    n = FAMILIES[family].modulus
    points = point_search(family, args.M, args.height)
    quotient = pic_mod(args.p, n)
    class_index = {rep: i for i, rep in enumerate(quotient.reps)}
    # phi and psi depend only on (x, y, z) mod p: reduce each residue once
    by_residue = {}
    rows = []
    for pt in points:
        x, y, z, _ = pt.coords
        key = (x % args.p, y % args.p, z % args.p)
        if key not in by_residue:
            red = reduce_to_curve(pt, args.p)
            cls = reduction_class(pt, args.p)
            by_residue[key] = (
                "bad" if red.bad else list(red.point.coords),
                class_index[cls.rep],
            )
        phi, psi = by_residue[key]
        rows.append({"point": list(pt.coords), "p": args.p, "phi": phi, "psi_class": psi})
    document = {
        "family": family,
        "M": args.M,
        "p": args.p,
        "mod": n,
        "height": args.height,
        "count": len(rows),
        "reductions": rows,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def human():
        print(f"{len(rows)} points of height <= {args.height} reduced at p = {args.p}")
        classes = {}
        bad = 0
        for row in rows:
            classes[row["psi_class"]] = classes.get(row["psi_class"], 0) + 1
            if row["phi"] == "bad":
                bad += 1
        for idx in sorted(classes):
            print(f"  class {idx}: {classes[idx]} points")
        print(f"  bad reductions: {bad}")
        if args.out:
            print(f"  written to {args.out}")

    _emit(document, args.json, human)
    return 0


def _cmd_rank_bound(args) -> int:
    family = family_tag(args.family)
    primes = [int(p) for p in args.primes.split(",") if p.strip()]
    if not primes:
        raise ValueError("need at least one prime")
    m = rank_bound_m(family, primes)
    points = point_search(family, m, args.height)
    report = rank_lower_bound(family, primes, points)
    document = {
        "family": report.family,
        "M": report.m,
        "primes": list(report.primes),
        "mod": report.modulus,
        "height": args.height,
        "points_used": report.points_used,
        "achieved_dim": report.achieved_dim,
        "target_dim": report.target_dim,
    }

    def human():
        print(
            f"{report.family} with M = {report.m}: rank of the reduction image "
            f"is {report.achieved_dim} of {report.target_dim} "
            f"({report.points_used} points, height {args.height})"
        )

    _emit(document, args.json, human)
    return 0


def _cmd_verify(args) -> int:
    config = ExperimentConfig(
        **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    )
    report = run_suite(args.suite, config, out=args.out)
    document = report.to_dict()

    def human():
        counts = report.counts
        print(
            f"suite {report.suite}: {counts['pass']} passed, "
            f"{counts['fail']} failed, {counts['skip']} skipped"
        )
        for result in report.results:
            line = f"  {result.name}: {result.status} ({result.seconds:.2f}s)"
            if result.reason:
                line += f" [{result.reason}]"
            print(line)
        if args.out:
            print(f"  report written to {args.out}")

    _emit(document, args.json, human)
    return 0 if report.passed else 1


def _cmd_scan(args) -> int:
    field = make_extension(args.p, args.k)
    samples = []
    for i in range(args.count):
        seed = args.seed + i
        form = random_smooth_surface(field, seed)
        lines = lines_on_surface(form)
        has_skew = any(
            skew(a, b) for x, a in enumerate(lines) for b in lines[x + 1 :]
        )
        points = sum(1 for _ in zero_points(form))
        samples.append(
            {
                "seed": seed,
                "points": points,
                "lines": len(lines),
                "skew_pair": has_skew,
            }
        )
    document = {"q": field.q, "count": args.count, "samples": samples}

    def human():
        print(f"{args.count} smooth surfaces over GF({field.q})")
        for s in samples:
            pair = "skew pair" if s["skew_pair"] else "no skew pair"
            print(
                f"  seed {s['seed']}: {s['points']} points, "
                f"{s['lines']} lines, {pair}"
            )

    _emit(document, args.json, human)
    return 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicspan",
        description="Spans, relation groups, and reduction maps of cubic surfaces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("lines", help="enumerate the lines on a surface")
    _add_surface_args(sub)
    sub.add_argument("--extension", type=int, default=1, help="scan over GF(q^e)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_lines)

    sub = commands.add_parser("classify", help="classify points on a surface")
    _add_surface_args(sub)
    sub.add_argument(
        "--point", action="append", required=True, help="x,y,z,w (repeatable)"
    )
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("span", help="secant-tangent closure of seed points")
    _add_surface_args(sub)
    sub.add_argument(
        "--seed-point", action="append", help="x,y,z,w seed point (repeatable)"
    )
    sub.add_argument(
        "--skew-check",
        action="store_true",
        help="check singleton spans along a skew pair instead",
    )
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_span)

    sub = commands.add_parser("hs", help="the group of classes modulo collinear sums")
    _add_surface_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_hs)

    sub = commands.add_parser("pic", help="degree-0 classes of the plane cubic mod n")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--mod", type=int, required=True, choices=(2, 3))
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_pic)

    sub = commands.add_parser("reduce", help="reduce bounded-height points to the fiber curve")
    sub.add_argument("--family", required=True)
    sub.add_argument("--M", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--height", type=int, default=100)
    sub.add_argument("--out", help="write the JSON document to this path")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_reduce)

    sub = commands.add_parser("rank-bound", help="rank of the reduction image")
    sub.add_argument("--family", required=True)
    sub.add_argument("--primes", required=True, help="comma-separated distinct primes")
    sub.add_argument("--height", type=int, default=100)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_rank_bound)

    sub = commands.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", required=True, choices=SUITE_NAMES)
    _add_config_args(sub)
    sub.add_argument("--out", help="write the report to this path")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser("scan", help="sample random smooth surfaces")
    sub.add_argument("--p", type=int, default=13)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--count", type=int, default=5)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CubicspanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
