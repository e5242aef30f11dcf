"""One benchmark process: set up a workload, then time passes over it.

run.py starts this file in a fresh interpreter for every repetition, with
the checkout's ``src`` on PYTHONPATH.  It prints one JSON object as its
last line of output.

Modes:

* ``setup``: import and set up, report ``setup_s`` and stop;
* ``measure``: set up, then run passes over the items until the next pass
  would end after ``--seconds`` (at least one pass);
* ``trace``: wrap the package's entry points before set-up, run exactly one
  pass so every count is exact, restore the originals, probe the field
  kernel, and write the trace file ``perfbench/out/trace-<workload>-seed<n>.json``:
  the spans, counts and self times, the per-module metrics, the workload
  properties and the environment.  ``--plain-wall`` is the untraced pass
  time the tracing overhead is measured against.
"""

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

MODULES = ("surface", "projgeo", "span", "hsgroup", "planecubic", "reduction", "harness")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_record(workload: str) -> dict:
    path = HERE / "digests.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["workloads"].get(workload, {})


def items_of(order) -> list:
    """The distinct items of a pass order, in order of first appearance."""
    return list({item.key: item for item in order}.values())


def run_pass(order, tracer=None):
    """Run every part of every item once, in ``order``.

    Returns (latencies, outputs), one entry per item of ``items_of(order)``:
    the summed time of its parts, and its output (the list of its parts'
    outputs, for an item of several parts).
    """
    spent: dict = {}
    results: dict = {}
    for item in order:
        done = results.setdefault(item.key, [])
        part = item.parts[len(done)]
        if tracer is None:
            start = time.perf_counter()
            done.append(part())
            elapsed = time.perf_counter() - start
        else:
            with tracer.item(item.key):
                start = time.perf_counter()
                done.append(part())
                elapsed = time.perf_counter() - start
        spent[item.key] = spent.get(item.key, 0.0) + elapsed
    latencies = list(spent.values())
    outputs = [done[0] if len(done) == 1 else done for done in results.values()]
    return latencies, outputs


def check_pass(items, outputs, seed, record, first):
    """Digest and check each item's output.

    Returns (digests by key, number of items that failed, messages).

    Every item is checked by its own recomputed invariants, against the
    recorded digests where the item key (and, for exact digests, the seed)
    was recorded, and against the first pass of the same process.
    """
    from workloads import digest

    digests = {}
    failed = 0
    failures = []
    for item, out in zip(items, outputs):
        invariant, exact, problems = item.summarize(out)
        got = {"invariant": digest(invariant), "exact": digest(exact)}
        digests[item.key] = got
        problems = list(problems)
        recorded = record.get(item.key)
        if recorded is not None:
            if recorded["invariant"] != got["invariant"]:
                problems.append("invariant digest differs from the recorded one")
            exact_seed = recorded["exact"].get(str(seed))
            if exact_seed is not None and exact_seed != got["exact"]:
                problems.append("exact digest differs from the recorded one")
        if first is not None and first.get(item.key) != got:
            problems.append("output differs from the first pass")
        failed += bool(problems)
        failures.extend(f"{item.key}: {msg}" for msg in problems)
    return digests, failed, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--plain-wall", type=float, default=0.0)
    args = parser.parse_args()

    env = environment() if args.mode == "trace" else None
    start = time.perf_counter()
    import workloads

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        tracer = Tracer(run_id, client_modules=("workloads",))
        tracer.install()

    order = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start
    items = items_of(order)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = _load_record(args.workload)
    passes = []
    attempted = failed = 0
    failures = []
    first = None
    begin = time.perf_counter()
    while True:
        gc.collect()
        started = time.perf_counter()
        lat, outputs = run_pass(order, tracer)
        if tracer is not None:
            # checks call the package too; keep them out of the counts
            tracer.restore()
        digests, failed_items, messages = check_pass(items, outputs, args.seed, record, first)
        del outputs
        first = first or digests
        passes.append(lat)
        attempted += len(lat)
        failed += failed_items
        failures.extend(messages)
        now = time.perf_counter()
        if tracer is not None or now - begin + (now - started) > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": first,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"], result["properties"], result["trace_file"] = _write_trace(
            tracer, args, env, traced_wall_s=sum(passes[0])
        )
    print(json.dumps(result))
    return 0


def _write_trace(tracer, args, env, traced_wall_s: float) -> tuple[dict, dict, str]:
    """Write the trace file; returns (per-module metrics, workload properties,
    the file's path from the checkout root)."""
    from tracer import field_probe

    layers = _layer_metrics(tracer)
    layers["field.add_ns"], layers["field.mul_ns"] = field_probe(tracer.fields)
    layers["trace.overhead_s"] = traced_wall_s - args.plain_wall
    properties = {
        "fields": [{"q": p ** k, "p": p, "k": k} for p, k in sorted(tracer.fields)],
        "harness.sampler.accept_ratio": layers["harness.sampler.accept_ratio"],
        "reduction.contained_line_share": layers["reduction.contained_line_share"],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "run_id": tracer.run_id,
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "properties": properties,
        "metrics": layers,
        "spans": tracer.span_records(),
        "counts": dict(tracer.counts),
        "self_time_s": dict(tracer.self_time),
        "inclusive_s": dict(tracer.inclusive),
    }))
    return layers, properties, str(path.relative_to(HERE.parent))


def _layer_metrics(tracer) -> dict:
    """The per-module counts and times of one traced set-up plus one pass."""
    counts = tracer.counts
    incl = tracer.inclusive

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    return {
        "field.ops.add": counts["field.ops.add"],
        "field.ops.mul": counts["field.ops.mul"],
        "field.ops.inv": counts["field.ops.inv"],
        "surface.is_smooth_s": incl["surface.is_smooth"],
        "surface.is_smooth.calls": counts["surface.is_smooth.calls"],
        "harness.sampler.trials": counts["harness.random_cubic_form.calls"],
        "harness.sampler.accept_ratio": ratio("harness.sampler.calls", "harness.random_cubic_form.calls"),
        "surface.zero_points_s": incl["surface.zero_points"],
        "surface.zero_points.points": counts["surface.zero_points.points"],
        "surface.lines_on_surface_s": incl["surface.lines_on_surface"],
        "surface.lines.found": counts["surface.lines.found"],
        "surface.classify_point_s": incl["surface.classify_point"],
        "surface.classify_point.calls": counts["surface.classify_point.calls"],
        "projgeo.normalize.calls": counts["projgeo.normalize.calls"],
        "span.table_build_s": incl["span.table_build"],
        "span.points": counts["span.points"],
        "span.pairs": counts["span.pairs"],
        "span.contained_secants": counts["span.contained_secants"],
        "span.tangent_entries": counts["span.tangent_entries"],
        "span.closure_s": incl["span.closure"],
        "span.closure.calls": counts["span.closure.calls"],
        "span.closure.lines_examined": counts["span.closure.lines_examined"],
        "span.closure.hit_ratio": ratio("span.closure.added", "span.closure.lines_examined"),
        "hsgroup.presentation_s": incl["hsgroup.presentation"],
        "hsgroup.sums": counts["hsgroup.sums"],
        "hsgroup.classes": counts["hsgroup.classes"],
        "hsgroup.relation_rank": counts["hsgroup.relation_rank"],
        "hsgroup.ternary_bound_s": incl["hsgroup.ternary_bound"],
        "reduction.point_search_s": incl["reduction.point_search"],
        "reduction.points": counts["reduction.points"],
        "reduction.contained_line_share": ratio("reduction.on_contained_line", "reduction.points"),
        "reduction.reduce_to_curve.calls": counts["reduction.reduce_to_curve.calls"],
        "reduction.coverage_s": incl["reduction.coverage"],
        "reduction.rank_bound_s": incl["reduction.rank_bound"],
        "reduction.line_relation_s": incl["reduction.line_relation"],
        "planecubic.pic_mod_s": incl["planecubic.pic_mod"],
        "planecubic.group_add.calls": counts["planecubic.group_add.calls"],
        "planecubic.curve_point.calls": counts["planecubic.curve_point.calls"],
        **{f"{module}.self_s": tracer.self_time[module] for module in MODULES},
    }


if __name__ == "__main__":
    sys.exit(main())
