"""Run one benchmark workload of cubicspan and print its metrics.

    python3 perfbench/run.py --workload surfaces --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it measures the package in ``src/``
of that checkout.  Workloads: surfaces, span-build, span-replay, reduce
(see NOTES.md for what each measures and why), or ``all`` for each in
turn.

Every repetition runs in a fresh interpreter (``worker.py``), because the
package keeps process-wide ``lru_cache``s (``make_extension``,
``curve_points``, ``group_structure``) and lazily built field tables; a
second set-up in the same process would find them filled and report
too little.  With ``--trace 0`` the run sets up ``SETUP_REPS`` times
and times passes in the last of those processes; it prints the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced process and prints the per-module metrics, the tracing overhead,
and whether both gave identical digests.  Metric names and units are the
ones ``BENCHMARK.json`` declares.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("surfaces", "span-build", "span-replay", "reduce")

#: fresh interpreters that set up per run; setup_s is their median
SETUP_REPS = 5

#: wall-clock limit for all processes of one workload run, in seconds
RUN_LIMIT = 170.0


class RunFailed(Exception):
    pass


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker(workload: str, seed: int, mode: str, seconds: float, deadline: float,
           plain_wall: float = 0.0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--seconds", str(seconds), "--plain-wall", repr(plain_wall),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"{workload}: out of time before the {mode} process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: {mode} process exceeded the {RUN_LIMIT:.0f} s limit")
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: {mode} process failed\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def item_medians(passes: list) -> list:
    """Each item's latency, median over the passes of one process."""
    return [statistics.median(lat) for lat in zip(*passes)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list]:
    deadline = time.monotonic() + RUN_LIMIT
    setups = [
        worker(workload, seed, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_REPS - 1)
    ]
    run = worker(workload, seed, "measure", seconds, deadline)
    setups.append(run["setup_s"])
    items = item_medians(run["passes"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(items),
        "item_p50_s": statistics.median(items),
        "item_tail_s": max(items),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    passes = f"median of {len(run['passes'])} passes"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"one pass over {len(items)} items, each at its {passes}",
        "item_p50_s": f"median item of a pass, each at its {passes}",
        "item_tail_s": f"slowest item of a pass, each at its {passes}",
        "peak_rss_mb": "peak resident set of the measuring process",
    }
    units = declared_units("end_to_end")
    if set(values) != set(units):
        raise RunFailed(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    lines = [f"{name:<14} {v:>12.4f} {units[name]:<3} {notes[name]}"
             for name, v in values.items()]
    failed = run["failed"]
    lines.append(
        f"{'failed_ratio':<14} {failed / run['attempted']:>12.4f}     "
        f"{failed} of {run['attempted']} items failed their checks"
    )
    return metrics, run["attempted"], failed, lines + _failure_lines(run)


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list]:
    deadline = time.monotonic() + RUN_LIMIT
    plain = worker(workload, seed, "measure", seconds / 2, deadline)
    plain_wall = sum(item_medians(plain["passes"]))
    traced = worker(workload, seed, "trace", 0, deadline, plain_wall)
    layers = traced["layers"]
    units = declared_units("per_layer")
    if set(layers) != set(units):
        raise RunFailed(f"traced {sorted(layers)}, BENCHMARK.json declares {sorted(units)}")
    mismatched = sorted(
        key for key, got in traced["digests"].items() if plain["digests"].get(key) != got
    )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"] + len(mismatched)

    metrics = {name: {"value": v, "unit": units[name]} for name, v in sorted(layers.items())}
    lines = [f"{name:<34} {v:>16.6g} {units[name]}" for name, v in sorted(layers.items())]
    properties = traced["properties"]
    fields = ", ".join(f"GF({f['q']}) p={f['p']}" for f in properties["fields"]) or "none"
    lines.append(f"# properties: fields {fields}")
    lines.append(
        "# properties: sampler accept ratio "
        f"{properties['harness.sampler.accept_ratio']:.4f}, contained-line share "
        f"{properties['reduction.contained_line_share']:.4f}"
    )
    lines.append(
        f"# traced digests {'match' if not mismatched else 'DIFFER on ' + ', '.join(mismatched)}"
        f" the untraced ones; trace in {traced['trace_file']}"
    )
    return metrics, attempted, failed, lines + _failure_lines(plain) + _failure_lines(traced)


def _failure_lines(run: dict) -> list:
    return [f"# FAILED {msg}" for msg in run["failures"][:20]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cubicspan" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'cubicspan'}", file=sys.stderr)
        return 2

    env = environment()
    print(
        f"# env: nproc {env['nproc']}, Python {env['python']}, CPU {env['cpu']}, "
        f"load average at start {' '.join(map(str, env['loadavg']))}"
    )
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    attempted = failed = 0
    try:
        for name in names:
            print(f"# workload {name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
            got, att, fail, lines = measure(name, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in got.items()})
            attempted += att
            failed += fail
    except RunFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
