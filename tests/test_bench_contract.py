"""The benchmark in perfbench/ still runs on the package.

perfbench/ calls the package by name and wraps its entry points from
outside, so a change to the package's API can break the benchmark without
breaking any other test.  These tests run one seed-0 pass of each workload
through perfbench/worker.py's own pass and check functions, against the
digests recorded in perfbench/digests.json, and install and restore the
tracer, which fails on any name it wraps that no longer exists.  They read
perfbench/ and write nothing there.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker
    import workloads

    return workloads, worker, tracer


@pytest.mark.parametrize("name", ["surfaces", "span-build", "span-replay", "reduce"])
def test_seed0_pass_matches_the_recorded_digests(bench, name):
    workloads, worker, _ = bench
    order = workloads.WORKLOADS[name](0)
    items = worker.items_of(order)
    record = worker._load_record(name)
    assert {item.key for item in items} <= set(record)
    _, outputs = worker.run_pass(order)
    _, failed, failures = worker.check_pass(items, outputs, 0, record, None)
    assert (failed, failures) == (0, [])


def test_tracer_wraps_names_that_exist(bench):
    _, _, tracer = bench
    traced = tracer.Tracer("contract", client_modules=("workloads",))
    try:
        traced.install()
    finally:
        traced.restore()
