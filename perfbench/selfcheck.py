"""Check that tracing changes no result of the package.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Runs ``run_suite("all")`` with the default configuration three times in
one process: untraced, with every wrapper of ``tracer.py`` installed, and
untraced again after the wrappers are removed.  The three canonical JSON
reports must be byte-identical, the traced run must have recorded spans
and field operations, and every wrapped name must be back afterwards.
Exits 1 on any difference.  (``run.py --trace 1`` checks the other half:
the traced and untraced passes of a workload give identical digests.)
"""

import sys

from cubicspan.harness import run_suite
from tracer import Tracer


def main() -> int:
    plain = run_suite("all").canonical_json()
    tracer = Tracer("selfcheck")
    tracer.install()
    try:
        traced = run_suite("all").canonical_json()
    finally:
        tracer.restore()
    again = run_suite("all").canonical_json()

    problems = []
    if traced != plain:
        problems.append("the traced report differs from the untraced one")
    if again != plain:
        problems.append("the report after restoring differs from the first one")
    if not tracer.spans or not tracer.counts["field.ops.mul"]:
        problems.append("the traced run recorded no spans or no field operations")
    for line in problems:
        print(f"selfcheck: {line}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"selfcheck: run_suite('all') canonical JSON identical traced and untraced "
        f"({len(plain)} bytes, {len(tracer.spans)} spans, "
        f"{tracer.counts['field.ops.mul']} field multiplications traced)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
