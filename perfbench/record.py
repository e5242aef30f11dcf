"""Record the output digests every benchmark run is compared against.

    PYTHONPATH=src python3 perfbench/record.py

Runs one pass of every workload for seeds 0..SEEDS-1 and writes
``perfbench/digests.json``.  An item's invariant digest must come out the
same on every seed that runs it, or recording stops.  The file in the
repository was recorded at the commit that introduced the benchmark,
whose outputs the acceptance gate certifies; recording again at a later
commit would make the benchmark accept whatever that commit computes.
"""

import json
import sys
from pathlib import Path

from worker import check_pass, items_of, run_pass
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = 10


def main() -> int:
    record = {}
    for workload, setup in WORKLOADS.items():
        entries = record[workload] = {}
        for seed in range(SEEDS):
            order = setup(seed)
            items = items_of(order)
            _, outputs = run_pass(order)
            digests, failed, messages = check_pass(items, outputs, seed, {}, None)
            if failed:
                print("\n".join(messages), file=sys.stderr)
                return 1
            for key, got in digests.items():
                entry = entries.setdefault(key, {"invariant": got["invariant"], "exact": {}})
                if entry["invariant"] != got["invariant"]:
                    print(f"{workload} {key}: invariant differs on seed {seed}", file=sys.stderr)
                    return 1
                entry["exact"][str(seed)] = got["exact"]
            print(f"{workload} seed {seed}: {len(digests)} items", flush=True)
    out = {"recorded_seeds": list(range(SEEDS)), "workloads": record}
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
