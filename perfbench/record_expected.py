"""Write the expected-results file for the default seed.

Run from the root of a checkout, with the package importable::

    PYTHONPATH=src python3 perfbench/record_expected.py

Records each item's verdicts and gains (``Item.record``) after one pass of
every workload, refusing to record an item whose output checks fail.  Run it
only when a change is meant to alter verdicts or gains, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import worker
from workloads import WORKLOADS


def main() -> int:
    warnings.simplefilter("ignore")
    expected = {}
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=Path.cwd()))
    try:
        for name in WORKLOADS:
            items, _, _ = worker.set_up(name, worker.DEFAULT_SEED, scratch / name,
                                     {}, repeats=1)
            expected[name] = {}
            for item in items:
                out = item.run()
                problems = item.check(out)
                if problems:
                    print(f"{name} {item.id}: {problems}", file=sys.stderr)
                    return 1
                expected[name][item.id] = item.record(out)
                item.cleanup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(worker.EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
