"""Rewrite ``tests/data/generate_grid_expected.json`` from the package as
it is: the outcome of `generate_schedule` at every point of the grid of
``tests/test_generate_grid.py``, one line per point.

Run from the root of a checkout::

    PYTHONPATH=src python3 tests/record_generate_grid.py
"""

from __future__ import annotations

import json

from test_generate_grid import EXPECTED, GRID, grid_outcome, point_id


def main() -> None:
    lines = [f"{json.dumps(point_id(p))}: "
             f"{json.dumps(grid_outcome(p), sort_keys=True)}" for p in GRID]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{EXPECTED}: {len(lines)} points")


if __name__ == "__main__":
    main()
