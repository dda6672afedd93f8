"""The golden `generate_schedule` grid: every outcome of the schedule
generator on a grid of its inputs, compared with the recorded one.

The grid is every ``(a, d, n, V_1, safety)`` of the values below with
``d > a``.  Per point, ``tests/data/generate_grid_expected.json`` holds the
sha256 of the generated spec's JSON, or the :class:`ScheduleInfeasibleError`
it raises: its ``achievable`` and its text.  The grid reaches every way the
generator ends: a schedule, the first link saturating the speed, a sandwich
that closes, the speed saturating at a later robot, and an empty sandwich.
A change that moves an outcome re-records the file with
``tests/record_generate_grid.py`` and says which points moved and why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from pathlib import Path

from viskeep.chains import (
    ScheduleInfeasibleError,
    chain_to_json_dict,
    generate_schedule,
)

EXPECTED = (Path(__file__).resolve().parent / "data"
            / "generate_grid_expected.json")
GRID = [(a, d, n, V_1, safety) for a, d, n, V_1, safety in itertools.product(
    (0.05, 0.1, 0.4, 0.9), (1.0, 3.0, 7.0), (2, 3, 6, 15, 40),
    (0.02, 0.3, 0.95, 0.999), (1e-300, 1e-16, 1e-9, 0.1, 0.5, 0.99))
    if d > a]
#: Each way the generator ends, as its error text reads with the robot
#: index left out; "verification failed" is not reached.
OUTCOMES = {"ok", "first link saturates the speed",
            "robot sandwich closes", "speed saturates at robot",
            "robot sandwich empty"}


def point_id(point) -> str:
    return "a={!r},d={!r},n={!r},V1={!r},safety={!r}".format(*point)


def grid_outcome(point) -> dict:
    """What `generate_schedule` gives at `point`: the sha256 of its spec's
    JSON, or its error's ``achievable`` and text."""
    try:
        spec = generate_schedule(*point)
    except ScheduleInfeasibleError as exc:
        return {"achievable": exc.achievable, "error": str(exc)}
    text = json.dumps(chain_to_json_dict(spec))
    return {"spec": hashlib.sha256(text.encode()).hexdigest()}


def _kind(outcome: dict) -> str:
    if "spec" in outcome:
        return "ok"
    reason = outcome["error"].rpartition("(")[2].rstrip(")")
    return re.sub(r" \d+", "", reason)


def test_generate_grid_outcomes_are_unchanged():
    """Every grid point ends as recorded; a failure names each point that
    moved."""
    expected = json.loads(EXPECTED.read_text())
    assert list(expected) == [point_id(p) for p in GRID]
    moved = [f"{point_id(p)}: {got!r}, recorded {expected[point_id(p)]!r}"
             for p in GRID
             if (got := grid_outcome(p)) != expected[point_id(p)]]
    assert not moved, "\n".join(moved)


def test_generate_grid_reaches_every_outcome():
    """The recorded grid still reaches every way the generator ends."""
    expected = json.loads(EXPECTED.read_text())
    assert {_kind(o) for o in expected.values()} == OUTCOMES
