"""Minimum-norm gain selection on a 3-variable gain polytope.

The nearest point to the origin of ``{x : G x <= c}`` is the projection of
the origin onto ``{x : g_i . x = c_i, i in T}`` for some independent set
``T`` of at most three rows, namely one whose projection satisfies every row
and has multipliers ``lambda <= 0`` (``x = sum lambda_i g_i``; these are
the KKT conditions, which make the point optimal).  numpy projects the
origin onto every such set at once and proposes the float-feasible,
float-KKT candidates in order of norm; the first whose exact (rational)
projection passes both conditions is the optimum, which is unique.  When no
proposal verifies (always the case for an empty polytope), the polytope is
reduced and its row sets are checked exactly one by one; when none passes,
the polytope is empty.  Either way the result carries a zero-residual
optimality certificate rather than a solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .inequalities import (
    LinearInequalitySystem,
    _nearest_point_proposals,
    _solve_exact,
)
from .systems import GainMatrix


class InfeasiblePolytopeError(ValueError):
    pass


def _kkt_point(poly: LinearInequalitySystem,
               subset: Sequence[int]) -> Optional[tuple[Fraction, ...]]:
    """Exact projection of the origin onto ``{x : g_i . x = c_i}`` over the
    rows of `subset`, if it satisfies every row of `poly` and its
    multipliers are ``<= 0``; None otherwise (or if the rows are
    dependent)."""
    G = [list(poly.rows[i].g) for i in subset]
    c = [poly.rows[i].rhs for i in subset]
    gram = [[sum(a * b for a, b in zip(gi, gj)) for gj in G] for gi in G]
    lam = _solve_exact(gram, c)
    if lam is None or any(l > 0 for l in lam):
        return None
    point = tuple(sum(l * g[j] for l, g in zip(lam, G))
                  for j in range(poly.num_vars))
    return point if poly.satisfies(point) else None


def _first_kkt_point(poly: LinearInequalitySystem,
                     subsets: Iterable[Sequence[int]]) -> Optional[tuple[Fraction, ...]]:
    return next(filter(None, (_kkt_point(poly, s) for s in subsets)), None)


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

    The origin when it is feasible; otherwise the first proposal (see
    :func:`~viskeep.inequalities._nearest_point_proposals`) that passes the
    exact KKT check of :func:`_kkt_point`.  When none does, the row sets of
    the reduced polytope are checked exactly, by size and in lexicographic
    order, until one passes; a nonempty polytope always has one, so when
    none does the polytope is empty and :class:`InfeasiblePolytopeError`
    is raised.
    """
    if poly.num_vars > 3:
        raise ValueError("active-set enumeration is meant for <= 3 variables")
    n = poly.num_vars
    gain_exact: Optional[tuple[Fraction, ...]] = tuple(Fraction(0) for _ in range(n))
    if not poly.satisfies(gain_exact):
        gain_exact = _first_kkt_point(poly, _nearest_point_proposals(poly.rows, n))
        if gain_exact is None:
            reduced = poly.reduce()
            gain_exact = _first_kkt_point(reduced, (
                subset for size in range(1, n + 1)
                for subset in combinations(range(len(reduced.rows)), size)))
        if gain_exact is None:
            raise InfeasiblePolytopeError("gain polytope is empty")

    active = tuple(
        i for i, row in enumerate(poly.rows)
        if sum(c * x for c, x in zip(row.g, gain_exact)) == row.rhs
    )
    gain_f = tuple(float(x) for x in gain_exact) + (0.0,) * (3 - n)
    return SynthesisResult(
        gain=GainMatrix(*gain_f),
        norm=math.sqrt(float(sum(x * x for x in gain_exact))),
        active_rows=active,
        kkt_residual=0.0,
        exact_gain=gain_exact,
    )
