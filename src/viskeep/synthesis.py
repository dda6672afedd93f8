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

import numpy as np

from .inequalities import (
    LinearInequalitySystem,
    Row,
    _dot,
    _holds,
    _solve_exact,
)
from .systems import GainMatrix

#: A point ``num / den`` with integer numerators and ``den > 0``.
Point = tuple[list[int], int]

#: Most row subsets the float proposals solve (at most about 0.2 MB per
#: 1,000 subsets in 3 variables); larger polytopes get no proposals.
MAX_PROPOSAL_SUBSETS = 40_000
#: Float tolerance of the proposals (on rows scaled to unit norm); it only
#: decides which row sets to verify first, never a result.
_EPS = 1e-9
#: Proposals verified before falling back to the exact enumeration.
_TRIES = 3


class InfeasiblePolytopeError(ValueError):
    pass


def _nearest_point_proposals(rows: Sequence[Row], num_vars: int) -> list[tuple[int, ...]]:
    """Row sets of at most ``num_vars`` rows whose float projection of the
    origin satisfies every row and has multipliers ``<= 0`` (the nearest
    point's KKT conditions), least norm first, at most ``_TRIES``.

    The rows are scaled to unit normals in floats (a zero row keeps the
    sign of its right-hand side), and only row sets with independent
    normals are projected on.  None are proposed when a value does not fit
    a float or there are more than ``MAX_PROPOSAL_SUBSETS`` row sets."""
    m = len(rows)
    sizes = range(1, num_vars + 1)
    if sum(math.comb(m, k) for k in sizes) > MAX_PROPOSAL_SUBSETS:
        return []
    try:
        G = np.array([[float(c) for c in r.g] for r in rows]).reshape(m, num_vars)
        c = np.array([float(r.rhs) for r in rows])
    except OverflowError:
        return []
    norm = np.linalg.norm(G, axis=1)
    zero = norm == 0
    scale = np.where(zero, 1.0, norm)
    G, c = G / scale[:, None], np.where(zero, np.sign(c), c / scale)
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(c))):
        return []
    found = []  # (norm^2, subset)
    for k in sizes:
        subsets = np.array(list(combinations(range(m), k)), dtype=np.intp).reshape(-1, k)
        GS = G[subsets]
        subsets = subsets[np.linalg.det(GS @ GS.transpose(0, 2, 1)) > 1e-10]
        GS = G[subsets]
        lam = np.linalg.solve(GS @ GS.transpose(0, 2, 1), c[subsets][..., None])[..., 0]
        x = np.einsum("bk,bkn->bn", lam, GS)
        ok = np.all(x @ G.T <= c + _EPS, axis=1) & np.all(lam <= _EPS, axis=1)
        found += [(float(x[b] @ x[b]), tuple(int(j) for j in subsets[b]))
                  for b in np.flatnonzero(ok)]
    found.sort(key=lambda f: f[0])
    return [subset for _, subset in found[:_TRIES]]


def _kkt_point(poly: LinearInequalitySystem,
               subset: Sequence[int]) -> Optional[Point]:
    """Exact projection of the origin onto ``{x : g_i . x = c_i}`` over the
    rows of `subset`, if it satisfies every row of `poly` and its
    multipliers are ``<= 0``; None otherwise (or if the rows are
    dependent).

    Solved on the rows' integer forms ``(a_i, b_i)``: the same planes, and
    multipliers scaled by positive factors, so with the same signs.  The
    Gram system ``[a_i . a_j] lam = b`` gives ``lam / det``, the point is
    ``sum lam_i a_i / det``, and every test is an integer sign test."""
    n = poly.num_vars
    A = [poly.int_rows[i] for i in subset]
    gram = [[_dot(ai[:n], aj) for aj in A] for ai in A]
    found = _solve_exact(gram, [a[-1] for a in A])
    if found is None or any(l > 0 for l in found[0]):
        return None
    lam, det = found
    point = ([sum(l * a[j] for l, a in zip(lam, A)) for j in range(n)], det)
    return point if all(_holds(a, point) for a in poly.int_rows) else None


def _first_kkt_point(poly: LinearInequalitySystem,
                     subsets: Iterable[Sequence[int]]) -> Optional[Point]:
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
    :func:`_nearest_point_proposals`) that passes the
    exact KKT check of :func:`_kkt_point`.  When none does, the row sets of
    the reduced polytope are checked exactly, by size and in lexicographic
    order, until one passes; a nonempty polytope always has one, so when
    none does the polytope is empty and :class:`InfeasiblePolytopeError`
    is raised.
    """
    if poly.num_vars > 3:
        raise ValueError("active-set enumeration is meant for <= 3 variables")
    n = poly.num_vars
    point: Optional[Point] = ([0] * n, 1)
    if not all(_holds(a, point) for a in poly.int_rows):
        point = _first_kkt_point(poly, _nearest_point_proposals(poly.rows, n))
        if point is None:
            reduced = poly.reduce()
            point = _first_kkt_point(reduced, (
                subset for size in range(1, n + 1)
                for subset in combinations(range(len(reduced.rows)), size)))
        if point is None:
            raise InfeasiblePolytopeError("gain polytope is empty")

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
