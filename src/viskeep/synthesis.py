"""Minimum-norm gain selection on a 3-variable gain polytope.

The nearest point to the origin of ``{x : G x <= c}`` is found by exhaustive
active-set enumeration: the origin is projected onto the affine hull of
every independent subset of at most three rows, infeasible candidates are
discarded, and the feasible candidate of least norm is returned.  All
candidate points and feasibility tests are exact (rational), so the result
carries a zero-residual optimality certificate rather than a solver
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .inequalities import LinearInequalitySystem, _solve_exact
from .systems import GainMatrix


class InfeasiblePolytopeError(ValueError):
    pass


def _project_origin(rows) -> Optional[tuple[Fraction, ...]]:
    """Projection of the origin onto ``{x : g_i . x = c_i}``; None if the
    chosen rows are linearly dependent."""
    G = [list(r.g) for r in rows]
    c = [r.rhs for r in rows]
    gram = [[sum(a * b for a, b in zip(gi, gj)) for gj in G] for gi in G]
    lam = _solve_exact(gram, c)
    if lam is None:
        return None
    n = len(G[0])
    return tuple(sum(l * G[i][j] for i, l in enumerate(lam)) for j in range(n))


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

    Enumerates active sets in lexicographic row order; exact-norm ties
    between distinct candidates are broken by the lexicographically smaller
    point (the optimum itself is unique, so this only fixes iteration
    bookkeeping).  Raises :class:`InfeasiblePolytopeError` when no candidate
    satisfies the system.
    """
    if poly.num_vars > 3:
        raise ValueError("active-set enumeration is meant for <= 3 variables")
    reduced = poly.reduce()
    n = reduced.num_vars
    zero = tuple(Fraction(0) for _ in range(n))

    candidates = []
    if reduced.satisfies(zero):
        candidates.append(zero)
    else:
        indices = range(len(reduced.rows))
        best: Optional[tuple[Fraction, ...]] = None
        best_norm2: Optional[Fraction] = None
        for size in range(1, n + 1):
            for subset in combinations(indices, size):
                point = _project_origin([reduced.rows[i] for i in subset])
                if point is None or not reduced.satisfies(point):
                    continue
                norm2 = sum(x * x for x in point)
                if (
                    best_norm2 is None
                    or norm2 < best_norm2
                    or (norm2 == best_norm2 and point < best)
                ):
                    best, best_norm2 = point, norm2
        if best is None:
            raise InfeasiblePolytopeError("gain polytope is empty")
        candidates.append(best)
    gain_exact = candidates[0]

    active = tuple(
        i for i, row in enumerate(poly.rows)
        if sum(c * x for c, x in zip(row.g, gain_exact)) == row.rhs
    )
    residual = _kkt_residual(poly, gain_exact, active)
    gain_f = tuple(float(x) for x in gain_exact) + (0.0,) * (3 - n)
    gm = GainMatrix(*gain_f)
    return SynthesisResult(
        gain=gm,
        norm=math.sqrt(float(sum(x * x for x in gain_exact))),
        active_rows=active,
        kkt_residual=residual,
        exact_gain=gain_exact,
    )


def _kkt_residual(poly, point, active) -> float:
    """Optimality certificate for the nearest-point candidate.

    At the projection of the origin onto ``{x : G x <= c}`` there exist
    multipliers ``mu >= 0`` on the active rows with ``x = -sum mu_i g_i``.
    Independent subsets of the active rows are searched for an exact
    nonnegative representation; success gives residual 0.
    """
    if all(x == 0 for x in point):
        return 0.0
    if not active:
        return float(math.sqrt(float(sum(x * x for x in point))))
    n = poly.num_vars
    rows = [poly.rows[i] for i in active]
    for size in range(1, min(n, len(rows)) + 1):
        for subset in combinations(range(len(rows)), size):
            G = [list(rows[i].g) for i in subset]
            gram = [[sum(a * b for a, b in zip(gi, gj)) for gj in G] for gi in G]
            rhs = [
                -sum(gc * x for gc, x in zip(G[i], point)) for i in range(len(G))
            ]
            mult = _solve_exact(gram, rhs)
            if mult is None or any(m < 0 for m in mult):
                continue
            recon = [
                -sum(mult[i] * G[i][j] for i in range(len(G))) for j in range(n)
            ]
            if all(r == x for r, x in zip(recon, point)):
                return 0.0
    # fall back to a float residual (not expected on exact candidates)
    import numpy as np

    G = np.array([[float(c) for c in poly.rows[i].g] for i in active])
    x = np.array([float(v) for v in point])
    mult, *_ = np.linalg.lstsq(-G.T, x, rcond=None)
    mult = np.clip(mult, 0.0, None)
    return float(np.linalg.norm(-G.T @ mult - x))


def is_strictly_interior(
    poly: LinearInequalitySystem, gain, eps: float = 1e-6
) -> bool:
    """True iff every row has slack greater than eps at the gain."""
    if isinstance(gain, GainMatrix):
        point: Sequence = gain.entries()
    else:
        point = gain
    return all(s > eps for s in poly.slacks(point))
