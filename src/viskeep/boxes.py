"""Axis-aligned boxes, their vertices, vertex cones and shifted cones.

Boxes are the only polytopes this package enumerates: state, input,
disturbance and parameter sets are all interval products.  Bounds are stored
exactly (as rationals) so the cone constructions can feed the exact
certificate paths; float views are derived on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Iterable, Sequence

from .inequalities import Row, _over

VERTEX_DIMENSION_GUARD = 20


@dataclass(frozen=True)
class Box:
    """Interval product ``[lo_1, hi_1] x ... x [lo_n, hi_n]``."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        # point intervals are allowed so that zero-amplitude disturbance
        # channels degrade to the undisturbed model
        for a, b in zip(self.lo, self.hi):
            if not a <= b:
                raise ValueError(f"empty interval [{a}, {b}]")

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple]) -> "Box":
        lo, hi = [], []
        for a, b in bounds:
            lo.append(Fraction(a))
            hi.append(Fraction(b))
        return cls(tuple(lo), tuple(hi))

    @classmethod
    def symmetric(cls, half_widths: Iterable) -> "Box":
        hw = [Fraction(h) for h in half_widths]
        return cls(tuple(-h for h in hw), tuple(hw))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def lo_f(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.lo)

    @property
    def hi_f(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.hi)

    def contains_origin(self) -> bool:
        return all(a <= 0 <= b for a, b in zip(self.lo, self.hi))

    def contains(self, point: Sequence, tol=0) -> bool:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        if tol == 0 and all(isinstance(x, (Fraction, int)) for x in point):
            return all(
                a <= x <= b for a, x, b in zip(self.lo, point, self.hi)
            )
        return all(
            float(a) - tol <= float(x) <= float(b) + tol
            for a, x, b in zip(self.lo, point, self.hi)
        )

    def scaled(self, factor) -> "Box":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return Box(tuple(f * a for a in self.lo), tuple(f * b for b in self.hi))

    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """All 2^n vertices, lexicographic over (hi, lo) per dimension.

        Dimensions collapsed to a point contribute a single value, so the
        list never holds duplicates.
        """
        if self.dim > VERTEX_DIMENSION_GUARD:
            raise ValueError(
                f"vertex enumeration limited to {VERTEX_DIMENSION_GUARD} dims"
            )
        axes = [
            (b,) if a == b else (b, a) for a, b in zip(self.lo, self.hi)
        ]
        return tuple(product(*axes))

    def vertices_f(self) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(float(x) for x in v) for v in self.vertices()
        )


@dataclass(frozen=True)
class HalfspaceCone:
    """Finite set of halfspaces ``g . s <= xi`` meeting at a common vertex."""

    rows: tuple[Row, ...]

    def contains(self, point: Sequence, tol=0) -> bool:
        exact = tol == 0 and all(isinstance(x, (Fraction, int)) for x in point)
        if exact:
            return all(
                sum(c * x for c, x in zip(row.g, point)) <= row.rhs
                for row in self.rows
            )
        pt = [float(x) for x in point]
        return all(
            sum(float(c) * x for c, x in zip(row.g, pt)) <= float(row.rhs) + tol
            for row in self.rows
        )


def vertex_cone(box: Box, v: Sequence) -> HalfspaceCone:
    """Cone of the box faces through vertex `v`, rows scaled to xi = 1.

    Requires the origin strictly inside the box, so that every face plane
    has a positive offset and can be normalized to ``g . s <= 1``.
    """
    vertex = tuple(Fraction(x) for x in v)
    rows = []
    for i, (a, b, x) in enumerate(zip(box.lo, box.hi, vertex)):
        if x == b:
            if b <= 0:
                raise ValueError("face offset not positive; origin must be interior")
            coeff = 1 / b
        elif x == a:
            if a >= 0:
                raise ValueError("face offset not positive; origin must be interior")
            coeff = 1 / a
        else:
            raise ValueError(f"{v!r} is not a vertex of the box")
        g = [Fraction(0)] * box.dim
        g[i] = coeff
        rows.append(Row(tuple(g), Fraction(1)))
    return HalfspaceCone(tuple(rows))


def shifted_cone(
    cone: HalfspaceCone,
    E_family: Callable[[Sequence], Sequence],
    Q_vertices: Iterable[Sequence],
    D: Box,
) -> HalfspaceCone:
    """Shift each cone plane inward by the worst disturbance push.

    Row ``(g, xi)`` becomes ``(g, xi - max_{w, r} g . E(w) r)`` with the
    maximum over the parameter vertices ``w`` given (those of the parameters
    ``E`` depends on suffice) and the points ``r`` of the box ``D``.  On a
    face ``g . s <= 1`` through ``v``, ``g . (v + F v) <= 1 - push`` is
    Nagumo's ``g . F v + push <= 0``, which a step ``dt > 0`` only scales.
    ``E`` is evaluated once per parameter vertex.  The maximum over ``D``
    is its support, ``sum_k max(c_k lo_k, c_k hi_k)`` for ``c = g . E(w)``,
    which is the maximum over its vertices at ``l`` terms instead of
    ``2^l`` dot products.  It is formed in integers: every ``E(w)``, the
    bounds of ``D`` and each plane go over one denominator, and each
    plane's shifted right-hand side is built as one Fraction.
    """
    E_list = [E_family(w) for w in Q_vertices]
    # a push is an integer over dE * dD * (the plane's denominator)
    dE = lcm(*(x.denominator for E in E_list for row in E for x in row))
    E_int = [[[x.numerator * (dE // x.denominator) for x in row] for row in E]
             for E in E_list]
    bounds, dD = _over(D.lo + D.hi)
    lo, hi = bounds[:D.dim], bounds[D.dim:]
    rows = []
    for g, xi in cone.rows:
        gn, dg = _over(g)
        nonzero = [(j, gj) for j, gj in enumerate(gn) if gj]
        pushes = []
        for E in E_int:
            gE = [sum(gj * E[j][k] for j, gj in nonzero) for k in range(D.dim)]
            pushes.append(sum(c * (hi[k] if c > 0 else lo[k])
                              for k, c in enumerate(gE)))
        den = dg * dE * dD
        rows.append(Row(g, Fraction(
            xi.numerator * den - max(pushes, default=0) * xi.denominator,
            xi.denominator * den)))
    return HalfspaceCone(tuple(rows))
