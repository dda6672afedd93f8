"""Axis-aligned boxes, their vertices and their shifted faces.

Boxes are the only polytopes this package enumerates: state, input,
disturbance and parameter sets are all interval products.  Bounds are stored
exactly (as rationals) so the face shifts can feed the exact certificate
paths, and a membership query reads its point exactly too; float views
are derived on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .inequalities import _over, _rationals

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
        """True iff ``lo_i - tol <= point_i <= hi_i + tol`` for every ``i``,
        decided exactly: each coordinate and `tol` is read as the rational
        it is (:func:`~viskeep.inequalities._rationals`)."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        *xs, t = _rationals((*point, tol))
        return all(a - t <= x <= b + t for a, x, b in zip(self.lo, xs, self.hi))

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
        self._guard()
        return _vertices(self.lo, self.hi)

    def vertices_f(self) -> tuple[tuple[float, ...], ...]:
        """:meth:`vertices` as floats, entry for entry, built from
        :attr:`lo_f` and :attr:`hi_f`: one conversion per bound, not one per
        vertex entry.  A dimension collapses where the exact bounds are
        equal, so bounds that differ but round to one float still give the
        vertex count of :meth:`vertices`."""
        self._guard()
        return _vertices(self.lo_f, self.hi_f,
                         [a == b for a, b in zip(self.lo, self.hi)])

    def _guard(self) -> None:
        if self.dim > VERTEX_DIMENSION_GUARD:
            raise ValueError(
                f"vertex enumeration limited to {VERTEX_DIMENSION_GUARD} dims"
            )


def _vertices(lo: Sequence, hi: Sequence, point=None) -> tuple[tuple, ...]:
    """The vertices of the box with bounds `lo` and `hi`, in the order of
    :meth:`Box.vertices`; the bounds may be any numbers that compare as
    the box's do, such as its bounds as integers over one denominator.
    ``point[i]`` says whether dimension ``i`` is a point interval; by
    default, whether ``lo[i] == hi[i]``."""
    if point is None:
        point = [a == b for a, b in zip(lo, hi)]
    return tuple(product(*((b,) if p else (b, a)
                           for a, b, p in zip(lo, hi, point))))


def shifted_cone(S: Box, E_rows: Sequence[Sequence[int]], den: int,
                 D: Box) -> tuple[tuple[Fraction, Fraction], ...]:
    """The ``2n`` faces of the box `S`, each shifted inward by the worst
    disturbance push: ``s_i <= hi_i`` for every ``i``, then
    ``s_i >= lo_i``, each as ``(g_i, xi)`` for ``g_i s_i <= xi``.

    `E_rows` holds matrices ``E(w)`` in integers over the one positive
    `den`, each as its entries row by row (``E(w)_ij = E[i l + j] / den``,
    ``l = D.dim``), as :func:`systems._vertex_rows` gives them.  A face
    with bound ``b`` is ``s_i / b <= 1``: ``g_i = 1 / b`` and ``xi = 1 -
    push``, ``push`` the largest ``+-(E(w) r)_i / |b|`` (``+`` on
    ``hi_i``) over those matrices (E at the vertices of the parameters it
    depends on suffices) and the points ``r`` of ``D``.  At a window
    vertex ``v`` on the face, ``g_i v_i = 1``, so ``g_i (v + F v)_i <=
    xi`` is Nagumo's sub-tangentiality ``+-(F v)_i + max_r +-(E(w) r)_i
    <= 0``, which a step ``dt > 0`` only scales.  The maximum over ``D``
    is its support, ``sum_k max(c_k lo_k, c_k hi_k)`` for ``c =
    +-E(w)_i``, in integers: ``l`` terms instead of ``2^l`` dot products.
    The origin must lie inside `S`, off its faces, so that every face
    offset is positive; otherwise this is a ValueError.
    """
    if not all(a < 0 < b for a, b in zip(S.lo, S.hi)):
        raise ValueError("face offset not positive; origin must be interior")
    # a support is an integer over den * dD
    l = D.dim
    bounds, dD = _over(D.lo + D.hi)
    lo, hi = bounds[:l], bounds[l:]
    faces = []
    # the support of -c over [lo, hi] is that of c over [-hi, -lo]
    for S_bounds, lo, hi in ((S.hi, lo, hi),
                             (S.lo, [-y for y in hi], [-x for x in lo])):
        for i, b in enumerate(S_bounds):
            push = max((sum(c * (y if c > 0 else x)
                            for c, x, y in zip(E[i * l:], lo, hi))
                        for E in E_rows), default=0)
            scale = den * dD * abs(b.numerator)
            faces.append((Fraction(b.denominator, b.numerator),
                          Fraction(scale - push * b.denominator, scale)))
    return tuple(faces)
