"""Exact rational systems of linear inequalities.

A system is a finite list of rows ``g . x <= r`` over ``num_vars`` variables,
with every coefficient and right-hand side a :class:`fractions.Fraction`.
Everything here is exact: projection by Fourier-Motzkin elimination,
feasibility decisions and redundancy removal produce certificates that are
free of floating-point ambiguity.  Feasibility is one linear program over
nonnegative multipliers of the rows, solved from a crash basis of the
rows by a revised simplex, a dual simplex over the points: it finds a
vertex of the rows or a Farkas set (:func:`_vertex_or_farkas`).  The crash
basis, the lowest rows with independent normals, also gives the rank of
the normals; only below full rank are the rows rewritten in the variables
of a column basis of their normals.
Redundancy removal then decides every row by a primal simplex over the
points that starts from the last vertex (:func:`_walk`).  Both move
between bases of rows that meet in one point, and every pivot is exact.

The exact work runs in Python integers, fraction-free.  A system stores
each row once, as integer numerators over one positive denominator, and
reads it in its primitive integer form ``(a_1, ..., a_n, b)`` (a positive
multiple of the row, :attr:`~LinearInequalitySystem.int_rows`).
Elimination combines those forms into new ones.  Each basis of the
simplex is inverted once, as its adjugate over its determinant, in closed
form up to 3 unknowns and by Bareiss elimination beyond (:func:`_adjugate`);
its point, its multipliers and its edges are integer dot products with
that inverse, numerators over the determinant, and a test is an integer
sign test such as ``a . num <= b * den``.  That adjugate is the only
exact solve here; the Gram solve of :mod:`viskeep.synthesis` reads it
too.  Fractions are built only at the edges, and only when read: a
system's Fraction rows by :meth:`~LinearInequalitySystem.to_text` or the
small-system route of :meth:`~LinearInequalitySystem.reduce`, and a point
query's coordinates, each float read as the rational it is, so a point
query is exact whatever its input; the points handed back are Fractions
too.
Irrational constants enter only through :func:`rationalize`, which makes
the single approximation point explicit and finds the nearest bounded
rational by a continued fraction in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

#: Bound on the denominator of every rationalized constant (see rationalize).
DEFAULT_MAX_DENOMINATOR = 10**12


def rationalize(x: float) -> Fraction:
    """Nearest rational with denominator <= DEFAULT_MAX_DENOMINATOR, the
    value of ``Fraction(x).limit_denominator(DEFAULT_MAX_DENOMINATOR)``,
    found in integers.

    This is the only place where a float is *rounded* into the exact world;
    plain ``Fraction(x)`` conversions elsewhere are exact by construction.
    The continued fraction of ``x = n / d`` stops before a convergent's
    denominator passes the bound.  The last convergent ``p1 / q1`` and the
    largest semiconvergent ``(p0 + k p1) / (q0 + k q1)`` lie on either side
    of ``x``, ``1 / (q1 (q0 + k q1))`` apart, and ``p1 / q1`` lies ``r / (q1
    d)`` from ``x`` (``r`` the last remainder): it is the answer, ties
    included, iff ``2 r (q0 + k q1) <= d``.
    """
    m = DEFAULT_MAX_DENOMINATOR
    n, d = x.as_integer_ratio()
    if d <= m:
        return Fraction(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, rem = n, d
    while True:
        a = num // rem
        q2 = q0 + a * q1
        if q2 > m:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, rem = rem, num - a * rem
    k = (m - q0) // q1
    if 2 * rem * (q0 + k * q1) <= d:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


#: Most digits a number in an inequality file may need: Python's default
#: limit for integer-string conversion, past which none is written back.
MAX_DIGITS = 4300


def rational(text: str) -> Fraction:
    """`text` read as a rational; a zero denominator is a ValueError like
    any other malformed number.  So is a token whose digits and exponent
    need more than :data:`MAX_DIGITS` digits together, rejected before
    ``Fraction`` expands the power of ten."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        scale = abs(int(exponent)) if exponent else 0
    except ValueError:  # not an exponent; Fraction rejects the token
        scale = 0
    if sum(c.isdigit() for c in mantissa) + scale > MAX_DIGITS:
        raise ValueError(f"{text!r} needs more than {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class Row(NamedTuple):
    """One inequality ``g . x <= rhs``."""

    g: tuple[Fraction, ...]
    rhs: Fraction


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """`ints` divided by their gcd; a zero vector stays zero."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _over(values: Sequence) -> tuple[list[int], int]:
    """Rationals (or ints) as integer numerators over one positive
    denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _rationals(values: Sequence) -> list[Fraction]:
    """Each value as the rational it is: a float is dyadic, so
    ``Fraction(x)`` reads it without rounding.  A NaN or an infinity is a
    ValueError."""
    try:
        return [Fraction(x) for x in values]
    except (ValueError, OverflowError):
        raise ValueError(f"not a finite number in {values!r}") from None


def _scaled_rows(scaled: Iterable[tuple[tuple[int, ...], int]]
                 ) -> tuple[list[tuple[tuple[int, ...], int]],
                            list[tuple[int, ...]]]:
    """The rows ``nums / den`` (``den > 0``, last entry the right-hand
    side) with exact duplicates dropped, keeping the first occurrence, and
    their keys.  Duplicates are found on the integers: a ``nums`` tuple
    seen before is skipped as it stands, and only a new one is made
    primitive.  No Fraction is built; the kept ``(nums, den)`` pairs are
    the rows a system stores (:meth:`LinearInequalitySystem._keyed`)."""
    kept, keys, raw, seen = [], [], set(), set()
    for row in scaled:
        nums = row[0]
        if nums in raw:
            continue
        raw.add(nums)
        key = _primitive(nums)
        if key not in seen:
            seen.add(key)
            keys.append(key)
            kept.append(row)
    return kept, keys


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    """``sum a_k x_k`` over the shorter of the two (a row's right-hand side
    is left out against a point)."""
    return sum(map(mul, a, x))


def _holds(a: Sequence[int], x: tuple[Sequence[int], int]) -> bool:
    """The integer row ``a = (a_1, ..., a_n, b)`` holds at the point
    ``num / den`` (``den > 0``): ``a . num <= b * den``."""
    num, den = x
    return _dot(a, num) <= a[-1] * den


@dataclass(frozen=True, init=False, eq=False)
class LinearInequalitySystem:
    """Immutable system ``A x <= b`` with exact rational entries.

    The system holds each row once, as integers ``nums`` over a positive
    ``den`` with the right-hand side last (:attr:`scaled`).  Every exact
    decision, and the row count, reads their primitive forms
    :attr:`int_rows`; the Fraction :attr:`rows`, ``Fraction(a, den)`` per
    entry, are built from them on first read.  Two systems are equal iff
    they have the same number of variables and the same Fraction rows.
    """

    num_vars: int
    scaled: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, num_vars: int, rows: Iterable[Row]):
        scaled = []
        for row in rows:
            if len(row.g) != num_vars:
                raise ValueError(
                    f"row has {len(row.g)} coefficients, expected {num_vars}"
                )
            nums, den = _over((*row.g, row.rhs))
            scaled.append((tuple(nums), den))
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "scaled", tuple(scaled))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """Each row as Fractions, ``Fraction(a, den)`` per entry."""
        return tuple(Row(tuple(Fraction(a, den) for a in nums[:-1]),
                         Fraction(nums[-1], den)) for nums, den in self.scaled)

    @cached_property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row's primitive integer form ``(a_1, ..., a_n, b)``, a
        positive multiple of the row with gcd 1 (a row with all-zero
        coefficients gets ``b`` in {-1, 0, 1}); every exact decision reads
        these, never the Fractions, and two rows share one iff one is a
        positive multiple of the other."""
        return tuple(_primitive(nums) for nums, _ in self.scaled)

    @classmethod
    def _keyed(cls, num_vars: int, keys: Sequence[tuple[int, ...]],
               scaled: Sequence[tuple[tuple[int, ...], int]],
               ) -> "LinearInequalitySystem":
        """System of the rows ``nums / den`` of the pairs `scaled`, whose
        integer forms `keys` are already known."""
        system = object.__new__(cls)
        state = system.__dict__
        state["num_vars"] = num_vars
        state["scaled"] = tuple(scaled)
        state["int_rows"] = tuple(keys)
        return system

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_vars, self.rows) == (other.num_vars, other.rows)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.rows))

    def __len__(self) -> int:
        return len(self.int_rows)

    # ------------------------------------------------------------------
    # Fourier-Motzkin elimination
    # ------------------------------------------------------------------

    def eliminate(self, var: int) -> "LinearInequalitySystem":
        """Project the solution set onto the variables other than `var`.

        Rows with zero coefficient on `var` are copied first, in input
        order.  Every (positive-coefficient, negative-coefficient) pair is
        then combined, positive rows outer / negative rows inner, each
        combination normalized to integer coefficients with gcd 1.  Exact
        duplicates are dropped eagerly, keeping the first occurrence.
        """
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range")
        zero, pos, neg = [], [], []
        for row, key in zip(self.scaled, self.int_rows):
            c = key[var]
            (zero if c == 0 else pos if c > 0 else neg).append((row, key))

        def drop(t: tuple) -> tuple:
            return t[:var] + t[var + 1:]

        candidates = [(drop(key), (drop(nums), den)) for (nums, den), key in zero]
        for _, p in pos:
            for _, n in neg:
                # -n_var * p + p_var * n: a positive combination in which var
                # cancels; its row is the key over the gcd of its
                # coefficients, which leaves them integers of gcd 1
                key = drop(_primitive([-n[var] * cp + p[var] * cn
                                       for cp, cn in zip(p, n)]))
                candidates.append((key, (key, gcd(*key[:-1]) or 1)))
        scaled, keys, seen = [], [], set()
        for key, row in candidates:
            if key not in seen:
                seen.add(key)
                keys.append(key)
                scaled.append(row)
        return self._keyed(self.num_vars - 1, keys, scaled)

    def project(self, keep: Iterable[int]) -> "LinearInequalitySystem":
        """Repeated elimination of the complement of `keep`, ascending."""
        keep_set = set(keep)
        if not keep_set <= set(range(self.num_vars)):
            raise ValueError("keep contains an out-of-range variable index")
        complement = sorted(set(range(self.num_vars)) - keep_set)
        system = self
        for shift, var in enumerate(complement):
            system = system.eliminate(var - shift)
        return system

    def is_feasible(self) -> bool:
        """Exact nonemptiness of the solution set, decided by one exact
        linear program (:func:`_vertex_or_farkas`): it finds a vertex of
        the rows, or a Farkas set, whose nonnegative combination reads
        ``0 <= negative``."""
        return _vertex_or_farkas(self.int_rows, self.num_vars)[0] is not None

    # ------------------------------------------------------------------
    # Redundancy removal
    # ------------------------------------------------------------------

    def reduce(self) -> "LinearInequalitySystem":
        """Drop every row implied by the others; solution set unchanged.

        Rows are visited in order, and row ``i`` is dropped iff the rows
        still surviving besides it imply it, i.e. admit no point with
        ``g_i . x > c_i`` (this includes the case where they admit no point
        at all).  One cold linear program finds a vertex of the rows or a
        Farkas set (:func:`_vertex_or_farkas`), and every row is decided
        from there:

        * nonempty: row ``i`` is dropped iff ``max g_i . x`` over the other
          survivors is at most ``c_i``, found by a primal simplex that starts
          at the current vertex (:func:`_walk`).  It stops at the first point
          that violates the row, or at an unbounded edge, and the row is
          kept; the next row starts from the same vertex.  At an optimum the
          row is dropped, and its end vertex, one of the remaining
          survivors, is where the next row starts;
        * empty, with a Farkas set: a row outside the set is dropped with no
          program, since the others are still empty.  A row inside it is
          dropped iff the other survivors are empty too, and their Farkas
          set takes over; otherwise every point of the others violates it.

        A system of at most ``num_vars`` rows is decided row by row by
        Fourier-Motzkin elimination of the test system: the other rows
        plus ``-g_i . x + s <= -c_i`` with an auxiliary slack ``s``,
        projected onto ``s``.  Every decision is exact, so the route never
        changes the result.
        """
        ints, n = self.int_rows, self.num_vars
        survivors = list(range(len(ints)))
        by_elimination = len(survivors) <= n
        rows, found = (None, None) if by_elimination else _vertex_or_farkas(ints, n)
        i = 0
        while i < len(survivors):
            k = survivors[i]
            others = survivors[:i] + survivors[i + 1:]
            if by_elimination:
                implied = _implied([self.rows[j] for j in others], self.rows[k], n)
            elif rows is not None:
                end = _walk(rows, others, k, found)
                implied = end is not None
                if implied:
                    found = end
            else:
                implied = k not in found
                if not implied:
                    rest_rows, rest = _vertex_or_farkas([ints[j] for j in others], n)
                    if rest_rows is None:
                        found, implied = [others[j] for j in rest], True
            if implied:
                survivors.pop(i)
            else:
                i += 1
        return self._keyed(n, [ints[j] for j in survivors],
                           [self.scaled[j] for j in survivors])

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def satisfies(self, point: Sequence, tol=0) -> bool:
        """True iff ``g . point <= rhs + tol`` for every row, decided
        exactly: each coordinate and `tol` is read as the rational it is
        (:func:`_rationals`), and each row is one integer sign test."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        return all(gap >= 0 for gap, _ in self._gaps(point, tol))

    def slacks(self, point: Sequence) -> list[float]:
        """Slack ``rhs - g . point`` per row (negative = violated): the
        exact slack of the point read as rationals, rounded once."""
        return [gap / den for gap, den in self._gaps(point, 0)]

    def _gaps(self, point: Sequence, tol) -> list[tuple[int, int]]:
        """Per row, ``rhs + tol - g . point`` as an integer over a positive
        one: the row ``nums / den`` of :attr:`scaled` at ``num / d`` with
        ``tol = t / d`` gives ``(b d + t den - a . num, den d)``."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} entries, expected {self.num_vars}"
            )
        (*num, t), d = _over(_rationals((*point, tol)))
        return [(nums[-1] * d + t * den - _dot(nums, num), den * d)
                for nums, den in self.scaled]

    # ------------------------------------------------------------------
    # Text format: one row per line, "c1 c2 ... cn <= r", rationals "p/q"
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            coeffs = " ".join(str(c) for c in row.g)
            lines.append(f"{coeffs} <= {row.rhs}".lstrip())
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "LinearInequalitySystem":
        rows = []
        width = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "<=" not in line:
                raise ValueError(f"line {lineno}: missing '<='")
            lhs, _, rhs = line.partition("<=")
            try:
                coeffs = [rational(tok) for tok in lhs.split()]
                bound = rational(rhs.strip())
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if width is None:
                width = len(coeffs)
            elif len(coeffs) != width:
                raise ValueError(f"line {lineno}: inconsistent variable count")
            rows.append(Row(tuple(coeffs), bound))
        if width is None:
            raise ValueError("no rows found")
        return cls(width, tuple(rows))

    def __str__(self) -> str:
        return self.to_text()


def _implied(others: list[Row], row: Row, num_vars: int) -> bool:
    """Implication test behind :meth:`LinearInequalitySystem.reduce`."""
    slack_rows = [Row(r.g + (Fraction(0),), r.rhs) for r in others]
    slack_rows.append(
        Row(tuple(-c for c in row.g) + (Fraction(1),), -row.rhs)
    )
    test = LinearInequalitySystem(num_vars + 1, tuple(slack_rows))
    onto_s = test.project((num_vars,))
    upper = None  # min over rows with positive s coefficient
    lower = None  # max over rows with negative s coefficient
    for r in onto_s.rows:
        c = r.g[0]
        if c == 0:
            if r.rhs < 0:
                return True  # the combined system is plainly infeasible
        elif c > 0:
            bound = r.rhs / c
            upper = bound if upper is None else min(upper, bound)
        else:
            bound = r.rhs / c
            lower = bound if lower is None else max(lower, bound)
    if upper is None:
        return False  # s unbounded above: a positive gap exists
    if upper <= 0:
        return True
    return lower is not None and lower > upper


def _adjugate(M: Sequence[Sequence[int]]
              ) -> Optional[tuple[Sequence[Sequence[int]], int]]:
    """``(adj, det)`` with ``adj M = M adj = det I`` and ``det = |det M| >
    0``, or None if M is singular: the one exact inverse of this layer, so
    ``M x = y`` is solved as ``x = adj y / det``.

    ``adj`` is the adjugate of M, sign-flipped with the determinant when it
    is negative, so the pair is unique.  Up to 3 unknowns, which every
    basis of the sparse gain has, it is the closed form by cofactors;
    larger matrices go through :func:`_bareiss`.
    """
    k = len(M)
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        co0, co1, co2 = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * co0 + b * co1 + c * co2
        adj = ((co0, c * h - b * i, b * f - c * e),
               (co1, a * i - c * g, c * d - a * f),
               (co2, b * g - a * h, a * e - b * d))
    elif k == 2:
        (a, b), (c, d) = M
        det = a * d - b * c
        adj = ((d, -b), (-c, a))
    elif k == 1:
        det = M[0][0]
        adj = ((1,),)
    else:
        return _bareiss(M)
    if not det:
        return None
    if det < 0:
        return tuple(tuple(-x for x in row) for row in adj), -det
    return adj, det


def _bareiss(M: Sequence[Sequence[int]]
             ) -> Optional[tuple[Sequence[Sequence[int]], int]]:
    """The pair of :func:`_adjugate` for any number of unknowns, from one
    fraction-free (Bareiss) elimination of ``[M | I]``.

    Every entry of the eliminated matrix is a minor of ``[M | I]``, so
    each division by the previous pivot is exact and entries grow only as
    minors do, with no gcd taken (Bareiss, Math. Comp. 22, 1968; Edmonds,
    J. Res. NBS 71B, 1967); back-substitution against each identity column
    gives a column of the adjugate, the Cramer numerators ``det(M_i)``
    (``M`` with column i replaced by that column), also by exact division.
    Entries below the diagonal are left as they are; nothing reads them
    again.
    """
    k = len(M)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(M)]
    prev = 1
    for col in range(k):
        pivot = next((i for i in range(col, k) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for row in aug[col + 1:]:
            a = row[col]
            for j in range(col + 1, 2 * k):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
    sign = -1 if prev < 0 else 1  # the last pivot: det M, up to sign
    cols = []
    for c in range(k, 2 * k):
        num = [0] * k
        for i in range(k - 1, -1, -1):
            row = aug[i]
            num[i] = (prev * row[c] - _dot(row[i + 1:k], num[i + 1:])) // row[i]
        cols.append([sign * v for v in num])
    return tuple(zip(*cols)), sign * prev


class _Vertex(NamedTuple):
    """A simplex basis, the positions of rows with independent normals, and
    the adjugate and determinant of those normals (:func:`_adjugate`): its
    point is ``adj b / det``, the multipliers of a normal ``a`` are ``adj^T
    a / det``, and column ``p`` of ``adj`` is the edge off row ``basis[p]``
    alone."""

    basis: list[int]
    adj: Sequence[Sequence[int]]
    det: int


def _vertex(rows: Sequence[tuple[int, ...]], basis: list[int]) -> _Vertex:
    """The basis `basis` of `rows`, inverted."""
    return _Vertex(basis, *_adjugate([rows[k][:-1] for k in basis]))


def _pivot(rows: Sequence[tuple[int, ...]], v: _Vertex, pos: int,
           k: int) -> _Vertex:
    """The basis `v` with row `k` in place of ``v.basis[pos]``, inverted
    unless the two rows share a normal, which leaves the matrix as it is."""
    basis = v.basis[:pos] + [k] + v.basis[pos + 1:]
    if rows[k][:-1] == rows[v.basis[pos]][:-1]:
        return v._replace(basis=basis)
    return _vertex(rows, basis)


def _point(rows: Sequence[tuple[int, ...]],
           v: _Vertex) -> tuple[list[int], int]:
    """The point ``num / den`` where the rows of the basis `v` are tight."""
    b = [rows[k][-1] for k in v.basis]
    return [_dot(row, b) for row in v.adj], v.det


def _multipliers(v: _Vertex, a: Sequence[int]) -> list[int]:
    """The multipliers of the normals of the basis `v` that sum to the
    normal of `a`, as numerators over ``v.det``."""
    return [_dot(col, a) for col in zip(*v.adj)]


def _column_basis(keys: Sequence[tuple[int, ...]], num_vars: int) -> list[int]:
    """The variables, lowest first, whose columns of the normals of `keys`
    form a basis of all ``num_vars`` columns, by fraction-free elimination.

    Every other column ``T`` is then ``A[:, T] = A[:, S] C`` for the basis
    ``S``, so ``a . x = a_S . (x_S + C x_T)`` for every row: the system in
    the variables ``S`` has the same points up to that linear map, the same
    empty row sets and the same implied rows.  No column is visited after
    the ``len(keys)``-th pick, since the rank is at most the row count."""
    basis, echelon = [], []  # echelon: (position of the lead, column)
    for v in range(num_vars):
        if len(basis) == len(keys):  # full rank: no column is independent
            break
        col = [a[v] for a in keys]
        for p, e in echelon:
            if col[p]:
                col = _primitive([e[p] * c - col[p] * x for c, x in zip(col, e)])
        lead = next((p for p, c in enumerate(col) if c), None)
        if lead is not None:
            echelon.append((lead, col))
            basis.append(v)
    return basis


def _vertex_or_farkas(keys: Sequence[tuple[int, ...]], num_vars: int
                      ) -> tuple[Optional[Sequence[tuple[int, ...]]],
                                 _Vertex | list[int]]:
    """One cold linear program that finds a vertex of the integer rows
    `keys`, or a Farkas set when they have no common point.

    The program is ``min sum y_j b_j`` over ``y >= 0`` with ``sum y_j a_j =
    a_o``, the normal of the first nonzero row ``o``.  Its dual is ``max
    a_o . x`` over the rows, so it is unbounded iff they are empty.  A basis
    is ``r`` rows with independent normals, ``r`` the rank of the normals.
    The crash basis is the lowest such rows, ``o`` first (the column basis
    of the transposed normals), so ``y = e_o`` is a basic feasible solution
    and no first phase is needed; its size gives ``r``.  At full rank the
    rows are the keys as they stand.  Below it they are taken in the ``r``
    variables of the normals' :func:`_column_basis`, where they span all
    ``r`` dimensions; rows are independent there iff they are in all
    ``num_vars``, so the crash basis is the same.

    Each step inverts the basis once (:class:`_Vertex`) and reads the point
    ``x`` from it.  If it satisfies every row, the reduced costs ``b_j -
    a_j . x`` are all ``>= 0`` and ``x`` is a vertex.  Otherwise the lowest
    violated row ``j`` enters, and the same inverse gives the multipliers
    ``y`` of ``a_o`` and ``d`` of ``a_j`` in the basis rows.  The basis row
    with the least ``y_k / d_k`` over ``d_k > 0`` leaves, ties to the lowest
    row (Bland's rule: no cycling).  With no ``d_k > 0`` the program is
    unbounded: ``a_j - sum d_k a_k = 0`` sums row ``j`` and the rows with
    ``d_k < 0`` to ``0 <= negative``, since ``x`` violates ``j`` and is
    tight on the basis rows, a Farkas set.

    Returns ``(rows, vertex)``, the rows in the ``r`` variables (`keys`
    itself at full rank) and that vertex's basis, or ``(None, farkas)``."""
    crash = _column_basis(list(zip(*keys))[:num_vars], len(keys))
    rows = keys
    if len(crash) < num_vars:
        cols = _column_basis(keys, num_vars)
        rows = [tuple(a[v] for v in cols) + (a[-1],) for a in keys]
    vertex = _vertex(rows, crash)
    obj = rows[crash[0]] if crash else ()
    while True:
        num, den = _point(rows, vertex)
        for j, a in enumerate(rows):
            if sum(map(mul, a, num)) > a[-1] * den:
                break
        else:
            return rows, vertex
        basis = vertex.basis
        y, d = _multipliers(vertex, obj), _multipliers(vertex, rows[j])
        leave = None  # the position in `basis` of the least y_k / d_k
        for p, dk in enumerate(d):
            if dk > 0:
                if leave is None:
                    leave = p
                    continue
                diff = y[p] * d[leave] - y[leave] * dk
                if diff < 0 or diff == 0 and basis[p] < basis[leave]:
                    leave = p
        if leave is None:
            return None, [j] + [k for k, dk in zip(basis, d) if dk < 0]
        vertex = _pivot(rows, vertex, leave, j)


def _walk(rows: Sequence[tuple[int, ...]], others: Sequence[int], i: int,
          vertex: _Vertex) -> Optional[_Vertex]:
    """Decide whether the rows `others` (ascending positions in `rows`)
    imply row `i`, by a primal simplex for ``max a_i . x`` over them started at the
    vertex `vertex`: a basis among `others` and `i` whose rows meet in a
    point that satisfies all of them, with the normals spanning every
    variable.

    Returns a basis of a vertex of `others` at which the maximum is
    reached, at most ``b_i`` (the row is implied), or None as soon as a
    point of `others` violates row `i` or an edge runs off unbounded (the
    row is needed).  If `i` is in the basis, it is pivoted out first: the edge
    that leaves its plane outwards, and a positive step along it already
    violates it.  Then, while some multiplier of ``a_i`` in the basis rows
    is negative, the row of lowest position among them leaves and the
    ratio test picks the row that enters, ties to the lowest position
    (Bland's rule: no cycling).  Each basis is inverted once
    (:class:`_Vertex`), and its point, multipliers and edges are read from
    that inverse."""
    a = rows[i]

    def edge(pos: int, out: int, x: tuple[list[int], int]
             ) -> Optional[tuple[int, int]]:
        """The row that enters and its slack at the point `x` of the basis,
        along the edge that keeps every basis row but ``basis[pos]`` tight
        and moves ``a . x`` of that row by `out`; None if no row of
        `others` bounds the edge."""
        num, den = x
        d = [out * row[pos] for row in vertex.adj]
        best = None  # (row, slack, rate): the least slack / rate
        for k in others:
            rate = _dot(rows[k], d)
            if rate > 0 and k not in vertex.basis:
                slack = rows[k][-1] * den - _dot(rows[k], num)
                if best is None or slack * best[2] < best[1] * rate:
                    best = (k, slack, rate)
        return None if best is None else best[:2]

    x = None  # the point of the basis, solved when a step needs it
    if i in vertex.basis:
        pos = vertex.basis.index(i)
        x = _point(rows, vertex)
        found = edge(pos, 1, x)
        if found is None or found[1] > 0:
            return None
        vertex = _pivot(rows, vertex, pos, found[0])  # a zero step: the point stays
    while True:
        lam = _multipliers(vertex, a)
        neg = [k for k, l in zip(vertex.basis, lam) if l < 0]
        if not neg:
            return vertex
        pos = vertex.basis.index(min(neg))
        found = edge(pos, -1, x or _point(rows, vertex))
        if found is None:
            return None
        vertex = _pivot(rows, vertex, pos, found[0])
        x = _point(rows, vertex)
        if _dot(a, x[0]) > a[-1] * x[1]:
            return None
