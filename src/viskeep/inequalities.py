"""Exact rational systems of linear inequalities.

A system is a finite list of rows ``g . x <= r`` over ``num_vars`` variables,
with every coefficient and right-hand side a :class:`fractions.Fraction`.
Everything here is exact: projection by Fourier-Motzkin elimination,
feasibility decisions and redundancy removal produce certificates that are
free of floating-point ambiguity.  Feasibility and implication are linear
programs over nonnegative multipliers of the rows, solved by one small
two-phase simplex (:func:`_simplex`) whose every pivot is exact.

The exact work runs in Python integers, fraction-free.  Each row is read
in its primitive integer form ``(a_1, ..., a_n, b)`` (:func:`normalized_key`,
a positive multiple of the row), linear systems are solved by Bareiss
elimination into numerators over one determinant (:func:`_solve_exact`), the
simplex tableau is kept the same way, and a test is an integer sign test
such as ``a . num <= b * den``.  Fractions are built only at the edges: the
rows themselves and the points handed back.  Irrational constants enter
only through :func:`rationalize`, which makes the single approximation
point explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

#: Default bound on denominators when approximating irrational constants.
DEFAULT_MAX_DENOMINATOR = 10**12


def rationalize(x: float, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Fraction:
    """Nearest rational with denominator <= max_denominator.

    This is the only place where a float is *rounded* into the exact world;
    plain ``Fraction(x)`` conversions elsewhere are exact by construction.
    """
    return Fraction(x).limit_denominator(max_denominator)


def rational(text: str) -> Fraction:
    """`text` read as a rational; a zero denominator is a ValueError like
    any other malformed number."""
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


def normalized_key(row: Row) -> tuple[int, ...]:
    """Canonical form used for exact duplicate detection, and the integer
    form every exact test reads: the primitive integer vector
    ``(a_1, ..., a_n, b)``, a positive multiple of ``(g, rhs)`` with gcd 1.

    The scale is positive, so ``a . x <= b`` is the same inequality, and two
    rows share a key iff one is a positive multiple of the other.  A row
    with all-zero coefficients gets ``b`` in {-1, 0, 1}.
    """
    return _primitive(_over(row.g + (row.rhs,))[0])


def _key_row(key: Sequence[int]) -> Row:
    """The row of `key` with integer coefficients of gcd 1 (a zero row
    keeps the key's right-hand side in {-1, 0, 1})."""
    g = gcd(*key[:-1]) or 1
    return Row(tuple(Fraction(a // g) for a in key[:-1]), Fraction(key[-1], g))


def _scaled_rows(scaled: Iterable[tuple[Sequence[int], int]]
                 ) -> tuple[tuple[Row, ...], tuple[tuple[int, ...], ...]]:
    """The rows ``nums / den`` (``den > 0``, last entry the right-hand
    side) with exact duplicates dropped, keeping the first occurrence, and
    their keys.  Duplicates are found on the integers; only the rows that
    survive are built as Fractions."""
    rows, keys, seen = [], [], set()
    for nums, den in scaled:
        key = _primitive(nums)
        if key not in seen:
            seen.add(key)
            keys.append(key)
            rows.append(Row(tuple(Fraction(a, den) for a in nums[:-1]),
                            Fraction(nums[-1], den)))
    return tuple(rows), tuple(keys)


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    """``sum a_k x_k`` over the shorter of the two (a row's right-hand side
    is left out against a point)."""
    return sum(map(mul, a, x))


def _holds(a: Sequence[int], x: tuple[Sequence[int], int]) -> bool:
    """The integer row ``a = (a_1, ..., a_n, b)`` holds at the point
    ``num / den`` (``den > 0``): ``a . num <= b * den``."""
    num, den = x
    return _dot(a, num) <= a[-1] * den


@dataclass(frozen=True)
class LinearInequalitySystem:
    """Immutable system ``A x <= b`` with exact rational entries."""

    num_vars: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row.g) != self.num_vars:
                raise ValueError(
                    f"row has {len(row.g)} coefficients, expected {self.num_vars}"
                )

    @cached_property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row's integer form, :func:`normalized_key`; every exact
        decision reads these, never the Fractions."""
        return tuple(map(normalized_key, self.rows))

    @classmethod
    def _keyed(cls, num_vars: int, rows: Sequence[Row],
               keys: Sequence[tuple[int, ...]]) -> "LinearInequalitySystem":
        """System of `rows` whose integer forms `keys` are already known."""
        system = cls(num_vars, tuple(rows))
        system.__dict__["int_rows"] = tuple(keys)
        return system

    def __len__(self) -> int:
        return len(self.rows)

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
        for row, key in zip(self.rows, self.int_rows):
            c = key[var]
            (zero if c == 0 else pos if c > 0 else neg).append((row, key))

        def drop(t: tuple) -> tuple:
            return t[:var] + t[var + 1:]

        candidates = [(drop(key), Row(drop(row.g), row.rhs)) for row, key in zero]
        candidates += [
            # -n_var * p + p_var * n: a positive combination in which var cancels
            (drop(_primitive([-n[var] * cp + p[var] * cn for cp, cn in zip(p, n)])), None)
            for _, p in pos for _, n in neg
        ]
        rows, keys, seen = [], [], set()
        for key, row in candidates:
            if key not in seen:
                seen.add(key)
                keys.append(key)
                rows.append(_key_row(key) if row is None else row)
        return LinearInequalitySystem._keyed(self.num_vars - 1, rows, keys)

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
        linear program over multipliers of the rows (see
        :func:`_farkas_set`): empty iff some nonnegative combination reads
        ``0 <= negative``."""
        return _farkas_set(self.int_rows, self.num_vars) is None

    # ------------------------------------------------------------------
    # Redundancy removal
    # ------------------------------------------------------------------

    def reduce(self) -> "LinearInequalitySystem":
        """Drop every row implied by the others; solution set unchanged.

        Rows are visited in order, and row ``i`` is dropped iff the rows
        still surviving besides it imply it, i.e. admit no point with
        ``g_i . x > c_i`` (this includes the case where they admit no point
        at all).  One exact linear program decides whether the rows are
        empty (:func:`_farkas_set`), and the verdict is kept as the rows
        are dropped:

        * nonempty: row ``i`` is dropped iff the least ``sum y_j c_j`` over
          ``y >= 0`` on the other survivors with ``sum y_j g_j = g_i`` is at
          most ``c_i`` (:func:`_implies`); when no such ``y`` exists the
          others are unbounded along ``g_i`` and the row is kept;
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
        survivors = list(range(len(self.rows)))
        by_elimination = len(survivors) <= n
        farkas = None if by_elimination else _farkas_set(ints, n)
        i = 0
        while i < len(survivors):
            k = survivors[i]
            others = survivors[:i] + survivors[i + 1:]
            if by_elimination:
                implied = _implied([self.rows[j] for j in others], self.rows[k], n)
            elif farkas is None:
                implied = _implies([ints[j] for j in others], n, ints[k])
            else:
                implied = k not in farkas
                if not implied:
                    rest = _farkas_set([ints[j] for j in others], n)
                    if rest is not None:
                        farkas, implied = [others[j] for j in rest], True
            if implied:
                survivors.pop(i)
            else:
                i += 1
        return LinearInequalitySystem._keyed(
            n, [self.rows[j] for j in survivors], [ints[j] for j in survivors])

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def satisfies(self, point: Sequence, tol: float = 0.0) -> bool:
        """True iff ``g . point <= rhs + tol`` for every row.

        With ``tol == 0`` and a vector of rationals/ints the test is exact,
        an integer sign test per row on the point over one denominator;
        otherwise it is evaluated in floating point.
        """
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} entries, expected {self.num_vars}"
            )
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        exact = tol == 0 and all(isinstance(x, (Fraction, int)) for x in point)
        if exact:
            pt = _over(point)
            return all(_holds(a, pt) for a in self.int_rows)
        pt = [float(x) for x in point]
        return all(
            sum(float(c) * x for c, x in zip(row.g, pt)) <= float(row.rhs) + tol
            for row in self.rows
        )

    def slacks(self, point: Sequence) -> list[float]:
        """Float slack ``rhs - g . point`` per row (negative = violated)."""
        pt = [float(x) for x in point]
        return [
            float(row.rhs) - sum(float(c) * x for c, x in zip(row.g, pt))
            for row in self.rows
        ]

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
            coeffs = [rational(tok) for tok in lhs.split()]
            if width is None:
                width = len(coeffs)
            elif len(coeffs) != width:
                raise ValueError(f"line {lineno}: inconsistent variable count")
            rows.append(Row(tuple(coeffs), rational(rhs.strip())))
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


def _solve_exact(M: Sequence[Sequence[int]],
                 rhs: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """Fraction-free (Bareiss) solution of ``M x = rhs`` over the integers:
    ``(num, det)`` with ``x = num / det`` and ``det = |det M| > 0``, or None
    if M is singular.

    Every entry of the eliminated matrix is a minor of ``[M | rhs]``, so
    each division by the previous pivot is exact and entries grow only as
    minors do, with no gcd taken (Bareiss, Math. Comp. 22, 1968; Edmonds,
    J. Res. NBS 71B, 1967); back-substitution gives
    the Cramer numerators ``det(M_i)`` (``M`` with column i replaced by
    ``rhs``), also by exact division.  Entries below the diagonal are left
    as they are; nothing reads them again.
    """
    k = len(M)
    aug = [list(row) + [r] for row, r in zip(M, rhs)]
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
            for j in range(col + 1, k + 1):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
    det = prev  # the last pivot: det M, up to the sign of the row swaps
    num = [0] * k
    for i in range(k - 1, -1, -1):
        row = aug[i]
        num[i] = (det * row[k] - _dot(row[i + 1:k], num[i + 1:])) // row[i]
    if det < 0:
        return [-v for v in num], -det
    return num, det


def _simplex(cols: Sequence[Sequence[int]], rhs: Sequence[int],
             costs: Sequence[int], reached: Callable[[int, int], bool]
             ) -> Optional[tuple[bool, list[int]]]:
    """Two-phase simplex in integers for ``min costs . y`` subject to
    ``sum_j y_j cols[j] = rhs`` and ``y >= 0``.

    None if no ``y >= 0`` meets the equations.  Otherwise the second phase
    pivots until ``reached(num, den)`` holds for the objective ``num / den``
    of the current basic solution, or until that solution is optimal, and
    the result is whether `reached` held, with the support of the solution
    (the ``j`` with ``y_j > 0``).

    The tableau is fraction-free: integers over one positive common
    denominator ``den``, the determinant of the basis up to sign.  A pivot
    at ``p`` replaces every other row ``t`` by ``(p t - t_c top) / den``, an
    exact division, and ``p`` becomes the denominator (Edmonds, J. Res. NBS
    71B, 1967; Bareiss, Math. Comp. 22, 1968).  The first phase starts from
    one artificial variable per equation, each equation signed so that its
    right-hand side is >= 0, and minimises their sum; an artificial still
    basic at zero is then pivoted out at any nonzero entry of its row, the
    row negated first when that entry is negative.  Both phases follow
    Bland's rule (the lowest entering index, ratio ties to the lowest basic
    index), so neither cycles.
    """
    k, m = len(cols), len(rhs)
    tab = []
    for r, b in enumerate(rhs):
        sign = -1 if b < 0 else 1
        tab.append([sign * col[r] for col in cols]
                   + [int(j == r) for j in range(m)] + [sign * b])
    cost = list(costs) + [0] * (m + 1)
    phase1 = [int(k <= j < k + m) - sum(row[j] for row in tab)
              for j in range(k + m + 1)]
    tab += [cost, phase1]
    basis = list(range(k, k + m))
    den = 1

    def pivot(r: int, c: int) -> None:
        nonlocal den
        top = tab[r]
        if top[c] < 0:  # only an artificial at zero leaves at one
            top[:] = [-v for v in top]
        p = top[c]
        for row in tab:
            if row is not top:
                f = row[c]
                row[:] = [(p * v - f * t) // den for v, t in zip(row, top)]
        den = p
        basis[r] = c

    def solve(obj: list[int], done: Callable[[], bool]) -> bool:
        """Pivot on the objective row `obj` until `done()` (True) or until
        no column improves it (False)."""
        while not done():
            c = next((j for j in range(k) if obj[j] < 0), None)
            if c is None:
                return False
            r = None  # the least ratio rhs / entry over the positive entries
            for i in range(m):
                a = tab[i][c]
                if a > 0:
                    if r is None:
                        r = i
                        continue
                    d = tab[i][-1] * tab[r][c] - tab[r][-1] * a
                    if d < 0 or d == 0 and basis[i] < basis[r]:
                        r = i
            if r is None:  # neither caller's problem is unbounded
                raise ArithmeticError("unbounded linear program")
            pivot(r, c)
        return True

    solve(phase1, lambda: phase1[-1] == 0)
    if phase1[-1] < 0:  # the artificials sum to -phase1[-1] / den > 0
        return None
    tab.pop()
    for r in range(m):
        if basis[r] >= k:
            c = next((j for j in range(k) if tab[r][j]), None)
            if c is not None:
                pivot(r, c)
    hit = solve(cost, lambda: reached(-cost[-1], den))
    return hit, [basis[r] for r in range(m) if basis[r] < k and tab[r][-1] > 0]


def _farkas_set(keys: Sequence[tuple[int, ...]],
                num_vars: int) -> Optional[list[int]]:
    """Positions of integer rows among `keys` that have no common point, or
    None if all of them have one.

    One linear program over multipliers ``y >= 0``: ``min sum y_j b_j``
    subject to ``sum y_j a_j = 0`` and ``sum y_j = 1``.  By duality its
    optimum is the largest ``t`` for which some point meets every row with
    slack ``t``.  A negative value reads ``0 <= negative`` (Farkas), and the
    rows of its support have no common point.  When no such ``y`` exists,
    some direction decreases every ``a_j . x`` (Gordan), and far enough
    along it every row holds."""
    found = _simplex([a[:num_vars] + (1,) for a in keys], [0] * num_vars + [1],
                     [a[-1] for a in keys], lambda value, den: value < 0)
    return found[1] if found is not None and found[0] else None


def _implies(keys: Sequence[tuple[int, ...]], num_vars: int,
             a: tuple[int, ...]) -> bool:
    """Whether the integer rows `keys`, which have a common point, imply the
    row `a`: some ``y >= 0`` has ``sum y_j a_j`` equal to its normal and
    ``sum y_j b_j`` at most its right-hand side.  The least such sum is the
    maximum of ``a . x`` over the rows (duality); when no ``y`` combines to
    the normal, the rows are unbounded along it."""
    found = _simplex([r[:num_vars] for r in keys], a[:num_vars],
                     [r[-1] for r in keys], lambda value, den: value <= a[-1] * den)
    return found is not None and found[0]
