"""Exact rational systems of linear inequalities.

A system is a finite list of rows ``g . x <= r`` over ``num_vars`` variables,
with every coefficient and right-hand side a :class:`fractions.Fraction`.
Everything here is exact: projection by Fourier-Motzkin elimination,
feasibility decisions and redundancy removal produce certificates that are
free of floating-point ambiguity.  Floats may propose a certificate (a
feasible point, a Farkas set, an implying combination, a witness point, the
active rows of a nearest point), all from one table of rows and their bases
(:func:`_float_table`), but each is checked exactly before it decides
anything, and elimination decides whatever no verified certificate settles.

The exact checks run in Python integers, fraction-free.  Each row is read
in its primitive integer form ``(a_1, ..., a_n, b)`` (:func:`normalized_key`,
a positive multiple of the row), linear systems are solved by Bareiss
elimination into numerators over one determinant (:func:`_solve_exact`), and
a test is an integer sign test such as ``a . num <= b * den``.  Fractions
are built only at the edges: the rows themselves and the points handed
back.  Irrational constants enter only through :func:`rationalize`, which
makes the single approximation point explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

#: Default bound on denominators when approximating irrational constants.
DEFAULT_MAX_DENOMINATOR = 10**12

#: Most row subsets a float proposal table solves (at most about 0.2 MB per
#: 1,000 subsets in 3 variables); larger systems get no proposals and are
#: decided by elimination alone.
MAX_PROPOSAL_SUBSETS = 40_000


def rationalize(x: float, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Fraction:
    """Nearest rational with denominator <= max_denominator.

    This is the only place where a float is *rounded* into the exact world;
    plain ``Fraction(x)`` conversions elsewhere are exact by construction.
    """
    return Fraction(x).limit_denominator(max_denominator)


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
        """Exact nonemptiness of the solution set.

        Decided by an exact certificate that floats propose (see
        :class:`_Certifier`): nonempty when the origin or the intersection
        point of ``num_vars`` rows satisfies every row, empty when at most
        ``num_vars + 1`` rows have nonnegative multipliers combining to
        ``0 <= negative`` (Farkas).  When neither verifies, the system is
        projected onto the empty variable set by Fourier-Motzkin
        elimination, and it is feasible iff every surviving constant row
        has a nonnegative right-hand side.
        """
        verdict = _Certifier(self).feasible()
        if verdict is None:
            projected = self.project(())
            verdict = all(row.rhs >= 0 for row in projected.rows)
        return verdict

    # ------------------------------------------------------------------
    # Redundancy removal
    # ------------------------------------------------------------------

    def reduce(self) -> "LinearInequalitySystem":
        """Drop every row implied by the others; solution set unchanged.

        Rows are visited in order, and row ``i`` is dropped iff the rows
        still surviving besides it imply it, i.e. admit no point with
        ``g_i . x > c_i`` (this includes the case where they admit no point
        at all).  Each decision rests on an exact rational certificate that
        floats only propose (see :class:`_Certifier`):

        * implied: multipliers ``y >= 0`` on at most ``num_vars``
          independent other rows with ``sum y_j g_j = g_i`` and
          ``sum y_j c_j <= c_i``;
        * implied because the others are empty: multipliers ``y >= 0`` on
          at most ``num_vars + 1`` other rows with ``sum y_j g_j = 0`` and
          ``sum y_j c_j < 0`` (Farkas), reused while its rows survive;
        * kept: a point that satisfies every other survivor and violates
          row ``i``: the intersection point of ``num_vars`` other rows, or
          (when no such vertex exists, for instance because the others are
          unbounded along ``g_i``) the intersection point of a basis that
          holds row ``i``, with row ``i`` pushed out past its bound.

        When no proposal verifies (for instance when the other rows have no
        vertex, or the system has more than ``MAX_PROPOSAL_SUBSETS``
        ``num_vars``-row subsets), the row is decided by Fourier-Motzkin
        elimination of the test system: the other rows plus
        ``-g_i . x + s <= -c_i`` with an auxiliary slack ``s``, projected
        onto ``s``.  Every decision is exact, so which route settles a row
        never changes the result.
        """
        certifier = _Certifier(self)
        survivors = list(range(len(self.rows)))
        i = 0
        while i < len(survivors):
            k = survivors[i]
            verdict = certifier.decide(k)
            if verdict is None:
                others = [self.rows[j] for j in survivors if j != k]
                verdict = _implied(others, self.rows[k], self.num_vars)
            if verdict:
                survivors.pop(i)
                certifier.drop(k)
            else:
                i += 1
        return LinearInequalitySystem(
            self.num_vars, tuple(self.rows[j] for j in survivors)
        )

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
            coeffs = [Fraction(tok) for tok in lhs.split()]
            if width is None:
                width = len(coeffs)
            elif len(coeffs) != width:
                raise ValueError(f"line {lineno}: inconsistent variable count")
            rows.append(Row(tuple(coeffs), Fraction(rhs.strip())))
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


#: Float tolerance of the proposals (on rows scaled to unit norm); it only
#: decides which certificate to verify first, never a verdict.
_EPS = 1e-9
#: Proposals of each kind verified per decision before falling back.
_TRIES = 3


def _float_table(rows: Sequence[Row], num_vars: int, sizes: Sequence[int]):
    """The table every float proposal is drawn from: the rows as floats
    scaled to unit normals (a zero row keeps the sign of its right-hand
    side), ``(G, c)``, the float length of each row, and for each size in
    `sizes` the subsets of that many rows whose normals are independent in
    floats.  None when a value does not fit a float or there are more than
    ``MAX_PROPOSAL_SUBSETS`` subsets."""
    m = len(rows)
    if sum(comb(m, k) for k in sizes) > MAX_PROPOSAL_SUBSETS:
        return None
    try:
        G = np.array([[float(c) for c in r.g] for r in rows]).reshape(m, num_vars)
        c = np.array([float(r.rhs) for r in rows])
    except OverflowError:
        return None
    norm = np.linalg.norm(G, axis=1)
    zero = norm == 0
    scale = np.where(zero, 1.0, norm)
    G, c = G / scale[:, None], np.where(zero, np.sign(c), c / scale)
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(c))):
        return None
    regular = []
    for k in sizes:
        subsets = np.array(list(combinations(range(m), k)), dtype=np.intp).reshape(-1, k)
        GS = G[subsets]
        regular.append(subsets[np.linalg.det(GS @ GS.transpose(0, 2, 1)) > 1e-10])
    return G, c, scale, regular


def _nearest_point_proposals(rows: Sequence[Row], num_vars: int) -> list[tuple[int, ...]]:
    """Row sets of at most ``num_vars`` rows whose float projection of the
    origin satisfies every row and has multipliers ``<= 0`` (the nearest
    point's KKT conditions), least norm first, at most ``_TRIES``."""
    table = _float_table(rows, num_vars, range(1, num_vars + 1))
    if table is None:
        return []
    G, c, _, regular = table
    found = []  # (norm^2, subset)
    for subsets in regular:
        GS = G[subsets]
        lam = np.linalg.solve(GS @ GS.transpose(0, 2, 1), c[subsets][..., None])[..., 0]
        x = np.einsum("bk,bkn->bn", lam, GS)
        ok = np.all(x @ G.T <= c + _EPS, axis=1) & np.all(lam <= _EPS, axis=1)
        found += [(float(x[b] @ x[b]), tuple(int(j) for j in subsets[b]))
                  for b in np.flatnonzero(ok)]
    found.sort(key=lambda f: f[0])
    return [subset for _, subset in found[:_TRIES]]


class _Certifier:
    """Exact certificates, proposed in floats, for the decisions of reduce()
    and is_feasible().

    Every ``num_vars``-row subset of the rows with independent normals (a
    *basis*) is solved once in numpy: its intersection point ``x_B`` and its
    inverse.  A decision on row ``i`` then filters the bases made of other
    surviving rows for (a) intersection points that satisfy every other
    survivor and violate row ``i`` (a non-implication witness), (b)
    nonnegative multipliers that combine to row ``i`` (an implication), or
    (c) a basis plus one more row whose nonnegative combination reads
    ``0 <= negative`` (the others are empty).  When none of these holds up,
    the surviving bases that hold row ``i`` give one more witness: the point
    ``x_B + inv[:, pos(i)]`` that keeps the other basis rows tight and
    pushes row ``i`` out by one unit, which is how a row is shown needed
    when the others are unbounded along ``g_i``.  The best few proposals
    are checked exactly, on each row's integer form ``(a, b)`` (see
    :func:`normalized_key`): a point is solved by :func:`_solve_exact` as
    ``num / den`` and tested with ``a . num <= b * den``; multipliers are
    solved the same way, and only their signs and one combined right-hand
    side are compared.  Positive row scales change neither the points nor
    the signs, so these are the ``Fraction`` certificates of the rows as
    given.  :meth:`decide` returns None
    when none holds up.  :meth:`feasible` decides the whole system from the
    same table: an intersection point satisfying every row, or a basis plus
    one row reading ``0 <= negative``.
    """

    def __init__(self, system: LinearInequalitySystem):
        rows = self.rows = system.rows
        num_vars = self.n = system.num_vars
        self.ints = system.int_rows
        self.alive = np.ones(len(rows), dtype=bool)
        self.farkas: Optional[frozenset] = None  # rows with no common point
        self.bases = None
        m = len(rows)
        table = (_float_table(rows, num_vars, (num_vars,))
                 if 0 < num_vars < m else None)
        if table is None:
            return
        self.G, self.c, self.length, (bases,) = table
        self.inv = np.linalg.inv(self.G[bases]) if len(bases) else self.G[bases]
        self.x = np.einsum("bij,bj->bi", self.inv, self.c[bases])
        if not np.all(np.isfinite(self.x)):
            return
        self.bases = bases
        self.base_alive = np.ones(len(bases), dtype=bool)
        # number of surviving rows each intersection point violates
        self.nviol = np.zeros(len(bases), dtype=np.intp)
        for j in range(m):
            self.nviol += self._slack(j) < -_EPS

    def _slack(self, j: int) -> np.ndarray:
        return self.c[j] - self.x @ self.G[j]

    def _multipliers(self, usable: np.ndarray, j: int) -> np.ndarray:
        """``y`` with ``sum_b y_b g_b = g_j`` over each usable basis (unit
        rows, so the signs are those of the exact multipliers)."""
        return np.einsum("bji,j->bi", self.inv[usable], self.G[j])

    def _without(self, j: int) -> np.ndarray:
        return ~(self.bases == j).any(axis=1)

    def drop(self, j: int) -> None:
        self.alive[j] = False
        if self.farkas is not None and j in self.farkas:
            self.farkas = None
        if self.bases is not None:
            self.nviol -= self._slack(j) < -_EPS
            self.base_alive &= self._without(j)

    def feasible(self) -> Optional[bool]:
        """True if some point satisfies every row, False if some rows have
        no common point, None if no proposal verified."""
        if all(a[-1] >= 0 for a in self.ints):
            return True  # the origin
        if any(not any(a[:-1]) and a[-1] < 0 for a in self.ints):
            return False  # 0 <= c with c < 0
        if self.bases is not None:
            cand = np.flatnonzero(self.nviol == 0)
            worst = (self.c - self.x[cand] @ self.G.T).min(axis=1, initial=np.inf)
            for b in cand[np.argsort(-worst, kind="stable")][:_TRIES]:
                x = self._vertex(b)
                if x is not None and self._satisfies_others(None, x):
                    return True
            if self._farkas(None, np.arange(len(self.bases))):
                return False
        return None

    def decide(self, i: int) -> Optional[bool]:
        """True if row i is implied by the other survivors, False if not,
        None if no proposal verified."""
        a = self.ints[i]
        if not any(a[:-1]) and a[-1] >= 0:
            return True  # 0 <= c_i holds everywhere
        if self.farkas is not None and i not in self.farkas:
            return True
        if self.bases is None:
            return None
        usable = np.flatnonzero(self.base_alive & self._without(i))
        s_i = self._slack(i)[usable]
        viol_i = s_i < -_EPS
        feasible = self.nviol[usable] - viol_i == 0
        if not feasible.any():
            return True if self._farkas(i, usable) else None
        order = np.flatnonzero(feasible & (s_i < 0))
        witnesses = usable[order[np.argsort(s_i[order], kind="stable")][:_TRIES]]
        margin = np.minimum(self._multipliers(usable, i).min(axis=1), s_i)
        order = np.flatnonzero(margin >= -_EPS)
        implications = usable[order[np.argsort(-margin[order], kind="stable")][:_TRIES]]
        implied_first = not (len(witnesses) and self._slack(i)[witnesses[0]] < -_EPS)
        for implied in (implied_first, not implied_first):
            if implied and any(self._implication(i, b) for b in implications):
                return True
            if not implied and any(
                self._violates_only(i, self._vertex(b)) for b in witnesses
            ):
                return False
        if self._pushed_out_witness(i):
            return False
        return None

    def _basis_rows(self, b: int) -> list[tuple[int, ...]]:
        return [self.ints[j] for j in self.bases[b]]

    def _vertex(self, b: int, pushed: Optional[int] = None
                ) -> Optional[tuple[list[int], int]]:
        """Exact intersection point ``num / den`` of the rows of basis b,
        with the right-hand side of row `pushed` raised by its float length
        (the length of the row as given, which its integer form scales)."""
        B = self._basis_rows(b)
        rhs = [a[-1] for a in B]
        den = 1
        if pushed is not None:
            row, key = self.rows[pushed], self.ints[pushed]
            k = next(k for k, c in enumerate(row.g) if c)
            shift = Fraction(key[k]) / row.g[k] * Fraction(float(self.length[pushed]))
            den = shift.denominator
            rhs = [r * den for r in rhs]
            rhs[list(self.bases[b]).index(pushed)] += shift.numerator
        found = _solve_exact([a[:-1] for a in B], rhs)
        return None if found is None else (found[0], found[1] * den)

    def _satisfies_others(self, i: Optional[int],
                          x: tuple[list[int], int]) -> bool:
        return all(_holds(self.ints[j], x)
                   for j in np.flatnonzero(self.alive) if j != i)

    def _violates_only(self, i: int,
                       x: Optional[tuple[list[int], int]]) -> bool:
        """x is a non-implication witness for row i: it violates row i and
        satisfies every other survivor."""
        return (x is not None and not _holds(self.ints[i], x)
                and self._satisfies_others(i, x))

    def _pushed_out_witness(self, i: int) -> bool:
        """Witness from a surviving basis that holds row i, with row i
        pushed out by one unit of its scaled row and the other basis rows
        kept tight: ``x_B + inv[:, pos(i)]`` in floats.  The point always
        violates row i; it is a witness when it satisfies every other
        survivor, which covers the others being unbounded along ``g_i``."""
        cand = np.flatnonzero(self.base_alive & (self.bases == i).any(axis=1))
        pos = np.argmax(self.bases[cand] == i, axis=1)
        x = self.x[cand] + self.inv[cand, :, pos]
        others = self.alive.copy()
        others[i] = False
        ok = np.all(x @ self.G[others].T <= self.c[others] + _EPS, axis=1)
        return any(self._violates_only(i, self._vertex(b, pushed=i))
                   for b in cand[ok][:_TRIES])

    def _combination(self, b: int, a: Sequence[int]):
        """``(y, s, det)``: ``y / det >= 0`` with ``sum y_j a_j = det * a``
        over the integer rows of basis b (right-hand sides aside), and their
        combined right-hand side ``s / det = sum y_j b_j / det``; None
        unless ``y >= 0``."""
        B = self._basis_rows(b)
        found = _solve_exact([[r[k] for r in B] for k in range(self.n)], a[:self.n])
        if found is None or any(v < 0 for v in found[0]):
            return None
        y, det = found
        return y, sum(v * r[-1] for v, r in zip(y, B)), det

    def _implication(self, i: int, b: int) -> bool:
        a = self.ints[i]
        found = self._combination(b, a)
        return found is not None and found[1] <= a[-1] * found[2]

    def _farkas(self, i: Optional[int], usable: np.ndarray) -> bool:
        """Find and keep a verified set of survivors other than row i with
        no common point: basis b and row k with ``a_k + sum y_j a_j = 0``,
        ``y >= 0`` and ``b_k + sum y_j b_j < 0``."""
        proposals = []
        for k in np.flatnonzero(self.alive):
            if k == i:
                continue
            keep = self._without(k)[usable]
            if not keep.any():
                continue
            cand = usable[keep]
            y = -self._multipliers(cand, k)
            margin = np.minimum(y.min(axis=1), -self._slack(k)[cand])
            best = int(np.argmax(margin))
            if margin[best] > -_EPS:
                proposals.append((-margin[best], int(k), int(cand[best])))
        for _, k, b in sorted(proposals)[:_TRIES]:
            a = self.ints[k]
            found = self._combination(b, [-c for c in a])
            if found is not None and a[-1] * found[2] + found[1] < 0:
                self.farkas = frozenset(
                    [k] + [int(j) for j, v in zip(self.bases[b], found[0]) if v > 0]
                )
                return True
        return False
