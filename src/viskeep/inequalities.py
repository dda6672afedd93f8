"""Exact rational systems of linear inequalities.

A system is a finite list of rows ``g . x <= r`` over ``num_vars`` variables,
with every coefficient and right-hand side a :class:`fractions.Fraction`.
Everything here is exact: projection by Fourier-Motzkin elimination,
feasibility decisions and redundancy removal produce certificates that are
free of floating-point ambiguity.  Floats may propose a certificate (a
feasible point, a Farkas set, an implying combination, the active rows of
a nearest point), all from one table (:func:`_float_table`), but each is
checked in ``Fraction`` arithmetic before it decides anything, and
elimination decides whatever no verified certificate settles.  Irrational
constants enter only through :func:`rationalize`, which makes the single
approximation point explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
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


def make_row(coeffs: Sequence, rhs) -> Row:
    return Row(tuple(Fraction(c) for c in coeffs), Fraction(rhs))


def normalized_key(row: Row) -> tuple:
    """Canonical form used for exact duplicate detection.

    Coefficients are scaled to integers with overall gcd 1 (positive scale
    only, so the inequality direction is preserved).  A row with all-zero
    coefficients is scaled so its rhs lies in {-1, 0, 1}.
    """
    if all(c == 0 for c in row.g):
        r = row.rhs
        if r != 0:
            r = Fraction(1 if r > 0 else -1)
        return (row.g, r)
    denom_lcm = lcm(*(c.denominator for c in row.g))
    ints = [c.numerator * (denom_lcm // c.denominator) for c in row.g]
    g = gcd(*ints)
    return (tuple(Fraction(v // g) for v in ints),
            row.rhs * Fraction(denom_lcm, g))


def normalize_row(row: Row) -> Row:
    key = normalized_key(row)
    return Row(tuple(key[0]), key[1])


def _dedup(rows: Iterable[Row]) -> tuple[Row, ...]:
    seen = set()
    out = []
    for row in rows:
        key = normalized_key(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return tuple(out)


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

    @classmethod
    def from_rows(cls, num_vars: int, rows: Iterable) -> "LinearInequalitySystem":
        return cls(num_vars, tuple(make_row(g, rhs) for g, rhs in rows))

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
        for row in self.rows:
            c = row.g[var]
            if c == 0:
                zero.append(row)
            elif c > 0:
                pos.append(row)
            else:
                neg.append(row)

        def drop(row: Row) -> Row:
            return Row(row.g[:var] + row.g[var + 1:], row.rhs)

        out: list[Row] = [drop(r) for r in zero]
        for p in pos:
            inv_p = 1 / p.g[var]
            for n in neg:
                inv_n = -1 / n.g[var]
                g = tuple(
                    cp * inv_p + cn * inv_n
                    for cp, cn in zip(drop(p).g, drop(n).g)
                )
                rhs = p.rhs * inv_p + n.rhs * inv_n
                out.append(normalize_row(Row(g, rhs)))
        return LinearInequalitySystem(self.num_vars - 1, _dedup(out))

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
        verdict = _Certifier(self.rows, self.num_vars).feasible()
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
        * kept: the intersection point of ``num_vars`` other rows, which
          satisfies every other survivor and violates row ``i``; when the
          others are unbounded along ``g_i``, that point moved far enough
          along an extreme ray of theirs.

        When no proposal verifies (for instance when the other rows have no
        vertex, or the system has more than ``MAX_PROPOSAL_SUBSETS``
        ``num_vars``-row subsets), the row is decided by Fourier-Motzkin
        elimination of the test system: the other rows plus
        ``-g_i . x + s <= -c_i`` with an auxiliary slack ``s``, projected
        onto ``s``.  Every decision is exact, so which route settles a row
        never changes the result.
        """
        certifier = _Certifier(self.rows, self.num_vars)
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

        With ``tol == 0`` and a vector of rationals/ints the test is exact;
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
            pt = [Fraction(x) for x in point]
            return all(
                sum(c * x for c, x in zip(row.g, pt)) <= row.rhs
                for row in self.rows
            )
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


def _solve_exact(M: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Gaussian elimination over the rationals; None if singular."""
    k = len(M)
    aug = [row[:] + [r] for row, r in zip(M, rhs)]
    for col in range(k):
        pivot = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[k] for row in aug]


def _dot(g: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum((c * v for c, v in zip(g, x)), Fraction(0))


#: Float tolerance of the proposals (on rows scaled to unit norm); it only
#: decides which certificate to verify first, never a verdict.
_EPS = 1e-9
#: Proposals of each kind verified per decision before falling back.
_TRIES = 3


def _float_table(rows: Sequence[Row], num_vars: int, sizes: Sequence[int]):
    """The table every float proposal is drawn from: the rows as floats
    scaled to unit normals (a zero row keeps the sign of its right-hand
    side), ``(G, c)``, and for each size in `sizes` the subsets of that many
    rows whose normals are independent in floats.  None when a value does
    not fit a float or there are more than ``MAX_PROPOSAL_SUBSETS`` subsets."""
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
    return G, c, regular


def _nearest_point_proposals(rows: Sequence[Row], num_vars: int) -> list[tuple[int, ...]]:
    """Row sets of at most ``num_vars`` rows whose float projection of the
    origin satisfies every row and has multipliers ``<= 0`` (the nearest
    point's KKT conditions), least norm first, at most ``_TRIES``."""
    table = _float_table(rows, num_vars, range(1, num_vars + 1))
    if table is None:
        return []
    G, c, regular = table
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
    survivor and violate row ``i`` (a non-implication witness; when the
    others are unbounded along ``g_i``, such a point moved out along a ray
    of theirs), (b) nonnegative multipliers that combine to row ``i`` (an
    implication), or (c) a basis plus one more row whose nonnegative
    combination reads ``0 <= negative`` (the others are empty).  The best
    few proposals are checked in ``Fraction`` arithmetic; :meth:`decide`
    returns None when none holds up.  :meth:`feasible` decides the whole
    system from the same table: an intersection point satisfying every row,
    or a basis plus one row reading ``0 <= negative``.
    """

    def __init__(self, rows: Sequence[Row], num_vars: int):
        self.rows = rows
        self.n = num_vars
        self.alive = np.ones(len(rows), dtype=bool)
        self.farkas: Optional[frozenset] = None  # rows with no common point
        self.bases = None
        self._rays = None
        m = len(rows)
        table = (_float_table(rows, num_vars, (num_vars,))
                 if 0 < num_vars < m else None)
        if table is None:
            return
        self.G, self.c, (bases,) = table
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
        if all(r.rhs >= 0 for r in self.rows):
            return True  # the origin
        if any(not any(r.g) and r.rhs < 0 for r in self.rows):
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
        row = self.rows[i]
        if not any(row.g) and row.rhs >= 0:
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
        if self._ray_witness(i, usable[feasible][:_TRIES]):
            return False
        return None

    def _basis_rows(self, b: int) -> list[Row]:
        return [self.rows[j] for j in self.bases[b]]

    def _vertex(self, b: int) -> Optional[list[Fraction]]:
        """Exact intersection point of the rows of basis b."""
        B = self._basis_rows(b)
        return _solve_exact([list(r.g) for r in B], [r.rhs for r in B])

    def _satisfies_others(self, i: Optional[int], x: Sequence[Fraction]) -> bool:
        return all(
            _dot(self.rows[j].g, x) <= self.rows[j].rhs
            for j in np.flatnonzero(self.alive) if j != i
        )

    def _violates_only(self, i: int, x: Optional[Sequence[Fraction]]) -> bool:
        """x is a non-implication witness for row i: it violates row i and
        satisfies every other survivor."""
        row = self.rows[i]
        return (x is not None and _dot(row.g, x) > row.rhs
                and self._satisfies_others(i, x))

    def _ray_witness(self, i: int, starts: np.ndarray) -> bool:
        """Witness when the others are unbounded along g_i: a point of the
        others moved far enough along an extreme ray ``d`` of their
        recession cone (``g_j . d <= 0``, on ``num_vars - 1`` of their
        planes) with ``g_i . d > 0``."""
        subsets, D, R = self._ray_table()
        others = self.alive.copy()
        others[i] = False
        ok = (others[subsets].all(axis=1) & (R[i] > _EPS)
              & (R[others] <= _EPS).all(axis=0))
        rays = np.flatnonzero(ok)
        rays = rays[np.argsort(-R[i, rays], kind="stable")][:_TRIES]
        if not len(rays):
            return False
        points = (self._vertex(b) for b in starts)
        x0 = next((x for x in points
                   if x is not None and self._satisfies_others(i, x)), None)
        if x0 is None:
            return False
        row = self.rows[i]
        for r in rays:
            d = self._null_vector(subsets[r], D[r])
            gd = _dot(row.g, d) if d is not None else 0
            if gd > 0:
                t = max(Fraction(0), (row.rhs - _dot(row.g, x0)) / gd) + 1
                if self._violates_only(i, [a + t * e for a, e in zip(x0, d)]):
                    return True
        return False

    def _ray_table(self):
        """Unit null vectors of every ``num_vars - 1``-row subset, both
        signs, and their products with every row: computed once, on the
        first unbounded decision."""
        if self._rays is None:
            n, m = self.n, len(self.rows)
            subsets = list(combinations(range(m), n - 1))
            subsets = np.array(subsets, dtype=np.intp).reshape(len(subsets), n - 1)
            if n == 1:
                D = np.ones((1, 1))
            else:  # cofactor expansion: the generalized cross product
                M = self.G[subsets]
                D = np.stack([(-1) ** k * np.linalg.det(np.delete(M, k, axis=2))
                              for k in range(n)], axis=1)
                norm = np.linalg.norm(D, axis=1)
                regular = norm > 1e-10
                subsets, D = subsets[regular], D[regular] / norm[regular, None]
            subsets = np.concatenate([subsets, subsets])
            D = np.concatenate([D, -D])
            self._rays = (subsets, D, self.G @ D.T)
        return self._rays

    def _null_vector(self, subset, d_float) -> Optional[list[Fraction]]:
        """Exact ``d`` with ``g_j . d = 0`` on the subset, signed like
        ``d_float`` and scaled to +-1 in its largest coordinate."""
        r = int(np.argmax(np.abs(d_float)))
        sign = Fraction(1 if d_float[r] > 0 else -1)
        rest = [k for k in range(self.n) if k != r]
        B = [self.rows[j].g for j in subset]
        sol = _solve_exact([[g[k] for k in rest] for g in B],
                           [-g[r] * sign for g in B])
        if sol is None:
            return None
        d = [Fraction(0)] * self.n
        d[r] = sign
        for k, v in zip(rest, sol):
            d[k] = v
        return d

    def _combination(self, b: int, g: Sequence[Fraction]):
        """Exact ``y`` with ``sum y_j g_j = g`` over basis b, and
        ``sum y_j c_j``; None unless ``y >= 0``."""
        B = self._basis_rows(b)
        y = _solve_exact([[r.g[k] for r in B] for k in range(self.n)], list(g))
        if y is None or any(v < 0 for v in y):
            return None
        return y, _dot(y, [r.rhs for r in B])

    def _implication(self, i: int, b: int) -> bool:
        row = self.rows[i]
        found = self._combination(b, row.g)
        return found is not None and found[1] <= row.rhs

    def _farkas(self, i: Optional[int], usable: np.ndarray) -> bool:
        """Find and keep a verified set of survivors other than row i with
        no common point: basis b and row k with ``g_k + sum y_j g_j = 0``,
        ``y >= 0`` and ``c_k + sum y_j c_j < 0``."""
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
            row = self.rows[k]
            found = self._combination(b, tuple(-c for c in row.g))
            if found is not None and row.rhs + found[1] < 0:
                y, _ = found
                self.farkas = frozenset(
                    [k] + [int(j) for j, v in zip(self.bases[b], y) if v > 0]
                )
                return True
        return False
