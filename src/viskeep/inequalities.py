"""Exact rational systems of linear inequalities.

A system is a finite list of rows ``g . x <= r`` over ``num_vars`` variables,
with every coefficient and right-hand side a :class:`fractions.Fraction`.
Everything here is exact: projection by Fourier-Motzkin elimination,
feasibility decisions and redundancy removal produce certificates that are
free of floating-point ambiguity.  Irrational constants enter only through
:func:`rationalize`, which makes the single approximation point explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

#: Default bound on denominators when approximating irrational constants.
DEFAULT_MAX_DENOMINATOR = 10**12


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
    denom_lcm = 1
    for c in row.g:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in row.g]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    scale = Fraction(denom_lcm, g)
    return (tuple(c * scale for c in row.g), row.rhs * scale)


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

        Projects onto the empty variable set; the system is feasible iff
        every surviving constant row has a nonnegative right-hand side.
        """
        projected = self.project(())
        return all(row.rhs >= 0 for row in projected.rows)

    # ------------------------------------------------------------------
    # Redundancy removal
    # ------------------------------------------------------------------

    def reduce(self) -> "LinearInequalitySystem":
        """Drop every row implied by the others; solution set unchanged.

        A row ``g . x <= c`` is implied iff the remaining rows admit no
        point with ``g . x >= c + s`` for some ``s > 0``.  The strict gap is
        encoded with an auxiliary slack variable: the test system is the
        remaining rows plus ``-g . x + s <= -c``, projected onto ``s``.
        """
        survivors = list(self.rows)
        i = 0
        while i < len(survivors):
            others = survivors[:i] + survivors[i + 1:]
            if _implied(others, survivors[i], self.num_vars):
                survivors.pop(i)
            else:
                i += 1
        return LinearInequalitySystem(self.num_vars, tuple(survivors))

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
