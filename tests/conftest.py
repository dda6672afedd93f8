import math
import random
from array import array
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from viskeep.boxes import Box
from viskeep.demos import CIRCLE_SCENARIO
from viskeep.inequalities import (
    LinearInequalitySystem,
    Row,
    _column_basis,
    _implied,
    _over,
    _primitive,
)
from viskeep.scenarios import (
    BasicScenario,
    CircleScenario,
    UbbScenario,
    exact_constants,
    feasible_basic,
)
from viskeep.simulate import LeaderProfile, SimTrace, _checked, _hold_steps
from viskeep.synthesis import InfeasiblePolytopeError, SynthesisResult
from viskeep.systems import (
    CertificateReport,
    GainMatrix,
    UncertainLinearSystem,
    Matrix,
    Violation,
    _float_tuple,
    _relevant_params,
    _SWITCHING_DWELL,
    _steps,
    _switching_draws,
)

# The reference gains of the original study of the demo bundles.  The
# basic, ubb and chain gains are certified solutions of their scenarios.
REF_GAIN_BASIC = GainMatrix(1.5173, 0.3707, 0.4925)
REF_GAIN_UBB = GainMatrix(1.6735, 0.5896, 0.5326)
# Kept for provenance only: this gain is not a solution of CIRCLE_SCENARIO.
# At the window corner (-a, -a, b), with the leader on the orbit, the
# nonlinear field has ds1 = -0.166 under it, and a run from 0.95 of that
# corner leaves the window on dp1; its k11*a = 0.552 is below the 0.779
# that the gain polytope requires.  Which constant was transcribed wrongly,
# the gain or the scenario, is not known.
REF_GAIN_CIRCLE = GainMatrix(1.3812, 0.6051, 0.5508)
REF_GAINS_CHAIN = (
    GainMatrix(0.2066, 0.0315, 0.3361),
    GainMatrix(0.5087, 0.0669, 0.3400),
    GainMatrix(1.7273, 0.2678, 0.3348),
)

FLOAT_TOL = 1e-9  # the absolute tolerance of the oracles' float paths


def mat(rows) -> Matrix:
    """`rows` as a matrix of Fractions, each entry read exactly."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(n: int, m: int) -> Matrix:
    return mat([[0] * m] * n)


def random_basic_scenario(rnd: random.Random, want_feasible=None,
                          min_margin: float = 1e-3) -> BasicScenario:
    """Random scenario whose condition margins all exceed `min_margin`.

    With ``want_feasible=True`` every condition is satisfied with margin;
    with ``False`` at least one is violated with margin; with ``None`` a
    fair coin decides.
    """
    while True:
        if want_feasible is None:
            feasible = rnd.random() < 0.5
        else:
            feasible = want_feasible
        a = rnd.uniform(0.1, 0.6)
        d = a + rnd.uniform(0.4, 3.0)
        b = rnd.uniform(0.25, 1.5)
        V_L = rnd.uniform(0.02, 0.4)
        sb = math.sin(b)
        vf_bound = V_L * (1 + a * sb / (d - a)) + 1 - math.cos(b) + a * b / (d - a)
        ol_bound = (1 - V_L) * sb / (d + a)
        of_bound = (V_L * sb + b) / (d - a)
        if feasible:
            V_F = vf_bound + rnd.uniform(0.01, 0.2)
            Omega_L = ol_bound * rnd.uniform(0.3, 0.9)
            Omega_F = of_bound * rnd.uniform(1.1, 2.0)
        else:
            which = rnd.randrange(3)
            V_F = vf_bound + rnd.uniform(0.01, 0.2)
            Omega_L = ol_bound * rnd.uniform(0.3, 0.9)
            Omega_F = of_bound * rnd.uniform(1.1, 2.0)
            if which == 0:
                V_F = vf_bound - rnd.uniform(0.01, 0.2)
            elif which == 1:
                Omega_L = ol_bound * rnd.uniform(1.1, 2.0)
            else:
                Omega_F = of_bound * rnd.uniform(0.3, 0.9)
        if not (0 < V_F < 1 and Omega_L > 0 and Omega_F > 0):
            continue
        try:
            sc = BasicScenario(a=a, b=b, d=d, V_F=V_F, V_L=V_L,
                               Omega_F=Omega_F, Omega_L=Omega_L)
        except ValueError:
            continue
        report = feasible_basic(sc)
        if min(abs(c.slack) for c in report.conditions) <= min_margin:
            continue
        if want_feasible is not None and report.feasible != want_feasible:
            continue
        return sc


def random_family_scenario(rnd: random.Random, kind: str):
    """Random scenario of family `kind`, of either closed-form verdict.

    Basic draws come from :func:`random_basic_scenario`; ubb draws add
    lateral disturbance bounds up to 0.03 to one; circle draws scale every
    field of the bundled orbit scenario by 0.95-1.05, then the speed and
    turn-rate bounds by 0.8-1.25 more, until the family's hypotheses hold.
    """
    if kind == "basic":
        return random_basic_scenario(rnd)
    if kind == "ubb":
        return UbbScenario(**asdict(random_basic_scenario(rnd)),
                           H_F=rnd.uniform(0, 0.03), H_L=rnd.uniform(0, 0.03))
    while True:
        fields = {k: v * rnd.uniform(0.95, 1.05)
                  for k, v in asdict(CIRCLE_SCENARIO).items()}
        for k in ("V_F", "V_L", "Omega_F", "Omega_L"):
            fields[k] *= rnd.uniform(0.8, 1.25)
        try:
            sc = CircleScenario(**fields)
            sc.system()
        except ValueError:
            continue
        return sc


def system_from_rows(num_vars: int, rows) -> LinearInequalitySystem:
    """System of ``(coefficients, rhs)`` pairs, each entry made a Fraction."""
    return LinearInequalitySystem(num_vars, tuple(
        Row(tuple(Fraction(c) for c in g), Fraction(rhs)) for g, rhs in rows))


def solve_exact_oracle(M, rhs):
    """Gaussian elimination over the rationals; None if singular: the
    oracle for ``adj rhs / det`` of the fraction-free
    ``inequalities._adjugate`` and ``inequalities._bareiss``."""
    k = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(M, rhs)]
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


def normalized_key(row: Row) -> tuple[int, ...]:
    """The primitive integer form ``(a_1, ..., a_n, b)`` of a Fraction
    row, a positive multiple of ``(g, rhs)`` with gcd 1, from the integers
    a system stores it as: the key ``LinearInequalitySystem.int_rows``
    holds for it."""
    return _primitive(_over((*row.g, row.rhs))[0])


def normalized_key_oracle(row: Row) -> tuple:
    """Fraction key of a row: coefficients scaled to integers with overall
    gcd 1 (positive scale), the rhs scaled alike; a row with all-zero
    coefficients keeps its rhs sign in {-1, 0, 1}.  The oracle for the
    integer :func:`normalized_key`: both split rows into the same
    duplicate classes."""
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


def dedup_oracle(rows) -> tuple:
    """Rows with exact duplicates dropped on the Fraction key, keeping the
    first occurrence."""
    seen = set()
    out = []
    for row in rows:
        key = normalized_key_oracle(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return tuple(out)


def eliminate_oracle(system: LinearInequalitySystem, var: int) -> LinearInequalitySystem:
    """One Fourier-Motzkin step in ``Fraction`` arithmetic: rows free of
    `var` first, then every (positive, negative) pair, each combination
    scaled to integer coefficients with gcd 1, duplicates dropped on the
    Fraction key.  The oracle for ``LinearInequalitySystem.eliminate``."""
    zero = [r for r in system.rows if r.g[var] == 0]
    pos = [r for r in system.rows if r.g[var] > 0]
    neg = [r for r in system.rows if r.g[var] < 0]

    def drop(row: Row) -> Row:
        return Row(row.g[:var] + row.g[var + 1:], row.rhs)

    out = [drop(r) for r in zero]
    for p in pos:
        inv_p = 1 / p.g[var]
        for n in neg:
            inv_n = -1 / n.g[var]
            g = tuple(cp * inv_p + cn * inv_n for cp, cn in zip(drop(p).g, drop(n).g))
            key = normalized_key_oracle(Row(g, p.rhs * inv_p + n.rhs * inv_n))
            out.append(Row(tuple(key[0]), key[1]))
    return LinearInequalitySystem(system.num_vars - 1, dedup_oracle(out))


# ----------------------------------------------------------------------
# The per-row linear programs that decided reduce() before the warm-started
# vertex walk: a cold two-phase simplex for every row, an emptiness program
# over multipliers summing to one, and the same sequential survivor loop
# ----------------------------------------------------------------------


def _simplex_oracle(cols: Sequence[Sequence[int]], rhs: Sequence[int],
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


def _farkas_set_oracle(keys: Sequence[tuple[int, ...]],
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
    found = _simplex_oracle([a[:num_vars] + (1,) for a in keys],
                            [0] * num_vars + [1], [a[-1] for a in keys],
                            lambda value, den: value < 0)
    return found[1] if found is not None and found[0] else None


def vertex_or_farkas_oracle(keys: Sequence[tuple[int, ...]], num_vars: int
                            ) -> tuple[list[tuple[int, ...]], Optional[list[int]],
                                       Optional[list[int]]]:
    """The cold program of ``inequalities._vertex_or_farkas`` by its column
    route: the column basis of the keys, every row rebuilt in those ``r``
    variables, and the crash basis as the column basis of their transposed
    normals, whatever the rank.  The same dual simplex then runs in
    Fractions, each basis solved afresh (``solve_exact_oracle``): the lowest
    violated row enters, the least ``y_k / d_k`` over ``d_k > 0`` leaves,
    ties to the lowest row.

    Returns ``(rows, basis, farkas)``: the rebuilt rows, and either the
    basis of the vertex found or the Farkas set, the other None."""
    cols = _column_basis(keys, num_vars)
    r = len(cols)
    rows = [tuple(a[v] for v in cols) + (a[-1],) for a in keys]
    basis = _column_basis(list(zip(*(a[:r] for a in rows))), len(rows))
    obj = rows[basis[0]][:-1] if basis else ()
    while True:
        normals = [rows[k][:-1] for k in basis]
        x = solve_exact_oracle(normals, [rows[k][-1] for k in basis])
        j = next((j for j, a in enumerate(rows)
                  if sum(c * v for c, v in zip(a, x)) > a[-1]), None)
        if j is None:
            return rows, basis, None
        transposed = list(zip(*normals))
        y = solve_exact_oracle(transposed, obj)
        d = solve_exact_oracle(transposed, rows[j][:-1])
        bounded = [p for p in range(r) if d[p] > 0]
        if not bounded:
            return rows, None, [j] + [k for k, dk in zip(basis, d) if dk < 0]
        leave = min(bounded, key=lambda p: (y[p] / d[p], basis[p]))
        basis = basis[:leave] + [j] + basis[leave + 1:]


def _implies_oracle(keys: Sequence[tuple[int, ...]], num_vars: int,
                    a: tuple[int, ...]) -> bool:
    """Whether the integer rows `keys`, which have a common point, imply the
    row `a`: some ``y >= 0`` has ``sum y_j a_j`` equal to its normal and
    ``sum y_j b_j`` at most its right-hand side.  The least such sum is the
    maximum of ``a . x`` over the rows (duality); when no ``y`` combines to
    the normal, the rows are unbounded along it."""
    found = _simplex_oracle([r[:num_vars] for r in keys], a[:num_vars],
                            [r[-1] for r in keys],
                            lambda value, den: value <= a[-1] * den)
    return found is not None and found[0]


def reduce_lp_oracle(system: LinearInequalitySystem) -> tuple[Row, ...]:
    """The rows ``reduce()`` keeps, each decided by its own cold linear
    program: the others imply row ``i`` iff some ``y >= 0`` over them
    combines to its normal with ``sum y_j b_j <= b_i``.  While the
    survivors are empty their Farkas set stands in, as in ``reduce()``, and
    systems of at most ``num_vars`` rows go by elimination there too."""
    ints, n = system.int_rows, system.num_vars
    survivors = list(range(len(ints)))
    by_elimination = len(survivors) <= n
    farkas = None if by_elimination else _farkas_set_oracle(ints, n)
    i = 0
    while i < len(survivors):
        k = survivors[i]
        others = survivors[:i] + survivors[i + 1:]
        if by_elimination:
            implied = _implied([system.rows[j] for j in others], system.rows[k], n)
        elif farkas is None:
            implied = _implies_oracle([ints[j] for j in others], n, ints[k])
        else:
            implied = k not in farkas
            if not implied:
                rest = _farkas_set_oracle([ints[j] for j in others], n)
                if rest is not None:
                    farkas, implied = [others[j] for j in rest], True
        if implied:
            survivors.pop(i)
        else:
            i += 1
    return tuple(system.rows[j] for j in survivors)


def sub_vertices(box: Box, indices: list[int]):
    """Vertices of the box varying only along `indices`, lo before hi, the
    first index slowest; the other entries are fixed at lo for
    determinism (a family that ignores them takes the same values as over
    all vertices)."""
    if not indices:
        yield tuple(box.lo)
        return
    choices = [(box.lo[i], box.hi[i]) for i in indices]
    for combo in product(*choices):
        w = list(box.lo)
        for i, val in zip(indices, combo):
            w[i] = val
        yield tuple(w)


def vertex_cone_oracle(box: Box, v: Sequence) -> list[Row]:
    """The faces of the box through its vertex `v`, one per state, as
    Fraction rows ``g . s <= 1``: ``g`` is zero but for ``g_i = 1 / hi_i``
    if ``v_i = hi_i``, else ``1 / lo_i``.  A face offset that is not
    positive, or a `v` that is not a vertex, is a ValueError."""
    rows = []
    for i, (a, b, x) in enumerate(zip(box.lo, box.hi, v)):
        if x not in (a, b):
            raise ValueError(f"{v!r} is not a vertex of the box")
        bound = b if x == b else a
        if not (bound > 0 if x == b else bound < 0):
            raise ValueError("face offset not positive; origin must be interior")
        g = [Fraction(0)] * box.dim
        g[i] = 1 / Fraction(bound)
        rows.append(Row(tuple(g), Fraction(1)))
    return rows


def shifted_planes_oracle(planes: Sequence[Row], Es, D: Box) -> list[Row]:
    """Each plane ``(g, xi)`` shifted to ``(g, xi - max g . E r)``, the
    maximum taken over the matrices ``E`` in `Es` and every vertex ``r`` of
    the box ``D`` by enumerating all of them, in Fraction arithmetic."""
    D_verts = D.vertices()
    rows = []
    for g, xi in planes:
        pushes = [sum(gj * sum(e * rk for e, rk in zip(E[j], r))
                      for j, gj in enumerate(g) if gj)
                  for E in Es for r in D_verts]
        rows.append(Row(g, xi - max(pushes, default=0)))
    return rows


def shifted_cone_oracle(S: Box, Es, D: Box) -> tuple:
    """The faces of ``boxes.shifted_cone``, which takes the maximum over
    ``D`` as its support, by enumeration: the planes of the vertex cones
    at ``S.hi`` and ``S.lo`` shifted by :func:`shifted_planes_oracle`, each
    read back as ``(g_i, xi)``."""
    planes = vertex_cone_oracle(S, S.hi) + vertex_cone_oracle(S, S.lo)
    return tuple((g[f % S.dim], xi) for f, (g, xi)
                 in enumerate(shifted_planes_oracle(planes, Es, D)))


def integer_E(Es) -> tuple[list[list[int]], int]:
    """The matrices `Es` as ``boxes.shifted_cone`` takes them: each as its
    entries row by row, in integers over one positive denominator."""
    den = lcm(*(Fraction(x).denominator for E in Es for row in E for x in row))
    return [[int(x * den) for row in E for x in row] for E in Es], den


def admissibility_rows_oracle(S: Box, U: Box) -> list[Row]:
    """Rows of ``K v in U`` over the window vertices, for the sparse gain.

    u1 = k11 * s1 and u2 = k22 * s2 + k23 * s3; each row is scaled so its
    leading coefficient has magnitude 1, as ``systems._pipeline_polytope``
    scales the rows of ``systems._admissibility_rows``.  Built in
    ``Fraction`` arithmetic.
    """
    rows = []
    for v in S.vertices():
        v1, v2, v3 = v
        for g, hi in (
            ((v1, Fraction(0), Fraction(0)), U.hi[0]),
            ((-v1, Fraction(0), Fraction(0)), -U.lo[0]),
            ((Fraction(0), v2, v3), U.hi[1]),
            ((Fraction(0), -v2, -v3), -U.lo[1]),
        ):
            lead = next(abs(c) for c in g if c != 0)
            rows.append(Row(tuple(c / lead for c in g), hi / lead))
    return rows


def vertex_faces(S: Box, faces, v) -> list:
    """The faces of S through its vertex `v`, picked from the ``2n`` faces
    `faces` of ``boxes.shifted_cone``: ``(f, faces[f])`` for each state
    ``i``, with ``f = i`` if ``v_i = hi_i``, else ``n + i``."""
    return [(f, faces[f]) for f in (i if x == hi else S.dim + i
                                    for i, (x, hi) in enumerate(zip(v, S.hi)))]


def tau_cones(sys: UncertainLinearSystem, tau):
    """The vertex cones of the certificate for the one-step form with step
    `tau`, in ``S.vertices()`` order: the faces of ``boxes.shifted_cone``
    over E at the vertices of its parameters, as :func:`shifted_cone_oracle`
    enumerates them, picked at each vertex by :func:`vertex_faces`.  Each
    face ``(g_i, xi)``, whose ``1 - xi`` is the worst disturbance push,
    becomes the plane ``g . s <= 1 - tau (1 - xi)`` with ``g`` zero but
    for ``g_i``.  Exact for a rational `tau`."""
    tau = Fraction(tau) if isinstance(tau, (int, Fraction)) else tau
    Es = [affine(sys.E, w) for w in sub_vertices(sys.Q, _relevant_params(sys.E))]
    faces = shifted_cone_oracle(sys.S, Es, sys.D)
    for v in sys.S.vertices():
        cone = []
        for f, (gi, xi) in vertex_faces(sys.S, faces, v):
            g = [Fraction(0)] * sys.n
            g[f % sys.n] = gi
            cone.append((f, Row(tuple(g), 1 - tau * (1 - xi))))
        yield v, cone


def invariance_rows_oracle(sys: UncertainLinearSystem, tau=1) -> list[Row]:
    """Shifted-cone certificate rows at step `tau`, rearranged as
    inequalities in ``(k11, k22, k23)``.

    For each window vertex ``v`` and each face ``g . s <= 1`` of its cone,
    ``g . (I + tau F(w)) v <= 1 - max tau g . E r`` is linear in the gain
    entries because ``F = A + B K``.  The face of state ``i`` reads row ``i``
    of A and B alone, so it is enumerated over the vertices of the
    parameters whose A or B slice has a nonzero row ``i``.  Rows come by
    window vertex, then face, then parameter vertex, and may repeat.  Built
    in ``Fraction`` arithmetic: with :func:`admissibility_rows_oracle`, the
    oracle for the integer rows of ``UncertainLinearSystem.gain_rows``,
    which equal these at ``tau = 1`` and these divided by `tau` at any
    other step."""
    if (sys.n, sys.m) != (3, 2):
        raise ValueError("gain rows require a 3-state, 2-input system")
    tau = Fraction(tau)
    AB = []  # state i -> rows i of (A(w), B(w)) over the vertices that matter
    for i in range(sys.n):
        params = sorted(set(_relevant_params(sys.A, i))
                        | set(_relevant_params(sys.B, i)))
        AB.append([(affine_row(sys.A, i, w), affine_row(sys.B, i, w))
                   for w in sub_vertices(sys.Q, params)])
    terms = {}  # face -> [(tau g_i A(w)_i, tau g_i B(w)_i)]
    rows: list[Row] = []
    for v, faces in tau_cones(sys, tau):
        for f, (g, xi_shifted) in faces:
            i = f % sys.n
            if f not in terms:
                scale = tau * g[i]
                terms[f] = [([scale * x for x in a], [scale * x for x in b])
                            for a, b in AB[i]]
            for gA, gB in terms[f]:
                const = g[i] * v[i] + sum(a * x for a, x in zip(gA, v) if a)
                coeffs = (gB[0] * v[0], gB[1] * v[1], gB[1] * v[2])
                rows.append(Row(coeffs, xi_shifted - const))
    return rows


def pipeline_polytope_oracle(sys: UncertainLinearSystem, tau=1) -> LinearInequalitySystem:
    """Invariance rows at step `tau` then admissibility rows as Fractions,
    duplicates dropped on the Fraction key: the polytope
    ``systems._pipeline_polytope`` must give row for row at ``tau = 1``,
    and key for key at any ``tau > 0``."""
    rows = invariance_rows_oracle(sys, tau) + admissibility_rows_oracle(sys.S, sys.U)
    return LinearInequalitySystem(3, dedup_oracle(rows))


def affine_row(stack: Sequence[Matrix], i: int, q: Sequence) -> tuple:
    """Row ``i`` of ``stack[0] + sum_l stack[l] * q_l``."""
    out = list(stack[0][i])
    for coeff_mat, ql in zip(stack[1:], q):
        if ql == 0:
            continue
        for j, c in enumerate(coeff_mat[i]):
            if c != 0:
                out[j] = out[j] + c * ql
    return tuple(out)


def affine(stack: Sequence[Matrix], q: Sequence) -> Matrix:
    """Evaluate ``stack[0] + sum_l stack[l] * q_l``: ``A(q)`` from the
    stack ``sys.A``, and so on."""
    return tuple(affine_row(stack, i, q) for i in range(len(stack[0])))


def eval_matrices(sys: UncertainLinearSystem, q: Sequence):
    """Exact affine evaluation of ``(A(q), B(q), E(q))``; warns when q lies
    outside Q."""
    if len(q) != sys.p:
        raise ValueError(f"q has {len(q)} entries, expected {sys.p}")
    if not sys.Q.contains(q, tol=FLOAT_TOL):
        import warnings

        warnings.warn("parameter vector lies outside Q", stacklevel=2)
    return affine(sys.A, q), affine(sys.B, q), affine(sys.E, q)


def reconstruct_relative(pose_f: Sequence, pose_l: Sequence) -> tuple:
    """Relative coordinates (p1, p2, beta) of the leader seen from the
    follower, recomputed from two world poses."""
    xf, yf, tf = pose_f
    xl, yl, tl = pose_l
    dx, dy = xl - xf, yl - yf
    c, s = math.cos(tf), math.sin(tf)
    return (c * dx + s * dy, -s * dx + c * dy, tl - tf)


def constant_noise(h_f: float, h_l: float) -> Callable[[int], list]:
    """Lateral noise held at (h_f, h_l) for the whole run: the same pair for
    each of the n hold intervals."""
    return lambda n: [(h_f, h_l)] * n


def max_chain_length_oracle(maps, n_max: int) -> tuple[int, bool]:
    """``(max_robots, capped)`` by the direct double sum for each N,
    ``sum_{i=2..N} (1 - cos b_i + a_i b_i / (d_i - a_i))
    * prod_{k=i+1..N} (1 + a_k sin b_k / (d_k - a_k)) < 1``: the oracle
    for the recurrence of ``chains.max_chain_length``."""
    best = 1
    for N in range(2, n_max + 1):
        total = 0.0
        for i in range(2, N + 1):
            a, b, d = maps.f_a(i), maps.f_b(i), maps.f_d(i)
            term = 1 - math.cos(b) + a * b / (d - a)
            for k in range(i + 1, N + 1):
                ak, bk, dk = maps.f_a(k), maps.f_b(k), maps.f_d(k)
                term *= 1 + ak * math.sin(bk) / (dk - ak)
            total += term
        if total < 1:
            best = N
        else:
            return best, False
    return best, True


def family_polytope(sc: BasicScenario) -> LinearInequalitySystem:
    """Basic gain polytope from the eight hand-expanded inequality families
    of the vertex construction: the oracle for the generic shifted-cone
    route of ``gain_polytope``.

    Each family is instantiated on the corners of the parameters it
    mentions (q2, q4 for the k11 families; q1, q3 for the standoff
    families; none for the turn-rate pair), the admissibility rows are
    appended and exact duplicates dropped.
    """
    c = exact_constants(sc)
    one = Fraction(1)
    zero = Fraction(0)
    r = c.b / c.a
    q1c = (c.sin_b / c.b - one, zero)
    q2c = (-(one - c.cos_b) / c.b, (one - c.cos_b) / c.b)
    q3c = (-c.a, c.a)
    q4c = (-c.a, c.a)
    VLa = c.V_L / c.a
    VLsba = c.V_L * c.sin_b / c.a
    OLb = c.Omega_L / c.b
    ab = c.a / c.b

    rows = []
    for q2, q4 in product(q2c, q4c):  # family 1
        rows.append(Row((-one, q4, r * q4), -r * q2 - VLa))
    for q1, q3 in product(q1c, q3c):  # family 2
        dq = c.d + q3
        rows.append(Row((zero, -dq, -r * dq), -r * (one + q1) - VLsba))
    for q2, q4 in product(q2c, q4c):  # family 3
        rows.append(Row((-one, q4, -r * q4), r * q2 - VLa))
    for q1, q3 in product(q1c, q3c):  # family 4
        dq = c.d + q3
        rows.append(Row((zero, -dq, r * dq), r * (one + q1) - VLsba))
    rows.append(Row((zero, -ab, -one), -OLb))  # family 5
    rows.append(Row((zero, ab, -one), -OLb))   # family 6
    for q2, q4 in product(q2c, q4c):  # family 7
        rows.append(Row((-one, -q4, r * q4), -r * q2 - VLa))
    for q2, q4 in product(q2c, q4c):  # family 8
        rows.append(Row((-one, -q4, -r * q4), r * q2 - VLa))

    S = Box.symmetric((c.a, c.a, c.b))
    U = Box.symmetric((c.V_F, c.Omega_F))
    rows.extend(admissibility_rows_oracle(S, U))
    return LinearInequalitySystem(3, dedup_oracle(rows))


def _project_origin(rows):
    """Projection of the origin onto ``{x : g_i . x = c_i}``; None if the
    chosen rows are linearly dependent."""
    G = [list(r.g) for r in rows]
    c = [r.rhs for r in rows]
    gram = [[sum(a * b for a, b in zip(gi, gj)) for gj in G] for gi in G]
    lam = solve_exact_oracle(gram, c)
    if lam is None:
        return None
    n = len(G[0])
    return tuple(sum(l * G[i][j] for i, l in enumerate(lam)) for j in range(n))


def min_norm_oracle(poly: LinearInequalitySystem) -> SynthesisResult:
    """Nearest point of the polytope to the origin by exhaustive active-set
    enumeration: the oracle for ``synthesis.min_norm_gain``.

    The origin is projected onto the affine hull of every independent
    subset of at most three rows of the reduced polytope, in lexicographic
    order; infeasible candidates are discarded and the feasible candidate of
    least norm is kept (exact-norm ties go to the lexicographically smaller
    point).  The KKT residual comes from a search of the active rows for an
    exact nonnegative representation of the point.
    """
    reduced = poly.reduce()
    n = reduced.num_vars
    zero = tuple(Fraction(0) for _ in range(n))
    if reduced.satisfies(zero):
        best = zero
    else:
        best, best_norm2 = None, None
        for size in range(1, n + 1):
            for subset in combinations(range(len(reduced.rows)), size):
                point = _project_origin([reduced.rows[i] for i in subset])
                if point is None or not reduced.satisfies(point):
                    continue
                norm2 = sum(x * x for x in point)
                if (best_norm2 is None or norm2 < best_norm2
                        or (norm2 == best_norm2 and point < best)):
                    best, best_norm2 = point, norm2
        if best is None:
            raise InfeasiblePolytopeError("gain polytope is empty")
    active = tuple(
        i for i, row in enumerate(poly.rows)
        if sum(c * x for c, x in zip(row.g, best)) == row.rhs
    )
    gain_f = tuple(float(x) for x in best) + (0.0,) * (3 - n)
    return SynthesisResult(
        gain=GainMatrix(*gain_f),
        norm=math.sqrt(float(sum(x * x for x in best))),
        active_rows=active,
        kkt_residual=_kkt_residual(poly, best, active),
        exact_gain=best,
    )


def _kkt_residual(poly, point, active) -> float:
    """0.0 if independent active rows represent ``point`` exactly as
    ``-sum mu_i g_i`` with ``mu >= 0``; else the float least-squares
    residual of that representation."""
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
            mult = solve_exact_oracle(gram, rhs)
            if mult is None or any(m < 0 for m in mult):
                continue
            recon = [
                -sum(mult[i] * G[i][j] for i in range(len(G))) for j in range(n)
            ]
            if all(r == x for r, x in zip(recon, point)):
                return 0.0
    import numpy as np

    G = np.array([[float(c) for c in poly.rows[i].g] for i in active])
    x = np.array([float(v) for v in point])
    mult, *_ = np.linalg.lstsq(-G.T, x, rcond=None)
    mult = np.clip(mult, 0.0, None)
    return float(np.linalg.norm(-G.T @ mult - x))


def _mat_vec(M: Sequence, v: Sequence):
    return tuple(sum(c * x for c, x in zip(row, v)) for row in M)


def is_exact_gain(K: GainMatrix) -> bool:
    """Whether every entry of `K` is a Fraction or an int: the oracles then
    run in Fraction arithmetic, else in floats with ``FLOAT_TOL``."""
    return all(isinstance(k, (Fraction, int)) for k in K.entries())


@dataclass(frozen=True)
class ClosedLoopFamily:
    """``F(q) = A(q) + B(q) K``, affine in q for a constant gain."""

    F: tuple

    def __call__(self, q: Sequence):
        return affine(self.F, q)


def closed_loop(sys: UncertainLinearSystem, K: GainMatrix) -> ClosedLoopFamily:
    """The closed-loop family of `K`, in the arithmetic of its entries: the
    ``F(w)`` the certificate oracles multiply out in full."""
    Km = K.matrix()
    stack = []
    for Al, Bl in zip(sys.A, sys.B):
        F = tuple(
            tuple(
                Al[i][j] + sum(Bl[i][r] * Km[r][j] for r in range(sys.m))
                for j in range(sys.n)
            )
            for i in range(sys.n)
        )
        stack.append(F)
    return ClosedLoopFamily(tuple(stack))


def _certificate_inputs(sys, K, tau):
    """The certificate oracles' inputs: whether the check is exact, tau,
    the vertex conversion and the vertices of S, Q and D, all as Fractions
    for an exact gain and tau, else as floats."""
    exact = is_exact_gain(K) and isinstance(tau, (int, Fraction))
    if exact:
        tau = Fraction(tau)
        conv = lambda v: v
    else:
        tau = float(tau)
        conv = _float_tuple
    S_verts = [conv(v) for v in sys.S.vertices()]
    Q_verts = [conv(w) for w in sys.Q.vertices()]
    D_verts = [conv(r) for r in sys.D.vertices()]
    return exact, tau, conv, S_verts, Q_verts, D_verts


def check_D_invariant_euler(
    sys: UncertainLinearSystem, K: GainMatrix, tau
) -> CertificateReport:
    """One-step vertex condition: ``v + tau (F(w) v + E(w) r)`` in S.

    A test oracle: criterion 6 checks that its verdict agrees with
    ``systems.check_D_invariant_cone`` on moderate rates.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    exact, tau_c, conv, S_verts, Q_verts, D_verts = _certificate_inputs(sys, K, tau)
    tol = 0 if exact else FLOAT_TOL
    F = closed_loop(sys, K if exact else K.as_floats())
    lo = sys.S.lo if exact else sys.S.lo_f
    hi = sys.S.hi if exact else sys.S.hi_f
    violations = []
    for w in Q_verts:
        Fw = F(w)
        Ew = affine(sys.E, w)
        for v in S_verts:
            Fv = _mat_vec(Fw, v)
            for r in D_verts:
                Er = _mat_vec(Ew, r)
                x = tuple(
                    vi + tau_c * (fi + ei) for vi, fi, ei in zip(v, Fv, Er)
                )
                for i, xi in enumerate(x):
                    if xi > hi[i] + tol:
                        violations.append(
                            Violation(
                                _float_tuple(v), _float_tuple(w), _float_tuple(r),
                                f"s[{i}] <= hi", float(hi[i] - xi),
                            )
                        )
                    if xi < lo[i] - tol:
                        violations.append(
                            Violation(
                                _float_tuple(v), _float_tuple(w), _float_tuple(r),
                                f"s[{i}] >= lo", float(xi - lo[i]),
                            )
                        )
    return CertificateReport(
        violations=tuple(violations),
        kind="D-invariance (one-step)",
    )


def is_strictly_interior(
    poly: LinearInequalitySystem, gain, eps: float = 1e-6
) -> bool:
    """True iff every row has slack greater than eps at the gain: the
    check that a min-norm gain lies on the polytope boundary."""
    if isinstance(gain, GainMatrix):
        point = gain.entries()
    else:
        point = gain
    return all(s > eps for s in poly.slacks(point))


def admissibility_oracle(K: GainMatrix, S: Box, U: Box) -> CertificateReport:
    """``K v`` inside U for every vertex ``v`` of S, in ``Fraction``
    arithmetic for an exact gain: the oracle for the integer sign tests of
    ``systems.check_admissible``."""
    exact = is_exact_gain(K)
    tol = 0 if exact else FLOAT_TOL
    Km = K.matrix()
    violations = []
    for v in S.vertices():
        vv = v if exact else _float_tuple(v)
        u = _mat_vec(Km, vv)
        for j, (lo, hi, uj) in enumerate(zip(U.lo, U.hi, u)):
            lo_b, hi_b, val = (lo, hi, uj) if exact else (float(lo), float(hi), float(uj))
            if val > hi_b + tol:
                violations.append(
                    Violation(_float_tuple(v), None, None, f"u[{j}] <= hi", float(hi_b - val))
                )
            if val < lo_b - tol:
                violations.append(
                    Violation(_float_tuple(v), None, None, f"u[{j}] >= lo", float(val - lo_b))
                )
    return CertificateReport(
        violations=tuple(violations),
        kind="admissibility",
    )


def cone_certificate_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                            tau=1) -> CertificateReport:
    """Shifted vertex-cone certificate at step `tau`, ``(I + tau F(w)) v``
    in the cones of :func:`tau_cones`, with every distinct ``F(w)`` (over
    the parameters of A and B) multiplied by ``v`` in full and dotted with
    every cone plane: the oracle for ``systems.check_D_invariant_cone``,
    whose report it gives at ``tau = 1`` and whose verdict at any
    ``tau > 0``."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    exact, tau_c, conv, S_verts, Q_verts, D_verts = _certificate_inputs(sys, K, tau)
    tol = 0 if exact else FLOAT_TOL
    F = closed_loop(sys, K if exact else K.as_floats())
    ab_params = sorted(set(_relevant_params(sys.A)) | set(_relevant_params(sys.B)))
    keys = [tuple(w[i] for i in ab_params) for w in Q_verts]
    F_of = {}
    for key, w in zip(keys, Q_verts):
        if key not in F_of:
            F_of[key] = F(w)
    violations = []
    for v_exact, faces in tau_cones(sys, tau):
        v = conv(v_exact)
        rows = [(conv(g), xi if exact else float(xi)) for _, (g, xi) in faces]
        failed = {}  # F(w) key -> [(cone row, slack)] of violated rows
        for key, Fw in F_of.items():
            Fv = _mat_vec(Fw, v)
            y = tuple(vi + tau_c * fi for vi, fi in zip(v, Fv))
            failed[key] = []
            for h, (g, xi) in enumerate(rows):
                val = sum(c * yi for c, yi in zip(g, y))
                if val > xi + tol:
                    failed[key].append((h, float(xi - val)))
        for key, w in zip(keys, Q_verts):
            for h, slack in failed[key]:
                violations.append(
                    Violation(
                        _float_tuple(v), _float_tuple(w), None,
                        f"cone row {h}", slack,
                    )
                )
    return CertificateReport(
        violations=tuple(violations),
        kind="D-invariance (shifted cone)",
    )


def cone_certificate_row_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                                tau=1) -> CertificateReport:
    """Shifted vertex-cone condition: ``(I + tau F(w)) v`` in C_v shifted,
    formed row by row in ``Fraction`` arithmetic when the gain is exact:
    the oracle for the integer sign tests of
    ``systems.check_D_invariant_cone``.

    Each plane of the cone at vertex ``v`` is offset inward by the worst
    case ``tau * g . E(w) r`` over the vertices of D and of the parameters
    E depends on, computed once per face of S.  A face of ``s_i`` reads
    only entry ``i`` of ``(I + tau F(w)) v``, and row ``i`` of ``F(w)``
    depends only on the parameters with a nonzero coefficient in that row,
    so each entry is formed once per vertex of those parameters and its
    violations are reported for every ``w`` sharing it.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    exact, tau_c, conv, _, Q_verts, _ = _certificate_inputs(sys, K, tau)
    tol = 0 if exact else FLOAT_TOL
    F = closed_loop(sys, K if exact else K.as_floats()).F
    keys = []  # state i -> key of each w: its values on the parameters of row i
    F_rows = []  # state i -> {key: row i of F(w)}
    for i in range(sys.n):
        params = _relevant_params(F, i)
        keys.append([tuple(w[l] for l in params) for w in Q_verts])
        rows = {}
        for key, w in zip(keys[i], Q_verts):
            if key not in rows:
                rows[key] = affine_row(F, i, w)
        F_rows.append(rows)
    violations = []
    for v_exact, faces in tau_cones(sys, tau):
        v = conv(v_exact)
        failed = []  # (cone row, state, {key: slack} of its violations)
        for h, (f, (g, xi)) in enumerate(faces):
            i = f % sys.n
            gi, xi = (g[i], xi) if exact else (float(g[i]), float(xi))
            slacks = {}
            for key, row in F_rows[i].items():
                val = gi * (v[i] + tau_c * sum(c * x for c, x in zip(row, v)))
                if val > xi + tol:
                    slacks[key] = float(xi - val)
            if slacks:
                failed.append((h, i, slacks))
        for k, w in enumerate(Q_verts):
            for h, i, slacks in failed:
                slack = slacks.get(keys[i][k])
                if slack is not None:
                    violations.append(
                        Violation(
                            _float_tuple(v), _float_tuple(w), None,
                            f"cone row {h}", slack,
                        )
                    )
    return CertificateReport(
        violations=tuple(violations),
        kind="D-invariance (shifted cone)",
    )


def _stack_f(stack) -> np.ndarray:
    """A stack of matrices of Fractions as one float array."""
    return np.array(
        [[[float(x) for x in row] for row in M] for M in stack], dtype=float
    )


def switching_operators_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                               qi, di, dt: float):
    """``phi`` and ``psi`` of each run's degree-4 step, with ``A(q)``,
    ``B(q)`` and ``E(q)`` rebuilt from the run's own vertices: the oracle
    for ``systems._switching_operators``, which builds them once per vertex
    and must give the same floats bit for bit."""
    n, n_runs = sys.n, len(qi)
    A = _stack_f(sys.A)
    B = _stack_f(sys.B)
    E = _stack_f(sys.E)
    Km = np.array([[float(x) for x in row] for row in K.matrix()])
    Qv = np.array(sys.Q.vertices_f()) if sys.p else np.zeros((1, 0))
    Dv = np.array(sys.D.vertices_f()) if sys.l else np.zeros((1, 0))
    q, d = Qv[qi], Dv[di]
    if sys.p:
        Aq = A[0] + np.einsum("rl,lij->rij", q, A[1:])
        Bq = B[0] + np.einsum("rl,lij->rij", q, B[1:])
        Eq = E[0] + np.einsum("rl,lij->rij", q, E[1:])
    else:
        Aq = np.broadcast_to(A[0], (n_runs, n, n))
        Bq = np.broadcast_to(B[0], (n_runs, n, sys.m))
        Eq = np.broadcast_to(E[0], (n_runs, n, sys.l))
    F = Aq + Bq @ Km
    c = np.einsum("rij,rj->ri", Eq, d) if sys.l else np.zeros((n_runs, n))
    eye = np.eye(n)
    dtF = dt * F
    dtF2 = dtF @ dtF
    dtF3 = dtF2 @ dtF
    phi = eye + dtF + dtF2 / 2 + dtF3 / 6 + (dtF3 @ dtF) / 24
    psi = dt * np.einsum(
        "rij,rj->ri", eye + dtF / 2 + dtF2 / 6 + dtF3 / 24, c
    )
    return phi, psi


def switching_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                     n_runs: int = 200, horizon: float = 30.0,
                     dt: float = 1e-3, seed: int = 0,
                     tol: float = 1e-6, keep_states: bool = False):
    """Linear switching runs stepped one ``dt`` at a time, runs-first, with
    the box excess taken after every step: the oracle for
    ``systems.simulate_linear_switching``, with the same draws (from
    ``systems._switching_draws``), the same dwell and the same degree-4
    Taylor step.
    ``keep_states`` adds a third result, the ``(steps, runs, n)`` array of
    every state after every step."""
    steps_per_dwell = max(1, int(round(_SWITCHING_DWELL / dt)))
    total_steps = int(round(horizon / dt))
    draws = _switching_draws(sys, n_runs, total_steps, dt, seed)
    lo = np.array(sys.S.lo_f)
    hi = np.array(sys.S.hi_f)

    x = next(draws)
    states = np.empty((total_steps, n_runs, sys.n)) if keep_states else None
    max_excess = 0.0
    done = 0
    while done < total_steps:
        seg = min(steps_per_dwell, total_steps - done)
        phi, psi = switching_operators_oracle(sys, K, *next(draws), dt)
        for k in range(seg):
            x = np.einsum("rij,rj->ri", phi, x) + psi
            if keep_states:
                states[done + k] = x
            excess = max(
                float(np.max(lo - x, initial=0.0)),
                float(np.max(x - hi, initial=0.0)),
            )
            if excess > max_excess:
                max_excess = excess
        done += seg
    if keep_states:
        return max_excess <= tol, max_excess, states
    return max_excess <= tol, max_excess


def integrate_oracle(
    links: Sequence,
    lead_limits: tuple,
    profile: LeaderProfile,
    s0: Sequence,
    pose: Sequence,
    T: float,
    dt: float,
    rho: float = 0.0,
    noise: Optional[Sequence[tuple]] = None,
) -> list[SimTrace]:
    """Run robots 0..n-1, robot k+1 pursuing robot k, and record each link:
    the plain RK4 loop, one ``deriv`` call per stage, that the generated
    ``simulate._integrate`` must match bit for bit in every state, input
    and robot 0's pose.

    ``links[k]`` is ``(gain, (V, Omega), (o1, o2, o3))``: link k's gain, its
    follower's input bounds and its window center in raw relative
    coordinates.  ``lead_limits`` bounds the profile of robot 0, ``s0``
    holds the window-centered link states and ``pose`` robot 0's world pose.
    ``rho`` is added back to every turn rate (orbit runs), and ``noise[j]``
    gives the lateral noise of each robot over hold interval j, held across
    the stages of every step in it.

    The state vector is robot 0's pose, then for each link its centered
    state and its follower's pose.  Each follower starts where its leader's
    pose and its link's state place it; from then on every world pose is
    integrated as a unicycle, jointly with the link states, so the poses
    are an independent check of the relative dynamics that
    ``simulate._integrate`` places its followers by.
    """
    params = [(*gain, V, Om, *offset) for gain, (V, Om), offset in links]
    prof_v = _checked(profile.v, lead_limits[0], "v")
    prof_w = _checked(profile.omega, lead_limits[1], "omega")
    n_steps = _steps(T, dt)
    per_hold = None if noise is None else _hold_steps(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    h = (0.0,) * (len(links) + 1)

    def deriv(y, h, v, w):
        """dy/dt, given robot 0's speed offset v and turn rate w."""
        hL = h[0]
        c, s = math.cos(y[2]), math.sin(y[2])
        dy = [(1.0 + v) * c - hL * s, (1.0 + v) * s + hL * c, w]
        for r, (k11, k22, k23, V, Om, o1, o2, o3) in enumerate(params, 1):
            j = 6 * r - 3
            s1, s2, s3 = y[j], y[j + 1], y[j + 2]
            u1 = k11 * s1
            u2 = k22 * s2 + k23 * s3
            vF = V if u1 > V else -V if u1 < -V else u1
            wF = (Om if u2 > Om else -Om if u2 < -Om else u2) + rho
            hF = h[r]
            p1, p2, beta = s1 + o1, s2 + o2, s3 + o3
            cb, sb = math.cos(beta), math.sin(beta)
            cf, sf = math.cos(y[j + 5]), math.sin(y[j + 5])
            dy += (
                (cb - 1.0) - vF + p2 * wF + v * cb - hL * sb,
                sb - hF - p1 * wF + v * sb + hL * cb,
                w - wF,
                (1.0 + vF) * cf - hF * sf,
                (1.0 + vF) * sf + hF * cf,
                wF,
            )
            v, w, hL = vF, wF, hF
        return dy

    y = list(pose)
    for (s1, s2, s3), (*_, o1, o2, o3) in zip(s0, params):
        xl, yl, ql = y[-3:]
        p1, p2, q = s1 + o1, s2 + o2, ql - (s3 + o3)
        c, s = math.cos(q), math.sin(q)
        y += (s1, s2, s3, xl - (c * p1 - s * p2), yl - (s * p1 + c * p2), q)
    ys, us, hs = array("d"), array("d"), array("d")
    clamps = [0] * len(links)
    for i in range(n_steps + 1):
        t = i * dt
        if noise is not None:
            h = noise[i // per_hold]
            hs.extend(h)
        u = []
        for r, (k11, k22, k23, V, Om, o1, o2, o3) in enumerate(params, 1):
            j = 6 * r - 3
            s1, s2, s3 = y[j], y[j + 1], y[j + 2]
            if abs(s3 + o3) > math.pi:
                raise ValueError(
                    f"heading difference left (-pi, pi) on link {r} "
                    f"at t={t:.6g}; invariance lost"
                )
            u1 = k11 * s1
            u2 = k22 * s2 + k23 * s3
            if abs(u1) > V or abs(u2) > Om:
                clamps[r - 1] += 1
            u += (V if u1 > V else -V if u1 < -V else u1,
                  Om if u2 > Om else -Om if u2 < -Om else u2)
        v, w = prof_v(t), prof_w(t)
        ys.extend(y)
        us.extend((v, w, *u))
        if i == n_steps:
            break
        vh, wh = prof_v(t + half), prof_w(t + half)
        v1, w1 = prof_v(t + dt), prof_w(t + dt)
        k1 = deriv(y, h, v, w + rho)
        k2 = deriv([a + half * b for a, b in zip(y, k1)], h, vh, wh + rho)
        k3 = deriv([a + half * b for a, b in zip(y, k2)], h, vh, wh + rho)
        k4 = deriv([a + dt * b for a, b in zip(y, k3)], h, v1, w1 + rho)
        y = [a + sixth * (b + 2.0 * (c + d) + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]

    # rows of Y: each robot's pose with each link's state between them; of
    # U: each robot's realized inputs (the profile for robot 0); of H: each
    # robot's noise.  Link k joins robots k and k + 1.
    Y = np.frombuffer(ys).reshape(n_steps + 1, -1)
    U = np.frombuffer(us).reshape(n_steps + 1, -1)
    H = (np.frombuffer(hs).reshape(n_steps + 1, -1)
         if noise is not None else None)
    times = np.arange(n_steps + 1) * dt
    return [
        SimTrace(
            times=times, states=Y[:, 6 * k + 3:6 * k + 6],
            inputs=U[:, 2 * k + 2:2 * k + 4], leader=U[:, 2 * k:2 * k + 2],
            noise=None if H is None else H[:, [k + 1, k]],
            pose_f=Y[:, 6 * k + 6:6 * k + 9], pose_l=Y[:, 6 * k:6 * k + 3],
            clamp_events=clamps[k],
        )
        for k in range(len(links))
    ]


def random_moderate_system(rnd: random.Random):
    """Random family scaled so the one-step and cone certificates agree.

    The parameters entering (A, B) and those entering E are disjoint box
    coordinates, and all rates are scaled to keep every vertex within the
    opposite faces for tau = 1.
    """
    def rmat(n, m, scale):
        return [[rnd.uniform(-scale, scale) for _ in range(m)] for _ in range(n)]

    S = Box.symmetric([rnd.uniform(0.5, 1.5) for _ in range(3)])
    U = Box.symmetric([rnd.uniform(0.5, 1.5) for _ in range(2)])
    D = Box.symmetric([rnd.uniform(0.1, 0.5) for _ in range(2)])
    Q = Box.symmetric([rnd.uniform(0.1, 0.4) for _ in range(3)])
    A = [rmat(3, 3, 0.6), rmat(3, 3, 0.3), rmat(3, 3, 0.3), zeros(3, 3)]
    B = [rmat(3, 2, 0.6), rmat(3, 2, 0.3), rmat(3, 2, 0.3), zeros(3, 2)]
    E = [rmat(3, 2, 0.4), zeros(3, 2), zeros(3, 2), rmat(3, 2, 0.3)]
    K = GainMatrix(rnd.uniform(-0.8, 0.8), rnd.uniform(-0.8, 0.8),
                   rnd.uniform(-0.8, 0.8))
    Km = [[float(x) for x in row] for row in K.matrix()]

    def fmat(q):
        return [
            [
                A[0][i][j] + sum(A[1 + l][i][j] * q[l] for l in range(3))
                + sum(
                    (B[0][i][r] + sum(B[1 + l][i][r] * q[l] for l in range(3)))
                    * Km[r][j]
                    for r in range(2)
                )
                for j in range(3)
            ]
            for i in range(3)
        ]

    worst = 0.0
    for v in S.vertices_f():
        for w in Q.vertices_f():
            Fw = fmat(w)
            Ew = [
                [E[0][i][k] + E[3][i][k] * w[2] for k in range(2)]
                for i in range(3)
            ]
            for r in D.vertices_f():
                rate = [
                    sum(Fw[i][j] * v[j] for j in range(3))
                    + sum(Ew[i][k] * r[k] for k in range(2))
                    for i in range(3)
                ]
                for i in range(3):
                    worst = max(worst, abs(rate[i]) / float(S.hi[i]))
    lam = min(1.0, 1.8 / worst) if worst > 0 else 1.0

    def scale_stack(stack):
        return tuple(
            mat([[x * lam for x in row] for row in M]) for M in stack
        )

    sysd = UncertainLinearSystem(
        A=scale_stack(A), B=scale_stack(B), E=scale_stack(E),
        S=S, U=U, D=D, Q=Q,
    )
    return sysd, K


@pytest.fixture
def rnd():
    return random.Random(20240817)
