import math
import random
from array import array
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from viskeep.boxes import Box
from viskeep.demos import CIRCLE_SCENARIO
from viskeep.inequalities import LinearInequalitySystem, Row
from viskeep.scenarios import (
    BasicScenario,
    CircleScenario,
    UbbScenario,
    exact_basic,
    feasible_basic,
)
from viskeep.simulate import LeaderProfile, SimTrace, _checked
from viskeep.synthesis import InfeasiblePolytopeError, SynthesisResult
from viskeep.systems import (
    FLOAT_TOL,
    CertificateReport,
    GainMatrix,
    UncertainLinearSystem,
    Violation,
    _affine_row,
    _float_tuple,
    _mat,
    _mat_vec,
    _relevant_params,
    _shifted_vertex_cones,
    _stack_f,
    _steps,
    _sub_vertices,
    _zeros,
    closed_loop,
)


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
    oracle for the fraction-free ``inequalities._solve_exact``."""
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


def normalized_key_oracle(row: Row) -> tuple:
    """Fraction key of a row: coefficients scaled to integers with overall
    gcd 1 (positive scale), the rhs scaled alike; a row with all-zero
    coefficients keeps its rhs sign in {-1, 0, 1}.  The oracle for the
    integer ``inequalities.normalized_key``: both split rows into the same
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


def admissibility_rows_oracle(S: Box, U: Box) -> list[Row]:
    """Rows of ``K v in U`` over the window vertices, for the sparse gain.

    u1 = k11 * s1 and u2 = k22 * s2 + k23 * s3; each row is scaled so its
    leading coefficient has magnitude 1.  Built in ``Fraction`` arithmetic.
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


def invariance_rows_oracle(sys: UncertainLinearSystem, tau=1) -> list[Row]:
    """Shifted-cone certificate rows, rearranged as inequalities in
    ``(k11, k22, k23)``.

    For each window vertex ``v`` and each face ``g . s <= 1`` of its cone,
    ``g . (I + tau F(w)) v <= 1 - max tau g . E r`` is linear in the gain
    entries because ``F = A + B K``.  The face of state ``i`` reads row ``i``
    of A and B alone, so it is enumerated over the vertices of the
    parameters whose A or B slice has a nonzero row ``i``.  Rows come by
    window vertex, then face, then parameter vertex, and may repeat.  Built
    in ``Fraction`` arithmetic: with :func:`admissibility_rows_oracle`, the
    oracle for the integer rows of ``scenarios.invariance_rows``."""
    if (sys.n, sys.m) != (3, 2):
        raise ValueError("gain rows require a 3-state, 2-input system")
    tau = Fraction(tau)
    AB = []  # state i -> rows i of (A(w), B(w)) over the vertices that matter
    for i in range(sys.n):
        params = sorted(set(_relevant_params(sys.A, i))
                        | set(_relevant_params(sys.B, i)))
        AB.append([(sys.eval_A(w)[i], sys.eval_B(w)[i])
                   for w in _sub_vertices(sys.Q, params)])
    terms = {}  # face -> [(tau g_i A(w)_i, tau g_i B(w)_i)]
    rows: list[Row] = []
    for v, faces in _shifted_vertex_cones(sys, tau):
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
    """Invariance then admissibility rows as Fractions, duplicates dropped
    on the Fraction key: the polytope ``scenarios._pipeline_polytope`` must
    give row for row."""
    rows = invariance_rows_oracle(sys, tau) + admissibility_rows_oracle(sys.S, sys.U)
    return LinearInequalitySystem(3, dedup_oracle(rows))


def eval_matrices(sys: UncertainLinearSystem, q: Sequence):
    """Exact affine evaluation of ``(A(q), B(q), E(q))``; warns when q lies
    outside Q."""
    if len(q) != sys.p:
        raise ValueError(f"q has {len(q)} entries, expected {sys.p}")
    if not sys.Q.contains(q, tol=FLOAT_TOL):
        import warnings

        warnings.warn("parameter vector lies outside Q", stacklevel=2)
    return sys.eval_A(q), sys.eval_B(q), sys.eval_E(q)


def reconstruct_relative(pose_f: Sequence, pose_l: Sequence) -> tuple:
    """Relative coordinates (p1, p2, beta) of the leader seen from the
    follower, recomputed from two world poses."""
    xf, yf, tf = pose_f
    xl, yl, tl = pose_l
    dx, dy = xl - xf, yl - yf
    c, s = math.cos(tf), math.sin(tf)
    return (c * dx + s * dy, -s * dx + c * dy, tl - tf)


def constant_noise(h_f: float, h_l: float) -> Callable[[int], tuple]:
    """Lateral noise held at (h_f, h_l) for the whole run."""
    return lambda i: (h_f, h_l)


def family_polytope(sc: BasicScenario) -> LinearInequalitySystem:
    """Basic gain polytope from the eight hand-expanded inequality families
    of the vertex construction: the oracle for the generic shifted-cone
    route of ``gain_polytope``.

    Each family is instantiated on the corners of the parameters it
    mentions (q2, q4 for the k11 families; q1, q3 for the standoff
    families; none for the turn-rate pair), the admissibility rows are
    appended and exact duplicates dropped.
    """
    c = exact_basic(sc)
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


def _certificate_inputs(sys, K, tau):
    """The certificate oracles' inputs: whether the check is exact, tau,
    the vertex conversion and the vertices of S, Q and D, all as Fractions
    for an exact gain and tau, else as floats."""
    exact = K.is_exact() and isinstance(tau, (int, Fraction))
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
        Ew = sys.eval_E(w)
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
        holds=not violations,
        violations=tuple(violations),
        kind="D-invariance (one-step)",
        tau=float(tau_c),
        exact=exact,
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
    exact = K.is_exact()
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
        holds=not violations,
        violations=tuple(violations),
        kind="admissibility",
        exact=exact,
    )


def cone_certificate_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                            tau) -> CertificateReport:
    """Shifted vertex-cone certificate with every distinct ``F(w)`` (over
    the parameters of A and B) multiplied by ``v`` in full and dotted with
    every cone plane: the oracle for ``systems.check_D_invariant_cone``."""
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
    for v_exact, faces in _shifted_vertex_cones(sys, tau_c):
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
        holds=not violations,
        violations=tuple(violations),
        kind="D-invariance (shifted cone)",
        tau=float(tau_c),
        exact=exact,
    )


def cone_certificate_row_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                                tau) -> CertificateReport:
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
                rows[key] = _affine_row(F, i, w)
        F_rows.append(rows)
    violations = []
    for v_exact, faces in _shifted_vertex_cones(sys, tau_c):
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
        holds=not violations,
        violations=tuple(violations),
        kind="D-invariance (shifted cone)",
        tau=float(tau_c),
        exact=exact,
    )


def switching_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                     n_runs: int = 200, horizon: float = 30.0,
                     dt: float = 1e-3, dwell: float = 0.1, seed: int = 0,
                     tol: float = 1e-6):
    """Linear switching runs stepped one ``dt`` at a time, runs-first, with
    the box excess taken after every step: the oracle for
    ``systems.simulate_linear_switching``, with the same random draws in
    the same order and the same degree-4 Taylor step."""
    rng = np.random.default_rng(seed)
    n = sys.n
    A = _stack_f(sys.A)
    B = _stack_f(sys.B)
    E = _stack_f(sys.E)
    Km = np.array([[float(x) for x in row] for row in K.matrix()])
    Qv = np.array(sys.Q.vertices_f()) if sys.p else np.zeros((1, 0))
    Dv = np.array(sys.D.vertices_f()) if sys.l else np.zeros((1, 0))
    lo = np.array(sys.S.lo_f)
    hi = np.array(sys.S.hi_f)

    x = rng.uniform(lo, hi, size=(n_runs, n))
    steps_per_dwell = max(1, int(round(dwell / dt)))
    total_steps = int(round(horizon / dt))
    eye = np.eye(n)
    max_excess = 0.0
    done = 0
    while done < total_steps:
        seg = min(steps_per_dwell, total_steps - done)
        q = Qv[rng.integers(0, len(Qv), size=n_runs)]
        d = Dv[rng.integers(0, len(Dv), size=n_runs)]
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
        dtF = dt * F
        dtF2 = dtF @ dtF
        dtF3 = dtF2 @ dtF
        phi = eye + dtF + dtF2 / 2 + dtF3 / 6 + (dtF3 @ dtF) / 24
        psi = dt * np.einsum(
            "rij,rj->ri", eye + dtF / 2 + dtF2 / 6 + dtF3 / 24, c
        )
        for _ in range(seg):
            x = np.einsum("rij,rj->ri", phi, x) + psi
            excess = max(
                float(np.max(lo - x, initial=0.0)),
                float(np.max(x - hi, initial=0.0)),
            )
            if excess > max_excess:
                max_excess = excess
        done += seg
    return max_excess <= tol, max_excess


def switching_segments_oracle(sys: UncertainLinearSystem, K: GainMatrix,
                              n_runs: int, total_steps: int, dt: float,
                              dwell: float, seed: int):
    """The states of each dwell segment with ``A(q)``, ``B(q)``, ``E(q)``,
    ``phi`` and ``psi`` rebuilt for every run in every segment: the oracle
    for ``systems._switching_segments``, which builds them once per
    parameter vertex and must give the same floats bit for bit."""
    rng = np.random.default_rng(seed)
    n = sys.n
    A = _stack_f(sys.A)
    B = _stack_f(sys.B)
    E = _stack_f(sys.E)
    Km = np.array([[float(x) for x in row] for row in K.matrix()])
    Qv = np.array(sys.Q.vertices_f()) if sys.p else np.zeros((1, 0))
    Dv = np.array(sys.D.vertices_f()) if sys.l else np.zeros((1, 0))
    lo = np.array(sys.S.lo_f)
    hi = np.array(sys.S.hi_f)

    x = rng.uniform(lo, hi, size=(n_runs, n)).T
    steps_per_dwell = max(1, int(round(dwell / dt)))
    buf = np.empty((min(steps_per_dwell, total_steps), n, n_runs))
    eye = np.eye(n)
    done = 0
    while done < total_steps:
        seg = min(steps_per_dwell, total_steps - done)
        q = Qv[rng.integers(0, len(Qv), size=n_runs)]
        d = Dv[rng.integers(0, len(Dv), size=n_runs)]
        Aq = A[0] + np.einsum("rl,lij->rij", q, A[1:]) if sys.p else np.broadcast_to(A[0], (n_runs, n, n))
        Bq = B[0] + np.einsum("rl,lij->rij", q, B[1:]) if sys.p else np.broadcast_to(B[0], (n_runs, n, sys.m))
        Eq = E[0] + np.einsum("rl,lij->rij", q, E[1:]) if sys.p else np.broadcast_to(E[0], (n_runs, n, sys.l))
        F = Aq + Bq @ Km
        c = np.einsum("rij,rj->ri", Eq, d) if sys.l else np.zeros((n_runs, n))
        dtF = dt * F
        dtF2 = dtF @ dtF
        dtF3 = dtF2 @ dtF
        phi = eye + dtF + dtF2 / 2 + dtF3 / 6 + (dtF3 @ dtF) / 24
        psi = dt * np.einsum(
            "rij,rj->ri", eye + dtF / 2 + dtF2 / 6 + dtF3 / 24, c
        )
        phi = np.ascontiguousarray(phi.transpose(1, 2, 0))
        psi = np.ascontiguousarray(psi.T)
        out = buf[:seg]
        np.einsum("ijr,jr->ir", phi, x, out=out[0])
        out[0] += psi
        phi_f, x_f, f = phi, psi, 1
        while f < seg:
            m = min(f, seg - f)
            np.einsum("ijr,kjr->kir", phi_f, out[:m], out=out[f:f + m])
            out[f:f + m] += x_f
            f += m
            if f < seg:
                x_f = np.einsum("ijr,jr->ir", phi_f, x_f) + x_f
                phi_f = np.einsum("ijr,jkr->ikr", phi_f, phi_f)
        yield out
        x = out[-1].copy()
        done += seg


def integrate_oracle(
    links: Sequence,
    lead_limits: tuple,
    profile: LeaderProfile,
    s0: Sequence,
    poses: Sequence,
    T: float,
    dt: float,
    metas: Sequence,
    rho: float = 0.0,
    noise_step: Optional[Callable[[int], tuple]] = None,
) -> list[SimTrace]:
    """Run robots 0..n-1, robot k+1 pursuing robot k, and record each link:
    the plain RK4 loop, one ``deriv`` call per stage, that the generated
    ``simulate._integrate`` must match bit for bit.

    ``links[k]`` is ``(gain, (V, Omega), (o1, o2, o3))``: link k's gain, its
    follower's input bounds and its window center in raw relative
    coordinates.  ``lead_limits`` bounds the profile of robot 0, ``s0``
    holds the window-centered link states and ``poses`` the n world poses.
    ``rho`` is added back to every turn rate (orbit runs), and
    ``noise_step(i)`` gives the lateral noise of each robot, held across the
    stages of step i.

    The state vector is robot 0's pose, then for each link its centered
    state and its follower's pose.
    """
    params = [(*gain, V, Om, *offset) for gain, (V, Om), offset in links]
    prof_v = _checked(profile.v, lead_limits[0], "v")
    prof_w = _checked(profile.omega, lead_limits[1], "omega")
    n_steps = _steps(T, dt)
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

    y = list(poses[0])
    for s, pose in zip(s0, poses[1:]):
        y += (*s, *pose)
    ys, us, hs = array("d"), array("d"), array("d")
    clamps = [0] * len(links)
    for i in range(n_steps + 1):
        t = i * dt
        if noise_step is not None:
            h = noise_step(i)
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
         if noise_step is not None else None)
    times = np.arange(n_steps + 1) * dt
    return [
        SimTrace(
            times=times, states=Y[:, 6 * k + 3:6 * k + 6],
            inputs=U[:, 2 * k + 2:2 * k + 4], leader=U[:, 2 * k:2 * k + 2],
            noise=None if H is None else H[:, [k + 1, k]],
            pose_f=Y[:, 6 * k + 6:6 * k + 9], pose_l=Y[:, 6 * k:6 * k + 3],
            clamp_events=clamps[k], meta=meta,
        )
        for k, meta in enumerate(metas)
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
    A = [rmat(3, 3, 0.6), rmat(3, 3, 0.3), rmat(3, 3, 0.3), _zeros(3, 3)]
    B = [rmat(3, 2, 0.6), rmat(3, 2, 0.3), rmat(3, 2, 0.3), _zeros(3, 2)]
    E = [rmat(3, 2, 0.4), _zeros(3, 2), _zeros(3, 2), rmat(3, 2, 0.3)]
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
            _mat([[x * lam for x in row] for row in M]) for M in stack
        )

    sysd = UncertainLinearSystem(
        n=3, m=2, l=2, p=3,
        A=scale_stack(A), B=scale_stack(B), E=scale_stack(E),
        S=S, U=U, D=D, Q=Q,
    )
    return sysd, K


@pytest.fixture
def rnd():
    return random.Random(20240817)
