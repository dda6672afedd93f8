import math
import random
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from viskeep.boxes import Box
from viskeep.demos import CIRCLE_SCENARIO
from viskeep.inequalities import LinearInequalitySystem, Row, _dedup, _solve_exact
from viskeep.scenarios import (
    BasicScenario,
    CircleScenario,
    UbbScenario,
    admissibility_rows,
    exact_basic,
    feasible_basic,
)
from viskeep.synthesis import InfeasiblePolytopeError, SynthesisResult
from viskeep.systems import (
    FLOAT_TOL,
    CertificateReport,
    GainMatrix,
    UncertainLinearSystem,
    Violation,
    _certificate_inputs,
    _float_tuple,
    _mat,
    _mat_vec,
    _relevant_params,
    _shifted_vertex_cones,
    _stack_f,
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
    rows.extend(admissibility_rows(S, U))
    return LinearInequalitySystem(3, _dedup(rows))


def _project_origin(rows):
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
            mult = _solve_exact(gram, rhs)
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
