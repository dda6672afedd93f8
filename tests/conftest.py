import math
import random
from fractions import Fraction
from itertools import product

import pytest

from viskeep.boxes import Box
from viskeep.inequalities import LinearInequalitySystem, Row, _dedup
from viskeep.scenarios import (
    BasicScenario,
    admissibility_rows,
    exact_basic,
    feasible_basic,
)
from viskeep.systems import GainMatrix, UncertainLinearSystem, _mat, _zeros


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
