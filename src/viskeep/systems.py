"""Linear uncertain systems and vertex-based invariance certificates.

The plant family is ``sdot = A(q) s + B(q) u + E(q) d`` with ``A, B, E``
affine in the parameter vector ``q``, and box sets for state (S), input (U),
disturbance (D) and parameter (Q).  A feedback ``u = K s`` is certified by
checking finitely many vertex conditions:

* admissibility: ``K v`` inside U for every vertex ``v`` of S;
* one-step form: ``v + tau (F(w) v + E(w) r)`` inside S for all vertices
  ``v`` of S, ``w`` of Q and ``r`` of D, where ``F = A + B K``;
* cone form: ``(I + tau F(w)) v`` inside the vertex cone of ``v`` with each
  plane shifted inward by the worst disturbance push.

All three run either in floats (absolute tolerance 1e-9) or, when the gain
and tau are rational, in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .boxes import Box, HalfspaceCone, shifted_cone, vertex_cone

FLOAT_TOL = 1e-9

Matrix = tuple[tuple, ...]


def _mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _zeros(n: int, m: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def _mat_vec(M: Sequence, v: Sequence):
    return tuple(sum(c * x for c, x in zip(row, v)) for row in M)


def _affine_row(stack: Sequence[Matrix], i: int, q: Sequence) -> tuple:
    """Row ``i`` of ``stack[0] + sum_l stack[l] * q_l``."""
    out = list(stack[0][i])
    for coeff_mat, ql in zip(stack[1:], q):
        if ql == 0:
            continue
        for j, c in enumerate(coeff_mat[i]):
            if c != 0:
                out[j] = out[j] + c * ql
    return tuple(out)


def _affine(stack: Sequence[Matrix], q: Sequence) -> Matrix:
    """Evaluate ``stack[0] + sum_l stack[l] * q_l``."""
    return tuple(_affine_row(stack, i, q) for i in range(len(stack[0])))


def _relevant_params(stack, row: Optional[int] = None) -> list[int]:
    """0-based parameter indices with a nonzero coefficient matrix, or with
    a nonzero row `row` of it."""
    return [l for l, M in enumerate(stack[1:])
            if any(c != 0 for r in (M if row is None else (M[row],)) for c in r)]


def _sub_vertices(box: Box, indices: list[int]):
    """Vertices of the box varying only along `indices`; the other entries
    are fixed at lo for determinism (a family that ignores them takes the
    same values as over all vertices)."""
    if not indices:
        yield tuple(box.lo)
        return
    choices = [(box.lo[i], box.hi[i]) for i in indices]
    for combo in product(*choices):
        w = list(box.lo)
        for i, val in zip(indices, combo):
            w[i] = val
        yield tuple(w)


def _shifted_vertex_cones(sys: UncertainLinearSystem, tau):
    """Yield ``(v, faces)`` for every window vertex ``v`` in ``S.vertices()``
    order: ``faces`` pairs the rows of ``vertex_cone(S, v)``, each shifted
    inward by the worst disturbance push, with their face index ``f``
    (``i`` for ``s_i = hi_i``, ``n + i`` for ``s_i = lo_i``).  All 2n faces
    are shifted by one :func:`shifted_cone` call over the vertices of the
    parameters E depends on."""
    S = sys.S
    planes = vertex_cone(S, S.hi).rows + vertex_cone(S, S.lo).rows
    e_vertices = list(_sub_vertices(sys.Q, _relevant_params(sys.E)))
    shifted = shifted_cone(HalfspaceCone(planes), tau, sys.eval_E,
                           e_vertices, sys.D.vertices()).rows
    for v in S.vertices():
        faces = [i if x == hi else S.dim + i
                 for i, (x, hi) in enumerate(zip(v, S.hi))]
        yield v, [(f, shifted[f]) for f in faces]


@dataclass(frozen=True)
class GainMatrix:
    """Sparse 2x3 feedback ``[[k11, 0, 0], [0, k22, k23]]``."""

    k11: float
    k22: float
    k23: float

    def matrix(self) -> Matrix:
        zero = Fraction(0) if self.is_exact() else 0.0
        return (
            (self.k11, zero, zero),
            (zero, self.k22, self.k23),
        )

    def entries(self) -> tuple:
        return (self.k11, self.k22, self.k23)

    def is_exact(self) -> bool:
        return all(
            isinstance(k, (Fraction, int)) for k in (self.k11, self.k22, self.k23)
        )

    def as_floats(self) -> "GainMatrix":
        return GainMatrix(float(self.k11), float(self.k22), float(self.k23))

    def norm(self) -> float:
        return math.sqrt(
            float(self.k11) ** 2 + float(self.k22) ** 2 + float(self.k23) ** 2
        )


@dataclass(frozen=True)
class UncertainLinearSystem:
    """Affine-in-parameter family with box constraint sets.

    ``A`` holds ``p + 1`` matrices: the constant part followed by one
    coefficient matrix per parameter component; likewise ``B`` and ``E``.
    """

    n: int
    m: int
    l: int
    p: int
    A: tuple[Matrix, ...]
    B: tuple[Matrix, ...]
    E: tuple[Matrix, ...]
    S: Box
    U: Box
    D: Box
    Q: Box

    def __post_init__(self):
        for name, stack, rows, cols in (
            ("A", self.A, self.n, self.n),
            ("B", self.B, self.n, self.m),
            ("E", self.E, self.n, self.l),
        ):
            if len(stack) != self.p + 1:
                raise ValueError(f"{name} must hold p+1 = {self.p + 1} matrices")
            for M in stack:
                if len(M) != rows or any(len(r) != cols for r in M):
                    raise ValueError(f"{name} matrix has wrong shape")
        for name, box, dim in (
            ("S", self.S, self.n),
            ("U", self.U, self.m),
            ("D", self.D, self.l),
            ("Q", self.Q, self.p),
        ):
            if box.dim != dim:
                raise ValueError(f"{name} has dimension {box.dim}, expected {dim}")
            if not box.contains_origin():
                raise ValueError(f"{name} must contain the origin")

    def eval_A(self, q: Sequence) -> Matrix:
        return _affine(self.A, q)

    def eval_B(self, q: Sequence) -> Matrix:
        return _affine(self.B, q)

    def eval_E(self, q: Sequence) -> Matrix:
        return _affine(self.E, q)


def eval_matrices(sys: UncertainLinearSystem, q: Sequence):
    """Exact affine evaluation of ``(A(q), B(q), E(q))``."""
    if len(q) != sys.p:
        raise ValueError(f"q has {len(q)} entries, expected {sys.p}")
    if not sys.Q.contains(q, tol=FLOAT_TOL):
        import warnings

        warnings.warn("parameter vector lies outside Q", stacklevel=2)
    return sys.eval_A(q), sys.eval_B(q), sys.eval_E(q)


@dataclass(frozen=True)
class ClosedLoopFamily:
    """``F(q) = A(q) + B(q) K``, affine in q for a constant gain."""

    F: tuple[Matrix, ...]

    def __call__(self, q: Sequence) -> Matrix:
        return _affine(self.F, q)


def closed_loop(sys: UncertainLinearSystem, K: GainMatrix) -> ClosedLoopFamily:
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


class Violation(NamedTuple):
    vertex: tuple
    q_vertex: Optional[tuple]
    d_vertex: Optional[tuple]
    row: str
    slack: float


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a vertex certificate; empty violations <=> holds."""

    holds: bool
    violations: tuple[Violation, ...]
    kind: str = "certificate"
    tau: Optional[float] = None
    exact: bool = False

    def __post_init__(self):
        if self.holds != (len(self.violations) == 0):
            raise ValueError("holds must mirror emptiness of violations")

    def to_text(self) -> str:
        head = f"{self.kind}: {'HOLDS' if self.holds else 'FAILS'}"
        if self.tau is not None:
            head += f" (tau={self.tau})"
        head += " [exact]" if self.exact else " [float]"
        lines = [head]
        for v in self.violations:
            lines.append(
                f"  vertex={v.vertex} q={v.q_vertex} d={v.d_vertex} "
                f"row={v.row} slack={v.slack:.3e}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["vertex,q_vertex,d_vertex,row,slack"]
        for v in self.violations:
            lines.append(
                '"{}","{}","{}",{},{:.17g}'.format(
                    v.vertex, v.q_vertex, v.d_vertex, v.row, v.slack
                )
            )
        return "\n".join(lines) + "\n"


def _float_tuple(v) -> tuple:
    return tuple(float(x) for x in v)


def check_admissible(K: GainMatrix, S: Box, U: Box) -> CertificateReport:
    """``K v`` inside U for every vertex ``v`` of S."""
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


def _certificate_inputs(sys, K, tau):
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
    """One-step vertex condition: ``v + tau (F(w) v + E(w) r)`` in S."""
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


def check_D_invariant_cone(
    sys: UncertainLinearSystem, K: GainMatrix, tau
) -> CertificateReport:
    """Shifted vertex-cone condition: ``(I + tau F(w)) v`` in C_v shifted.

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


# ----------------------------------------------------------------------
# Monte-Carlo validation of the linear closed loop
# ----------------------------------------------------------------------


def _stack_f(stack) -> np.ndarray:
    return np.array(
        [[[float(x) for x in row] for row in M] for M in stack], dtype=float
    )


def simulate_linear_switching(
    sys: UncertainLinearSystem,
    K: GainMatrix,
    n_runs: int = 200,
    horizon: float = 30.0,
    dt: float = 1e-3,
    dwell: float = 0.1,
    seed: int = 0,
    tol: float = 1e-6,
):
    """Randomized trajectories of ``sdot = F(q) s + E(q) d`` stay in S?

    ``q(t)`` and ``d(t)`` are piecewise constant with the given dwell time,
    drawn uniformly from the vertices of Q and D.  Integration uses the
    degree-4 Taylor step, which coincides with classical RK4 on a linear
    time-invariant segment.  Returns ``(ok, max_excess)`` where max_excess
    is the largest box violation observed at any step (0.0 for clean runs).
    """
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
