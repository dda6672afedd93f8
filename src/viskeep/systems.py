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
and tau are rational, in exact arithmetic: every quantity goes over a
common denominator and each test is an integer sign test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .boxes import Box, HalfspaceCone, shifted_cone, vertex_cone
from .inequalities import _dot, _over

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


def _ab_params(sys: UncertainLinearSystem, i: int) -> list[int]:
    """Parameters with a nonzero row ``i`` of A or of B."""
    return sorted(set(_relevant_params(sys.A, i)) | set(_relevant_params(sys.B, i)))


def _gain_rows(sys: UncertainLinearSystem, tau):
    """The shifted-cone certificate as inequalities in the sparse gain
    ``(k11, k22, k23)``, in integers.

    Yields ``(v, cone)`` for every window vertex ``v`` in ``S.vertices()``
    order.  ``cone`` holds, for each face ``g . s <= xi`` of the shifted
    vertex cone in turn, its state ``i`` and a list of ``(key, nums, den)``
    over the vertices ``w`` of the parameters in row ``i`` of A and B
    (``key`` is their values): the condition
    ``g . (I + tau F(w)) v <= xi``, ``F = A + B K``, read as
    ``nums[:3] . k <= nums[3]``, which is linear in the gain because the
    face reads only entry ``i``.  ``nums / den`` (``den > 0``) is the row
    ``(tau g_i B(w)_i0 v_0, tau g_i B(w)_i1 v_1, tau g_i B(w)_i1 v_2,
    xi - g_i v_i - tau g_i A(w)_i . v)`` exactly: every constant is put
    over one denominator once, and a row costs a few integer products.
    """
    if (sys.n, sys.m) != (3, 2):
        raise ValueError("gain rows require a 3-state, 2-input system")
    tau = Fraction(tau)
    AB = []  # state i -> [(key, numerators of A(w)_i and B(w)_i, their den)]
    for i in range(sys.n):
        params = _ab_params(sys, i)
        AB.append([
            (tuple(w[l] for l in params),
             *_over(_affine_row(sys.A, i, w) + _affine_row(sys.B, i, w)))
            for w in _sub_vertices(sys.Q, params)
        ])
    terms = {}  # face -> [(key, coefficient terms, xi term, g_i term, den)]
    for v, faces in _shifted_vertex_cones(sys, tau):
        Vn, Vd = _over(v)
        cone = []
        for f, (g, xi) in faces:
            i = f % sys.n
            if f not in terms:
                # the row's terms over t.den gi.den xi.den d Vd, d the
                # denominator of A(w)_i and B(w)_i, Vd that of v
                t, gi = tau * g[i], g[i]
                lead = t.numerator * gi.denominator * xi.denominator
                x0 = xi.numerator * t.denominator * gi.denominator
                g0 = gi.numerator * t.denominator * xi.denominator
                den = t.denominator * gi.denominator * xi.denominator
                terms[f] = [(key, [lead * x for x in ABn], x0 * d, g0 * d, den * d)
                            for key, ABn, d in AB[i]]
            cone.append((i, [
                (key, (P[3] * Vn[0], P[4] * Vn[1], P[4] * Vn[2],
                       x0 * Vd - g0 * Vn[i] - _dot(P, Vn)), den * Vd)
                for key, P, x0, g0, den in terms[f]
            ]))
        yield v, cone


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
    """``K v`` inside U for every vertex ``v`` of S.

    With an exact gain, K, the vertices of S and U are each put over one
    denominator, so ``K v`` and its bounds are integers over ``den`` and
    every test is an integer sign test; otherwise the test runs in floats
    with tolerance ``FLOAT_TOL``."""
    exact = K.is_exact()
    Km = K.matrix()
    if exact:
        Kn, Kd = _over([x for row in Km for x in row])
        w = len(Km[0])
        Kn = [Kn[j:j + w] for j in range(0, len(Kn), w)]
        Vd = math.lcm(*(x.denominator for x in S.lo + S.hi))
        Un, Ud = _over(U.lo + U.hi)
        den, tol = Kd * Vd * Ud, 0
        lo = [x * Kd * Vd for x in Un[:U.dim]]
        hi = [x * Kd * Vd for x in Un[U.dim:]]
    else:
        den, tol, lo, hi = 1, FLOAT_TOL, U.lo_f, U.hi_f
    violations = []
    for v in S.vertices():
        if exact:
            Vn = [x.numerator * (Vd // x.denominator) for x in v]
            u = [_dot(row, Vn) * Ud for row in Kn]
        else:
            u = [float(x) for x in _mat_vec(Km, _float_tuple(v))]
        for j, (lo_b, hi_b, val) in enumerate(zip(lo, hi, u)):
            if val > hi_b + tol:
                violations.append(
                    Violation(_float_tuple(v), None, None, f"u[{j}] <= hi", (hi_b - val) / den)
                )
            if val < lo_b - tol:
                violations.append(
                    Violation(_float_tuple(v), None, None, f"u[{j}] >= lo", (val - lo_b) / den)
                )
    return CertificateReport(
        holds=not violations,
        violations=tuple(violations),
        kind="admissibility",
        exact=exact,
    )


def _cone_failures_exact(sys, K, tau):
    """Exact path of :func:`check_D_invariant_cone`, on the integer rows of
    :func:`_gain_rows`: the gain ``k = Kn / Kd`` fails a row iff
    ``nums[3] * Kd - nums[:3] . Kn < 0``, and that integer over
    ``den * Kd`` is the slack ``xi - g . (I + tau F(w)) v`` exactly."""
    Kn, Kd = _over(K.entries())
    for v, cone in _gain_rows(sys, tau):
        failed = []  # (cone row, state, {key: slack} of its violations)
        for h, (i, rows) in enumerate(cone):
            slacks = {}
            for key, nums, den in rows:
                gap = nums[3] * Kd - _dot(nums, Kn)
                if gap < 0:
                    slacks[key] = gap / (den * Kd)
            if slacks:
                failed.append((h, i, slacks))
        yield v, failed


def _cone_failures_float(sys, K, tau, Q_verts, keys):
    """Float path of :func:`check_D_invariant_cone`: row ``i`` of ``F(w)``
    once per key, applied to ``v`` and tested with tolerance
    ``FLOAT_TOL``."""
    F = closed_loop(sys, K.as_floats()).F
    F_rows = [{} for _ in range(sys.n)]  # state i -> {key: row i of F(w)}
    for i, rows in enumerate(F_rows):
        for key, w in zip(keys[i], Q_verts):
            if key not in rows:
                rows[key] = _affine_row(F, i, w)
    for v_exact, faces in _shifted_vertex_cones(sys, tau):
        v = _float_tuple(v_exact)
        failed = []
        for h, (f, (g, xi)) in enumerate(faces):
            i = f % sys.n
            gi, xi = float(g[i]), float(xi)
            slacks = {}
            for key, row in F_rows[i].items():
                val = gi * (v[i] + tau * sum(c * x for c, x in zip(row, v)))
                if val > xi + FLOAT_TOL:
                    slacks[key] = float(xi - val)
            if slacks:
                failed.append((h, i, slacks))
        yield v_exact, failed


def check_D_invariant_cone(
    sys: UncertainLinearSystem, K: GainMatrix, tau
) -> CertificateReport:
    """Shifted vertex-cone condition: ``(I + tau F(w)) v`` in C_v shifted.

    Each plane of the cone at vertex ``v`` is offset inward by the worst
    case ``tau * g . E(w) r`` over the vertices of D and of the parameters
    E depends on, computed once per face of S.  A face of ``s_i`` reads
    only entry ``i`` of ``(I + tau F(w)) v``, and row ``i`` of ``F(w)``
    depends only on the parameters with a nonzero row ``i`` of A or B, so
    each entry is formed once per vertex of those parameters and its
    violations are reported for every ``w`` sharing it.  With an exact gain
    and tau each entry is an integer sign test on the gain-polytope rows of
    :func:`_gain_rows`; otherwise it is evaluated in floats.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    exact = K.is_exact() and isinstance(tau, (int, Fraction))
    tau_c = Fraction(tau) if exact else float(tau)
    Q_verts = sys.Q.vertices() if exact else sys.Q.vertices_f()
    # state i -> key of each w: its values on the parameters of row i
    keys = [[tuple(w[l] for l in params) for w in Q_verts]
            for params in (_ab_params(sys, i) for i in range(sys.n))]
    failures = (_cone_failures_exact(sys, K, tau_c) if exact
                else _cone_failures_float(sys, K, tau_c, Q_verts, keys))
    violations = []
    for v, failed in failures:
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


def _steps(T: float, dt: float) -> int:
    """Number of steps of size ``dt`` in a finite horizon ``T``: a positive
    integer, or a ValueError."""
    if not (math.isfinite(T) and math.isfinite(dt)) or dt <= 0 or T < dt:
        raise ValueError(f"need finite dt > 0 and T >= dt, not dt={dt!r} "
                         f"and T={T!r}")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9:
        raise ValueError("T must be an integer multiple of dt")
    return n


def _switching_segments(sys: UncertainLinearSystem, K: GainMatrix,
                        n_runs: int, total_steps: int, dt: float, dwell: float,
                        seed: int):
    """The states of every run, one dwell segment at a time: yields the
    ``(steps, n, runs)`` buffer of each segment, valid until the next one
    (see :func:`simulate_linear_switching`)."""
    rng = np.random.default_rng(seed)
    n = sys.n
    A = _stack_f(sys.A)
    B = _stack_f(sys.B)
    E = _stack_f(sys.E)
    Km = np.array([[float(x) for x in row] for row in K.matrix()])
    Qv = np.array(sys.Q.vertices_f()) if sys.p else np.zeros((1, 0))
    Dv = np.array(sys.D.vertices_f()) if sys.l else np.zeros((1, 0))

    # phi and the psi operator of every parameter vertex, built once; each
    # segment gathers them per run (phi kept run-last, (n, n, vertices))
    if sys.p:
        Aq = A[0] + np.einsum("rl,lij->rij", Qv, A[1:])
        Bq = B[0] + np.einsum("rl,lij->rij", Qv, B[1:])
        Eq = E[0] + np.einsum("rl,lij->rij", Qv, E[1:])
    else:
        Aq, Bq, Eq = A[:1], B[:1], E[:1]
    eye = np.eye(n)
    dtF = dt * (Aq + Bq @ Km)
    dtF2 = dtF @ dtF
    dtF3 = dtF2 @ dtF
    phi_q = eye + dtF + dtF2 / 2 + dtF3 / 6 + (dtF3 @ dtF) / 24
    phi_q = np.ascontiguousarray(phi_q.transpose(1, 2, 0))
    psi_q = eye + dtF / 2 + dtF2 / 6 + dtF3 / 24

    x = rng.uniform(np.array(sys.S.lo_f), np.array(sys.S.hi_f), size=(n_runs, n)).T
    steps_per_dwell = max(1, int(round(dwell / dt)))
    buf = np.empty((min(steps_per_dwell, total_steps), n, n_runs))
    done = 0
    while done < total_steps:
        seg = min(steps_per_dwell, total_steps - done)
        qi = rng.integers(0, len(Qv), size=n_runs)
        d = Dv[rng.integers(0, len(Dv), size=n_runs)]
        c = np.einsum("rij,rj->ri", Eq[qi], d) if sys.l else np.zeros((n_runs, n))
        phi = phi_q.take(qi, axis=2)  # C order, as the kernel expects
        psi = np.ascontiguousarray((dt * np.einsum("rij,rj->ri", psi_q[qi], c)).T)
        out = buf[:seg]
        np.einsum("ijr,jr->ir", phi, x, out=out[0])
        out[0] += psi
        # out[f + k] = phi^f out[k] + x_f, x_f being out[f - 1] from zero
        phi_f, x_f, f = phi, psi, 1
        while f < seg:
            m = min(f, seg - f)
            np.einsum("ijr,kjr->kir", phi_f, out[:m], out=out[f:f + m])
            out[f:f + m] += x_f
            f += m
            if f < seg:  # then m was f: double it
                x_f = np.einsum("ijr,jr->ir", phi_f, x_f) + x_f
                phi_f = np.einsum("ijr,jkr->ikr", phi_f, phi_f)
        yield out
        x = out[-1].copy()  # the next segment overwrites the buffer
        done += seg


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
    is the largest box violation observed at any step (0.0 for clean runs,
    ``inf`` once a run is no longer finite).

    The step operators ``phi`` and ``psi`` depend only on the parameter
    vertex (``psi`` applied to ``E(q) d``), so they are built once per
    vertex of Q and gathered per run at each switch.  Every run advances one
    dwell segment at a time, with the states kept run-last, ``(n, runs)``,
    in a preallocated ``(steps, n, runs)`` buffer.
    The state ``f + k`` steps into a segment is ``phi^f`` applied to the
    state ``k`` steps in, plus the state ``f`` steps in from zero, so the
    filled part of the buffer doubles with each batched ``einsum``: 7 of
    them for a 100-step segment.  The box excess is taken once per segment.
    The floats differ from stepping one ``dt`` at a time only by rounding.

    ``horizon`` must be a positive integer multiple of ``dt``, and
    ``n_runs`` and ``dwell`` positive; anything else is a ValueError.
    """
    total_steps = _steps(horizon, dt)
    if n_runs < 1 or dwell <= 0:
        raise ValueError(f"need n_runs >= 1 and dwell > 0, not {n_runs!r} "
                         f"and {dwell!r}")
    lo_c = np.array(sys.S.lo_f)[:, None]
    hi_c = np.array(sys.S.hi_f)[:, None]
    max_excess = 0.0
    for out in _switching_segments(sys, K, n_runs, total_steps, dt, dwell, seed):
        excess = float(np.maximum(np.max(lo_c - out, initial=0.0),
                                  np.max(out - hi_c, initial=0.0)))
        if math.isnan(excess):  # a run overflowed, then lost its value
            excess = math.inf
        max_excess = max(max_excess, excess)
    return max_excess <= tol, max_excess
