"""Linear uncertain systems and vertex-based invariance certificates.

The plant family is ``sdot = A(q) s + B(q) u + E(q) d`` with ``A, B, E``
affine in the parameter vector ``q``, and box sets for state (S), input (U),
disturbance (D) and parameter (Q).  A feedback ``u = K s`` is certified by
checking finitely many vertex conditions:

* admissibility: ``K v`` inside U for every vertex ``v`` of S;
* D-invariance: ``(I + F(w)) v``, ``F = A + B K``, on the inner side of
  every face of S through ``v``, each face shifted inward by the worst
  disturbance push.  For the face ``s_i = hi_i`` (or ``lo_i``) that is
  Nagumo's sub-tangentiality ``+-(F(w) v)_i + max_r +-(E(w) r)_i <= 0``
  (Blanchini, Automatica 1999); a one-step form with step ``dt`` scales
  it by ``dt``.

The gain polytope is those conditions written as rows in the sparse gain
(:func:`_pipeline_polytope`), and both certificates test a gain against
the same rows.  Both run in exact arithmetic only: every quantity goes
over a common denominator and each test is an integer sign test.  A float
gain entry is a dyadic rational, so it is read as ``Fraction(k)`` without
rounding and decided like any rational gain; a NaN or infinite entry is a
ValueError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .boxes import Box, _vertices, shifted_cone
from .inequalities import LinearInequalitySystem, _dot, _over, _scaled_rows

Matrix = tuple[tuple, ...]


def _relevant_params(stack, row: Optional[int] = None) -> list[int]:
    """0-based parameter indices with a nonzero coefficient matrix, or with
    a nonzero row `row` of it."""
    return [l for l, M in enumerate(stack[1:])
            if any(c != 0 for r in (M if row is None else (M[row],)) for c in r)]


def _vertex_rows(stacks: Sequence[Sequence[Matrix]], rows: Sequence[int],
                 params: Sequence[int], Q: Box) -> tuple[list, int]:
    """Rows `rows` of each stack of `stacks`, side by side, at every vertex
    ``w`` of the parameters `params`, lo before hi and the first parameter
    slowest, as integers over one denominator: ``([(key, nums)], den)``,
    ``key`` the values of ``w`` on `params`.

    Those rows of every matrix of the stacks go over one denominator, and
    so do the bounds of Q on `params`, once; each vertex is then the
    integer combination ``N_0 dq + sum_l N_l qn_l`` of ``stack[0] + sum_l
    stack[l] w_l``.  Rows that read no parameter outside `params` take at
    these vertices every value they take over Q."""
    N, dM = _over([x for l in (0, *(p + 1 for p in params))
                   for stack in stacks for i in rows for x in stack[l][i]])
    qn, dq = _over([b for p in params for b in (Q.lo[p], Q.hi[p])])
    width = len(N) // (len(params) + 1)
    out = []
    for combo in product((0, 1), repeat=len(params)):
        nums = [x * dq for x in N[:width]]
        for k, c in enumerate(combo):
            q = qn[2 * k + c]
            if q:
                for j, x in enumerate(N[(k + 1) * width:(k + 2) * width]):
                    if x:
                        nums[j] += x * q
        out.append((tuple((Q.hi if c else Q.lo)[p] for p, c in zip(params, combo)),
                    nums))
    return out, dM * dq


def _gain_rows(sys: UncertainLinearSystem):
    """The shifted-face certificate as inequalities in the sparse gain
    ``(k11, k22, k23)``, in integers; read them as the system's cached
    :attr:`UncertainLinearSystem.gain_rows`, built by this once.

    Yields ``(v, cone)`` for every window vertex ``v`` in ``S.vertices()``
    order.  ``cone`` holds, for each state ``i`` in turn, the face
    ``g_i s_i <= xi`` of S through ``v`` (face ``i`` of
    :func:`boxes.shifted_cone` if ``v_i = hi_i``, else face ``n + i``),
    shifted inward by the worst disturbance push: its state ``i`` and a
    list of ``(key, nums, den)`` over the vertices ``w`` of the parameters
    in row ``i`` of A and B (``key`` is their values).  That list is the
    condition ``g_i ((I + F(w)) v)_i <= xi``, ``F = A + B K``, read as
    ``nums[:3] . k <= nums[3]``, which is linear in the gain.
    ``nums / den`` (``den > 0``) is the row
    ``(g_i B(w)_i0 v_0, g_i B(w)_i1 v_1, g_i B(w)_i1 v_2,
    xi - g_i v_i - g_i A(w)_i . v)`` exactly.  The 2n faces are shifted by
    one :func:`shifted_cone` call over E at the vertices of the
    parameters it depends on.  Row ``i`` of A and B is evaluated in
    integers over one denominator (:func:`_vertex_rows`), and so are ``v``
    and each face, so a row costs a few integer products.
    """
    if (sys.n, sys.m) != (3, 2):
        raise ValueError("gain rows require a 3-state, 2-input system")
    n, l = sys.n, sys.l
    E_rows, dE = _vertex_rows((sys.E,), range(n), _relevant_params(sys.E), sys.Q)
    Es = [[[Fraction(x, dE) for x in nums[i * l:(i + 1) * l]] for i in range(n)]
          for _, nums in E_rows]
    faces = shifted_cone(sys.S, Es, sys.D)
    # state i -> ([(key, numerators of A(w)_i and B(w)_i)], their den)
    AB = [_vertex_rows((sys.A, sys.B), (i,), params, sys.Q)
          for i, params in enumerate(sys.ab_params)]
    # face f -> ([(key, coefficient terms)], xi term, g_i term, den): the
    # row's terms over gi.den xi.den d Vd, d the denominator of A(w)_i and
    # B(w)_i, Vd that of v
    terms = []
    for f, (gi, xi) in enumerate(faces):
        g0 = gi.numerator * xi.denominator
        x0 = xi.numerator * gi.denominator
        ab, d = AB[f % n]
        terms.append(([(key, [g0 * x for x in ABn]) for key, ABn in ab],
                      x0 * d, g0 * d, gi.denominator * xi.denominator * d))
    for v in sys.S.vertices():
        Vn, Vd = _over(v)
        cone = []
        for i, (x, hi) in enumerate(zip(v, sys.S.hi)):
            rows, x0, g0, den = terms[i if x == hi else n + i]
            const = x0 * Vd - g0 * Vn[i]
            cone.append((i, tuple(
                (key, (P[3] * Vn[0], P[4] * Vn[1], P[4] * Vn[2],
                       const - _dot(P, Vn)), den * Vd)
                for key, P in rows
            )))
        yield v, tuple(cone)


#: The bound each of a vertex's rows of :func:`_admissibility_rows` states.
_ADMISSIBILITY_LABELS = ("u[0] <= hi", "u[0] >= lo", "u[1] <= hi", "u[1] >= lo")


def _admissibility_rows(S: Box, U: Box) -> tuple[list, int]:
    """``K v in U`` for the sparse gain at every vertex ``v`` of S, in
    integers: ``(rows, den)``, ``rows`` holding per vertex, in
    ``S.vertices()`` order, the four rows of :data:`_ADMISSIBILITY_LABELS`,
    each ``nums[:3] . k <= nums[3]``, as ``u1 = k11 v1`` and
    ``u2 = k22 v2 + k23 v3``.  The bounds of S and U go over the one
    denominator ``den`` once, so a row is the integers of a vertex and of
    a bound, and ``nums / den`` is the row in the units of S and U."""
    ints, den = _over(S.lo + S.hi + U.lo + U.hi)
    n, m = S.dim, U.dim
    u_lo, u_hi = ints[2 * n:2 * n + m], ints[2 * n + m:]
    return [((v1, 0, 0, u_hi[0]), (-v1, 0, 0, -u_lo[0]),
             (0, v2, v3, u_hi[1]), (0, -v2, -v3, -u_lo[1]))
            for v1, v2, v3 in _vertices(ints[:n], ints[n:2 * n])], den


@dataclass(frozen=True)
class GainMatrix:
    """Sparse 2x3 feedback ``[[k11, 0, 0], [0, k22, k23]]``."""

    k11: float
    k22: float
    k23: float

    def matrix(self) -> Matrix:
        zero = Fraction(0)
        return (
            (self.k11, zero, zero),
            (zero, self.k22, self.k23),
        )

    def entries(self) -> tuple:
        return (self.k11, self.k22, self.k23)

    def as_floats(self) -> "GainMatrix":
        return GainMatrix(float(self.k11), float(self.k22), float(self.k23))

    def as_fractions(self) -> tuple[Fraction, ...]:
        """The entries as the rationals they are: a float is a dyadic
        rational, so ``Fraction(k)`` reads it without rounding.  A NaN or
        infinite entry is a ValueError that names it."""
        for name, k in zip(("k11", "k22", "k23"), self.entries()):
            if isinstance(k, float) and not math.isfinite(k):
                raise ValueError(f"gain entry {name} is {k!r}, not a finite number")
        return tuple(map(Fraction, self.entries()))


@dataclass(frozen=True)
class UncertainLinearSystem:
    """Affine-in-parameter family with box constraint sets.

    The sizes are those of the boxes: ``n`` states (S), ``m`` inputs (U),
    ``l`` disturbances (D) and ``p`` parameters (Q).  ``A`` holds ``p + 1``
    matrices: the constant part followed by one coefficient matrix per
    parameter component; likewise ``B`` and ``E``.  Their entries are
    exact: ints and Fractions.
    """

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
        for name in "SUDQ":
            if not getattr(self, name).contains_origin():
                raise ValueError(f"{name} must contain the origin")

    n = property(lambda self: self.S.dim)
    m = property(lambda self: self.U.dim)
    l = property(lambda self: self.D.dim)  # noqa: E741 -- the paper's name
    p = property(lambda self: self.Q.dim)

    @cached_property
    def ab_params(self) -> tuple[list[int], ...]:
        """Per state ``i``, the parameters with a nonzero row ``i`` of A or
        of B; found once per system."""
        return tuple(sorted(set(_relevant_params(self.A, i))
                            | set(_relevant_params(self.B, i)))
                     for i in range(self.n))

    @cached_property
    def gain_rows(self) -> tuple:
        """The certificate rows of :func:`_gain_rows`, built on first use
        and then shared by the gain polytope and the cone certificate."""
        return tuple(_gain_rows(self))


def _pipeline_polytope(sys: UncertainLinearSystem) -> LinearInequalitySystem:
    """The gain polytope of `sys`: the certificate rows of
    :attr:`~UncertainLinearSystem.gain_rows`, then the admissibility rows
    of :func:`_admissibility_rows`, each scaled so that its leading
    coefficient has magnitude 1, with exact duplicates dropped once on
    their integers.  A gain lies in it iff it passes both certificates,
    which test these same rows.  The keys of the rows that survive are the
    system's integer rows, and their Fractions are built only if something
    reads them."""
    adm, _ = _admissibility_rows(sys.S, sys.U)
    scaled, keys = _scaled_rows(
        [(nums, den) for _, cone in sys.gain_rows
         for _, rows in cone for _, nums, den in rows]
        + [(g, next(abs(c) for c in g if c != 0)) for rows in adm for g in rows])
    return LinearInequalitySystem._keyed(3, keys, scaled)


class Violation(NamedTuple):
    vertex: tuple
    q_vertex: Optional[tuple]
    d_vertex: Optional[tuple]
    row: str
    slack: float


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a vertex certificate: it holds iff no vertex violates it."""

    violations: tuple[Violation, ...]
    kind: str = "certificate"

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"{self.kind}: {'HOLDS' if self.holds else 'FAILS'}"]
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

    Each bound is an integer sign test on the gain polytope's
    admissibility rows (:func:`_admissibility_rows`), as the cone
    certificate's are on its invariance rows: the gain ``k = Kn / Kd`` (a
    float entry read as the rational it is) fails a row iff
    ``nums[3] * Kd - nums[:3] . Kn < 0``, and that integer over
    ``den * Kd`` is the slack, the bound less ``(K v)_j``, exactly."""
    Kn, Kd = _over(K.as_fractions())
    rows, den = _admissibility_rows(S, U)
    violations = []
    for v, vertex_rows in zip(S.vertices(), rows):
        for label, nums in zip(_ADMISSIBILITY_LABELS, vertex_rows):
            gap = nums[3] * Kd - _dot(nums, Kn)
            if gap < 0:
                violations.append(
                    Violation(_float_tuple(v), None, None, label, gap / (den * Kd)))
    return CertificateReport(tuple(violations), "admissibility")


def check_D_invariant_cone(
    sys: UncertainLinearSystem, K: GainMatrix, _tau=None
) -> CertificateReport:
    """Shifted-face condition: ``(I + F(w)) v`` inside every face of S
    through ``v``, shifted.

    The face ``s_i <= hi_i`` (or ``s_i >= lo_i``), read as
    ``g_i s_i <= 1``, is offset inward by the worst case
    ``g_i (E(w) r)_i`` over the vertices of D and of the parameters E
    depends on, computed once per face of S.  As ``g_i v_i = 1``, this is
    Nagumo's ``g_i (F(w) v)_i + max g_i (E r)_i <= 0``, which a step
    ``dt > 0`` only scales.  The face of ``s_i`` reads only entry ``i`` of
    ``(I + F(w)) v``, and row ``i`` of ``F(w)`` depends only on the
    parameters with a nonzero row ``i`` of A or B, so each entry is formed
    once per vertex of those parameters and its violations are reported
    for every ``w`` sharing it.

    Each entry is an integer sign test on the gain-polytope rows,
    ``sys.gain_rows``: the gain ``k = Kn / Kd`` (a float entry read as the
    rational it is) fails a row iff ``nums[3] * Kd - nums[:3] . Kn < 0``,
    and that integer over ``den * Kd`` is the slack
    ``xi - g_i ((I + F(w)) v)_i`` exactly.  The rows are those the gain
    polytope of `sys` was built from: built once per system, by whichever
    of the two reads them first.  The third parameter is ignored; it
    stays for the call ``check_D_invariant_cone(sysd, K, 1)`` in
    ``perfbench/workloads.py``, which still passes a step tau.
    """
    Kn, Kd = _over(K.as_fractions())
    Q_verts = sys.Q.vertices()
    # state i -> key of each w: its values on the parameters of row i
    keys = [[tuple(w[l] for l in params) for w in Q_verts]
            for params in sys.ab_params]
    violations = []
    for v, cone in sys.gain_rows:
        failed = []  # (cone row, state, {key: slack} of its violations)
        for h, (i, rows) in enumerate(cone):
            slacks = {}
            for key, nums, den in rows:
                gap = nums[3] * Kd - _dot(nums, Kn)
                if gap < 0:
                    slacks[key] = gap / (den * Kd)
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
    return CertificateReport(tuple(violations), "D-invariance (shifted cone)")


# ----------------------------------------------------------------------
# Monte-Carlo validation of the linear closed loop
# ----------------------------------------------------------------------


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


def _switching_draws(sys: UncertainLinearSystem, n_runs: int,
                     total_steps: int, dt: float, dwell: float, seed: int):
    """The random draws of :func:`simulate_linear_switching`, all from one
    ``random.Random(seed)``: first the ``(n_runs, n)`` start states, each
    coordinate ``lo + (hi - lo) * rng.random()`` in S, then per dwell
    segment the ``(q, d)`` pair of arrays of each run's Q-vertex and
    D-vertex index.  A box has ``2**k`` vertices (one or two values per
    axis), so an index is a little-endian word of ``rng.randbytes`` masked
    with ``count - 1``, one byte wide up to 256 vertices.  (numpy's
    generator would load ``numpy.random``, about 6 MB, for these draws.)"""
    import numpy as np

    rng = random.Random(seed)
    lo, hi = np.array(sys.S.lo_f), np.array(sys.S.hi_f)
    u = np.array([rng.random() for _ in range(n_runs * sys.n)])
    yield lo + (hi - lo) * u.reshape(n_runs, sys.n)

    def indices(count: int):
        width = next(w for w in (1, 2, 4, 8) if count <= 1 << 8 * w)
        words = np.frombuffer(rng.randbytes(width * n_runs), f"<u{width}")
        return words & (count - 1)

    n_q, n_d = len(sys.Q.vertices()), len(sys.D.vertices())
    steps_per_dwell = max(1, int(round(dwell / dt)))
    for _ in range(-(-total_steps // steps_per_dwell)):
        yield indices(n_q), indices(n_d)


def _switching_segments(sys: UncertainLinearSystem, K: GainMatrix,
                        n_runs: int, total_steps: int, dt: float, dwell: float,
                        seed: int):
    """The states of every run, one dwell segment at a time: yields the
    ``(steps, n, runs)`` buffer of each segment, valid until the next one
    (see :func:`simulate_linear_switching`).  numpy is imported here and
    in :func:`_switching_draws`, so that loading this module needs none."""
    import numpy as np

    draws = _switching_draws(sys, n_runs, total_steps, dt, dwell, seed)
    n = sys.n
    A, B, E = (np.array([[[float(x) for x in row] for row in M] for M in stack])
               for stack in (sys.A, sys.B, sys.E))
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

    x = next(draws).T
    steps_per_dwell = max(1, int(round(dwell / dt)))
    buf = np.empty((min(steps_per_dwell, total_steps), n, n_runs))
    done = 0
    while done < total_steps:
        seg = min(steps_per_dwell, total_steps - done)
        qi, di = next(draws)
        d = Dv[di]
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


_SWITCHING_TOL = 1e-6  # box excess a run may show and still count as inside


def simulate_linear_switching(
    sys: UncertainLinearSystem,
    K: GainMatrix,
    n_runs: int = 200,
    horizon: float = 30.0,
    dt: float = 1e-3,
    dwell: float = 0.1,
    seed: int = 0,
):
    """Randomized trajectories of ``sdot = F(q) s + E(q) d`` stay in S?

    ``q(t)`` and ``d(t)`` are piecewise constant with the given dwell time,
    drawn uniformly from the vertices of Q and D.  ``seed`` drives every
    draw, the start states uniform in S included, through one
    ``random.Random(seed)`` (see :func:`_switching_draws`): the same seed
    gives the same runs.  Integration uses the
    degree-4 Taylor step, which coincides with classical RK4 on a linear
    time-invariant segment.  Returns ``(ok, max_excess)`` where max_excess
    is the largest box violation observed at any step (0.0 for clean runs,
    ``inf`` once a run is no longer finite) and ok says that it is at most
    ``_SWITCHING_TOL`` = 1e-6.

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
    max_excess = 0.0
    for out in _switching_segments(sys, K, n_runs, total_steps, dt, dwell, seed):
        # lo - min and max - hi per state: the largest lo - x and x - hi,
        # as rounding a difference is monotone
        below = (sys.S.lo_f - out.min(axis=(0, 2))).max(initial=0.0)
        above = (out.max(axis=(0, 2)) - sys.S.hi_f).max(initial=0.0)
        excess = float(max(below, above))
        if math.isnan(below) or math.isnan(above):
            excess = math.inf  # a run overflowed, then lost its value
        max_excess = max(max_excess, excess)
    return max_excess <= _SWITCHING_TOL, max_excess
