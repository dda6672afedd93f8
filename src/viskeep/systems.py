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
    parameters it depends on.  E there and row ``i`` of A and B are the
    integers over one denominator of :func:`_vertex_rows`, and the
    window's vertices go over one denominator once, so a face is picked
    by an integer comparison and a row costs a few integer products.
    """
    if (sys.n, sys.m) != (3, 2):
        raise ValueError("gain rows require a 3-state, 2-input system")
    n, S = sys.n, sys.S
    E_rows, dE = _vertex_rows((sys.E,), range(n), _relevant_params(sys.E), sys.Q)
    faces = shifted_cone(S, [nums for _, nums in E_rows], dE, sys.D)
    # state i -> ([(key, numerators of A(w)_i and B(w)_i)], their den)
    AB = [_vertex_rows((sys.A, sys.B), (i,), params, sys.Q)
          for i, params in enumerate(sys.ab_params)]
    # face f -> ([(key, coefficient terms)], xi term, g_i term, den): the
    # row's terms over gi.den xi.den d Vd, d the denominator of A(w)_i and
    # B(w)_i, Vd that of the window's vertices
    terms = []
    for f, (gi, xi) in enumerate(faces):
        g0 = gi.numerator * xi.denominator
        x0 = xi.numerator * gi.denominator
        ab, d = AB[f % n]
        terms.append(([(key, [g0 * x for x in ABn]) for key, ABn in ab],
                      x0 * d, g0 * d, gi.denominator * xi.denominator * d))
    bounds, Vd = _over(S.lo + S.hi)
    his = bounds[n:]
    for v, Vn in zip(S.vertices(), _vertices(bounds[:n], his)):
        v0, v1, v2 = Vn
        cone = []
        for i, x in enumerate(Vn):
            rows, x0, g0, den = terms[i if x == his[i] else n + i]
            const = x0 * Vd - g0 * x
            cone.append((i, tuple(
                (key, (P[3] * v0, P[4] * v1, P[4] * v2,
                       const - P[0] * v0 - P[1] * v1 - P[2] * v2), den * Vd)
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
    of the two reads them first.  The vertices of Q, the keys of each
    ``w`` and the Fraction slacks are built only once some row fails, so
    a gain that holds costs the sign tests alone.  The third parameter is
    ignored; it stays for the call ``check_D_invariant_cone(sysd, K, 1)``
    in ``perfbench/workloads.py``, which still passes a step tau.
    """
    kind = "D-invariance (shifted cone)"
    Kn, Kd = _over(K.as_fractions())
    k0, k1, k2 = Kn
    if all(b * Kd >= a0 * k0 + a1 * k1 + a2 * k2 for _, cone in sys.gain_rows
           for _, rows in cone for _, (a0, a1, a2, b), _ in rows):
        return CertificateReport((), kind)
    Q_verts = sys.Q.vertices()
    # state i -> key of each w: its values on the parameters of row i
    keys = [[tuple(w[l] for l in params) for w in Q_verts]
            for params in sys.ab_params]
    violations = []
    for v, cone in sys.gain_rows:
        # (cone row, state, {key: slack} of its violations) per face
        failed = [(h, i, {key: gap / (den * Kd) for key, nums, den in rows
                          if (gap := nums[3] * Kd - _dot(nums, Kn)) < 0})
                  for h, (i, rows) in enumerate(cone)]
        for k, w in enumerate(Q_verts):
            for h, i, slacks in failed:
                if (slack := slacks.get(keys[i][k])) is not None:
                    violations.append(Violation(_float_tuple(v), _float_tuple(w),
                                                None, f"cone row {h}", slack))
    return CertificateReport(tuple(violations), kind)


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


_SWITCHING_DWELL = 0.1  # time each switching run holds its vertices, in s
_SWITCHING_TOL = 1e-6  # box excess a run may show and still count as inside


def _switching_draws(sys: UncertainLinearSystem, n_runs: int,
                     total_steps: int, dt: float, seed: int):
    """The random draws of :func:`simulate_linear_switching`, all from one
    ``random.Random(seed)``: first the ``(n_runs, n)`` start states, each
    coordinate ``lo + (hi - lo) * rng.random()`` in S, then per
    ``_SWITCHING_DWELL`` segment the ``(q, d)`` pair of arrays of each
    run's Q-vertex and D-vertex index.  A box has ``2**k`` vertices (one
    or two values per axis), so an index is a little-endian word of
    ``rng.randbytes`` masked with ``count - 1``, one byte wide up to 256
    vertices.  (numpy's generator would load ``numpy.random``, about 6 MB,
    for these draws.)"""
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
    steps_per_dwell = max(1, int(round(_SWITCHING_DWELL / dt)))
    for _ in range(-(-total_steps // steps_per_dwell)):
        yield indices(n_q), indices(n_d)


def _step_table(phi, steps: int):
    """``(operators, steps, n, 3n)``: row ``k`` of each ``phi`` of the
    stack is ``[phi^(k+1) | sum_{j<=k} phi^j | I]``, whose first ``2n``
    columns map ``[x; psi]`` to ``k + 1`` steps of ``x -> phi x + psi``.
    Rows ``m`` to ``2m - 1`` are rows ``0`` to ``m - 1`` times
    ``[[phi^m, 0], [0, phi^m], [0, sum_{j<m} phi^j]]``, as ``phi``
    commutes with both blocks: one batched product per doubling."""
    import numpy as np

    count, n = phi.shape[:2]
    table = np.zeros((count, steps, n, 3 * n))
    for i in range(n):
        table[:, :, i, 2 * n + i] = 1.0
    table[:, 0, :, :n] = phi
    table[:, 0, :, n:2 * n] = np.eye(n)
    rows = table.reshape(count, steps * n, 3 * n)
    right = np.zeros((count, 3 * n, 2 * n))
    m = 1
    while m < steps:
        c = min(m, steps - m)
        right[:, :n, :n] = right[:, n:2 * n, n:] = table[:, m - 1, :, :n]
        right[:, 2 * n:, n:] = table[:, m - 1, :, n:2 * n]
        np.matmul(rows[:, :c * n], right, out=rows[:, m * n:(m + c) * n, :2 * n])
        m += c
    return table


def _switching_operators(sys: UncertainLinearSystem, K: GainMatrix, dt: float,
                         steps: int):
    """The degree-4 step ``x -> phi(q) x + psi(q, d)`` at the vertices of
    Q and D as ``(table, op, psi)``: the :func:`_step_table` of each
    distinct ``phi`` (16 for the 64 vertices of the bundles' Q, as A and B
    read four of its parameters), ``op[q]`` the table of Q-vertex ``q``,
    and ``psi[q, d] = dt (I + dtF/2 + dtF^2/6 + dtF^3/24) E(q) d``, formed
    from gathered rows as a run's would be."""
    import numpy as np

    n = sys.n
    A, B, E = (np.array([[[float(x) for x in row] for row in M] for M in stack])
               for stack in (sys.A, sys.B, sys.E))
    Km = np.array([[float(x) for x in row] for row in K.matrix()])
    Qv, Dv = np.array(sys.Q.vertices_f()), np.array(sys.D.vertices_f())
    Aq, Bq, Eq = (M[0] + np.einsum("rl,lij->rij", Qv, M[1:]) for M in (A, B, E))
    eye = np.eye(n)
    dtF = dt * (Aq + Bq @ Km)
    dtF2 = dtF @ dtF
    dtF3 = dtF2 @ dtF
    phi = eye + dtF + dtF2 / 2 + dtF3 / 6 + (dtF3 @ dtF) / 24
    ops, op = np.unique(phi.reshape(len(phi), -1), axis=0, return_inverse=True)
    q, d = np.divmod(np.arange(len(Qv) * len(Dv)), len(Dv))
    c = np.einsum("rij,rj->ri", Eq[q], Dv[d])
    psi = dt * np.einsum("rij,rj->ri", (eye + dtF / 2 + dtF2 / 6 + dtF3 / 24)[q], c)
    return (_step_table(ops.reshape(-1, n, n), steps), op.reshape(-1),
            psi.reshape(len(Qv), len(Dv), n))


#: (segment, run) pairs per chunk of :func:`_switching_states`, and states
#: per product
_CHUNK_PAIRS = 4096
_BLOCK_STATES = 1 << 17


def _switching_states(sys: UncertainLinearSystem, K: GainMatrix,
                      n_runs: int, total_steps: int, dt: float, seed: int):
    """Every state of every run of :func:`simulate_linear_switching`, in
    blocks ``(pairs, states)``: ``states[k, :, g]`` is the state ``k + 1``
    steps into segment ``s`` of run ``r``, ``(s, r) = divmod(pairs[g],
    n_runs)``, and is overwritten by the next block.  A chunk of segments
    chains its start states, one gathered product per segment, then groups
    its pairs by table: one product per group gives their states.  A
    partial last segment is a chunk of its own.  numpy is imported in the
    body, as in every float function here, so loading the module needs
    none."""
    import numpy as np

    n = sys.n
    draws = _switching_draws(sys, n_runs, total_steps, dt, seed)
    steps = min(max(1, int(round(_SWITCHING_DWELL / dt))), total_steps)
    table, op, psi = _switching_operators(sys, K, dt, steps)
    rows = table.reshape(len(table), steps * n, 3 * n)[:, :, :2 * n]
    end = table[op, -1, :, :2 * n]  # each Q-vertex's step over a whole dwell
    key = op.astype(np.min_scalar_type(len(table) - 1))  # a radix sort's keys
    full, last = divmod(total_steps, steps)
    per_chunk = max(1, _CHUNK_PAIRS // n_runs)
    chunks = [(s, min(per_chunk, full - s), steps) for s in range(0, full, per_chunk)]
    if last:
        chunks.append((full, 1, last))
    x = next(draws)
    buf = np.empty(max(_BLOCK_STATES, steps * n))  # the states of one block
    for first, count, seg in chunks:
        y = np.empty((2 * n, count * n_runs))  # [x; psi] of each pair
        u = np.empty(count * n_runs, dtype=key.dtype)
        for j in range(count):
            qi, di = next(draws)
            runs = slice(j * n_runs, (j + 1) * n_runs)
            u[runs] = key.take(qi)
            y[:n, runs] = x.T
            y[n:, runs] = psi[qi, di].T
            # unread after the last segment
            x = np.einsum("rij,jr->ri", end.take(qi, axis=0), y[:, runs])
        order = np.argsort(u, kind="stable")
        block = max(1, _BLOCK_STATES // (seg * n))
        a = 0
        for t, b in enumerate(np.cumsum(np.bincount(u, minlength=len(table))).tolist()):
            for lo in range(a, b, block):
                pairs = order[lo:min(lo + block, b)]
                states = buf[:seg * n * len(pairs)].reshape(seg * n, len(pairs))
                np.matmul(rows[t, :seg * n], y.take(pairs, axis=1), out=states)
                yield first * n_runs + pairs, states.reshape(seg, n, len(pairs))
            a = b


def simulate_linear_switching(
    sys: UncertainLinearSystem,
    K: GainMatrix,
    n_runs: int = 200,
    horizon: float = 30.0,
    dt: float = 1e-3,
    seed: int = 0,
):
    """Randomized trajectories of ``sdot = F(q) s + E(q) d`` stay in S?

    ``q(t)`` and ``d(t)`` are piecewise constant, each value held for
    ``_SWITCHING_DWELL`` = 0.1 s, and drawn uniformly from the vertices of
    Q and D.  ``seed`` drives every draw, the start states uniform in S
    included, through one ``random.Random(seed)`` (see
    :func:`_switching_draws`): the same seed gives the same runs.
    Integration uses the degree-4 Taylor step, which coincides with
    classical RK4 on a linear time-invariant segment.  Returns ``(ok, max_excess)`` where max_excess
    is the largest box violation observed at any step (0.0 for clean runs,
    ``inf`` once a run is no longer finite) and ok says that it is at most
    ``_SWITCHING_TOL`` = 1e-6.

    In a dwell segment the state ``k + 1`` steps in is
    ``phi^(k+1) x + sum_{j<=k} phi^j psi``, so one step table per call
    (:func:`_step_table`) and one product per group of runs that share it
    give every state (:func:`_switching_states`).  Each run's states reduce
    to a minimum and maximum, and the box excess is taken once.  The floats
    differ from stepping one ``dt`` at a time only by rounding.

    ``horizon`` must be a positive integer multiple of ``dt``, and
    ``n_runs`` positive; anything else is a ValueError.
    """
    total_steps = _steps(horizon, dt)
    if n_runs < 1:
        raise ValueError(f"need n_runs >= 1, not {n_runs!r}")
    import numpy as np

    low = np.full(sys.n, math.inf)
    high = np.full(sys.n, -math.inf)
    for _, states in _switching_states(sys, K, n_runs, total_steps, dt, seed):
        # each pair's minimum and maximum over its steps, then over pairs
        low = np.minimum(low, states.min(axis=0).min(axis=1))
        high = np.maximum(high, states.max(axis=0).max(axis=1))
    # lo - min and max - hi per state: the largest lo - x and x - hi, as
    # rounding a difference is monotone
    below = (np.array(sys.S.lo_f) - low).max(initial=0.0)
    above = (high - np.array(sys.S.hi_f)).max(initial=0.0)
    max_excess = float(max(below, above))
    if math.isnan(below) or math.isnan(above):
        max_excess = math.inf  # a run overflowed, then lost its value
    return max_excess <= _SWITCHING_TOL, max_excess
