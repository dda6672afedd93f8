"""Fixed-step simulation of the nonlinear relative dynamics.

The certificates in :mod:`viskeep.systems` address a linear family that
absorbs the true vehicle kinematics; this module closes the loop on the
original trigonometric model.  One fixed-step RK4 integrator runs every
simulation, robot k+1 pursuing robot k, so a pair is a one-link chain.
It runs in blocks of steps, each in three parts:

1. the leader profile is sampled on the block's grids t (record and k1),
   t + dt/2 (k2, k3) and t + dt (k4), by the array forms of the built-in
   signals (:mod:`viskeep.profiles`) or one call per sample, and checked
   against its bound in bulk;
2. a time loop, Python generated once per link count and noise setting,
   integrates only what feeds back: each link's centered state, with its
   feedback, wrap guard and lateral noise (none in a noise-free loop), from
   one row per step: robot 0's three profile samples and each robot's noise.
   Every state component is a local and the four stages are unrolled.
   Each step records one row: each link's state;
3. what no link reads is computed after the loop on whole arrays: the
   followers' inputs at each sample and their clamp counts, from the
   recorded states; the noise columns, from the hold table; robot 0's
   world pose, integrated from the profile at every stage; and each
   follower's world pose, placed from its leader's pose and its link's
   state, so the poses never integrate the relative motion a second time.

Every other expression keeps the float operations of a plain RK4 loop in
their order, so a trace's states, inputs and robot 0's pose are
bit-for-bit that loop's, and each error is raised at the step where that
loop raises it: a profile sample out of bound is held until the loop
reaches its step.  The feedback is evaluated at every stage, inputs are
clamped to their boxes with an event counter, and a monitor checks every
sample against the state and input boxes.
:func:`integration_error` estimates each run's global error by step
doubling.

This is the package's float layer, and it loads numpy; the exact layer
never imports it.  The leader profiles are defined in
:mod:`viskeep.profiles` and importable from here too.

Angles are never wrapped: on certified runs the heading difference stays
well inside (-pi/2, pi/2), and a wrap guard aborts if it ever passes pi,
instead of silently hiding an excursion.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .boxes import Box
from .chains import ChainSpec
from .profiles import (  # noqa: F401 -- the profile names this module re-exports
    BOUND_TOL,
    InvarianceLostError,
    LeaderProfile,
    _check_amplitude,
    _checked,
    constant,
    profile_from_json_dict,
    random_hold,
    sinusoid,
    sum_of,
)
from .scenarios import CircleScenario, UbbScenario
from .systems import GainMatrix, _steps

# ----------------------------------------------------------------------
# Traces and monitoring
# ----------------------------------------------------------------------


@dataclass
class SimTrace:
    """Uniform-grid record of one pursuit link.

    ``states`` holds the monitored relative coordinates (window-centered),
    ``inputs`` the monitored follower inputs, ``leader`` the disturbance
    pair as monitored (shifted turn rate for orbit runs).  ``pose_f`` and
    ``pose_l`` are world poses (x, y, theta): robot 0's is integrated, and
    each follower's is placed from its leader's and the link's state.
    ``times`` is the grid ``i * dt``, so the step is ``times[1]``.
    ``rerun(dt)`` integrates the run the trace came from again at step
    `dt`, every link of it.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    leader: np.ndarray
    pose_f: np.ndarray
    pose_l: np.ndarray
    noise: Optional[np.ndarray] = None
    clamp_events: int = 0
    rerun: Optional[Callable[[float], list]] = field(
        default=None, repr=False, compare=False)

    CSV_COLUMNS = ("t", "dp1", "p2", "beta", "vF", "wF", "vL", "wL",
                   "hF", "hL", "xF", "yF", "thF", "xL", "yL", "thL")

    def to_csv(self, path) -> None:
        """One line per sample, each value ``"%.12g" % x`` and every line
        ended by ``\\n``; without noise the hF and hL fields are empty.  The
        formatter (:mod:`viskeep.tracecsv`) is loaded by the first trace
        written."""
        from .tracecsv import CsvWorkspace

        n = len(self.times)
        noise = np.broadcast_to(0.0, (n, 2)) if self.noise is None else self.noise
        parts = (self.times[:, None], self.states, self.inputs, self.leader,
                 noise, self.pose_f, self.pose_l)
        blank = np.zeros(len(self.CSV_COLUMNS), bool)
        blank[8:10] = self.noise is None
        block = np.empty((_CSV_ROWS, len(self.CSV_COLUMNS)))
        workspace = CsvWorkspace(block.size)
        with open(path, "wb") as fh:
            fh.write(",".join(self.CSV_COLUMNS).encode() + b"\n")
            for i in range(0, n, _CSV_ROWS):
                rows = block[:min(_CSV_ROWS, n - i)]
                np.concatenate([p[i:i + len(rows)] for p in parts], axis=1,
                               out=rows)
                fh.write(workspace.format(rows, blank))


_CSV_ROWS = 1024  # rows per chunk: sizes the one workspace of a trace


@dataclass(frozen=True)
class ViolationReport:
    state_violations: tuple
    input_violations: tuple
    max_excess: dict
    first_violation_time: Optional[float]

    @property
    def clean(self) -> bool:
        return not (self.state_violations or self.input_violations)

    def to_json_dict(self) -> dict:
        return {
            "clean": self.clean,
            "first_violation_time": self.first_violation_time,
            "max_excess": self.max_excess,
            "state_violations": len(self.state_violations),
            "input_violations": len(self.input_violations),
        }


def monitor(trace: SimTrace, S: Box, U: Box) -> ViolationReport:
    """Per-sample box check of states against S and inputs against U: a
    sample more than ``BOUND_TOL`` outside its box is a violation, and a
    non-finite sample is one with infinite excess."""
    labels_s = ("dp1", "p2", "beta")
    labels_u = ("vF", "wF")
    state_viol, input_viol = [], []
    max_excess = {k: 0.0 for k in labels_s + labels_u}
    first = None
    for arr, box, labels, sink in (
        (trace.states, S, labels_s, state_viol),
        (trace.inputs, U, labels_u, input_viol),
    ):
        lo = np.array(box.lo_f)
        hi = np.array(box.hi_f)
        excess = np.where(np.isfinite(arr), np.maximum(arr - hi, lo - arr),
                          np.inf)
        for j, label in enumerate(labels):
            col = excess[:, j]
            worst = float(col.max(initial=0.0))
            if worst > max_excess[label]:
                max_excess[label] = worst
            bad = np.nonzero(col > BOUND_TOL)[0]
            for i in bad:
                t = float(trace.times[i])
                bound = float(hi[j] if arr[i, j] > hi[j] else lo[j])
                sink.append((t, label, float(arr[i, j]), bound))
                if first is None or t < first:
                    first = t
    return ViolationReport(
        tuple(state_viol), tuple(input_viol), max_excess, first
    )


# ----------------------------------------------------------------------
# The integrator
# ----------------------------------------------------------------------


def _rk4_source(n: int, noisy: bool) -> str:
    """Source of ``run``, one block of the time loop of an n-link chain with
    lateral noise or without it (see _integrate).

    The state is each link r's centered state ``s1_r, s2_r, s3_r``, all
    locals: no world pose enters a link derivative, so robot 0's pose is
    left to `_poses` and the followers' to the placement in `_integrate`.
    ``rows`` holds a row per step with stages: robot 0's speed offset and
    turn rate at t, t + dt/2 and t + dt, then in a noisy run each robot's
    lateral noise.  Each step appends each link's state at t to ``rec``, and
    with ``last`` set so does the step after the rows, which has no stages.
    Only what feeds back into the next step is computed: `_integrate`
    derives the followers' inputs and clamp counts from ``rec``.
    """
    links = range(1, n + 1)
    state = [f"{c}{r}" for r in links for c in ("s1_", "s2_", "s3_")]
    row = ", ".join(state)
    record = [  # each wrap guard, then the row of step i0 + len(rec) // 3n
        f"if abs(s3_{r} + o3_{r}) > pi: raise InvarianceLostError(f'heading "
        f"difference left (-pi, pi) on link {r} at "
        f"t={{(i0 + len(rec) // {3 * n}) * dt:.6g}}; invariance lost')"
        for r in links] + [f"put(({row},))"]
    # Without noise every h is 0.0, and the loop leaves out the terms
    # - h * sb, - h and + h * cb.  That is exact: sb - 0.0 is sb, and adding
    # +-0.0 leaves a partial sum as it is unless the sum is -0.0.  None is:
    # a sum is -0.0 only if both its terms are, a difference only if its
    # left term is, cb - 1.0 never is, and sb is only where beta = s3 + o3
    # is, which takes an o3 of -0.0 (o3 is 0.0 or the orbit's gamma > 0).
    loop = list(record)
    for m, step, v, w in ((1, None, "v", "w"), (2, "half", "vh", "wh"),
                          (3, "half", "vh", "wh"), (4, "dt", "v1", "w1")):
        z = {a: a if step is None else f"z_{a}" for a in state}
        if step is not None:
            loop += [f"z_{a} = {a} + {step} * k{m - 1}_{a}" for a in z]
        for r in links:  # robot r pursues robot r - 1, which moves at v, w
            s1, s2, s3 = (z[f"{c}{r}"] for c in ("s1_", "s2_", "s3_"))
            vF, wF = f"vF{r}", f"wF{r}"
            h_sb, h, h_cb = ((f" - h{r - 1} * sb", f" - h{r}",
                              f" + h{r - 1} * cb") if noisy else ("",) * 3)
            loop += [  # link r's clamped inputs at stage m, then its k_m
                f"u1, u2 = k11_{r} * {s1}, k22_{r} * {s2} + k23_{r} * {s3}",
                f"{vF} = V_{r} if u1 > V_{r} else nV_{r} if u1 < nV_{r} else u1",
                f"uw = Om_{r} if u2 > Om_{r} else nOm_{r} if u2 < nOm_{r} else u2",
                f"{wF}, beta = uw + rho, {s3} + o3_{r}",
                "cb, sb = cos(beta), sin(beta)",
                f"k{m}_s1_{r} = (cb - 1.0) - {vF} + ({s2} + o2_{r}) * {wF} "
                f"+ {v} * cb{h_sb}",
                f"k{m}_s2_{r} = sb{h} - ({s1} + o1_{r}) * {wF} "
                f"+ {v} * sb{h_cb}",
                f"k{m}_s3_{r} = {w} - {wF}",
            ]
            v, w = vF, wF
    loop += [f"{a} = {a} + sixth * (k1_{a} + 2.0 * (k2_{a} + k3_{a}) + k4_{a})"
             for a in state]
    noise = "".join(f", h{r}" for r in range(n + 1)) if noisy else ""
    head = [
        "def run(params, rho, dt, i0, rows, last, y, rec):",
        "cos, sin, pi, half, sixth = math.cos, math.sin, math.pi, 0.5 * dt, dt / 6.0",
        "".join(f"(k11_{r}, k22_{r}, k23_{r}, V_{r}, Om_{r}, o1_{r}, o2_{r}, "
                f"o3_{r}), " for r in links) + "= params",
        *(f"nV_{r}, nOm_{r} = -V_{r}, -Om_{r}" for r in links),
        f"{row}, = y",
        "put = rec.extend",
        f"for v, w, vh, wh, v1, w1{noise} in rows:",
        *("    " + line for line in loop),
        "if last:",
        *("    " + line for line in record),
        f"return {row},",
    ]
    return "\n    ".join(head) + "\n"


_RK4: dict = {}  # (link count, noisy) -> its compiled run()
_BLOCK = 1024  # steps per block: bounds what a run holds beyond its traces
NOISE_HOLD = 0.1  # s: each lateral noise value holds this long


def _samples(sig: Callable[[float], float], bound: float, name: str,
             grid: np.ndarray):
    """`sig` at the times of `grid`, in that order, and the error the
    integrator meets at the first sample out of `bound` (None if there is
    none), where the samples stop.  A built-in signal is sampled by its array
    form; a block it flags, and every other callable, gets one checked call
    per sample, so each error is raised by the call that raises it in a
    plain loop."""
    array = getattr(sig, "array", None)
    if array is not None:
        with np.errstate(all="ignore"):  # inf and NaN fall to the calls below
            vals = array(grid)
        if (np.abs(vals) <= bound + BOUND_TOL).all():  # NaN fails too
            return vals, None
    checked, vals = _checked(sig, bound, name), []
    for t in grid.tolist():
        try:
            vals.append(checked(t))
        except Exception as err:  # raised once the loop reaches sample t
            return vals, err
    return vals, None


def _lead(profile: LeaderProfile, limits: tuple, i0: int, i1: int,
          last: int, dt: float):
    """Robot 0's speed offsets and turn rates at t, t + dt/2 and t + dt of
    steps i0 .. i1 - 1, a row per step (step `last` sampled at t only),
    then the error the plain loop meets first among these samples (None
    without one) and the count m of steps with stages, those before the
    error's step or `last`.  Rows from row m on may hold zeros."""
    t = np.arange(i0, i1) * dt
    grid = np.column_stack((t, t + 0.5 * dt, t + dt)).ravel()
    if i1 == last + 1:
        grid = grid[:-2]
    # the plain loop samples v, omega at t, then at t + dt/2, then at
    # t + dt: omega is needed only before the first bad sample of v
    vs, err = _samples(profile.v, limits[0], "v", grid)
    bad = len(vs) if err is not None else len(grid)
    ws, w_err = _samples(profile.omega, limits[1], "omega", grid[:bad])
    if w_err is not None:
        err, bad = w_err, len(ws)
    V, W = np.zeros((2, i1 - i0, 3))
    V.flat[:len(vs)], W.flat[:len(ws)] = vs, ws
    return V, W, err, (min(i1, last) - i0 if err is None else bad // 3)


def _poses(pose: Sequence, e: np.ndarray, w: np.ndarray, h, dt: float):
    """Robot 0's world poses after each RK4 step from ``pose = (x, y, q)``:
    a row ``(x, y, q)`` per step.

    ``e[m]`` and ``w[m]`` hold its speed factor 1 + v and its turn rate at
    stage m of each step, ``h`` its lateral noise (0.0 without).  Each float
    expression is the plain loop's, and each sum runs in the loop's order,
    so the poses are its poses bit for bit.  That takes numpy's float64 sin
    and cos to round as math's do: none of 28 million samples differed under
    NumPy 2.4 on x86-64, and the oracle tests in ``tests/test_simulate.py``
    pin it.
    """
    half, sixth = 0.5 * dt, dt / 6.0

    def advance(a, k):  # a + sixth * (k1 + 2 (k2 + k3) + k4), step by step
        incr = sixth * (k(0) + 2.0 * (k(1) + k(2)) + k(3))
        return np.add.accumulate(np.concatenate(([a], incr)))[1:]

    def dxy(m):  # the x and y derivatives at stage m, side by side
        z = q if m == 0 else q + (dt if m == 3 else half) * w[m - 1]
        c, s = np.cos(z), np.sin(z)
        return np.column_stack((e[m] * c - h * s, e[m] * s + h * c))

    x, y, q = pose
    qs = advance(q, w.__getitem__)
    q = np.concatenate(([q], qs[:-1]))
    return np.column_stack((advance((x, y), dxy), qs))


def _integrate(links: Sequence, lead_limits: tuple, profile: LeaderProfile,
               s0: Sequence, pose: Sequence, T: float, dt: float,
               rho: float = 0.0,
               noise: Optional[Sequence[tuple]] = None) -> list[SimTrace]:
    """Run robots 0..n-1, robot k+1 pursuing robot k, and record each link.

    ``links[k]`` is ``(gain, (V, Omega), (o1, o2, o3))``: link k's gain, its
    follower's input bounds and its window center in raw relative
    coordinates.  ``lead_limits`` bounds the profile of robot 0, ``s0``
    holds the window-centered link states and ``pose`` robot 0's world pose.
    ``rho`` is added back to every turn rate (orbit runs), and ``noise[j]``
    gives the lateral noise of each robot over hold interval j, the times
    ``[j, j + 1) * NOISE_HOLD``: it is held across the stages of every step
    in that interval, and `dt` must divide the hold.

    The steps run in blocks of ``_BLOCK``.  Each block samples the leader
    profile on its whole time grid, runs the link states through the
    generated loop, then fills the followers' inputs at t and the clamp
    counts from the recorded states, integrates robot 0's pose and places
    each follower at each sample from its leader's pose and its link's raw
    state ``(p1, p2, beta)``, the leader's position and heading in the
    follower's frame, all on whole arrays.  A profile sample out of bound
    is raised when the loop reaches it, so an earlier wrap-guard error
    still comes first.  Each trace's ``rerun(dt)`` integrates the same run
    again at another step (see :func:`integration_error`).
    """
    params = [(*gain, V, Om, *offset) for gain, (V, Om), offset in links]
    n, n_steps = len(links), _steps(T, dt)
    key = (n, noise is not None)
    if key not in _RK4:
        scope = {"math": math, "InvarianceLostError": InvarianceLostError}
        exec(_rk4_source(*key), scope)
        _RK4[key] = scope["run"]
    run = _RK4[key]
    k11, k22, k23, V_F, Om_F = np.array(params).T[:5]

    # rows of Y: each robot's pose with each link's state between them; of
    # U: each robot's realized inputs (the profile for robot 0); of H: each
    # robot's noise (no column without noise).  Link k joins robots k, k + 1.
    Y = np.empty((n_steps + 1, 3 + 6 * n))
    U = np.empty((n_steps + 1, 2 + 2 * n))
    H = (np.empty((n_steps + 1, 0)) if noise is None else np.asarray(
        noise, dtype=float)[np.arange(n_steps + 1) // _hold_steps(dt)])
    Y[0, :3] = pose
    clamps = np.zeros(n, dtype=int)

    def block(i0: int, y: tuple) -> tuple:
        """Steps i0 .. i1 - 1: their rows, with robot 0's poses after them
        and each follower's pose placed; returns the link states after
        them."""
        i1 = min(i0 + _BLOCK, n_steps + 1)
        V, W, err, m = _lead(profile, lead_limits, i0, i1, n_steps, dt)
        Wr = W + rho  # robot 0's turn rates as integrated
        lead = np.hstack((np.dstack((V, Wr)).reshape(-1, 6), H[i0:i1]))
        rec = []
        y = run(params, rho, dt, i0, lead[:m].tolist(), i0 + m < i1, y, rec)
        if err is not None:
            raise err
        rows = slice(i0, i1)
        S = np.array(rec).reshape(i1 - i0, n, 3)
        for c in range(3):
            Y[rows, 3 + c::6] = S[:, :, c]
        # the followers' inputs at t, by the loop's float operations and its
        # clamp, which a NaN falls through; a step counts where either clamps
        u1, u2 = k11 * S[:, :, 0], k22 * S[:, :, 1] + k23 * S[:, :, 2]
        clamps[:] += ((np.abs(u1) > V_F) | (np.abs(u2) > Om_F)).sum(axis=0)
        for u, bound, col in ((u1, V_F, 2), (u2, Om_F, 3)):
            U[rows, col::2] = np.where(u > bound, bound,
                                       np.where(u < -bound, -bound, u))
        U[rows, 0], U[rows, 1] = V[:, 0], W[:, 0]
        if m > 0:  # robot 0's profile at the four stages of each step
            stages = [0, 1, 1, 2]
            Y[i0 + 1:i0 + m + 1, :3] = _poses(
                Y[i0, :3], 1.0 + V[:m, stages].T, Wr[:m, stages].T,
                0.0 if noise is None else H[i0:i0 + m, 0], dt)
        for k, (*_, o1, o2, o3) in enumerate(params):  # place robot k + 1
            xl, yl, ql, s1, s2, s3 = Y[rows, 6 * k:6 * k + 6].T
            p1, p2, q = s1 + o1, s2 + o2, ql - (s3 + o3)
            c, s = np.cos(q), np.sin(q)
            Y[rows, 6 * k + 6] = xl - (c * p1 - s * p2)
            Y[rows, 6 * k + 7] = yl - (s * p1 + c * p2)
            Y[rows, 6 * k + 8] = q
        return y

    y = tuple(x for s in s0 for x in s)
    for i0 in range(0, n_steps + 1, _BLOCK):
        y = block(i0, y)

    times = np.arange(n_steps + 1) * dt
    rerun = functools.partial(_integrate, links, lead_limits, profile, s0,
                              pose, T, rho=rho, noise=noise)
    return [
        SimTrace(
            times=times, states=Y[:, 6 * k + 3:6 * k + 6],
            inputs=U[:, 2 * k + 2:2 * k + 4], leader=U[:, 2 * k:2 * k + 2],
            noise=None if noise is None else H[:, [k + 1, k]],
            pose_f=Y[:, 6 * k + 6:6 * k + 9], pose_l=Y[:, 6 * k:6 * k + 3],
            clamp_events=int(clamps[k]), rerun=rerun,
        )
        for k in range(n)
    ]


def integration_error(traces: Sequence[SimTrace]) -> list[float]:
    """Step-doubling estimate of the global error of each link of one run
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).

    The run is integrated again at ``2 dt`` on the same grid, and each
    link's estimate is ``max |y_dt - y_2dt| / 15`` over its state and both
    poses at the shared times, 15 being ``2**4 - 1`` for RK4.  Where
    ``2 dt`` does not fit the run (an odd step count, or with noise an odd
    number of steps per hold) the second run is at ``dt / 2``, compared on
    the run's own grid and scaled by ``16 / 15``.  Nothing of the second
    run is kept.
    """
    first = traces[0]
    dt, n_steps = float(first.times[1]), len(first.times) - 1
    if n_steps % 2 == 0 and (first.noise is None or _hold_steps(dt) % 2 == 0):
        other, here, there, factor = first.rerun(2 * dt), 2, 1, 15.0
    else:
        other, here, there, factor = first.rerun(0.5 * dt), 1, 2, 15.0 / 16.0
    return [
        max(float(np.abs(a[::here] - b[::there]).max())
            for a, b in ((x.states, y.states), (x.pose_f, y.pose_f),
                         (x.pose_l, y.pose_l))) / factor
        for x, y in zip(traces, other)
    ]


# ----------------------------------------------------------------------
# Scenario simulators
# ----------------------------------------------------------------------


def _check_s0(s0: Sequence, half_widths: Sequence, what: str = "s0") -> tuple:
    """`s0` as floats, once it is known to lie in the window."""
    if len(s0) != 3:
        raise ValueError(f"{what} must have three components")
    for x, h in zip(s0, half_widths):
        if not abs(float(x)) <= float(h) + 1e-12:  # NaN fails too
            raise ValueError(f"{what} lies outside the visibility window")
    return tuple(float(x) for x in s0)


def _simulate_pair(sc, K: GainMatrix, profile: LeaderProfile, s0: Sequence,
                   T: float, dt: float, noise=None) -> SimTrace:
    """A pair is a one-link run about ``sc.offset_and_rate``: the leader's
    pose is the raw state, so the follower is placed at the origin pose."""
    offset, rho = sc.offset_and_rate
    s = _check_s0(s0, (sc.a, sc.a, sc.b))
    leader = tuple(x + o for x, o in zip(s, offset))
    return _integrate(
        [(K.as_floats().entries(), (sc.V_F, sc.Omega_F), offset)],
        (sc.V_L, sc.Omega_L), profile, [s], leader, T, dt, rho, noise,
    )[0]


def simulate_basic(sc, K: GainMatrix, profile: LeaderProfile,
                   s0: Sequence, T: float, dt: float = 1e-3) -> SimTrace:
    """Noise-free closed-loop run of a pair scenario of any family; on the
    orbit window, `profile.omega` is the leader's turn rate less the orbit
    rate, which the run adds back to both turn rates."""
    return _simulate_pair(sc, K, profile, s0, T, dt)


def _hold_steps(dt: float) -> int:
    """Steps of size `dt` (finite and positive) in one noise hold:
    ``NOISE_HOLD / dt`` as a positive integer, or a ValueError that names
    both."""
    m = round(NOISE_HOLD / dt)
    if m < 1 or abs(m * dt - NOISE_HOLD) > 1e-9:
        raise ValueError(f"dt={dt!r} does not divide the noise hold "
                         f"{NOISE_HOLD!r} s")
    return m


def uniform_noise(amp_f: float, amp_l: float,
                  seed: int = 0) -> Callable[[int], list]:
    """Uniform lateral noise, one ``(hF, hL)`` pair per hold interval.

    ``draw(n)`` gives the pairs of intervals 0 .. n - 1: the first n pairs
    of one ``random.Random(seed)``, so interval j's pair depends only on the
    seed and j, never on the step.  (numpy's generator would load
    ``numpy.random``, about 6 MB, for a few hundred draws.)  Each amplitude
    must be a finite number >= 0.
    """
    for amp in (amp_f, amp_l):
        _check_amplitude(amp)

    def draw(n: int) -> list:
        rng = random.Random(seed)
        return [(rng.uniform(-amp_f, amp_f), rng.uniform(-amp_l, amp_l))
                for _ in range(n)]

    return draw


def simulate_ubb(
    sc: UbbScenario,
    K: GainMatrix,
    profile: LeaderProfile,
    h_sampler: Optional[Callable[[int], Sequence]] = None,
    s0: Sequence = (0.0, 0.0, 0.0),
    T: float = 60.0,
    dt: float = 1e-3,
    seed: int = 0,
) -> SimTrace:
    """Run with lateral disturbances defined in time: ``h_sampler(n)``
    gives the ``(hF, hL)`` pairs of the first n hold intervals (see
    :func:`uniform_noise`, the default with amplitudes ``(H_F, H_L)``), and
    each pair holds for ``NOISE_HOLD`` seconds, so `dt` must divide it."""
    if h_sampler is None:
        h_sampler = uniform_noise(sc.H_F, sc.H_L, seed)
    n = _steps(T, dt) // _hold_steps(dt) + 1  # hold intervals the run meets
    pairs = np.asarray(h_sampler(n), dtype=float).reshape(n, 2)
    if not (np.abs(pairs) <= (sc.H_F + BOUND_TOL, sc.H_L + BOUND_TOL)).all():
        raise ValueError("noise sample exceeds its amplitude bound")
    noise = pairs[:, ::-1].tolist()  # robot order: leader, follower
    return _simulate_pair(sc, K, profile, s0, T, dt, noise)


def simulate_circle(sc: CircleScenario, K: GainMatrix, profile: LeaderProfile,
                    s0: Sequence, T: float, dt: float = 1e-3) -> SimTrace:
    """:func:`simulate_basic`: perfbench wraps this name; ROADMAP item 2 drops it."""
    return _simulate_pair(sc, K, profile, s0, T, dt)


def simulate_scenario(sc, K: GainMatrix, profile: LeaderProfile,
                      s0: Sequence, T: float, dt: float,
                      noise_amplitude: Optional[float] = None,
                      seed: int = 0) -> SimTrace:
    """Run a pair scenario.  A ubb run draws uniform lateral noise, of
    amplitude ``noise_amplitude`` on both vehicles, or of ``(H_F, H_L)``
    when it is None, from ``seed``, so its trace has noise columns even at
    zero amplitude; a run of the other families draws none."""
    if sc.kind != "ubb":
        return simulate_basic(sc, K, profile, s0, T, dt)
    amp = noise_amplitude
    noise = None if amp is None else uniform_noise(amp, amp, seed)
    return simulate_ubb(sc, K, profile, noise, s0, T, dt, seed=seed)


def simulate_chain(
    spec: ChainSpec,
    gains: Sequence[GainMatrix],
    lead_profile: LeaderProfile,
    s0: Sequence[Sequence],
    T: float,
    dt: float = 1e-3,
) -> list[SimTrace]:
    """Simultaneous integration of all links, robot 0 at the origin pose.

    Link k+1's leader inputs are link k's realized (clamped) feedback, so
    each robot reacts only to the vehicle directly ahead.
    """
    n = spec.n
    if len(gains) != n - 1 or len(s0) != n - 1:
        raise ValueError("need one gain and one initial state per link")
    s = [_check_s0(x, (g.a, g.a, g.b), what=f"s0[{k}]")
         for k, (x, g) in enumerate(zip(s0, spec.links))]
    links = [(K.as_floats().entries(), spec.robots[k], (g.d, 0.0, 0.0))
             for k, (K, g) in enumerate(zip(gains, spec.links), start=1)]
    return _integrate(links, spec.robots[0], lead_profile, s, (0.0, 0.0, 0.0),
                      T, dt)
