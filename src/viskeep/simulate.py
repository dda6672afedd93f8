"""Fixed-step simulation of the nonlinear relative dynamics.

The certificates in :mod:`viskeep.systems` address a linear family that
absorbs the true vehicle kinematics; this module closes the loop on the
original trigonometric model.  One fixed-step RK4 integrator runs every
simulation, robot k+1 pursuing robot k, so a pair is a one-link chain.
Its time loop is Python generated once per link count: every state
component is a local, the four stages are unrolled, and each expression
keeps the float operations of a plain RK4 loop in their order, so a trace
is bit-for-bit that loop's.  The feedback is evaluated at every stage,
inputs are clamped to their boxes with an event counter, and a monitor
checks every sample against the state and input boxes.  The leader profile
is sampled at t (record and k1), t + dt/2 (k2, k3) and t + dt (k4).

Angles are never wrapped: on certified runs the heading difference stays
well inside (-pi/2, pi/2), and a wrap guard aborts if it ever passes pi,
instead of silently hiding an excursion.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .boxes import Box
from .systems import GainMatrix, _steps

if TYPE_CHECKING:  # scenarios calls the simulators, so import for types only
    from .chains import ChainSpec
    from .scenarios import BasicScenario, CircleScenario, UbbScenario

BOUND_TOL = 1e-9


# ----------------------------------------------------------------------
# Leader velocity profiles
# ----------------------------------------------------------------------


def constant(value: float) -> Callable[[float], float]:
    return lambda t: value


def sinusoid(amplitude: float, omega: float, phase: float = 0.0,
             kind: str = "sin") -> Callable[[float], float]:
    if kind == "sin":
        return lambda t: amplitude * math.sin(omega * t + phase)
    if kind == "cos":
        return lambda t: amplitude * math.cos(omega * t + phase)
    raise ValueError("kind must be 'sin' or 'cos'")


def random_hold(amplitude: float, dt_hold: float, seed: int = 0) -> Callable[[float], float]:
    """Uniform value in [-amplitude, amplitude], resampled every dt_hold.

    The value of hold interval ``i = int(t / dt_hold)`` is the first draw
    of ``random.Random(f"{seed}:{i}")``, so it depends only on (seed, i)
    and evaluation order cannot change a trajectory.  The last interval's
    value is memoized: seeding a generator costs about 60 sinusoid
    samples, and an integrator samples each interval thousands of times,
    so one generator is built per interval visited in a row.
    """
    if dt_hold <= 0:
        raise ValueError(f"random profile hold must be positive, not {dt_hold!r}")
    memo = (None, 0.0)  # (interval, its value), rebound as one tuple

    def f(t: float) -> float:
        nonlocal memo
        i = int(t / dt_hold)
        key, val = memo
        if key != i:
            val = random.Random(f"{seed}:{i}").uniform(-amplitude, amplitude)
            memo = (i, val)
        return val

    return f


def sum_of(f: Callable[[float], float], g: Callable[[float], float]) -> Callable[[float], float]:
    return lambda t: f(t) + g(t)


@dataclass(frozen=True)
class LeaderProfile:
    """Leader speed offset and turn-rate signals (turn rate is the shifted
    quantity for orbit scenarios)."""

    v: Callable[[float], float]
    omega: Callable[[float], float]


def profile_from_json_dict(data: dict) -> LeaderProfile:
    """Profile from its JSON form; a malformed signal is a ValueError."""
    def number(spec, key, default=None):
        val = spec.get(key, default)
        if type(val) not in (int, float) or not math.isfinite(val):  # no bool
            raise ValueError(f"{spec['type']} profile needs a finite number "
                             f"for {key!r}, not {val!r}")
        return val

    def build(spec) -> Callable[[float], float]:
        if not isinstance(spec, dict):
            raise ValueError(f"profile signal must be a JSON object, not {spec!r}")
        kind = spec.get("type")
        if kind == "constant":
            return constant(number(spec, "value"))
        if kind in ("sin", "cos"):
            return sinusoid(number(spec, "amplitude"), number(spec, "omega"),
                            number(spec, "phase", 0.0), kind)
        if kind == "random":
            seed = spec.get("seed", 0)
            if type(seed) is not int:
                raise ValueError(f"random profile seed must be an integer, "
                                 f"not {seed!r}")
            return random_hold(number(spec, "amplitude"), number(spec, "hold"),
                               seed)
        if kind == "sum":
            terms = spec.get("terms")
            if not (isinstance(terms, list) and len(terms) == 2):
                raise ValueError("sum profile takes a list of exactly two terms")
            return sum_of(build(terms[0]), build(terms[1]))
        raise ValueError(f"unknown profile type {kind!r}")

    if not isinstance(data, dict):
        raise ValueError(f"profile must be a JSON object, not {data!r}")
    return LeaderProfile(v=build(data["v"]), omega=build(data["omega"]))


def _checked(sig: Callable[[float], float], bound: float, name: str) -> Callable[[float], float]:
    def f(t: float) -> float:
        val = sig(t)
        if not abs(val) <= bound + BOUND_TOL:  # NaN fails too
            raise ValueError(
                f"leader profile exceeds its bound: |{name}({t:.6g})| = "
                f"{abs(val):.6g} > {bound:.6g}"
            )
        return val

    return f


# ----------------------------------------------------------------------
# Traces and monitoring
# ----------------------------------------------------------------------


@dataclass
class SimTrace:
    """Uniform-grid record of one pursuit link.

    ``states`` holds the monitored relative coordinates (window-centered),
    ``inputs`` the monitored follower inputs, ``leader`` the disturbance
    pair as monitored (shifted turn rate for orbit runs).  ``pose_f`` and
    ``pose_l`` are world poses (x, y, theta).
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    leader: np.ndarray
    pose_f: np.ndarray
    pose_l: np.ndarray
    noise: Optional[np.ndarray] = None
    clamp_events: int = 0
    meta: dict = field(default_factory=dict)

    CSV_COLUMNS = ("t", "dp1", "p2", "beta", "vF", "wF", "vL", "wL",
                   "hF", "hL", "xF", "yF", "thF", "xL", "yL", "thL")

    def to_csv(self, path) -> None:
        """One row per sample, each value as ``%.12g``; without noise the
        hF and hL fields are empty."""
        blocks = [self.times[:, None], self.states, self.inputs, self.leader]
        noise_cell = ""
        if self.noise is not None:
            blocks.append(self.noise)
            noise_cell = "%.12g"
        blocks += [self.pose_f, self.pose_l]
        row = ",".join(["%.12g"] * 8 + [noise_cell] * 2 + ["%.12g"] * 6) + "\n"
        data = np.hstack(blocks)
        with open(path, "w") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            for i in range(0, len(data), 4096):  # chunks keep tolist() small
                fh.writelines(row % tuple(r) for r in data[i:i + 4096].tolist())


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


def monitor(trace: SimTrace, S: Box, U: Box, tol: float = BOUND_TOL) -> ViolationReport:
    """Per-sample box check of states against S and inputs against U; a
    non-finite sample is a violation with infinite excess."""
    if not 0 <= tol < math.inf:  # NaN or inf would pass every sample
        raise ValueError(f"tol must be a finite number >= 0, not {tol!r}")
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
            bad = np.nonzero(col > tol)[0]
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


def reconstruct_relative(pose_f: Sequence, pose_l: Sequence) -> tuple:
    """Relative coordinates (p1, p2, beta) of the leader seen from the
    follower, recomputed from two world poses."""
    xf, yf, tf = pose_f
    xl, yl, tl = pose_l
    dx, dy = xl - xf, yl - yf
    c, s = math.cos(tf), math.sin(tf)
    return (c * dx + s * dy, -s * dx + c * dy, tl - tf)


def _rk4_source(n: int) -> str:
    """Source of ``run``, the time loop of an n-link chain (see _integrate).

    The state is robot 0's pose ``x0, y0, q0``, then per link r its centered
    state ``s1_r, s2_r, s3_r`` and its follower's pose ``xr, yr, qr``, all
    locals.  Positions enter no derivative, so they get no stage inputs.
    """
    links = range(1, n + 1)
    state = ["x0", "y0", "q0"] + [f"{c}{r}" for r in links
                                  for c in ("s1_", "s2_", "s3_", "x", "y", "q")]
    moving = [a for a in state if a[0] in "qs"]
    noise = ", ".join(f"h{r}" for r in range(n + 1))

    def feedback(r, s1, s2, s3):  # link r's clamped inputs vF{r}, uw{r}
        return [f"u1, u2 = k11_{r} * {s1}, k22_{r} * {s2} + k23_{r} * {s3}",
                f"vF{r} = V_{r} if u1 > V_{r} else nV_{r} if u1 < nV_{r} else u1",
                f"uw{r} = Om_{r} if u2 > Om_{r} else nOm_{r} if u2 < nOm_{r} else u2"]

    loop = ["t = i * dt", "if noise_step is not None:",
            f"    h = noise_step(i); hs.extend(h); {noise}, = h"]
    for r in links:  # the record: wrap guard, clamp counter, realized inputs
        loop += [f"if abs(s3_{r} + o3_{r}) > pi:",
                 f"    raise ValueError(f'heading difference left (-pi, pi) on "
                 f"link {r} at t={{t:.6g}}; invariance lost')",
                 *feedback(r, f"s1_{r}", f"s2_{r}", f"s3_{r}"),
                 f"if abs(u1) > V_{r} or abs(u2) > Om_{r}: n{r} += 1"]
    loop += ["v, w = prof_v(t), prof_w(t)", f"ys.extend(({', '.join(state)}))",
             f"us.extend((v, w, {', '.join(f'vF{r}, uw{r}' for r in links)}))",
             "if i == n_steps: break",
             "vh, wh, v1, w1 = (prof_v(t + half), prof_w(t + half), "
             "prof_v(t + dt), prof_w(t + dt))",
             "w, wh, w1 = w + rho, wh + rho, w1 + rho"]
    for m, step, v, w in ((1, None, "v", "w"), (2, "half", "vh", "wh"),
                          (3, "half", "vh", "wh"), (4, "dt", "v1", "w1")):
        z = {a: a if step is None else f"z_{a}" for a in moving}
        if step is not None:
            loop += [f"z_{a} = {a} + {step} * k{m - 1}_{a}" for a in moving]
        loop += [f"e, c, s = 1.0 + {v}, cos({z['q0']}), sin({z['q0']})",
                 f"k{m}_x0, k{m}_y0, k{m}_q0 = e * c - h0 * s, e * s + h0 * c, {w}"]
        for r in links:  # robot r pursues robot r - 1, which moves at v, w
            s1, s2, s3, q = (z[f"{c}{r}"] for c in ("s1_", "s2_", "s3_", "q"))
            if step is not None:  # stage 1 reuses the record's feedback
                loop += feedback(r, s1, s2, s3)
            loop += [
                f"wF{r}, beta = uw{r} + rho, {s3} + o3_{r}",
                f"cb, sb, cf, sf = cos(beta), sin(beta), cos({q}), sin({q})",
                f"k{m}_s1_{r} = (cb - 1.0) - vF{r} + ({s2} + o2_{r}) * wF{r} "
                f"+ {v} * cb - h{r - 1} * sb",
                f"k{m}_s2_{r} = sb - h{r} - ({s1} + o1_{r}) * wF{r} "
                f"+ {v} * sb + h{r - 1} * cb",
                f"k{m}_s3_{r}, e = {w} - wF{r}, 1.0 + vF{r}",
                f"k{m}_x{r}, k{m}_y{r}, k{m}_q{r} = e * cf - h{r} * sf, "
                f"e * sf + h{r} * cf, wF{r}",
            ]
            v, w = f"vF{r}", f"wF{r}"
    loop += [f"{a} = {a} + sixth * (k1_{a} + 2.0 * (k2_{a} + k3_{a}) + k4_{a})"
             for a in state]
    head = [
        "def run(params, rho, dt, n_steps, prof_v, prof_w, noise_step, y, ys, us, hs):",
        "cos, sin, pi, half, sixth = math.cos, math.sin, math.pi, 0.5 * dt, dt / 6.0",
        "".join(f"(k11_{r}, k22_{r}, k23_{r}, V_{r}, Om_{r}, o1_{r}, o2_{r}, "
                f"o3_{r}), " for r in links) + "= params",
        *(f"nV_{r}, nOm_{r} = -V_{r}, -Om_{r}" for r in links),
        f"{', '.join(state)}, = y",
        f"{noise}, = (0.0,) * {n + 1}",
        f"{', '.join(f'n{r}' for r in links)}, = (0,) * {n}",
        "for i in range(n_steps + 1):",
        *("    " + line for line in loop),
        f"return ({', '.join(f'n{r}' for r in links)},)",
    ]
    return "\n    ".join(head) + "\n"


_RK4: dict = {}  # link count -> its compiled run()


def _integrate(links: Sequence, lead_limits: tuple, profile: LeaderProfile,
               s0: Sequence, poses: Sequence, T: float, dt: float,
               metas: Sequence, rho: float = 0.0,
               noise_step: Optional[Callable[[int], tuple]] = None,
               ) -> list[SimTrace]:
    """Run robots 0..n-1, robot k+1 pursuing robot k, and record each link.

    ``links[k]`` is ``(gain, (V, Omega), (o1, o2, o3))``: link k's gain, its
    follower's input bounds and its window center in raw relative
    coordinates.  ``lead_limits`` bounds the profile of robot 0, ``s0``
    holds the window-centered link states and ``poses`` the n world poses.
    ``rho`` is added back to every turn rate (orbit runs), and
    ``noise_step(i)`` gives the lateral noise of each robot, held across the
    stages of step i.
    """
    params = [(*gain, V, Om, *offset) for gain, (V, Om), offset in links]
    prof_v = _checked(profile.v, lead_limits[0], "v")
    prof_w = _checked(profile.omega, lead_limits[1], "omega")
    n_steps = _steps(T, dt)
    if len(links) not in _RK4:
        scope = {"math": math}
        exec(_rk4_source(len(links)), scope)
        _RK4[len(links)] = scope["run"]
    y = [*poses[0], *(x for s, pose in zip(s0, poses[1:]) for x in (*s, *pose))]
    ys, us, hs = array("d"), array("d"), array("d")
    clamps = _RK4[len(links)](params, rho, dt, n_steps, prof_v, prof_w,
                              noise_step, y, ys, us, hs)

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
                   T: float, dt: float, kind: str, offset: tuple,
                   rho: float = 0.0, noise_step=None) -> SimTrace:
    """A pair is a one-link run: the follower starts at the origin pose and
    the leader is placed from the state."""
    s = _check_s0(s0, (sc.a, sc.a, sc.b))
    gain = [float(K.k11), float(K.k22), float(K.k23)]
    leader = tuple(x + o for x, o in zip(s, offset))
    meta = {"kind": kind, "dt": dt, "T": T, "integrator": "rk4", "gain": gain}
    return _integrate(
        [(gain, (sc.V_F, sc.Omega_F), offset)], (sc.V_L, sc.Omega_L),
        profile, [s], [leader, (0.0, 0.0, 0.0)], T, dt, [meta], rho,
        noise_step,
    )[0]


def simulate_basic(sc: BasicScenario, K: GainMatrix, profile: LeaderProfile,
                   s0: Sequence, T: float, dt: float = 1e-3) -> SimTrace:
    """Closed-loop run of the straight-pursuit model."""
    return _simulate_pair(sc, K, profile, s0, T, dt, "basic", (sc.d, 0.0, 0.0))


def uniform_noise(amp_f: float, amp_l: float, seed: int = 0) -> Callable[[int], tuple]:
    """Per-step uniform lateral noise, held constant across RK4 stages."""
    rng = random.Random(seed)
    return lambda i: (rng.uniform(-amp_f, amp_f), rng.uniform(-amp_l, amp_l))


def constant_noise(h_f: float, h_l: float) -> Callable[[int], tuple]:
    return lambda i: (h_f, h_l)


def simulate_ubb(
    sc: UbbScenario,
    K: GainMatrix,
    profile: LeaderProfile,
    h_sampler: Optional[Callable[[int], tuple]] = None,
    s0: Sequence = (0.0, 0.0, 0.0),
    T: float = 60.0,
    dt: float = 1e-3,
    seed: int = 0,
) -> SimTrace:
    """Run with lateral disturbances resampled every integration step."""
    if h_sampler is None:
        h_sampler = uniform_noise(sc.H_F, sc.H_L, seed)

    def noise_step(i: int) -> tuple:
        hF, hL = h_sampler(i)
        if not (abs(hF) <= sc.H_F + BOUND_TOL and abs(hL) <= sc.H_L + BOUND_TOL):
            raise ValueError("noise sample exceeds its amplitude bound")
        return hL, hF  # robot order: leader, follower

    return _simulate_pair(sc, K, profile, s0, T, dt, "ubb", (sc.d, 0.0, 0.0),
                          noise_step=noise_step)


def simulate_circle(sc: CircleScenario, K: GainMatrix, profile: LeaderProfile,
                    s0: Sequence, T: float, dt: float = 1e-3) -> SimTrace:
    """Orbit-window run: feedback acts on the shifted state and the orbit
    rate is added back to both turn rates; `profile.omega` is the leader's
    shifted turn rate."""
    offset = (math.sin(sc.gamma) / sc.rho, (1 - math.cos(sc.gamma)) / sc.rho,
              sc.gamma)
    return _simulate_pair(sc, K, profile, s0, T, dt, "circle", offset,
                          rho=sc.rho)


def simulate_chain(
    spec: ChainSpec,
    gains: Sequence[GainMatrix],
    lead_profile: LeaderProfile,
    s0: Sequence[Sequence],
    T: float,
    dt: float = 1e-3,
) -> list[SimTrace]:
    """Simultaneous integration of all links.

    Link k+1's leader inputs are link k's realized (clamped) feedback, so
    each robot reacts only to the vehicle directly ahead.
    """
    n = spec.n
    if len(gains) != n - 1 or len(s0) != n - 1:
        raise ValueError("need one gain and one initial state per link")
    s = [_check_s0(x, (g.a, g.a, g.b), what=f"s0[{k}]")
         for k, (x, g) in enumerate(zip(s0, spec.links))]
    # poses chained back from robot 1 at the origin
    poses = [(0.0, 0.0, 0.0)]
    for (s1, s2, s3), g in zip(s, spec.links):
        p1, p2 = s1 + g.d, s2
        x_prev, y_prev, th_prev = poses[-1]
        th = th_prev - s3
        c, s_ = math.cos(th), math.sin(th)
        poses.append((x_prev - (c * p1 - s_ * p2), y_prev - (s_ * p1 + c * p2), th))
    links = [((float(K.k11), float(K.k22), float(K.k23)), spec.robots[k],
              (g.d, 0.0, 0.0))
             for k, (K, g) in enumerate(zip(gains, spec.links), start=1)]
    metas = [{"kind": "chain", "link": k, "dt": dt, "T": T, "integrator": "rk4",
              "gain": list(gain)}
             for k, (gain, _, _) in enumerate(links, start=1)]
    return _integrate(links, spec.robots[0], lead_profile, s, poses, T, dt,
                      metas)
