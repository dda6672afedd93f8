"""Fixed-step simulation of the nonlinear relative dynamics.

The certificates in :mod:`viskeep.systems` address a linear family that
absorbs the true vehicle kinematics; this module closes the loop on the
original trigonometric model.  Classical RK4 with a fixed step integrates
the relative state together with both world poses, the feedback is
evaluated at every integration stage (continuous feedback, so step-halving
convergence is clean), inputs are clamped to their boxes with an event
counter, and a monitor checks every sample against the state and input
boxes.

Angles are never wrapped: on certified runs the heading difference stays
well inside (-pi/2, pi/2), and a wrap guard aborts if it ever passes pi,
instead of silently hiding an excursion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .boxes import Box
from .systems import GainMatrix

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

    The value of hold interval i depends only on (seed, i), so evaluation
    order cannot change a trajectory.
    """
    if dt_hold <= 0:
        raise ValueError("dt_hold must be positive")

    def f(t: float) -> float:
        i = int(t / dt_hold)
        return random.Random(f"{seed}:{i}").uniform(-amplitude, amplitude)

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
    def build(spec) -> Callable[[float], float]:
        if not isinstance(spec, dict):
            raise ValueError(f"profile signal must be a JSON object, not {spec!r}")
        kind = spec["type"]
        if kind == "constant":
            return constant(spec["value"])
        if kind in ("sin", "cos"):
            return sinusoid(spec["amplitude"], spec["omega"],
                            spec.get("phase", 0.0), kind)
        if kind == "random":
            return random_hold(spec["amplitude"], spec["hold"], spec.get("seed", 0))
        if kind == "sum":
            terms = spec["terms"]
            if len(terms) != 2:
                raise ValueError("sum profile takes exactly two terms")
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
# Integration cores
# ----------------------------------------------------------------------


def _steps(T: float, dt: float) -> int:
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9:
        raise ValueError("T must be an integer multiple of dt")
    return n


def _rk4(f, t: float, y: tuple, dt: float) -> tuple:
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, tuple(a + half * b for a, b in zip(y, k1)))
    k3 = f(t + half, tuple(a + half * b for a, b in zip(y, k2)))
    k4 = f(t + dt, tuple(a + dt * b for a, b in zip(y, k3)))
    sixth = dt / 6.0
    return tuple(
        a + sixth * (b + 2.0 * (c + d) + e)
        for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )


def _clamp(val: float, bound: float) -> float:
    if val > bound:
        return bound
    if val < -bound:
        return -bound
    return val


def reconstruct_relative(pose_f: Sequence, pose_l: Sequence) -> tuple:
    """Relative coordinates (p1, p2, beta) of the leader seen from the
    follower, recomputed from two world poses."""
    xf, yf, tf = pose_f
    xl, yl, tl = pose_l
    dx, dy = xl - xf, yl - yf
    c, s = math.cos(tf), math.sin(tf)
    return (c * dx + s * dy, -s * dx + c * dy, tl - tf)


def _pair_loop(
    *,
    K: GainMatrix,
    bounds: tuple,  # (V_F, Omega_F, V_L, Omega_L)
    prof: LeaderProfile,
    s0: Sequence,
    T: float,
    dt: float,
    d_offset: tuple,  # window center in raw relative coordinates
    omega_shift: float,  # added back to both turn rates (orbit runs)
    noise_step: Optional[Callable[[int], tuple]],
    meta: dict,
) -> SimTrace:
    """Shared integrator for the pair scenarios.

    State vector: (dp1, dp2, dbeta, xF, yF, thF, xL, yL, thL) where the
    first three are window-centered; the raw relative coordinates are the
    centered ones plus `d_offset`.
    """
    V_F, Om_F, V_L, Om_L = bounds
    k11, k22, k23 = (float(K.k11), float(K.k22), float(K.k23))
    o1, o2, o3 = d_offset
    rho = omega_shift
    prof_v = _checked(prof.v, V_L, "v")
    prof_w = _checked(prof.omega, Om_L, "omega")
    n_steps = _steps(T, dt)

    h_cell = [0.0, 0.0]

    def deriv(t, y):
        s1, s2, s3, xf, yf, tf, xl, yl, tl = y
        vF = _clamp(k11 * s1, V_F)
        wF = _clamp(k22 * s2 + k23 * s3, Om_F) + rho
        vL = prof_v(t)
        wL = prof_w(t) + rho
        hF, hL = h_cell
        p1 = s1 + o1
        p2 = s2 + o2
        beta = s3 + o3
        cb, sb = math.cos(beta), math.sin(beta)
        ds1 = (cb - 1.0) - vF + p2 * wF + vL * cb - hL * sb
        ds2 = sb - hF - p1 * wF + vL * sb + hL * cb
        ds3 = wL - wF
        sf, cf = math.sin(tf), math.cos(tf)
        sl, cl = math.sin(tl), math.cos(tl)
        return (
            ds1, ds2, ds3,
            (1.0 + vF) * cf - hF * sf, (1.0 + vF) * sf + hF * cf, wF,
            (1.0 + vL) * cl - hL * sl, (1.0 + vL) * sl + hL * cl, wL,
        )

    # follower starts at the origin pose; leader placed from the state
    s = tuple(float(x) for x in s0)
    p1_0, p2_0, beta_0 = s[0] + o1, s[1] + o2, s[2] + o3
    y = (s[0], s[1], s[2], 0.0, 0.0, 0.0, p1_0, p2_0, beta_0)

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, 3))
    inputs = np.empty((n_steps + 1, 2))
    leader = np.empty((n_steps + 1, 2))
    noise = np.empty((n_steps + 1, 2)) if noise_step else None
    pose_f = np.empty((n_steps + 1, 3))
    pose_l = np.empty((n_steps + 1, 3))
    clamps = 0

    for i in range(n_steps + 1):
        t = i * dt
        if noise_step:
            h_cell[0], h_cell[1] = noise_step(i)
            noise[i] = h_cell
        s1, s2, s3 = y[0], y[1], y[2]
        if abs(s3 + o3) > math.pi:
            raise ValueError(
                f"heading difference left (-pi, pi) at t={t:.6g}; "
                "invariance lost"
            )
        u1_raw = k11 * s1
        u2_raw = k22 * s2 + k23 * s3
        if abs(u1_raw) > V_F or abs(u2_raw) > Om_F:
            clamps += 1
        times[i] = t
        states[i] = (s1, s2, s3)
        inputs[i] = (_clamp(u1_raw, V_F), _clamp(u2_raw, Om_F))
        leader[i] = (prof_v(t), prof_w(t))
        pose_f[i] = y[3:6]
        pose_l[i] = y[6:9]
        if i < n_steps:
            y = _rk4(deriv, t, y, dt)

    return SimTrace(
        times=times, states=states, inputs=inputs, leader=leader,
        noise=noise, pose_f=pose_f, pose_l=pose_l, clamp_events=clamps,
        meta=meta,
    )


# ----------------------------------------------------------------------
# Scenario simulators
# ----------------------------------------------------------------------


def _check_s0(s0: Sequence, half_widths: Sequence, what: str = "s0"):
    if len(s0) != 3:
        raise ValueError(f"{what} must have three components")
    for x, h in zip(s0, half_widths):
        if abs(float(x)) > float(h) + 1e-12:
            raise ValueError(f"{what} lies outside the visibility window")


def simulate_basic(
    sc: BasicScenario,
    K: GainMatrix,
    profile: LeaderProfile,
    s0: Sequence,
    T: float,
    dt: float = 1e-3,
) -> SimTrace:
    """Closed-loop run of the straight-pursuit model."""
    _check_s0(s0, (sc.a, sc.a, sc.b))
    return _pair_loop(
        K=K,
        bounds=(sc.V_F, sc.Omega_F, sc.V_L, sc.Omega_L),
        prof=profile,
        s0=s0, T=T, dt=dt,
        d_offset=(sc.d, 0.0, 0.0),
        omega_shift=0.0,
        noise_step=None,
        meta={"kind": "basic", "dt": dt, "T": T, "integrator": "rk4",
              "gain": [float(K.k11), float(K.k22), float(K.k23)]},
    )


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
    _check_s0(s0, (sc.a, sc.a, sc.b))
    if h_sampler is None:
        h_sampler = uniform_noise(sc.H_F, sc.H_L, seed)

    def checked_sampler(i: int) -> tuple:
        hF, hL = h_sampler(i)
        if not (abs(hF) <= sc.H_F + BOUND_TOL and abs(hL) <= sc.H_L + BOUND_TOL):
            raise ValueError("noise sample exceeds its amplitude bound")
        return hF, hL

    return _pair_loop(
        K=K,
        bounds=(sc.V_F, sc.Omega_F, sc.V_L, sc.Omega_L),
        prof=profile,
        s0=s0, T=T, dt=dt,
        d_offset=(sc.d, 0.0, 0.0),
        omega_shift=0.0,
        noise_step=checked_sampler,
        meta={"kind": "ubb", "dt": dt, "T": T, "integrator": "rk4",
              "gain": [float(K.k11), float(K.k22), float(K.k23)]},
    )


def simulate_circle(
    sc: CircleScenario,
    K: GainMatrix,
    profile: LeaderProfile,
    s0: Sequence,
    T: float,
    dt: float = 1e-3,
) -> SimTrace:
    """Orbit-window run: feedback acts on the shifted state and the orbit
    rate is added back to both turn rates; `profile.omega` is the leader's
    shifted turn rate."""
    _check_s0(s0, (sc.a, sc.a, sc.b))
    off1 = math.sin(sc.gamma) / sc.rho
    off2 = (1 - math.cos(sc.gamma)) / sc.rho
    return _pair_loop(
        K=K,
        bounds=(sc.V_F, sc.Omega_F, sc.V_L, sc.Omega_L),
        prof=profile,
        s0=s0, T=T, dt=dt,
        d_offset=(off1, off2, sc.gamma),
        omega_shift=sc.rho,
        noise_step=None,
        meta={"kind": "circle", "dt": dt, "T": T, "integrator": "rk4",
              "gain": [float(K.k11), float(K.k22), float(K.k23)]},
    )


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
    for k in range(1, n):
        g = spec.links[k - 1]
        _check_s0(s0[k - 1], (g.a, g.a, g.b), what=f"s0[{k - 1}]")
    Ks = [(float(K.k11), float(K.k22), float(K.k23)) for K in gains]
    ds = [g.d for g in spec.links]
    VF = [r.V for r in spec.robots]
    OmF = [r.Omega for r in spec.robots]
    prof_v = _checked(lead_profile.v, VF[0], "v")
    prof_w = _checked(lead_profile.omega, OmF[0], "omega")
    n_steps = _steps(T, dt)
    n_states = 3 * (n - 1)

    def inputs_of(y):
        """Realized inputs of robots 2..n given all link states."""
        out = []
        for k in range(n - 1):
            k11, k22, k23 = Ks[k]
            s1, s2, s3 = y[3 * k], y[3 * k + 1], y[3 * k + 2]
            out.append((
                _clamp(k11 * s1, VF[k + 1]),
                _clamp(k22 * s2 + k23 * s3, OmF[k + 1]),
            ))
        return out

    def deriv(t, y):
        us = inputs_of(y)
        v_prev, w_prev = prof_v(t), prof_w(t)
        dy = []
        for k in range(n - 1):
            vF, wF = us[k]
            s1, s2, s3 = y[3 * k], y[3 * k + 1], y[3 * k + 2]
            cb, sb = math.cos(s3), math.sin(s3)
            dy.append((cb - 1.0) - vF + s2 * wF + v_prev * cb)
            dy.append(sb - (s1 + ds[k]) * wF + v_prev * sb)
            dy.append(w_prev - wF)
            v_prev, w_prev = vF, wF
        # poses: robot 1 first, then followers
        v_prev, w_prev = prof_v(t), prof_w(t)
        base = n_states
        for k in range(n):
            th = y[base + 3 * k + 2]
            if k > 0:
                v_prev, w_prev = us[k - 1]
            dy.append((1.0 + v_prev) * math.cos(th))
            dy.append((1.0 + v_prev) * math.sin(th))
            dy.append(w_prev)
        return tuple(dy)

    # poses chained back from robot 1 at the origin
    poses = [(0.0, 0.0, 0.0)]
    for k in range(1, n):
        s1, s2, s3 = (float(x) for x in s0[k - 1])
        p1, p2 = s1 + ds[k - 1], s2
        x_prev, y_prev, th_prev = poses[-1]
        th = th_prev - s3
        c, s_ = math.cos(th), math.sin(th)
        poses.append((x_prev - (c * p1 - s_ * p2), y_prev - (s_ * p1 + c * p2), th))

    y = tuple(float(x) for link in s0 for x in link) + tuple(
        x for pose in poses for x in pose
    )

    times = np.empty(n_steps + 1)
    states = [np.empty((n_steps + 1, 3)) for _ in range(n - 1)]
    inputs = [np.empty((n_steps + 1, 2)) for _ in range(n - 1)]
    leaders = [np.empty((n_steps + 1, 2)) for _ in range(n - 1)]
    pose_arr = [np.empty((n_steps + 1, 3)) for _ in range(n)]
    clamps = [0] * (n - 1)

    for i in range(n_steps + 1):
        t = i * dt
        times[i] = t
        us = inputs_of(y)
        lead = (prof_v(t), prof_w(t))
        for k in range(n - 1):
            s1, s2, s3 = y[3 * k], y[3 * k + 1], y[3 * k + 2]
            if abs(s3) > math.pi:
                raise ValueError(
                    f"heading difference left (-pi, pi) on link {k + 1} "
                    f"at t={t:.6g}"
                )
            k11, k22, k23 = Ks[k]
            if (abs(k11 * s1) > VF[k + 1]
                    or abs(k22 * s2 + k23 * s3) > OmF[k + 1]):
                clamps[k] += 1
            states[k][i] = (s1, s2, s3)
            inputs[k][i] = us[k]
            leaders[k][i] = lead if k == 0 else us[k - 1]
        for k in range(n):
            pose_arr[k][i] = y[n_states + 3 * k: n_states + 3 * k + 3]
        if i < n_steps:
            y = _rk4(deriv, t, y, dt)

    traces = []
    for k in range(n - 1):
        traces.append(SimTrace(
            times=times.copy(), states=states[k], inputs=inputs[k],
            leader=leaders[k], pose_f=pose_arr[k + 1], pose_l=pose_arr[k],
            clamp_events=clamps[k],
            meta={"kind": "chain", "link": k + 1, "dt": dt, "T": T,
                  "integrator": "rk4", "gain": list(Ks[k])},
        ))
    return traces
