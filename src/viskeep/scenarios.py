"""Visibility-pursuit scenario definitions and feasible-gain polytopes.

Three scenario families are supported:

* **basic** -- follower keeps a leader travelling near-straight inside a box
  visibility window displaced a standoff ``d`` ahead;
* **ubb** -- same, with unknown-but-bounded lateral disturbances on both
  vehicles;
* **circle** -- leader orbits a fixed target; the window is parameterized by
  a bearing angle ``gamma`` and orbit rate ``rho`` instead of ``d``.

Each scenario owns (i) an exact uncertain-system transcription of the
relative dynamics, (ii) closed-form solvability conditions, and (iii) the
polytope of feasible sparse gains ``(k11, k22, k23)``, built for every family
by one route: the shifted-cone certificate of its uncertain system.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .boxes import Box
from .inequalities import (
    DEFAULT_MAX_DENOMINATOR,
    LinearInequalitySystem,
    Row,
    _dedup,
    rationalize,
)
from .simulate import simulate_basic, simulate_circle, simulate_ubb, uniform_noise
from .systems import (
    UncertainLinearSystem,
    _mat,
    _relevant_params,
    _shifted_vertex_cones,
    _sub_vertices,
    _zeros,
)

HALF_PI = math.pi / 2


# ----------------------------------------------------------------------
# Scenario parameter records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BasicScenario:
    """Box window (half-widths a, a, b), standoff d, speed and turn bounds.

    Each scenario class carries its family's JSON kind, conditions, gain
    polytope, uncertain system, exact constants and simulator."""

    kind = "basic"

    a: float
    b: float
    d: float
    V_F: float
    V_L: float
    Omega_F: float
    Omega_L: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be positive")
        if not self.d > self.a:
            raise ValueError("d must exceed a")
        if not 0 < self.b <= HALF_PI + 1e-12:
            raise ValueError("b must lie in (0, pi/2]")
        for name in ("V_F", "V_L"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        for name in ("Omega_F", "Omega_L"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def conditions(self) -> FeasibilityReport:
        return feasible_basic(self)

    def polytope(self) -> LinearInequalitySystem:
        return gain_polytope(self)

    def system(self) -> UncertainLinearSystem:
        return build_basic_system(self)

    def constants(self) -> ExactBasic:
        return exact_basic(self)

    def check_extras(self, report: FeasibilityReport) -> dict:
        """Keys `viskeep check` adds: the exact FME projection's verdict
        against the closed form."""
        return {"projection_agrees": derive_conditions_fme(self) == report.feasible}

    def simulate(self, K, profile, s0, T, dt, noise_amplitude=None, seed=0):
        return simulate_basic(self, K, profile, s0, T, dt)


@dataclass(frozen=True)
class UbbScenario(BasicScenario):
    """Basic scenario plus lateral disturbance amplitudes."""

    kind = "ubb"

    H_F: float = 0.0
    H_L: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        # zero amplitudes degrade gracefully to the undisturbed scenario
        if self.H_F < 0 or self.H_L < 0:
            raise ValueError("H_F and H_L must be nonnegative")

    def conditions(self) -> FeasibilityReport:
        return feasible_ubb(self)

    def polytope(self) -> LinearInequalitySystem:
        return gain_polytope_ubb(self)

    def system(self) -> UncertainLinearSystem:
        return build_ubb_system(self)

    def check_extras(self, report: FeasibilityReport) -> dict:
        return {}

    def simulate(self, K, profile, s0, T, dt, noise_amplitude=None, seed=0):
        """Uniform lateral noise of the given amplitude, or (H_F, H_L)."""
        amp = noise_amplitude
        noise = None if amp is None else uniform_noise(amp, amp, seed)
        return simulate_ubb(self, K, profile, noise, s0, T, dt, seed=seed)


@dataclass(frozen=True)
class CircleScenario:
    """Orbit scenario: bearing gamma and orbit rate rho replace d."""

    kind = "circle"

    a: float
    b: float
    gamma: float
    rho: float
    V_F: float
    V_L: float
    Omega_F: float
    Omega_L: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be positive")
        if not 0 < self.gamma < HALF_PI:
            raise ValueError("gamma must lie in (0, pi/2)")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not 1 - math.cos(self.gamma) > self.rho * self.a:
            raise ValueError("hypothesis 1 - cos(gamma) > rho * a violated")
        if not self.b >= self.gamma:
            raise ValueError("b must be at least gamma")
        if not self.b + self.gamma <= HALF_PI + 1e-12:
            raise ValueError("b + gamma must not exceed pi/2")
        for name in ("V_F", "V_L"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not self.Omega_F > 0:
            raise ValueError("Omega_F must be positive")
        if not 0 < self.Omega_L < self.rho:
            raise ValueError("Omega_L must lie in (0, rho)")

    def conditions(self) -> FeasibilityReport:
        return feasible_circle(self)

    def polytope(self) -> LinearInequalitySystem:
        return gain_polytope_circle(self)

    def system(self) -> UncertainLinearSystem:
        return build_circle_system(self)

    def constants(self) -> ExactCircle:
        return exact_circle(self)

    def check_extras(self, report: FeasibilityReport) -> dict:
        return {}

    def simulate(self, K, profile, s0, T, dt, noise_amplitude=None, seed=0):
        return simulate_circle(self, K, profile, s0, T, dt)


# ----------------------------------------------------------------------
# Exact constants (the single float -> rational approximation point)
# ----------------------------------------------------------------------


class ExactBasic(NamedTuple):
    a: Fraction
    b: Fraction
    d: Fraction
    V_F: Fraction
    V_L: Fraction
    Omega_F: Fraction
    Omega_L: Fraction
    sin_b: Fraction
    cos_b: Fraction
    H_F: Fraction = Fraction(0)
    H_L: Fraction = Fraction(0)


class ExactCircle(NamedTuple):
    a: Fraction
    b: Fraction
    gamma: Fraction
    rho: Fraction
    V_F: Fraction
    V_L: Fraction
    Omega_F: Fraction
    Omega_L: Fraction
    sin_g: Fraction
    cos_g: Fraction
    sin_bpg: Fraction
    cos_bpg: Fraction
    sin_bmg: Fraction
    cos_bmg: Fraction


def exact_basic(sc: BasicScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> ExactBasic:
    rat = lambda x: rationalize(x, max_denominator)
    return ExactBasic(
        a=rat(sc.a), b=rat(sc.b), d=rat(sc.d),
        V_F=rat(sc.V_F), V_L=rat(sc.V_L),
        Omega_F=rat(sc.Omega_F), Omega_L=rat(sc.Omega_L),
        sin_b=rat(math.sin(sc.b)), cos_b=rat(math.cos(sc.b)),
        H_F=rat(getattr(sc, "H_F", 0.0)), H_L=rat(getattr(sc, "H_L", 0.0)),
    )


def exact_circle(sc: CircleScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> ExactCircle:
    rat = lambda x: rationalize(x, max_denominator)
    return ExactCircle(
        a=rat(sc.a), b=rat(sc.b), gamma=rat(sc.gamma), rho=rat(sc.rho),
        V_F=rat(sc.V_F), V_L=rat(sc.V_L),
        Omega_F=rat(sc.Omega_F), Omega_L=rat(sc.Omega_L),
        sin_g=rat(math.sin(sc.gamma)), cos_g=rat(math.cos(sc.gamma)),
        sin_bpg=rat(math.sin(sc.b + sc.gamma)),
        cos_bpg=rat(math.cos(sc.b + sc.gamma)),
        sin_bmg=rat(math.sin(sc.b - sc.gamma)),
        cos_bmg=rat(math.cos(sc.b - sc.gamma)),
    )


def rationalization_record(constants) -> dict:
    """Exact values chosen for the scenario constants, as 'p/q' strings."""
    return {name: str(val) for name, val in constants._asdict().items()}


# ----------------------------------------------------------------------
# Uncertain-system builders
# ----------------------------------------------------------------------


def _basic_Q(c: ExactBasic) -> Box:
    one = Fraction(1)
    return Box.from_bounds([
        (c.sin_b / c.b - one, 0),
        (-(one - c.cos_b) / c.b, (one - c.cos_b) / c.b),
        (-c.a, c.a),
        (-c.a, c.a),
        (c.cos_b - one, 0),
        (-c.sin_b, c.sin_b),
    ])


def build_basic_system(
    sc: BasicScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> UncertainLinearSystem:
    """Three-state, two-input, two-disturbance family for the basic window.

    State (dp1, p2, beta), input (v_F, w_F), disturbance (v_L, w_L);
    parameters q1..q6 absorb the trigonometric nonlinearities, each ranging
    over the interval it realizes on the window.
    """
    c = exact_basic(sc, max_denominator)
    z = _zeros(3, 3)
    A0 = _mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    A1 = _mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    A2 = _mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    B0 = _mat([[-1, 0], [0, -c.d], [0, -1]])
    B3 = _mat([[0, 0], [0, -1], [0, 0]])
    B4 = _mat([[0, 1], [0, 0], [0, 0]])
    E0 = _mat([[1, 0], [0, 0], [0, 1]])
    E5 = _mat([[1, 0], [0, 0], [0, 0]])
    E6 = _mat([[0, 0], [1, 0], [0, 0]])
    zb = _zeros(3, 2)
    return UncertainLinearSystem(
        n=3, m=2, l=2, p=6,
        A=(A0, A1, A2, z, z, z, z),
        B=(B0, zb, zb, B3, B4, zb, zb),
        E=(E0, zb, zb, zb, zb, E5, E6),
        S=Box.symmetric((c.a, c.a, c.b)),
        U=Box.symmetric((c.V_F, c.Omega_F)),
        D=Box.symmetric((c.V_L, c.Omega_L)),
        Q=_basic_Q(c),
    )


def build_ubb_system(
    sc: UbbScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> UncertainLinearSystem:
    """Basic family with the disturbance vector enlarged to
    (v_L, w_L, h_F, h_L): the lateral perturbations enter through E(q)."""
    base = build_basic_system(sc, max_denominator)
    c = exact_basic(sc, max_denominator)
    E0 = _mat([[1, 0, 0, 0], [0, 0, -1, 1], [0, 1, 0, 0]])
    E5 = _mat([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    E6 = _mat([[0, 0, 0, -1], [1, 0, 0, 0], [0, 0, 0, 0]])
    zb = _zeros(3, 4)
    return UncertainLinearSystem(
        n=3, m=2, l=4, p=6,
        A=base.A, B=base.B,
        E=(E0, zb, zb, zb, zb, E5, E6),
        S=base.S, U=base.U,
        D=Box.symmetric((c.V_L, c.Omega_L, c.H_F, c.H_L)),
        Q=base.Q,
    )


def build_circle_system(
    sc: CircleScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> UncertainLinearSystem:
    """Orbit-window family in the shifted coordinates
    (dp1, dp2, dbeta) with input (v_F, dw_F) and disturbance (v_L, dw_L)."""
    c = exact_circle(sc, max_denominator)
    one = Fraction(1)
    z = _zeros(3, 3)
    zb = _zeros(3, 2)
    A0 = _mat([[0, c.rho, -c.sin_g], [-c.rho, 0, c.cos_g], [0, 0, 0]])
    A1 = _mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    A2 = _mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    B0 = _mat([
        [-1, (one - c.cos_g) / c.rho],
        [0, -c.sin_g / c.rho],
        [0, -1],
    ])
    B3 = _mat([[0, 0], [0, -1], [0, 0]])
    B4 = _mat([[0, 1], [0, 0], [0, 0]])
    E0 = _mat([[c.cos_g, 0], [c.sin_g, 0], [0, 1]])
    E5 = _mat([[1, 0], [0, 0], [0, 0]])
    E6 = _mat([[0, 0], [1, 0], [0, 0]])
    Q = Box.from_bounds([
        ((c.sin_bpg - c.sin_g) / c.b - c.cos_g,
         (c.sin_bmg + c.sin_g) / c.b - c.cos_g),
        ((c.cos_bpg - c.cos_g) / c.b + c.sin_g,
         (-c.cos_bmg + c.cos_g) / c.b + c.sin_g),
        (-c.a, c.a),
        (-c.a, c.a),
        (c.cos_bpg - c.cos_g, c.cos_bmg - c.cos_g),
        (-c.sin_bmg - c.sin_g, c.sin_bpg - c.sin_g),
    ])
    if not Q.contains_origin():
        warnings.warn(
            "parameter box does not contain the origin (window wider than "
            "twice the bearing angle)", stacklevel=2,
        )
    return UncertainLinearSystem(
        n=3, m=2, l=2, p=6,
        A=(A0, A1, A2, z, z, z, z),
        B=(B0, zb, zb, B3, B4, zb, zb),
        E=(E0, zb, zb, zb, zb, E5, E6),
        S=Box.symmetric((c.a, c.a, c.b)),
        U=Box.symmetric((c.V_F, c.Omega_F)),
        D=Box.symmetric((c.V_L, c.Omega_L)),
        Q=Q,
    )


# ----------------------------------------------------------------------
# Closed-form solvability conditions
# ----------------------------------------------------------------------


class ConditionMargin(NamedTuple):
    condition: str
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    conditions: tuple[ConditionMargin, ...]

    def __post_init__(self):
        ok = all(c.slack >= 0 for c in self.conditions)
        if self.feasible != ok:
            raise ValueError("feasible flag must mirror condition slacks")

    def margin(self, condition: str) -> float:
        for c in self.conditions:
            if c.condition == condition:
                return c.slack
        raise KeyError(condition)

    def worst(self) -> ConditionMargin:
        return min(self.conditions, key=lambda c: c.slack)

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "conditions": [c._asdict() for c in self.conditions],
        }

    def to_text(self) -> str:
        lines = [f"feasible: {self.feasible}"]
        for c in self.conditions:
            lines.append(
                f"  {c.condition}: lhs={c.lhs:.6g} rhs={c.rhs:.6g} "
                f"slack={c.slack:+.6g}"
            )
        return "\n".join(lines) + "\n"


def _report(conds: list[ConditionMargin]) -> FeasibilityReport:
    return FeasibilityReport(all(c.slack >= 0 for c in conds), tuple(conds))


def feasible_basic(sc: BasicScenario) -> FeasibilityReport:
    """Closed-form solvability test for the basic window."""
    sb, cb = math.sin(sc.b), math.cos(sc.b)
    vf_bound = sc.V_L * (1 + sc.a * sb / (sc.d - sc.a)) + 1 - cb \
        + sc.a * sc.b / (sc.d - sc.a)
    ol_bound = (1 - sc.V_L) * sb / (sc.d + sc.a)
    of_bound = (sc.V_L * sb + sc.b) / (sc.d - sc.a)
    return _report([
        ConditionMargin("follower_speed", sc.V_F, vf_bound, sc.V_F - vf_bound),
        ConditionMargin("leader_turn_rate", sc.Omega_L, ol_bound, ol_bound - sc.Omega_L),
        ConditionMargin("follower_turn_rate", sc.Omega_F, of_bound, sc.Omega_F - of_bound),
    ])


def feasible_ubb(sc: UbbScenario) -> FeasibilityReport:
    """Solvability test with lateral disturbance amplitudes H_F, H_L."""
    sb, cb = math.sin(sc.b), math.cos(sc.b)
    H = sc.H_F + sc.H_L
    vf_bound = sc.V_L * (1 + sc.a * sb / (sc.d - sc.a)) + 1 - cb \
        + sc.a * (sc.H_F + sc.H_L + sc.b) / (sc.d - sc.a) + sc.H_L * sb
    ol_bound = ((1 - sc.V_L) * sb - H) / (sc.d + sc.a)
    of_bound = (sc.V_L * sb + sc.b + H) / (sc.d - sc.a)
    return _report([
        ConditionMargin("follower_speed", sc.V_F, vf_bound, sc.V_F - vf_bound),
        ConditionMargin("leader_turn_rate", sc.Omega_L, ol_bound, ol_bound - sc.Omega_L),
        ConditionMargin("follower_turn_rate", sc.Omega_F, of_bound, sc.Omega_F - of_bound),
    ])


def feasible_circle(sc: CircleScenario) -> FeasibilityReport:
    """Solvability test for the orbit window."""
    sg, cg = math.sin(sc.gamma), math.cos(sc.gamma)
    sbp = math.sin(sc.b + sc.gamma)
    sbm = math.sin(sc.b - sc.gamma)
    cbp = math.cos(sc.b + sc.gamma)
    cbm = math.cos(sc.b - sc.gamma)
    ra = sc.rho * sc.a
    k = (1 - cg - ra) / (sg + ra)
    vf_bound = sc.V_L * (cbm + sbp * k) + cg + ra - k * (sbp - sg + ra) - cbp
    ol_bound = sc.rho * ((1 - sc.V_L) * sbp / (sg + ra) - 1)
    of_bound = sc.rho * (sc.V_L * sbp + sbm + sg + ra) / (sg - ra)
    return _report([
        ConditionMargin("follower_speed", sc.V_F, vf_bound, sc.V_F - vf_bound),
        ConditionMargin("leader_turn_rate", sc.Omega_L, ol_bound, ol_bound - sc.Omega_L),
        ConditionMargin("follower_turn_rate", sc.Omega_F, of_bound, sc.Omega_F - of_bound),
    ])


# ----------------------------------------------------------------------
# Gain polytopes
# ----------------------------------------------------------------------


def admissibility_rows(S: Box, U: Box) -> list[Row]:
    """Rows of ``K v in U`` over the window vertices, for the sparse gain.

    u1 = k11 * s1 and u2 = k22 * s2 + k23 * s3; each row is scaled so its
    leading coefficient has magnitude 1.
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


def invariance_rows(sys: UncertainLinearSystem, tau=1) -> list[Row]:
    """Shifted-cone certificate rows, rearranged as inequalities in
    ``(k11, k22, k23)``.

    For each window vertex ``v`` and each face ``g . s <= 1`` of its cone,
    ``g . (I + tau F(w)) v <= 1 - max tau g . E r`` is linear in the gain
    entries because ``F = A + B K``.  The face of state ``i`` reads row ``i``
    of A and B alone, so it is enumerated over the vertices of the
    parameters whose A or B slice has a nonzero row ``i``.  Rows come by
    window vertex, then face, then parameter vertex, and may repeat."""
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


def _pipeline_polytope(sys: UncertainLinearSystem, tau=1) -> LinearInequalitySystem:
    """Invariance then admissibility rows, exact duplicates dropped once."""
    rows = invariance_rows(sys, tau) + admissibility_rows(sys.S, sys.U)
    return LinearInequalitySystem(3, _dedup(rows))


def gain_polytope(
    sc: BasicScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> LinearInequalitySystem:
    """Feasible-gain polytope for the basic window, from the shifted-cone
    pipeline like the other families; warns when the closed-form
    solvability conditions fail."""
    if not feasible_basic(sc).feasible:
        warnings.warn("scenario fails the closed-form solvability conditions",
                      stacklevel=2)
    return _pipeline_polytope(build_basic_system(sc, max_denominator))


def gain_polytope_ubb(
    sc: UbbScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> LinearInequalitySystem:
    """Feasible-gain polytope under lateral disturbances, from the generic
    shifted-cone pipeline; membership is equivalent to passing both the
    admissibility and cone certificates of the ubb system."""
    return _pipeline_polytope(build_ubb_system(sc, max_denominator))


def gain_polytope_circle(
    sc: CircleScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> LinearInequalitySystem:
    """Feasible-gain polytope for the orbit window, same pipeline."""
    return _pipeline_polytope(build_circle_system(sc, max_denominator))


def derive_conditions_fme(
    sc: BasicScenario, max_denominator: int = DEFAULT_MAX_DENOMINATOR
) -> bool:
    """Decide the nonemptiness of the gain polytope exactly.

    :meth:`LinearInequalitySystem.is_feasible` checks a feasible point or a
    Farkas set that floats propose, and eliminates all three gain variables
    only when neither verifies.  Agrees with :func:`feasible_basic` away
    from the condition boundaries; the closed-form conditions are the
    worst-vertex selection of the family that elimination projects.
    """
    return gain_polytope(sc, max_denominator).is_feasible()


# ----------------------------------------------------------------------
# JSON scenario files
# ----------------------------------------------------------------------


SCENARIO_CLASSES = (BasicScenario, UbbScenario, CircleScenario)


def scenario_to_json_dict(sc) -> dict:
    out = {"type": sc.kind}
    for f in fields(sc):
        out[f.name] = getattr(sc, f.name)
    return out


def scenario_from_json_dict(data: dict):
    if not isinstance(data, dict):
        raise ValueError(f"scenario must be a JSON object, not {data!r}")
    kind = data.get("type")
    cls = next((c for c in SCENARIO_CLASSES if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown scenario type: {kind!r}")
    args = {k: v for k, v in data.items() if k != "type"}
    try:
        return cls(**args)
    except TypeError as exc:
        raise ValueError(f"bad scenario fields: {exc}") from exc


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_json_dict(json.load(fh))


def save_scenario(sc, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_json_dict(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")
