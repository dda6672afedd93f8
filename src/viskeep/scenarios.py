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
polytope of feasible sparse gains ``(k11, k22, k23)``: for every family the
rows of its uncertain system's two certificates, which
:func:`viskeep.systems._pipeline_polytope` builds.  This module transcribes
scenarios into systems and builds no row itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import NamedTuple

from .boxes import Box
from .inequalities import LinearInequalitySystem, rationalize
from .profiles import _number, _read_json, _shown, _write_json
from .systems import UncertainLinearSystem, _pipeline_polytope

HALF_PI = math.pi / 2


# ----------------------------------------------------------------------
# Scenario parameter records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BasicScenario:
    """Box window (half-widths a, a, b), standoff d, speed and turn bounds.

    Each scenario class carries its family's JSON kind, conditions, gain
    polytope, uncertain system and the floats its model reads besides the
    fields, which :func:`exact_constants` rationalizes; its simulator is
    :func:`viskeep.simulate.simulate_scenario`, keyed on the kind.  The
    polytope is built from `system` when one is passed: the scenario's
    uncertain system, already built by the caller."""

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

    def polytope(self, system=None) -> LinearInequalitySystem:
        return gain_polytope(self, system)

    def system(self, constants=None) -> UncertainLinearSystem:
        return build_basic_system(self, constants)

    def derived(self) -> dict:
        """The floats besides the fields that the model reads: the sine
        and cosine of b, and the lateral disturbance amplitudes, 0 for a
        basic scenario (a ubb one's fields override them)."""
        return {"sin_b": math.sin(self.b), "cos_b": math.cos(self.b),
                "H_F": 0.0, "H_L": 0.0}

    def check_extras(self, report: FeasibilityReport) -> dict:
        """Keys `viskeep check` adds: the exact FME projection's verdict
        against the closed form."""
        return {"projection_agrees": derive_conditions_fme(self) == report.feasible}


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

    def polytope(self, system=None) -> LinearInequalitySystem:
        return gain_polytope_ubb(self, system)

    def system(self, constants=None) -> UncertainLinearSystem:
        return build_ubb_system(self, constants)

    def check_extras(self, report: FeasibilityReport) -> dict:
        return {}


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
        _circle_q(SimpleNamespace(**self.derived(), a=self.a, b=self.b))

    def conditions(self) -> FeasibilityReport:
        return feasible_circle(self)

    def polytope(self, system=None) -> LinearInequalitySystem:
        return gain_polytope_circle(self, system)

    def system(self, constants=None) -> UncertainLinearSystem:
        return build_circle_system(self, constants)

    def derived(self) -> dict:
        """The floats besides the fields that the model reads: the sine
        and cosine of gamma, b + gamma and b - gamma."""
        g, b = self.gamma, self.b
        return {"sin_g": math.sin(g), "cos_g": math.cos(g),
                "sin_bpg": math.sin(b + g), "cos_bpg": math.cos(b + g),
                "sin_bmg": math.sin(b - g), "cos_bmg": math.cos(b - g)}

    def check_extras(self, report: FeasibilityReport) -> dict:
        return {}


# ----------------------------------------------------------------------
# Exact constants (the single float -> rational approximation point)
# ----------------------------------------------------------------------


#: The constants a scenario requires positive; H_F and H_L may be 0.
_POSITIVE = ("a", "b", "d", "gamma", "rho", "V_F", "V_L", "Omega_F", "Omega_L")


def exact_constants(sc) -> SimpleNamespace:
    """The scenario's constants rationalized, as attributes: every field,
    and the sines and cosines its family declares (:meth:`derived`).  A
    ValueError names the first constant the scenario requires positive that
    rationalizes to 0: a value below ``1 / (2 * 10**12)``, half the least
    positive rational :func:`rationalize` can give."""
    values = {**sc.derived(), **{f.name: getattr(sc, f.name) for f in fields(sc)}}
    c = {name: rationalize(x) for name, x in values.items()}
    for name in _POSITIVE:
        if c.get(name) == 0:
            raise ValueError(f"{name} = {values[name]!r} rationalizes "
                             f"to 0, but {name} must be positive")
    return SimpleNamespace(**c)


def rationalization_record(constants) -> dict:
    """Exact values chosen for the scenario constants, as 'p/q' strings."""
    return {name: str(val) for name, val in vars(constants).items()}


# ----------------------------------------------------------------------
# Uncertain-system builders
# ----------------------------------------------------------------------


_Z3 = ((0, 0, 0),) * 3
_Z2 = ((0, 0),) * 3


def _pursuit_system(c, A0, B0, E0, Q: Box) -> UncertainLinearSystem:
    """The pursuit family every scenario shares, given what its window
    changes: the constant parts `A0`, `B0`, `E0` and the parameter box `Q`.

    Three states, input (v_F, w_F) and disturbance (v_L, w_L); the
    parameters q1..q6 absorb the trigonometric nonlinearities, each ranging
    over the interval it realizes on the window, and enter A, B and E the
    same way in every family.  S, U and D are the boxes of the constants
    `c`.  Matrix entries are plain ints and Fractions."""
    return UncertainLinearSystem(
        A=(A0, ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
           ((0, 0, 1), (0, 0, 0), (0, 0, 0)), _Z3, _Z3, _Z3, _Z3),
        B=(B0, _Z2, _Z2, ((0, 0), (0, -1), (0, 0)),
           ((0, 1), (0, 0), (0, 0)), _Z2, _Z2),
        E=(E0, _Z2, _Z2, _Z2, _Z2, ((1, 0), (0, 0), (0, 0)),
           ((0, 0), (1, 0), (0, 0))),
        S=Box.symmetric((c.a, c.a, c.b)),
        U=Box.symmetric((c.V_F, c.Omega_F)),
        D=Box.symmetric((c.V_L, c.Omega_L)),
        Q=Q,
    )


def build_basic_system(sc: BasicScenario, constants=None) -> UncertainLinearSystem:
    """The pursuit family on the basic window, a standoff d ahead, in the
    state (dp1, p2, beta).  `constants` are the scenario's
    :func:`exact_constants` when the caller has them already."""
    c = exact_constants(sc) if constants is None else constants
    return _pursuit_system(
        c,
        A0=((0, 0, 0), (0, 0, 1), (0, 0, 0)),
        B0=((-1, 0), (0, -c.d), (0, -1)),
        E0=((1, 0), (0, 0), (0, 1)),
        Q=Box.from_bounds([
            (c.sin_b / c.b - 1, 0),
            (-(1 - c.cos_b) / c.b, (1 - c.cos_b) / c.b),
            (-c.a, c.a),
            (-c.a, c.a),
            (c.cos_b - 1, 0),
            (-c.sin_b, c.sin_b),
        ]),
    )


def build_ubb_system(sc: UbbScenario, constants=None) -> UncertainLinearSystem:
    """Basic family with the disturbance vector enlarged to
    (v_L, w_L, h_F, h_L): the lateral perturbations enter through E(q).
    The basic family's system is built from the same constants, which also
    hold the disturbance amplitudes."""
    c = exact_constants(sc) if constants is None else constants
    base = build_basic_system(sc, c)
    z = ((0, 0, 0, 0),) * 3
    return replace(
        base,
        E=(((1, 0, 0, 0), (0, 0, -1, 1), (0, 1, 0, 0)), z, z, z, z,
           ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
           ((0, 0, 0, -1), (1, 0, 0, 0), (0, 0, 0, 0))),
        D=Box.symmetric(base.D.hi + (c.H_F, c.H_L)),
    )


def _circle_q(c) -> Box:
    """The parameter box of the orbit window, from its constants `c`: a
    ValueError names each interval that misses 0.  `CircleScenario` checks
    it in floats when it is made, and the system is built from the exact
    box."""
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
    missed = [f"q{i} ranges over [{float(lo):.6g}, {float(hi):.6g}]"
              for i, (lo, hi) in enumerate(zip(Q.lo, Q.hi), start=1)
              if not lo <= 0 <= hi]
    if missed:
        raise ValueError("parameter box Q misses the origin: "
                         + ", ".join(missed)
                         + "; the orbit window needs b <= 2 * gamma")
    return Q


def build_circle_system(sc: CircleScenario, constants=None) -> UncertainLinearSystem:
    """The pursuit family on the orbit window, in the shifted coordinates
    (dp1, dp2, dbeta) with input (v_F, dw_F) and disturbance (v_L, dw_L)."""
    c = exact_constants(sc) if constants is None else constants
    return _pursuit_system(
        c,
        A0=((0, c.rho, -c.sin_g), (-c.rho, 0, c.cos_g), (0, 0, 0)),
        B0=((-1, (1 - c.cos_g) / c.rho), (0, -c.sin_g / c.rho), (0, -1)),
        E0=((c.cos_g, 0), (c.sin_g, 0), (0, 1)),
        Q=_circle_q(c),
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
    conditions: tuple[ConditionMargin, ...]

    @property
    def feasible(self) -> bool:
        """No condition has a negative slack."""
        return all(c.slack >= 0 for c in self.conditions)

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


class _LinkBounds(NamedTuple):
    speed: float  # follower speed floor
    leader_turn: float  # leader turn-rate cap
    follower_turn: float  # follower turn-rate floor


def _link_bounds(V_L: float, a: float, b: float, d: float,
                 H_F: float = 0, H_L: float = 0) -> _LinkBounds:
    """Closed-form bounds of one box-window link with leader speed V_L and
    lateral disturbance amplitudes H_F, H_L; pairs and chains share them."""
    sb, cb = math.sin(b), math.cos(b)
    H = H_F + H_L
    return _LinkBounds(
        V_L * (1 + a * sb / (d - a)) + 1 - cb
        + a * (H_F + H_L + b) / (d - a) + H_L * sb,
        ((1 - V_L) * sb - H) / (d + a),
        (V_L * sb + b + H) / (d - a),
    )


def _pair_report(sc, vf_bound: float, ol_bound: float,
                 of_bound: float) -> FeasibilityReport:
    return FeasibilityReport((
        ConditionMargin("follower_speed", sc.V_F, vf_bound, sc.V_F - vf_bound),
        ConditionMargin("leader_turn_rate", sc.Omega_L, ol_bound, ol_bound - sc.Omega_L),
        ConditionMargin("follower_turn_rate", sc.Omega_F, of_bound, sc.Omega_F - of_bound),
    ))


def feasible_basic(sc: BasicScenario) -> FeasibilityReport:
    """Closed-form solvability test for the basic window."""
    return _pair_report(sc, *_link_bounds(sc.V_L, sc.a, sc.b, sc.d))


def feasible_ubb(sc: UbbScenario) -> FeasibilityReport:
    """Solvability test with lateral disturbance amplitudes H_F, H_L."""
    return _pair_report(sc, *_link_bounds(sc.V_L, sc.a, sc.b, sc.d, sc.H_F, sc.H_L))


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
    return _pair_report(sc, vf_bound, ol_bound, of_bound)


# ----------------------------------------------------------------------
# Gain polytopes
# ----------------------------------------------------------------------


def gain_polytope(sc: BasicScenario, system=None) -> LinearInequalitySystem:
    """Feasible-gain polytope for the basic window: the rows of both
    certificates of `system`, ``build_basic_system(sc)``, built here when
    not passed (:func:`~viskeep.systems._pipeline_polytope`)."""
    return _pipeline_polytope(build_basic_system(sc) if system is None else system)


def gain_polytope_ubb(sc: UbbScenario, system=None) -> LinearInequalitySystem:
    """Feasible-gain polytope under lateral disturbances, same route
    (`system` built here when not passed)."""
    return _pipeline_polytope(build_ubb_system(sc) if system is None else system)


def gain_polytope_circle(sc: CircleScenario, system=None) -> LinearInequalitySystem:
    """Feasible-gain polytope for the orbit window, same route."""
    return _pipeline_polytope(build_circle_system(sc) if system is None else system)


def derive_conditions_fme(sc: BasicScenario) -> bool:
    """Decide the nonemptiness of the gain polytope exactly.

    :meth:`LinearInequalitySystem.is_feasible` solves one exact linear
    program over multipliers of the rows, whose negative value is a Farkas
    set.  Agrees with :func:`feasible_basic` away from the condition
    boundaries; the closed-form conditions are the worst-vertex selection
    of the family that eliminating all three gain variables projects.
    """
    return gain_polytope(sc).is_feasible()


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
    """Scenario from its JSON form: a known ``type`` and its family's
    fields, each a finite JSON number, not a bool; anything else is a
    ValueError that names the field."""
    if not isinstance(data, dict):
        raise ValueError(f"scenario must be a JSON object, not {_shown(data)}")
    kind = data.get("type")
    cls = next((c for c in SCENARIO_CLASSES if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown scenario type: {_shown(kind)}")
    args = {k: v for k, v in data.items() if k != "type"}
    names = {f.name for f in fields(cls)}
    for key in args:
        if key not in names:
            raise ValueError(f"unknown {kind} scenario field {_shown(key)}")
        _number(args, key, f"{kind} scenario")
    try:
        return cls(**args)
    except TypeError as exc:
        raise ValueError(f"bad scenario fields: {exc}") from exc


def load_scenario(path):
    return scenario_from_json_dict(_read_json(path))


def save_scenario(sc, path):
    _write_json(path, scenario_to_json_dict(sc))
