"""Pursuit chains: feasibility propagation, speed schedules, length bounds.

In a chain, robot k+1 keeps robot k inside its own visibility window.  The
pair conditions propagate along the chain: each link forces a minimum speed
ratio on its follower and sandwiches every interior robot's turn-rate bound
between the demands of its two neighbouring links.  The propagation also
yields a hard upper bound on how many robots any parameter progression can
sustain, and rules out closed (cyclic) chains outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .profiles import _finite_number, _number, _read_json, _shown, _write_json
from .scenarios import (
    BasicScenario,
    ConditionMargin,
    FeasibilityReport,
    _link_bounds,
)


class LinkGeometry(NamedTuple):
    a: float
    b: float
    d: float


def _check_geometry(g: LinkGeometry) -> None:
    """A window with ``a > 0``, standoff ``d > a`` and ``0 < b <= pi/2``,
    or a ValueError naming the field that fails."""
    if not g.a > 0:
        bad = f"a = {_shown(g.a)} is not positive"
    elif not g.d > g.a:
        bad = f"d = {_shown(g.d)} does not exceed a = {_shown(g.a)}"
    elif not 0 < g.b <= math.pi / 2 + 1e-12:
        bad = f"b = {_shown(g.b)} is not in (0, pi/2]"
    else:
        return
    raise ValueError(f"bad link geometry: {bad}")


class RobotLimits(NamedTuple):
    V: float
    Omega: float


@dataclass(frozen=True)
class ChainSpec:
    """Chain of n robots: link k (window of robot k+1) uses links[k-1]."""

    n: int
    links: tuple[LinkGeometry, ...]
    robots: tuple[RobotLimits, ...]

    def __post_init__(self):
        if type(self.n) is not int or not _finite_number(self.n):
            raise ValueError(f"n must be an integer, not {_shown(self.n)}")
        if self.n < 2:
            raise ValueError("a chain needs at least two robots")
        if len(self.links) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} links, got {len(self.links)}")
        if len(self.robots) != self.n:
            raise ValueError(f"expected {self.n} robots, got {len(self.robots)}")
        for g in self.links:
            _check_geometry(g)
        for r in self.robots:
            if not 0 < r.V < 1:
                raise ValueError(f"bad robot limits: V = {_shown(r.V)} is "
                                 "not in (0, 1)")
            if not r.Omega > 0:
                raise ValueError(f"bad robot limits: Omega = "
                                 f"{_shown(r.Omega)} is not positive")

    @classmethod
    def make(cls, links: Sequence, robots: Sequence) -> "ChainSpec":
        return cls(
            n=len(robots),
            links=tuple(LinkGeometry(*g) for g in links),
            robots=tuple(RobotLimits(*r) for r in robots),
        )

    def link_scenario(self, k: int) -> BasicScenario:
        """Pair scenario of link k (robot k+1 pursuing robot k), 1-based."""
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"link index {k} out of range")
        g = self.links[k - 1]
        return BasicScenario(
            a=g.a, b=g.b, d=g.d,
            V_F=self.robots[k].V, V_L=self.robots[k - 1].V,
            Omega_F=self.robots[k].Omega, Omega_L=self.robots[k - 1].Omega,
        )


@dataclass(frozen=True)
class ParameterMaps:
    """Window geometry progression along the chain (index k >= 2)."""

    f_a: Callable[[int], float]
    f_b: Callable[[int], float]
    f_d: Callable[[int], float]

    @classmethod
    def constant(cls, a: float, b: float, d: float) -> "ParameterMaps":
        return cls(lambda k: a, lambda k: b, lambda k: d)


def feasible_chain(spec: ChainSpec) -> FeasibilityReport:
    """Propagated pair conditions along the whole chain.

    Conditions: one speed floor per link, the guide robot's turn-rate cap,
    the tail robot's turn-rate floor, and a two-sided sandwich for every
    interior robot.
    """
    V = [r.V for r in spec.robots]
    Om = [r.Omega for r in spec.robots]
    # link k: robot k+1 follows robot k
    bounds = [_link_bounds(V[k - 1], *spec.links[k - 1]) for k in range(1, spec.n)]
    conds = [ConditionMargin(f"speed_{k + 1}", V[k], b.speed, V[k] - b.speed)
             for k, b in enumerate(bounds, start=1)]
    for r, w in enumerate(Om, start=1):  # follower of link r-1, leader of link r
        if r > 1:
            lo = bounds[r - 2].follower_turn
            conds.append(ConditionMargin(f"turn_rate_{r}_lower", w, lo, w - lo))
        if r < spec.n:
            hi = bounds[r - 1].leader_turn
            conds.append(ConditionMargin(f"turn_rate_{r}_upper", w, hi, hi - w))
    return FeasibilityReport(tuple(conds))


class SaturationError(ValueError):
    """Speed recursion reached 1 (unit nominal speed) at robot `index`."""

    def __init__(self, index: int, speeds: list[float]):
        super().__init__(f"speed schedule saturates at robot {index}")
        self.index = index
        self.speeds = speeds


def min_speed_schedule(links: Sequence, V_1: float) -> list[float]:
    """Speeds obtained by running the per-link floor with equality.

    `links` holds (a, b, d) for robots 2..n.  Raises
    :class:`SaturationError` as soon as a speed reaches 1.
    """
    if not 0 < V_1 < 1:
        raise ValueError("V_1 must lie in (0, 1)")
    speeds = [V_1]
    for i, (a, b, d) in enumerate(links, start=2):
        nxt = _link_bounds(speeds[-1], a, b, d).speed
        speeds.append(nxt)
        if nxt >= 1:
            raise SaturationError(i, speeds)
    return speeds


def _growth(a: float, b: float, d: float) -> tuple[float, float]:
    """One link's terms of the speed-floor recursion ``V' = (1 + alpha) V
    + c``: ``alpha = a sin b / (d - a)`` and ``c = 1 - cos b + a b / (d -
    a)``."""
    return a * math.sin(b) / (d - a), 1 - math.cos(b) + a * b / (d - a)


class ChainLengthResult(NamedTuple):
    max_robots: int
    capped: bool  # True when the search hit n_max without reaching the bound


def max_chain_length(maps: ParameterMaps, n_max: int) -> ChainLengthResult:
    """Largest N with the propagated-growth sum still below one.

    The sum ``S_N = sum_{i=2..N} c_i prod_{k=i+1..N} (1 + alpha_k)``, with
    ``c_i = 1 - cos b_i + a_i b_i / (d_i - a_i)`` and
    ``alpha_k = a_k sin b_k / (d_k - a_k)``, is carried from one N to the
    next by ``S_N = (1 + alpha_N) S_{N-1} + c_N``, ``S_1 = 0``: one map
    evaluation per N, so the cost is linear in `n_max`.  Each link
    geometry it evaluates must be one a :class:`ChainSpec` accepts;
    otherwise it raises a ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    total = 0.0
    for N in range(2, n_max + 1):
        a, b, d = maps.f_a(N), maps.f_b(N), maps.f_d(N)
        _check_geometry(LinkGeometry(a, b, d))
        alpha, c = _growth(a, b, d)
        total = (1 + alpha) * total + c
        if not total < 1:
            return ChainLengthResult(N - 1, False)
    return ChainLengthResult(n_max, True)


def closed_chain_check(spec: ChainSpec) -> FeasibilityReport:
    """Append the wrap-around link (robot 1 pursuing robot n).

    The chain conditions cap the guide speed from above while the wrap link
    demands it exceed the tail speed; the report carries that contradicting
    pair after the open-chain conditions, ``feasible_chain(spec)``.  The
    wrap link has the first link's geometry, since a ring gives robot 1 no
    window of its own.
    """
    V = [r.V for r in spec.robots]
    # invert the speed floors from the tail back to robot 1
    x = V[-1]
    for g in reversed(spec.links):
        alpha, c = _growth(*g)
        x = (x - c) / (1 + alpha)
    chain_upper = x
    wrap_lower = _link_bounds(V[-1], *spec.links[0]).speed
    conds = list(feasible_chain(spec).conditions)
    conds.append(
        ConditionMargin("speed_1_chain_upper", V[0], chain_upper, chain_upper - V[0])
    )
    conds.append(
        ConditionMargin("speed_1_wrap_lower", V[0], wrap_lower, V[0] - wrap_lower)
    )
    conds.append(
        ConditionMargin(
            "closure_gap", chain_upper, wrap_lower, chain_upper - wrap_lower
        )
    )
    return FeasibilityReport(tuple(conds))


#: The window angle of the first link of a generated schedule.
_B_START = 0.02


class ScheduleInfeasibleError(ValueError):
    """No schedule of the requested length; `achievable` robots fit."""

    def __init__(self, achievable: int, reason: str):
        super().__init__(
            f"no feasible schedule at the requested length; "
            f"achievable prefix: {achievable} robots ({reason})"
        )
        self.achievable = achievable


def generate_schedule(
    a: float,
    d: float,
    n: int,
    V_1: float,
    safety: float = 0.1,
) -> ChainSpec:
    """Heuristic feasible chain for fixed window sizes a and standoff d.

    Window angles widen just enough that each interior robot's turn-rate
    sandwich keeps a relative width of at least `safety`; speeds follow the
    per-link floor inflated by (1 + safety); turn rates sit at the geometric
    mean of their sandwich (guide and tail robots use the single-sided bound
    scaled by the safety margin).  The sandwich forces the window angles to
    grow by roughly (d + a) / ((d - a)(1 - safety)) per link, so the first
    window angle, :data:`_B_START`, is modest.  One pass over the links
    evaluates each link's bounds once, for its follower's speed and for
    the sandwich of the robot after it, and the turn rates read them back.
    A window angle is at most ``asin(1) = pi/2``.  Raises
    :class:`ScheduleInfeasibleError` with the achievable prefix length when
    the requested length cannot be met.
    """
    if not (d > a > 0):
        raise ValueError("need d > a > 0")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < V_1 < 1:
        raise ValueError("V_1 must lie in (0, 1)")
    if not 0 < safety < 1:
        raise ValueError("safety must lie in (0, 1)")

    b, V, bounds = [_B_START], [V_1], []  # bounds[k - 1]: link k's
    for k in range(1, n):  # link k: robot k + 1 pursues robot k
        bounds.append(_link_bounds(V[-1], a, b[-1], d))
        # inflate the per-link increment; keeps every speed floor slack
        # positive without compounding the whole recursion
        floor = bounds[-1].speed
        V.append(floor + safety * (floor - V[-1]))
        if V[-1] >= 1:
            raise ScheduleInfeasibleError(k, "first link saturates the speed"
                                          if k == 1 else
                                          f"speed saturates at robot {k + 1}")
        if k + 1 < n:  # b_{k+1} keeps robot k + 1's sandwich wide enough
            need = (bounds[-1].follower_turn * (d + a)
                    / ((1 - V[-1]) * (1 - safety)))
            if need > 1:
                raise ScheduleInfeasibleError(
                    k + 1, f"robot {k + 1} sandwich closes")
            b.append(max(b[-1], math.asin(need)))

    omegas = [(1 - safety) * bounds[0].leader_turn]
    for k in range(2, n):  # robot k: link k - 1's follower, link k's leader
        lo, hi = bounds[k - 2].follower_turn, bounds[k - 1].leader_turn
        if not lo < hi:
            raise ScheduleInfeasibleError(k, f"robot {k} sandwich empty")
        omegas.append(math.sqrt(lo * hi))
    omegas.append((1 + safety) * bounds[-1].follower_turn)

    spec = ChainSpec.make(
        links=[(a, bk, d) for bk in b],
        robots=list(zip(V, omegas)),
    )
    report = feasible_chain(spec)
    if not report.feasible:
        raise ScheduleInfeasibleError(n - 1, f"verification failed: {report.worst()}")
    return spec


# ----------------------------------------------------------------------
# JSON chain files: {n, links: [{a,b,d}...], robots: [{V,Omega}...]}
# ----------------------------------------------------------------------


def chain_to_json_dict(spec: ChainSpec, provenance: Optional[dict] = None) -> dict:
    out = {
        "n": spec.n,
        "links": [{"a": g.a, "b": g.b, "d": g.d} for g in spec.links],
        "robots": [{"V": r.V, "Omega": r.Omega} for r in spec.robots],
    }
    if provenance:
        out["provenance"] = provenance
    return out


def chain_from_json_dict(data: dict) -> ChainSpec:
    """Chain from its JSON form: each link's ``a``, ``b``, ``d`` and each
    robot's ``V``, ``Omega`` must be finite JSON numbers, not bools, and
    ``n`` an integer (checked by :class:`ChainSpec`); anything else is a
    ValueError that names the field."""
    try:
        links = [LinkGeometry(*(_number(g, key, f"chain link {k}")
                                for key in ("a", "b", "d")))
                 for k, g in enumerate(data["links"], start=1)]
        robots = [RobotLimits(*(_number(r, key, f"chain robot {k}")
                                for key in ("V", "Omega")))
                  for k, r in enumerate(data["robots"], start=1)]
        return ChainSpec(n=data["n"], links=tuple(links), robots=tuple(robots))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad chain spec: {exc}") from exc


def load_chain(path) -> ChainSpec:
    return chain_from_json_dict(_read_json(path))


def save_chain(spec: ChainSpec, path):
    _write_json(path, chain_to_json_dict(spec))
