"""Seeded inputs for the benchmark workloads.

Scenarios are drawn by rejection sampling: every candidate is built through
the package's own dataclasses, so each ``__post_init__`` hypothesis holds,
and its condition margins come from the package's closed-form reports.
Feasible items clear every condition by a margin; infeasible items violate
exactly one condition by a margin, so the verdict is never decided by
rounding at a condition boundary.
"""

from __future__ import annotations

import dataclasses
import math
import random

from viskeep.chains import ScheduleInfeasibleError, generate_schedule
from viskeep.scenarios import (
    BasicScenario,
    CircleScenario,
    UbbScenario,
    feasible_basic,
    feasible_circle,
    feasible_ubb,
)

MIN_MARGIN = 1e-3
CONDITIONS = ("follower_speed", "leader_turn_rate", "follower_turn_rate")


def _geometry(rnd: random.Random, kind: str) -> dict:
    """Window, standoff and leader bounds; the inputs the margins depend on."""
    if kind == "circle":
        # the bundled orbit window, perturbed; the sampler rejects draws that
        # break b >= gamma, b < 2 gamma (parameter box holds the origin),
        # b + gamma <= pi/2 or 1 - cos(gamma) > rho a
        gamma = math.pi / 6 * rnd.uniform(0.95, 1.05)
        b = math.pi / 4 * rnd.uniform(0.95, 1.05)
        a = 0.4 * rnd.uniform(0.95, 1.05)
        rho = 0.3 * rnd.uniform(0.9, 1.0)
        if not (gamma <= b < 2 * gamma and 1 - math.cos(gamma) > rho * a):
            return _geometry(rnd, kind)
        return dict(a=a, b=b, gamma=gamma, rho=rho, V_L=rnd.uniform(0.03, 0.1),
                    V_F=0.5, Omega_F=1.0, Omega_L=0.5 * rho)
    a = rnd.uniform(0.2, 0.5)
    out = dict(a=a, b=rnd.uniform(0.5, 1.2), d=a + rnd.uniform(1.0, 2.5),
               V_L=rnd.uniform(0.02, 0.2), V_F=0.5, Omega_F=1.0, Omega_L=0.01)
    if kind == "ubb":
        out.update(H_F=rnd.uniform(0.02, 0.12), H_L=rnd.uniform(0.02, 0.12))
    return out


FAMILIES = {
    "basic": (BasicScenario, feasible_basic),
    "ubb": (UbbScenario, feasible_ubb),
    "circle": (CircleScenario, feasible_circle),
}


def random_scenario(rnd: random.Random, kind: str, feasible: bool):
    """One scenario of family `kind` with the requested closed-form verdict."""
    cls, check = FAMILIES[kind]
    while True:
        try:
            probe = cls(**_geometry(rnd, kind))
        except ValueError:
            continue
        rhs = {c.condition: c.rhs for c in check(probe).conditions}
        if min(rhs.values()) <= 0:
            continue
        vals = dict(
            V_F=rhs["follower_speed"] + rnd.uniform(0.01, 0.15),
            Omega_L=rhs["leader_turn_rate"] * rnd.uniform(0.3, 0.9),
            Omega_F=rhs["follower_turn_rate"] * rnd.uniform(1.1, 2.0),
        )
        if not feasible:
            broken = CONDITIONS[rnd.randrange(3)]
            if broken == "follower_speed":
                vals["V_F"] = rhs["follower_speed"] - rnd.uniform(0.01, 0.15)
            elif broken == "leader_turn_rate":
                vals["Omega_L"] = rhs["leader_turn_rate"] * rnd.uniform(1.1, 1.5)
            else:
                vals["Omega_F"] = rhs["follower_turn_rate"] * rnd.uniform(0.5, 0.9)
        try:
            sc = dataclasses.replace(probe, **vals)
        except ValueError:
            continue
        report = check(sc)
        if report.feasible != feasible:
            continue
        if min(abs(c.slack) for c in report.conditions) <= MIN_MARGIN:
            continue
        return sc


def random_chain(rnd: random.Random, n: int):
    """Chain of `n` robots from the package's schedule generator."""
    while True:
        try:
            return generate_schedule(
                a=rnd.uniform(0.05, 0.2), d=rnd.uniform(4.0, 8.0), n=n,
                V_1=rnd.uniform(0.01, 0.05), safety=rnd.uniform(0.05, 0.2),
            )
        except ScheduleInfeasibleError:
            continue


def random_s0(rnd: random.Random, half_widths) -> tuple:
    """Initial relative state inside 0.8 times the window."""
    return tuple(rnd.uniform(-0.8, 0.8) * h for h in half_widths)


def random_profile_json(rnd: random.Random, v_bound: float, w_bound: float,
                        seed: int, random_speed: bool) -> dict:
    """Leader profile spec in the package's profile JSON format.

    One signal is a seeded random hold and the other a sinusoid;
    `random_speed` picks which.  Amplitudes stay at or below 0.9 of their
    bound so the profile never trips the simulator's bound check.
    """
    def hold(bound: float, salt: int) -> dict:
        return {"type": "random", "amplitude": rnd.uniform(0.2, 0.9) * bound,
                "hold": rnd.uniform(0.2, 1.0), "seed": seed * 2 + salt}

    def wave(bound: float) -> dict:
        return {"type": rnd.choice(["sin", "cos"]),
                "amplitude": rnd.uniform(0.2, 0.9) * bound,
                "omega": rnd.uniform(0.1, 2.0), "phase": rnd.uniform(0, math.pi)}

    if random_speed:
        return {"v": hold(v_bound, 0), "omega": wave(w_bound)}
    return {"v": wave(v_bound), "omega": hold(w_bound, 1)}
