"""Bundled benchmark runs: one per supported scenario family.

Each bundle fixes the scenario parameters, the leader motion, the initial
relative state and the horizon.  :data:`BUNDLES` holds them by name, in
the order the demo writes them.  The demo runs the gains it synthesizes.
The reference gains of the original study of these scenarios, which only
the tests read, are kept in ``tests/conftest.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import ChainSpec
from .scenarios import BasicScenario, CircleScenario, UbbScenario
from .profiles import BOUND_TOL, LeaderProfile, profile_from_json_dict

PI = math.pi

# Leader motion of each bundle, as the demo writes it to profile.json.
PROFILE_JSON = {
    "basic": {
        "v": {"type": "sin", "amplitude": 0.05, "omega": 1.0},
        "omega": {"type": "cos", "amplitude": PI / 20, "omega": 0.1},
    },
    "ubb": {
        "v": {"type": "constant", "value": 0.01},
        "omega": {"type": "sin", "amplitude": -PI / 20, "omega": 0.08},
    },
    "circle": {
        "v": {"type": "sin", "amplitude": 0.05, "omega": 1.0},
        "omega": {"type": "constant", "value": PI / 30},
    },
    "chain": {
        "v": {"type": "constant", "value": 0.01},
        "omega": {"type": "constant", "value": PI / 52},
    },
}

BASIC_SCENARIO = BasicScenario(
    a=0.4, b=PI / 4, d=2.0, V_F=0.9, V_L=0.1, Omega_F=PI / 3, Omega_L=PI / 15,
)
BASIC_PROFILE = profile_from_json_dict(PROFILE_JSON["basic"])
BASIC_S0 = (0.3285, -0.1626, 0.1071)

UBB_SCENARIO = UbbScenario(
    a=0.4, b=PI / 4, d=2.0, V_F=0.95, V_L=0.03, Omega_F=PI / 4,
    Omega_L=PI / 18, H_F=0.12, H_L=0.12,
)
UBB_PROFILE = profile_from_json_dict(PROFILE_JSON["ubb"])
UBB_S0 = BASIC_S0
UBB_NOISE_AMPLITUDE = 0.1

CIRCLE_SCENARIO = CircleScenario(
    a=0.4, b=PI / 4, gamma=PI / 6, rho=0.3, V_F=0.8, V_L=0.06,
    Omega_F=PI / 3, Omega_L=PI / 25,
)
CIRCLE_PROFILE = profile_from_json_dict(PROFILE_JSON["circle"])
CIRCLE_S0 = (0.0, 0.0, 0.5597)

CHAIN_SPEC = ChainSpec.make(
    links=[(0.4, PI / 14, 3.0), (0.4, PI / 9, 3.0), (0.4, PI / 4, 3.0)],
    robots=[(0.02, PI / 50), (0.085, PI / 35), (0.25, PI / 21), (0.8, PI / 6)],
)
CHAIN_PROFILE = profile_from_json_dict(PROFILE_JSON["chain"])
CHAIN_S0 = ((0.0, 0.0, 0.0374), (0.0, 0.0, 0.2244), (0.0, 0.0, 0.2618))

DEFAULT_HORIZON = 60.0
# The step of every run: the coarsest of 1, 2 or 5 times a power of ten at
# which every bundle's step-doubling estimate (simulate.integration_error)
# stays below ERROR_TARGET, the monitor's own tolerance, so the integrator
# cannot move a sample by more than the slack the monitor grants.  The
# estimates at 1e-2 are 4e-13 to 7.5e-11; at 2e-2 the ubb run's is 1.2e-9.
ERROR_TARGET = BOUND_TOL
DEFAULT_DT = 1e-2


@dataclass(frozen=True)
class DemoBundle:
    name: str
    scenario: object
    profile: LeaderProfile
    s0: Sequence
    noise_amplitude: Optional[float] = None


BUNDLES = {b.name: b for b in (
    DemoBundle("basic", BASIC_SCENARIO, BASIC_PROFILE, BASIC_S0),
    DemoBundle("ubb", UBB_SCENARIO, UBB_PROFILE, UBB_S0,
               noise_amplitude=UBB_NOISE_AMPLITUDE),
    DemoBundle("circle", CIRCLE_SCENARIO, CIRCLE_PROFILE, CIRCLE_S0),
    DemoBundle("chain", CHAIN_SPEC, CHAIN_PROFILE, CHAIN_S0),
)}
