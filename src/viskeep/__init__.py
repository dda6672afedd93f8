"""viskeep: visibility-keeping feedback synthesis for pursuit pairs and chains.

Build a box visibility window around a desired relative pose, transcribe
the nonlinear pursuit kinematics into a linear uncertain family, construct
the polytope of feedback gains that render the window invariant under all
admissible leader motions, pick the minimum-norm gain with an exact
optimality certificate, and validate the result against the original
nonlinear dynamics in simulation.

Importing the package loads the exact layer only, without numpy.  The
nonlinear simulators, traces and monitor (``SimTrace``,
``ViolationReport``, ``monitor``, ``simulate_basic``, ``simulate_ubb``,
``simulate_circle``, ``simulate_chain`` and ``simulate_scenario``) are
imported from :mod:`viskeep.simulate`, which loads numpy.
"""

from .boxes import Box, shifted_cone
from .chains import (
    ChainSpec,
    LinkGeometry,
    ParameterMaps,
    RobotLimits,
    SaturationError,
    ScheduleInfeasibleError,
    closed_chain_check,
    feasible_chain,
    generate_schedule,
    max_chain_length,
    min_speed_schedule,
)
from .inequalities import (
    LinearInequalitySystem,
    Row,
    rationalize,
)
from .profiles import LeaderProfile
from .scenarios import (
    BasicScenario,
    CircleScenario,
    FeasibilityReport,
    UbbScenario,
    build_basic_system,
    build_circle_system,
    build_ubb_system,
    derive_conditions_fme,
    feasible_basic,
    feasible_circle,
    feasible_ubb,
    gain_polytope,
    gain_polytope_circle,
    gain_polytope_ubb,
)
from .synthesis import (
    InfeasiblePolytopeError,
    SynthesisResult,
    min_norm_gain,
)
from .systems import (
    CertificateReport,
    GainMatrix,
    UncertainLinearSystem,
    check_admissible,
    check_D_invariant_cone,
    simulate_linear_switching,
)

__version__ = "0.1.0"
