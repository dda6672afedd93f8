import dataclasses
import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viskeep import simulate, tracecsv
from viskeep.boxes import Box
from viskeep.chains import ChainSpec
from viskeep.demos import (
    BASIC_PROFILE,
    BASIC_S0,
    BASIC_SCENARIO,
    BUNDLES,
    CHAIN_PROFILE,
    CHAIN_S0,
    CHAIN_SPEC,
    CIRCLE_PROFILE,
    CIRCLE_S0,
    CIRCLE_SCENARIO,
    DEFAULT_DT,
    DEFAULT_HORIZON,
    ERROR_TARGET,
    UBB_PROFILE,
    UBB_S0,
    UBB_SCENARIO,
)
from viskeep.scenarios import (
    build_basic_system,
    build_circle_system,
    build_ubb_system,
    gain_polytope_ubb,
)
from viskeep.simulate import (
    BOUND_TOL,
    LeaderProfile,
    constant,
    integration_error,
    monitor,
    profile_from_json_dict,
    random_hold,
    simulate_basic,
    simulate_chain,
    simulate_circle,
    simulate_ubb,
    sinusoid,
    sum_of,
    uniform_noise,
)
from viskeep.synthesis import min_norm_gain
from viskeep.systems import GainMatrix

from conftest import (
    REF_GAIN_BASIC,
    REF_GAIN_CIRCLE,
    REF_GAIN_UBB,
    REF_GAINS_CHAIN,
    constant_noise,
    integrate_oracle,
    reconstruct_relative,
)

STILL = LeaderProfile(constant(0.0), constant(0.0))


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------


def test_profile_primitives():
    assert constant(0.3)(17.0) == 0.3
    assert sinusoid(2.0, 0.5)(0.0) == 0.0
    assert sinusoid(2.0, 0.5, kind="cos")(0.0) == 2.0
    s = sum_of(constant(1.0), sinusoid(1.0, 1.0, phase=math.pi / 2))
    assert s(0.0) == pytest.approx(2.0)


def test_random_hold_deterministic_and_held():
    f = random_hold(0.5, 0.1, seed=42)
    g = random_hold(0.5, 0.1, seed=42)
    assert f(0.234) == g(0.234)
    assert f(0.21) == f(0.29)  # same hold interval
    assert f(0.21) != f(0.31)
    assert all(abs(f(0.05 * i)) <= 0.5 for i in range(100))


def _unmemoized_hold(amplitude, dt_hold, seed):
    """A fresh generator on every call: the reference for random_hold."""
    return lambda t: random.Random(f"{seed}:{int(t / dt_hold)}").uniform(
        -amplitude, amplitude)


def test_random_hold_memo_independent_of_evaluation_order():
    f = random_hold(0.3, 0.25, seed=5)
    g = random_hold(0.7, 0.1, seed=9)
    ref_f = _unmemoized_hold(0.3, 0.25, 5)
    ref_g = _unmemoized_hold(0.7, 0.1, 9)
    times = [0.01 * k for k in range(300)]
    shuffled = times[:]
    random.Random(3).shuffle(shuffled)
    repeated = [0.1, 0.1, 0.1, 2.0, 0.0, 2.0]
    for t in shuffled + times[::-1] + repeated + times:
        assert f(t) == ref_f(t)  # the two closures interleave
        assert g(t) == ref_g(t)


def test_random_hold_builds_one_generator_per_interval(monkeypatch):
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    profile = LeaderProfile(constant(0.0), random_hold(0.05, 0.5, seed=2))
    monkeypatch.setattr(random, "Random", Counting)
    simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, profile, (0.0, 0.0, 0.0),
                   T=3.0, dt=1e-3)
    assert 1 <= len(built) <= 7  # hold intervals 0..6 of the 3 s run


ARRAY_SIGNALS = {
    "constant": lambda: constant(0.07),
    "int-constant": lambda: constant(-1),
    "sin": lambda: sinusoid(0.05, 1.0),
    "sin-phase": lambda: sinusoid(0.05, 1.3, phase=0.7),
    "cos-phase": lambda: sinusoid(-math.pi / 20, 0.08, phase=-2.1, kind="cos"),
    "random-hold": lambda: random_hold(0.1, 0.25, seed=3),
    "random-hold-short": lambda: random_hold(math.pi / 60, 0.0123, seed=11),
    "sum": lambda: sum_of(sinusoid(0.02, 2.0, phase=1.0),
                          random_hold(0.03, 0.4, seed=5)),
    "nested-sum": lambda: sum_of(constant(0.01), sum_of(
        sinusoid(0.01, 0.5, kind="cos"), random_hold(0.02, 0.07, seed=2))),
}


@pytest.mark.parametrize("name", ARRAY_SIGNALS)
def test_array_form_equals_scalar_calls(name):
    """Each built-in signal's array form gives its scalar calls bit for bit
    on the three sample grids of a 3 s run (t, t + dt/2 and t + dt, dt =
    1e-3), called whole or in blocks, whose random holds then straddle two
    calls."""
    dt = 1e-3
    t = np.arange(3001) * dt
    for grid in (t, t + 0.5 * dt, t + dt):
        want = np.array([ARRAY_SIGNALS[name]()(x) for x in grid.tolist()],
                        dtype=float)
        sig = ARRAY_SIGNALS[name]()
        whole = sig.array(grid)
        blocks = np.concatenate([sig.array(grid[i:i + 700])
                                 for i in range(0, len(grid), 700)])
        assert whole.dtype == blocks.dtype == float
        assert whole.tobytes() == want.tobytes() == blocks.tobytes()
        if name.startswith("random"):
            assert len(np.unique(whole)) >= 12  # many intervals


@pytest.mark.parametrize("sig", [
    constant(10**400), sinusoid(0.05, 1e308), sinusoid(10**400, 1.0),
    random_hold(0.1, 1e-300), sum_of(constant(0.0), sinusoid(0.05, 1e308)),
], ids=["huge-int", "argument-overflow", "huge-amplitude", "tiny-hold",
        "sum"])
def test_array_form_is_nan_where_it_cannot_follow_the_scalar_calls(sig):
    """NaN sends a block back to the scalar calls, which raise or return
    what the plain loop sees."""
    t = np.arange(3001) * 1e-3
    with np.errstate(all="ignore"):
        vals = sig.array(t)
    assert np.isnan(vals).any()
    assert all(math.isfinite(v) for v in vals[~np.isnan(vals)])


def test_random_hold_trace_bit_equal_to_unmemoized_reference():
    def run(hold):
        profile = LeaderProfile(hold(0.05, 0.2, 4), hold(0.1, 0.3, 7))
        return simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, profile,
                              (0.1, -0.05, 0.2), T=2.0, dt=1e-3)

    got, want = run(random_hold), run(_unmemoized_hold)
    for name in ("times", "states", "inputs", "leader", "pose_f", "pose_l"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.ptp(got.leader[:, 1]) > 0.01  # the hold did switch


def test_profile_json_round_trip():
    prof = profile_from_json_dict({
        "v": {"type": "sum", "terms": [
            {"type": "constant", "value": 0.01},
            {"type": "sin", "amplitude": 0.02, "omega": 1.0},
        ]},
        "omega": {"type": "random", "amplitude": 0.1, "hold": 0.5, "seed": 3},
    })
    assert prof.v(0.0) == pytest.approx(0.01)
    assert abs(prof.omega(1.0)) <= 0.1


def test_leader_profile_sampled_once_per_stage_time():
    # t for the record and k1, t + dt/2 for k2 and k3, t + dt for k4
    calls = {"v": 0, "omega": 0}

    def counted(name, sig):
        def f(t):
            calls[name] += 1
            return sig(t)
        return f

    prof = LeaderProfile(counted("v", BASIC_PROFILE.v),
                         counted("omega", BASIC_PROFILE.omega))
    n = 200
    simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, prof, BASIC_S0,
                   T=n * 1e-3, dt=1e-3)
    assert calls == {"v": 3 * n + 1, "omega": 3 * n + 1}


def test_profile_bound_violation_is_input_error():
    prof = LeaderProfile(constant(0.2), constant(0.0))  # exceeds V_L = 0.1
    with pytest.raises(ValueError, match="exceeds its bound"):
        simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, prof,
                       (0, 0, 0), T=0.01, dt=1e-3)


# ----------------------------------------------------------------------
# straight pursuit
# ----------------------------------------------------------------------


def test_equilibrium_stays_put():
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL,
                           (0, 0, 0), T=2.0, dt=1e-3)
    assert np.abs(trace.states).max() == 0.0
    assert np.abs(trace.inputs).max() == 0.0
    # follower trails the leader by the standoff, both at unit speed
    gap = trace.pose_l[:, :2] - trace.pose_f[:, :2]
    assert np.allclose(gap[:, 0], BASIC_SCENARIO.d, atol=1e-12)
    assert np.allclose(gap[:, 1], 0.0, atol=1e-12)
    assert trace.pose_f[-1, 0] == pytest.approx(2.0, abs=1e-9)


def test_window_run_respects_bounds():
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=10.0, dt=1e-3)
    sysd = build_basic_system(BASIC_SCENARIO)
    rep = monitor(trace, sysd.S, sysd.U)
    assert rep.clean
    assert trace.clamp_events == 0
    assert rep.first_violation_time is None


def test_s0_outside_window_rejected():
    with pytest.raises(ValueError, match="outside"):
        simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL,
                       (0.5, 0, 0), T=1.0, dt=1e-3)


def test_step_halving_agreement():
    coarse = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                            BASIC_S0, T=2.0, dt=1e-3)
    fine = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                          BASIC_S0, T=2.0, dt=5e-4)
    diff = np.abs(coarse.states - fine.states[::2]).max()
    assert diff < 1e-9


def test_pose_and_relative_state_agree():
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=5.0, dt=1e-3)
    rel = np.array([
        reconstruct_relative(pf, pl)
        for pf, pl in zip(trace.pose_f, trace.pose_l)
    ])
    rel[:, 0] -= BASIC_SCENARIO.d
    assert np.abs(rel - trace.states).max() < 1e-6


def test_heading_wrap_guard():
    sc = BASIC_SCENARIO.__class__(a=0.4, b=math.pi / 2, d=2.0, V_F=0.9,
                                  V_L=0.1, Omega_F=math.pi / 3, Omega_L=2.2)
    spin = LeaderProfile(constant(0.0), constant(2.0))
    with pytest.raises(ValueError, match="heading"):
        simulate_basic(sc, GainMatrix(0.0, 0.0, 0.0), spin,
                       (0, 0, 0), T=3.0, dt=1e-3)


def test_bad_grid_rejected():
    with pytest.raises(ValueError):
        simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL, (0, 0, 0),
                       T=1.0, dt=3e-4)


# ----------------------------------------------------------------------
# lateral disturbances
# ----------------------------------------------------------------------


def _same_run_but_noise(plain, quiet):
    """`quiet`, run with a noise table of zeros, is `plain` bit for bit:
    every trace array and clamp count, and its noise columns are zeros."""
    assert len(plain) == len(quiet)
    for a, b in zip(plain, quiet):
        for name in ("times", "states", "inputs", "leader", "pose_f", "pose_l"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert a.clamp_events == b.clamp_events
        assert a.noise is None and not b.noise.any()


def test_zero_noise_matches_plain_run():
    """The noise-free loop leaves out the noise terms; a ubb run whose noise
    is all zeros keeps them, and both give the same trace, 3 s at dt = 1e-3
    and the demo's horizon at its step."""
    quiet_sc = UBB_SCENARIO.__class__(
        a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
        Omega_F=math.pi / 3, Omega_L=math.pi / 15, H_F=0.0, H_L=0.0,
    )
    for T, dt in ((3.0, 1e-3), (DEFAULT_HORIZON, DEFAULT_DT)):
        plain = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                               BASIC_S0, T=T, dt=dt)
        noisy = simulate_ubb(quiet_sc, REF_GAIN_BASIC, BASIC_PROFILE,
                             constant_noise(0.0, 0.0), BASIC_S0, T=T, dt=dt)
        _same_run_but_noise([plain], [noisy])


def test_zero_noise_table_matches_noise_free_chain():
    """The demo chain's three links through _integrate at the demo's step,
    once without noise and once with a table of zeros for its four robots:
    the noise-free and the noisy loop agree bit for bit."""
    link = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                          CHAIN_S0, 0.1, DEFAULT_DT)[0]
    # links, lead limits, profile, s0 and poses, as simulate_chain builds them
    args, kw = link.rerun.args[:5], link.rerun.keywords
    assert len(args[0]) == 3 and kw["noise"] is None
    holds = round(DEFAULT_HORIZON / simulate.NOISE_HOLD) + 1
    plain, quiet = (simulate._integrate(*args, DEFAULT_HORIZON, DEFAULT_DT,
                                        **{**kw, "noise": noise})
                    for noise in (None, [(0.0,) * 4] * holds))
    _same_run_but_noise(plain, quiet)


def test_noisy_run_respects_bounds():
    trace = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                         uniform_noise(0.1, 0.1, seed=5), UBB_S0,
                         T=10.0, dt=1e-3)
    sysd = build_ubb_system(UBB_SCENARIO)
    assert monitor(trace, sysd.S, sysd.U).clean
    assert trace.clamp_events == 0
    assert trace.noise is not None and np.abs(trace.noise).max() <= 0.1


def test_adversarial_constant_noise_with_certified_gain():
    res = min_norm_gain(gain_polytope_ubb(UBB_SCENARIO))
    K = res.gain
    trace = simulate_ubb(UBB_SCENARIO, K, UBB_PROFILE,
                         constant_noise(0.12, 0.12), UBB_S0,
                         T=10.0, dt=1e-3)
    sysd = build_ubb_system(UBB_SCENARIO)
    assert monitor(trace, sysd.S, sysd.U).clean
    assert trace.clamp_events == 0


def test_noise_determinism_under_seed():
    a = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE, None, UBB_S0,
                     T=1.0, dt=1e-3, seed=7)
    b = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE, None, UBB_S0,
                     T=1.0, dt=1e-3, seed=7)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.noise, b.noise)


def test_oversized_noise_rejected():
    with pytest.raises(ValueError, match="amplitude"):
        simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                     constant_noise(0.2, 0.0), UBB_S0, T=0.01, dt=1e-3)


def test_noise_is_defined_in_time():
    """A ubb run at dt = 1e-3 and one at 1e-2 see the same disturbance: at
    their shared times the hF and hL columns are equal bit for bit, and
    each value holds for one NOISE_HOLD."""
    fine, coarse = (simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                                 None, UBB_S0, T=5.0, dt=dt, seed=4)
                    for dt in (1e-3, 1e-2))
    assert fine.noise[::10].tobytes() == coarse.noise.tobytes()
    per_hold = round(simulate.NOISE_HOLD / 1e-3)
    holds = fine.noise[:-1].reshape(-1, per_hold, 2)
    assert (holds == holds[:, :1]).all()
    assert len(np.unique(holds[:, 0, 0])) == len(holds)


def test_uniform_noise_draws_by_interval():
    """Interval j's pair depends only on the seed and j: a longer draw
    extends a shorter one."""
    draw = uniform_noise(0.1, 0.05, seed=9)
    assert draw(600)[:7] == draw(7)
    assert draw(7) != uniform_noise(0.1, 0.05, seed=10)(7)
    assert (np.abs(draw(600)) <= (0.1, 0.05)).all()


@pytest.mark.parametrize("dt", [0.03, 0.3, 0.15])
def test_dt_that_does_not_divide_the_noise_hold_is_rejected(dt):
    with pytest.raises(ValueError, match="does not divide the noise hold") as exc:
        simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE, None, UBB_S0,
                     T=3 * dt, dt=dt)
    assert repr(dt) in str(exc.value) and repr(simulate.NOISE_HOLD) in str(exc.value)
    simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE, BASIC_S0,
                   T=3 * dt, dt=dt)  # a run without noise has no hold


@pytest.mark.parametrize("item_seed", [0, 1, 2001])
def test_ubb_runs_clean_with_a_sampler_passed_in(item_seed):
    """The call a caller with its own seed makes: a uniform_noise sampler
    passed positionally to simulate_ubb, 3 s at dt = 1e-3."""
    sc = UBB_SCENARIO
    noise = simulate.uniform_noise(sc.H_F, sc.H_L, item_seed)
    trace = simulate.simulate_ubb(sc, REF_GAIN_UBB, UBB_PROFILE, noise,
                                  UBB_S0, 3.0, 1e-3)
    sysd = build_ubb_system(sc)
    assert monitor(trace, sysd.S, sysd.U).clean
    assert trace.clamp_events == 0
    assert trace.noise.shape == (3001, 2)


# ----------------------------------------------------------------------
# convergence and the step-doubling error estimate
# ----------------------------------------------------------------------


def _bundle_run(name, dt):
    """The demo's run of a bundle at step dt, with its synthesized gains:
    every link of it, as a list."""
    b = BUNDLES[name]
    if name == "chain":
        gains = [_synth_gain(b.scenario.link_scenario(k))
                 for k in range(1, b.scenario.n)]
        return simulate_chain(b.scenario, gains, b.profile, b.s0,
                              DEFAULT_HORIZON, dt)
    return [simulate.simulate_scenario(b.scenario, _synth_gain(b.scenario),
                                       b.profile, b.s0, DEFAULT_HORIZON, dt,
                                       b.noise_amplitude, 0)]


def _max_gap(fine, coarse):
    """Largest difference of states and poses at the coarse run's times."""
    k = (len(fine.times) - 1) // (len(coarse.times) - 1)
    return max(float(np.abs(a[::k] - b).max())
               for a, b in ((fine.states, coarse.states),
                            (fine.pose_f, coarse.pose_f),
                            (fine.pose_l, coarse.pose_l)))


def test_ubb_run_converges_at_fourth_order():
    """Runs at dt, dt/2 and dt/4 of the ubb bundle: each halving shrinks the
    difference about 16 times, as RK4's global error does once the
    disturbance is the same signal at every step."""
    runs = [_bundle_run("ubb", 0.05 / 2 ** k)[0] for k in range(3)]
    ratio = _max_gap(runs[1], runs[0]) / _max_gap(runs[2], runs[1])
    assert 8.0 <= ratio <= 32.0, ratio


def test_integration_error_matches_the_true_error():
    """On the basic bundle at the demo's step the estimate lies within a
    factor of 4 of the error against a dt/8 reference."""
    (trace,) = _bundle_run("basic", DEFAULT_DT)
    (estimate,) = integration_error([trace])
    (reference,) = _bundle_run("basic", DEFAULT_DT / 8)
    true = _max_gap(reference, trace)
    assert true / 4 <= estimate <= 4 * true, (estimate, true)


def test_integration_error_falls_back_to_half_steps():
    """A run whose step count is odd, or whose hold holds an odd number of
    steps, is estimated against dt/2, scaled by 16/15."""
    odd = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                         BASIC_S0, T=2.5, dt=0.1)
    half = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                          BASIC_S0, T=2.5, dt=0.05)
    assert integration_error([odd]) == [_max_gap(half, odd) * 16 / 15]
    noisy = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE, None, UBB_S0,
                         T=2.0, dt=0.02)
    (estimate,) = integration_error([noisy])
    assert 0.0 < estimate < 1e-8


def test_default_dt_is_the_coarsest_step_within_the_error_target():
    """At DEFAULT_DT every demo run, each chain link included, estimates
    its error below ERROR_TARGET; at the next step of the 1, 2, 5 ladder,
    2 * DEFAULT_DT, some run does not."""
    def worst(dt):
        return max(error for name in ("basic", "ubb", "circle", "chain")
                   for error in integration_error(_bundle_run(name, dt)))

    assert worst(DEFAULT_DT) < ERROR_TARGET
    assert worst(2 * DEFAULT_DT) > ERROR_TARGET


# ----------------------------------------------------------------------
# orbit
# ----------------------------------------------------------------------


def test_orbit_equilibrium():
    trace = simulate_circle(CIRCLE_SCENARIO, REF_GAIN_CIRCLE, STILL,
                            (0, 0, 0), T=2.0, dt=1e-3)
    assert np.abs(trace.states).max() == 0.0
    # both robots turn at the orbit rate
    assert trace.pose_f[-1, 2] == pytest.approx(0.3 * 2.0, abs=1e-9)
    assert trace.pose_l[-1, 2] - trace.pose_l[0, 2] == pytest.approx(
        0.3 * 2.0, abs=1e-9
    )


def test_orbit_run_respects_bounds():
    trace = simulate_circle(CIRCLE_SCENARIO, REF_GAIN_CIRCLE, CIRCLE_PROFILE,
                            CIRCLE_S0, T=10.0, dt=1e-3)
    sysd = build_circle_system(CIRCLE_SCENARIO)
    assert monitor(trace, sysd.S, sysd.U).clean
    assert trace.clamp_events == 0


def test_orbit_pose_consistency():
    trace = simulate_circle(CIRCLE_SCENARIO, REF_GAIN_CIRCLE, CIRCLE_PROFILE,
                            CIRCLE_S0, T=5.0, dt=1e-3)
    off1 = math.sin(CIRCLE_SCENARIO.gamma) / CIRCLE_SCENARIO.rho
    off2 = (1 - math.cos(CIRCLE_SCENARIO.gamma)) / CIRCLE_SCENARIO.rho
    rel = np.array([
        reconstruct_relative(pf, pl)
        for pf, pl in zip(trace.pose_f, trace.pose_l)
    ])
    rel -= np.array([off1, off2, CIRCLE_SCENARIO.gamma])
    assert np.abs(rel - trace.states).max() < 1e-6


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------


def test_chain_equilibrium():
    traces = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, STILL,
                            [(0, 0, 0)] * 3, T=2.0, dt=1e-3)
    for trace in traces:
        assert np.abs(trace.states).max() == 0.0


def test_chain_run_respects_bounds():
    traces = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                            CHAIN_S0, T=10.0, dt=1e-3)
    for k, trace in enumerate(traces, start=1):
        g = CHAIN_SPEC.links[k - 1]
        S = Box.symmetric((g.a, g.a, g.b))
        U = Box.symmetric((CHAIN_SPEC.robots[k].V, CHAIN_SPEC.robots[k].Omega))
        assert monitor(trace, S, U).clean
        assert trace.clamp_events == 0


def test_chain_cascade_consistency():
    # an intermediate robot's realized inputs are the next link's leader data
    traces = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                            CHAIN_S0, T=3.0, dt=1e-3)
    assert np.array_equal(traces[1].leader, traces[0].inputs)
    assert np.array_equal(traces[2].leader, traces[1].inputs)
    for k, trace in enumerate(traces, start=1):
        v_max = np.abs(trace.inputs[:, 0]).max()
        w_max = np.abs(trace.inputs[:, 1]).max()
        assert v_max <= CHAIN_SPEC.robots[k].V + 1e-12
        assert w_max <= CHAIN_SPEC.robots[k].Omega + 1e-12


def test_inter_robot_distance_stays_positive():
    # the standoff keeps the vehicles apart along the whole run
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=10.0, dt=1e-3)
    gap = np.hypot(*(trace.pose_l[:, :2] - trace.pose_f[:, :2]).T)
    assert gap.min() > 0
    traces = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                            CHAIN_S0, T=5.0, dt=1e-3)
    for trace in traces:
        gap = np.hypot(*(trace.pose_l[:, :2] - trace.pose_f[:, :2]).T)
        assert gap.min() > 0


def test_chain_pose_consistency():
    traces = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                            CHAIN_S0, T=3.0, dt=1e-3)
    for k, trace in enumerate(traces, start=1):
        rel = np.array([
            reconstruct_relative(pf, pl)
            for pf, pl in zip(trace.pose_f, trace.pose_l)
        ])
        rel[:, 0] -= CHAIN_SPEC.links[k - 1].d
        assert np.abs(rel - trace.states).max() < 1e-6


@pytest.mark.parametrize("name", ["basic", "ubb", "circle", "chain"])
def test_demo_poses_agree_with_states(name):
    """At the demo's step and horizon every follower's pose, seen from its
    leader's, gives back the link's state to rounding: the poses are placed
    from the states, not integrated beside them."""
    sc = BUNDLES[name].scenario
    if name == "chain":
        offsets = [(g.d, 0.0, 0.0) for g in sc.links]
    elif name == "circle":
        offsets = [(math.sin(sc.gamma) / sc.rho,
                    (1 - math.cos(sc.gamma)) / sc.rho, sc.gamma)]
    else:
        offsets = [(sc.d, 0.0, 0.0)]
    traces = _bundle_run(name, DEFAULT_DT)
    assert len(traces) == len(offsets)
    for trace, offset in zip(traces, offsets):
        rel = np.array([reconstruct_relative(pf, pl)
                        for pf, pl in zip(trace.pose_f, trace.pose_l)])
        assert np.abs(rel - offset - trace.states).max() < 1e-13


@pytest.mark.parametrize("K", [REF_GAIN_BASIC, GainMatrix(9.0, 7.0, 5.0)],
                         ids=["clean", "clamped"])
def test_pair_is_a_one_link_chain(K):
    sc = BASIC_SCENARIO
    spec = ChainSpec.make([(sc.a, sc.b, sc.d)],
                          [(sc.V_L, sc.Omega_L), (sc.V_F, sc.Omega_F)])
    assert spec.link_scenario(1) == sc
    s0 = (0.3, -0.3, 0.2)
    pair = simulate_basic(spec.link_scenario(1), K, BASIC_PROFILE, s0, T=5.0)
    [link] = simulate_chain(spec, [K], BASIC_PROFILE, [s0], T=5.0)
    for name in ("states", "inputs", "leader"):
        assert getattr(pair, name).tobytes() == getattr(link, name).tobytes()
    assert pair.clamp_events == link.clamp_events
    # the pair puts the follower at the origin, the chain the leader
    rel_pair = np.array([reconstruct_relative(pf, pl)
                         for pf, pl in zip(pair.pose_f, pair.pose_l)])
    rel_link = np.array([reconstruct_relative(pf, pl)
                         for pf, pl in zip(link.pose_f, link.pose_l)])
    assert np.abs(rel_pair - rel_link).max() < 1e-12


def test_chain_input_validation():
    with pytest.raises(ValueError):
        simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN[:2], CHAIN_PROFILE,
                       CHAIN_S0, T=1.0)
    with pytest.raises(ValueError, match="outside"):
        simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                       [(0, 0, 0.5), (0, 0, 0), (0, 0, 0)], T=1.0)


# ----------------------------------------------------------------------
# the generated integrator against the plain RK4 loop
# ----------------------------------------------------------------------


def _synth_gain(sc):
    return GainMatrix(*min_norm_gain(sc.polytope().reduce()).exact_gain).as_floats()


def _demo_run(name):
    b = BUNDLES[name]
    if name == "chain":
        gains = [_synth_gain(b.scenario.link_scenario(k))
                 for k in range(1, b.scenario.n)]
        return lambda: simulate_chain(b.scenario, gains, b.profile, b.s0, T=2.0)
    K = _synth_gain(b.scenario)
    return lambda: [simulate.simulate_scenario(b.scenario, K, b.profile, b.s0,
                                               2.0, 1e-3, b.noise_amplitude, 0)]


def _chain_run(n_links):
    """n_links links behind a leader with a random-hold turn rate."""
    spec = ChainSpec.make(
        [(0.4, math.pi / 14, 3.0), (0.4, math.pi / 9, 3.0),
         (0.4, math.pi / 4, 3.0), (0.5, math.pi / 4, 3.0)][:n_links],
        [(0.02, math.pi / 50), (0.085, math.pi / 35), (0.25, math.pi / 21),
         (0.5, math.pi / 8), (0.8, math.pi / 6)][:n_links + 1],
    )
    prof = LeaderProfile(sinusoid(0.015, 1.0),
                         random_hold(math.pi / 60, 0.25, seed=n_links))
    gains = [GainMatrix(0.3 * k, 0.1, 0.35) for k in range(1, n_links + 1)]
    s0 = [(0.1, -0.1 * k, 0.03 * k) for k in range(1, n_links + 1)]
    return lambda: simulate_chain(spec, gains, prof, s0, T=2.0)


def _pair_run(K, profile):
    return lambda: [simulate_basic(BASIC_SCENARIO, K, profile,
                                   (0.3, -0.3, 0.2), T=2.0)]


def _noisy_run(K):  # noise at the ubb scenario's full amplitudes
    noise = uniform_noise(UBB_SCENARIO.H_F, UBB_SCENARIO.H_L, seed=3)
    return lambda: [simulate_ubb(UBB_SCENARIO, K, UBB_PROFILE, noise, UBB_S0,
                                 T=2.0)]


INTEGRATOR_CASES = {
    **{name: lambda name=name: _demo_run(name)
       for name in ("basic", "ubb", "circle", "chain")},
    **{f"chain-{n}": lambda n=n: _chain_run(n) for n in (1, 2, 3, 4)},
    "clamped": lambda: _pair_run(GainMatrix(9.0, 7.0, 5.0), BASIC_PROFILE),
    "clamped-turn": lambda: _pair_run(GainMatrix(1.0, 9.0, 7.0), BASIC_PROFILE),
    "clamped-noisy": lambda: _noisy_run(GainMatrix(9.0, 7.0, 5.0)),
    "random-hold": lambda: _pair_run(REF_GAIN_BASIC, LeaderProfile(
        random_hold(0.08, 0.3, seed=7), random_hold(math.pi / 20, 0.5, seed=8))),
}


@pytest.mark.parametrize("case", INTEGRATOR_CASES)
def test_generated_integrator_matches_plain_loop(case, monkeypatch):
    run = INTEGRATOR_CASES[case]()
    fast = run()
    monkeypatch.setattr(simulate, "_integrate", integrate_oracle)
    slow = run()
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        for name in ("times", "states", "inputs", "leader", "noise"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if x is not None:
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert a.clamp_events == b.clamp_events
        # each follower is placed from its leader and its link's state, and
        # the plain loop integrates it as a unicycle: the two agree to
        # within rounding and truncation
        assert a.pose_f.shape == b.pose_f.shape
        assert np.abs(a.pose_f - b.pose_f).max() < 1e-10
    # robot 0's pose is integrated by both, bit for bit
    assert fast[0].pose_l.tobytes() == slow[0].pose_l.tobytes()
    if case.startswith("clamped"):
        assert fast[0].clamp_events > 0
    if case == "ubb":
        assert fast[0].noise is not None


def _wrap_run():  # the guard trips at t = 1.571, in the run's second block
    sc = BASIC_SCENARIO.__class__(a=0.4, b=math.pi / 2, d=2.0, V_F=0.9,
                                  V_L=0.1, Omega_F=math.pi / 3, Omega_L=2.2)
    spin = LeaderProfile(constant(0.0), constant(2.0))
    return simulate_basic(sc, GainMatrix(0.0, 0.0, 0.0), spin, (0, 0, 0),
                          T=3.0)


def _noisy_wrap_run():  # the same spin, with lateral noise on both robots
    sc = UBB_SCENARIO.__class__(a=0.4, b=math.pi / 2, d=2.0, V_F=0.9,
                                V_L=0.1, Omega_F=math.pi / 3, Omega_L=2.2,
                                H_F=0.05, H_L=0.05)
    spin = LeaderProfile(constant(0.0), constant(2.0))
    return simulate_ubb(sc, GainMatrix(0.0, 0.0, 0.0), spin, None, (0, 0, 0),
                        T=3.0, seed=4)


def _chain_wrap_run():  # robot 1 follows the spinning leader, robot 2 not
    spec = ChainSpec.make([(0.4, math.pi / 2, 3.0)] * 2,
                          [(0.02, 2.0), (0.3, 2.5), (0.3, 0.01)])
    spin = LeaderProfile(constant(0.0), constant(1.9))
    return simulate_chain(spec, [GainMatrix(0.0, 0.0, 5.0),
                                 GainMatrix(0.0, 0.0, 0.0)],
                          spin, [(0.0, 0.0, 0.0)] * 2, T=5.0)


def _bound_run():  # |v| = 0.2 |sin t| passes V_L = 0.1 at t = pi/6
    prof = LeaderProfile(sinusoid(0.2, 1.0), constant(0.0))
    return simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, prof, (0, 0, 0),
                          T=2.0)


@pytest.mark.parametrize("run, match", [
    (_wrap_run, "heading difference left .* on link 1 at t="),
    (_noisy_wrap_run, "heading difference left .* on link 1 at t=1.571;"),
    (_chain_wrap_run, "on link 2 at t="),
    (_bound_run, "exceeds its bound: \\|v\\(0.52"),
], ids=["wrap", "noisy-wrap", "chain-wrap", "profile-bound"])
def test_generated_integrator_raises_like_plain_loop(run, match, monkeypatch):
    messages = []
    for integrate in (simulate._integrate, integrate_oracle):
        monkeypatch.setattr(simulate, "_integrate", integrate)
        with pytest.raises(ValueError, match=match) as exc:
            run()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def _oracle_error(run, monkeypatch) -> str:
    """The message `run` raises, the same under the generated integrator
    and the plain loop."""
    messages = []
    for integrate in (simulate._integrate, integrate_oracle):
        monkeypatch.setattr(simulate, "_integrate", integrate)
        with pytest.raises(ValueError) as exc:
            run()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    return messages[0]


def _crossing(bound, t_cross):
    """Amplitude and rate of a sine whose modulus reaches `bound` at
    `t_cross` and passes it (with its tolerance) a few 1e-8 s later."""
    return 2 * bound, math.asin(0.5) / t_cross


@pytest.mark.parametrize("signal, j", [
    (signal, j) for j in (simulate._BLOCK + 476, 2 * simulate._BLOCK)
    for signal in ("v", "omega", "v-plain")
], ids=["v", "omega", "v-plain", "v-block-start", "omega-block-start",
        "v-plain-block-start"])
def test_profile_excess_at_a_half_step_of_a_later_block(signal, j,
                                                        monkeypatch):
    """The profile first leaves its bound at the t + dt/2 sample of step j,
    past the first block: the run raises it at that step, as the plain
    loop does, whether the block was sampled by the array form or by a
    plain callable.  At a block's first step the block integrates no step
    and only guards and records its stop row."""
    dt = 1e-3
    name = signal.split("-")[0]
    bound = BASIC_SCENARIO.V_L if name == "v" else BASIC_SCENARIO.Omega_L
    amp, rate = _crossing(bound, (j + 0.25) * dt)
    sig = (sinusoid(amp, rate) if signal != "v-plain"
           else lambda t: amp * math.sin(rate * t))
    t = j * dt
    assert abs(sig(t)) <= bound + BOUND_TOL < abs(sig(t + 0.5 * dt))
    still = constant(0.0)
    profile = (LeaderProfile(sig, still) if name == "v"
               else LeaderProfile(still, sig))
    message = _oracle_error(
        lambda: simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, profile,
                               (0.0, 0.0, 0.0), T=(j + 10) * dt),
        monkeypatch)
    assert f"exceeds its bound: |{name}({t + 0.5 * dt:.6g})|" in message


@pytest.mark.parametrize("j, n_steps", [
    (9 * simulate._BLOCK, 9 * simulate._BLOCK + 10),
    (simulate._BLOCK + 2, simulate._BLOCK + 2),
], ids=["block-start", "final-sample"])
def test_profile_excess_at_the_time_of_a_step(j, n_steps, monkeypatch):
    """The profile leaves its bound from t = j dt on, a time that the k4
    sample of step j - 1, the float (j - 1) dt + dt, falls one ulp short
    of: step j is the stop row, guarded and recorded before the excess is
    raised, as in the plain loop.  Step j is the first of a later block,
    which integrates no step, or the run's final step, sampled at t = T
    only."""
    dt = 1e-3
    t = j * dt
    assert (j - 1) * dt + dt < t
    bound = BASIC_SCENARIO.V_L
    profile = LeaderProfile(lambda s: 2 * bound if s >= t else 0.0,
                            constant(0.0))
    message = _oracle_error(
        lambda: simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, profile,
                               (0.0, 0.0, 0.0), T=n_steps * dt),
        monkeypatch)
    assert f"exceeds its bound: |v({t:.6g})|" in message


@pytest.mark.parametrize("t_bad, kind, match", [
    (1.8, "excess", "heading difference left .* at t=1.571"),
    (1.2, "excess", "exceeds its bound: \\|v\\(1.2"),
    (1.2, "overflow", "math domain error"),
    (1.57125, "excess", "heading difference left .* at t=1.571"),
], ids=["wrap-first", "excess-first", "domain-error-first", "wrap-at-stop"])
def test_wrap_guard_and_profile_errors_keep_their_order(t_bad, kind, match,
                                                        monkeypatch):
    """The spinning leader trips the wrap guard at t = 1.571, in the block
    that also holds the profile's first excess at t = 1.8: the guard's
    error still comes first.  An excess at 1.2 comes first in its turn, and
    so does a sine whose argument leaves the floats at t = 1.2, an error
    math.sin raises and the array form cannot.  An excess at the half step
    of t = 1.571 makes that step the block's stop row, which is guarded
    before the excess is raised."""
    dt = 1e-3
    assert 1571 // simulate._BLOCK == 1800 // simulate._BLOCK
    sc = BASIC_SCENARIO.__class__(a=0.4, b=math.pi / 2, d=2.0, V_F=0.9,
                                  V_L=0.1, Omega_F=math.pi / 3, Omega_L=2.2)
    if kind == "overflow":
        v = sinusoid(0.05, sys.float_info.max / t_bad)
    else:
        v = sinusoid(*_crossing(sc.V_L, t_bad))
    spin = LeaderProfile(v, constant(2.0))
    message = _oracle_error(
        lambda: simulate_basic(sc, GainMatrix(0.0, 0.0, 0.0), spin,
                               (0.0, 0.0, 0.0), T=3.0, dt=dt),
        monkeypatch)
    assert re.search(match, message), message


def test_chain_run_holds_little_beyond_its_traces():
    """The integrator works in blocks, so a 10 s run on the demo chain peaks
    within 1 MB + 10 % of what its traces keep: the traces of a run that
    held a whole run's samples and stage inputs at once would not."""
    b = BUNDLES["chain"]

    def run(T):
        return simulate_chain(b.scenario, REF_GAINS_CHAIN, b.profile, b.s0, T=T)

    # tracemalloc looks up the line of every allocation.  CPython 3.11 keeps
    # a code object's line array, which makes that lookup cheap, once a
    # profile function has seen it run: the traced run then takes under a
    # second, not 20 s.  The warm-up also compiles the generated loop.
    sys.setprofile(lambda *args: None)
    try:
        run(0.01)
    finally:
        sys.setprofile(None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traces = run(10.0)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(traces[0].times) == 10001
    assert peak <= 1.1 * kept + 1e6, (peak, kept)


# ----------------------------------------------------------------------
# certificate => nonlinear simulation (end-to-end absorption check)
# ----------------------------------------------------------------------


def test_certified_gains_survive_nonlinear_runs(rnd):
    from conftest import random_basic_scenario
    from viskeep.scenarios import build_basic_system, gain_polytope
    from viskeep.systems import check_D_invariant_cone

    for i in range(50):
        sc = random_basic_scenario(rnd, want_feasible=True)
        res = min_norm_gain(gain_polytope(sc))
        sysd = build_basic_system(sc)
        assert check_D_invariant_cone(sysd, GainMatrix(*res.exact_gain)).holds
        profile = LeaderProfile(
            sinusoid(rnd.uniform(0.2, 0.9) * sc.V_L, rnd.uniform(0.3, 2.0)),
            random_hold(rnd.uniform(0.2, 0.9) * sc.Omega_L, 0.5, seed=i),
        )
        s0 = (
            rnd.uniform(-0.9, 0.9) * sc.a,
            rnd.uniform(-0.9, 0.9) * sc.a,
            rnd.uniform(-0.9, 0.9) * sc.b,
        )
        trace = simulate_basic(sc, res.gain, profile, s0, T=30.0, dt=2e-3)
        rep = monitor(trace, sysd.S, sysd.U)
        assert rep.clean, f"scenario {i}: {rep.max_excess}"
        assert trace.clamp_events == 0


# ----------------------------------------------------------------------
# monitoring and files
# ----------------------------------------------------------------------


def test_monitor_flags_injected_spike():
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL,
                           (0, 0, 0), T=1.0, dt=1e-3)
    trace.states[500, 1] = 0.45  # beyond the window half-width 0.4
    sysd = build_basic_system(BASIC_SCENARIO)
    rep = monitor(trace, sysd.S, sysd.U)
    assert not rep.clean
    assert rep.first_violation_time == pytest.approx(0.5)
    assert rep.max_excess["p2"] == pytest.approx(0.05)


def test_monitor_boundary_touch_is_clean():
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL,
                           (0, 0, 0), T=0.01, dt=1e-3)
    trace.states[3, 0] = 0.4  # exactly on the face
    sysd = build_basic_system(BASIC_SCENARIO)
    assert monitor(trace, sysd.S, sysd.U).clean


def test_monitor_counts_non_finite_samples():
    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL,
                           (0, 0, 0), T=0.01, dt=1e-3)
    trace.states[4, 2] = math.nan
    trace.inputs[6, 0] = math.inf
    sysd = build_basic_system(BASIC_SCENARIO)
    rep = monitor(trace, sysd.S, sysd.U)
    assert not rep.clean
    assert len(rep.state_violations) == 1 and len(rep.input_violations) == 1
    assert rep.first_violation_time == pytest.approx(0.004)
    assert rep.max_excess["beta"] == math.inf


def _reference_csv(trace) -> bytes:
    """Per-cell writer that `SimTrace.to_csv` must match byte for byte:
    every value ``"%.12g" % x``, and hF and hL blank when the run has no
    noise."""
    noise = trace.noise if trace.noise is not None else [None] * len(trace.times)
    lines = [",".join(trace.CSV_COLUMNS)]
    for t, s, u, d, h, pf, pl in zip(trace.times, trace.states, trace.inputs,
                                     trace.leader, noise, trace.pose_f,
                                     trace.pose_l):
        cells = ["%.12g" % x for x in (t, *s, *u, *d)]
        cells += ["", ""] if h is None else ["%.12g" % x for x in h]
        cells += ["%.12g" % x for x in (*pf, *pl)]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def test_csv_matches_reference_writer(tmp_path):
    """Every demo family's trace: basic, ubb with noise, circle, the three
    links of the chain, and a diverged basic run whose non-finite state and
    input cells are written as nan and inf, not dropped."""
    basic = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=2.0, dt=1e-3)
    ubb = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                       uniform_noise(0.1, 0.1, seed=3), UBB_S0, T=2.0, dt=1e-3)
    circle = simulate_circle(CIRCLE_SCENARIO, REF_GAIN_CIRCLE, CIRCLE_PROFILE,
                             CIRCLE_S0, T=2.0, dt=1e-3)
    chain = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                           CHAIN_S0, T=2.0, dt=1e-3)
    diverged = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                              BASIC_S0, T=0.01, dt=1e-3)
    diverged.states[4, 2] = math.nan
    diverged.states[5, 0] = -math.inf
    diverged.inputs[6, 0] = math.inf
    for trace in (basic, ubb, circle, *chain, diverged):
        trace.to_csv(tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == _reference_csv(trace)
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert lines[5].split(",")[3] == "nan" and lines[7].split(",")[4] == "inf"
    assert lines[6].split(",")[1] == "-inf"


def _percent_g_rows(values, blank) -> bytes:
    return "".join(
        ",".join("" if b else "%.12g" % x for x, b in zip(row, blank)) + "\n"
        for row in values.tolist()
    ).encode()


def _ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


CSV_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    *_ulps(1e-4), 9.9999999999995e-05, 999999999999.5, 1e12,
    123456789012.5, 123456789013.5, 99999999999.95, 0.00012345678901235,
    *(y for k in range(-5, 13) for y in _ulps(float(f"1e{k}"))),
]


def test_format_csv_rows_edge_cases():
    """Each edge value and its negative, four to a row, cell for cell as
    ``"%.12g" % x``; a row of 16 cells with blank hF and hL keeps their
    commas."""
    cells = np.array(CSV_EDGES + [-x for x in CSV_EDGES])
    cells = np.resize(cells, (len(cells) + 3) // 4 * 4).reshape(-1, 4)
    for blank in ([False] * 4, [False, True, False, True]):
        assert tracecsv.CsvWorkspace(cells.size).format(cells, blank) == \
            _percent_g_rows(cells, blank)
    row = np.arange(16) * 1.5 - 3
    blank = np.zeros(16, bool)
    blank[8:10] = True
    assert tracecsv.CsvWorkspace(row.size).format(row[None], blank) == \
        b"-3,-1.5,0,1.5,3,4.5,6,7.5,,,12,13.5,15,16.5,18,19.5\n"


def _ties():
    """Values on or next to a rounding tie of the 12th digit: k + 0.5 is an
    exact tie for 12-digit k, and a 13-digit decimal ending in 5 lands just
    beside one, at any exponent."""
    k = st.integers(10 ** 11, 10 ** 12 - 1)
    return st.one_of(
        k.map(lambda k: k + 0.5),
        st.builds(lambda k, j: float(f"{k}5e{j}"), k, st.integers(-20, 5)),
    )


_CSV_CELLS = st.one_of(st.floats(), st.floats(1e-5, 1e13),
                       st.floats(-1e13, -1e-5), _ties())


@settings(max_examples=400, deadline=None, database=None)
@given(st.integers(1, 16).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(_CSV_CELLS, min_size=cols, max_size=cols),
             min_size=1, max_size=8),
    st.lists(st.booleans(), min_size=cols, max_size=cols))))
def test_format_csv_rows_matches_percent_g(table):
    """Over the whole float range, nan and the infinities included, every
    cell of the array writer is ``"%.12g" % x`` and a blank column is
    empty."""
    rows, blank = table
    values = np.array(rows, dtype=np.float64)
    assert tracecsv.CsvWorkspace(values.size).format(values, blank) == \
        _percent_g_rows(values, blank)



@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(1, 16).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(_CSV_CELLS, min_size=cols, max_size=cols),
             min_size=1, max_size=8),
    st.lists(st.booleans(), min_size=cols, max_size=cols))),
    min_size=2, max_size=5))
def test_csv_workspace_reuse_matches_percent_g(tables):
    """One workspace formats a run of arrays of varying shapes and blank
    masks, larger and smaller in turn, each as ``"%.12g" % x`` with no cell
    of an earlier array left over."""
    workspace = tracecsv.CsvWorkspace(8 * 16)
    for rows, blank in tables:
        values = np.array(rows, dtype=np.float64)
        assert workspace.format(values, blank) == _percent_g_rows(values, blank)


def _head(trace, rows):
    """A copy of the first `rows` samples of `trace`."""
    return dataclasses.replace(trace, **{
        name: None if getattr(trace, name) is None
        else getattr(trace, name)[:rows].copy()
        for name in ("times", "states", "inputs", "leader", "pose_f",
                     "pose_l", "noise")})


def test_csv_chunks_leave_no_stale_cells(tmp_path):
    """Traces of 2, 1,024, 1,025 and 2,049 rows, written back to back with
    and without noise in turn, so the blank hF and hL columns flip, each
    match the reference writer byte for byte.  The first chunk holds cells
    that only the ``%.12g`` fallback writes (nan, -inf, -0.0, 0, 1e-5) in
    rows past the length of the last, partial chunk, and none of them
    reappears there."""
    plain = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=2.048, dt=1e-3)
    noisy = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                         uniform_noise(0.1, 0.1, seed=3), UBB_S0, T=2.048,
                         dt=1e-3)
    edges = np.array([math.nan, -math.inf, -0.0, 0.0, 1e-5])[:, None]
    for rows, source in zip((2, 1024, 1025, 2049), (noisy, plain, noisy, plain)):
        trace = _head(source, rows)
        for part in (trace.states, trace.inputs, trace.pose_l, trace.noise):
            if part is not None and rows > 600:
                part[600:605] = edges
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == _reference_csv(trace)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_csv_writes_a_long_trace_with_few_page_faults(tmp_path):
    """A 30,001-row trace (the basic bundle for 300 s at dt = 1e-2) is
    formatted in one workspace, not in buffers allocated and handed back to
    the kernel once per 1,024-row chunk: its second write makes fewer than
    3,000 minor page faults, where per-chunk buffers made about 19,400."""
    import resource

    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=300.0, dt=1e-2)
    assert len(trace.times) == 30001
    trace.to_csv(tmp_path / "trace.csv")  # loads the formatter
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trace.to_csv(tmp_path / "trace.csv")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 3000, faults


def test_csv_output(tmp_path):
    trace = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE, None,
                         UBB_S0, T=0.05, dt=1e-3, seed=1)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,dp1,p2,beta,vF,wF,vL,wL,hF,hL,xF,yF,thF,xL,yL,thL"
    assert len(lines) == 52
    assert lines[1].split(",")[8] != ""  # noise recorded

    plain = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, STILL, (0, 0, 0),
                           T=0.01, dt=1e-3)
    plain.to_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[8] == "" and row[9] == ""  # absent signals stay blank
