import math
import random

import numpy as np
import pytest

from viskeep import simulate
from viskeep.boxes import Box
from viskeep.chains import ChainSpec
from viskeep.demos import (
    BASIC_PROFILE,
    BASIC_S0,
    BASIC_SCENARIO,
    CHAIN_PROFILE,
    CHAIN_S0,
    CHAIN_SPEC,
    CIRCLE_PROFILE,
    CIRCLE_S0,
    CIRCLE_SCENARIO,
    REF_GAIN_BASIC,
    REF_GAIN_CIRCLE,
    REF_GAIN_UBB,
    REF_GAINS_CHAIN,
    UBB_PROFILE,
    UBB_S0,
    UBB_SCENARIO,
    bundle,
)
from viskeep.scenarios import (
    build_basic_system,
    build_circle_system,
    build_ubb_system,
    gain_polytope_ubb,
)
from viskeep.simulate import (
    LeaderProfile,
    constant,
    constant_noise,
    monitor,
    profile_from_json_dict,
    random_hold,
    reconstruct_relative,
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

from conftest import integrate_oracle

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
    monkeypatch.setattr(simulate.random, "Random", Counting)
    simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, profile, (0.0, 0.0, 0.0),
                   T=3.0, dt=1e-3)
    assert 1 <= len(built) <= 7  # hold intervals 0..6 of the 3 s run


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


def test_zero_noise_matches_plain_run():
    plain = simulate_basic(
        BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE, BASIC_S0,
        T=3.0, dt=1e-3,
    )
    quiet_sc = UBB_SCENARIO.__class__(
        a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
        Omega_F=math.pi / 3, Omega_L=math.pi / 15, H_F=0.0, H_L=0.0,
    )
    noisy = simulate_ubb(quiet_sc, REF_GAIN_BASIC, BASIC_PROFILE,
                         constant_noise(0.0, 0.0), BASIC_S0, T=3.0, dt=1e-3)
    assert np.array_equal(plain.states, noisy.states)
    assert np.array_equal(plain.pose_l, noisy.pose_l)


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
    b = bundle(name)
    if name == "chain":
        gains = [_synth_gain(b.scenario.link_scenario(k))
                 for k in range(1, b.scenario.n)]
        return lambda: simulate_chain(b.scenario, gains, b.profile, b.s0, T=2.0)
    K = _synth_gain(b.scenario)
    return lambda: [b.scenario.simulate(K, b.profile, b.s0, 2.0, 1e-3,
                                        b.noise_amplitude, 0)]


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


INTEGRATOR_CASES = {
    **{name: lambda name=name: _demo_run(name)
       for name in ("basic", "ubb", "circle", "chain")},
    **{f"chain-{n}": lambda n=n: _chain_run(n) for n in (1, 2, 3, 4)},
    "clamped": lambda: _pair_run(GainMatrix(9.0, 7.0, 5.0), BASIC_PROFILE),
    "clamped-turn": lambda: _pair_run(GainMatrix(1.0, 9.0, 7.0), BASIC_PROFILE),
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
        for name in ("times", "states", "inputs", "leader", "noise",
                     "pose_f", "pose_l"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if x is not None:
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert (a.clamp_events, a.meta) == (b.clamp_events, b.meta)
    if case.startswith("clamped"):
        assert fast[0].clamp_events > 0
    if case == "ubb":
        assert fast[0].noise is not None


def _wrap_run():
    sc = BASIC_SCENARIO.__class__(a=0.4, b=math.pi / 2, d=2.0, V_F=0.9,
                                  V_L=0.1, Omega_F=math.pi / 3, Omega_L=2.2)
    spin = LeaderProfile(constant(0.0), constant(2.0))
    return simulate_basic(sc, GainMatrix(0.0, 0.0, 0.0), spin, (0, 0, 0),
                          T=3.0)


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
    (_chain_wrap_run, "on link 2 at t="),
    (_bound_run, "exceeds its bound: \\|v\\(0.52"),
], ids=["wrap", "chain-wrap", "profile-bound"])
def test_generated_integrator_raises_like_plain_loop(run, match, monkeypatch):
    messages = []
    for integrate in (simulate._integrate, integrate_oracle):
        monkeypatch.setattr(simulate, "_integrate", integrate)
        with pytest.raises(ValueError, match=match) as exc:
            run()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


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
        assert check_D_invariant_cone(sysd, GainMatrix(*res.exact_gain), 1).holds
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


def _reference_csv(trace, path):
    """Per-cell writer that `SimTrace.to_csv` must match byte for byte."""
    blank = np.full((len(trace.times), 2), np.nan)
    noise = trace.noise if trace.noise is not None else blank
    data = np.column_stack([
        trace.times, trace.states, trace.inputs, trace.leader, noise,
        trace.pose_f, trace.pose_l,
    ])
    with open(path, "w") as fh:
        fh.write(",".join(trace.CSV_COLUMNS) + "\n")
        for row in data:
            fh.write(",".join(
                "" if math.isnan(x) else f"{x:.12g}" for x in row
            ) + "\n")


def test_csv_matches_reference_writer(tmp_path):
    basic = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=2.0, dt=1e-3)
    ubb = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                       uniform_noise(0.1, 0.1, seed=3), UBB_S0, T=2.0, dt=1e-3)
    for trace in (basic, ubb):
        trace.to_csv(tmp_path / "new.csv")
        _reference_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


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
