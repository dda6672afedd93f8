import math
import random
from fractions import Fraction

import numpy as np
import pytest

from viskeep.boxes import Box
from viskeep.demos import BUNDLES
from viskeep.scenarios import BasicScenario, build_basic_system, gain_polytope
from viskeep.synthesis import min_norm_gain
from viskeep.systems import (
    CertificateReport,
    GainMatrix,
    UncertainLinearSystem,
    Violation,
    check_admissible,
    check_D_invariant_cone,
    check_D_invariant_euler,
    closed_loop,
    eval_matrices,
    simulate_linear_switching,
    _mat,
    _zeros,
)

F = Fraction

WINDOW = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                       Omega_F=math.pi / 3, Omega_L=math.pi / 15)
REF_GAIN = GainMatrix(1.5173, 0.3707, 0.4925)


def synthesized_gain(sc=WINDOW):
    return GainMatrix(*min_norm_gain(gain_polytope(sc)).exact_gain)


def toy_system(A0, l=1, p=0, E0=None):
    """3-state, 2-input family with constant matrices."""
    n = 3
    E0 = E0 if E0 is not None else _zeros(n, l)
    return UncertainLinearSystem(
        n=n, m=2, l=l, p=p,
        A=( _mat(A0), ) + tuple(_zeros(n, n) for _ in range(p)),
        B=( _zeros(n, 2), ) + tuple(_zeros(n, 2) for _ in range(p)),
        E=( E0, ) + tuple(_zeros(n, l) for _ in range(p)),
        S=Box.symmetric((1, 1, 1)),
        U=Box.symmetric((1, 1)),
        D=Box.symmetric([1] * l),
        Q=Box.from_bounds([(-1, 1)] * p),
    )


# ----------------------------------------------------------------------
# matrix family evaluation
# ----------------------------------------------------------------------


def test_eval_at_origin_gives_constant_part():
    sysd = build_basic_system(WINDOW)
    A, B, E = eval_matrices(sysd, (0,) * 6)
    assert A == _mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert B == _mat([[-1, 0], [0, -2], [0, -1]])
    assert E == _mat([[1, 0], [0, 0], [0, 1]])


def test_eval_standoff_coupling():
    sysd = build_basic_system(WINDOW)
    q = (0, 0, F(2, 5), 0, 0, 0)  # third parameter at the window edge
    _, B, _ = eval_matrices(sysd, q)
    assert B[1][1] == -(F(2) + F(2, 5))


def test_eval_dimension_mismatch():
    sysd = build_basic_system(WINDOW)
    with pytest.raises(ValueError):
        eval_matrices(sysd, (0, 0))


def test_eval_warns_outside_parameter_box():
    sysd = build_basic_system(WINDOW)
    with pytest.warns(UserWarning):
        eval_matrices(sysd, (5, 0, 0, 0, 0, 0))


def test_closed_loop_zero_gain_is_open_loop():
    sysd = build_basic_system(WINDOW)
    Fq = closed_loop(sysd, GainMatrix(F(0), F(0), F(0)))
    q = (F(1, 100),) * 6
    assert Fq(q) == sysd.eval_A(q)


def test_closed_loop_entry():
    sysd = build_basic_system(WINDOW)
    Fq = closed_loop(sysd, REF_GAIN)
    F0 = Fq((0,) * 6)
    assert F0[0][0] == pytest.approx(-1.5173)
    assert F0[2][1] == pytest.approx(-0.3707)


def test_closed_loop_zero_input_matrix():
    sysd = toy_system([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    Fq = closed_loop(sysd, GainMatrix(F(3), F(-2), F(1)))
    assert Fq(()) == _zeros(3, 3)


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------


def test_zero_gain_admissible():
    rep = check_admissible(GainMatrix(F(0), F(0), F(0)),
                           Box.symmetric((1, 2, 3)), Box.symmetric((1, 1)))
    assert rep.holds and rep.violations == ()


def test_reference_gain_admissible_for_window():
    sysd = build_basic_system(WINDOW)
    assert check_admissible(REF_GAIN, sysd.S, sysd.U).holds


def test_oversized_gain_violates_speed_bound():
    sysd = build_basic_system(WINDOW)
    rep = check_admissible(GainMatrix(3.0, 0.37, 0.49), sysd.S, sysd.U)
    assert not rep.holds
    assert any(v.row.startswith("u[0]") for v in rep.violations)


def test_certificate_report_serialization():
    sysd = build_basic_system(WINDOW)
    rep = check_admissible(GainMatrix(3.0, 0.37, 0.49), sysd.S, sysd.U)
    text = rep.to_text()
    assert "FAILS" in text and "u[0]" in text
    csv = rep.to_csv().splitlines()
    assert csv[0] == "vertex,q_vertex,d_vertex,row,slack"
    assert len(csv) == 1 + len(rep.violations)
    ok = check_admissible(GainMatrix(0.0, 0.0, 0.0), sysd.S, sysd.U)
    assert "HOLDS" in ok.to_text()
    with pytest.raises(ValueError):
        CertificateReport(holds=True, violations=ok.violations[:0] + (
            Violation((0,), None, None, "x", -1.0),))


# ----------------------------------------------------------------------
# invariance certificates
# ----------------------------------------------------------------------


def test_contraction_passes_both_certificates():
    sysd = toy_system([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    K = GainMatrix(F(0), F(0), F(0))
    assert check_D_invariant_euler(sysd, K, 1).holds
    assert check_D_invariant_cone(sysd, K, 1).holds


def test_expansion_fails_both_certificates():
    sysd = toy_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    K = GainMatrix(F(0), F(0), F(0))
    euler = check_D_invariant_euler(sysd, K, F(1, 2))
    cone = check_D_invariant_cone(sysd, K, F(1, 2))
    assert not euler.holds and not cone.holds
    assert len(euler.violations) > 0


def test_window_gain_cone_certificate_exact():
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain()
    rep = check_D_invariant_cone(sysd, K, 1)
    assert rep.exact and rep.holds


def test_window_one_step_certificate_small_tau():
    # the one-step form needs a small enough step; the cone form does not
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain()
    assert check_D_invariant_euler(sysd, K, F(1, 2)).holds
    assert not check_D_invariant_euler(sysd, K, 1).holds
    assert check_D_invariant_cone(sysd, K, 1).holds


def test_dropping_heading_gain_breaks_invariance():
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain()
    K0 = GainMatrix(K.k11, K.k22, F(0))
    rep = check_D_invariant_cone(sysd, K0, 1)
    assert not rep.holds
    assert any(v.row == "cone row 2" for v in rep.violations)


from conftest import cone_certificate_oracle
from conftest import random_moderate_system as _random_moderate_system


def test_one_step_and_cone_agree_on_moderate_rates(rnd):
    for _ in range(60):
        sysd, K = _random_moderate_system(rnd)
        euler = check_D_invariant_euler(sysd, K, 1.0)
        cone = check_D_invariant_cone(sysd, K, 1.0)
        assert euler.holds == cone.holds


def test_enlarging_disturbance_never_rescues(rnd):
    for _ in range(25):
        sysd, K = _random_moderate_system(rnd)
        if check_D_invariant_cone(sysd, K, 1.0).holds:
            continue
        bigger = UncertainLinearSystem(
            n=3, m=2, l=2, p=3,
            A=sysd.A, B=sysd.B, E=sysd.E,
            S=sysd.S, U=sysd.U, D=sysd.D.scaled(2), Q=sysd.Q,
        )
        assert not check_D_invariant_cone(bigger, K, 1.0).holds


def test_cone_verdict_independent_of_tau_without_disturbance(rnd):
    for _ in range(20):
        sysd, K = _random_moderate_system(rnd)
        quiet = UncertainLinearSystem(
            n=3, m=2, l=2, p=3,
            A=sysd.A, B=sysd.B,
            E=tuple(_zeros(3, 2) for _ in range(4)),
            S=sysd.S, U=sysd.U, D=sysd.D, Q=sysd.Q,
        )
        verdicts = {
            check_D_invariant_cone(quiet, K, tau).holds
            for tau in (0.1, 1.0, 10.0)
        }
        assert len(verdicts) == 1


def test_cone_certificate_matches_full_product_oracle(rnd):
    """Reports byte-equal to the full ``F(w) v`` product over the bundle
    systems and random systems, for exact and float gains that hold or
    fail and for exact and float tau."""
    pairs = [_random_moderate_system(rnd) for _ in range(4)]
    bundles = [b.scenario for b in BUNDLES if b.name != "chain"]
    systems = [sc.system() for sc in bundles] + [sysd for sysd, _ in pairs]
    gains = [GainMatrix(F(0), F(0), F(0))] + [K for _, K in pairs]
    for sc in bundles:
        res = min_norm_gain(sc.polytope())
        gains += [GainMatrix(*res.exact_gain), res.gain]
    assert len(gains) == 11
    verdicts = set()
    for sysd in systems:
        for K in gains:
            for tau in (F(1), F(1, 2), 0.25):
                want = cone_certificate_oracle(sysd, K, tau)
                got = check_D_invariant_cone(sysd, K, tau)
                assert repr(got) == repr(want)
                assert got.to_text() == want.to_text()
                assert got.to_csv() == want.to_csv()
                verdicts.add((got.holds, got.exact))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


# ----------------------------------------------------------------------
# linear switching oracle
# ----------------------------------------------------------------------


def test_taylor_step_matches_rk4_on_linear_segment():
    rng = np.random.default_rng(3)
    Fm = rng.uniform(-1, 1, (3, 3))
    c = rng.uniform(-1, 1, 3)
    dt = 1e-3
    x = rng.uniform(-1, 1, 3)
    # literal RK4
    f = lambda y: Fm @ y + c
    k1 = f(x)
    k2 = f(x + dt / 2 * k1)
    k3 = f(x + dt / 2 * k2)
    k4 = f(x + dt * k3)
    rk4 = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    dtF = dt * Fm
    phi = np.eye(3) + dtF + dtF @ dtF / 2 + dtF @ dtF @ dtF / 6 \
        + dtF @ dtF @ dtF @ dtF / 24
    psi = dt * (np.eye(3) + dtF / 2 + dtF @ dtF / 6 + dtF @ dtF @ dtF / 24) @ c
    taylor = phi @ x + psi
    assert np.max(np.abs(rk4 - taylor)) < 1e-15


def test_certified_window_gain_survives_linear_switching():
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain().as_floats()
    ok, excess = simulate_linear_switching(
        sysd, K, n_runs=40, horizon=8.0, dt=1e-3, dwell=0.1, seed=11,
    )
    assert ok, f"excess {excess}"


def test_linear_switching_detects_unstable_loop():
    sysd = toy_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ok, excess = simulate_linear_switching(
        sysd, GainMatrix(0.0, 0.0, 0.0), n_runs=10, horizon=3.0,
        dt=1e-3, dwell=0.1, seed=1,
    )
    assert not ok and excess > 1e-3
