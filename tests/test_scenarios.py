import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from viskeep import scenarios
from viskeep.inequalities import LinearInequalitySystem, Row, rationalize
from viskeep.scenarios import (
    BasicScenario,
    CircleScenario,
    UbbScenario,
    build_basic_system,
    build_circle_system,
    build_ubb_system,
    derive_conditions_fme,
    exact_constants,
    feasible_basic,
    feasible_circle,
    feasible_ubb,
    gain_polytope,
    gain_polytope_circle,
    gain_polytope_ubb,
    load_scenario,
    rationalization_record,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from viskeep.boxes import shifted_cone
from viskeep.demos import (
    BASIC_PROFILE,
    BASIC_S0,
    BUNDLES,
    CHAIN_SPEC,
    CIRCLE_SCENARIO,
    DEFAULT_DT,
    UBB_SCENARIO,
)
from viskeep.simulate import simulate_basic, simulate_ubb
from viskeep.synthesis import min_norm_gain
from viskeep.systems import (
    GainMatrix,
    _relevant_params,
    check_admissible,
    check_D_invariant_cone,
)

from conftest import (
    affine,
    family_polytope,
    integer_E,
    normalized_key,
    random_basic_scenario,
    shifted_cone_oracle,
    shifted_planes_oracle,
    sub_vertices,
    tau_cones,
    vertex_cone_oracle,
)

F = Fraction

WINDOW = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                       Omega_F=math.pi / 3, Omega_L=math.pi / 15)
DISTURBED = UbbScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.95, V_L=0.03,
                        Omega_F=math.pi / 4, Omega_L=math.pi / 18,
                        H_F=0.12, H_L=0.12)
ORBIT = CircleScenario(a=0.4, b=math.pi / 4, gamma=math.pi / 6, rho=0.3,
                       V_F=0.8, V_L=0.06, Omega_F=math.pi / 3,
                       Omega_L=math.pi / 25)
REF_GAIN = (1.5173, 0.3707, 0.4925)
REF_GAIN_UBB = (1.6735, 0.5896, 0.5326)


def row_keys(system):
    return {normalized_key(r) for r in system.rows}


# ----------------------------------------------------------------------
# scenario invariants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(a=-0.1), dict(d=0.3), dict(b=2.0), dict(V_F=1.2), dict(V_L=0.0),
    dict(Omega_F=0.0),
])
def test_basic_invariants(bad):
    args = dict(a=0.4, b=0.7, d=2.0, V_F=0.9, V_L=0.1, Omega_F=1.0,
                Omega_L=0.2)
    args.update(bad)
    with pytest.raises(ValueError):
        BasicScenario(**args)


def test_circle_hypothesis_violation_raises():
    with pytest.raises(ValueError):
        CircleScenario(a=0.5, b=math.pi / 4, gamma=math.pi / 6, rho=0.3,
                       V_F=0.8, V_L=0.06, Omega_F=1.0, Omega_L=0.1)


def test_circle_parameter_box_must_hold_the_origin():
    """A window wider than twice its bearing is rejected when it is made,
    in floats, and its exact box, which the system is built from, misses
    the origin on the same intervals."""
    wide = dict(a=0.1, b=1.0, gamma=0.2, rho=0.1, V_F=0.9, V_L=0.1,
                Omega_F=1.0, Omega_L=0.05)
    message = r"misses the origin: q1 ranges over \[.*\], q5 ranges over"
    with pytest.raises(ValueError, match=message):
        CircleScenario(**wide)
    floats = {**CircleScenario.derived(SimpleNamespace(**wide)), **wide}
    exact = SimpleNamespace(**{k: rationalize(v) for k, v in floats.items()})
    with pytest.raises(ValueError, match=message):
        scenarios._circle_q(exact)
    assert scenarios._circle_q(exact_constants(ORBIT)).contains_origin()


def test_circle_hypothesis_margin():
    # 1 - cos(pi/6) = 0.1340 > rho * a = 0.12 makes the orbit constructible
    assert 1 - math.cos(ORBIT.gamma) == pytest.approx(0.13397, abs=1e-5)
    assert 1 - math.cos(ORBIT.gamma) > ORBIT.rho * ORBIT.a


# ----------------------------------------------------------------------
# system builders
# ----------------------------------------------------------------------


def test_basic_parameter_box_endpoint():
    sysd = build_basic_system(WINDOW)
    assert float(sysd.Q.lo[0]) == pytest.approx(-0.0996837, abs=1e-6)
    assert sysd.Q.hi[0] == 0
    assert sysd.Q.lo[2] == -sysd.Q.hi[2]


def test_basic_standoff_entry():
    sysd = build_basic_system(WINDOW)
    assert sysd.B[0][1][1] == F(-2)


def test_ubb_disturbance_channels():
    sysd = build_ubb_system(DISTURBED)
    assert sysd.l == 4
    assert sysd.E[0] == (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(0), F(-1), F(1)),
        (F(0), F(1), F(0), F(0)),
    )
    assert float(sysd.D.hi[2]) == pytest.approx(0.12)


def test_circle_system_rotation_terms():
    sysd = build_circle_system(ORBIT)
    A0 = sysd.A[0]
    assert float(A0[0][1]) == pytest.approx(0.3)
    assert float(A0[1][0]) == pytest.approx(-0.3)
    assert float(A0[1][2]) == pytest.approx(math.cos(math.pi / 6))
    assert float(sysd.B[0][0][1]) == pytest.approx(
        (1 - math.cos(math.pi / 6)) / 0.3
    )


def test_rationalization_is_recorded():
    rec = rationalization_record(exact_constants(WINDOW))
    assert rec["a"] == "2/5"
    assert "/" in rec["sin_b"]


# ----------------------------------------------------------------------
# closed-form conditions
# ----------------------------------------------------------------------


def test_window_conditions_and_margins():
    rep = feasible_basic(WINDOW)
    assert rep.feasible
    by = {c.condition: c for c in rep.conditions}
    assert by["follower_speed"].rhs == pytest.approx(0.6069204, abs=1e-6)
    assert by["leader_turn_rate"].rhs == pytest.approx(0.2651650, abs=1e-6)
    assert by["follower_turn_rate"].rhs == pytest.approx(0.5350680, abs=1e-6)


def test_slow_follower_infeasible():
    sc = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.05, V_L=0.5,
                       Omega_F=math.pi / 3, Omega_L=math.pi / 15)
    rep = feasible_basic(sc)
    assert not rep.feasible
    assert rep.margin("follower_speed") < 0


def test_fast_leader_turn_infeasible():
    sc = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                       Omega_F=math.pi / 3, Omega_L=0.27)
    rep = feasible_basic(sc)
    assert not rep.feasible
    assert rep.margin("leader_turn_rate") < 0


def test_disturbed_conditions():
    assert feasible_ubb(DISTURBED).feasible


def test_zero_disturbance_reduces_to_basic(tmp_path):
    quiet = UbbScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                        Omega_F=math.pi / 3, Omega_L=math.pi / 15,
                        H_F=0.0, H_L=0.0)
    base = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                         Omega_F=math.pi / 3, Omega_L=math.pi / 15)
    ru, rb = feasible_ubb(quiet), feasible_basic(base)
    for cu, cb in zip(ru.conditions, rb.conditions):
        assert cu.rhs == cb.rhs and cu.slack == cb.slack
    # the ubb run draws its zero noise, the basic run draws none: the same
    # states and poses bit for bit, and CSVs apart only in the hF and hL
    # cells, 0 against blank
    K = GainMatrix(*REF_GAIN)
    noisy = simulate_ubb(quiet, K, BASIC_PROFILE, None, BASIC_S0, T=5.0,
                         dt=DEFAULT_DT)
    plain = simulate_basic(base, K, BASIC_PROFILE, BASIC_S0, T=5.0,
                           dt=DEFAULT_DT)
    for name in ("states", "pose_f"):
        assert getattr(noisy, name).tobytes() == getattr(plain, name).tobytes()
    noisy.to_csv(tmp_path / "ubb.csv")
    plain.to_csv(tmp_path / "basic.csv")
    ubb, basic = ([line.split(",") for line in (tmp_path / name).read_text()
                   .splitlines()] for name in ("ubb.csv", "basic.csv"))
    assert ubb[0] == basic[0] and len(ubb) == len(basic) == 502
    hf = noisy.CSV_COLUMNS.index("hF")
    for u, b in zip(ubb[1:], basic[1:]):
        assert (u[hf:hf + 2], b[hf:hf + 2]) == (["0", "0"], ["", ""])
        assert u[:hf] + u[hf + 2:] == b[:hf] + b[hf + 2:]


def test_disturbance_eating_the_margin():
    # amplitudes summing to (1 - V_L) sin b drive the leader turn bound to 0
    H = (1 - 0.03) * math.sin(math.pi / 4) / 2
    sc = UbbScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.95, V_L=0.03,
                     Omega_F=math.pi / 4, Omega_L=math.pi / 18, H_F=H, H_L=H)
    rep = feasible_ubb(sc)
    assert not rep.feasible
    assert rep.margin("leader_turn_rate") < 0
    by = {c.condition: c for c in rep.conditions}
    assert by["leader_turn_rate"].rhs == pytest.approx(0.0, abs=1e-15)


def test_orbit_conditions():
    rep = feasible_circle(ORBIT)
    assert rep.feasible
    by = {c.condition: c for c in rep.conditions}
    assert by["follower_speed"].rhs == pytest.approx(0.77326, abs=1e-4)
    assert by["leader_turn_rate"].rhs == pytest.approx(0.139340, abs=1e-5)
    assert by["follower_turn_rate"].rhs == pytest.approx(0.739559, abs=1e-5)


def test_basic_monotone_in_each_bound(rnd):
    for _ in range(20):
        sc = random_basic_scenario(rnd, want_feasible=True)
        easier = BasicScenario(
            a=sc.a, b=sc.b, d=sc.d,
            V_F=min(0.999, sc.V_F + 0.05), V_L=sc.V_L * 0.8,
            Omega_F=sc.Omega_F * 1.2, Omega_L=sc.Omega_L * 0.8,
        )
        assert feasible_basic(easier).feasible


# ----------------------------------------------------------------------
# gain polytopes
# ----------------------------------------------------------------------


def test_window_polytope_accepts_reference_gain():
    poly = gain_polytope(WINDOW)
    assert poly.satisfies(REF_GAIN, tol=1e-3)
    # two rows are only just met: the k11 floor is missed by ~2e-5
    assert not poly.satisfies(REF_GAIN, tol=1e-5)
    assert min(poly.slacks(REF_GAIN)) == pytest.approx(-2.16e-5, abs=4e-6)


def test_window_polytope_k11_floor():
    poly = gain_polytope(WINDOW)
    floor = max(
        float(
            (r.rhs - r.g[1] * F(REF_GAIN[1]) - r.g[2] * F(REF_GAIN[2]))
            / r.g[0]
        )
        for r in poly.rows
        if r.g[0] < 0
    )
    assert floor == pytest.approx(1.51732, abs=1e-4)


def test_admissibility_row_present_verbatim():
    poly = gain_polytope(WINDOW)
    c = exact_constants(WINDOW)
    assert Row((F(1), F(0), F(0)), c.V_F / c.a) in poly.rows


def test_saturated_leader_speed_empties_polytope():
    sc = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.999,
                       Omega_F=math.pi / 3, Omega_L=math.pi / 15)
    assert not gain_polytope(sc).is_feasible()


def test_pipeline_route_matches_family_route(rnd):
    """The one production route against the hand-expanded families, on
    feasible and infeasible windows and on every link of the demo chain."""
    cases = [WINDOW]
    cases += [random_basic_scenario(rnd, want_feasible=True) for _ in range(6)]
    cases += [random_basic_scenario(rnd, want_feasible=False) for _ in range(3)]
    cases += [CHAIN_SPEC.link_scenario(k) for k in range(1, CHAIN_SPEC.n)]
    assert len(cases) == 13
    for sc in cases:
        poly = gain_polytope(sc)
        assert row_keys(poly) == row_keys(family_polytope(sc))


def test_disturbed_polytope_accepts_reference_gain():
    poly = gain_polytope_ubb(DISTURBED)
    assert poly.satisfies(REF_GAIN_UBB, tol=5e-3)


def test_zero_disturbance_polytope_equals_window_polytope():
    quiet = UbbScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                        Omega_F=math.pi / 3, Omega_L=math.pi / 15,
                        H_F=0.0, H_L=0.0)
    base = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                         Omega_F=math.pi / 3, Omega_L=math.pi / 15)

    def canonical_reduce(poly):
        rows = sorted(poly.rows, key=lambda r: normalized_key(r))
        return LinearInequalitySystem(poly.num_vars, tuple(rows)).reduce()

    assert row_keys(canonical_reduce(gain_polytope_ubb(quiet))) == row_keys(
        canonical_reduce(gain_polytope(base))
    )


def test_polytope_membership_equals_certificates(rnd):
    cases = [
        (WINDOW, gain_polytope(WINDOW), build_basic_system(WINDOW)),
        (DISTURBED, gain_polytope_ubb(DISTURBED), build_ubb_system(DISTURBED)),
        (ORBIT, gain_polytope_circle(ORBIT), build_circle_system(ORBIT)),
    ]
    for _, poly, sysd in cases:
        for _ in range(25):
            K = GainMatrix(
                F(rnd.randint(-30, 30), 10),
                F(rnd.randint(-15, 15), 10),
                F(rnd.randint(-15, 15), 10),
            )
            member = poly.satisfies(K.entries())
            cert = (
                check_admissible(K, sysd.S, sysd.U).holds
                and check_D_invariant_cone(sysd, K).holds
            )
            assert member == cert


def test_polytope_sample_gains_are_certified(rnd):
    # rejection sampling from the polytope bounding box
    poly = gain_polytope(WINDOW)
    sysd = build_basic_system(WINDOW)
    c = exact_constants(WINDOW)
    box = (c.V_F / c.a, c.Omega_F / c.a, c.Omega_F / c.a * c.a / c.b)
    hits = 0
    for _ in range(6000):
        K = GainMatrix(*(
            F(rnd.randint(0, 100), 100) * hw for hw in box
        ))
        if not poly.satisfies(K.entries()):
            continue
        hits += 1
        assert check_admissible(K, sysd.S, sysd.U).holds
        assert check_D_invariant_cone(sysd, K).holds
        if hits >= 8:
            break
    assert hits >= 5


def test_shifted_cone_needs_only_the_parameters_of_E():
    """The faces shifted once over E at the vertices of its parameters (4),
    as the gain rows take them, give at every window vertex the Fraction
    planes of that vertex's own cone shifted over all 64 parameter
    vertices, row for row."""
    basic = BUNDLES["basic"].scenario
    for sysd in (build_basic_system(basic), build_ubb_system(UBB_SCENARIO),
                 build_circle_system(CIRCLE_SCENARIO)):
        e_vertices = list(sub_vertices(sysd.Q, _relevant_params(sysd.E)))
        assert len(e_vertices) == 4 and len(sysd.Q.vertices()) == 64
        E_all = [affine(sysd.E, w) for w in sysd.Q.vertices()]
        E_rows, den = integer_E([affine(sysd.E, w) for w in e_vertices])
        assert shifted_cone(sysd.S, E_rows, den, sysd.D) \
            == shifted_cone_oracle(sysd.S, E_all, sysd.D)
        shared = list(tau_cones(sysd, 1))
        assert [v for v, _ in shared] == list(sysd.S.vertices())
        for v, faces in shared:
            full = shifted_planes_oracle(vertex_cone_oracle(sysd.S, v), E_all,
                                         sysd.D)
            assert [row for _, row in faces] == full


def test_orbit_polytope_is_certified_but_rejects_reference_gain():
    # The rejection is correct: the bundled reference gain is not a
    # solution of this scenario.  At the window corner (-a, -a, b), with the
    # leader on the orbit, its nonlinear field has ds1 = -0.166 and leaves
    # through the s1 = -a face (see criterion 3, circle).  The polytope is
    # nonempty and its members are certified.
    poly = gain_polytope_circle(ORBIT)
    assert poly.is_feasible()
    assert not poly.satisfies((1.3812, 0.6051, 0.5508), tol=5e-3)
    res = min_norm_gain(poly)
    sysd = build_circle_system(ORBIT)
    K = GainMatrix(*res.exact_gain)
    assert check_admissible(K, sysd.S, sysd.U).holds
    assert check_D_invariant_cone(sysd, K).holds


# ----------------------------------------------------------------------
# elimination cross-check
# ----------------------------------------------------------------------


def test_projection_agrees_with_conditions_quick(rnd):
    assert derive_conditions_fme(WINDOW) is True
    sc_bad = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.05, V_L=0.5,
                           Omega_F=math.pi / 3, Omega_L=math.pi / 15)
    assert derive_conditions_fme(sc_bad) is False
    for _ in range(15):
        sc = random_basic_scenario(rnd)
        assert derive_conditions_fme(sc) == feasible_basic(sc).feasible


def test_fme_check_needs_no_elimination(rnd, monkeypatch):
    """The projection check is settled by the exact simplex on the window
    and on random feasible and infeasible scenarios: a silent fall back to
    elimination fails here."""
    calls = []
    eliminate = LinearInequalitySystem.eliminate

    def counted(self, var):
        calls.append(var)
        return eliminate(self, var)

    cases = [WINDOW] + [random_basic_scenario(rnd, feasible)
                        for feasible in (True, False) for _ in range(8)]
    monkeypatch.setattr(LinearInequalitySystem, "eliminate", counted)
    for sc in cases:
        assert derive_conditions_fme(sc) == feasible_basic(sc).feasible
    assert calls == []


# ----------------------------------------------------------------------
# JSON files
# ----------------------------------------------------------------------


def test_scenario_json_round_trip(tmp_path):
    for sc in (WINDOW, DISTURBED, ORBIT):
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again == sc


def test_scenario_json_schema_fields():
    """ubb writes both noise amplitudes; basic, ubb with zero noise, writes
    neither."""
    data = scenario_to_json_dict(DISTURBED)
    assert data["type"] == "ubb"
    assert set(data) == {"type", "a", "b", "d", "V_F", "V_L", "Omega_F",
                         "Omega_L", "H_F", "H_L"}
    data = scenario_to_json_dict(WINDOW)
    assert data["type"] == "basic"
    assert set(data) == {"type", "a", "b", "d", "V_F", "V_L", "Omega_F",
                         "Omega_L"}


@pytest.mark.parametrize("key", ["H_F", "H_L"])
def test_basic_scenario_json_has_no_noise_field(key):
    """A basic scenario reads its zero amplitudes from its class, not from
    its JSON form, where either is an unknown field, as any other key."""
    data = {**scenario_to_json_dict(WINDOW), key: 0.0}
    with pytest.raises(ValueError) as exc:
        scenario_from_json_dict(data)
    assert str(exc.value) == f"unknown basic scenario field '{key}'"


def test_scenario_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        scenario_from_json_dict({"type": "hexagon", "a": 1})


def test_scenario_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        scenario_from_json_dict({"type": "basic", "a": 1})


@pytest.mark.parametrize("edit, message", [
    ({"Omega_F": math.inf},
     "ubb scenario needs a finite number for 'Omega_F', not inf"),
    ({"a": 10**401},
     "ubb scenario needs a finite number for 'a', not an int of 402 digits"),
    ({"a": True}, "ubb scenario needs a finite number for 'a', not True"),
    ({"H_F": "0.1"}, "ubb scenario needs a finite number for 'H_F', not '0.1'"),
    ({"type": list(range(3000))}, "unknown scenario type: a list of length 3000"),
    ({"x" * 3000: 1.0},
     "unknown ubb scenario field a str whose repr has 3002 characters"),
], ids=["inf", "huge-int", "bool", "text", "long-type", "long-field"])
def test_scenario_json_names_a_field_that_is_not_a_finite_number(edit, message):
    """Every field is a finite JSON number, not a bool: anything else is a
    ValueError that names the field, and a long value is shown by its type
    and size."""
    with pytest.raises(ValueError) as exc:
        scenario_from_json_dict({**scenario_to_json_dict(UBB_SCENARIO), **edit})
    assert str(exc.value) == message
