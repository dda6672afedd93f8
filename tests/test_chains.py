import math

import pytest

from viskeep.chains import (
    ChainSpec,
    LinkGeometry,
    ParameterMaps,
    RobotLimits,
    SaturationError,
    ScheduleInfeasibleError,
    chain_from_json_dict,
    chain_to_json_dict,
    closed_chain_check,
    feasible_chain,
    generate_schedule,
    max_chain_length,
    min_speed_schedule,
)
from viskeep.scenarios import feasible_basic

from conftest import max_chain_length_oracle

PI = math.pi

FOUR_ROBOTS = ChainSpec.make(
    links=[(0.4, PI / 14, 3.0), (0.4, PI / 9, 3.0), (0.4, PI / 4, 3.0)],
    robots=[(0.02, PI / 50), (0.085, PI / 35), (0.25, PI / 21), (0.8, PI / 6)],
)


def test_four_robot_chain_is_feasible():
    rep = feasible_chain(FOUR_ROBOTS)
    assert rep.feasible
    assert rep.worst().slack > 0


def test_uniform_chain_is_infeasible():
    spec = ChainSpec.make(
        links=[(0.4, PI / 6, 3.0)] * 3,
        robots=[(0.3, 0.5)] * 4,
    )
    assert not feasible_chain(spec).feasible


def test_two_robot_chain_matches_pair_conditions():
    spec = ChainSpec.make(
        links=[(0.4, PI / 4, 2.0)],
        robots=[(0.1, PI / 15), (0.9, PI / 3)],
    )
    chain_rep = feasible_chain(spec)
    pair_rep = feasible_basic(spec.link_scenario(1))
    assert chain_rep.feasible == pair_rep.feasible
    chain = {c.condition: c for c in chain_rep.conditions}
    pair = {c.condition: c for c in pair_rep.conditions}
    assert chain["speed_2"].rhs == pair["follower_speed"].rhs
    assert chain["turn_rate_1_upper"].rhs == pair["leader_turn_rate"].rhs
    assert chain["turn_rate_2_lower"].rhs == pair["follower_turn_rate"].rhs


def test_chain_pairwise_scenarios_feasible(rnd):
    # every consecutive pair of a feasible chain is a feasible pair scenario
    for spec in (FOUR_ROBOTS, generate_schedule(0.1, 7.0, 8, 0.02)):
        assert feasible_chain(spec).feasible
        for k in range(1, spec.n):
            assert feasible_basic(spec.link_scenario(k)).feasible


# ----------------------------------------------------------------------
# speed schedule
# ----------------------------------------------------------------------


def test_speed_schedule_vanishing_window_angle():
    speeds = min_speed_schedule([(0.1, 1e-9, 7.0)], 0.3)
    assert speeds[1] == pytest.approx(0.3, abs=1e-8)


def test_speed_schedule_strictly_increasing():
    speeds = min_speed_schedule([(0.1, PI / 14, 7.0)] * 10, 0.02)
    assert all(b > a for a, b in zip(speeds, speeds[1:]))


def test_speed_schedule_saturation_index():
    with pytest.raises(SaturationError) as exc:
        min_speed_schedule([(0.1, PI / 14, 7.0)] * 40, 0.02)
    # closed-form oracle: constant geometry gives a geometric recursion
    a, b, d, V1 = 0.1, PI / 14, 7.0, 0.02
    alpha = a * math.sin(b) / (d - a)
    c = 1 - math.cos(b) + a * b / (d - a)
    k, V = 1, V1
    while V < 1:
        V = V * (1 + alpha) + c
        k += 1
    assert exc.value.index == k == 34


# ----------------------------------------------------------------------
# maximum chain length
# ----------------------------------------------------------------------


def test_max_chain_length_constant_maps():
    maps = ParameterMaps.constant(0.1, PI / 14, 7.0)
    res = max_chain_length(maps, 100)
    assert not res.capped
    # geometric closed form: sum = c ((1+alpha)^(N-1) - 1) / alpha < 1
    a, b, d = 0.1, PI / 14, 7.0
    alpha = a * math.sin(b) / (d - a)
    c = 1 - math.cos(b) + a * b / (d - a)
    N = 1
    while c * ((1 + alpha) ** N - 1) / alpha < 1:
        N += 1
    assert res.max_robots == N == 34


def test_max_chain_length_wide_window():
    maps = ParameterMaps.constant(0.9, PI / 2, 1.0)
    assert max_chain_length(maps, 50).max_robots == 1


def test_max_chain_length_cap_flag():
    maps = ParameterMaps.constant(0.1, 1e-12, 7.0)
    res = max_chain_length(maps, 60)
    assert res.capped and res.max_robots == 60


def test_max_chain_length_recurrence_matches_direct_sum(rnd):
    """The recurrence against the direct double sum, on constant maps and
    on maps that vary with the robot index, whose bounds land on both
    sides of the cap."""
    results = set()
    for case in range(60):
        a, b = rnd.uniform(0.05, 0.9), math.exp(rnd.uniform(-4, 0.4))
        gap = math.exp(rnd.uniform(-2, 2.5))
        if case % 2:
            maps = ParameterMaps.constant(a, b, a + gap)
        else:
            w = rnd.uniform(0.5, 3)
            maps = ParameterMaps(
                lambda k, a=a, w=w: a * (1 + 0.5 * math.sin(w * k)),
                lambda k, b=b, w=w: b * (1 + 0.5 * math.cos(w * k)) / 1.5,
                lambda k, a=a, g=gap: 1.5 * a + g * (1 + 1 / k),
            )
        want = max_chain_length_oracle(maps, 60)
        assert tuple(max_chain_length(maps, 60)) == want, (case, want)
        results.add(want[1])
    assert results == {True, False}


def test_max_chain_length_is_linear_in_n_max():
    """A near-degenerate window takes every robot up to the cap, and the
    search evaluates the maps once per robot, not once per term of each
    length's sum."""
    calls = []

    def f_a(k):
        calls.append(k)
        return 1e-4

    maps = ParameterMaps(f_a, lambda k: 1e-3, lambda k: 3.0)
    assert max_chain_length(maps, 200) == (200, True)
    assert calls == list(range(2, 201))


# ----------------------------------------------------------------------
# closed chains
# ----------------------------------------------------------------------


def test_closed_chain_impossible():
    rep = closed_chain_check(FOUR_ROBOTS)
    assert not rep.feasible
    assert rep.margin("closure_gap") < 0


def test_two_robot_ring_impossible():
    spec = ChainSpec.make(
        links=[(0.4, PI / 4, 2.0)],
        robots=[(0.1, PI / 15), (0.9, PI / 3)],
    )
    assert not closed_chain_check(spec).feasible


def test_open_chain_verdict_unchanged():
    open_rep = feasible_chain(FOUR_ROBOTS)
    closed_rep = closed_chain_check(FOUR_ROBOTS)
    open_conds = {c.condition for c in open_rep.conditions}
    kept = [c for c in closed_rep.conditions if c.condition in open_conds]
    assert all(c.slack >= 0 for c in kept) == open_rep.feasible


def test_closed_chain_sweep(rnd):
    for _ in range(20):
        n = rnd.randint(2, 8)
        spec = generate_schedule(
            a=rnd.uniform(0.05, 0.3),
            d=rnd.uniform(4.0, 9.0),
            n=n,
            V_1=rnd.uniform(0.01, 0.05),
            safety=rnd.uniform(0.05, 0.2),
        )
        assert feasible_chain(spec).feasible
        assert not closed_chain_check(spec).feasible


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------


def test_generate_schedule_fifteen_robots():
    spec = generate_schedule(a=0.1, d=7.0, n=15, V_1=0.02, safety=0.1)
    assert spec.n == 15
    assert feasible_chain(spec).feasible
    speeds = [r.V for r in spec.robots]
    angles = [g.b for g in spec.links]
    assert all(b >= a for a, b in zip(speeds, speeds[1:]))
    assert all(b >= a for a, b in zip(angles, angles[1:]))


def test_generate_schedule_two_robots():
    spec = generate_schedule(a=0.1, d=7.0, n=2, V_1=0.02)
    assert spec.n == 2 and feasible_chain(spec).feasible


def test_generate_schedule_reports_achievable_prefix():
    with pytest.raises(ScheduleInfeasibleError) as exc:
        generate_schedule(a=0.1, d=7.0, n=60, V_1=0.02, safety=0.1)
    assert 2 <= exc.value.achievable < 60


def test_generate_schedule_consistent_with_length_bound():
    maps = ParameterMaps.constant(0.1, PI / 14, 7.0)
    cap = max_chain_length(maps, 100).max_robots
    with pytest.raises(ScheduleInfeasibleError) as exc:
        generate_schedule(a=0.1, d=7.0, n=cap + 30, V_1=0.02)
    assert exc.value.achievable <= cap + 30


# ----------------------------------------------------------------------
# validation and files
# ----------------------------------------------------------------------


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec.make(links=[], robots=[(0.1, 0.1)])
    with pytest.raises(ValueError):
        ChainSpec.make(links=[(0.4, 0.3, 0.3)], robots=[(0.1, 1), (0.2, 1)])
    with pytest.raises(ValueError):
        ChainSpec.make(links=[(0.4, 0.3, 2.0)], robots=[(1.2, 1), (0.2, 1)])
    for n in (2.0, True):  # 1 != 2.0 - 1 is False, but range(1, 2.0) fails
        with pytest.raises(ValueError, match="n must be an integer"):
            ChainSpec(n=n, links=(LinkGeometry(0.4, 0.3, 2.0),),
                      robots=(RobotLimits(0.1, 1), RobotLimits(0.2, 1)))


def test_chain_json_round_trip():
    data = chain_to_json_dict(FOUR_ROBOTS, provenance={"note": "bundled"})
    again = chain_from_json_dict(data)
    assert again == FOUR_ROBOTS
    assert data["provenance"] == {"note": "bundled"}
    with pytest.raises(ValueError):
        chain_from_json_dict({"n": 2, "links": []})


@pytest.mark.parametrize("where, edit, message", [
    ("links", {"a": 10**401},
     "chain link 2 needs a finite number for 'a', not an int of 402 digits"),
    ("links", {"d": math.inf},
     "chain link 2 needs a finite number for 'd', not inf"),
    ("robots", {"V": True},
     "chain robot 2 needs a finite number for 'V', not True"),
    ("robots", {"Omega": list(range(3000))},
     "chain robot 2 needs a finite number for 'Omega', "
     "not a list of length 3000"),
], ids=["huge-int", "inf", "bool", "list"])
def test_chain_json_names_a_field_that_is_not_a_finite_number(where, edit,
                                                              message):
    data = chain_to_json_dict(FOUR_ROBOTS)
    data[where][1].update(edit)
    with pytest.raises(ValueError) as exc:
        chain_from_json_dict(data)
    assert str(exc.value) == message


def test_chain_json_names_an_n_beyond_the_float_range():
    data = {**chain_to_json_dict(FOUR_ROBOTS), "n": 10**400}
    with pytest.raises(ValueError) as exc:
        chain_from_json_dict(data)
    assert str(exc.value) == "n must be an integer, not an int of 401 digits"
