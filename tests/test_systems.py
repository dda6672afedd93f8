import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from viskeep import systems as systems_module
from viskeep.boxes import Box
from viskeep.inequalities import Row
from viskeep.demos import BASIC_SCENARIO, BUNDLES
from viskeep.scenarios import BasicScenario, build_basic_system, gain_polytope
from viskeep.synthesis import min_norm_gain
from viskeep.systems import (
    GainMatrix,
    UncertainLinearSystem,
    _pipeline_polytope,
    check_admissible,
    check_D_invariant_cone,
    simulate_linear_switching,
    _SWITCHING_DWELL,
    _step_table,
    _switching_draws,
    _switching_operators,
    _switching_states,
)

from conftest import (
    REF_GAIN_CIRCLE,
    admissibility_oracle,
    affine,
    check_D_invariant_euler,
    closed_loop,
    cone_certificate_oracle,
    cone_certificate_row_oracle,
    eval_matrices,
    invariance_rows_oracle,
    is_exact_gain,
    mat,
    normalized_key,
    pipeline_polytope_oracle,
    random_basic_scenario,
    random_family_scenario,
    switching_operators_oracle,
    switching_oracle,
    zeros,
)
from conftest import random_moderate_system as _random_moderate_system

F = Fraction

WINDOW = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                       Omega_F=math.pi / 3, Omega_L=math.pi / 15)
REF_GAIN = GainMatrix(1.5173, 0.3707, 0.4925)


def synthesized_gain(sc=WINDOW):
    return GainMatrix(*min_norm_gain(gain_polytope(sc)).exact_gain)


def toy_system(A0, l=1, p=0, E0=None):
    """3-state, 2-input family with constant matrices."""
    n = 3
    E0 = E0 if E0 is not None else zeros(n, l)
    return UncertainLinearSystem(
        A=( mat(A0), ) + tuple(zeros(n, n) for _ in range(p)),
        B=( zeros(n, 2), ) + tuple(zeros(n, 2) for _ in range(p)),
        E=( E0, ) + tuple(zeros(n, l) for _ in range(p)),
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
    assert A == mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert B == mat([[-1, 0], [0, -2], [0, -1]])
    # disturbance (v_L, w_L, h_F, h_L): basic is ubb with zero noise
    assert E == mat([[1, 0, 0, 0], [0, 0, -1, 1], [0, 1, 0, 0]])


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
    assert Fq(q) == affine(sysd.A, q)


def test_closed_loop_entry():
    sysd = build_basic_system(WINDOW)
    Fq = closed_loop(sysd, REF_GAIN)
    F0 = Fq((0,) * 6)
    assert F0[0][0] == pytest.approx(-1.5173)
    assert F0[2][1] == pytest.approx(-0.3707)


def test_closed_loop_zero_input_matrix():
    sysd = toy_system([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    Fq = closed_loop(sysd, GainMatrix(F(3), F(-2), F(1)))
    assert Fq(()) == zeros(3, 3)


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


def test_exact_gain_on_the_input_bounds_is_admissible():
    """``k11 = V_F / a`` drives u1 exactly to both speed bounds, which is
    admissible; a gain larger by 1e-40 is not, on both sides."""
    sysd = build_basic_system(WINDOW)
    k11 = sysd.U.hi[0] / sysd.S.hi[0]
    assert check_admissible(GainMatrix(k11, F(0), F(0)), sysd.S, sysd.U).holds
    rep = check_admissible(GainMatrix(k11 + F(1, 10**40), F(0), F(0)), sysd.S, sysd.U)
    assert {v.row for v in rep.violations} == {"u[0] <= hi", "u[0] >= lo"}
    assert all(-1e-38 < v.slack < 0 for v in rep.violations)


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


# ----------------------------------------------------------------------
# invariance certificates
# ----------------------------------------------------------------------


def test_contraction_passes_both_certificates():
    sysd = toy_system([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    K = GainMatrix(F(0), F(0), F(0))
    assert check_D_invariant_euler(sysd, K, 1).holds
    assert check_D_invariant_cone(sysd, K).holds


def test_expansion_fails_both_certificates():
    sysd = toy_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    K = GainMatrix(F(0), F(0), F(0))
    euler = check_D_invariant_euler(sysd, K, F(1, 2))
    cone = check_D_invariant_cone(sysd, K)
    assert not euler.holds and not cone.holds
    assert len(euler.violations) > 0


def test_window_gain_cone_certificate_exact():
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain()
    rep = check_D_invariant_cone(sysd, K)
    assert rep.holds and rep.to_text() == "D-invariance (shifted cone): HOLDS\n"


def test_window_one_step_certificate_small_tau():
    # the one-step form needs a small enough step; the cone form does not
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain()
    assert check_D_invariant_euler(sysd, K, F(1, 2)).holds
    assert not check_D_invariant_euler(sysd, K, 1).holds
    assert check_D_invariant_cone(sysd, K).holds


def test_dropping_heading_gain_breaks_invariance():
    sysd = build_basic_system(WINDOW)
    K = synthesized_gain()
    K0 = GainMatrix(K.k11, K.k22, F(0))
    rep = check_D_invariant_cone(sysd, K0)
    assert not rep.holds
    assert any(v.row == "cone row 2" for v in rep.violations)


def test_one_step_and_cone_agree_on_moderate_rates(rnd):
    for _ in range(60):
        sysd, K = _random_moderate_system(rnd)
        euler = check_D_invariant_euler(sysd, K, 1.0)
        cone = check_D_invariant_cone(sysd, K)
        assert euler.holds == cone.holds


def test_enlarging_disturbance_never_rescues(rnd):
    for _ in range(25):
        sysd, K = _random_moderate_system(rnd)
        if check_D_invariant_cone(sysd, K).holds:
            continue
        bigger = UncertainLinearSystem(
            A=sysd.A, B=sysd.B, E=sysd.E,
            S=sysd.S, U=sysd.U, D=sysd.D.scaled(2), Q=sysd.Q,
        )
        assert not check_D_invariant_cone(bigger, K).holds


def test_cone_verdict_independent_of_tau_without_disturbance(rnd):
    """With no disturbance, the one-step cone verdict at float steps
    0.1, 1 and 10 is one verdict, and it is the step-free certificate's."""
    for _ in range(20):
        sysd, K = _random_moderate_system(rnd)
        quiet = UncertainLinearSystem(
            A=sysd.A, B=sysd.B,
            E=tuple(zeros(3, 2) for _ in range(4)),
            S=sysd.S, U=sysd.U, D=sysd.D, Q=sysd.Q,
        )
        verdicts = {
            cone_certificate_oracle(quiet, K, tau).holds
            for tau in (0.1, 1.0, 10.0)
        }
        assert verdicts == {check_D_invariant_cone(quiet, K).holds}


def test_certificate_does_not_depend_on_the_step(rnd):
    """The step-free polytope and cone verdict are those of the one-step
    form at any step: at tau = 1/7, 1 and 13/2, the oracle rows are the
    pipeline's rows times tau (the same keys, in the same order), and the
    oracle's cone verdict is the certificate's.  On the pair bundles,
    seeded scenarios of each family (feasible and infeasible) and random
    systems with their disturbance and without it."""
    systems = [b.scenario.system() for b in BUNDLES.values() if b.name != "chain"]
    systems += [random_family_scenario(rnd, kind).system()
                for kind in ("basic", "ubb", "circle") for _ in range(3)]
    for _ in range(2):
        sysd, K = _random_moderate_system(rnd)
        quiet = UncertainLinearSystem(
            A=sysd.A, B=sysd.B,
            E=tuple(zeros(3, 2) for _ in range(4)),
            S=sysd.S, U=sysd.U, D=sysd.D, Q=sysd.Q,
        )
        systems += [sysd, quiet]
    verdicts, feasible = set(), set()
    for sysd in systems:
        poly = _pipeline_polytope(sysd)
        gains = [GainMatrix(F(0), F(0), F(0))]
        feasible.add(poly.is_feasible())
        if poly.is_feasible():
            k = min_norm_gain(poly).exact_gain
            gains += [GainMatrix(*k), GainMatrix(k[0], k[1], F(0)),
                      GainMatrix(*(x * F(11, 10) for x in k))]
        for tau in (F(1, 7), F(1), F(13, 2)):
            oracle = pipeline_polytope_oracle(sysd, tau)
            assert poly.int_rows == tuple(map(normalized_key, oracle.rows))
            for K in gains:
                got = check_D_invariant_cone(sysd, K).holds
                assert got == cone_certificate_oracle(sysd, K, tau).holds
                verdicts.add(got)
    assert verdicts == feasible == {True, False}


def test_cone_certificate_matches_full_product_oracle(rnd):
    """Reports byte-equal to the full ``F(w) v`` product over the bundle
    systems and random systems, for exact and float gains that hold or
    fail.  A float gain is decided as the rational it is, so its report is
    the Fraction oracle's on ``Fraction(k)`` of each entry.  The float
    min-norm gains of the pair bundles fail on their own systems, every
    violated row by less than 1e-15: the min-norm point lies on the
    polytope boundary, and rounding it to floats can push it out."""
    pairs = [_random_moderate_system(rnd) for _ in range(4)]
    bundles = [b.scenario for b in BUNDLES.values() if b.name != "chain"]
    systems = [sc.system() for sc in bundles] + [sysd for sysd, _ in pairs]
    # the float gain holds on the basic bundle, each row by 0.028 or more
    gains = [GainMatrix(F(0), F(0), F(0)), GainMatrix(2.0, 0.5, 0.55)]
    gains += [K for _, K in pairs]
    rounded = []
    for sc, sysd in zip(bundles, systems):
        res = min_norm_gain(sc.polytope())
        gains += [GainMatrix(*res.exact_gain), res.gain]
        rounded.append((sysd, res.gain))
    assert len(gains) == 12
    verdicts = set()
    for sysd in systems:
        for K in gains:
            want = cone_certificate_oracle(sysd, GainMatrix(*map(F, K.entries())))
            got = check_D_invariant_cone(sysd, K)
            assert repr(got) == repr(want)
            assert got.to_text() == want.to_text()
            assert got.to_csv() == want.to_csv()
            verdicts.add((got.holds, is_exact_gain(K)))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}
    for sysd, K in rounded:
        slacks = [v.slack for v in check_D_invariant_cone(sysd, K).violations]
        assert slacks and all(-1e-15 < s < 0 for s in slacks), slacks


def test_cone_certificate_builds_the_rows_of_a_fresh_system(monkeypatch):
    """On a system whose rows no polytope has read yet, the certificate
    builds them itself, with one shifted_cone call, and reports what the
    oracle reports; a second certificate on that system reuses them."""
    calls = []

    def counted(*args, _fn=systems_module.shifted_cone):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(systems_module, "shifted_cone", counted)
    for b in BUNDLES.values():
        if b.name == "chain":
            continue
        res = min_norm_gain(b.scenario.polytope())
        for K in (GainMatrix(*res.exact_gain), res.gain):
            calls.clear()
            sysd = b.scenario.system()
            assert "gain_rows" not in vars(sysd)
            got = check_D_invariant_cone(sysd, K)
            assert len(calls) == 1
            assert check_D_invariant_cone(sysd, K) == got
            assert len(calls) == 1
            want = cone_certificate_oracle(sysd, GainMatrix(*map(F, K.entries())))
            assert (repr(got), got.to_csv()) == (repr(want), want.to_csv())
            assert got.holds == (K.entries() == res.exact_gain)


def test_cone_certificate_reads_the_parameter_vertices_only_to_report(
        monkeypatch):
    """A gain that holds costs the sign tests alone: the exact min-norm
    gain of each pair bundle passes without reading ``Q.vertices()``.  A
    failing gain, the zero gain on each bundle and the circle reference
    gain, reads them to build its report, entry for entry the oracle's."""
    reads = []

    def counted(box, _fn=Box.vertices):
        reads.append(box)
        return _fn(box)

    monkeypatch.setattr(Box, "vertices", counted)
    pairs = [b.scenario for b in BUNDLES.values() if b.name != "chain"]
    failing = []
    for sc in pairs:
        sysd = sc.system()
        reads.clear()
        K = GainMatrix(*min_norm_gain(sc.polytope()).exact_gain)
        assert check_D_invariant_cone(sysd, K).holds
        assert not [box for box in reads if box is sysd.Q]
        failing.append((sysd, GainMatrix(F(0), F(0), F(0))))
    failing.append((BUNDLES["circle"].scenario.system(), REF_GAIN_CIRCLE))
    for sysd, K in failing:
        reads.clear()
        got = check_D_invariant_cone(sysd, K)
        assert not got.holds and [box for box in reads if box is sysd.Q]
        want = cone_certificate_oracle(sysd, GainMatrix(*map(F, K.entries())))
        assert (repr(got), got.to_text(), got.to_csv()) == (
            repr(want), want.to_text(), want.to_csv())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_certificates_reject_a_gain_entry_that_is_not_finite(bad):
    """A NaN or infinite gain entry has no rational value to decide: both
    certificates raise a ValueError that names the entry."""
    sysd = build_basic_system(BASIC_SCENARIO)
    for K, name in ((GainMatrix(bad, bad, bad), "k11"),
                    (GainMatrix(1.5, 0.25, bad), "k23")):
        with pytest.raises(ValueError, match=f"gain entry {name} is"):
            check_admissible(K, sysd.S, sysd.U)
        with pytest.raises(ValueError, match=f"gain entry {name} is"):
            check_D_invariant_cone(sysd, K)


def test_integer_certificates_match_fraction_oracles(rnd):
    """Exact gains with denominators up to 1e40, from the min-norm gain of
    each pair bundle moved by up to 30%, and on random systems: the integer
    cone and admissibility certificates report byte for byte what the
    Fraction oracles report, holding and failing."""
    cases = []
    for b in BUNDLES.values():
        if b.name == "chain":
            continue
        sysd = b.scenario.system()
        k0 = min_norm_gain(b.scenario.polytope()).exact_gain
        for rel in (0, 0, 1e-30, 1e-9, 1e-3, 0.3):
            den = rnd.randint(1, 10**40)
            K = GainMatrix(*(F(round(x * den * (1 + rnd.uniform(-rel, rel))), den)
                             for x in k0))
            cases.append((sysd, K))
    for _ in range(4):
        sysd, K = _random_moderate_system(rnd)
        den = rnd.randint(1, 10**40)
        cases.append((sysd, GainMatrix(*(F(round(k * den), den) for k in K.entries()))))
    verdicts = set()
    for sysd, K in cases:
        assert is_exact_gain(K)
        got = check_D_invariant_cone(sysd, K)
        for want in (cone_certificate_oracle(sysd, K),
                     cone_certificate_row_oracle(sysd, K)):
            assert (repr(got), got.to_text(), got.to_csv()) == (
                repr(want), want.to_text(), want.to_csv())
        verdicts.add(got.holds)
        got = check_admissible(K, sysd.S, sysd.U)
        want = admissibility_oracle(K, sysd.S, sysd.U)
        assert (repr(got), got.to_csv()) == (repr(want), want.to_csv())
        verdicts.add(("admissible", got.holds))
    assert verdicts == {True, False, ("admissible", True), ("admissible", False)}


def _gain_rows_as_fractions(sysd) -> list[Row]:
    """Every row of ``sysd.gain_rows`` as Fractions, by window vertex, then
    face, then parameter vertex: the order of ``invariance_rows_oracle``."""
    return [Row(tuple(F(x, den) for x in nums[:3]), F(nums[3], den))
            for _, cone in sysd.gain_rows for _, rows in cone
            for _, nums, den in rows]


def _distinct_cone_count(sysd) -> int:
    return len({id(cone) for _, cone in sysd.gain_rows})


def test_gain_rows_match_the_oracle_for_every_family(rnd):
    """On the pair bundles and seeded scenarios of each family, S and its
    shifted faces are symmetric, so ``_gain_rows`` builds the cones of half
    the window's vertices and gives each other vertex the cone of its
    mirror, ``2^n - 1 - m`` for vertex ``m``, as the same object.  Row for
    row they are the Fraction oracle's, built at every vertex."""
    scenarios = [b.scenario for b in BUNDLES.values() if b.name != "chain"]
    scenarios += [random_family_scenario(rnd, kind)
                  for kind in ("basic", "ubb", "circle") for _ in range(3)]
    for sc in scenarios:
        sysd = sc.system()
        cones = [cone for _, cone in sysd.gain_rows]
        assert len(cones) == 2 ** sysd.n and _distinct_cone_count(sysd) == 4
        assert all(cones[m] is cones[len(cones) - 1 - m]
                   for m in range(len(cones))), sc.kind
        assert [v for v, _ in sysd.gain_rows] == list(sysd.S.vertices())
        assert _gain_rows_as_fractions(sysd) == invariance_rows_oracle(sysd)


def test_gain_rows_of_an_asymmetric_system_take_the_full_path():
    """With a disturbance box D that is not symmetric, the lower face of a
    state is not the negated upper face, and with a window S that is not
    symmetric, ``-v`` is no vertex: each vertex gets its own cone, and the
    rows and the cone certificate's report are the oracles'."""
    sysd = BUNDLES["ubb"].scenario.system()
    D = Box(sysd.D.lo, tuple(2 * x for x in sysd.D.hi))
    S = Box(tuple(x / 2 for x in sysd.S.lo), sysd.S.hi)
    for changed in (replace(sysd, D=D), replace(sysd, S=S)):
        assert _distinct_cone_count(changed) == 8
        assert _gain_rows_as_fractions(changed) == invariance_rows_oracle(changed)
        K = GainMatrix(F(0), F(0), F(0))
        got = check_D_invariant_cone(changed, K)
        want = cone_certificate_oracle(changed, K)
        assert not got.holds and (repr(got), got.to_csv()) == (
            repr(want), want.to_csv())


def test_cone_certificate_reads_each_mirrored_cone_once():
    """A gain that holds is tested against each distinct cone once: 4 of
    the 8 vertex cones on the basic bundle.  A gain that fails still
    reports the violations at every window vertex, the oracle's report."""
    sc = BUNDLES["basic"].scenario
    sysd = sc.system()
    reads = []

    class Counted(tuple):
        def __iter__(self):
            reads.append(id(self))
            return super().__iter__()

    counted = {id(cone): Counted(cone) for _, cone in sysd.gain_rows}
    sysd.__dict__["gain_rows"] = tuple((v, counted[id(cone)])
                                       for v, cone in sysd.gain_rows)
    K = GainMatrix(*min_norm_gain(sc.polytope()).exact_gain)
    assert check_D_invariant_cone(sysd, K).holds
    assert len(reads) == len(set(reads)) == len(counted) == 4
    zero = GainMatrix(F(0), F(0), F(0))
    got = check_D_invariant_cone(sysd, zero)
    want = cone_certificate_oracle(sysd, zero)
    assert (repr(got), got.to_csv()) == (repr(want), want.to_csv())
    assert {v.vertex for v in got.violations} == set(sysd.S.vertices_f())


# ----------------------------------------------------------------------
# linear switching oracle
# ----------------------------------------------------------------------


def _draws(sysd, seed, n_runs=200, segments=30):
    """Start states and per-segment index pairs of ``segments`` dwell
    segments of 100 steps."""
    x0, *pairs = _switching_draws(sysd, n_runs, 100 * segments, 1e-3, seed)
    return x0, pairs


def test_switching_draws_depend_on_the_seed_alone():
    sysd = build_basic_system(BASIC_SCENARIO)
    x0, pairs = _draws(sysd, 5)
    again_x0, again = _draws(sysd, 5)
    other_x0, other = _draws(sysd, 6)
    assert x0.tobytes() == again_x0.tobytes()
    assert [(q.tobytes(), d.tobytes()) for q, d in pairs] == [
        (q.tobytes(), d.tobytes()) for q, d in again]
    assert not np.array_equal(x0, other_x0)
    assert any(not np.array_equal(q, oq) for (q, _), (oq, _) in zip(pairs, other))


def test_switching_draws_index_every_vertex_and_start_in_S():
    """Indices stay below each vertex count (64 and 4 on basic and circle,
    64 and 16 on ubb, 512 parameter vertices read from 2-byte words), and
    30 segments of 200 runs meet every index; a family with no parameters
    and no disturbance draws index 0 only."""
    cases = [b.scenario.system() for b in BUNDLES.values() if b.name != "chain"]
    cases += [toy_system([[0, 0, 0]] * 3, p=9),
              toy_system([[0, 0, 0]] * 3, l=0)]
    for sysd in cases:
        x0, pairs = _draws(sysd, 3)
        assert x0.shape == (200, sysd.n) and len(pairs) == 30
        assert ((np.array(sysd.S.lo_f) <= x0) & (x0 <= np.array(sysd.S.hi_f))).all()
        n_q, n_d = len(sysd.Q.vertices()), len(sysd.D.vertices())
        q = np.concatenate([q for q, _ in pairs])
        d = np.concatenate([d for _, d in pairs])
        assert q.shape == d.shape == (6000,)
        assert set(q.tolist()) == set(range(n_q)), n_q
        assert set(d.tolist()) == set(range(n_d)), n_d
    assert {len(c.Q.vertices()) for c in cases} == {1, 64, 512}


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
        sysd, K, n_runs=40, horizon=8.0, dt=1e-3, seed=11,
    )
    assert ok, f"excess {excess}"


def test_linear_switching_detects_unstable_loop():
    sysd = toy_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ok, excess = simulate_linear_switching(
        sysd, GainMatrix(0.0, 0.0, 0.0), n_runs=10, horizon=3.0,
        dt=1e-3, seed=1,
    )
    assert not ok and excess > 1e-3


@pytest.mark.parametrize("kwargs", [
    {"horizon": 4e-4},  # below one step
    {"horizon": 0.0},
    {"horizon": 0.0105},  # not a multiple of dt
    {"horizon": math.inf},
    {"n_runs": 0},
    {"n_runs": -3},
    {"dt": 0.0},
    {"dt": -1e-3},
    {"horizon": 1e300, "dt": 1e-300},  # T / dt overflows
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_linear_switching_rejects_runs_it_cannot_simulate(kwargs):
    sysd = build_basic_system(BASIC_SCENARIO)
    call = {"n_runs": 4, "horizon": 0.01, "dt": 1e-3, **kwargs}
    with pytest.raises(ValueError):
        simulate_linear_switching(sysd, GainMatrix(0.0, 0.0, 0.0), **call)


def test_linear_switching_matches_per_step_oracle():
    """Same verdict and the same largest excess, to 1e-12 relative, as the
    loop that steps one dt at a time and checks the box after every step."""
    rnd = random.Random(808)
    cases = []
    zero = GainMatrix(0.0, 0.0, 0.0)
    for b in BUNDLES.values():
        if b.name == "chain":
            continue
        sysd = b.scenario.system()
        gain = min_norm_gain(b.scenario.polytope()).gain
        cases += [(sysd, gain, {}), (sysd, zero, {})]
    for _ in range(10):
        sc = random_basic_scenario(rnd, want_feasible=True)
        res = min_norm_gain(gain_polytope(sc))
        sysd = build_basic_system(sc)
        assert check_D_invariant_cone(sysd, GainMatrix(*res.exact_gain)).holds
        cases.append((sysd, res.gain, {}))
    unstable = toy_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cases.append((unstable, zero, {}))
    basic = build_basic_system(BASIC_SCENARIO)
    cases += [
        (basic, zero, {"horizon": 0.25}),  # partial last segment
        (unstable, zero, {"horizon": 0.25}),
        (basic, zero, {"horizon": 1.0, "dt": 0.25}),  # dwell < dt
        (unstable, zero, {"horizon": 1.0, "dt": 0.25}),
    ]
    excesses = []
    for i, (sysd, K, kwargs) in enumerate(cases):
        call = {"n_runs": 30, "horizon": 3.0, "dt": 1e-3, "seed": i, **kwargs}
        ok, excess = simulate_linear_switching(sysd, K, **call)
        want_ok, want = switching_oracle(sysd, K, **call)
        assert ok == want_ok, (i, excess, want)
        assert math.isclose(excess, want, rel_tol=1e-12, abs_tol=0.0), (i, excess, want)
        excesses.append(excess)
    assert sum(e == 0.0 for e in excesses) >= 13  # certified gains stay in
    assert sum(e > 1e-3 for e in excesses) >= 6  # the others leave


def test_switching_table_rows_bit_equal_to_per_run_operators():
    """The step table, built once per distinct ``phi`` of the parameter
    vertices, and ``psi``, built once per vertex pair, give every run of
    every segment bit for bit the table rows and ``psi`` that operators
    rebuilt from the run's own vertices give: on the criterion-7 inputs
    (the certified gain, and the zero gain), on the pair bundles, on a
    parameter-free family and on a table of fewer rows than a dwell."""
    rnd = random.Random(701)
    cases = []
    zero = GainMatrix(0.0, 0.0, 0.0)
    for _ in range(50):
        sc = random_basic_scenario(rnd, want_feasible=True)
        sysd = build_basic_system(sc)
        cases += [(sysd, min_norm_gain(gain_polytope(sc)).gain, 100),
                  (sysd, zero, 100)]
    for b in BUNDLES.values():
        if b.name != "chain":
            cases.append((b.scenario.system(), zero, 100))
    toy = toy_system([[0.5, 0, 0], [0, -0.3, 0.2], [0, 0, 0.1]])
    cases += [(toy, zero, 100), (cases[0][0], zero, 37)]
    for i, (sysd, K, steps) in enumerate(cases):
        table, op, psi = _switching_operators(sysd, K, 1e-3, steps)
        assert table.shape[:2] == (len(np.unique(op)), steps)
        _, *pairs = _switching_draws(sysd, 200, 300, 1e-3, i)
        for qi, di in pairs:
            phi_r, psi_r = switching_operators_oracle(sysd, K, qi, di, 1e-3)
            assert np.array_equal(_step_table(phi_r, steps), table[op[qi]]), i
            assert np.array_equal(psi_r, psi[qi, di]), i


def test_linear_switching_states_match_per_step_oracle():
    """Every state of every run, taken from the table products, lies within
    ``1e-12 max(h_i, |x_i|)`` of the state the per-step oracle reaches, ``h``
    the half-widths of S: on certified and zero gains (whose runs leave the
    box), an unstable family, a parameter-free one (one table, whose 900
    pairs take three blocks), a partial last segment, a dwell shorter than
    one step and a call of two chunks."""
    rnd = random.Random(909)
    zero = GainMatrix(0.0, 0.0, 0.0)
    basic = build_basic_system(BASIC_SCENARIO)
    cases = [(basic, min_norm_gain(BASIC_SCENARIO.polytope()).gain, {}),
             (basic, zero, {})]
    for _ in range(3):
        sc = random_basic_scenario(rnd, want_feasible=True)
        cases.append((build_basic_system(sc),
                      min_norm_gain(gain_polytope(sc)).gain, {}))
    unstable = toy_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cases += [
        (unstable, zero, {}),
        (toy_system([[0.5, 0, 0], [0, -0.3, 0.2], [0, 0, 0.1]], l=0), zero, {}),
        (basic, zero, {"horizon": 0.25}),  # partial last segment
        (basic, zero, {"horizon": 1.0, "dt": 0.25}),  # dwell < dt
        (basic, zero, {"n_runs": 150}),  # chunks of 27 and 3 segments
    ]
    for i, (sysd, K, kwargs) in enumerate(cases):
        call = {"n_runs": 30, "horizon": 3.0, "dt": 1e-3, "seed": i, **kwargs}
        *_, want = switching_oracle(sysd, K, **call, keep_states=True)
        got = np.full_like(want, np.nan)
        steps = min(int(round(_SWITCHING_DWELL / call["dt"])) or 1, len(want))
        for pairs, states in _switching_states(
                sysd, K, call["n_runs"], len(want), call["dt"], call["seed"]):
            s, r = np.divmod(pairs, call["n_runs"])
            for k in range(len(states)):
                assert np.isnan(got[s * steps + k, r]).all()
                got[s * steps + k, r] = states[k].T
        half = (np.array(sysd.S.hi_f) - np.array(sysd.S.lo_f)) / 2
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(half, np.abs(want))), i


def test_linear_switching_memory_does_not_grow_with_the_horizon():
    """The segments go in chunks of bounded size, so the peak of a 30 s
    call of 200 runs is that of a 3 s call, not ten times it."""
    import tracemalloc

    sysd = build_basic_system(BASIC_SCENARIO)
    K = min_norm_gain(BASIC_SCENARIO.polytope()).gain
    simulate_linear_switching(sysd, K, n_runs=200, horizon=3.0)
    peaks = []
    tracemalloc.start()
    try:
        for horizon in (3.0, 30.0):
            tracemalloc.reset_peak()
            simulate_linear_switching(sysd, K, n_runs=200, horizon=horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_linear_switching_flags_runs_that_overflow():
    """A run that overflows and then turns NaN within one segment is an
    infinite excess, not a clean run; the per-step oracle also fails it."""
    k = 1e4
    sysd = toy_system([[k, -k, 0], [k, k, 0], [0, 0, k]])
    call = {"n_runs": 4, "horizon": 0.1, "dt": 1e-3}
    zero = GainMatrix(0.0, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ok, excess = simulate_linear_switching(sysd, zero, **call)
        want_ok, _ = switching_oracle(sysd, zero, **call)
    assert not ok and not want_ok
    assert excess == math.inf
