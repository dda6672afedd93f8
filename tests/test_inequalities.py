import ast
import math
import operator
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from viskeep import demos, inequalities, synthesis
from viskeep.boxes import Box
from viskeep.inequalities import (
    LinearInequalitySystem,
    Row,
    _adjugate,
    _bareiss,
    _column_basis,
    _dot,
    _implied,
    _over,
    _vertex,
    _vertex_or_farkas,
    _walk,
    rational,
    rationalize,
)
from viskeep.scenarios import BasicScenario, gain_polytope
from viskeep.systems import check_D_invariant_cone, check_admissible

from conftest import (
    _farkas_set_oracle,
    admissibility_rows_oracle,
    eliminate_oracle,
    invariance_rows_oracle,
    normalized_key,
    normalized_key_oracle,
    pipeline_polytope_oracle,
    random_family_scenario,
    reduce_lp_oracle,
    solve_exact_oracle,
    system_from_rows,
    vertex_or_farkas_oracle,
)

F = Fraction


def sys_of(num_vars, rows):
    return system_from_rows(num_vars, rows)


def keys(system):
    return {normalized_key(r) for r in system.rows}


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------


def test_rational_arithmetic_is_exact():
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert F(2, 4) == F(1, 2) and F(1, 2).denominator == 2
    x = rationalize(0.1)
    assert x == F(1, 10)
    assert rationalize(3.0) == 3


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0 ** -1021, 2.0 ** -1021),  # subnormal and tiny
    st.integers(-2**60, 2**60).map(float),
    # already representable: a denominator of at most 2**20
    st.builds(lambda k, j: k / 2**j, st.integers(-2**40, 2**40),
              st.integers(0, 20)),
    st.integers(-10**6, 10**6).map(lambda n: n + 0.5),  # ties at m = 1
)


@settings(max_examples=500, deadline=None, database=None)
@given(_FLOATS, st.sampled_from([1, 2, 10**6, 10**12]))
@example(0.5, 1)
@example(-2.5, 1)
@example(5e-324, 10**12)
@example(-0.0, 1)
@example(0.1, 10**12)
def test_rationalize_matches_limit_denominator(x, m):
    """The integer continued fraction gives what Fraction gives, ties to
    the convergent included, under the bound rationalize reads (patched
    here to smaller bounds, where ties occur)."""
    with mock.patch.object(inequalities, "DEFAULT_MAX_DENOMINATOR", m):
        got = rationalize(x)
    assert type(got) is F and got == F(x).limit_denominator(m)


def test_rational_bounds_the_digits_of_a_token():
    """A token may need up to 4300 digits, Python's default limit for
    writing an integer back; its mantissa digits and exponent count."""
    assert rational("1e4299") == 10**4299
    assert rational("-" + "9" * 4300) == -(10**4300 - 1)
    assert rational("1e-4299") == F(1, 10**4299)
    for token in ("1e4300", "1.5e4299", "1e-4300", "1e100000000", "1E+5000"):
        with pytest.raises(ValueError,
                           match=re.escape(f"'{token}' needs more than 4300")):
            rational(token)


# ----------------------------------------------------------------------
# eliminate
# ----------------------------------------------------------------------


def test_eliminate_pairs_bounds():
    system = sys_of(2, [((1, 0), 2), ((-1, 0), -1), ((1, 1), 3)])
    out = system.eliminate(0)
    assert out.num_vars == 1
    assert keys(out) == keys(sys_of(1, [((0,), 1), ((1,), 2)]))


def test_eliminate_variable_absent():
    system = sys_of(2, [((0, 1), 5)])
    out = system.eliminate(0)
    assert out.rows == (Row((F(1),), F(5)),)


def test_eliminate_two_by_two_closed_form():
    # 2x1 + x2 <= 1 and -x1 - x2 <= 1 combine to x2 >= -3
    system = sys_of(2, [((2, 1), 1), ((-1, -1), 1)])
    out = system.eliminate(0)
    assert out.rows == (Row((F(-1),), F(3)),)


def test_eliminate_one_sided_drops_rows():
    system = sys_of(2, [((1, 0), 1), ((1, 1), 1), ((0, 1), 1)])
    out = system.eliminate(0)
    assert keys(out) == keys(sys_of(1, [((1,), 1)]))


def test_eliminate_interval_oracle(rnd):
    """Single elimination against the exact completion-interval oracle.

    A point p extends to (x, p) satisfying the system iff the implied
    lower bounds on x stay below the implied upper bounds at p.
    """
    for _ in range(120):
        n = rnd.randint(2, 4)
        m = rnd.randint(1, 8)
        rows = [
            (
                tuple(F(rnd.randint(-3, 3)) for _ in range(n)),
                F(rnd.randint(-4, 4)),
            )
            for _ in range(m)
        ]
        system = sys_of(n, rows)
        projected = system.eliminate(0)
        for _ in range(20):
            p = tuple(F(rnd.randint(-6, 6), 2) for _ in range(n - 1))
            lo, hi, ok = None, None, True
            for g, rhs in system.rows:
                rest = sum(c * x for c, x in zip(g[1:], p))
                if g[0] == 0:
                    ok = ok and rest <= rhs
                elif g[0] > 0:
                    bound = (rhs - rest) / g[0]
                    hi = bound if hi is None else min(hi, bound)
                else:
                    bound = (rhs - rest) / g[0]
                    lo = bound if lo is None else max(lo, bound)
            completable = ok and (lo is None or hi is None or lo <= hi)
            assert projected.satisfies(p) == completable


def test_eliminate_deterministic(rnd):
    rows = [
        (tuple(rnd.randint(-3, 3) for _ in range(3)), rnd.randint(-4, 4))
        for _ in range(6)
    ]
    a = sys_of(3, rows).eliminate(1)
    b = sys_of(3, rows).eliminate(1)
    assert a == b


def test_eliminate_bad_index():
    with pytest.raises(ValueError):
        sys_of(1, [((1,), 0)]).eliminate(1)


# ----------------------------------------------------------------------
# project
# ----------------------------------------------------------------------


def test_project_keep_all_is_identity():
    system = sys_of(3, [((1, 2, 3), 4), ((0, 1, -1), 0)])
    assert system.project({0, 1, 2}) == system


def test_project_onto_second_variable():
    system = sys_of(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    out = system.project({1})
    assert keys(out) == keys(sys_of(1, [((1,), 1)]))


def test_projection_forward_soundness(rnd):
    """A satisfying point restricted to the kept variables satisfies the
    projection."""
    for _ in range(60):
        n = rnd.randint(2, 4)
        rows = [
            (
                tuple(F(rnd.randint(-3, 3)) for _ in range(n)),
                F(rnd.randint(0, 5)),
            )
            for _ in range(rnd.randint(1, 8))
        ]
        system = sys_of(n, rows)
        keep = sorted(rnd.sample(range(n), rnd.randint(1, n - 1)))
        projected = system.project(keep)
        for _ in range(30):
            x = tuple(F(rnd.randint(-4, 4), 2) for _ in range(n))
            if system.satisfies(x):
                assert projected.satisfies(tuple(x[i] for i in keep))


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------


def test_infeasible_pair():
    system = sys_of(1, [((1,), 1), ((-1,), -2)])
    assert not system.is_feasible()
    # the contradiction shows up as the combined constant row 0 <= -1
    assert system.eliminate(0).rows == (Row((), F(-1)),)


def test_empty_system_feasible():
    assert sys_of(1, []).is_feasible()
    assert sys_of(3, []).is_feasible()


def _vertex_feasibility_oracle(system):
    """Feasibility by vertex enumeration on a boxed system.

    Every sampled system includes a bounding box, so a nonempty solution
    set is a polytope and owns a vertex lying on n independent rows.
    """
    n = system.num_vars
    rows = system.rows
    for subset in combinations(range(len(rows)), n):
        M = [list(rows[i].g) for i in subset]
        rhs = [rows[i].rhs for i in subset]
        aug = [row[:] + [r] for row, r in zip(M, rhs)]
        # Gaussian elimination
        ok = True
        for col in range(n):
            piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
            if piv is None:
                ok = False
                break
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [v * inv for v in aug[col]]
            for i in range(n):
                if i != col and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
        if not ok:
            continue
        x = tuple(aug[i][n] for i in range(n))
        if system.satisfies(x):
            return True
    return False


def test_feasibility_matches_vertex_oracle(rnd):
    box_bound = 10
    for _ in range(60):
        n = rnd.randint(2, 3)
        rows = [
            (
                tuple(F(rnd.randint(-3, 3)) for _ in range(n)),
                F(rnd.randint(-4, 4)),
            )
            for _ in range(rnd.randint(1, 6))
        ]
        for i in range(n):
            e = [F(0)] * n
            e[i] = F(1)
            rows.append((tuple(e), F(box_bound)))
            rows.append((tuple(-c for c in e), F(box_bound)))
        system = sys_of(n, rows)
        assert system.is_feasible() == _vertex_feasibility_oracle(system)


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------


def test_reduce_drops_dominated_row():
    out = sys_of(1, [((1,), 1), ((1,), 2)]).reduce()
    assert out.rows == (Row((F(1),), F(1)),)


def test_reduce_keeps_tight_row():
    system = sys_of(1, [((1,), 1)])
    assert system.reduce() == system


def test_reduce_drops_exact_duplicates():
    out = sys_of(1, [((2,), 2), ((1,), 1)]).reduce()
    assert len(out.rows) == 1


def test_reduce_preserves_membership(rnd):
    for _ in range(15):
        n = rnd.randint(1, 3)
        rows = [
            (
                tuple(F(rnd.randint(-3, 3)) for _ in range(n)),
                F(rnd.randint(-2, 6)),
            )
            for _ in range(rnd.randint(2, 8))
        ]
        system = sys_of(n, rows)
        reduced = system.reduce()
        assert len(reduced.rows) <= len(system.rows)
        for _ in range(1000):
            x = tuple(F(rnd.randint(-8, 8), 2) for _ in range(n))
            assert system.satisfies(x) == reduced.satisfies(x)


def _reduce_oracle(system):
    """The sequential loop deciding every row by Fourier-Motzkin alone."""
    survivors = list(system.rows)
    i = 0
    while i < len(survivors):
        others = survivors[:i] + survivors[i + 1:]
        if _implied(others, survivors[i], system.num_vars):
            survivors.pop(i)
        else:
            i += 1
    return tuple(survivors)


def _random_reduce_system(rnd, num_vars=None, max_rows=None):
    """1-3 variables (or `num_vars`) with exact and scaled duplicates,
    parallel and opposite rows, zero rows and contradictory pairs mixed in;
    the first `max_rows` rows after the shuffle, when that is given."""
    n = rnd.randint(1, 3) if num_vars is None else num_vars
    rows = []
    for _ in range(rnd.randint(0, 9)):
        g = tuple(F(rnd.randint(-3, 3)) for _ in range(n))
        rows.append((g, F(rnd.randint(-3, 6))))
        if rnd.random() < 0.4:
            g0, c0 = rnd.choice(rows)
            k = F(rnd.randint(1, 4), rnd.randint(1, 3))
            twist = rnd.randrange(5)
            if twist == 0:  # exact duplicate
                rows.append((g0, c0))
            elif twist == 1:  # scaled duplicate
                rows.append((tuple(k * c for c in g0), k * c0))
            elif twist == 2:  # parallel, shifted
                rows.append((tuple(k * c for c in g0), k * c0 + rnd.choice((-1, 1))))
            elif twist == 3:  # opposite: a slab, or empty
                rows.append((tuple(-c for c in g0), -c0 + rnd.randint(-2, 2)))
            else:  # constant row 0 <= c
                rows.append(((F(0),) * n, F(rnd.randint(-1, 2))))
    rnd.shuffle(rows)
    return sys_of(n, rows[:max_rows])


def test_reduce_matches_sequential_fme_oracle(rnd):
    infeasible = unbounded = 0
    for _ in range(240):
        system = _random_reduce_system(rnd)
        reduced = system.reduce()
        assert reduced.rows == _reduce_oracle(system), system.to_text()
        if not system.is_feasible():
            infeasible += 1
        elif len(reduced.rows) <= system.num_vars:  # too few for a polytope
            unbounded += 1
    assert infeasible >= 50 and unbounded >= 50, (infeasible, unbounded)


def test_reduce_and_is_feasible_match_the_oracles_in_four_variables(rnd):
    """The same twists in 4 variables, at most 8 rows: bases of 4 rows and
    Farkas sets of up to 5, where the 3-variable systems above stop."""
    infeasible = unbounded = 0
    for _ in range(150):
        system = _random_reduce_system(rnd, num_vars=4, max_rows=8)
        reduced = system.reduce()
        assert reduced.rows == _reduce_oracle(system), system.to_text()
        feasible = system.is_feasible()
        assert feasible == _fme_feasible(system), system.to_text()
        if not feasible:
            infeasible += 1
        elif len(reduced.rows) <= system.num_vars:
            unbounded += 1
    assert infeasible >= 20 and unbounded >= 40, (infeasible, unbounded)


def test_reduce_matches_oracle_below_float_resolution(rnd):
    """Rows moved by 1e-30 look equal in floats, and every pivot of the
    exact simplex still tells them apart."""
    tiny = F(1, 10**30)
    for _ in range(150):
        n = rnd.randint(1, 3)
        rows = []
        for _ in range(rnd.randint(1, 5)):
            g = tuple(F(rnd.randint(-2, 2)) for _ in range(n))
            c = F(rnd.randint(-2, 3))
            rows.append((g, c))
            if rnd.random() < 0.6:
                rows.append((g, c + rnd.choice((-tiny, tiny))))
            if rnd.random() < 0.3:
                rows.append((tuple(x + rnd.choice((-tiny, tiny)) for x in g), c))
        rnd.shuffle(rows)
        system = sys_of(n, rows)
        assert system.reduce().rows == _reduce_oracle(system), system.to_text()


def _bundle_polytopes():
    polys = {b.name: b.scenario.polytope() for b in demos.BUNDLES.values()
             if b.name != "chain"}
    spec = demos.CHAIN_SPEC
    for k in range(1, spec.n):
        polys[f"chain link {k}"] = gain_polytope(spec.link_scenario(k))
    return polys


def _fme_feasible(system):
    """Feasibility by projection onto no variables: the oracle for the
    simplex route of ``is_feasible``."""
    return all(row.rhs >= 0 for row in system.project(()).rows)


def test_is_feasible_matches_fme_projection(rnd):
    """The systems of the sequential-FME reduce test (the same seed and
    draws), then the bundle polytopes and chain links, reduced or not."""
    infeasible = unbounded = 0
    for _ in range(240):
        system = _random_reduce_system(rnd)
        feasible = system.is_feasible()
        assert feasible == _fme_feasible(system), system.to_text()
        if not feasible:
            infeasible += 1
        elif len(system.reduce().rows) <= system.num_vars:
            unbounded += 1
    assert infeasible >= 50 and unbounded >= 50, (infeasible, unbounded)
    for name, poly in _bundle_polytopes().items():
        for system in (poly, poly.reduce()):
            assert system.is_feasible() is _fme_feasible(system) is True, name


def test_reduce_matches_oracle_on_bundle_polytopes():
    for name, poly in _bundle_polytopes().items():
        assert poly.reduce().rows == _reduce_oracle(poly), name


def test_reduce_of_feasible_bundles_needs_no_elimination(monkeypatch):
    """Every decision on the bundled polytopes is settled by the exact
    simplex: a silent fall back to elimination fails here."""
    calls = []
    eliminate = LinearInequalitySystem.eliminate

    def counted(self, var):
        calls.append(var)
        return eliminate(self, var)

    polys = _bundle_polytopes()
    monkeypatch.setattr(LinearInequalitySystem, "eliminate", counted)
    for name in ("basic", "ubb", "circle"):
        polys[name].reduce()
        assert calls == [], name


def test_reduce_keeps_a_lone_upper_bound_without_elimination(monkeypatch):
    """In a box, the other rows are unbounded along ``x``: no multipliers
    combine them to ``x <= 1``, and the simplex keeps the row without
    elimination."""
    calls = []
    eliminate = LinearInequalitySystem.eliminate

    def counted(self, var):
        calls.append(var)
        return eliminate(self, var)

    box = sys_of(3, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1),
                     ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)])
    monkeypatch.setattr(LinearInequalitySystem, "eliminate", counted)
    assert box.reduce() == box
    assert calls == []


def test_reduce_matches_the_per_row_lp_oracle_on_gain_polytopes(rnd):
    """Seeded basic, ubb and circle gain polytopes, of either verdict, each
    row decided by the cold per-row programs of the oracle."""
    feasible = empty = 0
    for kind in ("basic", "ubb", "circle") * 12:
        poly = random_family_scenario(rnd, kind).polytope()
        assert poly.reduce().rows == reduce_lp_oracle(poly), kind
        if poly.is_feasible():
            feasible += 1
        else:
            empty += 1
    assert feasible >= 10 and empty >= 5, (feasible, empty)


def test_reduce_matches_oracles_on_degenerate_vertices():
    """A pyramid whose faces all pass through the apex, with scaled
    duplicates of each face, and rows whose normals span only a plane of
    the three variables: every vertex the walk meets is degenerate, and in
    the plane the system is taken in two variables."""
    faces = [((1, 0, 1), 0), ((0, 1, 1), 0), ((-1, 0, 1), 0), ((0, -1, 1), 0),
             ((1, 1, 2), 0), ((-1, 1, 2), 0)]
    base = [((0, 0, -1), 1)]

    def scaled(k):
        return [(tuple(k * c for c in g), 0) for g, _ in faces]

    for rows in (faces + base, base + faces + scaled(3),
                 scaled(2) + faces + base):
        system = sys_of(3, rows)
        assert system.reduce().rows == _reduce_oracle(system) \
            == reduce_lp_oracle(system), system.to_text()
    plane = sys_of(3, [((1, 1, 0), 2), ((-1, -1, 0), 1), ((1, 1, 0), 3),
                       ((0, 0, 1), 1), ((0, 0, -1), 0), ((1, 1, 1), 3),
                       ((2, 2, -1), 4), ((-1, -1, 1), 2)])
    assert plane.reduce().rows == _reduce_oracle(plane) \
        == reduce_lp_oracle(plane), plane.to_text()
    assert len(plane.reduce().rows) == 4
    empty = sys_of(3, [((1, 1, 0), 2), ((0, 0, 1), 1), ((-1, -1, 0), -3),
                       ((1, 1, 1), 0), ((2, 2, 0), 4)])
    assert not empty.is_feasible()
    assert empty.reduce().rows == _reduce_oracle(empty) \
        == reduce_lp_oracle(empty), empty.to_text()


def test_reduce_of_feasible_bundles_runs_one_cold_lp(monkeypatch):
    """Each feasible bundle polytope is reduced from one cold linear
    program; every row after it starts from a vertex already found."""
    calls = []
    cold = inequalities._vertex_or_farkas

    def counted(*args):
        calls.append(len(args[0]))
        return cold(*args)

    monkeypatch.setattr(inequalities, "_vertex_or_farkas", counted)
    for name, poly in _bundle_polytopes().items():
        calls.clear()
        poly.reduce()
        assert calls == [len(poly.rows)], name


def _directions(system):
    """The distinct directions of the normals of `system`'s rows, each
    normal scaled to a first nonzero entry of magnitude 1."""
    out = set()
    for row in system.rows:
        lead = next(abs(c) for c in row.g if c)
        out.add(tuple(c / lead for c in row.g))
    return out


def test_reduce_walks_once_per_tightest_row(monkeypatch):
    """A feasible bundle polytope is reduced with one walk per direction of
    its normals, from the tightest row of each: 10 of 24 rows on basic and
    ubb, 14 of 40 on circle.  The rows a parallel row with a smaller bound
    implies are dropped after the cold program, with no walk."""
    walks = []
    walk = inequalities._walk

    def counted(rows, others, i, vertex):
        walks.append(i)
        return walk(rows, others, i, vertex)

    monkeypatch.setattr(inequalities, "_walk", counted)
    polys = _bundle_polytopes()
    for name, poly in polys.items():
        walks.clear()
        poly.reduce()
        assert len(walks) == len(set(walks)) == len(_directions(poly)), name
    counts = {}
    for name in ("basic", "ubb", "circle"):
        walks.clear()
        polys[name].reduce()
        counts[name] = (len(walks), len(polys[name]))
    assert counts == {"basic": (10, 24), "ubb": (10, 24), "circle": (14, 40)}


@st.composite
def _planted_systems(draw):
    """A system of 1-6 integer rows in 1-3 variables with nonzero normals,
    nonempty by construction (each bound at least the row at an integer
    point) or with bounds drawn at random, and that system with strictly
    looser parallel copies planted at random positions: a row ``a . x <=
    b`` planted as ``k a . x <= k b + e`` for ``k`` in 1..3 and ``e >=
    1``."""
    n = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    normal = st.lists(small, min_size=n, max_size=n).filter(any)
    point = draw(st.none() | st.lists(small, min_size=n, max_size=n))
    base = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(normal)
        b = (draw(st.integers(-4, 4)) if point is None
             else sum(map(operator.mul, a, point)) + draw(st.integers(0, 3)))
        base.append((tuple(a), b))
    planted = list(base)
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.sampled_from(base))
        k, e = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        planted.insert(draw(st.integers(0, len(planted))),
                       (tuple(k * c for c in a), k * b + e))
    return sys_of(n, base), sys_of(n, planted)


@settings(max_examples=300, deadline=None, database=None)
@given(_planted_systems())
@example((sys_of(1, [((1,), 0), ((-1,), -2)]),
          sys_of(1, [((1,), 0), ((1,), 1), ((-1,), -1), ((-1,), -2)])))
def test_reduce_and_is_feasible_ignore_looser_parallel_rows(case):
    """Rows that a parallel row with a smaller bound implies change neither
    verdict: ``is_feasible()`` is the unplanted system's, empty or not, and
    a nonempty system reduces to the unplanted system's rows, which are
    the per-row programs' of the oracle.  An empty system reduces as the
    oracle does too."""
    base, planted = case
    assert planted.is_feasible() == base.is_feasible()
    got = planted.reduce().rows
    assert got == reduce_lp_oracle(planted)
    if base.is_feasible():
        assert got == base.reduce().rows


def test_empty_reduce_keeps_its_visit_order():
    """On an empty system the rows ``reduce()`` keeps depend on the order
    in which it visits them, so a looser parallel row stays a row to visit
    there: ``x <= 0, x <= 1, -x <= -1/2, -x <= -2`` reduces to ``x <= 1,
    -x <= -2``, as the oracle's per-row programs do, while dropping the
    looser ``x <= 1`` first would leave ``x <= 0, -x <= -2``."""
    rows = [((1,), 0), ((1,), 1), ((-1,), F(-1, 2)), ((-1,), -2)]
    system = sys_of(1, rows)
    assert not system.is_feasible()
    want = sys_of(1, [((1,), 1), ((-1,), -2)]).rows
    assert system.reduce().rows == reduce_lp_oracle(system) == want
    without = sys_of(1, rows[:1] + rows[2:])
    assert without.reduce().rows == sys_of(1, [((1,), 0), ((-1,), -2)]).rows


def test_each_basis_is_inverted_once(monkeypatch):
    """``reduce()`` of the bundle polytopes and ``is_feasible()`` of an
    empty basic polytope hand ``_adjugate`` no matrix twice in a row: a
    basis is inverted when it is made, and its point, multipliers and edges
    are read from that inverse, from one walk to the next too.  The crash
    basis stops at full rank: ``_column_basis`` reads no column after the
    ``len(keys)``-th pick."""
    inverted, late_reads, stopped = [], [], []
    adjugate, column_basis = inequalities._adjugate, inequalities._column_basis

    def recorded(M):
        inverted.append([tuple(row) for row in M])
        return adjugate(M)

    def watched(keys, num_vars):
        read = set()

        class Watched(tuple):
            def __getitem__(self, v):
                read.add(v)
                return tuple.__getitem__(self, v)

        basis = column_basis([Watched(a) for a in keys], num_vars)
        if basis and len(basis) == len(keys):
            late_reads.extend(v for v in read if v > basis[-1])
            stopped.append(basis[-1] < num_vars - 1)
        return basis

    monkeypatch.setattr(inequalities, "_adjugate", recorded)
    monkeypatch.setattr(inequalities, "_column_basis", watched)
    empty = gain_polytope(BasicScenario(
        a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
        Omega_F=math.pi / 3, Omega_L=0.27))
    runs = {name: poly.reduce for name, poly in _bundle_polytopes().items()}
    runs["empty basic"] = empty.is_feasible
    for name, run in runs.items():
        inverted.clear()
        run()
        assert inverted, name
        assert all(a != b for a, b in zip(inverted, inverted[1:])), name
    assert not empty.is_feasible() and not late_reads and any(stopped)


def test_walk_follows_blands_rule():
    """From the origin of the triangle ``x, y >= 0``, ``x + y <= 1``, the
    walk for ``x <= 2`` lets ``-x <= 0`` leave (its multiplier is the
    negative one) and reaches ``(1, 0)``, where ``x + y <= 1`` and
    ``x <= 1`` tie in the ratio test: the lower row enters.  ``x <= 2`` is
    implied there, and the end basis is the one the tie picked."""
    tri = sys_of(2, [((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 1), 1),
                     ((1, 0), 1), ((1, 0), 2)])
    rows = tri.int_rows
    assert _walk(rows, range(5), 5, _vertex(rows, [0, 1])).basis == [3, 1]
    # without x + y <= 1 the others are the unit square, where x + y reaches 2
    assert _walk(rows, (0, 1, 2, 4), 3, _vertex(rows, [0, 1])) is None


def test_certificates_accept_tight_combinations():
    """The exact kernel with no slack to spare: ``x + y <= 2`` is the sum of
    ``x <= 1`` and ``y <= 1`` (implied with equality), ``x <= 1`` is needed,
    ``x + y <= -1`` meets ``-x <= 0``, ``-y <= 0`` in a Farkas sum reading
    exactly ``0 <= -1``, and three rows meet in a single point."""
    square = sys_of(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((-1, 0), 0),
                        ((0, -1), 0)])
    rows, vertex = _vertex_or_farkas(square.int_rows, 2)
    assert _walk(rows, (0, 1, 3, 4), 2, vertex) is not None
    assert _walk(rows, (1, 2, 3, 4), 0, vertex) is None
    assert square.reduce().rows == tuple(square.rows[k] for k in (0, 1, 3, 4))
    empty = sys_of(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), -1), ((1, 0), 5)])
    rows, farkas = _vertex_or_farkas(empty.int_rows, 2)
    assert rows is None and sorted(farkas) == [0, 1, 2]
    assert not empty.is_feasible()
    point = sys_of(2, [((-1, 0), -1), ((0, -1), -1), ((1, 1), 2)])  # just (1, 1)
    rows, vertex = _vertex_or_farkas(point.int_rows, 2)
    assert rows is not None and len(vertex.basis) == 2
    assert point.is_feasible() and point.reduce() == point


# the apex of a pyramid: eight rows through the origin, and its crash basis
# (rows 0, 1, 2) meets at (-2, 1, 1)
APEX = [((1, 1, 1), 0), ((0, -1, 1), 0), ((0, 1, 0), 1), ((0, 0, -1), 1),
        ((1, 0, 1), 0), ((-1, 0, 1), 0), ((0, 1, 1), 0), ((0, 0, 1), 0),
        ((1, 1, 2), 0), ((-1, 1, 2), 0)]


@pytest.mark.parametrize("num_vars, rows, end", [
    (2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], [1, 2]),
    (2, [((0, 0), -1), ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], [0]),
    (2, [((0, 0), 1), ((0, 0), 0), ((0, 0), 2)], []),
    (2, [((0, 0), 1), ((0, 0), 0), ((0, 0), -1)], [2]),
    (3, [((1, 2, 3), 1), ((0, 0, 0), 0), ((-1, -2, -3), 1), ((2, 4, 6), 5)],
     [0]),
    (3, [((1, 2, 3), 1), ((-2, -4, -6), -3), ((3, 6, 9), 7)], [0, 1]),
    (3, [((1, 1, 0), 2), ((-1, -1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 3),
         ((2, 2, -1), 4), ((-1, -1, 1), 2)], None),
    (3, APEX, [0, 5, 6]),
    (3, APEX + [((0, 0, -1), -1)], None),
], ids=["zero-first", "zero-first-negative", "all-zero", "all-zero-negative",
        "rank-1", "rank-1-empty", "rank-2", "apex", "apex-empty"])
def test_crash_basis_finds_a_vertex_or_a_farkas_set(num_vars, rows, end):
    """The cold program from its crash basis, the lowest rows with
    independent normals: a zero first row is passed over, ``0 <= -1`` is a
    Farkas set alone, all-zero normals leave an empty basis, and normals of
    rank ``r < num_vars`` give bases of ``r`` rows.  At the apex the ratio
    test ties between rows 2 and 5, which come in basis positions 2 and 1:
    the lower row leaves (Bland's rule), and that tie decides the end basis
    ``[0, 5, 6]`` (ties to the first position would end at rows 0, 2 and 6).

    A returned basis is a vertex: its rows meet in one point, which
    satisfies every row.  A returned Farkas set has no common point.
    ``is_feasible()`` and ``reduce()`` agree with the oracles."""
    system = sys_of(num_vars, rows)
    ints = system.int_rows
    reduced, found = _vertex_or_farkas(ints, num_vars)
    if reduced is not None:
        found = found.basis
    if end is not None:
        assert sorted(found) == end
    if reduced is None:
        farkas = LinearInequalitySystem(
            num_vars, tuple(system.rows[k] for k in found))
        assert not _fme_feasible(farkas)
    else:
        cols = _column_basis(ints, num_vars)
        assert len(found) == len(cols)
        inverse = _adjugate([reduced[k][:-1] for k in found])
        assert inverse is not None
        adj, det = inverse
        b = [reduced[k][-1] for k in found]
        point = [F(0)] * num_vars  # the other variables at zero
        for v, row in zip(cols, adj):
            point[v] = F(_dot(row, b), det)
        assert system.satisfies(point)
        for k in found:
            row = system.rows[k]
            assert sum(c * x for c, x in zip(row.g, point)) == row.rhs
    assert system.is_feasible() is (reduced is not None) \
        is (_farkas_set_oracle(ints, num_vars) is None)
    assert system.reduce().rows == reduce_lp_oracle(system) \
        == _reduce_oracle(system), system.to_text()


@st.composite
def _crash_systems(draw):
    """Integer rows ``(a_1, ..., a_n, b)`` in 1-4 variables whose normals
    are combinations of ``r <= n`` random vectors, so they have rank at most
    ``r``, with zero normals (``0 <= b``) and repeated normals (scaled or
    negated, each with its own ``b``) mixed in."""
    n = draw(st.integers(1, 4))
    r = min(draw(st.integers(0, n + 2)), n)
    small = st.integers(-2, 2)
    spans = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(r)]
    keys = []
    for _ in range(draw(st.integers(0, n + 6))):
        twist = draw(st.integers(0, 5)) if keys else 0
        b = draw(st.integers(-3, 3))
        if twist <= 2:  # a combination of the spanning vectors
            c = draw(st.lists(small, min_size=r, max_size=r))
            a = [sum(ck * s[v] for ck, s in zip(c, spans)) for v in range(n)]
        elif twist == 3:  # a zero normal: 0 <= b
            a = [0] * n
        else:  # a repeated normal, scaled by -2, -1, 1 or 2
            k = draw(st.sampled_from((-2, -1, 1, 2)))
            a = [k * x for x in draw(st.sampled_from(keys))[:-1]]
        keys.append((*a, b))
    return n, keys


@settings(max_examples=400, deadline=None)
@given(_crash_systems())
@example((3, [(0, 0, 0, 1), (1, 2, 3, 1), (-2, -4, -6, -3), (3, 6, 9, 7)]))
@example((2, [(1, 1, 1), (-1, -1, 0)]))
@example((2, [(1, 1, 0), (-1, -1, -1)]))
@example((2, []))
def test_crash_basis_comes_first_as_on_the_column_route(case):
    """The cold program returns the basis or the Farkas set that the column
    route finds (``vertex_or_farkas_oracle``: the column basis of the keys,
    the rows rebuilt in those ``r`` variables, the crash basis from their
    transposed normals), and the same rows: at full rank the keys
    themselves, with no row rebuilt; below it the rows in the ``r``
    variables of the column basis."""
    num_vars, keys = case
    rows, found = _vertex_or_farkas(keys, num_vars)
    want_rows, basis, farkas = vertex_or_farkas_oracle(keys, num_vars)
    if rows is None:
        assert basis is None and found == farkas
        return
    assert farkas is None and found.basis == basis
    assert list(rows) == want_rows
    if len(_column_basis(keys, num_vars)) == num_vars:
        assert all(a is k for a, k in zip(rows, keys))


def test_full_rank_reduce_takes_no_column_basis_of_the_keys(monkeypatch):
    """Every bundle polytope's normals span all 3 variables, so its
    ``reduce()`` reads the rank off the crash basis, a column basis of the
    transposed normals, and never takes the column basis of its rows.  A
    system whose normals span 2 of 3 variables takes it once."""
    calls = []
    column_basis = inequalities._column_basis

    def counted(vectors, num_vars):
        calls.append([tuple(v) for v in vectors])
        return column_basis(vectors, num_vars)

    monkeypatch.setattr(inequalities, "_column_basis", counted)
    for name, poly in _bundle_polytopes().items():
        calls.clear()
        poly.reduce()
        keys = set(poly.int_rows)
        assert calls, name
        assert not any(keys & set(vectors) for vectors in calls), name
    plane = sys_of(3, [((1, 1, 0), 2), ((-1, -1, 0), 1), ((0, 0, 1), 1),
                       ((1, 1, 1), 3), ((2, 2, -1), 4), ((-1, -1, 1), 2)])
    calls.clear()
    plane.reduce()
    assert sum(vectors == list(plane.int_rows) for vectors in calls) == 1


def test_inequalities_imports_no_numpy():
    """Every verdict of the exact module and of the min-norm selection is
    reached in integers: neither imports numpy, so no float table or float
    proposal can creep back in."""
    for module in (inequalities, synthesis):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, (module.__name__, imported)


# ----------------------------------------------------------------------
# satisfies
# ----------------------------------------------------------------------


def test_satisfies_boundary_inclusive():
    assert sys_of(1, [((1,), 1)]).satisfies((F(1),))


def test_satisfies_with_tolerance():
    assert sys_of(1, [((1,), 1)]).satisfies((1.0005,), tol=1e-3)
    assert not sys_of(1, [((1,), 1)]).satisfies((1.0005,), tol=1e-5)


def test_satisfies_dimension_mismatch():
    with pytest.raises(ValueError):
        sys_of(2, [((1, 0), 1)]).satisfies((1,))


def test_satisfies_rejects_negative_tol():
    with pytest.raises(ValueError):
        sys_of(1, [((1,), 1)]).satisfies((0.0,), tol=-1e-3)


_POINT_FLOATS = st.one_of(
    st.floats(-4, 4), st.sampled_from([0.1, 1 / 3, -0.7]),
    st.integers(-3, 3).map(lambda k: k + 2.0 ** -60))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.lists(_POINT_FLOATS, min_size=n, max_size=n),
                       _POINT_FLOATS), min_size=1, max_size=5),
    st.lists(_POINT_FLOATS, min_size=n, max_size=n),
    st.one_of(st.just(0.0), st.floats(0, 1e-3), st.just(2.0 ** -70)),
    st.lists(st.tuples(_POINT_FLOATS, _POINT_FLOATS).map(sorted),
             min_size=n, max_size=n))))
def test_point_queries_read_floats_exactly(case):
    """``satisfies``, ``slacks`` and ``Box.contains`` on float points and
    tolerances agree with a Fraction oracle that reads every float as the
    rational it is: the same verdicts, and each slack the exact one rounded
    once.  Tolerances down to 2**-70 and points 2**-60 off an integer are
    seen, where a float sum would round them away."""
    rows, point, tol, bounds = case
    n = len(point)
    system = sys_of(n, [(tuple(F(c) for c in g), F(r)) for g, r in rows])
    x, t = [F(v) for v in point], F(tol)
    gaps = [F(r) - sum(F(c) * v for c, v in zip(g, x)) for g, r in rows]
    assert system.satisfies(point, tol) == all(gap + t >= 0 for gap in gaps)
    assert system.slacks(point) == [float(gap) for gap in gaps]
    box = Box.from_bounds(bounds)
    assert box.contains(point, tol) == all(
        F(a) - t <= v <= F(b) + t for (a, b), v in zip(bounds, x))


def test_point_queries_refuse_non_finite_numbers():
    """A NaN or infinite coordinate or tolerance is a ValueError, not a
    silent False."""
    system, box = sys_of(2, [((1, 1), 1)]), Box.symmetric((1, 1))
    for bad in (math.nan, math.inf, -math.inf):
        for query in (lambda: system.satisfies((0.0, bad)),
                      lambda: system.satisfies((0.0, 0.0), tol=bad),
                      lambda: system.slacks((bad, 0.0)),
                      lambda: box.contains((bad, 0.0)),
                      lambda: box.contains((0.0, 0.0), tol=bad)):
            with pytest.raises(ValueError):
                query()


@pytest.mark.parametrize("name, slack", [
    ("basic", -6.6e-17), ("ubb", -7.3e-17), ("circle", -9.4e-17)])
def test_float_bundle_gain_is_judged_as_the_certificates_judge_it(name, slack):
    """The float min-norm gain of each pair bundle lies just outside its
    polytope, read exactly: ``satisfies`` says what the two exact
    certificates say (False), and the least slack is the exact one rounded
    once, a few 1e-17 below zero."""
    sc = demos.BUNDLES[name].scenario
    poly, sysd = sc.polytope(), sc.system()
    gain = synthesis.min_norm_gain(poly).gain
    certified = (check_admissible(gain, sysd.S, sysd.U).holds
                 and check_D_invariant_cone(sysd, gain).holds)
    assert poly.satisfies(gain.entries()) is certified is False
    exact = min(row.rhs - sum(c * F(k) for c, k in zip(row.g, gain.entries()))
                for row in poly.rows)
    assert min(poly.slacks(gain.entries())) == float(exact)
    assert float(exact) == pytest.approx(slack, abs=5e-19)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------


def test_text_round_trip():
    system = sys_of(2, [((F(1, 2), -2), F(3, 7)), ((0, 1), -1)])
    again = LinearInequalitySystem.from_text(system.to_text())
    assert again == system
    assert "1/2 -2 <= 3/7" in system.to_text()


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        LinearInequalitySystem.from_text("1 2 3\n")
    with pytest.raises(ValueError):
        LinearInequalitySystem.from_text("")
    with pytest.raises(ValueError):
        LinearInequalitySystem.from_text("1 2 <= 0\n1 <= 0\n")


# ----------------------------------------------------------------------
# the integer kernel against its Fraction oracles
# ----------------------------------------------------------------------


def _rational(rnd):
    """Signed rational with numerator and denominator up to 1e40."""
    den = rnd.choice([1, rnd.randint(1, 12), rnd.randint(1, 10**40)])
    num = rnd.choice([rnd.randint(-9, 9), rnd.randint(-10**40, 10**40)])
    return F(num, den)


def _det(M):
    """Determinant by Fraction elimination."""
    M = [list(map(F, row)) for row in M]
    det = F(1)
    for col in range(len(M)):
        pivot = next((i for i in range(col, len(M)) if M[i][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for row in M[col + 1:]:
            f = row[col] / M[col][col]
            row[col:] = [x - f * y for x, y in zip(row[col:], M[col][col:])]
    return det


def test_bareiss_matches_gaussian_elimination(rnd):
    """600 square systems, 2 to 6 unknowns: dense, singular (a combination
    row or a zero column), and permuted triangular ones that need a row
    swap at several pivots; each equation scaled to integers, which keeps
    the solution.  The adjugate of one elimination solves two right-hand
    sides, ``adj rhs / det`` each, as the oracle does; a singular matrix
    gives None."""
    singular = swapped = 0
    for t in range(600):
        k = rnd.randint(2, 6)
        M = [[_rational(rnd) for _ in range(k)] for _ in range(k)]
        kind = t % 4
        if kind == 1:
            coef = [_rational(rnd) for _ in range(k - 1)]
            M[-1] = [sum(c * M[i][j] for i, c in enumerate(coef)) for j in range(k)]
        elif kind == 2:
            M = [[x if j >= i else F(0) for j, x in enumerate(row)]
                 for i, row in enumerate(M)]
            M = [[x or F(1) if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(M)]
            rnd.shuffle(M)
            swapped += M[0][0] == 0
        elif kind == 3:
            col = rnd.randrange(k)
            for row in M:
                row[col] = F(0)
        rhs = [[_rational(rnd) for _ in range(k)] for _ in range(2)]
        # each equation over one denominator: integer M and right-hand sides
        ints = [_over(row + [r, r2])[0] for row, r, r2 in zip(M, *rhs)]
        got = _bareiss([r[:-2] for r in ints])
        if solve_exact_oracle(M, rhs[0]) is None:
            singular += 1
            assert got is None and _det(M) == 0
            continue
        adj, det = got
        assert det == abs(_det([r[:-2] for r in ints])) > 0
        for c, y in zip((-2, -1), rhs):
            b = [r[c] for r in ints]
            assert [F(_dot(row, b), det) for row in adj] == \
                solve_exact_oracle(M, y)
    assert singular >= 300 and swapped >= 100


_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


@st.composite
def _square_matrices(draw, max_k=3):
    """A k x k integer matrix, k = 1 to `max_k`: small entries give zero
    pivots and singular matrices, large ones go past 2**64, and half the
    matrices of k > 1 have a last row that combines the others, so they are
    singular."""
    k = draw(st.integers(1, max_k))
    row = st.lists(_ENTRY, min_size=k, max_size=k)
    M = draw(st.lists(row, min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        coef = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        M[-1] = [sum(c * M[i][j] for i, c in enumerate(coef)) for j in range(k)]
    return M


@settings(max_examples=500, deadline=None, database=None)
@given(_square_matrices())
@example([[0]])
@example([[-2]])
@example([[0, 1], [1, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[0, 2**70, 1], [-1, 0, 0], [0, 0, -2**66]])
def test_closed_form_solve_matches_bareiss(M):
    """Up to 3 unknowns the cofactor inverse is the pair of the Bareiss
    elimination it stands in for, None included, for any determinant
    sign."""
    assert _adjugate(M) == _bareiss(M)


@settings(max_examples=300, deadline=None, database=None)
@given(_square_matrices(6))
@example([[0]])
@example([[-3]])
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 2, 0]])
@example([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 0], [0, 0, 0, 1]])
def test_adjugate_inverts_up_to_the_determinant(M):
    """``adj M = M adj = det I`` with ``det = |det M| > 0``, None exactly
    when Fraction elimination finds M singular, for 1 to 6 unknowns."""
    found, det = _adjugate(M), abs(_det(M))
    if det == 0:
        assert found is None
        return
    adj, d = found
    assert d == det > 0
    eye = [[d * (i == j) for j in range(len(M))] for i in range(len(M))]
    assert [[_dot(row, col) for col in zip(*M)] for row in adj] == eye
    assert [[_dot(row, col) for col in zip(*adj)] for row in M] == eye


def test_integer_key_classes_match_fraction_key(rnd):
    """The integer key splits rows into the same duplicate classes as the
    Fraction key: the unreduced rows of the pair bundles, and random rows
    with positive and negative multiples and all-zero coefficient rows."""
    rows = []
    for b in demos.BUNDLES.values():
        if b.name != "chain":
            sysd = b.scenario.system()
            rows += invariance_rows_oracle(sysd) + admissibility_rows_oracle(sysd.S, sysd.U)
    bundle_rows = len(rows)
    for _ in range(400):
        n = rnd.randint(1, 4)
        if rnd.random() < 0.2:
            g = (F(0),) * n
        else:
            g = tuple(rnd.choice([F(0), _rational(rnd)]) for _ in range(n))
        row = Row(g, rnd.choice([F(0), _rational(rnd)]))
        rows.append(row)
        for _ in range(rnd.randint(0, 2)):
            s = abs(_rational(rnd)) or F(1)
            s = s if rnd.random() < 0.7 else -s
            rows.append(Row(tuple(s * c for c in row.g), s * row.rhs))

    def classes(key):
        first = {}
        return [first.setdefault((len(r.g), key(r)), len(first)) for r in rows]

    want = classes(normalized_key_oracle)
    assert classes(normalized_key) == want
    assert len(set(want[:bundle_rows])) < bundle_rows  # the bundles repeat rows
    assert len(set(want)) < len(rows)
    for row in rows:
        key = normalized_key(row)
        assert math.gcd(*key) in (0, 1)
        assert all(F(a) * row.rhs == F(key[-1]) * c for a, c in zip(key, row.g))


def test_pipeline_rows_equal_the_fraction_pipeline(rnd):
    """The integer pipeline builds the same rows, in the same order, as the
    Fraction rows deduplicated on the Fraction key, and its seeded integer
    rows are the rows' keys."""
    cases = [b.scenario for b in demos.BUNDLES.values() if b.name != "chain"]
    cases += [random_family_scenario(rnd, kind)
              for kind in ("basic", "ubb", "circle") for _ in range(3)]
    for sc in cases:
        poly = sc.polytope()
        assert poly.rows == pipeline_polytope_oracle(sc.system()).rows
        assert poly.int_rows == tuple(map(normalized_key, poly.rows))


@pytest.mark.parametrize("name", ["basic", "ubb", "circle"])
def test_gain_polytope_builds_its_fraction_rows_only_when_read(name):
    """Feasibility and redundancy removal read the integer rows alone, so
    neither builds a Fraction row of the unreduced polytope, or of the
    reduced one; the first read of the rows builds those of the Fraction
    pipeline, and a polytope reduced from it still holds only integers."""
    sc = demos.BUNDLES[name].scenario
    sysd = sc.system()
    poly = sc.polytope(sysd)
    assert poly.is_feasible()
    reduced = poly.reduce()
    assert "rows" not in vars(poly) and "rows" not in vars(reduced)
    assert len(reduced) < len(poly) == len(poly.int_rows)
    assert poly.to_text() == pipeline_polytope_oracle(sysd).to_text()
    assert len(poly) == len(poly.rows)
    again = poly.reduce()
    assert "rows" not in vars(again)
    assert again == reduced
    assert again.to_text() == reduced.to_text()


@pytest.mark.parametrize("name", ["basic", "ubb", "circle"])
def test_gain_polytope_eliminates_in_integers(name):
    """Elimination reads and writes integer rows alone: eliminating a
    variable of a gain polytope, or projecting it onto one, builds no
    Fraction row of the polytope or of the result, and each result is the
    Fraction elimination's, row for row."""
    poly = demos.BUNDLES[name].scenario.polytope()
    got = [(poly.eliminate(var), poly.project((var,))) for var in range(3)]
    assert not [p for p in (poly, *(p for pair in got for p in pair))
                if "rows" in vars(p)]
    for var, (eliminated, projected) in enumerate(got):
        first, second = (v for v in range(3) if v != var)
        assert eliminated.to_text() == eliminate_oracle(poly, var).to_text()
        assert projected.to_text() == eliminate_oracle(
            eliminate_oracle(poly, first), second - 1).to_text()


def test_eliminate_matches_fraction_elimination(rnd):
    systems = [sys_of(3, [(r.g, r.rhs) for r in gain_polytope(demos.BASIC_SCENARIO).rows])]
    for _ in range(150):
        n = rnd.randint(1, 4)
        rows = [(tuple(rnd.choice([0, 0, _rational(rnd)]) for _ in range(n)),
                 _rational(rnd)) for _ in range(rnd.randint(1, 9))]
        systems.append(sys_of(n, rows + rows[:rnd.randint(0, 2)]))
    for system in systems:
        for var in range(system.num_vars):
            got = system.eliminate(var)
            assert got == eliminate_oracle(system, var)
            assert got.int_rows == tuple(map(normalized_key, got.rows))


def test_exact_satisfies_matches_fraction_test(rnd):
    for _ in range(200):
        n = rnd.randint(1, 4)
        system = sys_of(n, [(tuple(_rational(rnd) for _ in range(n)), _rational(rnd))
                            for _ in range(rnd.randint(1, 6))])
        point = [rnd.choice([rnd.randint(-3, 3), _rational(rnd)]) for _ in range(n)]
        if rnd.random() < 0.3:  # a point on the first row's plane
            g, rhs = system.rows[0]
            k = next((k for k, c in enumerate(g) if c), None)
            if k is not None:
                point[k] = 0
                point[k] = (rhs - sum(c * x for c, x in zip(g, point))) / g[k]
        want = all(sum(c * F(x) for c, x in zip(r.g, point)) <= r.rhs
                   for r in system.rows)
        assert system.satisfies(point) == want
