from fractions import Fraction
from itertools import combinations

import pytest

from viskeep import demos
from viskeep.inequalities import (
    LinearInequalitySystem,
    Row,
    _implied,
    normalized_key,
    rationalize,
)
from viskeep.scenarios import gain_polytope

F = Fraction


def sys_of(num_vars, rows):
    return LinearInequalitySystem.from_rows(num_vars, rows)


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


def _random_reduce_system(rnd):
    """1-3 variables with exact and scaled duplicates, parallel and
    opposite rows, zero rows and contradictory pairs mixed in."""
    n = rnd.randint(1, 3)
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
    return sys_of(n, rows)


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


def test_reduce_matches_oracle_below_float_resolution(rnd):
    """Rows moved by 1e-30 look equal in floats: the float proposals are
    wrong there, and only the exact checks (or the fallback) decide."""
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
    polys = {b.name: b.scenario.polytope() for b in demos.BUNDLES
             if b.name != "chain"}
    spec = demos.CHAIN_SPEC
    for k in range(1, spec.n):
        polys[f"chain link {k}"] = gain_polytope(spec.link_scenario(k))
    return polys


def _fme_feasible(system):
    """Feasibility by projection onto no variables: the oracle for the
    certificate route of ``is_feasible``."""
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
    """Every decision on the bundled polytopes is settled by a verified
    certificate: a silent fall back to elimination fails here."""
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
