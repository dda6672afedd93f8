import ast
import math
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from viskeep import demos, inequalities, synthesis
from viskeep.inequalities import (
    LinearInequalitySystem,
    Row,
    _farkas_set,
    _implied,
    _implies,
    _over,
    _solve_exact,
    normalized_key,
    rationalize,
)
from viskeep.scenarios import gain_polytope

from conftest import (
    admissibility_rows_oracle,
    eliminate_oracle,
    invariance_rows_oracle,
    normalized_key_oracle,
    pipeline_polytope_oracle,
    random_family_scenario,
    solve_exact_oracle,
    system_from_rows,
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
    polys = {b.name: b.scenario.polytope() for b in demos.BUNDLES
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


def test_certificates_accept_tight_combinations():
    """The exact kernel with no slack to spare: ``x + y <= 2`` is the sum of
    ``x <= 1`` and ``y <= 1`` (implied with equality), ``x <= 1`` is needed,
    ``x + y <= -1`` meets ``-x <= 0``, ``-y <= 0`` in a Farkas sum reading
    exactly ``0 <= -1``, and three rows meet in a single point."""
    square = sys_of(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((-1, 0), 0),
                        ((0, -1), 0)])
    keys = square.int_rows
    assert _implies([keys[j] for j in (0, 1, 3, 4)], 2, keys[2]) is True
    assert _implies([keys[j] for j in (1, 2, 3, 4)], 2, keys[0]) is False
    assert square.reduce().rows == tuple(square.rows[k] for k in (0, 1, 3, 4))
    empty = sys_of(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), -1), ((1, 0), 5)])
    assert sorted(_farkas_set(empty.int_rows, 2)) == [0, 1, 2]
    assert not empty.is_feasible()
    point = sys_of(2, [((-1, 0), -1), ((0, -1), -1), ((1, 1), 2)])  # just (1, 1)
    assert _farkas_set(point.int_rows, 2) is None
    assert point.is_feasible() and point.reduce() == point


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
    the solution."""
    singular = swapped = 0
    for t in range(600):
        k = rnd.randint(2, 6)
        M = [[_rational(rnd) for _ in range(k)] for _ in range(k)]
        rhs = [_rational(rnd) for _ in range(k)]
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
        ints = [_over(row + [r])[0] for row, r in zip(M, rhs)]
        got = _solve_exact([r[:-1] for r in ints], [r[-1] for r in ints])
        want = solve_exact_oracle(M, rhs)
        if want is None:
            singular += 1
            assert got is None and _det(M) == 0
        else:
            num, den = got
            assert den == abs(_det([r[:-1] for r in ints])) > 0
            assert [F(v, den) for v in num] == want
    assert singular >= 300 and swapped >= 100


def test_integer_key_classes_match_fraction_key(rnd):
    """The integer key splits rows into the same duplicate classes as the
    Fraction key: the unreduced rows of the pair bundles, and random rows
    with positive and negative multiples and all-zero coefficient rows."""
    rows = []
    for b in demos.BUNDLES:
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
    cases = [b.scenario for b in demos.BUNDLES if b.name != "chain"]
    cases += [random_family_scenario(rnd, kind)
              for kind in ("basic", "ubb", "circle") for _ in range(3)]
    for sc in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            poly = sc.polytope()
        assert poly.rows == pipeline_polytope_oracle(sc.system()).rows
        assert poly.int_rows == tuple(map(normalized_key, poly.rows))


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
