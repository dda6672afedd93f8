import math
from fractions import Fraction

import pytest

from viskeep import synthesis
from viskeep.demos import BUNDLES, CHAIN_SPEC
from viskeep.inequalities import LinearInequalitySystem
from viskeep.scenarios import BasicScenario, gain_polytope
from viskeep.synthesis import InfeasiblePolytopeError, min_norm_gain

from conftest import (
    is_strictly_interior,
    min_norm_oracle,
    random_family_scenario,
    system_from_rows,
)

F = Fraction

WINDOW = BasicScenario(a=0.4, b=math.pi / 4, d=2.0, V_F=0.9, V_L=0.1,
                       Omega_F=math.pi / 3, Omega_L=math.pi / 15)
REF_GAIN = (1.5173, 0.3707, 0.4925)


def sys_of(num_vars, rows):
    return system_from_rows(num_vars, rows)


def test_nearest_point_on_a_ray():
    res = min_norm_gain(sys_of(1, [((-1,), F(-3, 2))]))
    assert res.exact_gain == (F(3, 2),)
    assert res.norm == 1.5
    assert res.kkt_residual == 0.0


def test_origin_inside_gives_zero_gain():
    res = min_norm_gain(sys_of(3, [((1, 0, 0), 1), ((0, 1, 1), 2)]))
    assert res.exact_gain == (0, 0, 0)
    assert res.active_rows == ()
    assert res.kkt_residual == 0.0


def test_infeasible_polytope_raises():
    with pytest.raises(InfeasiblePolytopeError):
        min_norm_gain(sys_of(1, [((1,), -1), ((-1,), 0)]))


def test_corner_projection():
    # feasible set x >= 1, y >= 2: nearest point is the corner (1, 2)
    res = min_norm_gain(sys_of(2, [((-1, 0), -1), ((0, -1), -2)]))
    assert res.exact_gain == (1, 2)
    assert res.kkt_residual == 0.0


def test_kkt_point_accepts_a_zero_multiplier():
    """``x >= 1`` and ``x + y >= 1`` meet at the nearest point (1, 0), where
    the second row is active with multiplier 0: that row set certifies the
    optimum, and so does ``x >= 1`` alone."""
    poly = sys_of(2, [((-3, 0), -3), ((-2, -2), -2), ((0, 1), 5)])
    rows = poly.int_rows
    assert synthesis._kkt_point(rows, (0, 1)) == ([1, 0], 1)
    assert synthesis._kkt_point(rows, (0,)) == ([1, 0], 1)
    assert synthesis._kkt_point(rows, (1,)) is None  # (1/2, 1/2) violates x >= 1
    res = min_norm_gain(poly)
    assert res.exact_gain == (1, 0) and res.active_rows == (0, 1)


def test_window_gain_reproduction():
    res = min_norm_gain(gain_polytope(WINDOW))
    assert res.gain.k11 == pytest.approx(1.5173, abs=1e-3)
    pair = math.hypot(res.gain.k22, res.gain.k23)
    ref_pair = math.hypot(REF_GAIN[1], REF_GAIN[2])
    assert pair <= ref_pair + 1e-6
    ref_norm = math.sqrt(sum(x * x for x in REF_GAIN))
    assert res.norm <= ref_norm + 1e-6
    assert res.kkt_residual <= 1e-7
    assert len(res.active_rows) >= 2


def test_window_gain_exact_membership():
    poly = gain_polytope(WINDOW)
    res = min_norm_gain(poly)
    assert poly.satisfies(res.exact_gain)  # exact, tol 0


def test_determinism():
    a = min_norm_gain(gain_polytope(WINDOW))
    b = min_norm_gain(gain_polytope(WINDOW))
    assert a.exact_gain == b.exact_gain
    assert a.active_rows == b.active_rows


def test_redundancy_removal_preserves_min_norm_gain():
    poly = gain_polytope(WINDOW)
    assert min_norm_gain(poly).exact_gain == \
        min_norm_gain(poly.reduce()).exact_gain


def _assert_matches_oracle(q, want):
    if want is None:
        with pytest.raises(InfeasiblePolytopeError):
            min_norm_gain(q)
        return
    got = min_norm_gain(q)
    assert got.exact_gain == want.exact_gain
    assert got.active_rows == want.active_rows
    assert got.norm == want.norm
    assert got.kkt_residual == want.kkt_residual == 0.0


def _oracle_or_none(q):
    try:
        return min_norm_oracle(q)
    except InfeasiblePolytopeError:
        return None


def _random_family_polytopes(rnd):
    return [random_family_scenario(rnd, kind).polytope()
            for kind in ("basic", "ubb", "circle") for _ in range(14)]


def test_min_norm_gain_matches_enumeration_oracle(rnd):
    """The exact min-norm loop against the exhaustive active-set
    enumeration, on the unreduced and the reduced polytopes of random
    scenarios and the chain links."""
    polys = _random_family_polytopes(rnd)
    polys += [gain_polytope(CHAIN_SPEC.link_scenario(k))
              for k in range(1, CHAIN_SPEC.n)]
    cases = [q for poly in polys for q in (poly, poly.reduce())]
    wants = [_oracle_or_none(q) for q in cases]
    assert sum(w is not None for w in wants) >= 40
    assert sum(w is None for w in wants) >= 10
    for q, want in zip(cases, wants):
        _assert_matches_oracle(q, want)


def _random_small_system(rnd, n):
    """A random system in `n` variables with small rational entries, in
    which a row may be zero, a duplicate of an earlier row, or parallel to
    one (a positive multiple with a shifted right-hand side)."""
    rows = []
    for _ in range(rnd.randint(1, 8)):
        pick = rnd.random()
        if rows and pick < 0.1:
            rows.append(rnd.choice(rows))
        elif rows and pick < 0.2:
            g, c = rnd.choice(rows)
            s = F(rnd.randint(1, 4), rnd.randint(1, 3))
            rows.append((tuple(s * x for x in g), s * c + rnd.randint(-1, 1)))
        elif pick < 0.25:
            rows.append(((F(0),) * n, F(rnd.randint(-2, 2))))
        else:
            rows.append((tuple(F(rnd.randint(-4, 4), rnd.randint(1, 3))
                               for _ in range(n)),
                         F(rnd.randint(-5, 5), rnd.randint(1, 2))))
    return sys_of(n, rows)


def test_min_norm_gain_matches_oracle_on_small_systems(rnd):
    """600 random 1-3-variable systems with zero, duplicate and parallel
    rows, feasible and empty, against the exhaustive enumeration."""
    systems = [_random_small_system(rnd, rnd.randint(1, 3)) for _ in range(600)]
    wants = [_oracle_or_none(q) for q in systems]
    assert sum(w is None for w in wants) >= 100
    assert sum(w is not None and any(w.exact_gain) for w in wants) >= 100
    for q, want in zip(systems, wants):
        _assert_matches_oracle(q, want)


def test_min_norm_gain_of_bundles_needs_no_reduce(rnd, monkeypatch):
    """min_norm_gain reduces no feasible polytope: not the bundled and
    chain-link ones, not random-family ones, reduced or not.  An empty one
    is reduced exactly once, for the exhaustive emptiness verdict."""
    calls = []
    reduce = LinearInequalitySystem.reduce

    def counted(self):
        calls.append(len(self.rows))
        return reduce(self)

    polys = [b.scenario.polytope() for b in BUNDLES.values() if b.name != "chain"]
    polys += [gain_polytope(CHAIN_SPEC.link_scenario(k))
              for k in range(1, CHAIN_SPEC.n)]
    polys += _random_family_polytopes(rnd)
    cases = polys + [poly.reduce() for poly in polys]
    feasible = [q for q in cases if q.is_feasible()]
    empty = [q for q in cases if not q.is_feasible()]
    assert len(feasible) >= 40 and len(empty) >= 10
    monkeypatch.setattr(LinearInequalitySystem, "reduce", counted)
    for q in feasible:
        min_norm_gain(q)
    assert calls == []
    for q in empty:
        with pytest.raises(InfeasiblePolytopeError):
            min_norm_gain(q)
    assert calls == [len(q.rows) for q in empty]


def _random_boxed_polytope(rnd, n):
    rows = [
        (
            tuple(F(rnd.randint(-3, 3)) for _ in range(n)),
            F(rnd.randint(-3, 5)),
        )
        for _ in range(rnd.randint(2, 6))
    ]
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        rows.append((tuple(e), F(2)))
        rows.append((tuple(-c for c in e), F(2)))
    return sys_of(n, rows)


def _dense_grid_norm_2d(poly, bound=2.0, step=1e-3):
    """Literal dense grid search over the bounding box (2 variables)."""
    import numpy as np

    G = np.array([[float(c) for c in r.g] for r in poly.rows])
    h = np.array([float(r.rhs) for r in poly.rows])
    axis = np.arange(-bound, bound + step / 2, step)
    best = None
    for x0 in axis:  # sweep one axis, vectorize the other
        pts = np.column_stack([np.full_like(axis, x0), axis])
        ok = np.all(pts @ G.T <= h + 1e-12, axis=1)
        if ok.any():
            norms = np.hypot(pts[ok, 0], pts[ok, 1])
            cand = float(norms.min())
            if best is None or cand < best:
                best = cand
    return best


def test_dense_grid_oracle_two_variables(rnd):
    found = 0
    while found < 4:
        poly = _random_boxed_polytope(rnd, 2)
        if not poly.is_feasible():
            continue
        found += 1
        res = min_norm_gain(poly)
        grid_norm = _dense_grid_norm_2d(poly)
        assert grid_norm is not None
        assert res.norm <= grid_norm + 1e-9
        assert abs(res.norm - grid_norm) < 2e-3


def test_convex_solver_oracle_three_variables(rnd):
    """The exact min-norm point against scipy's SLSQP on ``min |x|^2``."""
    import numpy as np
    from scipy.optimize import minimize

    found = 0
    while found < 8:
        poly = _random_boxed_polytope(rnd, 3)
        if not poly.is_feasible():
            continue
        found += 1
        res = min_norm_gain(poly)
        G = np.array([[float(c) for c in r.g] for r in poly.rows])
        h = np.array([float(r.rhs) for r in poly.rows])
        sol = minimize(
            lambda x: x @ x, np.zeros(3), jac=lambda x: 2 * x,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda x: h - G @ x,
                          "jac": lambda x: -G}],
            options={"ftol": 1e-15, "maxiter": 500},
        )
        assert sol.success, sol.message
        assert np.all(G @ sol.x <= h + 1e-9)
        assert res.norm == pytest.approx(float(np.linalg.norm(sol.x)), abs=1e-6)


def test_min_norm_gain_not_strictly_interior():
    poly = gain_polytope(WINDOW)
    res = min_norm_gain(poly)
    assert not is_strictly_interior(poly, res.gain)


def test_centroid_strictly_interior():
    poly = gain_polytope(WINDOW)
    res = min_norm_gain(poly)
    k11, k22, k23 = res.exact_gain
    # nudge into the interior: lift the speed gain, fatten the turn gains
    inner = (k11 + F(1, 10), k22 + F(1, 10), k23 + F(1, 50))
    assert poly.satisfies(inner)
    assert is_strictly_interior(poly, tuple(float(x) for x in inner))


def test_interiority_uses_eps():
    poly = sys_of(1, [((1,), 1)])
    assert is_strictly_interior(poly, (0.5,), eps=0.4)
    assert not is_strictly_interior(poly, (0.5,), eps=0.6)
