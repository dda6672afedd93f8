from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from viskeep.boxes import Box, shifted_cone

from conftest import integer_E, shifted_cone_oracle, vertex_faces

F = Fraction


def test_vertices_one_dimensional_order():
    box = Box.from_bounds([(-1, 2)])
    assert box.vertices() == ((F(2),), (F(-1),))


def test_vertices_count_and_first_vertex():
    box = Box.symmetric((1, 1))
    assert len(box.vertices()) == 4
    a, b = F(2, 5), F(355, 452)  # any positive rationals
    window = Box.symmetric((a, a, b))
    assert window.vertices()[0] == (a, a, b)


def test_vertex_dimension_guard():
    box = Box.symmetric([1] * 21)
    with pytest.raises(ValueError):
        box.vertices()


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Box.from_bounds([(1, 0)])


def test_point_interval_collapses_vertices():
    box = Box.from_bounds([(0, 0), (-1, 1)])
    assert box.vertices() == ((F(0), F(1)), (F(0), F(-1)))


def test_float_vertices_equal_the_fraction_route():
    """``vertices_f`` is built from the float bounds, and gives what
    converting each vertex of ``vertices`` gives, entry for entry: with a
    point interval, asymmetric bounds, and bounds that differ but round to
    one float (kept as two vertices, as ``vertices`` has them)."""
    tiny = F(1, 10**400)
    boxes = [Box.from_bounds([(0, 0), (F(-1, 3), F(5, 7)), (-2, F(1, 10))]),
             Box.from_bounds([(0, tiny), (-1, 2)]),
             Box((), ())]
    for box in boxes:
        want = tuple(tuple(float(x) for x in v) for v in box.vertices())
        got = box.vertices_f()
        assert got == want and len(got) == len(box.vertices())
        assert all(type(x) is float for v in got for x in v)
    assert len(boxes[1].vertices_f()) == 4
    with pytest.raises(ValueError):
        Box.symmetric([1] * 21).vertices_f()


def test_contains_origin():
    assert Box.from_bounds([(-1, 1), (0, 2)]).contains_origin()
    assert not Box.from_bounds([(1, 2)]).contains_origin()


def bare_faces(S: Box):
    """The faces of `S` with no disturbance: ``(1 / bound, 1)`` each."""
    return shifted_cone(S, [], 1, Box((), ()))


def test_vertex_cone_square():
    # s_i <= 1 is face i, s_i >= -1 (read -s_i <= 1) is face n + i; a
    # vertex's cone picks one of the two for each state
    box = Box.symmetric((1, 1))
    faces = bare_faces(box)
    assert faces == ((F(1), F(1)), (F(1), F(1)), (F(-1), F(1)), (F(-1), F(1)))
    assert vertex_faces(box, faces, (1, 1)) == [(0, (F(1), F(1))),
                                                (1, (F(1), F(1)))]
    assert vertex_faces(box, faces, (1, -1)) == [(0, (F(1), F(1))),
                                                 (3, (F(-1), F(1)))]


def test_vertex_cone_window_scaling():
    a, b = F(2, 5), F(11, 14)
    box = Box.symmetric((a, a, b))
    assert bare_faces(box) == ((1 / a, F(1)), (1 / a, F(1)), (1 / b, F(1)),
                               (-1 / a, F(1)), (-1 / a, F(1)), (-1 / b, F(1)))
    assert [f for f, _ in vertex_faces(box, bare_faces(box), (a, -a, b))] \
        == [0, 4, 2]


@pytest.mark.parametrize("bounds", [[(-1, 1), (0, 1)], [(-1, 1), (-1, 0)],
                                    [(0, 0)]])
def test_shifted_cone_rejects_origin_not_interior(bounds):
    S = Box.from_bounds(bounds)
    with pytest.raises(ValueError, match="origin must be interior"):
        shifted_cone(S, [(1,) * S.dim], 1, Box.symmetric((1,)))


def test_every_vertex_tight_on_own_cone():
    box = Box.from_bounds([(-2, 1), (-1, 3), (F(-1, 2), F(1, 3))])
    faces = bare_faces(box)
    for v in box.vertices():
        for f, (g, xi) in vertex_faces(box, faces, v):
            assert g * v[f % box.dim] == xi == 1


def test_box_inside_every_vertex_cone(rnd):
    box = Box.from_bounds([(-1, 2), (F(-1, 2), 1)])
    faces = bare_faces(box)
    for v in box.vertices():
        cone = vertex_faces(box, faces, v)
        for _ in range(50):
            p = tuple(
                lo + F(rnd.randint(0, 16), 16) * (hi - lo)
                for lo, hi in zip(box.lo, box.hi)
            )
            assert all(g * p[f % box.dim] <= xi for f, (g, xi) in cone)


def test_shifted_cone_zero_disturbance():
    # E = 0 over any D, or any E over D = {0}: each face is (1 / bound, 1)
    S = Box.from_bounds([(-2, 1), (F(-1, 3), F(5, 2))])
    want = ((F(1), F(1)), (F(2, 5), F(1)), (F(-1, 2), F(1)), (F(-3), F(1)))
    zero_E = [((F(0),), (F(0),))]
    some_E = [((F(3),), (F(-7, 2),)), ((F(-1),), (F(1, 9),))]
    assert integer_E(some_E) == ([[54, -63], [-18, 2]], 18)
    for Es, D in ((zero_E, Box.from_bounds([(1, 1)])),
                  (some_E, Box.from_bounds([(0, 0)]))):
        assert shifted_cone(S, *integer_E(Es), D) == want
        assert shifted_cone_oracle(S, Es, D) == want
    assert bare_faces(S) == want


def test_shifted_cone_tau_scale_invariance():
    # a step tau enters the one-step faces only through tau E(w) r: step 2
    # with D equals step 2 lam with D / lam, and each face (xi = 1 at the
    # vertex) moves tau times as far as the step-free shift
    S = Box.symmetric((1, 1))
    E = (1, 0, 0, 1)  # the identity, row by row
    D = Box.symmetric((F(1, 4), F(1, 8)))
    lam = 5

    def one_step(tau, D):
        return shifted_cone(S, [[tau * x for x in E]], 1, D)

    a = one_step(2, D)
    b = one_step(2 * lam, D.scaled(F(1, lam)))
    assert a == b
    free = shifted_cone(S, [E], 1, D)
    assert free == shifted_cone_oracle(S, [((1, 0), (0, 1))], D)
    assert a == tuple((g, 1 - 2 * (1 - xi)) for g, xi in free)
    # the same E over another denominator gives the same faces
    assert shifted_cone(S, [[7 * x for x in E]], 7, D) == free


def test_shifted_cone_scalar_example():
    # one state, unit disturbance channel, |r| <= 0.3: both faces shift 0.3
    out = shifted_cone(Box.symmetric((1,)), [(1,)], 1,
                       Box.symmetric((F(3, 10),)))
    assert out == ((F(1), F(7, 10)), (F(-1), F(7, 10)))
    # -2 <= s <= 1 and -0.3 <= r <= 0.1: s <= 1 moves by 0.1, and
    # -s / 2 <= 1 by 0.3 / 2; E = 1 is 3 over 3 as well
    for E, den in (((1,), 1), ((3,), 3)):
        S, D = Box.from_bounds([(-2, 1)]), Box.from_bounds([(F(-3, 10), F(1, 10))])
        out = shifted_cone(S, [E], den, D)
        assert out == ((F(1), F(9, 10)), (F(-1, 2), F(17, 20)))
        assert out == shifted_cone_oracle(S, [((F(1),),)], D)


_RATIONAL = st.one_of(
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(F, st.integers(-2**70, 2**70), st.integers(1, 2**70)),
)
_POSITIVE = st.one_of(
    st.integers(1, 4).map(F),
    st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(F, st.integers(1, 2**70), st.integers(1, 2**70)),
)


@st.composite
def _cone_problems(draw):
    """A box S of n = 1 to 3 states with the origin inside and rational
    bounds, 0 to 3 matrices E(w) of n rows and l = 0 to 4 columns with
    sparse, mixed-sign rational entries, and a box D of dimension l whose
    intervals may be points, at 0 (a channel of amplitude 0, like
    H_F = H_L = 0) or elsewhere."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    S = Box.from_bounds([(-draw(_POSITIVE), draw(_POSITIVE)) for _ in range(n)])
    entry = st.one_of(st.just(F(0)), _RATIONAL)
    row = st.lists(entry, min_size=l, max_size=l).map(tuple)
    Es = draw(st.lists(st.lists(row, min_size=n, max_size=n).map(tuple),
                       min_size=0, max_size=3))
    bounds = []
    for _ in range(l):
        kind = draw(st.sampled_from(("zero", "point", "interval")))
        if kind == "zero":
            bounds.append((0, 0))
        elif kind == "point":
            x = draw(_RATIONAL)
            bounds.append((x, x))
        else:
            bounds.append(tuple(sorted(draw(st.lists(_RATIONAL, min_size=2,
                                                     max_size=2)))))
    return S, Es, Box.from_bounds(bounds)


@settings(max_examples=300, deadline=None, database=None)
@given(_cone_problems())
@example((Box.symmetric((1,)), [((F(1),),)], Box.symmetric((F(3, 10),))))
@example((Box.from_bounds([(-1, 1), (F(-3, 2), 2)]),
          [((F(1), F(-1)), (F(-5), F(2)))], Box.from_bounds([(0, 0), (-1, F(1, 2))])))
@example((Box.symmetric((1,)), [((),)], Box((), ())))
def test_shifted_cone_support_matches_vertex_enumeration(problem):
    """The shift taken as the support of D, from the matrices in integers
    over one denominator, equals the one taken over every vertex of D with
    the Fraction planes of each vertex cone, face for face; so does the
    shift from those integers over three times the denominator."""
    S, Es, D = problem
    want = shifted_cone_oracle(S, Es, D)
    E_rows, den = integer_E(Es)
    assert shifted_cone(S, E_rows, den, D) == want
    assert shifted_cone(S, [[3 * x for x in E] for E in E_rows], 3 * den, D) == want
