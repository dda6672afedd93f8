from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from viskeep.boxes import Box, HalfspaceCone, shifted_cone, vertex_cone
from viskeep.inequalities import Row

from conftest import shifted_cone_oracle

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


def test_contains_origin():
    assert Box.from_bounds([(-1, 1), (0, 2)]).contains_origin()
    assert not Box.from_bounds([(1, 2)]).contains_origin()


def test_vertex_cone_square():
    box = Box.symmetric((1, 1))
    cone = vertex_cone(box, (1, 1))
    assert cone.rows == (
        Row((F(1), F(0)), F(1)),
        Row((F(0), F(1)), F(1)),
    )
    cone2 = vertex_cone(box, (1, -1))
    assert cone2.rows == (
        Row((F(1), F(0)), F(1)),
        Row((F(0), F(-1)), F(1)),
    )


def test_vertex_cone_window_scaling():
    a, b = F(2, 5), F(11, 14)
    box = Box.symmetric((a, a, b))
    cone = vertex_cone(box, (a, a, b))
    assert cone.rows == (
        Row((1 / a, F(0), F(0)), F(1)),
        Row((F(0), 1 / a, F(0)), F(1)),
        Row((F(0), F(0), 1 / b), F(1)),
    )


def test_vertex_cone_rejects_non_vertex():
    box = Box.symmetric((1, 1))
    with pytest.raises(ValueError):
        vertex_cone(box, (0, 1))


def test_every_vertex_tight_on_own_cone():
    box = Box.from_bounds([(-2, 1), (-1, 3), (F(-1, 2), F(1, 3))])
    for v in box.vertices():
        cone = vertex_cone(box, v)
        for g, xi in cone.rows:
            assert sum(c * x for c, x in zip(g, v)) == xi


def test_box_inside_every_vertex_cone(rnd):
    box = Box.from_bounds([(-1, 2), (F(-1, 2), 1)])
    for v in box.vertices():
        cone = vertex_cone(box, v)
        for _ in range(50):
            p = tuple(
                lo + F(rnd.randint(0, 16), 16) * (hi - lo)
                for lo, hi in zip(box.lo, box.hi)
            )
            assert cone.contains(p)


def test_shifted_cone_zero_disturbance():
    cone = HalfspaceCone((Row((F(1),), F(1)),))
    out = shifted_cone(cone, lambda w: ((F(0),),), [()], Box.from_bounds([(1, 1)]))
    assert out == cone


def test_shifted_cone_tau_scale_invariance():
    # a step tau enters the one-step cone only through tau E(w) r: step 2
    # with D equals step 2 lam with D / lam, and each plane through the
    # vertex (xi = 1) moves tau times as far as the step-free shift
    cone = HalfspaceCone((Row((F(1), F(0)), F(1)), Row((F(0), F(1)), F(1))))
    E = lambda w: ((F(1), F(0)), (F(0), F(1)))
    D = Box.symmetric((F(1, 4), F(1, 8)))
    lam = F(5)

    def one_step(tau, D):
        tE = lambda w: tuple(tuple(tau * x for x in row) for row in E(w))
        return shifted_cone(cone, tE, [()], D)

    a = one_step(2, D)
    b = one_step(2 * lam, D.scaled(1 / lam))
    assert a == b
    free = shifted_cone(cone, E, [()], D)
    assert a.rows == tuple(Row(g, 1 - 2 * (1 - xi)) for g, xi in free.rows)


def test_shifted_cone_scalar_example():
    # one plane s <= 1, unit disturbance channel, |r| <= 0.3: shift 0.3
    cone = HalfspaceCone((Row((F(1),), F(1)),))
    out = shifted_cone(cone, lambda w: ((F(1),),), [()],
                       Box.symmetric((F(3, 10),)))
    assert out.rows == (Row((F(1),), F(7, 10)),)


_RATIONAL = st.one_of(
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(F, st.integers(-2**70, 2**70), st.integers(1, 2**70)),
)


@st.composite
def _cone_problems(draw):
    """Planes in n = 1 to 3 states with sparse, mixed-sign rational
    coefficients, 0 to 3 matrices E(w) of n rows and l = 0 to 4 columns,
    and a box D of dimension l whose intervals may be points, at 0 (a
    channel of amplitude 0, like H_F = H_L = 0) or elsewhere."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    entry = st.one_of(st.just(F(0)), _RATIONAL)
    planes = draw(st.lists(
        st.builds(lambda g, xi: Row(tuple(g), xi),
                  st.lists(entry, min_size=n, max_size=n), _RATIONAL),
        min_size=1, max_size=4))
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
    return HalfspaceCone(tuple(planes)), Es, Box.from_bounds(bounds)


@settings(max_examples=300, deadline=None, database=None)
@given(_cone_problems())
@example((HalfspaceCone((Row((F(1),), F(1)),)), [((F(1),),)],
          Box.symmetric((F(3, 10),))))
@example((HalfspaceCone((Row((F(0), F(-2, 3)), F(1)),)),
          [((F(1), F(-1)), (F(-5), F(2)))], Box.from_bounds([(0, 0), (-1, F(1, 2))])))
@example((HalfspaceCone((Row((F(1),), F(1)),)), [((),)], Box((), ())))
def test_shifted_cone_support_matches_vertex_enumeration(problem):
    """The shift taken as the support of D equals the one taken over every
    vertex of D, plane for plane."""
    cone, Es, D = problem
    args = (cone, Es.__getitem__, range(len(Es)), D)
    assert shifted_cone(*args) == shifted_cone_oracle(*args)
