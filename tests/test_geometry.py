import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsei import geometry
from bsei.geometry import (
    Ball,
    Polytope,
    SetValuedSpec,
    Singleton,
    distance_to,
    hausdorff,
    project,
    support,
)

TOL = geometry.CLOSED_FORM_TOL


def ball_boundary(center, radius, n=2000):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return center + radius * np.column_stack([np.cos(theta), np.sin(theta)])


# ---------------------------------------------------------------- support

def test_support_zero_singleton():
    assert support(Singleton([0.0, 0.0]), [0.3, -0.7]) == 0.0


def test_support_unit_ball_is_norm():
    u = np.array([0.6, 0.8])  # unit vector
    assert support(Ball([0.0, 0.0], 1.0), u) == pytest.approx(1.0, abs=1e-12)


def test_support_polytope_bruteforce():
    verts = np.array([[1.0, 0.0], [0.0, 1.0]])
    u = np.array([1.0, 1.0])
    oracle = max(v @ u for v in verts)
    assert oracle == 1.0
    assert support(Polytope(verts), u) == oracle


def test_support_rejects_bad_direction():
    with pytest.raises(ValueError):
        support(Ball([0.0, 0.0], 1.0), [np.nan, 0.0])


# ---------------------------------------------------------------- distance

def test_distance_singleton_identity():
    x = np.array([1.0, -2.0])
    assert distance_to(x, Singleton(x)) == 0.0


def test_distance_to_ball_boundary_sampling_oracle():
    c, r = np.array([3.0, 4.0]), 1.5
    oracle = min(np.linalg.norm(x) for x in ball_boundary(c, r, 4000))
    got = distance_to([0.0, 0.0], Ball(c, r))
    assert got == pytest.approx(np.linalg.norm(c) - r, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-5)


def test_distance_to_segment():
    seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
    # brute force over a fine discretization of the segment
    pts = np.linspace([0.0, 0.0], [1.0, 0.0], 2001)
    oracle = min(np.linalg.norm(p - [2.0, 0.0]) for p in pts)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert distance_to([2.0, 0.0], seg) == pytest.approx(1.0, abs=TOL)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance_to([1.0, 2.0, 3.0], Ball([0.0, 0.0], 1.0))


# ---------------------------------------------------------------- project

def test_project_interior_point_fixed():
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    x = np.array([0.5, 0.5])
    assert np.allclose(project(x, tri), x, atol=TOL)


def test_project_ball_boundary_oracle():
    c, r = np.array([3.0, 0.0]), 1.0
    got = project([0.0, 0.0], Ball(c, r))
    closed = c - r * c / np.linalg.norm(c)
    boundary = ball_boundary(c, r, 4000)
    oracle = boundary[np.argmin(np.linalg.norm(boundary, axis=1))]
    assert np.allclose(got, closed, atol=1e-12)
    assert np.allclose(got, oracle, atol=1e-2)


def test_project_singleton():
    assert np.allclose(project([5.0, 5.0], Singleton([1.0, 2.0])), [1.0, 2.0])


def test_projection_optimality_random_competitors():
    rng = np.random.default_rng(11)
    for _ in range(25):
        verts = rng.normal(size=(rng.integers(2, 8), 3))
        poly = Polytope(verts)
        x = 2.0 * rng.normal(size=3)
        best = np.linalg.norm(project(x, poly) - x)
        weights = rng.dirichlet(np.ones(len(verts)), size=1000)
        competitors = weights @ verts
        dists = np.linalg.norm(competitors - x, axis=1)
        assert best <= dists.min() + TOL


def test_projection_idempotence():
    rng = np.random.default_rng(5)
    for _ in range(25):
        poly = Polytope(rng.normal(size=(6, 2)))
        p1 = project(2.0 * rng.normal(size=2), poly)
        p2 = project(p1, poly)
        assert np.linalg.norm(p2 - p1) <= TOL


# --------------------------------------------------------------- hausdorff

def test_hausdorff_identity_and_two_points():
    b = Ball([1.0, 2.0], 0.5)
    assert hausdorff(b, b) == 0.0
    x = np.array([3.0, 4.0])
    assert hausdorff(Singleton([0.0, 0.0]), Singleton(x)) == pytest.approx(5.0)


def test_hausdorff_ball_ball_boundary_sampling_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        r1, r2 = abs(rng.normal()), abs(rng.normal())
        closed = np.linalg.norm(c1 - c2) + abs(r1 - r2)
        got = hausdorff(Ball(c1, r1), Ball(c2, r2))
        assert got == pytest.approx(closed, abs=1e-9)
        bd1, bd2 = ball_boundary(c1, r1, 800), ball_boundary(c2, r2, 800)
        d12 = max(min(np.linalg.norm(x - y) for y in bd2) for x in bd1[::8])
        assert got >= d12 - 1e-2  # sampled oracle is a lower bound


def test_hausdorff_mixed_matches_sampled_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        ball = Ball(rng.normal(size=2), abs(rng.normal()))
        poly = Polytope(rng.normal(size=(5, 2)))
        got = hausdorff(ball, poly)
        bd = ball_boundary(ball.center, ball.radius, 2000)
        oracle = max(
            max(distance_to(x, poly) for x in bd),
            max(distance_to(v, ball) for v in poly.vertices),
        )
        assert got == pytest.approx(oracle, abs=1e-4)
        assert got >= oracle - 1e-12  # exact value dominates any sampling


def _magnitude(cset):
    """sup_{x in set} ||x||, the Hausdorff distance to {0}."""
    return hausdorff(cset, Singleton(np.zeros(cset.dim)))


def test_magnitude_examples():
    assert _magnitude(Singleton([0.0, 0.0])) == 0.0
    assert _magnitude(Ball([0.0, 0.0], 2.5)) == pytest.approx(2.5)
    c, r = np.array([3.0, 4.0]), 2.0
    oracle = max(np.linalg.norm(x) for x in ball_boundary(c, r, 4000))
    got = _magnitude(Ball(c, r))
    assert got == pytest.approx(np.linalg.norm(c) + r, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-4)


def test_magnitude_is_hausdorff_to_origin():
    # the norm is convex, so a polytope's largest point is a vertex
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = Polytope(rng.normal(size=(4, 3)))
        assert _magnitude(s) == pytest.approx(
            np.linalg.norm(s.vertices, axis=1).max(), rel=1e-15)


# ------------------------------------------------- hypothesis property tests

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def convex_sets(draw, dim=2):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Singleton(draw(st.lists(finite, min_size=dim, max_size=dim)))
    if kind == 1:
        center = draw(st.lists(finite, min_size=dim, max_size=dim))
        return Ball(center, draw(st.floats(0.0, 3.0)))
    n = draw(st.integers(1, 6))
    verts = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                          min_size=n, max_size=n))
    return Polytope(verts)


def same_dim_sets(n):
    """n convex sets of one dimension d in {1, 2, 3}: depth inside a polytope
    is measured through its face table's facets, or is 0 in a flat hull."""
    return st.integers(1, 3).flatmap(lambda d: st.tuples(*[convex_sets(d)] * n))


@settings(max_examples=100, deadline=None)
@given(same_dim_sets(2))
def test_hausdorff_symmetry(sets):
    a, b = sets
    assert abs(hausdorff(a, b) - hausdorff(b, a)) <= 2.0 * TOL


@settings(max_examples=100, deadline=None)
@given(same_dim_sets(3))
def test_hausdorff_triangle_inequality(sets):
    a, b, c = sets
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 2.0 * TOL


def direction_net(dim):
    """Unit directions to compare support functions on: both of the line,
    128 evenly spaced angles in the plane, and above that 64 d Gaussian
    draws of a fixed seed, normalized."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    u = np.random.default_rng(171717).standard_normal((64 * dim, dim))
    return u / geometry._norm(u)[:, None]


def support_gap(a, b):
    """Max |h_a(u) - h_b(u)| over the direction net: zero where the sets agree."""
    u = direction_net(a.dim)
    return float(np.max(np.abs(a._support(u) - b._support(u))))


@settings(max_examples=60, deadline=None)
@given(same_dim_sets(2))
def test_hausdorff_zero_iff_support_agreement(sets):
    a, b = sets
    d = hausdorff(a, b)
    gap = support_gap(a, b)
    if d <= geometry.CLOSED_FORM_TOL:
        assert gap <= 2.0 * TOL
    if gap > 2.0 * TOL:
        assert d > 0.0


@settings(max_examples=60, deadline=None)
@given(convex_sets(), st.lists(finite, min_size=2, max_size=2))
def test_projection_member_and_idempotent(cset, x):
    p = project(np.array(x), cset)
    assert distance_to(p, cset) <= TOL
    assert np.linalg.norm(project(p, cset) - p) <= TOL


# quarter-grid coordinates make repeated, collinear and coplanar vertices common
coord = st.one_of(
    st.integers(-12, 12).map(lambda k: k / 4.0),
    st.floats(-5.0, 5.0, allow_subnormal=False).filter(lambda x: x == 0.0 or abs(x) > 1e-6))


@st.composite
def polytopes_with_points(draw):
    d = draw(st.integers(1, 3))
    point = st.lists(coord, min_size=d, max_size=d)
    verts = np.array(draw(st.lists(point, min_size=1, max_size=7)))
    if d > 1 and draw(st.booleans()):
        verts[:, -1] = verts[0, -1]  # flat: no interior in R^d
    if draw(st.booleans()):
        verts = np.vstack([verts, verts[:1]])  # repeated vertex
    pts = np.array(draw(st.lists(st.lists(st.floats(-8.0, 8.0), min_size=d,
                                          max_size=d), min_size=1, max_size=4)))
    return Polytope(verts), pts


@settings(max_examples=200, deadline=None)
@given(polytopes_with_points())
# distance alone cannot tell (1e-9, 0) from the vertex (0, 0): both are 1 away
@example((Polytope([[0.0, 0.0], [0.25, 0.0]]), np.array([[1e-9, 1.0]])))
def test_polytope_projection_kkt_and_idempotent(case):
    # x = proj(p) iff <v - x, p - x> <= 0 for every vertex v
    poly, pts = case
    v = poly.vertices
    for p, x in zip(pts, project(pts, poly)):
        scale = max(np.abs(v).max(), np.abs(p).max())
        assert np.max((v - x) @ (p - x)) <= 1e-12 * scale**2
        assert np.linalg.norm(project(x, poly) - x) <= 1e-14 * scale


@st.composite
def polytopes_with_probes(draw):
    """A polytope of ``polytopes_with_points`` and its points, with points
    drawn inside it (between the vertex centroid and a vertex), on its
    vertices, between two vertices (on its edges among them) and just
    outside (a vertex moved away from the centroid); the inside points come
    first."""
    poly, pts = draw(polytopes_with_points())
    v = poly.vertices
    n = len(v)
    centroid = v.mean(axis=0)
    pick = st.integers(0, n - 1)
    inside = [centroid + t * (v[k] - centroid)
              for k, t in draw(st.lists(st.tuples(pick, st.floats(0.0, 0.9)),
                                        min_size=1, max_size=3))]
    edges = [v[i] + t * (v[j] - v[i])
             for i, j, t in draw(st.lists(st.tuples(pick, pick, st.floats(0.0, 1.0)),
                                          max_size=3))]
    near = [v[k] + s * (v[k] - centroid)
            for k, s in draw(st.lists(st.tuples(pick, st.sampled_from([1e-12, 1e-9, 1e-6])),
                                      max_size=3))]
    probes = np.array(inside + list(v) + edges + near).reshape(-1, poly.dim)
    return poly, np.concatenate([probes, pts]), len(inside)


@settings(max_examples=200, deadline=None)
@given(polytopes_with_probes())
def test_polytope_projection_matches_full_table_enumeration(case):
    # the interior test and the faces on the facets give what the whole
    # face table gives, within the KKT tolerance; points inside a polytope
    # with interior come back bitwise
    poly, pts, n_inside = case
    v = poly.vertices
    got = project(pts, poly)
    want = poly._enumerate(pts, geometry._face_table(v))
    for p, x, ref in zip(pts, got, want):
        scale = max(np.abs(v).max(), np.abs(p).max())
        assert np.max((v - x) @ (p - x)) <= 1e-12 * scale**2
        assert np.sum((x - ref) ** 2) <= 1e-12 * scale**2
    if len(poly._facets[0]):
        assert got[:n_inside].tobytes() == pts[:n_inside].tobytes()


def _cube_and_pyramid():
    cube = np.array(np.meshgrid([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])).reshape(3, -1).T
    pyramid = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [1.0, 1.0, 0.0], [0.5, 0.5, 0.8]])
    return Polytope(cube), Polytope(pyramid)


def test_non_simplicial_facets_project_as_the_full_table():
    # a square facet has four triangles of vertices: every one of them is on
    # the boundary, no diagonal through the interior is
    cube, pyramid = _cube_and_pyramid()
    # out: the cube's 4 space diagonals, the pyramid's 2 triangles of apex
    # and base diagonal
    assert [len(idx) for idx, _, _ in cube._hull[1]] == [8, 24, 24]
    assert [len(idx) for idx, _, _ in pyramid._hull[1]] == [5, 10, 8]
    grid = np.linspace(-0.5, 1.5, 9)
    pts = np.array(np.meshgrid(grid, grid, grid)).reshape(3, -1).T
    for poly in (cube, pyramid):
        got = project(pts, poly)
        want = poly._enumerate(pts, geometry._face_table(poly.vertices))
        assert np.abs(got - want).max() <= 1e-15
        inside = np.all(poly._heights(pts) <= poly._facets[1][:, None], axis=0)
        assert got[inside].tobytes() == pts[inside].tobytes()
        if poly is cube:  # the 125 grid points of the closed cube, faces included
            assert np.array_equal(inside, np.all((0.0 <= pts) & (pts <= 1.0), axis=1))


def test_table_facets_are_the_convex_hull_facets():
    # the facets read off the face table are qhull's, up to order and
    # duplicates (a facet with more than d vertices is listed once per
    # d-subset of them by the table and per simplex by qhull)
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(12)
    polys = list(_cube_and_pyramid())
    polys += [Polytope(rng.normal(size=(n, d))) for d in (2, 3) for n in range(d + 1, 9)]
    for poly in polys:
        normals, offsets = poly._facets
        ours = np.column_stack([normals, offsets + normals @ poly.vertices[0]])
        eq = ConvexHull(poly.vertices).equations  # n.x + c <= 0 inside
        theirs = np.column_stack([eq[:, :-1], -eq[:, -1]])
        gap = np.abs(ours[:, None, :] - theirs[None, :, :]).max(axis=-1)
        assert gap.min(axis=1).max() <= 1e-12
        assert gap.min(axis=0).max() <= 1e-12


# far enough that a sum of squared coordinates overflows, or small enough
# that it underflows
far = st.one_of(st.floats(1e200, 1e307), st.floats(-1e307, -1e200),
                st.floats(1e-300, 1e-160), st.floats(-1e-160, -1e-300))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    convex_sets(d), st.lists(st.lists(st.one_of(finite, far), min_size=d,
                                      max_size=d), min_size=1, max_size=5))))
# tiny offsets from the set, whose sums of squares underflow
@example((Ball([0.0, 0.0], 1e-171), [[1e-170, 1e-170], [1.0, -2e-300], [0.0, 0.0]]))
@example((Singleton([0.0, 0.0]), [[1e-200, 0.0], [-3e-300, 1e-160]]))
def test_stacked_calls_match_per_point_calls_bitwise(case):
    cset, pts = case
    pts = np.array(pts)
    stacked, dists = project(pts, cset), distance_to(pts, cset)
    assert project(pts[None], cset)[0].tobytes() == stacked.tobytes()
    for i, p in enumerate(pts):
        assert project(p, cset).tobytes() == stacked[i].tobytes()
        assert np.float64(distance_to(p, cset)).tobytes() == dists[i].tobytes()


def test_points_at_a_subnormal_distance_from_a_ball_centre_stay_put():
    # r / |p - c| overflows to inf there: no warning, and the points come
    # back bitwise, one at a time and as a stack
    import warnings
    ball = Ball([0.0, 0.0], 1.0)
    pts = np.array([[1e-310, 0.0], [0.0, -5e-324], [3e-320, 2e-315], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert project(pts, ball).tobytes() == pts.tobytes()
        for p in pts:
            assert project(p, ball).tobytes() == p.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("magnitude", [1e-300, 1e-250, 1e-200, 1e-170, 1e-160,
                                       1e200, 1e250, 1e300, 1e307])
def test_far_points_project_and_measure_without_overflow(d, magnitude):
    # squared coordinates overflow from about 1.3e154 on and underflow below
    # about 1.5e-154; the nearest points and distances stay those of the
    # rescaled problem, with no warning.  Tiny points meet sets of their own
    # scale at the origin: an O(1) translate would absorb them
    import warnings
    x = magnitude * np.array([-1.0, 1.0, 0.5])[:d]
    unit = x / magnitude
    length = magnitude * np.linalg.norm(unit)
    box = np.array(np.meshgrid(*[[0.0, 1.0]] * d)).reshape(d, -1).T
    # a polytope of the point's own scale: its KKT scores under- or overflow
    cases = [(Polytope(magnitude * box), magnitude * np.clip(unit, 0.0, 1.0), magnitude)]
    if magnitude > 1.0:
        center = np.array([0.5, -0.25, 0.0])[:d]
        r = 1.0
        cases += [
            (Singleton(center), center, length),
            (Ball(center, 0.2), center + 0.2 * unit / np.linalg.norm(unit), length),
            (Polytope(box), np.clip(x, 0.0, 1.0), length),
        ]
    else:
        r = 0.2 * magnitude
        cases += [
            (Singleton(np.zeros(d)), np.zeros(d), length),
            (Ball(np.zeros(d), r), r * unit / np.linalg.norm(unit), length - r),
        ]
    origin = np.zeros(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cset, nearest, dist in cases:
            assert np.allclose(project(x, cset), nearest, rtol=1e-12,
                               atol=1e-15 * min(1.0, magnitude))
            assert distance_to(x, cset) == pytest.approx(dist, rel=1e-12)
            assert distance_to(x[None], cset)[0] == distance_to(x, cset)
        # far sets measure through the same norms as far points
        assert hausdorff(Singleton(x), Singleton(origin)) == pytest.approx(length,
                                                                rel=1e-12)
        assert hausdorff(Ball(x, r), Singleton(origin)) == pytest.approx(
            length + r, rel=1e-12)
        assert support(Ball(origin, 1.0), x) == pytest.approx(length, rel=1e-12)
        # a ball at the centre of a box of its own scale reaches half a side
        # past the facets: the box has an interior at every scale
        ball = Ball(0.5 * magnitude * np.ones(d), magnitude)
        assert hausdorff(ball, Polytope(magnitude * box)) == pytest.approx(
            0.5 * magnitude, rel=1e-12)


@pytest.mark.parametrize("s", [-900, -520, 520, 900])
def test_norm_scales_bitwise_under_powers_of_two(s):
    # squares of 2^s times a normal stack under- or overflow: the rescue
    # measures in powers of two and gives the bits of the in-range formula
    v = np.random.default_rng(13).normal(size=(2000, 3))
    got = geometry._norm(np.ldexp(v, s))
    assert got.tobytes() == np.ldexp(geometry._norm(v), s).tobytes()


@pytest.mark.parametrize("s", [-900, -600, -460, 460, 600, 900])
def test_polytope_table_and_facets_scale_bitwise_under_powers_of_two(s):
    # in the polytope's unit, 2^s times the vertices give the same subsets,
    # projectors and normals, weights times 2^-s and offsets times 2^s
    rng = np.random.default_rng(14)
    for verts in (rng.normal(size=(6, 3)), rng.normal(size=(5, 2)),
                  np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [3.0, -1.0, 0.0]])):
        poly, scaled = Polytope(verts), Polytope(np.ldexp(verts, s))
        table, table_s = (geometry._face_table(p.vertices) for p in (poly, scaled))
        assert len(table) == len(table_s)
        for (idx, w, proj), (idx_s, w_s, proj_s) in zip(table, table_s):
            assert np.array_equal(idx, idx_s)
            assert np.ldexp(w, -s).tobytes() == w_s.tobytes()
            assert proj.tobytes() == proj_s.tobytes()
        (normals, offsets), (normals_s, offsets_s) = poly._facets, scaled._facets
        assert normals.tobytes() == normals_s.tobytes()
        assert np.ldexp(offsets, s).tobytes() == offsets_s.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_singleton_is_the_radius_zero_ball(d):
    # every answer but the nearest points is the ball's own code; those are
    # the ball's bits on finite points, and beside a NaN coordinate they keep
    # the singleton's coordinates where the ball formula keeps the point's
    rng = np.random.default_rng(d)
    x = rng.normal(size=d)
    one, ball = Singleton(x), Ball(x, 0.0)
    assert isinstance(one, Ball) and one.radius == 0.0
    assert one.center.tobytes() == ball.center.tobytes()
    for got, want in zip(one._balls, ball._balls):
        assert got.tobytes() == want.tobytes()
    u = direction_net(d)
    assert one._support(u).tobytes() == ball._support(u).tobytes()
    assert support(one, u[0]) == support(ball, u[0])
    others = [Singleton(rng.normal(size=d)), Ball(rng.normal(size=d), 0.7),
              Polytope(rng.normal(size=(d + 2, d)))]
    for other in others:
        for a, b in ((one, other), (other, one)):
            want = hausdorff(ball, b) if a is one else hausdorff(a, ball)
            assert np.float64(hausdorff(a, b)).tobytes() == np.float64(want).tobytes()
    shift = rng.normal(size=d)
    moved = one.translate(shift)
    assert type(moved) is Singleton
    assert moved.center.tobytes() == ball.translate(shift).center.tobytes()
    for s in (0, 1000, -1000):
        big, pts = Singleton(np.ldexp(x, s)), np.ldexp(rng.normal(size=(50, d)), s)
        pts[0] = big.center  # a point at the centre: 0/0 in the ball's scale
        assert project(pts, big).tobytes() == project(pts, Ball(big.center, 0.0)).tobytes()
    if d >= 2:
        p = np.full(d, 5.0)
        p[0] = np.nan
        got, kept = project(p, one), project(p, ball)
        assert np.isnan(got[0]) and got[1:].tobytes() == x[1:].tobytes()
        assert np.isnan(kept[0]) and kept[1:].tobytes() == p[1:].tobytes()


@pytest.mark.parametrize("cset", [
    Singleton([1.0, 2.0]), Ball([0.5, -0.5], 0.3),
    Polytope([[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25], [-0.15, 0.15]]),
    Polytope([[0.0, 0.0], [1.0, 0.0]]),
])
def test_project_gives_non_finite_points_non_finite_nearest_points(cset):
    # no finiteness scan and no warning: a caller's own check sees the
    # non-finite rows, and the finite rows are the ones of a finite stack
    import warnings
    finite = np.array([[0.3, 0.1], [2.0, -1.0], [-0.1, 0.2]])
    pts = np.array([[np.inf, 0.0], [-np.inf, np.inf], [np.nan, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project(np.concatenate([finite, pts]), cset)
    assert not np.isfinite(out[3:]).all(axis=1).any()
    assert out[:3].tobytes() == project(finite, cset).tobytes()
    with pytest.raises(ValueError, match="dimension"):
        project([np.inf, 0.0, 0.0], cset)


def test_polytope_projection_in_chunks_matches_one_pass(monkeypatch):
    rng = np.random.default_rng(9)
    poly = Polytope(rng.normal(size=(6, 3)))
    pts = 2.0 * rng.normal(size=(40, 3))
    whole = project(pts, poly)
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", 1)  # one point per chunk
    assert project(pts, poly).tobytes() == whole.tobytes()


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 1.5]],  # with interior
    [[0.0, 0.0], [1.0, 0.5]],  # a segment in the plane: no facets
], ids=["pentagon", "segment"])
def test_polytope_projection_in_several_chunks_is_pointwise(monkeypatch, vertices):
    # one chunk loop: three points per chunk, each chunk's outside points
    # enumerated, every point bitwise its own one-point projection
    poly = Polytope(vertices)
    rng = np.random.default_rng(12)
    pts = np.concatenate([
        [[0.5, 0.5], [0.25, 0.75]],  # inside the pentagon
        poly.vertices, [[0.5, 0.0], [0.5, 0.25]],  # on the boundary
        3.0 * rng.normal(size=(11, 2)),  # mostly outside
        [[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]],
    ])
    rng.shuffle(pts)
    n_faces = sum(len(idx) for idx, _, _ in poly._hull[1])
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", 3 * 2 * n_faces)
    got = project(pts, poly)
    want = np.array([project(p, poly) for p in pts])
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all(axis=1).sum() == len(pts) - 3


def test_polytope_rejects_too_many_vertex_subsets():
    rng = np.random.default_rng(10)
    Polytope(rng.normal(size=(29, 2)))  # 29 + 406 + 3654 = 4089 subsets
    with pytest.raises(ValueError, match="4096"):
        Polytope(rng.normal(size=(30, 2)))  # 4525 subsets


# ------------------------------------------------------------ set-valued map

def test_lipschitz_of_singleton_scaling_map():
    spec = SetValuedSpec(base=Singleton(np.zeros(2)), a_y=-0.8 * np.eye(2),
                         a_z=np.zeros((2, 2)))
    assert spec.lipschitz_k == 0.8


def test_lipschitz_of_constant_ball_is_zero():
    spec = SetValuedSpec(base=Ball(np.zeros(2), 0.7), a_y=np.zeros((2, 2)),
                         a_z=np.zeros((2, 2)), c0=np.array([1.0, -1.0]))
    assert spec.lipschitz_k == 0.0


def test_lipschitz_of_average_map_is_half():
    # moving y and z together by h shifts the centre by ||h||, at a cost of
    # 2 ||h||: the ratio 1/2 is attained by moving either one alone too
    spec = SetValuedSpec(base=Ball(np.zeros(2), 0.3), a_y=0.5 * np.eye(2),
                         a_z=0.5 * np.eye(2))
    assert spec.lipschitz_k == 0.5


def test_lipschitz_is_the_larger_spectral_norm_and_attained():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a_y, a_z = rng.normal(size=(2, 3, 3))
        spec = SetValuedSpec(base=Polytope(rng.normal(size=(4, 3))), a_y=a_y,
                             a_z=a_z, c0=rng.normal(size=3))
        norm_y, norm_z = np.linalg.norm(a_y, 2), np.linalg.norm(a_z, 2)
        assert spec.lipschitz_k == max(norm_y, norm_z)
        # a unit step of y along its top right singular vector moves
        # G(t, y, z) by ||a_y||_2 in the Hausdorff metric
        u = np.linalg.svd(a_y)[2][0]
        y, z = rng.normal(size=(2, 3))
        here, there = (spec.base.translate(spec.center_batch(0.0, p, z))
                       for p in (y, y + u))
        assert abs(hausdorff(here, there) - norm_y) <= TOL


def test_spec_validation():
    # a base set's own fields are checked where the configuration is read
    # (test_cli.py::test_solve_rejects_fields_of_another_shape)
    with pytest.raises(ValueError):
        SetValuedSpec(base=Ball(np.zeros(2), 0.1), a_y=np.full((2, 2), np.nan),
                      a_z=np.eye(2))
    with pytest.raises(ValueError):
        SetValuedSpec(base=Ball(np.zeros(2), 0.1), a_y=np.eye(2), a_z=np.eye(3))
    with pytest.raises(TypeError):  # computed, never declared
        SetValuedSpec(base=Ball(np.zeros(2), 0.1), a_y=np.eye(2), a_z=np.eye(2),
                      lipschitz_k=1.0)


def test_spec_set_at_variants():
    # the value of G at (t, y, z) is the base translated by the centre
    off = np.array([[0.0, 0.0], [1.0, 0.0]])
    spec = SetValuedSpec(base=Polytope(off), a_y=np.eye(2), a_z=np.zeros((2, 2)),
                         c0=lambda t: np.array([t, 0.0]))
    got = spec.base.translate(spec.center_batch(0.5, np.ones(2), np.zeros(2)))
    assert isinstance(got, Polytope)
    assert np.allclose(got.vertices, [[1.5, 1.0], [2.5, 1.0]])


def test_spec_center_batch_over_node_stack():
    # one time per node of an (n, M, d) stack, with a time-dependent c0
    a_y = np.array([[0.5, 0.1], [0.0, -0.3]])
    a_z = np.array([[0.2, 0.0], [0.1, 0.4]])
    spec = SetValuedSpec(base=Ball(np.zeros(2), 0.1), a_y=a_y, a_z=a_z,
                         c0=lambda t: np.array([t, -2.0 * t]))
    rng = np.random.default_rng(5)
    times = np.array([0.0, 0.25, 0.5])
    y, z = rng.normal(size=(2, 3, 4, 2))
    got = spec.center_batch(times, y, z)
    for k in range(3):
        for m in range(4):
            want = np.array([times[k], -2.0 * times[k]]) + a_y @ y[k, m] + a_z @ z[k, m]
            assert np.abs(got[k, m] - want).max() <= 1e-14


@pytest.mark.parametrize("a, scale", [
    (np.zeros((2, 2)), 0.0),
    (0.0 * np.eye(3), 0.0),
    (np.array([[0.5]]), 0.5),
    (-0.3 * np.eye(2), -0.3),
    (np.diag([0.5, -0.3]), None),
    (np.array([[0.5, 1e-300], [0.0, 0.5]]), None),
    (np.array([[0.2, 0.1], [0.0, 0.4]]), None),
])
def test_spec_decides_each_centre_map_once(a, scale):
    # zero, a multiple of the identity, or dense: the map's cost follows it
    d = len(a)
    spec = SetValuedSpec(base=Ball(np.zeros(d), 0.1), a_y=a, a_z=np.eye(d))
    swapped = SetValuedSpec(base=Ball(np.zeros(d), 0.1), a_y=np.eye(d), a_z=a)
    assert spec._scales == (scale, 1.0)
    assert swapped._scales == (1.0, scale)
    y, z = np.random.default_rng(11).normal(size=(2, 3, 4, d))
    assert spec.center_batch(0.0, y, z).tobytes() == (y @ a.T + z).tobytes()
