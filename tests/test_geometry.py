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
    """n convex sets of one dimension d in {1, 2, 3}: d = 1 measures depth
    between the end points, d >= 2 through qhull's facets or a flat hull."""
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
