"""Convex-compact set calculus in Euclidean state space.

Sets come in three variants (singleton, ball, polytope), all with exact
support functions and nearest-point projections.  On top of those this
module provides the Hausdorff distance, the set magnitude sup-norm, and a
sampling probe for the Lipschitz constant of affine set-valued maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ProjectionError

# Geometric tolerances: closed-form branches are exact up to rounding,
# iterative (polytope) branches stop at the looser value.
CLOSED_FORM_TOL = 1e-9
ITERATIVE_TOL = 1e-6

_PG_MAX_ITER = 10_000


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"expected a 1-D point, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.size}")
    return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Singleton:
    """One-point set {point}."""

    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", _frozen(as_point(self.point)))

    @property
    def dim(self) -> int:
        return self.point.size


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(as_point(self.center)))
        r = float(self.radius)
        if not np.isfinite(r) or r < 0.0:
            raise ValueError(f"radius must be finite and >= 0, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a nonempty list of vertices, one per row."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("polytope needs a nonempty (n, d) vertex array")
        if not np.all(np.isfinite(v)):
            raise ValueError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", _frozen(v))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


ConvexCompactSet = Union[Singleton, Ball, Polytope]


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def support(cset: ConvexCompactSet, direction) -> float:
    """Support value sup_{x in set} <x, direction>; direction need not be unit."""
    u = as_point(direction, cset.dim)
    if isinstance(cset, Singleton):
        return float(cset.point @ u)
    if isinstance(cset, Ball):
        return float(cset.center @ u + cset.radius * np.linalg.norm(u))
    return float(np.max(cset.vertices @ u))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _certified(gap: float, f: float, noise_floor: float) -> bool:
    """Accept weights whose duality gap pins the distance within the tolerance.

    Three sufficient conditions: the gap itself is below tol^2/4 (distance
    error at most tol/sqrt(2) even when the true distance vanishes), the
    objective already puts the iterate within tol/sqrt(2) of the query, or
    the gap is small relative to the current distance (the error bound
    2 gap / distance).  The noise floor absorbs rounding in the gap
    evaluation on ill-conditioned faces, where suboptimality is second
    order in the weight error and the measured gap is pure noise.
    """
    tol = ITERATIVE_TOL
    dist = np.sqrt(max(2.0 * f, 0.0))
    return (gap <= 0.25 * tol * tol + noise_floor
            or dist <= tol / np.sqrt(2.0)
            or gap <= 0.5 * tol * dist)


def _face_refine(gram: np.ndarray, w: np.ndarray, noise_floor: float):
    """Active-set refinement of simplex-constrained weights.

    Alternates equality-constrained face solves with vertex add/drop moves;
    returns certified weights, or None if the move budget runs out first.
    """
    n = gram.shape[0]
    active = np.flatnonzero(w > 1e-12)
    if active.size == 0:
        active = np.array([int(np.argmin(np.diag(gram)))])
    for _ in range(3 * n + 5):
        k = active.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = gram[np.ix_(active, active)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            a = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            a = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        if a.min() < -1e-12:
            if k == 1:
                return None
            active = np.delete(active, int(np.argmin(a)))
            continue
        cand = np.zeros(n)
        cand[active] = np.maximum(a, 0.0)
        cand /= cand.sum()
        grad = gram @ cand
        gap = float(grad @ cand - grad.min())
        if _certified(gap, 0.5 * float(cand @ grad), noise_floor):
            return cand
        entering = int(np.argmin(grad))
        if entering in active:
            return None  # face solve cannot certify; hand back to the outer loop
        active = np.append(active, entering)
    return None


def _project_polytope(point: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Nearest point of conv(vertices) by projected gradient on barycentric weights.

    Works in coordinates centered at the query point, which keeps the
    gradient free of cancellation.  A periodic active-set refinement
    accelerates face identification, and the iterate is returned once its
    simplex duality gap certifies the distance within the tolerance.
    """
    n = vertices.shape[0]
    if n == 1:
        return vertices[0].copy()
    centered = vertices - point
    gram = centered @ centered.T
    lip = float(np.linalg.eigvalsh(gram)[-1])
    if lip <= 0.0:  # every vertex coincides with the query point
        return vertices[0].copy()
    noise_floor = 64.0 * np.finfo(float).eps * lip

    w = np.full(n, 1.0 / n)
    best_w, best_f = w, np.inf
    gap = np.inf
    for it in range(_PG_MAX_ITER):
        grad = gram @ w
        gap = float(grad @ w - grad.min())
        f = 0.5 * float(w @ grad)
        if f < best_f:
            best_f, best_w = f, w
        if _certified(gap, f, noise_floor):
            return point + centered.T @ w
        if it % 25 == 24:
            refined = _face_refine(gram, w, noise_floor)
            if refined is not None:
                return point + centered.T @ refined
        w = _project_simplex(w - grad / lip)
    refined = _face_refine(gram, best_w, noise_floor)
    if refined is not None:
        return point + centered.T @ refined
    raise ProjectionError(
        f"polytope projection did not certify within {_PG_MAX_ITER} iterations",
        best_point=point + centered.T @ best_w,
        gap=gap,
    )


def project(point, cset: ConvexCompactSet) -> np.ndarray:
    """Nearest point of the set; unique because the Euclidean norm is strictly convex."""
    p = as_point(point, cset.dim)
    if isinstance(cset, Singleton):
        return cset.point.copy()
    if isinstance(cset, Ball):
        v = p - cset.center
        nv = float(np.linalg.norm(v))
        if nv <= cset.radius:
            return p.copy()
        return cset.center + (cset.radius / nv) * v
    return _project_polytope(p, cset.vertices)


def distance_to(point, cset: ConvexCompactSet) -> float:
    """Euclidean distance inf_{x in set} ||point - x||; zero iff the point belongs."""
    p = as_point(point, cset.dim)
    if isinstance(cset, Singleton):
        return float(np.linalg.norm(p - cset.point))
    if isinstance(cset, Ball):
        return max(0.0, float(np.linalg.norm(p - cset.center)) - cset.radius)
    return float(np.linalg.norm(p - _project_polytope(p, cset.vertices)))


def _polytope_depth(center: np.ndarray, poly: Polytope) -> float:
    """Signed depth of a point in a polytope.

    Positive inside (radius of the largest inscribed ball centered there),
    negative outside (minus the distance to the polytope), zero on the
    boundary or whenever the polytope has empty interior.
    """
    d_out = distance_to(center, poly)
    if d_out > ITERATIVE_TOL:
        return -d_out
    v = poly.vertices
    d = poly.dim
    if d == 1:
        lo, hi = float(v.min()), float(v.max())
        return max(0.0, min(center[0] - lo, hi - center[0]))
    centered = v - v.mean(axis=0)
    if v.shape[0] <= d or np.linalg.matrix_rank(centered, tol=1e-9) < d:
        return 0.0  # flat polytope: some normal direction has zero support
    try:
        from scipy.spatial import ConvexHull, QhullError

        hull = ConvexHull(v)
    except QhullError:
        return 0.0
    # qhull equations n.x + b <= 0 inside, with unit normals n
    margins = -(hull.equations[:, :-1] @ center + hull.equations[:, -1])
    return max(0.0, float(margins.min()))


def hausdorff(a: ConvexCompactSet, b: ConvexCompactSet) -> float:
    """Hausdorff distance max(sup_{x in a} d(x,b), sup_{y in b} d(y,a)).

    Every variant pair admits an exact evaluation: balls and singletons in
    closed form, polytopes by projecting extreme points (the supremum of a
    convex distance function over a convex compact is attained at them),
    and the ball-into-polytope direction through the signed depth of the
    ball's center.
    """
    _check_dims(a, b)
    if isinstance(a, Polytope) and not isinstance(b, Polytope):
        return hausdorff(b, a)
    if isinstance(a, Ball) and isinstance(b, Singleton):
        return hausdorff(b, a)

    if isinstance(a, Singleton):
        if isinstance(b, Singleton):
            return float(np.linalg.norm(a.point - b.point))
        if isinstance(b, Ball):
            return float(np.linalg.norm(a.point - b.center)) + b.radius
        d_in = distance_to(a.point, b)
        d_back = float(np.max(np.linalg.norm(b.vertices - a.point, axis=1)))
        return max(d_in, d_back)

    if isinstance(a, Ball):
        if isinstance(b, Ball):
            gap = float(np.linalg.norm(a.center - b.center))
            return gap + abs(a.radius - b.radius)
        # b is a polytope
        vert_dists = np.linalg.norm(b.vertices - a.center, axis=1)
        poly_to_ball = max(0.0, float(vert_dists.max()) - a.radius)
        ball_to_poly = max(0.0, a.radius - _polytope_depth(a.center, b))
        return max(poly_to_ball, ball_to_poly)

    # polytope vs polytope
    d_ab = max(distance_to(v, b) for v in a.vertices)
    d_ba = max(distance_to(v, a) for v in b.vertices)
    return max(d_ab, d_ba)


def magnitude(cset: ConvexCompactSet) -> float:
    """Magnitude sup_{x in set} ||x||, i.e. the Hausdorff distance to {0}."""
    return hausdorff(cset, Singleton(np.zeros(cset.dim)))


def direction_net(dim: int, n_directions: int | None = None) -> np.ndarray:
    """Deterministic unit-direction net, default resolution 64 * dim.

    In the plane the net is the evenly spaced angular grid; in higher
    dimension a fixed-seed Gaussian sample is normalized, which keeps the
    net reproducible and resolution-controlled.
    """
    n = 64 * dim if n_directions is None else int(n_directions)
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(171717)
    u = rng.standard_normal((n, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def support_gap(a: ConvexCompactSet, b: ConvexCompactSet,
                directions: np.ndarray | None = None) -> float:
    """Max |h_a(u) - h_b(u)| over a direction net; zero iff the sets agree on it."""
    _check_dims(a, b)
    if directions is None:
        directions = direction_net(a.dim)
    return max(abs(support(a, u) - support(b, u)) for u in directions)


@dataclass(frozen=True)
class SetValuedSpec:
    """Affine-center set-valued map (t, y, z) -> shape translated to c0(t) + Ay.y + Az.z.

    The shape (singleton, fixed-radius ball, or fixed vertex offsets) does not
    depend on (t, y, z), so the map is Lipschitz in Hausdorff distance with
    constant at most max(||Ay||, ||Az||); ``lipschitz_k`` records the declared
    bound used by the solver schedule.
    """

    dim: int
    shape: str  # "singleton" | "ball" | "polytope"
    a_y: np.ndarray
    a_z: np.ndarray
    lipschitz_k: float
    c0: Union[np.ndarray, Callable[[float], np.ndarray], None] = None
    radius: float = 0.0
    offsets: np.ndarray | None = None

    def __post_init__(self):
        if self.shape not in ("singleton", "ball", "polytope"):
            raise ValueError(f"unknown shape {self.shape!r}")
        for name in ("a_y", "a_z"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (self.dim, self.dim) or not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be a finite {self.dim}x{self.dim} matrix")
            object.__setattr__(self, name, _frozen(m))
        k = float(self.lipschitz_k)
        if not np.isfinite(k) or k < 0.0:
            raise ValueError("declared Lipschitz constant must be finite and >= 0")
        object.__setattr__(self, "lipschitz_k", k)
        if self.shape == "ball":
            r = float(self.radius)
            if not np.isfinite(r) or r < 0.0:
                raise ValueError("ball radius must be finite and >= 0")
            object.__setattr__(self, "radius", r)
        if self.shape == "polytope":
            if self.offsets is None:
                raise ValueError("polytope shape requires vertex offsets")
            off = np.asarray(self.offsets, dtype=float)
            if off.ndim != 2 or off.shape[1] != self.dim or off.shape[0] < 1:
                raise ValueError("offsets must be a nonempty (n, d) array")
            object.__setattr__(self, "offsets", _frozen(off))
        if self.c0 is not None and not callable(self.c0):
            object.__setattr__(self, "c0", _frozen(as_point(self.c0, self.dim)))

    def center(self, t: float, y, z) -> np.ndarray:
        return self.center_batch(t, as_point(y, self.dim), as_point(z, self.dim))

    def center_batch(self, t, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Centers for state arrays of shape (..., d).

        ``t`` is one time for every state, or one time per node when the
        states are an (n, M, d) stack over n grid nodes.
        """
        c = y @ self.a_y.T
        if callable(self.c0):
            c0 = np.array([as_point(self.c0(float(s)), self.dim) for s in np.ravel(t)])
            c = (c0[:, None, :] if np.ndim(t) else c0[0]) + c
        elif self.c0 is not None:
            c = self.c0 + c
        return c + z @ self.a_z.T

    def set_at(self, t: float, y, z) -> ConvexCompactSet:
        c = self.center(t, y, z)
        if self.shape == "singleton":
            return Singleton(c)
        if self.shape == "ball":
            return Ball(c, self.radius)
        return Polytope(c + self.offsets)


def probe_lipschitz(spec: SetValuedSpec, n_samples: int, seed: int,
                    t_range: tuple[float, float] = (0.0, 1.0),
                    scale: float = 1.0) -> float:
    """Empirical lower estimate of the Hausdorff-Lipschitz constant of the map.

    Draws stratified random argument pairs (vary y only, vary z only, move
    both by a common offset) and returns the largest observed ratio
    hausdorff(G(t,y,z), G(t,y',z')) / (||y-y'|| + ||z-z'||).  The result
    validates a declared constant; it cannot certify it.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = spec.dim
    worst = 0.0
    for i in range(n_samples):
        for _ in range(100):
            t = rng.uniform(*t_range)
            y = scale * rng.standard_normal(d)
            z = scale * rng.standard_normal(d)
            mode = i % 3
            if mode == 0:
                y2, z2 = y + scale * rng.standard_normal(d), z
            elif mode == 1:
                y2, z2 = y, z + scale * rng.standard_normal(d)
            else:
                h = scale * rng.standard_normal(d)
                y2, z2 = y + h, z + h
            denom = float(np.linalg.norm(y - y2) + np.linalg.norm(z - z2))
            if denom > 1e-12:
                break
        else:
            continue  # hopeless degenerate stream; skip this sample
        num = hausdorff(spec.set_at(t, y, z), spec.set_at(t, y2, z2))
        worst = max(worst, num / denom)
    return worst
