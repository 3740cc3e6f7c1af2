"""Convex-compact set calculus in Euclidean state space.

Sets come in three variants (singleton, ball, polytope), all with exact
support functions and nearest-point projections.  Projection and distance
take one point or an (..., d) stack through one code path per shape, so a
point's result does not depend on the stack it came in.  On top of those
this module provides the Hausdorff distance, the set magnitude sup-norm,
and a sampling probe for the Lipschitz constant of affine set-valued maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Union

import numpy as np

# Geometric tolerance: every evaluation here is exact up to rounding.
CLOSED_FORM_TOL = 1e-9

# A polytope projection evaluates every vertex subset of size <= d + 1 on
# every point, so larger vertex sets are rejected rather than slowed down.
MAX_FACE_SUBSETS = 4096

# Point x face x vertex x coordinate entries evaluated at once; bounds the
# temporaries of a polytope projection over a large stack.
_CHUNK_ENTRIES = 1 << 16


def _stack(x, dim: int | None) -> np.ndarray:
    """One point (d,) or a stack of them (..., d), finite or not."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if dim is not None and p.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[-1]}")
    return p


def as_points(x, dim: int | None = None) -> np.ndarray:
    """Validate and return one finite point (d,) or a stack of them (..., d)."""
    p = _stack(x, dim)
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float vector."""
    p = as_points(x, dim)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"expected a 1-D point, got shape {p.shape}")
    return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _dot_last(a: np.ndarray, b) -> np.ndarray:
    """sum_i a[..., i] * b[..., i] in index order, which numpy's reductions
    may change with the array layout; a point's result then never depends
    on the stack it is evaluated in, and no full product array is built."""
    out = np.zeros(np.broadcast_shapes(a.shape, np.shape(b))[:-1])
    for i in range(a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis; a finite vector whose sum of
    squares overflows is measured in units of its largest |coordinate|."""
    with np.errstate(over="ignore"):
        sq = _dot_last(v, v)
        np.sqrt(sq, out=sq)
        if not sq.max(initial=0.0) < np.inf:  # one reduction when all is finite
            far = np.isinf(sq) & np.isfinite(v).all(axis=-1)
            unit = np.abs(v[far]).max(axis=-1, initial=0.0)[:, None]
            w = v[far] / unit
            sq[far] = unit[:, 0] * np.sqrt(_dot_last(w, w))
    return sq


@dataclass(frozen=True)
class Singleton:
    """One-point set {point}."""

    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", _frozen(as_point(self.point)))

    @property
    def dim(self) -> int:
        return self.point.size

    def translate(self, shift) -> Singleton:
        return Singleton(self.point + as_point(shift, self.dim))

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        # 0 * p keeps a non-finite coordinate non-finite and is exact otherwise
        out = p * 0.0
        out += self.point
        return out


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

    def translate(self, shift) -> Ball:
        return Ball(self.center + as_point(shift, self.dim), self.radius)

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        v = p - self.center
        nv, r = _norm(v)[..., None], self.radius
        # in place: the solver passes whole (n, M, d) stacks
        scale = np.maximum(nv, 1e-300)
        np.divide(r, scale, out=scale)
        scale[nv <= r] = 1.0
        v *= scale
        v += self.center
        return v


def _face_table(vertices: np.ndarray) -> tuple:
    """Per subset size k, the affinely independent vertex subsets as
    (first, weights, proj): for subset f with first vertex v0 and edge matrix
    E (rows v_i - v0), weights[f] = [pinv(E^T); minus the sum of its rows]
    (k x d) maps p - v0 to the barycentric weights of v_1..v_{k-1} and, less
    1, of v0, and proj[f] (d x d) projects onto span(E).  Neither moves with
    the polytope, so translates share the table."""
    n, d = vertices.shape
    sizes = range(1, min(n, d + 1) + 1)
    count = sum(math.comb(n, k) for k in sizes)
    if count > MAX_FACE_SUBSETS:
        raise ValueError(
            f"polytope with {n} vertices in dimension {d} has {count} vertex "
            f"subsets of size <= {d + 1}; at most {MAX_FACE_SUBSETS} are supported")
    groups = []
    for k in sizes:
        idx = np.array(list(combinations(range(n), k)))
        edges = vertices[idx[:, 1:]] - vertices[idx[:, :1]]
        u, s, vt = np.linalg.svd(edges, full_matrices=False)
        # rank k - 1 by numpy's matrix_rank rule; the floor d * tiny keeps
        # every entry of the pseudo-inverse (at most d / s_min) finite
        tol = np.maximum(s[:, :1] * (max(k - 1, d) * np.finfo(float).eps),
                         d * np.finfo(float).tiny)
        keep = np.all(s > tol, axis=1)
        u, s, vt = u[keep], s[keep], vt[keep]
        pinv = (u / s[:, None, :]) @ vt
        weights = np.concatenate([pinv, -pinv.sum(axis=1, keepdims=True)], axis=1)
        groups.append((idx[keep, 0], weights, vt.transpose(0, 2, 1) @ vt))
    return tuple(groups)


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a nonempty list of vertices, one per row.

    Construction builds the face table of the projection once; at most
    ``MAX_FACE_SUBSETS`` vertex subsets of size <= d + 1 are accepted.
    """

    vertices: np.ndarray
    _faces: tuple = field(default=(), repr=False, compare=False)  # set by translate

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("polytope needs a nonempty (n, d) vertex array")
        if not np.all(np.isfinite(v)):
            raise ValueError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", _frozen(v))
        object.__setattr__(self, "_faces", self._faces or _face_table(self.vertices))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def translate(self, shift) -> Polytope:
        """The set moved by ``shift``, sharing this polytope's face table."""
        return Polytope(self.vertices + as_point(shift, self.dim), self._faces)

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        """Nearest points by enumeration of the face table.

        A candidate projects p onto the affine hull of one vertex subset and
        is admissible when its barycentric weights are >= 0 (it lies in the
        polytope); by Caratheodory the projection is one of them.  It is the
        only point x of the polytope with max_v <v - x, p - x> <= 0, a
        maximum positive elsewhere, so the admissible candidate minimising
        it is kept; squared distances, which differ by only delta^2 along
        the boundary, would lose it to rounding."""
        d = self.dim
        verts = self.vertices
        flat = p.reshape(-1, d)
        out = np.empty_like(flat)
        n_faces = sum(first.size for first, _, _ in self._faces)
        step = max(1, _CHUNK_ENTRIES // (n_faces * len(verts) * d))
        for lo in range(0, len(flat), step):
            q = flat[lo:lo + step, None, :]
            cands, scores = [], []
            for first, weights, proj in self._faces:
                v0 = verts[first]
                r = q - v0
                x = v0 + _dot_last(proj, r[..., None, :])
                with np.errstate(over="ignore", invalid="ignore"):
                    lam = _dot_last(weights, r[..., None, :])
                    lam[..., -1] += 1.0
                    ok = np.all(lam >= 0.0, axis=-1)
                    kkt = _dot_last(verts - x[..., None, :], (q - x)[..., None, :])
                cands.append(x)
                scores.append(np.where(ok, kkt.max(axis=-1), np.inf))
            best = np.argmin(np.concatenate(scores, axis=1), axis=1)
            out[lo:lo + step] = np.concatenate(cands, axis=1)[np.arange(len(best)), best]
        return out.reshape(p.shape)


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


def project(point, cset: ConvexCompactSet) -> np.ndarray:
    """Nearest point of the set to one point (d,) or to each point of an
    (..., d) stack; unique because the Euclidean norm is strictly convex.

    No finiteness scan: a point with a non-finite coordinate gets a
    non-finite nearest point, without a warning, and the caller's own check
    of its results sees it."""
    p = _stack(point, cset.dim)
    with np.errstate(invalid="ignore"):
        return cset._nearest(p)


def distance_to(point, cset: ConvexCompactSet):
    """Euclidean distance inf_{x in set} ||point - x||, zero iff the point
    belongs (up to rounding); a float for one point, an array for a stack."""
    p = as_points(point, cset.dim)
    dist = _norm(p - cset._nearest(p))
    return float(dist) if dist.ndim == 0 else dist


def _polytope_depth(center: np.ndarray, poly: Polytope) -> float:
    """Signed depth of a point in a polytope.

    Positive inside (radius of the largest inscribed ball centered there),
    negative outside (minus the distance to the polytope), zero on the
    boundary or whenever the polytope has empty interior.
    """
    v = poly.vertices
    d = poly.dim
    margin = 0.0  # flat polytope: some normal direction has zero support
    if d == 1:
        margin = min(center[0] - v.min(), v.max() - center[0])
    elif v.shape[0] > d and np.linalg.matrix_rank(v - v.mean(axis=0), tol=1e-9) == d:
        from scipy.spatial import ConvexHull, QhullError

        try:
            eq = ConvexHull(v).equations
            # qhull equations n.x + b <= 0 inside, with unit normals n
            margin = float(np.min(-(eq[:, :-1] @ center + eq[:, -1])))
        except QhullError:
            pass
    return float(margin) if margin > 0.0 else -distance_to(center, poly)


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
        a = Polytope(a.point)  # b is a polytope

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
    return max(float(np.max(distance_to(a.vertices, b))),
               float(np.max(distance_to(b.vertices, a))))


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
    """Affine-center set-valued map (t, y, z) -> base + c0(t) + Ay.y + Az.z.

    The base set (the point 0, the ball B(0, radius), or the polytope of the
    vertex offsets) is built once and does not depend on (t, y, z), so the
    map is Lipschitz in Hausdorff distance with constant at most
    max(||Ay||, ||Az||); ``lipschitz_k`` records the declared bound used by
    the solver schedule.
    """

    dim: int
    shape: str  # "singleton" | "ball" | "polytope"
    a_y: np.ndarray
    a_z: np.ndarray
    lipschitz_k: float
    c0: Union[np.ndarray, Callable[[float], np.ndarray], None] = None
    radius: float = 0.0
    offsets: np.ndarray | None = None
    base: ConvexCompactSet = field(init=False, repr=False, compare=False)

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
        if self.shape == "singleton":
            base = Singleton(np.zeros(self.dim))
        elif self.shape == "ball":
            base = Ball(np.zeros(self.dim), self.radius)
            object.__setattr__(self, "radius", base.radius)
        else:
            if self.offsets is None:
                raise ValueError("polytope shape requires vertex offsets")
            off = np.asarray(self.offsets, dtype=float)
            if off.ndim != 2 or off.shape[1] != self.dim or off.shape[0] < 1:
                raise ValueError("offsets must be a nonempty (n, d) array")
            base = Polytope(off)
            object.__setattr__(self, "offsets", base.vertices)
        object.__setattr__(self, "base", base)
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
        return self.base.translate(self.center(t, y, z))


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
