"""Convex-compact set calculus in Euclidean state space.

Sets come in three shapes (``Singleton``, ``Ball``, ``Polytope``).  Each answers
every geometric question about itself for a whole (..., d) stack through one
code path, so a point's result does not depend on the stack it came in:
its nearest points, its support function, its description as the convex
hull of a few balls, and the excess of each of a list of balls over it.  On
top of those this module provides the Hausdorff distance, which asks no set
for its shape, and the affine set-valued maps ``SetValuedSpec``, whose
Hausdorff-Lipschitz constant is a formula in their two linear maps.  Every
Euclidean norm goes through ``_norm``, which does not overflow or underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # smaller norms lost bits to underflow


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis; a finite nonzero vector whose
    squares over- or underflow is measured in its largest |coordinate|."""
    with np.errstate(over="ignore"):
        sq = _dot_last(v, v)
        np.sqrt(sq, out=sq)
        # two reductions when every norm is in range, three for all zeros
        if (not _SQRT_TINY <= sq.min(initial=np.inf) <= sq.max(initial=0.0) < np.inf
                and v.any()):
            unit = np.abs(v).max(axis=-1, initial=0.0)  # NaN in a NaN row
            off = (0.0 < unit) & (unit < np.inf) & ~((_SQRT_TINY <= sq) & (sq < np.inf))
            w = v[off] / unit[off, None]
            sq[off] = unit[off] * np.sqrt(_dot_last(w, w))
    return sq


def _dots(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<x, u> for a point or rows x (..., d) and each direction of a stack u
    (..., d): one matrix-vector product per direction, so a direction's
    values do not depend on the stack it came in."""
    return (x @ u[..., None])[..., 0]


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

    @property
    def _balls(self) -> tuple:
        return self.point[None], np.zeros(1)

    def _support(self, u: np.ndarray) -> np.ndarray:
        return _dots(self.point, u)

    def _excess(self, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
        return _norm(centres - self.point) + radii

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        # 0 * p keeps a non-finite coordinate non-finite and is exact otherwise;
        # the point is added one coordinate at a time, as in Ball._nearest
        out = p * 0.0
        for i, c in enumerate(self.point):
            out[..., i] += c
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

    @property
    def _balls(self) -> tuple:
        return self.center[None], np.array([self.radius])

    def _support(self, u: np.ndarray) -> np.ndarray:
        return _dots(self.center, u) + self.radius * _norm(u)

    def _excess(self, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
        # |p - c| + (r - s), not r - (s - |p - c|): translates of one ball then
        # give their gap exactly, however small against the radius
        return np.maximum(_norm(centres - self.center) + (radii - self.radius), 0.0)

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        # one coordinate at a time: broadcasting the (d,) centre or a
        # (..., 1) factor runs numpy's inner loop over d entries per point
        v = np.empty_like(p)
        for i, c in enumerate(self.center):
            np.subtract(p[..., i], c, out=v[..., i])
        # scale by min(1, r/|v|) in place; fmin keeps the point for 0/0 and
        # a NaN norm
        scale = _norm(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.radius, scale, out=scale)
        np.fmin(scale, 1.0, out=scale)
        for i, c in enumerate(self.center):
            v[..., i] *= scale
            v[..., i] += c
        return v


# Score factors with entries inside this range multiply and sum in full
# precision, without under- or overflow.
_FACTOR_RANGE = (2.0 ** -450, 2.0 ** 450)


def _binary_exponent(scale):
    """For each scale outside ``_FACTOR_RANGE``, the power of two that brings
    it into [0.5, 1); 0 inside the range, at 0 and for a non-finite scale."""
    lo, hi = _FACTOR_RANGE
    return np.where((scale > hi) | ((0.0 < scale) & (scale < lo)), np.frexp(scale)[1], 0)


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

    @property
    def _balls(self) -> tuple:
        return self.vertices, np.zeros(len(self.vertices))

    def _support(self, u: np.ndarray) -> np.ndarray:
        return _dots(self.vertices, u).max(axis=-1)

    def _excess(self, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """A ball B(c, r) centred outside or on the boundary reaches r + d(c, P)
        from the polytope; one centred at depth h > 0 inside, h the distance
        from c to the nearest facet hyperplane, reaches max(0, r - h)."""
        out = _norm(centres - self._nearest(centres)) + radii
        if radii.any():  # the facets are built only for a ball with room inside
            normals, offsets = self._facets
            depth = np.min(offsets - _dots(normals, centres), axis=-1)
            out = np.where(depth > 0.0, np.maximum(radii - depth, 0.0), out)
        return out

    @cached_property
    def _facets(self) -> tuple:
        """Unit normals (F, d) and offsets (F,) with the polytope the set of
        x where n.x <= b for every pair; a polytope without interior has the
        one pair (0, 0) instead, depth 0 everywhere."""
        v, d = self.vertices, self.dim
        if d == 1:
            return np.array([[-1.0], [1.0]]), np.array([-v.min(), v.max()])
        if len(v) > d and np.linalg.matrix_rank(v - v.mean(axis=0)) == d:
            # imported here alone, so that importing the package loads no scipy
            from scipy.spatial import ConvexHull, QhullError

            # qhull in units of a power of two near max |v|: exact, and it
            # loses precision far from 1
            e = np.frexp(np.abs(v).max())[1]
            try:
                eq = ConvexHull(np.ldexp(v, -e)).equations  # n.x + b <= 0 inside
                return eq[:, :-1], -np.ldexp(eq[:, -1], e)
            except QhullError:
                pass
        return np.zeros((1, d)), np.zeros(1)

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        """Nearest points by enumeration of the face table.

        A candidate projects p onto the affine hull of one vertex subset and
        is admissible when its barycentric weights are >= 0 (it lies in the
        polytope); by Caratheodory the projection is one of them.  It is the
        only point x of the polytope with max_v <v - x, p - x> <= 0, a
        maximum positive elsewhere, so the admissible candidate minimising
        it is kept; squared distances, which differ by only delta^2 along
        the boundary, would lose it to rounding.

        The two factors of a score are within a small multiple of the
        polytope's extent and of a point's reach (its largest coordinate
        distance from vertex 0, or the extent); where their products would
        under- or overflow they are scaled by powers of two, which is exact,
        so in-range points keep their bits."""
        d = self.dim
        verts = self.vertices
        flat = p.reshape(-1, d)
        out = np.empty_like(flat)
        extent = np.ptp(verts, axis=0).max()
        e_vert = _binary_exponent(extent)
        reach = np.abs(flat - verts[0])
        # one reduction at ordinary scales, where no factor leaves the range
        scaled = e_vert != 0 or not reach.max(initial=0.0) <= _FACTOR_RANGE[1]
        if scaled:
            e_point = _binary_exponent(np.maximum(reach.max(axis=-1), extent))[:, None, None]
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
                    if scaled:
                        kkt = _dot_last(np.ldexp(verts - x[..., None, :], -e_vert),
                                        np.ldexp(q - x, -e_point[lo:lo + step])[..., None, :])
                    else:
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
    return float(cset._support(as_point(direction, cset.dim)))


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


def hausdorff(a: ConvexCompactSet, b: ConvexCompactSet) -> float:
    """Hausdorff distance max(sup_{x in a} d(x,b), sup_{y in b} d(y,a)).

    Exact: each set is the convex hull of a few balls (``_balls``), and the
    distance to a convex set is convex, so each supremum is attained on one
    of those balls, where ``_excess`` gives it.
    """
    _check_dims(a, b)
    return float(max(b._excess(*a._balls).max(), a._excess(*b._balls).max()))


def _scalar_of(m: np.ndarray) -> float | None:
    """s when m = s I (0.0 for the zero map), None for any other matrix."""
    s = float(m[0, 0])
    return s if np.array_equal(m, s * np.eye(len(m))) else None


def _apply(m: np.ndarray, s: float | None, x: np.ndarray) -> np.ndarray:
    """x @ m.T for states x (..., d), where ``s`` is ``_scalar_of(m)``.  For
    m = s I it is one multiply, and for finite x the matmul's result bitwise
    up to the sign of a zero: each off-diagonal term adds an exact 0."""
    return x @ m.T if s is None else x * s


@dataclass(frozen=True)
class SetValuedSpec:
    """Affine-center set-valued map (t, y, z) -> base + c0(t) + Ay.y + Az.z.

    Every value is a translate of the base set, and the Hausdorff distance
    between two translates of one set is the length of the shift.  So the
    map's Hausdorff-Lipschitz constant in ||dy|| + ||dz|| is exactly
    ``lipschitz_k`` = max(||Ay||_2, ||Az||_2), attained by moving y alone or
    z alone along a top singular vector; it is computed at construction.
    Construction also decides whether each of Ay and Az is zero, a multiple
    of the identity or dense, so the centres cost what that structure needs.
    """

    base: ConvexCompactSet
    a_y: np.ndarray
    a_z: np.ndarray
    c0: Union[np.ndarray, Callable[[float], np.ndarray], None] = None
    lipschitz_k: float = field(init=False)
    _scales: tuple = field(init=False, repr=False, compare=False)  # of a_y, a_z
    _norms: tuple = field(init=False, repr=False, compare=False)  # of a_y, a_z

    @property
    def dim(self) -> int:
        return self.base.dim

    def __post_init__(self):
        for name in ("a_y", "a_z"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (self.dim, self.dim) or not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be a finite {self.dim}x{self.dim} matrix")
            object.__setattr__(self, name, _frozen(m))
        scales = (_scalar_of(self.a_y), _scalar_of(self.a_z))
        norms = tuple(float(np.linalg.norm(m, 2)) if s is None else abs(s)
                      for m, s in zip((self.a_y, self.a_z), scales))
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "lipschitz_k", max(norms))
        if self.c0 is not None and not callable(self.c0):
            object.__setattr__(self, "c0", _frozen(as_point(self.c0, self.dim)))

    def center_batch(self, t, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Centers for state arrays of shape (..., d).

        ``t`` is one time for every state, or one time per node when the
        states are an (n, M, d) stack over n grid nodes.  A zero Az adds
        nothing, so a non-finite z then leaves the centres finite.
        """
        s_y, s_z = self._scales
        c = _apply(self.a_y, s_y, y)
        c0 = self.c0
        if callable(c0):
            c0 = np.array([as_point(c0(float(s)), self.dim) for s in np.ravel(t)])
            c0 = c0[:, None, :] if np.ndim(t) else c0[0]
        if c0 is not None:  # one coordinate at a time, as in Ball._nearest
            for i in range(self.dim):
                c[..., i] += c0[..., i]
        if s_z != 0.0:
            c += _apply(self.a_z, s_z, z)
        return c
