"""Convex-compact set calculus in Euclidean state space.

Sets come in two shapes, ``Ball`` and ``Polytope``; a ``Singleton`` is the
ball of radius 0, with nearest points of its own.  Each shape answers every
geometric question about itself for a whole (..., d) stack through one code
path, so a point's result does not depend on the stack it came in:
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

# A polytope's face table holds its vertex subsets of size <= d + 1, and a
# projection scores the ones on a facet (all of them for a polytope without
# interior) on every point outside it, so larger vertex sets are rejected
# rather than slowed down.
MAX_FACE_SUBSETS = 4096

# Point x face x coordinate entries evaluated at once; bounds the
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


def _dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] * b[..., i] in index order, which numpy's reductions
    may change with the array layout; a point's result then never depends
    on the stack it is evaluated in, and no full product array is built."""
    out = np.zeros(np.broadcast(a[..., 0], b[..., 0]).shape)
    for i in range(a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _abs_max_last(a: np.ndarray) -> np.ndarray:
    """max_i |a[..., i]| in index order, as ``_dot_last``; NaN in a NaN row."""
    out = np.zeros(a.shape[:-1])
    for i in range(a.shape[-1]):
        np.maximum(out, np.abs(a[..., i]), out=out)
    return out


def _unit_exponent(vertices: np.ndarray):
    """The e with the extent in [2^(e - 1), 2^e): the unit of a polytope's
    face table, normals and scores, so a scaling by 2^s scales them exactly."""
    return np.frexp(np.ptp(vertices, axis=0).max())[1]


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # smaller norms lost bits to underflow


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis; a finite nonzero vector whose
    squares over- or underflow is measured in the power-of-two unit of its
    largest |coordinate|, which gives the bits of the in-range formula."""
    with np.errstate(over="ignore"):
        sq = _dot_last(v, v)
        np.sqrt(sq, out=sq)
        # two reductions when every norm is in range, three for all zeros
        if (not _SQRT_TINY <= sq.min(initial=np.inf) <= sq.max(initial=0.0) < np.inf
                and v.any()):
            unit = _abs_max_last(v)
            off = (0.0 < unit) & (unit < np.inf) & ~((_SQRT_TINY <= sq) & (sq < np.inf))
            e = np.frexp(unit[off])[1]
            w = np.ldexp(v[off], -e[:, None])
            sq[off] = np.ldexp(np.sqrt(_dot_last(w, w)), e)
    return sq


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
        return _dot_last(self.center, u) + self.radius * _norm(u)

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
        # a NaN norm, and r over a subnormal |v| overflows to inf: kept too
        scale = _norm(v)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(self.radius, scale, out=scale)
        np.fmin(scale, 1.0, out=scale)
        for i, c in enumerate(self.center):
            v[..., i] *= scale
            v[..., i] += c
        return v


class Singleton(Ball):
    """One-point set {point}: the ball of radius 0 about it, with nearest
    points of its own.  They skip the ball's norm and scale, and beside a NaN
    coordinate of p they keep the point's coordinates, where the ball's
    formula keeps p's."""

    def __init__(self, point):
        Ball.__init__(self, point, 0.0)

    def translate(self, shift) -> Singleton:
        return Singleton(self.center + as_point(shift, self.dim))

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        # 0 * p keeps a non-finite coordinate non-finite and is exact otherwise;
        # the point is added one coordinate at a time, as in Ball._nearest
        out = p * 0.0
        for i, c in enumerate(self.center):
            out[..., i] += c
        return out


def _face_table(vertices: np.ndarray) -> tuple:
    """Per subset size k, the affinely independent vertex subsets as
    (idx, weights, proj): for subset f with vertex indices idx[f], first
    vertex v0 and edge matrix E (rows v_i - v0), weights[f] = [pinv(E^T);
    minus the sum of its rows] (k x d) maps p - v0 to the barycentric
    weights of v_1..v_{k-1} and, less 1, of v0, and proj[f] (d x d) projects
    onto span(E).  Neither moves with the polytope, so translates share the
    table."""
    n, d = vertices.shape
    sizes = range(1, min(n, d + 1) + 1)
    count = sum(math.comb(n, k) for k in sizes)
    if count > MAX_FACE_SUBSETS:
        raise ValueError(
            f"polytope with {n} vertices in dimension {d} has {count} vertex "
            f"subsets of size <= {d + 1}; at most {MAX_FACE_SUBSETS} are supported")
    e = _unit_exponent(vertices)
    groups = []
    for k in sizes:
        idx = np.array(list(combinations(range(n), k)))
        edges = np.ldexp(vertices[idx[:, 1:]] - vertices[idx[:, :1]], -e)
        u, s, vt = np.linalg.svd(edges, full_matrices=False)
        # rank k - 1 by numpy's matrix_rank rule; the floor d * tiny, in the
        # vertices' units, keeps every entry of the pseudo-inverse finite
        tol = np.maximum(s[:, :1] * (max(k - 1, d) * np.finfo(float).eps),
                         np.ldexp(d * np.finfo(float).tiny, -e))
        keep = np.all(s > tol, axis=1)
        u, s, vt = u[keep], s[keep], vt[keep]
        pinv = (u / s[:, None, :]) @ vt
        weights = np.concatenate([pinv, -pinv.sum(axis=1, keepdims=True)], axis=1)
        groups.append((idx[keep], np.ldexp(weights, -e), vt.transpose(0, 2, 1) @ vt))
    return tuple(groups)


def _hull(vertices: np.ndarray, faces: tuple) -> tuple:
    """Outward unit normals (F, d) of the facets, and the face table cut to
    the faces that lie on a facet, all of it that a projection reads.

    A d-subset of the table spans a facet when every vertex lies on one side
    of its hyperplane, and a face lies on a facet when all its vertices do,
    both up to ``CLOSED_FORM_TOL`` times the polytope's extent.  The
    tolerance can only add hyperplanes that nearly touch the polytope, and
    faces on them: their halfspaces still hold every vertex, and their faces
    are points of the polytope.  A facet with more than d vertices is listed
    once per d-subset of them.  Without an affinely independent (d + 1)-subset
    the polytope has no interior and no facets, and its whole table is
    boundary.  Neither part moves with the polytope, so translates share it."""
    d = vertices.shape[1]
    if len(faces) <= d or not len(faces[d][0]):
        return np.zeros((0, d)), faces
    idx = faces[d - 1][0]
    base = vertices[idx[:, 0]]
    # the last right singular vector of the d - 1 edges is their normal
    edges = np.ldexp(vertices[idx[:, 1:]] - base[:, None], -_unit_exponent(vertices))
    normals = np.linalg.svd(edges)[2][:, -1]
    side = np.einsum("fvi,fi->fv", vertices - base[:, None], normals)
    tol = CLOSED_FORM_TOL * np.ptp(vertices, axis=0).max()
    below, above = side.max(axis=1) <= tol, side.min(axis=1) >= -tol
    on = np.abs(np.concatenate([side[below], side[above]])) <= tol
    boundary = tuple((i[m], w[m], p[m]) for i, w, p in faces[:d]
                     for m in [np.any(np.all(on[:, i], axis=2), axis=0)])
    return np.concatenate([normals[below], -normals[above]]), boundary


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a nonempty list of vertices, one per row.

    Construction builds the face table of the projection once and keeps
    only ``_hull`` of it, the facets and the faces on them; at most
    ``MAX_FACE_SUBSETS`` vertex subsets of size <= d + 1 are accepted.
    """

    vertices: np.ndarray
    _hull: tuple = field(default=(), repr=False, compare=False)  # set by translate

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("polytope needs a nonempty (n, d) vertex array")
        if not np.all(np.isfinite(v)):
            raise ValueError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", _frozen(v))
        object.__setattr__(self, "_hull", self._hull
                           or _hull(self.vertices, _face_table(self.vertices)))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def translate(self, shift) -> Polytope:
        """The set moved by ``shift``, sharing this polytope's facets and faces."""
        return Polytope(self.vertices + as_point(shift, self.dim), self._hull)

    @property
    def _balls(self) -> tuple:
        return self.vertices, np.zeros(len(self.vertices))

    def _support(self, u: np.ndarray) -> np.ndarray:
        return _dot_last(self.vertices, u[..., None, :]).max(axis=-1)

    def _heights(self, p: np.ndarray) -> np.ndarray:
        """n.(p - v0) for each facet normal n and each point of an (m, d)
        array, v0 the first vertex: (F, m), a point's values never depending
        on the array it is in."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _dot_last(self._hull[0][:, None, :], p - self.vertices[0])

    @cached_property
    def _facets(self) -> tuple:
        """Outward unit normals (F, d) and offsets (F,), with the polytope
        the set of x where n.(x - v0) <= b for every pair.  An offset is the
        largest height of a vertex, computed as a point's is, so every vertex
        meets every inequality."""
        return self._hull[0], self._heights(self.vertices).max(axis=1)

    def _excess(self, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """A ball B(c, r) centred outside or on the boundary reaches r + d(c, P)
        from the polytope; one centred at depth h > 0 inside, h the distance
        from c to the nearest facet hyperplane, reaches max(0, r - h)."""
        out = _norm(centres - self._nearest(centres)) + radii
        normals, offsets = self._facets
        if radii.any() and len(normals):
            depth = np.min(offsets[:, None] - self._heights(centres), axis=0)
            out = np.where(depth > 0.0, np.maximum(radii - depth, 0.0), out)
        return out

    def _nearest(self, p: np.ndarray) -> np.ndarray:
        """Nearest points, ``_CHUNK_ENTRIES // (d x boundary faces)`` at a
        time: a point that meets every facet inequality is its own, bitwise;
        the others go to ``_enumerate`` over the boundary faces, where by
        Caratheodory the nearest point of an outside point lies.  Without
        interior there are no facets and the whole table is boundary.  There
        are at most twice as many facets as boundary faces, so the heights
        are bounded too."""
        flat = p.reshape(-1, self.dim)
        normals, offsets = self._facets
        faces = self._hull[1]
        step = max(1, _CHUNK_ENTRIES // (sum(len(idx) for idx, _, _ in faces) * self.dim))
        out = flat.copy()
        for lo in range(0, len(flat), step):
            chunk = flat[lo:lo + step]
            # NaN heights, of non-finite or overflowing points, fail the test
            inside = (np.all(self._heights(chunk) <= offsets[:, None], axis=0)
                      & bool(len(normals)))
            out[lo:lo + step][~inside] = self._enumerate(chunk[~inside], faces)
        return out.reshape(p.shape)

    def _enumerate(self, flat: np.ndarray, faces: tuple) -> np.ndarray:
        """Nearest points of the points ``flat`` (m, d) by enumeration of the
        face table ``faces``, in one pass of m x faces x d entries, so the
        caller bounds m; with the whole table it is exact for every point.

        A candidate projects p onto the affine hull of one vertex subset and
        is admissible when its barycentric weights are >= 0 (it lies in the
        polytope); by Caratheodory the projection is one of them.  It is the
        only point x of the polytope with max_v <v - x, p - x> <= 0, a
        maximum positive elsewhere, so the admissible candidate minimising
        it is kept; squared distances, which differ by only delta^2 along
        the boundary, would lose it to rounding.

        The two factors of a score are within a small multiple of the
        polytope's extent and of a point's reach (its largest coordinate
        distance from vertex 0, or the extent); a score in units of both
        neither under- nor overflows, and moves by an exact power of two.
        Every quantity is per point, so a point's result does not depend on
        the others in ``flat``."""
        verts = self.vertices
        extent = np.ptp(verts, axis=0).max()
        reach = np.maximum(_abs_max_last(flat - verts[0]), extent)
        shift = -(np.frexp(extent)[1] + np.frexp(reach)[1])[:, None, None]
        q = flat[:, None, :]
        cands, scores = [], []
        for idx, weights, proj in faces:
            v0 = verts[idx[:, 0]]
            r = q - v0
            x = v0 + _dot_last(proj, r[..., None, :])
            with np.errstate(over="ignore", invalid="ignore"):
                lam = _dot_last(weights, r[..., None, :])
                lam[..., -1] += 1.0
                ok = np.all(lam >= 0.0, axis=-1)
                # the largest <v - x, q - x>, one vertex v at a time
                w = np.ldexp(q - x, shift)
                kkt = np.full(ok.shape, -np.inf)
                for v in verts:
                    np.maximum(kkt, _dot_last(v - x, w), out=kkt)
            cands.append(x)
            scores.append(np.where(ok, kkt, np.inf))
        best = np.argmin(np.concatenate(scores, axis=1), axis=1)
        return np.concatenate(cands, axis=1)[np.arange(len(best)), best]


ConvexCompactSet = Union[Ball, Polytope]


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
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
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
