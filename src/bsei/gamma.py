"""Gaussian-sum norms of finite-rank operators and the window integral.

Operators from L^2(s, t) into R^d are represented by grid samples of their
scalar factors.  The Gaussian-sum norm is computed both by Monte Carlo and
in closed form (in Euclidean range spaces the two must agree), and the
windowed integral satisfies the sqrt(t - s) operator bound by discrete
Cauchy-Schwarz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .paths import BrownianEnsemble, TimeGrid, _physical_memory, ito_integral, lp_l2_norm

_GS_DROP_REL = 1e-10


@dataclass(frozen=True)
class FiniteRankOperator:
    """Sum of rank-one terms h_j (x) e_j over a window [s, t].

    ``h`` holds the scalar factors sampled on the cells of a uniform
    partition of the window (one row per term), ``e`` the range vectors.
    """

    window: tuple
    h: np.ndarray  # (k, n_cells)
    e: np.ndarray  # (k, d)

    def __post_init__(self):
        s, t = float(self.window[0]), float(self.window[1])
        if not 0.0 <= s < t:
            raise ValueError(f"window must satisfy 0 <= s < t, got ({s}, {t})")
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        e = np.atleast_2d(np.asarray(self.e, dtype=float))
        if h.shape[0] != e.shape[0] or 0 in h.shape + e.shape:
            raise ValueError("need matching nonempty term lists")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(e))):
            raise ValueError("operator samples must be finite")
        object.__setattr__(self, "window", (s, t))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "e", e)

    @property
    def cell_width(self) -> float:
        s, t = self.window
        return (t - s) / self.h.shape[1]

    @classmethod
    def indicator(cls, window, cell_mask, e) -> "FiniteRankOperator":
        """The operator 1_A (x) e for A a union of grid cells of the window."""
        mask = np.asarray(cell_mask, dtype=float).reshape(1, -1)
        return cls(window=window, h=mask, e=np.atleast_2d(e))


@dataclass(frozen=True)
class GammaNormEstimate:
    monte_carlo: float
    exact: float
    standard_error: float
    dropped_terms: int


def _orthonormalize(op: FiniteRankOperator):
    """Weighted Gram-Schmidt on the scalar factors.

    Returns the transformed range vectors e~_i such that the operator equals
    sum_i q_i (x) e~_i with orthonormal q_i, plus the count of dropped
    (numerically dependent) terms.  Each term is projected against all the
    accepted q's at once, twice (classical Gram-Schmidt with one
    reorthogonalisation), so a term costs two matrix-vector products.  Once
    the q's span all the cells, every later term is dropped, and one matrix
    product fills in its projections.
    """
    w = op.cell_width
    k = op.h.shape[0]
    r = np.zeros((min(k, op.h.shape[1]), k))  # r[i, j] = <q_i, h_j>, i < n_cells
    qs = np.empty((len(r), op.h.shape[1]))  # the accepted q's in their first rows
    n = 0
    for j in range(k):
        if n == len(qs):
            r[:, j:] = w * qs @ op.h[j:].T
            break
        v = op.h[j].copy()
        orig = np.sqrt(w * (v @ v))
        for _ in range(2):
            c = w * (qs[:n] @ v)
            r[:n, j] += c
            v -= c @ qs[:n]
        nrm = np.sqrt(w * (v @ v))
        # strict: an overflowed term (nrm = orig = inf) is kept, so the result shows it
        if nrm < _GS_DROP_REL * max(orig, 1e-300):
            continue
        qs[n] = v / nrm
        r[n, j] = nrm
        n += 1
    return r[:n] @ op.e, k - n


def gamma_norm(op: FiniteRankOperator, n_gauss: int, seed: int) -> GammaNormEstimate:
    """Gaussian-sum norm (E||sum_i g_i e~_i||^2)^{1/2} of the operator.

    Estimated with ``n_gauss`` >= 2 independent standard Gaussian draws per
    orthonormalized term, and cross-checked against the Euclidean closed
    form (sum_i ||e~_i||^2)^{1/2}.

    The work runs in units of the powers of two 2^a and 2^b nearest above
    the largest |entry| of h and of e, and the window in units of 4^c near
    t - s, so that squares of tiny or huge entries and cell widths stay in
    range; the norms scale by 2^(a + b + c), restored with ldexp.  Powers of
    two scale exactly: wherever the unscaled arithmetic neither underflows
    nor overflows, the results are bitwise the same.  Draws that would not
    fit in physical memory raise ``ConfigError``.
    """
    if n_gauss < 2:
        raise ValueError("n_gauss must be >= 2")
    a, b = (int(np.frexp(np.abs(x).max())[1]) for x in (op.h, op.e))
    c = int(np.frexp(op.window[1] - op.window[0])[1]) // 2
    scaled = replace(op, window=np.ldexp(op.window, -2 * c),
                     h=np.ldexp(op.h, -a), e=np.ldexp(op.e, -b))
    e_tilde, dropped = _orthonormalize(scaled)
    exact = float(np.sqrt(np.sum(e_tilde**2)))
    if e_tilde.shape[0] == 0:
        return GammaNormEstimate(0.0, 0.0, 0.0, dropped)
    need, budget = 8 * n_gauss * sum(e_tilde.shape), _physical_memory()
    if budget is not None and need > budget:  # the draws and their images
        raise ConfigError(f"{n_gauss} draws of {e_tilde.shape[0]} terms need about "
                          f"{need} bytes, more than the {budget} bytes of physical "
                          "memory", field="n_gauss")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_gauss, e_tilde.shape[0]))
    norms_sq = np.sum((draws @ e_tilde) ** 2, axis=1)
    mean_sq = float(norms_sq.mean())
    mc = float(np.sqrt(mean_sq))
    se_mean = float(norms_sq.std(ddof=1) / np.sqrt(n_gauss))
    se = se_mean / (2.0 * mc) if mc > 0.0 else se_mean
    return GammaNormEstimate(*(float(np.ldexp(x, a + b + c)) for x in (mc, exact, se)),
                             dropped)


def kw_integral(f_samples, grid: TimeGrid, s: float, t: float) -> np.ndarray:
    """Left-endpoint quadrature of the vector function f over [s, t].

    ``f_samples`` holds the node values, shape (N + 1, d).  The result obeys
    ||integral|| <= sqrt(t - s) ||f||_{L^2(0,T)} exactly in the discrete norms.
    """
    f = np.atleast_2d(np.asarray(f_samples, dtype=float))
    if f.shape[0] != grid.n_steps + 1:
        raise ValueError("expected one sample per grid node")
    ks, kt = grid.node_index(s), grid.node_index(t)
    if ks >= kt:
        raise ValueError(f"reversed or empty window ({s}, {t})")
    return grid.dt * f[ks:kt].sum(axis=0)


@dataclass(frozen=True)
class IsomorphismReport:
    ratio: float
    numerator: float
    denominator: float
    standard_error: float
    degenerate: bool


def ito_isomorphism_report(phi: np.ndarray, bm: BrownianEnsemble,
                           p: float) -> IsomorphismReport:
    """Ratio (E||int phi dW||^p)^{1/p} / ||phi||_{L^p(Omega;L^2)} for an
    (N + 1, M, d) integrand on the grid of ``bm``.

    Equals one (up to sampling error) at p = 2; for other exponents the
    two-sided equivalence constants are unspecified, so the ratio is
    reported, never asserted.  A zero integrand is flagged and the ratio
    set to one by convention.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    # phi in units of the power of two 2^e above its largest |value|, so no
    # square or p-th power leaves the float range; the norms are scaled back
    e = np.frexp(np.abs(phi).max())[1]
    phi = np.ldexp(phi, -e)
    integral = ito_integral(phi, bm, bm.grid.horizon)
    a = np.sum(integral**2, axis=1) ** (p / 2.0)          # ||I_m||^p
    q = bm.grid.dt * np.sum(phi[:-1] ** 2, axis=(0, 2))
    b = q ** (p / 2.0)
    denominator = lp_l2_norm(phi, bm.grid.dt, p)
    numerator = float(np.mean(a) ** (1.0 / p))
    if denominator == 0.0:
        return IsomorphismReport(1.0, float(np.ldexp(numerator, e)), 0.0, 0.0, True)
    ratio = numerator / denominator
    # delta-method error of (A/B)^{1/p} from the correlated sample means
    m = a.size
    rr = float(np.mean(a) / np.mean(b))
    var_ratio = float(np.mean((a - rr * b) ** 2) / (np.mean(b) ** 2 * m))
    se = ratio * np.sqrt(max(var_ratio, 0.0)) / (p * rr) if rr > 0 else 0.0
    return IsomorphismReport(ratio, float(np.ldexp(numerator, e)),
                             float(np.ldexp(denominator, e)), float(se), False)
