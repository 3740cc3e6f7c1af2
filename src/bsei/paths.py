"""Path-space machinery: Brownian ensembles on a uniform grid, adapted
process storage, the left-endpoint stochastic integral, discrete
L^p(Omega; L^2) norms, least-squares conditional expectations, and the
martingale representation with a strictly lower-triangular kernel.

Randomness comes from numpy's Philox counter-based generator keyed by
(seed, step index), so the draws for a given step never depend on the
number of paths or steps requested elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdaptednessError

_RIDGE_SCALE = 1e-10
_MIN_PATHS_PER_BASIS = 10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k T / N on [0, T]."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        nodes = np.linspace(0.0, self.horizon, self.n_steps + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def node_index(self, t: float) -> int:
        """Grid index of time t; raises for off-grid or out-of-range times."""
        k = t / self.dt
        k_round = int(round(k))
        if abs(k - k_round) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"time {t} is not on the grid")
        if not 0 <= k_round <= self.n_steps:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return k_round


def _philox_normals(seed: int, step: int, n: int) -> np.ndarray:
    key = np.array([seed % (1 << 64), step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


@dataclass(frozen=True)
class BrownianEnsemble:
    """Seeded Gaussian increments dW[k][m] ~ N(0, dt), one stream per step."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray  # (N, M)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.n_steps, self.n_paths):
            raise ValueError("increments must have shape (n_steps, n_paths)")
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        levels = np.zeros((self.grid.n_steps + 1, self.n_paths))
        np.cumsum(inc, axis=0, out=levels[1:])
        levels.setflags(write=False)
        object.__setattr__(self, "_levels", levels)

    @property
    def levels(self) -> np.ndarray:
        """Brownian values W[k][m] at the grid nodes, W[0] = 0."""
        return self._levels

    def resampled_after(self, k_from: int, fresh_seed: int) -> "BrownianEnsemble":
        """Copy with increments at steps >= k_from redrawn under a new seed.

        Used to exercise adaptedness: anything measurable at node k must be
        unchanged when only later increments move.
        """
        sq = np.sqrt(self.grid.dt)
        inc = np.array(self.increments)
        for k in range(max(k_from, 0), self.grid.n_steps):
            inc[k] = sq * _philox_normals(fresh_seed, k, self.n_paths)
        return BrownianEnsemble(self.grid, self.n_paths, fresh_seed, inc)


def simulate_brownian(grid: TimeGrid, n_paths: int, seed: int) -> BrownianEnsemble:
    """Draw a reproducible Brownian increment ensemble on the grid."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    sq = np.sqrt(grid.dt)
    inc = np.empty((grid.n_steps, n_paths))
    for k in range(grid.n_steps):
        inc[k] = sq * _philox_normals(seed, k, n_paths)
    return BrownianEnsemble(grid, n_paths, seed, inc)


@dataclass(frozen=True)
class ProcessEnsemble:
    """Vector-valued process samples X[k][m] on the grid nodes 0, 1, ....

    ``adapted`` declares the left-endpoint adaptedness contract: X[k] may
    depend on increments strictly before node k only.
    """

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, M, d)
    adapted: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise ValueError("values must be a (n_nodes, n_paths, dim) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("process values must be finite")
        if v.shape[0] - 1 > self.grid.n_steps:
            raise ValueError("node range falls outside the grid")
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def from_function(grid: TimeGrid, bm: BrownianEnsemble, fn, dim: int) -> ProcessEnsemble:
    """Adapted ensemble X[k] = fn(k, W_{t_k}); fn returns an (M, dim) array."""
    out = np.empty((grid.n_steps + 1, bm.n_paths, dim))
    for k in range(grid.n_steps + 1):
        out[k] = np.asarray(fn(k, bm.levels[k]), dtype=float).reshape(bm.n_paths, dim)
    return ProcessEnsemble(grid, out)


def ito_integral(step_values: ProcessEnsemble, bm: BrownianEnsemble,
                 upto: float) -> np.ndarray:
    """Per-path integral sum_{k: t_{k+1} <= upto} X[k] dW[k] (left endpoints)."""
    if not step_values.adapted:
        raise AdaptednessError("integrand does not declare adaptedness")
    if step_values.grid != bm.grid or step_values.n_paths != bm.n_paths:
        raise ValueError("integrand and Brownian ensemble live on different grids")
    k_up = bm.grid.node_index(upto)
    if k_up > step_values.n_nodes - 1:
        raise ValueError("integrand does not cover the integration window")
    if k_up == 0:
        return np.zeros((bm.n_paths, step_values.dim))
    return np.einsum("kmd,km->md", step_values.values[:k_up], bm.increments[:k_up])


def lp_l2_norm(x: ProcessEnsemble, p: float) -> float:
    """Sample norm ((1/M) sum_m (sum_k dt ||X[k][m]||^2)^{p/2})^{1/p}.

    Left-endpoint convention: the last stored node carries no quadrature mass.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return _lp_l2(x.values, np.broadcast_to(0.0, x.values.shape), x.grid.dt, p)


def _lp_l2(x: np.ndarray, y: np.ndarray, dt: float, p: float) -> float:
    """Sample norm of the stack x - y; every temporary is one (M, d) node."""
    sq = np.zeros(x.shape[1:])
    step = np.empty(x.shape[1:])
    for k in range(x.shape[0] - 1):
        np.subtract(x[k], y[k], out=step)
        step *= step
        sq += step
    return _sample_norm(dt * sq.sum(axis=1), p)


def _sample_norm(q: np.ndarray, p: float) -> float:
    """Sample L^p(Omega) norm (mean_m q[m]^{p/2})^{1/p} of squared norms q."""
    return float(np.mean(q ** (p / 2.0)) ** (1.0 / p))


def _monomial_design(features: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of total degree <= degree in the feature columns.

    Near-constant columns are dropped first so a deterministic feature
    (e.g. W at time zero) degrades gracefully to an intercept-only basis.
    """
    f = np.asarray(features, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    m = f.shape[0]
    sd = f.std(axis=0)
    keep = sd > 1e-12 * (1.0 + np.abs(f.mean(axis=0)))
    f = f[:, keep]
    cols = [np.ones(m)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(f.shape[1]), deg):
            cols.append(np.prod(f[:, combo], axis=1))
    return np.column_stack(cols)


class RegressionFit:
    """Fitted values and coefficients of one regression solve.

    The diagnostics ``residual_rms`` (per-target residual standard
    deviation) and ``coef_se`` (OLS standard errors, NaN under ridge) are
    computed on first access, from the targets array handed to ``fit``;
    the backward sweeps never read them.
    """

    def __init__(self, reg: PolynomialRegression, targets: np.ndarray,
                 fitted: np.ndarray, coef: np.ndarray, squeeze: bool):
        self._reg, self._targets, self._fitted = reg, targets, fitted
        self._squeeze = squeeze
        self.values = fitted[:, 0] if squeeze else fitted          # (M, k)
        self.coefficients = coef[:, 0] if squeeze else coef        # (p, k)
        self.ridge_used = reg.ridge_used

    @cached_property
    def _sigma(self) -> np.ndarray:
        dof = max(self._targets.shape[0] - self._reg.rank, 1)
        resid = self._targets - self._fitted
        return np.sqrt(np.sum(resid**2, axis=0) / dof)

    @cached_property
    def residual_rms(self) -> np.ndarray:
        return self._sigma[0] if self._squeeze else self._sigma

    @cached_property
    def coef_se(self) -> np.ndarray:
        if self.ridge_used:
            return np.full_like(self.coefficients, np.nan)
        reg = self._reg
        xtx_inv_diag = np.sum((reg._vt.T / reg._s) ** 2, axis=1)
        se = np.sqrt(np.outer(xtx_inv_diag, self._sigma**2))
        return se[:, 0] if self._squeeze else se


class _FactoredDesign:
    """Least-squares solves against one design matrix through its thin SVD,
    factored once.

    A rank-deficient design raises ``ridge_used`` and applies ridge with
    lambda = 1e-10 trace(X'X)/dim as a filter on the singular values,
    dividing by s + lambda/s instead of s; at full rank lambda = 0.
    """

    def _factor(self, x: np.ndarray) -> None:
        m, p = x.shape
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        rcond = max(m, p) * np.finfo(float).eps * s[0]
        self.rank = int(np.sum(s > rcond))
        self.ridge_used = self.rank < p
        if self.ridge_used:
            lam = _RIDGE_SCALE * np.sum(s * s) / p
            with np.errstate(divide="ignore"):  # s = 0 filters to 1/inf = 0
                s = s + lam / s
        self._u, self._s, self._vt = u, s, vt  # _s: the divisors

    def _as_targets(self, targets) -> tuple:
        """Targets as an (M, k) array, and whether they came as one vector."""
        y = np.asarray(targets, dtype=float)
        squeeze = y.ndim == 1
        if squeeze:
            y = y[:, None]
        if y.shape[0] != self._u.shape[0]:
            raise ValueError("targets and design have different path counts")
        return y, squeeze

    def _coefficients(self, y: np.ndarray) -> np.ndarray:
        return self._vt.T @ ((self._u.T @ y) / self._s[:, None])


class PolynomialRegression(_FactoredDesign):
    """Least-squares projection onto a polynomial basis of path features.

    The design factorization is computed once, so repeated fits against the
    same conditioning variables (the common case in backward recursions) are
    cheap.
    """

    def __init__(self, features, degree: int):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        x = _monomial_design(features, degree)
        m, p = x.shape
        if m < _MIN_PATHS_PER_BASIS * p:
            raise ValueError(
                f"need at least {_MIN_PATHS_PER_BASIS} paths per basis function "
                f"({p} functions, {m} paths)")
        self.design = x
        self._factor(x)

    def fit(self, targets) -> RegressionFit:
        y, squeeze = self._as_targets(targets)
        coef = self._coefficients(y)
        return RegressionFit(self, y, self.design @ coef, coef, squeeze)


class KernelRegression(_FactoredDesign):
    """Joint projection onto the polynomial basis and its increment multiples.

    For a basis phi_j of the conditioning features and a Brownian increment
    dW, the design [phi, phi * dW] is fitted jointly and the increment block
    evaluated; in population this recovers the basis projection of
    (1/dt) E[target dW | features], and it avoids the O(1/dt) variance of
    regressing target * dW / dt directly.
    """

    def __init__(self, base: PolynomialRegression, dw: np.ndarray, dt: float):
        b = base.design
        if dw.shape != (b.shape[0],):
            raise ValueError("increment vector must have one entry per path")
        self._basis = b
        self._p = b.shape[1]
        self._dt = dt
        self._factor(np.hstack([b, b * dw[:, None]]))

    def kernel(self, targets) -> np.ndarray:
        """Fitted values of the increment-block coefficient function."""
        y, squeeze = self._as_targets(targets)
        coef = self._coefficients(y)
        out = self._basis @ coef[self._p:]
        return out[:, 0] if squeeze else out


def regress(targets, state_features, basis_degree: int) -> RegressionFit:
    return PolynomialRegression(state_features, basis_degree).fit(targets)


def conditional_expectation(targets, state_features, basis_degree: int) -> np.ndarray:
    """L^2(Omega)-orthogonal projection of per-path targets onto the span of
    polynomials in the conditioning features.

    Exact (up to conditioning) whenever the targets already are such a
    polynomial of the features.
    """
    return regress(targets, state_features, basis_degree).values


@dataclass(frozen=True)
class KernelEnsemble:
    """Two-time kernel samples tau[u][s][m], stored only for s < u.

    Entries on or above the diagonal do not exist, which makes the support
    condition of the representation kernel structural.
    """

    grid: TimeGrid
    taus: tuple  # taus[u]: (u, M, d) array

    def tau(self, u: int, s: int) -> np.ndarray:
        if not 0 <= u < len(self.taus):
            raise ValueError(f"node index {u} out of range")
        if not 0 <= s < u:
            raise ValueError("kernel is strictly lower-triangular: need s < u")
        return self.taus[u][s]


@dataclass(frozen=True)
class MartingaleRepresentation:
    mean_part: np.ndarray     # (n_nodes, d) ensemble means
    kernel: KernelEnsemble
    residuals: np.ndarray     # (n_nodes,) L^2(Omega) reconstruction residuals


def martingale_representation(g: ProcessEnsemble, bm: BrownianEnsemble,
                              basis_degree: int) -> MartingaleRepresentation:
    """Decompose g_u = E(g_u) + sum_{k<u} tau[u][k] dW_k on the grid.

    tau[u][k] estimates (1/dt) E[g_u dW_k | F_{t_k}].  The estimate runs
    through the tower chain m_k = E[m_{k+1} | F_{t_k}] (fitted backwards
    from m_u = g_u, so the per-step targets never see the accumulated
    future noise of g_u) and reads each kernel from the increment block of
    the joint basis regression.
    """
    if not g.adapted:
        raise AdaptednessError("martingale representation needs an adapted process")
    if g.grid != bm.grid or g.n_paths != bm.n_paths:
        raise ValueError("process and Brownian ensemble live on different grids")
    n, m, d = g.values.shape
    dt = g.grid.dt
    regs = [PolynomialRegression(bm.levels[k], basis_degree) for k in range(n - 1)]
    kerns = [KernelRegression(regs[k], bm.increments[k], dt) for k in range(n - 1)]
    mean_part = g.values.mean(axis=1)
    taus = []
    residuals = np.empty(n)
    for u in range(n):
        gu = g.values[u]
        tau_u = np.empty((u, m, d))
        cond = gu
        for k in range(u - 1, -1, -1):
            tau_u[k] = kerns[k].kernel(cond)
            cond = regs[k].fit(cond).values
        recon = np.tile(mean_part[u], (m, 1))
        for k in range(u):
            recon += tau_u[k] * bm.increments[k][:, None]
        taus.append(tau_u)
        residuals[u] = np.sqrt(np.mean(np.sum((gu - recon) ** 2, axis=1)))
    kernel = KernelEnsemble(g.grid, tuple(taus))
    return MartingaleRepresentation(mean_part, kernel, residuals)
