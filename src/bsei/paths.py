"""Path-space machinery: Brownian ensembles on a uniform grid, the
left-endpoint stochastic integral, discrete L^p(Omega; L^2) norms,
least-squares conditional expectations, and the martingale representation
with a strictly lower-triangular kernel.

A process is an (n_nodes, M, d) array of its values X[k][m] at the grid
nodes 0, 1, ... of the Brownian ensemble it is driven by.

Randomness comes from numpy's Philox counter-based generator keyed by
(seed, step index), so the draws for a given step never depend on the
number of paths or steps requested elsewhere.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily; every solve draws, so load it with the package
from numpy.random import Generator, Philox

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


def _physical_memory() -> int | None:
    """Bytes of physical memory, the budget of every large allocation;
    None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf
        return None


def _check_seed(seed: int) -> None:
    """Raise ValueError for a seed outside [0, 2^64), the Philox key width:
    reduced modulo 2^64, such a seed would draw another seed's numbers."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def _philox_normals(seed: int, step: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The n standard normals of (seed, step), drawn into ``out`` when given."""
    key = np.array([seed, step], dtype=np.uint64)
    return Generator(Philox(key=key)).standard_normal(n, out=out)


@dataclass(frozen=True)
class BrownianEnsemble:
    """Seeded Gaussian increments dW[k][m] ~ N(0, dt), one stream per step.

    The ensemble keeps the draw alone: W is formed from it by
    ``levels_from``, on the nodes a caller asks for, and over the whole grid
    as ``levels`` on first read."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray  # (N, M)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.n_steps, self.n_paths):
            raise ValueError("increments must have shape (n_steps, n_paths)")
        if inc.flags.writeable or not inc.flags.owndata:  # the caller could change it
            inc = inc.copy()
            inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    def levels_from(self, w_lo, k_lo: int, k_hi: int) -> np.ndarray:
        """W at the nodes k_lo, ..., k_hi, a (k_hi - k_lo + 1, M) array, from
        W[k_lo] = ``w_lo``: each row is the one below plus its step's
        increment, the one way W is formed, so rows rebuilt from any node
        carry the bits of ``levels``."""
        if not 0 <= k_lo <= k_hi <= self.grid.n_steps:
            raise ValueError(f"nodes [{k_lo}, {k_hi}] leave the grid of "
                             f"{self.grid.n_steps} steps")
        out = np.empty((k_hi - k_lo + 1, self.n_paths))
        out[0] = w_lo
        for j, dw in enumerate(self.increments[k_lo:k_hi]):  # cumsum down axis 0 is strided
            np.add(out[j], dw, out=out[j + 1])
        return out

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """Brownian values W[k][m] at the grid nodes, W[0] = 0, read-only."""
        levels = self.levels_from(0.0, 0, self.grid.n_steps)
        levels.setflags(write=False)
        return levels


def simulate_brownian(grid: TimeGrid, n_paths: int, seed: int) -> BrownianEnsemble:
    """Draw a reproducible Brownian increment ensemble on the grid."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _check_seed(seed)
    sq = np.sqrt(grid.dt)
    inc = np.empty((grid.n_steps, n_paths))
    for k, row in enumerate(inc):  # each step drawn into its row, then scaled there
        _philox_normals(seed, k, n_paths, out=row)
        row *= sq
    inc.setflags(write=False)  # no one else holds the draw: the ensemble keeps it
    return BrownianEnsemble(grid, n_paths, seed, inc)


def from_function(bm: BrownianEnsemble, fn, dim: int) -> np.ndarray:
    """Adapted process X[k] = fn(k, W_{t_k}) on the grid of ``bm``, as an
    (N + 1, M, dim) array; fn must return an (M, dim) array."""
    out = np.empty((bm.grid.n_steps + 1, bm.n_paths, dim))
    for k in range(bm.grid.n_steps + 1):
        x = np.asarray(fn(k, bm.levels[k]), dtype=float)
        if x.shape != out.shape[1:]:
            raise ValueError(f"fn returned shape {x.shape} at node {k}, "
                             f"expected {out.shape[1:]}")
        out[k] = x
    return out


def ito_integral(values: np.ndarray, bm: BrownianEnsemble, upto: float) -> np.ndarray:
    """Per-path integral sum_{k: t_{k+1} <= upto} X[k] dW[k] (left endpoints)
    of an (n_nodes, M, d) integrand."""
    if values.shape[1] != bm.n_paths:
        raise ValueError(f"integrand has {values.shape[1]} paths, the Brownian "
                         f"ensemble {bm.n_paths}")
    k_up = bm.grid.node_index(upto)
    if k_up > values.shape[0] - 1:
        raise ValueError("integrand does not cover the integration window")
    return np.einsum("kmd,km->md", values[:k_up], bm.increments[:k_up])


def lp_l2_norm(values: np.ndarray, dt: float, p: float) -> float:
    """Sample norm ((1/M) sum_m (sum_k dt ||X[k][m]||^2)^{p/2})^{1/p} of an
    (n_nodes, M, d) process.

    Left-endpoint convention: the last stored node carries no quadrature mass.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return _lp_l2(values[:-1], np.broadcast_to(0.0, values[:-1].shape), dt, p)


def _sum_columns(a: np.ndarray) -> np.ndarray:
    """a[..., 0] + a[..., 1] + ... in index order, as ``geometry._dot_last`` sums;
    numpy's sum over a short last axis is about 15 times slower."""
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        out += a[..., i]
    return out


def _path_sums(x: np.ndarray, y: np.ndarray):
    """Rows of path sums of |x - y|^2 over nodes and coordinates for (n, R, M, d)
    stacks, n nodes of R rows, a node at a time: the (R, M) sums s and each row's
    unit exponent e.  e = 0 where the row's max(s) is NaN or lies in
    [2^-970, 2^970], 2^52 inside the normal range at both ends; any other row is
    redone in units 2^e above its max |x - y| (an all-zero row stays zero).
    Callers ignore over- and underflow and invalid operations."""
    sq = np.zeros(x.shape[1:])
    step = np.empty_like(sq)
    for xk, yk in zip(x, y):
        np.subtract(xk, yk, out=step)
        step *= step
        sq += step
    s = _sum_columns(sq)
    e = [0] * len(s)
    for r, top in enumerate(s.max(axis=1).tolist()):
        if not (top < 2.0 ** -970 or top > 2.0 ** 970):  # in the window, or NaN
            continue
        xr, yr, sqr, buf = x[:, r], y[:, r], sq[r], step[r]
        largest = max(
            (np.abs(np.subtract(xk, yk, out=buf)).max() for xk, yk in zip(xr, yr)), default=0.0)
        if largest == 0.0:
            continue
        e[r] = er = np.frexp(largest)[1] if largest < np.inf else 1025  # |x - y| < 2^1025
        sqr[...] = 0.0
        for xk, yk in zip(xr, yr):  # where e > 0 the stacks are scaled before subtracting
            np.subtract(np.ldexp(xk, -max(er, 0), out=buf), np.ldexp(yk, -max(er, 0)), out=buf)
            sqr += np.square(np.ldexp(buf, -min(er, 0), out=buf), out=buf)
        s[r] = _sum_columns(sqr)
    return s, e


def _power_mean(s: np.ndarray, e: list, dt: float, p: float) -> np.ndarray:
    """Per row of ``_path_sums``: the power mean ((1/M) sum_m (s dt)^{p/2})^{1/p}
    2^e, taken in units 4^u above max(s) dt, so its largest term lies in [1/8, 1)."""
    u = (np.frexp(s.max(axis=1))[1] + math.frexp(dt)[1] + 1) // 2
    means = np.mean((s * np.ldexp(dt, -2 * u)[:, None]) ** (p / 2.0), axis=1)
    # the root a row at a time: numpy's array power may take SIMD loops whose
    # last bit differs from the scalar power's
    return np.array([np.ldexp(mean ** (1.0 / p), k + ek)
                     for mean, k, ek in zip(means, u.tolist(), e)])


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _lp_l2(x: np.ndarray, y: np.ndarray, dt: float, p: float) -> float:
    """The package's one sample L^p(Omega; L^2) norm of x - y, dt per node: the
    one-row case of ``_path_sums`` and ``_power_mean``."""
    return float(_power_mean(*_path_sums(x[:, None], y[:, None]), dt, p)[0])


def _monomial_design(feature: np.ndarray, degree: int) -> np.ndarray:
    """The powers 1, u, ..., u^degree of one feature f, u = f 2^-e in units
    of the power of two above max |f|, as contiguous columns, each the one
    before times u.  A feature whose range is at most 1e-12 of max |f| (W at
    time zero) gives the intercept column alone; a non-finite one raises."""
    f = np.asarray(feature, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"the feature must be one vector, got shape {f.shape}")
    lo, hi = f.min(), f.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("the feature is not finite")
    p = 1 if hi - lo <= 1e-12 * max(-lo, hi) else degree + 1
    x = np.empty((len(f), p), order="F")
    x[:, 0] = 1.0
    if p > 1:
        np.ldexp(f, -np.frexp(max(-lo, hi))[1], out=x[:, 1])
    for j in range(2, p):
        np.multiply(x[:, j - 1], x[:, 1], out=x[:, j])
    return x


def _cholesky_qr(gram: np.ndarray):
    """(ridge_used, D, R^-1) for each design X of an (n, q, q) stack of Gram
    matrices ``gram`` = X'X, as an (n,) flag vector and (n, q) and (n, q, q)
    stacks; each Gram is equilibrated in place to D X'X D by the powers of two
    D that bring its diagonal into [1/4, 1); R is its Cholesky factor, and the
    least-squares coefficients of t on X D are R^-1 R^-T (X D)'t (Cholesky-QR;
    Q = X D R^-1 is never formed).  If an eigenvalue of D X'X D is at most
    lambda = 1e-10 trace/q, R factors D X'X D + lambda I: ridge on the
    equilibrated columns.  numpy's linalg runs LAPACK once per matrix of a
    stack, so each result is the bits of that matrix's call on its own.
    """
    if not np.all(np.isfinite(gram)):
        raise ValueError("the design's Gram matrix is not finite")
    q = gram.shape[-1]
    scale = np.ldexp(1.0, -np.frexp(np.sqrt(np.diagonal(gram, axis1=1, axis2=2)))[1])
    gram[...] = gram * scale[:, :, None] * scale[:, None, :]
    lam = (_RIDGE_SCALE * np.trace(gram, axis1=1, axis2=2) / q)[:, None, None]
    ridge_used = np.linalg.eigvalsh(gram)[:, :1, None] <= lam
    g = np.where(ridge_used, gram + lam * np.eye(q), gram)
    return ridge_used[:, 0, 0], scale, np.linalg.inv(np.swapaxes(np.linalg.cholesky(g), 1, 2))


def _factor(regs: list) -> None:
    """Factor the Grams that the regressions ``regs`` formed, one
    ``_cholesky_qr`` call per Gram size: each keeps its equilibrated Gram and
    ridge flag and takes its D and R^-1 in ``_factored``."""
    by_size = {}
    for reg in regs:
        by_size.setdefault(len(reg._gram), []).append(reg)
    for group in by_size.values():
        grams = np.stack([reg._gram for reg in group])
        ridge_used, scales, r_invs = _cholesky_qr(grams)
        for reg, ridge, gram, scale, r_inv in zip(group, ridge_used.tolist(), grams,
                                                  scales, r_invs):
            reg.ridge_used, reg._gram = ridge, gram
            reg._factored(scale, r_inv)


def _batch(cls, args: list) -> list:
    """``cls(*a)`` for each tuple a of ``args``, their Grams factored together."""
    regs = [cls.__new__(cls) for _ in args]
    for reg, a in zip(regs, args):
        reg._form(*a)
    _factor(regs)
    return regs


def _check_targets(targets: np.ndarray, n_paths: int) -> None:
    if targets.ndim != 2 or targets.shape[0] != n_paths:
        raise ValueError(f"targets of shape {targets.shape} are not ({n_paths}, k)")


class PolynomialRegression:
    """Least-squares projection onto ``_monomial_design``'s powers of one path
    feature, a vector with one entry per path (W[k] in a solve).

    The design is equilibrated and factored once, so repeated fits against
    the same conditioning variable (the common case in backward recursions)
    are cheap: it keeps E = X D of ``_cholesky_qr``, not X, and R^-1.  A
    regression built on its own is the one-member batch of ``step_designs``.
    """

    def __init__(self, feature, degree: int):
        self._form(feature, degree)
        _factor([self])

    def _form(self, feature, degree: int) -> None:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        x = _monomial_design(feature, degree)
        m, p = x.shape
        if m < _MIN_PATHS_PER_BASIS * p:
            raise ValueError(
                f"need at least {_MIN_PATHS_PER_BASIS} paths per basis function "
                f"({p} functions, {m} paths)")
        # gemm on a copy: numpy sends x.T @ x to syrk, 3x slower
        self._design, self._gram = x, x.T @ x.copy(order="K")

    def _factored(self, scale: np.ndarray, r_inv: np.ndarray) -> None:
        self._r_inv = r_inv
        np.multiply(self._design, scale, out=self._design)  # exact: powers of two

    def _coefficients(self, targets: np.ndarray) -> np.ndarray:
        return self._r_inv @ (self._r_inv.T @ (self._design.T @ targets))

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the (M, k) targets, an (M, k) array.

        The coefficients take one step of iterative refinement: E's intercept
        column is one power of two, so E't of a constant target sums equal terms
        whose rounding drifts one way (240 ulp at M = 1e4), which the sweep compounds.
        """
        _check_targets(targets, len(self._design))
        coef = self._coefficients(targets)
        coef += self._coefficients(targets - self._design @ coef)
        return self._design @ coef


class KernelRegression:
    """Joint projection onto the polynomial basis and its increment multiples.

    For a basis phi_j of the conditioning feature and a Brownian increment
    dW, the design [phi, phi * dW] is fitted jointly and the increment block
    evaluated; in population this recovers the basis projection of
    (1/dt) E[target dW | feature], and it avoids the O(1/dt) variance of
    regressing target * dW / dt directly.

    The joint design [E, E dW~] is never formed: E is the base's design and
    dW~ = dW 2^-e, dW read where it lies in units of the power of two above
    its largest |value|, so the Gram, whose top-left block is the base's,
    cannot underflow.  The joint factor S = D R^-1 is upper triangular, so
    the kernel is E 2^-e S[p:, p:] Q_k't, Q_k = E S[:p, p:] + (E dW~) S[p:, p:].
    """

    def __init__(self, base: PolynomialRegression, dw: np.ndarray):
        self._form(base, dw)
        _factor([self])

    def _form(self, base: PolynomialRegression, dw: np.ndarray) -> None:
        b, p = base._design, base._design.shape[1]
        if dw.shape != (len(b),):
            raise ValueError("increment vector must have one entry per path")
        self._e = e = np.frexp(np.abs(dw).max())[1]
        dw_unit = np.ldexp(dw, -e)[:, None]
        weighted = b * dw_unit  # E' dW~ E, then E' dW~^2 E, both by gemm
        self._gram = gram = np.empty((2 * p, 2 * p))
        gram[:p, :p], gram[:p, p:] = base._gram, b.T @ weighted
        gram[p:, :p] = gram[:p, p:].T
        gram[p:, p:] = b.T @ np.multiply(weighted, dw_unit, out=weighted)
        # dW is kept by reference when read-only (the ensemble's rows), else copied
        self._design, self._dw = b, dw if not dw.flags.writeable else dw.copy()

    def _factored(self, scale: np.ndarray, r_inv: np.ndarray) -> None:
        p = self._design.shape[1]
        self._s = scale[:, None] * r_inv[:, p:]
        self._c = np.ldexp(self._s[p:], -self._e)

    def kernel(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the increment-block coefficient function of the
        (M, k) targets, an (M, k) array."""
        _check_targets(targets, len(self._design))
        e_t, w = self._design.T, np.ldexp(self._dw, -self._e)[:, None]
        # t less its first row, a constant the kernel maps to zero, so Q_k't's terms
        # carry no mean to cancel; E't, then E'(dW~ t) by columns: (M, 2) rows are slow
        t = np.subtract(targets, targets[:1], order="F")
        q_t = self._s.T @ np.concatenate([e_t @ t, e_t @ np.multiply(t, w, out=t)])
        return self._design @ (self._c @ q_t)


def step_designs(bm: BrownianEnsemble, k_lo: int, levels: np.ndarray,
                 degree: int) -> list:
    """Per step k = k_lo, ..., k_lo + len(levels) - 1: the factored basis
    projection on the Brownian value W[k] = ``levels[k - k_lo]``, as it is
    (the basis takes its own unit), and its kernel variant on the increment
    dW[k].  The steps' base Grams are factored in one batch and then their
    joint Grams in another, a ``_cholesky_qr`` call per Gram size (W at time
    zero has one column).  Each design copies its feature, so the caller's
    W rows may go once the designs are formed."""
    bases = _batch(PolynomialRegression, [(w, degree) for w in levels])
    kernels = _batch(KernelRegression, [(b, bm.increments[k_lo + j])
                                        for j, b in enumerate(bases)])
    return list(zip(bases, kernels))


def solve_linear_bsee(g: np.ndarray, terminal_values: np.ndarray,
                      s_dt: np.ndarray, dt: float, designs: list):
    """(Y, Z), shaped like g, of one backward sweep of the linear equation
    with frozen source g on the left endpoints of n steps of size ``dt``,
    from the (M, d) terminal values of Y at the right end of the last one;
    ``s_dt`` is S(dt) and ``designs`` the n steps' ``step_designs``.

    Discretization: Y[k] = E[S(dt) Y[k+1] | F_k] - dt g[k] and
    Z[k] = (1/dt) E[S(dt) Y[k+1] dW_k | F_k], both evaluated by regression;
    the Z-expectation is read from the increment block of the joint basis
    regression, which estimates the identical quantity at a fraction of the
    Monte Carlo variance.
    """
    y_next = np.asarray(terminal_values, dtype=float)
    if y_next.shape != g.shape[1:] or len(designs) != len(g):
        raise ValueError("need one design per source node, one terminal per path")
    y, z = np.empty(g.shape), np.empty(g.shape)
    s_t = np.ascontiguousarray(s_dt.T)  # np.dot on it is numpy's fast path
    for k in range(len(g) - 1, -1, -1):
        base, kern = designs[k]
        propagated = np.dot(y_next, s_t)
        z[k] = kern.kernel(propagated)
        y_next = np.subtract(base.fit(propagated), dt * g[k], out=y[k])
    return y, z


@dataclass(frozen=True)
class MartingaleRepresentation:
    mean_part: np.ndarray     # (n_nodes, d) ensemble means
    taus: tuple               # taus[u]: (u, M, d) kernel tau[u][s], s < u only
    residuals: np.ndarray     # (n_nodes,) L^2(Omega) reconstruction residuals


def martingale_representation(g: np.ndarray, bm: BrownianEnsemble,
                              basis_degree: int) -> MartingaleRepresentation:
    """Decompose g_u = E(g_u) + sum_{k<u} tau[u][k] dW_k on the grid.

    tau[u][k] estimates (1/dt) E[g_u dW_k | F_{t_k}].  The estimate runs
    through the tower chain m_k = E[m_{k+1} | F_{t_k}] (fitted backwards
    from m_u = g_u, so the per-step targets never see the accumulated
    future noise of g_u) and reads each kernel from the increment block of
    the joint basis regression: the Z of the source-free sweep at S = I.
    The kernel of node u is stored for s < u only, so its support condition
    is structural: taus[u][u] does not exist.
    """
    n, m, d = g.shape
    if m != bm.n_paths or n > bm.grid.n_steps + 1:
        raise ValueError(f"process of shape {g.shape} does not fit the Brownian "
                         f"ensemble's {bm.grid.n_steps + 1} nodes x {bm.n_paths} paths")
    designs = step_designs(bm, 0, bm.levels[:n - 1], basis_degree)
    mean_part = g.mean(axis=1)
    taus = []
    residuals = np.empty(n)
    for u in range(n):
        gu = g[u]
        _, tau_u = solve_linear_bsee(np.broadcast_to(0.0, (u, m, d)), gu, np.eye(d),
                                     bm.grid.dt, designs[:u])
        recon = np.tile(mean_part[u], (m, 1))
        for k in range(u):
            recon += tau_u[k] * bm.increments[k][:, None]
        taus.append(tau_u)
        residuals[u] = _lp_l2(gu[None], recon[None], 1.0, 2.0)
    return MartingaleRepresentation(mean_part, tuple(taus), residuals)
