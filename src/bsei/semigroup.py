"""Matrix semigroup S(t) = exp(t A) and its uniform bound on [0, T].

The generator is a plain d x d matrix.  ``gamma_bound`` is the closed-form
bound on sup_{t <= T} ||exp(t A)||_2 that plays the role of the gamma-bound
of the family in the Euclidean setting; ``SemigroupCache`` precomputes
exp(k dt A) for every node k of a uniform grid, as ``powers[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a): symmetric matrices by diagonalization, otherwise Pade 13
    scaling-and-squaring (scipy's expm, imported here so that symmetric
    generators never load scipy)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("generator entries must be finite")
    if np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max())):
        w, v = np.linalg.eigh(0.5 * (a + a.T))
        return (v * np.exp(w)) @ v.T
    import scipy.linalg

    return scipy.linalg.expm(a)


@dataclass(frozen=True)
class SemigroupCache:
    """Precomputed semigroup values exp(k step A), k = 0..n_steps."""

    generator: np.ndarray
    step: float
    powers: np.ndarray  # (n_steps + 1, d, d)

    @classmethod
    def build(cls, generator, step: float, n_steps: int) -> "SemigroupCache":
        a = np.asarray(generator, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("generator must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("generator entries must be finite")
        if step <= 0.0 or n_steps < 1:
            raise ValueError("need step > 0 and n_steps >= 1")
        d = a.shape[0]
        powers = np.empty((n_steps + 1, d, d))
        # an overflowing power is left as inf entries
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps + 1):
                powers[k] = matrix_exponential(k * step * a)
            cache = cls(generator=a, step=float(step), powers=powers)
            cache._validate()
        return cache

    def _validate(self) -> None:
        ident = np.eye(self.dim)
        if np.abs(self.powers[0] - ident).max() > 1e-12:
            raise ValueError("semigroup cache: S(0) deviates from the identity")
        one = self.powers[1]
        tol = 1e-10 * max(1.0, np.abs(self.powers).max())
        for k in range(self.n_steps):
            if np.abs(one @ self.powers[k] - self.powers[k + 1]).max() > tol:
                raise ValueError(f"semigroup law violated on the grid at k={k}")

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @property
    def n_steps(self) -> int:
        return self.powers.shape[0] - 1


def gamma_bound(generator, horizon: float) -> float:
    """max(1, e^{T mu}), mu = lambda_max((A + A^T)/2) the logarithmic 2-norm of
    A: a bound on sup_{t <= T} ||exp(t A)||_2, the gamma-bound of the family in
    the Euclidean setting (Soderlind, BIT 46, 2006), exact for a normal A and
    infinite when e^{T mu} overflows."""
    a = np.asarray(generator, dtype=float)
    mu = np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)[-1]  # halved first: no overflow
    with np.errstate(over="ignore"):
        return float(max(1.0, np.exp(horizon * mu)))
