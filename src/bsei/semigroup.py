"""Matrix semigroup S(t) = exp(t A) on a uniform time grid.

The generator is a plain d x d matrix; the cache precomputes exp(k dt A)
for every grid node k, as ``powers[k]``, and exposes the uniform
operator-norm bound that plays the role of the gamma-bound of the family
in the Euclidean setting.
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
        # overflow leaves inf entries, which gamma_bound reports as inf
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


def gamma_bound(cache: SemigroupCache) -> float:
    """Uniform spectral-norm bound max_k ||exp(k dt A)||_2 over the grid.

    Always >= 1 because the grid contains t = 0.  In the Euclidean setting
    this uniform bound is the gamma-boundedness constant of the family;
    it is infinite when some cached power overflowed.
    """
    if not np.all(np.isfinite(cache.powers)):
        return float("inf")
    return float(max(np.linalg.norm(cache.powers[k], 2)
                     for k in range(cache.n_steps + 1)))
