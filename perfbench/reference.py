"""Closed-form references the benchmark checks fpknl's outputs against.

Only numpy and scipy are used here, never fpknl, so a reference cannot
share a defect with the code path it checks.  The model is

    du/dt = eps lap(u) + div((L x + F X(t)) u),    X(t) = first moment of u,

with L = drift + coupling * coupling_state and F = coupling * coupling_mean.
A Gaussian component with mean m and covariance S then moves as

    dX/dt = -(L + F) X,   d(m - X)/dt = -L (m - X),   dS/dt = -L S - S L^T + 2 eps I,

which is solved here in the covariance form (a Lyapunov flow), while fpknl
carries the precision as a (num, den) pair through its matriciant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class Model:
    """Raw model coefficients, as handed to fpknl.ModelParams."""

    drift: np.ndarray
    coupling_state: np.ndarray
    coupling_mean: np.ndarray
    diffusion: float
    coupling: float

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def lam(self) -> np.ndarray:
        return self.drift + self.coupling * self.coupling_state

    @property
    def feedback(self) -> np.ndarray:
        return self.coupling * self.coupling_mean


@dataclass(frozen=True)
class Gaussian:
    """A weighted Gaussian density in mean/covariance form."""

    weight: float
    mean: np.ndarray
    cov: np.ndarray


def moment_at(model: Model, x0: np.ndarray, tau: float) -> np.ndarray:
    return expm(-tau * (model.lam + model.feedback)) @ x0


def covariance_at(model: Model, cov0: np.ndarray, tau: float) -> np.ndarray:
    """Solve dS/dt = A S + S A^T + 2 eps I with A = -L by one augmented
    exponential of the vectorized flow."""
    n = model.dim
    a = -model.lam
    gen = np.zeros((n * n + 1, n * n + 1))
    gen[:n * n, :n * n] = np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)
    gen[:n * n, n * n] = 2.0 * model.diffusion * np.eye(n).ravel()
    state = np.append(cov0.ravel(), 1.0)
    cov = (expm(tau * gen) @ state)[:n * n].reshape(n, n)
    return 0.5 * (cov + cov.T)


def evolve_mixture(model: Model, comps: list[Gaussian], tau: float) -> list[Gaussian]:
    """Exact forward evolution of a mixture around its shared moment."""
    mass = sum(c.weight for c in comps)
    x_s = sum(c.weight * c.mean for c in comps) / mass
    x_t = moment_at(model, x_s, tau)
    carry = expm(-tau * model.lam)
    return [Gaussian(c.weight, x_t + carry @ (c.mean - x_s),
                     covariance_at(model, c.cov, tau)) for c in comps]


def density(comps: list[Gaussian], pts: np.ndarray) -> np.ndarray:
    """Mixture density at (N, dim) points."""
    out = np.zeros(pts.shape[0])
    for c in comps:
        n = c.mean.shape[0]
        xi = pts - c.mean
        sol = np.linalg.solve(c.cov, xi.T).T
        norm = 1.0 / np.sqrt((2.0 * np.pi) ** n * np.linalg.det(c.cov))
        out += c.weight * norm * np.exp(-0.5 * np.sum(xi * sol, axis=1))
    return out


def ou_stationary(model: Model) -> Gaussian:
    """Long-time limit of a 1D packet: the Ornstein-Uhlenbeck stationary law
    N(0, eps / L), valid when L > 0 and L + F > 0."""
    lam = float(model.lam[0, 0])
    return Gaussian(1.0, np.zeros(1), np.array([[model.diffusion / lam]]))


def trapezoid_moments(values: np.ndarray, axes: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """(mass, first moment) of grid samples by the tensor trapezoid rule."""
    def integrate(v):
        for ax in range(v.ndim - 1, -1, -1):
            v = np.trapezoid(v, x=axes[ax], axis=ax)
        return float(v)

    grids = np.meshgrid(*axes, indexing="ij")
    return integrate(values), np.array([integrate(values * g) for g in grids])
