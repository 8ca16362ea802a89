"""Host-speed calibrators: one fixed numpy/scipy computation per workload.

A shared host runs the same code faster or slower from one minute to the
next, by 10-20% for the ops measured here.  Each workload therefore has a
calibrator shaped like its op (small-array stepping, a dense Gaussian
kernel, a least-squares solve, or the closed-form reference algebra).
Its inputs are fixed, never drawn from the run's seed, and it uses no
fpknl code, so a change to fpknl cannot move it.  The timed loop runs the
calibrator between ops, about twice a second; ``run.py`` scales the op
timings by ``reference_s / mean calibrator time``, which reports them at
the speed the host had when ``reference_s`` was measured.  Raw timings
are kept beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

import reference as ref


class Calibrator:
    # median time of one call on the reference host: a 2-vCPU VM,
    # Python 3.11, numpy 2.4 with single-threaded OpenBLAS
    reference_s = 1.0

    def run(self) -> float:
        raise NotImplementedError

    def timed(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


class Stepping(Calibrator):
    """RK4 flux-difference stepping of a drift-diffusion density on 1200 nodes."""

    reference_s = 0.025
    NX, STEPS = 1200, 200

    def __init__(self):
        self.x = np.linspace(-6.0, 6.0, self.NX)
        self.dx = self.x[1] - self.x[0]
        self.u0 = np.exp(-0.5 * (self.x - 0.5) ** 2 / 0.1)

    def _rhs(self, u):
        vel = self.x + 0.1 * float(np.dot(self.x, u)) * self.dx
        flux = 0.1 * np.diff(u) / self.dx + 0.25 * (vel[1:] + vel[:-1]) * (u[1:] + u[:-1])
        out = np.zeros_like(u)
        out[1:-1] = np.diff(flux) / self.dx
        return out

    def run(self) -> float:
        u, h = self.u0.copy(), 2e-5
        for _ in range(self.STEPS):
            k1 = self._rhs(u)
            k2 = self._rhs(u + 0.5 * h * k1)
            k3 = self._rhs(u + 0.5 * h * k2)
            k4 = self._rhs(u + h * k3)
            u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.trapezoid(u, dx=self.dx)
        return float(u.sum())


def gaussian_kernel(rows: np.ndarray, cols: np.ndarray, winv: np.ndarray) -> np.ndarray:
    xi = rows[:, None, :] - 0.9 * cols[None, :, :]
    return np.exp(-0.5 * np.einsum("abj,jk,abk->ab", xi, winv, xi))


class DenseKernel(Calibrator):
    """Gaussian kernels built by einsum and exp, then applied: 1400 x 1400 on a
    1D grid and 300 rows of a 45^2-node 2D grid, one of each grid kind of
    quad_forward.  A 1D kernel alone tracked the 2D ops' times less closely."""

    reference_s = 0.058

    def __init__(self):
        self.line = np.linspace(-6.0, 6.0, 1400).reshape(-1, 1)
        axis = np.linspace(-4.75, 4.75, 45)
        self.plane = np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=-1)

    def run(self) -> float:
        k1 = gaussian_kernel(self.line, self.line, np.array([[2.0]]))
        k2 = gaussian_kernel(self.plane[:300], self.plane, np.array([[2.0, 0.3], [0.3, 2.0]]))
        return float((k1 @ self.line[:, 0]).sum() + (k2 @ self.plane[:, 0]).sum())


class LeastSquares(Calibrator):
    """A 500 x 500 Gaussian kernel on a 1D grid, then a minimum-norm least-squares solve."""

    reference_s = 0.0384

    def __init__(self):
        self.pts = np.linspace(-6.0, 6.0, 500).reshape(-1, 1)
        self.v = np.linspace(0.0, 1.0, 500)

    def run(self) -> float:
        k = gaussian_kernel(self.pts, self.pts, np.array([[2.0]]))
        sol, *_ = np.linalg.lstsq(k, self.v, rcond=1e-10)
        return float(sol.sum())


class ClosedFormAlgebra(Calibrator):
    """The closed-form references of twelve fixed mixtures, dims 1-3."""

    reference_s = 0.0265

    def __init__(self):
        rng = np.random.default_rng(20260101)
        self.cases = []
        for i in range(12):
            dim, k = 1 + i % 3, 2 + i
            lam = rng.uniform(0.6, 1.2) * np.eye(dim)
            model = ref.Model(lam, np.zeros((dim, dim)), -0.4 * np.eye(dim), 0.1, 1.0)
            comps = [ref.Gaussian(1.0 / k, rng.uniform(-1.0, 1.0, dim), 0.2 * np.eye(dim))
                     for _ in range(k)]
            self.cases.append((model, comps, rng.standard_normal((2048, dim))))

    def run(self) -> float:
        total = 0.0
        for model, comps, pts in self.cases:
            total += float(ref.density(ref.evolve_mixture(model, comps, 0.7), pts).sum())
        return total

