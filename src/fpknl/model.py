"""Model coefficients, first-moment dynamics, and grid-sampled densities.

The drift felt by the density is ``effective_drift @ x`` plus a feedback
term ``mean_feedback @ X(t)`` where ``X(t)`` is the density's own first
moment.  ``X(t)`` closes on itself: it solves the linear ODE
``dX/dt = -(effective_drift + mean_feedback) X``, so it is known in
closed form before the density is.

Public calls check their outside input once, and the calls they make
take what they checked or built as it is.  ``_vector`` and
``require_finite`` are those checks; a value that is not a number (a
string, say) raises the same typed error as a non-finite one.
``ModelParams`` computes its derived matrices once, on read-only copies
of its own, and a caller that computed a moment itself builds its
``MomentTrajectory`` directly instead of through ``moment_trajectory``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (ConfigurationError, DegenerateMomentError, InputError,
                     KernelValidityError)

ZERO_MASS_TOL = 1e-12
# most float64 entries a dense intermediate block (kernel or mixture
# evaluation) holds at a time; the quadrature's factored loop counts its
# kernel block, its offset table and its GEMM product together.  2^16
# entries are 512 KiB, a quarter of a core's 2 MiB L2, so one block's
# product, exp and consumer all run in cache; much larger blocks stream
# each pass through memory.  Measured with evolve_quadrature (Xeon, one
# core, one BLAS thread, ms per call, median of 15, the quietest of three
# runs; the other two ran up to 1.6x slower with the same shape), one
# input of each grid class of the quad_forward benchmark, before the
# quadrature took tiles (CHANGES.md has the layout it ran):
#
#   grid      2^14   2^15   2^16   2^17   2^18   2^20   4e6
#   N 1201    0.72   0.66   0.64   0.69   0.66   0.70   0.67
#   N 1801    1.02   0.95   0.90   0.87   1.60   1.58   1.57
#   N 2401    1.30   1.17   1.20   1.20   1.22   2.23   2.27
#   31^2      0.85   0.78   0.74   0.76   0.86   0.86   0.84
#   45^2      2.36   2.07   2.08   3.02   3.17   5.98   6.29
#
# Mixture evaluation shares the constant: 2048 points of up to 16
# components stay one block.
BLOCK_ENTRIES = 2 ** 16
# the first node count that np.intp cannot hold, a power of two and so an
# exact float: a count from it on fails the cast to an index.  np.intp's
# max itself rounds up to it as a float, hence ">=", not "> max".
_INDEX_LIMIT = float(np.iinfo(np.intp).max + 1)


def row_blocks(rows: int, row_entries: int) -> list[slice]:
    """Near-equal slices of range(rows), each covering about BLOCK_ENTRIES
    entries at row_entries entries a row, and at least one row."""
    n_blocks = min(rows, max(1, -(-rows * row_entries // BLOCK_ENTRIES)))
    return [slice(b * rows // n_blocks, (b + 1) * rows // n_blocks)
            for b in range(n_blocks)]


def require_finite(error: type[Exception], what: str, *values) -> None:
    """Raise error naming what unless every value (a number, an array, or
    None for an absent field) is finite; a value that is not a number (a
    string, say) raises the same error.  Numbers take math.isfinite, a
    third of np.isfinite's cost."""
    for v in values:
        try:
            if v is not None and not (math.isfinite(v) if isinstance(v, float)
                                      else np.isfinite(v).all()):
                raise error(f"{what} must be finite" + (f", got {v}" if np.size(v) <= 9 else ""))
        except TypeError:
            raise error(f"{what} must be finite, got {v!r}, not a number") from None


def _square_matrix(a, name: str) -> np.ndarray:
    try:
        m = np.array(a, dtype=float, ndmin=2)  # a copy, kept read-only by ModelParams
    except (TypeError, ValueError):  # ragged rows, or an entry that is not a number
        raise ConfigurationError(f"{name} must be a square matrix of numbers, got {a!r}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix, got shape {m.shape}")
    require_finite(ConfigurationError, name, m)
    return m


def _vector(x, n: int, name: str = "vector") -> np.ndarray:
    try:
        v = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError):  # a string or another object that is not a number
        raise ConfigurationError(f"{name} must be finite, got {x!r}, not a number") from None
    if v.shape != (n,):
        raise ConfigurationError(f"{name} must have shape ({n},), got {v.shape}")
    require_finite(ConfigurationError, name, v)
    return v


def normalize_moment(raw: np.ndarray, mass: float) -> np.ndarray:
    """First moment per unit mass; undefined for a field of (near-)zero mass."""
    if abs(mass) <= ZERO_MASS_TOL:
        raise DegenerateMomentError(
            f"normalized moment undefined: mass {mass:.3e} is below {ZERO_MASS_TOL:.0e}"
        )
    return raw / mass


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Coefficients of the mean-coupled drift-diffusion model.

    drift          : local linear drift matrix (acts on x)
    coupling_state : interaction coupling to the running state x
    coupling_mean  : interaction coupling to the density's first moment
    diffusion      : scalar diffusion strength, > 0
    coupling       : interaction strength multiplying both couplings

    The record is frozen and holds read-only copies of its matrices, so the
    derived ones are computed once, here, and read-only too:

    effective_drift : drift + coupling * coupling_state
    mean_feedback   : coupling * coupling_mean
    moment_rate     : -(effective_drift + mean_feedback), the rate of X(t)
    """

    drift: np.ndarray
    coupling_state: np.ndarray
    coupling_mean: np.ndarray
    diffusion: float
    coupling: float = 0.0

    def __post_init__(self):
        d = _square_matrix(self.drift, "drift")
        cs = _square_matrix(self.coupling_state, "coupling_state")
        cm = _square_matrix(self.coupling_mean, "coupling_mean")
        if cs.shape != d.shape or cm.shape != d.shape:
            raise ConfigurationError(
                f"coupling matrices must match drift shape {d.shape}, "
                f"got {cs.shape} and {cm.shape}"
            )
        if not (np.isfinite(self.diffusion) and self.diffusion > 0):
            raise ConfigurationError(f"diffusion must be positive, got {self.diffusion}")
        require_finite(ConfigurationError, "coupling", self.coupling)
        coupling = float(self.coupling)
        lam, feedback = d + coupling * cs, coupling * cm
        for name, value in (("drift", d), ("coupling_state", cs), ("coupling_mean", cm),
                            ("effective_drift", lam), ("mean_feedback", feedback),
                            ("moment_rate", -(lam + feedback))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "diffusion", float(self.diffusion))
        object.__setattr__(self, "coupling", coupling)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def moment_trajectory(self, x0, t0: float = 0.0) -> "MomentTrajectory":
        """The trajectory through x0 at t0, with x0 checked; a caller that
        computed x0 itself builds MomentTrajectory directly."""
        return MomentTrajectory(t0=float(t0), x0=_vector(x0, self.dim, "x0"),
                                rate=self.moment_rate)


@dataclass(frozen=True, eq=False)
class MomentTrajectory:
    """Closed-form solution of the constant-coefficient moment ODE dX/dt = rate @ X."""

    t0: float
    x0: np.ndarray
    rate: np.ndarray

    def at(self, t) -> np.ndarray:
        """X(t) for a scalar time; for an array of times, X at each of them
        along a last axis (a 1-D array gives (len(t), n)) from one stacked
        matrix exponential.  Where X overflows double precision,
        KernelValidityError names the shortest such |t - t0|; a time that
        is not finite, or not a number, raises InputError naming it."""
        require_finite(InputError, "time t", t)
        tau = np.asarray(t, dtype=float) - self.t0
        with np.errstate(over="ignore", invalid="ignore"):  # typed next
            x = expm(tau[..., None, None] * self.rate) @ self.x0
        if not np.isfinite(x).all():
            lost = np.abs(tau)[~np.isfinite(x).all(axis=-1)].min()
            require_finite(InputError, "time t", lost)
            raise KernelValidityError(
                f"X(t) is not finite at |t - s| = {lost:.6g} from the start s = {self.t0:.6g}: "
                "the moment trajectory overflows double precision over this horizon")
        return x


def _layout(x_min, dx, shape) -> tuple:
    """What a uniform grid's layout alone fixes, built once per (x_min, dx,
    shape) and kept read-only: the (N, dim) nodes in C order, the tensor
    trapezoid weights shaped like the grid, the flat indices of the nodes
    on its boundary faces, and each axis' coordinates shaped to broadcast
    against the grid.  Nothing here depends on sample values."""
    return _built_layout(np.asarray(x_min, dtype=float).tobytes(),
                         np.asarray(dx, dtype=float).tobytes(), tuple(shape))


@functools.lru_cache(maxsize=32)  # a few KB to a few MB each
def _built_layout(x_min: bytes, dx: bytes, shape: tuple) -> tuple:
    # keyed by the floats' bytes, the cheapest exact key of an array
    x_min, dx = np.frombuffer(x_min).tolist(), np.frombuffer(dx).tolist()
    axes = [x0 + h * np.arange(n) for x0, h, n in zip(x_min, dx, shape)]
    coords = tuple(a.reshape([-1 if j == i else 1 for j in range(len(shape))])
                   for i, a in enumerate(axes))
    nodes = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    weights = np.ones(())
    for h, n in zip(dx, shape):
        w = np.full(n, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        weights = np.multiply.outer(weights, w)
    faces = np.flatnonzero(np.any([(i == 0) | (i == n - 1)
                                   for i, n in zip(np.indices(shape), shape)], axis=0))
    for table in (nodes, weights, faces, *coords):
        table.flags.writeable = False
    return nodes, weights, faces, coords


@dataclass(eq=False)
class SampledDensity:
    """Field sampled on a uniform tensor grid.

    ``values`` has one axis per space dimension; axis i runs over
    ``x_min[i] + dx[i] * arange(values.shape[i])``.  This class is the one
    place that lays out grid nodes (``coordinate``, ``points``) and the
    trapezoid rule (``weights``); mass, moment and kernel quadrature all
    use them.  ``points`` and ``weights`` depend on the layout alone, so
    they come read-only from a small memo, built once per layout.  Mass
    is always the trapezoid integral of the stored values, never assumed
    to be 1.
    """

    x_min: np.ndarray
    dx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            raise InputError("empty grid")
        self.x_min = np.atleast_1d(np.asarray(self.x_min, dtype=float))
        self.dx = np.atleast_1d(np.asarray(self.dx, dtype=float))
        n = self.values.ndim
        if self.x_min.shape != (n,) or self.dx.shape != (n,):
            raise InputError(
                f"x_min/dx must have one entry per value axis ({n}), "
                f"got {self.x_min.shape} and {self.dx.shape}"
            )
        require_finite(InputError, "grid origin and spacing", self.x_min, self.dx)
        if np.any(self.dx <= 0):
            raise InputError("grid spacing must be positive")
        require_finite(InputError, "sampled values", self.values)

    @property
    def dim(self) -> int:
        return self.values.ndim

    def coordinate(self, i: int) -> np.ndarray:
        """Axis i of the grid, shaped to broadcast against the values, read-only."""
        return _layout(self.x_min, self.dx, self.values.shape)[3][i]

    def points(self) -> np.ndarray:
        """All grid nodes as an (N, dim) array in C order, read-only."""
        return self.grid_nodes(self.x_min, self.dx, self.values.shape)

    @staticmethod
    def grid_nodes(x_min: np.ndarray, dx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The nodes x_min + dx * index of the uniform grid of this shape, as
        a read-only (N, dim) array in C order."""
        return _layout(x_min, dx, shape)[0]

    def weights(self) -> np.ndarray:
        """Tensor trapezoid weights, shaped like the values and read-only:
        every integral over the grid is the sum of weights times integrand."""
        return _layout(self.x_min, self.dx, self.values.shape)[1]

    def total_mass(self) -> float:
        return float((self.weights() * self.values).sum())

    def first_moment(self, normalized: bool = False) -> np.ndarray:
        """Trapezoid integral of x times the samples, raw or per unit mass;
        the mass comes from the same weighted samples."""
        _, weights, _, coords = _layout(self.x_min, self.dx, self.values.shape)
        wv = weights * self.values
        moment = np.array([(wv * x).sum() for x in coords])
        return normalize_moment(moment, float(wv.sum())) if normalized else moment

    def edge_max(self) -> float:
        """Largest absolute value on any boundary face of the grid."""
        faces = _layout(self.x_min, self.dx, self.values.shape)[2]
        return float(np.abs(self.values.take(faces)).max(initial=0.0))

    def scaled(self, factor: float) -> "SampledDensity":
        return SampledDensity(self.x_min.copy(), self.dx.copy(), self.values * float(factor))

    def copy(self) -> "SampledDensity":
        return SampledDensity(self.x_min.copy(), self.dx.copy(), self.values.copy())

    @classmethod
    def on_grid(cls, x_min, x_max, nodes) -> "SampledDensity":
        """Zero field on the uniform grid from x_min to x_max with the given
        node counts per axis."""
        x_min = np.atleast_1d(np.asarray(x_min, dtype=float))
        x_max = np.atleast_1d(np.asarray(x_max, dtype=float))
        counts = np.atleast_1d(np.asarray(nodes, dtype=float))
        for n in counts:
            if not n.is_integer():
                raise InputError(f"node count {n:g} is not a whole number")
            if n >= _INDEX_LIMIT:
                raise InputError(f"node count {n} is past the largest index, "
                                 f"{np.iinfo(np.intp).max}")
        nodes = counts.astype(int)
        if np.any(nodes < 2):
            raise InputError("need at least 2 nodes per axis")
        return cls(x_min, (x_max - x_min) / (nodes - 1), np.zeros(tuple(nodes)))

    @classmethod
    def from_callable(cls, f, x_min, x_max, nodes) -> "SampledDensity":
        """Sample ``f`` on a uniform grid; f takes an (N, dim) point array."""
        grid = cls.on_grid(x_min, x_max, nodes)
        return cls(grid.x_min, grid.dx,
                   np.asarray(f(grid.points()), dtype=float).reshape(grid.values.shape))
