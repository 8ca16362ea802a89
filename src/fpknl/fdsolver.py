"""Independent finite-difference oracle for the 1D mean-coupled equation.

Method of lines: conservative second-order flux differencing in space,
classic RK4 in time.  The first moment entering the drift is recomputed
from the grid at every Runge-Kutta stage, so the solve is self-consistent
and never uses the closed-form moment shortcut it is meant to validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .model import ModelParams, SampledDensity

CFL_LIMIT = 0.25
MASS_DRIFT_FLAG = 1e-4


@dataclass(frozen=True)
class FDConfig:
    x_min: float
    x_max: float
    nx: int
    dt: float
    t_end: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.nx < 8:
            raise ConfigurationError("need at least 8 grid nodes")
        if self.x_max <= self.x_min:
            raise ConfigurationError("x_max must exceed x_min")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigurationError("dt and t_end must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)


@dataclass
class FDResult:
    snapshots: list
    snapshot_times: np.ndarray
    times: np.ndarray
    moments: np.ndarray
    masses: np.ndarray
    mass_drifted: bool = field(default=False)


def _rhs(u, x, dx, eps, lam, feedback):
    """du/dt from flux differences with zero flux through both ends; the
    moment is taken from u itself."""
    xu = np.dot(x, u)
    moment = (xu - 0.5 * (x[0] * u[0] + x[-1] * u[-1])) * dx
    vel = lam * x + feedback * moment
    # midpoint fluxes between nodes j and j+1
    flux = eps * (u[1:] - u[:-1]) / dx + 0.25 * (vel[1:] + vel[:-1]) * (u[1:] + u[:-1])
    out = np.empty_like(u)
    out[1:-1] = (flux[1:] - flux[:-1]) / dx
    out[0] = flux[0] / dx
    out[-1] = -flux[-1] / dx
    return out


def fd_solve(params: ModelParams, gamma: SampledDensity,
             cfg: FDConfig) -> FDResult:
    """March the sampled initial density to t_end; record the grid moment
    and trapezoid mass at every step and the density at snapshot times."""
    if params.dim != 1:
        raise ConfigurationError("the finite-difference oracle is one-dimensional")
    if gamma.dim != 1 or gamma.values.shape[0] != cfg.nx:
        raise InputError("initial density does not live on the configured grid")
    if abs(float(gamma.x_min[0]) - cfg.x_min) > 1e-12 or \
       abs(float(gamma.dx[0]) - cfg.dx) > 1e-12:
        raise InputError("initial density grid does not match the configuration")
    eps = params.diffusion
    dx = cfg.dx
    cfl = eps * cfg.dt / dx ** 2
    if cfl > CFL_LIMIT:
        raise ConfigurationError(
            f"diffusion stability number {cfl:.3f} exceeds {CFL_LIMIT}"
        )
    lam = float(params.effective_drift[0, 0])
    feedback = float(params.mean_feedback[0, 0])
    x = cfg.x
    u = gamma.values.copy()

    nsteps = int(round(cfg.t_end / cfg.dt))
    if abs(nsteps * cfg.dt - cfg.t_end) > 1e-9:
        raise ConfigurationError("t_end must be an integer number of steps")
    snap_steps = {}
    for ts in cfg.snapshot_times:
        k = int(round(ts / cfg.dt))
        if abs(k * cfg.dt - ts) > 1e-9 or not (0 <= k <= nsteps):
            raise ConfigurationError(f"snapshot time {ts} is not on the step grid")
        snap_steps.setdefault(k, ts)

    times = np.empty(nsteps + 1)
    moments = np.empty(nsteps + 1)
    masses = np.empty(nsteps + 1)
    snapshots, snap_times = [], []

    def record(k):
        times[k] = k * cfg.dt
        moments[k] = np.trapezoid(x * u, dx=dx)
        masses[k] = np.trapezoid(u, dx=dx)
        if k in snap_steps:
            snapshots.append(SampledDensity(np.array([cfg.x_min]),
                                            np.array([dx]), u.copy()))
            snap_times.append(snap_steps[k])

    record(0)
    h = cfg.dt
    for k in range(1, nsteps + 1):
        k1 = _rhs(u, x, dx, eps, lam, feedback)
        k2 = _rhs(u + 0.5 * h * k1, x, dx, eps, lam, feedback)
        k3 = _rhs(u + 0.5 * h * k2, x, dx, eps, lam, feedback)
        k4 = _rhs(u + h * k3, x, dx, eps, lam, feedback)
        u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(k)

    drifted = bool(np.max(np.abs(masses - masses[0])) > MASS_DRIFT_FLAG)
    return FDResult(snapshots=snapshots, snapshot_times=np.array(snap_times),
                    times=times, moments=moments, masses=masses,
                    mass_drifted=drifted)


def compare(a: SampledDensity, b: SampledDensity) -> tuple[float, float, float]:
    """(L-inf, L1, L2) norms of a - b on their common grid."""
    if a.values.shape != b.values.shape:
        raise InputError("grids differ in shape")
    if np.max(np.abs(a.x_min - b.x_min)) > 1e-12 or \
       np.max(np.abs(a.dx - b.dx)) > 1e-12:
        raise InputError("grids differ in origin or spacing")
    diff = a.values - b.values
    w = a.weights()
    return (float(np.max(np.abs(diff))), float(np.sum(w * np.abs(diff))),
            float(np.sqrt(np.sum(w * diff ** 2))))
