"""Independent finite-difference oracle for the 1D mean-coupled equation.

Method of lines: conservative second-order flux differencing in space,
classic RK4 in time.  The first moment entering the drift is recomputed
from the grid at every Runge-Kutta stage, so the solve is self-consistent
and never uses the closed-form moment shortcut it is meant to validate.
The solve marches the nodes of its input density, whose origin and
spacing its snapshots carry; the configuration fixes only the time
settings and the node count nx, and an input with another number of
nodes raises InputError, so steps times nx is the work done.  The drift
couples to the grid's raw first moment, which is the moment per unit
mass only at mass 1, so an input whose trapezoid mass is off 1 by more
than MASS_TOL raises NormalizationError naming that mass rather than
solve another equation.

The midpoint velocity on edge j splits into the state drift
0.25·lam·(x[j] + x[j+1]) and the spatially constant feedback 0.5·feedback·m,
so the flux over dx is b_j·u[j] + a_j·u[j+1] + g·m·(u[j] + u[j+1]), with
diffusion, state drift and 1/dx folded into the per-edge coefficients a, b
once and g = feedback / (2 dx).  The flux is written into a zero-padded
buffer of nx + 1 edges, whose first difference is du/dt with zero flux
through both walls.  Each step works in preallocated buffers; the moment
and mass are one product with the oracle's own trapezoid rows [x·w; w].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError, NormalizationError
from .model import ModelParams, SampledDensity, require_finite

CFL_LIMIT = 0.25
MASS_DRIFT_FLAG = 1e-4
# the input's trapezoid mass must be 1 to within this
MASS_TOL = 1e-6


@dataclass(frozen=True)
class FDConfig:
    nx: int
    dt: float
    t_end: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        for name in ("dt", "t_end"):
            require_finite(ConfigurationError, name, getattr(self, name))
        require_finite(ConfigurationError, "snapshot times", *self.snapshot_times)
        if not float(self.nx).is_integer():
            raise ConfigurationError(f"nx must be a whole number of nodes, got {self.nx}")
        if self.nx < 8:
            raise ConfigurationError("need at least 8 grid nodes")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigurationError("dt and t_end must be positive")


@dataclass(eq=False)
class FDResult:
    snapshots: list
    snapshot_times: np.ndarray
    times: np.ndarray
    moments: np.ndarray
    masses: np.ndarray
    mass_drifted: bool = field(default=False)


def fd_solve(params: ModelParams, gamma: SampledDensity,
             cfg: FDConfig) -> FDResult:
    """March the sampled initial density on its own nodes to t_end; record
    the grid moment and trapezoid mass at every step and the density at
    snapshot times."""
    if params.dim != 1:
        raise ConfigurationError("the finite-difference oracle is one-dimensional")
    if gamma.values.shape != (cfg.nx,):
        raise InputError(f"initial density has shape {gamma.values.shape}; "
                         f"the configuration marches {cfg.nx} nodes")
    eps = params.diffusion
    dx = float(gamma.dx[0])
    cfl = eps * cfg.dt / dx ** 2
    if cfl > CFL_LIMIT:
        raise ConfigurationError(
            f"diffusion stability number {cfl:.3f} exceeds {CFL_LIMIT}"
        )
    lam = float(params.effective_drift[0, 0])
    feedback = float(params.mean_feedback[0, 0])
    x = gamma.coordinate(0)
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

    # trapezoid rows [x·w; w]: moment_row @ u is (first moment, mass)
    w = np.full(x.size, dx)
    w[[0, -1]] *= 0.5
    moment_row = np.stack([x * w, w])
    mrow = moment_row[0]
    # the drift couples to the raw first moment, which is the moment per
    # unit mass only at mass 1: any other mass would solve another equation
    mass = float(w @ u)
    if not abs(mass - 1.0) <= MASS_TOL:
        raise NormalizationError(
            f"initial mass {mass:.12g} is not 1 within {MASS_TOL:.0e}; the oracle "
            "couples to the raw first moment, so it takes unit-mass densities only")
    # per-edge rows (b, a) and the feedback gain g, each scaled by the RK4
    # weight (h/6 or h/3) of the stage it serves, so a stage yields weight * du/dt
    h = cfg.dt
    drift = 0.25 * lam * (x[1:] + x[:-1]) / dx
    edge = np.stack([drift - eps / dx ** 2, drift + eps / dx ** 2])
    g = 0.5 * feedback / dx
    sixth, g6 = (h / 6.0) * edge, (h / 6.0) * g
    third, g3 = (h / 3.0) * edge, (h / 3.0) * g

    record = np.empty((nsteps + 1, 2))
    snapshots, snap_times = [], []
    v, acc, dv = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    # (u[:-1], u[1:]) and (v[:-1], v[1:]) as read-only (2, nx - 1) views
    pair_u = np.lib.stride_tricks.sliding_window_view(u, 2).T
    pair_v = np.lib.stride_tricks.sliding_window_view(v, 2).T
    coef, prod = np.empty_like(edge), np.empty_like(edge)
    flux = np.zeros(x.size + 1)  # the end entries stay 0: no flux through the walls
    inner, right, left = flux[1:-1], flux[1:], flux[:-1]

    def stage(pair, rows, gain, m, out):
        np.add(rows, gain * m, out=coef)
        np.multiply(coef, pair, out=prod)
        np.add(prod[0], prod[1], out=inner)
        np.subtract(right, left, out=out)

    for step in range(nsteps + 1):
        np.matmul(moment_row, u, out=record[step])
        if step in snap_steps:
            snapshots.append(SampledDensity(gamma.x_min.copy(), gamma.dx.copy(), u.copy()))
            snap_times.append(snap_steps[step])
        if step == nsteps:
            break
        stage(pair_u, sixth, g6, float(record[step, 0]), acc)       # acc = h/6 k1
        np.multiply(acc, 3.0, out=v)
        np.add(v, u, out=v)                                         # v = u + h/2 k1
        stage(pair_v, third, g3, float(mrow @ v), dv)               # dv = h/3 k2
        np.add(acc, dv, out=acc)
        np.multiply(dv, 1.5, out=v)
        np.add(v, u, out=v)                                         # v = u + h/2 k2
        stage(pair_v, third, g3, float(mrow @ v), dv)               # dv = h/3 k3
        np.add(acc, dv, out=acc)
        np.multiply(dv, 3.0, out=v)
        np.add(v, u, out=v)                                         # v = u + h k3
        stage(pair_v, sixth, g6, float(mrow @ v), dv)               # dv = h/6 k4
        np.add(acc, dv, out=acc)
        np.add(u, acc, out=u)

    moments, masses = record.T.copy()
    drifted = bool(np.max(np.abs(masses - masses[0])) > MASS_DRIFT_FLAG)
    return FDResult(snapshots=snapshots, snapshot_times=np.array(snap_times),
                    times=h * np.arange(nsteps + 1), moments=moments,
                    masses=masses, mass_drifted=drifted)


def compare(a: SampledDensity, b: SampledDensity) -> float:
    """Largest absolute difference of a and b on their common grid."""
    if a.values.shape != b.values.shape:
        raise InputError("grids differ in shape")
    if np.max(np.abs(a.x_min - b.x_min)) > 1e-12 or \
       np.max(np.abs(a.dx - b.dx)) > 1e-12:
        raise InputError("grids differ in origin or spacing")
    return float(np.max(np.abs(a.values - b.values)))
