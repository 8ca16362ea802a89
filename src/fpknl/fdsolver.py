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
once and g = feedback / (2 dx).  Each RK4 stage scales (b, a) and g by
the share of the step it moves, h/2, h/2, h and h/6, and writes share·flux
into its row of a (4, nx + 1) flux table whose wall columns stay 0, so no
flux crosses the walls; the next stage's input is u plus the row's first
difference.  One product of the table with the RK4 weights
(1/3, 2/3, 1/3, 1) and one first difference finish the step.  The table,
its views and every buffer are built once per solve; the moment and mass
are one product with the oracle's own trapezoid rows [x·w; w].

Two guards keep a step inside RK4's stability region: the diffusion
number eps·dt/dx² may not exceed CFL_LIMIT, nor the advective number
max|v|·dt/dx ADVECTIVE_LIMIT (derived in fd_solve), so a drift too strong
for dt raises ConfigurationError before the first step instead of
overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError, NormalizationError
from .model import ModelParams, SampledDensity, require_finite

CFL_LIMIT = 0.25
# inside RK4's reach of 2√2 along the imaginary axis: see fd_solve
ADVECTIVE_LIMIT = 2.0
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
    snapshot times.

    The advective limit.  Frozen at a velocity v, the Fourier mode
    exp(i·j·θ) of the flux difference has dt times its eigenvalue equal to
    z = -4·d·sin²(θ/2) + i·c·sin θ, with d = eps·dt/dx² the diffusion
    number and c = |v|·dt/dx the advective number.  RK4 is stable where
    |1 + z + z²/2 + z³/6 + z⁴/24| <= 1, a region that reaches 2√2 along
    the imaginary axis (Hundsdorfer & Verwer, Numerical Solution of
    Time-Dependent Advection-Diffusion-Reaction Equations, 2003), so at
    d = 0 every mode is stable for c <= 2√2; for 0 < d <= CFL_LIMIT the
    damping widens that reach (to about 2.9).  ADVECTIVE_LIMIT = 2 stays
    inside it with a margin for what freezing v leaves out: v varies over
    the grid, and the state drift adds lam·dt to z.  The velocity
    lam·x + feedback·m is bounded by (|lam| + |feedback|)·max|x|, as a
    nonnegative density of unit mass has its moment m inside the grid.
    """
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
    # the bound on |v| in the docstring
    advective = (abs(lam) + abs(feedback)) * max(abs(x[0]), abs(x[-1])) * cfg.dt / dx
    if advective > ADVECTIVE_LIMIT:
        raise ConfigurationError(
            f"advective number max|v|·dt/dx = {advective:.3f} exceeds {ADVECTIVE_LIMIT}"
        )
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
    # per-edge rows (b, a) and the feedback gain g, scaled for each stage by
    # the share of the step it moves (h/2, h/2, h, h/6): row i of the flux
    # table holds share_i * flux, and the next stage's input is u plus its
    # first difference
    h = cfg.dt
    drift = 0.25 * lam * (x[1:] + x[:-1]) / dx
    edge = np.stack([drift - eps / dx ** 2, drift + eps / dx ** 2])
    g = 0.5 * feedback / dx
    shares = (0.5 * h, 0.5 * h, h, h / 6.0)
    rows = [share * edge for share in shares]
    gains = [share * g for share in shares]
    # the step is h/6 (k1 + 2 k2 + 2 k3 + k4): k1's row holds h/2 k1, so
    # it weighs 1/3; k2's 2/3; k3's (h k3) 1/3; k4's (h/6 k4) 1
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0])

    record = np.empty((nsteps + 1, 2))
    snapshots, snap_times = [], []
    v = np.empty_like(u)
    # each stage's state at the left and right node of every edge
    lefts, rights = (u[:-1],) + (v[:-1],) * 3, (u[1:],) + (v[1:],) * 3
    coef = np.empty_like(edge)
    coef_l, coef_r = coef
    part = np.empty(x.size - 1)
    # one row per stage; the wall columns stay 0: no flux through the walls
    flux = np.zeros((4, x.size + 1))
    inner = [row[1:-1] for row in flux]
    upper, lower = [row[1:] for row in flux], [row[:-1] for row in flux]
    total = np.empty(x.size + 1)
    total_upper, total_lower = total[1:], total[:-1]
    # a step is 29 calls on short rows, so their overhead is much of its
    # cost: the ufuncs are bound once and take their output positionally,
    # the products are ndarray.dot, which skips matmul's dispatch, and each
    # stage multiplies its two node rows apart, as one call over a strided
    # (2, nx - 1) view of both takes longer than the two
    add, mul, sub = np.add, np.multiply, np.subtract

    for step in range(nsteps + 1):
        moment_row.dot(u, out=record[step])
        if step in snap_steps:
            snapshots.append(SampledDensity(gamma.x_min.copy(), gamma.dx.copy(), u.copy()))
            snap_times.append(snap_steps[step])
        if step == nsteps:
            break
        m = float(record[step, 0])
        for i in range(4):
            add(rows[i], gains[i] * m, coef)
            mul(coef_l, lefts[i], inner[i])
            mul(coef_r, rights[i], part)
            add(inner[i], part, inner[i])                  # share_i * flux
            if i < 3:
                sub(upper[i], lower[i], v)
                add(v, u, v)                               # v = u + share_i * du/dt
                m = float(mrow.dot(v))
        weights.dot(flux, out=total)
        sub(total_upper, total_lower, v)
        add(u, v, u)

    moments, masses = record.T.copy()
    # a NaN mass has drifted too
    drifted = not np.max(np.abs(masses - masses[0])) <= MASS_DRIFT_FLAG
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
