"""Seeded inputs, operations and per-op correctness checks of the four workloads.

Every input of op ``i`` is drawn from ``numpy.random.default_rng([seed, salt, i])``,
so an op's input depends on the seed and its index only.  Properties that
set an op's cost (grid size, dimension, noisy share) follow
a balanced schedule: each block of ops holds every class exactly once, in a
seeded order.  Run-to-run figures then move with the program, not with the
mix a seed happens to draw.

An op returns its output or raises; ``check`` turns that into one of
``OK`` (right value, or exactly the typed error that is the correct
outcome), ``FAILED`` (a typed ``FpknlError`` where a value was due) or
``WRONG`` (a value that misses its reference, any other exception, or a
value where an error was due).  Checks use ``reference`` and numpy only,
never fpknl code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

import fpknl
import fpknl.checks as checks
from fpknl import evolution as ev
from fpknl import packets
from fpknl import symmetry as sym
from fpknl import variations as var

import calibrate
import reference as ref

OK, FAILED, WRONG = "ok", "failed", "wrong"

# gates, as stated for each workload
FD_LINF_TOL = 5e-3
FD_MASS_TOL = 1e-6
QUAD_MASS_TOL = 1e-6
QUAD_MOMENT_TOL = 1e-6
ROUNDTRIP_TOL = 1e-4
FORWARD_REL_TOL = 1e-9
INVERSE_PARAM_TOL = 1e-12
ROUTE_TOL = 1e-8
LONG_HORIZON_TOL = 1e-8


def op_rng(seed: int, salt: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, i])


def scheduled(seed: int, salt: int, i: int, pattern: tuple):
    """Class of op i: each block of len(pattern) ops is a seeded permutation."""
    block, pos = divmod(i, len(pattern))
    order = np.random.default_rng([seed, salt, 1_000_003, block]).permutation(len(pattern))
    return pattern[order[pos]]


def every_nth(seed: int, salt: int, i: int, n: int) -> bool:
    """True for exactly one op in each run of n consecutive ops."""
    offset = int(np.random.default_rng([seed, salt, 2_000_003]).integers(n))
    return (i + offset) % n == 0


def params_of(m: ref.Model) -> fpknl.ModelParams:
    return fpknl.ModelParams(m.drift, m.coupling_state, m.coupling_mean,
                             m.diffusion, m.coupling)


def one_by_one(v: float) -> np.ndarray:
    return np.array([[float(v)]])


def random_spd(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = q @ np.diag(rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (p + p.T)


def grid_axes(x_min: np.ndarray, dx: np.ndarray, shape: tuple) -> list[np.ndarray]:
    return [x_min[i] + dx[i] * np.arange(shape[i]) for i in range(len(shape))]


def sampled_gaussian(g: ref.Gaussian, lo: float, hi: float, nodes: int,
                     dim: int) -> fpknl.SampledDensity:
    x_min = np.full(dim, lo)
    dx = np.full(dim, (hi - lo) / (nodes - 1))
    axes = grid_axes(x_min, dx, (nodes,) * dim)
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    values = ref.density([g], pts).reshape((nodes,) * dim)
    return fpknl.SampledDensity(x_min, dx, values)


def outcome(err: BaseException | None, expected: type | None) -> str | None:
    """Verdict decided by the raised error alone, or None if a value is due."""
    if expected is not None:
        return OK if err is not None and type(err) is expected else WRONG
    if err is None:
        return None
    return FAILED if isinstance(err, fpknl.FpknlError) else WRONG


class Workload:
    """One workload: ``make(i)`` builds op i's input, ``run`` is the timed
    op, ``check`` judges its outcome.  Why each workload exists is stated
    in BENCHMARK.json; ``properties`` records its input mix."""

    name = ""
    salt = 0
    calibrator = calibrate.Calibrator  # host-speed reference, see calibrate.py
    properties: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def warmup_inputs(self) -> list:
        # drawn from their own stream, so the timed ops are not repeats
        return [self.make_from(op_rng(self.seed, self.salt + 500, k), i=k)
                for k in range(len(self.warmup_classes))]

    def make(self, i: int):
        return self.make_from(op_rng(self.seed, self.salt, i), i=i, timed=True)


# -------------------------------------------------------------- fd_oracle

@dataclass
class FdInput:
    model: ref.Model
    params: fpknl.ModelParams
    packet: fpknl.GaussianPacket
    nx: int
    dt: float
    steps: int


class FdOracle(Workload):
    name = "fd_oracle"
    salt = 11
    calibrator = calibrate.Stepping
    GRIDS = ((601, 1e-4), (1200, 2e-5), (2399, 1e-5))
    STEPS = (240, 270, 300, 330, 360)
    CLASSES = tuple(grid + (steps,) for grid, steps in product(GRIDS, STEPS))
    X_MIN, X_MAX = -6.0, 6.0
    warmup_classes = ((601, 1e-4),)
    properties = {
        "op": "checks.fd_vs_analytic (fd_solve + closed-form packet + 400 moments)",
        "size_mix": "nx/dt 601/1e-4, 1200/2e-5, 2399/1e-5 in equal shares",
        "steps": "240, 270, 300, 330, 360 in equal shares, crossed with the grids",
        "dims": [1], "K": 1,
        "model": "drift U(0.8,1.2), coupling_mean U(-0.7,-0.3), diffusion U(0.08,0.12)",
        "gate": "linf <= 5e-3 and mass deviation <= 1e-6 vs the closed-form packet",
    }

    def make_from(self, rng, i, timed=False):
        nx, dt, steps = scheduled(self.seed, self.salt, i, self.CLASSES) if timed \
            else self.warmup_classes[i] + (20,)
        model = ref.Model(one_by_one(rng.uniform(0.8, 1.2)), one_by_one(0.0),
                          one_by_one(rng.uniform(-0.7, -0.3)),
                          float(rng.uniform(0.08, 0.12)), 1.0)
        packet = fpknl.GaussianPacket(mean=[rng.uniform(0.3, 0.7)],
                                      num=[[rng.uniform(0.8, 1.25)]], den=[[1.0]])
        return FdInput(model, params_of(model), packet, nx, dt, steps)

    def run(self, inp: FdInput):
        return checks.fd_vs_analytic(inp.params, inp.packet, self.X_MIN, self.X_MAX,
                                     inp.nx, inp.dt, inp.steps * inp.dt)

    def check(self, inp: FdInput, out, err) -> str:
        verdict = outcome(err, None)
        if verdict is not None:
            return verdict
        res = out.result
        x = self.X_MIN + (self.X_MAX - self.X_MIN) / (inp.nx - 1) * np.arange(inp.nx)
        prec = float(inp.packet.num[0, 0])
        g0 = ref.Gaussian(1.0, inp.packet.mean.copy(), one_by_one(inp.model.diffusion / prec))
        exact = ref.density(ref.evolve_mixture(inp.model, [g0], inp.steps * inp.dt),
                            x.reshape(-1, 1))
        snap = res.snapshots[0].values
        linf = float(np.max(np.abs(snap - exact)))
        mass_dev = max(abs(float(np.trapezoid(snap, x)) - 1.0),
                       float(np.max(np.abs(np.asarray(res.masses) - 1.0))))
        return OK if linf <= FD_LINF_TOL and mass_dev <= FD_MASS_TOL else WRONG


# ------------------------------------------------------------ quad_forward

@dataclass
class QuadInput:
    model: ref.Model
    params: fpknl.ModelParams
    initial: ref.Gaussian
    gamma: fpknl.SampledDensity
    tau: float
    noise: np.ndarray | None = None


class QuadForward(Workload):
    name = "quad_forward"
    salt = 23
    calibrator = calibrate.DenseKernel
    CLASSES = ((1, 1201), (1, 1801), (1, 2401), (2, 31), (2, 45))
    # box half-widths: Gaussians of sd up to 0.55 decay below the 1e-12 edge
    # test, and at 31 nodes the sd is still above one grid step
    BOX = {1: 6.0, 2: 4.75}
    warmup_classes = ((1, 1201), (2, 31))
    properties = {
        "op": "evolution.plan_for + evolution.evolve_quadrature",
        "size_mix": "1D N 1201, 1801, 2401 and 2D N 31^2, 45^2 in equal shares",
        "dims": [1, 2], "K": 1,
        "plan_grid_repeat_share": 0.0,
        "model": "drift U(0.8,1.2) I + 0.1 U(-1,1) off-diagonal, coupling_mean U(-0.6,-0.4) I, "
                 "diffusion U(0.12,0.18), t-s U(0.6,1.0)",
        "initial": "Gaussian, mean U(-0.5,0.5) per axis, covariance eigenvalues in [0.45^2, 0.55^2]; "
                   "grid [-6,6] (1D), [-4.75,4.75]^2 (2D)",
        "gate": "quadrature mass within 1e-6; first moment within 1e-6 of the closed-form trajectory",
    }

    def make_from(self, rng, i, timed=False):
        dim, nodes = scheduled(self.seed, self.salt, i, self.CLASSES) if timed \
            else self.warmup_classes[i]
        lam = rng.uniform(0.8, 1.2) * np.eye(dim)
        lam += 0.1 * rng.uniform(-1.0, 1.0, (dim, dim)) * (1.0 - np.eye(dim))
        model = ref.Model(lam, np.zeros((dim, dim)), rng.uniform(-0.6, -0.4) * np.eye(dim),
                          float(rng.uniform(0.12, 0.18)), 1.0)
        cov = random_spd(rng, dim, 0.45 ** 2, 0.55 ** 2)
        g0 = ref.Gaussian(1.0, rng.uniform(-0.5, 0.5, dim), cov)
        box = self.BOX[dim]
        return QuadInput(model, params_of(model), g0,
                         sampled_gaussian(g0, -box, box, nodes, dim), float(rng.uniform(0.6, 1.0)))

    def run(self, inp: QuadInput):
        plan = ev.plan_for(inp.params, 0.0, inp.tau, inp.gamma)
        return ev.evolve_quadrature(inp.gamma, plan)

    def check(self, inp: QuadInput, out, err) -> str:
        verdict = outcome(err, None)
        if verdict is not None:
            return verdict
        axes = grid_axes(out.x_min, out.dx, out.values.shape)
        mass, moment = ref.trapezoid_moments(out.values, axes)
        target = ref.moment_at(inp.model, inp.initial.mean, inp.tau)
        ok = abs(mass - 1.0) <= QUAD_MASS_TOL and \
            float(np.max(np.abs(moment - target))) <= QUAD_MOMENT_TOL
        return OK if ok else WRONG


# ------------------------------------------------------------ quad_inverse

class QuadInverse(Workload):
    name = "quad_inverse"
    salt = 37
    calibrator = calibrate.LeastSquares
    SIZES = (401, 401, 801, 801, 1201)
    NOISE = 1e-3
    warmup_classes = (401,)
    properties = {
        "op": "evolution.plan_for + evolve_quadrature + inverse_evolve (one plan and grid per op)",
        "size_mix": "N 401, 801, 1201 in shares 2:2:1",
        "dims": [1], "K": 1,
        "noisy_image_share": 0.125,
        "plan_grid_repeat_share": {"across_ops": 0.0, "forward_and_inverse_of_one_op": 1.0},
        "model": "drift U(0.8,1.2), coupling_mean U(-0.6,-0.4), diffusion U(0.4,0.6), "
                 "t-s U(0.08,0.12), grid [-8, 8]",
        "gate": "roundtrip max error <= 1e-4; noisy image must raise IllPosedInverseError",
    }

    def make_from(self, rng, i, timed=False):
        nodes = scheduled(self.seed, self.salt, i, self.SIZES) if timed else self.warmup_classes[i]
        model = ref.Model(one_by_one(rng.uniform(0.8, 1.2)), one_by_one(0.0),
                          one_by_one(rng.uniform(-0.6, -0.4)), float(rng.uniform(0.4, 0.6)), 1.0)
        g0 = ref.Gaussian(1.0, np.array([rng.uniform(0.1, 0.5)]),
                          one_by_one(model.diffusion / rng.uniform(0.8, 1.25)))
        noise = None
        if timed and every_nth(self.seed, self.salt, i, 8):
            noise = self.NOISE * rng.standard_normal(nodes)
        return QuadInput(model, params_of(model), g0, sampled_gaussian(g0, -8.0, 8.0, nodes, 1),
                         float(rng.uniform(0.08, 0.12)), noise)

    def run(self, inp: QuadInput):
        plan = ev.plan_for(inp.params, 0.0, inp.tau, inp.gamma)
        image = ev.evolve_quadrature(inp.gamma, plan)
        if inp.noise is not None:
            image = fpknl.SampledDensity(image.x_min, image.dx, image.values + inp.noise)
        return ev.inverse_evolve(image, plan)

    def check(self, inp: QuadInput, out, err) -> str:
        expected = fpknl.IllPosedInverseError if inp.noise is not None else None
        verdict = outcome(err, expected)
        if verdict is not None:
            return verdict
        err_max = float(np.max(np.abs(out.values - inp.gamma.values)))
        return OK if err_max <= ROUNDTRIP_TOL else WRONG


# ------------------------------------------------------------- closed_form

@dataclass
class MixtureInput:
    model: ref.Model
    params: fpknl.ModelParams
    comps: list  # reference Gaussians, empty for a long-horizon op
    initial: fpknl.GaussianMixture | fpknl.GaussianPacket
    tau: float
    pts: np.ndarray
    route_pts: np.ndarray | None = None
    image_moment: float = 0.0
    long_horizon: bool = False


class ClosedForm(Workload):
    name = "closed_form"
    salt = 53
    calibrator = calibrate.ClosedFormAlgebra
    DIMS = (1, 2, 3)
    CLASSES = tuple(product(DIMS, range(1, 17)))
    EVAL_POINTS = 2048
    ROUTE_POINTS = 512
    PROBE_OPS = 8
    warmup_classes = (1, 2, 3)
    properties = {
        "op": "plan_for + evolve_analytic + mixture eval + inverse_evolve; in 1D also the shift, "
              "conclusion and conjugation symmetry routes",
        "size_mix": "dims 1, 2, 3 in equal shares; 2048 eval points; 512 route points",
        "dims": [1, 2, 3], "K": "1..16 in equal shares, crossed with the dims",
        "long_horizon_share": 0.0,
        "known_defect_probe": "8 long-horizon ops (evolve_packet + eval) per process, after the "
                              "measured ops, untimed and outside attempted/failed: drift 3, "
                              "coupling_mean -0.5, t U(250,400); reference OU stationary N(0, eps/3)",
        "model": "drift U(0.6,1.2) I + 0.2 U(-1,1) off-diagonal, coupling_state 0.1 U(-1,1), "
                 "coupling_mean U(-0.6,-0.3) I, diffusion U(0.05,0.3), t-s U(0.3,1.2)",
        "gate": "forward parameters and eval within 1e-9 (relative), inverse parameters within 1e-12, "
                "routes pairwise within 1e-8, long horizon within 1e-8 of the OU law",
    }

    def make_from(self, rng, i, timed=False):
        dim, n_comp = scheduled(self.seed, self.salt, i, self.CLASSES) if timed \
            else (self.warmup_classes[i], int(rng.integers(1, 17)))
        lam = rng.uniform(0.6, 1.2) * np.eye(dim)
        lam += 0.2 * rng.uniform(-1.0, 1.0, (dim, dim)) * (1.0 - np.eye(dim))
        model = ref.Model(lam, 0.1 * rng.uniform(-1.0, 1.0, (dim, dim)),
                          rng.uniform(-0.6, -0.3) * np.eye(dim), float(rng.uniform(0.05, 0.3)), 1.0)
        weights = rng.uniform(0.2, 1.0, n_comp)
        weights /= weights.sum()
        comps, packs = [], []
        for w in weights:
            prec = random_spd(rng, dim, 0.5, 3.0)
            scale = rng.uniform(0.5, 2.0)
            mean = rng.uniform(-1.0, 1.0, dim)
            comps.append(ref.Gaussian(float(w), mean, model.diffusion * np.linalg.inv(prec)))
            packs.append(fpknl.GaussianPacket(mean=mean.copy(), num=scale * prec,
                                              den=scale * np.eye(dim), weight=float(w)))
        tau = float(rng.uniform(0.3, 1.2))
        pts = rng.standard_normal((self.EVAL_POINTS, dim))
        route_pts = np.linspace(-3.0, 4.0, self.ROUTE_POINTS).reshape(-1, 1) if dim == 1 else None
        return MixtureInput(model, params_of(model), comps, fpknl.GaussianMixture(packs), tau,
                            pts, route_pts, float(rng.uniform(-0.5, 0.5)))

    def probe_inputs(self) -> list:
        """The long-horizon reproducer of a known defect, run apart from the
        measured ops so that its outcome never sets a timing or a failure count."""
        return [self._long_horizon(op_rng(self.seed, self.salt + 900, k))
                for k in range(self.PROBE_OPS)]

    def _long_horizon(self, rng) -> MixtureInput:
        model = ref.Model(one_by_one(3.0), one_by_one(0.0), one_by_one(-0.5),
                          float(rng.uniform(0.05, 0.3)), 1.0)
        prec = float(rng.uniform(1.0, 6.0))
        mean = np.array([rng.uniform(-1.0, 1.0)])
        packet = fpknl.GaussianPacket(mean=mean, num=[[prec]], den=[[1.0]])
        pts = rng.standard_normal((self.EVAL_POINTS, 1)) * np.sqrt(model.diffusion / 3.0) * 2.0
        return MixtureInput(model, params_of(model), [], packet,
                            float(rng.uniform(250.0, 400.0)), pts, long_horizon=True)

    def run(self, inp: MixtureInput):
        p = inp.params
        if inp.long_horizon:
            return packets.evolve_packet(inp.initial, p, inp.tau, 0.0).eval(p, inp.pts)
        plan = ev.plan_for(p, 0.0, inp.tau, inp.initial)
        u = ev.evolve_analytic(inp.initial, plan)
        values = u.eval(p, inp.pts)
        back = ev.inverse_evolve(u, plan)
        routes = None
        if inp.route_pts is not None:
            op = sym.linsym_operator(p, var.matriciant(p, 0.0, 0.0), plan.x_start)
            shifts = sym.build_shifts(op, inp.initial, p, 0.0, moment_override=[inp.image_moment])
            xs = inp.route_pts
            routes = (sym.symmetry_apply_shift(op, u, shifts, inp.tau).eval(p, xs),
                      sym.symmetry_apply_conclusion(op, u, shifts, inp.tau).eval(p, xs),
                      sym.symmetry_apply_evolution(op, u, plan,
                                                   moment_override=[inp.image_moment]).eval(p, xs))
        return u, values, back, routes

    def check(self, inp: MixtureInput, out, err) -> str:
        verdict = outcome(err, None)
        if verdict is not None:
            return verdict
        if inp.long_horizon:
            exact = ref.density([ref.ou_stationary(inp.model)], inp.pts)
            ok = np.all(np.isfinite(out)) and \
                float(np.max(np.abs(out - exact))) <= LONG_HORIZON_TOL * max(1.0, float(np.max(exact)))
            return OK if ok else WRONG
        u, values, back, routes = out
        exact = ref.evolve_mixture(inp.model, inp.comps, inp.tau)
        if len(u.components) != len(exact) or len(back.components) != len(exact):
            return WRONG
        eps = inp.model.diffusion
        worst = 0.0
        for c, e in zip(u.components, exact):
            q = np.linalg.solve(c.den.T, c.num.T).T
            cov = eps * np.linalg.inv(0.5 * (q + q.T))
            worst = max(worst, abs(c.weight - e.weight) / max(1.0, e.weight),
                        _rel(c.mean, e.mean), _rel(cov, e.cov))
        exact_vals = ref.density(exact, inp.pts)
        worst = max(worst, _rel(values, exact_vals))
        inv_err = max(max(float(np.max(np.abs(b.mean - a.mean))), float(np.max(np.abs(b.num - a.num))),
                          float(np.max(np.abs(b.den - a.den))), abs(b.weight - a.weight))
                      for a, b in zip(inp.initial.components, back.components))
        route_err = 0.0
        if routes is not None:
            route_err = max(float(np.max(np.abs(routes[a] - routes[b])))
                            for a, b in ((0, 1), (0, 2), (1, 2)))
        ok = worst <= FORWARD_REL_TOL and inv_err <= INVERSE_PARAM_TOL and route_err <= ROUTE_TOL
        return OK if ok else WRONG


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(1.0, float(np.max(np.abs(b))))


WORKLOADS = {w.name: w for w in (FdOracle, QuadForward, QuadInverse, ClosedForm)}
