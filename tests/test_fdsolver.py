import ast
import pathlib

import numpy as np
import pytest

from fpknl import fdsolver
from fpknl import (ConfigurationError, FDConfig, GaussianMixture,
                   GaussianPacket, InputError, ModelParams, NormalizationError,
                   SampledDensity, compare, evolve_analytic, evolve_packet, fd_solve,
                   plan_for)
from fpknl import checks
from fpknl.checks import fd_vs_analytic, reference_case


def heat_params(eps=0.5):
    return ModelParams(drift=[[0.0]], coupling_state=[[0.0]],
                       coupling_mean=[[0.0]], diffusion=eps)


def sample(packet, params, half, cfg):
    """The packet on cfg.nx nodes from -half to half."""
    return SampledDensity.from_callable(lambda pts: packet.eval(params, pts),
                                        [-half], [half], [cfg.nx])


def test_the_oracle_imports_nothing_of_the_closed_form():
    # the FD oracle checks the closed form, so it must share none of it: no
    # import, absolute or relative, of the modules that build matriciants,
    # kernels, packets, symmetry images or evolution plans.  Read from the
    # module's syntax tree, so a function-level import counts too
    tree = ast.parse(pathlib.Path(fdsolver.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            if node.module in (None, "fpknl"):  # from . import x, from fpknl import x
                names.update(alias.name for alias in node.names)
    assert {"model", "errors", "numpy"} <= names  # the imports it has are seen
    assert not names & {"evolution", "kernels", "packets", "symmetry", "variations"}


def test_heat_solution_matches_kernel_reference():
    p = heat_params(0.5)
    cfg = FDConfig(nx=1601, dt=2e-5, t_end=0.5, snapshot_times=(0.5,))
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    res = fd_solve(p, sample(pk, p, 8.0, cfg), cfg)
    exact = sample(evolve_packet(pk, p, 0.5, 0.0), p, 8.0, cfg)
    linf = compare(res.snapshots[0], exact)
    assert linf < 1e-4
    assert not res.mass_drifted


def test_reference_case_full_run(ref_case, fd_base):
    assert fd_base.linf <= 5e-3
    assert fd_base.moment_dev <= 1e-3
    assert fd_base.mass_dev <= 1e-6
    assert fd_base.runtime <= 60.0


def test_reference_case_second_order(fd_base, fd_refined):
    assert 3.0 <= fd_base.linf / fd_refined.linf <= 5.0


def test_reduction_check_runs_both_solves_itself(ref_case, monkeypatch):
    # the command line's path: refine on and no comparisons passed in, so
    # the check solves at (nx, dt) and at (2 nx - 1, dt / 2) on its own
    p, pk = ref_case
    calls = []

    def spy(*args):
        calls.append(args[2:])
        return fd_vs_analytic(*args)

    monkeypatch.setattr(checks, "fd_vs_analytic", spy)
    results = checks.check_fd_reduction(p, pk, nx=301, dt=1e-4, t_end=0.5)
    assert calls == [(-6.0, 6.0, 301, 1e-4, 0.5), (-6.0, 6.0, 601, 5e-5, 0.5)]
    assert [r.name for r in results] == ["reduction-linf", "reduction-runtime",
                                         "moment-decoupling", "fd-mass", "reduction-order"]
    assert all(r.passed for r in results), [r.line() for r in results]
    assert results[-1].value == pytest.approx(4.0, abs=0.05)


def test_mixture_matches_analytic_pathway():
    # asymmetric mixture exercises the shared-moment coupling
    p = ModelParams(drift=[[1.0]], coupling_state=[[0.0]],
                    coupling_mean=[[-0.5]], diffusion=0.1, coupling=1.0)
    mix = GaussianMixture([
        GaussianPacket(mean=[-0.8], num=[[1.0]], den=[[1.0]], weight=0.6),
        GaussianPacket(mean=[0.8], num=[[1.0]], den=[[1.0]], weight=0.4),
    ])
    cfg = FDConfig(nx=901, dt=5e-5, t_end=0.3, snapshot_times=(0.3,))
    res = fd_solve(p, sample(mix, p, 6.0, cfg), cfg)
    exact = sample(evolve_analytic(mix, plan_for(p, 0.0, 0.3, mix)), p, 6.0, cfg)
    linf = compare(res.snapshots[0], exact)
    assert linf < 5e-3
    # the self-consistent grid moment follows the closed form
    closed = p.moment_trajectory(mix.first_moment(), 0.0).at(res.times)[:, 0]
    assert np.max(np.abs(res.moments - closed)) < 1e-3


def reference_rhs(u, x, dx, eps, lam, feedback):
    """The unfused right-hand side: du/dt from flux differences with zero
    flux through both ends; the moment is taken from u itself."""
    moment = (np.dot(x, u) - 0.5 * (x[0] * u[0] + x[-1] * u[-1])) * dx
    vel = lam * x + feedback * moment
    flux = eps * (u[1:] - u[:-1]) / dx + 0.25 * (vel[1:] + vel[:-1]) * (u[1:] + u[:-1])
    out = np.empty_like(u)
    out[1:-1] = (flux[1:] - flux[:-1]) / dx
    out[0] = flux[0] / dx
    out[-1] = -flux[-1] / dx
    return out


def reference_solve(params, gamma, cfg):
    """Classic RK4 over reference_rhs on gamma's nodes: the density after
    every step and its trapezoid moment and mass."""
    x, dx = gamma.coordinate(0), float(gamma.dx[0])
    args = (x, dx, params.diffusion, float(params.effective_drift[0, 0]),
            float(params.mean_feedback[0, 0]))
    u, h = gamma.values.copy(), cfg.dt
    states = [u.copy()]
    for _ in range(round(cfg.t_end / h)):
        k1 = reference_rhs(u, *args)
        k2 = reference_rhs(u + 0.5 * h * k1, *args)
        k3 = reference_rhs(u + 0.5 * h * k2, *args)
        k4 = reference_rhs(u + h * k3, *args)
        u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(u.copy())
    states = np.array(states)
    return (states, np.trapezoid(x * states, dx=dx, axis=1),
            np.trapezoid(states, dx=dx, axis=1))


@pytest.mark.parametrize("coupling_mean, coupling", [(-2.5, 1.0), (0.0, 0.0)],
                         ids=["strong-feedback", "drift-only"])
def test_fused_step_matches_reference_rk4(coupling_mean, coupling):
    p = ModelParams(drift=[[3.0]], coupling_state=[[0.5]],
                    coupling_mean=[[coupling_mean]], diffusion=0.1, coupling=coupling)
    cfg = FDConfig(nx=241, dt=2e-4, t_end=0.04, snapshot_times=(0.0, 0.02, 0.04))
    pk = GaussianPacket(mean=[0.6], num=[[1.5]], den=[[1.0]])
    gamma = sample(pk, p, 4.0, cfg)
    res = fd_solve(p, gamma, cfg)
    states, moments, masses = reference_solve(p, gamma, cfg)
    np.testing.assert_allclose(res.moments, moments, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.masses, masses, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(res.snapshot_times, cfg.snapshot_times)
    for snap, step in zip(res.snapshots, (0, 100, 200)):
        np.testing.assert_allclose(snap.values, states[step], rtol=0, atol=1e-13)
        # the recorded moment and mass are the trapezoid integrals of the snapshot
        assert res.moments[step] == pytest.approx(
            np.trapezoid(gamma.coordinate(0) * snap.values, dx=gamma.dx[0]),
            rel=1e-14, abs=1e-15)
        assert res.masses[step] == pytest.approx(
            np.trapezoid(snap.values, dx=gamma.dx[0]), rel=1e-14, abs=1e-15)


def test_the_flux_table_conserves_the_node_sum_over_many_steps():
    # every stage and the step itself add first differences of edge fluxes
    # whose wall entries are 0, so the plain node sum telescopes: it may move
    # by rounding only, on the strong-feedback model over 1200 steps
    p = ModelParams(drift=[[3.0]], coupling_state=[[0.5]],
                    coupling_mean=[[-2.5]], diffusion=0.1, coupling=1.0)
    times = tuple(0.04 * k for k in range(7))
    cfg = FDConfig(nx=241, dt=2e-4, t_end=0.24, snapshot_times=times)
    pk = GaussianPacket(mean=[0.6], num=[[1.5]], den=[[1.0]])
    gamma = sample(pk, p, 4.0, cfg)
    res = fd_solve(p, gamma, cfg)
    assert len(res.times) == 1201 and len(res.snapshots) == len(times)
    x, dx = gamma.coordinate(0), gamma.dx[0]
    start = gamma.values.sum()
    for snap, step in zip(res.snapshots, range(0, 1201, 200)):
        assert abs(snap.values.sum() - start) <= 1e-13 * start
        # the recorded moment and mass are the trapezoid integrals of the snapshot
        assert res.moments[step] == pytest.approx(np.trapezoid(x * snap.values, dx=dx),
                                                  rel=1e-14, abs=1e-15)
        assert res.masses[step] == pytest.approx(np.trapezoid(snap.values, dx=dx),
                                                 rel=1e-14, abs=1e-15)
    # the density moved: its moment follows the closed form's 0.6 exp(-t)
    assert res.moments[-1] == pytest.approx(0.6 * np.exp(-0.24), abs=1e-3)
    assert not res.mass_drifted


def test_a_drift_too_strong_for_the_step_is_refused():
    # drift 200 with dt 1e-4 on 601 nodes over [-6, 6]: the diffusion number
    # (0.025) passed, and the solve overflowed ("overflow encountered in
    # multiply") and then raised the misleading "sampled values must be
    # finite" from its snapshot.  (|lam| + |feedback|) max|x| dt/dx is
    # 200.5 * 6 * 1e-4 / 0.02 = 6.015
    p = ModelParams(drift=[[200.0]], coupling_state=[[0.0]],
                    coupling_mean=[[-0.5]], diffusion=0.1, coupling=1.0)
    cfg = FDConfig(nx=601, dt=1e-4, t_end=0.02, snapshot_times=(0.02,))
    pk = GaussianPacket(mean=[0.5], num=[[1.0]], den=[[1.0]])
    with pytest.raises(ConfigurationError,
                       match=r"advective number max\|v\|·dt/dx = 6\.015 exceeds 2\.0"):
        fd_solve(p, sample(pk, p, 6.0, cfg), cfg)
    # a step 4 times shorter brings the number to 1.504, and the solve runs
    cfg = FDConfig(nx=601, dt=2.5e-5, t_end=0.02, snapshot_times=(0.02,))
    res = fd_solve(p, sample(pk, p, 6.0, cfg), cfg)
    assert np.isfinite(res.snapshots[0].values).all() and not res.mass_drifted


@pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 2e-6])
def test_a_density_off_unit_mass_is_refused(scale):
    # the drift couples to the raw first moment: on the reference case at
    # mass 2 the oracle's moment per unit mass reached 0.500 at t = 1, where
    # the closed form's is 0.303, and nothing was raised
    p, pk = reference_case()
    cfg = FDConfig(nx=601, dt=1e-3, t_end=1.0, snapshot_times=(1.0,))
    gamma = sample(pk, p, 6.0, cfg)
    scaled = SampledDensity(gamma.x_min, gamma.dx, scale * gamma.values)
    mass = float(np.trapezoid(scaled.values, dx=scaled.dx[0]))
    with pytest.raises(NormalizationError, match=rf"initial mass {mass:.12g} is not 1 "):
        fd_solve(p, scaled, cfg)
    # at unit mass the same solve runs, and follows the closed-form moment
    res = fd_solve(p, gamma, cfg)
    closed = p.moment_trajectory(pk.mean, 0.0).at(1.0)[0]
    assert abs(res.moments[-1] - closed) < 1e-3


def test_cfl_guard():
    p = heat_params(0.5)
    cfg = FDConfig(nx=801, dt=1e-3, t_end=0.1)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    with pytest.raises(ConfigurationError):
        fd_solve(p, sample(pk, p, 4.0, cfg), cfg)


@pytest.mark.parametrize("field", ["dt", "t_end"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_settings_rejected(field, value):
    # a NaN dt used to pass every comparison and die converting the step
    # count, a raw ValueError
    settings = dict(nx=401, dt=1e-4, t_end=0.1)
    settings[field] = value
    with pytest.raises(ConfigurationError, match="must be finite"):
        FDConfig(**settings)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_snapshot_times_rejected(value):
    # the snapshot step int(round(ts / dt)) used to raise a raw ValueError
    # (NaN) or OverflowError (inf) from inside fd_solve
    with pytest.raises(ConfigurationError, match="snapshot times must be finite"):
        FDConfig(nx=401, dt=1e-4, t_end=0.1, snapshot_times=(0.05, value))


@pytest.mark.parametrize("settings, message", [
    (dict(nx=7, dt=1e-4, t_end=0.1), "at least 8 grid nodes"),
    # the next two used to be accepted: NaN passes every comparison
    (dict(nx=8.5, dt=1e-4, t_end=0.1), "whole number of nodes, got 8.5"),
    (dict(nx=float("nan"), dt=1e-4, t_end=0.1), "whole number of nodes, got nan"),
    (dict(nx=401, dt=0.0, t_end=0.1), "must be positive"),
    (dict(nx=401, dt=-1e-4, t_end=0.1), "must be positive"),
], ids=["nx-7", "nx-8.5", "nx-nan", "dt-0", "dt-negative"])
def test_settings_out_of_range_rejected(settings, message):
    with pytest.raises(ConfigurationError, match=message):
        FDConfig(**settings)


def test_a_model_of_two_dimensions_is_refused():
    p = ModelParams(drift=np.eye(2), coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.zeros((2, 2)), diffusion=0.5)
    gamma = SampledDensity([-4.0], [0.02], np.full(401, 1.0 / 8.0))
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        fd_solve(p, gamma, FDConfig(nx=401, dt=1e-4, t_end=0.1))


def test_end_time_off_the_step_grid_is_refused():
    p = heat_params(0.5)
    cfg = FDConfig(nx=401, dt=1e-4, t_end=0.10005)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    with pytest.raises(ConfigurationError, match="integer number of steps"):
        fd_solve(p, sample(pk, p, 4.0, cfg), cfg)


def test_snapshot_must_sit_on_step_grid():
    p = heat_params(0.5)
    with pytest.raises(ConfigurationError):
        cfg = FDConfig(nx=401, dt=1e-4, t_end=0.1, snapshot_times=(0.05001234,))
        pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
        fd_solve(p, sample(pk, p, 4.0, cfg), cfg)


def test_grid_mismatch_rejected():
    p = heat_params(0.5)
    cfg = FDConfig(nx=401, dt=1e-4, t_end=0.1)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    wrong = SampledDensity([-4.0], [0.01], pk.eval(p, np.linspace(-4, 4, 801).reshape(-1, 1)))
    with pytest.raises(InputError, match=r"shape \(801,\); the configuration marches 401"):
        fd_solve(p, wrong, cfg)


# ------------------------------------------------------------------- compare

def test_compare_identical_is_zero():
    d = SampledDensity([0.0], [0.1], np.linspace(0, 1, 11))
    assert compare(d, d) == 0.0


def test_compare_constant_offset():
    d = SampledDensity([0.0], [0.1], np.zeros(11))
    e = SampledDensity([0.0], [0.1], np.full(11, 0.25))
    assert compare(d, e) == pytest.approx(0.25)


def test_compare_grid_mismatch():
    d = SampledDensity([0.0], [0.1], np.zeros(11))
    e = SampledDensity([0.5], [0.1], np.zeros(11))
    with pytest.raises(InputError):
        compare(d, e)


def test_compare_shape_mismatch():
    d = SampledDensity([0.0], [0.1], np.zeros(11))
    e = SampledDensity([0.0], [0.1], np.zeros(12))
    with pytest.raises(InputError, match="differ in shape"):
        compare(d, e)
