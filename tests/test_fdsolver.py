import numpy as np
import pytest

from fpknl import (ConfigurationError, FDConfig, GaussianMixture,
                   GaussianPacket, InputError, ModelParams, NormalizationError,
                   SampledDensity, compare, evolve_analytic, evolve_packet, fd_solve,
                   plan_for)
from fpknl.checks import reference_case


def heat_params(eps=0.5):
    return ModelParams(drift=[[0.0]], coupling_state=[[0.0]],
                       coupling_mean=[[0.0]], diffusion=eps)


def sample(packet, params, cfg):
    return SampledDensity.from_callable(lambda pts: packet.eval(params, pts),
                                        [cfg.x_min], [cfg.x_max], [cfg.nx])


def test_heat_solution_matches_kernel_reference():
    p = heat_params(0.5)
    cfg = FDConfig(x_min=-8.0, x_max=8.0, nx=1601, dt=2e-5, t_end=0.5,
                   snapshot_times=(0.5,))
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    res = fd_solve(p, sample(pk, p, cfg), cfg)
    exact = sample(evolve_packet(pk, p, 0.5, 0.0), p, cfg)
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


def test_mixture_matches_analytic_pathway():
    # asymmetric mixture exercises the shared-moment coupling
    p = ModelParams(drift=[[1.0]], coupling_state=[[0.0]],
                    coupling_mean=[[-0.5]], diffusion=0.1, coupling=1.0)
    mix = GaussianMixture([
        GaussianPacket(mean=[-0.8], num=[[1.0]], den=[[1.0]], weight=0.6),
        GaussianPacket(mean=[0.8], num=[[1.0]], den=[[1.0]], weight=0.4),
    ])
    cfg = FDConfig(x_min=-6.0, x_max=6.0, nx=901, dt=5e-5, t_end=0.3,
                   snapshot_times=(0.3,))
    res = fd_solve(p, sample(mix, p, cfg), cfg)
    exact = sample(evolve_analytic(mix, plan_for(p, 0.0, 0.3, mix)), p, cfg)
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
    cfg = FDConfig(x_min=-4.0, x_max=4.0, nx=241, dt=2e-4, t_end=0.04,
                   snapshot_times=(0.0, 0.02, 0.04))
    pk = GaussianPacket(mean=[0.6], num=[[1.5]], den=[[1.0]])
    gamma = sample(pk, p, cfg)
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


@pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 2e-6])
def test_a_density_off_unit_mass_is_refused(scale):
    # the drift couples to the raw first moment: on the reference case at
    # mass 2 the oracle's moment per unit mass reached 0.500 at t = 1, where
    # the closed form's is 0.303, and nothing was raised
    p, pk = reference_case()
    cfg = FDConfig(x_min=-6.0, x_max=6.0, nx=601, dt=1e-3, t_end=1.0, snapshot_times=(1.0,))
    gamma = sample(pk, p, cfg)
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
    cfg = FDConfig(x_min=-4.0, x_max=4.0, nx=801, dt=1e-3, t_end=0.1)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    with pytest.raises(ConfigurationError):
        fd_solve(p, sample(pk, p, cfg), cfg)


@pytest.mark.parametrize("field", ["x_min", "x_max", "dt", "t_end"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_settings_rejected(field, value):
    # a NaN dt used to pass every comparison and die converting the step
    # count, a raw ValueError
    settings = dict(x_min=-4.0, x_max=4.0, nx=401, dt=1e-4, t_end=0.1)
    settings[field] = value
    with pytest.raises(ConfigurationError, match="must be finite"):
        FDConfig(**settings)


def test_snapshot_must_sit_on_step_grid():
    p = heat_params(0.5)
    with pytest.raises(ConfigurationError):
        cfg = FDConfig(x_min=-4.0, x_max=4.0, nx=401, dt=1e-4, t_end=0.1,
                       snapshot_times=(0.05001234,))
        pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
        fd_solve(p, sample(pk, p, cfg), cfg)


def test_grid_mismatch_rejected():
    p = heat_params(0.5)
    cfg = FDConfig(x_min=-4.0, x_max=4.0, nx=401, dt=1e-4, t_end=0.1)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    wrong = SampledDensity([-4.0], [0.01], pk.eval(p, np.linspace(-4, 4, 801).reshape(-1, 1)))
    with pytest.raises(InputError):
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
