import numpy as np
import pytest

from fpknl import (ConfigurationError, FDConfig, GaussianMixture,
                   GaussianPacket, InputError, ModelParams, SampledDensity,
                   compare, evolve_analytic, evolve_packet, fd_solve, plan_for)


def heat_params(eps=0.5):
    return ModelParams(drift=[[0.0]], coupling_state=[[0.0]],
                       coupling_mean=[[0.0]], diffusion=eps)


def sample(packet, params, cfg):
    x = cfg.x.reshape(-1, 1)
    return SampledDensity([cfg.x_min], [cfg.dx], packet.eval(params, x))


def test_heat_solution_matches_kernel_reference():
    p = heat_params(0.5)
    cfg = FDConfig(x_min=-8.0, x_max=8.0, nx=1601, dt=2e-5, t_end=0.5,
                   snapshot_times=(0.5,))
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    res = fd_solve(p, sample(pk, p, cfg), cfg)
    exact = sample(evolve_packet(pk, p, 0.5, 0.0), p, cfg)
    linf, _, _ = compare(res.snapshots[0], exact)
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
    x = cfg.x.reshape(-1, 1)
    gamma = SampledDensity([cfg.x_min], [cfg.dx], mix.eval(p, x))
    res = fd_solve(p, gamma, cfg)
    plan = plan_for(p, 0.0, 0.3, mix)
    exact = SampledDensity([cfg.x_min], [cfg.dx],
                           evolve_analytic(mix, plan).eval(p, x))
    linf, _, _ = compare(res.snapshots[0], exact)
    assert linf < 5e-3
    # the self-consistent grid moment follows the closed form
    traj = p.moment_trajectory(mix.first_moment(p), 0.0)
    closed = np.array([traj.at(t)[0] for t in res.times])
    assert np.max(np.abs(res.moments - closed)) < 1e-3


def test_cfl_guard():
    p = heat_params(0.5)
    cfg = FDConfig(x_min=-4.0, x_max=4.0, nx=801, dt=1e-3, t_end=0.1)
    pk = GaussianPacket(mean=[0.0], num=[[1.0]], den=[[1.0]])
    with pytest.raises(ConfigurationError):
        fd_solve(p, sample(pk, p, cfg), cfg)


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
    assert compare(d, d) == (0.0, 0.0, 0.0)


def test_compare_constant_offset():
    d = SampledDensity([0.0], [0.1], np.zeros(11))
    e = SampledDensity([0.0], [0.1], np.full(11, 0.25))
    linf, l1, l2 = compare(d, e)
    assert linf == pytest.approx(0.25)
    assert l1 == pytest.approx(0.25)  # trapezoid over a unit-length interval
    assert l2 == pytest.approx(0.25)


def test_compare_grid_mismatch():
    d = SampledDensity([0.0], [0.1], np.zeros(11))
    e = SampledDensity([0.5], [0.1], np.zeros(11))
    with pytest.raises(InputError):
        compare(d, e)
