import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fpknl import (ConfigurationError, DegenerateMomentError, GaussianMixture,
                   GaussianPacket, InputError, KernelValidityError, ModelParams,
                   SampledDensity, plan_for)
from fpknl.symmetry import InitialOperator, build_shifts
from fpknl.variations import matriciant

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def make_params(k1, k2, k3, eps=1.0, kappa=0.0):
    return ModelParams(drift=k1, coupling_state=k2, coupling_mean=k3,
                       diffusion=eps, coupling=kappa)


# ----------------------------------------------------------- effective drift

def test_effective_drift_scalar_sum():
    p = make_params([[1.0]], [[2.0]], [[0.0]], kappa=0.5)
    np.testing.assert_allclose(p.effective_drift, [[2.0]])


def test_effective_drift_zero_coupling():
    k2 = [[7.0, -1.0], [2.0, 3.0]]
    p = make_params(np.eye(2), k2, np.zeros((2, 2)), kappa=0.0)
    np.testing.assert_allclose(p.effective_drift, np.eye(2))


def test_effective_drift_matrix_sum():
    p = make_params(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)),
                    kappa=1.0)
    np.testing.assert_allclose(p.effective_drift, [[1.0, 1.0], [-1.0, 1.0]])


@given(k1=finite, k2=finite, ka=finite, kb=finite)
def test_effective_drift_linear_in_coupling(k1, k2, ka, kb):
    def lam(kappa):
        return make_params([[k1]], [[k2]], [[0.0]], kappa=kappa).effective_drift

    np.testing.assert_allclose(lam(ka) + lam(kb) - k1, lam(ka + kb),
                               rtol=0, atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        make_params([[1.0]], np.eye(2), [[0.0]])


def test_non_square_drift_rejected():
    with pytest.raises(ConfigurationError, match=r"drift must be a square matrix, got shape \(1, 2\)"):
        make_params([[1.0, 2.0]], [[0.0, 0.0]], [[0.0, 0.0]])


def test_nonpositive_diffusion_rejected():
    with pytest.raises(ConfigurationError):
        make_params([[1.0]], [[0.0]], [[0.0]], eps=0.0)


# ----------------------------------------------------------- moment dynamics

def test_moment_closed_form_matches_frozen_value():
    # rate -(lam + feedback) = -2; X(1) = exp(-2) * 1
    p = make_params([[1.0]], [[0.0]], [[1.0]], kappa=1.0)
    traj = p.moment_trajectory([1.0])
    assert traj.at(1.0)[0] == pytest.approx(0.1353352832366127, abs=1e-15)


def test_moment_matches_rk4_integration():
    p = make_params([[1.0]], [[0.0]], [[1.0]], kappa=1.0)
    traj = p.moment_trajectory([1.0])
    x, h = 1.0, 1e-4
    for _ in range(10000):
        k1 = -2.0 * x
        k2 = -2.0 * (x + 0.5 * h * k1)
        k3 = -2.0 * (x + 0.5 * h * k2)
        k4 = -2.0 * (x + h * k3)
        x += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert traj.at(1.0)[0] == pytest.approx(x, abs=1e-12)


def test_moment_identity_at_start():
    p = make_params([[0.3]], [[0.0]], [[0.1]], kappa=2.0)
    traj = p.moment_trajectory([0.7], t0=1.5)
    assert traj.at(1.5)[0] == 0.7


def test_moment_constant_for_zero_rate():
    p = make_params([[1.0]], [[0.0]], [[-1.0]], kappa=1.0)
    traj = p.moment_trajectory([0.4])
    for t in (-2.0, 0.0, 3.5):
        assert traj.at(t)[0] == pytest.approx(0.4, abs=1e-15)


def test_an_overflowing_moment_trajectory_names_its_horizon():
    # drift -3 grows X like e^(3 t): at t = 400 it is past the largest
    # double, and at() gave [inf] alone and [10.04, inf] stacked, silently
    p = make_params([[-3.0]], [[0.0]], [[0.0]])
    traj = p.moment_trajectory([0.5])
    # the shortest horizon that overflows is named
    overflow = r"\|t - s\| = {} from the start s = 0: the moment trajectory overflows"
    for t, horizon in ((400.0, 400), ([1.0, 400.0], 400), ([1.0, 400.0, 300.0], 300)):
        with pytest.raises(KernelValidityError, match=overflow.format(horizon)):
            traj.at(np.array(t))
    assert traj.at(np.array([1.0, 2.0]))[:, 0] == pytest.approx(0.5 * np.exp([3.0, 6.0]))
    # a time that is not finite is the caller's input, not an overflow
    for t in (np.nan, np.inf, [1.0, np.nan]):
        with pytest.raises(InputError, match="time t must be finite"):
            traj.at(np.array(t))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moment_over_array_of_times_equals_scalar_calls(dim):
    rng = np.random.default_rng(dim)
    p = make_params(rng.uniform(-1.5, 1.5, (dim, dim)),
                    0.3 * rng.uniform(-1.0, 1.0, (dim, dim)),
                    rng.uniform(-1.0, 0.5, (dim, dim)), kappa=0.8)
    traj = p.moment_trajectory(rng.uniform(-1.0, 1.0, dim), t0=0.4)
    ts = np.concatenate([[0.4], rng.uniform(-2.0, 3.0, 25)])
    stacked = traj.at(ts)
    assert stacked.shape == (len(ts), dim)
    np.testing.assert_array_equal(stacked, [traj.at(t) for t in ts])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moment_trajectory_has_the_bits_of_its_exponential(dim):
    # the plan's end anchor, and through it the analytic goldens, rests on
    # these bits: X(t) = expm((t - t0) rate) @ x0, with rate = -(L + F),
    # L = drift + coupling coupling_state and F = coupling coupling_mean,
    # for one time and for a stack of times alike
    rng = np.random.default_rng(30 + dim)
    p = make_params(rng.uniform(-1.5, 1.5, (dim, dim)),
                    0.3 * rng.uniform(-1.0, 1.0, (dim, dim)),
                    rng.uniform(-1.0, 0.5, (dim, dim)), kappa=0.8)
    x0, t0 = rng.uniform(-1.0, 1.0, dim), 0.4
    rate = -((p.drift + p.coupling * p.coupling_state) + p.coupling * p.coupling_mean)
    traj = p.moment_trajectory(x0, t0=t0)
    for t in (0.4, 1.3, -2.2):
        assert np.array_equal(traj.at(t), expm((t - t0) * rate) @ x0)
    ts = rng.uniform(-2.0, 3.0, 7)
    assert np.array_equal(traj.at(ts), expm((ts - t0)[:, None, None] * rate) @ x0)


@settings(max_examples=30)
@given(lam=finite, s=finite, r=finite, t=finite, x0=finite)
def test_moment_semigroup(lam, s, r, t, x0):
    p = make_params([[lam]], [[0.0]], [[0.0]])
    one = p.moment_trajectory([x0], t0=s).at(t)
    mid = p.moment_trajectory([x0], t0=s).at(r)
    two = p.moment_trajectory(mid, t0=r).at(t)
    np.testing.assert_allclose(one, two, rtol=0,
                               atol=1e-12 * max(1.0, abs(one[0])))


# ----------------------------------------------------------- grid functionals

def unit_gaussian_grid(mean=0.0, x_min=-8.0, x_max=8.0, dx=0.01):
    nx = int(round((x_max - x_min) / dx)) + 1
    x = x_min + dx * np.arange(nx)
    vals = np.exp(-0.5 * (x - mean) ** 2) / np.sqrt(2 * np.pi)
    return SampledDensity([x_min], [dx], vals)


def test_total_mass_of_unit_gaussian():
    assert unit_gaussian_grid().total_mass() == pytest.approx(1.0, abs=1e-8)


def test_total_mass_zero_field():
    d = SampledDensity([0.0], [0.1], np.zeros(50))
    assert d.total_mass() == 0.0


@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_total_mass_linear_in_values(scale):
    d = unit_gaussian_grid(dx=0.05)
    m = d.total_mass()
    doubled = SampledDensity(d.x_min, d.dx, scale * d.values)
    assert doubled.total_mass() == pytest.approx(scale * m, rel=1e-13)


def test_first_moment_recovers_mean():
    d = unit_gaussian_grid(mean=0.5, x_min=-8.0, x_max=9.0)
    assert d.first_moment(normalized=True)[0] == pytest.approx(0.5, abs=1e-8)


def test_first_moment_even_density_is_zero():
    d = unit_gaussian_grid()
    assert d.first_moment()[0] == pytest.approx(0.0, abs=1e-12)


def test_first_moment_translation_covariance():
    d = unit_gaussian_grid(dx=0.05)
    a = 1.7
    shifted = SampledDensity(d.x_min + a, d.dx, d.values)
    expected = d.first_moment() + a * d.total_mass()
    np.testing.assert_allclose(shifted.first_moment(), expected, atol=1e-12)


def test_normalized_moment_of_zero_mass_errors():
    x = np.linspace(-5, 5, 201)
    odd = SampledDensity([-5.0], [x[1] - x[0]], x * np.exp(-x ** 2))
    with pytest.raises(DegenerateMomentError):
        odd.first_moment(normalized=True)


def test_empty_grid_rejected():
    with pytest.raises(InputError):
        SampledDensity([0.0], [0.1], np.array([]))


def test_bad_spacing_rejected():
    with pytest.raises(InputError):
        SampledDensity([0.0], [-0.1], np.ones(5))


@pytest.mark.parametrize("x_min, dx", [(np.nan, 0.1), (-np.inf, 0.1), (0.0, np.nan),
                                       (0.0, np.inf)])
def test_non_finite_grid_rejected(x_min, dx):
    # a NaN origin used to give a grid of NaN nodes whose mass and moment
    # checks all passed
    with pytest.raises(InputError, match="finite"):
        SampledDensity([x_min], [dx], np.ones(5))


def test_non_finite_moment_rejected():
    p = make_params([[1.0]], [[0.0]], [[0.0]])
    with pytest.raises(ConfigurationError, match="x0 must be finite"):
        p.moment_trajectory([np.nan])


def test_moment_start_of_the_wrong_shape_rejected():
    p = make_params([[1.0]], [[0.0]], [[0.0]])
    with pytest.raises(ConfigurationError, match=r"x0 must have shape \(1,\), got \(2,\)"):
        p.moment_trajectory([0.0, 1.0])


@pytest.mark.parametrize("x_min, dx", [([0.0, 1.0], [0.1]), ([0.0], [0.1, 0.1])],
                         ids=["x_min", "dx"])
def test_origin_or_spacing_of_the_wrong_length_rejected(x_min, dx):
    with pytest.raises(InputError, match=r"one entry per value axis \(1\)"):
        SampledDensity(x_min, dx, np.ones(5))


def test_a_grid_of_one_node_rejected():
    with pytest.raises(InputError, match="at least 2 nodes per axis"):
        SampledDensity.on_grid(0.0, 1.0, 1)


@pytest.mark.parametrize("build", ["on_grid", "from_callable"])
def test_a_node_count_that_is_not_whole_is_rejected(build):
    # [10.7] used to give 10 nodes, truncated without a word
    args = (lambda q: q[:, 0],) if build == "from_callable" else ()
    with pytest.raises(InputError, match="node count 10.7 is not a whole number"):
        getattr(SampledDensity, build)(*args, [0.0, 0.0], [1.0, 1.0], [21, 10.7])


def test_2d_mass_and_moment():
    d = SampledDensity.from_callable(
        lambda p: np.exp(-0.5 * ((p[:, 0] - 0.3) ** 2 + (p[:, 1] + 0.2) ** 2))
        / (2 * np.pi),
        [-7.0, -7.0], [7.0, 7.0], [281, 281])
    assert d.total_mass() == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(d.first_moment(normalized=True), [0.3, -0.2],
                               atol=1e-8)


def test_grid_nodes_and_weights_agree_with_nested_trapezoid():
    # coordinate, points and weights describe one grid, and the weighted
    # sums reproduce the nested 1D trapezoid rule
    d = SampledDensity.from_callable(
        lambda p: (1.0 + p[:, 0]) * np.exp(-p[:, 0] ** 2 - 2.0 * p[:, 1] ** 2),
        [-3.0, -2.0], [4.0, 2.5], [71, 46])
    x, y = d.coordinate(0), d.coordinate(1)
    assert x.shape == (71, 1) and y.shape == (1, 46)
    assert d.weights().shape == d.values.shape
    pts = d.points().reshape(71, 46, 2)
    np.testing.assert_array_equal(pts[..., 0], np.broadcast_to(x, (71, 46)))
    np.testing.assert_array_equal(pts[..., 1], np.broadcast_to(y, (71, 46)))

    def nested(v):
        return np.trapezoid(np.trapezoid(v, dx=d.dx[1], axis=1), dx=d.dx[0])

    assert d.total_mass() == pytest.approx(nested(d.values), rel=1e-13)
    np.testing.assert_allclose(d.first_moment(),
                               [nested(d.values * x), nested(d.values * y)],
                               rtol=1e-12, atol=1e-15)


def _fresh_layout(x_min, dx, shape):
    """Nodes and trapezoid weights built from scratch, as the layout memo
    must reproduce them bit for bit."""
    axes = [x0 + h * np.arange(n) for x0, h, n in zip(x_min, dx, shape)]
    nodes = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    weights = np.ones(())
    for h, n in zip(dx, shape):
        w = np.full(n, h)
        w[[0, -1]] *= 0.5
        weights = np.multiply.outer(weights, w)
    return nodes, weights


@pytest.mark.parametrize("x_min, dx, shape", [
    ([-6.0], [0.01], (1201,)),
    ([-4.75, -3.0], [9.5 / 30, 0.2], (31, 17)),
    ([-7.0, -7.0, -7.0], [14 / 24, 14 / 26, 0.5], (25, 27, 29)),
])
def test_layout_memo_is_read_only_and_bit_equal_to_a_fresh_build(x_min, dx, shape):
    d = SampledDensity(x_min, dx, np.zeros(shape))
    nodes, weights = _fresh_layout(d.x_min, d.dx, shape)
    assert d.points().tobytes() == nodes.tobytes() and d.points().shape == nodes.shape
    assert d.weights().tobytes() == weights.tobytes() and d.weights().shape == shape
    assert SampledDensity.grid_nodes(d.x_min, d.dx, shape) is d.points()
    assert d.copy().weights() is d.weights()  # one memo entry per layout
    for table in (d.points(), d.weights()):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1.0


@pytest.mark.parametrize("field", ["x_min", "dx"])
def test_layouts_one_ulp_apart_get_their_own_arrays(field):
    d = SampledDensity([-3.0, 1.0], [0.1, 0.3], np.zeros((41, 9)))
    e = d.copy()
    moved = getattr(e, field)
    moved[1] = np.nextafter(moved[1], np.inf)
    assert e.points() is not d.points()
    for g in (d, e):
        nodes, weights = _fresh_layout(g.x_min, g.dx, g.values.shape)
        assert g.points().tobytes() == nodes.tobytes()
        assert g.weights().tobytes() == weights.tobytes()
    assert not np.array_equal(e.points()[:, 1], d.points()[:, 1])
    if field == "dx":
        assert not np.array_equal(e.weights(), d.weights())


def test_values_overwritten_in_place_give_the_new_mass_moment_and_edge():
    # the memo holds the layout alone: nothing read from the samples is kept
    d = SampledDensity.from_callable(lambda p: np.exp(-0.5 * (p[:, 0] - 0.5) ** 2)
                                     / np.sqrt(2 * np.pi), [-8.0], [9.0], [341])
    assert d.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert d.first_moment(normalized=True) == pytest.approx([0.5], abs=1e-12)
    assert d.edge_max() < 1e-12
    d.values *= 3.0
    d.values[-1] = 0.25
    x = d.coordinate(0)
    w = np.full(341, d.dx[0])
    w[[0, -1]] *= 0.5
    assert d.total_mass() == np.sum(w * d.values)
    np.testing.assert_array_equal(d.first_moment(), [np.sum(w * d.values * x)])
    assert d.first_moment(normalized=True) == pytest.approx([np.sum(w * d.values * x)
                                                             / np.sum(w * d.values)], rel=1e-15)
    assert d.edge_max() == 0.25


def test_records_that_hold_arrays_compare_by_identity_in_2d():
    # the generated == compared the records' arrays and, in 2D, raised
    # numpy's ValueError (truth value of an array is ambiguous)
    def records():
        params = make_params(np.eye(2), np.zeros((2, 2)), -0.5 * np.eye(2),
                             eps=0.1, kappa=1.0)
        packet = GaussianPacket(mean=[0.5, 0.0], num=np.eye(2), den=np.eye(2))
        mix = GaussianMixture([packet])
        op = InitialOperator(1.0, [0.3, 0.0], [0.2, 0.1])
        return {"ModelParams": params,
                "MomentTrajectory": params.moment_trajectory(packet.mean, 0.0),
                "Matriciant": matriciant(params, 1.0, 0.0),
                "KernelContext": plan_for(params, 0.0, 1.0, mix),
                "GaussianPacket": packet,
                "SampledDensity": SampledDensity.on_grid([-1.0, -1.0], [1.0, 1.0], [5, 5]),
                "SymmetryShifts": build_shifts(op, mix, params, 0.0)}

    a, b = records(), records()
    for name in a:
        assert a[name] == a[name] and a[name] != b[name], name
