import warnings

import numpy as np
import pytest

from fpknl import (DeltaLimitError, GaussianMixture, GaussianPacket, InputError,
                   KernelContext, KernelValidityError,
                   Matriciant, ModelParams, evolve_packet, kernel_context,
                   kernel_matrix, plan_for)
from fpknl import kernels

E = np.e


def params_1d(lam=0.0, eps=1.0, feedback=0.0, kappa=0.0):
    return ModelParams(drift=[[lam]], coupling_state=[[0.0]],
                       coupling_mean=[[feedback]], diffusion=eps, coupling=kappa)


def kernel(ctx, x, y):
    """The kernel at paired points, row i of x with row i of y (a single row
    broadcasting), as pref exp(xi^T C xi) with xi = (x - x_end) -
    dd (y - x_start): the reference formula, with no expansion into
    features, that kernel_matrix is judged against.  A single value comes
    back as a float."""
    n, m = ctx.params.dim, ctx.m
    xi = (np.reshape(x, (-1, n)) - ctx.x_end) - (np.reshape(y, (-1, n)) - ctx.x_start) @ m.dd.T
    pref = (2.0 * np.pi * ctx.params.diffusion) ** (-n / 2.0) * np.linalg.det(m.w) ** -0.5
    vals = pref * np.exp(np.einsum("...j,jk,...k->...", xi, ctx.exponent, xi))
    return float(vals[0]) if vals.size == 1 else vals


def formal_kernel(ctx, x, y):
    """The kernel's closed form as written, along a context in either
    direction (kernels themselves run forward only): backward the spread is not
    positive definite, so the prefactor takes |det| and the exponent grows."""
    m, eps = ctx.m, ctx.params.diffusion
    w = m.dn @ np.linalg.inv(m.nn)
    xi = np.atleast_1d(x) - ctx.x_end - m.dd @ (np.atleast_1d(y) - ctx.x_start)
    pref = (2 * np.pi * eps) ** (-len(xi) / 2) / np.sqrt(abs(np.linalg.det(w)))
    return pref * np.exp(-xi @ np.linalg.solve(w, xi) / (2 * eps))


def backward_quadratic_form(ctx, q_envelope):
    """Quadratic coefficient (in y) of the exponent of formal_kernel along
    ctx times a Gaussian envelope exp(-(y-c)^T Q (y-c) / 2 eps); the integral
    of that product converges iff this matrix is negative definite."""
    m = ctx.m
    core = m.dd.T @ np.linalg.inv(m.dn @ np.linalg.inv(m.nn)) @ m.dd
    return -0.5 / ctx.params.diffusion * (core + q_envelope)


def test_zero_drift_reduces_to_heat_kernel():
    eps, tau = 0.7, 0.6
    ctx = kernel_context(params_1d(0.0, eps), tau, 0.0)
    for x, y in [(0.0, 0.0), (0.5, -0.3), (1.2, 1.0)]:
        expected = np.exp(-(x - y) ** 2 / (4 * eps * tau)) / np.sqrt(4 * np.pi * eps * tau)
        assert kernel(ctx, [x], [y]) == pytest.approx(expected, rel=1e-13)


def test_peak_at_transported_point():
    ctx = kernel_context(params_1d(0.8, 0.5), 1.0, 0.0)
    m = ctx.m
    y = 0.7
    peak = kernel(ctx, [float(m.dd[0, 0] * y)], [y])
    assert peak == pytest.approx(
        np.sqrt(m.nn[0, 0] / (2 * np.pi * 0.5 * m.dn[0, 0])), rel=1e-13)


def test_unit_drift_frozen_value():
    ctx = kernel_context(params_1d(1.0, 1.0), 1.0, 0.0)
    assert kernel(ctx, [0.0], [0.0]) == pytest.approx(0.429028553381469,
                                                      abs=1e-12)


def test_kernel_integrates_to_one_in_x():
    ctx = kernel_context(params_1d(0.9, 0.4), 0.8, 0.0)
    xs = np.linspace(-12, 12, 4801).reshape(-1, 1)
    for y in (-0.5, 0.0, 1.3):
        vals = kernel(ctx, xs, np.full((1, 1), y))
        assert np.trapezoid(vals, dx=24 / 4800) == pytest.approx(1.0, abs=1e-8)


def test_chapman_kolmogorov_composition():
    rng = np.random.default_rng(21)
    for _ in range(4):
        lam = rng.uniform(-2.0, 2.0)
        p = params_1d(lam, 0.5)
        t, r, s = 1.1, 0.6, 0.1
        ctx_tr = kernel_context(p, t, r)
        ctx_rs = kernel_context(p, r, s)
        ctx_ts = kernel_context(p, t, s)
        zs = np.linspace(-14, 14, 5601).reshape(-1, 1)
        for x, y in [(0.3, -0.2), (-0.7, 0.5)]:
            left = kernel(ctx_tr, np.full((1, 1), x), zs)
            right = kernel(ctx_rs, zs, np.full((1, 1), y))
            composed = np.trapezoid(left * right, dx=28 / 5600)
            direct = kernel(ctx_ts, [x], [y])
            assert composed == pytest.approx(direct, abs=1e-10)


def test_shifted_kernel_equals_linear_for_zero_moments():
    p = params_1d(0.5, 0.3, feedback=-0.4, kappa=1.0)
    ctx = kernel_context(p, 0.7, 0.0, x_start=[0.0])
    lin = kernel_context(p, 0.7, 0.0)
    for x, y in [(0.2, -0.1), (1.0, 0.4)]:
        assert kernel(ctx, [x], [y]) == pytest.approx(
            kernel(lin, [x], [y]), rel=1e-14)


def test_shifted_kernel_shift_recovery():
    p = params_1d(0.5, 0.3, feedback=-0.4, kappa=1.0)
    ctx = kernel_context(p, 0.7, 0.0, x_start=[0.6])
    lin = kernel_context(p, 0.7, 0.0)
    xu = ctx.x_end[0]
    for x, y in [(0.2, -0.1), (1.0, 0.4)]:
        assert kernel(ctx, [x + xu], [y + 0.6]) == pytest.approx(
            kernel(lin, [x], [y]), rel=1e-13)


def test_shifted_kernel_integrates_to_one():
    p = params_1d(1.0, 0.2, feedback=-0.5, kappa=1.0)
    ctx = kernel_context(p, 1.0, 0.0, x_start=[0.5])
    xs = np.linspace(-10, 10, 4001).reshape(-1, 1)
    vals = kernel(ctx, xs, np.full((1, 1), 0.4))
    assert np.trapezoid(vals, dx=20 / 4000) == pytest.approx(1.0, abs=1e-8)


def test_inverse_kernel_is_time_swapped_forward():
    p = params_1d(0.8, 0.5)
    ctx_fwd = kernel_context(p, 1.0, 0.0, x_start=[0.0])
    ctx_bwd = kernel_context(p, 0.0, 1.0, x_start=[0.0])
    for x, y in [(0.3, -0.4), (1.1, 0.2)]:
        assert formal_kernel(ctx_fwd.reversed(), [x], [y]) == pytest.approx(
            formal_kernel(ctx_bwd, [x], [y]), rel=1e-14)


def test_inverse_kernel_exponent_grows():
    # the backward spread is negative: a growing Gaussian factor
    back = kernel_context(params_1d(1.0, 1.0), 1.0, 0.0).reversed()
    coeff = back.m.nn[0, 0] / back.m.dn[0, 0]
    assert coeff == pytest.approx(-0.15651764274966568, abs=1e-14)
    near = formal_kernel(back, [0.1], [0.0])
    far = formal_kernel(back, [3.0], [0.0])
    assert far > near  # grows away from the center


def test_backward_quadratic_form_positive_for_forward_images():
    # forward-evolved packets always leave the backward integral divergent
    p = params_1d(1.0, 0.5)
    ctx = kernel_context(p, 0.1, 0.0)
    q_env = np.array([[1.0]])  # evolved factor of the unit-seed packet
    eig = np.linalg.eigvalsh(backward_quadratic_form(ctx.reversed(), q_env))
    assert eig[-1] > 0.0


def test_delta_limit_guard():
    p = params_1d(0.5, 0.5)
    ctx = kernel_context(p, 1e-12, 0.0)
    with pytest.raises(DeltaLimitError):
        kernel_matrix(ctx, [0.0], [0.0])
    # backward, however short, is refused before the delta limit is reached
    with pytest.raises(KernelValidityError, match="backward"):
        kernel_matrix(ctx.reversed(), [0.0], [0.0])


def test_forward_kernel_rejects_non_spd_spread():
    # forward in time the spread w must be positive definite;
    # blocks from the model always give one, so the blocks are made by hand
    p = params_1d(0.5, 0.5)
    bad = Matriciant(t=1.0, s=0.0, dd=np.eye(1), w=-np.eye(1))
    ctx = KernelContext(params=p, m=bad, x_start=np.zeros(1), x_end=np.zeros(1))
    with pytest.raises(KernelValidityError, match="kernel spread"):
        kernel_matrix(ctx, [[0.0]], [[0.0]])
    # backward in time the same blocks are refused before the spread is
    # read: kernels run forward only (the exponent would be sign indefinite)
    back = KernelContext(params=p, m=Matriciant(t=0.0, s=1.0, dd=bad.dd, w=bad.w),
                         x_start=np.zeros(1), x_end=np.zeros(1))
    with pytest.raises(KernelValidityError, match="backward"):
        kernel_matrix(back, [[0.0]], [[0.0]])


def test_kernel_matrix_matches_pointwise():
    p = params_1d(0.7, 0.3, feedback=-0.2, kappa=1.0)
    ctx = kernel_context(p, 0.6, 0.0, x_start=[0.4])
    xs = np.array([[-0.5], [0.0], [0.8]])
    ys = np.array([[0.1], [0.9]])
    mat = kernel_matrix(ctx, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert mat[i, j] == pytest.approx(kernel(ctx, x, y), rel=1e-14)


def test_context_checks_mutual_consistency():
    p = params_1d(1.3, 0.2)
    ctx = kernel_context(p, 0.9, 0.1, x_start=[0.3])
    back = ctx.reversed()
    assert (back.t, back.s) == (ctx.s, ctx.t)
    assert back.x_end is ctx.x_start and back.x_start is ctx.x_end
    n = 1
    full_f = np.block([[ctx.m.nn, np.zeros((n, n))], [ctx.m.dn, ctx.m.dd]])
    full_b = np.block([[back.m.nn, np.zeros((n, n))], [back.m.dn, back.m.dd]])
    np.testing.assert_allclose(full_f @ full_b, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reversed_matches_the_backward_exponential(dim, sign):
    # oracle: the block inverse of the forward blocks against the
    # matriciant from t back to s by its own matrix exponential, over
    # stable (sign 1) and unstable (sign -1) drifts
    rng = np.random.default_rng(17 + dim)
    worst = 0.0
    for _ in range(25):
        drift = sign * (rng.uniform(0.2, 2.0) * np.eye(dim)
                        + 0.3 * rng.standard_normal((dim, dim)))
        p = ModelParams(drift=drift, coupling_state=np.zeros((dim, dim)),
                        coupling_mean=np.zeros((dim, dim)), diffusion=0.3)
        t = rng.uniform(0.1, 2.0)
        back = kernel_context(p, t, 0.0).reversed().m
        ref = kernels.matriciant(p, 0.0, t)
        assert (back.t, back.s) == (ref.t, ref.s)
        for f in ("nn", "dn", "dd"):
            a, b = getattr(back, f), getattr(ref, f)
            worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))
    assert worst < 1e-11


@pytest.mark.parametrize("dim, kind", [(1, "lin"), (1, "nl"), (2, "nl"),
                                       (1, "nl_inv")])
def test_kernel_matrix_matches_pointwise_off_center(dim, kind):
    # the product pairing expands the exponent into squared coordinates;
    # on a grid 1000 away from the anchors it must still match the direct
    # pointwise form
    drift = np.eye(dim) + np.array([[0.0, 0.3], [-0.2, 0.0]])[:dim, :dim]
    p = ModelParams(drift=drift, coupling_state=np.zeros((dim, dim)),
                    coupling_mean=-0.5 * np.eye(dim), diffusion=0.2,
                    coupling=1.0)
    anchored = kernel_context(p, 0.7, 0.0, x_start=np.full(dim, 0.4))
    ctx = {"lin": kernel_context(p, 0.7, 0.0), "nl": anchored,
           "nl_inv": anchored.reversed()}[kind]
    m, xo, yo = ctx.m, ctx.x_end, ctx.x_start
    if ctx.t < ctx.s:
        # kernels run forward only: the backward context is refused
        with pytest.raises(KernelValidityError, match="backward"):
            kernel_matrix(ctx, xo + 1000.0, yo + 1000.0)
        return
    axis = np.linspace(-2.0, 2.0, 41 if dim == 1 else 9)
    ys = 1000.0 + np.stack(np.meshgrid(*[axis] * dim, indexing="ij"),
                           axis=-1).reshape(-1, dim)
    # output points around the transported inputs, where the kernel lives
    xs = xo + (ys - yo) @ m.dd.T + 0.05
    mat = kernel_matrix(ctx, xs, ys)
    ref = kernel(ctx, np.repeat(xs, len(ys), axis=0),
                    np.tile(ys, (len(xs), 1))).reshape(mat.shape)
    keep = np.abs(ref) > 1e-100 * np.max(np.abs(ref))
    assert keep.sum() > len(ys)
    np.testing.assert_allclose(mat[keep], ref[keep], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_matrix_row_blocks_through_the_shared_evaluator(dim, monkeypatch):
    # kernel_matrix is one exp_product of its features; that product on
    # row blocks of the features must give the same bits as on all rows,
    # the property mixture evaluation's point blocks rely on as well
    p = ModelParams(drift=np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=-0.5 * np.eye(dim), diffusion=0.3, coupling=1.0)
    ctx = kernel_context(p, 0.6, 0.0, x_start=np.full(dim, 0.2))
    axis = np.linspace(-3.0, 3.0, 61 if dim == 1 else 13)
    pts = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    real = kernels.exp_product
    seen = []

    def recording(left, right):
        seen.append((left, right))
        return real(left, right)

    monkeypatch.setattr(kernels, "exp_product", recording)
    whole = kernel_matrix(ctx, pts, pts)
    (left, right), = seen
    # near-equal blocks of at least four rows: a one-row block would take
    # numpy's matrix-vector product instead
    for n_blocks in (2, 5, 9):
        parts = [real(rows, right) for rows in np.array_split(left, n_blocks)]
        assert np.array_equal(np.vstack(parts), whole)


def _exponents(ctx, xs, ys):
    """The exponents that kernel_matrix(ctx, xs, ys) exponentiates: the
    product of its features."""
    left, right = kernels.kernel_features(ctx, xs, ys)
    return left @ right


def _grid(dim, lo, hi, nodes):
    axis = np.linspace(lo, hi, nodes)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def _underflowing_context(dim):
    # the quad_inverse shape in 1D ([-8, 8], diffusion 0.5, t - s 0.1) and a
    # 2D grid as wide against its kernel: both reach exponents below LOG_TINY
    if dim == 1:
        p = ModelParams(drift=[[1.0]], coupling_state=[[0.0]], coupling_mean=[[-0.5]],
                        diffusion=0.5, coupling=1.0)
        return kernel_context(p, 0.1, 0.0, x_start=[0.3]), _grid(1, -8.0, 8.0, 801)
    p = ModelParams(drift=[[0.6, 0.2], [-0.1, 0.4]], coupling_state=np.zeros((2, 2)),
                    coupling_mean=[[-0.3, 0.0], [0.1, -0.2]], diffusion=0.4, coupling=1.0)
    return kernel_context(p, 0.1, 0.0, x_start=[0.3, -0.2]), _grid(2, -7.0, 7.0, 31)


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_matrix_zeroes_the_entries_below_the_smallest_normal(dim):
    # entries whose exponential falls below the smallest normal double come
    # back as zero, never as a subnormal; the others keep their bits
    ctx, pts = _underflowing_context(dim)
    expo = _exponents(ctx, pts, pts)
    tiny = np.finfo(float).tiny
    assert expo.min() < kernels.LOG_TINY
    ref = np.exp(expo)
    assert ((ref > 0.0) & (ref < tiny)).any()  # one exp would give subnormals
    ref[ref < tiny] = 0.0
    mat = kernel_matrix(ctx, pts, pts)
    assert np.array_equal(mat, ref)
    assert not ((mat != 0.0) & (np.abs(mat) < tiny)).any()


def test_kernel_matrix_without_underflow_is_one_exp():
    p = ModelParams(drift=np.eye(2), coupling_state=np.zeros((2, 2)),
                    coupling_mean=-0.5 * np.eye(2), diffusion=0.3, coupling=1.0)
    ctx = kernel_context(p, 0.6, 0.0, x_start=[0.2, 0.2])
    pts = _grid(2, -3.0, 3.0, 13)
    expo = _exponents(ctx, pts, pts)
    assert expo.min() >= kernels.LOG_TINY
    assert np.array_equal(kernel_matrix(ctx, pts, pts), np.exp(expo))


def test_backward_matriciant_is_lazy(monkeypatch):
    # a context builds one matriciant; reversed() inverts its blocks and
    # builds none, so a forward and a backward move cost one exponential
    calls = []
    real = kernels.matriciant

    def counting(params, t, s):
        calls.append((t, s))
        return real(params, t, s)

    monkeypatch.setattr(kernels, "matriciant", counting)
    ctx = kernel_context(params_1d(1.3, 0.2), 0.9, 0.1, x_start=[0.2])
    kernel_matrix(ctx, [[0.0]], [[0.0]])
    assert calls == [(0.9, 0.1)]
    back = ctx.reversed()
    assert (back.t, back.s) == (0.1, 0.9)
    assert calls == [(0.9, 0.1)]


def test_overflowing_matriciant_raises_kernel_validity_error():
    # a mode that grows along the move overflows dd and w over a long
    # horizon: drift -3 forward (the feedback 3.5 keeps the moment rate at
    # -0.5) and drift 3 backward.  The matriciant, and with it the
    # zero-anchored, anchored and backward contexts, must name that instead
    # of returning NaN later
    growing = params_1d(-3.0, 0.1, feedback=3.5, kappa=1.0)
    stable = params_1d(3.0, 0.1, feedback=-0.5, kappa=1.0)
    overflow = r"matriciant is not finite at \|t - s\| = 250.*overflows"
    for build in (lambda: kernels.matriciant(growing, 250.0, 0.0),
                  lambda: kernels.matriciant(stable, 0.0, 250.0),
                  lambda: kernel_context(growing, 250.0, 0.0),
                  lambda: kernel_context(growing, 250.0, 0.0, x_start=[0.4]),
                  lambda: kernel_context(stable, 0.0, 250.0)):
        with pytest.raises(KernelValidityError, match=overflow):
            build()


@pytest.mark.parametrize("t, s, name", [(np.nan, 0.0, "t"), (np.inf, 0.0, "t"),
                                        (1.0, np.nan, "s"), (1.0, -np.inf, "s"),
                                        (np.inf, np.inf, "t")])
def test_non_finite_times_name_themselves(t, s, name):
    # plan_for(p, 0, nan, field) raised KernelValidityError "moment trajectory
    # overflows double precision", blaming an overflow that did not happen,
    # and evolve_packet returned its packet unchanged at t = s = inf
    p = params_1d(1.0, 0.5, feedback=-0.5, kappa=1.0)
    packet = GaussianPacket([0.5], [[1.0]], [[1.0]])
    for build in (lambda: kernel_context(p, t, s),
                  lambda: kernel_context(p, t, s, x_start=[0.5]),
                  lambda: plan_for(p, s, t, GaussianMixture([packet])),
                  lambda: evolve_packet(packet, p, t, s)):
        with pytest.raises(InputError, match=rf"time {name} must be finite"):
            build()


def test_overflowing_moment_anchor_raises_kernel_validity_error():
    # moment rate +9 overflows the end anchor at t = 100 while the matriciant
    # (drift 1) stays finite; the anchored kernel used to be 0 everywhere
    p = params_1d(1.0, 0.5, feedback=-10.0, kappa=1.0)
    with pytest.raises(KernelValidityError,
                       match=r"\|t - s\| = 100.*moment trajectory overflows"):
        kernel_context(p, 100.0, 0.0, x_start=[0.5])
    # the zero-anchored context computes no trajectory and stays finite
    lin = kernel_context(p, 100.0, 0.0)
    assert np.all(np.isfinite(lin.x_end))
    assert 0.0 < kernel(lin, [[0.0]], [[0.0]]) < np.inf


def test_overflow_raises_the_typed_error_not_a_warning():
    # the matrix exponentials and the doublings overflow quietly and the
    # finiteness checks after them name the horizon; numpy's overflow
    # warning used to escape first, and under warnings-as-errors replaced
    # the typed error
    growing = ModelParams([[-3.0]], [[0.0]], [[3.5]], 0.1, 1.0)
    stable = ModelParams([[3.0]], [[0.0]], [[-0.5]], 0.1, 1.0)
    packet = GaussianPacket([0.5], [[1.0]], [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: kernel_context(growing, 250.0, 0.0),
                      lambda: kernel_context(stable, 0.0, 250.0),
                      lambda: evolve_packet(packet, growing, 250.0, 0.0),
                      lambda: kernel_context(params_1d(1.0, 0.5, feedback=-10.0, kappa=1.0),
                                             100.0, 0.0, x_start=[0.5])):
            with pytest.raises(KernelValidityError, match="overflows"):
                build()


@pytest.mark.parametrize("dim, tau", [(2, 250.0), (3, 150.0)])
def test_a_determinant_past_the_largest_double_still_gives_the_kernel(dim, tau):
    # drift -I spreads the kernel to w = (e^(2 tau) - 1) I, whose determinant
    # overflows: numpy's det warned and the kernel raised KernelValidityError,
    # where its value at the origin, (2 pi (e^(2 tau) - 1))^(-dim/2), is a
    # normal double (1.134e-218 in 2D at tau 250)
    p = ModelParams(drift=-np.eye(dim), coupling_state=np.zeros((dim, dim)),
                    coupling_mean=np.zeros((dim, dim)), diffusion=1.0)
    ctx = kernel_context(p, tau, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = kernel_matrix(ctx, np.zeros((1, dim)), np.zeros((1, dim)))[0, 0]
    assert value == pytest.approx(np.exp(-0.5 * dim * (np.log(2.0 * np.pi) + 2.0 * tau)),
                                  rel=1e-12)


def _context_2d():
    p = ModelParams(drift=np.eye(2), coupling_state=np.zeros((2, 2)),
                    coupling_mean=-0.5 * np.eye(2), diffusion=0.3, coupling=1.0)
    return kernel_context(p, 0.6, 0.0, x_start=[0.2, 0.2])


@pytest.mark.parametrize("xs, ys", [
    (np.zeros((4, 1)), np.zeros((4, 1))),   # 1D points, paired up as 2D ones before
    (np.zeros((3, 2)), np.zeros((6, 1))),
    (np.zeros((3, 3)), np.zeros((3, 2))),
    (np.zeros(4), np.zeros(4)),
    (np.zeros((2, 2, 2)), np.zeros((2, 2))),
    (0.0, np.zeros(2)),
])
def test_points_of_the_wrong_width_are_input_errors(xs, ys):
    with pytest.raises(InputError, match=r"\(N, 2\) arrays or one \(2,\) point") as err:
        kernel_matrix(_context_2d(), xs, ys)
    assert f"x of shape {np.shape(xs)}" in str(err.value)
    assert f"y of shape {np.shape(ys)}" in str(err.value)


def test_empty_point_sets_give_empty_kernels():
    # no points is an empty answer, as for mixture evaluation, not a
    # "Mean of empty slice" warning and a reduction error
    ctx = _context_2d()
    some, none = np.zeros((3, 2)), np.zeros((0, 2))
    assert kernel_matrix(ctx, none, some).shape == (0, 3)
    assert kernel_matrix(ctx, some, none).shape == (3, 0)
    assert kernel_matrix(ctx, none, none).shape == (0, 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_matrix_is_one_product_of_the_features(dim):
    # kernel_matrix evaluates exactly what kernel_features hands a blocked
    # consumer: the same factors, the same bits, with each row block
    # zeroing its underflow by its own minimum
    ctx, pts = _underflowing_context(dim)
    left, right = kernels.kernel_features(ctx, pts, pts)
    mat = kernel_matrix(ctx, pts, pts)
    assert np.array_equal(mat, kernels.exp_product(left, right))
    # a preallocated output row block is filled in place
    out = np.empty((7, len(pts)))
    block = kernels.exp_product(left[3:10], right, out=out)
    assert block is out and np.array_equal(out, mat[3:10])
    # against the grid's first nodes only the far rows reach below LOG_TINY:
    # each block of four rows takes the path its own minimum picks, and
    # the blocks together give the bits of the whole product
    left, right = kernels.kernel_features(ctx, pts, pts[:4])
    low = (left @ right).min(axis=1) < kernels.LOG_TINY
    blocks = np.array_split(np.arange(len(pts)), len(pts) // 4)
    assert {bool(low[rows].any()) for rows in blocks} == {False, True}
    parts = [kernels.exp_product(left[rows], right) for rows in blocks]
    assert np.array_equal(np.vstack(parts), kernels.exp_product(left, right))


def test_input_width_is_the_kernels_spread_in_its_input():
    # at a fixed output point the kernel is a Gaussian in y about
    # x_start + dd^-1 (x - x_end); its variance along each axis, measured on
    # a grid by the trapezoid rule, is input_width squared
    p = ModelParams(drift=np.array([[0.6, 0.2], [-0.1, 0.4]]), coupling_state=np.zeros((2, 2)),
                    coupling_mean=np.array([[-0.3, 0.0], [0.1, -0.2]]),
                    diffusion=0.4, coupling=1.0)
    ctx = kernel_context(p, 0.5, 0.0, x_start=[0.3, -0.2])
    x = np.array([0.4, 0.1])
    center = ctx.x_start + np.linalg.solve(ctx.m.dd, x - ctx.x_end)
    sigma = kernels.input_width(ctx)
    axes = [c + np.linspace(-10 * sigma.max(), 10 * sigma.max(), 401) for c in center]
    ys = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = kernel_matrix(ctx, x, ys).reshape(401, 401)
    mass = np.trapezoid(np.trapezoid(vals, axes[1]), axes[0])
    for i, axis in enumerate(axes):
        marginal = np.trapezoid(vals, axes[1 - i], axis=1 - i) / mass
        variance = np.trapezoid((axis - center[i]) ** 2 * marginal, axis)
        assert np.sqrt(variance) == pytest.approx(sigma[i], rel=1e-10)
