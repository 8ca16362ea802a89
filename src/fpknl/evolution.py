"""Evolution operator of the mean-coupled equation and its left inverse.

A plan is a directed ``KernelContext``: the matriciant from s to t and the
moment-frame anchors x_start and x_end at both ends, computed up front
from the input's initial moment; kernels and packet propagation consume
it read-only.  Gaussian mixtures evolve in closed form; sampled densities
go through trapezoid quadrature of the kernel.  A field and a plan of
different dimensions raise InputError.

The quadrature builds the kernel's features once and then takes one
cache-sized block of kernel rows at a time, so it never holds an N x N
array.  On the uniform grid the exponent is a quadratic in the input
node's index along the last axis: with the input nodes split into runs
y_b + m step (m = 0 .. B-1) along that axis, v = dx[-1] dd[:, -1] the
transported step and C the exponent matrix, exactly

    e(x, y_b + m step) = e(x, y_b) - 2 m g(x) + 2 m h(b) + m^2 q,
    g = xc . v,  h = yp_b^T C v,  q = v^T C v.

So a block of rows is rowsum(P o (Q @ (R o W)^T)): P = exp(e(x, y_b)) is
exp_product over the run starts only, Q = exp(-2 m g) has one row per
output node, R = exp(2 m h + m^2 q) one row per run start, and W holds the
weighted samples, zero-padded to whole runs.  That is N^2 / B + N B
exponentials and one GEMM in place of N^2 exponentials: the exact-algebra
relative of the fast Gauss transform (Greengard & Strain, SIAM J. Sci.
Stat. Comput. 12, 1991), with no truncated series.  B is the largest
power of two up to RUN_MAX and the last axis' length for which
|2 m g| + |2 m h + m^2 q| stays within TABLE_EXPONENT over all table
entries, so neither table overflows or turns subnormal, and the entries
that P's underflow flush drops are below tiny * e^TABLE_EXPONENT (about
1.4e-280).  A kernel only a few grid steps wide leaves no B above 1, and
B = 1 is the plain loop: P over every input node times W.

The sampled inverse holds A as the blocks of a band, each its own
contiguous array, and every other entry is exactly 0.  At an output
point x the kernel is a Gaussian in the input y centered on
c(x) = x_start + dd^-1 (x - x_end), with standard deviation sigma_i,
sigma_i^2 = diffusion (dd^-1 w dd^-T)_ii, along axis i
(kernels.input_width), so its exponent stays above -BAND_EXPONENT only
within r = sqrt(2 BAND_EXPONENT) sigma_0 of c_0(x) along the first axis.
The rows go in near-equal blocks of at most BAND_ROWS, and a block takes
the columns of the nodes whose first coordinate lies within r of its
rows' centers, rounded out to whole nodes and clipped to the grid; in
dims >= 2 these are whole inner lines of the flattened index, a
superset.  Only those blocks are exponentiated, underflow path, weights
and flush included; A Omega and A^T Q in the sketch and the residual A x
run over the same blocks, and only lstsq gets the dense A, assembled
from them.  A dropped entry is below e^-40 = 4.2e-18 of the kernel's
peak: 26 times below half an ulp of the largest entry, and 3e4 times
below the 1.3e-13 relative error that the expanded exponent already puts
in every entry.  In 1D every kept entry has the bits of the full
product; in 2D, BLAS takes another kernel for another block shape and a
few entries move by up to 5.7e-14 relative.  On [-8, 8] at diffusion 0.5
and t - s = 0.1 the band holds 0.44, 0.39 and 0.37 of N^2 at N = 401, 801
and 1201 (0.23 for a narrow kernel at diffusion 0.15, 0.72 on a 2D 31^2
grid).  A kernel whose input width sigma_0 exceeds the grid's span along
the first axis, or a singular dd, averages every sample over the whole
grid: the flow has forgotten the initial data, and the sampled inverse
raises IllPosedInverseError naming |t - s|, sigma_0 and the span.

The sketch's dense algebra is paid once where it can be.  The Gaussian
test matrix depends on (N, width) alone, so it is drawn once and kept,
read-only, in a small memo.  Both of the solve's QRs keep LAPACK's raw
Householder factors, and one helper applies their Q in compact WY form
(Joffrain et al., ACM TOMS 32, 2006): applied to I it forms the range
basis by one GEMM, in place of numpy's orgqr, which costs about as much
as the factorization itself, and applied to a k-vector it is two GEMVs.
One inverse_evolve on the grids above, one core of a Xeon with one BLAS
thread: the median over 7 alternating processes of each one's median of
15 calls (ms).  "Extended" grew the sketch by block Gram-Schmidt on a
kept basis and applied the second QR's reflectors one at a time;
"refactored" is this module, whose growth steps cost more (the narrow
kernel at diffusion 0.15 grows to k = 256):

    N                     extended   refactored
    401                      9.2         8.1
    801                     15.0        14.2
    1201                    26.5        21.4
    1201, diffusion 0.15    57.8        67.1

The left inverse on the analytic pathway moves the covariances along
``plan.reversed()``, S(s) = dd S(t) dd^T + w with its blocks.  That sum
rounds by at most eps times the sum of the magnitudes of its terms; where
that bound, relative to the result, exceeds INVERSE_PRECISION, or dd is
singular or the sum overflows, the forward flow has lost the initial
data and IllPosedInverseError names |t - s|.  On sampled densities the literal
backward-kernel integral diverges for every forward image (the growing
exponent always wins), so the inverse is realized as a truncated-SVD
least-squares solve of the forward quadrature system, with lstsq's rule:
singular values at or below rcond * sigma_max are dropped, rcond being
INVERSE_RCOND.  The quadrature matrix is numerically low-rank, so the SVD
comes from a randomized range finder: a sketch of SKETCH_START Gaussian
columns from a local generator seeded with SKETCH_SEED (repeatable, and
the global numpy state is untouched), grown by SKETCH_STEP columns until
the sketch's smallest singular value lies below SKETCH_STOP * rcond times
its largest, so that every singular value above the cutoff is captured.
Each step factors the whole sketch A Omega_k anew with the same QR, and
the stop test reads the singular values of its triangular factor R.  As
sigma_min <= min |r_ii| and max |r_ii| <= sigma_max for a triangular R,
a diagonal with min |r_ii| <= SKETCH_STOP * rcond * max |r_ii| passes
the test with no SVD (95 of 127 tests over 120 benchmark inverses); only
where it does not is the SVD of R taken.  The SVD of the wide Q^T A
comes from the QR of its transpose and a k x k SVD.  A near-full-rank
system, one that would need a sketch of more than N/3 columns, is solved
by np.linalg.lstsq instead, as soon as a sketch's singular values,
falling on at the rate of their second half, would not reach the stop
level within N/3 columns.  Either way the solution is checked against
the full matrix: inputs that no initial data can explain raise
IllPosedInverseError, naming the rank kept, the cutoff, the forward
residual and the factorization.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (IllPosedInverseError, InvalidCovarianceError, KernelValidityError,
                     NormalizationError, TruncationError)
from .kernels import (KernelContext, _require_same_dim, exp_product, exponent_matrix,
                      input_width, kernel_context, kernel_features)
from .model import ModelParams, SampledDensity, _vector, row_blocks
from .packets import GaussianMixture, propagate_packet
from .variations import require_spd

MASS_TOL_ANALYTIC = 1e-10
MASS_TOL_QUADRATURE = 1e-6
EDGE_DECAY_TOL = 1e-12
INVERSE_RCOND = 1e-8
INVERSE_PRECISION = 1e-10
SKETCH_START = 128
SKETCH_STEP = SKETCH_START // 2
SKETCH_STOP = 1e-3
SKETCH_SEED = 20110601
# longest run of input nodes one base column serves, and the bound on the
# exponents of its offset tables (module docstring)
RUN_MAX = 64
TABLE_EXPONENT = 64.0
# the sampled inverse's band (module docstring): entries whose exponent lies
# below -BAND_EXPONENT, under e^-40 = 4.2e-18 of the kernel's peak and 26
# times below half an ulp of the largest entry, stay 0; each column window
# serves a block of at most BAND_ROWS rows
BAND_EXPONENT = 40.0
BAND_ROWS = 64


def plan_for(params: ModelParams, s: float, t: float,
             initial: GaussianMixture | SampledDensity,
             moment_override=None) -> KernelContext:
    """Build a plan from the initial data's first moment (or an override).

    The trajectory must exist before any kernel evaluation; for zero-mass
    fields the moment is not defined by the data (DegenerateMomentError)
    and the override is mandatory.
    """
    if moment_override is not None:
        x0 = _vector(moment_override, params.dim, "moment_override")
    else:
        x0 = initial.first_moment(normalized=True)
    return kernel_context(params, t, s, x0)


def _check_mass(mass: float, tol: float) -> None:
    if abs(mass - 1.0) > tol:
        raise NormalizationError(
            f"input mass {mass:.12g} is not 1 within {tol:.0e}; only "
            "evolve_analytic takes raw fields (require_normalized=False)"
        )


def evolve_analytic(mix: GaussianMixture, plan: KernelContext,
                    require_normalized: bool = True) -> GaussianMixture:
    """Propagate all components at once in closed form around the shared
    trajectory; a raw field (require_normalized=False) may carry any mass."""
    _require_same_dim(mix, plan)
    if require_normalized:
        _check_mass(mix.total_mass(), MASS_TOL_ANALYTIC)
    if plan.t == plan.s:
        return mix.copy()
    return propagate_packet(mix, plan)


def _runs(plan: KernelContext, gamma: SampledDensity, pts: np.ndarray):
    """(B, left, right, underflow, row exponents, column exponents): the
    longest run B of input nodes along the grid's last axis, a power of two
    up to RUN_MAX, whose offset tables keep every exponent within
    TABLE_EXPONENT; the kernel features over all rows and the run starts
    (the base columns, one per B nodes); -2 g(x) per row and the table
    2 m h(b) + m^2 q over base columns b and offsets m.  B = 1 is the
    kernel over all input nodes, without tables."""
    left, right, underflow = kernel_features(plan, pts, pts)
    dim, n_last = gamma.dim, gamma.values.shape[-1]
    v = gamma.dx[-1] * plan.m.dd[:, -1]  # one step along the last axis, transported
    cv = exponent_matrix(plan) @ v
    g2 = -2.0 * (left[:, :dim] @ v)
    g_most = np.abs(g2).max()
    # right[:dim] holds -2 yp of the input nodes: 2 h = -cv . right
    h2 = (-(cv @ right[:dim])).reshape(-1, n_last)
    run = 1 << (min(RUN_MAX, n_last).bit_length() - 1)
    while run > 1:
        offsets = np.arange(run)
        cols = np.multiply.outer(h2[:, ::run].ravel(), offsets) + offsets ** 2 * (v @ cv)
        if (run - 1) * g_most + np.abs(cols).max() <= TABLE_EXPONENT:
            base = right.reshape(dim + 2, -1, n_last)[:, :, ::run].reshape(dim + 2, -1)
            return run, left, base, underflow, g2, cols
        run //= 2
    return 1, left, right, underflow, None, None


def evolve_quadrature(gamma: SampledDensity, plan: KernelContext) -> SampledDensity:
    """Trapezoid quadrature of the evolution kernel on the input grid, one
    cache-sized row block at a time: no N x N array is held.  Along runs of
    B nodes of the grid's last axis a block is rowsum(P o (Q @ (R o W)^T)),
    with P the kernel over the run starts and Q, R the offset tables of the
    module docstring; B = 1 is P @ W over every input node."""
    _require_same_dim(gamma, plan)
    edge = gamma.edge_max()
    if edge > EDGE_DECAY_TOL:
        raise TruncationError(
            f"input does not decay at the grid edges (max edge value {edge:.3e})"
        )
    _check_mass(gamma.total_mass(), MASS_TOL_QUADRATURE)
    if plan.t == plan.s:
        return gamma.copy()
    pts = gamma.points()
    weighted = gamma.weights() * gamma.values
    run, left, right, underflow, g2, cols = _runs(plan, gamma, pts)
    n_base = right.shape[1]
    out = np.empty(len(pts))
    # a block holds P, and with runs also Q and Q @ (R o W)^T
    blocks = row_blocks(len(pts), n_base if run == 1 else 2 * n_base + run)
    most = max(b.stop - b.start for b in blocks)
    buf = np.empty((most, n_base))
    if run == 1:
        weighted = weighted.ravel()
    else:
        # R o W over the run starts and offsets, the runs zero-padded
        n_last = gamma.values.shape[-1]
        padded = np.pad(weighted.reshape(-1, n_last), ((0, 0), (0, -n_last % run)))
        weighted = (np.exp(cols) * padded.reshape(cols.shape)).T
        offsets = np.arange(run)
        sums, tables = np.empty((most, n_base)), np.empty((most, run))
    for rows in blocks:
        size = rows.stop - rows.start
        block = exp_product(left[rows], right, underflow, out=buf[:size])
        if run == 1:
            np.matmul(block, weighted, out=out[rows])
        else:
            table = np.multiply.outer(g2[rows], offsets, out=tables[:size])
            summed = np.matmul(np.exp(table, out=table), weighted, out=sums[:size])
            out[rows] = np.einsum("ij,ij->i", block, summed)
    return SampledDensity(gamma.x_min.copy(), gamma.dx.copy(),
                          out.reshape(gamma.values.shape))


def _band(gamma: SampledDensity, plan: KernelContext) -> list[tuple[slice, slice]]:
    """(rows, cols) blocks that hold every entry of the quadrature matrix
    above e^-BAND_EXPONENT of the kernel's peak: near-equal blocks of about
    BAND_ROWS rows, each with the window of input nodes along the grid's
    first axis within sqrt(2 BAND_EXPONENT) sigma_0 of its rows' kernel
    centers, as whole inner lines of the flattened index and clipped to
    the grid.  A block whose window misses the grid is left out; a
    singular or overflowing dd^-1 opens every window to the whole grid."""
    n, n0 = gamma.values.size, gamma.values.shape[0]
    n_blocks = -(-n // BAND_ROWS)
    bounds = np.arange(n_blocks + 1) * n // n_blocks
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            back = plan.reversed()  # dd^-1, with the anchors swapped
            centers = back.x_end[0] + (gamma.points() - back.x_start) @ back.m.dd[0]
            reach = np.sqrt(2.0 * BAND_EXPONENT) * input_width(plan)[0]
        except np.linalg.LinAlgError:  # singular dd: the kernel is flat in y
            centers, reach = np.full(n, np.nan), 0.0
        first = (np.minimum.reduceat(centers, bounds[:-1]) - reach - gamma.x_min[0]) / gamma.dx[0]
        last = (np.maximum.reduceat(centers, bounds[:-1]) + reach - gamma.x_min[0]) / gamma.dx[0]
    # fmax and fmin take the grid's end over a nan
    lo = np.fmin(np.fmax(np.floor(first), 0), n0)
    hi = np.fmax(np.fmin(np.ceil(last) + 1, n0), lo)
    inner = n // n0
    return [(slice(start, stop), slice(int(a) * inner, int(b) * inner))
            for start, stop, a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist(), lo, hi)
            if b > a]


def forward_quadrature_matrix(gamma: SampledDensity, plan: KernelContext):
    """The matrix A with (A @ values) = forward quadrature on the input grid,
    as the blocks of its band (_band): (rows, cols, block) triples, each
    block its own contiguous array with A[rows, cols] = block.  Every other
    entry, below e^-BAND_EXPONENT of the kernel's peak, is 0; _dense
    assembles the N x N matrix."""
    pts = gamma.points()
    w = gamma.weights().ravel()
    left, right, underflow = kernel_features(plan, pts, pts)
    tiny = np.finfo(float).tiny
    blocks = []
    for rows, cols in _band(gamma, plan):
        block = exp_product(left[rows], right[:, cols], underflow)
        block *= w[cols]
        # exp_product returns no subnormal, but a weight can push a normal
        # entry below the smallest normal double; subnormals halve the
        # speed of every product with A, so such entries are zero too
        np.putmask(block, block < tiny, 0.0)
        blocks.append((rows, cols, block))
    return blocks


def _dense(blocks, n: int) -> np.ndarray:
    """The N x N matrix that the band's blocks hold, 0 elsewhere."""
    a = np.zeros((n, n))
    for rows, cols, block in blocks:
        a[rows, cols] = block
    return a


def _band_product(blocks, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """A @ x, or A.T @ x, for the square A that the band's blocks hold."""
    out = np.zeros(x.shape)
    for rows, cols, block in blocks:
        if transpose:
            out[cols] += block.T @ x[rows]
        else:
            np.matmul(block, x[cols], out=out[rows])
    return out


def _inverse_analytic(u: GaussianMixture, plan: KernelContext) -> GaussianMixture:
    horizon = f"analytic inverse over |t - s| = {abs(plan.t - plan.s):.6g}"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            back = plan.reversed()
            out = propagate_packet(u, back)
        except np.linalg.LinAlgError:  # dd underflowed to a singular matrix
            out = None
        if out is None or not np.isfinite(out.cov).all():
            raise IllPosedInverseError(
                f"{horizon}: dd is singular or the backward covariance overflows in "
                "double precision; the forward flow has forgotten the initial data")
        # S(s) rounds by at most eps times the magnitudes of its terms:
        # relative to S(s), the precision it keeps (none where they cancel to 0)
        terms = np.abs(back.m.dd) @ np.abs(u.cov) @ np.abs(back.m.dd.T) + np.abs(back.m.w)
        lost = float(np.max(np.finfo(float).eps * terms.max(axis=(-2, -1))
                            / np.abs(out.cov).max(axis=(-2, -1))))
    if lost > INVERSE_PRECISION:
        raise IllPosedInverseError(
            f"{horizon}: the backward covariance is precise only to {lost:.1e} "
            f"relative (limit {INVERSE_PRECISION:.0e}); rounding swamps the initial data")
    require_spd(out.cov, "recovered covariance", InvalidCovarianceError)
    return out


def _householder(y: np.ndarray):
    """Householder QR of the tall (N, k) y from LAPACK's raw factors:
    (vt, tau, r), with r numpy's R bit for bit and vt the (k, N) V^T, its
    row j reflector j's vector v_j, a unit entry at column j and zeros
    before it.  Q is the product of the reflectors I - tau_j v_j v_j^T,
    applied by _apply_q and formed only where it is needed."""
    vt, tau = np.linalg.qr(y, mode="raw")
    del y  # vt is a copy: a caller's temporary sketch is freed here
    k = len(tau)
    r = np.triu(vt[:, :k].T)
    vt[:, :k] = np.triu(vt[:, :k], 1)
    np.fill_diagonal(vt, 1.0)
    return vt, tau, r


def _apply_q(vt: np.ndarray, tau: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Q z for the reduced (N, k) Q of _householder's reflectors and a
    k-vector or (k, m) z, in compact WY form (Joffrain et al., ACM TOMS 32,
    2006): the product of the reflectors is I - V T V^T, with
    T^-1 = striu(V^T V) + diag(1 / tau); so
    T = (I + diag(tau) striu(V^T V))^-1 diag(tau), a unit triangular solve
    that a tau of 0 (a reflector that is the identity) leaves well posed,
    and Q z = pad(z) - V (T V_k^T z), V_k the first k rows of V.  For a
    vector that is two GEMVs past T; z = I forms Q by one (N, k) GEMM."""
    k = len(tau)
    unit = np.triu(vt @ vt.T, 1) * tau[:, None]
    t_vk = solve_triangular(unit, tau[:, None] * vt[:, :k], unit_diagonal=True, overwrite_b=True)
    x = vt.T @ -(t_vk @ z)
    x[:k] += z
    return x


def _diagonal_stops(r: np.ndarray, level: float) -> bool:
    """min |r_ii| <= level * max |r_ii| for the triangular r.  As
    sigma_min <= min |r_ii| and max |r_ii| <= sigma_max, it implies the
    stop test sigma_min <= level * sigma_max with no SVD."""
    d = np.abs(np.diagonal(r))
    return bool(d.min() <= level * d.max())


def _can_reach(sy: np.ndarray, widest: int, level: float) -> bool:
    """Whether a sketch's singular values sy, decaying on past their last
    one as fast as over their second half, fall to level * sy[0] within
    widest columns.  Kernel spectra decay ever faster, so this projection
    errs towards growing the sketch."""
    half = len(sy) // 2
    slope = np.log(sy[-1] / sy[half]) / (len(sy) - 1 - half)
    return np.log(sy[-1] / sy[0]) + slope * (widest - len(sy)) <= np.log(level)


@functools.lru_cache(maxsize=8)  # (N, width) pairs: 1.2 MB each at N 1201, k 128
def _sketch(n: int, width: int) -> np.ndarray:
    """The (n, width) Gaussian test matrix: the (n, SKETCH_START) block and
    then the (n, SKETCH_STEP) blocks that a generator seeded with
    SKETCH_SEED draws in turn, side by side.  It depends on (n, width)
    alone, so it is drawn once and kept read-only."""
    rng = np.random.default_rng(SKETCH_SEED)
    steps = [SKETCH_START] + [SKETCH_STEP] * ((width - SKETCH_START) // SKETCH_STEP)
    omega = np.hstack([rng.standard_normal((n, k)) for k in steps])
    omega.flags.writeable = False
    return omega


def _sketch_solve(blocks, rhs: np.ndarray, rcond: float):
    """Truncated-SVD least squares with lstsq's cutoff rule for the square A
    that the band's blocks hold, through the randomized range finder of the
    module docstring (Halko, Martinsson & Tropp, SIAM Review 2011) or, for
    a near-full-rank A, lstsq itself on the dense A.

    Returns (solution, rank kept, sigma cutoff, factorization name).
    """
    n = rhs.size
    # the first sketch runs on any system at least twice its size; up to
    # N/3 columns the sketch beats a dense factorization (single-threaded
    # BLAS: k = 256 at N = 801 took 100 ms against lstsq's 180 ms), past
    # that it loses (k = 256 at N = 401: 58 ms against 24-32 ms)
    widest = max(n // 3, SKETCH_START if n >= 2 * SKETCH_START else 0)
    level = SKETCH_STOP * rcond
    for k in range(SKETCH_START, widest + 1, SKETCH_STEP):
        vt, tau, r = _householder(_band_product(blocks, _sketch(n, k)))
        sy = None if _diagonal_stops(r, level) else np.linalg.svd(r, compute_uv=False)
        if sy is None or sy[-1] <= level * sy[0]:
            q = _apply_q(vt, tau, np.eye(k))
            del vt  # the sketch's reflectors are not kept through the next QR
            # SVD of the wide q^T a through the QR of its transpose: with
            # (q^T a)^T = qb rb and rb^T = u diag(s) wt, the right singular
            # vectors are qb wt^T, and qb is applied to a k-vector only
            vt, tau, rb = _householder(_band_product(blocks, q, transpose=True))
            ub, s, wt = np.linalg.svd(rb.T)
            cutoff = rcond * s[0]
            keep = s > cutoff
            coef = wt[keep].T @ ((ub[:, keep].T @ (q.T @ rhs)) / s[keep])
            return (_apply_q(vt, tau, coef), int(keep.sum()), cutoff,
                    f"randomized sketch k={k}")
        if not _can_reach(sy, widest, level):
            break
    sol, _, rank, s = np.linalg.lstsq(_dense(blocks, n), rhs, rcond=rcond)
    return sol, int(rank), rcond * s[0], "lstsq"


def _inverse_sampled(u: SampledDensity, plan: KernelContext) -> SampledDensity:
    if plan.t < plan.s:
        raise KernelValidityError(
            f"the sampled inverse solves the forward quadrature system, so it takes "
            f"the forward plan the samples were evolved along (s < t), not a backward "
            f"one (t - s = {plan.t - plan.s:.6g}); samples move forward by "
            "evolve_quadrature along plan.reversed()")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sigma, why = float(input_width(plan)[0]), ""
        except np.linalg.LinAlgError:  # singular dd: the kernel is flat in y
            sigma, why = np.inf, " (dd is singular)"
    span = (u.values.shape[0] - 1) * float(u.dx[0])
    if not sigma <= span:
        raise IllPosedInverseError(
            f"sampled inverse over |t - s| = {abs(plan.t - plan.s):.6g}: the kernel's "
            f"input width sigma_0 = {sigma:.3g}{why} exceeds the grid's span {span:.6g} "
            "along its first axis, so every sample averages over the whole grid; the "
            "forward flow has forgotten the initial data")
    blocks = forward_quadrature_matrix(u, plan)
    rhs = u.values.ravel()
    sol, rank, cutoff, how = _sketch_solve(blocks, rhs, INVERSE_RCOND)
    resid = float(np.max(np.abs(_band_product(blocks, sol) - rhs)))
    limit = 1e-6 * max(1.0, float(np.max(np.abs(rhs))))
    if resid > limit:
        raise IllPosedInverseError(
            f"no initial data on this grid reproduces the samples "
            f"(forward residual {resid:.3e} > {limit:.1e}; rank {rank} of "
            f"{rhs.size} kept above the sigma cutoff {cutoff:.3e} = rcond "
            f"{INVERSE_RCOND:.1e} x sigma_max, factorization {how}); backward "
            "diffusion amplifies content the forward flow cannot produce"
        )
    return SampledDensity(u.x_min.copy(), u.dx.copy(),
                          sol.reshape(u.values.shape))


def inverse_evolve(u: GaussianMixture | SampledDensity, plan: KernelContext):
    """Left inverse of the evolution operator: recovers the initial data.

    Analytic pathway: exact backward block algebra on all components at
    once, along ``plan.reversed()``.
    Sampled pathway: truncated-SVD solve of the forward quadrature system
    (the literal backward-kernel integral diverges for forward images);
    singular values at or below INVERSE_RCOND * sigma_max are dropped.
    """
    _require_same_dim(u, plan)
    if plan.t == plan.s:
        return u.copy()
    solve = _inverse_sampled if isinstance(u, SampledDensity) else _inverse_analytic
    return solve(u, plan)
