"""Evolution operator of the mean-coupled equation and its left inverse.

A plan is a directed ``KernelContext``: the matriciant from s to t and the
moment-frame anchors x_start and x_end at both ends, computed up front
from the input's initial moment; kernels and packet propagation consume
it read-only.  Gaussian mixtures evolve in closed form; sampled densities
go through trapezoid quadrature of the kernel.  A field and a plan of
different dimensions raise InputError.

The quadrature takes one cache-sized block of kernel rows at a time, so
it never holds an N x N array.  On the uniform grid the exponent is a
quadratic in the input node's index along every axis: with the input
nodes split into tiles of B_0 x ... x B_{d-1} nodes y_b + sum_a m_a step_a
around each tile's centre node y_b, m_a in [-B_a/2, B_a/2), with
v_a = dx_a dd[:, a] the transported step along axis a and C the exponent
matrix, exactly

    e(x, y_b + sum_a m_a step_a) = e(x, y_b) - 2 sum_a m_a g_a(x)
                                   + 2 sum_a m_a h_a(b) + m^T q m,
    g_a = xc^T C v_a,  h_a = yc_b^T C v_a,  q_ab = v_a^T C v_b,

with xc and yc the centred points of kernels.kernel_features.

So a block of rows is rowsum(P o (Q @ (R o W)^T)): P = exp(e(x, y_b)) is
exp_product over the tile centres only, Q = exp(sum_a m_a G_a(x)) has one
row per output node, R = exp(2 sum_a m_a h_a + m^T q m) one row per tile,
and W holds the weighted samples, zero-padded to whole tiles (so a
partial last tile's centre may lie past the grid).  The features are
centred on the output grid's centre, where g vanishes: G_a = -2 g_a, and
each table's exponent is one product with the features or the offsets.
With T = prod B_a nodes a tile,
that is N^2 / T + N T exponentials and one GEMM in place of N^2, and the
kernel features of N / T tile centres in place of N input nodes: the
exact-algebra relative of the fast Gauss transform (Greengard & Strain,
SIAM J. Sci. Stat. Comput. 12, 1991), with no truncated series.  The tile
has powers of two B_a up to each axis' length, and the most nodes
T <= RUN_MAX for which the largest |exponent| of Q plus that of R stays
within TABLE_EXPONENT, so neither table overflows or turns subnormal, and
the entries that P's underflow flush drops are below
tiny * e^TABLE_EXPONENT (about 1.4e-280).  Both exponents are affine in
the node (g in the output node, h in the tile's index), so their bounds
come from the grids' corners, for every candidate tile at once, by one
product with a table of the grid's shape and with no feature pass.  A
kernel only a few grid steps wide leaves only the
tile of one node, the plain loop: P over every input node times W.  One
plan_for + evolve_quadrature on the quad_forward benchmark's seed-3
inputs, one core of a Xeon with one BLAS thread, in ms, the fastest of
15 passes over 12 inputs a class (CHANGES.md has the earlier layouts'
columns), and the tile each class takes:

    grid      ms     tile
    1201     0.65    64
    1801     0.96    64
    2401     1.23    64
    31^2     0.62    (4, 4) to (8, 8)
    45^2     1.16    (8, 4) and (8, 8)

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
grid).  The band is also where the sampled inverse refuses a flow that
has forgotten the initial data: a kernel whose input width sigma_0
exceeds the grid's span along the first axis, or a singular dd, averages
every sample over the whole grid, and _band raises IllPosedInverseError
naming |t - s|, sigma_0 and the span before any entry is filled.

The sketch's dense algebra is paid once where it can be.  The Gaussian
test matrix depends on (N, width) alone, so it is drawn once and kept,
read-only, in a small memo, and a grown sketch keeps the columns of
A Omega it has: only the SKETCH_STEP new ones go through the band.  Both
N x k matrices, the sketch and B^T below, are factored by LAPACK's
recursive blocked QR, dgeqrt (Elmroth & Gustavson, IBM J. Res. Dev. 44,
2000), in blocks of QR_BLOCK reflectors, on column-major copies that it
overwrites in place.  On one BLAS thread one 128-column QR takes 0.71,
1.46 and 2.41 ms at N = 401, 801 and 1201, against 1.46, 2.96 and 4.83
ms for numpy's geqrf path.  _basis forms the sketch's Q by applying its
block reflectors to the first k columns of I (dgemqrt).  One
inverse_evolve on the grids above, one core of a Xeon with one BLAS
thread, the median of 41 calls interleaved in one process, in ms (the
narrow kernel at diffusion 0.15 grows to k = 256):

    N                       ms
    401                    8.6
    801                   14.6
    1201                  23.7
    1201, diffusion 0.15  65.3

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
where it does not is the SVD of R taken.  Once the sketch stops, B = Q^T A
is solved through R_b alone, the triangular factor of B^T = Q_b R_b, and
the k x k SVD R_b = W S U^T: the truncated solution is
B^T U S^-2 U^T Q^T rhs over the kept singular values.  A near-full-rank
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
import math
from itertools import product

import numpy as np
from scipy.linalg import lapack

from .errors import (IllPosedInverseError, InvalidCovarianceError, KernelValidityError,
                     NormalizationError, TruncationError)
from .kernels import (KernelContext, _require_field, exp_product, input_width,
                      kernel_context, kernel_features)
from .model import ModelParams, SampledDensity, _vector, row_blocks
from .packets import GaussianMixture, _require_density, propagate_packet
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
# most nodes a tile holds, all served by the one base column of its
# centre node, and the bound on the exponents of its offset tables
# (module docstring)
RUN_MAX = 64
TABLE_EXPONENT = 64.0
# the sampled inverse's band (module docstring): entries whose exponent lies
# below -BAND_EXPONENT, under e^-40 = 4.2e-18 of the kernel's peak and 26
# times below half an ulp of the largest entry, stay 0; each column window
# serves a block of at most BAND_ROWS rows
BAND_EXPONENT = 40.0
BAND_ROWS = 64
# columns per block reflector of the sketch's QR and of B^T's (dgeqrt's nb),
# the fastest or near it at N 401, 801 and 1201 on one BLAS thread
QR_BLOCK = 32


def plan_for(params: ModelParams, s: float, t: float,
             initial: GaussianMixture | SampledDensity,
             moment_override=None) -> KernelContext:
    """Build a plan from the initial data's first moment (or an override).

    The trajectory must exist before any kernel evaluation; for zero-mass
    fields the moment is not defined by the data (DegenerateMomentError)
    and the override is mandatory.
    """
    _require_field(initial, (GaussianMixture, SampledDensity), "plan_for")
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
    trajectory; a raw field (require_normalized=False) may carry any mass.
    A backward plan (t < s) whose image is not a density raises
    InvalidCovarianceError."""
    _require_field(mix, (GaussianMixture,), "evolve_analytic", plan)
    if require_normalized:
        _check_mass(mix.total_mass(), MASS_TOL_ANALYTIC)
    if plan.t == plan.s:
        return mix.copy()
    return _require_density(propagate_packet(mix, plan), plan)


@functools.lru_cache(maxsize=64)
def _offsets(tile: tuple[int, ...]) -> np.ndarray:
    """The offsets m of a tile's nodes from its centre node, in C order, as
    a read-only (d, T) array: m_a in [-B_a/2, B_a/2)."""
    box = np.meshgrid(*[np.arange(b) - b // 2 for b in tile], indexing="ij")
    offsets = np.stack([m.ravel() for m in box]).astype(float)
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=64)
def _tiling(shape: tuple[int, ...], tile: tuple[int, ...]) -> tuple:
    """What splitting a grid of this shape into tiles of this shape fixes,
    read-only: (counts, tile, centre, offsets, squares, index).  The base
    grid's node counts ceil(n_a / B_a); the tile and its centre node's
    index B_a // 2 as arrays; the offsets m (_offsets) and their products
    m_a m_b as a (d^2, T) array, so that vec(q) @ squares is m^T q m at
    every offset; and the flat index into the grid's values of every node
    of every tile, an (n_base, T) array whose row b holds tile b, tiles
    and their nodes each in C order, with N (one past the last node) where
    a partial last tile runs past the grid."""
    counts = tuple(-(-n // b) for n, b in zip(shape, tile))
    offsets = _offsets(tile)
    squares = (offsets[:, None] * offsets).reshape(len(tile) ** 2, -1)
    padded = np.full([k * b for k, b in zip(counts, tile)], math.prod(shape))
    padded[tuple(slice(n) for n in shape)] = np.arange(math.prod(shape)).reshape(shape)
    order = list(range(0, 2 * len(shape), 2)) + list(range(1, 2 * len(shape), 2))
    index = (padded.reshape([x for k, b in zip(counts, tile) for x in (k, b)])
             .transpose(order).reshape(math.prod(counts), math.prod(tile)))
    tables = (np.array(tile), np.array(tile) // 2, offsets, squares, index)
    for table in tables:
        table.flags.writeable = False
    return (counts,) + tables


@functools.lru_cache(maxsize=16)
def _tilings(shape: tuple[int, ...]):
    """The candidate tiles of a grid of this shape, for _tile: every
    (B_0, ..., B_{d-1}) of powers of two B_a up to the axis' length with
    T = prod B_a at most RUN_MAX.  (tiles, rank, extent, terms, starts):
    the tiles; their rank, lower for more nodes T and then for fewer base
    nodes prod ceil(n_a / B_a); the grid's extent n_a - 1 in steps; and as
    columns, two segments a tile from its entries of starts on, the
    coefficients that give every corner exponent of its tables as one
    product with vec([diag(span) C V; w^T C V; q]) (_tile).  The output
    table's segment holds m_b s_a at each corner m of the offset box and
    each corner s of the output grid (s_0 = 1: the other half only flips
    the sign); the base table's holds [2 m, m_i (2 k_j + m_j)] at each
    corner k (a node index) of the tile's base grid and each of its offsets
    m.  Integer data of the shape alone, built once per shape and kept
    read-only."""
    dim = len(shape)
    tiles = np.array(list(product(*[1 << np.arange(min(RUN_MAX, n).bit_length())
                                    for n in shape])))
    tiles = tiles[tiles.prod(axis=1) <= RUN_MAX]
    counts = -(-np.array(shape) // tiles)
    bases = counts.prod(axis=1)
    rank = bases - tiles.prod(axis=1) * (bases.max() + 1)  # most nodes, then fewest bases
    signs = np.array(list(product((False, True), repeat=dim)))
    out_signs = np.array(list(product((1.0,), *[(1.0, -1.0)] * (dim - 1))))
    segments = []
    for tile, count in zip(tiles, counts):
        corners = np.where(signs, tile - 1 - tile // 2, -(tile // 2))
        out = (out_signs[None, :, :, None] * corners[:, None, None, :]).reshape(-1, dim * dim)
        segments.append(np.concatenate([out, np.zeros((len(out), dim + dim * dim))], axis=1))
        base_corners = np.where(signs, (count - 1) * tile + tile // 2, tile // 2)
        m = np.broadcast_to(_offsets(tuple(tile.tolist())).T,
                            (len(base_corners), tile.prod(), dim))
        square = m[..., :, None] * (2 * base_corners[:, None, :, None] + m[..., None, :])
        base = np.concatenate([2 * m, square.reshape(m.shape[:2] + (-1,))], axis=-1)
        segments.append(np.concatenate([np.zeros((base.shape[0] * base.shape[1], dim * dim)),
                                        base.reshape(-1, dim + dim * dim)], axis=1))
    starts = np.cumsum([0] + [len(t) for t in segments[:-1]])
    tables = (tiles, rank, np.array(shape) - 1.0,
              np.concatenate(segments).T.copy(), starts)
    for table in tables:
        table.flags.writeable = False
    return tables


def _tile(plan: KernelContext, gamma: SampledDensity, v: np.ndarray,
          cv: np.ndarray) -> tuple[int, ...]:
    """The tile of the factored quadrature (module docstring): among the
    candidates of _tilings whose offset tables keep every exponent within
    TABLE_EXPONENT, the one with the most nodes T, then the fewest base
    nodes, then the smallest table exponent; all ones, the untiled loop,
    where no other does.  v holds the transported grid steps v_a as
    columns and cv is C v.

    The output table's exponent m.g(x) = 2 m^T V^T C (xp - centre) is
    bilinear in the output node and the offset, and the base table's
    2 m.h(b) + m^T q m, with h(b) = V^T C (yp_b - centre), is affine in the
    base node's index (2 h steps by 2 q per node), so each is largest in
    magnitude at corners: of the output grid and the offset box, and of the
    base grid over every offset.  Both are linear in the rows of
    [diag(span) C V; w^T C V; q], with span the grid's extent per axis and
    w = yp_0 - centre at its first node, so all candidates are checked at
    once by one product, from the plan and the grid alone: no kernel
    features."""
    tiles, rank, extent, terms, starts = _tilings(gamma.values.shape)
    n = gamma.dim
    span = gamma.dx * extent
    coef = np.empty((2 * n + 1, n))
    np.multiply(span[:, None], cv, out=coef[:n])
    # w: the first node, transported and anchored, less the output grid's
    # anchored centre
    w = np.dot(plan.m.dd, gamma.x_min - plan.x_start) - (gamma.x_min + 0.5 * span - plan.x_end)
    np.dot(w, cv, out=coef[n])
    np.dot(v.T, cv, out=coef[n + 1:])
    most = np.maximum.reduceat(np.abs(np.dot(coef.ravel(), terms)), starts)
    bound = most[::2] + most[1::2]
    return tuple(tiles[np.lexsort((bound, rank, bound > TABLE_EXPONENT))[0]].tolist())


def evolve_quadrature(gamma: SampledDensity, plan: KernelContext) -> SampledDensity:
    """Trapezoid quadrature of the evolution kernel on the input grid, one
    cache-sized row block at a time: no N x N array is held.  Over tiles of
    T nodes a block is rowsum(P o (Q @ (R o W)^T)), with P the kernel over
    the tiles' centres and Q, R the offset tables of the module docstring;
    a tile of one node is P @ W over every input node."""
    _require_field(gamma, (SampledDensity,), "evolve_quadrature", plan)
    edge = gamma.edge_max()
    if edge > EDGE_DECAY_TOL:
        raise TruncationError(
            f"input does not decay at the grid edges (max edge value {edge:.3e})"
        )
    weighted = gamma.weights() * gamma.values  # the samples' one weighted product
    _check_mass(float(weighted.sum()), MASS_TOL_QUADRATURE)
    if plan.t == plan.s:
        return gamma.copy()
    pts = gamma.points()
    dim = gamma.dim
    v = plan.m.dd * gamma.dx  # column a: one grid step along axis a, transported
    cv = np.dot(plan.exponent, v)
    counts, tile, centre, m, squares, index = _tiling(gamma.values.shape,
                                                      _tile(plan, gamma, v, cv))
    size = len(index[0])
    # the base nodes, one at the centre of each tile: the whole grid for a
    # tile of one node, and a partial last tile's centre may lie past it
    base = SampledDensity.grid_nodes(gamma.x_min + gamma.dx * centre, gamma.dx * tile, counts)
    left, right = kernel_features(plan, pts, base)
    if size == 1:
        weighted = weighted.ravel()
    else:
        # the features are centred on the output grid's centre, where g
        # vanishes: the output table's exponents are left @ exps, -2 xc.(V m)
        exps = np.zeros((dim + 2, size))
        np.dot(v, -2.0 * m, out=exps[:dim])
        # the base table's, 2 h.m + m^T q m: right[:dim] holds -2 yc of the
        # base nodes, so 2 h = -(C V)^T right[:dim]
        cols = np.dot(np.dot(v.T, cv).ravel(), squares) - np.dot(right[:dim].T, np.dot(cv, m))
        # the weighted samples of each tile's nodes, 0 past the grid
        tiled = np.concatenate((weighted.ravel(), [0.0]))[index]
        weighted = np.multiply(np.exp(cols, out=cols), tiled, out=cols).T
    n_base = right.shape[1]
    out = np.empty(len(pts))
    # a block holds P, and with tiles also Q and Q @ (R o W)^T
    blocks = row_blocks(len(pts), n_base if size == 1 else 2 * n_base + size)
    most = max(b.stop - b.start for b in blocks)
    buf = np.empty((most, n_base))
    if size > 1:
        sums, tables = np.empty((most, n_base)), np.empty((most, size))
    for rows in blocks:
        count = rows.stop - rows.start
        block = exp_product(left[rows], right, out=buf[:count])
        if size == 1:
            np.matmul(block, weighted, out=out[rows])
        else:
            table = np.matmul(left[rows], exps, out=tables[:count])
            summed = np.matmul(np.exp(table, out=table), weighted, out=sums[:count])
            np.einsum("ij,ij->i", block, summed, out=out[rows])
    return SampledDensity(gamma.x_min.copy(), gamma.dx.copy(),
                          out.reshape(gamma.values.shape))


def _band(gamma: SampledDensity, plan: KernelContext) -> list[tuple[slice, slice]]:
    """(rows, cols) blocks that hold every entry of the quadrature matrix
    above e^-BAND_EXPONENT of the kernel's peak: near-equal blocks of about
    BAND_ROWS rows, each with the window of input nodes along the grid's
    first axis within sqrt(2 BAND_EXPONENT) sigma_0 of its rows' kernel
    centers, as whole inner lines of the flattened index and clipped to
    the grid; a block whose window misses the grid is left out.  This is
    where the sampled inverse refuses a flow that has forgotten its input:
    a singular dd, or a sigma_0 beyond the grid's span along its first
    axis, raises IllPosedInverseError."""
    n, n0 = gamma.values.size, gamma.values.shape[0]
    with np.errstate(over="ignore"):  # dd^-2 overflows to an infinite sigma_0
        try:
            back = plan.reversed()  # dd^-1, with the anchors swapped, kept on the plan
            sigma, why = float(input_width(plan)[0]), ""  # reads that same context
        except np.linalg.LinAlgError:  # singular dd: the kernel is flat in y
            sigma, why = np.inf, " (dd is singular)"
    span = (n0 - 1) * float(gamma.dx[0])
    if not sigma <= span:
        raise IllPosedInverseError(
            f"sampled inverse over |t - s| = {abs(plan.t - plan.s):.6g}: the kernel's "
            f"input width sigma_0 = {sigma:.3g}{why} exceeds the grid's span {span:.6g} "
            "along its first axis, so every sample averages over the whole grid; the "
            "forward flow has forgotten the initial data")
    n_blocks = -(-n // BAND_ROWS)
    bounds = np.arange(n_blocks + 1) * n // n_blocks
    centers = back.x_end[0] + (gamma.points() - back.x_start) @ back.m.dd[0]
    reach = np.sqrt(2.0 * BAND_EXPONENT) * sigma
    first = (np.minimum.reduceat(centers, bounds[:-1]) - reach - gamma.x_min[0]) / gamma.dx[0]
    last = (np.maximum.reduceat(centers, bounds[:-1]) + reach - gamma.x_min[0]) / gamma.dx[0]
    lo = np.clip(np.floor(first), 0, n0)
    hi = np.clip(np.ceil(last) + 1, lo, n0)
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
    left, right = kernel_features(plan, pts, pts)
    tiny = np.finfo(float).tiny
    blocks = []
    for rows, cols in _band(gamma, plan):
        block = exp_product(left[rows], right[:, cols])
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
    """Householder QR of the tall (N, k) y by LAPACK's recursive blocked
    dgeqrt (Elmroth & Gustavson, IBM J. Res. Dev. 44, 2000): (v, t, r),
    v the (N, k) factored array, its strictly lower part the reflectors'
    vectors (each with an implicit unit entry on the diagonal), t the
    upper triangular T factors of its blocks of QR_BLOCK reflectors side
    by side, and r the (k, k) R.  A column-major y is factored in place,
    with no copy, and becomes v; any other y is left as it is.  Q is
    formed by _basis only where it is needed."""
    v, t, _ = lapack.dgeqrt(min(QR_BLOCK, y.shape[1]), y, overwrite_a=True)
    return v, t, np.triu(v[:y.shape[1]])


def _basis(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The reduced (N, k) Q of _householder's reflectors: dgemqrt applies
    the block reflectors I - V_j T_j V_j^T in turn to the first k columns
    of I, column-major and in place."""
    n, k = v.shape
    return lapack.dgemqrt(v, t, np.eye(n, k, order="F"), overwrite_c=True)[0]


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
    # BLAS: k = 256 at N = 801 took 37-47 ms against lstsq's 159-166 ms),
    # past that it loses (k = 256 at N = 401: 26-27 ms against 19-20 ms)
    widest = max(n // 3, SKETCH_START if n >= 2 * SKETCH_START else 0)
    level = SKETCH_STOP * rcond
    sketched = []  # A Omega_k: SKETCH_START columns, then SKETCH_STEP at a time
    for k in range(SKETCH_START, widest + 1, SKETCH_STEP):
        # only the columns new at this width go through the band; the
        # leading ones are kept, with their bits, and the whole sketch is
        # laid out column-major for LAPACK to factor in place
        new = _sketch(n, k)[:, k - SKETCH_STEP if sketched else 0:]
        sketched.append(_band_product(blocks, new))
        v, t, r = _householder(np.concatenate(sketched, axis=1, out=np.empty((n, k), order="F")))
        sy = None if _diagonal_stops(r, level) else np.linalg.svd(r, compute_uv=False)
        if sy is None or sy[-1] <= level * sy[0]:
            q = _basis(v, t)
            del sketched, v  # the sketch and its reflectors are not kept through A^T q
            # with B = q^T A, B^T = qb rb and rb = w s u^T, B's truncated pseudo-
            # inverse is qb w s^-1 u^T = B^T u s^-2 u^T: rb is all it takes
            bt = _band_product(blocks, q, transpose=True)
            # bt is kept for the solution: LAPACK factors a column-major copy
            _, _, rb = _householder(np.asfortranarray(bt))
            _, s, ut = np.linalg.svd(rb)
            cutoff = rcond * s[0]
            keep = s > cutoff
            x = bt @ (ut[keep].T @ ((ut[keep] @ (q.T @ rhs)) / s[keep] ** 2))
            return x, int(keep.sum()), cutoff, f"randomized sketch k={k}"
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
    _require_field(u, (GaussianMixture, SampledDensity), "inverse_evolve", plan)
    if plan.t == plan.s:
        return u.copy()
    solve = _inverse_sampled if isinstance(u, SampledDensity) else _inverse_analytic
    return solve(u, plan)
