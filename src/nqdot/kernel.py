"""Screened-Coulomb (Yukawa) kernel K(kappa): every evaluation, aperiodic and periodic.

The kernel between sites i and j is

    K_ij = sum_L exp(i k.L) exp(-kappa |r_ij + L|) / |r_ij + L|

over the periodic image lattice L (L = 0 excluded on the diagonal only; the
aperiodic case has no images and a zero diagonal).  Direct image summation
needs ~ln(1/tol)/(kappa p) shells and becomes hopeless for kappa*p ~ 1e-3,
so the production paths resum analytically:

  * slab (two periodic axes): Ewald split of exp(-kappa r)/r into a
    Gaussian-screened real-space part and a reciprocal part whose 2D
    transform at height z is closed-form; the on-site image sum subtracts
    the smooth self-term in closed form.
  * wire (one periodic axis): 1D Poisson resummation into a Bessel-K0
    series over reciprocal points, with the exact logarithm closed form on
    the diagonal; pairs too close to the periodic axis of a source fall
    back to direct summation.

Both take the (M, N, 3) displacements kernel_block forms once and are
cross-validated against the direct sum in the test suite.  All matrices are
Hermitian; with sources on a single transverse layer (wire) or a single
column (slab) they are real symmetric for every k.  On a sphere or a
one-layer wire (Grid.lattice) K is a table f(m) of the squared integer
distance per kappa and k (_lattice_kernel), which the solver folds into O_h
or C4v blocks; on a sphere K @ v is one FFT convolution (_lattice_apply).
Films and hand-built grids are assembled whole (assemble_kernel).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import erfc, erfcx, k0e

from .errors import EvalTooCloseToSource, UnboundedImageSet
from .geometry import Grid, periodic_displacements

_SPECTRAL_TOL = 1e-13  # relative truncation target for resummed series
_HERMITIAN_EPS = 1e-12


# ---------------------------------------------------------------------------
# Ewald ingredients for the Yukawa potential
# ---------------------------------------------------------------------------


def yukawa_short(r: np.ndarray, kappa: float, eta: float) -> np.ndarray:
    """Gaussian-screened near part of exp(-kappa r)/r.

    phi1(r) = [e^{-kr} erfc(eta r - k/2eta) + e^{+kr} erfc(eta r + k/2eta)]/(2r)

    evaluated in overflow-safe form via the scaled complement erfcx:
    e^{+-kr} erfc(x) = erfcx(x) exp(-eta^2 r^2 - k^2/4eta^2) whenever x >= 0.
    """
    r = np.asarray(r, dtype=float)
    c = kappa / (2.0 * eta)
    gauss = np.exp(-(eta * r) ** 2 - c * c)
    a = eta * r - c
    term_minus = np.where(
        a >= 0.0,
        erfcx(np.maximum(a, 0.0)) * gauss,
        np.exp(-kappa * r) * erfc(a),
    )
    term_plus = erfcx(eta * r + c) * gauss
    return (term_minus + term_plus) / (2.0 * r)


def yukawa_long_at_zero(kappa: float, eta: float) -> float:
    """Smooth (long-range) part of exp(-kappa r)/r evaluated at r -> 0."""
    c = kappa / (2.0 * eta)
    return 2.0 * eta / math.sqrt(math.pi) * math.exp(-c * c) - kappa * erfc(c)


def _recip_profile(beta: np.ndarray, z: np.ndarray, eta: float) -> np.ndarray:
    """2D-transformed long-range part at transverse wavenumber beta, height z.

    g(beta, z) = (pi/beta)[e^{beta z} erfc(eta z + beta/2eta)
                           + e^{-beta z} erfc(-eta z + beta/2eta)],  z = |z|.
    """
    z = np.abs(z)
    hb = beta / (2.0 * eta)
    gauss = np.exp(-(eta * z) ** 2 - hb * hb)
    t_plus = erfcx(eta * z + hb) * gauss
    a = -eta * z + hb
    t_minus = np.where(
        a >= 0.0,
        erfcx(np.maximum(a, 0.0)) * gauss,
        np.exp(-beta * z) * erfc(a),
    )
    return math.pi / beta * (t_plus + t_minus)


def _slab_recip_vectors(period: float, k2: np.ndarray, eta: float, kappa: float):
    """Shifted reciprocal vectors G - k (2D) within the erfc cutoff."""
    # erfc(beta/2eta) < 1e-14 for beta/2eta > 5.6
    beta_cap = 11.2 * eta
    g_cap = beta_cap + float(np.hypot(*k2))
    m_max = int(math.ceil(g_cap * period / (2.0 * math.pi))) + 1
    g0 = 2.0 * math.pi / period
    mm = np.arange(-m_max, m_max + 1)
    gx, gy = np.meshgrid(mm * g0, mm * g0, indexing="ij")
    qx = (gx - k2[0]).ravel()
    qy = (gy - k2[1]).ravel()
    keep = np.hypot(qx, qy) <= beta_cap + 2.0 * g0
    return qx[keep], qy[keep]


def _slab_real_images(period: float, eta: float):
    """Real-space image shifts within the Gaussian cutoff."""
    # phi1 terms ~ exp(-(eta L)^2): negligible past eta L ~ 6
    n_max = int(math.ceil(6.0 / (eta * period))) + 1
    mm = np.arange(-n_max, n_max + 1)
    lx, ly = np.meshgrid(mm * period, mm * period, indexing="ij")
    return lx.ravel(), ly.ravel()


def slab_kernel_block(
    d: np.ndarray,
    kappa: float,
    periods: tuple,
    bloch_k2: np.ndarray,
    exclude_self_image: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Yukawa lattice sum for a 2D-periodic (x, y) system, Ewald form, at
    the (M, N, 3) displacements d, target minus source.

    exclude_self_image: boolean (M, N) mask of pairs whose L = 0 term must
    be dropped (diagonal entries of a square kernel).  Those pairs must have
    exactly zero displacement; the smooth self-term is subtracted in closed
    form there.
    """
    p1, p2 = periods
    if abs(p1 - p2) > 1e-12 * max(p1, p2):
        raise ValueError("anisotropic in-plane periods are not supported")
    period = p1
    eta = math.sqrt(math.pi) / period

    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]

    lx, ly = _slab_real_images(period, eta)
    rx = dx[..., None] + lx
    ry = dy[..., None] + ly
    rr = np.sqrt(rx * rx + ry * ry + dz[..., None] ** 2)

    # only self pairs reach r = 0: kernel_block keeps every other pair
    # a0/10 clear of every image
    zero_r = rr < 1e-12 * period
    rr_safe = np.where(zero_r, 1.0, rr)
    phi1 = yukawa_short(rr_safe, kappa, eta)
    phi1 = np.where(zero_r, 0.0, phi1)

    phase = np.exp(1j * (bloch_k2[0] * lx + bloch_k2[1] * ly))
    real_part = np.einsum("mnl,l->mn", phi1, phase)

    qx, qy = _slab_recip_vectors(period, bloch_k2, eta, kappa)
    beta = np.sqrt(kappa * kappa + qx * qx + qy * qy)
    area = period * period
    # g profile depends on (beta, z); z values repeat along columns of a
    # square kernel, but keep it general and vectorize over pairs x G.
    g = _recip_profile(beta[None, None, :], dz[..., None], eta)
    if np.any(dx) or np.any(dy):  # else a column of sources: every phase is exactly 1
        g = g * np.exp(1j * (qx * dx[..., None] + qy * dy[..., None]))
    recip = g.sum(axis=-1) / area

    out = real_part + recip
    if exclude_self_image is not None:
        out = out - np.where(exclude_self_image, yukawa_long_at_zero(kappa, eta), 0.0)
    return out


def wire_kernel_block(
    d: np.ndarray,
    kappa: float,
    period: float,
    bloch_k: float,
    axis: int = 2,
    exclude_self_image: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Yukawa lattice sum for a 1D-periodic system via the K0 resummation,
    at the (M, N, 3) displacements d, target minus source.

        S(rho, z) = (2/p) sum_m K0(rho beta_m) exp(i (G_m - k) z),
        beta_m = sqrt(kappa^2 + (G_m - k)^2),  G_m = 2 pi m / p.

    Valid for transverse distance rho > 0; pairs with tiny rho (a target on
    the source's periodic line) are redone by direct image summation, and
    exact-coincidence pairs (marked in exclude_self_image) use the closed
    form  -(2/p) Re ln(1 - e^{(ik - kappa) p}).
    """
    trans = [a for a in range(3) if a != axis]
    rho = np.hypot(d[..., trans[0]], d[..., trans[1]])
    dz = d[..., axis]

    rho_floor = period / (2.0 * math.pi)
    near_line = rho < rho_floor
    rho_safe = np.where(near_line, rho_floor, rho)

    ln_tol = -math.log(_SPECTRAL_TOL)
    # series length set by the closest pair actually evaluated spectrally
    # (near-line pairs are redone by direct summation below)
    spectral = ~near_line
    rho_min = float(rho[spectral].min()) if np.any(spectral) else rho_floor
    m_max = int(math.ceil((ln_tol / rho_min + abs(bloch_k)) * period / (2 * math.pi))) + 1
    g0 = 2.0 * math.pi / period
    q = np.arange(-m_max, m_max + 1) * g0 - bloch_k
    beta = np.sqrt(kappa * kappa + q * q)

    arg = rho_safe[..., None] * beta[None, None, :]
    k0_vals = k0e(arg) * np.exp(-arg)
    ph = np.exp(1j * q[None, None, :] * dz[..., None])
    out = (2.0 / period) * (k0_vals * ph).sum(axis=-1)

    coincident = np.zeros_like(near_line) if exclude_self_image is None else exclude_self_image
    if np.any(coincident):
        w = np.exp((1j * bloch_k - kappa) * period)
        diag = -(2.0 / period) * np.log(1.0 - w).real
        out = np.where(coincident, diag, out)

    redo = near_line & ~coincident
    if np.any(redo):
        idx = np.argwhere(redo)
        n_img = int(math.ceil(ln_tol / (kappa * period))) + 1
        n = np.arange(-n_img, n_img + 1)
        shifts = n * period
        for mi, ni in idx:
            dzk = dz[mi, ni] + shifts
            rr = np.hypot(rho[mi, ni], dzk)
            vals = np.exp(-kappa * rr) / rr
            out[mi, ni] = np.sum(vals * np.exp(1j * bloch_k * shifts))
    return out


# ---------------------------------------------------------------------------
# public assembly
# ---------------------------------------------------------------------------


def _bloch_vector(grid: Grid, kappa: float, bloch_k) -> np.ndarray:
    """bloch_k (None: k = 0) as a 3-vector zero off the periodic axes; kappa must be > 0."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    k = np.zeros(3)
    if bloch_k is None:
        return k
    bloch_k = np.asarray(bloch_k, dtype=float)
    if bloch_k.shape != (3,):
        raise ValueError("bloch_k must be a 3-vector")
    periodic = {axis for axis, _ in grid.periodic_axes}
    for axis in range(3):
        if axis not in periodic and abs(bloch_k[axis]) > 0:
            raise ValueError(
                f"bloch_k component on non-periodic axis {axis} must be zero"
            )
    return bloch_k


def _maybe_real(mat: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(mat):
        scale = np.max(np.abs(mat)) or 1.0
        if np.max(np.abs(mat.imag)) <= _HERMITIAN_EPS * scale:
            return np.ascontiguousarray(mat.real)
    return mat


def _require_clearance(r: np.ndarray, grid: Grid, self_mask) -> None:
    """Raise EvalTooCloseToSource for a pair closer than a0/10 that
    self_mask does not mark."""
    near = r < grid.spacing / 10.0
    if self_mask is not None:
        near &= ~self_mask
    if np.any(near):
        raise EvalTooCloseToSource(
            f"target {float(r[near].min()):.3g} nm from a source, below "
            f"a0/10 = {grid.spacing / 10:.3g} nm"
        )


def _image_sum(d: np.ndarray, grid: Grid, kappa: float, bloch_k, self_mask) -> np.ndarray:
    """The lattice sum of a periodic grid at the (M, N, 3) displacements d,
    target minus source, under kernel_block's near-source rule."""
    k = _bloch_vector(grid, kappa, bloch_k)
    # minimum-image distance, one axis at a time
    periods = dict(grid.periodic_axes)
    r2 = np.zeros(d.shape[:2])
    for axis in range(3):
        da = d[..., axis]
        if axis in periods:
            da = da - periods[axis] * np.round(da / periods[axis])
        r2 += da * da
    _require_clearance(np.sqrt(r2), grid, self_mask)
    if len(periods) == 1:
        (axis, period), = grid.periodic_axes
        return _maybe_real(wire_kernel_block(d, kappa, period, float(k[axis]), axis, self_mask))
    if tuple(periods) != (0, 1):
        raise ValueError("two periodic axes must be x and y")
    return _maybe_real(slab_kernel_block(d, kappa, tuple(periods.values()), k[:2], self_mask))


def kernel_block(
    targets: np.ndarray,
    grid: Grid,
    kappa: float,
    bloch_k=None,
    self_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Kernel values between arbitrary target points and the grid sources.

    One near-source rule on every grid: a (target, source) pair marked in
    self_mask is a site with itself and drops its L = 0 term (aperiodic:
    the entry is 0; periodic: the self-image sum).  Any other pair closer
    than a0/10, measured on periodic axes to the nearest image of the
    source, raises EvalTooCloseToSource.
    """
    sources = grid.points
    if grid.periodic_axes:
        return _image_sum(targets[:, None, :] - sources, grid, kappa, bloch_k, self_mask)
    _bloch_vector(grid, kappa, bloch_k)  # rejects kappa <= 0 and a nonzero k

    # |t - s|^2 via the Gram expansion: one GEMM instead of an (M, N, 3)
    # broadcast, worked in place so a block holds at most two (M, N)
    # arrays; the clip absorbs last-bit negatives.  Its rounding fuzz
    # (~1e-16 x |r|^2) sits far below the a0/10 clearance.
    gram2 = targets @ sources.T
    gram2 *= 2.0
    t2 = np.einsum("ij,ij->i", targets, targets)
    s2 = np.einsum("ij,ij->i", sources, sources)
    r = t2[:, None] + s2[None, :]
    r -= gram2
    del gram2
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    _require_clearance(r, grid, self_mask)
    if self_mask is not None:
        np.copyto(r, np.inf, where=self_mask)
    out = np.multiply(r, -kappa)
    np.exp(out, out=out)
    out /= r
    return out


def assemble_kernel(grid: Grid, kappa: float, bloch_k=None) -> np.ndarray:
    """Square Hermitian kernel over the grid sites.

    Aperiodic: K_ij = exp(-kappa r_ij)/r_ij off the diagonal, K_ii = 0.
    Periodic: image-resummed lattice kernel; the diagonal carries the
    physical self-image sum (all L != 0).  It is evaluated once per class
    of equal pair displacements (Grid.pair_classes) and gathered into
    N x N; the gathered matrix equals the pair-by-pair one bit for bit.
    """
    if grid.periodic_axes:
        index, disp, self_pair = grid.pair_classes
        mat = _image_sum(disp[:, None], grid, kappa, bloch_k, self_pair[:, None])[:, 0][index]
    else:
        mask = np.eye(grid.n_points, dtype=bool)
        mat = kernel_block(grid.points, grid, kappa, bloch_k, self_mask=mask)
    # enforce exact Hermiticity against last-bit asymmetries
    return 0.5 * (mat + mat.conj().T)


def _lattice_kernel(grid: Grid, kappa: float, m, bloch_k=None) -> np.ndarray:
    """K(kappa) between two sites of a lattice grid (Grid.lattice) at squared
    integer distance m, as in assemble_kernel.  Aperiodic: exp(-kappa a0 sqrt
    m) / (a0 sqrt m), f(0) = 0 (a site drops its own term).  A wire of one
    layer (m 1-D): the image sum at rho = a0 sqrt m, f(0) its self-image
    closed form, real and positive off m = 0 at any k (K0 > 0 terms, dz = 0)."""
    r = grid.spacing * np.sqrt(m)
    if grid.periodic_axes:
        d = np.zeros((len(r), 1, 3))
        d[:, 0, (grid.periodic_axes[0][0] + 1) % 3] = r
        return _image_sum(d, grid, kappa, bloch_k, (r == 0)[:, None])[:, 0]
    r[r == 0] = np.inf
    return np.exp(-kappa * r) / r


def _lattice_apply(grid: Grid, kappa: float, vecs, targets):
    """K(kappa) @ vecs at integer targets (in units of a0) of a lattice grid
    (Grid.lattice).  K depends only on the integer displacement there
    (_lattice_kernel), so K @ v is the linear convolution of v's site cube
    with the kernel cube, done by FFT.  Each axis is zero-padded to a fast
    length (next_fast_len) of at least the targets' plus the sites' extent
    less one, which keeps the wanted outputs free of wrap-around.  Columns,
    and the real and imaginary parts of a complex one, are transformed one
    at a time, so temporaries stay at a few cubes.  A periodic grid raises
    ValueError: its kernel is an image sum, not this convolution."""
    if grid.periodic_axes:
        raise ValueError("_lattice_apply convolves aperiodic lattice grids only")
    # imported here, off the cold start; a solve has loaded it with scipy.optimize
    from scipy.fft import next_fast_len

    sites = grid.lattice
    targets = np.asarray(targets, dtype=np.intp)
    s_lo, s_hi = sites.min(axis=0), sites.max(axis=0)
    t_lo, t_hi = targets.min(axis=0), targets.max(axis=0)
    n_disp = (t_hi - t_lo) + (s_hi - s_lo) + 1  # displacements t - s per axis
    shape = tuple(next_fast_len(int(n), real=True) for n in n_disp)
    axes = (0, 1, 2)
    d2 = [(np.arange(n) + lo) ** 2 for n, lo in zip(n_disp, t_lo - s_hi)]
    m = d2[0][:, None, None] + d2[1][:, None] + d2[2]
    kernel_ft = np.fft.rfftn(_lattice_kernel(grid, kappa, m), shape, axes=axes)
    del m
    at_sites = tuple((sites - s_lo).T)
    at_targets = tuple((targets - t_lo + (s_hi - s_lo)).T)
    cube = np.zeros(shape)

    def convolve(values):
        cube[at_sites] = values
        spectrum = np.fft.rfftn(cube, axes=axes)
        spectrum *= kernel_ft
        return np.fft.irfftn(spectrum, shape, axes=axes)[at_targets]

    cols = np.asarray(vecs).reshape(len(sites), -1)
    out = np.empty((len(targets), cols.shape[1]), dtype=np.result_type(cols, float))
    for j, col in enumerate(cols.T):
        out[:, j] = convolve(col.real)
        if np.iscomplexobj(col):
            out[:, j] += 1j * convolve(col.imag)
    return out.reshape((len(targets),) + np.shape(vecs)[1:])


def assemble_kernel_direct(
    grid: Grid, kappa: float, bloch_k=None, tol: float = 1e-12
) -> np.ndarray:
    """Reference direct-summation kernel (images enumerated term by term).

    Exponentially slow for kappa*period << 1; exists to cross-check the
    resummed production paths.
    """
    if kappa <= 0:
        raise UnboundedImageSet(f"kappa = {kappa:g} <= 0")
    k = _bloch_vector(grid, kappa, bloch_k)
    pts = grid.points
    d = pts[:, None, :] - pts
    r = np.sqrt((d * d).sum(axis=-1))
    np.fill_diagonal(r, np.inf)
    out = np.exp(-kappa * r) / r
    out = out.astype(complex)
    if grid.periodic_axes:
        for vec, _bound in periodic_displacements(grid, kappa, tol):
            shifted = d + vec
            rr = np.sqrt((shifted * shifted).sum(axis=-1))
            out += np.exp(1j * float(np.dot(k, vec))) * np.exp(-kappa * rr) / rr
    return _maybe_real(out)
