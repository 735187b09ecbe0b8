"""Continuum oracles computed apart from nqdot.

Every oracle is the square well of depth E_b* that the coarse-grained
medium tends to as the grid is refined: a finite spherical well for
spheres, a circular well for wires at k = 0 and a 1D well for films.
Bound levels are roots of the log-derivative matching condition in the
inside wavenumber q, with the outside decay kappa = sqrt(kappa*^2 - q^2).
Only material data (the composition sums of the nuclide table) comes from
the program; the physics is recomputed here from CODATA constants.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import constants as C
from scipy import integrate, optimize, special

# hbar^2 / 2 m_n in ueV nm^2, hbar / m_n in nm^2 / ms, hbar in ueV ms
HBAR2_2M = C.hbar**2 / (2 * C.m_n) / C.e * 1e6 * 1e18
HBAR_OVER_M = C.hbar / C.m_n * 1e18 / 1e3
HBAR_UEV_MS = C.hbar / C.e * 1e6 * 1e3

_LETTER = "spdfg"
_SAMPLES = 4000  # q-grid used to bracket the matching-condition roots


def bulk(sum_re_fm: float, sum_im_fm: float, cell_volume_A3: float) -> dict:
    """Closed-form bulk level: kappa* (1/nm), E_b* (ueV), T* (ms), E_b*T*."""
    omega = cell_volume_A3 * 1e-3
    kappa_star = math.sqrt(4 * math.pi * (-sum_re_fm * 1e-6) / omega)
    t_star = 1.0 / (4 * math.pi * HBAR_OVER_M * sum_im_fm * 1e-6 / omega)
    return {
        "kappa_star": kappa_star,
        "e_b_star": HBAR2_2M * kappa_star**2,
        "t_star": t_star,
        "ebt": HBAR_UEV_MS * (-sum_re_fm) / (2 * sum_im_fm),
    }


def _roots(match, kappa_star: float) -> list:
    """Outside decay constants kappa of every root of match(q, kappa),
    deepest (largest kappa) first."""
    qs = np.linspace(1e-9, 1.0 - 1e-9, _SAMPLES) * kappa_star
    f = lambda q: match(q, np.sqrt(kappa_star**2 - q * q))
    vals = f(qs)
    out = []
    for i in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
        q = optimize.brentq(f, qs[i], qs[i + 1], xtol=1e-15, rtol=1e-14)
        out.append(float(math.sqrt(kappa_star**2 - q * q)))
    return out


def sphere_levels(radius: float, kappa_star: float, ell_max: int = 4) -> list:
    """(label, ell, kappa) of every bound level of the finite spherical well,
    deepest first.  Matching j_l(qr) inside to k_l(kappa r) outside."""
    levels = []
    for ell in range(ell_max + 1):
        def match(q, kap, ell=ell):
            x, y = q * radius, kap * radius
            return q * special.spherical_jn(ell, x, derivative=True) * special.spherical_kn(
                ell, y
            ) - kap * special.spherical_kn(ell, y, derivative=True) * special.spherical_jn(ell, x)

        for n, kap in enumerate(_roots(match, kappa_star)):
            levels.append((f"{n + 1}{_LETTER[ell]}", ell, kap))
    return sorted(levels, key=lambda t: -t[2])


def sphere_state_labels(radius: float, kappa_star: float) -> list:
    """Per-state labels, each (n, l) level expanded to 2l + 1 states."""
    return [lab for lab, ell, _ in sphere_levels(radius, kappa_star) for _ in range(2 * ell + 1)]


def _sphere_radial(radius, kappa_star, ell, kap):
    """Normalized radial function R(r), with integral R^2 r^2 dr = 1."""
    q = math.sqrt(kappa_star**2 - kap**2)
    ratio = special.spherical_jn(ell, q * radius) / special.spherical_kn(ell, kap * radius)

    def raw(r):
        if r <= radius:
            return special.spherical_jn(ell, q * r)
        return ratio * special.spherical_kn(ell, kap * r)

    norm = integrate.quad(lambda r: (raw(r) * r) ** 2, 0, radius, epsabs=0, epsrel=1e-12)[0]
    norm += integrate.quad(lambda r: (raw(r) * r) ** 2, radius, np.inf, epsabs=0, epsrel=1e-12)[0]
    return lambda r: raw(r) / math.sqrt(norm)


def sphere_dipole_1s_1p(radius: float, kappa_star: float) -> float:
    """|d(1s -> 1p)| in nm, summed in quadrature over the 1p triple:
    the radial integral of R_1s R_1p r^3 over all space."""
    kap = {lab: k for lab, _, k in sphere_levels(radius, kappa_star, ell_max=1)}
    r_s = _sphere_radial(radius, kappa_star, 0, kap["1s"])
    r_p = _sphere_radial(radius, kappa_star, 1, kap["1p"])
    f = lambda r: r_s(r) * r_p(r) * r**3
    d = integrate.quad(f, 0, radius, epsabs=0, epsrel=1e-12)[0]
    d += integrate.quad(f, radius, np.inf, epsabs=0, epsrel=1e-12)[0]
    return abs(d)


def disk_levels(radius: float, kappa_star: float, m_max: int = 4) -> list:
    """(m, kappa) of every k = 0 level of the circular well, deepest first.
    An m > 0 level holds two states (cos and sin)."""
    levels = []
    for m in range(m_max + 1):
        def match(q, kap, m=m):
            x, y = q * radius, kap * radius
            return q * special.jvp(m, x) * special.kve(m, y) - kap * special.kvp(
                m, y
            ) * np.exp(y) * special.jv(m, x)

        levels += [(m, kap) for kap in _roots(match, kappa_star)]
    return sorted(levels, key=lambda t: -t[1])


def slab_levels(thickness: float, kappa_star: float) -> list:
    """kappa of every level of the 1D well of width `thickness`, deepest first."""
    a = thickness / 2
    even = lambda q, kap: q * np.sin(q * a) - kap * np.cos(q * a)
    odd = lambda q, kap: q * np.cos(q * a) + kap * np.sin(q * a)
    return sorted(_roots(even, kappa_star) + _roots(odd, kappa_star), reverse=True)
