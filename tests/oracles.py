"""Independent oracles for the test suite.

Everything here is built from scratch, on scipy's adaptive Gauss-Kronrod
integrator and its own Gaussian evaluator or on mpmath's arbitrary-precision
arithmetic, so it shares no code with the package paths it checks.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate


def gauss_amp(p, center: float, sigma: float):
    """Normalized real Gaussian amplitude, std sigma."""
    return (2.0 * math.pi * sigma**2) ** (-0.25) * np.exp(-((p - center) ** 2) / (4.0 * sigma**2))


def effective_kick(alpha: float, beta: float, delta_a: float, delta_b: float) -> float:
    """The paper's first-order kick for real amplitudes and its postselection."""
    return delta_b - alpha * (delta_a - delta_b) / (beta - alpha)


def _quad(f, lo: float, hi: float) -> float:
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def quad_complex(f, lo: float, hi: float) -> complex:
    re = _quad(lambda p: f(p).real if np.iscomplexobj(f(p)) else float(np.real(f(p))), lo, hi)
    im = _quad(lambda p: float(np.imag(f(p))), lo, hi)
    return complex(re, im)


def overlap_oracle(c1: float, c2: float, sigma: float) -> float:
    """<gauss(c1)|gauss(c2)> by adaptive quadrature."""
    lo = min(c1, c2) - 14 * sigma
    hi = max(c1, c2) + 14 * sigma
    return _quad(lambda p: gauss_amp(p, c1, sigma) * gauss_amp(p, c2, sigma), lo, hi)


def superposition_stats(
    coeffs: list[complex],
    centers: list[float],
    sigma: float = 1.0,
) -> tuple[float, float, float]:
    """(norm^2, mean, std) of sum_i c_i gauss(center_i) by adaptive quadrature."""
    lo = min(centers) - 14 * sigma
    hi = max(centers) + 14 * sigma

    def density(p):
        amp = sum(c * gauss_amp(p, x0, sigma) for c, x0 in zip(coeffs, centers))
        return abs(amp) ** 2

    norm2 = _quad(density, lo, hi)
    mean = _quad(lambda p: p * density(p), lo, hi) / norm2
    second = _quad(lambda p: p * p * density(p), lo, hi) / norm2
    return norm2, mean, math.sqrt(second - mean * mean)


def _two_gaussian_moments_mp(wa, wb, da, db, s):
    """The raw moments (m0, m1, m2) of wa g(p - da) + wb g(p - db), mpmath numbers in and out.

    g_a^2 and g_b^2 are normal densities at da and db, and g_a g_b is
    exp(-(da - db)^2 / (8 s^2)) times the normal density at their midpoint, all
    of variance s^2; the moments are summed term by term.
    """
    mid = (da + db) / 2
    cross = 2 * mpmath.re(mpmath.conj(wa) * wb) * mpmath.exp(-((da - db) ** 2) / (8 * s * s))
    terms = [(abs(wa) ** 2, da), (abs(wb) ** 2, db), (cross, mid)]
    return (mpmath.fsum(w for w, _ in terms), mpmath.fsum(w * c for w, c in terms),
            mpmath.fsum(w * (s * s + c * c) for w, c in terms))


def two_gaussian_stats_mp(
    w_a: complex,
    w_b: complex,
    d_a: float,
    d_b: float,
    sigma: float,
    dps: int = 50,
) -> tuple[float, float, float]:
    """(norm^2, mean, std) of w_a g(p - d_a) + w_b g(p - d_b) at `dps` digits.

    g is the normalized Gaussian amplitude of std sigma.  The float inputs are
    taken at their exact binary values.  At 50 digits the cancellation in the
    moment sums costs nothing at the probabilities the tests reach.
    """
    with mpmath.workdps(dps):
        wa = mpmath.mpc(complex(w_a).real, complex(w_a).imag)
        wb = mpmath.mpc(complex(w_b).real, complex(w_b).imag)
        m0, m1, m2 = _two_gaussian_moments_mp(wa, wb, mpmath.mpf(d_a), mpmath.mpf(d_b),
                                              mpmath.mpf(sigma))
        mean = m1 / m0
        return float(m0), float(mean), float(mpmath.sqrt(m2 / m0 - mean * mean))


def first_order_slope_mp(
    pre: tuple[complex, complex],
    post: tuple[complex, complex],
    phases: tuple[float, float],
    d_a: float,
    d_b: float,
    sigma: float = 1.0,
    dps: int = 50,
) -> float:
    """d(exact mean)/d lambda at lambda = 0, for kicks lambda (d_a, d_b), at `dps` digits.

    The branch weights conj(post_X) pre_X e^{i phi_X} are formed here from the
    amplitudes and phases, `post` normalised; the mean of the postselected
    probe, a Gaussian of std sigma centred at 0, is differentiated by mpmath.
    """
    with mpmath.workdps(dps):
        pre_mp = [mpmath.mpc(complex(a).real, complex(a).imag) for a in pre]
        post_mp = [mpmath.mpc(complex(a).real, complex(a).imag) for a in post]
        norm = mpmath.sqrt(sum(abs(a) ** 2 for a in post_mp))
        wa, wb = (mpmath.conj(q / norm) * p * mpmath.expj(mpmath.mpf(phi))
                  for p, q, phi in zip(pre_mp, post_mp, phases))
        da, db, s = mpmath.mpf(d_a), mpmath.mpf(d_b), mpmath.mpf(sigma)

        def mean(lam):
            m0, m1, _ = _two_gaussian_moments_mp(wa, wb, lam * da, lam * db, s)
            return m1 / m0

        return float(mpmath.diff(mean, 0))
