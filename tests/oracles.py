"""Independent routes kept out of the library: Gauss-Legendre integrals.

The library evaluates the quarter period, its slope derivative and the
swing period in closed form from one AGM.  These integral forms are the
second route the tests check them against.  The (1 - tau)^(-1/2) endpoint
singularity of the quarter-period integral is removed by tau = sin(phi),
which leaves smooth integrands on [0, pi/2] where composite Gauss-Legendre
converges at a spectral rate.
"""

import math

import numpy as np

from muskat.elliptic import beta_of_alpha
from muskat.quadrature import gauss_panels


def theta_gauss(lam, alpha, tol=1e-12):
    """sqrt(2/lam) int_0^(pi/2) g / sqrt(1 + g) dphi, g = b + (1 - b) sin^2 phi."""
    b = beta_of_alpha(alpha)

    def integrand(phi):
        g = b + (1.0 - b) * np.sin(phi) ** 2
        return g / np.sqrt(1.0 + g)

    return math.sqrt(2.0 / lam) * gauss_panels(integrand, 0.0, 0.5 * math.pi, tol=tol)


def dtheta_dalpha_gauss(lam, alpha, tol=1e-12):
    """d theta / d alpha under the integral sign, with d b / d alpha = -alpha b^3."""
    b = beta_of_alpha(alpha)

    def integrand(phi):
        c2 = np.cos(phi) ** 2
        g = b + (1.0 - b) * np.sin(phi) ** 2
        return c2 * (2.0 + g) / (2.0 * (1.0 + g) ** 1.5)

    part = gauss_panels(integrand, 0.0, 0.5 * math.pi, tol=tol)
    return math.sqrt(2.0 / lam) * (-alpha * b**3) * part


def swing_period_gauss(lam, alpha, tol=1e-12):
    """(2/sqrt(lam)) int_(-pi/2)^(pi/2) dt / sqrt(1 - k^2 sin^2 t), k = sin(arctan(alpha)/2)."""
    k2 = math.sin(0.5 * math.atan(alpha)) ** 2

    def integrand(t):
        return 1.0 / np.sqrt(1.0 - k2 * np.sin(t) ** 2)

    return (2.0 / math.sqrt(lam)) * gauss_panels(integrand, -0.5 * math.pi, 0.5 * math.pi, tol=tol)
