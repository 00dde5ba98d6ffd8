"""Independent routes and reference forms kept out of the library.

The library evaluates the quarter period, its slope derivative and the
swing period in closed form from one AGM.  The Gauss-Legendre integral
forms here are the second route the tests check them against.  The
(1 - tau)^(-1/2) endpoint singularity of the quarter-period integral is
removed by tau = sin(phi), which leaves smooth integrands on [0, pi/2]
where composite Gauss-Legendre converges at a spectral rate.

``ellipk``, ``ellipe`` and ``ellipj`` are the m-parameter face of the
library's AGM/Landen kernel, which the tests check against mpmath.

``write_csv_cellwise`` and ``write_json_indented`` are the table writers
as they formatted every cell on its own; the library's writers must give
their bytes.
"""

import json
import math

import numpy as np

from muskat.elliptic import _agm, _complete, _landen, beta_of_alpha
from muskat.export import SCHEMA_VERSION, format_float
from muskat.quadrature import gauss_panels


def ellipk(m):
    """Complete elliptic integral of the first kind K(m), 0 <= m < 1."""
    return _complete(*_agm(math.sqrt(1.0 - m), math.sqrt(m)), m)[0]


def ellipe(m):
    """Complete elliptic integral of the second kind E(m), 0 <= m < 1."""
    k, tail, _ = _complete(*_agm(math.sqrt(1.0 - m), math.sqrt(m)), m)
    return k * (1.0 - tail)


def ellipj(u, m):
    """Jacobi (sn, cn, dn)(u|m) for an array u and a parameter 0 <= m < 1."""
    return _landen(u, m, *_agm(math.sqrt(1.0 - m), math.sqrt(m)))


def write_csv_cellwise(fh, metadata, columns, precision):
    """CSV table with format_float / str called once per cell."""
    fh.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value, precision)
        fh.write(f"# {key}={value}\n")
    names = list(columns)
    fh.write(",".join(names) + "\n")
    arrays = [np.atleast_1d(np.asarray(columns[name])) for name in names]
    n_rows = arrays[0].size
    for arr in arrays:
        if arr.size != n_rows:
            raise ValueError("all columns must have the same length")
    cells = [
        [format_float(v, precision) for v in arr.astype(float).tolist()]
        if np.issubdtype(arr.dtype, np.floating)
        else [str(v) for v in arr]
        for arr in arrays
    ]
    for row in zip(*cells):
        fh.write(",".join(row) + "\n")


def write_json_indented(fh, metadata, columns, precision):
    """JSON table through json.dump(..., indent=1) as a whole."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": dict(metadata),
        "samples": {name: np.atleast_1d(np.asarray(col)).tolist() for name, col in columns.items()},
    }
    json.dump(payload, fh, indent=1)
    fh.write("\n")


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
