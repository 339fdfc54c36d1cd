"""Complete elliptic integrals K and E, and Carlson's R_F.

K(m) and E(m) come from one arithmetic-geometric mean (A&S 17.6;
quadratic convergence, full double precision).  The AGM starts from
(1, sqrt(m1)) with the complementary parameter m1 = 1 - m passed on its
own, so a caller that knows m1 to full relative precision (m near 1)
keeps it.  It stops once the two means differ by at most an ulp of the
geometric one, after at most 8 steps on 800 000 random parameters.  A
relative test such as |a - b| <= 2e-16 a can stall: in the lowest tenth
of a binade an ulp exceeds 2e-16 a, and rounding can keep the means an
ulp apart for good.  R_F follows Carlson's duplication algorithm with the
fifth-order series tail (Carlson 1995, Numerical Algorithms 10), for
nonnegative real arguments in real arithmetic: the half periods of both
lattice kinds come from K, and p^-1 at a conjugate pair of gaps reduces
to R_F of real arguments (``weierstrass._rf_pair``).  A duplication takes
x, y, z and their mean mu to (. + lam)/4, so the spread max|x - mu| is
carried, divided by 4 per step, to the stop at 1e-4 mu (120 steps at most).
"""

from __future__ import annotations

import math

from .errors import EllipticDomainError

_RF_TOL = 1e-4  # spread tolerance before the series tail; error ~ spread^6


def elliptic_KE(m: float, m1: float) -> tuple[float, float]:
    """(K(m), E(m)) for m + m1 = 1, each of the two passed to full precision."""
    k, tail = elliptic_K_tail(m, m1)
    return k, k * (0.5 * (1.0 + m1) - tail)


def elliptic_K_tail(m: float, m1: float) -> tuple[float, float]:
    """(K(m), tail) with E(m) = K(m) ((1 + m1)/2 - tail), for m + m1 = 1.

    With a_0 = 1, b_0 = sqrt(m1), c_0 = sqrt(m) and the AGM steps
    a_(n+1) = (a_n + b_n)/2, b_(n+1) = sqrt(a_n b_n), A&S 17.6.3-4 give
    K = pi/(2 a_N) and E = K (1 - sum_(n>=0) 2^(n-1) c_n^2).  The sum takes
    c_(n+1) = (a_n - b_n)/2 as c_n^2/(4 a_(n+1)), which does not cancel,
    and its first term m/2 folds into (1 + m1)/2; the rest, the tail
    sum_(n>=1) 2^(n-1) c_n^2, is of order m^2 and keeps its relative digits.
    The steps stop once |a - b| <= ulp(b) (module docstring).
    """
    if not (0.0 <= m <= 1.0 and 0.0 < m1 <= 1.0):
        raise EllipticDomainError(f"parameters m={m!r}, m1={m1!r} outside [0, 1] x (0, 1]")
    a, b, c = 1.0, math.sqrt(m1), math.sqrt(m)
    tail, weight = 0.0, 1.0
    while abs(a - b) > math.ulp(b):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
        tail += weight * c * c
        weight *= 2.0
    # final mean squeezes the remaining O((a-b)^2) error below 1 ulp
    return math.pi / (a + b), tail


def carlson_rf(x: float, y: float, z: float) -> float:
    """Symmetric elliptic integral R_F(x, y, z) of nonnegative real arguments.

    At most one argument may be zero.
    """
    sqrt = math.sqrt
    if (x, y, z).count(0.0) > 1:
        raise ValueError("at most one argument of R_F may be zero")
    mu = (x + y + z) / 3.0
    spread = max(abs(x - mu), abs(y - mu), abs(z - mu))
    for _ in range(120):
        if spread < _RF_TOL * mu:
            break
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu, spread = 0.25 * (mu + lam), 0.25 * spread
    mu = (x + y + z) / 3.0
    dx = (mu - x) / mu
    dy = (mu - y) / mu
    dz = (mu - z) / mu
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    series = (
        1.0
        - e2 / 10.0
        + e3 / 14.0
        + e2 * e2 / 24.0
        - 3.0 * e2 * e3 / 44.0
    )
    return series / sqrt(mu)
