"""High-precision reference values, independent of the radialorbit package.

Everything is evaluated with mpmath to ``DIGITS`` significant digits from the
defining relations of the problem (mu = 1):

    (r dr/dt)^2 = f(r) = 2 a r^3 + 2 E r^2 + 2 r - h^2,
    tau = int dr / sqrt(f),   t = int r dr / sqrt(f),
    theta = h int dr / (r sqrt(f)),

with the turning points from ``mp.polyroots`` and the quadratures from
mpmath's Gauss-Legendre rule.  The end-point singularities of 1/sqrt(f) are removed by a
change of variable: r = r_m + (r_M - r_m) sin^2(phi) between two turning
points, r = r_m + u^2 above a lone one.

The Weierstrass functions p, zeta and sigma are built from Jacobi theta
functions (DLMF 23.6) and serve only to measure the accuracy of the
package's kernel on a lattice.

Nothing here imports radialorbit: the module must stay valid while the
package is rewritten.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

DIGITS = 30                       # accuracy every reference value is converged to
DPS = DIGITS + 10                 # working precision; near-double roots cancel digits
mp.mp.dps = DPS

_TINY = mp.mpf(10) ** -(DIGITS + 2)   # "equal up to the precision"; Newton's step tolerance
_EPS = mp.mpf(10) ** -DIGITS          # agreement of two quadrature degrees
_GL = GaussLegendre(mp.mp)


class ReferenceError(RuntimeError):
    """The reference itself could not produce a trustworthy value."""


def _geometric_splits(lo, hi, x_c, width):
    """Quadrature break points clustering around a near-singular x_c."""
    points = [lo, hi]
    reach = max(x_c - lo, hi - x_c)
    step = reach / 2
    while step > width / 4:
        for x in (x_c - step, x_c + step):
            if lo < x < hi:
                points.append(x)
        step /= 2
    if lo < x_c < hi:
        points.append(x_c)
    return sorted(set(points))


class Orbit:
    """Reference trajectory of one initial state (r0, v0, gamma0, alpha).

    The inputs are the binary64 values handed to the program; they are
    taken as exact.  ``at(dt)`` returns (r, theta) at epoch + dt, with
    theta measured from the epoch position as the program reports it.
    """

    def __init__(self, r0: float, v0: float, gamma0: float, alpha: float):
        r0, v0, g0, a = (mp.mpf(x) for x in (r0, v0, gamma0, alpha))
        self.alpha = a
        self.energy = v0**2 / 2 - 1 / r0 - a * r0
        self.h = r0 * v0 * mp.cos(g0)
        if not self.h > 0:
            raise ReferenceError("reference needs h > 0")
        coeffs = [2 * a, 2 * self.energy, 2, -self.h**2]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * DPS)
        scale = max(abs(z) for z in roots)
        real = sorted(mp.re(z) for z in roots if abs(mp.im(z)) <= _TINY * scale)

        def f(r):
            return ((coeffs[0] * r + coeffs[1]) * r + coeffs[2]) * r + coeffs[3]

        def df(r):
            return (6 * a * r + 4 * self.energy) * r + 2

        at_root = [x for x in real if abs(x - r0) <= _TINY * r0]
        if g0 == 0 and at_root:
            root = at_root[0]
            if df(root) > 0:
                lower, upper = root, min((x for x in real if x > root + _TINY * r0),
                                         default=None)
            elif df(root) < 0:
                upper, lower = root, max((x for x in real if x < root - _TINY * r0),
                                         default=None)
            else:
                raise ReferenceError("circular orbit: double root at r0")
        else:
            if not f(r0) > 0:
                raise ReferenceError("f(r0) <= 0 with a nonzero radial speed")
            lower = max((x for x in real if x < r0), default=None)
            upper = min((x for x in real if x > r0), default=None)
        if lower is None or not lower > 0:
            raise ReferenceError("no pericenter")
        self.r_m = lower
        self.bounded = upper is not None
        if self.bounded:
            self.r_M = upper
            self._span = upper - lower
            self._r3 = -self.energy / a - lower - upper
        else:
            if not a > 0:
                raise ReferenceError("unbounded motion needs alpha > 0")
            # f = 2 a (r - r_m) q(r) with q monic quadratic, positive on r >= r_m
            self._qb = lower + self.energy / a
            self._qc = lower**2 + self.energy * lower / a + 1 / a
        self._breaks = self._initial_breaks()
        self._cum = [(mp.mpf(0),) * 3]

        self._outbound = g0 > 0 or (g0 == 0 and bool(at_root) and lower == at_root[0])
        self._x0 = self._x_of_r(r0)

    @property
    def near_escape(self) -> bool:
        """Bounded, with the apocenter within 20% of the span from escape."""
        return self.bounded and self.alpha > 0 and self._r3 - self.r_M < self._span / 5

    @cached_property
    def _period(self):
        if not self.bounded:
            return None, None, None
        tau, t, th = self._integrals(mp.pi / 2)
        return 2 * tau, 2 * t, 2 * self.h * th

    @property
    def T_tau(self):
        return self._period[0]

    @property
    def T_t(self):
        return self._period[1]

    @property
    def dtheta(self):
        """Polar angle advance over one radial period."""
        return self._period[2]

    @cached_property
    def _epoch(self):
        """(time, angle) of the epoch measured from the pericenter passage."""
        _, t_x0, th_x0 = self._integrals(self._x0)
        th_x0 *= self.h
        if self._outbound:
            return t_x0, th_x0
        if self.bounded:
            return self.T_t - t_x0, self.dtheta - th_x0
        return -t_x0, -th_x0

    # -- parametrisation and quadrature ---------------------------------------

    def _r(self, x):
        if self.bounded:
            return self.r_m + self._span * mp.sin(x) ** 2
        return self.r_m + x * x

    def _w(self, r):
        """dtau/dx at radius r, for the regularising variable x."""
        if self.bounded:
            return 2 / mp.sqrt(2 * abs(self.alpha) * abs(r - self._r3))
        return 2 / mp.sqrt(2 * self.alpha * ((r + self._qb) * r + self._qc))

    def _x_of_r(self, r):
        d = r - self.r_m
        if d <= 0:
            return mp.mpf(0)
        if self.bounded:
            return mp.asin(mp.sqrt(min(mp.mpf(1), d / self._span)))
        return mp.sqrt(d)

    def _features(self):
        """(x_c, width) of each narrow feature of the integrands.

        A deep pericenter (r_m small against the motion's extent) peaks
        dtheta at x = 0, and above a lone turning point r grows from r_m
        on the scale u^2 = r_m; a near-double root of f (escape threshold) peaks
        all three integrands where the motion lingers.
        """
        features = []
        if self.bounded:
            if self.r_m < self._span:
                features.append((mp.mpf(0), mp.sqrt(self.r_m / self._span)))
            ratio = (self._r3 - self.r_M) / self._span
            if self.alpha > 0 and ratio < 1:
                features.append((mp.pi / 2, mp.sqrt(ratio)))
            return features
        features.append((mp.mpf(0), mp.sqrt(self.r_m)))   # r = r_m + u^2 doubles at u^2 = r_m
        r_v = -self._qb / 2          # minimum of q over r >= r_m
        if r_v > self.r_m:
            u_v = mp.sqrt(r_v - self.r_m)
            features.append((u_v, mp.sqrt(abs(self._qc - self._qb**2 / 4)) / (2 * u_v)))
        else:
            q_m = (self.r_m + self._qb) * self.r_m + self._qc
            features.append((mp.mpf(0), mp.sqrt(q_m / max(abs(2 * self.r_m + self._qb), _TINY))))
        return features

    def _initial_breaks(self):
        features = self._features()
        top = mp.pi / 2 if self.bounded else 2 * max([mp.mpf(1)] + [x for x, _ in features])
        points = {mp.mpf(0), top}
        for x_c, width in features:
            points.update(_geometric_splits(mp.mpf(0), top, x_c, width))
        return sorted(points)

    def _piece(self, a, b):
        """Integrals over x in [a, b] of dtau/dx, dt/dx and dtau/dx / r.

        Gauss-Legendre at rising degree, all three integrands at shared
        nodes, until two degrees agree; [a, b] must avoid narrow features.
        """
        if b < a:
            return tuple(-v for v in self._piece(b, a))
        prev = None
        for degree in range(2, 10):
            acc = [mp.mpf(0)] * 3
            for x, weight in _GL.get_nodes(a, b, degree, mp.mp.prec + 20):
                r = self._r(x)
                ww = weight * self._w(r)
                acc[0] += ww
                acc[1] += ww * r
                acc[2] += ww / r
            if prev is not None and all(abs(c - p) <= _EPS * abs(c) for c, p in zip(acc, prev)):
                return tuple(acc)
            prev = acc
        raise ReferenceError("quadrature did not converge")

    def _cumulative(self, k):
        """Integrals from x = 0 to the k-th break point (cached)."""
        while len(self._cum) <= k:
            i = len(self._cum)
            if i >= len(self._breaks):          # unbounded: keep doubling
                self._breaks.append(2 * self._breaks[-1])
            piece = self._piece(self._breaks[i - 1], self._breaks[i])
            self._cum.append(tuple(c + p for c, p in zip(self._cum[-1], piece)))
        return self._cum[k]

    def _integrals(self, x):
        """(tau, t, theta / h) accumulated from the pericenter x = 0 to x."""
        while not self.bounded and x > self._breaks[-1]:
            self._breaks.append(2 * self._breaks[-1])
        k = max(0, bisect.bisect_right(self._breaks, x) - 1)
        base = self._cumulative(k)
        return tuple(c + p for c, p in zip(base, self._piece(self._breaks[k], x)))

    # -- time -> state ---------------------------------------------------

    def _solve_branch(self, s, guess_r=None):
        """(x, theta/h) with t(x) = s on the outbound branch (s <= T_t/2 if bounded)."""
        if self.bounded:
            lo, hi = mp.mpf(0), mp.pi / 2
        else:
            k = 1
            while self._cumulative(k)[1] < s:
                k += 1
            lo, hi = self._breaks[k - 1], self._breaks[k]
        x = None
        if guess_r is not None and math.isfinite(guess_r):
            x = self._x_of_r(mp.mpf(guess_r))
        if x is None or not lo <= x <= hi:
            x = (lo + hi) / 2
        _, t_x, th_x = self._integrals(x)
        for _ in range(200):
            err = t_x - s
            if err > 0:
                hi = x
            else:
                lo = x
            r = self._r(x)
            x_new = x - err / (r * self._w(r))
            if not lo <= x_new <= hi:
                x_new = (lo + hi) / 2
            _, dt, dth = self._piece(x, x_new)
            t_x, th_x, step, x = t_x + dt, th_x + dth, x_new - x, x_new
            if abs(step) <= _TINY * (1 + abs(x)):
                return x, th_x
        raise ReferenceError("time inversion did not converge")

    def _state_since_pericenter(self, s, guess_r=None):
        """(r, theta) at time s after the pericenter passage at theta = 0."""
        if self.bounded:
            n = mp.floor(s / self.T_t)
            rem = s - n * self.T_t
            outbound = rem <= self.T_t / 2
            x, th = self._solve_branch(rem if outbound else self.T_t - rem, guess_r)
            th *= self.h
            return self._r(x), n * self.dtheta + (th if outbound else self.dtheta - th)
        x, th = self._solve_branch(abs(s), guess_r)
        th *= self.h
        return self._r(x), (th if s >= 0 else -th)

    def at(self, dt: float, guess_r: float | None = None):
        """(r, theta - theta_epoch) at epoch + dt; guess_r only seeds Newton."""
        s0, theta0 = self._epoch
        r, theta = self._state_since_pericenter(s0 + mp.mpf(dt), guess_r)
        return r, theta - theta0


def escape_alpha_apse(r0: float, v0: float):
    """Escape threshold alpha* of an apse start (gamma0 = 0) at r0 with speed v0.

    For an apse start f(r) = 2 a (r - r0) q(r) with q quadratic, and the
    discriminant of a q is (v0^2/2 - 1/r0)^2 - 2 a r0 v0^2, so the two
    outer roots merge at alpha* = (v0^2/2 - 1/r0)^2 / (2 r0 v0^2).  Valid
    when those roots lie above r0 (r0 v0^2 in [2/3, 2]); checked by
    classifying either side.
    """
    r0, v0 = mp.mpf(r0), mp.mpf(v0)
    a_star = (v0**2 / 2 - 1 / r0) ** 2 / (2 * r0 * v0**2)
    below = Orbit(r0, v0, 0.0, a_star * (1 - mp.mpf(10) ** -6))
    above = Orbit(r0, v0, 0.0, a_star * (1 + mp.mpf(10) ** -6))
    if not (below.bounded and not above.bounded and abs(below.r_m - r0) <= _TINY * r0):
        raise ReferenceError("apse start outside the double-root escape regime")
    return a_star


# -- Weierstrass functions via Jacobi theta (DLMF 23.6) --------------------

class ThetaLattice:
    """p, zeta, sigma for real invariants (g2, g3) from Jacobi theta functions.

    The real half-period comes from Carlson's R_F at the largest real root
    of 4 s^3 - g2 s - g3; the imaginary one is the real half-period for
    (g2, -g3), since p(iz; g2, g3) = -p(z; g2, -g3).  Positive
    discriminant: basis (w_r, i w_i).  Negative: basis (w_r, (w_r + i w_i)/2).
    """

    def __init__(self, g2: float, g3: float):
        g2, g3 = mp.mpf(g2), mp.mpf(g3)
        w_r, self.roots = self._real_half_period(g2, g3)
        w_i, _ = self._real_half_period(g2, -g3)
        self.omega1 = w_r
        if g2**3 - 27 * g3**2 > 0:
            self.omega3 = mp.mpc(0, w_i)
        else:
            self.omega3 = mp.mpc(w_r, w_i) / 2
        tau = self.omega3 / self.omega1
        self.q = mp.exp(mp.j * mp.pi * tau)
        self._c = mp.pi / (2 * self.omega1)
        th1p0 = mp.jtheta(1, 0, self.q, 1)
        th1ppp0 = mp.jtheta(1, 0, self.q, 3)
        self._th1p0 = th1p0
        self.eta1 = -mp.pi**2 * th1ppp0 / (12 * self.omega1 * th1p0)
        self.scale = max(abs(z) for z in self.roots)
        e_max = max(mp.re(z) for z in self.roots if abs(mp.im(z)) <= _TINY * self.scale)
        if abs(self.wp(self.omega1) - e_max) > mp.mpf(10) ** (12 - DPS) * self.scale:
            raise ReferenceError("theta lattice does not reproduce its invariants")

    @staticmethod
    def _real_half_period(g2, g3):
        """(w, roots): half the real period of p for (g2, g3) and the e_k."""
        roots = mp.polyroots([4, 0, -g2, -g3], maxsteps=400, extraprec=2 * DPS)
        scale = max(abs(z) for z in roots)
        e = max(mp.re(z) for z in roots if abs(mp.im(z)) <= _TINY * scale)
        a, b = sorted(roots, key=lambda z: abs(z - e))[1:]
        if min(abs(a - e), abs(b - e)) <= _TINY * scale:
            raise ReferenceError("degenerate invariants")
        return mp.re(mp.elliprf(e - a, e - b, 0)), roots

    def _thetas(self, z):
        v = self._c * z
        return (mp.jtheta(1, v, self.q), mp.jtheta(1, v, self.q, 1),
                mp.jtheta(1, v, self.q, 2))

    def all(self, z):
        """(p, zeta, sigma) at complex z."""
        z = mp.mpc(z)
        t0, t1, t2 = self._thetas(z)
        c = self._c
        zeta = self.eta1 * z / self.omega1 + c * t1 / t0
        wp = -self.eta1 / self.omega1 - c**2 * (t2 * t0 - t1**2) / t0**2
        sigma = mp.exp(self.eta1 * z**2 / (2 * self.omega1)) * t0 / (c * self._th1p0)
        return wp, zeta, sigma

    def wp(self, z):
        return self.all(z)[0]

    def cell_points(self, n: int = 4):
        """n x n interior grid of the cell spanned by (2 omega1, 2 omega3)."""
        fr = [(2 * k + 1) / mp.mpf(2 * n) for k in range(n)]
        return [2 * a * self.omega1 + 2 * b * self.omega3 for a in fr for b in fr]
