"""Independent numerical ground truth: adaptive RK integration and quadrature.

Test scaffolding only; the closed form is the product, and numpy and
scipy are test dependencies.  Alongside the numerical oracles sit closed
forms that the package does not use itself: the radius from an arbitrary
epoch, the roots of a circular start and the escape threshold of an
apse start.  The equations of motion are integrated in
Cartesian coordinates so that both conserved quantities are genuine
drift monitors (in polar form h would be an input, not an output), with
the accumulated polar angle carried as an extra state to avoid unwrap
ambiguity.

The reference kernel (``ReferenceLattice``) evaluates p, p', zeta and
sigma anywhere in the plane from the nome series of (omega, omega'), or of
the reduced basis of a rhombic lattice, in complex arithmetic, with the
lattice cubic of given invariants solved here (``g_roots``); the package
evaluates p and zeta on the lattice's two axes only, in real arithmetic.
``HalfPeriods`` rebuilds the complex half periods and eta values from the
package's real ones, and ``pole`` a context's complex v and zeta(v).
"""

from __future__ import annotations

import cmath
import collections
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from radialorbit.cubic import cubic_roots
from radialorbit.dynamics import CubicF, InitialState, build_f
from radialorbit.elliptic import elliptic_K_tail
from radialorbit.errors import DegenerateLatticeError, PoleProximityError, RadialOrbitError
from radialorbit.propagation import invariants_from_conserved
from radialorbit.weierstrass import _POLE_GUARD, _UNIT_ROUNDOFF, GRoots, Lattice, NomeSeries

_RTOL_DEFAULT = 1e-11
_ATOL_DEFAULT = 1e-13
_COLLISION_RADIUS = 1e-6


class StepUnderflowError(RadialOrbitError):
    """Integrator step collapsed near a singularity (r -> 0)."""


class ForbiddenIntervalError(RadialOrbitError):
    """Quadrature interval leaves the allowed region f(r) >= 0."""


@dataclass
class OracleTrajectory:
    """Dense RK solution with conservation-drift bookkeeping."""

    state: InitialState
    t_end: float
    rtol: float
    atol: float
    _sol: object = field(repr=False)
    energy_drift: float
    momentum_drift: float
    terminated_at: float | None  # escape/collision event time, if any

    def at(self, t: float) -> tuple[float, float, float, float]:
        """(r, theta, rdot, thetadot) at time t (t within the integrated span)."""
        x, y, vx, vy, th = self._sol(t)
        r = math.hypot(x, y)
        return (
            r,
            th,
            (x * vx + y * vy) / r,
            (x * vy - y * vx) / r**2,
        )

    def r(self, t: float) -> float:
        return self.at(t)[0]

    def theta(self, t: float) -> float:
        return self.at(t)[1]


def integrate_ode(state: InitialState, t_end: float,
                  rtol: float = _RTOL_DEFAULT, atol: float = _ATOL_DEFAULT,
                  r_escape: float | None = None) -> OracleTrajectory:
    """Adaptive integration of the planar equations of motion.

    Acceleration is -r_vec/r^3 + alpha r_vec/r (inverse-square gravity
    plus the constant radial term).  Terminates early on the optional
    escape radius or on approach to the center (h ~ 0 infall).
    """
    if not 1e-13 <= rtol <= 1e-6:
        raise ValueError(f"rtol {rtol} outside [1e-13, 1e-6]")
    alpha = state.alpha

    def rhs(t, y):
        x, yy, vx, vy, _ = y
        r = math.hypot(x, yy)
        c = -1.0 / r**3 + alpha / r
        return (vx, vy, c * x, c * yy, (x * vy - yy * vx) / r**2)

    events = []

    def collision(t, y):
        return math.hypot(y[0], y[1]) - _COLLISION_RADIUS

    collision.terminal = True
    collision.direction = -1
    events.append(collision)

    if r_escape is not None:
        def escape(t, y, r_esc=r_escape):
            return math.hypot(y[0], y[1]) - r_esc

        escape.terminal = True
        escape.direction = 1
        events.append(escape)

    y0 = (
        state.r0,
        0.0,
        state.v0 * math.sin(state.gamma0),
        state.v0 * math.cos(state.gamma0),
        0.0,
    )
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    if not sol.success:
        raise StepUnderflowError(f"integrator failed: {sol.message}")

    terminated = None
    if sol.status == 1:
        times = [ev[0] for ev in sol.t_events if len(ev)]
        terminated = float(min(times))
        if len(sol.t_events[0]):
            raise StepUnderflowError(
                f"trajectory collapsed to r < {_COLLISION_RADIUS} at "
                f"t = {terminated}"
            )

    span_end = terminated if terminated is not None else t_end
    ts = np.linspace(0.0, span_end, 400)
    ys = sol.sol(ts)
    r = np.hypot(ys[0], ys[1])
    v2 = ys[2] ** 2 + ys[3] ** 2
    energy = 0.5 * v2 - 1.0 / r - alpha * r
    momentum = ys[0] * ys[3] - ys[1] * ys[2]
    e0, h0 = state.energy, state.momentum
    e_drift = float(np.max(np.abs(energy - e0))) / max(1.0, abs(e0))
    h_drift = float(np.max(np.abs(momentum - h0))) / max(1.0, abs(h0))

    return OracleTrajectory(
        state=state, t_end=span_end, rtol=rtol, atol=atol,
        _sol=sol.sol, energy_drift=e_drift, momentum_drift=h_drift,
        terminated_at=terminated,
    )


def _arc_integral(state: InitialState, r_a: float, r_b: float,
                  weight, tol: float) -> float:
    """integral of weight(u) / sqrt(f(u)) over [r_a, r_b], turning-point aware.

    Endpoints where f vanishes get the u = endpoint +/- s^2 substitution,
    which removes the 1/sqrt singularity exactly.
    """
    f = build_f(state)
    if r_b < r_a:
        raise ForbiddenIntervalError("need r_a <= r_b")
    if r_a == r_b:
        return 0.0
    scale = max(abs(c) for c in f.coefficients) * max(1.0, r_b) ** 3
    mid = 0.5 * (r_a + r_b)
    if f(mid) <= 0.0:
        raise ForbiddenIntervalError(
            f"interval [{r_a}, {r_b}] leaves the allowed region"
        )
    turning_a = abs(f(r_a)) <= 1e-9 * scale
    turning_b = abs(f(r_b)) <= 1e-9 * scale

    def plain(u):
        return weight(u) / math.sqrt(f(u))

    def sub_from(endpoint, sign):
        # u = endpoint + sign * s^2;  du / sqrt(f) = 2 s ds / sqrt(f) with
        # phi = f(u)/s^2 = sign f' + f'' s^2/2 + sign 2 a s^4 at the endpoint,
        # f's Taylor polynomial with f(endpoint) = 0: f(u)/s^2 in floats
        # carries the rounding of f(u) divided by s^2
        fp, fpp = sign * f.df(endpoint), 0.5 * f.d2f(endpoint)
        cubic = sign * 2.0 * f.alpha

        def g(s):
            u = endpoint + sign * s * s
            s2 = s * s
            phi = fp + s2 * (fpp + s2 * cubic)
            return 2.0 * weight(u) / math.sqrt(max(phi, 1e-300))
        return g

    opts = dict(epsabs=tol, epsrel=tol, limit=200)
    if not (turning_a or turning_b):
        val, _ = quad(plain, r_a, r_b, **opts)
        return val
    if turning_a and turning_b:
        val1, _ = quad(sub_from(r_a, +1.0), 0.0, math.sqrt(mid - r_a), **opts)
        val2, _ = quad(sub_from(r_b, -1.0), 0.0, math.sqrt(r_b - mid), **opts)
        return val1 + val2
    if turning_a:
        val, _ = quad(sub_from(r_a, +1.0), 0.0, math.sqrt(r_b - r_a), **opts)
        return val
    val, _ = quad(sub_from(r_b, -1.0), 0.0, math.sqrt(r_b - r_a), **opts)
    return val


def quadrature_tof(state: InitialState, r_a: float, r_b: float,
                   tol: float = 1e-12) -> float:
    """Time of flight over a monotone arc: integral of u du / sqrt(f(u))."""
    return _arc_integral(state, r_a, r_b, lambda u: u, tol)


def quadrature_theta(state: InitialState, r_a: float, r_b: float,
                     tol: float = 1e-12) -> float:
    """Angle swept over a monotone arc: h * integral of du / (u sqrt(f(u)))."""
    h = state.momentum
    return _arc_integral(state, r_a, r_b, lambda u: h / u, tol)


def pole(ctx) -> tuple[complex, complex]:
    """(v, zeta(v)) of a context: v on its line Re v = ``v_line`` (0 or w_r),
    where Re zeta(v) is 0 or eta_r (``propagation.SolutionContext.add_pole``)."""
    line = ctx.v_line
    return (complex(line, ctx.v_im),
            complex(ctx.lattice.eta_r if line else 0.0, ctx.zeta_im))


def stepped_theta(ctx, tau: float) -> float:
    """Polar angle v_m tau - arg z(tau), z(s) = sigma(v - s)/sigma(v + s) exp(2 s zeta(v)).

    Reference for the closed-form angle: the argument of z is unwrapped in
    steps from s = 0, with no period folding and no branch of log sigma.
    The phase speed v_m - h/r lies in [0, v_m), so steps of pi/(2 v_m) move
    it by less than pi/2 and cannot alias.
    """
    lat = ReferenceLattice(ctx.lattice.roots)
    v, zeta_v = pole(ctx)

    def phase(s):
        return (lat.sigma(v - s) / lat.sigma(v + s) * cmath.exp(2.0 * s * zeta_v))

    steps = max(1, math.ceil(abs(tau) * ctx.v_m / (0.5 * math.pi)))
    arg, prev = 0.0, 1.0 + 0j
    for j in range(1, steps + 1):
        z = phase(tau * j / steps)
        arg += cmath.phase(z / prev)
        prev = z
    return ctx.v_m * tau - arg


def log_sigma(lat: ReferenceLattice, z: complex) -> complex:
    """log sigma(z) on a branch continuous along each line Im z = c > 0.

    With w the real half period, e = zeta(w) and u = pi z/(2 w), DLMF
    23.6.9 and 20.5.1 write sigma = exp(B) P with the carrier
    B(z) = e z^2/(2 w) + log(2 w/pi) + log(i/2) - i u + Log(1 - exp(2 i u)),
    whose last three terms are log sin u and continuous for Im z > 0,
    and P the theta_1 product, 2w-periodic and bounded on the line.
    The principal Log of P is continuous while P keeps off the negative
    real axis.
    """
    w = lat.real_half_period
    u = math.pi * z / (2.0 * w)
    carrier = (lat.eta_r * z * z / (2.0 * w) + math.log(2.0 * w / math.pi)
               + cmath.log(0.5j) - 1j * u
               + cmath.log(1.0 - cmath.exp(2j * u)))
    return carrier + cmath.log(lat.sigma(z) * cmath.exp(-carrier))


def r_of_tau_general(state: InitialState, tau: float) -> float:
    """Radius from an arbitrary epoch radius via the general inversion formula.

    Works directly from r0 (no pericenter shift): with F = f(r0) and the
    branch of sqrt(F) tied to the sign of the initial radial velocity,
    r(tau) solves (dr/dtau)^2 = f(r) with r(0) = r0.  Agrees with the
    pericenter form shifted by tau0 wherever both are defined.  r is
    periodic in tau, so tau is first reduced by the real period of p.
    """
    f = build_f(state)
    lat = ReferenceLattice.from_invariants(
        *invariants_from_conserved(state.alpha, state.energy, state.momentum))
    period = 2.0 * lat.real_half_period
    tau = tau - period * round(tau / period)
    r0 = state.r0
    big_f = max(f(r0), 0.0)
    s = 1.0 if state.rdot0 >= 0.0 else -1.0
    if abs(tau) < 1e-6:
        return r0 + s * math.sqrt(big_f) * tau + 0.25 * f.df(r0) * tau * tau
    p, pp, _, _ = lat.wp_all(complex(tau))
    gk = f.d2f(r0) / 24.0
    num = (-s * math.sqrt(big_f) * pp
           + big_f * f.alpha / 2.0           # f''' = 12 a
           + 0.5 * f.df(r0) * (p - gk))
    den = 2.0 * (p - gk) ** 2
    return (r0 + num / den).real


def circular_start_roots(r0: float, alpha: float) -> tuple[float, float, float]:
    """Roots (rho1, rho2, rho3) of f for a circular start r0 v0^2 = 1, gamma = 0.

    rho1 = r0, rho2/rho3 = (1 -/+ sqrt(1 - 8 a r0^2)) / (4 a r0); the pair
    is complex for a r0^2 > 1/8, which is rejected.
    """
    disc = 1.0 - 8.0 * alpha * r0 * r0
    if disc < -1e-12:
        raise ValueError("alpha r0^2 > 1/8: companion roots are complex")
    s = math.sqrt(max(disc, 0.0))
    return r0, (1.0 - s) / (4.0 * alpha * r0), (1.0 + s) / (4.0 * alpha * r0)


def pericenter_start_conditions(r0: float, v0: float) -> tuple[str, float]:
    """(regime, alpha*): escape threshold in alpha for a state given at an apse.

    With u = r0 v0^2 the three regimes are
        u < 2/3:       alpha* = min((1 - u)/r0^2, (2 - u)^2 / (8 r0^3 v0^2))
        2/3 <= u <= 2: alpha* = (2 - u)^2 / (8 r0^3 v0^2)
        u > 2:         alpha* = 0
    and the motion is bounded iff alpha < alpha*.
    """
    if r0 <= 0.0 or v0 < 0.0:
        raise ValueError("need r0 > 0 and v0 >= 0")
    u = r0 * v0 * v0
    a1 = (1.0 - u) / r0**2
    a3 = (2.0 - u) ** 2 / (8.0 * r0**3 * v0**2) if v0 > 0.0 else math.inf
    if u < 2.0 / 3.0:
        return "low-speed", min(a1, a3)
    if u <= 2.0:
        return "mid-speed", a3
    return "high-speed", 0.0


# -- reference kernel ------------------------------------------------------

def solve_cubic(a: float, b: float, c: float, d: float) -> tuple[complex, complex, complex]:
    """Roots of a x^3 + b x^2 + c x + d in descending (Im, Re) order (``cubic_roots``)."""
    if a == 0.0:
        raise ValueError("leading coefficient is zero; not a cubic")
    return cubic_roots(d, c, b, a)


def elliptic_K(m: float) -> float:
    """K(m) with the parameter convention K(m) = F(pi/2 | m)."""
    return elliptic_K_tail(m, 1.0 - m)[0]


def real_roots_desc(f: CubicF) -> list[float]:
    """The real roots of f, descending."""
    return sorted((z.real for z in f.roots if z.imag == 0.0), reverse=True)


@dataclass(frozen=True)
class Invariants:
    """Real lattice invariants; the cubic is 4 s^3 - g2 s - g3."""

    g2: float
    g3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise ValueError("invariants must be finite")

    @property
    def discriminant(self) -> float:
        return self.g2**3 - 27.0 * self.g3**2

    def is_degenerate(self) -> bool:
        scale = max(abs(self.g2) ** 3, 27.0 * self.g3**2, 1e-300)
        return abs(self.discriminant) <= 1e-14 * scale


def g_roots(inv: Invariants) -> GRoots:
    """Ordered roots of the lattice cubic 4 s^3 - g2 s - g3."""
    if inv.is_degenerate():
        raise DegenerateLatticeError(
            f"g2^3 - 27 g3^2 = {inv.discriminant:.3e} vanishes; "
            "the lattice degenerates (alpha = 0 / double-root boundary)"
        )
    e1, e2, e3 = solve_cubic(4.0, 0.0, -inv.g2, -inv.g3)
    return GRoots(e_tilde=(e1, e2, e3), gaps=(e1 - e2, e1 - e3, e2 - e3))


class ComplexSeries:
    """p, p', zeta and sigma of one lattice basis from its nome series, anywhere in its cell.

    The sums of ``NomeSeries`` (DLMF 23.8.1-23.8.2) in complex arithmetic,
    for a complex nome q = exp(i pi omega3/omega1) as well, and DLMF 23.6.9
    the theta_1 form of sigma (``sigma``).  ``theta1_prime`` is
    theta_1'(0)/(2 q^(1/4)) = sum (-1)^n (2n+1) q^(n(n+1)), n >= 0.
    """

    def __init__(self, k: complex, nome: complex,
                 eta_over_omega: complex | None = None) -> None:
        q2 = nome * nome
        if eta_over_omega is None:
            bound = _UNIT_ROUNDOFF * (1.0 - abs(nome))
            terms, n, q2n = [], 1, q2
            while True:
                c = q2n / (1.0 - q2n)
                if 16.0 * n * n * abs(c) <= bound:
                    break
                terms.append(8.0 * n * c)
                n, q2n = n + 1, q2n * q2
            eta_over_omega = k * k * (1.0 / 3.0 - sum(reversed(terms)))
        norm, n, qn, q2n = 1.0, 1, q2, q2
        while (2 * n + 1) * abs(qn) > _UNIT_ROUNDOFF:
            norm += (-1) ** n * (2 * n + 1) * qn
            n, q2n = n + 1, q2n * q2
            qn *= q2n
        self.k = k
        self.nome = nome
        self.eta_over_omega = eta_over_omega
        self.theta1_prime = norm

    def at_complex(self, z: complex) -> tuple[complex, complex, complex]:
        """(p, p', zeta) at z in the centred cell of the basis.

        sin 2nu and cos 2nu grow like e^(2n|Im u|), so the n-th term of the
        p' sum is at most B_n = 16 n^2 |c_n| e^(2n|Im u|), and B_(n+1)/B_n
        <= r_n = ((n+1)/n)^2 |q|^2 e^(2|Im u|), which falls with n.  In the
        cell |Im u| <= pi Im(omega3/omega1)/2 makes e^(2|Im u|) <= 1/|q|, so
        r_n <= 4|q|.  The sums stop before the first n with r_n < 1 and
        B_n <= 2^-53 (1 - r_n).
        """
        k = self.k
        u = k * z
        s, c = cmath.sin(u), cmath.cos(u)
        if abs(s) < abs(k) * _POLE_GUARD:
            raise PoleProximityError(f"argument {z!r} at a lattice point")
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        q2 = self.nome * self.nome
        spread = math.exp(2.0 * abs(u.imag))
        step = abs(q2) * spread
        sn, cn = s2, c2
        sp = spp = szt = 0j
        n, q2n, grow = 1, q2, spread
        while True:
            cq = q2n / (1.0 - q2n)
            bound = 16.0 * n * n * abs(cq) * grow
            ratio = ((n + 1) / n) ** 2 * step
            if ratio < 1.0 and bound <= _UNIT_ROUNDOFF * (1.0 - ratio):
                break
            sp += 8.0 * n * cq * cn
            spp += 16.0 * n * n * cq * sn
            szt += 4.0 * cq * sn
            sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
            n, q2n, grow = n + 1, q2n * q2, grow * spread
        inv_s = 1.0 / s
        csc2 = inv_s * inv_s
        kk = k * k
        p = kk * (csc2 - sp) - self.eta_over_omega
        pp = kk * k * (spp - 2.0 * c * inv_s * csc2)
        zt = self.eta_over_omega * z + k * (c * inv_s + szt)
        return p, pp, zt

    def sigma(self, z: complex) -> complex:
        """sigma(z) at z in the centred cell (DLMF 23.6.9, 20.2.1).

        sigma = exp(eta z^2/(2 omega)) T(u)/(k T'(0)) with
        T(u) = sum (-1)^n q^(n(n+1)) sin (2n+1)u, theta_1 without its
        factor 2 q^(1/4).  |sin (2n+1)u| <= (2n+1) e^(2n|Im u|) |sin u|, so
        the n-th term is at most A_n = (2n+1) |q|^(n(n+1)) e^(2n|Im u|) in
        units of the leading sin u, and A_(n+1)/A_n <= s_n =
        (2n+3)/(2n+1) |q|^(2n+2) e^(2|Im u|), which falls with n.  The sum
        stops before the first n with s_n < 1 and A_n <= 2^-53 (1 - s_n).
        """
        k = self.k
        u = k * z
        s, c = cmath.sin(u), cmath.cos(u)
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        q2 = self.nome * self.nome
        spread = math.exp(2.0 * abs(u.imag))
        acc, sn, cn = s, s, c
        n, qn, q2n, grow = 1, q2, q2, spread
        while True:
            bound = (2 * n + 1) * abs(qn) * grow
            ratio = (2 * n + 3) / (2 * n + 1) * abs(q2n * q2) * spread
            if ratio < 1.0 and bound <= _UNIT_ROUNDOFF * (1.0 - ratio):
                break
            sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
            acc += qn * sn if n % 2 == 0 else -qn * sn
            n, q2n, grow = n + 1, q2n * q2, grow * spread
            qn *= q2n
        return cmath.exp(0.5 * self.eta_over_omega * z * z) * acc / (k * self.theta1_prime)


class HalfPeriods(collections.namedtuple("HalfPeriods", "omega omega_prime eta eta_prime")):
    """Half-period data of the lattice generated by (2 omega, 2 omega'):
    eta = zeta(omega) and eta_prime = zeta(omega')."""

    __slots__ = ()

    @classmethod
    def of(cls, lat: Lattice) -> "HalfPeriods":
        """A&S 18.9 from the lattice's real w_r, w_i, eta_r and eta_c: omega = w_r,
        omega' = i w_i on a rectangular lattice, omega = (w_r - i w_i)/2 and
        omega' = conj(omega) on a rhombic one, with eta and eta' alike."""
        w_r, w_i, eta_r, eta_c = lat.real_half_period, lat.w_i, lat.eta_r, lat.eta_c
        if lat.rectangular:
            return cls(complex(w_r, 0.0), complex(0.0, w_i), complex(eta_r, 0.0),
                       complex(0.0, -eta_c))
        omega = 0.5 * complex(w_r, -w_i)
        return cls(omega, omega.conjugate(), 0.5 * complex(eta_r, eta_c),
                   0.5 * complex(eta_r, -eta_c))

    def omega_k(self, k: int) -> complex:
        return self._pick(k, self.omega, self.omega_prime)

    def eta_k(self, k: int) -> complex:
        """zeta(omega_k)."""
        return self._pick(k, self.eta, self.eta_prime)

    @staticmethod
    def _pick(k: int, first: complex, third: complex) -> complex:
        # omega_2 = omega_1 + omega_3, and likewise for eta
        if k not in (1, 2, 3):
            raise ValueError(f"half-period index must be 1, 2 or 3, got {k}")
        return (first, first + third, third)[k - 1]


class ReferenceLattice(Lattice):
    """The package's lattice of the same roots, with p, p', zeta and sigma anywhere.

    ``periods`` holds its complex half periods and eta values
    (``HalfPeriods``), ``basis`` omega1, omega3, eta1 and eta3 of the
    kernel's basis and ``kernel`` its series (``ComplexSeries``).  A rectangular lattice uses
    (omega, omega') and the constants of its own real-axis series
    ``series``, k = pi/(2 omega), q and eta/omega, whichever series the
    package's lattice sums (``Lattice.companion``), so on the imaginary
    axis the kernel does what ``series.at_imaginary`` does.  A rhombic one
    uses the Lagrange-reduced basis of (omega, omega'), where Im tau >=
    sqrt(3)/2 and so |q| <= exp(-pi sqrt(3)/2) = 0.066, with eta1 the
    series' constant term, eta1 = omega1 k^2 (1/3 - 8 sum n c_n), and eta3
    from the Legendre relation eta1 omega3 - eta3 omega1 = i pi/2:
    independent of the companion route.  A point is reduced into the
    centred cell of the basis, and values outside it follow from
    periodicity of p, p' and the quasi-periodicity of zeta and sigma.
    """

    def __init__(self, roots: GRoots) -> None:
        super().__init__(roots)
        self.periods = HalfPeriods.of(self)
        if self.rectangular:
            omega, eta = self.periods.omega.real, self.periods.eta.real
            self.basis = self.periods
            self.series = NomeSeries(math.pi / (2.0 * omega), self.q, eta / omega)
            self.kernel = ComplexSeries(self.series.k, self.q, self.series.eta_over_omega)
            return
        b1, b3 = _reduced_basis(self.periods.omega, self.periods.omega_prime)
        kernel = ComplexSeries(math.pi / (2.0 * b1), cmath.exp(1j * math.pi * b3 / b1))
        kernel.eta_over_omega -= sum(roots.e_tilde).real / 3.0
        eta1 = kernel.eta_over_omega * b1
        eta3 = (eta1 * b3 - 0.5j * math.pi) / b1
        self.basis = HalfPeriods(omega=b1, omega_prime=b3, eta=eta1, eta_prime=eta3)
        self.kernel = kernel

    @classmethod
    def from_invariants(cls, g2: float, g3: float) -> "ReferenceLattice":
        """The lattice of invariants (g2, g3), its roots from ``g_roots``."""
        return cls(g_roots(Invariants(g2, g3)))

    def reduce(self, z: complex) -> tuple[complex, int, int]:
        """(z_c, m, n) with z = z_c + 2 m omega1 + 2 n omega3, z_c in the centred cell."""
        w1, w3 = 2.0 * self.basis.omega, 2.0 * self.basis.omega_prime
        x, y = _coordinates(z, w1, w3)
        m = math.floor(x + 0.5)
        n = math.floor(y + 0.5)
        return z - m * w1 - n * w3, m, n

    def _values(self, z: complex) -> tuple[complex, complex, complex]:
        """(p, p', zeta) at arbitrary z."""
        zr, m, n = self.reduce(complex(z))
        if abs(zr) < _POLE_GUARD:
            raise PoleProximityError(
                f"|z - lattice| = {abs(zr):.2e} below pole guard {_POLE_GUARD:.1e}"
            )
        p, pp, zt = self.kernel.at_complex(zr)
        if m or n:
            zt += 2.0 * (m * self.basis.eta + n * self.basis.eta_prime)
        return p, pp, zt

    def wp_all(self, z: complex) -> tuple[complex, complex, complex, complex]:
        """(p, p', zeta, sigma) at arbitrary z via quasi-periodic extension."""
        return (*self._values(z), self.sigma(z))

    def wp(self, z: complex) -> complex:
        return self._values(z)[0]

    def zeta(self, z: complex) -> complex:
        return self._values(z)[2]

    def sigma(self, z: complex) -> complex:
        zr, m, n = self.reduce(complex(z))
        sg = self.kernel.sigma(zr)
        if m or n:
            b = self.basis
            eta_mn = 2.0 * (m * b.eta + n * b.eta_prime)
            sign = -1.0 if (m + n + m * n) % 2 else 1.0
            sg *= sign * cmath.exp(eta_mn * (zr + m * b.omega + n * b.omega_prime))
        return sg


def _coordinates(z: complex, a: complex, b: complex) -> tuple[float, float]:
    """Real (x, y) with z = x a + y b."""
    det = a.real * b.imag - a.imag * b.real
    return ((z.real * b.imag - z.imag * b.real) / det,
            (z.imag * a.real - z.real * a.imag) / det)


def _reduced_basis(a: complex, b: complex) -> tuple[complex, complex]:
    """Lagrange-reduced basis of the lattice spanned by a and b.

    Returns (a, b) with |a| <= |b|, |Re(b/a)| <= 1/2 and Im(b/a) > 0, so
    that tau = b/a lies in the fundamental domain, where Im tau >=
    sqrt(3)/2 (DLMF 23.18).
    """
    if abs(b) < abs(a):
        a, b = b, a
    while True:
        b = b - round((b / a).real) * a
        if abs(b) >= abs(a):
            break
        a, b = b, a
    return (a, b) if (b / a).imag > 0.0 else (a, -b)
