"""Independent numerical ground truth: adaptive RK integration and quadrature.

Test scaffolding only; the closed form is the product, and numpy and
scipy are test dependencies.  The equations of motion are integrated in
Cartesian coordinates so that both conserved quantities are genuine
drift monitors (in polar form h would be an input, not an output), with
the accumulated polar angle carried as an extra state to avoid unwrap
ambiguity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from radialorbit.dynamics import InitialState, build_f
from radialorbit.errors import RadialOrbitError

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
        # f(u)/s^2 -> sign * f'(endpoint) as s -> 0
        def g(s):
            u = endpoint + sign * s * s
            if s < 1e-7:
                phi = sign * f.df(endpoint) + 0.5 * f.d2f(endpoint) * s * s
            else:
                phi = f(u) / (s * s)
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


def stepped_theta(ctx, tau: float) -> float:
    """Polar angle v_m tau - arg z(tau), z(s) = sigma(v - s)/sigma(v + s) exp(2 s zeta(v)).

    Reference for the closed-form angle: the argument of z is unwrapped in
    steps from s = 0, with no period folding and no branch of log sigma.
    The phase speed v_m - h/r lies in [0, v_m), so steps of pi/(2 v_m) move
    it by less than pi/2 and cannot alias.
    """
    lat = ctx.lattice

    def phase(s):
        return (lat.sigma(ctx.v - s) / lat.sigma(ctx.v + s)
                * cmath.exp(2.0 * s * ctx.zeta_v))

    steps = max(1, math.ceil(abs(tau) * ctx.v_m / (0.5 * math.pi)))
    arg, prev = 0.0, 1.0 + 0j
    for j in range(1, steps + 1):
        z = phase(tau * j / steps)
        arg += cmath.phase(z / prev)
        prev = z
    return ctx.v_m * tau - arg
