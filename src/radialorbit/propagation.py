"""Closed-form state propagation in pseudo-time and physical time.

With pseudo-time tau defined by dt = r dtau (Sundmann change of variable)
and the epoch at pericenter passage, the radius, polar angle and time read

    r(tau)     = r_m + f'(r_m) / (4 (p(tau) - ek)),        ek = f''(r_m)/24
    theta(tau) = v_m tau - Im[L(v - tau) - L(v + tau) + 2 tau zeta(v)]
    t(tau)     = r_m tau - ek f'(r_m) / (2 g3 + 16 ek^3)
                 * [2 ek tau + zeta(tau - w_k) + zeta(tau + w_k)]

where p, zeta, sigma live on the lattice with invariants g2 = E^2/3 - a,
g3 = a^2 h^2/4 + a E/6 - E^3/27, ek is always a root of 4 s^3 - g2 s - g3,
w_k is the half-period with p(w_k) = ek, and p(v) = ek - f'(r_m)/(4 r_m)
with p'(v) on the +i branch, which puts v above the real axis.  t(tau) is
the radial Kepler equation; its numerical inversion recovers the state as
a function of physical time.

theta is the paper's v_m tau - arg[sigma(v - tau)/sigma(v + tau)
exp(2 tau zeta(v))] with the argument continuous in tau: L is the branch of
log sigma that ``Lattice.log_sigma`` keeps continuous along the line
Im z = Im v > 0 on which v -/+ tau run, so theta costs two sigma
evaluations for any tau.

``build_context`` evaluates what does not depend on tau once per state:
the pole v and zeta(v), the epoch (tau0, t0 and theta0 = theta(tau0), from
which propagated angles are measured) and, for bounded motion, the
periods.  The lattice of bounded motion is rectangular; T_tau = 2 omega is
its real period.  Quasi-periodicity turns zeta(T_tau - w_k) + zeta(T_tau + w_k)
into 4 eta (eta = zeta(omega)), and L(v - T_tau) - L(v + T_tau) into
-4 eta v + 2 pi i, so t and theta advance per period by

    T_t    = r_m T_tau - ek f'(r_m) / (2 g3 + 16 ek^3) * (2 ek T_tau + 4 eta),
    dtheta = v_m T_tau - 4 Im[omega zeta(v) - eta v] - 2 pi.

Bounded t and theta fold whole periods off by these increments, which
keeps sigma's quasi-periodic factor within one period of the origin.

Equivalent affine route used for cross-checks and the degenerate Kepler
coefficient: r(tau) = (2/a) p(tau + w_k) - E/(3a), whence
t(tau) = -(2/a) [zeta(tau + w_k) - zeta(w_k)] - E tau/(3a).
"""

from __future__ import annotations

import dataclasses
import math

from . import dynamics
from .dynamics import CubicF, InitialState, MotionClass
from .errors import (
    ConvergenceError,
    NonMonotoneArcError,
    NoPericenterError,
    OutOfIntervalError,
    PoleProximityError,
    RadialOrbitError,
)
from .weierstrass import Invariants, Lattice

_PERI_TAU_GUARD = 1e-6     # below this |tau| the Laurent expansion takes over
_REAL_SNAP = 1e-9


@dataclasses.dataclass(frozen=True)
class SolutionContext:
    """Everything needed to evaluate the closed form for one instance.

    Immutable after construction; safe to share across threads.
    """

    state: InitialState
    energy: float
    momentum: float
    f: CubicF
    region: MotionClass
    r_m: float
    v_m: float
    lattice: Lattice
    k: int                      # index with e_tilde_k = f''(r_m)/24
    e_k: float
    bounded: bool
    margin: float               # max real g-root minus e_k (0 when unbounded)
    v: complex                  # theta pole location, p(v) = e_k - f'(r_m)/(4 r_m)
    zeta_v: complex
    kepler_coeff: float         # ek f'(r_m) / (2 g3 + 16 ek^3); nan -> affine route
    tau0: float
    t0: float
    theta0: float               # theta(tau0): the epoch angle from pericenter
    T_tau: float | None
    T_t: float | None
    dtheta_period: float | None


@dataclasses.dataclass(frozen=True)
class PropagatedState:
    """State at pseudo-time tau; t counts from pericenter, theta from the epoch."""

    r: float
    theta: float
    v: float
    gamma: float
    tau: float
    t: float


def invariants_from_conserved(alpha: float, energy: float, momentum: float) -> Invariants:
    g2 = energy**2 / 3.0 - alpha
    g3 = alpha**2 * momentum**2 / 4.0 + alpha * energy / 6.0 - energy**3 / 27.0
    return Invariants(g2, g3)


def build_context(state: InitialState) -> SolutionContext:
    """Assemble the closed-form evaluation context for one initial state."""
    e = state.energy
    h = state.momentum
    if h <= 0.0:
        raise NoPericenterError("closed-form solution requires h > 0")
    f = dynamics.build_f(state)
    region = dynamics.classify_region(f, state.r0)
    r_m, v_m = dynamics.pericenter(f, state.r0)
    lat = Lattice(invariants_from_conserved(state.alpha, e, h))

    e_k = 0.5 * state.alpha * r_m + e / 6.0  # f''(r_m)/24
    g2, g3 = lat.inv.g2, lat.inv.g3
    scale = max(1.0, abs(g2), abs(g3))
    if abs(4.0 * e_k**3 - g2 * e_k - g3) > 1e-9 * scale:
        raise RadialOrbitError(
            "f''(r_m)/24 fails to be a root of the lattice cubic; "
            "inconsistent pericenter"
        )
    k = min((1, 2, 3), key=lambda i: abs(lat.roots.e_tilde[i - 1] - e_k))
    margin = lat.roots.max_real_root - e_k
    bounded = region.bounded

    fp_m = f.df(r_m)
    w_v = e_k - 0.25 * fp_m / r_m          # p(v) = -delta/gamma
    v = lat.wp_inverse(w_v, branch=+1)
    target = 0.25 * v_m * fp_m / r_m       # p'(v) must equal +i * target
    pv = lat.wp_prime(v)
    if abs(pv - 1j * target) > 1e-7 * (1.0 + abs(target)):
        raise RadialOrbitError(
            f"theta branch selection failed: p'(v) = {pv!r}, expected {1j * target!r}"
        )
    zeta_v = lat.zeta(v)

    denom = 2.0 * g3 + 16.0 * e_k**3
    coeff = (e_k * fp_m / denom) if abs(denom) > 1e-13 * scale else math.nan

    if bounded:
        # T_tau = 2 omega; T_t and dtheta in closed form (module docstring)
        t_tau = 2.0 * lat.real_half_period
        eta = lat.periods.eta.real
        if math.isfinite(coeff):
            t_t = r_m * t_tau - coeff * (2.0 * e_k * t_tau + 4.0 * eta)
        else:
            t_t = -4.0 * eta / state.alpha - e * t_tau / (3.0 * state.alpha)
        dtheta = (v_m * t_tau
                  - 4.0 * (0.5 * t_tau * zeta_v - v * lat.periods.eta).imag
                  - 2.0 * math.pi)
    else:
        t_tau = t_t = dtheta = None

    ctx = SolutionContext(
        state=state, energy=e, momentum=h, f=f, region=region,
        r_m=r_m, v_m=v_m, lattice=lat, k=k, e_k=e_k,
        bounded=bounded, margin=margin,
        v=v, zeta_v=zeta_v, kepler_coeff=coeff,
        tau0=0.0, t0=0.0, theta0=0.0, T_tau=t_tau, T_t=t_t,
        dtheta_period=dtheta,
    )
    tau0 = t0 = 0.0
    if abs(state.r0 - r_m) > 1e-12 * max(1.0, r_m):
        sign = 1 if state.rdot0 >= 0.0 else -1
        tau0 = tau0_from_r0(ctx, state.r0, sign)
        t0 = radial_kepler(ctx, tau0)
    return dataclasses.replace(ctx, tau0=tau0, t0=t0,
                               theta0=theta_of_tau(ctx, tau0))


def _periods_folded(ctx: SolutionContext, tau: float) -> tuple[int, float]:
    """(n, tau - n T_tau) with n = floor(tau / T_tau); (0, tau) when unbounded."""
    if not ctx.bounded:
        return 0, tau
    n = math.floor(tau / ctx.T_tau)
    return n, tau - n * ctx.T_tau


def _radius_and_slope(ctx: SolutionContext, tau: float) -> tuple[float, float]:
    """(r, dr/dtau) at pseudo-time tau from one kernel evaluation."""
    # fold tau to the pericenter-centered representative so period
    # multiples hit the series expansion instead of the lattice pole
    period = 2.0 * ctx.lattice.real_half_period
    tau_c = tau - period * round(tau / period)
    fp_m = ctx.f.df(ctx.r_m)
    if abs(tau_c) < _PERI_TAU_GUARD:
        return ctx.r_m + 0.25 * fp_m * tau_c * tau_c, 0.5 * fp_m * tau_c
    p, pp, _, _ = ctx.lattice.wp_all(complex(tau_c))
    return (ctx.r_m + 0.25 * fp_m / (p.real - ctx.e_k),
            (-0.25 * fp_m * pp / (p - ctx.e_k) ** 2).real)


def r_of_tau(ctx: SolutionContext, tau: float) -> float:
    """Radius at pseudo-time tau measured from pericenter passage (even in tau)."""
    return _radius_and_slope(ctx, tau)[0]


def r_prime_of_tau(ctx: SolutionContext, tau: float) -> float:
    """dr/dtau; equals +/- sqrt(f(r)) along the trajectory."""
    return _radius_and_slope(ctx, tau)[1]


def r_of_tau_general(state: InitialState, tau: float) -> float:
    """Radius from an arbitrary epoch radius via the general inversion formula.

    Works directly from r0 (no pericenter shift): with F = f(r0) and the
    branch of sqrt(F) tied to the sign of the initial radial velocity,
    r(tau) solves (dr/dtau)^2 = f(r) with r(0) = r0.  Agrees with the
    pericenter form shifted by tau0 wherever both are defined.
    """
    f = dynamics.build_f(state)
    lat = Lattice(invariants_from_conserved(state.alpha, state.energy,
                                            state.momentum))
    r0 = state.r0
    big_f = max(f(r0), 0.0)
    s = 1.0 if state.rdot0 >= 0.0 else -1.0
    if abs(tau) < _PERI_TAU_GUARD:
        return r0 + s * math.sqrt(big_f) * tau + 0.25 * f.df(r0) * tau * tau
    p, pp, _, _ = lat.wp_all(complex(tau))
    gk = f.d2f(r0) / 24.0
    num = (-s * math.sqrt(big_f) * pp
           + big_f * f.d3f / 24.0
           + 0.5 * f.df(r0) * (p - gk))
    den = 2.0 * (p - gk) ** 2
    return (r0 + num / den).real


def tau0_from_r0(ctx: SolutionContext, r0: float, sign_rdot: int) -> float:
    """Pseudo-time at radius r0 on the branch with sign(dr/dtau) = sign_rdot.

    Bounded motion returns tau0 in [0, T_tau); an inbound unbounded state
    returns a negative tau0 (pericenter passage lies ahead at tau = 0).
    """
    if sign_rdot not in (-1, 1):
        raise ValueError("sign_rdot must be +1 or -1")
    if not ctx.region.contains(r0):
        raise OutOfIntervalError(
            f"r0 = {r0} outside allowed interval "
            f"[{ctx.region.r_lo}, {ctx.region.r_hi}]"
        )
    if abs(r0 - ctx.r_m) <= 1e-12 * max(1.0, ctx.r_m):
        return 0.0
    if ctx.bounded and abs(r0 - ctx.region.r_hi) <= 1e-12 * max(1.0, ctx.region.r_hi):
        return 0.5 * ctx.T_tau  # apocenter: both branches meet at the half period
    w = ctx.e_k + 0.25 * ctx.f.df(ctx.r_m) / (r0 - ctx.r_m)
    z = ctx.lattice.wp_inverse(w, branch=-1)   # ascending branch: p' <= 0
    if abs(z.imag) > _REAL_SNAP * (1.0 + abs(z)):
        raise RadialOrbitError(f"pseudo-time inversion left the real axis: {z!r}")
    z = abs(z.real)
    if sign_rdot > 0:
        return z
    return ctx.T_tau - z if ctx.bounded else -z


# -- polar angle ---------------------------------------------------------

def theta_of_tau(ctx: SolutionContext, tau: float) -> float:
    """Continuous polar angle with theta(0) = 0 at pericenter.

    theta = v_m tau - Im[L(v - tau) - L(v + tau) + 2 tau zeta(v)], L = B +
    Log(sigma exp(-B)) with the carrier B(z) = eta z^2/(2 omega) +
    log(2 omega/pi) + log sin(pi z/(2 omega)) of ``Lattice.log_sigma``.
    L is continuous in tau while Im v > 0 and sigma exp(-B), the theta_1
    product, keeps off the negative real axis along Im z = Im v.  Bounded
    motion folds whole pseudo-periods, each adding ``dtheta_period``.
    """
    n, tau = _periods_folded(ctx, tau)
    lat = ctx.lattice
    phase = (lat.log_sigma(ctx.v - tau) - lat.log_sigma(ctx.v + tau)
             + 2.0 * tau * ctx.zeta_v)
    theta = ctx.v_m * tau - phase.imag
    return theta + n * ctx.dtheta_period if n else theta


# -- radial Kepler equation ----------------------------------------------

def radial_kepler(ctx: SolutionContext, tau: float) -> float:
    """Physical time since pericenter passage, t(0) = 0, odd and increasing.

    Bounded motion folds whole pseudo-periods, t(tau + n T_tau) = t(tau) + n T_t.
    """
    n, tau = _periods_folded(ctx, tau)
    t = 0.0
    if tau != 0.0:
        lat, alpha = ctx.lattice, ctx.state.alpha
        w_k = lat.periods.omega_k(ctx.k)
        if math.isfinite(ctx.kepler_coeff):
            zsum = lat.zeta(tau - w_k) + lat.zeta(tau + w_k)
            t = (ctx.r_m * tau
                 - ctx.kepler_coeff * (2.0 * ctx.e_k * tau + zsum)).real
        else:
            t = (-(2.0 / alpha) * (lat.zeta(tau + w_k) - lat.periods.eta_k(ctx.k))
                 - ctx.energy * tau / (3.0 * alpha)).real
    return t + n * ctx.T_t if n else t


def invert_kepler(ctx: SolutionContext, t: float) -> float:
    """Solve t(tau) = t for tau; safeguarded Newton on the monotone branch."""
    if t == 0.0:
        return 0.0
    if ctx.bounded:
        n_per = math.floor(t / ctx.T_t)
        t_r = t - n_per * ctx.T_t
        guess = t_r / ctx.T_t * ctx.T_tau
        tau = _newton_bisect(ctx, t_r, 0.0, ctx.T_tau, guess)
        return tau + n_per * ctx.T_tau
    if t < 0.0:
        return -invert_kepler(ctx, -t)
    # unbounded: escape as tau -> real half period; bracket from below
    asymptote = ctx.lattice.real_half_period
    hi = 0.5 * asymptote
    for _ in range(200):
        try:
            if radial_kepler(ctx, hi) >= t:
                break
        except PoleProximityError:
            hi = 0.5 * (hi + asymptote * (1.0 - 1e-9))
            break
        hi = 0.5 * (hi + asymptote)
    else:
        raise ConvergenceError("failed to bracket the escape asymptote")
    return _newton_bisect(ctx, t, 0.0, hi, min(t / ctx.r_m, hi))


def _newton_bisect(ctx: SolutionContext, t: float, lo: float, hi: float,
                   guess: float) -> float:
    tol = 1e-13 * max(1.0, abs(t))
    tau = min(max(guess, lo), hi)
    for _ in range(100):
        err = radial_kepler(ctx, tau) - t
        if abs(err) <= tol:
            return tau
        if err > 0.0:
            hi = tau
        else:
            lo = tau
        step = err / r_of_tau(ctx, tau)   # dt/dtau = r > 0
        tau_new = tau - step
        if not (lo < tau_new < hi):
            tau_new = 0.5 * (lo + hi)
        if tau_new == tau:
            return tau
        tau = tau_new
    raise ConvergenceError(
        f"radial Kepler inversion failed to reach {tol:.1e} for t={t!r}"
    )


def time_of_flight_implicit(ctx: SolutionContext, r_start: float, r_end: float,
                            ascending: bool = True) -> float:
    """Time of flight along a monotone radial arc via the zeta quadrature.

    dt integrates to (2/a)(zeta(rho_a) - zeta(rho_b)) + E/(3a) (rho_a - rho_b)
    with rho = tau + w_k the p-preimage of f''(r)/24; independent of the
    radial Kepler route, which it must reproduce on every monotone arc.
    """
    if r_start == r_end:
        return 0.0
    if (ascending and r_start > r_end) or (not ascending and r_start < r_end):
        raise NonMonotoneArcError(
            f"arc {r_start} -> {r_end} is not monotone "
            f"{'ascending' if ascending else 'descending'}"
        )
    for r in (r_start, r_end):
        if not ctx.region.contains(r):
            raise OutOfIntervalError(f"radius {r} outside the allowed interval")
    sign = 1 if ascending else -1
    tau_a = tau0_from_r0(ctx, r_start, sign)
    tau_b = tau0_from_r0(ctx, r_end, sign)
    if tau_b < tau_a:
        raise NonMonotoneArcError("arc endpoints straddle a turning point")
    a, e = ctx.state.alpha, ctx.energy
    w_k = ctx.lattice.periods.omega_k(ctx.k)
    rho_a, rho_b = tau_a + w_k, tau_b + w_k
    val = ((2.0 / a) * (ctx.lattice.zeta(rho_a) - ctx.lattice.zeta(rho_b))
           + e / (3.0 * a) * (rho_a - rho_b))
    return val.real


def propagate(state: InitialState, dt: float) -> PropagatedState:
    """Full state at epoch + dt; theta is measured from the epoch position."""
    return propagate_ctx(build_context(state), dt)


def propagate_ctx(ctx: SolutionContext, dt: float) -> PropagatedState:
    """State at epoch + dt."""
    tau = invert_kepler(ctx, ctx.t0 + dt) if dt != 0.0 else ctx.tau0
    return _state(ctx, tau, ctx.t0 + dt)


def state_at_tau(ctx: SolutionContext, tau: float) -> PropagatedState:
    """State at pseudo-time tau measured from pericenter passage."""
    return _state(ctx, tau, radial_kepler(ctx, tau))


def _state(ctx: SolutionContext, tau: float, t: float) -> PropagatedState:
    r, rp = _radius_and_slope(ctx, tau)
    theta = theta_of_tau(ctx, tau) - ctx.theta0
    v_sq = 2.0 * ctx.energy + 2.0 / r + 2.0 * ctx.state.alpha * r
    v = math.sqrt(max(v_sq, 0.0))
    gamma = math.atan2(rp, ctx.momentum)
    return PropagatedState(r=r, theta=theta, v=v, gamma=gamma, tau=tau, t=t)
