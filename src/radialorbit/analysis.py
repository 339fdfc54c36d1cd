"""Boundedness, the escape threshold and periodic-orbit search.

Bounded radial motion has pseudo-period T_tau, the real period of the
lattice, and physical period T_t = t(T_tau); the frame stage of
``SolutionContext`` computes both once (``T_tau`` and ``T_t``), in closed
form from K and E.  ``true_period_implicit`` recomputes T_t as
-(4 eta + 2 E omega/3)/a, the quadrature of the time of flight.  Boundedness itself is the
root structure of f, solved once at r0 (``dynamics.build_f``): the
allowed component holding r0 is bounded iff a root of f lies above it,
which with a > 0 needs three real roots and r0 below the upper two.  The
escape threshold is where those two merge: with alpha eliminated from
f = f' = 0 that is one cubic in the merge offset from r0, so
``escape_alpha`` takes the threshold from its roots and evaluates
boundedness only at the bracket ends and between candidates.  The closed
form also gives the angle advance per radial period, v_m T_tau -
4 Im[omega zeta(v) - eta v] - 2 pi, a smooth function of the pericenter
speed, so closed orbits are the roots of a 1-D function:
``find_periodic_v`` solves it by safeguarded regula falsi.  Each
evaluation builds a ``SolutionContext`` to its pole stage, and the
closing speed's context, kept from its evaluation, adds the epoch stage.
"""

from __future__ import annotations

import collections
import math

from . import dynamics, propagation
from .cubic import cubic_roots
from .dynamics import InitialState
from .errors import (
    BracketError,
    ConvergenceError,
    NoCrossingError,
    UnboundedMotionError,
)
from .propagation import SolutionContext

_MARGINAL_BAND = 1e-9
_BRACKET_TOL = 1e-12      # relative width at which find_periodic_v stops
_RATIO_LEVEL = 2.0**-50   # rounding level of the winding ratio: 4 ulps of the target


class BoundednessReport(collections.namedtuple(
        "BoundednessReport", "bounded marginal e_tilde_max threshold margin f region")):
    """``boundedness_from_state``'s verdict.

    ``bounded`` is region.bounded; ``marginal``, the pair that merges at
    escape within _MARGINAL_BAND; ``e_tilde_max``, the largest real lattice
    root, the minimum of p on the real axis; ``threshold``, f''(r_m)/24,
    the lattice root of r_m; ``margin``, e_tilde_max - threshold; ``f``,
    the dynamics cubic; ``region``, the allowed component of f >= 0 holding
    r0.
    """

    __slots__ = ()


def true_period_implicit(ctx: SolutionContext) -> float:
    """T_t as -(4 eta + 2 E omega/3)/a, eta = zeta(omega) and omega = T_tau/2.

    That is the quadrature of dt = r dtau, r = (2/a) p(tau + w_k) - E/(3a),
    from pericenter to apocenter, (2/a)(zeta(w_k) - zeta(omega + w_k)) -
    E omega/(3a), doubled: zeta(omega + w_k) - zeta(w_k) = eta for every
    k by quasi-periodicity.  It reads eta = eta_r from the lattice's real
    half, which the frame builds, independent of the t(tau) route.
    """
    if not ctx.bounded:
        raise UnboundedMotionError("no period: motion is unbounded")
    lat = ctx.lattice
    return -(4.0 * lat.eta_r + 2.0 * ctx.energy * lat.real_half_period / 3.0) / ctx.state.alpha


def boundedness_from_state(state: InitialState) -> BoundednessReport:
    """Boundedness from the roots of f alone (``propagation._lattice_roots``).

    ``bounded`` is that of the allowed region; the margin, of the largest
    real lattice root over e_k (0 beside a conjugate pair).  ``marginal``:
    the two lattice roots besides e_k, which merge at the escape threshold,
    lie within ``_MARGINAL_BAND``, |a (r_i - r_j)|/2 for f's roots.  No
    pericenter is needed, so a region that reaches down to r = 0 (h = 0)
    is classified too.
    """
    f = dynamics.build_f(state)
    region = dynamics.classify_region(f, state.r0)
    threshold, roots, k, _ = propagation._lattice_roots(f, region)
    margin = (0.0, *roots.gaps[:2])[k - 1].real if roots.e_tilde[0].imag == 0.0 else 0.0
    return BoundednessReport(
        bounded=region.bounded,
        marginal=abs(roots.gaps[3 - k]) < _MARGINAL_BAND,
        e_tilde_max=threshold + margin,
        threshold=threshold,
        margin=margin,
        f=f,
        region=region,
    )


def escape_alpha(r0: float, v0: float, gamma0: float,
                 alpha_lo: float, alpha_hi: float) -> float:
    """Escape threshold in alpha of the state (r0, v0, gamma0), in closed form.

    The bracket must be bounded at alpha_lo and unbounded at alpha_hi.
    Boundedness is that of the allowed region of f; below the Kepler floor
    of ``dynamics.build_f`` it is Kepler's E < 0, and inward thrust
    (alpha < 0) always confines.

    With (F0, G1, G2) the Taylor coefficients of f at r0 for alpha = 0
    (``dynamics._taylor_coefficients``), f(r0 + x) = K(x) + 2 alpha x rho^2
    with K = F0 + G1 x + G2 x^2 and rho = r0 + x.  If E = G2 r0/2 >= 0 at
    alpha = 0 the threshold is 0 exactly: then G1 = 2 (u - 1) > 0, with
    u = r0 v0^2, so f > 0 everywhere above r0 once alpha > 0.  Otherwise
    boundedness is lost where two roots of f merge: f = f' = 0, which with
    alpha eliminated is one cubic in the merge offset,

        G2 x^3 + (2 G1 - G2 r0) x^2 + 3 F0 x + F0 r0 = 0.

    Each real root with rho > 0 gives a candidate alpha = -K'(x) /
    (2 rho (rho + 2 x)) from f' = 0, or equally -K(x) / (2 x rho^2) from
    f = 0.  The second is the one evaluated: f' = 0 at the double root
    makes it stationary in x, so the rounding of the root enters only at
    second order, and its denominator stays positive where rho + 2 x = 0.
    K/x = F0/x + G1 + G2 x, which is G1 at x = 0.  At an apse start
    (F0 = 0) the candidates are (1 - u)/r0^2 and (2 - u)^2/(8 r0^3 v0^2).
    One candidate in the bracket is the threshold; between several,
    boundedness at the midpoints picks the first flip from bounded to
    unbounded.
    """
    def is_bounded(alpha: float) -> bool:
        state = InitialState(r0, v0, gamma0, alpha)
        if alpha < dynamics._ALPHA_FLOOR:
            return alpha < 0.0 or state.energy < 0.0
        return dynamics.classify_region(dynamics.build_f(state), r0).bounded

    if not is_bounded(alpha_lo) or is_bounded(alpha_hi):
        raise BracketError(
            f"need bounded at alpha={alpha_lo} and unbounded at alpha={alpha_hi}"
        )
    f0, g1, g2, _ = dynamics._taylor_coefficients(InitialState(r0, v0, gamma0, 0.0))
    if g2 >= 0.0:
        return 0.0
    candidates = set()
    for z in cubic_roots(f0 * r0, 3.0 * f0, 2.0 * g1 - g2 * r0, g2):
        rho = r0 + z.real
        if z.imag != 0.0 or rho <= 0.0:
            continue
        x = rho - r0                    # the offset that the rounded rho has
        p, p_lo = dynamics._two_product(g2, x)
        k_over_x = math.fsum((f0 / x if x else 0.0, g1, p, p_lo))
        candidates.add(-0.5 * k_over_x / (rho * rho))
    inside = sorted(a for a in candidates if alpha_lo <= a <= alpha_hi)
    if not inside:
        raise ConvergenceError(
            f"no double root of f for alpha in [{alpha_lo}, {alpha_hi}]"
        )
    for a, b in zip(inside, inside[1:]):
        if not is_bounded(0.5 * (a + b)):
            return a
    return inside[-1]


def find_periodic_v(r_m: float, alpha: float, q: tuple[int, int],
                    bracket: tuple[float, float]) -> tuple[float, SolutionContext]:
    """Pericenter speed closing the orbit after N radial periods, and its context.

    ``q = (M, N)`` requests a per-period angle advance congruent to
    +/- 2 pi M / N, so the trajectory repeats after N radial librations
    (an advance of 2 pi (n - M/N) describes the same closed orbit as a
    regression of 2 pi M/N past n full turns).  The winding ratio is
    smooth and monotone in v_m on the bracket, so regula falsi on it
    converges superlinearly.  Each step takes the secant point of the
    bracket ends, or the midpoint when that is not strictly inside.  An end
    kept twice running has its value scaled by the Anderson-Bjorck factor
    1 - f_new/f_old of the end replaced, or halved as in the Illinois method
    when that factor is not positive (Dowell & Jarratt, BIT 11, 1971;
    Anderson & Bjorck, BIT 13, 1973).  The search stops at the last
    evaluated speed when |f| is at the level the winding ratio is computed
    to, or the bracket is narrower than ``_BRACKET_TOL`` max(1, v_m).  The
    context that evaluation built takes the epoch stage; only the exit after
    200 steps, at a midpoint never evaluated, builds one afresh.
    """
    m_turns, n_periods = q
    if n_periods <= 0:
        raise ValueError("q = (M, N) needs N >= 1")

    def ratio(v_m: float) -> tuple[float, SolutionContext]:
        ctx = SolutionContext(InitialState(r_m, v_m, 0.0, alpha))
        if not ctx.bounded:
            raise UnboundedMotionError(f"v_m = {v_m} gives unbounded motion")
        return ctx.add_pole().dtheta_period / (2.0 * math.pi), ctx

    def closed(ctx: SolutionContext) -> tuple[float, SolutionContext]:
        return ctx.state.v0, ctx.add_epoch()

    lo, hi = bracket
    (d_lo, e_lo), (d_hi, e_hi) = ratio(lo), ratio(hi)
    d_min, d_max = min(d_lo, d_hi), max(d_lo, d_hi)
    frac = (m_turns / n_periods) % 1.0
    targets = sorted(
        n + s * frac
        for n in range(math.floor(d_min) - 1, math.ceil(d_max) + 2)
        for s in (1.0, -1.0)
        if d_min <= n + s * frac <= d_max
    )
    if not targets:
        raise NoCrossingError(
            f"winding ratio stays in [{d_min:.6f}, {d_max:.6f}] on the "
            f"bracket; no advance congruent to {m_turns}/{n_periods} crossed"
        )
    target = targets[0]
    level = _RATIO_LEVEL * max(1.0, abs(target))
    f_lo, f_hi = d_lo - target, d_hi - target
    if abs(f_lo) <= level:
        return closed(e_lo)
    if abs(f_hi) <= level:
        return closed(e_hi)
    moved = 0  # bracket end replaced by the last step: -1 lo, +1 hi
    for _ in range(200):
        v_m = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < v_m < hi:
            v_m = 0.5 * (lo + hi)
        d_v, e_v = ratio(v_m)
        f_v = d_v - target
        if abs(f_v) <= level:
            return closed(e_v)
        if (f_v > 0.0) == (f_lo > 0.0):
            if moved < 0:
                m = 1.0 - f_v / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo = v_m, f_v
            moved = -1
        else:
            if moved > 0:
                m = 1.0 - f_v / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi = v_m, f_v
            moved = 1
        if hi - lo < _BRACKET_TOL * max(1.0, abs(v_m)):
            return closed(e_v)
    v_m = 0.5 * (lo + hi)
    return v_m, propagation.build_context(InitialState(r_m, v_m, 0.0, alpha))

