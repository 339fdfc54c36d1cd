"""Boundedness, the escape threshold and periodic-orbit search.

Bounded radial motion has pseudo-period T_tau, the real period of the
lattice, and physical period T_t = t(T_tau); ``build_context`` computes
both once (``SolutionContext.T_tau`` and ``T_t``), T_t in closed form
through eta = zeta(T_tau/2).  ``true_period_implicit`` recomputes T_t by
the zeta quadrature of the time of flight.  Boundedness itself is a pure
root comparison: the motion is bounded iff the largest real root of
4 s^3 - g2 s - g3 strictly exceeds f''(r_m)/24.  The closed form also
gives the angle advance per radial period, v_m T_tau - 4 Im[omega zeta(v)
- eta v] - 2 pi, a smooth function of the pericenter speed, so closed
orbits are the roots of a 1-D function: ``find_periodic_v`` solves it by
safeguarded regula falsi, each evaluation on the frame and pole stages
of ``build_context`` alone (``build_frame``, ``build_pole``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import dynamics, propagation
from .dynamics import CubicF, InitialState, MotionClass
from .errors import (
    BracketError,
    DegenerateLatticeError,
    NoCrossingError,
    UnboundedMotionError,
)
from .propagation import SolutionContext, build_frame, build_pole
from .weierstrass import g_roots

_MARGINAL_BAND = 1e-9


@dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    marginal: bool
    e_tilde_max: float     # largest real root = minimum of p on the real axis
    threshold: float       # f''(r_m)/24
    margin: float          # e_tilde_max - threshold
    f: CubicF
    region: MotionClass    # allowed component of f >= 0 holding r0


def true_period_implicit(ctx: SolutionContext) -> float:
    """T_t as twice the pericenter-to-apocenter implicit time of flight."""
    if not ctx.bounded:
        raise UnboundedMotionError("no period: motion is unbounded")
    return 2.0 * propagation.time_of_flight_implicit(
        ctx, ctx.region.r_lo, ctx.region.r_hi, ascending=True
    )


def boundedness_from_state(state: InitialState) -> BoundednessReport:
    """Boundedness without building the full solution context.

    Only the two cubics are solved; usable arbitrarily close to the
    degenerate boundary where the lattice itself cannot be constructed.
    """
    f = dynamics.build_f(state)
    region = dynamics.classify_region(f, state.r0)
    r_m, _ = dynamics.pericenter(f, region, state.r0)
    threshold = 0.5 * state.alpha * r_m + state.energy / 6.0
    inv = propagation.invariants_from_conserved(
        state.alpha, state.energy, state.momentum
    )
    try:
        e_max = g_roots(inv).max_real_root
    except DegenerateLatticeError:
        # exactly on the double-root boundary: margin is identically zero
        e_max = threshold
    margin = e_max - threshold
    marginal = abs(margin) < _MARGINAL_BAND
    return BoundednessReport(
        bounded=margin > 0.0 and not marginal,
        marginal=marginal,
        e_tilde_max=e_max,
        threshold=threshold,
        margin=margin,
        f=f,
        region=region,
    )


def w_roots_pericenter(r0: float, v0: float, alpha: float) -> tuple[float, complex, complex]:
    """Lattice-cubic roots for a pericenter start in closed form.

    w1 = alpha r0/2 + E/6; w2/w3 = -w1/2 +/- sqrt((2 - u)^2 - 8 a r0^3 v0^2)/(8 r0).
    """
    energy = 0.5 * v0 * v0 - 1.0 / r0 - alpha * r0
    w1 = 0.5 * alpha * r0 + energy / 6.0
    disc = (2.0 - r0 * v0 * v0) ** 2 - 8.0 * alpha * r0**3 * v0**2
    s = math.sqrt(abs(disc)) / (8.0 * r0)
    if disc >= 0.0:
        return w1, complex(-0.5 * w1 + s), complex(-0.5 * w1 - s)
    return w1, complex(-0.5 * w1, s), complex(-0.5 * w1, -s)


def escape_alpha(family: Callable[[float], InitialState],
                 alpha_lo: float, alpha_hi: float,
                 tol: float = 1e-10) -> float:
    """Bisect the boundedness margin over a one-parameter alpha family.

    ``family(alpha)`` must produce a valid state; the bracket must be
    bounded at alpha_lo and unbounded at alpha_hi.  Bisection stops once
    the bracket is narrower than ``tol`` or can no longer be halved.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    def is_bounded(alpha: float) -> bool:
        state = family(alpha)
        if state.alpha < 0.0:
            return True
        if abs(state.rdot0) <= 1e-14 * max(1.0, state.v0):
            # apse start: the root comparison has an exact closed form,
            # immune to the near-double-root noise at crossing thresholds
            w1, w2, w3 = w_roots_pericenter(state.r0, state.v0, alpha)
            if w2.imag != 0.0:
                return False
            return max(w2.real, w3.real) - w1 > 0.0
        rep = boundedness_from_state(state)
        # root-solver noise band: well under the bisection tolerance, well
        # over the ~1e-16 rounding of an exactly-zero margin
        return rep.margin > 1e-13 * max(1.0, abs(rep.e_tilde_max))

    if not is_bounded(alpha_lo) or is_bounded(alpha_hi):
        raise BracketError(
            f"need bounded at alpha={alpha_lo} and unbounded at alpha={alpha_hi}"
        )
    lo, hi = alpha_lo, alpha_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if is_bounded(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_periodic_v(r_m: float, alpha: float, q: tuple[int, int],
                    bracket: tuple[float, float],
                    tol: float = 1e-12) -> float:
    """Pericenter speed closing the orbit after N radial periods.

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
    evaluated speed when f = 0 or the bracket is narrower than
    tol * max(1, v_m).
    """
    m_turns, n_periods = q
    if n_periods <= 0:
        raise ValueError("q = (M, N) needs N >= 1")

    def ratio(v_m: float) -> float:
        frame = build_frame(InitialState(r_m, v_m, 0.0, alpha))
        if frame[-1] is None:           # no T_tau
            raise UnboundedMotionError(f"v_m = {v_m} gives unbounded motion")
        return build_pole(frame)[2] / (2.0 * math.pi)

    lo, hi = bracket
    d_lo, d_hi = ratio(lo), ratio(hi)
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
    f_lo, f_hi = d_lo - target, d_hi - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    moved = 0  # bracket end replaced by the last step: -1 lo, +1 hi
    for _ in range(200):
        v_m = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < v_m < hi:
            v_m = 0.5 * (lo + hi)
        f_v = ratio(v_m) - target
        if f_v == 0.0:
            return v_m
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
        if hi - lo < tol * max(1.0, abs(v_m)):
            return v_m
    return 0.5 * (lo + hi)

