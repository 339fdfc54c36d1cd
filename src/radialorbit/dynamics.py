"""Problem setup: conserved quantities, the dynamics cubic f(r), taxonomy.

Canonical units with mu = 1 throughout.  The radial motion is governed by
(r dr/dt)^2 = f(r) = 2 a r^3 + 2 E r^2 + 2 r - h^2, so the sign structure
of f over r > 0 fixes where motion is allowed and whether it is bounded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .cubic import solve_cubic
from .errors import (
    InfeasibleStateError,
    NoPericenterError,
    QuadraticDegeneracyError,
)

_ALPHA_FLOOR = 1e-12   # |alpha| below this counts as the Kepler limit
_FEAS_RTOL = 1e-12     # clamp band for f(r0) slightly negative from rounding


@dataclass(frozen=True)
class InitialState:
    """Radius, speed, flight-path angle and radial acceleration (mu = 1).

    Negative ``alpha`` is an inward acceleration.  ``gamma0`` is the
    flight-path angle in radians; gamma0 = 0 means a purely transverse
    velocity (apse passage).
    """

    r0: float
    v0: float
    gamma0: float
    alpha: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.r0, self.v0, self.gamma0, self.alpha))):
            raise ValueError("state fields must be finite")
        if self.r0 <= 0.0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if self.v0 < 0.0:
            raise ValueError(f"v0 must be nonnegative, got {self.v0}")
        if abs(self.gamma0) > math.pi / 2.0 + 1e-12:
            raise ValueError("gamma0 must lie in [-pi/2, pi/2]")

    @property
    def energy(self) -> float:
        return 0.5 * self.v0**2 - 1.0 / self.r0 - self.alpha * self.r0

    @property
    def momentum(self) -> float:
        c = math.cos(self.gamma0)
        if abs(c) < 1e-15:  # gamma0 = +/- pi/2 up to rounding of pi
            c = 0.0
        return self.r0 * self.v0 * c

    @property
    def rdot0(self) -> float:
        return self.v0 * math.sin(self.gamma0)


@dataclass(frozen=True)
class CubicF:
    """f(r) = 2 a r^3 + 2 E r^2 + 2 r - h^2 with ordered roots.

    Root order follows the descending (Im, Re) convention: with three real
    roots e1 >= e2 > e3; otherwise e2 is the real root and e1 = conj(e3).
    """

    alpha: float
    energy: float
    momentum: float
    e1: complex
    e2: complex
    e3: complex
    discriminant: float

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (2.0 * self.alpha, 2.0 * self.energy, 2.0, -self.momentum**2)

    @property
    def roots(self) -> tuple[complex, complex, complex]:
        return (self.e1, self.e2, self.e3)

    def __call__(self, r: float) -> float:
        c3, c2, c1, c0 = self.coefficients
        return ((c3 * r + c2) * r + c1) * r + c0

    def df(self, r: float) -> float:
        return (6.0 * self.alpha * r + 4.0 * self.energy) * r + 2.0

    def d2f(self, r: float) -> float:
        return 12.0 * self.alpha * r + 4.0 * self.energy

    @property
    def d3f(self) -> float:
        return 12.0 * self.alpha

    def real_roots_desc(self) -> list[float]:
        scale = max(abs(z) for z in self.roots) + 1e-300
        out = [z.real for z in self.roots if abs(z.imag) <= 1e-11 * scale]
        out.sort(reverse=True)
        return out


class MotionTag(enum.Enum):
    """Shape of the allowed radial component containing the state."""

    BOUNDED_ANNULUS = "bounded-annulus"
    UNBOUNDED_ABOVE = "unbounded-above"
    BOUNDED_BELOW_GAP = "bounded-below-gap"  # bounded, forbidden gap, outer region above


@dataclass(frozen=True)
class MotionClass:
    tag: MotionTag
    r_lo: float
    r_hi: float  # math.inf when unbounded

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_hi)

    def contains(self, r: float) -> bool:
        pad = 1e-9 * max(1.0, abs(self.r_lo), 0.0 if math.isinf(self.r_hi) else self.r_hi)
        return self.r_lo - pad <= r <= self.r_hi + pad


def build_f(state: InitialState) -> CubicF:
    """Dynamics cubic with Table-ordered roots; requires alpha != 0."""
    if abs(state.alpha) < _ALPHA_FLOOR:
        raise QuadraticDegeneracyError(
            "alpha = 0 reduces f(r) to a quadratic (Kepler limit); "
            "the cubic machinery does not apply"
        )
    e = state.energy
    h = state.momentum
    c3, c2, c1, c0 = 2.0 * state.alpha, 2.0 * e, 2.0, -h * h
    roots, disc, _ = solve_cubic(c3, c2, c1, c0)
    cubic = CubicF(
        alpha=state.alpha, energy=e, momentum=h,
        e1=roots[0], e2=roots[1], e3=roots[2],
        discriminant=disc,
    )
    scale = max(abs(c) for c in (c3, c2, c1, c0))
    f0 = cubic(state.r0)
    if f0 < -_FEAS_RTOL * scale * max(1.0, state.r0**3):
        raise InfeasibleStateError(
            f"f(r0) = {f0:.3e} < 0: state inconsistent with its own invariants"
        )
    return cubic


def _allowed_components(f: CubicF) -> list[tuple[float, float]]:
    """Connected components of {r > 0 : f(r) >= 0}, ascending."""
    bounds = [0.0] + [r for r in sorted(f.real_roots_desc()) if r > 0.0]
    comps: list[tuple[float, float]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if f(0.5 * (lo + hi)) > 0.0:
            comps.append((lo, hi))
    top = bounds[-1]
    if f(top + max(1.0, top)) > 0.0:  # sign of the leading coefficient tail
        comps.append((top, math.inf))
    # merge components that share a double-root endpoint
    merged: list[tuple[float, float]] = []
    for lo, hi in comps:
        if merged and math.isclose(merged[-1][1], lo, rel_tol=1e-12, abs_tol=0.0):
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def classify_region(f: CubicF, r0: float) -> MotionClass:
    """Allowed component of f >= 0 containing r0, tagged bounded/unbounded."""
    comps = _allowed_components(f)
    scale = max(1.0, r0)
    for i, (lo, hi) in enumerate(comps):
        pad = 1e-9 * scale
        if lo - pad <= r0 <= (hi if math.isfinite(hi) else math.inf) + pad:
            if not math.isfinite(hi):
                return MotionClass(MotionTag.UNBOUNDED_ABOVE, lo, math.inf)
            tag = (
                MotionTag.BOUNDED_BELOW_GAP
                if i + 1 < len(comps)
                else MotionTag.BOUNDED_ANNULUS
            )
            return MotionClass(tag, lo, hi)
    raise InfeasibleStateError(
        f"r0 = {r0} lies in a forbidden region (f(r0) < 0)"
    )


def pericenter(f: CubicF, region: MotionClass, r0: float) -> tuple[float, float]:
    """(r_m, v_m): closest real root <= r0 and the speed there (v_m = h/r_m).

    The pericenter is the lower endpoint of ``region``, the allowed component
    holding r0; the flight-path angle vanishes there, so h = r_m v_m.
    """
    r_m = region.r_lo
    if r_m <= 1e-9 * r0:
        raise NoPericenterError(
            "allowed component extends to r = 0 (h = 0 radial infall)"
        )
    if f.momentum <= 0.0:
        raise NoPericenterError("pericenter speed undefined for h = 0")
    return r_m, f.momentum / r_m

