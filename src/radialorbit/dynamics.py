"""Problem setup: conserved quantities, the dynamics cubic f(r), taxonomy.

Canonical units with mu = 1 throughout.  The radial motion is governed by
(r dr/dt)^2 = f(r) = 2 a r^3 + 2 E r^2 + 2 r - h^2, so the sign structure
of f over r > 0 fixes where motion is allowed and whether it is bounded.

The roots of f come from one real solve in x = r - r0 (``build_f``) on
the Taylor coefficients of f at r0, which need no E:

    f(r0 + x) = F0 + F1 x + F2 x^2 + F3 x^3,        F0 = (r0 rdot0)^2,
    F1 = 2 (r0 v0^2 - 1 + a r0^2),   F2 = 4 a r0 + v0^2 - 2/r0,   F3 = 2 a.

The allowed region, the lattice of the closed form
(``propagation.SolutionContext``) and boundedness all read these roots.
"""

from __future__ import annotations

import collections
import enum
import math
from bisect import bisect_left, bisect_right

from .cubic import cubic_roots
from .errors import (
    DegenerateLatticeError,
    InfeasibleStateError,
    NoPericenterError,
    QuadraticDegeneracyError,
)

_ALPHA_FLOOR = 1e-12   # |alpha| below this counts as the Kepler limit
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitting constant for doubles


class InitialState:
    """Radius, speed, flight-path angle and radial acceleration (mu = 1).

    Negative ``alpha`` is an inward acceleration.  ``gamma0`` is the
    flight-path angle in radians; gamma0 = 0 means a purely transverse
    velocity (apse passage).  A slotted class, as every propagated sample
    reads alpha; states with equal fields are equal.
    """

    __slots__ = ("r0", "v0", "gamma0", "alpha")

    def __init__(self, r0: float, v0: float, gamma0: float, alpha: float) -> None:
        if not all(map(math.isfinite, (r0, v0, gamma0, alpha))):
            raise ValueError("state fields must be finite")
        if r0 <= 0.0:
            raise ValueError(f"r0 must be positive, got {r0}")
        if v0 < 0.0:
            raise ValueError(f"v0 must be nonnegative, got {v0}")
        if abs(gamma0) > math.pi / 2.0 + 1e-12:
            raise ValueError("gamma0 must lie in [-pi/2, pi/2]")
        self.r0, self.v0, self.gamma0, self.alpha = r0, v0, gamma0, alpha

    def _key(self) -> tuple[float, float, float, float]:
        return self.r0, self.v0, self.gamma0, self.alpha

    def __eq__(self, other: object) -> bool:
        return type(other) is InitialState and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "InitialState(r0=%r, v0=%r, gamma0=%r, alpha=%r)" % self._key()

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


class CubicF:
    """f(r) = 2 a r^3 + 2 E r^2 + 2 r - h^2 with ordered roots.

    Root order follows the descending (Im, Re) convention: with three real
    roots r1 >= r2 >= r3; otherwise r2 is the real root and r1 = conj(r3).
    ``offsets`` are the roots minus the epoch radius r0, as solved: their
    differences keep the digits that those of ``roots`` lose to r0.  A
    slotted class, as each inversion step reads alpha and energy.
    """

    __slots__ = ("alpha", "energy", "momentum", "r0", "offsets")

    def __init__(self, alpha: float, energy: float, momentum: float, r0: float,
                 offsets: tuple[complex, complex, complex]) -> None:
        self.alpha, self.energy, self.momentum = alpha, energy, momentum
        self.r0, self.offsets = r0, offsets

    @property
    def roots(self) -> tuple[complex, ...]:
        return tuple(complex(self.r0 + x.real, x.imag) for x in self.offsets)

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (2.0 * self.alpha, 2.0 * self.energy, 2.0, -self.momentum**2)

    def __call__(self, r: float) -> float:
        c3, c2, c1, c0 = self.coefficients
        return ((c3 * r + c2) * r + c1) * r + c0

    def df(self, r: float) -> float:
        return (6.0 * self.alpha * r + 4.0 * self.energy) * r + 2.0

    def d2f(self, r: float) -> float:
        return 12.0 * self.alpha * r + 4.0 * self.energy


class MotionTag(enum.Enum):
    """Shape of the allowed radial component containing the state."""

    BOUNDED_ANNULUS = "bounded-annulus"
    UNBOUNDED_ABOVE = "unbounded-above"
    BOUNDED_BELOW_GAP = "bounded-below-gap"  # bounded, forbidden gap, outer region above


class MotionClass(collections.namedtuple("MotionClass", "tag r_lo r_hi")):
    """The allowed component [r_lo, r_hi] holding r0; r_hi = math.inf when unbounded."""

    __slots__ = ()

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_hi)

    def contains(self, r: float) -> bool:
        pad = 1e-9 * max(1.0, abs(self.r_lo), 0.0 if math.isinf(self.r_hi) else self.r_hi)
        return self.r_lo - pad <= r <= self.r_hi + pad


def build_f(state: InitialState) -> CubicF:
    """Dynamics cubic with its roots from one solve at r0; requires alpha != 0."""
    if abs(state.alpha) < _ALPHA_FLOOR:
        raise QuadraticDegeneracyError(
            "alpha = 0 reduces f(r) to a quadratic (Kepler limit); "
            "the cubic machinery does not apply"
        )
    return CubicF(state.alpha, state.energy, state.momentum, state.r0,
                  cubic_roots(*_taylor_coefficients(state)))


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971)."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _taylor_coefficients(state: InitialState) -> tuple[float, float, float, float]:
    """(F0, F1, F2, F3) of f at r0 (module docstring), F1 and F2 rounded once.

    They cancel on near-circular and near-parabolic states.  Products enter
    as Dekker pairs, 2/r0 as q + (2 - q r0)/r0 (2 - fl(q r0) is exact by
    Sterbenz's lemma), each exact to the second order, and math.fsum
    rounds each sum once.
    """
    r0, v0, a = state.r0, state.v0, state.alpha
    vv, vv_lo = _two_product(v0, v0)
    u, u_lo = _two_product(r0, vv)
    rr, rr_lo = _two_product(r0, r0)
    w, w_lo = _two_product(a, rr)
    ar, ar_lo = _two_product(a, r0)
    q = 2.0 / r0
    qr, qr_lo = _two_product(q, r0)
    q_lo = ((2.0 - qr) - qr_lo) / r0
    f1 = 2.0 * math.fsum((u, u_lo, r0 * vv_lo, -1.0, w, w_lo, a * rr_lo))
    f2 = math.fsum((4.0 * ar, 4.0 * ar_lo, vv, vv_lo, -q, -q_lo))
    return (r0 * state.rdot0) ** 2, f1, f2, 2.0 * a


def classify_region(f: CubicF, r0: float) -> MotionClass:
    """Allowed component of f >= 0 holding r0, from the real roots of f.

    Just above r0, f has the sign of alpha times (-1)^(number of roots
    above r0); just below, with the roots at r0 counted too.  Compared as
    offsets from f's epoch radius, exact there, where ``build_f`` put r0
    inside its component; another radius may lie in a forbidden gap.  A
    double root at r0 with f < 0 about it is one point: DegenerateLatticeError.
    """
    x0 = r0 - f.r0
    x1, x2, x3 = f.offsets      # descending; a conjugate pair leaves x2 the real root
    xs = (x3.real, x2.real, x1.real) if x1.imag == 0.0 else (x2.real,)
    below, upto = bisect_left(xs, x0), bisect_right(xs, x0)     # roots < x0 and <= x0
    above = len(xs) - upto
    if (f.alpha > 0.0) == (above % 2 == 0):
        lo = xs[upto - 1] if upto else -math.inf
        hi = xs[-above] if above else math.inf
    elif (f.alpha > 0.0) == ((len(xs) - below) % 2 == 0):
        lo = xs[below - 1] if below else -math.inf
        hi = x0
    elif upto - below > 1:
        raise DegenerateLatticeError(f"r0 = {r0} is a double root of f, f < 0 on both "
                                     "sides: the allowed region is that one point")
    else:
        raise InfeasibleStateError(
            f"r0 = {r0} lies in a forbidden region (f(r0) < 0)"
        )
    lo += f.r0
    if not math.isfinite(hi):
        return MotionClass(MotionTag.UNBOUNDED_ABOVE, lo, math.inf)
    # alpha > 0 leaves f > 0 beyond the largest root: an outer region above
    tag = MotionTag.BOUNDED_BELOW_GAP if f.alpha > 0.0 else MotionTag.BOUNDED_ANNULUS
    return MotionClass(tag, lo, f.r0 + hi)


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

