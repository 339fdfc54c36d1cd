"""Typed exceptions raised by the library."""


class RadialOrbitError(Exception):
    """Base class for all library errors."""


class DegenerateLatticeError(RadialOrbitError):
    """The invariants satisfy g2^3 - 27 g3^2 = 0; the period lattice collapses."""


class PoleProximityError(RadialOrbitError):
    """Argument too close to a lattice point to evaluate p, p' or zeta."""


class EllipticDomainError(RadialOrbitError, ValueError):
    """Parameter outside the domain of the complete elliptic integral."""


class WpInverseError(RadialOrbitError):
    """Requested value is not attained on the inversion contour."""


class QuadraticDegeneracyError(RadialOrbitError):
    """alpha = 0 degenerates the dynamics cubic to a quadratic (Kepler limit)."""


class InfeasibleStateError(RadialOrbitError):
    """State violates f(r0) >= 0 beyond rounding tolerance."""


class NoPericenterError(RadialOrbitError):
    """Allowed radial component has no finite lower endpoint."""


class OutOfIntervalError(RadialOrbitError):
    """Radius outside the allowed motion interval."""


class UnboundedMotionError(RadialOrbitError):
    """Operation requires bounded (librating) radial motion."""


class BracketError(RadialOrbitError):
    """Search bracket does not enclose a sign change."""


class NoCrossingError(RadialOrbitError):
    """Root search bracket contains no crossing of the target value."""


class ConvergenceError(RadialOrbitError):
    """Iteration cap exceeded; indicates a kernel defect, not bad input."""
