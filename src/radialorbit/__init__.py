"""Closed-form propagation of constant radial acceleration orbits.

A point mass under inverse-square gravity plus a constant radial
acceleration admits an exact solution in terms of the Weierstrass
elliptic functions.  This package evaluates that solution (radius, polar
angle and the radial Kepler equation relating pseudo-time to time),
classifies bounded/unbounded motion, computes radial periods and searches
for closed orbits.  The package needs only the standard library.
"""

from .analysis import (
    BoundednessReport,
    boundedness_from_state,
    escape_alpha,
    find_periodic_v,
    true_period_implicit,
)
from .dynamics import (
    CubicF,
    InitialState,
    MotionClass,
    MotionTag,
    build_f,
    classify_region,
    pericenter,
)
from .propagation import (
    PropagatedState,
    SolutionContext,
    build_context,
    invert_kepler,
    propagate_ctx,
    r_of_tau,
    radial_kepler,
    state_at_tau,
    tau0_from_r0,
    theta_of_tau,
)
from .weierstrass import Lattice

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
