"""Cubic root solver shared by the dynamics and lattice polynomials.

Closed-form evaluation (trigonometric for three real roots, Cardano
otherwise) followed by one Newton polish per root, then ordering by the
A&S 18.1 convention: descending imaginary part first, then descending
real part.  For a positive discriminant that yields e1 >= e2 > e3 real;
for a negative one e1 = a+ib, e2 real, e3 = a-ib.
"""

from __future__ import annotations

import cmath
import math


def cubic_discriminant(a: float, b: float, c: float, d: float) -> float:
    """Discriminant of a*x^3 + b*x^2 + c*x + d (positive iff 3 distinct real roots)."""
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b**2 * c**2
        - 4.0 * a * c**3
        - 27.0 * a**2 * d**2
    )


def _polish(root: complex, a: float, b: float, c: float, d: float) -> complex:
    # One or two Newton steps on the original cubic; cheap insurance on
    # top of the closed forms, skipped when the derivative is tiny
    # (double root, where Newton would amplify noise).
    z = root
    for _ in range(2):
        f = ((a * z + b) * z + c) * z + d
        fp = (3.0 * a * z + 2.0 * b) * z + c
        if abs(fp) < 1e-14 * (abs(z) ** 2 * abs(a) * 3.0 + 1e-300):
            break
        step = f / fp
        if not (abs(step) < 1e30):
            break
        z = z - step
    return z


def solve_cubic(a: float, b: float, c: float, d: float) -> tuple[list[complex], float, bool]:
    """Roots of a*x^3 + b*x^2 + c*x + d ordered by the descending convention.

    Returns (roots, discriminant, has_double_root).  The double-root flag
    fires when two roots coincide within 1e-12 relative to the root
    scale (the homoclinic boundary in the dynamics application).
    """
    if a == 0.0:
        raise ValueError("leading coefficient is zero; not a cubic")

    disc = cubic_discriminant(a, b, c, d)

    # Depressed form t^3 + p t + q with x = t - b/(3a).
    shift = b / (3.0 * a)
    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a**3)
    disc_dep = -4.0 * p**3 - 27.0 * q * q  # same sign as disc
    disc_scale = max(4.0 * abs(p) ** 3, 27.0 * q * q, 1e-300)

    roots: list[complex]
    if abs(disc_dep) <= 1e-13 * disc_scale and p != 0.0:
        # Within rounding of a repeated root: the generic formulas lose half
        # the digits there, but the double root u and simple root -2u follow
        # exactly from q = 2u^3, p = -3u^2 -- provided that model actually
        # fits (a vanishing discriminant can also be pure underflow).
        u = -1.5 * q / p
        if (abs(u * u + p / 3.0) <= 1e-8 * max(u * u, abs(p), 1e-300)
                and abs(2.0 * u**3 - q) <= 1e-8 * max(abs(u) ** 3, abs(q), 1e-300)):
            roots = [complex(u - shift), complex(u - shift),
                     complex(-2.0 * u - shift)]
            roots.sort(key=lambda z: -z.real)
            return roots, disc, True
    if disc_dep > 0.0:
        # Three distinct real roots: trigonometric form.
        rho = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * rho)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        roots = [
            complex(rho * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift)
            for k in range(3)
        ]
    else:
        # One real root (or a multiple root): Cardano, arranged to avoid
        # cancellation between the two cube roots.
        half_q = q / 2.0
        s = cmath.sqrt(half_q * half_q + p**3 / 27.0)
        u = -half_q + s if abs(-half_q + s) >= abs(-half_q - s) else -half_q - s
        u = u ** (1.0 / 3.0)
        v = -p / (3.0 * u) if u != 0 else 0.0
        w = complex(-0.5, math.sqrt(3.0) / 2.0)
        roots = [u + v - shift, u * w + v / w - shift, u * w * w + v / (w * w) - shift]

    roots = [_polish(z, a, b, c, d) for z in roots]

    # Snap near-real roots exactly real; classify by the discriminant.
    if disc_dep >= 0.0:
        roots = [complex(z.real, 0.0) for z in roots]
    else:
        roots.sort(key=lambda z: abs(z.imag))
        roots[0] = complex(roots[0].real, 0.0)
        pair = 0.5 * (roots[1] + roots[2].conjugate())
        roots[1] = pair
        roots[2] = pair.conjugate()

    # Descending order: imaginary part first, then real part.
    roots.sort(key=lambda z: (-z.imag, -z.real))

    root_scale = max(abs(z) for z in roots) + 1e-300
    double = any(
        abs(roots[i] - roots[j]) <= 1e-12 * root_scale
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return roots, disc, double
