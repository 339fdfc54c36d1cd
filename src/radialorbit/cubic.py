"""Cubic roots: the most isolated root by Newton steps, the pair by deflation.

One solver serves the dynamics cubic at the epoch radius
(``dynamics.build_f``) and the merge cubic of the escape threshold
(``analysis.escape_alpha``).  Roots come in the A&S 18.1 order, descending
imaginary then real part: e1 >= e2 >= e3, or e1 = a+ib, e2 real, e3 = a-ib.
"""

from __future__ import annotations

import math

_ULP = 2.0**-52
_SMALLEST_NORMAL = 2.0**-1022   # below it a float keeps fewer than 53 bits


def cubic_roots(f0: float, f1: float, f2: float, f3: float
                ) -> tuple[complex, complex, complex]:
    """Roots x of f0 + f1 x + f2 x^2 + f3 x^3 (f3 != 0), descending (Im, Re).

    x_s, the root farthest from the mean and so the most isolated, is 0
    when f0 = 0 and otherwise comes from Newton steps (``_isolated_root``).
    Vieta deflates to the pair's x^2 + b x + c: c = -f0/(f3 x_s), and
    b = (c - f1/f3)/x_s when x_s is the far root (x_s^2 >= |c|), else
    f2/f3 + x_s.  At x_s = 0 the pair solves f3 x^2 + f2 x + f1 = 0 as posed,
    and so it does at a subnormal x_s, off by O(x_s): there x_s has lost
    the relative digits c needs (g3 = 5e-324 gave c = 0.25 for 0.375).
    The stable quadratic formula gives the pair, and one Newton step on
    the cubic polishes every root.  f0 >= 0 with f3 x_s > 0 makes c <= 0:
    the pair straddles 0, the epoch radius of the dynamics, by construction.
    A polishing step that takes a real root across 0, or by half its
    distance to another root (noise at a near-double root), is refused.
    """
    x_s = 0.0 if f0 == 0.0 else _isolated_root(f0, f1, f2, f3)
    if abs(x_s) < _SMALLEST_NORMAL:
        a, b, c = f3, f2, f1
    else:
        a, c = 1.0, -f0 / (f3 * x_s)
        b = (c - f1 / f3) / x_s if x_s * x_s >= abs(c) else f2 / f3 + x_s
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        z = complex(-0.5 * b / a, 0.5 * math.sqrt(-disc) / abs(a))
        z = _polish(z, x_s, z.conjugate(), f0, f1, f2, f3)
        return z, complex(x_s), z.conjugate()
    s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    x1, x2, x3 = x_s, s / a, c / s if s else 0.0
    xs = sorted((_polish(x1, x2, x3, f0, f1, f2, f3), _polish(x2, x1, x3, f0, f1, f2, f3),
                 _polish(x3, x1, x2, f0, f1, f2, f3)), reverse=True)
    return complex(xs[0]), complex(xs[1]), complex(xs[2])


def _polish(x, y, z, f0: float, f1: float, f2: float, f3: float):
    """x after one Newton step on the cubic with roots y, z besides (``cubic_roots``)."""
    dp = (3.0 * f3 * x + 2.0 * f2) * x + f1
    if dp == 0.0:
        return x
    new = x - (((f3 * x + f2) * x + f1) * x + f0) / dp
    if abs(new - x) >= 0.5 * min(abs(x - y), abs(x - z)):
        return x
    if isinstance(x, float) and new * x <= 0.0:
        return x
    return new


def _isolated_root(f0: float, f1: float, f2: float, f3: float) -> float:
    """The real root of the cubic farthest from the mean of its roots.

    In t = x + a2/3 the monic cubic is depressed, with Q = (a2^2 - 3 a1)/9
    and R = (2 a2^3 - 9 a2 a1 + 27 a0)/54; its root of largest |t| is
    -sgn(R) 2 sqrt(Q) cos(phi/3), cos phi = |R|/Q^(3/2), if R^2 < Q^3, else
    A + Q/A with A = -sgn(R) (|R| + sqrt(R^2 - Q^3))^(1/3).  Newton steps
    on the cubic take it to the rounding level of x: they stop after a
    step within an ulp of x, or at the first iterate seen before.  Where
    the cubic's rounding exceeds an ulp of x the steps can cycle through a
    few floats around the root and never get that small; the iteration is
    a fixed map of the floats, so a repeat means the first test would
    never hold, and wherever it does the repeat test changes nothing.
    """
    a2, a1, a0 = f2 / f3, f1 / f3, f0 / f3
    q = (a2 * a2 - 3.0 * a1) / 9.0
    r = (a2 * (2.0 * a2 * a2 - 9.0 * a1) + 27.0 * a0) / 54.0
    q3 = q * q * q
    if r * r < q3:
        phi = math.acos(min(1.0, abs(r) / math.sqrt(q3)))
        t = -math.copysign(2.0 * math.sqrt(q) * math.cos(phi / 3.0), r)
    else:
        big = -math.copysign((abs(r) + math.sqrt(r * r - q3)) ** (1.0 / 3.0), r)
        t = big + q / big if big else 0.0
    x = t - a2 / 3.0
    seen = {x}
    for _ in range(60):
        dp = (3.0 * f3 * x + 2.0 * f2) * x + f1
        if dp == 0.0:
            break
        step = (((f3 * x + f2) * x + f1) * x + f0) / dp
        x -= step
        if abs(step) <= _ULP * abs(x) or x in seen:
            break
        seen.add(x)
    return x
