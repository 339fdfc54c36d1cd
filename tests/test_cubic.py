import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import solve_cubic
from radialorbit.cubic import _isolated_root, cubic_roots
from radialorbit.dynamics import InitialState, _taylor_coefficients


def test_simple_integer_roots():
    roots = solve_cubic(1.0, -6.0, 11.0, -6.0)
    assert [z.real for z in roots] == pytest.approx([3.0, 2.0, 1.0], abs=1e-13)
    assert all(z.imag == 0.0 for z in roots)


def test_descending_order_three_real():
    roots = solve_cubic(4.0, 0.0, -4.0, 0.0)  # 4s^3 - 4s
    assert [z.real for z in roots] == pytest.approx([1.0, 0.0, -1.0], abs=1e-14)
    assert all(z.imag == 0.0 for z in roots)


def test_complex_pair_convention():
    # one real root, conjugate pair: order is (a+ib, real, a-ib)
    roots = solve_cubic(4.0, 0.0, -0.12, 0.016)
    assert roots[0].imag > 0.0
    assert roots[1].imag == 0.0
    assert roots[2] == roots[0].conjugate()
    expect = sorted(np.roots([4.0, 0.0, -0.12, 0.016]), key=lambda z: -z.imag)
    for got, ref in zip(roots, expect):
        assert got == pytest.approx(ref, abs=1e-12)


def test_exact_double_root():
    # 0.25 (r-2)^2 (r-1): the homoclinic cubic of the circular family
    roots = solve_cubic(0.25, -1.25, 2.0, -1.0)
    assert roots[0].real == pytest.approx(2.0, abs=1e-10)
    assert roots[1].real == pytest.approx(2.0, abs=1e-10)
    assert roots[2].real == pytest.approx(1.0, abs=1e-10)


def test_leading_zero_rejected():
    with pytest.raises(ValueError):
        solve_cubic(0.0, 1.0, 1.0, 1.0)


def test_root_at_the_expansion_point_is_exact():
    # f0 = 0: x = 0 is a root as posed, and the pair solves the quadratic
    # f3 x^2 + f2 x + f1 with no deflation error
    roots = cubic_roots(0.0, 2.0, -3.0, 1.0)
    assert roots == (2.0, 1.0, 0.0)


def test_pair_straddles_a_point_where_the_cubic_is_positive():
    # f0 > 0 with the far root on the side f3 x_s > 0 gives c <= 0: one
    # root of the pair on each side of 0, however close the two are
    for gap in (1e-3, 1e-9, 1e-15):
        x1, x2 = -gap, 2.0 * gap
        f = np.poly1d([2.0, -100.0]) * np.poly1d([1.0, -(x1 + x2), x1 * x2])
        f3, f2, f1, f0 = f.coeffs
        roots = sorted(z.real for z in cubic_roots(f0, f1, f2, f3))
        assert roots[0] <= 0.0 <= roots[1] < roots[2]


def test_subnormal_isolated_root():
    # 4s^3 + 1.5s - 5e-324: the real root is subnormal and keeps one bit,
    # so c = -f0/(f3 x_s) came out 0.25 and the pair +/-0.667i; the pair
    # solves 4s^2 + 1.5 = 0
    roots = solve_cubic(4.0, 0.0, 1.5, -5e-324)
    assert abs(roots[1]) < 1e-300
    assert roots[0] == pytest.approx(complex(0.0, (1.5 / 4.0) ** 0.5), abs=1e-15)
    assert roots[2] == roots[0].conjugate()


@settings(max_examples=150, deadline=None)
@given(
    a=st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3),
    b=st.floats(-3.0, 3.0),
    c=st.floats(-3.0, 3.0),
    d=st.floats(-3.0, 3.0),
)
def test_residuals_and_vieta(a, b, c, d):
    roots = solve_cubic(a, b, c, d)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    rmax = max(abs(z) for z in roots) + 1.0
    for z in roots:
        res = ((a * z + b) * z + c) * z + d
        assert abs(res) <= 1e-11 * scale * rmax**3
    # near-multiple roots cost half the digits; generic cases do far better
    s1 = sum(roots)
    s2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    s3 = roots[0] * roots[1] * roots[2]
    assert s1 == pytest.approx(-b / a, abs=1e-7 * rmax)
    assert s2 == pytest.approx(c / a, abs=1e-7 * rmax**2)
    assert s3 == pytest.approx(-d / a, abs=1e-7 * rmax**3)
    # discriminant sign consistent with root reality
    disc = (18.0 * a * b * c * d - 4.0 * b**3 * d + b**2 * c**2
            - 4.0 * a * c**3 - 27.0 * a**2 * d**2)
    if disc > 1e-10 * scale**4:
        assert all(z.imag == 0.0 for z in roots)
    if disc < -1e-10 * scale**4:
        assert roots[0].imag > 0.0 > roots[2].imag


def _start(f0, f1, f2, f3):
    """The trigonometric or Cardano start of ``_isolated_root``."""
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
    return t - a2 / 3.0


def _relative_stop(f0, f1, f2, f3):
    """(x, steps) of ``_isolated_root`` with its relative stop alone, 60 steps at most."""
    x = _start(f0, f1, f2, f3)
    for steps in range(1, 61):
        x, step = _newton(x, f0, f1, f2, f3)
        if abs(step) <= 2.0**-52 * abs(x):
            return x, steps
    return x, 60


def _first_repeat(f0, f1, f2, f3):
    """The first Newton iterate from ``_start`` that equals an earlier one."""
    x = _start(f0, f1, f2, f3)
    seen = set()
    while x not in seen:
        seen.add(x)
        x = _newton(x, f0, f1, f2, f3)[0]
    return x


def _newton(x, f0, f1, f2, f3):
    """(x - step, step), one Newton step on the cubic as ``_isolated_root`` takes it."""
    step = (((f3 * x + f2) * x + f1) * x + f0) / ((3.0 * f3 * x + 2.0 * f2) * x + f1)
    return x - step, step


def _random_states(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        r0 = 10.0 ** rng.uniform(-1.0, 1.0)
        v0 = rng.uniform(0.0, 1.6) * math.sqrt(2.0 / r0)
        alpha = math.copysign(10.0 ** rng.uniform(-9.0, 0.0), rng.random() - 0.5)
        yield InitialState(r0, v0, rng.uniform(-1.5, 1.5), alpha)


def test_repeat_stop_keeps_every_root_the_relative_stop_reaches():
    # the repeat test only ends loops the relative one never would: bit for
    # bit wherever that one stops (about 0.26 % of these states cycle)
    cycling = 0
    for state in _random_states(4000, seed=29):
        coeffs = _taylor_coefficients(state)
        x, steps = _relative_stop(*coeffs)
        if steps < 60:
            assert _isolated_root(*coeffs) == x, state
        else:
            cycling += 1
    assert cycling < 40


# states whose Newton steps on f at r0 cycle through 2, 2, 3 and 4 floats
# around the isolated root and never meet the relative stop, which ran all
# 60 steps: the first is state_scatter's generic26 (seed 2), the others
# come from 200 000 random states, 516 of which cycle
CYCLING = [
    (2.2286802096197, 0.40683826064558903, -0.8973368867945583, -0.13453110102715188),
    (5.193146936812974, 0.987411882627581, -1.4474787933042519, 0.17148172966133768),
    (3.9133657677204092, 0.9999642687215463, 1.0170372586923784, 0.23074136223605857),
    (5.286491125929157, 0.7141923847909549, 1.3609234348999388, 0.12767141441816213),
]


@pytest.mark.parametrize("state", CYCLING)
def test_newton_cycle_stops_at_its_first_repeat(state):
    mp = pytest.importorskip("mpmath")
    coeffs = _taylor_coefficients(InitialState(*state))
    assert _relative_stop(*coeffs)[1] == 60
    x = _isolated_root(*coeffs)
    assert x == _first_repeat(*coeffs)
    with mp.workdps(40):
        ref = min((z.real for z in mp.polyroots([mp.mpf(c) for c in coeffs[::-1]],
                                                 maxsteps=100, extraprec=100)),
                  key=lambda z: abs(z - x))
        assert abs(x - ref) <= 2 * math.ulp(x)
