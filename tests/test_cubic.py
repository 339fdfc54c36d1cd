import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import solve_cubic
from radialorbit.cubic import cubic_roots


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
