import cmath
import math

import pytest
from scipy.integrate import quad
from scipy.special import ellipk

from oracle import elliptic_K
from radialorbit.elliptic import carlson_rf, elliptic_KE
from radialorbit.errors import EllipticDomainError


def test_K_at_zero_is_pi_over_two():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-16)


def test_K_half_frozen_value():
    # independently derived by quadrature of the defining integral
    assert elliptic_K(0.5) == pytest.approx(1.8540746773013719, abs=2e-15)


@pytest.mark.parametrize("m", [1e-8, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999])
def test_K_matches_scipy(m):
    assert elliptic_K(m) == pytest.approx(float(ellipk(m)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [0.3, 0.8])
def test_K_matches_quadrature(m):
    # the defining integral by mpmath quadrature at 30 digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = mp.quad(lambda th: 1 / mp.sqrt(1 - mp.mpf(m) * mp.sin(th) ** 2),
                      [0, mp.pi / 2])
    assert elliptic_K(m) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5, math.nan])
def test_K_domain_errors(m):
    with pytest.raises(EllipticDomainError):
        elliptic_K(m)


# the smaller of m and m1 = 1 - m, passed exactly; the other one is 1 - it,
# which rounds to 1.0 at 1e-19 (near-circular lattices)
SMALL_PARAMETERS = [1e-19, 1e-12, 3e-11, 1e-9, 2e-7, 1e-5, 1e-3, 0.05, 0.3, 0.5]


@pytest.mark.parametrize("small", SMALL_PARAMETERS)
@pytest.mark.parametrize("side", ["m", "m1"])
def test_K_and_E_match_mpmath(small, side):
    # K, K', E and E' for m and m1 from 1e-19 to 1 - 1e-19; the reference
    # takes the parameter from the exact one of the pair.  Measured worst:
    # 2.4e-16 for K, 4.4e-15 for E at m1 = 1e-19 (3.4e-15 at 1e-9), where
    # E = K (1 - sum) cancels by about a factor K/E
    mp = pytest.importorskip("mpmath")
    m, m1 = (small, 1.0 - small) if side == "m" else (1.0 - small, small)
    with mp.workdps(40):
        exact = mp.mpf(small) if side == "m" else 1 - mp.mpf(small)
        for (k, e), param in ((elliptic_KE(m, m1), exact),
                              (elliptic_KE(m1, m), 1 - exact)):
            assert abs(k - mp.ellipk(param)) <= 1e-15 * mp.ellipk(param)
            assert abs(e - mp.ellipe(param)) <= 1e-14 * mp.ellipe(param)


def test_KE_domain_errors():
    for m, m1 in ((-0.1, 1.1), (1.0, 0.0), (0.5, -0.5), (math.nan, 0.5)):
        with pytest.raises(EllipticDomainError):
            elliptic_KE(m, m1)


def test_rf_real_arguments_take_real_arithmetic():
    # nonnegative real arguments: a float, equal to the complex route
    val = carlson_rf(0.3, 1.7, 2.9)
    assert isinstance(val, float)
    assert val == pytest.approx(carlson_rf(0.3 + 0j, 1.7, 2.9).real, rel=1e-15, abs=0.0)


def test_rf_degenerate_equal_arguments():
    # R_F(x, x, x) = x^(-1/2)
    assert carlson_rf(4.0, 4.0, 4.0) == pytest.approx(0.5, abs=1e-14)


def test_rf_reproduces_complete_integral():
    # R_F(0, 1-m, 1) = K(m)
    for m in (0.2, 0.5, 0.85):
        assert carlson_rf(0.0, 1.0 - m, 1.0) == pytest.approx(
            elliptic_K(m), rel=1e-13, abs=0.0
        )


def test_rf_against_quadrature():
    x, y, z = 1.0, 2.0, 4.0
    ref, _ = quad(
        lambda t: 0.5 / math.sqrt((t + x) * (t + y) * (t + z)),
        0.0, math.inf, epsabs=1e-14, epsrel=1e-14,
    )
    assert carlson_rf(x, y, z) == pytest.approx(ref, rel=1e-12)


def test_rf_conjugate_pair_is_real():
    val = carlson_rf(0.0, complex(0.3, 0.4), complex(0.3, -0.4))
    assert abs(val.imag) < 1e-14
    assert val.real > 0.0


def test_rf_homogeneity():
    lam = 2.7
    a = carlson_rf(lam * 1.0, lam * 2.0, lam * 3.0)
    b = carlson_rf(1.0, 2.0, 3.0) / cmath.sqrt(lam)
    assert a == pytest.approx(b, rel=1e-13, abs=0.0)


def test_rf_rejects_two_zeros():
    with pytest.raises(ValueError):
        carlson_rf(0.0, 0.0, 1.0)
