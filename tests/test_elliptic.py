import math
import random

import pytest
from scipy.integrate import quad
from scipy.special import ellipk

from oracle import elliptic_K
from radialorbit import elliptic
from radialorbit.elliptic import carlson_rf, elliptic_K_tail, elliptic_KE
from radialorbit.errors import EllipticDomainError
from radialorbit.weierstrass import _rf_pair


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


# (m, m1) where the AGM's means settle one ulp apart just above a power of
# two: a stop at |a - b| <= 2e-16 a never held there, and the loop ran to
# its 200-step limit.  K and the tail are those that loop returned
STALLED_AGM = [
    ((0.9413948474069394, 0.058605152593060796), (2.8320262447407276, 0.15194608557149597)),
    ((0.9683912963964377, 0.031608703603562334), (3.1304361062865715, 0.18304192122951268)),
]


def agm_parameters(n, seed=29):
    """Seeded (m, m1): uniform, and each of m and m1 log-uniform down to 1e-18."""
    rng = random.Random(seed)
    for i in range(n):
        small = rng.random() if i % 3 == 0 else 10.0 ** rng.uniform(-18.0, 0.0)
        yield (small, 1.0 - small) if i % 2 else (1.0 - small, small)


def relative_stop_agm(m, m1):
    """(K, tail, steps) of ``elliptic_K_tail`` with the stop |a - b| <= 2e-16 a."""
    a, b, c = 1.0, math.sqrt(m1), math.sqrt(m)
    tail, weight = 0.0, 1.0
    for steps in range(200):
        if abs(a - b) <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
        tail += weight * c * c
        weight *= 2.0
    else:
        steps = 200
    return math.pi / (a + b), tail, steps


def agm_steps(monkeypatch, m, m1):
    """(K, tail) of ``elliptic_K_tail`` and its AGM steps: its sqrt calls less the two at the start."""
    calls = []
    sqrt = math.sqrt
    monkeypatch.setattr(elliptic.math, "sqrt", lambda x: calls.append(x) or sqrt(x))
    try:
        result = elliptic_K_tail(m, m1)
    finally:
        monkeypatch.undo()
    return result, len(calls) - 2


def test_agm_takes_at_most_eight_steps(monkeypatch):
    params = [*agm_parameters(3000), *(p for p, _ in STALLED_AGM)]
    assert max(agm_steps(monkeypatch, m, m1)[1] for m, m1 in params) <= 8


@pytest.mark.parametrize("params, frozen", STALLED_AGM)
def test_agm_stops_where_its_means_meet(monkeypatch, params, frozen):
    result, steps = agm_steps(monkeypatch, *params)
    assert steps <= 8
    assert result == frozen
    assert relative_stop_agm(*params) == (*frozen, 200)


def test_ulp_stop_keeps_every_result_the_relative_stop_reaches():
    # bit for bit wherever |a - b| <= 2e-16 a stops the loop
    stalled = 0
    for m, m1 in agm_parameters(20000):
        k, tail, steps = relative_stop_agm(m, m1)
        if steps < 200:
            assert elliptic_K_tail(m, m1) == (k, tail), (m, m1)
        else:
            stalled += 1
    assert 0 < stalled < 1000


def test_KE_domain_errors():
    for m, m1 in ((-0.1, 1.1), (1.0, 0.0), (0.5, -0.5), (math.nan, 0.5)):
        with pytest.raises(EllipticDomainError):
            elliptic_KE(m, m1)


def rf_pair(x, b, mp):
    """R_F(x, b, conj b) by ``_rf_pair``, its value at the shifted pair from mpmath."""
    with mp.workdps(30):
        d = mp.mpf(x) - mp.mpc(b)
        full = float(mp.re(mp.elliprf(0, -d, -mp.conj(d))))
    return _rf_pair(x, b, abs(b - x), full)


def rf_reference(x, b, mp):
    with mp.workdps(30):
        return mp.elliprf(x, mp.mpc(b), mp.conj(mp.mpc(b)))


def test_rf_real_arguments_take_real_arithmetic():
    # nonnegative real arguments: a float; a conjugate pair reduces to them
    mp = pytest.importorskip("mpmath")
    val = carlson_rf(0.3, 1.7, 2.9)
    assert isinstance(val, float)
    assert val == pytest.approx(float(mp.elliprf(0.3, 1.7, 2.9)), rel=1e-15, abs=0.0)
    pair = rf_pair(0.3, complex(1.7, 2.9), mp)
    assert isinstance(pair, float)
    assert pair == pytest.approx(float(mp.re(rf_reference(0.3, complex(1.7, 2.9), mp))),
                                 rel=1e-15, abs=0.0)


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
    # R_F(x, b, conj b) is real; the reduction gives it from real arguments
    # on both sides of x = |b - x|, and at x = 0 its value at the pair
    mp = pytest.importorskip("mpmath")
    b = complex(0.3, 0.4)
    for x in (0.0, 0.1, 0.5, 2.0):
        ref = rf_reference(x, b, mp)
        assert abs(mp.im(ref)) <= 1e-25 * abs(ref)
        assert rf_pair(x, b, mp) == pytest.approx(float(mp.re(ref)), rel=4e-15, abs=0.0)
    assert _rf_pair(0.0, b, abs(b), 1.25) == 1.25


def test_rf_homogeneity():
    # R_F(lam x, lam y, lam z) = R_F(x, y, z)/sqrt(lam), for real arguments
    # and for a conjugate pair through the reduction
    mp = pytest.importorskip("mpmath")
    lam = 2.7
    a = carlson_rf(lam * 1.0, lam * 2.0, lam * 3.0)
    b = carlson_rf(1.0, 2.0, 3.0) / math.sqrt(lam)
    assert a == pytest.approx(b, rel=1e-13, abs=0.0)
    for x in (0.1, 2.0):
        a = rf_pair(lam * x, lam * complex(0.3, 0.4), mp)
        b = rf_pair(x, complex(0.3, 0.4), mp) / math.sqrt(lam)
        assert a == pytest.approx(b, rel=1e-13, abs=0.0)


def rf_pair_cases(n, seed=2027):
    """(x, b): seeded pairs over both sides of x = |b - x|.

    x = 0; x = |b - x| (b with Re b > 0 and x = |b|^2/(2 Re b)); x on
    [1e-3, 1e3] with b off the real axis; b next to the negative real
    axis; and |b| << x, where x = |b - x| to rounding.  Im b spans
    [1e-8, 3] in the first four.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        kind = i % 5
        im = 10.0 ** rng.uniform(-8.0, math.log10(3.0))
        re = -(10.0 ** rng.uniform(-2.0, 1.0)) if kind == 3 else rng.uniform(-3.0, 3.0)
        b = complex(re, im)
        if kind == 0:
            x = 0.0
        elif kind == 1:
            b = complex(abs(re) + 1e-3, im)
            x = abs(b) ** 2 / (2.0 * b.real)
        elif kind == 2:
            x = 10.0 ** rng.uniform(-3.0, 3.0)
        elif kind == 3:
            x = rng.uniform(0.0, 3.0)
        else:
            x = 10.0 ** rng.uniform(-3.0, 3.0)
            b = x * 10.0 ** rng.uniform(-8.0, -1.0) * complex(
                math.cos(rng.uniform(1e-6, math.pi)), 1.0)
        cases.append((x, b))
    return cases


def test_rf_pair_against_mpmath():
    # R_F(x, b, conj b) in real arithmetic, against mpmath's complex
    # R_F at 30 digits; measured worst 7.1e-16 relative over 4000 cases
    # of this generator.  (x - h formed from a rounded h lost up to 5e-10
    # where |b| << x)
    mp = pytest.importorskip("mpmath")
    sides = set()
    for x, b in rf_pair_cases(600):
        got, ref = rf_pair(x, b, mp), rf_reference(x, b, mp)
        assert abs(got - mp.re(ref)) <= 4e-15 * abs(ref)
        sides.add(x >= abs(b - x))
    assert sides == {True, False}


def test_rf_rejects_two_zeros():
    with pytest.raises(ValueError):
        carlson_rf(0.0, 0.0, 1.0)
