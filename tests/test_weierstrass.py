import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from oracle import Invariants, ReferenceLattice, g_roots
from radialorbit import propagation, weierstrass
from radialorbit.dynamics import InitialState
from radialorbit.errors import DegenerateLatticeError, PoleProximityError
from radialorbit.propagation import build_context, r_of_tau
from radialorbit.weierstrass import Lattice

from conftest import FORMER_DEGENERATE, sample_states

# Invariant pairs spanning both discriminant signs and both g3 signs,
# including the physically derived anchors (rectangular and rhombic,
# squat and elongated cells).
LATTICE_GRID = [
    (4.0, 0.0), (3.0, 0.5), (3.0, -0.5), (2.0, 0.1), (2.0, -0.1),
    (1.0, 0.2), (1.0, -0.2), (5.0, 1.9), (5.0, -1.9), (0.5, 0.02),
    (0.5, -0.02), (12.0, 3.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 0.3),
    (-1.0, -0.3), (-2.0, 0.7), (0.2, 1.0), (0.2, -1.0), (-0.5, 0.05),
    (0.01, 0.000144), (0.0581140, 0.00243332), (0.08, -0.001),
    (0.0602083, -0.00025066),
]

# alpha at which the apse start r0 = 1, v0 = 1.2 stops being bounded
ESCAPE_ALPHA = (2.0 - 1.44) ** 2 / (8.0 * 1.44)

WORKED_G = (0.01, 0.000144)
# exact roots of 4s^3 - 0.01 s - 0.000144: {-0.04, (0.04 +/- sqrt(0.0052))/2}
WORKED_ROOTS = (0.056055512754639896, -0.016055512754639893, -0.04)


def lattices():
    return [ReferenceLattice.from_invariants(g2, g3) for g2, g3 in LATTICE_GRID]


def theta_reference(g2, g3, mp):
    """(p, zeta, sigma, p') of the invariants from Jacobi theta_1 (DLMF 23.6).

    zeta = eta1 z/omega1 + c theta1'/theta1 with c = pi/(2 omega1) and
    v = c z, p = -zeta', sigma = exp(eta1 z^2/(2 omega1)) theta1/(c theta1'(0)),
    eta1 = -pi^2 theta1'''(0)/(12 omega1 theta1'(0)).  The half periods come
    from Carlson's R_F at mpmath precision: the real one for (g2, g3), the
    imaginary one as the real one for (g2, -g3), as p(iz; g2, g3) =
    -p(z; g2, -g3).  Returns the evaluator and the half periods omega1,
    omega3 of the basis it uses.
    """
    g2, g3 = mp.mpf(g2), mp.mpf(g3)
    rectangular = g2**3 - 27 * g3**2 > 0

    def real_half_period(b):
        roots = mp.polyroots([4, 0, -g2, -b], maxsteps=200, extraprec=60)
        if rectangular:
            e = max(roots, key=mp.re)
        else:
            e = min(roots, key=lambda s: abs(mp.im(s)))
        x, y = (s for s in roots if s is not e)
        return mp.re(mp.elliprf(0, mp.re(e) - x, mp.re(e) - y))

    w_r, w_i = real_half_period(g3), real_half_period(-g3)
    omega1 = w_r
    omega3 = mp.mpc(0, w_i) if rectangular else mp.mpc(w_r, w_i) / 2
    q = mp.exp(1j * mp.pi * omega3 / omega1)
    c = mp.pi / (2 * omega1)
    th1p0 = mp.jtheta(1, 0, q, 1)
    eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (12 * omega1 * th1p0)

    def evaluate(z):
        t0, t1, t2, t3 = (mp.jtheta(1, c * z, q, d) for d in range(4))
        wp = -eta1 / omega1 - c**2 * (t2 * t0 - t1**2) / t0**2
        zeta = eta1 * z / omega1 + c * t1 / t0
        sigma = mp.exp(eta1 * z**2 / (2 * omega1)) * t0 / (c * th1p0)
        wp_prime = -c**3 * ((t3 * t0 - t1 * t2) / t0**2
                            - 2 * t1 * (t2 * t0 - t1**2) / t0**3)
        return wp, zeta, sigma, wp_prime

    return evaluate, omega1, omega3


def sample_points(lat, n, seed=11, margin=1e-3):
    rng = np.random.default_rng(seed)
    per = lat.periods
    pts = []
    while len(pts) < n:
        z = complex(
            rng.uniform(-1.9, 1.9) * abs(per.omega),
            rng.uniform(-1.9, 1.9) * abs(per.omega_prime),
        )
        zr, _, _ = lat.reduce(z)
        if abs(zr) > margin:
            pts.append(z)
    return pts


class TestGRoots:
    def test_worked_instance_exact(self):
        gr = g_roots(Invariants(*WORKED_G))
        for got, ref in zip(gr.e_tilde, WORKED_ROOTS):
            assert got == pytest.approx(ref, abs=1e-12)

    def test_symmetric_factorization(self):
        gr = g_roots(Invariants(4.0, 0.0))
        assert [z.real for z in gr.e_tilde] == pytest.approx([1.0, 0.0, -1.0],
                                                             abs=1e-14)

    def test_against_companion_matrix(self):
        g2, g3 = 0.12, -0.016
        gr = g_roots(Invariants(g2, g3))
        ref = sorted(np.roots([4.0, 0.0, -g2, -g3]),
                     key=lambda z: (-z.imag, -z.real))
        for got, want in zip(gr.e_tilde, ref):
            assert got == pytest.approx(complex(want), abs=1e-12)

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_sum_and_residual_invariants(self, g2, g3):
        gr = g_roots(Invariants(g2, g3))
        assert abs(sum(gr.e_tilde)) <= 1e-12 * max(1.0, abs(g2), abs(g3))
        for z in gr.e_tilde:
            res = 4.0 * z**3 - g2 * z - g3
            assert abs(res) <= 1e-12 * max(1.0, abs(g2), abs(g3))
        if gr.discriminant > 0:
            e1, e2, e3 = (z.real for z in gr.e_tilde)
            assert e1 >= e2 > e3
            assert all(z.imag == 0 for z in gr.e_tilde)
        else:
            assert gr.e_tilde[0].imag > 0.0
            assert gr.e_tilde[1].imag == 0.0
            assert gr.e_tilde[2] == gr.e_tilde[0].conjugate()

    def test_degenerate_lattice_detected(self):
        # the Kepler limit alpha = 0 lands exactly on g2^3 = 27 g3^2
        energy = -0.5
        g2 = energy**2 / 3.0
        g3 = -energy**3 / 27.0
        with pytest.raises(DegenerateLatticeError):
            g_roots(Invariants(g2, g3))
        with pytest.raises(DegenerateLatticeError):
            g_roots(Invariants(3.0, 1.0))  # 27 - 27 = 0

    def test_invariants_must_be_finite(self):
        with pytest.raises(ValueError):
            Invariants(math.inf, 0.0)


class TestHalfPeriods:
    def test_lemniscatic_case(self):
        per = ReferenceLattice.from_invariants(4.0, 0.0).periods
        assert per.omega.real == pytest.approx(
            1.8540746773013719 / math.sqrt(2.0), rel=1e-14, abs=0.0
        )
        assert per.omega.imag == 0.0
        assert per.omega_prime.real == 0.0

    def test_rosette_omega_matches_quadrature(self):
        # frozen: int_{e1}^inf ds/sqrt(4s^3 - g2 s - g3), evaluated both by
        # adaptive quadrature (t = e1 + s^2 substitution) and scipy.elliprf
        lat = ReferenceLattice.from_invariants(0.05811445356629918, 0.002433338894797243)
        assert lat.periods.omega.real == pytest.approx(3.4617219524189613,
                                                       abs=2e-12)

    @staticmethod
    def former_degenerate_lattices():
        return [ReferenceLattice(build_context(InitialState(*st)).lattice.roots)
                for st in FORMER_DEGENERATE]

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_legendre_relation(self, g2, g3):
        # by construction: from K and E on rectangular lattices, from the
        # companion series' eta_c and zeta(w_r) = (pi - eta_c w_r)/w_i on
        # rhombic ones (measured worst 1.3e-15)
        per = ReferenceLattice.from_invariants(g2, g3).periods
        legendre = per.eta * per.omega_prime - per.eta_prime * per.omega
        assert abs(legendre - 1j * math.pi / 2.0) <= 1e-13

    def test_legendre_relation_on_former_degenerate_lattices(self):
        # the Laurent eta' missed these by up to 3e-10 and the 1e-10 gate
        # rejected them; measured worst now 5.3e-15
        for lat in self.former_degenerate_lattices():
            assert lat.roots.discriminant > 0.0
            per = lat.periods
            legendre = per.eta * per.omega_prime - per.eta_prime * per.omega
            assert abs(legendre - 1j * math.pi / 2.0) <= 1e-13

    @staticmethod
    def assert_half_periods_give_roots(lat):
        # p(omega_k) = e_k holds by construction (measured worst 1.2e-15)
        scale = max(abs(z) for z in lat.roots.e_tilde)
        for k in (1, 2, 3):
            got = lat.wp(lat.periods.omega_k(k))
            assert abs(got - lat.roots.e_tilde[k - 1]) <= 1e-13 * scale

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_half_periods_give_the_roots(self, g2, g3):
        self.assert_half_periods_give_roots(ReferenceLattice.from_invariants(g2, g3))

    def test_half_periods_give_the_roots_on_former_degenerate_lattices(self):
        # a kernel that halves and doubles back missed these by up to
        # 2.3e-9 of the root scale
        for lat in self.former_degenerate_lattices():
            self.assert_half_periods_give_roots(lat)

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_wp_at_half_periods_returns_roots(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        scale = max(abs(z) for z in lat.roots.e_tilde)
        for k in (1, 2, 3):
            got = lat.wp(lat.periods.omega_k(k))
            assert abs(got - lat.roots.e_tilde[k - 1]) <= 1e-10 * max(1.0, scale)

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_wp_prime_vanishes_at_half_periods(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        scale = max(abs(z) for z in lat.roots.e_tilde) ** 1.5
        for k in (1, 2, 3):
            assert abs(lat.wp_all(lat.periods.omega_k(k))[1]) <= 1e-9 * max(1.0, scale)

    @staticmethod
    def shortest_real_vector(lat):
        """Half the shortest positive real vector in the 5 x 5 block of the basis."""
        w1, w2 = 2.0 * lat.periods.omega, 2.0 * lat.periods.omega_prime
        return 0.5 * min(vec.real
                         for vec in (m * w1 + n * w2
                                     for m in range(-2, 3) for n in range(-2, 3))
                         if vec.real > 0.0 and abs(vec.imag) <= 1e-12 * abs(vec))

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_real_half_period_is_the_shortest_real_vector(self, g2, g3):
        # omega on rectangular lattices, omega + omega' on rhombic ones
        lat = ReferenceLattice.from_invariants(g2, g3)
        assert lat.real_half_period == self.shortest_real_vector(lat)

    def test_construction_makes_no_kernel_call(self, monkeypatch):
        # both lattice kinds take the half periods and eta from K and E (a
        # rhombic one zeta(w_r) from Legendre's relation): no evaluation of
        # p or zeta, and no series terms, which the first real-axis call makes
        calls = []
        for name in ("at", "at_imaginary"):
            method = getattr(weierstrass.NomeSeries, name)

            def counted(self, x, name=name, method=method):
                calls.append((name, x))
                return method(self, x)

            monkeypatch.setattr(weierstrass.NomeSeries, name, counted)
        for g2, g3 in LATTICE_GRID:
            lat = Lattice(g_roots(Invariants(g2, g3)))
            assert calls == []
            assert "terms" not in vars(lat.nome_series)
            # the series are live once construction is over: the imaginary
            # axis of a rhombic lattice, and of a rectangular one with q' < q,
            # is its companion's real axis
            lat._wp_imaginary(0.3)
            assert lat.companion == (not lat.rectangular or lat.q_t < lat.q)
            assert calls == [("at", 0.3) if lat.companion else ("at_imaginary", -0.3)]
            calls.clear()

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_kernel_basis_is_reduced(self, g2, g3):
        # the reference kernel's basis.  Rectangular: (omega, omega') itself;
        # rhombic: the Lagrange-reduced basis of (omega, omega'),
        # Im tau >= sqrt(3)/2, so |q| <= 0.066
        lat = ReferenceLattice.from_invariants(g2, g3)
        b, per = lat.basis, lat.periods
        tau = b.omega_prime / b.omega
        if lat.roots.discriminant > 0.0:
            assert b is per
        else:
            assert abs(tau.real) <= 0.5 + 1e-15 and abs(tau) >= 1.0 - 1e-15
            assert abs(lat.kernel.nome) <= math.exp(-math.pi * math.sqrt(3.0) / 2.0)
            # the same lattice: each basis spans the other with integers
            for w in (b.omega, b.omega_prime):
                x, y = propagation._coordinates(w, per.omega, per.omega_prime)
                assert abs(x - round(x)) + abs(y - round(y)) <= 1e-12
        assert tau.imag > 0.0
        assert lat.kernel.nome == pytest.approx(cmath.exp(1j * math.pi * tau),
                                                rel=1e-14, abs=0.0)

    def test_rectangular_orientation_for_positive_g3(self):
        per = ReferenceLattice.from_invariants(3.0, 0.5).periods
        assert per.omega.imag == 0.0 and per.omega.real > 0.0
        assert abs(per.omega_prime.real) < 1e-15
        assert per.omega_prime.imag > 0.0


class TestEvaluation:
    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_ode_residual_200_points(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        for z in sample_points(lat, 200, margin=1e-6):
            p, pp, _, _ = lat.wp_all(z)
            res = pp * pp - (4.0 * p**3 - g2 * p - g3)
            assert abs(res) <= 1e-10 * (1.0 + abs(p)) ** 3

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID[:10])
    def test_periodicity(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        per = lat.periods
        for z in sample_points(lat, 20, seed=3):
            p = lat.wp(z)
            assert abs(lat.wp(z + 2 * per.omega) - p) <= 1e-10 * (1 + abs(p))
            assert abs(lat.wp(z + 2 * per.omega_prime) - p) <= 1e-10 * (1 + abs(p))

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID[:10])
    def test_zeta_quasi_periodicity(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        per = lat.periods
        for z in sample_points(lat, 15, seed=5):
            zt = lat.zeta(z)
            assert abs(lat.zeta(z + 2 * per.omega) - zt - 2 * per.eta) <= 1e-10
            assert abs(lat.zeta(z + 2 * per.omega_prime) - zt
                       - 2 * per.eta_prime) <= 1e-10

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID[:10])
    def test_sigma_quasi_periodicity(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        per = lat.periods
        for z in sample_points(lat, 15, seed=7):
            ref = -lat.sigma(z) * cmath.exp(2.0 * per.eta * (z + per.omega))
            assert abs(lat.sigma(z + 2 * per.omega) - ref) <= 1e-10 * abs(ref)

    def test_parity(self):
        lat = ReferenceLattice.from_invariants(*WORKED_G)
        for z in sample_points(lat, 10, seed=13):
            p, pp, zt, sg = lat.wp_all(z)
            pm, ppm, ztm, sgm = lat.wp_all(-z)
            assert pm == pytest.approx(p, rel=1e-12, abs=1e-12)
            assert ppm == pytest.approx(-pp, rel=1e-12, abs=1e-12)
            assert ztm == pytest.approx(-zt, rel=1e-12, abs=1e-12)
            assert sgm == pytest.approx(-sg, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("g2,g3", [(3.0, 0.5), (1.0, 1.0), WORKED_G])
    def test_homogeneity_under_g3_flip(self, g2, g3):
        la = ReferenceLattice.from_invariants(g2, g3)
        lb = ReferenceLattice.from_invariants(g2, -g3)
        for z in sample_points(la, 12, seed=17):
            a = la.wp(z)
            b = -lb.wp(1j * z)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_derivative_consistency_finite_differences(self):
        lat = ReferenceLattice.from_invariants(*WORKED_G)
        h = 1e-5
        for z in sample_points(lat, 8, seed=19, margin=0.05):
            p, _, zt, sg = lat.wp_all(z)
            fd_zeta = (lat.zeta(z + h) - lat.zeta(z - h)) / (2.0 * h)
            assert fd_zeta == pytest.approx(-p, rel=1e-6, abs=1e-6)
            fd_sigma = (lat.sigma(z + h) - lat.sigma(z - h)) / (2.0 * h)
            assert fd_sigma == pytest.approx(sg * zt, rel=1e-6, abs=1e-6)

    def test_worked_value_against_quadrature_inversion(self):
        # frozen: solve int_w^inf dt/sqrt(4t^3 - g2 t - g3) = 0.37 for w
        lat = ReferenceLattice.from_invariants(*WORKED_G)
        assert lat.wp(0.37).real == pytest.approx(7.3046704457960026, abs=1e-9)
        assert abs(lat.wp(0.37).imag) < 1e-12

    def test_pole_guard(self):
        lat = ReferenceLattice.from_invariants(*WORKED_G)
        with pytest.raises(PoleProximityError):
            lat.wp(0.0)
        with pytest.raises(PoleProximityError):
            lat.wp(1e-14)
        per = lat.periods
        with pytest.raises(PoleProximityError):
            lat.zeta(2 * per.omega + 2 * per.omega_prime + 1e-15)
        # sigma is entire: no error, exact zero on the lattice
        assert lat.sigma(0.0) == 0.0
        assert abs(lat.sigma(2 * per.omega)) <= 1e-12

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_matches_theta_reference(self, g2, g3):
        # measured worst 1.9e-14 (p' and zeta)
        mp = pytest.importorskip("mpmath")
        lat = ReferenceLattice.from_invariants(g2, g3)
        with mp.workdps(30):
            ref, omega1, omega3 = theta_reference(g2, g3, mp)
            fractions = [(2 * k + 1) / mp.mpf(8) for k in range(4)]
            for a in fractions:
                for b in fractions:
                    z = 2 * a * omega1 + 2 * b * omega3
                    p, pp, zt, sg = lat.wp_all(complex(z))
                    want_p, want_zt, want_sg, want_pp = ref(z)
                    for got, want in ((p, want_p), (pp, want_pp), (zt, want_zt),
                                      (sg, want_sg)):
                        assert abs(got - want) <= 1e-13 * abs(want)

    @settings(max_examples=40, deadline=None)
    @given(
        g2=st.floats(-3.0, 6.0),
        g3=st.floats(-1.5, 1.5),
        x=st.floats(0.05, 0.95),
        y=st.floats(0.05, 0.95),
    )
    # a subnormal g3 made the lattice roots +/-0.667i for +/-0.612i
    @example(g2=-1.5, g3=5e-324, x=0.5, y=0.75)
    def test_ode_residual_random_invariants(self, g2, g3, x, y):
        inv = Invariants(g2, g3)
        scale = max(abs(g2) ** 3, 27.0 * g3**2, 1e-30)
        if abs(inv.discriminant) < 1e-6 * scale:
            return
        lat = ReferenceLattice.from_invariants(g2, g3)
        z = 2.0 * (x * lat.periods.omega + y * lat.periods.omega_prime)
        zr, _, _ = lat.reduce(z)
        if abs(zr) < 1e-5:
            return
        p, pp, _, _ = lat.wp_all(z)
        res = pp * pp - (4.0 * p**3 - g2 * p - g3)
        assert abs(res) <= 1e-10 * (1.0 + abs(p)) ** 3


RECTANGULAR_GRID = [(g2, g3) for g2, g3 in LATTICE_GRID
                    if Invariants(g2, g3).discriminant > 0.0]
# the rectangular lattices with q' < q (q = 0.046-0.108), which sum their
# companion's series
COMPANION_GRID = [(g2, g3) for g2, g3 in RECTANGULAR_GRID
                  if Lattice(g_roots(Invariants(g2, g3))).companion]


class TestNomeSeries:
    """p, p' and zeta on the two axes from the q-series of DLMF 23.8."""

    def test_grid_has_rectangular_lattices(self):
        assert len(RECTANGULAR_GRID) == 14

    @pytest.mark.parametrize("g2,g3", RECTANGULAR_GRID)
    def test_matches_theta_reference(self, g2, g3):
        # relative to the value or, where it passes near a zero, to k, k^2
        # or k^3, the size of the leading cotangent, csc^2 or cube term;
        # measured worst 3.5e-14 (p' at (0.08, -0.001))
        mp = pytest.importorskip("mpmath")
        lat = ReferenceLattice.from_invariants(g2, g3)
        series = lat.series
        with mp.workdps(30):
            ref, omega1, _ = theta_reference(g2, g3, mp)
            assert abs(series.k - float(mp.pi / (2 * omega1))) <= 1e-15 * series.k
            # x/omega = 1/8, 3/8, ..., 15/8, and two more outside (0, 2 omega)
            xs = [(2 * j + 1) / mp.mpf(8) * omega1 for j in range(8)]
            for x in xs + [-0.3 * omega1, 4.7 * omega1]:
                p, pp, zt = series.at(float(x))
                want_p, want_zt, _, want_pp = ref(mp.mpf(float(x)))
                for got, want, order in ((p, want_p, 2), (pp, want_pp, 3),
                                         (zt, want_zt, 1)):
                    scale = max(abs(want), series.k**order)
                    assert abs(got - want) <= 1e-13 * scale

    @pytest.mark.parametrize("g2,g3", RECTANGULAR_GRID)
    def test_complex_argument_matches_theta_reference(self, g2, g3):
        # the reference kernel off the real axis up to |Im z| = |omega'|,
        # where the terms grow by e^(2 |Im u|) <= 1/q per index; scales as
        # on the real axis
        mp = pytest.importorskip("mpmath")
        lat = ReferenceLattice.from_invariants(g2, g3)
        series = lat.kernel
        w, w_i = lat.periods.omega.real, lat.periods.omega_prime.imag
        points = [complex(x * w, y * w_i) for x, y in
                  ((0.3, 0.2), (-1.1, 0.7), (0.0, -0.5), (1.7, -1.0), (0.0, 1.0), (1.0, 1.0))]
        with mp.workdps(30):
            ref, _, _ = theta_reference(g2, g3, mp)
            for z in points:
                got = series.at_complex(z)
                want_p, want_zt, _, want_pp = ref(mp.mpc(z))
                for a, b, order in ((got[0], want_p, 2), (got[1], want_pp, 3),
                                    (got[2], want_zt, 1)):
                    scale = max(abs(b), series.k**order)
                    assert abs(a - b) <= 1e-13 * scale

    @pytest.mark.parametrize("g2,g3", RECTANGULAR_GRID)
    def test_agrees_with_laurent_kernel(self, g2, g3):
        # the real-axis sums against the reference kernel's wp_all, which
        # reduces into the cell and sums the series with complex arithmetic;
        # near the origin both against the Laurent series
        # (TestLaurentCoefficients)
        lat = ReferenceLattice.from_invariants(g2, g3)
        for x in np.linspace(0.05, 1.95, 39) * lat.real_half_period:
            got = lat.series.at(x)
            want = lat.wp_all(x)[:3]
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-12 * (1.0 + abs(b))

    @staticmethod
    def assert_imaginary_axis_is_the_kernel(lat, ys):
        # at_imaginary(y) does the kernel's complex sums at -iy on their
        # nonzero parts: p real, p' and zeta imaginary, each bit for bit
        for y in ys:
            p, pp, zt = lat.series.at_imaginary(y)
            want = lat.kernel.at_complex(complex(0.0, -y))
            assert (want[0].imag, want[1].real, want[2].real) == (0.0, 0.0, 0.0)
            assert (p, pp, zt) == (want[0].real, want[1].imag, want[2].imag)

    @pytest.mark.parametrize("g2,g3", RECTANGULAR_GRID)
    def test_imaginary_axis_is_the_kernel_bit_for_bit(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        w_i = lat.periods.omega_prime.imag
        self.assert_imaginary_axis_is_the_kernel(
            lat, [frac * w_i for frac in (0.05, 0.3, 0.7, 0.999, 1.0, -0.4)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_imaginary_axis_bit_for_bit_on_seeded_states(self, seed):
        # the theta pole's y and points across the axis, bounded and not
        contexts = sample_states(seed=seed, count=6)
        rectangular = [ctx for ctx in contexts if ctx.lattice.rectangular]
        assert len(rectangular) >= 4
        for ctx in rectangular:
            lat = ReferenceLattice(ctx.lattice.roots)
            w_i = lat.periods.omega_prime.imag
            pole = 2.0 * w_i - ctx.v.imag if ctx.v.real == 0.0 else None
            ys = [frac * w_i for frac in (0.1, 0.5, 0.9)] + ([pole] if pole else [])
            self.assert_imaginary_axis_is_the_kernel(lat, ys)

    @pytest.mark.parametrize("g2,g3", RECTANGULAR_GRID)
    def test_truncation_bound(self, g2, g3):
        # kept terms carry 16 n^2 c_n above 2^-53 (1 - q); the next one not
        series = ReferenceLattice.from_invariants(g2, g3).nome_series
        q = series.nome
        floor = 2.0**-53 * (1.0 - q)
        n = len(series.terms) + 1
        assert all(b > floor for _, b, _ in series.terms)
        assert 16.0 * n * n * q ** (2 * n) / (1.0 - q ** (2 * n)) <= floor

    @pytest.mark.parametrize("q", [1e-6, 0.01, 0.07, 0.2, 0.41, 0.6, 0.8, 0.95, 0.979])
    def test_omitted_tail_below_unit_roundoff(self, q):
        # the geometric bound of the docstring, summed out directly
        series = weierstrass.NomeSeries(0.5 * math.pi, q, 0.0)
        assert series.nome == pytest.approx(q, rel=1e-12)
        n = len(series.terms) + 1
        assert ((n + 1) / n) ** 2 * q * q <= q
        tail = math.fsum(16.0 * j * j * q ** (2 * j) / (1.0 - q ** (2 * j))
                         for j in range(n, n + 5000))
        assert tail <= 2.0**-53

    def test_pole_guard_and_rhombic_lattice(self):
        lat = ReferenceLattice.from_invariants(*WORKED_G)
        with pytest.raises(PoleProximityError):
            lat.nome_series.at(0.0)
        with pytest.raises(PoleProximityError):
            lat.nome_series.at(2.0 * lat.real_half_period)
        with pytest.raises(PoleProximityError):
            lat.nome_series.at_imaginary(0.0)
        # a rhombic lattice sums its companion's series, whose q^2 is
        # negative; on its imaginary axis p, p' and zeta come from the
        # companion's real axis, and agree with the reference kernel
        rhombic = ReferenceLattice.from_invariants(-1.0, 0.3)
        assert rhombic.nome_series.nome < 0.0
        for frac in (0.4, 0.8):
            y = frac * rhombic.periods.omega_prime.imag
            p, dp, zt = rhombic._wp_imaginary(y)
            assert all(isinstance(x, float) for x in (p, dp, zt))
            for got, want in zip((p, -1j * dp, 1j * zt), rhombic.wp_all(1j * y)):
                assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("g2,g3", COMPANION_GRID)
    def test_rectangular_companion_on_the_imaginary_axis(self, g2, g3):
        # q' < q: the lattice sums its companion's series, nome q', on
        # (omega', -omega) and reads its imaginary axis as the companion's
        # real one, p(iy) = -p_c(y).  Against the reference kernel's complex
        # sums on (omega, omega'), relative to the value or k^2, k^3 and k
        # of the real-period basis, and p(omega') = e3 from eta in closed form.
        # Measured worst 9.4e-16 and 4.4e-16 k^2; 4-6 terms against 7-9
        lat = ReferenceLattice.from_invariants(g2, g3)
        assert lat.companion and lat.nome_series.nome == lat.q_t < lat.q
        assert len(lat.nome_series.terms) < len(lat.series.terms)
        w_i, k = lat.periods.omega_prime.imag, lat.series.k
        for frac in (0.05, 0.3, 0.7, 1.0):
            p, dp, zt = lat._wp_imaginary(frac * w_i)
            want = lat.wp_all(complex(0.0, frac * w_i))[:3]
            for got, ref, order in ((p, want[0], 2), (complex(0.0, -dp), want[1], 3),
                                    (complex(0.0, zt), want[2], 1)):
                assert abs(got - ref) <= 1e-13 * max(abs(ref), k**order)
        assert abs(lat._wp_imaginary(w_i)[0] - lat.roots.e_tilde[2].real) <= 2e-15 * k * k


# Unbounded states of the benchmark's state_scatter workload (seed 1) just
# past the escape threshold, on rhombic lattices whose real-period basis
# has |q| = 0.79-0.80; the reduced basis has |q| <= 8e-5, and so has the
# companion's real-period basis.
NEAR_ESCAPE_RHOMBIC = [
    (1.8966325817257617, 1.0100051793114109, 0.0, 7.640905877959588e-05),
    (0.8716519320567981, 1.446502027981076, -0.0008602466716496821, 0.0028000903310882847),
    (1.61088302233467, 1.114046883369961, 0.0, 1.2922296709094595e-08),
]
RHOMBIC_GRID = [(g2, g3) for g2, g3 in LATTICE_GRID
                if Invariants(g2, g3).discriminant < 0.0]


def rhombic_lattices():
    near_escape = [ReferenceLattice(build_context(InitialState(*st)).lattice.roots)
                   for st in NEAR_ESCAPE_RHOMBIC]
    return [ReferenceLattice.from_invariants(g2, g3) for g2, g3 in RHOMBIC_GRID] + near_escape


def companion_lattices():
    """The rhombic lattices with escaping apse starts at delta = 1e-4 and 1e-8 above alpha*."""
    near = [build_context(InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 + delta))).lattice
            for delta in (1e-4, 1e-8)]
    return rhombic_lattices() + near


def own_roots(lat, mp):
    """The lattice's roots at mpmath precision: e2 and its own differences.

    A lattice of the dynamics has its differences to more digits than
    those of its rounded roots (``GRoots.gaps``).
    """
    g12, _, g23 = (mp.mpc(g) for g in lat.roots.gaps)
    e2 = mp.mpc(lat.roots.e_tilde[1])
    return [e2 + g12, e2, e2 - g23]


class TestRhombicSeries:
    """The reference kernel's reduced basis and the package's companion series.

    The theta reference lattice has the lattice's own roots (``own_roots``),
    shifted to sum zero (which shifts p by their mean m, zeta by -m z and
    sigma by the factor exp(-m z^2/2)): near the escape threshold the
    roots of the rounded invariants miss those of f, which this does not
    test.
    """

    @pytest.mark.parametrize("index", range(len(RHOMBIC_GRID) + len(NEAR_ESCAPE_RHOMBIC)))
    def test_matches_theta_reference(self, index):
        # measured worst 9e-14 (sigma near the escape threshold, where the
        # points lie up to 1500 from the origin)
        mp = pytest.importorskip("mpmath")
        lat = rhombic_lattices()[index]
        assert lat.roots.discriminant < 0.0
        with mp.workdps(30):
            e = own_roots(lat, mp)
            mean = sum(e) / 3
            e = [x - mean for x in e]
            g2 = mp.re(-4 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2]))
            ref, omega1, omega3 = theta_reference(g2, mp.re(4 * e[0] * e[1] * e[2]), mp)
            fractions = [(2 * k + 1) / mp.mpf(8) for k in range(4)]
            for a in fractions:
                for b in fractions:
                    z = 2 * a * omega1 + 2 * b * omega3
                    p, pp, zt, sg = lat.wp_all(complex(z))
                    want_p, want_zt, want_sg, want_pp = ref(z)
                    for got, want in ((p, want_p + mean), (pp, want_pp),
                                      (zt, want_zt - mean * z),
                                      (sg, want_sg * mp.exp(-mean * z * z / 2))):
                        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("index", range(len(RHOMBIC_GRID) + len(NEAR_ESCAPE_RHOMBIC)))
    def test_legendre_relation_and_half_period_roots(self, index):
        # both by construction; measured worst 0 and 1.2e-15 (p from the
        # reference kernel)
        lat = rhombic_lattices()[index]
        per = lat.periods
        legendre = per.eta * per.omega_prime - per.eta_prime * per.omega
        assert abs(legendre - 1j * math.pi / 2.0) <= 1e-13
        TestHalfPeriods.assert_half_periods_give_roots(lat)

    @pytest.mark.parametrize("index", range(len(RHOMBIC_GRID) + len(NEAR_ESCAPE_RHOMBIC) + 2))
    def test_companion_route_matches_theta_reference(self, index):
        # the package's route on the imaginary axis, the companion's real
        # axis at iy, and the reference kernel on the real axis up to w_r
        # itself, past the companion's reach w_r/2.  Relative to the value
        # or k^2, k^3 and k, k that of the companion; measured worst 2.7e-14
        # (p' at (1.0, 1.0) on the imaginary axis, |q| = 0.61)
        mp = pytest.importorskip("mpmath")
        lat = companion_lattices()[index]
        assert not lat.rectangular
        w_r, w_i = lat.real_half_period, 2.0 * lat.periods.omega_prime.imag
        k = lat.nome_series.k
        with mp.workdps(30):
            e = own_roots(lat, mp)
            mean = sum(e) / 3
            e = [x - mean for x in e]
            g2 = mp.re(-4 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2]))
            ref, _, _ = theta_reference(g2, mp.re(4 * e[0] * e[1] * e[2]), mp)
            kernel = ReferenceLattice(lat.roots)
            points = [(frac * w_r, kernel.wp_all(frac * w_r)[:3])
                      for frac in (0.05, 0.25, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0)]
            for frac in (0.05, 0.3, 0.7, 1.0):
                p, dp, zt = lat._wp_imaginary(frac * w_i)
                points.append((complex(0.0, frac * w_i),
                               (p, complex(0.0, -dp), complex(0.0, zt))))
            for z, (p, pp, zt) in points:
                want_p, want_zt, _, want_pp = ref(mp.mpc(z))
                for got, want, order in ((p, want_p + mean, 2), (pp, want_pp, 3),
                                         (zt, want_zt - mean * z, 1)):
                    assert abs(got - want) <= 1e-13 * max(abs(want), k**order)

    @pytest.mark.parametrize("index", range(len(RHOMBIC_GRID)))
    def test_fold_meets_its_taylor_terms_at_the_half_period(self, index):
        # p folds back at w_r: p(w_r - u) = e2 + G u^2 + O(u^4), G = |e1 - e2|^2.
        # R_F of the gaps of that value is w_r - u to rounding, from u
        # inside the pole guard on; measured worst 5.9e-16 w_r
        lat = rhombic_lattices()[index]
        w_r, g12 = lat.real_half_period, lat.roots.gaps[0]
        guard = weierstrass._POLE_GUARD
        for u in (0.5 * guard, 2.0 * guard, 1e-9 * w_r, 1e-6 * w_r):
            gap2 = abs(g12) ** 2 * u * u
            x = lat.wp_inverse_real((gap2 - g12, gap2, (gap2 - g12).conjugate()))
            assert abs(x - (w_r - u)) <= 2e-15 * w_r

    def test_near_escape_periods_keep_their_digits(self):
        # R_F(0, e2 - e1, e2 - e3) with e1 - e2 near the negative real axis
        # lost 1e-13 of w_r in its first duplication step
        mp = pytest.importorskip("mpmath")
        for st in NEAR_ESCAPE_RHOMBIC:
            lat = build_context(InitialState(*st)).lattice
            e1, e2, e3 = (mp.mpc(z) for z in lat.roots.e_tilde)
            with mp.workdps(30):
                w_r = mp.re(mp.elliprf(0, e2 - e1, e2 - e3))
                w_i = mp.re(mp.elliprf(0, e1 - e2, e3 - e2))
            assert abs(lat.real_half_period - w_r) <= 1e-15 * w_r
            assert abs(2.0 * lat.periods.omega_prime.imag - w_i) <= 1e-15 * w_i


def seeded_rhombic_roots(n, seed):
    """Roots e2 + g, e2, e2 + conj g with |g| = H in [0.01, 10], e2 in [-2H, 2H].

    arg g spans (1e-3, pi - 1e-3), a third of the lattices within 1 of
    either end: near 0 the pair closes on the real axis (m1 -> 0, the
    escape threshold), near pi it does with m -> 0.
    """
    rng = np.random.default_rng(seed)
    roots = []
    for i in range(n):
        h = 10.0 ** rng.uniform(-2.0, 1.0)
        end = 10.0 ** rng.uniform(-3.0, 0.0)
        phi = (end, math.pi - end, rng.uniform(0.01, math.pi - 0.01))[i % 3]
        g = complex(h * math.cos(phi), h * math.sin(phi))
        e2 = h * rng.uniform(-2.0, 2.0)
        roots.append(weierstrass.GRoots(e_tilde=(e2 + g, complex(e2), e2 + g.conjugate()),
                                        gaps=(g, complex(0.0, 2.0 * g.imag), -g.conjugate())))
    return roots


class TestRhombicConstruction:
    """w_r, w_i, zeta(w_r) and eta_c of a rhombic lattice from one AGM per axis.

    Against mpmath on the lattice's own roots: R_F for the half periods,
    the theta_1 reference for zeta.  ``oracle.ReferenceLattice`` builds its
    half periods as the package does, so it is no reference here.
    """

    def test_half_periods_against_mpmath(self):
        # w_r = R_F(0, e2 - e1, e2 - e3), w_i = R_F(0, e1 - e2, e3 - e2);
        # measured worst 4.4e-16 (2 ulps) over 4000 of them, against
        # 6.7e-16 for the complex R_F route this replaced
        mp = pytest.importorskip("mpmath")
        for roots in seeded_rhombic_roots(150, 61):
            lat = Lattice(roots)
            assert not lat.rectangular
            w_r, w_i = lat.real_half_period, 2.0 * lat.periods.omega_prime.imag
            with mp.workdps(30):
                g = mp.mpc(roots.gaps[0])
                assert abs(w_r - mp.re(mp.elliprf(0, -g, -mp.conj(g)))) <= 6e-16 * w_r
                assert abs(w_i - mp.re(mp.elliprf(0, g, mp.conj(g)))) <= 6e-16 * w_i

    def test_zeta_at_the_half_periods_against_theta_reference(self):
        # zeta(w_r) and eta_c = i zeta(i w_i), each within 1e-15 of the
        # size of what its formula sums, |zeta| + (|e2| + H) w: sqrt(H)
        # K = H w and e2 w in eta_c, and in zeta(w_r) = (pi - eta_c w_r)/w_i,
        # where pi/w_i <= |zeta| + (|e2| + H) w_r.  Measured worst 3.1e-16
        # over 600 lattices; relative to |zeta| + |e2| w alone it reads up
        # to 1.6e-15 where 2E - K or pi - eta_c w_r cancels
        mp = pytest.importorskip("mpmath")
        for roots in seeded_rhombic_roots(24, 62):
            lat = Lattice(roots)
            per = lat.periods
            w_r, w_i = lat.real_half_period, 2.0 * per.omega_prime.imag
            zeta_r, eta_c = 2.0 * per.eta.real, 2.0 * per.eta.imag
            e2, h = roots.e_tilde[1].real, abs(roots.gaps[0])
            with mp.workdps(30):
                g, s = mp.mpc(roots.gaps[0]), mp.mpf(e2)
                e = [s + g, s, s + mp.conj(g)]
                mean = sum(e) / 3
                e = [x - mean for x in e]
                g2 = mp.re(-4 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2]))
                ref, omega1, omega3 = theta_reference(g2, mp.re(4 * e[0] * e[1] * e[2]), mp)
                iw_i = 2 * mp.mpc(0, mp.im(omega3))
                want_r = mp.re(ref(omega1)[1] - mean * omega1)
                want_c = mp.re(1j * (ref(iw_i)[1] - mean * iw_i))
            assert abs(zeta_r - want_r) <= 1e-15 * (abs(want_r) + (abs(e2) + h) * w_r)
            assert abs(eta_c - want_c) <= 1e-15 * (abs(want_c) + (abs(e2) + h) * w_i)


class TestImaginaryHalf:
    """A lattice builds its real half at construction and the rest on first read."""

    IMAGINARY = ("periods", "q", "q_t", "companion", "nome_series")

    @pytest.mark.parametrize("g2, g3", [WORKED_G, (4.0, 0.0), (-1.0, 0.3), (0.2, -1.0)])
    def test_built_once_on_first_read(self, g2, g3, monkeypatch):
        roots = g_roots(Invariants(g2, g3))
        lat = Lattice(roots)
        assert not set(self.IMAGINARY) & set(vars(lat))
        assert ("tail" in vars(lat)) == lat.rectangular
        builds = []
        name = "_rectangular_imaginary" if lat.rectangular else "_rhombic_imaginary"
        build = getattr(Lattice, name)
        monkeypatch.setattr(Lattice, name, lambda self: builds.append(self) or build(self))
        for _ in range(2):
            for attr in self.IMAGINARY:
                getattr(lat, attr)
        assert builds == [lat]
        # whichever attribute is read first, the imaginary half is the same
        for name in self.IMAGINARY:
            other = Lattice(roots)
            getattr(other, name)
            assert set(self.IMAGINARY) <= set(vars(other))
            assert [getattr(other, n) for n in self.IMAGINARY[:4]] == \
                [getattr(lat, n) for n in self.IMAGINARY[:4]]
        # real_half_period is omega_1 (rectangular) or omega_2 (rhombic), bit for bit
        k = 1 if lat.rectangular else 2
        assert lat.real_half_period == lat.periods.omega_k(k).real


class TestLogSigma:
    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_branch_is_continuous_along_lines(self, g2, g3):
        lat = ReferenceLattice.from_invariants(g2, g3)
        per = lat.periods
        w = lat.real_half_period
        eta = lat.zeta(w).real
        # lines between the real axis and the half periods above it; the
        # first lattice points off the axis lie twice as high
        height = min(abs(x.imag) for x in (per.omega, per.omega_prime)
                     if abs(x.imag) > 1e-12 * abs(x))
        xs = np.linspace(-2.0 * w, 2.0 * w, 201)
        for frac in (0.25, 0.5, 0.95):
            line = [complex(x, frac * height) for x in xs]
            logs = [oracle.log_sigma(lat, z) for z in line]
            # d log sigma / dz = zeta: a jump between branches would miss
            # the midpoint-rule step by 2 pi, the rule itself by below 1e-2
            for a, b, la, lb in zip(line, line[1:], logs, logs[1:]):
                step = lat.zeta(0.5 * (a + b)) * (b - a)
                assert abs(lb - la - step) <= 0.1
            for z, log in zip(line[::20], logs[::20]):
                assert abs(cmath.exp(log) - lat.sigma(z)) <= \
                    1e-13 * abs(lat.sigma(z))
                # sigma(z + 2w) = -exp(2 eta (z + w)) sigma(z); on this branch
                # the sign is exp(-i pi)
                want = 2.0 * eta * (z + w) - 1j * math.pi
                assert abs(oracle.log_sigma(lat, z + 2.0 * w) - log - want) <= \
                    1e-12 * (1.0 + abs(log))


class TestInverse:
    """p^-1 on the two axes, on rectangular and rhombic lattices alike.

    The gaps are formed as the dynamics forms them: real ones from the real
    roots, a conjugate pair on a rhombic lattice.
    """

    @staticmethod
    def gaps(lat, w, sign):
        """sign (w - e_i), real where e_i is."""
        return tuple(sign * (w - (e if e.imag else e.real)) for e in lat.roots.e_tilde)

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_real_inverse_from_root_gaps(self, g2, g3):
        # x in (0, w_r) with p(x) = w > e_k, R_F of the gaps; w = e_k gives
        # w_r to the rounding of R_F
        lat = ReferenceLattice.from_invariants(g2, g3)
        w_r = lat.real_half_period
        e_k = lat.roots.e_tilde[0 if lat.rectangular else 1].real
        for frac in (0.05, 0.4, 0.9, 0.999, 1.0):
            w = e_k if frac == 1.0 else lat.wp(frac * w_r).real
            x = lat.wp_inverse_real(self.gaps(lat, w, 1.0))
            assert 0.0 < x < w_r or frac == 1.0   # there R_F rounds to w_r
            assert abs(lat.wp(x) - w) <= 1e-13 * (1.0 + abs(w))
            if frac < 0.95:
                assert x == pytest.approx(frac * w_r, rel=1e-12)
        assert x == pytest.approx(w_r, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_real_inverse_of_gaps_scaled_by_a_power_of_4(self, g2, g3):
        # gaps passed as 4^e (w - e_i), as tau0 passes those of a w near
        # the pole, give the unscaled x bit for bit: R_F(4^e g) = 2^-e R_F(g)
        # and every rounding scales exactly
        lat = ReferenceLattice.from_invariants(g2, g3)
        for frac in (0.05, 0.4, 0.9):
            gaps = self.gaps(lat, lat.wp(frac * lat.real_half_period).real, 1.0)
            x = lat.wp_inverse_real(gaps)
            for e in (-300, -7, 1, 200):
                assert lat.wp_inverse_real(tuple(g * 4.0**e for g in gaps), e) == x

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_imaginary_inverse_from_root_gaps(self, g2, g3):
        # p(v) = w <= e3 (rectangular) or e2 (rhombic) with p' on the +i
        # branch: v = 2 omega' - iy, y in (0, h], ih the first half period up
        # the imaginary axis; w at that half period gives it back.  The
        # values are those of the reference kernel at v
        lat = ReferenceLattice.from_invariants(g2, g3)
        per = lat.periods
        h = (per.omega_prime if lat.rectangular else per.omega_prime - per.omega).imag
        re_v = 0.0 if lat.rectangular else lat.real_half_period
        lo = h if lat.rectangular else 0.0                           # Im v in [lo, lo + h)
        e_h = lat.roots.e_tilde[2 if lat.rectangular else 1].real   # p(ih)
        for frac in (0.05, 0.4, 0.9, 0.999, 1.0):
            w = e_h if frac == 1.0 else lat.wp(complex(0.0, frac * h)).real
            v, (p, pp, zt) = lat.wp_inverse_imaginary(w, self.gaps(lat, w, -1.0))
            assert v.real == re_v
            assert abs(p - w) <= 1e-13 * (1.0 + abs(w))
            kernel = lat.wp_all(v)
            for got, want in zip((p, pp, zt), kernel):
                assert abs(got - want) <= 1e-13 * (1.0 + abs(want))
            if frac < 1.0:
                assert pp.imag > 0.0
                assert 0.0 < v.imag and lo <= v.imag < lo + h
            if frac < 0.95:
                assert v.imag == pytest.approx(2.0 * per.omega_prime.imag - frac * h,
                                               rel=1e-12)
        half = per.omega_prime if lat.rectangular else lat.real_half_period
        assert abs(lat.reduce(v - half)[0]) <= 1e-14 * abs(half)

    def test_far_branch_of_the_pair_reduction(self, monkeypatch):
        # rhombic p^-1 past half the axis's half period, where R_F is the
        # half period minus the reduced value: tau0 at 0.63 w_r on (2, 0.5,
        # 45 deg, 0.3), and the theta pole's y = w_i - Im v at 0.60 w_i on
        # (2, 0.5, 10 deg, 0.3).  Each against mpmath's complex R_F of the
        # gaps the context hands in, tau0's passed as 4^e times theirs;
        # measured 8.2e-17 and 3.2e-17
        mp = pytest.importorskip("mpmath")
        seen = {}
        for name in ("wp_inverse_real", "wp_inverse_imaginary"):
            method = getattr(Lattice, name)

            def kept(self, *args, name=name, method=method):
                seen[name] = args
                return method(self, *args)

            monkeypatch.setattr(Lattice, name, kept)
        far = build_context(InitialState(2.0, 0.5, math.radians(45.0), 0.3))
        scaled, e = seen["wp_inverse_real"]
        tau_gaps = [mp.mpc(g) * mp.ldexp(1, -2 * e) for g in scaled]
        pole = build_context(InitialState(2.0, 0.5, math.radians(10.0), 0.3))
        pole_gaps = seen["wp_inverse_imaginary"][1]
        w_r = far.lattice.real_half_period
        w_i = 2.0 * pole.lattice.periods.omega_prime.imag
        y = w_i - pole.v.imag
        assert not far.lattice.rectangular and not pole.lattice.rectangular
        assert far.tau0 / w_r == pytest.approx(0.63, abs=0.01)
        assert pole.v.real == pole.lattice.real_half_period
        assert pole.v.imag / w_i == pytest.approx(0.40, abs=0.01)
        with mp.workdps(30):
            for got, gaps in ((far.tau0, tau_gaps), (y, pole_gaps)):
                want = mp.re(mp.elliprf(*(mp.mpc(g) for g in gaps)))
                assert abs(got - want) <= 4e-15 * want
        assert r_of_tau(far, far.tau0) == pytest.approx(2.0, rel=1e-15, abs=0.0)


class TestLaurentCoefficients:
    """The series kernel near the origin against the Laurent series of p.

    p = 1/z^2 + sum_(k>=2) c_k z^(2k-2) with c_2 = g2/20, c_3 = g3/28 and
    c_k = 3 sum_(m=2..k-2) c_m c_(k-m) / ((2k+1)(k-3)) (DLMF 23.9.7), an
    independent reference that converges fast for |z| well inside the
    shortest lattice vector.
    """

    @staticmethod
    def full_range(g2, g3, terms=30):
        """The recurrence summed over every m, both orders of each pair."""
        c = [0.0, 0.0, g2 / 20.0, g3 / 28.0]
        for k in range(4, terms + 1):
            acc = math.fsum(c[m] * c[k - m] for m in range(2, k - 1))
            c.append(3.0 * acc / ((2 * k + 1) * (k - 3)))
        return c

    @staticmethod
    def half_sum(g2, g3, terms=30):
        """The recurrence over half the pairs, each doubled, which is exact."""
        c = [0.0, 0.0, g2 / 20.0, g3 / 28.0]
        for k in range(4, terms + 1):
            pairs = [2.0 * c[m] * c[k - m] for m in range(2, (k + 1) // 2)]
            if k % 2 == 0:
                pairs.append(c[k // 2] * c[k // 2])
            c.append(3.0 * math.fsum(pairs) / ((2 * k + 1) * (k - 3)))
        return c

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_half_sum_is_bit_identical(self, g2, g3):
        # the correctly rounded fsum is unchanged by summing each pair once
        assert self.half_sum(g2, g3) == self.full_range(g2, g3)

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    def test_kernel_matches_laurent_series_near_the_origin(self, g2, g3):
        # at |z| = 0.1 of the shortest lattice vector the omitted Laurent
        # terms are below 1e-25 of 1/z^2; p - 1/z^2 cancels, so the
        # comparison is in units of 1/|z|^2
        lat = ReferenceLattice.from_invariants(g2, g3)
        c = self.half_sum(g2, g3)
        radius = 0.2 * min(abs(lat.basis.omega), abs(lat.basis.omega_prime))
        for angle in (0.1, 0.9, 2.0, 3.0):
            z = cmath.rect(radius, angle)
            want = 1.0 / z**2 + sum(c[k] * z ** (2 * k - 2) for k in range(2, len(c)))
            assert abs(lat.wp(z) - want) <= 1e-15 / radius**2

class TestAdditionTheorem:
    """zeta(z + w_k) + zeta(z - w_k) = 2 zeta(z) + p'(z)/(p(z) - e_k).

    DLMF 23.10.4 with p(w_k) = e_k; the radial Kepler equation takes its
    zeta pair from one evaluation at z this way.
    """

    @pytest.mark.parametrize("g2,g3", LATTICE_GRID)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zeta_pair_from_one_point(self, g2, g3, k):
        lat = ReferenceLattice.from_invariants(g2, g3)
        w_k, e_k = lat.periods.omega_k(k), lat.roots.e_tilde[k - 1]
        real = [x * lat.real_half_period for x in (0.1, 0.45, 0.8, 1.3)]
        for z in real + sample_points(lat, 20, seed=13):
            if min(abs(lat.reduce(z + s * w_k)[0]) for s in (-1, 0, 1)) < 0.05 * abs(w_k):
                continue
            p, pp, zt, _ = lat.wp_all(z)
            pair = lat.zeta(z + w_k) + lat.zeta(z - w_k)
            quotient = pp / (p - e_k)
            assert abs(pair - 2.0 * zt - quotient) <= \
                1e-12 * (1.0 + abs(zt) + abs(quotient))


@pytest.mark.parametrize("g2,g3", LATTICE_GRID)
def test_series_read_the_lattice_row(g2, g3):
    # the nome series' coefficients are Q^n/(1 - Q^n) of the lattice's row
    # of its basis, bit for bit with the powers as repeated products, and
    # each sum stops at the first n that meets its bound: 16 n^2 |c_n| <=
    # 2^-53 (1 - |q|) on the real axis, at -iy on its own basis r_n = ((n+1)/n)^2
    # |Q| e^(2ky) < 1 and 16 n^2 |c_n| e^(2nky) <= 2^-53 (1 - r_n)
    lat = ReferenceLattice.from_invariants(g2, g3)
    series = lat.nome_series
    assert series.row is (lat.row_t if lat.companion else lat.row)
    q, big_q = abs(series.nome), series.row.big_q
    assert big_q == series.nome * q
    c, p = [], 1.0
    for _ in range(len(series.terms) + 60):
        p *= big_q
        c.append(p / (1.0 - p))
    assert [t[2] for t in series.terms] == [4.0 * x for x in c[:len(series.terms)]]
    n = 1
    while 16.0 * n * n * abs(c[n - 1]) > 2.0**-53 * (1.0 - q):
        n += 1
    assert len(series.terms) == n - 1
    for frac in (0.1, 0.5, 0.9) if not lat.companion else ():   # at_imaginary's lattices
        step = q * q * math.exp(2.0 * series.k * frac * lat.periods.omega_prime.imag)
        n = 1
        while True:
            r = ((n + 1) / n) ** 2 * step
            if r < 1.0 and 16.0 * n * n * abs(c[n - 1]) * step**n / q ** (2 * n) \
                    <= 2.0**-53 * (1.0 - r):
                break
            n += 1
        assert weierstrass.stop_index(series.row, 16.0, 2, step, step, 2) == n
