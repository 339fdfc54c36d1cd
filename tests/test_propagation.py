import cmath
import gc
import math
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

import oracle
from radialorbit import analysis, cubic, dynamics, propagation, weierstrass
from radialorbit.dynamics import InitialState
from radialorbit.elliptic import carlson_rf
from radialorbit.errors import (
    DegenerateLatticeError,
    RadialOrbitError,
    NoPericenterError,
    OutOfIntervalError,
    WpInverseError,
)
from radialorbit.propagation import (
    build_context,
    invariants_from_conserved,
    invert_kepler,
    propagate_ctx,
    r_of_tau,
    radial_kepler,
    state_at_tau,
    tau0_from_r0,
    theta_of_tau,
)

from radialorbit.weierstrass import Lattice

from oracle import r_of_tau_general
from conftest import (
    FORMER_DEGENERATE,
    INBOUND,
    ROSETTE,
    TILTED,
    WORKED,
    sample_states,
    wrap_angle,
)
from test_weierstrass import theta_reference

SQRT13 = math.sqrt(13.0)
APO = 7.0 - SQRT13

# Frozen independent values for the worked instance (pericenter start
# r_p = 1, v_p = 1.2, alpha = 0.02), derived by adaptive quadrature of the
# defining integrals with turning-point substitutions and by scipy.elliprf.
WORKED_T_TAU = 10.87580289633893
WORKED_T_T = 24.362743957667902
WORKED_DTHETA = 6.935691098437957
WORKED_TAU0_11 = 0.6652228189700489
WORKED_T0_11 = 0.6875539671379249


def kernel_calls(monkeypatch):
    """A list that records each NomeSeries.at and at_imaginary call from here on."""
    calls = []
    for name in ("at", "at_imaginary"):
        method = getattr(weierstrass.NomeSeries, name)

        def counted(self, x, name=name, method=method):
            calls.append((name, x))
            return method(self, x)

        monkeypatch.setattr(weierstrass.NomeSeries, name, counted)
    return calls


def series_terms(form):
    """Lengths of the coefficient tables a radial form or a theta evaluator sums.

    A table is a tuple of floats (theta) or of 3-tuples of floats (r and t);
    the forms are partials whose arguments hold them, directly or nested.
    """
    if isinstance(form, partial):
        return [n for arg in form.args for n in series_terms(arg)]
    if not isinstance(form, tuple):
        return []
    if all(isinstance(x, float) for x in form) or all(
            isinstance(x, tuple) and len(x) == 3 and all(isinstance(y, float) for y in x)
            for x in form):
        return [len(form)]
    return [n for item in form for n in series_terms(item)]


def r_prime_of_tau(ctx, tau):
    """dr/dtau at pseudo-time tau, from the same evaluation as r."""
    return propagation._orbit_point(ctx, tau)[2]


def shifted_worked_state(r0=1.1, sign=+1):
    # same conserved quantities as the worked instance, epoch at r0
    energy, h, alpha = -0.3, 1.2, 0.02
    v0 = math.sqrt(2.0 * (energy + 1.0 / r0 + alpha * r0))
    gamma0 = sign * math.acos(min(1.0, h / (r0 * v0)))
    return InitialState(r0, v0, gamma0, alpha)


class TestBuildContext:
    def test_worked_invariants_and_root_index(self, worked_ctx):
        g2, g3 = invariants_from_conserved(worked_ctx.state.alpha, worked_ctx.energy,
                                           worked_ctx.momentum)
        assert g2 == pytest.approx(0.01, abs=1e-15)
        assert g3 == pytest.approx(0.000144, abs=1e-18)
        assert worked_ctx.e_k == pytest.approx(-0.04, abs=1e-15)
        # f''(r_m)/24 = (12 a r_m + 4 E)/24 direct cross-check
        assert worked_ctx.e_k == pytest.approx(
            (12 * 0.02 * 1.0 + 4 * -0.3) / 24.0, abs=1e-15
        )
        assert worked_ctx.k == 3
        assert worked_ctx.bounded

    def test_pericenter_start_has_zero_tau0(self, worked_ctx):
        assert worked_ctx.tau0 == 0.0
        assert worked_ctx.t0 == 0.0

    def test_rosette_root_index_is_two(self, rosette_ctx):
        assert rosette_ctx.k == 2
        assert rosette_ctx.bounded

    def test_ek_is_a_lattice_root(self, worked_ctx, rosette_ctx):
        for ctx in (worked_ctx, rosette_ctx):
            g2, g3 = invariants_from_conserved(ctx.state.alpha, ctx.energy,
                                               ctx.momentum)
            res = 4.0 * ctx.e_k**3 - g2 * ctx.e_k - g3
            assert abs(res) <= 1e-10 * max(1.0, abs(g2), abs(g3))

    @pytest.mark.parametrize("state", [
        WORKED, ROSETTE, TILTED, INBOUND, dict(r0=1.0, v0=1.5, gamma0=0.0, alpha=1e-6),
        dict(r0=1.1, v0=1.5, gamma0=math.radians(30.0), alpha=0.05)],
        ids=["worked", "rosette", "tilted", "inbound", "k1", "rhombic"])
    def test_frame_holds_both_periods_from_the_real_half(self, state):
        # T_tau and T_t read the lattice's real half alone; the imaginary
        # half (periods, nomes, series) is made on the pole's first read
        frame = propagation.SolutionContext(InitialState(**state))
        assert not {"periods", "q", "q_t", "companion", "nome_series"} & set(vars(frame.lattice))
        ctx = build_context(InitialState(**state))
        assert (frame.T_tau, frame.T_t) == (ctx.T_tau, ctx.T_t)
        assert (frame.T_t is None) == (not frame.bounded)
        assert "periods" in vars(ctx.lattice)

    def test_apse_start_kernel_work(self, monkeypatch):
        # the pole is the one series evaluation of a context: its R_F seed
        # and one Newton step on the imaginary axis, the lattice's own
        # series at -iy (rectangular, q <= q') or its companion's real axis
        # (rhombic, and the k = 1 lattice at alpha = 1e-7, q' < q).  An apse start needs no theta (theta0 = 0); off an apse
        # tau0 is R_F of the gaps and t0, theta0 come from the radial and
        # theta series, none of which calls the kernel
        calls = kernel_calls(monkeypatch)
        for state, name, apse in (
                (InitialState(**WORKED), "at_imaginary", True),
                (InitialState(**ROSETTE), "at_imaginary", True),
                (InitialState(1.0, 1.2, 0.0, 0.1), "at", True),
                (InitialState(**TILTED), "at_imaginary", False),
                (InitialState(*UNBOUNDED_POLES["rhombic"]), "at", False),
                (InitialState(*UNBOUNDED_POLES["shift"]), "at_imaginary", False),
                (InitialState(1.0, 1.5, 0.0, 1e-7), "at", True)):
            calls.clear()
            ctx = build_context(state)
            assert (ctx.theta0 == 0.0) == apse
            assert [called for called, _ in calls] == [name]

    @pytest.mark.parametrize("kw", [WORKED, ROSETTE, TILTED])
    def test_pole_values_from_the_branch_check(self, kw):
        # the values at v that _theta_pole returns are the nome series' at
        # the reduced pole v - 2 omega' = -iy, with 2 eta' added to zeta; the
        # reference kernel at v agrees, and p'(v) = +i v_m f'(r_m)/(4 r_m)
        ctx = build_context(InitialState(**kw))
        lat = ctx.lattice
        c_v = 0.25 * ctx.f.df(ctx.r_m) / ctx.r_m
        v, (p, pp, zt) = propagation._theta_pole(lat, ctx.k, ctx.e_k, c_v)
        assert v == ctx.v and zt == ctx.zeta_v
        y = 2.0 * lat.periods.omega_prime.imag - v.imag
        p_c, pp_c, zt_c = lat.nome_series.at_imaginary(y)
        shifted = (p_c, 1j * pp_c, 1j * zt_c + 2.0 * lat.periods.eta_prime)
        kernel = oracle.ReferenceLattice(lat.roots).wp_all(v)[:3]
        for got, near, far in zip((p, pp, zt), shifted, kernel):
            assert abs(got - near) <= 1e-14 * (1.0 + abs(got))
            assert abs(got - far) <= 1e-13 * (1.0 + abs(got))
        assert pp == pytest.approx(1j * ctx.v_m * c_v, rel=1e-13, abs=0.0)

    def test_apse_epoch_without_inversion(self):
        # near-circular apse start: f(r0) = 0 makes r0 a root exactly, the
        # pericenter here (p^-1 of r0 once left the real axis, 0.00057j)
        state = InitialState(1.8218007400985097, 0.7503783122147819, 0.0,
                             -0.007764854127632678)
        ctx = build_context(state)
        assert ctx.r_m == state.r0
        assert ctx.tau0 == ctx.t0 == ctx.theta0 == 0.0
        traj = oracle.integrate_ode(state, 2.0 * ctx.T_t)
        for t in np.linspace(0.1, 1.9, 7) * ctx.T_t:
            r_ref, th_ref, _, _ = traj.at(t)
            ps = propagate_ctx(ctx, t)
            assert abs(ps.r - r_ref) / r_ref < 1e-9
            # a near-circular orbit: theta is sensitive to the apse radius
            assert abs(ps.theta - th_ref) < 1e-8

    def test_apocenter_epoch_without_inversion(self, monkeypatch):
        # apse start at the far apse: tau0 = T_tau/2, no p^-1 call
        worked = build_context(InitialState(**WORKED))
        r_hi = worked.region.r_hi
        state = InitialState(r_hi, WORKED["v0"] * WORKED["r0"] / r_hi, 0.0,
                             WORKED["alpha"])
        calls = []
        wp_inverse_real = Lattice.wp_inverse_real

        def counted(self, gaps):
            calls.append(gaps)
            return wp_inverse_real(self, gaps)

        monkeypatch.setattr(Lattice, "wp_inverse_real", counted)
        ctx = build_context(state)
        assert calls == []
        assert ctx.tau0 == 0.5 * ctx.T_tau
        assert ctx.t0 == pytest.approx(0.5 * ctx.T_t, rel=1e-13, abs=0.0)
        assert ctx.theta0 == pytest.approx(0.5 * ctx.dtheta_period, rel=1e-13, abs=0.0)

    def test_theta_pole_branch(self, worked_ctx):
        ctx = worked_ctx
        target = 0.25 * ctx.v_m * ctx.f.df(ctx.r_m) / ctx.r_m
        pv = oracle.ReferenceLattice(ctx.lattice.roots).wp_all(ctx.v)[1]
        assert pv == pytest.approx(1j * target, rel=1e-9)

    def test_h_zero_rejected(self):
        with pytest.raises(NoPericenterError):
            build_context(InitialState(1.0, 1.0, math.pi / 2.0, -0.05))

    def test_shifted_state_same_conserved(self):
        state = shifted_worked_state()
        assert state.energy == pytest.approx(-0.3, abs=1e-14)
        assert state.momentum == pytest.approx(1.2, abs=1e-14)
        ctx = build_context(state)
        assert ctx.r_m == pytest.approx(1.0, abs=1e-10)
        assert ctx.v_m == pytest.approx(1.2, abs=1e-10)
        assert ctx.tau0 == pytest.approx(WORKED_TAU0_11, abs=1e-10)
        assert ctx.t0 == pytest.approx(WORKED_T0_11, abs=1e-10)


# near-circular k = 2 start (state_scatter, seed 1): p(v) lies 5.8e-7 (e1 - e3)
# below e3, next to the critical point p(omega') = e3, and |p'(v)| is 1.5e-6 k^3
NEAR_CIRCULAR_K2 = dict(r0=2.208153375893444, v0=0.8480389974494841, gamma0=0.0,
                        alpha=-0.12060017329104744)


class TestThetaPole:
    """v, p'(v) and zeta(v) of bounded motion against the theta_1 reference.

    The reference lattice has the context's computed roots (shifted to sum
    zero, which shifts p by their mean m and zeta by -m z): on near-circular
    states the roots of the lattice cubic of the rounded invariants
    (``oracle.g_roots``) miss the context's by up to 1e-5 relative in
    e2 - e3, which this does not test.  The target is w = e_k -
    f'(r_m)/(4 r_m) in exact arithmetic.
    Errors of 1e-13 in units of k^2, k^3 and k (k = pi/(2 omega)) are
    allowed in p, p' and zeta, and 1e-13 (|v| + k^2/|p'(v)|) in v, the
    first-order effect of such an error in p.
    """

    @pytest.mark.parametrize("kw", [WORKED, ROSETTE, TILTED, INBOUND, NEAR_CIRCULAR_K2])
    def test_pole_matches_theta_reference(self, kw):
        mp = pytest.importorskip("mpmath")
        ctx = build_context(InitialState(**kw))
        assert ctx.k in (2, 3)
        lat = ctx.lattice
        c_v = 0.25 * ctx.f.df(ctx.r_m) / ctx.r_m
        v, (p, pp, zt) = propagation._theta_pole(lat, ctx.k, ctx.e_k, c_v)
        assert v == ctx.v and zt == ctx.zeta_v
        k = lat.nome_series.k
        with mp.workdps(40):
            e = [mp.mpf(z.real) for z in lat.roots.e_tilde]
            mean = sum(e) / 3
            e = [x - mean for x in e]
            g2 = -4 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2])
            ref, _, omega3 = theta_reference(g2, 4 * e[0] * e[1] * e[2], mp)
            w = mp.mpf(ctx.e_k) - mp.mpf(c_v) - mean
            v_ref = 2 * omega3 - 1j * mp.elliprf(*(x - w for x in e))
            assert abs(v - v_ref) <= 1e-13 * (abs(v) + k**2 / abs(pp))
            want_p, want_zt, _, want_pp = ref(mp.mpc(v))
            assert abs(p - mean - want_p) <= 1e-13 * k**2
            assert abs(p - ctx.e_k + c_v) <= 1e-13 * k**2
            assert abs(pp - want_pp) <= 1e-13 * max(abs(want_pp), k**3)
            assert abs(zt + mean * v - want_zt) <= 1e-13 * max(abs(want_zt), k)

    def test_near_circular_pole_is_polished(self):
        # next to the critical point p(omega') = e3, R_F of the root gaps
        # (the k-th one f'(r_m)/(4 r_m), exact) seeds the pole.  With the
        # gaps from f's root differences the seed already meets p(v) = w to
        # 1e-13 (within 1e-15 on 5748 random bounded states; 6.7e-12 here
        # when the lattice had roots of its own), and the pole refined by
        # one Newton step keeps it
        ctx = build_context(InitialState(**NEAR_CIRCULAR_K2))
        lat = ctx.lattice
        series = lat.nome_series
        roots = [z.real for z in lat.roots.e_tilde]
        c_v = 0.25 * ctx.f.df(ctx.r_m) / ctx.r_m
        w = ctx.e_k - c_v
        assert 0.0 < roots[2] - w < 1e-6 * (roots[0] - roots[2])
        gaps = [d + c_v for d in propagation._root_offsets(lat, ctx.k)]
        assert gaps[ctx.k - 1] == c_v
        assert abs(series.at_imaginary(carlson_rf(*gaps))[0] - w) <= 1e-13 * (1.0 + abs(w))
        v_c = ctx.v - 2.0 * lat.periods.omega_prime
        assert v_c.real == 0.0
        assert abs(series.at_imaginary(-v_c.imag)[0] - w) <= 1e-13 * (1.0 + abs(w))


# Unbounded states, one for each line that holds the theta pole
# (``propagation._theta_pole``): (a) the imaginary axis of a rectangular
# lattice, (b) its line Re v = omega, where all three roots of f (0.094,
# 0.685 and 4.855) are positive, and (c) a rhombic lattice, Re v = w_r.
UNBOUNDED_POLES = {
    "axis": (1.0, 1.5, 0.0, 1e-6),
    "shift": (4.87, 0.115, math.radians(44.0), 0.26),
    "rhombic": (1.1, 1.5, math.radians(30.0), 0.05),
}


class TestUnboundedPole:
    @pytest.mark.parametrize("name", sorted(UNBOUNDED_POLES))
    def test_pole_on_its_line(self, name):
        # v on its line, p'(v) = +i v_m f'(r_m)/(4 r_m), and the values the
        # inversion returns are those of the reference kernel at v
        ctx = build_context(InitialState(*UNBOUNDED_POLES[name]))
        lat = ctx.lattice
        roots = [z.real for z in ctx.f.roots]
        assert not ctx.bounded
        assert lat.rectangular == (name != "rhombic")
        assert (min(roots) > 0.0) == (name == "shift")
        line = {"axis": 0.0, "shift": lat.periods.omega.real,
                "rhombic": lat.real_half_period}[name]
        assert ctx.v.real == line and ctx.v.imag > 0.0
        c_v = 0.25 * ctx.f.df(ctx.r_m) / ctx.r_m
        v, (p, pp, zt) = propagation._theta_pole(lat, ctx.k, ctx.e_k, c_v)
        assert v == ctx.v and zt == ctx.zeta_v
        assert pp == pytest.approx(1j * ctx.v_m * c_v, rel=1e-13, abs=0.0)
        for got, want in zip((p, pp, zt), oracle.ReferenceLattice(lat.roots).wp_all(v)):
            assert abs(got - want) <= 1e-13 * (1.0 + abs(want))

    @pytest.mark.parametrize("name", sorted(UNBOUNDED_POLES))
    def test_against_rk(self, name):
        # measured worst 3.9e-12 in r and 3.4e-12 in theta
        state = InitialState(*UNBOUNDED_POLES[name])
        ctx = build_context(state)
        assert r_of_tau(ctx, ctx.tau0) == pytest.approx(state.r0, rel=1e-13, abs=0.0)
        traj = oracle.integrate_ode(state, 30.0)
        for t in np.linspace(0.05, 1.0, 8) * 30.0:
            r_ref, th_ref, _, _ = traj.at(t)
            ps = propagate_ctx(ctx, t)
            assert abs(ps.r - r_ref) / r_ref < 1e-9
            assert abs(ps.theta - th_ref) < 1e-8


# the escaping rhombic anchor (1.1, 1.5, 30 deg, 0.05) at tau = 0.7 w_r
RHOMBIC_PAST_HALF = (19.751843564068306, 1.5486313019025022,
                     math.radians(87.32243744629993), 0.05)


class TestOneStepInverse:
    """The theta pole is its R_F seed and one refining Newton step; tau0 is R_F.

    One step serves because the seed is exact up to rounding: |p(seed) - w|
    <= 1e-13 (1 + |w|) at every theta pole of the sweep.  Measured worst over
    its 310 poles: 1.2e-15 (1 + |w|).  tau0 off an apse is R_F of the gaps
    with no step, and r(tau0) meets r0 to 1e-13 relative (measured worst
    7.3e-15; 1.8e-16 at the rhombic starts past w_r/2).
    """

    @staticmethod
    def sweep_states():
        # both signs of alpha with log10|alpha| in [-9, -0.5]; the sweep
        # holds bounded, rectangular-unbounded and rhombic states, and the
        # fixed states add the pole on Re v = omega, a near-circular one,
        # the rhombic starts at tau = +/-0.7 w_r and starts off the
        # pericenter of (1, 1.2, 0, alpha*(1 -/+ 1e-8)), 1e-8 below and
        # above the escape threshold alpha* = 0.56^2/11.52
        rng = np.random.default_rng(2026)
        states = [InitialState(*s) for s in UNBOUNDED_POLES.values()]
        states.append(InitialState(**NEAR_CIRCULAR_K2))
        states += [InitialState(*RHOMBIC_PAST_HALF[:2], sign * RHOMBIC_PAST_HALF[2],
                                RHOMBIC_PAST_HALF[3]) for sign in (1.0, -1.0)]
        for side in (-1.0, 1.0):
            alpha = 0.56**2 / 11.52 * (1.0 + side * 1e-8)
            apse = build_context(InitialState(1.0, 1.2, 0.0, alpha))
            half = 0.5 * apse.T_tau if apse.bounded else apse.lattice.real_half_period
            for frac in (0.3, -0.8):
                ps = state_at_tau(apse, frac * half)
                states.append(InitialState(ps.r, ps.v, ps.gamma, alpha))
        for i in range(300):
            alpha = (1.0 if i % 2 else -1.0) * 10.0 ** rng.uniform(-9.0, -0.5)
            states.append(InitialState(rng.uniform(0.5, 3.0), rng.uniform(0.3, 1.8),
                                       rng.uniform(-1.2, 1.2), alpha))
        return states

    def test_seed_meets_the_target(self, monkeypatch):
        # the pole's seed within 1e-13 (1 + |w|) of the target, and r(tau0)
        # within 1e-13 of r0 wherever tau0 is R_F's, off an apse
        refine = Lattice._refine_seed
        residuals = []

        def checked(self, y, w):
            residuals.append(abs(self._wp_imaginary(y)[0] - w) / (1.0 + abs(w)))
            return refine(self, y, w)

        monkeypatch.setattr(Lattice, "_refine_seed", checked)
        kinds, off_apse = set(), set()
        for state in self.sweep_states():
            residuals.clear()
            ctx = build_context(state)
            assert len(residuals) == 1 and residuals[0] <= 1e-13
            kinds.add((ctx.bounded, ctx.lattice.rectangular, state.alpha > 0.0,
                       ctx.v.real != 0.0))
            tau0 = tau0_from_r0(ctx, state.r0, 1 if state.rdot0 >= 0.0 else -1)
            if tau0 not in (0.0, 0.5 * ctx.T_tau if ctx.bounded else 0.0):
                assert abs(r_of_tau(ctx, tau0) - state.r0) <= 1e-13 * state.r0
                off_apse.add((ctx.bounded, ctx.lattice.rectangular,
                              abs(tau0) > 0.5 * ctx.lattice.real_half_period))
        assert kinds == {(True, True, False, False), (True, True, True, False),
                         (False, True, True, False), (False, True, True, True),
                         (False, False, True, True)}
        assert {(True, True), (False, True), (False, False)} == {k[:2] for k in off_apse}
        assert (False, False, True) in off_apse

    def test_theta_pole_on_the_plus_i_branch(self):
        # p'(v) = +i v_m f'(r_m)/(4 r_m), as _theta_pole proves, on bounded,
        # rectangular-unbounded (v on the imaginary axis and on Re v =
        # omega) and rhombic lattices; in units of k^3 (k = pi/(2 omega)),
        # as p'(v) is small next to the double root of a near-circular
        # orbit.  Measured worst 5.8e-15
        kinds = set()
        for state in self.sweep_states():
            ctx = build_context(state)
            lat = ctx.lattice
            c_v = 0.25 * ctx.f.df(ctx.r_m) / ctx.r_m
            v, (_, pp, _) = propagation._theta_pole(lat, ctx.k, ctx.e_k, c_v)
            target = ctx.v_m * c_v
            assert v == ctx.v
            assert abs(pp - 1j * target) <= 1e-13 * max(abs(target),
                                                        abs(lat.nome_series.k) ** 3)
            kinds.add((ctx.bounded, lat.rectangular, v.real != 0.0))
        assert kinds == {(True, True, False), (False, True, False),
                         (False, True, True), (False, False, True)}

    def test_seed_off_target_raises(self, worked_ctx):
        # gaps of w - 1 handed in with w: the seed misses by far more than
        # the 1e-11 (1 + |w|) that one Newton step may start from
        lat = worked_ctx.lattice
        w = lat.roots.e_tilde[2].real - 1.0
        gaps = tuple(e.real - (w - 1.0) for e in lat.roots.e_tilde)
        with pytest.raises(WpInverseError):
            lat.wp_inverse_imaginary(w, gaps)


class TestRadius:
    def test_pericenter_value(self, worked_ctx):
        assert r_of_tau(worked_ctx, 0.0) == worked_ctx.r_m

    def test_apocenter_at_half_period(self, worked_ctx):
        assert r_of_tau(worked_ctx, worked_ctx.T_tau / 2.0) == pytest.approx(
            APO, abs=1e-10
        )

    def test_even_in_tau(self, worked_ctx):
        for tau in (0.3, 1.7, 5.0, 9.9):
            assert r_of_tau(worked_ctx, -tau) == pytest.approx(
                r_of_tau(worked_ctx, tau), abs=1e-10
            )

    def test_periodic(self, worked_ctx):
        t_tau = worked_ctx.T_tau
        for tau in (0.4, 2.2, 5.1):
            assert r_of_tau(worked_ctx, tau + t_tau) == pytest.approx(
                r_of_tau(worked_ctx, tau), abs=1e-10
            )

    def test_matches_pseudo_time_ode(self, worked_ctx):
        # independent oracle: integrate dr/dtau = sqrt(f(r)) in pseudo-time
        from scipy.integrate import solve_ivp

        ctx = worked_ctx
        tau_s = 1e-4
        sol = solve_ivp(
            lambda tau, y: [math.sqrt(max(ctx.f(y[0]), 0.0))],
            (tau_s, 5.2), [r_of_tau(ctx, tau_s)],
            method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        for tau in np.linspace(0.2, 5.2, 11):
            assert r_of_tau(ctx, tau) == pytest.approx(
                float(sol.sol(tau)[0]), rel=1e-8
            )

    def test_r_prime_squared_equals_f(self, worked_ctx):
        ctx = worked_ctx
        for tau in np.linspace(0.05, 2.0 * ctx.T_tau, 200):
            r = r_of_tau(ctx, tau)
            rp = r_prime_of_tau(ctx, tau)
            assert rp * rp == pytest.approx(ctx.f(r), rel=1e-8, abs=1e-12)

    def test_near_pericenter_expansion_joins_smoothly(self, worked_ctx):
        below = r_of_tau(worked_ctx, 9.999e-7)
        above = r_of_tau(worked_ctx, 1.001e-6)
        assert below == pytest.approx(above, rel=1e-9)


class TestGeneralForm:
    def test_reduces_to_pericenter_form_at_apse(self, worked_state, worked_ctx):
        for tau in (0.0, 0.3, 1.9, 4.4):
            assert r_of_tau_general(worked_state, tau) == pytest.approx(
                r_of_tau(worked_ctx, tau), abs=1e-9
            )

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_shifted_pericenter_form(self, sign):
        state = shifted_worked_state(sign=sign)
        ctx = build_context(state)
        for dtau in np.linspace(-1.5, 3.5, 11):
            assert r_of_tau_general(state, dtau) == pytest.approx(
                r_of_tau(ctx, ctx.tau0 + dtau), abs=1e-9
            )

    def test_long_tau_reduces_by_the_period(self, worked_state, worked_ctx):
        # unreduced, sigma's quasi-periodic factor overflowed at tau = 300
        n = math.floor(300.0 / worked_ctx.T_tau)
        assert r_of_tau_general(worked_state, 300.0) == pytest.approx(
            r_of_tau_general(worked_state, 300.0 - n * worked_ctx.T_tau),
            rel=1e-12)

    def test_random_instances_against_oracle(self):
        for ctx in sample_states(seed=609, count=4):
            state = ctx.state
            horizon = ctx.T_tau if ctx.bounded else \
                0.6 * ctx.lattice.real_half_period - ctx.tau0
            from scipy.integrate import solve_ivp

            def rhs(tau, y):
                return [
                    (1.0 if y[1] > 0 else 1.0) * y[1],
                    0.5 * ctx.f.df(y[0]),
                ]

            # integrate (r, dr/dtau) jointly: r'' = f'(r)/2
            sol = solve_ivp(
                lambda tau, y: [y[1], 0.5 * ctx.f.df(y[0])],
                (0.0, horizon),
                [state.r0, state.rdot0 * state.r0],
                method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
            )
            for tau in np.linspace(0.05 * horizon, 0.95 * horizon, 7):
                ref = float(sol.sol(tau)[0])
                assert r_of_tau_general(state, tau) == pytest.approx(
                    ref, rel=1e-8
                )


class TestTau0:
    def test_limit_to_pericenter(self, worked_ctx):
        # 1 + 1e-13 is no apse: r'' = f'(r)/2 puts tau0 at
        # +/-sqrt(4 d/f'(r_m)), d = r0 - r_m, which fl(1 + 1e-13) moves
        # 4e-4 off 1e-13; higher terms are of relative order d
        r0 = 1.0 + 1e-13
        d = r0 - worked_ctx.r_m
        for sign in (1, -1):
            tau0 = tau0_from_r0(worked_ctx, r0, sign)
            assert tau0 == pytest.approx(sign * math.sqrt(4.0 * d / worked_ctx.f.df(1.0)),
                                         rel=1e-9, abs=0.0)
            assert abs(r_of_tau(worked_ctx, tau0) - r0) <= 2.0 * math.ulp(r0)

    def test_limit_to_apocenter(self, worked_ctx):
        # the mirror case: tau0 = +/-(T_tau/2 - x), x = sqrt(4 d/|f'(r_M)|)
        # with d = r_M - r0 read from f's offsets, of which r_M is a
        # rounding; x keeps the rounding of T_tau/2, 6e-10 of x per ulp,
        # and r(tau0) the series' own (8 ulps, TestNearApseSweep)
        ctx = worked_ctx
        r_hi = ctx.region.r_hi
        r0 = r_hi * (1.0 - 1e-13)
        d = ctx.f.offsets[1].real - (r0 - ctx.f.r0)
        for sign in (1, -1):
            tau0 = tau0_from_r0(ctx, r0, sign)
            assert sign * tau0 > 0.0
            assert 0.5 * ctx.T_tau - abs(tau0) == pytest.approx(
                math.sqrt(-4.0 * d / ctx.f.df(r_hi)), rel=4e-9, abs=0.0)
            assert abs(r_of_tau(ctx, tau0) - r0) <= 8.0 * math.ulp(r0)

    def test_worked_value_ascending(self, worked_ctx):
        tau0 = tau0_from_r0(worked_ctx, 1.1, 1)
        assert tau0 == pytest.approx(WORKED_TAU0_11, abs=1e-10)
        assert r_of_tau(worked_ctx, tau0) == pytest.approx(1.1, abs=1e-10)
        assert r_prime_of_tau(worked_ctx, tau0) > 0.0

    def test_descending_is_period_complement(self, worked_ctx):
        # -z, one period before the complement T_tau - z, which would round
        # z to an ulp of T_tau
        up = tau0_from_r0(worked_ctx, 1.1, 1)
        down = tau0_from_r0(worked_ctx, 1.1, -1)
        assert down == -up
        assert down + worked_ctx.T_tau == pytest.approx(worked_ctx.T_tau - up, abs=1e-10)
        assert r_prime_of_tau(worked_ctx, down) < 0.0

    def test_round_trip_across_interval(self, worked_ctx):
        for r0 in np.linspace(1.01, APO - 0.01, 9):
            for sign in (1, -1):
                tau0 = tau0_from_r0(worked_ctx, r0, sign)
                assert r_of_tau(worked_ctx, tau0) == pytest.approx(r0, abs=1e-10)
                assert sign * tau0 >= 0.0 and abs(tau0) <= 0.5 * worked_ctx.T_tau

    def test_unbounded_descending_is_negative(self):
        ctx = build_context(InitialState(3.0, 1.1, -0.9, 0.1))
        assert not ctx.bounded
        assert ctx.tau0 < 0.0
        assert r_of_tau(ctx, ctx.tau0) == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rhombic_start_past_half_the_real_period(self, sign):
        # the escaping anchor (1.1, 1.5, 30 deg, 0.05) at tau = +/-0.7 w_r,
        # past w_r/2, where the rhombic lattice's series do not reach and
        # R_F does; the start's rounding leaves 2.3e-15 of w_r.  r(tau0)
        # misses r0 by 1.8e-16 relative: R_F's gaps are products of f's
        # root differences, none of which cancels
        r0, v0, gamma0, alpha = RHOMBIC_PAST_HALF
        state = InitialState(r0, v0, sign * gamma0, alpha)
        ctx = build_context(state)
        assert not ctx.bounded and not ctx.lattice.rectangular
        assert abs(ctx.tau0 / ctx.lattice.real_half_period - sign * 0.7) <= 1e-14
        assert r_of_tau(ctx, ctx.tau0) == pytest.approx(state.r0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.02, 0.1, -0.05])
    @pytest.mark.parametrize("rel", [1e-11, 1e-10])
    def test_apse_within_the_pad(self, alpha, rel):
        # (1, 1.2, 0, alpha): WORKED, the rhombic escaping anchor and a k = 2
        # orbit.  Past an apse, inside the 1e-9 pad of MotionClass.contains,
        # r0 is that apse on both branches: tau0 = 0 or T_tau/2, exactly, as
        # R_F of gaps of the wrong sign has no meaning there.  As far
        # inside, tau0 is R_F's and r(tau0) meets r0
        ctx = build_context(InitialState(1.0, 1.2, 0.0, alpha))
        assert ctx.bounded == (alpha != 0.1)
        apses = [(ctx.r_m, 0.0, -1.0)]
        if ctx.bounded:
            apses.append((ctx.region.r_hi, 0.5 * ctx.T_tau, 1.0))
        for r_a, tau_a, outward in apses:
            for sign in (1, -1):
                past, inside = r_a * (1.0 + outward * rel), r_a * (1.0 - outward * rel)
                assert ctx.region.contains(past)
                assert tau0_from_r0(ctx, past, sign) == tau_a
                tau0 = tau0_from_r0(ctx, inside, sign)
                assert sign * tau0 > 0.0 and not (ctx.bounded and sign * tau0 >= 0.5 * ctx.T_tau)
                assert abs(r_of_tau(ctx, tau0) - inside) <= 1e-13 * inside

    @pytest.mark.parametrize("v0,alpha,rectangular,bounded", [
        (1.2, 0.1, False, False), (1.2, 0.02, True, True),
        (1.2, -0.05, True, True), (1.5, 1e-6, True, False),
    ], ids=["rhombic", "bounded_k3", "bounded_k2", "unbounded_k1"])
    def test_subnormal_offset_from_pericenter(self, v0, alpha, rectangular, bounded):
        # (1, v0, gamma0, alpha) puts r0 - r_m near gamma0^2: subnormal at
        # gamma0 = 1e-155 and 1e-160 rad, 0 at 1e-170.  R_F's gaps, of order
        # 1/(r0 - r_m), overflowed there: tau0 = nan, then an error.  tau0
        # is of order gamma0, and tau0/gamma0 holds its value at 1e-150 to
        # 1e-13, or to the rounding of the subnormal r0 - r_m itself, which
        # keeps 4 digits at 1e-160.  Propagated states are the gamma0 = 0
        # start's
        start = build_context(InitialState(1.0, v0, 0.0, alpha))
        ratio = None
        for gamma0 in (1e-150, 1e-155, 1e-160, 1e-170):
            ctx = build_context(InitialState(1.0, v0, gamma0, alpha))
            assert (ctx.lattice.rectangular, ctx.bounded) == (rectangular, bounded)
            d0 = -ctx.xs[ctx.k - 1].real
            assert math.isfinite(ctx.tau0)
            if d0 <= 0.0:
                assert ctx.tau0 == 0.0 and gamma0 == 1e-170
            elif ratio is None:
                ratio = ctx.tau0 / gamma0
            else:
                assert abs(ctx.tau0 / gamma0 / ratio - 1.0) <= max(1e-13, math.ulp(d0) / d0)
            for dt in (0.5, 2.0):
                got, want = propagate_ctx(ctx, dt), propagate_ctx(start, dt)
                assert abs(got.r - want.r) <= 1e-14 * want.r
                assert abs(got.theta - want.theta) <= 1e-14

    def test_out_of_interval(self, worked_ctx):
        with pytest.raises(OutOfIntervalError):
            tau0_from_r0(worked_ctx, 5.0, 1)
        with pytest.raises(OutOfIntervalError):
            tau0_from_r0(worked_ctx, 0.5, 1)


class TestTheta:
    def test_zero_at_pericenter(self, worked_ctx):
        assert theta_of_tau(worked_ctx, 0.0) == 0.0

    def test_odd(self, worked_ctx):
        for tau in (0.7, 3.3, 12.0):
            assert theta_of_tau(worked_ctx, -tau) == pytest.approx(
                -theta_of_tau(worked_ctx, tau), abs=1e-10
            )

    def test_phase_factor_unimodular(self, worked_ctx, rosette_ctx):
        for ctx in (worked_ctx, rosette_ctx):
            lat = oracle.ReferenceLattice(ctx.lattice.roots)
            for tau in np.linspace(-1.8 * ctx.T_tau, 1.8 * ctx.T_tau, 200):
                z = (lat.sigma(ctx.v - tau) / lat.sigma(ctx.v + tau)
                     * cmath.exp(2.0 * tau * ctx.zeta_v))
                assert abs(abs(z) - 1.0) <= 1e-9

    def test_period_increment_formula(self, worked_ctx):
        # stored increment equals the sigma/zeta evaluation at any offset
        ctx = worked_ctx
        for tau in (0.0, 1.3, 4.4):
            got = theta_of_tau(ctx, tau + ctx.T_tau) - theta_of_tau(ctx, tau)
            assert got == pytest.approx(ctx.dtheta_period, abs=1e-8)

    def test_worked_increment_frozen(self, worked_ctx):
        assert worked_ctx.dtheta_period == pytest.approx(WORKED_DTHETA,
                                                         abs=1e-9)

    def test_rosette_drift_is_tenth_of_turn(self, rosette_ctx):
        drift = 2.0 * math.pi - rosette_ctx.dtheta_period
        assert drift == pytest.approx(2.0 * math.pi / 10.0, abs=1e-5)

    def test_matches_quadrature(self, worked_ctx):
        ctx = worked_ctx
        for r_hi in (1.4, 2.5, 3.39):
            tau = tau0_from_r0(ctx, r_hi, 1)
            ref = oracle.quadrature_theta(ctx.state, ctx.r_m, r_hi)
            assert theta_of_tau(ctx, tau) == pytest.approx(ref, abs=1e-9)


# Unbounded states for the closed-form angle: rhombic lattices (the first
# five, then pericenter starts just above the escape threshold alpha*, where
# the real period grows without bound) and two rectangular ones.
UNBOUNDED = [(1.0, 1.2, 0.0, 0.1), (3.0, 1.1, -0.9, 0.1), (1.0, 1.6, 0.3, 0.05),
             (2.0, 1.2, -0.5, 0.01), (0.7, 1.8, 0.2, 0.2),
             *[(r0, math.sqrt(u / r0), 0.0,
                (2.0 - u) ** 2 / (8.0 * r0**2 * u) * (1.0 + eps))
               for r0, u in ((1.0, 1.44), (0.8, 1.2), (1.5, 1.7), (1.2, 0.9))
               for eps in (1e-6, 1e-3, 0.3)],
             (1.0, 0.5, 0.0, 1.0), (1.0, 0.5, 0.4, 1.2)]

# Largest |arg(sigma exp(-B))| on the lines the sweeps below visit: 0.60
# bounded, 0.91 unbounded, 1.49 at the parabolic speed with |alpha| = 1e-11,
# where it creeps towards pi/2 as alpha -> 0.  The branch of log sigma
# needs it below pi.
BRANCH_ARG_BOUND = 1.6


def product_arg(lat, z):
    """arg(sigma(z) exp(-B(z))) on a reference lattice, B rebuilt from its definition."""
    w = lat.real_half_period
    u = math.pi * z / (2.0 * w)
    carrier = (lat.zeta(w).real * z * z / (2.0 * w)
               + math.log(2.0 * w / math.pi) + cmath.log(cmath.sin(u)))
    return cmath.phase(lat.sigma(z) * cmath.exp(-carrier))


class TestThetaClosedForm:
    """theta_of_tau against the stepped unwrapping of the sigma ratio."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bounded_matches_stepped_reference(self, seed):
        for ctx in sample_states(seed=seed, count=4, bounded=True):
            for tau in np.linspace(-3.0 * ctx.T_tau, 3.0 * ctx.T_tau, 13):
                ref = oracle.stepped_theta(ctx, tau)
                # the unfolded reference drifts by up to ~2e-13 at 3 periods
                assert theta_of_tau(ctx, tau) == pytest.approx(
                    ref, abs=1e-12 * (1.0 + abs(ref)))
            lat = oracle.ReferenceLattice(ctx.lattice.roots)
            for tau in np.linspace(0.0, ctx.T_tau, 25):
                for z in (ctx.v - tau, ctx.v + tau):
                    assert abs(product_arg(lat, z)) < BRANCH_ARG_BOUND

    @pytest.mark.parametrize("state", UNBOUNDED)
    def test_unbounded_matches_stepped_reference(self, state):
        ctx = build_context(InitialState(*state))
        assert not ctx.bounded
        assert ctx.v.imag > 0.0
        w = ctx.lattice.real_half_period
        lat = oracle.ReferenceLattice(ctx.lattice.roots)
        near_asymptote = [s * frac * w for frac in (0.999, 0.9999) for s in (-1.0, 1.0)]
        for tau in [*np.linspace(-0.98 * w, 0.98 * w, 15), *near_asymptote]:
            ref = oracle.stepped_theta(ctx, tau)
            assert theta_of_tau(ctx, tau) == pytest.approx(
                ref, abs=1e-13 * (1.0 + abs(ref)))
            for z in (ctx.v - tau, ctx.v + tau):
                assert abs(product_arg(lat, z)) < BRANCH_ARG_BOUND

    @pytest.mark.parametrize("alpha", [1e-11, -1e-11])
    def test_parabolic_speed_at_tiny_alpha(self, alpha):
        # r0 v0^2 = 2: the real period is thousands of pericenter units
        ctx = build_context(InitialState(1.0, math.sqrt(2.0), 0.0, alpha))
        span = ctx.T_tau if ctx.bounded else 0.99 * ctx.lattice.real_half_period
        assert span > 1000.0
        for tau in np.linspace(-span, span, 5):
            assert theta_of_tau(ctx, tau) == pytest.approx(
                oracle.stepped_theta(ctx, tau), abs=1e-10)
        lat = oracle.ReferenceLattice(ctx.lattice.roots)
        for tau in np.linspace(0.0, span, 41):
            for z in (ctx.v - tau, ctx.v + tau):
                assert abs(product_arg(lat, z)) < BRANCH_ARG_BOUND

    def test_unbounded_sweep_covers_rhombic_near_escape(self):
        rhombic = [build_context(InitialState(*s)).lattice.roots.discriminant < 0.0
                   for s in UNBOUNDED]
        assert rhombic == [True] * 17 + [False] * 2

    def test_period_increment_is_closed_form(self, worked_ctx, rosette_ctx):
        for ctx in (worked_ctx, rosette_ctx):
            omega = 0.5 * ctx.T_tau
            eta = oracle.ReferenceLattice(ctx.lattice.roots).zeta(omega).real
            want = (ctx.v_m * ctx.T_tau
                    - 4.0 * (omega * ctx.zeta_v - eta * ctx.v).imag - 2.0 * math.pi)
            assert ctx.dtheta_period == pytest.approx(want, abs=1e-12)
            assert ctx.dtheta_period == pytest.approx(
                oracle.stepped_theta(ctx, ctx.T_tau), abs=1e-12)

    @pytest.mark.parametrize("state,rectangular", [
        (InitialState(**WORKED), True),
        (InitialState(1.0, 0.5, 0.0, 1.0), True),
        (InitialState(*UNBOUNDED[0]), False),
    ], ids=["bounded", "rectangular-unbounded", "rhombic"])
    def test_no_kernel_call_at_any_tau(self, state, rectangular, monkeypatch):
        # theta sums the series of _theta_series and r, dr/dtau and t those
        # of _radial_forms on every lattice, bounded or not, on both sides
        # of the H/T switch: no nome series call on either axis
        ctx = build_context(state)
        assert ctx.lattice.rectangular == rectangular
        calls = kernel_calls(monkeypatch)
        if ctx.bounded:
            # 50.6 periods fold to 0.6 T_tau, which the stepped phase took in 5 steps
            taus = [periods * ctx.T_tau for periods in (0.1, 50.6, -3.3)]
        else:
            taus = [frac * ctx.lattice.real_half_period for frac in (0.1, -0.9, 0.9999)]
            switch = ctx._radial[0]
            assert any(abs(tau) < switch for tau in taus) == rectangular
            assert any(abs(tau) > switch for tau in taus)
        for tau in taus:
            theta_of_tau(ctx, tau)
            state_at_tau(ctx, tau)
            propagate_ctx(ctx, radial_kepler(ctx, tau) - ctx.t0)
        assert calls == []


def log_sigma_theta(ctx, tau):
    """theta through two log sigma evaluations; bounded tau folds to [0, T_tau)."""
    n = math.floor(tau / ctx.T_tau) if ctx.bounded else 0
    tau -= n * ctx.T_tau if n else 0.0
    lat = oracle.ReferenceLattice(ctx.lattice.roots)
    phase = (oracle.log_sigma(lat, ctx.v - tau) - oracle.log_sigma(lat, ctx.v + tau)
             + 2.0 * tau * ctx.zeta_v)
    return ctx.v_m * tau - phase.imag + (n * ctx.dtheta_period if n else 0.0)


# alpha at which the apse start r0 = 1, v0 = 1.2 stops being bounded
ESCAPE_ALPHA = (2.0 - 1.44) ** 2 / (8.0 * 1.44)
NEAR_ESCAPE_8 = InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 - 1e-8))   # q = 0.41

# (state, tolerance in rad between the two routes over +/-50 periods)
THETA_SERIES_STATES = [
    # both routes agree to rounding; |theta| reaches 350 rad, spaced 5.7e-14
    (InitialState(**WORKED), 2e-13),
    (InitialState(**ROSETTE), 2e-13),
    (InitialState(**TILTED), 2e-13),
    (InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 - 1e-4)), 2e-13),
    # the log sigma route itself is off by 4.2e-13 against an mpmath
    # quadrature of h dtau/r, the series by 4.3e-15
    (InitialState(1.3, 1.0, math.radians(25.0), 1e-4), 1.5e-12),
    # near-circular anchor: the log sigma route is off by 1.4e-12 there,
    # the series by 3.2e-14
    (InitialState(1.0, math.sqrt(0.99 * 1.01), 1e-3, 0.01), 5e-12),
    # q = 0.41: 23 terms of the theta sum, 5.7e-13 apart; both routes
    # carry the 6e-10 error of omega from K(m) near the double root
    (NEAR_ESCAPE_8, 2e-12),
]


class TestThetaSeries:
    """Bounded theta from the nome series against the log sigma route."""

    @pytest.mark.parametrize("state,tol", THETA_SERIES_STATES, ids=[
        "worked", "rosette", "tilted", "escape_1e-4", "alpha_1e-4",
        "near_circular", "escape_1e-8"])
    def test_matches_log_sigma_route_over_fifty_periods(self, state, tol):
        ctx = build_context(state)
        assert ctx.bounded
        for tau in np.linspace(-50.0 * ctx.T_tau, 50.0 * ctx.T_tau, 401):
            assert abs(theta_of_tau(ctx, tau) - log_sigma_theta(ctx, tau)) <= tol

    def test_term_counts_at_q_041(self):
        # q = 0.41 on the real-period basis, whose series would take 26
        # terms for the theta pole and 23 theta coefficients; the lattice
        # sums its companion's series at q' = 1.5e-5 on (omega', -omega)
        ctx = build_context(NEAR_ESCAPE_8)
        lat = ctx.lattice
        assert 0.40 < lat.q < 0.42 and lat.companion
        assert lat.nome_series.nome == lat.q_t < 2e-5
        assert len(lat.nome_series.terms) == 1
        assert series_terms(ctx._theta_series) == [3]

    @pytest.mark.parametrize("delta", [-1e-4, -1e-8, 1e-4, 1e-8])
    def test_term_counts_near_escape(self, delta):
        # each series on its smallest-nome basis: the real-period basis took
        # 32/56/69/123 r/t terms and 13/23/64/110 theta terms
        ctx = build_context(InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 + delta)))
        assert ctx.bounded == (delta < 0.0)
        _, below, above = ctx._radial[:3]
        radial, theta = series_terms(below) + series_terms(above), series_terms(ctx._theta_series)
        assert radial and theta and max(radial + theta) <= 15

    @pytest.mark.parametrize("alpha", [1e-9, 1e-7, 1e-5])
    def test_term_counts_at_small_alpha(self, alpha):
        # a rectangular unbounded (k = 1) lattice at q = 0.60/0.51/0.37, q' =
        # 5e-9/5e-7/5e-5: the real-period basis would take 51/38/25 terms for
        # the theta pole, 45 H and 39/30/20 T terms for r and t, and 38/29/19
        # theta coefficients.  On (omega', -omega): H up to w_r/2, its fold
        # past it, and theta over all of |tau| < w_r
        ctx = build_context(InitialState(1.0, 1.5, 0.0, alpha))
        lat = ctx.lattice
        assert not ctx.bounded and lat.rectangular and lat.companion and ctx.k == 1
        assert lat.q_t < 1e-4 < 0.3 < lat.q
        switch, below, above = ctx._radial[:3]
        assert switch == 0.5 * lat.real_half_period
        assert above.func is propagation._fold_point
        assert ctx._theta_series.func is propagation._theta_centred
        assert 1 <= len(lat.nome_series.terms) <= 3
        assert 1 <= len(ctx._theta_series.args[1][3]) <= 4
        radial = series_terms(below) + series_terms(above)
        assert radial and max(radial) <= 10

    def test_constants_made_once_per_context(self, monkeypatch):
        made = []
        build = propagation._theta_series

        def counted(*args):
            made.append(args)
            return build(*args)

        monkeypatch.setattr(propagation, "_theta_series", counted)
        # the epoch angle makes them inside build_context, on the context
        # that propagation then uses
        ctx = build_context(TILTED_STATE)
        assert len(made) == 1
        for t in (0.5, 7.0, 40.0):
            propagate_ctx(ctx, t)
        assert len(made) == 1
        # an apse start needs no theta at build time
        made.clear()
        apse = build_context(InitialState(**WORKED))
        assert made == []
        theta_of_tau(apse, 1.0)
        assert len(made) == 1


class TestRadialKepler:
    def test_zero_at_zero_exactly(self, worked_ctx, rosette_ctx):
        assert radial_kepler(worked_ctx, 0.0) == 0.0
        assert radial_kepler(rosette_ctx, 0.0) == 0.0

    def test_odd(self, worked_ctx):
        for tau in (0.4, 2.9, 8.8):
            assert radial_kepler(worked_ctx, -tau) == pytest.approx(
                -radial_kepler(worked_ctx, tau), abs=1e-10
            )

    def test_strictly_increasing(self, worked_ctx):
        taus = np.linspace(-5.0, 25.0, 120)
        ts = [radial_kepler(worked_ctx, tau) for tau in taus]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_derivative_is_radius(self, worked_ctx, rosette_ctx):
        h = 1e-6
        for ctx in (worked_ctx, rosette_ctx):
            for tau in np.linspace(0.1, 1.9 * ctx.T_tau, 23):
                fd = (radial_kepler(ctx, tau + h)
                      - radial_kepler(ctx, tau - h)) / (2.0 * h)
                assert fd == pytest.approx(r_of_tau(ctx, tau), abs=1e-7)

    def test_fifty_periods_fold(self, worked_ctx, rosette_ctx):
        # unfolded, sigma's quasi-periodic factor overflows past ~20 periods
        for ctx in (worked_ctx, rosette_ctx):
            for n in (50, -60, 200):
                assert radial_kepler(ctx, (n + 0.5) * ctx.T_tau) == pytest.approx(
                    (n + 0.5) * ctx.T_t, rel=1e-13, abs=0.0)
                tau = n * ctx.T_tau + 0.3
                assert radial_kepler(ctx, tau) == pytest.approx(
                    n * ctx.T_t + radial_kepler(ctx, 0.3), rel=1e-13, abs=0.0)

    def test_full_period_value(self, worked_ctx):
        assert radial_kepler(worked_ctx, worked_ctx.T_tau) == pytest.approx(
            WORKED_T_T, abs=1e-9
        )

    def test_against_quadrature(self, worked_ctx):
        ctx = worked_ctx
        for r_hi in (1.2, 2.0, 3.0):
            tau = tau0_from_r0(ctx, r_hi, 1)
            ref = oracle.quadrature_tof(ctx.state, ctx.r_m, r_hi)
            assert radial_kepler(ctx, tau) == pytest.approx(ref, abs=1e-9)

    def test_t_prime_rounds_t_and_r_to_three_units(self):
        # T''s t and r against the same coefficients summed in 40 digits,
        # over [0, T_tau/2] or [0, w_r/2]: within 3 units of 2^-52 relative
        # (measured 1.8 in t and 2.6 in r).  tanh u as sinh 2u/(2 + v1) and
        # u - tanh u as (u v1 - (sinh 2u - 2u))/(2 + v1) reached 5.3 and 5.5
        mp = pytest.importorskip("mpmath")
        states = [InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 + delta))
                  for delta in (-1e-8, -1e-4, 1e-4, 1e-8)] + near_escape_sweep(30, 12)
        for state in states:
            ctx = build_context(state)
            switch, below, above = ctx._radial[:3]
            form = below or above
            r_m, k, lam, pole, _, table = form.args
            assert lam and pole                                 # T'
            end = 0.5 * (ctx.T_tau if ctx.bounded else ctx.lattice.real_half_period)
            with mp.workdps(40):
                for i in range(1, 41):
                    x = end * i / 41.0
                    t, r, _ = form(x)
                    u = mp.mpf(k) * x
                    ref_t, ref_r = mp.mpf(r_m) * x + pole * k * (u - mp.tanh(u)), \
                        mp.mpf(r_m) + pole * k * k * mp.tanh(u) ** 2
                    for n, (_, cb, cc) in enumerate(table, 1):
                        ln = mp.mpf(lam) ** n
                        ref_t += 8 * k * cc * ln * (mp.sinh(2 * n * u) - 2 * n * u)
                        ref_r += 16 * k * k * cb / n * ln * (mp.cosh(2 * n * u) - 1)
                    assert abs(t - ref_t) <= 3.0 * 2.0**-52 * ref_t, (state, x)
                    assert abs(r - ref_r) <= 3.0 * 2.0**-52 * ref_r, (state, x)


# Bounded states at |alpha| ~ 1e-6, where the closed form of t(tau) scales
# rounding error by 1/alpha: pericenter and off-apse starts, either sign.
LOW_ALPHA = [(1.0, 1.2, 0.0, 1e-6), (1.0, 1.2, 0.0, -1e-6),
             (1.3, 1.0, math.radians(25.0), 1e-6),
             (0.8, 1.3, math.radians(10.0), -3e-7),
             (1.2, 1.0, math.radians(30.0), -1e-6)]
TILTED_STATE = InitialState(**TILTED)


def zeta_pair_time(ctx, tau):
    """t(tau) from the paper's form, zeta at the two points tau -/+ w_k."""
    lat, w_k = oracle.ReferenceLattice(ctx.lattice.roots), ctx.lattice.periods.omega_k(ctx.k)
    pair = lat.zeta(tau - w_k) + lat.zeta(tau + w_k)
    return (ctx.r_m * tau
            - (1.0 / ctx.state.alpha) * (2.0 * ctx.e_k * tau + pair)).real


def test_near_parabolic_period_at_tiny_inward_alpha():
    # T_t = r_m T_tau - (2 e_k T_tau + 4 eta)/a scales the error of eta by
    # 1/a = -5.9e8.  The reference is perfbench's mpmath quadrature of the
    # state (30 digits); the Laurent eta missed it by 1.49e-10, eta from K
    # and E by 8.0e-12
    ctx = build_context(InitialState(1.7136312244517515, 1.131364515621618,
                                     -0.3286883833003511, -1.6906792983117208e-09))
    assert ctx.T_t == pytest.approx(397432877.89283483412, rel=2e-11)


class TestRootsOfF:
    """States whose roots of f once came from a second, rounded solve.

    The references are perfbench's mpmath quadratures of each state (30
    digits), or mpmath's roots of f with the state's coefficients.
    """

    def test_tiny_inward_alpha_keeps_its_pericenter(self):
        # the lattice-cubic route lost r_m (NoPericenterError, "h = 0")
        mp = pytest.importorskip("mpmath")
        state = InitialState(1.4745863932276193, 1.0014379600425212,
                             0.47399852117435864, -1.68e-9)
        ctx = build_context(state)
        assert ctx.bounded
        with mp.workdps(40):
            r0, v0, g, a = (mp.mpf(x) for x in (state.r0, state.v0, state.gamma0,
                                                  state.alpha))
            energy = v0**2 / 2 - 1 / r0 - a * r0
            h = r0 * v0 * mp.cos(g)
            roots = sorted(mp.re(z) for z in mp.polyroots(
                [2 * a, 2 * energy, 2, -h * h], maxsteps=200, extraprec=200))
        assert ctx.r_m == pytest.approx(float(roots[1]), rel=1e-12)
        assert ctx.region.r_hi == pytest.approx(float(roots[2]), rel=1e-12)

    def test_near_escape_periods(self):
        # state_scatter's near_escape37 (seed 204): T_tau was 8.7e-7 and T_t
        # 1.1e-6 off, a wrong answer past the benchmark's 1e-6
        ctx = build_context(InitialState(1.1431567328044703, 1.3226467658507197,
                                         0.0, 1.3489470917761692e-9))
        assert ctx.T_tau == pytest.approx(2323.4981376509725271, rel=1e-9)
        assert ctx.T_t == pytest.approx(50552995.066334265619, rel=1e-9)

    def test_unbounded_radius_past_the_series_reach(self):
        # the 1/a of the closed form scaled the lattice roots' error to
        # 1.5e-9 in r; the H series below the switch carries no 1/a
        # (measured 2.9e-16)
        ctx = build_context(InitialState(1.0, 1.5, 0.0, 1e-6))
        ps = propagate_ctx(ctx, 174.3)
        assert 0.3 * ctx.lattice.real_half_period < ps.tau < ctx._radial[0]
        assert ps.r == pytest.approx(98.125204137170427955, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("state", [
        *(InitialState(1.0, math.sqrt(1.0 - a), 0.0, a) for a in (0.01, -0.01, 1e-6, 1e-10)),
        InitialState(1.0, math.sqrt(1.0 - 1e-10), 1e-9, 1e-10),
    ], ids=["0.01", "-0.01", "1e-06", "1e-10", "tilted-1e-10"])
    def test_exact_circular_start_matches_the_ode(self, state):
        # r0 v0^2 = 1 - alpha r0^2 at an apse (the last start 1e-9 rad off
        # it): the pair of f's roots at r0 is double within rounding, so
        # m = (r_M - r_m)/(r_3 - r_m) is below 1e-16 and m1 = 1 - m rounds
        # to 1; K(m1) and E(m1) take m as given
        ctx = build_context(state)
        assert ctx.bounded and ctx.lattice.rectangular
        traj = oracle.integrate_ode(state, 30.0)
        for t in np.linspace(0.5, 30.0, 12):
            ps = propagate_ctx(ctx, t)
            assert abs(ps.r - traj.r(t)) <= 1e-10
            assert abs(ps.theta - traj.theta(t)) <= 1e-10

    @pytest.mark.parametrize("state", [
        InitialState(1.0, math.sqrt(1.2), 0.0, -0.2),
        InitialState(0.7, math.sqrt(1.49 / 0.7), 0.0, -1.0),
        InitialState(1.9, math.sqrt(0.639 / 1.9), 0.0, 0.1),
        InitialState(1.0, 2.0, 0.0, -3.0),
    ], ids=["r0=1", "r0=0.7", "unstable-outer", "double-root-r0"])
    def test_exact_circular_start_with_two_zero_gaps_is_degenerate(self, state):
        # the first two: the theta pole's target p(v) falls on the double
        # root e2 = e3 to rounding, so two of the gaps handed to R_F are 0.
        # The unstable outer circle has e1 - e2 = 1.4e-17, and rounding puts
        # p(v) 0.0109 above e3 but below e2, on neither line of p^-1.  At
        # (1, 2, 0, -3) f's Taylor coefficients at r0 are (0, 0, -10, -6):
        # r0 is a double root of f and the allowed region that one point.
        # Each gets the typed error, not R_F's ValueError, WpInverseError
        # or InfeasibleStateError
        with pytest.raises(DegenerateLatticeError):
            build_context(state)

    def test_state_path_makes_no_second_solve(self, monkeypatch):
        # a state solves one cubic, f's at r0 (dynamics.build_f), for its
        # context and its boundedness alike; only the oracle solves the
        # lattice cubic of rounded invariants, through the same solver
        solves = []
        solve = cubic.cubic_roots

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(dynamics, "cubic_roots", counted)
        monkeypatch.setattr(oracle, "cubic_roots", counted)
        states = [InitialState(**kw) for kw in (WORKED, ROSETTE, TILTED, INBOUND)]
        states += [InitialState(1.0, 1.2, 0.0, 0.1), shifted_worked_state(12.0)]
        for state in states:
            solves.clear()
            build_context(state)
            assert len(solves) == 1
            analysis.boundedness_from_state(state)
            assert len(solves) == 2
        outer, rhombic = build_context(states[-1]), build_context(states[-2])
        assert not outer.bounded and outer.lattice.rectangular
        assert not rhombic.bounded and not rhombic.lattice.rectangular
        solves.clear()
        oracle.ReferenceLattice.from_invariants(0.01, 0.000144)
        assert len(solves) == 1


class TestPericenterSeries:
    """r and t about the pericenter from the series of ``_radial_forms``.

    No Taylor series about the pericenter is left: S, H and T serve every
    tau, and these tests check them where the series and its reach were
    checked before.
    """

    @pytest.fixture(params=["worked", "rosette", "tilted"])
    def anchor_ctx(self, request, worked_ctx, rosette_ctx):
        return {"worked": worked_ctx, "rosette": rosette_ctx,
                "tilted": build_context(TILTED_STATE)}[request.param]

    def test_leading_coefficients(self, anchor_ctx):
        # r = r_m + b_1 tau^2 + b_2 tau^4 + ... with b_1 = f'/4 and
        # b_2 = f'' f'/96; 1 - cos 2nu = 2 (nu)^2 - 2 (nu)^4/3 + ... turns
        # r - r_m = 16 k^2 sum n a_n (1 - cos 2nu) into b_1 = 32 k^4 sum n^3 a_n
        # and b_2 = -(32/3) k^6 sum n^5 a_n
        ctx = anchor_ctx
        fp, fpp = ctx.f.df(ctx.r_m), ctx.f.d2f(ctx.r_m)
        _, below, above = ctx._radial[:3]
        form = above or below                    # S, also beside H when k = 2
        k, table = form.args[1], form.args[-1]
        b1 = 32.0 * k**4 * math.fsum(n * row[1] for n, row in enumerate(table, 1))
        b2 = -32.0 / 3.0 * k**6 * math.fsum(n**3 * row[1] for n, row in enumerate(table, 1))
        assert b1 == pytest.approx(fp / 4.0, rel=1e-14, abs=0.0)
        assert b2 == pytest.approx(fpp * fp / 96.0, rel=1e-13, abs=0.0)
        for tau in (1e-6, 1e-4, -1e-3):
            assert r_of_tau(ctx, tau) == pytest.approx(
                ctx.r_m + b1 * tau**2 + b2 * tau**4, rel=2e-16, abs=0.0)

    def test_coefficients_are_lattice_sums(self, anchor_ctx):
        # r - r_m = (2/a)(p(tau + w_k) - e_k), with p from the kernel
        ctx = anchor_ctx
        lat, w_k = oracle.ReferenceLattice(ctx.lattice.roots), ctx.lattice.periods.omega_k(ctx.k)
        for tau in np.linspace(0.1, 1.9 * ctx.T_tau, 13):
            want = 2.0 / ctx.state.alpha * (lat.wp(tau + w_k).real - ctx.e_k)
            assert r_of_tau(ctx, tau) - ctx.r_m == pytest.approx(want, rel=1e-9)

    def test_joins_the_zeta_pair_form_across_the_reach(self, anchor_ctx):
        # the paper's zeta pair over the whole period, on both halves
        ctx = anchor_ctx
        for tau in np.linspace(0.05, 0.95, 19) * ctx.T_tau:
            want = zeta_pair_time(ctx, tau)
            assert radial_kepler(ctx, tau) == pytest.approx(want, rel=5e-14, abs=0.0)
            assert radial_kepler(ctx, -tau) == pytest.approx(-want, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize("state", [(1.0, 1.2, 0.0, 0.02),
                                       (1.0, 1.2601352426205996, 0.0, -0.05),
                                       LOW_ALPHA[0]])
    def test_matches_quadrature_across_the_reach(self, state):
        ctx = build_context(InitialState(*state))
        w = ctx.lattice.real_half_period
        # the quadrature missed by 1e-10 at 0.02 w while it formed f(u)/s^2
        # in floats; its Taylor polynomial keeps it within 2e-14 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in np.linspace(0.02 * w, 0.95 * w, 9):
                ref = oracle.quadrature_tof(ctx.state, ctx.r_m, r_of_tau(ctx, tau))
                assert radial_kepler(ctx, tau) == pytest.approx(ref, rel=1e-11)

    def test_reach_covers_the_orbit_at_tiny_alpha(self):
        # S at tau = T_tau sums to T_t from add_epoch
        ctx = build_context(InitialState(*LOW_ALPHA[0]))
        ref = 2.0 * oracle.quadrature_tof(ctx.state, ctx.r_m, ctx.region.r_hi)
        assert ctx.T_t == pytest.approx(ref, rel=1e-11)
        assert radial_kepler(ctx, ctx.T_tau) == pytest.approx(ctx.T_t, rel=1e-15, abs=0.0)
        assert radial_kepler(ctx, 0.5 * ctx.T_tau) == pytest.approx(0.5 * ctx.T_t,
                                                                    rel=1e-15, abs=0.0)

    def test_made_once_and_only_when_needed(self, monkeypatch):
        made = []
        forms = propagation._radial_forms

        def counted(ctx):
            made.append(ctx)
            return forms(ctx)

        monkeypatch.setattr(propagation, "_radial_forms", counted)
        apse = build_context(InitialState(1.0, 1.2, 0.0, 0.02))
        assert made == []                        # an apse epoch evaluates no r or t
        off_apse = build_context(TILTED_STATE)   # t0 = t(tau0)
        assert len(made) == 1
        for dt in (0.1, 3.0, 25.0):
            propagate_ctx(off_apse, dt)
        state_at_tau(apse, 0.3)
        state_at_tau(apse, 0.5 * apse.T_tau)
        assert len(made) == 2


# Bounded orbits of the one-evaluation inversion: the benchmark's dense
# orbit anchors, then Kepler ellipses (a, e, nu) perturbed by an |alpha| in
# [5e-4, 5e-2] of either sign
def kepler_orbits(seed, count):
    rng = np.random.default_rng(seed)
    states = [InitialState(**kw) for kw in (WORKED, ROSETTE, TILTED, INBOUND)]
    while len(states) < 4 + count:
        a, e, nu = rng.uniform(0.8, 1.8), rng.uniform(0.05, 0.6), rng.uniform(-math.pi, math.pi)
        alpha = (-1.0) ** len(states) * 10.0 ** rng.uniform(-3.3, -1.3)
        r0 = a * (1.0 - e * e) / (1.0 + e * math.cos(nu))
        state = InitialState(r0, math.sqrt(2.0 / r0 - 1.0 / a),
                             math.atan2(e * math.sin(nu), 1.0 + e * math.cos(nu)), alpha)
        if build_context(state).bounded:
            states.append(state)
    return states


# Kepler eccentricity 0.95 in a confining field (k = 2, apses 1 and 8.7),
# and q = 0.22 and 0.41 just below the escape threshold of (1, 1.2, 0, .),
# where T' sums the series (q' = 1.6e-3 and 1.6e-5)
KEPLER_HARD = [InitialState(1.0, math.sqrt(1.95), 0.0, -0.01)] + [
    InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 - delta))
    for delta in (1e-4, 1e-8)]

def s_harmonics(ctx):
    """S's first three harmonics e_n = 16 k^2 a_n T_tau/T_t of bounded t(tau), from
    a_n = s^n q^n/(a (1 - q^2n)), s = +1 on k = 3 and -1 on k = 2, k = pi/(2 omega)."""
    k, q = math.pi / (2.0 * ctx.lattice.real_half_period), ctx.lattice.q
    s = q if ctx.k == 3 else -q
    scale = 16.0 * k * k * ctx.T_tau / (ctx.T_t * ctx.state.alpha)
    return tuple(scale * s**n / (1.0 - q ** (2 * n)) for n in (1, 2, 3))


KEPLER_ACCEPTED = [tuple(kw.values()) for kw in (WORKED, ROSETTE, TILTED, INBOUND)] + [
    (1.0, math.sqrt(1.95), 0.0, -0.01),
    (1.0, 1.5, 0.3, 1e-6),
    (1.1, 1.5, math.radians(30.0), 0.05),
] + [(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 + delta)) for delta in (1e-8, 1e-4, -1e-8, -1e-4)]


def near_escape_sweep(seed, count):
    """Near-escape states alpha* (1 + delta), |delta| in [1e-12, 1e-2] on both sides.

    Half are apse starts (gamma0 = 0) and half are not; alpha* is each
    state's own threshold (``analysis.escape_alpha``).  Every one of them
    sums T' (bounded, k = 3) or T' and its fold (rhombic).
    """
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        r0, u = rng.uniform(0.7, 1.5), rng.uniform(1.2, 1.8)
        v0 = math.sqrt(u / r0)
        gamma0 = 0.0 if i % 2 == 0 else rng.uniform(-1.0, 1.0)
        a_star = analysis.escape_alpha(r0, v0, gamma0, -0.01, 10.0)
        delta = (-1.0 if i % 4 < 2 else 1.0) * 10.0 ** rng.uniform(-12.0, -2.0)
        states.append(InitialState(r0, v0, gamma0, a_star * (1.0 + delta)))
    return states


class TestInvertKepler:
    def test_zero(self, worked_ctx):
        assert invert_kepler(worked_ctx, 0.0) == 0.0

    def test_round_trip_100_points(self, worked_ctx, rosette_ctx):
        rng = np.random.default_rng(5)
        for ctx in (worked_ctx, rosette_ctx):
            for tau in rng.uniform(-2.0 * ctx.T_tau, 2.0 * ctx.T_tau, 100):
                t = radial_kepler(ctx, tau)
                back = invert_kepler(ctx, t)
                assert back == pytest.approx(tau, abs=1e-10 * max(1.0, abs(tau)))

    def test_residual_tolerance(self, worked_ctx):
        for t in (0.37, 11.1, 123.4, -55.5):
            tau = invert_kepler(worked_ctx, t)
            assert abs(radial_kepler(worked_ctx, tau) - t) <= \
                1e-12 * max(1.0, abs(t))

    def test_half_period_symmetry(self, worked_ctx):
        tau = invert_kepler(worked_ctx, worked_ctx.T_t / 2.0)
        assert tau == pytest.approx(worked_ctx.T_tau / 2.0, abs=1e-10)

    def test_kernel_calls_per_propagated_sample(self, worked_ctx, monkeypatch):
        calls = kernel_calls(monkeypatch)
        times = np.linspace(0.3, 10.0 * worked_ctx.T_t, 50)
        for t in times:
            propagate_ctx(worked_ctx, t)
        # a start from S's first three harmonics and one Halley step, one
        # t(tau) evaluation per sample, from the nome series: no kernel call
        assert calls == []

    def test_unbounded_kernel_calls_per_sample(self, monkeypatch):
        # Halley from the first two Taylor terms of t or the pole term of t
        # at the escape asymptote: no kernel call, and at most 3 evaluations
        # of t(tau) per sample on this sweep (the kernel route took up to 6
        # evaluations of p, 22 when bracketing halfway to the asymptote)
        ctx = build_context(InitialState(1.0, 1.2, 0.0, 0.1))
        calls, points = kernel_calls(monkeypatch), []
        orbit_point = propagation._orbit_point

        def counted_point(ctx, tau):
            points.append(tau)
            return orbit_point(ctx, tau)

        monkeypatch.setattr(propagation, "_orbit_point", counted_point)
        counts = []
        for t in np.geomspace(0.5, 500.0, 60):
            points.clear()
            ps = propagate_ctx(ctx, t)
            counts.append(len(points))
            assert abs(radial_kepler(ctx, ps.tau) - t) <= 1e-12 * t
        assert calls == []
        assert max(counts) <= 3

    def test_unbounded_branch(self):
        ctx = build_context(InitialState(1.0, 1.2, 0.0, 0.1))
        assert not ctx.bounded
        for t in (0.5, 5.0, 50.0, 2000.0):
            tau = invert_kepler(ctx, t)
            assert abs(radial_kepler(ctx, tau) - t) <= 1e-12 * max(1.0, t)
        assert invert_kepler(ctx, -5.0) == pytest.approx(
            -invert_kepler(ctx, 5.0), abs=1e-12
        )

    def test_unbounded_stop_at_the_rounding_of_t(self, monkeypatch):
        # the 1/a of the old closed form scaled the rounding of t to about
        # 1e-10 past its pericenter series; the inversion took 42-48 kernel
        # calls per sample chasing it, and r missed the ODE by 1.5e-9 (the
        # lattice roots' 1/a-scaled error).  H and T give t to its rounding:
        # 4 evaluations per sample, and the error left is the oracle's
        state = InitialState(1.0, 1.5, 0.0, 1e-6)
        ctx = build_context(state)
        assert not ctx.bounded and ctx.lattice.rectangular
        traj = oracle.integrate_ode(state, 450.0)
        points = []
        orbit_point = propagation._orbit_point

        def counted(ctx, tau):
            points.append(tau)
            return orbit_point(ctx, tau)

        monkeypatch.setattr(propagation, "_orbit_point", counted)
        for t in (174.3, 200.0, 400.0):
            points.clear()
            ps = propagate_ctx(ctx, t)
            assert len(points) <= 4
            r_ref, th_ref, _, _ = traj.at(t)
            assert abs(ps.r - r_ref) / r_ref < 2e-11
            assert abs(ps.theta - th_ref) < 1e-11

    def test_evaluations_per_inversion(self, monkeypatch):
        # S's first three harmonics start a bounded inversion close enough
        # for the first Halley step to be taken: 1.0 evaluations per sample
        # on the plain orbits (2.5 from the alpha = 0 ellipse and the
        # residual stop), 2.1 at Kepler eccentricity 0.95 (3.0-3.4).  Near
        # the escape threshold T' starts from its own leading terms: 1.00
        # evaluations per sample over 20 periods below alpha* at |delta| =
        # 1e-2 to 1e-12, where S's harmonics took 1.97-2.08, and up to t =
        # 2000 above it at 1e-4 to 1e-12, where the Taylor, hyperbola and
        # pole estimates took 4.67, 7.49 and 8.08.  At delta = 1e-2 above
        # (q_c = 0.0155) those estimates still serve, at 1.67: the leading
        # terms through the fold would cost more than the 0.67 they save
        points = []
        orbit_point = propagation._orbit_point
        monkeypatch.setattr(propagation, "_orbit_point",
                            lambda ctx, tau: points.append(tau) or orbit_point(ctx, tau))

        def evaluations(state):
            ctx = build_context(state)
            span = 20.0 * ctx.T_t if ctx.bounded else 2000.0
            points.clear()
            for j in range(1, 40):      # no sample at the epoch
                propagate_ctx(ctx, span * j / 39.0)
            return len(points) / 39.0

        assert np.mean([evaluations(s) for s in kepler_orbits(seed=24, count=16)]) <= 1.1
        assert evaluations(KEPLER_HARD[0]) <= 2.2
        for state in KEPLER_HARD[1:]:
            assert evaluations(state) <= 1.05
        for delta in (1e-2, 1e-4, 1e-8, 1e-12):
            for side in (-1.0, 1.0):
                state = InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 + side * delta))
                if side > 0.0 and delta == 1e-2:
                    assert build_context(state)._radial[3].func is propagation._unbounded_start
                    assert evaluations(state) <= 1.67
                    continue
                assert build_context(state)._radial[3].func is propagation._leading_start
                assert evaluations(state) <= 1.05, (side, delta)

    @pytest.mark.parametrize("state", KEPLER_ACCEPTED, ids=[
        "worked", "rosette", "tilted", "inbound", "ecc_0.95",
        "hyperbolic", "escaping", "rhombic_1e-8", "rhombic_1e-4",
        "bounded_1e-8", "bounded_1e-4"])
    def test_accepted_point_matches_a_fresh_evaluation(self, state):
        # t, r and r' where the Halley step is taken, carried to tau + h,
        # against _orbit_point at the returned tau: r within the rounding
        # of two evaluations (up to 4 ulps each), r' within 2^-50 r v, the
        # scale gamma = atan2(r', h) reads it against, and t(tau) within
        # 2^-50 max(1, |t|); plus what one ulp of tau, conditioning the
        # returned float, moves each by.  Bounded t is in [0, T_t), to
        # which the inversion folds it.  A first-order carry of r' after a
        # Newton step missed by up to 4.7 times its bound on the rhombic
        # states, at t from 49 to 129, which the dense stretch covers.  T'
        # formed tanh u as sinh 2u/(2 + v1), up to 5 ulps off, and its
        # near-escape states reached 7.6 of the 8 ulps (9.0 on rhombic_1e-8
        # once the first Halley step was taken); with math.tanh, 3.0
        ctx = build_context(InitialState(*state))
        rng = np.random.default_rng(17)
        times = (rng.uniform(0.0, ctx.T_t, 100) if ctx.bounded
                 else np.concatenate([rng.uniform(-2000.0, 2000.0, 80),
                                      np.geomspace(1e-3, 2000.0, 20),
                                      np.linspace(40.0, 140.0, 201)]))
        for t in times:
            tau, r, rp = propagation._invert(ctx, t)
            t_f, r_f, rp_f = propagation._orbit_point(ctx, tau)
            ulp = math.ulp(tau)
            assert abs(r - r_f) <= 8.0 * math.ulp(r_f) + abs(rp_f) * ulp
            assert abs(rp - rp_f) <= (2.0**-50 * math.hypot(rp_f, ctx.momentum)
                                      + 0.5 * abs(ctx.f.df(r_f)) * ulp)
            assert abs(t_f - t) <= 2.0**-50 * max(1.0, abs(t)) + r_f * ulp

    @pytest.mark.parametrize("seed", [30, 31])
    def test_start_from_the_leading_terms_of_t_prime(self, seed, monkeypatch):
        # T''s start lands in the half of its bracket that holds the root:
        # [0, T_tau/2] up to T_t/2 and [T_tau/2, T_tau] past it, [0, w_r/2]
        # up to t(w_r/2) and [w_r/2, w_r) past it, also at t -> 0, T_t/2 +/-
        # an ulp, t -> T_t and t(w_r/2) +/- an ulp.  From t = 1e-300 on it
        # is within 2^-17 of the root, relative to the distance from the
        # nearer apse or the asymptote (measured 2^-25.4 at worst), so one
        # evaluation serves each inversion.  t(tau) then meets t to 2^-50
        # max(1, |t|) but where no float of tau can: at T_t/2 t(tau) jumps
        # by T_t - 2 t(T_tau/2), where the fold by T_t takes over, and both
        # are rounded (up to 1.4 times 2^-50 t on these orbits); and past
        # w_r/2 one ulp of tau moves t by r ulp(tau), which past t = 300
        # here is more than 2^-50 t
        points = []
        orbit_point = propagation._orbit_point
        monkeypatch.setattr(propagation, "_orbit_point",
                            lambda ctx, tau: points.append(tau) or orbit_point(ctx, tau))
        rng = np.random.default_rng(seed)
        for state in near_escape_sweep(seed, 12):
            ctx = build_context(state)
            start = ctx._radial[3]
            lead = start.func is propagation._leading_start     # else q_c >= 0.01
            assert lead or (not ctx.bounded and ctx.lattice.q_t >= 0.01)
            if ctx.bounded:
                end, half_t = ctx.T_tau, 0.5 * ctx.T_t
                jump = abs(ctx.T_t - 2.0 * orbit_point(ctx, 0.5 * end)[0])
                edges = [math.nextafter(half_t, 0.0), half_t, math.nextafter(half_t, math.inf),
                         math.nextafter(ctx.T_t, 0.0)]
                times = rng.uniform(0.0, ctx.T_t, 20)
            else:
                end = ctx.lattice.real_half_period
                half_t = orbit_point(ctx, 0.5 * end)[0]
                edges = [math.nextafter(half_t, 0.0), half_t, math.nextafter(half_t, math.inf)]
                times = np.concatenate([rng.uniform(0.0, 2000.0, 20), [1e4, 1e6]])
            for t in [5e-324, 1e-300, 1e-12] + edges + [float(x) for x in times]:
                points.clear()
                tau, r, _ = propagation._invert(ctx, t)
                if lead:
                    guess = start(t)
                    assert (0.0 <= guess <= 0.5 * end if t <= half_t
                            else 0.5 * end <= guess <= end), (state, t, guess)
                    assert len(points) == 1, (state, t)
                    if t >= 1e-300:
                        apse = end if tau > 0.5 * end else 0.0
                        assert abs(guess - tau) <= 2.0**-17 * abs(tau - apse), (state, t)
                t_f = orbit_point(ctx, tau)[0]
                if ctx.bounded:
                    slack = jump if abs(t - half_t) <= math.ulp(half_t) else 0.0
                else:
                    slack = r * math.ulp(tau) if tau > 0.5 * end else 0.0
                assert abs(t_f - t) <= 2.0**-50 * max(1.0, t) + slack, (state, t)

    def test_start_from_the_harmonics_of_s(self):
        # Newton's last step on the truncated equation is below 2^-17, which
        # leaves an error of order its square (measured residual 2^-36.7),
        # and the truncated root is within about e_1 q^3 of the true one
        # (2.9e-6 of T_tau on the benchmark's dense orbits; the alpha = 0
        # ellipse started up to 3.1e-3 off)
        for state in kepler_orbits(seed=24, count=8) + KEPLER_HARD:
            ctx = build_context(state)
            e1, e2, e3 = harmonics = s_harmonics(ctx)
            q = math.exp(-math.pi * ctx.lattice.periods.omega_prime.imag / (0.5 * ctx.T_tau))
            for frac in np.linspace(0.0, 1.0, 25, endpoint=False):
                t = frac * ctx.T_t
                tau = propagation._kepler_start(harmonics, ctx.T_tau, ctx.T_t, t)
                y = 2.0 * math.pi * tau / ctx.T_tau
                mean = y - e1 * math.sin(y) - e2 * math.sin(2 * y) - e3 * math.sin(3 * y)
                assert abs(mean - 2.0 * math.pi * frac) <= 2.0**-34
                root = propagation.invert_kepler(ctx, t)
                assert abs(tau - root) <= (2.0 * abs(e1) * q**3 + 2.0**-32) * ctx.T_tau

    @pytest.mark.parametrize("harmonics", [(1.5, 0.0, 0.0), (0.9, 0.3, 0.1), (1.2, -0.4, 0.3)])
    def test_start_bisects_where_the_truncation_is_not_monotone(self, worked_ctx, harmonics):
        # harmonics whose truncated equation falls somewhere: Newton steps
        # only where it rises and inside the bracket, else bisection, and the
        # start still lands on a root of the truncation in [0, T_tau]
        # (measured residual 2^-33.6 at worst)
        ctx = worked_ctx
        e1, e2, e3 = harmonics
        for frac in np.linspace(0.0, 1.0, 50, endpoint=False):
            tau = propagation._kepler_start(harmonics, ctx.T_tau, ctx.T_t, frac * ctx.T_t)
            assert 0.0 <= tau <= ctx.T_tau
            y = 2.0 * math.pi * tau / ctx.T_tau
            mean = y - e1 * math.sin(y) - e2 * math.sin(2 * y) - e3 * math.sin(3 * y)
            slope = 1.0 + abs(e1) + 2.0 * abs(e2) + 3.0 * abs(e3)
            assert abs(mean - 2.0 * math.pi * frac) <= 2.0**-17 * slope


# Unbounded states whose Kepler start fell at or past the escape asymptote
# w_r: (state, ((t, r, theta), ...)) with r and theta from perfbench's
# mpmath reference.  The first is a CLI run (gamma0 = -59.88499788192391
# deg) that raised ZeroDivisionError at t = 4398; the second raised
# PoleProximityError ("real argument 0.0") at t = 10 and 100
ESCAPE_START = [
    ((0.17174621123606648, 3.4751657041338806, math.radians(-59.88499788192391),
      1.0414844492562693e-06),
     ((1466.0328826834077, 977.5885266014941, 5.005652198586425),
      (2932.0657653668154, 1945.7843735329593, 5.005883026372889),
      (4398.098648050223, 2915.5664219928904, 5.00596042279988))),
    ((0.03673945321023024, 9.409249480518895, -1e-7, 0.004128045775959188),
     ((10.0, 58.78937811222822, 2.0297081347618615),
      (100.0, 604.8309424186031, 2.0306009870204225),
      (1000.0, 7903.723198672267, 2.0306784228028305))),
]


@pytest.mark.parametrize("state, samples", ESCAPE_START, ids=["cli", "near-apse"])
def test_kepler_start_past_the_escape_asymptote(state, samples):
    # such a start begins at the bracket midpoint w_r/2; measured 1.4e-13
    # in r and 1.6e-14 in theta on the first state
    ctx = build_context(InitialState(*state))
    w_r = ctx.lattice.real_half_period
    assert ctx._radial[3].func is propagation._unbounded_start
    for t, r, theta in samples:
        assert ctx._radial[3](ctx.t0 + t) < w_r
        ps = propagate_ctx(ctx, t)
        assert ps.tau < w_r
        assert ps.r == pytest.approx(r, rel=1e-12)
        assert ps.theta == pytest.approx(theta, abs=1e-13)


def test_unbounded_start_from_the_hyperbola(monkeypatch):
    # E > 0: the alpha = 0 hyperbola with the same r_m and E bounds tau from
    # above and stays close; the pole estimate alone started at 12.30 and
    # 16.77 against the roots 8.935 and 10.68, and took 4 and 5 evaluations
    ctx = build_context(InitialState(1.0, 1.5, 0.0, 1e-6))
    calls = []
    point = propagation._orbit_point
    monkeypatch.setattr(propagation, "_orbit_point",
                        lambda c, tau: calls.append(tau) or point(c, tau))
    for t, root in ((400.0, 8.934851293292914), (1000.0, 10.678580123201941)):
        assert ctx._radial[3].func is propagation._unbounded_start
        assert root <= ctx._radial[3](t) <= root * (1.0 + 2e-4)
        calls.clear()
        assert invert_kepler(ctx, t) == pytest.approx(root, rel=1e-15, abs=0.0)
        assert len(calls) == 2


# A wide unbounded lattice where p(tau) rounded onto e_k before the escape
# asymptote, and the paper's r = r_m + f'(r_m)/(4 (p - e_k)) raised
# ZeroDivisionError; inbound epochs of a long-period orbit, whose tau0 =
# T_tau - z rounded z to an ulp of T_tau (3.6e-13 in r at gamma0 = -0.0224);
# and an inbound epoch with T_t = 7e12, where t0 = T_t - t(z) kept dt to
# 1e-3 (r 7228 for 1388.6 at dt = 100).  (state, dt, r, theta, theta_tol)
# with r and theta from perfbench's mpmath reference
SERIES_REPROS = [
    ((0.013863214463189022, 13.596734700514835, 0.00013321868118074297,
      4.891897955539798e-12), 40.08, 255.60564140382584, 2.2647424578931963, 1e-13),
    ((1.036600911899285, 1.3889293430016292, -0.0224, 4.164274195722233e-09),
     1026.6, 166.25068553325386, 3.0300425142160323, 1e-13),
    ((1.036600911899285, 1.3889293430016292, -0.05, 4.164274195722233e-09),
     1026.6, 166.24828873931477, 3.08540530602611, 1e-13),
    ((1.036600911899285, 1.3889293430016292, 0.0224, 4.164274195722233e-09),
     1026.6, 166.2579161119008, 2.940434010293077, 1e-13),
    ((0.03407006071731699, 15.858767441333171, -1.4946150007837016,
      -3.935775268688421e-12), 100.0, 1388.5540035127474, 5.1643267792005325, 3e-13),
]


@pytest.mark.parametrize("state, dt, r, theta, theta_tol", SERIES_REPROS,
                         ids=["alpha-5e-12", "inbound-0.0224", "inbound-0.05",
                              "outbound-0.0224", "inbound-T_t-7e12"])
def test_series_repros_against_mpmath(state, dt, r, theta, theta_tol):
    ps = propagate_ctx(build_context(InitialState(*state)), dt)
    assert abs(ps.r - r) <= 1e-13 * r
    assert abs(ps.theta - theta) <= theta_tol


def paper_radial_reference(ctx, taus, mp, own_roots=False):
    """(t, r) at each tau from the paper's p and zeta forms, at 60 digits.

    r = r_m + f'(r_m)/(4 (p(tau) - e_k)) and t = r_m tau - (2 e_k tau +
    zeta(tau - w_k) + zeta(tau + w_k))/a, on the lattice of the roots of f
    that mpmath finds for the state's binary64 inputs (``theta_reference``),
    or with ``own_roots`` on the lattice of the context's own roots of f,
    f = 2 a (r - r_1)(r - r_2)(r - r_3) with r_i = r0 + offset_i exactly:
    that isolates the series from the rounding of the roots, which near the
    escape threshold moves the periods by up to 1e-10.  The working
    precision absorbs the 1/a and the cancellations at tau = 0 and at the
    escape asymptote.
    """
    with mp.workdps(60):
        st = ctx.state
        r0, v0, g0, a = (mp.mpf(x) for x in (st.r0, st.v0, st.gamma0, st.alpha))
        if own_roots:
            roots = [r0 + mp.mpc(x.real, x.imag) for x in ctx.f.offsets]
            energy = -a * mp.re(sum(roots))
        else:
            energy = v0**2 / 2 - 1 / r0 - a * r0
            h = r0 * v0 * mp.cos(g0)
            roots = mp.polyroots([2 * a, 2 * energy, 2, -h * h], maxsteps=400, extraprec=400)
        r_m = min((mp.re(z) for z in roots), key=lambda z: abs(z - ctx.r_m))
        e_k = a * r_m / 2 + energy / 6
        e = [(a * z + energy / 3) / 2 for z in roots]
        g2 = -4 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2])
        ref, omega1, omega3 = theta_reference(mp.re(g2), mp.re(4 * e[0] * e[1] * e[2]), mp)
        w_k = min((omega1, omega3, omega1 + omega3), key=lambda w: abs(ref(w)[0] - e_k))
        if own_roots:
            others = sorted(roots, key=lambda z: abs(z - r_m))[1:]
            fp = mp.re(2 * a * (r_m - others[0]) * (r_m - others[1]))
        else:
            fp = (6 * a * r_m + 4 * energy) * r_m + 2
        out = []
        for tau in taus:
            tau = mp.mpf(tau)
            r = r_m + fp / (4 * (ref(tau)[0] - e_k))
            pair = ref(tau - w_k)[1] + ref(tau + w_k)[1]
            out.append((float(mp.re(r_m * tau - (2 * e_k * tau + pair) / a)), float(mp.re(r))))
        return out


def seeded_series_states(seed, per_kind=2):
    """Valid states of seven kinds: bounded with k = 3 and k = 2, unbounded on
    a rectangular and on a rhombic lattice, |alpha| in [1e-10, 0.5]; apse
    starts at relative distance delta in [1e-8, 1e-2] below the escape
    threshold (bounded, k = 3) and above it (rhombic); and unbounded
    rectangular (k = 1) states with E > 0 and alpha in [1e-10, 1e-5], whose
    lattices sum their companion's series (q' < q)."""
    rng = np.random.default_rng(seed)
    kinds = {"k3": [], "k2": [], "rectangular": [], "rhombic": []}
    while any(len(v) < per_kind for v in kinds.values()):
        sign = rng.choice([-1.0, 1.0])
        alpha = sign * 10.0 ** rng.uniform(-10.0, math.log10(0.5))
        u, r0 = rng.uniform(0.3, 3.0), rng.uniform(0.5, 2.0)
        state = InitialState(r0, math.sqrt(u / r0), rng.uniform(-0.6, 0.6), alpha)
        try:
            ctx = build_context(state)
        except RadialOrbitError:
            continue
        kind = ("k%d" % ctx.k if ctx.bounded
                else "rectangular" if ctx.lattice.rectangular else "rhombic")
        if len(kinds[kind]) < per_kind:
            kinds[kind].append(ctx)
    for side in (-1.0, 1.0):
        for _ in range(per_kind):
            u, r0 = rng.uniform(1.0, 1.9), rng.uniform(0.5, 2.0)   # u = r0 v0^2
            alpha_star = (2.0 - u) ** 2 / (8.0 * r0 * r0 * u)
            delta = 10.0 ** rng.uniform(-8.0, -2.0)
            ctx = build_context(InitialState(r0, math.sqrt(u / r0), 0.0,
                                             alpha_star * (1.0 + side * delta)))
            assert ctx.bounded == (side < 0.0) and ctx.k in (2, 3)
            kinds.setdefault("escape", []).append(ctx)
    for _ in range(per_kind):
        u, r0 = rng.uniform(2.05, 3.0), rng.uniform(0.5, 2.0)      # E > 0
        ctx = build_context(InitialState(r0, math.sqrt(u / r0), rng.uniform(-0.6, 0.6),
                                         10.0 ** rng.uniform(-10.0, -5.0)))
        assert not ctx.bounded and ctx.k == 1 and ctx.lattice.companion
        kinds.setdefault("small", []).append(ctx)
    return [(kind, ctx) for kind, v in kinds.items() for ctx in v]


def radial_route(ctx):
    """The form that serves tau beyond the switch: S, T, T', or H or T' folded."""
    form = ctx._radial[2]
    if form.func is propagation._fold_point:
        return "T' folded" if form.args[-1].args[3] else "H folded"
    return ("T'" if form.args[3] else "S") if form.args[2] else ("T" if form.args[3] else "S")


# (state, the fold's form): T' on the rhombic lattices of (1, 1.2, 0, alpha)
# at delta above the escape threshold, H on k = 1 lattices at tiny alpha
FOLD_STATES = [
    *(pytest.param((1.0, 1.2, 0.0, 0.56**2 / 11.52 * (1.0 + delta)), "T' folded", id=repr(delta))
      for delta in (1e-8, 1e-4, 1e-2)),
    *(pytest.param((1.0, 1.5, 0.0, alpha), "H folded", id="k1-%r" % alpha)
      for alpha in (1e-9, 1e-5)),
]


@pytest.mark.parametrize("state, route", FOLD_STATES)
def test_fold_meets_the_pole_at_the_real_half_period(state, route):
    # the form folded at w_r/2 (``_fold_point``), toward the escape
    # asymptote w_r: with u = w_r - tau, r - r_m = 2/(a u^2), dr/dtau =
    # 4/(a u^3) and t = 2/(a u) + c + O(u).  Measured worst 1.1e-15 in r
    # and dr/dtau from u = 1e-15 w_r on, and c steady to 3.4e-16 of t
    ctx = build_context(InitialState(*state))
    alpha = ctx.state.alpha
    assert radial_route(ctx) == route
    w_r = ctx.lattice.real_half_period
    consts = []
    for frac in (1e-15, 1e-12, 1e-9):
        tau = w_r * (1.0 - frac)
        u = w_r - tau
        t, r, rp = propagation._orbit_point(ctx, tau)
        assert abs((r - ctx.r_m) * alpha * u * u / 2.0 - 1.0) <= 4e-15
        assert abs(rp * alpha * u**3 / 4.0 - 1.0) <= 4e-15
        consts.append((t - 2.0 / (alpha * u), t))
    (c_12, t_12), (c_9, _) = consts[1:]
    assert abs(c_12 - c_9) <= 1e-14 * t_12


@pytest.mark.parametrize("seed", [20, 21])
def test_seeded_series_against_mpmath(seed):
    # r and t within 1e-14 relative of the paper's forms at 60 digits, or
    # of 4 times the floor 2 ulp(w_r)/(w_r - tau) that the rounding of w_r
    # sets near the escape asymptote; bounded tau over a whole period,
    # unbounded tau/w_r in [0.01, 1 - 1e-6], on both sides of the H/T switch
    # and of the fold at w_r/2, and (dr/dtau)^2 = f(r) to 1e-13 of f's
    # largest term (measured 3e-15).  Near-escape states are checked on the
    # lattice of their own roots of f: their rounding moves the periods by
    # up to 1e-10 there, which no form of the series can repair
    mp = pytest.importorskip("mpmath")
    states = seeded_series_states(seed)
    routes = {(ctx.bounded, ctx.lattice.rectangular, radial_route(ctx)) for _, ctx in states}
    # both sides of each switch: S or T' (k = 3), T or T' folded (rhombic),
    # H folded (k = 1 with q' < q)
    assert {(True, True, "S"), (True, True, "T'"), (False, False, "T"),
            (False, False, "T' folded"), (False, True, "H folded")} <= routes
    for kind, ctx in states:
        w = ctx.lattice.real_half_period
        if ctx.bounded:
            taus = [1e-3 * w, *np.linspace(0.0, 2.0 * w, 6)[1:]]
        else:
            taus = [f * w for f in (0.01, 0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 1e-6)]
        own = kind == "escape"
        for tau, (t_ref, r_ref) in zip(taus, paper_radial_reference(ctx, taus, mp, own)):
            bound = max(1e-14, 0.0 if ctx.bounded else 8.0 * math.ulp(w) / (w - tau))
            t, r, rp = propagation._orbit_point(ctx, tau)
            assert abs(r - r_ref) <= bound * r_ref
            assert abs(t - t_ref) <= bound * abs(t_ref)
            terms = (2.0 * abs(ctx.state.alpha) * r**3 + 2.0 * abs(ctx.energy) * r**2
                     + 2.0 * r + ctx.momentum**2)
            assert abs(rp * rp - ctx.f(r)) <= 1e-13 * terms


@pytest.mark.parametrize("seed", [20, 21])
def test_seeded_theta_against_log_sigma(seed):
    # theta on both sides of the basis switch against two log sigma
    # evaluations on the same lattice, at the 2e-12 of TestThetaSeries'
    # q = 0.41 state; bounded over +/-50 periods, which folds tau across
    # +/-omega, unbounded up to 0.999 w_r across the fold at w_r/2 of a
    # rhombic lattice, and on a k = 1 lattice with q' < q, unfolded
    states = seeded_series_states(seed)
    routes = {(ctx.bounded, ctx.lattice.rectangular, ctx._theta_series.func.__name__)
              for _, ctx in states}
    assert routes == {(True, True, "_theta_real"), (True, True, "_theta_centred"),
                      (False, False, "_theta_real"), (False, False, "_theta_folded"),
                      (False, True, "_theta_centred")}
    for _, ctx in states:
        if ctx.bounded:
            taus = np.linspace(-50.0 * ctx.T_tau, 50.0 * ctx.T_tau, 101)
        else:
            w = ctx.lattice.real_half_period
            taus = [f * w for f in (-0.999, -0.7, -0.3, 0.01, 0.3, 0.5, 0.7, 0.95, 0.999)]
        for tau in taus:
            assert abs(theta_of_tau(ctx, tau) - log_sigma_theta(ctx, tau)) <= 2e-12


def test_seeded_valid_states_propagate():
    # r0 in 10^[-2, 2], alpha = +/-10^[-11.5, 1], r0 v0^2 in [0.05, 4],
    # gamma0 wide, tiny or 0, three spans each: about 9 % of such states
    # raised ZeroDivisionError or PoleProximityError from a Kepler start at
    # or past the escape asymptote
    rng = np.random.default_rng(19)
    for _ in range(300):
        r0 = 10.0 ** rng.uniform(-2.0, 2.0)
        alpha = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.5, 1.0)
        u, g = rng.uniform(0.05, 4.0), rng.uniform()
        gamma0 = (rng.uniform(-1.5, 1.5) if g < 0.7 else 0.0 if g > 0.95
                  else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -2.0))
        ctx = build_context(InitialState(r0, math.sqrt(u / r0), gamma0, alpha))
        for lo in (-2.0, 0.0, 2.0):
            ps = propagate_ctx(ctx, 2.0 * math.pi * r0**1.5 * 10.0 ** rng.uniform(lo, lo + 2.0))
            assert math.isfinite(ps.r) and math.isfinite(ps.theta)


class TestTimeOfFlight:
    """Times of flight over monotone arcs as differences of t(tau)."""

    @staticmethod
    def flight(ctx, r_a, r_b):
        return radial_kepler(ctx, tau0_from_r0(ctx, r_b, 1)) - radial_kepler(
            ctx, tau0_from_r0(ctx, r_a, 1))

    def test_pericenter_to_apocenter_is_half_period(self, worked_ctx):
        dt = self.flight(worked_ctx, 1.0, APO)
        assert dt == pytest.approx(worked_ctx.T_t / 2.0, abs=1e-9)

    def test_matches_quadrature_and_kepler(self, worked_ctx):
        ctx = worked_ctx
        rng = np.random.default_rng(9)
        for _ in range(8):
            r_a, r_b = np.sort(rng.uniform(1.001, APO - 0.001, 2))
            if r_b - r_a < 1e-3:
                continue
            ref = oracle.quadrature_tof(ctx.state, r_a, r_b)
            assert self.flight(ctx, r_a, r_b) == pytest.approx(ref, abs=1e-8)

    def test_unbounded_arc(self):
        ctx = build_context(InitialState(1.0, 1.2, 0.0, 0.1))
        ref = oracle.quadrature_tof(ctx.state, 1.5, 6.0)
        assert self.flight(ctx, 1.5, 6.0) == pytest.approx(ref, abs=1e-8)


# Epochs gamma0 = +/-1e-9 ... +/-1e-5 rad from an apse of three orbits
# (r0, v0, alpha): the pericenter of (1, 1.2, 0.02) and the apocenters of
# (1, 0.9, -0.05) and (2, 0.6, 0.01).  Values: (r, theta) at dt = 0.01, 0.5
# and 3 from perfbench's mpmath reference (30 digits), rounded to doubles
NEAR_APSE_DTS = (0.01, 0.5, 3.0)
NEAR_APSE = {
    (1.0, 1.2, 1e-09, 0.02): (1.0000229995673462, 0.011999816005798972,
                              1.0549126536269324, 0.5786918824437263,
                              1.948075676033025, 2.091235645508487),
    (1.0, 1.2, -1e-09, 0.02): (1.0000229995433472, 0.011999816006086957,
                               1.0549126525312513, 0.5786918830785709,
                               1.9480756741874363, 2.0912356501195877),
    (1.0, 1.2, 1e-08, 0.02): (1.000022999675342, 0.011999816004503042,
                              1.0549126585574977, 0.5786918795869254,
                              1.9480756843381735, 2.091235624758532),
    (1.0, 1.2, -1e-08, 0.02): (1.0000229994353513, 0.011999816007382888,
                               1.054912647600686, 0.5786918859353717,
                               1.948075665882288, 2.0912356708695428),
    (1.0, 1.2, 1e-07, 0.02): (1.0000230007553004, 0.011999815991543681,
                              1.0549127078631488, 0.5786918510189167,
                              1.948075767389663, 2.0912354172589973),
    (1.0, 1.2, -1e-07, 0.02): (1.0000229983553932, 0.01199981602034213,
                               1.0549125982950323, 0.5786919145033791,
                               1.9480755828308098, 2.0912358783691034),
    (1.0, 1.2, 1e-06, 0.02): (1.0000230115548827, 0.01199981586194472,
                              1.054913200919542, 0.5786915653387724,
                              1.9480765979050607, 2.09123334226482),
    (1.0, 1.2, -1e-06, 0.02): (1.0000229875558106, 0.011999816149929217,
                               1.0549121052383754, 0.5786922001833966,
                               1.9480747523165296, 2.091237953365878),
    (1.0, 1.2, 1e-05, 0.02): (1.0000231195506997, 0.01199981456542072,
                              1.0549181314716027, 0.5786887085316209,
                              1.9480849031093395, 2.0912125924398963),
    (1.0, 1.2, -1e-05, 0.02): (1.0000228795599793, 0.011999817445265688,
                               1.0549071746599359, 0.5786950569778629,
                               1.9480664472240294, 2.0912587034504755),
    (1.0, 0.9, 1e-09, -0.05): (0.9999880000520007, 0.009000072000541802,
                               0.9702820763916343, 0.4591966990462288,
                               0.7715025824281148, 4.4978521100275035),
    (1.0, 0.9, -1e-09, -0.05): (0.9999880000340009, 0.009000072000703805,
                                0.9702820755089688, 0.4591966994660406,
                                0.7715025843305685, 4.4978521146179204),
    (1.0, 0.9, 1e-08, -0.05): (0.9999880001330002, 0.009000071999812792,
                               0.9702820803636285, 0.45919669715707573,
                               0.7715025738670731, 4.497852089370629),
    (1.0, 0.9, -1e-08, -0.05): (0.9999879999530015, 0.009000072001432815,
                                0.9702820715369747, 0.45919670135519364,
                                0.7715025928916102, 4.497852135274794),
    (1.0, 0.9, 1e-07, -0.05): (0.9999880009429943, 0.00900007199252264,
                               0.9702821200835703, 0.4591966782655442,
                               0.7715024882566573, 4.497851882801864),
    (1.0, 0.9, -1e-07, -0.05): (0.9999879991430073, 0.009000072008722874,
                                0.970282031817031, 0.45919672024672314,
                                0.7715026785020279, 4.49785234184351),
    (1.0, 0.9, 1e-06, -0.05): (0.9999880090429363, 0.009000071919617136,
                               0.9702825172829045, 0.4591964893501369,
                               0.7715016321525879, 4.497849817111996),
    (1.0, 0.9, -1e-06, -0.05): (0.9999879910430652, 0.009000072081619471,
                                0.9702816346175117, 0.45919690916192607,
                                0.7715035346062937, 4.497854407528453),
    (1.0, 0.9, 1e-05, -0.05): (0.9999880900423518, 0.009000071190161218,
                               0.9702864892679204, 0.4591946001868669,
                               0.7714930711207327, 4.497829159991671),
    (1.0, 0.9, -1e-05, -0.05): (0.9999879100436418, 0.009000072810184574,
                                0.9702776626139923, 0.45919879830475885,
                                0.7715120956577896, 4.497875064156247),
    (2.0, 0.6, 1e-09, 0.01): (1.9999970000065, 0.00300000299999475,
                              1.992503163618966, 0.15037617480382567,
                              1.7361437408145965, 0.9909438436487457),
    (2.0, 0.6, -1e-09, 0.01): (1.9999969999945, 0.00300000300001275,
                               1.9925031630194754, 0.15037617484906088,
                               1.7361437374109665, 0.9909438456110704),
    (2.0, 0.6, 1e-08, 0.01): (1.9999970000605, 0.0030000029999137498,
                              1.9925031663166746, 0.15037617460026725,
                              1.7361437561309312, 0.9909438348182845),
    (2.0, 0.6, -1e-08, 0.01): (1.9999969999405, 0.00300000300009375,
                               1.9925031603217667, 0.15037617505261927,
                               1.7361437220946319, 0.9909438544415317),
    (2.0, 0.6, 1e-07, 0.01): (1.9999970006005, 0.003000002999103733,
                              1.99250319329376, 0.15037617256468247,
                              1.7361439092942732, 0.9909437465136797),
    (2.0, 0.6, -1e-07, 0.01): (1.9999969994005002, 0.003000003000903737,
                               1.992503133344681, 0.15037617708820264,
                               1.7361435689312787, 0.990943942746151),
    (2.0, 0.6, 1e-06, 0.01): (1.999997006000498, 0.003000002991002231,
                              1.9925034630645932, 0.15037615220877182,
                              1.736145440927198, 0.9909428634682848),
    (2.0, 0.6, -1e-06, 0.01): (1.999996994000502, 0.0030000030090022688,
                               1.9925028635738034, 0.1503761974439734,
                               1.7361420372972536, 0.9909448257929984),
    (2.0, 0.6, 1e-05, 0.01): (1.999997060000479, 0.003000002909853566,
                              1.9925061607709325, 0.15037594864336967,
                              1.7361607572069313, 0.9909340330796869),
    (2.0, 0.6, -1e-05, 0.01): (1.999996940000519, 0.003000003089853941,
                               1.9925001658630337, 0.15037640099538543,
                               1.736126720907488, 0.9909536563268253),
}


class TestNearApseEpoch:
    """tau0 of starts next to an apse: R_F of gaps built from f's root offsets.

    Those gaps are products of root differences, none cancelling, so tau0
    keeps its digits however close r0 is to the apse.  Measured worst over
    the 30 starts: 7.2e-16 in r and 3.6e-15 in theta.
    """

    @pytest.mark.parametrize("state", list(NEAR_APSE),
                             ids=[f"{s[0]}-{s[1]}-{s[2]:+g}" for s in NEAR_APSE])
    def test_against_mpmath(self, state):
        ctx = build_context(InitialState(*state))
        ref = NEAR_APSE[state]
        for i, dt in enumerate(NEAR_APSE_DTS):
            ps = propagate_ctx(ctx, dt)
            assert abs(ps.r - ref[2 * i]) <= 1e-14 * ref[2 * i]
            assert abs(ps.theta - ref[2 * i + 1]) <= 3e-14

    def test_inbound_pericenter_epoch_is_negative(self):
        # T_tau + x would round x to an ulp of T_tau
        ctx = build_context(InitialState(1.0, 1.2, -1e-7, 0.02))
        assert ctx.tau0 == pytest.approx(-2.608695652173866e-07, rel=1e-13, abs=0.0)


# apse contexts of a k = 3, a k = 2, a rectangular unbounded (k = 1) and a
# rhombic orbit
NEAR_APSE_SWEEP = {"k3": (1.0, 1.2, 0.0, 0.02), "k2": (1.0, 1.2, 0.0, -0.05),
                   "rectangular": (1.0, 1.5, 0.0, 1e-6), "rhombic": (1.0, 1.2, 0.0, 0.1)}


class TestNearApseSweep:
    """r(tau0) meets r0 at every distance from an apse, both branches.

    r0 at relative distance 10^-j, j = 1...15, inside each apse.  8 ulps of
    r0 is the most the series rounds r by (``_series_point``, near the
    escape threshold).  Measured worst: 6 ulps (k = 3), 4 (k = 2), 1
    (rectangular) and 0 (rhombic).
    """

    @pytest.mark.parametrize("name", list(NEAR_APSE_SWEEP))
    def test_r_of_tau0_meets_r0(self, name):
        ctx = build_context(InitialState(*NEAR_APSE_SWEEP[name]))
        assert ctx.k == {"k3": 3, "k2": 2, "rectangular": 1, "rhombic": 2}[name]
        assert ctx.lattice.rectangular == (name != "rhombic")
        apses = [(ctx.r_m, 1.0)]
        if ctx.bounded:
            apses.append((ctx.region.r_hi, -1.0))
        for r_a, inward in apses:
            for j in range(1, 16):
                r0 = r_a * (1.0 + inward * 10.0**-j)
                for sign in (1, -1):
                    tau0 = tau0_from_r0(ctx, r0, sign)
                    assert sign * tau0 > 0.0
                    assert not (ctx.bounded and sign * tau0 >= 0.5 * ctx.T_tau)
                    assert abs(r_of_tau(ctx, tau0) - r0) <= 8.0 * math.ulp(r0), (r0, sign)


class TestPropagate:
    def test_zero_dt_identity(self):
        state = shifted_worked_state()
        ps = propagate_ctx(build_context(state), 0.0)
        assert ps.r == pytest.approx(state.r0, abs=1e-10)
        assert ps.theta == pytest.approx(0.0, abs=1e-12)
        assert ps.v == pytest.approx(state.v0, rel=1e-10)
        assert ps.gamma == pytest.approx(state.gamma0, abs=1e-10)

    def test_conserved_quantities_preserved(self):
        state = shifted_worked_state(sign=-1)
        ctx = build_context(state)
        for dt in np.linspace(-8.0, 55.0, 17):
            ps = propagate_ctx(ctx, dt)
            energy = 0.5 * ps.v**2 - 1.0 / ps.r - state.alpha * ps.r
            momentum = ps.r * ps.v * math.cos(ps.gamma)
            assert energy == pytest.approx(state.energy, abs=1e-10)
            assert momentum == pytest.approx(state.momentum, abs=1e-10)

    def test_rosette_closure_after_ten_periods(self, rosette_ctx):
        # the fixture's speed closes the orbit after ten librations; the
        # closed form returns to the start within about 1e-11
        ps = propagate_ctx(rosette_ctx, 10.0 * rosette_ctx.T_t)
        assert ps.r == pytest.approx(1.0, abs=1e-7)
        assert abs(wrap_angle(ps.theta)) < 1e-9

    def test_state_at_tau_consistency(self, worked_ctx):
        ps = state_at_tau(worked_ctx, 1.1)
        assert ps.t == pytest.approx(radial_kepler(worked_ctx, 1.1))
        assert ps.r == pytest.approx(r_of_tau(worked_ctx, 1.1))
        # tan(gamma) = (dr/dtau) / h
        r_prime = worked_ctx.momentum * math.tan(ps.gamma)
        assert r_prime**2 == pytest.approx(worked_ctx.f(ps.r), rel=1e-8)

    def test_state_at_tau_stops_at_the_escape_asymptote(self):
        ctx = build_context(InitialState(1.0, 1.2, 0.0, 0.1))
        w = ctx.lattice.real_half_period
        assert state_at_tau(ctx, 0.99 * w).t > state_at_tau(ctx, 0.9 * w).t
        for tau in (w, -w, 1.5 * w, 20.0):
            with pytest.raises(OutOfIntervalError):
                state_at_tau(ctx, tau)

    def test_period_count_past_the_floats_is_rejected(self):
        # a bounded fold takes whole periods off t or tau; with t/T_t or
        # tau/T_tau past the floats it raised OverflowError: t = 1.7e308 on
        # an orbit of T_tau = 0.31, and on one of T_tau = 5.2, where
        # t/T_t is finite but its periods of T_tau are not.  A count in the
        # floats still folds
        tiny = build_context(InitialState(0.001, 40.0, 0.0, 0.02))
        for call in (invert_kepler, propagate_ctx, state_at_tau, theta_of_tau,
                     r_of_tau, radial_kepler):
            with pytest.raises(OutOfIntervalError):
                call(tiny, 1.7e308)
        ctx = build_context(InitialState(0.05, 6.2, 0.0, 0.02))
        with pytest.raises(OutOfIntervalError):
            propagate_ctx(ctx, 1.7e308)
        ps = propagate_ctx(ctx, 8.5e307)
        assert math.isfinite(ps.theta) and ctx.region.contains(ps.r)

    def test_bounded_inversion_past_the_floats_is_rejected(self):
        # t/T_t = 5e307 is finite, but its whole periods of T_tau = 5.2 are
        # not: tau came back inf
        ctx = build_context(InitialState(0.05, 6.2, 0.0, 0.02))
        with pytest.raises(OutOfIntervalError):
            invert_kepler(ctx, 1.7e308)
        assert math.isfinite(invert_kepler(ctx, 8.5e307))

    def test_unbounded_time_past_the_last_float_is_rejected(self, monkeypatch):
        # t(tau) at the last float below w_r is 1.13e17 here: past it no
        # float tau solves t(tau) = t.  t = 1e18 raised ZeroDivisionError,
        # and t = 1e300 returned tau = 5.9489, where t(tau) = 1.67e4.  Below
        # it the inversion keeps to the floats' spacing of t
        ctx = build_context(InitialState(1.0, 1.5, 0.0, 0.02))
        top = math.nextafter(ctx.lattice.real_half_period, 0.0)
        t_top = radial_kepler(ctx, top)
        assert 1.12e17 < t_top < 1.13e17
        for t in (math.nextafter(t_top, math.inf), 1e18, 1e300, 1.7e308):
            for call in (invert_kepler, propagate_ctx):
                with pytest.raises(OutOfIntervalError):
                    call(ctx, t)
        assert invert_kepler(ctx, t_top) == top
        for t in (1e6, 1e10, 1e14, 1e16):
            tau = invert_kepler(ctx, t)
            spacing = radial_kepler(ctx, tau) - radial_kepler(ctx, math.nextafter(tau, 0.0))
            assert abs(radial_kepler(ctx, tau) - t) <= spacing, t
        # the horizon costs no evaluation below a quarter of t(top)
        points = []
        orbit_point = propagation._orbit_point
        monkeypatch.setattr(propagation, "_orbit_point",
                            lambda c, tau: points.append(tau) or orbit_point(c, tau))
        invert_kepler(ctx, 1e3)
        assert top not in points

    def test_unbounded_time_near_the_last_float(self, monkeypatch):
        # a few ulps below w_r, t(tau) moves by percents from one float to
        # the next, and no float meets t: the inversion returns whichever of
        # the two floats around t has t nearer, in at most 3 evaluations, 2
        # at t = 1e17, where t at the last float starts the Halley steps.
        # At t = 1e14, 1e15, 1e16, 5e16 and 1e17 it took 12, 7, 27, 28 and
        # 28, bisecting once a Halley step rounded to its own tau, and at
        # 1e15, 1e16 and 1e17 it returned the float whose t was 0.36 %, 6.2 %
        # and 43.7 % off, though the other was 0.53 %, 2.4 % and 12.6 % off;
        # evaluating t at the last float apart from the steps took 3 at 1e17
        ctx = build_context(InitialState(1.0, 1.5, 0.0, 0.02))
        points = []
        orbit_point = propagation._orbit_point
        monkeypatch.setattr(propagation, "_orbit_point",
                            lambda c, tau: points.append(tau) or orbit_point(c, tau))
        for t in (1e13, 1e14, 1e15, 1e16, 5e16, 1e17):
            points.clear()
            tau = invert_kepler(ctx, t)
            assert len(points) <= (2 if t == 1e17 else 3), t
            err = orbit_point(ctx, tau)[0] - t
            other = math.nextafter(tau, math.inf if err < 0.0 else 0.0)
            err_other = orbit_point(ctx, other)[0] - t
            assert err * err_other <= 0.0 and abs(err) <= abs(err_other), t

    def test_context_is_freed_without_the_cycle_collector(self):
        # nothing a context makes on first use refers back to it, so a
        # context is freed as soon as its last reference goes; a Kepler
        # start that held its context left each one to the cycle collector
        # and cost state_scatter 4 % at p50
        enabled = gc.isenabled()
        gc.disable()
        try:
            # S, bounded T', rhombic T' and its fold, rhombic T, H and its fold
            for state in (InitialState(**WORKED), NEAR_ESCAPE_8,
                          InitialState(1.0, 1.2, 0.0, 0.0272223),
                          InitialState(1.1, 1.5, math.radians(30.0), 0.05),
                          InitialState(1.0, 1.5, 0.3, 1e-6)):
                ctx = build_context(state)
                for dt in (0.5, 30.0):
                    propagate_ctx(ctx, dt)
                freed = weakref.ref(ctx)
                del ctx
                assert freed() is None, state
        finally:
            if enabled:
                gc.enable()

    def test_state_evaluates_the_kernel_once_per_point(self, worked_ctx,
                                                       monkeypatch):
        # r, dr/dtau and t of a state take one series evaluation, bounded or
        # not, inside or outside a period, and no kernel call
        unbounded = build_context(InitialState(1.0, 1.2, 0.0, 0.1))
        calls, points = kernel_calls(monkeypatch), []
        orbit_point = propagation._orbit_point

        def counted_point(ctx, tau):
            points.append(tau)
            return orbit_point(ctx, tau)

        monkeypatch.setattr(propagation, "_orbit_point", counted_point)
        w = unbounded.lattice.real_half_period
        for ctx, tau in ((worked_ctx, 1.1), (worked_ctx, 3.0), (worked_ctx, 30.0),
                         (unbounded, 0.1 * w), (unbounded, -0.5 * w), (unbounded, 0.99 * w)):
            points.clear()
            ps = state_at_tau(ctx, tau)
            assert points == [tau]
            assert ps.r == r_of_tau(ctx, tau)
        assert calls == []


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_randomized_against_rk(self, seed):
        for ctx in sample_states(seed=seed, count=5):
            state = ctx.state
            if ctx.bounded:
                t_end = 3.0 * ctx.T_t
                traj = oracle.integrate_ode(state, t_end)
            else:
                traj = oracle.integrate_ode(state, 1e4,
                                            r_escape=10.0 * state.r0)
                t_end = traj.t_end
            assert traj.energy_drift < 1e-9
            assert traj.momentum_drift < 1e-9
            for t in np.linspace(0.02 * t_end, 0.98 * t_end, 12):
                r_ref, th_ref, _, _ = traj.at(t)
                ps = propagate_ctx(ctx, t)
                assert abs(ps.r - r_ref) / r_ref < 1e-7
                assert abs(ps.theta - th_ref) / (1.0 + abs(th_ref)) < 1e-7

    @pytest.mark.parametrize("state", FORMER_DEGENERATE)
    def test_former_degenerate_lattices_against_rk(self, state):
        # one period (a span of 30 for the unbounded state); measured worst
        # 1.3e-10 in r and 3.8e-10 in theta
        state = InitialState(*state)
        ctx = build_context(state)
        span = ctx.T_t if ctx.bounded else 30.0
        traj = oracle.integrate_ode(state, span)
        for t in np.linspace(0.05, 1.0, 8) * span:
            r_ref, th_ref, _, _ = traj.at(t)
            ps = propagate_ctx(ctx, t)
            assert abs(ps.r - r_ref) / r_ref < 1e-9
            assert abs(ps.theta - th_ref) < 1e-8

    @pytest.mark.parametrize("state", LOW_ALPHA)
    def test_low_alpha_against_rk(self, state):
        # the zeta-pair form missed these by 2e-6 to 2e-4
        state = InitialState(*state)
        ctx = build_context(state)
        traj = oracle.integrate_ode(state, 2.0 * ctx.T_t)
        for t in np.linspace(0.1, 1.9, 7) * ctx.T_t:
            r_ref, th_ref, _, _ = traj.at(t)
            ps = propagate_ctx(ctx, t)
            assert abs(ps.r - r_ref) / r_ref < 1e-8
            assert abs(ps.theta - th_ref) / (1.0 + abs(th_ref)) < 1e-8


def first_n(holds):
    """The first n >= 1 with holds(n), by a plain scan."""
    n = 1
    while not holds(n):
        n += 1
    return n


def direct_row(big_q, mu, n, alpha=1.0):
    """[mu^n/(a (1 - Q^n))], each power a repeated product, as a reader without the row formed it."""
    out, m, p = [], 1.0, 1.0
    for _ in range(n):
        m, p = m * mu, p * big_q
        out.append(m / (alpha * (1.0 - p)))
    return out


def assert_within_ulp(got, want):
    assert len(got) <= len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= math.ulp(w), (g, w)


class TestDenominatorRow:
    """Every reader of a lattice's row: coefficients within an ulp of mu^n/(1 - Q^n),
    and each series stopped at the first n that meets its own bound."""

    EPS = 2.0**-53
    STATES = [InitialState(**kw) for kw in (WORKED, TILTED, INBOUND, ROSETTE)] + [
        NEAR_ESCAPE_8,                                      # bounded T'
        InitialState(1.0, 1.2, 0.0, ESCAPE_ALPHA * (1.0 + 1e-8)),   # rhombic T' and its fold
        InitialState(1.0, 1.2, 0.0, 0.0272223),             # rhombic T
        InitialState(1.0, 1.2, 0.0, 0.1),                   # rectangular T
        InitialState(1.0, 1.5, 0.3, 1e-6),                  # k = 1: H and its fold
        InitialState(1.1, 1.5, math.radians(30.0), 0.05),
    ]

    @pytest.fixture(scope="class")
    def contexts(self):
        contexts = [build_context(state) for state in self.STATES]
        contexts += sample_states(seed=31, count=12)
        for ctx in contexts:
            ctx._radial, ctx._theta_series
        return contexts

    def test_nome_series(self, contexts):
        for ctx in contexts:
            series = ctx.lattice.nome_series
            q, big_q = abs(series.nome), series.row.big_q
            want = direct_row(big_q, big_q, len(series.terms) + 1)
            assert_within_ulp([t[2] / 4.0 for t in series.terms], want)
            assert len(series.terms) + 1 == first_n(
                lambda n: 16.0 * n * n * abs(want[n - 1] if n <= len(want) else
                                             direct_row(big_q, big_q, n)[-1])
                <= self.EPS * (1.0 - q))

    def test_theta_coefficients(self, contexts):
        for ctx in contexts:
            lat, theta = ctx.lattice, ctx._theta_series
            if theta.func is propagation._theta_real:
                q, row, (k, slope, sign, e, coeffs) = lat.q, lat.row, theta.args
                spread = 1.0 / abs(e)                       # e^(2 |Im a|)
                a = cmath.log(e) / (2j * sign)
                c = direct_row(row.big_q, row.big_q, len(coeffs) + 40)
                for j, s_j in enumerate(coeffs, 1):
                    want = (4.0 * c[j - 1] * cmath.sin(2 * j * a)).imag / j
                    assert abs(s_j - want) <= 1e-13 * 4.0 * abs(c[j - 1]) * spread**j / j
                bound = lambda n: 4.0 * abs(c[n - 1]) * spread**n / n <= self.EPS * (1.0 - q)
            else:
                q, row, coeffs = lat.q_t, lat.row_t, theta.args[1][3]
                c = direct_row(row.big_q, row.big_q, len(coeffs) + 40)
                bound = lambda n: 4.0 * abs(c[n - 1]) * q**-n / n <= self.EPS * (1.0 - q)
            assert len(coeffs) + 1 == first_n(bound), ctx.state

    def test_radial_tables(self, contexts):
        seen = set()
        for ctx in contexts:
            lat, alpha = ctx.lattice, ctx.state.alpha
            switch, below, above = ctx._radial[:3]
            folded = above.func is propagation._fold_point
            for form in (below, above):
                if form is None:
                    continue
                fold = form.func is propagation._fold_point
                if fold:
                    form = form.args[-1]
                _, k, lam, pole, w_r, table = form.args
                big_q = lat.row_t.big_q if lam else lat.row.big_q
                if not lam and not pole:                    # S
                    mu, rho = (lat.q if ctx.k == 3 else -lat.q), lat.q
                    weight = lambda n, c: n**3 * abs(c) / rho
                elif not lam:                               # T
                    mu = rho = -big_q
                    rho, c = abs(big_q), math.tan(k * (w_r - switch))
                    weight = lambda n, g: 16.0 * n * min(n * n, c + c * c) * abs(g)
                elif pole:                                  # T'
                    mu, rho = 1.0, math.sqrt(abs(big_q))
                    weight = lambda n, g: 16.0 * n**3 * rho**n * abs(g)
                elif folded:                                # H up to w_r/2
                    mu, rho = 1.0, math.sqrt(lat.q_t)
                    weight = lambda n, g: n**3 * rho ** (n - 1) * abs(g)
                else:                                       # H below the switch
                    depth = max(1.0, math.pi * lat.periods.omega_prime.imag / w_r) \
                        if ctx.bounded else 1.0
                    mu, rho = 1.0, math.exp(-depth)
                    weight = lambda n, g: n * n * math.exp(depth * (1 - n))
                seen.add((bool(lam), bool(pole), fold))
                want = direct_row(big_q, mu, len(table) + 60, alpha)
                assert_within_ulp([row[2] for row in table], want)

                def holds(n):
                    r = ((n + 1) / n) ** 3 * rho
                    return r < 1.0 and weight(n, want[n - 1] * alpha) <= self.EPS * (1.0 - r)
                assert len(table) + 1 == first_n(holds), ctx.state
        assert len(seen) == 6

    def test_kepler_start_reads_s(self, contexts):
        for ctx in contexts:
            start = ctx._radial[3]
            if start.func is propagation._kepler_start:
                for got, want in zip(start.args[0], s_harmonics(ctx)):
                    assert abs(got - want) <= 4.0 * math.ulp(want)
