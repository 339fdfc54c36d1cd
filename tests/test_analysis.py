import math
import random

import pytest

import oracle
from radialorbit import analysis, dynamics, propagation
from radialorbit.dynamics import InitialState, build_f
from radialorbit.errors import UnboundedMotionError

from conftest import sample_states

UNBOUNDED = InitialState(1.0, 1.2, 0.0, 0.1)


def bounded_contexts(worked_ctx, rosette_ctx):
    return [worked_ctx, rosette_ctx,
            *sample_states(seed=31, count=4, bounded=True)]


class TestPeriods:
    def test_pseudo_period_is_the_k_form(self, worked_ctx, rosette_ctx):
        # T_tau = 2 K(m) / sqrt(e1 - e3), m = (e2 - e3)/(e1 - e3) (A&S 18.9)
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            e1, e2, e3 = (z.real for z in ctx.lattice.roots.e_tilde)
            m = (e2 - e3) / (e1 - e3)
            k_form = 2.0 * oracle.elliptic_K(m) / math.sqrt(e1 - e3)
            assert ctx.T_tau == pytest.approx(k_form, rel=1e-14, abs=0.0)

    def test_true_period_against_quadrature(self, worked_ctx, rosette_ctx):
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            ref = 2.0 * oracle.quadrature_tof(ctx.state, ctx.region.r_lo,
                                              ctx.region.r_hi)
            assert ctx.T_t == pytest.approx(ref, rel=1e-9)

    def test_true_period_against_implicit(self, worked_ctx, rosette_ctx):
        # -(4 eta + 2 E omega/3)/a, the quadrature of r dtau over a period,
        # shares no evaluation with T_t's closed form beyond eta and omega
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            implicit = analysis.true_period_implicit(ctx)
            assert ctx.T_t == pytest.approx(implicit, rel=1e-12)
            ref = 2.0 * oracle.quadrature_tof(ctx.state, ctx.region.r_lo,
                                              ctx.region.r_hi)
            assert implicit == pytest.approx(ref, rel=1e-9)

    def test_true_period_is_kepler_time_of_pseudo_period(self, worked_ctx,
                                                        rosette_ctx):
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            assert ctx.T_t == pytest.approx(
                propagation.radial_kepler(ctx, ctx.T_tau), rel=1e-12)

    def test_zero_e_k_state(self):
        # E = -3 alpha r_m puts e_k = f''(r_m)/24 at 0, where the paper's
        # coefficient e_k f'(r_m) / (2 g3 + 16 e_k^3) of t(tau) is 0/0; the
        # code's 1/alpha is not
        state = InitialState(1.0, math.sqrt(2.2), 0.0, -0.05)
        ctx = propagation.build_context(state)
        assert abs(ctx.e_k) < 1e-15
        ref = 2.0 * oracle.quadrature_tof(state, ctx.region.r_lo,
                                          ctx.region.r_hi)
        assert ctx.T_t == pytest.approx(ref, rel=1e-12)
        assert ctx.T_t == pytest.approx(
            propagation.radial_kepler(ctx, ctx.T_tau), rel=1e-12)
        # on the outbound and inbound halves
        for share in (0.3, 0.45, 0.6, 0.8, 0.95):
            tau = share * ctx.T_tau
            flight = oracle.quadrature_tof(state, ctx.r_m,
                                           propagation.r_of_tau(ctx, tau))
            want = flight if share < 0.5 else ctx.T_t - flight
            assert propagation.radial_kepler(ctx, tau) == pytest.approx(
                want, rel=1e-12)

    def test_unbounded_has_no_period(self):
        ctx = propagation.build_context(UNBOUNDED)
        assert ctx.T_tau is None and ctx.T_t is None
        with pytest.raises(UnboundedMotionError):
            analysis.true_period_implicit(ctx)


# (r0, v0) of apse starts: mid-speed 2/3 <= u <= 2 (the first is WORKED),
# low-speed u < 2/3 and high-speed u > 2
APSE_STARTS = [(1.0, 1.2), (1.0, 0.9), (0.7, 1.5), (1.0, 0.7), (1.0, 0.5),
               (2.0, 0.5), (1.0, 1.5)]


def bounded_at(r0, v0, gamma0, alpha):
    state = InitialState(r0, v0, gamma0, alpha)
    return dynamics.classify_region(dynamics.build_f(state), r0).bounded


class TestEscapeAlpha:
    def test_matches_closed_form_threshold(self):
        # apse starts (r0, v0) in all three regimes of u = r0 v0^2; the
        # low-speed ones take the (1 - u)/r0^2 branch of the threshold
        regimes = set()
        for r0, v0 in APSE_STARTS:
            regime, want = oracle.pericenter_start_conditions(r0, v0)
            regimes.add(regime)
            lo, hi = (0.5 * want, 1.5 * want) if want > 0.0 else (-0.01, 0.01)
            got = analysis.escape_alpha(r0, v0, 0.0, lo, hi)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), (r0, v0, regime)
        assert regimes == {"low-speed", "mid-speed", "high-speed"}

    def test_off_apse_family_matches_the_discriminant(self):
        # TILTED's family (r0 = 1.3, v0 = 1, gamma0 = 25 deg): boundedness
        # is lost where the discriminant of f, a cubic in alpha, changes sign
        mp = pytest.importorskip("mpmath")
        r0, v0, gamma0 = 1.3, 1.0, math.radians(25.0)
        with mp.workdps(40):
            h = mp.mpf(r0) * v0 * mp.cos(gamma0)

            def disc(a):
                energy = mp.mpf(v0) ** 2 / 2 - 1 / mp.mpf(r0) - a * r0
                b, d = 2 * energy, -h * h
                return (18 * 2 * a * b * 2 * d - 4 * b**3 * d + 4 * b**2
                        - 4 * 2 * a * 8 - 27 * 4 * a * a * d * d)

            want = mp.findroot(disc, (mp.mpf("0.02"), mp.mpf("0.08")),
                               solver="anderson")
        got = analysis.escape_alpha(r0, v0, gamma0, 0.02, 0.08)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r0, v0", [(2.0, 1.0), (0.5, 2.0)])
    def test_parabolic_apse_start_escapes_at_zero(self, r0, v0):
        # u = r0 v0^2 = 2 exactly: E = 0 at alpha = 0, f's cubic in the
        # merge offset drops to a quadratic, and any outward thrust escapes
        assert r0 * v0 * v0 == 2.0
        assert analysis.escape_alpha(r0, v0, 0.0, -0.01, 0.01) == 0.0

    @pytest.mark.parametrize("r0, v0, lo, hi", [
        (1.0, 0.7, 0.3, 0.7),     # low-speed: the flip is (1 - u)/r0^2
        (1.0, 0.9, 0.1, 0.3),     # mid-speed: r0's merge at (1 - u)/r0^2 keeps it bounded
    ])
    def test_bracket_holding_both_apse_candidates(self, r0, v0, lo, hi):
        u = r0 * v0 * v0
        candidates = ((1.0 - u) / r0**2, (2.0 - u) ** 2 / (8.0 * r0**3 * v0**2))
        assert all(lo < a < hi for a in candidates)
        got = analysis.escape_alpha(r0, v0, 0.0, lo, hi)
        assert got == pytest.approx(oracle.pericenter_start_conditions(r0, v0)[1],
                                    rel=1e-15, abs=0.0)
        assert bounded_at(r0, v0, 0.0, got * (1.0 - 1e-9))
        assert not bounded_at(r0, v0, 0.0, got * (1.0 + 1e-9))

    def test_seeded_off_apse_families_flip_at_the_threshold(self):
        rng = random.Random(13)
        escaping = 0
        for _ in range(200):
            r0, v0 = rng.uniform(0.5, 2.5), rng.uniform(0.3, 1.6)
            gamma0 = rng.uniform(-1.4, 1.4)
            got = analysis.escape_alpha(r0, v0, gamma0, -1.0, 100.0)
            escaping += got == 0.0
            step = 1e-9 * max(1.0, abs(got))
            assert bounded_at(r0, v0, gamma0, got - step), (r0, v0, gamma0)
            assert not bounded_at(r0, v0, gamma0, got + step), (r0, v0, gamma0)
        assert 0 < escaping < 200      # both E >= 0 and E < 0 at alpha = 0

    @pytest.mark.parametrize("family, lo, hi", [
        ((1.0, 1.2, 0.0), 0.01, 0.05),
        ((1.0, 0.7, 0.0), 0.3, 0.7),
        ((1.3, 1.0, math.radians(25.0)), 0.02, 0.08),
        ((1.4734618297053863, 1.2119748394999497, math.radians(-57.62033099214291)),
         -0.2, 1.5),
    ])
    def test_few_cubics_built(self, family, lo, hi, monkeypatch):
        built = []

        def counted(state):
            built.append(state)
            return build_f(state)

        monkeypatch.setattr(dynamics, "build_f", counted)
        analysis.escape_alpha(*family, lo, hi)
        assert len(built) <= 4


# (r_m, alpha, (M, N), bracket, closing winding ratio): the ROSETTE and
# WORKED anchors, an inward-thrust family whose ratio falls with v_m and
# an outward-thrust one whose ratio rises.
PERIODIC_FAMILIES = {
    "rosette": (1.0, -0.05, (9, 10), (1.25, 1.27), 0.9),
    "worked": (1.0, 0.02, (1, 10), (1.15, 1.22), 1.1),
    "inward": (1.2, -0.01, (39, 40), (1.0, 1.08), 0.975),
    "outward": (0.8, 0.05, (1, 8), (1.2, 1.3), 1.125),
}


class TestFindPeriodic:
    @pytest.mark.parametrize("family", sorted(PERIODIC_FAMILIES))
    def test_closes_the_orbit_in_few_contexts(self, family, monkeypatch):
        r_m, alpha, q, bracket, winding = PERIODIC_FAMILIES[family]
        built = []

        class Counted(propagation.SolutionContext):
            def __init__(self, state):
                built.append(self)
                super().__init__(state)

        monkeypatch.setattr(analysis, "SolutionContext", Counted)
        v_m, ctx = analysis.find_periodic_v(r_m, alpha, q, bracket)
        assert len(built) <= 10
        assert bracket[0] < v_m < bracket[1]
        assert abs(ctx.dtheta_period / (2.0 * math.pi) - winding) <= 1e-13
        # the returned context is the last evaluation's, and equals the one
        # built afresh at v_m bit for bit
        assert ctx is built[-1]
        fresh = propagation.build_context(InitialState(r_m, v_m, 0.0, alpha))
        assert ctx.state == fresh.state
        assert (ctx.dtheta_period, ctx.T_tau, ctx.T_t) == (
            fresh.dtheta_period, fresh.T_tau, fresh.T_t)
        # the first two evaluations are the bracket ends, on the same route
        # as the context's angle advance
        for evaluated in built[:2]:
            assert evaluated.state.v0 in bracket
            assert (evaluated.dtheta_period
                    == propagation.build_context(evaluated.state).dtheta_period)
