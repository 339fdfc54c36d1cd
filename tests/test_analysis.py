import math

import pytest

import oracle
from radialorbit import analysis, propagation
from radialorbit.dynamics import InitialState
from radialorbit.elliptic import elliptic_K
from radialorbit.errors import UnboundedMotionError

from conftest import deadline, sample_states

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
            k_form = 2.0 * elliptic_K(m) / math.sqrt(e1 - e3)
            assert analysis.pseudo_period(ctx) == pytest.approx(k_form,
                                                               rel=1e-14)

    def test_true_period_against_quadrature(self, worked_ctx, rosette_ctx):
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            ref = 2.0 * oracle.quadrature_tof(ctx.state, ctx.region.r_lo,
                                              ctx.region.r_hi)
            assert analysis.true_period(ctx) == pytest.approx(ref, rel=1e-9)

    def test_true_period_against_implicit(self, worked_ctx, rosette_ctx):
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            implicit = 2.0 * propagation.time_of_flight_implicit(
                ctx, ctx.region.r_lo, ctx.region.r_hi, ascending=True)
            assert analysis.true_period(ctx) == pytest.approx(implicit,
                                                             rel=1e-12)
            assert analysis.true_period_implicit(ctx) == implicit

    def test_true_period_is_kepler_time_of_pseudo_period(self, worked_ctx,
                                                        rosette_ctx):
        for ctx in bounded_contexts(worked_ctx, rosette_ctx):
            assert analysis.true_period(ctx) == pytest.approx(
                propagation.radial_kepler(ctx, ctx.T_tau), rel=1e-12)

    def test_affine_route_period(self):
        # E = -3 alpha r_m puts e_k at 0, where the pericenter coefficient
        # e_k f'(r_m) / (2 g3 + 16 e_k^3) is 0/0 and T_t takes the affine form
        state = InitialState(1.0, math.sqrt(2.2), 0.0, -0.05)
        ctx = propagation.build_context(state)
        assert math.isnan(ctx.kepler_coeff)
        ref = 2.0 * oracle.quadrature_tof(state, ctx.region.r_lo,
                                          ctx.region.r_hi)
        assert analysis.true_period(ctx) == pytest.approx(ref, rel=1e-9)
        assert analysis.true_period(ctx) == pytest.approx(
            propagation.radial_kepler(ctx, ctx.T_tau), rel=1e-12)

    def test_period_info_holds_context_values(self, worked_ctx):
        info = analysis.period_info(worked_ctx)
        assert (info.T_tau, info.T_t) == (worked_ctx.T_tau, worked_ctx.T_t)

    def test_unbounded_has_no_period(self):
        ctx = propagation.build_context(UNBOUNDED)
        for fn in (analysis.pseudo_period, analysis.true_period,
                   analysis.period_info, analysis.true_period_implicit):
            with pytest.raises(UnboundedMotionError):
                fn(ctx)


class TestEscapeAlpha:
    @staticmethod
    def family(alpha):
        return InitialState(1.0, 1.2, 0.0, alpha)

    def test_matches_closed_form_threshold(self):
        # apse start with u = r0 v0^2 = 1.44: alpha* = (2 - u)^2 / (8 u)
        got = analysis.escape_alpha(self.family, 0.01, 0.05)
        assert got == pytest.approx((2.0 - 1.44) ** 2 / (8.0 * 1.44),
                                    abs=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_non_positive_tol_rejected(self, tol):
        with deadline(5.0), pytest.raises(ValueError):
            analysis.escape_alpha(self.family, 0.01, 0.05, tol=tol)


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

        def counted(state):
            built.append(state)
            return propagation.build_context(state)

        monkeypatch.setattr(analysis, "build_context", counted)
        v_m = analysis.find_periodic_v(r_m, alpha, q, bracket)
        assert len(built) <= 10
        assert bracket[0] < v_m < bracket[1]
        ctx = propagation.build_context(InitialState(r_m, v_m, 0.0, alpha))
        assert abs(ctx.dtheta_period / (2.0 * math.pi) - winding) <= 1e-13
