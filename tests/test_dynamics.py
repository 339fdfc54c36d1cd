import math

import numpy as np
import pytest

from oracle import circular_start_roots, real_roots_desc
from radialorbit.dynamics import (
    InitialState,
    MotionTag,
    build_f,
    classify_region,
    pericenter,
)
from radialorbit.errors import (
    InfeasibleStateError,
    NoPericenterError,
    QuadraticDegeneracyError,
)

SQRT13 = math.sqrt(13.0)


class TestConserved:
    def test_circular_kepler(self):
        state = InitialState(1.0, 1.0, 0.0, 0.0)
        assert state.energy == pytest.approx(-0.5, abs=1e-15)
        assert state.momentum == pytest.approx(1.0, abs=1e-15)

    def test_worked_instance(self):
        state = InitialState(1.0, 1.2, 0.0, 0.02)
        assert state.energy == pytest.approx(-0.3, abs=1e-15)
        assert state.momentum == pytest.approx(1.2, abs=1e-15)

    def test_rosette_instance(self):
        state = InitialState(1.0, 1.26014, 0.0, -0.05)
        assert state.energy == pytest.approx(0.5 * 1.26014**2 - 0.95, abs=1e-15)
        assert state.momentum == pytest.approx(1.26014, abs=1e-15)

    def test_gamma_reduces_momentum(self):
        state = InitialState(2.0, 1.0, math.pi / 3.0, 0.01)
        assert state.momentum == pytest.approx(2.0 * math.cos(math.pi / 3.0),
                                               rel=1e-15, abs=0.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            InitialState(-1.0, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            InitialState(1.0, -0.5, 0.0, 0.1)
        with pytest.raises(ValueError):
            InitialState(1.0, 1.0, 2.0, 0.1)


class TestBuildF:
    def test_homoclinic_double_root_at_two(self):
        f = build_f(InitialState(1.0, 1.0, 0.0, 0.125))
        # an apse start: the pair solves 0.25 x^2 - 0.5 x + 0.25 = 0 exactly
        assert f.roots[0] == f.roots[1] == 2.0
        roots = real_roots_desc(f)
        assert roots[0] == pytest.approx(2.0, abs=1e-10)
        assert roots[1] == pytest.approx(2.0, abs=1e-10)
        assert roots[2] == pytest.approx(1.0, abs=1e-10)

    def test_worked_roots_closed_form(self):
        f = build_f(InitialState(1.0, 1.2, 0.0, 0.02))
        assert real_roots_desc(f) == pytest.approx(
            [7.0 + SQRT13, 7.0 - SQRT13, 1.0], abs=1e-10
        )

    def test_circular_start_root_formulas(self):
        # gamma = 0 and r0 v0^2 = 1: rho1 = r0, rho23 = (1 -/+ s)/(4 a r0)
        for r0, alpha in [(1.0, 0.02), (1.7, 0.03), (0.8, -0.11)]:
            v0 = 1.0 / math.sqrt(r0)
            f = build_f(InitialState(r0, v0, 0.0, alpha))
            rho = sorted(circular_start_roots(r0, alpha))
            got = sorted(z.real for z in f.roots)
            assert got == pytest.approx(rho, rel=1e-10)
            # Vieta on the companion pair: sum and product in closed form
            r2, r3 = [x for x in rho if abs(x - r0) > 1e-12] or rho[1:]
            assert r2 + r3 == pytest.approx(1.0 / (2.0 * alpha * r0), rel=1e-10)
            assert r2 * r3 == pytest.approx(
                f.momentum**2 / (2.0 * alpha * r0), rel=1e-10
            )

    def test_homoclinic_companion_roots_coincide(self):
        r0 = 1.4
        alpha = 1.0 / (8.0 * r0 * r0)
        _, rho2, rho3 = circular_start_roots(r0, alpha)
        assert rho2 == pytest.approx(2.0 * r0, rel=1e-12)
        assert rho3 == pytest.approx(2.0 * r0, rel=1e-12)

    def test_alpha_zero_degenerates(self):
        with pytest.raises(QuadraticDegeneracyError):
            build_f(InitialState(1.0, 1.0, 0.0, 0.0))

    def test_vieta_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            state = InitialState(
                rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.6),
                rng.uniform(-1.4, 1.4),
                rng.choice([-1, 1]) * rng.uniform(0.005, 0.25),
            )
            f = build_f(state)
            e1, e2, e3 = f.roots
            a, e, h = state.alpha, state.energy, state.momentum
            scale = max(1.0, max(abs(z) for z in f.roots))
            assert abs(e1 + e2 + e3 - (-e / a)) <= 1e-10 * scale * max(1.0, abs(e / a))
            assert abs(e1 * e2 + e1 * e3 + e2 * e3 - 1.0 / a) <= \
                1e-10 * scale**2 * max(1.0, abs(1.0 / a))
            assert abs(e1 * e2 * e3 - h * h / (2.0 * a)) <= \
                1e-10 * scale**3 * max(1.0, abs(h * h / (2.0 * a)))
            # f(r0) = (r0 rdot0)^2 >= 0 always holds for real states
            assert f(state.r0) >= -1e-12 * scale**3


class TestClassify:
    def test_inward_acceleration_always_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = InitialState(
                rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.6),
                rng.uniform(-1.4, 1.4), -rng.uniform(0.005, 0.25),
            )
            f = build_f(state)
            region = classify_region(f, state.r0)
            assert region.bounded
            assert region.tag is MotionTag.BOUNDED_ANNULUS
            # Descartes: exactly two positive real roots for alpha < 0
            pos = [r for r in real_roots_desc(f) if r > 0.0]
            assert len(pos) == 2

    def test_circular_below_classical_threshold_bounded(self):
        f = build_f(InitialState(1.0, 1.0, 0.0, 0.1))
        region = classify_region(f, 1.0)
        assert region.bounded
        assert region.tag is MotionTag.BOUNDED_BELOW_GAP

    def test_circular_above_classical_threshold_unbounded(self):
        f = build_f(InitialState(1.0, 1.0, 0.0, 0.2))
        region = classify_region(f, 1.0)
        assert not region.bounded
        assert region.tag is MotionTag.UNBOUNDED_ABOVE

    def test_negative_discriminant_single_component(self):
        state = InitialState(1.0, 1.2, 0.0, 0.1)
        f = build_f(state)
        assert f.roots[0].imag > 0.0 and f.roots[1].imag == 0.0
        region = classify_region(f, 1.0)
        assert region.tag is MotionTag.UNBOUNDED_ABOVE
        assert region.r_lo == pytest.approx(1.0, abs=1e-10)

    def test_outer_component_of_three_root_case(self):
        f = build_f(InitialState(1.0, 1.2, 0.0, 0.02))
        region = classify_region(f, 12.0)
        assert region.tag is MotionTag.UNBOUNDED_ABOVE
        assert region.r_lo == pytest.approx(7.0 + SQRT13, rel=1e-12)

    def test_forbidden_gap_raises(self):
        f = build_f(InitialState(1.0, 1.2, 0.0, 0.02))
        with pytest.raises(InfeasibleStateError):
            classify_region(f, 5.0)  # between apocenter 3.394 and 10.606

    def test_sign_scan_brute_force_agreement(self):
        rng = np.random.default_rng(2024)
        grid = np.geomspace(1e-3, 1e3, 240)
        checked = 0
        while checked < 10000:
            state = InitialState(
                rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.6),
                rng.uniform(-1.4, 1.4),
                rng.choice([-1, 1]) * rng.uniform(0.005, 0.25),
            )
            f = build_f(state)
            region = classify_region(f, state.r0)
            fx = np.polyval(f.coefficients, grid)
            inside = (grid >= region.r_lo) & (grid <= region.r_hi)
            # strictly inside the component f must be positive; the scan
            # grid avoids the measure-zero endpoints
            assert np.all(fx[inside] > -1e-9 * np.max(np.abs(fx)))
            # points of the same connected component must not be excluded:
            # walk the grid from r0 while f > 0
            checked += 1


class TestPericenter:
    def test_identity_at_pericenter_start(self):
        f = build_f(InitialState(1.0, 1.2, 0.0, 0.02))
        r_m, v_m = pericenter(f, classify_region(f, 1.0), 1.0)
        assert r_m == pytest.approx(1.0, abs=1e-12)
        assert v_m == pytest.approx(1.2, abs=1e-12)

    def test_worked_instance_from_r0_above(self):
        f = build_f(InitialState(1.0, 1.2, 0.0, 0.02))
        r_m, v_m = pericenter(f, classify_region(f, 1.1), 1.1)
        assert r_m == pytest.approx(1.0, abs=1e-10)
        assert v_m == pytest.approx(1.2, abs=1e-10)

    def test_rosette_instance(self):
        f = build_f(InitialState(1.0, 1.26014, 0.0, -0.05))
        r_m, v_m = pericenter(f, classify_region(f, 1.0), 1.0)
        assert r_m == pytest.approx(1.0, abs=1e-12)
        assert v_m == pytest.approx(1.26014, abs=1e-12)

    def test_h_zero_rejected(self):
        f = build_f(InitialState(1.0, 1.0, math.pi / 2.0, -0.05))
        with pytest.raises(NoPericenterError):
            pericenter(f, classify_region(f, 1.0), 1.0)
