import contextlib
import math
import signal
from unittest import mock

import numpy as np
import pytest

from radialorbit import analysis, propagation, weierstrass
from radialorbit.dynamics import InitialState
from radialorbit.errors import RadialOrbitError

# The worked bounded example used as an anchor throughout: a pericenter
# start r_p = 1, v_p = 1.2, alpha = 0.02, giving E = -0.3, h = 1.2,
# g2 = 0.01, g3 = 0.000144 and f-roots {1, 7 - sqrt(13), 7 + sqrt(13)}.
WORKED = dict(r0=1.0, v0=1.2, gamma0=0.0, alpha=0.02)

# Closed 10-petal orbit family: pericenter r = 1, alpha = -0.05, with the
# speed tuned so the angle advance per radial period is 2 pi * 9/10.  The
# speed is pinned by perfbench and the CLI goldens; it lies 8.0e-14 from
# the closing speed of an mpmath reference, and
# analysis.find_periodic_v(1.0, -0.05, (9, 10), (1.25, 1.27)) returns the
# speed 1.2601352426205188, within 4.6e-16 of it.  Rounded to 1.26014
# the speed misses the advance by 1.07e-5.
ROSETTE = dict(r0=1.0, v0=1.2601352426205996, gamma0=0.0, alpha=-0.05)

# An off-apse start: r0 = 1.3, v0 = 1, flight-path angle 25 degrees.
TILTED = dict(r0=1.3, v0=1.0, gamma0=math.radians(25.0), alpha=0.02)

# An inbound epoch in a confining field (alpha < 0), as in the CLI goldens.
INBOUND = dict(r0=1.5, v0=0.9, gamma0=math.radians(-40.0), alpha=-0.03)

# Valid states (r0, v0, gamma0, alpha) whose lattices the Legendre gate
# rejected while eta and eta' came from the Laurent kernel, which misses
# them by up to 3e-10 on such elongated cells: the 11 ops of the
# benchmark's state_scatter workload (seed 1) that raised
# DegenerateLatticeError.  Six generic low-|alpha| states, four
# near-circular ones and one unbounded state on a rectangular lattice.
FORMER_DEGENERATE = [
    (2.434760613931593, 0.7029512544899879, -0.18881908840145467, -2.3098609715209972e-08),
    (1.4571908751331857, 0.8040462831768894, 0.8645018743027925, 5.731344860499385e-08),
    (1.8423873704093694, 0.7468507541351906, -0.3887209684715492, -7.381211541287273e-08),
    (2.3843940669034898, 0.6539996133569167, 0.5267836809282777, -2.1366721847876065e-08),
    (1.665773006031094, 0.956917227801671, -0.02672854778529778, 6.9825613431659086e-09),
    (1.0326024160581744, 0.9154000604594033, -0.06020358555030591, 2.9178732458526814e-07),
    (2.0564218201408266, 0.6976554115799691, 6.133697182864231e-06, -0.00020448886490636412),
    (1.649335860257966, 0.7790549021508132, 8.323285056082786e-05, -0.0003770512157542604),
    (2.48817692588625, 0.6360462591046082, 1.8903158193369315e-05, -0.0010667071120920284),
    (1.1155884479779221, 0.9467382872010618, -0.0006350338239889057, 5.812345935332118e-05),
    (1.1145401014789063, 1.5862729441050805, 0.0065459891049633925, 2.4236447667058404e-08),
]


@pytest.fixture(scope="session")
def worked_state():
    return InitialState(**WORKED)


@pytest.fixture(scope="session")
def worked_ctx(worked_state):
    return propagation.build_context(worked_state)


@pytest.fixture(scope="session")
def rosette_state():
    return InitialState(**ROSETTE)


@pytest.fixture(scope="session")
def rosette_ctx(rosette_state):
    return propagation.build_context(rosette_state)


def sample_states(seed, count, bounded=None, g3_sign=None, max_t_tau=80.0):
    """Deterministic stream of valid random instances.

    Filters: |alpha| in [0.01, 0.2], h >= 0.3, boundedness margin well away
    from the homoclinic boundary, and (for bounded ones) a pseudo-period
    small enough to keep oracle integrations cheap.
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 40000:
            raise RuntimeError("instance sampler exhausted")
        r0 = rng.uniform(0.6, 2.2)
        v0 = rng.uniform(0.4, 1.5)
        gamma0 = rng.uniform(-1.1, 1.1)
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.2)
        state = InitialState(r0, v0, gamma0, alpha)
        if state.momentum < 0.3:
            continue
        _, g3 = propagation.invariants_from_conserved(
            alpha, state.energy, state.momentum
        )
        if g3_sign is not None and g3 * g3_sign <= 0.0:
            continue
        try:
            rep = analysis.boundedness_from_state(state)
        except RadialOrbitError:
            continue
        if abs(rep.margin) < 1e-4:
            continue
        if bounded is not None and rep.bounded != bounded:
            continue
        try:
            ctx = propagation.build_context(state)
        except RadialOrbitError:
            continue
        if ctx.bounded and (ctx.T_tau > max_t_tau or ctx.T_t > 500.0):
            continue
        if ctx.bounded and ctx.f.df(ctx.r_m) < 1e-3:
            continue  # nearly circular librations make poor oracle targets
        out.append(ctx)
    return out


def real_axis_stop(series):
    """The stop of ``NomeSeries.at``, which sums n = 1, ..., stop - 1, seen in one call."""
    seen = []
    evaluate = weierstrass.NomeSeries._evaluate

    def spy(self, *args):
        seen.append(args[-1])
        return evaluate(self, *args)

    with mock.patch.object(weierstrass.NomeSeries, "_evaluate", spy):
        series.at(0.25 * math.pi / series.k)
    return seen[0]


def wrap_angle(x):
    """Fold an angle difference into (-pi, pi]."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
