"""The benchmark's three seeded workloads.

Each workload turns a seed into a fixed list of ops.  The first few ops
are anchors, the same for every seed; the rest come from a fixed
stratified design that the seed jitters (see ``_strata``), so that a
different seed changes the inputs but hardly the mix.  ``run(op)`` is the timed call
into the program through its public entry points only; it returns the
program's output or raises.  ``check(op, output, acc)`` compares that
output with the mpmath reference, outside any timed region, and returns
whether it is within tolerance.

Accuracy is recorded twice: over the anchors, which gives the
deterministic end-to-end ``err_*`` metrics, and over the seeded ops,
which the trace reports.  An output beyond tolerance makes a seeded op
count as failed; on an anchor it makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from dataclasses import dataclass, field

import mpmath as mp

import reference
from radialorbit import cli, propagation
from radialorbit.dynamics import InitialState

# Full-precision 9/10 closing speed of the rosette family (r_m = 1,
# alpha = -0.05); the 5-digit 1.26014 misses the closure by 1.1e-5.
V_ROSETTE = 1.2601352426205996

TOL = {"r": 1e-6, "theta": 1e-6, "time": 1e-6}   # r, time relative; theta in rad


class OpFailed(Exception):
    """The program reported an error through the CLI's exit code."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


@dataclass
class Op:
    label: str
    anchor: bool
    state: tuple                # (r0, v0, gamma0 in rad, alpha) the op starts from
    args: tuple
    ref: object = None          # reference data prepared by the generator


@dataclass
class Accuracy:
    """Largest errors against the reference, split into anchors and seeded ops."""

    anchor: dict = field(default_factory=lambda: dict.fromkeys(TOL, 0.0))
    seeded: dict = field(default_factory=lambda: dict.fromkeys(TOL, 0.0))
    checked: int = 0

    def add(self, kind: str, err, anchor: bool) -> bool:
        err = float(err)
        book = self.anchor if anchor else self.seeded
        self.checked += 1
        if not math.isfinite(err):
            book[kind] = math.inf
            return False
        book[kind] = max(book[kind], err)
        return err <= TOL[kind]


def _rel(x, ref):
    return abs(mp.mpf(x) - ref) / abs(ref)


def _strata(name: str, rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points in [0, 1)^dims with each dimension cut into n strata.

    Which stratum index k occupies in each dimension is a fixed design
    (drawn from the workload's name, not the seed); the seed only moves
    each point inside its strata.  So every seed gives new inputs with
    nearly the same mix, and the figures compare across seeds.
    """
    design = random.Random(f"{name}:design")
    cells = []
    for _ in range(dims):
        order = list(range(n))
        design.shuffle(order)
        cells.append(order)
    return [[(cells[d][k] + rng.random()) / n for d in range(dims)] for k in range(n)]


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        try:
            kind = json.loads(err.getvalue().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError):
            kind = f"exit{code}"
        raise OpFailed(kind)
    return out.getvalue()


def _state_args(r0: float, v0: float, gamma_deg: float, alpha: float) -> list[str]:
    return ["--r0", repr(r0), "--v0", repr(v0), "--gamma0-deg", repr(gamma_deg),
            "--alpha", repr(alpha)]


def _kepler_state(a: float, e: float, nu_deg: float) -> tuple[float, float, float]:
    """(r0, v0, gamma0 in degrees) on the Kepler ellipse (a, e) at true anomaly nu."""
    nu = math.radians(nu_deg)
    r0 = a * (1.0 - e * e) / (1.0 + e * math.cos(nu))
    v0 = math.sqrt(2.0 / r0 - 1.0 / a)
    return r0, v0, math.degrees(math.atan2(e * math.sin(nu), 1.0 + e * math.cos(nu)))


# -- dense_orbit ------------------------------------------------------------

class DenseOrbit:
    """Bounded orbits, each one CLI ``propagate --format json`` over ~20 periods.

    op = one CLI command producing SAMPLES samples.  The context is built
    once per orbit, so per-sample work (Kepler inversion, theta, kernel)
    dominates.
    """

    name = "dense_orbit"
    tail_pct = 75
    SAMPLES = 40
    PERIODS = 20
    SEEDED = 36
    LOW_THRUST = 12         # seeded orbits with |alpha| in [5e-4, 2e-3]; the rest [0.01, 0.05]
    CHECK_EVERY = 13        # sample stride checked against the reference
    ANCHORS = (
        ("WORKED", 1.0, 1.2, 0.0, 0.02),
        ("ROSETTE", 1.0, V_ROSETTE, 0.0, -0.05),
        ("TILTED", 1.3, 1.0, 25.0, 0.02),
        ("INBOUND", 1.3, 1.0, -40.0, -0.03),
    )

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = [self._op(label, True, *state) for label, *state in self.ANCHORS]
        # Kepler elements with a perturbing alpha; the eccentricity sets the
        # per-sample cost (theta unwrapping), so it is stratified too.  Two
        # thrust levels, kept a decade apart: below |alpha| ~ 5e-3 a sample
        # costs about twice as much, and a mix straddling that jump would
        # put the median latency on it.
        for k, (ua, ue, unu, ual) in enumerate(_strata(self.name, rng, self.SEEDED, 4)):
            a, e, nu = 0.8 + ua, 0.05 + 0.55 * ue, -180.0 + 360.0 * unu
            la = -3.3 + 0.6 * ual if k < self.LOW_THRUST else -2.0 + 0.7 * ual
            alpha = (1.0 if k % 2 else -1.0) * 10.0**la
            for _ in range(60):
                op = self._op(f"orbit{k}", False, *_kepler_state(a, e, nu), alpha)
                if op is not None:
                    break
                alpha *= 0.7        # weaker thrust until the orbit is plainly bounded
            else:
                raise RuntimeError("dense_orbit generator found no bounded orbit")
            self.ops.append(op)

    def _op(self, label, anchor, r0, v0, gdeg, alpha):
        orbit = reference.Orbit(r0, v0, math.radians(gdeg), alpha)
        if not orbit.bounded or orbit.near_escape or orbit.T_t > 150:
            if anchor:
                raise RuntimeError(f"anchor {label} is not a plain bounded orbit")
            return None
        span = self.PERIODS * float(orbit.T_t)
        argv = (["propagate"] + _state_args(r0, v0, gdeg, alpha)
                + ["--t-span", repr(span), "--samples", str(self.SAMPLES),
                   "--format", "json"])
        return Op(label, anchor, (r0, v0, math.radians(gdeg), alpha), (argv, span), orbit)

    def run(self, op: Op):
        return _cli(op.args[0])

    def check(self, op: Op, output: str, acc: Accuracy) -> bool:
        argv, span = op.args
        orbit = op.ref
        doc = json.loads(output)
        meta, rows = doc["meta"], doc["samples"]
        ok = len(rows) == self.SAMPLES and meta["bounded"] is True
        ok &= acc.add("time", _rel(meta["T_t"], orbit.T_t), op.anchor)
        ok &= acc.add("time", _rel(meta["T_tau"], orbit.T_tau), op.anchor)
        ok &= acc.add("theta", abs(mp.mpf(meta["dtheta_period"]) - orbit.dtheta), op.anchor)
        n = self.SAMPLES
        for i in list(range(0, n, self.CHECK_EVERY)) + [n - 1]:
            dt = 0.0 + span * i / max(n - 1, 1)     # the CLI's own sample times
            r, theta = orbit.at(dt, rows[i]["r"])
            ok &= acc.add("r", _rel(rows[i]["r"], r), op.anchor)
            ok &= acc.add("theta", abs(mp.mpf(rows[i]["theta"]) - theta), op.anchor)
        return bool(ok)


# -- state_scatter ----------------------------------------------------------

class StateScatter:
    """Scattered initial states through build_context + 1-3 propagate_ctx calls.

    op = one state.  Nothing amortises, so construction (cubic, lattice,
    p-inverse, theta-period check) dominates.  Fixed shares: generic
    states, near-circular starts, near-escape starts on both sides of the
    threshold, and high-speed unbounded states; each share spreads
    log10|alpha| over its range.
    """

    name = "state_scatter"
    tail_pct = 90
    SHARES = (("generic", 120), ("near_circular", 48), ("near_escape", 48),
              ("unbounded", 24))
    ANCHORS = (
        ("tilted", 1.3, 1.0, math.radians(25.0), 0.02, (3.1, 40.0)),
        ("inward", 0.8, 1.1, math.radians(-35.0), -0.2, (0.7,)),
        ("low_thrust", 1.0, 1.0, 0.3, 1e-4, (2.0, 9.0, 31.0)),
        ("near_circular", 1.0, math.sqrt(0.99 * 1.01), 1e-3, 0.01, (5.0,)),
        ("near_escape", 1.0, 1.2, 0.0, (2 - 1.44) ** 2 / (8 * 1.44) * (1 - 1e-4), (4.0, 55.0)),
        ("escaping", 1.1, 1.5, math.radians(30.0), 0.05, (1.5, 12.0)),
    )

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = [self._op(label, True, st[:4], st[4]) for label, *st in self.ANCHORS]
        for kind, count in self.SHARES:
            points = _strata(f"{self.name}:{kind}", rng, count, 7)
            for k, u in enumerate(points):
                state = getattr(self, "_" + kind)(k, *u[:4])
                self.ops.append(self._op(f"{kind}{k}", False, state,
                                         self._dts(state, k, u[4:])))

    # Each share maps stratified uniforms (alpha, r0, a third parameter,
    # gamma) to a state; k fixes the signs, sides and step pattern.

    @staticmethod
    def _generic(k, u_alpha, u_r0, u_speed, u_gamma):
        r0 = 0.6 + 1.9 * u_r0
        v0 = math.sqrt((0.3 + 1.5 * u_speed) / r0)
        return (r0, v0, math.radians(-60.0 + 120.0 * u_gamma),
                (1.0 if k % 2 else -1.0) * 10.0 ** (-9.0 + 8.5 * u_alpha))

    @staticmethod
    def _near_circular(k, u_alpha, u_r0, u_eps, u_gamma):
        r0 = 0.6 + 1.9 * u_r0
        alpha = 10.0 ** (-9.0 + 8.5 * u_alpha)
        if k % 2 == 0 or alpha * r0 * r0 > 0.1:
            alpha = -alpha
        eps = (1.0 if k % 4 < 2 else -1.0) * 10.0 ** (-8.0 + 5.0 * u_eps)
        v0 = math.sqrt((1.0 - alpha * r0 * r0) / r0 * (1.0 + eps))
        gamma = 0.0 if k % 3 == 0 else (1.0 if k % 4 < 2 else -1.0) * 10.0 ** (-6.0 + 3.0 * u_gamma)
        return (r0, v0, gamma, alpha)

    @staticmethod
    def _near_escape(k, u_alpha, u_r0, u_eps, u_gamma):
        # apse start at r0 with r0 v0^2 = u < 2 escapes above
        # alpha* = (2 - u)^2 / (8 r0^2 u); aim alpha* near 10^la
        r0 = 0.6 + 1.9 * u_r0
        u = 2.0 - 4.0 * r0 * math.sqrt(10.0 ** (-9.0 + 7.5 * u_alpha))
        v0 = math.sqrt(u / r0)
        a_star = (2.0 - r0 * v0 * v0) ** 2 / (8.0 * r0**3 * v0 * v0)
        side = -1.0 if k % 2 else 1.0
        alpha = a_star * (1.0 + side * 10.0 ** (-8.0 + 5.0 * u_eps))
        gamma = 0.0 if k % 4 < 2 else (1.0 if k % 3 else -1.0) * 10.0 ** (-4.0 + 2.0 * u_gamma)
        return (r0, v0, gamma, alpha)

    @staticmethod
    def _unbounded(k, u_alpha, u_r0, u_speed, u_gamma):
        r0 = 0.6 + 1.9 * u_r0
        v0 = math.sqrt((2.05 + 0.95 * u_speed) / r0)
        return (r0, v0, math.radians(-60.0 + 120.0 * u_gamma), 10.0 ** (-9.0 + 8.5 * u_alpha))

    @staticmethod
    def _dts(state, k, u_steps):
        """1-3 time steps (by k); every third one spans several Kepler periods."""
        r0, v0, _, alpha = state
        energy = 0.5 * v0 * v0 - 1.0 / r0 - alpha * r0
        scale = (2.0 * math.pi * (-0.5 / energy) ** 1.5 if energy < 0.0
                 else 2.0 * math.pi * r0**1.5)
        scale = min(scale, 200.0)
        return tuple(scale * (2.0 + 4.0 * u if (k + j) % 3 == 0 else 0.05 + 0.95 * u)
                     for j, u in enumerate(u_steps[:1 + k % 3]))

    def _op(self, label, anchor, state, dts):
        # every generated state must be a valid one: h > 0 and a reference
        # trajectory exists, so a raised error can only be a program defect
        InitialState(*state)
        if not (state[1] > 0.0 and abs(state[2]) < math.pi / 2
                and 1e-9 <= abs(state[3]) <= 10**-0.5):
            raise RuntimeError(f"generated state {label} {state} is out of range")
        return Op(label, anchor, state, (state, dts), reference.Orbit(*state))

    def run(self, op: Op):
        state, dts = op.args
        ctx = propagation.build_context(InitialState(*state))
        samples = []
        for dt in dts:
            ps = propagation.propagate_ctx(ctx, dt)
            samples.append((ps.r, ps.theta))
        return ctx.bounded, ctx.T_tau, ctx.T_t, tuple(samples)

    def check(self, op: Op, output, acc: Accuracy) -> bool:
        bounded, t_tau, t_t, samples = output
        orbit = op.ref
        ok = bounded == orbit.bounded
        if ok and bounded:
            ok &= acc.add("time", _rel(t_tau, orbit.T_tau), op.anchor)
            ok &= acc.add("time", _rel(t_t, orbit.T_t), op.anchor)
        for dt, (r_out, theta_out) in zip(op.args[1], samples):
            r, theta = orbit.at(dt, r_out)
            ok &= acc.add("r", _rel(r_out, r), op.anchor)
            ok &= acc.add("theta", abs(mp.mpf(theta_out) - theta), op.anchor)
        return bool(ok)


# -- design_survey ----------------------------------------------------------

def _secant(f, x0, x1, f0, f1, rel_tol=1e-12):
    """Root of a smooth monotone f bracketed by x0, x1 (regula falsi, Illinois)."""
    for _ in range(60):
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        fx = f(x)
        if abs(x - x1) <= rel_tol * abs(x):
            return float(x)
        if (fx > 0) == (f1 > 0):
            f0 /= 2
        else:
            x0, f0 = x1, f1
        x1, f1 = x, fx
    raise RuntimeError("closing-speed search did not converge")


def _winding(r_m, v, alpha):
    return reference.Orbit(r_m, v, 0.0, alpha).dtheta / (2 * mp.pi)


class DesignSurvey:
    """Pericenter families (r_m, alpha) through the CLI's design commands.

    op = one family: ``classify``, ``period``, ``period-sweep`` on a 3x3
    grid around the family, ``find-periodic`` for one M/N with a bracket
    from the reference, and ``escape-alpha``.  Apse starts: no Kepler
    inversion and no per-sample theta; repeated build_context calls and
    the cubic dominate.
    """

    name = "design_survey"
    tail_pct = 70
    SEEDED = 32
    HALF_WINDOW = 0.015     # speed window searched for a closing M/N
    BRACKET = 1e-3          # relative half-width of the find-periodic bracket
    ANCHORS = (
        ("rosette", 1.0, -0.05, V_ROSETTE, (9, 10), (1.25, 1.27)),
        ("worked", 1.0, 0.02, 1.2, None, None),
        ("wide", 1.2, -0.01, math.sqrt(1.3 / 1.2), None, None),
    )

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = [self._op(label, True, *fam) for label, *fam in self.ANCHORS]
        for k, (ur, ua, uu) in enumerate(_strata(self.name, rng, self.SEEDED, 3)):
            r_m, la, u = 0.7 + 0.8 * ur, -2.5 + 1.5 * ua, 1.15 + 0.45 * uu
            alpha = (1.0 if k % 2 else -1.0) * 10.0**la
            if alpha > 0.0:     # keep the whole window below the escape threshold
                alpha = min(alpha, 0.5 * (2.0 - u * 1.1) ** 2 / (8.0 * r_m**2 * u * 1.1))
            self.ops.append(self._op(f"family{k}", False, r_m, alpha,
                                     math.sqrt(u / r_m), None, None))

    def _op(self, label, anchor, r_m, alpha, v_c, q, bracket):
        if q is None:
            q, bracket = self._closing_target(r_m, alpha, v_c)
        m_turns, n_periods = q
        dv, da = 0.01 * v_c, 0.05 * abs(alpha)     # the sweep's grid half-widths
        a_star = float(reference.escape_alpha_apse(r_m, v_c))
        state = _state_args(r_m, v_c, 0.0, alpha)
        argvs = (
            ["classify"] + state + ["--format", "json"],
            ["period"] + state + ["--format", "json"],
            ["period-sweep", "--r0", repr(r_m), "--v0-lo", repr(v_c - dv),
             "--v0-hi", repr(v_c + dv), "--v0-samples", "3",
             "--alpha-lo", repr(alpha - da), "--alpha-hi", repr(alpha + da),
             "--alpha-samples", "3"],
            ["find-periodic", "--r-m", repr(r_m), "--alpha", repr(alpha),
             "--M", str(m_turns), "--N", str(n_periods),
             "--bracket-lo", repr(bracket[0]), "--bracket-hi", repr(bracket[1]),
             "--format", "json"],
            ["escape-alpha", "--r0", repr(r_m), "--v0", repr(v_c),
             "--alpha-lo", repr(0.5 * a_star), "--alpha-hi", repr(1.5 * a_star),
             "--format", "json"],
        )
        ref = dict(r_m=r_m, alpha=alpha, v_c=v_c, q=q, a_star=a_star)
        return Op(label, anchor, (r_m, v_c, 0.0, alpha), argvs, ref)

    def _closing_target(self, r_m, alpha, v_c):
        """(M, N) and a bracket around the reference speed closing after N periods."""
        lo, hi = v_c * (1 - self.HALF_WINDOW), v_c * (1 + self.HALF_WINDOW)
        w_lo, w_hi = _winding(r_m, lo, alpha), _winding(r_m, hi, alpha)
        a, b = sorted((w_lo, w_hi))
        a, b = a + 0.2 * (b - a), b - 0.2 * (b - a)
        whole = mp.floor((a + b) / 2)
        frac = float((a + b) / 2 - whole)
        for bits in range(1, 21):      # simplest fraction inside the window
            q = Fraction(frac).limit_denominator(2**bits)
            target = whole + mp.mpf(q.numerator) / q.denominator
            if q.denominator >= 2 and a <= target <= b:
                v_star = _secant(lambda v: _winding(r_m, v, alpha) - target,
                                 lo, hi, w_lo - target, w_hi - target)
                return ((q.numerator, q.denominator),
                        (v_star * (1 - self.BRACKET), v_star * (1 + self.BRACKET)))
        raise RuntimeError("no closing fraction in the speed window")

    def run(self, op: Op):
        return tuple(_cli(argv) for argv in op.args)

    def check(self, op: Op, output, acc: Accuracy) -> bool:
        ref = op.ref
        r_m, alpha, v_c = ref["r_m"], ref["alpha"], ref["v_c"]
        classified, period, sweep, found, escape = output
        centre = reference.Orbit(r_m, v_c, 0.0, alpha)
        ok = True

        doc = json.loads(classified)
        lo, hi = doc["allowed_interval"]
        ok &= doc["verdict"] == "bounded"
        ok &= acc.add("r", _rel(lo, centre.r_m), op.anchor)
        ok &= acc.add("r", _rel(hi, centre.r_M), op.anchor)

        doc = json.loads(period)
        ok &= acc.add("time", _rel(doc["T_tau"], centre.T_tau), op.anchor)
        ok &= acc.add("time", _rel(doc["T_t"], centre.T_t), op.anchor)
        ok &= acc.add("time", _rel(doc["T_t_implicit"], centre.T_t), op.anchor)

        rows = [line.split(",") for line in sweep.strip().splitlines()[1:]]
        ok &= len(rows) == 9
        for v0, a, t_tau in rows[::4]:      # the grid's diagonal
            orbit = reference.Orbit(r_m, float(v0), 0.0, float(a))
            ok &= acc.add("time", _rel(t_tau, orbit.T_tau), op.anchor)

        doc = json.loads(found)
        m_turns, n_periods = ref["q"]
        closing = reference.Orbit(r_m, doc["v_m"], 0.0, alpha)
        winding = closing.dtheta / (2 * mp.pi)
        target = min((whole + s * mp.mpf(m_turns) / n_periods
                      for whole in range(int(winding) - 1, int(winding) + 2)
                      for s in (1, -1)), key=lambda x: abs(x - winding))
        ok &= acc.add("theta", 2 * mp.pi * abs(winding - target), op.anchor)
        ok &= acc.add("theta", 2 * mp.pi * abs(mp.mpf(doc["winding_ratio"]) - winding), op.anchor)
        ok &= acc.add("time", _rel(doc["T_t"], closing.T_t), op.anchor)

        a_star = json.loads(escape)["alpha_star"]
        ok &= abs(a_star - ref["a_star"]) <= 1e-9 * max(1.0, abs(ref["a_star"]))
        return bool(ok)


def kernel_errors(states) -> tuple[dict, int]:
    """Largest relative errors of p, zeta, sigma on the lattices of ``states``.

    Each lattice is evaluated on a 4 x 4 grid of cell points against the
    Jacobi theta reference.  p and zeta errors are relative to
    max(|value|, the lattice's scale) so that their zeros do not dominate.
    Returns the errors and the number of kernel entry points missing.
    """
    worst = {"wp_rel_err": 0.0, "zeta_rel_err": 0.0, "sigma_rel_err": 0.0}
    try:
        from radialorbit import Lattice
        lattices = [Lattice.from_invariants(*_invariants(s)) for s in states]
        kernels = [(lat.wp, lat.zeta, lat.sigma) for lat in lattices]
    except (ImportError, AttributeError):
        return worst, 3
    for (wp, zeta, sigma), state in zip(kernels, states):
        ref = reference.ThetaLattice(*_invariants(state))
        for z in ref.cell_points(4):
            z = complex(z)
            p_ref, zeta_ref, sigma_ref = ref.all(mp.mpc(z))
            scale = ref.scale
            worst["wp_rel_err"] = max(worst["wp_rel_err"], float(
                abs(wp(z) - p_ref) / max(abs(p_ref), scale)))
            worst["zeta_rel_err"] = max(worst["zeta_rel_err"], float(
                abs(zeta(z) - zeta_ref) / max(abs(zeta_ref), 1 / abs(ref.omega1))))
            worst["sigma_rel_err"] = max(worst["sigma_rel_err"], float(
                abs(sigma(z) - sigma_ref) / abs(sigma_ref)))
    return worst, 0


def _invariants(state):
    """Lattice invariants (g2, g3) of the state's dynamics cubic (paper, eq. for p)."""
    r0, v0, gamma0, alpha = state
    energy = 0.5 * v0 * v0 - 1.0 / r0 - alpha * r0
    h = r0 * v0 * math.cos(gamma0)
    return (energy**2 / 3.0 - alpha,
            alpha**2 * h**2 / 4.0 + alpha * energy / 6.0 - energy**3 / 27.0)


WORKLOADS = {w.name: w for w in (DenseOrbit, StateScatter, DesignSurvey)}
