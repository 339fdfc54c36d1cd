"""Closed-form state propagation in pseudo-time and physical time.

With pseudo-time tau defined by dt = r dtau (Sundmann change of variable)
and the epoch at pericenter passage, the radius, polar angle and time read

    r(tau)     = r_m + f'(r_m) / (4 (p(tau) - ek)),        ek = f''(r_m)/24
    theta(tau) = v_m tau - Im[L(v - tau) - L(v + tau) + 2 tau zeta(v)]
    t(tau)     = r_m tau - [2 ek tau + zeta(tau - w_k) + zeta(tau + w_k)] / a

where p, zeta, sigma live on the lattice with invariants g2 = E^2/3 - a,
g3 = a^2 h^2/4 + a E/6 - E^3/27, ek is always a root of 4 s^3 - g2 s - g3,
w_k is the half-period with p(w_k) = ek, and p(v) = ek - f'(r_m)/(4 r_m)
with p'(v) on the +i branch, which puts v above the real axis.  t(tau) is
the radial Kepler equation; its numerical inversion recovers the state as
a function of physical time, from a start that ``_radial_forms`` makes
with the series form that serves.  A Halley step whose Taylor remainder
is at the rounding of t is taken without a further evaluation.

By the half-period addition theorem r - r_m = (2/a)(p(tau + w_k) - ek),
whose nome series (DLMF 23.8.1 shifted by a half period) carries 1/a in
every coefficient: r, dr/dtau and t, its term-by-term integral, come from
one series with no 1/a-scaled difference and no pole at tau = 0
(``_radial_forms``).  With k = pi/(2 w), u = k tau, on a basis where w_k
is a half period:
- S, bounded: w = omega, q = exp(-pi |omega'|/omega), a_n = s^n q^n/(a (1 -
  q^2n)), s = +1 (k = 3) or -1 (k = 2); r = r_m + 32 k^2 sum n a_n sin^2 nu,
  t = r_m tau + 8 k sum a_n (2nu - sin 2nu).
- H, on a rectangular lattice: S on the basis (omega', -omega) turns sin nu
  into sinh nv, v = pi tau/(2 |omega'|), and q into +/-q' = +/-exp(-pi
  omega/|omega'|); its term ratio q' e^(2v) grows toward w_r.
- T, unbounded, toward the escape asymptote w_r: the real-period basis of
  ``_theta_series``, Q = q^2 (negative on a rhombic lattice), gamma_n =
  (-Q)^n/(1 - Q^n); r = r_m + (2 k^2/a)[tan^2 u + 16 sum n gamma_n
  sin^2 nu], t = r_m tau + (2 k/a)[tan u - u + 4 sum gamma_n (2nu - sin 2nu)].
- T', near the escape threshold, where one period diverges: T on a basis
  whose first half period iW is imaginary, (omega', -omega) for k = 3 and
  (omega' - omega, -omega) = (i w_i, -omega) on a rhombic lattice, turns
  tan u and sin nu into tanh u and sinh nu, k = pi/(2W): r = r_m +
  (2 k^2/a)[tanh^2 u + 16 sum n gamma_n sinh^2 nu], t = r_m tau +
  (2 k/a)[u - tanh u + 4 sum gamma_n (sinh 2nu - 2nu)], with Q = q'^2,
  q' = exp(-pi omega/|omega'|), or Q = -q_c^2, q_c = exp(-pi w_r/(2 w_i)).
  Its term ratio |Q| e^(2u) stays below q' over a folded orbit and below
  q_c up to w_r/2.

Each series is summed on the basis with the smaller term ratio, which the
lattice fixes once (``Lattice.q`` and ``Lattice.q_t``): where q' < q (ln q
ln q' = pi^2, so they cross at q = e^-pi = 0.043), T' takes the place of S
on k = 3 and H serves k = 1 up to w_r/2, where its ratio is sqrt(q'); T'
takes the place of T on a rhombic lattice where q_c is below T's |Q|.  An
unbounded lattice on either route folds past w_r/2 at the half period,
p(w_r) = e_k (``_fold_point``): r - r_m = gap2/R(w_r - tau), with R the
form's r - r_m and gap2 the product of f's root gaps at r_m, its pole at
w_r exact and its t free of 1/a.  Elsewhere H serves near the pericenter
of a k = 2 orbit and of k = 1 at q' >= q, up to where its ratio reaches
1/e, and S or T beyond.

theta is the paper's v_m tau - arg[sigma(v - tau)/sigma(v + tau)
exp(2 tau zeta(v))] with the argument continuous in tau (L = log sigma on
that branch).  On every lattice the theta_1 product (DLMF 23.6.9, 20.5.1)
on the real-period basis (w_r, omega') turns it into slope tau +/- arg W +
sum s_m sin 2mb, b = pi tau/(2 w_r), with real constants made once per
context (``_theta_series``): one (sin, cos) pair and no kernel call per
theta.  Its ratio is |q| = exp(-pi Im omega'/w_r); where the basis of T'
has a smaller
one, q' or q_c, and v lies on its Im-axis line (all but case (b) of
``_theta_pole``), theta sums the same product on that basis (Jacobi's
imaginary transformation, DLMF 20.7(viii), whose Gaussian factor only adds
to the slope): slope tau - 2 arg sin(a + i beta) - sum s_m sinh 2m beta,
beta = k tau (``_theta_imaginary``), whose ratio on a rectangular lattice
stays below q' over all |tau| <= omega.

``build_context`` evaluates what does not depend on tau once per state,
in the three stages of ``SolutionContext``: the frame (f, r_m, v_m, the
lattice and both periods, T_tau = 2 omega and T_t), the pole (v, zeta(v)
and dtheta) and the epoch (tau0, t0 and theta0 = theta(tau0), from which
propagated angles are measured).  Every constant is real: the lattice
holds w_r, w_i, eta_r and eta_c (``Lattice``), and v lies on Re v = 0 or
w_r, where Re zeta(v) is 0 or eta_r, so the pole is its line, Im v and
Im zeta(v).  Complex numbers appear only where f has a conjugate pair,
in its offsets and the lattice roots (``GRoots``).  The frame's periods
read only the lattice's real half, so a frame read for them takes one
AGM.  The CLI's
``period`` and ``period-sweep`` build the frame alone,
``analysis.find_periodic_v`` the frame and pole per speed and the epoch
for the speed it returns.  The lattice roots e_i = (a r_i + E/3)/2 come
from f's (``_lattice_roots``), and every p^-1 lies on a line where p is
real (``_theta_pole``); tau0's gaps are products of f's root differences
(``tau0_from_r0``).  Quasi-periodicity gives the advances per period

    T_t    = r_m T_tau - (2 ek T_tau + 4 eta) / a,
    dtheta = v_m T_tau - 4 Im[omega zeta(v) - eta v] - 2 pi

(``SolutionContext``, the frame, and ``add_pole``).  Bounded t and theta
fold whole periods off by these, t to the pericenter-centered tau in
[-omega, omega] and theta past +/-T_tau to [0, T_tau) (on the basis of T'
on to [-omega, omega]), which keeps the series' arguments within a period
of 0.
"""

from __future__ import annotations

import collections
import math
from functools import cached_property, partial
from operator import truediv

from . import dynamics
from .dynamics import CubicF, InitialState, MotionClass
from .errors import (
    ConvergenceError,
    DegenerateLatticeError,
    OutOfIntervalError,
)
from .weierstrass import GRoots, Lattice, stop_index

_UNIT_ROUNDOFF = 2.0**-53
_ROUNDING_ULPS = 8          # ulps of a rounding level: the theta pole off both lines


class SolutionContext:
    """Everything needed to evaluate the closed form for one instance.

    Built in the three stages of the module docstring, each run once: the
    constructor, ``add_pole`` and ``add_epoch``, which ``build_context``
    chains.  The constructor's frame holds T_tau and T_t, so the CLI's
    ``period`` builds it alone.  Unchanged once built, apart from the
    radial and theta series, which are made on first use; the radial
    forms come with the start of the Kepler inversion.
    """

    def __init__(self, state: InitialState) -> None:
        """Stage 1, the frame with both periods; T_tau and T_t are None on unbounded motion.

        Bounded motion has three real roots of f, so its lattice is the
        rectangular one T_tau is read from, and T_t reads only r_m, r_M,
        e1 - e3, the lattice's tail and alpha: the real half of the
        lattice (``Lattice``), so a frame read for its periods builds no
        more.  T_t = r_m T_tau - (2 e_k T_tau + 4 eta)/a scales the
        rounding of eta by 1/a.  eta = sqrt(d) E - e1 omega, E = K ((1 +
        m1)/2 - tail) (A&S 17.6.3-4) and e_i = e_k + a (r_i - r_m)/2 turn
        it into T_tau (r_m + r_M)/2 + 2 d T_tau tail/a for k = 3 and 2,
        where d/a is a difference of f's roots and the tail of order m^2:
        no term cancels.
        """
        self.state = state
        self.f = f = dynamics.build_f(state)
        self.energy, self.momentum = f.energy, f.momentum
        self.region = dynamics.classify_region(f, state.r0)
        self.r_m, self.v_m = dynamics.pericenter(f, self.region, state.r0)
        self.e_k, roots, self.k, self.xs = _lattice_roots(f, self.region)
        self.lattice = lat = Lattice(roots)
        self.bounded = self.region.bounded
        self.T_tau = self.T_t = None
        if self.bounded:
            self.T_tau = 2.0 * lat.real_half_period
            self.T_t = self.T_tau * (0.5 * (self.r_m + self.region.r_hi)
                                     + 2.0 * lat.roots.gaps[1].real * lat.tail / state.alpha)

    def add_pole(self) -> SolutionContext:
        """Stage 2: the theta pole v, Im zeta(v) and dtheta_period, p'(v) on the +i branch.

        v lies on Re v = 0 or Re v = w_r (``_theta_pole``), held as its line
        ``v_line`` and ``v_im`` = Im v.  Re zeta(v) is fixed by the line, 0
        or eta_r, and only Im zeta(v), ``zeta_im``, is read.
        """
        v_m, lat = self.v_m, self.lattice
        self.v_line, self.v_im, (_, _, self.zeta_im) = _theta_pole(self)
        self.dtheta_period = None
        if self.bounded:
            # v = 2 omega' - iy and zeta(v) = zeta(-iy) + 2 eta', omega' = i w_i
            # and eta' = -i eta_c, so Legendre's relation makes Im[omega zeta(v)
            # - eta v] = omega Im zeta(-iy) + eta_r y - pi, with pi exact instead
            # of the relation rounded in the floats
            t_tau = self.T_tau
            y = 2.0 * lat.w_i - self.v_im
            zeta_c = self.zeta_im + 2.0 * lat.eta_c       # Im zeta(-iy)
            self.dtheta_period = (v_m * t_tau - 4.0 * (0.5 * t_tau * zeta_c + lat.eta_r * y)
                                  + 2.0 * math.pi)
        return self

    def add_epoch(self) -> SolutionContext:
        """Stage 3: the epoch (tau0, t0, theta0).

        tau0 = p^-1 of e(r0) on the branch of rdot0 (``tau0_from_r0``), and
        theta0 = theta(tau0) is the angle from pericenter that propagated
        angles are measured from.
        """
        state = self.state
        self.tau0 = tau0 = tau0_from_r0(self, state.r0, 1 if state.rdot0 >= 0.0 else -1)
        self.t0 = self.theta0 = 0.0
        if tau0:
            self.t0, self.theta0 = radial_kepler(self, tau0), theta_of_tau(self, tau0)
        return self

    @cached_property
    def _radial(self) -> tuple:
        # made on the first r or t: an apse epoch read for its periods takes none
        return _radial_forms(self)

    @cached_property
    def _theta_series(self) -> partial:
        # made on the first theta: a pericenter epoch read for its periods never takes one
        return _theta_series(self)


class PropagatedState(collections.namedtuple("PropagatedState", "r theta v gamma tau t")):
    """State at pseudo-time tau; t counts from pericenter, theta from the epoch."""

    __slots__ = ()


def invariants_from_conserved(alpha: float, energy: float, momentum: float
                              ) -> tuple[float, float]:
    """(g2, g3), the invariants of the lattice cubic 4 s^3 - g2 s - g3."""
    g2 = energy**2 / 3.0 - alpha
    g3 = alpha**2 * momentum**2 / 4.0 + alpha * energy / 6.0 - energy**3 / 27.0
    return g2, g3


def build_context(state: InitialState) -> SolutionContext:
    """The closed-form context of one state: frame, pole and epoch stages."""
    return SolutionContext(state).add_pole().add_epoch()


def _lattice_roots(f: CubicF, region: MotionClass) -> tuple[float, GRoots, int, tuple]:
    """(e_k, roots, k, xs) of the lattice of f, r_m the lower end of ``region``.

    e_k = f''(r_m)/24 is the lattice root e_tilde_k of r_m, and
    e_i = e_k + a (x_i - x_m)/2 with xs the offsets of f's roots from r0 in
    the lattice roots' order, r_m at index k: f's descending order for a > 0,
    reversed for a < 0, where r_m is the middle root (k = 2); for a > 0 the
    least of three on bounded motion (k = 3), else the largest real root
    (k = 1, or 2 beside a conjugate pair).
    """
    e_k = 0.5 * f.alpha * region.r_lo + f.energy / 6.0
    half = 0.5 * f.alpha
    if f.alpha < 0.0:
        xs, k = f.offsets[::-1], 2
    else:
        xs, k = f.offsets, 3 if region.bounded else 1 if f.offsets[0].imag == 0.0 else 2
    x_m = xs[k - 1].real
    x1, x2, x3 = xs
    roots = GRoots((e_k + half * (x1 - x_m), e_k + half * (x2 - x_m), e_k + half * (x3 - x_m)),
                   (half * (x1 - x2), half * (x1 - x3), half * (x2 - x3)))
    return e_k, roots, k, xs


def _root_offsets(lat: Lattice, k: int) -> tuple:
    """e_i - e_k for the lattice roots e_i, from their differences; 0 at i = k.

    Real on a rectangular lattice; on a rhombic one (k = 2) e1 - e2 and
    e3 - e2 are a conjugate pair.
    """
    g12, g13, g23 = lat.roots.gaps
    if lat.rectangular:
        g12, g13, g23 = g12.real, g13.real, g23.real
    return ((0.0, -g12, -g13), (g12, 0.0, -g23), (g13, g23, 0.0))[k - 1]


def _theta_pole(ctx: SolutionContext) -> tuple[float, float, tuple[float, float, float]]:
    """(Re v, Im v, (p, Im p', Im zeta) at v) with p(v) = w_v = e_k - c_v, p'(v) on the +i branch.

    c_v = f'(r_m)/(4 r_m).  v lies on the imaginary axis of a rectangular
    lattice or on Re v = w_r, in case (b) and on a rhombic lattice
    (``Lattice.wp_inverse_imaginary``), where p is real and p' imaginary.
    Proof: r(tau) maps e(r) = e_k + f'(r_m)/(4 (r - r_m)) to r, so e takes
    the roots of f to the lattice roots, r = +/-inf to e_k and r = 0 to
    w_v, and f(0) = -h^2 < 0.  Bounded motion librates between roots
    r_m < r_M of f = 2 alpha r^3 + ... - h^2, with f > 0 between them, so
    f'(r_m) > 0 and e falls on each side of r_m; f(0) < 0 puts 0 below r_m,
    outside (r_m, r_M), and the third root r_3 where the sign of alpha
    sends it:
    - alpha > 0: f > 0 again beyond r_3 > r_M.  Both map above e_k, so
      e_k = e3 (k = 3), and w_v = e(0) < e(-inf) = e_k = e3.
    - alpha < 0: f > 0 below r_3, so r_3 < 0 < r_m.  Then e(r_3) < e_k <
      e(r_M) gives e3 = e(r_3) (k = 2), and w_v = e(0) < e(r_3) = e3.
    Unbounded motion needs alpha > 0 (else f -> -inf as r -> inf), and e
    falls on (-inf, r_m), r_m the largest real root, from e(-inf) = e_k.
    - Three real roots r_m > r_2 > r_3: a rectangular lattice, e_k = e1
      (k = 1), e(r_3) = e2, e(r_2) = e3, and f > 0 on (r_3, r_2).  (a) 0 in
      (r_2, r_m): w_v < e3, the imaginary axis.  (b) 0 < r_3: e2 < w_v < e1,
      the line Re v = omega.  With p'(omega) = 0 the addition theorems give
      p(omega + u) = e1 + g12 g13/(p(u) - e1), p'(omega + u) =
      -g12 g13 p'(u)/(p(u) - e1)^2 and zeta(omega + u) = zeta(u) + eta +
      p'(u)/(2 (p(u) - e1)), so u = iy on the -i branch at w_u = e1 -
      g12 g13/(e1 - w_v) gives v = omega + iy on the +i one.  With e_i =
      e1 + a (r_i - r_m)/2 and c_v = a (r_m - r_2)(r_m - r_3)/(2 r_m), the
      gaps of w_u, e_i - w_u, are (a/2) (r_m, r_2, r_3), f's own positive
      roots, so they are taken from f's offsets: formed as g12 (c_v -
      g13)/c_v and g13 (c_v - g12)/c_v, their factors c_v - g1i cancel.
    - (c) A conjugate pair: a rhombic lattice, e_k = e2 (k = 2), and f < 0
      on all of (-inf, r_m), so w_v < e2, the imaginary axis.
    The gaps e_i - w_v = (e_i - e_k) + c_v are exact at i = k.  A w_v
    between e3 and e2 beyond their rounding lies on neither line; only a
    double root e1 = e2 to rounding puts it there: DegenerateLatticeError.
    """
    lat, k, e_k, f = ctx.lattice, ctx.k, ctx.e_k, ctx.f
    c_v = 0.25 * f.df(ctx.r_m) / ctx.r_m       # p(v) = e_k - c_v = -delta/gamma
    d1, d2, d3 = _root_offsets(lat, k)
    gaps = (d1 + c_v, d2 + c_v, d3 + c_v)
    if gaps[1] >= 0.0:              # w_v <= e2: the imaginary axis
        g13 = lat.roots.gaps[1].real    # e1 - e3, the scale of the gaps' rounding
        if lat.rectangular and -gaps[2] > _ROUNDING_ULPS * _UNIT_ROUNDOFF * g13:
            raise DegenerateLatticeError(f"theta pole between e3 and e2 (gaps {gaps!r}): "
                                         "e1 - e2 is a double root to rounding")
        v_im, values = lat.wp_inverse_imaginary(e_k - c_v, gaps)
        return (0.0 if lat.rectangular else lat.real_half_period), v_im, values
    g12, g13 = lat.roots.gaps[0].real, lat.roots.gaps[1].real
    s = g12 * g13 / c_v             # (b): e1 - w_u, as e1 - w_v = c_v
    half = 0.5 * f.alpha
    u_im, (_, pp, zt) = lat.wp_inverse_imaginary(
        e_k - s, tuple(half * (f.r0 + x.real) for x in ctx.xs))
    # at iy = 2 omega' - u = 2i w_i - u: p - e1 = -s, p' = -pp and zeta =
    # 2 eta' - zt = -2i eta_c - zt, to which v = omega + iy adds eta_r
    return (lat.real_half_period, 2.0 * lat.w_i - u_im,
            (e_k - c_v, pp * c_v / s, -2.0 * lat.eta_c - zt + 0.5 * pp / s))


def _theta_series(ctx: SolutionContext) -> partial:
    """theta(tau) on any lattice, from the basis whose theta_1 series has the smaller ratio.

    The real-period basis (w_r, omega') has ratio q = exp(-pi w_i/w_r) on a
    rectangular lattice and exp(-pi w_i/(2 w_r)) on a rhombic one
    (``_theta_real``).  Where v lies on an Im-axis line of the lattice (the
    imaginary axis of a rectangular one, Re v = w_r of a rhombic one), the
    basis whose first half period i w_i is imaginary has ratio q_t = q' =
    exp(-pi w_r/w_i) or q_c = exp(-pi w_r/(2 w_i)), small where one period
    diverges near the escape threshold and at small a
    (``_theta_imaginary``).  Case (b) of ``_theta_pole``, v on Re v = w_r of
    a rectangular lattice, keeps the real-period basis.

    On the real-period basis, omega' = i w_i and eta' = -i eta_c, or (w_r
    + i w_i)/2 and (eta_r - i eta_c)/2 on a rhombic lattice.  v reduces by
    n steps of 2 omega' to v_c with |Im v_c| <= Im omega', and Re v_c is 0
    or +/-w_r: each step moves Re v by 0 or w_r, and v starts on Re v = 0
    or w_r.  So a = k v_c has Re a in {0, +/-pi/2}: phi = 2 Re a has cos
    phi = +/-1 and sin phi = 0, taken exactly rather than from a rounded
    pi, and every constant is real.  With y = Im a, E = e^(2i sign a) =
    e^(-2|y|) cos phi and Im sin 2ja = (cos phi)^j sinh 2jy, by the
    recurrence sin 2(j+1)a = 2 cos 2a sin 2ja - sin 2(j-1)a from one
    (sinh, cosh) pair.
    """
    lat, v_im, zeta_im = ctx.lattice, ctx.v_im, ctx.zeta_im
    w, q = lat.real_half_period, lat.q
    if lat.q_t < q and (ctx.v_line == 0.0 or not lat.rectangular):
        return _theta_imaginary(ctx, lat.q_t)
    step, eta_step = (lat.w_i, lat.eta_c) if lat.rectangular else (0.5 * lat.w_i, 0.5 * lat.eta_c)
    n = math.floor(v_im / (2.0 * step) + 0.5)
    y_c = v_im - 2.0 * (n * step)                       # Im v_c
    cos_phi = -1.0 if (ctx.v_line != 0.0) != (n % 2 == 1 and not lat.rectangular) else 1.0
    k = math.pi / (2.0 * w)
    a = k * y_c                                         # Im a
    sign = 1.0 if a > 0.0 else -1.0
    # 2 Im[(eta_r/w) v_c + shift - zeta(v)], shift = zeta(v) - zeta(v_c) = 2 n eta'
    slope = (ctx.v_m + (2.0 * (lat.eta_r / w) * y_c - 4.0 * (n * eta_step) - 2.0 * zeta_im)
             - sign * 2.0 * k)
    stop = stop_index(lat.row, 4.0, -1, q * q * math.exp(2.0 * abs(a)),
                      limit=_UNIT_ROUNDOFF * (1.0 - q))
    coeffs, sn, prev = [], cos_phi * math.sinh(2.0 * a), 0.0
    two_cos = 2.0 * cos_phi * math.cosh(2.0 * a)
    for j, c in zip(range(1, stop), map(truediv, lat.row.powers, lat.row.dens)):
        coeffs.append(4.0 * c * sn / j)
        sn, prev = two_cos * sn - prev, sn
    return partial(_theta_real, k, slope, sign, cos_phi * math.exp(-2.0 * abs(a)), tuple(coeffs))


def _theta_real(k: float, slope: float, sign: float, e: float, coeffs: tuple,
                tau: float) -> float:
    """theta(tau) on the real-period basis, from the constants of ``_theta_series``.

    The series is that of the real-period basis (w, omega'): w = w_r,
    eta_r = zeta(w), k = pi/(2w), and omega' = i w_i or (w + i w_i)/2 on a
    rhombic lattice.  So k is real, and so is q^2 = exp(2 i pi omega'/w)
    = +/-exp(-2 pi Im omega'/w), negative on a rhombic lattice.

    v is first reduced into the centred cell, v = v_c + 2 m w +
    2 n omega'; by quasi-periodicity that adds -4 (m eta_r + n eta') tau to
    L(v - tau) - L(v + tau).  With a = k v_c and b = k tau, the theta_1
    product (DLMF 23.6.9, 20.5.1) gives

        L(v_c - tau) - L(v_c + tau) = -2 eta_r v_c tau/w
            + log[sin(a - b)/sin(a + b)] - sum (4 c_m/m) sin 2ma sin 2mb,

    c_m = q^(2m)/(1 - q^(2m)), real.  The log is +/-2ib + Log(1 - E e^(-/+2ib))
    - Log(1 - E e^(+/-2ib)) with E = e^(+/-2ia), the sign of Im a, so that
    |E| < 1 and each Log stays off its cut.  E is real (``_theta_series``),
    so the imaginary part is -/+ arg W, W = (1 - E e^(2ib))^2, taken as
    the product of x + iy = 1 - E e^(2ib) with itself.  Every term linear
    in tau folds into one real slope, so

        theta = slope tau +/- arg W + sum s_m sin 2mb,
        s_m = 4 c_m Im(sin 2ma)/m.

    |s_m| <= 4 |c_m| e^(2m|Im a|)/m, and |Im v_c| <= Im omega' makes
    e^(2|Im a|) <= 1/|q|, so the ratio of successive bounds is at most |q|
    wherever |q|^(2m) is far below the rounding; the sum stops before the
    first m whose bound is below 2^-53 (1 - |q|) (``stop_index``), which
    leaves a tail below the unit roundoff in radians.
    """
    b2 = 2.0 * k * tau
    s2, c2 = math.sin(b2), math.cos(b2)
    x, y = 1.0 - e * c2, -(e * s2)                  # 1 - E e^(2ib)
    acc, sn, cn = 0.0, s2, c2
    for s_j in coeffs:
        acc += s_j * sn
        sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
    return slope * tau + sign * math.atan2(2.0 * x * y, x * x - y * y) + acc


def _theta_imaginary(ctx: SolutionContext, q: float) -> partial:
    """theta on the basis (omega1, omega3) = (i w_i, -omega), omega1 imaginary.

    There k = pi/(2 omega1) = -i kappa, kappa = pi/(2 w_i), so b = k tau =
    -i beta, beta = kappa tau, and zeta(omega1) = -i eta_c.  The lattice
    points on Re z = 0 lie at even multiples of i w_i, those on Re z = w_r
    (rhombic) at odd ones, 2 omega' = w_r + i w_i among them, which moves
    zeta by 2 eta' = eta_r - i eta_c: in Im, half a step of 2 omega1.  So v
    reduces to v_c = iY, |Y| <= w_i, by m steps of 2 omega1 in Im, m =
    floor(Im v/(2 w_i) + 1/2) on Re v = 0 and floor(Im v/(2 w_i)) + 1/2 on
    Re v = w_r, and a = k v_c = kappa Y is real, taken in (0, pi) by a
    shift of pi that no term sees.  The theta_1 product of ``_theta_real``
    then gives

        theta = slope tau - 2 arg sin(a + i beta) - sum s_m sinh 2m beta,

    with slope = v_m + 2 Im[(eta1/omega1) v_c + 2 m eta1 - zeta(v)] as
    there, s_m = 4 c_m sin(2ma)/m and c_m = Q^m/(1 - Q^m), Q = +/-q^2
    (negative on a rhombic lattice).  sin a > 0 keeps the argument
    continuous.  Bounded tau folds to [-omega, omega], where e^(2|beta|) <=
    1/q, and unbounded tau on a rectangular lattice lies there already
    (|tau| < w_r = omega).  On a rhombic lattice unbounded tau beyond w_r/2
    folds to u = w_r - tau <= w_r/2: v' = v - w_r lies on the imaginary
    axis, and 2 w_r-periodicity gives

        theta = C - slope' u + 2 arg sin(a' + i kappa u) + sum s'_m sinh 2m kappa u,

    from the constants of v' in place of v's, with C set by continuity at
    w_r/2 and theta odd in tau.  Either way |s_m sinh 2m beta| <= 2 |c_m|
    q^-m/m, successive bounds shrink by about q, and the sums stop as in
    ``_theta_real``.
    """
    lat = ctx.lattice
    w_i, eta_c = lat.w_i, lat.eta_c
    kappa = 0.5 * math.pi / w_i
    stop = stop_index(lat.row_t, 4.0, -1, q, limit=_UNIT_ROUNDOFF * (1.0 - q))
    fours = [4.0 * c for c in map(truediv, lat.row_t.powers[:stop - 1], lat.row_t.dens)]

    def constants(line: float, v_im: float, drift: float) -> tuple[float, tuple]:
        half = 0.5 if line else 0.0
        m = math.floor(v_im / (2.0 * w_i) + 0.5 - half) + half
        y_c = v_im - 2.0 * (m * w_i)                # Im v_c
        a = kappa * y_c
        if a <= 0.0:
            a += math.pi
        slope = drift + (-2.0 * (eta_c / w_i) * y_c - 4.0 * (m * eta_c))
        sin_a, cos_a = math.sin(a), math.cos(a)     # sin 2ja as in _theta_series:
        coeffs, sn, prev = [], 2.0 * sin_a * cos_a, 0.0
        two_cos = 2.0 * (cos_a - sin_a) * (cos_a + sin_a)
        for j, c4 in enumerate(fours, 1):
            coeffs.append(c4 * sn / j)
            sn, prev = two_cos * sn - prev, sn
        return slope, (kappa, sin_a, cos_a, tuple(coeffs))

    drift = ctx.v_m - 2.0 * ctx.zeta_im
    slope, first = constants(ctx.v_line, ctx.v_im, drift)
    if lat.rectangular:
        return partial(_theta_centred, slope, first,
                       ctx.T_tau if ctx.bounded else math.inf, ctx.dtheta_period)
    w_r = lat.real_half_period
    half = 0.5 * w_r
    slope_u, second = constants(0.0, ctx.v_im, drift)
    const = slope * half - _theta_phase(*first, half) + slope_u * half - _theta_phase(*second, half)
    return partial(_theta_folded, slope, first, w_r, const, slope_u, second)


def _theta_phase(kappa: float, sin_a: float, cos_a: float, coeffs: tuple, x: float) -> float:
    """2 arg sin(a + i kappa x) + sum s_m sinh 2m kappa x, by angle addition."""
    b = kappa * x
    sh, ch = math.sinh(b), math.cosh(b)
    s2, c2 = 2.0 * sh * ch, ch * ch + sh * sh
    acc, sn, cn = 0.0, s2, c2
    for s_j in coeffs:
        acc += s_j * sn
        sn, cn = sn * c2 + cn * s2, cn * c2 + sn * s2
    return 2.0 * math.atan2(cos_a * sh, sin_a * ch) + acc


def _theta_centred(slope: float, phase: tuple, period: float, dtheta: float,
                   tau: float) -> float:
    """Rectangular theta of ``_theta_imaginary`` at |tau| < T_tau, folded to [-omega, omega].

    T_tau/2 <= |tau| < T_tau makes tau -/+ T_tau exact (Sterbenz).
    Unbounded motion passes period = inf: |tau| < w_r needs no fold.
    """
    if abs(tau) <= 0.5 * period:
        return slope * tau - _theta_phase(*phase, tau)
    n = 1.0 if tau > 0.0 else -1.0
    tau -= n * period
    return slope * tau - _theta_phase(*phase, tau) + n * dtheta


def _theta_folded(slope: float, first: tuple, w_r: float, const: float, slope_u: float,
                  second: tuple, tau: float) -> float:
    """Unbounded theta of ``_theta_imaginary``, odd in tau, folded at w_r/2."""
    x = abs(tau)
    if x <= 0.5 * w_r:
        theta = slope * x - _theta_phase(*first, x)
    else:
        u = w_r - x
        theta = const - slope_u * u + _theta_phase(*second, u)
    return theta if tau >= 0.0 else -theta


def _radial_forms(ctx: SolutionContext) -> tuple:
    """(switch, below, above, start): the forms of ``_series_point`` on either
    side of x = switch, and t -> the first tau of a Kepler inversion.

    Where the basis whose first half period is imaginary has the smaller
    ratio (``Lattice.q_t``), it serves: T' in S's place on k = 3 (q' < q),
    and up to w_r/2, folded past it by ``_fold_point``, H on k = 1 (q' <
    q; ratio q' e^(2v) <= sqrt(q') there) and T' on a rhombic lattice (q_c
    below T's |Q| = q^2).  Otherwise S (bounded) and T (unbounded) serve
    above, H below on a rectangular lattice whose S or T terms alternate in
    sign (k = 1 or 2, where S cancels near the pericenter of an eccentric
    orbit), up to where H's ratio q' e^(2v) reaches 1/e or S's ratio q.  A
    table (``_table``) stops where its tail is below the unit roundoff of
    the leading term (``stop_index``, ratio bound ((n+1)/n)^3 rho < 1):
    n^3 |a_n|/|a_1| in S (|sin nu| <= n |sin u|, rho = q), n^2 rho^(n-1) in
    H up to the switch (rho <= 1/e there) and n^3 rho^(n-1) up to w_r/2
    (rho = sqrt(q'); V_n/V_1, D_n/D_1 and s_n/s_1 are at most n^3
    e^((n-1)y)), and in T 16 n |gamma_n| min(n^2, c + c^2) against tan^2 u
    (rho = |Q|), c = cot u at the switch.

    The start solves the leading terms of the form that serves from x = 0:
    S's first three harmonics (``_kepler_start``), T''s own
    (``_leading_start``), and on T, H with its fold and T' with its fold at
    q_c >= 0.01, where the leading terms cost more than they save, the
    estimates of ``_unbounded_start``.  None of them refers to the context,
    which would make a cycle.
    """
    lat, alpha, r_m = ctx.lattice, ctx.state.alpha, ctx.r_m
    w_r, w_i = lat.real_half_period, lat.w_i
    q, q_t = lat.q, lat.q_t
    if not lat.rectangular:
        if q_t < q * q:               # T' on (omega' - omega, -omega) = (i w_i, -omega)
            k = math.pi / (2.0 * w_i)
            form, lead = _transformed(0.0, k, lat.row_t, alpha)
            # the leading terms cost about one evaluation of the form through
            # the fold; from q_c = 0.01 on, _unbounded_start took under two
            # per sample on (1, 1.2, 0, alpha* (1 + delta)) up to t = 2000
            # (1.87 at q_c = 0.011, 1.15 at 0.048), so it keeps serving there
            return _folded_forms(ctx, form, lead if q_t < 0.01 else None, k)
    elif q_t < q and ctx.k == 3:      # T' on (omega', -omega) = (i w_i, -omega)
        k = math.pi / (2.0 * w_i)
        form, lead = _transformed(r_m, k, lat.row_t, alpha)
        return 0.0, None, form, partial(_leading_start, lead, None, r_m, k, 2.0 / alpha,
                                        0.5 * ctx.T_tau, 0.5 * ctx.T_t, 0.0, 0.0)
    elif q_t < q and ctx.k == 1:      # H on (omega', -omega)
        rho = math.sqrt(q_t)
        stop = stop_index(lat.row_t, 1.0 / rho, 3, rho, rho)
        return _folded_forms(ctx, partial(_series_point, 0.0, math.pi / (2.0 * w_i), q_t, 0.0,
                                          w_r, _table(1.0, lat.row_t, alpha, stop)))
    # H's ratio q' e^(2v) = exp(-pi (w_r - x)/w_i) reaches e^-depth at the switch
    depth = max(1.0, math.pi * w_i / w_r) if ctx.bounded else 1.0
    switch = max(w_r - w_i * depth / math.pi, 0.0) if lat.rectangular and ctx.k != 3 else 0.0
    k = math.pi / (2.0 * w_r)
    if ctx.bounded:
        table = _table(q if ctx.k == 3 else -q, lat.row, alpha,
                       stop_index(lat.row, 1.0 / q, 3, q, q))
        above = partial(_series_point, r_m, k, 0.0, 0.0, w_r, table)
        scale = 16.0 * k * k * ctx.T_tau / ctx.T_t      # e_n of _kepler_start
        harmonics = tuple([scale * c for _, _, c in table[:3]] + [0.0, 0.0])[:3]
        start = partial(_kepler_start, harmonics, ctx.T_tau, ctx.T_t)
    else:
        big_q = lat.row.big_q
        c = math.tan(k * (w_r - switch))
        stop = stop_index(lat.row, 16.0, 3, abs(big_q), abs(big_q))
        if stop * stop > c + c * c:   # else min(n^2, c + c^2) = n^2 up to the stop
            stop = min(stop, stop_index(lat.row, 16 * (c + c * c), 1, abs(big_q), abs(big_q)))
        above = partial(_series_point, r_m, k, 0.0, 2.0 / alpha, w_r,
                        _table(-big_q, lat.row, alpha, stop))
        start = _unbounded_start_of(ctx)
    if switch == 0.0:
        return switch, None, above, start
    ratio = math.exp(-depth)
    below = partial(_series_point, r_m, math.pi / (2.0 * w_i), -q_t if ctx.bounded else q_t,
                    0.0, w_r, _table(1.0, lat.row_t, alpha,
                                     stop_index(None, 1.0 / ratio, 2, ratio, ratio)))
    return switch, below, above, start


def _transformed(r_m: float, k: float, row, alpha: float) -> tuple[partial, partial]:
    """(T', its leading terms) on the basis whose first half period is i w, k = pi/(2 w).

    Q = q^2 of ``row``, |q| <= exp(-pi w_r/(2 w)).  The terms of tanh^2 u +
    16 sum n gamma_n sinh^2 nu, gamma_n = (-Q)^n/(1 - Q^n), grow like (|Q|
    e^(2u))^n, at most |q|^n where the form serves (|x| <= omega, or w_r/2
    on a rhombic lattice), and their ratio to tanh^2 u, or that of the t
    terms to u - tanh u, is at most 16 n^3 |q|^n/|1 - Q^n|: the table stops
    where that is below 2^-53 (1 - r), r = ((n+1)/n)^3 |q|, and the leading
    terms, which start the inversion (``_leading_start``), below 2^-17, the
    cube root of t's rounding: none to four of them near the threshold.
    """
    big_q, pole = row.big_q, 2.0 / alpha
    ratio = math.sqrt(abs(big_q))
    table = _table(1.0, row, alpha, stop_index(row, 16.0, 3, ratio, ratio))
    lead = table[:stop_index(row, 16.0, 3, ratio, limit=2.0**-17) - 1]
    return (partial(_series_point, r_m, k, -big_q, pole, 0.0, table),
            partial(_series_point, r_m, k, -big_q, pole, 0.0, lead))


def _folded_forms(ctx: SolutionContext, form: partial, lead: partial | None = None,
                  k: float = 0.0) -> tuple:
    """(w_r/2, form, its fold, start) toward the escape asymptote; ``form`` is H or T' without r_m.

    gap2 = (r_i - r_m)(r_j - r_m) over f's other two roots, from f's
    offsets: positive on k = 1, |r_c - r_m|^2 beside a conjugate pair.
    Given ``lead``, T''s leading terms (``_transformed``) with k of its
    basis, the start solves them below w_r/2 and their fold above it
    (``_leading_start``); otherwise it is ``_unbounded_start``.
    """
    r_m, w_r = ctx.r_m, ctx.lattice.real_half_period
    half = 0.5 * w_r
    xs, m = ctx.xs, ctx.k - 1
    gap2 = ((xs[(m + 1) % 3] - xs[m]) * (xs[(m + 2) % 3] - xs[m])).real
    t_h, d_h, dp_h = form(half)
    fold = partial(_fold_point, r_m, 2.0 * t_h, d_h, dp_h / d_h, gap2, w_r)
    below = partial(_series_point, r_m, *form.args[1:])
    if lead is None:
        return half, below, partial(fold, form), _unbounded_start_of(ctx)
    # past w_r/2, t = pole/s + b + c s with s = w_r - x matches t and r there
    pole = 2.0 / ctx.state.alpha
    t_h, r_h = r_m * half + t_h, r_m + gap2 / d_h
    c = pole / (half * half) - r_h
    return half, below, partial(fold, form), partial(
        _leading_start, partial(_series_point, r_m, *lead.args[1:]), partial(fold, lead),
        r_m, k, pole, half, t_h, t_h - pole / half - c * half, c)


def _fold_point(r_m: float, const: float, d_h: float, slope_h: float, gap2: float,
                w_r: float, form: partial, x: float) -> tuple[float, float, float]:
    """(t, r, dr/dtau) at w_r/2 <= x < w_r from ``form`` at u = w_r - x (``_folded_forms``).

    With R(u) = r(u) - r_m and Z(u) = t(u) - r_m u from the form, the
    half-period addition theorem at p(w_r) = e_k (e1 on k = 1, e2 on a
    rhombic lattice) gives r - r_m = gap2/R(u), and zeta(u + w_r) =
    zeta(u) + zeta(w_r) + p'(u)/(2 (p(u) - e_k)) its integral, so that

        t = r_m x + 2 Z(w_r/2) - Z(u) + (A(u) - A(w_r/2))/a,   A = R'/R,

    continuous at w_r/2 and exact at the pole u = 0.  (R'/R)^2 = f(r)/R^2 =
    2a (R + s + gap2/R), s the sum of r_m - r_i over the other roots, turns
    the difference of slopes, which agree to O(a), into the a-free

        (A(u) - A(h))/a = 2 (R(u) - R(h)) (1 - gap2/(R(u) R(h))) / (A(u) + A(h)),

    h = w_r/2, both slopes positive.
    """
    u = w_r - x
    z, d, dp = form(u)
    slope = dp / d
    jump = 2.0 * (d - d_h) * (1.0 - gap2 / (d * d_h)) / (slope + slope_h)
    return r_m * x + const - z + jump, r_m + gap2 / d, gap2 * slope / d


def _table(mu: float, row, alpha: float, stop: int) -> tuple[tuple[float, float, float], ...]:
    """((n c_n, n^2 c_n, c_n), ...), c_n = mu^n/(a (1 - Q^n)), n < stop, Q of ``row``."""
    table, m = [], 1.0
    for n, d in zip(range(1, stop), row.upto(stop)[1]):
        m *= mu
        c = m / (alpha * d)
        table.append((n * c, n * n * c, c))
    return tuple(table)


def _series_point(r_m: float, k: float, lam: float, pole: float, w_r: float, table: tuple,
                  x: float) -> tuple[float, float, float]:
    """(t, r, dr/dtau) at x >= 0 from one form of ``_radial_forms``.

    With y = 2 k x the sums take s_n = sin ny, V_n = 1 - cos ny and D_n =
    ny - sin ny (in H and T' lam^n times sinh ny, cosh ny - 1 and sinh ny - ny),
    each by angle addition from s_1, V_1 and D_1 without cancellation:
    r - r_m = 16 k^2 sum n c_n V_n, dr/dtau = 32 k^3 sum n^2 c_n s_n and
    t - r_m x = 8 k sum c_n D_n; T adds its pole terms, tan u = 1/tan(k (w_r
    - x)) past u = 1, and T' its tanh terms from sinh y and cosh y - 1.  H
    and T' stop at a term below 2^-54 of their sum (n >= 5).
    """
    u = k * x
    y = 2.0 * u
    a = b = c = 0.0
    if lam:
        s1, v1 = math.sinh(y), 2.0 * math.sinh(u) ** 2
        d1, g = _odd_tail(y, s1, 1.0), 1.0 + v1
        sn, vn, dn, pn = lam * s1, lam * v1, lam * d1, lam
        for n, (ca, cb, cc) in enumerate(table, 1):
            a += ca * vn
            b += cb * sn
            c += cc * dn
            if n >= 5 and 2.0 * abs(cb * sn) <= _UNIT_ROUNDOFF * abs(b):
                break
            dn = lam * (dn + d1 * pn + sn * v1 + s1 * vn)
            v = lam * (vn * g + v1 * pn + s1 * sn)
            sn = lam * (sn * g + s1 * (pn + vn))
            vn = v
            pn *= lam
    else:
        s1, v1 = math.sin(y), 2.0 * math.sin(u) ** 2
        d1, g = _odd_tail(y, s1, -1.0), 1.0 - v1
        sn, vn, dn = s1, v1, d1
        for ca, cb, cc in table:
            a += ca * vn
            b += cb * sn
            c += cc * dn
            dn += d1 + sn * v1 + s1 * vn
            v = vn * g + v1 + s1 * sn
            sn = sn * g + s1 * (1.0 - vn)
            vn = v
    kk = k * k
    t, r, rp = 8.0 * k * c, 16.0 * kk * a, 32.0 * kk * k * b
    if pole and lam:
        # sech^2 u = 2/(2 + v1); below u = 1, u - tanh u = (u cosh u - sinh u)/cosh u,
        # a series of positive terms 2n u^(2n+1)/(2n+1)!, the first one left
        # out below 2^-58 of the sum; above it u - tanh u cancels by at most 4.2
        g = 1.0 / (2.0 + v1)
        tanh = math.tanh(u)
        if u < 1.0:
            u2 = u * u
            t += pole * k * u * u2 * (1.0 / 3.0 + u2 * (1.0 / 30.0 + u2 * (1.0 / 840.0 + u2 * (
                1.0 / 45360.0 + u2 * (1.0 / 3991680.0 + u2 * (1.0 / 518918400.0 + u2 * (
                    1.0 / 93405312000.0 + u2 * (1.0 / 22230464256000.0
                                                + u2 / 6758061133824000.0)))))))) / math.cosh(u)
        else:
            t += pole * k * (u - tanh)
        r += pole * kk * tanh * tanh
        rp += 4.0 * pole * kk * k * tanh * g
    elif pole:
        if u < 1.0:
            tan, tail = s1 / (2.0 - v1), (u * v1 - d1) / (2.0 - v1)
        else:
            tan = 1.0 / math.tan(k * (w_r - x))
            tail = tan - u
        t += pole * k * tail
        r += pole * kk * tan * tan
        rp += 2.0 * pole * kk * k * tan * (1.0 + tan * tan)
    return r_m * x + t, r_m + r, rp


def _odd_tail(y: float, s1: float, sign: float) -> float:
    """y - sin y (sign -1, s1 = sin y) or sinh y - y (+1, s1 = sinh y), by Taylor below 1."""
    if y >= 1.0:
        return sign * (s1 - y)
    y2, acc = sign * y * y, 1.0
    for d in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
        acc = 1.0 + acc * y2 / d
    return y * y * y / 6.0 * acc


def _orbit_point(ctx: SolutionContext, tau: float) -> tuple[float, float, float]:
    """(t, r, dr/dtau) at tau from one series; bounded tau folds to [-T_tau/2, T_tau/2]."""
    try:
        n = round(tau / ctx.T_tau) if ctx.bounded else 0
    except (OverflowError, ValueError):
        raise _no_fold(tau, ctx.T_tau) from None
    x = tau - ctx.T_tau * n if n else tau
    switch, below, above, _ = ctx._radial
    t, r, rp = (below if abs(x) < switch else above)(abs(x))
    if x < 0.0:
        t, rp = -t, -rp
    return (t + n * ctx.T_t if n else t), r, rp


def _no_fold(x: float, period: float) -> OutOfIntervalError:
    """The error of a bounded fold whose period count x/period is not finite."""
    return OutOfIntervalError(f"{x!r} is not a finite number of periods {period!r}")


def r_of_tau(ctx: SolutionContext, tau: float) -> float:
    """Radius at pseudo-time tau measured from pericenter passage (even in tau)."""
    return _orbit_point(ctx, tau)[1]


def tau0_from_r0(ctx: SolutionContext, r0: float, sign_rdot: int) -> float:
    """Pseudo-time at radius r0 on the branch with sign(dr/dtau) = sign_rdot.

    r0 > r_m puts p(tau0) = e(r0) above e_k (``_theta_pole``), so tau0 = +/-z
    is real, z = R_F of the gaps e(r0) - e_i (``Lattice.wp_inverse_real``).
    f = 2a (r - r_m)(r - r_i)(r - r_j) and e_i - e_k = a (r_i - r_m)/2 make
    them (a/2)(r_i - r_m)(r_j - r0)/(r0 - r_m), and at i = k the same with
    r_m for r0: factors read from f's offsets, none cancelling, each of
    exact sign.  They grow as 1/(r0 - r_m), past the floats once r0 - r_m
    is subnormal, so they are formed for (r0 - r_m)/4^e in [1/2, 2) and
    R_F is scaled back by 2^e (``Lattice.wp_inverse_real``): a power of 4
    scales every rounding exactly, so z is bit for bit the unscaled one
    wherever that stays in range.  Inbound is -z, pericenter passage ahead
    at tau = 0: T_tau - z would round z to an ulp of T_tau.  An r0 at or
    past an apse, inside the pad of ``MotionClass.contains``, is that apse:
    0 if r0 - r_m <= 0, and T_tau/2 if a gap is <= 0 on bounded motion,
    where r0 >= r_M.
    """
    if sign_rdot not in (-1, 1):
        raise ValueError("sign_rdot must be +1 or -1")
    if not ctx.region.contains(r0):
        raise OutOfIntervalError(
            f"r0 = {r0} outside allowed interval "
            f"[{ctx.region.r_lo}, {ctx.region.r_hi}]"
        )
    x0, xs, m = r0 - ctx.f.r0, ctx.xs, ctx.k - 1
    d0 = x0 - xs[m].real                # r0 - r_m
    if d0 <= 0.0:
        return 0.0
    i, j, e = (m + 1) % 3, (m + 2) % 3, math.frexp(d0)[1] // 2
    scale, d_i, d_j = 0.5 * ctx.f.alpha / math.ldexp(d0, -2 * e), xs[i] - xs[m], xs[j] - xs[m]
    gaps = [0.0, 0.0, 0.0]
    gaps[i], gaps[j] = scale * d_i * (xs[j] - x0), scale * d_j * (xs[i] - x0)
    gaps[m] = scale * (d_i * d_j).real  # real: a conjugate pair's |r_i - r_m|^2 if rhombic
    if ctx.lattice.rectangular:
        gaps = (gaps[0].real, gaps[1].real, gaps[2].real)
        if ctx.bounded and min(gaps) <= 0.0:
            return 0.5 * ctx.T_tau  # apocenter: both branches meet at the half period
    z = ctx.lattice.wp_inverse_real(gaps, e)
    return z if sign_rdot > 0 else -z


# -- polar angle ---------------------------------------------------------

def theta_of_tau(ctx: SolutionContext, tau: float) -> float:
    """Continuous polar angle with theta(0) = 0 at pericenter.

    theta = v_m tau - Im[L(v - tau) - L(v + tau) + 2 tau zeta(v)], summed
    as the series of ``_theta_series`` on every lattice: slope tau +
    sign arg W + sum s_m sin 2mb, with b = k tau, E real and W = (1 - E
    e^(2ib))^2, sin 2mb by angle addition from (sin 2b, cos 2b).  The
    factor 1 - E e^(2ib) has a positive real part, so arg W is continuous
    in tau.  Bounded motion folds whole pseudo-periods off |tau| >= T_tau,
    each adding ``dtheta_period``; unbounded motion has |tau| < w_r.
    """
    try:
        n = math.floor(tau / ctx.T_tau) if ctx.bounded and abs(tau) >= ctx.T_tau else 0
    except (OverflowError, ValueError):
        raise _no_fold(tau, ctx.T_tau) from None
    tau -= n * ctx.T_tau if n else 0.0
    theta = ctx._theta_series(tau)
    return theta + n * ctx.dtheta_period if n else theta


# -- radial Kepler equation ----------------------------------------------

def radial_kepler(ctx: SolutionContext, tau: float) -> float:
    """Physical time since pericenter passage, t(0) = 0, odd and increasing.

    The series of the module docstring; bounded motion folds whole
    pseudo-periods, t(tau + n T_tau) = t(tau) + n T_t.
    """
    return _orbit_point(ctx, tau)[0]


def invert_kepler(ctx: SolutionContext, t: float) -> float:
    """Solve t(tau) = t for tau: safeguarded Halley steps on the monotone branch.

    Bounded motion folds t to [0, T_t) and brackets tau by one period;
    unbounded motion brackets tau by [0, w_r), w_r the escape asymptote.
    The start solves the leading terms of the series form that serves
    (``_radial_forms``).  Past t at the last float before w_r no float tau
    solves it: OutOfIntervalError, as for a bounded t whose tau overflows.
    A Halley step whose Taylor remainder is at the rounding of t is taken
    without another evaluation (``_halley_bisect``): about one evaluation
    per sample on S and T'.  Where floats of tau no longer resolve t, near
    w_r, the nearer in t of two adjacent floats is returned.
    """
    tau = _invert(ctx, t)[0]
    # whole periods of T_tau past the floats; in propagate_ctx theta's fold stops them
    if not math.isfinite(tau):
        raise _no_fold(t, ctx.T_t)
    return tau


def _invert(ctx: SolutionContext, t: float) -> tuple[float, float, float]:
    """(tau, r, dr/dtau) with t(tau) = t; r and dr/dtau from the last step.

    The start is the one ``_radial_forms`` made; unbounded t past a
    quarter of t at the last float below w_r starts at that float, whose
    evaluation checks t first.
    """
    if t == 0.0:
        return 0.0, ctx.r_m, 0.0
    if ctx.bounded:
        try:
            n_per = math.floor(t / ctx.T_t)
        except (OverflowError, ValueError):
            raise _no_fold(t, ctx.T_t) from None
        t_r = t - n_per * ctx.T_t
        tau, r, rp = _halley_bisect(ctx, t_r, 0.0, ctx.T_tau, ctx._radial[3](t_r))
        return tau + n_per * ctx.T_tau, r, rp
    if t < 0.0:
        tau, r, rp = _invert(ctx, -t)
        return -tau, r, -rp
    # unbounded: [0, w_r), w_r the escape asymptote, never evaluated
    w_r = ctx.lattice.real_half_period
    if t * ctx.state.alpha * math.ulp(w_r) <= 1.0:
        return _halley_bisect(ctx, t, 0.0, w_r, ctx._radial[3](t))
    # t above a quarter of t(top) ~ 2/(a (w_r - top)), top the last float before w_r
    top = math.nextafter(w_r, 0.0)
    point = _orbit_point(ctx, top)
    if not t <= point[0]:
        raise OutOfIntervalError(f"t = {t!r} past t = {point[0]!r} at the last float "
                                 f"{top!r} before the escape asymptote")
    return _halley_bisect(ctx, t, 0.0, top, top, point)


def _unbounded_start_of(ctx: SolutionContext) -> partial:
    """t -> ``_unbounded_start`` on the constants of ``ctx``."""
    a, r_m, w_r = ctx.state.alpha, ctx.r_m, ctx.lattice.real_half_period
    b = r_m - 2.0 * ctx.e_k / a
    return partial(_unbounded_start, a, r_m, r_m / (ctx.f.df(r_m) / 12.0), ctx.energy, w_r,
                   b, b * w_r - 2.0 * ctx.lattice.eta_r / a)


def _unbounded_start(a: float, r_m: float, p: float, energy: float, w_r: float,
                     b: float, c: float, t: float) -> float:
    """tau at time t > 0 on unbounded motion: the smallest of three estimates.

    Near pericenter, t = r_m tau + f'(r_m) tau^3/12 + ..., whose root comes
    from the sinh form of the depressed cubic.  For E > 0 the a = 0 orbit
    with the same r_m and E has r'' = 2 E r + 1 <= f'(r)/2, so its time
    t = r_m tau + (1 + 2 E r_m)(sinh(s tau)/s - tau)/(2E), s = sqrt(2E),
    never exceeds the true one, and its root, Kepler's hyperbolic equation
    e sinh H - H = (2E)^(3/2) t with e = 1 + 2 E r_m and H = s tau
    (``_hyperbolic_anomaly``), lies at or above the true tau.  Near the
    escape asymptote, x = w_r - tau -> 0 with w_k = w_r and zeta(tau - w_r)
    = -1/x + O(x^3) turn t(tau) = r_m tau - (2 e_k tau + 2 zeta(tau - w_r)
    + 2 eta_r)/a into t = 2/(a x) + C - B x + O(x^3), B = r_m - 2 e_k/a,
    C = B w_r - 2 eta_r/a; x is the positive root of B x^2 + (t - C) x -
    2/a, taken in a form without cancellation (a > 0 on unbounded motion),
    when it lies below w_r.  An estimate at or past the asymptote w_r gives
    way to w_r/2.  ``_unbounded_start_of`` forms p = 12 r_m/f'(r_m) (> 0:
    r_m is a simple root of f), B and C once per context.
    """
    tau = 2.0 * math.sqrt(p / 3.0) * math.sinh(
        math.asinh(1.5 * t / r_m * math.sqrt(3.0 / p)) / 3.0)
    if energy > 0.0:
        s = math.sqrt(2.0 * energy)
        tau = min(tau, _hyperbolic_anomaly(2.0 * energy * r_m, s * s * s * t) / s)
    d = t - c
    disc = d * d + 8.0 * b / a
    if disc >= 0.0 and d + math.sqrt(disc) > 0.0:
        x = 4.0 / (a * (d + math.sqrt(disc)))
        if x < w_r:
            tau = min(tau, w_r - x)
    return tau if tau < w_r else 0.5 * w_r


def _hyperbolic_anomaly(excess: float, mean: float) -> float:
    """H > 0 with e sinh H - H = mean > 0, e = 1 + excess > 1, by Newton's method.

    The left side, excess sinh H + (sinh H - H), and its derivative, excess
    cosh H + 2 sinh^2(H/2), are formed without cancellation.  It is convex
    and increasing, so Newton's iterates fall monotonically to the root from
    any start above it: the least of (6 mean)^(1/3) and asinh(mean/excess),
    as sinh H - H >= H^3/6 and sinh H >= H, and of asinh((mean + H)/e) at
    that bound, as H = asinh((mean + H)/e) at the root.
    """
    bound = min((6.0 * mean) ** (1.0 / 3.0), math.asinh(mean / excess))
    anomaly = min(bound, math.asinh((mean + bound) / (1.0 + excess)))
    for _ in range(50):
        sh = math.sinh(anomaly)
        step = ((excess * sh + _odd_tail(anomaly, sh, 1.0) - mean)
                / (excess * math.cosh(anomaly) + 2.0 * math.sinh(0.5 * anomaly) ** 2))
        anomaly -= step
        if abs(step) <= 1e-12 * anomaly:
            break
    return anomaly


def _kepler_start(harmonics: tuple[float, float, float], t_tau: float, t_t: float,
                  t: float) -> float:
    """tau at time t in [0, T_t) from the first three harmonics of S.

    S is a generalised Kepler equation: with y = 2 pi tau/T_tau and M =
    2 pi t/T_t it reads M = y - sum e_n sin ny, e_n = 16 k^2 a_n T_tau/T_t of
    order q^n from S's table a_n (``_radial_forms``), and the first three
    harmonics leave an error of
    order e_1 q^3 in y.  Newton steps start from Kepler's first-order
    estimate y = M + e_1 sin M.  The truncated equation need not be
    monotone at large q and high eccentricity, so a step is taken only
    where its derivative is positive and it lands in the bracket, which
    starts as [0, 2 pi); otherwise the bracket is bisected.  The steps stop
    after one below 2^-17, about the cube root of the 2^-52 that
    ``_halley_bisect`` holds its remainder to: the error left, of order the
    step's square, is then below what the first Halley step takes.
    """
    e1, e2, e3 = harmonics
    mean = 2.0 * math.pi * t / t_t
    lo, hi, y = 0.0, 2.0 * math.pi, mean + e1 * math.sin(mean)
    for _ in range(60):
        s, c = math.sin(y), math.cos(y)
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        s3, c3 = s2 * c + c2 * s, c2 * c - s2 * s
        g = y - e1 * s - e2 * s2 - e3 * s3 - mean
        if g > 0.0:
            hi = y
        else:
            lo = y
        slope = 1.0 - e1 * c - 2.0 * e2 * c2 - 3.0 * e3 * c3
        y_new = y - g / slope if slope > 0.0 else math.inf
        if not lo <= y_new <= hi:
            y_new = 0.5 * (lo + hi)
        step, y = y_new - y, y_new
        if abs(step) <= 2.0**-17:
            break
    return y / (2.0 * math.pi) * t_tau


def _leading_start(lead: partial, fold: partial | None, r_m: float, k: float, pole: float,
                   half: float, t_half: float, b: float, c: float, t: float) -> float:
    """tau at time t >= 0 on T' from its leading terms ``lead`` (``_transformed``).

    Up to t_half = t(half), tau = x solves lead(x) = t on [0, half] by
    Halley steps (``_leading_root``); the truncated t is convex and
    increasing there.  Without its gamma terms, t = r_m x + k pole (u -
    tanh u), u = k x, lies between r_m x + k pole u^3/3 and r_m x + k pole
    (u - 1), so the first x is the root of the cubic (the sinh form of the
    depressed cubic, as in ``_unbounded_start``), a lower bound, where its
    u is at most 1.2, and else the least of the upper bounds t/r_m and (t +
    k pole)/(r_m + k^2 pole), the second exact to e^(-2u) at large u.
    Bounded t past T_t/2 = t_half folds by symmetry, tau = T_tau - x(T_t -
    t).  Unbounded t past t(w_r/2) solves ``fold``, the leading terms
    through ``_fold_point``'s addition formula (``_folded_forms``), from s
    = w_r - x on t = pole/s + b + c s: the fold's pole at w_r, with b and c
    such that t and dt/ds = -r match the form's at w_r/2.
    """
    if t <= t_half:
        p = 3.0 * r_m / (k**4 * pole)
        x = 2.0 * math.sqrt(p / 3.0) * math.sinh(
            math.asinh(1.5 * t / r_m * math.sqrt(3.0 / p)) / 3.0)
        if k * x > 1.2:
            x = min(t / r_m, (t + k * pole) / (r_m + k * k * pole))
        return _leading_root(lead, t, 0.0, half, x, 0.0)
    if fold is None:
        return 2.0 * half - _leading_start(lead, None, r_m, k, pole, half, t_half, b, c,
                                           2.0 * t_half - t)
    w_r = 2.0 * half
    d = t - b
    den = d + math.sqrt(max(d * d - 4.0 * pole * c, 0.0))
    s = 2.0 * pole / den if den * half > 2.0 * pole else half
    return _leading_root(fold, t, half, math.nextafter(w_r, 0.0), w_r - s, w_r)


def _leading_root(model: partial, t: float, lo: float, hi: float, x: float,
                  anchor: float) -> float:
    """x in [lo, hi] with model(x)[0] = t, by Halley steps from x, each kept in [lo, hi].

    The steps stop after one below 2^-8 |x - anchor|: Halley's error is of
    order the cube of its step, and 2^-24 is below what the first Halley
    step of ``_halley_bisect`` takes.  They also stop at an end that a
    step would pass again, where the truncated root lies past the end.
    """
    x = min(max(x, lo), hi)
    for _ in range(30):
        t_x, r, rp = model(x)
        err = t_x - t
        denom = 2.0 * r * r - err * rp
        step = -2.0 * err * r / denom if denom > 0.0 else -err / r
        x_new = min(max(x + step, lo), hi)
        if abs(step) <= 2.0**-8 * abs(x_new - anchor) or x_new == x:
            return x_new
        x = x_new
    return x


def _halley_bisect(ctx: SolutionContext, t: float, lo: float, hi: float, guess: float,
                   point: tuple | None = None) -> tuple[float, float, float]:
    """(tau, r, dr/dtau) with t(tau) = t in [lo, hi], from Halley steps at guess,
    whose (t, r, dr/dtau) is ``point`` where the caller has evaluated it.

    Each evaluation (t(tau), r, r') gives the Halley step h.  With r'' =
    f'(r)/2 and r''' = f''(r) r'/2, Taylor puts its residual in t at
    h^3 (f'(r)/12 - r'^2/(4r)), and tau + h is taken with no further
    evaluation once it lies in the bracket and |h|^3 (r'^2/(4r) +
    |f'(r)|/12) is below the rounding 2^-52 |t| that every form gives t
    to.  r and r' are carried to tau + h to third and second order; the
    next Taylor terms, from r'''' = 6 a r'^2 + f'(r) f''(r)/4, must also
    be below 2^-52 of their own scales: r, and for r' the r v =
    sqrt(r'^2 + h_mom^2) that the flight-path angle atan2(r', h_mom) reads
    it against.  Otherwise the Halley step, or the bracket's midpoint
    where that leaves the bracket, is the next tau.  A step below half an
    ulp of tau goes to the next float toward the root instead, and a
    bracket with no float inside returns the evaluated tau whose t is
    nearest t: near the escape asymptote adjacent floats of tau can be
    percents apart in t.
    """
    f, alpha, momentum = ctx.f, ctx.state.alpha, ctx.momentum
    ulp = 2.0 * _UNIT_ROUNDOFF
    tau = min(max(guess, lo), hi)
    t_tau, r, rp = _orbit_point(ctx, tau) if point is None else point
    best = (math.inf,)
    for _ in range(100):
        err = t_tau - t
        if err > 0.0:
            hi = tau
        else:
            lo = tau
        denom = 2.0 * r * r - err * rp
        tau_new = lo
        if denom > 0.0:
            h = -2.0 * err * r / denom
            tau_new = tau + h
            if lo <= tau_new <= hi:
                fp, fpp = f.df(r), f.d2f(r)
                cube = h * h * abs(h)
                fourth = cube * (abs(6.0 * alpha) * rp * rp + 0.25 * abs(fp * fpp))
                if (cube * (0.25 * rp * rp / r + abs(fp) / 12.0) <= ulp * abs(t)
                        and fourth <= 6.0 * ulp * math.hypot(rp, momentum)
                        and fourth * abs(h) <= 24.0 * ulp * r):
                    return (tau_new, r + h * (rp + h * (0.25 * fp + h * fpp * rp / 12.0)),
                            rp + h * (0.5 * fp + 0.25 * h * fpp * rp))
            if tau_new == tau:      # below half an ulp: the root is at most an ulp away
                tau_new = math.nextafter(tau, hi if err < 0.0 else lo)
        if abs(err) <= best[0]:
            best = abs(err), tau, r, rp
        if not lo < tau_new < hi:    # outside the bracket, or no Halley step
            tau_new = 0.5 * (lo + hi)
            if not lo < tau_new < hi:   # lo and hi adjacent floats
                return best[1:]
        tau = tau_new
        t_tau, r, rp = _orbit_point(ctx, tau)
    raise ConvergenceError(f"radial Kepler inversion failed to converge for t={t!r}")


def propagate_ctx(ctx: SolutionContext, dt: float) -> PropagatedState:
    """State at epoch + dt."""
    t = ctx.t0 + dt
    if dt == 0.0:
        return _state(ctx, ctx.tau0, t, *_orbit_point(ctx, ctx.tau0)[1:])
    tau, r, rp = _invert(ctx, t)
    return _state(ctx, tau, t, r, rp)


def state_at_tau(ctx: SolutionContext, tau: float) -> PropagatedState:
    """State at pseudo-time tau measured from pericenter passage.

    Unbounded motion escapes at |tau| = w_r, the real half period; beyond
    it the closed form describes no trajectory, and tau there is rejected.
    """
    if not ctx.bounded and abs(tau) >= ctx.lattice.real_half_period:
        raise OutOfIntervalError(
            f"tau = {tau} at or past the escape asymptote "
            f"|tau| = {ctx.lattice.real_half_period}"
        )
    return _state(ctx, tau, *_orbit_point(ctx, tau))


def _state(ctx: SolutionContext, tau: float, t: float, r: float,
           rp: float) -> PropagatedState:
    theta = theta_of_tau(ctx, tau) - ctx.theta0
    v_sq = 2.0 * ctx.energy + 2.0 / r + 2.0 * ctx.state.alpha * r
    v = math.sqrt(max(v_sq, 0.0))
    gamma = math.atan2(rp, ctx.momentum)
    return PropagatedState(r, theta, v, gamma, tau, t)
