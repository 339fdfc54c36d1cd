"""Weierstrass p, p' and zeta for real invariants, evaluated on one axis.

The closed form inverts p on the lattice's two axes while it builds a
context.  On the real axis (the epoch's tau0) p^-1 is Carlson's R_F of
the root gaps (DLMF 19.25.35), with no evaluation of p.  On the imaginary
axis (the theta pole) R_F seeds one Newton step, the one evaluation, which
also gives p' and zeta.  At a conjugate pair of gaps R_F reduces to real
arguments (``_rf_pair``).  It sums the Fourier series in the nome q =
exp(i pi tau), tau = omega3/omega1, of a basis (omega1, omega3) whose q^2
is real (``NomeSeries``).  With k = pi/(2 omega1), u = k z and c_n =
q^(2n)/(1 - q^(2n)), DLMF 23.8.1-23.8.2 give

    p     = -eta1/omega1 + k^2 (csc^2 u - 8 sum n c_n cos 2nu),
    zeta  = eta1 z/omega1 + k (cot u + 4 sum c_n sin 2nu),

and p' by differentiation.  On the basis's real axis the sums take one
(sin u, cos u) pair (``NomeSeries.at``); at z = -iy one (sinh, cosh) pair,
which is the same arithmetic with p real and p', zeta imaginary
(``NomeSeries.at_imaginary``).  The two axes swap under the homogeneity
p(iz; g2, g3) = -p(z; g2, -g3), zeta(iz; g2, g3) = -i zeta(z; g2, -g3)
(DLMF 23.10(iv)), which relates a lattice to its companion (g2, -g3).

The basis: each lattice decides once which series it sums, the one whose
nome is the smaller (``Lattice``).
- A rectangular lattice (positive discriminant) has (omega, omega') of
  A&S 18.9, with q = exp(-pi |omega'|/omega) real, and its half periods
  and eta from K and E in closed form.  At q <= q' = exp(-pi
  omega/|omega'|), as on most lattices of bounded motion (q <= 0.07), it
  sums its own series, whose line at -iy is its imaginary axis.  At q' <
  q, past q = e^-pi = 0.043 (ln q ln q' = pi^2), it sums the series of
  the companion on (omega', -omega) in the companion's terms: real half
  period |omega'|, nome q', and eta from K and E in closed form.  The
  companion's real axis is then the lattice's imaginary one, as below.
- A rhombic lattice (negative discriminant) has w_r, its real half
  period, and w_i, the companion's, each from the AGM of K (A&S 18.9,
  case Delta < 0), which also gives the companion's eta, and zeta(w_r)
  from Legendre's relation.  It sums the real-period basis of the
  companion, (w_i, (w_i + i w_r)/2), whose q^2 = -exp(-pi w_r/w_i) is
  negative (|q| <= 0.33 on the benchmark's rhombic states), on its real
  axis, the lattice's imaginary one.

So the Legendre relation and p(omega_k) = e_k hold by construction, and
no series is summed to build a lattice.  A lattice builds its real half
at construction: the real half period, one AGM, and on a rectangular
lattice the tail of E that T_t reads.  It builds its imaginary half, the
other AGM, eta, the nomes and the series, once, on first read
(``Lattice``), so a context read only for its periods takes one AGM.
The series take omega and eta as they are, so they inherit their error
from the roots e_i and their differences (``GRoots``), which a lattice of
the dynamics takes from the roots of f (``propagation._lattice_roots``).
Conventions follow A&S ch. 18:
omega1 = omega, omega2 = omega + omega', omega3 = omega', p(omega_k) = e_k,
with the roots e1, e2, e3 ordered by descending imaginary then real part.

The tests' reference kernel (``tests/oracle.py``) evaluates p, p', zeta
and sigma anywhere in the plane, in complex arithmetic on (omega, omega')
or on the Lagrange-reduced basis of a rhombic lattice.
"""

from __future__ import annotations

import collections
import math
from functools import cached_property
from operator import truediv

from .elliptic import carlson_rf, elliptic_K_tail, elliptic_KE
from .errors import (
    DegenerateLatticeError,
    PoleProximityError,
    WpInverseError,
)

_UNIT_ROUNDOFF = 2.0**-53   # truncation target of the series
_POLE_GUARD = 1e-12         # |z - lattice point| below which p, p' and zeta raise
_LAST_STEP = 16 * _UNIT_ROUNDOFF   # reach of the Newton step that refines an R_F seed


class GRoots(collections.namedtuple("GRoots", "e_tilde gaps")):
    """Roots of 4 s^3 - g2 s - g3, descending (Im, Re), with ``gaps`` =
    (e1 - e2, e1 - e3, e2 - e3), often known to more digits than the roots."""

    __slots__ = ()

    @property
    def discriminant(self) -> float:
        """g2^3 - 27 g3^2 = 16 ((e1 - e2)(e1 - e3)(e2 - e3))^2."""
        g12, g13, g23 = self.gaps
        return (16.0 * (g12 * g13 * g23) ** 2).real


class HalfPeriods(collections.namedtuple("HalfPeriods", "omega omega_prime eta eta_prime")):
    """Half-period data of the lattice generated by (2 omega, 2 omega'):
    eta = zeta(omega) and eta_prime = zeta(omega')."""

    __slots__ = ()

    def omega_k(self, k: int) -> complex:
        return self._pick(k, self.omega, self.omega_prime)

    def eta_k(self, k: int) -> complex:
        """zeta(omega_k)."""
        return self._pick(k, self.eta, self.eta_prime)

    @staticmethod
    def _pick(k: int, first: complex, third: complex) -> complex:
        # omega_2 = omega_1 + omega_3, and likewise for eta
        if k not in (1, 2, 3):
            raise ValueError(f"half-period index must be 1, 2 or 3, got {k}")
        return (first, first + third, third)[k - 1]


class _ImaginaryHalf:
    """An attribute of a ``Lattice``'s imaginary half: its first read builds the half.

    A non-data descriptor: the instance attributes the build sets serve
    every later read, and every other attribute reads as a plain one (a
    ``__getattr__`` hook would slow them all).
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, lat, owner: type = None):
        if lat is None:
            return self
        (lat._rectangular_imaginary if lat.rectangular else lat._rhombic_imaginary)()
        return lat.__dict__[self.name]


class Lattice:
    """Immutable evaluation context for the lattice of one set of roots.

    Construction builds the real half, ``real_half_period`` and on a
    rectangular lattice ``tail``; the first read of ``periods``, ``q``,
    ``q_t``, ``row``, ``row_t``, ``companion`` or ``nome_series`` builds the
    imaginary half (module docstring).  ``q`` is |q| of the real-period
    basis and ``q_t`` the nome of the one whose first half period is
    imaginary, with rows (``DenominatorRow``) of Q = +/-q^2 and +/-q_t^2,
    negative on a rhombic lattice.  ``companion`` says whether the series
    is the companion's, read on its real axis: on a rhombic lattice always,
    on a rectangular one where q_t < q.  All evaluation methods are pure.
    """

    periods, q, q_t, row, row_t, companion, nome_series = (_ImaginaryHalf() for _ in range(7))

    def __init__(self, roots: GRoots) -> None:
        self.roots = roots
        self.rectangular = roots.discriminant > 0.0
        if self.rectangular:
            self._rectangular_real()
        else:
            self._rhombic_real()

    # -- construction ----------------------------------------------------

    def _rectangular_real(self) -> None:
        """omega and ``tail`` of three real roots e1 > e2 > e3.

        With d = e1 - e3, m = (e2 - e3)/d and m1 = (e1 - e2)/d, each from
        its own root difference so that neither loses digits as 1 - the
        other, A&S 18.9 gives omega = K(m)/sqrt(d).  ``tail``, of order
        m^2 in E = K ((1 + m1)/2 - tail), serves T_t.  Either of m and m1
        may round to 1 while the other stays positive.
        """
        g12, d, g23 = self.roots.gaps
        d = d.real
        m, m1 = g23.real / d, g12.real / d
        if not (m > 0.0 and m1 > 0.0):
            raise DegenerateLatticeError(
                f"double root of the lattice cubic (m = {m!r}, m1 = {m1!r})"
            )
        s = math.sqrt(d)
        big_k, self.tail = elliptic_K_tail(m, m1)
        self.real_half_period = big_k / s
        self._real = (m, m1, s, big_k)

    def _rectangular_imaginary(self) -> None:
        """Half periods, eta values and series of three real roots e1 > e2 > e3.

        With m, m1 and omega of ``_rectangular_real``, A&S 18.9 gives
        omega' = i K(m1)/sqrt(d),

            eta  = sqrt(d) E(m) - e1 omega,
            eta' = -i (sqrt(d) E(m1) + e3 |omega'|).

        Then eta omega' - eta' omega = i (E K' + E' K - K K') = i pi/2 is
        Legendre's relation for K and E, and p(omega_k) = e_k holds by
        construction, so neither needs a check here.

        The nomes are q = exp(-pi |omega'|/omega) and q_t = q' =
        exp(-pi omega/|omega'|), ln q ln q' = pi^2.  The series is the
        lattice's own at q <= q', and otherwise that of the companion
        (g2, -g3), whose roots are -e3 > -e2 > -e1: real half period
        |omega'|, nome q' and eta_c = i eta' = sqrt(d) E(m1) + e3 |omega'|.
        """
        e1, _, e3 = self.roots.e_tilde
        e1, e3 = e1.real, e3.real
        m, m1, s, big_k = self._real
        big_e = big_k * (0.5 * (1.0 + m1) - self.tail)
        big_k1, big_e1 = elliptic_KE(m1, m)
        omega, omega_i = self.real_half_period, big_k1 / s
        eta, eta_c = s * big_e - e1 * omega, s * big_e1 + e3 * omega_i
        self.periods = HalfPeriods(complex(omega, 0.0), complex(0.0, omega_i),
                                   complex(eta, 0.0), complex(0.0, -eta_c))
        self.q = math.exp(-math.pi * omega_i / omega)
        self.q_t = math.exp(-math.pi * omega / omega_i)
        self.row, self.row_t = DenominatorRow(self.q * self.q), DenominatorRow(self.q_t * self.q_t)
        self.companion = self.q_t < self.q
        if self.companion:
            self.nome_series = NomeSeries(math.pi / (2.0 * omega_i), self.q_t, eta_c / omega_i,
                                          self.row_t)
        else:
            self.nome_series = NomeSeries(math.pi / (2.0 * omega), self.q, eta / omega, self.row)

    def _rhombic_real(self) -> None:
        """w_r of a real root e2 and a pair e1, e3.

        With H = |e1 - e2| and m, m1 = (H +/- Re(e1 - e2))/(2H), A&S 18.9
        (case Delta < 0) gives the real half period w_r = K(m)/sqrt(H).
        H m H m1 = (Im(e1 - e2))^2/4 gives the smaller of the two as
        (Im(e1 - e2))^2/(2 (H + |Re(e1 - e2)|)), which does not cancel
        where the pair closes on the real axis (the escape threshold).
        """
        g12 = self.roots.gaps[0]          # e1 - e2
        h, re = abs(g12), abs(g12.real)
        big, small = 0.5 * (h + re), 0.5 * g12.imag * g12.imag / (h + re)
        hm, hm1 = (big, small) if g12.real >= 0.0 else (small, big)     # H m, H m1
        m, m1 = hm / h, hm1 / h
        if not (m > 0.0 and m1 > 0.0):
            raise DegenerateLatticeError(f"double root of the lattice cubic (m = {m!r}, m1 = {m1!r})")
        s = math.sqrt(h)
        self.real_half_period = elliptic_K_tail(m, m1)[0] / s
        self._real = (m, m1, s, h, hm)

    def _rhombic_imaginary(self) -> None:
        """Half periods, eta values and series of a real root e2 and a pair e1, e3.

        The companion (g2, -g3), roots -e3, -e2, -e1, has the H of
        ``_rhombic_real`` with m and m1 swapped: its real half period, the
        lattice's imaginary one, is w_i = K(m1)/sqrt(H), and eta_c =
        zeta_c(w_i) = sqrt(H) (2 E(m1) - K(m1)) + e2 w_i = w_i (H m + e2 -
        2 H tail), E(m1) from the AGM of K(m1) (``elliptic_K_tail``).
        omega = (w_r - i w_i)/2 has p(omega) = e1 and omega' = conj(omega),
        so omega + omega' = w_r and omega' - omega = i w_i, and Legendre's
        relation eta omega' - eta' omega = i pi/2 gives zeta(w_r) w_i +
        eta_c w_r = pi.  The companion's basis (w_i, (w_i + i w_r)/2) has
        |q| = q_t = exp(-pi w_r/(2 w_i)) and q^2 negative; the real-period
        basis (w_r, omega') has q = exp(-pi w_i/(2 w_r)).
        """
        m, m1, s, h, hm = self._real
        big_k1, tail = elliptic_K_tail(m1, m)
        w_r, w_i = self.real_half_period, big_k1 / s
        eta_c = w_i * (hm + self.roots.e_tilde[1].real - 2.0 * h * tail)
        eta_r = (math.pi - eta_c * w_r) / w_i          # zeta(w_r)
        omega = 0.5 * complex(w_r, -w_i)
        self.q = math.exp(-math.pi * w_i / (2.0 * w_r))
        self.q_t = math.exp(-math.pi * w_r / (2.0 * w_i))
        self.row, self.row_t = (DenominatorRow(-self.q * self.q),
                                DenominatorRow(-self.q_t * self.q_t))
        self.nome_series = NomeSeries(math.pi / (2.0 * w_i), -self.q_t, eta_c / w_i, self.row_t)
        self.companion = True
        self.periods = HalfPeriods(omega, omega.conjugate(), 0.5 * complex(eta_r, eta_c),
                                   0.5 * complex(eta_r, -eta_c))


    # -- inversion ----------------------------------------------------------

    def _wp_imaginary(self, x: float) -> tuple[float, float, float]:
        """(p, dp/dx, Im zeta) at z = ix, where p is real and p', zeta imaginary.

        p'(ix) = -i dp/dx, and d Im zeta(ix)/dx = -p, which the Newton
        step of ``_refine_seed`` uses.  The lattice's own series is summed
        at ix (``NomeSeries.at_imaginary``), the companion's on its real
        axis (``NomeSeries.at``): p(ix) = -p_c(x), zeta(ix) = -i zeta_c(x).
        """
        if self.companion:
            p, pp, zt = self.nome_series.at(x)
            return -p, -pp, -zt
        p, pp, zt = self.nome_series.at_imaginary(-x)
        return p, -pp, zt

    def wp_inverse_real(self, gaps: tuple, e: int = 0) -> float:
        """x in (0, w_r] with p(x) = w >= e_k, from ``gaps`` = 4^e (w - e_i), i = 1, 2, 3.

        e_k is e1 on a rectangular lattice and e2, the real root, on a
        rhombic one, and w_r the real half period: p falls from +inf at 0
        to e_k at w_r.  A caller can often form the gaps with less
        cancellation than the subtraction: real ones, or on a rhombic
        lattice a conjugate pair and a real one.  x is R_F of the gaps
        (DLMF 19.25.35) in real arithmetic (``_rf_gaps``): no p evaluated.
        The power of 4 lets a w near the pole, whose gaps leave the floats,
        be passed scaled: R_F(4^e g) = 2^-e R_F(g) exactly.
        """
        return self._rf_gaps(gaps, self.real_half_period, e)

    def wp_inverse_imaginary(self, w: float, gaps: tuple
                             ) -> tuple[complex, tuple[complex, complex, complex]]:
        """(v, (p, p', zeta) at v) with p(v) = w on the imaginary axis.

        w <= e3 on a rectangular lattice, w <= e2 on a rhombic one, and
        ``gaps`` are e_i - w for i = 1, 2, 3, formed by the caller as for
        ``wp_inverse_real``.  p(iy; g2, g3) = -p(y; g2, -g3) makes y =
        R_F(gaps) the point of (0, h] with p(iy) = w, where ih is the first
        half period up the axis: omega' on a rectangular lattice, omega' -
        omega = i w_i on a rhombic one.  There p'(iy) = -i dp(iy)/dy lies
        on the -i branch, and its mirror v = 2 omega' - iy on the +i
        branch: Re v = 0 and h <= Im v < 2h on a rectangular lattice, Re v
        = w_r and 0 <= Im v < h on a rhombic one.  One Newton step at -iy
        (``_wp_imaginary``) refines y (``_refine_seed``); the values at v
        are those at -iy with 2 eta' added to zeta.
        """
        per = self.periods
        half = (per.omega_prime if self.rectangular else per.omega_prime - per.omega).imag
        x, values = self._refine_seed(-self._rf_gaps(gaps, half), w)
        y = abs(x)
        if y > half:               # a step past ih lands on the mirror point
            y = 2.0 * half - y
        if x != -y:
            values = self._wp_imaginary(-y)
        p, dp, zt = values
        return (2.0 * per.omega_prime - complex(0.0, y),
                (p, complex(0.0, -dp), complex(0.0, zt) + 2.0 * per.eta_prime))

    def _rf_gaps(self, gaps: tuple, full: float, e: int = 0) -> float:
        """2^e R_F of the gaps of ``wp_inverse_*``, a real one a rounding below 0 taken as 0.

        Rectangular: three real gaps; two of them 0 put w on a double root,
        where R_F diverges: DegenerateLatticeError.  Rhombic: the gap x at
        e2 and a conjugate pair b, b - x = +/-(e1 - e2) 4^e, reduced with
        the lattice's H (``_rf_pair``); ``full`` is the axis's half period.
        """
        if self.rectangular:
            g1, g2, g3 = max(gaps[0], 0.0), max(gaps[1], 0.0), max(gaps[2], 0.0)
            if (g1 == 0.0) + (g2 == 0.0) + (g3 == 0.0) > 1:
                raise DegenerateLatticeError(
                    f"p^-1 at a double root of the lattice cubic (gaps {gaps!r})")
            return math.ldexp(carlson_rf(g1, g2, g3), e)
        h = math.ldexp(abs(self.roots.gaps[0]), 2 * e)
        return math.ldexp(_rf_pair(max(gaps[1], 0.0), gaps[0], h, math.ldexp(full, -e)), e)

    def _refine_seed(self, x: float, w: float) -> tuple:
        """(x, (p, dp/dx, Im zeta) at ix) for the R_F seed x of p(ix) = w.

        The seed is exact up to the rounding of R_F and of the series: its
        residual |p(ix) - w| was at most 1.2e-15 (1 + |w|) over the theta
        poles of 310 seeded bounded, unbounded and rhombic states.
        WpInverseError when it exceeds 1e-11 (1 + |w|).  Otherwise one
        Newton step from the same evaluation (``_wp_imaginary``) refines x,
        with Im zeta moved by -p times the step, if it is within a few ulps
        of x (up to 8e-15 of the angle advance per period on the anchors,
        3e-15 after); a larger step, next to a critical point of p, would
        chase rounding divided by a small p'.
        """
        values = self._wp_imaginary(x)
        p, pp, zt = values
        if abs(p - w) > 1e-11 * (1.0 + abs(w)):
            raise WpInverseError(f"inversion failed for w={w!r}")
        step = (w - p) / pp if pp else 0.0
        if 0.0 < abs(step) <= _LAST_STEP * abs(x):
            return x + step, (w, pp, zt - p * step)
        return x, values


class DenominatorRow:
    """Q^n and 1 - Q^n, n = 1, 2, ..., Q = q^2 real: the denominators of p, p', zeta,
    theta, r and t on one basis, each made once, when a reader first reaches it."""

    __slots__ = ("big_q", "powers", "dens")

    def __init__(self, big_q: float) -> None:
        self.big_q, self.powers, self.dens = big_q, [], []

    def upto(self, n: int) -> tuple[list, list]:
        """(powers, dens), entry i for index i + 1, made to index n at least."""
        powers, dens, p = self.powers, self.dens, self.powers[-1] if self.powers else 1.0
        while len(dens) < n:
            p *= self.big_q
            powers.append(p)
            dens.append(1.0 - p)
        return powers, dens


def stop_index(row: DenominatorRow | None, scale: float, power: int, base: float,
               ratio: float = 0.0, grow: int = 3, limit: float = _UNIT_ROUNDOFF) -> int:
    """The first n >= 1 with B_n = scale n^power base^n/|1 - Q^n| <= limit (1 - r_n).

    A series whose n-th term is at most B_n stops there; r_n = ((n+1)/n)^grow
    ratio < 1 bounds the ratio of later terms.  Q is ``row``'s, 1 without a
    row.  Fixed-point steps on n = (ln(scale/limit) + power ln n)/ln(1/base)
    from power = 0 stay at or below the root, and B_n falls past its maximum.
    """
    if base == 0.0:
        return 1
    lam, big = -math.log(base), math.log(scale / limit)
    n = big / lam
    if n > 1.0:
        n = (big + power * math.log(n)) / lam
        if power > 0 and n > 1.0:
            n = (big + power * math.log(n)) / lam
    n = math.ceil(n) if n > 1.0 else 1
    while True:
        r = ((n + 1) / n) ** grow * ratio
        den = 1.0 if row is None else abs(row.upto(n)[1][n - 1])
        if r < 1.0 and scale * n**power * base**n <= limit * (1.0 - r) * den:
            return n
        n += 1


class NomeSeries:
    """p, p' and zeta on the two axes of a basis whose q^2 is real.

    With k = pi/(2 omega1), u = k z, the nome q = exp(i pi omega3/omega1)
    and c_n = q^(2n)/(1 - q^(2n)), DLMF 23.8.1-23.8.2 give

        p     = -eta/omega + k^2 (csc^2 u - 8 sum n c_n cos 2nu),
        p'    = k^3 (-2 cos u/sin^3 u + 16 sum n^2 c_n sin 2nu),
        zeta  = eta z/omega + k (cot u + 4 sum c_n sin 2nu),

    eta/omega = eta1/omega1 = k^2 (1/3 - 8 sum n c_n).  ``nome`` is |q|
    with the sign of q^2 = nome |nome|: positive on a rectangular basis,
    negative on the real-period basis of a rhombic lattice.  sin u and
    cos u are taken directly, since csc^2 u from 1 - cos 2u would lose
    digits near the pole, and the sines and cosines of multiples of u
    follow by angle addition.  1 - q^(2n) is the lattice's row of the
    basis (``DenominatorRow``).

    On the real axis (``at``) the sums stop before the first n with
    16 n^2 |c_n| <= 2^-53 (1 - |q|) (``stop_index``).  From there terms
    shrink by at most ((n+1)/n)^2 |q|^2 < |q| for every |q| < 0.98 (|q| <=
    0.33 on the benchmark's rhombic states, |q| < e^-pi on a rectangular
    lattice's companion), so each omitted tail is below the unit roundoff
    in units of k^2, k^3 and k, the sizes of csc^2 u >= 1, the cube and the
    cotangent.  The terms are made on the first call of ``at``;
    ``at_imaginary`` takes its own stop per call.
    """

    def __init__(self, k: float, nome: float, eta_over_omega: float,
                 row: DenominatorRow | None = None) -> None:
        self.k, self.nome, self.eta_over_omega = k, nome, eta_over_omega
        self.row = DenominatorRow(nome * abs(nome)) if row is None else row

    @cached_property
    def terms(self) -> tuple[tuple[float, float, float], ...]:
        """(8 n c_n, 16 n^2 c_n, 4 c_n), n = 1, 2, ..., to the bound of the class docstring."""
        q = abs(self.nome)
        stop, row = stop_index(self.row, 16.0, 2, q * q, limit=_UNIT_ROUNDOFF * (1.0 - q)), self.row
        return tuple([(8.0 * n * c, 16.0 * n * n * c, 4.0 * c)
                      for n, c in zip(range(1, stop), map(truediv, row.powers, row.dens))])

    def at(self, x: float) -> tuple[float, float, float]:
        """(p, p', zeta) at real x."""
        k = self.k
        u = k * x
        s, c = math.sin(u), math.cos(u)
        if abs(s) < k * _POLE_GUARD:
            raise PoleProximityError(f"real argument {x!r} at a lattice point")
        s2, c2 = 2.0 * s * c, (c - s) * (c + s)
        sn, cn = s2, c2
        sp = spp = szt = 0.0
        for a, b, d in self.terms:
            sp += a * cn
            spp += b * sn
            szt += d * sn
            sn, cn = sn * c2 + cn * s2, cn * c2 - sn * s2
        inv_s = 1.0 / s
        csc2 = inv_s * inv_s
        kk = k * k
        p = kk * (csc2 - sp) - self.eta_over_omega
        pp = kk * k * (spp - 2.0 * c * inv_s * csc2)
        zt = self.eta_over_omega * x + k * (c * inv_s + szt)
        return p, pp, zt

    def at_imaginary(self, y: float) -> tuple[float, float, float]:
        """(p, Im p', Im zeta) at z = -iy, where p is real and p', zeta imaginary.

        The sums of ``at`` at u = -it, t = k y: sin u = -i sinh t and
        cos u = cosh t, so sin 2nu = -i sinh 2nt and cos 2nu = cosh 2nt,
        each sum real and the complex arithmetic of the series the same
        operations, in the same order, on their nonzero parts.  The terms
        grow like e^(2nt), so the n-th term of the p' sum is at most B_n =
        16 n^2 |c_n| e^(2n|t|), and B_(n+1)/B_n <= r_n = ((n+1)/n)^2 |q|^2
        e^(2|t|), which falls with n.  Within half the other period,
        |t| <= pi Im(omega3/omega1)/2 makes e^(2|t|) <= 1/|q|, so
        r_n <= 4|q|.  The sums stop before the first n with r_n < 1 and
        B_n <= 2^-53 (1 - r_n) (``stop_index``).
        """
        k = self.k
        t = k * y
        s, c = -math.sinh(t), math.cosh(t)      # sin u = i s, cos u = c
        if abs(s) < k * _POLE_GUARD:
            raise PoleProximityError(f"argument {complex(0.0, -y)!r} at a lattice point")
        s2, c2 = 2.0 * s * c, c * c + s * s
        row, step = self.row, abs(self.row.big_q) * math.exp(2.0 * abs(t))
        stop = stop_index(row, 16.0, 2, step, step, 2)
        sn, cn = s2, c2
        sp = spp = szt = 0.0
        for n, cq in zip(range(1, stop), map(truediv, row.powers, row.dens)):
            sp += 8.0 * n * cq * cn
            spp += 16.0 * n * n * cq * sn
            szt += 4.0 * cq * sn
            sn, cn = sn * c2 + cn * s2, cn * c2 + sn * s2
        inv_s = -1.0 / s
        csc2 = -(inv_s * inv_s)
        kk = k * k
        p = kk * (csc2 - sp) - self.eta_over_omega
        pp = kk * k * (spp - 2.0 * c * inv_s * csc2)
        zt = -self.eta_over_omega * y + k * (c * inv_s + szt)
        return p, pp, zt


def _rf_pair(x: float, b: complex, h: float, full: float) -> float:
    """R_F(x, b, conj b) for x >= 0 and Im b != 0, in real arithmetic.

    With h = |b - x| and full = R_F(0, b - x, conj(b - x)), R_F(x, b, conj b)
    = sqrt(x) R_F((x - h)^2, |b|^2, (x + h)^2) for x >= h, and full minus
    that for x < h, where it is below full/2: no cancellation.  The
    arguments are divided by (x + h)^2, which keeps the squares in range,
    and (x - h)/(x + h) = (x^2 - h^2)/(x + h)^2 is formed from b and x:
    from a rounded h it would lose its digits where |b| << x = h.
    """
    inv = 1.0 / (x + h)
    br, bi = b.real * inv, b.imag * inv
    t = br * (2.0 * x * inv - br) - bi * bi           # (x - h)/(x + h)
    value = math.sqrt(x) * inv * carlson_rf(t * t, br * br + bi * bi, 1.0)
    return value if t >= 0.0 else full - value
